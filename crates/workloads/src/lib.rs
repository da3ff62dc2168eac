//! `usf-workloads` — the workloads of the paper's evaluation (§5).
//!
//! Every experiment of the paper is represented twice:
//!
//! * a **real-execution** variant that runs actual threads through `usf-core` (SCHED_COOP)
//!   or plain OS threads (baseline) at a scale suitable for the host machine — used by the
//!   examples and integration tests to demonstrate the framework genuinely works; and
//! * a **simulated** variant that reconstructs the paper's 56/112-core machine inside
//!   `usf-simsched` so the figures and tables can be regenerated with the paper's thread
//!   counts (see DESIGN.md, substitution table).
//!
//! | Module | Paper experiment |
//! |---|---|
//! | [`matmul`] | §5.3 nested matmul, real execution |
//! | [`sim_matmul`] | §5.3 / Figure 3 heatmaps, simulated 56-core socket |
//! | [`cholesky`] | §5.4 runtime-composition Cholesky, real execution |
//! | [`sim_cholesky`] | §5.4 / Table 2, simulated |
//! | [`sim_nested`] | the nested-BLAS model both simulated §5.3 and §5.4 workloads run |
//! | [`microservices`] | §5.5 / Figure 4 AI microservices, simulated 112-core node |
//! | [`md`] | §5.6 / Figure 5 LAMMPS + DeePMD ensembles, simulated |
//! | [`poisson`], [`stats`] | request generation and summary statistics |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cholesky;
pub mod matmul;
pub mod md;
pub mod microservices;
pub mod poisson;
pub mod sim_cholesky;
pub mod sim_matmul;
pub mod sim_nested;
pub mod stats;
pub mod workload;

pub use cholesky::{run_cholesky, CholeskyConfig, CholeskyInstance, CholeskyResult};
pub use matmul::{run_matmul, MatmulConfig, MatmulInstance, MatmulResult};
pub use md::{run_md_scenario, MdConfig, MdResult, MdScenario};
pub use microservices::{
    run_microservices, MicroservicesConfig, MicroservicesResult, PartitionScheme,
};
pub use sim_cholesky::{run_sim_cholesky, SimCholeskyConfig};
pub use sim_matmul::{run_sim_matmul, SimMatmulConfig};
pub use sim_nested::{run_nested, NestedSpec, SimNestedResult, Stack};
pub use workload::{CholeskyWorkload, MatmulWorkload, RuntimeFlavor, SyntheticWorkload, Workload};
