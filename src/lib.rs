//! **USF** — a reproduction of *"Rethinking Thread Scheduling under Oversubscription: A
//! User-Space Framework for Coordinating Multi-runtime and Multi-process Workloads"*
//! (Roca & Beltran, PPoPP 2026) as a Rust library stack.
//!
//! This facade crate re-exports the whole stack so applications and the examples can depend
//! on a single crate:
//!
//! * [`framework`] (`usf-core`) — the USF framework and SCHED_COOP: cooperative threads,
//!   blocking primitives, thread cache, process domains, execution modes.
//! * [`nosv`] (`usf-nosv`) — the nOS-V-like tasking substrate underneath.
//! * [`runtimes`] (`usf-runtimes`) — task-based and fork-join runtimes used for the
//!   multi-runtime composition scenarios.
//! * [`blas`] (`usf-blas`) — blocked linear-algebra kernels standing in for OpenBLAS/BLIS.
//! * [`simsched`] (`usf-simsched`) — the discrete-event scheduling simulator used to
//!   reproduce the paper's 112-core evaluation.
//! * [`workloads`] (`usf-workloads`) — the evaluation workloads (nested matmul, Cholesky,
//!   AI microservices, MD ensembles).
//! * [`scenarios`] (`usf-scenarios`) — the declarative co-run/oversubscription scenario
//!   engine: one spec runs unmodified on the OS baseline, the USF stack and the simulator.
//!
//! See `README.md` for a tour, `DESIGN.md` for the architecture and the paper-to-repo
//! substitution table, and `EXPERIMENTS.md` for the reproduced tables and figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use usf_blas as blas;
pub use usf_core as framework;
pub use usf_nosv as nosv;
pub use usf_runtimes as runtimes;
pub use usf_scenarios as scenarios;
pub use usf_simsched as simsched;
pub use usf_workloads as workloads;

/// Commonly used items across the stack.
pub mod prelude {
    pub use usf_core::prelude::*;
    pub use usf_runtimes::{LoopSchedule, TaskDeps, TaskRuntime, Team, TransientPool, WaitPolicy};
    pub use usf_scenarios::{
        Executor, ModelSel, OsExecutor, Placement, ProcSpec, ScenarioSpec, SimExecutor, UsfExecutor,
    };
}
