//! `usf-scenarios` — a declarative co-run/oversubscription scenario engine.
//!
//! The paper's headline claim is not about any single workload: it is that a user-space
//! cooperative scheduler keeps *co-running, mutually oversubscribing* processes and
//! runtimes fast and fair where the OS's preemptive scheduler thrashes. This crate turns
//! "one figure = one binary" into "one spec = any co-run experiment on any stack":
//!
//! 1. **Spec** ([`spec`]): a [`ScenarioSpec`] describes N processes — workload kind,
//!    problem size, runtime flavour, thread/core demand, arrival phase — as data.
//! 2. **Executors** ([`executor`], [`sim`]): one trait, three stacks. [`OsExecutor`] runs
//!    the spec on plain OS threads (kernel preemption), [`UsfExecutor`] on cooperative
//!    USF threads of one shared scheduler instance (SCHED_COOP), and [`SimExecutor`]
//!    lowers the *same* spec into the `usf-simsched` discrete-event simulator at
//!    paper-scale core counts.
//! 3. **Report** ([`report`]): per-process makespan, slowdown-vs-solo, Jain fairness,
//!    unit-latency percentiles and scheduler-metrics deltas.
//!
//! The canned [`library`] holds the co-run experiments the paper argues about (solo runs,
//! the HPC pair, latency-vs-batch co-location, the 1×–8× oversubscription ramp); the
//! `fig6_oversub` binary in `usf-bench` drives the ramp through all three stacks.
//!
//! ```
//! use usf_scenarios::{library, Executor, OsExecutor, SimExecutor};
//! use usf_scenarios::spec::{ModelSel, ProblemSize};
//! use usf_simsched::Machine;
//!
//! let spec = library::oversub_ramp(2, 2, ProblemSize::Tiny);
//! let real = OsExecutor.run_spec(&spec);           // kernel scheduler, real threads
//! // 112 simulated cores, SCHED_COOP
//! let sim = SimExecutor::for_model(Machine::marenostrum5(), ModelSel::Coop, &spec);
//! let sim = sim.run_spec(&spec);
//! assert_eq!(real.processes.len(), sim.processes.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod executor;
pub mod library;
pub mod plan;
pub mod report;
pub mod sim;
pub mod spec;

pub use executor::{Executor, OsExecutor, UsfExecutor};
pub use plan::{ProcPlan, ScenarioPlan};
pub use report::{ProcessOutcome, ScenarioReport, SchedDelta};
pub use sim::{LoweredScenario, SimExecutor, SimProcShape};
pub use spec::{
    Arrival, FaultPlanSpec, ModelSel, Placement, ProblemSize, ProcSpec, RuntimeFlavor,
    ScenarioSpec, WorkloadKind,
};
