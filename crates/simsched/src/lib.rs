//! `usf-simsched` — a discrete-event simulator of thread scheduling on an oversubscribed
//! multicore node.
//!
//! The paper evaluates USF/SCHED_COOP on a Marenostrum 5 node (2 × 56-core Sapphire Rapids,
//! Table 1) with hundreds of threads. This repository is built and tested on small machines,
//! so the evaluation-scale experiments are reproduced on this simulator instead (see
//! DESIGN.md, substitution table). The simulator models exactly the mechanisms the paper
//! attributes its results to:
//!
//! * a **preemptive fair scheduler** ([`sched::FairScheduler`], EEVDF/CFS-like: weighted
//!   virtual runtime, a preemption quantum, migrations) — the baseline Linux behaviour;
//! * the **SCHED_COOP cooperative scheduler** ([`sched::CoopScheduler`]): per-process
//!   per-core FIFO queues, affinity → socket → anywhere placement, a per-process quantum
//!   evaluated only at scheduling points, and *no* involuntary preemption;
//! * **static partitioning** ([`SchedModel::Partitioned`]) for the bl-eq / bl-opt
//!   baselines: the fair scheduler again, inside per-process core masks, as `taskset` does
//!   (placement has one mechanism — per-process core masks — whichever model consumes them);
//! * **synchronization objects** with the behaviours that matter under oversubscription:
//!   mutexes (lock-holder preemption), blocking barriers, and busy-wait barriers with or
//!   without a yield (the OpenBLAS/BLIS/MPICH pattern of §5.2);
//! * **context-switch and migration costs** and a **memory-bandwidth contention model**
//!   (processor sharing of a node-wide GB/s cap) used by the LAMMPS/DeePMD experiment.
//!
//! Workloads are [`program::Program`]s — sequences of operations (compute with optional
//! bandwidth demand, lock/unlock, barriers, sleep, yield, event signal/wait, spawning child
//! programs) — instantiated as [`thread::SimThread`]s and executed by the [`engine::Engine`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod machine;
pub mod metrics;
pub mod program;
pub mod replay;
pub mod sched;
pub mod thread;
pub mod time;

pub use engine::{Engine, SimReport};
pub use machine::Machine;
pub use metrics::SimMetrics;
pub use program::{BarrierWaitKind, Op, Program, ProgramRef};
pub use replay::{assert_replays_clean, replay, Divergence, ReplayReport};
pub use sched::{CoopScheduler, FairScheduler, SchedModel};
pub use thread::{ProcessDesc, ProcessId, ThreadId};
pub use time::SimTime;
