//! `usf-nosv` — a user-space tasking and scheduling substrate modelled after the
//! nOS-V library that the USF paper builds on (Álvarez, Sala, Beltran, IPDPS'24;
//! summarised in §2.3 of the USF paper).
//!
//! The crate provides the *mechanism* layer that the USF framework (crate
//! `usf-core`) turns into a seamless scheduler:
//!
//! * **Tasks** ([`task::Task`]) — the schedulable entity. In the USF use case every
//!   application thread is permanently bound to exactly one task (which is what keeps
//!   thread-local storage working), but the substrate does not require that.
//! * **Virtual cores** ([`topology::Topology`]) — the scheduler keeps *at most one running
//!   task per core slot* at all times, which is the invariant that removes involuntary
//!   preemption between participating threads.
//! * **A centralized multi-process scheduler** ([`scheduler::Scheduler`]) — a single
//!   shared scheduler instance manages tasks from any number of *process domains*
//!   ([`process::ProcessId`]). Idle cores are handed the next ready task according to the
//!   installed [`policy::Policy`]; the default [`policy::CoopPolicy`] implements the
//!   paper's SCHED_COOP selection rule (per-process per-core FIFO queues, affinity →
//!   NUMA → anywhere placement, and a per-process quantum evaluated only at scheduling
//!   points).
//! * **Scheduling points** — [`instance::TaskHandle::pause`], [`instance::NosvInstance::submit`],
//!   [`instance::TaskHandle::yield_now`], [`instance::TaskHandle::waitfor`] and
//!   [`instance::TaskHandle::detach`] correspond to `nosv_pause`, `nosv_submit`,
//!   `nosv_yield`, `nosv_waitfor` and `nosv_detach`.
//!
//! The paper's nOS-V shares its state between real OS processes through a shared-memory
//! segment; this reproduction keeps the state in an [`std::sync::Arc`] shared by any number
//! of process *domains* within one address space and offers a named global registry
//! ([`instance::NosvInstance::connect`]) so independently initialised components can join
//! the same scheduler, mimicking `shm_open`-by-name semantics (see DESIGN.md for the
//! substitution rationale).
//!
//! # Example
//!
//! ```
//! use usf_nosv::prelude::*;
//! use std::sync::Arc;
//!
//! let nosv = NosvInstance::new(NosvConfig::with_cores(2));
//! let pid = nosv.register_process("demo");
//!
//! // Attach the current thread as a worker with an associated task.
//! let handle = nosv.attach(pid, Some("main"));
//! assert!(handle.current_core().is_some());
//!
//! // Spawn another worker that simply attaches, runs, and detaches.
//! let nosv2 = nosv.clone();
//! let t = std::thread::spawn(move || {
//!     let h = nosv2.attach(pid, Some("worker"));
//!     // ... do work, possibly pausing/yielding ...
//!     h.detach();
//! });
//!
//! t.join().unwrap();
//! handle.detach();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod error;
pub mod faults;
pub mod fuzz;
pub mod instance;
pub mod obs;
pub mod policy;
pub mod process;
pub mod readyq;
pub mod sched_trace;
pub mod scheduler;
pub mod task;
pub mod topology;

mod binding;
mod registry;
mod shard;

pub use config::{NosvConfig, PolicyKind};
pub use error::NosvError;
pub use faults::{FaultPlan, FaultRecord, FaultSite, FaultSpec, FaultState};
pub use instance::{NosvInstance, TaskHandle};
pub use obs::{
    Counters, Histogram, HistogramSnapshot, MetricsSnapshot, ShardSnapshot, ShardStats,
    StageSnapshot, StageStats, StatsRegistry, StatsSample, StatsSampler, StatsSnapshot,
};
pub use policy::{CoopPolicy, FifoPolicy, Policy, TaskMeta};
pub use process::ProcessId;
pub use readyq::{CoopCore, CoopShards, CoreMap, PickTier, ProcQueues, ReadyTime, TopologyView};
pub use sched_trace::{TraceEntry, TraceEvent, TraceMeta, TraceRecorder};
pub use scheduler::{KillReport, StallReport};
pub use task::{Task, TaskId, TaskRef, TaskState, WaitOutcome};
pub use topology::{CoreId, Topology};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::config::{NosvConfig, PolicyKind};
    pub use crate::instance::{NosvInstance, TaskHandle};
    pub use crate::policy::{CoopPolicy, FifoPolicy, Policy, TaskMeta};
    pub use crate::process::ProcessId;
    pub use crate::task::{TaskRef, TaskState, WaitOutcome};
    pub use crate::topology::{CoreId, Topology};
}
