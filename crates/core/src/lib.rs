//! `usf-core` — the **User-space Scheduling Framework (USF)** and its default cooperative
//! policy **SCHED_COOP**, reproduced from the PPoPP'26 paper *"Rethinking Thread Scheduling
//! under Oversubscription"* (Roca & Beltran).
//!
//! The paper implements USF by extending glibc ("glibcv"): `pthread_create` and every
//! blocking pthread API become scheduling points of a user-space scheduler built on the
//! nOS-V tasking library, so that participating threads
//!
//! * never preempt one another — a thread runs until it ends, blocks or yields,
//! * keep a single-core affinity chosen by the scheduler (affinity → NUMA → anywhere),
//! * are multiplexed across processes by a centralized scheduler with a per-process quantum
//!   evaluated only at scheduling points.
//!
//! A Rust crate cannot (portably or safely) interpose libc symbols, so this crate exposes the
//! equivalent functionality as a library API with the same structure as Figure 1 of the
//! paper — see `DESIGN.md` for the substitution table:
//!
//! * [`Usf`] / [`ProcessHandle`] — instance and process registration (the `USF_ENABLE`
//!   startup path, §4.3.3). Multiple [`ProcessHandle`]s attached to the same instance are
//!   the multi-process scenario; [`Usf::connect`] joins a named shared instance.
//! * [`thread`] — thread creation with the Dice–Kogan thread cache and masked joins
//!   (§4.3.1, the `pthread_create` extension).
//! * [`sync`] — mutex, condition variable, barrier (blocking and busy-wait), semaphore,
//!   rwlock, once, wait-group and channels following the Listing 1 pattern: a FIFO wait
//!   queue of tasks, `nosv_pause` on contention, `nosv_submit` on release (§4.3.4).
//! * [`timing`] / [`poll`] — sleep, yield and timed readiness polling (the `nosv_waitfor`
//!   integration).
//! * [`affinity`] — affinity changes treated as hints and echoed back to the caller
//!   (§4.3.2).
//! * [`exec`] — the "glibcv enabled / disabled" switch: every primitive in this crate also
//!   works for plain OS threads, so the same workload code runs under the baseline Linux
//!   scheduler (oversubscribed, preemptive) or under SCHED_COOP.
//!
//! # Quick start
//!
//! ```
//! use usf_core::prelude::*;
//!
//! // Build a USF instance managing 2 virtual cores with the SCHED_COOP policy.
//! let usf = Usf::builder().cores(2).build();
//! let proc_a = usf.process("app-a");
//!
//! // Spawn cooperative threads: they run when the scheduler grants them a core and never
//! // preempt each other.
//! let handles: Vec<_> = (0..4)
//!     .map(|i| proc_a.spawn(move || i * 10))
//!     .collect();
//! let sum: i32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
//! assert_eq!(sum, 0 + 10 + 20 + 30);
//! usf.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod affinity;
pub mod config;
pub mod current;
pub mod error;
pub mod exec;
mod park;
pub mod poll;
pub mod runtime;
pub mod sync;
pub mod thread;
pub mod timing;

pub use config::UsfConfig;
pub use error::UsfError;
pub use exec::{ExecJoinHandle, ExecMode};
pub use runtime::{ProcessHandle, Usf, UsfBuilder};
pub use thread::{JoinHandle, ThreadShutdownReport};

// Re-export the substrate types users commonly need.
pub use usf_nosv::{MetricsSnapshot, PolicyKind, Topology};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::config::UsfConfig;
    pub use crate::exec::{ExecJoinHandle, ExecMode};
    pub use crate::poll::poll_until;
    pub use crate::runtime::{ProcessHandle, Usf, UsfBuilder};
    pub use crate::sync::{Barrier, BusyBarrier, Condvar, Mutex, RwLock, Semaphore, WaitGroup};
    pub use crate::thread::JoinHandle;
    pub use crate::timing::{sleep, yield_now};
    pub use usf_nosv::{PolicyKind, Topology};
}
