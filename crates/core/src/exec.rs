//! Execution modes: the "glibcv enabled / glibcv disabled" switch of Figure 1.
//!
//! Every workload, runtime and benchmark in this repository is written against [`ExecMode`]
//! so that the *same* code runs either
//!
//! * [`ExecMode::Os`] — plain `std::thread` spawning; blocking primitives fall back to OS
//!   parking; the Linux kernel scheduler time-slices the (oversubscribed) threads. This is
//!   the paper's *Baseline*.
//! * [`ExecMode::Usf`] — threads are cooperative USF workers of a process domain; blocking
//!   primitives are scheduling points; SCHED_COOP (or another installed policy) decides who
//!   runs. This is the paper's *SCHED_COOP* configuration.

use crate::error::{panic_message, UsfError};
use crate::runtime::ProcessHandle;
use crate::thread::JoinHandle;

/// How threads of a workload are created and scheduled.
#[derive(Clone, Debug)]
pub enum ExecMode {
    /// Plain OS threads under the kernel scheduler (the oversubscribed baseline).
    Os,
    /// Cooperative USF threads of the given process domain (SCHED_COOP).
    Usf(ProcessHandle),
}

impl ExecMode {
    /// Human-readable name used by benchmark output.
    pub fn label(&self) -> &'static str {
        match self {
            ExecMode::Os => "baseline-os",
            ExecMode::Usf(_) => "sched_coop",
        }
    }

    /// Whether this mode schedules cooperatively through USF.
    pub fn is_cooperative(&self) -> bool {
        matches!(self, ExecMode::Usf(_))
    }

    /// Spawn a thread according to the mode.
    pub fn spawn<F, T>(&self, f: F) -> ExecJoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        match self {
            ExecMode::Os => ExecJoinHandle::Os(std::thread::spawn(f)),
            ExecMode::Usf(p) => ExecJoinHandle::Usf(p.spawn(f)),
        }
    }

    /// Spawn a named thread according to the mode.
    pub fn spawn_named<F, T>(&self, name: impl Into<String>, f: F) -> ExecJoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        match self {
            ExecMode::Os => ExecJoinHandle::Os(
                std::thread::Builder::new()
                    .name(name.into())
                    .spawn(f)
                    .expect("failed to spawn OS thread"),
            ),
            ExecMode::Usf(p) => ExecJoinHandle::Usf(p.spawn_named(name, f)),
        }
    }

    /// The process handle, when in USF mode.
    pub fn process(&self) -> Option<&ProcessHandle> {
        match self {
            ExecMode::Os => None,
            ExecMode::Usf(p) => Some(p),
        }
    }
}

/// Join handle for a thread spawned through [`ExecMode::spawn`].
#[derive(Debug)]
pub enum ExecJoinHandle<T> {
    /// Handle to a plain OS thread.
    Os(std::thread::JoinHandle<T>),
    /// Handle to a cooperative USF thread.
    Usf(JoinHandle<T>),
}

impl<T> ExecJoinHandle<T> {
    /// Wait for the thread and return its result (propagating panics as errors).
    pub fn join(self) -> std::thread::Result<T> {
        match self {
            ExecJoinHandle::Os(h) => h.join(),
            ExecJoinHandle::Usf(h) => h.join(),
        }
    }

    /// Join, mapping panics to [`UsfError`].
    pub fn join_result(self) -> Result<T, UsfError> {
        self.join()
            .map_err(|e| UsfError::ThreadPanicked(panic_message(&*e)))
    }

    /// Whether the thread has finished (best effort; always `false` for running threads).
    pub fn is_finished(&self) -> bool {
        match self {
            ExecJoinHandle::Os(h) => h.is_finished(),
            ExecJoinHandle::Usf(h) => h.is_finished(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Usf;

    #[test]
    fn os_mode_spawns_plain_threads() {
        let mode = ExecMode::Os;
        assert!(!mode.is_cooperative());
        assert_eq!(mode.label(), "baseline-os");
        assert!(mode.process().is_none());
        let h = mode.spawn(|| 3);
        assert_eq!(h.join().unwrap(), 3);
    }

    #[test]
    fn usf_mode_spawns_cooperative_threads() {
        let usf = Usf::builder().cores(2).build();
        let p = usf.process("exec-test");
        let mode = ExecMode::Usf(p);
        assert!(mode.is_cooperative());
        assert_eq!(mode.label(), "sched_coop");
        assert!(mode.process().is_some());
        let h = mode.spawn_named("worker", || 4);
        assert_eq!(h.join().unwrap(), 4);
        assert_eq!(usf.metrics().attaches, 1);
        usf.shutdown();
    }

    #[test]
    fn join_result_maps_panics() {
        let mode = ExecMode::Os;
        let h = mode.spawn(|| -> i32 { panic!("bad {}", 1) });
        let err = h.join_result().unwrap_err();
        assert!(matches!(err, UsfError::ThreadPanicked(m) if m.contains("bad 1")));
    }

    #[test]
    fn both_modes_run_the_same_closure() {
        let usf = Usf::builder().cores(2).build();
        let modes = [ExecMode::Os, ExecMode::Usf(usf.process("p"))];
        for mode in modes {
            let hs: Vec<_> = (0..4).map(|i| mode.spawn(move || i * i)).collect();
            let total: i32 = hs.into_iter().map(|h| h.join().unwrap()).sum();
            assert_eq!(total, 14);
        }
        usf.shutdown();
    }
}
