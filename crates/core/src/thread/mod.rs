//! Cooperative thread creation — the `pthread_create` extension of glibcv (§4.3.1).
//!
//! [`ProcessHandle::spawn`](crate::runtime::ProcessHandle::spawn) wraps the user function:
//! the spawned OS thread first attaches itself to the nOS-V scheduler (becoming a worker
//! with an associated task) and only then runs the user code, pinned to the virtual core the
//! scheduler granted it. When the user function returns, the worker detaches and parks in
//! the [`cache::ThreadCache`] instead of exiting; `join` is *masked* — it waits on a
//! one-count [`WaitGroup`] the wrapper marks done rather than on OS thread termination,
//! exactly like glibcv masks `pthread_join` when a thread is placed in the cache.

pub mod cache;

pub use cache::{ThreadCache, ThreadCacheStats, ThreadShutdownReport, DEFAULT_SHUTDOWN_TIMEOUT};

use crate::current::{clear_current, set_current, CurrentCtx};
use crate::error::{panic_message, UsfError};
use crate::sync::WaitGroup;
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;
use usf_nosv::{NosvInstance, ProcessId, TaskRef};

/// Shared completion slot between a spawned thread and its [`JoinHandle`].
struct Packet<T> {
    result: Mutex<Option<std::thread::Result<T>>>,
    /// Counts down once, when `result` has been filled in.
    done: WaitGroup,
    task: Mutex<Option<TaskRef>>,
}

/// Handle to a cooperative thread, returned by
/// [`ProcessHandle::spawn`](crate::runtime::ProcessHandle::spawn).
///
/// Unlike `std::thread::JoinHandle`, joining does not wait for the OS thread to exit (the
/// thread is recycled into the cache); it waits for the user function to finish.
pub struct JoinHandle<T> {
    packet: Arc<Packet<T>>,
}

impl<T> std::fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinHandle")
            .field("finished", &self.is_finished())
            .finish()
    }
}

impl<T> JoinHandle<T> {
    /// Whether the thread's user function has finished.
    pub fn is_finished(&self) -> bool {
        self.packet.done.count() == 0
    }

    /// The nOS-V task associated with the thread, once it has attached.
    pub fn task(&self) -> Option<TaskRef> {
        self.packet.task.lock().clone()
    }

    /// Wait (cooperatively, if the caller is itself a USF thread) for the thread to finish
    /// and return its result. Mirrors `std::thread::JoinHandle::join`: a panic in the
    /// spawned thread is reported as `Err`.
    pub fn join(self) -> std::thread::Result<T> {
        self.packet.done.wait();
        self.packet
            .result
            .lock()
            .take()
            .expect("join called twice or result stolen")
    }

    /// Like [`JoinHandle::join`], but gives up after `timeout`. On timeout the handle is
    /// returned so the caller can keep waiting later.
    pub fn join_timeout(self, timeout: Duration) -> Result<std::thread::Result<T>, JoinHandle<T>> {
        if self.packet.done.wait_timeout(timeout) {
            Ok(self
                .packet
                .result
                .lock()
                .take()
                .expect("join called twice or result stolen"))
        } else {
            Err(self)
        }
    }

    /// Convenience wrapper around [`JoinHandle::join`] mapping panics to [`UsfError`].
    pub fn join_result(self) -> Result<T, UsfError> {
        self.join()
            .map_err(|e| UsfError::ThreadPanicked(panic_message(&*e)))
    }
}

/// Spawn a cooperative thread in process `pid` of the given instance, using `cache` for
/// worker reuse. Used by [`crate::runtime::ProcessHandle::spawn`].
pub(crate) fn spawn_on<F, T>(
    nosv: &NosvInstance,
    cache: &Arc<ThreadCache>,
    pid: ProcessId,
    name: Option<String>,
    f: F,
) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let packet = Arc::new(Packet::<T> {
        result: Mutex::new(None),
        done: WaitGroup::with_count(1),
        task: Mutex::new(None),
    });
    let packet2 = Arc::clone(&packet);
    let nosv = nosv.clone();
    let label = name.clone();
    let job = Box::new(move || {
        // Attach: the thread is recruited as a nOS-V worker and blocks here until the
        // scheduler grants it a core (it can no longer run freely). The attach can lose a
        // race against shutdown or a process kill; the failure must land in the join
        // packet as an error — a panic here would skip `done.done()` and hang the joiner.
        let result =
            match nosv.try_attach(pid, label.as_deref()) {
                Ok(handle) => {
                    *packet2.task.lock() = Some(handle.task().clone());
                    set_current(CurrentCtx {
                        task: handle.task().clone(),
                        nosv: nosv.clone(),
                        process: pid,
                    });
                    let result = catch_unwind(AssertUnwindSafe(f));
                    clear_current();
                    // The thread goes back to the cache, not to the application: it keeps
                    // its CPU binding for its next job.
                    handle.detach_pooled();
                    result
                }
                Err(e) => Err(Box::new(format!("usf spawn: attach failed: {e}"))
                    as Box<dyn std::any::Any + Send>),
            };
        *packet2.result.lock() = Some(result);
        packet2.done.done();
    });
    cache.dispatch(name, job);
    JoinHandle { packet }
}

#[cfg(test)]
impl<T> JoinHandle<T> {
    /// Number of threads queued on the join.
    pub(crate) fn waiter_count(&self) -> usize {
        self.packet.done.waiter_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usf_nosv::NosvConfig;

    fn setup(cores: usize) -> (NosvInstance, Arc<ThreadCache>, ProcessId) {
        let nosv = NosvInstance::new(NosvConfig::with_cores(cores));
        let pid = nosv.register_process("test");
        (nosv, ThreadCache::new(32), pid)
    }

    #[test]
    fn spawn_and_join_returns_value() {
        let (nosv, cache, pid) = setup(2);
        let h = spawn_on(&nosv, &cache, pid, Some("t1".into()), || 21 * 2);
        assert_eq!(h.join().unwrap(), 42);
        cache.shutdown();
    }

    #[test]
    fn join_reports_panics() {
        let (nosv, cache, pid) = setup(2);
        let h = spawn_on(&nosv, &cache, pid, None, || panic!("boom"));
        let err = h.join_result().unwrap_err();
        assert!(matches!(err, UsfError::ThreadPanicked(msg) if msg.contains("boom")));
        cache.shutdown();
    }

    #[test]
    fn join_timeout_returns_handle_when_still_running() {
        let (nosv, cache, pid) = setup(2);
        let h = spawn_on(&nosv, &cache, pid, None, || {
            std::thread::sleep(Duration::from_millis(100));
            5
        });
        let h = match h.join_timeout(Duration::from_millis(5)) {
            Err(h) => h,
            Ok(_) => panic!("join should have timed out"),
        };
        assert_eq!(h.join().unwrap(), 5);
        cache.shutdown();
    }

    #[test]
    fn oversubscribed_spawns_all_complete() {
        // 1 virtual core, 8 threads: they must run one at a time and all complete.
        let (nosv, cache, pid) = setup(1);
        let handles: Vec<_> = (0..8)
            .map(|i| spawn_on(&nosv, &cache, pid, None, move || i))
            .collect();
        let sum: i32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(sum, (0..8).sum());
        // The scheduler saw 8 attaches/detaches and never ran two at once.
        let m = nosv.metrics();
        assert_eq!(m.attaches, 8);
        assert_eq!(m.detaches, 8);
        cache.shutdown();
    }

    #[test]
    fn spawned_thread_is_attached_and_reports_task() {
        let (nosv, cache, pid) = setup(2);
        let h = spawn_on(&nosv, &cache, pid, None, crate::current::is_attached);
        let attached = h.join().unwrap();
        assert!(attached, "spawned closure must observe an attached context");
        cache.shutdown();
    }

    #[test]
    fn is_finished_becomes_true() {
        let (nosv, cache, pid) = setup(2);
        let h = spawn_on(&nosv, &cache, pid, None, || ());
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while !h.is_finished() && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(h.is_finished());
        h.join().unwrap();
        cache.shutdown();
    }
}
