//! Tasks — the schedulable entity of the substrate.
//!
//! In the USF use case (glibcv, §4.2 of the paper) every application thread is converted
//! into a worker with exactly one associated task, and the task stays bound to that worker
//! for its whole life. That is what keeps thread-local storage working. The task carries
//! the scheduling state: which core it currently holds (if any), where it last ran (its
//! preferred core), and a small per-task "grant" slot through which the scheduler hands it
//! a core.

use crate::process::{ProcCell, ProcessId};
use crate::topology::CoreId;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Identifier of a task, unique within a scheduler instance.
pub type TaskId = u64;

/// Shared reference to a task.
pub type TaskRef = Arc<Task>;

/// Sentinel for "no preferred core recorded yet".
const NO_CORE: usize = usize::MAX;

/// Lifecycle state of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Created but never submitted.
    Created,
    /// Ready and waiting in the scheduler queues.
    Ready,
    /// Currently granted a core.
    Running,
    /// Blocked at a scheduling point (pause / timed wait).
    Blocked,
    /// Finished (detached).
    Finished,
}

/// Outcome of a timed wait ([`crate::instance::TaskHandle::waitfor`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitOutcome {
    /// The task was woken by a submit before the timeout elapsed.
    Woken,
    /// The timeout elapsed; the task re-submitted itself and was rescheduled.
    TimedOut,
}

/// The per-task slot through which the scheduler communicates with the task's worker.
#[derive(Debug)]
pub(crate) struct GrantSlot {
    /// Core currently granted to (held by) the task. `Some` means the task occupies a core.
    pub granted: Option<CoreId>,
    /// Whether the task sits in the policy's ready queues.
    pub queued: bool,
    /// Counted wake-ups: submits that arrived while the task still held its core. The next
    /// pause consumes one instead of blocking (nOS-V's event counter, avoids lost wake-ups
    /// in the Listing 1 pattern).
    pub pending_wakeups: u32,
    /// Lifecycle state (kept here so it is updated under the same lock as the grant).
    pub state: TaskState,
    /// When set, the scheduler no longer manages this task: any wait returns immediately and
    /// the task runs as a plain OS thread. Used on scheduler shutdown as a safety valve so
    /// an application bug can never leave threads parked forever.
    pub released: bool,
    /// When the task last turned ready (set by `mark_ready`/yield-requeue, consumed by the
    /// grant): the start of the enqueue→grant (wake-latency) stage histogram.
    pub ready_at: Option<Instant>,
    /// When the current grant was published (set by the grant, consumed by the woken
    /// worker): the start of the grant→first-run (dispatch-latency) stage histogram.
    pub dispatched_at: Option<Instant>,
}

/// Per-task counters (diagnostics).
#[derive(Debug, Default)]
pub struct TaskStats {
    /// Times this task was granted a core.
    pub grants: AtomicU64,
    /// Times this task blocked (pause / timed wait).
    pub blocks: AtomicU64,
    /// Times this task voluntarily yielded.
    pub yields: AtomicU64,
}

/// A schedulable task. See the module documentation.
#[derive(Debug)]
pub struct Task {
    id: TaskId,
    process: ProcessId,
    /// Liveness/domain cell of the owning process; lets shard-local scheduling paths check
    /// process state without the global process table.
    proc_cell: Arc<ProcCell>,
    label: Option<String>,
    /// Last core this task ran on; used as the preferred core by affinity-aware policies.
    pref_core: AtomicUsize,
    pub(crate) grant: Mutex<GrantSlot>,
    pub(crate) grant_cv: Condvar,
    /// Creation timestamp (diagnostics).
    created_at: Instant,
    /// Per-task counters.
    pub stats: TaskStats,
}

impl Task {
    /// Create a task in the [`TaskState::Created`] state.
    pub(crate) fn new(
        id: TaskId,
        process: ProcessId,
        proc_cell: Arc<ProcCell>,
        label: Option<String>,
    ) -> TaskRef {
        Arc::new(Task {
            id,
            process,
            proc_cell,
            label,
            pref_core: AtomicUsize::new(NO_CORE),
            grant: Mutex::new(GrantSlot {
                granted: None,
                queued: false,
                pending_wakeups: 0,
                state: TaskState::Created,
                released: false,
                ready_at: None,
                dispatched_at: None,
            }),
            grant_cv: Condvar::new(),
            created_at: Instant::now(),
            stats: TaskStats::default(),
        })
    }

    /// Task identifier.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// Process domain the task belongs to.
    pub fn process(&self) -> ProcessId {
        self.process
    }

    /// Whether the owning process is still registered (lock-free; see [`ProcCell`]).
    pub(crate) fn proc_alive(&self) -> bool {
        self.proc_cell.is_alive()
    }

    /// The owning process's placement domain, if restricted.
    pub(crate) fn proc_domain(&self) -> Option<Vec<CoreId>> {
        self.proc_cell.domain()
    }

    /// Whether the task has been released from scheduler control (detach, kill, shutdown).
    /// Serves as the shard-local staleness check: a released task's intake entries and
    /// queued placeholders are dead and must only reconcile the ready gauge.
    pub(crate) fn is_released(&self) -> bool {
        self.grant.lock().released
    }

    /// Optional human-readable label.
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    /// Time at which the task was created.
    pub fn created_at(&self) -> Instant {
        self.created_at
    }

    /// Current lifecycle state.
    pub fn state(&self) -> TaskState {
        self.grant.lock().state
    }

    /// Core the task currently holds, if any.
    pub fn current_core(&self) -> Option<CoreId> {
        self.grant.lock().granted
    }

    /// Preferred core: the core the task last ran on, if any.
    pub fn preferred_core(&self) -> Option<CoreId> {
        let c = self.pref_core.load(Ordering::Relaxed);
        if c == NO_CORE {
            None
        } else {
            Some(c)
        }
    }

    /// Record the core the task was just granted (becomes the new preference).
    pub(crate) fn record_core(&self, core: CoreId) {
        self.pref_core.store(core, Ordering::Relaxed);
    }

    /// Release the task from scheduler control if it is neither running nor already
    /// released — the deregister safety valve: a task not holding a core can never be
    /// woken through a purged process again. Returns `true` when a waiter may be parked
    /// on the grant condvar; the caller owes it a `grant_cv` notification, fired only
    /// after every lock (scheduler and grant) has been dropped — never from under a held
    /// guard, or the woken worker contends with its waker (collect-then-notify; see the
    /// convoy discussion in `scheduler.rs`).
    pub(crate) fn release_if_waiting(&self) -> bool {
        let mut g = self.grant.lock();
        if g.granted.is_some() || g.released {
            return false;
        }
        g.queued = false;
        g.released = true;
        true
    }

    /// Release the task from scheduler control unless it already was (dead-process intake
    /// entries). Returns whether a notification is owed, under the same
    /// collect-then-notify contract as [`Task::release_if_waiting`].
    pub(crate) fn release_if_unreleased(&self) -> bool {
        let mut g = self.grant.lock();
        if g.released {
            return false;
        }
        g.released = true;
        true
    }

    /// Wait (blocking the calling OS thread) until the scheduler grants this task a core,
    /// the task is released from scheduler control, or `deadline` (if any) passes. Returns
    /// `Some(Some(core))` when granted, `Some(None)` when released, `None` on timeout.
    ///
    /// When the grant stamped a dispatch time, `record` receives the grant→first-run
    /// (dispatch) latency — the time between the scheduler publishing the grant and this
    /// worker observing it. Every blocking scheduling point waits through here.
    pub(crate) fn wait_grant(
        &self,
        deadline: Option<Instant>,
        record: impl Fn(Duration),
    ) -> Option<Option<CoreId>> {
        let mut g = self.grant.lock();
        loop {
            if let Some(core) = g.granted {
                if let Some(t0) = g.dispatched_at.take() {
                    record(t0.elapsed());
                }
                return Some(Some(core));
            }
            if g.released {
                return Some(None);
            }
            match deadline {
                None => self.grant_cv.wait(&mut g),
                // A timeout still loops once more: the grant (or release) may have arrived
                // between the timeout and re-acquiring the lock.
                Some(d) => {
                    if self.grant_cv.wait_until(&mut g, d).timed_out()
                        && g.granted.is_none()
                        && !g.released
                    {
                        return None;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn new_task_is_created_state_without_core() {
        let t = Task::new(7, 1, ProcCell::new(), Some("t".into()));
        assert_eq!(t.id(), 7);
        assert_eq!(t.process(), 1);
        assert_eq!(t.label(), Some("t"));
        assert_eq!(t.state(), TaskState::Created);
        assert_eq!(t.current_core(), None);
        assert_eq!(t.preferred_core(), None);
    }

    #[test]
    fn record_core_sets_preference() {
        let t = Task::new(1, 0, ProcCell::new(), None);
        t.record_core(3);
        assert_eq!(t.preferred_core(), Some(3));
    }

    #[test]
    fn wait_grant_until_times_out_when_never_granted() {
        let t = Task::new(1, 0, ProcCell::new(), None);
        let r = t.wait_grant(Some(Instant::now() + Duration::from_millis(10)), |_| {});
        assert!(r.is_none());
    }

    #[test]
    fn wait_grant_returns_after_grant_from_other_thread() {
        let t = Task::new(1, 0, ProcCell::new(), None);
        let t2 = Arc::clone(&t);
        let h = std::thread::spawn(move || t2.wait_grant(None, |_| {}));
        std::thread::sleep(Duration::from_millis(20));
        {
            let mut g = t.grant.lock();
            g.granted = Some(5);
            g.state = TaskState::Running;
            t.grant_cv.notify_one();
        }
        assert_eq!(h.join().unwrap(), Some(Some(5)));
    }

    #[test]
    fn released_task_wait_returns_none() {
        let t = Task::new(1, 0, ProcCell::new(), None);
        {
            let mut g = t.grant.lock();
            g.released = true;
        }
        assert_eq!(t.wait_grant(None, |_| {}), Some(None));
        assert_eq!(
            t.wait_grant(Some(Instant::now() + Duration::from_millis(1)), |_| {}),
            Some(None)
        );
    }
}
