//! Tasks — the schedulable entity of the substrate.
//!
//! In the USF use case (glibcv, §4.2 of the paper) every application thread is converted
//! into a worker with exactly one associated task, and the task stays bound to that worker
//! for its whole life. That is what keeps thread-local storage working. The task carries
//! the scheduling state: which core it currently holds (if any), where it last ran (its
//! preferred core), and a small per-task "grant" slot through which the scheduler hands it
//! a core.
//!
//! **This module owns the grant slot.** `GrantSlot` and its condvar are private here, and
//! every lifecycle transition — `mark_ready` (submit), `block` (pause), `yield_core` (the
//! yield hand-over), `grant_core` and `release` — is one `Task` method that validates and
//! writes under a single grant-lock acquisition. `WakeBatch` is the only code that
//! notifies the condvar. The scheduler calls these methods and never names a slot field,
//! so "one core, one task" (SCHED_COOP's first invariant) is enforced in this one file.
//!
//! The grant lock is level 3 of the scheduler's lock hierarchy: taken only inside a
//! `Task` method, under a shard lock (grant delivery, the yield hand-over) or none, and
//! never held while acquiring a registry or shard lock.
//!
//! `WakeBatch` also places the woken thread: it first rebinds a granted worker to the CPU
//! of its new core (or gives a released one its own mask back), then notifies it,
//! and it does both only after every scheduler lock is dropped, so no affinity call ever
//! runs under a lock (see `binding.rs`). A worker that finds its grant before its waker's
//! bind settles its own binding before it runs, so it never runs bound to the CPU of
//! another core.

use crate::binding::Worker;
use crate::obs::{inc, Histogram};
use crate::process::{ProcCell, ProcessId};
use crate::topology::CoreId;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
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
struct GrantSlot {
    /// Core currently granted to (held by) the task. `Some` means the task occupies a core.
    granted: Option<CoreId>,
    /// Whether the task sits in the policy's ready queues.
    queued: bool,
    /// Counted wake-ups: submits that arrived while the task still held its core. The next
    /// pause consumes one instead of blocking (nOS-V's event counter, avoids lost wake-ups
    /// in the Listing 1 pattern).
    pending_wakeups: u32,
    /// Lifecycle state (kept here so it is updated under the same lock as the grant).
    state: TaskState,
    /// When set, the scheduler no longer manages this task: any wait returns immediately and
    /// the task runs as a plain OS thread. Used on scheduler shutdown as a safety valve so
    /// an application bug can never leave threads parked forever.
    released: bool,
    /// When the task last turned ready (set by `mark_ready`/`yield_core`, consumed by the
    /// grant): the start of the enqueue→grant (wake-latency) stage histogram.
    ready_at: Option<Instant>,
    /// When the current grant was published (set by the grant, consumed by the woken
    /// worker): the start of the grant→first-run (dispatch-latency) stage histogram.
    dispatched_at: Option<Instant>,
    /// The CPU backing the granted core, when the scheduler binds workers to CPUs.
    cpu: Option<usize>,
}

/// Per-task counters (diagnostics).
#[derive(Debug, Default)]
pub struct TaskStats {
    /// Times this task was granted a core.
    pub grants: AtomicU64,
    /// Times this task blocked (pause / timed wait).
    pub blocks: AtomicU64,
    /// Times a grant moved this task's worker thread to the CPU of its new core.
    pub rebinds: AtomicU64,
}

/// How [`Task::release`] takes a task out of scheduler control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Release {
    /// Only a task holding no core (deregister: running tasks keep their cores).
    Waiting,
    /// Whatever the task is doing; a held core stays held (shutdown, intake entries of a
    /// dead process).
    All,
    /// Take the held core too and finish the task (detach, `kill_process`).
    EvictAndFinish,
    /// Like `EvictAndFinish`, but the worker thread keeps its CPU binding: a pooled thread
    /// detaching between jobs (it attaches again, so it is not handed back).
    FinishPooled,
}

/// Grant-slot condvar notifications owed by transitions made under scheduler locks, fired
/// only after every guard has dropped — the only code that notifies `grant_cv`. Each
/// notification of a grant first binds the worker to its new core's CPU, and a released
/// worker gets its own mask back (see `binding.rs`): both affinity calls run here,
/// under no scheduler lock, before the wakee is notified.
///
/// Notifying `grant_cv` while a shard lock is held wakes the worker straight into the lock
/// its waker still holds — a lock convoy. Deferring the notify is safe because the
/// grant-slot predicate (`granted` / `released`) is always written under the task's grant
/// mutex *before* the batch fires: a waiter either observes the new state without
/// sleeping, or parks and is woken by the deferred notify.
///
/// A held shard lock carries its own batch and fires it once the lock is released; a
/// batch anywhere else is declared before any guard, so it fires after them (the `Drop`
/// impl is the safety net; paths that go on to park [`WakeBatch::fire`] first).
pub(crate) struct WakeBatch {
    /// Tasks owed a notification, each after its worker's binding is settled.
    tasks: Vec<TaskRef>,
    /// Workers handed back to the application, owed their own masks.
    restores: Vec<Arc<Worker>>,
}

impl WakeBatch {
    pub(crate) fn new() -> Self {
        WakeBatch {
            tasks: Vec::new(),
            restores: Vec::new(),
        }
    }

    /// Number of notifications owed so far.
    pub(crate) fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Settle every owed binding and deliver every owed notification. Callers must have
    /// dropped the scheduler lock and all grant guards first.
    pub(crate) fn fire(&mut self) {
        for worker in self.restores.drain(..) {
            worker.restore();
        }
        for t in self.tasks.drain(..) {
            t.settle_binding();
            t.grant_cv.notify_all();
        }
    }
}

impl Drop for WakeBatch {
    fn drop(&mut self) {
        self.fire();
    }
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
    grant: Mutex<GrantSlot>,
    grant_cv: Condvar,
    /// The binding record of the thread that attached the task, when the scheduler binds
    /// workers to CPUs.
    worker: OnceLock<Arc<Worker>>,
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
                cpu: None,
            }),
            grant_cv: Condvar::new(),
            worker: OnceLock::new(),
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

    /// Record the binding record of the thread attaching the task (a task attaches once).
    pub(crate) fn set_worker(&self, worker: Arc<Worker>) {
        let _ = self.worker.set(worker);
    }

    /// Settle the worker's binding for the core the task holds now (see `Worker::bind`):
    /// bound to its CPU by a waker, or unbound when the worker itself finds it elsewhere.
    fn settle_binding(&self) {
        let Some(worker) = self.worker.get() else {
            return;
        };
        let moved = worker.bind(|| {
            let g = self.grant.lock();
            g.cpu.filter(|_| g.granted.is_some() && !g.released)
        });
        if moved {
            inc(&self.stats.rebinds);
        }
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

    /// Submit: mark the task ready. Returns the instant it turned ready (the start of the
    /// wake-latency stage, stamped into the slot for the grant to consume), or `None` when
    /// there is nothing to publish — the task is released or already queued, or it still
    /// holds its core (it has not reached its pause yet): then the wake-up is counted,
    /// bumping `counted`, and the upcoming pause returns at once (nOS-V's event counter).
    pub(crate) fn mark_ready(&self, counted: &AtomicU64) -> Option<Instant> {
        let mut g = self.grant.lock();
        if g.released || g.queued {
            return None;
        }
        if g.granted.is_some() {
            g.pending_wakeups += 1;
            inc(counted);
            return None;
        }
        let now = Instant::now();
        g.queued = true;
        g.state = TaskState::Ready;
        g.ready_at = Some(now);
        Some(now)
    }

    /// Pause: block, giving up the held core. Returns the core to free (`Some(None)` if the
    /// task held none), or `None` when the pause must return at once — the task is
    /// released, or a counted wake-up is consumed instead of blocking (bumping `elided`).
    pub(crate) fn block(&self, elided: &AtomicU64) -> Option<Option<CoreId>> {
        let mut g = self.grant.lock();
        if g.released {
            return None;
        }
        if g.pending_wakeups > 0 {
            g.pending_wakeups -= 1;
            inc(elided);
            return None;
        }
        g.state = TaskState::Blocked;
        inc(&self.stats.blocks);
        Some(g.granted.take())
    }

    /// The core a yield may hand over: the one the task holds, unless it was released.
    pub(crate) fn held_core(&self) -> Option<CoreId> {
        let g = self.grant.lock();
        g.granted.filter(|_| !g.released)
    }

    /// Yield hand-over: give `core` back and turn ready at `now`. Validated under the same
    /// lock acquisition as the write: returns `false`, changing nothing, when the task no
    /// longer holds `core` or was released since [`Task::held_core`] — a `kill_process`
    /// or shutdown in between already took the core, and handing it over again would put
    /// two tasks on it. A wake-up counted meanwhile is kept.
    pub(crate) fn yield_core(&self, core: CoreId, now: Instant) -> bool {
        let mut g = self.grant.lock();
        if g.released || g.granted != Some(core) {
            return false;
        }
        g.granted = None;
        g.queued = true;
        g.state = TaskState::Ready;
        g.ready_at = Some(now);
        true
    }

    /// Grant `core` (which becomes the preferred core): closes the enqueue→grant stage
    /// into `wake`, opens grant→first-run and owes the waiter its notification in `wakes`
    /// — after binding its worker to `cpu`, the CPU backing `core`, when the scheduler
    /// binds. The caller holds `core`'s shard lock and has marked the core busy.
    pub(crate) fn grant_core(
        self: &Arc<Self>,
        core: CoreId,
        cpu: Option<usize>,
        wake: &Histogram,
        wakes: &mut WakeBatch,
    ) {
        inc(&self.stats.grants);
        self.pref_core.store(core, Ordering::Relaxed);
        {
            let mut g = self.grant.lock();
            let now = Instant::now();
            if let Some(ready_at) = g.ready_at.take() {
                wake.record(now.saturating_duration_since(ready_at));
            }
            g.dispatched_at = Some(now);
            g.granted = Some(core);
            g.queued = false;
            g.state = TaskState::Running;
            g.cpu = cpu;
        }
        wakes.tasks.push(Arc::clone(self));
    }

    /// Release the task from scheduler control (see [`Release`]): from then on every wait
    /// returns at once and the worker runs as a plain OS thread. Returns the core taken
    /// from the task, which the caller must free (`EvictAndFinish`/`FinishPooled` only).
    /// A notification is owed in `wakes` exactly when a waiter may be parked — the task
    /// was not released yet and holds no core; a task holding a core is running, or its
    /// grant's notification is still in flight. The first release also owes the worker
    /// its own mask, unless it is pooled.
    pub(crate) fn release(self: &Arc<Self>, how: Release, wakes: &mut WakeBatch) -> Option<CoreId> {
        let mut g = self.grant.lock();
        let evicted = match how {
            Release::Waiting if g.granted.is_some() => return None,
            Release::Waiting | Release::All => None,
            Release::EvictAndFinish | Release::FinishPooled => {
                g.state = TaskState::Finished;
                g.granted.take()
            }
        };
        if !g.released {
            if g.granted.is_none() && evicted.is_none() {
                wakes.tasks.push(Arc::clone(self));
            }
            if let Some(worker) = self.worker.get().filter(|_| how != Release::FinishPooled) {
                wakes.restores.push(Arc::clone(worker));
            }
        }
        g.released = true;
        evicted
    }

    /// Wait (blocking the calling OS thread) until the scheduler grants this task a core,
    /// the task is released from scheduler control, or `deadline` (if any) passes. Returns
    /// `Some(Some(core))` when granted, `Some(None)` when released, `None` on timeout.
    ///
    /// When the grant stamped a dispatch time, `record` receives the grant→first-run
    /// (dispatch) latency — the time between the scheduler publishing the grant and this
    /// worker observing it. Every blocking scheduling point waits through here, and
    /// returns a grant only once the worker is not bound to another core's CPU.
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
                drop(g);
                // The grant's waker binds before it notifies; a grant found without
                // waiting may still have that bind in flight.
                self.settle_binding();
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
        t.grant_core(3, None, &Histogram::new(1), &mut WakeBatch::new());
        assert_eq!(t.preferred_core(), Some(3));
        assert_eq!(t.state(), TaskState::Running);
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
        // The batch drops at the end of the statement, firing the notification.
        t.grant_core(5, None, &Histogram::new(1), &mut WakeBatch::new());
        assert_eq!(h.join().unwrap(), Some(Some(5)));
    }

    #[test]
    fn released_task_wait_returns_none() {
        let t = Task::new(1, 0, ProcCell::new(), None);
        let mut wakes = WakeBatch::new();
        assert_eq!(t.release(Release::All, &mut wakes), None);
        assert_eq!(
            wakes.len(),
            1,
            "a task holding no core may have a parked waiter"
        );
        assert_eq!(t.wait_grant(None, |_| {}), Some(None));
        assert_eq!(
            t.wait_grant(Some(Instant::now() + Duration::from_millis(1)), |_| {}),
            Some(None)
        );
    }

    #[test]
    fn yield_core_refuses_a_core_the_task_no_longer_holds() {
        let t = Task::new(1, 0, ProcCell::new(), None);
        let mut wakes = WakeBatch::new();
        t.grant_core(0, None, &Histogram::new(1), &mut wakes);
        assert_eq!(t.held_core(), Some(0));
        assert!(!t.yield_core(1, Instant::now()), "not the held core");
        // A kill between the pre-check and the hand-over evicts the task.
        assert_eq!(t.release(Release::EvictAndFinish, &mut wakes), Some(0));
        assert_eq!(
            wakes.len(),
            1,
            "only the grant's notification: no waiter is parked"
        );
        assert!(
            !t.yield_core(0, Instant::now()),
            "the core went with the kill"
        );
        assert_eq!(t.state(), TaskState::Finished);
        assert_eq!(t.held_core(), None);
    }

    #[test]
    fn release_waiting_spares_a_running_task() {
        let t = Task::new(1, 0, ProcCell::new(), None);
        let mut wakes = WakeBatch::new();
        t.grant_core(2, None, &Histogram::new(1), &mut wakes);
        assert_eq!(t.release(Release::Waiting, &mut wakes), None);
        assert!(!t.is_released());
        assert_eq!(t.release(Release::All, &mut wakes), None);
        assert!(t.is_released());
        assert_eq!(
            t.current_core(),
            Some(2),
            "shutdown leaves a held core held"
        );
        assert_eq!(
            t.held_core(),
            None,
            "but a released task may not hand it over"
        );
    }
}
