//! Public instance handle and the named instance registry.
//!
//! [`NosvInstance`] is the equivalent of "a process connected to the nOS-V shared memory
//! segment". `NosvInstance::new` creates a fresh scheduler; [`NosvInstance::connect`] joins
//! (or lazily creates) a *named* scheduler so that independently initialised components —
//! the stand-in for separate OS processes — coordinate through the same centralized
//! scheduler, exactly like nOS-V processes attaching to the same shm segment (§2.3, §4.3.3).

use crate::config::NosvConfig;
use crate::error::Result;
use crate::obs::MetricsSnapshot;
use crate::process::ProcessId;
use crate::scheduler::Scheduler;
use crate::task::{TaskRef, TaskState, WaitOutcome};
use crate::topology::CoreId;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Global registry of named scheduler instances (the `shm_open`-by-name analog).
static REGISTRY: Mutex<Option<HashMap<String, Weak<Scheduler>>>> = Mutex::new(None);

/// A handle to a scheduler instance. Cheap to clone; all clones share the same scheduler.
#[derive(Clone, Debug)]
pub struct NosvInstance {
    sched: Arc<Scheduler>,
}

impl NosvInstance {
    /// Create a new private scheduler instance.
    pub fn new(config: NosvConfig) -> Self {
        NosvInstance {
            sched: Arc::new(Scheduler::new(config)),
        }
    }

    /// Connect to the named instance, creating it with `config` if it does not exist yet.
    ///
    /// This mimics how every process started with `USF_ENABLE` attaches to the same nOS-V
    /// shared memory segment at startup. Only processes of "the same user" can connect in
    /// the paper; here the name is the isolation boundary.
    pub fn connect(name: &str, config: NosvConfig) -> Self {
        let mut reg = REGISTRY.lock();
        let map = reg.get_or_insert_with(HashMap::new);
        if let Some(weak) = map.get(name) {
            if let Some(sched) = weak.upgrade() {
                // Never join a dead scheduler: `shutdown` deregisters the name, but a racy
                // or direct `Scheduler::shutdown` could still leave one behind.
                if !sched.is_shutdown() {
                    return NosvInstance { sched };
                }
            }
        }
        let inst = NosvInstance::new(config);
        map.insert(name.to_string(), Arc::downgrade(&inst.sched));
        inst
    }

    /// Remove a named instance from the registry (subsequent `connect`s create a fresh one).
    pub fn disconnect_name(name: &str) {
        let mut reg = REGISTRY.lock();
        if let Some(map) = reg.as_mut() {
            map.remove(name);
        }
    }

    /// Access the underlying scheduler (advanced use: custom policies, metrics, tests).
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.sched
    }

    /// Register a process domain.
    pub fn register_process(&self, name: impl Into<String>) -> ProcessId {
        self.sched.register_process(name)
    }

    /// Deregister a process domain.
    pub fn deregister_process(&self, process: ProcessId) {
        self.sched.deregister_process(process)
    }

    /// Forcibly reclaim a process domain mid-run (the `kill -9` analog): its queued work
    /// is dropped, its running tasks are evicted (their cores re-dispatched), and every
    /// thread parked on one of its tasks is released. Co-tenant processes are unaffected.
    pub fn kill_process(&self, process: ProcessId) -> crate::scheduler::KillReport {
        self.sched.kill_process(process)
    }

    /// Instantiate and install a [`crate::faults::FaultPlan`] into the shared scheduler,
    /// returning the [`crate::faults::FaultState`] harnesses assert against. Install-once
    /// per scheduler (see [`Scheduler::install_faults`]).
    pub fn install_faults(
        &self,
        plan: &crate::faults::FaultPlan,
    ) -> Arc<crate::faults::FaultState> {
        self.sched.install_faults(plan)
    }

    /// Attach the calling OS thread as a worker with a new task in `process`.
    ///
    /// The call blocks until the scheduler grants the new task a core; from then on the
    /// thread must only block through the scheduling points exposed by the returned
    /// [`TaskHandle`] (or the higher-level USF primitives built on them).
    pub fn attach(&self, process: ProcessId, label: Option<&str>) -> TaskHandle {
        let task = self
            .sched
            .create_task(process, label.map(str::to_owned))
            .expect("attach: process must be registered and scheduler running");
        self.sched.attach(&task);
        TaskHandle {
            task,
            sched: Arc::clone(&self.sched),
        }
    }

    /// Fallible variant of [`NosvInstance::attach`].
    pub fn try_attach(&self, process: ProcessId, label: Option<&str>) -> Result<TaskHandle> {
        let task = self.sched.create_task(process, label.map(str::to_owned))?;
        self.sched.attach(&task);
        Ok(TaskHandle {
            task,
            sched: Arc::clone(&self.sched),
        })
    }

    /// Make a (blocked or new) task ready. This is `nosv_submit` and is what unblocking
    /// paths (e.g. `pthread_mutex_unlock`, Listing 1) call.
    pub fn submit(&self, task: &TaskRef) {
        self.sched.submit(task)
    }

    /// Lock-free snapshot of the scheduler's event counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.sched.stats().counters()
    }

    /// One unified stats observation — counters, stage-boundary latency histograms and
    /// per-shard stats (see [`crate::obs::StatsSnapshot`]).
    pub fn stats_snapshot(&self) -> crate::obs::StatsSnapshot {
        self.sched.stats_snapshot()
    }

    /// Start a background stats sampler with the given period (off unless called; see
    /// [`crate::obs::StatsSampler`]).
    pub fn start_sampler(&self, period: Duration) -> crate::obs::StatsSampler {
        self.sched.start_sampler(period)
    }

    /// Number of virtual cores managed by the instance.
    pub fn num_cores(&self) -> usize {
        self.sched.topology().num_cores()
    }

    /// Shut down the scheduler, releasing every task from scheduler control.
    ///
    /// If the instance was published under a name via [`NosvInstance::connect`], the name
    /// is removed from the registry so that a later `connect` with the same name creates a
    /// fresh scheduler instead of joining this dead one.
    pub fn shutdown(&self) {
        self.sched.shutdown();
        let mut reg = REGISTRY.lock();
        if let Some(map) = reg.as_mut() {
            map.retain(|_, weak| match weak.upgrade() {
                Some(sched) => !Arc::ptr_eq(&sched, &self.sched),
                None => false, // opportunistically drop entries whose scheduler is gone
            });
        }
    }
}

/// Handle owned by an attached worker thread for its own task.
///
/// All methods must be called from the thread that attached (the task's worker); the
/// exception is [`TaskHandle::task`], which hands out the [`TaskRef`] other threads use to
/// wake it via [`NosvInstance::submit`].
#[derive(Clone, Debug)]
pub struct TaskHandle {
    task: TaskRef,
    sched: Arc<Scheduler>,
}

impl TaskHandle {
    /// The task this handle controls.
    pub fn task(&self) -> &TaskRef {
        &self.task
    }

    /// The core currently granted to the task, if any.
    pub fn current_core(&self) -> Option<CoreId> {
        self.task.current_core()
    }

    /// Current lifecycle state of the task.
    pub fn state(&self) -> TaskState {
        self.task.state()
    }

    /// Block at a scheduling point until another thread submits this task (`nosv_pause`).
    pub fn pause(&self) {
        self.sched.pause(&self.task)
    }

    /// Make this task ready again (normally called by *other* threads through
    /// [`NosvInstance::submit`], but exposed here for symmetry).
    pub fn submit(&self) {
        self.sched.submit(&self.task)
    }

    /// Timed block (`nosv_waitfor`); wakes early if submitted.
    pub fn waitfor(&self, timeout: Duration) -> WaitOutcome {
        self.sched.waitfor(&self.task, timeout)
    }

    /// Voluntarily yield the core to another ready task. Returns whether a switch happened.
    pub fn yield_now(&self) -> bool {
        self.sched.yield_now(&self.task)
    }

    /// Detach the worker: the task finishes, its core is handed over and the thread gets
    /// its own CPU mask back (`nosv_detach`).
    pub fn detach(self) {
        self.sched.detach(&self.task)
    }

    /// Detach a pooled worker thread that will attach again: like [`TaskHandle::detach`],
    /// but the thread keeps its CPU binding (see [`Scheduler::detach_pooled`]).
    pub fn detach_pooled(self) {
        self.sched.detach_pooled(&self.task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn attach_runs_up_to_core_count_concurrently() {
        let inst = NosvInstance::new(NosvConfig::with_cores(2));
        let pid = inst.register_process("p");
        let running = Arc::new(AtomicUsize::new(0));
        let max_seen = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for i in 0..6 {
            let inst = inst.clone();
            let running = Arc::clone(&running);
            let max_seen = Arc::clone(&max_seen);
            handles.push(std::thread::spawn(move || {
                let h = inst.attach(pid, Some(&format!("w{i}")));
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                max_seen.fetch_max(now, Ordering::SeqCst);
                // Hold the core briefly, then finish.
                std::thread::sleep(Duration::from_millis(5));
                running.fetch_sub(1, Ordering::SeqCst);
                h.detach();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(
            max_seen.load(Ordering::SeqCst) <= 2,
            "never more running attached workers than cores (saw {})",
            max_seen.load(Ordering::SeqCst)
        );
        let m = inst.metrics();
        assert_eq!(m.attaches, 6);
        assert_eq!(m.detaches, 6);
    }

    #[test]
    fn pause_submit_round_trip_between_threads() {
        let inst = NosvInstance::new(NosvConfig::with_cores(1));
        let pid = inst.register_process("p");
        let inst2 = inst.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let h = inst2.attach(pid, Some("sleeper"));
            tx.send(TaskRef::clone(h.task())).unwrap();
            h.pause(); // wait to be woken
            h.detach();
            42
        });
        let task = rx.recv().unwrap();
        // Wait for it to actually block, then wake it.
        while task.state() != TaskState::Blocked {
            std::thread::yield_now();
        }
        inst.submit(&task);
        assert_eq!(worker.join().unwrap(), 42);
    }

    #[test]
    fn waitfor_acts_as_sleep() {
        let inst = NosvInstance::new(NosvConfig::with_cores(1));
        let pid = inst.register_process("p");
        let h = inst.attach(pid, None);
        let start = std::time::Instant::now();
        let outcome = h.waitfor(Duration::from_millis(20));
        assert_eq!(outcome, WaitOutcome::TimedOut);
        assert!(start.elapsed() >= Duration::from_millis(15));
        h.detach();
    }

    #[test]
    fn connect_shares_scheduler_by_name() {
        let a = NosvInstance::connect("instance-test-shared", NosvConfig::with_cores(3));
        let b = NosvInstance::connect("instance-test-shared", NosvConfig::with_cores(7));
        // The second connect must join the first instance (3 cores), not create a new one.
        assert_eq!(a.num_cores(), 3);
        assert_eq!(b.num_cores(), 3);
        assert!(Arc::ptr_eq(a.scheduler(), b.scheduler()));
        NosvInstance::disconnect_name("instance-test-shared");
        let c = NosvInstance::connect("instance-test-shared", NosvConfig::with_cores(7));
        assert_eq!(c.num_cores(), 7);
        NosvInstance::disconnect_name("instance-test-shared");
    }

    #[test]
    fn shutdown_auto_disconnects_named_instance() {
        // Regression: `shutdown` used to leave the name in the registry, so a later
        // `connect` with the same name joined a dead scheduler whose `attach` panicked.
        let a = NosvInstance::connect("instance-test-shutdown-leak", NosvConfig::with_cores(2));
        let pid = a.register_process("p");
        let h = a.attach(pid, None);
        h.detach();
        a.shutdown();
        assert!(a.scheduler().is_shutdown());
        let b = NosvInstance::connect("instance-test-shutdown-leak", NosvConfig::with_cores(5));
        assert!(
            !Arc::ptr_eq(a.scheduler(), b.scheduler()),
            "connect after shutdown must create a fresh scheduler"
        );
        assert!(!b.scheduler().is_shutdown());
        assert_eq!(b.num_cores(), 5);
        // The fresh instance is fully functional.
        let pid = b.register_process("p2");
        let h = b.attach(pid, None);
        h.detach();
        b.shutdown();
        // Shutdown of the fresh instance cleans its own entry up too.
        let c = NosvInstance::connect("instance-test-shutdown-leak", NosvConfig::with_cores(3));
        assert_eq!(c.num_cores(), 3);
        c.shutdown();
    }

    #[test]
    fn yield_round_robins_two_workers_on_one_core() {
        let inst = NosvInstance::new(NosvConfig::with_cores(1));
        let pid = inst.register_process("p");
        let progress = Arc::new(AtomicUsize::new(0));
        let started = Arc::new(AtomicUsize::new(0));
        let mut joins = Vec::new();
        for _ in 0..2 {
            let inst = inst.clone();
            let progress = Arc::clone(&progress);
            let started = Arc::clone(&started);
            joins.push(std::thread::spawn(move || {
                let h = inst.attach(pid, None);
                // Rendezvous with the other worker cooperatively so that the yield loop below
                // really has someone to hand the core to (cooperative yielding is the only way
                // the second worker can ever attach on a single core).
                started.fetch_add(1, Ordering::SeqCst);
                while started.load(Ordering::SeqCst) < 2 {
                    h.yield_now();
                    std::thread::yield_now();
                }
                for _ in 0..50 {
                    progress.fetch_add(1, Ordering::SeqCst);
                    h.yield_now();
                }
                h.detach();
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(progress.load(Ordering::SeqCst), 100);
        // With one core and two workers, yields must actually have switched at least once.
        assert!(inst.metrics().yields >= 1);
    }

    #[test]
    fn multi_process_quantum_rotation_happens() {
        let inst = NosvInstance::new(NosvConfig::with_cores(1).quantum(Duration::from_millis(1)));
        let pa = inst.register_process("a");
        let pb = inst.register_process("b");
        let mut joins = Vec::new();
        for pid in [pa, pb, pa, pb] {
            let inst = inst.clone();
            joins.push(std::thread::spawn(move || {
                let h = inst.attach(pid, None);
                for _ in 0..20 {
                    std::thread::sleep(Duration::from_micros(200));
                    h.yield_now();
                }
                h.detach();
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert!(
            inst.scheduler().policy_rotations() >= 1,
            "quantum should have rotated between processes"
        );
    }
}
