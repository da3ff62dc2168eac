//! The task runtime: ready queue, worker team, submission and taskwait.

use super::deps::{DepRegistry, DepTaskId, TaskDeps};
use crate::waitpolicy::WaitPolicy;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use usf_core::exec::{ExecJoinHandle, ExecMode};
use usf_core::sync::{unbounded, Mutex, Receiver, Sender, WaitGroup};

/// A unit of work submitted to the runtime.
type TaskFn = Box<dyn FnOnce() + Send + 'static>;

/// Items flowing through the ready queue.
enum WorkItem {
    /// Run this ready task.
    Run(DepTaskId, TaskFn),
    /// Worker shutdown sentinel.
    Stop,
}

/// Configuration of a [`TaskRuntime`].
#[derive(Clone, Debug)]
pub struct TaskRuntimeConfig {
    /// Number of worker threads executing ready tasks.
    pub num_workers: usize,
    /// Thread backend (plain OS threads or cooperative USF threads).
    pub exec: ExecMode,
    /// Idle-worker wait policy. The ready queue blocks cooperatively in either case; this
    /// knob exists for parity with the fork-join runtime and is currently advisory.
    pub wait_policy: WaitPolicy,
    /// Worker name prefix.
    pub name: String,
}

impl TaskRuntimeConfig {
    /// `num_workers` workers on the given backend, passive wait policy.
    pub fn new(num_workers: usize, exec: ExecMode) -> Self {
        TaskRuntimeConfig {
            num_workers,
            exec,
            wait_policy: WaitPolicy::Passive,
            name: "taskrt".to_string(),
        }
    }

    /// Set the worker-name prefix.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }
}

/// Aggregate runtime statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskRuntimeStats {
    /// Tasks submitted.
    pub submitted: u64,
    /// Tasks executed to completion.
    pub executed: u64,
    /// Task bodies that panicked (caught; their successors were still released).
    pub panicked: u64,
    /// Dependency edges created.
    pub edges: u64,
    /// Tasks currently registered and unfinished.
    pub live: u64,
}

struct RtState {
    deps: DepRegistry,
    /// Closures of tasks that are registered but not yet ready.
    waiting_jobs: HashMap<DepTaskId, TaskFn>,
    next_id: DepTaskId,
}

struct RtShared {
    state: Mutex<RtState>,
    ready_tx: Sender<WorkItem>,
    /// Unfinished tasks (for `taskwait`).
    pending: WaitGroup,
    submitted: AtomicU64,
    executed: AtomicU64,
    /// Task bodies that panicked (caught; the worker and the dependency graph survive).
    panicked: AtomicU64,
    /// Message of the first caught panic, for [`TaskRuntime::taskwait_result`].
    first_panic: Mutex<Option<String>>,
    shutdown: AtomicBool,
}

/// An OmpSs-like task runtime. See the module documentation.
pub struct TaskRuntime {
    shared: Arc<RtShared>,
    workers: Vec<ExecJoinHandle<()>>,
    config: TaskRuntimeConfig,
}

impl TaskRuntime {
    /// Create a runtime and spawn its workers.
    pub fn new(config: TaskRuntimeConfig) -> Self {
        let (ready_tx, ready_rx) = unbounded::<WorkItem>();
        let shared = Arc::new(RtShared {
            state: Mutex::new(RtState {
                deps: DepRegistry::new(),
                waiting_jobs: HashMap::new(),
                next_id: 1,
            }),
            ready_tx,
            pending: WaitGroup::new(),
            submitted: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            first_panic: Mutex::new(None),
            shutdown: AtomicBool::new(false),
        });
        let mut workers = Vec::new();
        for i in 0..config.num_workers.max(1) {
            let shared = Arc::clone(&shared);
            let rx = ready_rx.clone();
            let name = format!("{}-{i}", config.name);
            workers.push(
                config
                    .exec
                    .spawn_named(name, move || worker_loop(shared, rx)),
            );
        }
        TaskRuntime {
            shared,
            workers,
            config,
        }
    }

    /// Convenience constructor.
    pub fn with_workers(num_workers: usize, exec: ExecMode) -> Self {
        TaskRuntime::new(TaskRuntimeConfig::new(num_workers, exec))
    }

    /// The runtime configuration.
    pub fn config(&self) -> &TaskRuntimeConfig {
        &self.config
    }

    /// Submit a task with data dependencies (the `#pragma oss task in(..) inout(..)` analog).
    pub fn submit<F>(&self, deps: TaskDeps, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        assert!(
            !self.shared.shutdown.load(Ordering::Acquire),
            "submit on a TaskRuntime that has been shut down"
        );
        self.shared.pending.add(1);
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        let job: TaskFn = Box::new(f);
        let ready = {
            let mut st = self.shared.state.lock();
            let id = st.next_id;
            st.next_id += 1;
            if st.deps.register(id, &deps) {
                Some((id, job))
            } else {
                st.waiting_jobs.insert(id, job);
                None
            }
        };
        if let Some((id, job)) = ready {
            if self.shared.ready_tx.send(WorkItem::Run(id, job)).is_err() {
                unreachable!("ready queue must outlive the runtime");
            }
        }
    }

    /// Submit an independent task (no dependencies).
    pub fn submit_independent<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.submit(TaskDeps::none(), f);
    }

    /// Block until every task submitted so far has finished (the `#pragma oss taskwait`
    /// analog). A cooperative scheduling point when called from a USF thread.
    pub fn taskwait(&self) {
        self.shared.pending.wait();
    }

    /// [`TaskRuntime::taskwait`] surfacing task panics: `Err` if any task body panicked
    /// since the last call. A panicking task poisons only itself — its successors were
    /// released and the runtime keeps accepting work — so after consuming the error the
    /// runtime is usable again.
    pub fn taskwait_result(&self) -> Result<(), usf_core::UsfError> {
        self.shared.pending.wait();
        let n = self.shared.panicked.swap(0, Ordering::AcqRel);
        if n == 0 {
            return Ok(());
        }
        let first = self
            .shared
            .first_panic
            .lock()
            .take()
            .unwrap_or_else(|| "<unknown>".to_string());
        Err(usf_core::UsfError::ThreadPanicked(format!(
            "{n} task(s) panicked; first: {first}"
        )))
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> TaskRuntimeStats {
        let (edges, live) = {
            let st = self.shared.state.lock();
            (st.deps.stats().edges_created, st.deps.live_tasks() as u64)
        };
        TaskRuntimeStats {
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            executed: self.shared.executed.load(Ordering::Relaxed),
            panicked: self.shared.panicked.load(Ordering::Relaxed),
            edges,
            live,
        }
    }

    /// Wait for outstanding tasks, stop the workers and join them. Called on drop.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        self.shared.pending.wait();
        for _ in 0..self.workers.len() {
            let _ = self.shared.ready_tx.send(WorkItem::Stop);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for TaskRuntime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for TaskRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskRuntime")
            .field("workers", &self.config.num_workers)
            .field("backend", &self.config.exec.label())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Worker: pull ready tasks, run them, release their successors.
fn worker_loop(shared: Arc<RtShared>, rx: Receiver<WorkItem>) {
    while let Ok(item) = rx.recv() {
        let (id, job) = match item {
            WorkItem::Stop => return,
            WorkItem::Run(id, job) => (id, job),
        };
        // A panicking task body poisons only itself: the completion bookkeeping below
        // must run regardless, or its successors would never release and `taskwait`
        // would hang forever on the never-`done()`d pending count.
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)) {
            Ok(()) => {
                shared.executed.fetch_add(1, Ordering::Relaxed);
            }
            Err(payload) => {
                shared.panicked.fetch_add(1, Ordering::Relaxed);
                let msg = usf_core::error::panic_message(&*payload);
                let mut first = shared.first_panic.lock();
                if first.is_none() {
                    *first = Some(msg);
                }
            }
        }
        // Release successors that became ready.
        let newly_ready: Vec<(DepTaskId, TaskFn)> = {
            let mut st = self_state(&shared);
            let ready_ids = st.deps.complete(id);
            ready_ids
                .into_iter()
                .filter_map(|rid| st.waiting_jobs.remove(&rid).map(|j| (rid, j)))
                .collect()
        };
        for (rid, rjob) in newly_ready {
            if shared.ready_tx.send(WorkItem::Run(rid, rjob)).is_err() {
                unreachable!("ready queue must outlive the runtime");
            }
        }
        shared.pending.done();
    }
}

fn self_state(shared: &RtShared) -> usf_core::sync::MutexGuard<'_, RtState> {
    shared.state.lock()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taskrt::DataKey;
    use std::sync::atomic::AtomicUsize;
    use usf_core::runtime::Usf;

    #[test]
    fn independent_tasks_all_run() {
        let mut rt = TaskRuntime::with_workers(3, ExecMode::Os);
        let count = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let c = Arc::clone(&count);
            rt.submit_independent(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        rt.taskwait();
        assert_eq!(count.load(Ordering::SeqCst), 50);
        let stats = rt.stats();
        assert_eq!(stats.submitted, 50);
        assert_eq!(stats.executed, 50);
        rt.shutdown();
    }

    #[test]
    fn dependent_tasks_run_in_order() {
        let rt = TaskRuntime::with_workers(4, ExecMode::Os);
        let log = Arc::new(Mutex::new(Vec::<u32>::new()));
        let datum = DataKey(42);
        for step in 0..10u32 {
            let log = Arc::clone(&log);
            rt.submit(TaskDeps::none().inout(datum), move || {
                log.lock().push(step);
            });
        }
        rt.taskwait();
        assert_eq!(
            *log.lock(),
            (0..10).collect::<Vec<_>>(),
            "inout chain must serialize in submission order"
        );
    }

    #[test]
    fn readers_between_writers_see_writer_results() {
        let rt = TaskRuntime::with_workers(4, ExecMode::Os);
        let value = Arc::new(Mutex::new(0u64));
        let key = DataKey::of(&*value);
        // writer -> many readers -> writer
        {
            let v = Arc::clone(&value);
            rt.submit(TaskDeps::none().inout(key), move || *v.lock() = 7);
        }
        let observed = Arc::new(Mutex::new(Vec::new()));
        for _ in 0..6 {
            let v = Arc::clone(&value);
            let o = Arc::clone(&observed);
            rt.submit(TaskDeps::none().input(key), move || {
                o.lock().push(*v.lock())
            });
        }
        {
            let v = Arc::clone(&value);
            rt.submit(TaskDeps::none().inout(key), move || *v.lock() = 9);
        }
        rt.taskwait();
        let obs = observed.lock().clone();
        assert_eq!(obs.len(), 6);
        assert!(
            obs.iter().all(|&x| x == 7),
            "readers must observe the first writer and precede the second: {obs:?}"
        );
        assert_eq!(*value.lock(), 9);
    }

    #[test]
    fn taskwait_then_more_tasks() {
        let rt = TaskRuntime::with_workers(2, ExecMode::Os);
        let count = Arc::new(AtomicUsize::new(0));
        for _ in 0..5 {
            let c = Arc::clone(&count);
            rt.submit_independent(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        rt.taskwait();
        assert_eq!(count.load(Ordering::SeqCst), 5);
        for _ in 0..5 {
            let c = Arc::clone(&count);
            rt.submit_independent(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        rt.taskwait();
        assert_eq!(count.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn usf_backend_oversubscribed_task_graph() {
        // 2 virtual cores, 4 workers, a diamond-shaped dependency graph repeated many times.
        let usf = Usf::builder().cores(2).build();
        let p = usf.process("taskrt-test");
        let rt = TaskRuntime::with_workers(4, ExecMode::Usf(p));
        let count = Arc::new(AtomicUsize::new(0));
        for block in 0..8u64 {
            let top = DataKey(1000 + block);
            let left = DataKey(2000 + block);
            let right = DataKey(3000 + block);
            let c = Arc::clone(&count);
            rt.submit(TaskDeps::none().inout(top), move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
            for side in [left, right] {
                let c = Arc::clone(&count);
                rt.submit(TaskDeps::none().input(top).inout(side), move || {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
            let c = Arc::clone(&count);
            rt.submit(
                TaskDeps::none().input(left).input(right).inout(top),
                move || {
                    c.fetch_add(1, Ordering::SeqCst);
                },
            );
        }
        rt.taskwait();
        assert_eq!(count.load(Ordering::SeqCst), 8 * 4);
        let stats = rt.stats();
        assert_eq!(stats.executed, 32);
        assert_eq!(stats.submitted, 32);
        drop(rt);
        usf.shutdown();
    }

    #[test]
    fn stats_report_counts() {
        let rt = TaskRuntime::with_workers(1, ExecMode::Os);
        let k = DataKey(1);
        rt.submit(TaskDeps::none().inout(k), || {});
        rt.submit(TaskDeps::none().inout(k), || {});
        rt.taskwait();
        let stats = rt.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.executed, 2);
        assert_eq!(stats.live, 0);
        // The write-after-write edge exists only if the second task was registered before
        // the first finished, so it can legitimately be 0 or 1.
        assert!(stats.edges <= 1);
    }

    #[test]
    fn panicking_task_surfaces_err_and_spares_the_rest() {
        let rt = TaskRuntime::with_workers(2, ExecMode::Os);
        let count = Arc::new(AtomicUsize::new(0));
        for i in 0..10 {
            let c = Arc::clone(&count);
            rt.submit_independent(move || {
                if i == 3 {
                    panic!("poisoned unit");
                }
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        let err = rt.taskwait_result().unwrap_err();
        assert!(
            matches!(&err, usf_core::UsfError::ThreadPanicked(m) if m.contains("poisoned unit")),
            "got {err:?}"
        );
        assert_eq!(count.load(Ordering::SeqCst), 9, "other units complete");
        // The error was consumed: a later wave is healthy again.
        let c = Arc::clone(&count);
        rt.submit_independent(move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
        rt.taskwait_result().unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn panicking_task_still_releases_its_successors() {
        // A dependency chain through a panicking middle task: without the completion
        // bookkeeping running on the panic path, the tail would never become ready and
        // taskwait would hang.
        let rt = TaskRuntime::with_workers(2, ExecMode::Os);
        let k = DataKey(7);
        let log = Arc::new(Mutex::new(Vec::<&str>::new()));
        {
            let log = Arc::clone(&log);
            rt.submit(TaskDeps::none().inout(k), move || log.lock().push("head"));
        }
        rt.submit(TaskDeps::none().inout(k), || panic!("middle dies"));
        {
            let log = Arc::clone(&log);
            rt.submit(TaskDeps::none().inout(k), move || log.lock().push("tail"));
        }
        assert!(rt.taskwait_result().is_err());
        assert_eq!(*log.lock(), vec!["head", "tail"]);
        let stats = rt.stats();
        assert_eq!(stats.executed, 2);
        assert_eq!(
            stats.live, 0,
            "the panicked task was retired from the graph"
        );
    }

    #[test]
    #[should_panic]
    fn submit_after_shutdown_panics() {
        let mut rt = TaskRuntime::with_workers(1, ExecMode::Os);
        rt.shutdown();
        rt.submit_independent(|| {});
    }
}
