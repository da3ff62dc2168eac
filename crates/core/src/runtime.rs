//! The USF instance and process-domain handles.
//!
//! [`Usf`] plays the role of the glibcv runtime initialised at process startup (§4.3.3):
//! it owns the connection to the nOS-V scheduler and the thread cache. A [`ProcessHandle`]
//! represents one *process domain* registered with the shared scheduler; spawning from
//! different process handles reproduces the paper's multi-process scenarios (the scheduler
//! rotates its per-process quantum among them), while spawning from one handle with several
//! runtimes on top reproduces the multi-runtime (nested) scenarios.

use crate::config::UsfConfig;
use crate::current::{clear_current, set_current, CurrentCtx};
use crate::error::UsfError;
use crate::thread::{spawn_on, JoinHandle, ThreadCache, ThreadCacheStats};
use std::sync::Arc;
use usf_nosv::{MetricsSnapshot, NosvInstance, ProcessId, TaskHandle, Topology};

/// Shared interior of a [`Usf`] instance.
pub(crate) struct UsfInner {
    pub(crate) nosv: NosvInstance,
    pub(crate) cache: Arc<ThreadCache>,
    pub(crate) config: UsfConfig,
}

impl Drop for UsfInner {
    fn drop(&mut self) {
        // Safety valve: release scheduler control and ask cached threads to exit. We do not
        // join here (the last reference may be dropped from a cached worker itself); the
        // explicit `Usf::shutdown` performs the joining variant.
        self.nosv.shutdown();
        self.cache.request_shutdown();
    }
}

/// Builder for [`Usf`] instances.
#[derive(Debug, Clone, Default)]
pub struct UsfBuilder {
    config: UsfConfig,
    connect_name: Option<String>,
}

impl UsfBuilder {
    /// Start from the default configuration (detected cores, SCHED_COOP).
    pub fn new() -> Self {
        UsfBuilder {
            config: UsfConfig::detect(),
            connect_name: None,
        }
    }

    /// Number of virtual cores.
    pub fn cores(mut self, cores: usize) -> Self {
        self.config.cores = cores;
        self
    }

    /// Number of NUMA nodes the cores are split into.
    pub fn numa_nodes(mut self, nodes: usize) -> Self {
        self.config.numa_nodes = nodes;
        self
    }

    /// Scheduling policy.
    pub fn policy(mut self, policy: usf_nosv::PolicyKind) -> Self {
        self.config.policy = policy;
        self
    }

    /// Per-process quantum.
    pub fn quantum(mut self, quantum: std::time::Duration) -> Self {
        self.config.quantum = quantum;
        self
    }

    /// Thread-cache capacity (0 disables reuse).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.config.thread_cache_capacity = capacity;
        self
    }

    /// Connect to (or create) the named shared instance instead of a private one.
    pub fn shared(mut self, name: impl Into<String>) -> Self {
        self.connect_name = Some(name.into());
        self
    }

    /// Build the instance.
    pub fn build(self) -> Usf {
        let mut config = self.config;
        if let Some(name) = self.connect_name {
            config.instance_name = Some(name);
        }
        Usf::new(config)
    }
}

/// A USF instance: the user-space scheduler plus the thread cache.
#[derive(Clone)]
pub struct Usf {
    inner: Arc<UsfInner>,
}

impl std::fmt::Debug for Usf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Usf")
            .field("cores", &self.topology().num_cores())
            .field("policy", &self.inner.config.policy)
            .finish()
    }
}

impl Usf {
    /// Builder with the default configuration.
    pub fn builder() -> UsfBuilder {
        UsfBuilder::new()
    }

    /// Create an instance from an explicit configuration.
    pub fn new(config: UsfConfig) -> Usf {
        let nosv = match &config.instance_name {
            Some(name) => NosvInstance::connect(name, config.to_nosv()),
            None => NosvInstance::new(config.to_nosv()),
        };
        let cache = ThreadCache::new(config.thread_cache_capacity);
        Usf {
            inner: Arc::new(UsfInner {
                nosv,
                cache,
                config,
            }),
        }
    }

    /// Create an instance from the `USF_*` environment variables; `Ok(None)` when
    /// `USF_ENABLE` is unset (the application should fall back to
    /// [`crate::exec::ExecMode::Os`]), and the error of [`UsfConfig::from_env`] when a
    /// variable is present but unparsable.
    pub fn from_env() -> Result<Option<Usf>, UsfError> {
        Ok(UsfConfig::from_env()?.map(Usf::new))
    }

    /// Connect to (or create) the named shared instance — the stand-in for several OS
    /// processes attaching to the same nOS-V shared-memory segment.
    pub fn connect(name: &str, mut config: UsfConfig) -> Usf {
        config.instance_name = Some(name.to_string());
        Usf::new(config)
    }

    /// Register a process domain and return a handle for spawning threads in it.
    pub fn process(&self, name: impl Into<String>) -> ProcessHandle {
        let name = name.into();
        let pid = self.inner.nosv.register_process(name.clone());
        ProcessHandle {
            inner: Arc::clone(&self.inner),
            pid,
            name,
        }
    }

    /// The underlying nOS-V instance (advanced use).
    pub fn nosv(&self) -> &NosvInstance {
        &self.inner.nosv
    }

    /// The virtual topology managed by the scheduler.
    pub fn topology(&self) -> &Topology {
        self.inner.nosv.scheduler().topology()
    }

    /// Configuration the instance was built with.
    pub fn config(&self) -> &UsfConfig {
        &self.inner.config
    }

    /// Lock-free snapshot of the scheduler's event counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.nosv.metrics()
    }

    /// Unified observability snapshot (counters + stage histograms + per-shard stats).
    /// Takes each shard lock once; see [`usf_nosv::StatsSnapshot`].
    pub fn stats_snapshot(&self) -> usf_nosv::StatsSnapshot {
        self.inner.nosv.stats_snapshot()
    }

    /// Start a background stats sampler on the shared scheduler (lock-free gauges only;
    /// see [`usf_nosv::StatsSampler`]). Off unless called.
    pub fn start_sampler(&self, period: std::time::Duration) -> usf_nosv::StatsSampler {
        self.inner.nosv.start_sampler(period)
    }

    /// Thread-cache statistics.
    pub fn thread_cache_stats(&self) -> ThreadCacheStats {
        self.inner.cache.stats()
    }

    /// Shut the instance down: release every task from scheduler control and terminate and
    /// join the cached worker threads. Call after joining application threads; must not be
    /// called from a thread spawned by this instance.
    ///
    /// The worker joins are bounded (see
    /// [`crate::thread::DEFAULT_SHUTDOWN_TIMEOUT`]): a worker wedged in user code is
    /// abandoned rather than hanging the teardown forever. Use [`Usf::shutdown_timeout`]
    /// to pick the deadline and learn who straggled.
    pub fn shutdown(&self) {
        let _ = self.shutdown_timeout(crate::thread::DEFAULT_SHUTDOWN_TIMEOUT);
    }

    /// Install a seeded [`usf_nosv::FaultPlan`] into the shared scheduler, returning the
    /// [`usf_nosv::FaultState`] the chaos harness asserts against. Install-once per
    /// scheduler instance.
    pub fn install_faults(&self, plan: &usf_nosv::FaultPlan) -> Arc<usf_nosv::FaultState> {
        self.inner.nosv.install_faults(plan)
    }

    /// [`Usf::shutdown`] with an explicit join deadline, reporting which workers were
    /// joined and which were still running when the deadline expired (those are left
    /// running detached — the graceful-degradation contract is that a stuck worker costs
    /// an OS thread, never a hung teardown).
    pub fn shutdown_timeout(
        &self,
        timeout: std::time::Duration,
    ) -> crate::thread::ThreadShutdownReport {
        self.inner.nosv.shutdown();
        self.inner.cache.shutdown_timeout(timeout)
    }
}

/// A process domain registered with a USF instance.
#[derive(Clone)]
pub struct ProcessHandle {
    inner: Arc<UsfInner>,
    pid: ProcessId,
    name: String,
}

impl std::fmt::Debug for ProcessHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcessHandle")
            .field("pid", &self.pid)
            .field("name", &self.name)
            .finish()
    }
}

impl ProcessHandle {
    /// The process-domain identifier.
    pub fn id(&self) -> ProcessId {
        self.pid
    }

    /// The process-domain name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The owning instance.
    pub fn usf(&self) -> Usf {
        Usf {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Spawn a cooperative thread in this process domain (the `pthread_create` analog): the
    /// thread attaches as a scheduler worker, runs `f` once granted a core, and is recycled
    /// through the thread cache when `f` returns.
    pub fn spawn<F, T>(&self, f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        spawn_on(&self.inner.nosv, &self.inner.cache, self.pid, None, f)
    }

    /// Like [`ProcessHandle::spawn`] with a thread/task label (diagnostics).
    pub fn spawn_named<F, T>(&self, name: impl Into<String>, f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        spawn_on(
            &self.inner.nosv,
            &self.inner.cache,
            self.pid,
            Some(name.into()),
            f,
        )
    }

    /// Attach the *calling* thread to this process domain (the main thread of a process in
    /// the paper's model). While the guard is alive the thread occupies a virtual core and
    /// all USF primitives use the cooperative path. Dropping the guard detaches.
    pub fn attach_current(&self) -> AttachGuard {
        let handle = self.inner.nosv.attach(self.pid, Some("attached-main"));
        set_current(CurrentCtx {
            task: handle.task().clone(),
            nosv: self.inner.nosv.clone(),
            process: self.pid,
        });
        AttachGuard {
            handle: Some(handle),
        }
    }

    /// Restrict (or, with `None`, un-restrict) this process domain to a set of virtual
    /// cores — NUMA-aware placement (§5.6): the scheduler only grants the domain's
    /// threads cores from the set, on the immediate-grant path and on every policy pick
    /// tier. Cores outside the instance topology are dropped; a fully out-of-range set
    /// leaves the domain unrestricted.
    pub fn restrict_to_cores(&self, cores: Option<Vec<usf_nosv::CoreId>>) {
        self.inner
            .nosv
            .scheduler()
            .set_process_domain(self.pid, cores);
    }

    /// Deregister the process domain from the scheduler's quantum rotation. Live threads of
    /// the domain keep running.
    pub fn deregister(&self) {
        self.inner.nosv.deregister_process(self.pid);
    }

    /// Forcibly reclaim the process domain mid-run — the stand-in for the OS process
    /// dying (`kill -9`) while its tasks are queued, running and blocked. Queued work is
    /// dropped, running tasks are evicted (their cores immediately re-dispatched to
    /// co-tenants) and every thread parked on one of the domain's tasks resumes as a
    /// plain OS thread. Co-tenant process domains are unaffected.
    pub fn kill(&self) -> usf_nosv::KillReport {
        self.inner.nosv.kill_process(self.pid)
    }
}

/// Guard returned by [`ProcessHandle::attach_current`]; detaches the thread on drop, which
/// gives it its own CPU mask back.
#[derive(Debug)]
pub struct AttachGuard {
    handle: Option<TaskHandle>,
}

impl Drop for AttachGuard {
    fn drop(&mut self) {
        clear_current();
        if let Some(h) = self.handle.take() {
            h.detach();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn builder_configures_instance() {
        let usf = Usf::builder()
            .cores(3)
            .numa_nodes(1)
            .cache_capacity(4)
            .build();
        assert_eq!(usf.topology().num_cores(), 3);
        assert_eq!(usf.config().thread_cache_capacity, 4);
        usf.shutdown();
    }

    #[test]
    fn spawn_join_round_trip() {
        let usf = Usf::builder().cores(2).build();
        let p = usf.process("app");
        let h = p.spawn(|| 1 + 1);
        assert_eq!(h.join().unwrap(), 2);
        usf.shutdown();
    }

    #[test]
    fn many_threads_one_core_all_finish() {
        let usf = Usf::builder().cores(1).build();
        let p = usf.process("app");
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..16)
            .map(|_| {
                let c = Arc::clone(&counter);
                p.spawn(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 16);
        usf.shutdown();
    }

    #[test]
    fn two_process_domains_share_the_scheduler() {
        let usf = Usf::builder().cores(2).build();
        let pa = usf.process("a");
        let pb = usf.process("b");
        assert_ne!(pa.id(), pb.id());
        let ha = pa.spawn(|| "a");
        let hb = pb.spawn(|| "b");
        assert_eq!(ha.join().unwrap(), "a");
        assert_eq!(hb.join().unwrap(), "b");
        let m = usf.metrics();
        assert_eq!(m.attaches, 2);
        usf.shutdown();
    }

    #[test]
    fn restricted_process_domain_runs_only_on_its_cores() {
        let usf = Usf::builder().cores(4).numa_nodes(2).build();
        let p = usf.process("pinned");
        p.restrict_to_cores(Some(vec![2, 3]));
        let handles: Vec<_> = (0..8)
            .map(|_| p.spawn(|| crate::affinity::current_scheduler_core().unwrap()))
            .collect();
        for h in handles {
            let core = h.join().unwrap();
            assert!(core >= 2, "pinned thread observed on core {core}");
        }
        usf.shutdown();
    }

    #[test]
    fn connect_by_name_shares_cores() {
        let a = Usf::connect("usf-runtime-shared-test", UsfConfig::with_cores(5));
        let b = Usf::connect("usf-runtime-shared-test", UsfConfig::with_cores(9));
        assert_eq!(a.topology().num_cores(), 5);
        assert_eq!(
            b.topology().num_cores(),
            5,
            "second connect joins the existing instance"
        );
        usf_nosv::NosvInstance::disconnect_name("usf-runtime-shared-test");
        a.shutdown();
    }

    #[test]
    fn attach_current_enables_cooperative_context() {
        let usf = Usf::builder().cores(2).build();
        let p = usf.process("main-proc");
        assert!(!crate::current::is_attached());
        {
            let _guard = p.attach_current();
            assert!(crate::current::is_attached());
        }
        assert!(!crate::current::is_attached());
        usf.shutdown();
    }

    #[test]
    fn thread_cache_reuses_across_sequential_spawns() {
        let usf = Usf::builder().cores(2).cache_capacity(8).build();
        let p = usf.process("app");
        for _ in 0..5 {
            p.spawn(|| ()).join().unwrap();
            // Give the finished worker a moment to park itself in the cache before the next
            // spawn (the cache hand-back happens after the join event is set).
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let stats = usf.thread_cache_stats();
        assert_eq!(stats.created + stats.reused, 5);
        assert!(
            stats.reused >= 1,
            "sequential spawn/join must hit the cache: {stats:?}"
        );
        usf.shutdown();
    }

    #[test]
    fn shutdown_racing_a_panicking_task_neither_hangs_nor_leaks() {
        // Regression: shutdown used to join workers unboundedly, so a worker stuck
        // between its panic and its cache hand-back could wedge teardown. The panicking
        // task must surface as Err on its join handle, and the bounded shutdown must
        // join everything with no stragglers.
        let usf = Usf::builder().cores(1).build();
        let p = usf.process("app");
        let h = p.spawn(|| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            panic!("injected task panic");
        });
        // Race teardown against the still-running (and about to panic) task.
        let report = usf.shutdown_timeout(std::time::Duration::from_secs(10));
        assert!(
            report.clean(),
            "panicking worker must still be joinable: {report:?}"
        );
        assert!(h.join().is_err(), "panic must surface on the join path");
    }

    #[test]
    fn killed_process_releases_workers_and_spares_cotenants() {
        use std::sync::atomic::AtomicBool;
        let usf = Usf::builder().cores(1).build();
        let victim = usf.process("victim");
        let stop = Arc::new(AtomicBool::new(false));
        let started = Arc::new(AtomicUsize::new(0));
        // Three workers on one core: one runs, the others park in attach. Killing the
        // process must release all of them (they continue as plain OS threads).
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let stop = Arc::clone(&stop);
                let started = Arc::clone(&started);
                victim.spawn(move || {
                    started.fetch_add(1, Ordering::SeqCst);
                    while !stop.load(Ordering::SeqCst) {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                })
            })
            .collect();
        while started.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        let report = victim.kill();
        assert!(
            report.running_preempted + report.waiters_released + report.queued_reclaimed >= 1,
            "kill must have reclaimed something: {report:?}"
        );
        stop.store(true, Ordering::SeqCst);
        for h in handles {
            // Terminates, never hangs: workers attached before the kill finish normally,
            // ones that lost the attach race surface an error.
            let _ = h.join();
        }
        // The freed core serves co-tenants as if the victim never existed.
        let co = usf.process("cotenant");
        assert_eq!(co.spawn(|| 7).join().unwrap(), 7);
        assert_eq!(usf.metrics().processes_killed, 1);
        usf.shutdown();
    }

    #[test]
    fn from_env_disabled_returns_none() {
        // USF_ENABLE is not set in the test environment.
        if std::env::var("USF_ENABLE").is_err() {
            assert!(Usf::from_env().unwrap().is_none());
        }
    }
}
