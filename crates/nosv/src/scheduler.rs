//! The centralized multi-process scheduler (the "shared memory segment" of nOS-V).
//!
//! One [`Scheduler`] instance owns the virtual core slots and the installed policy, and
//! serves every process domain of an instance. Its state is split along a strict
//! three-level lock hierarchy, taken only in this order, one module per level, each
//! level's state private to its module (see the matching table in DESIGN.md):
//!
//! 1. the **registry** (`registry.rs`), behind the global-section lock;
//! 2. the **shards** (`shard.rs`), one dispatch lock per NUMA node;
//! 3. the **grant slots** ([`crate::task`]), one lock per task.
//!
//! This module holds the public API and the glue between the levels: each entry point
//! runs its grant-slot transition first, then takes the registry and shard locks it
//! needs, and delivers the notifications it owes only once every lock has dropped.
//! `Hooks` is what every level reads without a lock.

use crate::binding::Worker;
use crate::config::{NosvConfig, PolicyKind};
use crate::error::{NosvError, Result};
use crate::faults::{FaultPlan, FaultSite, FaultState};
use crate::obs::{inc, StatsRegistry, StatsSample, StatsSnapshot};
use crate::process::ProcessId;
use crate::registry::GlobalState;
use crate::sched_trace::{TraceEvent, TraceMeta, TraceRecorder};
use crate::shard::Shards;
use crate::task::{Release, TaskId, TaskRef, WaitOutcome, WakeBatch};
use crate::topology::{CoreId, Topology};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Append a trace event when a recorder is installed in `$hooks`.
///
/// The timestamp and event expressions are evaluated only inside the branch, so with no
/// recorder a hook costs one load and one predictable branch: no `Instant::now()`, no
/// `TraceEvent` and no atomic.
macro_rules! trace_event {
    ($hooks:expr, $at:expr, $ev:expr) => {{
        if let Some(rec) = $hooks.tracer.as_deref() {
            rec.record_at($at, $ev);
        }
    }};
}
pub(crate) use trace_event;

/// The lock-free plane every level of the scheduler reads.
pub(crate) struct Hooks {
    /// Always-on counters and stage histograms (see [`crate::obs`]).
    pub(crate) stats: StatsRegistry,
    /// Installed schedule-trace recorder, if any (see [`crate::sched_trace`]).
    pub(crate) tracer: Option<Arc<TraceRecorder>>,
    /// Installed fault plan, if any (see [`crate::faults`]). A `OnceLock` so harnesses
    /// holding only the shared `Arc<Scheduler>` can still install one; the hot-path
    /// consult is a single acquire load.
    faults: OnceLock<Arc<FaultState>>,
    /// The shutdown flag: set once, under the global-section lock, before the shutdown
    /// drain, so a submit racing shutdown can detect it after publishing and self-heal
    /// (see [`Scheduler::submit`]); no dispatch path grants once it is set.
    shutting_down: AtomicBool,
}

impl Hooks {
    /// Whether shutdown has begun.
    #[inline]
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Consult the installed fault plan at a site: `true` when the fault fires on this
    /// visit, counted and traced before the caller acts on it. With no plan installed
    /// this is one load and one branch.
    #[inline]
    pub(crate) fn fault_fires(&self, site: FaultSite, task: Option<TaskId>) -> bool {
        let Some(f) = self.faults.get() else {
            return false;
        };
        let fired = f.consult(site, task);
        if fired {
            self.note_fault(site, task);
        }
        fired
    }

    /// Like [`Hooks::fault_fires`], yielding the stall duration of a delaying site.
    #[inline]
    fn fault_stall(&self, site: FaultSite, task: Option<TaskId>) -> Option<Duration> {
        let stall = self.faults.get()?.consult_stall(site, task);
        if stall.is_some() {
            self.note_fault(site, task);
        }
        stall
    }

    /// Count and trace one fault-site firing.
    fn note_fault(&self, site: FaultSite, task: Option<TaskId>) {
        inc(&self.stats.counters.faults_injected);
        trace_event!(
            self,
            Instant::now(),
            TraceEvent::FaultInjected { site, task }
        );
    }
}

/// One non-progressing core flagged by [`Scheduler::watchdog_scan`]: the granted task has
/// held the core past the caller's deadline without reaching a scheduling point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallReport {
    /// The non-progressing core.
    pub core: CoreId,
    /// The task occupying it.
    pub task: TaskId,
    /// The task's process domain.
    pub process: ProcessId,
    /// How long the core has been held since the grant.
    pub held_for: Duration,
}

/// What [`Scheduler::kill_process`] reclaimed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KillReport {
    /// Ready-queue entries of the process dropped from the policy.
    pub queued_reclaimed: usize,
    /// Waiting (queued or blocked) tasks released from scheduler control.
    pub waiters_released: usize,
    /// Running tasks evicted from their cores (they finish as plain OS threads).
    pub running_preempted: usize,
}

/// The centralized scheduler shared by every process domain of an instance.
pub struct Scheduler {
    config: NosvConfig,
    /// The registry (level 1), behind the global-section lock.
    global: Mutex<GlobalState>,
    /// The dispatch shards (level 2).
    shards: Shards,
    /// The installed policy's name, read once at construction.
    policy_name: String,
    /// What every level reads without a lock.
    hooks: Hooks,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("cores", &self.config.topology.num_cores())
            .field("policy", &self.config.policy)
            .finish()
    }
}

impl Scheduler {
    /// Create a scheduler with the given configuration.
    pub fn new(config: NosvConfig) -> Self {
        let topo = &config.topology;
        // SCHED_COOP's queues are per core and per node already, so it shards along the
        // node boundary; a policy with one global queue cannot.
        let nshards = match config.policy {
            PolicyKind::Coop => topo.num_numa_nodes().max(1),
            PolicyKind::Fifo | PolicyKind::Custom(_) => 1,
        };
        let shards = Shards::new(&config, nshards);
        Scheduler {
            global: Mutex::default(),
            policy_name: shards.policy_name(),
            shards,
            hooks: Hooks {
                stats: StatsRegistry::new(topo.num_cores(), nshards),
                tracer: None,
                faults: OnceLock::new(),
                shutting_down: AtomicBool::new(false),
            },
            config,
        }
    }

    /// Install a fresh [`TraceRecorder`] and return a handle to it: every subsequent
    /// scheduling decision is appended to the recorder. Must be called before the
    /// scheduler is shared (it takes `&mut self`), which also means recording always
    /// covers the scheduler's whole life.
    pub fn install_tracer(&mut self) -> Arc<TraceRecorder> {
        let rec = Arc::new(TraceRecorder::new(TraceMeta::from_config(&self.config)));
        self.hooks.tracer = Some(Arc::clone(&rec));
        rec
    }

    /// Instantiate and install a [`FaultPlan`], returning the shared [`FaultState`] the
    /// harness asserts against (fire counts, records). Install-once: the first plan wins
    /// for the scheduler's whole life (the returned state is the installed one either
    /// way), so concurrent installers cannot split the fault log.
    pub fn install_faults(&self, plan: &FaultPlan) -> Arc<FaultState> {
        let st = Arc::new(FaultState::new(plan));
        Arc::clone(self.hooks.faults.get_or_init(|| st))
    }

    /// Acquire the global-section lock (the registry), bumping the counter that lets
    /// tests prove which paths stay off it (steady-state churn must leave it flat).
    fn lock_global(&self) -> parking_lot::MutexGuard<'_, GlobalState> {
        inc(&self.stats().counters.global_lock_acquisitions);
        self.global.lock()
    }

    /// The topology this scheduler manages.
    pub fn topology(&self) -> &Topology {
        &self.config.topology
    }

    /// The configuration the scheduler was built with.
    pub fn config(&self) -> &NosvConfig {
        &self.config
    }

    /// The always-on stats registry: event counters (lock-free via
    /// [`StatsRegistry::counters`]), stage-boundary histograms, per-shard lock counters
    /// and the snapshot time base.
    pub fn stats(&self) -> &StatsRegistry {
        &self.hooks.stats
    }

    /// One unified observation of the scheduler: cumulative counters, stage-boundary
    /// latency histograms and per-shard lock and rotation counts. Takes each shard lock
    /// briefly, one at a time, to read its policy's quantum rotations (the acquisitions
    /// show up in `lock_acquisitions` like any others); everything else is lock-free.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let rotations = self.shards.each_policy(&self.hooks, |p| p.rotations());
        let stats = &self.hooks.stats;
        let (counters, shards) = stats.counters_and_shards(&rotations);
        StatsSnapshot {
            at: stats.elapsed(),
            counters,
            stages: stats.stages.snapshot(),
            shards,
        }
    }

    /// One lock-free time-series point (the sampler's per-tick read): atomic gauges and
    /// two cumulative counters only, so sampling never perturbs the schedule.
    pub fn sample(&self) -> StatsSample {
        let stats = &self.hooks.stats;
        StatsSample {
            at: stats.elapsed(),
            ready_tasks: self.ready_count(),
            intake_depth: self.shards.intake_depth(),
            busy_cores: self.busy_cores(),
            submits: stats.counters.submits.load(Ordering::Relaxed),
            grants: stats.counters.grants.load(Ordering::Relaxed),
        }
    }

    /// Start a background sampler appending one [`StatsSample`] every `period`. Off by
    /// default — nothing samples unless a harness asks; stop (and collect) with
    /// [`crate::obs::StatsSampler::stop`].
    pub fn start_sampler(self: &Arc<Self>, period: Duration) -> crate::obs::StatsSampler {
        let sched = Arc::clone(self);
        crate::obs::StatsSampler::start(period, move || sched.sample())
    }

    /// Name of the installed policy. Takes no lock.
    pub fn policy_name(&self) -> &str {
        &self.policy_name
    }

    /// Number of process-quantum rotations performed by the policy (summed over shards).
    pub fn policy_rotations(&self) -> u64 {
        let rotations = self.shards.each_policy(&self.hooks, |p| p.rotations());
        rotations.into_iter().sum()
    }

    /// Number of tasks currently ready (queued, not running). Lock-free: reads the atomic
    /// gauge, which may transiently include entries of tasks detached while queued.
    pub fn ready_count(&self) -> usize {
        self.shards.ready_count()
    }

    /// Whether any task is ready. Lock-free (see [`Scheduler::ready_count`]); this is what
    /// makes yield-storm "is switching useful" checks free of contention.
    pub fn has_ready(&self) -> bool {
        self.ready_count() > 0
    }

    /// Number of cores currently running a task. Lock-free.
    pub fn busy_cores(&self) -> usize {
        let cores = self.config.topology.num_cores();
        cores.saturating_sub(self.shards.idle_cores())
    }

    /// Number of live (registered, unfinished) tasks.
    pub fn live_tasks(&self) -> usize {
        self.lock_global().live_tasks()
    }

    /// Register a process domain and return its identifier. A multi-shard operation:
    /// global registry first, then every shard's policy, one lock at a time in ascending
    /// order (rare by design — registration is not a scheduling point).
    pub fn register_process(&self, name: impl Into<String>) -> ProcessId {
        let id = self.lock_global().register(name.into());
        let h = &self.hooks;
        self.shards.each_policy(h, |p| p.register_process(id));
        trace_event!(
            self.hooks,
            Instant::now(),
            TraceEvent::RegisterProcess { process: id }
        );
        id
    }

    /// Deregister a process domain. Running tasks of the process keep their cores; only
    /// the bookkeeping and its place in the quantum rotation are removed. Every task of
    /// the process *not currently holding a core* — queued for one, or blocked in a
    /// pause/timed wait — can never be woken through the scheduler again once the process
    /// is purged, so all of them are released from scheduler control (their waiters
    /// resume as plain OS threads, the same safety valve as [`Scheduler::shutdown`]) — a
    /// deregister must never leave a waiter parked forever, whatever state the race with
    /// submit/pause left it in.
    pub fn deregister_process(&self, process: ProcessId) {
        let stranded = self.lock_global().deregister(process);
        trace_event!(
            self.hooks,
            Instant::now(),
            TraceEvent::DeregisterProcess { process }
        );
        self.shards.purge(&self.hooks, process);
        // No scheduler lock is held: the batch notifies the released waiters.
        let mut wakes = WakeBatch::new();
        for t in stranded {
            t.release(Release::Waiting, &mut wakes);
        }
    }

    /// Forcibly reclaim a process that died mid-run: like
    /// [`Scheduler::deregister_process`], but in-flight work is torn down too — queued
    /// entries are dropped, waiting tasks are released, and *running* tasks are evicted
    /// from their cores (each freed core is immediately re-dispatched to co-tenants'
    /// ready work). Evicted workers resume as plain OS threads (the release safety
    /// valve), so a dying tenant can never wedge a core or a waiter it owned.
    pub fn kill_process(&self, process: ProcessId) -> KillReport {
        let mut report = KillReport::default();
        // Phase 1 (global): unregister, mark the shared cell dead (shard-local paths
        // reject the process's tasks from here on) and take every victim off the table.
        let victims = {
            let mut g = self.lock_global();
            let Some(victims) = g.kill(process) else {
                return report;
            };
            let counters = &self.stats().counters;
            inc(&counters.processes_killed);
            let n = victims.len() as u64;
            counters.tasks_reclaimed.fetch_add(n, Ordering::Relaxed);
            victims
        };
        trace_event!(
            self.hooks,
            Instant::now(),
            TraceEvent::DeregisterProcess { process }
        );
        // Phase 2 (per shard, one lock at a time): flush the intake (victims sitting
        // there are released by the drain — their process cell is dead) and purge the
        // policy queues, shedding the ready gauges.
        report.queued_reclaimed = self.shards.purge(&self.hooks, process);
        // Phase 3 (grant teardown, no scheduler-section lock held): evict running
        // victims, release waiting ones — each released waiter is owed exactly one
        // notification, which the batch delivers once the grant guards are dropped.
        let mut wakes = WakeBatch::new();
        let freed: Vec<CoreId> = victims
            .iter()
            .filter_map(|t| t.release(Release::EvictAndFinish, &mut wakes))
            .collect();
        report.running_preempted = freed.len();
        report.waiters_released = wakes.len();
        wakes.fire();
        // Phase 4: hand each freed core to co-tenants' ready work.
        self.shards.free_cores(&self.hooks, freed);
        report
    }

    /// Restrict (or, with `None`, un-restrict) a process domain to a set of cores — the
    /// NUMA-aware placement hook behind the §5.6 socket-pinning variants. Cores outside
    /// the topology are dropped; a fully out-of-range set leaves the process unrestricted
    /// (a dead domain would strand its tasks). Both the immediate-grant path and the
    /// installed policy honour the restriction (placement-oblivious policies like the FIFO
    /// ablation only receive it as a hint — see [`crate::policy::Policy::set_process_domain`]).
    pub fn set_process_domain(&self, process: ProcessId, cores: Option<Vec<CoreId>>) {
        let filtered = cores.and_then(|cs| {
            let kept: Vec<CoreId> = cs
                .into_iter()
                .filter(|&c| c < self.config.topology.num_cores())
                .collect();
            (!kept.is_empty()).then_some(kept)
        });
        {
            let g = self.lock_global();
            // Unknown (never-registered or already-deregistered) processes are ignored
            // entirely: forwarding to the policy would re-register the pid into the
            // quantum rotation as a ghost the grant path knows nothing about.
            let Some(cell) = g.cell(process) else {
                return;
            };
            // Publish to the shared cell so shard-local immediate grants see the new
            // domain without the global lock.
            cell.set_domain(filtered.clone());
            trace_event!(
                self.hooks,
                Instant::now(),
                TraceEvent::SetDomain {
                    process,
                    cores: filtered.clone(),
                }
            );
        }
        let h = &self.hooks;
        self.shards
            .each_policy(h, |p| p.set_process_domain(process, filtered.clone()));
    }

    /// Names and ids of the registered process domains, in id order.
    pub fn processes(&self) -> Vec<(ProcessId, String)> {
        self.lock_global().processes()
    }

    /// Create (but do not submit) a task belonging to `process`. The task carries its
    /// process's shared cell, so shard-local paths never consult the registry.
    pub fn create_task(&self, process: ProcessId, label: Option<String>) -> Result<TaskRef> {
        let mut g = self.lock_global();
        // Read under the lock `shutdown` sets it under: no task is created after
        // shutdown collected the tasks it releases.
        if self.hooks.shutting_down() {
            return Err(NosvError::ShutDown);
        }
        g.create_task(process, label)
    }

    /// The grant-slot waits' grant→first-run hook: the `dispatch` stage histogram.
    fn record_dispatch(&self) -> impl Fn(Duration) + '_ {
        |waited| self.stats().stages.dispatch.record(waited)
    }

    /// Attach: submit the task and block the calling OS thread until the scheduler grants it
    /// a core. This is the `nosv_attach` pattern (§4.3.1): the thread is recruited as a
    /// worker and can no longer run freely.
    pub fn attach(&self, task: &TaskRef) {
        inc(&self.stats().counters.attaches);
        if self.shards.binds_workers() {
            task.set_worker(Worker::this_thread());
        }
        self.submit(task);
        self.shards.prepark_drain(&self.hooks);
        let _ = task.wait_grant(None, self.record_dispatch());
    }

    /// Make a task ready. If an idle core exists it is granted immediately (honouring
    /// affinity); otherwise — the oversubscribed fast path — the task is published to its
    /// shard's intake with one push under the intake lock, and the call returns without
    /// taking any scheduler lock. Safe to call from any thread.
    pub fn submit(&self, task: &TaskRef) {
        inc(&self.stats().counters.submits);
        let (h, id) = (&self.hooks, Some(task.id()));
        // Fault site: drop the wake-up before any grant-slot bookkeeping, so the loss is
        // "clean" — the scheduler has no trace of the submit, exactly like a lost signal.
        if h.fault_fires(FaultSite::DropWakeup, id) {
            return;
        }
        // Fault site: deliver the wake-up twice; the second delivery must be absorbed by
        // the level-triggered grant slot (pending-wakeup counter / redundant-submit path).
        let duplicate = h.fault_fires(FaultSite::DuplicateWakeup, id);
        self.submit_inner(task);
        if duplicate {
            self.submit_inner(task);
        }
    }

    /// The submit body proper (after the fault sites, so an injected duplicate delivery
    /// does not re-consult the plan and cascade).
    fn submit_inner(&self, task: &TaskRef) {
        let Some(now) = task.mark_ready(&self.stats().counters.pending_wakeups) else {
            return;
        };
        trace_event!(
            self.hooks,
            now,
            TraceEvent::Submit {
                process: task.process(),
                task: task.id(),
            }
        );
        let home = self.shards.publish(task, now);
        // The intake lock pairs our push with the drain of a core going idle, which
        // `release_core` counts before it drains. If that drain's critical section follows
        // our push's, the drain takes our entry. Otherwise the drain's unlock
        // happens-before our lock, so its `idle_cores` increment happens-before the load
        // below: we see the idle core and place the task ourselves.
        if self.shards.idle_cores() > 0 {
            // Place the task ourselves (if stale entries make the drain enqueue instead
            // of granting, the scheduling point fills the idle cores from the policy).
            self.shards.scheduling_point(&self.hooks, home, false);
            // The idle core may live in a foreign shard (whose lock we never block on
            // from here): the guarded sweep visits the other shards one at a time.
            self.shards.dispatch_sweep(&self.hooks);
        } else if self.hooks.shutting_down() {
            // We published after shutdown's drain: self-heal so the gauge does not stay
            // stuck positive and the entry does not pin the task until Scheduler drop (the
            // drain drops the entry; nothing is dispatched once the flag is set). The
            // waiter itself is safe either way — the task was registered before the
            // shutdown flag was set, so the release loop covers it.
            self.shards.scheduling_point(&self.hooks, home, false);
        }
    }

    /// Fault site: a worker stalls at a scheduling point (pause / yield), sleeping while
    /// it still holds its core — the non-progress signature the grant-to-run watchdog
    /// ([`Scheduler::watchdog_scan`]) exists to detect. No lock is held while sleeping.
    fn stall_point(&self, task: &TaskRef) {
        let stall = self
            .hooks
            .fault_stall(FaultSite::WorkerStall, Some(task.id()));
        if let Some(stall) = stall {
            std::thread::sleep(stall);
        }
    }

    /// The prologue shared by the blocking scheduling points (`pause`, `waitfor`): settle
    /// the grant slot, give up the held core and run the pre-park drain. Returns the
    /// instant the task went off-core, or `None` when the call must return at once —
    /// the task was released, or a counted wake-up elides the block.
    fn block_prologue(&self, task: &TaskRef) -> Option<Instant> {
        let held = task.block(&self.stats().counters.pauses_elided)?;
        let off_core = Instant::now();
        let h = &self.hooks;
        self.shards.free_cores(h, held);
        self.shards.prepark_drain(h);
        Some(off_core)
    }

    /// Block the calling task: release its core (handing it to the next ready task) and wait
    /// until a later [`Scheduler::submit`] reschedules it. This is `nosv_pause`.
    pub fn pause(&self, task: &TaskRef) {
        self.stall_point(task);
        let Some(off_core) = self.block_prologue(task) else {
            return;
        };
        inc(&self.stats().counters.pauses);
        let _ = task.wait_grant(None, self.record_dispatch());
        self.stats().stages.pause_block.record(off_core.elapsed());
    }

    /// Timed block: like [`Scheduler::pause`], but if no submit arrives within `timeout` the
    /// task re-submits itself and waits to be rescheduled. This is `nosv_waitfor` and is the
    /// building block for sleeps and the poll/epoll integration (§4.3.4).
    pub fn waitfor(&self, task: &TaskRef, timeout: Duration) -> WaitOutcome {
        inc(&self.stats().counters.waitfors);
        let Some(off_core) = self.block_prologue(task) else {
            return WaitOutcome::Woken;
        };
        let deadline = off_core + timeout;
        let outcome = match task.wait_grant(Some(deadline), self.record_dispatch()) {
            Some(_) => WaitOutcome::Woken,
            None => {
                // Timed out without being woken: resubmit ourselves and wait for a core.
                inc(&self.stats().counters.waitfor_timeouts);
                self.submit(task);
                let _ = task.wait_grant(None, self.record_dispatch());
                WaitOutcome::TimedOut
            }
        };
        self.stats().stages.pause_block.record(off_core.elapsed());
        outcome
    }

    /// Voluntarily give the core to another ready task, requeueing the caller at the tail of
    /// its queue. Returns `true` if a switch happened, `false` if the core was kept because
    /// nothing else was ready, or if the task holds no core to give (released, or evicted by
    /// a kill). This is the `sched_yield` → `nosv_yield` path of §5.3.
    pub fn yield_now(&self, task: &TaskRef) -> bool {
        self.stall_point(task);
        // The "is switching useful" check reads the atomic gauge first: a yield storm
        // with nothing ready (the busy-wait-barrier pattern) touches neither the task's
        // grant lock nor the scheduler lock.
        if !self.has_ready() {
            inc(&self.stats().counters.yields_noop);
            return false;
        }
        let Some(core) = task.held_core() else {
            return false;
        };
        if !self.shards.hand_over(&self.hooks, task, core) {
            return false;
        }
        inc(&self.stats().counters.yields);
        let off_core = Instant::now();
        let _ = task.wait_grant(None, self.record_dispatch());
        self.stats().stages.yield_block.record(off_core.elapsed());
        true
    }

    /// Detach: the task finishes, its core is handed to the next ready task and it is removed
    /// from the scheduler; its worker thread gets its own CPU mask back. This is
    /// `nosv_detach`.
    pub fn detach(&self, task: &TaskRef) {
        self.finish(task, Release::EvictAndFinish)
    }

    /// [`Scheduler::detach`] for a pooled worker thread that will attach again (the
    /// `usf-core` thread cache): the thread keeps its CPU binding, so its next job is not
    /// rebound when it gets the same core.
    pub fn detach_pooled(&self, task: &TaskRef) {
        self.finish(task, Release::FinishPooled)
    }

    /// The body of [`Scheduler::detach`] and [`Scheduler::detach_pooled`].
    fn finish(&self, task: &TaskRef, how: Release) {
        inc(&self.stats().counters.detaches);
        let mut wakes = WakeBatch::new();
        let held = task.release(how, &mut wakes);
        self.shards.free_cores(&self.hooks, held);
        // The one global-section touch of the task lifecycle (not a scheduling point —
        // the wake-churn hot path never gets here).
        self.lock_global().remove_task(task.id());
    }

    /// Shut the scheduler down: every task waiting for a core is released from scheduler
    /// control and resumes as a plain OS thread. This is a safety valve used by the USF
    /// layer at instance teardown so that buggy applications can never leave threads parked
    /// forever.
    ///
    /// The intakes are drained under the same lock acquisition that sets the shutdown
    /// flag, so a submit racing shutdown can never leave a waiter parked: either its push
    /// lands before the drain (released below alongside the registered tasks), or its
    /// grant-slot update ran before the task's release (the task is registered — it was
    /// created before the flag was set — so it is released below and `wait_grant` returns
    /// immediately).
    pub fn shutdown(&self) {
        let (tasks, queued) = {
            let mut g = self.lock_global();
            trace_event!(self.hooks, Instant::now(), TraceEvent::Shutdown);
            // Published before the drain: a submit that pushes after this drain will
            // observe the flag and self-heal (see `submit`), and every shard's dispatch
            // path refuses new grants from here on.
            self.hooks.shutting_down.store(true, Ordering::SeqCst);
            // Fault site: widen the flag-set → drain window so racing submits actually
            // land inside it (the self-heal path above is what must absorb them).
            if let Some(stall) = self.hooks.fault_stall(FaultSite::ShutdownRace, None) {
                drop(g);
                std::thread::sleep(stall);
                g = self.lock_global();
            }
            (g.tasks(), self.shards.drain_for_shutdown())
        };
        // No scheduler lock is held: the batch notifies the released waiters.
        let mut wakes = WakeBatch::new();
        for t in tasks.iter().chain(queued.iter()) {
            t.release(Release::All, &mut wakes);
        }
    }

    /// Whether the scheduler has been shut down.
    pub fn is_shutdown(&self) -> bool {
        self.hooks.shutting_down()
    }

    /// Grant-to-run watchdog: report every core whose current grant has been held for at
    /// least `max_hold` without reaching a scheduling point. Each non-progressing grant
    /// is flagged once (repeat scans stay quiet until the core is re-granted), and
    /// flagging bumps [`crate::obs::Counters::stalls_detected`]. Takes each shard lock
    /// in turn and never the global-section lock: a core slot records the process of the
    /// task holding it.
    ///
    /// Detection is deliberately report-only: a task that holds a core past the deadline
    /// is *running* on its bound worker thread (the USF binding of §4.2), so "requeueing"
    /// it would schedule a second incarnation of work that is still executing. The caller
    /// decides the response — log it, kill the owning process
    /// ([`Scheduler::kill_process`]), or widen the deadline.
    pub fn watchdog_scan(&self, max_hold: Duration) -> Vec<StallReport> {
        self.shards.watchdog_scan(&self.hooks, max_hold)
    }

    /// An artificial scheduling point for watchdog/maintenance threads: drain the intake
    /// and dispatch idle cores exactly as an ordinary scheduling point would, then return
    /// how many intake entries were recovered.
    ///
    /// The drain deliberately bypasses an armed [`FaultSite::DelayIntakeDrain`] fault — a
    /// rescue must not itself be delayed. This is the degradation story for delayed
    /// drains: in a fully cooperative system a submit stranded in the intake is only
    /// recovered at the *next* scheduling point, and if every thread is already parked
    /// there is none; a periodic `rescue_drain` bounds that delay without perturbing an
    /// otherwise healthy schedule (an empty intake makes this a cheap no-op).
    pub fn rescue_drain(&self) -> usize {
        self.shards.rescue_drain(&self.hooks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskState;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn sched(cores: usize) -> Arc<Scheduler> {
        Arc::new(Scheduler::new(NosvConfig::with_cores(cores)))
    }

    #[test]
    fn register_and_list_processes() {
        let s = sched(2);
        let a = s.register_process("a");
        let b = s.register_process("b");
        assert_ne!(a, b);
        let procs = s.processes();
        assert_eq!(procs.len(), 2);
        assert_eq!(procs[0].1, "a");
        s.deregister_process(a);
        assert_eq!(s.processes().len(), 1);
    }

    #[test]
    fn create_task_requires_known_process() {
        let s = sched(1);
        assert!(matches!(
            s.create_task(99, None),
            Err(NosvError::UnknownProcess(99))
        ));
        let p = s.register_process("p");
        assert!(s.create_task(p, None).is_ok());
    }

    #[test]
    fn submit_grants_idle_core_immediately() {
        let s = sched(2);
        let p = s.register_process("p");
        let t = s.create_task(p, None).unwrap();
        s.submit(&t);
        assert_eq!(t.state(), TaskState::Running);
        assert!(t.current_core().is_some());
        assert_eq!(s.busy_cores(), 1);
        assert_eq!(s.ready_count(), 0);
    }

    #[test]
    fn submit_queues_when_cores_are_busy() {
        let s = sched(1);
        let p = s.register_process("p");
        let t1 = s.create_task(p, None).unwrap();
        let t2 = s.create_task(p, None).unwrap();
        s.submit(&t1);
        s.submit(&t2);
        assert_eq!(t1.state(), TaskState::Running);
        assert_eq!(t2.state(), TaskState::Ready);
        assert_eq!(s.ready_count(), 1);
        // Detaching t1 hands the core to t2.
        s.detach(&t1);
        assert_eq!(t2.state(), TaskState::Running);
        assert_eq!(s.ready_count(), 0);
    }

    #[test]
    fn submit_after_deregister_releases_instead_of_granting() {
        let s = sched(2);
        let p = s.register_process("p");
        let t = s.create_task(p, None).unwrap();
        s.deregister_process(p);
        // The task was created before the deregister and never submitted, so the
        // scheduler still knows it — but its process is gone. The submit sees idle cores
        // and runs a scheduling point at once; its drain must release the task, not
        // grant it a core (it would run outside any registered domain) and not enqueue
        // it (the policy would auto-re-register the purged process in the quantum
        // rotation as a ghost).
        s.submit(&t);
        assert_ne!(t.state(), TaskState::Running);
        assert_eq!(s.busy_cores(), 0);
        assert_eq!(s.ready_count(), 0);
        assert!(t.is_released(), "stranded waiter must be released");
        assert!(s.processes().is_empty(), "purged process must stay purged");
    }

    #[test]
    fn never_more_running_tasks_than_cores() {
        let s = sched(2);
        let p = s.register_process("p");
        let tasks: Vec<_> = (0..8).map(|_| s.create_task(p, None).unwrap()).collect();
        for t in &tasks {
            s.submit(t);
        }
        let running = tasks
            .iter()
            .filter(|t| t.state() == TaskState::Running)
            .count();
        assert_eq!(running, 2);
        assert_eq!(s.ready_count(), 6);
        assert_eq!(s.busy_cores(), 2);
    }

    #[test]
    fn pending_wakeup_elides_pause() {
        let s = sched(1);
        let p = s.register_process("p");
        let t = s.create_task(p, None).unwrap();
        s.submit(&t); // granted core 0
        s.submit(&t); // arrives "early" -> counted
                      // The pause must not block (it consumes the counted wake-up).
        s.pause(&t);
        assert_eq!(t.state(), TaskState::Running);
        let m = s.stats().counters();
        assert_eq!(m.pending_wakeups, 1);
        assert_eq!(m.pauses_elided, 1);
    }

    #[test]
    fn pause_releases_core_to_next_task() {
        let s = sched(1);
        let p = s.register_process("p");
        let t1 = s.create_task(p, None).unwrap();
        let t2 = s.create_task(p, None).unwrap();
        s.submit(&t1);
        s.submit(&t2);
        let s2 = Arc::clone(&s);
        let t1c = TaskRef::clone(&t1);
        let blocked = Arc::new(AtomicUsize::new(0));
        let blocked2 = Arc::clone(&blocked);
        let h = std::thread::spawn(move || {
            blocked2.store(1, Ordering::SeqCst);
            s2.pause(&t1c); // blocks until someone resubmits t1
            blocked2.store(2, Ordering::SeqCst);
        });
        // Wait until t2 got the core (t1 paused).
        while t2.state() != TaskState::Running {
            std::thread::yield_now();
        }
        assert_eq!(t1.state(), TaskState::Blocked);
        assert_eq!(blocked.load(Ordering::SeqCst), 1);
        // Resume t1: t2 still holds the core, so t1 queues; release t2's core via detach.
        s.submit(&t1);
        assert_eq!(t1.state(), TaskState::Ready);
        s.detach(&t2);
        h.join().unwrap();
        assert_eq!(blocked.load(Ordering::SeqCst), 2);
        assert_eq!(t1.state(), TaskState::Running);
        s.detach(&t1);
    }

    #[test]
    fn waitfor_times_out_and_reschedules() {
        let s = sched(1);
        let p = s.register_process("p");
        let t = s.create_task(p, None).unwrap();
        s.submit(&t);
        let outcome = s.waitfor(&t, Duration::from_millis(5));
        assert_eq!(outcome, WaitOutcome::TimedOut);
        assert_eq!(t.state(), TaskState::Running);
        let m = s.stats().counters();
        assert_eq!(m.waitfors, 1);
        assert_eq!(m.waitfor_timeouts, 1);
    }

    #[test]
    fn waitfor_woken_early_by_submit() {
        let s = sched(2);
        let p = s.register_process("p");
        let t = s.create_task(p, None).unwrap();
        s.submit(&t);
        let s2 = Arc::clone(&s);
        let t2 = TaskRef::clone(&t);
        let h = std::thread::spawn(move || s2.waitfor(&t2, Duration::from_secs(10)));
        while t.state() != TaskState::Blocked {
            std::thread::yield_now();
        }
        s.submit(&t);
        let outcome = h.join().unwrap();
        assert_eq!(outcome, WaitOutcome::Woken);
    }

    #[test]
    fn yield_without_ready_tasks_keeps_core() {
        let s = sched(1);
        let p = s.register_process("p");
        let t = s.create_task(p, None).unwrap();
        s.submit(&t);
        assert!(!s.yield_now(&t));
        assert_eq!(t.state(), TaskState::Running);
        assert_eq!(s.stats().counters().yields_noop, 1);
    }

    #[test]
    fn yield_switches_to_queued_task() {
        let s = sched(1);
        let p = s.register_process("p");
        let t1 = s.create_task(p, None).unwrap();
        let t2 = s.create_task(p, None).unwrap();
        s.submit(&t1);
        s.submit(&t2); // queued behind t1
        let s2 = Arc::clone(&s);
        let t1c = TaskRef::clone(&t1);
        let h = std::thread::spawn(move || s2.yield_now(&t1c));
        // t2 must get the core; t1 requeued.
        while t2.state() != TaskState::Running {
            std::thread::yield_now();
        }
        // Give the core back so t1 can resume and the yielding thread can finish.
        s.detach(&t2);
        assert!(h.join().unwrap());
        assert_eq!(t1.state(), TaskState::Running);
    }

    #[test]
    fn detach_frees_core_and_forgets_task() {
        let s = sched(1);
        let p = s.register_process("p");
        let t = s.create_task(p, None).unwrap();
        s.submit(&t);
        assert_eq!(s.live_tasks(), 1);
        s.detach(&t);
        assert_eq!(s.live_tasks(), 0);
        assert_eq!(s.busy_cores(), 0);
    }

    #[test]
    fn shutdown_releases_waiting_tasks() {
        let s = sched(1);
        let p = s.register_process("p");
        let t1 = s.create_task(p, None).unwrap();
        let t2 = s.create_task(p, None).unwrap();
        s.submit(&t1);
        s.submit(&t2);
        let t2c = TaskRef::clone(&t2);
        // t2 waits for a core (attach blocks); shutdown must release it.
        let h = std::thread::spawn(move || {
            t2c.wait_grant(None, |_| {}) // returns Some(None) on release
        });
        std::thread::sleep(Duration::from_millis(10));
        s.shutdown();
        assert_eq!(h.join().unwrap(), Some(None));
        assert!(s.is_shutdown());
        // Operations after shutdown are inert.
        assert!(matches!(s.create_task(p, None), Err(NosvError::ShutDown)));
        s.pause(&t1);
        assert!(!s.yield_now(&t1));
    }

    #[test]
    fn process_domain_restricts_immediate_grants_and_picks() {
        let s = Arc::new(Scheduler::new(NosvConfig::with_topology(Topology::new(
            4, 2,
        ))));
        let p = s.register_process("pinned");
        // Pin the process to node 1 (cores 2, 3); out-of-range cores are dropped.
        s.set_process_domain(p, Some(vec![2, 3, 99]));
        let t1 = s.create_task(p, None).unwrap();
        s.submit(&t1);
        assert!(
            t1.current_core().unwrap() >= 2,
            "immediate grant must stay inside the domain (got {:?})",
            t1.current_core()
        );
        let t2 = s.create_task(p, None).unwrap();
        s.submit(&t2);
        assert!(t2.current_core().unwrap() >= 2);
        // Both domain cores busy: the next task queues even though cores 0/1 are idle.
        let t3 = s.create_task(p, None).unwrap();
        s.submit(&t3);
        assert_eq!(t3.state(), TaskState::Ready);
        assert_eq!(s.busy_cores(), 2);
        // Freeing a domain core dispatches the queued task onto it.
        s.detach(&t1);
        assert!(t3.current_core().unwrap() >= 2);
        // Clearing the domain un-restricts placement.
        s.set_process_domain(p, None);
        let t4 = s.create_task(p, None).unwrap();
        s.submit(&t4);
        assert!(t4.current_core().unwrap() < 2, "unrestricted grant");
    }

    #[test]
    fn set_domain_on_deregistered_process_is_a_noop() {
        // Restricting a process after deregistration must not resurrect it in the
        // policy's quantum rotation (a ghost the grant path knows nothing about).
        let s = sched(2);
        let p = s.register_process("gone");
        s.deregister_process(p);
        s.set_process_domain(p, Some(vec![0]));
        assert!(s.processes().is_empty());
        // A live process still schedules normally afterwards.
        let q = s.register_process("live");
        let t = s.create_task(q, None).unwrap();
        s.submit(&t);
        assert_eq!(t.state(), TaskState::Running);
    }

    #[test]
    fn fully_out_of_range_domain_is_ignored() {
        let s = sched(2);
        let p = s.register_process("p");
        s.set_process_domain(p, Some(vec![57]));
        let t = s.create_task(p, None).unwrap();
        s.submit(&t);
        assert_eq!(
            t.state(),
            TaskState::Running,
            "a dead domain must not strand the task"
        );
    }

    #[test]
    fn affinity_preferred_on_resubmit() {
        let s = sched(4);
        let p = s.register_process("p");
        let t = s.create_task(p, None).unwrap();
        s.submit(&t);
        let first = t.current_core().unwrap();
        // Pause (from this thread it would block, so emulate: pretend a wakeup is pending
        // after releasing) — instead just detach-and-recreate pattern: pause on another thread.
        let s2 = Arc::clone(&s);
        let tc = TaskRef::clone(&t);
        let h = std::thread::spawn(move || s2.pause(&tc));
        // `Blocked` is published before the pause frees the core slot: wait for both, or
        // the resubmit can find its preferred core still busy.
        while t.state() != TaskState::Blocked || s.busy_cores() != 0 {
            std::thread::yield_now();
        }
        s.submit(&t);
        h.join().unwrap();
        assert_eq!(
            t.current_core().unwrap(),
            first,
            "resubmit should honour the preferred core"
        );
        let m = s.stats().counters();
        assert!(m.affinity_hits >= 1);
    }

    #[test]
    fn submit_fast_path_takes_no_scheduler_lock() {
        let s = sched(1);
        let p = s.register_process("p");
        let t1 = s.create_task(p, None).unwrap();
        s.submit(&t1); // occupies the only core
        let tasks: Vec<_> = (0..8).map(|_| s.create_task(p, None).unwrap()).collect();
        let before = s.stats().counters().lock_acquisitions;
        for t in &tasks {
            s.submit(t); // all cores busy: one push under the intake lock
        }
        let snap = s.stats().counters();
        assert_eq!(
            snap.lock_acquisitions, before,
            "submit to a fully busy system must not acquire the scheduler lock"
        );
        assert_eq!(snap.submits, 9);
        assert_eq!(s.ready_count(), 8);
        assert!(s.has_ready());
        for t in &tasks {
            assert_eq!(t.state(), TaskState::Ready);
        }
        // The intake is drained at the next scheduling point: detaching t1 dispatches the
        // oldest waiter.
        s.detach(&t1);
        assert_eq!(tasks[0].state(), TaskState::Running);
        assert_eq!(s.ready_count(), 7);
    }

    /// The intake-depth gauge (read by `prepark_drain` and `sample()`) never counts more
    /// entries than were published. A gauge bumped after the publish, outside the intake's
    /// critical section, wraps to `usize::MAX` when a drain lands in between.
    #[test]
    fn intake_depth_never_exceeds_what_was_submitted() {
        // Fresh schedulers per round keep the intake busy for the whole second without
        // piling up tasks: each task is published only once.
        const PER_SUBMITTER: usize = 5_000;
        let deadline = Instant::now() + Duration::from_secs(1);
        let mut reads = 0u64;
        while Instant::now() < deadline {
            let s = sched(1);
            let p = s.register_process("p");
            let holder = s.create_task(p, None).unwrap();
            s.submit(&holder); // holds the only core: every submit below lands in the intake
            let submitted = Arc::new(AtomicUsize::new(0));
            let done = Arc::new(AtomicUsize::new(0));
            let submitters: Vec<_> = (0..2)
                .map(|_| {
                    let tasks: Vec<_> = (0..PER_SUBMITTER)
                        .map(|_| s.create_task(p, None).unwrap())
                        .collect();
                    let (s, submitted, done) =
                        (Arc::clone(&s), Arc::clone(&submitted), Arc::clone(&done));
                    std::thread::spawn(move || {
                        for t in &tasks {
                            submitted.fetch_add(1, Ordering::SeqCst);
                            s.submit(t);
                        }
                        done.fetch_add(1, Ordering::SeqCst);
                    })
                })
                .collect();
            // The drainer naps between drains: each wake-up may preempt a submitter
            // mid-publish, the window a drain has to land in to expose a torn count.
            let drainer = {
                let (s, done) = (Arc::clone(&s), Arc::clone(&done));
                std::thread::spawn(move || {
                    while done.load(Ordering::SeqCst) < 2 {
                        s.rescue_drain();
                        std::thread::sleep(Duration::from_micros(1));
                    }
                })
            };
            // The depth is read before the bound, so a gauge that counts only published
            // entries can never exceed it.
            while done.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                let depth = s.sample().intake_depth;
                let bound = submitted.load(Ordering::SeqCst);
                assert!(
                    depth <= bound,
                    "read {reads}: intake depth {depth} exceeds the {bound} tasks submitted so far"
                );
                reads += 1;
            }
            for h in submitters {
                h.join().unwrap();
            }
            drainer.join().unwrap();
            s.shutdown();
        }
        assert!(reads > 0);
    }

    #[test]
    fn yield_noop_check_is_lock_free() {
        let s = sched(1);
        let p = s.register_process("p");
        let t = s.create_task(p, None).unwrap();
        s.submit(&t);
        let before = s.stats().counters().lock_acquisitions;
        for _ in 0..16 {
            assert!(!s.yield_now(&t));
        }
        let snap = s.stats().counters();
        assert_eq!(
            snap.lock_acquisitions, before,
            "yield with nothing ready must not acquire the scheduler lock"
        );
        assert_eq!(snap.yields_noop, 16);
    }

    #[test]
    fn shutdown_drains_intake_without_parking_waiters() {
        let s = sched(1);
        let p = s.register_process("p");
        let t1 = s.create_task(p, None).unwrap();
        s.submit(&t1); // occupies the only core
        let t2 = s.create_task(p, None).unwrap();
        s.submit(&t2); // sits in the intake (no idle core)
        s.shutdown();
        // The waiter must be released, not parked forever.
        assert_eq!(t2.wait_grant(None, |_| {}), Some(None));
        assert_eq!(s.ready_count(), 0);
    }

    #[test]
    fn submit_racing_shutdown_never_parks_a_waiter() {
        for _ in 0..50 {
            let s = sched(1);
            let p = s.register_process("p");
            let t1 = s.create_task(p, None).unwrap();
            s.submit(&t1); // keep the core busy so racing submits hit the intake
            let t2 = s.create_task(p, None).unwrap();
            let s2 = Arc::clone(&s);
            let t2c = TaskRef::clone(&t2);
            let h = std::thread::spawn(move || {
                s2.submit(&t2c);
                t2c.wait_grant(None, |_| {}) // must terminate: granted or released, never parked
            });
            s.shutdown();
            let _ = h.join().unwrap();
        }
    }

    #[test]
    fn deregister_process_reconciles_ready_gauge() {
        let s = sched(1);
        let p = s.register_process("p");
        let t1 = s.create_task(p, None).unwrap();
        let t2 = s.create_task(p, None).unwrap();
        let t3 = s.create_task(p, None).unwrap();
        s.submit(&t1); // granted the only core
        s.submit(&t2); // intake
        s.submit(&t3); // intake
        let s2 = Arc::clone(&s);
        let t1c = TaskRef::clone(&t1);
        // Pausing t1 drains the intake: t2 takes the core, t3 lands in the policy queues.
        let h = std::thread::spawn(move || s2.pause(&t1c));
        while t2.state() != TaskState::Running {
            std::thread::yield_now();
        }
        assert_eq!(s.ready_count(), 1);
        // Deregistering drops t3's queued entry; the gauge must follow, or has_ready()
        // stays stuck true and every future yield takes the slow path.
        s.deregister_process(p);
        assert_eq!(s.ready_count(), 0);
        assert!(!s.has_ready());
        s.shutdown();
        h.join().unwrap();
    }

    #[test]
    fn deregister_releases_queued_waiters() {
        // A queued task whose process is deregistered can never be picked again; its
        // waiter must be released (the shutdown safety valve), not parked forever.
        let s = sched(1);
        let p = s.register_process("p");
        let t1 = s.create_task(p, None).unwrap();
        s.submit(&t1); // occupies the only core
        let t2 = s.create_task(p, None).unwrap();
        s.submit(&t2); // queued
        let t2c = TaskRef::clone(&t2);
        let h = std::thread::spawn(move || t2c.wait_grant(None, |_| {}));
        s.deregister_process(p);
        assert_eq!(
            h.join().unwrap(),
            Some(None),
            "waiter must resume, not stay parked"
        );
        // t1 keeps running (deregister does not touch granted tasks).
        assert_eq!(t1.state(), TaskState::Running);
    }

    #[test]
    fn deregister_purges_intake_tasks_of_process() {
        // Regression: a task still sitting in the intake when its process is
        // deregistered must be flushed and purged with the process — a later drain must
        // not re-enqueue it and resurrect the process in the quantum rotation.
        let s = sched(1);
        let pa = s.register_process("a");
        let pb = s.register_process("b");
        let t1 = s.create_task(pb, None).unwrap();
        s.submit(&t1); // occupies the only core
        let t2 = s.create_task(pa, None).unwrap();
        s.submit(&t2); // sits in the intake
        s.deregister_process(pa);
        assert_eq!(s.ready_count(), 0);
        assert_eq!(s.processes().len(), 1);
        // The next scheduling point must find nothing ready (t2 was purged, not parked
        // in the policy under a resurrected process).
        s.detach(&t1);
        assert_eq!(s.busy_cores(), 0);
        assert_eq!(s.ready_count(), 0);
    }

    #[test]
    fn busy_cores_gauge_tracks_slots() {
        let s = sched(2);
        let p = s.register_process("p");
        assert_eq!(s.busy_cores(), 0);
        let t1 = s.create_task(p, None).unwrap();
        let t2 = s.create_task(p, None).unwrap();
        s.submit(&t1);
        assert_eq!(s.busy_cores(), 1);
        s.submit(&t2);
        assert_eq!(s.busy_cores(), 2);
        s.detach(&t2);
        assert_eq!(s.busy_cores(), 1);
        s.detach(&t1);
        assert_eq!(s.busy_cores(), 0);
    }

    #[test]
    fn deregister_releases_blocked_waiters() {
        // A task blocked in pause (not queued — it released its core and waits for a
        // future submit) whose process is deregistered can never be woken through the
        // scheduler again; the generalized release must cover it, not just queued tasks.
        let s = sched(1);
        let p = s.register_process("p");
        let t1 = s.create_task(p, None).unwrap();
        s.submit(&t1);
        let s2 = Arc::clone(&s);
        let t1c = TaskRef::clone(&t1);
        let h = std::thread::spawn(move || s2.pause(&t1c));
        while t1.state() != TaskState::Blocked {
            std::thread::yield_now();
        }
        s.deregister_process(p);
        h.join().unwrap(); // must return: the blocked waiter was released
        assert!(t1.is_released());
    }

    /// Why the global task table stays: a deregister leaves a task that holds a core
    /// registered (it keeps running), and only the table lets `shutdown` find and release
    /// it afterwards.
    #[test]
    fn deregistered_running_task_stays_registered_until_it_detaches() {
        let s = sched(1);
        let p = s.register_process("p");
        let t = s.create_task(p, None).unwrap();
        s.submit(&t);
        s.deregister_process(p);
        assert_eq!(
            t.state(),
            TaskState::Running,
            "deregister spares a held core"
        );
        assert!(!t.is_released());
        assert_eq!(s.live_tasks(), 1);
        s.shutdown();
        assert!(t.is_released(), "shutdown releases the deregistered runner");
        // Its next pause returns at once: a released task never parks.
        let (s2, t2) = (Arc::clone(&s), TaskRef::clone(&t));
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            s2.pause(&t2);
            tx.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("the released task's pause must return at once");
        assert_eq!(s.live_tasks(), 1, "counted until it detaches");
        s.detach(&t);
        assert_eq!(s.live_tasks(), 0);
    }

    /// The watchdog reads each stalled task's process from its core slot: a scan never
    /// waits for the registry, so a task that leaves the task table meanwhile is still
    /// reported with its own process (a registry lookup after the scan reported such a
    /// task as process 0, an id that is never assigned).
    #[test]
    fn watchdog_reports_the_slot_process_without_the_registry() {
        let s = sched(2);
        let _other = s.register_process("other");
        let p = s.register_process("p");
        let t = s.create_task(p, None).unwrap();
        s.submit(&t);
        let registry = s.lock_global();
        let s2 = Arc::clone(&s);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(s2.watchdog_scan(Duration::ZERO)).unwrap());
        let reports = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a watchdog scan must not wait for the registry lock");
        drop(registry);
        assert_eq!(reports.len(), 1);
        assert_eq!((reports[0].task, reports[0].process), (t.id(), p));
    }

    #[test]
    fn watchdog_flags_held_core_once_per_grant() {
        let s = sched(2);
        let p = s.register_process("p");
        let t = s.create_task(p, None).unwrap();
        s.submit(&t);
        // Fresh grant: a generous deadline sees no stall.
        assert!(s.watchdog_scan(Duration::from_secs(10)).is_empty());
        std::thread::sleep(Duration::from_millis(15));
        let reports = s.watchdog_scan(Duration::from_millis(5));
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].task, t.id());
        assert_eq!(reports[0].process, p);
        assert!(reports[0].held_for >= Duration::from_millis(5));
        assert_eq!(s.stats().counters().stalls_detected, 1);
        // The same grant is not re-flagged.
        assert!(s.watchdog_scan(Duration::from_millis(5)).is_empty());
        // A fresh grant re-arms the flag.
        let s2 = Arc::clone(&s);
        let tc = TaskRef::clone(&t);
        let h = std::thread::spawn(move || s2.pause(&tc));
        while t.state() != TaskState::Blocked {
            std::thread::yield_now();
        }
        s.submit(&t);
        h.join().unwrap();
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(s.watchdog_scan(Duration::from_millis(5)).len(), 1);
    }

    #[test]
    fn kill_process_reclaims_running_and_waiting_tasks() {
        let s = sched(1);
        let pa = s.register_process("victim");
        let pb = s.register_process("cotenant");
        let ta1 = s.create_task(pa, None).unwrap();
        s.submit(&ta1); // runs on the only core
        let ta2 = s.create_task(pa, None).unwrap();
        s.submit(&ta2); // waits (intake)
        let tb = s.create_task(pb, None).unwrap();
        s.submit(&tb); // waits behind it
        let ta2c = TaskRef::clone(&ta2);
        let h = std::thread::spawn(move || ta2c.wait_grant(None, |_| {}));
        let report = s.kill_process(pa);
        assert_eq!(report.running_preempted, 1, "ta1 evicted from its core");
        // The waiter must resume released, never granted.
        assert_eq!(h.join().unwrap(), Some(None));
        assert!(ta1.is_released());
        // The freed core went straight to the co-tenant's ready work.
        assert_eq!(tb.state(), TaskState::Running);
        assert_eq!(s.busy_cores(), 1);
        assert_eq!(s.live_tasks(), 1);
        assert_eq!(s.processes().len(), 1);
        assert_eq!(s.ready_count(), 0);
        let m = s.stats().counters();
        assert_eq!(m.processes_killed, 1);
        assert_eq!(m.tasks_reclaimed, 2);
        // A detach from the evicted task's worker (it finishes as a plain OS thread)
        // stays inert.
        s.detach(&ta1);
        assert_eq!(tb.state(), TaskState::Running);
    }

    #[test]
    fn kill_unknown_process_is_a_noop() {
        let s = sched(1);
        let p = s.register_process("p");
        let t = s.create_task(p, None).unwrap();
        s.submit(&t);
        let report = s.kill_process(999);
        assert_eq!(report, KillReport::default());
        assert_eq!(t.state(), TaskState::Running);
        assert_eq!(s.stats().counters().processes_killed, 0);
    }

    /// One single-threaded kill scenario, recorded: 16 victims (4 running, 4 blocked, 4
    /// queued in the policy, 4 in the intake) and 6 queued co-tenant tasks that take the
    /// freed cores. Returns the event sequence without timestamps.
    fn recorded_kill() -> Vec<TraceEvent> {
        let mut s = Scheduler::new(NosvConfig::with_cores(4));
        let rec = s.install_tracer();
        let victim = s.register_process("victim");
        let cotenant = s.register_process("cotenant");
        let v: Vec<TaskRef> = (0..16)
            .map(|_| s.create_task(victim, None).unwrap())
            .collect();
        for t in &v[0..4] {
            s.submit(t);
            assert!(s.block_prologue(t).is_some(), "blocks, freeing its core");
        }
        for t in &v[4..12] {
            s.submit(t);
        }
        for _ in 0..6 {
            s.submit(&s.create_task(cotenant, None).unwrap());
        }
        s.rescue_drain();
        for t in &v[12..16] {
            s.submit(t);
        }
        assert_eq!(v[0].state(), TaskState::Blocked);
        assert_eq!(v[4].state(), TaskState::Running);
        let report = s.kill_process(victim);
        assert_eq!(report.running_preempted, 4);
        rec.snapshot().into_iter().map(|e| e.event).collect()
    }

    #[test]
    fn kill_frees_victims_in_task_id_order() {
        let first = recorded_kill();
        for run in 1..20 {
            assert_eq!(
                recorded_kill(),
                first,
                "run {run}: the kill recorded another event sequence"
            );
        }
    }

    #[test]
    fn detached_queued_task_is_skipped() {
        let s = sched(1);
        let p = s.register_process("p");
        let t1 = s.create_task(p, None).unwrap();
        let t2 = s.create_task(p, None).unwrap();
        let t3 = s.create_task(p, None).unwrap();
        s.submit(&t1);
        s.submit(&t2);
        s.submit(&t3);
        // t2 is queued; detach it while queued. Freeing t1's core must skip t2's stale queue
        // entry and dispatch t3 directly.
        s.detach(&t2);
        s.detach(&t1);
        assert_eq!(t3.state(), TaskState::Running);
    }

    mod faulty {
        use super::*;
        use crate::faults::FaultSpec;

        fn faulted(cores: usize, plan: FaultPlan) -> (Arc<Scheduler>, Arc<FaultState>) {
            let s = Arc::new(Scheduler::new(NosvConfig::with_cores(cores)));
            let fs = s.install_faults(&plan);
            (s, fs)
        }

        #[test]
        fn drop_wakeup_loses_exactly_the_armed_submits() {
            let plan =
                FaultPlan::new(1).arm(FaultSpec::new(FaultSite::DropWakeup).one_in(1).max_fires(1));
            let (s, fs) = faulted(2, plan);
            let p = s.register_process("p");
            let t = s.create_task(p, None).unwrap();
            s.submit(&t); // dropped: no grant-slot bookkeeping at all
            assert_eq!(t.state(), TaskState::Created);
            assert_eq!(s.ready_count(), 0);
            assert_eq!(s.busy_cores(), 0);
            assert_eq!(fs.fires(FaultSite::DropWakeup), 1);
            assert_eq!(s.stats().counters().faults_injected, 1);
            // The level-triggered retry contract: re-submitting recovers the task.
            s.submit(&t);
            assert_eq!(t.state(), TaskState::Running);
        }

        #[test]
        fn duplicate_wakeup_is_absorbed_by_the_grant_slot() {
            let plan = FaultPlan::new(2).arm(
                FaultSpec::new(FaultSite::DuplicateWakeup)
                    .one_in(1)
                    .max_fires(1),
            );
            let (s, fs) = faulted(1, plan);
            let p = s.register_process("p");
            let t = s.create_task(p, None).unwrap();
            s.submit(&t); // granted; the duplicate delivery counts a pending wake-up
            assert_eq!(t.state(), TaskState::Running);
            assert_eq!(fs.fires(FaultSite::DuplicateWakeup), 1);
            let m = s.stats().counters();
            assert_eq!(
                m.pending_wakeups, 1,
                "second delivery absorbed as counted wake-up"
            );
            // The counted wake-up elides the next pause instead of corrupting anything.
            s.pause(&t);
            assert_eq!(t.state(), TaskState::Running);
            assert_eq!(s.stats().counters().pauses_elided, 1);
        }

        #[test]
        fn delayed_intake_drain_recovers_at_the_next_scheduling_point() {
            let plan = FaultPlan::new(3).arm(
                FaultSpec::new(FaultSite::DelayIntakeDrain)
                    .one_in(1)
                    .max_fires(1),
            );
            let (s, fs) = faulted(1, plan);
            let p = s.register_process("p");
            let t1 = s.create_task(p, None).unwrap();
            s.submit(&t1); // the drain this submit triggers is skipped: t1 stays in intake
            assert_eq!(fs.fires(FaultSite::DelayIntakeDrain), 1);
            assert_eq!(t1.state(), TaskState::Ready);
            assert_eq!(s.busy_cores(), 0);
            // The next scheduling point (another submit seeing the idle core) drains both.
            let t2 = s.create_task(p, None).unwrap();
            s.submit(&t2);
            assert_eq!(t1.state(), TaskState::Running, "delayed submit recovered");
            assert_eq!(t2.state(), TaskState::Ready);
            assert_eq!(s.ready_count(), 1);
        }

        #[test]
        fn rescue_drain_recovers_a_delayed_submit_with_no_other_scheduling_point() {
            // Arm an *unbounded* delay: every ordinary drain is skipped, so without the
            // rescue the submit below would be stranded forever (no other thread ever
            // reaches a scheduling point — the hang the watchdog's rescue arm exists for).
            let plan = FaultPlan::new(6).arm(FaultSpec::new(FaultSite::DelayIntakeDrain).one_in(1));
            let (s, fs) = faulted(1, plan);
            let p = s.register_process("p");
            let t = s.create_task(p, None).unwrap();
            s.submit(&t);
            assert_eq!(t.state(), TaskState::Ready, "drain skipped, task stranded");
            assert!(fs.fires(FaultSite::DelayIntakeDrain) >= 1);
            let recovered = s.rescue_drain();
            assert_eq!(recovered, 1);
            assert_eq!(
                t.state(),
                TaskState::Running,
                "rescue bypasses the delay fault"
            );
            // An empty intake makes the rescue a cheap no-op.
            assert_eq!(s.rescue_drain(), 0);
        }

        #[test]
        fn widened_shutdown_race_window_never_parks_a_waiter() {
            let plan = FaultPlan::new(4).arm(
                FaultSpec::new(FaultSite::ShutdownRace)
                    .one_in(1)
                    .max_fires(1)
                    .stall(Duration::from_millis(20)),
            );
            let (s, _fs) = faulted(1, plan);
            let p = s.register_process("p");
            let t1 = s.create_task(p, None).unwrap();
            s.submit(&t1); // keep the core busy so racing submits hit the intake
            let t2 = s.create_task(p, None).unwrap();
            let s2 = Arc::clone(&s);
            let t2c = TaskRef::clone(&t2);
            let h = std::thread::spawn(move || {
                // Land the submit inside the widened window with high probability.
                std::thread::sleep(Duration::from_millis(5));
                s2.submit(&t2c);
                t2c.wait_grant(None, |_| {}) // must terminate: granted or released, never parked
            });
            s.shutdown();
            let _ = h.join().unwrap();
            assert_eq!(s.ready_count(), 0);
        }

        #[test]
        fn injected_worker_stall_is_flagged_by_the_watchdog() {
            let plan = FaultPlan::new(5).arm(
                FaultSpec::new(FaultSite::WorkerStall)
                    .one_in(1)
                    .max_fires(1)
                    .stall(Duration::from_millis(80)),
            );
            let (s, fs) = faulted(1, plan);
            let p = s.register_process("p");
            let t = s.create_task(p, None).unwrap();
            s.submit(&t);
            let s2 = Arc::clone(&s);
            let tc = TaskRef::clone(&t);
            let h = std::thread::spawn(move || s2.pause(&tc)); // stalls, then blocks
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut flagged = Vec::new();
            while flagged.is_empty() && Instant::now() < deadline {
                flagged = s.watchdog_scan(Duration::from_millis(10));
                std::thread::sleep(Duration::from_millis(5));
            }
            assert_eq!(flagged.len(), 1, "stalled core must be flagged");
            assert_eq!(flagged[0].task, t.id());
            assert_eq!(fs.fires(FaultSite::WorkerStall), 1);
            // Wake the paused task back up so the stalled thread terminates.
            while t.state() != TaskState::Blocked {
                std::thread::yield_now();
            }
            s.submit(&t);
            h.join().unwrap();
        }

        #[test]
        fn unarmed_plan_changes_nothing() {
            let (s, fs) = faulted(2, FaultPlan::new(0));
            let p = s.register_process("p");
            let t = s.create_task(p, None).unwrap();
            s.submit(&t);
            assert_eq!(t.state(), TaskState::Running);
            assert_eq!(fs.total_fires(), 0);
            assert_eq!(s.stats().counters().faults_injected, 0);
        }
    }
}
