//! The centralized multi-process scheduler (the "shared memory segment" of nOS-V).
//!
//! One [`Scheduler`] instance owns the virtual core slots and the installed [`Policy`].
//! The scheduler section is **split along the NUMA shard boundary**: each node owns a
//! `Shard` — an independently locked `ShardState` (its core slots, grant/stall bookkeeping
//! and a full SCHED_COOP ready-queue core) plus that node's submit intake —
//! while the rarely-written registry — process table, task table, id counters, the
//! shutdown flag — lives in a `GlobalState` behind its own lock. Per-task grant slots
//! keep their own lock so a worker can wait for a core without holding any
//! scheduler-section lock; the slot is private to [`crate::task`], and this module moves
//! a task only through its `Task` transition methods. [`PolicyKind::Coop`] runs one
//! shard per NUMA node (one node ⇒ the single-lock scheduler); a global queue cannot be
//! sharded, so [`PolicyKind::Fifo`] and custom policies run one shard owning every core.
//! Which shard a ready task is queued in and the order in which a core consults the
//! shards are [`crate::readyq`] code ([`readyq::enqueue_shard`], [`ShardLadder`]) shared
//! with the sim replay.
//!
//! **The de-contended hot path.** The paper's central claim is that scheduling points are
//! cheap enough for a centralized scheduler to arbitrate oversubscription, so the
//! operations that fire on every wake-up must not serialize on a global lock:
//!
//! * `submit` to a busy system publishes the ready task to an **intake, one per shard**,
//!   with one push under the intake lock, and returns without taking any scheduler lock
//!   (submitters targeting different nodes never touch the same intake). The intake is
//!   drained in push order — under the shard lock — by whichever core reaches the next
//!   scheduling point (release/dispatch/yield), i.e. by threads that were taking that
//!   shard's lock anyway, and by workers about to park (the pre-park drain, so a wake-up
//!   never waits for the next organic scheduling point).
//!   Only when idle cores exist does `submit` take a shard lock itself to place the task
//!   immediately (an idle system is uncontended by definition).
//! * Same-node scheduling points — the submit-triggered drain, `place_ready_task`,
//!   `pick_live`, `release_core`, `dispatch_idle_cores` for a core of node N — take only
//!   node N's shard lock. Producers and consumers pinned to different nodes never share
//!   a scheduler-section cache line end-to-end: intake shard, dispatch lock and core
//!   slots are all per-node.
//! * Grant-slot condvar notifications are **never delivered under a scheduler-section
//!   lock**: grants and releases owe their notifications to a `WakeBatch` (the only
//!   notifier, in `task.rs`), fired only after every guard has dropped, so a woken worker
//!   never convoys on the lock its waker holds.
//! * `has_ready`, `ready_count` and `busy_cores` read relaxed-ish atomic gauges
//!   (`ready_tasks`, `idle_cores`), so `yield_now`'s "is switching useful" check never
//!   contends with submitters.
//! * Every shard-lock acquisition bumps that shard's `lock_acquisitions` counter and
//!   every global-section acquisition bumps `global_lock_acquisitions` (their sum is the
//!   snapshot's `lock_acquisitions`), which is how the tests verify that the submit fast
//!   path takes no scheduler lock (`tests::submit_fast_path_takes_no_scheduler_lock`) and
//!   that steady-state wake churn never touches the global section
//!   (`wake_churn.rs::steady_state_churn_takes_no_global_section`).
//!
//! # Lock hierarchy
//!
//! Three lock classes, in strict acquisition order, plus one leaf (see the matching table
//! in DESIGN.md):
//!
//! 1. **Global-section lock** (`GlobalState`): process/task tables, id counters, the
//!    shutdown flag. May be held while taking shard locks (rare multi-shard ops below);
//!    never acquired while holding a shard or grant lock.
//! 2. **Shard locks** (`ShardState`, one per node): at most one is *block*-acquired at a
//!    time; additional shards are reached only via `try_lock` (cross-shard stealing and
//!    the rate-limited aging valve), which cannot deadlock regardless of order.
//! 3. **Grant locks** (per task, owned by `task.rs`): taken only inside a `Task` method,
//!    under a shard lock (grant delivery, the yield hand-over) or none; a grant lock is
//!    never held while acquiring any scheduler-section lock. The public entry points
//!    (`submit`, `pause`, …) run their grant-slot transition first and only then take
//!    scheduler locks.
//!
//! **Intake locks** (one per shard) are leaves: held for one push or one take, never while
//! acquiring another lock. They are not scheduler-section locks and bump no
//! `lock_acquisitions`; a drain takes one under its shard lock (or, at shutdown, under
//! the global lock).
//!
//! **Binding-record locks** (one per OS thread, `binding.rs`) serialise that thread's CPU
//! affinity calls. They are taken only by a firing `WakeBatch` or a returning grant wait,
//! with no scheduler-section lock held, and only a grant lock is taken under one.
//!
//! The enumerated multi-shard operations — `register_process`/`deregister_process`,
//!    `kill_process`, `set_process_domain`, `shutdown`, `watchdog_scan`, `rescue_drain`
//!    and the cross-shard dispatch sweep — visit shards strictly one at a time in
//!    ascending node order, and never hold two block-acquired shard locks or fire a
//!    `WakeBatch` while any scheduler-section lock is held.

use crate::binding::{self, Worker};
use crate::config::{NosvConfig, PolicyKind};
use crate::error::{NosvError, Result};
use crate::faults::{FaultPlan, FaultSite, FaultState};
use crate::obs::{inc, StatsRegistry, StatsSample, StatsSnapshot};
use crate::policy::{Policy, TaskMeta};
use crate::process::{ProcessId, ProcessInfo};
use crate::readyq::{self, LadderStep, PickTier, ShardLadder};
use crate::sched_trace::{TraceEvent, TraceMeta, TraceRecorder};
use crate::task::{Release, Task, TaskId, TaskRef, WaitOutcome, WakeBatch};
use crate::topology::{CoreId, Topology};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Append a trace event when a recorder is installed.
///
/// The timestamp and event expressions are evaluated only inside the branch, so with no
/// recorder a hook costs one load and one predictable branch: no `Instant::now()`, no
/// `TraceEvent` and no atomic.
macro_rules! trace_event {
    ($sched:expr, $at:expr, $ev:expr) => {{
        if let Some(rec) = $sched.tracer.as_ref() {
            rec.record_at($at, $ev);
        }
    }};
}

/// State of one virtual core slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CoreSlot {
    /// Nothing granted on this core.
    Idle,
    /// The given task currently holds this core.
    Busy(TaskId),
}

/// A shard's submit intake: a submit to a busy system pushes its ready task here, under
/// the intake lock and no scheduler lock; the next scheduling point of the shard takes
/// the whole list in push order.
///
/// The intake lock is a leaf of the lock hierarchy (see the module documentation). Every
/// shard has its own, so submitters targeting different nodes never contend on it. Push
/// order is lock order, which is a valid submission order: each producer's submits keep
/// their program order.
struct Intake {
    /// Published tasks, each with the instant of its submit — the start of the
    /// submit→drain stage histogram (`obs::StageStats::intake_wait`).
    entries: Mutex<Vec<(TaskRef, Instant)>>,
    /// `entries.len()`, stored under the intake lock and read lock-free by the pre-park
    /// check and the stats sampler.
    len: AtomicUsize,
}

impl Intake {
    fn new() -> Self {
        Intake {
            entries: Mutex::new(Vec::new()),
            len: AtomicUsize::new(0),
        }
    }

    /// Publish a ready task: one push under the intake lock.
    fn push(&self, task: TaskRef, pushed_at: Instant) {
        let mut entries = self.entries.lock();
        entries.push((task, pushed_at));
        self.len.store(entries.len(), Ordering::Relaxed);
    }

    /// Take every published task in push order, each with its publish instant.
    fn drain(&self) -> Vec<(TaskRef, Instant)> {
        let mut entries = self.entries.lock();
        self.len.store(0, Ordering::Relaxed);
        std::mem::take(&mut *entries)
    }

    /// Current depth (the intake gauge).
    fn depth(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }
}

/// The rarely-written registry section of the scheduler, behind its own lock (level 1 of
/// the lock hierarchy — see the module documentation): process and task tables, id
/// counters and the shutdown flag. Steady-state wake churn never touches it; every
/// acquisition bumps `global_lock_acquisitions`, which is how
/// `wake_churn.rs::steady_state_churn_takes_no_global_section` proves that.
pub(crate) struct GlobalState {
    tasks: HashMap<TaskId, TaskRef>,
    processes: HashMap<ProcessId, ProcessInfo>,
    next_task_id: TaskId,
    next_process_id: ProcessId,
    shutdown: bool,
}

/// Per-NUMA-node dispatch state, independently locked (level 2 of the lock hierarchy):
/// the node's core slots and watchdog bookkeeping, a full SCHED_COOP ready-queue core,
/// and the shard's pick ladder. The single-lock scheduler is the one-shard case of this
/// structure.
pub(crate) struct ShardState {
    /// This shard's index (== NUMA node id when there is more than one shard).
    si: usize,
    /// The global ids of the cores this shard owns, ascending (parallel to `slots`).
    cores: Vec<CoreId>,
    /// Core slots, indexed by *local* core index (see `Scheduler::core_shard`).
    slots: Vec<CoreSlot>,
    /// The shard's ready queues; a full policy instance so per-process quanta and the
    /// pick tiers work unchanged within a shard.
    policy: Box<dyn Policy>,
    /// Tasks currently queued in this shard's policy, so the pick path can resolve a
    /// popped [`TaskMeta`] to its [`TaskRef`] (and detect stale entries of released
    /// tasks) without the global task table.
    queued: HashMap<TaskId, TaskRef>,
    /// The order in which this shard's cores consult the shards, and the rate limiter on
    /// its foreign aging probes (one per quantum, so the anti-starvation valve never
    /// becomes a steady cross-node traffic source).
    ladder: ShardLadder<Instant>,
    /// When each busy core was last granted (the grant-to-run watchdog's reference
    /// point), by local core index.
    granted_at: Vec<Option<Instant>>,
    /// Whether the current grant on each core has already been flagged by a watchdog scan
    /// (each non-progressing grant is reported once, not on every scan).
    stall_flagged: Vec<bool>,
}

/// One node's slice of the scheduler: the locked dispatch state plus what other threads
/// reach without that lock. Aligned so that two nodes' shards never share a cache line.
#[repr(align(128))]
struct Shard {
    state: Mutex<ShardState>,
    /// Submit intake, drained under `state`'s lock.
    intake: Intake,
    /// Policy-ready entry count, maintained under `state`'s lock and read lock-free by
    /// foreign shards deciding whether a steal/aging probe (or the cross-shard dispatch
    /// sweep) is worth a `try_lock` at all.
    ready: AtomicUsize,
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
    topo: Topology,
    config: NosvConfig,
    /// The rarely-written registry section (level 1 of the lock hierarchy).
    global: Mutex<GlobalState>,
    /// Dispatch shards (level 2): one per NUMA node under [`PolicyKind::Coop`], one
    /// otherwise.
    shards: Box<[Shard]>,
    /// Global core id → (shard index, local core index), fixed at construction.
    core_shard: Vec<(usize, usize)>,
    /// Global core id → the CPU its worker is bound to, or `None` when the instance does
    /// not have exactly one core per CPU and no worker is bound (see [`crate::binding`]).
    core_cpus: Option<Box<[usize]>>,
    /// [`Policy::name`] of the installed policy, read once at construction.
    policy_name: String,
    /// Always-on observability plane: event counters, stage-boundary latency histograms,
    /// per-shard stats and the snapshot time base (see [`crate::obs`]). Recording never
    /// takes the scheduler lock.
    stats: StatsRegistry,
    /// Number of idle core slots; maintained under the lock, read lock-free by `submit`
    /// to decide whether immediate placement is worth taking the lock for.
    idle_cores: AtomicUsize,
    /// Ready-task gauge: intake entries plus policy-queued entries. Signed because stale
    /// entries of detached tasks are only reconciled when they are popped, and shutdown
    /// zeroes it; readers clamp at zero.
    ready_tasks: AtomicI64,
    /// Lock-free mirror of `GlobalState::shutdown`, set before the shutdown drain so a
    /// submit racing shutdown can detect it after publishing and self-heal (see
    /// [`Scheduler::submit`]).
    shutting_down: AtomicBool,
    /// Installed schedule-trace recorder, if any (see [`crate::sched_trace`]).
    tracer: Option<Arc<TraceRecorder>>,
    /// Installed fault plan, if any (see [`crate::faults`]). A `OnceLock` rather than a
    /// plain `Option` so harnesses holding only the shared `Arc<Scheduler>` (the real
    /// executors, the chaos bench) can still install a plan; the hot-path consult is a
    /// single acquire load.
    faults: OnceLock<Arc<FaultState>>,
}

/// The tasks in id order: the order in which a multi-task teardown visits victims, so the
/// cores it frees (and every pick after them) do not depend on hash-table order.
fn by_id<'a>(tasks: impl Iterator<Item = &'a TaskRef>) -> Vec<TaskRef> {
    let mut v: Vec<TaskRef> = tasks.cloned().collect();
    v.sort_by_key(|t| t.id());
    v
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("cores", &self.topo.num_cores())
            .field("policy", &self.config.policy)
            .finish()
    }
}

impl Scheduler {
    /// Create a scheduler with the given configuration.
    pub fn new(config: NosvConfig) -> Self {
        let topo = config.topology.clone();
        let cores = topo.num_cores();
        // SCHED_COOP's queues are per core and per node already, so it shards along the
        // node boundary; a policy with one global queue cannot.
        let nshards = match config.policy {
            PolicyKind::Coop => topo.num_numa_nodes().max(1),
            PolicyKind::Fifo | PolicyKind::Custom(_) => 1,
        };
        let mut core_shard = vec![(0usize, 0usize); cores];
        let shards: Box<[Shard]> = (0..nshards)
            .map(|si| {
                let owned: Vec<CoreId> = topo
                    .cores()
                    .filter(|&c| readyq::shard_of_core(&topo, nshards, c) == si)
                    .collect();
                for (li, &c) in owned.iter().enumerate() {
                    core_shard[c] = (si, li);
                }
                let n = owned.len();
                Shard {
                    state: Mutex::new(ShardState {
                        si,
                        cores: owned,
                        slots: vec![CoreSlot::Idle; n],
                        policy: config.policy.build(&config),
                        queued: HashMap::new(),
                        ladder: ShardLadder::new(si, nshards, config.process_quantum),
                        granted_at: vec![None; n],
                        stall_flagged: vec![false; n],
                    }),
                    intake: Intake::new(),
                    ready: AtomicUsize::new(0),
                }
            })
            .collect();
        let policy_name = shards[0].state.lock().policy.name().to_string();
        Scheduler {
            topo,
            global: Mutex::new(GlobalState {
                tasks: HashMap::new(),
                processes: HashMap::new(),
                next_task_id: 1,
                next_process_id: 1,
                shutdown: false,
            }),
            shards,
            core_shard,
            core_cpus: binding::core_cpus(cores),
            policy_name,
            stats: StatsRegistry::new(cores, nshards),
            config,
            idle_cores: AtomicUsize::new(cores),
            ready_tasks: AtomicI64::new(0),
            shutting_down: AtomicBool::new(false),
            tracer: None,
            faults: OnceLock::new(),
        }
    }

    /// Install a fresh [`TraceRecorder`] and return a handle to it: every subsequent
    /// scheduling decision is appended to the recorder. Must be called before the
    /// scheduler is shared (it takes `&mut self`), which also means recording always
    /// covers the scheduler's whole life.
    pub fn install_tracer(&mut self) -> Arc<TraceRecorder> {
        let rec = Arc::new(TraceRecorder::new(TraceMeta::from_config(&self.config)));
        self.tracer = Some(Arc::clone(&rec));
        rec
    }

    /// Instantiate and install a [`FaultPlan`], returning the shared [`FaultState`] the
    /// harness asserts against (fire counts, records). Install-once: the first plan wins
    /// for the scheduler's whole life (the returned state is the installed one either
    /// way), so concurrent installers cannot split the fault log.
    pub fn install_faults(&self, plan: &FaultPlan) -> Arc<FaultState> {
        let st = Arc::new(FaultState::new(plan));
        Arc::clone(self.faults.get_or_init(|| st))
    }

    /// Consult the installed fault plan at a site: `true` when the fault fires on this
    /// visit. A firing is counted (`faults_injected`) and traced (`FaultInjected`) here,
    /// before the caller acts on it. With no plan installed this is one load and one
    /// branch.
    #[inline]
    fn fault_fires(&self, site: FaultSite, task: Option<TaskId>) -> bool {
        let Some(f) = self.faults.get() else {
            return false;
        };
        let fired = f.consult(site, task);
        if fired {
            self.note_fault(site, task);
        }
        fired
    }

    /// Like [`Scheduler::fault_fires`], but yields the stall duration when the (delaying)
    /// site fires.
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

    /// Acquire the global-section lock (registry tables), bumping the counter that lets
    /// tests prove which paths stay off it (steady-state churn must leave it flat).
    fn lock_global(&self) -> parking_lot::MutexGuard<'_, GlobalState> {
        inc(&self.stats.counters.global_lock_acquisitions);
        self.global.lock()
    }

    /// Block-acquire shard `si`'s dispatch lock. At most one shard lock is ever
    /// block-acquired at a time (the hierarchy's level-2 rule); additional shards are
    /// reached only through [`Scheduler::try_lock_shard`].
    fn lock_shard(&self, si: usize) -> parking_lot::MutexGuard<'_, ShardState> {
        inc(&self.stats.shards[si].lock_acquisitions);
        self.shards[si].state.lock()
    }

    /// Opportunistically acquire a *second* shard's lock (cross-shard stealing and the
    /// aging valve). Never blocks, so no ordering discipline between shard locks is
    /// needed to stay deadlock-free — a busy victim is simply skipped.
    fn try_lock_shard(&self, si: usize) -> Option<parking_lot::MutexGuard<'_, ShardState>> {
        let g = self.shards[si].state.try_lock()?;
        inc(&self.stats.shards[si].lock_acquisitions);
        Some(g)
    }

    /// The shard owning `core`.
    fn shard_of(&self, core: CoreId) -> usize {
        self.core_shard[core].0
    }

    /// The shard a submit of `task` is published to, drained by and queued in.
    fn home_shard(&self, task: &TaskRef) -> usize {
        readyq::enqueue_shard(&self.topo, self.shards.len(), None, task.preferred_core())
    }

    /// Whether any *other* shard has policy-queued work (lock-free probe guard).
    fn others_ready(&self, si: usize) -> bool {
        self.shards
            .iter()
            .enumerate()
            .any(|(i, s)| i != si && s.ready.load(Ordering::Relaxed) > 0)
    }

    /// Total entries across the per-shard intakes (the intake-depth gauge).
    fn intake_depth(&self) -> usize {
        self.shards.iter().map(|s| s.intake.depth()).sum()
    }

    /// The topology this scheduler manages.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The configuration the scheduler was built with.
    pub fn config(&self) -> &NosvConfig {
        &self.config
    }

    /// The always-on stats registry: event counters (lock-free via
    /// [`StatsRegistry::counters`]), stage-boundary histograms, per-shard lock counters
    /// and the snapshot time base.
    pub fn stats(&self) -> &StatsRegistry {
        &self.stats
    }

    /// One unified observation of the scheduler: cumulative counters, stage-boundary
    /// latency histograms (scheduler-wide) and per-shard lock and rotation counts. Takes
    /// each shard lock briefly (one at a time) to read its policy's quantum rotations;
    /// everything else is lock-free — an observation tool, not a hot-path call (the lock
    /// acquisitions show up in `lock_acquisitions` like any others).
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let rotations: Vec<u64> = (0..self.shards.len())
            .map(|si| self.lock_shard(si).policy.rotations())
            .collect();
        let (counters, shards) = self.stats.counters_and_shards(&rotations);
        StatsSnapshot {
            at: self.stats.elapsed(),
            counters,
            stages: self.stats.stages.snapshot(),
            shards,
        }
    }

    /// One lock-free time-series point (the sampler's per-tick read): atomic gauges and
    /// two cumulative counters only, so sampling never perturbs the schedule.
    pub fn sample(&self) -> StatsSample {
        StatsSample {
            at: self.stats.elapsed(),
            ready_tasks: self.ready_count(),
            intake_depth: self.intake_depth(),
            busy_cores: self.busy_cores(),
            submits: self.stats.counters.submits.load(Ordering::Relaxed),
            grants: self.stats.counters.grants.load(Ordering::Relaxed),
        }
    }

    /// Start a background sampler appending one [`StatsSample`] every `period`. Off by
    /// default — nothing samples unless a harness asks; stop (and collect) with
    /// [`crate::obs::StatsSampler::stop`].
    pub fn start_sampler(
        self: &std::sync::Arc<Self>,
        period: Duration,
    ) -> crate::obs::StatsSampler {
        let sched = std::sync::Arc::clone(self);
        crate::obs::StatsSampler::start(period, move || sched.sample())
    }

    /// Name of the installed policy. Takes no lock.
    pub fn policy_name(&self) -> &str {
        &self.policy_name
    }

    /// Number of process-quantum rotations performed by the policy (summed over shards).
    pub fn policy_rotations(&self) -> u64 {
        (0..self.shards.len())
            .map(|si| self.lock_shard(si).policy.rotations())
            .sum()
    }

    /// Number of tasks currently ready (queued, not running). Lock-free: reads the atomic
    /// gauge, which may transiently include entries of tasks detached while queued.
    pub fn ready_count(&self) -> usize {
        self.ready_tasks.load(Ordering::SeqCst).max(0) as usize
    }

    /// Whether any task is ready. Lock-free (see [`Scheduler::ready_count`]); this is what
    /// makes yield-storm "is switching useful" checks free of contention.
    pub fn has_ready(&self) -> bool {
        self.ready_tasks.load(Ordering::SeqCst) > 0
    }

    /// Number of cores currently running a task. Lock-free.
    pub fn busy_cores(&self) -> usize {
        self.topo
            .num_cores()
            .saturating_sub(self.idle_cores.load(Ordering::SeqCst))
    }

    /// Number of live (registered, unfinished) tasks.
    pub fn live_tasks(&self) -> usize {
        self.lock_global().tasks.len()
    }

    // -------------------------------------------------------------------------------------
    // Processes
    // -------------------------------------------------------------------------------------

    /// Register a process domain and return its identifier. A multi-shard operation:
    /// global registry first, then every shard's policy, one lock at a time in ascending
    /// order (rare by design — registration is not a scheduling point).
    pub fn register_process(&self, name: impl Into<String>) -> ProcessId {
        let id = {
            let mut g = self.lock_global();
            let id = g.next_process_id;
            g.next_process_id += 1;
            g.processes.insert(id, ProcessInfo::new(id, name));
            id
        };
        for si in 0..self.shards.len() {
            self.lock_shard(si).policy.register_process(id);
        }
        trace_event!(
            self,
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
        let stranded: Vec<TaskRef> = {
            let mut g = self.lock_global();
            if let Some(p) = g.processes.remove(&process) {
                // Marking the shared cell dead is what lets the shard-local intake drains
                // reject the process's tasks from now on without the global lock.
                p.cell.mark_dead();
            }
            by_id(g.tasks.values().filter(|t| t.process() == process))
        };
        trace_event!(
            self,
            Instant::now(),
            TraceEvent::DeregisterProcess { process }
        );
        self.purge_from_shards(process);
        // Every scheduler-section lock is dropped; the batch notifies the released
        // waiters once their grant guards are dropped too (collect-then-notify).
        let mut wakes = WakeBatch::new();
        for t in stranded {
            t.release(Release::Waiting, &mut wakes);
        }
    }

    /// Purge a dead process (its shared cell already marked) from every shard, one lock
    /// at a time, returning how many queued entries were dropped. Each shard's intake
    /// drain runs first: a task of this process still sitting in the intake would
    /// otherwise be enqueued at a later drain — the dead process cell makes the drain
    /// release it instead. The policy then drops any entries still queued for the
    /// process; the lock-free ready gauges must shed them too or has_ready() would stay
    /// stuck true and permanently defeat the yield fast path.
    fn purge_from_shards(&self, process: ProcessId) -> usize {
        let mut purged = 0;
        for si in 0..self.shards.len() {
            let mut wakes = WakeBatch::new();
            let mut st = self.lock_shard(si);
            self.drain_intake(&mut st, &mut wakes);
            let before = st.policy.ready_count();
            st.policy.deregister_process(process);
            let dropped = before.saturating_sub(st.policy.ready_count());
            if dropped > 0 {
                self.ready_tasks.fetch_sub(dropped as i64, Ordering::SeqCst);
                self.shards[si].ready.fetch_sub(dropped, Ordering::Relaxed);
            }
            st.queued.retain(|_, t| t.process() != process);
            purged += dropped;
            drop(st);
            wakes.fire();
        }
        purged
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
        // reject the process's tasks from here on) and pull every victim out of the task
        // table.
        let victims: Vec<TaskRef> = {
            let mut g = self.lock_global();
            let Some(p) = g.processes.remove(&process) else {
                return report;
            };
            p.cell.mark_dead();
            inc(&self.stats.counters.processes_killed);
            let victims = by_id(g.tasks.values().filter(|t| t.process() == process));
            for t in &victims {
                g.tasks.remove(&t.id());
                inc(&self.stats.counters.tasks_reclaimed);
            }
            victims
        };
        trace_event!(
            self,
            Instant::now(),
            TraceEvent::DeregisterProcess { process }
        );
        // Phase 2 (per shard, one lock at a time): flush the intake (victims sitting
        // there are released by the drain — their process cell is dead) and purge the
        // policy queues, shedding the ready gauges.
        report.queued_reclaimed = self.purge_from_shards(process);
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
        self.free_cores(freed);
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
                .filter(|&c| c < self.topo.num_cores())
                .collect();
            (!kept.is_empty()).then_some(kept)
        });
        {
            let mut g = self.lock_global();
            // Unknown (never-registered or already-deregistered) processes are ignored
            // entirely: forwarding to the policy would re-register the pid into the
            // quantum rotation as a ghost the grant path knows nothing about.
            let Some(p) = g.processes.get_mut(&process) else {
                return;
            };
            p.domain = filtered.clone();
            // Publish to the shared cell so shard-local immediate grants see the new
            // domain without the global lock.
            p.cell.set_domain(filtered.clone());
            trace_event!(
                self,
                Instant::now(),
                TraceEvent::SetDomain {
                    process,
                    cores: filtered.clone(),
                }
            );
        }
        for si in 0..self.shards.len() {
            self.lock_shard(si)
                .policy
                .set_process_domain(process, filtered.clone());
        }
    }

    /// Names and ids of the registered process domains.
    pub fn processes(&self) -> Vec<(ProcessId, String)> {
        let g = self.lock_global();
        let mut v: Vec<_> = g
            .processes
            .values()
            .map(|p| (p.id, p.name.clone()))
            .collect();
        v.sort_by_key(|(id, _)| *id);
        v
    }

    // -------------------------------------------------------------------------------------
    // Task lifecycle
    // -------------------------------------------------------------------------------------

    /// Create (but do not submit) a task belonging to `process`. The task carries its
    /// process's shared liveness/domain cell, which is what lets every shard-local path
    /// consult process state without the global lock.
    pub fn create_task(&self, process: ProcessId, label: Option<String>) -> Result<TaskRef> {
        let mut g = self.lock_global();
        if g.shutdown {
            return Err(NosvError::ShutDown);
        }
        let Some(p) = g.processes.get_mut(&process) else {
            return Err(NosvError::UnknownProcess(process));
        };
        p.tasks_created += 1;
        p.tasks_live += 1;
        let cell = std::sync::Arc::clone(&p.cell);
        let id = g.next_task_id;
        g.next_task_id += 1;
        let task = Task::new(id, process, cell, label);
        g.tasks.insert(id, TaskRef::clone(&task));
        Ok(task)
    }

    /// The grant→first-run observation hook passed to the grant-slot waits: records into
    /// the scheduler-wide `dispatch` stage histogram.
    fn record_dispatch(&self) -> impl Fn(Duration) + '_ {
        |waited| self.stats.stages.dispatch.record(waited)
    }

    /// Attach: submit the task and block the calling OS thread until the scheduler grants it
    /// a core. This is the `nosv_attach` pattern (§4.3.1): the thread is recruited as a
    /// worker and can no longer run freely.
    pub fn attach(&self, task: &TaskRef) {
        inc(&self.stats.counters.attaches);
        if self.core_cpus.is_some() {
            task.set_worker(Worker::this_thread());
        }
        self.submit(task);
        self.prepark_drain();
        let _ = task.wait_grant(None, self.record_dispatch());
    }

    /// Make a task ready. If an idle core exists it is granted immediately (honouring
    /// affinity); otherwise — the oversubscribed fast path — the task is published to its
    /// shard's intake with one push under the intake lock, and the call returns without
    /// taking any scheduler lock. Safe to call from any thread.
    pub fn submit(&self, task: &TaskRef) {
        inc(&self.stats.counters.submits);
        // Fault site: drop the wake-up before any grant-slot bookkeeping, so the loss is
        // "clean" — the scheduler has no trace of the submit, exactly like a lost signal.
        if self.fault_fires(FaultSite::DropWakeup, Some(task.id())) {
            return;
        }
        // Fault site: deliver the wake-up twice; the second delivery must be absorbed by
        // the level-triggered grant slot (pending-wakeup counter / redundant-submit path).
        let duplicate = self.fault_fires(FaultSite::DuplicateWakeup, Some(task.id()));
        self.submit_inner(task);
        if duplicate {
            self.submit_inner(task);
        }
    }

    /// The submit body proper (after the fault sites, so an injected duplicate delivery
    /// does not re-consult the plan and cascade).
    fn submit_inner(&self, task: &TaskRef) {
        let Some(now) = task.mark_ready(&self.stats.counters.pending_wakeups) else {
            return;
        };
        trace_event!(
            self,
            now,
            TraceEvent::Submit {
                process: task.process(),
                task: task.id(),
            }
        );
        self.ready_tasks.fetch_add(1, Ordering::SeqCst);
        let home = self.home_shard(task);
        self.shards[home].intake.push(TaskRef::clone(task), now);
        // The intake lock pairs our push with the drain of a core going idle, which
        // `mark_idle` counts before it drains. If that drain's critical section follows
        // our push's, the drain takes our entry. Otherwise the drain's unlock
        // happens-before our lock, so its `idle_cores` increment happens-before the load
        // below: we see the idle core and place the task ourselves.
        if self.idle_cores.load(Ordering::SeqCst) > 0 {
            // Place the task ourselves (if stale entries make the drain enqueue instead
            // of granting, the scheduling point fills the idle cores from the policy).
            self.scheduling_point(home, false);
            // The idle core may live in a foreign shard (whose lock we never block on
            // from here): the guarded sweep visits the other shards one at a time.
            self.dispatch_sweep();
        } else if self.shutting_down.load(Ordering::SeqCst) {
            // We published after shutdown's drain: self-heal so the gauge does not stay
            // stuck positive and the entry does not pin the task until Scheduler drop (the
            // drain drops the entry; nothing is dispatched once the flag is set). The
            // waiter itself is safe either way — the task was registered before the
            // shutdown flag was set, so the release loop covers it.
            self.scheduling_point(home, false);
        }
    }

    /// Fault site: a worker stalls at a scheduling point (pause / yield), sleeping while
    /// it still holds its core — the non-progress signature the grant-to-run watchdog
    /// ([`Scheduler::watchdog_scan`]) exists to detect. No lock is held while sleeping.
    fn stall_point(&self, task: &TaskRef) {
        if let Some(stall) = self.fault_stall(FaultSite::WorkerStall, Some(task.id())) {
            std::thread::sleep(stall);
        }
    }

    /// The prologue shared by the blocking scheduling points (`pause`, `waitfor`): settle
    /// the grant slot, give up the held core and run the pre-park drain. Returns the
    /// instant the task went off-core, or `None` when the call must return at once —
    /// the task was released, or a counted wake-up elides the block.
    fn block_prologue(&self, task: &TaskRef) -> Option<Instant> {
        let held = task.block(&self.stats.counters.pauses_elided)?;
        let off_core = Instant::now();
        self.free_cores(held);
        self.prepark_drain();
        Some(off_core)
    }

    /// Block the calling task: release its core (handing it to the next ready task) and wait
    /// until a later [`Scheduler::submit`] reschedules it. This is `nosv_pause`.
    pub fn pause(&self, task: &TaskRef) {
        self.stall_point(task);
        let Some(off_core) = self.block_prologue(task) else {
            return;
        };
        inc(&self.stats.counters.pauses);
        let _ = task.wait_grant(None, self.record_dispatch());
        self.stats.stages.pause_block.record(off_core.elapsed());
    }

    /// Timed block: like [`Scheduler::pause`], but if no submit arrives within `timeout` the
    /// task re-submits itself and waits to be rescheduled. This is `nosv_waitfor` and is the
    /// building block for sleeps and the poll/epoll integration (§4.3.4).
    pub fn waitfor(&self, task: &TaskRef, timeout: Duration) -> WaitOutcome {
        inc(&self.stats.counters.waitfors);
        let Some(off_core) = self.block_prologue(task) else {
            return WaitOutcome::Woken;
        };
        let deadline = off_core + timeout;
        let outcome = match task.wait_grant(Some(deadline), self.record_dispatch()) {
            Some(_) => WaitOutcome::Woken,
            None => {
                // Timed out without being woken: resubmit ourselves and wait for a core.
                inc(&self.stats.counters.waitfor_timeouts);
                self.submit(task);
                let _ = task.wait_grant(None, self.record_dispatch());
                WaitOutcome::TimedOut
            }
        };
        self.stats.stages.pause_block.record(off_core.elapsed());
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
            inc(&self.stats.counters.yields_noop);
            return false;
        }
        let Some(core) = task.held_core() else {
            return false;
        };
        // The requeue below lands in the yielding core's own shard, the one locked here.
        let si = readyq::enqueue_shard(&self.topo, self.shards.len(), Some(core), None);
        let mut wakes = WakeBatch::new();
        let mut st = self.lock_shard(si);
        self.drain_intake(&mut st, &mut wakes);
        // Pick the successor *before* requeueing ourselves: with per-core FIFO affinity the
        // yielding task would otherwise be at the head of its own core's queue and the yield
        // would hand the core straight back to it, starving everyone else.
        let now = Instant::now();
        let Some(next_task) = self.pick_live(&mut st, core, now) else {
            // The gauge raced or every queued entry was stale; nothing to switch to.
            drop(st);
            inc(&self.stats.counters.yields_noop);
            return false;
        };
        // Hand the core over, re-validated under the grant lock: a kill or shutdown since
        // the check above took the core already (kill re-dispatches it), and handing it
        // over too would run two tasks on it. Then the successor was popped for nothing:
        // restore its gauge entry and place it as the drain would.
        if !task.yield_core(core, now) {
            self.ready_tasks.fetch_add(1, Ordering::SeqCst);
            self.place_ready_task(&mut st, &next_task, &mut wakes);
            return false;
        }
        trace_event!(
            self,
            now,
            TraceEvent::Yield {
                task: task.id(),
                core,
            }
        );
        // A voluntary yield surrenders the affinity claim: requeueing with the last-ran
        // core as preference would put the yielder in that core's queue, where
        // affinity-first picking hands the core straight back to it (or a fellow
        // yielder) ahead of older ready tasks — a yield storm between busy-wait barrier
        // spinners would then starve every task that has never been granted a core.
        self.enqueue(&mut st, task, None, now);
        self.ready_tasks.fetch_add(1, Ordering::SeqCst);
        self.grant(&mut st, &next_task, core, false, &mut wakes);
        drop(st);
        // About to park waiting for our own next grant: hand the successor its wakeup
        // first (the Drop safety net would only fire after the wait returns).
        wakes.fire();
        inc(&self.stats.counters.yields);
        let off_core = Instant::now();
        let _ = task.wait_grant(None, self.record_dispatch());
        self.stats.stages.yield_block.record(off_core.elapsed());
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
        inc(&self.stats.counters.detaches);
        let mut wakes = WakeBatch::new();
        self.free_cores(task.release(how, &mut wakes));
        // Registry removal is the task-table write: the one global-section touch of the
        // task lifecycle (not a scheduling point — the wake-churn hot path never gets
        // here).
        {
            let mut g = self.lock_global();
            let process = task.process();
            g.tasks.remove(&task.id());
            if let Some(p) = g.processes.get_mut(&process) {
                p.tasks_live = p.tasks_live.saturating_sub(1);
            }
        }
    }

    /// Shut the scheduler down: every task waiting for a core is released from scheduler
    /// control and resumes as a plain OS thread. This is a safety valve used by the USF
    /// layer at instance teardown so that buggy applications can never leave threads parked
    /// forever.
    ///
    /// The intakes are drained under the same lock acquisition that sets the shutdown
    /// flag, so a submit racing shutdown can never leave a waiter parked: either its push
    /// lands before the drain (released below alongside the registered tasks), or its
    /// grant-slot update ran before the task's release (the task is in `tasks` — it was
    /// created before the flag was set — so it is released below and `wait_grant` returns
    /// immediately).
    pub fn shutdown(&self) {
        let (tasks, queued) = {
            let mut g = self.lock_global();
            g.shutdown = true;
            trace_event!(self, Instant::now(), TraceEvent::Shutdown);
            // Published before the drain: a submit that pushes after this drain will
            // observe the flag and self-heal (see `submit`), and every shard's dispatch
            // path refuses new grants from here on.
            self.shutting_down.store(true, Ordering::SeqCst);
            // Fault site: widen the flag-set → drain window so racing submits actually
            // land inside it (the self-heal path above is what must absorb them).
            if let Some(stall) = self.fault_stall(FaultSite::ShutdownRace, None) {
                drop(g);
                std::thread::sleep(stall);
                g = self.lock_global();
            }
            let tasks = by_id(g.tasks.values());
            // Intake-lock drains without the shard locks: a shard-lock drain racing us
            // takes disjoint entries, and either drainer releases its share (the flag is
            // already set).
            let queued: Vec<_> = self.shards.iter().flat_map(|s| s.intake.drain()).collect();
            (tasks, queued)
        };
        self.ready_tasks.store(0, Ordering::SeqCst);
        for s in self.shards.iter() {
            s.ready.store(0, Ordering::Relaxed);
        }
        // The global lock dropped above: the batch wakes the released waiters into
        // uncontended locks (collect-then-notify).
        let mut wakes = WakeBatch::new();
        for t in tasks.iter().chain(queued.iter().map(|(t, _)| t)) {
            t.release(Release::All, &mut wakes);
        }
    }

    /// Whether the scheduler has been shut down.
    pub fn is_shutdown(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Grant-to-run watchdog: report every core whose current grant has been held for at
    /// least `max_hold` without reaching a scheduling point. Each non-progressing grant
    /// is flagged once (repeat scans stay quiet until the core is re-granted), and
    /// flagging bumps [`crate::obs::Counters::stalls_detected`].
    ///
    /// Detection is deliberately report-only: a task that holds a core past the deadline
    /// is *running* on its bound worker thread (the USF binding of §4.2), so "requeueing"
    /// it would schedule a second incarnation of work that is still executing. The caller
    /// decides the response — log it, kill the owning process
    /// ([`Scheduler::kill_process`]), or widen the deadline.
    pub fn watchdog_scan(&self, max_hold: Duration) -> Vec<StallReport> {
        let now = Instant::now();
        // Multi-shard exception: visit every shard, one lock at a time in ascending
        // order (shard-major iteration equals core order — nodes own contiguous core
        // ranges), flagging under the owning shard's lock.
        let mut flagged: Vec<(CoreId, TaskId, Duration)> = Vec::new();
        for si in 0..self.shards.len() {
            let mut st = self.lock_shard(si);
            for li in 0..st.slots.len() {
                let CoreSlot::Busy(task) = st.slots[li] else {
                    continue;
                };
                let Some(at) = st.granted_at[li] else {
                    continue;
                };
                let held_for = now.saturating_duration_since(at);
                if held_for >= max_hold && !st.stall_flagged[li] {
                    st.stall_flagged[li] = true;
                    inc(&self.stats.counters.stalls_detected);
                    flagged.push((st.cores[li], task, held_for));
                }
            }
        }
        if flagged.is_empty() {
            // The common scan finds nothing: stay off the global section entirely, so a
            // background watchdog never perturbs the steady-state churn sentinel.
            return Vec::new();
        }
        let g = self.lock_global();
        flagged
            .into_iter()
            .map(|(core, task, held_for)| StallReport {
                core,
                task,
                process: g.tasks.get(&task).map(|t| t.process()).unwrap_or_default(),
                held_for,
            })
            .collect()
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
        if self.shutting_down.load(Ordering::SeqCst) {
            return 0;
        }
        (0..self.shards.len())
            .map(|si| self.scheduling_point(si, true))
            .sum()
    }

    /// The featureless idle-worker drain: called on the block paths (`attach`, `pause`,
    /// `waitfor`) immediately before parking, so a submit that raced onto the intake
    /// while its target system looked busy is granted *now* rather than at the next
    /// organic scheduling point (intake waits of tens of milliseconds, and unbounded ones
    /// with no further traffic, came from exactly this window whenever every worker was
    /// parked). The empty check is lock-free, so the common park — nothing pending —
    /// costs two atomic loads and never touches the scheduler lock.
    fn prepark_drain(&self) {
        if self.intake_depth() == 0 || self.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        for si in 0..self.shards.len() {
            if self.shards[si].intake.depth() > 0 {
                self.scheduling_point(si, false);
            }
        }
        self.dispatch_sweep();
    }

    /// One artificial scheduling point on shard `si`: under its lock, drain the intake
    /// and dispatch ready work onto its idle cores; then, with the lock dropped, deliver
    /// the owed grant notifications. `forced` bypasses an armed
    /// [`FaultSite::DelayIntakeDrain`] ([`Scheduler::rescue_drain`] only). Returns how
    /// many intake entries were drained.
    fn scheduling_point(&self, si: usize, forced: bool) -> usize {
        let mut wakes = WakeBatch::new();
        let mut st = self.lock_shard(si);
        let n = if forced {
            self.drain_intake_forced(&mut st, &mut wakes)
        } else {
            self.drain_intake(&mut st, &mut wakes)
        };
        self.dispatch_idle_cores(&mut st, &mut wakes);
        drop(st);
        wakes.fire();
        n
    }

    /// Hand each core a task gave up (pause, detach, kill) to the next ready task, one
    /// shard lock at a time, firing the owed notifications as each lock drops; then run
    /// the cross-shard sweep. Takes no lock on entry.
    fn free_cores(&self, cores: impl IntoIterator<Item = CoreId>) {
        for core in cores {
            let mut wakes = WakeBatch::new();
            // The guard is a temporary: it drops at the end of this statement, before
            // `wakes` fires at the end of the iteration.
            self.release_core(&mut self.lock_shard(self.shard_of(core)), core, &mut wakes);
        }
        self.dispatch_sweep();
    }

    // -------------------------------------------------------------------------------------
    // Internals (scheduler lock held)
    // -------------------------------------------------------------------------------------

    /// Mark `core` busy and grant it to `task`. Caller holds `core`'s shard lock.
    /// `immediate` records whether this grant bypassed the policy queues (an idle-core
    /// grant straight from `place_ready_task`, with no preceding pop). The waiter's
    /// condvar notification is *not* delivered here — it is owed to `wakes`, which the
    /// caller fires after dropping the scheduler lock (collect-then-notify).
    fn grant(
        &self,
        st: &mut ShardState,
        task: &TaskRef,
        core: CoreId,
        immediate: bool,
        wakes: &mut WakeBatch,
    ) {
        self.mark_busy(st, core, task.id());
        inc(&self.stats.counters.grants);
        if let Some(from) = task.preferred_core() {
            if from == core {
                inc(&self.stats.counters.affinity_hits);
            } else {
                trace_event!(
                    self,
                    Instant::now(),
                    TraceEvent::Migrate {
                        task: task.id(),
                        from,
                        to: core,
                    }
                );
            }
        }
        trace_event!(
            self,
            Instant::now(),
            TraceEvent::Grant {
                task: task.id(),
                core,
                immediate,
            }
        );
        let cpu = self.core_cpus.as_ref().map(|cpus| cpus[core]);
        task.grant_core(core, cpu, &self.stats.stages.wake, wakes);
    }

    /// Transition a core slot to busy, maintaining the idle-core gauge and the watchdog's
    /// grant timestamp. Caller holds `core`'s owning shard lock.
    fn mark_busy(&self, st: &mut ShardState, core: CoreId, id: TaskId) {
        let li = self.core_shard[core].1;
        debug_assert_eq!(self.core_shard[core].0, st.si);
        if matches!(st.slots[li], CoreSlot::Idle) {
            self.idle_cores.fetch_sub(1, Ordering::SeqCst);
        }
        st.slots[li] = CoreSlot::Busy(id);
        st.granted_at[li] = Some(Instant::now());
        st.stall_flagged[li] = false;
    }

    /// Transition a core slot to idle, maintaining the idle-core gauge. Caller holds
    /// `core`'s owning shard lock.
    fn mark_idle(&self, st: &mut ShardState, core: CoreId) {
        let li = self.core_shard[core].1;
        debug_assert_eq!(self.core_shard[core].0, st.si);
        if !matches!(st.slots[li], CoreSlot::Idle) {
            self.idle_cores.fetch_add(1, Ordering::SeqCst);
        }
        st.slots[li] = CoreSlot::Idle;
        st.granted_at[li] = None;
        st.stall_flagged[li] = false;
    }

    /// Move every intake entry into the scheduler proper: stale entries (task detached, or
    /// shutdown) are dropped, tasks whose process was deregistered while they sat in the
    /// intake are released (placing them would resurrect the purged process in the
    /// rotation, and they could never be picked once purged again), and live ones are
    /// placed ([`Scheduler::place_ready_task`]). Callers hold the shard lock, which is
    /// what serializes drains of that shard's intake.
    fn drain_intake(&self, st: &mut ShardState, wakes: &mut WakeBatch) -> usize {
        // Fault site: skip this drain, delaying queued submits to the next scheduling
        // point. Never skipped once shutdown is underway — the released-waiter guarantee
        // relies on the shutdown drain, and a fault plan must not turn a delay into a
        // liveness hole the hardening cannot see.
        if !self.shutting_down.load(Ordering::SeqCst)
            && self.fault_fires(FaultSite::DelayIntakeDrain, None)
        {
            return 0;
        }
        self.drain_intake_forced(st, wakes)
    }

    /// The drain body proper, never subject to the [`FaultSite::DelayIntakeDrain`] fault:
    /// [`Scheduler::rescue_drain`] calls this directly because a rescue must not itself
    /// be delayed. Each shard drains only its own intake. Returns how many intake entries
    /// were processed.
    fn drain_intake_forced(&self, st: &mut ShardState, wakes: &mut WakeBatch) -> usize {
        let drained = self.shards[st.si].intake.drain();
        let n = drained.len();
        if drained.is_empty() {
            return 0;
        }
        let now = Instant::now();
        trace_event!(self, now, TraceEvent::IntakeDrain { n });
        for (task, pushed_at) in drained {
            // Close the submit→drain stage: how long the wake-up sat in the intake.
            self.stats
                .stages
                .intake_wait
                .record(now.saturating_duration_since(pushed_at));
            // `is_released()` is the shard-local equivalent of the old "still in the
            // task table" check: detach/kill mark a task released exactly when removing
            // it from the table.
            if self.shutting_down.load(Ordering::SeqCst) || task.is_released() {
                self.ready_tasks.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            if !task.proc_alive() {
                self.ready_tasks.fetch_sub(1, Ordering::SeqCst);
                // Collect-then-notify: woken after the shard lock drops.
                task.release(Release::All, wakes);
                continue;
            }
            self.place_ready_task(st, &task, wakes);
        }
        n
    }

    /// Place a ready task: grant it an idle core if one is available (honouring affinity)
    /// and no older work is queued, otherwise enqueue it in the shard's policy.
    ///
    /// The `has_ready` guard keeps intake draining fair: a task published after older
    /// tasks were queued in the policy must not jump them just because a core went idle in
    /// between — it is enqueued instead, and the pop tiers (which include the aging valve)
    /// decide.
    fn place_ready_task(&self, st: &mut ShardState, task: &TaskRef, wakes: &mut WakeBatch) {
        if !st.policy.has_ready() {
            // The placement domain is read from the task's shared process cell — the
            // shard-local path never consults the global process table.
            let domain = task.proc_domain();
            if let Some(core) = self.choose_idle_core(st, task.preferred_core(), domain.as_deref())
            {
                // The task was marked queued by the caller; the grant clears it. It leaves
                // the ready gauge first, as a popped task does, so no observer of the grant
                // still counts it ready.
                self.ready_tasks.fetch_sub(1, Ordering::SeqCst);
                self.grant(st, task, core, true, wakes);
                return;
            }
        }
        self.enqueue(st, task, task.preferred_core(), Instant::now());
    }

    /// Queue `task` in this shard's policy with core preference `pref`, indexed in `queued`
    /// and counted in the shard's ready counter (the caller owns the scheduler-wide
    /// `ready_tasks` gauge).
    fn enqueue(&self, st: &mut ShardState, task: &TaskRef, pref: Option<CoreId>, now: Instant) {
        let meta = TaskMeta {
            id: task.id(),
            process: task.process(),
            preferred_core: pref,
        };
        trace_event!(
            self,
            now,
            TraceEvent::Enqueue {
                process: meta.process,
                task: meta.id,
                preferred: pref,
            }
        );
        st.policy.enqueue(&self.topo, meta, now);
        st.queued.insert(meta.id, TaskRef::clone(task));
        self.shards[st.si].ready.fetch_add(1, Ordering::Relaxed);
    }

    /// Pick an idle core *owned by this shard* for a task with the given preference:
    /// preferred core if idle, else an idle core in the same NUMA node, else any idle
    /// core of the shard — all restricted to the task's process placement domain when one
    /// is set. (With one shard this is exactly the old whole-machine scan.)
    fn choose_idle_core(
        &self,
        st: &ShardState,
        preferred: Option<CoreId>,
        domain: Option<&[CoreId]>,
    ) -> Option<CoreId> {
        let allowed = |c: CoreId| domain.map_or(true, |d| d.contains(&c));
        let is_idle = |c: CoreId| {
            let (si, li) = self.core_shard[c];
            si == st.si && matches!(st.slots[li], CoreSlot::Idle) && allowed(c)
        };
        if let Some(p) = preferred {
            if p < self.topo.num_cores() {
                if is_idle(p) {
                    return Some(p);
                }
                let node = self.topo.node_of(p);
                if let Some(c) = self.topo.cores_in_node(node).find(|&c| is_idle(c)) {
                    return Some(c);
                }
            }
        }
        st.cores.iter().copied().find(|&c| is_idle(c))
    }

    /// A core became free: drain the shard's intake, then hand the core to the next ready
    /// task according to the policy (if the drain did not already fill it), or leave it
    /// idle.
    fn release_core(&self, st: &mut ShardState, core: CoreId, wakes: &mut WakeBatch) {
        self.mark_idle(st, core);
        self.drain_intake(st, wakes);
        // Hot path: only the freed core can normally be idle while work is queued
        // (place_ready_task grants idle cores whenever the policy is empty), so dispatch
        // it directly instead of scanning all slots under the lock.
        let li = self.core_shard[core].1;
        if matches!(st.slots[li], CoreSlot::Idle) {
            self.dispatch_core(st, core, Instant::now(), wakes);
        }
        // Rare: stale entries of detached tasks can leave *other* cores idle while the
        // policy still reports ready work — fall back to the full scan only then.
        if (st.policy.has_ready() || self.others_ready(st.si))
            && self.idle_cores.load(Ordering::SeqCst) > 0
        {
            self.dispatch_idle_cores(st, wakes);
        }
    }

    /// One logical pick for `core` — one trip down the shard's [`ShardLadder`] (foreign
    /// aging probe, local tiers, steal; see there for the order), so a recorded
    /// `Pop`/`PopEmpty` event advances replayed policy state identically. What is
    /// decided here is only what the ladder cannot know: a foreign shard is tried only
    /// when its lock-free ready counter is non-zero and its lock is free right now
    /// (`try_lock` — a busy victim is skipped, never waited on), and whichever shard
    /// serves the task loses the entry from its `queued` map and its counters.
    fn pick_once(
        &self,
        st: &mut ShardState,
        core: CoreId,
        now: Instant,
    ) -> Option<(TaskMeta, Option<PickTier>, Option<TaskRef>)> {
        let ShardState {
            si,
            ladder,
            policy,
            queued,
            ..
        } = st;
        let home = *si;
        ladder.pick(now, |step| {
            let (vi, aged) = match step {
                LadderStep::Local => {
                    let (meta, tier) = policy.pick_traced(&self.topo, core, now)?;
                    self.shards[home].ready.fetch_sub(1, Ordering::Relaxed);
                    return Some((meta, tier, queued.remove(&meta.id)));
                }
                LadderStep::ForeignAged(vi) => (vi, true),
                LadderStep::Steal(vi) => (vi, false),
            };
            if self.shards[vi].ready.load(Ordering::Relaxed) == 0 {
                return None;
            }
            let mut vg = self.try_lock_shard(vi)?;
            let (meta, tier) = if aged {
                (
                    vg.policy.pick_aged(&self.topo, core, now)?,
                    Some(PickTier::Aged),
                )
            } else {
                vg.policy.pick_traced(&self.topo, core, now)?
            };
            self.shards[vi].ready.fetch_sub(1, Ordering::Relaxed);
            Some((meta, tier, vg.queued.remove(&meta.id)))
        })
    }

    /// Pop ready tasks (local, aged-foreign, or stolen — see [`Scheduler::pick_once`])
    /// until a live one is found, maintaining the ready gauge. Stale queue entries (tasks
    /// detached while still queued) are skipped and reconciled here.
    fn pick_live(&self, st: &mut ShardState, core: CoreId, now: Instant) -> Option<TaskRef> {
        while let Some((meta, tier, task)) = self.pick_once(st, core, now) {
            self.ready_tasks.fetch_sub(1, Ordering::SeqCst);
            trace_event!(
                self,
                now,
                TraceEvent::Pop {
                    core,
                    tier,
                    task: meta.id,
                }
            );
            if let Some(task) = task {
                if !task.is_released() {
                    return Some(task);
                }
            }
        }
        // The empty pick still re-armed the aging valve — record it so the replayed
        // policy's valve state stays in lockstep (see `TraceEvent::PopEmpty`).
        trace_event!(self, now, TraceEvent::PopEmpty { core });
        None
    }

    /// Try to dispatch a ready task onto an idle core of this shard.
    fn dispatch_core(
        &self,
        st: &mut ShardState,
        core: CoreId,
        now: Instant,
        wakes: &mut WakeBatch,
    ) {
        debug_assert!(matches!(st.slots[self.core_shard[core].1], CoreSlot::Idle));
        if self.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        if let Some(task) = self.pick_live(st, core, now) {
            self.grant(st, &task, core, false, wakes);
        }
    }

    /// Dispatch ready work onto every idle core of this shard (cheap early-exit when
    /// nothing is ready here or in a stealable foreign shard).
    fn dispatch_idle_cores(&self, st: &mut ShardState, wakes: &mut WakeBatch) {
        if self.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let now = Instant::now();
        for li in 0..st.slots.len() {
            if !(st.policy.has_ready() || self.others_ready(st.si)) {
                break;
            }
            if matches!(st.slots[li], CoreSlot::Idle) {
                let core = st.cores[li];
                self.dispatch_core(st, core, now, wakes);
            }
        }
    }

    /// Cross-shard liveness sweep: after an operation that freed cores or enqueued work
    /// in one shard, visit the *other* shards (one lock at a time, never while holding a
    /// shard lock) so an idle core over there picks up work it could not see. A no-op
    /// with one shard; guarded by the lock-free gauges so the steady state — every core
    /// busy, or nothing ready — pays two atomic loads and takes no lock.
    fn dispatch_sweep(&self) {
        if self.shards.len() == 1 {
            return;
        }
        for si in 0..self.shards.len() {
            if self.shutting_down.load(Ordering::SeqCst)
                || !self.has_ready()
                || self.idle_cores.load(Ordering::SeqCst) == 0
            {
                return;
            }
            self.scheduling_point(si, false);
        }
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
