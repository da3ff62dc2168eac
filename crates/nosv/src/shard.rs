//! Level 2 of the scheduler's lock hierarchy: the per-NUMA-node dispatch shards.
//!
//! Each node owns a `Shard`: an independently locked `ShardState` (its core slots, a
//! full SCHED_COOP ready-queue core and its pick ladder) plus that node's submit intake
//! and ready counter. `PolicyKind::Coop` runs one shard per NUMA node (one node ⇒ the
//! single-lock scheduler); a global queue cannot be sharded, so `Fifo` and custom
//! policies run one shard owning every core. Which shard a ready task is queued in and
//! the order in which a core consults the shards are [`crate::readyq`] code
//! ([`readyq::enqueue_shard`], [`ShardLadder`]) shared with the sim replay.
//!
//! A submit to a busy system is one push onto its shard's **intake** and takes no shard
//! lock; the intake is drained in push order, under the shard lock, at the shard's next
//! scheduling point or by a worker about to park. Every shard-lock acquisition bumps
//! that shard's `lock_acquisitions`, which is how the tests verify that fast path.
//!
//! # Locking
//!
//! **Shard locks** (`ShardState`, one per node) are level 2: taken after the
//! global-section lock of [`crate::registry`], if at all, and before any grant lock. At
//! most one is *block*-acquired at a time; additional shards are reached only via
//! `try_lock` (cross-shard stealing and the rate-limited aging valve), which cannot
//! deadlock regardless of order. A held shard lock is a [`Locked`], whose methods are
//! everything that runs under one; it delivers the grant notifications owed under it
//! only once the lock is released, so a woken worker never convoys on its waker's
//! lock. The methods of [`Shards`] take the shard locks they need one at a time.
//!
//! **Intake locks** (one per shard) are leaves: held for one push or one take, never
//! while acquiring another lock. They are not scheduler-section locks and bump no
//! `lock_acquisitions`; a drain takes one under its shard lock (or, at shutdown, under
//! the global lock).
//!
//! The multi-shard operations — process registration, deregistration and purge, domain
//! changes, shutdown, `watchdog_scan`, `rescue_drain` and the cross-shard dispatch sweep
//! — visit shards strictly one at a time in ascending node order.

use crate::binding;
use crate::config::NosvConfig;
use crate::faults::FaultSite;
use crate::obs::inc;
use crate::policy::{Policy, TaskMeta};
use crate::process::ProcessId;
use crate::readyq::{self, LadderStep, PickTier, ShardLadder};
use crate::sched_trace::TraceEvent;
use crate::scheduler::{trace_event, Hooks, StallReport};
use crate::task::{Release, TaskId, TaskRef, WakeBatch};
use crate::topology::{CoreId, Topology};
use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// State of one virtual core slot.
#[derive(Debug, Clone, Copy)]
enum CoreSlot {
    /// Nothing granted on this core.
    Idle,
    /// `task` of `process` holds this core since `since`; `flagged` once a watchdog scan
    /// has reported this grant, so each non-progressing grant is reported once.
    Busy {
        task: TaskId,
        process: ProcessId,
        since: Instant,
        flagged: bool,
    },
}

/// A shard's submit intake, taken whole by its next scheduling point. Push order is lock
/// order, which is a valid submission order: each producer's submits keep their order.
#[derive(Default)]
struct Intake {
    /// Published tasks, each with the instant of its submit — the start of the
    /// submit→drain stage histogram (`obs::StageStats::intake_wait`).
    entries: Mutex<Vec<(TaskRef, Instant)>>,
    /// `entries.len()`, stored under the intake lock and read lock-free by the pre-park
    /// check and the stats sampler.
    len: AtomicUsize,
}

impl Intake {
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

/// One node's dispatch state, behind its shard lock.
struct ShardState {
    /// This shard's index (== NUMA node id when there is more than one shard).
    si: usize,
    /// The global ids of the cores this shard owns, ascending (parallel to `slots`).
    cores: Vec<CoreId>,
    /// Core slots, indexed by *local* core index (see `Shards::core_shard`).
    slots: Vec<CoreSlot>,
    /// The shard's ready queues: a full policy instance, so per-process quanta and the
    /// pick tiers work unchanged within a shard.
    policy: Box<dyn Policy>,
    /// Tasks queued in `policy`, so a pick resolves a popped [`TaskMeta`] to its task
    /// (and spots stale entries of released tasks) without the global task table.
    queued: HashMap<TaskId, TaskRef>,
    /// The order in which this shard's cores consult the shards, and the rate limiter on
    /// its foreign aging probes (one per quantum).
    ladder: ShardLadder<Instant>,
}

/// One node's slice of the scheduler: the locked dispatch state plus what other threads
/// reach without that lock, on cache lines of its own.
#[repr(align(128))]
struct Shard {
    state: Mutex<ShardState>,
    /// Submit intake, drained under `state`'s lock.
    intake: Intake,
    /// Policy-ready entry count, maintained under `state`'s lock and read lock-free by
    /// foreign shards deciding whether a steal, aging probe or sweep is worth a lock.
    ready: AtomicUsize,
}

/// Level 2 of the scheduler: every shard plus the lock-free gauges over them.
pub(crate) struct Shards {
    topo: Topology,
    shards: Box<[Shard]>,
    /// Global core id → (shard index, local core index), fixed at construction.
    core_shard: Vec<(usize, usize)>,
    /// Global core id → the CPU its worker is bound to, if any (see [`crate::binding`]).
    core_cpus: Option<Box<[usize]>>,
    /// Number of idle core slots, maintained under the shard locks.
    idle_cores: AtomicUsize,
    /// Intake plus policy-queued entries. Signed: stale entries of detached tasks are only
    /// reconciled when popped, and shutdown zeroes it; readers clamp at zero.
    ready_tasks: AtomicI64,
}

/// A held shard lock. Its methods are what runs under one shard lock, and it collects
/// the grant notifications owed meanwhile: dropping it releases the lock first and then
/// delivers them (fields drop in declaration order).
struct Locked<'a> {
    st: MutexGuard<'a, ShardState>,
    wakes: WakeBatch,
    shards: &'a Shards,
    h: &'a Hooks,
}

impl Shards {
    /// `nshards` shards, each owning the cores of its NUMA node (all cores if one).
    pub(crate) fn new(config: &NosvConfig, nshards: usize) -> Self {
        let topo = config.topology.clone();
        let cores = topo.num_cores();
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
                        policy: config.policy.build(config),
                        queued: HashMap::new(),
                        ladder: ShardLadder::new(si, nshards, config.process_quantum),
                    }),
                    intake: Intake::default(),
                    ready: AtomicUsize::new(0),
                }
            })
            .collect();
        Shards {
            topo,
            shards,
            core_shard,
            core_cpus: binding::core_cpus(cores),
            idle_cores: AtomicUsize::new(cores),
            ready_tasks: AtomicI64::new(0),
        }
    }

    /// [`Policy::name`] of the installed policy.
    pub(crate) fn policy_name(&self) -> String {
        self.shards[0].state.lock().policy.name().to_string()
    }

    /// Whether grants bind workers to their core's CPU.
    pub(crate) fn binds_workers(&self) -> bool {
        self.core_cpus.is_some()
    }

    /// The ready-task gauge, clamped at zero.
    pub(crate) fn ready_count(&self) -> usize {
        self.ready_tasks.load(Ordering::SeqCst).max(0) as usize
    }

    /// The idle-core gauge.
    pub(crate) fn idle_cores(&self) -> usize {
        self.idle_cores.load(Ordering::SeqCst)
    }

    /// The intake-depth gauge: entries across the per-shard intakes.
    pub(crate) fn intake_depth(&self) -> usize {
        self.shards.iter().map(|s| s.intake.depth()).sum()
    }

    /// Block-acquire shard `si`'s lock (at most one at a time; see the module docs).
    fn lock<'a>(&'a self, h: &'a Hooks, si: usize) -> Locked<'a> {
        inc(&h.stats.shards[si].lock_acquisitions);
        Locked {
            st: self.shards[si].state.lock(),
            wakes: WakeBatch::new(),
            shards: self,
            h,
        }
    }

    /// Try to acquire a *second* shard's lock; a busy victim is skipped, never waited on.
    fn try_lock(&self, h: &Hooks, si: usize) -> Option<MutexGuard<'_, ShardState>> {
        let g = self.shards[si].state.try_lock()?;
        inc(&h.stats.shards[si].lock_acquisitions);
        Some(g)
    }

    /// Apply `f` to every shard's policy, taking each shard lock in turn.
    pub(crate) fn each_policy<R>(
        &self,
        h: &Hooks,
        mut f: impl FnMut(&mut dyn Policy) -> R,
    ) -> Vec<R> {
        (0..self.shards.len())
            .map(|si| f(self.lock(h, si).st.policy.as_mut()))
            .collect()
    }

    /// Publish a ready task to its home shard's intake — one push under the intake lock,
    /// no shard lock — and return that shard.
    pub(crate) fn publish(&self, task: &TaskRef, now: Instant) -> usize {
        self.ready_tasks.fetch_add(1, Ordering::SeqCst);
        let n = self.shards.len();
        let home = readyq::enqueue_shard(&self.topo, n, None, task.preferred_core());
        self.shards[home].intake.push(TaskRef::clone(task), now);
        home
    }

    /// One artificial scheduling point on shard `si`: under its lock, drain the intake
    /// (`forced`: bypassing a delayed-drain fault) and dispatch ready work onto its idle
    /// cores. Returns how many intake entries were drained.
    pub(crate) fn scheduling_point(&self, h: &Hooks, si: usize, forced: bool) -> usize {
        let mut l = self.lock(h, si);
        let n = l.drain_intake(forced);
        l.dispatch_idle_cores();
        n
    }

    /// A forced scheduling point on every shard (see `Scheduler::rescue_drain`).
    pub(crate) fn rescue_drain(&self, h: &Hooks) -> usize {
        if h.shutting_down() {
            return 0;
        }
        (0..self.shards.len())
            .map(|si| self.scheduling_point(h, si, true))
            .sum()
    }

    /// The pre-park drain, run by `attach`, `pause` and `waitfor` right before parking,
    /// so a submit that raced onto an intake while every worker looked busy is granted
    /// *now*, not at the next organic scheduling point (which may never come). The empty
    /// check is lock-free, so the common park never touches a shard lock.
    pub(crate) fn prepark_drain(&self, h: &Hooks) {
        if self.intake_depth() == 0 || h.shutting_down() {
            return;
        }
        for si in 0..self.shards.len() {
            if self.shards[si].intake.depth() > 0 {
                self.scheduling_point(h, si, false);
            }
        }
        self.dispatch_sweep(h);
    }

    /// Hand each core a task gave up (pause, detach, kill) to the next ready task, one
    /// shard lock at a time; then run the cross-shard sweep.
    pub(crate) fn free_cores(&self, h: &Hooks, cores: impl IntoIterator<Item = CoreId>) {
        for core in cores {
            self.lock(h, self.core_shard[core].0).release_core(core);
        }
        self.dispatch_sweep(h);
    }

    /// Cross-shard liveness sweep: after freeing cores or queueing work in one shard, give
    /// an idle core of any shard the chance to pick it up. A no-op with one shard; the
    /// steady state (every core busy, or nothing ready) pays two loads and takes no lock.
    pub(crate) fn dispatch_sweep(&self, h: &Hooks) {
        if self.shards.len() == 1 {
            return;
        }
        for si in 0..self.shards.len() {
            if h.shutting_down() || self.ready_count() == 0 || self.idle_cores() == 0 {
                return;
            }
            self.scheduling_point(h, si, false);
        }
    }

    /// The yield hand-over on `core`'s shard lock: pick a successor, hand it the core and
    /// requeue `task`. Returns `false`, changing nothing, when nothing live is ready or
    /// `task` no longer holds `core`. The successor's notification is delivered before
    /// this returns, so the caller can park at once.
    pub(crate) fn hand_over(&self, h: &Hooks, task: &TaskRef, core: CoreId) -> bool {
        // The requeue below lands in the yielding core's own shard, the one locked here.
        let si = readyq::enqueue_shard(&self.topo, self.shards.len(), Some(core), None);
        let mut l = self.lock(h, si);
        l.drain_intake(false);
        // Pick the successor *before* requeueing ourselves: with per-core FIFO affinity the
        // yielding task would otherwise be at the head of its own core's queue and the yield
        // would hand the core straight back to it, starving everyone else.
        let now = Instant::now();
        let Some(next_task) = l.pick_live(core, now) else {
            // The gauge raced or every queued entry was stale; nothing to switch to.
            drop(l);
            inc(&h.stats.counters.yields_noop);
            return false;
        };
        // Hand the core over, re-validated under the grant lock: a kill or shutdown since
        // the caller's check took the core already (kill re-dispatches it), and handing it
        // over too would run two tasks on it. Then the successor was popped for nothing:
        // restore its gauge entry and place it as the drain would.
        if !task.yield_core(core, now) {
            self.ready_tasks.fetch_add(1, Ordering::SeqCst);
            l.place_ready_task(&next_task);
            return false;
        }
        trace_event!(
            h,
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
        l.enqueue(task, None, now);
        self.ready_tasks.fetch_add(1, Ordering::SeqCst);
        l.grant(&next_task, core, false);
        true
    }

    /// Purge a dead process (its cell already marked) from every shard, returning how many
    /// queued entries were dropped. Each intake is drained first, which releases the
    /// process's tasks still sitting there; the ready gauges shed the dropped entries, or
    /// `has_ready` would stay stuck true and defeat the yield fast path.
    pub(crate) fn purge(&self, h: &Hooks, process: ProcessId) -> usize {
        let mut purged = 0;
        for si in 0..self.shards.len() {
            let mut l = self.lock(h, si);
            l.drain_intake(false);
            let st = &mut *l.st;
            let before = st.policy.ready_count();
            st.policy.deregister_process(process);
            let dropped = before.saturating_sub(st.policy.ready_count());
            if dropped > 0 {
                self.ready_tasks.fetch_sub(dropped as i64, Ordering::SeqCst);
                self.shards[si].ready.fetch_sub(dropped, Ordering::Relaxed);
            }
            st.queued.retain(|_, t| t.process() != process);
            purged += dropped;
        }
        purged
    }

    /// Shutdown's drain: take every intake entry without the shard locks (a shard-lock
    /// drain racing this takes disjoint entries, and either drainer releases its share:
    /// the shutdown flag is already set), then zero the ready gauges.
    pub(crate) fn drain_for_shutdown(&self) -> Vec<TaskRef> {
        let drained = self.shards.iter().flat_map(|s| s.intake.drain());
        let tasks = drained.map(|(t, _)| t).collect();
        self.ready_tasks.store(0, Ordering::SeqCst);
        for s in self.shards.iter() {
            s.ready.store(0, Ordering::Relaxed);
        }
        tasks
    }

    /// The watchdog scan (see `Scheduler::watchdog_scan`), one shard lock at a time:
    /// shard-major order is core order, as nodes own contiguous core ranges.
    pub(crate) fn watchdog_scan(&self, h: &Hooks, max_hold: Duration) -> Vec<StallReport> {
        let now = Instant::now();
        let mut flagged = Vec::new();
        for si in 0..self.shards.len() {
            let mut l = self.lock(h, si);
            let ShardState { cores, slots, .. } = &mut *l.st;
            for (&core, slot) in cores.iter().zip(slots.iter_mut()) {
                let CoreSlot::Busy {
                    task,
                    process,
                    since,
                    flagged: reported,
                } = slot
                else {
                    continue;
                };
                let held_for = now.saturating_duration_since(*since);
                if held_for >= max_hold && !*reported {
                    *reported = true;
                    inc(&h.stats.counters.stalls_detected);
                    flagged.push(StallReport {
                        core,
                        task: *task,
                        process: *process,
                        held_for,
                    });
                }
            }
        }
        flagged
    }
}

impl Locked<'_> {
    /// Mark `core` busy and grant it to `task`; `immediate` when the grant bypassed the
    /// policy queues (an idle-core grant from `place_ready_task`, with no pop).
    fn grant(&mut self, task: &TaskRef, core: CoreId, immediate: bool) {
        let (shards, h) = (self.shards, self.h);
        let li = self.local_slot(core);
        if matches!(self.st.slots[li], CoreSlot::Idle) {
            shards.idle_cores.fetch_sub(1, Ordering::SeqCst);
        }
        self.st.slots[li] = CoreSlot::Busy {
            task: task.id(),
            process: task.process(),
            since: Instant::now(),
            flagged: false,
        };
        inc(&h.stats.counters.grants);
        if let Some(from) = task.preferred_core() {
            if from == core {
                inc(&h.stats.counters.affinity_hits);
            } else {
                trace_event!(
                    h,
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
            h,
            Instant::now(),
            TraceEvent::Grant {
                task: task.id(),
                core,
                immediate,
            }
        );
        let cpu = shards.core_cpus.as_ref().map(|cpus| cpus[core]);
        task.grant_core(core, cpu, &h.stats.stages.wake, &mut self.wakes);
    }

    /// `core`'s index among this shard's slots.
    fn local_slot(&self, core: CoreId) -> usize {
        let (si, li) = self.shards.core_shard[core];
        debug_assert_eq!(si, self.st.si);
        li
    }

    /// Move every intake entry into the scheduler proper: stale entries (task detached, or
    /// shutdown) are dropped, tasks whose process was deregistered while they sat in the
    /// intake are released (placing them would resurrect the purged process in the
    /// rotation), and live ones are placed ([`Locked::place_ready_task`]). A `forced`
    /// drain is never subject to the [`FaultSite::DelayIntakeDrain`] fault (a rescue must
    /// not itself be delayed). Returns how many entries it processed.
    fn drain_intake(&mut self, forced: bool) -> usize {
        let (shards, h) = (self.shards, self.h);
        // Fault site: skip this drain, delaying queued submits to the next scheduling
        // point. Never skipped once shutdown is underway — the released-waiter guarantee
        // relies on the shutdown drain, and a fault plan must not turn a delay into a
        // liveness hole the hardening cannot see.
        if !forced && !h.shutting_down() && h.fault_fires(FaultSite::DelayIntakeDrain, None) {
            return 0;
        }
        let drained = shards.shards[self.st.si].intake.drain();
        let n = drained.len();
        if drained.is_empty() {
            return 0;
        }
        let now = Instant::now();
        trace_event!(h, now, TraceEvent::IntakeDrain { n });
        for (task, pushed_at) in drained {
            // Close the submit→drain stage: how long the wake-up sat in the intake.
            let waited = now.saturating_duration_since(pushed_at);
            h.stats.stages.intake_wait.record(waited);
            // Detach and kill mark a task released exactly when removing it from the task
            // table, so this is the shard-local "still registered" check.
            if h.shutting_down() || task.is_released() {
                shards.ready_tasks.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            if !task.proc_alive() {
                shards.ready_tasks.fetch_sub(1, Ordering::SeqCst);
                task.release(Release::All, &mut self.wakes);
                continue;
            }
            self.place_ready_task(&task);
        }
        n
    }

    /// Place a ready task: grant it an idle core if one is available (honouring affinity)
    /// and no older work is queued, otherwise enqueue it. The `has_ready` guard keeps
    /// draining fair: a task must not jump older queued ones just because a core went
    /// idle in between — the pop tiers (aging valve included) decide.
    fn place_ready_task(&mut self, task: &TaskRef) {
        if !self.st.policy.has_ready() {
            // The placement domain is read from the task's shared process cell — the
            // shard-local path never consults the global process table.
            let domain = task.proc_domain();
            if let Some(core) = self.choose_idle_core(task.preferred_core(), domain.as_deref()) {
                // The task was marked queued by the caller; the grant clears it. It leaves
                // the ready gauge first, as a popped task does, so no observer of the grant
                // still counts it ready.
                self.shards.ready_tasks.fetch_sub(1, Ordering::SeqCst);
                self.grant(task, core, true);
                return;
            }
        }
        self.enqueue(task, task.preferred_core(), Instant::now());
    }

    /// Queue `task` in this shard's policy with core preference `pref`, indexed in `queued`
    /// and counted in the shard's ready counter (the caller owns the `ready_tasks` gauge).
    fn enqueue(&mut self, task: &TaskRef, pref: Option<CoreId>, now: Instant) {
        let meta = TaskMeta {
            id: task.id(),
            process: task.process(),
            preferred_core: pref,
        };
        trace_event!(
            self.h,
            now,
            TraceEvent::Enqueue {
                process: meta.process,
                task: meta.id,
                preferred: pref,
            }
        );
        let shard = &self.shards.shards[self.st.si];
        self.st.policy.enqueue(&self.shards.topo, meta, now);
        self.st.queued.insert(meta.id, TaskRef::clone(task));
        shard.ready.fetch_add(1, Ordering::Relaxed);
    }

    /// Pick an idle core *of this shard* for a task: its preferred core, else one in the
    /// same NUMA node, else any — all within the process's placement domain, if set.
    fn choose_idle_core(
        &self,
        preferred: Option<CoreId>,
        domain: Option<&[CoreId]>,
    ) -> Option<CoreId> {
        let (st, topo) = (&*self.st, &self.shards.topo);
        let allowed = |c: CoreId| domain.map_or(true, |d| d.contains(&c));
        let is_idle = |c: CoreId| {
            let (si, li) = self.shards.core_shard[c];
            si == st.si && matches!(st.slots[li], CoreSlot::Idle) && allowed(c)
        };
        if let Some(p) = preferred {
            if p < topo.num_cores() {
                if is_idle(p) {
                    return Some(p);
                }
                if let Some(c) = topo.cores_in_node(topo.node_of(p)).find(|&c| is_idle(c)) {
                    return Some(c);
                }
            }
        }
        st.cores.iter().copied().find(|&c| is_idle(c))
    }

    /// A core became free: mark it idle, drain the intake, then hand the core to the next
    /// ready task (if the drain did not already fill it), or leave it idle.
    fn release_core(&mut self, core: CoreId) {
        let li = self.local_slot(core);
        if !matches!(self.st.slots[li], CoreSlot::Idle) {
            self.shards.idle_cores.fetch_add(1, Ordering::SeqCst);
        }
        self.st.slots[li] = CoreSlot::Idle;
        self.drain_intake(false);
        // Hot path: only the freed core can normally be idle while work is queued
        // (place_ready_task grants idle cores whenever the policy is empty), so dispatch
        // it directly instead of scanning all slots under the lock.
        if matches!(self.st.slots[li], CoreSlot::Idle) {
            self.dispatch_core(core, Instant::now());
        }
        // Rare: stale entries of detached tasks can leave *other* cores idle while the
        // policy still reports ready work — fall back to the full scan only then.
        if self.any_ready() && self.shards.idle_cores() > 0 {
            self.dispatch_idle_cores();
        }
    }

    /// Whether this shard, or a foreign one a steal could reach, has queued work (the
    /// foreign check reads their lock-free ready counters).
    fn any_ready(&self) -> bool {
        let si = self.st.si;
        let foreign = |(i, s): (usize, &Shard)| i != si && s.ready.load(Ordering::Relaxed) > 0;
        self.st.policy.has_ready() || self.shards.shards.iter().enumerate().any(foreign)
    }

    /// One logical pick for `core`: one trip down the shard's [`ShardLadder`], so a
    /// recorded `Pop`/`PopEmpty` event advances replayed policy state identically. Decided
    /// here is only what the ladder cannot know: a foreign shard is tried only when its
    /// ready counter is non-zero and `try_lock` succeeds, and whichever shard serves the
    /// task loses the entry from its `queued` map and its counters.
    fn pick_once(
        &mut self,
        core: CoreId,
        now: Instant,
    ) -> Option<(TaskMeta, Option<PickTier>, Option<TaskRef>)> {
        let (shards, h) = (self.shards, self.h);
        let ShardState {
            si,
            ladder,
            policy,
            queued,
            ..
        } = &mut *self.st;
        let (home, topo) = (*si, &shards.topo);
        ladder.pick(now, |step| {
            let (vi, aged) = match step {
                LadderStep::Local => {
                    let (meta, tier) = policy.pick_traced(topo, core, now)?;
                    shards.shards[home].ready.fetch_sub(1, Ordering::Relaxed);
                    return Some((meta, tier, queued.remove(&meta.id)));
                }
                LadderStep::ForeignAged(vi) => (vi, true),
                LadderStep::Steal(vi) => (vi, false),
            };
            if shards.shards[vi].ready.load(Ordering::Relaxed) == 0 {
                return None;
            }
            let mut vg = shards.try_lock(h, vi)?;
            let (meta, tier) = if aged {
                let meta = vg.policy.pick_aged(topo, core, now)?;
                (meta, Some(PickTier::Aged))
            } else {
                vg.policy.pick_traced(topo, core, now)?
            };
            shards.shards[vi].ready.fetch_sub(1, Ordering::Relaxed);
            Some((meta, tier, vg.queued.remove(&meta.id)))
        })
    }

    /// Pick until a live task is found, maintaining the ready gauge; stale entries (tasks
    /// detached while queued) are skipped and reconciled here.
    fn pick_live(&mut self, core: CoreId, now: Instant) -> Option<TaskRef> {
        while let Some((meta, tier, task)) = self.pick_once(core, now) {
            self.shards.ready_tasks.fetch_sub(1, Ordering::SeqCst);
            trace_event!(
                self.h,
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
        trace_event!(self.h, now, TraceEvent::PopEmpty { core });
        None
    }

    /// Try to dispatch a ready task onto an idle core of this shard.
    fn dispatch_core(&mut self, core: CoreId, now: Instant) {
        debug_assert!(matches!(
            self.st.slots[self.local_slot(core)],
            CoreSlot::Idle
        ));
        if self.h.shutting_down() {
            return;
        }
        if let Some(task) = self.pick_live(core, now) {
            self.grant(&task, core, false);
        }
    }

    /// Dispatch ready work onto every idle core of this shard (cheap early-exit when
    /// nothing is ready here or in a stealable foreign shard).
    fn dispatch_idle_cores(&mut self) {
        if self.h.shutting_down() {
            return;
        }
        let now = Instant::now();
        for li in 0..self.st.slots.len() {
            if !self.any_ready() {
                break;
            }
            if matches!(self.st.slots[li], CoreSlot::Idle) {
                let core = self.st.cores[li];
                self.dispatch_core(core, now);
            }
        }
    }
}
