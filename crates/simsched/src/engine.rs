//! The discrete-event simulation engine.
//!
//! The engine owns the simulated cores, threads and synchronization objects and advances
//! virtual time event by event. Scheduling decisions are delegated to a
//! [`crate::sched::SimPolicy`]; everything else — op execution, blocking,
//! barriers, busy-waiting, bandwidth contention, accounting — is handled here so that the
//! scheduling models are compared on exactly the same mechanics.

use crate::machine::Machine;
use crate::metrics::{BwSample, SimMetrics, SimReportData};
use crate::program::{BarrierId, BarrierWaitKind, EventId, LockId, Op, ProgramRef};
use crate::sched::{ReadyThread, SchedModel, SimPolicy};
use crate::thread::{BlockReason, ProcessDesc, ProcessId, SimThread, ThreadId, ThreadRunState};
use crate::time::SimTime;
use std::collections::{BTreeSet, BinaryHeap, HashMap, VecDeque};

/// Full report of a simulation run (re-exported as the crate-level `SimReport`).
pub type SimReport = SimReportData;

/// Kinds of scheduled events.
#[derive(Debug, Clone, PartialEq, Eq)]
enum EventKind {
    /// A thread arrives (becomes ready for the first time).
    Arrival(ThreadId),
    /// The running compute op of a thread finishes.
    OpComplete { thread: ThreadId, op_seq: u64 },
    /// The preemption quantum of a running thread expires.
    Quantum { thread: ThreadId, run_seq: u64 },
    /// A sleeping thread's deadline passes.
    SleepDone { thread: ThreadId },
    /// A busy-waiting thread reaches its yield point.
    SpinSlice { thread: ThreadId, op_seq: u64 },
}

/// An event in the priority queue (ordered by time, then insertion order).
#[derive(Debug, Clone, PartialEq, Eq)]
struct QueuedEvent {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse so the BinaryHeap (a max-heap) pops the earliest event first.
        other.time.cmp(&self.time).then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, Default)]
struct LockState {
    owner: Option<ThreadId>,
    waiters: VecDeque<ThreadId>,
}

#[derive(Debug, Default)]
struct BarrierState {
    arrived: usize,
    waiting: Vec<ThreadId>,
}

#[derive(Debug, Default)]
struct EventState {
    count: u64,
    waiters: Vec<(ThreadId, u64)>,
}

/// The simulation engine. Build it, add processes and threads, then [`Engine::run`].
pub struct Engine {
    machine: Machine,
    policy: Box<dyn SimPolicy>,
    processes: Vec<ProcessDesc>,
    threads: Vec<SimThread>,

    // Cores: bit `c % 64` of word `c / 64` is set while core `c` is idle.
    idle: Vec<u64>,
    core_idle_since: Vec<SimTime>,
    core_last_thread: Vec<Option<ThreadId>>,
    /// A thread became ready or a core was freed since the last dispatch — the only two
    /// events after which a pick that failed can succeed.
    dispatch_due: bool,

    // Event queue.
    queue: BinaryHeap<QueuedEvent>,
    event_counter: u64,

    // Synchronization objects.
    locks: HashMap<LockId, LockState>,
    barriers: HashMap<BarrierId, BarrierState>,
    events: HashMap<EventId, EventState>,

    // Bandwidth model. Ordered: the set is iterated to sum `f64` demands and to hand out
    // the event sequence numbers that break same-time ties, so its order is behaviour.
    computing: BTreeSet<ThreadId>,
    bw_factor: f64,
    bw_last_update: SimTime,
    bw_trace: Vec<BwSample>,

    /// First-touch home node of each process (set when its first thread is dispatched);
    /// drives the NUMA-locality compute penalty (`Machine::remote_numa_penalty`).
    process_home: Vec<Option<usize>>,

    now: SimTime,
    metrics: SimMetrics,
    max_sim_time: SimTime,
    deadlocked: bool,
}

impl Engine {
    /// Create an engine for the given machine and scheduling model.
    pub fn new(machine: Machine, model: &SchedModel) -> Self {
        let policy = model.build(&machine);
        let cores = machine.cores();
        Engine {
            policy,
            processes: Vec::new(),
            threads: Vec::new(),
            idle: (0..cores.div_ceil(64))
                .map(|w| u64::MAX >> (64 * (w + 1)).saturating_sub(cores))
                .collect(),
            core_idle_since: vec![SimTime::ZERO; cores],
            core_last_thread: vec![None; cores],
            dispatch_due: false,
            queue: BinaryHeap::new(),
            event_counter: 0,
            locks: HashMap::new(),
            barriers: HashMap::new(),
            events: HashMap::new(),
            computing: BTreeSet::new(),
            bw_factor: 1.0,
            bw_last_update: SimTime::ZERO,
            bw_trace: Vec::new(),
            process_home: Vec::new(),
            now: SimTime::ZERO,
            metrics: SimMetrics::default(),
            max_sim_time: SimTime::from_secs(24 * 3600),
            deadlocked: false,
            machine,
        }
    }

    /// Register a process with a scheduling weight (1.0 = nice 0).
    pub fn add_process(&mut self, name: impl Into<String>, weight: f64) -> ProcessId {
        let id = self.processes.len();
        self.processes
            .push(ProcessDesc::new(id, name).weight(weight));
        self.process_home.push(None);
        id
    }

    /// Restrict a process to a set of cores (NUMA-aware placement): its threads will only
    /// ever be dispatched there by the placement-aware policies (fair, SCHED_COOP). Cores
    /// outside the machine are dropped; an empty or fully out-of-range set clears the
    /// restriction. Call before [`Engine::run`].
    ///
    /// # Panics
    /// Panics if `process` is unknown.
    pub fn restrict_process(&mut self, process: ProcessId, cores: Vec<usize>) {
        let kept: Vec<usize> = cores
            .into_iter()
            .filter(|&c| c < self.machine.cores())
            .collect();
        self.processes[process].allowed_cores = (!kept.is_empty()).then_some(kept);
    }

    /// Add a thread arriving at time zero.
    pub fn add_thread(&mut self, process: ProcessId, program: ProgramRef) -> ThreadId {
        self.add_thread_at(process, program, SimTime::ZERO)
    }

    /// Add a thread arriving at `arrival`.
    pub fn add_thread_at(
        &mut self,
        process: ProcessId,
        program: ProgramRef,
        arrival: SimTime,
    ) -> ThreadId {
        assert!(process < self.processes.len(), "unknown process {process}");
        let id = self.threads.len();
        self.threads
            .push(SimThread::new(id, process, program, arrival));
        self.push_event(arrival, EventKind::Arrival(id));
        id
    }

    /// Add `count` threads of the same program arriving together at `arrival` — the bulk
    /// entry point scenario lowering uses for processes whose region threads all run the
    /// same program (imbalanced processes add distinct per-thread programs instead).
    pub fn add_threads_at(
        &mut self,
        process: ProcessId,
        program: ProgramRef,
        count: usize,
        arrival: SimTime,
    ) -> Vec<ThreadId> {
        (0..count)
            .map(|_| self.add_thread_at(process, ProgramRef::clone(&program), arrival))
            .collect()
    }

    /// Abort the run (reporting a deadlock) if simulated time exceeds this bound.
    pub fn set_max_sim_time(&mut self, t: SimTime) {
        self.max_sim_time = t;
    }

    /// Number of threads added so far.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    // -------------------------------------------------------------------------------------
    // Event queue helpers
    // -------------------------------------------------------------------------------------

    fn push_event(&mut self, time: SimTime, kind: EventKind) {
        self.event_counter += 1;
        self.queue.push(QueuedEvent {
            time,
            seq: self.event_counter,
            kind,
        });
    }

    // -------------------------------------------------------------------------------------
    // Bandwidth / compute progress model
    // -------------------------------------------------------------------------------------

    fn per_thread_factor(&self, tid: ThreadId) -> f64 {
        let bw = if self.threads[tid].current_bw <= 0.0 {
            1.0
        } else {
            self.bw_factor
        };
        bw * self.numa_factor(tid)
    }

    /// NUMA-locality factor of a computing thread: `1 / remote_numa_penalty` while it
    /// runs on a core outside its process's first-touch home node, `1.0` otherwise (or
    /// when the machine disables the model). Constant for the duration of one dispatch —
    /// the home node never changes and a migration passes through `leave_core`, which
    /// reschedules the completion with the new factor.
    fn numa_factor(&self, tid: ThreadId) -> f64 {
        if self.machine.remote_numa_penalty <= 1.0 {
            return 1.0;
        }
        let ThreadRunState::Running(core) = self.threads[tid].state else {
            return 1.0;
        };
        match self.process_home[self.threads[tid].process] {
            Some(home) if self.machine.socket_of(core) != home => {
                1.0 / self.machine.remote_numa_penalty
            }
            _ => 1.0,
        }
    }

    /// Advance the remaining work of every computing thread up to `to`.
    fn advance_compute_progress(&mut self, to: SimTime) {
        if to <= self.bw_last_update {
            return;
        }
        let elapsed = to - self.bw_last_update;
        let ids: Vec<ThreadId> = self.computing.iter().copied().collect();
        for tid in ids {
            let factor = self.per_thread_factor(tid);
            let progressed = elapsed.scale(factor);
            let t = &mut self.threads[tid];
            t.remaining_work = t.remaining_work.saturating_sub(progressed);
        }
        self.bw_last_update = to;
    }

    /// Recompute the bandwidth share factor after the set of computing threads changed, and
    /// reschedule the completion events of affected threads.
    fn bandwidth_changed(&mut self) {
        let total_demand: f64 = self
            .computing
            .iter()
            .map(|t| self.threads[*t].current_bw)
            .sum();
        let cap = self.machine.memory_bw_gbps;
        let new_factor = if total_demand > cap && total_demand > 0.0 {
            cap / total_demand
        } else {
            1.0
        };
        let consumed = total_demand.min(cap);
        if self
            .bw_trace
            .last()
            .map(|s| (s.gbps - consumed).abs() > 1e-9)
            .unwrap_or(true)
        {
            self.bw_trace.push(BwSample {
                time: self.now,
                gbps: consumed,
            });
        }
        let factor_changed = (new_factor - self.bw_factor).abs() > 1e-12;
        self.bw_factor = new_factor;
        // Reschedule completion of bandwidth-bound computing threads (their speed changed).
        if factor_changed {
            let ids: Vec<ThreadId> = self
                .computing
                .iter()
                .copied()
                .filter(|t| self.threads[*t].current_bw > 0.0)
                .collect();
            for tid in ids {
                self.schedule_op_complete(tid);
            }
        }
    }

    /// (Re)schedule the completion event of the compute op `tid` is currently running.
    fn schedule_op_complete(&mut self, tid: ThreadId) {
        self.threads[tid].op_seq += 1;
        let factor = self.per_thread_factor(tid).max(1e-9);
        let remaining = self.threads[tid].remaining_work;
        let finish = self.now + remaining.scale(1.0 / factor);
        let seq = self.threads[tid].op_seq;
        self.push_event(
            finish,
            EventKind::OpComplete {
                thread: tid,
                op_seq: seq,
            },
        );
    }

    /// Schedule the next yield point of a busy-waiter; a fresh `op_seq` invalidates any
    /// slice still pending. A plain `Spin` waiter never yields, so nothing is armed.
    fn arm_spin_slice(&mut self, tid: ThreadId) {
        if let Some(BarrierWaitKind::SpinYield { slice }) = self.threads[tid].spin_kind {
            self.threads[tid].op_seq += 1;
            let op_seq = self.threads[tid].op_seq;
            self.push_event(
                self.now + slice,
                EventKind::SpinSlice {
                    thread: tid,
                    op_seq,
                },
            );
        }
    }

    /// Arm the preemption quantum for the thread's current stay on its core (nothing under
    /// a cooperative policy).
    fn arm_quantum(&mut self, tid: ThreadId) {
        if let Some(q) = self.policy.preemption_quantum() {
            let run_seq = self.threads[tid].run_seq;
            self.push_event(
                self.now + q,
                EventKind::Quantum {
                    thread: tid,
                    run_seq,
                },
            );
        }
    }

    /// Whether a `sched_yield` by `tid` would hand its core to anyone: only threads
    /// eligible on *its* core make switching useful — work pinned to other cores cannot
    /// take it over.
    fn yield_is_useful(&self, tid: ThreadId) -> bool {
        match self.threads[tid].state {
            ThreadRunState::Running(core) => self.policy.has_ready_for(core),
            _ => self.policy.has_ready(),
        }
    }

    // -------------------------------------------------------------------------------------
    // Accounting helpers
    // -------------------------------------------------------------------------------------

    /// Close the current on-core accounting interval of a running thread.
    fn close_core_interval(&mut self, tid: ThreadId) {
        let since = self.threads[tid].on_core_since;
        let elapsed = self.now.saturating_sub(since);
        let weight = self.processes[self.threads[tid].process].weight;
        if self.threads[tid].spinning {
            self.threads[tid].stats.spin_time += elapsed;
            self.metrics.spin_time += elapsed;
        } else {
            self.threads[tid].stats.cpu_time += elapsed;
            self.metrics.busy_time += elapsed;
        }
        self.threads[tid].vruntime += elapsed.as_secs_f64() / weight;
        self.threads[tid].on_core_since = self.now;
    }

    /// Switch a running thread's accounting between useful work and spinning.
    fn set_spinning(&mut self, tid: ThreadId, spinning: bool) {
        if self.threads[tid].spinning != spinning {
            self.close_core_interval(tid);
            self.threads[tid].spinning = spinning;
        }
    }

    // -------------------------------------------------------------------------------------
    // Scheduling transitions
    // -------------------------------------------------------------------------------------

    fn make_ready(&mut self, tid: ThreadId) {
        let t = &mut self.threads[tid];
        t.state = ThreadRunState::Ready;
        t.ready_since = self.now;
        let ready = ReadyThread {
            id: tid,
            process: t.process,
            last_core: t.last_core,
            vruntime: t.vruntime,
        };
        self.policy.enqueue(ready, self.now);
        self.dispatch_due = true;
    }

    /// Remove a running thread from its core (shared tail of block/preempt/yield/finish).
    fn leave_core(&mut self, tid: ThreadId) {
        self.close_core_interval(tid);
        if let ThreadRunState::Running(core) = self.threads[tid].state {
            self.idle[core / 64] |= 1 << (core % 64);
            self.core_idle_since[core] = self.now;
            self.dispatch_due = true;
        }
        self.threads[tid].spinning = false;
        if self.computing.remove(&tid) {
            self.bandwidth_changed();
        }
        self.threads[tid].op_seq += 1;
        self.threads[tid].run_seq += 1;
    }

    fn block(&mut self, tid: ThreadId, reason: BlockReason) {
        self.leave_core(tid);
        let t = &mut self.threads[tid];
        t.state = ThreadRunState::Blocked;
        t.block_reason = reason;
    }

    fn deschedule_to_ready(&mut self, tid: ThreadId) {
        self.leave_core(tid);
        self.make_ready(tid);
    }

    /// Voluntarily hand the core to another ready thread (a `sched_yield`). The successor is
    /// picked *before* the yielder is requeued so an affinity-first policy cannot hand the
    /// core straight back to the yielder and starve everyone else.
    fn yield_core(&mut self, tid: ThreadId) {
        let core = match self.threads[tid].state {
            ThreadRunState::Running(c) => c,
            _ => return,
        };
        self.leave_core(tid);
        self.threads[tid].state = ThreadRunState::Ready;
        self.threads[tid].ready_since = self.now;
        let next = self.policy.pick(core, self.now);
        let t = &self.threads[tid];
        // A voluntary yield surrenders the affinity claim: requeueing with `last_core`
        // set would put the yielder in its core's queue, where affinity-first picking
        // hands the core back to it (or a fellow spinner) ahead of older ready threads —
        // a yield storm between barrier spinners then starves everybody else.
        let ready = ReadyThread {
            id: tid,
            process: t.process,
            last_core: None,
            vruntime: t.vruntime,
        };
        self.policy.enqueue(ready, self.now);
        if let Some(next) = next {
            self.place(next, core);
        }
    }

    fn preempt(&mut self, tid: ThreadId) {
        self.metrics.preemptions += 1;
        self.threads[tid].stats.preemptions += 1;
        if self.threads[tid].locks_held > 0 {
            self.metrics.lock_holder_preemptions += 1;
        }
        self.deschedule_to_ready(tid);
    }

    fn finish_thread(&mut self, tid: ThreadId) {
        self.leave_core(tid);
        let parent = self.threads[tid].parent;
        {
            let t = &mut self.threads[tid];
            t.state = ThreadRunState::Finished;
            t.block_reason = BlockReason::None;
            t.finish = Some(self.now);
        }
        self.metrics.threads_finished += 1;
        if let Some(p) = parent {
            self.threads[p].live_children -= 1;
            if self.threads[p].live_children == 0
                && self.threads[p].state == ThreadRunState::Blocked
                && self.threads[p].block_reason == BlockReason::Join
            {
                self.threads[p].block_reason = BlockReason::None;
                self.make_ready(p);
            }
        }
    }

    /// Dispatch ready threads onto idle cores, returning how many were placed. Two passes
    /// over the idle set in core order: first give every idle core a thread that prefers
    /// it (affinity), then fill the remaining idle cores with anything else (work
    /// conservation). Only picks that can succeed are attempted: nothing at all unless
    /// `dispatch_due`, a pass ends once nothing is queued (as the real
    /// shard's `dispatch_idle_cores` breaks out when nothing is ready), and a core is
    /// skipped when nothing queued may run there ([`SimPolicy::has_ready_for`]).
    fn dispatch_idle_cores(&mut self) -> usize {
        if !std::mem::take(&mut self.dispatch_due) {
            return 0;
        }
        let mut placed = 0;
        for affine in [true, false] {
            // Re-read the live set after every placement: a core freed mid-pass above the
            // cursor is visited, exactly as a plain `0..n` scan would.
            let mut from = 0;
            while let Some(core) = self.next_idle(from).filter(|_| self.policy.has_ready()) {
                from = core + 1;
                if !self.policy.has_ready_for(core) {
                    continue;
                }
                let picked = if affine {
                    self.policy.pick_affine(core, self.now)
                } else {
                    self.policy.pick(core, self.now)
                };
                if let Some(tid) = picked {
                    self.place(tid, core);
                    placed += 1;
                }
            }
        }
        placed
    }

    /// The lowest idle core at or above `from`.
    fn next_idle(&self, from: usize) -> Option<usize> {
        let mut word = from / 64;
        let mut bits = self.idle.get(word)? & (u64::MAX << (from % 64));
        while bits == 0 {
            word += 1;
            bits = *self.idle.get(word)?;
        }
        Some(word * 64 + bits.trailing_zeros() as usize)
    }

    fn is_idle(&self, core: usize) -> bool {
        self.idle[core / 64] & (1 << (core % 64)) != 0
    }

    /// Put a ready thread on an idle core and continue its program.
    fn place(&mut self, tid: ThreadId, core: usize) {
        debug_assert!(self.is_idle(core));
        debug_assert_eq!(self.threads[tid].state, ThreadRunState::Ready);
        // Idle-time accounting for the core.
        self.metrics.idle_time += self.now.saturating_sub(self.core_idle_since[core]);
        // Wait-time accounting for the thread.
        let waited = self.now.saturating_sub(self.threads[tid].ready_since);
        self.threads[tid].stats.wait_time += waited;
        // Context switch / migration overhead.
        let mut overhead = SimTime::ZERO;
        if self.core_last_thread[core] != Some(tid) {
            self.metrics.context_switches += 1;
            overhead += self.machine.ctx_switch_cost;
        }
        if let Some(prev) = self.threads[tid].last_core {
            if prev != core {
                self.metrics.migrations += 1;
                self.threads[tid].stats.migrations += 1;
                overhead += self.machine.migration_cost;
                if !self.machine.same_socket(prev, core) {
                    self.metrics.cross_socket_migrations += 1;
                    self.threads[tid].stats.cross_socket_migrations += 1;
                    overhead += self.machine.cross_socket_penalty;
                }
            }
        }
        self.threads[tid].pending_overhead += overhead;
        // First-touch: the process's home node is wherever its first thread lands.
        let process = self.threads[tid].process;
        if self.process_home[process].is_none() {
            self.process_home[process] = Some(self.machine.socket_of(core));
        }
        // Mount the thread.
        self.threads[tid].cores_used.insert(core);
        self.idle[core / 64] &= !(1 << (core % 64));
        self.core_last_thread[core] = Some(tid);
        self.threads[tid].state = ThreadRunState::Running(core);
        self.threads[tid].last_core = Some(core);
        self.threads[tid].stats.dispatches += 1;
        self.threads[tid].on_core_since = self.now;
        self.threads[tid].spinning = false;
        self.threads[tid].run_seq += 1;
        self.arm_quantum(tid);
        // Resume a preempted busy-waiter, or continue the program.
        if matches!(self.threads[tid].block_reason, BlockReason::BarrierSpin(_)) {
            self.set_spinning(tid, true);
            self.arm_spin_slice(tid);
            return;
        }
        self.continue_thread(tid);
    }

    /// Execute the thread's program from its current op until it blocks, yields, starts a
    /// timed phase or finishes. Must be called with the thread running on a core.
    fn continue_thread(&mut self, tid: ThreadId) {
        loop {
            let pc = self.threads[tid].pc;
            let program = ProgramRef::clone(&self.threads[tid].program);
            if pc >= program.ops().len() {
                self.finish_thread(tid);
                return;
            }
            match program.ops()[pc].clone() {
                Op::Compute { work, bw_gbps } => {
                    {
                        let t = &mut self.threads[tid];
                        if t.remaining_work == SimTime::ZERO {
                            t.remaining_work = work;
                        }
                        t.remaining_work += std::mem::take(&mut t.pending_overhead);
                        t.current_bw = bw_gbps;
                    }
                    self.computing.insert(tid);
                    self.bandwidth_changed();
                    self.schedule_op_complete(tid);
                    return;
                }
                Op::Lock(id) => {
                    let lock = self.locks.entry(id).or_default();
                    if lock.owner.is_none() {
                        lock.owner = Some(tid);
                        self.threads[tid].locks_held += 1;
                        self.threads[tid].pc += 1;
                    } else {
                        lock.waiters.push_back(tid);
                        self.block(tid, BlockReason::Lock(id));
                        return;
                    }
                }
                Op::Unlock(id) => {
                    self.threads[tid].pc += 1;
                    let next = {
                        let lock = self.locks.entry(id).or_default();
                        if lock.owner == Some(tid) {
                            let held = &mut self.threads[tid].locks_held;
                            *held = held.saturating_sub(1);
                            match lock.waiters.pop_front() {
                                Some(w) => {
                                    lock.owner = Some(w);
                                    Some(w)
                                }
                                None => {
                                    lock.owner = None;
                                    None
                                }
                            }
                        } else {
                            None
                        }
                    };
                    if let Some(w) = next {
                        // Ownership handoff: the waiter resumes past its Lock op.
                        self.threads[w].locks_held += 1;
                        self.threads[w].pc += 1;
                        self.threads[w].block_reason = BlockReason::None;
                        self.make_ready(w);
                    }
                }
                Op::Barrier {
                    id,
                    participants,
                    kind,
                } => {
                    self.threads[tid].pc += 1;
                    let (released, waiters) = {
                        let bar = self.barriers.entry(id).or_default();
                        bar.arrived += 1;
                        if bar.arrived >= participants {
                            bar.arrived = 0;
                            (true, std::mem::take(&mut bar.waiting))
                        } else {
                            bar.waiting.push(tid);
                            (false, Vec::new())
                        }
                    };
                    if released {
                        for w in waiters {
                            self.release_barrier_waiter(w);
                        }
                        // The last arriver continues immediately.
                    } else {
                        match kind {
                            BarrierWaitKind::Block => {
                                self.block(tid, BlockReason::Barrier(id));
                                return;
                            }
                            BarrierWaitKind::Spin | BarrierWaitKind::SpinYield { .. } => {
                                self.threads[tid].block_reason = BlockReason::BarrierSpin(id);
                                self.threads[tid].spin_kind = Some(kind);
                                self.set_spinning(tid, true);
                                self.arm_spin_slice(tid);
                                return;
                            }
                        }
                    }
                }
                Op::Sleep(d) => {
                    self.threads[tid].pc += 1;
                    self.block(tid, BlockReason::Sleep);
                    self.push_event(self.now + d, EventKind::SleepDone { thread: tid });
                    return;
                }
                Op::Yield => {
                    self.threads[tid].pc += 1;
                    self.metrics.yields += 1;
                    if self.yield_is_useful(tid) {
                        self.yield_core(tid);
                        return;
                    }
                }
                Op::Signal(id) => {
                    self.threads[tid].pc += 1;
                    let woken = {
                        let ev = self.events.entry(id).or_default();
                        ev.count += 1;
                        let count = ev.count;
                        let (ready, still): (Vec<_>, Vec<_>) = std::mem::take(&mut ev.waiters)
                            .into_iter()
                            .partition(|(_, need)| *need <= count);
                        ev.waiters = still;
                        ready
                    };
                    for (w, _) in woken {
                        self.threads[w].block_reason = BlockReason::None;
                        self.make_ready(w);
                    }
                }
                Op::WaitEvent { id, count } => {
                    let satisfied = {
                        let ev = self.events.entry(id).or_default();
                        if ev.count >= count {
                            true
                        } else {
                            ev.waiters.push((tid, count));
                            false
                        }
                    };
                    if satisfied {
                        self.threads[tid].pc += 1;
                    } else {
                        self.block(tid, BlockReason::Event(id));
                        return;
                    }
                }
                Op::Spawn {
                    program,
                    process,
                    count,
                } => {
                    self.threads[tid].pc += 1;
                    for _ in 0..count {
                        let child =
                            self.add_thread_at(process, ProgramRef::clone(&program), self.now);
                        self.threads[child].parent = Some(tid);
                        self.threads[tid].live_children += 1;
                    }
                }
                Op::JoinChildren => {
                    if self.threads[tid].live_children == 0 {
                        self.threads[tid].pc += 1;
                    } else {
                        self.block(tid, BlockReason::Join);
                        return;
                    }
                }
                Op::UnitMark(unit) => {
                    self.threads[tid].pc += 1;
                    self.threads[tid].unit_marks.push((unit, self.now));
                }
            }
        }
    }

    /// A barrier round completed: wake or resume one waiter.
    fn release_barrier_waiter(&mut self, w: ThreadId) {
        match self.threads[w].state {
            ThreadRunState::Blocked => {
                self.threads[w].block_reason = BlockReason::None;
                self.make_ready(w);
            }
            ThreadRunState::Running(_) => {
                // The waiter is busy-waiting on a core: it proceeds immediately.
                self.threads[w].block_reason = BlockReason::None;
                self.threads[w].spin_kind = None;
                self.threads[w].op_seq += 1; // invalidate any pending SpinSlice
                self.set_spinning(w, false);
                self.continue_thread(w);
            }
            ThreadRunState::Ready => {
                // A preempted busy-waiter: it simply continues past the barrier when it is
                // next dispatched.
                self.threads[w].block_reason = BlockReason::None;
                self.threads[w].spin_kind = None;
            }
            ThreadRunState::Finished | ThreadRunState::NotStarted => {}
        }
    }

    // -------------------------------------------------------------------------------------
    // Event handling and the main loop
    // -------------------------------------------------------------------------------------

    fn handle(&mut self, ev: QueuedEvent) {
        match ev.kind {
            EventKind::Arrival(tid) => {
                if self.threads[tid].state == ThreadRunState::NotStarted {
                    self.make_ready(tid);
                }
            }
            EventKind::OpComplete { thread, op_seq } => {
                if self.threads[thread].op_seq != op_seq {
                    return;
                }
                if !matches!(self.threads[thread].state, ThreadRunState::Running(_)) {
                    return;
                }
                self.computing.remove(&thread);
                self.bandwidth_changed();
                {
                    let t = &mut self.threads[thread];
                    t.remaining_work = SimTime::ZERO;
                    t.current_bw = 0.0;
                    t.pc += 1;
                }
                self.threads[thread].op_seq += 1;
                self.continue_thread(thread);
            }
            EventKind::Quantum { thread, run_seq } => {
                if self.threads[thread].run_seq != run_seq {
                    return;
                }
                let ThreadRunState::Running(core) = self.threads[thread].state else {
                    return;
                };
                // Preempt only when some queued thread may actually run on this core;
                // preempting for work that is pinned elsewhere would inflate the
                // preemption counters and re-dispatch the same thread.
                if self.policy.has_ready_for(core) {
                    self.preempt(thread);
                } else {
                    self.arm_quantum(thread);
                }
            }
            EventKind::SleepDone { thread } => {
                if self.threads[thread].state == ThreadRunState::Blocked
                    && self.threads[thread].block_reason == BlockReason::Sleep
                {
                    self.threads[thread].block_reason = BlockReason::None;
                    self.make_ready(thread);
                }
            }
            EventKind::SpinSlice { thread, op_seq } => {
                if self.threads[thread].op_seq != op_seq {
                    return;
                }
                if !matches!(self.threads[thread].state, ThreadRunState::Running(_))
                    || !matches!(
                        self.threads[thread].block_reason,
                        BlockReason::BarrierSpin(_)
                    )
                {
                    return;
                }
                // The spinning thread reaches its sched_yield.
                self.metrics.yields += 1;
                if self.yield_is_useful(thread) {
                    self.yield_core(thread);
                } else {
                    self.arm_spin_slice(thread);
                }
            }
        }
    }

    /// Run the simulation to completion and produce the report.
    pub fn run(mut self) -> SimReport {
        let processes = self.processes.clone();
        self.policy.init(&self.machine, &processes);
        loop {
            let Some(ev) = self.queue.pop() else {
                // The timed-event queue drained, but placing ready threads can still make
                // progress (a placement either schedules a new timed event or runs
                // instant ops — barrier arrivals, joins — to completion). Without this,
                // a policy with no periodic events (SCHED_COOP has no preemption
                // quantum) ends the run spuriously whenever a release chain frees cores
                // in the same step that emptied the queue, stranding Ready threads. A
                // placement that readied a thread or freed a core re-arms
                // `dispatch_due`; once a call places nothing, no later one can.
                if self.dispatch_idle_cores() == 0 {
                    break;
                }
                continue;
            };
            if ev.time > self.max_sim_time {
                self.deadlocked = true;
                break;
            }
            // Advance time and lazily update compute progress with the old factor.
            let new_now = ev.time.max(self.now);
            self.advance_compute_progress(new_now);
            self.now = new_now;
            self.handle(ev);
            self.dispatch_idle_cores();
            if self.metrics.threads_finished as usize == self.threads.len() {
                // Everything is done; leftover events (re-armed quanta, stale timers) must
                // not inflate the makespan.
                break;
            }
        }
        self.finalize()
    }

    fn finalize(mut self) -> SimReport {
        let makespan = self
            .threads
            .iter()
            .filter_map(|t| t.finish)
            .max()
            .unwrap_or(self.now);
        // Account residual idle time.
        for core in 0..self.machine.cores() {
            if self.is_idle(core) {
                self.metrics.idle_time += makespan.saturating_sub(self.core_idle_since[core]);
            }
        }
        if self.threads.iter().any(|t| !t.is_finished()) {
            self.deadlocked = true;
        }
        let mut report = SimReportData {
            makespan,
            metrics: self.metrics,
            deadlocked: self.deadlocked,
            bw_trace: self.bw_trace,
            ..Default::default()
        };
        for t in self.threads {
            report.thread_stats.insert(t.id, t.stats);
            report.thread_times.insert(t.id, (t.arrival, t.finish));
            if !t.unit_marks.is_empty() {
                report.unit_marks.insert(t.id, t.unit_marks);
            }
            report.thread_cores.insert(t.id, t.cores_used);
            if let Some(f) = t.finish {
                let entry = report
                    .process_completion
                    .entry(t.process)
                    .or_insert(SimTime::ZERO);
                *entry = (*entry).max(f);
            }
        }
        report
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("cores", &self.machine.cores())
            .field("threads", &self.threads.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn fair_engine(cores: usize) -> Engine {
        Engine::new(Machine::small(cores), &SchedModel::Fair)
    }

    fn coop_engine(cores: usize) -> Engine {
        Engine::new(Machine::small(cores), &SchedModel::coop_default())
    }

    #[test]
    fn single_thread_compute_runs_for_its_work() {
        let mut e = fair_engine(1);
        let p = e.add_process("p", 1.0);
        let prog = Program::new("t").compute(SimTime::from_millis(10)).build();
        e.add_thread(p, prog);
        let r = e.run();
        assert!(!r.deadlocked);
        assert_eq!(r.metrics.threads_finished, 1);
        // Makespan ≈ work + one context switch.
        assert!(r.makespan >= SimTime::from_millis(10));
        assert!(r.makespan < SimTime::from_millis(11));
    }

    #[test]
    fn two_independent_threads_on_two_cores_run_in_parallel() {
        for model in [SchedModel::Fair, SchedModel::coop_default()] {
            let mut e = Engine::new(Machine::small(2), &model);
            let p = e.add_process("p", 1.0);
            let prog = Program::new("t").compute(SimTime::from_millis(10)).build();
            e.add_thread(p, ProgramRef::clone(&prog));
            e.add_thread(p, prog);
            let r = e.run();
            assert!(!r.deadlocked);
            assert!(
                r.makespan < SimTime::from_millis(12),
                "parallel run should take ~10ms, got {}",
                r.makespan
            );
        }
    }

    #[test]
    fn oversubscribed_fair_time_slices_and_preempts() {
        let mut e = fair_engine(1);
        let p = e.add_process("p", 1.0);
        let prog = Program::new("t").compute(SimTime::from_millis(20)).build();
        e.add_thread(p, ProgramRef::clone(&prog));
        e.add_thread(p, prog);
        let r = e.run();
        assert!(!r.deadlocked);
        assert!(
            r.metrics.preemptions > 0,
            "fair scheduling must preempt on the quantum"
        );
        assert!(r.makespan >= SimTime::from_millis(40));
    }

    #[test]
    fn oversubscribed_coop_never_preempts() {
        let mut e = coop_engine(1);
        let p = e.add_process("p", 1.0);
        let prog = Program::new("t").compute(SimTime::from_millis(20)).build();
        e.add_thread(p, ProgramRef::clone(&prog));
        e.add_thread(p, prog);
        let r = e.run();
        assert!(!r.deadlocked);
        assert_eq!(r.metrics.preemptions, 0);
        assert!(r.makespan >= SimTime::from_millis(40));
    }

    #[test]
    fn lock_contention_serializes_critical_sections() {
        let mut e = fair_engine(2);
        let p = e.add_process("p", 1.0);
        let prog = Program::new("cs")
            .critical_section(1, SimTime::from_millis(5))
            .build();
        for _ in 0..4 {
            e.add_thread(p, ProgramRef::clone(&prog));
        }
        let r = e.run();
        assert!(!r.deadlocked);
        // 4 critical sections of 5ms on one lock → at least 20ms regardless of 2 cores.
        assert!(r.makespan >= SimTime::from_millis(20));
    }

    #[test]
    fn blocking_barrier_synchronizes() {
        let mut e = coop_engine(2);
        let p = e.add_process("p", 1.0);
        let prog = Program::new("b")
            .compute(SimTime::from_millis(1))
            .barrier(1, 3, BarrierWaitKind::Block)
            .compute(SimTime::from_millis(1))
            .build();
        for _ in 0..3 {
            e.add_thread(p, ProgramRef::clone(&prog));
        }
        let r = e.run();
        assert!(!r.deadlocked);
        assert_eq!(r.metrics.threads_finished, 3);
    }

    #[test]
    fn spin_barrier_without_yield_deadlocks_under_coop() {
        // 2 participants, 1 core, cooperative scheduling, pure spinning: the paper's §4.4
        // limitation — the spinner never releases the core, the second thread never runs.
        let mut e = coop_engine(1);
        let p = e.add_process("p", 1.0);
        let prog = Program::new("b")
            .barrier(1, 2, BarrierWaitKind::Spin)
            .build();
        e.add_thread(p, ProgramRef::clone(&prog));
        e.add_thread(p, prog);
        e.set_max_sim_time(SimTime::from_secs(10));
        let r = e.run();
        assert!(
            r.deadlocked,
            "pure spin barrier must deadlock under SCHED_COOP when oversubscribed"
        );
    }

    #[test]
    fn spin_barrier_with_yield_completes_under_coop() {
        let mut e = coop_engine(1);
        let p = e.add_process("p", 1.0);
        let prog = Program::new("b")
            .barrier(
                1,
                2,
                BarrierWaitKind::SpinYield {
                    slice: SimTime::from_micros(50),
                },
            )
            .compute(SimTime::from_millis(1))
            .build();
        e.add_thread(p, ProgramRef::clone(&prog));
        e.add_thread(p, prog);
        let r = e.run();
        assert!(
            !r.deadlocked,
            "yielding busy-wait must let the second thread run"
        );
        assert_eq!(r.metrics.threads_finished, 2);
        assert!(r.metrics.yields > 0);
    }

    #[test]
    fn spin_barrier_completes_under_fair_but_wastes_time() {
        let mut e = fair_engine(1);
        let p = e.add_process("p", 1.0);
        let prog = Program::new("b")
            .barrier(1, 2, BarrierWaitKind::Spin)
            .compute(SimTime::from_millis(1))
            .build();
        e.add_thread(p, ProgramRef::clone(&prog));
        e.add_thread(p, prog);
        let r = e.run();
        assert!(
            !r.deadlocked,
            "the preemptive scheduler masks the busy-wait into a performance problem"
        );
        assert!(r.metrics.spin_time > SimTime::ZERO);
        // The spinner burnt at least one quantum before the other thread could arrive.
        assert!(r.makespan >= Machine::small(1).preemption_quantum);
    }

    #[test]
    fn sleep_releases_the_core() {
        let mut e = coop_engine(1);
        let p = e.add_process("p", 1.0);
        let sleeper = Program::new("s")
            .sleep(SimTime::from_millis(50))
            .compute(SimTime::from_millis(1))
            .build();
        let worker = Program::new("w").compute(SimTime::from_millis(5)).build();
        e.add_thread(p, sleeper);
        e.add_thread(p, worker);
        let r = e.run();
        assert!(!r.deadlocked);
        // The worker must have finished long before the sleeper woke up.
        let worker_finish = r.thread_times[&1].1.unwrap();
        assert!(worker_finish < SimTime::from_millis(20));
        assert!(r.makespan >= SimTime::from_millis(50));
    }

    #[test]
    fn events_signal_and_wait() {
        let mut e = coop_engine(2);
        let p = e.add_process("p", 1.0);
        let producer = Program::new("prod")
            .compute(SimTime::from_millis(2))
            .signal(7)
            .compute(SimTime::from_millis(1))
            .signal(7)
            .build();
        let consumer = Program::new("cons")
            .wait_event(7, 2)
            .compute(SimTime::from_millis(1))
            .build();
        e.add_thread(p, consumer);
        e.add_thread(p, producer);
        let r = e.run();
        assert!(!r.deadlocked);
        let consumer_finish = r.thread_times[&0].1.unwrap();
        assert!(
            consumer_finish >= SimTime::from_millis(3),
            "consumer must wait for both signals"
        );
    }

    #[test]
    fn spawn_and_join_children() {
        let mut e = coop_engine(2);
        let p = e.add_process("p", 1.0);
        let child = Program::new("child")
            .compute(SimTime::from_millis(3))
            .build();
        let parent = Program::new("parent")
            .compute(SimTime::from_millis(1))
            .spawn(child, p, 4)
            .join_children()
            .compute(SimTime::from_millis(1))
            .build();
        e.add_thread(p, parent);
        let r = e.run();
        assert!(!r.deadlocked);
        assert_eq!(r.metrics.threads_finished, 5);
        // 4 children of 3ms on 2 cores (parent's core is free while it joins) → ≥ 6ms.
        assert!(r.makespan >= SimTime::from_millis(7));
    }

    #[test]
    fn bandwidth_contention_slows_compute() {
        // Two threads each demanding 80 GB/s on a 100 GB/s machine: together they exceed the
        // cap and must take ~1.6x longer than alone.
        let mut solo = fair_engine(2);
        let p = solo.add_process("p", 1.0);
        let prog = Program::new("bw")
            .compute_bw(SimTime::from_millis(10), 80.0)
            .build();
        solo.add_thread(p, ProgramRef::clone(&prog));
        let solo_time = solo.run().makespan;

        let mut both = fair_engine(2);
        let p = both.add_process("p", 1.0);
        both.add_thread(p, ProgramRef::clone(&prog));
        both.add_thread(p, prog);
        let both_r = both.run();
        assert!(!both_r.deadlocked);
        assert!(
            both_r.makespan.as_secs_f64() > solo_time.as_secs_f64() * 1.4,
            "bandwidth-bound threads must slow each other down: solo {solo_time}, both {}",
            both_r.makespan
        );
        assert!(both_r.peak_bandwidth() <= 100.0 + 1e-9);
        assert!(both_r.average_bandwidth() > 0.0);
    }

    #[test]
    fn heterogeneous_bandwidth_demands_repeat_exactly() {
        // Seven distinct demands against a 1 GB/s cap: the computing set is iterated to sum
        // the `f64` demands and to hand out the event sequence numbers that break same-time
        // ties, so unless it is ordered the whole report depends on `RandomState`.
        let run = || {
            let mut machine = Machine::small(8);
            machine.memory_bw_gbps = 1.0;
            let mut e = Engine::new(machine, &SchedModel::Fair);
            let p = e.add_process("p", 1.0);
            for t in 0..16u64 {
                let demand = 0.1 + 0.37 * (t % 7) as f64;
                let prog = Program::new("bw")
                    .compute_bw(SimTime::from_micros(900 + 10 * t), demand)
                    .compute_bw(SimTime::from_micros(400), demand);
                e.add_thread(p, prog.build());
            }
            format!("{:?}", e.run())
        };
        let first = run();
        for repeat in 1..16 {
            assert!(
                run() == first,
                "repeat {repeat} produced a different SimReport"
            );
        }
    }

    #[test]
    fn process_weights_bias_the_fair_scheduler() {
        // Two processes on one core, one with 10x the weight: the heavy one finishes a long
        // run earlier.
        let mut e = fair_engine(1);
        let heavy = e.add_process("heavy", 1.0);
        let light = e.add_process("light", 0.1);
        let prog = Program::new("t").compute(SimTime::from_millis(50)).build();
        let h = e.add_thread(heavy, ProgramRef::clone(&prog));
        let l = e.add_thread(light, prog);
        let r = e.run();
        let h_fin = r.thread_times[&h].1.unwrap();
        let l_fin = r.thread_times[&l].1.unwrap();
        assert!(
            h_fin < l_fin,
            "heavier process must finish first ({h_fin} vs {l_fin})"
        );
    }

    #[test]
    fn lock_holder_preemption_is_detected_under_fair() {
        // Many threads contending a lock with long critical sections on one core: the fair
        // scheduler will sooner or later preempt the holder.
        let mut e = fair_engine(1);
        let p = e.add_process("p", 1.0);
        let prog = Program::new("cs")
            .critical_section(1, SimTime::from_millis(10))
            .build();
        for _ in 0..4 {
            e.add_thread(p, ProgramRef::clone(&prog));
        }
        let r = e.run();
        assert!(r.metrics.lock_holder_preemptions > 0);
    }

    #[test]
    fn report_process_completion_and_turnaround() {
        let mut e = coop_engine(2);
        let pa = e.add_process("a", 1.0);
        let pb = e.add_process("b", 1.0);
        let prog = Program::new("t").compute(SimTime::from_millis(5)).build();
        e.add_thread(pa, ProgramRef::clone(&prog));
        e.add_thread_at(pb, prog, SimTime::from_millis(10));
        let r = e.run();
        assert_eq!(r.process_completion.len(), 2);
        assert!(r.process_completion[&pb] > r.process_completion[&pa]);
        let mean = r.mean_turnaround(|_| true).unwrap();
        assert!(mean >= SimTime::from_millis(5));
    }

    #[test]
    fn unit_marks_stamp_virtual_time_without_cost() {
        let mut e = coop_engine(1);
        let p = e.add_process("p", 1.0);
        let prog = Program::new("m")
            .compute(SimTime::from_millis(3))
            .unit_mark(0)
            .compute(SimTime::from_millis(5))
            .unit_mark(1)
            .build();
        e.add_thread(p, prog);
        let r = e.run();
        assert!(!r.deadlocked);
        let marks = &r.unit_marks[&0];
        assert_eq!(marks.len(), 2);
        assert_eq!(marks[0].0, 0);
        assert_eq!(marks[1].0, 1);
        // Marks land at the compute boundaries (plus the context-switch overhead) and the
        // second is ~5ms after the first — the mark itself costs nothing.
        assert!(marks[0].1 >= SimTime::from_millis(3));
        assert!(marks[0].1 < SimTime::from_millis(4));
        let delta = marks[1].1.saturating_sub(marks[0].1);
        assert_eq!(delta, SimTime::from_millis(5));
        assert_eq!(marks[1].1, r.makespan);
        // The placement trace records the single core.
        assert_eq!(r.thread_cores[&0].iter().copied().collect::<Vec<_>>(), [0]);
    }

    #[test]
    fn restricted_processes_never_leave_their_cores() {
        // Two processes pinned to opposite sockets, both oversubscribing their half: under
        // both placement-aware policies no thread may ever be dispatched outside its pin,
        // so the measured cross-socket migration counter must be exactly zero.
        for model in [SchedModel::Fair, SchedModel::coop_default()] {
            let mut e = Engine::new(Machine::small_numa(4, 2), &model);
            let a = e.add_process("a", 1.0);
            let b = e.add_process("b", 1.0);
            e.restrict_process(a, vec![0, 1]);
            e.restrict_process(b, vec![2, 3]);
            let body = Program::new("phase")
                .compute(SimTime::from_millis(1))
                .sleep(SimTime::from_millis(1));
            let prog = Program::new("t").repeat(8, &body).build();
            for _ in 0..4 {
                e.add_thread(a, ProgramRef::clone(&prog));
                e.add_thread(b, ProgramRef::clone(&prog));
            }
            let r = e.run();
            assert!(!r.deadlocked, "{model:?}");
            for (tid, cores) in &r.thread_cores {
                let node0 = tid % 2 == 0; // threads alternate a, b, a, b, …
                for &c in cores {
                    assert_eq!(
                        c < 2,
                        node0,
                        "thread {tid} escaped its pin to core {c} under {model:?}"
                    );
                }
            }
            assert_eq!(r.metrics.cross_socket_migrations, 0, "{model:?}");
            let (migs, cross) = r.migrations_for(&[0, 2, 4, 6]);
            assert_eq!(cross, 0);
            let _ = migs;
        }
    }

    #[test]
    fn work_pinned_elsewhere_does_not_preempt_a_full_node() {
        // Process A exactly fills node 0; process B is pinned to node 1 and
        // oversubscribes it, so B's masked queue is never empty. A's threads must not be
        // quantum-preempted for work that can only run on node 1 — only B's threads pay
        // preemptions.
        let mut e = Engine::new(Machine::small_numa(4, 2), &SchedModel::Fair);
        let a = e.add_process("a", 1.0);
        let b = e.add_process("b", 1.0);
        e.restrict_process(a, vec![0, 1]);
        e.restrict_process(b, vec![2, 3]);
        let prog = Program::new("t").compute(SimTime::from_millis(20)).build();
        let a_threads: Vec<ThreadId> = (0..2)
            .map(|_| e.add_thread(a, ProgramRef::clone(&prog)))
            .collect();
        for _ in 0..4 {
            e.add_thread(b, ProgramRef::clone(&prog));
        }
        let r = e.run();
        assert!(!r.deadlocked);
        for tid in &a_threads {
            assert_eq!(
                r.thread_stats[tid].preemptions, 0,
                "thread {tid} of the full node was preempted for unrunnable work"
            );
        }
        let b_preemptions: u64 = r
            .thread_stats
            .iter()
            .filter(|(tid, _)| !a_threads.contains(tid))
            .map(|(_, s)| s.preemptions)
            .sum();
        assert!(
            b_preemptions > 0,
            "the oversubscribed pinned node must still time-slice"
        );
    }

    #[test]
    fn remote_numa_penalty_slows_off_home_compute() {
        // Two threads of one process on a 2-core, 2-socket machine with a 2x remote
        // penalty: the first dispatch (core 0) fixes the home node; the thread mounted on
        // core 1 computes at half speed.
        let mut machine = Machine::small_numa(2, 2);
        machine.remote_numa_penalty = 2.0;
        let mut e = Engine::new(machine, &SchedModel::coop_default());
        let p = e.add_process("p", 1.0);
        let prog = Program::new("t").compute(SimTime::from_millis(10)).build();
        let local = e.add_thread(p, ProgramRef::clone(&prog));
        let remote = e.add_thread(p, prog);
        let r = e.run();
        assert!(!r.deadlocked);
        let local_fin = r.thread_times[&local].1.unwrap();
        let remote_fin = r.thread_times[&remote].1.unwrap();
        assert!(
            local_fin < SimTime::from_millis(11),
            "home-node thread runs at full speed ({local_fin})"
        );
        assert!(
            remote_fin >= SimTime::from_millis(20),
            "remote thread must take ~2x ({remote_fin})"
        );
        assert!(remote_fin < SimTime::from_millis(22));
        // With the penalty disabled (the default), both finish together.
        let mut e = Engine::new(Machine::small_numa(2, 2), &SchedModel::coop_default());
        let p = e.add_process("p", 1.0);
        let prog = Program::new("t").compute(SimTime::from_millis(10)).build();
        e.add_thread(p, ProgramRef::clone(&prog));
        e.add_thread(p, prog);
        let r = e.run();
        assert!(r.makespan < SimTime::from_millis(11));
    }

    #[test]
    fn cross_socket_migrations_are_counted_when_they_happen() {
        // A staggered arrival on a 2-core, 2-socket machine forces one deterministic
        // cross-socket hop under the fair policy: A and B mount cores 0/1 at t=0, C
        // arrives at 1 ms and queues; at the 4 ms quantum A is preempted from core 0 (C
        // takes it, lowest clamped vruntime), B is preempted from core 1 and A — now the
        // lowest-vruntime ready thread — is dispatched there: core 0 → core 1 crosses
        // the socket boundary.
        let mut e = Engine::new(Machine::small_numa(2, 2), &SchedModel::Fair);
        let p = e.add_process("p", 1.0);
        let long = Program::new("long")
            .compute(SimTime::from_millis(30))
            .build();
        e.add_thread(
            p,
            Program::new("a").compute(SimTime::from_millis(10)).build(),
        );
        e.add_thread(p, ProgramRef::clone(&long));
        e.add_thread_at(p, long, SimTime::from_millis(1));
        let r = e.run();
        assert!(!r.deadlocked);
        let total_cross: u64 = r
            .thread_stats
            .values()
            .map(|s| s.cross_socket_migrations)
            .sum();
        assert_eq!(r.metrics.cross_socket_migrations, total_cross);
        assert!(
            total_cross > 0,
            "an unpinned oversubscribed run on a 2-socket machine must migrate across \
             sockets at least once"
        );
        assert!(r.metrics.migrations >= total_cross);
    }

    #[test]
    fn coop_affinity_keeps_threads_on_their_core() {
        let mut e = coop_engine(2);
        let p = e.add_process("p", 1.0);
        // Threads that repeatedly compute briefly and sleep: each wake-up should go back to
        // the same core under SCHED_COOP.
        let body = Program::new("phase")
            .compute(SimTime::from_millis(1))
            .sleep(SimTime::from_millis(1));
        let prog = Program::new("t").repeat(10, &body).build();
        e.add_thread(p, ProgramRef::clone(&prog));
        e.add_thread(p, prog);
        let r = e.run();
        assert!(!r.deadlocked);
        let total_migrations: u64 = r.thread_stats.values().map(|s| s.migrations).sum();
        assert_eq!(
            total_migrations, 0,
            "SCHED_COOP must keep waking threads on their preferred cores"
        );
    }

    /// Counts the picks of the policy it wraps and panics on a pick offered to a core where
    /// [`SimPolicy::has_ready_for`] is false — one that cannot succeed.
    struct Disciplined {
        inner: Box<dyn SimPolicy>,
        picks: Arc<AtomicUsize>,
    }

    impl Disciplined {
        fn check(&self, core: usize) {
            assert!(
                self.inner.has_ready_for(core),
                "pick offered to core {core}"
            );
            self.picks.fetch_add(1, Ordering::Relaxed);
        }
    }

    impl SimPolicy for Disciplined {
        fn init(&mut self, machine: &Machine, processes: &[ProcessDesc]) {
            self.inner.init(machine, processes);
        }
        fn enqueue(&mut self, thread: ReadyThread, now: SimTime) {
            self.inner.enqueue(thread, now);
        }
        fn pick(&mut self, core: usize, now: SimTime) -> Option<ThreadId> {
            self.check(core);
            self.inner.pick(core, now)
        }
        fn pick_affine(&mut self, core: usize, now: SimTime) -> Option<ThreadId> {
            self.check(core);
            self.inner.pick_affine(core, now)
        }
        fn has_ready(&self) -> bool {
            self.inner.has_ready()
        }
        fn has_ready_for(&self, core: usize) -> bool {
            self.inner.has_ready_for(core)
        }
        fn ready_count(&self) -> usize {
            self.inner.ready_count()
        }
        fn preemption_quantum(&self) -> Option<SimTime> {
            self.inner.preemption_quantum()
        }
    }

    /// An engine whose policy is wrapped in [`Disciplined`], and its pick counter.
    fn disciplined(machine: Machine, model: &SchedModel) -> (Engine, Arc<AtomicUsize>) {
        let mut e = Engine::new(machine, model);
        let picks = Arc::new(AtomicUsize::new(0));
        e.policy = Box::new(Disciplined {
            inner: model.build(&e.machine),
            picks: Arc::clone(&picks),
        });
        (e, picks)
    }

    #[test]
    fn dispatch_only_offers_picks_that_can_succeed() {
        // Pinned and free processes oversubscribing a two-socket machine with every kind of
        // wake-up: locks, blocking and yielding barriers, sleeps, yields, spawn/join.
        let partition = SchedModel::Partitioned {
            assignments: vec![(0, vec![0, 1, 2]), (1, vec![3, 4, 5])],
        };
        for model in [SchedModel::Fair, SchedModel::coop_default(), partition] {
            let (mut e, picks) = disciplined(Machine::small_numa(6, 2), &model);
            let pinned = e.add_process("pinned", 1.0);
            let free = e.add_process("free", 0.5);
            e.restrict_process(pinned, vec![4, 5]);
            let spin = BarrierWaitKind::SpinYield {
                slice: SimTime::from_micros(50),
            };
            let body = Program::new("unit")
                .compute(SimTime::from_millis(3))
                .critical_section(1, SimTime::from_micros(300))
                .barrier(1, 4, spin)
                .sleep(SimTime::from_millis(2))
                .yield_now();
            let prog = Program::new("p").repeat(3, &body).build();
            for t in 0..4 {
                e.add_thread_at(pinned, ProgramRef::clone(&prog), SimTime::from_micros(t));
            }
            let child = Program::new("c").compute(SimTime::from_millis(2)).build();
            let parent = Program::new("parent")
                .spawn(child, free, 5)
                .join_children()
                .barrier(2, 2, BarrierWaitKind::Block)
                .build();
            e.add_thread(free, ProgramRef::clone(&parent));
            e.add_thread_at(free, parent, SimTime::from_millis(1));
            let r = e.run();
            assert!(!r.deadlocked, "{model:?}");
            let dispatches: u64 = r.thread_stats.values().map(|s| s.dispatches).sum();
            let picks = picks.load(Ordering::Relaxed) as u64;
            assert!(
                picks >= dispatches,
                "{model:?}: {picks} picks, {dispatches} placements"
            );
        }
    }

    #[test]
    fn an_uncontended_run_costs_no_idle_core_picks() {
        // One thread computing 1 s on 130 cores under the 4 ms quantum: 250 quantum expiries
        // (each used to poll the 129 idle cores twice) and not one pick that can succeed.
        let (mut e, picks) = disciplined(Machine::small(130), &SchedModel::Fair);
        let p = e.add_process("p", 1.0);
        e.add_thread(p, Program::new("t").compute(SimTime::from_secs(1)).build());
        let r = e.run();
        assert!(!r.deadlocked);
        assert_eq!(r.metrics.preemptions, 0);
        assert!(picks.load(Ordering::Relaxed) <= 2);
    }
}
