//! Deterministic, seeded schedule fuzzing of the real [`Scheduler`].
//!
//! The fuzzer drives a single-threaded [`Scheduler`] through a generated sequence of
//! [`FuzzOp`]s — the scheduler's *non-blocking* entry points only (`submit`,
//! `rescue_drain`, `detach`, `set_process_domain`, `deregister_process`, `kill_process`,
//! `watchdog_scan`, `shutdown`, and the non-blocking half of `pause`; the blocking points
//! `attach`/`pause`/`yield_now`/`waitfor` would park the fuzzing thread in `wait_grant`
//! forever) — and checks a set of invariants after **every** op:
//!
//! * **No double grant** — at most one running task per core ([`Violation::DoubleGrant`]).
//! * **Gauge consistency** — the busy-core gauge equals the number of running tasks
//!   ([`Violation::BusyGaugeMismatch`]).
//! * **Domains respected** — a task newly granted while its process is pinned must land
//!   inside the pinned core set ([`Violation::DomainViolation`]). Only *new* grants are
//!   checked: a pin does not preempt tasks already running outside it (domains are
//!   evaluated at scheduling points, paper §4.1).
//! * **No ghost grants** — a task must never be granted after its process was
//!   deregistered ([`Violation::GhostGrant`]).
//! * **No lost task** — at quiescence (all running work detached, queues drained) every
//!   task the model still expects to run must have been granted at least once
//!   ([`Violation::LostTask`]), and the lock-free ready gauge must have reconciled to
//!   zero ([`Violation::ReadyGaugeStuck`]).
//! * **No orphaned waiter** — at quiescence no task of a dead (deregistered or killed)
//!   process may be left parked: ungranted, unreleased, with nothing that will ever wake
//!   it ([`Violation::OrphanedWaiter`]).
//! * **Counters match the trace** — in a recorded run ([`execute_recorded`]), every
//!   counter or stage histogram with a trace-event twin equals the tally of its events
//!   at quiescence ([`Violation::CounterTraceMismatch`]).
//!
//! Sequences come from a seeded [`StdRng`], so every failure is reproducible from
//! `(config, seed)` alone, and [`shrink`] reduces a failing sequence to a (locally)
//! minimal one with a ddmin-style greedy pass. [`Mutation::DropSubmit`] injects a
//! lost-submit bug into an otherwise healthy run — the canary that proves the harness
//! actually catches lost tasks.
//!
//! The interleavings explored here are exactly the record/replay choice points of
//! [`crate::sched_trace`]: submits racing intake drains (`submit` vs `rescue_drain`),
//! grants delayed behind `Detach`-driven dispatches, domain changes and deregistrations
//! between placement decisions, and shutdown cutting through all of them.
//!
//! [`Scheduler`]: crate::scheduler::Scheduler

use crate::config::NosvConfig;
use crate::faults::{FaultPlan, FaultSite, FaultSpec};
use crate::obs::StatsSnapshot;
use crate::process::ProcessId;
use crate::sched_trace::{TraceEntry, TraceEvent, TraceMeta, TraceRecorder};
use crate::scheduler::Scheduler;
use crate::task::{TaskId, TaskRef, TaskState};
use crate::topology::{CoreId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::time::Duration;

/// Shape of a fuzzed scheduler instance and op sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzConfig {
    /// Number of virtual cores.
    pub cores: usize,
    /// Number of NUMA nodes (cores are split evenly).
    pub nodes: usize,
    /// Number of process domains registered up front.
    pub processes: usize,
    /// Number of task slots; slot `i` belongs to process `i % processes`.
    pub slots: usize,
    /// The per-process quantum / aging-valve window.
    pub quantum: Duration,
    /// Ops per generated sequence.
    pub ops: usize,
    /// Whether [`FuzzOp::Shutdown`] may be generated (ops after it keep running, which
    /// exercises the shutdown-vs-submit interleavings).
    pub allow_shutdown: bool,
    /// Bias generation towards domain pin/unpin churn.
    pub pin_bias: bool,
}

impl FuzzConfig {
    /// The baseline configuration: 4 cores / 2 nodes (two scheduler shards, so steals and
    /// shard routing are always in play; the harness is serial, so every `try_lock`
    /// succeeds and recorded schedules replay deterministically), 3 processes, 8 slots, a
    /// quantum far longer than any run (no valve ever fires), no shutdown.
    pub fn base() -> Self {
        FuzzConfig {
            cores: 4,
            nodes: 2,
            processes: 3,
            slots: 8,
            quantum: Duration::from_millis(20),
            ops: 64,
            allow_shutdown: false,
            pin_bias: false,
        }
    }

    /// Oversubscribed single-core variant with a 1 ns quantum: every pop crosses the
    /// quantum and aging-valve deadlines, exercising the anti-starvation tiers — and the
    /// one config that runs the one-shard scheduler.
    pub fn valve() -> Self {
        FuzzConfig {
            cores: 1,
            nodes: 1,
            slots: 12,
            quantum: Duration::from_nanos(1),
            ..Self::base()
        }
    }

    /// Like [`FuzzConfig::base`] but [`FuzzOp::Shutdown`] can appear mid-sequence, with
    /// submits and domain changes continuing after it (the multi-shard teardown paths).
    pub fn shutdown_biased() -> Self {
        FuzzConfig {
            allow_shutdown: true,
            ..Self::base()
        }
    }

    /// Domain-churn variant: placement pins and unpins dominate the op mix.
    pub fn domain_heavy() -> Self {
        FuzzConfig {
            pin_bias: true,
            ..Self::base()
        }
    }

    /// [`FuzzConfig::valve`]'s 1 ns quantum on the 4-core / 2-node topology: the
    /// *cross-shard* aging probe fires on essentially every pop, so the foreign aging
    /// rung and the steal rung compete constantly.
    pub fn cross_valve() -> Self {
        FuzzConfig {
            slots: 12,
            quantum: Duration::from_nanos(1),
            ..Self::base()
        }
    }
}

/// One fuzzed scheduler operation. Slots index the harness's task table (slot `i` maps to
/// process `i % processes`); process and node indices are taken modulo the configured
/// counts, so any `usize` is valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzOp {
    /// Submit the slot's task via the intake path (creating the task first if
    /// the slot is empty).
    Submit {
        /// Task-slot index.
        slot: usize,
    },
    /// Run [`Scheduler::rescue_drain`]: an artificial scheduling point on every shard —
    /// whatever sits in the intakes is drained and placed right now instead of at the
    /// next organic scheduling point.
    RescueDrain,
    /// Detach the slot's task (no-op on an empty slot).
    Detach {
        /// Task-slot index.
        slot: usize,
    },
    /// Pause the slot's task if it is running: give up its core as [`Scheduler::pause`]
    /// does, without waiting for the next grant. The task stays blocked until a later
    /// [`FuzzOp::Submit`], which carries its last core into that core's shard (no-op on
    /// an empty or non-running slot).
    Pause {
        /// Task-slot index.
        slot: usize,
    },
    /// Pin a process to the cores of one NUMA node.
    PinNode {
        /// Process index (modulo the process count).
        proc_index: usize,
        /// NUMA node index (modulo the node count).
        node: usize,
    },
    /// Clear a process's placement domain.
    Unpin {
        /// Process index (modulo the process count).
        proc_index: usize,
    },
    /// Deregister a process; its queued tasks are released, running ones keep their cores.
    Deregister {
        /// Process index (modulo the process count).
        proc_index: usize,
    },
    /// Forcibly kill a process via [`Scheduler::kill_process`]: queued work reclaimed,
    /// running tasks evicted, waiters released.
    KillProcess {
        /// Process index (modulo the process count).
        proc_index: usize,
    },
    /// Run a zero-deadline [`Scheduler::watchdog_scan`] (flags every busy core once;
    /// report-only, so it must never perturb any other invariant).
    WatchdogScan,
    /// Shut the scheduler down mid-sequence. Later ops still execute against the
    /// shut-down scheduler.
    Shutdown,
}

impl fmt::Display for FuzzOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuzzOp::Submit { slot } => write!(f, "submit(slot {slot})"),
            FuzzOp::RescueDrain => write!(f, "rescue_drain"),
            FuzzOp::Detach { slot } => write!(f, "detach(slot {slot})"),
            FuzzOp::Pause { slot } => write!(f, "pause(slot {slot})"),
            FuzzOp::PinNode { proc_index, node } => {
                write!(f, "pin(proc {proc_index} -> node {node})")
            }
            FuzzOp::Unpin { proc_index } => write!(f, "unpin(proc {proc_index})"),
            FuzzOp::Deregister { proc_index } => write!(f, "deregister(proc {proc_index})"),
            FuzzOp::KillProcess { proc_index } => write!(f, "kill(proc {proc_index})"),
            FuzzOp::WatchdogScan => write!(f, "watchdog_scan"),
            FuzzOp::Shutdown => write!(f, "shutdown"),
        }
    }
}

/// Generate a seeded op sequence for `cfg`. The same `(cfg, seed)` always yields the same
/// sequence (the RNG is the vendored deterministic xoshiro256++).
pub fn generate(cfg: &FuzzConfig, seed: u64) -> Vec<FuzzOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let w_pin: u32 = if cfg.pin_bias { 25 } else { 8 };
    let w_unpin: u32 = if cfg.pin_bias { 12 } else { 5 };
    let w_shutdown: u32 = if cfg.allow_shutdown { 4 } else { 0 };
    // Submit, RescueDrain, Detach, Pause, PinNode, Unpin, Deregister, KillProcess,
    // WatchdogScan, Shutdown.
    let weights = [40u32, 10, 12, 20, w_pin, w_unpin, 4, 3, 3, w_shutdown];
    let total: u32 = weights.iter().sum();
    (0..cfg.ops)
        .map(|_| {
            let mut roll = rng.gen_range(0..total);
            let mut which = 0usize;
            while roll >= weights[which] {
                roll -= weights[which];
                which += 1;
            }
            match which {
                0 => FuzzOp::Submit {
                    slot: rng.gen_range(0..cfg.slots),
                },
                1 => FuzzOp::RescueDrain,
                2 => FuzzOp::Detach {
                    slot: rng.gen_range(0..cfg.slots),
                },
                3 => FuzzOp::Pause {
                    slot: rng.gen_range(0..cfg.slots),
                },
                4 => FuzzOp::PinNode {
                    proc_index: rng.gen_range(0..cfg.processes),
                    node: rng.gen_range(0..cfg.nodes),
                },
                5 => FuzzOp::Unpin {
                    proc_index: rng.gen_range(0..cfg.processes),
                },
                6 => FuzzOp::Deregister {
                    proc_index: rng.gen_range(0..cfg.processes),
                },
                7 => FuzzOp::KillProcess {
                    proc_index: rng.gen_range(0..cfg.processes),
                },
                8 => FuzzOp::WatchdogScan,
                _ => FuzzOp::Shutdown,
            }
        })
        .collect()
}

/// A bug deliberately injected into the execution, used to prove the harness detects the
/// corresponding invariant violation (a canary for the fuzzer itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Silently drop the `nth` (0-based) effective submit — and every later submit of the
    /// same slot: the model records the task as runnable but the real scheduler calls are
    /// skipped, a sticky "lost wake-up path" bug. Unless a later op detaches the slot or
    /// kills its process, the run must end with [`Violation::LostTask`].
    DropSubmit {
        /// Which effective submit starts the drop.
        nth: usize,
    },
}

/// An invariant violation detected by the fuzzing harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Two live tasks report the same current core while running.
    DoubleGrant {
        /// The shared core.
        core: CoreId,
        /// The two conflicting tasks.
        tasks: (TaskId, TaskId),
    },
    /// The busy-core gauge disagrees with the number of running tasks.
    BusyGaugeMismatch {
        /// Running tasks counted by the model.
        running: usize,
        /// `Scheduler::busy_cores()`.
        busy: usize,
    },
    /// A task was granted a core outside its process's pinned domain.
    DomainViolation {
        /// The offending task.
        task: TaskId,
        /// The out-of-domain core it was granted.
        core: CoreId,
    },
    /// A task was granted after its process was deregistered.
    GhostGrant {
        /// The offending task.
        task: TaskId,
        /// Its (deregistered) process.
        process: ProcessId,
    },
    /// A submitted task was never granted even though the scheduler fully drained.
    LostTask {
        /// The task's slot in the harness.
        slot: usize,
        /// The lost task.
        task: TaskId,
    },
    /// The lock-free ready gauge failed to reconcile to zero at quiescence.
    ReadyGaugeStuck {
        /// The stuck gauge value.
        ready: usize,
    },
    /// A task of a dead (deregistered or killed) process is still parked at quiescence:
    /// neither granted, nor released, nor finished — a `wait_grant` on it would hang
    /// forever even though nothing will ever schedule it.
    OrphanedWaiter {
        /// The task's slot in the harness.
        slot: usize,
        /// The orphaned task.
        task: TaskId,
    },
    /// In a recorded run, a counter or stage histogram disagrees with the tally of its
    /// trace-event twin (see [`execute_recorded`]).
    CounterTraceMismatch {
        /// Which twin pair disagreed, as `counter/TraceEvent`.
        what: &'static str,
        /// The counter or histogram count.
        counted: u64,
        /// The tally of the trace events.
        traced: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::DoubleGrant { core, tasks } => {
                write!(f, "double grant: tasks {:?} share core {core}", tasks)
            }
            Violation::BusyGaugeMismatch { running, busy } => {
                write!(
                    f,
                    "gauge mismatch: {running} running but busy_cores()={busy}"
                )
            }
            Violation::DomainViolation { task, core } => {
                write!(
                    f,
                    "domain violation: task {task:?} granted core {core} outside pin"
                )
            }
            Violation::GhostGrant { task, process } => {
                write!(
                    f,
                    "ghost grant: task {task:?} of deregistered process {process}"
                )
            }
            Violation::LostTask { slot, task } => {
                write!(
                    f,
                    "lost task: slot {slot} ({task:?}) submitted but never granted"
                )
            }
            Violation::ReadyGaugeStuck { ready } => {
                write!(f, "ready gauge stuck at {ready} after quiescence")
            }
            Violation::OrphanedWaiter { slot, task } => {
                write!(
                    f,
                    "orphaned waiter: slot {slot} ({task:?}) of a dead process is still parked"
                )
            }
            Violation::CounterTraceMismatch {
                what,
                counted,
                traced,
            } => write!(
                f,
                "trace twin mismatch ({what}): {counted} counted, {traced} traced"
            ),
        }
    }
}

/// A failed fuzz run: the violation and where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzFailure {
    /// The detected violation.
    pub violation: Violation,
    /// Index of the op after which the violation was detected, or `None` when it was
    /// detected during the final quiescence drain.
    pub op_index: Option<usize>,
}

impl fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op_index {
            Some(i) => write!(f, "after op {i}: {}", self.violation),
            None => write!(f, "at quiescence: {}", self.violation),
        }
    }
}

/// Summary of a green fuzz run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuzzStats {
    /// Ops executed.
    pub ops: usize,
    /// Total grants performed by the scheduler (including the quiescence drain).
    pub grants: u64,
    /// Total submits reaching the scheduler.
    pub submits: u64,
    /// Fault-site firings of an installed fault plan (0 without one).
    pub faults_injected: u64,
}

/// The single-threaded fuzzing harness: one real scheduler plus the reference model the
/// invariants are checked against.
struct Harness {
    sched: Scheduler,
    topo: Topology,
    pids: Vec<ProcessId>,
    alive: Vec<bool>,
    /// Task slots; `None` = empty (never created, or detached).
    slots: Vec<Option<TaskRef>>,
    /// Grant counter observed per slot at the last check — a slot whose counter advanced
    /// was *newly* granted and gets the domain/liveness checks.
    last_grants: Vec<u64>,
    /// Slots the model expects to be granted eventually: submitted while their process was
    /// alive and the scheduler up, not yet granted, not detached.
    pending: HashSet<usize>,
    /// Model view of each process's pinned cores.
    domains: Vec<Option<Vec<CoreId>>>,
    shutdown_done: bool,
    /// Effective submits so far (for [`Mutation::DropSubmit`]).
    submit_no: usize,
    /// Slots whose real submits are being dropped by the active mutation.
    dropped_slots: HashSet<usize>,
}

impl Harness {
    fn new(cfg: &FuzzConfig, sched: Scheduler) -> Self {
        let pids = (0..cfg.processes)
            .map(|i| sched.register_process(format!("fuzz-p{i}")))
            .collect();
        Harness {
            sched,
            topo: Topology::new(cfg.cores, cfg.nodes),
            pids,
            alive: vec![true; cfg.processes],
            slots: vec![None; cfg.slots],
            last_grants: vec![0; cfg.slots],
            pending: HashSet::new(),
            domains: vec![None; cfg.processes],
            shutdown_done: false,
            submit_no: 0,
            dropped_slots: HashSet::new(),
        }
    }

    fn proc_of_slot(&self, slot: usize) -> usize {
        slot % self.pids.len()
    }

    /// Apply one op to the real scheduler and mirror it in the model.
    fn apply(&mut self, op: FuzzOp, mutation: Option<Mutation>, stats: &mut FuzzStats) {
        match op {
            FuzzOp::Submit { slot } => self.do_submit(slot, mutation, stats),
            FuzzOp::RescueDrain => {
                self.sched.rescue_drain();
            }
            FuzzOp::Detach { slot } => {
                if let Some(t) = self.slots[slot].take() {
                    self.sched.detach(&t);
                    self.pending.remove(&slot);
                    self.last_grants[slot] = 0;
                }
            }
            FuzzOp::Pause { slot } => {
                // Only a running task pauses itself. It owes the model nothing until a
                // later submit makes it pending again.
                let running = self.slots[slot]
                    .as_ref()
                    .filter(|t| t.state() == TaskState::Running);
                if let Some(t) = running {
                    let _ = self.sched.block_prologue(t);
                }
            }
            FuzzOp::PinNode { proc_index, node } => {
                let p = proc_index % self.pids.len();
                let node = node % self.topo.num_numa_nodes();
                let cores: Vec<CoreId> = self.topo.cores_in_node(node).collect();
                self.sched
                    .set_process_domain(self.pids[p], Some(cores.clone()));
                if self.alive[p] {
                    self.domains[p] = Some(cores);
                }
            }
            FuzzOp::Unpin { proc_index } => {
                let p = proc_index % self.pids.len();
                self.sched.set_process_domain(self.pids[p], None);
                if self.alive[p] {
                    self.domains[p] = None;
                }
            }
            FuzzOp::Deregister { proc_index } => {
                let p = proc_index % self.pids.len();
                self.sched.deregister_process(self.pids[p]);
                self.alive[p] = false;
                // Queued tasks of the process were released: the model no longer expects
                // them to be granted (running ones keep their cores and were never
                // pending).
                let n = self.pids.len();
                self.pending.retain(|&slot| slot % n != p);
            }
            FuzzOp::KillProcess { proc_index } => {
                let p = proc_index % self.pids.len();
                self.sched.kill_process(self.pids[p]);
                self.alive[p] = false;
                // Queued work was reclaimed and running tasks evicted: the process owes
                // nothing to the model any more.
                let n = self.pids.len();
                self.pending.retain(|&slot| slot % n != p);
            }
            FuzzOp::WatchdogScan => {
                // Report-only: flags every currently busy core (zero deadline) and must
                // not change any schedule-visible state.
                let _ = self.sched.watchdog_scan(Duration::ZERO);
            }
            FuzzOp::Shutdown => {
                self.sched.shutdown();
                self.shutdown_done = true;
                // Everything waiting was released from scheduler control.
                self.pending.clear();
            }
        }
    }

    fn do_submit(&mut self, slot: usize, mutation: Option<Mutation>, stats: &mut FuzzStats) {
        let p = self.proc_of_slot(slot);
        if self.slots[slot].is_none() {
            // (Re)create the slot's task; fails (and the op becomes a no-op) once the
            // process is gone or the scheduler is shut down.
            match self.sched.create_task(self.pids[p], None) {
                Ok(t) => {
                    self.slots[slot] = Some(t);
                    self.last_grants[slot] = 0;
                }
                Err(_) => return,
            }
        }
        let t = self.slots[slot].as_ref().unwrap().clone();
        // Will this submit make the task runnable (so the scheduler *owes* it a grant)?
        let effective = !self.shutdown_done
            && self.alive[p]
            && t.state() != TaskState::Running
            && !self.pending.contains(&slot);
        if effective {
            if matches!(mutation, Some(Mutation::DropSubmit { nth }) if nth == self.submit_no) {
                self.dropped_slots.insert(slot);
            }
            self.submit_no += 1;
            self.pending.insert(slot);
        }
        if self.dropped_slots.contains(&slot) {
            return; // the injected bug: model updated, real submit(s) skipped
        }
        stats.submits += 1;
        self.sched.submit(&t);
    }

    /// Check every per-step invariant against the current scheduler state.
    fn check(&mut self) -> Result<(), Violation> {
        let mut core_owner: HashMap<CoreId, TaskId> = HashMap::new();
        let mut running = 0usize;
        for slot in 0..self.slots.len() {
            let Some(t) = self.slots[slot].as_ref() else {
                continue;
            };
            let grants = t.stats.grants.load(std::sync::atomic::Ordering::SeqCst);
            let newly_granted = grants > self.last_grants[slot];
            self.last_grants[slot] = grants;
            if t.state() == TaskState::Running {
                let Some(core) = t.current_core() else {
                    continue;
                };
                running += 1;
                if let Some(&other) = core_owner.get(&core) {
                    return Err(Violation::DoubleGrant {
                        core,
                        tasks: (other, t.id()),
                    });
                }
                core_owner.insert(core, t.id());
                let p = self.proc_of_slot(slot);
                if newly_granted {
                    self.pending.remove(&slot);
                    if !self.alive[p] {
                        return Err(Violation::GhostGrant {
                            task: t.id(),
                            process: self.pids[p],
                        });
                    }
                    if let Some(domain) = &self.domains[p] {
                        if !domain.contains(&core) {
                            return Err(Violation::DomainViolation { task: t.id(), core });
                        }
                    }
                }
            }
        }
        let busy = self.sched.busy_cores();
        if running != busy {
            return Err(Violation::BusyGaugeMismatch { running, busy });
        }
        Ok(())
    }

    /// Drain the scheduler to quiescence: detach running tasks (each release dispatches
    /// queued work) until nothing runs, then verify nothing was lost.
    ///
    /// A bounded number of "flusher" rounds forces extra drain + dispatch passes: stale
    /// queue entries (tasks detached while queued) can leave the ready gauge nonzero with
    /// every core idle, and an armed [`crate::faults::FaultSite::DelayIntakeDrain`] can
    /// park the sequence's final submits in the intake past the last organic
    /// scheduling point. Fault fires are capped by their plan, so the rounds converge; a
    /// genuinely lost task (e.g. [`Mutation::DropSubmit`]) never reached the scheduler at
    /// all and stays lost no matter how many passes run.
    fn quiesce(&mut self) -> Result<(), Violation> {
        for round in 0..8 {
            loop {
                self.check()?;
                let running: Vec<usize> = (0..self.slots.len())
                    .filter(|&s| {
                        self.slots[s]
                            .as_ref()
                            .is_some_and(|t| t.state() == TaskState::Running)
                    })
                    .collect();
                if running.is_empty() {
                    break;
                }
                for slot in running {
                    if let Some(t) = self.slots[slot].take() {
                        self.sched.detach(&t);
                        self.pending.remove(&slot);
                    }
                }
            }
            // Flush again while the scheduler owes a grant (pending) *or* the ready gauge
            // has not reconciled — a fault-delayed drain can strand a stale intake entry
            // (its task already detached) that only another drain pass can pop.
            let need_flush = !self.shutdown_done
                && (round == 0 || !self.pending.is_empty() || self.sched.ready_count() != 0);
            if !need_flush {
                break;
            }
            // The throwaway "flusher" task's submit + detach are two scheduling points
            // that pop stale entries and drain any fault-delayed intake.
            let Some(p) = (0..self.pids.len()).find(|&p| self.alive[p]) else {
                // Every process is dead, so no flusher task can exist, yet a fault-delayed
                // drain can still strand a dead task's entry in the intake. The rescue
                // drain is the scheduling point that needs no task (and no delayed drain
                // holds it back).
                if self.sched.ready_count() == 0 {
                    break;
                }
                self.sched.rescue_drain();
                continue;
            };
            let Ok(t) = self.sched.create_task(self.pids[p], None) else {
                break;
            };
            self.sched.submit(&t);
            self.sched.detach(&t);
        }
        if let Some(&slot) = self.pending.iter().min() {
            let task = self.slots[slot]
                .as_ref()
                .map(|t| t.id())
                .unwrap_or(TaskId::MAX);
            return Err(Violation::LostTask { slot, task });
        }
        let ready = self.sched.ready_count();
        if ready != 0 {
            return Err(Violation::ReadyGaugeStuck { ready });
        }
        // Degradation contract: once a process is dead, none of its tasks may be left in
        // a parked state (queued or blocked, ungranted, unreleased) — any `wait_grant` on
        // such a task would hang forever with nothing left to wake it.
        for slot in 0..self.slots.len() {
            let Some(t) = self.slots[slot].as_ref() else {
                continue;
            };
            if self.alive[self.proc_of_slot(slot)] {
                continue;
            }
            let state = t.state();
            let parked = matches!(state, TaskState::Ready | TaskState::Blocked)
                && t.current_core().is_none()
                && !t.is_released();
            if parked {
                return Err(Violation::OrphanedWaiter { slot, task: t.id() });
            }
        }
        Ok(())
    }
}

fn build_scheduler(cfg: &FuzzConfig) -> Scheduler {
    Scheduler::new(
        NosvConfig::with_topology(Topology::new(cfg.cores, cfg.nodes)).quantum(cfg.quantum),
    )
}

fn run(
    cfg: &FuzzConfig,
    ops: &[FuzzOp],
    mutation: Option<Mutation>,
    sched: Scheduler,
    rec: Option<&TraceRecorder>,
) -> Result<FuzzStats, FuzzFailure> {
    let mut h = Harness::new(cfg, sched);
    let mut stats = FuzzStats::default();
    for (i, &op) in ops.iter().enumerate() {
        h.apply(op, mutation, &mut stats);
        stats.ops += 1;
        if let Err(violation) = h.check() {
            return Err(FuzzFailure {
                violation,
                op_index: Some(i),
            });
        }
    }
    let at_quiescence = |violation| FuzzFailure {
        violation,
        op_index: None,
    };
    h.quiesce().map_err(at_quiescence)?;
    let snap = h.sched.stats_snapshot();
    if let Some(rec) = rec {
        check_trace_twins(&snap, &rec.snapshot()).map_err(at_quiescence)?;
    }
    stats.grants = snap.counters.grants;
    stats.faults_injected = snap.counters.faults_injected;
    Ok(stats)
}

/// Execute an op sequence against a fresh scheduler, checking every invariant after each
/// op and draining to quiescence at the end.
pub fn execute(
    cfg: &FuzzConfig,
    ops: &[FuzzOp],
    mutation: Option<Mutation>,
) -> Result<FuzzStats, FuzzFailure> {
    run(cfg, ops, mutation, build_scheduler(cfg), None)
}

/// Like [`execute`], but with a trace recorder installed and, when `plan` is given, that
/// fault plan too: scheduler-level fault sites fire during the run and every invariant
/// must hold anyway. At quiescence the run must also pass the trace-twin oracle
/// ([`Violation::CounterTraceMismatch`]). Returns the run result together with the
/// recorded schedule, ready for the simulator's replay harness. An injected fault's
/// *effects* are ordinary trace events, so a faulty run must replay divergence-free
/// exactly like a clean one.
pub fn execute_recorded(
    cfg: &FuzzConfig,
    ops: &[FuzzOp],
    plan: Option<&FaultPlan>,
) -> (Result<FuzzStats, FuzzFailure>, TraceMeta, Vec<TraceEntry>) {
    let mut sched = build_scheduler(cfg);
    let rec = sched.install_tracer();
    if let Some(plan) = plan {
        sched.install_faults(plan);
    }
    let result = run(cfg, ops, None, sched, Some(&rec));
    (result, rec.meta().clone(), rec.take())
}

/// The free oracle of a recorded run: every counter or stage histogram with a trace
/// twin equals the tally of its events — `grants` and the `wake` stage count one per
/// `Grant`, the `intake_wait` stage counts one per entry an `IntakeDrain` absorbed, and
/// `faults_injected` counts one per `FaultInjected`.
fn check_trace_twins(snap: &StatsSnapshot, entries: &[TraceEntry]) -> Result<(), Violation> {
    let (mut grants, mut drained, mut faults) = (0u64, 0u64, 0u64);
    for e in entries {
        match e.event {
            TraceEvent::Grant { .. } => grants += 1,
            TraceEvent::IntakeDrain { n } => drained += n as u64,
            TraceEvent::FaultInjected { .. } => faults += 1,
            _ => {}
        }
    }
    let (counters, stages) = (&snap.counters, &snap.stages);
    let twins = [
        ("grants/Grant", counters.grants, grants),
        ("wake/Grant", stages.wake.count, grants),
        ("intake_wait/IntakeDrain", stages.intake_wait.count, drained),
        (
            "faults_injected/FaultInjected",
            counters.faults_injected,
            faults,
        ),
    ];
    for (what, counted, traced) in twins {
        if counted != traced {
            return Err(Violation::CounterTraceMismatch {
                what,
                counted,
                traced,
            });
        }
    }
    Ok(())
}

/// The fault plan the faulted fuzz sweeps arm: only sites the scheduler must *absorb*
/// without violating any invariant — duplicated wakeups (redundant deliveries), a bounded
/// number of delayed intake drains (recovered at later scheduling points), and one
/// widened shutdown race window. [`FaultSite::DropWakeup`] is deliberately absent: a
/// dropped wakeup genuinely loses the task unless the submitter retries, which is the
/// chaos harness's canary, not an invariant the scheduler can hold on its own.
pub fn absorbable_fault_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .arm(FaultSpec::new(FaultSite::DuplicateWakeup).one_in(3))
        .arm(
            FaultSpec::new(FaultSite::DelayIntakeDrain)
                .one_in(5)
                .max_fires(3),
        )
        .arm(
            FaultSpec::new(FaultSite::ShutdownRace)
                .one_in(1)
                .max_fires(1)
                .stall(Duration::from_millis(1)),
        )
}

/// Greedily reduce a failing op sequence to a locally minimal one (ddmin-style): try
/// removing exponentially shrinking chunks, keeping any removal under which the sequence
/// still fails. Returns `ops` unchanged if it does not fail in the first place.
pub fn shrink(cfg: &FuzzConfig, ops: &[FuzzOp], mutation: Option<Mutation>) -> Vec<FuzzOp> {
    let fails = |candidate: &[FuzzOp]| execute(cfg, candidate, mutation).is_err();
    let mut best = ops.to_vec();
    if !fails(&best) {
        return best;
    }
    let mut chunk = (best.len() / 2).max(1);
    loop {
        let mut progressed = false;
        let mut i = 0;
        while i < best.len() {
            let mut candidate = best.clone();
            candidate.drain(i..(i + chunk).min(candidate.len()));
            if fails(&candidate) {
                best = candidate;
                progressed = true;
            } else {
                i += chunk;
            }
        }
        if chunk > 1 {
            chunk = (chunk / 2).max(1);
        } else if !progressed {
            return best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = FuzzConfig::base();
        assert_eq!(generate(&cfg, 42), generate(&cfg, 42));
        assert_ne!(generate(&cfg, 42), generate(&cfg, 43));
        assert_eq!(generate(&cfg, 7).len(), cfg.ops);
    }

    #[test]
    fn seeded_runs_hold_invariants() {
        for cfg in [
            FuzzConfig::base(),
            FuzzConfig::valve(),
            FuzzConfig::shutdown_biased(),
            FuzzConfig::domain_heavy(),
            FuzzConfig::cross_valve(),
        ] {
            for seed in 0..8 {
                let ops = generate(&cfg, seed);
                let (result, _, entries) = execute_recorded(&cfg, &ops, None);
                let stats =
                    result.unwrap_or_else(|f| panic!("seed {seed} failed: {f} (cfg {cfg:?})"));
                assert_eq!(stats.ops, ops.len());
                assert!(!entries.is_empty(), "a recorded run records");
            }
        }
    }

    #[test]
    fn trace_twin_oracle_catches_a_missing_event() {
        let cfg = FuzzConfig::base();
        let mut sched = build_scheduler(&cfg);
        let rec = sched.install_tracer();
        let p = sched.register_process("p");
        let t = sched.create_task(p, None).unwrap();
        sched.submit(&t);
        let snap = sched.stats_snapshot();
        let mut entries = rec.snapshot();
        check_trace_twins(&snap, &entries).expect("an honest recording matches its counters");
        entries.retain(|e| !matches!(e.event, TraceEvent::Grant { .. }));
        let mismatch = check_trace_twins(&snap, &entries).expect_err("a lost Grant is caught");
        assert!(
            matches!(
                mismatch,
                Violation::CounterTraceMismatch {
                    counted: 1,
                    traced: 0,
                    ..
                }
            ),
            "{mismatch}"
        );
    }

    /// Keep only the ops that cannot heal a dropped submit (a later detach, deregister or
    /// shutdown legitimately cancels the model's claim on the slot).
    fn without_healing_ops(ops: Vec<FuzzOp>) -> Vec<FuzzOp> {
        ops.into_iter()
            .filter(|op| {
                matches!(
                    op,
                    FuzzOp::Submit { .. }
                        | FuzzOp::RescueDrain
                        | FuzzOp::PinNode { .. }
                        | FuzzOp::Unpin { .. }
                )
            })
            .collect()
    }

    #[test]
    fn lost_submit_canary_is_caught() {
        // Drop the first effective submit of a healthy sequence: the harness must report
        // the task as lost (proof the LostTask oracle has teeth).
        let cfg = FuzzConfig::base();
        let ops = without_healing_ops(generate(&cfg, 1));
        assert!(ops.iter().any(|o| matches!(o, FuzzOp::Submit { .. })));
        let failure = execute(&cfg, &ops, Some(Mutation::DropSubmit { nth: 0 }))
            .expect_err("dropped submit must be detected");
        assert!(
            matches!(failure.violation, Violation::LostTask { .. }),
            "expected LostTask, got {failure}"
        );
    }

    #[test]
    fn deregister_then_submit_counterexample_shrinks() {
        // The deregister-then-submit-and-drain interleaving that exposed a missing
        // process-liveness check (a Created task of a purged process was granted /
        // resurrected the process in the quantum rotation). The rule now lives in the
        // intake drain (`shard.rs`, `Locked::drain_intake`); the sequence is green and
        // pinned here as a regression.
        let cfg = FuzzConfig::base();
        let ops = vec![
            FuzzOp::Submit { slot: 0 },
            FuzzOp::Detach { slot: 0 },
            FuzzOp::Deregister { proc_index: 0 },
            FuzzOp::Submit { slot: 0 },
            FuzzOp::RescueDrain,
            FuzzOp::Submit { slot: 1 },
            FuzzOp::Detach { slot: 1 },
        ];
        execute(&cfg, &ops, None).unwrap_or_else(|f| panic!("regression: {f}"));
    }

    #[test]
    fn rescue_drain_places_intake_entries_without_losing_them() {
        // Slots 0..4 occupy all four cores, so slot 4's submit stays in the intake (the
        // fast path takes no lock). The rescue drain must move it into the policy queues
        // — intake empty, still exactly one task ready — and the run must stay green.
        let cfg = FuzzConfig::base();
        let ops: Vec<FuzzOp> = (0..=cfg.cores)
            .map(|slot| FuzzOp::Submit { slot })
            .chain([FuzzOp::RescueDrain])
            .collect();
        let mut h = Harness::new(&cfg, build_scheduler(&cfg));
        let mut stats = FuzzStats::default();
        for &op in &ops[..ops.len() - 1] {
            h.apply(op, None, &mut stats);
        }
        let before = h.sched.sample();
        assert_eq!((before.busy_cores, before.intake_depth), (cfg.cores, 1));
        h.apply(FuzzOp::RescueDrain, None, &mut stats);
        let after = h.sched.sample();
        assert_eq!(after.intake_depth, 0);
        assert_eq!(after.ready_tasks, before.ready_tasks);
        h.check().expect("invariants hold after the rescue drain");
        execute(&cfg, &ops, None).unwrap_or_else(|f| panic!("rescue drain run failed: {f}"));
    }

    #[test]
    fn shrinking_minimises_the_canary() {
        let cfg = FuzzConfig::base();
        let ops = without_healing_ops(generate(&cfg, 3));
        let mutation = Some(Mutation::DropSubmit { nth: 0 });
        assert!(execute(&cfg, &ops, mutation).is_err());
        let minimal = shrink(&cfg, &ops, mutation);
        // The minimal reproduction of "the first submit is dropped" is a single submit.
        assert_eq!(
            minimal.len(),
            1,
            "expected a 1-op counterexample: {minimal:?}"
        );
        assert!(execute(&cfg, &minimal, mutation).is_err());
    }

    /// Every permutation of `ops`, via Heap's algorithm.
    fn permutations(ops: &[FuzzOp]) -> Vec<Vec<FuzzOp>> {
        fn heap(k: usize, arr: &mut Vec<FuzzOp>, out: &mut Vec<Vec<FuzzOp>>) {
            if k <= 1 {
                out.push(arr.clone());
                return;
            }
            for i in 0..k {
                heap(k - 1, arr, out);
                if k % 2 == 0 {
                    arr.swap(i, k - 1);
                } else {
                    arr.swap(0, k - 1);
                }
            }
        }
        let mut arr = ops.to_vec();
        let mut out = Vec::new();
        let n = arr.len();
        heap(n, &mut arr, &mut out);
        out
    }

    #[test]
    fn deregister_kill_submit_permutations_leave_no_orphans() {
        // Property: ANY interleaving of process teardown (deregister / kill) with
        // submits, grants (implicit in submit) and detaches must end with no orphaned
        // waiter and no ghost grant. Exhaustive over all 720 orders of this multiset —
        // slots 0 and 3 belong to process 0, slot 1 to process 1 (base config has 3
        // processes).
        let cfg = FuzzConfig::base();
        let ops = [
            FuzzOp::Submit { slot: 0 },
            FuzzOp::Submit { slot: 3 },
            FuzzOp::Detach { slot: 0 },
            FuzzOp::Deregister { proc_index: 0 },
            FuzzOp::Submit { slot: 1 },
            FuzzOp::KillProcess { proc_index: 1 },
        ];
        for (i, perm) in permutations(&ops).into_iter().enumerate() {
            execute(&cfg, &perm, None).unwrap_or_else(|f| {
                let listing: Vec<String> = perm.iter().map(|o| o.to_string()).collect();
                panic!("permutation {i} [{}] failed: {f}", listing.join(", "))
            });
        }
    }

    #[test]
    fn killed_process_slots_are_inert_afterwards() {
        // Kill with work queued and running, then keep poking the dead process's slots:
        // every later op must be a no-op and quiescence must stay clean.
        let cfg = FuzzConfig::base();
        let ops = [
            FuzzOp::Submit { slot: 0 },
            FuzzOp::Submit { slot: 3 },
            FuzzOp::Submit { slot: 6 },
            FuzzOp::KillProcess { proc_index: 0 },
            FuzzOp::Submit { slot: 0 },
            FuzzOp::Submit { slot: 3 },
            FuzzOp::RescueDrain,
            FuzzOp::WatchdogScan,
            FuzzOp::Detach { slot: 6 },
        ];
        execute(&cfg, &ops, None).unwrap_or_else(|f| panic!("kill regression: {f}"));
    }

    #[test]
    fn faulted_seeded_runs_hold_invariants() {
        // Every invariant must hold with the absorbable fault sites armed — and the plan
        // must actually fire across the sweep, or the test proves nothing.
        let mut fired = 0u64;
        for cfg in [
            FuzzConfig::base(),
            FuzzConfig::valve(),
            FuzzConfig::shutdown_biased(),
            FuzzConfig::cross_valve(),
        ] {
            for seed in 0..6 {
                let ops = generate(&cfg, seed);
                let plan = absorbable_fault_plan(seed);
                let (result, _, _) = execute_recorded(&cfg, &ops, Some(&plan));
                let stats = result
                    .unwrap_or_else(|f| panic!("faulted seed {seed} failed: {f} (cfg {cfg:?})"));
                fired += stats.faults_injected;
            }
        }
        assert!(
            fired > 0,
            "the absorbable plan never fired across the sweep"
        );
    }

    #[test]
    fn faulted_quiescence_with_every_process_dead_reconciles_the_gauge() {
        // Shrunk from faulted `valve` seed 6: the last deregister and the final detach both
        // hit a delayed intake drain, so task 2's entry stays in the intake after its
        // process died, and no live process is left to host a flusher. Quiescence must
        // still drain it and bring the ready gauge back to zero.
        let cfg = FuzzConfig::valve();
        let ops = [
            FuzzOp::Submit { slot: 9 },
            FuzzOp::Deregister { proc_index: 2 },
            FuzzOp::KillProcess { proc_index: 1 },
            FuzzOp::Submit { slot: 0 },
            FuzzOp::Deregister { proc_index: 0 },
        ];
        let plan = absorbable_fault_plan(6);
        let (result, _, _) = execute_recorded(&cfg, &ops, Some(&plan));
        let stats = result.unwrap_or_else(|f| panic!("every-process-dead quiescence: {f}"));
        assert!(stats.faults_injected > 0, "the delayed drain must fire");
    }

    #[test]
    fn shutdown_interleavings_hold_invariants() {
        // Force shutdown at every cut point of a fixed sequence, with submits and domain
        // changes continuing after it.
        let cfg = FuzzConfig::shutdown_biased();
        let base_ops = generate(&cfg, 11);
        for cut in 0..base_ops.len() {
            let mut ops = base_ops.clone();
            ops.insert(cut, FuzzOp::Shutdown);
            execute(&cfg, &ops, None).unwrap_or_else(|f| panic!("shutdown at {cut} failed: {f}"));
        }
    }
}
