//! Simulated threads and processes.

use crate::program::{BarrierWaitKind, ProgramRef};
use crate::time::SimTime;
use std::collections::BTreeSet;

/// Identifier of a simulated thread.
pub type ThreadId = usize;
/// Identifier of a simulated process.
pub type ProcessId = usize;

/// Description of a simulated process (a scheduling domain).
#[derive(Debug, Clone)]
pub struct ProcessDesc {
    /// Process identifier (index into the engine's process table).
    pub id: ProcessId,
    /// Display name.
    pub name: String,
    /// Scheduling weight (CFS-style: higher weight → more CPU under the fair policy). A
    /// nice value of 0 corresponds to 1.0; nice 20 to roughly 0.1.
    pub weight: f64,
    /// Placement restriction: when `Some`, the process's threads may only be dispatched
    /// on these cores (NUMA-aware pinning, the §5.6 socket-placement variants). Every
    /// model honours it; under `SchedModel::Partitioned` the model's own assignments
    /// take its place.
    pub allowed_cores: Option<Vec<usize>>,
}

impl ProcessDesc {
    /// A process with weight 1.0 and no placement restriction.
    pub fn new(id: ProcessId, name: impl Into<String>) -> Self {
        ProcessDesc {
            id,
            name: name.into(),
            weight: 1.0,
            allowed_cores: None,
        }
    }

    /// Set the scheduling weight.
    pub fn weight(mut self, weight: f64) -> Self {
        self.weight = weight.max(0.001);
        self
    }

    /// Restrict the process to a set of cores (builder style).
    pub fn allowed_cores(mut self, cores: Vec<usize>) -> Self {
        self.allowed_cores = (!cores.is_empty()).then_some(cores);
        self
    }
}

/// Lifecycle state of a simulated thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadRunState {
    /// Created but not yet arrived (its arrival event is pending).
    NotStarted,
    /// Ready to run, waiting in the scheduler's queues.
    Ready,
    /// Running on the given core.
    Running(usize),
    /// Blocked on a synchronization object or sleeping.
    Blocked,
    /// Finished.
    Finished,
}

/// Why a thread is blocked (used to deliver the right wake-up).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReason {
    /// Not blocked.
    None,
    /// Waiting for a mutex.
    Lock(u64),
    /// Waiting (blocked) at a barrier.
    Barrier(u64),
    /// Busy-waiting at a barrier (on core or preempted, but logically spinning).
    BarrierSpin(u64),
    /// Sleeping until a deadline.
    Sleep,
    /// Waiting for an event counter.
    Event(u64),
    /// Waiting for children to finish.
    Join,
}

/// Per-thread accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadStats {
    /// Total time spent running useful work on a core.
    pub cpu_time: SimTime,
    /// Total time spent busy-waiting on a core.
    pub spin_time: SimTime,
    /// Total time spent ready but not running.
    pub wait_time: SimTime,
    /// Times the thread was preempted involuntarily.
    pub preemptions: u64,
    /// Times the thread was dispatched on a different core than the previous one.
    pub migrations: u64,
    /// The subset of migrations that crossed a socket (NUMA-node) boundary — the costly
    /// kind the §5.6 placement variants are designed to avoid.
    pub cross_socket_migrations: u64,
    /// Times the thread was dispatched on a core.
    pub dispatches: u64,
}

/// A simulated thread: a program instance plus its scheduling state.
#[derive(Debug, Clone)]
pub struct SimThread {
    /// Thread identifier.
    pub id: ThreadId,
    /// Owning process.
    pub process: ProcessId,
    /// The program this thread executes.
    pub program: ProgramRef,
    /// Index of the next operation to execute.
    pub pc: usize,
    /// Remaining nominal work of the current compute op (if it was interrupted).
    pub remaining_work: SimTime,
    /// Bandwidth demand of the current compute op.
    pub current_bw: f64,
    /// Lifecycle state.
    pub state: ThreadRunState,
    /// Why the thread is blocked, if it is.
    pub block_reason: BlockReason,
    /// Core the thread last ran on.
    pub last_core: Option<usize>,
    /// Arrival time of the thread in the simulation.
    pub arrival: SimTime,
    /// Completion time (set when finished).
    pub finish: Option<SimTime>,
    /// The thread that spawned this one, if any.
    pub parent: Option<ThreadId>,
    /// Number of live children (for `JoinChildren`).
    pub live_children: usize,
    /// When the thread last became ready (for wait-time accounting).
    pub ready_since: SimTime,
    /// Virtual runtime used by the fair policy.
    pub vruntime: f64,
    /// Accounting.
    pub stats: ThreadStats,
    /// Generation of the thread's timed op; a bump invalidates pending `OpComplete` and
    /// `SpinSlice` events.
    pub op_seq: u64,
    /// Generation of the thread's stay on a core; a bump invalidates pending `Quantum`
    /// events.
    pub run_seq: u64,
    /// Mutexes currently held (lock-holder-preemption accounting).
    pub locks_held: usize,
    /// Context-switch and migration cost to charge to the next compute op.
    pub pending_overhead: SimTime,
    /// Start of the open on-core accounting interval.
    pub on_core_since: SimTime,
    /// Whether the open on-core interval is busy-waiting rather than useful work.
    pub spinning: bool,
    /// Wait behaviour of the barrier the thread is busy-waiting at, if any.
    pub spin_kind: Option<BarrierWaitKind>,
    /// `(unit, time)` marks stamped by `Op::UnitMark`, in program order.
    pub unit_marks: Vec<(usize, SimTime)>,
    /// Cores the thread has been dispatched on.
    pub cores_used: BTreeSet<usize>,
}

impl SimThread {
    /// Create a thread in the `NotStarted` state.
    pub fn new(id: ThreadId, process: ProcessId, program: ProgramRef, arrival: SimTime) -> Self {
        SimThread {
            id,
            process,
            program,
            pc: 0,
            remaining_work: SimTime::ZERO,
            current_bw: 0.0,
            state: ThreadRunState::NotStarted,
            block_reason: BlockReason::None,
            last_core: None,
            arrival,
            finish: None,
            parent: None,
            live_children: 0,
            ready_since: arrival,
            vruntime: 0.0,
            stats: ThreadStats::default(),
            op_seq: 0,
            run_seq: 0,
            locks_held: 0,
            pending_overhead: SimTime::ZERO,
            on_core_since: SimTime::ZERO,
            spinning: false,
            spin_kind: None,
            unit_marks: Vec::new(),
            cores_used: BTreeSet::new(),
        }
    }

    /// Whether the thread has finished.
    pub fn is_finished(&self) -> bool {
        matches!(self.state, ThreadRunState::Finished)
    }

    /// Turnaround time (finish − arrival), if finished.
    pub fn turnaround(&self) -> Option<SimTime> {
        self.finish.map(|f| f.saturating_sub(self.arrival))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;

    #[test]
    fn process_desc_weight_clamped() {
        let p = ProcessDesc::new(0, "gw").weight(-3.0);
        assert!(p.weight > 0.0);
        assert_eq!(ProcessDesc::new(1, "x").weight, 1.0);
    }

    #[test]
    fn thread_lifecycle_fields() {
        let prog = Program::new("p").compute(SimTime::from_micros(1)).build();
        let mut t = SimThread::new(3, 1, prog, SimTime::from_millis(2));
        assert!(!t.is_finished());
        assert_eq!(t.turnaround(), None);
        t.finish = Some(SimTime::from_millis(5));
        t.state = ThreadRunState::Finished;
        assert!(t.is_finished());
        assert_eq!(t.turnaround(), Some(SimTime::from_millis(3)));
    }
}
