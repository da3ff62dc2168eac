//! Scheduling policies.
//!
//! USF is a *framework*: the scheduler core only enforces the one-task-per-core invariant
//! and delegates the "which ready task should run on this idle core" decision to a
//! [`Policy`] object. [`CoopPolicy`] implements the paper's SCHED_COOP rule (§4.1);
//! [`FifoPolicy`] is a deliberately simple global-FIFO alternative used as an ablation and
//! as a template for user-defined policies.

use crate::process::ProcessId;
use crate::readyq::{CoopCore, PickTier};
use crate::task::TaskId;
use crate::topology::{CoreId, Topology};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// The per-task information a policy is allowed to base its decisions on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskMeta {
    /// Task identifier (opaque to the policy).
    pub id: TaskId,
    /// Process domain the task belongs to.
    pub process: ProcessId,
    /// The core the task last ran on, if any (its preferred core).
    pub preferred_core: Option<CoreId>,
}

/// A pluggable ready-queue policy.
///
/// All methods are called with the scheduler lock held; implementations must not block.
pub trait Policy: Send {
    /// Short identifier used in diagnostics.
    fn name(&self) -> &str;

    /// A process domain was registered.
    fn register_process(&mut self, process: ProcessId);

    /// A process domain was deregistered. Any queued tasks of that process have already
    /// finished; the policy only needs to drop its bookkeeping.
    fn deregister_process(&mut self, process: ProcessId);

    /// Restrict (or, with `None`, un-restrict) a process to a set of cores — NUMA-aware
    /// placement (§5.6 socket pinning). Placement-aware policies honour it on every pick
    /// path; the default is a no-op, so placement-oblivious policies (e.g. the FIFO
    /// ablation) keep treating the restriction as a hint.
    fn set_process_domain(&mut self, process: ProcessId, cores: Option<Vec<CoreId>>) {
        let _ = (process, cores);
    }

    /// A task became ready. The policy must keep it until a later [`Policy::pick`] returns it.
    fn enqueue(&mut self, topo: &Topology, task: TaskMeta, now: Instant);

    /// Core `core` is idle: return the task that should run there, with the tier of a
    /// tiered pop that served it (`None` for tier-less policies like the FIFO ablation),
    /// so an installed trace recorder can log it; or `None` to leave the core idle. `now`
    /// is the scheduler's notion of the current time (for quantum accounting).
    fn pick(
        &mut self,
        topo: &Topology,
        core: CoreId,
        now: Instant,
    ) -> Option<(TaskMeta, Option<PickTier>)>;

    /// Aging-valve-only pick on behalf of `core`: return a task that has waited longer
    /// than its fairness deadline, or `None`. The scheduler's cross-shard aging probe
    /// reaches *foreign* shards through this method, so it must not rotate the quantum
    /// ring or otherwise consume the process turn. Policies without an aging
    /// valve (e.g. the FIFO ablation) keep the default no-op.
    fn pick_aged(&mut self, topo: &Topology, core: CoreId, now: Instant) -> Option<TaskMeta> {
        let _ = (topo, core, now);
        None
    }

    /// Whether any task is ready (used by `yield` to decide whether switching is useful).
    fn has_ready(&self) -> bool;

    /// Number of ready tasks currently queued.
    fn ready_count(&self) -> usize;

    /// Number of process-quantum rotations performed so far (0 for policies without one).
    fn rotations(&self) -> u64 {
        0
    }
}

// ---------------------------------------------------------------------------------------
// SCHED_COOP
// ---------------------------------------------------------------------------------------

/// The paper's SCHED_COOP ready-queue policy (§4.1).
///
/// * Ready tasks are queued FIFO per process and per preferred core.
/// * An idle core is first offered tasks that last ran on it, then — oldest enqueued first —
///   tasks from its NUMA node or unbound tasks, then the oldest remote task.
///   The FIFO aging between node-local and unbound queues keeps the policy
///   starvation-free: never-granted tasks must not wait forever behind yielding tasks
///   that re-queue to their last core (the oversubscribed busy-wait-barrier pattern).
/// * Each process is served for a quantum (default 20 ms); the quantum is evaluated only at
///   scheduling points (i.e. inside [`Policy::pick`]), never by interrupting a running task.
///
/// The queue structure itself lives in [`crate::readyq`], shared verbatim with the
/// discrete-event simulator (`usf-simsched`); this type is a thin adapter binding it to
/// real time and [`TaskMeta`]. The topology is snapshotted at construction, so the
/// `topo` arguments of the [`Policy`] methods are ignored.
#[derive(Debug)]
pub struct CoopPolicy {
    core: CoopCore<ProcessId, TaskMeta, Instant>,
}

impl CoopPolicy {
    /// Create a SCHED_COOP policy for the given topology and per-process quantum.
    pub fn new(topo: Topology, quantum: Duration) -> Self {
        CoopPolicy {
            core: CoopCore::new(&topo, quantum),
        }
    }

    /// The process whose quantum is currently active, if any.
    pub fn current_process(&self) -> Option<ProcessId> {
        self.core.current_process()
    }
}

impl Policy for CoopPolicy {
    fn name(&self) -> &str {
        "sched_coop"
    }

    fn register_process(&mut self, process: ProcessId) {
        self.core.register_process(process);
    }

    fn deregister_process(&mut self, process: ProcessId) {
        self.core.deregister_process(process);
    }

    fn set_process_domain(&mut self, process: ProcessId, cores: Option<Vec<CoreId>>) {
        self.core.set_process_domain(process, cores);
    }

    fn enqueue(&mut self, _topo: &Topology, task: TaskMeta, now: Instant) {
        self.core
            .enqueue(task.process, task, task.preferred_core, now);
    }

    fn pick(
        &mut self,
        _topo: &Topology,
        core: CoreId,
        now: Instant,
    ) -> Option<(TaskMeta, Option<PickTier>)> {
        self.core.pick_tiered(core, now).map(|(m, t)| (m, Some(t)))
    }

    fn pick_aged(&mut self, _topo: &Topology, core: CoreId, now: Instant) -> Option<TaskMeta> {
        self.core.pick_aged_for(core, now)
    }

    fn has_ready(&self) -> bool {
        self.core.has_ready()
    }

    fn ready_count(&self) -> usize {
        self.core.ready_count()
    }

    fn rotations(&self) -> u64 {
        self.core.rotations()
    }
}

// ---------------------------------------------------------------------------------------
// Global FIFO
// ---------------------------------------------------------------------------------------

/// A single global FIFO without affinity or process awareness.
///
/// Serves two purposes: an ablation of SCHED_COOP's locality/quantum machinery, and the
/// smallest possible example of a user-defined policy for the framework.
#[derive(Debug, Default)]
pub struct FifoPolicy {
    queue: VecDeque<TaskMeta>,
}

impl FifoPolicy {
    /// Create an empty FIFO policy.
    pub fn new() -> Self {
        FifoPolicy::default()
    }
}

impl Policy for FifoPolicy {
    fn name(&self) -> &str {
        "fifo"
    }

    fn register_process(&mut self, _process: ProcessId) {}

    fn deregister_process(&mut self, _process: ProcessId) {}

    fn enqueue(&mut self, _topo: &Topology, task: TaskMeta, _now: Instant) {
        self.queue.push_back(task);
    }

    fn pick(
        &mut self,
        _topo: &Topology,
        _core: CoreId,
        _now: Instant,
    ) -> Option<(TaskMeta, Option<PickTier>)> {
        self.queue.pop_front().map(|m| (m, None))
    }

    fn has_ready(&self) -> bool {
        !self.queue.is_empty()
    }

    fn ready_count(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(id: TaskId, process: ProcessId, pref: Option<CoreId>) -> TaskMeta {
        TaskMeta {
            id,
            process,
            preferred_core: pref,
        }
    }

    #[test]
    fn fifo_policy_is_fifo() {
        let topo = Topology::single_node(2);
        let mut p = FifoPolicy::new();
        let now = Instant::now();
        assert!(!p.has_ready());
        p.enqueue(&topo, meta(1, 0, None), now);
        p.enqueue(&topo, meta(2, 0, Some(1)), now);
        p.enqueue(&topo, meta(3, 1, None), now);
        assert_eq!(p.ready_count(), 3);
        assert_eq!(p.pick(&topo, 0, now).unwrap().0.id, 1);
        assert_eq!(p.pick(&topo, 0, now).unwrap().0.id, 2);
        assert_eq!(p.pick(&topo, 1, now).unwrap().0.id, 3);
        assert!(p.pick(&topo, 0, now).is_none());
    }

    #[test]
    fn coop_prefers_affinity_core() {
        let topo = Topology::new(4, 2);
        let mut p = CoopPolicy::new(topo.clone(), Duration::from_millis(20));
        p.register_process(0);
        let now = Instant::now();
        p.enqueue(&topo, meta(1, 0, Some(2)), now);
        p.enqueue(&topo, meta(2, 0, Some(0)), now);
        // Core 0 should get task 2 (its affine task), not task 1.
        assert_eq!(p.pick(&topo, 0, now).unwrap().0.id, 2);
        // Core 2 gets its own.
        assert_eq!(p.pick(&topo, 2, now).unwrap().0.id, 1);
    }

    #[test]
    fn coop_falls_back_to_numa_then_remote() {
        let topo = Topology::new(4, 2); // cores 0,1 node 0; cores 2,3 node 1
        let mut p = CoopPolicy::new(topo.clone(), Duration::from_millis(20));
        p.register_process(0);
        let now = Instant::now();
        p.enqueue(&topo, meta(1, 0, Some(1)), now); // node 0
        p.enqueue(&topo, meta(2, 0, Some(3)), now); // node 1
                                                    // Core 0 (node 0) should steal from core 1 (same node) before core 3.
        assert_eq!(p.pick(&topo, 0, now).unwrap().0.id, 1);
        // Now only the remote task remains; core 0 still gets it (anywhere placement).
        assert_eq!(p.pick(&topo, 0, now).unwrap().0.id, 2);
        assert!(!p.has_ready());
    }

    #[test]
    fn coop_unbound_tasks_served_after_affine() {
        let topo = Topology::single_node(2);
        let mut p = CoopPolicy::new(topo.clone(), Duration::from_millis(20));
        p.register_process(0);
        let now = Instant::now();
        p.enqueue(&topo, meta(1, 0, None), now);
        p.enqueue(&topo, meta(2, 0, Some(0)), now);
        assert_eq!(p.pick(&topo, 0, now).unwrap().0.id, 2);
        assert_eq!(p.pick(&topo, 0, now).unwrap().0.id, 1);
    }

    #[test]
    fn coop_fifo_order_within_core_queue() {
        let topo = Topology::single_node(1);
        let mut p = CoopPolicy::new(topo.clone(), Duration::from_millis(20));
        p.register_process(0);
        let now = Instant::now();
        for id in 1..=5 {
            p.enqueue(&topo, meta(id, 0, Some(0)), now);
        }
        let order: Vec<TaskId> = (0..5)
            .map(|_| p.pick(&topo, 0, now).unwrap().0.id)
            .collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn coop_serves_other_process_when_current_is_empty() {
        let topo = Topology::single_node(2);
        let mut p = CoopPolicy::new(topo.clone(), Duration::from_millis(1000));
        p.register_process(0);
        p.register_process(1);
        let now = Instant::now();
        p.enqueue(&topo, meta(10, 1, None), now);
        // Process 0 (current) has nothing; the pick should fall through to process 1.
        assert_eq!(p.pick(&topo, 0, now).unwrap().0.id, 10);
        assert!(p.rotations() >= 1);
    }

    #[test]
    fn coop_quantum_rotation() {
        let topo = Topology::single_node(1);
        let quantum = Duration::from_millis(10);
        let mut p = CoopPolicy::new(topo.clone(), quantum);
        p.register_process(0);
        p.register_process(1);
        let t0 = Instant::now();
        p.enqueue(&topo, meta(1, 0, None), t0);
        p.enqueue(&topo, meta(2, 1, None), t0);
        p.enqueue(&topo, meta(3, 0, None), t0);
        p.enqueue(&topo, meta(4, 1, None), t0);
        // Within the quantum, process 0 is served.
        assert_eq!(p.pick(&topo, 0, t0).unwrap().0.id, 1);
        assert_eq!(
            p.pick(&topo, 0, t0 + Duration::from_millis(5))
                .unwrap()
                .0
                .id,
            3
        );
        // After the quantum expires, process 1 gets its turn.
        assert_eq!(
            p.pick(&topo, 0, t0 + Duration::from_millis(15))
                .unwrap()
                .0
                .id,
            2
        );
        assert_eq!(p.current_process(), Some(1));
        // And process 1 keeps the core for its own quantum.
        assert_eq!(
            p.pick(&topo, 0, t0 + Duration::from_millis(20))
                .unwrap()
                .0
                .id,
            4
        );
    }

    #[test]
    fn coop_deregister_process_removes_bookkeeping() {
        let topo = Topology::single_node(1);
        let mut p = CoopPolicy::new(topo.clone(), Duration::from_millis(10));
        p.register_process(0);
        p.register_process(1);
        p.deregister_process(0);
        let now = Instant::now();
        p.enqueue(&topo, meta(1, 1, None), now);
        assert_eq!(p.pick(&topo, 0, now).unwrap().0.id, 1);
        // Registering twice is a no-op.
        p.register_process(1);
        assert_eq!(p.ready_count(), 0);
    }

    #[test]
    fn coop_process_domain_restricts_picks() {
        let topo = Topology::new(4, 2);
        let mut p = CoopPolicy::new(topo.clone(), Duration::from_millis(20));
        p.set_process_domain(0, Some(vec![2, 3])); // pin to node 1
        let now = Instant::now();
        p.enqueue(&topo, meta(1, 0, None), now);
        assert!(p.pick(&topo, 0, now).is_none(), "core 0 is outside the pin");
        assert_eq!(p.pick(&topo, 3, now).unwrap().0.id, 1);
    }

    #[test]
    fn enqueue_for_unregistered_process_registers_it() {
        let topo = Topology::single_node(1);
        let mut p = CoopPolicy::new(topo.clone(), Duration::from_millis(10));
        let now = Instant::now();
        p.enqueue(&topo, meta(1, 7, None), now);
        assert!(p.has_ready());
        assert_eq!(p.pick(&topo, 0, now).unwrap().0.id, 1);
    }
}
