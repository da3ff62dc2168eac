//! The simulated SCHED_COOP policy.
//!
//! This is **the same implementation** as the real runtime's `usf_nosv::CoopPolicy`: both
//! are thin adapters over the generic `usf_nosv::readyq::CoopCore` (per-process per-core
//! FIFO queues keyed by last-run core, affinity → socket → remote tiered pop, rate-limited
//! anti-starvation aging valve, per-process quantum ring) — here instantiated with virtual
//! [`SimTime`] and the [`Machine`] topology view instead of `Instant` and `Topology`. An
//! idle core is offered its own affine threads first, then threads from its socket, then
//! anything else, and the policy serves one process for a quantum before rotating to the
//! next — but only at scheduling points, never by interrupting a running thread
//! ([`SimPolicy::preemption_quantum`] returns `None`).

use super::{ReadyThread, SimPolicy};
use crate::machine::Machine;
use crate::thread::{ProcessDesc, ProcessId, ThreadId};
use crate::time::SimTime;
use usf_nosv::readyq::CoopCore;
use usf_nosv::Topology;

/// See the module documentation.
pub struct CoopScheduler {
    core: CoopCore<ProcessId, ThreadId, SimTime>,
    quantum: SimTime,
}

impl std::fmt::Debug for CoopScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoopScheduler")
            .field("quantum", &self.quantum)
            .finish()
    }
}

impl CoopScheduler {
    /// Create a SCHED_COOP policy with the given per-process quantum.
    pub fn new(process_quantum: SimTime) -> Self {
        CoopScheduler {
            core: CoopCore::new(&Topology::single_node(1), process_quantum),
            quantum: process_quantum,
        }
    }

    /// Process-quantum rotations performed.
    pub fn rotations(&self) -> u64 {
        self.core.rotations()
    }
}

impl SimPolicy for CoopScheduler {
    fn init(&mut self, machine: &Machine, processes: &[ProcessDesc]) {
        // Re-snapshot the topology (init may be called after new(), with the real
        // machine); queues built for a different core count are recreated. The machine's
        // embedded `Topology` is the same type the real runtime's policy consumes.
        self.core.set_topology(&machine.topology);
        for p in processes {
            self.core.register_process(p.id);
            // A placement restriction becomes a CoopCore process domain: the affinity →
            // node → anywhere tiers (and the aging valve) all stay inside it.
            self.core.set_process_domain(p.id, p.allowed_cores.clone());
        }
    }

    fn enqueue(&mut self, thread: ReadyThread, now: SimTime) {
        self.core
            .enqueue(thread.process, thread.id, thread.last_core, now);
    }

    fn pick(&mut self, core: usize, now: SimTime) -> Option<ThreadId> {
        self.core.pick(core, now)
    }

    fn pick_affine(&mut self, core: usize, now: SimTime) -> Option<ThreadId> {
        // Serve threads whose preferred core is exactly this one, regardless of the
        // process rotation (affinity placement is checked before quantum fairness, §4.1).
        // The anti-starvation valve still runs first — see `CoopCore::pick_affine`.
        self.core.pick_affine(core, now)
    }

    fn has_ready(&self) -> bool {
        self.core.has_ready()
    }

    fn has_ready_for(&self, core: usize) -> bool {
        self.core.has_ready_for(core)
    }

    fn ready_count(&self) -> usize {
        self.core.ready_count()
    }

    fn preemption_quantum(&self) -> Option<SimTime> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ready(id: ThreadId, process: ProcessId, last_core: Option<usize>) -> ReadyThread {
        ReadyThread {
            id,
            process,
            last_core,
            vruntime: 0.0,
        }
    }

    fn setup(cores: usize, sockets: usize, procs: usize) -> CoopScheduler {
        let machine = Machine::small_numa(cores, sockets);
        let mut s = CoopScheduler::new(SimTime::from_millis(20));
        let descs: Vec<ProcessDesc> = (0..procs)
            .map(|p| ProcessDesc::new(p, format!("p{p}")))
            .collect();
        s.init(&machine, &descs);
        s
    }

    #[test]
    fn affinity_first_then_socket_then_remote() {
        let mut s = setup(4, 2, 1);
        let now = SimTime::ZERO;
        s.enqueue(ready(1, 0, Some(1)), now); // socket 0
        s.enqueue(ready(2, 0, Some(3)), now); // socket 1
        s.enqueue(ready(3, 0, Some(0)), now); // affine to core 0
        assert_eq!(
            s.pick(0, now),
            Some(3),
            "core 0 takes its affine thread first"
        );
        assert_eq!(s.pick(0, now), Some(1), "then a same-socket thread");
        assert_eq!(s.pick(0, now), Some(2), "then a remote one");
        assert!(!s.has_ready());
    }

    #[test]
    fn never_preempts() {
        let s = CoopScheduler::new(SimTime::from_millis(20));
        assert!(s.preemption_quantum().is_none());
    }

    #[test]
    fn quantum_rotates_between_processes_at_pick_time() {
        let mut s = setup(1, 1, 2);
        let t0 = SimTime::ZERO;
        s.enqueue(ready(10, 0, None), t0);
        s.enqueue(ready(20, 1, None), t0);
        s.enqueue(ready(11, 0, None), t0);
        s.enqueue(ready(21, 1, None), t0);
        assert_eq!(s.pick(0, t0), Some(10));
        assert_eq!(s.pick(0, t0 + SimTime::from_millis(5)), Some(11));
        // Quantum expired → process 1's turn.
        assert_eq!(s.pick(0, t0 + SimTime::from_millis(25)), Some(20));
        assert_eq!(s.pick(0, t0 + SimTime::from_millis(30)), Some(21));
        assert!(s.rotations() >= 1);
    }

    #[test]
    fn falls_through_to_other_process_when_current_empty() {
        let mut s = setup(2, 1, 2);
        let now = SimTime::ZERO;
        s.enqueue(ready(5, 1, None), now);
        assert_eq!(s.pick(0, now), Some(5));
        assert_eq!(s.ready_count(), 0);
    }

    #[test]
    fn allowed_cores_become_process_domains() {
        let machine = Machine::small_numa(4, 2);
        let mut s = CoopScheduler::new(SimTime::from_millis(20));
        let free = ProcessDesc::new(0, "free");
        let pinned = ProcessDesc::new(1, "pinned").allowed_cores(vec![2, 3]);
        s.init(&machine, &[free, pinned]);
        s.enqueue(ready(10, 1, None), SimTime::ZERO);
        assert_eq!(s.pick(0, SimTime::ZERO), None, "core 0 is outside the pin");
        assert_eq!(s.pick_affine(0, SimTime::ZERO), None);
        assert_eq!(s.pick(3, SimTime::ZERO), Some(10));
        // The unrestricted process still runs anywhere.
        s.enqueue(ready(20, 0, None), SimTime::ZERO);
        assert_eq!(s.pick(0, SimTime::ZERO), Some(20));
    }

    #[test]
    fn unknown_process_is_registered_on_enqueue() {
        let mut s = setup(2, 1, 1);
        s.enqueue(ready(9, 7, Some(1)), SimTime::ZERO);
        assert_eq!(s.pick(1, SimTime::ZERO), Some(9));
    }
}
