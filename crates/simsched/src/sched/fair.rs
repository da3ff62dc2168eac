//! Preemptive weighted-fair scheduling (the Linux EEVDF/CFS-like baseline).
//!
//! Ready threads are ordered by *virtual runtime* (actual on-core time divided by the
//! owning process's weight). An idle core always picks the smallest vruntime; running
//! threads are preempted after a quantum whenever other work is ready. This captures the
//! two baseline behaviours the paper's analysis rests on: time-sharing noise (threads are
//! interrupted regardless of what they are doing — including while holding locks or while
//! other threads spin on them) and fairness (all oversubscribed requests progress evenly,
//! the Figure 4 bl-none collapse).
//!
//! Unlike the real USF scheduler — which treats affinity as a hint (§4.3.2) — the OS
//! baseline *enforces* placement restrictions: `sched_setaffinity` masks are hard limits
//! under Linux. A process registered with
//! [`ProcessDesc::allowed_cores`](crate::thread::ProcessDesc) therefore keeps its own
//! vruntime-ordered queue, consulted only by the cores its mask names; everything else
//! shares the global queue. The static-partition baselines (bl-eq / bl-opt, §5.5) are this
//! same policy with the masks taken from a `(process, cores)` table
//! ([`FairScheduler::partitioned`]) — on the paper's machine a static split is `taskset`
//! under the same Linux scheduler.

use super::{ReadyThread, SimPolicy};
use crate::machine::Machine;
use crate::thread::{ProcessDesc, ProcessId, ThreadId};
use crate::time::SimTime;
use std::collections::BTreeSet;

/// See the module documentation.
#[derive(Debug)]
pub struct FairScheduler {
    /// Ready threads of unrestricted processes, ordered by (scaled vruntime, id).
    queue: BTreeSet<(u64, ThreadId)>,
    /// Ready threads of mask-restricted processes, one queue per restricted process.
    masked: Vec<BTreeSet<(u64, ThreadId)>>,
    /// Index into `masked` of each restricted process, dense by process id.
    queue_of: Vec<Option<usize>>,
    /// Per core, the `masked` queues whose mask admits it — exactly one on a core of a
    /// static partition, so a pick there inspects one queue.
    admitted: Vec<Vec<usize>>,
    /// `Some` for a static partition: these core sets are the masks and
    /// [`ProcessDesc::allowed_cores`] is not consulted.
    assignments: Option<Vec<(ProcessId, Vec<usize>)>>,
    /// Monotonic floor for vruntime so newly woken threads do not starve older ones.
    min_vruntime: f64,
    quantum: SimTime,
}

impl FairScheduler {
    /// Create a fair scheduler with the given preemption quantum; masks come from each
    /// process's [`ProcessDesc::allowed_cores`].
    pub fn new(quantum: SimTime) -> Self {
        FairScheduler {
            queue: BTreeSet::new(),
            masked: Vec::new(),
            queue_of: Vec::new(),
            admitted: Vec::new(),
            assignments: None,
            min_vruntime: 0.0,
            quantum,
        }
    }

    /// A static core partition (the bl-eq / bl-opt baselines of §5.5): fair scheduling
    /// inside the `(process, cores)` masks given here, as `taskset` does. An assignment
    /// replaces that process's `allowed_cores`; a process without one is unrestricted.
    pub fn partitioned(assignments: Vec<(ProcessId, Vec<usize>)>, quantum: SimTime) -> Self {
        FairScheduler {
            assignments: Some(assignments),
            ..FairScheduler::new(quantum)
        }
    }

    fn key(vruntime: f64, id: ThreadId) -> (u64, ThreadId) {
        // Scale seconds to nanoseconds for a total order; clamp to avoid overflow.
        (
            (vruntime.max(0.0) * 1e9).min(u64::MAX as f64 / 2.0) as u64,
            id,
        )
    }
}

impl SimPolicy for FairScheduler {
    fn init(&mut self, machine: &Machine, processes: &[ProcessDesc]) {
        let masks: Vec<(ProcessId, &[usize])> = match &self.assignments {
            Some(assignments) => assignments.iter().map(|(p, c)| (*p, &c[..])).collect(),
            None => processes
                .iter()
                .filter_map(|p| Some((p.id, p.allowed_cores.as_deref()?)))
                .collect(),
        };
        self.admitted = vec![Vec::new(); machine.cores()];
        for (pid, cores) in masks {
            let q = self.masked.len();
            let mut any = false;
            for &core in cores {
                if let Some(admits) = self.admitted.get_mut(core) {
                    if !admits.contains(&q) {
                        admits.push(q);
                    }
                    any = true;
                }
            }
            // A mask naming no core of this machine is no restriction.
            if any {
                self.masked.push(BTreeSet::new());
                if self.queue_of.len() <= pid {
                    self.queue_of.resize(pid + 1, None);
                }
                self.queue_of[pid] = Some(q);
            }
        }
    }

    fn enqueue(&mut self, thread: ReadyThread, _now: SimTime) {
        // CFS-style: place newly woken threads no earlier than the current minimum so a
        // thread that slept for a long time does not monopolize the CPU when it wakes.
        let vr = thread.vruntime.max(self.min_vruntime);
        let key = Self::key(vr, thread.id);
        match self.queue_of.get(thread.process).copied().flatten() {
            Some(q) => self.masked[q].insert(key),
            None => self.queue.insert(key),
        };
    }

    fn pick(&mut self, core: usize, _now: SimTime) -> Option<ThreadId> {
        // The lowest (vruntime, id) among the shared queue and the masked queues that
        // admit this core.
        let mut best = self.queue.first().map(|&key| (key, None));
        if let Some(admits) = self.admitted.get(core) {
            for &q in admits {
                if let Some(&key) = self.masked[q].first() {
                    if best.map_or(true, |(b, _)| key < b) {
                        best = Some((key, Some(q)));
                    }
                }
            }
        }
        let (key, owner) = best?;
        match owner {
            Some(q) => self.masked[q].remove(&key),
            None => self.queue.remove(&key),
        };
        self.min_vruntime = self.min_vruntime.max(key.0 as f64 / 1e9);
        Some(key.1)
    }

    fn has_ready(&self) -> bool {
        self.ready_count() > 0
    }

    fn has_ready_for(&self, core: usize) -> bool {
        // Work queued behind other cores' masks must not preempt this core's thread.
        !self.queue.is_empty()
            || self
                .admitted
                .get(core)
                .is_some_and(|admits| admits.iter().any(|&q| !self.masked[q].is_empty()))
    }

    fn ready_count(&self) -> usize {
        self.queue.len() + self.masked.iter().map(BTreeSet::len).sum::<usize>()
    }

    fn preemption_quantum(&self) -> Option<SimTime> {
        Some(self.quantum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ready(id: ThreadId, vr: f64) -> ReadyThread {
        of(id, 0, vr)
    }

    fn of(id: ThreadId, process: ProcessId, vr: f64) -> ReadyThread {
        ReadyThread {
            id,
            process,
            last_core: None,
            vruntime: vr,
        }
    }

    /// Processes 0 and 1 split four cores in halves; `extra` processes are unassigned.
    fn halves(extra: &[ProcessDesc]) -> FairScheduler {
        let mut s = FairScheduler::partitioned(
            vec![(0, vec![0, 1]), (1, vec![2, 3])],
            SimTime::from_millis(4),
        );
        let mut procs = vec![ProcessDesc::new(0, "a"), ProcessDesc::new(1, "b")];
        procs.extend_from_slice(extra);
        s.init(&Machine::small(4), &procs);
        s
    }

    #[test]
    fn picks_lowest_vruntime_first() {
        let mut s = FairScheduler::new(SimTime::from_millis(4));
        s.enqueue(ready(1, 0.5), SimTime::ZERO);
        s.enqueue(ready(2, 0.1), SimTime::ZERO);
        s.enqueue(ready(3, 0.3), SimTime::ZERO);
        assert_eq!(s.ready_count(), 3);
        assert_eq!(s.pick(0, SimTime::ZERO), Some(2));
        assert_eq!(s.pick(0, SimTime::ZERO), Some(3));
        assert_eq!(s.pick(0, SimTime::ZERO), Some(1));
        assert_eq!(s.pick(0, SimTime::ZERO), None);
        assert!(!s.has_ready());
    }

    #[test]
    fn woken_threads_do_not_undercut_min_vruntime() {
        let mut s = FairScheduler::new(SimTime::from_millis(4));
        s.enqueue(ready(1, 5.0), SimTime::ZERO);
        assert_eq!(s.pick(0, SimTime::ZERO), Some(1));
        // A brand-new thread with vruntime 0 is clamped to the floor (5.0), so it does not
        // get an unbounded advantage; ties are broken by id, and 2 > 1 anyway.
        s.enqueue(ready(2, 0.0), SimTime::ZERO);
        s.enqueue(ready(3, 5.1), SimTime::ZERO);
        assert_eq!(s.pick(0, SimTime::ZERO), Some(2));
        assert_eq!(s.pick(0, SimTime::ZERO), Some(3));
    }

    #[test]
    fn quantum_is_exposed() {
        let s = FairScheduler::new(SimTime::from_millis(7));
        assert_eq!(s.preemption_quantum(), Some(SimTime::from_millis(7)));
    }

    #[test]
    fn masked_process_only_served_to_allowed_cores() {
        let machine = Machine::small_numa(4, 2);
        let mut s = FairScheduler::new(SimTime::from_millis(4));
        let pinned = ProcessDesc::new(1, "pinned").allowed_cores(vec![2, 3]);
        s.init(&machine, &[ProcessDesc::new(0, "free"), pinned]);
        s.enqueue(
            ReadyThread {
                id: 10,
                process: 1,
                last_core: None,
                vruntime: 0.0,
            },
            SimTime::ZERO,
        );
        assert!(s.has_ready());
        assert_eq!(s.ready_count(), 1);
        assert_eq!(s.pick(0, SimTime::ZERO), None, "core 0 is outside the mask");
        assert_eq!(s.pick(2, SimTime::ZERO), Some(10));
        // Unrestricted threads still compete everywhere, in vruntime order.
        s.enqueue(
            ReadyThread {
                id: 20,
                process: 0,
                last_core: None,
                vruntime: 0.5,
            },
            SimTime::ZERO,
        );
        s.enqueue(
            ReadyThread {
                id: 11,
                process: 1,
                last_core: None,
                vruntime: 0.1,
            },
            SimTime::ZERO,
        );
        assert_eq!(
            s.pick(3, SimTime::ZERO),
            Some(11),
            "masked thread wins on its core by vruntime"
        );
        assert_eq!(s.pick(0, SimTime::ZERO), Some(20));
    }

    #[test]
    fn threads_only_run_on_their_partition() {
        let mut s = halves(&[]);
        s.enqueue(of(10, 0, 0.0), SimTime::ZERO);
        s.enqueue(of(20, 1, 0.0), SimTime::ZERO);
        // Core 2 belongs to process 1: must not pick process 0's thread.
        assert_eq!(s.pick(2, SimTime::ZERO), Some(20));
        assert_eq!(s.pick(2, SimTime::ZERO), None);
        assert_eq!(s.pick(0, SimTime::ZERO), Some(10));
        assert!(!s.has_ready());
    }

    #[test]
    fn has_ready_for_ignores_other_partitions() {
        let mut s = halves(&[ProcessDesc::new(9, "gw")]);
        s.enqueue(of(20, 1, 0.0), SimTime::ZERO);
        assert!(s.has_ready());
        assert!(
            !s.has_ready_for(0),
            "process 1's backlog cannot run on process 0's cores"
        );
        assert!(s.has_ready_for(2));
        // Shared (unassigned-process) work makes every core preemptible.
        s.enqueue(of(90, 9, 0.0), SimTime::ZERO);
        assert!(s.has_ready_for(0));
    }

    #[test]
    fn unassigned_processes_compete_by_vruntime_on_every_core() {
        // A process without an assignment is unrestricted: it runs on a partitioned core
        // whenever it holds the lowest vruntime there, not only when the owner is idle.
        let mut s = halves(&[ProcessDesc::new(9, "gw")]);
        s.enqueue(of(10, 0, 0.2), SimTime::ZERO);
        s.enqueue(of(90, 9, 0.1), SimTime::ZERO);
        s.enqueue(of(91, 9, 0.3), SimTime::ZERO);
        assert_eq!(s.pick(0, SimTime::ZERO), Some(90), "lower vruntime wins");
        assert_eq!(s.pick(0, SimTime::ZERO), Some(10));
        assert_eq!(s.pick(3, SimTime::ZERO), Some(91), "and any core serves it");
    }

    #[test]
    fn assignment_overrides_allowed_cores() {
        // Process 0 asks for cores 2–3 but is assigned 0–1; the unassigned process 9 asks
        // for core 0 only but, under a partition, runs anywhere.
        let mut s = FairScheduler::partitioned(vec![(0, vec![0, 1])], SimTime::from_millis(4));
        let asks = ProcessDesc::new(0, "a").allowed_cores(vec![2, 3]);
        let gw = ProcessDesc::new(9, "gw").allowed_cores(vec![0]);
        s.init(&Machine::small(4), &[asks, gw]);
        s.enqueue(of(10, 0, 0.0), SimTime::ZERO);
        assert_eq!(s.pick(2, SimTime::ZERO), None);
        assert_eq!(s.pick(1, SimTime::ZERO), Some(10));
        s.enqueue(of(90, 9, 0.0), SimTime::ZERO);
        assert_eq!(s.pick(3, SimTime::ZERO), Some(90));
    }
}
