//! Simulated scheduling policies.

mod coop;
mod fair;

pub use coop::CoopScheduler;
pub use fair::FairScheduler;

use crate::machine::Machine;
use crate::thread::{ProcessDesc, ProcessId, ThreadId};
use crate::time::SimTime;

/// The scheduling-relevant view of a ready thread handed to a policy.
#[derive(Debug, Clone, Copy)]
pub struct ReadyThread {
    /// Thread identifier.
    pub id: ThreadId,
    /// Owning process.
    pub process: ProcessId,
    /// Core the thread last ran on, if any.
    pub last_core: Option<usize>,
    /// Virtual runtime accumulated so far (seconds, weighted).
    pub vruntime: f64,
}

/// A simulated scheduling policy: decides which ready thread an idle core runs next and
/// whether running threads are preempted on a quantum.
pub trait SimPolicy: Send {
    /// Called once before the simulation starts.
    fn init(&mut self, machine: &Machine, processes: &[ProcessDesc]);

    /// A thread became ready.
    fn enqueue(&mut self, thread: ReadyThread, now: SimTime);

    /// Core `core` is idle: pick the next thread for it (or leave it idle).
    fn pick(&mut self, core: usize, now: SimTime) -> Option<ThreadId>;

    /// Like [`SimPolicy::pick`], but only return a thread that *prefers* this core (its last
    /// core). Affinity-aware policies override this so the engine can fill idle cores with
    /// their affine threads before falling back to stealing; the default simply delegates to
    /// [`SimPolicy::pick`].
    fn pick_affine(&mut self, core: usize, now: SimTime) -> Option<ThreadId> {
        self.pick(core, now)
    }

    /// Whether any thread is currently queued.
    ///
    /// Contract: [`SimPolicy::pick`] and [`SimPolicy::pick_affine`] can return `Some` only
    /// while this is true — the engine ends a dispatch pass as soon as it is false.
    fn has_ready(&self) -> bool;

    /// Whether any queued thread is *eligible to run on `core`* — placement-aware
    /// policies override this so the engine's "is switching useful" checks (quantum
    /// preemption, yields) do not vacate a core for threads that are pinned elsewhere.
    /// The default ignores placement and delegates to [`SimPolicy::has_ready`].
    ///
    /// Contract: `pick(core, _)` and `pick_affine(core, _)` can return `Some` only while
    /// `has_ready_for(core)` is true — the engine never offers a core a pick otherwise, so
    /// an override that says `false` where a pick would succeed strands work.
    fn has_ready_for(&self, core: usize) -> bool {
        let _ = core;
        self.has_ready()
    }

    /// Number of queued threads.
    fn ready_count(&self) -> usize;

    /// `Some(quantum)` if running threads must be preempted after the quantum when other
    /// work is ready; `None` for purely cooperative policies.
    fn preemption_quantum(&self) -> Option<SimTime>;
}

/// Convenience descriptions of the built-in policies, used by workloads and benches.
#[derive(Debug, Clone)]
pub enum SchedModel {
    /// Preemptive weighted-fair scheduling (the Linux EEVDF/CFS baseline).
    Fair,
    /// The paper's SCHED_COOP cooperative policy with the given per-process quantum.
    Coop {
        /// Per-process quantum evaluated at scheduling points (20 ms in the paper).
        process_quantum: SimTime,
    },
    /// Static core partitioning (bl-eq / bl-opt): [`SchedModel::Fair`] inside per-process
    /// core masks, as `taskset` does. An assignment replaces that process's
    /// [`ProcessDesc::allowed_cores`]; processes absent from the map may run anywhere.
    Partitioned {
        /// `(process, cores)` assignments.
        assignments: Vec<(ProcessId, Vec<usize>)>,
    },
}

impl SchedModel {
    /// The SCHED_COOP model with the paper's default 20 ms process quantum.
    pub fn coop_default() -> Self {
        SchedModel::Coop {
            process_quantum: SimTime::from_millis(20),
        }
    }

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            SchedModel::Fair => "linux-fair",
            SchedModel::Coop { .. } => "sched_coop",
            SchedModel::Partitioned { .. } => "partitioned",
        }
    }

    /// Instantiate the policy object.
    pub fn build(&self, machine: &Machine) -> Box<dyn SimPolicy> {
        match self {
            SchedModel::Fair => Box::new(FairScheduler::new(machine.preemption_quantum)),
            SchedModel::Coop { process_quantum } => Box::new(CoopScheduler::new(*process_quantum)),
            SchedModel::Partitioned { assignments } => Box::new(FairScheduler::partitioned(
                assignments.clone(),
                machine.preemption_quantum,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_build() {
        let m = Machine::small(4);
        assert_eq!(SchedModel::Fair.label(), "linux-fair");
        assert_eq!(SchedModel::coop_default().label(), "sched_coop");
        let part = SchedModel::Partitioned {
            assignments: vec![(0, vec![0, 1])],
        };
        assert_eq!(part.label(), "partitioned");
        assert!(SchedModel::Fair.build(&m).preemption_quantum().is_some());
        assert!(part.build(&m).preemption_quantum().is_some());
        assert!(SchedModel::coop_default()
            .build(&m)
            .preemption_quantum()
            .is_none());
    }
}
