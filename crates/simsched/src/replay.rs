//! Deterministic replay of recorded scheduler traces.
//!
//! A trace recorded by the real runtime ([`usf_nosv::sched_trace`], behind its
//! `sched-trace` feature) is re-executed here through the *simulator's* instantiation of
//! the shared SCHED_COOP generic — [`usf_nosv::CoopCore`]`<ProcessId, TaskId, SimTime>` — and
//! every recorded pop is compared against what the simulated policy picks at the same logical
//! step. A mismatch means the simulator and the runtime have drifted apart, which the
//! equivalence tests turn into a CI failure.
//!
//! The replay consumes the state-mutating events (`RegisterProcess`, `DeregisterProcess`,
//! `SetDomain`, `Enqueue`, `Pop`, `PopEmpty` — an empty pick re-arms the aging valve, so
//! it must be replayed too) as its script; `Grant` events are cross-checked against
//! the preceding pop (every non-immediate grant must hand out exactly the task the policy
//! just popped); the remaining events (`Submit`, `IntakeDrain`, `Yield`, `Migrate`,
//! `FaultInjected`, `Shutdown`) are context and are ignored — an injected fault's
//! *effects* show up as ordinary events, so a faulty trace replays like any other. Timestamps are mapped nanosecond-exact —
//! `SimTime::from_nanos(entry.at_nanos)` — which reproduces every quantum rotation and
//! aging-valve decision of the original run (see the recording-side documentation on why
//! the recorded instant is authoritative).
//!
//! # Shards
//!
//! The recording scheduler runs one SCHED_COOP instance per NUMA node of
//! `meta.core_nodes`, so the replay does too — on a [`CoopShards`], i.e. through the
//! scheduler's own code for everything that crosses a shard boundary: one ladder trip per
//! recorded `Pop`/`PopEmpty` (the recording side guarantees one event per trip) and the
//! enqueue routing rule per recorded `Enqueue`. This is deterministic for the serial
//! traces the fuzzer produces because a serial recorder never loses a `try_lock` and its
//! lock-free `ready > 0` victim guard equals the `has_ready()` guard of
//! [`CoopShards::pick`], so victims are tried here exactly when they were tried there;
//! and because the one routing input missing from an `Enqueue` event — whether it is a
//! yield requeue, and from which core — is the `Yield` event immediately before it.
//! Concurrent multi-shard recordings are seq-stamped best-effort (see
//! `usf_nosv::sched_trace`) and are not fed through `assert_replays_clean`.

use crate::time::SimTime;
use usf_nosv::{CoopShards, PickTier, ProcessId, TaskId};
use usf_nosv::{TraceEntry, TraceEvent, TraceMeta};

/// The first step at which the simulated policy disagreed with the recorded schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Logical step (the trace entry's index) of the disagreeing pop.
    pub step: u64,
    /// What the recording scheduler popped (task, tier; tier is `None` for tier-less
    /// policies), or `None` for a recorded empty pick ([`TraceEvent::PopEmpty`]).
    pub recorded: Option<(TaskId, Option<PickTier>)>,
    /// What the simulated policy popped instead (`None`: nothing was ready).
    pub replayed: Option<(TaskId, PickTier)>,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "step {}: recorded pop {:?}, simulated policy picked {:?}",
            self.step, self.recorded, self.replayed
        )
    }
}

/// Outcome of replaying one trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// Pops replayed (and compared) before stopping.
    pub pops: u64,
    /// Grant events seen (immediate and popped).
    pub grants: u64,
    /// Logical steps of the pops the *simulated* policy served from the aging valve.
    pub aged_steps: Vec<u64>,
    /// Non-immediate grants whose task did not match the latest replayed pop (always 0
    /// for a well-formed trace).
    pub mismatched_grants: u64,
    /// The first divergence, if the simulated policy ever disagreed with the recording.
    pub divergence: Option<Divergence>,
}

impl ReplayReport {
    /// Whether the whole trace replayed without drift.
    pub fn is_clean(&self) -> bool {
        self.divergence.is_none() && self.mismatched_grants == 0
    }
}

/// Replay `entries` (recorded against the scheduler described by `meta`) through the
/// simulator's SCHED_COOP instantiation, stopping at the first divergence.
pub fn replay(meta: &TraceMeta, entries: &[TraceEntry]) -> ReplayReport {
    let mut set: CoopShards<ProcessId, TaskId, SimTime> =
        CoopShards::new(meta, SimTime::from_nanos(meta.quantum_nanos));
    let mut report = ReplayReport {
        pops: 0,
        grants: 0,
        aged_steps: Vec::new(),
        mismatched_grants: 0,
        divergence: None,
    };
    let mut last_pop: Option<TaskId> = None;
    // The immediately preceding event, when it was a `Yield` (task, core) — the routing
    // key for the yield-requeue `Enqueue` that directly follows it.
    let mut last_yield: Option<(TaskId, usize)> = None;
    for entry in entries {
        let now = SimTime::from_nanos(entry.at_nanos);
        let this_yield = match &entry.event {
            TraceEvent::Yield { task, core } => Some((*task, *core)),
            _ => None,
        };
        match &entry.event {
            TraceEvent::RegisterProcess { process } => {
                for shard in &mut set.cores {
                    shard.register_process(*process);
                }
            }
            TraceEvent::DeregisterProcess { process } => {
                for shard in &mut set.cores {
                    shard.deregister_process(*process);
                }
            }
            TraceEvent::SetDomain { process, cores } => {
                for shard in &mut set.cores {
                    shard.set_process_domain(*process, cores.clone());
                }
            }
            TraceEvent::Enqueue {
                process,
                task,
                preferred,
            } => {
                let yield_core = last_yield
                    .filter(|(yielder, _)| yielder == task)
                    .map(|(_, core)| core);
                set.enqueue(*process, *task, yield_core, *preferred, now);
            }
            TraceEvent::Pop {
                core: at_core,
                tier,
                task,
            } => {
                let picked = set.pick(*at_core, now);
                let matches = match picked {
                    Some((t, picked_tier)) => {
                        t == *task && tier.map_or(true, |rec| rec == picked_tier)
                    }
                    None => false,
                };
                if !matches {
                    report.divergence = Some(Divergence {
                        step: entry.step,
                        recorded: Some((*task, *tier)),
                        replayed: picked,
                    });
                    return report;
                }
                if let Some((_, PickTier::Aged)) = picked {
                    report.aged_steps.push(entry.step);
                }
                report.pops += 1;
                last_pop = Some(*task);
            }
            TraceEvent::PopEmpty { core: at_core } => {
                // Re-execute the empty pick: it must serve nothing here too, and its
                // side effects (re-arming the per-queue valves and the ladder's probe
                // deadline) keep later pops in lockstep.
                if let Some(picked) = set.pick(*at_core, now) {
                    report.divergence = Some(Divergence {
                        step: entry.step,
                        recorded: None,
                        replayed: Some(picked),
                    });
                    return report;
                }
            }
            TraceEvent::Grant {
                task, immediate, ..
            } => {
                report.grants += 1;
                if !*immediate && last_pop != Some(*task) {
                    report.mismatched_grants += 1;
                }
            }
            TraceEvent::Submit { .. }
            | TraceEvent::IntakeDrain { .. }
            | TraceEvent::Yield { .. }
            | TraceEvent::Migrate { .. }
            | TraceEvent::FaultInjected { .. }
            | TraceEvent::Shutdown => {}
        }
        last_yield = this_yield;
    }
    report
}

/// [`replay`], but panic with a readable message on any drift — the form the equivalence
/// tests and the fuzz smoke harness use to gate CI.
pub fn assert_replays_clean(meta: &TraceMeta, entries: &[TraceEntry]) -> ReplayReport {
    let report = replay(meta, entries);
    if let Some(d) = &report.divergence {
        panic!("sim-vs-real schedule drift: {d}");
    }
    assert_eq!(
        report.mismatched_grants, 0,
        "trace granted tasks that were not the latest pop"
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta_2x2() -> TraceMeta {
        TraceMeta {
            core_nodes: vec![0, 0, 1, 1],
            quantum_nanos: 50_000,
            policy: "sched_coop".to_string(),
        }
    }

    fn entry(step: u64, at_nanos: u64, event: TraceEvent) -> TraceEntry {
        TraceEntry {
            step,
            at_nanos,
            event,
        }
    }

    #[test]
    fn scripted_trace_replays_clean() {
        let meta = meta_2x2();
        let entries = vec![
            entry(0, 0, TraceEvent::RegisterProcess { process: 1 }),
            entry(
                1,
                10,
                TraceEvent::Enqueue {
                    process: 1,
                    task: 7,
                    preferred: Some(2),
                },
            ),
            entry(
                2,
                20,
                TraceEvent::Pop {
                    core: 2,
                    tier: Some(PickTier::Affinity),
                    task: 7,
                },
            ),
            entry(
                3,
                20,
                TraceEvent::Grant {
                    task: 7,
                    core: 2,
                    immediate: false,
                },
            ),
        ];
        let report = assert_replays_clean(&meta, &entries);
        assert_eq!(report.pops, 1);
        assert_eq!(report.grants, 1);
        assert!(report.aged_steps.is_empty());
    }

    #[test]
    fn wrong_recorded_pop_is_reported_as_divergence() {
        let meta = meta_2x2();
        let entries = vec![
            entry(0, 0, TraceEvent::RegisterProcess { process: 1 }),
            entry(
                1,
                10,
                TraceEvent::Enqueue {
                    process: 1,
                    task: 7,
                    preferred: None,
                },
            ),
            entry(
                2,
                20,
                TraceEvent::Pop {
                    core: 0,
                    tier: None,
                    task: 99, // the recorded scheduler claims a task the queues never saw
                },
            ),
        ];
        let report = replay(&meta, &entries);
        let d = report.divergence.expect("divergence must be detected");
        assert_eq!(d.step, 2);
        assert_eq!(d.recorded, Some((99, None)));
        assert_eq!(d.replayed.map(|(t, _)| t), Some(7));
    }

    #[test]
    fn scripted_split_trace_replays_local_picks_and_steal() {
        let meta = meta_2x2();
        let entries = vec![
            entry(0, 0, TraceEvent::RegisterProcess { process: 1 }),
            // Preferred cores route the enqueues to their home shards.
            entry(
                1,
                10,
                TraceEvent::Enqueue {
                    process: 1,
                    task: 7,
                    preferred: Some(0),
                },
            ),
            entry(
                2,
                10,
                TraceEvent::Enqueue {
                    process: 1,
                    task: 8,
                    preferred: Some(2),
                },
            ),
            // Each shard serves its own affinity pick.
            entry(
                3,
                20,
                TraceEvent::Pop {
                    core: 0,
                    tier: Some(PickTier::Affinity),
                    task: 7,
                },
            ),
            entry(
                4,
                20,
                TraceEvent::Grant {
                    task: 7,
                    core: 0,
                    immediate: false,
                },
            ),
            entry(
                5,
                25,
                TraceEvent::Pop {
                    core: 2,
                    tier: Some(PickTier::Affinity),
                    task: 8,
                },
            ),
            // Work lands in shard 0 while shard 1 goes idle: core 3 steals it.
            entry(
                6,
                30,
                TraceEvent::Enqueue {
                    process: 1,
                    task: 9,
                    preferred: Some(1),
                },
            ),
            entry(
                7,
                40,
                TraceEvent::Pop {
                    core: 3,
                    tier: Some(PickTier::Remote),
                    task: 9,
                },
            ),
            // Everything drained: the empty pick must be empty here too.
            entry(8, 45, TraceEvent::PopEmpty { core: 1 }),
        ];
        let report = assert_replays_clean(&meta, &entries);
        assert_eq!(report.pops, 3);
        assert!(report.aged_steps.is_empty());
    }

    #[test]
    fn split_yield_requeue_routes_to_the_yield_cores_shard() {
        let meta = meta_2x2();
        let entries = vec![
            entry(0, 0, TraceEvent::RegisterProcess { process: 1 }),
            entry(
                1,
                10,
                TraceEvent::Enqueue {
                    process: 1,
                    task: 1,
                    preferred: Some(2),
                },
            ),
            entry(
                2,
                20,
                TraceEvent::Pop {
                    core: 2,
                    tier: Some(PickTier::Affinity),
                    task: 1,
                },
            ),
            entry(
                3,
                20,
                TraceEvent::Grant {
                    task: 1,
                    core: 2,
                    immediate: false,
                },
            ),
            // Task 1 yields on core 2: its unbound requeue must land in shard 1 (the
            // yield core's shard), not shard 0 (the no-preference default).
            entry(4, 30, TraceEvent::Yield { task: 1, core: 2 }),
            entry(
                5,
                30,
                TraceEvent::Enqueue {
                    process: 1,
                    task: 1,
                    preferred: None,
                },
            ),
            // A later unbound enqueue with no preceding yield takes the default route
            // to shard 0.
            entry(
                6,
                35,
                TraceEvent::Enqueue {
                    process: 1,
                    task: 2,
                    preferred: None,
                },
            ),
            // Core 0's local pick sees only task 2 — if the yield requeue had been
            // misrouted to shard 0, the older task 1 would be popped here instead and
            // the replay would diverge.
            entry(
                7,
                40,
                TraceEvent::Pop {
                    core: 0,
                    tier: Some(PickTier::Node),
                    task: 2,
                },
            ),
            entry(
                8,
                45,
                TraceEvent::Pop {
                    core: 2,
                    tier: Some(PickTier::Node),
                    task: 1,
                },
            ),
        ];
        let report = assert_replays_clean(&meta, &entries);
        assert_eq!(report.pops, 3);
    }

    #[test]
    fn split_cross_shard_valve_serves_foreign_aged_work() {
        let meta = meta_2x2();
        let entries = vec![
            entry(0, 0, TraceEvent::RegisterProcess { process: 1 }),
            // An early empty pick on core 2 arms shard 1's cross-shard valve.
            entry(1, 10, TraceEvent::PopEmpty { core: 2 }),
            entry(
                2,
                20,
                TraceEvent::Enqueue {
                    process: 1,
                    task: 1,
                    preferred: Some(0),
                },
            ),
            // A quantum later the valve fires and core 2 takes shard 0's over-aged
            // task through the valve tier, ahead of the ordinary steal path.
            entry(
                3,
                60_000,
                TraceEvent::Pop {
                    core: 2,
                    tier: Some(PickTier::Aged),
                    task: 1,
                },
            ),
        ];
        let report = assert_replays_clean(&meta, &entries);
        assert_eq!(report.pops, 1);
        assert_eq!(report.aged_steps, vec![3]);
    }

    #[test]
    fn non_immediate_grant_must_match_last_pop() {
        let meta = meta_2x2();
        let entries = vec![
            entry(0, 0, TraceEvent::RegisterProcess { process: 1 }),
            entry(
                1,
                5,
                TraceEvent::Grant {
                    task: 3,
                    core: 0,
                    immediate: true, // idle-core grants bypass the queues: always fine
                },
            ),
            entry(
                2,
                9,
                TraceEvent::Grant {
                    task: 4,
                    core: 1,
                    immediate: false, // ...but a popped grant with no pop is malformed
                },
            ),
        ];
        let report = replay(&meta, &entries);
        assert_eq!(report.mismatched_grants, 1);
        assert!(!report.is_clean());
    }
}
