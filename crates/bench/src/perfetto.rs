//! Conversion of recorded schedules to Chrome trace-event ("Perfetto") JSON.
//!
//! A schedule recorded by an installed trace recorder (serialized as JSONL by
//! [`usf_nosv::sched_trace::to_jsonl`]) is an event log; Perfetto wants *tracks*. This
//! module rebuilds the timeline the log describes — per-core task-occupancy spans, point
//! events for faults/migrations/valve fires, and counter series — and renders it in the
//! [Chrome trace-event format] that `ui.perfetto.dev` (and `chrome://tracing`) opens
//! directly. The `usf-trace` binary is a thin CLI around this module.
//!
//! [Chrome trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! # Span semantics
//!
//! A span is a task's occupancy of a core: it opens at the task's
//! [`TraceEvent::Grant`] and closes at the first of
//!
//! * the next `Grant` on the same core (the scheduler only re-grants a core after its
//!   occupant left at a scheduling point, so the next grant bounds the previous
//!   occupancy from above),
//! * a [`TraceEvent::Yield`] by the occupant, or
//! * the end of the trace.
//!
//! This derives the timeline purely from events the scheduler already records — no extra
//! trace variants (which would perturb the replay/fuzz consumers of the same log). It
//! also gives the converter a checkable invariant, enforced by [`Timeline::validate`]:
//! **exactly one span per grant, and spans on one core never overlap.**

use crate::json::{JsonObject, JsonValue};
use std::collections::HashMap;
use usf_nosv::sched_trace::{TraceEntry, TraceEvent, TraceMeta};
use usf_nosv::{PickTier, StatsSample, TaskId};

/// One task-occupancy span on a core track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The occupied core.
    pub core: usize,
    /// The occupying task.
    pub task: TaskId,
    /// Trace-relative open time (the grant), nanoseconds.
    pub start_ns: u64,
    /// Trace-relative close time, nanoseconds.
    pub end_ns: u64,
}

/// A point event placed on a core track (or the scheduler-wide track when the core is
/// unknown).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Marker {
    /// Display name, e.g. `fault:WorkerStall` or `valve_fire`.
    pub name: String,
    /// Core track to place the instant on; `None` means the scheduler-wide track.
    pub core: Option<usize>,
    /// Trace-relative time, nanoseconds.
    pub at_ns: u64,
}

/// One point of a counter series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterPoint {
    /// Counter track name.
    pub track: &'static str,
    /// Trace-relative time, nanoseconds.
    pub at_ns: u64,
    /// Counter value at that time.
    pub value: i64,
}

/// The rebuilt timeline of one recorded schedule.
#[derive(Debug)]
pub struct Timeline {
    /// Topology and policy the trace was recorded from.
    pub meta: TraceMeta,
    /// Task-occupancy spans, in open order.
    pub spans: Vec<Span>,
    /// Point events (faults, migrations, aging-valve fires).
    pub markers: Vec<Marker>,
    /// Counter series (queued-ready depth derived from enqueue/pop; sampler gauges when
    /// a sample series was supplied).
    pub counters: Vec<CounterPoint>,
    /// Number of [`TraceEvent::Grant`] events seen (the span-count invariant's target).
    pub grants: usize,
}

/// Rebuild the [`Timeline`] described by a recorded event log.
///
/// `samples` is an optional lock-free sampler series ([`StatsSample`]) recorded alongside
/// the trace; its gauges become extra counter tracks.
pub fn build_timeline(
    meta: TraceMeta,
    entries: &[TraceEntry],
    samples: &[StatsSample],
) -> Timeline {
    let cores = meta.cores();
    // Per-core open occupancy: (task, start_ns).
    let mut open: Vec<Option<(TaskId, u64)>> = vec![None; cores];
    // Which core each granted task currently occupies (for placing fault instants).
    let mut task_core: HashMap<TaskId, usize> = HashMap::new();
    let mut spans = Vec::new();
    let mut markers = Vec::new();
    let mut counters = Vec::new();
    let mut grants = 0usize;
    let mut end_ns = 0u64;
    // Queued-ready depth derived from the authoritative enqueue/pop pair under the
    // scheduler lock (immediate grants bypass the queues and do not touch it).
    let mut ready_depth: i64 = 0;

    for e in entries {
        let at = e.at_nanos;
        end_ns = end_ns.max(at);
        match &e.event {
            TraceEvent::Grant { task, core, .. } => {
                grants += 1;
                if *core < cores {
                    if let Some((prev, start_ns)) = open[*core].take() {
                        task_core.remove(&prev);
                        spans.push(Span {
                            core: *core,
                            task: prev,
                            start_ns,
                            end_ns: at,
                        });
                    }
                    open[*core] = Some((*task, at));
                    task_core.insert(*task, *core);
                }
            }
            TraceEvent::Yield { task, core } => {
                if *core < cores {
                    if let Some((prev, start_ns)) = open[*core].take() {
                        task_core.remove(&prev);
                        spans.push(Span {
                            core: *core,
                            task: prev,
                            start_ns,
                            end_ns: at,
                        });
                    }
                }
                task_core.remove(task);
            }
            TraceEvent::Migrate { task, to, from } => {
                markers.push(Marker {
                    name: format!("migrate task {task} ({from}->{to})"),
                    core: Some(*to),
                    at_ns: at,
                });
            }
            TraceEvent::FaultInjected { site, task } => {
                let core = task.and_then(|t| task_core.get(&t).copied());
                markers.push(Marker {
                    name: format!("fault:{site:?}"),
                    core,
                    at_ns: at,
                });
            }
            TraceEvent::Enqueue { .. } => {
                ready_depth += 1;
                counters.push(CounterPoint {
                    track: "ready_depth",
                    at_ns: at,
                    value: ready_depth,
                });
            }
            TraceEvent::Pop { core, tier, .. } => {
                ready_depth = (ready_depth - 1).max(0);
                counters.push(CounterPoint {
                    track: "ready_depth",
                    at_ns: at,
                    value: ready_depth,
                });
                if *tier == Some(PickTier::Aged) {
                    markers.push(Marker {
                        name: "valve_fire".to_string(),
                        core: Some(*core),
                        at_ns: at,
                    });
                }
            }
            _ => {}
        }
    }

    // Close every still-open occupancy at the end of the trace.
    for (core, slot) in open.into_iter().enumerate() {
        if let Some((task, start_ns)) = slot {
            spans.push(Span {
                core,
                task,
                start_ns,
                end_ns: end_ns.max(start_ns),
            });
        }
    }

    for s in samples {
        let at_ns = s.at.as_nanos() as u64;
        counters.push(CounterPoint {
            track: "sampled_ready_tasks",
            at_ns,
            value: s.ready_tasks as i64,
        });
        counters.push(CounterPoint {
            track: "sampled_intake_depth",
            at_ns,
            value: s.intake_depth as i64,
        });
        counters.push(CounterPoint {
            track: "sampled_busy_cores",
            at_ns,
            value: s.busy_cores as i64,
        });
    }

    Timeline {
        meta,
        spans,
        markers,
        counters,
        grants,
    }
}

impl Timeline {
    /// Check the converter's structural invariants:
    ///
    /// * exactly one span per recorded grant;
    /// * every span lies on a core of the recorded topology with `start <= end`;
    /// * spans on the same core do not overlap.
    ///
    /// # Errors
    /// Returns a message describing the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.spans.len() != self.grants {
            return Err(format!(
                "span count {} != grant count {}",
                self.spans.len(),
                self.grants
            ));
        }
        let cores = self.meta.cores();
        let mut per_core: Vec<Vec<&Span>> = vec![Vec::new(); cores];
        for s in &self.spans {
            if s.core >= cores {
                return Err(format!(
                    "span on core {} outside topology ({cores})",
                    s.core
                ));
            }
            if s.start_ns > s.end_ns {
                return Err(format!(
                    "span on core {} ends ({}) before it starts ({})",
                    s.core, s.end_ns, s.start_ns
                ));
            }
            per_core[s.core].push(s);
        }
        for (core, mut spans) in per_core.into_iter().enumerate() {
            spans.sort_by_key(|s| s.start_ns);
            for w in spans.windows(2) {
                if w[1].start_ns < w[0].end_ns {
                    return Err(format!(
                        "overlapping spans on core {core}: task {} [{}, {}) and task {} [{}, {})",
                        w[0].task,
                        w[0].start_ns,
                        w[0].end_ns,
                        w[1].task,
                        w[1].start_ns,
                        w[1].end_ns
                    ));
                }
            }
        }
        Ok(())
    }

    /// Render as a Chrome trace-event JSON document (openable in `ui.perfetto.dev`).
    ///
    /// One named thread track per core (grouped under a single "usf scheduler" process),
    /// plus a `scheduler` track for instants whose core is unknown. Timestamps are
    /// microseconds (the format's unit) with nanosecond precision kept in the decimals.
    pub fn render_chrome_json(&self) -> String {
        let cores = self.meta.cores();
        let sched_tid = cores; // track for core-less instants, below the core tracks
        let mut events: Vec<JsonValue> = Vec::new();

        events.push(meta_event("process_name", None, "usf scheduler"));
        for core in 0..cores {
            let name = format!("core {core} (node {})", self.meta.core_nodes[core]);
            events.push(meta_event("thread_name", Some(core), &name));
        }
        events.push(meta_event("thread_name", Some(sched_tid), "scheduler"));

        for s in &self.spans {
            events.push(
                JsonObject::new()
                    .field("name", format!("task {}", s.task))
                    .field("ph", "X")
                    .field("pid", 1u64)
                    .field("tid", s.core)
                    .num("ts", s.start_ns as f64 / 1000.0, 3)
                    .num("dur", (s.end_ns - s.start_ns) as f64 / 1000.0, 3)
                    .into(),
            );
        }
        for m in &self.markers {
            events.push(
                JsonObject::new()
                    .field("name", m.name.as_str())
                    .field("ph", "i")
                    .field("s", "t")
                    .field("pid", 1u64)
                    .field("tid", m.core.unwrap_or(sched_tid))
                    .num("ts", m.at_ns as f64 / 1000.0, 3)
                    .into(),
            );
        }
        for c in &self.counters {
            events.push(
                JsonObject::new()
                    .field("name", c.track)
                    .field("ph", "C")
                    .field("pid", 1u64)
                    .field("tid", 0u64)
                    .num("ts", c.at_ns as f64 / 1000.0, 3)
                    .field("args", JsonObject::new().field("value", c.value))
                    .into(),
            );
        }

        JsonObject::new()
            .field("traceEvents", events)
            .field("displayTimeUnit", "ms")
            .field(
                "otherData",
                JsonObject::new()
                    .field("policy", self.meta.policy.as_str())
                    .field("cores", cores)
                    .field("quantum_nanos", self.meta.quantum_nanos),
            )
            .render()
    }
}

/// A Chrome trace metadata event (`ph:"M"`) naming a process or thread track.
fn meta_event(kind: &str, tid: Option<usize>, name: &str) -> JsonValue {
    let mut obj = JsonObject::new()
        .field("name", kind)
        .field("ph", "M")
        .field("pid", 1u64);
    if let Some(tid) = tid {
        obj = obj.field("tid", tid);
    }
    obj.field("args", JsonObject::new().field("name", name))
        .into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use usf_nosv::FaultSite;

    fn meta2() -> TraceMeta {
        TraceMeta {
            core_nodes: vec![0, 1],
            quantum_nanos: 1_000_000,
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
    fn spans_close_at_regrant_yield_and_trace_end() {
        let entries = vec![
            entry(
                0,
                100,
                TraceEvent::Grant {
                    task: 1,
                    core: 0,
                    immediate: true,
                },
            ),
            entry(1, 200, TraceEvent::Yield { task: 1, core: 0 }),
            entry(
                2,
                300,
                TraceEvent::Grant {
                    task: 2,
                    core: 0,
                    immediate: false,
                },
            ),
            entry(
                3,
                400,
                TraceEvent::Grant {
                    task: 3,
                    core: 0,
                    immediate: false,
                },
            ),
            entry(
                4,
                450,
                TraceEvent::Grant {
                    task: 4,
                    core: 1,
                    immediate: true,
                },
            ),
            entry(5, 500, TraceEvent::Shutdown),
        ];
        let tl = build_timeline(meta2(), &entries, &[]);
        tl.validate().expect("invariants hold");
        assert_eq!(tl.grants, 4);
        assert_eq!(tl.spans.len(), 4);
        // Yield closed task 1 at 200; re-grant closed task 2 at 400; trace end closed
        // task 3 and task 4 at 500.
        let find = |task| tl.spans.iter().find(|s| s.task == task).unwrap();
        assert_eq!((find(1).start_ns, find(1).end_ns), (100, 200));
        assert_eq!((find(2).start_ns, find(2).end_ns), (300, 400));
        assert_eq!((find(3).start_ns, find(3).end_ns), (400, 500));
        assert_eq!((find(4).start_ns, find(4).end_ns), (450, 500));
    }

    #[test]
    fn fault_instants_land_on_the_occupants_core() {
        let entries = vec![
            entry(
                0,
                100,
                TraceEvent::Grant {
                    task: 7,
                    core: 1,
                    immediate: true,
                },
            ),
            entry(
                1,
                150,
                TraceEvent::FaultInjected {
                    site: FaultSite::WorkerStall,
                    task: Some(7),
                },
            ),
            entry(
                2,
                160,
                TraceEvent::FaultInjected {
                    site: FaultSite::ShutdownRace,
                    task: None,
                },
            ),
        ];
        let tl = build_timeline(meta2(), &entries, &[]);
        assert_eq!(tl.markers.len(), 2);
        assert_eq!(tl.markers[0].core, Some(1), "resolved via occupancy");
        assert!(tl.markers[0].name.contains("WorkerStall"));
        assert_eq!(tl.markers[1].core, None, "task-less fault: scheduler track");
    }

    #[test]
    fn ready_depth_counter_follows_enqueue_and_pop() {
        let enq = |step, at, task| {
            entry(
                step,
                at,
                TraceEvent::Enqueue {
                    process: 1,
                    task,
                    preferred: None,
                },
            )
        };
        let entries = vec![
            enq(0, 10, 1),
            enq(1, 20, 2),
            entry(
                2,
                30,
                TraceEvent::Pop {
                    core: 0,
                    tier: Some(PickTier::Aged),
                    task: 1,
                },
            ),
        ];
        let tl = build_timeline(meta2(), &entries, &[]);
        let depths: Vec<i64> = tl.counters.iter().map(|c| c.value).collect();
        assert_eq!(depths, vec![1, 2, 1]);
        assert_eq!(tl.markers.len(), 1, "aged pop is a valve-fire instant");
        assert_eq!(tl.markers[0].name, "valve_fire");
    }

    #[test]
    fn sampler_series_become_counter_tracks() {
        let samples = vec![StatsSample {
            at: Duration::from_nanos(5000),
            ready_tasks: 3,
            intake_depth: 1,
            busy_cores: 2,
            submits: 10,
            grants: 9,
        }];
        let tl = build_timeline(meta2(), &[], &samples);
        let tracks: Vec<&str> = tl.counters.iter().map(|c| c.track).collect();
        assert_eq!(
            tracks,
            vec![
                "sampled_ready_tasks",
                "sampled_intake_depth",
                "sampled_busy_cores"
            ]
        );
    }

    #[test]
    fn validate_rejects_span_grant_mismatch_and_overlap() {
        let entries = vec![entry(
            0,
            100,
            TraceEvent::Grant {
                task: 1,
                core: 0,
                immediate: true,
            },
        )];
        let mut tl = build_timeline(meta2(), &entries, &[]);
        tl.validate().unwrap();
        tl.grants = 2;
        assert!(tl.validate().unwrap_err().contains("span count"));
        tl.grants = 3;
        tl.spans.push(Span {
            core: 0,
            task: 9,
            start_ns: 0,
            end_ns: 150,
        });
        tl.spans.push(Span {
            core: 0,
            task: 10,
            start_ns: 140,
            end_ns: 160,
        });
        assert!(tl.validate().unwrap_err().contains("overlap"));
    }

    #[test]
    fn chrome_json_is_balanced_and_carries_tracks() {
        let entries = vec![
            entry(
                0,
                1000,
                TraceEvent::Grant {
                    task: 1,
                    core: 0,
                    immediate: true,
                },
            ),
            entry(1, 2500, TraceEvent::Yield { task: 1, core: 0 }),
        ];
        let tl = build_timeline(meta2(), &entries, &[]);
        let s = tl.render_chrome_json();
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
        assert!(s.contains("\"traceEvents\""));
        assert!(s.contains("core 0 (node 0)"));
        assert!(s.contains("core 1 (node 1)"));
        assert!(s.contains("\"ph\": \"X\""));
        assert!(s.contains("\"ts\": 1.000"));
        assert!(s.contains("\"dur\": 1.500"));
    }
}
