//! Shared JSON rendering of [`usf_scenarios::ScenarioReport`]s.
//!
//! `fig6_oversub`, `fig7_models` and `fig8_numa` persist scenario reports into their
//! `BENCH_*.json` perf-trajectory records; this module is the single place that decides
//! what a report looks like on disk (per-process makespans, measured unit-latency
//! percentiles, slowdowns, fairness, scheduler-counter deltas).

use crate::json::{JsonObject, JsonValue};
use usf_nosv::{HistogramSnapshot, StageSnapshot, StatsSample};
use usf_scenarios::ScenarioReport;

/// Render one stage histogram as the standard percentile bundle (a [`JsonObject`], so it
/// nests into the ordered BENCH documents).
pub fn histogram_json(h: &HistogramSnapshot) -> JsonObject {
    JsonObject::new()
        .field("count", h.count)
        .field("mean_ns", h.mean_ns())
        .field("min_ns", if h.is_empty() { 0 } else { h.min_ns })
        .field("max_ns", h.max_ns)
        .field("p50_ns", h.percentile(0.50))
        .field("p90_ns", h.percentile(0.90))
        .field("p99_ns", h.percentile(0.99))
        .field("p999_ns", h.percentile(0.999))
}

/// Render the per-stage latency breakdown (submit→drain, enqueue→grant,
/// grant→first-run, pause/yield off-core) as one object keyed by stage name.
pub fn stages_json(stages: &StageSnapshot) -> JsonObject {
    let mut doc = JsonObject::new();
    for (name, h) in stages.named() {
        doc = doc.field(name, histogram_json(h));
    }
    doc
}

/// Summarize a stats-sampler series: sample count plus the peak of each gauge (the full
/// series belongs in a `--samples` JSONL dump, not a BENCH record).
pub fn samples_json(samples: &[StatsSample]) -> JsonObject {
    JsonObject::new()
        .field("count", samples.len())
        .field(
            "peak_ready_tasks",
            samples.iter().map(|s| s.ready_tasks).max().unwrap_or(0),
        )
        .field(
            "peak_intake_depth",
            samples.iter().map(|s| s.intake_depth).max().unwrap_or(0),
        )
        .field(
            "peak_busy_cores",
            samples.iter().map(|s| s.busy_cores).max().unwrap_or(0),
        )
}

/// Render one scenario report as an ordered JSON object.
pub fn report_json(r: &ScenarioReport) -> JsonObject {
    let procs: Vec<JsonValue> = r
        .processes
        .iter()
        .map(|p| {
            let s = p.unit_summary();
            JsonValue::from(
                JsonObject::new()
                    .field("name", p.name.as_str())
                    .field("threads", p.threads)
                    .num("arrival_s", p.arrival.as_secs_f64(), 6)
                    .num("makespan_s", p.makespan.as_secs_f64(), 6)
                    .num("p50_unit_s", s.p50, 6)
                    .num("p90_unit_s", s.p90, 6)
                    .num("p99_unit_s", s.p99, 6)
                    .opt(
                        "slowdown_vs_solo",
                        p.slowdown_vs_solo.map(|v| JsonValue::num(v, 3)),
                    )
                    .opt("migrations", p.migrations.map(JsonValue::from))
                    .opt(
                        "cross_socket_migrations",
                        p.cross_socket_migrations.map(JsonValue::from),
                    )
                    .field("survived", p.survived)
                    .field("injected_faults", p.injected_faults)
                    .field(
                        "panicked_units",
                        p.panicked_units
                            .iter()
                            .map(|&u| JsonValue::from(u))
                            .collect::<Vec<_>>(),
                    ),
            )
        })
        .collect();
    let mut doc = JsonObject::new()
        .field("executor", r.executor.as_str())
        .opt("model", r.model.map(|m| m.label()))
        .num("total_makespan_s", r.total_makespan.as_secs_f64(), 6)
        .num("jain_fairness", r.jain_fairness(), 4)
        .opt(
            "mean_slowdown",
            r.mean_slowdown().map(|v| JsonValue::num(v, 3)),
        )
        .field("processes", procs);
    if let Some(sched) = &r.sched {
        let mut counters = JsonObject::new();
        for (name, v) in &sched.counters {
            counters = counters.num(name.clone(), *v, 3);
        }
        doc = doc.field(
            "sched",
            JsonObject::new()
                .field("scheduler", sched.scheduler.as_str())
                .field("counters", counters),
        );
    }
    if let Some(stages) = &r.stages {
        doc = doc.field("stages", stages_json(stages));
    }
    if !r.samples.is_empty() {
        doc = doc.field("samples", samples_json(&r.samples));
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use usf_scenarios::{ModelSel, ProcessOutcome, SchedDelta};

    #[test]
    fn report_json_carries_model_and_percentiles() {
        let r = ScenarioReport {
            scenario: "t".into(),
            executor: "sim-bl-eq".into(),
            total_makespan: Duration::from_millis(10),
            processes: vec![ProcessOutcome {
                name: "p".into(),
                arrival: Duration::ZERO,
                threads: 2,
                makespan: Duration::from_millis(10),
                unit_latencies_s: vec![0.004, 0.006],
                slowdown_vs_solo: Some(1.5),
                migrations: Some(3),
                cross_socket_migrations: Some(1),
                injected_faults: 2,
                panicked_units: vec![1],
                survived: true,
            }],
            sched: Some(SchedDelta {
                scheduler: "partitioned".into(),
                counters: vec![("migrations".into(), 3.0)],
            }),
            stages: Some(StageSnapshot::default()),
            samples: vec![StatsSample {
                at: Duration::from_micros(10),
                ready_tasks: 5,
                intake_depth: 1,
                busy_cores: 2,
                submits: 9,
                grants: 8,
            }],
            model: Some(ModelSel::BlEq),
        };
        let s = report_json(&r).render();
        assert!(s.contains("\"stages\""), "{s}");
        assert!(s.contains("\"wake\""), "{s}");
        assert!(s.contains("\"peak_ready_tasks\": 5"), "{s}");
        assert!(s.contains("\"model\": \"bl-eq\""), "{s}");
        assert!(s.contains("\"p99_unit_s\": 0.006000"), "{s}");
        assert!(s.contains("\"mean_slowdown\": 1.500"), "{s}");
        assert!(s.contains("\"migrations\": 3.000"), "{s}");
        assert!(s.contains("\"survived\": true"), "{s}");
        assert!(s.contains("\"injected_faults\": 2"), "{s}");
    }
}
