//! Differential test pinning the simulator's per-unit latency semantics.
//!
//! `SimExecutor` used to fabricate unit latencies as the uniform share
//! `makespan / units`. The `UnitMark` instrumentation replaced that with measured
//! completion timestamps; these tests pin the semantics so the placeholder cannot sneak
//! back:
//!
//! 1. completion timestamps are monotone and their differences telescope to the process
//!    makespan;
//! 2. for a *balanced solo* run the measured latencies equal the old uniform share
//!    (the two definitions agree exactly when units are actually uniform);
//! 3. for an MD-imbalanced ramped co-run the measured latencies are **non-uniform**
//!    (the one observable the placeholder could never produce).

use std::time::Duration;
use usf_scenarios::{
    Arrival, Executor, ModelSel, ProblemSize, ProcSpec, ScenarioSpec, SimExecutor, WorkloadKind,
};
use usf_simsched::{Machine, SchedModel};

fn sim(model: SchedModel) -> SimExecutor {
    let m = Machine::small_numa(8, 2);
    SimExecutor::new(m, model)
}

/// Latencies cumulated back into completion timestamps must be monotone, and their sum
/// must equal the process makespan (the telescoping property of true per-unit boundaries).
#[test]
fn latencies_telescope_to_the_makespan_for_every_model() {
    let mut spec = ScenarioSpec::new("telescope", 8);
    for i in 0..2 {
        spec = spec.process(
            ProcSpec::new(format!("md{i}"), WorkloadKind::Md)
                .size(ProblemSize::Tiny)
                .threads(8)
                .units(5)
                .arrival(Arrival::Ramp {
                    stagger: Duration::from_micros(150),
                }),
        );
    }
    for exec in [
        sim(SchedModel::Fair),
        sim(SchedModel::coop_default()),
        SimExecutor::for_model(Machine::small_numa(8, 2), ModelSel::BlEq, &spec),
    ] {
        let r = exec.run_spec(&spec);
        for p in &r.processes {
            assert_eq!(p.unit_latencies_s.len(), 5, "{}", r.executor);
            assert!(
                p.unit_latencies_s.iter().all(|l| *l >= 0.0),
                "monotone timestamps mean non-negative diffs: {:?} ({})",
                p.unit_latencies_s,
                r.executor
            );
            let total: f64 = p.unit_latencies_s.iter().sum();
            let makespan = p.makespan.as_secs_f64();
            assert!(
                (total - makespan).abs() <= 1e-6 + makespan * 1e-3,
                "latency sum {total} must telescope to makespan {makespan} ({})",
                r.executor
            );
        }
    }
}

/// A balanced solo cooperative run paces its units identically, so the measured latencies
/// collapse onto the uniform share — the regime where the old placeholder was accidentally
/// correct, and the anchor that the new measurement agrees with it there.
#[test]
fn balanced_solo_coop_run_matches_the_uniform_share() {
    let units = 4;
    let spec = ScenarioSpec::new("balanced-solo", 8).process(
        ProcSpec::new("spin", WorkloadKind::SpinSleep)
            .size(ProblemSize::Tiny)
            .threads(4)
            .units(units),
    );
    let r = sim(SchedModel::coop_default()).run_spec(&spec);
    let p = &r.processes[0];
    let share = p.makespan.as_secs_f64() / units as f64;
    for (i, lat) in p.unit_latencies_s.iter().enumerate() {
        assert!(
            (lat - share).abs() <= share * 0.02,
            "unit {i}: measured {lat} vs uniform share {share} (diffs {:?})",
            p.unit_latencies_s
        );
    }
}

/// An imbalanced ramped co-run has genuinely different per-unit durations (early units run
/// with less interference than late ones). Uniform output here would mean the placeholder
/// regressed its way back in.
#[test]
fn imbalanced_corun_latencies_are_non_uniform() {
    let mut spec = ScenarioSpec::new("imbalanced", 8);
    for i in 0..2 {
        spec = spec.process(
            ProcSpec::new(format!("md{i}"), WorkloadKind::Md)
                .size(ProblemSize::Custom {
                    unit_work_us: 4_000,
                })
                .threads(8)
                .units(4)
                .arrival(Arrival::Ramp {
                    stagger: Duration::from_millis(1),
                }),
        );
    }
    for exec in [sim(SchedModel::Fair), sim(SchedModel::coop_default())] {
        let r = exec.run_spec(&spec);
        let p0 = &r.processes[0];
        let min = p0
            .unit_latencies_s
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let max = p0.unit_latencies_s.iter().copied().fold(0.0, f64::max);
        assert!(
            max > min * 1.02,
            "{}: latencies {:?} look like the uniform-share placeholder",
            r.executor,
            p0.unit_latencies_s
        );
        // The percentile bundle sees the spread too (p99 strictly above min).
        let s = p0.unit_summary();
        assert_eq!(s.count, 4);
        assert!(s.p99 > s.min, "summary {s:?}");
    }
}
