//! Record/replay equivalence gate (requires `--features sched-trace`): schedules recorded
//! from the *real* scheduler must re-execute deterministically through the *simulator's*
//! instantiation of the shared SCHED_COOP core with an identical pick sequence. Any drift
//! between the runtime policy and the simulated policy fails these tests — this is the CI
//! tripwire on top of the sampled equivalence of tests/readyq_equivalence.rs.
#![cfg(feature = "sched-trace")]

use proptest::prelude::*;
use std::time::Duration;
use usf::nosv::fuzz::{execute_traced, generate, FuzzConfig, FuzzOp};
use usf::nosv::scheduler::Scheduler;
use usf::nosv::{NosvConfig, PickTier, TraceEvent};
use usf::simsched::replay::assert_replays_clean;

/// A scripted oversubscribed run (2 cores, 6 tasks, FIFO drain) records pops and grants,
/// and the recorded schedule replays with zero drift.
#[test]
fn scripted_run_replays_without_drift() {
    let mut sched = Scheduler::new(NosvConfig::with_cores(2));
    let rec = sched.install_tracer();
    let p = sched.register_process("p");
    let tasks: Vec<_> = (0..6)
        .map(|_| sched.create_task(p, None).unwrap())
        .collect();
    for t in &tasks {
        sched.submit(t);
    }
    for t in &tasks {
        sched.detach(t);
    }
    assert_eq!(sched.busy_cores(), 0);
    let report = assert_replays_clean(rec.meta(), &rec.snapshot());
    // 2 immediate grants onto the idle cores at submit, a 3rd at the first detach's
    // intake drain (the freed core is idle and the policy still empty), then the 3
    // enqueued tasks are popped as running ones detach: the replay must be non-vacuous.
    assert_eq!(report.pops, 3, "expected 3 policy pops: {report:?}");
    assert_eq!(report.grants, 6, "expected 6 grants: {report:?}");
    assert_eq!(report.mismatched_grants, 0);
}

/// Satellite: under starvation (1 core, 1 ns quantum so the aging valve is always armed)
/// the recorded schedule contains aged grants, and the simulated replay serves them from
/// the aging tier at exactly the same logical steps.
#[test]
fn aged_pops_replay_at_the_same_steps() {
    let mut sched = Scheduler::new(NosvConfig::with_cores(1).quantum(Duration::from_nanos(1)));
    let rec = sched.install_tracer();
    let p = sched.register_process("p");
    let tasks: Vec<_> = (0..4)
        .map(|_| sched.create_task(p, None).unwrap())
        .collect();
    for t in &tasks {
        sched.submit(t); // first one runs, the rest queue behind the single core
    }
    // Let the queued entries age well past the 1 ns valve window.
    std::thread::sleep(Duration::from_micros(50));
    for t in &tasks {
        sched.detach(t);
    }
    let entries = rec.snapshot();
    let recorded_aged: Vec<u64> = entries
        .iter()
        .filter_map(|e| match &e.event {
            TraceEvent::Pop {
                tier: Some(PickTier::Aged),
                ..
            } => Some(e.step),
            _ => None,
        })
        .collect();
    assert!(
        !recorded_aged.is_empty(),
        "a starving 1 ns-quantum run must record aged pops"
    );
    let report = assert_replays_clean(rec.meta(), &entries);
    assert_eq!(
        report.aged_steps, recorded_aged,
        "aged grants must replay at the same logical steps as recorded"
    );
}

/// A rescue drain is an ordinary scheduling point to the replayer: submits that sat in
/// the intakes of a fully busy scheduler are drained and enqueued by
/// `Scheduler::rescue_drain`, and the recorded schedule — drain, enqueues, the later pops
/// — replays with zero drift.
#[test]
fn rescue_drain_of_a_busy_scheduler_replays_without_drift() {
    let cfg = FuzzConfig::base();
    let mut ops: Vec<FuzzOp> = (0..cfg.slots).map(|slot| FuzzOp::Submit { slot }).collect();
    ops.push(FuzzOp::RescueDrain);
    ops.extend((0..cfg.slots).map(|slot| FuzzOp::Detach { slot }));
    let (result, meta, entries) = execute_traced(&cfg, &ops);
    result.unwrap_or_else(|f| panic!("rescue-drain run failed: {f}"));
    let drained: usize = entries
        .iter()
        .filter_map(|e| match &e.event {
            TraceEvent::IntakeDrain { n } => Some(*n),
            _ => None,
        })
        .sum();
    // Every submit went through an intake drain (plus the harness's quiescence flusher).
    assert!(
        drained >= cfg.slots,
        "only {drained} intake entries drained"
    );
    let report = assert_replays_clean(&meta, &entries);
    // The four tasks the rescue drain enqueued are popped as the running ones detach
    // (a slot detached while still queued adds a stale pop): the replay is non-vacuous.
    assert!(report.pops >= (cfg.slots - cfg.cores) as u64, "{report:?}");
    assert_eq!(report.mismatched_grants, 0);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The drift gate proper: arbitrary seeded fuzz schedules, recorded from the real
    /// scheduler across the whole config matrix, replay through the simulator's policy
    /// with an identical pick sequence.
    #[test]
    fn recorded_fuzz_runs_replay_without_drift(seed in 0u64..100_000, which in 0usize..5) {
        // Every config but `valve` records a two-shard schedule, replayed through the
        // same ladder the scheduler ran (local tiers, cross-shard steal, foreign aging
        // probe) — the drift gate for the per-node dispatch locks.
        let cfg = match which {
            0 => FuzzConfig::base(),
            1 => FuzzConfig::valve(),
            2 => FuzzConfig::shutdown_biased(),
            3 => FuzzConfig::domain_heavy(),
            _ => FuzzConfig::cross_valve(),
        };
        let ops = generate(&cfg, seed);
        let (result, meta, entries) = execute_traced(&cfg, &ops);
        result.unwrap_or_else(|f| panic!("seed {seed} cfg {which}: {f}"));
        let report = assert_replays_clean(&meta, &entries);
        prop_assert_eq!(report.mismatched_grants, 0);
    }
}
