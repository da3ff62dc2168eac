//! Property tests driving the schedule fuzzer (`usf_nosv::fuzz`) over the real scheduler:
//! seeded random op sequences, forced shutdown interleavings, the injected lost-submit
//! canary, and counterexample shrinking. The fuzzer checks its invariants directly against
//! scheduler state; recorded runs add the record/replay cross-check
//! (tests/sched_trace_replay.rs).

use proptest::prelude::*;
use usf::nosv::fuzz::{execute, generate, shrink, FuzzConfig, FuzzOp, Mutation, Violation};

/// Keep only ops that cannot legitimately cancel a pending wake-up, so an injected
/// dropped submit is guaranteed to surface as a lost task.
fn without_healing_ops(ops: Vec<FuzzOp>) -> Vec<FuzzOp> {
    ops.into_iter()
        .filter(|op| {
            matches!(
                op,
                FuzzOp::Submit { .. }
                    | FuzzOp::RescueDrain
                    | FuzzOp::PinNode { .. }
                    | FuzzOp::Unpin { .. }
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Random seeded schedules keep every invariant (no double grant, gauges consistent,
    /// domains respected, no ghost grants, nothing lost) across the config matrix.
    #[test]
    fn random_schedules_hold_invariants(seed in 0u64..100_000, which in 0usize..5) {
        let cfg = match which {
            0 => FuzzConfig::base(),
            1 => FuzzConfig::valve(),
            2 => FuzzConfig::shutdown_biased(),
            3 => FuzzConfig::domain_heavy(),
            _ => FuzzConfig::cross_valve(),
        };
        let ops = generate(&cfg, seed);
        let stats = execute(&cfg, &ops, None)
            .unwrap_or_else(|f| panic!("seed {seed} cfg {which}: {f}"));
        prop_assert_eq!(stats.ops, ops.len());
    }

    /// `Scheduler::shutdown` forced at an arbitrary cut point, with submits and
    /// `set_process_domain` calls continuing against the shut-down scheduler, never
    /// violates an invariant or strands a waiter.
    #[test]
    fn shutdown_interleavings_hold_invariants(seed in 0u64..100_000, cut in 0usize..65) {
        let cfg = FuzzConfig::shutdown_biased();
        let mut ops = generate(&cfg, seed);
        let cut = cut.min(ops.len());
        ops.insert(cut, FuzzOp::Shutdown);
        execute(&cfg, &ops, None)
            .unwrap_or_else(|f| panic!("seed {seed} shutdown at {cut}: {f}"));
    }

    /// The lost-task oracle has teeth: dropping any early submit from a heal-free
    /// sequence is always detected as a LostTask.
    #[test]
    fn canary_lost_submit_is_caught(seed in 0u64..100_000, nth in 0usize..4) {
        let cfg = FuzzConfig::base();
        let ops = without_healing_ops(generate(&cfg, seed));
        // With no healing ops, the effective submits are exactly the first submit of each
        // distinct slot (later ones are redundant while the slot is pending or running).
        let mut seen = std::collections::HashSet::new();
        let effective = ops
            .iter()
            .filter_map(|o| match o {
                FuzzOp::Submit { slot } => Some(*slot),
                _ => None,
            })
            .filter(|s| seen.insert(*s))
            .count();
        // nth beyond the effective submits means nothing is dropped; only assert when
        // the mutation actually fires.
        if nth < effective {
            let failure = execute(&cfg, &ops, Some(Mutation::DropSubmit { nth }))
                .expect_err("a dropped submit must be detected");
            prop_assert!(
                matches!(failure.violation, Violation::LostTask { .. }),
                "seed {}: expected LostTask, got {}", seed, failure
            );
        }
    }

    /// Shrinking reduces any canary counterexample to the minimal one-op reproduction.
    #[test]
    fn counterexamples_shrink_to_one_op(seed in 0u64..10_000) {
        let cfg = FuzzConfig::base();
        let ops = without_healing_ops(generate(&cfg, seed));
        let mutation = Some(Mutation::DropSubmit { nth: 0 });
        if execute(&cfg, &ops, mutation).is_err() {
            let minimal = shrink(&cfg, &ops, mutation);
            prop_assert_eq!(minimal.len(), 1, "seed {}: minimal = {:?}", seed, &minimal);
            prop_assert!(execute(&cfg, &minimal, mutation).is_err());
        }
    }
}
