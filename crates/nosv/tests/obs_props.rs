//! Randomized property tests for the observability plane: the histogram
//! (`usf_nosv::Histogram`) — merge algebra, exact counting, percentile bracketing, delta
//! consistency, lossless concurrent recording — and the derived `lock_acquisitions`
//! counter of a scheduler's `StatsSnapshot`.
//!
//! The repo carries no external property-testing dependency, so these are hand-rolled:
//! a deterministic splitmix64 generator drives many random cases per property, and every
//! assertion prints the seed of the failing case.

use usf_nosv::scheduler::Scheduler;
use usf_nosv::{Histogram, HistogramSnapshot, NosvConfig, StatsSnapshot, TaskRef, Topology};

/// splitmix64 — the same deterministic generator idiom the fault plane uses.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A latency-shaped value: random bit-width up to 2^40 ns (~18 min), so samples
    /// spread across many log₂ buckets instead of clustering in the top one.
    fn latency_ns(&mut self) -> u64 {
        let bits = self.next() % 41;
        self.next() & ((1u64 << bits) - 1).max(1)
    }

    fn values(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.latency_ns()).collect()
    }
}

fn snapshot_of(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new(1);
    for &v in values {
        h.record_ns(v);
    }
    h.snapshot()
}

fn merged(a: &HistogramSnapshot, b: &HistogramSnapshot) -> HistogramSnapshot {
    let mut out = a.clone();
    out.merge(b);
    out
}

#[test]
fn merge_is_commutative_and_associative() {
    for seed in 0..64u64 {
        let mut rng = Rng(seed);
        let (na, nb, nc) = (
            1 + (rng.next() % 200) as usize,
            1 + (rng.next() % 200) as usize,
            1 + (rng.next() % 200) as usize,
        );
        let a = snapshot_of(&rng.values(na));
        let b = snapshot_of(&rng.values(nb));
        let c = snapshot_of(&rng.values(nc));
        assert_eq!(merged(&a, &b), merged(&b, &a), "commutativity, seed {seed}");
        assert_eq!(
            merged(&merged(&a, &b), &c),
            merged(&a, &merged(&b, &c)),
            "associativity, seed {seed}"
        );
        // The empty snapshot is the identity.
        let zero = HistogramSnapshot::default();
        assert_eq!(merged(&a, &zero), a, "identity, seed {seed}");
    }
}

#[test]
fn count_sum_min_max_are_exact() {
    for seed in 100..164u64 {
        let mut rng = Rng(seed);
        let n = 1 + (rng.next() % 500) as usize;
        let values = rng.values(n);
        let s = snapshot_of(&values);
        assert_eq!(s.count, values.len() as u64, "seed {seed}");
        assert_eq!(s.sum, values.iter().sum::<u64>(), "seed {seed}");
        assert_eq!(s.min_ns, *values.iter().min().unwrap(), "seed {seed}");
        assert_eq!(s.max_ns, *values.iter().max().unwrap(), "seed {seed}");
        assert_eq!(s.count, s.buckets.iter().sum::<u64>(), "seed {seed}");
        assert_eq!(
            s.mean_ns(),
            s.sum / s.count,
            "mean is true-sum/true-count, seed {seed}"
        );
    }
}

#[test]
fn percentile_bounds_bracket_the_true_quantile() {
    for seed in 200..264u64 {
        let mut rng = Rng(seed);
        let n = 1 + (rng.next() % 300) as usize;
        let mut values = rng.values(n);
        let s = snapshot_of(&values);
        values.sort_unstable();
        for p in [0.0, 0.25, 0.50, 0.90, 0.99, 1.0] {
            // The same rank convention percentile_bounds documents.
            let rank = ((p * values.len() as f64).ceil() as usize).max(1);
            let truth = values[rank - 1];
            let (lo, hi) = s.percentile_bounds(p);
            assert!(
                lo <= truth && truth <= hi,
                "seed {seed} p {p}: true {truth} outside [{lo}, {hi}]"
            );
            // The point estimate is the upper bound: never below the true value, and
            // within one log₂ bucket (≤ 2×) above it.
            let est = s.percentile(p);
            assert_eq!(est, hi, "seed {seed} p {p}");
            assert!(
                est <= truth.saturating_mul(2).max(1),
                "seed {seed} p {p}: estimate {est} more than 2x true {truth}"
            );
        }
    }
}

#[test]
fn delta_recovers_the_second_phase() {
    for seed in 300..364u64 {
        let mut rng = Rng(seed);
        let h = Histogram::new(4);
        let (n1, n2) = (
            1 + (rng.next() % 200) as usize,
            1 + (rng.next() % 200) as usize,
        );
        let phase1 = rng.values(n1);
        let phase2 = rng.values(n2);
        for &v in &phase1 {
            h.record_ns(v);
        }
        let s1 = h.snapshot();
        for &v in &phase2 {
            h.record_ns(v);
        }
        let s2 = h.snapshot();
        let d = s2.delta(&s1);
        assert_eq!(d.count, phase2.len() as u64, "seed {seed}");
        assert_eq!(d.sum, phase2.iter().sum::<u64>(), "seed {seed}");
        // Deltas merge back: earlier snapshot + delta == later snapshot, bucket for
        // bucket (min/max are bucket-edge approximations, so compare the exact fields).
        let back = merged(&s1, &d);
        assert_eq!(back.buckets, s2.buckets, "seed {seed}");
        assert_eq!(back.count, s2.count, "seed {seed}");
        assert_eq!(back.sum, s2.sum, "seed {seed}");
    }
}

#[test]
fn concurrent_recording_loses_no_samples() {
    use std::sync::Arc;

    const THREADS: usize = 8;
    const PER_THREAD: usize = 20_000;
    let h = Arc::new(Histogram::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let h = Arc::clone(&h);
            std::thread::spawn(move || {
                let mut rng = Rng(0xC0FFEE ^ t as u64);
                let mut sum = 0u64;
                for _ in 0..PER_THREAD {
                    let v = rng.latency_ns();
                    sum += v;
                    h.record_ns(v);
                }
                sum
            })
        })
        .collect();
    let expected_sum: u64 = handles
        .into_iter()
        .map(|j| j.join().expect("recorder panicked"))
        .sum();
    let s = h.snapshot();
    assert_eq!(
        s.count,
        (THREADS * PER_THREAD) as u64,
        "relaxed sharded recording must not lose samples"
    );
    assert_eq!(s.sum, expected_sum);
    assert_eq!(s.count, s.buckets.iter().sum::<u64>());
}

/// `counters.lock_acquisitions` has no atomic of its own: it must equal the per-shard
/// lock counts plus the global-section count in every snapshot, and `delta` must keep
/// that identity.
#[test]
fn lock_acquisitions_is_the_sum_of_shard_and_global_locks() {
    fn assert_identity(s: &StatsSnapshot, what: &str, seed: u64) {
        let shard_locks: u64 = s.shards.iter().map(|sh| sh.lock_acquisitions).sum();
        assert_eq!(
            s.counters.lock_acquisitions,
            shard_locks + s.counters.global_lock_acquisitions,
            "seed {seed}: {what}"
        );
    }
    for seed in 0..32u64 {
        let mut rng = Rng(seed);
        let s = Scheduler::new(NosvConfig::with_topology(Topology::new(4, 2)));
        let pids = [s.register_process("a"), s.register_process("b")];
        let mut tasks: Vec<TaskRef> = Vec::new();
        let mut mid = None;
        for step in 0..96 {
            match rng.next() % 6 {
                0 | 1 => {
                    let t = s
                        .create_task(pids[(rng.next() % 2) as usize], None)
                        .unwrap();
                    s.submit(&t);
                    tasks.push(t);
                }
                2 if !tasks.is_empty() => {
                    let t = tasks.swap_remove((rng.next() as usize) % tasks.len());
                    s.detach(&t);
                }
                3 => {
                    s.rescue_drain();
                }
                4 => {
                    let node = (rng.next() % 2) as usize;
                    let cores = s.topology().cores_in_node(node).collect();
                    s.set_process_domain(pids[(rng.next() % 2) as usize], Some(cores));
                }
                _ => {
                    let _ = s.watchdog_scan(std::time::Duration::ZERO);
                }
            }
            if step == 47 {
                mid = Some(s.stats_snapshot());
            }
        }
        let (mid, end) = (mid.unwrap(), s.stats_snapshot());
        assert_identity(&mid, "mid-run snapshot", seed);
        assert_identity(&end, "final snapshot", seed);
        assert_identity(&end.delta(&mid), "delta", seed);
        assert!(
            end.delta(&mid).counters.lock_acquisitions > 0,
            "seed {seed}"
        );
        assert_eq!(
            s.stats().counters().lock_acquisitions,
            end.counters.lock_acquisitions
        );
    }
}
