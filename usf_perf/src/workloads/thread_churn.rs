//! `thread_churn` — the pthread-per-call composition (§5.4): every unit spawns eight fresh
//! cooperative threads and joins them.
//!
//! It uses `usf-nosv` differently from `sync_churn`: attach and detach of new tasks through
//! the thread cache, not wake-ups of blocked ones. There are no persistent waiters, so a
//! wake-path gain that taxes the attach path shows here as a loss.

use super::{Env, Window, Workload};
use crate::kernel::{kernel, mix};
use crate::trace::{span, Layer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use usf_runtimes::TransientPool;

const THREADS: usize = 8;
const ITERS: u64 = 5000;
/// Distinct input sets the regions cycle through; their checksums are computed serially at
/// set-up so that the in-window oracle is eight comparisons.
const ROUNDS: usize = 64;

fn input(seed: u64, round: usize, index: usize) -> u64 {
    mix(seed, (round * THREADS + index) as u64)
}

/// Indices of one region's results that differ from the serial checksums.
pub fn wrong_results(expected: &[u64], got: &[AtomicU64]) -> usize {
    expected
        .iter()
        .zip(got)
        .filter(|(want, got)| **want != got.load(Ordering::Relaxed))
        .count()
}

pub struct ThreadChurn {
    seed: u64,
    pool: TransientPool,
    expected: Vec<[u64; THREADS]>,
    results: [AtomicU64; THREADS],
    regions: u64,
}

impl ThreadChurn {
    fn region(&mut self) -> bool {
        let round = self.regions as usize % ROUNDS;
        let (unit, seed, results) = (self.regions, self.seed, &self.results);
        span("TransientPool::run", Layer::Runtimes, unit, || {
            self.pool.run(THREADS, |i| {
                let out = span("kernel", Layer::Bench, unit, || {
                    kernel(ITERS, input(seed, round, i))
                });
                results[i].store(out, Ordering::Relaxed);
            })
        });
        self.regions += 1;
        wrong_results(&self.expected[round], &self.results) == 0
    }
}

impl Workload for ThreadChurn {
    const NAME: &'static str = "thread_churn";

    fn setup(env: &Env, w: &mut Window) -> Self {
        let expected = (0..ROUNDS)
            .map(|round| std::array::from_fn(|i| kernel(ITERS, input(env.seed, round, i))))
            .collect();
        let mut this = ThreadChurn {
            seed: env.seed,
            pool: TransientPool::new(env.main.clone()),
            expected,
            results: std::array::from_fn(|_| AtomicU64::new(0)),
            regions: 0,
        };
        let ok = this.region();
        w.unit(ok);
        this
    }

    fn run_until(&mut self, deadline: Instant, w: &mut Window) {
        while Instant::now() < deadline {
            let t0 = Instant::now();
            let ok = self.region();
            w.lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            w.unit(ok);
        }
    }

    fn finish(self, w: &mut Window) {
        if self.pool.threads_spawned() != THREADS as u64 * self.regions {
            w.failed += 1;
        }
    }

    fn serial_units(seed: u64) {
        for i in 0..THREADS {
            kernel(ITERS, input(seed, 0, i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_or_missing_result_is_counted() {
        let expected = [1u64, 2, 3];
        let got = [AtomicU64::new(1), AtomicU64::new(2), AtomicU64::new(3)];
        assert_eq!(wrong_results(&expected, &got), 0);
        got[1].store(0, Ordering::Relaxed);
        assert_eq!(wrong_results(&expected, &got), 1);
    }
}
