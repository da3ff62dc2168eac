//! The benchmark's own fixed-work compute and its seeded input generators.
//!
//! Every synthetic unit burns a fixed number of xorshift steps, never a wall-clock
//! deadline: a descheduled thread finishes *later*, so scheduler cost shows in the
//! numbers instead of being absorbed by the spin.

use crate::trace::{self, Layer};
use std::hint::black_box;
use usf_core::timing;

/// `iters` dependent xorshift64 steps from `seed` (~2 ns each); the result is the
/// checksum the oracles compare.
pub fn kernel(iters: u64, seed: u64) -> u64 {
    // xorshift maps 0 to 0 and nothing else to 0, so only the seed needs the guard.
    let mut x = black_box(seed).max(1);
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x)
}

/// [`kernel`] with a cooperative yield every `every` iterations — the long-running
/// tenant's scheduling points. Same checksum as `kernel(iters, seed)`.
pub fn kernel_yielding(iters: u64, seed: u64, every: u64, unit: u64) -> u64 {
    let mut x = seed;
    let mut left = iters;
    while left > 0 {
        let chunk = left.min(every);
        x = kernel(chunk, x);
        left -= chunk;
        if left > 0 {
            trace::span("timing::yield_now", Layer::Nosv, unit, timing::yield_now);
        }
    }
    x
}

/// splitmix64: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded generator for the harness's own inputs (request seeds, arrival gaps).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(mix(seed, 0x5EED))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0, 0)
    }

    /// Uniform in `(0, 1]`.
    fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap of a Poisson process with `rate` arrivals/s, in ns.
    pub fn exp_gap_ns(&mut self, rate: f64) -> u64 {
        (-self.next_unit().ln() / rate * 1e9) as u64
    }
}

/// Due times (ns from the generator's start) of the first `n` arrivals of the seeded
/// Poisson process — what the open-loop generator walks through incrementally.
#[cfg(test)]
pub fn poisson_schedule(seed: u64, rate: f64, n: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    let mut t = 0u64;
    (0..n)
        .map(|_| {
            t += rng.exp_gap_ns(rate);
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yielding_kernel_matches_the_plain_one() {
        assert_eq!(kernel_yielding(10_000, 7, 4096, 0), kernel(10_000, 7));
        assert_ne!(kernel(10_000, 7), kernel(10_000, 9));
    }

    /// `black_box` is a hint; this is the check that the loop is really executed. The best
    /// of five runs, so that tests running beside this one do not decide it.
    #[test]
    fn kernel_time_grows_with_iterations() {
        let best = |iters| {
            (0..5)
                .map(|_| {
                    let t = std::time::Instant::now();
                    kernel(iters, 3);
                    t.elapsed()
                })
                .min()
                .expect("five runs")
        };
        assert!(best(8_000_000) > best(1_000_000) * 3);
    }

    #[test]
    fn poisson_schedule_depends_only_on_the_seed() {
        let a = poisson_schedule(11, 200.0, 500);
        assert_eq!(a, poisson_schedule(11, 200.0, 500));
        assert_ne!(a, poisson_schedule(12, 200.0, 500));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let rate = 500.0 / (*a.last().unwrap() as f64 / 1e9);
        assert!((150.0..250.0).contains(&rate), "rate {rate}");
    }
}
