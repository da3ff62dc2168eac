//! `nested_blas` — the multi-runtime case (§5.3): a task runtime whose tasks each call a
//! fork-join BLAS, 16+ threads on 2 cores, in the fine-task corner of Fig. 3.
//!
//! The only workload where `usf-blas`, the task runtime and the busy-yield barrier do real
//! work. Only about a fifth of the core time is `usf-blas` compute; the rest is runtime
//! composition, which is what an optimisation has to remove.

use super::{Env, Window, Workload};
use crate::trace::{span, Layer};
use std::time::Instant;
use usf_blas::{kernels, BarrierKind, BlasThreading, Matrix};
use usf_workloads::matmul::{MatmulConfig, MatmulInstance};

const MATRIX: usize = 256;
const TILE: usize = 64;
const OUTER_WORKERS: usize = 4;
const INNER_THREADS: usize = 4;
/// Units between two checks of the product against the reference (a check costs about
/// two units of compute).
const VERIFY_EVERY: u64 = 64;
const TOLERANCE: f64 = 1e-9;

/// The oracle's verdict on `MatmulInstance::verify_last`.
pub fn product_ok(max_error: Option<f64>) -> bool {
    max_error.is_some_and(|e| e < TOLERANCE)
}

pub struct NestedBlas {
    instance: MatmulInstance,
    since_check: u64,
}

impl NestedBlas {
    fn unit(&mut self, id: u64) {
        span("MatmulInstance::run_once", Layer::Workloads, id, || {
            self.instance.run_once()
        });
        self.since_check += 1;
    }

    /// Every unit since the last check shares its verdict: they ran the same inputs
    /// through the same code.
    fn check(&mut self, w: &mut Window) {
        if !product_ok(self.instance.verify_last()) {
            w.failed += self.since_check;
        }
        self.since_check = 0;
    }
}

impl Workload for NestedBlas {
    const NAME: &'static str = "nested_blas";
    const BLAS_FLOPS_PER_UNIT: f64 = 2.0 * (MATRIX * MATRIX * MATRIX) as f64;

    fn setup(env: &Env, w: &mut Window) -> Self {
        // The inputs are `MatmulInstance`'s own fixed pseudo-random matrices; the seed
        // has nothing to vary here.
        let instance = MatmulInstance::new(&MatmulConfig {
            matrix_size: MATRIX,
            task_size: TILE,
            inner_threads: INNER_THREADS,
            outer_workers: OUTER_WORKERS,
            inner_threading: BlasThreading::OpenMpLike,
            barrier: BarrierKind::BusyYield { yield_every: 64 },
            exec: env.main.clone(),
            iterations: 1,
        });
        let mut this = NestedBlas {
            instance,
            since_check: 0,
        };
        this.unit(0);
        w.unit(true);
        this
    }

    fn run_until(&mut self, deadline: Instant, w: &mut Window) {
        while Instant::now() < deadline {
            let t0 = Instant::now();
            self.unit(w.units);
            w.lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            w.unit(true);
            if self.since_check >= VERIFY_EVERY {
                self.check(w);
            }
        }
    }

    fn finish(mut self, w: &mut Window) {
        self.check(w);
    }

    fn serial_units(_seed: u64) {
        let blocks = MATRIX / TILE;
        let a = Matrix::pseudo_random(TILE, TILE, 1);
        let b = Matrix::pseudo_random(TILE, TILE, 2);
        let mut c = vec![0.0; TILE * TILE];
        for _ in 0..blocks * blocks * blocks {
            kernels::gemm_acc(TILE, TILE, TILE, a.as_slice(), b.as_slice(), &mut c);
        }
        std::hint::black_box(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flipped_matrix_element_fails_the_product_check() {
        let a = Matrix::pseudo_random(8, 8, 1);
        let b = Matrix::pseudo_random(8, 8, 2);
        let reference = Matrix::multiply_reference(&a, &b);
        let mut c = Matrix::zeros(8, 8);
        kernels::gemm_acc(8, 8, 8, a.as_slice(), b.as_slice(), c.as_mut_slice());
        assert!(product_ok(Some(c.max_abs_diff(&reference))));
        c[(3, 4)] += 1e-6;
        assert!(!product_ok(Some(c.max_abs_diff(&reference))));
        // No product at all is a failure too.
        assert!(!product_ok(None));
    }
}
