//! The parallel BLAS backend (the "inner runtime" of the nested workloads).

use crate::config::{BarrierKind, BlasConfig, BlasThreading};
use crate::kernels;
use crate::matrix::Matrix;
use std::ops::Range;
use usf_core::sync::{Barrier, BusyBarrier, Mutex};
use usf_runtimes::forkjoin::{Team, TeamConfig};
use usf_runtimes::threadpool::TransientPool;

/// Mutable pointer that can be shared across kernel workers. Each worker touches a disjoint
/// row range of the output, which is what makes the aliasing sound.
#[derive(Clone, Copy)]
struct SharedOut(*mut f64);
unsafe impl Send for SharedOut {}
unsafe impl Sync for SharedOut {}

impl SharedOut {
    /// Raw base pointer. Accessed through a method so closures capture the whole wrapper
    /// (which is `Sync`) rather than the raw pointer field.
    fn ptr(&self) -> *mut f64 {
        self.0
    }
}

/// End-of-kernel synchronization object built per call according to the configuration.
enum KernelBarrier {
    Busy(BusyBarrier),
    Blocking(Barrier),
}

impl KernelBarrier {
    fn new(kind: BarrierKind, participants: usize) -> Self {
        match kind {
            BarrierKind::BusySpin => KernelBarrier::Busy(BusyBarrier::new(participants, None)),
            BarrierKind::BusyYield { yield_every } => {
                KernelBarrier::Busy(BusyBarrier::new(participants, Some(yield_every)))
            }
            BarrierKind::Blocking => KernelBarrier::Blocking(Barrier::new(participants)),
        }
    }

    fn wait(&self) {
        match self {
            KernelBarrier::Busy(b) => {
                b.wait();
            }
            KernelBarrier::Blocking(b) => {
                b.wait();
            }
        }
    }
}

/// The inner runtime behind a [`BlasHandle`].
enum Backend {
    /// Idle OpenMP-like teams. A kernel borrows one for its region and returns it, so a
    /// team's threads outlive the call (libgomp's per-master thread pool).
    Teams(Mutex<Vec<Team>>),
    /// Spawn-per-call threads.
    Transient(TransientPool),
}

/// A handle to the parallel BLAS library: owns the inner runtime and runs kernels with the
/// configured synchronization behaviour. The OpenMP-like backend keeps one persistent team
/// per concurrent caller and reuses it across calls; the spawn-per-call backend creates
/// fresh threads for every call. Share one handle (e.g. in an `Arc`) across the tasks that
/// call it, and drop it before the USF instance its threads run on shuts down.
pub struct BlasHandle {
    config: BlasConfig,
    backend: Backend,
}

impl BlasHandle {
    /// Create a handle (spawning one persistent team if the configuration asks for one).
    pub fn new(config: BlasConfig) -> Self {
        let backend = match config.threading {
            BlasThreading::OpenMpLike => Backend::Teams(Mutex::new(vec![new_team(&config)])),
            BlasThreading::PthreadPerCall => {
                Backend::Transient(TransientPool::new(config.exec.clone()))
            }
        };
        BlasHandle { config, backend }
    }

    /// The configuration of this handle.
    pub fn config(&self) -> &BlasConfig {
        &self.config
    }

    /// Number of inner threads used per kernel call.
    pub fn threads(&self) -> usize {
        self.config.threads.max(1)
    }

    /// Parallel `C += A · B` (`A`: `m×k`, `B`: `k×n`, `C`: `m×n`, row-major). Rows of `C`
    /// are partitioned over the inner threads; every worker then waits at the configured
    /// end-of-kernel barrier (mirroring the busy-wait join of OpenBLAS/BLIS).
    pub fn gemm_acc(&self, m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
        assert_eq!(a.len(), m * k, "A dimension mismatch");
        assert_eq!(b.len(), k * n, "B dimension mismatch");
        assert_eq!(c.len(), m * n, "C dimension mismatch");
        if m == 0 || n == 0 {
            return;
        }
        self.for_row_chunks(m, n, c, |rows, c_rows| {
            let a_rows = &a[rows.start * k..rows.end * k];
            kernels::gemm_acc(rows.len(), k, n, a_rows, b, c_rows);
        });
    }

    /// Run `body(rows, c_rows)` over the `m` rows of the row-major `m×n` matrix `c`:
    /// directly when one worker suffices, otherwise one disjoint chunk of rows per inner
    /// thread through [`BlasHandle::run_parallel`].
    fn for_row_chunks(
        &self,
        m: usize,
        n: usize,
        c: &mut [f64],
        body: impl Fn(Range<usize>, &mut [f64]) + Send + Sync,
    ) {
        assert_eq!(c.len(), m * n, "C dimension mismatch");
        let workers = self.threads().min(m).max(1);
        if workers == 1 {
            body(0..m, c);
            return;
        }
        let out = SharedOut(c.as_mut_ptr());
        let rows_per = m.div_ceil(workers);
        self.run_parallel(workers, |t| {
            let r0 = t * rows_per;
            let r1 = ((t + 1) * rows_per).min(m);
            if r0 < r1 {
                // Safety: C holds `m × n` elements (asserted above), each worker writes
                // only rows [r0, r1) of it, and the ranges are disjoint across workers.
                let c_rows =
                    unsafe { std::slice::from_raw_parts_mut(out.ptr().add(r0 * n), (r1 - r0) * n) };
                body(r0..r1, c_rows);
            }
        });
    }

    /// Run `body(t)` for `t` in `0..workers` on the inner runtime; every worker then waits
    /// at the configured end-of-kernel barrier. The OpenMP-like backend borrows an idle
    /// team (building one only when every team is lent to a concurrent caller) and returns
    /// it afterwards; the pool lock covers only the pop and the push.
    fn run_parallel(&self, workers: usize, body: impl Fn(usize) + Send + Sync) {
        let barrier = KernelBarrier::new(self.config.barrier, workers);
        let body = |t: usize| {
            body(t);
            barrier.wait();
        };
        match &self.backend {
            Backend::Teams(idle) => {
                let borrowed = idle.lock().pop();
                let team = borrowed.unwrap_or_else(|| new_team(&self.config));
                team.parallel(workers, |ctx| body(ctx.thread_num()));
                idle.lock().push(team);
            }
            Backend::Transient(pool) => pool.run(workers, body),
        }
    }

    /// Convenience wrapper: allocate and return `A · B`.
    pub fn gemm(&self, a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.rows(), "dimension mismatch");
        let mut c = Matrix::zeros(a.rows(), b.cols());
        self.gemm_acc(
            a.rows(),
            a.cols(),
            b.cols(),
            a.as_slice(),
            b.as_slice(),
            c.as_mut_slice(),
        );
        c
    }

    /// Tile operation: in-place Cholesky factor of an `n×n` tile (serial; the parallelism of
    /// the blocked Cholesky comes from the outer task graph).
    pub fn potrf(&self, n: usize, a: &mut [f64]) -> Result<(), usize> {
        kernels::potrf(n, a)
    }

    /// Tile operation: `B := B · L⁻ᵀ`.
    pub fn trsm(&self, n: usize, l: &[f64], b: &mut [f64]) {
        kernels::trsm_right_lower_transpose(n, l, b);
    }

    /// Tile operation: `C -= A · Aᵀ` (lower triangle).
    pub fn syrk(&self, n: usize, a: &[f64], c: &mut [f64]) {
        kernels::syrk_ln_sub(n, a, c);
    }

    /// Tile operation: `C -= A · Bᵀ`, parallelized over the inner threads like
    /// [`BlasHandle::gemm_acc`].
    pub fn gemm_nt_sub(&self, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
        assert_eq!(a.len(), n * n);
        assert_eq!(b.len(), n * n);
        assert_eq!(c.len(), n * n);
        if n == 0 {
            return;
        }
        self.for_row_chunks(n, n, c, |rows, c_rows| {
            let a_rows = &a[rows.start * n..rows.end * n];
            kernels::gemm_nt_sub(rows.len(), n, n, a_rows, b, c_rows);
        });
    }
}

/// Spawn one persistent team sized and configured for `config`.
fn new_team(config: &BlasConfig) -> Team {
    Team::new(
        TeamConfig::new(config.threads.max(1), config.exec.clone())
            .wait_policy(config.wait_policy)
            .name("blas"),
    )
}

impl std::fmt::Debug for BlasHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlasHandle")
            .field("threads", &self.config.threads)
            .field("threading", &self.config.threading.label())
            .field("barrier", &self.config.barrier.label())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use usf_core::exec::ExecMode;
    use usf_core::runtime::Usf;

    fn check_gemm(handle: &BlasHandle) {
        let a = Matrix::pseudo_random(33, 17, 1);
        let b = Matrix::pseudo_random(17, 29, 2);
        let c = handle.gemm(&a, &b);
        let reference = Matrix::multiply_reference(&a, &b);
        assert!(
            c.max_abs_diff(&reference) < 1e-10,
            "diff {}",
            c.max_abs_diff(&reference)
        );
    }

    #[test]
    fn omp_backend_matches_reference() {
        check_gemm(&BlasHandle::new(BlasConfig::omp(3, ExecMode::Os)));
    }

    #[test]
    fn pth_backend_matches_reference() {
        check_gemm(&BlasHandle::new(BlasConfig::pth(3, ExecMode::Os)));
    }

    #[test]
    fn single_thread_matches_reference() {
        check_gemm(&BlasHandle::new(BlasConfig::omp(1, ExecMode::Os)));
    }

    #[test]
    fn all_barrier_kinds_produce_same_result() {
        for kind in [
            BarrierKind::Blocking,
            BarrierKind::BusyYield { yield_every: 16 },
            BarrierKind::BusySpin,
        ] {
            check_gemm(&BlasHandle::new(
                BlasConfig::omp(2, ExecMode::Os).barrier(kind),
            ));
        }
    }

    #[test]
    fn usf_backend_matches_reference() {
        let usf = Usf::builder().cores(2).build();
        let p = usf.process("blas-test");
        check_gemm(&BlasHandle::new(
            BlasConfig::omp(3, ExecMode::Usf(p.clone()))
                .barrier(BarrierKind::BusyYield { yield_every: 32 }),
        ));
        check_gemm(&BlasHandle::new(BlasConfig::pth(2, ExecMode::Usf(p))));
        usf.shutdown();
    }

    /// Number of idle teams in `handle`'s pool (`0` for the spawn-per-call backend).
    fn idle_teams(handle: &BlasHandle) -> usize {
        match &handle.backend {
            Backend::Teams(idle) => idle.lock().len(),
            Backend::Transient(_) => 0,
        }
    }

    /// Run `f(handle, i)` on four concurrent callers `i` that share `handle`.
    fn four_callers(
        handle: &Arc<BlasHandle>,
        exec: &ExecMode,
        f: impl Fn(&BlasHandle, u64) + Send + Sync + 'static,
    ) {
        let f = Arc::new(f);
        let callers: Vec<_> = (0..4u64)
            .map(|i| {
                let (handle, f) = (Arc::clone(handle), Arc::clone(&f));
                exec.spawn_named(format!("caller-{i}"), move || f(&handle, i))
            })
            .collect();
        for caller in callers {
            caller.join().expect("caller panicked");
        }
    }

    fn fifty_checked_gemms(handle: &BlasHandle, seed: u64) {
        let a = Matrix::pseudo_random(33, 17, seed);
        let b = Matrix::pseudo_random(17, 29, seed + 4);
        let reference = Matrix::multiply_reference(&a, &b);
        for _ in 0..50 {
            assert!(handle.gemm(&a, &b).max_abs_diff(&reference) < 1e-10);
        }
    }

    fn assert_callers_borrow_their_own_team(exec: ExecMode) {
        let handle = Arc::new(BlasHandle::new(BlasConfig::omp(3, exec.clone())));
        four_callers(&handle, &exec, fifty_checked_gemms);
        let teams = idle_teams(&handle);
        assert!((1..=4).contains(&teams), "{teams} teams for 4 callers");
        // All four callers hold a team at the same moment: the pool grows to exactly that
        // peak, so the next wave can never find every team lent out.
        let all_borrowed = Arc::new(Barrier::new(4));
        four_callers(&handle, &exec, move |handle, _| {
            handle.run_parallel(3, |t| {
                if t == 0 {
                    all_borrowed.wait();
                }
            })
        });
        assert_eq!(idle_teams(&handle), 4);
        four_callers(&handle, &exec, fifty_checked_gemms);
        assert_eq!(
            idle_teams(&handle),
            4,
            "a second wave of gemms builds no team"
        );
    }

    #[test]
    fn concurrent_callers_borrow_their_own_team() {
        assert_callers_borrow_their_own_team(ExecMode::Os);
        // On 2 cores a borrowed team's workers need cores of their own.
        let usf = Usf::builder().cores(2).build();
        assert_callers_borrow_their_own_team(ExecMode::Usf(usf.process("blas-callers")));
        usf.shutdown();
    }

    #[test]
    fn gemm_nt_sub_parallel_matches_serial() {
        let n = 24;
        let a = Matrix::pseudo_random(n, n, 5);
        let b = Matrix::pseudo_random(n, n, 6);
        let c0 = Matrix::pseudo_random(n, n, 7);
        let mut serial = c0.clone();
        kernels::gemm_nt_sub(n, n, n, a.as_slice(), b.as_slice(), serial.as_mut_slice());
        let handle = BlasHandle::new(BlasConfig::omp(3, ExecMode::Os));
        let mut par = c0.clone();
        handle.gemm_nt_sub(n, a.as_slice(), b.as_slice(), par.as_mut_slice());
        assert!(par == serial);
    }

    #[test]
    fn empty_matrices_are_handled() {
        let handle = BlasHandle::new(BlasConfig::omp(2, ExecMode::Os));
        let a = Matrix::zeros(0, 0);
        let b = Matrix::zeros(0, 0);
        let c = handle.gemm(&a, &b);
        assert_eq!(c.rows(), 0);
    }

    #[test]
    fn more_threads_than_rows_is_safe() {
        let handle = BlasHandle::new(BlasConfig::omp(8, ExecMode::Os));
        let a = Matrix::pseudo_random(3, 4, 9);
        let b = Matrix::pseudo_random(4, 5, 10);
        let c = handle.gemm(&a, &b);
        assert!(c.max_abs_diff(&Matrix::multiply_reference(&a, &b)) < 1e-12);
    }
}
