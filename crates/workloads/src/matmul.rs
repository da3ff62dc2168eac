//! Real-execution nested matmul (§5.3, Listing 2).
//!
//! The matrix is blocked into `TS × TS` tiles; an *outer* task runtime creates one task per
//! `(k, i, j)` tile update with the Listing 2 dependencies (`inout C[i][j]`, `in A[i][k]`,
//! `in B[k][j]`), and each task calls a parallel BLAS gemm that opens an *inner* parallel
//! region of `inner_threads` workers — exactly the composition that multiplies thread counts
//! and oversubscribes the node. The region's threads come from the instance's one
//! [`BlasHandle`], which keeps a team per concurrent task alive across tasks and units, as an
//! OpenMP runtime does for each master thread. Running it with [`usf_core::ExecMode::Os`]
//! gives the baseline; [`usf_core::ExecMode::Usf`] gives SCHED_COOP.

use std::sync::Arc;
use std::time::{Duration, Instant};
use usf_blas::matrix::max_error;
use usf_blas::{BarrierKind, BlasConfig, BlasHandle, BlasThreading, Matrix};
use usf_core::exec::ExecMode;
use usf_core::sync::Mutex;
use usf_runtimes::taskrt::{DataKey, TaskDeps, TaskRuntime, TaskRuntimeConfig};

/// Configuration of a real-execution nested matmul run.
#[derive(Debug, Clone)]
pub struct MatmulConfig {
    /// Matrix dimension `N` (the paper uses 32768; tests use small sizes).
    pub matrix_size: usize,
    /// Tile dimension `TS`.
    pub task_size: usize,
    /// Inner (BLAS) threads per task.
    pub inner_threads: usize,
    /// Outer task-runtime workers.
    pub outer_workers: usize,
    /// Inner runtime flavour (OpenMP-like team or spawn-per-call pool).
    pub inner_threading: BlasThreading,
    /// End-of-kernel barrier behaviour of the inner runtime.
    pub barrier: BarrierKind,
    /// Thread backend for both runtimes.
    pub exec: ExecMode,
    /// Number of complete `C = A·B` iterations to run.
    pub iterations: usize,
}

impl MatmulConfig {
    /// A small configuration suitable for tests and examples.
    pub fn small(exec: ExecMode) -> Self {
        MatmulConfig {
            matrix_size: 128,
            task_size: 32,
            inner_threads: 2,
            outer_workers: 2,
            inner_threading: BlasThreading::OpenMpLike,
            barrier: BarrierKind::BusyYield { yield_every: 64 },
            exec,
            iterations: 1,
        }
    }
}

/// Result of a matmul run.
#[derive(Debug, Clone)]
pub struct MatmulResult {
    /// Wall-clock time of all iterations.
    pub elapsed: Duration,
    /// Performance in MFLOP/s (the paper's MOPS/s axis).
    pub mflops: f64,
    /// Number of outer tasks executed.
    pub tasks: u64,
    /// Maximum absolute error of `C` vs. the reference product (only computed when
    /// `verify` was requested; `None` otherwise).
    pub max_error: Option<f64>,
}

/// Tiled matrix shared across outer tasks: `nb × nb` tiles of `ts × ts` elements. Read-only
/// inputs use plain `Arc`s; the output tiles are protected by USF mutexes (uncontended in a
/// correct dependency graph, but they keep the code safe even if a policy misbehaves).
struct TiledMatrix {
    nb: usize,
    tiles: Vec<Arc<Vec<f64>>>,
}

impl TiledMatrix {
    fn from_matrix(m: &Matrix, ts: usize) -> Self {
        let nb = m.rows() / ts;
        let mut tiles = Vec::with_capacity(nb * nb);
        for bi in 0..nb {
            for bj in 0..nb {
                let mut t = vec![0.0; ts * ts];
                for i in 0..ts {
                    for j in 0..ts {
                        t[i * ts + j] = m[(bi * ts + i, bj * ts + j)];
                    }
                }
                tiles.push(Arc::new(t));
            }
        }
        TiledMatrix { nb, tiles }
    }

    fn tile(&self, i: usize, j: usize) -> Arc<Vec<f64>> {
        Arc::clone(&self.tiles[i * self.nb + j])
    }
}

fn output_tiles(nb: usize, ts: usize) -> Arc<Vec<Mutex<Vec<f64>>>> {
    Arc::new(
        (0..nb * nb)
            .map(|_| Mutex::new(vec![0.0; ts * ts]))
            .collect(),
    )
}

/// A set-up nested matmul: the inputs are tiled once, then [`MatmulInstance::run_once`]
/// executes complete `C = A·B` products — the reusable *unit of work* the scenario engine
/// (and [`run_matmul`]) drive. Extracting this from the old inlined driver is what lets
/// the same workload run under any executor instead of only the figure binary.
pub struct MatmulInstance {
    cfg: MatmulConfig,
    a: Matrix,
    b: Matrix,
    a_tiles: Arc<TiledMatrix>,
    b_tiles: Arc<TiledMatrix>,
    blas: Arc<BlasHandle>,
    nb: usize,
    ts: usize,
    last_c: Option<Arc<Vec<Mutex<Vec<f64>>>>>,
    tasks: u64,
}

impl MatmulInstance {
    /// Set up the workload: generate the inputs, tile them and start the inner BLAS (the
    /// part that must not be re-done per unit).
    pub fn new(cfg: &MatmulConfig) -> Self {
        assert!(
            cfg.matrix_size % cfg.task_size == 0,
            "task size must divide the matrix size"
        );
        let n = cfg.matrix_size;
        let ts = cfg.task_size;
        let a = Matrix::pseudo_random(n, n, 1);
        let b = Matrix::pseudo_random(n, n, 2);
        let a_tiles = Arc::new(TiledMatrix::from_matrix(&a, ts));
        let b_tiles = Arc::new(TiledMatrix::from_matrix(&b, ts));
        let blas = Arc::new(BlasHandle::new(BlasConfig {
            threads: cfg.inner_threads,
            threading: cfg.inner_threading,
            barrier: cfg.barrier,
            wait_policy: usf_runtimes::WaitPolicy::Passive,
            exec: cfg.exec.clone(),
        }));
        MatmulInstance {
            cfg: cfg.clone(),
            a,
            b,
            a_tiles,
            b_tiles,
            blas,
            nb: n / ts,
            ts,
            last_c: None,
            tasks: 0,
        }
    }

    /// Run one complete `C = A·B` product (one unit): an outer task runtime with the
    /// Listing 2 dependencies, each task opening its inner BLAS parallel region on threads
    /// borrowed from the instance's handle.
    pub fn run_once(&mut self) {
        let (nb, ts) = (self.nb, self.ts);
        let c_tiles = output_tiles(nb, ts);
        let rt = TaskRuntime::new(
            TaskRuntimeConfig::new(self.cfg.outer_workers, self.cfg.exec.clone())
                .name("matmul-outer"),
        );
        for k in 0..nb {
            for i in 0..nb {
                for j in 0..nb {
                    let a_blk = self.a_tiles.tile(i, k);
                    let b_blk = self.b_tiles.tile(k, j);
                    let c_all = Arc::clone(&c_tiles);
                    let blas = Arc::clone(&self.blas);
                    let deps = TaskDeps::none()
                        .inout(DataKey::index2(3, i, j))
                        .input(DataKey::index2(1, i, k))
                        .input(DataKey::index2(2, k, j));
                    let idx = i * nb + j;
                    rt.submit(deps, move || {
                        // Each task opens its own inner parallel region, the nesting pattern
                        // of Listing 2 (an OpenMP region inside the BLAS call).
                        let mut c_blk = c_all[idx].lock();
                        blas.gemm_acc(ts, ts, ts, &a_blk, &b_blk, &mut c_blk);
                    });
                    self.tasks += 1;
                }
            }
        }
        rt.taskwait();
        self.last_c = Some(c_tiles);
    }

    /// Outer tasks executed so far across all units.
    pub fn tasks_executed(&self) -> u64 {
        self.tasks
    }

    /// Maximum absolute error of the last product vs. the reference multiplication, NaN if
    /// any element is NaN (`None` before the first unit; only sensible for small sizes).
    pub fn verify_last(&self) -> Option<f64> {
        let c_tiles = self.last_c.as_ref()?;
        let reference = Matrix::multiply_reference(&self.a, &self.b);
        let (nb, ts) = (self.nb, self.ts);
        let mut err: f64 = 0.0;
        for bi in 0..nb {
            for bj in 0..nb {
                let tile = c_tiles[bi * nb + bj].lock();
                for i in 0..ts {
                    for j in 0..ts {
                        let d = (tile[i * ts + j] - reference[(bi * ts + i, bj * ts + j)]).abs();
                        err = max_error(err, d);
                    }
                }
            }
        }
        Some(err)
    }
}

/// Run the nested matmul and return its performance.
pub fn run_matmul(cfg: &MatmulConfig) -> MatmulResult {
    run_matmul_impl(cfg, false)
}

/// Run the nested matmul and additionally verify the product against a reference
/// multiplication (only sensible for small sizes).
pub fn run_matmul_verified(cfg: &MatmulConfig) -> MatmulResult {
    run_matmul_impl(cfg, true)
}

fn run_matmul_impl(cfg: &MatmulConfig, verify: bool) -> MatmulResult {
    let mut inst = MatmulInstance::new(cfg);
    let start = Instant::now();
    for _ in 0..cfg.iterations.max(1) {
        inst.run_once();
    }
    let elapsed = start.elapsed();

    let n = cfg.matrix_size;
    let flops = 2.0 * (n as f64).powi(3) * cfg.iterations.max(1) as f64;
    let mflops = flops / elapsed.as_secs_f64() / 1e6;
    let max_error = if verify { inst.verify_last() } else { None };

    MatmulResult {
        elapsed,
        mflops,
        tasks: inst.tasks_executed(),
        max_error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usf_core::runtime::Usf;

    #[test]
    fn os_baseline_matmul_is_correct() {
        let cfg = MatmulConfig::small(ExecMode::Os);
        let r = run_matmul_verified(&cfg);
        assert!(r.max_error.unwrap() < 1e-9, "error {:?}", r.max_error);
        assert_eq!(r.tasks, (128u64 / 32).pow(3));
        assert!(r.mflops > 0.0);
    }

    #[test]
    fn usf_sched_coop_matmul_is_correct() {
        let usf = Usf::builder().cores(2).build();
        let p = usf.process("matmul");
        let cfg = MatmulConfig::small(ExecMode::Usf(p));
        let r = run_matmul_verified(&cfg);
        assert!(r.max_error.unwrap() < 1e-9, "error {:?}", r.max_error);
        // The run must actually have exercised the cooperative scheduler.
        assert!(usf.metrics().attaches > 0);
        usf.shutdown();
    }

    #[test]
    fn a_unit_spawns_only_its_outer_workers() {
        let usf = Usf::builder().cores(2).build();
        // One outer worker: with two, whether the warm-up unit ever ran two gemms at once
        // (and so left two teams in the pool) is up to timing.
        let cfg = MatmulConfig {
            outer_workers: 1,
            ..MatmulConfig::small(ExecMode::Usf(usf.process("matmul-spawns")))
        };
        let mut inst = MatmulInstance::new(&cfg);
        inst.run_once();
        let spawns = || {
            let s = usf.thread_cache_stats();
            s.created + s.reused
        };
        let before = spawns();
        inst.run_once();
        assert_eq!(
            spawns() - before,
            cfg.outer_workers as u64,
            "the inner BLAS teams must outlive the tasks that borrow them"
        );
        assert_eq!(inst.verify_last(), Some(0.0));
        drop(inst);
        usf.shutdown();
    }

    #[test]
    fn one_nan_element_fails_verify_last() {
        let mut inst = MatmulInstance::new(&MatmulConfig::small(ExecMode::Os));
        inst.run_once();
        assert_eq!(inst.verify_last(), Some(0.0));
        inst.last_c.as_ref().unwrap()[5].lock()[17] = f64::NAN;
        let err = inst.verify_last().unwrap();
        assert!(err.is_nan(), "a NaN product reads as error {err}");
    }

    #[test]
    fn pth_backend_matmul_is_correct() {
        let mut cfg = MatmulConfig::small(ExecMode::Os);
        cfg.inner_threading = BlasThreading::PthreadPerCall;
        cfg.matrix_size = 64;
        cfg.task_size = 32;
        let r = run_matmul_verified(&cfg);
        assert!(r.max_error.unwrap() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn indivisible_task_size_panics() {
        let mut cfg = MatmulConfig::small(ExecMode::Os);
        cfg.task_size = 33;
        let _ = run_matmul(&cfg);
    }

    #[test]
    fn tiled_matrix_round_trip() {
        let m = Matrix::pseudo_random(8, 8, 5);
        let t = TiledMatrix::from_matrix(&m, 4);
        assert_eq!(t.nb, 2);
        let blk = t.tile(1, 0);
        assert_eq!(blk[0], m[(4, 0)]);
    }

    #[test]
    fn serial_kernel_sanity() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![3.0, 4.0, 5.0, 6.0];
        let mut c = vec![0.0; 4];
        usf_blas::kernels::gemm_acc(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, b);
    }
}
