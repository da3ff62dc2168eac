//! Real-execution blocked Cholesky factorization (§5.4).
//!
//! The right-looking tiled algorithm: for every panel `k`, factorize the diagonal tile
//! (`potrf`), solve the tiles below it (`trsm`), and update the trailing matrix (`syrk` on
//! diagonal tiles, `gemm` elsewhere). The outer task runtime tracks the tile dependencies;
//! the gemm updates call the parallel BLAS backend (the inner runtime), reproducing the
//! runtime-composition structure of Table 2. Each gemm task still opens its own inner
//! parallel region; its threads come from the instance's one [`BlasHandle`], shared by all
//! tasks and units.

use std::sync::Arc;
use std::time::{Duration, Instant};
use usf_blas::matrix::max_error;
use usf_blas::{BarrierKind, BlasConfig, BlasHandle, BlasThreading, Matrix};
use usf_core::exec::ExecMode;
use usf_core::sync::Mutex;
use usf_runtimes::taskrt::{DataKey, TaskDeps, TaskRuntime, TaskRuntimeConfig};

/// Configuration of a real-execution blocked Cholesky run.
#[derive(Debug, Clone)]
pub struct CholeskyConfig {
    /// Matrix dimension `N` (must be a multiple of `tile_size`).
    pub matrix_size: usize,
    /// Tile dimension.
    pub tile_size: usize,
    /// Outer task-runtime workers.
    pub outer_workers: usize,
    /// Inner (BLAS) threads per gemm update.
    pub inner_threads: usize,
    /// Inner runtime flavour ("omp" team or "pth" spawn-per-call).
    pub inner_threading: BlasThreading,
    /// End-of-kernel barrier behaviour.
    pub barrier: BarrierKind,
    /// Thread backend.
    pub exec: ExecMode,
}

impl CholeskyConfig {
    /// A small configuration suitable for tests and examples.
    pub fn small(exec: ExecMode) -> Self {
        CholeskyConfig {
            matrix_size: 128,
            tile_size: 32,
            outer_workers: 2,
            inner_threads: 2,
            inner_threading: BlasThreading::OpenMpLike,
            barrier: BarrierKind::BusyYield { yield_every: 64 },
            exec,
        }
    }
}

/// Result of a Cholesky run.
#[derive(Debug, Clone)]
pub struct CholeskyResult {
    /// Wall-clock time.
    pub elapsed: Duration,
    /// Performance in MFLOP/s (`N³/3` useful flops).
    pub mflops: f64,
    /// Number of outer tasks executed.
    pub tasks: u64,
    /// Maximum absolute error of `L·Lᵀ` vs. the input (when verification was requested).
    pub max_error: Option<f64>,
}

type Tiles = Arc<Vec<Mutex<Vec<f64>>>>;

fn split_into_tiles(a: &Matrix, ts: usize) -> Tiles {
    let nb = a.rows() / ts;
    let mut tiles = Vec::with_capacity(nb * nb);
    for bi in 0..nb {
        for bj in 0..nb {
            let mut t = vec![0.0; ts * ts];
            for i in 0..ts {
                for j in 0..ts {
                    t[i * ts + j] = a[(bi * ts + i, bj * ts + j)];
                }
            }
            tiles.push(Mutex::new(t));
        }
    }
    Arc::new(tiles)
}

/// A set-up blocked Cholesky: the SPD input is generated once, then
/// [`CholeskyInstance::factorize_once`] runs complete factorizations on fresh tile copies —
/// the reusable unit of work driven by the scenario engine and [`run_cholesky`].
pub struct CholeskyInstance {
    cfg: CholeskyConfig,
    a: Matrix,
    blas: Arc<BlasHandle>,
    nb: usize,
    ts: usize,
    last_tiles: Option<Tiles>,
    tasks: u64,
}

impl CholeskyInstance {
    /// Set up the workload: generate the SPD matrix and start the inner BLAS (the parts
    /// shared by all units).
    pub fn new(cfg: &CholeskyConfig) -> Self {
        assert!(
            cfg.matrix_size % cfg.tile_size == 0,
            "tile size must divide the matrix size"
        );
        let n = cfg.matrix_size;
        let ts = cfg.tile_size;
        let a = Matrix::spd(n, 9);
        let blas = Arc::new(BlasHandle::new(BlasConfig {
            threads: cfg.inner_threads,
            threading: cfg.inner_threading,
            barrier: cfg.barrier,
            wait_policy: usf_runtimes::WaitPolicy::Passive,
            exec: cfg.exec.clone(),
        }));
        CholeskyInstance {
            cfg: cfg.clone(),
            a,
            blas,
            nb: n / ts,
            ts,
            last_tiles: None,
            tasks: 0,
        }
    }

    /// Run one complete factorization (one unit) on a fresh copy of the input tiles.
    pub fn factorize_once(&mut self) {
        let (nb, ts) = (self.nb, self.ts);
        let tiles = split_into_tiles(&self.a, ts);
        let key = |i: usize, j: usize| DataKey::index2(11, i, j);
        let rt = TaskRuntime::new(
            TaskRuntimeConfig::new(self.cfg.outer_workers, self.cfg.exec.clone())
                .name("chol-outer"),
        );
        for k in 0..nb {
            // potrf on the diagonal tile.
            {
                let tiles = Arc::clone(&tiles);
                rt.submit(TaskDeps::none().inout(key(k, k)), move || {
                    let mut d = tiles[k * nb + k].lock();
                    usf_blas::kernels::potrf(ts, &mut d).expect("matrix must stay SPD");
                });
                self.tasks += 1;
            }
            // trsm for the panel below the diagonal.
            for i in (k + 1)..nb {
                let tiles = Arc::clone(&tiles);
                rt.submit(
                    TaskDeps::none().input(key(k, k)).inout(key(i, k)),
                    move || {
                        let l = tiles[k * nb + k].lock().clone();
                        let mut b = tiles[i * nb + k].lock();
                        usf_blas::kernels::trsm_right_lower_transpose(ts, &l, &mut b);
                    },
                );
                self.tasks += 1;
            }
            // Trailing-matrix update.
            for i in (k + 1)..nb {
                // syrk on the diagonal of the trailing matrix.
                {
                    let tiles = Arc::clone(&tiles);
                    rt.submit(
                        TaskDeps::none().input(key(i, k)).inout(key(i, i)),
                        move || {
                            let a_ik = tiles[i * nb + k].lock().clone();
                            let mut c = tiles[i * nb + i].lock();
                            usf_blas::kernels::syrk_ln_sub(ts, &a_ik, &mut c);
                        },
                    );
                    self.tasks += 1;
                }
                // gemm updates below the diagonal — this is the kernel that opens the inner
                // parallel region (the BLAS call of Listing 2 / Table 2).
                for j in (k + 1)..i {
                    let tiles = Arc::clone(&tiles);
                    let blas = Arc::clone(&self.blas);
                    rt.submit(
                        TaskDeps::none()
                            .input(key(i, k))
                            .input(key(j, k))
                            .inout(key(i, j)),
                        move || {
                            let a_ik = tiles[i * nb + k].lock().clone();
                            let a_jk = tiles[j * nb + k].lock().clone();
                            let mut c = tiles[i * nb + j].lock();
                            blas.gemm_nt_sub(ts, &a_ik, &a_jk, &mut c);
                        },
                    );
                    self.tasks += 1;
                }
            }
        }
        rt.taskwait();
        self.last_tiles = Some(tiles);
    }

    /// Outer tasks executed so far across all units.
    pub fn tasks_executed(&self) -> u64 {
        self.tasks
    }

    /// Maximum absolute error of `L·Lᵀ` of the last factorization vs. the input, NaN if any
    /// element is NaN (`None` before the first unit; small sizes only).
    pub fn verify_last(&self) -> Option<f64> {
        let tiles = self.last_tiles.as_ref()?;
        let (nb, ts) = (self.nb, self.ts);
        let n = self.cfg.matrix_size;
        // Rebuild L·Lᵀ from the lower-triangular tiles and compare with A.
        let mut l = Matrix::zeros(n, n);
        for bi in 0..nb {
            for bj in 0..=bi {
                let t = tiles[bi * nb + bj].lock();
                for i in 0..ts {
                    for j in 0..ts {
                        let (gi, gj) = (bi * ts + i, bj * ts + j);
                        if gj <= gi {
                            l[(gi, gj)] = t[i * ts + j];
                        }
                    }
                }
            }
        }
        let rebuilt = Matrix::multiply_reference(&l, &l.transpose());
        let mut err: f64 = 0.0;
        for i in 0..n {
            for j in 0..=i {
                err = max_error(err, (rebuilt[(i, j)] - self.a[(i, j)]).abs());
            }
        }
        Some(err)
    }
}

/// Run the blocked Cholesky factorization.
pub fn run_cholesky(cfg: &CholeskyConfig) -> CholeskyResult {
    run_cholesky_impl(cfg, false)
}

/// Run the blocked Cholesky and verify `L·Lᵀ ≈ A` (small sizes only).
pub fn run_cholesky_verified(cfg: &CholeskyConfig) -> CholeskyResult {
    run_cholesky_impl(cfg, true)
}

fn run_cholesky_impl(cfg: &CholeskyConfig, verify: bool) -> CholeskyResult {
    let mut inst = CholeskyInstance::new(cfg);
    let start = Instant::now();
    inst.factorize_once();
    let elapsed = start.elapsed();
    let flops = (cfg.matrix_size as f64).powi(3) / 3.0;
    let mflops = flops / elapsed.as_secs_f64() / 1e6;
    let max_error = if verify { inst.verify_last() } else { None };

    CholeskyResult {
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
    fn os_baseline_cholesky_is_correct() {
        let cfg = CholeskyConfig::small(ExecMode::Os);
        let r = run_cholesky_verified(&cfg);
        assert!(r.max_error.unwrap() < 1e-6, "error {:?}", r.max_error);
        assert!(r.tasks > 0);
        assert!(r.mflops > 0.0);
    }

    #[test]
    fn usf_sched_coop_cholesky_is_correct() {
        let usf = Usf::builder().cores(2).build();
        let p = usf.process("cholesky");
        let cfg = CholeskyConfig::small(ExecMode::Usf(p));
        let r = run_cholesky_verified(&cfg);
        assert!(r.max_error.unwrap() < 1e-6, "error {:?}", r.max_error);
        assert!(usf.metrics().attaches > 0);
        usf.shutdown();
    }

    #[test]
    fn a_unit_spawns_only_its_outer_workers() {
        let usf = Usf::builder().cores(2).build();
        // One outer worker: with two, whether the warm-up unit ever ran two gemms at once
        // (and so left two teams in the pool) is up to timing.
        let cfg = CholeskyConfig {
            outer_workers: 1,
            ..CholeskyConfig::small(ExecMode::Usf(usf.process("cholesky-spawns")))
        };
        let mut inst = CholeskyInstance::new(&cfg);
        inst.factorize_once();
        let spawns = || {
            let s = usf.thread_cache_stats();
            s.created + s.reused
        };
        let before = spawns();
        inst.factorize_once();
        assert_eq!(
            spawns() - before,
            cfg.outer_workers as u64,
            "the inner BLAS teams must outlive the tasks that borrow them"
        );
        assert!(inst.verify_last().unwrap() < 1e-6);
        drop(inst);
        usf.shutdown();
    }

    #[test]
    fn one_nan_element_fails_verify_last() {
        let mut inst = CholeskyInstance::new(&CholeskyConfig::small(ExecMode::Os));
        inst.factorize_once();
        assert!(inst.verify_last().unwrap() < 1e-6);
        // Tile (2, 1) lies below the diagonal, so its every element enters L·Lᵀ.
        inst.last_tiles.as_ref().unwrap()[2 * inst.nb + 1].lock()[17] = f64::NAN;
        let err = inst.verify_last().unwrap();
        assert!(err.is_nan(), "a NaN factor reads as error {err}");
    }

    #[test]
    fn pth_inner_backend_is_correct() {
        let mut cfg = CholeskyConfig::small(ExecMode::Os);
        cfg.inner_threading = BlasThreading::PthreadPerCall;
        cfg.matrix_size = 96;
        cfg.tile_size = 32;
        let r = run_cholesky_verified(&cfg);
        assert!(r.max_error.unwrap() < 1e-6);
    }

    #[test]
    fn task_count_matches_formula() {
        let cfg = CholeskyConfig {
            matrix_size: 128,
            tile_size: 32,
            ..CholeskyConfig::small(ExecMode::Os)
        };
        let r = run_cholesky(&cfg);
        let nb = 4u64;
        // potrf: nb, trsm: nb(nb-1)/2, syrk: nb(nb-1)/2, gemm: nb(nb-1)(nb-2)/6
        let expected = nb + nb * (nb - 1) / 2 + nb * (nb - 1) / 2 + nb * (nb - 1) * (nb - 2) / 6;
        assert_eq!(r.tasks, expected);
    }
}
