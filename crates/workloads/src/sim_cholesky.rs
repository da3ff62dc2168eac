//! Simulated runtime-composition Cholesky — the workload behind Table 2 (§5.4).
//!
//! Table 2 fixes the problem (32768², task size 1024) and varies the runtime composition
//! (outer runtime, inner runtime, BLAS implementation) and the degree of parallelism
//! (Mild 8×8, Medium 14×14, High 28×28 threads). The scheduling-relevant differences between
//! the compositions are reproduced with [`crate::sim_nested`]:
//!
//! * every composition nests an inner team inside each outer task (oversubscription grows
//!   as outer×inner);
//! * the **pth** inner runtime (BLIS pthread backend) creates and destroys its threads at
//!   every kernel call, paying a per-call thread-creation cost under the baseline scheduler;
//!   under USF the thread cache absorbs most of that cost (§4.3.1), which is why the pth
//!   rows show the largest speedups;
//! * the other compositions (gomp/libomp/TBB) reuse their threads, so they only differ in
//!   minor constant overheads.

use crate::sim_nested::{run_nested, NestedSpec, SimNestedResult, Stack};
use usf_blas::BlasThreading;
use usf_simsched::{Machine, SimTime};

/// Thread create+destroy cost per inner worker for the pth backend under the Linux
/// scheduler (clone, stack setup, wake-up and teardown noise).
const PTH_SPAWN_COST: SimTime = SimTime::from_micros(120);

/// Residual per-worker cost when the USF thread cache serves the spawn, and the wake-up
/// cost of a persistent team under either scheduler.
const CACHED_SPAWN_COST: SimTime = SimTime::from_micros(8);

/// One runtime composition (a row of Table 2).
#[derive(Debug, Clone)]
pub struct Composition {
    /// Outer runtime label (gnu, tbb — cosmetic, they share the scheduling behaviour).
    pub outer: &'static str,
    /// Inner runtime label (llvm, gnu, pth).
    pub inner: &'static str,
    /// BLAS label (opb, blis — cosmetic).
    pub blas: &'static str,
    /// Scheduling-relevant flavour of the inner runtime.
    pub threading: BlasThreading,
}

impl Composition {
    /// The five compositions of Table 2, in row order.
    pub fn table2_rows() -> Vec<Composition> {
        vec![
            Composition {
                outer: "gnu",
                inner: "llvm",
                blas: "opb",
                threading: BlasThreading::OpenMpLike,
            },
            Composition {
                outer: "tbb",
                inner: "llvm",
                blas: "opb",
                threading: BlasThreading::OpenMpLike,
            },
            Composition {
                outer: "tbb",
                inner: "gnu",
                blas: "blis",
                threading: BlasThreading::OpenMpLike,
            },
            Composition {
                outer: "tbb",
                inner: "pth",
                blas: "blis",
                threading: BlasThreading::PthreadPerCall,
            },
            Composition {
                outer: "gnu",
                inner: "pth",
                blas: "blis",
                threading: BlasThreading::PthreadPerCall,
            },
        ]
    }

    /// Row label, e.g. `tbb/pth/blis`.
    pub fn label(&self) -> String {
        format!("{}/{}/{}", self.outer, self.inner, self.blas)
    }
}

/// Degrees of parallelism evaluated in Table 2 (outer × inner threads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// 8 × 8 threads (1.14 threads per core on the 56-core socket).
    Mild,
    /// 14 × 14 threads (3.5 threads per core).
    Medium,
    /// 28 × 28 threads (14 threads per core).
    High,
}

impl Parallelism {
    /// All degrees, in column order.
    pub const ALL: [Parallelism; 3] = [Parallelism::Mild, Parallelism::Medium, Parallelism::High];

    /// `(outer, inner)` thread counts.
    pub fn threads(&self) -> (usize, usize) {
        match self {
            Parallelism::Mild => (8, 8),
            Parallelism::Medium => (14, 14),
            Parallelism::High => (28, 28),
        }
    }

    /// Column label.
    pub fn label(&self) -> &'static str {
        match self {
            Parallelism::Mild => "Mild",
            Parallelism::Medium => "Medium",
            Parallelism::High => "High",
        }
    }
}

/// Configuration of one Table 2 cell.
#[derive(Debug, Clone)]
pub struct SimCholeskyConfig {
    /// Runtime composition (row).
    pub composition: Composition,
    /// Degree of parallelism (column).
    pub parallelism: Parallelism,
    /// Software stack (Table 2 compares `Baseline` with `SchedCoop`).
    pub stack: Stack,
    /// Simulated machine (56-core socket by default).
    pub machine: Machine,
    /// Tile size (1024 in the paper).
    pub task_size: usize,
    /// Tasks per outer worker in the simulated steady-state window.
    pub tasks_per_worker: usize,
}

impl SimCholeskyConfig {
    /// A Table 2 cell with the defaults used by the bench harness.
    pub fn new(composition: Composition, parallelism: Parallelism, stack: Stack) -> Self {
        SimCholeskyConfig {
            composition,
            parallelism,
            stack,
            machine: Machine::marenostrum5_socket(),
            task_size: 1024,
            tasks_per_worker: 3,
        }
    }
}

/// Run one Table 2 cell: each task is a trailing-matrix gemm update on a task-size tile.
pub fn run_sim_cholesky(cfg: &SimCholeskyConfig) -> SimNestedResult {
    let (outer, inner) = cfg.parallelism.threads();
    // Per-call thread management cost of the inner runtime: the pth backend pays a thread
    // creation under the Linux scheduler, which the USF thread cache absorbs.
    let spawn_cost = match (cfg.composition.threading, cfg.stack) {
        (BlasThreading::PthreadPerCall, Stack::Original | Stack::Baseline) => PTH_SPAWN_COST,
        _ => CACHED_SPAWN_COST,
    };
    run_nested(&NestedSpec {
        machine: cfg.machine.clone(),
        stack: cfg.stack,
        outer_workers: outer,
        inner_threads: inner,
        tasks_per_worker: cfg.tasks_per_worker,
        task_flops: 2.0 * (cfg.task_size as f64).powi(3),
        spawn_cost: Some(spawn_cost),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(
        composition: Composition,
        parallelism: Parallelism,
        scheduler: Stack,
    ) -> SimNestedResult {
        let mut cfg = SimCholeskyConfig::new(composition, parallelism, scheduler);
        cfg.machine = Machine::small(8);
        cfg.task_size = 256;
        cfg.tasks_per_worker = 2;
        run_sim_cholesky(&cfg)
    }

    #[test]
    fn table2_has_five_rows_and_three_columns() {
        assert_eq!(Composition::table2_rows().len(), 5);
        assert_eq!(Parallelism::ALL.len(), 3);
        assert_eq!(Parallelism::High.threads(), (28, 28));
        assert_eq!(Composition::table2_rows()[3].label(), "tbb/pth/blis");
    }

    #[test]
    fn sched_coop_speeds_up_pth_composition_most() {
        let rows = Composition::table2_rows();
        let omp = rows[1].clone(); // tbb/llvm/opb
        let pth = rows[3].clone(); // tbb/pth/blis
        let speedup = |c: &Composition| {
            let base = quick(c.clone(), Parallelism::High, Stack::Baseline).mflops;
            let coop = quick(c.clone(), Parallelism::High, Stack::SchedCoop).mflops;
            coop / base.max(1e-9)
        };
        let s_omp = speedup(&omp);
        let s_pth = speedup(&pth);
        assert!(
            s_pth > 1.0,
            "SCHED_COOP must beat the baseline for the pth backend (got {s_pth:.2})"
        );
        assert!(
            s_pth > s_omp,
            "the thread-churning pth backend must benefit more than the persistent team ({s_pth:.2} vs {s_omp:.2})"
        );
    }

    #[test]
    fn heavier_oversubscription_lowers_baseline_throughput() {
        let row = Composition::table2_rows()[0].clone();
        let mild = quick(row.clone(), Parallelism::Mild, Stack::Baseline).mflops;
        let high = quick(row, Parallelism::High, Stack::Baseline).mflops;
        assert!(mild > 0.0 && high > 0.0);
        assert!(
            high < mild,
            "per-configuration throughput must drop as oversubscription grows (mild {mild:.0} vs high {high:.0})"
        );
    }

    #[test]
    fn results_are_deterministic() {
        let row = Composition::table2_rows()[2].clone();
        let a = quick(row.clone(), Parallelism::Medium, Stack::SchedCoop);
        let b = quick(row, Parallelism::Medium, Stack::SchedCoop);
        assert_eq!(a.makespan, b.makespan);
    }
}
