//! Simulated nested matmul — the workload behind the Figure 3 heatmaps (§5.3).
//!
//! The real experiment runs a 32768² matmul on a 56-core socket for ≥60 s per configuration
//! and reports MOPS/s; here the same *structure* is reconstructed with
//! [`crate::sim_nested`]: `max_parallel_tasks` outer workers (the task-level parallelism
//! exposed by the chosen task size) each execute a stream of tile-gemm tasks, and every
//! task opens an inner team of `inner_threads` threads. The four evaluated stacks differ
//! exactly as in the paper (see [`Stack`]).

use crate::sim_nested::{run_nested, NestedSpec, SimNestedResult, Stack};
use usf_simsched::Machine;

/// Tasks executed per outer worker (the steady-state window that is simulated).
const TASKS_PER_WORKER: usize = 2;

/// Configuration of one cell of the Figure 3 heatmap.
#[derive(Debug, Clone)]
pub struct SimMatmulConfig {
    /// Matrix dimension `N`.
    pub matrix_size: usize,
    /// Tile dimension `TS`; the outer parallelism is `(N/TS)²` capped by `max_outer_workers`.
    pub task_size: usize,
    /// Inner (BLAS) threads per task.
    pub inner_threads: usize,
    /// Software stack.
    pub stack: Stack,
    /// Simulated machine (the paper uses one 56-core socket).
    pub machine: Machine,
    /// Cap on the number of simulated outer workers (keeps huge configurations tractable;
    /// the throughput estimate is unaffected because the extra workers would only queue).
    pub max_outer_workers: usize,
}

impl SimMatmulConfig {
    /// A Figure 3 cell with the defaults used by the bench harness.
    pub fn new(matrix_size: usize, task_size: usize, inner_threads: usize, stack: Stack) -> Self {
        SimMatmulConfig {
            matrix_size,
            task_size,
            inner_threads,
            stack,
            machine: Machine::marenostrum5_socket(),
            max_outer_workers: 512,
        }
    }

    /// The outer parallelism exposed by this configuration, `(N/TS)²`.
    pub fn max_parallel_tasks(&self) -> usize {
        let nb = self.matrix_size / self.task_size;
        nb * nb
    }
}

/// Build and run the simulation for one heatmap cell: one tile update is a TS³ gemm.
pub fn run_sim_matmul(cfg: &SimMatmulConfig) -> SimNestedResult {
    let ts = cfg.task_size.max(1) as f64;
    run_nested(&NestedSpec {
        machine: cfg.machine.clone(),
        stack: cfg.stack,
        outer_workers: cfg.max_parallel_tasks().clamp(1, cfg.max_outer_workers),
        inner_threads: cfg.inner_threads,
        tasks_per_worker: TASKS_PER_WORKER,
        task_flops: 2.0 * ts.powi(3),
        spawn_cost: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use usf_simsched::SimTime;

    fn cfg(variant: Stack, inner: usize, task_size: usize) -> SimMatmulConfig {
        let mut c = SimMatmulConfig::new(2048, task_size, inner, variant);
        c.machine = Machine::small(8);
        c.machine.preemption_quantum = SimTime::from_millis(4);
        c.max_outer_workers = 32;
        c
    }

    #[test]
    fn undersubscribed_configs_perform_similarly_across_variants() {
        // 1 inner thread, few outer tasks: nothing to fight over, all variants close.
        let results: Vec<f64> = Stack::ALL
            .iter()
            .map(|v| run_sim_matmul(&cfg(*v, 1, 1024)).mflops)
            .collect();
        let max = results.iter().cloned().fold(0.0, f64::max);
        let min = results.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(min > 0.0);
        assert!(
            max / min < 1.2,
            "variants should be within 20% when not oversubscribed: {results:?}"
        );
    }

    #[test]
    fn oversubscription_hurts_original_most() {
        // 8 cores, 16 outer workers × 4 inner threads = 64 busy threads.
        let original = run_sim_matmul(&cfg(Stack::Original, 4, 512));
        let baseline = run_sim_matmul(&cfg(Stack::Baseline, 4, 512));
        let coop = run_sim_matmul(&cfg(Stack::SchedCoop, 4, 512));
        assert!(!baseline.deadlocked && !coop.deadlocked);
        assert!(
            baseline.mflops > original.mflops,
            "yielding busy-wait must beat pure spinning under oversubscription: baseline {} vs original {}",
            baseline.mflops,
            original.mflops
        );
        assert!(
            coop.mflops >= baseline.mflops * 0.95,
            "SCHED_COOP must be at least competitive with the baseline: coop {} vs baseline {}",
            coop.mflops,
            baseline.mflops
        );
    }

    #[test]
    fn sched_coop_and_manual_do_not_deadlock() {
        for v in [Stack::SchedCoop, Stack::Manual] {
            let r = run_sim_matmul(&cfg(v, 4, 512));
            assert!(!r.deadlocked, "{v:?} must complete");
            assert!(r.mflops > 0.0);
        }
    }

    #[test]
    fn max_parallel_tasks_formula() {
        let c = SimMatmulConfig::new(32768, 16384, 2, Stack::Baseline);
        assert_eq!(c.max_parallel_tasks(), 4);
        let c = SimMatmulConfig::new(32768, 512, 2, Stack::Baseline);
        assert_eq!(c.max_parallel_tasks(), 4096);
    }
}
