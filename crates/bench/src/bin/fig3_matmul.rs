//! Regenerates **Figure 3** (§5.3): matmul with two nested runtimes, evaluated as a heatmap
//! of task-size × inner-thread configurations for the four software stacks (Baseline,
//! Manual, SCHED_COOP, Original).
//!
//! Usage: `cargo run -p usf-bench --release --bin fig3_matmul [--full]`
//!
//! The quick sweep uses a reduced matrix and a subset of the grid so it finishes in minutes;
//! `--full` sweeps the complete grid on the simulated 56-core socket. Absolute MFLOP/s
//! depend on the assumed per-core FLOP rate; the element-wise speedups against Baseline are
//! the quantities to compare with the paper.

use usf_bench::{cli, fmt_mflops, fmt_speedup, header, machine_line, Scale};
use usf_simsched::Machine;
use usf_workloads::sim_matmul::{run_sim_matmul, SimMatmulConfig};
use usf_workloads::sim_nested::Stack;

fn main() {
    let scale = cli::parse_or_exit(
        "fig3_matmul",
        "Regenerates Figure 3 (§5.3): nested-runtime matmul heatmaps for four software stacks.",
        cli::SCALE_FLAGS,
    )
    .scale();
    let (matrix_size, task_sizes, thread_counts, machine) = match scale {
        Scale::Quick => (
            4096usize,
            vec![4096usize, 2048, 1024, 512, 256],
            vec![1usize, 2, 4, 8, 14, 28],
            Machine::marenostrum5_socket(),
        ),
        Scale::Full => (
            8192usize,
            vec![8192usize, 4096, 2048, 1024, 512, 256, 128],
            vec![1usize, 2, 4, 8, 14, 28, 56],
            Machine::marenostrum5_socket(),
        ),
    };

    header("Figure 3 — nested-runtime matmul heatmaps (simulated)");
    machine_line(&machine);
    println!("matrix size {matrix_size}, rows are (max parallel tasks - task size), columns are inner BLAS threads");
    println!("(the paper fixes the matrix to 32768²; the reproduction scales it down and keeps the parallelism grid)");

    let rows: Vec<String> = task_sizes
        .iter()
        .map(|ts| {
            let nb = matrix_size / ts;
            format!("{}-{}", nb * nb, ts)
        })
        .collect();
    let cols: Vec<String> = thread_counts.iter().map(|t| t.to_string()).collect();

    // Baseline performance (Figure 3a) plus element-wise speedups for the other variants.
    let mut results: Vec<Vec<Vec<f64>>> = Vec::new(); // [variant][row][col] -> mflops
    for stack in Stack::ALL {
        let mut grid = Vec::new();
        for ts in &task_sizes {
            let mut row = Vec::new();
            for threads in &thread_counts {
                let mut cfg = SimMatmulConfig::new(matrix_size, *ts, *threads, stack);
                cfg.machine = machine.clone();
                if scale == Scale::Quick {
                    cfg.max_outer_workers = 256;
                }
                let r = run_sim_matmul(&cfg);
                row.push(r.mflops);
            }
            grid.push(row);
        }
        results.push(grid);
    }

    let variants = [
        "a) Baseline performance (MFLOP/s)",
        "b) Manual speedup",
        "c) SCHED_COOP speedup",
        "d) Original speedup",
    ];
    for (vi, title) in variants.iter().enumerate() {
        header(title);
        usf_bench::print_table("tasks \\ threads", &rows, &cols, 10, |ri, ci| {
            if vi == 0 {
                fmt_mflops(results[0][ri][ci])
            } else {
                fmt_speedup(results[vi][ri][ci] / results[0][ri][ci].max(1e-9))
            }
        });
    }

    // Headline comparison of §5.3: the best SCHED_COOP configuration vs. the best Baseline.
    let best = |vi: usize| -> f64 {
        results[vi]
            .iter()
            .flat_map(|r| r.iter().copied())
            .fold(0.0, f64::max)
    };
    header(
        "Best-configuration comparison (paper: SCHED_COOP ≈ +9.8%, Manual ≈ +11.8% over Baseline)",
    );
    println!("best Baseline   : {:>12} MFLOP/s", fmt_mflops(best(0)));
    println!(
        "best Manual     : {:>12} MFLOP/s ({} vs best Baseline)",
        fmt_mflops(best(1)),
        fmt_speedup(best(1) / best(0))
    );
    println!(
        "best SCHED_COOP : {:>12} MFLOP/s ({} vs best Baseline)",
        fmt_mflops(best(2)),
        fmt_speedup(best(2) / best(0))
    );
    println!(
        "best Original   : {:>12} MFLOP/s ({} vs best Baseline)",
        fmt_mflops(best(3)),
        fmt_speedup(best(3) / best(0))
    );
}
