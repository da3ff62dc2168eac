//! Regenerates **Table 2** (§5.4): Cholesky with multiple runtime compositions for three
//! degrees of parallelism, reporting Baseline throughput and the SCHED_COOP speedup.
//!
//! Usage: `cargo run -p usf-bench --release --bin table2_cholesky [--full]`

use usf_bench::{cli, fmt_mflops, fmt_speedup, header, machine_line, Scale};
use usf_simsched::Machine;
use usf_workloads::sim_cholesky::{run_sim_cholesky, Composition, Parallelism, SimCholeskyConfig};
use usf_workloads::sim_nested::Stack;

fn main() {
    let scale = cli::parse_or_exit(
        "table2_cholesky",
        "Regenerates Table 2 (§5.4): Cholesky runtime compositions under oversubscription.",
        cli::SCALE_FLAGS,
    )
    .scale();
    let (machine, task_size, tasks_per_worker) = match scale {
        Scale::Quick => (Machine::marenostrum5_socket(), 512usize, 2usize),
        Scale::Full => (Machine::marenostrum5_socket(), 1024usize, 4usize),
    };

    header("Table 2 — Cholesky runtime compositions (simulated)");
    machine_line(&machine);
    println!(
        "task size {task_size}; cells show `Baseline MFLOP/s, SCHED_COOP speedup` (paper format)"
    );

    let rows = Composition::table2_rows();
    let row_labels: Vec<String> = rows.iter().map(|c| c.label()).collect();
    let col_labels: Vec<String> = Parallelism::ALL
        .iter()
        .map(|p| p.label().to_string())
        .collect();

    let mut cells: Vec<Vec<String>> = Vec::new();
    for comp in &rows {
        let mut row = Vec::new();
        for par in Parallelism::ALL {
            let mut base_cfg = SimCholeskyConfig::new(comp.clone(), par, Stack::Baseline);
            base_cfg.machine = machine.clone();
            base_cfg.task_size = task_size;
            base_cfg.tasks_per_worker = tasks_per_worker;
            let mut coop_cfg = base_cfg.clone();
            coop_cfg.stack = Stack::SchedCoop;
            let base = run_sim_cholesky(&base_cfg);
            let coop = run_sim_cholesky(&coop_cfg);
            row.push(format!(
                "{}, {}",
                fmt_mflops(base.mflops),
                fmt_speedup(coop.mflops / base.mflops.max(1e-9))
            ));
        }
        cells.push(row);
    }

    usf_bench::print_table("out/inn/blas", &row_labels, &col_labels, 18, |r, c| {
        cells[r][c].clone()
    });

    println!();
    println!("Expected shape (paper): speedups grow with oversubscription (Mild < Medium < High) and the");
    println!(
        "pth compositions benefit the most because the USF thread cache removes their per-call"
    );
    println!("thread creation/destruction cost (the paper reports up to 14.7x for gnu/pth/blis at High).");
}
