//! Nested runtimes (the §5.3 scenario at laptop scale): an outer task runtime executes tile
//! tasks of a blocked matmul, and every task calls a BLAS gemm parallelized by an inner
//! fork-join team — multiplying the thread count and oversubscribing the machine. The same
//! workload runs under the plain OS scheduler (baseline) and under USF's SCHED_COOP, and the
//! example prints both timings plus the scheduler metrics.
//!
//! Run with: `cargo run --release --example nested_runtimes`

use usf::prelude::*;
use usf_blas::{BarrierKind, BlasThreading};
use usf_workloads::matmul::{run_matmul, MatmulConfig};

fn config(exec: ExecMode) -> MatmulConfig {
    MatmulConfig {
        matrix_size: 256,
        task_size: 64,
        inner_threads: 4,
        outer_workers: 4,
        inner_threading: BlasThreading::OpenMpLike,
        barrier: BarrierKind::BusyYield { yield_every: 64 },
        exec,
        iterations: 1,
    }
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    println!("host parallelism: {cores} cores");
    println!("outer tasks: 4 workers; inner BLAS teams: 4 threads each → oversubscribed\n");

    // Baseline: every runtime spawns plain OS threads; the kernel time-slices them.
    let baseline = run_matmul(&config(ExecMode::Os));
    println!(
        "baseline (Linux scheduler) : {:>8.1} MFLOP/s in {:.3}s over {} tasks",
        baseline.mflops,
        baseline.elapsed.as_secs_f64(),
        baseline.tasks
    );

    // SCHED_COOP: the same code, but all threads are cooperative USF workers.
    let usf = Usf::builder().cores(cores).build();
    let process = usf.process("nested-matmul");
    let coop = run_matmul(&config(ExecMode::Usf(process)));
    println!(
        "SCHED_COOP (USF)           : {:>8.1} MFLOP/s in {:.3}s over {} tasks",
        coop.mflops,
        coop.elapsed.as_secs_f64(),
        coop.tasks
    );

    let m = usf.metrics();
    let cache = usf.thread_cache_stats();
    println!("\n--- SCHED_COOP run details ---");
    println!("worker threads attached : {}", m.attaches);
    println!(
        "cooperative blocks      : {} (+{} elided)",
        m.pauses, m.pauses_elided
    );
    println!(
        "yields                  : {} ({} kept the core)",
        m.yields, m.yields_noop
    );
    println!(
        "thread cache            : {} created / {} reused",
        cache.created, cache.reused
    );
    println!(
        "speedup vs baseline     : {:.2}x (the inner teams persist on both sides, so this weighs a cooperative hand-off, which wakes the successor on its core's CPU when the instance has one core per CPU, against a kernel time-slice switch; a run this short reads near 1x on a small host)",
        coop.mflops / baseline.mflops.max(1e-9)
    );
    usf.shutdown();
}
