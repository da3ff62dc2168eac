//! The simulated nested-BLAS model behind Figure 3 (§5.3) and Table 2 (§5.4).
//!
//! Both experiments measure one mechanism: a multi-threaded BLAS team opened inside every
//! outer task. [`run_nested`] reconstructs it on the discrete-event simulator: each outer
//! worker executes a stream of tasks back to back, and every task opens a fresh inner
//! team (the nested OpenMP region inside the BLAS call): spawn `inner - 1` children,
//! compute the local share, meet the BLAS end-of-kernel barrier, join. The software
//! [`Stack`] decides the scheduler and how the barrier waits:
//!
//! | Stack | Scheduler | BLAS barrier |
//! |---|---|---|
//! | `Original` | Linux fair | busy-wait, never yields |
//! | `Baseline` | Linux fair | busy-wait + `sched_yield` (the one-line fix) |
//! | `Manual` | SCHED_COOP | blocking (direct nOS-V primitives) |
//! | `SchedCoop` | SCHED_COOP | busy-wait + yield (yield becomes a scheduling point) |
//!
//! Throughput is reported as simulated MFLOP/s so the relative shape (which configurations
//! win, where oversubscription collapses) can be compared with the paper; the absolute
//! values depend on [`FLOPS_PER_CORE`], not on a real testbed.

use usf_simsched::{
    BarrierWaitKind, Engine, Machine, Program, ProgramRef, SchedModel, SimReport, SimTime,
};

/// Assumed per-core throughput in FLOP/s (only scales absolute numbers).
pub const FLOPS_PER_CORE: f64 = 40e9;

/// Busy-wait yield period of the patched barriers (the `sched_yield` granularity).
pub const YIELD_SLICE: SimTime = SimTime::from_micros(200);

/// The four software stacks of Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// Unmodified busy-wait barriers under the Linux fair scheduler (Figure 2d / 3d).
    Original,
    /// Busy-wait barriers with the yield fix under the Linux fair scheduler (Figure 2a / 3a).
    Baseline,
    /// Manual nOS-V integration: blocking primitives under SCHED_COOP (Figure 2b / 3b).
    Manual,
    /// Seamless glibcv/USF integration under SCHED_COOP (Figure 2c / 3c).
    SchedCoop,
}

impl Stack {
    /// All stacks in the order of Figure 3.
    pub const ALL: [Stack; 4] = [
        Stack::Baseline,
        Stack::Manual,
        Stack::SchedCoop,
        Stack::Original,
    ];

    /// Label used in the generated heatmaps.
    pub fn label(&self) -> &'static str {
        match self {
            Stack::Original => "original",
            Stack::Baseline => "baseline",
            Stack::Manual => "manual",
            Stack::SchedCoop => "sched_coop",
        }
    }

    fn sched_model(&self) -> SchedModel {
        match self {
            Stack::Original | Stack::Baseline => SchedModel::Fair,
            Stack::Manual | Stack::SchedCoop => SchedModel::coop_default(),
        }
    }

    fn barrier_kind(&self) -> BarrierWaitKind {
        match self {
            Stack::Original => BarrierWaitKind::Spin,
            Stack::Baseline | Stack::SchedCoop => BarrierWaitKind::SpinYield { slice: YIELD_SLICE },
            Stack::Manual => BarrierWaitKind::Block,
        }
    }
}

/// One nested-BLAS run: `outer_workers` × `tasks_per_worker` tasks, each computed by a
/// fresh team of `inner_threads` threads.
#[derive(Debug, Clone)]
pub struct NestedSpec {
    /// Simulated machine.
    pub machine: Machine,
    /// Software stack.
    pub stack: Stack,
    /// Outer workers, each executing its tasks back to back.
    pub outer_workers: usize,
    /// Threads of each task's inner team (the task's own thread included).
    pub inner_threads: usize,
    /// Tasks per outer worker (the steady-state window that is simulated).
    pub tasks_per_worker: usize,
    /// FLOPs of one task, split evenly across its team.
    pub task_flops: f64,
    /// Extra compute each spawned child pays before its share (thread creation or
    /// wake-up), or `None` for none.
    pub spawn_cost: Option<SimTime>,
}

/// Result of one simulated run.
#[derive(Debug, Clone)]
pub struct SimNestedResult {
    /// Simulated throughput in MFLOP/s (0 when deadlocked).
    pub mflops: f64,
    /// Simulated makespan of the steady-state window.
    pub makespan: SimTime,
    /// Whether the run deadlocked (possible for `Original` under SCHED_COOP-style policies
    /// or for timed-out configurations, mirroring the white squares of Figure 3).
    pub deadlocked: bool,
    /// The full simulator report (metrics, traces).
    pub report: SimReport,
}

/// Build and run the nested program of `spec`.
pub fn run_nested(spec: &NestedSpec) -> SimNestedResult {
    let inner = spec.inner_threads.max(1);
    let tasks = spec.tasks_per_worker.max(1);
    let per_thread = SimTime::from_secs_f64(spec.task_flops / inner as f64 / FLOPS_PER_CORE);
    let barrier_kind = spec.stack.barrier_kind();

    let mut engine = Engine::new(spec.machine.clone(), &spec.stack.sched_model());
    let process = engine.add_process("nested", 1.0);
    // Cap the simulation generously: badly oversubscribed Original configurations take very
    // long (they are the paper's timed-out white squares).
    engine.set_max_sim_time(SimTime::from_secs(3600));

    let mut next_barrier_id: u64 = 1;
    for w in 0..spec.outer_workers {
        let mut prog = Program::new(format!("outer-{w}"));
        for _ in 0..tasks {
            let barrier_id = next_barrier_id;
            next_barrier_id += 1;
            if inner > 1 {
                let mut child = Program::new("inner");
                if let Some(cost) = spec.spawn_cost {
                    child = child.compute(cost);
                }
                let child = child
                    .compute(per_thread)
                    .barrier(barrier_id, inner, barrier_kind)
                    .build();
                prog = prog
                    .spawn(ProgramRef::clone(&child), process, inner - 1)
                    .compute(per_thread)
                    .barrier(barrier_id, inner, barrier_kind)
                    .join_children();
            } else {
                prog = prog.compute(per_thread);
            }
        }
        engine.add_thread(process, prog.build());
    }

    let report = engine.run();
    let total_flops = spec.task_flops * (spec.outer_workers * tasks) as f64;
    let secs = report.makespan.as_secs_f64().max(1e-9);
    let mflops = if report.deadlocked {
        0.0
    } else {
        total_flops / secs / 1e6
    };
    SimNestedResult {
        mflops,
        makespan: report.makespan,
        deadlocked: report.deadlocked,
        report,
    }
}
