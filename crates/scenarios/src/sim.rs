//! [`SimExecutor`] — lowering a scenario spec into the discrete-event simulator.
//!
//! The same [`ScenarioSpec`] that runs for real on the OS and USF
//! stacks is lowered into a `usf-simsched` program at *paper-scale* core counts: thread
//! demands are scaled by `machine.cores / spec.cores`, every unit becomes a compute phase
//! (with the plan's MD imbalance weights) joined by a busy-wait-with-yield barrier (the
//! patched OpenBLAS/MPICH join of §5.2), and open-loop kinds sleep the plan's seeded
//! arrival gaps. Every unit ends in a `UnitMark` instrumentation op, so reports carry
//! *measured* per-unit completion latencies rather than a fabricated uniform share. The
//! scheduling model is pluggable — the identical spec compares the preemptive fair
//! baseline, SCHED_COOP, and the bl-eq/bl-opt static-partitioning baselines (the fair
//! scheduler inside core maps that [`SimExecutor::for_model`] derives from the plan)
//! without touching the spec; [`SimExecutor::sweep_models`] runs the whole
//! [`ModelSel`] matrix in one call.

use crate::executor::Executor;
use crate::plan::{ProcPlan, ScenarioPlan};
use crate::report::{ProcessOutcome, ScenarioReport, SchedDelta};
use crate::spec::{ModelSel, ScenarioSpec, WorkloadKind};
use std::time::Duration;
use usf_simsched::{
    BarrierWaitKind, Engine, Machine, ProcessId, Program, SchedModel, SimReport, SimTime, ThreadId,
};

/// Structural shape of one lowered process — what the lowering-equivalence property test
/// compares against the real executors.
#[derive(Debug, Clone)]
pub struct SimProcShape {
    /// Process name (from the spec).
    pub name: String,
    /// Simulator process id.
    pub process: ProcessId,
    /// Thread ids instantiated for the process.
    pub thread_ids: Vec<ThreadId>,
    /// Scaled region width (threads actually spawned).
    pub threads: usize,
    /// Units each thread executes.
    pub units: usize,
    /// Arrival time (unscaled, as planned).
    pub arrival: Duration,
}

/// A lowered scenario: the engine plus the per-process shapes.
pub struct LoweredScenario {
    /// The ready-to-run engine.
    pub engine: Engine,
    /// Per-process structure, in spec order.
    pub shapes: Vec<SimProcShape>,
    /// The demand scale factor applied (`machine.cores / spec.cores`, at least 1).
    pub scale: usize,
}

/// The simulator stack: runs any spec on a simulated machine under a pluggable
/// scheduling model.
#[derive(Debug, Clone)]
pub struct SimExecutor {
    /// The simulated machine (defaults drive paper-scale core counts).
    pub machine: Machine,
    /// The scheduling model (fair = OS baseline, coop = SCHED_COOP, partitioned = bl-*).
    pub model: SchedModel,
    /// Which selector of the spec's model matrix this executor realizes, when it was built
    /// through one (distinguishes bl-eq from bl-opt, which share `SchedModel::Partitioned`).
    pub sel: Option<ModelSel>,
    /// Scale factor applied to all durations (smaller = faster tests, same shape).
    pub time_scale: f64,
    /// Yield period of the busy-wait unit-join barriers.
    pub spin_slice: Duration,
}

impl SimExecutor {
    /// An executor over the given machine and model.
    pub fn new(machine: Machine, model: SchedModel) -> Self {
        let sel = match &model {
            SchedModel::Fair => Some(ModelSel::Fair),
            SchedModel::Coop { .. } => Some(ModelSel::Coop),
            SchedModel::Partitioned { .. } => None,
        };
        SimExecutor {
            machine,
            model,
            sel,
            time_scale: 1.0,
            spin_slice: Duration::from_micros(200),
        }
    }

    /// Resolve one [`ModelSel`] of a spec's model matrix into a concrete executor over the
    /// given machine. The static-partitioning baselines take their `(process, cores)` map
    /// from the spec's plan: bl-eq splits the cores equally among the processes, bl-opt
    /// proportionally to each process's total nominal work.
    pub fn for_model(machine: Machine, sel: ModelSel, spec: &ScenarioSpec) -> Self {
        let model = match sel {
            ModelSel::Fair => SchedModel::Fair,
            ModelSel::Coop => SchedModel::coop_default(),
            ModelSel::BlEq | ModelSel::BlOpt => SchedModel::Partitioned {
                assignments: partition_assignments(&machine, &spec.plan(), sel == ModelSel::BlOpt),
            },
        };
        SimExecutor {
            sel: Some(sel),
            ..SimExecutor::new(machine, model)
        }
    }

    /// Run the spec once per entry of its model matrix ([`ScenarioSpec::models`]),
    /// returning the reports in matrix order — "one spec sweeps Fair/Coop/bl-eq/bl-opt".
    pub fn sweep_models(machine: &Machine, spec: &ScenarioSpec) -> Vec<ScenarioReport> {
        spec.models
            .iter()
            .map(|&sel| SimExecutor::for_model(machine.clone(), sel, spec).run_spec(spec))
            .collect()
    }

    /// Override the time scale (builder style).
    pub fn time_scale(mut self, scale: f64) -> Self {
        self.time_scale = scale.max(1e-9);
        self
    }

    /// Lower a spec into an engine without running it — exposed so tests can inspect the
    /// spawned structure.
    pub fn lower(&self, spec: &ScenarioSpec) -> LoweredScenario {
        let plan = spec.plan();
        self.lower_plan(&plan)
    }

    fn lower_plan(&self, plan: &ScenarioPlan) -> LoweredScenario {
        let scale = (self.machine.cores() / plan.cores.max(1)).max(1);
        let mut engine = Engine::new(self.machine.clone(), &self.model);
        engine.set_max_sim_time(SimTime::from_secs(24 * 3600));
        // Lower the plan's placements into core masks over the machine's topology (the
        // shared `usf_nosv::Topology`) and install them as per-process restrictions. The
        // fair model enforces them (OS affinity is a hard limit), the Coop model turns
        // them into scheduler process domains; under the partitioned models the bl-eq /
        // bl-opt assignments are the masks and replace them.
        let masks = plan.placement_masks(&self.machine.topology);
        let mut shapes = Vec::with_capacity(plan.procs.len());
        for p in &plan.procs {
            let pid = engine.add_process(p.name.clone(), 1.0);
            if let Some(mask) = &masks[p.index] {
                engine.restrict_process(pid, mask.clone());
            }
            let threads = p.threads * scale;
            let weights = p.weights_for(threads);
            let gaps = p.pacing_gaps();
            let arrival = self.sim_time(p.arrival);
            // Uniform-weight kinds share one program across the region; only imbalanced
            // kinds (MD) need a distinct per-thread program.
            let uniform = weights.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-12);
            let thread_ids = if uniform {
                let prog = self.thread_program(p, pid, 0, threads, &weights, &gaps);
                engine.add_threads_at(pid, prog, threads, arrival)
            } else {
                (0..threads)
                    .map(|t| {
                        let prog = self.thread_program(p, pid, t, threads, &weights, &gaps);
                        engine.add_thread_at(pid, prog, arrival)
                    })
                    .collect()
            };
            shapes.push(SimProcShape {
                name: p.name.clone(),
                process: pid,
                thread_ids,
                threads,
                units: p.units,
                arrival: p.arrival,
            });
        }
        LoweredScenario {
            engine,
            shapes,
            scale,
        }
    }

    /// Build thread `t`'s program for process `p`: per unit, the plan's pacing gap (an
    /// off-core sleep), the thread's weighted share of the unit work, the unit-join
    /// barrier (busy wait with yield — the patched BLAS/MPI join), and the plan's
    /// post-unit off-core sleep (the spin-sleep duty cycle).
    fn thread_program(
        &self,
        p: &ProcPlan,
        pid: ProcessId,
        t: usize,
        threads: usize,
        weights: &[f64],
        gaps: &[Duration],
    ) -> usf_simsched::ProgramRef {
        let barrier_base = (pid as u64 + 1) * 1_000_000;
        let share = weights.get(t).copied().unwrap_or(1.0 / threads as f64);
        let work = self.sim_time(p.unit_work.mul_f64(share));
        let slice = self.sim_time(self.spin_slice);
        // The HPC-pair kinds carry a memory-bandwidth appetite in the simulator (the
        // DeePMD contention of §5.6); service/synthetic kinds are compute-only.
        let bw = match p.kind {
            WorkloadKind::Md => 2.2 * self.machine.cores() as f64 / 112.0,
            _ => 0.0,
        };
        Program::new(format!("{}-t{t}", p.name))
            .extend_with(p.units, |prog, unit| {
                let mut prog = prog;
                if let Some(gap) = gaps.get(unit) {
                    prog = prog.sleep(self.sim_time(*gap));
                }
                prog = prog.compute_bw(work, bw);
                if threads > 1 {
                    prog = prog.barrier(
                        barrier_base + unit as u64,
                        threads,
                        BarrierWaitKind::SpinYield { slice },
                    );
                }
                if let Some(post) = p.post_unit_sleep() {
                    prog = prog.sleep(self.sim_time(post));
                }
                // Close the unit with a completion mark so the report carries *measured*
                // per-unit latencies (the unit is complete once its last thread gets here).
                prog.unit_mark(unit)
            })
            .build()
    }

    fn sim_time(&self, d: Duration) -> SimTime {
        SimTime::from_secs_f64(d.as_secs_f64() * self.time_scale)
    }

    /// Measured per-unit latencies of one process, in seconds: consecutive differences of
    /// the unit-completion timestamps the engine recorded via `UnitMark` ops (unit 0 is
    /// measured from the process's arrival). Falls back to the uniform per-unit share only
    /// if the run produced no marks — which scenario lowering always emits, so the
    /// fallback exists for robustness, not as a reporting path.
    fn unit_latencies(&self, s: &SimProcShape, report: &SimReport, makespan_s: f64) -> Vec<f64> {
        let completions = report.unit_completions_for(&s.thread_ids);
        if completions.len() != s.units {
            return vec![makespan_s / s.units.max(1) as f64; s.units];
        }
        let mut prev = self.sim_time(s.arrival);
        completions
            .into_iter()
            .map(|(_, at)| {
                let lat = at.saturating_sub(prev).as_secs_f64() / self.time_scale;
                prev = prev.max(at);
                lat
            })
            .collect()
    }

    /// Turn the simulator report into a scenario report.
    fn report_from(
        &self,
        plan: &ScenarioPlan,
        shapes: &[SimProcShape],
        report: &SimReport,
    ) -> ScenarioReport {
        assert!(
            !report.deadlocked,
            "scenario '{}' deadlocked under {}",
            plan.name,
            self.model.label()
        );
        let processes = shapes
            .iter()
            .map(|s| {
                let completion = report
                    .process_completion
                    .get(&s.process)
                    .copied()
                    .unwrap_or(report.makespan);
                let arrival = self.sim_time(s.arrival);
                let makespan_s = completion.saturating_sub(arrival).as_secs_f64() / self.time_scale;
                let makespan = Duration::from_secs_f64(makespan_s);
                let unit_latencies_s = self.unit_latencies(s, report, makespan_s);
                let (migrations, cross_socket) = report.migrations_for(&s.thread_ids);
                ProcessOutcome {
                    name: s.name.clone(),
                    arrival: s.arrival,
                    threads: s.threads,
                    makespan,
                    unit_latencies_s,
                    slowdown_vs_solo: None,
                    migrations: Some(migrations),
                    cross_socket_migrations: Some(cross_socket),
                    // The simulator runs the clean lowering; fault schedules are a
                    // real-stack concern.
                    injected_faults: 0,
                    panicked_units: Vec::new(),
                    survived: true,
                }
            })
            .collect();
        let m = &report.metrics;
        ScenarioReport {
            scenario: plan.name.clone(),
            executor: self.label(),
            model: self.sel,
            total_makespan: Duration::from_secs_f64(
                report.makespan.as_secs_f64() / self.time_scale,
            ),
            processes,
            sched: Some(SchedDelta {
                scheduler: self.model.label().to_string(),
                counters: vec![
                    ("context_switches".into(), m.context_switches as f64),
                    ("preemptions".into(), m.preemptions as f64),
                    ("migrations".into(), m.migrations as f64),
                    (
                        "cross_socket_migrations".into(),
                        m.cross_socket_migrations as f64,
                    ),
                    ("yields".into(), m.yields as f64),
                    ("busy_time_s".into(), m.busy_time.as_secs_f64()),
                    ("spin_time_s".into(), m.spin_time.as_secs_f64()),
                    ("idle_time_s".into(), m.idle_time.as_secs_f64()),
                    ("useful_fraction".into(), m.useful_fraction()),
                    (
                        "lock_holder_preemptions".into(),
                        m.lock_holder_preemptions as f64,
                    ),
                ],
            }),
            stages: None,
            samples: Vec::new(),
        }
    }
}

/// Derive the `(process, cores)` map of a static-partitioning baseline from a plan:
/// contiguous core ranges in process order, apportioned equally (`weighted = false`,
/// bl-eq) or proportionally to each process's total nominal work — `units × unit_work`,
/// already summed over the process's threads — (`weighted = true`, bl-opt), by largest
/// remainder with every process guaranteed at least one core. Processes beyond the core
/// count are left unassigned and compete by vruntime on every core — this degenerate
/// more-processes-than-cores spec is the only producer of an unassigned process.
fn partition_assignments(
    machine: &Machine,
    plan: &ScenarioPlan,
    weighted: bool,
) -> Vec<(ProcessId, Vec<usize>)> {
    let n = plan.procs.len().min(machine.cores());
    if n == 0 {
        return Vec::new();
    }
    let weights: Vec<f64> = plan.procs[..n]
        .iter()
        .map(|p| {
            if weighted {
                (p.units as f64 * p.unit_work.as_secs_f64()).max(1e-12)
            } else {
                1.0
            }
        })
        .collect();
    // Ideal share with a 1-core floor, then largest-remainder apportionment of the rest
    // (the same rule the placement lowering uses).
    let counts = crate::plan::apportion_counts(&weights, machine.cores());
    let mut next_core = 0;
    counts
        .iter()
        .enumerate()
        .map(|(pid, &count)| {
            let cores: Vec<usize> = (next_core..next_core + count).collect();
            next_core += count;
            (pid, cores)
        })
        .collect()
}

impl Executor for SimExecutor {
    fn label(&self) -> String {
        match self.sel {
            Some(sel) => format!("sim-{}", sel.label()),
            None => format!("sim-{}", self.model.label()),
        }
    }

    fn run_spec(&self, spec: &ScenarioSpec) -> ScenarioReport {
        let plan = spec.plan();
        let lowered = self.lower_plan(&plan);
        let report = lowered.engine.run();
        self.report_from(&plan, &lowered.shapes, &report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Arrival, ProblemSize, ProcSpec};

    fn small_sim(model: SchedModel) -> SimExecutor {
        SimExecutor::new(Machine::small_numa(8, 2), model)
    }

    fn ramp(procs: usize, threads: usize) -> ScenarioSpec {
        let mut spec = ScenarioSpec::new("sim-ramp", 8);
        for i in 0..procs {
            spec = spec.process(
                ProcSpec::new(format!("p{i}"), WorkloadKind::Md)
                    .size(ProblemSize::Tiny)
                    .threads(threads)
                    .units(3)
                    .arrival(Arrival::Ramp {
                        stagger: Duration::from_micros(100),
                    }),
            );
        }
        spec
    }

    #[test]
    fn lowering_matches_the_plan_structure() {
        let spec = ramp(3, 4);
        let lowered = small_sim(SchedModel::Fair).lower(&spec);
        assert_eq!(lowered.scale, 1);
        assert_eq!(lowered.shapes.len(), 3);
        for (i, s) in lowered.shapes.iter().enumerate() {
            assert_eq!(s.threads, 4);
            assert_eq!(s.units, 3);
            assert_eq!(s.thread_ids.len(), 4);
            assert_eq!(s.arrival, Duration::from_micros(100) * i as u32);
        }
        assert_eq!(lowered.engine.thread_count(), 12);
    }

    #[test]
    fn demand_scales_to_machine_cores() {
        let spec = ScenarioSpec::new("scaled", 4).process(
            ProcSpec::new("p", WorkloadKind::SpinSleep)
                .threads(4)
                .units(1),
        );
        let exec = SimExecutor::new(Machine::small(16), SchedModel::Fair);
        let lowered = exec.lower(&spec);
        assert_eq!(lowered.scale, 4);
        assert_eq!(lowered.shapes[0].threads, 16);
    }

    #[test]
    fn same_spec_runs_under_fair_and_coop() {
        let spec = ramp(2, 8); // 2x oversubscription on 8 cores
        for model in [SchedModel::Fair, SchedModel::coop_default()] {
            let r = small_sim(model).run_spec(&spec);
            assert_eq!(r.processes.len(), 2);
            for p in &r.processes {
                assert!(p.makespan > Duration::ZERO);
                assert_eq!(p.unit_latencies_s.len(), 3);
            }
            let sched = r.sched.as_ref().unwrap();
            assert!(sched.get("busy_time_s").unwrap() > 0.0);
        }
    }

    #[test]
    fn coop_does_not_preempt() {
        // Units must outlast the 4 ms preemption quantum for the fair policy to preempt.
        let mut spec = ScenarioSpec::new("preempt", 8);
        for i in 0..2 {
            spec = spec.process(
                ProcSpec::new(format!("p{i}"), WorkloadKind::Md)
                    .size(ProblemSize::Custom {
                        unit_work_us: 200_000,
                    })
                    .threads(8)
                    .units(2),
            );
        }
        let r = small_sim(SchedModel::coop_default()).run_spec(&spec);
        assert_eq!(r.sched.unwrap().get("preemptions"), Some(0.0));
        let r = small_sim(SchedModel::Fair).run_spec(&spec);
        assert!(r.sched.unwrap().get("preemptions").unwrap() > 0.0);
    }

    #[test]
    fn spin_sleep_lowering_includes_the_off_core_duty_cycle() {
        // The real spin-sleep workload sleeps unit_work/4 off-core after each unit; the
        // lowering must model the same duty cycle or the stacks diverge.
        let units = 4;
        let spec = ScenarioSpec::new("duty", 8).process(
            ProcSpec::new("ss", WorkloadKind::SpinSleep)
                .size(ProblemSize::Tiny)
                .threads(4)
                .units(units),
        );
        let r = small_sim(SchedModel::Fair).run_spec(&spec);
        let post = ProblemSize::Tiny.unit_work() / 4;
        assert!(
            r.processes[0].makespan >= post * units as u32,
            "makespan {:?} must cover {units} post-unit sleeps of {post:?}",
            r.processes[0].makespan
        );
    }

    #[test]
    fn unit_latencies_are_measured_not_fabricated() {
        // Two ramped MD co-runners: process 0's early units run with less interference
        // than its late ones, so its measured per-unit latencies must NOT be uniform (the
        // old placeholder divided the makespan evenly).
        let spec = ramp(2, 8);
        let r = small_sim(SchedModel::Fair).run_spec(&spec);
        let p0 = &r.processes[0];
        assert_eq!(p0.unit_latencies_s.len(), 3);
        let total: f64 = p0.unit_latencies_s.iter().sum();
        assert!(
            (total - p0.makespan.as_secs_f64()).abs() <= 1e-6 + p0.makespan.as_secs_f64() * 1e-3,
            "unit latencies ({total}) must telescope to the makespan ({})",
            p0.makespan.as_secs_f64()
        );
        let min = p0
            .unit_latencies_s
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let max = p0.unit_latencies_s.iter().copied().fold(0.0, f64::max);
        assert!(
            max > min * 1.01,
            "ramped co-run latencies must be non-uniform: {:?}",
            p0.unit_latencies_s
        );
    }

    #[test]
    fn partitioned_constructors_cover_the_machine() {
        let spec = ramp(3, 4);
        let machine = Machine::small_numa(8, 2);
        let exec = SimExecutor::for_model(machine.clone(), ModelSel::BlEq, &spec);
        assert_eq!(exec.label(), "sim-bl-eq");
        let SchedModel::Partitioned { assignments } = &exec.model else {
            panic!("bl-eq must build a partitioned model");
        };
        assert_eq!(assignments.len(), 3);
        let mut all_cores: Vec<usize> = assignments.iter().flat_map(|(_, c)| c.clone()).collect();
        all_cores.sort_unstable();
        assert_eq!(
            all_cores,
            (0..8).collect::<Vec<_>>(),
            "cores partition the machine"
        );
        // Equal split of 8 cores over 3 processes: 3/3/2 in some order.
        let mut sizes: Vec<usize> = assignments.iter().map(|(_, c)| c.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 3, 3]);

        // bl-opt weights by units × unit_work: give one process 3× the work.
        let heavy = ScenarioSpec::new("opt", 8)
            .process(
                ProcSpec::new("heavy", WorkloadKind::SpinSleep)
                    .size(ProblemSize::Custom {
                        unit_work_us: 3_000,
                    })
                    .threads(4)
                    .units(4),
            )
            .process(
                ProcSpec::new("light", WorkloadKind::SpinSleep)
                    .size(ProblemSize::Custom {
                        unit_work_us: 1_000,
                    })
                    .threads(4)
                    .units(4),
            );
        let exec = SimExecutor::for_model(machine, ModelSel::BlOpt, &heavy);
        assert_eq!(exec.label(), "sim-bl-opt");
        let SchedModel::Partitioned { assignments } = &exec.model else {
            panic!("bl-opt must build a partitioned model");
        };
        let sizes: Vec<usize> = assignments.iter().map(|(_, c)| c.len()).collect();
        assert_eq!(
            sizes,
            vec![6, 2],
            "demand-weighted split favours the heavy process"
        );
    }

    #[test]
    fn model_matrix_sweeps_one_spec_across_all_models() {
        let spec = ramp(2, 8).models(crate::spec::ModelSel::ALL.to_vec());
        let m = Machine::small_numa(8, 2);
        let reports = SimExecutor::sweep_models(&m, &spec);
        assert_eq!(reports.len(), 4);
        let labels: Vec<&str> = reports.iter().map(|r| r.model.unwrap().label()).collect();
        assert_eq!(labels, vec!["linux-fair", "sched_coop", "bl-eq", "bl-opt"]);
        for r in &reports {
            assert_eq!(r.processes.len(), 2, "{}", r.executor);
            for p in &r.processes {
                assert_eq!(p.unit_latencies_s.len(), 3);
                assert!(p.makespan > Duration::ZERO);
            }
        }
    }

    #[test]
    fn solo_baselines_give_near_one_slowdown_when_alone() {
        let spec = ScenarioSpec::new("solo-ish", 8).process(
            ProcSpec::new("only", WorkloadKind::SpinSleep)
                .size(ProblemSize::Tiny)
                .threads(4)
                .units(2),
        );
        let r = small_sim(SchedModel::Fair).run_with_solo_baselines(&spec);
        let s = r.processes[0].slowdown_vs_solo.unwrap();
        assert!(
            (s - 1.0).abs() < 0.05,
            "solo vs itself must be ~1.0, got {s}"
        );
    }
}
