//! The [`Executor`] trait and the two real-execution stacks.
//!
//! [`OsExecutor`] runs every process of a spec on plain OS threads (the paper's baseline:
//! the kernel time-slices the oversubscribed node), [`UsfExecutor`] runs the *same spec*
//! on cooperative USF threads of one shared scheduler instance — each [`ProcSpec`](crate::ProcSpec) becomes
//! a process domain of the shared `NosvInstance`, exactly the multi-process attachment
//! model of §2.3/§4.3.3. The third stack, [`crate::SimExecutor`], lowers the spec into the
//! discrete-event simulator at paper-scale core counts.

use crate::plan::{ProcPlan, MD_IMBALANCE};
use crate::report::{ProcessOutcome, ScenarioReport, SchedDelta};
use crate::spec::{FaultPlanSpec, FaultSite, ScenarioSpec, WorkloadKind};
use std::time::{Duration, Instant};
use usf_core::exec::ExecMode;
use usf_core::runtime::Usf;
use usf_nosv::{FaultState, StatsSnapshot, Topology};
use usf_workloads::workload::{
    CholeskyWorkload, MatmulWorkload, RuntimeFlavor, SyntheticWorkload, Workload,
};
use usf_workloads::{CholeskyConfig, MatmulConfig};

/// An execution stack that can run any [`ScenarioSpec`].
pub trait Executor {
    /// Label used in reports (`baseline-os`, `sched_coop`, `sim-linux-fair`, …).
    fn label(&self) -> String;

    /// Run the scenario and report per-process outcomes.
    fn run_spec(&self, spec: &ScenarioSpec) -> ScenarioReport;

    /// Run the scenario *and* each process's solo baseline, filling in
    /// `slowdown_vs_solo` — the one-call version of every slowdown figure.
    fn run_with_solo_baselines(&self, spec: &ScenarioSpec) -> ScenarioReport {
        let mut report = self.run_spec(spec);
        let solos: Vec<Option<Duration>> = (0..spec.procs.len())
            .map(|i| {
                let solo = self.run_spec(&spec.solo_of(i));
                solo.processes.first().map(|p| p.makespan)
            })
            .collect();
        report.apply_solo_baseline(&solos);
        report
    }
}

/// Map one planned process to a real workload over the given thread backend.
///
/// The open-loop kinds (microservices, poisson-burst) are built *without* internal pacing:
/// the driver injects the plan's seeded arrival gaps so that all three executors pace
/// units identically (the lowering-equivalence invariant).
fn build_workload(p: &ProcPlan, exec: ExecMode) -> Box<dyn Workload> {
    let threads = p.threads;
    match p.kind {
        WorkloadKind::Matmul => {
            let (n, ts) = p.spec.size.matrix_dims();
            Box::new(MatmulWorkload::new(MatmulConfig {
                matrix_size: n,
                task_size: ts,
                inner_threads: inner_threads(threads),
                outer_workers: outer_workers(threads),
                inner_threading: blas_threading(p.flavor),
                barrier: usf_blas::BarrierKind::BusyYield { yield_every: 64 },
                exec,
                iterations: 1,
            }))
        }
        WorkloadKind::Cholesky => {
            let (n, ts) = p.spec.size.matrix_dims();
            Box::new(CholeskyWorkload::new(CholeskyConfig {
                matrix_size: n,
                tile_size: ts,
                outer_workers: outer_workers(threads),
                inner_threads: inner_threads(threads),
                inner_threading: blas_threading(p.flavor),
                barrier: usf_blas::BarrierKind::BusyYield { yield_every: 64 },
                exec,
            }))
        }
        WorkloadKind::Md => Box::new(SyntheticWorkload::md_steps(
            threads,
            p.flavor,
            exec,
            p.unit_work,
            MD_IMBALANCE,
        )),
        WorkloadKind::SpinSleep => Box::new(SyntheticWorkload::spin_sleep(
            threads,
            p.flavor,
            exec,
            p.unit_work,
            p.post_unit_sleep().unwrap_or(Duration::ZERO),
        )),
        WorkloadKind::Microservices | WorkloadKind::PoissonBurst => {
            // Uniform parallel request/burst region; the arrival gaps come from the plan.
            Box::new(SyntheticWorkload::spin_sleep(
                threads,
                p.flavor,
                exec,
                p.unit_work,
                Duration::ZERO,
            ))
        }
    }
}

fn outer_workers(threads: usize) -> usize {
    threads.div_ceil(2).max(1)
}

fn inner_threads(threads: usize) -> usize {
    if threads > 1 {
        2
    } else {
        1
    }
}

fn blas_threading(flavor: RuntimeFlavor) -> usf_blas::BlasThreading {
    match flavor {
        RuntimeFlavor::ThreadPool => usf_blas::BlasThreading::PthreadPerCall,
        _ => usf_blas::BlasThreading::OpenMpLike,
    }
}

/// What one driver thread returns.
struct ProcRun {
    makespan: Duration,
    unit_latencies_s: Vec<f64>,
    injected_faults: u64,
    panicked_units: Vec<usize>,
    survived: bool,
}

/// Per-process fault context of one driver thread: the seeded decision state plus the
/// stack-specific kill hook (`None` on stacks without a shared scheduler — the victim
/// then simply stops running units, which is all "process death" can mean there).
struct DriverFaults {
    state: FaultState,
    kill_after_units: Option<usize>,
    kill: Option<Box<dyn FnOnce() + Send>>,
}

impl DriverFaults {
    /// The context of process `index` under `schedule`, or `None` when nothing
    /// driver-level is armed for it.
    fn for_proc(
        schedule: Option<&FaultPlanSpec>,
        index: usize,
        kill: Option<Box<dyn FnOnce() + Send>>,
    ) -> Option<DriverFaults> {
        let fs = schedule?;
        let plan = fs.driver_plan(index);
        if plan.is_empty() {
            return None;
        }
        DriverFaults {
            state: FaultState::new(&plan),
            kill_after_units: (fs.kill_proc == Some(index)).then_some(fs.kill_after_units),
            kill,
        }
        .into()
    }
}

/// Drive one planned process: wait for its arrival, set the workload up, run the units
/// (injecting the plan's pacing gaps), tear down. `attach` is called after the arrival
/// sleep and its result dropped after teardown — the USF stack passes the cooperative
/// attach guard through it, the OS stack a no-op. `mask` is the process's lowered
/// placement mask, recorded as an affinity *hint* (§4.3.2: stored and echoed back, never
/// applied by the hint itself — enforcement, where any, is the scheduler domain installed
/// by the executor). `faults` is the process's driver-level fault context, if any: unit
/// bodies may be made to panic (caught; the unit is lost, the process continues) and the
/// process may be killed mid-run after a set number of units.
fn drive_process<G>(
    p: &ProcPlan,
    epoch: Instant,
    exec: ExecMode,
    mask: Option<&[usize]>,
    mut faults: Option<DriverFaults>,
    attach: impl FnOnce() -> G,
) -> ProcRun {
    let since = epoch.elapsed();
    if p.arrival > since {
        std::thread::sleep(p.arrival - since);
    }
    let _guard = attach();
    if let Some(mask) = mask {
        usf_core::affinity::set_affinity_hint(mask.iter().copied().collect());
    }
    let gaps = p.pacing_gaps();
    let mut workload = build_workload(p, exec);
    workload.setup();
    let start = Instant::now();
    let mut unit_latencies_s = Vec::with_capacity(p.units);
    let mut panicked_units = Vec::new();
    let mut survived = true;
    for unit in 0..p.units {
        let u0 = Instant::now();
        if let Some(gap) = gaps.get(unit) {
            usf_core::timing::sleep(*gap);
        }
        let inject_panic = faults
            .as_ref()
            .is_some_and(|f| f.state.consult(FaultSite::TaskBodyPanic, None));
        // Degradation contract: a panicking unit body (injected or genuine) loses that
        // unit and nothing else — the driver records it and moves on to the next unit.
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if inject_panic {
                panic!("injected unit-body panic (process {}, unit {unit})", p.name);
            }
            workload.run_unit(unit);
        }));
        if ran.is_err() {
            panicked_units.push(unit);
        }
        unit_latencies_s.push(u0.elapsed().as_secs_f64());
        // Process death fires between units, while the driver's own task is still live on
        // the scheduler — the kill reclaims it mid-run along with anything queued.
        if let Some(f) = faults.as_mut() {
            if f.kill_after_units.is_some_and(|k| unit + 1 >= k) {
                f.state.consult(FaultSite::ProcessDeath, None);
                if let Some(kill) = f.kill.take() {
                    kill();
                }
                survived = false;
                break; // The remaining units die with the process.
            }
        }
    }
    let makespan = start.elapsed();
    workload.teardown();
    ProcRun {
        makespan,
        unit_latencies_s,
        injected_faults: faults.as_ref().map_or(0, |f| f.state.total_fires()),
        panicked_units,
        survived,
    }
}

fn collect_outcomes(
    plan: &crate::plan::ScenarioPlan,
    runs: Vec<ProcRun>,
    total: Duration,
    scenario: &str,
    executor: String,
    sched: Option<SchedDelta>,
) -> ScenarioReport {
    let processes = plan
        .procs
        .iter()
        .zip(runs)
        .map(|(p, r)| ProcessOutcome {
            name: p.name.clone(),
            arrival: p.arrival,
            threads: p.threads,
            makespan: r.makespan,
            unit_latencies_s: r.unit_latencies_s,
            slowdown_vs_solo: None,
            // The real stacks cannot observe virtual-core placement per thread; only the
            // simulator measures migrations.
            migrations: None,
            cross_socket_migrations: None,
            injected_faults: r.injected_faults,
            panicked_units: r.panicked_units,
            survived: r.survived,
        })
        .collect();
    ScenarioReport {
        scenario: scenario.to_string(),
        executor,
        total_makespan: total,
        processes,
        sched,
        stages: None,
        samples: Vec::new(),
        model: None,
    }
}

/// The OS baseline stack: plain `std::thread`s under the kernel's preemptive scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct OsExecutor;

impl Executor for OsExecutor {
    fn label(&self) -> String {
        "baseline-os".to_string()
    }

    fn run_spec(&self, spec: &ScenarioSpec) -> ScenarioReport {
        let plan = spec.plan();
        // The OS baseline cannot pin threads in this reproduction (no libc): placement
        // lowers to recorded-but-unapplied affinity hints over a single-node view of the
        // core budget — exactly the "hints only" contract of §4.3.2.
        let masks = plan.placement_masks(&Topology::single_node(plan.cores.max(1)));
        let epoch = Instant::now();
        let handles: Vec<_> = plan
            .procs
            .iter()
            .map(|p| {
                let p = p.clone();
                let mask = masks[p.index].clone();
                // No shared scheduler to reclaim: "death" on the OS stack is the victim
                // simply ceasing to run units (kill hook None).
                let faults = DriverFaults::for_proc(spec.faults.as_ref(), p.index, None);
                std::thread::spawn(move || {
                    drive_process(&p, epoch, ExecMode::Os, mask.as_deref(), faults, || ())
                })
            })
            .collect();
        let runs: Vec<ProcRun> = handles
            .into_iter()
            .map(|h| h.join().expect("scenario driver panicked"))
            .collect();
        let total = epoch.elapsed();
        collect_outcomes(&plan, runs, total, &spec.name, self.label(), None)
    }
}

/// The USF stack: one shared scheduler instance, one process domain per [`ProcSpec`](crate::ProcSpec), all
/// threads cooperative (SCHED_COOP).
#[derive(Debug, Clone, Copy, Default)]
pub struct UsfExecutor {
    /// Virtual cores of the shared instance; defaults to the spec's core budget.
    pub cores: Option<usize>,
    /// NUMA nodes the virtual cores are split into; defaults to the host model of
    /// [`Topology::detect`] (which honours `USF_NUMA_NODES`). Placement lowers over this
    /// layout.
    pub numa_nodes: Option<usize>,
    /// When set, a background stats sampler runs for the scenario at this period and the
    /// collected series lands in [`ScenarioReport::samples`]. Off by default.
    pub sample_period: Option<Duration>,
}

impl UsfExecutor {
    /// Executor over the spec's own core budget.
    pub fn new() -> Self {
        UsfExecutor::default()
    }

    /// Executor modelling `numa_nodes` NUMA nodes (builder style) — the two-socket layout
    /// of the §5.6 placement variants.
    pub fn numa_nodes(mut self, nodes: usize) -> Self {
        self.numa_nodes = Some(nodes.max(1));
        self
    }

    /// Run scenarios with a background stats sampler at `period` (builder style): the
    /// sampled gauge series lands in [`ScenarioReport::samples`].
    pub fn sample_period(mut self, period: Duration) -> Self {
        self.sample_period = Some(period);
        self
    }
}

impl Executor for UsfExecutor {
    fn label(&self) -> String {
        "sched_coop".to_string()
    }

    fn run_spec(&self, spec: &ScenarioSpec) -> ScenarioReport {
        let cores = self.cores.unwrap_or(spec.cores).max(1);
        let nodes = self
            .numa_nodes
            .unwrap_or_else(|| Topology::detect().num_numa_nodes())
            .clamp(1, cores);
        let usf = Usf::builder().cores(cores).numa_nodes(nodes).build();
        self.run_on(&usf, spec)
    }
}

impl UsfExecutor {
    /// Run `spec` on an already-built instance, which is shut down before returning.
    fn run_on(&self, usf: &Usf, spec: &ScenarioSpec) -> ScenarioReport {
        let plan = spec.plan();
        // Placement lowers over the instance topology into per-process scheduler domains
        // (enforced by the grant/pick paths) plus recorded affinity hints (§4.3.2).
        let masks = plan.placement_masks(usf.topology());
        // Scheduler-level fault sites only exist when the stack is compiled with
        // `fault-inject`; driver-level faults below work regardless.
        #[cfg(feature = "fault-inject")]
        let fault_state: Option<std::sync::Arc<FaultState>> = spec
            .faults
            .as_ref()
            .filter(|fs| !fs.sched_sites.is_empty())
            .map(|fs| usf.install_faults(&fs.sched_plan()));
        // A faulted run gets a watchdog thread: the degradation contract in action. It
        // flags grants held past the deadline (stalls_detected) and runs the rescue
        // drain, which bounds how long a fault-delayed submit can sit in the intake —
        // without it, an unbounded `DelayIntakeDrain` site could strand the final
        // wakeup with every cooperative thread parked.
        #[cfg(feature = "fault-inject")]
        let watchdog = fault_state.as_ref().map(|_| {
            use std::sync::atomic::{AtomicBool, Ordering};
            let stop = std::sync::Arc::new(AtomicBool::new(false));
            let sched = std::sync::Arc::clone(usf.nosv().scheduler());
            let stop2 = std::sync::Arc::clone(&stop);
            let handle = std::thread::spawn(move || {
                while !stop2.load(Ordering::Relaxed) {
                    let _ = sched.watchdog_scan(Duration::from_millis(20));
                    sched.rescue_drain();
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
            (stop, handle)
        });
        let before = usf.stats_snapshot();
        let sampler = self.sample_period.map(|period| usf.start_sampler(period));
        let epoch = Instant::now();
        let handles: Vec<_> = plan
            .procs
            .iter()
            .map(|p| {
                let p = p.clone();
                // Every ProcSpec is its own process domain of the shared scheduler: the
                // per-process quantum rotates among them like nOS-V processes on one shm
                // segment.
                let domain = usf.process(p.name.clone());
                let mask = masks[p.index].clone();
                domain.restrict_to_cores(mask.clone());
                // Mid-run death forcibly reclaims the victim's domain: queued work is
                // dropped, running tasks evicted, waiters released — and the driver
                // itself continues as a plain OS thread (the release safety valve).
                let kill_domain = domain.clone();
                let kill: Box<dyn FnOnce() + Send> = Box::new(move || {
                    let _ = kill_domain.kill();
                });
                let faults = DriverFaults::for_proc(spec.faults.as_ref(), p.index, Some(kill));
                std::thread::spawn(move || {
                    let exec = ExecMode::Usf(domain.clone());
                    // The driver is the process's "main thread": it attaches after the
                    // arrival sleep and participates cooperatively from then on.
                    drive_process(&p, epoch, exec, mask.as_deref(), faults, || {
                        domain.attach_current()
                    })
                })
            })
            .collect();
        let runs: Vec<ProcRun> = handles
            .into_iter()
            .map(|h| h.join().expect("scenario driver panicked"))
            .collect();
        let total = epoch.elapsed();
        #[cfg(feature = "fault-inject")]
        if let Some((stop, handle)) = watchdog {
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            let _ = handle.join();
        }
        let after = usf.stats_snapshot();
        let samples = sampler.map(|s| s.stop()).unwrap_or_default();
        usf.shutdown();
        let stats_delta = after.delta(&before);
        #[cfg_attr(not(feature = "fault-inject"), allow(unused_mut))]
        let mut delta = usf_sched_delta(&stats_delta);
        // Per-site ground truth for chaos oracles: how often each armed scheduler-level
        // site actually fired (e.g. `stalls_detected >= fault_fires_worker_stall`).
        #[cfg(feature = "fault-inject")]
        if let Some(state) = &fault_state {
            for site in FaultSite::ALL {
                let fires = state.fires(site);
                if fires > 0 {
                    delta
                        .counters
                        .push((format!("fault_fires_{}", site.label()), fires as f64));
                }
            }
        }
        let mut report =
            collect_outcomes(&plan, runs, total, &spec.name, self.label(), Some(delta));
        report.stages = Some(stats_delta.stages);
        report.samples = samples;
        report
    }
}

/// Scheduler-metrics delta of a USF run, from an already-computed
/// [`StatsSnapshot::delta`] interval.
fn usf_sched_delta(stats: &StatsSnapshot) -> SchedDelta {
    let d = &stats.counters;
    // Quantum rotations live in the per-node policy rings, not in a scheduler counter.
    let rotations: u64 = stats.shards.iter().map(|s| s.rotations).sum();
    SchedDelta {
        scheduler: "sched_coop".to_string(),
        counters: vec![
            ("submits".into(), d.submits as f64),
            ("grants".into(), d.grants as f64),
            ("yields".into(), d.yields as f64),
            ("yields_noop".into(), d.yields_noop as f64),
            ("pauses".into(), d.pauses as f64),
            ("attaches".into(), d.attaches as f64),
            ("affinity_hits".into(), d.affinity_hits as f64),
            ("process_rotations".into(), rotations as f64),
            ("lock_acquisitions".into(), d.lock_acquisitions as f64),
            // Robustness counters: zero on clean runs, non-zero under the fault plane.
            ("faults_injected".into(), d.faults_injected as f64),
            ("processes_killed".into(), d.processes_killed as f64),
            ("tasks_reclaimed".into(), d.tasks_reclaimed as f64),
            ("stalls_detected".into(), d.stalls_detected as f64),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Arrival, ProblemSize, ProcSpec};

    fn tiny_pair() -> ScenarioSpec {
        ScenarioSpec::new("exec-test-pair", 2)
            .process(
                ProcSpec::new("md", WorkloadKind::Md)
                    .size(ProblemSize::Tiny)
                    .threads(2)
                    .units(2),
            )
            .process(
                ProcSpec::new("spin", WorkloadKind::SpinSleep)
                    .size(ProblemSize::Tiny)
                    .threads(2)
                    .units(2)
                    .arrival(Arrival::Delayed(Duration::from_millis(1))),
            )
    }

    #[test]
    fn os_executor_runs_a_pair() {
        let r = OsExecutor.run_spec(&tiny_pair());
        assert_eq!(r.executor, "baseline-os");
        assert_eq!(r.processes.len(), 2);
        for p in &r.processes {
            assert_eq!(p.unit_latencies_s.len(), 2);
            assert!(p.makespan > Duration::ZERO);
        }
        assert!(r.sched.is_none());
        assert!(r.total_makespan >= r.processes[0].makespan);
    }

    #[test]
    fn usf_executor_runs_the_same_spec_cooperatively() {
        let r = UsfExecutor::new().run_spec(&tiny_pair());
        assert_eq!(r.executor, "sched_coop");
        assert_eq!(r.processes.len(), 2);
        let sched = r.sched.expect("USF runs report scheduler metrics");
        assert!(sched.get("attaches").unwrap() >= 2.0, "{sched:?}");
        assert!(sched.get("grants").unwrap() > 0.0);
    }

    #[test]
    fn usf_executor_reports_the_quantum_rotations_of_the_run() {
        // Two 3-thread processes on 2 cores with a 1 ms quantum: each pick past the
        // quantum with the other process ready rotates the per-node ring. The report
        // must carry exactly what the policy rings counted over the run.
        let spec = ScenarioSpec::new("exec-test-rotations", 2)
            .process(ProcSpec::new("a", WorkloadKind::Md).threads(3).units(8))
            .process(ProcSpec::new("b", WorkloadKind::Md).threads(3).units(8));
        let usf = Usf::builder()
            .cores(2)
            .numa_nodes(1)
            .quantum(Duration::from_millis(1))
            .build();
        let sched = std::sync::Arc::clone(usf.nosv().scheduler());
        let before = sched.policy_rotations();
        let r = UsfExecutor::new().run_on(&usf, &spec);
        let rotated = sched.policy_rotations() - before;
        let reported = r.sched.unwrap().get("process_rotations").unwrap();
        assert!(
            reported > 0.0,
            "an oversubscribed two-process run must rotate"
        );
        assert_eq!(reported, rotated as f64);
    }

    #[test]
    fn solo_baselines_fill_slowdowns() {
        let r = OsExecutor.run_with_solo_baselines(&tiny_pair());
        for p in &r.processes {
            let s = p.slowdown_vs_solo.expect("solo baseline ran");
            assert!(s > 0.0);
        }
        assert!(r.jain_fairness() > 0.0);
    }

    #[test]
    fn usf_executor_applies_placement_as_domains_and_completes() {
        use crate::spec::Placement;
        // Two spin-sleep processes pinned to opposite nodes of a 4-core, 2-node instance:
        // the run must complete with both domains making progress (each is confined to 2
        // cores; a broken domain would strand its driver forever). Per-thread placement
        // enforcement itself is pinned by the usf-core runtime tests.
        let spec = ScenarioSpec::new("pinned-pair", 4)
            .process(
                ProcSpec::new("a", WorkloadKind::SpinSleep)
                    .size(ProblemSize::Tiny)
                    .threads(2)
                    .units(2)
                    .placement(Placement::Node(0)),
            )
            .process(
                ProcSpec::new("b", WorkloadKind::SpinSleep)
                    .size(ProblemSize::Tiny)
                    .threads(2)
                    .units(2)
                    .placement(Placement::Node(1)),
            );
        let r = UsfExecutor {
            cores: Some(4),
            ..Default::default()
        }
        .numa_nodes(2)
        .run_spec(&spec);
        assert_eq!(r.processes.len(), 2);
        for p in &r.processes {
            assert!(p.makespan > Duration::ZERO);
            assert!(
                p.migrations.is_none(),
                "real stacks do not measure placement"
            );
        }
        assert!(r.sched.unwrap().get("grants").unwrap() > 0.0);
    }

    #[test]
    fn injected_unit_panics_degrade_gracefully() {
        use crate::spec::FaultPlanSpec;
        // Every unit body is armed to panic, capped at 2 per process: each process must
        // lose exactly its first 2 units, keep its full latency vector, and finish the
        // remaining units for real.
        let spec = ScenarioSpec::new("panic-pair", 2)
            .process(
                ProcSpec::new("a", WorkloadKind::SpinSleep)
                    .size(ProblemSize::Tiny)
                    .threads(2)
                    .units(4),
            )
            .process(
                ProcSpec::new("b", WorkloadKind::Md)
                    .size(ProblemSize::Tiny)
                    .threads(2)
                    .units(4),
            )
            .with_faults(FaultPlanSpec::new(11).panics(1, 2));
        for r in [
            OsExecutor.run_spec(&spec),
            UsfExecutor::new().run_spec(&spec),
        ] {
            for p in &r.processes {
                assert_eq!(p.panicked_units, vec![0, 1], "{}/{}", r.executor, p.name);
                assert_eq!(p.injected_faults, 2, "{}/{}", r.executor, p.name);
                assert_eq!(
                    p.unit_latencies_s.len(),
                    4,
                    "panicked units still account a latency sample ({}/{})",
                    r.executor,
                    p.name
                );
                assert!(p.survived, "a unit panic must not kill the process");
            }
        }
    }

    #[test]
    fn mid_run_process_death_spares_cotenants_on_usf() {
        use crate::spec::FaultPlanSpec;
        // Process 0 dies after its first unit; its domain is forcibly reclaimed. The
        // co-tenant must complete every unit as if the victim never existed.
        let spec = ScenarioSpec::new("death-pair", 2)
            .process(
                ProcSpec::new("victim", WorkloadKind::SpinSleep)
                    .size(ProblemSize::Tiny)
                    .flavor(crate::spec::RuntimeFlavor::ThreadPool)
                    .threads(2)
                    .units(4),
            )
            .process(
                ProcSpec::new("cotenant", WorkloadKind::SpinSleep)
                    .size(ProblemSize::Tiny)
                    .threads(2)
                    .units(3),
            )
            .with_faults(FaultPlanSpec::new(5).kill(0, 1));
        let r = UsfExecutor::new().run_spec(&spec);
        let victim = &r.processes[0];
        assert!(!victim.survived, "the victim must report its death");
        assert_eq!(
            victim.unit_latencies_s.len(),
            1,
            "units after death are lost"
        );
        assert!(victim.injected_faults >= 1, "the death is a recorded fault");
        let cotenant = &r.processes[1];
        assert!(cotenant.survived);
        assert_eq!(
            cotenant.unit_latencies_s.len(),
            3,
            "co-tenants complete every unit"
        );
        let sched = r.sched.expect("USF runs report scheduler metrics");
        assert_eq!(
            sched.get("processes_killed"),
            Some(1.0),
            "the scheduler observed exactly one kill: {sched:?}"
        );
    }

    #[test]
    fn os_stack_survives_the_same_death_schedule() {
        use crate::spec::FaultPlanSpec;
        // Same schedule on the OS baseline: no scheduler to reclaim, the victim just
        // stops. The report shape must match the USF stack's.
        let spec = tiny_pair().with_faults(FaultPlanSpec::new(5).kill(0, 1));
        let r = OsExecutor.run_spec(&spec);
        assert!(!r.processes[0].survived);
        assert_eq!(r.processes[0].unit_latencies_s.len(), 1);
        assert!(r.processes[1].survived);
        assert_eq!(r.processes[1].unit_latencies_s.len(), 2);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn unbounded_drain_delays_and_stalls_cannot_hang_a_faulted_run() {
        use crate::spec::{FaultPlanSpec, FaultSpec};
        // Every ordinary intake drain is skipped (unbounded) and one worker stalls for
        // 120ms holding its core. The executor's watchdog thread must keep the run live
        // (rescue drain) and flag the stall — the degradation contract on a real run.
        let spec = tiny_pair().with_faults(
            FaultPlanSpec::new(17)
                .sched_site(FaultSpec::new(FaultSite::DelayIntakeDrain).one_in(1))
                .sched_site(
                    FaultSpec::new(FaultSite::WorkerStall)
                        .one_in(1)
                        .max_fires(1)
                        .stall(Duration::from_millis(120)),
                ),
        );
        let r = UsfExecutor::new().run_spec(&spec);
        for p in &r.processes {
            assert!(p.survived, "{}", p.name);
            assert_eq!(p.unit_latencies_s.len(), 2, "no unit lost ({})", p.name);
        }
        let sched = r.sched.expect("USF runs report scheduler metrics");
        assert!(
            sched.get("fault_fires_delay_intake_drain").unwrap_or(0.0) >= 1.0,
            "drain delays actually fired: {sched:?}"
        );
        let stall_fires = sched.get("fault_fires_worker_stall").unwrap_or(0.0);
        assert_eq!(stall_fires, 1.0, "{sched:?}");
        assert!(
            sched.get("stalls_detected").unwrap_or(0.0) >= stall_fires,
            "every injected stall is flagged: {sched:?}"
        );
    }

    #[test]
    fn hpc_kinds_run_for_real_on_both_stacks() {
        let spec = ScenarioSpec::new("hpc-tiny", 2)
            .process(
                ProcSpec::new("mm", WorkloadKind::Matmul)
                    .size(ProblemSize::Tiny)
                    .threads(2)
                    .units(1),
            )
            .process(
                ProcSpec::new("chol", WorkloadKind::Cholesky)
                    .size(ProblemSize::Tiny)
                    .threads(2)
                    .units(1),
            );
        for report in [
            OsExecutor.run_spec(&spec),
            UsfExecutor::new().run_spec(&spec),
        ] {
            assert_eq!(report.processes.len(), 2);
            for p in &report.processes {
                assert_eq!(p.unit_latencies_s.len(), 1);
            }
        }
    }
}
