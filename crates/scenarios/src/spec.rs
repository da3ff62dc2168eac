//! Declarative scenario specifications.
//!
//! A [`ScenarioSpec`] describes a co-run experiment as *data*: N processes, each with a
//! workload kind, a problem size, a runtime flavour, a thread demand and an arrival phase.
//! The same spec runs unmodified on all three execution stacks (OS baseline, USF/SCHED_COOP,
//! discrete-event simulator) via the [`crate::Executor`] implementations — solo runs, HPC
//! pairs, latency-vs-batch co-location and 1×–8× oversubscription sweeps stop being
//! hand-wired binaries and become entries of the canned [`library`](crate::library).

use std::time::Duration;
pub use usf_nosv::{FaultPlan, FaultSite, FaultSpec};
pub use usf_workloads::workload::RuntimeFlavor;

/// The kind of work one process of a scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Nested tiled matmul (§5.3): outer task graph, inner BLAS regions.
    Matmul,
    /// Blocked Cholesky factorization (§5.4).
    Cholesky,
    /// Latency-sensitive inference service: Poisson-arriving requests, each a parallel
    /// region (§5.5 shape).
    Microservices,
    /// MD ensemble member: imbalanced fork-join steps synchronized per step (§5.6 shape).
    Md,
    /// Open-loop bursty batch job: sparse Poisson-paced parallel bursts.
    PoissonBurst,
    /// Synthetic spin-then-sleep co-runner (the simplest interference generator).
    SpinSleep,
}

impl WorkloadKind {
    /// All kinds.
    pub const ALL: [WorkloadKind; 6] = [
        WorkloadKind::Matmul,
        WorkloadKind::Cholesky,
        WorkloadKind::Microservices,
        WorkloadKind::Md,
        WorkloadKind::PoissonBurst,
        WorkloadKind::SpinSleep,
    ];

    /// Label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            WorkloadKind::Matmul => "matmul",
            WorkloadKind::Cholesky => "cholesky",
            WorkloadKind::Microservices => "microservices",
            WorkloadKind::Md => "md",
            WorkloadKind::PoissonBurst => "poisson-burst",
            WorkloadKind::SpinSleep => "spin-sleep",
        }
    }
}

/// Problem size of one process — scales both the real workloads and the simulator's
/// nominal per-unit cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProblemSize {
    /// Sub-millisecond units: CI smoke tests and property tests.
    Tiny,
    /// Millisecond units: laptop-scale demonstrations (default).
    Small,
    /// Tens-of-millisecond units: the `--full` sweeps.
    Medium,
    /// Explicit nominal per-unit work in microseconds (summed over the process threads).
    Custom {
        /// Nominal on-core work per unit, in microseconds.
        unit_work_us: u64,
    },
}

impl ProblemSize {
    /// Nominal on-core work of one unit, summed across the process's threads. This is the
    /// cost model shared by the synthetic real workloads and the simulator lowering.
    pub fn unit_work(&self) -> Duration {
        match self {
            ProblemSize::Tiny => Duration::from_micros(300),
            ProblemSize::Small => Duration::from_millis(3),
            ProblemSize::Medium => Duration::from_millis(20),
            ProblemSize::Custom { unit_work_us } => Duration::from_micros(*unit_work_us),
        }
    }

    /// `(matrix_size, tile_size)` of the real matmul/Cholesky workload at this size.
    pub fn matrix_dims(&self) -> (usize, usize) {
        match self {
            ProblemSize::Tiny => (64, 32),
            ProblemSize::Small => (128, 32),
            ProblemSize::Medium => (192, 32),
            // Pick the largest power-of-two-ish size whose unit cost is in the same
            // ballpark as the requested work; custom sizes are primarily for synthetics.
            ProblemSize::Custom { unit_work_us } => {
                if *unit_work_us < 1_000 {
                    (64, 32)
                } else if *unit_work_us < 10_000 {
                    (128, 32)
                } else {
                    (192, 32)
                }
            }
        }
    }
}

/// Which simulator scheduling model a scenario runs under — the full comparison matrix of
/// the paper's figures: the preemptive Linux baseline, SCHED_COOP, and the two static
/// core-partitioning baselines (equal split vs demand-weighted split).
///
/// A [`ScenarioSpec`] carries the list of models it should be swept over
/// ([`ScenarioSpec::models`]); [`crate::SimExecutor::sweep_models`] resolves each selector
/// into a concrete executor so *one spec* produces the whole Fair/Coop/bl-eq/bl-opt
/// comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelSel {
    /// Preemptive weighted-fair scheduling (the Linux baseline).
    Fair,
    /// The paper's SCHED_COOP cooperative policy (default quantum).
    Coop,
    /// Static partitioning, cores split *equally* among the spec's processes (bl-eq).
    BlEq,
    /// Static partitioning, cores split proportionally to each process's total nominal
    /// work — `units × unit_work` (bl-opt).
    BlOpt,
}

impl ModelSel {
    /// The full model matrix, in display order.
    pub const ALL: [ModelSel; 4] = [
        ModelSel::Fair,
        ModelSel::Coop,
        ModelSel::BlEq,
        ModelSel::BlOpt,
    ];

    /// Label used in reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            ModelSel::Fair => "linux-fair",
            ModelSel::Coop => "sched_coop",
            ModelSel::BlEq => "bl-eq",
            ModelSel::BlOpt => "bl-opt",
        }
    }
}

/// Where a process of a scenario is placed on the NUMA topology — the §5.6
/// socket-placement variants as data.
///
/// Placement lowers deterministically in the plan
/// ([`crate::ScenarioPlan::placement_masks`]) into per-process core masks over the
/// execution stack's [`usf_nosv::Topology`]. The stacks apply the mask according to their
/// nature: the simulator's fair model *enforces* it (Linux affinity is a hard limit), the
/// simulator's SCHED_COOP model and the real `UsfExecutor` install it as a per-process
/// scheduler domain (plus the recorded-but-unapplied affinity hint of §4.3.2), and the
/// real `OsExecutor` only records the hint — this reproduction cannot pin OS threads, by
/// design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// No restriction: the scheduler's affinity → same-node → anywhere rule decides
    /// (the default).
    Anywhere,
    /// Pin to one NUMA node (modulo the node count). Several processes may name the same
    /// node — that is the deliberate "both on socket 0" contention variant.
    Node(usize),
    /// The `Spread` processes of the spec are distributed across NUMA nodes round-robin
    /// (maximum inter-process distance); processes landing on the same node split its
    /// cores disjointly, weighted by thread demand.
    Spread,
    /// The `Packed` processes of the spec split the cores contiguously from core 0
    /// upward, weighted by thread demand — the fewest-sockets co-location variant.
    Packed,
}

impl Placement {
    /// Label used in reports and JSON.
    pub fn label(&self) -> String {
        match self {
            Placement::Anywhere => "anywhere".to_string(),
            Placement::Node(n) => format!("node{n}"),
            Placement::Spread => "spread".to_string(),
            Placement::Packed => "packed".to_string(),
        }
    }
}

/// When a process of a scenario starts relative to scenario start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// At scenario start.
    Immediate,
    /// After a fixed delay.
    Delayed(Duration),
    /// After an exponentially distributed delay with the given mean rate (deterministic
    /// per seed): open-loop job arrivals.
    Poisson {
        /// Mean arrival rate in processes per second.
        rate_per_sec: f64,
        /// Seed of the exponential draw.
        seed: u64,
    },
    /// Staggered by position: process `i` of the spec arrives at `i × stagger` — the
    /// oversubscription *ramp*.
    Ramp {
        /// Per-position stagger.
        stagger: Duration,
    },
}

/// One process of a scenario.
#[derive(Debug, Clone)]
pub struct ProcSpec {
    /// Display name (unique within the spec by convention).
    pub name: String,
    /// What the process runs.
    pub kind: WorkloadKind,
    /// How big each unit of work is.
    pub size: ProblemSize,
    /// Which runtime parallelizes the units.
    pub flavor: RuntimeFlavor,
    /// Thread/core demand of the process (width of its parallel regions).
    pub threads: usize,
    /// Units of work (products, factorizations, requests, steps) the process runs.
    pub units: usize,
    /// Arrival phase.
    pub arrival: Arrival,
    /// NUMA placement of the process (§5.6 socket-placement variants).
    pub placement: Placement,
}

impl ProcSpec {
    /// A process with the given name and kind; size Small, fork-join flavour, 2 threads,
    /// 4 units, immediate arrival. Override with the builder methods.
    pub fn new(name: impl Into<String>, kind: WorkloadKind) -> Self {
        ProcSpec {
            name: name.into(),
            kind,
            size: ProblemSize::Small,
            flavor: RuntimeFlavor::ForkJoin,
            threads: 2,
            units: 4,
            arrival: Arrival::Immediate,
            placement: Placement::Anywhere,
        }
    }

    /// Set the problem size.
    pub fn size(mut self, size: ProblemSize) -> Self {
        self.size = size;
        self
    }

    /// Set the runtime flavour.
    pub fn flavor(mut self, flavor: RuntimeFlavor) -> Self {
        self.flavor = flavor;
        self
    }

    /// Set the thread/core demand.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Set the unit count.
    pub fn units(mut self, units: usize) -> Self {
        self.units = units.max(1);
        self
    }

    /// Set the arrival phase.
    pub fn arrival(mut self, arrival: Arrival) -> Self {
        self.arrival = arrival;
        self
    }

    /// Set the NUMA placement.
    pub fn placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }
}

/// A seeded scenario-level fault schedule — plain data, like the [`usf_nosv::faults`]
/// types it builds on.
///
/// Two layers of faults lower out of one spec:
///
/// * **Driver-level** faults are injected by the scenario driver itself and therefore
///   work on *every* stack: unit-body panics
///   ([`FaultSite::TaskBodyPanic`], caught per unit — the process degrades, it does not
///   hang) and mid-run process death ([`FaultSite::ProcessDeath`] — on the USF stack the
///   victim's domain is forcibly reclaimed via
///   [`ProcessHandle::kill`](usf_core::runtime::ProcessHandle::kill); on stacks without a
///   shared scheduler the victim simply stops). Decisions are deterministic per
///   `(seed, process index, unit)`.
/// * **Scheduler-level** sites ([`FaultPlanSpec::sched_sites`]: dropped/duplicated
///   wakeups, delayed intake drains, worker stalls, …) are installed into the real USF
///   scheduler, and ignored by stacks that cannot inject (the OS baseline, the
///   simulator).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlanSpec {
    /// Seed of every deterministic fire decision.
    pub seed: u64,
    /// Panic roughly one unit in `n` per process (`0` disarms unit panics).
    pub panic_one_in: u32,
    /// Cap on injected unit panics, per process.
    pub max_panics: u32,
    /// Kill this process (by spec index) mid-run.
    pub kill_proc: Option<usize>,
    /// Units the victim completes before dying.
    pub kill_after_units: usize,
    /// Scheduler-level sites to arm (USF stack only).
    pub sched_sites: Vec<FaultSpec>,
}

impl FaultPlanSpec {
    /// An empty schedule (nothing armed) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlanSpec {
            seed,
            panic_one_in: 0,
            max_panics: u32::MAX,
            kill_proc: None,
            kill_after_units: 0,
            sched_sites: Vec::new(),
        }
    }

    /// Arm unit-body panics: roughly one unit in `one_in` panics, at most `max` per
    /// process.
    pub fn panics(mut self, one_in: u32, max: u32) -> Self {
        self.panic_one_in = one_in.max(1);
        self.max_panics = max;
        self
    }

    /// Kill process `proc_index` after it completes `after_units` units.
    pub fn kill(mut self, proc_index: usize, after_units: usize) -> Self {
        self.kill_proc = Some(proc_index);
        self.kill_after_units = after_units;
        self
    }

    /// Arm one scheduler-level site (builder style).
    pub fn sched_site(mut self, spec: FaultSpec) -> Self {
        self.sched_sites.push(spec);
        self
    }

    /// Whether anything at all is armed.
    pub fn is_empty(&self) -> bool {
        self.panic_one_in == 0 && self.kill_proc.is_none() && self.sched_sites.is_empty()
    }

    /// The driver-level [`FaultPlan`] of process `index`. Each process decides from its
    /// own seed (mixed from the schedule seed and the index), so per-process decision
    /// sequences are deterministic regardless of how the driver threads interleave.
    pub fn driver_plan(&self, index: usize) -> FaultPlan {
        let seed = self
            .seed
            .wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut plan = FaultPlan::new(seed);
        if self.panic_one_in > 0 {
            plan = plan.arm(
                FaultSpec::new(FaultSite::TaskBodyPanic)
                    .one_in(self.panic_one_in)
                    .max_fires(self.max_panics),
            );
        }
        if self.kill_proc == Some(index) {
            plan = plan.arm(
                FaultSpec::new(FaultSite::ProcessDeath)
                    .one_in(1)
                    .max_fires(1),
            );
        }
        plan
    }

    /// The scheduler-level [`FaultPlan`] (the armed [`FaultPlanSpec::sched_sites`] under
    /// the schedule seed); empty when no site is armed.
    pub fn sched_plan(&self) -> FaultPlan {
        self.sched_sites
            .iter()
            .fold(FaultPlan::new(self.seed), |p, s| p.arm(*s))
    }
}

/// A complete co-run scenario: a named set of processes over a core budget.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario name (used in reports and JSON).
    pub name: String,
    /// Virtual cores of the execution stack the thread demands are sized against. The
    /// real executors build their scheduler with exactly this many cores; the simulator
    /// scales demands up to its machine's core count.
    pub cores: usize,
    /// The co-running processes.
    pub procs: Vec<ProcSpec>,
    /// The simulator scheduling models this scenario should be swept over (defaults to
    /// Fair + Coop, the fig6 comparison; set [`ModelSel::ALL`] for the full matrix).
    pub models: Vec<ModelSel>,
    /// Optional seeded fault schedule (`None` = a clean run). See [`FaultPlanSpec`] for
    /// which parts apply on which stack.
    pub faults: Option<FaultPlanSpec>,
}

impl ScenarioSpec {
    /// An empty scenario over `cores` virtual cores.
    pub fn new(name: impl Into<String>, cores: usize) -> Self {
        ScenarioSpec {
            name: name.into(),
            cores: cores.max(1),
            procs: Vec::new(),
            models: vec![ModelSel::Fair, ModelSel::Coop],
            faults: None,
        }
    }

    /// Add a process.
    pub fn process(mut self, proc_spec: ProcSpec) -> Self {
        self.procs.push(proc_spec);
        self
    }

    /// Set the simulator model matrix the spec sweeps (builder style).
    pub fn models(mut self, models: impl Into<Vec<ModelSel>>) -> Self {
        self.models = models.into();
        self
    }

    /// Attach a seeded fault schedule (builder style).
    pub fn with_faults(mut self, faults: FaultPlanSpec) -> Self {
        self.faults = Some(faults);
        self
    }

    /// The same spec with process `i` placed according to `placements[i %
    /// placements.len()]` — how one canned scenario derives its §5.6 socket-placement
    /// variants (e.g. `&[Node(0), Node(1)]` pins an HPC pair to opposite sockets). An
    /// empty slice leaves the spec unchanged.
    pub fn with_placements(mut self, placements: &[Placement]) -> ScenarioSpec {
        if placements.is_empty() {
            return self;
        }
        for (i, p) in self.procs.iter_mut().enumerate() {
            p.placement = placements[i % placements.len()];
        }
        self
    }

    /// Total thread demand over the core budget: `1.0` = fully subscribed, `2.0` = 2×
    /// oversubscribed.
    pub fn oversubscription(&self) -> f64 {
        let demand: usize = self.procs.iter().map(|p| p.threads).sum();
        demand as f64 / self.cores as f64
    }

    /// The solo spec of process `index`: the same process alone on the same cores with
    /// immediate arrival — the baseline of every slowdown figure. Fault schedules do NOT
    /// propagate: a chaotic co-run is measured against the *clean* solo baseline.
    pub fn solo_of(&self, index: usize) -> ScenarioSpec {
        let mut p = self.procs[index].clone();
        p.arrival = Arrival::Immediate;
        ScenarioSpec {
            name: format!("{}-solo-{}", self.name, p.name),
            cores: self.cores,
            procs: vec![p],
            models: self.models.clone(),
            faults: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_overrides() {
        let p = ProcSpec::new("svc", WorkloadKind::Microservices)
            .threads(0)
            .units(0)
            .size(ProblemSize::Tiny)
            .flavor(RuntimeFlavor::ThreadPool)
            .arrival(Arrival::Delayed(Duration::from_millis(5)));
        assert_eq!(p.threads, 1, "thread demand is clamped to >= 1");
        assert_eq!(p.units, 1, "unit count is clamped to >= 1");
        assert_eq!(p.size.unit_work(), Duration::from_micros(300));
        assert_eq!(p.flavor.label(), "threadpool");
    }

    #[test]
    fn oversubscription_is_demand_over_cores() {
        let spec = ScenarioSpec::new("s", 4)
            .process(ProcSpec::new("a", WorkloadKind::SpinSleep).threads(4))
            .process(ProcSpec::new("b", WorkloadKind::SpinSleep).threads(4));
        assert_eq!(spec.oversubscription(), 2.0);
    }

    #[test]
    fn solo_of_isolates_one_process() {
        let spec = ScenarioSpec::new("pair", 2)
            .process(ProcSpec::new("a", WorkloadKind::Matmul))
            .process(ProcSpec::new("b", WorkloadKind::Md).arrival(Arrival::Ramp {
                stagger: Duration::from_millis(1),
            }));
        let solo = spec.solo_of(1);
        assert_eq!(solo.procs.len(), 1);
        assert_eq!(solo.procs[0].name, "b");
        assert_eq!(solo.procs[0].arrival, Arrival::Immediate);
        assert_eq!(solo.cores, 2);
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            WorkloadKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), WorkloadKind::ALL.len());
        let models: std::collections::HashSet<_> =
            ModelSel::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(models.len(), ModelSel::ALL.len());
    }

    #[test]
    fn model_matrix_defaults_and_propagates_to_solo() {
        let spec = ScenarioSpec::new("m", 2).process(ProcSpec::new("a", WorkloadKind::SpinSleep));
        assert_eq!(spec.models, vec![ModelSel::Fair, ModelSel::Coop]);
        let full = spec.models(ModelSel::ALL.to_vec());
        assert_eq!(full.models.len(), 4);
        assert_eq!(full.solo_of(0).models, full.models);
    }

    #[test]
    fn placement_defaults_anywhere_and_applies_per_process() {
        let p = ProcSpec::new("a", WorkloadKind::Md);
        assert_eq!(p.placement, Placement::Anywhere);
        let spec = ScenarioSpec::new("place", 4)
            .process(ProcSpec::new("a", WorkloadKind::Md))
            .process(ProcSpec::new("b", WorkloadKind::Md))
            .process(ProcSpec::new("c", WorkloadKind::Md))
            .with_placements(&[Placement::Node(0), Placement::Node(1)]);
        assert_eq!(spec.procs[0].placement, Placement::Node(0));
        assert_eq!(spec.procs[1].placement, Placement::Node(1));
        assert_eq!(spec.procs[2].placement, Placement::Node(0), "cycled");
        // solo_of keeps the pin (a pinned solo baseline measures the pinned capacity).
        assert_eq!(spec.solo_of(1).procs[0].placement, Placement::Node(1));
        assert_eq!(Placement::Node(1).label(), "node1");
        assert_eq!(Placement::Spread.label(), "spread");
    }

    #[test]
    fn fault_schedule_builds_and_lowers_per_process() {
        let fs = FaultPlanSpec::new(0xC4A0)
            .panics(3, 2)
            .kill(1, 2)
            .sched_site(FaultSpec::new(FaultSite::DuplicateWakeup).one_in(5));
        assert!(!fs.is_empty());
        // The victim's driver plan arms ProcessDeath; co-tenants' plans do not.
        let victim = fs.driver_plan(1);
        assert!(victim
            .specs
            .iter()
            .any(|s| s.site == FaultSite::ProcessDeath));
        let cotenant = fs.driver_plan(0);
        assert!(!cotenant
            .specs
            .iter()
            .any(|s| s.site == FaultSite::ProcessDeath));
        // Both arm panics; their seeds differ (per-process decision streams).
        assert!(victim
            .specs
            .iter()
            .any(|s| s.site == FaultSite::TaskBodyPanic));
        assert_ne!(victim.seed, cotenant.seed);
        // The sched plan carries exactly the armed sched sites under the schedule seed.
        let sp = fs.sched_plan();
        assert_eq!(sp.seed, 0xC4A0);
        assert_eq!(sp.specs.len(), 1);
        assert_eq!(sp.specs[0].site, FaultSite::DuplicateWakeup);
        // Determinism: the same schedule lowers to the same plans.
        assert_eq!(fs.driver_plan(0), fs.clone().driver_plan(0));
        assert!(FaultPlanSpec::new(1).is_empty());
    }

    #[test]
    fn faults_attach_to_specs_but_not_to_solo_baselines() {
        let spec = ScenarioSpec::new("chaotic", 2)
            .process(ProcSpec::new("a", WorkloadKind::SpinSleep))
            .process(ProcSpec::new("b", WorkloadKind::SpinSleep))
            .with_faults(FaultPlanSpec::new(7).panics(2, 1));
        assert!(spec.faults.is_some());
        assert!(
            spec.solo_of(0).faults.is_none(),
            "solo baselines must stay clean"
        );
    }

    #[test]
    fn custom_size_maps_to_dims() {
        assert_eq!(
            ProblemSize::Custom { unit_work_us: 500 }.matrix_dims(),
            (64, 32)
        );
        assert_eq!(
            ProblemSize::Custom {
                unit_work_us: 5_000
            }
            .matrix_dims(),
            (128, 32)
        );
        assert_eq!(
            ProblemSize::Custom {
                unit_work_us: 50_000
            }
            .matrix_dims(),
            (192, 32)
        );
        assert_eq!(ProblemSize::Medium.matrix_dims(), (192, 32));
    }
}
