//! Canned scenario library — the co-run experiments the paper argues about, as data.

use crate::spec::{
    Arrival, FaultPlanSpec, FaultSite, FaultSpec, ProblemSize, ProcSpec, ScenarioSpec, WorkloadKind,
};
use std::time::Duration;
use usf_workloads::workload::RuntimeFlavor;

/// A solo run: one process of the given kind using the whole core budget (the baseline
/// every slowdown is measured against).
pub fn solo(kind: WorkloadKind, cores: usize, size: ProblemSize) -> ScenarioSpec {
    ScenarioSpec::new(format!("solo-{}", kind.label()), cores).process(
        ProcSpec::new(kind.label(), kind)
            .size(size)
            .threads(cores)
            .units(4),
    )
}

/// The HPC pair (§5.3/§5.4 shape): a nested matmul and a Cholesky factorization co-run,
/// each sized for the whole node — 2× mutual oversubscription between two task-parallel
/// runtimes.
pub fn hpc_pair(cores: usize, size: ProblemSize) -> ScenarioSpec {
    ScenarioSpec::new("hpc-pair", cores)
        .process(
            ProcSpec::new("matmul", WorkloadKind::Matmul)
                .size(size)
                .flavor(RuntimeFlavor::TaskRt)
                .threads(cores)
                .units(2),
        )
        .process(
            ProcSpec::new("cholesky", WorkloadKind::Cholesky)
                .size(size)
                .flavor(RuntimeFlavor::ThreadPool)
                .threads(cores)
                .units(2),
        )
}

/// Latency-vs-batch co-location (§5.5 shape): an open-loop inference service sharing the
/// node with an imbalanced MD batch job that wants every core.
pub fn latency_batch(cores: usize, size: ProblemSize) -> ScenarioSpec {
    ScenarioSpec::new("latency-batch", cores)
        .process(
            ProcSpec::new("service", WorkloadKind::Microservices)
                .size(size)
                .flavor(RuntimeFlavor::ThreadPool)
                .threads(cores.div_ceil(2))
                .units(8),
        )
        .process(
            ProcSpec::new("batch", WorkloadKind::Md)
                .size(size)
                .flavor(RuntimeFlavor::ForkJoin)
                .threads(cores)
                .units(4),
        )
}

/// The oversubscription ramp behind `fig6_oversub`: `factor` identical MD-ensemble
/// processes, each demanding the whole core budget (so total demand = `factor ×` the
/// node), arriving in a short ramp. Under SCHED_COOP the per-process slowdown stays near
/// the ideal `factor ×` time-sharing line; under the preemptive baseline the busy-wait
/// unit joins burn quanta and the slowdown grows past it.
pub fn oversub_ramp(cores: usize, factor: usize, size: ProblemSize) -> ScenarioSpec {
    // Stagger by roughly one per-thread unit so the ramp is visible but every process
    // overlaps all the others for most of its run (unit_work is the demand summed over
    // the process's `cores` threads).
    let stagger = Duration::from_secs_f64(size.unit_work().as_secs_f64() / cores.max(1) as f64);
    let mut spec = ScenarioSpec::new(format!("oversub-ramp-{factor}x"), cores);
    for i in 0..factor.max(1) {
        spec = spec.process(
            ProcSpec::new(format!("ensemble-{i}"), WorkloadKind::Md)
                .size(size)
                .flavor(RuntimeFlavor::ForkJoin)
                .threads(cores)
                .units(6)
                .arrival(Arrival::Ramp { stagger }),
        );
    }
    spec
}

/// The mixed-size ramp: processes of *different* widths and unit costs arriving in a
/// staggered ramp — a wide imbalanced MD job, a half-width medium co-runner, a narrow
/// fast one, and a late-arriving half-cost spike, together ~2.75× oversubscribed. The
/// heterogeneous demands are what separate the static splits (bl-eq strands cores on the
/// narrow processes while the wide one starves) from the cooperative scheduler.
pub fn mixed_size_ramp(cores: usize, size: ProblemSize) -> ScenarioSpec {
    let base = size.unit_work();
    let stagger = Duration::from_secs_f64(base.as_secs_f64() / cores.max(1) as f64);
    let custom = |frac: u64| ProblemSize::Custom {
        unit_work_us: (base.as_micros() as u64 / frac).max(1),
    };
    ScenarioSpec::new("mixed-size-ramp", cores)
        .process(
            ProcSpec::new("wide-md", WorkloadKind::Md)
                .size(size)
                .flavor(RuntimeFlavor::ForkJoin)
                .threads(cores)
                .units(4)
                .arrival(Arrival::Ramp { stagger }),
        )
        .process(
            ProcSpec::new("half-spin", WorkloadKind::SpinSleep)
                .size(custom(2))
                .flavor(RuntimeFlavor::ThreadPool)
                .threads(cores.div_ceil(2))
                .units(6)
                .arrival(Arrival::Ramp { stagger }),
        )
        .process(
            ProcSpec::new("narrow-spin", WorkloadKind::SpinSleep)
                .size(custom(4))
                .flavor(RuntimeFlavor::TaskRt)
                .threads(cores.div_ceil(4))
                .units(8)
                .arrival(Arrival::Ramp { stagger }),
        )
        .process(
            ProcSpec::new("late-spike", WorkloadKind::Md)
                .size(custom(2))
                .flavor(RuntimeFlavor::ForkJoin)
                .threads(cores)
                .units(2)
                .arrival(Arrival::Delayed(Duration::from_secs_f64(
                    base.as_secs_f64() / 2.0,
                ))),
        )
}

/// The bursty antagonist: an open-loop inference service sharing the node with a sparse
/// Poisson-paced burst source *and* a full-width imbalanced batch antagonist that arrives
/// mid-run — ~2.5× oversubscribed at peak. The service's tail latency under each
/// scheduling model is the interesting output (the §5.5 tension: partitioning isolates
/// the service but strands its idle cores; SCHED_COOP donates them).
pub fn bursty_antagonist(cores: usize, size: ProblemSize) -> ScenarioSpec {
    let base = size.unit_work();
    ScenarioSpec::new("bursty-antagonist", cores)
        .process(
            ProcSpec::new("service", WorkloadKind::Microservices)
                .size(size)
                .flavor(RuntimeFlavor::ThreadPool)
                .threads(cores.div_ceil(2))
                .units(8),
        )
        .process(
            ProcSpec::new("bursts", WorkloadKind::PoissonBurst)
                .size(size)
                .flavor(RuntimeFlavor::ForkJoin)
                .threads(cores)
                .units(3),
        )
        .process(
            ProcSpec::new("antagonist", WorkloadKind::Md)
                .size(size)
                .flavor(RuntimeFlavor::ForkJoin)
                .threads(cores)
                .units(4)
                .arrival(Arrival::Delayed(Duration::from_secs_f64(
                    base.as_secs_f64(),
                ))),
        )
}

/// The chaos co-run: a three-process oversubscribed mix under a seeded fault schedule —
/// the victim dies mid-run, the panicky batch job loses units to injected body panics,
/// and the steady co-tenant must come through untouched. Scheduler-level sites
/// (duplicated wakeups, delayed intake drains, a 120ms worker stall the watchdog must
/// flag) ride along on the USF stack. Stacks without an injection plane (the OS baseline,
/// the simulator) run the clean lowering of the same processes.
pub fn chaos(cores: usize, size: ProblemSize) -> ScenarioSpec {
    ScenarioSpec::new("chaos", cores)
        .process(
            ProcSpec::new("victim", WorkloadKind::SpinSleep)
                .size(size)
                .flavor(RuntimeFlavor::ThreadPool)
                .threads(cores.div_ceil(2))
                .units(6),
        )
        .process(
            ProcSpec::new("panicky", WorkloadKind::Md)
                .size(size)
                .flavor(RuntimeFlavor::ForkJoin)
                .threads(cores)
                .units(4),
        )
        .process(
            ProcSpec::new("steady", WorkloadKind::SpinSleep)
                .size(size)
                .flavor(RuntimeFlavor::TaskRt)
                .threads(cores.div_ceil(2))
                .units(4),
        )
        .with_faults(
            FaultPlanSpec::new(0xC4A0_5C4A)
                .panics(3, 2)
                .kill(0, 2)
                .sched_site(FaultSpec::new(FaultSite::DuplicateWakeup).one_in(5))
                .sched_site(FaultSpec::new(FaultSite::DelayIntakeDrain).one_in(7))
                .sched_site(
                    FaultSpec::new(FaultSite::WorkerStall)
                        .one_in(1)
                        .max_fires(1)
                        .stall(Duration::from_millis(120)),
                ),
        )
}

/// Every canned entry at one `(cores, size)` point — what `fig7_models` sweeps and the
/// library-coverage tests run. Order: solo, the pairs, the ramps, the mixed entries, the
/// chaos entry.
pub fn all(cores: usize, size: ProblemSize) -> Vec<ScenarioSpec> {
    vec![
        solo(WorkloadKind::Md, cores, size),
        hpc_pair(cores, size),
        latency_batch(cores, size),
        oversub_ramp(cores, 2, size),
        oversub_ramp(cores, 4, size),
        mixed_size_ramp(cores, size),
        bursty_antagonist(cores, size),
        chaos(cores, size),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canned_specs_have_the_advertised_shape() {
        let solo = solo(WorkloadKind::Matmul, 4, ProblemSize::Tiny);
        assert_eq!(solo.procs.len(), 1);
        assert_eq!(solo.oversubscription(), 1.0);

        let pair = hpc_pair(4, ProblemSize::Tiny);
        assert_eq!(pair.procs.len(), 2);
        assert_eq!(pair.oversubscription(), 2.0);

        let lb = latency_batch(4, ProblemSize::Tiny);
        assert_eq!(lb.procs.len(), 2);
        assert!(lb.oversubscription() > 1.0);

        for factor in [1, 2, 4, 8] {
            let ramp = oversub_ramp(4, factor, ProblemSize::Tiny);
            assert_eq!(ramp.procs.len(), factor);
            assert_eq!(ramp.oversubscription(), factor as f64);
            // The ramp arrives strictly in spec order.
            assert_eq!(ramp.plan().arrival_order(), (0..factor).collect::<Vec<_>>());
        }

        let mixed = mixed_size_ramp(8, ProblemSize::Tiny);
        assert_eq!(mixed.procs.len(), 4);
        assert!(
            mixed.oversubscription() >= 2.0,
            "mixed ramp must oversubscribe ≥2x ({})",
            mixed.oversubscription()
        );
        // Heterogeneous widths are the point of the entry.
        let widths: std::collections::HashSet<usize> =
            mixed.procs.iter().map(|p| p.threads).collect();
        assert!(widths.len() >= 3, "{widths:?}");

        let bursty = bursty_antagonist(8, ProblemSize::Tiny);
        assert_eq!(bursty.procs.len(), 3);
        assert!(bursty.oversubscription() >= 2.0);
        assert!(bursty
            .procs
            .iter()
            .any(|p| p.kind == WorkloadKind::Microservices));
        assert!(bursty.procs.iter().any(|p| p.kind == WorkloadKind::Md));

        let chaos = chaos(4, ProblemSize::Tiny);
        assert_eq!(chaos.procs.len(), 3);
        assert!(chaos.oversubscription() >= 2.0);
        let fs = chaos.faults.as_ref().expect("chaos arms a fault schedule");
        assert!(fs.panic_one_in > 0 && fs.kill_proc.is_some());
        assert!(
            fs.kill_after_units >= 1 && fs.kill_after_units < chaos.procs[0].units,
            "the victim must die strictly mid-run"
        );
        assert!(!fs.sched_sites.is_empty());
        // The steady co-tenant is the survivorship control: not the kill victim.
        assert_ne!(fs.kill_proc, Some(2));
    }

    #[test]
    fn all_enumerates_every_entry_with_unique_names() {
        let entries = all(8, ProblemSize::Tiny);
        assert!(entries.len() >= 7);
        let names: std::collections::HashSet<String> =
            entries.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names.len(), entries.len(), "scenario names must be unique");
        for spec in &entries {
            assert!(!spec.procs.is_empty(), "{}", spec.name);
            // Every entry lowers into a plan (pure, deterministic).
            assert_eq!(spec.plan().procs.len(), spec.procs.len());
        }
        // The library spans the oversubscription axis, including >= 2x points.
        assert!(entries.iter().any(|s| s.oversubscription() <= 1.0));
        assert!(
            entries
                .iter()
                .filter(|s| s.oversubscription() >= 2.0)
                .count()
                >= 4
        );
    }
}
