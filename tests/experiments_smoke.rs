//! Integration smoke tests of the experiment harness: every paper experiment (Figure 3,
//! Table 2, Figure 4, Figure 5, and the repo's own scenario-engine figures 6/7) can be
//! regenerated at reduced scale, and the headline qualitative results hold.

use usf::simsched::{Machine, SimTime};
use usf::workloads::md::{run_md_scenario, MdConfig, MdScenario};
use usf::workloads::microservices::{run_microservices, MicroservicesConfig, PartitionScheme};
use usf::workloads::sim_cholesky::{run_sim_cholesky, Composition, Parallelism, SimCholeskyConfig};
use usf::workloads::sim_matmul::{run_sim_matmul, SimMatmulConfig};
use usf::workloads::sim_nested::Stack;

/// Figure 3 (one oversubscribed cell): SCHED_COOP and the yield-patched baseline beat the
/// unmodified busy-wait stack, and nothing deadlocks except where the paper says it may.
#[test]
fn fig3_cell_shape_holds() {
    let run = |variant| {
        // A reduced cell (8 cores, 16 outer workers × 4 inner threads = 64 busy threads)
        // keeps the smoke test fast; the full 56-core sweep is the fig3_matmul binary.
        let mut cfg = SimMatmulConfig::new(2048, 512, 4, variant);
        cfg.machine = Machine::small(8);
        cfg.max_outer_workers = 16;
        run_sim_matmul(&cfg)
    };
    let baseline = run(Stack::Baseline);
    let coop = run(Stack::SchedCoop);
    let manual = run(Stack::Manual);
    let original = run(Stack::Original);
    eprintln!(
        "fig3 cell MFLOP/s: baseline {:.0}, manual {:.0}, sched_coop {:.0}, original {:.0}",
        baseline.mflops, manual.mflops, coop.mflops, original.mflops
    );
    assert!(!baseline.deadlocked && !coop.deadlocked && !manual.deadlocked);
    assert!(baseline.mflops > 0.0);
    assert!(
        coop.mflops >= original.mflops,
        "SCHED_COOP ({:.0}) must not lose to the unmodified busy-wait stack ({:.0})",
        coop.mflops,
        original.mflops
    );
    assert!(
        manual.mflops >= baseline.mflops * 0.9,
        "manual nOS-V integration ({:.0}) should be comparable or better than the baseline ({:.0})",
        manual.mflops,
        baseline.mflops
    );
}

/// Table 2 (one column): SCHED_COOP speedups grow with oversubscription and the pth
/// composition gains the most.
#[test]
fn table2_shape_holds() {
    let cell = |row: usize, par: Parallelism, sched: Stack| {
        let mut cfg = SimCholeskyConfig::new(Composition::table2_rows()[row].clone(), par, sched);
        cfg.machine = Machine::small(8);
        cfg.task_size = 256;
        cfg.tasks_per_worker = 2;
        run_sim_cholesky(&cfg).mflops
    };
    // Row 1 = tbb/llvm/opb (persistent team), row 4 = gnu/pth/blis (thread churn). The
    // "heavier" point uses the Medium (14×14) column so the reduced smoke test stays fast;
    // the full High (28×28) column is exercised by the table2_cholesky binary and the
    // usf-workloads unit tests.
    let omp_high_base = cell(1, Parallelism::Medium, Stack::Baseline);
    let omp_high_coop = cell(1, Parallelism::Medium, Stack::SchedCoop);
    let pth_high_base = cell(4, Parallelism::Medium, Stack::Baseline);
    let pth_high_coop = cell(4, Parallelism::Medium, Stack::SchedCoop);
    let pth_mild_base = cell(4, Parallelism::Mild, Stack::Baseline);
    let pth_mild_coop = cell(4, Parallelism::Mild, Stack::SchedCoop);
    let omp_high_speedup = omp_high_coop / omp_high_base;
    let pth_high_speedup = pth_high_coop / pth_high_base;
    let pth_mild_speedup = pth_mild_coop / pth_mild_base;
    eprintln!(
        "table2: omp High {omp_high_base:.0}->{omp_high_coop:.0} ({omp_high_speedup:.2}x), \
         pth High {pth_high_base:.0}->{pth_high_coop:.0} ({pth_high_speedup:.2}x), \
         pth Mild {pth_mild_base:.0}->{pth_mild_coop:.0} ({pth_mild_speedup:.2}x)"
    );
    assert!(
        pth_high_speedup > 1.0,
        "SCHED_COOP must win for pth at high oversubscription ({pth_high_speedup:.2})"
    );
    assert!(
        pth_high_speedup > omp_high_speedup,
        "pth must gain more than the persistent team ({pth_high_speedup:.2} vs {omp_high_speedup:.2})"
    );
    // The paper's High-column speedups are far larger than the Mild ones; allow a small
    // tolerance because the reduced smoke configuration compresses the gap.
    assert!(
        pth_high_speedup > pth_mild_speedup * 0.9,
        "speedups must not shrink with oversubscription ({pth_high_speedup:.2} vs mild {pth_mild_speedup:.2})"
    );
}

/// Figure 4 (one rate): under heavy load SCHED_COOP keeps latency at least as low as the
/// rigid equal partitioning and the unpartitioned fair baseline.
#[test]
fn fig4_shape_holds() {
    let run = |scheme| {
        let mut cfg = MicroservicesConfig::new(2.0, scheme);
        cfg.requests = 8;
        cfg.batches = 2;
        cfg.time_scale = 0.02;
        cfg.machine = Machine::small_numa(32, 2);
        cfg.yield_slice = SimTime::from_micros(500);
        run_microservices(&cfg)
    };
    let coop = run(PartitionScheme::SchedCoop);
    let bl_eq = run(PartitionScheme::BlEq);
    let bl_none = run(PartitionScheme::BlNone);
    assert!(!coop.report.deadlocked && !bl_eq.report.deadlocked && !bl_none.report.deadlocked);
    assert!(
        coop.mean_latency.as_secs_f64() <= bl_eq.mean_latency.as_secs_f64() * 1.05,
        "SCHED_COOP ({:.2}s) must not lose to equal partitioning ({:.2}s)",
        coop.mean_latency.as_secs_f64(),
        bl_eq.mean_latency.as_secs_f64()
    );
    assert!(
        coop.mean_latency.as_secs_f64() <= bl_none.mean_latency.as_secs_f64() * 1.10,
        "SCHED_COOP ({:.2}s) must be competitive with bl-none ({:.2}s)",
        coop.mean_latency.as_secs_f64(),
        bl_none.mean_latency.as_secs_f64()
    );
    assert_eq!(coop.request_timeline.len(), 8);
}

/// Figure 5 (reduced): concurrent ensembles beat exclusive execution in aggregate and
/// SCHED_COOP achieves the highest bandwidth utilisation of the concurrent scenarios.
#[test]
fn fig5_shape_holds() {
    let run = |scenario| {
        let mut cfg = MdConfig::new(scenario);
        cfg.machine = Machine::small_numa(16, 2);
        cfg.machine.memory_bw_gbps = 60.0;
        cfg.ranks_per_ensemble = 8;
        cfg.threads_per_rank = 2;
        cfg.steps = 5;
        cfg.atoms = 4_000;
        cfg.regions = 4;
        cfg.per_atom_cost = SimTime::from_micros(5);
        cfg.bw_per_thread_gbps = 5.0;
        cfg.init_time = SimTime::from_millis(20);
        cfg.yield_slice = SimTime::from_micros(200);
        run_md_scenario(&cfg)
    };
    let exclusive = run(MdScenario::Exclusive);
    let colocation = run(MdScenario::ColocationNode);
    let coop = run(MdScenario::SchedCoopNode);
    eprintln!(
        "fig5: exclusive {:.0} Katom/s ({:.1} GB/s), colocation {:.0} ({:.1}), sched_coop {:.0} ({:.1})",
        exclusive.katom_steps_per_sec,
        exclusive.average_bandwidth_gbps,
        colocation.katom_steps_per_sec,
        colocation.average_bandwidth_gbps,
        coop.katom_steps_per_sec,
        coop.average_bandwidth_gbps
    );
    assert!(!coop.report.deadlocked);
    assert!(
        coop.katom_steps_per_sec > exclusive.katom_steps_per_sec,
        "SCHED_COOP co-execution ({:.0}) must beat exclusive ({:.0})",
        coop.katom_steps_per_sec,
        exclusive.katom_steps_per_sec
    );
    assert!(
        coop.katom_steps_per_sec >= colocation.katom_steps_per_sec * 0.95,
        "SCHED_COOP ({:.0}) must not lose to static co-location ({:.0})",
        coop.katom_steps_per_sec,
        colocation.katom_steps_per_sec
    );
    assert!(
        coop.average_bandwidth_gbps >= exclusive.average_bandwidth_gbps * 0.95,
        "co-execution must not reduce bandwidth utilisation ({:.1} vs {:.1})",
        coop.average_bandwidth_gbps,
        exclusive.average_bandwidth_gbps
    );
}

/// Figure 6 (scenario engine): the canned oversubscription ramp runs unmodified on all
/// three executors, and on the deterministic simulated stack SCHED_COOP's slowdown does
/// not exceed the preemptive baseline's at >= 2x oversubscription.
#[test]
fn fig6_shape_holds() {
    use std::time::Duration;
    use usf::scenarios::spec::ProblemSize;
    use usf::scenarios::{library, Executor, OsExecutor, SimExecutor, UsfExecutor};
    use usf::simsched::SchedModel;

    // One spec, three stacks: tiny real runs just demonstrate completion.
    let tiny = library::oversub_ramp(2, 2, ProblemSize::Tiny);
    for report in [
        OsExecutor.run_spec(&tiny),
        UsfExecutor::new().run_spec(&tiny),
    ] {
        assert_eq!(report.processes.len(), 2, "{}", report.executor);
        for p in &report.processes {
            assert_eq!(p.unit_latencies_s.len(), 6, "{}", report.executor);
            assert!(p.makespan > Duration::ZERO);
        }
    }

    // Deterministic shape on the simulator: 16 cores, units well above the quantum.
    let size = ProblemSize::Custom {
        unit_work_us: 10_000 * 16,
    };
    let mut slowdowns = Vec::new();
    for model in [SchedModel::Fair, SchedModel::coop_default()] {
        let machine = usf::simsched::Machine::small_numa(16, 2);
        let exec = SimExecutor::new(machine, model);
        let solo = exec.run_spec(&library::oversub_ramp(16, 1, size));
        let solo_makespan = solo.processes[0].makespan;
        let mut corun = exec.run_spec(&library::oversub_ramp(16, 2, size));
        corun.apply_solo_baseline(&[Some(solo_makespan), Some(solo_makespan)]);
        slowdowns.push(corun.mean_slowdown().expect("baseline applied"));
    }
    let (os, coop) = (slowdowns[0], slowdowns[1]);
    eprintln!("fig6: mean slowdown at 2x — os {os:.3}, sched_coop {coop:.3}");
    assert!(
        os > 1.0,
        "co-running must cost something under the baseline ({os:.3})"
    );
    assert!(
        coop <= os * 1.001,
        "SCHED_COOP slowdown ({coop:.3}) must not exceed the OS baseline ({os:.3})"
    );
}

/// Figure 7 (scheduler-model matrix): one canned ≥2×-oversubscribed spec swept over
/// Fair/Coop/bl-eq/bl-opt — SCHED_COOP's mean slowdown must not exceed the equal static
/// partition's, because an idle partition core cannot be donated to the other process.
#[test]
fn fig7_shape_holds() {
    use std::time::Duration;
    use usf::scenarios::spec::ProblemSize;
    use usf::scenarios::{library, Executor, ModelSel, SimExecutor};
    use usf::simsched::SchedModel;

    let machine = usf::simsched::Machine::small_numa(16, 2);
    let size = ProblemSize::Custom {
        unit_work_us: 10_000 * 16,
    };
    let spec = library::oversub_ramp(16, 2, size).models(ModelSel::ALL.to_vec());
    assert!(spec.oversubscription() >= 2.0);

    // Solo baseline under fair scheduling on the whole node (the paper's denominator).
    let solo = SimExecutor::new(machine.clone(), SchedModel::Fair).run_spec(&spec.solo_of(0));
    let solo_makespan: Vec<Option<Duration>> =
        vec![solo.processes.first().map(|p| p.makespan); spec.procs.len()];

    let mut reports = SimExecutor::sweep_models(&machine, &spec);
    for r in &mut reports {
        r.apply_solo_baseline(&solo_makespan);
    }
    let mean = |sel: ModelSel| {
        reports
            .iter()
            .find(|r| r.model == Some(sel))
            .and_then(|r| r.mean_slowdown())
            .expect("baseline applied")
    };
    let (coop, bleq, blopt, fair) = (
        mean(ModelSel::Coop),
        mean(ModelSel::BlEq),
        mean(ModelSel::BlOpt),
        mean(ModelSel::Fair),
    );
    eprintln!("fig7: mean slowdown at 2x — fair {fair:.3}, coop {coop:.3}, bl-eq {bleq:.3}, bl-opt {blopt:.3}");
    assert!(
        bleq > 1.0 && blopt > 1.0,
        "partitioned co-runs must cost something ({bleq:.3}/{blopt:.3})"
    );
    assert!(
        coop <= bleq * 1.001,
        "SCHED_COOP ({coop:.3}) must not lose to equal partitioning ({bleq:.3})"
    );
    // The matrix reports measured per-unit latencies everywhere (non-degenerate bundles).
    for r in &reports {
        for p in &r.processes {
            let s = p.unit_summary();
            assert!(s.count > 0 && s.p99 > 0.0, "{}: {s:?}", r.executor);
        }
    }
}

/// Figure 8 (socket placement, §5.6): on the two-socket machine with the NUMA-locality
/// compute model on, node-pinning the HPC pair must record exactly zero *measured*
/// cross-socket migrations and beat the anywhere placement on p99 unit latency under
/// SCHED_COOP, while the anywhere variant demonstrably pays cross-socket traffic.
#[test]
fn fig8_shape_holds() {
    use usf::scenarios::spec::ProblemSize;
    use usf::scenarios::{library, Executor, ModelSel, Placement, SimExecutor};

    let mut machine = usf::simsched::Machine::small_numa(16, 2);
    machine.remote_numa_penalty = 1.3;
    let size = ProblemSize::Custom {
        unit_work_us: 10_000 * 16,
    };
    let base = library::hpc_pair(16, size);
    let p99 = |r: &usf::scenarios::ScenarioReport| {
        r.processes
            .iter()
            .map(|p| p.unit_summary().p99)
            .fold(0.0, f64::max)
    };

    let anywhere = SimExecutor::for_model(machine.clone(), ModelSel::Coop, &base).run_spec(&base);
    let pinned_spec = base
        .clone()
        .with_placements(&[Placement::Node(0), Placement::Node(1)]);
    let pinned = SimExecutor::for_model(machine.clone(), ModelSel::Coop, &pinned_spec)
        .run_spec(&pinned_spec);

    let (any_p99, pin_p99) = (p99(&anywhere), p99(&pinned));
    eprintln!(
        "fig8: coop p99 — anywhere {any_p99:.4}s ({} cross-socket), pinned {pin_p99:.4}s ({} cross-socket)",
        anywhere.total_cross_socket_migrations().unwrap(),
        pinned.total_cross_socket_migrations().unwrap(),
    );
    assert_eq!(
        pinned.total_cross_socket_migrations(),
        Some(0),
        "node-pinned co-runs must never migrate across sockets (measured counter)"
    );
    assert!(
        anywhere.total_cross_socket_migrations().unwrap() > 0,
        "the anywhere placement must actually exercise cross-socket migration"
    );
    assert!(
        pin_p99 <= any_p99 * 1.001,
        "pinned-Coop p99 ({pin_p99:.4}) must not exceed anywhere-Coop p99 ({any_p99:.4})"
    );
}
