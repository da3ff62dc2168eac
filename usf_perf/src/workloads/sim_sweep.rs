//! `sim_sweep` — the paper-scale path: the scenario library at 112 cores under all four
//! scheduling models of the discrete-event simulator.
//!
//! Deterministic and single-threaded: no real scheduler runs. The shared `CoopCore` and
//! ready queues at 112 cores and the engine's event loop do all the work, so this is the
//! workload a simulator or ready-queue change must move, and every other change must not.

use super::{Env, Window, Workload};
use crate::trace::{span, Layer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use usf_scenarios::spec::{ModelSel, ProblemSize, ScenarioSpec};
use usf_scenarios::{library, Executor, ScenarioReport, SimExecutor};
use usf_simsched::Machine;

const SIM_CORES: usize = 112;

/// What must repeat bit for bit between two runs of one simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    total_makespan_ns: u128,
    makespans_ns: Vec<u128>,
    unit_latency_bits: Vec<u64>,
    counter_bits: Vec<u64>,
}

pub fn fingerprint(report: &ScenarioReport) -> Fingerprint {
    Fingerprint {
        total_makespan_ns: report.total_makespan.as_nanos(),
        makespans_ns: report
            .processes
            .iter()
            .map(|p| p.makespan.as_nanos())
            .collect(),
        unit_latency_bits: report
            .processes
            .iter()
            .flat_map(|p| p.unit_latencies_s.iter().map(|l| l.to_bits()))
            .collect(),
        counter_bits: report
            .sched
            .iter()
            .flat_map(|s| s.counters.iter().map(|(_, v)| v.to_bits()))
            .collect(),
    }
}

/// Scenarios oversubscribed at least 2× on which SCHED_COOP's makespan exceeds equal
/// static partitioning's — the fig7 shape says there are none.
pub fn coop_worse_than_bl_eq(sweep: &[(f64, ModelSel, u128)]) -> usize {
    sweep
        .chunks(ModelSel::ALL.len())
        .filter(|scenario| {
            let makespan = |sel| scenario.iter().find(|m| m.1 == sel).map(|m| m.2);
            scenario[0].0 >= 2.0 && makespan(ModelSel::Coop) > makespan(ModelSel::BlEq)
        })
        .count()
}

pub struct SimSweep {
    machine: Machine,
    /// Every `(scenario, model)` pair, scenario-major.
    sims: Vec<(ScenarioSpec, ModelSel)>,
    /// The first sweep's fingerprints, which every later sweep must repeat.
    reference: Vec<Fingerprint>,
}

/// Every `(scenario, model)` pair of one sweep, scenario-major.
pub fn simulations() -> Vec<(ScenarioSpec, ModelSel)> {
    library::all(SIM_CORES, ProblemSize::Medium)
        .into_iter()
        // The chaos entry's fault schedule is a real-stack concern.
        .filter(|spec| spec.faults.is_none())
        .flat_map(|spec| ModelSel::ALL.map(|sel| (spec.clone(), sel)))
        .collect()
}

impl SimSweep {
    /// Run simulation `index`; `None` if it panicked (the lowering asserts on deadlock).
    fn simulate(&self, index: usize, unit: u64, w: &mut Window) -> Option<ScenarioReport> {
        let (spec, sel) = &self.sims[index];
        let t0 = Instant::now();
        let report = catch_unwind(AssertUnwindSafe(|| {
            let sim = SimExecutor::for_model(self.machine.clone(), *sel, spec);
            span("SimExecutor::run_spec", Layer::Simsched, unit, || {
                sim.run_spec(spec)
            })
        }))
        .ok()?;
        let elapsed = t0.elapsed().as_secs_f64();
        w.lat_ms.push(elapsed * 1e3);
        if *sel == ModelSel::Coop {
            w.sim_coop_s += elapsed;
        }
        w.sim_ctx_switches += report
            .sched
            .as_ref()
            .and_then(|s| s.get("context_switches"))
            .unwrap_or(0.0);
        Some(report)
    }

    fn sweep(&mut self, w: &mut Window) {
        let mut shape = Vec::new();
        let mut prints = Vec::new();
        for index in 0..self.sims.len() {
            let report = self.simulate(index, w.units, w);
            let print = report.as_ref().map(fingerprint);
            let repeats = self.reference.is_empty() || print.as_ref() == self.reference.get(index);
            w.unit(print.is_some() && repeats);
            if let Some(r) = &report {
                let (spec, sel) = &self.sims[index];
                shape.push((spec.oversubscription(), *sel, r.total_makespan.as_nanos()));
            }
            prints.extend(print);
        }
        if self.reference.is_empty() && prints.len() == self.sims.len() {
            w.failed += coop_worse_than_bl_eq(&shape) as u64;
            self.reference = prints;
        }
    }
}

impl Workload for SimSweep {
    const NAME: &'static str = "sim_sweep";
    const THREADED: bool = false;
    const SERIAL_UNITS: usize = 28;

    fn setup(_env: &Env, w: &mut Window) -> Self {
        // The library is fixed; the seed has nothing to vary here.
        let this = SimSweep {
            machine: Machine::marenostrum5(),
            sims: simulations(),
            reference: Vec::new(),
        };
        let first = this.simulate(0, 0, w);
        w.unit(first.is_some());
        this
    }

    /// Whole sweeps only, and at least one, so that every call compares like with like.
    fn run_until(&mut self, deadline: Instant, w: &mut Window) {
        loop {
            self.sweep(w);
            if Instant::now() >= deadline {
                return;
            }
        }
    }

    fn finish(self, _w: &mut Window) {}

    /// A unit here is already serial; the sweep's units differ in size, so the serial
    /// cost of one is the sweep's divided by their number.
    fn serial_units(_seed: u64) {
        for (spec, sel) in simulations() {
            SimExecutor::for_model(Machine::marenostrum5(), sel, &spec).run_spec(&spec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usf_scenarios::spec::WorkloadKind;

    #[test]
    fn a_report_that_differs_in_one_bit_does_not_repeat() {
        let spec = library::solo(WorkloadKind::Md, 4, ProblemSize::Tiny);
        let sim = SimExecutor::for_model(Machine::small_numa(4, 1), ModelSel::Coop, &spec);
        let report = sim.run_spec(&spec);
        assert_eq!(fingerprint(&report), fingerprint(&sim.run_spec(&spec)));
        let mut bent = report.clone();
        let latency = &mut bent.processes[0].unit_latencies_s[0];
        *latency = f64::from_bits(latency.to_bits() ^ 1);
        assert_ne!(fingerprint(&report), fingerprint(&bent));
    }

    #[test]
    fn a_sweep_is_seven_scenarios_under_four_models() {
        let sims = simulations();
        assert_eq!(sims.len(), SimSweep::SERIAL_UNITS);
        assert!(sims.iter().all(|(spec, _)| spec.name != "chaos"));
    }

    #[test]
    fn the_fig7_shape_check_looks_only_at_oversubscribed_scenarios() {
        let row = |over: f64, coop: u128, bl_eq: u128| {
            [
                (over, ModelSel::Fair, 9),
                (over, ModelSel::Coop, coop),
                (over, ModelSel::BlEq, bl_eq),
                (over, ModelSel::BlOpt, 9),
            ]
        };
        let sweep = [row(1.0, 5, 4), row(2.0, 4, 5), row(4.0, 6, 5)].concat();
        assert_eq!(coop_worse_than_bl_eq(&sweep), 1);
    }
}
