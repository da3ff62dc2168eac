//! The metric catalogue — names, units, directions and bounds, which `BENCHMARK.json`
//! repeats — and the arithmetic that turns measured passes into metric values.

use crate::probes::Probe;
use crate::stats;
use crate::trace::Layer;
use crate::workloads::{Pass, CORES};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the reference median by which the metric may worsen before it counts as
    /// a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "units_per_s",
        unit: "1/s",
        lower_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "unit_p50_ms",
        unit: "ms",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "unit_p99_ms",
        unit: "ms",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_unit",
        unit: "ms",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_mb",
        unit: "MB",
        lower_is_better: true,
        bound: 0.25,
    },
];

/// `(name, unit, higher is better)` of every per-layer metric, grouped by layer.
pub const PER_LAYER: [(&str, &str, bool); 55] = [
    ("parking_lot.mutex_lock_unlock_ns", "ns", false),
    ("parking_lot.condvar_handoff_ns", "ns", false),
    ("parking_lot.park_unpark_ns", "ns", false),
    ("nosv.yield_noop_ns", "ns", false),
    ("nosv.yield_switch_ns", "ns", false),
    ("nosv.pause_submit_ns", "ns", false),
    ("nosv.attach_detach_ns", "ns", false),
    ("nosv.waitfor_overshoot_us", "us", false),
    ("nosv.grants_per_unit", "count", false),
    ("nosv.pauses_per_unit", "count", false),
    ("nosv.yields_per_unit", "count", false),
    ("nosv.submits_per_unit", "count", false),
    ("nosv.affinity_hit_ratio", "ratio", true),
    ("nosv.wake_p50_ns", "ns", false),
    ("nosv.wake_p99_ns", "ns", false),
    ("nosv.dispatch_p50_ns", "ns", false),
    ("nosv.dispatch_p99_ns", "ns", false),
    ("nosv.intake_wait_p99_ns", "ns", false),
    ("nosv.pause_block_p50_ns", "ns", false),
    ("core.spawn_join_cached_ns", "ns", false),
    ("core.spawn_join_cold_ns", "ns", false),
    ("core.thread_cache_hit_ratio", "ratio", true),
    ("core.mutex_uncontended_ns", "ns", false),
    ("core.mutex_handoff_ns", "ns", false),
    ("core.condvar_signal_ns", "ns", false),
    ("core.barrier_round_ns", "ns", false),
    ("core.channel_msg_ns", "ns", false),
    ("core.sync_wait_frac", "ratio", false),
    ("core.sync_calls_per_unit", "count", false),
    ("runtimes.forkjoin_region_ns", "ns", false),
    ("runtimes.taskrt_task_ns", "ns", false),
    ("runtimes.taskrt_dep_task_ns", "ns", false),
    ("runtimes.threadpool_region_ns", "ns", false),
    ("runtimes.join_wait_frac", "ratio", false),
    ("runtimes.regions_per_unit", "count", false),
    ("blas.gemm_tile_serial_mflops", "MFLOP/s", true),
    ("blas.gemm_parallel_mflops", "MFLOP/s", true),
    ("blas.self_frac", "ratio", true),
    ("workloads.serial_unit_ms", "ms", false),
    ("workloads.efficiency", "ratio", true),
    ("workloads.compute_frac", "ratio", true),
    ("scenarios.plan_lower_us", "us", false),
    ("scenarios.hpc_pair_usf_ms", "ms", false),
    ("scenarios.hpc_pair_os_ms", "ms", false),
    ("scenarios.os_units_per_s", "1/s", true),
    ("scenarios.speedup_vs_os", "ratio", true),
    ("simsched.lower_us", "us", false),
    ("simsched.engine_self_frac", "ratio", true),
    ("simsched.ctx_switches_per_s", "1/s", true),
    ("simsched.coop_model_share", "ratio", false),
    ("bench.trace_overhead_frac", "ratio", false),
    ("bench.generator_lag_p99_us", "us", false),
    ("bench.slo_miss_frac", "ratio", false),
    ("bench.residual_frac", "ratio", false),
    ("bench.samples", "count", true),
];

/// One named value with its unit.
pub type Metric = (&'static str, &'static str, f64);

/// Groups the slices' latency samples are pooled into before taking percentiles, so that
/// each group holds enough samples for a tail percentile.
const LATENCY_GROUPS: usize = 5;

/// The end-to-end metrics of an untraced pass, in catalogue order: medians over the
/// pass's slices (see `PassPlan::slices`).
pub fn end_to_end(pass: &Pass) -> Vec<Metric> {
    let busy: Vec<_> = pass.slices.iter().filter(|w| w.units > 0).collect();
    let rates: Vec<f64> = busy.iter().map(|w| w.units as f64 / w.window_s).collect();
    let cpu_ms: Vec<f64> = busy
        .iter()
        .map(|w| w.cpu_s * 1e3 / w.units as f64)
        .collect();

    let samples: usize = pass.slices.iter().map(|w| w.lat_ms.len()).sum();
    // Chosen for the whole window's sample count, then taken per group.
    let tail_p = stats::tail_percentile(samples);
    let per_group = pass.slices.len().div_ceil(LATENCY_GROUPS);
    let groups: Vec<Vec<f64>> = pass
        .slices
        .chunks(per_group)
        .map(|group| {
            let pooled: Vec<f64> = group
                .iter()
                .flat_map(|w| w.lat_ms.iter().copied())
                .collect();
            stats::sorted(&pooled)
        })
        .filter(|g| !g.is_empty())
        .collect();
    // The `p`-th percentile of every group, then the `pick`-th across the groups.
    let across = |p: f64, pick: f64| {
        let per_group: Vec<f64> = groups.iter().map(|g| stats::percentile(g, p)).collect();
        if per_group.is_empty() {
            0.0
        } else {
            stats::percentile(&stats::sorted(&per_group), pick)
        }
    };

    let values = [
        stats::median(&pass.setup_s),
        stats::median(&rates),
        across(0.5, 0.5),
        // The tail is where host interference lands first, so it is read in the quieter
        // stretches: the lower quartile across the groups, not their median.
        across(tail_p, 0.25),
        stats::median(&cpu_ms),
        pass.slices.last().map_or(0.0, |w| w.rss_mb),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(def, v)| (def.name, def.unit, v))
        .collect()
}

/// What the traced run measured besides its traced pass.
pub struct Context<'a> {
    /// A short untraced window of the same run: the base of the tracing overhead.
    pub reference: &'a Pass,
    /// The same workload on plain OS threads, when it has threads at all.
    pub os: Option<&'a Pass>,
    pub probes: &'a [Probe],
    pub serial_unit_s: f64,
    pub blas_flops_per_unit: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric of a traced pass, in catalogue order. Metrics of a layer the
/// workload does not touch read 0.
pub fn per_layer(traced: &Pass, ctx: &Context<'_>) -> Vec<Metric> {
    let w = traced.whole();
    let units = w.units.max(1) as f64;
    let (summary, _) = traced.trace.as_ref().expect("the pass was traced");
    let probe = |name: &str| {
        ctx.probes
            .iter()
            .find(|p| p.name == name)
            .map_or(0.0, |p| p.value)
    };

    // Shares of the harness threads' time: each of them is, at every instant, inside one
    // innermost span or in the harness's own glue, so the layer shares and the residual
    // add up to one.
    let harness_ns = summary.harness_threads as f64 * w.window_s * 1e9;
    let layer_ns = |layer: Layer| summary.harness_self_ns[layer as usize] as f64;
    let accounted_ns = summary.harness_self_ns.iter().sum::<u64>() as f64;
    // Lowering is inside every `run_spec` span; the probe says what it costs alone.
    let lowering_ns = units * probe("simsched.lower_us") * 1e3;
    let engine_ns = (layer_ns(Layer::Simsched) - lowering_ns).max(0.0);

    // Shares of the core time: compute is on-core wherever it ran. The BLAS calls sit
    // inside `usf-workloads`, so their share is computed from the serial tile rate.
    let core_ns = CORES as f64 * w.window_s * 1e9;
    let tile_flops_per_ns = probe("blas.gemm_tile_serial_mflops") / 1e3;
    let blas_ns = ratio(ctx.blas_flops_per_unit * units, tile_flops_per_ns);
    let compute_ns = summary.compute_ns as f64 + blas_ns;

    let (counters, stages) = match &traced.nosv {
        Some(s) => (s.counters, Some(&s.stages)),
        None => (Default::default(), None),
    };
    let stage_ns = |pick: fn(&usf_nosv::StageSnapshot) -> &usf_nosv::HistogramSnapshot, p: f64| {
        stages.map_or(0.0, |s| pick(s).percentile(p) as f64)
    };

    let traced_rate = traced.units_per_s();
    let os_rate = ctx.os.map_or(0.0, Pass::units_per_s);
    let lag = stats::sorted(&w.gen_lag_us);

    let mut values: Vec<(&str, f64)> = ctx.probes.iter().map(|p| (p.name, p.value)).collect();
    values.extend([
        ("nosv.grants_per_unit", counters.grants as f64 / units),
        ("nosv.pauses_per_unit", counters.pauses as f64 / units),
        (
            "nosv.yields_per_unit",
            (counters.yields + counters.yields_noop) as f64 / units,
        ),
        ("nosv.submits_per_unit", counters.submits as f64 / units),
        (
            "nosv.affinity_hit_ratio",
            ratio(counters.affinity_hits as f64, counters.grants as f64),
        ),
        ("nosv.wake_p50_ns", stage_ns(|s| &s.wake, 0.5)),
        ("nosv.wake_p99_ns", stage_ns(|s| &s.wake, 0.99)),
        ("nosv.dispatch_p50_ns", stage_ns(|s| &s.dispatch, 0.5)),
        ("nosv.dispatch_p99_ns", stage_ns(|s| &s.dispatch, 0.99)),
        (
            "nosv.intake_wait_p99_ns",
            stage_ns(|s| &s.intake_wait, 0.99),
        ),
        ("nosv.pause_block_p50_ns", stage_ns(|s| &s.pause_block, 0.5)),
        (
            "core.thread_cache_hit_ratio",
            ratio(
                traced.cache.1 as f64,
                (traced.cache.0 + traced.cache.1) as f64,
            ),
        ),
        (
            "core.sync_wait_frac",
            ratio(summary.sync_self_ns as f64, harness_ns),
        ),
        (
            "core.sync_calls_per_unit",
            summary.sync_calls as f64 / units,
        ),
        (
            "runtimes.join_wait_frac",
            ratio(layer_ns(Layer::Runtimes), harness_ns),
        ),
        (
            "runtimes.regions_per_unit",
            summary.runtime_calls as f64 / units,
        ),
        ("blas.self_frac", ratio(blas_ns, core_ns)),
        ("workloads.serial_unit_ms", ctx.serial_unit_s * 1e3),
        (
            "workloads.efficiency",
            traced_rate * ctx.serial_unit_s / CORES as f64,
        ),
        ("workloads.compute_frac", ratio(compute_ns, core_ns)),
        ("scenarios.os_units_per_s", os_rate),
        (
            "scenarios.speedup_vs_os",
            ratio(ctx.reference.units_per_s(), os_rate),
        ),
        ("simsched.engine_self_frac", ratio(engine_ns, harness_ns)),
        (
            "simsched.ctx_switches_per_s",
            w.sim_ctx_switches / w.window_s,
        ),
        (
            "simsched.coop_model_share",
            ratio(w.sim_coop_s * 1e3, w.lat_ms.iter().sum()),
        ),
        (
            "bench.trace_overhead_frac",
            1.0 - ratio(traced_rate, ctx.reference.units_per_s()),
        ),
        (
            "bench.generator_lag_p99_us",
            if lag.is_empty() {
                0.0
            } else {
                stats::percentile(&lag, stats::tail_percentile(lag.len()))
            },
        ),
        (
            "bench.slo_miss_frac",
            ratio(w.slo_misses as f64, w.requests as f64),
        ),
        ("bench.residual_frac", 1.0 - ratio(accounted_ns, harness_ns)),
        ("bench.samples", w.lat_ms.len() as f64),
    ]);
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let value = values
                .iter()
                .find(|v| v.0 == name)
                .unwrap_or_else(|| panic!("metric {name} is catalogued but not computed"))
                .1;
            (name, unit, value)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; the binary must print exactly the
    /// metrics it names, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_repeats_the_catalogue() {
        let file = include_str!("../../BENCHMARK.json");
        let entry = |name: &str, unit: &str, lower: bool| {
            let better = if lower { "lower" } else { "higher" };
            format!(r#"{{"name": "{name}", "unit": "{unit}", "better": "{better}""#)
        };
        for def in &END_TO_END {
            let want = format!(
                r#"{}, "bound": {}}}"#,
                entry(def.name, def.unit, def.lower_is_better),
                def.bound
            );
            assert!(file.contains(&want), "BENCHMARK.json lacks {want}");
        }
        for &(name, unit, higher) in &PER_LAYER {
            let want = format!("{}}}", entry(name, unit, !higher));
            assert!(file.contains(&want), "BENCHMARK.json lacks {want}");
        }
        let names = file.matches(r#"{"name": "#).count();
        assert_eq!(names, 5 + END_TO_END.len() + PER_LAYER.len());
        assert_eq!(PER_LAYER.len(), 55);
    }

    #[test]
    fn catalogue_names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER
            .iter()
            .map(|m| m.0)
            .chain(END_TO_END.iter().map(|m| m.name))
            .collect();
        names.sort_unstable();
        let total = names.len();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
