//! `usf_perf` — the repo's fixed-work benchmark: five workloads, end-to-end metrics from an
//! untraced pass, per-layer metrics from a traced pass and micro-probes. See `README.md`
//! beside this package for what every workload and metric means.
//!
//! Two ways to run it:
//!
//! * `--workload NAME --seed N --seconds S --trace 0|1` — one pass of one workload; the last
//!   line of standard output is the result object `BENCHMARK.json`'s driver reads.
//! * without `--trace` — every workload (or the one named), untraced then traced, printed as
//!   a table; `--aa` repeats the untraced pass and compares the two against the bounds,
//!   `--smoke` shrinks every window to one second.

mod host;
mod json;
mod kernel;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use json::Json;
use report::{Context, Metric, END_TO_END};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use workloads::corun::Corun;
use workloads::nested_blas::NestedBlas;
use workloads::sim_sweep::SimSweep;
use workloads::sync_churn::SyncChurn;
use workloads::thread_churn::ThreadChurn;
use workloads::{run_pass, serial_unit_s, Pass, PassPlan, Workload};

const WORKLOADS: [&str; 5] = [
    NestedBlas::NAME,
    SyncChurn::NAME,
    ThreadChurn::NAME,
    Corun::NAME,
    SimSweep::NAME,
];

/// The window `BENCHMARK.json` asks for (`run_seconds`) and the suite's default.
const DEFAULT_SECONDS: f64 = 20.0;
/// Slices of the untraced window: the end-to-end metrics are medians over them.
const SLICES: usize = 15;
/// Spans written to `trace.json`; the per-layer metrics use all of them.
const TRACE_FILE_SPANS: usize = 50_000;

const USAGE: &str = "usage: usf_perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
[--smoke] [--aa]
  --workload NAME  one of: nested_blas sync_churn thread_churn corun_service_batch sim_sweep
  --seed N         seed of every generated input (default 1)
  --seconds S      length of the measured window (default 20)
  --trace 0|1      run one pass of --workload and print the result object as the last line:
                   0 = untraced, the end-to-end metrics; 1 = traced, the per-layer metrics
  --smoke          one-second windows, every oracle on (a compile-and-run check)
  --aa             run the untraced pass twice and fail if the two differ by more than a bound";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    aa: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        smoke: false,
        aa: false,
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name}"));
                }
                out.workload = Some(name);
            }
            "--seed" => {
                out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                out.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--smoke" => out.smoke = true,
            "--aa" => out.aa = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if out.smoke {
        out.seconds = 1.0;
    }
    if out.trace.is_some() && out.workload.is_none() {
        return Err("--trace needs --workload".to_string());
    }
    Ok(out)
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// The untraced pass: where every end-to-end metric comes from.
fn untraced<W: Workload>(seed: u64, seconds: f64) -> Pass {
    let plan = PassPlan {
        repeat_setup: true,
        warmup: secs(seconds / 10.0),
        window: secs(seconds),
        slices: SLICES,
        traced: false,
    };
    run_pass::<W>(true, seed, plan)
}

/// Everything the traced run measures: its metrics, failures and spans.
struct Traced {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    overloaded: bool,
    threads: Vec<trace::ThreadTrace>,
}

/// The traced run: a short untraced window as the base of the tracing overhead, the traced
/// window, the same workload on OS threads, and the micro-probes.
fn traced<W: Workload>(seed: u64, seconds: f64) -> Traced {
    let plan = |share: f64, traced: bool| PassPlan {
        repeat_setup: false,
        warmup: secs(seconds / 20.0),
        window: secs(seconds * share),
        slices: 1,
        traced,
    };
    let reference = run_pass::<W>(true, seed, plan(0.3, false));
    let mut pass = run_pass::<W>(true, seed, plan(0.4, true));
    let os = W::THREADED.then(|| run_pass::<W>(false, seed, plan(0.2, false)));
    let (probes, probe_failures) = probes::run_all();
    let metrics = report::per_layer(
        &pass,
        &Context {
            reference: &reference,
            os: os.as_ref(),
            probes: &probes,
            serial_unit_s: serial_unit_s::<W>(seed),
            blas_flops_per_unit: W::BLAS_FLOPS_PER_UNIT,
        },
    );
    let passes = [Some(&pass), Some(&reference), os.as_ref()];
    let attempted: u64 = passes.iter().flatten().map(|p| p.attempted()).sum();
    let failed: u64 = passes.iter().flatten().map(|p| p.failed()).sum();
    Traced {
        metrics,
        attempted: attempted + probes.len() as u64,
        failed: failed + probe_failures,
        overloaded: pass.overloaded(),
        threads: pass.trace.take().expect("the pass was traced").1,
    }
}

/// Call `$f::<W>($args)` with the workload type `$name` names.
macro_rules! for_workload {
    ($name:expr, $f:ident($($arg:expr),*)) => {
        match $name {
            NestedBlas::NAME => $f::<NestedBlas>($($arg),*),
            SyncChurn::NAME => $f::<SyncChurn>($($arg),*),
            ThreadChurn::NAME => $f::<ThreadChurn>($($arg),*),
            Corun::NAME => $f::<Corun>($($arg),*),
            SimSweep::NAME => $f::<SimSweep>($($arg),*),
            other => unreachable!("{other} passed parse_args"),
        }
    };
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|&(name, unit, value)| {
                let entry = Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]);
                (name.to_string(), entry)
            })
            .collect(),
    )
}

/// The object the driver reads from the last line of standard output.
fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> Json {
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics_json(metrics)),
    ])
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_out(file: &str, body: &Json) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir())?;
    std::fs::write(out_dir().join(file), format!("{body}\n"))
}

/// One pass of one workload in this process: what the driver runs, and what the suite runs
/// as a child process for every pass it reports.
fn run_single(args: &Args, name: &str, traced_pass: bool) -> std::io::Result<bool> {
    let host = host::fingerprint(args.seed, args.seconds);
    let (metrics, attempted, failed, overloaded) = if traced_pass {
        let t = for_workload!(name, traced(args.seed, args.seconds));
        write_out(
            &format!("trace.{name}.json"),
            &Json::obj([
                ("host", host.clone()),
                ("workload", Json::str(name)),
                ("spans", trace::to_json(&t.threads, TRACE_FILE_SPANS)),
            ]),
        )?;
        (t.metrics, t.attempted, t.failed, t.overloaded)
    } else {
        let pass = for_workload!(name, untraced(args.seed, args.seconds));
        (
            report::end_to_end(&pass),
            pass.attempted(),
            pass.failed(),
            pass.overloaded(),
        )
    };
    for &(name, unit, value) in &metrics {
        println!("  {name:<36} {value:>16.4} {unit}");
    }
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    println!(
        "  {:<36} {failed_frac:>16.4} ratio ({failed} of {attempted})",
        "failed_frac"
    );
    if overloaded {
        println!("  OVERLOADED: the open loop's backlog at close exceeded 1 % of requests sent");
    }
    let result = result_json(attempted, failed, &metrics);
    let kind = if traced_pass {
        "per_layer"
    } else {
        "end_to_end"
    };
    write_out(
        &format!("{kind}.{name}.json"),
        &Json::obj([
            ("host", host),
            ("workload", Json::str(name)),
            ("result", result.clone()),
        ]),
    )?;
    println!("{result}");
    Ok(failed == 0)
}

/// The number that follows `key` in a line of JSON this program wrote.
fn number_after(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].parse().ok()
}

/// What a child pass printed as its result.
struct ChildPass {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

fn parse_result(line: &str, traced_pass: bool) -> Option<ChildPass> {
    let catalogue: Vec<(&str, &str)> = if traced_pass {
        report::PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let metrics = catalogue
        .into_iter()
        .map(|(name, unit)| {
            let value = number_after(line, &format!("\"{name}\":{{\"value\":"))?;
            Some((name, unit, value))
        })
        .collect::<Option<Vec<Metric>>>()?;
    Some(ChildPass {
        metrics,
        attempted: number_after(line, "\"attempted\":")? as u64,
        failed: number_after(line, "\"failed\":")? as u64,
    })
}

/// Run one pass as a child process, the way the driver does: every pass the suite reports
/// starts from a fresh heap and thread cache, so passes compare like with like.
fn child_pass(args: &Args, name: &str, traced_pass: bool) -> std::io::Result<ChildPass> {
    let out = std::process::Command::new(std::env::current_exe()?)
        .args([
            "--workload",
            name,
            "--trace",
            if traced_pass { "1" } else { "0" },
        ])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (table, result) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", ""));
    println!("{table}");
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    parse_result(result, traced_pass).ok_or_else(|| {
        std::io::Error::other(format!(
            "the {name} pass ended without a result ({})",
            out.status
        ))
    })
}

/// Compare two untraced passes of one workload against the bounds. Returns the number of
/// metrics that differ by more than their own bound.
fn compare_aa(name: &str, a: &[Metric], b: &[Metric]) -> usize {
    println!("  A/A: worsening between two passes of the same code vs. the bound");
    let mut over = 0;
    for ((def, a), b) in END_TO_END.iter().zip(a).zip(b) {
        let spread = stats::worsening(a.2, b.2, def.lower_is_better);
        let verdict = if spread > def.bound { "OVER" } else { "ok" };
        println!(
            "  {:<36} {:>9.4} vs {:>9.4}  spread {:>6.3}  bound {:>5.2}  {verdict}",
            def.name, a.2, b.2, spread, def.bound
        );
        if spread > def.bound {
            eprintln!(
                "A/A: {} on {name} differs by {spread:.3}, over its bound {}",
                def.name, def.bound
            );
            over += 1;
        }
    }
    over
}

/// Every selected workload, untraced then traced, each pass in a process of its own.
fn run_suite(args: &Args) -> std::io::Result<bool> {
    let host = host::fingerprint(args.seed, args.seconds);
    println!("host: {host}");
    let selected: Vec<&str> = WORKLOADS
        .iter()
        .copied()
        .filter(|w| args.workload.as_deref().is_none_or(|only| only == *w))
        .collect();
    let mut ok = true;
    let mut rows = Vec::new();
    for name in selected {
        println!("\n== {name}: end to end ==");
        let untraced = child_pass(args, name, false)?;
        ok &= untraced.failed == 0;
        if args.aa {
            println!("== {name}: end to end, again ==");
            let again = child_pass(args, name, false)?;
            ok &= again.failed == 0;
            ok &= compare_aa(name, &untraced.metrics, &again.metrics) == 0;
        }
        println!("== {name}: per layer ==");
        let traced = child_pass(args, name, true)?;
        ok &= traced.failed == 0;
        rows.push(Json::obj([
            ("workload", Json::str(name)),
            (
                "attempted",
                Json::Num((untraced.attempted + traced.attempted) as f64),
            ),
            (
                "failed",
                Json::Num((untraced.failed + traced.failed) as f64),
            ),
            ("end_to_end", metrics_json(&untraced.metrics)),
            ("per_layer", metrics_json(&traced.metrics)),
        ]));
    }
    write_out(
        "usf_perf.json",
        &Json::obj([("host", host), ("workloads", Json::Arr(rows))]),
    )?;
    println!("\nwrote {}", out_dir().join("usf_perf.json").display());
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if host::nproc() < workloads::CORES {
        eprintln!(
            "usf_perf needs {} CPUs for its {}-core USF instance; this host has {}",
            workloads::CORES,
            workloads::CORES,
            host::nproc()
        );
        return ExitCode::from(2);
    }
    let outcome = match (args.trace, args.workload.as_deref()) {
        (Some(traced_pass), Some(name)) => run_single(&args, name, traced_pass),
        _ => run_suite(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("usf_perf: an oracle failed or two A/A passes disagreed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("usf_perf: cannot write results: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let args = parse(&[
            "--workload",
            "sync_churn",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("sync_churn"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 15.0, Some(true)));
        assert!(parse(&["--smoke"]).unwrap().seconds == 1.0);
    }

    #[test]
    fn result_numbers_are_read_back() {
        let line = r#"{"correct":true,"attempted":12,"failed":0,"metrics":{"a":{"value":-1.5,"unit":"s"}}}"#;
        assert_eq!(number_after(line, r#""attempted":"#), Some(12.0));
        assert_eq!(number_after(line, r#""a":{"value":"#), Some(-1.5));
        assert_eq!(number_after(line, r#""b":{"value":"#), None);
        assert!(parse_result(line, false).is_none());
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--trace", "1"]).is_err());
        assert!(parse(&["--trace", "2", "--workload", "sim_sweep"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }

    /// A traced run of the cheapest workload with tiny windows: every catalogued metric
    /// is computed, nothing fails, and the result object has the driver's shape.
    #[test]
    fn a_traced_run_emits_every_per_layer_metric() {
        let _tracer = trace::TRACER_IN_USE
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let t = traced::<ThreadChurn>(3, 0.5);
        assert_eq!(t.metrics.len(), report::PER_LAYER.len());
        assert_eq!(t.failed, 0);
        assert!(t.metrics.iter().all(|m| m.2.is_finite()));
        assert!(!t.threads.is_empty());
        let line = result_json(t.attempted, t.failed, &t.metrics).to_string();
        assert!(line.starts_with(r#"{"correct":true,"attempted":"#));
        assert!(line.contains(r#""core.spawn_join_cached_ns":{"value":"#));
        // The suite reads its child passes' results back from exactly this line.
        let back = parse_result(&line, true).expect("the line parses");
        assert_eq!((back.attempted, back.failed), (t.attempted, 0));
        assert_eq!(back.metrics, t.metrics);
    }

    #[test]
    fn an_untraced_pass_yields_the_end_to_end_metrics() {
        let pass = untraced::<SyncChurn>(3, 0.3);
        let metrics = report::end_to_end(&pass);
        assert_eq!(metrics.len(), END_TO_END.len());
        assert!(metrics.iter().all(|m| m.2 > 0.0), "{metrics:?}");
        assert_eq!(pass.failed(), 0);
    }
}
