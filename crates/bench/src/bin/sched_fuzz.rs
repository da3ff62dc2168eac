//! Schedule-fuzzer smoke harness: seeded random op sequences against the real scheduler
//! (`usf_nosv::fuzz`), checking every invariant (no lost task, no double grant, domains
//! respected, gauges reconciled) and writing `BENCH_fuzz.json`.
//!
//! Usage: `cargo run -p usf-bench --release --bin sched_fuzz [--smoke] [flags]`
//!
//! Three layers, in order:
//!
//! 1. **canary** — before trusting a green sweep, prove the oracle has teeth: inject the
//!    lost-submit mutation into a heal-free sequence and require the harness to report a
//!    `LostTask`, then shrink the counterexample and require it to reach one op. A silent
//!    canary fails the run immediately.
//! 2. **sweep** — `--seeds` seeded sequences per config over the whole config matrix
//!    (see below); every run must hold all invariants. `--smoke` (CI mode) runs
//!    256 seeds × 5 configs = 1280 interleavings.
//! 3. **replay** (only when built with `--features sched-trace`) — each sweep run is
//!    recorded and re-executed through the simulator's SCHED_COOP instantiation
//!    (`usf_simsched::replay`); any real-vs-sim drift fails the run.
//!
//! # The config matrix
//!
//! Every 4-core / 2-node config runs two scheduler shards, so cross-shard steals and shard
//! routing are in play everywhere but `valve`. The matrix had eight entries while the
//! sharded queue backing and the split-lock scheduler were separate policy kinds:
//!
//! | config        | shape                              | subsumes (old matrix)                 |
//! |---------------|------------------------------------|---------------------------------------|
//! | `base`        | 4c/2n, long quantum                | `base` (then one shard)               |
//! | `valve`       | 1c/1n, 1 ns quantum                | `valve` — the one-shard scheduler     |
//! | `shutdown`    | `base` + mid-sequence shutdown     | `shutdown`; `split-lock` (identical field for field); `sharded` (same shape over the deleted backing) |
//! | `domains`     | `base` + pin/unpin-heavy op mix    | `domains` (then one shard)            |
//! | `cross-valve` | 4c/2n, 12 slots, 1 ns quantum      | `split-valve` (identical); `sharded-valve` (same shape over the deleted backing) |
//!
//! `cross-valve` is the only config where the foreign aging probe competes with steals.
//!
//! On failure the counterexample is greedily shrunk and written to
//! `target/SCHED_FUZZ_counterexample.txt` (every CI job uploads it as an artifact, and
//! the path is printed so local runs find it too), and the process exits non-zero.

use std::time::Instant;
use usf_bench::cli::{self, FlagSpec};
use usf_bench::json::JsonObject;
use usf_nosv::fuzz::{execute, generate, shrink, FuzzConfig, FuzzOp, Mutation, Violation};

const FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "--smoke",
        value_name: None,
        help: "CI mode: 256 seeds x 5 configs = 1280 interleavings",
    },
    FlagSpec {
        name: "--seeds",
        value_name: Some("N"),
        help: "seeds per config (default 512; --smoke forces 256)",
    },
    FlagSpec {
        name: "--seed0",
        value_name: Some("S"),
        help: "first seed (default 0; sweep covers S..S+N)",
    },
    FlagSpec {
        name: "--json",
        value_name: Some("PATH"),
        help: "output file (default BENCH_fuzz.json)",
    },
    FlagSpec {
        name: "--counterexample",
        value_name: Some("PATH"),
        help:
            "shrunk-counterexample file on failure (default target/SCHED_FUZZ_counterexample.txt)",
    },
];

/// The config matrix the sweep covers; names appear in output and counterexamples.
fn matrix() -> Vec<(&'static str, FuzzConfig)> {
    vec![
        ("base", FuzzConfig::base()),
        ("valve", FuzzConfig::valve()),
        ("shutdown", FuzzConfig::shutdown_biased()),
        ("domains", FuzzConfig::domain_heavy()),
        ("cross-valve", FuzzConfig::cross_valve()),
    ]
}

/// Keep only ops that cannot legitimately cancel a pending wake-up (no detach, no
/// deregister, no shutdown), so the injected dropped submit must surface as a lost task.
fn without_healing_ops(ops: Vec<FuzzOp>) -> Vec<FuzzOp> {
    ops.into_iter()
        .filter(|op| {
            matches!(
                op,
                FuzzOp::Submit { .. }
                    | FuzzOp::RescueDrain
                    | FuzzOp::PinNode { .. }
                    | FuzzOp::Unpin { .. }
            )
        })
        .collect()
}

/// Prove the lost-task oracle fires and the shrinker minimises: inject `DropSubmit` into
/// heal-free sequences until one actually drops a submit, then require detection and a
/// one-op minimal reproduction.
fn run_canary() {
    let cfg = FuzzConfig::base();
    let mutation = Some(Mutation::DropSubmit { nth: 0 });
    for seed in 0..64u64 {
        let ops = without_healing_ops(generate(&cfg, seed));
        let has_submit = ops.iter().any(|o| matches!(o, FuzzOp::Submit { .. }));
        if !has_submit {
            continue;
        }
        let failure = match execute(&cfg, &ops, mutation) {
            Err(f) => f,
            Ok(_) => {
                eprintln!(
                    "sched_fuzz: CANARY SILENT at seed {seed}: a dropped submit went undetected"
                );
                std::process::exit(1);
            }
        };
        assert!(
            matches!(failure.violation, Violation::LostTask { .. }),
            "canary seed {seed}: expected LostTask, got {failure}"
        );
        let minimal = shrink(&cfg, &ops, mutation);
        assert_eq!(
            minimal.len(),
            1,
            "canary seed {seed}: shrinker left {} ops: {minimal:?}",
            minimal.len()
        );
        println!(
            "canary: seed {seed}: dropped submit detected ({failure}), shrunk {} -> {} op",
            ops.len(),
            minimal.len()
        );
        return;
    }
    eprintln!("sched_fuzz: no canary-eligible sequence in seeds 0..64");
    std::process::exit(1);
}

/// One sweep run. Without the `sched-trace` feature this is invariant checking only; with
/// it, the run is also recorded and replayed through the simulator. Returns the number of
/// aged pops the replay served (0 when not tracing).
fn run_one(name: &str, cfg: &FuzzConfig, seed: u64, ops: &[FuzzOp]) -> Result<u64, String> {
    #[cfg(feature = "sched-trace")]
    {
        let (result, meta, entries) = usf_nosv::fuzz::execute_traced(cfg, ops);
        if let Err(f) = result {
            return Err(format!("config {name} seed {seed}: {f}"));
        }
        let report = usf_simsched::replay::replay(&meta, &entries);
        if !report.is_clean() {
            return Err(format!(
                "config {name} seed {seed}: real-vs-sim replay drift: {:?} ({} mismatched grants)",
                report.divergence, report.mismatched_grants
            ));
        }
        Ok(report.aged_steps.len() as u64)
    }
    #[cfg(not(feature = "sched-trace"))]
    {
        execute(cfg, ops, None)
            .map(|_| 0)
            .map_err(|f| format!("config {name} seed {seed}: {f}"))
    }
}

/// Shrink a failing sequence and persist it for the CI artifact upload.
fn write_counterexample(path: &str, cfg_name: &str, cfg: &FuzzConfig, seed: u64, why: &str) {
    let ops = generate(cfg, seed);
    let minimal = shrink(cfg, &ops, None);
    let mut out = String::new();
    out.push_str(&format!(
        "sched_fuzz counterexample\nconfig: {cfg_name}\nseed: {seed}\n"
    ));
    out.push_str(&format!("failure: {why}\n"));
    out.push_str(&format!("original ops ({}):\n", ops.len()));
    for (i, op) in ops.iter().enumerate() {
        out.push_str(&format!("  {i:3}: {op}\n"));
    }
    out.push_str(&format!("shrunk ops ({}):\n", minimal.len()));
    for (i, op) in minimal.iter().enumerate() {
        out.push_str(&format!("  {i:3}: {op}\n"));
    }
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    if let Err(e) = std::fs::write(path, &out) {
        eprintln!("sched_fuzz: could not write {path}: {e}");
    } else {
        eprintln!("sched_fuzz: shrunk counterexample written to {path}");
    }
}

fn main() {
    let args = cli::parse_or_exit(
        "sched_fuzz",
        "Seeded schedule fuzzer: invariant sweep over the real scheduler (and, with \
         --features sched-trace, real-vs-sim replay), with an injected-bug canary.",
        FLAGS,
    );
    let smoke = args.has("--smoke");
    let seeds: u64 = if smoke {
        256
    } else {
        args.get_or("--seeds", 512).unwrap_or_else(|e| {
            eprintln!("sched_fuzz: {e}");
            std::process::exit(2);
        })
    };
    let seed0: u64 = args.get_or("--seed0", 0).unwrap_or_else(|e| {
        eprintln!("sched_fuzz: {e}");
        std::process::exit(2);
    });
    let json_path = args.get("--json").unwrap_or("BENCH_fuzz.json").to_string();
    let cex_path = args
        .get("--counterexample")
        .unwrap_or("target/SCHED_FUZZ_counterexample.txt")
        .to_string();

    let traced = cfg!(feature = "sched-trace");
    println!(
        "sched_fuzz: {} mode, {seeds} seeds/config from seed {seed0}, replay {}",
        if smoke { "smoke" } else { "full" },
        if traced { "on (sched-trace)" } else { "off" },
    );

    run_canary();

    let start = Instant::now();
    let mut interleavings = 0u64;
    let mut aged_replayed = 0u64;
    for (name, cfg) in matrix() {
        for seed in seed0..seed0 + seeds {
            let ops = generate(&cfg, seed);
            match run_one(name, &cfg, seed, &ops) {
                Ok(aged) => aged_replayed += aged,
                Err(why) => {
                    eprintln!("sched_fuzz: FAILED: {why}");
                    write_counterexample(&cex_path, name, &cfg, seed, &why);
                    std::process::exit(1);
                }
            }
            interleavings += 1;
        }
        println!("config {name}: {seeds} seeds green");
    }
    let elapsed = start.elapsed().as_secs_f64();
    if traced && aged_replayed == 0 {
        // The valve config (1 core, 1 ns quantum) starves by construction; its replays
        // must serve aged entries or the aging valve has stopped firing.
        eprintln!("sched_fuzz: no aged pop replayed across the sweep — aging valve dead?");
        std::process::exit(1);
    }

    println!(
        "sched_fuzz: {interleavings} interleavings green in {elapsed:.2}s ({:.0}/s)",
        interleavings as f64 / elapsed.max(1e-9)
    );
    JsonObject::new()
        .field("benchmark", "sched_fuzz")
        .field("mode", if smoke { "smoke" } else { "full" })
        .field("seeds_per_config", seeds)
        .field("configs", matrix().len())
        .field("interleavings", interleavings)
        .field("violations", 0u64)
        .field("canary_caught", true)
        .field("replay", traced)
        .field("replayed_aged_pops", aged_replayed)
        .num("elapsed_s", elapsed, 2)
        .write_file(&json_path);
}
