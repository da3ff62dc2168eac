//! Chaos harness: the scenario library under seeded fault schedules on the real
//! executors, proving the degradation contract end to end and writing
//! `BENCH_chaos.json`.
//!
//! Usage: `cargo run -p usf-bench --release --bin sched_chaos [--smoke] [flags]`
//!
//! Four phases, in order:
//!
//! 1. **canary** — prove the fault plane and the lost-task oracle are non-vacuous: an
//!    injected dropped wakeup must actually lose the task (no hidden hardening absorbs
//!    it), and the documented level-triggered re-submit must recover it. A silent canary
//!    fails the run.
//! 2. **stalls** — inject worker stalls into dedicated single-core schedulers and
//!    require the grant-to-run watchdog to flag 100% of them, attributing the right
//!    task.
//! 3. **faulted fuzz** — the `usf_nosv::fuzz` op alphabet under absorbable fault plans
//!    (duplicated wakeups, bounded drain delays, a widened shutdown race), each run
//!    recorded: every invariant must hold, and every faulted run must replay
//!    divergence-free through the simulator.
//! 4. **sweep** — `--schedules` seeded fault schedules (default 256 in `--smoke`) cycled
//!    over the whole scenario library on the real USF executor (every 8th schedule also
//!    on the OS baseline): injected unit panics, mid-run process death, and
//!    scheduler-level sites including unbounded intake-drain delays and 120ms worker
//!    stalls. Per-process unit accounting is exact, so one lost task anywhere fails the
//!    sweep.
//!
//! The whole run is bounded by a global deadline (`--deadline`, default 300s): if any
//! faulted run hangs, the harness exits 2 instead of wedging CI.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use usf_bench::cli::{self, FlagSpec};
use usf_bench::json::JsonObject;
use usf_scenarios::spec::{FaultPlanSpec, FaultSite, FaultSpec, ProblemSize};
use usf_scenarios::{library, Executor, OsExecutor, ScenarioReport, ScenarioSpec, UsfExecutor};

const FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "--smoke",
        value_name: None,
        help: "CI mode: 256 fault schedules over the scenario library",
    },
    FlagSpec {
        name: "--schedules",
        value_name: Some("N"),
        help: "seeded fault schedules to sweep (default 512; --smoke forces 256)",
    },
    FlagSpec {
        name: "--seed0",
        value_name: Some("S"),
        help: "first schedule seed (default 0; sweep covers S..S+N)",
    },
    FlagSpec {
        name: "--deadline",
        value_name: Some("SECS"),
        help: "global no-hang deadline; exceeding it exits 2 (default 300)",
    },
    FlagSpec {
        name: "--json",
        value_name: Some("PATH"),
        help: "output file (default BENCH_chaos.json)",
    },
    FlagSpec {
        name: "--trace-jsonl",
        value_name: Some("PATH"),
        help: "record a traced+faulted mini-scenario as sched_trace JSONL",
    },
    FlagSpec {
        name: "--samples-jsonl",
        value_name: Some("PATH"),
        help: "stats-sampler series for the traced scenario (default SAMPLES_chaos.jsonl)",
    },
];

/// Flipped once every phase has finished; the deadline thread then stands down.
static DONE: AtomicBool = AtomicBool::new(false);

/// The zero-hangs guarantee: a detached thread that hard-exits the process (code 2) if
/// the phases have not all completed within the deadline. Scheduler-level faults delay
/// and strand wakeups on purpose — a bug in the rescue path would otherwise wedge CI.
fn arm_global_deadline(secs: u64) {
    std::thread::spawn(move || {
        let t0 = Instant::now();
        while !DONE.load(Ordering::Relaxed) {
            if t0.elapsed() >= Duration::from_secs(secs) {
                eprintln!("sched_chaos: GLOBAL DEADLINE ({secs}s) exceeded — a faulted run hung");
                std::process::exit(2);
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    });
}

/// Phase 1: prove non-vacuity. With the level-triggered retry *not* exercised, an
/// injected dropped wakeup must be observably lost — if the stack silently absorbs it,
/// every green sweep below proves nothing. Then exercise the retry and require recovery.
fn run_canary() {
    use usf_nosv::scheduler::Scheduler;
    use usf_nosv::{FaultPlan, FaultSpec, NosvConfig, TaskState};
    let s = Scheduler::new(NosvConfig::with_cores(2));
    let fs = s.install_faults(
        &FaultPlan::new(0xC0FF).arm(FaultSpec::new(FaultSite::DropWakeup).one_in(1).max_fires(1)),
    );
    let p = s.register_process("canary");
    let t = s.create_task(p, None).expect("canary: create_task");
    s.submit(&t); // armed: this wakeup is dropped before any bookkeeping
    if t.state() != TaskState::Created
        || s.busy_cores() != 0
        || fs.fires(FaultSite::DropWakeup) != 1
    {
        eprintln!(
            "sched_chaos: CANARY SILENT: an injected dropped wakeup was not lost \
             (state {:?}, busy {}, fires {}) — the lost-task oracle is vacuous",
            t.state(),
            s.busy_cores(),
            fs.fires(FaultSite::DropWakeup)
        );
        std::process::exit(1);
    }
    // The documented degradation contract: recovery is level-triggered re-submission.
    s.submit(&t);
    if t.state() != TaskState::Running {
        eprintln!("sched_chaos: level-triggered re-submit did not recover the dropped wakeup");
        std::process::exit(1);
    }
    s.shutdown();
    println!("canary: dropped wakeup observably lost, level-triggered re-submit recovered it");
}

/// Phase 2: 100% stall detection. Each injection gets a fresh single-core scheduler; the
/// armed worker stalls 80ms inside `pause` while holding its grant, and the watchdog
/// must flag exactly that task before the stall window closes.
fn run_stall_detection() -> u64 {
    use std::sync::Arc;
    use usf_nosv::scheduler::Scheduler;
    use usf_nosv::{FaultPlan, FaultSpec, NosvConfig, TaskRef, TaskState};
    const INJECTIONS: u64 = 8;
    for i in 0..INJECTIONS {
        let s = Arc::new(Scheduler::new(NosvConfig::with_cores(1)));
        let fs = s.install_faults(
            &FaultPlan::new(i).arm(
                FaultSpec::new(FaultSite::WorkerStall)
                    .one_in(1)
                    .max_fires(1)
                    .stall(Duration::from_millis(80)),
            ),
        );
        let p = s.register_process("stall");
        let t = s.create_task(p, None).expect("stall: create_task");
        s.submit(&t);
        let s2 = Arc::clone(&s);
        let tc = TaskRef::clone(&t);
        let h = std::thread::spawn(move || s2.pause(&tc));
        let t0 = Instant::now();
        let mut flagged = Vec::new();
        while flagged.is_empty() {
            if t0.elapsed() > Duration::from_secs(20) {
                eprintln!("sched_chaos: injected stall {i} was never flagged by the watchdog");
                std::process::exit(1);
            }
            flagged = s.watchdog_scan(Duration::from_millis(10));
            std::thread::sleep(Duration::from_millis(2));
        }
        if flagged[0].task != t.id() || fs.fires(FaultSite::WorkerStall) != 1 {
            eprintln!(
                "sched_chaos: stall {i}: watchdog flagged task {:?}, expected {:?}",
                flagged[0].task,
                t.id()
            );
            std::process::exit(1);
        }
        // Wake the stalled worker (its pause blocked after the stall) so the run ends.
        while t.state() != TaskState::Blocked {
            std::thread::yield_now();
        }
        s.submit(&t);
        h.join().expect("stalled worker joins");
        s.shutdown();
    }
    println!("stalls: {INJECTIONS}/{INJECTIONS} injected worker stalls flagged by the watchdog");
    INJECTIONS
}

/// Phase 3: the fuzz op alphabet under absorbable fault plans, every run recorded and
/// replayed. Returns `(runs, total fault fires)`; every run is a divergence-free replay.
fn run_faulted_fuzz(seeds: u64) -> (u64, u64) {
    use usf_nosv::fuzz::{absorbable_fault_plan, execute_recorded, generate, FuzzConfig};
    let matrix = [
        ("base", FuzzConfig::base()),
        ("valve", FuzzConfig::valve()),
        ("shutdown", FuzzConfig::shutdown_biased()),
    ];
    let mut runs = 0u64;
    let mut fires = 0u64;
    for (name, cfg) in matrix {
        for seed in 0..seeds {
            let ops = generate(&cfg, seed);
            let plan = absorbable_fault_plan(seed);
            let (result, meta, entries) = execute_recorded(&cfg, &ops, Some(&plan));
            let stats = result.unwrap_or_else(|f| {
                eprintln!("sched_chaos: faulted fuzz {name} seed {seed}: {f}");
                std::process::exit(1);
            });
            let report = usf_simsched::replay::replay(&meta, &entries);
            if !report.is_clean() {
                eprintln!(
                    "sched_chaos: faulted fuzz {name} seed {seed}: real-vs-sim replay \
                     drift: {:?} ({} mismatched grants)",
                    report.divergence, report.mismatched_grants
                );
                std::process::exit(1);
            }
            fires += stats.faults_injected;
            runs += 1;
        }
    }
    if fires == 0 {
        eprintln!("sched_chaos: no fault fired across {runs} faulted fuzz runs — plane dead?");
        std::process::exit(1);
    }
    println!(
        "faulted fuzz: {runs} runs green, {fires} fault fires, {runs} divergence-free replays"
    );
    (runs, fires)
}

/// Optional phase (`--trace-jsonl`): record a dedicated traced + faulted mini-scenario
/// and dump it as `sched_trace` JSONL plus a stats-sampler series, for conversion to a
/// Perfetto timeline by `usf_trace` (CI validates and uploads the result).
///
/// The scenario is sized for a readable timeline, not throughput: 3 workers on 2 cores
/// yielding/pausing/timed-waiting through 12 rounds each, with deterministic fault
/// fires armed (two 10ms worker stalls, duplicated wakeups, delayed intake drains) so
/// the exported track provably carries fault instants. A waker thread keeps pauses
/// level-triggered-recoverable and a watchdog thread flags the injected stalls, exactly
/// as a production embedder would run the scheduler.
fn run_trace_export(trace_path: &str, samples_path: &str) {
    use std::sync::Arc;
    use usf_nosv::scheduler::Scheduler;
    use usf_nosv::{sched_trace, FaultPlan, NosvConfig, TaskRef};

    const WORKERS: usize = 3;
    const ROUNDS: usize = 12;
    let mut sched = Scheduler::new(NosvConfig::with_cores(2));
    let rec = sched.install_tracer();
    let s = Arc::new(sched);
    let fs = s.install_faults(
        &FaultPlan::new(0x0B5E)
            .arm(
                FaultSpec::new(FaultSite::WorkerStall)
                    .one_in(1)
                    .max_fires(2)
                    .stall(Duration::from_millis(10)),
            )
            .arm(
                FaultSpec::new(FaultSite::DuplicateWakeup)
                    .one_in(1)
                    .max_fires(3),
            )
            .arm(
                FaultSpec::new(FaultSite::DelayIntakeDrain)
                    .one_in(4)
                    .max_fires(2),
            ),
    );
    let sampler = s.start_sampler(Duration::from_micros(250));
    let p = s.register_process("traced");

    let done = Arc::new(AtomicBool::new(false));
    let watchdog = {
        let s = Arc::clone(&s);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut flagged = 0u64;
            while !done.load(Ordering::Relaxed) {
                flagged += s.watchdog_scan(Duration::from_millis(5)).len() as u64;
                std::thread::sleep(Duration::from_millis(1));
            }
            flagged
        })
    };

    let mut tasks = Vec::new();
    let mut workers = Vec::new();
    for w in 0..WORKERS {
        let t = s
            .create_task(p, Some(format!("w{w}")))
            .expect("trace export: create_task");
        tasks.push(TaskRef::clone(&t));
        s.submit(&t);
        let s2 = Arc::clone(&s);
        workers.push(std::thread::spawn(move || {
            s2.attach(&t);
            for round in 0..ROUNDS {
                let t0 = Instant::now();
                while t0.elapsed() < Duration::from_micros(150) {
                    std::hint::spin_loop();
                }
                match round % 4 {
                    3 => s2.pause(&t),
                    1 => {
                        let _ = s2.waitfor(&t, Duration::from_micros(300));
                    }
                    _ => {
                        s2.yield_now(&t);
                    }
                }
            }
            s2.detach(&t);
        }));
    }
    // Level-triggered waker: every pause above is recovered by a later submit (redundant
    // submits are absorbed as pending wakeups).
    let waker = {
        let s = Arc::clone(&s);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                for t in &tasks {
                    s.submit(t);
                }
                std::thread::sleep(Duration::from_micros(500));
            }
        })
    };
    for h in workers {
        h.join().expect("trace export: worker joins");
    }
    done.store(true, Ordering::Relaxed);
    let stalls_flagged = watchdog.join().expect("trace export: watchdog joins");
    waker.join().expect("trace export: waker joins");
    s.shutdown();
    let samples = sampler.stop();

    if fs.total_fires() == 0 {
        eprintln!("sched_chaos: trace export ran but no fault fired — plane dead?");
        std::process::exit(1);
    }
    let entries = rec.snapshot();
    std::fs::write(trace_path, sched_trace::to_jsonl(rec.meta(), &entries))
        .unwrap_or_else(|e| panic!("writing {trace_path}: {e}"));
    let mut lines = String::new();
    for sample in &samples {
        lines.push_str(&sample.to_jsonl_line());
        lines.push('\n');
    }
    std::fs::write(samples_path, lines).unwrap_or_else(|e| panic!("writing {samples_path}: {e}"));
    println!(
        "trace export: {} events, {} fault fires ({} stalls flagged), {} samples -> \
         {trace_path} + {samples_path}",
        entries.len(),
        fs.total_fires(),
        stalls_flagged,
        samples.len()
    );
}

/// The seeded fault schedule of sweep iteration `seed` over `spec`: unit panics on
/// every process, a mid-run kill on 3 schedules in 4 (always effective: the victim dies
/// strictly within its unit count), and scheduler-level sites — absorbable wakeup
/// duplication, *unbounded* intake-drain delays (the executor's watchdog rescue keeps
/// the run live), and on every third schedule a 120ms worker stall the watchdog must
/// flag. `DropWakeup` is deliberately never armed here: it is
/// the canary fault, lost by design.
fn chaos_schedule(seed: u64, spec: &ScenarioSpec) -> FaultPlanSpec {
    let nprocs = spec.procs.len();
    let victim = (seed as usize / 4) % nprocs;
    let units = spec.procs[victim].units.max(1);
    let mut fs = FaultPlanSpec::new(0x5EED_C4A0 ^ seed)
        .panics([2, 3, 5][(seed % 3) as usize], 1 + (seed % 3) as u32);
    if seed % 4 != 3 {
        fs = fs.kill(victim, 1 + (seed as usize / 4) % units);
    }
    fs = fs
        .sched_site(FaultSpec::new(FaultSite::DuplicateWakeup).one_in(3))
        .sched_site(FaultSpec::new(FaultSite::DelayIntakeDrain).one_in(4));
    if seed % 3 == 0 {
        fs = fs.sched_site(
            FaultSpec::new(FaultSite::WorkerStall)
                .one_in(1)
                .max_fires(1)
                .stall(Duration::from_millis(120)),
        );
    }
    fs
}

/// Aggregates of one verified sweep run.
#[derive(Default)]
struct RunStats {
    latencies: u64,
    panics: u64,
    kills: u64,
    driver_fires: u64,
    sched_fires: u64,
    stall_fires: u64,
    stalls_detected: u64,
}

/// The sweep oracle. Unit accounting under faults is *exact*: a killed victim records
/// precisely `kill_after` latencies, every other process all of its units (panicked
/// units included — a caught panic loses the unit's work, never its accounting), and
/// per-process injected-fault counts equal observed panics plus the death. On USF runs
/// the scheduler's own counters must agree (`processes_killed`), and every injected
/// worker stall must have been flagged (`stalls_detected >= fault_fires_worker_stall`).
fn verify_report(
    r: &ScenarioReport,
    spec: &ScenarioSpec,
    fs: &FaultPlanSpec,
    seed: u64,
) -> Result<RunStats, String> {
    let mut stats = RunStats::default();
    let ctx = |name: &str| format!("seed {seed} {} {}/{name}", spec.name, r.executor);
    for (i, p) in r.processes.iter().enumerate() {
        let units = spec.procs[i].units;
        let killed = fs.kill_proc == Some(i) && fs.kill_after_units <= units;
        let expected = if killed {
            fs.kill_after_units.max(1)
        } else {
            units
        };
        if p.unit_latencies_s.len() != expected {
            return Err(format!(
                "{}: {} unit latencies, expected {expected} — a task was lost or duplicated",
                ctx(&p.name),
                p.unit_latencies_s.len()
            ));
        }
        if p.survived == killed {
            return Err(format!(
                "{}: survived={} but killed={killed}",
                ctx(&p.name),
                p.survived
            ));
        }
        let expected_faults = p.panicked_units.len() as u64 + u64::from(killed);
        if p.injected_faults != expected_faults {
            return Err(format!(
                "{}: {} injected faults recorded, expected {expected_faults}",
                ctx(&p.name),
                p.injected_faults
            ));
        }
        if p.panicked_units.len() as u32 > fs.max_panics {
            return Err(format!(
                "{}: {} panics exceed the cap {}",
                ctx(&p.name),
                p.panicked_units.len(),
                fs.max_panics
            ));
        }
        if p.panicked_units.iter().any(|&u| u >= expected) {
            return Err(format!(
                "{}: panicked unit index out of range: {:?}",
                ctx(&p.name),
                p.panicked_units
            ));
        }
        stats.latencies += p.unit_latencies_s.len() as u64;
        stats.panics += p.panicked_units.len() as u64;
        stats.kills += u64::from(killed);
        stats.driver_fires += p.injected_faults;
    }
    if let Some(sched) = &r.sched {
        let expected_kills = f64::from(u8::from(fs.kill_proc.is_some()));
        if sched.get("processes_killed") != Some(expected_kills) {
            return Err(format!(
                "seed {seed} {}: scheduler saw {:?} kills, expected {expected_kills}",
                spec.name,
                sched.get("processes_killed")
            ));
        }
        let stall_fires = sched.get("fault_fires_worker_stall").unwrap_or(0.0);
        let detected = sched.get("stalls_detected").unwrap_or(0.0);
        // Stall detection is only demanded on kill-free schedules: a mid-run kill can
        // reclaim the staller's core (mark it idle) before the watchdog's deadline
        // passes, which resolves the stall by reclamation instead of flagging it.
        if fs.kill_proc.is_none() && detected < stall_fires {
            return Err(format!(
                "seed {seed} {}: {stall_fires} injected stalls but only {detected} flagged",
                spec.name
            ));
        }
        stats.sched_fires += sched.get("faults_injected").unwrap_or(0.0) as u64;
        stats.stall_fires += stall_fires as u64;
        stats.stalls_detected += detected as u64;
    }
    Ok(stats)
}

impl RunStats {
    fn absorb(&mut self, other: RunStats) {
        self.latencies += other.latencies;
        self.panics += other.panics;
        self.kills += other.kills;
        self.driver_fires += other.driver_fires;
        self.sched_fires += other.sched_fires;
        self.stall_fires += other.stall_fires;
        self.stalls_detected += other.stalls_detected;
    }
}

fn main() {
    let args = cli::parse_or_exit(
        "sched_chaos",
        "Chaos harness: the scenario library under seeded fault schedules on the real \
         executors (canary, 100% stall detection, faulted fuzzing, exact-accounting \
         sweep), bounded by a global no-hang deadline.",
        FLAGS,
    );
    let smoke = args.has("--smoke");
    let schedules: u64 = if smoke {
        256
    } else {
        args.get_or("--schedules", 512).unwrap_or_else(|e| {
            eprintln!("sched_chaos: {e}");
            std::process::exit(2);
        })
    };
    let seed0: u64 = args.get_or("--seed0", 0).unwrap_or_else(|e| {
        eprintln!("sched_chaos: {e}");
        std::process::exit(2);
    });
    let deadline: u64 = args.get_or("--deadline", 300).unwrap_or_else(|e| {
        eprintln!("sched_chaos: {e}");
        std::process::exit(2);
    });
    let json_path = args.get("--json").unwrap_or("BENCH_chaos.json").to_string();

    println!(
        "sched_chaos: {} mode, {schedules} fault schedules from seed {seed0}, \
         deadline {deadline}s",
        if smoke { "smoke" } else { "full" },
    );
    // Injected unit-body panics are caught and accounted by the drivers; keep their
    // expected backtrace spam out of the logs while leaving real panics visible.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.contains("injected unit-body panic"));
        if !injected {
            default_hook(info);
        }
    }));
    arm_global_deadline(deadline);
    let start = Instant::now();

    run_canary();
    let stall_injections = run_stall_detection();
    let (fuzz_runs, fuzz_fires) = run_faulted_fuzz(if smoke { 64 } else { 128 });

    if let Some(trace_path) = args.get("--trace-jsonl") {
        run_trace_export(
            trace_path,
            args.get("--samples-jsonl").unwrap_or("SAMPLES_chaos.jsonl"),
        );
    }

    // Phase 4: the library sweep. Every schedule runs on the real USF stack; every 8th
    // also on the OS baseline (same driver-level faults, no scheduler to observe them).
    let entries = library::all(4, ProblemSize::Tiny);
    let mut totals = RunStats::default();
    let mut usf_runs = 0u64;
    let mut os_runs = 0u64;
    for seed in seed0..seed0 + schedules {
        let base = &entries[(seed % entries.len() as u64) as usize];
        let fs = chaos_schedule(seed, base);
        let spec = base.clone().with_faults(fs.clone());
        let reports = {
            let mut v = vec![UsfExecutor::new().run_spec(&spec)];
            usf_runs += 1;
            if seed % 8 == 5 {
                v.push(OsExecutor.run_spec(&spec));
                os_runs += 1;
            }
            v
        };
        for r in &reports {
            match verify_report(r, &spec, &fs, seed) {
                Ok(s) => totals.absorb(s),
                Err(why) => {
                    eprintln!("sched_chaos: SWEEP FAILED: {why}");
                    std::process::exit(1);
                }
            }
        }
        if (seed - seed0 + 1) % 64 == 0 {
            println!(
                "sweep: {}/{schedules} schedules green ({} latencies, {} panics, {} kills)",
                seed - seed0 + 1,
                totals.latencies,
                totals.panics,
                totals.kills
            );
        }
    }
    if totals.sched_fires == 0 {
        eprintln!("sched_chaos: no scheduler-level fault fired across the sweep — plane dead?");
        std::process::exit(1);
    }
    if totals.kills == 0 || totals.panics == 0 {
        eprintln!(
            "sched_chaos: degenerate sweep ({} kills, {} panics) — schedules too tame",
            totals.kills, totals.panics
        );
        std::process::exit(1);
    }

    DONE.store(true, Ordering::Relaxed);
    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "sched_chaos: {schedules} schedules ({usf_runs} USF + {os_runs} OS runs) green in \
         {elapsed:.2}s — {} exact latencies, {} panics, {} kills, {} driver fires, {} \
         scheduler fires, stalls {} injected / {} flagged",
        totals.latencies,
        totals.panics,
        totals.kills,
        totals.driver_fires,
        totals.sched_fires,
        totals.stall_fires,
        totals.stalls_detected
    );
    JsonObject::new()
        .field("benchmark", "sched_chaos")
        .field("mode", if smoke { "smoke" } else { "full" })
        .field("schedules", schedules)
        .field("usf_runs", usf_runs)
        .field("os_runs", os_runs)
        .field("latencies_checked", totals.latencies)
        .field("unit_panics", totals.panics)
        .field("process_kills", totals.kills)
        .field("driver_fault_fires", totals.driver_fires)
        .field("sched_fault_fires", totals.sched_fires)
        .field("sweep_stall_fires", totals.stall_fires)
        .field("sweep_stalls_detected", totals.stalls_detected)
        .field("stall_injections_flagged", stall_injections)
        .field("fuzz_runs", fuzz_runs)
        .field("fuzz_fault_fires", fuzz_fires)
        .field("fuzz_replays_clean", fuzz_runs)
        .field("hangs", 0u64)
        .num("elapsed_s", elapsed, 2)
        .write_file(&json_path);
}
