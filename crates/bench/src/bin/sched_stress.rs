//! Scheduler submit-path stress: N producer threads submitting short tasks across M
//! process domains on an oversubscribed virtual-core set, reporting submits/sec and
//! p50/p99 scheduling-point latency, and writing `BENCH_sched.json`.
//!
//! Usage: `cargo run -p usf-bench --release --bin sched_stress [--smoke] [flags]`
//!
//! Two measurements, each run against both submit paths on fresh schedulers:
//!
//! * **saturated submit throughput** (the headline): every virtual core is kept busy, so
//!   each submit of a fresh task is the pure publication cost — one CAS onto the lock-free
//!   MPSC intake (`Scheduler::submit`) versus placement under the global scheduler lock
//!   (`Scheduler::submit_locked`, the pre-intake baseline). The printed
//!   `speedup_vs_locked` is the repo's perf trajectory for the scheduler hot path; with
//!   8+ producers the intake path sustains ≥ 2× the locked baseline.
//! * **wake churn** (context): worker tasks pause in a loop while producers re-wake them
//!   (each producer owns a disjoint partner set and only wakes blocked partners, so every
//!   submit is a real wake-up). Reports end-to-end grants/sec — this is condvar-bound,
//!   not lock-bound, which is exactly the paper's point that scheduling-point overhead is
//!   not the limiter.
//!
//! `--smoke` (used by CI) shrinks both runs, first executes a deterministic regression
//! sentinel that panics if a submit to a fully busy system ever acquires the scheduler
//! lock, and gates on wake churn: the intake path must hold both grants/s ≥ and wake
//! p99 ≤ the locked baseline (within a small noise margin), so the grant-hand-off
//! convoy — notifying the grant condvar with the scheduler lock still held — can never
//! silently return.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use usf_bench::cli::{self, FlagSpec};
use usf_bench::json::{JsonObject, JsonValue};
use usf_bench::scenario_json::{shards_json, stages_json};
use usf_nosv::scheduler::Scheduler;
use usf_nosv::{NosvConfig, ShardSnapshot, TaskRef, TaskState, Topology};

const FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "--smoke",
        value_name: None,
        help: "tiny run + fast-path regression sentinel (CI mode)",
    },
    FlagSpec {
        name: "--cores",
        value_name: Some("N"),
        help: "virtual cores (default 8)",
    },
    FlagSpec {
        name: "--processes",
        value_name: Some("M"),
        help: "process domains (default 2)",
    },
    FlagSpec {
        name: "--producers",
        value_name: Some("P"),
        help: "producer threads (default 8)",
    },
    FlagSpec {
        name: "--workers",
        value_name: Some("W"),
        help: "wake-churn worker tasks, oversubscribing the cores (default 4x cores)",
    },
    FlagSpec {
        name: "--batch",
        value_name: Some("B"),
        help: "tasks submitted per producer per saturated round (default 20000)",
    },
    FlagSpec {
        name: "--rounds",
        value_name: Some("R"),
        help: "saturated rounds per mode (default 8)",
    },
    FlagSpec {
        name: "--duration-ms",
        value_name: Some("MS"),
        help: "wake-churn duration per mode (default 500)",
    },
    FlagSpec {
        name: "--spin",
        value_name: Some("ITERS"),
        help: "spin iterations per short task body (default 2000)",
    },
    FlagSpec {
        name: "--json",
        value_name: Some("PATH"),
        help: "output file (default BENCH_sched.json)",
    },
    FlagSpec {
        name: "--no-baseline",
        value_name: None,
        help: "skip the locked-baseline comparison runs",
    },
];

#[derive(Clone)]
struct Cfg {
    cores: usize,
    processes: usize,
    producers: usize,
    workers: usize,
    batch: usize,
    rounds: usize,
    duration: Duration,
    spin: u32,
}

impl Cfg {
    fn nosv(&self) -> NosvConfig {
        let mut c = NosvConfig::with_cores(self.cores);
        c.topology = Topology::new(self.cores, 2.min(self.cores));
        c
    }
}

fn spin_work(iters: u32) {
    for _ in 0..iters {
        std::hint::spin_loop();
    }
}

fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * pct / 100.0).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Saturated submit throughput: with every core held busy by hog tasks, `producers`
/// threads concurrently submit `batch` fresh tasks each. Returns
/// `(submits/sec, sampled submit latencies ns, lock acquisitions during the timed phase)`.
fn saturated_phase(cfg: &Cfg, locked: bool) -> (f64, Vec<u64>, u64) {
    let mut best_rate = 0.0f64;
    let mut latencies: Vec<u64> = Vec::new();
    let mut lock_acqs = 0u64;
    for _ in 0..cfg.rounds {
        let sched = Arc::new(Scheduler::new(cfg.nosv()));
        let pids: Vec<_> = (0..cfg.processes)
            .map(|i| sched.register_process(format!("domain-{i}")))
            .collect();
        // Hogs occupy every core so each measured submit hits the queue-publication path.
        let hogs: Vec<TaskRef> = (0..cfg.cores)
            .map(|i| {
                let t = sched
                    .create_task(pids[i % pids.len()], None)
                    .expect("scheduler is live");
                sched.submit(&t);
                t
            })
            .collect();
        assert_eq!(
            sched.busy_cores(),
            cfg.cores,
            "hogs must saturate the cores"
        );
        let batches: Vec<Vec<TaskRef>> = (0..cfg.producers)
            .map(|p| {
                (0..cfg.batch)
                    .map(|i| {
                        sched
                            .create_task(pids[(p + i) % pids.len()], None)
                            .expect("scheduler is live")
                    })
                    .collect()
            })
            .collect();
        let before = sched.metrics().snapshot();
        let barrier = Arc::new(Barrier::new(cfg.producers + 1));
        let handles: Vec<_> = batches
            .into_iter()
            .map(|batch| {
                let sched = Arc::clone(&sched);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut lat = Vec::with_capacity(batch.len() / 16 + 1);
                    barrier.wait();
                    let t0 = Instant::now();
                    for (i, task) in batch.iter().enumerate() {
                        if i % 16 == 0 {
                            let s0 = Instant::now();
                            if locked {
                                sched.submit_locked(task);
                            } else {
                                sched.submit(task);
                            }
                            lat.push(s0.elapsed().as_nanos() as u64);
                        } else if locked {
                            sched.submit_locked(task);
                        } else {
                            sched.submit(task);
                        }
                    }
                    (t0.elapsed(), lat)
                })
            })
            .collect();
        barrier.wait();
        let mut slowest = Duration::ZERO;
        for h in handles {
            let (elapsed, lat) = h.join().expect("producer panicked");
            slowest = slowest.max(elapsed);
            latencies.extend(lat);
        }
        lock_acqs += sched.metrics().snapshot().delta(&before).lock_acquisitions;
        let rate = (cfg.producers * cfg.batch) as f64 / slowest.as_secs_f64().max(1e-9);
        best_rate = best_rate.max(rate);
        drop(hogs);
        sched.shutdown();
    }
    latencies.sort_unstable();
    (best_rate, latencies, lock_acqs)
}

struct ChurnStats {
    wakeups: u64,
    grants: u64,
    elapsed_s: f64,
    /// Per-stage latency delta over the timed window; `stages.wake` is the
    /// end-to-end enqueue->grant latency of every wake-up (not a 1-in-16 sample
    /// of submit-call durations, which is what this benchmark reported before
    /// the observability plane existed).
    stages: usf_nosv::StageSnapshot,
    /// Per-scheduler-shard delta over the timed window: dispatch-lock acquisitions,
    /// steals lost, valve crossings, and the shard's own dispatch histogram. One entry
    /// per NUMA node of the run's topology.
    shards: Vec<ShardSnapshot>,
}

impl ChurnStats {
    fn wake_p50_ns(&self) -> u64 {
        self.stages.wake.percentile(0.50)
    }

    fn wake_p99_ns(&self) -> u64 {
        self.stages.wake.percentile(0.99)
    }
}

/// Wake churn: `workers` tasks pause in a loop (short spin per wake-up) while producers
/// re-wake blocked partners from disjoint slices for `duration`.
///
/// With `node_pinned = Some(topology)` the run uses that topology instead of `cfg`'s,
/// with one process domain pinned per NUMA node and workers grouped by node so each
/// producer's slice stays node-homogeneous — the shape the per-node dispatch locks are
/// built for (call with `producers == nodes` for fully pinned producers).
fn churn_phase(cfg: &Cfg, locked: bool, node_pinned: Option<&Topology>) -> ChurnStats {
    let sched = Arc::new(Scheduler::new(match node_pinned {
        Some(topo) => NosvConfig::with_topology(topo.clone()),
        None => cfg.nosv(),
    }));
    let (pids, pid_of): (Vec<_>, Box<dyn Fn(usize) -> usize>) = match node_pinned {
        Some(topo) => {
            let n = topo.num_numa_nodes();
            let pids: Vec<_> = (0..n)
                .map(|node| {
                    let p = sched.register_process(format!("node-{node}"));
                    sched.set_process_domain(p, Some(topo.cores_in_node(node).collect()));
                    p
                })
                .collect();
            let per_node = cfg.workers.div_ceil(n);
            (pids, Box::new(move |i| (i / per_node).min(n - 1)))
        }
        None => {
            let pids: Vec<_> = (0..cfg.processes)
                .map(|i| sched.register_process(format!("domain-{i}")))
                .collect();
            let len = pids.len();
            (pids, Box::new(move |i| i % len))
        }
    };
    let tasks: Vec<TaskRef> = (0..cfg.workers)
        .map(|i| {
            sched
                .create_task(pids[pid_of(i)], Some(format!("worker-{i}")))
                .expect("scheduler is live")
        })
        .collect();
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = tasks
        .iter()
        .map(|t| {
            let sched = Arc::clone(&sched);
            let task = TaskRef::clone(t);
            let stop = Arc::clone(&stop);
            let spin = cfg.spin;
            std::thread::spawn(move || {
                sched.attach(&task);
                while !stop.load(Ordering::Relaxed) {
                    spin_work(spin);
                    sched.pause(&task);
                }
                sched.detach(&task);
            })
        })
        .collect();

    let total = Arc::new(AtomicU64::new(0));
    let before = sched.stats_snapshot();
    let deadline = Instant::now() + cfg.duration;
    let start = Instant::now();
    let chunk = tasks.len().div_ceil(cfg.producers);
    let producers: Vec<_> = (0..cfg.producers)
        .map(|p| {
            let sched = Arc::clone(&sched);
            let mine: Vec<TaskRef> = tasks
                .iter()
                .skip(p * chunk)
                .take(chunk)
                .map(TaskRef::clone)
                .collect();
            let total = Arc::clone(&total);
            std::thread::spawn(move || {
                let mut count = 0u64;
                let mut probes = 0u64;
                let mut i = 0usize;
                while !mine.is_empty() {
                    probes += 1;
                    if probes % 128 == 0 && Instant::now() >= deadline {
                        break;
                    }
                    let task = &mine[i % mine.len()];
                    i += 1;
                    // Only wake partners that actually blocked: every submit is then a
                    // real wake-up rather than a counted or redundant one. Yield, don't
                    // spin: the partner needs CPU to reach its pause, and on hosts with
                    // fewer CPUs than churn threads a busy-wait here starves it.
                    if task.state() != TaskState::Blocked {
                        std::thread::yield_now();
                        continue;
                    }
                    if locked {
                        sched.submit_locked(task);
                    } else {
                        sched.submit(task);
                    }
                    count += 1;
                }
                total.fetch_add(count, Ordering::Relaxed);
            })
        })
        .collect();
    for h in producers {
        h.join().expect("producer panicked");
    }
    let elapsed = start.elapsed();
    // Snapshot before shutdown so the delta covers exactly the churn window.
    let after = sched.stats_snapshot();
    stop.store(true, Ordering::Relaxed);
    sched.shutdown();
    for h in workers {
        h.join().expect("worker panicked");
    }
    let delta = after.delta(&before);
    ChurnStats {
        wakeups: total.load(Ordering::Relaxed),
        grants: delta.counters.grants,
        elapsed_s: elapsed.as_secs_f64(),
        stages: delta.stages,
        shards: delta.shards,
    }
}

/// Deterministic regression sentinel: a submit while every core is busy must be intake-only
/// (no scheduler-lock acquisition). Panics — failing CI — on regression.
fn fastpath_sentinel() {
    let sched = Scheduler::new(NosvConfig::with_cores(1));
    let pid = sched.register_process("sentinel");
    let hog = sched.create_task(pid, None).expect("live");
    sched.submit(&hog); // occupies the only core
    let waiters: Vec<_> = (0..64)
        .map(|_| sched.create_task(pid, None).expect("live"))
        .collect();
    let before = sched.metrics().snapshot();
    for t in &waiters {
        sched.submit(t);
    }
    let delta = sched.metrics().snapshot().delta(&before);
    assert_eq!(
        delta.lock_acquisitions, 0,
        "regression: submit to a fully busy scheduler acquired the global lock"
    );
    assert_eq!(sched.ready_count(), waiters.len());
    sched.shutdown();
    println!("fast-path sentinel: OK (64 saturated submits, 0 lock acquisitions)");
}

/// Per-node-lock regression sentinel: on a 2-node topology, a steady-state
/// pause/submit churn window (workers already attached) must record **zero**
/// global-section acquisitions — every same-node scheduling point stays on its shard's
/// dispatch lock. Deterministic on any host (two threads, one worker). Panics — failing
/// CI — on regression.
fn split_churn_sentinel() {
    const CYCLES: usize = 128;
    let sched = Arc::new(Scheduler::new(NosvConfig::with_topology(Topology::new(
        2, 2,
    ))));
    let pid = sched.register_process("sentinel");
    let task = sched.create_task(pid, None).expect("live");
    let window: Arc<std::sync::Mutex<Option<u64>>> = Arc::default();
    let worker = {
        let sched = Arc::clone(&sched);
        let task = TaskRef::clone(&task);
        let window = Arc::clone(&window);
        std::thread::spawn(move || {
            sched.attach(&task);
            // Attach (a task-table write) is done; measure the steady-state window.
            let before = sched.metrics().snapshot().global_lock_acquisitions;
            for _ in 0..CYCLES {
                sched.pause(&task);
            }
            let after = sched.metrics().snapshot().global_lock_acquisitions;
            *window.lock().unwrap() = Some(after - before);
            sched.detach(&task);
        })
    };
    let mut woken = 0;
    while woken < CYCLES {
        if task.state() == TaskState::Blocked {
            sched.submit(&task);
            woken += 1;
        } else {
            std::thread::yield_now();
        }
    }
    worker.join().expect("sentinel worker panicked");
    let acqs = window.lock().unwrap().expect("window not recorded");
    assert_eq!(
        acqs, 0,
        "regression: steady-state 2-node churn acquired the global section {acqs} times"
    );
    sched.shutdown();
    println!("split-churn sentinel: OK ({CYCLES} churn cycles, 0 global-section acquisitions)");
}

/// Node-scaling measurement: the same node-pinned wake churn on a 1-node topology
/// (single dispatch lock) and a 2-node one (one lock per node).
/// Returns `None` — skipping the gate and the JSON section — on hosts without the
/// parallelism to run the two node-churns concurrently, or when
/// `USF_SKIP_NODE_SCALING` is set.
fn node_scaling_phase(cfg: &Cfg) -> Option<(ChurnStats, ChurnStats)> {
    let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
    if parallelism < 4 || std::env::var_os("USF_SKIP_NODE_SCALING").is_some() {
        println!(
            "node-scaling: skipped (available parallelism {parallelism} < 4 or \
             USF_SKIP_NODE_SCALING set)"
        );
        return None;
    }
    // Producers pinned one-per-node: the 2-node run contends on nothing but the
    // workload itself; the 1-node run serializes both through one dispatch lock.
    let mut node_cfg = cfg.clone();
    node_cfg.producers = 2;
    let (topo1, topo2) = (Topology::new(cfg.cores, 1), Topology::new(cfg.cores, 2));
    let _ = churn_phase(&node_cfg, false, Some(&topo1)); // warm-up
    let one = churn_phase_merged(&node_cfg, false, Some(&topo1));
    let two = churn_phase_merged(&node_cfg, false, Some(&topo2));
    let rate = |c: &ChurnStats| c.grants as f64 / c.elapsed_s.max(1e-9);
    println!(
        "node-scaling: 1-node {:>9.0} grants/s, 2-node {:>9.0} grants/s ({:.2}x)",
        rate(&one),
        rate(&two),
        rate(&two) / rate(&one).max(1e-9),
    );
    for (i, s) in two.shards.iter().enumerate() {
        println!(
            "         node {i}: {} lock acqs, {} steals lost, {} valve crossings, dispatch p99 {} ns",
            s.lock_acquisitions,
            s.steals,
            s.valve_crossings,
            s.dispatch.percentile(0.99),
        );
    }
    Some((one, two))
}

/// `--smoke` node-scaling gate: 2-node wake-churn grants/s must land within 20% of 2×
/// the 1-node rate — the dispatch locks must actually buy node-parallel dispatch, not
/// just shuffle contention. Only meaningful where `node_scaling_phase` did not skip.
fn node_scaling_gate(one: &ChurnStats, two: &ChurnStats) {
    let rate = |c: &ChurnStats| c.grants as f64 / c.elapsed_s.max(1e-9);
    let (r1, r2) = (rate(one), rate(two));
    assert!(
        r2 >= 2.0 * r1 * 0.8,
        "node-scaling gate: 2-node churn ({r2:.0} grants/s) fell short of 80% of 2x the \
         1-node rate ({r1:.0} grants/s)"
    );
    println!("node-scaling gate: OK ({r2:.0} grants/s on 2 nodes vs {r1:.0} on 1)");
}

/// Run the churn phase `rounds` times (at least 5) and merge the runs into one
/// aggregate: counts and elapsed time sum, stage histograms merge bucket-wise. A single
/// churn window on a busy host flips between adjacent log2 histogram buckets, and one
/// lucky window — e.g. a locked baseline where every grant happened to land
/// synchronously — should not decide the gate either way; percentiles over the pooled
/// samples are what the gate and `BENCH_sched.json` report.
fn churn_phase_merged(cfg: &Cfg, locked: bool, node_pinned: Option<&Topology>) -> ChurnStats {
    let mut merged: Option<ChurnStats> = None;
    for _ in 0..cfg.rounds.max(5) {
        let run = churn_phase(cfg, locked, node_pinned);
        match &mut merged {
            None => merged = Some(run),
            Some(m) => {
                m.wakeups += run.wakeups;
                m.grants += run.grants;
                m.elapsed_s += run.elapsed_s;
                m.stages.merge(&run.stages);
                for (a, b) in m.shards.iter_mut().zip(run.shards.iter()) {
                    a.lock_acquisitions += b.lock_acquisitions;
                    a.steals += b.steals;
                    a.valve_crossings += b.valve_crossings;
                    a.dispatch.merge(&b.dispatch);
                }
            }
        }
    }
    merged.expect("at least one churn round")
}

/// `--smoke` wake-churn gate: the intake path must beat the locked baseline on both
/// end-to-end grants/s and wake p99. The p99 values come out of log₂ histograms, so
/// their natural resolution is one bucket (a factor of two): the gate allows the intake
/// p99 to sit at most one bucket above the baseline's and fails on anything beyond
/// that. The convoy regression this pins (grant-slot condvar notified under the held
/// scheduler lock, so every woken worker immediately contended with its waker) blows
/// the wake tail by orders of magnitude under real multi-core contention — far outside
/// one bucket.
fn wake_churn_gate(churn: &ChurnStats, baseline: &ChurnStats) {
    const RATE_MARGIN: f64 = 0.10;
    let rate = churn.grants as f64 / churn.elapsed_s.max(1e-9);
    let base_rate = baseline.grants as f64 / baseline.elapsed_s.max(1e-9);
    assert!(
        rate >= base_rate * (1.0 - RATE_MARGIN),
        "wake-churn gate: intake grants/s ({rate:.0}) fell below the locked baseline ({base_rate:.0})"
    );
    let p99 = churn.wake_p99_ns();
    let base_p99 = baseline.wake_p99_ns();
    // Bucket index of a log₂-histogram percentile: values are reported as 2^k - 1.
    let bucket = |ns: u64| 64 - ns.saturating_add(1).leading_zeros();
    assert!(
        bucket(p99) <= bucket(base_p99) + 1,
        "wake-churn gate: wake p99 ({p99} ns) exceeds the locked baseline ({base_p99} ns) by more than one histogram bucket"
    );
    println!(
        "wake-churn gate: OK ({rate:.0} grants/s vs baseline {base_rate:.0}, wake p99 {p99} ns vs {base_p99} ns)"
    );
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    path: &str,
    cfg: &Cfg,
    intake_rate: f64,
    lat: &[u64],
    intake_locks: u64,
    baseline_rate: Option<f64>,
    churn: &ChurnStats,
    churn_baseline: Option<&ChurnStats>,
    node_scaling: Option<&(ChurnStats, ChurnStats)>,
) {
    let mut doc = JsonObject::new()
        .field("benchmark", "sched_stress")
        .field("cores", cfg.cores)
        .field("processes", cfg.processes)
        .field("producers", cfg.producers)
        .field("workers", cfg.workers)
        .field("batch", cfg.batch)
        .field("rounds", cfg.rounds)
        .num("submits_per_sec", intake_rate, 1)
        .field("p50_submit_ns", percentile(lat, 50.0))
        .field("p99_submit_ns", percentile(lat, 99.0))
        .field("saturated_lock_acquisitions", intake_locks);
    doc = match baseline_rate {
        Some(b) => doc.num("baseline_submits_per_sec", b, 1).num(
            "speedup_vs_locked",
            intake_rate / b.max(1e-9),
            2,
        ),
        None => doc.field("speedup_vs_locked", JsonValue::Null),
    };
    doc = doc
        .num(
            "wake_grants_per_sec",
            churn.grants as f64 / churn.elapsed_s.max(1e-9),
            1,
        )
        .num(
            "wake_submits_per_sec",
            churn.wakeups as f64 / churn.elapsed_s.max(1e-9),
            1,
        )
        .field("wake_p50_ns", churn.wake_p50_ns())
        .field("wake_p99_ns", churn.wake_p99_ns())
        .field("wake_stages", stages_json(&churn.stages))
        .field("wake_shards", shards_json(&churn.shards));
    doc = match churn_baseline {
        Some(b) => doc
            .num(
                "wake_baseline_grants_per_sec",
                b.grants as f64 / b.elapsed_s.max(1e-9),
                1,
            )
            .field("wake_baseline_p99_ns", b.wake_p99_ns())
            .field("wake_baseline_stages", stages_json(&b.stages)),
        None => doc.field("wake_baseline_grants_per_sec", JsonValue::Null),
    };
    // Per-node scaling of the dispatch locks: the same node-pinned churn through
    // one dispatch lock vs one lock per node, with the 2-node run's per-node breakdown
    // (this is the per-node stage evidence CI uploads).
    doc = match node_scaling {
        Some((one, two)) => {
            let rate = |c: &ChurnStats| c.grants as f64 / c.elapsed_s.max(1e-9);
            doc.field(
                "node_scaling",
                JsonObject::new()
                    .num("nodes1_grants_per_sec", rate(one), 1)
                    .num("nodes2_grants_per_sec", rate(two), 1)
                    .num("speedup", rate(two) / rate(one).max(1e-9), 2)
                    .field("nodes2_stages", stages_json(&two.stages))
                    .field("nodes2_shards", shards_json(&two.shards)),
            )
        }
        None => doc.field("node_scaling", JsonValue::Null),
    };
    doc.write_file(path);
}

fn main() {
    let args = cli::parse_or_exit(
        "sched_stress",
        "Scheduler submit-path stress: producers submitting short tasks across process domains.",
        FLAGS,
    );
    let smoke = args.has("--smoke");
    let cores = args.get_or("--cores", 8usize).unwrap_or_else(die);
    let cfg = Cfg {
        cores,
        processes: args.get_or("--processes", 2usize).unwrap_or_else(die),
        producers: args.get_or("--producers", 8usize).unwrap_or_else(die),
        workers: args.get_or("--workers", 4 * cores).unwrap_or_else(die),
        batch: args
            .get_or("--batch", if smoke { 4_000 } else { 20_000usize })
            .unwrap_or_else(die),
        rounds: args
            .get_or("--rounds", if smoke { 3 } else { 8usize })
            .unwrap_or_else(die),
        duration: Duration::from_millis(
            args.get_or("--duration-ms", if smoke { 150 } else { 500u64 })
                .unwrap_or_else(die),
        ),
        spin: args.get_or("--spin", 2000u32).unwrap_or_else(die),
    };
    let json_path = args.get("--json").unwrap_or("BENCH_sched.json").to_string();

    usf_bench::header("sched_stress — scheduler submit-path throughput and latency");
    println!(
        "{} cores, {} processes, {} producers, {} workers, batch {} x {} rounds, churn {} ms",
        cfg.cores,
        cfg.processes,
        cfg.producers,
        cfg.workers,
        cfg.batch,
        cfg.rounds,
        cfg.duration.as_millis(),
    );

    if smoke {
        fastpath_sentinel();
        split_churn_sentinel();
    }

    let (intake_rate, lat, intake_locks) = saturated_phase(&cfg, false);
    println!(
        " intake: {:>12.0} submits/s  p50 {:>5} ns  p99 {:>6} ns  ({} lock acqs across {} rounds)",
        intake_rate,
        percentile(&lat, 50.0),
        percentile(&lat, 99.0),
        intake_locks,
        cfg.rounds,
    );
    let baseline_rate = if args.has("--no-baseline") {
        None
    } else {
        let (rate, blat, block) = saturated_phase(&cfg, true);
        println!(
            " locked: {:>12.0} submits/s  p50 {:>5} ns  p99 {:>6} ns  ({} lock acqs across {} rounds)",
            rate,
            percentile(&blat, 50.0),
            percentile(&blat, 99.0),
            block,
            cfg.rounds,
        );
        println!(
            "speedup vs locked baseline: {:.2}x (target: >= 2x at 8+ producers)",
            intake_rate / rate.max(1e-9)
        );
        Some(rate)
    };

    let churn = churn_phase_merged(&cfg, false, None);
    println!(
        "  churn: {:>12.0} wakeups/s  {:>9.0} grants/s  wake p50 {:>5} ns  p99 {:>6} ns",
        churn.wakeups as f64 / churn.elapsed_s.max(1e-9),
        churn.grants as f64 / churn.elapsed_s.max(1e-9),
        churn.wake_p50_ns(),
        churn.wake_p99_ns(),
    );
    for (name, h) in churn.stages.named() {
        if !h.is_empty() {
            println!(
                "         stage {:<11} n={:<8} p50 {:>6} ns  p99 {:>8} ns",
                name,
                h.count,
                h.percentile(0.50),
                h.percentile(0.99),
            );
        }
    }
    let churn_baseline = if args.has("--no-baseline") {
        None
    } else {
        let b = churn_phase_merged(&cfg, true, None);
        println!(
            "  churn (locked): {:>4.0} wakeups/s  {:>9.0} grants/s  wake p50 {:>5} ns  p99 {:>6} ns",
            b.wakeups as f64 / b.elapsed_s.max(1e-9),
            b.grants as f64 / b.elapsed_s.max(1e-9),
            b.wake_p50_ns(),
            b.wake_p99_ns(),
        );
        Some(b)
    };

    let node_scaling = node_scaling_phase(&cfg);

    if smoke {
        if let Some(b) = &churn_baseline {
            wake_churn_gate(&churn, b);
        }
        if let Some((one, two)) = &node_scaling {
            node_scaling_gate(one, two);
        }
    }

    write_json(
        &json_path,
        &cfg,
        intake_rate,
        &lat,
        intake_locks,
        baseline_rate,
        &churn,
        churn_baseline.as_ref(),
        node_scaling.as_ref(),
    );
}

fn die<T>(msg: String) -> T {
    eprintln!("sched_stress: {msg}");
    std::process::exit(2);
}
