//! Scheduler submit-path stress: N producer threads submitting short tasks across M
//! process domains on an oversubscribed virtual-core set, reporting submits/sec and
//! p50/p99 scheduling-point latency, and writing `BENCH_sched.json`.
//!
//! Usage: `cargo run -p usf-bench --release --bin sched_stress [--smoke] [flags]`
//!
//! Measurement only — nothing here passes or fails on a measured number. The lock-freedom
//! and no-global-section properties are tier-1 tests (`usf-nosv`'s
//! `submit_fast_path_takes_no_scheduler_lock` and `wake_churn.rs`), and regressions are
//! judged by the `usf_perf` benchmark. Three measurements, each on fresh schedulers:
//!
//! * **saturated submit throughput**: every virtual core is kept busy, so each submit of
//!   a fresh task is the pure publication cost — one CAS onto the lock-free MPSC intake.
//! * **wake churn**: worker tasks pause in a loop while producers re-wake them (each
//!   producer owns a disjoint partner set and only wakes blocked partners, so every
//!   submit is a real wake-up). Reports end-to-end grants/sec and the per-stage latency
//!   histograms — this is condvar-bound, not lock-bound, which is exactly the paper's
//!   point that scheduling-point overhead is not the limiter.
//! * **node scaling**: the same node-pinned churn through one dispatch lock (1 node) and
//!   one lock per node (2 nodes) — the only place 2-shard churn is measured.
//!
//! `--smoke` (used by CI) only shrinks the runs.

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
        help: "tiny run (CI mode)",
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
        help: "saturated rounds (default 8)",
    },
    FlagSpec {
        name: "--duration-ms",
        value_name: Some("MS"),
        help: "wake-churn duration per round (default 500)",
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
fn saturated_phase(cfg: &Cfg) -> (f64, Vec<u64>, u64) {
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
        let before = sched.stats().counters();
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
                            sched.submit(task);
                            lat.push(s0.elapsed().as_nanos() as u64);
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
        lock_acqs += sched.stats().counters().delta(&before).lock_acquisitions;
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
    /// end-to-end enqueue->grant latency of every wake-up.
    stages: usf_nosv::StageSnapshot,
    /// Per-scheduler-shard delta over the timed window: dispatch-lock acquisitions,
    /// steals lost, valve crossings, and the shard's own dispatch histogram. One entry
    /// per NUMA node of the run's topology.
    shards: Vec<ShardSnapshot>,
}

impl ChurnStats {
    fn grants_per_sec(&self) -> f64 {
        self.grants as f64 / self.elapsed_s.max(1e-9)
    }

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
fn churn_phase(cfg: &Cfg, node_pinned: Option<&Topology>) -> ChurnStats {
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
                    sched.submit(task);
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

/// Node-scaling measurement: the same node-pinned wake churn on a 1-node topology
/// (single dispatch lock) and a 2-node one (one lock per node).
/// Returns `None` — skipping the JSON section — on hosts without the
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
    let _ = churn_phase(&node_cfg, Some(&topo1)); // warm-up
    let one = churn_phase_merged(&node_cfg, Some(&topo1));
    let two = churn_phase_merged(&node_cfg, Some(&topo2));
    println!(
        "node-scaling: 1-node {:>9.0} grants/s, 2-node {:>9.0} grants/s ({:.2}x)",
        one.grants_per_sec(),
        two.grants_per_sec(),
        two.grants_per_sec() / one.grants_per_sec().max(1e-9),
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

/// Run the churn phase `rounds` times (at least 5) and merge the runs into one
/// aggregate: counts and elapsed time sum, stage histograms merge bucket-wise. A single
/// churn window on a busy host flips between adjacent log2 histogram buckets;
/// percentiles over the pooled samples are what `BENCH_sched.json` reports.
fn churn_phase_merged(cfg: &Cfg, node_pinned: Option<&Topology>) -> ChurnStats {
    let mut merged: Option<ChurnStats> = None;
    for _ in 0..cfg.rounds.max(5) {
        let run = churn_phase(cfg, node_pinned);
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
                    a.rotations += b.rotations;
                    a.dispatch.merge(&b.dispatch);
                }
            }
        }
    }
    merged.expect("at least one churn round")
}

fn write_json(
    path: &str,
    cfg: &Cfg,
    intake_rate: f64,
    lat: &[u64],
    intake_locks: u64,
    churn: &ChurnStats,
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
        .field("saturated_lock_acquisitions", intake_locks)
        .num("wake_grants_per_sec", churn.grants_per_sec(), 1)
        .num(
            "wake_submits_per_sec",
            churn.wakeups as f64 / churn.elapsed_s.max(1e-9),
            1,
        )
        .field("wake_p50_ns", churn.wake_p50_ns())
        .field("wake_p99_ns", churn.wake_p99_ns())
        .field("wake_stages", stages_json(&churn.stages))
        .field("wake_shards", shards_json(&churn.shards));
    // Per-node scaling of the dispatch locks: the same node-pinned churn through
    // one dispatch lock vs one lock per node, with the 2-node run's per-node breakdown
    // (this is the per-node stage evidence CI uploads).
    doc = match node_scaling {
        Some((one, two)) => doc.field(
            "node_scaling",
            JsonObject::new()
                .num("nodes1_grants_per_sec", one.grants_per_sec(), 1)
                .num("nodes2_grants_per_sec", two.grants_per_sec(), 1)
                .num(
                    "speedup",
                    two.grants_per_sec() / one.grants_per_sec().max(1e-9),
                    2,
                )
                .field("nodes2_stages", stages_json(&two.stages))
                .field("nodes2_shards", shards_json(&two.shards)),
        ),
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

    let (intake_rate, lat, intake_locks) = saturated_phase(&cfg);
    println!(
        " intake: {:>12.0} submits/s  p50 {:>5} ns  p99 {:>6} ns  ({} lock acqs across {} rounds)",
        intake_rate,
        percentile(&lat, 50.0),
        percentile(&lat, 99.0),
        intake_locks,
        cfg.rounds,
    );

    let churn = churn_phase_merged(&cfg, None);
    println!(
        "  churn: {:>12.0} wakeups/s  {:>9.0} grants/s  wake p50 {:>5} ns  p99 {:>6} ns",
        churn.wakeups as f64 / churn.elapsed_s.max(1e-9),
        churn.grants_per_sec(),
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

    let node_scaling = node_scaling_phase(&cfg);
    write_json(
        &json_path,
        &cfg,
        intake_rate,
        &lat,
        intake_locks,
        &churn,
        node_scaling.as_ref(),
    );
}

fn die<T>(msg: String) -> T {
    eprintln!("sched_stress: {msg}");
    std::process::exit(2);
}
