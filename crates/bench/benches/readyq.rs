//! Microbenchmark of the unified SCHED_COOP ready-queue (`usf_nosv::readyq`): the cost of
//! `ProcQueues::pop_for` across its tiers (affinity hit, NUMA-tier steal, aged-valve
//! service) at 8 cores, the paper's 112-core scale — where the seed's O(cores)
//! oldest-head scans hurt — and 224/448 cores.
//!
//! Run with `cargo bench -p usf-bench --bench readyq`. Prints one line per (tier, cores):
//! the median ns per pop (each pop followed by the push that keeps the queue in steady
//! state) over a few timed batches.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use usf_nosv::readyq::{CoreMap, ProcQueues};
use usf_nosv::Topology;

const AGING: u64 = 20_000_000; // 20 ms in nanoseconds, the paper's quantum
const CORES: [usize; 4] = [8, 112, 224, 448];
const BATCHES: usize = 7;
const POPS_PER_BATCH: usize = 20_000;

fn map(cores: usize) -> Arc<CoreMap> {
    Arc::new(CoreMap::from_view(&Topology::new(cores, 2)))
}

/// Median over `BATCHES` timed batches of the mean ns per `pop` call, after one untimed
/// warm-up batch.
fn median_ns_per_pop(mut pop: impl FnMut() -> u64) -> f64 {
    for _ in 0..POPS_PER_BATCH {
        black_box(pop());
    }
    let mut per_pop: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..POPS_PER_BATCH {
                black_box(pop());
            }
            t0.elapsed().as_nanos() as f64 / POPS_PER_BATCH as f64
        })
        .collect();
    per_pop.sort_by(f64::total_cmp);
    per_pop[BATCHES / 2]
}

/// Steady-state affinity hit: pop the core's own head and push a replacement. This is the
/// hot path of a saturated dispatch loop.
fn affinity_hit(cores: usize) -> f64 {
    let mut q: ProcQueues<u64, u64> = ProcQueues::new(map(cores));
    // Populate every per-core queue plus some unbound backlog.
    let mut now = 0u64;
    for i in 0..(cores as u64 * 8) {
        q.push(i, Some((i as usize) % cores), now);
        now += 1;
    }
    for i in 0..64 {
        q.push(u64::MAX - i, None, now);
    }
    let mut core = 0usize;
    median_ns_per_pop(|| {
        core = (core + 1) % cores;
        now += 100;
        let item = q.pop_for(core, now, AGING).expect("queues stay populated");
        q.push(item, Some(core), now);
        item
    })
}

/// NUMA-tier steal: the popping core's own queue is kept empty, so every pop consults the
/// node heap (the seed scanned all same-node heads linearly here).
fn node_steal(cores: usize) -> f64 {
    let mut q: ProcQueues<u64, u64> = ProcQueues::new(map(cores));
    let mut now = 0u64;
    // Core 0 stays empty; every other core holds a backlog.
    for i in 0..(cores as u64 * 8) {
        let target = 1 + (i as usize) % (cores - 1);
        q.push(i, Some(target), now);
        now += 1;
    }
    median_ns_per_pop(|| {
        now += 100;
        let item = q.pop_for(0, now, AGING).expect("queues stay populated");
        // Any non-zero core keeps the steady state.
        q.push(item, Some(1 + (item as usize) % (cores - 1)), now);
        item
    })
}

/// Aged-valve service: every entry is older than the window, so each pop within a new
/// window serves the global oldest (the seed's O(cores) full scan, now a heap peek).
fn aged_valve(cores: usize) -> f64 {
    let mut q: ProcQueues<u64, u64> = ProcQueues::new(map(cores));
    let mut seq = 0u64;
    for i in 0..(cores as u64 * 8) {
        q.push(seq, Some((i as usize) % cores), 0);
        seq += 1;
    }
    // Jump far past the window and advance a full window per pop so the valve fires
    // every time.
    let mut now = 1 << 40;
    median_ns_per_pop(|| {
        now += AGING;
        let item = q.pop_for(0, now, AGING).expect("queues stay populated");
        q.push(seq, Some((seq as usize) % cores), 0);
        seq += 1;
        item
    })
}

fn main() {
    let tiers = [
        ("affinity_hit", affinity_hit as fn(usize) -> f64),
        ("node_steal", node_steal),
        ("aged_valve", aged_valve),
    ];
    for (tier, run) in tiers {
        for cores in CORES {
            println!(
                "readyq pop_for {tier:<12} {cores:>3} cores {:>9.1} ns/pop (median of {BATCHES} x {POPS_PER_BATCH})",
                run(cores)
            );
        }
    }
}
