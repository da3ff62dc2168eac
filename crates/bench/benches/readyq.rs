//! Microbenchmarks of the unified SCHED_COOP ready-queue (`usf_nosv::readyq`): the cost of
//! `pop_for` across its tiers (affinity hit, NUMA-tier steal, aged-valve service) at the
//! paper's 112-core scale — where the seed's O(cores) oldest-head scans hurt — plus
//! 224/448-core points tracking the per-node-shard scaling work.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use usf_nosv::readyq::{CoreMap, ProcQueues};
use usf_nosv::Topology;

const AGING: u64 = 20_000_000; // 20 ms in nanoseconds, the paper's quantum

fn map(cores: usize) -> Arc<CoreMap> {
    Arc::new(CoreMap::from_view(&Topology::new(cores, 2)))
}

/// Steady-state affinity hit: pop the core's own head and push a replacement. This is the
/// hot path of a saturated dispatch loop.
fn bench_affinity_hit(c: &mut Criterion) {
    let mut group = c.benchmark_group("readyq_pop_for/affinity_hit");
    for &cores in &[8usize, 112, 224, 448] {
        group.bench_with_input(BenchmarkId::from_parameter(cores), &cores, |b, &cores| {
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
            b.iter(|| {
                core = (core + 1) % cores;
                now += 100;
                let item = q.pop_for(core, now, AGING).expect("queues stay populated");
                q.push(item, Some(core), now);
                criterion::black_box(item)
            });
        });
    }
    group.finish();
}

/// NUMA-tier steal: the popping core's own queue is kept empty, so every pop consults the
/// node heap (the seed scanned all same-node heads linearly here).
fn bench_node_steal(c: &mut Criterion) {
    let mut group = c.benchmark_group("readyq_pop_for/node_steal");
    for &cores in &[8usize, 112, 224, 448] {
        group.bench_with_input(BenchmarkId::from_parameter(cores), &cores, |b, &cores| {
            let mut q: ProcQueues<u64, u64> = ProcQueues::new(map(cores));
            let mut now = 0u64;
            // Core 0 stays empty; every other core holds a backlog.
            for i in 0..(cores as u64 * 8) {
                let target = 1 + (i as usize) % (cores - 1);
                q.push(i, Some(target), now);
                now += 1;
            }
            b.iter(|| {
                now += 100;
                let item = q.pop_for(0, now, AGING).expect("queues stay populated");
                // Re-push to the queue it came from conceptually; any non-zero core works
                // for steady state.
                q.push(item, Some(1 + (item as usize) % (cores - 1)), now);
                criterion::black_box(item)
            });
        });
    }
    group.finish();
}

/// Aged-valve service: every entry is older than the window, so each pop within a new
/// window serves the global oldest (the seed's O(cores) full scan, now a heap peek).
fn bench_aged_valve(c: &mut Criterion) {
    let mut group = c.benchmark_group("readyq_pop_for/aged_valve");
    for &cores in &[8usize, 112, 224, 448] {
        group.bench_with_input(BenchmarkId::from_parameter(cores), &cores, |b, &cores| {
            let mut q: ProcQueues<u64, u64> = ProcQueues::new(map(cores));
            let mut seq = 0u64;
            for i in 0..(cores as u64 * 8) {
                q.push(seq, Some((i as usize) % cores), 0);
                seq += 1;
            }
            // Jump far past the window and advance a full window per pop so the valve
            // fires every iteration.
            let mut now = 1 << 40;
            b.iter(|| {
                now += AGING;
                let item = q.pop_for(0, now, AGING).expect("queues stay populated");
                q.push(seq, Some((seq as usize) % cores), 0);
                seq += 1;
                criterion::black_box(item)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_affinity_hit,
    bench_node_steal,
    bench_aged_valve
);
criterion_main!(benches);
