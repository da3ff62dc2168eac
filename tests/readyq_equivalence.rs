//! Property tests pinning the unified SCHED_COOP ready-queue (`usf_nosv::readyq`) to its
//! specification, and enforcing the simulator-validates-runtime invariant:
//!
//! 1. for random enqueue/pop/aging traces, `ProcQueues` (lazy head-heaps, compaction)
//!    picks the identical item sequence as a straightforward reference model written with
//!    plain linear scans; and
//! 2. `CoopPolicy` (real time, `Instant`) and the simulator's `CoopScheduler` (virtual
//!    time, `SimTime`) agree on the task sequence for the same trace — they are the same
//!    `CoopCore` instantiated at two time types, and this test keeps it that way; and
//! 3. the scheduler's ready side — `readyq::CoopShards`: one SCHED_COOP core per NUMA
//!    node behind `ShardLadder` and `enqueue_shard` — replays divergence-free
//!    through `usf::simsched::replay` when hand-recorded at real time, and, where the
//!    two are comparable (bound tasks, no valve), picks the identical sequence as one
//!    flat policy over the whole machine.

use proptest::prelude::*;
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use usf::nosv::readyq::{CoopShards, CoreMap, ProcQueues};
use usf::nosv::{CoopPolicy, PickTier, Policy, ProcessId, TaskMeta, Topology};
use usf::nosv::{TraceEntry, TraceEvent, TraceMeta};
use usf::simsched::replay::replay;
use usf::simsched::sched::{CoopScheduler, ReadyThread, SimPolicy};
use usf::simsched::{Machine, SimTime};

const CORES: usize = 4;
const NODES: usize = 2;
const AGING: u64 = 50_000; // ns

/// Straightforward executable specification of the tiered pop: linear scans everywhere.
struct RefQueues {
    per_core: Vec<VecDeque<(u64, u64, u64)>>, // (item, seq, enqueued_at)
    unbound: VecDeque<(u64, u64, u64)>,
    next_seq: u64,
    next_valve_at: Option<u64>,
    topo: Topology,
}

impl RefQueues {
    fn new(topo: Topology) -> Self {
        RefQueues {
            per_core: (0..topo.num_cores()).map(|_| VecDeque::new()).collect(),
            unbound: VecDeque::new(),
            next_seq: 0,
            next_valve_at: None,
            topo,
        }
    }

    fn push(&mut self, item: u64, pref: Option<usize>, now: u64) {
        let e = (item, self.next_seq, now);
        self.next_seq += 1;
        match pref {
            Some(c) if c < self.per_core.len() => self.per_core[c].push_back(e),
            _ => self.unbound.push_back(e),
        }
    }

    /// `(seq, at, source)` of the globally oldest head; `None` source is the unbound queue.
    fn oldest(&self) -> Option<(u64, u64, Option<usize>)> {
        let mut best: Option<(u64, u64, Option<usize>)> = None;
        for (c, q) in self.per_core.iter().enumerate() {
            if let Some(&(_, seq, at)) = q.front() {
                if best.map_or(true, |(s, _, _)| seq < s) {
                    best = Some((seq, at, Some(c)));
                }
            }
        }
        if let Some(&(_, seq, at)) = self.unbound.front() {
            if best.map_or(true, |(s, _, _)| seq < s) {
                best = Some((seq, at, None));
            }
        }
        best
    }

    fn pop_from(&mut self, source: Option<usize>) -> u64 {
        let q = match source {
            Some(c) => &mut self.per_core[c],
            None => &mut self.unbound,
        };
        q.pop_front().expect("candidate queue has a head").0
    }

    fn pop_for(&mut self, core: usize, now: u64, aging: u64) -> Option<u64> {
        // Tier 1: the rate-limited aging valve.
        if self.next_valve_at.map_or(true, |t| now >= t) {
            match self.oldest() {
                Some((_, at, src)) => {
                    if now.saturating_sub(at) >= aging {
                        self.next_valve_at = Some(now + aging);
                        return Some(self.pop_from(src));
                    }
                    self.next_valve_at = Some(at + aging);
                }
                None => self.next_valve_at = Some(now + aging),
            }
        }
        // Tier 2: affinity.
        if !self.per_core[core].is_empty() {
            return Some(self.pop_from(Some(core)));
        }
        // Tier 3: oldest of (same-node queues, unbound).
        let node = self.topo.node_of(core);
        let mut best: Option<(u64, Option<usize>)> = None;
        for c in self.topo.cores_in_node(node) {
            if c == core {
                continue;
            }
            if let Some(&(_, seq, _)) = self.per_core[c].front() {
                if best.map_or(true, |(s, _)| seq < s) {
                    best = Some((seq, Some(c)));
                }
            }
        }
        if let Some(&(_, seq, _)) = self.unbound.front() {
            if best.map_or(true, |(s, _)| seq < s) {
                best = Some((seq, None));
            }
        }
        if let Some((_, src)) = best {
            return Some(self.pop_from(src));
        }
        // Tier 4: oldest remote entry.
        let mut best: Option<(u64, usize)> = None;
        for c in self.topo.cores() {
            if self.topo.node_of(c) == node {
                continue;
            }
            if let Some(&(_, seq, _)) = self.per_core[c].front() {
                if best.map_or(true, |(s, _)| seq < s) {
                    best = Some((seq, c));
                }
            }
        }
        best.map(|(_, c)| self.pop_from(Some(c)))
    }
}

/// The scheduler's ready side at real time, without the scheduler around it.
type NodeShards = CoopShards<ProcessId, TaskMeta, Instant>;

/// Enqueue `meta` (never a yield requeue here) through the routing rule.
fn enqueue(shards: &mut NodeShards, meta: TaskMeta, at: Instant) {
    shards.enqueue(meta.process, meta, None, meta.preferred_core, at);
}

/// Decode a preference selector: values below `CORES` are a core, the rest `None`. Each
/// trace step is a `(kind, sel, core, dt)` tuple — `kind < 2` enqueues, otherwise picks,
/// with `dt` the time advance in ns.
fn pref_of(sel: u8) -> Option<usize> {
    if sel < CORES as u8 {
        Some(sel as usize)
    } else {
        None
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// The heap-indexed `ProcQueues` and the linear-scan reference model serve identical
    /// item sequences for arbitrary traces (including aging-valve service and empty pops).
    #[test]
    fn proc_queues_matches_reference_model(
        ops in proptest::collection::vec((0u8..4, 0u8..8, 0u8..4, 0u32..40_000), 1..80),
    ) {
        let topo = Topology::new(CORES, NODES);
        let mut fast: ProcQueues<u64, u64> =
            ProcQueues::new(std::sync::Arc::new(CoreMap::from_view(&topo)));
        let mut reference = RefQueues::new(topo);
        let mut now = 0u64;
        let mut next_item = 0u64;
        for (kind, sel, core, dt) in ops {
            now += u64::from(dt);
            if kind < 2 {
                fast.push(next_item, pref_of(sel), now);
                reference.push(next_item, pref_of(sel), now);
                next_item += 1;
            } else {
                let core = core as usize;
                let got = fast.pop_for(core, now, AGING);
                let want = reference.pop_for(core, now, AGING);
                prop_assert_eq!(got, want, "divergence at t={}", now);
            }
        }
        // Drain both completely: the tails must agree too.
        loop {
            now += 1_000;
            let got = fast.pop_for(0, now, AGING);
            let want = reference.pop_for(0, now, AGING);
            prop_assert_eq!(got, want);
            if want.is_none() { break; }
        }
        prop_assert!(fast.is_empty());
    }

    /// The real-time `CoopPolicy` and the virtual-time simulated `CoopScheduler` pick the
    /// same task sequence for the same trace — the simulator validates the exact policy
    /// the runtime ships.
    #[test]
    fn coop_policy_matches_simulated_coop(
        ops in proptest::collection::vec((0u8..4, 0u8..10, 0u8..4, 0u32..40_000), 1..80),
    ) {
        let topo = Topology::new(CORES, NODES);
        let machine = Machine::small_numa(CORES, NODES); // contiguous split, identical to Topology::new(4, 2)
        let quantum = 50_000u64; // ns; doubles as the aging window in both

        let mut real = CoopPolicy::new(topo.clone(), Duration::from_nanos(quantum));
        let mut sim = CoopScheduler::new(SimTime::from_nanos(quantum));
        sim.init(&machine, &[]);

        let base = Instant::now();
        let mut now = 0u64;
        let mut next_id = 1u64;
        for (kind, sel, core, dt) in ops {
            now += u64::from(dt);
            let real_now = base + Duration::from_nanos(now);
            let sim_now = SimTime::from_nanos(now);
            if kind < 2 {
                // Processes 0/1, preference from the same selector for both.
                let process = u32::from(sel % 2);
                let pref = pref_of(sel / 2);
                real.enqueue(&topo, TaskMeta {
                    id: next_id,
                    process,
                    preferred_core: pref,
                }, real_now);
                sim.enqueue(ReadyThread {
                    id: next_id as usize,
                    process: process as usize,
                    last_core: pref,
                    vruntime: 0.0,
                }, sim_now);
                next_id += 1;
            } else {
                let core = core as usize;
                let got_real = real.pick(&topo, core, real_now).map(|m| m.id);
                let got_sim = sim.pick(core, sim_now).map(|t| t as u64);
                prop_assert_eq!(got_real, got_sim, "divergence at t={}ns", now);
                prop_assert_eq!(real.ready_count(), sim.ready_count());
            }
        }
        // Drain both: every queued task must come out, in the same order.
        loop {
            now += 1_000;
            let got_real = real
                .pick(&topo, 0, base + Duration::from_nanos(now))
                .map(|m| m.id);
            let got_sim = sim.pick(0, SimTime::from_nanos(now)).map(|t| t as u64);
            prop_assert_eq!(got_real, got_sim);
            if got_sim.is_none() { break; }
        }
        prop_assert!(!real.has_ready());
        prop_assert!(!sim.has_ready());
    }

    /// The replay harness closes the same loop through the trace format: a schedule
    /// hand-recorded from the real-time per-node cores (enqueues and ladder picks, stamped
    /// with the exact nanosecond offsets the cores saw) replays through
    /// `usf::simsched::replay` with zero divergence, and aged picks — per-queue valve and
    /// foreign aging probe alike — land at the same logical steps. Unlike
    /// tests/sched_trace_replay.rs this needs no cargo feature — the trace types compile
    /// unconditionally.
    #[test]
    fn hand_recorded_policy_trace_replays_in_sim(
        ops in proptest::collection::vec((0u8..4, 0u8..10, 0u8..4, 0u32..40_000), 1..80),
    ) {
        let topo = Topology::new(CORES, NODES);
        let quantum = 50_000u64; // ns; aging window == quantum in SCHED_COOP
        let mut real = NodeShards::new(&topo, Duration::from_nanos(quantum));

        let meta = TraceMeta {
            core_nodes: (0..CORES).map(|c| topo.node_of(c)).collect(),
            quantum_nanos: quantum,
            policy: "sched_coop".to_string(),
        };
        let mut entries: Vec<TraceEntry> = Vec::new();
        let mut expected_aged: Vec<u64> = Vec::new();
        let record = |at_nanos: u64, event: TraceEvent, entries: &mut Vec<TraceEntry>| {
            entries.push(TraceEntry { step: entries.len() as u64, at_nanos, event });
        };

        let base = Instant::now();
        let mut now = 0u64;
        let mut next_id = 1u64;
        let pick = |real: &mut NodeShards,
                        core: usize,
                        now: u64,
                        entries: &mut Vec<TraceEntry>,
                        expected_aged: &mut Vec<u64>| {
            match real.pick(core, base + Duration::from_nanos(now)) {
                Some((meta, tier)) => {
                    if tier == PickTier::Aged {
                        expected_aged.push(entries.len() as u64);
                    }
                    entries.push(TraceEntry {
                        step: entries.len() as u64,
                        at_nanos: now,
                        event: TraceEvent::Pop { core, tier: Some(tier), task: meta.id },
                    });
                }
                // Even an empty pick re-arms the aging valve; record it so the replayed
                // valve stays in lockstep (TraceEvent::PopEmpty's raison d'être).
                None => entries.push(TraceEntry {
                    step: entries.len() as u64,
                    at_nanos: now,
                    event: TraceEvent::PopEmpty { core },
                }),
            }
        };
        for (kind, sel, core, dt) in ops {
            now += u64::from(dt);
            if kind < 2 {
                let process = u32::from(sel % 2);
                let pref = pref_of(sel / 2);
                enqueue(&mut real, TaskMeta {
                    id: next_id,
                    process,
                    preferred_core: pref,
                }, base + Duration::from_nanos(now));
                record(now, TraceEvent::Enqueue {
                    process,
                    task: next_id,
                    preferred: pref,
                }, &mut entries);
                next_id += 1;
            } else {
                pick(&mut real, core as usize, now, &mut entries, &mut expected_aged);
            }
        }
        while real.has_ready() {
            now += 1_000;
            pick(&mut real, 0, now, &mut entries, &mut expected_aged);
        }

        let expected_pops =
            entries.iter().filter(|e| matches!(e.event, TraceEvent::Pop { .. })).count();
        let report = replay(&meta, &entries);
        prop_assert!(report.divergence.is_none(), "drift: {:?}", report.divergence);
        prop_assert_eq!(report.pops, expected_pops as u64);
        prop_assert_eq!(report.aged_steps, expected_aged,
            "aged picks must replay at the recorded logical steps");
    }
}

proptest! {
    /// With bound-only tasks, a single process and a quantum longer than any run (no
    /// valve or probe ever fires), the per-node cores — enqueues routed by
    /// `enqueue_shard`, picks through `ShardLadder` — produce the identical (task, tier)
    /// sequence as one flat policy over the whole machine. A steal surfaces as exactly
    /// the flat pick's `Remote` tier: the stolen entry is the oldest in the victim shard,
    /// which is the oldest remote entry of the flat view.
    #[test]
    fn split_steals_match_the_flat_pick_sequence(
        ops in proptest::collection::vec((0u8..2, 0u8..4, 0u32..40_000), 1..80),
    ) {
        let topo = Topology::new(CORES, NODES);
        let quantum = Duration::from_secs(3600);
        let mut flat = CoopPolicy::new(topo.clone(), quantum);
        let mut shards = NodeShards::new(&topo, quantum);
        let base = Instant::now();
        let mut now = 0u64;
        let mut next_id = 1u64;
        let mut drain_cores = std::collections::VecDeque::new();
        for (kind, core, dt) in ops {
            now += u64::from(dt);
            let at = base + Duration::from_nanos(now);
            let core = core as usize % CORES;
            if kind == 0 {
                let meta = TaskMeta { id: next_id, process: 1, preferred_core: Some(core) };
                flat.enqueue(&topo, meta, at);
                enqueue(&mut shards, meta, at);
                next_id += 1;
            } else {
                let expect = flat.pick_tiered(core, at);
                let got = shards.pick(core, at);
                prop_assert_eq!(got, expect, "split pick at core {} diverged", core);
                drain_cores.push_back(core);
            }
        }
        // Drain both models to empty through the same core sequence: every residual
        // entry must also be picked identically (steals included).
        let mut drain_core = 0usize;
        while flat.has_ready() || shards.has_ready() {
            now += 1_000;
            let at = base + Duration::from_nanos(now);
            let expect = flat.pick_tiered(drain_core, at);
            let got = shards.pick(drain_core, at);
            prop_assert_eq!(got, expect, "drain pick at core {} diverged", drain_core);
            prop_assert!(got.is_some(), "both report ready work but neither picks");
            drain_core = (drain_core + 1) % CORES;
        }
    }
}

/// Deterministic steal scenario: work bound to node 0 only, picked from a node-1 core.
/// The ladder must steal it and report the flat pick's `Remote` tier.
#[test]
fn split_steal_reports_the_flat_remote_tier() {
    let topo = Topology::new(CORES, NODES);
    let quantum = Duration::from_secs(3600);
    let mut flat = CoopPolicy::new(topo.clone(), quantum);
    let mut shards = NodeShards::new(&topo, quantum);
    let base = Instant::now();
    let meta = TaskMeta {
        id: 1,
        process: 1,
        preferred_core: Some(0),
    };
    flat.enqueue(&topo, meta, base);
    enqueue(&mut shards, meta, base);
    // Core 3 lives in node 1: its shard is empty, so the pick must steal from shard 0 —
    // and agree with the flat policy that this is a Remote-tier pick.
    let at = base + Duration::from_nanos(10);
    let expect = flat.pick_tiered(3, at);
    assert_eq!(expect, Some((meta, PickTier::Remote)));
    let got = shards.pick(3, at);
    assert_eq!(got, expect);
    assert!(!shards.has_ready());
}
