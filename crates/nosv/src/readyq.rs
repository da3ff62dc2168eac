//! The unified SCHED_COOP ready-queue.
//!
//! This module is the **single** implementation of the paper's SCHED_COOP ready-queue
//! structure (§4.1): per-process, per-preferred-core FIFO queues with an unbound queue, an
//! affinity → NUMA-node → remote tiered pop, a rate-limited anti-starvation aging valve,
//! and a per-process quantum ring. It is generic over
//!
//! * the **time type** ([`ReadyTime`]): the real runtime instantiates it with
//!   [`std::time::Instant`], the discrete-event simulator with its virtual `SimTime`, and
//!   tests/benches with plain `u64` nanoseconds; and
//! * the **topology view** ([`TopologyView`]): any type that can say how many cores exist
//!   and which NUMA node each belongs to (the runtime's `Topology`, the simulator's
//!   `Machine`).
//!
//! Both `usf_nosv::policy::CoopPolicy` and `usf_simsched`'s `CoopScheduler` are thin
//! adapters over [`CoopCore`], which is what guarantees the simulator always validates the
//! exact policy code the real runtime ships (previously the two crates hand-mirrored this
//! structure and had to be kept in sync by review).
//!
//! The real scheduler runs one [`CoopCore`] per NUMA node, each behind its own lock. The
//! order in which a core consults them ([`ShardLadder`]: foreign aging probe → local
//! tiers → steal) and the rule deciding which one a ready item is queued in
//! ([`enqueue_shard`]) live here too, as pure code: the scheduler and the sim replay both
//! call them, so there is one copy of the cross-shard order as well.
//!
//! # Complexity
//!
//! The seed implementation located the oldest queued entry with an O(#cores) scan of every
//! queue head on each aging-valve deadline and on every NUMA-tier pop. Here every queue
//! *head* is registered in lazy min-heaps keyed by the entry's global enqueue sequence
//! number — one heap over all queues plus one per NUMA node — so `oldest head` queries are
//! O(log cores) amortised. Registrations are appended when a queue's head changes
//! (push-to-empty or pop) and stale registrations are discarded lazily when they surface;
//! a size-triggered compaction (rebuild from the ≤ cores+1 live heads) bounds heap memory
//! regardless of how rarely the slow tiers run.
//!
//! # Ordering specification
//!
//! `pop_for(core)` serves, in order:
//!
//! 1. the **aging valve**: at most once per `aging` window, the globally oldest entry if
//!    it has waited ≥ `aging` (the starvation-freedom guarantee);
//! 2. the core's own FIFO (**affinity**);
//! 3. the oldest entry among the core's **NUMA node** queues and the **unbound** queue;
//! 4. the oldest **remote** entry. (The seed picked the first non-empty remote queue in
//!    core order; serving the oldest instead is strictly fairer and is what the heaps give
//!    for free. The property tests in `tests/readyq_equivalence.rs` pin this spec.)

use crate::topology::{CoreId, Topology};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::Hash;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A point in time the ready-queue can do arithmetic on.
///
/// Implemented for [`Instant`] (the real scheduler), for `u64` nanoseconds (tests and
/// benches), and by `usf-simsched` for its virtual `SimTime`.
pub trait ReadyTime: Copy + PartialOrd {
    /// The duration type separating two points.
    type Delta: Copy + PartialOrd;

    /// Time elapsed from `earlier` to `self`, saturating at zero.
    fn since(self, earlier: Self) -> Self::Delta;

    /// The point `delta` after `self`.
    fn advance(self, delta: Self::Delta) -> Self;
}

impl ReadyTime for Instant {
    type Delta = Duration;

    fn since(self, earlier: Self) -> Duration {
        self.saturating_duration_since(earlier)
    }

    fn advance(self, delta: Duration) -> Self {
        self + delta
    }
}

impl ReadyTime for u64 {
    type Delta = u64;

    fn since(self, earlier: Self) -> u64 {
        self.saturating_sub(earlier)
    }

    fn advance(self, delta: u64) -> Self {
        self.saturating_add(delta)
    }
}

/// The scheduling-relevant view of a machine topology: a dense [`CoreId`] space
/// partitioned into NUMA nodes. [`Topology`] is the canonical implementation — the
/// simulator's `Machine` embeds one and delegates — so every consumer speaks the same
/// core-id/node vocabulary.
pub trait TopologyView {
    /// Number of cores (dense ids `0..cores`).
    fn view_cores(&self) -> usize;

    /// NUMA node of a core.
    fn view_node_of(&self, core: CoreId) -> usize;
}

impl TopologyView for Topology {
    fn view_cores(&self) -> usize {
        self.num_cores()
    }

    fn view_node_of(&self, core: CoreId) -> usize {
        self.node_of(core)
    }
}

/// An immutable core → NUMA-node map snapshotted from a [`TopologyView`].
///
/// [`ProcQueues`] stores one (shared via `Arc`, so per-process clones are cheap) instead of
/// borrowing the topology on every call, which keeps the hot-path signatures free of a view
/// parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreMap {
    core_node: Vec<usize>,
    node_cores: Vec<Vec<usize>>,
}

impl CoreMap {
    /// Snapshot a view.
    pub fn from_view(view: &impl TopologyView) -> Self {
        let cores = view.view_cores();
        let core_node: Vec<usize> = (0..cores).map(|c| view.view_node_of(c)).collect();
        let nodes = core_node.iter().copied().max().map_or(1, |m| m + 1);
        let mut node_cores = vec![Vec::new(); nodes];
        for (c, &n) in core_node.iter().enumerate() {
            node_cores[n].push(c);
        }
        CoreMap {
            core_node,
            node_cores,
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.core_node.len()
    }

    /// Number of NUMA nodes.
    pub fn nodes(&self) -> usize {
        self.node_cores.len()
    }

    /// NUMA node of a core.
    ///
    /// # Panics
    /// Panics if `core` is out of range.
    pub fn node_of(&self, core: usize) -> usize {
        self.core_node[core]
    }

    /// Cores belonging to a node.
    pub fn cores_in_node(&self, node: usize) -> &[usize] {
        &self.node_cores[node]
    }
}

impl TopologyView for CoreMap {
    fn view_cores(&self) -> usize {
        self.cores()
    }

    fn view_node_of(&self, core: CoreId) -> usize {
        self.node_of(core)
    }
}

/// Which tier of the tiered pop served an item — the classification the schedule-trace
/// recorder logs with every `Pop` event so a replay can assert not just *which* item was
/// served but *why*.
///
/// The variants mirror the ordering specification in the [module documentation](self):
/// aging valve → affinity → NUMA node/unbound → remote.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PickTier {
    /// Served by the rate-limited anti-starvation aging valve.
    Aged,
    /// Served from the popping core's own FIFO (the affinity fast path).
    Affinity,
    /// Served as the oldest of the core's NUMA-node queues and the unbound queue.
    Node,
    /// Served as the oldest remote entry.
    Remote,
}

/// Queue source identifier inside the head heaps: a core id, or [`UNBOUND`].
const UNBOUND: usize = usize::MAX;

/// One queued item: its payload, a monotonically increasing enqueue sequence number (total
/// FIFO order across all of the process's queues) and the enqueue time (drives the
/// anti-starvation aging valve).
#[derive(Debug)]
struct Entry<T, C> {
    item: T,
    seq: u64,
    at: C,
}

/// Per-process ready queues: one FIFO per preferred core plus an unbound FIFO, with lazy
/// min-heaps over the queue heads for O(log cores) oldest-head queries.
///
/// See the [module documentation](self) for the ordering specification.
#[derive(Debug)]
pub struct ProcQueues<T, C: ReadyTime> {
    map: Arc<CoreMap>,
    per_core: Vec<VecDeque<Entry<T, C>>>,
    unbound: VecDeque<Entry<T, C>>,
    /// Per-process placement domain: when `Some`, only the flagged cores may pop from
    /// these queues (NUMA-aware pinning — the §5.6 socket-placement variants). `None`
    /// means any core (the default "anywhere" rule).
    domain: Option<Vec<bool>>,
    count: usize,
    next_seq: u64,
    /// Earliest time the anti-starvation valve needs to look at the queues again. Keeps
    /// the valve off the hot path: between deadlines, `pop_for` is the plain tiered pick.
    next_valve_at: Option<C>,
    /// Lazy min-heap over `(head seq, source)` of every non-empty queue (`source` is a
    /// core id or [`UNBOUND`]). Each entry is registered at most once — when it becomes a
    /// queue head — and discarded when it surfaces stale.
    heads: BinaryHeap<Reverse<(u64, usize)>>,
    /// Per-NUMA-node lazy min-heaps over that node's per-core queue heads (the unbound
    /// queue is tracked separately: it competes in every node).
    node_heads: Vec<BinaryHeap<Reverse<(u64, usize)>>>,
}

impl<T, C: ReadyTime> ProcQueues<T, C> {
    /// Empty queues for the given core map.
    pub fn new(map: Arc<CoreMap>) -> Self {
        let cores = map.cores();
        let nodes = map.nodes();
        ProcQueues {
            map,
            per_core: (0..cores).map(|_| VecDeque::new()).collect(),
            unbound: VecDeque::new(),
            domain: None,
            count: 0,
            next_seq: 0,
            next_valve_at: None,
            heads: BinaryHeap::new(),
            node_heads: (0..nodes).map(|_| BinaryHeap::new()).collect(),
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether no item is queued.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The core map these queues were built for.
    pub fn core_map(&self) -> &CoreMap {
        &self.map
    }

    /// Restrict (or, with `None`, un-restrict) these queues to a placement domain: only
    /// the given cores may pop. Cores outside the core map are ignored; an empty or fully
    /// out-of-range list leaves the domain unrestricted (a dead domain would strand every
    /// entry forever, which no caller can mean).
    pub fn set_domain(&mut self, cores: Option<&[CoreId]>) {
        self.domain = cores.and_then(|cs| {
            let mut mask = vec![false; self.map.cores()];
            let mut any = false;
            for &c in cs {
                if c < mask.len() {
                    mask[c] = true;
                    any = true;
                }
            }
            any.then_some(mask)
        });
    }

    /// Whether `core` may pop from these queues under the current placement domain.
    pub fn allows(&self, core: CoreId) -> bool {
        match &self.domain {
            Some(mask) => core < mask.len() && mask[core],
            None => true,
        }
    }

    /// Enqueue an item. A preference outside the core id range (e.g. recorded before a
    /// topology change) or outside the placement domain is treated as unbound — a pinned
    /// process's stale affinity to a core it can no longer run on must not strand the
    /// entry in a queue only the domain tiers can reach.
    pub fn push(&mut self, item: T, preferred: Option<usize>, now: C) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry { item, seq, at: now };
        let source = match preferred {
            Some(c) if c < self.per_core.len() && self.allows(c) => c,
            _ => UNBOUND,
        };
        let was_empty = if source == UNBOUND {
            self.unbound.is_empty()
        } else {
            self.per_core[source].is_empty()
        };
        // Enqueue BEFORE registering: registration can trigger a heap compaction, which
        // rebuilds from the queue fronts — the entry must already be visible there or its
        // registration is lost and the item becomes unreachable to every heap-based tier.
        if source == UNBOUND {
            self.unbound.push_back(entry);
        } else {
            self.per_core[source].push_back(entry);
        }
        self.count += 1;
        if was_empty {
            // The entry became this queue's head: register it.
            self.register_head(seq, source);
        }
    }

    /// Current head sequence number of a queue, if non-empty.
    fn head_seq(&self, source: usize) -> Option<u64> {
        if source == UNBOUND {
            self.unbound.front().map(|e| e.seq)
        } else {
            self.per_core[source].front().map(|e| e.seq)
        }
    }

    /// Register a new queue head in the heaps, compacting the ones this registration
    /// touched if stale entries have piled up.
    fn register_head(&mut self, seq: u64, source: usize) {
        self.heads.push(Reverse((seq, source)));
        if self.heads.len() > 2 * (self.per_core.len() + 1) + 16 {
            self.compact_global();
        }
        if source != UNBOUND {
            let node = self.map.node_of(source);
            self.node_heads[node].push(Reverse((seq, source)));
            if self.node_heads[node].len() > 2 * self.map.cores_in_node(node).len() + 8 {
                self.compact_node(node);
            }
        }
    }

    /// Rebuild the global heap from the ≤ cores+1 live heads. Registrations are only
    /// discarded lazily at the top, so a workload that always exits at the affinity tier
    /// would otherwise grow the heap without bound; the rebuild is O(cores) and triggered
    /// at most once per O(cores) head changes, so it amortises to O(1). (Only the heaps a
    /// registration touched can have grown, so `register_head` checks just those — the
    /// threshold comparisons themselves are O(1) and allocation-free.)
    fn compact_global(&mut self) {
        self.heads.clear();
        for (c, q) in self.per_core.iter().enumerate() {
            if let Some(e) = q.front() {
                self.heads.push(Reverse((e.seq, c)));
            }
        }
        if let Some(e) = self.unbound.front() {
            self.heads.push(Reverse((e.seq, UNBOUND)));
        }
    }

    /// Rebuild one node heap from that node's live per-core heads (see
    /// [`ProcQueues::compact_global`]).
    fn compact_node(&mut self, node: usize) {
        self.node_heads[node].clear();
        let cores = self.map.cores_in_node(node).len();
        for i in 0..cores {
            let c = self.map.cores_in_node(node)[i];
            if let Some(e) = self.per_core[c].front() {
                let seq = e.seq;
                self.node_heads[node].push(Reverse((seq, c)));
            }
        }
    }

    /// Oldest live head in the global heap, discarding stale registrations.
    fn peek_global(&mut self) -> Option<(u64, usize)> {
        loop {
            let (seq, src) = match self.heads.peek() {
                Some(&Reverse(top)) => top,
                None => return None,
            };
            if self.head_seq(src) == Some(seq) {
                return Some((seq, src));
            }
            self.heads.pop();
        }
    }

    /// Oldest live per-core head in `node`'s heap, discarding stale registrations.
    fn peek_node(&mut self, node: usize) -> Option<(u64, usize)> {
        loop {
            let (seq, src) = match self.node_heads[node].peek() {
                Some(&Reverse(top)) => top,
                None => return None,
            };
            if self.head_seq(src) == Some(seq) {
                return Some((seq, src));
            }
            self.node_heads[node].pop();
        }
    }

    /// Pop the head of `source`, registering the queue's new head if any.
    fn pop_from(&mut self, source: usize) -> Entry<T, C> {
        let entry = if source == UNBOUND {
            self.unbound.pop_front()
        } else {
            self.per_core[source].pop_front()
        }
        .expect("candidate queue has a head");
        self.count -= 1;
        if let Some(seq) = self.head_seq(source) {
            self.register_head(seq, source);
        }
        entry
    }

    /// The anti-starvation valve: at most once per `aging` window, serve the oldest queued
    /// entry regardless of placement if it has waited longer than `aging`. Every pop path
    /// (including affinity-only pre-passes like the simulator's `pick_affine`) must consult
    /// this first so no pick can bypass the liveness guarantee.
    ///
    /// The valve is rate-limited (one aged grant per `aging` window, tracked by
    /// `next_valve_at`) so that under sustained oversubscription — where *every* entry is
    /// older than one quantum — the policy stays affinity-first instead of degrading into a
    /// global FIFO; liveness only needs the oldest entry to be served eventually, with
    /// bounded delay. The deadline check also keeps the oldest-head query off the common
    /// path entirely.
    pub fn pop_aged(&mut self, now: C, aging: C::Delta) -> Option<T> {
        if self.next_valve_at.map_or(true, |t| now >= t) {
            match self.peek_global() {
                Some((_, src)) => {
                    let at = if src == UNBOUND {
                        self.unbound.front().expect("live head").at
                    } else {
                        self.per_core[src].front().expect("live head").at
                    };
                    if now.since(at) >= aging {
                        self.next_valve_at = Some(now.advance(aging));
                        return Some(self.pop_from(src).item);
                    }
                    // Nothing aged yet: the current oldest entry is the first that can
                    // age (later entries age strictly later).
                    self.next_valve_at = Some(at.advance(aging));
                }
                None => self.next_valve_at = Some(now.advance(aging)),
            }
        }
        None
    }

    /// Pop the head of `core`'s own FIFO, if any. Used by affinity-only pre-passes; callers
    /// must run [`ProcQueues::pop_aged`] first (see there). Returns `None` for cores
    /// outside the placement domain.
    pub fn pop_affine(&mut self, core: usize) -> Option<T> {
        if !self.allows(core) {
            return None;
        }
        if self.per_core[core].front().is_some() {
            Some(self.pop_from(core).item)
        } else {
            None
        }
    }

    /// Tiered pop for an idle core: aging valve → own FIFO → oldest of (same-node FIFOs,
    /// unbound FIFO) → oldest remote entry. See the module documentation for the rationale
    /// of each tier. A core outside the placement domain gets nothing — not even the aging
    /// valve may violate a pin; the valve's liveness guarantee holds because every domain
    /// contains at least one core ([`ProcQueues::set_domain`]) and domain cores still run
    /// the valve first.
    ///
    /// # Panics
    /// Panics if `core` is outside the core map.
    pub fn pop_for(&mut self, core: usize, now: C, aging: C::Delta) -> Option<T> {
        self.pop_for_tiered(core, now, aging).map(|(t, _)| t)
    }

    /// [`ProcQueues::pop_for`], additionally reporting which tier served the item (the
    /// form the trace recorder and the sim-replay harness use).
    ///
    /// # Panics
    /// Panics if `core` is outside the core map.
    pub fn pop_for_tiered(
        &mut self,
        core: usize,
        now: C,
        aging: C::Delta,
    ) -> Option<(T, PickTier)> {
        if !self.allows(core) {
            return None;
        }
        if let Some(t) = self.pop_aged(now, aging) {
            return Some((t, PickTier::Aged));
        }
        if self.per_core[core].front().is_some() {
            return Some((self.pop_from(core).item, PickTier::Affinity));
        }
        // Same-node queues and the unbound queue compete by enqueue order. The core's own
        // queue is empty here, so any of its registrations in the node heap are stale and
        // get discarded by the peek.
        let node = self.map.node_of(core);
        let node_best = self.peek_node(node);
        let unbound_seq = self.unbound.front().map(|e| e.seq);
        let best = match (node_best, unbound_seq) {
            (Some((s, src)), Some(us)) => Some(if us < s { UNBOUND } else { src }),
            (Some((_, src)), None) => Some(src),
            (None, Some(_)) => Some(UNBOUND),
            (None, None) => None,
        };
        if let Some(src) = best {
            return Some((self.pop_from(src).item, PickTier::Node));
        }
        // Every same-node queue and the unbound queue are empty, so the global minimum (if
        // any) is the oldest entry on a remote node.
        if let Some((_, src)) = self.peek_global() {
            debug_assert!(src != UNBOUND && self.map.node_of(src) != node);
            return Some((self.pop_from(src).item, PickTier::Remote));
        }
        None
    }

    /// Number of heap registrations currently held (diagnostics: bounded by compaction).
    #[cfg(test)]
    fn heap_len(&self) -> usize {
        self.heads.len() + self.node_heads.iter().map(|h| h.len()).sum::<usize>()
    }
}

/// The shared SCHED_COOP policy core: [`ProcQueues`] per process domain plus the
/// per-process quantum ring, generic over process id, queued item and time type.
///
/// `usf_nosv::policy::CoopPolicy` instantiates it as
/// `CoopCore<ProcessId, TaskMeta, Instant>`; the simulator's `CoopScheduler` as
/// `CoopCore<ProcessId, ThreadId, SimTime>`. The real scheduler runs one per NUMA node
/// (see [`ShardLadder`] for how the per-node cores are arbitrated).
#[derive(Debug)]
pub struct CoopCore<P, T, C: ReadyTime> {
    map: Arc<CoreMap>,
    queues: HashMap<P, ProcQueues<T, C>>,
    /// Requested per-process placement domains (survive topology re-snapshots, which
    /// rebuild the queues).
    domains: HashMap<P, Vec<CoreId>>,
    /// Registration order; quantum rotation walks this ring.
    order: Vec<P>,
    current: usize,
    quantum: C::Delta,
    quantum_started: Option<C>,
    rotations: u64,
    /// Total queued across every process (O(1) `has_ready`/`ready_count`).
    total: usize,
}

impl<P: Copy + Eq + Hash, T, C: ReadyTime> CoopCore<P, T, C> {
    /// Create a policy core for the given topology view and per-process quantum
    /// (the quantum doubles as the aging-valve window).
    pub fn new(view: &impl TopologyView, quantum: C::Delta) -> Self {
        CoopCore {
            map: Arc::new(CoreMap::from_view(view)),
            queues: HashMap::new(),
            domains: HashMap::new(),
            order: Vec::new(),
            current: 0,
            quantum,
            quantum_started: None,
            rotations: 0,
            total: 0,
        }
    }

    /// Re-snapshot the topology. Queues built for a different core map are recreated
    /// empty (their entries are dropped — callers only do this before work is queued,
    /// e.g. the simulator's `init`).
    pub fn set_topology(&mut self, view: &impl TopologyView) {
        let map = Arc::new(CoreMap::from_view(view));
        if *map == *self.map {
            return;
        }
        self.map = Arc::clone(&map);
        for (pid, q) in self.queues.iter_mut() {
            self.total -= q.len();
            *q = ProcQueues::new(Arc::clone(&map));
            q.set_domain(self.domains.get(pid).map(|d| d.as_slice()));
        }
    }

    /// Restrict (or, with `None`, un-restrict) a process domain to a set of cores — the
    /// scheduler-level half of NUMA-aware placement: once set, no pop path (not even the
    /// aging valve) serves this process's entries to a core outside the set. Unknown
    /// processes are registered first; the restriction survives topology re-snapshots.
    pub fn set_process_domain(&mut self, process: P, cores: Option<Vec<CoreId>>) {
        self.register_process(process);
        match &cores {
            Some(cs) => {
                self.domains.insert(process, cs.clone());
            }
            None => {
                self.domains.remove(&process);
            }
        }
        self.queues
            .get_mut(&process)
            .expect("process just registered")
            .set_domain(cores.as_deref());
    }

    /// The placement domain of a process, if one was set.
    pub fn process_domain(&self, process: P) -> Option<&[CoreId]> {
        self.domains.get(&process).map(|d| d.as_slice())
    }

    /// The process whose quantum is currently active, if any.
    pub fn current_process(&self) -> Option<P> {
        self.order.get(self.current).copied()
    }

    /// Number of process-quantum rotations performed so far.
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// Total queued items.
    pub fn ready_count(&self) -> usize {
        self.total
    }

    /// Whether anything is queued.
    pub fn has_ready(&self) -> bool {
        self.total > 0
    }

    /// Whether anything is queued that `core` would be allowed to run — i.e. some
    /// process with a non-empty queue whose placement domain (if any) contains the core.
    /// Equals [`CoopCore::has_ready`] when no domains are set.
    pub fn has_ready_for(&self, core: usize) -> bool {
        self.total > 0
            && self
                .queues
                .values()
                .any(|q| !q.is_empty() && q.allows(core))
    }

    /// Register a process domain (idempotent). A placement restriction recorded for the
    /// process is (re)applied.
    pub fn register_process(&mut self, process: P) {
        if self.queues.contains_key(&process) {
            return;
        }
        let mut q = ProcQueues::new(Arc::clone(&self.map));
        q.set_domain(self.domains.get(&process).map(|d| d.as_slice()));
        self.queues.insert(process, q);
        self.order.push(process);
    }

    /// Deregister a process domain, dropping any queued entries and its placement
    /// restriction.
    pub fn deregister_process(&mut self, process: P) {
        if let Some(q) = self.queues.remove(&process) {
            self.total -= q.len();
        }
        self.domains.remove(&process);
        if let Some(pos) = self.order.iter().position(|p| *p == process) {
            self.order.remove(pos);
            if self.current >= self.order.len() {
                self.current = 0;
            }
        }
    }

    /// Enqueue a ready item for `process` (auto-registering unknown processes).
    pub fn enqueue(&mut self, process: P, item: T, preferred: Option<usize>, now: C) {
        self.register_process(process);
        self.queues
            .get_mut(&process)
            .expect("process just registered")
            .push(item, preferred, now);
        self.total += 1;
    }

    fn rotate_if_expired(&mut self, now: C) {
        if self.order.len() <= 1 {
            return;
        }
        let expired = match self.quantum_started {
            Some(start) => now.since(start) >= self.quantum,
            None => false,
        };
        if expired {
            // Advance to the next process that has ready work (or just the next process if
            // none do — the quantum restarts either way).
            let len = self.order.len();
            let mut next = (self.current + 1) % len;
            for off in 0..len {
                let cand = (self.current + 1 + off) % len;
                let pid = self.order[cand];
                if self
                    .queues
                    .get(&pid)
                    .map(|q| !q.is_empty())
                    .unwrap_or(false)
                {
                    next = cand;
                    break;
                }
            }
            if next != self.current {
                self.rotations += 1;
            }
            self.current = next;
            self.quantum_started = Some(now);
        }
    }

    /// Pick the next item an idle `core` should run: rotate the quantum ring if expired,
    /// then tiered-pop ([`ProcQueues::pop_for`]) from the current process, falling through
    /// to the other processes (which passes the turn to whichever one had work — but only
    /// when the current process is genuinely *empty*, see below).
    pub fn pick(&mut self, core: usize, now: C) -> Option<T> {
        self.pick_tiered(core, now).map(|(t, _)| t)
    }

    /// [`CoopCore::pick`], additionally reporting which tier of the tiered pop served the
    /// item. The turn-passing and quantum semantics are identical — this is the same code
    /// path, and it is what the schedule-trace recorder and the replay harness call so a
    /// recorded pick can be checked tier-for-tier against its sim re-execution.
    pub fn pick_tiered(&mut self, core: usize, now: C) -> Option<(T, PickTier)> {
        if self.order.is_empty() {
            return None;
        }
        if self.quantum_started.is_none() {
            self.quantum_started = Some(now);
        }
        self.rotate_if_expired(now);
        // The turn passes on a fall-through only if the current process has nothing
        // queued at all. With placement domains, pop_for also returns None when this
        // *core* is outside the process's pin while work is still queued — a foreign
        // core serving another process is then a courtesy fill, not a turn steal;
        // otherwise every pick from outside the pin would reset the quantum and the
        // pinned process would only ever be served through the aging valve.
        // (Without domains, pop_for == None implies empty, so this is the old rule.)
        let current_empty = self
            .order
            .get(self.current)
            .and_then(|pid| self.queues.get(pid))
            .map_or(true, |q| q.is_empty());
        let len = self.order.len();
        for off in 0..len {
            let idx = (self.current + off) % len;
            let pid = self.order[idx];
            if let Some(q) = self.queues.get_mut(&pid) {
                // Entries older than one quantum are served oldest-first regardless of
                // placement (the starvation valve in ProcQueues::pop_for).
                if let Some((t, tier)) = q.pop_for_tiered(core, now, self.quantum) {
                    if off != 0 && current_empty {
                        // We skipped ahead because the current process had nothing ready;
                        // its turn effectively passes to this process.
                        self.current = idx;
                        self.quantum_started = Some(now);
                        self.rotations += 1;
                    }
                    self.total -= 1;
                    return Some((t, tier));
                }
            }
        }
        None
    }

    /// Affinity-only pick: serve items whose preferred core is exactly `core`, regardless
    /// of the process rotation (affinity placement is checked before quantum fairness,
    /// §4.1) — but the anti-starvation valve still comes first: a saturated dispatch that
    /// always finds affine candidates here would otherwise never reach the valve in
    /// [`ProcQueues::pop_for`] (the real nOS-V runtime has no valve-free pick path, and no
    /// user of this core must have one either).
    pub fn pick_affine(&mut self, core: usize, now: C) -> Option<T> {
        for i in 0..self.order.len() {
            let pid = self.order[i];
            if let Some(q) = self.queues.get_mut(&pid) {
                // A pinned process is skipped entirely on foreign cores — its aging valve
                // runs when one of its own cores reaches a scheduling point.
                if !q.allows(core) {
                    continue;
                }
                if let Some(t) = q.pop_aged(now, self.quantum) {
                    self.total -= 1;
                    return Some(t);
                }
                if let Some(t) = q.pop_affine(core) {
                    self.total -= 1;
                    return Some(t);
                }
            }
        }
        None
    }

    /// Aging-valve-only pick on behalf of `core`: serve an entry that has waited longer
    /// than one quantum, oldest-first, from any process whose domain allows the core.
    /// This is the cross-shard aging valve's probe into a foreign shard — the quantum
    /// ring is deliberately not rotated and the current turn is untouched, exactly like
    /// the valve tier inside `pop_for`: aged service is a fairness override, not a turn.
    /// Like [`ProcQueues::pop_aged`], probing re-arms each probed queue's valve deadline
    /// even when nothing is old enough, a side effect the sim replay re-executes.
    pub fn pick_aged_for(&mut self, core: usize, now: C) -> Option<T> {
        for i in 0..self.order.len() {
            let pid = self.order[i];
            if let Some(q) = self.queues.get_mut(&pid) {
                if !q.allows(core) {
                    continue;
                }
                if let Some(t) = q.pop_aged(now, self.quantum) {
                    self.total -= 1;
                    return Some(t);
                }
            }
        }
        None
    }
}

/// One rung of the cross-shard pick ladder, handed by [`ShardLadder::pick`] to the caller's
/// "try this shard" closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderStep {
    /// Aging-valve-only probe of the given foreign shard ([`CoopCore::pick_aged_for`]).
    ForeignAged(usize),
    /// The home shard's ordinary tiered pick ([`CoopCore::pick_tiered`]).
    Local,
    /// Ordinary tiered pick from the given foreign shard, on local exhaustion.
    Steal(usize),
}

/// The cross-shard half of SCHED_COOP: the order in which a core of shard `home` consults
/// the per-NUMA-node [`CoopCore`]s, as pure code over "a way to try shard *i*". The real
/// scheduler (one ladder per independently locked shard; trying a foreign shard is a
/// `try_lock`) and the sim replay (plain cores, [`CoopShards`]) both run this one copy,
/// so the order cannot drift between them.
///
/// One [`ShardLadder::pick`] is exactly one logical pick:
///
/// 1. **foreign aging probe**, rate-limited to one per `period` per ladder with the same
///    deadline discipline as the per-queue valve in [`ProcQueues::pop_for`] (the first
///    pick arms without firing; a pick at or past the deadline fires and re-arms from
///    `now`): per-node queues must not starve a task whose home node went quiet;
/// 2. **local tiers** of the home shard;
/// 3. **steal** from a foreign shard on local exhaustion.
///
/// Foreign shards are visited in the order `(home+1 .. home+n) mod n`; a shard the caller
/// cannot or need not try (lost `try_lock`, nothing ready) answers `None` and the ladder
/// moves on. With one shard the ladder is the local pick alone and the valve never ticks.
#[derive(Debug)]
pub struct ShardLadder<C: ReadyTime> {
    home: usize,
    shards: usize,
    period: C::Delta,
    /// Deadline of the next foreign aging probe; `None` until the first pick arms it.
    next_probe_at: Option<C>,
}

impl<C: ReadyTime> ShardLadder<C> {
    /// The ladder of shard `home` out of `shards`, probing foreign shards for aged work at
    /// most once per `period` (the scheduler passes the process quantum).
    pub fn new(home: usize, shards: usize, period: C::Delta) -> Self {
        assert!(home < shards, "home shard {home} out of {shards}");
        ShardLadder {
            home,
            shards,
            period,
            next_probe_at: None,
        }
    }

    /// The foreign shards in visiting order.
    fn victims(&self) -> impl Iterator<Item = usize> {
        let (home, n) = (self.home, self.shards);
        (1..n).map(move |off| (home + off) % n)
    }

    /// Tick the probe rate limiter: whether a foreign aging probe is due at `now`.
    fn probe_due(&mut self, now: C) -> bool {
        if self.shards == 1 {
            return false;
        }
        let due = self.next_probe_at.is_some_and(|t| t <= now);
        if due || self.next_probe_at.is_none() {
            self.next_probe_at = Some(now.advance(self.period));
        }
        due
    }

    /// One logical pick at `now`: offer `try_step` the rungs in ladder order until one
    /// yields. `try_step` performs the actual pick on the named shard (and owns whatever
    /// makes a shard untryable); it is called at most once per rung.
    pub fn pick<R>(
        &mut self,
        now: C,
        mut try_step: impl FnMut(LadderStep) -> Option<R>,
    ) -> Option<R> {
        if self.probe_due(now) {
            let aged = self
                .victims()
                .find_map(|v| try_step(LadderStep::ForeignAged(v)));
            if aged.is_some() {
                return aged;
            }
        }
        try_step(LadderStep::Local)
            .or_else(|| self.victims().find_map(|v| try_step(LadderStep::Steal(v))))
    }
}

/// The shard owning `core` when a `view` is split into `shards` shards: its NUMA node —
/// or shard 0 when there is only one shard or the core is outside the view.
pub fn shard_of_core(view: &impl TopologyView, shards: usize, core: usize) -> usize {
    if shards == 1 || core >= view.view_cores() {
        return 0;
    }
    view.view_node_of(core)
}

/// The enqueue routing rule: a yield requeue stays in the shard of the core that yielded
/// (`yield_core` — the yielder surrendered its preference, and its shard is the one whose
/// lock is already held); every other ready item goes to its `preferred` core's shard;
/// an item with no usable core goes to shard 0.
pub fn enqueue_shard(
    view: &impl TopologyView,
    shards: usize,
    yield_core: Option<usize>,
    preferred: Option<usize>,
) -> usize {
    yield_core
        .or(preferred)
        .map_or(0, |c| shard_of_core(view, shards, c))
}

/// One [`CoopCore`] and one [`ShardLadder`] per NUMA node of a view, every shard always
/// tryable: the scheduler's ready side without its locks. The sim replay re-executes
/// recorded schedules on one; the equivalence tests drive one directly.
pub struct CoopShards<P, T, C: ReadyTime> {
    /// `cores[i]` is shard `i`; registrations and domains go to every one of them.
    pub cores: Vec<CoopCore<P, T, C>>,
    ladders: Vec<ShardLadder<C>>,
}

impl<P: Copy + Eq + Hash, T, C: ReadyTime> CoopShards<P, T, C> {
    /// Shards for the given topology view and per-process quantum.
    pub fn new(view: &impl TopologyView, quantum: C::Delta) -> Self {
        let n = CoreMap::from_view(view).nodes();
        CoopShards {
            cores: (0..n).map(|_| CoopCore::new(view, quantum)).collect(),
            ladders: (0..n).map(|i| ShardLadder::new(i, n, quantum)).collect(),
        }
    }

    /// Enqueue a ready item in the shard [`enqueue_shard`] names.
    pub fn enqueue(
        &mut self,
        process: P,
        item: T,
        yield_core: Option<usize>,
        preferred: Option<usize>,
        now: C,
    ) {
        let map = &*self.cores[0].map;
        let si = enqueue_shard(map, self.cores.len(), yield_core, preferred);
        self.cores[si].enqueue(process, item, preferred, now);
    }

    /// Whether any shard has something queued.
    pub fn has_ready(&self) -> bool {
        self.cores.iter().any(|c| c.has_ready())
    }

    /// One [`ShardLadder::pick`] for `core`. A foreign shard with nothing ready is skipped
    /// rather than picked from — even an empty pick re-arms valve deadlines and may
    /// rotate the quantum ring — which is the same guard the real scheduler applies
    /// through its lock-free per-shard ready counters.
    pub fn pick(&mut self, core: usize, now: C) -> Option<(T, PickTier)> {
        let cores = &mut self.cores;
        let home = shard_of_core(&*cores[0].map, cores.len(), core);
        self.ladders[home].pick(now, |step| match step {
            LadderStep::ForeignAged(v) if cores[v].has_ready() => cores[v]
                .pick_aged_for(core, now)
                .map(|t| (t, PickTier::Aged)),
            LadderStep::Local => cores[home].pick_tiered(core, now),
            LadderStep::Steal(v) if cores[v].has_ready() => cores[v].pick_tiered(core, now),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(cores: usize, nodes: usize) -> Arc<CoreMap> {
        Arc::new(CoreMap::from_view(&Topology::new(cores, nodes)))
    }

    #[test]
    fn core_map_snapshots_topology() {
        let m = map(7, 3);
        assert_eq!(m.cores(), 7);
        assert_eq!(m.nodes(), 3);
        assert_eq!(m.cores_in_node(0), &[0, 1, 2]);
        assert_eq!(m.node_of(6), 2);
    }

    #[test]
    fn fifo_order_within_one_queue() {
        let mut q: ProcQueues<u32, u64> = ProcQueues::new(map(1, 1));
        for id in 1..=5 {
            q.push(id, Some(0), 0);
        }
        let got: Vec<u32> = (0..5).map(|_| q.pop_for(0, 0, 100).unwrap()).collect();
        assert_eq!(got, vec![1, 2, 3, 4, 5]);
        assert!(q.is_empty());
    }

    #[test]
    fn affinity_beats_older_node_entry() {
        let mut q: ProcQueues<u32, u64> = ProcQueues::new(map(4, 2));
        q.push(1, Some(2), 0);
        q.push(2, Some(0), 0);
        // Core 0 takes its affine entry even though core 2's is older.
        assert_eq!(q.pop_for(0, 0, 1_000), Some(2));
        assert_eq!(q.pop_for(2, 0, 1_000), Some(1));
    }

    #[test]
    fn node_tier_serves_oldest_of_node_and_unbound() {
        let mut q: ProcQueues<u32, u64> = ProcQueues::new(map(4, 2));
        q.push(1, None, 0); // unbound, oldest
        q.push(2, Some(1), 0); // same node as core 0
        assert_eq!(q.pop_for(0, 0, 1_000), Some(1), "unbound entry is older");
        assert_eq!(q.pop_for(0, 0, 1_000), Some(2));
    }

    #[test]
    fn remote_tier_serves_oldest_remote() {
        let mut q: ProcQueues<u32, u64> = ProcQueues::new(map(6, 3));
        // Core 0 is in node 0; push remote entries out of core order.
        q.push(1, Some(4), 0); // node 2, older
        q.push(2, Some(2), 1); // node 1, newer but smaller core id
        assert_eq!(q.pop_for(0, 1, 1_000), Some(1), "oldest remote wins");
        assert_eq!(q.pop_for(0, 1, 1_000), Some(2));
    }

    #[test]
    fn out_of_range_preference_is_unbound() {
        let mut q: ProcQueues<u32, u64> = ProcQueues::new(map(2, 1));
        q.push(7, Some(99), 0);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_for(0, 0, 1_000), Some(7));
    }

    #[test]
    fn aging_valve_serves_oldest_once_per_window() {
        let mut q: ProcQueues<u32, u64> = ProcQueues::new(map(2, 1));
        q.push(1, Some(1), 0); // will age
        q.push(2, Some(0), 5); // core 0's affine entry
        q.push(3, Some(1), 5);
        // At t=100 with aging=50, entry 1 has aged: the valve serves it ahead of core 0's
        // own queue.
        assert_eq!(q.pop_for(0, 100, 50), Some(1));
        // The valve is rate-limited: the next pop within the window is the plain tiered
        // pick (affinity first), even though entry 3 has also aged.
        assert_eq!(q.pop_for(0, 101, 50), Some(2));
        // After the window, the valve fires again.
        assert_eq!(q.pop_for(0, 200, 50), Some(3));
    }

    #[test]
    fn pop_aged_nothing_old_enough_sets_deadline() {
        let mut q: ProcQueues<u32, u64> = ProcQueues::new(map(1, 1));
        q.push(1, Some(0), 10);
        assert_eq!(q.pop_aged(20, 100), None);
        // Deadline is entry age + window (110); before it the valve stays closed even for
        // aged entries (rate limit), after it the oldest is served.
        assert_eq!(q.pop_aged(109, 100), None);
        assert_eq!(q.pop_aged(115, 100), Some(1));
    }

    #[test]
    fn heap_registrations_stay_bounded() {
        // A workload that always exits at the affinity tier never consults the heaps; the
        // compaction must still bound their size.
        let mut q: ProcQueues<u32, u64> = ProcQueues::new(map(4, 2));
        q.push(0, None, 0); // ancient unbound entry pins the global minimum
        for i in 0..10_000u32 {
            q.push(i, Some(1), u64::from(i));
            assert_eq!(q.pop_affine(1), Some(i));
        }
        assert!(
            q.heap_len() <= 4 * (4 + 1) + 48,
            "heaps grew to {}",
            q.heap_len()
        );
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_for(0, 0, 1 << 40), Some(0));
    }

    #[test]
    fn push_to_empty_queue_survives_compaction() {
        // Regression: `push` used to register the new head *before* enqueueing the entry.
        // A compaction triggered inside that registration rebuilds the heaps from the
        // queue fronts — which did not yet contain the entry — permanently dropping its
        // registration: the item stayed queued (`len() == 1`) but the valve, node and
        // remote tiers could never find it (a lost ready task in the scheduler).
        let mut q: ProcQueues<u32, u64> = ProcQueues::new(map(4, 2));
        // Accumulate stale global registrations: each push-to-empty registers a head, the
        // pop leaves that registration stale without cleaning it.
        while q.heads.len() < 2 * (4 + 1) + 16 {
            q.push(1, None, 0);
            let _ = q.pop_from(UNBOUND);
        }
        // The next registration crosses the compaction threshold mid-push.
        q.push(777, Some(3), 0);
        assert_eq!(q.len(), 1);
        // Core 0 (other NUMA node) can only reach the entry through the heaps.
        assert_eq!(q.pop_for(0, 10, 5), Some(777));
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_preserves_global_order_per_tier() {
        // Stress the lazy-heap bookkeeping: pops must always return the oldest entry the
        // tier specification allows, across many interleavings.
        let mut q: ProcQueues<u64, u64> = ProcQueues::new(map(4, 2));
        let mut expected: Vec<u64> = Vec::new();
        let mut seq = 0u64;
        for round in 0..200u64 {
            for k in 0..(round % 5 + 1) {
                let pref = match (round + k) % 6 {
                    0 => None,
                    m => Some((m as usize - 1) % 4),
                };
                q.push(seq, pref, round);
                expected.push(seq);
                seq += 1;
            }
            if round % 3 == 0 {
                // Aging window of zero: the valve serves strictly oldest-first, which makes
                // the expected order the global FIFO.
                if let Some(got) = q.pop_for((round % 4) as usize, round, 0) {
                    let want = expected.remove(0);
                    assert_eq!(got, want, "round {round}");
                }
            }
        }
        while let Some(got) = q.pop_for(0, u64::MAX - 1, 0) {
            let want = expected.remove(0);
            assert_eq!(got, want);
        }
        assert!(expected.is_empty());
        assert!(q.is_empty());
    }

    #[test]
    fn coop_core_rotates_quantum() {
        let topo = Topology::single_node(1);
        let mut core: CoopCore<u32, u64, u64> = CoopCore::new(&topo, 10);
        core.enqueue(0, 1, None, 0);
        core.enqueue(1, 2, None, 0);
        core.enqueue(0, 3, None, 0);
        core.enqueue(1, 4, None, 0);
        assert_eq!(core.pick(0, 0), Some(1));
        assert_eq!(core.pick(0, 5), Some(3));
        // Quantum expired → process 1's turn.
        assert_eq!(core.pick(0, 15), Some(2));
        assert_eq!(core.current_process(), Some(1));
        assert_eq!(core.pick(0, 20), Some(4));
        assert!(core.rotations() >= 1);
        assert!(!core.has_ready());
    }

    #[test]
    fn coop_core_passes_turn_to_nonempty_process() {
        let topo = Topology::single_node(2);
        let mut core: CoopCore<u32, u64, u64> = CoopCore::new(&topo, 1_000);
        core.register_process(0);
        core.register_process(1);
        core.enqueue(1, 10, None, 0);
        assert_eq!(core.pick(0, 0), Some(10));
        assert!(core.rotations() >= 1);
        assert_eq!(core.ready_count(), 0);
    }

    #[test]
    fn coop_core_deregister_drops_entries() {
        let topo = Topology::single_node(1);
        let mut core: CoopCore<u32, u64, u64> = CoopCore::new(&topo, 10);
        core.enqueue(0, 1, None, 0);
        core.enqueue(1, 2, None, 0);
        assert_eq!(core.ready_count(), 2);
        core.deregister_process(0);
        assert_eq!(core.ready_count(), 1);
        assert_eq!(core.pick(0, 0), Some(2));
    }

    #[test]
    fn coop_core_pick_affine_respects_valve() {
        let topo = Topology::single_node(2);
        let mut core: CoopCore<u32, u64, u64> = CoopCore::new(&topo, 50);
        core.enqueue(0, 1, Some(1), 0); // will age
        core.enqueue(0, 2, Some(0), 60);
        // At t=100 entry 1 (waiting 100 ≥ 50) must be served by the valve even though the
        // affine pick for core 0 would find entry 2.
        assert_eq!(core.pick_affine(0, 100), Some(1));
        assert_eq!(core.pick_affine(0, 101), Some(2));
        assert_eq!(core.pick_affine(0, 102), None);
    }

    #[test]
    fn domain_restricts_every_pop_tier() {
        let mut q: ProcQueues<u32, u64> = ProcQueues::new(map(4, 2));
        q.set_domain(Some(&[0, 1])); // node 0 only
        q.push(1, Some(0), 0); // affine inside the domain
        q.push(2, None, 0); // unbound
                            // A core outside the domain gets nothing from any tier — even with an aged entry.
        assert_eq!(q.pop_for(2, 1_000_000, 1), None);
        assert_eq!(q.pop_affine(2), None);
        // Domain cores are served normally (valve first at aged times).
        assert_eq!(q.pop_for(1, 1_000_000, 1), Some(1));
        assert_eq!(q.pop_for(0, 1_000_000, 1), Some(2));
        assert!(q.is_empty());
    }

    #[test]
    fn domain_clamps_out_of_domain_preference_to_unbound() {
        let mut q: ProcQueues<u32, u64> = ProcQueues::new(map(4, 2));
        q.set_domain(Some(&[2, 3]));
        // Stale affinity to core 0 (outside the domain): must still be reachable by the
        // domain cores through the unbound queue.
        q.push(7, Some(0), 0);
        assert_eq!(q.pop_for(2, 0, 1_000), Some(7));
    }

    #[test]
    fn empty_or_out_of_range_domain_is_unrestricted() {
        let mut q: ProcQueues<u32, u64> = ProcQueues::new(map(2, 1));
        q.set_domain(Some(&[99])); // fully out of range: ignored, not a dead pin
        q.push(1, None, 0);
        assert_eq!(q.pop_for(0, 0, 1_000), Some(1));
        q.set_domain(Some(&[]));
        q.push(2, None, 0);
        assert_eq!(q.pop_for(1, 0, 1_000), Some(2));
    }

    #[test]
    fn coop_core_process_domains_route_picks() {
        let topo = Topology::new(4, 2);
        let mut core: CoopCore<u32, u64, u64> = CoopCore::new(&topo, 10);
        core.set_process_domain(0, Some(vec![0, 1]));
        core.set_process_domain(1, Some(vec![2, 3]));
        core.enqueue(0, 100, None, 0);
        core.enqueue(1, 200, None, 0);
        // Each core only serves the process pinned to its node, regardless of rotation.
        assert_eq!(core.pick(2, 0), Some(200));
        assert_eq!(core.pick(0, 0), Some(100));
        assert_eq!(core.process_domain(0), Some(&[0usize, 1][..]));
        // pick_affine on a foreign core must not fire process 0's aging valve.
        core.enqueue(0, 101, Some(0), 0);
        assert_eq!(core.pick_affine(3, 1_000_000), None);
        assert_eq!(core.pick_affine(0, 1_000_000), Some(101));
    }

    #[test]
    fn foreign_core_pick_does_not_steal_pinned_quantum() {
        // Regression: process 0 is pinned to node 0 and holds the quantum with queued
        // work; a pick from a node-1 core serves process 1 (courtesy fill) but must NOT
        // pass the turn — the pinned process would otherwise only ever be served through
        // the aging valve while any foreign core is active.
        let topo = Topology::new(4, 2);
        let mut core: CoopCore<u32, u64, u64> = CoopCore::new(&topo, 10);
        core.set_process_domain(0, Some(vec![0, 1]));
        core.register_process(1);
        core.enqueue(0, 100, None, 0);
        core.enqueue(0, 101, None, 0);
        core.enqueue(1, 200, None, 0);
        assert_eq!(core.pick(2, 1), Some(200), "foreign core serves process 1");
        assert_eq!(
            core.current_process(),
            Some(0),
            "the pinned process keeps its quantum"
        );
        assert_eq!(core.rotations(), 0);
        // Its own cores still serve it inside the quantum.
        assert_eq!(core.pick(0, 2), Some(100));
        assert_eq!(core.pick(1, 3), Some(101));
        // Once it IS empty, a fall-through passes the turn as before.
        core.enqueue(1, 201, None, 4);
        assert_eq!(core.pick(2, 5), Some(201));
        assert_eq!(core.current_process(), Some(1));
    }

    #[test]
    fn has_ready_for_respects_domains() {
        let topo = Topology::new(4, 2);
        let mut core: CoopCore<u32, u64, u64> = CoopCore::new(&topo, 10);
        core.set_process_domain(0, Some(vec![2, 3]));
        assert!(!core.has_ready_for(0));
        core.enqueue(0, 1, None, 0);
        assert!(core.has_ready());
        assert!(!core.has_ready_for(0), "core 0 is outside the only pin");
        assert!(core.has_ready_for(2));
        core.enqueue(1, 2, None, 0); // unrestricted process
        assert!(core.has_ready_for(0));
    }

    #[test]
    fn coop_core_domains_survive_topology_resnapshot() {
        let mut core: CoopCore<u32, u64, u64> = CoopCore::new(&Topology::new(4, 2), 10);
        core.set_process_domain(0, Some(vec![2, 3]));
        core.set_topology(&Topology::new(8, 2)); // queues rebuilt
        core.enqueue(0, 1, None, 0);
        assert_eq!(core.pick(0, 0), None, "domain must survive the rebuild");
        assert_eq!(core.pick(2, 0), Some(1));
        // Clearing the domain un-restricts.
        core.set_process_domain(0, None);
        core.enqueue(0, 2, None, 0);
        assert_eq!(core.pick(7, 0), Some(2));
    }

    #[test]
    fn coop_core_set_topology_rebuilds() {
        let mut core: CoopCore<u32, u64, u64> = CoopCore::new(&Topology::single_node(1), 10);
        core.register_process(0);
        core.set_topology(&Topology::new(4, 2));
        core.enqueue(0, 1, Some(3), 0);
        assert_eq!(core.pick(3, 0), Some(1));
        // Same topology again is a no-op (queues kept).
        core.enqueue(0, 2, Some(3), 0);
        core.set_topology(&Topology::new(4, 2));
        assert_eq!(core.ready_count(), 1);
    }

    // -- cross-shard ladder ---------------------------------------------------------------

    type Shards = CoopShards<u32, u32, u64>;

    /// The rungs a ladder offers at `now` when every one of them comes back empty.
    fn rungs(ladder: &mut ShardLadder<u64>, now: u64) -> Vec<LadderStep> {
        let mut seen = Vec::new();
        let got: Option<()> = ladder.pick(now, |step| {
            seen.push(step);
            None
        });
        assert!(got.is_none());
        seen
    }

    #[test]
    fn ladder_order_is_probe_local_steal_from_the_next_shard_round() {
        use LadderStep::*;
        let mut ladder = ShardLadder::new(1, 3, 50u64);
        // The first pick only arms the probe (deadline 60); it then fires once per period,
        // re-armed from the firing pick. Both foreign passes go (home+1, home+2) mod 3.
        assert_eq!(rungs(&mut ladder, 10), [Local, Steal(2), Steal(0)]);
        assert_eq!(rungs(&mut ladder, 59), [Local, Steal(2), Steal(0)]);
        let full = [ForeignAged(2), ForeignAged(0), Local, Steal(2), Steal(0)];
        assert_eq!(rungs(&mut ladder, 60), full);
        assert_eq!(rungs(&mut ladder, 109), [Local, Steal(2), Steal(0)]);
        assert_eq!(rungs(&mut ladder, 500), full);
        // One shard: the local pick alone, and the valve never ticks, however late.
        let mut flat = ShardLadder::new(0, 1, 50u64);
        for now in [0, 50, 10_000] {
            assert_eq!(rungs(&mut flat, now), [Local]);
        }
        assert!(flat.next_probe_at.is_none());
    }

    #[test]
    fn ladder_skipped_victim_falls_through_to_the_next_rung() {
        use LadderStep::*;
        let mut s = Shards::new(&Topology::new(6, 3), 50);
        assert_eq!(s.pick(0, 0), None); // arm shard 0's probe
        s.cores[1].enqueue(0, 1, Some(2), 0);
        s.cores[2].enqueue(0, 2, Some(4), 0);
        // Shard 1 cannot be tried (the scheduler's lost `try_lock`): the due aging probe
        // and the steal both move on to shard 2 instead of giving up.
        let skipping = |s: &mut Shards, now: u64| {
            let cores = &mut s.cores;
            s.ladders[0].pick(now, |step| match step {
                ForeignAged(1) | Steal(1) => None,
                ForeignAged(v) => cores[v].pick_aged_for(0, now).map(|t| (t, PickTier::Aged)),
                Local => cores[0].pick_tiered(0, now),
                Steal(v) => cores[v].pick_tiered(0, now),
            })
        };
        assert_eq!(skipping(&mut s, 100), Some((2, PickTier::Aged)));
        s.cores[2].enqueue(0, 3, Some(5), 100);
        assert_eq!(skipping(&mut s, 101), Some((3, PickTier::Remote)));
        assert_eq!(skipping(&mut s, 102), None);
        assert_eq!(
            s.cores[1].ready_count(),
            1,
            "the skipped shard's entry is untouched"
        );
    }

    #[test]
    fn sharded_tiers_follow_shard_ownership() {
        let mut s = Shards::new(&Topology::new(4, 2), 1_000);
        // The routing rule: preferred core's node, shard 0 without a usable core — and a
        // yield requeue (item 5, yielded on core 3) stays in the yielding core's shard.
        for (item, pref) in [(1, Some(2)), (2, Some(0)), (3, None), (4, Some(99))] {
            s.enqueue(0, item, None, pref, u64::from(item));
        }
        s.enqueue(0, 5, Some(3), None, 5);
        assert_eq!(s.cores[1].ready_count(), 2, "items 1 and 5");
        // Affinity in the own shard beats the older foreign entry; the own shard's node
        // tier follows; only on local exhaustion does core 0 steal, and the victim
        // reports the tier its own queues see (unbound: node tier; bound: remote).
        let picked: Vec<_> = std::iter::from_fn(|| s.pick(0, 5)).collect();
        let tiers = [
            (2, PickTier::Affinity),
            (3, PickTier::Node),
            (4, PickTier::Node),
            (5, PickTier::Node),
            (1, PickTier::Remote),
        ];
        assert_eq!(picked, tiers);
    }

    #[test]
    fn sharded_valve_serves_oldest_once_per_window() {
        let mut s = Shards::new(&Topology::new(4, 2), 50);
        assert_eq!(s.pick(0, 0), None); // arm shard 0's probe
        s.enqueue(0, 1, None, Some(2), 0); // foreign shard, will age
        s.enqueue(0, 3, None, Some(2), 5);
        s.enqueue(0, 2, None, Some(0), 90);
        // The probe crosses the shard boundary: aged entry 1 goes ahead of core 0's own
        // affine entry 2. Within the window the local tiers run, though entry 3 has aged
        // too; after it the probe fires again.
        assert_eq!(s.pick(0, 100), Some((1, PickTier::Aged)));
        assert_eq!(s.pick(0, 101), Some((2, PickTier::Affinity)));
        assert_eq!(s.pick(0, 200), Some((3, PickTier::Aged)));
    }

    #[test]
    fn sharded_domain_restricts_every_pop_tier() {
        let mut s = Shards::new(&Topology::new(4, 2), 1);
        for c in &mut s.cores {
            c.set_process_domain(0, Some(vec![0, 1])); // node 0 only
        }
        assert_eq!(s.pick(2, 0), None); // arm shard 1's probe
        s.enqueue(0, 1, None, Some(0), 0);
        s.enqueue(0, 2, None, None, 0);
        // A core outside the pin gets nothing from shard 0 — neither through the due
        // aging probe nor through the steal; the pinned node's own cores are served.
        assert_eq!(s.pick(2, 1_000_000), None);
        assert_eq!(s.pick(1, 1_000_000).map(|(t, _)| t), Some(1));
        assert_eq!(s.pick(0, 1_000_000).map(|(t, _)| t), Some(2));
    }

    proptest::proptest! {
        /// The "1 node ⇒ the flat scheduler" guarantee: one shard is pick-for-pick (item,
        /// tier, turn, rotations) its core's own `pick_tiered`, for arbitrary enqueue/pick
        /// sequences that cross quantum and aging deadlines, with a pinned process in the
        /// mix (over two nodes, as under a one-shard custom policy, so every tier runs).
        #[test]
        fn ladder_with_one_shard_is_pick_tiered(
            ops in proptest::collection::vec((0u8..3, 0u8..3, 0u8..6, 0u32..40_000), 1..120),
        ) {
            let topo = Topology::new(4, 2);
            let mut flat: CoopCore<u32, u32, u64> = CoopCore::new(&topo, 50_000);
            let mut one = Shards {
                cores: vec![CoopCore::new(&topo, 50_000)],
                ladders: vec![ShardLadder::new(0, 1, 50_000)],
            };
            flat.set_process_domain(2, Some(vec![2, 3]));
            one.cores[0].set_process_domain(2, Some(vec![2, 3]));
            let (mut now, mut item) = (0u64, 0u32);
            for (kind, process, sel, dt) in ops {
                now += u64::from(dt);
                let sel = sel as usize;
                if kind < 2 {
                    let pref = (sel < 4).then_some(sel);
                    flat.enqueue(u32::from(process), item, pref, now);
                    one.enqueue(u32::from(process), item, None, pref, now);
                    item += 1;
                } else {
                    assert_eq!(one.pick(sel % 4, now), flat.pick_tiered(sel % 4, now), "t={now}");
                    assert_eq!(one.cores[0].current_process(), flat.current_process());
                    assert_eq!(one.cores[0].rotations(), flat.rotations());
                }
            }
            while flat.has_ready() {
                now += 1_000;
                for core in 0..4 {
                    assert_eq!(one.pick(core, now), flat.pick_tiered(core, now));
                }
            }
            assert!(!one.cores[0].has_ready() && one.ladders[0].next_probe_at.is_none());
        }
    }
}
