//! Observability plane: event counters, lock-free latency histograms, and unified stats
//! snapshots for the scheduler.
//!
//! SCHED_COOP's pitch is *scheduling noise you can measure*: the [`Counters`] say how
//! often things happened (zero preemptions, affinity hit rates, bounded worker swaps), and
//! localizing a latency regression (e.g. a move in `usf_perf`'s `nosv.wake_p99_ns`) needs
//! *distributions* per pipeline stage. One [`StatsRegistry`] owns both, always on:
//!
//! * [`Counters`] — the monotonic event counters, declared once (see `counters!`) and read
//!   lock-free as a [`MetricsSnapshot`].
//! * [`Histogram`] — a mergeable, log₂-bucketed latency histogram sharded per recording
//!   thread. Recording is lock-free (relaxed atomic adds on a thread-local shard) and
//!   never takes the scheduler lock, so the instrumented submit fast path still takes no
//!   scheduler lock (`scheduler::tests::submit_fast_path_takes_no_scheduler_lock`).
//! * [`StageStats`] — one histogram per stage boundary of the scheduling pipeline:
//!   submit→intake-drain, enqueue→grant (wake latency), grant→first-run (dispatch
//!   latency), and the off-core durations of pauses and yields.
//! * [`StatsSnapshot`] — counters + stage histograms + per-shard lock and rotation counts
//!   behind one value with `delta(&prev)`, assembled by
//!   [`Scheduler::stats_snapshot`](crate::scheduler::Scheduler::stats_snapshot) and
//!   rendered by the harnesses (`usf_bench::scenario_json`).
//! * [`StatsSampler`] — an optional background thread (default: not running) appending
//!   lock-free [`StatsSample`] time-series points for scenario reports and Perfetto
//!   counter tracks.
//!
//! # Always-on doctrine
//!
//! Unlike the `sched-trace` and `fault-inject` features (exact event logs, expensive,
//! compiled out by default), the histograms here are cheap enough to keep on in every
//! build: a recording is one `Instant` read plus a handful of relaxed `fetch_add`s on a
//! cache-line-padded shard. Production observability that has to be switched on after
//! the incident is not observability.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bump a counter by one. All counters use relaxed ordering — they are diagnostics, not
/// synchronization.
#[inline]
pub(crate) fn inc(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Declares the scheduler's event counters once: the atomic [`Counters`] the scheduler
/// bumps, their plain [`MetricsSnapshot`], and the field-wise load and delta between them.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Monotonic event counters updated by the scheduler (relaxed atomics).
        #[derive(Debug, Default)]
        pub struct Counters {
            $($(#[$doc])* pub $name: AtomicU64,)*
        }

        /// Plain-old-data snapshot of [`Counters`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $($(#[$doc])* pub $name: u64,)*
            /// Scheduler-section lock acquisitions — shard locks and the global section
            /// combined. Derived at snapshot time as `Σ shards[i].lock_acquisitions +
            /// global_lock_acquisitions` (no atomic of its own); lets tests verify that
            /// the submit fast path never touches any scheduler lock.
            pub lock_acquisitions: u64,
        }

        impl Counters {
            /// Load every counter; `shard_locks` is the summed per-shard lock count the
            /// derived `lock_acquisitions` is built from.
            fn snapshot(&self, shard_locks: u64) -> MetricsSnapshot {
                let mut s = MetricsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                    lock_acquisitions: 0,
                };
                s.lock_acquisitions = shard_locks + s.global_lock_acquisitions;
                s
            }
        }

        impl MetricsSnapshot {
            /// The counter increments between `prev` (an earlier snapshot of the same
            /// scheduler) and `self`, field-wise and saturating — the one way every
            /// executor and bench isolates a phase.
            pub fn delta(&self, prev: &MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($name: self.$name.saturating_sub(prev.$name),)*
                    lock_acquisitions: self
                        .lock_acquisitions
                        .saturating_sub(prev.lock_acquisitions),
                }
            }
        }
    };
}

counters! {
    /// Tasks submitted (made ready) via `nosv_submit` or attach.
    submits,
    /// Submits that found the target task still holding a core (counted wake-ups).
    pending_wakeups,
    /// Global-section lock acquisitions (process/task tables, id counters, shutdown). A
    /// steady-state churn window must record zero of these: same-node scheduling points
    /// stay entirely on their shard lock.
    global_lock_acquisitions,
    /// `nosv_pause` calls that actually blocked (released their core).
    pauses,
    /// `nosv_pause` calls satisfied immediately by a counted wake-up.
    pauses_elided,
    /// Voluntary yields that switched to another task.
    yields,
    /// Voluntary yields that kept the core because nothing else was ready.
    yields_noop,
    /// Timed waits started.
    waitfors,
    /// Timed waits that expired (and re-submitted their task).
    waitfor_timeouts,
    /// Threads attached as workers.
    attaches,
    /// Workers detached.
    detaches,
    /// Core grants delivered to tasks (worker swaps + initial placements).
    grants,
    /// Grants on the task's preferred core.
    affinity_hits,
    /// Non-progressing cores flagged by [`crate::scheduler::Scheduler::watchdog_scan`]
    /// (at most once per grant).
    stalls_detected,
    /// Processes forcibly reclaimed via [`crate::scheduler::Scheduler::kill_process`].
    processes_killed,
    /// Tasks reclaimed (released / evicted) by `kill_process`.
    tasks_reclaimed,
    /// Fault-site firings injected by an installed [`crate::faults::FaultState`]
    /// (always 0 without the `fault-inject` feature).
    faults_injected,
}

impl MetricsSnapshot {
    /// Fraction of grants that honoured the task's preferred core. Returns `None` when no
    /// grant has happened yet.
    pub fn affinity_hit_rate(&self) -> Option<f64> {
        if self.grants == 0 {
            None
        } else {
            Some(self.affinity_hits as f64 / self.grants as f64)
        }
    }
}

/// Number of log₂ buckets. Bucket 0 holds exact zeros; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i)` nanoseconds; the last bucket absorbs everything from ~4.6 seconds up.
pub const NUM_BUCKETS: usize = 64;

/// Bucket index of a nanosecond value: 0 for 0, else `floor(log2(ns)) + 1`, clamped.
#[inline]
fn bucket_index(ns: u64) -> usize {
    ((u64::BITS - ns.leading_zeros()) as usize).min(NUM_BUCKETS - 1)
}

/// Inclusive lower edge of a bucket, in nanoseconds.
fn bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Inclusive upper edge of a bucket, in nanoseconds.
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i < NUM_BUCKETS - 1 {
        (1u64 << i) - 1
    } else {
        u64::MAX
    }
}

/// One recording shard, padded to its own cache lines so concurrent recorders on
/// different shards never false-share.
#[repr(align(128))]
struct Shard {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.min.fetch_min(ns, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
    }
}

/// Round-robin seed for assigning recording threads to shards. A thread keeps its shard
/// for its whole life (cached in a thread-local), so steady-state recording is a pure
/// thread-local index plus relaxed adds — no shared counter on the hot path.
static NEXT_SHARD_SEED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD_SEED: usize = NEXT_SHARD_SEED.fetch_add(1, Ordering::Relaxed);
}

/// A lock-free, mergeable, log₂-bucketed latency histogram, sharded per recording
/// thread.
///
/// * **Recording** ([`Histogram::record`]) is wait-free: bucket a nanosecond value with
///   `leading_zeros`, then a handful of relaxed `fetch_add`s on the calling thread's
///   shard. No locks, no CAS loops — safe on the submit path, which takes no scheduler
///   lock.
/// * **Reading** ([`Histogram::snapshot`]) merges the shards into a plain
///   [`HistogramSnapshot`]; merging is per-bucket addition, so snapshots of different
///   histograms (or deltas of the same one) merge associatively and commutatively.
/// * **Accuracy**: counts are exact (relaxed increments never lose updates — they are
///   atomic RMWs, only unordered); percentiles are bounded by the log₂ bucket width, so
///   a reported percentile is within one power of two of the true sample (see
///   [`HistogramSnapshot::percentile_bounds`]).
///
/// The useful range is sub-microsecond to seconds; values land in buckets 0..=63 and
/// everything ≥ ~4.6 s saturates into the last bucket.
pub struct Histogram {
    shards: Box<[Shard]>,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("shards", &self.shards.len())
            .field("count", &self.snapshot().count)
            .finish()
    }
}

impl Histogram {
    /// A histogram with `shards` recording shards (clamped to at least 1). Size it to the
    /// expected recorder parallelism — the scheduler uses one shard per virtual core.
    pub fn new(shards: usize) -> Self {
        Histogram {
            shards: (0..shards.max(1)).map(|_| Shard::new()).collect(),
        }
    }

    /// Record a duration. Lock-free; negative-free by construction (durations are
    /// unsigned); saturates at `u64::MAX` nanoseconds.
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Record a raw nanosecond value. Lock-free.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        let shard = SHARD_SEED.with(|s| *s) % self.shards.len();
        self.shards[shard].record(ns);
    }

    /// Merge every shard into one plain snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for sh in self.shards.iter() {
            // Read the bucket array first: a recording racing this snapshot may appear
            // in the buckets but not yet in `count` or vice versa; recompute `count`
            // from the buckets so the invariant `count == Σ buckets` always holds.
            let mut shard_count = 0u64;
            for (i, b) in sh.buckets.iter().enumerate() {
                let v = b.load(Ordering::Relaxed);
                out.buckets[i] += v;
                shard_count += v;
            }
            out.count += shard_count;
            out.sum += sh.sum.load(Ordering::Relaxed);
            out.min_ns = out.min_ns.min(sh.min.load(Ordering::Relaxed));
            out.max_ns = out.max_ns.max(sh.max.load(Ordering::Relaxed));
        }
        out
    }
}

/// Plain, mergeable snapshot of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`NUM_BUCKETS`] for the bucket layout).
    pub buckets: [u64; NUM_BUCKETS],
    /// Total recorded samples (exactly `Σ buckets`).
    pub count: u64,
    /// Sum of all recorded values, nanoseconds (drives [`HistogramSnapshot::mean_ns`]).
    pub sum: u64,
    /// Smallest recorded value, nanoseconds (`u64::MAX` when empty).
    pub min_ns: u64,
    /// Largest recorded value, nanoseconds (0 when empty).
    pub max_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Merge another snapshot into this one (per-bucket addition — associative and
    /// commutative, so shard/scheduler/process snapshots can be combined in any order).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// The samples recorded *since* `prev` (which must be an earlier snapshot of the same
    /// histogram): per-bucket saturating subtraction. `min_ns`/`max_ns` cannot be
    /// recovered for the interval, so they are re-derived from the edges of the delta's
    /// outermost non-empty buckets (within one bucket of the true values).
    pub fn delta(&self, prev: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for i in 0..NUM_BUCKETS {
            out.buckets[i] = self.buckets[i].saturating_sub(prev.buckets[i]);
            out.count += out.buckets[i];
        }
        out.sum = self.sum.saturating_sub(prev.sum);
        if let Some(first) = out.buckets.iter().position(|&b| b > 0) {
            out.min_ns = bucket_lower(first);
        }
        if let Some(last) = out.buckets.iter().rposition(|&b| b > 0) {
            out.max_ns = bucket_upper(last).min(self.max_ns);
        }
        out
    }

    /// Mean recorded value, nanoseconds (0 when empty). Exact (true sum / true count).
    pub fn mean_ns(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The bucket edges bracketing the `p`-th percentile (`0.0..=1.0`): the true sample
    /// at that rank lies in `[lower, upper]`. Zero-width only for exact-zero samples.
    pub fn percentile_bounds(&self, p: f64) -> (u64, u64) {
        if self.count == 0 {
            return (0, 0);
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return (bucket_lower(i), bucket_upper(i).min(self.max_ns));
            }
        }
        (self.max_ns, self.max_ns)
    }

    /// The `p`-th percentile (`0.0..=1.0`), nanoseconds, reported as the upper edge of
    /// the bucket holding that rank (capped at the exact recorded maximum). Within one
    /// log₂ bucket of the true value — i.e. at most 2× above it.
    pub fn percentile(&self, p: f64) -> u64 {
        self.percentile_bounds(p).1
    }
}

// ---------------------------------------------------------------------------------------
// Stage histograms
// ---------------------------------------------------------------------------------------

/// The always-on latency histograms at the scheduling pipeline's stage boundaries.
///
/// The pipeline a wake-up traverses (see DESIGN.md §"Observability plane"):
///
/// ```text
/// submit ──► intake ──────► drain ──► policy enqueue ──► grant ──► first run
///        intake_wait────────────────┘                           │
///        wake (enqueue→grant)───────────────────────────────────┘
///        dispatch (grant→first-run)──────────────────────────────────────┘
/// ```
///
/// plus the off-core residence times of the two blocking scheduling points
/// (`pause`/`waitfor` and `yield`).
#[derive(Debug)]
pub struct StageStats {
    /// Submit → intake-drain: how long a published wake-up sat in its shard's intake
    /// before a scheduling point absorbed it.
    pub intake_wait: Histogram,
    /// Enqueue → grant (wake latency): from the grant slot turning ready to the
    /// scheduler granting a core — the hand-off cost a blocking wake-up pays before its
    /// task can run again.
    pub wake: Histogram,
    /// Grant → first-run (dispatch latency): from the grant being published to the
    /// woken worker thread observing it.
    pub dispatch: Histogram,
    /// Off-core duration of pauses and timed waits (block → re-run).
    pub pause_block: Histogram,
    /// Off-core duration of yields that actually switched (yield → re-run).
    pub yield_block: Histogram,
}

impl StageStats {
    /// Stage histograms with `shards` shards each (one per virtual core is the
    /// scheduler's sizing).
    pub fn new(shards: usize) -> Self {
        StageStats {
            intake_wait: Histogram::new(shards),
            wake: Histogram::new(shards),
            dispatch: Histogram::new(shards),
            pause_block: Histogram::new(shards),
            yield_block: Histogram::new(shards),
        }
    }

    /// Snapshot every stage histogram.
    pub fn snapshot(&self) -> StageSnapshot {
        StageSnapshot {
            intake_wait: self.intake_wait.snapshot(),
            wake: self.wake.snapshot(),
            dispatch: self.dispatch.snapshot(),
            pause_block: self.pause_block.snapshot(),
            yield_block: self.yield_block.snapshot(),
        }
    }
}

/// Plain snapshot of [`StageStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageSnapshot {
    /// See [`StageStats::intake_wait`].
    pub intake_wait: HistogramSnapshot,
    /// See [`StageStats::wake`].
    pub wake: HistogramSnapshot,
    /// See [`StageStats::dispatch`].
    pub dispatch: HistogramSnapshot,
    /// See [`StageStats::pause_block`].
    pub pause_block: HistogramSnapshot,
    /// See [`StageStats::yield_block`].
    pub yield_block: HistogramSnapshot,
}

impl StageSnapshot {
    /// Stage-wise [`HistogramSnapshot::delta`].
    pub fn delta(&self, prev: &StageSnapshot) -> StageSnapshot {
        StageSnapshot {
            intake_wait: self.intake_wait.delta(&prev.intake_wait),
            wake: self.wake.delta(&prev.wake),
            dispatch: self.dispatch.delta(&prev.dispatch),
            pause_block: self.pause_block.delta(&prev.pause_block),
            yield_block: self.yield_block.delta(&prev.yield_block),
        }
    }

    /// `(name, snapshot)` pairs for iteration-driven rendering.
    pub fn named(&self) -> [(&'static str, &HistogramSnapshot); 5] {
        [
            ("intake_wait", &self.intake_wait),
            ("wake", &self.wake),
            ("dispatch", &self.dispatch),
            ("pause_block", &self.pause_block),
            ("yield_block", &self.yield_block),
        ]
    }
}

// ---------------------------------------------------------------------------------------
// Per-shard (per-NUMA-node) scheduler-section stats
// ---------------------------------------------------------------------------------------

/// The contention counter of one scheduler shard (one NUMA node under SCHED_COOP;
/// single-queue policies keep everything in shard 0), bumped with a relaxed atomic on
/// every acquisition of the shard's lock.
#[derive(Debug)]
pub struct ShardStats {
    /// Times this shard's dispatch lock was acquired (blocking or successful try-lock).
    pub lock_acquisitions: AtomicU64,
}

/// Plain snapshot of one shard's [`ShardStats`] plus its policy's rotation count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// See [`ShardStats::lock_acquisitions`].
    pub lock_acquisitions: u64,
    /// Process-quantum rotations performed by this shard's policy (its quantum ring).
    pub rotations: u64,
}

impl ShardSnapshot {
    /// The activity between `prev` and `self` (counters subtracted, saturating).
    pub fn delta(&self, prev: &ShardSnapshot) -> ShardSnapshot {
        ShardSnapshot {
            lock_acquisitions: self
                .lock_acquisitions
                .saturating_sub(prev.lock_acquisitions),
            rotations: self.rotations.saturating_sub(prev.rotations),
        }
    }
}

// ---------------------------------------------------------------------------------------
// The unified snapshot
// ---------------------------------------------------------------------------------------

/// One unified observation of the scheduler: cumulative counters, stage histograms and
/// per-shard stats, stamped with the time since the scheduler was created. (Instantaneous
/// gauges are the lock-free [`StatsSample`].)
///
/// Obtain via [`Scheduler::stats_snapshot`](crate::scheduler::Scheduler::stats_snapshot)
/// (or the instance/runtime wrappers); subtract two with [`StatsSnapshot::delta`] to
/// isolate one benchmark phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Time since the scheduler was created.
    pub at: Duration,
    /// Cumulative scheduler counters.
    pub counters: MetricsSnapshot,
    /// Stage-boundary latency histograms.
    pub stages: StageSnapshot,
    /// Per-NUMA-node scheduler-shard lock and rotation counts (one entry per node;
    /// single-queue policies report a single shard).
    pub shards: Vec<ShardSnapshot>,
}

impl StatsSnapshot {
    /// The activity between `prev` and `self`: counters and histograms are subtracted.
    pub fn delta(&self, prev: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            at: self.at,
            counters: self.counters.delta(&prev.counters),
            stages: self.stages.delta(&prev.stages),
            shards: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| match prev.shards.get(i) {
                    Some(p) => s.delta(p),
                    None => s.clone(),
                })
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------------------------
// Registry and sampler
// ---------------------------------------------------------------------------------------

/// The scheduler-resident stats plane: creation instant (the time base every snapshot
/// and sample is stamped against), the event counters, the always-on stage histograms and
/// the per-shard lock counters.
#[derive(Debug)]
pub struct StatsRegistry {
    created: Instant,
    /// Event counters (bumped by the scheduler hot paths).
    pub counters: Counters,
    /// Stage-boundary histograms (recorded by the scheduler hot paths).
    pub stages: StageStats,
    /// Per-NUMA-node scheduler-shard lock counters (one entry per node).
    pub shards: Vec<ShardStats>,
}

impl StatsRegistry {
    /// A registry with `shards` histogram shards per stage and `nodes` scheduler shards.
    pub fn new(shards: usize, nodes: usize) -> Self {
        StatsRegistry {
            created: Instant::now(),
            counters: Counters::default(),
            stages: StageStats::new(shards),
            shards: (0..nodes.max(1))
                .map(|_| ShardStats {
                    lock_acquisitions: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Lock-free snapshot of the event counters.
    pub fn counters(&self) -> MetricsSnapshot {
        let shard_locks = self
            .shards
            .iter()
            .map(|s| s.lock_acquisitions.load(Ordering::Relaxed));
        self.counters.snapshot(shard_locks.sum())
    }

    /// Snapshot the counters and every scheduler-shard count (ordered by node) from one
    /// set of loads, so `counters.lock_acquisitions` is exactly the shards' sum plus the
    /// global count. `rotations[i]` is shard `i`'s policy rotation count, read by the
    /// scheduler under that shard's lock.
    pub(crate) fn counters_and_shards(
        &self,
        rotations: &[u64],
    ) -> (MetricsSnapshot, Vec<ShardSnapshot>) {
        let shards: Vec<ShardSnapshot> = self
            .shards
            .iter()
            .zip(rotations)
            .map(|(s, &rotations)| ShardSnapshot {
                lock_acquisitions: s.lock_acquisitions.load(Ordering::Relaxed),
                rotations,
            })
            .collect();
        let shard_locks = shards.iter().map(|s| s.lock_acquisitions).sum();
        (self.counters.snapshot(shard_locks), shards)
    }

    /// Time since creation.
    pub fn elapsed(&self) -> Duration {
        self.created.elapsed()
    }
}

/// One lock-free time-series point appended by a [`StatsSampler`] (a strict subset of
/// [`StatsSnapshot`], restricted to what can be read without the scheduler lock so the
/// sampler never perturbs the schedule it observes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSample {
    /// Time since the scheduler was created.
    pub at: Duration,
    /// Ready-task gauge at the sample instant.
    pub ready_tasks: usize,
    /// Intake depth at the sample instant, summed over the shards (each shard's count is
    /// exact as of its last push or drain).
    pub intake_depth: usize,
    /// Busy cores at the sample instant.
    pub busy_cores: usize,
    /// Cumulative submits at the sample instant.
    pub submits: u64,
    /// Cumulative grants at the sample instant.
    pub grants: u64,
}

impl StatsSample {
    /// Render as one JSONL line (no trailing newline).
    pub fn to_jsonl_line(&self) -> String {
        format!(
            "{{\"at_nanos\":{},\"ready_tasks\":{},\"intake_depth\":{},\"busy_cores\":{},\"submits\":{},\"grants\":{}}}",
            self.at.as_nanos(),
            self.ready_tasks,
            self.intake_depth,
            self.busy_cores,
            self.submits,
            self.grants
        )
    }

    /// Parse one line produced by [`StatsSample::to_jsonl_line`].
    ///
    /// # Errors
    /// Returns a message naming the malformed or missing field.
    pub fn from_jsonl_line(line: &str) -> Result<StatsSample, String> {
        let obj = crate::sched_trace::jsonl::parse_object(line)?;
        let need = |k: &str| obj.get_u64(k).ok_or_else(|| format!("missing field {k:?}"));
        Ok(StatsSample {
            at: Duration::from_nanos(need("at_nanos")?),
            ready_tasks: need("ready_tasks")? as usize,
            intake_depth: need("intake_depth")? as usize,
            busy_cores: need("busy_cores")? as usize,
            submits: need("submits")?,
            grants: need("grants")?,
        })
    }
}

/// A background sampler thread appending [`StatsSample`]s at a fixed period.
///
/// Off by default — a scenario opts in via
/// [`NosvInstance::start_sampler`](crate::instance::NosvInstance::start_sampler) (or the
/// `Usf` wrapper), runs its workload, then calls [`StatsSampler::stop`] to collect the
/// series. Each tick reads only atomics (see [`StatsSample`]), so sampling at
/// millisecond periods does not perturb the scheduler.
#[derive(Debug)]
pub struct StatsSampler {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<Vec<StatsSample>>>,
}

impl StatsSampler {
    /// Start a sampler calling `sample` every `period` (clamped to ≥ 10µs so a zero
    /// period cannot spin a core).
    pub(crate) fn start<F>(period: Duration, sample: F) -> StatsSampler
    where
        F: Fn() -> StatsSample + Send + 'static,
    {
        let period = period.max(Duration::from_micros(10));
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("usf-stats-sampler".into())
            .spawn(move || {
                let mut out = Vec::new();
                while !stop2.load(Ordering::Relaxed) {
                    out.push(sample());
                    std::thread::sleep(period);
                }
                // One final sample so the series always covers the stop point.
                out.push(sample());
                out
            })
            .expect("spawn stats sampler");
        StatsSampler {
            stop,
            handle: Some(handle),
        }
    }

    /// Stop the sampler and return the collected series (always ≥ 1 sample).
    pub fn stop(mut self) -> Vec<StatsSample> {
        self.stop.store(true, Ordering::Relaxed);
        match self.handle.take() {
            Some(h) => h.join().unwrap_or_default(),
            None => Vec::new(),
        }
    }
}

impl Drop for StatsSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_increments() {
        let r = StatsRegistry::new(1, 2);
        inc(&r.counters.submits);
        inc(&r.counters.submits);
        inc(&r.counters.grants);
        inc(&r.counters.affinity_hits);
        inc(&r.counters.global_lock_acquisitions);
        inc(&r.shards[0].lock_acquisitions);
        inc(&r.shards[1].lock_acquisitions);
        let s = r.counters();
        assert_eq!(s.submits, 2);
        assert_eq!(s.grants, 1);
        assert_eq!(s.affinity_hits, 1);
        assert_eq!(s.affinity_hit_rate(), Some(1.0));
        assert_eq!(s.lock_acquisitions, 3, "derived: both shards plus global");
        assert_eq!(r.counters_and_shards(&[0, 0]).0, s);
    }

    #[test]
    fn affinity_rate_none_without_grants() {
        let s = MetricsSnapshot::default();
        assert_eq!(s.affinity_hit_rate(), None);
    }

    #[test]
    fn delta_is_fieldwise_and_saturating() {
        let r = StatsRegistry::new(1, 1);
        inc(&r.counters.submits);
        let before = r.counters();
        inc(&r.counters.submits);
        inc(&r.counters.grants);
        inc(&r.shards[0].lock_acquisitions);
        let d = r.counters().delta(&before);
        assert_eq!(d.submits, 1);
        assert_eq!(d.grants, 1);
        assert_eq!(d.pauses, 0);
        assert_eq!(d.lock_acquisitions, 1);
        // Saturation: a "later" snapshot with smaller counters clamps at zero.
        assert_eq!(before.delta(&r.counters()).submits, 0);
    }

    #[test]
    fn bucket_layout_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        for i in 1..NUM_BUCKETS - 1 {
            assert_eq!(bucket_index(bucket_lower(i)), i);
            assert_eq!(bucket_index(bucket_upper(i)), i);
        }
    }

    #[test]
    fn record_and_percentiles() {
        let h = Histogram::new(4);
        for ns in [100u64, 200, 400, 800, 100_000] {
            h.record_ns(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.min_ns, 100);
        assert_eq!(s.max_ns, 100_000);
        assert_eq!(s.mean_ns(), (100 + 200 + 400 + 800 + 100_000) / 5);
        let (lo, hi) = s.percentile_bounds(0.5);
        assert!(lo <= 400 && 400 <= hi, "p50 bracket {lo}..{hi}");
        assert_eq!(s.percentile(1.0), 100_000, "max caps the last bucket");
    }

    #[test]
    fn empty_histogram_is_sane() {
        let s = Histogram::new(1).snapshot();
        assert!(s.is_empty());
        assert_eq!(s.percentile(0.99), 0);
        assert_eq!(s.mean_ns(), 0);
        assert_eq!(s.percentile_bounds(0.5), (0, 0));
    }

    #[test]
    fn delta_isolates_an_interval() {
        let h = Histogram::new(2);
        h.record_ns(100);
        let before = h.snapshot();
        h.record_ns(1000);
        h.record_ns(2000);
        let d = h.snapshot().delta(&before);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 3000);
        assert!(d.min_ns <= 1000 && d.max_ns >= 2000);
    }

    #[test]
    fn sampler_collects_and_stops() {
        let n = Arc::new(AtomicU64::new(0));
        let n2 = Arc::clone(&n);
        let sampler = StatsSampler::start(Duration::from_micros(100), move || {
            let k = n2.fetch_add(1, Ordering::Relaxed);
            StatsSample {
                at: Duration::from_micros(k),
                ready_tasks: 0,
                intake_depth: 0,
                busy_cores: 0,
                submits: k,
                grants: 0,
            }
        });
        std::thread::sleep(Duration::from_millis(2));
        let samples = sampler.stop();
        assert!(!samples.is_empty());
        assert!(samples[0].to_jsonl_line().contains("\"submits\":0"));
    }

    #[test]
    fn sample_jsonl_round_trips() {
        let s = StatsSample {
            at: Duration::from_nanos(123_456_789),
            ready_tasks: 4,
            intake_depth: 2,
            busy_cores: 3,
            submits: 100,
            grants: 97,
        };
        assert_eq!(StatsSample::from_jsonl_line(&s.to_jsonl_line()), Ok(s));
        assert!(StatsSample::from_jsonl_line("{\"at_nanos\":1}")
            .unwrap_err()
            .contains("ready_tasks"));
    }
}
