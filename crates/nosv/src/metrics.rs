//! Scheduler metrics.
//!
//! SCHED_COOP's claimed benefit is fewer involuntary context switches and less scheduling
//! noise; the counters here are what the examples, tests and benches use to verify that the
//! cooperative scheduler behaves as described (e.g. zero preemptions, high affinity hit
//! rates, bounded worker swaps).

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters updated by the scheduler. All counters use relaxed ordering — they are
/// diagnostics, not synchronization.
#[derive(Debug, Default)]
pub struct SchedulerMetrics {
    /// Tasks submitted (made ready) via `nosv_submit` or attach.
    pub submits: AtomicU64,
    /// Submits that found the target task still holding a core (counted wake-ups).
    pub pending_wakeups: AtomicU64,
    /// Submits dropped because the task was already queued.
    pub redundant_submits: AtomicU64,
    /// Submits published through the lock-free intake stack (the fast path: one CAS, no
    /// scheduler-lock acquisition).
    pub intake_submits: AtomicU64,
    /// Scheduler-section lock acquisitions — shard locks and the global section combined
    /// (debug counter). Lets tests and the `sched_stress` harness verify that the submit
    /// fast path never touches any scheduler lock.
    pub lock_acquisitions: AtomicU64,
    /// Global-section lock acquisitions only (process/task tables, id counters, shutdown).
    /// A steady-state churn window must record zero of these: same-node scheduling
    /// points stay entirely on their shard lock.
    pub global_lock_acquisitions: AtomicU64,
    /// `nosv_pause` calls that actually blocked (released their core).
    pub pauses: AtomicU64,
    /// `nosv_pause` calls satisfied immediately by a counted wake-up.
    pub pauses_elided: AtomicU64,
    /// Voluntary yields that switched to another task.
    pub yields: AtomicU64,
    /// Voluntary yields that kept the core because nothing else was ready.
    pub yields_noop: AtomicU64,
    /// Timed waits started.
    pub waitfors: AtomicU64,
    /// Timed waits that expired (and re-submitted their task).
    pub waitfor_timeouts: AtomicU64,
    /// Threads attached as workers.
    pub attaches: AtomicU64,
    /// Workers detached.
    pub detaches: AtomicU64,
    /// Core grants delivered to tasks (worker swaps + initial placements).
    pub grants: AtomicU64,
    /// Grants on the task's preferred core.
    pub affinity_hits: AtomicU64,
    /// Grants on a different core of the preferred core's NUMA node.
    pub numa_hits: AtomicU64,
    /// Grants on a remote NUMA node (or with no preference recorded).
    pub remote_grants: AtomicU64,
    /// Process-quantum rotations performed by the policy.
    pub process_rotations: AtomicU64,
    /// Non-progressing cores flagged by [`crate::scheduler::Scheduler::watchdog_scan`]
    /// (at most once per grant).
    pub stalls_detected: AtomicU64,
    /// Processes forcibly reclaimed via [`crate::scheduler::Scheduler::kill_process`].
    pub processes_killed: AtomicU64,
    /// Tasks reclaimed (released / evicted) by `kill_process`.
    pub tasks_reclaimed: AtomicU64,
    /// Fault-site firings injected by an installed [`crate::faults::FaultState`]
    /// (always 0 without the `fault-inject` feature).
    pub faults_injected: AtomicU64,
}

/// Plain-old-data snapshot of [`SchedulerMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// See [`SchedulerMetrics::submits`].
    pub submits: u64,
    /// See [`SchedulerMetrics::pending_wakeups`].
    pub pending_wakeups: u64,
    /// See [`SchedulerMetrics::redundant_submits`].
    pub redundant_submits: u64,
    /// See [`SchedulerMetrics::intake_submits`].
    pub intake_submits: u64,
    /// See [`SchedulerMetrics::lock_acquisitions`].
    pub lock_acquisitions: u64,
    /// See [`SchedulerMetrics::global_lock_acquisitions`].
    pub global_lock_acquisitions: u64,
    /// See [`SchedulerMetrics::pauses`].
    pub pauses: u64,
    /// See [`SchedulerMetrics::pauses_elided`].
    pub pauses_elided: u64,
    /// See [`SchedulerMetrics::yields`].
    pub yields: u64,
    /// See [`SchedulerMetrics::yields_noop`].
    pub yields_noop: u64,
    /// See [`SchedulerMetrics::waitfors`].
    pub waitfors: u64,
    /// See [`SchedulerMetrics::waitfor_timeouts`].
    pub waitfor_timeouts: u64,
    /// See [`SchedulerMetrics::attaches`].
    pub attaches: u64,
    /// See [`SchedulerMetrics::detaches`].
    pub detaches: u64,
    /// See [`SchedulerMetrics::grants`].
    pub grants: u64,
    /// See [`SchedulerMetrics::affinity_hits`].
    pub affinity_hits: u64,
    /// See [`SchedulerMetrics::numa_hits`].
    pub numa_hits: u64,
    /// See [`SchedulerMetrics::remote_grants`].
    pub remote_grants: u64,
    /// See [`SchedulerMetrics::process_rotations`].
    pub process_rotations: u64,
    /// See [`SchedulerMetrics::stalls_detected`].
    pub stalls_detected: u64,
    /// See [`SchedulerMetrics::processes_killed`].
    pub processes_killed: u64,
    /// See [`SchedulerMetrics::tasks_reclaimed`].
    pub tasks_reclaimed: u64,
    /// See [`SchedulerMetrics::faults_injected`].
    pub faults_injected: u64,
}

impl SchedulerMetrics {
    /// Bump a counter by one.
    #[inline]
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Take a consistent-enough snapshot of all counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            submits: self.submits.load(Ordering::Relaxed),
            pending_wakeups: self.pending_wakeups.load(Ordering::Relaxed),
            redundant_submits: self.redundant_submits.load(Ordering::Relaxed),
            intake_submits: self.intake_submits.load(Ordering::Relaxed),
            lock_acquisitions: self.lock_acquisitions.load(Ordering::Relaxed),
            global_lock_acquisitions: self.global_lock_acquisitions.load(Ordering::Relaxed),
            pauses: self.pauses.load(Ordering::Relaxed),
            pauses_elided: self.pauses_elided.load(Ordering::Relaxed),
            yields: self.yields.load(Ordering::Relaxed),
            yields_noop: self.yields_noop.load(Ordering::Relaxed),
            waitfors: self.waitfors.load(Ordering::Relaxed),
            waitfor_timeouts: self.waitfor_timeouts.load(Ordering::Relaxed),
            attaches: self.attaches.load(Ordering::Relaxed),
            detaches: self.detaches.load(Ordering::Relaxed),
            grants: self.grants.load(Ordering::Relaxed),
            affinity_hits: self.affinity_hits.load(Ordering::Relaxed),
            numa_hits: self.numa_hits.load(Ordering::Relaxed),
            remote_grants: self.remote_grants.load(Ordering::Relaxed),
            process_rotations: self.process_rotations.load(Ordering::Relaxed),
            stalls_detected: self.stalls_detected.load(Ordering::Relaxed),
            processes_killed: self.processes_killed.load(Ordering::Relaxed),
            tasks_reclaimed: self.tasks_reclaimed.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
        }
    }
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

    /// Total scheduling points observed (pauses + yields + no-op yields + timed waits +
    /// detaches).
    pub fn scheduling_points(&self) -> u64 {
        self.pauses + self.yields + self.yields_noop + self.waitfors + self.detaches
    }

    /// The counter increments between `prev` (an earlier snapshot of the same scheduler)
    /// and `self`, field-wise and saturating — the one way every executor and bench
    /// isolates a phase, instead of ad-hoc per-counter subtraction.
    pub fn delta(&self, prev: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            submits: self.submits.saturating_sub(prev.submits),
            pending_wakeups: self.pending_wakeups.saturating_sub(prev.pending_wakeups),
            redundant_submits: self
                .redundant_submits
                .saturating_sub(prev.redundant_submits),
            intake_submits: self.intake_submits.saturating_sub(prev.intake_submits),
            lock_acquisitions: self
                .lock_acquisitions
                .saturating_sub(prev.lock_acquisitions),
            global_lock_acquisitions: self
                .global_lock_acquisitions
                .saturating_sub(prev.global_lock_acquisitions),
            pauses: self.pauses.saturating_sub(prev.pauses),
            pauses_elided: self.pauses_elided.saturating_sub(prev.pauses_elided),
            yields: self.yields.saturating_sub(prev.yields),
            yields_noop: self.yields_noop.saturating_sub(prev.yields_noop),
            waitfors: self.waitfors.saturating_sub(prev.waitfors),
            waitfor_timeouts: self.waitfor_timeouts.saturating_sub(prev.waitfor_timeouts),
            attaches: self.attaches.saturating_sub(prev.attaches),
            detaches: self.detaches.saturating_sub(prev.detaches),
            grants: self.grants.saturating_sub(prev.grants),
            affinity_hits: self.affinity_hits.saturating_sub(prev.affinity_hits),
            numa_hits: self.numa_hits.saturating_sub(prev.numa_hits),
            remote_grants: self.remote_grants.saturating_sub(prev.remote_grants),
            process_rotations: self
                .process_rotations
                .saturating_sub(prev.process_rotations),
            stalls_detected: self.stalls_detected.saturating_sub(prev.stalls_detected),
            processes_killed: self.processes_killed.saturating_sub(prev.processes_killed),
            tasks_reclaimed: self.tasks_reclaimed.saturating_sub(prev.tasks_reclaimed),
            faults_injected: self.faults_injected.saturating_sub(prev.faults_injected),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_increments() {
        let m = SchedulerMetrics::default();
        SchedulerMetrics::inc(&m.submits);
        SchedulerMetrics::inc(&m.submits);
        SchedulerMetrics::inc(&m.grants);
        SchedulerMetrics::inc(&m.affinity_hits);
        let s = m.snapshot();
        assert_eq!(s.submits, 2);
        assert_eq!(s.grants, 1);
        assert_eq!(s.affinity_hits, 1);
        assert_eq!(s.affinity_hit_rate(), Some(1.0));
    }

    #[test]
    fn affinity_rate_none_without_grants() {
        let s = MetricsSnapshot::default();
        assert_eq!(s.affinity_hit_rate(), None);
    }

    #[test]
    fn delta_is_fieldwise_and_saturating() {
        let m = SchedulerMetrics::default();
        SchedulerMetrics::inc(&m.submits);
        let before = m.snapshot();
        SchedulerMetrics::inc(&m.submits);
        SchedulerMetrics::inc(&m.grants);
        let d = m.snapshot().delta(&before);
        assert_eq!(d.submits, 1);
        assert_eq!(d.grants, 1);
        assert_eq!(d.pauses, 0);
        // Saturation: a "later" snapshot with smaller counters clamps at zero.
        assert_eq!(before.delta(&m.snapshot()).submits, 0);
    }

    #[test]
    fn scheduling_points_sums_voluntary_events() {
        let s = MetricsSnapshot {
            pauses: 2,
            yields: 3,
            yields_noop: 1,
            waitfors: 4,
            detaches: 5,
            ..Default::default()
        };
        assert_eq!(s.scheduling_points(), 15);
    }
}
