//! Seeded fault injection: a deterministic plan of "what goes wrong where" that the
//! scheduler (and the layers above it) consult at named fault sites.
//!
//! # Layering
//!
//! Injection is a run-time decision, like [`crate::sched_trace`]'s recording: the
//! [`Scheduler`] carries an optional installed [`FaultState`], and every fault site in
//! its hot paths is one load and one branch until `Scheduler::install_faults` installs a
//! plan. The scenario executor and the chaos bench install plans through the same call.
//!
//! # Determinism
//!
//! Whether a visit to a site fires is a pure function of `(plan seed, site, visit
//! number)` — a splitmix64-style hash, no shared RNG stream. Two sites never contend on
//! RNG state, so the decision a thread sees does not depend on how its visits interleave
//! with other sites' visits; a run under the same plan and the same per-site visit order
//! fires the same faults. Each firing is appended to a log ([`FaultRecord`]) so harnesses
//! can assert "every injected stall was detected" against ground truth, and the scheduler
//! additionally records a [`crate::sched_trace::TraceEvent::FaultInjected`] so faulty
//! runs stay replayable.
//!
//! [`Scheduler`]: crate::scheduler::Scheduler

use crate::task::TaskId;
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A named fault site: a point in the stack where an armed [`FaultPlan`] may fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A task body panics mid-unit (consumed by the runtimes / scenario driver).
    TaskBodyPanic,
    /// A worker stalls (sleeps, still holding its core) at a scheduling point.
    WorkerStall,
    /// A wake-up (submit) is silently dropped before it reaches the scheduler.
    DropWakeup,
    /// A wake-up is delivered twice (the second must be absorbed as redundant).
    DuplicateWakeup,
    /// An intake drain is skipped, delaying queued submits to a later scheduling point.
    DelayIntakeDrain,
    /// A process dies mid-run with tasks in flight (consumed by the scenario driver via
    /// [`crate::scheduler::Scheduler::kill_process`]).
    ProcessDeath,
    /// Shutdown widens its race window against concurrent submits.
    ShutdownRace,
}

impl FaultSite {
    /// Every site, in dense-index order.
    pub const ALL: [FaultSite; 7] = [
        FaultSite::TaskBodyPanic,
        FaultSite::WorkerStall,
        FaultSite::DropWakeup,
        FaultSite::DuplicateWakeup,
        FaultSite::DelayIntakeDrain,
        FaultSite::ProcessDeath,
        FaultSite::ShutdownRace,
    ];

    /// Dense index of this site (stable: used in hashing and the per-site tables).
    pub fn index(self) -> usize {
        match self {
            FaultSite::TaskBodyPanic => 0,
            FaultSite::WorkerStall => 1,
            FaultSite::DropWakeup => 2,
            FaultSite::DuplicateWakeup => 3,
            FaultSite::DelayIntakeDrain => 4,
            FaultSite::ProcessDeath => 5,
            FaultSite::ShutdownRace => 6,
        }
    }

    /// Short stable label (JSON output, counterexamples).
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::TaskBodyPanic => "task_body_panic",
            FaultSite::WorkerStall => "worker_stall",
            FaultSite::DropWakeup => "drop_wakeup",
            FaultSite::DuplicateWakeup => "duplicate_wakeup",
            FaultSite::DelayIntakeDrain => "delay_intake_drain",
            FaultSite::ProcessDeath => "process_death",
            FaultSite::ShutdownRace => "shutdown_race",
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How one site is armed: fire roughly one visit in `one_in`, at most `max_fires` times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// The site this spec arms.
    pub site: FaultSite,
    /// Fire when `hash(seed, site, visit) % one_in == 0`; `1` fires on every visit.
    pub one_in: u32,
    /// Upper bound on total fires of this site (keeps chaos runs bounded).
    pub max_fires: u32,
    /// Stall duration, for the sites that delay ([`FaultSite::WorkerStall`],
    /// [`FaultSite::ShutdownRace`]); ignored elsewhere.
    pub stall: Duration,
}

impl FaultSpec {
    /// Arm `site` to fire on every visit, unboundedly, with no stall.
    pub fn new(site: FaultSite) -> Self {
        FaultSpec {
            site,
            one_in: 1,
            max_fires: u32::MAX,
            stall: Duration::ZERO,
        }
    }

    /// Fire roughly one visit in `n` (clamped to at least 1).
    pub fn one_in(mut self, n: u32) -> Self {
        self.one_in = n.max(1);
        self
    }

    /// Cap the total number of fires.
    pub fn max_fires(mut self, n: u32) -> Self {
        self.max_fires = n;
        self
    }

    /// Stall duration for delaying sites.
    pub fn stall(mut self, d: Duration) -> Self {
        self.stall = d;
        self
    }
}

/// A seeded set of armed fault sites. Pure data: build one, hand it to
/// `Scheduler::install_faults` or drive it directly through a [`FaultState`] from a
/// harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the deterministic fire decisions.
    pub seed: u64,
    /// The armed sites (a later spec for the same site replaces the earlier one).
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (nothing armed) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            specs: Vec::new(),
        }
    }

    /// Arm one site.
    pub fn arm(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Whether any site is armed.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

/// One fired fault, appended to the [`FaultState`] log at the moment of the decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// The site that fired.
    pub site: FaultSite,
    /// The site's visit number at which it fired (0-based).
    pub visit: u64,
    /// The task in whose context the site fired, when one was known.
    pub task: Option<TaskId>,
}

/// Mix `(seed, site, visit)` into a decision hash (splitmix64-style finalizer).
fn mix(seed: u64, site: u64, visit: u64) -> u64 {
    let mut z =
        seed ^ site.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ visit.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runtime state of an installed [`FaultPlan`]: per-site visit/fire counters and the
/// fired-fault log. Shared (`Arc`) between the injectee and the asserting harness.
#[derive(Debug)]
pub struct FaultState {
    seed: u64,
    specs: [Option<FaultSpec>; 7],
    visits: [AtomicU64; 7],
    fires: [AtomicU64; 7],
    log: Mutex<Vec<FaultRecord>>,
}

impl FaultState {
    /// Instantiate a plan. Later specs for the same site replace earlier ones.
    pub fn new(plan: &FaultPlan) -> Self {
        let mut specs: [Option<FaultSpec>; 7] = [None; 7];
        for spec in &plan.specs {
            specs[spec.site.index()] = Some(*spec);
        }
        FaultState {
            seed: plan.seed,
            specs,
            visits: std::array::from_fn(|_| AtomicU64::new(0)),
            fires: std::array::from_fn(|_| AtomicU64::new(0)),
            log: Mutex::new(Vec::new()),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Visit `site`: returns `true` (and logs a [`FaultRecord`]) when the armed spec says
    /// this visit fires. Unarmed sites return `false` without touching any counter.
    pub fn consult(&self, site: FaultSite, task: Option<TaskId>) -> bool {
        let i = site.index();
        let Some(spec) = self.specs[i] else {
            return false;
        };
        let visit = self.visits[i].fetch_add(1, Ordering::Relaxed);
        if mix(self.seed, i as u64, visit) % spec.one_in as u64 != 0 {
            return false;
        }
        // Claim a fire slot; losing the claim (cap reached) means the fault stays quiet.
        let claimed = self.fires[i]
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |f| {
                (f < spec.max_fires as u64).then_some(f + 1)
            })
            .is_ok();
        if claimed {
            self.log.lock().push(FaultRecord { site, visit, task });
        }
        claimed
    }

    /// Like [`FaultState::consult`], but returns the armed stall duration when firing —
    /// the shape the delaying sites need.
    pub fn consult_stall(&self, site: FaultSite, task: Option<TaskId>) -> Option<Duration> {
        let spec = self.specs[site.index()]?;
        self.consult(site, task).then_some(spec.stall)
    }

    /// Times `site` has fired so far.
    pub fn fires(&self, site: FaultSite) -> u64 {
        self.fires[site.index()].load(Ordering::Relaxed)
    }

    /// Times `site` has been visited so far.
    pub fn visits(&self, site: FaultSite) -> u64 {
        self.visits[site.index()].load(Ordering::Relaxed)
    }

    /// Total fires across every site.
    pub fn total_fires(&self) -> u64 {
        self.fires.iter().map(|f| f.load(Ordering::Relaxed)).sum()
    }

    /// Snapshot of the fired-fault log, in firing order.
    pub fn records(&self) -> Vec<FaultRecord> {
        self.log.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_sites_never_fire_and_never_count() {
        let st = FaultState::new(&FaultPlan::new(1));
        for site in FaultSite::ALL {
            assert!(!st.consult(site, None));
            assert_eq!(st.visits(site), 0, "unarmed {site} must not count visits");
        }
        assert_eq!(st.total_fires(), 0);
        assert!(st.records().is_empty());
    }

    #[test]
    fn one_in_one_fires_every_visit_up_to_cap() {
        let plan =
            FaultPlan::new(7).arm(FaultSpec::new(FaultSite::DropWakeup).one_in(1).max_fires(3));
        let st = FaultState::new(&plan);
        let fired: Vec<bool> = (0..5)
            .map(|i| st.consult(FaultSite::DropWakeup, Some(i)))
            .collect();
        assert_eq!(fired, vec![true, true, true, false, false]);
        assert_eq!(st.fires(FaultSite::DropWakeup), 3);
        assert_eq!(st.visits(FaultSite::DropWakeup), 5);
        let recs = st.records();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].task, Some(0));
        assert_eq!(recs[2].visit, 2);
    }

    #[test]
    fn decisions_are_deterministic_in_seed_and_visit() {
        let plan = FaultPlan::new(42).arm(FaultSpec::new(FaultSite::WorkerStall).one_in(4));
        let a = FaultState::new(&plan);
        let b = FaultState::new(&plan);
        let da: Vec<bool> = (0..64)
            .map(|_| a.consult(FaultSite::WorkerStall, None))
            .collect();
        let db: Vec<bool> = (0..64)
            .map(|_| b.consult(FaultSite::WorkerStall, None))
            .collect();
        assert_eq!(da, db);
        assert!(da.iter().any(|&f| f), "one-in-4 over 64 visits must fire");
        assert!(!da.iter().all(|&f| f), "one-in-4 must not fire every visit");
        // A different seed yields a different firing pattern (with overwhelming odds).
        let plan2 = FaultPlan::new(43).arm(FaultSpec::new(FaultSite::WorkerStall).one_in(4));
        let c = FaultState::new(&plan2);
        let dc: Vec<bool> = (0..64)
            .map(|_| c.consult(FaultSite::WorkerStall, None))
            .collect();
        assert_ne!(da, dc);
    }

    #[test]
    fn sites_decide_independently() {
        // Interleaving visits to two sites must not perturb either site's decisions.
        let plan = FaultPlan::new(9)
            .arm(FaultSpec::new(FaultSite::DropWakeup).one_in(3))
            .arm(FaultSpec::new(FaultSite::DelayIntakeDrain).one_in(3));
        let solo = FaultState::new(&plan);
        let solo_drops: Vec<bool> = (0..32)
            .map(|_| solo.consult(FaultSite::DropWakeup, None))
            .collect();
        let mixed = FaultState::new(&plan);
        let mut mixed_drops = Vec::new();
        for _ in 0..32 {
            mixed.consult(FaultSite::DelayIntakeDrain, None);
            mixed_drops.push(mixed.consult(FaultSite::DropWakeup, None));
        }
        assert_eq!(solo_drops, mixed_drops);
    }

    #[test]
    fn consult_stall_returns_armed_duration() {
        let plan = FaultPlan::new(3).arm(
            FaultSpec::new(FaultSite::WorkerStall)
                .one_in(1)
                .max_fires(1)
                .stall(Duration::from_millis(50)),
        );
        let st = FaultState::new(&plan);
        assert_eq!(
            st.consult_stall(FaultSite::WorkerStall, None),
            Some(Duration::from_millis(50))
        );
        assert_eq!(st.consult_stall(FaultSite::WorkerStall, None), None);
        assert_eq!(st.consult_stall(FaultSite::ShutdownRace, None), None);
    }

    #[test]
    fn later_arm_replaces_earlier_spec() {
        let plan = FaultPlan::new(0)
            .arm(FaultSpec::new(FaultSite::DropWakeup).one_in(1))
            .arm(FaultSpec::new(FaultSite::DropWakeup).one_in(1).max_fires(0));
        let st = FaultState::new(&plan);
        assert!(!st.consult(FaultSite::DropWakeup, None), "max_fires 0 wins");
    }
}
