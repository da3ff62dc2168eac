//! The persistent worker team (OpenMP-like fork-join execution).

use super::schedule::{IterationDispenser, LoopSchedule};
use crate::waitpolicy::WaitPolicy;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use usf_core::exec::{ExecJoinHandle, ExecMode};
use usf_core::sync::{Barrier, Condvar, Mutex, WaitGroup};
use usf_core::timing::yield_now;

/// Configuration of a fork-join [`Team`].
#[derive(Clone, Debug)]
pub struct TeamConfig {
    /// Team size, including the calling ("master") thread.
    pub num_threads: usize,
    /// How idle workers wait for the next parallel region.
    pub wait_policy: WaitPolicy,
    /// Thread backend: plain OS threads (baseline) or USF cooperative threads (SCHED_COOP).
    pub exec: ExecMode,
    /// Name prefix for worker threads (diagnostics).
    pub name: String,
}

impl TeamConfig {
    /// A team of `num_threads` with the passive wait policy.
    pub fn new(num_threads: usize, exec: ExecMode) -> Self {
        TeamConfig {
            num_threads,
            wait_policy: WaitPolicy::Passive,
            exec,
            name: "fj-team".to_string(),
        }
    }

    /// Set the wait policy.
    pub fn wait_policy(mut self, policy: WaitPolicy) -> Self {
        self.wait_policy = policy;
        self
    }

    /// Set the worker-name prefix.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }
}

/// Per-thread context passed to parallel-region closures.
pub struct RegionCtx<'a> {
    thread_num: usize,
    num_threads: usize,
    barrier: &'a Barrier,
}

impl RegionCtx<'_> {
    /// The calling thread's index within the region (`0` is the master).
    pub fn thread_num(&self) -> usize {
        self.thread_num
    }

    /// Number of threads participating in the region.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Block at the team barrier until every participant of this region arrives.
    pub fn barrier(&self) {
        self.barrier.wait();
    }
}

/// Type-erased pointer to the current region's closure. The pointer is only dereferenced by
/// workers participating in the region, all of which finish before `Team::parallel` returns,
/// so the pointee (which lives on the master's stack) is always alive when called.
#[derive(Clone, Copy)]
struct RegionFnPtr(*const (dyn Fn(&RegionCtx<'_>) + Sync));

// Safety: the pointee is `Sync` (shared calls are fine) and the lifetime discipline above
// guarantees validity whenever the pointer is dereferenced.
unsafe impl Send for RegionFnPtr {}
unsafe impl Sync for RegionFnPtr {}

/// Snapshot of the published parallel region that a worker grabs under the state lock.
#[derive(Clone)]
struct Region {
    epoch: u64,
    f: RegionFnPtr,
    barrier: Arc<Barrier>,
    done: Arc<WaitGroup>,
    active: usize,
}

struct TeamShared {
    /// Current region (replaced at each `parallel` call).
    state: Mutex<Option<Region>>,
    cv: Condvar,
    /// Region counter, readable without the lock for active waiters.
    epoch: AtomicU64,
    shutdown: AtomicBool,
    /// Total parallel regions executed (diagnostics).
    regions: AtomicU64,
    /// Worker region-body panics caught so far (the worker and the team survive).
    panics: AtomicU64,
    /// Message of the first caught worker panic, reported by the next region close.
    first_panic: Mutex<Option<String>>,
}

/// A persistent fork-join worker team. See the module documentation.
pub struct Team {
    config: TeamConfig,
    shared: Arc<TeamShared>,
    workers: Vec<ExecJoinHandle<()>>,
    /// Serializes `parallel` calls from different threads on the same team.
    region_lock: Mutex<()>,
}

impl Team {
    /// Create a team: `config.num_threads - 1` workers are spawned immediately (the caller
    /// acts as thread 0 of every region).
    pub fn new(config: TeamConfig) -> Self {
        let shared = Arc::new(TeamShared {
            state: Mutex::new(None),
            cv: Condvar::new(),
            epoch: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            regions: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            first_panic: Mutex::new(None),
        });
        let mut workers = Vec::new();
        for i in 1..config.num_threads.max(1) {
            let shared = Arc::clone(&shared);
            let policy = config.wait_policy;
            let name = format!("{}-{i}", config.name);
            workers.push(
                config
                    .exec
                    .spawn_named(name, move || worker_loop(shared, i, policy)),
            );
        }
        Team {
            config,
            shared,
            workers,
            region_lock: Mutex::new(()),
        }
    }

    /// Convenience constructor with the default (passive) wait policy.
    pub fn with_threads(num_threads: usize, exec: ExecMode) -> Self {
        Team::new(TeamConfig::new(num_threads, exec))
    }

    /// Team size (including the master).
    pub fn size(&self) -> usize {
        self.config.num_threads.max(1)
    }

    /// The team configuration.
    pub fn config(&self) -> &TeamConfig {
        &self.config
    }

    /// Number of parallel regions executed so far.
    pub fn regions_executed(&self) -> u64 {
        self.shared.regions.load(Ordering::Relaxed)
    }

    /// Run `f` on `active` threads of the team (capped to the team size). The calling thread
    /// participates as thread 0; the call returns when every participant has finished.
    ///
    /// A panic in any participant's `f` is caught, the region still closes (every
    /// participant is waited for — the scoped-borrow guarantee holds even on the panic
    /// path), and the panic is then re-raised on the calling thread. The team itself
    /// survives and can run further regions. Use [`Team::try_parallel`] for the
    /// non-panicking `Result` form. (A participant that panics *while others are parked
    /// at a region barrier* still deadlocks that barrier — panics cannot release
    /// co-participants the closure explicitly synchronized.)
    pub fn parallel<F>(&self, active: usize, f: F)
    where
        F: Fn(&RegionCtx<'_>) + Sync,
    {
        let (master, worker_panics) = self.run_region(active, f);
        if let Err(payload) = master {
            std::panic::resume_unwind(payload);
        }
        if worker_panics > 0 {
            let first = self.take_first_panic();
            panic!("{worker_panics} worker(s) panicked in parallel region; first: {first}");
        }
    }

    /// [`Team::parallel`], but panics in the region body (master's or any worker's) are
    /// reported as `Err` instead of re-raised.
    pub fn try_parallel<F>(&self, active: usize, f: F) -> Result<(), usf_core::UsfError>
    where
        F: Fn(&RegionCtx<'_>) + Sync,
    {
        let (master, worker_panics) = self.run_region(active, f);
        if let Err(payload) = master {
            let msg = usf_core::error::panic_message(&*payload);
            return Err(usf_core::UsfError::ThreadPanicked(msg));
        }
        if worker_panics > 0 {
            let first = self.take_first_panic();
            return Err(usf_core::UsfError::ThreadPanicked(format!(
                "{worker_panics} worker(s) panicked in parallel region; first: {first}"
            )));
        }
        Ok(())
    }

    /// Total region-body panics caught in this team's workers (diagnostics).
    pub fn panics_caught(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    fn take_first_panic(&self) -> String {
        self.shared
            .first_panic
            .lock()
            .take()
            .unwrap_or_else(|| "<unknown>".to_string())
    }

    /// Publish and fully execute one region. Returns the master's own outcome and how
    /// many workers panicked inside this region. The region is ALWAYS closed before
    /// returning — `done.wait()` runs even when the master's `f` panics, because the
    /// erased closure pointer must not outlive the frame that owns `f`.
    fn run_region<F>(&self, active: usize, f: F) -> (Result<(), Box<dyn std::any::Any + Send>>, u64)
    where
        F: Fn(&RegionCtx<'_>) + Sync,
    {
        let active = active.clamp(1, self.size());
        let _serial = self.region_lock.lock();
        let panics_before = self.shared.panics.load(Ordering::Relaxed);
        let barrier = Arc::new(Barrier::new(active));
        let done = Arc::new(WaitGroup::with_count(active.saturating_sub(1)));
        // Erase the closure's lifetime: workers only dereference the pointer before calling
        // `done.done()`, and this function does not return (or drop `f`) until `done.wait()`
        // has observed every participant, so the pointee outlives every dereference.
        let f_borrow: &(dyn Fn(&RegionCtx<'_>) + Sync) = &f;
        let f_erased: &'static (dyn Fn(&RegionCtx<'_>) + Sync) = unsafe {
            std::mem::transmute::<
                &(dyn Fn(&RegionCtx<'_>) + Sync),
                &'static (dyn Fn(&RegionCtx<'_>) + Sync),
            >(f_borrow)
        };
        let fptr = RegionFnPtr(f_erased as *const _);
        let epoch = self.shared.epoch.load(Ordering::Relaxed) + 1;
        {
            let mut st = self.shared.state.lock();
            *st = Some(Region {
                epoch,
                f: fptr,
                barrier: Arc::clone(&barrier),
                done: Arc::clone(&done),
                active,
            });
            self.shared.epoch.store(epoch, Ordering::Release);
            self.shared.cv.notify_all();
        }
        // The master is thread 0 of the region.
        let ctx = RegionCtx {
            thread_num: 0,
            num_threads: active,
            barrier: &barrier,
        };
        let master = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&ctx)));
        // Wait for the other participants; only then may `f` (on our stack) be dropped.
        done.wait();
        self.shared.regions.fetch_add(1, Ordering::Relaxed);
        // Drop the published region so the closure pointer does not outlive this call.
        *self.shared.state.lock() = None;
        let worker_panics = self.shared.panics.load(Ordering::Relaxed) - panics_before;
        (master, worker_panics)
    }

    /// Distribute `range` over the team with the given schedule; `f` is called once per
    /// index. Equivalent to `#pragma omp parallel for schedule(...)`.
    pub fn parallel_for<F>(&self, range: Range<usize>, schedule: LoopSchedule, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let start = range.start;
        let len = range.end.saturating_sub(range.start);
        if len == 0 {
            return;
        }
        let nthreads = self.size();
        let dispenser = IterationDispenser::new(len, nthreads, schedule);
        self.parallel(nthreads, |ctx| {
            let mut taken = 0;
            while let Some((s, e)) = dispenser.next_chunk(ctx.thread_num(), taken) {
                for i in s..e {
                    f(start + i);
                }
                taken += 1;
            }
        });
    }

    /// Shut the team down and join its workers. Called automatically on drop.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        {
            let _st = self.shared.state.lock();
            self.shared.cv.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Team {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Team {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Team")
            .field("threads", &self.size())
            .field("wait_policy", &self.config.wait_policy)
            .field("backend", &self.config.exec.label())
            .finish()
    }
}

/// Grab the published region if it is newer than `seen`.
fn try_take_region(shared: &TeamShared, seen: u64) -> Option<Region> {
    let st = shared.state.lock();
    match &*st {
        Some(r) if r.epoch > seen => Some(r.clone()),
        _ => None,
    }
}

/// Worker side: wait for regions according to the wait policy and execute them.
fn worker_loop(shared: Arc<TeamShared>, index: usize, policy: WaitPolicy) {
    let mut seen = 0u64;
    loop {
        let region = match wait_for_region(&shared, seen, policy) {
            Some(r) => r,
            None => return, // shutdown
        };
        seen = region.epoch;
        if index < region.active {
            let ctx = RegionCtx {
                thread_num: index,
                num_threads: region.active,
                barrier: &region.barrier,
            };
            // Safety: see `RegionFnPtr` — the master does not return from `parallel` (and
            // therefore does not drop the closure) until we call `done.done()` below.
            // A panicking region body must be caught HERE: `done.done()` has to run no
            // matter what, or the master waits forever on a participant that is gone.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
                (&*region.f.0)(&ctx)
            }));
            if let Err(payload) = outcome {
                let msg = usf_core::error::panic_message(&*payload);
                shared.panics.fetch_add(1, Ordering::Relaxed);
                let mut first = shared.first_panic.lock();
                if first.is_none() {
                    *first = Some(msg);
                }
            }
            region.done.done();
        }
    }
}

/// Wait until a region newer than `seen` is published (returns it) or shutdown (returns
/// `None`), honouring the wait policy.
fn wait_for_region(shared: &TeamShared, seen: u64, policy: WaitPolicy) -> Option<Region> {
    // Fast path.
    if shared.shutdown.load(Ordering::Acquire) {
        return None;
    }
    if let Some(r) = try_take_region(shared, seen) {
        return Some(r);
    }
    // Active spins forever (no deadline); Hybrid spins until its deadline, then parks.
    let (deadline, yield_every) = match policy {
        WaitPolicy::Active { yield_every } => (None, yield_every),
        WaitPolicy::Hybrid { spin, yield_every } => (Some(Instant::now() + spin), yield_every),
        WaitPolicy::Passive => return passive_wait(shared, seen),
    };
    let mut spins: u32 = 0;
    while deadline.map_or(true, |d| Instant::now() < d) {
        if shared.shutdown.load(Ordering::Acquire) {
            return None;
        }
        if shared.epoch.load(Ordering::Acquire) > seen {
            if let Some(r) = try_take_region(shared, seen) {
                return Some(r);
            }
        }
        std::hint::spin_loop();
        spins = spins.wrapping_add(1);
        if let Some(k) = yield_every {
            if k > 0 && spins % k == 0 {
                yield_now();
            }
        }
    }
    passive_wait(shared, seen)
}

/// Block on the team condition variable until a newer region or shutdown.
fn passive_wait(shared: &TeamShared, seen: u64) -> Option<Region> {
    let mut st = shared.state.lock();
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return None;
        }
        if let Some(r) = &*st {
            if r.epoch > seen {
                return Some(r.clone());
            }
        }
        st = shared.cv.wait(st);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use usf_core::runtime::Usf;

    fn assert_team_basics(exec: ExecMode, wait: WaitPolicy) {
        let team = Team::new(TeamConfig::new(4, exec).wait_policy(wait));
        let counter = AtomicUsize::new(0);
        let max_tid = AtomicUsize::new(0);
        team.parallel(4, |ctx| {
            counter.fetch_add(1, Ordering::SeqCst);
            max_tid.fetch_max(ctx.thread_num(), Ordering::SeqCst);
            assert_eq!(ctx.num_threads(), 4);
            ctx.barrier();
        });
        assert_eq!(counter.load(Ordering::SeqCst), 4);
        assert_eq!(max_tid.load(Ordering::SeqCst), 3);
        assert_eq!(team.regions_executed(), 1);
    }

    #[test]
    fn os_team_runs_region_on_all_threads() {
        assert_team_basics(ExecMode::Os, WaitPolicy::Passive);
    }

    #[test]
    fn os_team_with_hybrid_wait() {
        assert_team_basics(ExecMode::Os, WaitPolicy::hybrid_default());
    }

    #[test]
    fn os_team_with_active_yielding_wait() {
        assert_team_basics(ExecMode::Os, WaitPolicy::active_yielding());
    }

    #[test]
    fn usf_team_runs_region_on_all_threads() {
        let usf = Usf::builder().cores(2).build();
        let p = usf.process("team-test");
        assert_team_basics(ExecMode::Usf(p), WaitPolicy::Passive);
        usf.shutdown();
    }

    #[test]
    fn parallel_for_sums_correctly_all_schedules() {
        let team = Team::with_threads(3, ExecMode::Os);
        for schedule in [
            LoopSchedule::Static { chunk: 0 },
            LoopSchedule::Static { chunk: 5 },
            LoopSchedule::Dynamic { chunk: 3 },
            LoopSchedule::Guided { min_chunk: 2 },
        ] {
            let sum = AtomicUsize::new(0);
            team.parallel_for(0..1000, schedule, |i| {
                sum.fetch_add(i, Ordering::Relaxed);
            });
            assert_eq!(
                sum.load(Ordering::Relaxed),
                (0..1000).sum::<usize>(),
                "schedule {schedule:?}"
            );
        }
    }

    #[test]
    fn parallel_with_fewer_active_threads() {
        let team = Team::with_threads(4, ExecMode::Os);
        let count = AtomicUsize::new(0);
        team.parallel(2, |ctx| {
            assert!(ctx.thread_num() < 2);
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn regions_are_reusable_and_sequential() {
        let team = Team::with_threads(3, ExecMode::Os);
        let total = AtomicUsize::new(0);
        for _ in 0..10 {
            team.parallel(3, |_| {
                total.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(total.load(Ordering::SeqCst), 30);
        assert_eq!(team.regions_executed(), 10);
    }

    #[test]
    fn single_thread_team_degenerates_to_serial() {
        let team = Team::with_threads(1, ExecMode::Os);
        let count = AtomicUsize::new(0);
        team.parallel(1, |ctx| {
            assert_eq!(ctx.num_threads(), 1);
            ctx.barrier();
            count.fetch_add(1, Ordering::SeqCst);
        });
        team.parallel_for(0..10, LoopSchedule::default(), |_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 11);
    }

    #[test]
    fn nested_teams_usf_oversubscribed() {
        // Outer team of 2, each member creating an inner team of 2, on a 2-core USF
        // instance: 4+ threads on 2 cores, the composition the paper studies.
        let usf = Usf::builder().cores(2).build();
        let p = usf.process("nested");
        let outer = Team::with_threads(2, ExecMode::Usf(p.clone()));
        let total = Arc::new(AtomicUsize::new(0));
        let total2 = Arc::clone(&total);
        let p_inner = p.clone();
        outer.parallel(2, move |_octx| {
            let inner = Team::with_threads(2, ExecMode::Usf(p_inner.clone()));
            let t = Arc::clone(&total2);
            inner.parallel(2, move |_ictx| {
                t.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(total.load(Ordering::SeqCst), 4);
        drop(outer);
        usf.shutdown();
    }

    #[test]
    fn worker_panic_surfaces_as_err_and_team_survives() {
        let team = Team::with_threads(4, ExecMode::Os);
        let err = team
            .try_parallel(4, |ctx| {
                if ctx.thread_num() == 2 {
                    panic!("worker 2 dies");
                }
            })
            .unwrap_err();
        assert!(
            matches!(&err, usf_core::UsfError::ThreadPanicked(m) if m.contains("worker 2 dies")),
            "got {err:?}"
        );
        assert_eq!(team.panics_caught(), 1);
        // The team is intact: the next region runs on every thread again.
        let count = AtomicUsize::new(0);
        team.parallel(4, |_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn master_panic_still_closes_the_region() {
        // The master's own closure panicking must not skip `done.wait()` (the workers
        // still hold the type-erased pointer into the master's frame) and must not
        // poison the team.
        let team = Team::with_threads(3, ExecMode::Os);
        let workers_ran = AtomicUsize::new(0);
        let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            team.parallel(3, |ctx| {
                if ctx.thread_num() == 0 {
                    panic!("master dies");
                }
                workers_ran.fetch_add(1, Ordering::SeqCst);
            });
        }));
        assert!(raised.is_err(), "master panic re-raises on the caller");
        assert_eq!(workers_ran.load(Ordering::SeqCst), 2);
        let count = AtomicUsize::new(0);
        team.parallel(3, |_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn usf_backend_worker_panic_surfaces_as_err() {
        let usf = Usf::builder().cores(2).build();
        let p = usf.process("team-panic");
        let team = Team::with_threads(3, ExecMode::Usf(p));
        let survivors = AtomicUsize::new(0);
        let err = team
            .try_parallel(3, |ctx| {
                if ctx.thread_num() == 1 {
                    panic!("cooperative worker dies");
                }
                survivors.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap_err();
        assert!(matches!(err, usf_core::UsfError::ThreadPanicked(_)));
        assert_eq!(survivors.load(Ordering::SeqCst), 2, "other units complete");
        drop(team);
        usf.shutdown();
    }

    #[test]
    fn borrows_local_data_without_arc() {
        let team = Team::with_threads(3, ExecMode::Os);
        let data: Vec<u64> = (0..100).collect();
        let sum = AtomicUsize::new(0);
        // The closure borrows `data` from the caller's stack — the scoped-region guarantee.
        team.parallel(3, |ctx| {
            let part: u64 = data.iter().skip(ctx.thread_num()).step_by(3).sum();
            sum.fetch_add(part as usize, Ordering::SeqCst);
        });
        assert_eq!(sum.load(Ordering::SeqCst) as u64, data.iter().sum::<u64>());
    }
}
