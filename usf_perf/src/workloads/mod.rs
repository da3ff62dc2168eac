//! The five workloads and the pass that measures one of them.
//!
//! Every workload is written against [`ExecMode`], so the same code runs as cooperative USF
//! threads (what is measured) and as plain OS threads (the paper's baseline, context only).
//! In USF mode the instance always has [`CORES`] virtual cores and the harness's main thread
//! attaches before driving, so the process never has more runnable OS threads than that:
//! the oversubscription is inside USF, and the numbers measure the program, not the host
//! scheduler.

pub mod corun;
pub mod nested_blas;
pub mod sim_sweep;
pub mod sync_churn;
pub mod thread_churn;

use crate::stats;
use crate::trace::{self, Summary, ThreadTrace};
use std::time::{Duration, Instant};
use usf_core::exec::{ExecJoinHandle, ExecMode};
use usf_core::runtime::{AttachGuard, Usf};
use usf_nosv::StatsSnapshot;

/// Virtual cores of every USF instance the benchmark builds.
pub const CORES: usize = 2;

/// `unit_id` of a span whose unit is not known when the call begins (a `recv`).
pub const NO_UNIT: u64 = u64::MAX;

/// Thread backend, process domains and seed of one workload instance.
pub struct Env {
    usf: Option<Usf>,
    /// Where the main thread is attached and where the workload spawns by default.
    pub main: ExecMode,
    pub seed: u64,
}

impl Env {
    fn new(cooperative: bool, seed: u64) -> Env {
        let usf = cooperative.then(|| Usf::builder().cores(CORES).build());
        let main = match &usf {
            Some(usf) => ExecMode::Usf(usf.process("main")),
            None => ExecMode::Os,
        };
        Env { usf, main, seed }
    }

    /// A further process domain on the same instance (the multi-process case).
    pub fn domain(&self, name: &str) -> ExecMode {
        match &self.usf {
            Some(usf) => ExecMode::Usf(usf.process(name)),
            None => ExecMode::Os,
        }
    }

    /// Spawn a thread the harness drives itself.
    pub fn spawn<T: Send + 'static>(
        exec: &ExecMode,
        name: String,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> ExecJoinHandle<T> {
        exec.spawn_named(name, move || {
            trace::mark_harness_thread();
            f()
        })
    }
}

/// What one call of [`Workload::run_until`] adds up.
#[derive(Debug)]
pub struct Window {
    pub start: Instant,
    start_cpu_s: f64,
    start_ns: u64,
    /// Set by [`Window::close`].
    pub window_s: f64,
    pub cpu_s: f64,
    pub rss_mb: f64,
    end_ns: u64,
    /// Completed units of the closed-loop tenant.
    pub units: u64,
    /// Units of every tenant, and how many of them failed their oracle, panicked, timed
    /// out or were refused.
    pub attempted: u64,
    pub failed: u64,
    /// Latency of each unit of the latency-observed tenant, ms.
    pub lat_ms: Vec<f64>,
    /// Open loop only: requests due in the window; how late each was sent, µs; requests
    /// over the latency limit; requests still unanswered at the close.
    pub requests: u64,
    pub gen_lag_us: Vec<f64>,
    pub slo_misses: u64,
    pub backlog: u64,
    /// `sim_sweep` only: simulated context switches, and wall seconds inside
    /// SCHED_COOP-model simulations.
    pub sim_ctx_switches: f64,
    pub sim_coop_s: f64,
}

impl Window {
    pub fn open() -> Window {
        Window {
            start: Instant::now(),
            start_cpu_s: stats::cpu_seconds(),
            start_ns: trace::clock_ns(),
            window_s: 0.0,
            cpu_s: 0.0,
            rss_mb: 0.0,
            end_ns: 0,
            units: 0,
            attempted: 0,
            failed: 0,
            lat_ms: Vec::new(),
            requests: 0,
            gen_lag_us: Vec::new(),
            slo_misses: 0,
            backlog: 0,
            sim_ctx_switches: 0.0,
            sim_coop_s: 0.0,
        }
    }

    /// End the measured interval: a workload calls this when it stops counting (before any
    /// grace period); the pass calls it for workloads that did not. Returns the end instant.
    pub fn close(&mut self) -> Instant {
        let end = Instant::now();
        if self.end_ns == 0 {
            self.window_s = (end - self.start).as_secs_f64();
            self.cpu_s = stats::cpu_seconds() - self.start_cpu_s;
            self.rss_mb = stats::rss_mb();
            self.end_ns = trace::clock_ns();
        }
        end
    }

    /// One unit of the closed-loop tenant completed; `ok` is its oracle's verdict.
    pub fn unit(&mut self, ok: bool) {
        self.units += 1;
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// One of the five workloads.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// Whether the workload has threads to schedule at all (`sim_sweep` does not, so it has
    /// no OS-thread baseline).
    const THREADED: bool = true;
    /// Floating-point operations `usf-blas` performs per unit.
    const BLAS_FLOPS_PER_UNIT: f64 = 0.0;

    /// Build the instance from `env.seed`, spawn its threads and complete the first unit,
    /// which is counted in `w`.
    fn setup(env: &Env, w: &mut Window) -> Self;

    /// Run units until `deadline`, adding them to `w`. May be called repeatedly.
    fn run_until(&mut self, deadline: Instant, w: &mut Window);

    /// Stop every thread and run the end-of-run oracles, adding their verdicts to `w`.
    fn finish(self, w: &mut Window);

    /// Units one [`Workload::serial_units`] call computes.
    const SERIAL_UNITS: usize = 1;

    /// The compute of `SERIAL_UNITS` units alone on the calling thread: no USF, no
    /// runtime, no oracle.
    fn serial_units(seed: u64);
}

/// A pass that repeats its set-up builds it at least [`MIN_SETUPS`] more times and until it
/// has spent [`SETUP_SECONDS`] on them, up to [`MAX_SETUPS`]: a sub-millisecond set-up needs
/// more repetitions for a steady median than a 15 ms one.
const MIN_SETUPS: usize = 24;
const SETUP_SECONDS: f64 = 0.3;
const MAX_SETUPS: usize = 300;

/// How long each phase of a pass lasts.
#[derive(Debug, Clone, Copy)]
pub struct PassPlan {
    /// Whether the set-up is built and torn down repeatedly before the instance that is
    /// measured, so that `setup_s` can be a median.
    pub repeat_setup: bool,
    pub warmup: Duration,
    pub window: Duration,
    /// Consecutive slices the window is measured in, each with its own counts, CPU time and
    /// latencies. The end-to-end metrics are medians over the slices: this host's speed
    /// wanders by several per cent for seconds at a time, and a median over slices does
    /// not follow those phases the way a mean over the window does.
    pub slices: usize,
    pub traced: bool,
}

/// One measured window of one workload.
pub struct Pass {
    pub setup_s: Vec<f64>,
    pub slices: Vec<Window>,
    /// Scheduler counters and stage histograms over the window (USF mode only).
    pub nosv: Option<StatsSnapshot>,
    /// Thread-cache `(created, reused)` over the window.
    pub cache: (u64, u64),
    pub trace: Option<(Summary, Vec<ThreadTrace>)>,
}

impl Pass {
    /// The window of a pass measured in one slice.
    pub fn whole(&self) -> &Window {
        assert_eq!(self.slices.len(), 1, "the pass was measured in slices");
        &self.slices[0]
    }

    pub fn units_per_s(&self) -> f64 {
        self.whole().units as f64 / self.whole().window_s
    }

    pub fn attempted(&self) -> u64 {
        self.slices.iter().map(|w| w.attempted).sum()
    }

    /// Units that failed — and, for an overloaded open loop, every request it left
    /// unanswered at the close, however soon after the reply came.
    pub fn failed(&self) -> u64 {
        let failed: u64 = self.slices.iter().map(|w| w.failed).sum();
        failed + if self.overloaded() { self.backlog() } else { 0 }
    }

    fn backlog(&self) -> u64 {
        self.slices.last().map_or(0, |w| w.backlog)
    }

    /// Whether the open loop fell behind: a backlog at the close of the window above 1 %
    /// of the requests sent in it.
    pub fn overloaded(&self) -> bool {
        let requests: u64 = self.slices.iter().map(|w| w.requests).sum();
        overloaded(self.backlog(), requests)
    }
}

pub fn overloaded(backlog_at_close: u64, requests: u64) -> bool {
    backlog_at_close * 100 > requests
}

/// One built instance of a workload with the main thread attached to it.
struct Instance<W> {
    env: Env,
    attached: Option<AttachGuard>,
    workload: W,
}

impl<W: Workload> Instance<W> {
    /// Build an instance up to its first completed unit; returns the seconds it took.
    fn build(cooperative: bool, seed: u64, w: &mut Window) -> (f64, Self) {
        let t0 = Instant::now();
        let env = Env::new(cooperative, seed);
        let attached = env.main.process().map(|p| p.attach_current());
        trace::mark_harness_thread();
        let workload = W::setup(&env, w);
        let instance = Instance {
            env,
            attached,
            workload,
        };
        (t0.elapsed().as_secs_f64(), instance)
    }

    fn teardown(self, w: &mut Window) {
        self.workload.finish(w);
        drop(self.attached);
        if let Some(usf) = &self.env.usf {
            usf.shutdown();
        }
    }
}

/// Half of a pass's repeated set-ups: build and tear down instances, adding each
/// set-up's seconds to `setup_s`, until half the quota of [`MIN_SETUPS`] is met.
fn repeat_setups<W: Workload>(
    cooperative: bool,
    seed: u64,
    w: &mut Window,
    setup_s: &mut Vec<f64>,
) {
    let (mut done, mut spent) = (0, 0.0);
    while (done < MIN_SETUPS / 2 || spent < SETUP_SECONDS / 2.0) && done < MAX_SETUPS / 2 {
        let (seconds, instance) = Instance::<W>::build(cooperative, seed, w);
        instance.teardown(w);
        setup_s.push(seconds);
        spent += seconds;
        done += 1;
    }
}

/// Set the workload up, warm the instance up and measure one window on it. If the plan
/// says so, the set-up is also repeated on instances of their own, half of them before the
/// window and half after it, so that the repetitions do not all fall into one of the
/// host's slow or fast phases.
pub fn run_pass<W: Workload>(cooperative: bool, seed: u64, plan: PassPlan) -> Pass {
    let mut setup_s = Vec::new();
    let mut scratch = Window::open();
    if plan.repeat_setup {
        repeat_setups::<W>(cooperative, seed, &mut scratch, &mut setup_s);
    }
    let (seconds, mut instance) = Instance::<W>::build(cooperative, seed, &mut scratch);
    setup_s.push(seconds);
    let usf = instance.env.usf.clone();

    let warm_until = Instant::now() + plan.warmup;
    instance.workload.run_until(warm_until, &mut scratch);

    let stats_before = usf.as_ref().map(|u| u.stats_snapshot());
    let cache_before = usf.as_ref().map(|u| u.thread_cache_stats());
    if plan.traced {
        trace::enable();
    }
    let slice_len = plan.window / plan.slices.max(1) as u32;
    let mut slices: Vec<Window> = (0..plan.slices.max(1))
        .map(|_| {
            let mut slice = Window::open();
            instance
                .workload
                .run_until(slice.start + slice_len, &mut slice);
            slice.close();
            slice
        })
        .collect();
    trace::disable();
    let nosv = usf
        .as_ref()
        .zip(stats_before)
        .map(|(u, before)| u.stats_snapshot().delta(&before));
    let cache = usf
        .as_ref()
        .zip(cache_before)
        .map(|(u, before)| {
            let now = u.thread_cache_stats();
            (now.created - before.created, now.reused - before.reused)
        })
        .unwrap_or((0, 0));

    let last = slices.last_mut().expect("a pass has at least one slice");
    instance.teardown(last);
    // Every thread that recorded is joined by now, so no span is open.
    let trace = plan.traced.then(|| {
        let threads = trace::take();
        let (from, to) = (slices[0].start_ns, slices[slices.len() - 1].end_ns);
        (trace::summarize(&threads, from, to), threads)
    });
    if plan.repeat_setup {
        repeat_setups::<W>(cooperative, seed, &mut scratch, &mut setup_s);
    }
    // A wrong output during set-up or warm-up is still a wrong output.
    let last = slices.last_mut().expect("a pass has at least one slice");
    last.attempted += scratch.attempted;
    last.failed += scratch.failed;
    Pass {
        setup_s,
        slices,
        nosv,
        cache,
        trace,
    }
}

/// Seconds of serial compute per unit: the median of nine [`Workload::serial_units`] runs.
pub fn serial_unit_s<W: Workload>(seed: u64) -> f64 {
    let runs: Vec<f64> = (0..9)
        .map(|_| {
            let t0 = Instant::now();
            W::serial_units(seed);
            t0.elapsed().as_secs_f64() / W::SERIAL_UNITS as f64
        })
        .collect();
    stats::median(&runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_backlog_above_one_per_cent_of_the_requests_is_an_overload() {
        assert!(!overloaded(0, 0));
        assert!(!overloaded(40, 4000));
        assert!(overloaded(41, 4000));
    }
}
