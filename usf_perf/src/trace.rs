//! Spans around the benchmark's own calls into each layer.
//!
//! Tracing is off for every end-to-end measurement; the traced pass turns it on, and each
//! call the harness makes into a layer is wrapped in [`span`]. Spans live in per-thread
//! vectors until the run ends. A span's *self time* is its duration minus the part of it
//! its child spans cover.

use crate::json::Json;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The crate a traced call lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Nosv,
    Core,
    Runtimes,
    Workloads,
    Simsched,
    /// The benchmark's own fixed-work kernel: the unit's compute.
    Bench,
}

impl Layer {
    /// Number of layers; a layer's discriminant indexes per-layer arrays.
    pub const COUNT: usize = 6;

    pub fn label(self) -> &'static str {
        match self {
            Layer::Nosv => "usf-nosv",
            Layer::Core => "usf-core",
            Layer::Runtimes => "usf-runtimes",
            Layer::Workloads => "usf-workloads",
            Layer::Simsched => "usf-simsched",
            Layer::Bench => "usf-perf",
        }
    }
}

/// Marks "no enclosing span on this thread".
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    /// The unit of work (token, request, region, step, sim) the call served; spans of one
    /// unit share it across threads.
    pub unit_id: u64,
    /// Index, in the same thread's vector, of the enclosing span.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's spans. `harness` threads are the ones the benchmark drives itself (the
/// attached main thread and threads it spawns); closures the runtimes run on their own
/// workers record spans too, but those threads' idle time is not the harness's to account.
#[derive(Debug, Default)]
pub struct ThreadTrace {
    pub tid: u32,
    pub harness: bool,
    pub spans: Vec<Span>,
}

struct Recorder {
    shared: Arc<Mutex<ThreadTrace>>,
    /// Indices of the open spans, innermost last.
    open: Vec<u32>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);
static REGISTRY: Mutex<Vec<Arc<Mutex<ThreadTrace>>>> = Mutex::new(Vec::new());
static EPOCH: Mutex<Option<Instant>> = Mutex::new(None);

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
    static T0: Instant = epoch();
}

fn epoch() -> Instant {
    *EPOCH
        .lock()
        .expect("epoch lock is never held across a panic")
        .get_or_insert_with(Instant::now)
}

/// Nanoseconds since the trace epoch.
pub fn clock_ns() -> u64 {
    T0.with(|t0| t0.elapsed().as_nanos() as u64)
}

fn with_recorder<R>(f: impl FnOnce(&mut Recorder) -> R) -> R {
    RECORDER.with(|cell| {
        let mut slot = cell.borrow_mut();
        let rec = slot.get_or_insert_with(|| {
            let shared = Arc::new(Mutex::new(ThreadTrace {
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                ..ThreadTrace::default()
            }));
            REGISTRY
                .lock()
                .expect("registry lock is never held across a panic")
                .push(Arc::clone(&shared));
            Recorder {
                shared,
                open: Vec::new(),
            }
        });
        f(rec)
    })
}

pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Declare the calling thread one the harness drives (see [`ThreadTrace`]).
pub fn mark_harness_thread() {
    with_recorder(|rec| rec.shared.lock().expect("thread trace lock").harness = true);
}

/// Run `f`; when tracing is on, record it as a span of `layer` serving unit `unit_id`.
#[inline]
pub fn span<R>(name: &'static str, layer: Layer, unit_id: u64, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let idx = with_recorder(|rec| {
        let mut t = rec.shared.lock().expect("thread trace lock");
        let idx = t.spans.len() as u32;
        t.spans.push(Span {
            name,
            layer,
            unit_id,
            parent: rec.open.last().copied().unwrap_or(NO_PARENT),
            start_ns: clock_ns(),
            end_ns: 0,
        });
        drop(t);
        rec.open.push(idx);
        idx
    });
    let out = f();
    let end = clock_ns();
    with_recorder(|rec| {
        rec.open.pop();
        rec.shared.lock().expect("thread trace lock").spans[idx as usize].end_ns = end;
    });
    out
}

/// Move every thread's spans out, leaving the recorders empty for the next traced window.
/// Call it once every thread that recorded has been joined, so that no span is open.
pub fn take() -> Vec<ThreadTrace> {
    let mut registry = REGISTRY.lock().expect("registry lock");
    let taken = registry
        .iter()
        .map(|t| {
            let mut t = t.lock().expect("thread trace lock");
            ThreadTrace {
                spans: std::mem::take(&mut t.spans),
                ..*t
            }
        })
        .filter(|t| !t.spans.is_empty())
        .collect();
    // A recorder whose thread has exited is referenced by the registry alone.
    registry.retain(|t| Arc::strong_count(t) > 1);
    taken
}

/// Self time of every span of one thread: duration minus the union of its children's
/// intervals, clipped to the span (children may nest deeper or overlap one another).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(siblings) = children.get_mut(s.parent as usize) {
            siblings.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (start, end) in kids {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// What the traced pass reads out of the spans of one window `[from_ns, to_ns)`.
#[derive(Debug, Default, Clone)]
pub struct Summary {
    /// Self time per layer (indexed by its discriminant) on harness threads, ns.
    pub harness_self_ns: [u64; Layer::COUNT],
    /// Self time of the blocking-sync spans (`SYNC_SPANS`) on harness threads, ns.
    pub sync_self_ns: u64,
    /// Self time of [`Layer::Bench`] spans on *every* thread, ns: compute is on-core time
    /// wherever it ran.
    pub compute_ns: u64,
    pub sync_calls: u64,
    pub runtime_calls: u64,
    pub harness_threads: u64,
    pub spans: u64,
}

/// The `usf_core::sync` calls that can block.
pub const SYNC_SPANS: [&str; 4] = [
    "Mutex::lock",
    "Sender::send",
    "Receiver::recv",
    "Barrier::wait",
];

pub fn summarize(threads: &[ThreadTrace], from_ns: u64, to_ns: u64) -> Summary {
    let mut out = Summary::default();
    for t in threads {
        out.harness_threads += u64::from(t.harness);
        let selfs = self_times(&t.spans);
        for (s, self_ns) in t.spans.iter().zip(selfs) {
            if s.start_ns < from_ns || s.start_ns >= to_ns {
                continue;
            }
            out.spans += 1;
            let is_sync = SYNC_SPANS.contains(&s.name);
            out.sync_calls += u64::from(is_sync);
            out.runtime_calls += u64::from(s.layer == Layer::Runtimes);
            if s.layer == Layer::Bench {
                out.compute_ns += self_ns;
            }
            if t.harness {
                out.harness_self_ns[s.layer as usize] += self_ns;
                if is_sync {
                    out.sync_self_ns += self_ns;
                }
            }
        }
    }
    out
}

/// The trace file: at most `cap` spans (earliest first per thread), so a churn-heavy window
/// does not write hundreds of megabytes.
pub fn to_json(threads: &[ThreadTrace], cap: usize) -> Json {
    let per_thread = cap / threads.len().max(1);
    let mut spans = Vec::new();
    for t in threads {
        for (i, s) in t.spans.iter().take(per_thread).enumerate() {
            let parent = if s.parent == NO_PARENT {
                Json::Null
            } else {
                Json::Str(format!("{}:{}", t.tid, s.parent))
            };
            spans.push(Json::obj([
                ("id", Json::Str(format!("{}:{}", t.tid, i))),
                ("name", Json::Str(s.name.to_string())),
                ("layer", Json::Str(s.layer.label().to_string())),
                ("thread", Json::Num(f64::from(t.tid))),
                ("harness_thread", Json::Bool(t.harness)),
                ("unit_id", Json::Num(s.unit_id as f64)),
                ("parent", parent),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ]));
        }
    }
    Json::Arr(spans)
}

/// Tests that turn the process-wide tracer on hold this, so that they do not take each
/// other's spans.
#[cfg(test)]
pub static TRACER_IN_USE: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            layer: Layer::Core,
            unit_id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100, child 10..60, grandchild 20..30 (inside the child).
        let spans = [sp(NO_PARENT, 0, 100), sp(0, 10, 60), sp(1, 20, 30)];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_unions_overlapping_children_and_clips_them() {
        // children 10..50 and 30..70 overlap (cover 10..70); a third 90..130 sticks out.
        let spans = [
            sp(NO_PARENT, 0, 100),
            sp(0, 10, 50),
            sp(0, 30, 70),
            sp(0, 90, 130),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn summary_counts_compute_everywhere_but_waits_on_harness_threads_only() {
        let lock = Span {
            name: "Mutex::lock",
            ..sp(NO_PARENT, 0, 40)
        };
        let kernel = Span {
            layer: Layer::Bench,
            ..sp(NO_PARENT, 50, 80)
        };
        let threads = [
            ThreadTrace {
                tid: 0,
                harness: true,
                spans: vec![lock.clone(), kernel.clone()],
            },
            ThreadTrace {
                tid: 1,
                harness: false,
                spans: vec![lock, kernel],
            },
        ];
        let s = summarize(&threads, 0, 1000);
        assert_eq!(s.sync_self_ns, 40);
        assert_eq!(s.compute_ns, 60);
        assert_eq!(s.sync_calls, 2);
        assert_eq!(s.harness_threads, 1);
        // Spans starting outside the window are left out.
        assert_eq!(summarize(&threads, 45, 1000).sync_calls, 0);
    }

    #[test]
    fn spans_nest_on_the_recording_thread() {
        let _tracer = TRACER_IN_USE.lock().unwrap_or_else(|e| e.into_inner());
        enable();
        span("outer", Layer::Runtimes, 7, || {
            span("inner", Layer::Bench, 7, || std::hint::black_box(1));
        });
        disable();
        let mine: Vec<ThreadTrace> = take()
            .into_iter()
            .filter(|t| t.spans.iter().any(|s| s.name == "outer"))
            .collect();
        assert_eq!(mine.len(), 1);
        let spans = &mine[0].spans;
        let outer = spans.iter().position(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent as usize, outer);
        assert_eq!(inner.unit_id, 7);
        assert!(inner.start_ns >= spans[outer].start_ns && inner.end_ns <= spans[outer].end_ns);
    }
}
