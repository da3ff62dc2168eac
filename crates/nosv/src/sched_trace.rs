//! Schedule trace recording: every scheduling decision of the real [`Scheduler`], logged
//! with a logical timestamp so the decision sequence can be deterministically re-executed
//! ("replayed") by the discrete-event simulator and fuzzed at its choice points.
//!
//! [`Scheduler`]: crate::scheduler::Scheduler
//!
//! # Layering
//!
//! Recording is a run-time decision: the `Scheduler` carries an optional recorder, and
//! every hook in its hot paths is one load and one branch until
//! `Scheduler::install_tracer` installs one. The event types are plain data shared with
//! `usf-simsched`'s replay harness and the equivalence tests.
//!
//! # Which events are authoritative
//!
//! An entry's step is its index in the recorder's push order, so trace order is the
//! order of the recorder's lock. The scheduler records each event right after the
//! decision it describes, with no synchronisation in between, so two events can be
//! pushed in an order other than the one they happened in only when no happens-before
//! relation connects them. Events recorded **under a scheduler-section lock** —
//! [`TraceEvent::RegisterProcess`], [`TraceEvent::DeregisterProcess`],
//! [`TraceEvent::SetDomain`], [`TraceEvent::IntakeDrain`], [`TraceEvent::Enqueue`],
//! [`TraceEvent::Pop`], [`TraceEvent::Grant`], [`TraceEvent::Yield`],
//! [`TraceEvent::Migrate`] and [`TraceEvent::Shutdown`] — are therefore in the order
//! their lock serialized them. With one shard (a single-node topology) that is a total
//! order, the authoritative replay script. On a multi-node topology any single-threaded
//! driver — the fuzzer, the record/replay tests — still gets an exact total order (each
//! event completes before the next begins), while genuinely concurrent multi-shard
//! traces are best-effort ordered (cross-shard probe side effects cannot be linearized
//! after the fact) and replay treats them as diagnostic only. [`TraceEvent::Submit`] is
//! recorded on the intake path, which takes no scheduler lock, so under concurrent
//! submitters its position is only causally ordered (it always precedes the
//! `IntakeDrain` that absorbs it).
//!
//! # Logical time
//!
//! Every timestamp is the **exact** `Instant` the scheduler passed to the policy call the
//! event describes (not a fresh `Instant::now()` taken by the recorder — a later timestamp
//! could cross a quantum or aging-valve deadline the decision itself did not cross),
//! stored as nanoseconds since the recorder's base instant. `Instant`/`Duration`
//! arithmetic is nanosecond-exact, as is the simulator's `SimTime`, so replaying an
//! [`TraceEvent::Enqueue`]/[`TraceEvent::Pop`] sequence with `SimTime::from_nanos(at)` in
//! place of the original instants reproduces every quantum rotation and valve decision
//! bit-for-bit. Events that involve no policy time (registration, shutdown) are stamped
//! with the recording moment for diagnostics; replay only uses their order.

use crate::config::{NosvConfig, PolicyKind};
use crate::process::ProcessId;
use crate::readyq::{PickTier, TopologyView};
use crate::task::TaskId;
use crate::topology::CoreId;
use parking_lot::Mutex;
use std::time::Instant;

/// Immutable description of the scheduler a trace was recorded from — everything the
/// replay harness needs to rebuild an equivalent policy instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// NUMA node of each core, indexed by dense core id (the full topology snapshot).
    pub core_nodes: Vec<usize>,
    /// The per-process quantum (doubling as the aging-valve window), in nanoseconds.
    pub quantum_nanos: u64,
    /// Diagnostic name of the installed policy (`"sched_coop"` for replayable traces;
    /// replay itself keys only on `core_nodes`).
    pub policy: String,
}

impl TraceMeta {
    /// Snapshot the scheduling-relevant parameters of a configuration.
    pub fn from_config(config: &NosvConfig) -> Self {
        let topo = &config.topology;
        TraceMeta {
            core_nodes: (0..topo.num_cores()).map(|c| topo.node_of(c)).collect(),
            quantum_nanos: config.process_quantum.as_nanos() as u64,
            policy: match &config.policy {
                PolicyKind::Coop => "sched_coop".to_string(),
                PolicyKind::Fifo => "fifo".to_string(),
                PolicyKind::Custom(_) => "custom".to_string(),
            },
        }
    }

    /// Number of cores in the recorded topology.
    pub fn cores(&self) -> usize {
        self.core_nodes.len()
    }
}

impl TopologyView for TraceMeta {
    fn view_cores(&self) -> usize {
        self.core_nodes.len()
    }

    fn view_node_of(&self, core: CoreId) -> usize {
        self.core_nodes[core]
    }
}

/// One recorded scheduling decision.
///
/// The variants that mutate policy state (`RegisterProcess`, `DeregisterProcess`,
/// `SetDomain`, `Enqueue`, `Pop`) form the replay script; the rest (`Submit`,
/// `IntakeDrain`, `Grant`, `Yield`, `Migrate`, `FaultInjected`, `Shutdown`) are
/// scheduler-level context the replay harness checks for consistency (every non-immediate
/// grant must follow its pop) and the fuzzer uses as choice points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A process domain was registered with the scheduler (and the policy).
    RegisterProcess {
        /// The new process id.
        process: ProcessId,
    },
    /// A process domain was deregistered; its queued entries were dropped.
    DeregisterProcess {
        /// The removed process id.
        process: ProcessId,
    },
    /// A placement domain was applied to a process (already filtered to in-range cores;
    /// `None` clears the restriction).
    SetDomain {
        /// The affected process.
        process: ProcessId,
        /// The cores the process is now restricted to, or `None` for unrestricted.
        cores: Option<Vec<CoreId>>,
    },
    /// A task entered its shard's submit intake (no scheduler lock taken).
    Submit {
        /// Owning process.
        process: ProcessId,
        /// The submitted task.
        task: TaskId,
    },
    /// A shard's intake was drained at a scheduling point.
    IntakeDrain {
        /// Number of entries absorbed (in submission order).
        n: usize,
    },
    /// A ready task was handed to the policy's queues.
    Enqueue {
        /// Owning process.
        process: ProcessId,
        /// The queued task.
        task: TaskId,
        /// The preference it was queued with (its last core, if any).
        preferred: Option<CoreId>,
    },
    /// The policy served a task to an idle core. Recorded for *every* pop, including pops
    /// of stale entries (tasks detached while queued) — the replayed queues contain the
    /// same entries, so the replay must reproduce stale pops too.
    Pop {
        /// The core that was offered the task.
        core: CoreId,
        /// Which tier of the tiered pop served it (`None` for tier-less policies).
        tier: Option<PickTier>,
        /// The served task.
        task: TaskId,
    },
    /// The policy was offered an idle core and served nothing. Recorded because an empty
    /// pick is *not* a no-op: probing the queues re-arms the anti-starvation valve
    /// (`next_valve_at` moves even when no entry is aged), so a replay that skipped empty
    /// picks would fire the valve at different steps than the recorded run.
    PopEmpty {
        /// The core that went unserved.
        core: CoreId,
    },
    /// A task was granted a core (it transitions to running there).
    Grant {
        /// The granted task.
        task: TaskId,
        /// The core it now occupies.
        core: CoreId,
        /// Whether this was an immediate idle-core grant that bypassed the policy queues
        /// (no preceding [`TraceEvent::Pop`]).
        immediate: bool,
    },
    /// A running task yielded its core to another ready task.
    Yield {
        /// The yielding task.
        task: TaskId,
        /// The core it gave up (and re-queued for).
        core: CoreId,
    },
    /// A grant placed a task away from its preferred core.
    Migrate {
        /// The migrated task.
        task: TaskId,
        /// The core it preferred (where it last ran).
        from: CoreId,
        /// The core it was granted instead.
        to: CoreId,
    },
    /// An armed fault site of an installed fault plan fired inside the scheduler. Context
    /// only: the fault's *effects* (the delayed drain, the redundant submit, the widened
    /// shutdown window) appear as ordinary events in the trace, so replay ignores this
    /// marker and still reproduces the faulty run.
    FaultInjected {
        /// The site that fired.
        site: crate::faults::FaultSite,
        /// The task in whose context it fired, when one was known.
        task: Option<TaskId>,
    },
    /// The scheduler shut down; all tasks and waiters were released.
    Shutdown,
}

/// One trace entry: a logical step number (the entry's index — the total order), the
/// event's timestamp in nanoseconds since the recorder's base instant, and the event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Logical step: dense index in recording order.
    pub step: u64,
    /// Nanoseconds since the recorder's base instant; for policy-relevant events this is
    /// the exact time the policy call used (see the module documentation).
    pub at_nanos: u64,
    /// The recorded event.
    pub event: TraceEvent,
}

/// An append-only recorder of [`TraceEntry`]s, shared between the scheduler (which appends)
/// and the test/replay harness (which snapshots).
///
/// The recorder's mutex is only touched once a recorder is installed; an uninstalled
/// scheduler never reaches it.
#[derive(Debug)]
pub struct TraceRecorder {
    meta: TraceMeta,
    base: Instant,
    /// Entries in push order; each entry's `step` is its index here.
    events: Mutex<Vec<TraceEntry>>,
}

impl TraceRecorder {
    /// A fresh recorder for a scheduler described by `meta`. The base instant is captured
    /// now; every recorded timestamp is relative to it.
    pub fn new(meta: TraceMeta) -> Self {
        TraceRecorder {
            meta,
            base: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// The recorded scheduler description.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Append an event stamped with the exact instant the corresponding policy call used.
    /// Its step is its position in the recorder's push order.
    pub fn record_at(&self, at: Instant, event: TraceEvent) {
        let at_nanos = at.saturating_duration_since(self.base).as_nanos() as u64;
        let mut events = self.events.lock();
        let step = events.len() as u64;
        events.push(TraceEntry {
            step,
            at_nanos,
            event,
        });
    }

    /// Append an event that involves no policy time (stamped with the recording moment).
    pub fn record(&self, event: TraceEvent) {
        self.record_at(Instant::now(), event);
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// Clone the recorded entries (the recorder keeps recording).
    pub fn snapshot(&self) -> Vec<TraceEntry> {
        self.events.lock().clone()
    }

    /// Take the recorded entries, leaving the recorder empty. Subsequent entries restart
    /// at step 0.
    pub fn take(&self) -> Vec<TraceEntry> {
        std::mem::take(&mut *self.events.lock())
    }
}

// ---------------------------------------------------------------------------------------
// JSONL interchange
// ---------------------------------------------------------------------------------------
//
// A recorded schedule is exchanged between processes (the chaos bench records, the
// `usf_trace` bin converts to Perfetto) as JSON Lines: one meta header line, then one
// line per entry. Hand-rolled like the rest of the repo's JSON (no serde).

/// Serialize a recorded schedule as JSONL: a `{"type":"meta",...}` header line followed
/// by one flat object per [`TraceEntry`]. The inverse of [`from_jsonl`].
pub fn to_jsonl(meta: &TraceMeta, entries: &[TraceEntry]) -> String {
    let mut out = String::new();
    let nodes: Vec<String> = meta.core_nodes.iter().map(|n| n.to_string()).collect();
    out.push_str(&format!(
        "{{\"type\":\"meta\",\"core_nodes\":[{}],\"quantum_nanos\":{},\"policy\":\"{}\"}}\n",
        nodes.join(","),
        meta.quantum_nanos,
        meta.policy
    ));
    for e in entries {
        out.push_str(&entry_to_json(e));
        out.push('\n');
    }
    out
}

/// Render one entry as a flat JSON object (no trailing newline).
fn entry_to_json(e: &TraceEntry) -> String {
    let head = format!("{{\"step\":{},\"at_nanos\":{},", e.step, e.at_nanos);
    let body = match &e.event {
        TraceEvent::RegisterProcess { process } => {
            format!("\"ev\":\"register\",\"process\":{process}")
        }
        TraceEvent::DeregisterProcess { process } => {
            format!("\"ev\":\"deregister\",\"process\":{process}")
        }
        TraceEvent::SetDomain { process, cores } => match cores {
            Some(cs) => {
                let cs: Vec<String> = cs.iter().map(|c| c.to_string()).collect();
                format!(
                    "\"ev\":\"set_domain\",\"process\":{process},\"cores\":[{}]",
                    cs.join(",")
                )
            }
            None => format!("\"ev\":\"set_domain\",\"process\":{process},\"cores\":null"),
        },
        TraceEvent::Submit { process, task } => {
            format!("\"ev\":\"submit\",\"process\":{process},\"task\":{task}")
        }
        TraceEvent::IntakeDrain { n } => format!("\"ev\":\"intake_drain\",\"n\":{n}"),
        TraceEvent::Enqueue {
            process,
            task,
            preferred,
        } => match preferred {
            Some(p) => format!(
                "\"ev\":\"enqueue\",\"process\":{process},\"task\":{task},\"preferred\":{p}"
            ),
            None => format!(
                "\"ev\":\"enqueue\",\"process\":{process},\"task\":{task},\"preferred\":null"
            ),
        },
        TraceEvent::Pop { core, tier, task } => {
            let tier = match tier {
                Some(PickTier::Aged) => "\"aged\"",
                Some(PickTier::Affinity) => "\"affinity\"",
                Some(PickTier::Node) => "\"node\"",
                Some(PickTier::Remote) => "\"remote\"",
                None => "null",
            };
            format!("\"ev\":\"pop\",\"core\":{core},\"tier\":{tier},\"task\":{task}")
        }
        TraceEvent::PopEmpty { core } => format!("\"ev\":\"pop_empty\",\"core\":{core}"),
        TraceEvent::Grant {
            task,
            core,
            immediate,
        } => format!("\"ev\":\"grant\",\"task\":{task},\"core\":{core},\"immediate\":{immediate}"),
        TraceEvent::Yield { task, core } => {
            format!("\"ev\":\"yield\",\"task\":{task},\"core\":{core}")
        }
        TraceEvent::Migrate { task, from, to } => {
            format!("\"ev\":\"migrate\",\"task\":{task},\"from\":{from},\"to\":{to}")
        }
        TraceEvent::FaultInjected { site, task } => {
            let site = format!("{site:?}");
            match task {
                Some(t) => format!("\"ev\":\"fault\",\"site\":\"{site}\",\"task\":{t}"),
                None => format!("\"ev\":\"fault\",\"site\":\"{site}\",\"task\":null"),
            }
        }
        TraceEvent::Shutdown => "\"ev\":\"shutdown\"".to_string(),
    };
    format!("{head}{body}}}")
}

/// Parse a schedule serialized by [`to_jsonl`]. Returns a descriptive error naming the
/// offending line on malformed input. Unknown `ev` values are an error (a trace from a
/// newer writer should fail loudly, not silently drop events).
pub fn from_jsonl(s: &str) -> Result<(TraceMeta, Vec<TraceEntry>), String> {
    let mut meta: Option<TraceMeta> = None;
    let mut entries = Vec::new();
    for (lineno, line) in s.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let obj = jsonl::parse_object(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if obj.get_str("type") == Some("meta") {
            meta = Some(TraceMeta {
                core_nodes: obj
                    .get_array("core_nodes")
                    .ok_or_else(|| format!("line {}: meta missing core_nodes", lineno + 1))?
                    .iter()
                    .map(|&n| n as usize)
                    .collect(),
                quantum_nanos: obj
                    .get_u64("quantum_nanos")
                    .ok_or_else(|| format!("line {}: meta missing quantum_nanos", lineno + 1))?,
                policy: obj
                    .get_str("policy")
                    .ok_or_else(|| format!("line {}: meta missing policy", lineno + 1))?
                    .to_string(),
            });
            continue;
        }
        let entry = entry_from_obj(&obj).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        entries.push(entry);
    }
    let meta = meta.ok_or_else(|| "missing meta header line".to_string())?;
    Ok((meta, entries))
}

/// Decode one parsed flat object into a [`TraceEntry`].
fn entry_from_obj(obj: &jsonl::FlatObject) -> Result<TraceEntry, String> {
    let need = |k: &str| obj.get_u64(k).ok_or_else(|| format!("missing field {k:?}"));
    let proc = |k: &str| need(k).map(|v| v as crate::process::ProcessId);
    let step = need("step")?;
    let at_nanos = need("at_nanos")?;
    let ev = obj.get_str("ev").ok_or("missing field \"ev\"")?;
    let event = match ev {
        "register" => TraceEvent::RegisterProcess {
            process: proc("process")?,
        },
        "deregister" => TraceEvent::DeregisterProcess {
            process: proc("process")?,
        },
        "set_domain" => TraceEvent::SetDomain {
            process: proc("process")?,
            cores: obj
                .get_array("cores")
                .map(|cs| cs.iter().map(|&c| c as usize).collect()),
        },
        "submit" => TraceEvent::Submit {
            process: proc("process")?,
            task: need("task")?,
        },
        "intake_drain" => TraceEvent::IntakeDrain {
            n: need("n")? as usize,
        },
        "enqueue" => TraceEvent::Enqueue {
            process: proc("process")?,
            task: need("task")?,
            preferred: obj.get_u64("preferred").map(|p| p as usize),
        },
        "pop" => TraceEvent::Pop {
            core: need("core")? as usize,
            tier: match obj.get_str("tier") {
                Some("aged") => Some(PickTier::Aged),
                Some("affinity") => Some(PickTier::Affinity),
                Some("node") => Some(PickTier::Node),
                Some("remote") => Some(PickTier::Remote),
                Some(other) => return Err(format!("unknown pick tier {other:?}")),
                None => None,
            },
            task: need("task")?,
        },
        "pop_empty" => TraceEvent::PopEmpty {
            core: need("core")? as usize,
        },
        "grant" => TraceEvent::Grant {
            task: need("task")?,
            core: need("core")? as usize,
            immediate: obj.get_bool("immediate").unwrap_or(false),
        },
        "yield" => TraceEvent::Yield {
            task: need("task")?,
            core: need("core")? as usize,
        },
        "migrate" => TraceEvent::Migrate {
            task: need("task")?,
            from: need("from")? as usize,
            to: need("to")? as usize,
        },
        "fault" => TraceEvent::FaultInjected {
            site: parse_fault_site(obj.get_str("site").ok_or("fault missing site")?)?,
            task: obj.get_u64("task"),
        },
        "shutdown" => TraceEvent::Shutdown,
        other => return Err(format!("unknown event {other:?}")),
    };
    Ok(TraceEntry {
        step,
        at_nanos,
        event,
    })
}

/// Decode a `Debug`-rendered [`crate::faults::FaultSite`] name.
fn parse_fault_site(s: &str) -> Result<crate::faults::FaultSite, String> {
    crate::faults::FaultSite::ALL
        .into_iter()
        .find(|site| format!("{site:?}") == s)
        .ok_or_else(|| format!("unknown fault site {s:?}"))
}

/// A minimal flat-JSON-object line parser: string, unsigned integer, bool, null and
/// array-of-unsigned values — exactly the value shapes [`to_jsonl`] emits. Not a general
/// JSON parser (no nesting, no floats, no escapes beyond `\"` and `\\`), by design: the
/// repo carries no serde, and the trace interchange format is under our control.
pub(crate) mod jsonl {
    /// One parsed value.
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) enum Value {
        Str(String),
        U64(u64),
        Bool(bool),
        Null,
        Array(Vec<u64>),
    }

    /// A parsed flat object: ordered `(key, value)` pairs.
    #[derive(Debug)]
    pub(crate) struct FlatObject(Vec<(String, Value)>);

    impl FlatObject {
        fn get(&self, key: &str) -> Option<&Value> {
            self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
        }

        pub(crate) fn get_str(&self, key: &str) -> Option<&str> {
            match self.get(key) {
                Some(Value::Str(s)) => Some(s),
                _ => None,
            }
        }

        pub(crate) fn get_u64(&self, key: &str) -> Option<u64> {
            match self.get(key) {
                Some(Value::U64(n)) => Some(*n),
                _ => None,
            }
        }

        pub(crate) fn get_bool(&self, key: &str) -> Option<bool> {
            match self.get(key) {
                Some(Value::Bool(b)) => Some(*b),
                _ => None,
            }
        }

        pub(crate) fn get_array(&self, key: &str) -> Option<&Vec<u64>> {
            match self.get(key) {
                Some(Value::Array(a)) => Some(a),
                _ => None,
            }
        }
    }

    /// Parse one `{...}` line into a [`FlatObject`].
    pub(crate) fn parse_object(line: &str) -> Result<FlatObject, String> {
        let mut p = Parser {
            b: line.as_bytes(),
            i: 0,
        };
        p.skip_ws();
        p.expect(b'{')?;
        let mut out = Vec::new();
        p.skip_ws();
        if p.peek() == Some(b'}') {
            p.next();
            return Ok(FlatObject(out));
        }
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.value()?;
            out.push((key, value));
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
        Ok(FlatObject(out))
    }

    struct Parser<'a> {
        b: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn peek(&self) -> Option<u8> {
            self.b.get(self.i).copied()
        }

        fn next(&mut self) -> Option<u8> {
            let c = self.peek();
            if c.is_some() {
                self.i += 1;
            }
            c
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t')) {
                self.i += 1;
            }
        }

        fn expect(&mut self, c: u8) -> Result<(), String> {
            match self.next() {
                Some(got) if got == c => Ok(()),
                got => Err(format!("expected {:?}, got {got:?}", c as char)),
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.next() {
                    Some(b'"') => return Ok(out),
                    Some(b'\\') => match self.next() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        other => return Err(format!("unsupported escape {other:?}")),
                    },
                    Some(c) => out.push(c as char),
                    None => return Err("unterminated string".to_string()),
                }
            }
        }

        fn number(&mut self) -> Result<u64, String> {
            let start = self.i;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.i += 1;
            }
            if start == self.i {
                return Err("expected digits".to_string());
            }
            std::str::from_utf8(&self.b[start..self.i])
                .map_err(|e| e.to_string())?
                .parse()
                .map_err(|e| format!("bad number: {e}"))
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.peek() {
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b'0'..=b'9') => Ok(Value::U64(self.number()?)),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'n') => self.literal("null", Value::Null),
                Some(b'[') => {
                    self.i += 1;
                    let mut arr = Vec::new();
                    self.skip_ws();
                    if self.peek() == Some(b']') {
                        self.i += 1;
                        return Ok(Value::Array(arr));
                    }
                    loop {
                        self.skip_ws();
                        arr.push(self.number()?);
                        self.skip_ws();
                        match self.next() {
                            Some(b',') => continue,
                            Some(b']') => break,
                            other => return Err(format!("expected ',' or ']', got {other:?}")),
                        }
                    }
                    Ok(Value::Array(arr))
                }
                other => Err(format!("unexpected value start {other:?}")),
            }
        }

        fn literal(&mut self, lit: &str, value: Value) -> Result<Value, String> {
            if self.b[self.i..].starts_with(lit.as_bytes()) {
                self.i += lit.len();
                Ok(value)
            } else {
                Err(format!("expected literal {lit:?}"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn meta_snapshots_config() {
        let cfg = NosvConfig::with_topology(crate::topology::Topology::new(4, 2))
            .quantum(Duration::from_micros(50));
        let meta = TraceMeta::from_config(&cfg);
        assert_eq!(meta.core_nodes, vec![0, 0, 1, 1]);
        assert_eq!(meta.quantum_nanos, 50_000);
        assert_eq!(meta.policy, "sched_coop");
        assert_eq!(meta.cores(), 4);
        assert_eq!(meta.view_node_of(3), 1);
    }

    #[test]
    fn recorder_orders_and_stamps_entries() {
        let rec = TraceRecorder::new(TraceMeta::from_config(&NosvConfig::with_cores(2)));
        let base = Instant::now();
        rec.record_at(base + Duration::from_nanos(10), TraceEvent::Shutdown);
        rec.record(TraceEvent::IntakeDrain { n: 3 });
        let events = rec.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].step, 0);
        assert_eq!(events[1].step, 1);
        assert_eq!(events[0].event, TraceEvent::Shutdown);
        assert!(!rec.is_empty());
        assert_eq!(rec.take().len(), 2);
        assert!(rec.is_empty());
        rec.record(TraceEvent::Shutdown);
        assert_eq!(rec.snapshot()[0].step, 0, "steps restart after take()");
    }

    #[test]
    fn concurrent_records_get_dense_steps_in_each_threads_order() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 1_000;
        let rec = TraceRecorder::new(TraceMeta::from_config(&NosvConfig::with_cores(4)));
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let rec = &rec;
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        rec.record(TraceEvent::Submit {
                            process: t as crate::process::ProcessId,
                            task: i as TaskId,
                        });
                    }
                });
            }
        });
        let entries = rec.snapshot();
        assert_eq!(entries.len(), THREADS * PER_THREAD, "no entry lost");
        let mut next = [0 as TaskId; THREADS];
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.step, i as u64, "steps are dense push indices");
            let TraceEvent::Submit { process, task } = e.event else {
                panic!("unexpected event {:?}", e.event);
            };
            let t = process as usize;
            assert_eq!(task, next[t], "thread {t}'s entries keep its program order");
            next[t] += 1;
        }
        assert_eq!(next, [PER_THREAD as TaskId; THREADS]);
    }

    #[test]
    fn timestamps_before_base_saturate_to_zero() {
        let rec = TraceRecorder::new(TraceMeta::from_config(&NosvConfig::with_cores(1)));
        let past = Instant::now() - Duration::from_secs(1);
        rec.record_at(past, TraceEvent::Shutdown);
        assert_eq!(rec.snapshot()[0].at_nanos, 0);
    }

    #[test]
    fn jsonl_round_trips_every_variant() {
        let meta = TraceMeta {
            core_nodes: vec![0, 0, 1, 1],
            quantum_nanos: 20_000_000,
            policy: "sched_coop".to_string(),
        };
        let events = vec![
            TraceEvent::RegisterProcess { process: 1 },
            TraceEvent::SetDomain {
                process: 1,
                cores: Some(vec![0, 2]),
            },
            TraceEvent::SetDomain {
                process: 1,
                cores: None,
            },
            TraceEvent::Submit {
                process: 1,
                task: 7,
            },
            TraceEvent::IntakeDrain { n: 1 },
            TraceEvent::Enqueue {
                process: 1,
                task: 7,
                preferred: Some(2),
            },
            TraceEvent::Enqueue {
                process: 1,
                task: 8,
                preferred: None,
            },
            TraceEvent::Pop {
                core: 2,
                tier: Some(PickTier::Affinity),
                task: 7,
            },
            TraceEvent::Pop {
                core: 3,
                tier: None,
                task: 8,
            },
            TraceEvent::PopEmpty { core: 0 },
            TraceEvent::Grant {
                task: 7,
                core: 2,
                immediate: false,
            },
            TraceEvent::Yield { task: 7, core: 2 },
            TraceEvent::Migrate {
                task: 8,
                from: 2,
                to: 3,
            },
            TraceEvent::FaultInjected {
                site: crate::faults::FaultSite::WorkerStall,
                task: Some(7),
            },
            TraceEvent::FaultInjected {
                site: crate::faults::FaultSite::ShutdownRace,
                task: None,
            },
            TraceEvent::DeregisterProcess { process: 1 },
            TraceEvent::Shutdown,
        ];
        let entries: Vec<TraceEntry> = events
            .into_iter()
            .enumerate()
            .map(|(i, event)| TraceEntry {
                step: i as u64,
                at_nanos: i as u64 * 1000,
                event,
            })
            .collect();
        let text = to_jsonl(&meta, &entries);
        let (meta2, entries2) = from_jsonl(&text).expect("round trip parses");
        assert_eq!(meta2, meta);
        assert_eq!(entries2, entries);
    }

    #[test]
    fn jsonl_rejects_malformed_input() {
        assert!(from_jsonl("").unwrap_err().contains("missing meta"));
        let meta_line =
            "{\"type\":\"meta\",\"core_nodes\":[0],\"quantum_nanos\":1,\"policy\":\"p\"}\n";
        let bad_ev = format!("{meta_line}{{\"step\":0,\"at_nanos\":0,\"ev\":\"warp\"}}\n");
        assert!(from_jsonl(&bad_ev).unwrap_err().contains("unknown event"));
        let bad_json = format!("{meta_line}{{\"step\":0,,}}\n");
        assert!(from_jsonl(&bad_json).unwrap_err().starts_with("line 2"));
        let bad_site =
            format!("{meta_line}{{\"step\":0,\"at_nanos\":0,\"ev\":\"fault\",\"site\":\"X\",\"task\":null}}\n");
        assert!(from_jsonl(&bad_site).unwrap_err().contains("fault site"));
    }
}
