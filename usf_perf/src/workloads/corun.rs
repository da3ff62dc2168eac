//! `corun_service_batch` — the multi-process case (§5.5): a latency-bound service and an
//! elastic batch job as two process domains of one instance.
//!
//! Open loop: a seeded Poisson generator sends 200 requests/s whatever the replies do, and
//! every request is timed from the instant it was *due*. The batch tenant runs imbalanced
//! fork-join steps back to back and yields every 4096 iterations. The per-process pick,
//! the quantum and fork→join set the numbers; sync primitives and BLAS idle. The service
//! needs ~4 % of the capacity, so the latency limit is about scheduling, not load.

use super::{Env, Window, Workload, NO_UNIT};
use crate::kernel::{kernel, kernel_yielding, mix, Rng};
use crate::trace::{span, Layer};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use usf_core::exec::{ExecJoinHandle, ExecMode};
use usf_core::sync::{unbounded, Receiver, Sender};
use usf_core::timing;
use usf_runtimes::{Team, TeamConfig, WaitPolicy};

const RATE_PER_S: f64 = 200.0;
const SERVERS: usize = 2;
const SERVICE_TEAM: usize = 2;
const REQUEST_ITERS: u64 = 100_000;
/// Distinct request payloads; their checksums are computed serially at set-up.
const PAYLOADS: usize = 16;
/// The latency limit on the service's p99, and how long after the window a reply may
/// still arrive before its request counts as failed.
pub const LATENCY_LIMIT_MS: f64 = 10.0;
const GRACE: Duration = Duration::from_secs(1);

const BATCH_TEAM: usize = 4;
const HEAVY_ITERS: u64 = 800_000;
const LIGHT_ITERS: u64 = 100_000;
const YIELD_EVERY: u64 = 4096;
/// Tag on the `unit_id` of batch steps, which would otherwise collide with request ids.
const BATCH_UNIT: u64 = 1 << 62;

#[derive(Debug, Clone, Copy)]
struct Request {
    id: u64,
    due: Instant,
    payload: usize,
}

#[derive(Debug, Clone, Copy)]
struct Reply {
    due: Instant,
    done: Instant,
    payload: usize,
    checksum: u64,
}

/// What the service threads leave for the driver. Plain `std` mutexes: each is held for a
/// push or a scan, never across a scheduling point.
#[derive(Default)]
struct Board {
    stop: AtomicBool,
    /// `(due, how late it was sent in µs)` per request sent.
    sent: Mutex<Vec<(Instant, f64)>>,
    replies: Mutex<Vec<Reply>>,
}

fn request_checksum(seed: u64) -> u64 {
    (0..SERVICE_TEAM as u64).fold(0, |acc, part| {
        acc.rotate_left(1) ^ kernel(REQUEST_ITERS, seed ^ part)
    })
}

/// The open-loop generator: sleeps to each due time, sends, never waits for a reply.
fn generator(seed: u64, tx: Sender<Request>, board: Arc<Board>) {
    let mut rng = Rng::new(mix(seed, 0x6E4));
    let start = Instant::now();
    let mut due_ns = 0u64;
    for id in 0.. {
        due_ns += rng.exp_gap_ns(RATE_PER_S);
        let due = start + Duration::from_nanos(due_ns);
        let wait = due.saturating_duration_since(Instant::now());
        if !wait.is_zero() {
            span("timing::sleep", Layer::Core, id, || timing::sleep(wait));
        }
        if board.stop.load(Ordering::Acquire) {
            return;
        }
        let lag_us = due.elapsed().as_secs_f64() * 1e6;
        board.sent.lock().expect("board lock").push((due, lag_us));
        let request = Request {
            id,
            due,
            payload: (rng.next_u64() % PAYLOADS as u64) as usize,
        };
        if span("Sender::send", Layer::Core, id, || tx.send(request)).is_err() {
            return;
        }
    }
}

/// One server thread with its own fork-join team.
fn server(rx: Receiver<Request>, exec: ExecMode, payload_seeds: Vec<u64>, board: Arc<Board>) {
    let team = Team::new(
        TeamConfig::new(SERVICE_TEAM, exec)
            .wait_policy(WaitPolicy::Passive)
            .name("service-team"),
    );
    let parts: [AtomicU64; SERVICE_TEAM] = std::array::from_fn(|_| AtomicU64::new(0));
    while let Ok(request) = span("Receiver::recv", Layer::Core, NO_UNIT, || rx.recv()) {
        let seed = payload_seeds[request.payload];
        span("Team::parallel", Layer::Runtimes, request.id, || {
            team.parallel(SERVICE_TEAM, |ctx| {
                let part = ctx.thread_num();
                let out = span("kernel", Layer::Bench, request.id, || {
                    kernel(REQUEST_ITERS, seed ^ part as u64)
                });
                parts[part].store(out, Ordering::Relaxed);
            })
        });
        let checksum = parts.iter().fold(0u64, |acc, p| {
            acc.rotate_left(1) ^ p.load(Ordering::Relaxed)
        });
        board.replies.lock().expect("board lock").push(Reply {
            due: request.due,
            done: Instant::now(),
            payload: request.payload,
            checksum,
        });
    }
}

/// The verdict on the requests due in one measured interval.
#[derive(Debug, Default, PartialEq)]
pub struct ServiceVerdict {
    pub sent: u64,
    /// Requests not answered, or answered with the wrong checksum.
    pub failed: u64,
    /// Requests still unanswered at the close of the interval.
    pub backlog: u64,
    pub slo_misses: u64,
    pub lat_ms: Vec<f64>,
}

/// Judge the requests due in `[start, end)`: `due` lists them, `replies` holds
/// `(due, done, checksum ok)` for the ones answered so far.
pub fn judge_service(
    due: &[Instant],
    replies: &[(Instant, Instant, bool)],
    start: Instant,
    end: Instant,
) -> ServiceVerdict {
    let in_window = |t: &Instant| *t >= start && *t < end;
    let sent = due.iter().filter(|d| in_window(d)).count() as u64;
    let mine: Vec<_> = replies.iter().filter(|r| in_window(&r.0)).collect();
    let answered_by_close = mine.iter().filter(|r| r.1 <= end).count() as u64;
    let mut v = ServiceVerdict {
        sent,
        backlog: sent.saturating_sub(answered_by_close),
        ..ServiceVerdict::default()
    };
    for &&(due, done, checksum_ok) in &mine {
        if checksum_ok {
            let ms = (done - due).as_secs_f64() * 1e3;
            v.slo_misses += u64::from(ms > LATENCY_LIMIT_MS);
            v.lat_ms.push(ms);
        }
    }
    v.failed = sent.saturating_sub(v.lat_ms.len() as u64);
    v.slo_misses += v.failed;
    v
}

pub struct Corun {
    board: Arc<Board>,
    service: Vec<ExecJoinHandle<()>>,
    payload_checksums: Vec<u64>,
    team: Team,
    step_seeds: [u64; BATCH_TEAM],
    /// Serial checksum of a step, by which thread carries the heavy part.
    step_checksums: [u64; BATCH_TEAM],
    parts: [AtomicU64; BATCH_TEAM],
    steps: u64,
}

fn step_iters(thread: usize, heavy: usize) -> u64 {
    if thread == heavy {
        HEAVY_ITERS
    } else {
        LIGHT_ITERS
    }
}

fn fold_step(parts: impl Iterator<Item = u64>) -> u64 {
    parts.fold(0, |acc, p| acc.rotate_left(1) ^ p)
}

impl Corun {
    /// One 8:1 imbalanced fork-join step of the batch tenant; the heavy part rotates.
    fn step(&mut self) -> bool {
        let heavy = (self.steps % BATCH_TEAM as u64) as usize;
        let unit = BATCH_UNIT | self.steps;
        let (seeds, parts) = (&self.step_seeds, &self.parts);
        span("Team::parallel", Layer::Runtimes, unit, || {
            self.team.parallel(BATCH_TEAM, |ctx| {
                let t = ctx.thread_num();
                let out = span("kernel", Layer::Bench, unit, || {
                    kernel_yielding(step_iters(t, heavy), seeds[t], YIELD_EVERY, unit)
                });
                parts[t].store(out, Ordering::Relaxed);
            })
        });
        self.steps += 1;
        fold_step(self.parts.iter().map(|p| p.load(Ordering::Relaxed)))
            == self.step_checksums[heavy]
    }

    fn judge(&self, start: Instant, end: Instant) -> ServiceVerdict {
        let due: Vec<Instant> = self
            .board
            .sent
            .lock()
            .expect("board lock")
            .iter()
            .map(|s| s.0)
            .collect();
        let replies: Vec<_> = self
            .board
            .replies
            .lock()
            .expect("board lock")
            .iter()
            .map(|r| {
                (
                    r.due,
                    r.done,
                    r.checksum == self.payload_checksums[r.payload],
                )
            })
            .collect();
        judge_service(&due, &replies, start, end)
    }
}

impl Workload for Corun {
    const NAME: &'static str = "corun_service_batch";

    fn setup(env: &Env, w: &mut Window) -> Self {
        let payload_seeds: Vec<u64> = (0..PAYLOADS as u64)
            .map(|i| mix(env.seed, 0x9A7 + i))
            .collect();
        let payload_checksums = payload_seeds.iter().map(|&s| request_checksum(s)).collect();
        let step_seeds: [u64; BATCH_TEAM] =
            std::array::from_fn(|t| mix(env.seed, 0xBA7 + t as u64));
        let step_checksums = std::array::from_fn(|heavy| {
            fold_step((0..BATCH_TEAM).map(|t| kernel(step_iters(t, heavy), step_seeds[t])))
        });

        let board = Arc::new(Board::default());
        let service_domain = env.domain("service");
        let (tx, rx) = unbounded();
        let mut service = Vec::new();
        for i in 0..SERVERS {
            let (rx, exec, seeds, board) = (
                rx.clone(),
                service_domain.clone(),
                payload_seeds.clone(),
                Arc::clone(&board),
            );
            service.push(Env::spawn(
                &service_domain,
                format!("server-{i}"),
                move || server(rx, exec, seeds, board),
            ));
        }
        let (seed, gen_board) = (env.seed, Arc::clone(&board));
        service.push(Env::spawn(&service_domain, "generator".into(), move || {
            generator(seed, tx, gen_board)
        }));

        let team = Team::new(
            TeamConfig::new(BATCH_TEAM, env.main.clone())
                .wait_policy(WaitPolicy::Passive)
                .name("batch-team"),
        );
        let mut this = Corun {
            board,
            service,
            payload_checksums,
            team,
            step_seeds,
            step_checksums,
            parts: std::array::from_fn(|_| AtomicU64::new(0)),
            steps: 0,
        };
        let ok = this.step();
        w.unit(ok);
        this
    }

    fn run_until(&mut self, deadline: Instant, w: &mut Window) {
        while Instant::now() < deadline {
            let ok = self.step();
            w.unit(ok);
        }
        let end = w.close();
        // The batch tenant is quiet now; give requests due inside the window a bounded
        // time to be answered.
        let mut verdict = self.judge(w.start, end);
        while verdict.failed > 0 && end.elapsed() < GRACE {
            timing::sleep(Duration::from_millis(1));
            verdict = self.judge(w.start, end);
        }
        w.attempted += verdict.sent;
        w.requests += verdict.sent;
        w.failed += verdict.failed;
        w.slo_misses += verdict.slo_misses;
        w.backlog = verdict.backlog;
        w.lat_ms.extend(verdict.lat_ms);
        let sent = self.board.sent.lock().expect("board lock");
        w.gen_lag_us.extend(
            sent.iter()
                .filter(|(due, _)| *due >= w.start && *due < end)
                .map(|&(_, lag)| lag),
        );
    }

    fn finish(self, w: &mut Window) {
        self.board.stop.store(true, Ordering::Release);
        // The generator drops the only sender on its way out, which ends the servers once
        // the queue is empty.
        for handle in self.service {
            if handle.join().is_err() {
                w.failed += 1;
            }
        }
    }

    fn serial_units(seed: u64) {
        for t in 0..BATCH_TEAM {
            kernel(step_iters(t, 0), mix(seed, 0xBA7 + t as u64));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(base: Instant, ms: u64) -> Instant {
        base + Duration::from_millis(ms)
    }

    #[test]
    fn a_dropped_or_corrupted_request_is_failed() {
        let t = Instant::now();
        let due = [at(t, 10), at(t, 20), at(t, 30), at(t, 2000)];
        let (start, end) = (t, at(t, 1000));
        let all = [
            (due[0], at(t, 11), true),
            (due[1], at(t, 22), true),
            (due[2], at(t, 33), true),
        ];
        let v = judge_service(&due, &all, start, end);
        assert_eq!((v.sent, v.failed, v.slo_misses), (3, 0, 0));
        assert_eq!(v.lat_ms.len(), 3);
        // The third reply never comes.
        let v = judge_service(&due, &all[..2], start, end);
        assert_eq!((v.sent, v.failed, v.slo_misses), (3, 1, 1));
        // The second reply has the wrong checksum.
        let mut corrupted = all;
        corrupted[1].2 = false;
        let v = judge_service(&due, &corrupted, start, end);
        assert_eq!((v.failed, v.lat_ms.len()), (1, 2));
    }

    #[test]
    fn a_slow_reply_misses_the_limit_and_a_late_one_is_backlog() {
        let t = Instant::now();
        let due: Vec<Instant> = (0..200).map(|i| at(t, i)).collect();
        let (start, end) = (t, at(t, 1000));
        let mut replies: Vec<_> = due
            .iter()
            .map(|&d| (d, d + Duration::from_millis(1), true))
            .collect();
        replies[5].1 = due[5] + Duration::from_millis(11);
        let v = judge_service(&due, &replies, start, end);
        assert_eq!((v.failed, v.slo_misses, v.backlog), (0, 1, 0));
        // Answered, but only after the close.
        replies[0].1 = at(t, 1001);
        replies[1].1 = at(t, 1002);
        let v = judge_service(&due, &replies, start, end);
        assert_eq!((v.failed, v.backlog), (0, 2));
    }
}
