//! Wake-churn regression tests: pin the scheduler's wake-path behaviour under rapid
//! pause/submit cycles and concurrent wakers.
//!
//! The submit intake moved *where* submits are absorbed — from the submitter, under a
//! scheduler lock, to whichever core reaches the next scheduling point — and these tests
//! pin what must not change with it:
//!
//! * grant ordering stays FIFO for same-preference tasks submitted in sequence, and per
//!   producer when several threads submit at once;
//! * no wake-up is ever lost under concurrent wakers — a paused task resubmitted by
//!   another thread is granted exactly once per cycle (`grants == cycles + 1`,
//!   `blocks == cycles`), with no pause elided by a stale pending wake-up;
//! * no single grant hand-off (waker's submit → woken worker running) exceeds a
//!   generous no-fault bound — the convoy regression pin: grant-slot notifications
//!   fire only after the scheduler lock drops, so a woken worker never contends with
//!   its waker;
//! * a submit racing all workers into park is still granted promptly — idle workers
//!   drain the intake before parking, featurelessly (not just the fault-armed
//!   `rescue_drain` watchdog);
//! * a `kill_process` racing yields never leaves two tasks running on one core;
//! * all gauges reconcile to zero when the churn stops.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use usf_nosv::prelude::*;
use usf_nosv::scheduler::Scheduler;
use usf_nosv::task::TaskState;

fn sched(cores: usize) -> Arc<Scheduler> {
    Arc::new(Scheduler::new(NosvConfig::with_cores(cores)))
}

/// Same-preference tasks submitted back-to-back on one core are granted in submit order.
#[test]
fn grant_order_is_fifo_on_one_core() {
    let s = sched(1);
    let p = s.register_process("p");
    let tasks: Vec<_> = (0..5).map(|_| s.create_task(p, None).unwrap()).collect();
    for t in &tasks {
        s.submit(t);
    }
    // tasks[0] runs; detaching the running task must hand the core to the next in
    // submission order, every time.
    assert_eq!(tasks[0].state(), TaskState::Running);
    for i in 0..4 {
        s.detach(&tasks[i]);
        assert_eq!(
            tasks[i + 1].state(),
            TaskState::Running,
            "task {} must be granted when task {} detaches",
            i + 1,
            i
        );
        for later in &tasks[i + 2..] {
            assert_eq!(later.state(), TaskState::Ready, "FIFO order violated");
        }
    }
    s.detach(&tasks[4]);
    assert_eq!(s.busy_cores(), 0);
    assert_eq!(s.ready_count(), 0);
}

/// Per-producer FIFO under concurrent submits: 4 threads each submit 50 fresh tasks to a
/// one-core scheduler whose core is held. The intake interleaves the producers in lock
/// order, but each producer's tasks must be granted in its own submit order, and every
/// task exactly once.
#[test]
fn concurrent_producers_are_granted_in_their_submit_order() {
    const PRODUCERS: usize = 4;
    const PER_PRODUCER: usize = 50;
    let s = sched(1);
    let p = s.register_process("p");
    let holder = s.create_task(p, None).unwrap();
    s.submit(&holder);
    let start = Arc::new(std::sync::Barrier::new(PRODUCERS));
    let producers: Vec<Vec<TaskRef>> = (0..PRODUCERS)
        .map(|_| {
            let (s, start) = (Arc::clone(&s), Arc::clone(&start));
            std::thread::spawn(move || {
                let tasks: Vec<_> = (0..PER_PRODUCER)
                    .map(|_| s.create_task(p, None).unwrap())
                    .collect();
                start.wait();
                for t in &tasks {
                    s.submit(t);
                }
                tasks
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().unwrap())
        .collect();
    assert_eq!(s.ready_count(), PRODUCERS * PER_PRODUCER);

    // Detach whichever task holds the core until none does, recording the grant order.
    let all: Vec<&TaskRef> = producers.iter().flatten().collect();
    let mut granted: Vec<u64> = Vec::new();
    let mut running = holder;
    loop {
        s.detach(&running);
        let on_core: Vec<_> = all
            .iter()
            .filter(|t| t.state() == TaskState::Running)
            .collect();
        assert!(
            on_core.len() <= 1,
            "{} tasks Running on one core",
            on_core.len()
        );
        let Some(next) = on_core.first() else {
            break;
        };
        granted.push(next.id());
        running = TaskRef::clone(next);
    }

    assert_eq!(
        granted.len(),
        PRODUCERS * PER_PRODUCER,
        "every task granted"
    );
    for t in &all {
        assert_eq!(t.stats.grants.load(Ordering::SeqCst), 1, "task {}", t.id());
    }
    let position = |id: u64| granted.iter().position(|&g| g == id).unwrap();
    for (i, tasks) in producers.iter().enumerate() {
        let order: Vec<usize> = tasks.iter().map(|t| position(t.id())).collect();
        assert!(
            order.windows(2).all(|w| w[0] < w[1]),
            "producer {i}'s tasks were granted out of submit order: {order:?}"
        );
    }
    assert_eq!(s.busy_cores(), 0);
    assert_eq!(s.ready_count(), 0);
    assert_eq!(s.live_tasks(), 0);
}

/// Concurrent wake churn: 4 workers pause N times each on 2 cores while dedicated waker
/// threads resubmit them. Every cycle must produce exactly one block and one grant.
#[test]
fn concurrent_wake_churn_loses_no_wakeups() {
    const WORKERS: usize = 4;
    const CYCLES: usize = 200;
    let s = sched(2);
    let p = s.register_process("p");

    let mut handles = Vec::new();
    for _ in 0..WORKERS {
        let task = s.create_task(p, None).unwrap();
        let worker = {
            let s = Arc::clone(&s);
            let task = task.clone();
            std::thread::spawn(move || {
                s.attach(&task);
                for _ in 0..CYCLES {
                    s.pause(&task);
                }
                s.detach(&task);
            })
        };
        let waker = {
            let s = Arc::clone(&s);
            let task = task.clone();
            std::thread::spawn(move || {
                // Resubmit after each observed block until the worker's cycles are done.
                // A submit while the task still runs is counted as a pending wake-up and
                // would elide a pause — waiting for Blocked keeps the accounting exact.
                let mut woken = 0;
                while woken < CYCLES {
                    if task.state() == TaskState::Blocked {
                        s.submit(&task);
                        woken += 1;
                    } else {
                        std::thread::yield_now();
                    }
                    if task.state() == TaskState::Finished {
                        break;
                    }
                }
            })
        };
        handles.push((task, worker, waker));
    }

    for (task, worker, waker) in handles {
        worker.join().unwrap();
        waker.join().unwrap();
        let grants = task.stats.grants.load(Ordering::SeqCst);
        let blocks = task.stats.blocks.load(Ordering::SeqCst);
        assert_eq!(
            grants,
            (CYCLES + 1) as u64,
            "every wake must produce exactly one grant (attach + one per cycle)"
        );
        assert_eq!(blocks, CYCLES as u64, "every pause must block exactly once");
    }

    let m = s.stats().counters();
    assert_eq!(
        m.pauses_elided, 0,
        "wakers only fire on Blocked, so no pause may consume a pending wake-up"
    );
    assert_eq!(s.busy_cores(), 0);
    assert_eq!(s.ready_count(), 0);
    assert_eq!(s.live_tasks(), 0);
}

/// The convoy pin: across rapid pause/submit cycles, the worst single grant hand-off —
/// from the waker's submit of a blocked task to the woken worker returning from pause —
/// stays under a bound generous enough to never flake fault-free, but far below the
/// ~119ms wake p99 the convoy produced (a woken worker immediately blocking on the
/// scheduler lock its waker still held).
#[test]
fn grant_handoff_stays_bounded() {
    const CYCLES: usize = 200;
    const BOUND: Duration = Duration::from_millis(500);
    let s = sched(1);
    let p = s.register_process("p");
    let task = s.create_task(p, None).unwrap();
    let wake_times: Arc<std::sync::Mutex<Vec<Instant>>> = Arc::default();

    let worker = {
        let s = Arc::clone(&s);
        let task = task.clone();
        let wake_times = Arc::clone(&wake_times);
        std::thread::spawn(move || {
            s.attach(&task);
            for _ in 0..CYCLES {
                s.pause(&task);
                wake_times.lock().unwrap().push(Instant::now());
            }
            s.detach(&task);
        })
    };

    // The waker only fires on an observed block, so submit `i` wakes pause `i` exactly:
    // the two timestamp vectors pair up index-for-index.
    let mut submit_times = Vec::with_capacity(CYCLES);
    while submit_times.len() < CYCLES {
        if task.state() == TaskState::Blocked {
            submit_times.push(Instant::now());
            s.submit(&task);
            // Wait for the wake to be observed before looking for the next block, so a
            // fast worker can never pair this submit with a later cycle.
            while wake_times.lock().unwrap().len() < submit_times.len() {
                std::thread::yield_now();
            }
        } else {
            std::thread::yield_now();
        }
    }
    worker.join().unwrap();

    let wakes = wake_times.lock().unwrap();
    let worst = submit_times
        .iter()
        .zip(wakes.iter())
        .map(|(s, w)| w.duration_since(*s))
        .max()
        .unwrap();
    assert!(
        worst < BOUND,
        "worst grant hand-off {worst:?} exceeds the no-fault bound {BOUND:?}"
    );
    assert_eq!(s.busy_cores(), 0);
    assert_eq!(s.live_tasks(), 0);
}

/// A submit taking the intake path while the only worker is heading into park
/// must still be granted promptly: the parking worker drains the intake before blocking.
/// Before that pre-park drain, the entry sat until the next organic scheduling point
/// (tens of milliseconds under churn; with no further traffic, indefinitely unless the
/// fault-armed `rescue_drain` watchdog happened to be on).
#[test]
fn submit_to_fully_parked_scheduler_is_granted_promptly() {
    let s = sched(1);
    let p = s.register_process("p");
    let runner = s.create_task(p, None).unwrap();
    let go = Arc::new(AtomicBool::new(false));

    let worker = {
        let s = Arc::clone(&s);
        let runner = runner.clone();
        let go = Arc::clone(&go);
        std::thread::spawn(move || {
            s.attach(&runner);
            while !go.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            s.pause(&runner); // parks the last worker: the scheduler is now fully parked
            s.detach(&runner);
        })
    };
    while runner.state() != TaskState::Running {
        std::thread::yield_now();
    }

    // The single core is busy, so this submit takes the intake fast path and queues in
    // the intake — it cannot be granted until someone drains it.
    let t = s.create_task(p, None).unwrap();
    s.submit(&t);
    let t0 = Instant::now();
    go.store(true, Ordering::SeqCst);

    // The worker now pauses. Draining the intake on its way into park must hand the
    // freed core to the queued task promptly — not at some later scheduling point.
    while t.state() != TaskState::Running {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "intake entry stranded while the scheduler is parked (state {:?})",
            t.state()
        );
        std::thread::yield_now();
    }

    s.detach(&t); // free the core
    s.submit(&runner); // wake the parked worker so it can detach
    worker.join().unwrap();
    assert_eq!(s.busy_cores(), 0);
    assert_eq!(s.ready_count(), 0);
    assert_eq!(s.live_tasks(), 0);
}

/// Wake-ups of blocked tasks are served FIFO: with the only core held by a runner, tasks
/// woken in a given order must be granted in that order once the core frees up — in both
/// wake orders.
#[test]
fn wakeups_are_granted_in_submission_order() {
    for reversed in [false, true] {
        let s = sched(1);
        let p = s.register_process("p");
        let order: Arc<std::sync::Mutex<Vec<u64>>> = Arc::default();

        // Park two tasks in the Blocked state, one after the other (each runs briefly on
        // the idle core, then pauses and releases it).
        let mut parked = Vec::new();
        for _ in 0..2 {
            let t = s.create_task(p, None).unwrap();
            let h = {
                let s = Arc::clone(&s);
                let t = t.clone();
                let order = Arc::clone(&order);
                std::thread::spawn(move || {
                    s.attach(&t);
                    s.pause(&t); // returns when woken and granted again
                    order.lock().unwrap().push(t.id());
                    s.detach(&t);
                })
            };
            while t.state() != TaskState::Blocked {
                std::thread::yield_now();
            }
            parked.push((t, h));
        }

        // Occupy the core so the wake-ups below queue up instead of being granted.
        let runner = s.create_task(p, None).unwrap();
        s.submit(&runner);
        assert_eq!(runner.state(), TaskState::Running);

        let (first, second) = if reversed {
            (parked[1].0.clone(), parked[0].0.clone())
        } else {
            (parked[0].0.clone(), parked[1].0.clone())
        };
        s.submit(&first);
        s.submit(&second);
        // Freeing the core must grant the wake-ups in wake order, whichever it was.
        s.detach(&runner);
        for (_, h) in parked {
            h.join().unwrap();
        }

        assert_eq!(
            *order.lock().unwrap(),
            vec![first.id(), second.id()],
            "wake-ups must be granted in wake order (reversed = {reversed})"
        );
        assert_eq!(s.busy_cores(), 0);
        assert_eq!(s.ready_count(), 0);
        assert_eq!(s.live_tasks(), 0);
    }
}

/// Per-node-lock sentinel: once workers are attached, a steady-state pause/submit churn
/// window on a 2-node topology is entirely shard-local — the global section (process/task tables) is not
/// acquired even once. This is the structural guarantee behind the per-node scaling:
/// same-node scheduling points touch only their shard's dispatch lock.
#[test]
fn steady_state_churn_takes_no_global_section() {
    const CYCLES: usize = 200;
    let s = Arc::new(Scheduler::new(NosvConfig::with_topology(
        usf_nosv::Topology::new(2, 2),
    )));
    let p = s.register_process("p");
    let task = s.create_task(p, None).unwrap();

    let in_window = Arc::new(AtomicBool::new(false));
    let window_global: Arc<std::sync::Mutex<Option<(u64, u64)>>> = Arc::default();
    let worker = {
        let s = Arc::clone(&s);
        let task = task.clone();
        let in_window = Arc::clone(&in_window);
        let window_global = Arc::clone(&window_global);
        std::thread::spawn(move || {
            s.attach(&task);
            // Attach (task-table write) is done: open the measurement window.
            let before = s.stats().counters().global_lock_acquisitions;
            in_window.store(true, Ordering::SeqCst);
            for _ in 0..CYCLES {
                s.pause(&task);
            }
            let after = s.stats().counters().global_lock_acquisitions;
            in_window.store(false, Ordering::SeqCst);
            *window_global.lock().unwrap() = Some((before, after));
            s.detach(&task);
        })
    };
    let mut woken = 0;
    while woken < CYCLES {
        if task.state() == TaskState::Blocked {
            s.submit(&task);
            woken += 1;
        } else {
            std::thread::yield_now();
        }
    }
    worker.join().unwrap();

    let (before, after) = window_global.lock().unwrap().expect("window not recorded");
    assert_eq!(
        after - before,
        0,
        "steady-state churn must not touch the global section \
         ({} acquisitions inside the window)",
        after - before
    );
    assert_eq!(s.busy_cores(), 0);
    assert_eq!(s.live_tasks(), 0);
}

/// At most one running task per core, under a kill racing yields (DESIGN.md invariant 1):
/// a one-core scheduler runs two yielding tasks of a victim process and two of a
/// co-tenant, and `kill_process(victim)` lands at a varying point of the yield ping-pong.
/// A yield that validated its core, then lost it to the kill before handing it over, used
/// to hand the already re-dispatched core to a second task: two tasks `Running` on one
/// core. Once the loops stop, at most one task may be `Running`.
#[test]
fn kill_racing_yields_never_double_grants() {
    const ITERS: u64 = 300;
    let t0 = Instant::now();
    for iter in 0..ITERS {
        let s = sched(1);
        let victim = s.register_process("victim");
        let cotenant = s.register_process("cotenant");
        let stop = Arc::new(AtomicBool::new(false));
        let tasks: Vec<_> = [victim, victim, cotenant, cotenant]
            .iter()
            .map(|&p| s.create_task(p, None).unwrap())
            .collect();
        let exited: Arc<Vec<AtomicBool>> =
            Arc::new(tasks.iter().map(|_| AtomicBool::new(false)).collect());
        let workers: Vec<_> = tasks
            .iter()
            .enumerate()
            .map(|(i, task)| {
                let (s, task, stop, exited) = (
                    Arc::clone(&s),
                    task.clone(),
                    Arc::clone(&stop),
                    Arc::clone(&exited),
                );
                std::thread::spawn(move || {
                    s.attach(&task);
                    while !stop.load(Ordering::SeqCst) {
                        s.yield_now(&task);
                    }
                    exited[i].store(true, Ordering::SeqCst);
                })
            })
            .collect();
        // 0.2–1 ms into the ping-pong, spread over the iterations.
        std::thread::sleep(Duration::from_micros(200 + (iter * 7919) % 800));
        s.kill_process(victim);
        stop.store(true, Ordering::SeqCst);
        // Quiescence: both victims are out of their loops (a released yield returns at
        // once), and so is whichever co-tenant holds the core; the other co-tenant, if
        // the core was granted once, stays parked `Ready` — nobody yields to it any more.
        let deadline = Instant::now() + Duration::from_secs(5);
        while !(exited[0].load(Ordering::SeqCst)
            && exited[1].load(Ordering::SeqCst)
            && (exited[2].load(Ordering::SeqCst) || exited[3].load(Ordering::SeqCst)))
        {
            assert!(
                Instant::now() < deadline,
                "iteration {iter}: loops never quiesced"
            );
            std::thread::yield_now();
        }
        let running: Vec<_> = tasks
            .iter()
            .filter(|t| t.state() == TaskState::Running)
            .map(|t| t.id())
            .collect();
        assert!(
            running.len() <= 1,
            "iteration {iter}: tasks {running:?} all Running on a one-core scheduler"
        );
        // Release the parked co-tenant so every worker thread ends.
        s.shutdown();
        for w in workers {
            w.join().unwrap();
        }
    }
    eprintln!(
        "kill_racing_yields_never_double_grants: {ITERS} iterations in {:?}",
        t0.elapsed()
    );
}

/// Cross-node scaling: with producers pinned to distinct NUMA nodes (via process
/// placement domains), wake-churn throughput on a 2-node topology (one dispatch lock per
/// node) must beat the same churn serialized through a single dispatch lock by at least
/// 1.5×. Skipped on
/// hosts without enough parallelism to run the two node-churns concurrently (or when
/// `USF_SKIP_NODE_SCALING` is set) — the contention being measured does not exist there.
#[test]
fn cross_node_churn_scales_with_node_count() {
    let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
    if parallelism < 4 || std::env::var_os("USF_SKIP_NODE_SCALING").is_some() {
        eprintln!(
            "skipping cross_node_churn_scales_with_node_count: \
             available parallelism {parallelism} < 4 (or USF_SKIP_NODE_SCALING set)"
        );
        return;
    }
    const CORES: usize = 4;
    const CYCLES: usize = 2_000;

    // One pause/submit churn pair per node, the process pinned to that node's cores.
    let grants_per_sec = |nodes: usize| -> f64 {
        let topo = usf_nosv::Topology::new(CORES, nodes);
        let node_cores: Vec<Vec<usize>> = (0..nodes)
            .map(|n| topo.cores_in_node(n).collect())
            .collect();
        let s = Arc::new(Scheduler::new(NosvConfig::with_topology(topo)));
        let mut pairs = Vec::new();
        for cores in node_cores {
            let p = s.register_process("pinned");
            s.set_process_domain(p, Some(cores));
            let task = s.create_task(p, None).unwrap();
            let worker = {
                let s = Arc::clone(&s);
                let task = task.clone();
                std::thread::spawn(move || {
                    s.attach(&task);
                    for _ in 0..CYCLES {
                        s.pause(&task);
                    }
                    s.detach(&task);
                })
            };
            let waker = {
                let s = Arc::clone(&s);
                let task = task.clone();
                std::thread::spawn(move || {
                    let mut woken = 0;
                    while woken < CYCLES {
                        if task.state() == TaskState::Blocked {
                            s.submit(&task);
                            woken += 1;
                        } else {
                            std::thread::yield_now();
                        }
                    }
                })
            };
            pairs.push((worker, waker));
        }
        let t0 = Instant::now();
        for (worker, waker) in pairs {
            worker.join().unwrap();
            waker.join().unwrap();
        }
        let grants = s.stats().counters().grants;
        grants as f64 / t0.elapsed().as_secs_f64()
    };

    // Warm up once (thread spawn, allocator), then measure; take the best of two runs
    // per shape to shave scheduler noise.
    let _ = grants_per_sec(1);
    let one_node = grants_per_sec(1).max(grants_per_sec(1));
    let two_node = grants_per_sec(2).max(grants_per_sec(2));
    assert!(
        two_node >= 1.5 * one_node,
        "2-node churn must scale past the single dispatch lock: \
         {two_node:.0} grants/s vs {one_node:.0} grants/s on one node"
    );
}
