//! Integration tests: an instance with one core per CPU binds a parked worker to the CPU
//! behind the core it is granted, never binds a thread that does not park, and gives a
//! thread handed back to the application its own mask back. An instance with any other
//! number of cores binds nothing.
//!
//! Linux only. Each test reads the calling thread's `Cpus_allowed_list` from
//! `/proc/thread-self/status`, and skips (saying why) on a host with fewer than two CPUs,
//! where a one-CPU mask cannot be told apart from the original one. The instances that
//! bind have one core per CPU; a test that needs two cores confines its process to cores 0
//! and 1.
#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use usf::prelude::*;
use usf_nosv::scheduler::Scheduler;
use usf_nosv::{NosvConfig, NosvInstance, ProcessId, TaskRef};

/// The CPUs the calling thread may run on, as the kernel reports them.
fn allowed() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/thread-self/status").expect("procfs");
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .expect("Cpus_allowed_list line")
        .trim();
    list.split(',')
        .flat_map(|range| {
            let (lo, hi) = range.split_once('-').unwrap_or((range, range));
            lo.parse::<usize>().unwrap()..=hi.parse::<usize>().unwrap()
        })
        .collect()
}

/// The calling thread's CPUs, or `None` (with the reason printed) when there are fewer
/// than two.
fn cpus_or_skip(test: &str) -> Option<Vec<usize>> {
    let cpus = allowed();
    if cpus.len() < 2 {
        eprintln!("{test}: skipped, it needs two CPUs and this thread may use {cpus:?}");
        return None;
    }
    Some(cpus)
}

/// An instance with one core per CPU (so it binds) and a process confined to cores 0 and 1.
fn bound_instance(cpus: &[usize]) -> (NosvInstance, ProcessId) {
    let inst = NosvInstance::new(NosvConfig::with_cores(cpus.len()));
    let pid = inst.register_process("p");
    inst.scheduler().set_process_domain(pid, Some(vec![0, 1]));
    (inst, pid)
}

/// The calling thread's kernel id.
fn tid() -> String {
    let link = std::fs::read_link("/proc/thread-self").expect("procfs");
    link.file_name().unwrap().to_str().unwrap().to_string()
}

/// Wait until thread `tid` sleeps (the kernel reports it in state `S`).
fn wait_asleep(tid: &str) {
    let stat = format!("/proc/self/task/{tid}/stat");
    while std::fs::read_to_string(&stat)
        .map(|s| s.rsplit(')').next().unwrap().split_whitespace().next() != Some("S"))
        .unwrap_or(true)
    {
        std::thread::yield_now();
    }
}

/// Submit `task` once its worker thread `tid` sleeps, so the grant wakes a parked thread.
/// The worker sends its id and then pauses, and nothing else in these tests holds a lock it
/// needs on the way, so the first time it sleeps it sleeps in its grant wait.
fn submit_when_asleep(sched: &Scheduler, (tid, task): &(String, TaskRef)) {
    wait_asleep(tid);
    sched.submit(task);
}

/// Send the calling worker's thread id and task, then pause until submitted.
fn pause_once(sched: &Scheduler, task: &TaskRef, to: &mpsc::Sender<(String, TaskRef)>) {
    to.send((tid(), task.clone())).unwrap();
    sched.pause(task);
}

/// Join a worker thread, surfacing its panic.
fn join<T>(h: std::thread::JoinHandle<T>) -> T {
    h.join().expect("worker thread")
}

#[test]
fn a_worker_woken_by_a_hand_off_runs_on_its_cores_cpu() {
    let Some(cpus) = cpus_or_skip("a_worker_woken_by_a_hand_off_runs_on_its_cores_cpu") else {
        return;
    };
    let (inst, pid) = bound_instance(&cpus);
    // A runner holds one core. `first` holds the other until `second`, queued behind it,
    // sleeps in its attach; then `first` detaches and hands the core to `second`.
    let runner = inst.attach(pid, Some("runner"));
    let (queued, from_second) = mpsc::channel();
    let (go, handed) = mpsc::channel();
    let first = {
        let inst = inst.clone();
        std::thread::spawn(move || {
            let h = inst.attach(pid, Some("first"));
            handed.recv().unwrap();
            h.detach();
        })
    };
    while inst.scheduler().busy_cores() < 2 {
        std::thread::yield_now();
    }
    let second = {
        let (inst, cpus) = (inst.clone(), cpus.clone());
        std::thread::spawn(move || {
            queued.send(tid()).unwrap();
            let h = inst.attach(pid, Some("second"));
            let core = h.current_core().expect("granted");
            assert_eq!(allowed(), vec![cpus[core]], "woken onto core {core}");
            assert_eq!(h.task().stats.rebinds.load(Ordering::Relaxed), 1);
            h.detach();
            assert_eq!(allowed(), cpus, "detach gives the thread its own mask back");
        })
    };
    wait_asleep(&from_second.recv().unwrap());
    go.send(()).unwrap();
    join(first);
    join(second);
    runner.detach();
    inst.shutdown();
}

#[test]
fn a_yield_storm_never_binds_a_worker_to_another_cores_cpu() {
    let Some(cpus) = cpus_or_skip("a_yield_storm_never_binds_a_worker_to_another_cores_cpu") else {
        return;
    };
    let (inst, pid) = bound_instance(&cpus);
    // Four workers on two cores: a yield that switches parks the yielder until a later
    // hand-off grants it a core again, binding it to that core's CPU. A worker that finds
    // its grant before its waker's bind runs unbound until the bind lands.
    let attached = Arc::new(AtomicUsize::new(0));
    let workers: Vec<_> = (0..4)
        .map(|_| {
            let (inst, cpus, attached) = (inst.clone(), cpus.clone(), Arc::clone(&attached));
            std::thread::spawn(move || {
                let h = inst.attach(pid, None);
                attached.fetch_add(1, Ordering::SeqCst);
                while attached.load(Ordering::SeqCst) < 4 {
                    h.yield_now();
                }
                let mut bound = 0;
                for _ in 0..200 {
                    if h.yield_now() {
                        let core = h.current_core().expect("a woken worker holds a core");
                        let mask = allowed();
                        assert!(
                            mask == cpus || mask == [cpus[core]],
                            "core {core}: {mask:?}"
                        );
                        bound += usize::from(mask != cpus);
                    }
                }
                h.detach();
                assert_eq!(allowed(), cpus, "detach gives the thread its own mask back");
                bound
            })
        })
        .collect();
    let bound: usize = workers.into_iter().map(join).sum();
    assert!(bound > 0, "no woken worker was bound");
    inst.shutdown();
}

#[test]
fn a_thread_that_never_parks_keeps_its_mask() {
    let Some(cpus) = cpus_or_skip("a_thread_that_never_parks_keeps_its_mask") else {
        return;
    };
    let inst = NosvInstance::new(NosvConfig::with_cores(cpus.len()));
    let pid = inst.register_process("p");
    let runner = inst.attach(pid, Some("runner"));
    // Two more workers, confined to another core, share it through hand-offs while the
    // runner runs.
    let other = inst.register_process("pair");
    let other_core = (runner.current_core().unwrap() + 1) % cpus.len();
    inst.scheduler()
        .set_process_domain(other, Some(vec![other_core]));
    let stop = Arc::new(AtomicBool::new(false));
    let pair: Vec<_> = (0..2)
        .map(|_| {
            let (inst, stop) = (inst.clone(), Arc::clone(&stop));
            std::thread::spawn(move || {
                let h = inst.attach(other, None);
                while !stop.load(Ordering::Acquire) {
                    h.yield_now();
                }
                h.detach();
            })
        })
        .collect();
    for _ in 0..100_000 {
        // Nothing that may run on the runner's core is ready: the yield keeps it.
        assert!(!runner.yield_now());
    }
    assert_eq!(allowed(), cpus);
    stop.store(true, Ordering::Release);
    pair.into_iter().for_each(join);
    assert_eq!(runner.task().stats.rebinds.load(Ordering::Relaxed), 0);
    runner.detach();
    assert_eq!(allowed(), cpus);
    inst.shutdown();
}

#[test]
fn shutdown_and_kill_give_each_thread_its_own_mask_back() {
    let Some(cpus) = cpus_or_skip("shutdown_and_kill_give_each_thread_its_own_mask_back") else {
        return;
    };
    for kill in [false, true] {
        let (inst, pid) = bound_instance(&cpus);
        // Two workers, each woken asleep once (so bound); then one keeps its core until
        // `go` and the other pauses again, to be released.
        let (to_main, from_workers) = mpsc::channel();
        let (go, go_rx) = mpsc::channel::<()>();
        let mut go_rx = Some(go_rx);
        let workers: Vec<_> = [false, true]
            .into_iter()
            .map(|pauses| {
                let (worker_inst, cpus, to_main) = (inst.clone(), cpus.clone(), to_main.clone());
                let go = go_rx.take().filter(|_| !pauses);
                let w = std::thread::spawn(move || {
                    let inst = worker_inst;
                    let h = inst.attach(pid, None);
                    pause_once(inst.scheduler(), h.task(), &to_main);
                    let core = h.current_core().expect("woken with a core");
                    assert_eq!(allowed(), vec![cpus[core]], "bound after sleeping");
                    match go {
                        Some(go) => {
                            to_main.send((tid(), h.task().clone())).unwrap();
                            go.recv().unwrap();
                        }
                        None => pause_once(inst.scheduler(), h.task(), &to_main),
                    }
                    assert_eq!(allowed(), cpus, "its own mask is back");
                });
                submit_when_asleep(inst.scheduler(), &from_workers.recv().unwrap());
                // Bound; now keeping its core (running) or asleep in its second pause.
                wait_asleep(&from_workers.recv().unwrap().0);
                w
            })
            .collect();
        if kill {
            let report = inst.kill_process(pid);
            assert_eq!((report.running_preempted, report.waiters_released), (1, 1));
        } else {
            inst.shutdown();
        }
        go.send(()).unwrap();
        workers.into_iter().for_each(join);
        inst.shutdown();
    }
}

/// On an instance with `cores` cores, wake a worker ten times from a sleeping pause and
/// check that it is never bound.
fn ten_wakes_bind_nothing(cores: usize, cpus: &[usize]) {
    let inst = NosvInstance::new(NosvConfig::with_cores(cores));
    let pid = inst.register_process("p");
    let (to_main, from_worker) = mpsc::channel();
    let worker = {
        let (inst, cpus) = (inst.clone(), cpus.to_vec());
        std::thread::spawn(move || {
            let h = inst.attach(pid, None);
            for _ in 0..10 {
                pause_once(inst.scheduler(), h.task(), &to_main);
                assert_eq!(allowed(), cpus, "{cores} cores: not bound");
            }
            assert_eq!(h.task().stats.rebinds.load(Ordering::Relaxed), 0);
            h.detach();
        })
    };
    for _ in 0..10 {
        submit_when_asleep(inst.scheduler(), &from_worker.recv().unwrap());
    }
    join(worker);
    inst.shutdown();
}

#[test]
fn an_instance_with_more_cores_than_cpus_binds_nothing() {
    let Some(cpus) = cpus_or_skip("an_instance_with_more_cores_than_cpus_binds_nothing") else {
        return;
    };
    ten_wakes_bind_nothing(cpus.len() + 1, &cpus);
}

#[test]
fn one_core_instances_running_at_once_bind_nothing() {
    let Some(cpus) = cpus_or_skip("one_core_instances_running_at_once_bind_nothing") else {
        return;
    };
    // Two instances with fewer cores than CPUs, side by side: neither confines its workers
    // to a CPU, so they cannot crowd onto the same one.
    let both: Vec<_> = (0..2)
        .map(|_| {
            let cpus = cpus.clone();
            std::thread::spawn(move || ten_wakes_bind_nothing(1, &cpus))
        })
        .collect();
    both.into_iter().for_each(join);
}

#[test]
fn a_pinned_thread_keeps_its_pin_after_attach_and_detach() {
    let Some(cpus) = cpus_or_skip("a_pinned_thread_keeps_its_pin_after_attach_and_detach") else {
        return;
    };
    let inst = NosvInstance::new(NosvConfig::with_cores(cpus.len()));
    let pid = inst.register_process("p");
    // Granted only core 0, so a bind moves the thread off the CPU it is pinned to.
    inst.scheduler().set_process_domain(pid, Some(vec![0]));
    let pin = vec![cpus[1]];
    let (to_main, from_worker) = mpsc::channel();
    let worker = {
        let (inst, cpus, pin) = (inst.clone(), cpus.clone(), pin.clone());
        std::thread::spawn(move || {
            assert!(
                parking_lot::cpu::set_allowed_cpus(0, &pin),
                "pin the thread"
            );
            // Attached and detached without parking: never bound, pin untouched.
            inst.attach(pid, None).detach();
            assert_eq!(allowed(), pin, "a thread never bound keeps its pin");
            // Parked and woken onto core 0: bound there, then given its pin back.
            let h = inst.attach(pid, None);
            pause_once(inst.scheduler(), h.task(), &to_main);
            assert_eq!(allowed(), vec![cpus[0]], "bound to core 0's CPU");
            assert_eq!(h.task().stats.rebinds.load(Ordering::Relaxed), 1);
            h.detach();
            assert_eq!(allowed(), pin, "detach gives the pin back");
        })
    };
    submit_when_asleep(inst.scheduler(), &from_worker.recv().unwrap());
    join(worker);
    inst.shutdown();
}

#[test]
fn attach_guard_drop_gives_the_thread_its_own_mask_back() {
    let Some(cpus) = cpus_or_skip("attach_guard_drop_gives_the_thread_its_own_mask_back") else {
        return;
    };
    let usf = Usf::builder().cores(cpus.len()).build();
    let p = usf.process("main");
    let (to_main, from_thread) = mpsc::channel();
    let t = std::thread::spawn(move || {
        let guard = p.attach_current();
        let ctx = usf_core::current::current().expect("attached");
        pause_once(ctx.nosv.scheduler(), &ctx.task, &to_main);
        let core = usf_core::affinity::current_scheduler_core().expect("attached");
        assert_eq!(allowed(), vec![cpus[core]], "bound after sleeping");
        drop(guard);
        assert_eq!(allowed(), cpus);
    });
    submit_when_asleep(usf.nosv().scheduler(), &from_thread.recv().unwrap());
    join(t);
    usf.shutdown();
}

#[test]
fn a_reused_cache_worker_keeps_its_binding_on_the_same_core() {
    let Some(cpus) = cpus_or_skip("a_reused_cache_worker_keeps_its_binding_on_the_same_core")
    else {
        return;
    };
    let usf = Usf::builder().cores(cpus.len()).cache_capacity(1).build();
    let p = usf.process("app");
    // Both jobs get core 0.
    p.restrict_to_cores(Some(vec![0]));
    let (to_main, from_job) = mpsc::channel();
    // Each job sleeps once, woken by the main thread, and reports its thread, the mask
    // it started with, the mask it ended with and how often its task was rebound.
    let job = move || {
        let start = allowed();
        let ctx = usf_core::current::current().expect("attached");
        pause_once(ctx.nosv.scheduler(), &ctx.task, &to_main);
        let rebinds = ctx.task.stats.rebinds.load(Ordering::Relaxed);
        (std::thread::current().id(), start, allowed(), rebinds)
    };
    let first = {
        let job = job.clone();
        p.spawn(job)
    };
    submit_when_asleep(usf.nosv().scheduler(), &from_job.recv().unwrap());
    let (first_thread, _, first_end, first_rebinds) = first.join().unwrap();
    assert_eq!(first_end, vec![cpus[0]], "bound to core 0's CPU");
    assert_eq!(first_rebinds, 1);
    while usf.thread_cache_stats().idle == 0 {
        std::thread::yield_now();
    }
    let second = p.spawn(job);
    submit_when_asleep(usf.nosv().scheduler(), &from_job.recv().unwrap());
    let (thread, start, end, rebinds) = second.join().unwrap();
    assert_eq!(thread, first_thread, "the cached thread ran the second job");
    assert_eq!(start, vec![cpus[0]], "a pooled thread keeps its binding");
    assert_eq!(end, vec![cpus[0]]);
    assert_eq!(rebinds, 0, "woken onto the same core: not rebound");
    usf.shutdown();
}
