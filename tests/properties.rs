//! Property-based tests (proptest) of the core invariants across the stack.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use usf::blas::{BlasConfig, BlasHandle, Matrix};
use usf::framework::exec::ExecMode;
use usf::framework::sync::{BusyBarrier, Mutex, Semaphore};
use usf::framework::Usf;
use usf::nosv::{CoopPolicy, FifoPolicy, Policy, TaskMeta, Topology};
use usf::simsched::{Engine, Machine, Program, SchedModel, SimTime};

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// The scheduler never runs more tasks than virtual cores, for arbitrary spawn counts
    /// and core counts.
    #[test]
    fn never_more_running_threads_than_cores(cores in 1usize..4, threads in 1usize..12) {
        let usf = Usf::builder().cores(cores).build();
        let p = usf.process("prop");
        let running = Arc::new(AtomicUsize::new(0));
        let max_seen = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let running = Arc::clone(&running);
                let max_seen = Arc::clone(&max_seen);
                p.spawn(move || {
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    max_seen.fetch_max(now, Ordering::SeqCst);
                    // Busy a little without any scheduling point, then leave.
                    let mut acc = 0u64;
                    for i in 0..2_000u64 { acc = acc.wrapping_add(i); }
                    std::hint::black_box(acc);
                    running.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles { h.join().unwrap(); }
        prop_assert!(max_seen.load(Ordering::SeqCst) <= cores,
            "saw {} concurrent threads on {} cores", max_seen.load(Ordering::SeqCst), cores);
        usf.shutdown();
    }

    /// Both ready-queue policies hand out every enqueued task exactly once, regardless of
    /// the enqueue order and core the pick happens on.
    #[test]
    fn policies_serve_every_task_exactly_once(
        tasks in proptest::collection::vec((0u32..4, proptest::option::of(0usize..4)), 1..40),
        use_coop in proptest::bool::ANY,
    ) {
        let topo = Topology::new(4, 2);
        let mut policy: Box<dyn Policy> = if use_coop {
            Box::new(CoopPolicy::new(topo.clone(), Duration::from_millis(5)))
        } else {
            Box::new(FifoPolicy::new())
        };
        let now = Instant::now();
        for (id, (proc_, pref)) in tasks.iter().enumerate() {
            policy.enqueue(&topo, TaskMeta { id: id as u64, process: *proc_, preferred_core: *pref }, now);
        }
        let mut picked = Vec::new();
        let mut core = 0;
        while let Some((meta, _)) = policy.pick(&topo, core, now) {
            picked.push(meta.id);
            core = (core + 1) % topo.num_cores();
        }
        picked.sort_unstable();
        let expected: Vec<u64> = (0..tasks.len() as u64).collect();
        prop_assert_eq!(picked, expected);
        prop_assert!(!policy.has_ready());
        prop_assert_eq!(policy.ready_count(), 0);
    }

    /// The cooperative mutex never loses increments for arbitrary thread/iteration counts.
    #[test]
    fn mutex_counter_is_exact(threads in 1usize..5, iters in 1usize..300) {
        let m = Arc::new(Mutex::new(0usize));
        let handles: Vec<_> = (0..threads).map(|_| {
            let m = Arc::clone(&m);
            std::thread::spawn(move || { for _ in 0..iters { *m.lock() += 1; } })
        }).collect();
        for h in handles { h.join().unwrap(); }
        prop_assert_eq!(*m.lock(), threads * iters);
    }

    /// A semaphore with `p` permits never admits more than `p` holders.
    #[test]
    fn semaphore_bounds_concurrency(permits in 1usize..4, threads in 1usize..8) {
        let sem = Arc::new(Semaphore::new(permits));
        let inside = Arc::new(AtomicUsize::new(0));
        let max_inside = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..threads).map(|_| {
            let sem = Arc::clone(&sem);
            let inside = Arc::clone(&inside);
            let max_inside = Arc::clone(&max_inside);
            std::thread::spawn(move || {
                sem.with_permit(|| {
                    let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                    max_inside.fetch_max(now, Ordering::SeqCst);
                    std::thread::yield_now();
                    inside.fetch_sub(1, Ordering::SeqCst);
                });
            })
        }).collect();
        for h in handles { h.join().unwrap(); }
        prop_assert!(max_inside.load(Ordering::SeqCst) <= permits);
    }

    /// The busy barrier produces exactly one leader per round for any participant count and
    /// round count.
    #[test]
    fn busy_barrier_one_leader_per_round(participants in 1usize..4, rounds in 1usize..20) {
        let bar = Arc::new(BusyBarrier::new(participants, Some(32)));
        let leaders = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..participants).map(|_| {
            let bar = Arc::clone(&bar);
            let leaders = Arc::clone(&leaders);
            std::thread::spawn(move || {
                for _ in 0..rounds {
                    if bar.wait().is_leader() { leaders.fetch_add(1, Ordering::SeqCst); }
                }
            })
        }).collect();
        for h in handles { h.join().unwrap(); }
        prop_assert_eq!(leaders.load(Ordering::SeqCst), rounds);
    }

    /// The parallel BLAS gemm matches the naive reference for arbitrary shapes and thread
    /// counts.
    #[test]
    fn parallel_gemm_matches_reference(m in 1usize..24, k in 1usize..24, n in 1usize..24, threads in 1usize..5) {
        let a = Matrix::pseudo_random(m, k, 3);
        let b = Matrix::pseudo_random(k, n, 4);
        let handle = BlasHandle::new(BlasConfig::omp(threads, ExecMode::Os));
        let c = handle.gemm(&a, &b);
        let reference = Matrix::multiply_reference(&a, &b);
        prop_assert!(c.max_abs_diff(&reference) < 1e-10);
    }

    /// Simulated makespan of independent equal compute phases is never better than the ideal
    /// (work / cores) and never worse than running everything serially, for both schedulers.
    #[test]
    fn simulated_makespan_is_bounded(threads in 1usize..20, cores in 1usize..8, coop in proptest::bool::ANY) {
        let work_ms = 5u64;
        let model = if coop { SchedModel::coop_default() } else { SchedModel::Fair };
        let mut machine = Machine::small(cores);
        // Remove overhead noise from the bound check.
        machine.ctx_switch_cost = SimTime::ZERO;
        machine.migration_cost = SimTime::ZERO;
        machine.cross_socket_penalty = SimTime::ZERO;
        let mut engine = Engine::new(machine, &model);
        let p = engine.add_process("p", 1.0);
        let prog = Program::new("t").compute(SimTime::from_millis(work_ms)).build();
        for _ in 0..threads {
            engine.add_thread(p, prog.clone());
        }
        let report = engine.run();
        prop_assert!(!report.deadlocked);
        let total_work = SimTime::from_millis(work_ms * threads as u64);
        let ideal = SimTime::from_nanos(total_work.as_nanos() / cores as u64);
        prop_assert!(report.makespan.as_nanos() >= ideal.as_nanos());
        prop_assert!(report.makespan.as_nanos() <= total_work.as_nanos() + 1_000_000);
    }
}
