//! Micro-probes: the cost of one call into each layer, timed from outside through public
//! functions, at fixed iteration counts. Each reports the median of [`BATCHES`] batches.
//!
//! The probes of the two lowest layers run on plain OS threads against a raw
//! `NosvInstance`; everything above runs as cooperative threads of a 2-core USF instance
//! with the probing thread attached, like the workloads.

use crate::stats;
use crate::workloads::nested_blas::product_ok;
use crate::workloads::sim_sweep::simulations;
use crate::workloads::CORES;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use usf_blas::{kernels, BlasConfig, BlasHandle, Matrix};
use usf_core::exec::ExecMode;
use usf_core::runtime::{ProcessHandle, Usf};
use usf_core::sync as coop;
use usf_nosv::{NosvConfig, NosvInstance};
use usf_runtimes::{DataKey, TaskDeps, TaskRuntime, Team, TeamConfig, TransientPool, WaitPolicy};
use usf_scenarios::spec::ProblemSize;
use usf_scenarios::{library, Executor, OsExecutor, SimExecutor, UsfExecutor};
use usf_simsched::Machine;

const BATCHES: usize = 9;

/// Median over the batches of `batch()`'s duration divided by `ops`, after one warm-up
/// batch, in ns.
fn ns_per_op(ops: u64, mut batch: impl FnMut()) -> f64 {
    batch();
    let runs: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            batch();
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    stats::median(&runs)
}

/// Batches a partner thread must keep up with: the warm-up one and the timed ones.
const PARTNER_BATCHES: u64 = BATCHES as u64 + 1;

/// One probe's reading; `report::PER_LAYER` has its unit.
pub struct Probe {
    pub name: &'static str,
    pub value: f64,
}

fn probe(name: &'static str, value: f64) -> Probe {
    Probe { name, value }
}

// ---------------------------------------------------------------------------------------
// parking_lot (the vendored shim over std::sync)

fn parking_lot_probes(out: &mut Vec<Probe>) {
    let m = parking_lot::Mutex::new(0u64);
    const LOCKS: u64 = 200_000;
    let lock_ns = ns_per_op(LOCKS, || {
        for _ in 0..LOCKS {
            *m.lock() += 1;
        }
    });
    out.push(probe("parking_lot.mutex_lock_unlock_ns", lock_ns));

    // Two OS threads pass a turn flag back and forth under one mutex and condvar.
    const ROUNDS: u64 = 500;
    let pair = Arc::new((parking_lot::Mutex::new(false), parking_lot::Condvar::new()));
    let wait_for = |pair: &(parking_lot::Mutex<bool>, parking_lot::Condvar), turn: bool| {
        let mut guard = pair.0.lock();
        while *guard != turn {
            pair.1.wait(&mut guard);
        }
        *guard = !turn;
        pair.1.notify_one();
    };
    let partner = {
        let pair = Arc::clone(&pair);
        std::thread::spawn(move || {
            for _ in 0..ROUNDS * PARTNER_BATCHES {
                wait_for(&pair, true);
            }
        })
    };
    let handoff_ns = ns_per_op(2 * ROUNDS, || {
        for _ in 0..ROUNDS {
            wait_for(&pair, false);
        }
    });
    partner.join().expect("condvar partner");
    out.push(probe("parking_lot.condvar_handoff_ns", handoff_ns));

    // `thread::park` round trip: each side unparks the other and parks until its turn.
    let turn = Arc::new(AtomicBool::new(false));
    let main = std::thread::current();
    let partner = {
        let turn = Arc::clone(&turn);
        std::thread::spawn(move || {
            for _ in 0..ROUNDS * PARTNER_BATCHES {
                while !turn.load(Ordering::Acquire) {
                    std::thread::park();
                }
                turn.store(false, Ordering::Release);
                main.unpark();
            }
        })
    };
    let park_ns = ns_per_op(2 * ROUNDS, || {
        for _ in 0..ROUNDS {
            turn.store(true, Ordering::Release);
            partner.thread().unpark();
            while turn.load(Ordering::Acquire) {
                std::thread::park();
            }
        }
    });
    partner.join().expect("park partner");
    out.push(probe("parking_lot.park_unpark_ns", park_ns));
}

// ---------------------------------------------------------------------------------------
// usf-nosv

fn nosv_probes(out: &mut Vec<Probe>) {
    // Alone on the instance: nothing else is ready, so a yield keeps the core.
    let inst = NosvInstance::new(NosvConfig::with_cores(1));
    let pid = inst.register_process("probe");
    let me = inst.attach(pid, Some("probe-main"));
    const YIELDS: u64 = 200_000;
    let noop_ns = ns_per_op(YIELDS, || {
        for _ in 0..YIELDS {
            me.yield_now();
        }
    });
    out.push(probe("nosv.yield_noop_ns", noop_ns));

    // Two tasks on one core: every yield switches to the other.
    const SWITCHES: u64 = 500;
    let stop = Arc::new(AtomicBool::new(false));
    let partner = {
        let (inst, stop) = (inst.clone(), Arc::clone(&stop));
        std::thread::spawn(move || {
            let h = inst.attach(pid, Some("probe-partner"));
            while !stop.load(Ordering::Acquire) {
                h.yield_now();
            }
            h.detach();
        })
    };
    // Until the partner has attached and queued, a yield finds nothing to switch to.
    while !me.yield_now() {
        std::thread::yield_now();
    }
    let switch_ns = ns_per_op(2 * SWITCHES, || {
        for _ in 0..SWITCHES {
            me.yield_now();
        }
    });
    stop.store(true, Ordering::Release);
    me.detach();
    partner.join().expect("yield partner");
    inst.shutdown();
    out.push(probe("nosv.yield_switch_ns", switch_ns));

    // Two tasks, a core each: each wakes the other and blocks until woken back.
    let inst = NosvInstance::new(NosvConfig::with_cores(CORES));
    let pid = inst.register_process("probe");
    let me = inst.attach(pid, Some("probe-main"));
    const WAKES: u64 = 500;
    let (task_tx, task_rx) = mpsc::channel();
    let stop = Arc::new(AtomicBool::new(false));
    let partner = {
        let (inst, stop, main_task) = (inst.clone(), Arc::clone(&stop), me.task().clone());
        std::thread::spawn(move || {
            let h = inst.attach(pid, Some("probe-partner"));
            task_tx
                .send(h.task().clone())
                .expect("main waits for the task");
            loop {
                h.pause();
                if stop.load(Ordering::Acquire) {
                    break;
                }
                inst.submit(&main_task);
            }
            h.detach();
        })
    };
    let partner_task = task_rx.recv().expect("partner attaches");
    let wake_ns = ns_per_op(2 * WAKES, || {
        for _ in 0..WAKES {
            inst.submit(&partner_task);
            me.pause();
        }
    });
    stop.store(true, Ordering::Release);
    inst.submit(&partner_task);
    partner.join().expect("pause partner");
    out.push(probe("nosv.pause_submit_ns", wake_ns));

    const ATTACHES: u64 = 5000;
    let attach_ns = ns_per_op(ATTACHES, || {
        for _ in 0..ATTACHES {
            inst.attach(pid, None).detach();
        }
    });
    out.push(probe("nosv.attach_detach_ns", attach_ns));

    const WAIT: Duration = Duration::from_micros(200);
    let overshoots: Vec<f64> = (0..50)
        .map(|_| {
            let t0 = Instant::now();
            me.waitfor(WAIT);
            t0.elapsed().saturating_sub(WAIT).as_secs_f64() * 1e6
        })
        .collect();
    out.push(probe(
        "nosv.waitfor_overshoot_us",
        stats::median(&overshoots),
    ));
    me.detach();
    inst.shutdown();
}

// ---------------------------------------------------------------------------------------
// usf-core

fn spawn_join_ns(process: &ProcessHandle, spawns: u64) -> f64 {
    ns_per_op(spawns, || {
        for _ in 0..spawns {
            process
                .spawn(|| ())
                .join()
                .expect("an empty thread does not panic");
        }
    })
}

fn core_probes(process: &ProcessHandle, out: &mut Vec<Probe>) {
    out.push(probe(
        "core.spawn_join_cached_ns",
        spawn_join_ns(process, 300),
    ));
    {
        // No thread cache: every spawn creates an OS thread.
        let cold = Usf::builder().cores(CORES).cache_capacity(0).build();
        let ns = spawn_join_ns(&cold.process("cold"), 100);
        cold.shutdown();
        out.push(probe("core.spawn_join_cold_ns", ns));
    }

    const LOCKS: u64 = 200_000;
    let m = coop::Mutex::new(0u64);
    let lock_ns = ns_per_op(LOCKS, || {
        for _ in 0..LOCKS {
            *m.lock() += 1;
        }
    });
    out.push(probe("core.mutex_uncontended_ns", lock_ns));

    // Main and one cooperative partner take turns through each primitive.
    const ROUNDS: u64 = 500;
    const PARTNER_ROUNDS: u64 = ROUNDS * PARTNER_BATCHES;

    // Both sides hold the mutex over a ~0.4 µs critical section back to back, so nearly
    // every acquisition finds it taken, blocks, and is handed the lock by the other side.
    let contended = Arc::new(coop::Mutex::new(0u64));
    let hold = |m: &coop::Mutex<u64>| {
        let mut guard = m.lock();
        *guard = crate::kernel::kernel(200, *guard);
    };
    let partner = {
        let contended = Arc::clone(&contended);
        process.spawn(move || {
            for _ in 0..PARTNER_ROUNDS {
                hold(&contended);
            }
        })
    };
    let handoff_ns = ns_per_op(ROUNDS, || {
        for _ in 0..ROUNDS {
            hold(&contended);
        }
    });
    partner.join().expect("mutex partner");
    out.push(probe("core.mutex_handoff_ns", handoff_ns));

    let pair = Arc::new((coop::Mutex::new(false), coop::Condvar::new()));
    let wait_for = |pair: &(coop::Mutex<bool>, coop::Condvar), turn: bool| {
        let mut guard = pair.1.wait_while(pair.0.lock(), |t| *t != turn);
        *guard = !turn;
        pair.1.notify_one();
    };
    let partner = {
        let pair = Arc::clone(&pair);
        process.spawn(move || {
            for _ in 0..PARTNER_ROUNDS {
                wait_for(&pair, true);
            }
        })
    };
    let signal_ns = ns_per_op(2 * ROUNDS, || {
        for _ in 0..ROUNDS {
            wait_for(&pair, false);
        }
    });
    partner.join().expect("condvar partner");
    out.push(probe("core.condvar_signal_ns", signal_ns));

    let barrier = Arc::new(coop::Barrier::new(2));
    let partner = {
        let barrier = Arc::clone(&barrier);
        process.spawn(move || {
            for _ in 0..PARTNER_ROUNDS {
                barrier.wait();
            }
        })
    };
    let barrier_ns = ns_per_op(ROUNDS, || {
        for _ in 0..ROUNDS {
            barrier.wait();
        }
    });
    partner.join().expect("barrier partner");
    out.push(probe("core.barrier_round_ns", barrier_ns));

    let (ping_tx, ping_rx) = coop::channel::<u64>(1);
    let (pong_tx, pong_rx) = coop::channel::<u64>(1);
    let partner = process.spawn(move || {
        while let Ok(v) = ping_rx.recv() {
            if pong_tx.send(v + 1).is_err() {
                break;
            }
        }
    });
    let msg_ns = ns_per_op(2 * ROUNDS, || {
        for i in 0..ROUNDS {
            ping_tx.send(i).expect("partner is receiving");
            pong_rx.recv().expect("partner replies");
        }
    });
    drop(ping_tx);
    partner.join().expect("channel partner");
    out.push(probe("core.channel_msg_ns", msg_ns));
}

// ---------------------------------------------------------------------------------------
// usf-runtimes

fn runtimes_probes(exec: &ExecMode, out: &mut Vec<Probe>) {
    const REGIONS: u64 = 300;
    let team = Team::new(TeamConfig::new(CORES, exec.clone()).wait_policy(WaitPolicy::Passive));
    let region_ns = ns_per_op(REGIONS, || {
        for _ in 0..REGIONS {
            team.parallel(CORES, |_| ());
        }
    });
    drop(team);
    out.push(probe("runtimes.forkjoin_region_ns", region_ns));

    const TASKS: u64 = 300;
    let rt = TaskRuntime::with_workers(CORES, exec.clone());
    let task_ns = ns_per_op(TASKS, || {
        for _ in 0..TASKS {
            rt.submit_independent(|| ());
        }
        rt.taskwait();
    });
    out.push(probe("runtimes.taskrt_task_ns", task_ns));
    // A chain: every task waits for the one before it through one in-out key.
    let dep_ns = ns_per_op(TASKS, || {
        for _ in 0..TASKS {
            rt.submit(TaskDeps::none().inout(DataKey(1)), || ());
        }
        rt.taskwait();
    });
    drop(rt);
    out.push(probe("runtimes.taskrt_dep_task_ns", dep_ns));

    let pool = TransientPool::new(exec.clone());
    let pool_ns = ns_per_op(REGIONS, || {
        for _ in 0..REGIONS {
            pool.run(CORES, |_| ());
        }
    });
    out.push(probe("runtimes.threadpool_region_ns", pool_ns));
}

// ---------------------------------------------------------------------------------------
// usf-blas

/// MFLOP/s of the serial 64×64 tile kernel — the rate `blas.self_frac` divides by.
pub fn gemm_tile_serial_mflops() -> f64 {
    const N: usize = 64;
    const CALLS: u64 = 64;
    let a = Matrix::pseudo_random(N, N, 1);
    let b = Matrix::pseudo_random(N, N, 2);
    let mut c = vec![0.0; N * N];
    let ns_per_call = ns_per_op(CALLS, || {
        for _ in 0..CALLS {
            kernels::gemm_acc(N, N, N, a.as_slice(), b.as_slice(), &mut c);
        }
    });
    std::hint::black_box(&c);
    kernels::gemm_flops(N, N, N) as f64 / ns_per_call * 1e3
}

fn blas_probes(exec: &ExecMode, out: &mut Vec<Probe>, failed: &mut u64) {
    out.push(probe(
        "blas.gemm_tile_serial_mflops",
        gemm_tile_serial_mflops(),
    ));
    const N: usize = 256;
    let a = Matrix::pseudo_random(N, N, 3);
    let b = Matrix::pseudo_random(N, N, 4);
    let blas = BlasHandle::new(BlasConfig::omp(CORES, exec.clone()));
    let error = blas
        .gemm(&a, &b)
        .max_abs_diff(&Matrix::multiply_reference(&a, &b));
    if !product_ok(Some(error)) {
        *failed += 1;
    }
    let mut c = vec![0.0; N * N];
    let ns = ns_per_op(1, || {
        blas.gemm_acc(N, N, N, a.as_slice(), b.as_slice(), &mut c);
    });
    out.push(probe(
        "blas.gemm_parallel_mflops",
        kernels::gemm_flops(N, N, N) as f64 / ns * 1e3,
    ));
}

// ---------------------------------------------------------------------------------------
// usf-scenarios and usf-simsched

/// Must run on a thread that is *not* attached: the real executors build their own
/// instances and attach their own drivers.
fn scenario_probes(out: &mut Vec<Probe>) {
    let paper_scale = library::hpc_pair(112, ProblemSize::Medium);
    let plan_ns = ns_per_op(1, || {
        std::hint::black_box(paper_scale.plan());
    });
    out.push(probe("scenarios.plan_lower_us", plan_ns / 1e3));

    let pair = library::hpc_pair(CORES, ProblemSize::Medium);
    let run_ms = |exec: &dyn Executor| {
        let runs: Vec<f64> = (0..3)
            .map(|_| exec.run_spec(&pair).total_makespan.as_secs_f64() * 1e3)
            .collect();
        stats::median(&runs)
    };
    out.push(probe(
        "scenarios.hpc_pair_usf_ms",
        run_ms(&UsfExecutor::new()),
    ));
    out.push(probe("scenarios.hpc_pair_os_ms", run_ms(&OsExecutor)));

    // One lowering of each simulation `sim_sweep` runs, without running the engine.
    let machine = Machine::marenostrum5();
    let lowerings: Vec<f64> = simulations()
        .iter()
        .map(|(spec, sel)| {
            let sim = SimExecutor::for_model(machine.clone(), *sel, spec);
            let t0 = Instant::now();
            std::hint::black_box(sim.lower(spec));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let mean = lowerings.iter().sum::<f64>() / lowerings.len() as f64;
    out.push(probe("simsched.lower_us", mean));
}

/// Run every probe. Returns them with the number of probe outputs that failed a check.
pub fn run_all() -> (Vec<Probe>, u64) {
    let mut out = Vec::new();
    let mut failed = 0;
    parking_lot_probes(&mut out);
    nosv_probes(&mut out);
    scenario_probes(&mut out);

    let usf = Usf::builder().cores(CORES).build();
    let process = usf.process("probes");
    let exec = ExecMode::Usf(process.clone());
    {
        let _attached = process.attach_current();
        core_probes(&process, &mut out);
        runtimes_probes(&exec, &mut out);
        blas_probes(&exec, &mut out, &mut failed);
    }
    usf.shutdown();
    (out, failed)
}
