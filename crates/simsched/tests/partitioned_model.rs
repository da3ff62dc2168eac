//! Property test: the partitioned scheduling model is a real partition.
//!
//! For random programs, random disjoint core partitions and random machine shapes, a
//! process mapped by [`SchedModel::Partitioned`] must never execute an op on a core
//! outside its assigned partition — and therefore disjoint partitions can never produce a
//! cross-partition migration. This is the invariant the bl-eq/bl-opt baselines of the
//! scenario matrix (`usf_scenarios::SimExecutor::for_model`) rest on: a static split only
//! "strands idle cores" if the scheduler actually refuses to give them to the other
//! processes' mapped threads. The model is the fair policy inside per-process core masks
//! built from the assignments, so this is also the containment test of those masks.

use proptest::prelude::*;
use usf_simsched::{BarrierWaitKind, Engine, Machine, Program, SchedModel, SimTime};

/// Build one thread program from the drawn per-unit shape: compute, optionally a sleep,
/// optionally a yield, and a per-process barrier over all region threads.
fn thread_program(
    process: usize,
    units: usize,
    work_us: u64,
    with_sleep: bool,
    with_yield: bool,
    barrier_kind: usize,
    threads: usize,
) -> Program {
    Program::new(format!("p{process}")).extend_with(units, |prog, unit| {
        let mut prog = prog.compute(SimTime::from_micros(work_us + unit as u64 * 7));
        if with_sleep {
            prog = prog.sleep(SimTime::from_micros(50));
        }
        if with_yield {
            prog = prog.yield_now();
        }
        if threads > 1 {
            let kind = match barrier_kind % 3 {
                0 => BarrierWaitKind::Block,
                1 => BarrierWaitKind::Spin,
                _ => BarrierWaitKind::SpinYield {
                    slice: SimTime::from_micros(20),
                },
            };
            prog = prog.barrier(1_000 * (process as u64 + 1) + unit as u64, threads, kind);
        }
        prog.unit_mark(unit)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn mapped_processes_never_leave_their_partition(
        cores in 4..10usize,
        // Per process: (threads, units, work_us, with_sleep, with_yield, barrier_kind).
        draws in proptest::collection::vec(
            (1..4usize, 1..4usize, 10..200u64, proptest::bool::ANY, proptest::bool::ANY, 0..3usize),
            2..4,
        ),
        split_seed in 0..1000usize,
    ) {
        let nprocs = draws.len().min(cores); // every process needs >= 1 core
        let draws = &draws[..nprocs];

        // Carve `cores` into `nprocs` disjoint contiguous partitions (each non-empty),
        // with the split points drawn from the seed.
        let mut sizes = vec![1usize; nprocs];
        let mut left = cores - nprocs;
        let mut s = split_seed;
        while left > 0 {
            sizes[s % nprocs] += 1;
            s = s.wrapping_mul(31).wrapping_add(17);
            left -= 1;
        }
        let mut next = 0usize;
        let partitions: Vec<Vec<usize>> = sizes
            .iter()
            .map(|&len| {
                let p: Vec<usize> = (next..next + len).collect();
                next += len;
                p
            })
            .collect();
        let assignments: Vec<(usize, Vec<usize>)> =
            partitions.iter().cloned().enumerate().collect();

        let machine = Machine::small_numa(cores, if cores >= 6 { 2 } else { 1 });
        let mut engine = Engine::new(machine, &SchedModel::Partitioned { assignments });
        engine.set_max_sim_time(SimTime::from_secs(60));

        let mut proc_threads: Vec<Vec<usize>> = Vec::new();
        for (i, &(threads, units, work_us, with_sleep, with_yield, barrier_kind)) in
            draws.iter().enumerate()
        {
            let pid = engine.add_process(format!("p{i}"), 1.0);
            let ids: Vec<usize> = (0..threads)
                .map(|_| {
                    let prog = thread_program(
                        i, units, work_us, with_sleep, with_yield, barrier_kind, threads,
                    )
                    .build();
                    engine.add_thread(pid, prog)
                })
                .collect();
            proc_threads.push(ids);
        }

        let report = engine.run();
        prop_assert!(!report.deadlocked, "partitioned runs are preemptive and must finish");

        // Containment: every dispatch of a mapped process landed inside its partition —
        // which makes a cross-partition migration structurally impossible.
        for (i, ids) in proc_threads.iter().enumerate() {
            let partition: std::collections::BTreeSet<usize> =
                partitions[i].iter().copied().collect();
            for &tid in ids {
                let used = &report.thread_cores[&tid];
                prop_assert!(
                    used.is_subset(&partition),
                    "process {i} thread {tid} ran on {used:?}, outside partition {partition:?}"
                );
            }
        }

        // Disjointness across processes carries over to the placement traces.
        for a in 0..nprocs {
            for b in (a + 1)..nprocs {
                for &ta in &proc_threads[a] {
                    for &tb in &proc_threads[b] {
                        let inter: Vec<usize> = report.thread_cores[&ta]
                            .intersection(&report.thread_cores[&tb])
                            .copied()
                            .collect();
                        prop_assert!(
                            inter.is_empty(),
                            "threads {ta} (p{a}) and {tb} (p{b}) shared cores {inter:?}"
                        );
                    }
                }
            }
        }

        // And every thread completed all of its units (the marks are full traces).
        for (i, ids) in proc_threads.iter().enumerate() {
            let units = draws[i].1;
            for &tid in ids {
                prop_assert_eq!(report.unit_marks[&tid].len(), units);
            }
        }
    }
}
