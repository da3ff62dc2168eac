//! The bit-identical gate: FNV-1a digests of the full `Debug` rendering of [`SimReport`]
//! for a fixed, seeded corpus of engine-level programs under all three scheduling
//! models.
//!
//! The simulator is deterministic, so a refactor of the engine or of a policy that claims
//! "no behaviour change" must leave every digest below untouched; a change that moves one
//! is a behaviour change and has to say so (and re-record the constant). The corpus is
//! built from integer [`SimTime`]s and IEEE `+ - * /` only — no `ln`/`exp`, so the
//! constants do not depend on the host libm. Each case draws a 1- or 2-socket machine,
//! 2–4 processes (with or without `restrict_process`), staggered arrivals, and per process
//! a program of compute (one bandwidth demand per run, on a machine it saturates),
//! critical sections, every barrier kind, sleeps, yields and unit marks, plus a
//! signal/wait pair and a spawn/join parent. Under `Partitioned` the assignments are the
//! disjoint partitions and a drawn `restrict_process` names a *different* partition, which
//! pins "an assignment overrides `allowed_cores`". [`WIDE_DIGESTS`] pins some of the same
//! cases, and an idle-gap case, on 65- and 130-core machines.

use usf_simsched::{BarrierWaitKind, Engine, Machine, Program, SchedModel, SimReport, SimTime};

/// One row per seed: the digests under `Fair`, `coop_default()` and `Partitioned`,
/// recorded at the commit before the engine/policy refactor this gate was written for.
/// Rows 1–11 repeated there; seed 0 did not (its bandwidth rescheduling iterated a
/// `HashSet`, so symmetric threads finishing together drew their tie-break order from
/// `RandomState` — 7 distinct digests per model over 38 repeats), so its row is that
/// commit with only the set made ordered, and each of its three values is one the
/// unordered engine also produced.
const DIGESTS: [[u64; 3]; 12] = [
    [0xd0fac822432b9df4, 0x52945f9272b0a5e7, 0x18588d931cf1edce],
    [0x51825ce08b6670a6, 0xc8ad33065534fa6b, 0x51825ce08b6670a6],
    [0xb5ebe0981c2378b7, 0x937667937e529508, 0xba9e37efca0a5724],
    [0xea0ddddc1f3e05cb, 0x13b0cafe2103882c, 0x6cb607221e583e39],
    [0xfcde5a444f6a19aa, 0x9296e52a5b57ebf5, 0xfcde5a444f6a19aa],
    [0x3f8f8b12b3b23c9f, 0xc5dadab06af3fc78, 0xc2b530f33b3f421e],
    [0x85670536cd23f26b, 0x461993edbfbad6bb, 0xa592fb024ac2f5db],
    [0x9d0d4d9363df5723, 0x77d424f3acc74dda, 0x670e06f55be265c6],
    [0x5bb3b726272a1810, 0x41a806a80a231007, 0xb731e6d0a72f2942],
    [0x1d47248c25a65b57, 0x6e96d22177edd65c, 0x7ba4d3a9aaebea93],
    [0x15df8d6cf8132605, 0x15df8d6cf8132605, 0x15df8d6cf8132605],
    [0x26aa2b3e76a5e03b, 0x2f541e9a7b59c158, 0x26aa2b3e76a5e03b],
];

/// Rows past one 64-core word of the engine's idle-core bitset: `(cores, seed, digests)`
/// on 65- and 130-core machines, `Some(seed)` being that seed's corpus case with thread
/// counts scaled to the machine and `None` the three-process idle-gap case
/// ([`idle_gap_case`]). Recorded at the parent of the event-driven dispatch, before any
/// engine edit; the seeds are the ones whose runs reach the last word under every model.
const WIDE_DIGESTS: [(usize, Option<u64>, [u64; 3]); 6] = [
    (
        65,
        Some(1),
        [0x2226d9e8cb6cf171, 0x0e12a3daf19f05b3, 0x2226d9e8cb6cf171],
    ),
    (
        65,
        Some(6),
        [0xa698515b72709a51, 0x9850c7c948d533d7, 0x425cabd727413d18],
    ),
    (
        65,
        None,
        [0x076ffb262cd4f7fb, 0x200a552fbdf1e5f4, 0x5bb24120ed9eb6f6],
    ),
    (
        130,
        Some(4),
        [0x59a0cb51532e0d75, 0x7f5fd766c4d7cc13, 0x59a0cb51532e0d75],
    ),
    (
        130,
        Some(8),
        [0xcef249c5c0112900, 0x08cac5ce58c3db70, 0x31eef3f792fcdbf6],
    ),
    (
        130,
        None,
        [0x8ca23e4f49a9835e, 0xd84dd0db06bce3ab, 0x559d97257b8227be],
    ),
];

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// xorshift64* — the corpus must not depend on any crate's generator.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 32) % n
    }

    fn flip(&mut self) -> bool {
        self.below(2) == 1
    }
}

fn us(n: u64) -> SimTime {
    SimTime::from_micros(n)
}

fn run_case(seed: u64, model: usize, wide: Option<usize>) -> SimReport {
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    // A wide row still draws the core count, so every later draw matches its seed's
    // narrow row; thread counts scale with the machine (×1 up to 8 cores).
    let drawn = [4, 6, 8][rng.below(3) as usize];
    let cores = wide.unwrap_or(drawn);
    let scale = cores.div_ceil(8);
    let mut machine = Machine::small_numa(cores, 1 + rng.below(2) as usize);
    // Half the cases shrink the 4 ms quantum below the unit work so the fair models preempt.
    if rng.flip() {
        machine.preemption_quantum = us(300);
    }
    let nprocs = 2 + rng.below(3) as usize;
    let restrict = rng.flip();
    // 40 GB/s per computing thread against the 100 GB/s cap of `Machine::small`.
    let bw = if rng.flip() { 40.0 } else { 0.0 };

    let partitions = partitions(cores, nprocs);
    let model = model_of(model, &partitions);
    let partitioned = matches!(model, SchedModel::Partitioned { .. });
    let mut engine = Engine::new(machine, &model);
    engine.set_max_sim_time(SimTime::from_secs(60));

    for p in 0..nprocs {
        let pid = engine.add_process(format!("p{p}"), if rng.flip() { 1.0 } else { 0.5 });
        if restrict {
            let mask = &partitions[(p + usize::from(partitioned)) % nprocs];
            engine.restrict_process(pid, mask.clone());
        }
        let threads = (1 + rng.below(4) as usize) * scale;
        let units = 1 + rng.below(3) as usize;
        let work = 50 + rng.below(400);
        let critical = rng.flip().then(|| 20 + rng.below(50));
        let sleep = rng.flip().then(|| 30 + rng.below(100));
        let yields = rng.flip();
        let barrier = match rng.below(4) {
            _ if threads == 1 => None,
            0 => None,
            1 => Some(BarrierWaitKind::Block),
            2 => Some(BarrierWaitKind::Spin),
            _ => Some(BarrierWaitKind::SpinYield { slice: us(20) }),
        };
        let program = Program::new(format!("p{p}"))
            .extend_with(units, |mut prog, unit| {
                prog = prog.compute_bw(us(work + 7 * unit as u64), bw);
                if let Some(cs) = critical {
                    prog = prog.critical_section(p as u64, us(cs));
                }
                if let Some(d) = sleep {
                    prog = prog.sleep(us(d));
                }
                if yields {
                    prog = prog.yield_now();
                }
                if let Some(kind) = barrier {
                    prog = prog.barrier(1_000 * (p as u64 + 1) + unit as u64, threads, kind);
                }
                prog.unit_mark(unit)
            })
            .build();
        let stagger = rng.below(300);
        for t in 0..threads {
            engine.add_thread_at(pid, program.clone(), us(stagger * t as u64));
        }
        if p == 0 {
            // Signal/wait: the consumer needs both of the producer's signals.
            let consumer = Program::new("consumer").wait_event(7, 2).compute(us(90));
            let producer = Program::new("producer")
                .compute(us(150))
                .signal(7)
                .compute(us(60))
                .signal(7);
            engine.add_thread(pid, consumer.build());
            engine.add_thread_at(pid, producer.build(), us(40));
        }
        if p + 1 == nprocs {
            // Spawn/join: the children arrive mid-run, in the parent's process.
            let child = Program::new("child").compute_bw(us(120), bw).build();
            let parent = Program::new("parent")
                .compute(us(80))
                .spawn(child, pid, 2 + rng.below(3) as usize)
                .join_children()
                .compute(us(30));
            engine.add_thread_at(pid, parent.build(), us(25));
        }
    }
    engine.run()
}

/// Contiguous disjoint partitions, every process at least one core.
fn partitions(cores: usize, nprocs: usize) -> Vec<Vec<usize>> {
    let bounds: Vec<usize> = (0..=nprocs).map(|p| p * cores / nprocs).collect();
    bounds.windows(2).map(|w| (w[0]..w[1]).collect()).collect()
}

fn model_of(model: usize, partitions: &[Vec<usize>]) -> SchedModel {
    match model {
        0 => SchedModel::Fair,
        1 => SchedModel::coop_default(),
        _ => SchedModel::Partitioned {
            assignments: partitions.iter().cloned().enumerate().collect(),
        },
    }
}

/// Three processes of `cores / 2` threads each — 1.5× oversubscribed while their bursts
/// overlap — alternating 5–7 ms compute bursts with 40–50 ms sleeps, longer than the
/// 20 ms SCHED_COOP quantum: the quantum expires while a process (or the whole machine)
/// is idle, and each wake-up burst meets idle cores, so this is where a dispatch that
/// skips empty picks could move the quantum ring.
fn idle_gap_case(cores: usize, model: usize) -> SimReport {
    let mut engine = Engine::new(
        Machine::small_numa(cores, 2),
        &model_of(model, &partitions(cores, 3)),
    );
    for p in 0..3u64 {
        let pid = engine.add_process(format!("g{p}"), 1.0);
        let program = Program::new(format!("g{p}"))
            .extend_with(4, |prog, unit| {
                prog.compute(us(5_000 + 1_000 * p))
                    .unit_mark(unit)
                    .sleep(us(40_000 + 5_000 * p))
            })
            .build();
        for t in 0..cores as u64 / 2 {
            engine.add_thread_at(pid, program.clone(), us(1_000 * p + 10 * t));
        }
    }
    engine.run()
}

#[test]
fn sim_reports_are_bit_identical_to_the_recorded_digests() {
    let reports: Vec<[SimReport; 3]> = (0..DIGESTS.len() as u64)
        .map(|seed| [0, 1, 2].map(|model| run_case(seed, model, None)))
        .collect();
    // Non-vacuity: the corpus preempts, yields, saturates the bandwidth cap, stamps unit
    // marks, and the preemptive models finish every run.
    assert!(reports.iter().any(|r| r[0].metrics.preemptions > 0));
    assert!(reports.iter().any(|r| r[1].metrics.yields > 0));
    assert!(reports.iter().any(|r| r[0].peak_bandwidth() >= 100.0));
    assert!(reports.iter().all(|r| !r[0].unit_marks.is_empty()));
    assert!(reports.iter().all(|r| !r[0].deadlocked && !r[2].deadlocked));

    let actual: Vec<[u64; 3]> = reports.iter().map(digests).collect();
    assert!(
        actual == DIGESTS,
        "SimReport digests moved — a behaviour change. Actual table:\n{}",
        render(actual.iter().map(|&row| ("", row)))
    );
}

#[test]
fn wide_machine_reports_are_bit_identical_to_the_recorded_digests() {
    let reports: Vec<[SimReport; 3]> = WIDE_DIGESTS
        .iter()
        .map(|&(cores, seed, _)| {
            [0, 1, 2].map(|model| match seed {
                Some(seed) => run_case(seed, model, Some(cores)),
                None => idle_gap_case(cores, model),
            })
        })
        .collect();
    // Non-vacuity: every run places threads in the last word of its machine's cores, and
    // the preemptive models preempt and finish every run.
    for (row, &(cores, seed, _)) in reports.iter().zip(&WIDE_DIGESTS) {
        assert!(
            !row[0].deadlocked && !row[2].deadlocked,
            "{cores} cores, {seed:?}"
        );
        let last_word = cores / 64 * 64;
        for r in row {
            assert!(r.thread_cores.values().flatten().any(|&c| c >= last_word));
        }
    }
    assert!(reports.iter().any(|r| r[0].metrics.preemptions > 0));

    let actual: Vec<[u64; 3]> = reports.iter().map(digests).collect();
    let recorded: Vec<[u64; 3]> = WIDE_DIGESTS.iter().map(|row| row.2).collect();
    assert!(
        actual == recorded,
        "wide SimReport digests moved — a behaviour change. Actual table:\n{}",
        render(
            WIDE_DIGESTS
                .iter()
                .zip(&actual)
                .map(|(&(cores, seed, _), &row)| (format!("({cores}, {seed:?}, "), row))
        )
    );
}

fn digests(row: &[SimReport; 3]) -> [u64; 3] {
    [0, 1, 2].map(|model| fnv1a(&format!("{:?}", row[model])))
}

fn render<S: std::fmt::Display>(rows: impl Iterator<Item = (S, [u64; 3])>) -> String {
    rows.map(|(head, row)| {
        format!(
            "    {head}[{:#018x}, {:#018x}, {:#018x}],",
            row[0], row[1], row[2]
        )
    })
    .collect::<Vec<_>>()
    .join("\n")
}
