//! Golden schedules: FNV-1a digests of the real scheduler's recorded event sequences for
//! the five `sched_fuzz` configs × seeds 0–15.
//!
//! A fuzz seed pins an op sequence, and the recorded run of that sequence is the
//! scheduler's decision sequence: every submit, drain, enqueue, pop, grant, yield,
//! migration and teardown, in recording order. The digest covers each event's `Debug`
//! rendering and leaves out `at_nanos`, so it depends on decisions, not on timing. The
//! configs are time-free by construction: a 20 ms quantum that no 64-op run reaches, or a
//! 1 ns one that every pop crosses. A refactor that claims "no behaviour change" must
//! leave every constant below untouched. A change to pick, wake or grant order moves
//! some of them and has to re-record them with the reason (the failure message prints
//! the recomputed table in this file's syntax).
//!
//! This is the recording-side twin of `crates/simsched/tests/report_digests.rs`.

use usf::nosv::fuzz::{execute_recorded, generate, FuzzConfig};

/// Seeds per config.
const SEEDS: usize = 16;

/// Per config, in [`configs`] order, the digest of seeds 0–15.
///
/// Re-recorded when the fuzzer gained its pause op (`FuzzOp::Pause`), which changes every
/// generated sequence: a paused task carries its last core into that core's shard on
/// resubmit, so shard 1's local rung is now exercised, and a `ShardLadder` with its
/// local and steal rungs swapped moves `base/0`, `base/2`, `cross-valve/3` and
/// `cross-valve/7`. Before, no fuzzed task carried a preference and that swap moved
/// nothing. The op also found an orphaned waiter (a task of a deregistered process that
/// pauses while holding its core parks forever; `base/10`, `base/15` and
/// `cross-valve/10` failed on it), fixed in `Scheduler::block_prologue`. With the
/// previous scheduler and the new generator, 75 of these values were the same; the fix
/// changes `valve/5`, `domains/9`, `domains/11`, `cross-valve/5` and `cross-valve/10`,
/// whose released task no longer records a `Submit` and `IntakeDrain` when resubmitted.
const DIGESTS: [[u64; SEEDS]; 5] = [
    [
        0xe1d26eea8af55a68,
        0x73596cbe393cb744,
        0xe7b8ff3e2811aed2,
        0x75334acb0be1ab9a,
        0xa53a3cc5b65f1b7e,
        0x2f4ce1b34202ff88,
        0x2135fc47186036d1,
        0x78099c5e5209ccf6,
        0x87f73373df2f6058,
        0x4a42e0359d4ebd4c,
        0xe7e6fae595cc11da,
        0x41b025deff779d89,
        0x2440a795714fabb3,
        0x40ada0b314368bbc,
        0xd65fe0fb152c14a4,
        0xf25fb83a3272d134,
    ],
    [
        0xa1292be0e8381a72,
        0x648351248c651faf,
        0x11a379aaec8be1bd,
        0xae7910e3a6040110,
        0x2d5604f1ecc27e95,
        0xec63694ef5c6ce04,
        0x400add1b603a0633,
        0xd61db32fb49899b4,
        0xea14429a8bb2d5ef,
        0x87eb5d9dd219ce14,
        0x2b231f4b02117c76,
        0xade18c76463837eb,
        0xe09786dc81c8a1cf,
        0xa7aeda3f35d4e58c,
        0xedf2b29c6e20588b,
        0xc9b82324af0ee351,
    ],
    [
        0xf407a284d0bfc28c,
        0xabae9ea23a5dcc95,
        0x1c73e8961124900d,
        0x14372e8e912ab9ec,
        0xde2f1bc22e253f12,
        0x4f20034f95341cca,
        0xbc45cfa07a610c6d,
        0xd8e298cb0daca515,
        0x6efc6a64a7aca6d2,
        0xe42df0749bc6c1a0,
        0xfe2d971ca0e0d56c,
        0x1ef68691fa07457a,
        0x04093622234146fa,
        0x42e1d2fb9f1177d6,
        0x68323a9ace182791,
        0xc04bf1256082b65d,
    ],
    [
        0xf9e56d6b979a78ff,
        0xc0c8abd3e4b819e0,
        0x31734b488026162a,
        0x4f90fb31138c20d1,
        0x0ba14a7d43506f7e,
        0x65b104efdb13688b,
        0x445f3609fd17fd1d,
        0x2d1c2dc3e56e0754,
        0x2063d274b877aa03,
        0x0d4f2eec22cb6863,
        0x8d5ec3dab6c0176e,
        0x31bb3da8c89660a5,
        0x990f198dd4a53818,
        0x348aaf75e2134c9d,
        0x89ec9d9ffb7d291a,
        0x55842863eb1c7e79,
    ],
    [
        0x4f75a6ac5671b6f2,
        0x49caba86523bba1b,
        0x1f33d28f6e827985,
        0xe462090638df8a07,
        0x61ba3f401ab0c411,
        0x75ebd2365f321443,
        0xb87a7e5062839b9b,
        0xe8cefa22d03fe463,
        0x5dfc28e9520a2e23,
        0x86bd191652f01e71,
        0x6c7b2275b8c05ac7,
        0x0d9af48e2ac49e12,
        0x1cbfe9d8da1125e6,
        0x1566c00af3fe3201,
        0xd4d15da0107cca2b,
        0xfe21407631ffa49a,
    ],
];

/// The `sched_fuzz` config matrix, by the names its output uses.
fn configs() -> [(&'static str, FuzzConfig); 5] {
    [
        ("base", FuzzConfig::base()),
        ("valve", FuzzConfig::valve()),
        ("shutdown", FuzzConfig::shutdown_biased()),
        ("domains", FuzzConfig::domain_heavy()),
        ("cross-valve", FuzzConfig::cross_valve()),
    ]
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Record one seeded run (it must pass every fuzz invariant) and digest its events.
fn digest(name: &str, cfg: &FuzzConfig, seed: u64) -> u64 {
    let ops = generate(cfg, seed);
    let (result, _, entries) = execute_recorded(cfg, &ops, None);
    if let Err(failure) = result {
        panic!("{name} seed {seed}: the recorded run failed: {failure:?}");
    }
    entries.iter().fold(0xcbf2_9ce4_8422_2325, |h, e| {
        fnv1a(h, format!("{:?}\n", e.event).as_bytes())
    })
}

#[test]
fn recorded_schedules_match_their_digests() {
    let mut table = String::new();
    let mut moved = Vec::new();
    for ((name, cfg), expected) in configs().iter().zip(DIGESTS) {
        table.push_str("    [\n");
        for (seed, want) in expected.into_iter().enumerate() {
            let got = digest(name, cfg, seed as u64);
            table.push_str(&format!("        {got:#018x},\n"));
            if got != want {
                moved.push(format!("{name}/{seed}"));
            }
        }
        table.push_str("    ],\n");
    }
    assert!(
        moved.is_empty(),
        "{} schedules moved: {}\nrecomputed table:\n[\n{table}]",
        moved.len(),
        moved.join(" ")
    );
}
