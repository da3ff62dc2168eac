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

/// Per config, in [`configs`] order, the digest of seeds 0–15. Recorded before
/// `scheduler.rs` was split into its lock levels; 20 separate processes of the test
/// profile and 20 of the release profile agreed on every value.
const DIGESTS: [[u64; SEEDS]; 5] = [
    [
        0x8f7ea5f3c6866941,
        0x9b44f932c84a37f9,
        0x9178bc7ef600897a,
        0x50acaa8d3bf25d4f,
        0x6ff67c2f46efd35d,
        0x0dd59080e5eaef84,
        0x77890e06716d1d3a,
        0x39fcd131389b0822,
        0x773c3510ea834522,
        0x90d5c7ab99da7da8,
        0xf4b155f8cfeacb45,
        0xbdd975468fd637bc,
        0x5df9ae51d8b39d39,
        0x63fc585705d5aa63,
        0x9fb6775054fbc26c,
        0x5ebd1cd735df10bb,
    ],
    [
        0xbfefcf3cbea6596f,
        0xc3128017ff120552,
        0xaebcc1bca2e16db5,
        0xaeaccd1a0b7e0bc2,
        0xc6f0f6104ab6b154,
        0x23aae89658e62675,
        0x7d2bc3d5a7c34e23,
        0xb2704c6bdbeeadd0,
        0x860973c66329ae3b,
        0xde87a970ca86cf73,
        0x8c0190f27eab4fa3,
        0x661299464ec6cefb,
        0x2628c982a39256ee,
        0x54f5f2d11d5d69ff,
        0xa70904f68b28e111,
        0xa54d7e089c8e22ca,
    ],
    [
        0x1c3f05ca8787bf18,
        0x673268f0237cc79a,
        0xdb243f6d7b6a68a6,
        0xba6bfd4b43deb65d,
        0xadbc87c74ed9ea16,
        0xa636675504004a8f,
        0x0118b93f5c2db1d5,
        0x30cf3a13f2470033,
        0xf8a711429f2eeeed,
        0xa584e98930aab6b5,
        0x88b92c176f5cc533,
        0x830c8edeabaf7415,
        0x7150f9081e5e1019,
        0xd465a9a25152e734,
        0xebf1bca27ee5a607,
        0x8946810c75f89303,
    ],
    [
        0x053b40dc873d7e30,
        0x937b088204805468,
        0xe407ba648916f662,
        0xaa33a53defd275da,
        0x5150ab89280d0af0,
        0xbec3cc3602b447f7,
        0xea80437174563c2d,
        0x0918f04b5f73b978,
        0x7c9d589b9847ed8a,
        0x81dc7b31e537b27a,
        0x9c1f860f606bde19,
        0x26e6efa97ae6067d,
        0x890f4762846116b4,
        0x7b442776e55999cb,
        0x24c1b5ff747d3097,
        0xef0182dd9a44e081,
    ],
    [
        0x6b50c73fae122e4b,
        0x1e2fa606549a8744,
        0x7df4ddb1332944b2,
        0x475aa2f34f885c06,
        0xae34baa6bb329042,
        0x48a94e875e3c3bd9,
        0x8ec806113f8189fc,
        0xd8d369dd7b3abb2a,
        0x774144cb03562936,
        0xaea7e555f13eaa58,
        0xb456fbf10cb0eb75,
        0x716ef9ed05abd174,
        0x86a52855f931de84,
        0x01dfe8ae24d8fd61,
        0xc35100757f3548ff,
        0x2c318b45bef656bd,
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
