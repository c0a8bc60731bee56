//! Output pins of market resolves under seeded churn.
//!
//! Per generator family at n = 64, a market takes 300 `seeded_op`
//! mutations (arrivals, departures, reorders, truncations, swaps and
//! grown lists) and resolves after each one with `auto`; forks of the
//! same state resolve `warm` and `cold`. Every report's path, fallback
//! flag, cycles, rounds, proposals, blocking pairs, matched count and
//! matching fold into one constant per family. The constants were
//! computed on the engine whose loop scanned every man and woman per
//! cycle and whose rewind cascade binary-searched ranks; any rewrite of
//! either must reproduce them.

use asm_instance::generators::GeneratorConfig;
use asm_market::{MarketState, ResolveMode, ResolveReport};

const N: usize = 64;
const MUTATIONS: u64 = 300;
const SEED: u64 = 5;
const EPS: f64 = 0.5;

/// One constant per family, in `GeneratorConfig::all_families` order.
const PINS: [(&str, u64); 9] = [
    ("complete", 7556948476457946731),
    ("erdos_renyi", 2928274828419731622),
    ("regular", 10286616431628322043),
    ("almost_regular", 5498813585300729315),
    ("zipf", 10035766027573144569),
    ("chain", 9035197826177428861),
    ("master_list", 4348869830777628141),
    ("noisy_master", 9960549759872383424),
    ("geometric", 6308274194312668069),
];

/// Order-sensitive 64-bit fold.
fn fold(h: u64, x: u64) -> u64 {
    (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95)
}

fn fold_report(mut h: u64, r: &ResolveReport) -> u64 {
    for x in [
        u64::from(r.warm),
        u64::from(r.fallback),
        r.cycles,
        r.rounds,
        r.proposals,
        r.blocking_pairs,
        r.matched,
        r.num_edges,
        r.epoch,
    ] {
        h = fold(h, x);
    }
    for (u, v) in r.matching.pairs() {
        h = fold(fold(h, u64::from(u.raw())), u64::from(v.raw()));
    }
    h
}

fn family_digest(family: usize) -> (&'static str, u64) {
    let config = GeneratorConfig::all_families(N, SEED).swap_remove(family);
    let mut state = MarketState::from_instance(&config.build(), EPS).expect("valid eps");
    let mut h = fold_report(0, &state.resolve(ResolveMode::Auto));
    for i in 0..MUTATIONS {
        let op = state.seeded_op(SEED.wrapping_mul(0x9E37_79B9).wrapping_add(i));
        state.apply(&op).expect("derived ops always validate");
        let mut warm = state.clone();
        let mut cold = state.clone();
        h = fold_report(h, &state.resolve(ResolveMode::Auto));
        h = fold_report(h, &warm.resolve(ResolveMode::Warm));
        h = fold_report(h, &cold.resolve(ResolveMode::Cold));
    }
    (config.family(), h)
}

#[test]
fn churned_resolves_reproduce_the_pinned_reports() {
    let got: Vec<(&str, u64)> = (0..PINS.len()).map(family_digest).collect();
    assert_eq!(got, PINS);
}
