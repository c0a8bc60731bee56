//! Output pins of the synchronous propose–accept loop started empty.
//!
//! For every generator family at n ∈ {16, 64} and cycle budgets
//! {0, 1, 2, 5, none}, [`propose_accept`]'s cycles, proposals,
//! convergence flag and matched pairs fold into one constant per family.
//! The constants were computed on the loop that scanned every man and
//! woman in each cycle; any rewrite of the loop must reproduce them.

use asm_instance::generators::GeneratorConfig;
use asm_matching::{propose_accept, Matching};

const SIZES: [usize; 2] = [16, 64];
const BUDGETS: [Option<u64>; 5] = [Some(0), Some(1), Some(2), Some(5), None];
const SEED: u64 = 11;

/// One constant per family, in `GeneratorConfig::all_families` order.
const PINS: [(&str, u64); 9] = [
    ("complete", 16769537873444074011),
    ("erdos_renyi", 15692225663400719356),
    ("regular", 14111482186529316127),
    ("almost_regular", 15528897140882981959),
    ("zipf", 12945096327300409867),
    ("chain", 14633197360826322853),
    ("master_list", 3416875174306864587),
    ("noisy_master", 16782757384589589725),
    ("geometric", 17019631157341872001),
];

/// Order-sensitive 64-bit fold.
fn fold(h: u64, x: u64) -> u64 {
    (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95)
}

fn family_digest(family: usize) -> (&'static str, u64) {
    let mut name = "";
    let mut h = 0u64;
    for n in SIZES {
        let config = GeneratorConfig::all_families(n, SEED).swap_remove(family);
        name = config.family();
        let inst = config.build();
        let ids = inst.ids();
        for budget in BUDGETS {
            let run = propose_accept(
                &inst,
                Matching::new(ids.num_players()),
                &mut vec![0; ids.num_men()],
                budget,
            );
            assert_eq!(run.rounds, 2 * run.cycles);
            for x in [run.cycles, run.proposals, u64::from(run.converged)] {
                h = fold(h, x);
            }
            for (u, v) in run.matching.pairs() {
                h = fold(fold(h, u64::from(u.raw())), u64::from(v.raw()));
            }
            h = fold(h, run.matching.len() as u64);
        }
    }
    (name, h)
}

#[test]
fn empty_starts_reproduce_the_pinned_runs() {
    let got: Vec<(&str, u64)> = (0..PINS.len()).map(family_digest).collect();
    assert_eq!(got, PINS);
}
