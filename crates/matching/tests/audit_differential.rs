//! The slot-walking blocking-pair audit against the per-edge predicates.
//!
//! `count_blocking_pairs_with`, `blocking_pairs_with` and
//! `eps_blocking_pairs_with` walk each man's list by slot and read the
//! woman's rank from the instance's mirror. `is_blocking` and
//! `is_eps_blocking` look both ranks up per edge, so they are an
//! independent reference: on arbitrary instances and matchings (unmatched
//! players included) the audit must equal `inst.edges()` filtered by them.

use asm_congest::SplitRng;
use asm_instance::{generators, Instance};
use asm_matching::{
    blocking_pairs_with, count_blocking_pairs_with, count_eps_blocking_pairs_with,
    eps_blocking_pairs_with, is_blocking, is_eps_blocking, BlockingScratch, Matching,
};
use proptest::prelude::*;

fn arb_instance() -> impl Strategy<Value = Instance> {
    (0u8..7, 1usize..24, any::<u64>()).prop_map(|(family, n, seed)| match family {
        0 => generators::complete(n, seed),
        1 => generators::erdos_renyi(n, n / 2 + 1, 0.3, seed),
        2 => generators::regular(n, (n / 3).max(1), seed),
        3 => generators::zipf(n, (n / 2).max(1), 1.1, seed),
        4 => generators::almost_regular(n.max(6), 2, 3.0, seed),
        5 => generators::adversarial_chain(n),
        _ => generators::noisy_master(n, 1.0, seed),
    })
}

/// A matching over random edges: each edge, in a seeded order, joins when
/// both ends are free and a coin with bias `keep` agrees.
fn random_matching(inst: &Instance, seed: u64, keep: f64) -> Matching {
    let mut rng = SplitRng::new(seed);
    let mut edges: Vec<_> = inst.edges().collect();
    rng.shuffle(&mut edges);
    let mut m = Matching::new(inst.ids().num_players());
    for (man, woman) in edges {
        if !m.is_matched(man) && !m.is_matched(woman) && rng.next_bool(keep) {
            m.add_pair(man, woman).unwrap();
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn audit_equals_the_per_edge_predicates(
        inst in arb_instance(),
        seed in any::<u64>(),
        keep_pct in 0u64..101,
        eps_pct in 0u64..151,
    ) {
        let m = random_matching(&inst, seed, keep_pct as f64 / 100.0);
        let mut scratch = BlockingScratch::new();

        let blocking: Vec<_> = inst
            .edges()
            .filter(|&(a, b)| is_blocking(&inst, &m, a, b))
            .collect();
        prop_assert_eq!(blocking_pairs_with(&inst, &m, &mut scratch), blocking.clone());
        prop_assert_eq!(count_blocking_pairs_with(&inst, &m, &mut scratch), blocking.len());

        for eps in [0.0, 0.5, eps_pct as f64 / 100.0] {
            let eps_blocking: Vec<_> = inst
                .edges()
                .filter(|&(a, b)| is_eps_blocking(&inst, &m, a, b, eps))
                .collect();
            prop_assert_eq!(
                eps_blocking_pairs_with(&inst, &m, eps, &mut scratch),
                eps_blocking.clone()
            );
            prop_assert_eq!(
                count_eps_blocking_pairs_with(&inst, &m, eps, &mut scratch),
                eps_blocking.len()
            );
        }
    }
}

#[test]
fn eps_zero_counts_matched_edges_and_ties() {
    // With ε = 0 a zero gain qualifies, so every matched edge is
    // 0-blocking: the walk must not stop at the man's partner.
    let inst = generators::complete(5, 3);
    let m = random_matching(&inst, 1, 1.0);
    assert_eq!(m.len(), 5);
    let mut scratch = BlockingScratch::new();
    let pairs = eps_blocking_pairs_with(&inst, &m, 0.0, &mut scratch);
    for man in inst.ids().men() {
        let woman = m.partner(man).unwrap();
        assert!(is_eps_blocking(&inst, &m, man, woman, 0.0));
        assert!(pairs.contains(&(man, woman)));
    }
}
