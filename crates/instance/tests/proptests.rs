//! Property-based tests of instance structure: generator invariants, the
//! text format, gender swapping, the hospitals/residents reduction, and
//! the linker against a sort-based reference.

use asm_congest::{NodeId, SplitRng};
use asm_instance::{
    generators, parse_text, to_text, HospitalResidents, IdSpace, Instance, InstanceBuilder,
    InstanceError, RawInstance,
};
use proptest::prelude::*;

fn arb_instance() -> impl Strategy<Value = Instance> {
    (0u8..9, 2usize..20, any::<u64>()).prop_map(|(family, n, seed)| match family {
        0 => generators::complete(n, seed),
        1 => generators::erdos_renyi(n, n + 3, 0.35, seed),
        2 => generators::regular(n, (n / 2).max(1), seed),
        3 => generators::zipf(n, (n / 3).max(1), 1.4, seed),
        4 => generators::almost_regular(n.max(4), 2, 2.0, seed),
        5 => generators::adversarial_chain(n),
        6 => generators::master_list(n, seed),
        7 => generators::geometric(n, (n / 2).max(1), seed),
        _ => generators::noisy_master(n, 1.5, seed),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn symmetry_and_edge_count_hold(inst in arb_instance()) {
        let men_sum: usize = inst.ids().men().map(|m| inst.degree(m)).sum();
        let women_sum: usize = inst.ids().women().map(|w| inst.degree(w)).sum();
        prop_assert_eq!(men_sum, inst.num_edges());
        prop_assert_eq!(women_sum, inst.num_edges());
        for (m, w) in inst.edges() {
            prop_assert!(inst.prefs(w).contains(m));
        }
    }

    #[test]
    fn text_format_round_trips(inst in arb_instance()) {
        let text = to_text(&inst);
        prop_assert_eq!(parse_text(&text).unwrap(), inst);
    }

    #[test]
    fn json_round_trips(inst in arb_instance()) {
        let json = serde_json::to_string(&inst).unwrap();
        let back: Instance = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, inst);
    }

    #[test]
    fn swap_is_an_involution_preserving_ranks(inst in arb_instance()) {
        let swapped = inst.swap_genders();
        prop_assert_eq!(swapped.num_edges(), inst.num_edges());
        prop_assert_eq!(swapped.swap_genders(), inst.clone());
        for (m, w) in inst.edges() {
            prop_assert_eq!(
                inst.rank(m, w),
                swapped.rank(inst.swap_node(m), inst.swap_node(w))
            );
        }
    }

    #[test]
    fn topology_agrees_with_instance(inst in arb_instance()) {
        let topo = inst.topology();
        prop_assert_eq!(topo.num_edges(), inst.num_edges());
        for (m, w) in inst.edges() {
            prop_assert!(topo.has_edge(m, w));
        }
    }

    #[test]
    fn hr_reduction_is_valid(
        residents in 1usize..10,
        hospitals in 1usize..5,
        seed in any::<u64>(),
    ) {
        let mut rng = SplitRng::new(seed);
        let capacities: Vec<usize> = (0..hospitals).map(|_| rng.next_range(4)).collect();
        // Each resident applies to a random nonempty hospital subset.
        let mut resident_prefs: Vec<Vec<usize>> = Vec::new();
        let mut hospital_prefs: Vec<Vec<usize>> = vec![Vec::new(); hospitals];
        for r in 0..residents {
            let mut prefs: Vec<usize> =
                (0..hospitals).filter(|_| rng.next_bool(0.6)).collect();
            rng.shuffle(&mut prefs);
            for &h in &prefs {
                hospital_prefs[h].push(r);
            }
            resident_prefs.push(prefs);
        }
        for list in &mut hospital_prefs {
            rng.shuffle(list);
        }
        let hr = HospitalResidents { resident_prefs: resident_prefs.clone(), hospital_prefs, capacities: capacities.clone() };
        let (inst, map) = hr.to_instance().unwrap();
        prop_assert_eq!(map.num_slots(), capacities.iter().sum::<usize>());
        prop_assert_eq!(inst.ids().num_men(), residents);
        // Every resident's expanded list length = sum of applied capacities.
        for (r, prefs) in resident_prefs.iter().enumerate() {
            let expect: usize = prefs.iter().map(|&h| capacities[h]).sum();
            prop_assert_eq!(inst.degree(inst.ids().man(r)), expect);
        }
    }
}

/// The validation of the sort-based constructors the linker replaced,
/// transcribed: a duplicate in any list (the smallest id the first such
/// list repeats), then the list count, then range and gender, then
/// symmetry, each in `(player, slot)` order.
fn reference_error(num_women: usize, num_men: usize, lists: &[Vec<u32>]) -> Option<InstanceError> {
    let ids = IdSpace::new(num_women, num_men);
    let node = NodeId::new;
    for (v, list) in lists.iter().enumerate() {
        let mut sorted = list.clone();
        sorted.sort_unstable();
        if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
            return Some(InstanceError::DuplicatePartner {
                player: node(v as u32),
                partner: node(w[0]),
            });
        }
    }
    if lists.len() != ids.num_players() {
        return Some(InstanceError::WrongListCount {
            got: lists.len(),
            expected: ids.num_players(),
        });
    }
    for v in ids.players() {
        for &u in &lists[v.index()] {
            let (player, partner) = (v, node(u));
            if u as usize >= ids.num_players() {
                return Some(InstanceError::PartnerOutOfRange { player, partner });
            }
            if ids.gender(partner) == ids.gender(player) {
                return Some(InstanceError::SameGenderPartner { player, partner });
            }
        }
    }
    let sorted: Vec<Vec<u32>> = lists
        .iter()
        .map(|l| {
            let mut l = l.clone();
            l.sort_unstable();
            l
        })
        .collect();
    for v in ids.players() {
        for &u in &lists[v.index()] {
            if sorted[u as usize].binary_search(&v.raw()).is_err() {
                return Some(InstanceError::AsymmetricPreference {
                    player: v,
                    partner: node(u),
                });
            }
        }
    }
    None
}

/// Breaks `raw` with up to four seeded edits: a repeated entry, a repeated
/// out-of-range id, an out-of-range id, a same-gender id, a dropped or an
/// unreciprocated entry (asymmetry either way), or (with `count_edits`) a
/// list too many or too few.
fn corrupt(raw: &mut RawInstance, seed: u64, count_edits: bool) {
    let mut rng = SplitRng::new(seed);
    let n = raw.num_women + raw.num_men;
    for _ in 0..1 + rng.next_range(4) {
        let edits = if count_edits { 8 } else { 7 };
        let v = rng.next_range(raw.prefs.len().max(1));
        let Some(list) = raw.prefs.get_mut(v) else {
            raw.prefs.push(Vec::new());
            continue;
        };
        let at = rng.next_range(list.len() + 1);
        let far = (n + rng.next_range(3)) as u32;
        let is_woman = v < raw.num_women;
        let (own, other) = if is_woman {
            (0..raw.num_women, raw.num_women..n)
        } else {
            (raw.num_women..n, 0..raw.num_women)
        };
        match rng.next_range(edits) {
            0 if !list.is_empty() => {
                // One or two repeated entries.
                for _ in 0..1 + rng.next_range(2) {
                    let again = list[rng.next_range(list.len())];
                    let at = rng.next_range(list.len() + 1);
                    list.insert(at, again);
                }
            }
            1 => {
                list.insert(at, far);
                list.push(far);
            }
            2 => list.insert(at, far),
            3 if !own.is_empty() => list.insert(at, (own.start + rng.next_range(own.len())) as u32),
            4 if !list.is_empty() => {
                list.remove(rng.next_range(list.len()));
            }
            5 if !other.is_empty() => {
                let u = (other.start + rng.next_range(other.len())) as u32;
                if !list.contains(&u) {
                    list.insert(at, u);
                }
            }
            // Swap two entries: still valid, exercises the order.
            6 if list.len() >= 2 => {
                let (a, b) = (rng.next_range(list.len()), rng.next_range(list.len()));
                list.swap(a, b);
            }
            7 => {
                if rng.next_bool(0.5) {
                    raw.prefs.push(Vec::new());
                } else {
                    raw.prefs.pop();
                }
            }
            _ => {}
        }
    }
}

fn builder_from(raw: &RawInstance) -> InstanceBuilder {
    raw.prefs.iter().enumerate().fold(
        InstanceBuilder::new(raw.num_women, raw.num_men),
        |b, (v, list)| b.player(NodeId::new(v as u32), list.iter().map(|&u| NodeId::new(u))),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn linked_mirrors_and_ranks_match_a_sorted_reference(inst in arb_instance()) {
        let ids = inst.ids();
        for v in ids.players() {
            let ranked = inst.prefs(v).ranked();
            prop_assert_eq!(inst.mirror(v).len(), ranked.len());
            for (i, &u) in ranked.iter().enumerate() {
                // P_u(v), read off u's list directly.
                let back = inst.prefs(u).ranked().iter().position(|&x| x == v);
                prop_assert_eq!(Some(inst.mirror(v)[i]), back.map(|p| p as u32 + 1));
            }
            let mut by_id: Vec<(NodeId, u32)> =
                ranked.iter().enumerate().map(|(i, &u)| (u, i as u32 + 1)).collect();
            by_id.sort_unstable();
            for raw in 0..ids.num_players() as u32 + 2 {
                let u = NodeId::new(raw);
                let want = by_id.binary_search_by_key(&u, |&(id, _)| id).ok().map(|i| by_id[i].1);
                prop_assert_eq!(inst.rank(v, u), want);
                prop_assert_eq!(inst.prefs(v).slot_of(u), want.map(|r| r as usize - 1));
            }
        }
    }

    #[test]
    fn malformed_raw_instances_get_the_reference_error(
        inst in arb_instance(),
        seed in any::<u64>(),
    ) {
        let mut raw = RawInstance::from(inst);
        corrupt(&mut raw, seed, true);
        let want = reference_error(raw.num_women, raw.num_men, &raw.prefs);
        let got = Instance::try_from(raw.clone());
        match want {
            Some(e) => prop_assert_eq!(got.err(), Some(e)),
            None => {
                let linked = got.expect("the reference accepts it");
                prop_assert_eq!(RawInstance::from(linked).prefs, raw.prefs);
            }
        }
    }

    #[test]
    fn malformed_builders_get_the_reference_error(
        inst in arb_instance(),
        seed in any::<u64>(),
    ) {
        let mut raw = RawInstance::from(inst);
        corrupt(&mut raw, seed, false);
        let want = reference_error(raw.num_women, raw.num_men, &raw.prefs);
        prop_assert_eq!(builder_from(&raw).build().err(), want);
    }
}

#[test]
fn linker_error_precedence_is_pinned() {
    let raw = |prefs: Vec<Vec<u32>>| RawInstance {
        num_women: 2,
        num_men: 2,
        prefs,
    };
    let node = NodeId::new;
    // A duplicate anywhere outranks everything, even a wrong list count;
    // a list's smallest repeated id is named, out-of-range ids included.
    let cases: Vec<(Vec<Vec<u32>>, InstanceError)> = vec![
        (
            vec![vec![9], vec![], vec![], vec![], vec![1, 7, 7, 9, 9]],
            InstanceError::DuplicatePartner {
                player: node(4),
                partner: node(7),
            },
        ),
        (
            vec![vec![0], vec![2, 3], vec![0, 1, 0]],
            InstanceError::DuplicatePartner {
                player: node(2),
                partner: node(0),
            },
        ),
        (
            vec![vec![9], vec![], vec![1, 0, 1, 5, 0, 5], vec![]],
            InstanceError::DuplicatePartner {
                player: node(2),
                partner: node(0),
            },
        ),
        (
            vec![vec![5], vec![], vec![]],
            InstanceError::WrongListCount {
                got: 3,
                expected: 4,
            },
        ),
        // Range and gender, in (player, slot) order, before symmetry.
        (
            vec![vec![3], vec![2, 1], vec![1, 6], vec![0]],
            InstanceError::SameGenderPartner {
                player: node(1),
                partner: node(1),
            },
        ),
        (
            vec![vec![3], vec![2], vec![1, 6], vec![0, 0xffff_ffff]],
            InstanceError::PartnerOutOfRange {
                player: node(2),
                partner: node(6),
            },
        ),
        // Asymmetry either way: the first unreciprocated (player, slot).
        (
            vec![vec![2, 3], vec![], vec![0], vec![]],
            InstanceError::AsymmetricPreference {
                player: node(0),
                partner: node(3),
            },
        ),
        (
            vec![vec![2], vec![], vec![0, 1], vec![]],
            InstanceError::AsymmetricPreference {
                player: node(2),
                partner: node(1),
            },
        ),
    ];
    for (prefs, want) in cases {
        assert_eq!(
            reference_error(2, 2, &prefs).as_ref(),
            Some(&want),
            "{prefs:?}"
        );
        assert_eq!(
            Instance::try_from(raw(prefs.clone())).err(),
            Some(want),
            "{prefs:?}"
        );
    }
}
