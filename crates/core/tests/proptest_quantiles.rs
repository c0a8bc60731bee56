//! Property-based tests of the quantized-preference structure against a
//! brute-force model: counts, quantile boundaries, and removal behavior
//! must agree for every list length, k, and removal sequence.

use asm_core::QuantizedPrefs;
use proptest::prelude::*;

/// Brute-force model over slots `0..deg`: the definition applied
/// literally.
struct Model {
    deg: usize,
    k: usize,
    removed: Vec<bool>,
}

impl Model {
    fn quantile_of_rank(&self, rank_1based: usize) -> u32 {
        ((rank_1based * self.k).div_ceil(self.deg)) as u32
    }

    fn slots_in_quantile(&self, q: u32) -> Vec<usize> {
        (0..self.deg)
            .filter(|&i| self.quantile_of_rank(i + 1) == q)
            .collect()
    }

    fn surviving_in_quantile(&self, q: u32) -> Vec<usize> {
        self.slots_in_quantile(q)
            .into_iter()
            .filter(|&i| !self.removed[i])
            .collect()
    }

    fn min_nonempty(&self) -> Option<u32> {
        (1..=self.k as u32).find(|&q| !self.surviving_in_quantile(q).is_empty())
    }
}

fn arb_case() -> impl Strategy<Value = (usize, usize, Vec<usize>)> {
    (1usize..40, 1usize..20).prop_flat_map(|(deg, k)| {
        let removals = proptest::collection::vec(0..deg, 0..deg * 2);
        (Just(deg), Just(k), removals)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn matches_brute_force_model((deg, k, removals) in arb_case()) {
        let mut q = QuantizedPrefs::new(deg, k);
        let mut model = Model { deg, k, removed: vec![false; deg] };
        // Slot ranges match the definition before any removal.
        for quant in 1..=k as u32 {
            prop_assert_eq!(q.slots_of(quant).collect::<Vec<_>>(), model.slots_in_quantile(quant));
        }
        // Interleave removals with checks.
        for &r in &removals {
            let fresh = q.remove(r);
            prop_assert_eq!(fresh, !model.removed[r], "removal freshness");
            model.removed[r] = true;

            prop_assert_eq!(
                q.remaining(),
                model.removed.iter().filter(|&&x| !x).count()
            );
            prop_assert_eq!(q.min_nonempty_quantile(), model.min_nonempty());
            for quant in 1..=k as u32 {
                prop_assert_eq!(q.live_in(quant).collect::<Vec<_>>(), model.surviving_in_quantile(quant));
            }
        }
        // Quantile assignment matches the definition for every slot.
        for i in 0..deg {
            prop_assert_eq!(q.quantile_of(i), model.quantile_of_rank(i + 1));
            prop_assert_eq!(q.is_live(i), !model.removed[i]);
        }
    }

    #[test]
    fn live_from_is_suffix_union((deg, k, removals) in arb_case()) {
        let mut q = QuantizedPrefs::new(deg, k);
        for &r in &removals {
            q.remove(r);
        }
        for threshold in 1..=k as u32 {
            let worse: Vec<usize> = q.live_from(threshold).collect();
            let expected: Vec<usize> = (threshold..=k as u32)
                .flat_map(|quant| q.live_in(quant))
                .collect();
            // Both are in rank order, so direct equality holds.
            prop_assert_eq!(worse, expected);
        }
    }

    #[test]
    fn quantile_count_and_sizes((deg, k, _) in arb_case()) {
        let q = QuantizedPrefs::new(deg, k);
        // Quantiles partition the list...
        let total: usize = (1..=k as u32).map(|qq| q.live_in(qq).count()).sum();
        prop_assert_eq!(total, deg);
        // ...into blocks of size <= ceil(deg/k)...
        let cap = deg.div_ceil(k);
        for qq in 1..=k as u32 {
            prop_assert!(q.live_in(qq).count() <= cap);
        }
        // ...and quantile indices are monotone in rank.
        let mut last = 0;
        for i in 0..deg {
            let now = q.quantile_of(i);
            prop_assert!(now >= last);
            last = now;
        }
    }
}
