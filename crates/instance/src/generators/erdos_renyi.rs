//! Erdős–Rényi random incomplete preferences.

use super::from_men_adjacency;
use crate::Instance;
use asm_congest::SplitRng;

/// Generates an incomplete instance where each (man, woman) pair is
/// mutually acceptable independently with probability `p`, and each player
/// ranks their acceptable partners uniformly at random.
///
/// This is the "arbitrary preferences" regime of the main theorems: degrees
/// are irregular (Binomial), some players may be isolated, and α is
/// typically large.
///
/// # Sampling
///
/// Man by man, every woman in index order gets one Bernoulli(`p`) draw,
/// `num_women · num_men` draws in all (1M at `n = 1024`). Each woman is
/// written to the man's next row slot and the row length advances by the
/// draw's outcome, so a coin at `p = 1/2` never steers a branch; the
/// draws, and the instance, are those of testing each pair in turn.
///
/// # Examples
///
/// ```
/// let inst = asm_instance::generators::erdos_renyi(20, 20, 0.3, 1);
/// assert!(inst.num_edges() > 0);
/// assert!(inst.num_edges() < 400);
/// ```
///
/// # Panics
///
/// Panics if `p` is not within `[0, 1]`.
pub fn erdos_renyi(num_women: usize, num_men: usize, p: f64, seed: u64) -> Instance {
    assert!(
        (0.0..=1.0).contains(&p),
        "edge probability must be in [0, 1]"
    );
    let mut rng = SplitRng::new(seed).split(0x02, (num_women as u64) << 32 | num_men as u64);
    // `row[..len]` is the current man's row, `row[len]` the latest woman.
    let mut row = vec![0usize; num_women];
    let men_adj: Vec<Vec<usize>> = (0..num_men)
        .map(|_| {
            let mut len = 0;
            for i in 0..num_women {
                row[len] = i;
                len += usize::from(rng.next_bool(p));
            }
            row[..len].to_vec()
        })
        .collect();
    from_men_adjacency(num_women, num_men, men_adj, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The plain rows, filtered with a branch on every coin.
    /// `erdos_renyi` must build the same instance from the same draws.
    fn reference_erdos_renyi(num_women: usize, num_men: usize, p: f64, seed: u64) -> Instance {
        let mut rng = SplitRng::new(seed).split(0x02, (num_women as u64) << 32 | num_men as u64);
        let men_adj: Vec<Vec<usize>> = (0..num_men)
            .map(|_| (0..num_women).filter(|_| rng.next_bool(p)).collect())
            .collect();
        from_men_adjacency(num_women, num_men, men_adj, &mut rng)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn builds_what_the_filtered_reference_builds(
            num_women in 0usize..301,
            num_men in 0usize..301,
            p_millionths in 0u32..1_000_001,
            seed in any::<u64>(),
        ) {
            let p = f64::from(p_millionths) / 1e6;
            prop_assert_eq!(
                erdos_renyi(num_women, num_men, p, seed),
                reference_erdos_renyi(num_women, num_men, p, seed)
            );
        }
    }

    #[test]
    fn builds_what_the_reference_builds_at_the_edges() {
        let sides = [0, 1, 2, 37];
        for p in [0.0, 1e-9, 0.5, 1.0 - 1e-9, 1.0] {
            for num_women in sides {
                for num_men in sides {
                    assert_eq!(
                        erdos_renyi(num_women, num_men, p, 3),
                        reference_erdos_renyi(num_women, num_men, p, 3),
                        "erdos_renyi({num_women}x{num_men}, {p})"
                    );
                }
            }
        }
    }

    #[test]
    fn p_zero_gives_empty_graph() {
        let inst = erdos_renyi(10, 10, 0.0, 1);
        assert_eq!(inst.num_edges(), 0);
    }

    #[test]
    fn p_one_gives_complete_graph() {
        let inst = erdos_renyi(10, 10, 1.0, 1);
        assert!(inst.is_complete());
    }

    #[test]
    fn edge_count_near_expectation() {
        let inst = erdos_renyi(50, 50, 0.5, 7);
        let e = inst.num_edges() as f64;
        assert!((1000.0..1500.0).contains(&e), "edges = {e}");
    }

    #[test]
    fn unequal_sides_supported() {
        let inst = erdos_renyi(5, 15, 0.4, 2);
        assert_eq!(inst.ids().num_women(), 5);
        assert_eq!(inst.ids().num_men(), 15);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn invalid_probability_panics() {
        erdos_renyi(2, 2, 1.5, 0);
    }
}
