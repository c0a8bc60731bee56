//! Popularity-skewed (Zipf) preferences.

use super::from_men_adjacency;
use crate::Instance;
use asm_congest::SplitRng;

/// Generates a popularity-skewed instance: each of `n` men is acceptable to
/// `d` women chosen with Zipf(`s`) weights, modelling the social-network
/// setting from the paper's introduction where a few participants are
/// universally known and most are niche.
///
/// Woman `i` (after a random relabeling) receives weight `(i+1)^{-s}`; each
/// man samples `d` distinct women from that distribution. `s = 0` recovers
/// uniform sampling; larger `s` concentrates edges on the popular women,
/// producing highly irregular *women's* degrees while men stay `d`-regular
/// — a stress case for the women-side quantile logic.
///
/// # Sampling
///
/// Each man rejection-samples: a draw `r` picks the first woman whose
/// cumulative weight is at least `r · total` (`total` the sum of the
/// weights), and a woman he already holds costs him another draw. After
/// `50·d + 200` draws he takes the remaining women in popularity order
/// instead. At `n = 1024`, `d = 256`, `s = 1.1` a man makes ~862 draws
/// for his 256 women.
///
/// Two things keep those draws cheap without changing a single one of
/// them, so the instance for a given seed is the same as a binary search
/// with a branch on every rejection would build:
///
/// * **Guide table.** `g` buckets (a power of two, at least `4n`) split
///   `[0, 1)`; bucket `b` stores the first woman whose cumulative weight
///   is at least `(b/g) · total`. Since `r` is a multiple of `2^-53`,
///   `b = ⌊r·g⌋` is exact, and a short scan up from the bucket's woman
///   ends at exactly the index a binary search returns, ties and flat
///   (underflowed) tails included.
/// * **Branch-free acceptance.** Every draw is written to the man's next
///   slot and marked taken; the slot count then advances only if the
///   woman was not taken before, so a repeat is overwritten by the next
///   draw instead of steering a hard-to-predict branch.
///
/// # Examples
///
/// ```
/// let inst = asm_instance::generators::zipf(30, 5, 1.2, 11);
/// assert_eq!(inst.num_edges(), 150);
/// assert_eq!(inst.alpha(), 1.0); // men are d-regular
/// ```
///
/// # Panics
///
/// Panics if `d > n` or `s < 0`.
pub fn zipf(n: usize, d: usize, s: f64, seed: u64) -> Instance {
    assert!(d <= n, "degree d = {d} cannot exceed n = {n}");
    assert!(s >= 0.0, "zipf exponent must be nonnegative");
    let mut rng = SplitRng::new(seed).split(0x05, (n as u64) << 32 | d as u64);

    // Random popularity order, then cumulative Zipf weights for sampling.
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    let cdf = ZipfCdf::new(n, s);

    // `taken` marks the current man's choices; it is cleared after each
    // man. `chosen[..len]` holds them, and `chosen[len]` the latest draw.
    let mut taken = vec![false; n];
    let mut chosen = vec![0usize; d];
    let men_adj: Vec<Vec<usize>> = (0..n)
        .map(|_| {
            let mut len = 0;
            // Rejection sampling; fall back to a deterministic fill if the
            // tail gets slow (d close to n with heavy skew).
            let mut attempts = 0usize;
            while len < d {
                attempts += 1;
                if attempts > 50 * d + 200 {
                    for &candidate in &order {
                        if !taken[candidate] {
                            taken[candidate] = true;
                            chosen[len] = candidate;
                            len += 1;
                            if len == d {
                                break;
                            }
                        }
                    }
                    break;
                }
                let candidate = order[cdf.index(rng.next_f64())];
                chosen[len] = candidate;
                len += usize::from(!std::mem::replace(&mut taken[candidate], true));
            }
            for &c in &chosen[..len] {
                taken[c] = false;
            }
            chosen[..len].to_vec()
        })
        .collect();
    from_men_adjacency(n, n, men_adj, &mut rng)
}

/// The cumulative Zipf weights `(i+1)^{-s}`, `i < n`, and a guide table
/// of `g` buckets over them (see [`zipf`]).
struct ZipfCdf {
    cumulative: Vec<f64>,
    total: f64,
    guide: Vec<usize>,
}

impl ZipfCdf {
    fn new(n: usize, s: f64) -> Self {
        let mut total = 0.0;
        let cumulative: Vec<f64> = (0..n)
            .map(|i| {
                total += 1.0 / ((i + 1) as f64).powf(s);
                total
            })
            .collect();
        let buckets = (4 * n).next_power_of_two();
        let guide = (0..buckets)
            .map(|b| {
                let floor = b as f64 / buckets as f64 * total;
                cumulative.partition_point(|&c| c < floor)
            })
            .collect();
        ZipfCdf {
            cumulative,
            total,
            guide,
        }
    }

    /// The first index whose cumulative weight is at least `r · total`,
    /// for a draw `r ∈ [0, 1)` of [`SplitRng::next_f64`]: exactly what
    /// `cumulative.partition_point(|&c| c < r * total)` returns.
    fn index(&self, r: f64) -> usize {
        let x = r * self.total;
        // r ≥ b/g, so the first weight ≥ x is at or after guide[b], and
        // x < total = cumulative[n - 1] ends the scan inside the list.
        let mut i = self.guide[(r * self.guide.len() as f64) as usize];
        while self.cumulative[i] < x {
            i += 1;
        }
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The plain sampler, without a guide table: a binary search per draw
    /// and a branch on each rejection. `zipf` must build the same
    /// instance from the same draws.
    fn reference_zipf(n: usize, d: usize, s: f64, seed: u64) -> Instance {
        assert!(d <= n, "degree d = {d} cannot exceed n = {n}");
        assert!(s >= 0.0, "zipf exponent must be nonnegative");
        let mut rng = SplitRng::new(seed).split(0x05, (n as u64) << 32 | d as u64);

        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for &w in &weights {
            acc += w;
            cumulative.push(acc);
        }

        let mut taken = vec![false; n];
        let men_adj: Vec<Vec<usize>> = (0..n)
            .map(|_| {
                let mut chosen: Vec<usize> = Vec::with_capacity(d);
                let mut attempts = 0usize;
                while chosen.len() < d {
                    attempts += 1;
                    if attempts > 50 * d + 200 {
                        for &candidate in &order {
                            if !taken[candidate] {
                                taken[candidate] = true;
                                chosen.push(candidate);
                                if chosen.len() == d {
                                    break;
                                }
                            }
                        }
                        break;
                    }
                    let x = rng.next_f64() * acc;
                    let idx = cumulative.partition_point(|&c| c < x).min(n - 1);
                    let candidate = order[idx];
                    if !taken[candidate] {
                        taken[candidate] = true;
                        chosen.push(candidate);
                    }
                }
                for &c in &chosen {
                    taken[c] = false;
                }
                chosen
            })
            .collect();
        from_men_adjacency(n, n, men_adj, &mut rng)
    }

    #[test]
    fn guide_table_index_is_the_binary_search_index_ties_included() {
        // Every multiple of 2^-14 hits each bucket edge of these sizes,
        // and with s = 0 (integer cumulative weights) lands exactly on a
        // weight, where only the tie rule decides.
        let draws = (0..1u32 << 14)
            .map(|k| f64::from(k) / f64::from(1u32 << 14))
            .chain([1.0 - f64::EPSILON / 2.0]);
        for s in [0.0, 0.5, 1.1, 400.0, f64::INFINITY] {
            for n in [1, 2, 3, 64, 100] {
                let cdf = ZipfCdf::new(n, s);
                for r in draws.clone() {
                    let x = r * cdf.total;
                    let expected = cdf.cumulative.partition_point(|&c| c < x).min(n - 1);
                    assert_eq!(cdf.index(r), expected, "n = {n}, s = {s}, r = {r}");
                }
            }
        }
    }

    /// Exponents in `[0, 8]`, and one case in four in `[0, 2000]`: past
    /// `s ≈ 131` the weights of a 300-player side start to underflow to
    /// 0, and far earlier they are lost in the rounding of the sum.
    fn exponent() -> impl Strategy<Value = f64> {
        (0u8..4, 0u32..8001).prop_map(|(tag, k)| {
            let s = f64::from(k) / 1000.0;
            if tag == 0 {
                250.0 * s
            } else {
                s
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn builds_what_the_binary_search_reference_builds(
            (n, d) in (0usize..301).prop_flat_map(|n| (Just(n), 0..n + 1)),
            s in exponent(),
            seed in any::<u64>(),
        ) {
            prop_assert_eq!(zipf(n, d, s, seed), reference_zipf(n, d, s, seed));
        }
    }

    #[test]
    fn builds_what_the_reference_builds_at_the_edges() {
        let exponents = [0.0, 1.1, 8.0, 60.0, 400.0, 1100.0, 1e6, f64::INFINITY];
        for n in 0..4 {
            for d in 0..=n {
                for s in exponents {
                    for seed in 0..3 {
                        assert_eq!(
                            zipf(n, d, s, seed),
                            reference_zipf(n, d, s, seed),
                            "zipf({n}, {d}, {s}, {seed})"
                        );
                    }
                }
            }
        }
        for (n, d) in [(64, 0), (64, 1), (64, 64), (128, 128), (300, 8)] {
            for s in exponents {
                assert_eq!(
                    zipf(n, d, s, 5),
                    reference_zipf(n, d, s, 5),
                    "zipf({n}, {d}, {s})"
                );
            }
        }
    }

    #[test]
    fn men_are_d_regular() {
        let inst = zipf(25, 4, 1.0, 1);
        for m in inst.ids().men() {
            assert_eq!(inst.degree(m), 4);
        }
    }

    #[test]
    fn skew_concentrates_women_degrees() {
        let skewed = zipf(60, 5, 2.0, 3);
        let max_w = skewed
            .ids()
            .women()
            .map(|w| skewed.degree(w))
            .max()
            .unwrap();
        // With s = 2 the most popular woman should attract far more than
        // the mean degree of 5.
        assert!(max_w >= 15, "max woman degree = {max_w}");
    }

    #[test]
    fn s_zero_behaves_like_uniform() {
        let inst = zipf(30, 3, 0.0, 5);
        assert_eq!(inst.num_edges(), 90);
    }

    #[test]
    fn d_equals_n_works_via_fallback() {
        let inst = zipf(8, 8, 3.0, 2);
        assert!(inst.is_complete());
    }

    #[test]
    #[should_panic(expected = "cannot exceed")]
    fn oversized_degree_panics() {
        zipf(3, 4, 1.0, 0);
    }
}
