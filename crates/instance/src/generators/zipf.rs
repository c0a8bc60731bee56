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
    let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
    let mut cumulative = Vec::with_capacity(n);
    let mut acc = 0.0;
    for &w in &weights {
        acc += w;
        cumulative.push(acc);
    }

    // `taken` marks the current man's choices; it is cleared after each man.
    let mut taken = vec![false; n];
    let men_adj: Vec<Vec<usize>> = (0..n)
        .map(|_| {
            let mut chosen: Vec<usize> = Vec::with_capacity(d);
            // Rejection sampling; fall back to a deterministic fill if the
            // tail gets slow (d close to n with heavy skew).
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

#[cfg(test)]
mod tests {
    use super::*;

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
