//! Correlated preferences: master lists with swap noise.

use crate::{Instance, InstanceBuilder};
use asm_congest::SplitRng;

/// The largest `noise` [`noisy_master`] accepts. Each of the `2n` lists
/// makes `round(noise · n)` swaps, so the bound keeps the work within
/// `2 · MAX_NOISE · n²` draws, a constant multiple of the `n²` entries,
/// as for every other complete-list generator. Without it a huge `noise`
/// (say `1e300`) saturates the swap count to `usize::MAX` and the
/// generator never returns.
pub const MAX_NOISE: f64 = 1024.0;

/// Generates complete preferences interpolating between a shared *master
/// list* and independent uniform rankings.
///
/// Each player starts from a common master ranking of the opposite side
/// and applies `noise · n` random adjacent transpositions. `noise = 0`
/// reproduces [`crate::generators::master_list`] (maximal contention:
/// everyone agrees); large `noise` approaches
/// [`crate::generators::complete`] (independent preferences). Eriksson &
/// Häggström \[2\] study exactly this kind of correlated-preference
/// structure when arguing about decentralized market instability, which
/// makes the family a natural stress axis for ASM's acceptance logic.
///
/// # Examples
///
/// ```
/// let strict = asm_instance::generators::noisy_master(12, 0.0, 5);
/// let loose = asm_instance::generators::noisy_master(12, 8.0, 5);
/// // Zero noise: all men agree.
/// let first = strict.prefs(strict.ids().man(0)).ranked().to_vec();
/// assert!((1..12).all(|j| strict.prefs(strict.ids().man(j)).ranked() == first.as_slice()));
/// // Heavy noise: they almost surely do not.
/// let l0 = loose.prefs(loose.ids().man(0)).ranked().to_vec();
/// assert!((1..12).any(|j| loose.prefs(loose.ids().man(j)).ranked() != l0.as_slice()));
/// ```
///
/// # Panics
///
/// Panics if `noise` is negative or above [`MAX_NOISE`].
pub fn noisy_master(n: usize, noise: f64, seed: u64) -> Instance {
    assert!(noise >= 0.0, "noise must be nonnegative");
    assert!(noise <= MAX_NOISE, "noise must be at most {MAX_NOISE}");
    let mut rng = SplitRng::new(seed).split(0x08, n as u64);
    let swaps = (noise * n as f64).round() as usize;

    let mut master_women: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut master_women);
    let mut master_men: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut master_men);

    let perturb = |master: &[usize], rng: &mut SplitRng| -> Vec<usize> {
        let mut list = master.to_vec();
        for _ in 0..swaps {
            if n >= 2 {
                let i = rng.next_range(n - 1);
                list.swap(i, i + 1);
            }
        }
        list
    };

    let mut b = InstanceBuilder::new(n, n);
    for j in 0..n {
        let list = perturb(&master_women, &mut rng);
        b = b.man(j, list);
    }
    for i in 0..n {
        let list = perturb(&master_men, &mut rng);
        b = b.woman(i, list);
    }
    b.build().expect("complete lists are symmetric")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_complete() {
        for noise in [0.0, 0.5, 4.0] {
            let inst = noisy_master(10, noise, 1);
            assert!(inst.is_complete());
        }
    }

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(noisy_master(8, 1.0, 3), noisy_master(8, 1.0, 3));
        assert_ne!(noisy_master(8, 1.0, 3), noisy_master(8, 1.0, 4));
    }

    #[test]
    fn noise_increases_disagreement() {
        let n = 16;
        let kendall = |inst: &Instance| -> usize {
            // Count pairwise list differences between man 0 and man 1.
            let a = inst.prefs(inst.ids().man(0)).ranked();
            let b = inst.prefs(inst.ids().man(1)).ranked();
            a.iter().zip(b.iter()).filter(|(x, y)| x != y).count()
        };
        let quiet = kendall(&noisy_master(n, 0.0, 7));
        let loud = kendall(&noisy_master(n, 8.0, 7));
        assert_eq!(quiet, 0);
        assert!(loud > 0);
    }

    #[test]
    fn single_player_edge_case() {
        let inst = noisy_master(1, 3.0, 1);
        assert_eq!(inst.num_edges(), 1);
    }
}
