//! Geometric (spatial) preferences.

use crate::{IdSpace, Instance};
use asm_congest::{NodeId, SplitRng};

/// Generates a *geometric* instance: players are uniform random points in
/// the unit square, every player ranks the `d` nearest members of the
/// opposite side by distance, and only **mutually** near pairs become
/// edges (preferences must be symmetric).
///
/// This models physically embedded markets (the ride-hailing and
/// social-network scenarios of the paper's introduction): preferences are
/// *correlated* — nearby players agree about who is close — unlike the
/// independent uniform rankings of [`crate::generators::complete`].
/// Correlated preferences stress the quantile machinery differently:
/// contention clusters spatially.
///
/// Degrees are at most `d` but vary (mutuality filtering), so the men's
/// side is typically almost-regular with a small α.
///
/// # Examples
///
/// ```
/// let inst = asm_instance::generators::geometric(40, 8, 3);
/// let (lo, hi) = inst.men_degree_bounds().unwrap();
/// assert!(hi <= 8);
/// assert!(lo <= hi);
/// assert!(inst.num_edges() > 0);
/// ```
///
/// # Panics
///
/// Panics if `d > n`.
#[allow(clippy::needless_range_loop)] // parallel nearest-neighbor tables
pub fn geometric(n: usize, d: usize, seed: u64) -> Instance {
    assert!(d <= n, "degree d = {d} cannot exceed n = {n}");
    let mut rng = SplitRng::new(seed).split(0x07, (n as u64) << 32 | d as u64);
    let point = |rng: &mut SplitRng| (rng.next_f64(), rng.next_f64());
    let women: Vec<(f64, f64)> = (0..n).map(|_| point(&mut rng)).collect();
    let men: Vec<(f64, f64)> = (0..n).map(|_| point(&mut rng)).collect();

    let dist2 = |a: (f64, f64), b: (f64, f64)| {
        let (dx, dy) = (a.0 - b.0, a.1 - b.1);
        dx * dx + dy * dy
    };
    // k-nearest sets for both sides.
    let nearest = |from: &[(f64, f64)], to: &[(f64, f64)]| -> Vec<Vec<usize>> {
        from.iter()
            .map(|&p| {
                let mut order: Vec<usize> = (0..to.len()).collect();
                order.sort_by(|&a, &b| {
                    dist2(p, to[a])
                        .partial_cmp(&dist2(p, to[b]))
                        .expect("distances are finite")
                        .then(a.cmp(&b))
                });
                order.truncate(d);
                order
            })
            .collect()
    };
    let men_near = nearest(&men, &women); // men_near[j] = woman indices by distance
    let women_near = nearest(&women, &men);

    // Keep only mutual pairs, preserving each side's distance order.
    let ids = IdSpace::new(n, n);
    let mut prefs: Vec<Vec<NodeId>> = Vec::with_capacity(2 * n);
    for i in 0..n {
        let list: Vec<NodeId> = women_near[i]
            .iter()
            .filter(|&&j| men_near[j].contains(&i))
            .map(|&j| ids.man(j))
            .collect();
        prefs.push(list);
    }
    for j in 0..n {
        let list: Vec<NodeId> = men_near[j]
            .iter()
            .filter(|&&i| women_near[i].contains(&j))
            .map(|&i| ids.woman(i))
            .collect();
        prefs.push(list);
    }
    Instance::link(ids, prefs).expect("mutual filtering preserves symmetry")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(geometric(20, 5, 9), geometric(20, 5, 9));
        assert_ne!(geometric(20, 5, 9), geometric(20, 5, 10));
    }

    #[test]
    fn degrees_bounded_by_d() {
        let inst = geometric(30, 6, 1);
        for v in inst.ids().players() {
            assert!(inst.degree(v) <= 6);
        }
    }

    #[test]
    fn preferences_ordered_by_distance_consistency() {
        // Symmetry is validated by the linker; spot-check mutuality.
        let inst = geometric(25, 4, 2);
        for (m, w) in inst.edges() {
            assert!(inst.rank(w, m).is_some());
        }
    }

    #[test]
    fn d_equals_n_is_near_complete() {
        let inst = geometric(6, 6, 3);
        assert!(inst.is_complete(), "with d = n, everyone is mutual");
    }

    #[test]
    fn alpha_is_moderate() {
        let inst = geometric(60, 8, 4);
        let a = inst.alpha();
        assert!(a.is_finite() || inst.men_degree_bounds().unwrap().0 == 0);
    }
}
