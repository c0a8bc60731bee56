//! Quantized preferences (Section 3.1).
//!
//! Each player divides their preference list into `k` quantiles:
//! `Q₁` holds the `⌈deg/k⌉` most favored partners, `Q₂` the next
//! `⌈deg/k⌉`, and so on. Formally, partner `u` with rank `P(u)` lands in
//! quantile `q(u) = ⌈P(u)·k / deg⌉`.
//!
//! > **Paper note.** The paper prints `q(u) = ⌈P(u)/k⌉`, which would make
//! > quantiles of size `k`; the accompanying prose ("Q₁ is the set of v's
//! > deg(v)/k favorite partners") and every use in the analysis imply
//! > quantiles of size `deg/k`, which is what we implement
//! > (see DESIGN.md §3).
//!
//! During the algorithm, partners are only ever **removed** (rejections);
//! `Q` never grows. Quantiles are addressed by *slot* of a preference
//! list (slot `i` holds the partner of rank `i + 1`): quantile `q` is the
//! slot range `[(q−1)·deg/k, q·deg/k)`. [`quantile_of`] and [`slots_of`]
//! are that arithmetic, and both engines call them, so they cannot
//! disagree on a bound. [`QuantizedPrefs`] is the CONGEST player's own
//! form of `Q`: one removal flag per slot of its list. The fast engine
//! keeps `Q` as a cutoff per woman instead (`crate::state`).

use std::ops::Range;

/// The quantile (1-based) of `slot` on a list of `deg` slots cut into `k`
/// quantiles: `⌈(slot + 1)·k / deg⌉`.
pub(crate) fn quantile_of(slot: usize, deg: usize, k: usize) -> u32 {
    debug_assert!(slot < deg, "slot {slot} is off the list");
    ((slot + 1) * k).div_ceil(deg) as u32
}

/// The slots of quantile `q` on a list of `deg` slots cut into `k`
/// quantiles: `[(q−1)·deg/k, q·deg/k)`, empty past `k`.
pub(crate) fn slots_of(q: u32, deg: usize, k: usize) -> Range<usize> {
    let bound = |q: usize| q.min(k) * deg / k;
    bound((q as usize).saturating_sub(1))..bound(q as usize)
}

/// A player's quantized preference state: the surviving portions of
/// `Q₁, …, Q_k`, addressed by slot of the player's preference list. Each
/// player of the CONGEST engine keeps one, because there a player knows
/// only its own list.
///
/// It stores one removal flag per slot and a cursor on the first live
/// slot, so its size is the player's degree whatever `k` is: quantiles
/// are contiguous slot ranges in rank order, so the best non-empty
/// quantile is the quantile of the first live slot. The partners
/// themselves stay on the list ([`asm_instance::PreferenceList`]).
///
/// # Examples
///
/// ```
/// use asm_core::QuantizedPrefs;
///
/// let mut q = QuantizedPrefs::new(6, 3); // six slots, quantiles of size 2
/// assert_eq!(q.quantile_of(0), 1);
/// assert_eq!(q.quantile_of(5), 3);
/// assert_eq!(q.slots_of(2), 2..4);
/// assert_eq!(q.min_nonempty_quantile(), Some(1));
///
/// q.remove(0);
/// q.remove(1);
/// assert_eq!(q.min_nonempty_quantile(), Some(2));
/// assert_eq!(q.remaining(), 4);
/// assert_eq!(q.live_from(2).collect::<Vec<_>>(), vec![2, 3, 4, 5]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuantizedPrefs {
    k: usize,
    /// Removal flags per slot.
    removed: Vec<bool>,
    remaining_total: usize,
    /// The first live slot (the degree once every slot is removed).
    first_live: usize,
}

impl QuantizedPrefs {
    /// Quantizes a preference list of `degree` slots into `k` quantiles,
    /// all present.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > u32::MAX` (quantiles are numbered in
    /// `u32`).
    pub fn new(degree: usize, k: usize) -> Self {
        assert!(k > 0, "quantile count must be positive");
        assert!(
            u32::try_from(k).is_ok(),
            "quantile count {k} exceeds u32::MAX"
        );
        QuantizedPrefs {
            k,
            removed: vec![false; degree],
            remaining_total: degree,
            first_live: 0,
        }
    }

    /// The quantile count `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The original degree (before any removals).
    pub fn original_degree(&self) -> usize {
        self.removed.len()
    }

    /// `|Q|`: partners not yet removed.
    pub fn remaining(&self) -> usize {
        self.remaining_total
    }

    /// Whether every partner has been removed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining_total == 0
    }

    /// The quantile (1-based) of `slot`, regardless of removal:
    /// `⌈(slot + 1)·k / deg⌉`.
    pub fn quantile_of(&self, slot: usize) -> u32 {
        quantile_of(slot, self.removed.len(), self.k)
    }

    /// The slots of quantile `q`, removed or not: `[(q−1)·deg/k, q·deg/k)`.
    pub fn slots_of(&self, q: u32) -> Range<usize> {
        slots_of(q, self.removed.len(), self.k)
    }

    /// Whether `slot` is still present (not removed).
    pub fn is_live(&self, slot: usize) -> bool {
        !self.removed[slot]
    }

    /// Removes `slot`; returns `true` if it was present.
    pub fn remove(&mut self, slot: usize) -> bool {
        if self.removed[slot] {
            return false;
        }
        self.removed[slot] = true;
        self.remaining_total -= 1;
        while self.removed.get(self.first_live) == Some(&true) {
            self.first_live += 1;
        }
        true
    }

    /// The best (smallest-index) quantile with surviving members: the
    /// quantile of the first live slot.
    pub fn min_nonempty_quantile(&self) -> Option<u32> {
        (self.first_live < self.removed.len()).then(|| self.quantile_of(self.first_live))
    }

    /// Surviving slots of quantile `q`, in rank order.
    pub fn live_in(&self, q: u32) -> impl Iterator<Item = usize> + '_ {
        self.live_within(self.slots_of(q))
    }

    /// Surviving slots in quantile `q` or worse (index ≥ `q`), in rank
    /// order — the reject set of `ProposalRound` step 4 before excluding
    /// the new partner.
    pub fn live_from(&self, q: u32) -> impl Iterator<Item = usize> + '_ {
        let start = self.slots_of(q).start;
        self.live_within(start..self.removed.len())
    }

    fn live_within(&self, slots: Range<usize>) -> impl Iterator<Item = usize> + '_ {
        slots.filter(|&s| !self.removed[s])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(q: &QuantizedPrefs, quant: u32) -> Vec<usize> {
        q.live_in(quant).collect()
    }

    #[test]
    fn quantile_sizes_are_balanced() {
        // deg 10, k 4: ceil(rank*4/10) => sizes [2,3,2,3].
        let q = QuantizedPrefs::new(10, 4);
        let sizes: Vec<usize> = (1..=4).map(|i| members(&q, i).len()).collect();
        assert_eq!(sizes, vec![2, 3, 2, 3]);
        assert_eq!(q.quantile_of(0), 1);
        assert_eq!(q.quantile_of(9), 4);
    }

    #[test]
    fn k_greater_than_degree_gives_singletons() {
        // Section 3.2: with k = deg, ProposalRound mimics Gale–Shapley —
        // each quantile is one rank. With k > deg some quantiles are empty.
        let q = QuantizedPrefs::new(3, 8);
        assert_eq!(q.quantile_of(0), 3); // ceil(1*8/3)
        assert_eq!(q.quantile_of(1), 6);
        assert_eq!(q.quantile_of(2), 8);
        for qq in 1..=8u32 {
            assert!(members(&q, qq).len() <= 1);
        }
        assert_eq!(q.min_nonempty_quantile(), Some(3));
    }

    #[test]
    fn k_equal_degree_is_identity() {
        let q = QuantizedPrefs::new(5, 5);
        for (rank, slot) in (1..=5u32).zip(0..5) {
            assert_eq!(q.quantile_of(slot), rank);
            assert_eq!(q.slots_of(rank), slot..slot + 1);
        }
    }

    #[test]
    fn removal_updates_counts_idempotently() {
        let mut q = QuantizedPrefs::new(6, 3);
        assert!(q.remove(2));
        assert!(!q.remove(2), "second removal is a no-op");
        assert_eq!(q.remaining(), 5);
        assert!(!q.is_live(2));
        assert_eq!(q.quantile_of(2), 2, "quantile survives removal");
    }

    #[test]
    fn min_nonempty_tracks_removals() {
        let mut q = QuantizedPrefs::new(4, 2);
        assert_eq!(q.min_nonempty_quantile(), Some(1));
        q.remove(0);
        q.remove(1);
        assert_eq!(q.min_nonempty_quantile(), Some(2));
        q.remove(2);
        q.remove(3);
        assert_eq!(q.min_nonempty_quantile(), None);
        assert!(q.is_exhausted());
    }

    #[test]
    fn live_from_is_the_tail() {
        let q = QuantizedPrefs::new(6, 3);
        assert_eq!(q.live_from(2).collect::<Vec<_>>(), vec![2, 3, 4, 5]);
        assert_eq!(q.live_from(1).count(), 6);
        assert_eq!(q.live_from(4).count(), 0);
    }

    #[test]
    fn empty_list() {
        let q = QuantizedPrefs::new(0, 4);
        assert!(q.is_exhausted());
        assert_eq!(q.min_nonempty_quantile(), None);
        assert_eq!(q.original_degree(), 0);
        assert_eq!(q.live_from(1).count(), 0);
        assert_eq!(q.slots_of(1), 0..0);
    }

    #[test]
    #[should_panic(expected = "quantile count")]
    fn zero_k_panics() {
        QuantizedPrefs::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds u32::MAX")]
    fn k_past_u32_panics() {
        QuantizedPrefs::new(3, u32::MAX as usize + 1);
    }

    #[test]
    fn a_huge_k_costs_the_degree_not_k() {
        // k = u32::MAX: one counter per quantile would be 16 GiB.
        let k = u32::MAX as usize;
        let mut q = QuantizedPrefs::new(3, k);
        assert_eq!(q.min_nonempty_quantile(), Some(u32::MAX / 3));
        q.remove(0);
        assert_eq!(q.min_nonempty_quantile(), Some((2 * k).div_ceil(3) as u32));
        q.remove(2);
        q.remove(1);
        assert_eq!(q.min_nonempty_quantile(), None);
    }

    #[test]
    fn live_preserves_rank_order() {
        let mut q = QuantizedPrefs::new(3, 3);
        q.remove(1);
        assert_eq!(q.live_from(1).collect::<Vec<_>>(), vec![0, 2]);
    }
}
