//! Shared algorithm state for the vector ("fast") engine.

use crate::QuantizedPrefs;
use asm_congest::NodeId;
use asm_instance::Instance;
use asm_matching::Matching;

/// The combined state of all players during an `ASM` run (Section 3.1):
/// quantized preferences `Q`, current partners `p`, the men's active sets
/// `A` (represented implicitly as "surviving members of the active
/// quantile"), and the removed-from-play flags used by
/// `AlmostRegularASM`.
///
/// `Q` is kept per slot of the instance's own lists: the state copies no
/// list, and a rejection reaches the other end of its edge through the
/// instance's mirror ranks ([`Instance::mirror`]).
#[derive(Clone, Debug)]
pub struct AsmState {
    /// Quantile count `k`.
    pub k: usize,
    /// Per-player quantized preferences over the slots of
    /// `inst.prefs(v)`, indexed by node id.
    pub quant: Vec<QuantizedPrefs>,
    /// Per-player current partner.
    pub partner: Vec<Option<NodeId>>,
    /// Men's active quantile: `A = ` surviving members of this quantile.
    /// `None` means `A = ∅`.
    pub active_quantile: Vec<Option<u32>>,
    /// `AlmostRegularASM` only: players permanently removed from play
    /// after violating maximality in an `AMM` call.
    pub removed_from_play: Vec<bool>,
}

impl AsmState {
    /// Initializes the state from an instance: all quantiles full, no
    /// partners, all `A = ∅`.
    pub fn new(inst: &Instance, k: usize) -> Self {
        let n = inst.ids().num_players();
        let quant = inst
            .ids()
            .players()
            .map(|v| QuantizedPrefs::new(inst.degree(v), k))
            .collect();
        AsmState {
            k,
            quant,
            partner: vec![None; n],
            active_quantile: vec![None; n],
            removed_from_play: vec![false; n],
        }
    }

    /// The man's active set `A` as slots of his list: the surviving
    /// members of his active quantile.
    pub fn active_slots(&self, man: NodeId) -> impl Iterator<Item = usize> + '_ {
        let q = &self.quant[man.index()];
        self.active_quantile[man.index()]
            .into_iter()
            .flat_map(move |a| q.live_in(a))
    }

    /// Whether a man is *good* (Section 4): matched, or rejected by every
    /// acceptable partner.
    pub fn is_good(&self, man: NodeId) -> bool {
        self.partner[man.index()].is_some() || self.quant[man.index()].is_exhausted()
    }

    /// Applies a mutual rejection of the edge in `v`'s slot `slot`: both
    /// ends remove it from their `Q` (the far end's slot is the mirror
    /// rank minus one), and a man rejected by his own partner becomes
    /// unmatched (step 5 of `ProposalRound`).
    pub fn reject(&mut self, inst: &Instance, v: NodeId, slot: usize) {
        let u = inst.prefs(v).ranked()[slot];
        self.quant[v.index()].remove(slot);
        self.quant[u.index()].remove(inst.mirror(v)[slot] as usize - 1);
        if self.partner[v.index()] == Some(u) {
            self.partner[v.index()] = None;
            self.partner[u.index()] = None;
        }
    }

    /// Extracts the current matching.
    pub fn matching(&self) -> Matching {
        let mut m = Matching::new(self.partner.len());
        for (i, p) in self.partner.iter().enumerate() {
            if let Some(v) = p {
                let u = NodeId::new(i as u32);
                if u < *v {
                    m.add_pair(u, *v).expect("partner table is symmetric");
                }
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asm_instance::generators;

    #[test]
    fn initial_state_shape() {
        let inst = generators::complete(4, 1);
        let st = AsmState::new(&inst, 2);
        assert_eq!(st.quant.len(), 8);
        assert!(st.partner.iter().all(Option::is_none));
        for v in inst.ids().players() {
            assert_eq!(st.quant[v.index()].remaining(), 4);
        }
        let m0 = inst.ids().man(0);
        assert_eq!(st.active_slots(m0).count(), 0);
        assert!(!st.is_good(m0));
    }

    #[test]
    fn active_set_follows_quantile() {
        let inst = generators::complete(4, 1);
        let mut st = AsmState::new(&inst, 2);
        let m0 = inst.ids().man(0);
        st.active_quantile[m0.index()] = Some(1);
        let a: Vec<usize> = st.active_slots(m0).collect();
        assert_eq!(a, vec![0, 1], "first quantile of a degree-4 list with k=2");
        // Rejections shrink A.
        st.reject(&inst, m0, a[0]);
        assert_eq!(st.active_slots(m0).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn reject_removes_both_ends_and_unmatches_partners() {
        let inst = generators::complete(2, 1);
        let mut st = AsmState::new(&inst, 2);
        let (m, w) = (inst.ids().man(0), inst.ids().woman(0));
        st.partner[m.index()] = Some(w);
        st.partner[w.index()] = Some(m);
        let slot = inst.prefs(w).slot_of(m).unwrap();
        st.reject(&inst, w, slot);
        assert_eq!(st.partner[m.index()], None);
        assert_eq!(st.partner[w.index()], None);
        assert!(!st.quant[w.index()].is_live(slot));
        let back = inst.prefs(m).slot_of(w).unwrap();
        assert!(!st.quant[m.index()].is_live(back));
        assert_eq!(st.quant[m.index()].remaining(), 1);
    }

    #[test]
    fn good_men_classification() {
        let inst = generators::complete(2, 1);
        let mut st = AsmState::new(&inst, 2);
        let m = inst.ids().man(0);
        assert!(!st.is_good(m));
        st.partner[m.index()] = Some(inst.ids().woman(0));
        assert!(st.is_good(m), "matched men are good");
        st.partner[m.index()] = None;
        st.quant[m.index()].remove(0);
        st.quant[m.index()].remove(1);
        assert!(st.is_good(m), "fully rejected men are good");
    }

    #[test]
    fn matching_extraction_is_symmetric() {
        let inst = generators::complete(3, 1);
        let mut st = AsmState::new(&inst, 2);
        let (m1, w2) = (inst.ids().man(1), inst.ids().woman(2));
        st.partner[m1.index()] = Some(w2);
        st.partner[w2.index()] = Some(m1);
        let m = st.matching();
        assert_eq!(m.len(), 1);
        assert!(m.contains_pair(m1, w2));
    }
}
