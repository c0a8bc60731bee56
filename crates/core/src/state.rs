//! The fast engine's state: a cutoff per woman and a record per man.
//!
//! In `ProposalRound` (Algorithm 1, steps 4–5) a newly matched woman
//! rejects every suitor in her new partner's quantile or worse, and by
//! Lemma 1 her partner's quantile only improves. Her live list is
//! therefore always a prefix `[0, cut)` of her slots plus her partner's
//! slot, as a Gale–Shapley woman's is, and that is all she stores. A man
//! stores no liveness either: his slot `s` (woman `w`, his rank there
//! `t = mirror − 1`) is live iff `t < cut(w)` or `t` is `w`'s partner
//! slot. Rejections are mutual by construction (step 5).
//!
//! A man keeps one 16-byte record of counts, `|Q|` and `|A|` and the slot
//! range of his active quantile, beside a first-live cursor that only
//! moves forward, because a slot only ever goes from live to dead. A
//! rejection is then a cutoff move on the woman's side and a counter
//! update in the man's record, and `ProposalRound` visits only the men
//! of the proposer list: those with a nonempty active set, in id order.

use crate::quantile::{quantile_of, slots_of};
use asm_congest::NodeId;
use asm_instance::Instance;
use asm_matching::Matching;

/// The partner slot of an unmatched woman.
const NO_PARTNER: u32 = u32::MAX;

/// A woman's live slots: `[0, cut)` and her partner's slot.
#[derive(Clone, Copy, Debug)]
struct Cutoff {
    /// Every slot before `cut` is live; initially her degree.
    cut: u32,
    /// Her partner's slot, [`NO_PARTNER`] while she is unmatched.
    pslot: u32,
}

impl Cutoff {
    fn is_live(self, t: u32) -> bool {
        t < self.cut || t == self.pslot
    }
}

/// A man's counts, packed so that a rejection touches 16 bytes.
#[derive(Clone, Copy, Debug, Default)]
struct ManRecord {
    /// Live slots on his list: `|Q|`.
    remaining: u32,
    /// Live slots in his active range: `|A|`.
    active_live: u32,
    /// His active range `[active_lo, active_hi)`: the slots of his
    /// active quantile, empty while `A = ∅`.
    active_lo: u32,
    active_hi: u32,
}

impl ManRecord {
    /// Books the rejection of his slot `s`.
    fn reject(&mut self, s: u32) {
        self.remaining -= 1;
        if (self.active_lo..self.active_hi).contains(&s) {
            self.active_live -= 1;
        }
    }

    /// `A ← ∅`.
    fn clear_active(&mut self) {
        self.active_live = 0;
        self.active_lo = 0;
        self.active_hi = 0;
    }
}

/// The combined state of all players during an `ASM` run (Section 3.1):
/// quantized preferences `Q` as cutoffs, current partners `p`, the men's
/// active sets `A`, and the removed-from-play flags of
/// `AlmostRegularASM`. It also holds the buffers one `ProposalRound`
/// fills, so that rounds allocate nothing once they are warm.
#[derive(Debug)]
pub(crate) struct AsmState {
    /// Quantile count `k`.
    pub k: usize,
    /// Per-player current partner.
    pub partner: Vec<Option<NodeId>>,
    /// `AlmostRegularASM` only: players permanently removed from play
    /// after violating maximality in an `AMM` call.
    pub removed_from_play: Vec<bool>,
    num_women: usize,
    /// Per woman.
    cutoffs: Vec<Cutoff>,
    /// Per man, indexed by side index.
    men: Vec<ManRecord>,
    /// Per man: every slot before it is dead.
    first_live: Vec<u32>,
    /// Men with a nonempty active set, in id order.
    proposers: Vec<NodeId>,
    /// Per woman: this round's proposals `(man, her slot of him)`, in
    /// man-id order.
    inbox: Vec<Vec<(NodeId, u32)>>,
    /// Women with a nonempty inbox.
    proposed_to: Vec<u32>,
    /// The accepted-proposal graph `G₀`, woman-major.
    g0: Vec<(NodeId, NodeId)>,
}

impl AsmState {
    /// Initializes the state from an instance: all quantiles full, no
    /// partners, all `A = ∅`.
    pub fn new(inst: &Instance, k: usize) -> Self {
        let ids = inst.ids();
        let n = ids.num_players();
        AsmState {
            k,
            partner: vec![None; n],
            removed_from_play: vec![false; n],
            num_women: ids.num_women(),
            cutoffs: ids
                .women()
                .map(|w| Cutoff {
                    cut: inst.degree(w) as u32,
                    pslot: NO_PARTNER,
                })
                .collect(),
            men: ids
                .men()
                .map(|m| ManRecord {
                    remaining: inst.degree(m) as u32,
                    ..ManRecord::default()
                })
                .collect(),
            first_live: vec![0; ids.num_men()],
            proposers: Vec::new(),
            inbox: vec![Vec::new(); ids.num_women()],
            proposed_to: Vec::new(),
            g0: Vec::new(),
        }
    }

    fn record(&self, man: NodeId) -> &ManRecord {
        &self.men[man.index() - self.num_women]
    }

    fn record_mut(&mut self, man: NodeId) -> &mut ManRecord {
        &mut self.men[man.index() - self.num_women]
    }

    /// `|Q|` of a man: his live slots.
    pub fn remaining(&self, man: NodeId) -> usize {
        self.record(man).remaining as usize
    }

    /// Whether every woman on a man's list has rejected him.
    pub fn is_exhausted(&self, man: NodeId) -> bool {
        self.record(man).remaining == 0
    }

    /// Whether a man is *good* (Section 4): matched, or rejected by every
    /// acceptable partner.
    pub fn is_good(&self, man: NodeId) -> bool {
        self.partner[man.index()].is_some() || self.is_exhausted(man)
    }

    /// Whether a man passes the outer-loop activity gate and could still
    /// make progress: unmatched, not removed, `|Q| ≥ gate` and `Q ≠ ∅`.
    fn participates(&self, man: NodeId, gate: usize) -> bool {
        !self.removed_from_play[man.index()]
            && self.partner[man.index()].is_none()
            && !self.is_exhausted(man)
            && self.remaining(man) >= gate
    }

    /// Whether any man [participates](Self::participates).
    pub fn any_participant(&self, inst: &Instance, gate: usize) -> bool {
        inst.ids().men().any(|m| self.participates(m, gate))
    }

    /// Men with a nonempty active set, in id order.
    pub fn proposers(&self) -> &[NodeId] {
        &self.proposers
    }

    /// `QuantileMatch`'s arming step: every participating man arms
    /// `A ← ` his best nonempty quantile, and the proposer list is
    /// rebuilt. A man who does not participate keeps whatever active
    /// set he still has.
    pub fn arm(&mut self, inst: &Instance, gate: usize) {
        self.proposers.clear();
        for m in inst.ids().men() {
            if self.participates(m, gate) {
                self.arm_man(inst, m);
            }
            if self.record(m).active_live > 0 {
                self.proposers.push(m);
            }
        }
    }

    /// `A ← Q_i` for the man's best nonempty quantile `i`: the quantile
    /// of his first live slot. He must have one.
    fn arm_man(&mut self, inst: &Instance, man: NodeId) {
        let j = man.index() - self.num_women;
        let (ranked, mirror) = (inst.prefs(man).ranked(), inst.mirror(man));
        let live = |s: usize| self.cutoffs[ranked[s].index()].is_live(mirror[s] - 1);
        let first = (self.first_live[j] as usize..ranked.len())
            .find(|&s| live(s))
            .expect("a man with a nonempty Q has a live slot");
        let active = slots_of(
            quantile_of(first, ranked.len(), self.k),
            ranked.len(),
            self.k,
        );
        let active_live = (first..active.end).filter(|&s| live(s)).count();
        self.first_live[j] = first as u32;
        let r = self.record_mut(man);
        r.active_live = active_live as u32;
        r.active_lo = active.start as u32;
        r.active_hi = active.end as u32;
    }

    /// `AlmostRegularASM`: removes a man from play. He never proposes
    /// again, so his active set goes too.
    pub fn remove_from_play(&mut self, man: NodeId) {
        self.removed_from_play[man.index()] = true;
        self.record_mut(man).clear_active();
    }

    /// Step 1: every proposer proposes to his active set. Fills the
    /// women's inboxes and returns the number of proposals.
    pub fn propose(&mut self, inst: &Instance) -> u64 {
        let mut sent = 0;
        for &m in &self.proposers {
            let r = *self.record(m);
            let (ranked, mirror) = (inst.prefs(m).ranked(), inst.mirror(m));
            let before = sent;
            for s in r.active_lo as usize..r.active_hi as usize {
                let (w, t) = (ranked[s].index(), mirror[s] - 1);
                if self.cutoffs[w].is_live(t) {
                    if self.inbox[w].is_empty() {
                        self.proposed_to.push(w as u32);
                    }
                    self.inbox[w].push((m, t));
                    sent += 1;
                }
            }
            debug_assert_eq!(sent - before, u64::from(r.active_live), "|A| of {m}");
        }
        sent
    }

    /// Step 2: each proposed-to woman accepts her best proposing
    /// quantile. Quantiles are slot ranges, so that is every proposer
    /// whose slot lies before the end of the best proposer's quantile.
    /// Fills `G₀` woman-major, in woman-id then man-id order, and returns
    /// the number of acceptances.
    pub fn accept(&mut self, inst: &Instance) -> u64 {
        self.proposed_to.sort_unstable();
        let mut accepted = 0;
        for &i in &self.proposed_to {
            let w = NodeId::new(i);
            let props = &self.inbox[i as usize];
            debug_assert!(
                props
                    .iter()
                    .all(|&(_, t)| self.cutoffs[i as usize].is_live(t)),
                "a proposer must still be on the woman's list"
            );
            let best = props
                .iter()
                .map(|&(_, t)| t)
                .min()
                .expect("she was proposed to");
            let deg = inst.degree(w);
            let cutoff = slots_of(quantile_of(best as usize, deg, self.k), deg, self.k).end;
            for &(m, t) in props {
                if (t as usize) < cutoff {
                    self.g0.push((m, w));
                    accepted += 1;
                }
            }
        }
        accepted
    }

    /// The accepted-proposal graph `G₀` of step 2.
    pub fn g0(&self) -> &[(NodeId, NodeId)] {
        &self.g0
    }

    /// Steps 4–5 for a pair `(m, w)` of `M₀`: `w` takes `m` and rejects
    /// every live suitor in his quantile or worse, which is her slots
    /// `[start of his quantile, cut)` and her previous partner, who is
    /// unmatched; `m` clears his active set. Returns the rejections.
    pub fn adopt(&mut self, inst: &Instance, m: NodeId, w: NodeId) -> u64 {
        let kept = self.inbox[w.index()]
            .iter()
            .find(|&&(p, _)| p == m)
            .expect("M₀ matches along proposals")
            .1;
        let deg = inst.degree(w);
        let cut = slots_of(quantile_of(kept as usize, deg, self.k), deg, self.k).start as u32;
        let old = self.cutoffs[w.index()];
        debug_assert!(
            cut <= kept && kept < old.cut,
            "Lemma 1: her cutoff only falls"
        );
        let (ranked, mirror) = (inst.prefs(w).ranked(), inst.mirror(w));
        let swept = cut as usize..old.cut as usize;
        for (&u, &rank) in ranked[swept.clone()].iter().zip(&mirror[swept]) {
            if u != m {
                self.record_mut(u).reject(rank - 1);
            }
        }
        let mut rejections = u64::from(old.cut - cut - 1);
        if let Some(p) = self.partner[w.index()] {
            self.record_mut(p).reject(mirror[old.pslot as usize] - 1);
            self.partner[p.index()] = None;
            rejections += 1;
        }
        self.cutoffs[w.index()] = Cutoff { cut, pslot: kept };
        self.partner[w.index()] = Some(m);
        self.partner[m.index()] = Some(w);
        self.record_mut(m).clear_active();
        rejections
    }

    /// Ends a `ProposalRound`: empties its buffers, and drops from the
    /// proposer list every man whose active set is now empty.
    pub fn end_round(&mut self) {
        for &i in &self.proposed_to {
            self.inbox[i as usize].clear();
        }
        self.proposed_to.clear();
        self.g0.clear();
        let (men, num_women) = (&self.men, self.num_women);
        self.proposers
            .retain(|m| men[m.index() - num_women].active_live > 0);
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

/// Read-only views for the unit tests and the property battery.
#[cfg(test)]
impl AsmState {
    /// Whether slot `t` of woman `w`'s list is live.
    pub fn is_live_at_woman(&self, w: NodeId, t: usize) -> bool {
        self.cutoffs[w.index()].is_live(t as u32)
    }

    /// Whether slot `s` of a man's list is live, read from the woman in
    /// it.
    pub fn is_live(&self, inst: &Instance, man: NodeId, s: usize) -> bool {
        let w = inst.prefs(man).ranked()[s];
        self.is_live_at_woman(w, inst.mirror(man)[s] as usize - 1)
    }

    /// The man's active set `A` as slots of his list: the live slots of
    /// his active quantile.
    pub fn active_slots<'a>(
        &'a self,
        inst: &'a Instance,
        man: NodeId,
    ) -> impl Iterator<Item = usize> + 'a {
        self.active_range(man)
            .filter(move |&s| self.is_live(inst, man, s))
    }

    /// The slots of the man's active quantile; empty while `A = ∅`.
    pub fn active_range(&self, man: NodeId) -> std::ops::Range<usize> {
        let r = self.record(man);
        r.active_lo as usize..r.active_hi as usize
    }

    /// `|A|` as the man's record counts it.
    pub fn active_live(&self, man: NodeId) -> usize {
        self.record(man).active_live as usize
    }

    /// The man's first-live cursor.
    pub fn first_live(&self, man: NodeId) -> usize {
        self.first_live[man.index() - self.num_women] as usize
    }

    /// Woman `w`'s cutoff: her slots before it are live.
    pub fn cut(&self, w: NodeId) -> usize {
        self.cutoffs[w.index()].cut as usize
    }

    /// Woman `w`'s partner's slot.
    pub fn partner_slot(&self, w: NodeId) -> Option<usize> {
        let pslot = self.cutoffs[w.index()].pslot;
        (pslot != NO_PARTNER).then_some(pslot as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asm_instance::{generators, InstanceBuilder};

    /// `M₀ = {(m, w)}` as steps 4–5 see it: `m` proposed to `w`, who
    /// takes him. Returns the rejections.
    fn adopt_pair(st: &mut AsmState, inst: &Instance, m: NodeId, w: NodeId) -> u64 {
        let t = inst.prefs(w).slot_of(m).unwrap() as u32;
        st.inbox[w.index()].push((m, t));
        st.proposed_to.push(w.raw());
        let rejections = st.adopt(inst, m, w);
        st.end_round();
        rejections
    }

    /// Woman 0 ranks m1 > m0 and man 0 ranks w0 > w1 > w2 > w3; every
    /// other list holds one entry.
    fn upgrade_instance() -> Instance {
        InstanceBuilder::new(4, 2)
            .woman(0, [1, 0])
            .woman(1, [0])
            .woman(2, [0])
            .woman(3, [0])
            .man(0, [0, 1, 2, 3])
            .man(1, [0])
            .build()
            .unwrap()
    }

    #[test]
    fn initial_state_shape() {
        let inst = generators::complete(4, 1);
        let st = AsmState::new(&inst, 2);
        assert_eq!(st.partner.len(), 8);
        assert!(st.partner.iter().all(Option::is_none));
        for w in inst.ids().women() {
            assert_eq!(st.cut(w), 4);
            assert_eq!(st.partner_slot(w), None);
        }
        for m in inst.ids().men() {
            assert_eq!(st.remaining(m), 4);
            assert!((0..4).all(|s| st.is_live(&inst, m, s)));
        }
        let m0 = inst.ids().man(0);
        assert_eq!(st.active_slots(&inst, m0).count(), 0);
        assert!(st.proposers().is_empty());
        assert!(!st.is_good(m0));
    }

    #[test]
    fn active_set_follows_quantile() {
        let inst = upgrade_instance();
        let (m0, m1, w0) = (inst.ids().man(0), inst.ids().man(1), inst.ids().woman(0));
        let mut st = AsmState::new(&inst, 2);
        st.arm(&inst, 1);
        let a: Vec<usize> = st.active_slots(&inst, m0).collect();
        assert_eq!(a, vec![0, 1], "first quantile of a degree-4 list with k=2");
        assert_eq!(st.active_live(m0), 2);
        assert_eq!(st.proposers(), [m0, m1]);
        // Rejections shrink A: w0 takes m1, whom she ranks above m0.
        assert_eq!(adopt_pair(&mut st, &inst, m1, w0), 1);
        assert_eq!(st.active_slots(&inst, m0).collect::<Vec<_>>(), vec![1]);
        assert_eq!(st.active_live(m0), 1);
        assert_eq!(st.proposers(), [m0], "m1 matched, so A = ∅");
    }

    #[test]
    fn upgrade_rejects_both_ends_and_unmatches_the_previous_partner() {
        let inst = upgrade_instance();
        let (m0, m1, w0) = (inst.ids().man(0), inst.ids().man(1), inst.ids().woman(0));
        let mut st = AsmState::new(&inst, 2);
        // m0 is her slot 1, the second quantile: nothing worse to reject.
        assert_eq!(adopt_pair(&mut st, &inst, m0, w0), 0);
        assert_eq!((st.cut(w0), st.partner_slot(w0)), (1, Some(1)));
        assert_eq!(st.partner[m0.index()], Some(w0));
        // m1 is her slot 0: she rejects m0, who is unmatched.
        assert_eq!(adopt_pair(&mut st, &inst, m1, w0), 1);
        assert_eq!((st.cut(w0), st.partner_slot(w0)), (0, Some(0)));
        assert_eq!(st.partner[m0.index()], None);
        assert_eq!(st.partner[w0.index()], Some(m1));
        assert_eq!(st.partner[m1.index()], Some(w0));
        assert!(!st.is_live_at_woman(w0, 1));
        assert!(!st.is_live(&inst, m0, 0), "rejections are mutual");
        assert_eq!(st.remaining(m0), 3);
    }

    #[test]
    fn good_men_classification() {
        let inst = InstanceBuilder::new(1, 2)
            .woman(0, [1, 0])
            .man(0, [0])
            .man(1, [0])
            .build()
            .unwrap();
        let (m0, m1, w0) = (inst.ids().man(0), inst.ids().man(1), inst.ids().woman(0));
        let mut st = AsmState::new(&inst, 2);
        assert!(!st.is_good(m0));
        adopt_pair(&mut st, &inst, m0, w0);
        assert!(st.is_good(m0), "matched men are good");
        adopt_pair(&mut st, &inst, m1, w0);
        assert_eq!(st.partner[m0.index()], None);
        assert!(st.is_exhausted(m0));
        assert!(st.is_good(m0), "fully rejected men are good");
    }

    #[test]
    fn arming_skips_dead_slots_to_the_best_nonempty_quantile() {
        let inst = upgrade_instance();
        let (m0, m1, w0) = (inst.ids().man(0), inst.ids().man(1), inst.ids().woman(0));
        // k = 4 on m0's degree-4 list: one slot per quantile.
        let mut st = AsmState::new(&inst, 4);
        adopt_pair(&mut st, &inst, m1, w0);
        st.arm(&inst, 1);
        assert_eq!(st.first_live(m0), 1);
        assert_eq!(st.active_range(m0), 1..2, "Q₁ is empty, so A ← Q₂");
        assert_eq!(st.proposers(), [m0]);
    }

    #[test]
    fn removal_from_play_clears_the_active_set() {
        let inst = upgrade_instance();
        let m0 = inst.ids().man(0);
        let mut st = AsmState::new(&inst, 2);
        st.arm(&inst, 1);
        st.remove_from_play(m0);
        assert_eq!(st.active_slots(&inst, m0).count(), 0);
        st.arm(&inst, 1);
        assert!(!st.proposers().contains(&m0));
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
