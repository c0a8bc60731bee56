//! The per-player CONGEST process.

use super::messages::AsmMsg;
use crate::QuantizedPrefs;
use asm_congest::{Envelope, NodeId, Outbox, Process, SplitRng};
use asm_instance::{Gender, PreferenceList};
use asm_maximal::protocols::{GreedyNode, IiNode, MmMsg, PrMsg, PrNode, ProposalNode};

/// Which maximal-matching protocol the players embed for step 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CongestBackend {
    /// Deterministic greedy (the HKP stand-in that actually passes
    /// messages).
    DetGreedy,
    /// Deterministic bipartite proposal matcher (men propose).
    BipartiteProposal,
    /// Panconesi–Rizzi forest-decomposition matcher (fixed schedule; the
    /// driver supplies the G₀ forest count before each invocation).
    PanconesiRizzi,
    /// Truncated Israeli–Itai with the given `MatchingRound` budget.
    IsraeliItai {
        /// Maximum `MatchingRound`s per invocation.
        max_iterations: u64,
    },
}

/// Phase of the `ProposalRound` schedule, set by the driver between
/// rounds (simulating the globally known round clock).
///
/// Public so external round drivers (the distributed orchestrator) can
/// ship phase flips to node processes as [`super::AsmCtl`] operations;
/// the serde derives define the wire form.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Phase {
    /// Between `ProposalRound`s: every player is silent.
    Idle,
    /// Step 1: men propose to their active quantile.
    Propose,
    /// Step 2: women accept the best proposing quantile.
    Respond,
    /// Step 3: the embedded maximal-matching subroutine runs.
    Mm,
    /// `AlmostRegularASM` only: G0 members unmatched by AMM announce it.
    UnmatchedAnnounce,
    /// `AlmostRegularASM` only: unmatched G0 members receiving an
    /// announcement are maximality violators and leave the game.
    UnmatchedRecv,
    /// Step 4: women send the rejections queued by adopting `M₀`.
    RejectSend,
    /// Step 4: men apply the rejections they received.
    RejectRecv,
}

#[derive(Debug)]
enum MmState {
    None,
    Greedy(GreedyNode),
    Ii(IiNode),
    Proposal(ProposalNode),
    Pr(PrNode),
}

impl MmState {
    fn matched(&self) -> Option<NodeId> {
        match self {
            MmState::None => None,
            MmState::Greedy(g) => g.matched(),
            MmState::Ii(i) => i.matched(),
            MmState::Proposal(p) => p.matched(),
            MmState::Pr(p) => p.matched(),
        }
    }

    fn is_active(&self) -> bool {
        match self {
            MmState::None => false,
            MmState::Greedy(g) => g.is_active(),
            MmState::Ii(i) => i.is_active(),
            MmState::Proposal(p) => p.is_active(),
            MmState::Pr(p) => p.is_active(),
        }
    }
}

/// One player of the message-passing ASM engine: holds its preference
/// list with the quantized state over its slots, current partner, active
/// quantile, and (during step 3) an embedded maximal-matching node.
#[derive(Debug)]
pub struct Player {
    id: NodeId,
    gender: Gender,
    prefs: PreferenceList,
    quant: QuantizedPrefs,
    partner: Option<NodeId>,
    active_quantile: Option<u32>,
    removed_from_play: bool,
    pub(crate) phase: Phase,
    backend: CongestBackend,
    rng_base: SplitRng,
    mm_tag: u64,
    mm: MmState,
    /// Panconesi–Rizzi only: the G₀ forest count for the current
    /// invocation (driver-supplied global knowledge of Δ(G₀)).
    pr_forests: u16,
    /// Accepted-proposal neighbors for the current `ProposalRound`.
    g0: Vec<NodeId>,
    /// Queued rejections to send in the RejectSend phase.
    pending_rejects: Vec<NodeId>,
}

impl Player {
    /// Creates a player with full quantized preferences.
    pub fn new(
        id: NodeId,
        gender: Gender,
        ranked: &[NodeId],
        k: usize,
        backend: CongestBackend,
        rng_base: SplitRng,
    ) -> Self {
        Player {
            id,
            gender,
            prefs: PreferenceList::new(ranked.to_vec()),
            quant: QuantizedPrefs::new(ranked.len(), k),
            partner: None,
            active_quantile: None,
            removed_from_play: false,
            phase: Phase::Idle,
            backend,
            rng_base,
            mm_tag: 0,
            mm: MmState::None,
            pr_forests: 0,
            g0: Vec::new(),
            pending_rejects: Vec::new(),
        }
    }

    /// This player's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// This player's gender.
    pub fn gender(&self) -> Gender {
        self.gender
    }

    /// Current partner.
    pub fn partner(&self) -> Option<NodeId> {
        self.partner
    }

    /// Surviving preference count `|Q|`.
    pub fn remaining(&self) -> usize {
        self.quant.remaining()
    }

    /// Whether this man is good (matched or fully rejected). Women are
    /// vacuously good.
    pub fn is_good(&self) -> bool {
        self.gender == Gender::Woman || self.partner.is_some() || self.quant.is_exhausted()
    }

    /// The man's current active set `A`.
    fn active_set(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.active_quantile
            .into_iter()
            .flat_map(|q| self.quant.live_in(q))
            .map(|s| self.prefs.ranked()[s])
    }

    /// The slot of a partner on this player's list.
    fn slot_of(&self, u: NodeId) -> usize {
        self.prefs
            .slot_of(u)
            .expect("messages come only from acceptable partners")
    }

    /// Driver hook: `QuantileMatch` start — arm `A ← Q_i` if unmatched,
    /// participating (`|Q| ≥ gate`), and not removed from play.
    pub(crate) fn begin_quantile_match(&mut self, gate: usize) {
        if self.gender == Gender::Man
            && !self.removed_from_play
            && self.partner.is_none()
            && !self.quant.is_exhausted()
            && self.quant.remaining() >= gate
        {
            self.active_quantile = self.quant.min_nonempty_quantile();
        }
    }

    /// Driver query: would this man send a proposal in the next
    /// `ProposalRound`?
    pub(crate) fn would_propose(&self) -> bool {
        self.gender == Gender::Man
            && !self.removed_from_play
            && self.partner.is_none()
            && self.active_set().next().is_some()
    }

    /// Driver hook: `ProposalRound` start. `tag` seeds the embedded
    /// matcher's randomness for this invocation.
    pub(crate) fn begin_proposal_round(&mut self, tag: u64) {
        self.mm_tag = tag;
        self.mm = MmState::None;
        self.g0.clear();
        self.pending_rejects.clear();
        self.phase = Phase::Propose;
    }

    /// Driver query: is the embedded matcher still working?
    pub(crate) fn mm_active(&self) -> bool {
        self.mm.is_active()
    }

    /// Driver query (women, post-Respond): the accepted proposals of the
    /// current `ProposalRound` — the woman's `G₀` adjacency.
    pub(crate) fn g0_accepts(&self) -> &[NodeId] {
        &self.g0
    }

    /// Driver hook (Panconesi–Rizzi backend): announce the globally
    /// computed forest count of the current `G₀`.
    pub(crate) fn set_pr_forests(&mut self, forests: u16) {
        self.pr_forests = forests;
    }

    fn build_mm(&mut self, neighbors: Vec<NodeId>) {
        self.mm = match self.backend {
            CongestBackend::DetGreedy => MmState::Greedy(GreedyNode::new(self.id, neighbors)),
            CongestBackend::BipartiteProposal => MmState::Proposal(ProposalNode::new(
                self.id,
                neighbors,
                self.gender == Gender::Man,
            )),
            CongestBackend::PanconesiRizzi => {
                MmState::Pr(PrNode::new(self.id, neighbors, self.pr_forests))
            }
            CongestBackend::IsraeliItai { max_iterations } => MmState::Ii(IiNode::new(
                self.id,
                neighbors,
                self.rng_base.clone(),
                self.mm_tag,
                max_iterations,
            )),
        };
    }

    /// Driver hook: adopt the `M₀` outcome and queue rejections
    /// (`ProposalRound` step 4).
    pub(crate) fn begin_reject(&mut self) {
        self.phase = Phase::RejectSend;
        let Some(p0) = self.mm.matched() else {
            return;
        };
        match self.gender {
            Gender::Man => {
                self.partner = Some(p0);
                self.active_quantile = None;
            }
            Gender::Woman => {
                let kept = self.slot_of(p0);
                let worse = self.quant.slots_of(self.quant.quantile_of(kept)).start;
                for s in worse..self.prefs.degree() {
                    if s != kept && self.quant.remove(s) {
                        self.pending_rejects.push(self.prefs.ranked()[s]);
                    }
                }
                self.partner = Some(p0);
            }
        }
    }

    /// Whether `AlmostRegularASM` removed this player from play.
    pub fn removed_from_play(&self) -> bool {
        self.removed_from_play
    }
}

impl Process for Player {
    type Msg = AsmMsg;

    fn on_round(&mut self, inbox: &[Envelope<AsmMsg>], outbox: &mut Outbox<AsmMsg>) {
        match self.phase {
            Phase::Idle => {}
            Phase::Propose => {
                if self.would_propose() {
                    for w in self.active_set() {
                        outbox.send(w, AsmMsg::Propose);
                    }
                }
            }
            Phase::Respond => {
                if self.gender == Gender::Woman {
                    // Accept the best proposing quantile (step 2).
                    let proposers: Vec<(NodeId, u32)> = inbox
                        .iter()
                        .filter(|e| e.payload == AsmMsg::Propose)
                        .map(|e| {
                            let s = self.slot_of(e.src);
                            debug_assert!(self.quant.is_live(s));
                            (e.src, self.quant.quantile_of(s))
                        })
                        .collect();
                    if let Some(best) = proposers.iter().map(|&(_, q)| q).min() {
                        for &(m, q) in &proposers {
                            if q == best {
                                self.g0.push(m);
                                outbox.send(m, AsmMsg::Accept);
                            }
                        }
                    }
                }
            }
            Phase::Mm => {
                // Men learn their G0 adjacency from the arriving accepts
                // and join the matcher immediately; women built theirs in
                // the Respond phase and start on the same round.
                if self.gender == Gender::Man && matches!(self.mm, MmState::None) {
                    let accepted: Vec<NodeId> = inbox
                        .iter()
                        .filter(|e| e.payload == AsmMsg::Accept)
                        .map(|e| e.src)
                        .collect();
                    if !accepted.is_empty() {
                        self.g0 = accepted;
                        self.build_mm(self.g0.clone());
                    }
                }
                if self.gender == Gender::Woman
                    && matches!(self.mm, MmState::None)
                    && !self.g0.is_empty()
                {
                    self.build_mm(self.g0.clone());
                }
                let mm_inbox: Vec<(NodeId, MmMsg)> = inbox
                    .iter()
                    .filter_map(|e| match e.payload {
                        AsmMsg::Mm(m) => Some((e.src, m)),
                        _ => None,
                    })
                    .collect();
                let pr_inbox: Vec<(NodeId, PrMsg)> = inbox
                    .iter()
                    .filter_map(|e| match e.payload {
                        AsmMsg::Pr(m) => Some((e.src, m)),
                        _ => None,
                    })
                    .collect();
                match &mut self.mm {
                    MmState::None => {}
                    MmState::Greedy(g) => {
                        g.on_round(&mm_inbox, |dst, m| outbox.send(dst, AsmMsg::Mm(m)))
                    }
                    MmState::Ii(i) => {
                        i.on_round(&mm_inbox, |dst, m| outbox.send(dst, AsmMsg::Mm(m)))
                    }
                    MmState::Proposal(p) => {
                        p.on_round(&mm_inbox, |dst, m| outbox.send(dst, AsmMsg::Mm(m)))
                    }
                    MmState::Pr(p) => {
                        p.on_round(&pr_inbox, |dst, m| outbox.send(dst, AsmMsg::Pr(m)))
                    }
                }
            }
            Phase::UnmatchedAnnounce => {
                // A G0 member left unmatched by the (almost-)maximal
                // matching tells its G0 neighbors.
                if !self.g0.is_empty() && self.mm.matched().is_none() {
                    for &nb in &self.g0.clone() {
                        outbox.send(nb, AsmMsg::Unmatched);
                    }
                }
            }
            Phase::UnmatchedRecv => {
                // An unmatched G0 member with an unmatched G0 neighbor
                // violates maximality (Definition 4) and — if a man —
                // removes himself from play (Theorem 6).
                if self.gender == Gender::Man
                    && !self.g0.is_empty()
                    && self.mm.matched().is_none()
                    && inbox.iter().any(|e| e.payload == AsmMsg::Unmatched)
                {
                    self.removed_from_play = true;
                }
            }
            Phase::RejectSend => {
                for &m in &self.pending_rejects {
                    outbox.send(m, AsmMsg::Reject);
                }
                self.pending_rejects.clear();
            }
            Phase::RejectRecv => {
                for e in inbox {
                    if e.payload == AsmMsg::Reject {
                        self.quant.remove(self.slot_of(e.src));
                        if self.partner == Some(e.src) {
                            self.partner = None;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn woman(ranked: &[u32]) -> Player {
        Player::new(
            NodeId::new(0),
            Gender::Woman,
            &ranked.iter().map(|&r| NodeId::new(r)).collect::<Vec<_>>(),
            2,
            CongestBackend::DetGreedy,
            SplitRng::new(1),
        )
    }

    #[test]
    fn arming_respects_gate() {
        let mut m = Player::new(
            NodeId::new(5),
            Gender::Man,
            &[NodeId::new(0), NodeId::new(1)],
            2,
            CongestBackend::DetGreedy,
            SplitRng::new(1),
        );
        m.begin_quantile_match(10);
        assert!(!m.would_propose(), "gate 10 > |Q| = 2");
        m.begin_quantile_match(2);
        assert!(m.would_propose());
    }

    #[test]
    fn women_never_propose() {
        let mut w = woman(&[5, 6]);
        w.begin_quantile_match(1);
        assert!(!w.would_propose());
    }

    #[test]
    fn reject_recv_unmatches_partner() {
        let mut m = Player::new(
            NodeId::new(5),
            Gender::Man,
            &[NodeId::new(0)],
            2,
            CongestBackend::DetGreedy,
            SplitRng::new(1),
        );
        m.partner = Some(NodeId::new(0));
        m.phase = Phase::RejectRecv;
        let inbox = vec![Envelope::new(
            NodeId::new(0),
            NodeId::new(5),
            AsmMsg::Reject,
        )];
        let mut ob = Outbox::new(NodeId::new(5));
        m.on_round(&inbox, &mut ob);
        assert!(ob.is_empty());
        assert_eq!(m.partner(), None);
        assert!(m.quant.is_exhausted());
        assert!(m.is_good());
    }

    #[test]
    fn woman_accepts_best_quantile_only() {
        // Woman ranks men 10 > 11 with k = 2: quantiles {10} and {11}.
        let mut w = woman(&[10, 11]);
        w.phase = Phase::Respond;
        let me = NodeId::new(0);
        let inbox = vec![
            Envelope::new(NodeId::new(10), me, AsmMsg::Propose),
            Envelope::new(NodeId::new(11), me, AsmMsg::Propose),
        ];
        let mut ob = Outbox::new(me);
        w.on_round(&inbox, &mut ob);
        let sent = ob.drain();
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].dst, NodeId::new(10));
        assert_eq!(sent[0].payload, AsmMsg::Accept);
        assert_eq!(w.g0, vec![NodeId::new(10)]);
    }

    #[test]
    fn idle_phase_is_silent() {
        let mut w = woman(&[10]);
        let mut ob = Outbox::new(NodeId::new(0));
        w.on_round(&[], &mut ob);
        assert!(ob.is_empty());
    }
}
