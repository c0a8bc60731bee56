//! The synchronous round engine.

use crate::{CongestError, Envelope, NetStats, NodeId, Outbox, Payload, Topology};

/// A processor participating in a synchronous CONGEST execution.
///
/// Each round the network calls [`Process::on_round`] on every node with the
/// messages sent to it in the previous round; the node performs arbitrary
/// local computation and queues messages for its neighbors. This matches the
/// three-stage round structure of Peleg's CONGEST model as used in Section
/// 2.2 of the paper.
///
/// **Event-driven contract.** For [`Network::run_until_quiescent`] to stop
/// soundly at the first silent round, a process may send messages only (a)
/// in the round a *phase* begins (the driver flips phase state between
/// runs), or (b) in reaction to messages received. Under this contract a
/// globally silent round implies silence until the next phase boundary, so
/// stopping there cannot change any state.
pub trait Process {
    /// Message type exchanged by this protocol.
    type Msg: Payload;

    /// Executes one synchronous round: receive `inbox`, compute locally,
    /// queue outgoing messages on `outbox`.
    fn on_round(&mut self, inbox: &[Envelope<Self::Msg>], outbox: &mut Outbox<Self::Msg>);
}

/// Outcome of a single simulated round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundOutcome {
    /// Messages delivered to nodes at the start of this round.
    pub delivered: u64,
    /// Messages sent during this round (in flight for the next round).
    pub sent: u64,
}

impl RoundOutcome {
    /// Whether the round had any communication at all.
    pub fn active(&self) -> bool {
        self.delivered > 0 || self.sent > 0
    }
}

/// A synchronous CONGEST network: a [`Topology`] plus one [`Process`] per
/// node.
///
/// # Examples
///
/// A two-node ping-pong protocol:
///
/// ```
/// use asm_congest::{Envelope, Network, NodeId, Outbox, Payload, Process, Topology};
///
/// #[derive(Clone, Debug)]
/// struct Ping(u32);
/// impl Payload for Ping {
///     fn bits(&self) -> usize { 32 }
/// }
///
/// struct Player { id: NodeId, peer: NodeId, kicked: bool, hops: u32 }
/// impl Process for Player {
///     type Msg = Ping;
///     fn on_round(&mut self, inbox: &[Envelope<Ping>], outbox: &mut Outbox<Ping>) {
///         if self.id.index() == 0 && !self.kicked {
///             self.kicked = true;
///             outbox.send(self.peer, Ping(0));
///         }
///         for env in inbox {
///             self.hops = env.payload.0;
///             if self.hops < 5 {
///                 outbox.send(env.src, Ping(self.hops + 1));
///             }
///         }
///     }
/// }
///
/// let topo = Topology::from_edges(2, [(0, 1)])?;
/// let procs = vec![
///     Player { id: NodeId::new(0), peer: NodeId::new(1), kicked: false, hops: 0 },
///     Player { id: NodeId::new(1), peer: NodeId::new(0), kicked: false, hops: 0 },
/// ];
/// let mut net = Network::new(topo, procs)?;
/// net.run_until_quiescent(100)?;
/// assert_eq!(net.node(NodeId::new(1)).hops + net.node(NodeId::new(0)).hops, 9);
/// assert_eq!(net.stats().messages, 6);
/// # Ok::<(), asm_congest::CongestError>(())
/// ```
#[derive(Debug)]
pub struct Network<P: Process> {
    procs: Vec<P>,
    wire: Wire<P::Msg>,
}

impl<P: Process> Network<P> {
    /// Creates a network with one process per topology node.
    ///
    /// # Errors
    ///
    /// Returns [`CongestError::NodeOutOfRange`] if `procs.len()` differs
    /// from the topology's node count.
    pub fn new(topo: Topology, procs: Vec<P>) -> Result<Self, CongestError> {
        if procs.len() != topo.num_nodes() {
            return Err(CongestError::NodeOutOfRange {
                id: NodeId::new(procs.len() as u32),
                nodes: topo.num_nodes(),
            });
        }
        Ok(Network {
            procs,
            wire: Wire::new(topo),
        })
    }

    /// Enforces the CONGEST per-message budget: any payload whose
    /// [`Payload::bits`] exceeds `bits` makes the round fail.
    ///
    /// A common choice is a small multiple of [`NodeId::bits_for`]`(n)`.
    pub fn set_bit_budget(&mut self, bits: usize) -> &mut Self {
        self.wire.set_bit_budget(bits);
        self
    }

    /// Cumulative execution statistics.
    pub fn stats(&self) -> &NetStats {
        self.wire.stats()
    }

    /// Immutable access to the process at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &P {
        &self.procs[id.index()]
    }

    /// All processes, indexed by node id.
    pub fn nodes(&self) -> &[P] {
        &self.procs
    }

    /// Mutable access to all processes (driver phase changes).
    pub fn nodes_mut(&mut self) -> &mut [P] {
        &mut self.procs
    }

    /// Simulates one synchronous round ([`Wire::round`]): deliver all
    /// in-flight messages, run every process ([`step_nodes`]), validate
    /// and collect the messages they send.
    ///
    /// # Errors
    ///
    /// Fails if a process sends to a non-neighbor or exceeds the bit budget.
    pub fn step(&mut self) -> Result<RoundOutcome, CongestError> {
        let procs = &mut self.procs;
        self.wire.round(|delivered| step_nodes(0, procs, delivered))
    }

    /// Runs until a fully silent round.
    ///
    /// Returns the number of active rounds simulated.
    ///
    /// # Errors
    ///
    /// Returns [`CongestError::PhaseBudgetExhausted`] if the network is
    /// still active after `max_rounds` (a likely livelock), and propagates
    /// validation errors from [`Network::step`].
    pub fn run_until_quiescent(&mut self, max_rounds: u64) -> Result<u64, CongestError> {
        let mut used = 0;
        loop {
            if used >= max_rounds {
                return Err(CongestError::PhaseBudgetExhausted { budget: max_rounds });
            }
            let outcome = self.step()?;
            used += 1;
            if !outcome.active() {
                used -= 1;
                self.wire.stats.rounds -= 1;
                return Ok(used);
            }
            if outcome.sent == 0 {
                return Ok(used);
            }
        }
    }
}

/// Runs `procs`, the nodes numbered `first`, `first + 1`, …, through one
/// round: delivers each message of `delivered` to its destination's
/// inbox, in the order given, then steps the nodes in node-id order.
/// Returns what they sent, in node-id order and, within a node, in the
/// order it queued them.
///
/// Every executor of the model steps its nodes through this function:
/// [`Network::step`] all of them, and a multi-process runtime each
/// process's contiguous share.
///
/// # Errors
///
/// [`CongestError::NodeOutOfRange`] for the first message addressed to
/// none of `procs`; no node has stepped then.
pub fn step_nodes<P: Process>(
    first: u32,
    procs: &mut [P],
    delivered: Vec<Envelope<P::Msg>>,
) -> Result<Vec<Envelope<P::Msg>>, CongestError> {
    let mut inboxes: Vec<Vec<Envelope<P::Msg>>> = (0..procs.len()).map(|_| Vec::new()).collect();
    for env in delivered {
        match inboxes.get_mut(env.dst.raw().wrapping_sub(first) as usize) {
            Some(inbox) => inbox.push(env),
            None => {
                return Err(CongestError::NodeOutOfRange {
                    id: env.dst,
                    nodes: procs.len(),
                })
            }
        }
    }
    let mut sent = Vec::new();
    for (i, (proc_, inbox)) in procs.iter_mut().zip(&inboxes).enumerate() {
        let mut outbox = Outbox::new(NodeId::new(first + i as u32));
        proc_.on_round(inbox, &mut outbox);
        sent.extend(outbox.into_queued());
    }
    Ok(sent)
}

/// The links of a synchronous network between rounds: the messages in
/// flight, the topology and bit budget they must respect, and the books.
///
/// [`Wire::round`] holds a round's delivery accounting and send
/// validation; [`Network::step`] and a multi-process runtime's
/// orchestrator both run their rounds through it, so their
/// [`NetStats`] agree by construction.
#[derive(Debug)]
pub struct Wire<M> {
    topo: Topology,
    bit_budget: Option<usize>,
    /// Messages sent last round, in staging order.
    in_flight: Vec<Envelope<M>>,
    stats: NetStats,
}

impl<M: Payload> Wire<M> {
    /// An idle wire over `topo`, with no bit budget.
    pub fn new(topo: Topology) -> Self {
        Wire {
            topo,
            bit_budget: None,
            in_flight: Vec::new(),
            stats: NetStats::default(),
        }
    }

    /// Fails any later round whose sends include a payload over `bits`.
    pub fn set_bit_budget(&mut self, bits: usize) {
        self.bit_budget = Some(bits);
    }

    /// Cumulative execution statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Runs one synchronous round. Books the delivery of every message in
    /// flight, hands them to `nodes` in staging order, and takes back what
    /// the nodes sent, in node-id order. Each send must travel an edge of
    /// the topology and fit the bit budget; the valid sends stay in flight
    /// until the next round.
    ///
    /// # Errors
    ///
    /// `nodes`' own error, or [`CongestError::NotANeighbor`] /
    /// [`CongestError::MessageTooLarge`] for the first invalid send.
    pub fn round<E: From<CongestError>>(
        &mut self,
        nodes: impl FnOnce(Vec<Envelope<M>>) -> Result<Vec<Envelope<M>>, E>,
    ) -> Result<RoundOutcome, E> {
        let delivered = self.in_flight.len() as u64;
        self.stats.messages += delivered;
        self.stats.max_messages_per_round = self.stats.max_messages_per_round.max(delivered);
        for env in &self.in_flight {
            let bits = env.payload.bits();
            self.stats.bits += bits as u64;
            self.stats.max_message_bits = self.stats.max_message_bits.max(bits);
        }

        let staged = nodes(std::mem::take(&mut self.in_flight))?;
        for env in &staged {
            if !self.topo.has_edge(env.src, env.dst) {
                return Err(CongestError::NotANeighbor {
                    src: env.src,
                    dst: env.dst,
                }
                .into());
            }
            if let Some(budget) = self.bit_budget {
                let bits = env.payload.bits();
                if bits > budget {
                    return Err(CongestError::MessageTooLarge {
                        src: env.src,
                        bits,
                        budget,
                    }
                    .into());
                }
            }
        }
        let sent = staged.len() as u64;
        self.in_flight = staged;
        self.stats.rounds += 1;
        Ok(RoundOutcome { delivered, sent })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    struct Num(u64);
    impl Payload for Num {
        fn bits(&self) -> usize {
            64 - self.0.leading_zeros() as usize + 1
        }
    }

    /// Sends `initial` greetings to all neighbors in the first round; echoes
    /// back decremented values until they reach zero.
    struct Echo {
        id: NodeId,
        neighbors: Vec<NodeId>,
        initial: Option<u64>,
        received: u64,
    }

    impl Process for Echo {
        type Msg = Num;
        fn on_round(&mut self, inbox: &[Envelope<Num>], outbox: &mut Outbox<Num>) {
            if let Some(v) = self.initial.take() {
                for &nb in &self.neighbors {
                    outbox.send(nb, Num(v));
                }
            }
            for env in inbox {
                self.received += 1;
                if env.payload.0 > 0 {
                    outbox.send(env.src, Num(env.payload.0 - 1));
                }
            }
        }
    }

    fn echo_net(n: usize, edges: Vec<(u32, u32)>, initial: &[(u32, u64)]) -> Network<Echo> {
        let topo = Topology::from_edges(n, edges).unwrap();
        let procs = (0..n)
            .map(|i| {
                let id = NodeId::new(i as u32);
                Echo {
                    id,
                    neighbors: topo.neighbors(id).to_vec(),
                    initial: initial
                        .iter()
                        .find(|&&(who, _)| who == i as u32)
                        .map(|&(_, v)| v),
                    received: 0,
                }
            })
            .collect();
        let _ = &procs;
        Network::new(topo, procs).unwrap()
    }

    #[test]
    fn ping_pong_terminates_with_exact_counts() {
        let mut net = echo_net(2, vec![(0, 1)], &[(0, 3)]);
        let rounds = net.run_until_quiescent(100).unwrap();
        // Messages: 3, 2, 1, 0 -> 4 messages over 4 delivery rounds + the
        // initial send round.
        assert_eq!(net.stats().messages, 4);
        assert_eq!(rounds, 5);
        assert_eq!(net.node(NodeId::new(0)).received, 2);
        assert_eq!(net.node(NodeId::new(1)).received, 2);
    }

    #[test]
    fn phase_budget_exhaustion_is_detected() {
        let mut net = echo_net(2, vec![(0, 1)], &[(0, 1_000_000)]);
        let err = net.run_until_quiescent(3).unwrap_err();
        assert!(matches!(
            err,
            CongestError::PhaseBudgetExhausted { budget: 3 }
        ));
    }

    #[test]
    fn non_neighbor_send_is_rejected() {
        struct Rogue;
        impl Process for Rogue {
            type Msg = Num;
            fn on_round(&mut self, _: &[Envelope<Num>], outbox: &mut Outbox<Num>) {
                outbox.send(NodeId::new(2), Num(1));
            }
        }
        let topo = Topology::from_edges(3, [(0, 1)]).unwrap();
        let mut net = Network::new(topo, vec![Rogue, Rogue, Rogue]).unwrap();
        let err = net.step().unwrap_err();
        assert!(matches!(err, CongestError::NotANeighbor { .. }));
    }

    #[test]
    fn bit_budget_is_enforced() {
        let mut net = echo_net(2, vec![(0, 1)], &[(0, u64::MAX)]);
        net.set_bit_budget(16);
        let err = net.run_until_quiescent(10).unwrap_err();
        assert!(matches!(err, CongestError::MessageTooLarge { .. }));
    }

    #[test]
    fn messages_are_delayed_one_round() {
        // Node 0 sends in round 0; node 1 must not see it until round 1.
        let mut net = echo_net(2, vec![(0, 1)], &[(0, 0)]);
        net.step().unwrap();
        assert_eq!(net.node(NodeId::new(1)).received, 0);
        net.step().unwrap();
        assert_eq!(net.node(NodeId::new(1)).received, 1);
    }

    #[test]
    fn round_outcomes_reconcile_with_delivery_totals() {
        // Book 1: per-round `RoundOutcome::{delivered,sent}`.
        // Book 2: `NetStats::messages`. Both must agree, and each round's
        // `sent` must come back as the next round's `delivered`.
        let mut net = echo_net(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)], &[(0, 3), (2, 2)]);
        let mut outcomes = Vec::new();
        loop {
            let outcome = net.step().unwrap();
            outcomes.push(outcome);
            if !outcome.active() {
                break;
            }
        }
        let delivered_total: u64 = outcomes.iter().map(|o| o.delivered).sum();
        let sent_total: u64 = outcomes.iter().map(|o| o.sent).sum();
        assert_eq!(delivered_total, net.stats().messages);
        // Everything sent was eventually delivered (the run drained).
        assert_eq!(sent_total, delivered_total);
        // One-round delay: round r's sends are round r+1's deliveries.
        for pair in outcomes.windows(2) {
            assert_eq!(pair[0].sent, pair[1].delivered);
        }
    }

    #[test]
    fn proc_count_mismatch_rejected() {
        let topo = Topology::from_edges(2, [(0, 1)]).unwrap();
        let procs: Vec<Echo> = Vec::new();
        assert!(Network::new(topo, procs).is_err());
    }

    #[test]
    fn star_broadcast_counts_bits() {
        let edges: Vec<(u32, u32)> = (1..5).map(|i| (0, i)).collect();
        let mut net = echo_net(5, edges, &[(0, 0)]);
        net.run_until_quiescent(10).unwrap();
        assert_eq!(net.stats().messages, 4);
        assert_eq!(net.stats().max_messages_per_round, 4);
        assert!(net.stats().bits > 0);
    }

    #[test]
    fn unused_id_field_is_set() {
        let net = echo_net(2, vec![(0, 1)], &[]);
        assert_eq!(net.node(NodeId::new(1)).id, NodeId::new(1));
    }
}
