//! Property-based tests of the CONGEST substrate: randomness quality and
//! the network's delivery semantics on arbitrary graphs.

use asm_congest::{Envelope, Network, NodeId, Outbox, Payload, Process, SplitRng, Topology};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct Token(#[allow(dead_code)] u64);
impl Payload for Token {
    fn bits(&self) -> usize {
        8
    }
}

/// Forwards every received token to all neighbors exactly once (flood),
/// recording the round it first saw one.
struct Flood {
    neighbors: Vec<NodeId>,
    seed_token: bool,
    forwarded: bool,
    round: u64,
    heard_at: Option<u64>,
}

impl Process for Flood {
    type Msg = Token;
    fn on_round(&mut self, inbox: &[Envelope<Token>], outbox: &mut Outbox<Token>) {
        let heard = self.seed_token || !inbox.is_empty();
        if self.seed_token {
            self.heard_at = Some(0);
        } else if !inbox.is_empty() && self.heard_at.is_none() {
            self.heard_at = Some(self.round);
        }
        if heard && !self.forwarded {
            self.forwarded = true;
            self.seed_token = false;
            for &nb in &self.neighbors {
                outbox.send(nb, Token(1));
            }
        }
        self.round += 1;
    }
}

/// A random connected graph: a spanning path plus extra random edges.
fn arb_connected_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..24, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = SplitRng::new(seed);
        let mut edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        for u in 0..n as u32 {
            for v in u + 2..n as u32 {
                if rng.next_bool(0.15) {
                    edges.push((u, v));
                }
            }
        }
        (n, edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn flood_reaches_every_node_within_eccentricity((n, edges) in arb_connected_graph()) {
        let topo = Topology::from_edges(n, edges).unwrap();
        let procs: Vec<Flood> = (0..n)
            .map(|i| Flood {
                neighbors: topo.neighbors(NodeId::new(i as u32)).to_vec(),
                seed_token: i == 0,
                forwarded: false,
                round: 0,
                heard_at: None,
            })
            .collect();
        let mut net = Network::new(topo.clone(), procs).unwrap();
        net.run_until_quiescent(2 * n as u64 + 4).unwrap();
        for (i, p) in net.nodes().iter().enumerate() {
            prop_assert!(p.heard_at.is_some(), "node {i} never heard the flood");
            // BFS distance <= n - 1, and one round per hop.
            prop_assert!(p.heard_at.unwrap() <= n as u64);
        }
        // Each node forwards exactly once: messages == sum of degrees.
        prop_assert_eq!(
            net.stats().messages,
            (0..n)
                .map(|i| topo.degree(NodeId::new(i as u32)) as u64)
                .sum::<u64>()
        );
    }

    #[test]
    fn split_rng_streams_do_not_collide(seed in any::<u64>(), a in 0u64..1000, b in 0u64..1000) {
        prop_assume!(a != b);
        let root = SplitRng::new(seed);
        let mut x = root.split(a, 0);
        let mut y = root.split(b, 0);
        // 64 identical consecutive outputs from different splits would be
        // astronomically unlikely for a healthy generator.
        let same = (0..64).filter(|_| x.next_u64() == y.next_u64()).count();
        prop_assert!(same < 8);
    }

    #[test]
    fn next_range_uniformity_rough(seed in any::<u64>(), bound in 1usize..40) {
        let mut rng = SplitRng::new(seed);
        let trials = 2000;
        let mut counts = vec![0usize; bound];
        for _ in 0..trials {
            counts[rng.next_range(bound)] += 1;
        }
        let expected = trials as f64 / bound as f64;
        for (v, &c) in counts.iter().enumerate() {
            prop_assert!(
                (c as f64) < 4.0 * expected + 10.0,
                "value {v} over-represented: {c} of {trials}"
            );
        }
    }

    #[test]
    fn shuffle_preserves_multiset(seed in any::<u64>(), len in 0usize..60) {
        let mut rng = SplitRng::new(seed);
        let original: Vec<usize> = (0..len).collect();
        let mut shuffled = original.clone();
        rng.shuffle(&mut shuffled);
        let mut sorted = shuffled.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, original);
    }

    #[test]
    fn topology_neighbors_are_sorted_and_symmetric((n, edges) in arb_connected_graph()) {
        let topo = Topology::from_edges(n, edges).unwrap();
        for i in 0..n {
            let v = NodeId::new(i as u32);
            let nbrs = topo.neighbors(v);
            prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]));
            for &u in nbrs {
                prop_assert!(topo.has_edge(u, v));
                prop_assert!(topo.neighbors(u).contains(&v));
            }
        }
        prop_assert_eq!(topo.edges().count(), topo.num_edges());
    }
}
