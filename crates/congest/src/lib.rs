//! # asm-congest: a synchronous CONGEST-model simulator
//!
//! This crate is the network substrate for the `almost-stable` workspace, a
//! reproduction of Ostrovsky & Rosenbaum, *Fast Distributed Almost Stable
//! Matchings* (PODC 2015). It simulates the CONGEST model of Peleg as used
//! in Section 2.2 of the paper:
//!
//! * computation proceeds in synchronous **rounds**; each round a processor
//!   receives the messages sent to it in the previous round, performs
//!   unbounded local computation, and sends one message per neighbor;
//! * messages are limited to `O(log n)` bits (enforceable via
//!   [`Network::set_bit_budget`]);
//! * messages travel only along edges of the fixed communication graph
//!   ([`Topology`]); sending to a non-neighbor is an error;
//! * complexity is measured in rounds ([`NetStats`]).
//!
//! # Examples
//!
//! A protocol is a type implementing [`Process`]; the [`Network`] couples
//! one process per node with a [`Topology`] and steps them in lockstep:
//!
//! ```
//! use asm_congest::{Envelope, Network, NodeId, Outbox, Payload, Process, Topology};
//!
//! /// Each node learns the smallest id among its neighbors.
//! struct MinOfNeighbors {
//!     neighbors: Vec<NodeId>,
//!     started: bool,
//!     min_seen: Option<NodeId>,
//! }
//!
//! #[derive(Clone, Debug)]
//! struct Hello(NodeId);
//! impl Payload for Hello {
//!     fn bits(&self) -> usize { 32 }
//! }
//!
//! impl Process for MinOfNeighbors {
//!     type Msg = Hello;
//!     fn on_round(&mut self, inbox: &[Envelope<Hello>], outbox: &mut Outbox<Hello>) {
//!         if !self.started {
//!             self.started = true;
//!             let me = outbox.src();
//!             for &nb in &self.neighbors {
//!                 outbox.send(nb, Hello(me));
//!             }
//!         }
//!         for env in inbox {
//!             let candidate = env.payload.0;
//!             self.min_seen = Some(self.min_seen.map_or(candidate, |m| m.min(candidate)));
//!         }
//!     }
//! }
//!
//! let topo = Topology::from_edges(3, [(0, 1), (1, 2)])?;
//! let procs = (0..3)
//!     .map(|i| MinOfNeighbors {
//!         neighbors: topo.neighbors(NodeId::new(i)).to_vec(),
//!         started: false,
//!         min_seen: None,
//!     })
//!     .collect();
//! let mut net = Network::new(topo, procs)?;
//! net.run_until_quiescent(10)?;
//! assert_eq!(net.node(NodeId::new(2)).min_seen, Some(NodeId::new(1)));
//! assert_eq!(net.node(NodeId::new(1)).min_seen, Some(NodeId::new(0)));
//! # Ok::<(), asm_congest::CongestError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
mod error;
mod graph;
mod message;
mod network;
mod node;
mod rng;
mod stats;

pub use driver::RoundDriver;
pub use error::CongestError;
pub use graph::Topology;
pub use message::{Envelope, Outbox, Payload};
pub use network::{step_nodes, Network, Process, RoundOutcome, Wire};
pub use node::NodeId;
pub use rng::SplitRng;
pub use stats::NetStats;
