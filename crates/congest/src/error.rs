//! Simulator error types.

use crate::NodeId;
use std::error::Error;
use std::fmt;

/// Errors raised by the CONGEST network simulator.
///
/// All variants indicate a *protocol bug* in the code driving the network
/// (sending along a non-edge, oversized messages, malformed topology), not a
/// runtime condition a caller is expected to recover from — but they are
/// surfaced as `Result`s so tests can assert on them.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CongestError {
    /// A process attempted to send a message to a node that is not one of
    /// its neighbors in the communication graph.
    NotANeighbor {
        /// Sending node.
        src: NodeId,
        /// Intended recipient.
        dst: NodeId,
    },
    /// A message exceeded the configured per-message bit budget.
    MessageTooLarge {
        /// Sending node.
        src: NodeId,
        /// Estimated payload size in bits.
        bits: usize,
        /// The configured budget in bits.
        budget: usize,
    },
    /// An edge endpoint was out of range when building a topology.
    NodeOutOfRange {
        /// The offending id.
        id: NodeId,
        /// Number of nodes in the graph.
        nodes: usize,
    },
    /// A self-loop or duplicate edge was supplied when building a topology.
    InvalidEdge {
        /// First endpoint.
        u: NodeId,
        /// Second endpoint.
        v: NodeId,
    },
    /// The round budget of [`crate::Network::run_until_quiescent`] was
    /// exhausted while messages were still in flight.
    PhaseBudgetExhausted {
        /// The budget that was exceeded.
        budget: u64,
    },
}

impl fmt::Display for CongestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CongestError::NotANeighbor { src, dst } => {
                write!(f, "node {src} sent a message to non-neighbor {dst}")
            }
            CongestError::MessageTooLarge { src, bits, budget } => write!(
                f,
                "node {src} sent a {bits}-bit message exceeding the {budget}-bit CONGEST budget"
            ),
            CongestError::NodeOutOfRange { id, nodes } => {
                write!(f, "node {id} out of range for a {nodes}-node graph")
            }
            CongestError::InvalidEdge { u, v } => {
                write!(f, "invalid edge ({u}, {v}): self-loop or duplicate")
            }
            CongestError::PhaseBudgetExhausted { budget } => {
                write!(
                    f,
                    "phase round budget of {budget} exhausted with messages in flight"
                )
            }
        }
    }
}

impl Error for CongestError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CongestError::NotANeighbor {
            src: NodeId::new(1),
            dst: NodeId::new(2),
        };
        assert!(e.to_string().contains("v1"));
        assert!(e.to_string().contains("v2"));

        let e = CongestError::MessageTooLarge {
            src: NodeId::new(0),
            bits: 4096,
            budget: 64,
        };
        assert!(e.to_string().contains("4096"));
    }

    #[test]
    fn error_trait_object_compatible() {
        fn assert_send_sync<T: Send + Sync + std::error::Error>() {}
        assert_send_sync::<CongestError>();
    }
}
