//! The node wire protocol: newline-delimited JSON frames over TCP.
//!
//! One orchestrator drives N node processes in lockstep. Every frame in
//! either direction is one JSON object on one line, shaped
//! `{"frame": "<tag>", "seq": <u64>, "body": {...}}` (the `body` key is
//! omitted for body-less frames). Framing is [`asm_service::framing`] —
//! the same incremental newline framer the service reactor uses — so
//! both ends of every socket in the workspace frame bytes identically.
//!
//! The `seq` field carries the at-most-once machinery that makes the
//! protocol converge over a faulty transport: the orchestrator sends
//! strictly increasing sequence numbers (starting at 1) and never
//! advances until it has the matching reply, while the node caches its
//! last reply and resends it verbatim when a duplicate of the last
//! sequence number arrives. Frames older than the last processed
//! sequence number are stale duplicates and are dropped; a gap (a
//! sequence number more than one ahead) is unreachable under lockstep
//! and draws a `nack`.
//!
//! The full specification lives in `docs/PROTOCOLS.md`; the golden
//! corpus in `crates/distributed/cases/` pins the encoding byte for
//! byte.

use asm_congest::Envelope;
use asm_core::congest::{AsmCtl, AsmMsg, AsmSummary, PlayerFinal};
use asm_core::AsmConfig;
use asm_instance::Instance;
use serde::{Deserialize, Serialize};

/// Protocol schema version, bumped on any wire-visible change.
pub const DIST_SCHEMA: u64 = 1;

/// `init` body: everything a node needs to host its player range.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct InitBody {
    /// Wire schema the orchestrator speaks ([`DIST_SCHEMA`]).
    pub schema: u64,
    /// This node's process index (assigned in accept order).
    pub proc_index: u32,
    /// First node id this process hosts (inclusive).
    pub lo: u32,
    /// One past the last node id this process hosts.
    pub hi: u32,
    /// The full problem instance (every node knows the topology; only
    /// `lo..hi` players are instantiated).
    pub instance: Instance,
    /// The validated algorithm configuration.
    pub config: AsmConfig,
}

/// Orchestrator-to-node frame payloads.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "frame", content = "body", rename_all = "snake_case")]
pub enum ToNode {
    /// Session start: build the player range.
    Init(Box<InitBody>),
    /// Between-rounds control barrier: apply `ops`, report a summary.
    RoundBarrier {
        /// Control operations, applied in order to every hosted player.
        ops: Vec<AsmCtl>,
    },
    /// One synchronous round: deliver `msgs`, step every player, reply
    /// with the messages they sent.
    RoundMsgs {
        /// This round's deliveries for players in `lo..hi`, in global
        /// staging order.
        msgs: Vec<Envelope<AsmMsg>>,
    },
    /// Collect final per-player state and transport counters.
    Snapshot,
    /// Terminate the node process.
    Halt,
}

/// Node-to-orchestrator frame payloads.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "frame", content = "body", rename_all = "snake_case")]
pub enum FromNode {
    /// `init` acknowledgement.
    Hello {
        /// Echoed process index.
        proc_index: u32,
        /// Number of players instantiated.
        players: u64,
    },
    /// `round_barrier` acknowledgement with the partition's summary.
    BarrierOk {
        /// Summary of the hosted players after applying the ops.
        summary: AsmSummary,
    },
    /// `round_msgs` acknowledgement.
    RoundDone {
        /// Messages the hosted players sent this round, in node-id
        /// order.
        sent: Vec<Envelope<AsmMsg>>,
        /// Summary of the hosted players after the round.
        summary: AsmSummary,
    },
    /// `snapshot` reply.
    SnapshotData {
        /// Final state of the hosted players, in node-id order.
        finals: Vec<PlayerFinal>,
        /// Duplicate frames answered by resending the cached reply.
        resends: u64,
        /// Stale (older-than-last) duplicate frames dropped.
        stale: u64,
    },
    /// `halt` acknowledgement; the node exits after sending it.
    Halted,
    /// The received sequence number is ahead of the session (protocol
    /// violation under lockstep).
    Nack {
        /// The sequence number the node expected next.
        expected: u64,
    },
    /// Fatal node-side failure.
    NodeError {
        /// Human-readable cause.
        detail: String,
    },
}

/// One orchestrator-to-node frame: a sequence number plus payload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(rename = "frame", expecting = "a frame object")]
pub struct ToNodeFrame {
    /// The payload: its `frame` tag (written first), then its `body`.
    #[serde(flatten)]
    pub body: ToNode,
    /// Lockstep sequence number (strictly increasing from 1).
    pub seq: u64,
}

/// One node-to-orchestrator frame: the request's sequence number plus
/// payload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(rename = "frame", expecting = "a frame object")]
pub struct FromNodeFrame {
    /// The payload: its `frame` tag (written first), then its `body`.
    #[serde(flatten)]
    pub body: FromNode,
    /// The sequence number of the frame being answered.
    pub seq: u64,
}

/// Encodes a frame as its one-line wire form (no trailing newline).
pub fn encode<F: Serialize>(frame: &F) -> String {
    serde_json::to_string(frame).expect("protocol frames serialize infallibly")
}

#[cfg(test)]
mod tests {
    use super::*;
    use asm_congest::NodeId;
    use asm_core::congest::Phase;

    #[test]
    fn to_node_frames_round_trip() {
        let frames = vec![
            ToNodeFrame {
                seq: 2,
                body: ToNode::RoundBarrier {
                    ops: vec![
                        AsmCtl::BeginQuantileMatch { gate: 2 },
                        AsmCtl::SetPhase(Phase::Respond),
                    ],
                },
            },
            ToNodeFrame {
                seq: 3,
                body: ToNode::RoundMsgs {
                    msgs: vec![Envelope::new(
                        NodeId::new(0),
                        NodeId::new(4),
                        AsmMsg::Propose,
                    )],
                },
            },
            ToNodeFrame {
                seq: 4,
                body: ToNode::Snapshot,
            },
            ToNodeFrame {
                seq: 5,
                body: ToNode::Halt,
            },
        ];
        for f in frames {
            let line = encode(&f);
            let back: ToNodeFrame = serde_json::from_str(&line).unwrap();
            assert_eq!(back, f, "{line}");
        }
    }

    #[test]
    fn from_node_frames_round_trip() {
        let frames = vec![
            FromNodeFrame {
                seq: 1,
                body: FromNode::Hello {
                    proc_index: 1,
                    players: 4,
                },
            },
            FromNodeFrame {
                seq: 2,
                body: FromNode::BarrierOk {
                    summary: AsmSummary::empty(),
                },
            },
            FromNodeFrame {
                seq: 3,
                body: FromNode::RoundDone {
                    sent: vec![Envelope::new(
                        NodeId::new(4),
                        NodeId::new(0),
                        AsmMsg::Accept,
                    )],
                    summary: AsmSummary::empty(),
                },
            },
            FromNodeFrame {
                seq: 4,
                body: FromNode::SnapshotData {
                    finals: vec![PlayerFinal {
                        id: NodeId::new(4),
                        partner: Some(NodeId::new(0)),
                        good: true,
                        removed: false,
                    }],
                    resends: 1,
                    stale: 0,
                },
            },
            FromNodeFrame {
                seq: 5,
                body: FromNode::Halted,
            },
            FromNodeFrame {
                seq: 9,
                body: FromNode::Nack { expected: 6 },
            },
            FromNodeFrame {
                seq: 0,
                body: FromNode::NodeError {
                    detail: "boom".to_string(),
                },
            },
        ];
        for f in frames {
            let line = encode(&f);
            let back: FromNodeFrame = serde_json::from_str(&line).unwrap();
            assert_eq!(back, f, "{line}");
        }
    }

    #[test]
    fn frame_tags_are_snake_case_on_the_wire() {
        let line = encode(&ToNodeFrame {
            seq: 7,
            body: ToNode::RoundMsgs { msgs: vec![] },
        });
        assert_eq!(line, r#"{"frame":"round_msgs","seq":7,"body":{"msgs":[]}}"#);
        let line = encode(&FromNodeFrame {
            seq: 7,
            body: FromNode::Halted,
        });
        assert_eq!(line, r#"{"frame":"halted","seq":7}"#);
    }

    #[test]
    fn unknown_and_malformed_frames_are_rejected() {
        assert!(serde_json::from_str::<ToNodeFrame>(r#"{"frame":"warp","seq":1}"#).is_err());
        assert!(serde_json::from_str::<ToNodeFrame>(r#"{"seq":1}"#).is_err());
        assert!(serde_json::from_str::<ToNodeFrame>(r#"{"frame":"snapshot"}"#).is_err());
        assert!(
            serde_json::from_str::<ToNodeFrame>(r#"{"frame":"round_msgs","seq":1}"#).is_err(),
            "round_msgs requires a body"
        );
    }
}
