//! Message payloads and envelopes.

use crate::NodeId;

/// A protocol message payload.
///
/// The CONGEST model restricts each message to `O(log n)` bits. Implementors
/// report an estimated encoded size via [`Payload::bits`]; the network
/// checks it against the per-message budget configured on
/// [`crate::Network`].
///
/// # Examples
///
/// ```
/// use asm_congest::Payload;
///
/// #[derive(Clone, Debug)]
/// enum Msg { Propose, Rank(u32) }
///
/// impl Payload for Msg {
///     fn bits(&self) -> usize {
///         match self {
///             Msg::Propose => 2,          // tag only
///             Msg::Rank(_) => 2 + 32,     // tag + rank
///         }
///     }
/// }
/// assert_eq!(Msg::Rank(7).bits(), 34);
/// ```
pub trait Payload: Clone + std::fmt::Debug {
    /// Estimated encoded size of this payload in bits, excluding addressing
    /// (source and destination ids are accounted separately by the network).
    fn bits(&self) -> usize;
}

/// Unit payloads model pure "pings" whose only content is the message tag.
impl Payload for () {
    fn bits(&self) -> usize {
        1
    }
}

/// A payload in flight, together with its addressing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope<P> {
    /// Sender.
    pub src: NodeId,
    /// Recipient.
    pub dst: NodeId,
    /// Message contents.
    pub payload: P,
}

impl<P> Envelope<P> {
    /// Creates an envelope.
    pub fn new(src: NodeId, dst: NodeId, payload: P) -> Self {
        Envelope { src, dst, payload }
    }
}

// Hand-written (not derived) because the vendored serde derive does not
// handle generic types. The wire form is a compact `[src, dst, payload]`
// triple — envelopes dominate distributed round frames, so the fixed
// field names would be pure overhead.
impl<P: serde::Serialize> serde::Serialize for Envelope<P> {
    fn to_content(&self) -> serde::Content {
        serde::Serialize::to_content(&(self.src, self.dst, &self.payload))
    }

    fn write_bin(&self, out: &mut Vec<u8>) {
        serde::Serialize::write_bin(&(self.src, self.dst, &self.payload), out);
    }
}

impl<P: serde::Deserialize> serde::Deserialize for Envelope<P> {
    fn from_content(content: &serde::Content) -> Result<Self, serde::Error> {
        let (src, dst, payload) = serde::Deserialize::from_content(content)?;
        Ok(Envelope { src, dst, payload })
    }

    fn read_bin(r: &mut serde::bin::Reader<'_>) -> Result<Self, serde::Error> {
        let (src, dst, payload) = serde::Deserialize::read_bin(r)?;
        Ok(Envelope { src, dst, payload })
    }
}

/// Buffer into which a process queues its outgoing messages for the current
/// round.
///
/// Obtained only from within [`crate::Process::on_round`]; the network
/// validates and delivers the queued messages at the end of the round.
#[derive(Debug)]
pub struct Outbox<P> {
    src: NodeId,
    queued: Vec<Envelope<P>>,
}

impl<P> Outbox<P> {
    /// Creates a standalone outbox for `src`.
    ///
    /// The network creates outboxes itself each round; this constructor
    /// exists so protocol implementations can unit-test their
    /// [`crate::Process::on_round`] logic without standing up a network.
    pub fn new(src: NodeId) -> Self {
        Outbox {
            src,
            queued: Vec::new(),
        }
    }

    /// Drains the queued envelopes (for unit tests of process logic).
    pub fn drain(&mut self) -> Vec<Envelope<P>> {
        std::mem::take(&mut self.queued)
    }

    /// Queues `payload` for delivery to `dst` at the start of the next round.
    pub fn send(&mut self, dst: NodeId, payload: P) {
        self.queued.push(Envelope::new(self.src, dst, payload));
    }

    /// The sender this outbox belongs to.
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// Number of messages queued so far this round.
    pub fn len(&self) -> usize {
        self.queued.len()
    }

    /// Whether no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.queued.is_empty()
    }

    pub(crate) fn into_queued(self) -> Vec<Envelope<P>> {
        self.queued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_accumulates_in_order() {
        let mut ob: Outbox<u8> = Outbox::new(NodeId::new(3));
        assert!(ob.is_empty());
        ob.send(NodeId::new(1), 10);
        ob.send(NodeId::new(2), 20);
        assert_eq!(ob.len(), 2);
        assert_eq!(ob.src(), NodeId::new(3));
        let msgs = ob.into_queued();
        assert_eq!(msgs[0], Envelope::new(NodeId::new(3), NodeId::new(1), 10));
        assert_eq!(msgs[1], Envelope::new(NodeId::new(3), NodeId::new(2), 20));
    }

    #[test]
    fn unit_payload_has_one_bit() {
        assert_eq!(().bits(), 1);
    }
}
