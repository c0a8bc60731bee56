//! Round and traffic accounting.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Cumulative statistics for a simulated network execution.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetStats {
    /// Rounds actually simulated (at least one node stepped).
    pub rounds: u64,
    /// Total messages delivered.
    pub messages: u64,
    /// Total payload bits delivered.
    pub bits: u64,
    /// Largest single payload observed, in bits.
    pub max_message_bits: usize,
    /// Maximum number of messages delivered in any single round.
    pub max_messages_per_round: u64,
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rounds, {} msgs, {} bits, max msg {} bits",
            self.rounds, self.messages, self.bits, self.max_message_bits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_rounds_and_bits() {
        let s = NetStats::default().to_string();
        assert!(s.contains("rounds"));
        assert!(s.contains("bits"));
    }
}
