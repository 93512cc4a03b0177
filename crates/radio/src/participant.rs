//! Participant identities and what a listener hears.

use std::fmt;

use crate::message::Payload;

/// Index of a correct participant in a simulation roster.
///
/// By convention (established by `rcb-core`'s orchestration) index 0 is
/// Alice and `1..=n` are the receiver nodes, but the engine itself treats
/// all participants uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ParticipantId(u32);

impl ParticipantId {
    /// Creates an id from a roster index.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        ParticipantId(index)
    }

    /// The roster index.
    #[must_use]
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ParticipantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u32> for ParticipantId {
    fn from(v: u32) -> Self {
        ParticipantId(v)
    }
}

/// What a listening device hears in one slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reception {
    /// No channel activity. Cannot be forged by the adversary.
    Silence,
    /// Collision or jamming — indistinguishable from each other, and any
    /// concurrently transmitted data is lost.
    Noise,
    /// Exactly one un-jammed transmission: the frame is delivered.
    Frame(Payload),
}

impl Reception {
    /// Whether the slot sounded noisy (used by the request-phase counters:
    /// a *noisy* slot is one that is jammed or contains ≥ 1 transmission —
    /// a delivered frame also counts as channel activity).
    #[must_use]
    pub fn is_noisy(&self) -> bool {
        !matches!(self, Reception::Silence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reception_noisiness() {
        assert!(!Reception::Silence.is_noisy());
        assert!(Reception::Noise.is_noisy());
        assert!(Reception::Frame(Payload::Decoy).is_noisy());
    }

    #[test]
    fn participant_id_roundtrip() {
        let p = ParticipantId::new(7);
        assert_eq!(p.index(), 7);
        assert_eq!(p.to_string(), "p7");
        assert_eq!(ParticipantId::from(7u32), p);
    }
}
