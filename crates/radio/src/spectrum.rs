//! Channel identities and the spectrum configuration.
//!
//! The multi-channel radio model (cf. Chen & Zheng's multi-channel
//! resource-competitive broadcast line of work) generalises the §1.1
//! single channel to `C ≥ 1` orthogonal channels: every send, listen, and
//! jam targets one [`ChannelId`] drawn from a [`Spectrum`]. A jammer must
//! now *split* its budget — blanketing the whole spectrum costs `C` units
//! per slot — which is exactly the lever multi-channel protocols exploit.
//!
//! The single-channel model of the source paper is recovered exactly as
//! [`Spectrum::single`]: with one channel, every operation lands on
//! [`ChannelId::ZERO`] and the engine's behaviour (including its RNG
//! streams) is bit-for-bit identical to the pre-spectrum implementation.

use std::fmt;

/// A radio channel index, `0 ≤ c < C`.
///
/// Newtype over `u16` so channel arithmetic cannot be confused with slot
/// indices or participant ids.
///
/// # Example
///
/// ```
/// use rcb_radio::{ChannelId, Spectrum};
/// let spectrum = Spectrum::new(4);
/// assert!(spectrum.contains(ChannelId::new(3)));
/// assert!(!spectrum.contains(ChannelId::new(4)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ChannelId(u16);

impl ChannelId {
    /// The first channel — the only one in a single-channel spectrum.
    pub const ZERO: ChannelId = ChannelId(0);

    /// Creates a channel id from its index.
    #[must_use]
    pub const fn new(index: u16) -> Self {
        ChannelId(index)
    }

    /// The raw index.
    #[must_use]
    pub const fn index(self) -> u16 {
        self.0
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

impl From<u16> for ChannelId {
    fn from(v: u16) -> Self {
        ChannelId(v)
    }
}

/// The set of channels available to a simulation: `0..C`.
///
/// A spectrum always has at least one channel; [`Spectrum::single`] (also
/// the `Default`) is the source paper's model and the engine's default.
///
/// # Example
///
/// ```
/// use rcb_radio::{ChannelId, Spectrum};
/// let s = Spectrum::new(8);
/// assert_eq!(s.channel_count(), 8);
/// assert_eq!(s.channels().count(), 8);
/// assert_eq!(Spectrum::default(), Spectrum::single());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Spectrum {
    channels: u16,
}

impl Spectrum {
    /// A spectrum of `channels` orthogonal channels.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0` — a radio needs at least one channel.
    #[must_use]
    pub const fn new(channels: u16) -> Self {
        assert!(channels > 0, "a spectrum needs at least one channel");
        Spectrum { channels }
    }

    /// The single-channel spectrum of the source paper (§1.1).
    #[must_use]
    pub const fn single() -> Self {
        Spectrum { channels: 1 }
    }

    /// Number of channels, `C`.
    #[must_use]
    pub const fn channel_count(self) -> u16 {
        self.channels
    }

    /// Whether this is the single-channel (paper) model.
    #[must_use]
    pub const fn is_single(self) -> bool {
        self.channels == 1
    }

    /// Whether `channel` is within this spectrum.
    #[must_use]
    pub const fn contains(self, channel: ChannelId) -> bool {
        channel.index() < self.channels
    }

    /// Iterates every channel id, ascending.
    pub fn channels(self) -> impl Iterator<Item = ChannelId> {
        (0..self.channels).map(ChannelId::new)
    }
}

impl Default for Spectrum {
    fn default() -> Self {
        Spectrum::single()
    }
}

impl fmt::Display for Spectrum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} channel(s)", self.channels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_id_roundtrip_and_display() {
        let c = ChannelId::new(5);
        assert_eq!(c.index(), 5);
        assert_eq!(c.to_string(), "ch5");
        assert_eq!(ChannelId::from(5u16), c);
        assert!(ChannelId::ZERO < c);
    }

    #[test]
    fn spectrum_membership() {
        let s = Spectrum::new(3);
        assert!(s.contains(ChannelId::new(0)));
        assert!(s.contains(ChannelId::new(2)));
        assert!(!s.contains(ChannelId::new(3)));
        assert_eq!(
            s.channels().map(ChannelId::index).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn single_is_default() {
        assert_eq!(Spectrum::default(), Spectrum::single());
        assert!(Spectrum::single().is_single());
        assert!(!Spectrum::new(2).is_single());
        assert_eq!(Spectrum::new(2).to_string(), "2 channel(s)");
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_rejected() {
        let _ = Spectrum::new(0);
    }
}
