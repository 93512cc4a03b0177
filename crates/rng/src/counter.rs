//! Counter-based per-participant randomness for the era-2 exact engine.
//!
//! A stateful [`Xoshiro256PlusPlus`](crate::Xoshiro256PlusPlus) stream
//! makes a node's draws depend on *how many* draws it has made — fine
//! for a loop that visits every node every slot, but hostile to
//! sleep-skipping, where a node's next action is sampled directly and
//! whole stretches of slots are never visited. [`CounterRng`] decouples the stream from the visit
//! pattern: the `i`-th word of a node's stream is a pure function of
//! `(key, i)`, so the engine can jump a node's draw counter forward, park
//! it in a wakeup queue, and resume its stream later without replaying the
//! intervening draws.
//!
//! The stream is exactly the [`SplitMix64`] expansion of `key`: word `i`
//! (1-based) is `SplitMix64::mix(key + i·GOLDEN)`. SplitMix64 passes
//! BigCrush for its size class, and keyed streams derived from
//! [`SeedTree`](crate::SeedTree) leaf seeds are independent across keys.

use crate::SplitMix64;
use rand::RngCore;

/// The SplitMix64 increment (2^64 / φ, the golden-ratio constant).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// A counter-mode generator: word `i` of the stream depends only on
/// `(key, i)`, never on draw interleaving.
///
/// Implements [`rand::RngCore`], so every sampler in this crate
/// ([`Geometric`](crate::Geometric), [`Binomial`](crate::Binomial), the
/// [`subset`](crate::subset) helpers) and the `rand` extension methods
/// (`gen_bool`, `gen_range`) work on it unchanged.
///
/// # Example
///
/// ```
/// use rcb_rng::CounterRng;
/// use rand::RngCore;
///
/// let mut sequential = CounterRng::new(0xFEED);
/// let first = sequential.next_u64();
/// let second = sequential.next_u64();
///
/// // Random access: resume the stream at any counter position.
/// let mut resumed = CounterRng::at(0xFEED, 1);
/// assert_eq!(resumed.next_u64(), second);
/// assert_ne!(first, second);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterRng {
    key: u64,
    counter: u64,
}

impl CounterRng {
    /// Creates a stream for `key`, positioned before its first word.
    #[must_use]
    pub fn new(key: u64) -> Self {
        Self { key, counter: 0 }
    }

    /// Creates a stream positioned so the next word is word `counter + 1`
    /// — i.e. `counter` words have already been consumed.
    #[must_use]
    pub fn at(key: u64, counter: u64) -> Self {
        Self { key, counter }
    }

    /// The stream key.
    #[must_use]
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Number of words consumed so far.
    #[must_use]
    pub fn counter(&self) -> u64 {
        self.counter
    }

    /// Repositions the stream as if `counter` words had been consumed.
    pub fn set_counter(&mut self, counter: u64) {
        self.counter = counter;
    }
}

impl RngCore for CounterRng {
    fn next_u32(&mut self) -> u32 {
        // High bits, matching the workspace xoshiro convention: the best
        // bits of the 64-bit word, and one counter tick per draw.
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.counter = self.counter.wrapping_add(1);
        SplitMix64::mix(self.key.wrapping_add(self.counter.wrapping_mul(GOLDEN)))
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn stream_is_the_splitmix_expansion_of_the_key() {
        for key in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            let mut ctr = CounterRng::new(key);
            let mut sm = SplitMix64::new(key);
            for _ in 0..64 {
                assert_eq!(ctr.next_u64(), sm.next_u64(), "key {key:#x}");
            }
        }
    }

    #[test]
    fn random_access_matches_sequential_consumption() {
        let mut sequential = CounterRng::new(42);
        let words: Vec<u64> = (0..16).map(|_| sequential.next_u64()).collect();
        for (skip, expected) in words.iter().enumerate() {
            let mut jumped = CounterRng::at(42, skip as u64);
            assert_eq!(jumped.next_u64(), *expected, "skip {skip}");
            assert_eq!(jumped.counter(), skip as u64 + 1);
        }
    }

    #[test]
    fn next_u32_takes_high_bits_and_one_tick() {
        let mut a = CounterRng::new(7);
        let mut b = CounterRng::new(7);
        for _ in 0..8 {
            let hi = a.next_u32();
            assert_eq!(hi, (b.next_u64() >> 32) as u32);
        }
        assert_eq!(a.counter(), b.counter());
    }

    #[test]
    fn distinct_keys_give_unrelated_streams() {
        let mut a = CounterRng::new(1);
        let mut b = CounterRng::new(2);
        let matches = (0..256).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(matches, 0, "adjacent keys must not share words");
    }

    #[test]
    fn works_with_rand_extension_methods() {
        let mut rng = CounterRng::new(99);
        let heads = (0..10_000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((4_500..=5_500).contains(&heads), "heads {heads}");
        for _ in 0..1_000 {
            let x: usize = rng.gen_range(0..7);
            assert!(x < 7);
        }
    }

    #[test]
    fn set_counter_replays_exactly() {
        let mut rng = CounterRng::new(0xABCD);
        let _ = rng.next_u64();
        let checkpoint = rng.counter();
        let expected: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        rng.set_counter(checkpoint);
        let replayed: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        assert_eq!(expected, replayed);
    }
}
