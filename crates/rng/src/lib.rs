//! Deterministic randomness substrate for the evildoers simulator.
//!
//! The ε-BROADCAST protocol of Gilbert & Young is driven entirely by
//! independent per-slot Bernoulli trials, and the aggregated phase-level
//! simulator needs *exact* binomial sampling over populations up to `2^20`.
//! This crate provides:
//!
//! * [`SplitMix64`] — the seed expander used everywhere a 64-bit state must
//!   be stretched into more entropy deterministically.
//! * [`Xoshiro256PlusPlus`] — a small, fast, platform-independent generator
//!   implementing [`rand::RngCore`], so simulations replay bit-for-bit
//!   across machines regardless of `rand`'s internal algorithm choices.
//! * [`SeedTree`] — hierarchical, collision-resistant stream derivation:
//!   every participant of a simulation gets an independent stream from a
//!   single master seed (`master → domain label → index`).
//! * [`CounterRng`] — counter-mode per-node streams for the era-2
//!   sleep-skipping engine: word `i` is a pure function of `(key, i)`, so
//!   a node's stream survives skipped slots and draw-order changes.
//! * [`Binomial`] — exact binomial sampling (BINV inversion for small
//!   `n·min(p,1−p)`, BTPE for large), plus a slow geometric-skip validator.
//! * [`Geometric`] — geometric sampling for skip-ahead Bernoulli streams:
//!   one word per variate, inverted through a precomputed threshold table
//!   wherever the table provably returns the logarithmic formula's value,
//!   and through the formula everywhere else.
//! * [`sample_distinct`](subset::sample_distinct) — Floyd's algorithm for
//!   uniform distinct index subsets, and
//!   [`SortedSampler`](subset::SortedSampler), the same picks from the
//!   same words read back in ascending order from a reusable bitset (used
//!   to pick *which* listeners a slot materializes, and KPSY's secret
//!   slots).
//! * [`math`] — `ln Γ`, log-space binomial pmf/cdf used by the fast
//!   simulator's termination-probability computations.
//! * [`stats`] — Welford accumulators and χ² helpers used by the test
//!   suites that keep the samplers honest.
//!
//! # Example
//!
//! ```
//! use rcb_rng::{SeedTree, Binomial};
//! use rand::Rng;
//!
//! let tree = SeedTree::new(0xC0FFEE);
//! let mut node_rng = tree.stream("node", 17);
//! // How many of 10_000 uninformed nodes listen in this slot?
//! let listeners = Binomial::new(10_000, 0.003).unwrap().sample(&mut node_rng);
//! assert!(listeners <= 10_000);
//! let _coin: bool = node_rng.gen_bool(0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod binomial;
mod counter;
mod geometric;
pub mod math;
mod splitmix;
pub mod stats;
mod streams;
pub mod subset;
mod xoshiro;

pub use binomial::{Binomial, BinomialError};
pub use counter::CounterRng;
pub use geometric::{Geometric, GeometricError};
pub use splitmix::SplitMix64;
pub use streams::SeedTree;
pub use xoshiro::Xoshiro256PlusPlus;

/// The RNG type used by every simulator component.
///
/// A concrete alias rather than a generic so that simulation replays are
/// stable across crate versions: the algorithm is pinned in this crate, not
/// inherited from `rand`.
pub type SimRng = Xoshiro256PlusPlus;
