//! Comparison protocols for the E7 baseline experiments.
//!
//! The paper's pitch is relative: ε-BROADCAST's `Õ(T^{1/(k+1)})` beats both
//! the naive strawman of §1.1 ("a correct node continually sends m until
//! the jamming stops; this yields very poor resource competitiveness since
//! each node spends at least as much as the adversary") and the earlier
//! golden-ratio bound `O(T^{φ−1}) = O(T^{0.62})` of King–Saia–Young \[23\].
//! This crate implements the golden-ratio comparators; the naive strawman
//! and epidemic gossip are rows of `rcb_radio::GossipSpec`, run by
//! `rcb_core::run_gossip_with`.
//!
//! ## Where to start
//!
//! **Run baselines through `rcb-sim`'s `Scenario` builder**, which gives
//! every protocol the same adversary vocabulary, outcome type, and
//! batching, and rejects invalid combinations with a typed error:
//!
//! ```text
//! Scenario::naive(NaiveSpec { n: 8, horizon: 1_000 })
//!     .adversary(StrategySpec::Continuous)
//!     .carol_budget(500)
//!     .build()?
//!     .run()
//! // likewise Scenario::epidemic(..), Scenario::kpsy(..) and Scenario::ksy(..)
//! ```
//!
//! ## Crate layout
//!
//! * [`ksy`] — a two-player epoch protocol reproducing the *shape* of
//!   \[23\]: per-player cost `O(T^{φ−1})` against a continuous jammer.
//! * [`execute_kpsy`] / [`KpsyConfig`] — the `n`-player KPSY jamming
//!   defense: doubling epochs with secret `O(L^{φ−1})`-slot activity
//!   plans, run slot-by-slot on the exact engine against the whole
//!   adversary zoo.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kpsy;
pub mod ksy;

pub use kpsy::{execute_kpsy, execute_kpsy_in, execute_kpsy_with, KpsyConfig, KpsyScratch};
