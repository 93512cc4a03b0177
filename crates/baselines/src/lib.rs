//! Comparison protocols for the E7 baseline experiments.
//!
//! The paper's pitch is relative: ε-BROADCAST's `Õ(T^{1/(k+1)})` beats both
//! the naive strawman of §1.1 ("a correct node continually sends m until
//! the jamming stops; this yields very poor resource competitiveness since
//! each node spends at least as much as the adversary") and the earlier
//! golden-ratio bound `O(T^{φ−1}) = O(T^{0.62})` of King–Saia–Young \[23\].
//! This crate implements those comparators.
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
//! // likewise Scenario::epidemic(..) and Scenario::ksy(..)
//! ```
//!
//! ## Crate layout
//!
//! * [`execute_naive_soa`] / [`NaiveConfig`] — always-on sender,
//!   always-listening receivers; per-device cost `Θ(T)`. Runs on the
//!   exact engine against any [`rcb_radio::Adversary`].
//! * [`execute_epidemic_soa`] / [`EpidemicConfig`] — constant-rate
//!   relaying without backoff; receivers still pay `Θ(T)` listening
//!   through jamming.
//! * [`ksy`] — a two-player epoch protocol reproducing the *shape* of
//!   \[23\]: per-player cost `O(T^{φ−1})` against a continuous jammer.
//! * [`execute_kpsy`] / [`KpsyConfig`] — the `n`-player KPSY jamming
//!   defense: doubling epochs with secret `O(L^{φ−1})`-slot activity
//!   plans, run slot-by-slot on the exact engine against the whole
//!   adversary zoo.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod epidemic;
mod kpsy;
pub mod ksy;
mod naive;

pub use epidemic::{
    execute_epidemic_soa, execute_epidemic_soa_in, execute_epidemic_soa_with, EpidemicConfig,
    EpidemicSoaScratch,
};
pub use kpsy::{execute_kpsy, execute_kpsy_in, execute_kpsy_with, KpsyConfig, KpsyScratch};
pub use naive::{
    execute_naive_soa, execute_naive_soa_in, execute_naive_soa_with, NaiveConfig, NaiveSoaScratch,
};
