//! # rcb-core — the ε-BROADCAST protocol
//!
//! A faithful implementation of the resource-competitive broadcast protocol
//! of **Gilbert & Young, "Making Evildoers Pay: Resource-Competitive
//! Broadcast in Sensor Networks" (PODC 2012)**.
//!
//! ## The problem
//!
//! A trusted sender Alice must deliver a message `m` to `n` correct,
//! severely energy-constrained devices over a single jammed channel, while
//! an adversary Carol controlling `f·n` Byzantine devices spends energy to
//! stop her. The protocol guarantees (Theorem 1), w.h.p.:
//!
//! * at least `(1−ε)n` correct nodes receive `m`, within `O(n^{1+1/k})`
//!   slots;
//! * if Carol's coalition jams for `T` slots, Alice and each correct node
//!   individually spend only `Õ(T^{1/(k+1)} + 1)` — so sustained attack
//!   drains Carol polynomially faster than anyone she attacks.
//!
//! ## Where to start
//!
//! **Applications should not drive this crate directly.** The workspace's
//! run-entry surface is `rcb-sim`'s `Scenario` builder, which composes
//! this protocol with an engine and an adversary and validates the
//! combination:
//!
//! ```text
//! Scenario::broadcast(params)
//!     .engine(Engine::Exact)            // or Engine::Fast
//!     .adversary(StrategySpec::Continuous)
//!     .carol_budget(2_000)
//!     .build()?
//!     .run()
//! ```
//!
//! This crate holds the protocol itself and its execution machinery.
//!
//! ## Crate layout
//!
//! * [`Params`] — validated protocol parameters and derived budgets;
//! * [`RoundSchedule`] / [`PhaseKind`] — the slot → (round, phase) map;
//! * [`probabilities`] — the Figure 1/2 formulas, in one auditable place;
//! * [`BroadcastSoaScratch`] — the exact Figure 1/2 state machines as
//!   one sleep-skipping driver on `rcb-radio`'s wake queue, with in-place
//!   state reuse across runs, producing a [`BroadcastOutcome`];
//! * [`run_gossip_with`] — the one entry point of the gossip-shaped
//!   protocols on the exact engine: the naive strawman, epidemic
//!   gossip, and the memoryless and epoch-structured channel-hopping
//!   broadcasts, each one row of [`GossipSpec`](rcb_radio::GossipSpec);
//! * [`phase`] — the phase kernel: one recurrence per schedule (the two
//!   hopping schedules and ε-BROADCAST's rounds) and the one
//!   [`phase::PhaseJammer`] trait, realized twice —
//!   * sampled: [`fast`], the phase-level ε-BROADCAST simulator for
//!     large `n`, and [`fast_mc`], the phase-level Monte-Carlo spectrum
//!     simulator;
//!   * in expectation: [`fluid`], the deterministic mean-field tier of
//!     the hopping broadcasts (`O(phases · C)`, independent of `n`);
//! * [`DecoyConfig`] — §4.1 reactive hardening; [`SizeKnowledge`] — §4.2
//!   unknown-size operation.
//!
//! ## Direct use (protocol-level code and tests)
//!
//! ```
//! use rcb_core::{BroadcastSoaScratch, Params, RunConfig};
//! use rcb_radio::SilentAdversary;
//!
//! let params = Params::builder(64).min_termination_round(3).build()?;
//! let mut scratch = BroadcastSoaScratch::new();
//! let (outcome, _report) = scratch.run(&params, &mut SilentAdversary, &RunConfig::seeded(1));
//! assert!(outcome.informed_fraction() > 0.9);
//! assert!(outcome.completed());
//! # Ok::<(), rcb_core::ParamsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod broadcast;
mod era2;
pub mod fast;
pub mod fast_mc;
pub mod fluid;
mod gossip;
mod outcome;
mod params;
pub mod phase;
pub mod probabilities;
mod schedule;

pub use broadcast::{stopped_cleanly, RunConfig};
pub use era2::BroadcastSoaScratch;
pub use gossip::{
    execute_hopping_soa_with, gossip_outcome, run_gossip_with, HoppingConfig, HoppingSoaScratch,
};
pub use outcome::{BroadcastOutcome, EngineKind};
pub use params::{DecoyConfig, Params, ParamsBuilder, ParamsError, SizeKnowledge, Variant};
pub use schedule::{phase_exponent, Cursor, PhaseKind, RoundSchedule, SlotPosition};
