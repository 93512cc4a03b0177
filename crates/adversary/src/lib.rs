//! Carol's strategy library.
//!
//! Theorem 1 quantifies over *every* adversary; the lemmas of §2.3 and §2.2
//! identify the worst cases. This crate makes each named attack from the
//! paper executable, at both simulation granularities:
//!
//! * slot level ([`rcb_radio::Adversary`]) for the exact engine, and
//! * phase level ([`rcb_core::phase::PhaseJammer`]) for the phase
//!   kernel's recurrences, the fast ε-BROADCAST simulator among them.
//!
//! | strategy | paper reference | what it does |
//! |---|---|---|
//! | [`ContinuousJammer`] | Lemma 10/11 budget argument | jam every slot until broke |
//! | [`RandomJammer`] | Pelc–Peleg-style random faults | jam each slot i.i.d. with probability `p` |
//! | [`BurstyJammer`] | Awerbuch et al. bursty model | alternating jam bursts and sleep gaps |
//! | [`PhaseBlocker`] | Lemma 10 strategies 1 & 2 | jam a β-fraction of chosen phase kinds each round |
//! | [`EpsilonExtractor`] | §2.3 n-uniform discussion | block propagation totally but spare hand-picked nodes |
//! | [`NackSpoofer`] | §2.2 spoofing attack | Byzantine fake nacks keep Alice awake |
//! | [`ReactiveJammer`] | §4.1 | jam only slots with detected RSSI activity |
//! | [`LaggedJammer`] | §4.1 without in-slot CCA | jam the slot *after* detected activity (slot-only) |
//! | [`SplitJammer`] | Chen–Zheng multi-channel model | blanket every channel, splitting the budget (channel-aware) |
//! | [`SweepJammer`] | Chen–Zheng multi-channel model | jam one channel at a time, sweeping the spectrum (channel-aware) |
//! | [`ChannelLaggedJammer`] | multi-channel lagged CCA | jam last slot's active channels (channel-aware) |
//! | [`AdaptiveJammer`] | Chen–Zheng 2020 adaptive adversary | track per-channel traffic estimates, greedily jam the hottest channels (channel-aware) |
//!
//! Every strategy is deterministic given its seed; the analysis harness
//! constructs them from a serialisable [`StrategySpec`]. Two simulation
//! granularities exist:
//!
//! * slot level ([`rcb_radio::Adversary`]) — every strategy;
//! * phase level ([`rcb_core::phase::PhaseJammer`]), one trait for every
//!   phase recurrence of the kernel:
//!   * the ε-BROADCAST schedule (the `fast` simulator, one channel)
//!     hosts the single-channel strategies with a phase model
//!     ([`StrategySpec::phase_adversary`] returns `None` for slot-only
//!     ones like [`LaggedJammer`]). The schedule-bound ones locate their
//!     round and phase from the context's start slot, and their plans
//!     carry the moves only this schedule prices: sparing
//!     ([`EpsilonExtractor`]) and spoofed frames ([`NackSpoofer`]).
//!     `Bursty` runs its duty-cycle model here, [`BurstyDutyJammer`];
//!   * the hopping schedules, on both phase tiers — the sampled
//!     `fast_mc` tier and the deterministic fluid tier — host the **whole
//!     schedule-free zoo**: the channel-aware family via
//!     [`AdaptivePhaseJammer`] / [`ChannelLaggedPhaseJammer`] and the
//!     direct `PhaseJammer` impls on [`SplitJammer`] / [`SweepJammer`],
//!     plus the lowered single-channel strategies — [`RandomJammer`]
//!     (per-phase binomial), [`BurstyJammer`] (exact periodic interval
//!     counts), and [`LaggedPhaseJammer`] (expected union-activity
//!     pacing). Every lowering is deterministic except `Random`'s draw,
//!     so the fluid tier runs each of them as is and `Random` as its
//!     mean, [`RandomFluidJammer`] ([`StrategySpec::phase_jammer`] /
//!     [`StrategySpec::fluid_jammer`]). Only the schedule-bound family
//!     stays off these tiers.
//!
//! `rcb_sim::Scenario` rejects any strategy × engine combination without
//! a model at the required granularity with a typed error. Channel-aware
//! strategies additionally require a protocol hosting a multi-channel
//! spectrum ([`StrategySpec::requires_channels`]), which `Scenario` also
//! enforces at build time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod bursty;
mod continuous;
mod lagged;
mod multichannel;
mod nuniform;
mod phase_blocker;
mod phase_mc;
mod random;
mod reactive;
mod spec;
mod spoofer;

pub use adaptive::AdaptiveJammer;
pub use bursty::{BurstyDutyJammer, BurstyJammer};
pub use continuous::ContinuousJammer;
pub use lagged::LaggedJammer;
pub use multichannel::{ChannelLaggedJammer, SplitJammer, SweepJammer};
pub use nuniform::EpsilonExtractor;
pub use phase_blocker::{PhaseBlocker, PhaseTarget};
pub use phase_mc::{AdaptivePhaseJammer, ChannelLaggedPhaseJammer, LaggedPhaseJammer};
pub use random::{RandomFluidJammer, RandomJammer};
pub use reactive::ReactiveJammer;
pub use spec::StrategySpec;
pub use spoofer::NackSpoofer;

// Re-export the passive baselines so downstream code has one import path
// for "every adversary".
pub use rcb_core::phase::SilentPhaseJammer;
pub use rcb_radio::SilentAdversary;

#[cfg(test)]
mod test_util {
    use rcb_core::{BroadcastOutcome, BroadcastSoaScratch, Params, RunConfig};

    /// One-shot scratch run, shared by every strategy's test module.
    pub(crate) fn run_broadcast(
        params: &Params,
        adversary: &mut dyn rcb_radio::Adversary,
        config: &RunConfig,
    ) -> BroadcastOutcome {
        BroadcastSoaScratch::new().run(params, adversary, config).0
    }
}
