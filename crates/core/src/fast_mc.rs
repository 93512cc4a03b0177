//! Phase-level **multi-channel** Monte-Carlo tier (`fast_mc`).
//!
//! The sampled realization of the [`crate::phase`] kernel: every
//! phase draws its binomial rendezvous counts, multinomial channel
//! splits and (on the epoch schedule) Alice's channel from one seeded
//! stream, so a trial costs `O(phases · C)` regardless of `n` and every
//! tally is a whole number. This is the phase-level counterpart of
//! [`crate::fast`] for the multi-channel hopping broadcasts; the model
//! and its approximations are documented on [`crate::phase`].

use rcb_radio::{ChannelStats, Spectrum};
use rcb_telemetry::Collector;

use crate::outcome::BroadcastOutcome;
use crate::phase::{self, Sampled, Shape};

pub use crate::phase::PhaseJammer;

/// The phase jammer's context, under its `fast_mc` name.
pub type McPhaseCtx<'a> = phase::PhaseJamCtx<'a>;

/// A phase jammer's plan, under its `fast_mc` name.
pub type McPhasePlan = phase::PhaseJamPlan;

/// Default phase length in slots — short enough that the
/// frozen-informed-set approximation tracks the exact engine (validated
/// in experiment E13), long enough that a run costs `O(horizon / 32 ·
/// C)` instead of `O(n · horizon)`. `rcb_sim::ScenarioBuilder` uses the
/// same default (re-exported there as `DEFAULT_MC_PHASE_LEN`).
pub const DEFAULT_PHASE_LEN: u64 = 32;

/// Configuration for a phase-level multi-channel run.
///
/// The protocol shape mirrors
/// [`GossipSpec::hopping`](rcb_radio::GossipSpec::hopping); the
/// spectrum is passed separately to [`run_fast_mc_with`] so one config
/// can be swept across channel counts.
#[derive(Debug, Clone, Copy)]
pub struct McConfig {
    /// Number of receiver nodes.
    pub n: u64,
    /// Hard stop (slots).
    pub horizon: u64,
    /// Per-slot listen probability of uninformed nodes.
    pub listen_p: f64,
    /// Relay probability is `relay_rate / n`.
    pub relay_rate: f64,
    /// Phase length in slots (the last phase is truncated to the
    /// horizon).
    pub phase_len: u64,
    /// Carol's pooled budget (`None` = unlimited).
    pub carol_budget: Option<u64>,
    /// Master seed.
    pub seed: u64,
}

impl McConfig {
    /// The default gossip shape (`listen_p = 0.5`, `relay_rate = 1.0`)
    /// with [`DEFAULT_PHASE_LEN`]-slot phases and an unlimited Carol
    /// budget.
    #[must_use]
    pub fn new(n: u64, horizon: u64, seed: u64) -> Self {
        Self {
            n,
            horizon,
            listen_p: 0.5,
            relay_rate: 1.0,
            phase_len: DEFAULT_PHASE_LEN,
            carol_budget: None,
            seed,
        }
    }

    /// Caps Carol's budget.
    #[must_use]
    pub fn carol_budget(mut self, budget: u64) -> Self {
        self.carol_budget = Some(budget);
        self
    }

    /// Sets the phase length in slots.
    #[must_use]
    pub fn phase_len(mut self, slots: u64) -> Self {
        self.phase_len = slots;
        self
    }

    fn shape(&self) -> Shape {
        Shape {
            n: self.n,
            horizon: self.horizon,
            listen_p: self.listen_p,
            relay_rate: self.relay_rate,
            carol_budget: self.carol_budget,
        }
    }
}

/// Runs the multi-channel random-hopping broadcast at phase granularity
/// over `spectrum`, returning the common outcome plus the per-channel
/// activity/spend tallies (the phase-tier counterpart of
/// [`RunReport::channel_stats`](rcb_radio::RunReport::channel_stats)).
///
/// This is the execution engine behind
/// `rcb_sim::Scenario::hopping(..).engine(Engine::Fast)`; prefer the
/// `Scenario` builder in application code.
///
/// When the collector is enabled, every phase emits one structured
/// [`Event`](rcb_telemetry::Event) (tier `fast_mc`) with the kernel's
/// per-phase aggregates: the single-clean-transmission coincidence
/// probability `p_one`, the spectrum-averaged clean fraction after
/// jamming, the phase-level rendezvous probability, and
/// requested-versus-executed jam slots (the difference is Carol's budget
/// fizzle). Telemetry is purely observational — it never draws from the
/// run's RNG stream.
///
/// # Example
///
/// ```
/// use rcb_core::fast_mc::{run_fast_mc_with, McConfig};
/// use rcb_core::phase::SilentPhaseJammer;
/// use rcb_radio::Spectrum;
/// use rcb_telemetry::NoopCollector;
///
/// let config = McConfig::new(1 << 16, 4_000, 7);
/// let (outcome, stats) =
///     run_fast_mc_with(&config, Spectrum::new(8), &mut SilentPhaseJammer, &NoopCollector);
/// assert!(outcome.informed_fraction() > 0.99);
/// assert_eq!(stats.len(), 8);
/// ```
///
/// # Panics
///
/// Panics if `listen_p` is not a probability, `relay_rate` is negative,
/// or `phase_len == 0` (the `Scenario` builder rejects these with typed
/// errors instead).
#[must_use]
pub fn run_fast_mc_with<C: Collector + ?Sized>(
    config: &McConfig,
    spectrum: Spectrum,
    adversary: &mut dyn PhaseJammer,
    collector: &C,
) -> (BroadcastOutcome, Vec<ChannelStats>) {
    phase::run_memoryless(
        Sampled::new(config.seed, "fast-mc"),
        &config.shape(),
        config.phase_len,
        spectrum,
        adversary,
        collector,
    )
}

/// Runs the **epoch-structured** hopping broadcast (the Chen–Zheng
/// schedule of
/// [`GossipSpec::epoch_hopping`](rcb_radio::GossipSpec::epoch_hopping))
/// at phase granularity, one phase per epoch, drawing Alice's channel
/// each epoch.
///
/// The phase length *is* the epoch length (`config.phase_len` is
/// ignored); the adversary is consulted once per epoch through the same
/// [`PhaseJammer`] interface, and telemetry events carry protocol
/// `epoch-hopping`.
///
/// This is the execution engine behind
/// `rcb_sim::Scenario::epoch_hopping(..).engine(Engine::Fast)`; prefer
/// the `Scenario` builder in application code.
///
/// # Panics
///
/// Panics if `listen_p` is not a probability, `relay_rate` is negative,
/// or `epoch_len == 0` (the `Scenario` builder rejects these with typed
/// errors instead).
#[must_use]
pub fn run_fast_mc_epoch_with<C: Collector + ?Sized>(
    config: &McConfig,
    epoch_len: u64,
    spectrum: Spectrum,
    adversary: &mut dyn PhaseJammer,
    collector: &C,
) -> (BroadcastOutcome, Vec<ChannelStats>) {
    phase::run_epoch(
        Sampled::new(config.seed, "fast-mc"),
        &config.shape(),
        epoch_len,
        spectrum,
        adversary,
        collector,
    )
}
