//! Mean-field **fluid-limit** tier (`fluid`) — the third engine.
//!
//! The expected realization of the [`crate::phase`] kernel: the same
//! recurrences as [`crate::fast_mc`] with every draw replaced by its
//! expectation —
//!
//! * `newly = u · (1 − (1 − p_inform)^s)` instead of a binomial draw;
//! * channel attribution by exact proportion instead of a multinomial
//!   split;
//! * Alice's epoch channel conditioned over instead of drawn;
//! * a jam plan that exceeds the remaining budget fizzles by exact
//!   proportional scaling (no integer remainder).
//!
//! One run costs one `f64` recurrence per `(phase × C)` — no RNG, no
//! per-node state — and `n` enters only as a scale factor, so `n = 2^20`
//! costs exactly what `n = 2^6` does. This is the closed-form
//! epidemic-curve prediction the analyses of Chen–Zheng (2019/2020) and
//! King–Pettie–Saia–Young (2012) work with on paper, made executable.
//!
//! What the tier inherently cannot produce — a slot trace, per-trial
//! variance, a per-node cost distribution — is absent by construction:
//! `rcb_sim::Scenario` rejects those requests with typed errors at build
//! time, and the outcome carries `max_node_cost: None` /
//! `node_costs: None` like the other aggregated engines.
//!
//! # Determinism and the latency proxy
//!
//! There is no seed anywhere in [`FluidConfig`]: two runs of the same
//! configuration are bitwise identical. Full delivery is declared at the
//! first phase where the expected uninformed mass drops below half a
//! node (`u < 0.5` — the point where the rounded outcome reports every
//! node informed); `rounds_entered` reports that phase as the latency
//! proxy, mirroring the `fast_mc` convention.
//!
//! Agreement with `fast_mc` means across the protocol × adversary grid
//! is validated by experiment E19 (`reproduce e19`: ≤ 2% node-cost
//! relative error, with documented concessions for stochastic-jam and
//! epoch cells).

use rcb_radio::{ChannelStats, Spectrum};
use rcb_telemetry::Collector;

use crate::fast_mc::DEFAULT_PHASE_LEN;
use crate::outcome::BroadcastOutcome;
use crate::phase::{self, Expected, Shape};

/// The one phase-jammer trait, under its fluid-tier name. A fluid
/// jammer must be deterministic — the tier's contract is that a run has
/// no RNG anywhere — so a stochastic strategy joins as its *expected*
/// plan (e.g. `Random(p)` plans `p · phase_len` jam slots).
pub use crate::phase::PhaseJammer as FluidJammer;

/// The phase jammer's context, under its fluid-tier name.
pub type FluidPhaseCtx<'a> = phase::PhaseJamCtx<'a>;

/// A phase jammer's plan, under its fluid-tier name.
pub type FluidPlan = phase::PhaseJamPlan;

/// Configuration for a fluid-limit run.
///
/// The protocol shape mirrors [`crate::fast_mc::McConfig`] with one
/// deliberate omission: **no seed**. The tier is deterministic by
/// construction.
#[derive(Debug, Clone, Copy)]
pub struct FluidConfig {
    /// Number of receiver nodes (a pure scale factor).
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
}

impl FluidConfig {
    /// The default gossip shape (`listen_p = 0.5`, `relay_rate = 1.0`)
    /// with [`DEFAULT_PHASE_LEN`]-slot phases and an unlimited Carol
    /// budget.
    #[must_use]
    pub fn new(n: u64, horizon: u64) -> Self {
        Self {
            n,
            horizon,
            listen_p: 0.5,
            relay_rate: 1.0,
            phase_len: DEFAULT_PHASE_LEN,
            carol_budget: None,
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

/// Runs the multi-channel random-hopping broadcast as a deterministic
/// fluid limit over `spectrum`, returning the rounded common outcome and
/// per-channel expected tallies.
///
/// This is the execution engine behind
/// `rcb_sim::Scenario::hopping(..).engine(Engine::Fluid)`; prefer the
/// `Scenario` builder in application code.
///
/// When the collector is enabled, every phase emits one structured
/// [`Event`](rcb_telemetry::Event) (tier `fluid`) carrying the
/// recurrence's per-phase aggregates — the same fields as the `fast_mc`
/// tier, in expectation — and the run bumps the fluid-tier counters.
/// Telemetry is purely observational.
///
/// # Example
///
/// ```
/// use rcb_core::fluid::{run_fluid_with, FluidConfig};
/// use rcb_core::phase::SilentPhaseJammer;
/// use rcb_radio::Spectrum;
/// use rcb_telemetry::NoopCollector;
///
/// let config = FluidConfig::new(1 << 20, 4_000);
/// let (outcome, stats) =
///     run_fluid_with(&config, Spectrum::new(8), &mut SilentPhaseJammer, &NoopCollector);
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
pub fn run_fluid_with<C: Collector + ?Sized>(
    config: &FluidConfig,
    spectrum: Spectrum,
    adversary: &mut dyn FluidJammer,
    collector: &C,
) -> (BroadcastOutcome, Vec<ChannelStats>) {
    phase::run_memoryless(
        Expected,
        &config.shape(),
        config.phase_len,
        spectrum,
        adversary,
        collector,
    )
}

/// Runs the **epoch-structured** hopping broadcast (the Chen–Zheng
/// schedule) as a deterministic fluid limit, one phase per epoch.
///
/// The carried state is the per-channel expected census — uninformed
/// listener mass and relay mass by channel — exactly as in
/// [`crate::fast_mc::run_fast_mc_epoch_with`], with Alice's epoch
/// channel conditioned over rather than drawn and the boundary redraw
/// moving expected masses. `config.phase_len` is ignored.
///
/// # Panics
///
/// Panics if `listen_p` is not a probability, `relay_rate` is negative,
/// or `epoch_len == 0` (the `Scenario` builder rejects these with typed
/// errors instead).
#[must_use]
pub fn run_fluid_epoch_with<C: Collector + ?Sized>(
    config: &FluidConfig,
    epoch_len: u64,
    spectrum: Spectrum,
    adversary: &mut dyn FluidJammer,
    collector: &C,
) -> (BroadcastOutcome, Vec<ChannelStats>) {
    phase::run_epoch(
        Expected,
        &config.shape(),
        epoch_len,
        spectrum,
        adversary,
        collector,
    )
}
