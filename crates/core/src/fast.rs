//! Phase-level aggregated ε-BROADCAST simulator.
//!
//! The exact engine costs `O(n · slots)` and the final round alone has
//! `Θ(n^{1+1/k})` slots, so sweeping `n` into the hundreds of thousands
//! needs a different gear. This simulator advances one *phase* at a time
//! using closed-form aggregates:
//!
//! * counts of sends/listens are drawn **exactly** as binomials over
//!   (population × slots) Bernoulli trials — the sum of `u` independent
//!   `Bin(s, p)` variables *is* `Bin(u·s, p)`;
//! * per-phase delivery uses the same structure as the paper's own
//!   analysis (Lemmas 1–3): a node that starts a phase uninformed listens
//!   with the phase-constant probability, and a slot delivers if exactly
//!   one transmission survives jamming and decoy collisions;
//! * request-phase termination uses the exact per-node distribution
//!   `P(Bin(s, q·p_noisy) ≤ 5c ln n)` via log-space binomial CDF.
//!
//! Approximations relative to the exact engine (all validated statistically
//! in `tests/fast_vs_exact.rs`): state changes take effect at phase
//! boundaries (as in the paper's lemmas), jam/transmission slot overlaps
//! are treated as independent thinning, and a node's exclusion of its own
//! transmissions is ignored (an `O(1/n)` effect).
//!
//! The recurrence itself is the third one of the phase kernel
//! ([`crate::phase`]), beside the two hopping schedules, drawn by the
//! kernel's sampled realization. Carol is consulted once per phase
//! through the kernel's one adversary trait, [`PhaseJammer`], on a
//! single-channel spectrum; her plan's `spare` and `byz_sends` fields
//! carry the n-uniform extraction and spoofed frames that only this
//! recurrence prices.

use rcb_telemetry::{Collector, NoopCollector};

use crate::outcome::BroadcastOutcome;
use crate::params::Params;
use crate::phase::{self, PhaseJammer, Sampled};

/// The phase kernel's [`PhaseJammer`] under this module's former name for
/// its own phase-adversary trait, kept for callers of that name.
pub use crate::phase::PhaseJammer as PhaseAdversary;

/// The phase jammer's context, under this module's former name.
pub type PhaseCtx<'a> = phase::PhaseJamCtx<'a>;

/// A phase jammer's plan, under this module's former name.
pub type PhasePlan = phase::PhaseJamPlan;

/// Configuration for a fast run.
#[derive(Debug, Clone, Copy)]
pub struct FastConfig {
    /// Carol's pooled budget (`None` = unlimited).
    pub carol_budget: Option<u64>,
    /// Master seed.
    pub seed: u64,
}

impl FastConfig {
    /// Seeded config with unlimited Carol budget.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        Self {
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
}

/// Runs ε-BROADCAST at phase granularity.
///
/// # Example
///
/// ```
/// use rcb_core::fast::{run_fast, FastConfig};
/// use rcb_core::phase::SilentPhaseJammer;
/// use rcb_core::Params;
///
/// let params = Params::builder(100_000).min_termination_round(6).build()?;
/// let outcome = run_fast(&params, &mut SilentPhaseJammer, &FastConfig::seeded(3));
/// assert!(outcome.informed_fraction() > 0.95);
/// # Ok::<(), rcb_core::ParamsError>(())
/// ```
#[must_use]
pub fn run_fast(
    params: &Params,
    adversary: &mut dyn PhaseJammer,
    config: &FastConfig,
) -> BroadcastOutcome {
    run_fast_with(params, adversary, config, &NoopCollector)
}

/// [`run_fast`] with a telemetry collector attached.
///
/// When the collector is enabled, every phase emits one structured
/// [`Event`](rcb_telemetry::Event) (tier `fast`) carrying the quantities
/// the phase-level engine is otherwise opaque about: the rendezvous
/// probability of an uninformed listener, the surviving-slot fraction
/// after jam thinning, and requested-versus-executed jam slots (the
/// difference is Carol's budget fizzle). Telemetry is purely
/// observational — it never draws from the run's RNG stream.
#[must_use]
pub fn run_fast_with<C: Collector + ?Sized>(
    params: &Params,
    adversary: &mut dyn PhaseJammer,
    config: &FastConfig,
    collector: &C,
) -> BroadcastOutcome {
    phase::run_broadcast(
        Sampled::new(config.seed, "fast-sim"),
        params,
        config.carol_budget,
        adversary,
        collector,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::EngineKind;
    use crate::phase::{PhaseJamCtx, PhaseJamPlan, SilentPhaseJammer};
    use crate::schedule::{PhaseKind, RoundSchedule};
    use rcb_radio::Spectrum;

    fn params(n: u64) -> Params {
        // Default termination floor: the noisy-channel margins of
        // Lemmas 4–7 only hold at or past `3 lg ln n`.
        Params::builder(n).build().unwrap()
    }

    #[test]
    fn silent_run_informs_almost_everyone() {
        let p = params(10_000);
        let o = run_fast(&p, &mut SilentPhaseJammer, &FastConfig::seeded(1));
        assert!(o.informed_fraction() > 0.97, "{}", o.informed_fraction());
        assert!(o.alice_terminated);
        assert_eq!(o.engine, EngineKind::Fast);
        assert_eq!(o.carol_spend(), 0);
        assert_eq!(
            o.informed_nodes + o.uninformed_terminated + o.unterminated_nodes,
            o.n
        );
    }

    #[test]
    fn runs_scale_to_large_n_quickly() {
        let p = Params::builder(1 << 17).build().unwrap();
        let o = run_fast(&p, &mut SilentPhaseJammer, &FastConfig::seeded(2));
        assert!(o.informed_fraction() > 0.95);
        assert!(o.completed());
    }

    #[test]
    fn deterministic_by_seed() {
        let p = params(5_000);
        let a = run_fast(&p, &mut SilentPhaseJammer, &FastConfig::seeded(7));
        let b = run_fast(&p, &mut SilentPhaseJammer, &FastConfig::seeded(7));
        assert_eq!(a.informed_nodes, b.informed_nodes);
        assert_eq!(a.alice_cost, b.alice_cost);
        assert_eq!(a.node_total_cost, b.node_total_cost);
        assert_eq!(a.slots, b.slots);
    }

    /// Jams every slot of every phase while budget lasts.
    struct FullJammer;
    impl PhaseJammer for FullJammer {
        fn plan_phase(&mut self, ctx: &PhaseJamCtx<'_>) -> PhaseJamPlan {
            PhaseJamPlan::channel_zero(ctx.spectrum, ctx.phase_len as f64)
        }
    }

    /// Plans `plan(len)` in the phases of one kind and nothing elsewhere.
    struct OnPhase {
        schedule: RoundSchedule,
        kind: fn(PhaseKind) -> bool,
        plan: fn(u64) -> PhaseJamPlan,
    }
    impl PhaseJammer for OnPhase {
        fn plan_phase(&mut self, ctx: &PhaseJamCtx<'_>) -> PhaseJamPlan {
            if (self.kind)(self.schedule.locate(ctx.start_slot).phase) {
                (self.plan)(ctx.phase_len)
            } else {
                PhaseJamPlan::idle(ctx.spectrum)
            }
        }
    }

    #[test]
    fn broke_jammer_eventually_loses() {
        let p = params(5_000);
        let budget = 200_000u64;
        let o = run_fast(
            &p,
            &mut FullJammer,
            &FastConfig::seeded(3).carol_budget(budget),
        );
        assert!(o.informed_fraction() > 0.9, "{}", o.informed_fraction());
        assert!(o.carol_spend() <= budget);
        assert!(o.carol_spend() >= budget - 1, "she should spend it all");
        // Delivery happened later than a quiet run would: more slots used.
        let quiet = run_fast(&p, &mut SilentPhaseJammer, &FastConfig::seeded(3));
        assert!(o.slots >= quiet.slots);
    }

    #[test]
    fn unlimited_jammer_prevents_delivery_and_termination() {
        let p = params(2_000);
        let o = run_fast(&p, &mut FullJammer, &FastConfig::seeded(4));
        // With jamming in every slot forever, nothing is ever delivered.
        assert_eq!(o.informed_nodes, 0);
        // Nodes cannot terminate either: every listened slot is noisy.
        assert!(!o.completed());
    }

    #[test]
    fn n_uniform_sparing_informs_exactly_the_chosen_few() {
        let p = params(2_000);
        // Blocks every propagation phase totally but spares 50 nodes;
        // leaves other phases alone.
        let mut extractor = OnPhase {
            schedule: RoundSchedule::new(&p),
            kind: |phase| matches!(phase, PhaseKind::Propagation { .. }),
            plan: |len| {
                let mut plan = PhaseJamPlan::channel_zero(Spectrum::single(), len as f64);
                plan.spare = Some(50);
                plan
            },
        };
        let o = run_fast(&p, &mut extractor, &FastConfig::seeded(5));
        // Inform phases still seed S_1 directly from Alice, so delivery
        // exceeds 50 — but propagation's mass effect is destroyed, so the
        // informed count stays far below n until very late rounds when
        // the inform phase alone suffices... In practice the run ends with
        // a visible deficit versus the quiet run at equal seeds.
        let quiet = run_fast(&p, &mut SilentPhaseJammer, &FastConfig::seeded(5));
        assert!(o.informed_nodes <= quiet.informed_nodes);
        assert!(o.carol_spend() > 0);
    }

    #[test]
    fn request_spoofing_delays_alice() {
        let p = params(2_000);
        // Spoofs nacks across the whole request phase.
        let mut spoofer = OnPhase {
            schedule: RoundSchedule::new(&p),
            kind: |phase| phase == PhaseKind::Request,
            plan: |len| {
                let mut plan = PhaseJamPlan::idle(Spectrum::single());
                plan.byz_sends = len;
                plan
            },
        };
        let budget = 300_000u64;
        let spoofed = run_fast(
            &p,
            &mut spoofer,
            &FastConfig::seeded(6).carol_budget(budget),
        );
        let quiet = run_fast(&p, &mut SilentPhaseJammer, &FastConfig::seeded(6));
        // Spoofed nacks keep everyone awake longer.
        assert!(spoofed.slots >= quiet.slots);
        assert!(spoofed.alice_cost.total() >= quiet.alice_cost.total());
        // But she still terminates once Carol is broke.
        assert!(spoofed.alice_terminated);
    }
}
