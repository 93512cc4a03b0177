//! The random jammer: i.i.d. per-slot jamming.

use rand::{Rng, SeedableRng};
use rcb_core::phase::{PhaseJamCtx, PhaseJamPlan, PhaseJammer};
use rcb_radio::{Adversary, AdversaryCtx, AdversaryMove, Slot};
use rcb_rng::{Binomial, SimRng};

/// Jams each slot independently with probability `p` (cf. the random
/// fault models of Pelc & Peleg \[25\]).
///
/// Unlike the phase blockers this adversary is oblivious — it neither
/// reads the schedule nor adapts — making it the "weak" comparison point
/// in the E2 delivery table.
#[derive(Debug, Clone)]
pub struct RandomJammer {
    p: f64,
    rng: SimRng,
}

impl RandomJammer {
    /// Creates a jammer that jams each slot with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a probability.
    #[must_use]
    pub fn new(p: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
        Self {
            p,
            rng: SimRng::seed_from_u64(seed),
        }
    }

    /// The per-slot jam probability.
    #[must_use]
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl Adversary for RandomJammer {
    fn plan(&mut self, _slot: Slot, _ctx: &AdversaryCtx) -> AdversaryMove {
        if self.rng.gen_bool(self.p) {
            AdversaryMove::jam_all()
        } else {
            AdversaryMove::idle()
        }
    }
}

impl PhaseJammer for RandomJammer {
    /// Phase lowering, on every phase tier: the slot adversary's
    /// `jam_all` is the single-channel "jam everything" of the source
    /// paper — it targets **channel 0 only**, at one unit per firing
    /// slot — so the lowering plans one binomial draw
    /// `J ~ Bin(phase_len, p)` on channel 0 and leaves the rest of the
    /// spectrum untouched, exactly like the slot pattern it aggregates.
    fn plan_phase(&mut self, ctx: &PhaseJamCtx<'_>) -> PhaseJamPlan {
        let jam = Binomial::new(ctx.phase_len, self.p)
            .expect("validated probability")
            .sample(&mut self.rng);
        PhaseJamPlan::channel_zero(ctx.spectrum, jam as f64)
    }
}

/// The fluid-tier model of `Random(p)`: the mean of the sampled
/// lowering's binomial draw, `p · phase_len` jam slots on channel 0 (the
/// single-channel `jam_all` pattern), planned deterministically — the
/// fluid tier has no RNG anywhere.
#[derive(Debug, Clone, Copy)]
pub struct RandomFluidJammer {
    p: f64,
}

impl RandomFluidJammer {
    /// Creates the expectation model for per-slot jam probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a probability.
    #[must_use]
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
        Self { p }
    }
}

impl PhaseJammer for RandomFluidJammer {
    fn plan_phase(&mut self, ctx: &PhaseJamCtx<'_>) -> PhaseJamPlan {
        PhaseJamPlan::channel_zero(ctx.spectrum, self.p * ctx.phase_len as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcb_core::phase::PhaseObservation;
    use rcb_core::{Params, RunConfig};

    use crate::test_util::run_broadcast;
    use rcb_radio::{Budget, Spectrum};

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn rejects_bad_probability() {
        let _ = RandomJammer::new(1.5, 0);
    }

    #[test]
    fn jam_rate_tracks_p() {
        let mut carol = RandomJammer::new(0.3, 7);
        let ctx = AdversaryCtx {
            budget_remaining: None,
            spent: 0,
        };
        let jams = (0..10_000)
            .filter(|&t| carol.plan(Slot::new(t), &ctx).jam.is_active())
            .count();
        assert!((2_700..3_300).contains(&jams), "jams {jams}");
    }

    #[test]
    fn half_rate_jamming_delays_but_does_not_stop_broadcast() {
        let params = Params::builder(32).build().unwrap();
        let cfg = RunConfig::seeded(5).carol_budget(Budget::limited(5_000));
        let mut carol = RandomJammer::new(0.5, 11);
        let outcome = run_broadcast(&params, &mut carol, &cfg);
        assert!(outcome.informed_fraction() > 0.9);
        assert!(outcome.carol_spend() > 0);
    }

    fn phase_ctx(spectrum: Spectrum, empty: &PhaseObservation) -> PhaseJamCtx<'_> {
        PhaseJamCtx {
            phase: 0,
            start_slot: 0,
            phase_len: 100_000,
            spectrum,
            budget_remaining: None,
            uninformed: 5,
            informed: 0,
            observation: empty,
        }
    }

    #[test]
    fn phase_mc_plan_jams_channel_zero_at_density_p() {
        let spectrum = Spectrum::new(4);
        let mut carol = RandomJammer::new(0.25, 3);
        let empty = PhaseObservation::empty(spectrum);
        let plan = carol.plan_phase(&phase_ctx(spectrum, &empty));
        let per_channel = plan.jam_slots();
        assert!(
            per_channel[1..].iter().all(|&j| j == 0.0),
            "jam_all never leaves channel 0: {per_channel:?}"
        );
        let frac = per_channel[0] / 100_000.0;
        assert!((frac - 0.25).abs() < 0.02, "fraction {frac}");
    }

    #[test]
    fn fluid_model_plans_the_exact_mean() {
        let spectrum = Spectrum::new(4);
        let empty = PhaseObservation::empty(spectrum);
        let mut carol = RandomFluidJammer::new(0.25);
        let a = carol.plan_phase(&phase_ctx(spectrum, &empty));
        assert_eq!(a, carol.plan_phase(&phase_ctx(spectrum, &empty)));
        assert_eq!(a.jam_slots(), &[25_000.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn fluid_model_rejects_bad_probability() {
        let _ = RandomFluidJammer::new(-0.1);
    }
}
