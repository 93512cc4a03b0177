//! The nack spoofer — §2.2's spoofing attack.
//!
//! Correct nodes cannot be authenticated, so Carol's Byzantine devices can
//! transmit fake `nack`s during request phases, making Alice (and the
//! nodes) believe many peers are still uninformed and keeping everyone
//! paying for extra rounds. The request phase is designed so that this
//! costs her `Ω(2^{(b/2+1)i})` per stalled round (Lemmas 4–7); this
//! strategy lets experiment E8 measure exactly that.

use rand::{Rng, SeedableRng};
use rcb_core::phase::{PhaseJamCtx, PhaseJamPlan, PhaseJammer};
use rcb_core::{PhaseKind, RoundSchedule};
use rcb_radio::{Adversary, AdversaryCtx, AdversaryMove, Payload, Slot};
use rcb_rng::SimRng;

/// Spoofs nacks in request phases (with density `rate`), optionally also
/// polluting inform phases with garbage frames.
#[derive(Debug, Clone)]
pub struct NackSpoofer {
    schedule: RoundSchedule,
    rate: f64,
    pollute_inform: bool,
    rng: SimRng,
}

impl NackSpoofer {
    /// Creates a spoofer transmitting a fake nack in each request-phase
    /// slot with probability `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not a probability.
    #[must_use]
    pub fn new(schedule: RoundSchedule, rate: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0,1]");
        Self {
            schedule,
            rate,
            pollute_inform: false,
            rng: SimRng::seed_from_u64(seed),
        }
    }

    /// Also transmit garbage during inform phases (collides with `m`).
    #[must_use]
    pub fn polluting_inform(mut self) -> Self {
        self.pollute_inform = true;
        self
    }
}

impl Adversary for NackSpoofer {
    fn plan(&mut self, slot: Slot, _ctx: &AdversaryCtx) -> AdversaryMove {
        let pos = self.schedule.locate(slot.index());
        match pos.phase {
            PhaseKind::Request => {
                if self.rng.gen_bool(self.rate) {
                    AdversaryMove {
                        jam: rcb_radio::JamPlan::none(),
                        sends: vec![Payload::Nack.into()],
                    }
                } else {
                    AdversaryMove::idle()
                }
            }
            PhaseKind::Inform if self.pollute_inform => {
                if self.rng.gen_bool(self.rate) {
                    AdversaryMove {
                        jam: rcb_radio::JamPlan::none(),
                        sends: vec![Payload::Garbage(slot.index()).into()],
                    }
                } else {
                    AdversaryMove::idle()
                }
            }
            _ => AdversaryMove::idle(),
        }
    }
}

impl PhaseJammer for NackSpoofer {
    /// Spoofs `Bin(phase_len, rate)` frames (`byz_sends`) in each phase
    /// it targets, and jams nothing.
    fn plan_phase(&mut self, ctx: &PhaseJamCtx<'_>) -> PhaseJamPlan {
        let spoofing = match self.schedule.locate(ctx.start_slot).phase {
            PhaseKind::Request => true,
            PhaseKind::Inform => self.pollute_inform,
            PhaseKind::Propagation { .. } => false,
        };
        let mut plan = PhaseJamPlan::idle(ctx.spectrum);
        if spoofing {
            plan.byz_sends = rcb_rng::Binomial::new(ctx.phase_len, self.rate)
                .expect("validated rate")
                .sample(&mut self.rng);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcb_core::{Params, RunConfig};

    use crate::test_util::run_broadcast;
    use rcb_radio::Budget;

    fn setup(n: u64) -> (Params, RoundSchedule) {
        let params = Params::builder(n).build().unwrap();
        let schedule = RoundSchedule::new(&params);
        (params, schedule)
    }

    #[test]
    #[should_panic(expected = "rate must be in [0,1]")]
    fn rejects_bad_rate() {
        let (_, s) = setup(32);
        let _ = NackSpoofer::new(s, -0.1, 0);
    }

    #[test]
    fn spoofs_only_in_request_phase_by_default() {
        let (_, s) = setup(64);
        let mut carol = NackSpoofer::new(s.clone(), 1.0, 1);
        let ctx = AdversaryCtx {
            budget_remaining: None,
            spent: 0,
        };
        for t in 0..s.round_len(1) + s.round_len(2) {
            let mv = carol.plan(Slot::new(t), &ctx);
            let is_request = s.locate(t).phase == PhaseKind::Request;
            assert_eq!(!mv.sends.is_empty(), is_request, "slot {t}");
            if !mv.sends.is_empty() {
                assert!(matches!(mv.sends[0].payload, Payload::Nack));
            }
        }
    }

    #[test]
    fn spoofing_keeps_alice_awake_and_costs_her() {
        let (params, s) = setup(32);
        let budget = 3_000u64;
        let mut carol = NackSpoofer::new(s, 1.0, 2);
        let cfg = RunConfig::seeded(3).carol_budget(Budget::limited(budget));
        let spoofed = run_broadcast(&params, &mut carol, &cfg);
        let quiet = run_broadcast(
            &params,
            &mut rcb_radio::SilentAdversary,
            &RunConfig::seeded(3),
        );
        // Delivery is untouched (no jamming of dissemination).
        assert!(spoofed.informed_fraction() > 0.9);
        // But the run lasts longer and Alice pays more.
        assert!(spoofed.slots > quiet.slots);
        assert!(spoofed.alice_cost.total() > quiet.alice_cost.total());
        // Her spend is Byzantine sends, not jams.
        assert_eq!(spoofed.carol_cost.jams, 0);
        assert!(spoofed.carol_cost.sends > 0);
    }

    #[test]
    fn inform_pollution_mode_sends_garbage() {
        let (_, s) = setup(64);
        let mut carol = NackSpoofer::new(s.clone(), 1.0, 4).polluting_inform();
        let ctx = AdversaryCtx {
            budget_remaining: None,
            spent: 0,
        };
        let t0 = s.round_start(3); // first inform slot of round 3
        let mv = carol.plan(Slot::new(t0), &ctx);
        assert!(matches!(
            mv.sends.first().map(|tx| &tx.payload),
            Some(Payload::Garbage(_))
        ));
    }

    #[test]
    fn phase_plan_counts_spoofs() {
        let (_, s) = setup(64);
        let mut carol = NackSpoofer::new(s.clone(), 0.5, 5);
        let spectrum = rcb_radio::Spectrum::single();
        // Round 7's request phase.
        let ctx = PhaseJamCtx {
            phase: 2,
            start_slot: s.round_start(7) + 2 * s.phase_len(7),
            phase_len: 10_000,
            spectrum,
            budget_remaining: None,
            uninformed: 3,
            informed: 0,
            observation: &rcb_core::phase::PhaseObservation::empty(spectrum),
        };
        assert_eq!(s.locate(ctx.start_slot).phase, PhaseKind::Request);
        let plan = carol.plan_phase(&ctx);
        assert_eq!(plan.total(), 0.0, "spoofing jams nothing");
        assert!(
            (4_600..5_400).contains(&plan.byz_sends),
            "{}",
            plan.byz_sends
        );
    }
}
