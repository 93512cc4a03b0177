//! The continuous jammer: scorched earth until the budget runs out.

use rcb_radio::{Adversary, AdversaryCtx, AdversaryMove, Commitment, Slot};

/// Jams every slot of every phase while the pooled budget lasts.
///
/// This is the strategy the Lemma 11 budget argument is written against:
/// Carol delays delivery exactly as long as her energy holds, then the
/// first un-jammed round completes the broadcast. Sweeping her budget `T`
/// and fitting cost-vs-`T` reproduces the `T^{1/(k+1)}` exponent of
/// Theorem 1 (experiment E1).
///
/// # Example
///
/// ```
/// use rcb_adversary::ContinuousJammer;
/// use rcb_core::{BroadcastSoaScratch, Params, RunConfig};
/// use rcb_radio::Budget;
///
/// let params = Params::builder(32).build()?;
/// let cfg = RunConfig::seeded(1).carol_budget(Budget::limited(500));
/// let (outcome, _) = BroadcastSoaScratch::new().run(&params, &mut ContinuousJammer, &cfg);
/// assert_eq!(outcome.carol_spend(), 500); // she spends it all
/// # Ok::<(), rcb_core::ParamsError>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ContinuousJammer;

impl Adversary for ContinuousJammer {
    fn plan(&mut self, _slot: Slot, _ctx: &AdversaryCtx) -> AdversaryMove {
        AdversaryMove::jam_all()
    }

    /// The channel-0 blanket, to the end of any run (her budget decides
    /// how much of it executes).
    fn commitment(&self, _slot: Slot) -> Option<Commitment> {
        Some(Commitment {
            until: u64::MAX,
            jam: AdversaryMove::jam_all().jam,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcb_core::phase::{PhaseJamCtx, PhaseJammer, PhaseObservation};
    use rcb_core::{Params, RunConfig};

    use crate::test_util::run_broadcast;
    use rcb_radio::{Budget, Spectrum};

    #[test]
    fn spends_entire_budget_then_protocol_succeeds() {
        let params = Params::builder(32).build().unwrap();
        let budget = 2_000u64;
        let cfg = RunConfig::seeded(3).carol_budget(Budget::limited(budget));
        let mut carol = ContinuousJammer;
        let outcome = run_broadcast(&params, &mut carol, &cfg);
        assert_eq!(outcome.carol_spend(), budget);
        assert!(
            outcome.informed_fraction() > 0.9,
            "after she is broke the broadcast must go through: {}",
            outcome.informed_fraction()
        );
    }

    #[test]
    fn delays_scale_with_budget() {
        let params = Params::builder(32).build().unwrap();
        let slots_for = |budget: u64, seed: u64| {
            let cfg = RunConfig::seeded(seed).carol_budget(Budget::limited(budget));
            run_broadcast(&params, &mut ContinuousJammer, &cfg).slots
        };
        let small = slots_for(500, 1);
        let large = slots_for(20_000, 1);
        assert!(
            large > small,
            "a 40x budget must delay termination: {small} vs {large}"
        );
    }

    #[test]
    fn promises_the_blanket_it_plans() {
        let mut carol = ContinuousJammer;
        let ctx = AdversaryCtx {
            budget_remaining: Some(3),
            spent: 0,
        };
        for slot in [0u64, 1, 1 << 40] {
            let promise = carol.commitment(Slot::new(slot)).expect("known ahead");
            assert_eq!(promise.until, u64::MAX);
            let plan = carol.plan(Slot::new(slot), &ctx);
            assert_eq!(promise.jam, plan.jam);
            assert!(plan.sends.is_empty());
        }
    }

    #[test]
    fn phase_level_plan_matches_slot_level_intent() {
        let mut carol = ContinuousJammer;
        let spectrum = Spectrum::single();
        let ctx = PhaseJamCtx {
            phase: 3,
            start_slot: 4_000,
            phase_len: 1000,
            spectrum,
            budget_remaining: Some(600),
            uninformed: 10,
            informed: 0,
            observation: &PhaseObservation::empty(spectrum),
        };
        let plan = carol.plan_phase(&ctx);
        // She *asks* for everything; the simulator clamps to her budget.
        assert_eq!(plan.jam_slots(), &[1000.0]);
        assert!(plan.spare.is_none());
        assert_eq!(plan.byz_sends, 0);
    }
}
