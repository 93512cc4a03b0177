//! The ε-extractor: the n-uniform attack of §2.3.
//!
//! "By blocking a propagation phase, an n-uniform Carol may allow 2ε′n
//! nodes to remain uninformed and active … Critically, when Carol blocks
//! an inform or propagate phase, she decides how many nodes receive m
//! since she is an n-uniform adversary." This strategy realises that
//! power: it jams dissemination phases *totally* for everyone except a
//! hand-picked set of spared nodes, steering exactly which nodes end the
//! protocol informed.

use rcb_core::phase::{PhaseJamCtx, PhaseJamPlan, PhaseJammer};
use rcb_core::{PhaseKind, RoundSchedule};
use rcb_radio::{Adversary, AdversaryCtx, AdversaryMove, IdSet, JamDirective, ParticipantId, Slot};

/// Blocks inform and propagation phases with n-uniform targeting, sparing
/// a chosen set of node ids from the jamming.
#[derive(Debug, Clone)]
pub struct EpsilonExtractor {
    schedule: RoundSchedule,
    spared: IdSet,
    spared_count: u64,
}

impl EpsilonExtractor {
    /// Creates an extractor sparing the given roster ids (remember index 0
    /// is Alice; spare node ids start at 1).
    #[must_use]
    pub fn new(schedule: RoundSchedule, spared: impl IntoIterator<Item = u32>) -> Self {
        let spared: IdSet = spared.into_iter().map(ParticipantId::new).collect();
        let spared_count = spared.len() as u64;
        Self {
            schedule,
            spared,
            spared_count,
        }
    }

    /// Convenience: spare the first `x` nodes (roster ids `1..=x`).
    #[must_use]
    pub fn sparing_first(schedule: RoundSchedule, x: u32) -> Self {
        Self::new(schedule, 1..=x)
    }

    /// How many nodes are spared.
    #[must_use]
    pub fn spared_count(&self) -> u64 {
        self.spared_count
    }
}

impl Adversary for EpsilonExtractor {
    fn plan(&mut self, slot: Slot, _ctx: &AdversaryCtx) -> AdversaryMove {
        let pos = self.schedule.locate(slot.index());
        match pos.phase {
            PhaseKind::Inform | PhaseKind::Propagation { .. } => AdversaryMove {
                jam: JamDirective::AllExcept(self.spared.clone()).into(),
                sends: Vec::new(),
            },
            PhaseKind::Request => AdversaryMove::idle(),
        }
    }
}

impl PhaseJammer for EpsilonExtractor {
    /// Jams every dissemination slot on channel 0 and spares the chosen
    /// nodes (`spare`); request phases are left alone.
    fn plan_phase(&mut self, ctx: &PhaseJamCtx<'_>) -> PhaseJamPlan {
        if self.schedule.locate(ctx.start_slot).phase == PhaseKind::Request {
            return PhaseJamPlan::idle(ctx.spectrum);
        }
        let mut plan = PhaseJamPlan::channel_zero(ctx.spectrum, ctx.phase_len as f64);
        plan.spare = Some(self.spared_count);
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcb_core::{Params, RunConfig};

    use crate::test_util::run_broadcast;
    use rcb_radio::Budget;

    #[test]
    fn only_spared_nodes_get_informed_while_budget_lasts() {
        let params = Params::builder(32).build().unwrap();
        let schedule = RoundSchedule::new(&params);
        // Budget large enough to block the whole schedule.
        let mut carol = EpsilonExtractor::sparing_first(schedule.clone(), 5);
        let cfg = RunConfig::seeded(2).carol_budget(Budget::limited(u64::MAX / 2));
        let outcome = run_broadcast(&params, &mut carol, &cfg);
        // Exactly the spared nodes can be informed.
        assert!(
            outcome.informed_nodes <= 5,
            "informed {} > spared 5",
            outcome.informed_nodes
        );
        // And the spared nodes do get the message (they hear Alice clean).
        assert!(
            outcome.informed_nodes >= 4,
            "informed {}",
            outcome.informed_nodes
        );
    }

    #[test]
    fn with_finite_budget_everyone_else_informs_after_broke() {
        let params = Params::builder(32).build().unwrap();
        let schedule = RoundSchedule::new(&params);
        let mut carol = EpsilonExtractor::sparing_first(schedule, 3);
        let cfg = RunConfig::seeded(6).carol_budget(Budget::limited(2_000));
        let outcome = run_broadcast(&params, &mut carol, &cfg);
        assert!(outcome.informed_fraction() > 0.9);
    }

    #[test]
    fn spared_count_is_reported() {
        let params = Params::builder(32).build().unwrap();
        let schedule = RoundSchedule::new(&params);
        let carol = EpsilonExtractor::sparing_first(schedule, 7);
        assert_eq!(carol.spared_count(), 7);
    }

    #[test]
    fn request_phases_are_left_alone() {
        let params = Params::builder(64).build().unwrap();
        let schedule = RoundSchedule::new(&params);
        let mut carol = EpsilonExtractor::sparing_first(schedule.clone(), 2);
        let ctx = AdversaryCtx {
            budget_remaining: None,
            spent: 0,
        };
        // Find a request-phase slot in round 2.
        let t = schedule.round_start(2) + 2 * schedule.phase_len(2);
        assert_eq!(schedule.locate(t).phase, PhaseKind::Request);
        assert!(!carol.plan(Slot::new(t), &ctx).jam.is_active());
        // And an inform slot is jammed with sparing.
        let t0 = schedule.round_start(2);
        let mv = carol.plan(Slot::new(t0), &ctx);
        assert!(matches!(
            mv.jam.directive_on(rcb_radio::ChannelId::ZERO),
            JamDirective::AllExcept(_)
        ));
    }
}
