//! Phase blockers — the two optimal strategies of Lemma 10.
//!
//! Lemma 10 analyses Carol's best options: (1) block the inform or
//! propagation phase of every round, forcing the protocol into ever-longer
//! rounds; (2) block the *request* phase, tricking Alice and the nodes
//! into believing many peers are still uninformed so they keep paying.
//! [`PhaseBlocker`] implements both (and any mix) by jamming a β-fraction
//! of each targeted phase, schedule-aware.

use rcb_core::phase::{PhaseJamCtx, PhaseJamPlan, PhaseJammer};
use rcb_core::{PhaseKind, RoundSchedule};
use rcb_radio::{Adversary, AdversaryCtx, AdversaryMove, Slot};

/// Which phase kinds a [`PhaseBlocker`] attacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseTarget {
    /// Jam inform phases.
    pub inform: bool,
    /// Jam propagation phases (every step).
    pub propagation: bool,
    /// Jam request phases.
    pub request: bool,
}

impl PhaseTarget {
    /// Lemma 10 strategy 1: block dissemination (inform + propagation).
    #[must_use]
    pub fn dissemination() -> Self {
        Self {
            inform: true,
            propagation: true,
            request: false,
        }
    }

    /// Lemma 10 strategy 2: block termination (request only).
    #[must_use]
    pub fn termination() -> Self {
        Self {
            inform: false,
            propagation: false,
            request: true,
        }
    }

    /// Block everything.
    #[must_use]
    pub fn all() -> Self {
        Self {
            inform: true,
            propagation: true,
            request: true,
        }
    }

    fn matches(&self, phase: PhaseKind) -> bool {
        match phase {
            PhaseKind::Inform => self.inform,
            PhaseKind::Propagation { .. } => self.propagation,
            PhaseKind::Request => self.request,
        }
    }
}

/// Jams the leading `β`-fraction of every targeted phase, while budget
/// lasts.
///
/// `β = 1.0` prevents any delivery in the phase; `β slightly above 1/2`
/// merely "blocks" it in the analysis sense (more than half the slots
/// jammed) at half the price — useful for probing how conservatively the
/// lemmas were stated.
#[derive(Debug, Clone)]
pub struct PhaseBlocker {
    schedule: RoundSchedule,
    target: PhaseTarget,
    beta: f64,
}

impl PhaseBlocker {
    /// Creates a blocker for the given schedule, targets, and jam fraction.
    ///
    /// # Panics
    ///
    /// Panics if `beta` is not in `(0, 1]`.
    #[must_use]
    pub fn new(schedule: RoundSchedule, target: PhaseTarget, beta: f64) -> Self {
        assert!(
            beta > 0.0 && beta <= 1.0,
            "beta must be in (0,1], got {beta}"
        );
        Self {
            schedule,
            target,
            beta,
        }
    }

    /// Convenience: full-strength dissemination blocker.
    #[must_use]
    pub fn dissemination_blocker(schedule: RoundSchedule) -> Self {
        Self::new(schedule, PhaseTarget::dissemination(), 1.0)
    }

    /// Convenience: full-strength request blocker.
    #[must_use]
    pub fn request_blocker(schedule: RoundSchedule) -> Self {
        Self::new(schedule, PhaseTarget::termination(), 1.0)
    }

    fn jam_budget_for(&self, phase_len: u64) -> u64 {
        ((phase_len as f64 * self.beta).ceil() as u64).min(phase_len)
    }
}

impl Adversary for PhaseBlocker {
    fn plan(&mut self, slot: Slot, _ctx: &AdversaryCtx) -> AdversaryMove {
        let pos = self.schedule.locate(slot.index());
        if self.target.matches(pos.phase) && pos.offset < self.jam_budget_for(pos.phase_len) {
            AdversaryMove::jam_all()
        } else {
            AdversaryMove::idle()
        }
    }
}

impl PhaseJammer for PhaseBlocker {
    /// The β-fraction of a targeted phase as a slot count on channel 0.
    fn plan_phase(&mut self, ctx: &PhaseJamCtx<'_>) -> PhaseJamPlan {
        let phase = self.schedule.locate(ctx.start_slot).phase;
        let slots = if self.target.matches(phase) {
            self.jam_budget_for(ctx.phase_len)
        } else {
            0
        };
        PhaseJamPlan::channel_zero(ctx.spectrum, slots as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcb_core::{Params, RunConfig};

    use crate::test_util::run_broadcast;
    use rcb_core::phase::PhaseObservation;
    use rcb_radio::{Budget, Spectrum};

    fn schedule(n: u64) -> (Params, RoundSchedule) {
        let params = Params::builder(n).build().unwrap();
        let schedule = RoundSchedule::new(&params);
        (params, schedule)
    }

    #[test]
    #[should_panic(expected = "beta must be in (0,1]")]
    fn rejects_bad_beta() {
        let (_, s) = schedule(32);
        let _ = PhaseBlocker::new(s, PhaseTarget::all(), 0.0);
    }

    #[test]
    fn jams_only_targeted_phases() {
        let (_, s) = schedule(64);
        let mut carol = PhaseBlocker::new(s.clone(), PhaseTarget::termination(), 1.0);
        let ctx = AdversaryCtx {
            budget_remaining: None,
            spent: 0,
        };
        for t in 0..s.round_len(1) + s.round_len(2) {
            let jammed = carol.plan(Slot::new(t), &ctx).jam.is_active();
            let phase = s.locate(t).phase;
            assert_eq!(
                jammed,
                phase == PhaseKind::Request,
                "slot {t} phase {phase:?}"
            );
        }
    }

    #[test]
    fn beta_fraction_limits_jam_prefix() {
        let (_, s) = schedule(64);
        let mut carol = PhaseBlocker::new(s.clone(), PhaseTarget::dissemination(), 0.6);
        let ctx = AdversaryCtx {
            budget_remaining: None,
            spent: 0,
        };
        // Round 4: phase_len = 64; expect exactly ceil(0.6·64)=39 jams in
        // the inform phase.
        let start = s.round_start(4);
        let jams = (start..start + s.phase_len(4))
            .filter(|&t| carol.plan(Slot::new(t), &ctx).jam.is_active())
            .count();
        assert_eq!(jams, 39);
    }

    #[test]
    fn dissemination_blocker_starves_delivery_until_broke() {
        let (params, s) = schedule(32);
        let budget = 3_000u64;
        let mut carol = PhaseBlocker::dissemination_blocker(s);
        let cfg = RunConfig::seeded(4).carol_budget(Budget::limited(budget));
        let outcome = run_broadcast(&params, &mut carol, &cfg);
        // She cannot block forever; when broke, delivery completes.
        assert!(outcome.informed_fraction() > 0.9);
        assert!(outcome.carol_spend() <= budget);
        // And she must actually have spent on jamming.
        assert!(outcome.carol_cost.jams > budget / 2);
    }

    #[test]
    fn request_blocker_keeps_alice_awake() {
        let (params, s) = schedule(32);
        let mut carol = PhaseBlocker::request_blocker(s);
        let cfg = RunConfig::seeded(8).carol_budget(Budget::limited(2_000));
        let outcome = run_broadcast(&params, &mut carol, &cfg);
        let quiet = run_broadcast(
            &params,
            &mut rcb_radio::SilentAdversary,
            &RunConfig::seeded(8),
        );
        // Nodes get informed early either way (she leaves dissemination
        // alone), but Alice's termination is delayed, costing her listens.
        assert!(outcome.informed_fraction() > 0.9);
        assert!(
            outcome.alice_cost.total() >= quiet.alice_cost.total(),
            "jammed {} < quiet {}",
            outcome.alice_cost.total(),
            quiet.alice_cost.total()
        );
    }

    #[test]
    fn phase_level_plans_match_targets() {
        let (_, s) = schedule(64);
        let mut carol = PhaseBlocker::new(s.clone(), PhaseTarget::dissemination(), 1.0);
        let spectrum = Spectrum::single();
        let empty = PhaseObservation::empty(spectrum);
        // Round 5's inform phase, then its request phase.
        let inform_ctx = PhaseJamCtx {
            phase: 0,
            start_slot: s.round_start(5),
            phase_len: s.phase_len(5),
            spectrum,
            budget_remaining: None,
            uninformed: 64,
            informed: 0,
            observation: &empty,
        };
        let inform = carol.plan_phase(&inform_ctx);
        assert_eq!(inform.jam_slots(), &[s.phase_len(5) as f64]);
        let request_ctx = PhaseJamCtx {
            start_slot: s.round_start(5) + 2 * s.phase_len(5),
            ..inform_ctx
        };
        assert_eq!(s.locate(request_ctx.start_slot).phase, PhaseKind::Request);
        assert_eq!(carol.plan_phase(&request_ctx).jam_slots(), &[0.0]);
    }
}
