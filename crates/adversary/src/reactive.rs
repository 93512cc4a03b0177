//! The reactive jammer — §4.1's threat.
//!
//! A reactive Carol performs CCA within the current slot: she sees the
//! RSSI bit (someone is transmitting) *before* deciding to jam, but not
//! the content. Against the plain protocol this is devastating — she jams
//! exactly the slots that carry `m` and wastes nothing. Against the
//! decoy-hardened protocol, most active slots are chaff, so each reaction
//! burns budget with probability ≈ `P(decoy | activity)` of hitting
//! nothing.
//!
//! At phase granularity the same behaviour is modelled by jamming the
//! expected number of *active* slots (the fast simulator's thinning then
//! removes the corresponding fraction of `m`-slots).

use rcb_core::phase::{PhaseJamCtx, PhaseJamPlan, PhaseJammer};
use rcb_core::{Params, PhaseKind};
use rcb_radio::{Adversary, AdversaryCtx, AdversaryMove, Slot};

/// Jams every slot in which it detects channel activity (RSSI), during
/// dissemination phases.
#[derive(Debug, Clone)]
pub struct ReactiveJammer {
    /// Skip request phases (they only carry nacks; jamming them keeps
    /// people awake, which *helps* the defenders' delivery). Default true.
    dissemination_only: bool,
    /// Protocol parameters (needed by the phase-level model to estimate
    /// per-slot activity probabilities).
    params: Params,
    schedule: rcb_core::RoundSchedule,
}

impl ReactiveJammer {
    /// Creates a reactive jammer for the given protocol parameters.
    #[must_use]
    pub fn new(params: Params) -> Self {
        let schedule = rcb_core::RoundSchedule::new(&params);
        Self {
            dissemination_only: true,
            params,
            schedule,
        }
    }

    /// Also react during request phases.
    #[must_use]
    pub fn including_request(mut self) -> Self {
        self.dissemination_only = false;
        self
    }

    fn targets(&self, phase: PhaseKind) -> bool {
        !self.dissemination_only || !matches!(phase, PhaseKind::Request)
    }
}

impl Adversary for ReactiveJammer {
    fn plan(&mut self, _slot: Slot, _ctx: &AdversaryCtx) -> AdversaryMove {
        // Nothing committed before the RSSI reading.
        AdversaryMove::idle()
    }

    fn react(&mut self, slot: Slot, activity: bool, planned: AdversaryMove) -> AdversaryMove {
        let phase = self.schedule.locate(slot.index()).phase;
        if activity && self.targets(phase) {
            AdversaryMove::jam_all()
        } else {
            planned
        }
    }

    fn is_reactive(&self) -> bool {
        true
    }
}

impl PhaseJammer for ReactiveJammer {
    fn plan_phase(&mut self, ctx: &PhaseJamCtx<'_>) -> PhaseJamPlan {
        let pos = self.schedule.locate(ctx.start_slot);
        if !self.targets(pos.phase) {
            return PhaseJamPlan::idle(ctx.spectrum);
        }
        // Expected number of active slots: Alice's sends, relays' sends,
        // and decoys. The fast simulator treats the jam slots as landing
        // uniformly; reactive jamming lands them exactly on active slots,
        // which for an un-decoyed protocol is strictly stronger. We model
        // the reactive advantage by requesting ceil(P(active)·len) jams —
        // with decoys this is large (she pays for chaff), without decoys
        // it is just the m-slots.
        let probs =
            rcb_core::probabilities::phase_probabilities(&self.params, pos.round, pos.phase);
        let active_nodes = ctx.uninformed as f64;
        let p_decoy = if probs.decoy_send > 0.0 {
            1.0 - (1.0 - probs.decoy_send).powf(active_nodes)
        } else {
            0.0
        };
        let p_m = match pos.phase {
            PhaseKind::Inform => probs.alice_send,
            PhaseKind::Propagation { .. } => 1.0 - (1.0 - probs.informed_send).powf(active_nodes),
            PhaseKind::Request => 1.0 - (1.0 - probs.uninformed_nack).powf(active_nodes),
        };
        let p_active = 1.0 - (1.0 - p_m) * (1.0 - p_decoy);
        let slots = (p_active * ctx.phase_len as f64).ceil() as u64;
        PhaseJamPlan::channel_zero(ctx.spectrum, slots as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcb_core::{DecoyConfig, RunConfig};

    use crate::test_util::run_broadcast;
    use rcb_radio::Budget;

    #[test]
    fn is_reactive_and_reacts_to_activity() {
        let params = Params::builder(32).build().unwrap();
        let mut carol = ReactiveJammer::new(params);
        assert!(carol.is_reactive());
        let reacted = carol.react(Slot::ZERO, true, AdversaryMove::idle());
        assert!(reacted.jam.is_active());
        let idle = carol.react(Slot::ZERO, false, AdversaryMove::idle());
        assert!(!idle.jam.is_active());
    }

    #[test]
    fn devastates_the_unhardened_protocol() {
        // Without decoys, every m-transmission is detected and jammed: no
        // node can ever be informed while Carol has budget.
        let params = Params::builder(32).build().unwrap();
        let mut carol = ReactiveJammer::new(params.clone());
        let cfg = RunConfig::seeded(1).carol_budget(Budget::limited(100_000));
        let outcome = run_broadcast(&params, &mut carol, &cfg);
        // Either nobody is informed, or she went broke first and the tail
        // of the schedule saved the day; with this budget at n=32 she
        // cannot be outlasted before the schedule ends.
        assert_eq!(
            outcome.informed_nodes, 0,
            "reactive jamming must block every m-slot (informed {})",
            outcome.informed_nodes
        );
    }

    #[test]
    fn decoys_restore_delivery_by_draining_carol() {
        // With decoy hardening, most active slots are chaff: Carol reacts
        // to everything, burns her budget, and m eventually gets through.
        let params = Params::builder(32)
            .decoys(DecoyConfig::recommended())
            .build()
            .unwrap();
        let mut carol = ReactiveJammer::new(params.clone());
        // Against the unhardened protocol this budget blocks every m-slot
        // of the whole schedule several times over (~1k m-slots at n=32).
        // With decoys she burns it on chaff and goes broke around round 6
        // of 7.
        let cfg = RunConfig::seeded(2).carol_budget(Budget::limited(1_000));
        let outcome = run_broadcast(&params, &mut carol, &cfg);
        assert!(
            outcome.informed_fraction() > 0.9,
            "informed fraction {}",
            outcome.informed_fraction()
        );
        assert!(outcome.carol_spend() > 0);
    }

    #[test]
    fn phase_plan_grows_with_decoy_traffic() {
        let plain = Params::builder(1024).build().unwrap();
        let hard = Params::builder(1024)
            .decoys(DecoyConfig::recommended())
            .build()
            .unwrap();
        let spectrum = rcb_radio::Spectrum::single();
        let empty = rcb_core::phase::PhaseObservation::empty(spectrum);
        // Round 10's inform phase.
        let jam = |params: &Params| {
            let schedule = rcb_core::RoundSchedule::new(params);
            let ctx = PhaseJamCtx {
                phase: 0,
                start_slot: schedule.round_start(10),
                phase_len: schedule.phase_len(10),
                spectrum,
                budget_remaining: None,
                uninformed: 1024,
                informed: 0,
                observation: &empty,
            };
            ReactiveJammer::new(params.clone()).plan_phase(&ctx).total()
        };
        let (jam_plain, jam_hard) = (jam(&plain), jam(&hard));
        assert!(
            jam_hard > jam_plain * 2.0,
            "decoys must multiply her reactive spend: {jam_plain} vs {jam_hard}"
        );
    }
}
