//! The bursty jammer: alternating jam bursts and quiet gaps.

use rcb_core::phase::{PhaseJamCtx, PhaseJamPlan, PhaseJammer};
use rcb_radio::{Adversary, AdversaryCtx, AdversaryMove, Commitment, Slot};

/// Jams in fixed-length bursts separated by fixed-length gaps — the
/// rate-limited bursty pattern of Awerbuch et al. \[4\] and Richa et al.
/// [27, 28].
///
/// The duty cycle is `burst/(burst+gap)`; budget exhaustion is handled by
/// the engine (jams fizzle once broke).
#[derive(Debug, Clone, Copy)]
pub struct BurstyJammer {
    burst: u64,
    gap: u64,
    phase_offset: u64,
}

impl BurstyJammer {
    /// Creates a jammer that jams `burst` slots then sleeps `gap` slots.
    ///
    /// # Panics
    ///
    /// Panics if `burst + gap == 0`.
    #[must_use]
    pub fn new(burst: u64, gap: u64) -> Self {
        assert!(burst + gap > 0, "burst + gap must be positive");
        Self {
            burst,
            gap,
            phase_offset: 0,
        }
    }

    /// Shifts the burst pattern by `offset` slots (for phase-alignment
    /// experiments).
    #[must_use]
    pub fn with_offset(mut self, offset: u64) -> Self {
        self.phase_offset = offset;
        self
    }

    /// The duty cycle `burst/(burst+gap)`.
    #[must_use]
    pub fn duty_cycle(&self) -> f64 {
        self.burst as f64 / (self.burst + self.gap) as f64
    }

    fn jams_at(&self, slot: u64) -> bool {
        let period = self.burst + self.gap;
        (slot + self.phase_offset) % period < self.burst
    }

    /// Number of jammed slots in `[0, x)` of the shifted pattern: whole
    /// periods contribute `burst` each, the trailing partial period its
    /// overlap with the burst window.
    fn jammed_before(&self, x: u64) -> u64 {
        let period = self.burst + self.gap;
        (x / period) * self.burst + (x % period).min(self.burst)
    }

    /// Exact number of jammed slots in `[start, start + len)` — bursts
    /// straddling the range boundaries are counted by their overlap, not
    /// rounded per burst.
    #[must_use]
    pub fn jammed_in_range(&self, start: u64, len: u64) -> u64 {
        let shifted = start + self.phase_offset;
        self.jammed_before(shifted + len) - self.jammed_before(shifted)
    }
}

impl Adversary for BurstyJammer {
    fn plan(&mut self, slot: Slot, _ctx: &AdversaryCtx) -> AdversaryMove {
        if self.jams_at(slot.index()) {
            AdversaryMove::jam_all()
        } else {
            AdversaryMove::idle()
        }
    }

    /// The rest of the current burst (its channel-0 blanket) or gap
    /// (idle); a pattern without gaps or without bursts holds to the end
    /// of any run.
    fn commitment(&self, slot: Slot) -> Option<Commitment> {
        let slot = slot.index();
        let period = self.burst + self.gap;
        let phase = (slot + self.phase_offset) % period;
        let (mv, left, other) = if phase < self.burst {
            (AdversaryMove::jam_all(), self.burst - phase, self.gap)
        } else {
            (AdversaryMove::idle(), period - phase, self.burst)
        };
        let until = if other == 0 {
            u64::MAX
        } else {
            slot.saturating_add(left)
        };
        Some(Commitment { until, jam: mv.jam })
    }
}

impl PhaseJammer for BurstyJammer {
    /// Multi-channel phase lowering: the exact jammed-slot count of the
    /// periodic pattern over `[start_slot, start_slot + phase_len)` —
    /// bursts straddling the phase boundary contribute exactly their
    /// overlap — planned on channel 0 only, because the slot pattern is
    /// `jam_all`, the source paper's single-channel "jam everything"
    /// (one unit per firing slot, channel 0).
    fn plan_phase(&mut self, ctx: &PhaseJamCtx<'_>) -> PhaseJamPlan {
        let slots = self.jammed_in_range(ctx.start_slot, ctx.phase_len);
        PhaseJamPlan::channel_zero(ctx.spectrum, slots as f64)
    }
}

/// The ε-BROADCAST fast tier's model of [`BurstyJammer`]: the duty
/// cycle's share of every phase, `round(phase_len · duty_cycle)` slots
/// on channel 0, wherever the bursts fall.
///
/// The hopping tiers run [`BurstyJammer`]'s exact overlap count instead.
/// Moving the fast tier onto it moves its pinned digests, so it waits
/// for the next `ENGINE_ERA` bump, which can then delete this model.
#[derive(Debug, Clone, Copy)]
pub struct BurstyDutyJammer {
    duty_cycle: f64,
}

impl BurstyDutyJammer {
    /// The duty-cycle model of `BurstyJammer::new(burst, gap)`.
    ///
    /// # Panics
    ///
    /// Panics if `burst + gap == 0`.
    #[must_use]
    pub fn new(burst: u64, gap: u64) -> Self {
        Self {
            duty_cycle: BurstyJammer::new(burst, gap).duty_cycle(),
        }
    }
}

impl PhaseJammer for BurstyDutyJammer {
    fn plan_phase(&mut self, ctx: &PhaseJamCtx<'_>) -> PhaseJamPlan {
        let slots = (ctx.phase_len as f64 * self.duty_cycle).round();
        PhaseJamPlan::channel_zero(ctx.spectrum, slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcb_core::{Params, RunConfig};

    use crate::test_util::run_broadcast;
    use rcb_radio::Budget;

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_period() {
        let _ = BurstyJammer::new(0, 0);
    }

    #[test]
    fn pattern_is_periodic() {
        let mut carol = BurstyJammer::new(3, 2);
        let ctx = AdversaryCtx {
            budget_remaining: None,
            spent: 0,
        };
        let pattern: Vec<bool> = (0..10)
            .map(|t| carol.plan(Slot::new(t), &ctx).jam.is_active())
            .collect();
        assert_eq!(
            pattern,
            [true, true, true, false, false, true, true, true, false, false]
        );
        assert!((carol.duty_cycle() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn commitments_chain_through_the_pattern_it_plans() {
        // Walking the chain of promises from any slot must reproduce the
        // slot pattern, burst by burst and gap by gap, offset included.
        let ctx = AdversaryCtx {
            budget_remaining: None,
            spent: 0,
        };
        for carol in [
            BurstyJammer::new(3, 2),
            BurstyJammer::new(3, 2).with_offset(4),
            BurstyJammer::new(1, 5).with_offset(2),
            BurstyJammer::new(16, 48),
        ] {
            let mut planner = carol;
            for start in 0..12u64 {
                let mut slot = start;
                while slot < 200 {
                    let promise = carol.commitment(Slot::new(slot)).expect("known ahead");
                    assert!(promise.until > slot && promise.until < u64::MAX);
                    for s in slot..promise.until {
                        assert_eq!(promise.jam, planner.plan(Slot::new(s), &ctx).jam, "{s}");
                    }
                    // A stretch ends where the pattern turns.
                    let next = planner.plan(Slot::new(promise.until), &ctx).jam;
                    assert_ne!(next, promise.jam, "slot {}", promise.until);
                    slot = promise.until;
                }
            }
        }
        // Without gaps or without bursts the pattern never turns.
        let always = BurstyJammer::new(4, 0).commitment(Slot::new(9)).unwrap();
        assert_eq!((always.until, always.jam.is_active()), (u64::MAX, true));
        let never = BurstyJammer::new(0, 4).commitment(Slot::new(9)).unwrap();
        assert_eq!((never.until, never.jam.is_active()), (u64::MAX, false));
        let late = BurstyJammer::new(2, 2).commitment(Slot::new(u64::MAX - 1));
        assert_eq!(late.unwrap().until, u64::MAX);
    }

    #[test]
    fn offset_shifts_pattern() {
        let mut carol = BurstyJammer::new(1, 1).with_offset(1);
        let ctx = AdversaryCtx {
            budget_remaining: None,
            spent: 0,
        };
        assert!(!carol.plan(Slot::new(0), &ctx).jam.is_active());
        assert!(carol.plan(Slot::new(1), &ctx).jam.is_active());
    }

    #[test]
    fn bursty_attack_does_not_stop_broadcast() {
        let params = Params::builder(32).build().unwrap();
        let cfg = RunConfig::seeded(9).carol_budget(Budget::limited(4_000));
        let mut carol = BurstyJammer::new(50, 50);
        let outcome = run_broadcast(&params, &mut carol, &cfg);
        assert!(outcome.informed_fraction() > 0.9);
    }

    #[test]
    fn jammed_in_range_matches_the_slot_pattern_exactly() {
        // Burst 3 / gap 2 with an offset: compare the closed form
        // against brute-force slot enumeration over awkward ranges that
        // straddle burst boundaries.
        let carol = BurstyJammer::new(3, 2).with_offset(4);
        for start in 0..12u64 {
            for len in 0..17u64 {
                let expected = (start..start + len).filter(|&t| carol.jams_at(t)).count() as u64;
                assert_eq!(
                    carol.jammed_in_range(start, len),
                    expected,
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn phase_mc_plan_counts_straddling_bursts_exactly() {
        use rcb_core::phase::PhaseObservation;
        use rcb_radio::Spectrum;

        let spectrum = Spectrum::new(2);
        let mut carol = BurstyJammer::new(50, 50);
        let empty = PhaseObservation::empty(spectrum);
        // Phase of 32 slots starting at slot 32: slots 32..50 are in the
        // first burst (18 slots), 50..64 in the gap.
        let ctx = PhaseJamCtx {
            phase: 1,
            start_slot: 32,
            phase_len: 32,
            spectrum,
            budget_remaining: None,
            uninformed: 5,
            informed: 0,
            observation: &empty,
        };
        let plan = carol.plan_phase(&ctx);
        // jam_all is the single-channel pattern: channel 0 only.
        assert_eq!(plan.jam_slots(), &[18.0, 0.0]);
        // The fast tier's duty-cycle model plans 32 · 1/2 wherever the
        // bursts fall.
        let plan = BurstyDutyJammer::new(50, 50).plan_phase(&ctx);
        assert_eq!(plan.jam_slots(), &[16.0, 0.0]);
    }

    #[test]
    fn duty_model_respects_duty_cycle() {
        use rcb_core::phase::PhaseObservation;
        use rcb_radio::Spectrum;

        let spectrum = Spectrum::single();
        let ctx = PhaseJamCtx {
            phase: 2,
            start_slot: 0,
            phase_len: 4000,
            spectrum,
            budget_remaining: None,
            uninformed: 1,
            informed: 0,
            observation: &PhaseObservation::empty(spectrum),
        };
        let plan = BurstyDutyJammer::new(1, 3).plan_phase(&ctx);
        assert_eq!(plan.jam_slots(), &[1000.0]);
    }
}
