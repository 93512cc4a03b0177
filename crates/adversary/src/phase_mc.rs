//! Phase-level lowerings of the channel-aware jammers — the
//! [`PhaseJammer`] counterparts that let the whole multi-channel
//! adversary family run on both phase tiers (`fast_mc` and `fluid`).
//!
//! A slot-level strategy decides one [`JamPlan`](rcb_radio::JamPlan) per
//! slot from per-slot observations; its phase lowering decides one
//! per-channel *slot-count* split per phase from the previous phase's
//! [`PhaseObservation`] rollup. The oblivious strategies lower exactly:
//!
//! * [`SplitJammer`] — blanket every channel for the whole phase (the
//!   engine's budget fizzle reproduces the `T / C`-slot blanket);
//! * [`SweepJammer`] — the per-channel slot counts of the sweep pattern
//!   over the phase's slot range, in closed form;
//! * [`ContinuousJammer`] — the whole phase on channel 0.
//!
//! The reactive strategies cannot lower exactly — their per-slot
//! decisions depend on slot-level traffic the phase engine never
//! materialises — so their adapters pace themselves by the *expected
//! active slots* per channel ([`PhaseObservation::expected_active_slots`],
//! the Poissonisation of the observed send counts), which is precisely
//! what the slot-level versions would have spent in expectation:
//!
//! * [`ChannelLaggedPhaseJammer`] — jam next phase on each channel in
//!   proportion to its expected active slots last phase;
//! * [`LaggedPhaseJammer`] — the single-channel-born lagged reactive
//!   jammer ([`LaggedJammer`](crate::LaggedJammer)): jam the next phase,
//!   on channel 0 (its slot pattern is `jam_all`, the single-channel
//!   "jam everything"), for the expected number of slots whose
//!   *predecessor* carried correct traffic — the union-activity
//!   Poissonisation of last phase's total sends;
//! * [`AdaptivePhaseJammer`] — the Chen–Zheng 2020 adaptive rule at
//!   phase granularity: EMA heat per channel (observed sends + clean
//!   deliveries), a windowed activity gate, spend paced by the observed
//!   traffic rate, placement greedily on the hottest candidates.
//!
//! The remaining oblivious slot strategies (`Random`, `Bursty`) lower in
//! their own modules, next to their private pattern state: a per-phase
//! binomial draw and the exact periodic-interval count respectively.
//! With those, the **whole schedule-free zoo** runs on the phase tiers.
//!
//! Statistical agreement of the lowered family with the exact engine is
//! validated by `tests/fast_mc_vs_exact.rs`, the dedicated lowering
//! suite in `tests/phase_lowerings.rs`, and experiments E13/E19.

use std::collections::VecDeque;

use rcb_core::phase::{PhaseJamCtx, PhaseJamPlan, PhaseJammer, PhaseObservation};
use rcb_radio::{ChannelId, Spectrum};

use crate::{ContinuousJammer, SplitJammer, SweepJammer};

impl PhaseJammer for ContinuousJammer {
    /// Jams channel 0 for the whole phase — the single-channel
    /// scorched-earth attack, budget permitting (the engine clamps).
    fn plan_phase(&mut self, ctx: &PhaseJamCtx<'_>) -> PhaseJamPlan {
        PhaseJamPlan::channel_zero(ctx.spectrum, ctx.phase_len as f64)
    }
}

impl PhaseJammer for SplitJammer {
    /// Blankets every channel for the whole phase. With a finite budget
    /// the engine's proportional fizzle reproduces the exact engine's
    /// `T / C`-slot blanket.
    fn plan_phase(&mut self, ctx: &PhaseJamCtx<'_>) -> PhaseJamPlan {
        PhaseJamPlan::blanket(ctx.spectrum, ctx.phase_len as f64)
    }
}

impl PhaseJammer for SweepJammer {
    /// The exact per-channel slot counts of the sweep pattern over
    /// `[start_slot, start_slot + phase_len)`.
    fn plan_phase(&mut self, ctx: &PhaseJamCtx<'_>) -> PhaseJamPlan {
        let mut plan = PhaseJamPlan::idle(ctx.spectrum);
        let c = u64::from(ctx.spectrum.channel_count());
        let dwell = self.dwell();
        let end = ctx.start_slot + ctx.phase_len;
        let mut t = ctx.start_slot;
        while t < end {
            let block = t / dwell;
            let block_end = ((block + 1) * dwell).min(end);
            let channel = ChannelId::new((block % c) as u16);
            plan.set_jam(channel, plan.jam_on(channel) + (block_end - t) as f64);
            t = block_end;
        }
        plan
    }
}

/// Phase lowering of [`ChannelLaggedJammer`](crate::ChannelLaggedJammer):
/// jam, in the next phase, each channel in proportion to the traffic it
/// carried in the previous one.
///
/// The slot-level jammer spends one unit on every channel that was
/// active in the immediately preceding slot; over a phase that totals
/// the channel's *active slots*. The lowering reproduces that spend in
/// expectation: channel `c` gets
/// `round(expected_active_slots(c) · phase_len / prev_len)` jammed
/// slots. Like its slot counterpart it plans nothing before the first
/// observation (no clairvoyance).
#[derive(Debug, Clone, Default)]
pub struct ChannelLaggedPhaseJammer;

impl ChannelLaggedPhaseJammer {
    /// Creates a phase-lagged jammer (idle until the first observation).
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl PhaseJammer for ChannelLaggedPhaseJammer {
    fn plan_phase(&mut self, ctx: &PhaseJamCtx<'_>) -> PhaseJamPlan {
        let mut plan = PhaseJamPlan::idle(ctx.spectrum);
        let obs = ctx.observation;
        if obs.slots == 0 {
            return plan;
        }
        let scale = ctx.phase_len as f64 / obs.slots as f64;
        for channel in ctx.spectrum.channels() {
            let slots = (obs.expected_active_slots(channel) * scale).round() as u64;
            plan.set_jam(channel, slots.min(ctx.phase_len) as f64);
        }
        plan
    }
}

/// Phase lowering of [`LaggedJammer`](crate::LaggedJammer) — detection-
/// then-jam with one slot of latency, at phase granularity.
///
/// The slot-level jammer fires `jam_all` — the source paper's
/// single-channel "jam everything", which targets channel 0 only — in
/// slot `t + 1` whenever any correct device transmitted in slot `t`, so
/// over a phase it spends one unit per *union-active* slot (a slot with
/// at least one correct send on any channel). The lowering reproduces
/// that spend in expectation: Poissonising last phase's **total** send
/// count over its slots gives the expected union-active slots
/// `s · (1 − e^{−total_sends/s})`, which is scaled to the next phase's
/// length and planned on channel 0. At `C = 1` this is exactly the
/// single-channel strategy the exact engine runs; like its slot
/// counterpart it is idle before the first observation.
#[derive(Debug, Clone, Default)]
pub struct LaggedPhaseJammer;

impl LaggedPhaseJammer {
    /// Creates a phase-lagged reactive jammer (idle until the first
    /// observation).
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl PhaseJammer for LaggedPhaseJammer {
    fn plan_phase(&mut self, ctx: &PhaseJamCtx<'_>) -> PhaseJamPlan {
        let obs = ctx.observation;
        if obs.slots == 0 {
            return PhaseJamPlan::idle(ctx.spectrum);
        }
        let s = obs.slots as f64;
        let total_sends: u64 = obs.correct_sends.iter().sum();
        let union_active = s * (1.0 - (-(total_sends as f64) / s).exp());
        let scale = ctx.phase_len as f64 / s;
        let slots = ((union_active * scale).round() as u64).min(ctx.phase_len);
        PhaseJamPlan::channel_zero(ctx.spectrum, slots as f64)
    }
}

/// One retained phase of activity history for the adaptive gate: its
/// length and how many channels it marked active (the channels
/// themselves, in order, in [`AdaptivePhaseJammer::active_log`]).
#[derive(Debug, Clone)]
struct GateEntry {
    slots: u64,
    active: usize,
}

/// Phase lowering of [`AdaptiveJammer`](crate::AdaptiveJammer) — the
/// Chen–Zheng 2020 adaptive adversary on phase-aggregated observations.
///
/// Per-phase state, fed exclusively by the [`PhaseObservation`] the
/// engine hands over (prior phases only — no same-phase clairvoyance):
///
/// * an **EMA heat score** per channel with smoothing `reactivity`,
///   updated once per phase from the per-slot-normalised evidence
///   `(sends + deliveries) / slots` — the same sends-plus-deliveries
///   signal as the slot jammer, aggregated;
/// * a **windowed activity gate**: a channel is a candidate iff it
///   carried correct traffic within the last `window` *slots* of
///   history (whole phases are retained until their slots age out);
/// * **spend pacing**: the total budget for a phase is the previous
///   phase's expected active channel-slots (what the slot jammer would
///   have spent), scaled to the next phase's length and placed greedily
///   on the hottest candidates — at most `phase_len` units per channel,
///   mirroring the one-unit-per-channel-per-slot cap.
#[derive(Debug, Clone)]
pub struct AdaptivePhaseJammer {
    spectrum: Spectrum,
    window: u32,
    reactivity: f64,
    heat: Vec<f64>,
    active_in_window: Vec<u32>,
    history: VecDeque<GateEntry>,
    /// The channels each retained phase marked active, oldest first.
    active_log: VecDeque<ChannelId>,
    history_slots: u64,
    /// Reused buffer for a phase's candidate channels.
    candidates: Vec<ChannelId>,
    /// Expected active channel-slots per slot of the previous phase —
    /// the observed traffic rate that paces the next phase's spend.
    prev_rate: f64,
}

impl AdaptivePhaseJammer {
    /// Creates an adaptive phase jammer over `spectrum`.
    ///
    /// `window` is the activity-gate horizon in slots and `reactivity`
    /// the EMA smoothing factor, with the same meaning (and the same
    /// validity requirements) as
    /// [`AdaptiveJammer::new`](crate::AdaptiveJammer::new).
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or `reactivity` is not in `(0, 1]`
    /// (`rcb_sim::Scenario` rejects these with a typed error instead).
    #[must_use]
    pub fn new(spectrum: Spectrum, window: u32, reactivity: f64) -> Self {
        assert!(window > 0, "adaptive window must be at least one slot");
        assert!(
            reactivity > 0.0 && reactivity <= 1.0,
            "adaptive reactivity must be in (0, 1]"
        );
        let c = spectrum.channel_count() as usize;
        Self {
            spectrum,
            window,
            reactivity,
            heat: vec![0.0; c],
            active_in_window: vec![0; c],
            history: VecDeque::new(),
            active_log: VecDeque::new(),
            history_slots: 0,
            candidates: Vec::new(),
            prev_rate: 0.0,
        }
    }

    /// The current heat estimate for `channel` (0 until traffic is
    /// observed).
    #[must_use]
    pub fn heat_on(&self, channel: ChannelId) -> f64 {
        self.heat[channel.index() as usize]
    }

    /// Rolls one completed phase into the heat/gate state.
    fn absorb(&mut self, obs: &PhaseObservation) {
        let slots = obs.slots as f64;
        let mut active = 0;
        let mut rate = 0.0;
        for channel in self.spectrum.channels() {
            let i = channel.index() as usize;
            let sends = obs.correct_sends.get(i).copied().unwrap_or(0);
            let delivered = obs.delivered.get(i).copied().unwrap_or(0);
            let evidence = (sends + delivered) as f64 / slots;
            self.heat[i] += self.reactivity * (evidence - self.heat[i]);
            if sends > 0 {
                self.active_log.push_back(channel);
                active += 1;
                self.active_in_window[i] += 1;
            }
            rate += obs.expected_active_slots(channel) / slots;
        }
        self.prev_rate = rate;
        self.history.push_back(GateEntry {
            slots: obs.slots,
            active,
        });
        self.history_slots += obs.slots;
        // Age out whole phases that fall entirely outside the window.
        while let Some(oldest) = self.history.front() {
            if self.history_slots - oldest.slots < u64::from(self.window) {
                break;
            }
            let expired = self.history.pop_front().expect("front just checked");
            self.history_slots -= expired.slots;
            for channel in self.active_log.drain(..expired.active) {
                self.active_in_window[channel.index() as usize] -= 1;
            }
        }
    }
}

impl PhaseJammer for AdaptivePhaseJammer {
    fn plan_phase(&mut self, ctx: &PhaseJamCtx<'_>) -> PhaseJamPlan {
        if ctx.observation.slots > 0 {
            self.absorb(ctx.observation);
        }
        let mut plan = PhaseJamPlan::idle(ctx.spectrum);
        let mut spend = (self.prev_rate * ctx.phase_len as f64).round() as u64;
        if let Some(rem) = ctx.budget_remaining {
            spend = spend.min(rem);
        }
        if spend == 0 {
            return plan;
        }
        // Hottest windowed candidates first; channel index breaks ties
        // deterministically (heat values are finite EMAs).
        let (heat, active_in_window) = (&self.heat, &self.active_in_window);
        let candidates = &mut self.candidates;
        candidates.clear();
        candidates.extend(
            self.spectrum
                .channels()
                .filter(|c| active_in_window[c.index() as usize] > 0),
        );
        candidates.sort_by(|a, b| {
            let (ha, hb) = (heat[a.index() as usize], heat[b.index() as usize]);
            hb.partial_cmp(&ha)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(b))
        });
        for &channel in candidates.iter() {
            if spend == 0 {
                break;
            }
            let units = spend.min(ctx.phase_len);
            plan.set_jam(channel, units as f64);
            spend -= units;
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(spectrum: Spectrum, slots: u64, sends: &[u64], delivered: &[u64]) -> PhaseObservation {
        let mut o = PhaseObservation::empty(spectrum);
        o.slots = slots;
        o.correct_sends = sends.to_vec();
        o.delivered = delivered.to_vec();
        o
    }

    fn ctx<'a>(
        spectrum: Spectrum,
        phase: u32,
        start_slot: u64,
        phase_len: u64,
        observation: &'a PhaseObservation,
    ) -> PhaseJamCtx<'a> {
        PhaseJamCtx {
            phase,
            start_slot,
            phase_len,
            spectrum,
            budget_remaining: None,
            uninformed: 100,
            informed: 0,
            observation,
        }
    }

    #[test]
    fn split_blankets_and_continuous_pins_channel_zero() {
        let spectrum = Spectrum::new(4);
        let empty = PhaseObservation::empty(spectrum);
        let c = ctx(spectrum, 0, 0, 50, &empty);
        let blanket = SplitJammer::new(spectrum).plan_phase(&c);
        assert_eq!(blanket.jam_slots(), &[50.0, 50.0, 50.0, 50.0]);
        let pinned = ContinuousJammer.plan_phase(&c);
        assert_eq!(pinned.jam_slots(), &[50.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn sweep_lowering_matches_the_slot_pattern() {
        let spectrum = Spectrum::new(3);
        let mut sweep = SweepJammer::new(spectrum, 2);
        let empty = PhaseObservation::empty(spectrum);
        // Slots 0..8 target channels 0,0,1,1,2,2,0,0 (dwell 2).
        let plan = sweep.plan_phase(&ctx(spectrum, 0, 0, 8, &empty));
        assert_eq!(plan.jam_slots(), &[4.0, 2.0, 2.0]);
        // A phase starting mid-block still matches: slots 3..9 target
        // 1,2,2,0,0,1.
        let plan = sweep.plan_phase(&ctx(spectrum, 1, 3, 6, &empty));
        assert_eq!(plan.jam_slots(), &[2.0, 2.0, 2.0]);
        // Cross-check against the slot-level target() for a long range.
        let plan = sweep.plan_phase(&ctx(spectrum, 2, 17, 100, &empty));
        let mut expected = [0.0; 3];
        for t in 17..117 {
            expected[sweep.target(rcb_radio::Slot::new(t)).index() as usize] += 1.0;
        }
        assert_eq!(plan.jam_slots(), &expected[..]);
    }

    #[test]
    fn lagged_lowering_is_idle_first_then_tracks_traffic() {
        let spectrum = Spectrum::new(2);
        let mut carol = ChannelLaggedPhaseJammer::new();
        let empty = PhaseObservation::empty(spectrum);
        assert_eq!(
            carol.plan_phase(&ctx(spectrum, 0, 0, 32, &empty)).total(),
            0.0,
            "no clairvoyance before the first observation"
        );
        // Heavy traffic on channel 0, nothing on channel 1.
        let o = obs(spectrum, 32, &[64, 0], &[0, 0]);
        let plan = carol.plan_phase(&ctx(spectrum, 1, 32, 32, &o));
        assert!(plan.jam_on(ChannelId::new(0)) > 20.0, "{plan:?}");
        assert_eq!(plan.jam_on(ChannelId::new(1)), 0.0);
    }

    #[test]
    fn lagged_reactive_lowering_paces_channel_zero_by_union_activity() {
        let spectrum = Spectrum::new(2);
        let mut carol = LaggedPhaseJammer::new();
        let empty = PhaseObservation::empty(spectrum);
        assert_eq!(
            carol.plan_phase(&ctx(spectrum, 0, 0, 32, &empty)).total(),
            0.0,
            "no clairvoyance before the first observation"
        );
        // Saturating traffic: essentially every slot was active, so the
        // lowering jams essentially the whole next phase on channel 0
        // (the slot jammer fires the single-channel jam_all after every
        // active slot).
        let busy = obs(spectrum, 32, &[200, 200], &[0, 0]);
        let plan = carol.plan_phase(&ctx(spectrum, 1, 32, 32, &busy));
        assert!(plan.jam_on(ChannelId::new(0)) >= 31.0, "{plan:?}");
        assert_eq!(
            plan.jam_on(ChannelId::new(1)),
            0.0,
            "jam_all never leaves channel 0"
        );
        // Sparse traffic: roughly one active slot maps to roughly one
        // jammed slot, never more than Poissonisation allows.
        let sparse = obs(spectrum, 32, &[1, 0], &[0, 0]);
        let plan = carol.plan_phase(&ctx(spectrum, 2, 64, 32, &sparse));
        assert_eq!(plan.jam_on(ChannelId::new(0)), 1.0, "{plan:?}");
    }

    #[test]
    fn adaptive_places_spend_on_the_hottest_channel() {
        let spectrum = Spectrum::new(4);
        let mut carol = AdaptivePhaseJammer::new(spectrum, 64, 0.5);
        let empty = PhaseObservation::empty(spectrum);
        assert_eq!(
            carol.plan_phase(&ctx(spectrum, 0, 0, 32, &empty)).total(),
            0.0,
            "idle before any observation"
        );
        // Channel 2 is hot (sends + deliveries), channel 0 lukewarm.
        let o = obs(spectrum, 32, &[4, 0, 30, 0], &[0, 0, 10, 0]);
        let plan = carol.plan_phase(&ctx(spectrum, 1, 32, 32, &o));
        assert!(carol.heat_on(ChannelId::new(2)) > carol.heat_on(ChannelId::new(0)));
        assert!(
            plan.jam_on(ChannelId::new(2)) >= plan.jam_on(ChannelId::new(0)),
            "{plan:?}"
        );
        assert_eq!(plan.jam_on(ChannelId::new(1)), 0.0);
        assert_eq!(plan.jam_on(ChannelId::new(3)), 0.0);
        // Spend is paced by the observed traffic, not the whole phase.
        assert!(plan.total() <= 64.0, "{plan:?}");
    }

    #[test]
    fn adaptive_gate_ages_out_stale_channels() {
        let spectrum = Spectrum::new(2);
        // Window of 32 slots = one 32-slot phase of history.
        let mut carol = AdaptivePhaseJammer::new(spectrum, 32, 1.0);
        let hot0 = obs(spectrum, 32, &[20, 0], &[0, 0]);
        let _ = carol.plan_phase(&ctx(spectrum, 1, 32, 32, &hot0));
        // Next phase: traffic moved to channel 1; channel 0's phase ages
        // out of the 32-slot window.
        let hot1 = obs(spectrum, 32, &[0, 20], &[0, 0]);
        let plan = carol.plan_phase(&ctx(spectrum, 2, 64, 32, &hot1));
        assert_eq!(
            plan.jam_on(ChannelId::new(0)),
            0.0,
            "stale channel is no longer a candidate: {plan:?}"
        );
        assert!(plan.jam_on(ChannelId::new(1)) > 0.0);
    }

    #[test]
    fn adaptive_respects_a_tight_budget() {
        let spectrum = Spectrum::new(2);
        let mut carol = AdaptivePhaseJammer::new(spectrum, 64, 0.5);
        let o = obs(spectrum, 32, &[32, 32], &[0, 0]);
        let mut c = ctx(spectrum, 1, 32, 32, &o);
        c.budget_remaining = Some(3);
        let plan = carol.plan_phase(&c);
        assert!(plan.total() <= 3.0, "{plan:?}");
    }

    #[test]
    #[should_panic(expected = "adaptive window must be at least one slot")]
    fn adaptive_rejects_zero_window() {
        let _ = AdaptivePhaseJammer::new(Spectrum::new(2), 0, 0.5);
    }

    #[test]
    #[should_panic(expected = "adaptive reactivity must be in (0, 1]")]
    fn adaptive_rejects_bad_reactivity() {
        let _ = AdaptivePhaseJammer::new(Spectrum::new(2), 8, 0.0);
    }
}
