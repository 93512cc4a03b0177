//! Serialisable strategy specifications — `rcb_sim::Scenario` and the
//! analysis harness name their adversaries with these and construct fresh
//! instances per trial.

use rcb_core::phase::PhaseJammer;
use rcb_core::{Params, RoundSchedule};
use rcb_radio::{Adversary, Spectrum};

use crate::{
    AdaptiveJammer, AdaptivePhaseJammer, BurstyDutyJammer, BurstyJammer, ChannelLaggedJammer,
    ChannelLaggedPhaseJammer, ContinuousJammer, EpsilonExtractor, LaggedJammer, LaggedPhaseJammer,
    NackSpoofer, PhaseBlocker, PhaseTarget, RandomFluidJammer, RandomJammer, ReactiveJammer,
    SilentAdversary, SilentPhaseJammer, SplitJammer, SweepJammer,
};

/// A strategy with a slot-level and an ε-BROADCAST phase-level model in
/// one object: the schedule-bound family.
trait SlotAndPhase: Adversary + PhaseJammer {}

impl<T: Adversary + PhaseJammer> SlotAndPhase for T {}

/// A named, parameterised adversary strategy.
///
/// # Example
///
/// ```
/// use rcb_adversary::StrategySpec;
/// use rcb_core::Params;
///
/// let params = Params::builder(64).build()?;
/// let mut carol = StrategySpec::Continuous.slot_adversary(&params, 7);
/// let mut fast_carol = StrategySpec::Continuous
///     .phase_adversary(&params, 7)
///     .expect("continuous jamming has a phase-level model");
/// # let _ = (&mut carol, &mut fast_carol);
/// # Ok::<(), rcb_core::ParamsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StrategySpec {
    /// No attack.
    Silent,
    /// Jam everything until broke.
    Continuous,
    /// Jam each slot i.i.d. with this probability.
    Random(f64),
    /// Bursts of `burst` jammed slots separated by `gap` quiet slots.
    Bursty {
        /// Jammed slots per burst.
        burst: u64,
        /// Quiet slots between bursts.
        gap: u64,
    },
    /// Lemma 10 strategy 1: block inform + propagation with fraction β.
    BlockDissemination(f64),
    /// Lemma 10 strategy 2: block request phases with fraction β.
    BlockRequest(f64),
    /// Block every phase with fraction β.
    BlockAll(f64),
    /// §2.3 n-uniform extraction, sparing this many nodes.
    Extract(u32),
    /// §2.2 nack spoofing at this per-slot rate.
    Spoof(f64),
    /// §4.1 reactive RSSI jamming.
    Reactive,
    /// Detection-then-jam with one slot of latency (no in-slot CCA).
    /// Slot-only on the ε-BROADCAST schedule (no `fast` phase model),
    /// but lowered onto the hopping tiers via expected union-activity
    /// pacing ([`crate::LaggedPhaseJammer`]).
    LaggedReactive,
    /// Budget-splitting uniform jammer: blanket every channel of the
    /// spectrum each slot (costs `C` units per slot). Channel-aware:
    /// requires a protocol that hosts a multi-channel spectrum.
    SplitUniform,
    /// Channel-sweeping jammer: jam one channel at a time, hopping every
    /// `dwell` slots. Channel-aware.
    ChannelSweep {
        /// Slots spent on each channel before hopping to the next.
        dwell: u64,
    },
    /// Multi-channel lagged reactive: jam (next slot) every channel that
    /// carried correct traffic. Channel-aware.
    ChannelLagged,
    /// Chen–Zheng 2020 adaptive adversary: maintain per-channel traffic
    /// estimates from observed history and greedily reallocate the jam
    /// split toward the hottest channels. Channel-aware.
    Adaptive {
        /// Activity-gate horizon: a channel is a candidate target iff it
        /// carried correct traffic within this many recent slots (≥ 1).
        window: u32,
        /// EMA smoothing factor for the per-channel heat score, in
        /// `(0, 1]` (1.0 = only the latest slot counts).
        reactivity: f64,
    },
}

impl StrategySpec {
    /// Short stable name for tables.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            StrategySpec::Silent => "silent".into(),
            StrategySpec::Continuous => "continuous".into(),
            StrategySpec::Random(p) => format!("random(p={p})"),
            StrategySpec::Bursty { burst, gap } => format!("bursty({burst}/{gap})"),
            StrategySpec::BlockDissemination(b) => format!("block-dissem(β={b})"),
            StrategySpec::BlockRequest(b) => format!("block-request(β={b})"),
            StrategySpec::BlockAll(b) => format!("block-all(β={b})"),
            StrategySpec::Extract(x) => format!("extract(x={x})"),
            StrategySpec::Spoof(r) => format!("spoof(rate={r})"),
            StrategySpec::Reactive => "reactive".into(),
            StrategySpec::LaggedReactive => "lagged-reactive".into(),
            StrategySpec::SplitUniform => "split-uniform".into(),
            StrategySpec::ChannelSweep { dwell } => format!("channel-sweep(dwell={dwell})"),
            StrategySpec::ChannelLagged => "channel-lagged".into(),
            StrategySpec::Adaptive { window, reactivity } => {
                format!("adaptive(w={window},r={reactivity})")
            }
        }
    }

    /// Whether this strategy's behaviour is defined in terms of the
    /// ε-BROADCAST round/phase schedule. Schedule-bound strategies are
    /// meaningless against protocols without rounds (the baselines), and
    /// `Scenario` rejects those combinations.
    #[must_use]
    pub fn requires_schedule(&self) -> bool {
        matches!(
            self,
            StrategySpec::BlockDissemination(_)
                | StrategySpec::BlockRequest(_)
                | StrategySpec::BlockAll(_)
                | StrategySpec::Extract(_)
                | StrategySpec::Spoof(_)
                | StrategySpec::Reactive
        )
    }

    /// Whether a phase-level model of this strategy exists for the
    /// ε-BROADCAST schedule, the `fast` simulator's: every single-channel
    /// strategy but `LaggedReactive`. See
    /// [`StrategySpec::phase_adversary`].
    #[must_use]
    pub fn supports_phase(&self) -> bool {
        !self.requires_channels() && *self != StrategySpec::LaggedReactive
    }

    /// Whether a phase-level **multi-channel** model of this strategy
    /// exists — whether it can run on the hopping phase tiers, the
    /// sampled `fast_mc` tier and the deterministic fluid tier. See
    /// [`StrategySpec::phase_jammer`] and [`StrategySpec::fluid_jammer`].
    ///
    /// True for the **whole schedule-free zoo**: the channel-aware family
    /// (via the lowerings in [`crate::AdaptivePhaseJammer`] /
    /// [`crate::ChannelLaggedPhaseJammer`] and the direct impls on
    /// [`SplitJammer`] / [`SweepJammer`]), `Silent` and `Continuous`, and
    /// the lowered single-channel strategies — `Random` (per-phase
    /// binomial draws), `Bursty` (exact periodic interval counts, bursts
    /// straddling phase boundaries included), and `LaggedReactive`
    /// (expected union-activity pacing via [`crate::LaggedPhaseJammer`]).
    /// Only the schedule-bound family has no phase-mc model — the
    /// ε-BROADCAST round structure does not exist on the hopping
    /// protocols. Every model is deterministic except `Random`'s draw,
    /// which the fluid tier replaces by its mean
    /// ([`crate::RandomFluidJammer`]), so both tiers host the same set.
    #[must_use]
    pub fn supports_phase_mc(&self) -> bool {
        !self.requires_schedule()
    }

    /// Whether this strategy's behaviour is defined in terms of a
    /// multi-channel spectrum. Channel-aware strategies are meaningless
    /// against protocols pinned to the single-channel model, and
    /// `Scenario` rejects those combinations at build time.
    #[must_use]
    pub fn requires_channels(&self) -> bool {
        matches!(
            self,
            StrategySpec::SplitUniform
                | StrategySpec::ChannelSweep { .. }
                | StrategySpec::ChannelLagged
                | StrategySpec::Adaptive { .. }
        )
    }

    /// Builds the slot-level adversary for the exact engine, on the
    /// single-channel spectrum.
    #[must_use]
    pub fn slot_adversary(&self, params: &Params, seed: u64) -> Box<dyn Adversary> {
        self.slot_adversary_on(params, Spectrum::single(), seed)
    }

    /// Builds the slot-level adversary for the exact engine over an
    /// explicit spectrum (channel-aware strategies split or sweep it;
    /// single-channel strategies stay on channel 0).
    #[must_use]
    pub fn slot_adversary_on(
        &self,
        params: &Params,
        spectrum: Spectrum,
        seed: u64,
    ) -> Box<dyn Adversary> {
        match self.schedule_bound(params, seed) {
            Some(carol) => carol,
            None => self
                .schedule_free_slot_adversary_on(spectrum, seed)
                .expect("a strategy is schedule-bound or schedule-free"),
        }
    }

    /// Builds a schedule-bound strategy (see
    /// [`StrategySpec::requires_schedule`]) — one object that serves the
    /// exact engine and the `fast` simulator alike — or `None` for a
    /// schedule-free one.
    fn schedule_bound(&self, params: &Params, seed: u64) -> Option<Box<dyn SlotAndPhase>> {
        let schedule = RoundSchedule::new(params);
        Some(match *self {
            StrategySpec::BlockDissemination(beta) => Box::new(PhaseBlocker::new(
                schedule,
                PhaseTarget::dissemination(),
                beta,
            )),
            StrategySpec::BlockRequest(beta) => Box::new(PhaseBlocker::new(
                schedule,
                PhaseTarget::termination(),
                beta,
            )),
            StrategySpec::BlockAll(beta) => {
                Box::new(PhaseBlocker::new(schedule, PhaseTarget::all(), beta))
            }
            StrategySpec::Extract(x) => Box::new(EpsilonExtractor::sparing_first(schedule, x)),
            StrategySpec::Spoof(rate) => Box::new(NackSpoofer::new(schedule, rate, seed)),
            StrategySpec::Reactive => Box::new(ReactiveJammer::new(params.clone())),
            _ => return None,
        })
    }

    /// Builds the slot-level adversary for protocols *without* a round
    /// schedule (the baselines), on the single-channel spectrum. Returns
    /// `None` when the strategy is schedule-bound (see
    /// [`StrategySpec::requires_schedule`]).
    #[must_use]
    pub fn schedule_free_slot_adversary(&self, seed: u64) -> Option<Box<dyn Adversary>> {
        self.schedule_free_slot_adversary_on(Spectrum::single(), seed)
    }

    /// Like [`schedule_free_slot_adversary`](Self::schedule_free_slot_adversary)
    /// but over an explicit spectrum.
    #[must_use]
    pub fn schedule_free_slot_adversary_on(
        &self,
        spectrum: Spectrum,
        seed: u64,
    ) -> Option<Box<dyn Adversary>> {
        match *self {
            StrategySpec::Silent => Some(Box::new(SilentAdversary)),
            StrategySpec::Continuous => Some(Box::new(ContinuousJammer)),
            StrategySpec::Random(p) => Some(Box::new(RandomJammer::new(p, seed))),
            StrategySpec::Bursty { burst, gap } => Some(Box::new(BurstyJammer::new(burst, gap))),
            StrategySpec::LaggedReactive => Some(Box::new(LaggedJammer::new())),
            StrategySpec::SplitUniform => Some(Box::new(SplitJammer::new(spectrum))),
            StrategySpec::ChannelSweep { dwell } => {
                Some(Box::new(SweepJammer::new(spectrum, dwell)))
            }
            StrategySpec::ChannelLagged => Some(Box::new(ChannelLaggedJammer::new())),
            StrategySpec::Adaptive { window, reactivity } => {
                Some(Box::new(AdaptiveJammer::new(spectrum, window, reactivity)))
            }
            _ => None,
        }
    }

    /// Builds the phase jammer for the ε-BROADCAST `fast` simulator, or
    /// `None` when the strategy has no model on its schedule (see
    /// [`StrategySpec::supports_phase`]).
    ///
    /// This is the same [`PhaseJammer`] trait the hopping tiers consult,
    /// over a single channel; the schedule-bound strategies find their
    /// round and phase from the context's start slot. `Silent`,
    /// `Continuous` and `Random` run their one phase lowering. `Bursty`
    /// runs its duty-cycle model ([`BurstyDutyJammer`]), not the exact
    /// overlap count [`StrategySpec::phase_jammer`] uses.
    #[must_use]
    pub fn phase_adversary(&self, params: &Params, seed: u64) -> Option<Box<dyn PhaseJammer>> {
        match *self {
            StrategySpec::Silent | StrategySpec::Continuous | StrategySpec::Random(_) => {
                self.phase_jammer(Spectrum::single(), seed)
            }
            StrategySpec::Bursty { burst, gap } => {
                Some(Box::new(BurstyDutyJammer::new(burst, gap)))
            }
            _ => self
                .schedule_bound(params, seed)
                .map(|carol| carol as Box<dyn PhaseJammer>),
        }
    }

    /// Builds the phase-level multi-channel jammer for the sampled
    /// `fast_mc` tier over an explicit spectrum, or `None` when the
    /// strategy has no phase-mc model (see
    /// [`StrategySpec::supports_phase_mc`]).
    /// `seed` drives the stochastic lowerings (`Random`'s per-phase
    /// binomial draws); the deterministic ones ignore it.
    #[must_use]
    pub fn phase_jammer(&self, spectrum: Spectrum, seed: u64) -> Option<Box<dyn PhaseJammer>> {
        Some(match *self {
            StrategySpec::Silent => Box::new(SilentPhaseJammer),
            StrategySpec::Continuous => Box::new(ContinuousJammer),
            StrategySpec::Random(p) => Box::new(RandomJammer::new(p, seed)),
            StrategySpec::Bursty { burst, gap } => Box::new(BurstyJammer::new(burst, gap)),
            StrategySpec::LaggedReactive => Box::new(LaggedPhaseJammer::new()),
            StrategySpec::SplitUniform => Box::new(SplitJammer::new(spectrum)),
            StrategySpec::ChannelSweep { dwell } => Box::new(SweepJammer::new(spectrum, dwell)),
            StrategySpec::ChannelLagged => Box::new(ChannelLaggedPhaseJammer::new()),
            StrategySpec::Adaptive { window, reactivity } => {
                Box::new(AdaptivePhaseJammer::new(spectrum, window, reactivity))
            }
            _ => return None,
        })
    }

    /// Builds the jammer for the deterministic fluid tier over an
    /// explicit spectrum, or `None` when the strategy has no phase-mc
    /// model (see [`StrategySpec::supports_phase_mc`]). No seed
    /// parameter on purpose: the fluid tier has no RNG anywhere, so
    /// `Random` routes to its mean-plan model instead of its sampling
    /// lowering; every other strategy runs its one (deterministic)
    /// phase-mc lowering.
    #[must_use]
    pub fn fluid_jammer(&self, spectrum: Spectrum) -> Option<Box<dyn PhaseJammer>> {
        match *self {
            StrategySpec::Random(p) => Some(Box::new(RandomFluidJammer::new(p))),
            _ => self.phase_jammer(spectrum, 0),
        }
    }

    /// Every phase-capable strategy with representative parameters, for
    /// the E2 delivery sweep (runs on the fast simulator).
    #[must_use]
    pub fn roster() -> Vec<StrategySpec> {
        vec![
            StrategySpec::Silent,
            StrategySpec::Continuous,
            StrategySpec::Random(0.5),
            StrategySpec::Bursty { burst: 64, gap: 64 },
            StrategySpec::BlockDissemination(1.0),
            StrategySpec::BlockRequest(1.0),
            StrategySpec::BlockAll(0.55),
            StrategySpec::Extract(8),
            StrategySpec::Spoof(1.0),
            StrategySpec::Reactive,
        ]
    }

    /// The full strategy roster, including slot-only strategies that the
    /// fast simulator cannot model.
    #[must_use]
    pub fn full_roster() -> Vec<StrategySpec> {
        let mut roster = Self::roster();
        roster.push(StrategySpec::LaggedReactive);
        roster.extend(Self::channel_roster());
        roster
    }

    /// Every channel-aware strategy with representative parameters, for
    /// the E11 multi-channel sweep.
    #[must_use]
    pub fn channel_roster() -> Vec<StrategySpec> {
        vec![
            StrategySpec::SplitUniform,
            StrategySpec::ChannelSweep { dwell: 8 },
            StrategySpec::ChannelLagged,
            StrategySpec::Adaptive {
                window: 8,
                reactivity: 0.5,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcb_core::fast::{run_fast, FastConfig};
    use rcb_core::{BroadcastSoaScratch, RunConfig};
    use rcb_radio::Budget;

    #[test]
    fn names_are_unique() {
        let names: Vec<String> = StrategySpec::full_roster()
            .iter()
            .map(|s| s.name())
            .collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
    }

    #[test]
    fn every_spec_builds_and_runs_on_both_engines() {
        let params = Params::builder(16).build().unwrap();
        let mut scratch = BroadcastSoaScratch::new();
        for spec in StrategySpec::full_roster() {
            let mut slot_carol = spec.slot_adversary(&params, 1);
            let cfg = RunConfig::seeded(1).carol_budget(Budget::limited(500));
            let (o, _) = scratch.run(&params, slot_carol.as_mut(), &cfg);
            assert!(o.slots > 0, "{} produced empty run", spec.name());

            match spec.phase_adversary(&params, 1) {
                Some(mut phase_carol) => {
                    let fo = run_fast(
                        &params,
                        phase_carol.as_mut(),
                        &FastConfig::seeded(1).carol_budget(500),
                    );
                    assert!(fo.slots > 0, "{} produced empty fast run", spec.name());
                    assert!(fo.carol_spend() <= 500);
                }
                None => assert!(
                    !spec.supports_phase(),
                    "{} returned no phase adversary but claims phase support",
                    spec.name()
                ),
            }
        }
    }

    #[test]
    fn capability_flags_are_consistent() {
        for spec in StrategySpec::full_roster() {
            let params = Params::builder(16).build().unwrap();
            assert_eq!(
                spec.phase_adversary(&params, 0).is_some(),
                spec.supports_phase(),
                "{}",
                spec.name()
            );
            assert_eq!(
                spec.schedule_free_slot_adversary(0).is_some(),
                !spec.requires_schedule(),
                "{}",
                spec.name()
            );
            assert_eq!(
                spec.phase_jammer(Spectrum::new(4), 0).is_some(),
                spec.supports_phase_mc(),
                "{}",
                spec.name()
            );
            assert_eq!(
                spec.fluid_jammer(Spectrum::new(4)).is_some(),
                spec.supports_phase_mc(),
                "fluid and phase-mc capability sets coincide: {}",
                spec.name()
            );
        }
    }

    #[test]
    fn the_whole_schedule_free_zoo_has_a_phase_mc_model() {
        for spec in StrategySpec::full_roster() {
            assert_eq!(
                spec.supports_phase_mc(),
                !spec.requires_schedule(),
                "{}: phase-mc coverage is exactly the schedule-free zoo",
                spec.name()
            );
        }
        // The former stragglers are now covered.
        assert!(StrategySpec::LaggedReactive.supports_phase_mc());
        assert!(StrategySpec::Random(0.5).supports_phase_mc());
        assert!(StrategySpec::Bursty { burst: 64, gap: 64 }.supports_phase_mc());
    }

    #[test]
    fn random_phase_lowering_is_seeded_and_fluid_model_is_not() {
        // Two seeds give different binomial streams on the phase tier...
        let spectrum = Spectrum::new(2);
        let spec = StrategySpec::Random(0.5);
        let obs = rcb_core::phase::PhaseObservation::empty(spectrum);
        let ctx = rcb_core::phase::PhaseJamCtx {
            phase: 0,
            start_slot: 0,
            phase_len: 10_000,
            spectrum,
            budget_remaining: None,
            uninformed: 10,
            informed: 0,
            observation: &obs,
        };
        let plan_a = spec.phase_jammer(spectrum, 1).unwrap().plan_phase(&ctx);
        let plan_b = spec.phase_jammer(spectrum, 2).unwrap().plan_phase(&ctx);
        assert_ne!(plan_a.jam_slots(), plan_b.jam_slots(), "seed must matter");
        // ...while the fluid model plans the exact mean, deterministically.
        let fplan = spec.fluid_jammer(spectrum).unwrap().plan_phase(&ctx);
        // jam_all targets channel 0 only, at the exact mean p·phase_len.
        assert_eq!(fplan.jam_slots(), &[5_000.0, 0.0]);
    }
}
