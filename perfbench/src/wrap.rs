//! Forwarding timer wrappers around the adversary objects handed to the
//! engines in traced runs.
//!
//! Each wrapper forwards every trait method, including the capability
//! queries (`is_reactive`, `wants_listener_identities`) whose defaults
//! would silently change what the engine does if a wrapper forgot them,
//! and counts calls and nanoseconds spent inside the adversary.

use std::time::Instant;

use rcb_core::fast::{PhaseAdversary, PhaseCtx, PhasePlan};
use rcb_core::fast_mc::{McPhaseCtx, McPhasePlan, PhaseJammer};
use rcb_core::fluid::{FluidJammer, FluidPhaseCtx, FluidPlan};
use rcb_radio::{Adversary, AdversaryCtx, AdversaryMove, Slot, SlotObservation};

/// Calls into an adversary and the time spent inside them.
#[derive(Debug, Default, Clone, Copy)]
pub struct Calls {
    pub calls: u64,
    pub ns: u64,
}

impl Calls {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.ns += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls += 1;
        out
    }
}

/// Times a slot-level [`Adversary`].
pub struct TimedAdversary {
    pub inner: Box<dyn Adversary>,
    pub calls: Calls,
}

impl TimedAdversary {
    pub fn new(inner: Box<dyn Adversary>) -> Self {
        Self {
            inner,
            calls: Calls::default(),
        }
    }
}

impl Adversary for TimedAdversary {
    fn plan(&mut self, slot: Slot, ctx: &AdversaryCtx) -> AdversaryMove {
        let inner = &mut self.inner;
        self.calls.time(|| inner.plan(slot, ctx))
    }

    fn react(&mut self, slot: Slot, activity: bool, planned: AdversaryMove) -> AdversaryMove {
        let inner = &mut self.inner;
        self.calls.time(|| inner.react(slot, activity, planned))
    }

    fn is_reactive(&self) -> bool {
        self.inner.is_reactive()
    }

    fn observe(&mut self, slot: Slot, observation: &SlotObservation<'_>) {
        let inner = &mut self.inner;
        self.calls.time(|| inner.observe(slot, observation));
    }

    fn wants_listener_identities(&self) -> bool {
        self.inner.wants_listener_identities()
    }
}

/// Times a `fast_mc` [`PhaseJammer`].
pub struct TimedPhaseJammer {
    pub inner: Box<dyn PhaseJammer>,
    pub calls: Calls,
}

impl PhaseJammer for TimedPhaseJammer {
    fn plan_phase(&mut self, ctx: &McPhaseCtx<'_>) -> McPhasePlan {
        let inner = &mut self.inner;
        self.calls.time(|| inner.plan_phase(ctx))
    }
}

/// Times a fluid-tier [`FluidJammer`].
pub struct TimedFluidJammer {
    pub inner: Box<dyn FluidJammer>,
    pub calls: Calls,
}

impl FluidJammer for TimedFluidJammer {
    fn plan_phase(&mut self, ctx: &FluidPhaseCtx<'_>) -> FluidPlan {
        let inner = &mut self.inner;
        self.calls.time(|| inner.plan_phase(ctx))
    }
}

/// Times an ε-BROADCAST phase-level [`PhaseAdversary`].
pub struct TimedPhaseAdversary {
    pub inner: Box<dyn PhaseAdversary>,
    pub calls: Calls,
}

impl PhaseAdversary for TimedPhaseAdversary {
    fn plan_phase(&mut self, ctx: &PhaseCtx) -> PhasePlan {
        let inner = &mut self.inner;
        self.calls.time(|| inner.plan_phase(ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::digest_parts;
    use rcb_core::{
        execute_hopping_soa_with, BroadcastSoaScratch, HoppingConfig, HoppingSoaScratch, Params,
        RunConfig,
    };
    use rcb_radio::{Budget, Spectrum};
    use rcb_sim::{HoppingSpec, Scenario, StrategySpec};
    use rcb_telemetry::{Collector, NoopCollector};

    const NOOP: &dyn Collector = &NoopCollector;

    /// Forwards `plan` only: what a wrapper that leans on the trait's
    /// defaults would do.
    struct PlanOnly(Box<dyn Adversary>);

    impl Adversary for PlanOnly {
        fn plan(&mut self, slot: Slot, ctx: &AdversaryCtx) -> AdversaryMove {
            self.0.plan(slot, ctx)
        }
    }

    fn reactive_run(wrap: impl FnOnce(Box<dyn Adversary>) -> Box<dyn Adversary>) -> u64 {
        let params = Params::builder(64).build().unwrap();
        let config = RunConfig::seeded(11).carol_budget(Budget::limited(400));
        let mut adversary = wrap(StrategySpec::Reactive.slot_adversary(&params, 11));
        let (outcome, report) =
            BroadcastSoaScratch::new().run_with(&params, adversary.as_mut(), &config, NOOP);
        digest_parts(
            &outcome,
            Some(report.stop_reason),
            Some(&report.participant_refusals),
            Some(&report.channel_stats),
        )
    }

    fn adaptive_run(wrap: impl FnOnce(Box<dyn Adversary>) -> Box<dyn Adversary>) -> u64 {
        let spectrum = Spectrum::new(4);
        let strategy = StrategySpec::Adaptive {
            window: 8,
            reactivity: 0.5,
        };
        let spec = HoppingSpec::new(64, 3_000);
        let config = HoppingConfig {
            n: spec.n,
            horizon: spec.horizon,
            listen_p: spec.listen_p,
            relay_rate: spec.relay_rate,
            carol_budget: Budget::limited(600),
            trace_capacity: 0,
            seed: 5,
        };
        let inner = strategy
            .schedule_free_slot_adversary_on(spectrum, 5)
            .unwrap();
        let mut adversary = wrap(inner);
        let (outcome, report) = execute_hopping_soa_with(
            &config,
            spectrum,
            adversary.as_mut(),
            &mut HoppingSoaScratch::default(),
            NOOP,
        );
        digest_parts(
            &outcome,
            Some(report.stop_reason),
            Some(&report.participant_refusals),
            Some(&report.channel_stats),
        )
    }

    fn timed(inner: Box<dyn Adversary>) -> Box<dyn Adversary> {
        Box::new(TimedAdversary::new(inner))
    }

    #[test]
    fn timed_adversary_forwards_reactive_hooks() {
        let params = Params::builder(64).build().unwrap();
        let via_scenario = Scenario::broadcast(params)
            .adversary(StrategySpec::Reactive)
            .carol_budget(400)
            .seed(0)
            .build()
            .unwrap()
            .run_seeded(11);
        let expected = crate::check::digest(&via_scenario);
        assert_eq!(reactive_run(|a| a), expected);
        assert_eq!(reactive_run(timed), expected);
        // The equality has teeth: dropping `is_reactive`/`react` changes
        // the run.
        assert_ne!(reactive_run(|a| Box::new(PlanOnly(a))), expected);
    }

    #[test]
    fn timed_adversary_forwards_observations() {
        let via_scenario = Scenario::hopping(HoppingSpec::new(64, 3_000))
            .channels(4)
            .adversary(StrategySpec::Adaptive {
                window: 8,
                reactivity: 0.5,
            })
            .carol_budget(600)
            .build()
            .unwrap()
            .run_seeded(5);
        let expected = crate::check::digest(&via_scenario);
        assert_eq!(adaptive_run(|a| a), expected);
        assert_eq!(adaptive_run(timed), expected);
        // Without `observe` the adaptive jammer never learns where the
        // traffic is.
        assert_ne!(adaptive_run(|a| Box::new(PlanOnly(a))), expected);
    }

    #[test]
    fn timed_adversary_counts_calls() {
        let params = Params::builder(64).build().unwrap();
        let config = RunConfig::seeded(3).carol_budget(Budget::limited(100));
        let mut adversary =
            TimedAdversary::new(StrategySpec::Continuous.slot_adversary(&params, 3));
        let _ = BroadcastSoaScratch::new().run_with(&params, &mut adversary, &config, NOOP);
        assert!(adversary.calls.calls > 100);
        assert!(adversary.calls.ns > 0);
    }
}
