//! Telemetry is observational — never causal.
//!
//! Every instrumented engine path (era-2 exact SoA, the fast ε-BROADCAST
//! simulator, the phase-level `fast_mc` spectrum simulator, the
//! deterministic fluid tier, the SoA baselines including KPSY, and the
//! sweep scheduler) threads a `Collector` through its hot loop. This suite pins the contract that makes that safe to ship
//! enabled-by-default machinery: attaching a recording collector changes
//! **nothing** about the outcome. Same seed, same scenario, with and
//! without telemetry ⇒ byte-identical `ScenarioOutcome`s.
//!
//! The guarantee is structural — the collector only ever *reads* engine
//! state, it never draws RNG or participates in control flow — and this
//! file is the tripwire: if an instrumentation change ever perturbs a
//! seeded stream, the era-scoped fingerprints (see
//! `multichannel_equivalence.rs`) would force an `ENGINE_ERA` bump, and
//! the pin at the bottom of this file fails loudly.

use std::sync::Arc;

use evildoers::adversary::StrategySpec;
use evildoers::core::Params;
use evildoers::sim::{
    Engine, EpidemicSpec, EpochHoppingSpec, HoppingSpec, KpsySpec, NaiveSpec, Scenario,
    ScenarioBuilder, ScenarioOutcome,
};
use evildoers::sweep::ENGINE_ERA;
use evildoers::telemetry::{MetricId, RecordingCollector};

/// Renders an outcome with its (run-dependent) telemetry snapshot
/// stripped, so two runs compare on the simulation results alone.
fn rendered(outcome: &ScenarioOutcome) -> String {
    let mut bare = outcome.clone();
    bare.telemetry = None;
    format!("{bare:?}")
}

/// Runs `build` twice — plain, then with a recording collector attached —
/// and asserts the outcomes are byte-identical. Returns the collector so
/// callers can assert it actually saw traffic.
fn assert_neutral(label: &str, builder: ScenarioBuilder) -> Arc<RecordingCollector> {
    let plain = builder.clone().build().unwrap().run();
    assert!(
        plain.telemetry_snapshot().is_none(),
        "{label}: unattached run must not carry a snapshot"
    );

    let collector = Arc::new(RecordingCollector::new());
    let observed = builder.telemetry(collector.clone()).build().unwrap().run();
    assert_eq!(
        rendered(&plain),
        rendered(&observed),
        "{label}: telemetry changed the outcome"
    );
    collector
}

/// Total counter volume a collector recorded, across every metric.
fn recorded_volume(collector: &RecordingCollector) -> u64 {
    MetricId::ALL.iter().map(|&id| collector.counter(id)).sum()
}

fn params(n: u64) -> Params {
    Params::builder(n).build().unwrap()
}

#[test]
fn exact_engine_is_telemetry_neutral() {
    let collector = assert_neutral(
        "broadcast/exact",
        Scenario::broadcast(params(32))
            .adversary(StrategySpec::Continuous)
            .carol_budget(800)
            .seed(42),
    );
    assert!(
        recorded_volume(&collector) > 0,
        "exact engine recorded nothing"
    );
    assert!(collector.counter(MetricId::EngineSlots) > 0);
    assert!(collector.counter(MetricId::EngineRngDraws) > 0);
}

#[test]
fn settled_listens_are_telemetry_neutral() {
    // Under a jammer, uninformed nodes listen through every jammed
    // dissemination slot and the exact engine settles those listens in
    // bulk. The outcome must not move with a collector attached, and the
    // collector must see the settlement.
    let collector = assert_neutral(
        "broadcast/exact jammed",
        Scenario::broadcast(params(64))
            .adversary(StrategySpec::Continuous)
            .carol_budget(2_000)
            .seed(7),
    );
    assert!(collector.counter(MetricId::EngineInertSlots) > 0);
    assert!(collector.counter(MetricId::EngineSettledListens) > 0);
}

#[test]
fn dead_air_skipping_is_telemetry_neutral() {
    // Once Carol's pool is spent, the untraced ε-BROADCAST and KPSY
    // drivers skip the slots in which no device acts without calling
    // her. The outcome must not move with a collector attached, slots
    // must still count the whole run, and plans only the slots simulated.
    let cells = [
        (
            "broadcast/exact broke",
            Scenario::broadcast(params(64))
                .adversary(StrategySpec::Continuous)
                .carol_budget(300)
                .seed(7),
        ),
        (
            "kpsy n=1 broke",
            Scenario::kpsy(KpsySpec {
                n: 1,
                horizon: (1 << 14) - 2,
            })
            .adversary(StrategySpec::Continuous)
            .carol_budget(10)
            .seed(3),
        ),
    ];
    for (label, builder) in cells {
        let collector = assert_neutral(label, builder.clone());
        let slots = collector.counter(MetricId::EngineSlots);
        let plans = collector.counter(MetricId::EngineAdversaryPlans);
        let outcome = builder.build().unwrap().run();
        assert_eq!(slots, outcome.slots, "{label}: slots are the run length");
        assert!(
            0 < plans && plans < slots,
            "{label}: {plans} plans over {slots} slots"
        );
    }
}

#[test]
fn fast_engine_is_telemetry_neutral() {
    let collector = assert_neutral(
        "broadcast/fast",
        Scenario::broadcast(params(4096))
            .engine(Engine::Fast)
            .adversary(StrategySpec::BlockDissemination(1.0))
            .carol_budget(50_000)
            .seed(7),
    );
    assert!(collector.counter(MetricId::FastPhases) > 0);
}

#[test]
fn fast_mc_engine_is_telemetry_neutral() {
    let collector = assert_neutral(
        "hopping/fast_mc",
        Scenario::hopping(HoppingSpec::new(1 << 12, 4_000))
            .engine(Engine::Fast)
            .channels(4)
            .adversary(StrategySpec::Adaptive {
                window: 8,
                reactivity: 0.5,
            })
            .carol_budget(1_000)
            .seed(9),
    );
    assert!(collector.counter(MetricId::FastPhases) > 0);
    // Requested ≥ executed: the budget clamp only ever shrinks the jam.
    assert!(
        collector.counter(MetricId::FastJamRequested)
            >= collector.counter(MetricId::FastJamExecuted)
    );
}

#[test]
fn fluid_engine_is_telemetry_neutral() {
    let cells = [
        (Scenario::hopping(HoppingSpec::new(1 << 12, 4_000)), 125),
        (
            Scenario::epoch_hopping(EpochHoppingSpec::new(1 << 12, 4_000, 128)),
            32,
        ),
    ];
    for (builder, phases) in cells {
        let builder = builder
            .engine(Engine::Fluid)
            .channels(4)
            .adversary(StrategySpec::Adaptive {
                window: 8,
                reactivity: 0.5,
            })
            .carol_budget(1_000);
        let collector = assert_neutral("fluid", builder);
        // 4,000 slots in 32-slot phases, or in 128-slot epochs (the last
        // one short): one count per phase.
        assert_eq!(collector.counter(MetricId::FluidPhases), phases);
    }
}

#[test]
fn epoch_hopping_is_telemetry_neutral_on_both_engines() {
    let exact = assert_neutral(
        "epoch-hopping/exact",
        Scenario::epoch_hopping(EpochHoppingSpec::new(16, 2_000, 64))
            .channels(2)
            .adversary(StrategySpec::SplitUniform)
            .carol_budget(400)
            .seed(5),
    );
    assert!(recorded_volume(&exact) > 0);

    let fast = assert_neutral(
        "epoch-hopping/fast",
        Scenario::epoch_hopping(EpochHoppingSpec::new(1 << 12, 4_000, 128))
            .engine(Engine::Fast)
            .channels(2)
            .adversary(StrategySpec::SplitUniform)
            .carol_budget(800)
            .seed(5),
    );
    assert!(fast.counter(MetricId::FastPhases) > 0);
}

#[test]
fn baselines_are_telemetry_neutral() {
    let naive = assert_neutral(
        "naive",
        Scenario::naive(NaiveSpec {
            n: 16,
            horizon: 200,
        })
        .seed(3),
    );
    assert!(recorded_volume(&naive) > 0);

    let epidemic = assert_neutral(
        "epidemic",
        Scenario::epidemic(EpidemicSpec::new(16, 2_000)).seed(3),
    );
    assert!(recorded_volume(&epidemic) > 0);

    let kpsy = assert_neutral(
        "kpsy",
        Scenario::kpsy(KpsySpec {
            n: 16,
            horizon: 1_022,
        })
        .adversary(StrategySpec::Continuous)
        .carol_budget(300)
        .seed(3),
    );
    assert!(recorded_volume(&kpsy) > 0, "kpsy recorded nothing");
}

#[test]
fn batched_trials_are_telemetry_neutral() {
    let build = || {
        Scenario::hopping(HoppingSpec::new(16, 1_500))
            .channels(2)
            .adversary(StrategySpec::SplitUniform)
            .carol_budget(300)
            .seed(21)
    };
    let plain = build().build().unwrap().run_batch(4);

    let collector = Arc::new(RecordingCollector::new());
    let observed = build()
        .telemetry(collector.clone())
        .build()
        .unwrap()
        .run_batch(4);

    assert_eq!(plain.len(), observed.len());
    for (i, (a, b)) in plain.iter().zip(&observed).enumerate() {
        assert_eq!(rendered(a), rendered(b), "trial {i} diverged");
    }
    // One shared collector aggregates across all workers of the batch.
    assert!(recorded_volume(&collector) > 0);
}

#[test]
fn engine_era_is_unchanged_by_instrumentation() {
    // Telemetry never draws RNG, so the seeded outcome streams are the
    // same as before the instrumentation landed — the era tag must NOT
    // have been bumped. If this fails, an instrumentation change
    // perturbed engine behaviour and needs to be made observational
    // again (or, if the perturbation was deliberate, re-pinned as a new
    // era with the full fingerprint recapture that entails).
    assert_eq!(ENGINE_ERA, "era2:exact-soa-pr7/fast-pr7/fastmc-pr7");
}
