//! The unified `Scenario` API, exercised end to end from the umbrella
//! crate: strategy coverage, the invalid-combination matrix, batching,
//! and outcome plumbing.

use evildoers::adversary::StrategySpec;
use evildoers::core::Params;
use evildoers::sim::{
    Engine, EpidemicSpec, EpochHoppingSpec, HoppingSpec, KpsySpec, KsySpec, NaiveSpec,
    ProtocolKind, Scenario, ScenarioBuilder, ScenarioError,
};

fn params(n: u64) -> Params {
    Params::builder(n).build().unwrap()
}

#[test]
fn every_strategy_constructs_slot_and_phase_adversaries_where_defined() {
    let p = params(16);
    for spec in StrategySpec::full_roster() {
        // Slot-level always exists.
        let _slot = spec.slot_adversary(&p, 1);
        // Phase-level exists exactly when the spec claims support.
        assert_eq!(
            spec.phase_adversary(&p, 1).is_some(),
            spec.supports_phase(),
            "{}",
            spec.name()
        );
        // Names are stable (same name on repeated calls).
        assert_eq!(spec.name(), spec.name());
    }
    // Names are unique across the full roster.
    let mut names: Vec<String> = StrategySpec::full_roster()
        .iter()
        .map(StrategySpec::name)
        .collect();
    let total = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), total, "duplicate strategy names");
}

#[test]
fn every_strategy_runs_through_the_scenario_builder_on_its_engines() {
    for spec in StrategySpec::full_roster() {
        // Channel-aware strategies need a channel-capable protocol; the
        // exact engine hosts them there (multi-channel spectrum).
        if spec.requires_channels() {
            let o = Scenario::hopping(HoppingSpec::new(16, 1_000))
                .channels(4)
                .adversary(spec)
                .carol_budget(400)
                .seed(2)
                .build()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name()))
                .run();
            assert!(o.slots > 0, "{}", spec.name());
        } else {
            // Exact engine hosts every single-channel strategy.
            let o = Scenario::broadcast(params(16))
                .adversary(spec)
                .carol_budget(400)
                .seed(2)
                .build()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name()))
                .run();
            assert!(o.slots > 0, "{}", spec.name());
        }

        // Fast engine hosts exactly the phase-capable ones.
        let fast = Scenario::broadcast(params(4096))
            .engine(Engine::Fast)
            .adversary(spec)
            .carol_budget(400)
            .seed(2)
            .build();
        match fast {
            Ok(scenario) => {
                assert!(spec.supports_phase(), "{}", spec.name());
                assert!(scenario.run().slots > 0, "{}", spec.name());
            }
            Err(err) => {
                assert!(!spec.supports_phase(), "{}: {err}", spec.name());
                assert!(matches!(
                    err,
                    ScenarioError::SlotOnlyStrategy { .. }
                        | ScenarioError::ChannelStrategyUnsupported { .. }
                ));
            }
        }

        // The fast multi-channel engine hosts exactly the phase-mc
        // capable ones (the channel-aware family + silent/continuous).
        let fast_mc = Scenario::hopping(HoppingSpec::new(256, 1_000))
            .engine(Engine::Fast)
            .channels(4)
            .adversary(spec)
            .carol_budget(400)
            .seed(2)
            .build();
        match fast_mc {
            Ok(scenario) => {
                assert!(spec.supports_phase_mc(), "{}", spec.name());
                let o = scenario.run();
                assert!(o.slots > 0, "{}", spec.name());
                assert_eq!(
                    o.channel_stats.as_ref().map(Vec::len),
                    Some(4),
                    "{}: fast_mc populates per-channel tallies",
                    spec.name()
                );
            }
            Err(err) => {
                assert!(!spec.supports_phase_mc(), "{}: {err}", spec.name());
                assert!(
                    matches!(
                        err,
                        ScenarioError::SlotOnlyStrategy { .. }
                            | ScenarioError::ScheduleBoundStrategy { .. }
                    ),
                    "{}: {err}",
                    spec.name()
                );
            }
        }
    }
}

#[test]
fn invalid_combinations_are_typed_errors_not_panics() {
    // Fast engine × baseline protocol.
    let err = Scenario::naive(NaiveSpec { n: 8, horizon: 10 })
        .engine(Engine::Fast)
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        ScenarioError::UnsupportedEngine {
            protocol: ProtocolKind::Naive,
            engine: Engine::Fast,
        }
    );

    // Schedule-bound strategy × baseline protocol.
    let err = Scenario::epidemic(EpidemicSpec::new(8, 10))
        .adversary(StrategySpec::BlockAll(0.5))
        .build()
        .unwrap_err();
    assert!(matches!(err, ScenarioError::ScheduleBoundStrategy { .. }));

    // KSY × arbitrary adversary.
    let err = Scenario::ksy(KsySpec::default())
        .adversary(StrategySpec::Bursty { burst: 4, gap: 4 })
        .build()
        .unwrap_err();
    assert!(matches!(err, ScenarioError::UnsupportedAdversary { .. }));

    // KSY × continuous jamming without a budget.
    let err = Scenario::ksy(KsySpec::default())
        .adversary(StrategySpec::Continuous)
        .build()
        .unwrap_err();
    assert!(matches!(err, ScenarioError::BudgetRequired { .. }));

    // Tracing off the slot-recording engines: the fast simulator and the
    // closed-form KSY comparator record no slots.
    let err = Scenario::broadcast(params(4096))
        .engine(Engine::Fast)
        .trace(64)
        .build()
        .unwrap_err();
    assert!(matches!(err, ScenarioError::TraceUnsupported { .. }));
    let err = Scenario::ksy(KsySpec::default())
        .adversary(StrategySpec::Continuous)
        .carol_budget(1_000)
        .trace(64)
        .build()
        .unwrap_err();
    assert!(matches!(err, ScenarioError::TraceUnsupported { .. }));

    // Tracing with zero capacity is a typed error, not a silent no-op.
    let err = Scenario::naive(NaiveSpec { n: 8, horizon: 10 })
        .trace(0)
        .build()
        .unwrap_err();
    assert!(matches!(err, ScenarioError::InvalidConfig(_)));

    // Tracing the phase-level multi-channel engine: no slots recorded.
    let err = Scenario::hopping(HoppingSpec::new(8, 100))
        .engine(Engine::Fast)
        .channels(2)
        .trace(64)
        .build()
        .unwrap_err();
    assert!(matches!(err, ScenarioError::TraceUnsupported { .. }));

    // The phase length is a fast_mc knob: zero is rejected, and so is
    // naming it on any other protocol × engine combination.
    let err = Scenario::hopping(HoppingSpec::new(8, 100))
        .engine(Engine::Fast)
        .phase_len(0)
        .build()
        .unwrap_err();
    assert!(matches!(err, ScenarioError::InvalidConfig(_)));
    let err = Scenario::hopping(HoppingSpec::new(8, 100))
        .phase_len(32) // exact engine has no phases
        .build()
        .unwrap_err();
    assert!(matches!(err, ScenarioError::InvalidConfig(_)), "{err}");
    let err = Scenario::broadcast(params(4096))
        .engine(Engine::Fast)
        .phase_len(32) // ε-BROADCAST phases come from the schedule
        .build()
        .unwrap_err();
    assert!(matches!(err, ScenarioError::InvalidConfig(_)), "{err}");

    // A zero-worker batch pool is meaningless.
    let err = Scenario::broadcast(params(16))
        .threads(0)
        .build()
        .unwrap_err();
    assert!(matches!(err, ScenarioError::InvalidConfig(_)), "{err}");

    // The lagged-reactive jammer lowers onto the phase-mc hopping
    // engine now; only the schedule-bound family stays slot-only there.
    let o = Scenario::hopping(HoppingSpec::new(256, 1_000))
        .engine(Engine::Fast)
        .adversary(StrategySpec::LaggedReactive)
        .carol_budget(400)
        .build()
        .unwrap()
        .run();
    assert!(o.slots > 0);
    let err = Scenario::hopping(HoppingSpec::new(8, 100))
        .engine(Engine::Fast)
        .adversary(StrategySpec::BlockAll(0.5))
        .build()
        .unwrap_err();
    assert!(
        matches!(err, ScenarioError::ScheduleBoundStrategy { .. }),
        "{err}"
    );

    // The adaptive adversary validates its parameters...
    let err = Scenario::hopping(HoppingSpec::new(8, 100))
        .channels(4)
        .adversary(StrategySpec::Adaptive {
            window: 0,
            reactivity: 0.5,
        })
        .build()
        .unwrap_err();
    assert!(matches!(err, ScenarioError::InvalidConfig(_)));
    for reactivity in [0.0, -0.5, 1.5, f64::NAN] {
        let err = Scenario::hopping(HoppingSpec::new(8, 100))
            .channels(4)
            .adversary(StrategySpec::Adaptive {
                window: 8,
                reactivity,
            })
            .build()
            .unwrap_err();
        assert!(
            matches!(err, ScenarioError::InvalidConfig(_)),
            "reactivity {reactivity} must be rejected, got {err}"
        );
    }

    // ...and, like every channel-aware strategy, cannot target a protocol
    // pinned to the single-channel model.
    for builder in [
        Scenario::broadcast(params(16)),
        Scenario::naive(NaiveSpec { n: 8, horizon: 10 }),
        Scenario::epidemic(EpidemicSpec::new(8, 10)),
    ] {
        let err = builder
            .adversary(StrategySpec::Adaptive {
                window: 8,
                reactivity: 0.5,
            })
            .build()
            .unwrap_err();
        assert!(
            matches!(err, ScenarioError::ChannelStrategyUnsupported { .. }),
            "{err}"
        );
    }

    // Out-of-range protocol config: typed error where the old entry
    // point panicked.
    let mut bad = EpidemicSpec::new(8, 10);
    bad.listen_p = 2.0;
    let err = Scenario::epidemic(bad).build().unwrap_err();
    assert!(matches!(err, ScenarioError::InvalidConfig(_)));

    // Every error renders a human-readable message.
    assert!(!err.to_string().is_empty());
}

#[test]
fn epoch_hopping_and_kpsy_reject_invalid_combinations() {
    use evildoers::sim::{EpochHoppingSpec, KpsySpec};

    // A zero-length epoch never reaches a boundary to redraw at.
    let err = Scenario::epoch_hopping(EpochHoppingSpec::new(8, 100, 0))
        .build()
        .unwrap_err();
    assert!(matches!(err, ScenarioError::InvalidConfig(_)), "{err}");

    // KPSY is a slot-level listening defense: no phase lowering exists,
    // on either fast engine shape.
    for channels in [1u16, 4] {
        let err = Scenario::kpsy(KpsySpec { n: 8, horizon: 100 })
            .engine(Engine::Fast)
            .channels(channels)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ScenarioError::UnsupportedEngine {
                protocol: ProtocolKind::Kpsy,
                engine: Engine::Fast,
            }
        );
    }

    // ...and it is pinned to the single-channel radio model.
    let err = Scenario::kpsy(KpsySpec { n: 8, horizon: 100 })
        .channels(2)
        .build()
        .unwrap_err();
    assert!(
        matches!(err, ScenarioError::MultiChannelUnsupported { .. }),
        "{err}"
    );
    let err = Scenario::kpsy(KpsySpec { n: 8, horizon: 100 })
        .adversary(StrategySpec::SplitUniform)
        .carol_budget(100)
        .build()
        .unwrap_err();
    assert!(
        matches!(err, ScenarioError::ChannelStrategyUnsupported { .. }),
        "{err}"
    );
    let err = Scenario::kpsy(KpsySpec { n: 8, horizon: 100 })
        .adversary(StrategySpec::BlockAll(0.5))
        .build()
        .unwrap_err();
    assert!(
        matches!(err, ScenarioError::ScheduleBoundStrategy { .. }),
        "{err}"
    );

    // The lagged-reactive lowering reaches the epoch-aware fast engine
    // too; schedule-bound strategies still have no phase-mc model there.
    let o = Scenario::epoch_hopping(EpochHoppingSpec::new(256, 1_000, 32))
        .engine(Engine::Fast)
        .adversary(StrategySpec::LaggedReactive)
        .carol_budget(400)
        .build()
        .unwrap()
        .run();
    assert!(o.slots > 0);
    let err = Scenario::epoch_hopping(EpochHoppingSpec::new(8, 100, 32))
        .engine(Engine::Fast)
        .adversary(StrategySpec::BlockAll(0.5))
        .build()
        .unwrap_err();
    assert!(
        matches!(err, ScenarioError::ScheduleBoundStrategy { .. }),
        "{err}"
    );

    // The epoch schedule *is* the phase structure on the fast engine;
    // naming the free-hopping phase_len knob alongside it is a config
    // error, on either engine.
    for engine in [Engine::Exact, Engine::Fast] {
        let err = Scenario::epoch_hopping(EpochHoppingSpec::new(8, 100, 32))
            .engine(engine)
            .phase_len(16)
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidConfig(_)), "{err}");
    }

    // Valid configurations still build, so the gates above are not
    // over-broad: epoch hopping on both engines, KPSY on exact.
    Scenario::epoch_hopping(EpochHoppingSpec::new(8, 100, 32))
        .channels(4)
        .build()
        .unwrap();
    Scenario::epoch_hopping(EpochHoppingSpec::new(256, 100, 32))
        .engine(Engine::Fast)
        .channels(4)
        .build()
        .unwrap();
    Scenario::kpsy(KpsySpec { n: 8, horizon: 100 })
        .build()
        .unwrap();
}

#[test]
fn outcome_carries_engine_specific_extras() {
    // Exact: stop reason, refusals, and (on request) the trace.
    let o = Scenario::broadcast(params(16))
        .trace(2048)
        .seed(5)
        .build()
        .unwrap()
        .run();
    assert!(o.stop_reason.is_some());
    assert!(o.participant_refusals.is_some());
    assert!(o.trace.is_some());

    // Fast: none of the slot-level extras.
    let o = Scenario::broadcast(params(4096))
        .engine(Engine::Fast)
        .seed(5)
        .build()
        .unwrap()
        .run();
    assert!(o.stop_reason.is_none());
    assert!(o.participant_refusals.is_none());
    assert!(o.trace.is_none());

    // Baselines and hopping record traces too, now that trace capacity is
    // threaded through their exact-engine runners.
    let o = Scenario::naive(NaiveSpec { n: 8, horizon: 50 })
        .trace(64)
        .seed(5)
        .build()
        .unwrap()
        .run();
    let trace = o.trace.as_ref().expect("naive records a trace on request");
    assert!(!trace.is_empty());
    assert!(o.stop_reason.is_some());
    let o = Scenario::epidemic(EpidemicSpec::new(8, 200))
        .trace(64)
        .seed(5)
        .build()
        .unwrap()
        .run();
    assert!(o.trace.is_some());
    let o = Scenario::hopping(HoppingSpec::new(8, 200))
        .channels(4)
        .adversary(StrategySpec::Adaptive {
            window: 4,
            reactivity: 0.5,
        })
        .carol_budget(100)
        .trace(64)
        .seed(5)
        .build()
        .unwrap()
        .run();
    assert!(o.trace.is_some());
    // Without an explicit trace() request there is no trace.
    let o = Scenario::naive(NaiveSpec { n: 8, horizon: 50 })
        .seed(5)
        .build()
        .unwrap()
        .run();
    assert!(o.trace.is_none());

    // KSY: the raw two-player outcome rides along, consistently mapped.
    let o = Scenario::ksy(KsySpec::default())
        .adversary(StrategySpec::Continuous)
        .carol_budget(2_000)
        .seed(5)
        .build()
        .unwrap()
        .run();
    let raw = o.ksy.unwrap();
    assert_eq!(o.broadcast.alice_cost.sends, raw.sender_cost);
    assert_eq!(o.broadcast.node_total_cost.listens, raw.receiver_cost);
    assert_eq!(u64::from(raw.delivered), o.informed_nodes);
}

#[test]
fn run_batch_scales_and_matches_solo_runs() {
    let scenario = Scenario::broadcast(params(24))
        .adversary(StrategySpec::Random(0.4))
        .carol_budget(600)
        .seed(77)
        .build()
        .unwrap();
    let batch = scenario.run_batch(8);
    assert_eq!(batch.len(), 8);
    // Distinct derived seeds, each reproducible solo.
    let mut seeds: Vec<u64> = batch.iter().map(|o| o.seed).collect();
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(seeds.len(), 8);
    let solo = scenario.run_seeded(batch[5].seed);
    assert_eq!(solo.slots, batch[5].slots);
    assert_eq!(solo.broadcast.node_costs, batch[5].broadcast.node_costs);
}

#[test]
fn empty_gossip_rosters_run_on_every_engine_they_accept() {
    use evildoers::sim::EpochHoppingSpec;

    // With no nodes there is no one to relay to: a relay rate of 0 over
    // n = 0 lowers to relay probability 0 (not 0 / 0), on every tier.
    // Alice alone sends to her horizon and stops one slot past it.
    let (horizon, listen_p, relay_rate) = (10u64, 0.5, 0.0);
    let protocols = [
        Scenario::epidemic(EpidemicSpec {
            n: 0,
            horizon,
            listen_p,
            relay_rate,
        }),
        Scenario::hopping(HoppingSpec {
            n: 0,
            horizon,
            listen_p,
            relay_rate,
        }),
        Scenario::epoch_hopping(EpochHoppingSpec {
            n: 0,
            horizon,
            listen_p,
            relay_rate,
            epoch_len: 4,
        }),
    ];
    let mut cells = 0;
    for builder in protocols {
        for engine in [Engine::Exact, Engine::Fast, Engine::Fluid] {
            for channels in [1u16, 4] {
                let Ok(scenario) = builder.clone().engine(engine).channels(channels).build() else {
                    continue;
                };
                let cell = format!("{} {engine:?} C={channels}", scenario.protocol());
                let outcome = scenario.run();
                assert_eq!(outcome.informed_nodes, 0, "{cell}");
                assert_eq!(outcome.slots, horizon + 1, "{cell}");
                cells += 1;
            }
        }
    }
    // Epidemic on the exact engine; both hopping protocols on all three
    // engines at either channel count.
    assert_eq!(cells, 13);
}

#[test]
fn horizons_past_the_exact_engines_reach_are_typed_errors() {
    // The exact gossip driver counts slots to `horizon + 2` and sizes its
    // wake wheel from the horizon; KPSY's epoch e starts at slot
    // 2^e - 2. Each protocol builds at its bound (never run: that would
    // take 2^63 slots) and is refused one past it and at u64::MAX.
    let gossip = 1u64 << 63;
    let kpsy = (1u64 << 63) - 2;
    type Protocol = fn(u64) -> ScenarioBuilder;
    let protocols: [(&str, u64, Protocol); 5] = [
        ("naive", gossip, |horizon| {
            Scenario::naive(NaiveSpec { n: 4, horizon })
        }),
        ("epidemic", gossip, |horizon| {
            Scenario::epidemic(EpidemicSpec::new(4, horizon))
        }),
        ("hopping", gossip, |horizon| {
            Scenario::hopping(HoppingSpec::new(4, horizon)).channels(4)
        }),
        ("epoch-hopping", gossip, |horizon| {
            Scenario::epoch_hopping(EpochHoppingSpec::new(4, horizon, 16)).channels(4)
        }),
        ("kpsy", kpsy, |horizon| {
            Scenario::kpsy(KpsySpec { n: 4, horizon })
        }),
    ];
    for (name, bound, protocol) in protocols {
        assert!(protocol(bound).build().is_ok(), "{name} at its bound");
        for horizon in [bound + 1, u64::MAX] {
            match protocol(horizon).build() {
                Err(ScenarioError::InvalidConfig(msg)) => {
                    assert!(msg.contains("horizon"), "{name}: {msg}");
                }
                other => panic!("{name} at {horizon}: {:?}", other.err()),
            }
        }
    }
    // The phase tiers count phases, not slots: no such bound there.
    for engine in [Engine::Fast, Engine::Fluid] {
        let built = Scenario::hopping(HoppingSpec::new(4, u64::MAX))
            .engine(engine)
            .build();
        assert!(built.is_ok(), "{engine:?}");
    }
}
