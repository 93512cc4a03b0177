//! Cross-crate integration: exact replayability from a single master seed,
//! across protocols, engines, adversaries, protocol variants, and the
//! sweep service's sharded execution.
//!
//! Every exact-engine entry here exercises the **era-2** engine (SoA
//! rosters, counter-based per-node RNG, sleep-skipping wakeups) — the
//! default since the era bump. Counter-based streams are what make these
//! guarantees structural: a node's draws depend only on its leaf seed
//! and counter, never on which worker ran it or how trials were sharded.
//! The fluid tier is deterministic by construction (no RNG at all), so
//! its invariance is covered by the `rcb-sim` unit tests.

use evildoers::adversary::StrategySpec;
use evildoers::core::{Params, Variant};
use evildoers::sim::{
    Engine, EpidemicSpec, EpochHoppingSpec, HoppingSpec, KpsySpec, KsySpec, NaiveSpec, Scenario,
    ScenarioOutcome,
};

fn assert_identical(a: &ScenarioOutcome, b: &ScenarioOutcome, label: &str) {
    assert_eq!(a.seed, b.seed, "{label}");
    assert_eq!(a.slots, b.slots, "{label}");
    assert_eq!(a.informed_nodes, b.informed_nodes, "{label}");
    assert_eq!(a.uninformed_terminated, b.uninformed_terminated, "{label}");
    assert_eq!(a.alice_cost, b.alice_cost, "{label}");
    assert_eq!(
        a.broadcast.node_total_cost, b.broadcast.node_total_cost,
        "{label}"
    );
    assert_eq!(a.broadcast.carol_cost, b.broadcast.carol_cost, "{label}");
    assert_eq!(a.broadcast.node_costs, b.broadcast.node_costs, "{label}");
}

#[test]
fn exact_engine_replays_bit_for_bit() {
    let params = Params::builder(32).max_round_margin(3).build().unwrap();
    for spec in [
        StrategySpec::Continuous,
        StrategySpec::Random(0.4),
        StrategySpec::Spoof(0.8),
        StrategySpec::Extract(4),
        StrategySpec::LaggedReactive,
    ] {
        let scenario = Scenario::broadcast(params.clone())
            .adversary(spec)
            .carol_budget(1_000)
            .seed(42)
            .build()
            .unwrap();
        assert_identical(&scenario.run(), &scenario.run(), &spec.name());
    }
}

#[test]
fn fast_sim_replays_bit_for_bit() {
    let params = Params::builder(10_000).build().unwrap();
    let scenario = Scenario::broadcast(params)
        .engine(Engine::Fast)
        .adversary(StrategySpec::BlockDissemination(1.0))
        .carol_budget(100_000)
        .seed(7)
        .build()
        .unwrap();
    assert_identical(&scenario.run(), &scenario.run(), "fast/block-dissem");
}

#[test]
fn every_protocol_engine_combination_is_deterministic() {
    // Satellite guarantee of the Scenario API: same seed ⇒ identical
    // ScenarioOutcome, for every protocol × engine pairing.
    let scenarios: Vec<(&str, Scenario)> = vec![
        (
            "broadcast/exact",
            Scenario::broadcast(Params::builder(16).build().unwrap())
                .adversary(StrategySpec::Continuous)
                .carol_budget(300)
                .seed(11)
                .build()
                .unwrap(),
        ),
        (
            "broadcast/fast",
            Scenario::broadcast(Params::builder(4096).build().unwrap())
                .engine(Engine::Fast)
                .adversary(StrategySpec::Spoof(1.0))
                .carol_budget(10_000)
                .seed(11)
                .build()
                .unwrap(),
        ),
        (
            "naive/exact",
            Scenario::naive(NaiveSpec { n: 8, horizon: 400 })
                .adversary(StrategySpec::Random(0.5))
                .carol_budget(150)
                .seed(11)
                .build()
                .unwrap(),
        ),
        (
            "epidemic/exact",
            Scenario::epidemic(EpidemicSpec::new(8, 800))
                .adversary(StrategySpec::Bursty { burst: 16, gap: 16 })
                .carol_budget(150)
                .seed(11)
                .build()
                .unwrap(),
        ),
        (
            "ksy/exact",
            Scenario::ksy(KsySpec::default())
                .adversary(StrategySpec::Continuous)
                .carol_budget(5_000)
                .seed(11)
                .build()
                .unwrap(),
        ),
        (
            "hopping-c4/adaptive",
            Scenario::hopping(HoppingSpec::new(16, 2_000))
                .channels(4)
                .adversary(StrategySpec::Adaptive {
                    window: 8,
                    reactivity: 0.5,
                })
                .carol_budget(400)
                .seed(11)
                .build()
                .unwrap(),
        ),
        (
            "hopping-c4/channel-lagged",
            Scenario::hopping(HoppingSpec::new(16, 2_000))
                .channels(4)
                .adversary(StrategySpec::ChannelLagged)
                .carol_budget(400)
                .seed(11)
                .build()
                .unwrap(),
        ),
        (
            "epoch-hopping-c4/sweep",
            Scenario::epoch_hopping(EpochHoppingSpec::new(16, 2_000, 32))
                .channels(4)
                .adversary(StrategySpec::ChannelSweep { dwell: 32 })
                .carol_budget(400)
                .seed(11)
                .build()
                .unwrap(),
        ),
        (
            "epoch-hopping-c4/fast-mc",
            Scenario::epoch_hopping(EpochHoppingSpec::new(4_096, 2_000, 32))
                .engine(Engine::Fast)
                .channels(4)
                .adversary(StrategySpec::Adaptive {
                    window: 8,
                    reactivity: 0.5,
                })
                .carol_budget(400)
                .seed(11)
                .build()
                .unwrap(),
        ),
        (
            "kpsy/continuous",
            Scenario::kpsy(KpsySpec {
                n: 12,
                horizon: 2_000,
            })
            .adversary(StrategySpec::Continuous)
            .carol_budget(500)
            .seed(11)
            .build()
            .unwrap(),
        ),
    ];
    for (label, scenario) in &scenarios {
        assert_identical(&scenario.run(), &scenario.run(), label);
        // Batch execution replays the same per-trial stream.
        let batch_a = scenario.run_batch(3);
        let batch_b = scenario.run_batch(3);
        for (a, b) in batch_a.iter().zip(&batch_b) {
            assert_identical(a, b, label);
        }
    }
}

#[test]
fn shared_scratch_reuse_is_invisible_across_protocols() {
    use evildoers::sim::ScenarioScratch;
    // The typed-roster fast path reuses per-worker scratch (rosters,
    // budget vectors, engine buffers). One scratch hopping between
    // protocol families, adversaries, and channel counts must reproduce
    // fresh-scratch runs bit for bit — across C ∈ {1, 4} and every
    // exact-engine protocol family.
    //
    // Epoch hopping keeps per-node noise flags and per-channel noise
    // counts that a run leaves set only if it ends with uninformed
    // nodes: a blanket jam that outlasts the horizon, traced (every
    // listener hears noise) and untraced (noisy slots are counted), each
    // followed by a run that a stale flag or count would change.
    let epoch = |strategy: StrategySpec| {
        Scenario::epoch_hopping(EpochHoppingSpec::new(12, 600, 16))
            .channels(4)
            .adversary(strategy)
            .seed(5)
    };
    let after_jam = epoch(StrategySpec::Random(0.3))
        .carol_budget(200)
        .build()
        .unwrap();
    let combos: Vec<(&str, Scenario)> = vec![
        (
            "broadcast/continuous",
            Scenario::broadcast(Params::builder(16).build().unwrap())
                .adversary(StrategySpec::Continuous)
                .carol_budget(300)
                .seed(5)
                .build()
                .unwrap(),
        ),
        (
            "broadcast/lagged-reactive",
            Scenario::broadcast(Params::builder(16).build().unwrap())
                .adversary(StrategySpec::LaggedReactive)
                .carol_budget(200)
                .seed(5)
                .build()
                .unwrap(),
        ),
        (
            "naive/random",
            Scenario::naive(NaiveSpec { n: 8, horizon: 300 })
                .adversary(StrategySpec::Random(0.5))
                .carol_budget(100)
                .seed(5)
                .build()
                .unwrap(),
        ),
        (
            "epidemic/bursty",
            Scenario::epidemic(EpidemicSpec::new(8, 600))
                .adversary(StrategySpec::Bursty { burst: 8, gap: 8 })
                .carol_budget(100)
                .seed(5)
                .build()
                .unwrap(),
        ),
        (
            "hopping-c1/split",
            Scenario::hopping(HoppingSpec::new(12, 1_500))
                .channels(1)
                .adversary(StrategySpec::SplitUniform)
                .carol_budget(300)
                .seed(5)
                .build()
                .unwrap(),
        ),
        (
            "hopping-c4/adaptive",
            Scenario::hopping(HoppingSpec::new(12, 1_500))
                .channels(4)
                .adversary(StrategySpec::Adaptive {
                    window: 8,
                    reactivity: 0.5,
                })
                .carol_budget(300)
                .seed(5)
                .build()
                .unwrap(),
        ),
        (
            "hopping-c4/sweep",
            Scenario::hopping(HoppingSpec::new(12, 1_500))
                .channels(4)
                .adversary(StrategySpec::ChannelSweep { dwell: 5 })
                .carol_budget(300)
                .seed(5)
                .build()
                .unwrap(),
        ),
        (
            "epoch-hopping-c4/blanket-traced",
            epoch(StrategySpec::SplitUniform).trace(16).build().unwrap(),
        ),
        ("epoch-hopping-c4/random", after_jam.clone()),
        (
            "epoch-hopping-c4/blanket",
            epoch(StrategySpec::SplitUniform).build().unwrap(),
        ),
        ("epoch-hopping-c4/random", after_jam),
    ];
    let mut scratch = ScenarioScratch::new();
    for pass in 0..2u64 {
        for (label, scenario) in &combos {
            let seed = 1_234 + pass;
            let reused = scenario.run_in(&mut scratch, seed);
            let fresh = scenario.run_seeded(seed);
            assert_identical(&fresh, &reused, label);
            assert_eq!(
                fresh.channel_stats, reused.channel_stats,
                "{label}: channel stats must survive scratch reuse"
            );
        }
    }
}

#[test]
fn worker_count_override_never_changes_outcomes() {
    // run_batch results are defined by derived per-trial seeds, not by
    // scheduling: any thread override (builder knob) must reproduce the
    // default-pool outcomes exactly.
    let build = |threads: Option<usize>| {
        let mut b = Scenario::hopping(HoppingSpec::new(16, 2_000))
            .channels(4)
            .adversary(StrategySpec::Adaptive {
                window: 8,
                reactivity: 0.5,
            })
            .carol_budget(400)
            .seed(11);
        if let Some(workers) = threads {
            b = b.threads(workers);
        }
        b.build().unwrap()
    };
    let reference = build(None).run_batch(5);
    for threads in [1usize, 2, 5] {
        let overridden = build(Some(threads)).run_batch(5);
        assert_eq!(overridden.len(), reference.len());
        for (a, b) in overridden.iter().zip(&reference) {
            assert_identical(a, b, &format!("threads={threads}"));
        }
    }
}

#[test]
fn sweep_sharding_is_invisible_at_any_worker_count_and_shard_size() {
    use evildoers::sweep::{
        CellStats, Metric, ResultCache, ScenarioSpec, StopRule, SweepConfig, SweepService,
        SweepSpec, TrialMetrics,
    };
    // The sweep service's acceptance bar: per-cell aggregates must be
    // byte-identical to a sequential `run_batch` pass over the same
    // seeds, no matter how the trials were sharded across workers. A
    // zero half-width target on a noisy metric never triggers early
    // stopping, so every configuration runs exactly max_trials.
    let trials: u32 = 13; // deliberately not a multiple of any shard size
    let cells = vec![
        ScenarioSpec::hopping(HoppingSpec::new(12, 1_500))
            .channels(4)
            .adversary(StrategySpec::SplitUniform)
            .carol_budget(300)
            .seed(21),
        ScenarioSpec::hopping(HoppingSpec::new(12, 1_500))
            .channels(2)
            .adversary(StrategySpec::ChannelLagged)
            .carol_budget(300)
            .seed(22),
    ];
    let rule = StopRule::new(Metric::NodeTotalCost, 0.0).trials(trials, trials, trials);

    // Sequential reference: run_batch outcomes folded in trial order.
    let reference: Vec<CellStats> = cells
        .iter()
        .map(|cell| {
            let mut stats = CellStats::new();
            for outcome in cell.build().unwrap().run_batch(trials) {
                stats.push(&TrialMetrics::from_outcome(&outcome));
            }
            stats
        })
        .collect();

    for workers in [1usize, 2, 5] {
        for shard_size in [1u32, 3, 16] {
            let service = SweepService::new(
                SweepConfig {
                    workers: Some(workers),
                    shard_size,
                },
                ResultCache::in_memory(),
            );
            let report = service
                .submit(&SweepSpec::new(cells.clone(), rule))
                .unwrap();
            for (cell, expected) in report.cells.iter().zip(&reference) {
                assert_eq!(cell.trials, u64::from(trials));
                assert_eq!(
                    &cell.stats,
                    expected,
                    "workers={workers} shard={shard_size}: sweep aggregate must be \
                     byte-identical to the sequential pass for {}",
                    cell.spec.label()
                );
            }
        }
    }
}

#[test]
fn epoch_hopping_and_kpsy_batches_are_worker_count_invariant() {
    // The PR-8 rosters join the same scheduling-invariance bar: batch
    // outcomes are defined by derived per-trial seeds, not by how the
    // worker pool interleaved them — for the era-2 epoch-hopping SoA
    // driver and for the slot-level KPSY roster alike.
    type ScenarioBuild = Box<dyn Fn(Option<usize>) -> Scenario>;
    let builds: Vec<(&str, ScenarioBuild)> = vec![
        (
            "epoch-hopping-c4",
            Box::new(|threads| {
                let mut b = Scenario::epoch_hopping(EpochHoppingSpec::new(16, 2_000, 32))
                    .channels(4)
                    .adversary(StrategySpec::ChannelSweep { dwell: 32 })
                    .carol_budget(400)
                    .seed(17);
                if let Some(workers) = threads {
                    b = b.threads(workers);
                }
                b.build().unwrap()
            }),
        ),
        (
            "kpsy",
            Box::new(|threads| {
                let mut b = Scenario::kpsy(KpsySpec {
                    n: 12,
                    horizon: 2_000,
                })
                .adversary(StrategySpec::Continuous)
                .carol_budget(500)
                .seed(17);
                if let Some(workers) = threads {
                    b = b.threads(workers);
                }
                b.build().unwrap()
            }),
        ),
    ];
    for (label, build) in &builds {
        let reference = build(None).run_batch(5);
        for threads in [1usize, 2, 5] {
            let overridden = build(Some(threads)).run_batch(5);
            assert_eq!(overridden.len(), reference.len());
            for (a, b) in overridden.iter().zip(&reference) {
                assert_identical(a, b, &format!("{label} threads={threads}"));
            }
        }
    }
}

#[test]
fn era2_broadcast_batches_are_worker_count_invariant() {
    // The sleep-skipping broadcast engine processes nodes in wake order,
    // not roster order; this must stay invisible to batch scheduling.
    let build = |threads: Option<usize>| {
        let mut b = Scenario::broadcast(Params::builder(64).max_round_margin(3).build().unwrap())
            .adversary(StrategySpec::Spoof(0.8))
            .carol_budget(1_500)
            .seed(23);
        if let Some(workers) = threads {
            b = b.threads(workers);
        }
        b.build().unwrap()
    };
    let reference = build(None).run_batch(4);
    for threads in [1usize, 3] {
        let overridden = build(Some(threads)).run_batch(4);
        for (a, b) in overridden.iter().zip(&reference) {
            assert_identical(a, b, &format!("era2 broadcast threads={threads}"));
        }
    }
}

#[test]
fn different_seeds_actually_differ() {
    let params = Params::builder(32).build().unwrap();
    let outcomes: Vec<_> = (0..4)
        .map(|seed| {
            Scenario::broadcast(params.clone())
                .seed(seed)
                .build()
                .unwrap()
                .run()
        })
        .collect();
    let all_same_costs = outcomes
        .windows(2)
        .all(|w| w[0].broadcast.node_total_cost == w[1].broadcast.node_total_cost);
    assert!(!all_same_costs, "distinct seeds should perturb the runs");
}

#[test]
fn figure_one_and_figure_two_variants_both_run() {
    for variant in [Variant::K2Paper, Variant::GeneralK] {
        let params = Params::builder(32).variant(variant).build().unwrap();
        let o = Scenario::broadcast(params).seed(11).build().unwrap().run();
        assert!(
            o.informed_fraction() > 0.9,
            "{variant:?} quiet delivery failed"
        );
        assert!(o.completed(), "{variant:?} must terminate cleanly");
    }
}

#[test]
fn k3_protocol_with_two_propagation_steps_delivers() {
    let params = Params::builder(32).k(3).build().unwrap();
    assert_eq!(params.propagation_steps(), 2);
    let o = Scenario::broadcast(params).seed(13).build().unwrap().run();
    assert!(o.informed_fraction() > 0.9);
    assert!(o.completed());
}
