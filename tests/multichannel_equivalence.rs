//! The `C = 1` equivalence guarantee, pinned against era-scoped
//! fingerprints.
//!
//! Every expected value in this file was captured at the introduction of
//! **engine era 2** (SoA rosters, counter-based RNG, sleep-skipping —
//! the same bump that swapped the vendored `rand` and re-keyed
//! `rcb-sweep`'s `ENGINE_ERA`). Within an era these pins are frozen: a
//! failing assertion means the seeded outcome streams drifted without an
//! era bump, which is a correctness regression, not a baseline to
//! refresh. A deliberate era bump recaptures the whole file at once.
//!
//! Era-independent *structural* invariants ride along and survive any
//! re-pinning: `channels(1)` is byte-identical to the implicit
//! single-channel default, per-channel accounting reconciles with the
//! pooled totals, and at `C = 1` the adaptive jammer degenerates to the
//! single-channel lagged jammer bit-for-bit.
//!
//! A second family of fingerprints pins the *adversary* behaviour of the
//! channel-aware strategies (`Adaptive`, `ChannelLagged`) at fixed seeds,
//! captured when the adaptive adversary subsystem was introduced: future
//! refactors of the adversary stack cannot silently change what these
//! jammers do.
//!
//! This file is part of the `slow-tests` tier (on by default; CI's fast
//! lane skips it with `--no-default-features`).

#![cfg(feature = "slow-tests")]

use evildoers::adversary::StrategySpec;
use evildoers::core::Params;
use evildoers::radio::CostBreakdown;
use evildoers::sim::{
    Engine, EpidemicSpec, HoppingSpec, KsySpec, NaiveSpec, Scenario, ScenarioOutcome,
};

/// One pre-refactor outcome fingerprint.
struct Fingerprint {
    slots: u64,
    informed: u64,
    alice: (u64, u64, u64),
    nodes: (u64, u64, u64),
    carol: (u64, u64, u64),
    max_node: Option<u64>,
    rounds: u32,
}

fn assert_fingerprint(label: &str, outcome: &ScenarioOutcome, expected: &Fingerprint) {
    let cost = |(sends, listens, jams): (u64, u64, u64)| CostBreakdown {
        sends,
        listens,
        jams,
    };
    assert_eq!(outcome.slots, expected.slots, "{label}: slots");
    assert_eq!(
        outcome.informed_nodes, expected.informed,
        "{label}: informed"
    );
    assert_eq!(
        outcome.alice_cost,
        cost(expected.alice),
        "{label}: alice cost"
    );
    assert_eq!(
        outcome.node_total_cost,
        cost(expected.nodes),
        "{label}: node cost"
    );
    assert_eq!(
        outcome.carol_cost,
        cost(expected.carol),
        "{label}: carol cost"
    );
    assert_eq!(
        outcome.max_node_cost, expected.max_node,
        "{label}: max node"
    );
    assert_eq!(outcome.rounds_entered, expected.rounds, "{label}: rounds");
}

fn params(n: u64) -> Params {
    Params::builder(n).build().unwrap()
}

#[test]
fn broadcast_exact_matches_pre_refactor_continuous() {
    let outcome = Scenario::broadcast(params(48))
        .channels(1)
        .adversary(StrategySpec::Continuous)
        .carol_budget(1_500)
        .seed(42)
        .build()
        .unwrap()
        .run();
    assert_fingerprint(
        "continuous",
        &outcome,
        &Fingerprint {
            slots: 6724,
            informed: 48,
            alice: (1425, 1069, 0),
            nodes: (2260, 86755, 0),
            carol: (0, 0, 1500),
            max_node: Some(1888),
            rounds: 8,
        },
    );
    // The per-channel accounting reconciles with the pooled totals.
    let stats = outcome.channel_stats.as_ref().unwrap();
    assert_eq!(stats.len(), 1);
    assert_eq!(stats[0].jammed_slots, 1500);
    assert_eq!(stats[0].correct_sends, 1425 + 2260);
    assert_eq!(stats[0].correct_listens, 1069 + 86755);
}

#[test]
fn broadcast_exact_matches_pre_refactor_lagged_reactive() {
    let outcome = Scenario::broadcast(params(48))
        .channels(1)
        .adversary(StrategySpec::LaggedReactive)
        .carol_budget(800)
        .seed(7)
        .build()
        .unwrap()
        .run();
    assert_fingerprint(
        "lagged",
        &outcome,
        &Fingerprint {
            slots: 2377,
            informed: 48,
            alice: (752, 661, 0),
            nodes: (2, 48, 0),
            carol: (0, 0, 754),
            max_node: Some(2),
            rounds: 7,
        },
    );
}

#[test]
fn broadcast_exact_matches_pre_refactor_n_uniform_extraction() {
    let outcome = Scenario::broadcast(params(48))
        .channels(1)
        .adversary(StrategySpec::Extract(5))
        .carol_budget(3_000)
        .seed(11)
        .build()
        .unwrap()
        .run();
    assert_fingerprint(
        "extract",
        &outcome,
        &Fingerprint {
            slots: 6724,
            informed: 48,
            alice: (1423, 1081, 0),
            nodes: (2029, 138635, 0),
            carol: (0, 0, 3000),
            max_node: Some(3309),
            rounds: 8,
        },
    );
}

#[test]
fn broadcast_exact_matches_pre_refactor_spoofing() {
    let outcome = Scenario::broadcast(params(48))
        .channels(1)
        .adversary(StrategySpec::Spoof(1.0))
        .carol_budget(2_000)
        .seed(13)
        .build()
        .unwrap()
        .run();
    assert_fingerprint(
        "spoof",
        &outcome,
        &Fingerprint {
            slots: 19012,
            informed: 48,
            alice: (2398, 1451, 0),
            nodes: (6, 48, 0),
            carol: (2000, 0, 0),
            max_node: Some(2),
            rounds: 8,
        },
    );
}

#[test]
fn broadcast_fast_matches_pre_refactor_random_jamming() {
    let outcome = Scenario::broadcast(params(1 << 12))
        .engine(Engine::Fast)
        .channels(1)
        .adversary(StrategySpec::Random(0.4))
        .carol_budget(5_000)
        .seed(21)
        .build()
        .unwrap()
        .run();
    assert_fingerprint(
        "fast-random",
        &outcome,
        &Fingerprint {
            slots: 152073,
            informed: 4096,
            alice: (21513, 4154, 0),
            nodes: (9, 57344, 0),
            carol: (0, 0, 5000),
            max_node: None,
            rounds: 10,
        },
    );
}

#[test]
fn naive_baseline_matches_pre_refactor_bursty_jamming() {
    let outcome = Scenario::naive(NaiveSpec { n: 8, horizon: 400 })
        .channels(1)
        .adversary(StrategySpec::Bursty { burst: 16, gap: 16 })
        .carol_budget(150)
        .seed(5)
        .build()
        .unwrap()
        .run();
    assert_fingerprint(
        "naive-bursty",
        &outcome,
        &Fingerprint {
            slots: 401,
            informed: 8,
            alice: (400, 0, 0),
            nodes: (0, 136, 0),
            carol: (0, 0, 150),
            max_node: Some(17),
            rounds: 0,
        },
    );
}

#[test]
fn epidemic_baseline_matches_pre_refactor_random_jamming() {
    let outcome = Scenario::epidemic(EpidemicSpec::new(16, 3_000))
        .channels(1)
        .adversary(StrategySpec::Random(0.5))
        .carol_budget(700)
        .seed(3)
        .build()
        .unwrap()
        .run();
    assert_fingerprint(
        "epidemic-random",
        &outcome,
        &Fingerprint {
            slots: 3001,
            informed: 16,
            alice: (1514, 0, 0),
            nodes: (3009, 180, 0),
            carol: (0, 0, 700),
            max_node: Some(221),
            rounds: 0,
        },
    );
}

#[test]
fn ksy_matches_pre_refactor_continuous_jamming() {
    let outcome = Scenario::ksy(KsySpec::default())
        .channels(1)
        .adversary(StrategySpec::Continuous)
        .carol_budget(9_000)
        .seed(2)
        .build()
        .unwrap()
        .run();
    assert_fingerprint(
        "ksy-continuous",
        &outcome,
        &Fingerprint {
            slots: 14345,
            informed: 1,
            alice: (757, 0, 0),
            nodes: (0, 703, 0),
            carol: (0, 0, 9000),
            max_node: Some(703),
            rounds: 13,
        },
    );
}

fn hopping_outcome(spec: StrategySpec, channels: u16, budget: u64, seed: u64) -> ScenarioOutcome {
    Scenario::hopping(HoppingSpec::new(24, 6_000))
        .channels(channels)
        .adversary(spec)
        .carol_budget(budget)
        .seed(seed)
        .build()
        .unwrap()
        .run()
}

#[test]
fn hopping_c4_adaptive_matches_pinned_fingerprint() {
    let outcome = hopping_outcome(
        StrategySpec::Adaptive {
            window: 8,
            reactivity: 0.5,
        },
        4,
        1_200,
        77,
    );
    assert_fingerprint(
        "hopping-adaptive-c4",
        &outcome,
        &Fingerprint {
            slots: 6001,
            informed: 24,
            alice: (3049, 0, 0),
            nodes: (6035, 131, 0),
            carol: (0, 0, 1200),
            max_node: Some(284),
            rounds: 0,
        },
    );
    assert_eq!(
        outcome.jam_slots_by_channel(),
        vec![287, 310, 284, 319],
        "the adaptive jam split over channels is pinned"
    );
}

#[test]
fn hopping_c4_channel_lagged_matches_pinned_fingerprint() {
    let outcome = hopping_outcome(StrategySpec::ChannelLagged, 4, 1_200, 77);
    assert_fingerprint(
        "hopping-lagged-c4",
        &outcome,
        &Fingerprint {
            slots: 6001,
            informed: 24,
            alice: (3049, 0, 0),
            nodes: (6030, 135, 0),
            carol: (0, 0, 1200),
            max_node: Some(284),
            rounds: 0,
        },
    );
    assert_eq!(outcome.jam_slots_by_channel(), vec![287, 307, 289, 317]);
}

#[test]
fn devirtualized_path_reproduces_pinned_fingerprints_under_scratch_reuse() {
    // Per-worker scratch reuse and the single-thread batch override
    // must be invisible: repeated runs through ONE ScenarioScratch, and a
    // threads(1) run_batch, all land on the exact fingerprints pinned
    // when the adversary subsystem was introduced — across protocol ×
    // adversary × C ∈ {1, 4}.
    use evildoers::sim::ScenarioScratch;
    let adaptive_c4 = Scenario::hopping(HoppingSpec::new(24, 6_000))
        .channels(4)
        .adversary(StrategySpec::Adaptive {
            window: 8,
            reactivity: 0.5,
        })
        .carol_budget(1_200)
        .seed(77)
        .threads(1)
        .build()
        .unwrap();
    let lagged_c4 = Scenario::hopping(HoppingSpec::new(24, 6_000))
        .channels(4)
        .adversary(StrategySpec::ChannelLagged)
        .carol_budget(1_200)
        .seed(77)
        .build()
        .unwrap();
    let continuous_c1 = Scenario::broadcast(params(48))
        .channels(1)
        .adversary(StrategySpec::Continuous)
        .carol_budget(1_500)
        .seed(42)
        .build()
        .unwrap();

    let expected_adaptive = Fingerprint {
        slots: 6001,
        informed: 24,
        alice: (3049, 0, 0),
        nodes: (6035, 131, 0),
        carol: (0, 0, 1200),
        max_node: Some(284),
        rounds: 0,
    };
    let expected_lagged = Fingerprint {
        slots: 6001,
        informed: 24,
        alice: (3049, 0, 0),
        nodes: (6030, 135, 0),
        carol: (0, 0, 1200),
        max_node: Some(284),
        rounds: 0,
    };
    let expected_continuous = Fingerprint {
        slots: 6724,
        informed: 48,
        alice: (1425, 1069, 0),
        nodes: (2260, 86755, 0),
        carol: (0, 0, 1500),
        max_node: Some(1888),
        rounds: 8,
    };

    // One shared scratch, interleaving spectra and protocol families,
    // two passes: reuse must not drift.
    let mut scratch = ScenarioScratch::new();
    for pass in 0..2 {
        let label = |name: &str| format!("{name} (scratch pass {pass})");
        let outcome = adaptive_c4.run_in(&mut scratch, 77);
        assert_fingerprint(&label("adaptive-c4"), &outcome, &expected_adaptive);
        assert_eq!(outcome.jam_slots_by_channel(), vec![287, 310, 284, 319]);
        let outcome = continuous_c1.run_in(&mut scratch, 42);
        assert_fingerprint(&label("continuous-c1"), &outcome, &expected_continuous);
        let outcome = lagged_c4.run_in(&mut scratch, 77);
        assert_fingerprint(&label("lagged-c4"), &outcome, &expected_lagged);
    }

    // Single-threaded batch execution: same worker scratch across both
    // trials, same fingerprint (trial 0's derived seed differs from the
    // master-seed run, so pin via two identical scenarios instead).
    let batch = adaptive_c4.run_batch(2);
    assert_eq!(batch.len(), 2);
    for (i, outcome) in batch.iter().enumerate() {
        let reference = adaptive_c4.run_seeded(outcome.seed);
        assert_fingerprint(
            &format!("adaptive-c4 batch[{i}]"),
            outcome,
            &Fingerprint {
                slots: reference.slots,
                informed: reference.informed_nodes,
                alice: (
                    reference.alice_cost.sends,
                    reference.alice_cost.listens,
                    reference.alice_cost.jams,
                ),
                nodes: (
                    reference.node_total_cost.sends,
                    reference.node_total_cost.listens,
                    reference.node_total_cost.jams,
                ),
                carol: (
                    reference.carol_cost.sends,
                    reference.carol_cost.listens,
                    reference.carol_cost.jams,
                ),
                max_node: reference.max_node_cost,
                rounds: reference.rounds_entered,
            },
        );
        assert_eq!(
            outcome.broadcast.node_costs, reference.broadcast.node_costs,
            "batch[{i}] per-node costs must match the solo replay"
        );
    }
}

#[test]
fn hopping_c1_adaptive_is_byte_identical_to_lagged_jammer() {
    // The degeneracy acceptance bound: at C = 1 with matched seeds the
    // adaptive jammer *is* the single-channel LaggedJammer. Both runs
    // must land on this pinned fingerprint — equal to each other and to
    // the value captured when the adaptive subsystem was introduced.
    let expected = Fingerprint {
        slots: 6001,
        informed: 24,
        alice: (2967, 0, 0),
        nodes: (5990, 155, 0),
        carol: (0, 0, 600),
        max_node: Some(283),
        rounds: 0,
    };
    let adaptive = hopping_outcome(
        StrategySpec::Adaptive {
            window: 1,
            reactivity: 1.0,
        },
        1,
        600,
        31,
    );
    let lagged = hopping_outcome(StrategySpec::LaggedReactive, 1, 600, 31);
    assert_fingerprint("hopping-adaptive-c1", &adaptive, &expected);
    assert_fingerprint("hopping-lagged-c1", &lagged, &expected);
    assert_eq!(adaptive.broadcast.node_costs, lagged.broadcast.node_costs);
    assert_eq!(adaptive.jam_slots_by_channel(), vec![600]);
    assert_eq!(lagged.jam_slots_by_channel(), vec![600]);
}

#[test]
fn batched_trials_match_pre_refactor_seed_derivation() {
    let scenario = Scenario::broadcast(params(32))
        .channels(1)
        .adversary(StrategySpec::Continuous)
        .carol_budget(900)
        .seed(99)
        .build()
        .unwrap();
    let batch = scenario.run_batch(4);
    assert_fingerprint(
        "batch[3]",
        &batch[3],
        &Fingerprint {
            slots: 2377,
            informed: 32,
            alice: (663, 645, 0),
            nodes: (810, 24181, 0),
            carol: (0, 0, 900),
            max_node: Some(799),
            rounds: 7,
        },
    );
}

#[test]
fn epoch_hopping_c4_sweep_matches_pinned_fingerprint() {
    // The epoch-structured schedule under its resonant sweeper
    // (dwell = L = 32): captured when the family was introduced, on the
    // era-2 exact engine.
    use evildoers::sim::EpochHoppingSpec;
    let outcome = Scenario::epoch_hopping(EpochHoppingSpec::new(24, 6_000, 32))
        .channels(4)
        .adversary(StrategySpec::ChannelSweep { dwell: 32 })
        .carol_budget(1_200)
        .seed(77)
        .build()
        .unwrap()
        .run();
    assert_fingerprint(
        "epoch-hopping-sweep-c4",
        &outcome,
        &Fingerprint {
            slots: 6001,
            informed: 24,
            alice: (3017, 0, 0),
            nodes: (6034, 470, 0),
            carol: (0, 0, 1200),
            max_node: Some(318),
            rounds: 0,
        },
    );
    assert_eq!(
        outcome.jam_slots_by_channel(),
        vec![320, 304, 288, 288],
        "the epoch-aligned sweep burns exactly dwell slots per channel visit"
    );
}

#[test]
fn kpsy_continuous_matches_pinned_fingerprint() {
    // The KPSY listening defense under continuous jamming — the family's
    // single-channel pin (the roster rejects C > 1 at build time), in
    // the same configuration budget-conservation tests run at.
    use evildoers::sim::KpsySpec;
    let outcome = Scenario::kpsy(KpsySpec {
        n: 12,
        horizon: 2_000,
    })
    .adversary(StrategySpec::Continuous)
    .carol_budget(600)
    .seed(31)
    .build()
    .unwrap()
    .run();
    assert_fingerprint(
        "kpsy-continuous",
        &outcome,
        &Fingerprint {
            slots: 2001,
            informed: 12,
            alice: (205, 0, 0),
            nodes: (828, 1292, 0),
            carol: (0, 0, 600),
            max_node: Some(193),
            rounds: 0,
        },
    );
    assert_eq!(outcome.jam_slots_by_channel(), vec![600]);
}

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

#[test]
fn kpsy_zoo_matches_pinned_digests() {
    // KPSY across the single-channel zoo: one FNV-1a digest per
    // (strategy, n) of the rendered outcomes (telemetry stripped),
    // folded over horizon × Carol budget × trace capacity × seed in this
    // fixed order — 540 runs. Captured on the per-participant roster
    // loop before KPSY moved onto the wake queue.
    use evildoers::sim::KpsySpec;
    const PINS: [(&str, u64, u64); 15] = [
        ("silent", 1, 0x7b17_4765_1f41_bc9b),
        ("silent", 12, 0xa293_d273_0c48_c54f),
        ("silent", 64, 0x0094_4880_11fe_a435),
        ("continuous", 1, 0xaa96_ba55_43c7_9de5),
        ("continuous", 12, 0xe75a_dbdb_ee4e_f153),
        ("continuous", 64, 0xe906_456d_a6df_37fb),
        ("random(p=0.5)", 1, 0x0cf1_636f_0bb8_026f),
        ("random(p=0.5)", 12, 0xde61_6555_04e8_769b),
        ("random(p=0.5)", 64, 0xc9d9_4706_f3a6_c9c5),
        ("bursty(16/48)", 1, 0x2b7a_40fc_8a8e_a1eb),
        ("bursty(16/48)", 12, 0x449c_d2ac_27a5_f00b),
        ("bursty(16/48)", 64, 0xbb49_75dc_c219_50dd),
        ("lagged-reactive", 1, 0x801f_62bd_e54f_6233),
        ("lagged-reactive", 12, 0x3d45_3856_16dd_5d9b),
        ("lagged-reactive", 64, 0x8ee1_05fd_12b9_23b9),
    ];
    let strategies = [
        StrategySpec::Silent,
        StrategySpec::Continuous,
        StrategySpec::Random(0.5),
        StrategySpec::Bursty { burst: 16, gap: 48 },
        StrategySpec::LaggedReactive,
    ];
    let mut actual = Vec::new();
    for strategy in strategies {
        for n in [1u64, 12, 64] {
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            for horizon in [0u64, 30, 1_022] {
                for budget in [None, Some(10u64), Some(600)] {
                    for trace in [0usize, 7] {
                        for seed in [1u64, 2] {
                            let mut builder = Scenario::kpsy(KpsySpec { n, horizon })
                                .adversary(strategy)
                                .seed(seed);
                            if let Some(units) = budget {
                                builder = builder.carol_budget(units);
                            }
                            if trace > 0 {
                                builder = builder.trace(trace);
                            }
                            let mut outcome = builder.build().unwrap().run();
                            outcome.telemetry = None;
                            hash = fnv1a(hash, format!("{outcome:?}").as_bytes());
                        }
                    }
                }
            }
            actual.push((strategy.name(), n, hash));
        }
    }
    let expected: Vec<(String, u64, u64)> = PINS
        .iter()
        .map(|&(name, n, hash)| (name.to_string(), n, hash))
        .collect();
    assert_eq!(actual, expected, "KPSY zoo digests drifted");
}

#[test]
fn epoch_hopping_slow_sweep_resonates_at_dwell_equal_to_epoch_length() {
    // The headline slow-lane claim from E17, pinned as a strict seeded
    // inequality: a sweeping jammer whose dwell equals the epoch length
    // L retunes exactly when the evaders do, and the noise-exclusion
    // redraw herds them *toward* its next target. Delivery drags, and
    // since uninformed nodes pay `listen_p` per slot until informed,
    // mean node cost — the latency integral — is strictly worse at
    // dwell = L than at dwell = L/4 (part-epoch jams barely delay
    // within-epoch rendezvous) or dwell = 4L (nodes evacuate the jammed
    // channel and stay out for epochs).
    use evildoers::sim::EpochHoppingSpec;
    const L: u64 = 32;
    let mean_cost = |dwell: u64| -> f64 {
        let outcomes = Scenario::epoch_hopping(EpochHoppingSpec::new(24, 48 * L, L))
            .channels(4)
            .adversary(StrategySpec::ChannelSweep { dwell })
            .carol_budget(48 * L)
            .seed(0xE17)
            .build()
            .unwrap()
            .run_batch(16);
        outcomes.iter().map(|o| o.mean_node_cost()).sum::<f64>() / outcomes.len() as f64
    };
    let short = mean_cost(L / 4);
    let resonant = mean_cost(L);
    let long = mean_cost(4 * L);
    assert!(
        resonant > short,
        "dwell = L ({resonant:.1}) must cost strictly more than dwell = L/4 ({short:.1})"
    );
    assert!(
        resonant > long,
        "dwell = L ({resonant:.1}) must cost strictly more than dwell = 4L ({long:.1})"
    );
}
