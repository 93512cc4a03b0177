//! Cross-validation: the phase-level fast simulator must agree
//! statistically with the exact slot engine — same delivery, same cost
//! scales — across quiet, jammed, and spoofed conditions. Both engines
//! run through the same `Scenario`, differing only in `.engine(..)`.
//!
//! A digest table pins the fast simulator itself — the phase kernel's
//! ε-BROADCAST recurrence — across the whole `phase_adversary` zoo and
//! four `Params` variants: outcomes and the telemetry each phase emits.

use std::sync::Arc;

use evildoers::adversary::StrategySpec;
use evildoers::core::{DecoyConfig, Params, SizeKnowledge};
use evildoers::rng::stats::RunningStats;
use evildoers::sim::{Engine, Scenario};
use evildoers::telemetry::{Collector, MetricId, RecordingCollector};

struct Agreement {
    exact_informed: RunningStats,
    fast_informed: RunningStats,
    exact_node_cost: RunningStats,
    fast_node_cost: RunningStats,
    exact_alice: RunningStats,
    fast_alice: RunningStats,
}

fn compare(spec: StrategySpec, n: u64, budget: Option<u64>, trials: u64, margin: u32) -> Agreement {
    let params = Params::builder(n).max_round_margin(margin).build().unwrap();
    let mut agg = Agreement {
        exact_informed: RunningStats::new(),
        fast_informed: RunningStats::new(),
        exact_node_cost: RunningStats::new(),
        fast_node_cost: RunningStats::new(),
        exact_alice: RunningStats::new(),
        fast_alice: RunningStats::new(),
    };
    let scenario_for = |engine: Engine| {
        let mut builder = Scenario::broadcast(params.clone())
            .engine(engine)
            .adversary(spec);
        if let Some(b) = budget {
            builder = builder.carol_budget(b);
        }
        builder.build().expect("valid on both engines")
    };
    let exact = scenario_for(Engine::Exact);
    let fast = scenario_for(Engine::Fast);
    for trial in 0..trials {
        let seed = 1000 + trial;
        let e = exact.run_seeded(seed);
        agg.exact_informed.push(e.informed_fraction());
        agg.exact_node_cost.push(e.mean_node_cost());
        agg.exact_alice.push(e.alice_cost.total() as f64);

        let f = fast.run_seeded(seed);
        agg.fast_informed.push(f.informed_fraction());
        agg.fast_node_cost.push(f.mean_node_cost());
        agg.fast_alice.push(f.alice_cost.total() as f64);
    }
    agg
}

fn assert_close(label: &str, a: f64, b: f64, rel_tol: f64, abs_tol: f64) {
    let diff = (a - b).abs();
    let scale = a.abs().max(b.abs()).max(1e-9);
    assert!(
        diff <= abs_tol + rel_tol * scale,
        "{label}: exact {a} vs fast {b} (diff {diff})"
    );
}

#[test]
fn quiet_runs_agree() {
    let agg = compare(StrategySpec::Silent, 64, None, 4, 2);
    assert_close(
        "informed fraction",
        agg.exact_informed.mean(),
        agg.fast_informed.mean(),
        0.02,
        0.02,
    );
    assert_close(
        "mean node cost",
        agg.exact_node_cost.mean(),
        agg.fast_node_cost.mean(),
        0.25,
        2.0,
    );
    assert_close(
        "alice cost",
        agg.exact_alice.mean(),
        agg.fast_alice.mean(),
        0.25,
        10.0,
    );
}

#[test]
fn continuous_jamming_agrees() {
    let agg = compare(StrategySpec::Continuous, 64, Some(2_000), 4, 3);
    assert_close(
        "informed fraction",
        agg.exact_informed.mean(),
        agg.fast_informed.mean(),
        0.05,
        0.05,
    );
    // Costs under jamming include clamped full-phase listening; both
    // engines must land on the same scale.
    assert_close(
        "mean node cost",
        agg.exact_node_cost.mean(),
        agg.fast_node_cost.mean(),
        0.3,
        5.0,
    );
    assert_close(
        "alice cost",
        agg.exact_alice.mean(),
        agg.fast_alice.mean(),
        0.3,
        20.0,
    );
}

#[test]
fn request_spoofing_agrees() {
    let agg = compare(StrategySpec::Spoof(1.0), 64, Some(3_000), 4, 3);
    assert_close(
        "informed fraction",
        agg.exact_informed.mean(),
        agg.fast_informed.mean(),
        0.05,
        0.05,
    );
    assert_close(
        "alice cost",
        agg.exact_alice.mean(),
        agg.fast_alice.mean(),
        0.35,
        20.0,
    );
}

#[test]
fn dissemination_blocking_agrees() {
    let agg = compare(StrategySpec::BlockDissemination(1.0), 64, Some(2_500), 4, 3);
    assert_close(
        "informed fraction",
        agg.exact_informed.mean(),
        agg.fast_informed.mean(),
        0.05,
        0.05,
    );
    assert_close(
        "mean node cost",
        agg.exact_node_cost.mean(),
        agg.fast_node_cost.mean(),
        0.3,
        5.0,
    );
}

/// The `phase_adversary` zoo: every strategy the fast simulator runs.
const FAST_ZOO: [StrategySpec; 10] = [
    StrategySpec::Silent,
    StrategySpec::Continuous,
    StrategySpec::Random(0.4),
    StrategySpec::Bursty { burst: 16, gap: 48 },
    StrategySpec::BlockDissemination(0.5),
    StrategySpec::BlockRequest(0.5),
    StrategySpec::BlockAll(0.5),
    StrategySpec::Extract(3),
    StrategySpec::Spoof(0.3),
    StrategySpec::Reactive,
];

/// The `Params` variants of the pin table, by name.
const FAST_PARAMS: [&str; 4] = ["plain", "decoys", "overestimate", "k3"];

fn fast_params(variant: &str, n: u64) -> Params {
    let builder = Params::builder(n);
    match variant {
        "plain" => builder,
        "decoys" => builder.decoys(DecoyConfig::recommended()),
        "overestimate" => {
            builder.size_knowledge(SizeKnowledge::PolynomialOverestimate { nu: n * n })
        }
        "k3" => builder.k(3),
        other => unreachable!("unknown params variant {other}"),
    }
    .build()
    .expect("valid params")
}

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// `fast_simulator_matches_pinned_digests`: (strategy, params variant,
/// outcome digest, telemetry digest), captured on `rcb_core::fast` while
/// it still ran its own phase loop behind its own adversary trait; the
/// fold into the phase kernel left every digest unchanged.
#[rustfmt::skip]
const FAST_PINS: [(&str, &str, u64, u64); 40] = [
    ("silent", "plain", 0x85d8_0c90_61ab_03dd, 0x88f9_dcb2_791b_b607),
    ("silent", "decoys", 0x1b19_fe02_397c_b176, 0xf25d_df7e_0802_072d),
    ("silent", "overestimate", 0x239e_5f54_45d8_347c, 0x46d2_06a9_57a2_3c7d),
    ("silent", "k3", 0x7e3d_f239_2020_37a8, 0x52be_3447_891c_2b57),
    ("continuous", "plain", 0x9a93_f45f_e344_09aa, 0x56f7_5eba_d24b_6bf3),
    ("continuous", "decoys", 0x63ec_b28d_a4c7_dd4c, 0x126c_748e_1cd9_4f0f),
    ("continuous", "overestimate", 0xffe2_4a63_4d5e_a194, 0xe72e_0aa0_1751_571a),
    ("continuous", "k3", 0xe965_fe7f_6ae3_7401, 0x5057_0ed8_d9c4_3b8c),
    ("random(p=0.4)", "plain", 0xc021_5973_fe96_f2d5, 0x9a04_05d2_213e_5dcb),
    ("random(p=0.4)", "decoys", 0x316a_0be1_c20b_dc39, 0xdc3c_3659_c8a0_4540),
    ("random(p=0.4)", "overestimate", 0xe744_10b0_5246_b861, 0xc5f4_63c8_20be_2f90),
    ("random(p=0.4)", "k3", 0x169a_2ed9_ff87_4cfb, 0xbc8d_25b6_92bd_c266),
    ("bursty(16/48)", "plain", 0x1941_0d1e_f8cd_0a95, 0xa0da_604d_7993_bdad),
    ("bursty(16/48)", "decoys", 0xbc45_fc12_18f6_5e0a, 0x3fc4_ab64_e4b3_59a1),
    ("bursty(16/48)", "overestimate", 0xdcdd_644c_5ffa_9fcc, 0xa0da_604d_7993_bdad),
    ("bursty(16/48)", "k3", 0xd96d_0df1_b94b_0e5c, 0x1f9a_c0b1_6f7f_2425),
    ("block-dissem(β=0.5)", "plain", 0xe95e_016d_d9c7_eb82, 0x9ec9_1399_915c_adc7),
    ("block-dissem(β=0.5)", "decoys", 0x083d_a855_dacf_8cd5, 0x60e4_6001_c78d_9621),
    ("block-dissem(β=0.5)", "overestimate", 0xda43_aca7_aeeb_0807, 0xd73c_5356_51e5_7b04),
    ("block-dissem(β=0.5)", "k3", 0xb349_0b62_b574_4d24, 0xea04_fbfc_535c_d56c),
    ("block-request(β=0.5)", "plain", 0xe122_a03f_1ffc_8be6, 0xc179_2ada_98a6_0fc5),
    ("block-request(β=0.5)", "decoys", 0x596a_391d_6a4a_d934, 0x05b2_2680_532b_fd57),
    ("block-request(β=0.5)", "overestimate", 0xbd58_c82d_c078_7a17, 0xb7c0_52cc_a675_016f),
    ("block-request(β=0.5)", "k3", 0x963b_ed7e_18a5_14ad, 0xbb2c_c4b5_8887_a1f5),
    ("block-all(β=0.5)", "plain", 0xb382_6f70_9473_4974, 0xafba_1d12_5c7e_b9a1),
    ("block-all(β=0.5)", "decoys", 0xc656_634a_f232_e987, 0x5437_0558_481c_8691),
    ("block-all(β=0.5)", "overestimate", 0xae78_999b_edd3_d0f5, 0x7aea_0125_bd70_9c41),
    ("block-all(β=0.5)", "k3", 0x1f70_6bb1_02cb_4093, 0x0ca1_cb9f_43d4_0d5a),
    ("extract(x=3)", "plain", 0x81b9_d795_d273_defb, 0x0edf_aede_3526_d66d),
    ("extract(x=3)", "decoys", 0xf565_3528_591d_09ce, 0xc4c8_8d7d_8ae0_5f33),
    ("extract(x=3)", "overestimate", 0x8af0_debc_8150_83e4, 0xef2f_414a_6e28_07b6),
    ("extract(x=3)", "k3", 0x2629_2d0f_d665_4896, 0x4bfa_4097_7852_def4),
    ("spoof(rate=0.3)", "plain", 0x8b9f_ff7a_9d66_e753, 0xe50d_1d92_7919_f675),
    ("spoof(rate=0.3)", "decoys", 0x3c65_16c6_14e4_a4d5, 0x4967_209b_d151_f42b),
    ("spoof(rate=0.3)", "overestimate", 0x58a2_e6e8_efc8_419f, 0xa7c9_86bb_1308_f833),
    ("spoof(rate=0.3)", "k3", 0x2d7c_55cd_593c_d2f3, 0x1286_7ac1_ba73_b5d4),
    ("reactive", "plain", 0x1ea2_e51d_29c7_8e66, 0x5dbc_c287_3f2e_fc73),
    ("reactive", "decoys", 0x9053_db61_df2e_ebb8, 0x479c_bb70_4131_9927),
    ("reactive", "overestimate", 0x1d41_35cb_be0a_54b0, 0x96bd_6967_53f1_4dcb),
    ("reactive", "k3", 0xf80a_e84c_bcd8_b8bc, 0x7adb_7ffb_d5ba_b0be),
];

#[test]
fn fast_simulator_matches_pinned_digests() {
    // One entry per (strategy, params variant): an FNV-1a digest of the
    // rendered outcomes (telemetry stripped) and one of what an attached
    // recording collector saw (the `Fast*` counters and gauges and the
    // per-phase event log), each folded over n × Carol budget × seed in
    // this fixed order — 720 runs in all.
    let fast_counters = [
        MetricId::FastPhases,
        MetricId::FastInformed,
        MetricId::FastJamRequested,
        MetricId::FastJamExecuted,
    ];
    let mut actual = Vec::new();
    for strategy in FAST_ZOO {
        for variant in FAST_PARAMS {
            let (mut outcomes, mut telemetry) =
                (0xcbf2_9ce4_8422_2325u64, 0xcbf2_9ce4_8422_2325u64);
            for n in [64u64, 4_096, 1 << 16] {
                for budget in [None, Some(500u64), Some(20_000)] {
                    for seed in [1u64, 2] {
                        let collector = Arc::new(RecordingCollector::new());
                        let mut builder = Scenario::broadcast(fast_params(variant, n))
                            .engine(Engine::Fast)
                            .adversary(strategy)
                            .telemetry(collector.clone())
                            .seed(seed);
                        if let Some(units) = budget {
                            builder = builder.carol_budget(units);
                        }
                        let mut outcome = builder.build().expect("valid fast cell").run();
                        outcome.telemetry = None;
                        outcomes = fnv1a(outcomes, format!("{outcome:?}").as_bytes());
                        let snapshot = collector.snapshot().expect("recording collector");
                        let counters = fast_counters.map(|id| collector.counter(id));
                        let gauges = [MetricId::FastRendezvousP, MetricId::FastSurviveP]
                            .map(|id| snapshot.gauge(id));
                        telemetry = fnv1a(telemetry, format!("{counters:?}{gauges:?}").as_bytes());
                        for event in &snapshot.events {
                            telemetry = fnv1a(telemetry, format!("{event:?}").as_bytes());
                        }
                    }
                }
            }
            actual.push((strategy.name(), variant, outcomes, telemetry));
        }
    }
    let expected: Vec<_> = FAST_PINS
        .iter()
        .map(|&(name, variant, o, t)| (name.to_string(), variant, o, t))
        .collect();
    assert_eq!(actual, expected, "fast simulator digests drifted");
}
