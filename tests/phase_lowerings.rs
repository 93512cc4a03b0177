//! Cross-validation of the PR-10 phase lowerings: `Random`, `Bursty`,
//! and `LaggedReactive` now run on the phase-level hopping engine
//! (`fast_mc`), and the whole schedule-free zoo runs on the fluid tier.
//! The statistical suites here hold the new lowerings to the same bar
//! `tests/fast_mc_vs_exact.rs` set for the original zoo: same delivery,
//! same cost scales, same budget accounting as the exact slot engine at
//! `C ∈ {1, 4}`, with only `.engine(..)` differing.
//!
//! The fluid tier has no RNG at all, so its entries are exact rather
//! than statistical: pinned fingerprints plus determinism and
//! worker-invariance checks (every trial of a batch is the same
//! trajectory, no matter how it was scheduled).
//!
//! A digest table pins all four phase loops — both hopping schedules,
//! sampled and in expectation — across the schedule-free zoo: outcomes,
//! channel stats and what an attached collector records. The same runs
//! hold every per-channel column to its ledger total.

use std::sync::Arc;

use evildoers::adversary::StrategySpec;
use evildoers::radio::ChannelStats;
use evildoers::rng::stats::RunningStats;
use evildoers::sim::{Engine, EpochHoppingSpec, HoppingSpec, Scenario, ScenarioOutcome};
use evildoers::telemetry::{Collector, MetricId, RecordingCollector};

struct Agreement {
    exact_informed: RunningStats,
    fast_informed: RunningStats,
    exact_node_cost: RunningStats,
    fast_node_cost: RunningStats,
    exact_carol: RunningStats,
    fast_carol: RunningStats,
}

fn compare(
    spec: StrategySpec,
    channels: u16,
    n: u64,
    horizon: u64,
    budget: Option<u64>,
    trials: u64,
) -> Agreement {
    let mut agg = Agreement {
        exact_informed: RunningStats::new(),
        fast_informed: RunningStats::new(),
        exact_node_cost: RunningStats::new(),
        fast_node_cost: RunningStats::new(),
        exact_carol: RunningStats::new(),
        fast_carol: RunningStats::new(),
    };
    let scenario_for = |engine: Engine| {
        let mut builder = Scenario::hopping(HoppingSpec::new(n, horizon))
            .engine(engine)
            .channels(channels)
            .adversary(spec);
        if let Some(b) = budget {
            builder = builder.carol_budget(b);
        }
        builder.build().expect("valid on both engines")
    };
    let exact = scenario_for(Engine::Exact);
    let fast = scenario_for(Engine::Fast);
    for trial in 0..trials {
        let seed = 7_000 + trial;
        let e = exact.run_seeded(seed);
        agg.exact_informed.push(e.informed_fraction());
        agg.exact_node_cost.push(e.mean_node_cost());
        agg.exact_carol.push(e.carol_spend() as f64);

        let f = fast.run_seeded(seed);
        agg.fast_informed.push(f.informed_fraction());
        agg.fast_node_cost.push(f.mean_node_cost());
        agg.fast_carol.push(f.carol_spend() as f64);
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

fn assert_agreement(label: &str, agg: &Agreement) {
    assert_close(
        &format!("{label}: informed fraction"),
        agg.exact_informed.mean(),
        agg.fast_informed.mean(),
        0.05,
        0.05,
    );
    assert_close(
        &format!("{label}: mean node cost"),
        agg.exact_node_cost.mean(),
        agg.fast_node_cost.mean(),
        0.20,
        2.0,
    );
    assert_close(
        &format!("{label}: carol spend"),
        agg.exact_carol.mean(),
        agg.fast_carol.mean(),
        0.05,
        2.0,
    );
}

#[test]
fn random_jamming_agrees_at_c1() {
    let agg = compare(StrategySpec::Random(0.5), 1, 96, 2_000, Some(800), 5);
    assert_agreement("random(0.5) C=1", &agg);
}

#[test]
fn random_jamming_agrees_at_c4() {
    // Budget binds on both engines (the exact engine stops spending at
    // full delivery, so an unconstrained comparison would measure the
    // stopping time, not the lowering).
    let agg = compare(StrategySpec::Random(0.5), 4, 96, 2_500, Some(1_000), 5);
    assert_agreement("random(0.5) C=4", &agg);
}

#[test]
fn bursty_jamming_agrees_at_c1() {
    let agg = compare(
        StrategySpec::Bursty { burst: 64, gap: 64 },
        1,
        96,
        2_000,
        Some(1_200),
        5,
    );
    assert_agreement("bursty(64/64) C=1", &agg);
}

#[test]
fn bursty_jamming_agrees_at_c4() {
    // A burst length that straddles phase boundaries: the lowering's
    // exact interval accounting (not a density approximation) is what
    // keeps the carol tolerance this tight.
    let agg = compare(
        StrategySpec::Bursty { burst: 48, gap: 80 },
        4,
        96,
        2_500,
        Some(800),
        5,
    );
    assert_agreement("bursty(48/80) C=4", &agg);
}

#[test]
fn lagged_reactive_jamming_agrees_at_c1() {
    let agg = compare(StrategySpec::LaggedReactive, 1, 96, 2_000, Some(1_500), 5);
    // The lagged lowering is statistical (expected union-activity
    // pacing rather than per-slot detection), so the cost bands are
    // wider than for the oblivious lowerings — same policy as the
    // adaptive suite in fast_mc_vs_exact.
    assert_close(
        "lagged C=1: informed fraction",
        agg.exact_informed.mean(),
        agg.fast_informed.mean(),
        0.05,
        0.05,
    );
    assert_close(
        "lagged C=1: mean node cost",
        agg.exact_node_cost.mean(),
        agg.fast_node_cost.mean(),
        0.30,
        2.0,
    );
    assert_close(
        "lagged C=1: carol spend",
        agg.exact_carol.mean(),
        agg.fast_carol.mean(),
        0.10,
        10.0,
    );
}

#[test]
fn lagged_reactive_jamming_agrees_at_c4() {
    let agg = compare(StrategySpec::LaggedReactive, 4, 96, 2_500, Some(2_000), 5);
    assert_close(
        "lagged C=4: informed fraction",
        agg.exact_informed.mean(),
        agg.fast_informed.mean(),
        0.05,
        0.05,
    );
    assert_close(
        "lagged C=4: mean node cost",
        agg.exact_node_cost.mean(),
        agg.fast_node_cost.mean(),
        0.30,
        2.0,
    );
    assert_close(
        "lagged C=4: carol spend",
        agg.exact_carol.mean(),
        agg.fast_carol.mean(),
        0.10,
        10.0,
    );
}

fn fingerprint(o: &ScenarioOutcome) -> (u64, u64, u64, u64, Vec<u64>) {
    (
        o.informed_nodes,
        o.broadcast.node_total_cost.sends,
        o.broadcast.node_total_cost.listens,
        o.carol_spend(),
        o.jam_slots_by_channel(),
    )
}

/// The fluid tier is deterministic by construction: the per-trial seed
/// feeds nothing, so every trial of a batch is the same trajectory and
/// scheduling can never show through.
#[test]
fn fluid_tier_is_deterministic_and_worker_invariant() {
    let build = |threads: Option<usize>| {
        let mut b = Scenario::hopping(HoppingSpec::new(4_096, 3_000))
            .engine(Engine::Fluid)
            .channels(4)
            .adversary(StrategySpec::Random(0.5))
            .carol_budget(2_000)
            .seed(11);
        if let Some(workers) = threads {
            b = b.threads(workers);
        }
        b.build().unwrap()
    };
    let scenario = build(None);
    let reference = scenario.run();
    assert_eq!(fingerprint(&scenario.run()), fingerprint(&reference));
    // Distinct seeds converge on the same expectation trajectory.
    assert_eq!(
        fingerprint(&scenario.run_seeded(999)),
        fingerprint(&reference)
    );
    for threads in [1usize, 2, 5] {
        let batch = build(Some(threads)).run_batch(4);
        assert_eq!(batch.len(), 4);
        for o in &batch {
            assert_eq!(
                fingerprint(o),
                fingerprint(&reference),
                "threads={threads}: fluid batch trial diverged"
            );
        }
    }
}

/// Pinned fluid-tier fingerprints. The engine has no RNG, so these are
/// plain runs (no slow-tests gate): any change to the recurrence, the
/// jam-thinning folds, or the rounding at the outcome boundary shows up
/// as an exact diff. Captured on the engine as first shipped.
#[test]
fn fluid_fingerprints_are_pinned() {
    let run = |spec: StrategySpec, channels: u16| {
        Scenario::hopping(HoppingSpec::new(512, 2_000))
            .engine(Engine::Fluid)
            .channels(channels)
            .adversary(spec)
            .carol_budget(1_000)
            .seed(77)
            .build()
            .unwrap()
            .run()
    };
    let silent = run(StrategySpec::Silent, 1);
    assert_eq!(
        fingerprint(&silent),
        (512, 1996, 1024, 0, vec![0]),
        "silent C=1: got {:?}",
        fingerprint(&silent)
    );
    let random = run(StrategySpec::Random(0.5), 4);
    assert_eq!(
        fingerprint(&random),
        (512, 1983, 4376, 1000, vec![1000, 0, 0, 0]),
        "random C=4: got {:?}",
        fingerprint(&random)
    );
    let lagged = run(StrategySpec::LaggedReactive, 4);
    assert_eq!(
        fingerprint(&lagged),
        (512, 1985, 3958, 1000, vec![1000, 0, 0, 0]),
        "lagged C=4: got {:?}",
        fingerprint(&lagged)
    );
}

/// Pinned fingerprints for the new fast_mc lowerings, mirroring the
/// fast_mc_vs_exact suite: any change to sampling order, the interval
/// accounting, or the pacing model is a byte-exact diff here. Captured
/// on the lowerings as first shipped.
#[cfg(feature = "slow-tests")]
mod fingerprints {
    use super::*;

    fn run(spec: StrategySpec, channels: u16, seed: u64) -> ScenarioOutcome {
        Scenario::hopping(HoppingSpec::new(512, 2_000))
            .engine(Engine::Fast)
            .channels(channels)
            .adversary(spec)
            .carol_budget(1_000)
            .seed(seed)
            .build()
            .unwrap()
            .run()
    }

    #[test]
    fn random_c1_fingerprint() {
        let o = run(StrategySpec::Random(0.5), 1, 77);
        assert_eq!(
            fingerprint(&o),
            (512, 2004, 1946, 1000, vec![1000]),
            "got {:?}",
            fingerprint(&o)
        );
    }

    #[test]
    fn bursty_c4_fingerprint() {
        let o = run(StrategySpec::Bursty { burst: 64, gap: 64 }, 4, 77);
        assert_eq!(
            fingerprint(&o),
            (512, 1958, 5005, 1000, vec![1000, 0, 0, 0]),
            "got {:?}",
            fingerprint(&o)
        );
    }

    #[test]
    fn lagged_c4_fingerprint() {
        let o = run(StrategySpec::LaggedReactive, 4, 77);
        assert_eq!(
            fingerprint(&o),
            (512, 1939, 3978, 1000, vec![1000, 0, 0, 0]),
            "got {:?}",
            fingerprint(&o)
        );
    }
}

/// The four phase loops — (name, engine, epoch schedule?): two hopping
/// schedules, each sampled (`fast_mc` on [`Engine::Fast`]) and taken in
/// expectation ([`Engine::Fluid`]).
const PHASE_LOOPS: [(&str, Engine, bool); 4] = [
    ("fast_mc", Engine::Fast, false),
    ("fast_mc-epoch", Engine::Fast, true),
    ("fluid", Engine::Fluid, false),
    ("fluid-epoch", Engine::Fluid, true),
];

/// The schedule-free zoo: every strategy with a phase-tier model.
const PHASE_ZOO: [StrategySpec; 9] = [
    StrategySpec::Silent,
    StrategySpec::Continuous,
    StrategySpec::Random(0.5),
    StrategySpec::Bursty { burst: 16, gap: 48 },
    StrategySpec::LaggedReactive,
    StrategySpec::SplitUniform,
    StrategySpec::ChannelSweep { dwell: 8 },
    StrategySpec::ChannelLagged,
    StrategySpec::Adaptive {
        window: 8,
        reactivity: 0.5,
    },
];

/// One pin-grid run and the recording collector attached to it.
type Run = (ScenarioOutcome, Arc<RecordingCollector>);

/// Every pin-table entry — (loop, strategy, C) — with its runs, in the
/// fixed fold order: n × horizon × Carol budget × phase (or epoch)
/// length × seed.
fn pin_grid() -> impl Iterator<Item = (&'static str, StrategySpec, u16, Vec<Run>)> {
    let runs = |engine: Engine, epoch: bool, strategy: StrategySpec, channels: u16| {
        let mut runs = Vec::new();
        for n in [16u64, 4_096] {
            for horizon in [0u64, 50, 2_000] {
                for budget in [None, Some(10u64), Some(1_000)] {
                    for len in [32u64, 7] {
                        for seed in [1u64, 2] {
                            let builder = if epoch {
                                Scenario::epoch_hopping(EpochHoppingSpec::new(n, horizon, len))
                            } else {
                                Scenario::hopping(HoppingSpec::new(n, horizon)).phase_len(len)
                            };
                            let collector = Arc::new(RecordingCollector::new());
                            let mut builder = builder
                                .engine(engine)
                                .channels(channels)
                                .adversary(strategy)
                                .telemetry(collector.clone())
                                .seed(seed);
                            if let Some(units) = budget {
                                builder = builder.carol_budget(units);
                            }
                            let outcome = builder.build().expect("valid phase-tier cell").run();
                            runs.push((outcome, collector));
                        }
                    }
                }
            }
        }
        runs
    };
    PHASE_LOOPS
        .into_iter()
        .flat_map(move |(name, engine, epoch)| {
            PHASE_ZOO.into_iter().flat_map(move |strategy| {
                [1u16, 4].map(|c| (name, strategy, c, runs(engine, epoch, strategy, c)))
            })
        })
}

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// `phase_loops_match_pinned_digests`: (loop, strategy, C, outcome
/// digest, channel-stats digest, telemetry digest). Captured on the four
/// separate phase loops before they became one kernel with two
/// realizations; the 18 fluid C = 4 channel-stats digests were re-pinned
/// when the fluid columns started reconciling with the ledger (every
/// outcome digest held). The telemetry column was captured on the kernel
/// before the ε-BROADCAST recurrence joined it and shared its recorder.
#[rustfmt::skip]
const PHASE_PINS: [(&str, &str, u16, u64, u64, u64); 72] = [
    ("fast_mc", "silent", 1, 0x8316_c126_60f8_1e01, 0x41e5_6c86_ea26_39f5, 0x2e60_150a_db1f_c983),
    ("fast_mc", "silent", 4, 0x2a5b_7d51_e8dd_793b, 0x8035_f034_76ce_2390, 0xeb87_f50d_4317_c696),
    ("fast_mc", "continuous", 1, 0x3b7a_11db_a871_cc3e, 0x79fa_c9c5_f9b1_5527, 0x2340_bcfc_eb79_0462),
    ("fast_mc", "continuous", 4, 0xe3e0_e58f_1a20_6ba9, 0x73cd_53a9_6c9e_ee47, 0x5670_5891_45d1_5d65),
    ("fast_mc", "random(p=0.5)", 1, 0x5cd8_0ad3_91b9_fd22, 0xd099_9eaf_edcf_1fe6, 0x5464_81b3_060b_e258),
    ("fast_mc", "random(p=0.5)", 4, 0x19f4_2c49_49f0_54ba, 0x3e95_733b_3bb5_d574, 0x96ca_5887_3bfc_70b5),
    ("fast_mc", "bursty(16/48)", 1, 0xfd38_1f78_bf0d_9f4b, 0x4b22_0dba_b498_08f3, 0x6070_d83d_23f4_e43c),
    ("fast_mc", "bursty(16/48)", 4, 0xb919_0ce0_b1ad_4193, 0xb9ab_f0bd_c36e_6b91, 0x555f_beaa_66aa_d06b),
    ("fast_mc", "lagged-reactive", 1, 0x8e6f_d0c1_4130_67f1, 0x83ed_34db_0390_318a, 0x92cb_12c8_1a83_158f),
    ("fast_mc", "lagged-reactive", 4, 0x019a_e166_e191_9ea3, 0x6f0b_cdd1_30ca_5cfe, 0x6cf5_6585_ac7e_eb43),
    ("fast_mc", "split-uniform", 1, 0xe06f_e977_039d_9984, 0x79fa_c9c5_f9b1_5527, 0x2340_bcfc_eb79_0462),
    ("fast_mc", "split-uniform", 4, 0x771d_872b_cae0_b3b1, 0x1e81_0ce9_569d_2fc2, 0xd93e_cca0_182a_5805),
    ("fast_mc", "channel-sweep(dwell=8)", 1, 0x5c41_5540_4eb5_2e98, 0x79fa_c9c5_f9b1_5527, 0x2340_bcfc_eb79_0462),
    ("fast_mc", "channel-sweep(dwell=8)", 4, 0x866b_05d4_ac0e_3769, 0x3190_464c_8305_005f, 0x74c4_1bcc_ef16_5403),
    ("fast_mc", "channel-lagged", 1, 0xd160_be98_fadc_ba45, 0x83ed_34db_0390_318a, 0x92cb_12c8_1a83_158f),
    ("fast_mc", "channel-lagged", 4, 0xdf34_5d9a_ed79_39c8, 0x2ac6_bd08_a585_0560, 0xd569_f5ee_ea3e_50f3),
    ("fast_mc", "adaptive(w=8,r=0.5)", 1, 0x94b9_4b50_eb9d_8643, 0x83ed_34db_0390_318a, 0x32e6_88b7_61ba_c038),
    ("fast_mc", "adaptive(w=8,r=0.5)", 4, 0xff55_b590_126d_0178, 0x761f_cba4_c2d8_69e1, 0x85d6_aa69_6aa5_41f8),
    ("fast_mc-epoch", "silent", 1, 0xfa4e_23d4_cdb0_7733, 0x41e5_6c86_ea26_39f5, 0x4298_2515_68f7_cd95),
    ("fast_mc-epoch", "silent", 4, 0x836f_ff6a_19d0_c740, 0x973d_16ec_fcc0_b73b, 0xe22f_dcc6_9e99_b008),
    ("fast_mc-epoch", "continuous", 1, 0xe93e_14da_ec21_8fba, 0x79fa_c9c5_f9b1_5527, 0x2c6e_6417_075e_13ea),
    ("fast_mc-epoch", "continuous", 4, 0x91cd_5f40_0ca1_769f, 0xaf92_101c_4e1d_7203, 0xf4f5_44af_c695_494b),
    ("fast_mc-epoch", "random(p=0.5)", 1, 0x5566_c656_0517_a9f6, 0xd099_9eaf_edcf_1fe6, 0xa286_dc2d_2cef_3ccf),
    ("fast_mc-epoch", "random(p=0.5)", 4, 0x117d_610b_69d4_3a02, 0x430b_4604_542e_12bc, 0xd5a4_82a5_c765_28cf),
    ("fast_mc-epoch", "bursty(16/48)", 1, 0x5603_c8a4_ac6a_c1d1, 0x4b22_0dba_b498_08f3, 0xccb7_592f_2598_6340),
    ("fast_mc-epoch", "bursty(16/48)", 4, 0xb7a7_9b3c_85ba_3399, 0x06af_f0fd_5a2d_9f0d, 0xb86d_8bf4_58f0_13fb),
    ("fast_mc-epoch", "lagged-reactive", 1, 0x9e6b_0ec2_5bbb_cdfb, 0x83ed_34db_0390_318a, 0xe8d0_5853_ae01_8e7d),
    ("fast_mc-epoch", "lagged-reactive", 4, 0x1ce7_0e1f_7343_84d2, 0xfa3e_a270_5cfe_ba50, 0xa696_9e6d_29a3_e6f9),
    ("fast_mc-epoch", "split-uniform", 1, 0x8a9a_0aec_6b4e_c104, 0x79fa_c9c5_f9b1_5527, 0x2c6e_6417_075e_13ea),
    ("fast_mc-epoch", "split-uniform", 4, 0xad94_de62_bec6_742b, 0x52f1_873a_44a3_9afc, 0xcc16_950e_52db_606d),
    ("fast_mc-epoch", "channel-sweep(dwell=8)", 1, 0xafe2_1385_2d3e_6ce8, 0x79fa_c9c5_f9b1_5527, 0x2c6e_6417_075e_13ea),
    ("fast_mc-epoch", "channel-sweep(dwell=8)", 4, 0x2d0c_c4c1_4fe1_c217, 0x2690_eb11_705d_e918, 0xeef6_6fa2_e35e_03f8),
    ("fast_mc-epoch", "channel-lagged", 1, 0x31a7_c908_fa3f_ca53, 0x83ed_34db_0390_318a, 0xe8d0_5853_ae01_8e7d),
    ("fast_mc-epoch", "channel-lagged", 4, 0xabc5_3f04_ab4e_8053, 0x4dfd_5287_7f1c_ad43, 0xc0c6_569c_cbc3_8a65),
    ("fast_mc-epoch", "adaptive(w=8,r=0.5)", 1, 0xfdda_1119_5d51_af85, 0x83ed_34db_0390_318a, 0x75fc_0050_1fa8_be0a),
    ("fast_mc-epoch", "adaptive(w=8,r=0.5)", 4, 0xc137_0cb4_b12e_2163, 0x88d2_4a7d_e498_7931, 0x8415_8f68_c429_60a9),
    ("fluid", "silent", 1, 0xa52e_5bb9_81df_bd5d, 0x296b_0fe3_1899_c1a5, 0x993d_eaf1_6f56_0c55),
    ("fluid", "silent", 4, 0x9761_8211_5af0_dbd3, 0xd6ca_fa2f_9b44_0c91, 0x4fea_8317_5bcc_b82d),
    ("fluid", "continuous", 1, 0x40d9_f521_06bc_76e7, 0xb4da_e401_e389_dd45, 0x3b47_4798_2f43_e9af),
    ("fluid", "continuous", 4, 0xd637_697d_7349_5cdd, 0x1b7f_7766_309e_fdeb, 0xfce7_760f_0e2f_eba1),
    ("fluid", "random(p=0.5)", 1, 0x74a6_59a2_faf9_37eb, 0x639f_ca7b_8798_689b, 0xfdd8_da67_6449_98a3),
    ("fluid", "random(p=0.5)", 4, 0xee74_415c_a86a_d439, 0x16c0_fd72_5a55_e6e9, 0x6906_a8a6_ffcf_c9bd),
    ("fluid", "bursty(16/48)", 1, 0x9b8d_8197_c9d8_f675, 0xa3ad_a592_35d1_3b5f, 0x6c25_3110_7ae4_94dd),
    ("fluid", "bursty(16/48)", 4, 0x8ce5_0e0c_13fa_1ac7, 0xe699_154e_7b6f_6e0f, 0x1ef2_5261_a9ca_7317),
    ("fluid", "lagged-reactive", 1, 0x3753_445c_8e36_dc33, 0xa7eb_06ef_74b3_fe75, 0x1ed2_bf49_2743_3361),
    ("fluid", "lagged-reactive", 4, 0x2af3_7354_47b2_e781, 0x9294_92df_37d8_23d9, 0x7856_4865_9428_d0a1),
    ("fluid", "split-uniform", 1, 0x1fee_2e41_bbc8_a1bb, 0xb4da_e401_e389_dd45, 0x3b47_4798_2f43_e9af),
    ("fluid", "split-uniform", 4, 0x21d9_d16a_6751_ea0d, 0xd391_5658_8e14_660d, 0xf88e_d075_3047_c0cf),
    ("fluid", "channel-sweep(dwell=8)", 1, 0x7c54_5599_daef_2c87, 0xb4da_e401_e389_dd45, 0x3b47_4798_2f43_e9af),
    ("fluid", "channel-sweep(dwell=8)", 4, 0xed4f_62bd_b456_09f7, 0x6899_93c9_f326_aebf, 0x6fc3_e3ba_94fd_5145),
    ("fluid", "channel-lagged", 1, 0xd4d2_552a_ce1c_22e1, 0xa7eb_06ef_74b3_fe75, 0x1ed2_bf49_2743_3361),
    ("fluid", "channel-lagged", 4, 0x5a4d_4212_79a6_ba97, 0x935a_3085_5e1d_f1fd, 0xf19f_3a5d_883a_996b),
    ("fluid", "adaptive(w=8,r=0.5)", 1, 0x34af_cf8a_de21_52df, 0xa7eb_06ef_74b3_fe75, 0xb5e7_d437_4680_244b),
    ("fluid", "adaptive(w=8,r=0.5)", 4, 0xbbb3_9861_07c3_bab9, 0x9205_dcf1_6687_dd41, 0x2810_d424_ddbd_be39),
    ("fluid-epoch", "silent", 1, 0x0157_9b40_c37c_8169, 0x296b_0fe3_1899_c1a5, 0xf801_5f87_def9_b933),
    ("fluid-epoch", "silent", 4, 0xf2ed_d397_8816_d3e5, 0x1991_e842_8f3a_0089, 0x3b74_976c_870f_0d55),
    ("fluid-epoch", "continuous", 1, 0x31bd_3e83_a656_226b, 0xb4da_e401_e389_dd45, 0x6cbb_7256_0efc_3013),
    ("fluid-epoch", "continuous", 4, 0x5b78_bd48_77c3_1497, 0x9c56_8559_b88c_d94f, 0xb952_02f2_0b78_fc67),
    ("fluid-epoch", "random(p=0.5)", 1, 0x2f53_edc5_103d_2ab5, 0x639f_ca7b_8798_689b, 0x3cb7_fcc1_62fd_77eb),
    ("fluid-epoch", "random(p=0.5)", 4, 0xda47_512c_61fe_543d, 0xe46c_a7d1_e759_e315, 0x20c3_7cdd_15ce_2079),
    ("fluid-epoch", "bursty(16/48)", 1, 0x4bdd_4dab_62d0_52c9, 0xa3ad_a592_35d1_3b5f, 0x1bb6_c77e_aa99_40e7),
    ("fluid-epoch", "bursty(16/48)", 4, 0x79bd_c492_fc07_0403, 0x0150_06ad_0c6a_f437, 0x4d53_27f1_b13b_a34b),
    ("fluid-epoch", "lagged-reactive", 1, 0x019e_1870_89a6_f04d, 0xa7eb_06ef_74b3_fe75, 0xd3e1_4e0c_b131_6b95),
    ("fluid-epoch", "lagged-reactive", 4, 0x8523_1278_59e8_f921, 0xc25f_4d0e_3ca8_9ba1, 0x5a7b_dd38_6344_7677),
    ("fluid-epoch", "split-uniform", 1, 0xcfbc_2988_d2b3_76e7, 0xb4da_e401_e389_dd45, 0x6cbb_7256_0efc_3013),
    ("fluid-epoch", "split-uniform", 4, 0x84de_af3d_ae8d_c1bd, 0xaeaf_d07a_b743_3309, 0xa679_eb03_4b82_f61f),
    ("fluid-epoch", "channel-sweep(dwell=8)", 1, 0x469a_a7ce_a21f_6d4b, 0xb4da_e401_e389_dd45, 0x6cbb_7256_0efc_3013),
    ("fluid-epoch", "channel-sweep(dwell=8)", 4, 0xf8ef_198d_f54a_05d1, 0x4c5a_b096_e715_e211, 0x5c93_0693_2729_4537),
    ("fluid-epoch", "channel-lagged", 1, 0x4ff8_65ef_6e60_ae57, 0xa7eb_06ef_74b3_fe75, 0xd3e1_4e0c_b131_6b95),
    ("fluid-epoch", "channel-lagged", 4, 0xdff4_7fe8_e083_8d27, 0x13e0_7dcd_240c_bc3d, 0x6ba4_8b3f_91c9_aaab),
    ("fluid-epoch", "adaptive(w=8,r=0.5)", 1, 0xc382_0c59_62a7_3459, 0xa7eb_06ef_74b3_fe75, 0x3d8c_8a17_a653_ac01),
    ("fluid-epoch", "adaptive(w=8,r=0.5)", 4, 0x5909_bd5a_2c5a_e9ed, 0x8da2_7810_f448_e671, 0xb18f_c0fb_9d43_df71),
];

#[test]
fn phase_loops_match_pinned_digests() {
    // One entry per (loop, strategy, C): an FNV-1a digest of the
    // rendered outcomes (telemetry and channel stats stripped), one of
    // the channel stats and one of what the attached recording collector
    // saw (the `Fast*` and `Fluid*` counters and gauges and the
    // per-phase event log), each folded over the entry's 72 runs —
    // 5,184 runs in all.
    let counter_ids = [
        MetricId::FastPhases,
        MetricId::FastInformed,
        MetricId::FastJamRequested,
        MetricId::FastJamExecuted,
        MetricId::FluidPhases,
    ];
    let gauge_ids = [
        MetricId::FastRendezvousP,
        MetricId::FastSurviveP,
        MetricId::FluidUninformed,
    ];
    let actual: Vec<_> = pin_grid()
        .map(|(lp, strategy, channels, runs)| {
            let [mut outcomes, mut stats, mut telemetry] = [0xcbf2_9ce4_8422_2325u64; 3];
            for (mut outcome, collector) in runs {
                outcome.telemetry = None;
                let channel_stats = outcome.channel_stats.take();
                outcomes = fnv1a(outcomes, format!("{outcome:?}").as_bytes());
                stats = fnv1a(stats, format!("{channel_stats:?}").as_bytes());
                let snapshot = collector.snapshot().expect("recording collector");
                let counters = counter_ids.map(|id| collector.counter(id));
                let gauges = gauge_ids.map(|id| snapshot.gauge(id));
                telemetry = fnv1a(telemetry, format!("{counters:?}{gauges:?}").as_bytes());
                for event in &snapshot.events {
                    telemetry = fnv1a(telemetry, format!("{event:?}").as_bytes());
                }
            }
            (lp, strategy.name(), channels, outcomes, stats, telemetry)
        })
        .collect();
    let expected: Vec<_> = PHASE_PINS
        .iter()
        .map(|&(lp, name, c, o, s, t)| (lp, name.to_string(), c, o, s, t))
        .collect();
    assert_eq!(actual, expected, "phase-loop digests drifted");
}

#[test]
fn channel_stats_reconcile_with_the_ledger() {
    // Every run of the pin grid: each per-channel column sums to its
    // ledger total, on both tiers.
    for (lp, strategy, channels, runs) in pin_grid() {
        for (o, _) in runs {
            let stats = o
                .channel_stats
                .as_deref()
                .expect("phase tiers report stats");
            let column = |field: fn(&ChannelStats) -> u64| -> u64 { stats.iter().map(field).sum() };
            let cell = format!("{lp} {} C={channels}: {o:?}", strategy.name());
            let sends = o.alice_cost.sends + o.node_total_cost.sends;
            assert_eq!(column(|s| s.correct_sends), sends, "{cell}");
            assert_eq!(
                column(|s| s.correct_listens),
                o.node_total_cost.listens,
                "{cell}"
            );
            assert_eq!(column(|s| s.jammed_slots), o.carol_spend(), "{cell}");
            assert_eq!(column(|s| s.delivered), o.informed_nodes, "{cell}");
        }
    }
}
