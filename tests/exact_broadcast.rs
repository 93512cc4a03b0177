//! The exact ε-BROADCAST driver (`rcb_core::era2`), pinned and
//! cross-checked, plus the exact KPSY driver at dead-air scale.
//!
//! A digest table pins the driver across the single-channel slot-level
//! zoo and five `Params` variants. Each entry folds n × Carol budget ×
//! seed × trace capacity {0, 7} into one FNV-1a digest of the rendered
//! `ScenarioOutcome` (telemetry stripped). The variants cover the
//! driver's branches: plain, §4.1 decoys (two-armed uninformed nodes),
//! a ν = n² size overestimate (g-loop segment splitting), unconstrained
//! correct budgets, and a starved `budget_scale` whose nodes run out of
//! budget while they listen through jammed dissemination phases.
//!
//! The same grid checks that how listens are accounted never shows in
//! a result: an untraced run and a traced run (which materializes every
//! listener in every slot) of one config agree on everything but the
//! trace. A probe adversary, with and without a request for listener
//! identities, checks the listeners Carol observes against the ledger,
//! and counts her calls: once her pool is spent, only an untraced run
//! whose adversary does not want identities may skip dead air.
//!
//! Three smaller tables pin the shapes the 50-entry grid cannot reach:
//! ε-BROADCAST at n = 256, whose early request slots wake hundreds of
//! devices at once; ε-BROADCAST at n = 512, whose request phases span
//! hundreds of slots and whose Carol may run dry inside one; and KPSY at
//! n ∈ {1, 64} over 13 epochs. In all three, Carol's pool runs dry
//! mid-run, so most of the run is dead air: slots in which no device
//! acts and nothing Carol plans can air. The n = 512 table also digests
//! every slot with traffic as Carol observes it.
//!
//! No zoo strategy jams a request slot selectively, so a test jammer
//! does, with `Only` and `AllExcept` over a fixed id set; traced and
//! untraced runs must agree on the outcome and on Carol's observations.
//!
//! A last table pins the exact gossip driver (`rcb_radio::soa`) under
//! its four protocols: naive, epidemic, hopping and epoch hopping, over
//! the schedule-free single-channel zoo at C ∈ {1, 4} and the
//! channel-aware strategies at C = 4. Every run of it goes through one
//! shared `ScenarioScratch`, protocols and spectra interleaved, so a
//! scratch that leaks state from one protocol's run into the next fails
//! it. Traced and untraced gossip runs are only identically
//! distributed, so that table does not compare them.

use std::sync::{Arc, OnceLock};

use evildoers::adversary::StrategySpec;
use evildoers::baselines::{execute_kpsy, KpsyConfig};
use evildoers::core::{
    BroadcastSoaScratch, DecoyConfig, Params, PhaseKind, RoundSchedule, RunConfig, SizeKnowledge,
};
use evildoers::radio::{
    Adversary, AdversaryCtx, AdversaryMove, Budget, IdSet, JamDirective, ParticipantId, RunReport,
    Slot, SlotObservation,
};
use evildoers::sim::{
    EpidemicSpec, EpochHoppingSpec, HoppingSpec, KpsySpec, NaiveSpec, Scenario, ScenarioBuilder,
    ScenarioOutcome, ScenarioScratch,
};
use evildoers::telemetry::{MetricId, RecordingCollector};

/// The slot-level strategies of the table: the single-channel zoo,
/// including n-uniform extraction, Byzantine nack frames and in-slot
/// reactive jamming.
const ZOO: [StrategySpec; 10] = [
    StrategySpec::Silent,
    StrategySpec::Continuous,
    StrategySpec::Random(0.4),
    StrategySpec::Bursty { burst: 16, gap: 48 },
    StrategySpec::BlockDissemination(0.5),
    StrategySpec::BlockRequest(0.5),
    StrategySpec::Extract(3),
    StrategySpec::Spoof(0.3),
    StrategySpec::Reactive,
    StrategySpec::LaggedReactive,
];

/// The `Params` variants of the table, by name.
const VARIANTS: [&str; 5] = [
    "plain",
    "decoys",
    "overestimate",
    "unconstrained",
    "starved",
];

fn variant_params(variant: &str, n: u64) -> Params {
    let builder = Params::builder(n);
    match variant {
        // Unconstrained runs lift the budgets in the run config instead.
        "plain" | "unconstrained" => builder,
        "decoys" => builder.decoys(DecoyConfig::recommended()),
        "overestimate" => {
            builder.size_knowledge(SizeKnowledge::PolynomialOverestimate { nu: n * n })
        }
        "starved" => builder.budget_scale(0.02),
        // Judged from round 4 on, whose request phase is one 64-slot
        // window, instead of round 8 at n = 512.
        "early" => builder.min_termination_round(4),
        other => unreachable!("unknown params variant {other}"),
    }
    .build()
    .expect("valid params")
}

/// One grid config's two runs: untraced, and traced at capacity 7.
struct Cell {
    label: String,
    plain: ScenarioOutcome,
    traced: ScenarioOutcome,
}

/// The whole grid, run once and shared by the tests that read it, in
/// this fixed order: strategy × variant × n × Carol budget × seed.
fn grid() -> &'static [(StrategySpec, &'static str, Vec<Cell>)] {
    static GRID: OnceLock<Vec<(StrategySpec, &'static str, Vec<Cell>)>> = OnceLock::new();
    GRID.get_or_init(|| {
        let mut entries = Vec::new();
        for strategy in ZOO {
            for variant in VARIANTS {
                let mut cells = Vec::new();
                for n in [8u64, 24] {
                    let params = variant_params(variant, n);
                    for budget in [None, Some(60u64)] {
                        for seed in [1u64, 2] {
                            let run = |trace: usize| {
                                let mut builder = Scenario::broadcast(params.clone())
                                    .adversary(strategy)
                                    .seed(seed);
                                if let Some(units) = budget {
                                    builder = builder.carol_budget(units);
                                }
                                if variant == "unconstrained" {
                                    builder = builder.unconstrained_correct();
                                }
                                if trace > 0 {
                                    builder = builder.trace(trace);
                                }
                                builder.build().expect("valid exact cell").run()
                            };
                            cells.push(Cell {
                                label: format!(
                                    "{} {variant} n={n} budget={budget:?} seed={seed}",
                                    strategy.name()
                                ),
                                plain: run(0),
                                traced: run(7),
                            });
                        }
                    }
                }
                entries.push((strategy, variant, cells));
            }
        }
        entries
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

/// `era2_broadcast_matches_pinned_digests`: (strategy, params variant,
/// outcome digest), captured on the era-2 driver with every listener
/// materialized. Each unconstrained entry equals its plain one: the
/// computed budgets never bind in this grid.
#[rustfmt::skip]
const PINS: [(&str, &str, u64); 50] = [
    ("silent", "plain", 0xca5d_9d90_c814_b931),
    ("silent", "decoys", 0xf1e9_5605_a66b_ba89),
    ("silent", "overestimate", 0x3187_cd8b_86b1_52b5),
    ("silent", "unconstrained", 0xca5d_9d90_c814_b931),
    ("silent", "starved", 0x6d5e_83db_fd4b_6081),
    ("continuous", "plain", 0x9198_c7b7_fb44_abef),
    ("continuous", "decoys", 0xb9e8_cfce_ce0b_78d7),
    ("continuous", "overestimate", 0x4393_09bd_58a6_b517),
    ("continuous", "unconstrained", 0x9198_c7b7_fb44_abef),
    ("continuous", "starved", 0x09dd_76d1_8421_53c5),
    ("random(p=0.4)", "plain", 0xec18_53fb_da16_6f27),
    ("random(p=0.4)", "decoys", 0x31d3_dedc_4af8_1d7b),
    ("random(p=0.4)", "overestimate", 0x80a7_aa71_5083_54cf),
    ("random(p=0.4)", "unconstrained", 0xec18_53fb_da16_6f27),
    ("random(p=0.4)", "starved", 0x50c1_a591_2fbe_3169),
    ("bursty(16/48)", "plain", 0x7422_0e92_2708_c037),
    ("bursty(16/48)", "decoys", 0xfda0_d1a5_5ef6_3fc5),
    ("bursty(16/48)", "overestimate", 0x3751_7189_d6fb_36bf),
    ("bursty(16/48)", "unconstrained", 0x7422_0e92_2708_c037),
    ("bursty(16/48)", "starved", 0xfdde_7e5d_0599_ccb1),
    ("block-dissem(β=0.5)", "plain", 0x60d6_bc08_007e_15d5),
    ("block-dissem(β=0.5)", "decoys", 0x7599_03f2_1fd2_e159),
    ("block-dissem(β=0.5)", "overestimate", 0x0adb_9a4d_fcf7_082d),
    ("block-dissem(β=0.5)", "unconstrained", 0x60d6_bc08_007e_15d5),
    ("block-dissem(β=0.5)", "starved", 0x0a0b_8ec1_3126_63e5),
    ("block-request(β=0.5)", "plain", 0xeb83_7bee_325d_9e9f),
    ("block-request(β=0.5)", "decoys", 0xddda_9c01_f3ae_00af),
    ("block-request(β=0.5)", "overestimate", 0xb433_73a6_2e2f_795b),
    ("block-request(β=0.5)", "unconstrained", 0xeb83_7bee_325d_9e9f),
    ("block-request(β=0.5)", "starved", 0x275f_44ab_32fe_d4e1),
    ("extract(x=3)", "plain", 0xe993_b99c_f44b_3971),
    ("extract(x=3)", "decoys", 0x1e5e_11e6_bb8c_2c5b),
    ("extract(x=3)", "overestimate", 0xccb4_58b2_ee76_7db9),
    ("extract(x=3)", "unconstrained", 0xe993_b99c_f44b_3971),
    ("extract(x=3)", "starved", 0x10f7_fc0f_627d_785d),
    ("spoof(rate=0.3)", "plain", 0x9f9f_1d48_ebac_f24d),
    ("spoof(rate=0.3)", "decoys", 0x47f9_bd87_beb5_46ff),
    ("spoof(rate=0.3)", "overestimate", 0x6288_7281_4f29_1acd),
    ("spoof(rate=0.3)", "unconstrained", 0x9f9f_1d48_ebac_f24d),
    ("spoof(rate=0.3)", "starved", 0xd87f_b977_aa7b_9b3d),
    ("reactive", "plain", 0xe399_dae1_b31c_c71f),
    ("reactive", "decoys", 0xca18_556f_3108_9ab5),
    ("reactive", "overestimate", 0x89d1_0d55_8ce5_f691),
    ("reactive", "unconstrained", 0xe399_dae1_b31c_c71f),
    ("reactive", "starved", 0x80fd_bb39_ea76_554b),
    ("lagged-reactive", "plain", 0x4c2b_05e7_23bf_f659),
    ("lagged-reactive", "decoys", 0xeed8_bdf1_0645_35ff),
    ("lagged-reactive", "overestimate", 0xd3e6_787a_4d74_fdc1),
    ("lagged-reactive", "unconstrained", 0x4c2b_05e7_23bf_f659),
    ("lagged-reactive", "starved", 0x0e30_cf87_fef1_076d),
];

#[test]
fn era2_broadcast_matches_pinned_digests() {
    // One entry per (strategy, params variant): an FNV-1a digest of the
    // rendered outcomes (telemetry stripped), folded over n × Carol
    // budget × seed × trace capacity {0, 7} in this fixed order.
    let mut actual = Vec::new();
    for (strategy, variant, cells) in grid() {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for cell in cells {
            for outcome in [&cell.plain, &cell.traced] {
                let mut outcome = outcome.clone();
                outcome.telemetry = None;
                hash = fnv1a(hash, format!("{outcome:?}").as_bytes());
            }
        }
        actual.push((strategy.name(), *variant, hash));
    }
    let expected: Vec<_> = PINS
        .iter()
        .map(|&(name, variant, hash)| (name.to_string(), variant, hash))
        .collect();
    assert_eq!(actual, expected, "era-2 ε-BROADCAST digests drifted");
}

#[test]
fn untraced_and_traced_runs_agree_on_everything_but_the_trace() {
    // A trace forces every listener of every slot to be materialized; an
    // untraced run may account the listens it cannot hear in bulk. The
    // two must agree on the outcome, the refusals and the channel stats.
    let mut starved_refusals = 0;
    for (_, variant, cells) in grid() {
        for cell in cells {
            assert!(cell.plain.trace.is_none(), "{}", cell.label);
            assert!(cell.traced.trace.is_some(), "{}", cell.label);
            let mut traced = cell.traced.clone();
            traced.trace = None;
            assert_eq!(
                format!("{:?}", cell.plain),
                format!("{traced:?}"),
                "{}: the traced run differs beyond its trace",
                cell.label
            );
            if *variant == "starved" {
                starved_refusals += cell.plain.total_refusals();
            }
        }
    }
    assert!(starved_refusals > 0, "the starved variant never ran dry");
}

/// Forwards a zoo strategy and counts Carol's calls and the listener
/// identities she observes. It also folds every observation with traffic
/// on it into an FNV-1a digest, and remembers the last slot Carol
/// planned with budget left: she ran dry in that slot or never.
struct Probe {
    inner: Box<dyn Adversary>,
    wants_identities: bool,
    observed: u64,
    plans: u64,
    observes: u64,
    traffic: u64,
    solvent_until: Option<u64>,
}

impl Probe {
    fn new(inner: Box<dyn Adversary>, wants_identities: bool) -> Self {
        Self {
            inner,
            wants_identities,
            observed: 0,
            plans: 0,
            observes: 0,
            traffic: 0xcbf2_9ce4_8422_2325,
            solvent_until: None,
        }
    }
}

impl Adversary for Probe {
    fn plan(&mut self, slot: Slot, ctx: &AdversaryCtx) -> AdversaryMove {
        self.plans += 1;
        if ctx.budget_remaining != Some(0) {
            self.solvent_until = Some(slot.index());
        }
        self.inner.plan(slot, ctx)
    }
    fn react(&mut self, slot: Slot, activity: bool, planned: AdversaryMove) -> AdversaryMove {
        self.inner.react(slot, activity, planned)
    }
    fn is_reactive(&self) -> bool {
        self.inner.is_reactive()
    }
    fn observe(&mut self, slot: Slot, observation: &SlotObservation<'_>) {
        self.observes += 1;
        self.observed += observation.listeners.len() as u64;
        // Listener identities stay out of the traffic digest: an
        // untraced run may settle the listens that no frame can reach.
        if !observation.correct_sends.is_empty()
            || observation.jam_executed
            || !observation.delivered.is_empty()
        {
            let rendered = format!(
                "{} {:?} {} {:?} {:?}",
                slot.index(),
                observation.correct_sends,
                observation.jam_executed,
                observation.jammed_channels,
                observation.delivered
            );
            self.traffic = fnv1a(self.traffic, rendered.as_bytes());
        }
        self.inner.observe(slot, observation);
    }
    fn wants_listener_identities(&self) -> bool {
        self.wants_identities
    }
}

/// Every listen the ledger charged, Alice's included.
fn charged_listens(report: &RunReport) -> u64 {
    report.participant_costs.iter().map(|c| c.listens).sum()
}

#[test]
fn observed_listeners_reconcile_with_charged_listens() {
    // An adversary that asks for listener identities sees every charged
    // listen; a default one sees the materialized listens, and the
    // engine counts the rest as settled. Either way the run is the same.
    for strategy in [
        StrategySpec::Continuous,
        StrategySpec::Extract(3),
        StrategySpec::Spoof(0.3),
        StrategySpec::Reactive,
    ] {
        for variant in ["plain", "starved"] {
            let params = variant_params(variant, 24);
            for budget in [Budget::unlimited(), Budget::limited(60)] {
                for seed in [1u64, 2] {
                    let label = format!("{} {variant} {budget:?} seed={seed}", strategy.name());
                    let config = RunConfig::seeded(seed).carol_budget(budget);
                    let run = |wants_identities: bool| {
                        let mut probe =
                            Probe::new(strategy.slot_adversary(&params, seed), wants_identities);
                        let collector = Arc::new(RecordingCollector::new());
                        let (outcome, report) = BroadcastSoaScratch::new().run_with(
                            &params,
                            &mut probe,
                            &config,
                            collector.as_ref(),
                        );
                        let rendered = format!(
                            "{outcome:?} {:?} {:?}",
                            report.participant_refusals, report.channel_stats
                        );
                        let settled = collector.counter(MetricId::EngineSettledListens);
                        (rendered, charged_listens(&report), probe.observed, settled)
                    };
                    let (full, charged, observed, settled) = run(true);
                    assert_eq!(settled, 0, "{label}: identities requested, listens settled");
                    assert_eq!(observed, charged, "{label}: observed vs charged");
                    let (deferred, charged, observed, settled) = run(false);
                    assert_eq!(full, deferred, "{label}: identities changed the run");
                    assert_eq!(
                        observed + settled,
                        charged,
                        "{label}: observed + settled vs charged"
                    );
                }
            }
        }
    }
}

/// Everything a run reports but its trace, and the run's length.
fn render_run(outcome: &impl std::fmt::Debug, report: &RunReport) -> (String, u64) {
    let rendered = format!(
        "{outcome:?} {:?} {:?} {:?} {} {}",
        report.stop_reason,
        report.participant_refusals,
        report.channel_stats,
        report.jammed_slots,
        report.noisy_slots
    );
    (rendered, report.slots_elapsed)
}

#[test]
fn carol_is_called_in_every_slot_unless_dead_air_is_skipped() {
    // Once Carol's pool is spent, an untraced run whose adversary does
    // not want listener identities skips the slots in which no device
    // acts, without calling her. A traced run, or one whose adversary
    // wants identities, calls her in every slot. All three runs agree.
    let params = variant_params("plain", 64);
    for strategy in [
        StrategySpec::Continuous,
        StrategySpec::Spoof(0.3),
        StrategySpec::Reactive,
    ] {
        for seed in [1u64, 2] {
            // ((rendered run, slots), plans, observes)
            let run = |driver: &str, trace: usize, wants: bool| {
                let mut probe = Probe::new(strategy.slot_adversary(&params, seed), wants);
                let run = if driver == "broadcast" {
                    let config = RunConfig::seeded(seed)
                        .carol_budget(Budget::limited(200))
                        .trace(trace);
                    let (outcome, report) =
                        BroadcastSoaScratch::new().run(&params, &mut probe, &config);
                    render_run(&outcome, &report)
                } else {
                    let n = if driver == "kpsy n=1" { 1 } else { 64 };
                    let mut config = KpsyConfig::new(n, (1 << 12) - 2, Budget::limited(10), seed);
                    config.trace_capacity = trace;
                    let (outcome, report) = execute_kpsy(&config, &mut probe);
                    render_run(&outcome, &report)
                };
                (run, probe.plans, probe.observes)
            };
            for driver in ["broadcast", "kpsy n=1", "kpsy n=64"] {
                let label = format!("{driver} {} seed={seed}", strategy.name());
                let (skipping, plans, observes) = run(driver, 0, false);
                let slots = skipping.1;
                assert!(plans < slots, "{label}: {plans} plans over {slots} slots");
                assert_eq!(observes, plans, "{label}: an observe per plan");
                for (trace, wants) in [(7, false), (0, true)] {
                    let (exact, plans, observes) = run(driver, trace, wants);
                    assert_eq!(exact, skipping, "{label} trace={trace} wants={wants}");
                    assert_eq!((plans, observes), (slots, slots), "{label}: every slot");
                }
            }
        }
    }
}

/// Runs `builder` and strips the outcome's telemetry.
fn bare_outcome(builder: ScenarioBuilder) -> ScenarioOutcome {
    let mut outcome = builder.build().expect("valid exact cell").run();
    outcome.telemetry = None;
    outcome
}

/// Folds `builder` over seed {1, 2} × trace capacity {0, 7} into `hash`,
/// checking on the way that the traced run agrees with the untraced one
/// beyond its trace and that Carol spent her whole pool.
fn fold_runs(mut hash: u64, label: &str, builder: &ScenarioBuilder, pool: u64) -> u64 {
    for seed in [1u64, 2] {
        let plain = bare_outcome(builder.clone().seed(seed));
        let traced = bare_outcome(builder.clone().seed(seed).trace(7));
        assert_eq!(
            plain.carol_spend(),
            pool,
            "{label} seed={seed}: pool not spent"
        );
        let mut bare = traced.clone();
        bare.trace = None;
        assert_eq!(
            format!("{plain:?}"),
            format!("{bare:?}"),
            "{label} seed={seed}: the traced run differs beyond its trace"
        );
        for outcome in [&plain, &traced] {
            hash = fnv1a(hash, format!("{outcome:?}").as_bytes());
        }
    }
    hash
}

/// `dense_broadcast_matches_pinned_digests`: (strategy, params variant,
/// outcome digest) of ε-BROADCAST at n = 256 with a 300-unit Carol,
/// folded over seed {1, 2} × trace capacity {0, 7}.
#[rustfmt::skip]
const DENSE_PINS: [(&str, &str, u64); 15] = [
    ("continuous", "plain", 0xfad2_330d_af68_9e33),
    ("continuous", "decoys", 0x6615_9dac_76c7_7e65),
    ("continuous", "overestimate", 0x2944_579a_a4cb_0b88),
    ("random(p=0.4)", "plain", 0xe856_dd4c_8787_c8d2),
    ("random(p=0.4)", "decoys", 0xc945_8def_cf06_d4f6),
    ("random(p=0.4)", "overestimate", 0xde08_8a2e_4d40_b702),
    ("bursty(16/48)", "plain", 0x0a5f_afce_f934_8d01),
    ("bursty(16/48)", "decoys", 0x695b_4f68_1807_ffad),
    ("bursty(16/48)", "overestimate", 0x8a89_7753_9116_ab94),
    ("spoof(rate=0.3)", "plain", 0x5368_4774_d595_20ca),
    ("spoof(rate=0.3)", "decoys", 0x6d21_ee49_e343_2fe6),
    ("spoof(rate=0.3)", "overestimate", 0xaf48_31f7_f194_cc80),
    ("reactive", "plain", 0x8ab6_839a_3ae8_35ea),
    ("reactive", "decoys", 0xaf6f_2871_f1aa_c451),
    ("reactive", "overestimate", 0x0c4b_fcd5_adf4_2568),
];

#[test]
fn dense_broadcast_matches_pinned_digests() {
    // Rounds 1-3 clamp the request-phase listen probability to 1, so a
    // request slot at n = 256 drains up to all 257 devices at once; the
    // pool of 300 runs dry within the first rounds, leaving the rest of
    // the run to Alice and the informed relayers. Decoys keep informed
    // nodes awake; the ν = n² overestimate splits phases into g-loop
    // segments, each a boundary a skip must stop at.
    let strategies = [
        StrategySpec::Continuous,
        StrategySpec::Random(0.4),
        StrategySpec::Bursty { burst: 16, gap: 48 },
        StrategySpec::Spoof(0.3),
        StrategySpec::Reactive,
    ];
    let mut actual = Vec::new();
    for strategy in strategies {
        for variant in ["plain", "decoys", "overestimate"] {
            let builder = Scenario::broadcast(variant_params(variant, 256))
                .adversary(strategy)
                .carol_budget(300);
            let label = format!("{} {variant}", strategy.name());
            let hash = fold_runs(0xcbf2_9ce4_8422_2325, &label, &builder, 300);
            actual.push((strategy.name(), variant, hash));
        }
    }
    let expected: Vec<(String, &str, u64)> = DENSE_PINS
        .iter()
        .map(|&(name, variant, hash)| (name.to_string(), variant, hash))
        .collect();
    assert_eq!(actual, expected, "dense ε-BROADCAST digests drifted");
}

/// `kpsy_dead_air_matches_pinned_digests`: (strategy, n, outcome digest)
/// of KPSY over 13 whole epochs with a 10-unit Carol, folded over seed
/// {1, 2} × trace capacity {0, 7}.
#[rustfmt::skip]
const KPSY_DEAD_AIR_PINS: [(&str, u64, u64); 8] = [
    ("continuous", 1, 0x88a6_3389_5d93_b0b4),
    ("continuous", 64, 0x2d94_8392_ba62_9ca0),
    ("random(p=0.5)", 1, 0x0f24_2a81_d9d8_453b),
    ("random(p=0.5)", 64, 0xae03_34dc_9727_8b6f),
    ("bursty(16/48)", 1, 0x9103_d651_5209_fa62),
    ("bursty(16/48)", 64, 0xb2b6_85a4_106a_3048),
    ("lagged-reactive", 1, 0x4f3c_eb87_2b2e_77ae),
    ("lagged-reactive", 64, 0xa028_494d_2f1e_1ca4),
];

#[test]
fn kpsy_dead_air_matches_pinned_digests() {
    // A horizon of 2^14 − 2 runs epochs 1-13; the last turns its 8,192
    // slots over to at most ⌈8192^{φ−1}⌉ = 263 secret slots per player,
    // so the stretches in which nobody acts span more than one turn of
    // the driver's 64-bucket wake wheel.
    let horizon = (1u64 << 14) - 2;
    let strategies = [
        StrategySpec::Continuous,
        StrategySpec::Random(0.5),
        StrategySpec::Bursty { burst: 16, gap: 48 },
        StrategySpec::LaggedReactive,
    ];
    let mut actual = Vec::new();
    for strategy in strategies {
        for n in [1u64, 64] {
            let builder = Scenario::kpsy(KpsySpec { n, horizon })
                .adversary(strategy)
                .carol_budget(10);
            let label = format!("{} n={n}", strategy.name());
            let hash = fold_runs(0xcbf2_9ce4_8422_2325, &label, &builder, 10);
            actual.push((strategy.name(), n, hash));
        }
    }
    let expected: Vec<(String, u64, u64)> = KPSY_DEAD_AIR_PINS
        .iter()
        .map(|&(name, n, hash)| (name.to_string(), n, hash))
        .collect();
    assert_eq!(actual, expected, "KPSY dead-air digests drifted");
}

/// The gossip table's strategies on every spectrum: the schedule-free
/// single-channel zoo.
const GOSSIP_ZOO: [StrategySpec; 5] = [
    StrategySpec::Silent,
    StrategySpec::Continuous,
    StrategySpec::Random(0.4),
    StrategySpec::Bursty { burst: 16, gap: 48 },
    StrategySpec::LaggedReactive,
];

/// The gossip table's channel-aware strategies, at C = 4 only.
const GOSSIP_CHANNEL_ZOO: [StrategySpec; 4] = [
    StrategySpec::SplitUniform,
    StrategySpec::ChannelSweep { dwell: 8 },
    StrategySpec::ChannelLagged,
    StrategySpec::Adaptive {
        window: 8,
        reactivity: 0.5,
    },
];

/// Carol's pool in the gossip table: every strategy but `Silent` spends
/// it well before the horizon.
const GOSSIP_POOL: u64 = 240;

/// The gossip table's entries, in pin order: (label, builder).
fn gossip_entries() -> Vec<(String, ScenarioBuilder)> {
    // Off the default shape, so that each spec field must reach the
    // driver: uninformed nodes listen with p = 0.3, informed ones relay
    // with p = 2/n.
    let (n, horizon, listen_p, relay_rate, epoch_len) = (24u64, 1_500u64, 0.3, 2.0, 16u64);
    let protocol = |name: &str, channels: u16| -> ScenarioBuilder {
        match name {
            "naive" => Scenario::naive(NaiveSpec { n, horizon }),
            "epidemic" => Scenario::epidemic(EpidemicSpec {
                n,
                horizon,
                listen_p,
                relay_rate,
            }),
            "hopping" => Scenario::hopping(HoppingSpec {
                n,
                horizon,
                listen_p,
                relay_rate,
            }),
            "epoch-hopping" => Scenario::epoch_hopping(EpochHoppingSpec {
                n,
                horizon,
                listen_p,
                relay_rate,
                epoch_len,
            }),
            other => unreachable!("unknown gossip protocol {other}"),
        }
        .channels(channels)
    };
    let mut cells = Vec::new();
    for strategy in GOSSIP_ZOO {
        for (name, channels) in [
            ("naive", 1),
            ("epidemic", 1),
            ("hopping", 1),
            ("hopping", 4),
            ("epoch-hopping", 1),
            ("epoch-hopping", 4),
        ] {
            cells.push((strategy, name, channels));
        }
    }
    for strategy in GOSSIP_CHANNEL_ZOO {
        cells.push((strategy, "hopping", 4));
        cells.push((strategy, "epoch-hopping", 4));
    }
    cells
        .into_iter()
        .map(|(strategy, name, channels)| {
            let builder = protocol(name, channels)
                .adversary(strategy)
                .carol_budget(GOSSIP_POOL);
            (format!("{name} {} C={channels}", strategy.name()), builder)
        })
        .collect()
}

/// `gossip_matches_pinned_digests`: (entry, outcome digest, engine
/// counter digest), each folded over seed {1, 2} × trace capacity
/// {0, 7}.
#[rustfmt::skip]
const GOSSIP_PINS: [(&str, u64, u64); 38] = [
    ("naive silent C=1", 0x3f46_c25e_11a0_b483, 0xc893_96d3_2501_4a05),
    ("epidemic silent C=1", 0x72f3_0611_7c33_b91b, 0xe6c7_a0af_52d9_619f),
    ("hopping silent C=1", 0x50ea_28ac_cb7e_9e71, 0xe6c7_a0af_52d9_619f),
    ("hopping silent C=4", 0x06bd_7ee5_91c3_7612, 0x0aff_f1c5_8e59_d5b8),
    ("epoch-hopping silent C=1", 0x9b16_0cba_9be4_c2cb, 0xe6c7_a0af_52d9_619f),
    ("epoch-hopping silent C=4", 0xd229_658a_6856_3287, 0x17a9_aea3_1bbb_b8c5),
    ("naive continuous C=1", 0x1ef1_2214_2ed6_80ff, 0xea85_e4ee_6529_ca2d),
    ("epidemic continuous C=1", 0x7ff2_1c26_e97b_ea07, 0x89ac_c6bb_5574_12bc),
    ("hopping continuous C=1", 0xee51_8ee5_90b3_e2d7, 0x89ac_c6bb_5574_12bc),
    ("hopping continuous C=4", 0x23b7_0c4a_b99d_466c, 0xb59c_7798_7092_4620),
    ("epoch-hopping continuous C=1", 0x7ea1_1e1e_08bf_2fcf, 0x89ac_c6bb_5574_12bc),
    ("epoch-hopping continuous C=4", 0xf137_b5cf_0cc5_5385, 0x6502_2028_71a8_242e),
    ("naive random(p=0.4) C=1", 0xbb85_e43a_5d12_30ed, 0xc893_96d3_2501_4a05),
    ("epidemic random(p=0.4) C=1", 0xfe26_7355_4802_3c2f, 0x0892_c18f_b670_361e),
    ("hopping random(p=0.4) C=1", 0xd3a3_5f97_9889_5a4b, 0x0892_c18f_b670_361e),
    ("hopping random(p=0.4) C=4", 0xf549_099d_b442_d9fa, 0x2278_b40c_2597_6d8b),
    ("epoch-hopping random(p=0.4) C=1", 0x4ae9_0d52_28d6_6187, 0x0892_c18f_b670_361e),
    ("epoch-hopping random(p=0.4) C=4", 0xc295_4c1d_14a2_38ac, 0x7eee_f5a6_7cd0_9141),
    ("naive bursty(16/48) C=1", 0xd485_d798_b757_f4bb, 0x8702_6004_efa4_864b),
    ("epidemic bursty(16/48) C=1", 0xebc5_d809_a072_6324, 0x49e0_075c_e109_9456),
    ("hopping bursty(16/48) C=1", 0x6e0e_a1db_be60_fc16, 0x49e0_075c_e109_9456),
    ("hopping bursty(16/48) C=4", 0x0afe_78f0_99c2_f2db, 0xa34a_7be0_a26b_ae21),
    ("epoch-hopping bursty(16/48) C=1", 0xb19a_8785_6263_32a0, 0x49e0_075c_e109_9456),
    ("epoch-hopping bursty(16/48) C=4", 0x3195_cba1_0ff7_f264, 0x23e0_5a84_f0cd_f5c6),
    ("naive lagged-reactive C=1", 0x3138_9c68_288d_a2f5, 0xc893_96d3_2501_4a05),
    ("epidemic lagged-reactive C=1", 0x7a5d_9d20_4c17_6327, 0xcf0e_4c7f_3db9_db12),
    ("hopping lagged-reactive C=1", 0x2274_266e_7f80_6ae1, 0xcf0e_4c7f_3db9_db12),
    ("hopping lagged-reactive C=4", 0x937d_caad_1d53_92d9, 0xe653_8eda_9645_6c40),
    ("epoch-hopping lagged-reactive C=1", 0xc26b_dd67_020e_019b, 0xcf0e_4c7f_3db9_db12),
    ("epoch-hopping lagged-reactive C=4", 0x41ff_479e_9710_6429, 0x1f65_b68e_9718_8930),
    ("hopping split-uniform C=4", 0x3d42_806b_2acb_0a89, 0xa8ac_1da2_7a8b_2186),
    ("epoch-hopping split-uniform C=4", 0xd444_7087_11b5_25c5, 0x88aa_becb_9f59_1fb5),
    ("hopping channel-sweep(dwell=8) C=4", 0xe256_2a08_954a_7981, 0xf816_3554_9f00_ef66),
    ("epoch-hopping channel-sweep(dwell=8) C=4", 0xe96e_1d60_8ad8_bb74, 0x0c15_9929_0303_4605),
    ("hopping channel-lagged C=4", 0x4d0b_af7c_3523_ca16, 0xbde0_548b_6dcc_58f5),
    ("epoch-hopping channel-lagged C=4", 0x9859_88e0_f02e_a7da, 0x935b_986e_2e43_bf2e),
    ("hopping adaptive(w=8,r=0.5) C=4", 0x5949_a779_26ee_8654, 0x94a0_711b_b31c_5289),
    ("epoch-hopping adaptive(w=8,r=0.5) C=4", 0x1db3_c43e_686e_2f98, 0xf4a9_3b9e_9ebd_65f4),
];

#[test]
fn gossip_matches_pinned_digests() {
    // One entry per (protocol, strategy, C): an FNV-1a digest of the
    // rendered outcomes (trace included, telemetry stripped) and one of
    // the `Engine*` counters a recording collector saw, each folded over
    // seed {1, 2} × trace capacity {0, 7}. The runs loop entries
    // innermost, all through one scratch.
    let counter_ids = [
        MetricId::EngineSlots,
        MetricId::EngineWakeDrains,
        MetricId::EngineWakeDrained,
        MetricId::EngineListenerPasses,
        MetricId::EngineListenersResolved,
        MetricId::EngineInertSlots,
        MetricId::EngineSettledListens,
        MetricId::EngineRngDraws,
        MetricId::EngineAdversaryPlans,
    ];
    let entries = gossip_entries();
    let mut hashes = vec![[0xcbf2_9ce4_8422_2325u64; 2]; entries.len()];
    let mut scratch = ScenarioScratch::new();
    for seed in [1u64, 2] {
        for trace in [0usize, 7] {
            for ((label, builder), [outcomes, counters]) in entries.iter().zip(&mut hashes) {
                let collector = Arc::new(RecordingCollector::new());
                let mut builder = builder.clone().telemetry(collector.clone());
                if trace > 0 {
                    builder = builder.trace(trace);
                }
                let scenario = builder.build().expect("valid gossip cell");
                let mut outcome = scenario.run_in(&mut scratch, seed);
                if !label.contains("silent") {
                    assert_eq!(
                        outcome.carol_spend(),
                        GOSSIP_POOL,
                        "{label} seed={seed}: pool not spent"
                    );
                }
                outcome.telemetry = None;
                *outcomes = fnv1a(*outcomes, format!("{outcome:?}").as_bytes());
                let counts = counter_ids.map(|id| collector.counter(id));
                *counters = fnv1a(*counters, format!("{counts:?}").as_bytes());
            }
        }
    }
    let actual: Vec<(String, u64, u64)> = entries
        .into_iter()
        .zip(hashes)
        .map(|((label, _), [outcomes, counters])| (label, outcomes, counters))
        .collect();
    let expected: Vec<(String, u64, u64)> = GOSSIP_PINS
        .iter()
        .map(|&(label, outcomes, counters)| (label.to_string(), outcomes, counters))
        .collect();
    assert_eq!(actual, expected, "gossip digests drifted");
}

/// One direct run of the exact driver under a [`Probe`] that does not
/// want listener identities.
struct ProbedRun {
    /// The rendered run and its length (see [`render_run`]).
    run: (String, u64),
    /// The probe's traffic digest.
    traffic: u64,
    /// The last slot Carol planned with budget left.
    solvent_until: Option<u64>,
    /// Operations refused for lack of budget, over all participants.
    refusals: u64,
}

fn probed_run(params: &Params, adversary: Box<dyn Adversary>, config: &RunConfig) -> ProbedRun {
    let mut probe = Probe::new(adversary, false);
    let (outcome, report) = BroadcastSoaScratch::new().run(params, &mut probe, config);
    ProbedRun {
        run: render_run(&outcome, &report),
        traffic: probe.traffic,
        solvent_until: probe.solvent_until,
        refusals: report.participant_refusals.iter().sum(),
    }
}

/// `wide_broadcast_matches_pinned_digests`: (strategy, params variant,
/// digest) of ε-BROADCAST at n = 512 with a 2,000-unit Carol, folded
/// over seed {1, 2} × trace capacity {0, 7}. Each run contributes its
/// rendered outcome and report and its traffic digest.
#[rustfmt::skip]
const WIDE_PINS: [(&str, &str, u64); 14] = [
    ("continuous", "plain", 0x053d_3c8a_dab7_c6b7),
    ("continuous", "overestimate", 0x4f22_61b8_e298_5621),
    ("block-request(β=0.5)", "plain", 0x49bb_647c_24ea_42a5),
    ("block-request(β=0.5)", "overestimate", 0x0978_34da_fa1d_d703),
    ("block-request(β=0.5)", "starved", 0x90e1_03db_0234_3705),
    ("spoof(rate=0.3)", "plain", 0x557f_3d71_11c9_3b3d),
    ("spoof(rate=0.3)", "overestimate", 0x9672_0352_2e53_6771),
    ("spoof(rate=0.3)", "starved", 0x37ad_1248_7ac1_0389),
    ("reactive", "plain", 0xe350_246d_5687_22a3),
    ("reactive", "overestimate", 0x6bd7_e8f4_978a_d91b),
    ("continuous", "early", 0x4aca_78d7_5b82_3a7d),
    ("block-request(β=0.5)", "early", 0x52a0_20e6_0964_6923),
    ("spoof(rate=0.3)", "early", 0xc32b_45b9_8c0c_4ce5),
    ("reactive", "early", 0x1327_ab85_54f2_8f81),
];

#[test]
fn wide_broadcast_matches_pinned_digests() {
    // At n = 512 a request phase holds hundreds of devices for up to
    // 512 slots of rounds 1-6. A 2,000-unit pool runs dry inside a
    // request phase (the continuous jammer in round 6's), so the slots
    // skipped as dead air start part-way through one. The ν = n²
    // overestimate's first g-loop subsegment nacks with p = 1/2; the
    // starved variant refuses actions part-way through a phase. (Starved
    // nodes under a jammer that spends from slot 0 make the slowest
    // runs, so those two cells are left out.) Judgements start in round
    // 8 by default, when noise is rare; the early variant judges from
    // round 4 on, while the pool still lasts, so every round's verdict
    // rides on the noise its listeners counted.
    let cells = [
        (StrategySpec::Continuous, "plain"),
        (StrategySpec::Continuous, "overestimate"),
        (StrategySpec::BlockRequest(0.5), "plain"),
        (StrategySpec::BlockRequest(0.5), "overestimate"),
        (StrategySpec::BlockRequest(0.5), "starved"),
        (StrategySpec::Spoof(0.3), "plain"),
        (StrategySpec::Spoof(0.3), "overestimate"),
        (StrategySpec::Spoof(0.3), "starved"),
        (StrategySpec::Reactive, "plain"),
        (StrategySpec::Reactive, "overestimate"),
        (StrategySpec::Continuous, "early"),
        (StrategySpec::BlockRequest(0.5), "early"),
        (StrategySpec::Spoof(0.3), "early"),
        (StrategySpec::Reactive, "early"),
    ];
    let mut actual = Vec::new();
    let mut dry_in_request = 0;
    let mut starved_refusals = 0;
    for (strategy, variant) in cells {
        let params = variant_params(variant, 512);
        let schedule = RoundSchedule::new(&params);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for seed in [1u64, 2] {
            let label = format!("{} {variant} seed={seed}", strategy.name());
            let run = |trace: usize| {
                let config = RunConfig::seeded(seed)
                    .carol_budget(Budget::limited(2_000))
                    .trace(trace);
                probed_run(&params, strategy.slot_adversary(&params, seed), &config)
            };
            let plain = run(0);
            let traced = run(7);
            assert_eq!(plain.run, traced.run, "{label}: the traced run differs");
            assert_eq!(plain.traffic, traced.traffic, "{label}: traffic differs");
            // The traced run plans every slot, so the pool ran dry in the
            // last slot it was solvent for.
            if let Some(last) = traced.solvent_until {
                let position = schedule.locate(last);
                if position.phase == PhaseKind::Request && position.offset > 0 {
                    dry_in_request += 1;
                }
            }
            if variant == "starved" {
                starved_refusals += plain.refusals;
            }
            for run in [&plain, &traced] {
                let rendered = format!("{:?} {}", run.run, run.traffic);
                hash = fnv1a(hash, rendered.as_bytes());
            }
        }
        actual.push((strategy.name(), variant, hash));
    }
    assert!(dry_in_request > 0, "no pool ran dry inside a request phase");
    assert!(starved_refusals > 0, "the starved variant never ran dry");
    let expected: Vec<(String, &str, u64)> = WIDE_PINS
        .iter()
        .map(|&(name, variant, hash)| (name.to_string(), variant, hash))
        .collect();
    assert_eq!(actual, expected, "wide ε-BROADCAST digests drifted");
}

/// Jams every request slot with a jam that picks listeners over a fixed
/// id set: `Only` the set in even rounds, `AllExcept` it in odd ones.
/// Idle elsewhere. In an empty request slot, the listeners the jam picks
/// hear noise and the others silence. With `uniform` set it jams every
/// listener instead, at the same cost.
struct TargetedRequestJammer {
    schedule: RoundSchedule,
    targets: IdSet,
    uniform: bool,
}

impl Adversary for TargetedRequestJammer {
    fn plan(&mut self, slot: Slot, _: &AdversaryCtx) -> AdversaryMove {
        let position = self.schedule.locate(slot.index());
        if position.phase != PhaseKind::Request {
            return AdversaryMove::idle();
        }
        let targets = self.targets.clone();
        let directive = if self.uniform {
            JamDirective::All
        } else if position.round.is_multiple_of(2) {
            JamDirective::Only(targets)
        } else {
            JamDirective::AllExcept(targets)
        };
        AdversaryMove {
            jam: directive.into(),
            sends: Vec::new(),
        }
    }
}

#[test]
fn targeted_request_jams_resolve_per_listener() {
    // No zoo strategy picks listeners in a request phase, so this jammer
    // does: the nodes it picks count noise that the others do not, and
    // their termination judgements part ways. Traced runs materialize
    // every listener; untraced ones may settle listens that no frame can
    // reach, but must resolve a jam that picks listeners one by one. The
    // same jam made uniform must change some runs, or the check is blind.
    let targets: IdSet = [0u32, 1, 2, 3, 5, 8, 13, 21, 34, 55]
        .into_iter()
        .map(ParticipantId::new)
        .collect();
    for variant in ["plain", "overestimate"] {
        for n in [24u64, 64] {
            let params = variant_params(variant, n);
            for budget in [Budget::unlimited(), Budget::limited(1_000)] {
                for seed in [1u64, 2, 3] {
                    let label = format!("{variant} n={n} {budget:?} seed={seed}");
                    let run = |trace: usize, uniform: bool| {
                        let jammer = TargetedRequestJammer {
                            schedule: RoundSchedule::new(&params),
                            targets: targets.clone(),
                            uniform,
                        };
                        let config = RunConfig::seeded(seed).carol_budget(budget).trace(trace);
                        probed_run(&params, Box::new(jammer), &config)
                    };
                    let plain = run(0, false);
                    let traced = run(7, false);
                    assert_eq!(plain.run, traced.run, "{label}: the traced run differs");
                    assert_eq!(plain.traffic, traced.traffic, "{label}: traffic differs");
                    let uniform = run(7, true);
                    assert_ne!(
                        uniform.run, traced.run,
                        "{label}: the targets are invisible"
                    );
                }
            }
        }
    }
}
