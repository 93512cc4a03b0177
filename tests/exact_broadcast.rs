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
//! distributed, so that table does not compare them. A tail table pins
//! the stretch after a gossip run's last uninformed node is informed,
//! when only Alice and the relays still act, at its edges: Carol solvent
//! or broke when it starts, pools that run dry inside it, stretches that
//! start on an epoch boundary, empty and one-node rosters, and runs
//! longer than the driver's windows. Each entry's report, jammed and
//! noisy slot counts included, must also equal that of the same run
//! kept in the per-slot loop for as long as Carol's pool lasts.

use std::sync::{Arc, OnceLock};

use evildoers::adversary::StrategySpec;
use evildoers::baselines::{execute_kpsy, KpsyConfig};
use evildoers::core::{
    run_gossip_with, BroadcastSoaScratch, DecoyConfig, Params, PhaseKind, RoundSchedule, RunConfig,
    SizeKnowledge,
};
use evildoers::radio::{
    Adversary, AdversaryCtx, AdversaryMove, Budget, GossipSoaScratch, GossipSpec, IdSet,
    JamDirective, ParticipantId, RunReport, Slot, SlotObservation, Spectrum,
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
    ("naive silent C=1", 0x3f46_c25e_11a0_b483, 0xdb37_6f19_2674_3d2d),
    ("epidemic silent C=1", 0x72f3_0611_7c33_b91b, 0xb58c_2bc2_9fc2_71d1),
    ("hopping silent C=1", 0x50ea_28ac_cb7e_9e71, 0xb58c_2bc2_9fc2_71d1),
    ("hopping silent C=4", 0x06bd_7ee5_91c3_7612, 0x5189_8de7_95aa_6407),
    ("epoch-hopping silent C=1", 0x9b16_0cba_9be4_c2cb, 0xb58c_2bc2_9fc2_71d1),
    ("epoch-hopping silent C=4", 0xd229_658a_6856_3287, 0x5ecf_9354_9bc2_f4fc),
    ("naive continuous C=1", 0x1ef1_2214_2ed6_80ff, 0xfc96_987d_aaf6_9e0d),
    ("epidemic continuous C=1", 0x7ff2_1c26_e97b_ea07, 0x456c_d8e5_f941_76e9),
    ("hopping continuous C=1", 0xee51_8ee5_90b3_e2d7, 0x456c_d8e5_f941_76e9),
    ("hopping continuous C=4", 0x23b7_0c4a_b99d_466c, 0x6b48_65ae_d49a_c85d),
    ("epoch-hopping continuous C=1", 0x7ea1_1e1e_08bf_2fcf, 0x456c_d8e5_f941_76e9),
    ("epoch-hopping continuous C=4", 0xf137_b5cf_0cc5_5385, 0x598f_b81e_45c5_bf0f),
    ("naive random(p=0.4) C=1", 0xbb85_e43a_5d12_30ed, 0xc4b7_a0dd_6bed_641d),
    ("epidemic random(p=0.4) C=1", 0xfe26_7355_4802_3c2f, 0xefb6_18e7_5126_8f26),
    ("hopping random(p=0.4) C=1", 0xd3a3_5f97_9889_5a4b, 0xefb6_18e7_5126_8f26),
    ("hopping random(p=0.4) C=4", 0xf549_099d_b442_d9fa, 0x75e3_ed73_1c8e_0139),
    ("epoch-hopping random(p=0.4) C=1", 0x4ae9_0d52_28d6_6187, 0xefb6_18e7_5126_8f26),
    ("epoch-hopping random(p=0.4) C=4", 0xc295_4c1d_14a2_38ac, 0xe8d0_7cb4_7881_055e),
    ("naive bursty(16/48) C=1", 0xd485_d798_b757_f4bb, 0x5189_32fd_0628_3811),
    ("epidemic bursty(16/48) C=1", 0xebc5_d809_a072_6324, 0x002d_3e2a_93c1_bb5c),
    ("hopping bursty(16/48) C=1", 0x6e0e_a1db_be60_fc16, 0x002d_3e2a_93c1_bb5c),
    ("hopping bursty(16/48) C=4", 0x0afe_78f0_99c2_f2db, 0xf5b6_10d0_b6e7_1e0d),
    ("epoch-hopping bursty(16/48) C=1", 0xb19a_8785_6263_32a0, 0x002d_3e2a_93c1_bb5c),
    ("epoch-hopping bursty(16/48) C=4", 0x3195_cba1_0ff7_f264, 0x7c3e_752e_e2df_d44a),
    ("naive lagged-reactive C=1", 0x3138_9c68_288d_a2f5, 0xa476_3467_dc60_a441),
    ("epidemic lagged-reactive C=1", 0x7a5d_9d20_4c17_6327, 0x5350_1a12_5c22_3f32),
    ("hopping lagged-reactive C=1", 0x2274_266e_7f80_6ae1, 0x5350_1a12_5c22_3f32),
    ("hopping lagged-reactive C=4", 0x937d_caad_1d53_92d9, 0xc4fd_dfed_bc43_6a65),
    ("epoch-hopping lagged-reactive C=1", 0xc26b_dd67_020e_019b, 0x5350_1a12_5c22_3f32),
    ("epoch-hopping lagged-reactive C=4", 0x41ff_479e_9710_6429, 0xa0fb_231c_265c_8404),
    ("hopping split-uniform C=4", 0x3d42_806b_2acb_0a89, 0x788b_22fa_f27f_388c),
    ("epoch-hopping split-uniform C=4", 0xd444_7087_11b5_25c5, 0x9e42_f71a_c6d1_ab49),
    ("hopping channel-sweep(dwell=8) C=4", 0xe256_2a08_954a_7981, 0xa2cd_714b_2333_5592),
    ("epoch-hopping channel-sweep(dwell=8) C=4", 0xe96e_1d60_8ad8_bb74, 0x7de0_56af_8354_ea1e),
    ("hopping channel-lagged C=4", 0x4d0b_af7c_3523_ca16, 0x3011_3b07_e979_c5ab),
    ("epoch-hopping channel-lagged C=4", 0x9859_88e0_f02e_a7da, 0x9951_9cfa_9d9b_678f),
    ("hopping adaptive(w=8,r=0.5) C=4", 0x5949_a779_26ee_8654, 0x7b7a_7d6d_0297_693c),
    ("epoch-hopping adaptive(w=8,r=0.5) C=4", 0x1db3_c43e_686e_2f98, 0x768b_532b_0e1c_4b57),
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

/// One entry of the gossip tail table: a `Scenario` cell and the same
/// run as the driver's `GossipSpec` row.
struct TailEntry {
    label: String,
    builder: ScenarioBuilder,
    row: GossipSpec,
    channels: u16,
    strategy: StrategySpec,
    budget: Budget,
}

/// The gossip tail table's entries, in pin order.
///
/// Each reaches an edge of the stretch after the last uninformed node
/// is informed, when only Alice and the relays still act: a pool that
/// is solvent when that stretch starts and runs dry inside a later
/// burst, unlimited `Continuous` and `Bursty` pools (which never run
/// dry), a stretch that starts on an epoch boundary (`L = 1`, where
/// every slot is one), naive mode (Alice alone), epidemic gossip with
/// no relays, rosters of 0 and 1 nodes, C ∈ {1, 4}, strategies that
/// promise nothing ahead (random, lagged-reactive, split-uniform,
/// adaptive), and two runs of 10,000 slots.
fn gossip_tail_entries() -> Vec<TailEntry> {
    let naive = |n, horizon| {
        let cell = Scenario::naive(NaiveSpec { n, horizon });
        (cell, GossipSpec::naive(n, horizon), 1)
    };
    let epidemic = |n, horizon, relay_rate| {
        let cell = Scenario::epidemic(EpidemicSpec {
            n,
            horizon,
            listen_p: 0.5,
            relay_rate,
        });
        (cell, GossipSpec::epidemic(n, horizon, 0.5, relay_rate), 1)
    };
    let hopping = |n, horizon, c| {
        let cell = Scenario::hopping(HoppingSpec::new(n, horizon)).channels(c);
        (cell, GossipSpec::hopping(n, horizon, 0.5, 1.0), c)
    };
    let epoch = |n, horizon, epoch_len, c| {
        let cell =
            Scenario::epoch_hopping(EpochHoppingSpec::new(n, horizon, epoch_len)).channels(c);
        (
            cell,
            GossipSpec::epoch_hopping(n, horizon, 0.5, 1.0, epoch_len),
            c,
        )
    };
    let (silent, continuous) = (StrategySpec::Silent, StrategySpec::Continuous);
    let bursty = StrategySpec::Bursty { burst: 16, gap: 48 };
    let adaptive = StrategySpec::Adaptive {
        window: 8,
        reactivity: 0.5,
    };
    // (label, (cell, row, C), strategy, Carol's pool; `None` is unlimited)
    type Run = (ScenarioBuilder, GossipSpec, u16);
    #[rustfmt::skip]
    let cells: Vec<(&str, Run, StrategySpec, Option<u64>)> = vec![
        ("naive n=16", naive(16, 400), silent, None),
        ("naive n=16", naive(16, 400), continuous, Some(50)),
        ("naive n=16", naive(16, 400), bursty, None),
        ("naive n=0", naive(0, 300), continuous, Some(100)),
        ("epidemic relay=0 n=8", epidemic(8, 600, 0.0), silent, None),
        ("epidemic n=4", epidemic(4, 400, 2.0), bursty, Some(40)),
        ("epidemic n=8", epidemic(8, 600, 2.0), bursty, None),
        ("epidemic n=0", epidemic(0, 300, 1.0), continuous, None),
        ("epidemic n=1", epidemic(1, 500, 1.0), StrategySpec::LaggedReactive, Some(30)),
        ("epidemic n=8", epidemic(8, 600, 2.0), StrategySpec::Random(0.4), Some(30)),
        ("hopping n=8 C=4", hopping(8, 800, 4), continuous, None),
        ("hopping n=8 C=4", hopping(8, 800, 4), bursty, None),
        ("hopping n=1 C=4", hopping(1, 500, 4), silent, None),
        ("hopping n=8 C=4", hopping(8, 800, 4), StrategySpec::SplitUniform, Some(60)),
        ("hopping n=8 C=1", hopping(8, 800, 1), bursty, Some(40)),
        ("epoch-hopping L=1 n=8 C=4", epoch(8, 600, 1, 4), silent, None),
        ("epoch-hopping L=1 n=8 C=4", epoch(8, 600, 1, 4), continuous, Some(20)),
        ("epoch-hopping L=16 n=8 C=4", epoch(8, 800, 16, 4), continuous, None),
        ("epoch-hopping L=16 n=4 C=4", epoch(4, 800, 16, 4), bursty, Some(40)),
        ("epoch-hopping L=16 n=0 C=4", epoch(0, 300, 16, 4), silent, None),
        ("epoch-hopping L=8 n=8 C=4", epoch(8, 800, 8, 4), adaptive, Some(60)),
        ("epoch-hopping L=16 n=8 C=1", epoch(8, 800, 16, 1), bursty, None),
        ("epidemic long n=8", epidemic(8, 10_000, 2.0), bursty, None),
        ("epoch-hopping long L=16 n=8 C=4", epoch(8, 10_000, 16, 4), continuous, Some(3_000)),
    ];
    cells
        .into_iter()
        .map(|(label, (builder, row, channels), strategy, pool)| {
            let builder = builder.adversary(strategy);
            let (builder, budget, pool) = match pool {
                Some(units) => (
                    builder.carol_budget(units),
                    Budget::limited(units),
                    format!("pool={units}"),
                ),
                None => (
                    builder.carol_unlimited(),
                    Budget::unlimited(),
                    "unlimited".to_string(),
                ),
            };
            TailEntry {
                label: format!("{label} {} {pool}", strategy.name()),
                builder,
                row,
                channels,
                strategy,
                budget,
            }
        })
        .collect()
}

/// `gossip_tail_matches_pinned_digests`: (entry, outcome digest, engine
/// counter digest), each folded over seed {1, 2} × trace capacity
/// {0, 7}.
#[rustfmt::skip]
const GOSSIP_TAIL_PINS: [(&str, u64, u64); 24] = [
    ("naive n=16 silent unlimited", 0x73ea_365a_ccd9_f29f, 0xb31c_7a39_d106_ab69),
    ("naive n=16 continuous pool=50", 0x0214_86b3_2952_d5a3, 0x1064_a4a8_eb4b_7c65),
    ("naive n=16 bursty(16/48) unlimited", 0x17d8_abea_b0ac_9011, 0xf031_fca4_59ef_1c2b),
    ("naive n=0 continuous pool=100", 0x3fe4_1356_289d_98e7, 0x615b_e41e_c173_7b4d),
    ("epidemic relay=0 n=8 silent unlimited", 0x7c07_75fa_14be_830a, 0x6376_dfe0_0173_63fd),
    ("epidemic n=4 bursty(16/48) pool=40", 0x271e_a893_3cf9_e53c, 0xbddc_ef64_79da_f4b2),
    ("epidemic n=8 bursty(16/48) unlimited", 0x5b5c_b105_4d7e_5d80, 0xa415_f12e_e07e_a2ef),
    ("epidemic n=0 continuous unlimited", 0xd040_b7ec_9742_d6a4, 0xd981_f07a_6cf1_5155),
    ("epidemic n=1 lagged-reactive pool=30", 0xf59c_740d_f194_830a, 0x26d4_2c68_6855_21e4),
    ("epidemic n=8 random(p=0.4) pool=30", 0xa91c_88b9_455b_7679, 0xd499_a05a_93f6_ebcf),
    ("hopping n=8 C=4 continuous unlimited", 0xacc7_14f8_4022_db4f, 0x31a5_d336_7c34_690e),
    ("hopping n=8 C=4 bursty(16/48) unlimited", 0x577a_29d7_6a06_1e15, 0x7ac7_2239_7a80_e71d),
    ("hopping n=1 C=4 silent unlimited", 0x5b32_bd6f_7160_31f9, 0x1ad9_75df_b75f_8d9f),
    ("hopping n=8 C=4 split-uniform pool=60", 0x5c6d_f736_b278_fd21, 0x1e16_c351_1741_9a4d),
    ("hopping n=8 C=1 bursty(16/48) pool=40", 0x85f1_b6b6_8029_0f4d, 0x2201_b0a4_395f_a0cd),
    ("epoch-hopping L=1 n=8 C=4 silent unlimited", 0x5253_2806_0a8e_7220, 0xd6b1_e855_e1dd_9636),
    ("epoch-hopping L=1 n=8 C=4 continuous pool=20", 0xedf2_5f45_6e4f_29bf, 0xd944_192f_4c65_ae18),
    ("epoch-hopping L=16 n=8 C=4 continuous unlimited", 0xeb5d_0a06_28ef_2a5c, 0x36e8_51d9_02c3_baf1),
    ("epoch-hopping L=16 n=4 C=4 bursty(16/48) pool=40", 0x0e2b_976e_4bd3_a9f8, 0x2fc0_a5b7_031e_7ef7),
    ("epoch-hopping L=16 n=0 C=4 silent unlimited", 0x4723_f028_90e6_d379, 0x591e_e1b6_1dc0_9831),
    ("epoch-hopping L=8 n=8 C=4 adaptive(w=8,r=0.5) pool=60", 0xd41e_28af_4e66_19b8, 0x9614_d2ea_b0d2_01e6),
    ("epoch-hopping L=16 n=8 C=1 bursty(16/48) unlimited", 0x8c8e_d3f0_9985_c973, 0x2201_b0a4_395f_a0cd),
    ("epidemic long n=8 bursty(16/48) unlimited", 0xa94b_8014_b524_e93c, 0x7c93_df41_9223_a32a),
    ("epoch-hopping long L=16 n=8 C=4 continuous pool=3000", 0xef9f_91d3_cc94_e52b, 0xaacb_07f6_744d_619b),
];

#[test]
fn gossip_tail_matches_pinned_digests() {
    // Most of a gossip run can come after its last uninformed node is
    // informed: Alice and the relays keep sending to nobody until the
    // horizon. One entry per tail edge (see `gossip_tail_entries`): an
    // FNV-1a digest of the rendered outcomes (trace included, telemetry
    // stripped) and one of the six `Engine*` counters that count the
    // run's own work, each folded over seed {1, 2} × trace capacity
    // {0, 7}, all through one scratch. Every outcome must keep the
    // ledger's identities.
    let counter_ids = [
        MetricId::EngineSlots,
        MetricId::EngineListenerPasses,
        MetricId::EngineListenersResolved,
        MetricId::EngineInertSlots,
        MetricId::EngineSettledListens,
        MetricId::EngineRngDraws,
    ];
    let entries = gossip_tail_entries();
    let mut hashes = vec![[0xcbf2_9ce4_8422_2325u64; 2]; entries.len()];
    let mut scratch = ScenarioScratch::new();
    for seed in [1u64, 2] {
        for trace in [0usize, 7] {
            for (entry, [outcomes, counters]) in entries.iter().zip(&mut hashes) {
                let collector = Arc::new(RecordingCollector::new());
                let mut builder = entry.builder.clone().telemetry(collector.clone());
                if trace > 0 {
                    builder = builder.trace(trace);
                }
                let scenario = builder.build().expect("valid gossip cell");
                let mut outcome = scenario.run_in(&mut scratch, seed);
                if let Err(broken) = outcome.check_invariants(entry.budget) {
                    panic!("{} seed={seed} trace={trace}: {broken}", entry.label);
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
        .map(|(entry, [outcomes, counters])| (entry.label, outcomes, counters))
        .collect();
    let expected: Vec<(String, u64, u64)> = GOSSIP_TAIL_PINS
        .iter()
        .map(|&(label, outcomes, counters)| (label.to_string(), outcomes, counters))
        .collect();
    assert_eq!(actual, expected, "gossip tail digests drifted");
}

/// Forwards to a zoo adversary but claims the in-slot RSSI capability,
/// which the gossip driver never asks for a commitment: its runs leave
/// the per-slot loop only once Carol's pool is spent. Its `react` keeps
/// the plan unless the adversary it wraps is reactive itself.
struct PerSlot(Box<dyn Adversary>);

impl Adversary for PerSlot {
    fn plan(&mut self, slot: Slot, ctx: &AdversaryCtx) -> AdversaryMove {
        self.0.plan(slot, ctx)
    }

    fn react(&mut self, slot: Slot, activity: bool, planned: AdversaryMove) -> AdversaryMove {
        if self.0.is_reactive() {
            self.0.react(slot, activity, planned)
        } else {
            planned
        }
    }

    fn is_reactive(&self) -> bool {
        true
    }

    fn observe(&mut self, slot: Slot, observation: &SlotObservation<'_>) {
        self.0.observe(slot, observation);
    }

    fn wants_listener_identities(&self) -> bool {
        self.0.wants_listener_identities()
    }
}

#[test]
fn gossip_tail_settles_what_the_per_slot_loop_would() {
    // The tail table's digests see the outcome, not the report's jammed
    // and noisy slot counts. So every entry also runs on the driver
    // directly, untraced, twice: as is, and with Carol behind `PerSlot`,
    // which keeps the run in the per-slot loop while her pool lasts. The
    // two reports must agree on everything. Where her pool is unlimited
    // and her strategy commits (silent, continuous, bursty), the first
    // run must have settled its tail under her commitments: it planned
    // fewer slots.
    let mut scratch = GossipSoaScratch::new();
    for entry in gossip_tail_entries() {
        let spectrum = Spectrum::new(entry.channels);
        for seed in [1u64, 2] {
            let mut run = |per_slot: bool| {
                let carol = entry
                    .strategy
                    .schedule_free_slot_adversary_on(spectrum, seed)
                    .expect("schedule-free strategy");
                let mut carol: Box<dyn Adversary> = if per_slot {
                    Box::new(PerSlot(carol))
                } else {
                    carol
                };
                let collector = RecordingCollector::new();
                let (outcome, report) = run_gossip_with(
                    &entry.row,
                    spectrum,
                    entry.budget,
                    0,
                    carol.as_mut(),
                    seed,
                    &mut scratch,
                    &collector,
                );
                let plans = collector.counter(MetricId::EngineAdversaryPlans);
                (render_run(&outcome, &report), plans)
            };
            let (tail, plans) = run(false);
            let (per_slot, per_slot_plans) = run(true);
            let label = format!("{} seed={seed}", entry.label);
            assert_eq!(tail, per_slot, "{label}");
            let commits = matches!(
                entry.strategy,
                StrategySpec::Silent | StrategySpec::Continuous | StrategySpec::Bursty { .. }
            );
            if commits && entry.budget == Budget::unlimited() {
                assert!(
                    plans < per_slot_plans,
                    "{label}: {plans} plans against {per_slot_plans}"
                );
            }
        }
    }
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
