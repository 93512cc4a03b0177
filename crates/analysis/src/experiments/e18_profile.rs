//! E18 — engine-tier observability profile: where jammed runs spend
//! their work.
//!
//! PR 7's era-2 engine brought the exact jammed ε-BROADCAST run to
//! roughly 45 ns per *action* (a slot advanced, a pending wakeup
//! drained, a listener resolved, an RNG draw, an adversary plan) — but
//! that number was only ever measured from the outside, as wall time
//! over a black box. This experiment turns the `rcb-telemetry`
//! instrumentation inward and **localizes** the cost: a
//! `RecordingCollector` rides along a jammed run on each of the three
//! engine tiers and the flushed work counters say how many of each
//! action the run actually performed, so the wall time decomposes into
//! per-subsystem rates instead of one opaque ns/run figure.
//!
//! Three tiers, three shapes of ledger:
//!
//! * **exact (era 2)** — the `EngineProfile` counters: slots, wake-queue
//!   drains (and the drained-batch histogram), listener passes vs
//!   listeners resolved, inert slots, settled listens, RNG draws,
//!   adversary plans. The interesting ratios are *skip efficiencies*:
//!   what fraction of slots was inert (no frame could reach a listener,
//!   so the slot's listens were settled in bulk instead of resolved),
//!   and how many listeners each pass resolved.
//! * **fast** — per-phase aggregates: phases, newly-informed flow, and
//!   the jam ledger (requested vs executed, whose gap is Carol's budget
//!   fizzle).
//! * **fast_mc** — the same phase ledger across a `C`-channel spectrum,
//!   where the jam request is a per-channel plan and the fizzle is the
//!   budget clamp acting on its sum.
//!
//! Telemetry is observational (the neutrality suite pins byte-identical
//! outcomes), so these ledgers describe exactly the runs the rest of the
//! reproduction measures.
//!
//! At full scale E18 also gates what the seam costs when nobody records:
//! an attached `NoopCollector` may add at most 2 % per trial over no
//! collector, on an exact and a fast_mc shape. Smoke scale times nothing.

use std::sync::Arc;
use std::time::Instant;

use rcb_core::Params;
use rcb_sim::{Engine, HoppingSpec, Scenario, ScenarioBuilder, StrategySpec};
use rcb_telemetry::{Collector, EngineTier, MetricId, NoopCollector, RecordingCollector};

use super::{must_provision, per_trial_ns, ExperimentReport, Scale};
use crate::table::fmt_f;
use crate::Table;

struct Plan {
    /// Receiver count of the exact-engine jammed broadcast.
    exact_n: u64,
    exact_budget: u64,
    /// Receiver count of the fast-tier runs.
    fast_n: u64,
    fast_budget: u64,
    channels: u16,
    trials: u32,
}

fn plan(scale: Scale) -> Plan {
    match scale {
        Scale::Smoke => Plan {
            exact_n: 48,
            exact_budget: 1_000,
            fast_n: 1 << 12,
            fast_budget: 20_000,
            channels: 4,
            trials: 4,
        },
        Scale::Full => Plan {
            exact_n: 1 << 10,
            exact_budget: 20_000,
            fast_n: 1 << 16,
            fast_budget: 200_000,
            channels: 8,
            trials: 16,
        },
    }
}

/// One tier's measured ledger: the collector after `trials` runs, plus
/// wall time.
struct TierProfile {
    tier: EngineTier,
    collector: Arc<RecordingCollector>,
    elapsed_ns: u64,
    trials: u32,
}

fn profile(tier: EngineTier, trials: u32, builder: ScenarioBuilder) -> TierProfile {
    let collector = Arc::new(RecordingCollector::new());
    let scenario = builder
        .telemetry(collector.clone())
        .build()
        .expect("E18 configurations are valid");
    let start = Instant::now();
    let outcomes = scenario.run_batch(trials);
    let elapsed_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    assert_eq!(outcomes.len(), trials as usize);
    TierProfile {
        tier,
        collector,
        elapsed_ns,
        trials,
    }
}

impl TierProfile {
    fn counter(&self, id: MetricId) -> u64 {
        self.collector.counter(id)
    }

    /// Total countable actions this tier's ledger attributes the wall
    /// time to.
    fn actions(&self) -> u64 {
        match self.tier {
            EngineTier::Exact => {
                self.counter(MetricId::EngineSlots)
                    + self.counter(MetricId::EngineWakeDrained)
                    + self.counter(MetricId::EngineListenersResolved)
                    + self.counter(MetricId::EngineRngDraws)
                    + self.counter(MetricId::EngineAdversaryPlans)
            }
            EngineTier::Fast | EngineTier::FastMc => {
                // The phase-level engines' unit of work is the phase; the
                // informed/jam counters are outputs, not work items.
                self.counter(MetricId::FastPhases)
            }
            EngineTier::Fluid => self.counter(MetricId::FluidPhases),
        }
    }

    fn ns_per_action(&self) -> f64 {
        self.elapsed_ns as f64 / self.actions().max(1) as f64
    }
}

/// The attached-noop gate: an attached [`NoopCollector`] may cost at most
/// this many percent per trial over no collector, on both timed shapes.
const MAX_NOOP_OVERHEAD_PCT: f64 = 2.0;
/// Interleaved repetitions of the overhead timing. Each variant keeps its
/// minimum: overhead can only add time, so minima compare the floors.
const NOOP_GATE_REPS: u32 = 11;

/// One timed shape of the overhead gate: the per-trial floors with no
/// collector, an attached noop and a recording collector, in that order.
struct OverheadFloors {
    shape: &'static str,
    floors_ns: [u128; 3],
}

impl OverheadFloors {
    /// A variant's floor over the no-collector floor.
    fn ratio(&self, variant: usize) -> f64 {
        self.floors_ns[variant] as f64 / self.floors_ns[0].max(1) as f64
    }

    fn noop_within_gate(&self) -> bool {
        self.ratio(1) <= 1.0 + MAX_NOOP_OVERHEAD_PCT / 100.0
    }
}

/// Times the gate's two shapes, exact jammed ε-BROADCAST (one trial per
/// timing) and fast_mc hopping (eight). Every repetition times the three
/// variants interleaved, so slow drift (thermal, CPU frequency) hits all
/// three alike.
fn noop_overhead() -> [OverheadFloors; 2] {
    let shapes = [
        (
            "exact ε-BROADCAST, n = 2^9, continuous, T = 2000",
            Scenario::broadcast(Params::builder(1 << 9).build().expect("valid params"))
                .adversary(StrategySpec::Continuous)
                .carol_budget(2_000)
                .seed(1),
            1,
        ),
        (
            "fast_mc hopping, n = 2^12, C = 4, split-uniform, T = 3000",
            Scenario::hopping(HoppingSpec::new(1 << 12, 4_000))
                .engine(Engine::Fast)
                .channels(4)
                .adversary(StrategySpec::SplitUniform)
                .carol_budget(3_000)
                .seed(1),
            8,
        ),
    ];
    shapes.map(|(shape, builder, trials)| {
        let mut floors_ns = [u128::MAX; 3];
        for _ in 0..NOOP_GATE_REPS {
            for (variant, floor) in floors_ns.iter_mut().enumerate() {
                let collector: Option<Arc<dyn Collector>> = match variant {
                    0 => None,
                    1 => Some(Arc::new(NoopCollector)),
                    _ => Some(Arc::new(RecordingCollector::new())),
                };
                let mut timed = builder.clone();
                if let Some(c) = collector {
                    timed = timed.telemetry(c);
                }
                let scenario = timed.build().expect("the gate shapes are valid");
                *floor = (*floor).min(per_trial_ns(&scenario, trials));
            }
        }
        OverheadFloors { shape, floors_ns }
    })
}

/// Pushes one `tier | metric | total | per-unit` row.
fn ledger_row(table: &mut Table, tier: &str, metric: &str, total: u64, per: f64) {
    table.row(vec![
        tier.into(),
        metric.into(),
        total.to_string(),
        fmt_f(per),
    ]);
}

/// Runs E18 and renders the report.
#[must_use]
pub fn run(scale: Scale) -> ExperimentReport {
    let plan = plan(scale);

    let exact = profile(
        EngineTier::Exact,
        plan.trials,
        Scenario::broadcast(must_provision(plan.exact_n, 2, plan.exact_budget))
            .adversary(StrategySpec::Continuous)
            .carol_budget(plan.exact_budget)
            .seed(0xE18),
    );
    let fast = profile(
        EngineTier::Fast,
        plan.trials,
        Scenario::broadcast(Params::builder(plan.fast_n).build().expect("valid params"))
            .engine(Engine::Fast)
            .adversary(StrategySpec::BlockDissemination(1.0))
            .carol_budget(plan.fast_budget)
            .seed(0xE18),
    );
    let fast_mc = profile(
        EngineTier::FastMc,
        plan.trials,
        Scenario::hopping(HoppingSpec::new(plan.fast_n, 60_000))
            .engine(Engine::Fast)
            .channels(plan.channels)
            .adversary(StrategySpec::Adaptive {
                window: 8,
                reactivity: 0.5,
            })
            .carol_budget(plan.fast_budget)
            .seed(0xE18),
    );

    // Table 1 — the exact tier's subsystem ledger, rates per slot.
    let slots = exact.counter(MetricId::EngineSlots);
    let per_slot = |v: u64| v as f64 / slots.max(1) as f64;
    let mut exact_table = Table::new(vec!["tier", "subsystem", "total", "per slot"]);
    for (metric, id) in [
        ("slots", MetricId::EngineSlots),
        ("wake-queue drains", MetricId::EngineWakeDrains),
        ("wakeups drained", MetricId::EngineWakeDrained),
        ("listener passes", MetricId::EngineListenerPasses),
        ("listeners resolved", MetricId::EngineListenersResolved),
        ("inert slots (skipped)", MetricId::EngineInertSlots),
        ("settled listens", MetricId::EngineSettledListens),
        ("rng draws", MetricId::EngineRngDraws),
        ("adversary plans", MetricId::EngineAdversaryPlans),
    ] {
        ledger_row(
            &mut exact_table,
            "exact",
            metric,
            exact.counter(id),
            per_slot(exact.counter(id)),
        );
    }

    // Table 2 — the phase-level tiers, rates per phase.
    let mut fast_table = Table::new(vec!["tier", "measure", "total", "per phase"]);
    for tier in [&fast, &fast_mc] {
        let phases = tier.counter(MetricId::FastPhases);
        let per_phase = |v: u64| v as f64 / phases.max(1) as f64;
        let name = tier.tier.to_string();
        for (metric, id) in [
            ("phases", MetricId::FastPhases),
            ("newly informed", MetricId::FastInformed),
            ("jam requested", MetricId::FastJamRequested),
            ("jam executed", MetricId::FastJamExecuted),
        ] {
            ledger_row(
                &mut fast_table,
                &name,
                metric,
                tier.counter(id),
                per_phase(tier.counter(id)),
            );
        }
    }

    // Table 3 — wall-time localization.
    let mut time_table = Table::new(vec!["tier", "trials", "wall ms", "actions", "ns / action"]);
    for tier in [&exact, &fast, &fast_mc] {
        time_table.row(vec![
            tier.tier.to_string(),
            tier.trials.to_string(),
            fmt_f(tier.elapsed_ns as f64 / 1e6),
            tier.actions().to_string(),
            fmt_f(tier.ns_per_action()),
        ]);
    }

    // Findings and the verdict. Counts are deterministic; the ledgers'
    // wall times are reported but never gate the pass. Only the
    // full-scale overhead gate times anything against a limit.
    let overhead = (scale == Scale::Full).then(noop_overhead);
    let inert_fraction = per_slot(exact.counter(MetricId::EngineInertSlots));
    let resolved_per_pass = exact.counter(MetricId::EngineListenersResolved) as f64
        / exact.counter(MetricId::EngineListenerPasses).max(1) as f64;
    let drain_mean = exact
        .collector
        .snapshot()
        .and_then(|s| {
            s.histogram(MetricId::EngineWakeDrainBatch)
                .and_then(|h| h.mean())
        })
        .unwrap_or(0.0);
    let fizzle = |t: &TierProfile| {
        let req = t.counter(MetricId::FastJamRequested);
        let exec = t.counter(MetricId::FastJamExecuted);
        (req, exec, 1.0 - exec as f64 / req.max(1) as f64)
    };
    let (fast_req, fast_exec, fast_fizzle) = fizzle(&fast);
    let (mc_req, mc_exec, mc_fizzle) = fizzle(&fast_mc);

    let mut findings = vec![
        format!(
            "exact tier, jammed ε-BROADCAST (n = {}, T = {}): {:.1} ns per action over \
             {} actions across {} trials — the ledger attributes the run to \
             {:.2} RNG draws and {:.2} resolved listeners per slot, with {:.0}% of \
             slots inert (listens settled in bulk) and a mean wake-drain batch of {:.1}",
            plan.exact_n,
            plan.exact_budget,
            exact.ns_per_action(),
            exact.actions(),
            exact.trials,
            per_slot(exact.counter(MetricId::EngineRngDraws)),
            per_slot(exact.counter(MetricId::EngineListenersResolved)),
            inert_fraction * 100.0,
            drain_mean,
        ),
        format!(
            "exact tier listener economics: {resolved_per_pass:.1} listeners resolved \
             per pass — the SoA roster touches listeners in bulk, not per slot"
        ),
        format!(
            "fast tier (n = {}): jam fizzle {:.1}% ({fast_exec} of {fast_req} requested \
             slots executed before Carol's budget ran dry)",
            plan.fast_n,
            fast_fizzle * 100.0,
        ),
        format!(
            "fast_mc tier (n = {}, C = {}): jam fizzle {:.1}% ({mc_exec} of {mc_req}); \
             per-phase events carry the rendezvous and survival probabilities behind \
             these totals",
            plan.fast_n,
            plan.channels,
            mc_fizzle * 100.0,
        ),
    ];

    match &overhead {
        Some(shapes) => findings.extend(shapes.iter().map(|o| {
            format!(
                "attached-noop overhead gate, {}: ×{:.4} with a NoopCollector and ×{:.4} \
                 recording, over a no-collector floor of {} ns/trial (minima of \
                 {NOOP_GATE_REPS} interleaved repetitions; limit ×{:.2}) — {}",
                o.shape,
                o.ratio(1),
                o.ratio(2),
                o.floors_ns[0],
                1.0 + MAX_NOOP_OVERHEAD_PCT / 100.0,
                if o.noop_within_gate() {
                    "within"
                } else {
                    "EXCEEDED"
                },
            )
        })),
        None => findings.push("attached-noop overhead gate: timed at full scale only".into()),
    }

    let events_ok = [&fast, &fast_mc].iter().all(|t| {
        t.collector
            .snapshot()
            .is_some_and(|s| s.events.iter().all(|e| e.tier == t.tier) && !s.events.is_empty())
    });
    let pass = slots > 0
        && exact.counter(MetricId::EngineRngDraws) > 0
        && exact.counter(MetricId::EngineWakeDrained) > 0
        && exact.counter(MetricId::EngineInertSlots) <= slots
        && exact.counter(MetricId::EngineListenerPasses) <= slots
        && fast_exec <= fast_req
        && mc_exec <= mc_req
        && fast.counter(MetricId::FastPhases) > 0
        && fast_mc.counter(MetricId::FastPhases) > 0
        && events_ok
        && overhead
            .iter()
            .flatten()
            .all(OverheadFloors::noop_within_gate);

    ExperimentReport {
        id: "E18",
        title: "engine-tier observability profile",
        claim: "The rcb-telemetry instrumentation decomposes the jammed runs' wall time \
                into per-subsystem work ledgers on all three engine tiers: the exact \
                era-2 engine's cost localizes to wake-queue drains, RNG draws and \
                listener resolution (the listens of inert slots are settled in bulk \
                instead of resolved), and the phase-level tiers' jam ledgers expose \
                Carol's budget fizzle (requested minus executed) that outcome totals \
                alone cannot show. \
                The seam is free when nobody records: an attached no-op collector \
                costs at most 2% per trial.",
        tables: vec![
            (
                format!(
                    "exact-engine subsystem ledger: jammed ε-BROADCAST, n = {}, \
                     T = {}, {} trials",
                    plan.exact_n, plan.exact_budget, plan.trials
                ),
                exact_table,
            ),
            (
                format!(
                    "phase-level tiers: fast (block-dissemination, n = {}) and fast_mc \
                     (adaptive, n = {}, C = {}), {} trials each",
                    plan.fast_n, plan.fast_n, plan.channels, plan.trials
                ),
                fast_table,
            ),
            (
                "wall-time localization (wall times vary by host and never gate the \
                 pass; the attached-noop overhead gate is timed separately, at full \
                 scale only)"
                    .to_string(),
                time_table,
            ),
        ],
        findings,
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Part of the slow tier: three instrumented batches. CI's fast lane
    // skips it with `--no-default-features`.
    #[cfg(feature = "slow-tests")]
    #[test]
    fn smoke_scale_profiles_all_three_tiers() {
        let report = run(Scale::Smoke);
        assert!(report.pass, "{report}");
        assert_eq!(report.tables[0].1.len(), 9, "nine exact-engine subsystems");
        assert_eq!(report.tables[1].1.len(), 8, "two tiers × four measures");
        assert_eq!(report.tables[2].1.len(), 3, "three tiers timed");
    }
}
