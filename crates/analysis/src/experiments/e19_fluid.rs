//! E19 — fluid-tier cross-validation and the full-zoo frontier grid.
//!
//! PR goal of the fluid engine: collapse the per-trial Monte-Carlo cost
//! of `fast_mc` into one deterministic mean-field evaluation — O(phases
//! × C) floating-point recurrences, n entering only as a scale factor —
//! so whole-zoo adversary grids run at populations (n = 2^20) where even
//! the phase-level sampler is the bottleneck. As with E13 (which earned
//! `fast_mc` its place against the exact engine), the speed is only
//! worth having if the tier *agrees* with the tier below it, so the
//! experiment has three halves:
//!
//! 1. **Three-tier overlap**: exact vs `fast_mc` vs fluid on the hopping
//!    workload across the whole schedule-free zoo at a population the
//!    slot engine still handles, with the integration suites' agreement
//!    allowances against the exact ground truth.
//! 2. **Fluid vs `fast_mc` at scale**: the full (protocol × adversary)
//!    matrix — per-slot hopping and epoch hopping, `C ∈ {1, 4}` — at
//!    n = 2^16. The headline band is ≤2% node-cost relative error on
//!    the deterministic-jam hopping cells; two documented concessions
//!    widen it where the comparison target itself is second-order
//!    noisy: `Random(p)`'s sampled jam makes the MC mean sit a few
//!    percent above the deterministic trajectory (phase delivery is
//!    concave in the clean fraction, so jam variance slows the sampled
//!    runs — a Jensen penalty, ~4% measured at C = 1), and the epoch
//!    schedule draws Alice's channel once per epoch — an O(1)
//!    stochastic degree of freedom no mean-field removes, worth up to
//!    ~6% (with ~30% per-trial std) on heavily jammed epoch cells.
//!    Every cell's allowance also includes twice the standard error of
//!    the `fast_mc` mean at the configured trial count.
//! 3. **Frontier grid**: the first full-zoo adversary grid at n = 2^20,
//!    fluid only, with per-evaluation wall clock demonstrating the
//!    n-independence that makes the grid affordable.
//!
//! At full scale the tier's reason to exist is also a gate: one fluid
//! evaluation at n = 2^20 must take at most 1 ms. Smoke scale times
//! nothing against a limit.

use std::time::Instant;

use rcb_adversary::StrategySpec;
use rcb_sim::{Engine, EpochHoppingSpec, HoppingSpec, Scenario, ScenarioOutcome};

use super::{per_trial_ns, ExperimentReport, Scale};
use crate::table::fmt_f;
use crate::Table;

/// The schedule-free zoo: every strategy with a phase-mc lowering, and
/// therefore (tentpole invariant) a fluid expectation model.
fn zoo() -> Vec<StrategySpec> {
    vec![
        StrategySpec::Silent,
        StrategySpec::Continuous,
        StrategySpec::Random(0.5),
        StrategySpec::Bursty { burst: 64, gap: 64 },
        StrategySpec::LaggedReactive,
        StrategySpec::SplitUniform,
        StrategySpec::ChannelSweep { dwell: 8 },
        StrategySpec::ChannelLagged,
        StrategySpec::Adaptive {
            window: 8,
            reactivity: 0.5,
        },
    ]
}

struct Plan {
    /// Three-tier overlap population (exact engine must remain cheap).
    overlap_n: u64,
    overlap_horizon: u64,
    overlap_budget: u64,
    exact_trials: u32,
    fast_trials: u32,
    /// Fluid-vs-fast_mc matrix population.
    big_n: u64,
    big_horizon: u64,
    big_budget: u64,
    big_trials: u32,
    /// Frontier population (fluid only).
    frontier_n: u64,
    frontier_horizon: u64,
    frontier_budget: u64,
    frontier_channels: Vec<u16>,
    /// Headline band: fluid node cost vs the fast_mc trial mean on
    /// deterministic-jam hopping cells, relative. ≤2% at full scale;
    /// the smoke tier runs far fewer trials, so its Monte-Carlo means
    /// are noisier and the band is proportionally wider.
    cost_band_vs_fast: f64,
    /// Band for `Random(p)` cells (stochastic jam): the MC mean carries
    /// a Jensen variance penalty over the sampled jam realizations.
    cost_band_stochastic: f64,
    /// Band for epoch-hopping cells: Alice's per-epoch channel draw is
    /// an O(1) stochastic degree of freedom the mean-field cannot
    /// remove.
    cost_band_epoch: f64,
}

fn plan(scale: Scale) -> Plan {
    match scale {
        Scale::Smoke => Plan {
            overlap_n: 1 << 8,
            overlap_horizon: 1_500,
            overlap_budget: 1_000,
            exact_trials: 2,
            fast_trials: 6,
            big_n: 1 << 12,
            big_horizon: 8_000,
            big_budget: 4_000,
            big_trials: 6,
            frontier_n: 1 << 14,
            frontier_horizon: 12_000,
            frontier_budget: 6_000,
            frontier_channels: vec![1, 4],
            cost_band_vs_fast: 0.04,
            cost_band_stochastic: 0.08,
            cost_band_epoch: 0.12,
        },
        Scale::Full => Plan {
            overlap_n: 1 << 10,
            overlap_horizon: 4_000,
            overlap_budget: 3_000,
            exact_trials: 3,
            fast_trials: 12,
            big_n: 1 << 16,
            big_horizon: 40_000,
            big_budget: 24_000,
            big_trials: 32,
            frontier_n: 1 << 20,
            frontier_horizon: 60_000,
            frontier_budget: 36_000,
            frontier_channels: vec![1, 4, 8],
            cost_band_vs_fast: 0.02,
            cost_band_stochastic: 0.06,
            cost_band_epoch: 0.08,
        },
    }
}

/// Acceptance bands for the three-tier overlap half. The node-cost
/// allowance is `abs + rel · scale` — the same form the integration
/// agreement suites use — because at overlap populations the per-node
/// cost is a few listens, so a fixed absolute floor dominates: the
/// phase tier's own approximation gap vs the slot engine is a constant
/// couple of listens per node, already accepted when `fast_mc` landed.
const OVERLAP_INFORMED_BAND: f64 = 0.08;
const OVERLAP_COST_REL: f64 = 0.25;
const OVERLAP_COST_ABS: f64 = 2.0;

/// The fluid evaluation gate: one evaluation of hopping at n = 2^20
/// (horizon 40 000, C = 4, `Random(0.5)`, T = 24 000) may take at most
/// this many milliseconds, timed as the mean of eight after a warm-up.
const MAX_FLUID_EVAL_MS: f64 = 1.0;

/// Times the gate's evaluation, in milliseconds.
fn fluid_eval_ms() -> f64 {
    let scenario = Scenario::hopping(HoppingSpec::new(1 << 20, 40_000))
        .engine(Engine::Fluid)
        .channels(4)
        .adversary(StrategySpec::Random(0.5))
        .carol_budget(24_000)
        .seed(1)
        .build()
        .expect("the gate shape is valid");
    per_trial_ns(&scenario, 8) as f64 / 1e6
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Protocol {
    Hopping,
    EpochHopping,
}

impl Protocol {
    fn name(self) -> &'static str {
        match self {
            Protocol::Hopping => "hopping",
            Protocol::EpochHopping => "epoch-hopping",
        }
    }
}

struct TierPoint {
    informed: f64,
    node_cost: f64,
    /// Standard error of the node-cost trial mean (zero for the
    /// deterministic fluid tier).
    node_cost_se: f64,
    /// Wall clock of one sequential evaluation (one trial for the
    /// sampled tiers, the single deterministic run for fluid).
    eval_secs: f64,
}

#[allow(clippy::too_many_arguments)]
fn run_tier(
    engine: Engine,
    protocol: Protocol,
    strategy: StrategySpec,
    n: u64,
    channels: u16,
    horizon: u64,
    budget: u64,
    trials: u32,
    seed: u64,
) -> TierPoint {
    let builder = match protocol {
        Protocol::Hopping => Scenario::hopping(HoppingSpec::new(n, horizon)),
        Protocol::EpochHopping => Scenario::epoch_hopping(EpochHoppingSpec::new(n, horizon, 32)),
    };
    let scenario = builder
        .engine(engine)
        .channels(channels)
        .adversary(strategy)
        .carol_budget(budget)
        .seed(seed)
        .build()
        .expect("the schedule-free zoo runs on every tier");
    let start = Instant::now();
    let _ = scenario.run_seeded(seed ^ 0x19);
    let eval_secs = start.elapsed().as_secs_f64();
    let outcomes = scenario.run_batch(trials);
    let avg = |f: &dyn Fn(&ScenarioOutcome) -> f64| {
        outcomes.iter().map(f).sum::<f64>() / outcomes.len() as f64
    };
    let node_cost = avg(&|o| o.mean_node_cost());
    let variance = outcomes
        .iter()
        .map(|o| (o.mean_node_cost() - node_cost).powi(2))
        .sum::<f64>()
        / outcomes.len() as f64;
    TierPoint {
        informed: avg(&|o| o.informed_fraction()),
        node_cost,
        node_cost_se: variance.sqrt() / (outcomes.len() as f64).sqrt(),
        eval_secs,
    }
}

fn rel_err(reference: f64, candidate: f64) -> f64 {
    (reference - candidate).abs() / reference.max(1.0)
}

/// Runs E19 and renders the report.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run(scale: Scale) -> ExperimentReport {
    let plan = plan(scale);
    let roster = zoo();

    // Half 1: three tiers on the hopping workload, C = 4.
    let mut overlap_table = Table::new(vec![
        "strategy",
        "informed (exact/fast/fluid)",
        "node cost (exact/fast/fluid)",
        "fluid vs exact cost gap / allowance",
    ]);
    let mut worst_overlap_informed = 0.0f64;
    let mut worst_overlap_cost = 0.0f64;
    for &strategy in &roster {
        let seed = 0xE19 ^ strategy.name().len() as u64;
        let args = (
            Protocol::Hopping,
            strategy,
            plan.overlap_n,
            4u16,
            plan.overlap_horizon,
            plan.overlap_budget,
        );
        let run_at = |engine, trials| {
            run_tier(
                engine, args.0, args.1, args.2, args.3, args.4, args.5, trials, seed,
            )
        };
        let exact = run_at(Engine::Exact, plan.exact_trials);
        let fast = run_at(Engine::Fast, plan.fast_trials);
        let fluid = run_at(Engine::Fluid, 1);
        let informed_err = (exact.informed - fluid.informed).abs();
        let allowance = OVERLAP_COST_ABS + OVERLAP_COST_REL * exact.node_cost.max(fluid.node_cost);
        let cost_err = (exact.node_cost - fluid.node_cost).abs() / allowance;
        worst_overlap_informed = worst_overlap_informed.max(informed_err);
        worst_overlap_cost = worst_overlap_cost.max(cost_err);
        overlap_table.row(vec![
            strategy.name(),
            format!(
                "{} / {} / {}",
                fmt_f(exact.informed),
                fmt_f(fast.informed),
                fmt_f(fluid.informed)
            ),
            format!(
                "{} / {} / {}",
                fmt_f(exact.node_cost),
                fmt_f(fast.node_cost),
                fmt_f(fluid.node_cost)
            ),
            fmt_f(cost_err),
        ]);
    }

    // Half 2: fluid vs fast_mc means across the protocol × adversary
    // matrix at the large population.
    let mut matrix_table = Table::new(vec![
        "protocol",
        "strategy",
        "C",
        "node cost (fast/fluid)",
        "rel err",
        "allowance",
        "informed gap",
    ]);
    // Per-class worst relative errors: deterministic-jam hopping cells
    // carry the headline band; Random(p) and epoch-hopping cells carry
    // the documented concessions.
    let mut worst_det_cost = 0.0f64;
    let mut worst_stoch_cost = 0.0f64;
    let mut worst_epoch_cost = 0.0f64;
    // Worst cell as a fraction of its own allowance (band + 2·SE).
    let mut worst_matrix_ratio = 0.0f64;
    let mut worst_matrix_informed = 0.0f64;
    let mut fast_eval_secs = 0.0f64;
    let mut fluid_big_eval_secs = 0.0f64;
    for protocol in [Protocol::Hopping, Protocol::EpochHopping] {
        for &strategy in &roster {
            for channels in [1u16, 4] {
                let seed = 0xB19
                    ^ (strategy.name().len() as u64) << 3
                    ^ u64::from(channels)
                    ^ u64::from(protocol == Protocol::EpochHopping) << 9;
                let fast = run_tier(
                    Engine::Fast,
                    protocol,
                    strategy,
                    plan.big_n,
                    channels,
                    plan.big_horizon,
                    plan.big_budget,
                    plan.big_trials,
                    seed,
                );
                let fluid = run_tier(
                    Engine::Fluid,
                    protocol,
                    strategy,
                    plan.big_n,
                    channels,
                    plan.big_horizon,
                    plan.big_budget,
                    1,
                    seed,
                );
                let cost_err = rel_err(fast.node_cost, fluid.node_cost);
                let informed_gap = (fast.informed - fluid.informed).abs();
                let band = match (protocol, strategy) {
                    (Protocol::EpochHopping, _) => plan.cost_band_epoch,
                    (_, StrategySpec::Random(_)) => plan.cost_band_stochastic,
                    _ => plan.cost_band_vs_fast,
                };
                let allowance = band + 2.0 * fast.node_cost_se / fast.node_cost.max(1.0);
                match (protocol, strategy) {
                    (Protocol::EpochHopping, _) => {
                        worst_epoch_cost = worst_epoch_cost.max(cost_err);
                    }
                    (_, StrategySpec::Random(_)) => {
                        worst_stoch_cost = worst_stoch_cost.max(cost_err);
                    }
                    _ => worst_det_cost = worst_det_cost.max(cost_err),
                }
                worst_matrix_ratio = worst_matrix_ratio.max(cost_err / allowance);
                worst_matrix_informed = worst_matrix_informed.max(informed_gap);
                fast_eval_secs = fast_eval_secs.max(fast.eval_secs);
                fluid_big_eval_secs = fluid_big_eval_secs.max(fluid.eval_secs);
                matrix_table.row(vec![
                    protocol.name().to_string(),
                    strategy.name(),
                    channels.to_string(),
                    format!("{} / {}", fmt_f(fast.node_cost), fmt_f(fluid.node_cost)),
                    fmt_f(cost_err),
                    fmt_f(allowance),
                    fmt_f(informed_gap),
                ]);
            }
        }
    }

    // Half 3: the frontier grid — full zoo at the largest population,
    // fluid only.
    let mut frontier_table = Table::new(vec![
        "strategy",
        "C",
        "informed",
        "mean node cost",
        "eval µs",
    ]);
    let mut frontier_worst_eval_secs = 0.0f64;
    let mut frontier_all_finite = true;
    for &strategy in &roster {
        for &channels in &plan.frontier_channels {
            let seed = 0xF19 ^ u64::from(channels);
            let fluid = run_tier(
                Engine::Fluid,
                Protocol::Hopping,
                strategy,
                plan.frontier_n,
                channels,
                plan.frontier_horizon,
                plan.frontier_budget,
                1,
                seed,
            );
            frontier_worst_eval_secs = frontier_worst_eval_secs.max(fluid.eval_secs);
            frontier_all_finite &= fluid.informed.is_finite() && fluid.node_cost.is_finite();
            frontier_table.row(vec![
                strategy.name(),
                channels.to_string(),
                fmt_f(fluid.informed),
                fmt_f(fluid.node_cost),
                format!("{:.0}", fluid.eval_secs * 1e6),
            ]);
        }
    }

    let tables = vec![
        (
            format!(
                "three-tier overlap: hopping, C = 4, n = {}, T = {}, horizon {}, \
                 exact {} / fast {} trials (bands vs exact: informed ±{OVERLAP_INFORMED_BAND}, \
                 node-cost gap within {OVERLAP_COST_ABS} + {OVERLAP_COST_REL}·cost)",
                plan.overlap_n,
                plan.overlap_budget,
                plan.overlap_horizon,
                plan.exact_trials,
                plan.fast_trials,
            ),
            overlap_table,
        ),
        (
            format!(
                "fluid vs fast_mc means: full protocol × adversary matrix at n = {}, \
                 T = {}, horizon {}, {} fast trials (node-cost bands: deterministic-jam \
                 hopping {:.0}%, Random(p) {:.0}%, epoch-hopping {:.0}%, each + 2·SE of \
                 the fast mean)",
                plan.big_n,
                plan.big_budget,
                plan.big_horizon,
                plan.big_trials,
                plan.cost_band_vs_fast * 100.0,
                plan.cost_band_stochastic * 100.0,
                plan.cost_band_epoch * 100.0
            ),
            matrix_table,
        ),
        (
            format!(
                "frontier grid (fluid only): full zoo at n = {}, T = {}, horizon {}",
                plan.frontier_n, plan.frontier_budget, plan.frontier_horizon
            ),
            frontier_table,
        ),
    ];

    let eval_gate_ms = (scale == Scale::Full).then(fluid_eval_ms);
    let mut findings = vec![
        format!(
            "three-tier overlap over {} strategies: worst fluid-vs-exact informed gap \
             {:.3} (band {OVERLAP_INFORMED_BAND}), worst node-cost gap at {:.2} of its \
             allowance ({OVERLAP_COST_ABS} + {OVERLAP_COST_REL}·cost, the integration-suite \
             form)",
            roster.len(),
            worst_overlap_informed,
            worst_overlap_cost
        ),
        format!(
            "fluid vs fast_mc at n = {}: worst node-cost relative error {:.4} on \
             deterministic-jam hopping cells (headline band {:.2}), {:.4} on Random(p) \
             cells (band {:.2}), {:.4} on epoch-hopping cells (band {:.2}); worst of \
             the {} cells sits at {:.2} of its allowance, worst informed gap {:.4}",
            plan.big_n,
            worst_det_cost,
            plan.cost_band_vs_fast,
            worst_stoch_cost,
            plan.cost_band_stochastic,
            worst_epoch_cost,
            plan.cost_band_epoch,
            2 * 2 * roster.len(),
            worst_matrix_ratio,
            worst_matrix_informed
        ),
        format!(
            "frontier: the full-zoo grid at n = {} evaluates in at most {:.0} µs per \
             cell ({:.0} µs at n = {}) — the recurrence is O(phases × C), independent \
             of n, vs {:.1} ms per fast_mc trial",
            plan.frontier_n,
            frontier_worst_eval_secs * 1e6,
            fluid_big_eval_secs * 1e6,
            plan.big_n,
            fast_eval_secs * 1e3
        ),
    ];

    let eval_ok = eval_gate_ms.is_none_or(|ms| ms <= MAX_FLUID_EVAL_MS);
    findings.push(match eval_gate_ms {
        Some(ms) => format!(
            "fluid evaluation gate: hopping at n = 2^20, horizon 40000, C = 4, \
             random(p=0.5), T = 24000 evaluates in {ms:.3} ms (mean of 8 after a \
             warm-up; limit {MAX_FLUID_EVAL_MS} ms) — {}",
            if eval_ok { "within" } else { "EXCEEDED" }
        ),
        None => "fluid evaluation gate: timed at full scale only".into(),
    });

    let overlap_ok = worst_overlap_informed <= OVERLAP_INFORMED_BAND && worst_overlap_cost <= 1.0;
    let matrix_ok = worst_det_cost <= plan.cost_band_vs_fast
        && worst_matrix_ratio <= 1.0
        && worst_matrix_informed <= 0.05;
    let pass = overlap_ok && matrix_ok && frontier_all_finite && eval_ok;

    ExperimentReport {
        id: "E19",
        title: "fluid-tier cross-validation and the 2^20 full-zoo grid",
        claim: "The deterministic mean-field tier reproduces the fast_mc trial means \
                across the full protocol × adversary matrix at n = 2^16 — within 2% \
                node-cost relative error on deterministic-jam hopping cells, and \
                within documented wider bands where the MC target itself is \
                stochastic — agrees with the exact engine inside the \
                integration-suite bands at overlapping scales, and makes the first \
                full-zoo adversary grid at \
                n = 2^20 affordable: one O(phases × C) evaluation per cell, \
                independent of n.",
        tables,
        findings,
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Part of the slow tier: a full (small-scale) three-engine grid.
    // CI's fast lane skips it with `--no-default-features`.
    #[cfg(feature = "slow-tests")]
    #[test]
    fn smoke_scale_cross_validates_within_bands() {
        let report = run(Scale::Smoke);
        assert!(report.pass, "{report}");
        assert_eq!(report.tables.len(), 3, "overlap + matrix + frontier");
    }
}
