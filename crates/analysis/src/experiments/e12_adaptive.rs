//! E12 — the adaptive multi-channel adversary (Chen & Zheng 2020):
//! competitiveness survives a jammer that chases observed traffic.
//!
//! E11 showed that an *oblivious* uniform jammer loses roughly a factor
//! `C` of effectiveness on a `C`-channel spectrum. The obvious rejoinder
//! — and the adversary model of "Broadcasting Competitively against
//! Adaptive Adversary in Multi-channel Radio Networks" (Chen & Zheng,
//! OPODIS 2020) — is a jammer that watches where the traffic lands and
//! reallocates its per-slot split toward the hot channels. This
//! experiment runs the random-hopping broadcast against `Adaptive`,
//! `ChannelLagged`, and the oblivious `SplitUniform` baseline at a fixed
//! budget `T`, sweeping `C ∈ {1, 2, 4, 8}`, and measures two things:
//!
//! * **cost scaling** — the reproduced bound: because every active device
//!   retunes uniformly at random each slot, *past* traffic carries no
//!   information about *future* rendezvous, so even the
//!   traffic-chasing jammer buys no super-constant advantage: mean node
//!   cost under `Adaptive` stays within a small constant factor (≤ 2×)
//!   of the oblivious-split baseline at equal `T`;
//! * **chase correlation** — evidence the adaptive jammer really is
//!   adapting: the slot-level correlation between the previous slot's
//!   per-channel traffic and the current slot's per-channel jam
//!   placement. Oblivious splitting shows ≈ 0; the adaptive jammer
//!   tracks traffic strongly.
//!
//! A grid search over the adaptive family's `window × reactivity`
//! parameter space (maximising induced node cost at the widest
//! spectrum) then strengthens the claim from "this adaptive jammer
//! stays within the envelope" toward "the **best** adaptive jammer of
//! this family does".

use rcb_adversary::StrategySpec;
use rcb_core::run_gossip_with;
use rcb_radio::{
    Adversary, AdversaryCtx, AdversaryMove, Budget, GossipSoaScratch, GossipSpec, Slot,
    SlotObservation, Spectrum,
};
use rcb_sim::{pearson, HoppingSpec, Scenario, ScenarioOutcome};
use rcb_telemetry::NoopCollector;

use super::{ExperimentReport, Scale};
use crate::table::fmt_f;
use crate::Table;

struct Plan {
    n: u64,
    budget: u64,
    horizon: u64,
    trials: u32,
}

fn plan(scale: Scale) -> Plan {
    // Mirrors E11 so the SplitUniform column is directly comparable.
    match scale {
        Scale::Smoke => Plan {
            n: 24,
            budget: 2_000,
            horizon: 4_000,
            trials: 3,
        },
        Scale::Full => Plan {
            n: 128,
            budget: 24_000,
            horizon: 40_000,
            trials: 8,
        },
    }
}

/// The adaptive strategy under test (window/reactivity as in the
/// channel roster).
fn adaptive() -> StrategySpec {
    StrategySpec::Adaptive {
        window: 8,
        reactivity: 0.5,
    }
}

/// Wraps a jammer and records, per slot and channel, whether its jam
/// placement follows the previous slot's observed traffic — without
/// perturbing the inner strategy in any way.
struct ChaseProbe {
    inner: Box<dyn Adversary>,
    spectrum: Spectrum,
    prev_traffic: Vec<f64>,
    seen_any: bool,
    /// Accumulated (prior-slot traffic, jam placement) pairs, one per
    /// slot × channel, correlated with `rcb_sim::pearson` at the end.
    traffic: Vec<f64>,
    jammed: Vec<f64>,
}

impl ChaseProbe {
    fn new(inner: Box<dyn Adversary>, spectrum: Spectrum) -> Self {
        Self {
            inner,
            spectrum,
            prev_traffic: vec![0.0; spectrum.channel_count() as usize],
            seen_any: false,
            traffic: Vec::new(),
            jammed: Vec::new(),
        }
    }
}

impl Adversary for ChaseProbe {
    fn plan(&mut self, slot: Slot, ctx: &AdversaryCtx) -> AdversaryMove {
        let mv = self.inner.plan(slot, ctx);
        if self.seen_any {
            for channel in self.spectrum.channels() {
                let x = self.prev_traffic[channel.index() as usize];
                let y = if mv.jam.directive_on(channel).is_active() {
                    1.0
                } else {
                    0.0
                };
                self.traffic.push(x);
                self.jammed.push(y);
            }
        }
        mv
    }

    fn react(&mut self, slot: Slot, activity: bool, planned: AdversaryMove) -> AdversaryMove {
        self.inner.react(slot, activity, planned)
    }

    fn is_reactive(&self) -> bool {
        self.inner.is_reactive()
    }

    fn observe(&mut self, slot: Slot, observation: &SlotObservation<'_>) {
        for channel in self.spectrum.channels() {
            self.prev_traffic[channel.index() as usize] =
                observation.correct_sends_on(channel) as f64;
        }
        self.seen_any = true;
        self.inner.observe(slot, observation);
    }
}

/// Slot-level chase correlation of `strategy` over one instrumented
/// hopping run (`None` at `C = 1`, where there is nothing to choose).
fn chase_correlation(plan: &Plan, strategy: StrategySpec, channels: u16, seed: u64) -> Option<f64> {
    if channels < 2 {
        return None;
    }
    let spectrum = Spectrum::new(channels);
    let inner = strategy
        .schedule_free_slot_adversary_on(spectrum, seed)
        .expect("channel strategies are schedule-free");
    let mut probe = ChaseProbe::new(inner, spectrum);
    let _ = run_gossip_with(
        &GossipSpec::hopping(plan.n, plan.horizon, 0.5, 1.0),
        spectrum,
        Budget::limited(plan.budget),
        0,
        &mut probe,
        seed,
        &mut GossipSoaScratch::new(),
        &NoopCollector,
    );
    pearson(&probe.traffic, &probe.jammed)
}

/// One sweep point: trial-averaged measures for one strategy × channel
/// count.
struct Point {
    strategy: StrategySpec,
    channels: u16,
    informed_fraction: f64,
    mean_node_cost: f64,
    carol_spend: f64,
    chase: Option<f64>,
}

fn sweep_point(plan: &Plan, strategy: StrategySpec, channels: u16) -> Point {
    let base_seed = 0xE12 ^ (u64::from(channels) << 8);
    let outcomes = Scenario::hopping(HoppingSpec::new(plan.n, plan.horizon))
        .channels(channels)
        .adversary(strategy)
        .carol_budget(plan.budget)
        .seed(base_seed)
        .build()
        .expect("hopping hosts every channel-aware strategy")
        .run_batch(plan.trials);
    let avg = |f: &dyn Fn(&ScenarioOutcome) -> f64| {
        outcomes.iter().map(f).sum::<f64>() / outcomes.len() as f64
    };
    Point {
        strategy,
        channels,
        informed_fraction: avg(&|o| o.informed_fraction()),
        mean_node_cost: avg(&|o| o.mean_node_cost()),
        carol_spend: avg(&|o| o.carol_spend() as f64),
        chase: chase_correlation(plan, strategy, channels, base_seed),
    }
}

/// Runs E12 and renders the report.
#[must_use]
pub fn run(scale: Scale) -> ExperimentReport {
    let plan = plan(scale);
    let strategies = [
        StrategySpec::SplitUniform,
        StrategySpec::ChannelLagged,
        adaptive(),
    ];
    let channel_counts = [1u16, 2, 4, 8];

    let mut points: Vec<Point> = Vec::new();
    let mut table = Table::new(vec![
        "strategy",
        "C",
        "informed",
        "mean node cost",
        "carol spend",
        "chase corr",
    ]);
    for &strategy in &strategies {
        for &c in &channel_counts {
            let p = sweep_point(&plan, strategy, c);
            table.row(vec![
                p.strategy.name(),
                p.channels.to_string(),
                fmt_f(p.informed_fraction),
                fmt_f(p.mean_node_cost),
                fmt_f(p.carol_spend),
                p.chase.map_or_else(|| "—".into(), fmt_f),
            ]);
            points.push(p);
        }
    }
    // Grid search over the adaptive family at the widest spectrum:
    // which (window, reactivity) maximises the induced node cost?
    let grid_c: u16 = 8;
    let windows = [2u32, 8, 32];
    let reactivities = [0.25f64, 0.5, 1.0];
    let mut grid_table = Table::new(vec![
        "window",
        "reactivity",
        "informed",
        "mean node cost",
        "chase corr",
    ]);
    let mut grid_points: Vec<(u32, f64, Point)> = Vec::new();
    for &window in &windows {
        for &reactivity in &reactivities {
            let spec = StrategySpec::Adaptive { window, reactivity };
            let p = sweep_point(&plan, spec, grid_c);
            grid_table.row(vec![
                window.to_string(),
                format!("{reactivity}"),
                fmt_f(p.informed_fraction),
                fmt_f(p.mean_node_cost),
                p.chase.map_or_else(|| "—".into(), fmt_f),
            ]);
            grid_points.push((window, reactivity, p));
        }
    }

    let tables = vec![
        (
            format!(
                "random-hopping broadcast vs adaptive / lagged / oblivious jammers, \
                 n = {}, T = {}, {} trials (chase corr: slot-level correlation between \
                 prior-slot traffic and jam placement, one instrumented run)",
                plan.n, plan.budget, plan.trials
            ),
            table,
        ),
        (
            format!(
                "adaptive-family grid search at C = {grid_c}, equal T = {}: induced node \
                 cost across window × reactivity ({} trials per cell)",
                plan.budget, plan.trials
            ),
            grid_table,
        ),
    ];

    let find = |s: StrategySpec, c: u16| {
        points
            .iter()
            .find(|p| p.strategy == s && p.channels == c)
            .expect("every strategy × C pair was swept")
    };
    let split8 = find(StrategySpec::SplitUniform, 8);
    let adapt8 = find(adaptive(), 8);
    let lag8 = find(StrategySpec::ChannelLagged, 8);

    let cost_ratio_vs_split = adapt8.mean_node_cost / split8.mean_node_cost.max(1.0);
    let adapt_chase = adapt8.chase.unwrap_or(0.0);
    let split_chase = split8.chase.unwrap_or(0.0);

    let (best_w, best_r, best) = grid_points
        .iter()
        .max_by(|a, b| {
            a.2.mean_node_cost
                .partial_cmp(&b.2.mean_node_cost)
                .expect("costs are finite")
        })
        .map(|(w, r, p)| (*w, *r, p))
        .expect("grid is nonempty");
    let best_ratio_vs_split = best.mean_node_cost / split8.mean_node_cost.max(1.0);

    let mut findings = vec![
        format!(
            "C=8, equal T = {}: mean node cost {:.0} under the adaptive jammer vs {:.0} \
             under the oblivious split — ratio {:.2}, within the 2× envelope the 2020 \
             competitiveness bound predicts (random hopping makes past traffic useless \
             for predicting future rendezvous)",
            plan.budget, adapt8.mean_node_cost, split8.mean_node_cost, cost_ratio_vs_split
        ),
        format!(
            "the adaptive jammer demonstrably chases traffic: slot-level jam/traffic \
             correlation {:.2} at C=8 (lagged {:.2}, oblivious split {:.2})",
            adapt_chase,
            lag8.chase.unwrap_or(0.0),
            split_chase
        ),
        format!(
            "delivery is never blocked: minimum informed fraction across all 12 sweep \
             points is {:.3}",
            points
                .iter()
                .map(|p| p.informed_fraction)
                .fold(f64::INFINITY, f64::min)
        ),
    ];

    findings.push(format!(
        "grid search over window ∈ {{2, 8, 32}} × reactivity ∈ {{0.25, 0.5, 1.0}} at \
         C=8: the cost-maximising member is (w={best_w}, r={best_r}) with mean node \
         cost {:.0} — ratio {:.2} vs the oblivious split, so even the best adaptive \
         jammer of this family stays within the 2× envelope",
        best.mean_node_cost, best_ratio_vs_split
    ));

    let delivery_ok = points.iter().all(|p| p.informed_fraction > 0.9)
        && grid_points
            .iter()
            .all(|(_, _, p)| p.informed_fraction > 0.9);
    let budgets_conserved = points.iter().all(|p| p.carol_spend <= plan.budget as f64)
        && grid_points
            .iter()
            .all(|(_, _, p)| p.carol_spend <= plan.budget as f64);
    let within_envelope = cost_ratio_vs_split <= 2.0;
    let family_within_envelope = best_ratio_vs_split <= 2.0;
    let demonstrably_adaptive = adapt_chase > 0.3 && adapt_chase > split_chase + 0.2;
    let pass = delivery_ok
        && budgets_conserved
        && within_envelope
        && family_within_envelope
        && demonstrably_adaptive;

    ExperimentReport {
        id: "E12",
        title: "adaptive multi-channel adversary",
        claim: "Against random channel hopping, even an adaptive jammer that reallocates \
                its split toward observed traffic gains at most a constant factor over \
                oblivious uniform splitting: node cost at equal T stays within 2× of the \
                SplitUniform baseline — for the roster member and for the cost-maximising \
                point of a window × reactivity grid over the whole family — while the jam \
                split demonstrably tracks traffic (adaptive-adversary model of \
                Chen & Zheng 2020).",
        tables,
        findings,
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Part of the slow tier: a full (small-scale) 3-strategy × 4-channel
    // sweep. CI's fast lane skips it with `--no-default-features`.
    #[cfg(feature = "slow-tests")]
    #[test]
    fn smoke_scale_reproduces_the_adaptive_bound() {
        let report = run(Scale::Smoke);
        assert!(report.pass, "{report}");
        assert_eq!(
            report.tables[0].1.len(),
            12,
            "one row per strategy × channel count"
        );
    }
}
