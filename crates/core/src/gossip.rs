//! The one entry point of the gossip-shaped protocols: the §1.1 naive
//! strawman, epidemic gossip, and the memoryless and epoch-structured
//! channel-hopping broadcasts of the multi-channel successors (Chen &
//! Zheng 2019/2020).
//!
//! Each protocol is one row of [`GossipSpec`]'s table, written once as
//! its constructor, and all four run on `rcb-radio`'s sleep-skipping
//! driver ([`run_gossip_soa_with`]); [`run_gossip_with`] adds the
//! [`BroadcastOutcome`]. On a multi-channel spectrum the hopping rows
//! are the workloads where a jammer can no longer blanket the network
//! for one unit per slot: blocking every rendezvous costs `C` units per
//! slot, so her budget drains `C×` faster (experiments E11 and E17).

use rcb_radio::{
    run_gossip_soa_with, Adversary, Budget, CostBreakdown, GossipSoaScratch, GossipSpec, RunReport,
    Spectrum,
};
use rcb_rng::SeedTree;
use rcb_telemetry::Collector;

use crate::outcome::{BroadcastOutcome, EngineKind};

/// Runs a gossip-shaped protocol on the exact sleep-skipping engine and
/// reports its [`BroadcastOutcome`] (through [`gossip_outcome`]) and the
/// raw [`RunReport`], whose trace holds up to `trace_capacity` slot
/// records and whose channel stats carry the per-channel accounting.
///
/// Every device has an unlimited budget; the run mints Alice's signed
/// `m` from `seed`'s `"auth-domain"` leaf and lasts at most
/// `spec.horizon + 2` slots (see [`run_gossip_soa_with`]). Time is
/// proportional to the events in a run rather than `n × slots`.
///
/// This is the execution engine behind `rcb_sim::Scenario::{naive,
/// epidemic, hopping, epoch_hopping}` on the exact engine; prefer the
/// `Scenario` builder in application code, and keep one
/// [`GossipSoaScratch`] per worker to reuse its buffers across runs.
///
/// # Panics
///
/// Panics if a probability in `spec` is outside `[0, 1]` (the
/// `Scenario` builder rejects this with a typed error instead).
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn run_gossip_with<C: Collector + ?Sized>(
    spec: &GossipSpec,
    spectrum: Spectrum,
    carol_budget: Budget,
    trace_capacity: usize,
    adversary: &mut dyn Adversary,
    seed: u64,
    scratch: &mut GossipSoaScratch,
    collector: &C,
) -> (BroadcastOutcome, RunReport) {
    let report = run_gossip_soa_with(
        spec,
        spectrum,
        carol_budget,
        trace_capacity,
        adversary,
        &SeedTree::new(seed),
        scratch,
        collector,
    );
    (gossip_outcome(spec.n, &report), report)
}

/// Assembles the gossip-shaped [`BroadcastOutcome`] from an engine
/// report (shared by [`run_gossip_with`] and by the KPSY driver in
/// `rcb-baselines`).
#[must_use]
pub fn gossip_outcome(n: u64, report: &RunReport) -> BroadcastOutcome {
    let node_costs: Vec<CostBreakdown> = report.participant_costs[1..].to_vec();
    let mut node_total = CostBreakdown::default();
    for c in &node_costs {
        node_total.absorb(c);
    }
    let informed_nodes = report.informed[1..].iter().filter(|&&b| b).count() as u64;
    BroadcastOutcome {
        n,
        informed_nodes,
        uninformed_terminated: 0,
        unterminated_nodes: n - informed_nodes,
        alice_terminated: report.terminated[0],
        alice_cost: report.participant_costs[0],
        node_total_cost: node_total,
        max_node_cost: node_costs.iter().map(CostBreakdown::total).max(),
        carol_cost: report.carol_cost,
        slots: report.slots_elapsed,
        rounds_entered: 0,
        engine: EngineKind::Exact,
        node_costs: Some(node_costs),
    }
}

/// One memoryless hopping run in one struct: the
/// [`GossipSpec::hopping`] row plus Carol's budget, the trace capacity
/// and the seed.
///
/// The benchmark harness (`perfbench/`) still drives the hopping
/// workload through this struct, [`HoppingSoaScratch`] and
/// [`execute_hopping_soa_with`]; new code calls [`run_gossip_with`].
#[derive(Debug, Clone)]
pub struct HoppingConfig {
    /// Number of receiver nodes.
    pub n: u64,
    /// Hard stop.
    pub horizon: u64,
    /// Per-slot listen probability of uninformed nodes.
    pub listen_p: f64,
    /// Relay probability is `relay_rate / n`.
    pub relay_rate: f64,
    /// Carol's pooled budget.
    pub carol_budget: Budget,
    /// Retain at most this many slot records in the report's trace
    /// (0 disables tracing).
    pub trace_capacity: usize,
    /// Master seed.
    pub seed: u64,
}

/// The scratch of [`execute_hopping_soa_with`].
pub type HoppingSoaScratch = GossipSoaScratch;

/// [`run_gossip_with`] on the [`GossipSpec::hopping`] row of `config`.
///
/// # Panics
///
/// Panics if `listen_p` is not a probability.
#[must_use]
pub fn execute_hopping_soa_with<C: Collector + ?Sized>(
    config: &HoppingConfig,
    spectrum: Spectrum,
    adversary: &mut dyn Adversary,
    scratch: &mut HoppingSoaScratch,
    collector: &C,
) -> (BroadcastOutcome, RunReport) {
    run_gossip_with(
        &GossipSpec::hopping(config.n, config.horizon, config.listen_p, config.relay_rate),
        spectrum,
        config.carol_budget,
        config.trace_capacity,
        adversary,
        config.seed,
        scratch,
        collector,
    )
}
