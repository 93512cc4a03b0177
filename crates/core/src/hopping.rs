//! Multi-channel epidemic-style random-hopping broadcast — the first
//! `C > 1` workload.
//!
//! The protocol generalises epidemic gossip to a multi-channel spectrum
//! in the spirit of the multi-channel successors of the source paper
//! (Chen & Zheng 2019/2020): every active device retunes to a uniformly
//! random channel each slot. Alice transmits `m` on her hop; uninformed
//! nodes listen on theirs; informed nodes relay at rate `λ/n`. Delivery
//! happens whenever a listener's hop coincides with exactly one
//! transmitter's hop on an un-jammed channel.
//!
//! The point of the workload: a jammer can no longer blanket the network
//! for one unit per slot. Blocking *every* rendezvous costs `C` units per
//! slot (the budget-splitting [`SplitJammer`](../../rcb_adversary) — her
//! budget drains `C×` faster), while anything cheaper leaves un-jammed
//! channels through which hops rendezvous. Experiment E11 measures the
//! resulting cost-competitiveness improvement as `C` grows.

use rcb_auth::{Authority, Payload as MessageBytes};
use rcb_radio::{
    run_gossip_soa_with, Adversary, Budget, CostBreakdown, EngineConfig, GossipSoaScratch,
    GossipSpec, Payload, RunReport, Spectrum,
};
use rcb_rng::SeedTree;
use rcb_telemetry::{Collector, NoopCollector};

use crate::outcome::{BroadcastOutcome, EngineKind};

/// Configuration for a random-hopping broadcast run.
///
/// The spectrum is passed separately to [`execute_hopping_soa`] so one
/// config can be swept across channel counts.
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

impl HoppingConfig {
    /// The default gossip shape: `listen_p = 0.5`, `relay_rate = 1.0`,
    /// no tracing.
    #[must_use]
    pub fn new(n: u64, horizon: u64, carol_budget: Budget, seed: u64) -> Self {
        Self {
            n,
            horizon,
            listen_p: 0.5,
            relay_rate: 1.0,
            carol_budget,
            trace_capacity: 0,
            seed,
        }
    }
}

/// Reusable scratch for batched hopping runs on the sleep-skipping SoA
/// engine.
#[derive(Debug, Default)]
pub struct HoppingSoaScratch {
    budgets: Vec<Budget>,
    soa: GossipSoaScratch,
}

impl HoppingSoaScratch {
    /// Creates an empty scratch; buffers are shaped on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Runs random-hopping broadcast over `spectrum` on the sleep-skipping
/// SoA engine and reports the outcome plus the raw engine report (whose
/// [`channel_stats`](RunReport::channel_stats) carry the per-channel
/// accounting). Time is proportional to the events in a run rather than
/// `n × slots`.
///
/// This is the execution engine behind `rcb_sim::Scenario::hopping`;
/// prefer the `Scenario` builder in application code. Batched callers
/// should use [`execute_hopping_soa_in`] with a per-worker
/// [`HoppingSoaScratch`].
///
/// # Panics
///
/// Panics if `listen_p` is not a probability (the `Scenario` builder
/// rejects this with a typed error instead).
#[must_use]
pub fn execute_hopping_soa(
    config: &HoppingConfig,
    spectrum: Spectrum,
    adversary: &mut dyn Adversary,
) -> (BroadcastOutcome, RunReport) {
    execute_hopping_soa_in(config, spectrum, adversary, &mut HoppingSoaScratch::new())
}

/// Like [`execute_hopping_soa`], reusing caller-owned scratch
/// allocations — the batched-trials entry point.
///
/// # Panics
///
/// Panics if `listen_p` is not a probability.
#[must_use]
pub fn execute_hopping_soa_in(
    config: &HoppingConfig,
    spectrum: Spectrum,
    adversary: &mut dyn Adversary,
    scratch: &mut HoppingSoaScratch,
) -> (BroadcastOutcome, RunReport) {
    execute_hopping_soa_with(config, spectrum, adversary, scratch, &NoopCollector)
}

/// [`execute_hopping_soa_in`] with a telemetry collector attached; the
/// collector receives the era-2 engine's [`EngineProfile`] flush
/// (wake-drain batches, listener passes, RNG draws, settled listens).
///
/// [`EngineProfile`]: rcb_telemetry::EngineProfile
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
    assert!(
        (0.0..=1.0).contains(&config.listen_p),
        "listen_p must be a probability"
    );
    let seeds = SeedTree::new(config.seed);
    let mut authority = Authority::new(seeds.leaf_seed("auth-domain", 0));
    let alice_key = authority.issue_key();
    let verifier = authority.verifier();
    let signed_m = alice_key.sign(&MessageBytes::from_static(b"hopping payload m"));
    let alice_id = alice_key.id();

    let spec = GossipSpec {
        n: config.n,
        horizon: config.horizon,
        alice_send_p: 0.5,
        listen_p: config.listen_p,
        relay_p: (config.relay_rate / config.n as f64).clamp(0.0, 1.0),
        hop_channels: true,
        terminate_on_inform: false,
        epoch_len: 0,
        payload: Payload::Broadcast(signed_m),
    };
    scratch.budgets.clear();
    scratch
        .budgets
        .resize(config.n as usize + 1, Budget::unlimited());
    let engine_config = EngineConfig {
        max_slots: config.horizon + 2,
        trace_capacity: config.trace_capacity,
        spectrum,
    };
    let report = run_gossip_soa_with(
        &engine_config,
        &spec,
        &scratch.budgets,
        config.carol_budget,
        adversary,
        &seeds,
        &mut |payload| {
            matches!(payload, Payload::Broadcast(signed)
                if signed.signer() == alice_id && verifier.verify_signed(signed))
        },
        &mut scratch.soa,
        collector,
    );

    (gossip_outcome(config.n, &report), report)
}

/// Assembles the gossip-shaped [`BroadcastOutcome`] from an engine
/// report (shared by the hopping paths and by the baseline drivers in
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

#[cfg(test)]
mod tests {
    use super::*;
    use rcb_radio::SilentAdversary;

    #[test]
    fn hops_spread_activity_across_the_spectrum() {
        let cfg = HoppingConfig::new(16, 8_000, Budget::unlimited(), 3);
        let (_, report) = execute_hopping_soa(&cfg, Spectrum::new(4), &mut SilentAdversary);
        for (i, stats) in report.channel_stats.iter().enumerate() {
            assert!(stats.correct_sends > 0, "channel {i} never carried a send");
            assert!(
                stats.correct_listens > 0,
                "channel {i} never hosted a listener"
            );
        }
    }

    #[test]
    #[should_panic(expected = "listen_p must be a probability")]
    fn rejects_bad_listen_p() {
        let mut cfg = HoppingConfig::new(4, 10, Budget::unlimited(), 0);
        cfg.listen_p = -0.5;
        let _ = execute_hopping_soa(&cfg, Spectrum::single(), &mut SilentAdversary);
    }

    #[test]
    fn era2_quiet_hopping_delivers_on_any_spectrum() {
        for channels in [1u16, 2, 8] {
            let cfg = HoppingConfig::new(24, 20_000, Budget::unlimited(), 7);
            let (outcome, report) =
                execute_hopping_soa(&cfg, Spectrum::new(channels), &mut SilentAdversary);
            assert_eq!(
                outcome.informed_nodes, 24,
                "C={channels}: everyone informs on a quiet spectrum"
            );
            assert!(outcome.alice_terminated);
            assert_eq!(report.channel_stats.len(), channels as usize);
        }
    }

    #[test]
    fn era2_runs_are_deterministic_by_seed() {
        let cfg = HoppingConfig::new(12, 5_000, Budget::unlimited(), 11);
        let (a, ra) = execute_hopping_soa(&cfg, Spectrum::new(4), &mut SilentAdversary);
        let (b, rb) = execute_hopping_soa(&cfg, Spectrum::new(4), &mut SilentAdversary);
        assert_eq!(a.slots, b.slots);
        assert_eq!(a.node_total_cost, b.node_total_cost);
        assert_eq!(a.node_costs, b.node_costs);
        assert_eq!(ra.channel_stats, rb.channel_stats);
    }

    #[test]
    fn run_shape_is_pinned_by_the_horizon() {
        // The engine stops one slot past the horizon (every device
        // sleeps from `horizon` on), independent of seed and spectrum —
        // the timeline-shape invariant the retired oracle engine used to
        // cross-check.
        for (channels, seed) in [(1u16, 13u64), (2, 13), (4, 99)] {
            let cfg = HoppingConfig::new(24, 20_000, Budget::unlimited(), seed);
            let (outcome, report) =
                execute_hopping_soa(&cfg, Spectrum::new(channels), &mut SilentAdversary);
            assert_eq!(report.slots_elapsed, 20_001, "C={channels} seed={seed}");
            assert!(outcome.alice_terminated);
        }
    }
}
