//! Epoch-structured channel-hopping broadcast — the Chen–Zheng schedule.
//!
//! Where [`crate::execute_hopping_soa`] retunes every device to a fresh
//! uniform channel *per slot*, the fast multi-channel broadcast protocol
//! of Chen & Zheng (2019, arXiv:1904.06328) fixes each device's channel
//! for an **epoch** of `L` consecutive slots and re-randomizes only at
//! epoch boundaries. Staying put amortizes rendezvous: a sender and a
//! listener that land on the same channel keep meeting for the rest of
//! the epoch instead of for one slot. The epoch structure also carries a
//! listener-side jamming defense: an uninformed node that sampled noise
//! on its channel during an epoch *excludes that channel* from its next
//! draw (senders always redraw uniformly — a half-duplex radio senses
//! nothing while transmitting).
//!
//! The flip side is predictability, which is what experiment E17
//! measures: a [`SweepJammer`](../../rcb_adversary) whose dwell time
//! matches the epoch length chases the evaders around the spectrum
//! (their escape channel is exactly one hop ahead of the sweep), while
//! dwells far from `L` either spread thin (short dwell) or are dodged by
//! the detection rule (long dwell) — a resonance curve with its peak at
//! `dwell = L`.

use rcb_auth::{Authority, Payload as MessageBytes};
use rcb_radio::{
    run_gossip_soa_with, Adversary, Budget, EngineConfig, GossipSoaScratch, GossipSpec, Payload,
    RunReport, Spectrum,
};
use rcb_rng::SeedTree;
use rcb_telemetry::{Collector, NoopCollector};

use crate::hopping::gossip_outcome;
use crate::outcome::BroadcastOutcome;

/// Configuration for an epoch-structured hopping run.
///
/// The spectrum is passed separately to [`execute_epoch_hopping_soa`] so
/// one config can be swept across channel counts.
#[derive(Debug, Clone)]
pub struct EpochHoppingConfig {
    /// Number of receiver nodes.
    pub n: u64,
    /// Hard stop.
    pub horizon: u64,
    /// Per-slot listen probability of uninformed nodes.
    pub listen_p: f64,
    /// Relay probability is `relay_rate / n`.
    pub relay_rate: f64,
    /// Epoch length `L` in slots: channel draws happen only at slot
    /// indices divisible by `L`. Must be nonzero.
    pub epoch_len: u64,
    /// Carol's pooled budget.
    pub carol_budget: Budget,
    /// Retain at most this many slot records in the report's trace
    /// (0 disables tracing).
    pub trace_capacity: usize,
    /// Master seed.
    pub seed: u64,
}

impl EpochHoppingConfig {
    /// The default gossip shape: `listen_p = 0.5`, `relay_rate = 1.0`,
    /// no tracing.
    #[must_use]
    pub fn new(n: u64, horizon: u64, epoch_len: u64, carol_budget: Budget, seed: u64) -> Self {
        Self {
            n,
            horizon,
            listen_p: 0.5,
            relay_rate: 1.0,
            epoch_len,
            carol_budget,
            trace_capacity: 0,
            seed,
        }
    }
}

fn validate(config: &EpochHoppingConfig) {
    assert!(
        (0.0..=1.0).contains(&config.listen_p),
        "listen_p must be a probability"
    );
    assert!(config.epoch_len > 0, "epoch_len must be at least one slot");
}

/// Reusable scratch for batched epoch-hopping runs on the
/// sleep-skipping SoA engine.
#[derive(Debug, Default)]
pub struct EpochHoppingSoaScratch {
    budgets: Vec<Budget>,
    soa: GossipSoaScratch,
}

impl EpochHoppingSoaScratch {
    /// Creates an empty scratch; buffers are shaped on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Runs epoch-structured hopping on the sleep-skipping SoA engine.
///
/// The epoch schedule is a natural fit for sleep-skipping: channel draws
/// happen only at epoch boundaries (`O(n)` per epoch, not per slot), and
/// a dormant node's deferred listens within an epoch all land on its one
/// epoch channel, so settlement needs two binomials instead of a
/// multinomial split.
///
/// This is the execution engine behind
/// `rcb_sim::Scenario::epoch_hopping`; prefer the `Scenario` builder in
/// application code.
///
/// # Panics
///
/// Panics if `listen_p` is not a probability or `epoch_len` is zero (the
/// `Scenario` builder rejects these with typed errors instead).
#[must_use]
pub fn execute_epoch_hopping_soa(
    config: &EpochHoppingConfig,
    spectrum: Spectrum,
    adversary: &mut dyn Adversary,
) -> (BroadcastOutcome, RunReport) {
    execute_epoch_hopping_soa_in(
        config,
        spectrum,
        adversary,
        &mut EpochHoppingSoaScratch::new(),
    )
}

/// Like [`execute_epoch_hopping_soa`], reusing caller-owned scratch
/// allocations — the batched-trials entry point.
///
/// # Panics
///
/// Panics if `listen_p` is not a probability or `epoch_len` is zero.
#[must_use]
pub fn execute_epoch_hopping_soa_in(
    config: &EpochHoppingConfig,
    spectrum: Spectrum,
    adversary: &mut dyn Adversary,
    scratch: &mut EpochHoppingSoaScratch,
) -> (BroadcastOutcome, RunReport) {
    execute_epoch_hopping_soa_with(config, spectrum, adversary, scratch, &NoopCollector)
}

/// [`execute_epoch_hopping_soa_in`] with a telemetry collector attached;
/// the collector receives the era-2 engine's [`EngineProfile`] flush
/// (wake-drain batches, listener passes, RNG draws, settled listens).
///
/// [`EngineProfile`]: rcb_telemetry::EngineProfile
///
/// # Panics
///
/// Panics if `listen_p` is not a probability or `epoch_len` is zero.
#[must_use]
pub fn execute_epoch_hopping_soa_with<C: Collector + ?Sized>(
    config: &EpochHoppingConfig,
    spectrum: Spectrum,
    adversary: &mut dyn Adversary,
    scratch: &mut EpochHoppingSoaScratch,
    collector: &C,
) -> (BroadcastOutcome, RunReport) {
    validate(config);
    let seeds = SeedTree::new(config.seed);
    let mut authority = Authority::new(seeds.leaf_seed("auth-domain", 0));
    let alice_key = authority.issue_key();
    let verifier = authority.verifier();
    let signed_m = alice_key.sign(&MessageBytes::from_static(b"epoch hopping payload m"));
    let alice_id = alice_key.id();

    let spec = GossipSpec {
        n: config.n,
        horizon: config.horizon,
        alice_send_p: 0.5,
        listen_p: config.listen_p,
        relay_p: (config.relay_rate / config.n as f64).clamp(0.0, 1.0),
        hop_channels: true,
        terminate_on_inform: false,
        epoch_len: config.epoch_len,
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

#[cfg(test)]
mod tests {
    use super::*;
    use rcb_radio::SilentAdversary;

    #[test]
    fn era2_quiet_epoch_hopping_delivers_on_any_spectrum() {
        for channels in [1u16, 2, 8] {
            let cfg = EpochHoppingConfig::new(24, 20_000, 32, Budget::unlimited(), 7);
            let (outcome, report) =
                execute_epoch_hopping_soa(&cfg, Spectrum::new(channels), &mut SilentAdversary);
            assert_eq!(
                outcome.informed_nodes, 24,
                "C={channels}: everyone informs on a quiet spectrum"
            );
            assert!(outcome.alice_terminated);
            assert_eq!(report.channel_stats.len(), channels as usize);
        }
    }

    #[test]
    fn runs_are_deterministic_by_seed() {
        let cfg = EpochHoppingConfig::new(12, 5_000, 64, Budget::unlimited(), 11);
        let (a, ra) = execute_epoch_hopping_soa(&cfg, Spectrum::new(4), &mut SilentAdversary);
        let (b, rb) = execute_epoch_hopping_soa(&cfg, Spectrum::new(4), &mut SilentAdversary);
        assert_eq!(a.node_costs, b.node_costs);
        assert_eq!(ra.channel_stats, rb.channel_stats);
    }

    #[test]
    fn run_shape_is_pinned_by_the_horizon() {
        let cfg = EpochHoppingConfig::new(24, 20_000, 32, Budget::unlimited(), 13);
        let (outcome, report) =
            execute_epoch_hopping_soa(&cfg, Spectrum::new(2), &mut SilentAdversary);
        assert_eq!(report.slots_elapsed, 20_001);
        assert!(outcome.alice_terminated);
    }

    #[test]
    #[should_panic(expected = "epoch_len must be at least one slot")]
    fn rejects_zero_epoch_len() {
        let cfg = EpochHoppingConfig::new(4, 10, 0, Budget::unlimited(), 0);
        let _ = execute_epoch_hopping_soa(&cfg, Spectrum::new(2), &mut SilentAdversary);
    }
}
