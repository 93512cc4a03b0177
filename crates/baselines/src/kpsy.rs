//! The KPSY resource-competitive jamming defense — the `n`-player,
//! engine-driven descendant of [`crate::ksy`].
//!
//! King–Pettie–Saia–Young, *Resource-Competitive Broadcast* (see
//! arXiv:1202.6456), extend the two-player golden-ratio epoch protocol
//! to a broadcast setting: time is divided into doubling epochs
//! `e = 1, 2, …` of length `L_e = 2^e`, and in epoch `e` every player
//! participates in only `R_e = ⌈L_e^{φ−1}⌉` uniformly random secret
//! slots of the epoch — Alice transmits in hers, an uninformed node
//! listens in its, and an informed node relays in its. Since the slot
//! choices are secret and uniform, a jammer must blanket a constant
//! fraction of the whole epoch (cost `Ω(L_e)`) to reliably kill every
//! send/listen coincidence, while each correct player spends only
//! `O(L_e^{φ−1})` — the resource-competitive `O(T^{0.62})` listening
//! defense.
//!
//! Unlike [`crate::ksy`]'s closed-form two-player run, this driver
//! executes slot by slot on the exact engine, so the whole adversary zoo
//! applies unchanged and outcomes carry real energy ledgers. A player
//! acts only in its secret slots, and its next one is simply the next
//! entry of its sorted plan: players park in `rcb-radio`'s [`WakeQueue`]
//! and a slot touches only the players that act in it, while the air
//! itself (Carol's turn, listener resolution, the report) is the shared
//! [`Medium`]. The phase-level engines have no KPSY model, so
//! `rcb_sim::Scenario::kpsy` rejects them with a typed error.
//!
//! A plan is Floyd's sample of the epoch's `R_e` slots, read back in
//! ascending order from a bitset shared by all players
//! ([`SortedSampler`]): the picks of [`sample_distinct`] from the same
//! words, with no hash set, no sort and, once the scratch is warm, no
//! allocation. `R_e` comes from a table built once per run.
//!
//! Late epochs are mostly dead air: epoch `e` holds `2^e` slots but
//! only `R_e ≈ 2^{0.62e}` secret slots per player. Once Carol's capped
//! pool is spent ([`Medium::carol_broke`]), nothing she plans can air,
//! so an untraced run whose adversary does not want listener identities
//! jumps from the current slot to the next player's wake
//! ([`WakeQueue::next_due`]) or to the end of the run, without calling
//! her for the slots in between. The run length (`slots_elapsed`, the
//! `EngineSlots` counter) is still `horizon + 1`; `EngineAdversaryPlans`
//! counts the slots simulated. Outcomes are byte-identical either way,
//! so the loop costs `O(wakes)` rather than `O(horizon)` once she is
//! broke.
//!
//! [`sample_distinct`]: rcb_rng::subset::sample_distinct

use rcb_auth::{Authority, Payload as MessageBytes};
use rcb_core::{gossip_outcome, BroadcastOutcome};
use rcb_radio::{
    Adversary, Budget, ChannelId, Medium, Payload, Reception, RunReport, Slot, Spectrum,
    StopReason, WakeQueue,
};
use rcb_rng::{subset::SortedSampler, SeedTree, SimRng};
use rcb_telemetry::{Collector, EngineProfile, MetricId, NoopCollector};

use crate::ksy::PHI;

/// Configuration for a KPSY-defense run.
#[derive(Debug, Clone)]
pub struct KpsyConfig {
    /// Number of receiver nodes.
    pub n: u64,
    /// Hard stop. Epochs double, so a horizon of `2^{e+1} − 2` runs
    /// exactly `e` whole epochs.
    pub horizon: u64,
    /// Carol's pooled budget.
    pub carol_budget: Budget,
    /// Retain at most this many slot records in the report's trace
    /// (0 disables tracing).
    pub trace_capacity: usize,
    /// Master seed.
    pub seed: u64,
}

impl KpsyConfig {
    /// A run without tracing.
    #[must_use]
    pub fn new(n: u64, horizon: u64, carol_budget: Budget, seed: u64) -> Self {
        Self {
            n,
            horizon,
            carol_budget,
            trace_capacity: 0,
            seed,
        }
    }
}

/// First slot of epoch `e` (1-based): `2^e − 2`, so epoch `e` spans
/// `[2^e − 2, 2^{e+1} − 2)` with length `L_e = 2^e`.
fn epoch_start(epoch: u32) -> u64 {
    (1u64 << epoch) - 2
}

/// The per-epoch activity quota `R_e = ⌈L_e^{φ−1}⌉`, capped at `L_e`.
fn epoch_quota(len: u64) -> u64 {
    ((len as f64).powf(PHI - 1.0).ceil() as u64).min(len)
}

/// Bucket count of the players' wake queue. A player has one pending
/// wake at a time, so a drain walks only its bucket's `≈ (n + 1)/64`
/// parked players, and a dead-air jump ([`WakeQueue::next_due`]) scans
/// at most 64 buckets before its one pass over the roster.
const WAKE_BUCKETS: u64 = 64;

/// The epoch containing `slot`: `⌊log2(slot + 2)⌋`.
fn epoch_of(slot: u64) -> u32 {
    63 - (slot + 2).leading_zeros()
}

/// `R_e` for every epoch `e` that starts below `horizon`, at index `e`
/// (index 0 is unused). Epoch 63 is the last a `u64` slot reaches.
fn quota_table(horizon: u64, quotas: &mut Vec<u64>) {
    quotas.clear();
    quotas.push(0);
    quotas.extend(
        (1..64)
            .take_while(|&epoch| epoch_start(epoch) < horizon)
            .map(|epoch| epoch_quota(1 << epoch)),
    );
}

/// One player's secret schedule: its private stream and the sorted
/// plan of the epoch it is in.
#[derive(Debug)]
struct Plan {
    rng: SimRng,
    /// The epoch `slots` covers (0 before the first draw).
    epoch: u32,
    /// Absolute indices of the epoch's secret slots, ascending.
    slots: Vec<u64>,
    /// Index of the next unvisited entry of `slots`.
    cursor: usize,
}

impl Plan {
    fn new(rng: SimRng) -> Self {
        Self {
            rng,
            epoch: 0,
            slots: Vec::new(),
            cursor: 0,
        }
    }

    /// Rewinds the plan to before its first draw on a new stream,
    /// keeping its buffer.
    fn reset(&mut self, rng: SimRng) {
        self.rng = rng;
        self.epoch = 0;
        self.slots.clear();
        self.cursor = 0;
    }

    /// The player's next secret slot below `horizon`. A spent plan draws
    /// the next epoch's `R_e` (`quotas[e]`, see [`quota_table`]) distinct
    /// slots from the private stream — but never for an epoch starting at
    /// or past the horizon, where the player has terminated.
    fn next_slot(
        &mut self,
        horizon: u64,
        quotas: &[u64],
        sampler: &mut SortedSampler,
    ) -> Option<u64> {
        if self.cursor == self.slots.len() {
            let epoch = self.epoch + 1;
            let start = epoch_start(epoch);
            if start >= horizon {
                return None;
            }
            let quota = quotas[epoch as usize];
            let slots = &mut self.slots;
            slots.clear();
            slots.reserve_exact(quota as usize);
            sampler.sample(&mut self.rng, 1 << epoch, quota, |s| slots.push(start + s));
            self.epoch = epoch;
            self.cursor = 0;
        }
        let slot = self.slots[self.cursor];
        self.cursor += 1;
        (slot < horizon).then_some(slot)
    }
}

/// Reusable scratch for batched KPSY runs.
#[derive(Debug, Default)]
pub struct KpsyScratch {
    budgets: Vec<Budget>,
    /// Index 0 = Alice, `1..=n` = nodes.
    plans: Vec<Plan>,
    /// `R_e` by epoch (see [`quota_table`]).
    quotas: Vec<u64>,
    /// Draws every player's plans.
    sampler: SortedSampler,
    /// Epoch in which each player became informed (`u32::MAX` while
    /// uninformed; Alice holds `m` from epoch 0): a player relays in the
    /// epochs after it, and an informed node sits out the rest of its
    /// listening plan.
    informed_epoch: Vec<u32>,
    wake: WakeQueue,
    due: Vec<(u64, u32)>,
    medium: Medium,
}

impl KpsyScratch {
    /// Creates an empty scratch; buffers are shaped on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Runs the KPSY jamming defense on the exact engine and reports the
/// outcome plus the raw engine report.
///
/// This is the execution engine behind `rcb_sim::Scenario::kpsy`; prefer
/// the `Scenario` builder in application code. Batched callers should
/// use [`execute_kpsy_in`] with a per-worker [`KpsyScratch`].
///
/// # Example
///
/// ```
/// use rcb_baselines::{execute_kpsy, KpsyConfig};
/// use rcb_radio::{Budget, SilentAdversary};
///
/// let (outcome, _report) = execute_kpsy(
///     &KpsyConfig::new(8, 2_000, Budget::unlimited(), 1),
///     &mut SilentAdversary,
/// );
/// assert_eq!(outcome.informed_nodes, 8);
/// // The defense's point: node spend is sublinear in elapsed time.
/// assert!(outcome.mean_node_cost() < 2_000.0 / 4.0);
/// ```
#[must_use]
pub fn execute_kpsy(
    config: &KpsyConfig,
    adversary: &mut dyn Adversary,
) -> (BroadcastOutcome, RunReport) {
    execute_kpsy_in(config, adversary, &mut KpsyScratch::new())
}

/// Like [`execute_kpsy`], reusing caller-owned scratch allocations — the
/// batched-trials entry point.
#[must_use]
pub fn execute_kpsy_in(
    config: &KpsyConfig,
    adversary: &mut dyn Adversary,
    scratch: &mut KpsyScratch,
) -> (BroadcastOutcome, RunReport) {
    execute_kpsy_with(config, adversary, scratch, &NoopCollector)
}

/// [`execute_kpsy_in`] with a telemetry collector attached. Telemetry
/// is purely observational: counts batch in an [`EngineProfile`] behind
/// one hoisted `enabled` check and flush once at run end.
#[must_use]
pub fn execute_kpsy_with<C: Collector + ?Sized>(
    config: &KpsyConfig,
    adversary: &mut dyn Adversary,
    scratch: &mut KpsyScratch,
    collector: &C,
) -> (BroadcastOutcome, RunReport) {
    let seeds = SeedTree::new(config.seed);
    let mut authority = Authority::new(seeds.leaf_seed("auth-domain", 0));
    let alice_key = authority.issue_key();
    let verifier = authority.verifier();
    let alice_id = alice_key.id();
    let m = Payload::Broadcast(alice_key.sign(&MessageBytes::from_static(b"kpsy payload m")));
    let n = config.n as usize;
    let horizon = config.horizon;
    let telemetry = collector.enabled();
    let mut prof = EngineProfile::new();

    let KpsyScratch {
        budgets,
        plans,
        quotas,
        sampler,
        informed_epoch,
        wake,
        due,
        medium,
    } = scratch;
    budgets.clear();
    budgets.resize(n + 1, Budget::unlimited());
    medium.reset(
        budgets,
        config.carol_budget,
        Spectrum::single(),
        config.trace_capacity,
    );
    informed_epoch.clear();
    informed_epoch.resize(n + 1, u32::MAX);
    informed_epoch[0] = 0;
    quota_table(horizon, quotas);
    let stream = |i: usize| seeds.stream("participant", i as u64);
    plans.truncate(n + 1);
    for (i, plan) in plans.iter_mut().enumerate() {
        plan.reset(stream(i));
    }
    plans.extend((plans.len()..=n).map(|i| Plan::new(stream(i))));
    wake.reset_with_buckets(n + 1, horizon, WAKE_BUCKETS);
    for (i, plan) in plans.iter_mut().enumerate() {
        if let Some(slot) = plan.next_slot(horizon, quotas, sampler) {
            wake.schedule(i as u32, slot);
        }
    }

    // Every player terminates in slot `horizon`, which it sleeps
    // through, so the run spans slots `0..=horizon`, each with Carol's
    // turn until she is broke; dead air after that is skipped (see
    // module docs).
    let exact_slots = config.trace_capacity > 0 || adversary.wants_listener_identities();
    let mut dead_air = 0u64;
    let mut slot_idx = 0u64;
    while slot_idx <= horizon {
        if !exact_slots && medium.carol_broke() {
            let next = wake.next_due(slot_idx, horizon + 1).unwrap_or(horizon + 1);
            dead_air += next - slot_idx;
            slot_idx = next;
            if slot_idx > horizon {
                break;
            }
        }
        wake.drain_due(slot_idx, due);
        if telemetry && !due.is_empty() {
            prof.wake_drains += 1;
            prof.wake_drained += due.len() as u64;
            collector.observe(MetricId::EngineWakeDrainBatch, due.len() as f64);
        }
        for &(_, player) in due.iter() {
            let i = player as usize;
            let plan = &mut plans[i];
            if informed_epoch[i] == u32::MAX {
                medium.listen(player, ChannelId::ZERO);
            } else if plan.epoch > informed_epoch[i] {
                medium.send(player, ChannelId::ZERO, m.clone());
            }
            if let Some(next) = plan.next_slot(horizon, quotas, sampler) {
                wake.schedule(player, next);
            }
        }
        if telemetry && !medium.listeners().is_empty() {
            prof.listener_passes += 1;
            prof.listeners_resolved += medium.listeners().len() as u64;
        }
        medium.carol_turn(Slot::new(slot_idx), adversary, |air| {
            air.hear_all(|_, pid, reception| {
                if let Reception::Frame(Payload::Broadcast(signed)) = reception {
                    if signed.signer() == alice_id && verifier.verify_signed(signed) {
                        // The epoch heard in, not the plan's: a listener
                        // on its epoch's last secret slot has already
                        // drawn the next epoch's plan.
                        informed_epoch[pid.index() as usize] = epoch_of(slot_idx);
                    }
                }
            });
        });
        slot_idx += 1;
    }

    let slots = horizon + 1;
    if telemetry {
        prof.slots = slots;
        // Carol plans once per simulated slot.
        prof.adversary_plans = slots - dead_air;
        // Floyd sampling draws once per planned slot.
        prof.rng_draws = plans
            .iter()
            .map(|p| quotas[1..=p.epoch as usize].iter().sum::<u64>())
            .sum();
        prof.flush(collector);
    }
    let informed = informed_epoch.iter().map(|&e| e != u32::MAX).collect();
    let report = medium.report(
        slots,
        StopReason::AllTerminated,
        informed,
        vec![true; n + 1],
    );
    (gossip_outcome(config.n, &report), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcb_adversary::ContinuousJammer;
    use rcb_radio::SilentAdversary;

    #[test]
    fn epoch_geometry() {
        assert_eq!(epoch_start(1), 0);
        assert_eq!(epoch_start(2), 2);
        assert_eq!(epoch_start(3), 6);
        assert_eq!(epoch_quota(2), 2);
        for (slot, epoch) in [(0, 1), (1, 1), (2, 2), (5, 2), (6, 3), (13, 3), (14, 4)] {
            assert_eq!(epoch_of(slot), epoch, "slot {slot}");
            assert!(epoch_start(epoch) <= slot && slot < epoch_start(epoch + 1));
        }
        // L = 1024: quota = ⌈1024^0.618⌉ = 73.
        assert_eq!(epoch_quota(1024), 73);
    }

    #[test]
    fn quiet_channel_informs_everyone() {
        let (outcome, _) = execute_kpsy(
            &KpsyConfig::new(12, 4_000, Budget::unlimited(), 1),
            &mut SilentAdversary,
        );
        assert_eq!(outcome.informed_nodes, 12);
        assert!(outcome.alice_terminated);
    }

    #[test]
    fn node_cost_is_sublinear_in_elapsed_time() {
        // 2^{e+1} − 2 slots = e whole epochs; per-node cost is
        // Σ R_e = O(horizon^{φ−1}), far below horizon.
        let horizon = (1u64 << 13) - 2;
        let (outcome, _) = execute_kpsy(
            &KpsyConfig::new(6, horizon, Budget::unlimited(), 5),
            &mut SilentAdversary,
        );
        assert_eq!(outcome.informed_nodes, 6);
        let bound: u64 = (1..=12u32).map(|e| epoch_quota(1 << e)).sum();
        assert!(
            outcome.alice_cost.sends <= bound,
            "Alice within the quota: {} <= {bound}",
            outcome.alice_cost.sends
        );
        // Quota sum ≈ 334 vs horizon 8190: the φ−1 exponent in action.
        assert!((bound as f64) < (horizon as f64).powf(0.75));
    }

    #[test]
    fn survives_continuous_jamming_past_the_budget() {
        let t = 2_000u64;
        let (outcome, _) = execute_kpsy(
            &KpsyConfig::new(8, 16_000, Budget::limited(t), 7),
            &mut ContinuousJammer,
        );
        assert_eq!(outcome.carol_spend(), t, "she spends it all");
        assert_eq!(outcome.informed_nodes, 8, "delivery after she is broke");
        // Resource-competitiveness: mean node spend well below Carol's
        // (the naive baseline pays ≥ T here; KPSY's listening is
        // O(T^{φ−1}), plus a relay tail over the remaining epochs).
        assert!(
            outcome.mean_node_cost() < t as f64 / 2.0,
            "mean node cost {} vs T={t}",
            outcome.mean_node_cost()
        );
    }

    #[test]
    fn quota_table_covers_every_epoch_below_the_horizon() {
        let mut quotas = Vec::new();
        quota_table(0, &mut quotas);
        assert_eq!(quotas, [0], "a player terminates before epoch 1");
        quota_table((1 << 13) - 2, &mut quotas);
        assert_eq!(quotas.len(), 13, "epochs 1-12");
        quota_table((1 << 13) - 1, &mut quotas);
        assert_eq!(quotas.len(), 14, "epoch 13 starts at slot 2^13 - 2");
        for (e, &quota) in quotas.iter().enumerate().skip(1) {
            assert_eq!(quota, epoch_quota(1 << e), "epoch {e}");
        }
        quota_table(u64::MAX, &mut quotas);
        assert_eq!(quotas.len(), 64, "epochs 1-63");
    }

    #[test]
    fn scratch_reuse_reproduces_fresh_runs() {
        // Plans keep their buffers across runs; a run on a warm scratch
        // of another shape must equal a fresh one.
        let first = KpsyConfig::new(6, 2_000, Budget::limited(300), 4);
        let (fresh, _) = execute_kpsy(&first, &mut ContinuousJammer);
        let mut scratch = KpsyScratch::new();
        for config in [
            KpsyConfig::new(20, 5_000, Budget::unlimited(), 5),
            KpsyConfig::new(2, 100, Budget::limited(10), 6),
            first,
        ] {
            let (warm, _) = execute_kpsy_in(&config, &mut ContinuousJammer, &mut scratch);
            let (cold, _) = execute_kpsy(&config, &mut ContinuousJammer);
            assert_eq!(format!("{warm:?}"), format!("{cold:?}"));
        }
        let (again, _) = execute_kpsy_in(
            &KpsyConfig::new(6, 2_000, Budget::limited(300), 4),
            &mut ContinuousJammer,
            &mut scratch,
        );
        assert_eq!(format!("{again:?}"), format!("{fresh:?}"));
    }

    #[test]
    fn deterministic_by_seed() {
        let cfg = KpsyConfig::new(6, 2_000, Budget::limited(500), 9);
        let (a, ra) = execute_kpsy(&cfg, &mut ContinuousJammer);
        let (b, rb) = execute_kpsy(&cfg, &mut ContinuousJammer);
        assert_eq!(a.node_costs, b.node_costs);
        assert_eq!(a.carol_cost, b.carol_cost);
        assert_eq!(ra.participant_costs, rb.participant_costs);
    }
}
