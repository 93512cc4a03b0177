//! Output checks: outcome digests, ledger invariants and the
//! attempted/failed tally every workload reports.

use rcb_core::BroadcastOutcome;
use rcb_radio::{ChannelStats, CostBreakdown, StopReason};
use rcb_sim::ScenarioOutcome;

use crate::util::Fnv;

/// Digest of everything an execution produced except the telemetry
/// snapshot, in a form both the `Scenario` path and a direct engine
/// call can produce.
pub fn digest_parts(
    broadcast: &BroadcastOutcome,
    stop_reason: Option<StopReason>,
    refusals: Option<&[u64]>,
    channel_stats: Option<&[ChannelStats]>,
) -> u64 {
    let text = format!("{broadcast:?}|{stop_reason:?}|{refusals:?}|{channel_stats:?}");
    Fnv::default().write(text.as_bytes()).finish()
}

/// [`digest_parts`] of a scenario outcome. The protocol, strategy name
/// and seed are implied by the cell; the trace is never requested.
pub fn digest(outcome: &ScenarioOutcome) -> u64 {
    digest_parts(
        &outcome.broadcast,
        outcome.stop_reason,
        outcome.participant_refusals.as_deref(),
        outcome.channel_stats.as_deref(),
    )
}

/// The energy-ledger invariants every outcome must satisfy: Carol
/// spends at most her budget, at most `n` nodes are informed, and where
/// per-node costs exist they sum to the node total.
pub fn ledger(outcome: &BroadcastOutcome, carol_budget: Option<u64>) -> Result<(), String> {
    if let Some(t) = carol_budget {
        if outcome.carol_spend() > t {
            return Err(format!("carol spent {} > T = {t}", outcome.carol_spend()));
        }
    }
    if outcome.informed_nodes > outcome.n {
        return Err(format!(
            "informed {} > n = {}",
            outcome.informed_nodes, outcome.n
        ));
    }
    if let Some(costs) = &outcome.node_costs {
        let mut sum = CostBreakdown::default();
        for c in costs {
            sum.absorb(c);
        }
        if sum != outcome.node_total_cost {
            return Err(format!(
                "per-node costs sum to {sum:?}, node total is {:?}",
                outcome.node_total_cost
            ));
        }
    }
    Ok(())
}

/// Attempted and failed operations of one workload run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    /// Counts one verified operation.
    pub fn op(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages.push(why);
            }
        }
    }
}

/// Checks a batch of outcomes against the reference digests and the
/// ledger invariants.
pub fn batch(
    outcomes: &[ScenarioOutcome],
    reference: &[u64],
    carol_budget: Option<u64>,
    what: &str,
) -> Result<(), String> {
    if outcomes.len() != reference.len() {
        return Err(format!(
            "{what}: {} outcomes, expected {}",
            outcomes.len(),
            reference.len()
        ));
    }
    for (i, (o, &want)) in outcomes.iter().zip(reference).enumerate() {
        ledger(o, carol_budget).map_err(|e| format!("{what} trial {i}: {e}"))?;
        if digest(o) != want {
            return Err(format!(
                "{what} trial {i}: outcome differs from the reference"
            ));
        }
    }
    Ok(())
}
