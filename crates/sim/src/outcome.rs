//! The common outcome type every scenario produces.

use std::ops::Deref;

use rcb_baselines::ksy::KsyOutcome;
use rcb_core::{BroadcastOutcome, EngineKind};
use rcb_radio::{Budget, ChannelStats, CostBreakdown, StopReason, Trace};

use crate::scenario::ProtocolKind;

/// Everything one scenario execution measured — a superset of
/// [`BroadcastOutcome`] that is uniform across protocols and engines.
///
/// The broadcast-shaped common measures (informed counts, per-side costs,
/// slots, engine) live in [`broadcast`](Self::broadcast) and are reachable
/// directly through `Deref`, so `outcome.informed_fraction()` and
/// `outcome.slots` work on any protocol. Protocol- or engine-specific
/// extras are optional fields:
///
/// * [`ksy`](Self::ksy) — the raw two-player epoch outcome when the
///   protocol is KSY (its measures are also mapped into `broadcast`:
///   sender → Alice, receiver → the single node, epochs → rounds);
/// * [`stop_reason`](Self::stop_reason) /
///   [`participant_refusals`](Self::participant_refusals) /
///   [`trace`](Self::trace) — exact-engine bookkeeping, absent on the
///   phase-level fast simulator.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Which protocol ran.
    pub protocol: ProtocolKind,
    /// Stable name of the adversary strategy (for tables).
    pub strategy: String,
    /// The master seed of this execution.
    pub seed: u64,
    /// The common broadcast-shaped measures.
    pub broadcast: BroadcastOutcome,
    /// Raw KSY two-player outcome (KSY protocol only).
    pub ksy: Option<KsyOutcome>,
    /// Why the exact engine stopped (exact engine only).
    pub stop_reason: Option<StopReason>,
    /// Per-participant budget-refusal counts, index 0 = Alice (exact
    /// engine only).
    pub participant_refusals: Option<Vec<u64>>,
    /// Per-channel activity/spend tallies, index-aligned with the
    /// spectrum's channels (a single entry for single-channel
    /// scenarios). Populated by every exact-engine protocol, by the
    /// phase-level `fast_mc` hopping engine, and by the fluid tier
    /// (where the tallies are rounded expectations); absent on the
    /// ε-BROADCAST fast simulator and KSY. This is where "making
    /// evildoers pay"
    /// accounting survives the multi-channel split: it shows how the
    /// jammer's budget divided across channels.
    pub channel_stats: Option<Vec<ChannelStats>>,
    /// Captured slot trace, when tracing was requested (exact engine
    /// only).
    pub trace: Option<Trace>,
    /// Telemetry snapshot taken after the run, when a snapshotting
    /// collector was attached via `ScenarioBuilder::telemetry`. Unlike
    /// [`trace`](Self::trace), this is available on **every** engine,
    /// including the phase-level fast simulators. The snapshot is
    /// cumulative over the collector's lifetime, so across a batch it
    /// reflects all trials completed so far.
    pub telemetry: Option<rcb_telemetry::Snapshot>,
}

impl Deref for ScenarioOutcome {
    type Target = BroadcastOutcome;

    fn deref(&self) -> &BroadcastOutcome {
        &self.broadcast
    }
}

impl ScenarioOutcome {
    /// The telemetry snapshot taken after this run, if a snapshotting
    /// collector was attached (`None` otherwise — including for the
    /// default no-op collector, which records nothing).
    #[must_use]
    pub fn telemetry_snapshot(&self) -> Option<&rcb_telemetry::Snapshot> {
        self.telemetry.as_ref()
    }

    /// Total budget refusals across Alice and all nodes (0 when the
    /// engine does not track refusals).
    #[must_use]
    pub fn total_refusals(&self) -> u64 {
        self.participant_refusals
            .as_ref()
            .map(|r| r.iter().sum())
            .unwrap_or(0)
    }

    /// Slots the jam executed on each channel (empty when the engine did
    /// not track per-channel stats).
    #[must_use]
    pub fn jam_slots_by_channel(&self) -> Vec<u64> {
        self.channel_stats
            .as_ref()
            .map(|stats| stats.iter().map(|s| s.jammed_slots).collect())
            .unwrap_or_default()
    }

    /// Frames sent by correct participants on each channel (empty when
    /// the engine did not track per-channel stats).
    #[must_use]
    pub fn correct_sends_by_channel(&self) -> Vec<u64> {
        self.channel_stats
            .as_ref()
            .map(|stats| stats.iter().map(|s| s.correct_sends).collect())
            .unwrap_or_default()
    }

    /// Checks the energy ledger's conservation identities, and returns the
    /// first one this outcome breaks. `carol_budget` is the pool the run
    /// gave Carol.
    ///
    /// On every engine: at most `n` nodes are informed, Carol spent at
    /// most her budget, and where per-node costs are kept they sum to
    /// `node_total_cost`. Where an exact-engine run kept per-channel stats,
    /// also: the channels' correct sends and listens sum to Alice's plus
    /// the nodes', their Byzantine sends and jammed slots to Carol's sends
    /// and jams, and no channel was jammed in more slots than the run
    /// lasted. `Scenario::run_in` debug-asserts it after every exact-engine
    /// run; the phase tiers' rounded tallies are not held to it.
    ///
    /// # Errors
    ///
    /// Names the broken identity and both of its sides.
    pub fn check_invariants(&self, carol_budget: Budget) -> Result<(), String> {
        let b = &self.broadcast;
        let check = |holds: bool, what: &str, left: u64, right: u64| {
            if holds {
                Ok(())
            } else {
                Err(format!("{what}: {left} against {right}"))
            }
        };
        check(
            b.informed_nodes <= b.n,
            "informed nodes exceed n",
            b.informed_nodes,
            b.n,
        )?;
        if let Some(cap) = carol_budget.cap() {
            let spent = b.carol_cost.total();
            check(spent <= cap, "Carol outspent her budget", spent, cap)?;
        }
        if let Some(nodes) = &b.node_costs {
            let mut sum = CostBreakdown::default();
            nodes.iter().for_each(|c| sum.absorb(c));
            let (sum, total) = (sum.total(), b.node_total_cost.total());
            check(
                sum == total,
                "node costs do not sum to the total",
                sum,
                total,
            )?;
        }
        let Some(stats) = self
            .channel_stats
            .as_ref()
            .filter(|_| b.engine == EngineKind::Exact)
        else {
            return Ok(());
        };
        let tally = |f: fn(&ChannelStats) -> u64| stats.iter().map(f).sum::<u64>();
        let correct = b.alice_cost.sends + b.node_total_cost.sends;
        let sends = tally(|s| s.correct_sends);
        check(
            sends == correct,
            "channel sends against correct sends",
            sends,
            correct,
        )?;
        let correct = b.alice_cost.listens + b.node_total_cost.listens;
        let listens = tally(|s| s.correct_listens);
        let what = "channel listens against correct listens";
        check(listens == correct, what, listens, correct)?;
        let byz = tally(|s| s.byz_sends);
        let what = "channel Byzantine sends against Carol's sends";
        check(byz == b.carol_cost.sends, what, byz, b.carol_cost.sends)?;
        let jammed = tally(|s| s.jammed_slots);
        let what = "channel jammed slots against Carol's jams";
        check(jammed == b.carol_cost.jams, what, jammed, b.carol_cost.jams)?;
        let most = stats.iter().map(|s| s.jammed_slots).max().unwrap_or(0);
        check(
            most <= b.slots,
            "a channel jammed past the run",
            most,
            b.slots,
        )
    }

    /// Pearson correlation between the per-channel correct traffic and
    /// the per-channel jam spend — the whole-run tally of how closely the
    /// jammer's budget split tracked where the traffic actually was.
    ///
    /// Returns `None` when per-channel stats are unavailable, the
    /// spectrum has fewer than two channels, or either series is constant
    /// (a perfectly uniform split has no defined correlation).
    #[must_use]
    pub fn jam_traffic_correlation(&self) -> Option<f64> {
        let sends: Vec<f64> = self
            .correct_sends_by_channel()
            .iter()
            .map(|&v| v as f64)
            .collect();
        let jams: Vec<f64> = self
            .jam_slots_by_channel()
            .iter()
            .map(|&v| v as f64)
            .collect();
        pearson(&sends, &jams)
    }
}

/// Pearson correlation of two equal-length series; `None` on a length
/// mismatch, below two points, or when either series is constant
/// (a perfectly uniform series has no defined correlation).
///
/// Shared by [`ScenarioOutcome::jam_traffic_correlation`] and the
/// experiment harness's traffic-tracking instrumentation, so the two
/// reports cannot drift apart.
#[must_use]
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mean = |vs: &[f64]| vs.iter().sum::<f64>() / n;
    let (mx, my) = (mean(xs), mean(ys));
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let (dx, dy) = (x - mx, y - my);
        cov += dx * dy;
        vx += dx * dx;
        vy += dy * dy;
    }
    if vx <= 0.0 || vy <= 0.0 {
        return None;
    }
    Some(cov / (vx * vy).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> ScenarioOutcome {
        ScenarioOutcome {
            protocol: ProtocolKind::Broadcast,
            strategy: "silent".into(),
            seed: 1,
            broadcast: BroadcastOutcome {
                n: 10,
                informed_nodes: 9,
                uninformed_terminated: 1,
                unterminated_nodes: 0,
                alice_terminated: true,
                alice_cost: CostBreakdown::default(),
                node_total_cost: CostBreakdown::default(),
                max_node_cost: None,
                carol_cost: CostBreakdown::default(),
                slots: 100,
                rounds_entered: 3,
                engine: EngineKind::Exact,
                node_costs: None,
            },
            ksy: None,
            stop_reason: None,
            participant_refusals: Some(vec![0, 2, 3]),
            channel_stats: Some(vec![
                ChannelStats {
                    jammed_slots: 4,
                    ..ChannelStats::default()
                },
                ChannelStats {
                    jammed_slots: 1,
                    ..ChannelStats::default()
                },
            ]),
            trace: None,
            telemetry: None,
        }
    }

    #[test]
    fn invariants_name_the_identity_an_outcome_breaks() {
        let cost = |sends, listens, jams| CostBreakdown {
            sends,
            listens,
            jams,
        };
        let stats = |correct_sends, correct_listens, byz_sends, jammed_slots| ChannelStats {
            correct_sends,
            correct_listens,
            byz_sends,
            jammed_slots,
            delivered: 0,
        };
        let mut o = outcome();
        o.broadcast.alice_cost = cost(5, 1, 0);
        o.broadcast.node_costs = Some(vec![cost(1, 4, 0), cost(0, 6, 0)]);
        o.broadcast.node_total_cost = cost(1, 10, 0);
        o.broadcast.carol_cost = cost(2, 0, 5);
        o.channel_stats = Some(vec![stats(4, 6, 2, 4), stats(2, 5, 0, 1)]);
        assert_eq!(o.check_invariants(Budget::limited(7)), Ok(()));
        assert_eq!(o.check_invariants(Budget::unlimited()), Ok(()));

        let broken = |o: &ScenarioOutcome, budget| o.check_invariants(budget).unwrap_err();
        assert!(broken(&o, Budget::limited(6)).contains("outspent"));
        let mut bad = o.clone();
        bad.broadcast.informed_nodes = 11;
        assert!(broken(&bad, Budget::unlimited()).contains("informed"));
        let mut bad = o.clone();
        bad.broadcast.node_total_cost = cost(1, 9, 0);
        assert!(broken(&bad, Budget::unlimited()).contains("node costs"));
        for (channel, field, what) in [
            (0, 0, "channel sends"),
            (1, 1, "channel listens"),
            (0, 2, "Byzantine"),
            (1, 3, "jammed slots against"),
        ] {
            let mut bad = o.clone();
            let entry = &mut bad.channel_stats.as_mut().unwrap()[channel];
            match field {
                0 => entry.correct_sends += 1,
                1 => entry.correct_listens += 1,
                2 => entry.byz_sends += 1,
                _ => entry.jammed_slots += 1,
            }
            assert!(broken(&bad, Budget::unlimited()).contains(what), "{what}");
        }
        let mut bad = o.clone();
        bad.broadcast.slots = 3;
        assert!(broken(&bad, Budget::unlimited()).contains("past the run"));
        // The phase tiers' tallies are rounded expectations: not held to
        // the per-channel identities.
        let mut fluid = o.clone();
        fluid.broadcast.engine = EngineKind::Fluid;
        fluid.channel_stats.as_mut().unwrap()[0].correct_sends += 1;
        assert_eq!(fluid.check_invariants(Budget::unlimited()), Ok(()));
    }

    #[test]
    fn deref_exposes_broadcast_measures() {
        let o = outcome();
        assert_eq!(o.slots, 100);
        assert!((o.informed_fraction() - 0.9).abs() < 1e-12);
        assert!(o.completed());
    }

    #[test]
    fn refusal_total() {
        let mut o = outcome();
        assert_eq!(o.total_refusals(), 5);
        o.participant_refusals = None;
        assert_eq!(o.total_refusals(), 0);
    }

    #[test]
    fn per_channel_jam_tallies() {
        let mut o = outcome();
        assert_eq!(o.jam_slots_by_channel(), vec![4, 1]);
        o.channel_stats = None;
        assert!(o.jam_slots_by_channel().is_empty());
    }

    #[test]
    fn jam_traffic_correlation_tracks_alignment() {
        let mut o = outcome();
        let stats = |sends, jams| ChannelStats {
            correct_sends: sends,
            jammed_slots: jams,
            ..ChannelStats::default()
        };
        // Jam split proportional to traffic: perfect correlation.
        o.channel_stats = Some(vec![stats(10, 5), stats(20, 10), stats(40, 20)]);
        assert!((o.jam_traffic_correlation().unwrap() - 1.0).abs() < 1e-12);
        // Anti-aligned split: strongly negative.
        o.channel_stats = Some(vec![stats(10, 20), stats(20, 10), stats(40, 5)]);
        assert!(o.jam_traffic_correlation().unwrap() < 0.0);
        // Constant jam series (uniform split): undefined.
        o.channel_stats = Some(vec![stats(10, 7), stats(20, 7), stats(40, 7)]);
        assert!(o.jam_traffic_correlation().is_none());
        // Single channel or no stats: undefined.
        o.channel_stats = Some(vec![stats(10, 7)]);
        assert!(o.jam_traffic_correlation().is_none());
        o.channel_stats = None;
        assert!(o.jam_traffic_correlation().is_none());
    }
}
