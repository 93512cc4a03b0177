//! Outcome types shared by the exact and fast simulation paths.

use rcb_radio::CostBreakdown;

/// Which simulator produced an outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The slot-by-slot per-node engine (ground truth).
    Exact,
    /// The phase-level aggregated simulator.
    Fast,
    /// The deterministic mean-field fluid-limit engine (no RNG,
    /// O(phases) independent of `n`).
    Fluid,
}

/// Everything an experiment needs to know about one broadcast execution.
#[derive(Debug, Clone)]
pub struct BroadcastOutcome {
    /// Number of correct receiver nodes.
    pub n: u64,
    /// Nodes that hold `m` at the end (Alice excluded).
    pub informed_nodes: u64,
    /// Nodes that terminated *without* `m` (the sacrificed ε-fraction).
    pub uninformed_terminated: u64,
    /// Nodes still running when the simulation stopped (0 in a clean run).
    pub unterminated_nodes: u64,
    /// Whether Alice reached her termination condition.
    pub alice_terminated: bool,
    /// Alice's spend.
    pub alice_cost: CostBreakdown,
    /// Sum of all receiver nodes' spend.
    pub node_total_cost: CostBreakdown,
    /// Largest single node spend, when per-node accounting is available
    /// (always for the exact engine; tagged-sample maximum for the fast
    /// one).
    pub max_node_cost: Option<u64>,
    /// Carol's pooled spend — the `T` of Theorem 1.
    pub carol_cost: CostBreakdown,
    /// Slots elapsed until the run stopped.
    pub slots: u64,
    /// Highest round index entered.
    pub rounds_entered: u32,
    /// Which simulator produced this outcome.
    pub engine: EngineKind,
    /// Per-node spends (exact engine only; `None` for the fast simulator).
    pub node_costs: Option<Vec<CostBreakdown>>,
}

impl BroadcastOutcome {
    /// Fraction of nodes informed, in `[0, 1]`.
    #[must_use]
    pub fn informed_fraction(&self) -> f64 {
        if self.n == 0 {
            return 1.0;
        }
        self.informed_nodes as f64 / self.n as f64
    }

    /// Mean per-node spend.
    #[must_use]
    pub fn mean_node_cost(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.node_total_cost.total() as f64 / self.n as f64
    }

    /// Carol's total spend `T`.
    #[must_use]
    pub fn carol_spend(&self) -> u64 {
        self.carol_cost.total()
    }

    /// Whether the run completed cleanly: Alice and every node terminated.
    #[must_use]
    pub fn completed(&self) -> bool {
        self.alice_terminated && self.unterminated_nodes == 0
    }

    /// The resource-competitive ratio from the node side:
    /// `mean node cost / max(T, 1)`.
    #[must_use]
    pub fn node_competitive_ratio(&self) -> f64 {
        self.mean_node_cost() / self.carol_spend().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(n: u64, informed: u64) -> BroadcastOutcome {
        BroadcastOutcome {
            n,
            informed_nodes: informed,
            uninformed_terminated: n - informed,
            unterminated_nodes: 0,
            alice_terminated: true,
            alice_cost: CostBreakdown {
                sends: 10,
                listens: 5,
                jams: 0,
            },
            node_total_cost: CostBreakdown {
                sends: 4,
                listens: 2 * n,
                jams: 0,
            },
            max_node_cost: Some(9),
            carol_cost: CostBreakdown {
                sends: 3,
                listens: 0,
                jams: 97,
            },
            slots: 1000,
            rounds_entered: 7,
            engine: EngineKind::Exact,
            node_costs: None,
        }
    }

    #[test]
    fn fractions_and_means() {
        let o = outcome(100, 95);
        assert!((o.informed_fraction() - 0.95).abs() < 1e-12);
        assert!((o.mean_node_cost() - 2.04).abs() < 1e-12);
        assert_eq!(o.carol_spend(), 100);
        assert!(o.completed());
        assert!((o.node_competitive_ratio() - 0.0204).abs() < 1e-9);
    }

    #[test]
    fn degenerate_population() {
        let o = outcome(0, 0);
        assert_eq!(o.informed_fraction(), 1.0);
        assert_eq!(o.mean_node_cost(), 0.0);
    }

    #[test]
    fn incomplete_runs_detected() {
        let mut o = outcome(10, 10);
        o.unterminated_nodes = 1;
        assert!(!o.completed());
        let mut o2 = outcome(10, 10);
        o2.alice_terminated = false;
        assert!(!o2.completed());
    }
}
