//! Cross-crate integration: delivery and accounting invariants of full
//! ε-BROADCAST executions on the exact engine, against every adversary.

use evildoers::adversary::StrategySpec;
use evildoers::core::{DecoyConfig, Params};
use evildoers::radio::Budget;
use evildoers::sim::{Scenario, ScenarioOutcome};

/// The library's ledger identities (`ScenarioOutcome::check_invariants`),
/// plus the population and charge shapes of ε-BROADCAST.
fn check_invariants(outcome: &ScenarioOutcome, carol_budget: Budget, label: &str) {
    if let Err(broken) = outcome.check_invariants(carol_budget) {
        panic!("{label}: {broken}");
    }
    assert_eq!(
        outcome.informed_nodes + outcome.uninformed_terminated + outcome.unterminated_nodes,
        outcome.n,
        "{label}: node states must partition the population"
    );
    let node_costs = outcome
        .broadcast
        .node_costs
        .as_ref()
        .expect("exact engine keeps per-node costs");
    assert_eq!(node_costs.len() as u64, outcome.n);
    let total: u64 = node_costs.iter().map(|c| c.total()).sum();
    assert_eq!(
        total,
        outcome.broadcast.node_total_cost.total(),
        "{label}: per-node costs must sum to the aggregate"
    );
    assert_eq!(
        outcome.broadcast.carol_cost.listens, 0,
        "{label}: Carol never pays listen charges in this model"
    );
    for (i, c) in node_costs.iter().enumerate() {
        assert_eq!(c.jams, 0, "{label}: correct node {i} cannot jam");
    }
}

#[test]
fn every_strategy_with_finite_budget_lets_the_broadcast_through() {
    let n = 32u64;
    let budget = 1_500u64;
    for spec in StrategySpec::full_roster() {
        if spec.requires_channels() {
            // Channel-aware strategies cannot target single-channel
            // ε-BROADCAST; their delivery invariants are covered by the
            // hopping-protocol tests and E11.
            continue;
        }
        let params = if spec == StrategySpec::Reactive {
            // §4.1: reactive adversaries are only covered with decoys.
            Params::builder(n)
                .max_round_margin(4)
                .decoys(DecoyConfig::recommended())
                .build()
                .unwrap()
        } else {
            Params::builder(n).max_round_margin(3).build().unwrap()
        };
        let outcome = Scenario::broadcast(params)
            .adversary(spec)
            .carol_budget(budget)
            .seed(17)
            .build()
            .unwrap()
            .run();
        check_invariants(&outcome, Budget::limited(budget), &spec.name());
        assert!(
            outcome.informed_fraction() > 0.9,
            "{}: informed only {}/{} (carol spent {})",
            spec.name(),
            outcome.informed_nodes,
            outcome.n,
            outcome.carol_spend()
        );
        assert!(
            outcome.carol_spend() <= budget,
            "{}: budget enforcement",
            spec.name()
        );
    }
}

#[test]
fn quiet_run_informs_everyone_and_everyone_terminates() {
    let params = Params::builder(64).build().unwrap();
    let outcome = Scenario::broadcast(params).seed(5).build().unwrap().run();
    check_invariants(&outcome, Budget::unlimited(), "silent");
    assert_eq!(outcome.informed_nodes, 64);
    assert_eq!(outcome.unterminated_nodes, 0);
    assert!(outcome.alice_terminated);
    assert_eq!(outcome.carol_spend(), 0);
}

#[test]
fn informed_nodes_carry_verified_message_only() {
    // A garbage-spoofing adversary cannot cause false "informed" states:
    // delivery only counts verified m. Spoof garbage into inform phases
    // with no jamming; nodes must still end informed with the true m (the
    // spoofs merely collide). This configuration (polluting_inform) is not
    // a named StrategySpec, so it exercises the lower-level scratch API a
    // custom adversary would use.
    use evildoers::core::{BroadcastSoaScratch, RunConfig};
    use evildoers::radio::Budget;

    let params = Params::builder(32).max_round_margin(3).build().unwrap();
    let schedule = evildoers::core::RoundSchedule::new(&params);
    let mut carol = evildoers::adversary::NackSpoofer::new(schedule, 0.4, 3).polluting_inform();
    let cfg = RunConfig {
        carol_budget: Budget::limited(2_000),
        enforce_correct_budgets: true,
        trace_capacity: 0,
        seed: 23,
    };
    let (outcome, _) = BroadcastSoaScratch::new().run(&params, &mut carol, &cfg);
    assert!(
        outcome.informed_fraction() > 0.9,
        "informed {}",
        outcome.informed_nodes
    );
}

#[test]
fn unlimited_continuous_jamming_blocks_everything_but_costs_forever() {
    let params = Params::builder(16).build().unwrap();
    // Unlimited carol budget is the builder default.
    let outcome = Scenario::broadcast(params)
        .adversary(StrategySpec::Continuous)
        .seed(1)
        .build()
        .unwrap()
        .run();
    check_invariants(&outcome, Budget::unlimited(), "unlimited-continuous");
    assert_eq!(outcome.informed_nodes, 0);
    // Nobody terminates bogusly: all-noise request phases keep everyone up.
    assert_eq!(outcome.uninformed_terminated, 0);
    assert!(!outcome.alice_terminated);
    // She paid for every slot of the schedule.
    assert_eq!(outcome.broadcast.carol_cost.jams, outcome.slots);
}
