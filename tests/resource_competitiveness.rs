//! Cross-crate integration: the resource-competitive economics, end to
//! end — defenders' spend grows sublinearly in Carol's, and the naive
//! baseline demonstrates what failure looks like.

use evildoers::adversary::StrategySpec;
use evildoers::analysis::experiments::provisioned_params;
use evildoers::analysis::fit_loglog;
use evildoers::core::Params;
use evildoers::sim::{Engine, NaiveSpec, Scenario};

#[test]
fn node_cost_grows_sublinearly_in_carol_spend() {
    // Large-n fast-sim sweep in the unclamped regime (n = 2^18 puts the
    // termination floor past the probability-clamp rounds).
    let n = 1u64 << 18;
    let quiet = {
        let params = Params::builder(n).build().unwrap();
        Scenario::broadcast(params)
            .engine(Engine::Fast)
            .seed(9)
            .build()
            .unwrap()
            .run()
            .mean_node_cost()
    };
    let mut pts = Vec::new();
    for exp in [20u32, 22, 24] {
        let budget = 1u64 << exp;
        let params = provisioned_params(n, 2, budget).unwrap();
        let o = Scenario::broadcast(params)
            .engine(Engine::Fast)
            .adversary(StrategySpec::Continuous)
            .carol_budget(budget)
            .seed(9)
            .build()
            .unwrap()
            .run();
        assert!(o.informed_fraction() > 0.9);
        pts.push((
            o.carol_spend() as f64,
            (o.mean_node_cost() - quiet).max(0.1),
        ));
    }
    let fit = fit_loglog(&pts);
    assert!(
        fit.exponent < 0.65,
        "node marginal cost exponent {} should be far below linear",
        fit.exponent
    );
    // And strictly: at the largest T the defender pays a vanishing share
    // (the measured ratio here is ≈ 1/50 and still shrinking in T; the
    // clamped-probability constants keep the absolute level high at
    // practical n; see `rcb_core::probabilities`).
    let (t, cost) = pts[pts.len() - 1];
    assert!(
        cost < t / 20.0,
        "at T={t} a node pays {cost}, which should be ≪ T"
    );
}

#[test]
fn naive_baseline_pays_linearly_in_carol_spend() {
    let mut pts = Vec::new();
    for t in [500u64, 2_000, 8_000] {
        let o = Scenario::naive(NaiveSpec {
            n: 8,
            horizon: t + 100,
        })
        .adversary(StrategySpec::Continuous)
        .carol_budget(t)
        .seed(3)
        .build()
        .unwrap()
        .run();
        assert_eq!(o.informed_nodes, 8);
        pts.push((t as f64, o.mean_node_cost()));
    }
    let fit = fit_loglog(&pts);
    assert!(
        fit.exponent > 0.9,
        "naive receivers pay Θ(T): exponent {}",
        fit.exponent
    );
}

#[test]
fn alice_and_nodes_stay_load_balanced_under_attack() {
    let n = 1u64 << 14;
    for exp in [18u32, 22] {
        let budget = 1u64 << exp;
        let params = provisioned_params(n, 2, budget).unwrap();
        let o = Scenario::broadcast(params)
            .engine(Engine::Fast)
            .adversary(StrategySpec::Continuous)
            .carol_budget(budget)
            .seed(4)
            .build()
            .unwrap()
            .run();
        let ratio = o.alice_cost.total() as f64 / o.mean_node_cost().max(1.0);
        let polylog_bound = 40.0 * (n as f64).ln();
        assert!(
            ratio < polylog_bound && ratio > 1.0 / polylog_bound,
            "alice/node ratio {ratio} escaped the polylog band at T=2^{exp}"
        );
    }
}

#[test]
fn carol_budget_is_spent_exactly_never_exceeded() {
    let n = 1u64 << 12;
    let budget = 1u64 << 16;
    let params = provisioned_params(n, 2, budget).unwrap();
    let o = Scenario::broadcast(params)
        .engine(Engine::Fast)
        .adversary(StrategySpec::Continuous)
        .carol_budget(budget)
        .seed(8)
        .build()
        .unwrap()
        .run();
    assert!(o.carol_spend() <= budget);
    // A continuous jammer with a sub-schedule budget spends all of it.
    assert!(
        o.carol_spend() >= budget - 1,
        "spent {} of {budget}",
        o.carol_spend()
    );
}
