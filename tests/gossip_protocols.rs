//! The four gossip-shaped protocols on the exact engine, through the
//! `Scenario` builder: the §1.1 naive strawman, epidemic gossip, and the
//! memoryless and epoch-structured hopping broadcasts. All four are rows
//! of one driver's `GossipSpec`; these are the behaviours each row owes
//! its protocol.
//!
//! * naive: a receiver pays one listen when nothing jams, and at least
//!   Carol's spend `T` under a continuous jam; Alice sends in every slot
//!   up to her horizon; nothing but Carol is random, so the seed cannot
//!   change a run;
//! * epidemic and both hopping schedules: a quiet spectrum informs
//!   everyone, and the run lasts exactly to the horizon whatever the
//!   seed and channel count; epidemic receivers pay for jamming;
//! * hopping: sends and listens land on every channel.

use evildoers::adversary::StrategySpec;
use evildoers::sim::{
    EpidemicSpec, EpochHoppingSpec, HoppingSpec, NaiveSpec, Scenario, ScenarioBuilder,
    ScenarioOutcome,
};

fn run(builder: ScenarioBuilder, seed: u64) -> ScenarioOutcome {
    builder.seed(seed).build().expect("valid gossip cell").run()
}

#[test]
fn naive_receivers_pay_one_listen_when_nothing_jams() {
    let o = run(Scenario::naive(NaiveSpec { n: 16, horizon: 50 }), 1);
    assert!(o.trace.is_none(), "tracing is off by default");
    assert_eq!(o.informed_nodes, 16);
    assert_eq!(o.node_total_cost.listens, 16, "one listen per receiver");
}

#[test]
fn naive_receivers_pay_at_least_carols_spend() {
    // The point of the strawman: each receiver listens through every
    // jammed slot, so its cost is at least T and the ratio is about 1.
    for (t, seed) in [(200u64, 2u64), (2_000, 3)] {
        let o = run(
            Scenario::naive(NaiveSpec {
                n: 4,
                horizon: t + 50,
            })
            .adversary(StrategySpec::Continuous)
            .carol_budget(t),
            seed,
        );
        assert_eq!(o.carol_spend(), t);
        assert_eq!(o.informed_nodes, 4, "delivery once she is broke");
        assert!(
            o.mean_node_cost() >= t as f64,
            "T={t}: mean receiver cost {}",
            o.mean_node_cost()
        );
    }
}

#[test]
fn naive_alice_sends_in_every_slot_to_her_horizon() {
    // Everyone is informed at slot 100, once Carol is broke, but Alice
    // has no feedback: she sends until her horizon.
    let horizon = 1_000;
    let o = run(
        Scenario::naive(NaiveSpec { n: 2, horizon })
            .adversary(StrategySpec::Continuous)
            .carol_budget(100),
        4,
    );
    assert_eq!(o.informed_nodes, 2);
    assert_eq!(o.alice_cost.sends, horizon);
    assert_eq!(o.slots, horizon + 1);
}

#[test]
fn naive_runs_do_not_depend_on_the_seed() {
    // The naive protocol draws nothing, so with a deterministic jammer
    // every seed replays the same run.
    for (spec, budget) in [
        (NaiveSpec { n: 16, horizon: 50 }, None),
        (NaiveSpec { n: 4, horizon: 250 }, Some(200)),
    ] {
        let builder = |budget: Option<u64>| {
            let builder = Scenario::naive(spec).adversary(StrategySpec::Continuous);
            match budget {
                Some(units) => builder.carol_budget(units),
                None => builder,
            }
        };
        let base = run(builder(budget), 1);
        for seed in [11u64, 99] {
            let mut o = run(builder(budget), seed);
            o.seed = base.seed;
            assert_eq!(format!("{o:?}"), format!("{base:?}"), "seed {seed}");
        }
    }
}

#[test]
fn quiet_gossip_informs_everyone_and_lasts_to_the_horizon() {
    // Relayers never stop, so a run lasts to one slot past the horizon
    // whatever the seed and spectrum; informed nodes stop listening, so
    // a receiver pays far less than the 0.5 × horizon of a node that
    // never hears `m`.
    let (n, horizon) = (24u64, 20_000u64);
    for (builder, spectra) in [
        (
            Scenario::epidemic(EpidemicSpec::new(n, horizon)),
            &[1u16][..],
        ),
        (Scenario::hopping(HoppingSpec::new(n, horizon)), &[1, 2, 8]),
        (
            Scenario::epoch_hopping(EpochHoppingSpec::new(n, horizon, 32)),
            &[1, 2, 8],
        ),
    ] {
        for &channels in spectra {
            for seed in [7u64, 13] {
                let o = run(builder.clone().channels(channels), seed);
                let cell = format!("{} C={channels} seed={seed}", o.protocol);
                assert_eq!(o.informed_nodes, n, "{cell}");
                assert!(o.alice_terminated, "{cell}");
                assert_eq!(o.slots, horizon + 1, "{cell}");
                let stats = o.channel_stats.as_ref().expect("exact runs report stats");
                assert_eq!(stats.len(), usize::from(channels), "{cell}");
                let mean_listens = o.node_total_cost.listens as f64 / n as f64;
                assert!(mean_listens < 200.0, "{cell}: mean listens {mean_listens}");
            }
        }
    }
}

#[test]
fn epidemic_receivers_pay_for_jamming() {
    // No backoff: an uninformed node listens through the jam with
    // p = 1/2, so its cost is about T/2.
    let t = 3_000u64;
    let o = run(
        Scenario::epidemic(EpidemicSpec::new(8, t + 500))
            .adversary(StrategySpec::Continuous)
            .carol_budget(t),
        2,
    );
    assert_eq!(o.informed_nodes, 8);
    assert!(
        o.mean_node_cost() > t as f64 * 0.4,
        "mean receiver cost {} should be about T/2 = {}",
        o.mean_node_cost(),
        t / 2
    );
}

#[test]
fn hopping_spreads_activity_over_the_spectrum() {
    for builder in [
        Scenario::hopping(HoppingSpec::new(16, 8_000)),
        Scenario::epoch_hopping(EpochHoppingSpec::new(16, 8_000, 32)),
    ] {
        let o = run(builder.channels(4), 3);
        let stats = o.channel_stats.as_ref().expect("exact runs report stats");
        for (c, s) in stats.iter().enumerate() {
            assert!(
                s.correct_sends > 0,
                "{}: channel {c} carried no send",
                o.protocol
            );
            assert!(
                s.correct_listens > 0,
                "{}: channel {c} hosted no listener",
                o.protocol
            );
        }
    }
}
