//! Structural properties of the PR-8 protocol families: the
//! epoch-structured hopping schedule (Chen & Zheng 2019) and the KPSY
//! listening defense (King–Pettie–Saia–Young 2012).
//!
//! * Channel draws happen **only** at epoch boundaries — pinned at the
//!   slot level by an observing adversary that records every listener's
//!   channel every slot.
//! * At `C = 1` the epoch schedule has nothing to draw, so epoch
//!   hopping degenerates to single-channel epidemic gossip —
//!   bit-identically on the era-2 engine, since both lower to the same
//!   `GossipSpec` shape.
//! * The adaptive jammer gets no clairvoyance: watching traffic tells
//!   it which channels *were* hot, not where the next epoch's uniform
//!   draws will land, so its damage at equal budget stays within a
//!   small constant of the oblivious split.
//! * KPSY conserves budgets across the adversary zoo: Carol never
//!   spends past her `T`, and nodes are never refused an operation.

use evildoers::adversary::{SplitJammer, StrategySpec};
use evildoers::core::run_gossip_with;
use evildoers::radio::{
    Adversary, AdversaryCtx, AdversaryMove, Budget, GossipSoaScratch, GossipSpec, Slot,
    SlotObservation, Spectrum,
};
use evildoers::sim::{EpidemicSpec, EpochHoppingSpec, KpsySpec, Scenario, ScenarioOutcome};
use evildoers::telemetry::NoopCollector;

/// Wraps a jammer and records `(slot, participant, channel)` for every
/// listener in every slot, without perturbing the inner strategy.
struct ListenerProbe {
    inner: SplitJammer,
    seen: Vec<(u64, u32, u16)>,
}

impl Adversary for ListenerProbe {
    fn plan(&mut self, slot: Slot, ctx: &AdversaryCtx) -> AdversaryMove {
        self.inner.plan(slot, ctx)
    }
    fn observe(&mut self, slot: Slot, observation: &SlotObservation<'_>) {
        for &(pid, channel) in observation.listeners {
            self.seen.push((slot.index(), pid.index(), channel.index()));
        }
        self.inner.observe(slot, observation);
    }
    fn wants_listener_identities(&self) -> bool {
        // The sleep-skipping engine leaves `listeners` empty in inert
        // slots unless an observer opts in to full materialization.
        true
    }
}

#[test]
fn channel_redraws_happen_only_at_epoch_boundaries() {
    // Blanket-jam the whole spectrum so every node stays uninformed and
    // listens every slot (`listen_p = 1`): the probe then sees each
    // node's tuned channel in every single slot of the run.
    const EPOCH_LEN: u64 = 32;
    const HORIZON: u64 = 8 * EPOCH_LEN;
    let n = 6u64;
    let spectrum = Spectrum::new(4);
    let mut probe = ListenerProbe {
        inner: SplitJammer::new(spectrum),
        seen: Vec::new(),
    };
    let (outcome, _) = run_gossip_with(
        &GossipSpec::epoch_hopping(n, HORIZON, 1.0, 1.0, EPOCH_LEN),
        spectrum,
        Budget::unlimited(),
        0,
        &mut probe,
        3,
        &mut GossipSoaScratch::new(),
        &NoopCollector,
    );
    assert_eq!(
        outcome.informed_nodes, 0,
        "a blanket jam must block every delivery"
    );

    // Every node is observed in every slot of the horizon...
    let mut per_node: Vec<Vec<(u64, u16)>> = vec![Vec::new(); n as usize + 1];
    for &(slot, pid, channel) in &probe.seen {
        per_node[pid as usize].push((slot, channel));
    }
    let mut boundary_changes = 0u32;
    for (pid, slots) in per_node.iter().enumerate() {
        if pid == 0 {
            continue; // Alice never listens
        }
        assert_eq!(
            slots.len() as u64,
            HORIZON,
            "node {pid}: listen_p = 1 and no informs ⇒ one listen per slot"
        );
        // ...and its channel is constant within each epoch window.
        for window in slots.windows(2) {
            let ((s0, c0), (s1, c1)) = (window[0], window[1]);
            assert_eq!(s1, s0 + 1);
            if s1 % EPOCH_LEN != 0 {
                assert_eq!(c1, c0, "node {pid}: channel changed mid-epoch at slot {s1}");
            } else if c1 != c0 {
                boundary_changes += 1;
            }
        }
    }
    // Sanity: under a blanket jam every node hears noise, so the
    // exclusion redraw forces a channel change at every boundary.
    assert_eq!(
        boundary_changes,
        n as u32 * (HORIZON / EPOCH_LEN - 1) as u32,
        "noise-evading nodes must hop at every epoch boundary"
    );
}

#[test]
fn single_channel_epoch_hopping_is_epidemic_gossip() {
    // With one channel there is nothing to draw at a boundary: the epoch
    // schedule lowers to exactly the epidemic `GossipSpec`, so the era-2
    // streams are bit-identical, adversary included.
    for (seed, strategy) in [
        (9u64, StrategySpec::Silent),
        (10, StrategySpec::Random(0.4)),
        (11, StrategySpec::Continuous),
    ] {
        let epoch = Scenario::epoch_hopping(EpochHoppingSpec::new(16, 2_000, 32))
            .adversary(strategy)
            .carol_budget(300)
            .seed(seed)
            .build()
            .unwrap()
            .run();
        let epidemic = Scenario::epidemic(EpidemicSpec::new(16, 2_000))
            .adversary(strategy)
            .carol_budget(300)
            .seed(seed)
            .build()
            .unwrap()
            .run();
        let label = strategy.name();
        assert_eq!(epoch.slots, epidemic.slots, "{label}");
        assert_eq!(epoch.informed_nodes, epidemic.informed_nodes, "{label}");
        assert_eq!(
            epoch.broadcast.node_costs, epidemic.broadcast.node_costs,
            "{label}: C = 1 must replay the epidemic stream bit for bit"
        );
        assert_eq!(
            epoch.broadcast.carol_cost, epidemic.broadcast.carol_cost,
            "{label}"
        );
    }
}

#[test]
fn adaptive_jammer_gains_no_clairvoyance_over_epoch_hopping() {
    // Epoch boundaries redraw uniformly (evaders aside), so observed
    // traffic predicts nothing about the next epoch's channels: at equal
    // budget the traffic-chasing jammer must stay within a small
    // constant of the oblivious split, and can never block delivery.
    let run = |strategy: StrategySpec| -> Vec<ScenarioOutcome> {
        Scenario::epoch_hopping(EpochHoppingSpec::new(24, 1_536, 32))
            .channels(4)
            .adversary(strategy)
            .carol_budget(768)
            .seed(0xC1A)
            .build()
            .unwrap()
            .run_batch(8)
    };
    let mean_cost = |outcomes: &[ScenarioOutcome]| -> f64 {
        outcomes.iter().map(|o| o.mean_node_cost()).sum::<f64>() / outcomes.len() as f64
    };
    let split = run(StrategySpec::SplitUniform);
    let adaptive = run(StrategySpec::Adaptive {
        window: 8,
        reactivity: 0.5,
    });
    for o in split.iter().chain(&adaptive) {
        assert!(
            o.informed_fraction() > 0.99,
            "delivery must never be blocked at a finite budget"
        );
    }
    let ratio = mean_cost(&adaptive) / mean_cost(&split).max(1.0);
    assert!(
        ratio <= 2.0,
        "adaptive/oblivious damage ratio {ratio:.2} exceeds the no-clairvoyance envelope"
    );
}

#[test]
fn kpsy_conserves_budgets_across_the_zoo() {
    let budget = 600u64;
    let zoo = [
        StrategySpec::Silent,
        StrategySpec::Continuous,
        StrategySpec::Random(0.5),
        StrategySpec::Bursty { burst: 32, gap: 32 },
    ];
    for strategy in zoo {
        let outcome = Scenario::kpsy(KpsySpec {
            n: 12,
            horizon: 2_000,
        })
        .adversary(strategy)
        .carol_budget(budget)
        .seed(31)
        .build()
        .unwrap()
        .run();
        let label = strategy.name();
        assert!(
            outcome.carol_spend() <= budget,
            "{label}: Carol spent {} past her budget {budget}",
            outcome.carol_spend()
        );
        assert_eq!(
            outcome.total_refusals(),
            0,
            "{label}: unlimited node budgets must never refuse an op"
        );
        assert!(
            outcome.completed(),
            "{label}: every node reaches the horizon"
        );
    }
    // And on a quiet channel the defense still delivers to everyone.
    let quiet = Scenario::kpsy(KpsySpec {
        n: 12,
        horizon: 2_000,
    })
    .seed(31)
    .build()
    .unwrap()
    .run();
    assert_eq!(quiet.informed_nodes, 12);
}
