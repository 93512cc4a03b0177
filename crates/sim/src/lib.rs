//! # rcb-sim — the unified `Scenario` API
//!
//! One builder for **protocol × engine × adversary**, with batched
//! parallel execution. This crate is the run-entry surface for the whole
//! workspace: every experiment, example, bench, and integration test
//! expresses its execution as a [`Scenario`] instead of hand-wiring
//! `rcb-core`, `rcb-baselines`, and `rcb-adversary` separately.
//!
//! ## The matrix
//!
//! | protocol | engines | channels | adversaries |
//! |---|---|---|---|
//! | [`Scenario::broadcast`] (ε-BROADCAST) | [`Engine::Exact`], [`Engine::Fast`] | 1 | every single-channel [`StrategySpec`] (slot-only ones on `Exact` only) |
//! | [`Scenario::naive`] (§1.1 strawman) | `Exact` | 1 | schedule-free single-channel strategies |
//! | [`Scenario::epidemic`] (gossip) | `Exact` | 1 | schedule-free single-channel strategies |
//! | [`Scenario::ksy`] (two-player \[23\]) | `Exact` | 1 | `Silent`, `Continuous` (budget required) |
//! | [`Scenario::hopping`] (multi-channel random-hopping) | `Exact`, `Fast` (the phase-level `fast_mc` spectrum simulator), `Fluid` (deterministic mean-field, `O(phases · C)` independent of `n`) | `C ≥ 1` via [`ScenarioBuilder::channels`] | every schedule-free strategy on all three engines (the whole zoo has phase-mc and fluid lowerings) |
//! | [`Scenario::epoch_hopping`] (Chen–Zheng epoch schedule) | `Exact`, `Fast`, `Fluid` (one phase per epoch) | `C ≥ 1` via [`ScenarioBuilder::channels`] | same as `hopping`; the `phase_len` knob is rejected (`epoch_len` *is* the phase length) |
//! | [`Scenario::kpsy`] (KPSY `n`-player jamming defense) | `Exact` only (sparse secret schedules have no phase-level aggregate) | 1 | schedule-free single-channel strategies |
//!
//! Invalid combinations are rejected at [`ScenarioBuilder::build`] with a
//! typed [`ScenarioError`] — never a mid-run panic. That includes the
//! spectrum rules: `channels(c > 1)` on a single-channel protocol, a
//! channel-aware strategy (`SplitUniform`, `ChannelSweep`,
//! `ChannelLagged`, `Adaptive`) on a protocol that cannot host a
//! spectrum, or a strategy without a phase-level model on either fast
//! engine.
//!
//! ## Large-`n` multi-channel sweeps
//!
//! `channels(c)` composes with [`Engine::Fast`]: the hopping workload
//! then runs on the phase-level multi-channel simulator
//! (`rcb_core::fast_mc`), which advances whole phases
//! ([`ScenarioBuilder::phase_len`] slots at a time, default
//! [`DEFAULT_MC_PHASE_LEN`]) and draws per-channel rendezvous counts
//! from binomial channel-coincidence approximations — `O(phases · C)`
//! per run instead of `O(n · slots)`, which is what makes `n = 2^16`
//! spectrum sweeps affordable (experiment E13 cross-validates the two
//! engines and extends the E11/E12 curves to that scale).
//!
//! ```
//! use rcb_sim::{Engine, HoppingSpec, Scenario, StrategySpec};
//!
//! let outcome = Scenario::hopping(HoppingSpec::new(1 << 16, 8_000))
//!     .engine(Engine::Fast)
//!     .channels(8)
//!     .adversary(StrategySpec::Adaptive { window: 8, reactivity: 0.5 })
//!     .carol_budget(4_000)
//!     .build()?
//!     .run();
//! assert!(outcome.informed_fraction() > 0.9);
//! // Per-channel tallies are populated by the fast engine too.
//! assert_eq!(outcome.channel_stats.as_ref().map(Vec::len), Some(8));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## The fluid tier
//!
//! [`Engine::Fluid`] replaces the fast engine's per-phase sampling with
//! the deterministic mean-field recurrence (`rcb_core::fluid`): one f64
//! update per phase × channel, no RNG, `n` only a scale factor. A full
//! `n = 2^20` evaluation costs microseconds, every seed produces the
//! identical expectation run, and the outcome reports expected costs
//! (no per-trial variance, no slot trace — those are inherently
//! distributional and stay on the sampling tiers; experiment E19
//! cross-validates all three).
//!
//! ```
//! use rcb_sim::{Engine, HoppingSpec, Scenario, StrategySpec};
//!
//! let outcome = Scenario::hopping(HoppingSpec::new(1 << 20, 8_000))
//!     .engine(Engine::Fluid)
//!     .channels(8)
//!     .adversary(StrategySpec::Random(0.3))
//!     .carol_budget(4_000)
//!     .build()?
//!     .run();
//! assert!(outcome.informed_fraction() > 0.9);
//! assert_eq!(outcome.broadcast.engine, Engine::Fluid);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Multi-channel runs
//!
//! ```
//! use rcb_sim::{HoppingSpec, Scenario, StrategySpec};
//!
//! let outcome = Scenario::hopping(HoppingSpec::new(16, 4_000))
//!     .channels(4)
//!     .adversary(StrategySpec::SplitUniform)
//!     .carol_budget(1_000)
//!     .seed(7)
//!     .build()?
//!     .run();
//! // The blanket drains her budget 4× faster; per-channel accounting
//! // shows the split.
//! assert_eq!(outcome.carol_spend(), 1_000);
//! assert_eq!(outcome.jam_slots_by_channel().len(), 4);
//! assert_eq!(outcome.jam_slots_by_channel().iter().sum::<u64>(), 1_000);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## One run
//!
//! ```
//! use rcb_adversary::StrategySpec;
//! use rcb_core::Params;
//! use rcb_sim::{Engine, Scenario};
//!
//! let params = Params::builder(64).build()?;
//! let outcome = Scenario::broadcast(params)
//!     .engine(Engine::Exact)
//!     .adversary(StrategySpec::Continuous)
//!     .carol_budget(2_000)
//!     .seed(42)
//!     .build()?
//!     .run();
//! assert!(outcome.informed_fraction() > 0.9);
//! assert_eq!(outcome.carol_spend(), 2_000);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Batched trials
//!
//! [`Scenario::run_batch`] runs `trials` executions across worker
//! threads, derives per-trial seeds from the scenario's master seed
//! (`SeedTree::new(seed).leaf_seed("trial", i)` — the same tree the
//! analysis harness has always used), and reuses per-worker scratch: the
//! roster and budget vectors are reset in place between trials instead of
//! re-boxing `n + 1` participants each time.
//!
//! ```
//! use rcb_core::Params;
//! use rcb_sim::{Engine, Scenario};
//!
//! let params = Params::builder(1 << 12).build()?;
//! let outcomes = Scenario::broadcast(params)
//!     .engine(Engine::Fast)
//!     .seed(7)
//!     .build()?
//!     .run_batch(4);
//! assert_eq!(outcomes.len(), 4);
//! assert!(outcomes.iter().all(|o| o.informed_fraction() > 0.9));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod outcome;
mod scenario;

pub use batch::{
    resolve_workers, run_trials, run_trials_scoped, run_trials_scoped_with, THREADS_ENV_VAR,
};
pub use outcome::{pearson, ScenarioOutcome};
pub use scenario::{
    Engine, EpidemicSpec, EpochHoppingSpec, HoppingSpec, KpsySpec, KsySpec, NaiveSpec,
    ProtocolKind, Scenario, ScenarioBuilder, ScenarioError, ScenarioScratch, DEFAULT_MC_PHASE_LEN,
};

// The strategy vocabulary is part of this crate's API surface.
pub use rcb_adversary::StrategySpec;

#[cfg(test)]
mod tests {
    use super::*;
    use rcb_core::Params;

    fn params(n: u64) -> Params {
        Params::builder(n).build().unwrap()
    }

    #[test]
    fn every_protocol_runs_on_its_supported_engines() {
        let b = Scenario::broadcast(params(16))
            .seed(1)
            .build()
            .unwrap()
            .run();
        assert_eq!(b.protocol, ProtocolKind::Broadcast);
        assert!(b.completed());

        let f = Scenario::broadcast(params(4096))
            .engine(Engine::Fast)
            .seed(1)
            .build()
            .unwrap()
            .run();
        assert_eq!(f.broadcast.engine, Engine::Fast);
        assert!(f.informed_fraction() > 0.9);

        let n = Scenario::naive(NaiveSpec { n: 8, horizon: 50 })
            .seed(1)
            .build()
            .unwrap()
            .run();
        assert_eq!(n.protocol, ProtocolKind::Naive);
        assert_eq!(n.informed_nodes, 8);

        let e = Scenario::epidemic(EpidemicSpec::new(8, 2_000))
            .seed(1)
            .build()
            .unwrap()
            .run();
        assert_eq!(e.protocol, ProtocolKind::Epidemic);
        assert_eq!(e.informed_nodes, 8);

        let k = Scenario::ksy(KsySpec::default())
            .adversary(StrategySpec::Continuous)
            .carol_budget(10_000)
            .seed(1)
            .build()
            .unwrap()
            .run();
        assert_eq!(k.protocol, ProtocolKind::Ksy);
        let raw = k.ksy.expect("ksy outcome present");
        assert!(raw.delivered);
        assert_eq!(k.broadcast.node_total_cost.listens, raw.receiver_cost);
        assert_eq!(k.carol_spend(), raw.carol_spend);
    }

    #[test]
    fn fast_engine_rejects_baseline_protocols() {
        for builder in [
            Scenario::naive(NaiveSpec { n: 8, horizon: 10 }),
            Scenario::epidemic(EpidemicSpec::new(8, 10)),
            Scenario::ksy(KsySpec::default()),
        ] {
            let err = builder.engine(Engine::Fast).build().unwrap_err();
            assert!(
                matches!(
                    err,
                    ScenarioError::UnsupportedEngine {
                        engine: Engine::Fast,
                        ..
                    }
                ),
                "{err}"
            );
        }
    }

    #[test]
    fn fluid_engine_runs_hopping_protocols_only() {
        // The mean-field tier models the hopping workload: everything
        // else is a typed UnsupportedEngine.
        for builder in [
            Scenario::broadcast(params(16)),
            Scenario::naive(NaiveSpec { n: 8, horizon: 10 }),
            Scenario::epidemic(EpidemicSpec::new(8, 10)),
            Scenario::ksy(KsySpec::default()),
            Scenario::kpsy(KpsySpec { n: 8, horizon: 10 }),
        ] {
            let err = builder.engine(Engine::Fluid).build().unwrap_err();
            assert!(
                matches!(
                    err,
                    ScenarioError::UnsupportedEngine {
                        engine: Engine::Fluid,
                        ..
                    }
                ),
                "{err}"
            );
        }
        // ... and it records no slot trace (expectations have no slots).
        let err = Scenario::hopping(HoppingSpec::new(8, 100))
            .engine(Engine::Fluid)
            .trace(64)
            .build()
            .unwrap_err();
        assert!(
            matches!(err, ScenarioError::TraceUnsupported { .. }),
            "{err}"
        );
        // Schedule-bound strategies get the precise schedule error.
        let err = Scenario::hopping(HoppingSpec::new(8, 100))
            .engine(Engine::Fluid)
            .adversary(StrategySpec::Reactive)
            .build()
            .unwrap_err();
        assert!(
            matches!(err, ScenarioError::ScheduleBoundStrategy { .. }),
            "{err}"
        );
    }

    #[test]
    fn fluid_engine_is_deterministic_across_seeds_and_workers() {
        let scenario = |seed: u64| {
            Scenario::hopping(HoppingSpec::new(1 << 16, 4_000))
                .engine(Engine::Fluid)
                .channels(4)
                .adversary(StrategySpec::Random(0.3))
                .carol_budget(2_000)
                .seed(seed)
                .build()
                .unwrap()
        };
        // No RNG: every seed produces the identical expectation run.
        let a = scenario(1).run();
        let b = scenario(999).run();
        assert_eq!(a.broadcast.engine, Engine::Fluid);
        assert_eq!(a.informed_nodes, b.informed_nodes);
        assert_eq!(a.broadcast.node_total_cost, b.broadcast.node_total_cost);
        assert_eq!(a.channel_stats, b.channel_stats);
        // Worker-count invariance: batched trials are all identical to
        // the solo run regardless of thread count.
        for workers in [1, 4] {
            let batch = Scenario::hopping(HoppingSpec::new(1 << 16, 4_000))
                .engine(Engine::Fluid)
                .channels(4)
                .adversary(StrategySpec::Random(0.3))
                .carol_budget(2_000)
                .threads(workers)
                .seed(1)
                .build()
                .unwrap()
                .run_batch(3);
            for o in &batch {
                assert_eq!(o.informed_nodes, a.informed_nodes);
                assert_eq!(o.broadcast.node_total_cost, a.broadcast.node_total_cost);
                assert_eq!(o.channel_stats, a.channel_stats);
            }
        }
    }

    #[test]
    fn fluid_epoch_hopping_runs_and_respects_the_epoch_length() {
        let o = Scenario::epoch_hopping(EpochHoppingSpec::new(1 << 16, 8_000, 64))
            .engine(Engine::Fluid)
            .channels(4)
            .adversary(StrategySpec::SplitUniform)
            .carol_budget(2_000)
            .build()
            .unwrap()
            .run();
        assert_eq!(o.broadcast.engine, Engine::Fluid);
        assert!(o.informed_fraction() > 0.9, "{}", o.informed_fraction());
        assert_eq!(o.carol_spend(), 2_000);
        // The phase_len knob stays rejected for epoch hopping: the epoch
        // *is* the phase.
        let err = Scenario::epoch_hopping(EpochHoppingSpec::new(64, 1_000, 32))
            .engine(Engine::Fluid)
            .phase_len(16)
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn slot_only_strategy_rejected_on_fast_engine() {
        let err = Scenario::broadcast(params(16))
            .engine(Engine::Fast)
            .adversary(StrategySpec::LaggedReactive)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ScenarioError::SlotOnlyStrategy {
                strategy: "lagged-reactive".into()
            }
        );
        // ... but it runs fine on the exact engine.
        let o = Scenario::broadcast(params(16))
            .adversary(StrategySpec::LaggedReactive)
            .carol_budget(500)
            .build()
            .unwrap()
            .run();
        assert!(o.slots > 0);
    }

    #[test]
    fn schedule_bound_strategies_rejected_on_baselines() {
        for spec in [
            StrategySpec::BlockDissemination(1.0),
            StrategySpec::Spoof(1.0),
            StrategySpec::Reactive,
            StrategySpec::Extract(4),
        ] {
            let err = Scenario::naive(NaiveSpec { n: 8, horizon: 10 })
                .adversary(spec)
                .build()
                .unwrap_err();
            assert!(
                matches!(err, ScenarioError::ScheduleBoundStrategy { .. }),
                "{err}"
            );
        }
        // Schedule-free strategies are accepted.
        let o = Scenario::epidemic(EpidemicSpec::new(8, 500))
            .adversary(StrategySpec::Random(0.3))
            .carol_budget(100)
            .build()
            .unwrap()
            .run();
        assert!(o.slots > 0);
    }

    #[test]
    fn ksy_adversary_rules() {
        let err = Scenario::ksy(KsySpec::default())
            .adversary(StrategySpec::Random(0.5))
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::UnsupportedAdversary { .. }));

        let err = Scenario::ksy(KsySpec::default())
            .adversary(StrategySpec::Continuous)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ScenarioError::BudgetRequired {
                protocol: ProtocolKind::Ksy
            }
        );

        // Silent needs no budget: it is the quiet channel.
        let o = Scenario::ksy(KsySpec::default())
            .seed(2)
            .build()
            .unwrap()
            .run();
        assert_eq!(o.carol_spend(), 0);
        assert!(o.ksy.unwrap().delivered);
    }

    #[test]
    fn trace_rules() {
        let err = Scenario::broadcast(params(4096))
            .engine(Engine::Fast)
            .trace(1024)
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::TraceUnsupported { .. }));

        let err = Scenario::ksy(KsySpec::default())
            .trace(1024)
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::TraceUnsupported { .. }));

        // Even a zero capacity names the unsupported engine (the typed
        // error points callers at the telemetry alternative) rather than
        // complaining about the capacity.
        let err = Scenario::broadcast(params(4096))
            .engine(Engine::Fast)
            .trace(0)
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::TraceUnsupported { .. }));
        assert!(
            err.to_string().contains("ScenarioBuilder::telemetry"),
            "{err}"
        );

        let err = Scenario::broadcast(params(16))
            .trace(0)
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidConfig(_)), "{err}");

        let o = Scenario::broadcast(params(16))
            .trace(4096)
            .seed(3)
            .build()
            .unwrap()
            .run();
        assert!(!o.trace.as_ref().unwrap().is_empty());
    }

    #[test]
    fn attached_collector_records_without_changing_outcomes() {
        use rcb_telemetry::{MetricId, RecordingCollector};
        use std::sync::Arc;

        let plain = Scenario::broadcast(params(4096))
            .engine(Engine::Fast)
            .seed(11)
            .build()
            .unwrap()
            .run();
        assert!(plain.telemetry_snapshot().is_none());

        let collector = Arc::new(RecordingCollector::new());
        let observed = Scenario::broadcast(params(4096))
            .engine(Engine::Fast)
            .seed(11)
            .telemetry(collector.clone())
            .build()
            .unwrap()
            .run();

        // Telemetry is observational: the measured run is byte-identical.
        assert_eq!(observed.informed_nodes, plain.informed_nodes);
        assert_eq!(observed.slots, plain.slots);
        assert_eq!(observed.carol_spend(), plain.carol_spend());

        // ... and the outcome carries the collector's snapshot.
        let snapshot = observed.telemetry_snapshot().expect("snapshot present");
        assert!(snapshot.counter(MetricId::FastPhases) > 0);
        assert_eq!(
            snapshot.counter(MetricId::FastPhases),
            collector.counter(MetricId::FastPhases)
        );
    }

    #[test]
    fn invalid_epidemic_config_is_a_typed_error_not_a_panic() {
        let mut spec = EpidemicSpec::new(8, 10);
        spec.listen_p = 1.5;
        let err = Scenario::epidemic(spec).build().unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn batch_is_deterministic_and_ordered() {
        let scenario = Scenario::broadcast(params(32))
            .adversary(StrategySpec::Continuous)
            .carol_budget(500)
            .seed(9)
            .build()
            .unwrap();
        let a = scenario.run_batch(6);
        let b = scenario.run_batch(6);
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.slots, y.slots);
            assert_eq!(x.broadcast.node_total_cost, y.broadcast.node_total_cost);
            assert_eq!(x.broadcast.node_costs, y.broadcast.node_costs);
        }
        // Batch trials match one-at-a-time execution with the derived seed.
        let solo = scenario.run_seeded(a[2].seed);
        assert_eq!(solo.slots, a[2].slots);
        assert_eq!(solo.broadcast.alice_cost, a[2].broadcast.alice_cost);
    }

    #[test]
    fn exact_runs_are_the_soa_engine_verbatim() {
        let scenario = Scenario::broadcast(params(16)).seed(11).build().unwrap();
        // The scenario path is the SoA engine verbatim: identical to a
        // direct BroadcastSoaScratch run with the same seed.
        let via_scenario = scenario.run();
        let (direct, _) = rcb_core::BroadcastSoaScratch::new().run(
            &params(16),
            &mut rcb_radio::SilentAdversary,
            &rcb_core::RunConfig::seeded(11),
        );
        assert_eq!(via_scenario.slots, direct.slots);
        assert_eq!(via_scenario.broadcast.alice_cost, direct.alice_cost);
        assert_eq!(via_scenario.broadcast.node_costs, direct.node_costs);
    }

    #[test]
    fn builder_run_convenience() {
        let outcome = Scenario::broadcast(params(16)).seed(4).run().unwrap();
        assert!(outcome.completed());
    }

    #[test]
    fn channels_one_is_the_default_single_channel_model() {
        let base = Scenario::broadcast(params(16))
            .adversary(StrategySpec::Continuous)
            .carol_budget(400)
            .seed(12)
            .build()
            .unwrap()
            .run();
        let explicit = Scenario::broadcast(params(16))
            .adversary(StrategySpec::Continuous)
            .carol_budget(400)
            .channels(1)
            .seed(12)
            .build()
            .unwrap()
            .run();
        assert_eq!(base.slots, explicit.slots);
        assert_eq!(base.broadcast.alice_cost, explicit.broadcast.alice_cost);
        assert_eq!(base.broadcast.node_costs, explicit.broadcast.node_costs);
        assert_eq!(base.broadcast.carol_cost, explicit.broadcast.carol_cost);
        let stats = explicit.channel_stats.as_ref().unwrap();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].jammed_slots, 400);
    }

    #[test]
    fn multi_channel_needs_a_channel_capable_protocol() {
        let err = Scenario::broadcast(params(16))
            .channels(4)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ScenarioError::MultiChannelUnsupported {
                protocol: ProtocolKind::Broadcast,
                channels: 4
            }
        );
        for builder in [
            Scenario::naive(NaiveSpec { n: 8, horizon: 10 }),
            Scenario::epidemic(EpidemicSpec::new(8, 10)),
            Scenario::ksy(KsySpec::default()),
        ] {
            let err = builder.channels(2).build().unwrap_err();
            assert!(
                matches!(err, ScenarioError::MultiChannelUnsupported { .. }),
                "{err}"
            );
        }
        let err = Scenario::hopping(HoppingSpec::new(8, 10))
            .channels(0)
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn channel_aware_strategies_rejected_on_single_channel_protocols() {
        for spec in StrategySpec::channel_roster() {
            assert!(spec.requires_channels());
            let err = Scenario::broadcast(params(16))
                .adversary(spec)
                .build()
                .unwrap_err();
            assert!(
                matches!(err, ScenarioError::ChannelStrategyUnsupported { .. }),
                "{err}"
            );
            let err = Scenario::epidemic(EpidemicSpec::new(8, 100))
                .adversary(spec)
                .build()
                .unwrap_err();
            assert!(
                matches!(err, ScenarioError::ChannelStrategyUnsupported { .. }),
                "{err}"
            );
            // ... but they are valid against the hopping protocol, even
            // at C = 1 (where they degenerate to their single-channel
            // counterparts).
            let o = Scenario::hopping(HoppingSpec::new(8, 500))
                .adversary(spec)
                .carol_budget(100)
                .seed(1)
                .build()
                .unwrap()
                .run();
            assert!(o.slots > 0);
        }
    }

    #[test]
    fn hopping_matrix_rules() {
        // The fast engine runs it — at phase granularity, with the
        // per-channel tallies populated.
        let o = Scenario::hopping(HoppingSpec::new(64, 2_000))
            .engine(Engine::Fast)
            .channels(4)
            .adversary(StrategySpec::SplitUniform)
            .carol_budget(400)
            .seed(3)
            .build()
            .unwrap()
            .run();
        assert_eq!(o.carol_spend(), 400);
        assert_eq!(o.jam_slots_by_channel(), vec![100, 100, 100, 100]);
        // The whole schedule-free zoo lowers onto the fast tier — the
        // oblivious Random jammer included (one binomial draw per phase).
        let o = Scenario::hopping(HoppingSpec::new(64, 2_000))
            .engine(Engine::Fast)
            .adversary(StrategySpec::Random(0.5))
            .carol_budget(400)
            .seed(3)
            .build()
            .unwrap()
            .run();
        assert_eq!(o.carol_spend(), 400);
        // Schedule-bound strategies make no sense against it.
        let err = Scenario::hopping(HoppingSpec::new(8, 100))
            .adversary(StrategySpec::Reactive)
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::ScheduleBoundStrategy { .. }));
        // Bad gossip shape is a typed error.
        let mut spec = HoppingSpec::new(8, 100);
        spec.listen_p = 2.0;
        let err = Scenario::hopping(spec).channels(2).build().unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidConfig(_)));
        // A zero dwell would panic mid-run; build() rejects it instead.
        let err = Scenario::hopping(HoppingSpec::new(8, 100))
            .channels(2)
            .adversary(StrategySpec::ChannelSweep { dwell: 0 })
            .carol_budget(10)
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn hopping_split_jammer_pays_per_channel() {
        let outcome = Scenario::hopping(HoppingSpec::new(16, 4_000))
            .channels(4)
            .adversary(StrategySpec::SplitUniform)
            .carol_budget(1_000)
            .seed(5)
            .build()
            .unwrap()
            .run();
        assert_eq!(outcome.protocol, ProtocolKind::Hopping);
        assert_eq!(outcome.carol_spend(), 1_000);
        let by_channel = outcome.jam_slots_by_channel();
        assert_eq!(by_channel.len(), 4);
        // The blanket is uniform: 1000 units over 4 channels = 250 slots
        // each.
        assert_eq!(by_channel, vec![250, 250, 250, 250]);
        assert_eq!(outcome.informed_fraction(), 1.0, "she cannot stop it");
    }

    #[test]
    fn hopping_batch_is_deterministic() {
        let scenario = Scenario::hopping(HoppingSpec::new(12, 2_000))
            .channels(2)
            .adversary(StrategySpec::ChannelSweep { dwell: 4 })
            .carol_budget(300)
            .seed(8)
            .build()
            .unwrap();
        let a = scenario.run_batch(4);
        let b = scenario.run_batch(4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.slots, y.slots);
            assert_eq!(x.broadcast.node_total_cost, y.broadcast.node_total_cost);
            assert_eq!(x.channel_stats, y.channel_stats);
        }
        let solo = scenario.run_seeded(a[1].seed);
        assert_eq!(
            solo.broadcast.node_total_cost,
            a[1].broadcast.node_total_cost
        );
    }
}
