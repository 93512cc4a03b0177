//! The `Scenario` builder: one entry point for protocol × engine ×
//! adversary.

use std::fmt;
use std::sync::Arc;

use rcb_adversary::StrategySpec;
use rcb_baselines::ksy::{run_ksy, KsyConfig, KsyOutcome};
use rcb_baselines::{execute_kpsy_with, KpsyConfig, KpsyScratch};
use rcb_core::fast::{run_fast_with, FastConfig};
use rcb_core::fast_mc::{run_fast_mc_epoch_with, run_fast_mc_with, McConfig};
use rcb_core::fluid::{run_fluid_epoch_with, run_fluid_with, FluidConfig};
use rcb_core::{
    run_gossip_with, BroadcastOutcome, BroadcastSoaScratch, EngineKind, Params, RunConfig,
};
use rcb_radio::{Budget, CostBreakdown, GossipSoaScratch, GossipSpec, Spectrum};
use rcb_telemetry::{Collector, NoopCollector};

/// The statically-dispatched default collector: a `&NOOP` coerces to
/// `&dyn Collector` whose `enabled()` is `false`, so every hook in the
/// engines short-circuits.
static NOOP: NoopCollector = NoopCollector;

/// Default phase length (slots) of the `fast_mc` phase-level hopping
/// engine; override with [`ScenarioBuilder::phase_len`]. Re-exported
/// from `rcb_core::fast_mc` so the engine and the builder cannot
/// diverge: short enough that the frozen-informed-set approximation
/// tracks the exact engine (validated in experiment E13), long enough
/// that a run costs `O(horizon / phase_len · C)` instead of
/// `O(n · horizon)`.
pub use rcb_core::fast_mc::DEFAULT_PHASE_LEN as DEFAULT_MC_PHASE_LEN;

/// The longest horizon the exact gossip driver accepts: a run lasts up
/// to `horizon + 2` slots, and its wake queue sizes its wheel from the
/// horizon.
const MAX_GOSSIP_HORIZON: u64 = 1 << 63;

/// The longest KPSY horizon: epoch `e` starts at slot `2^e − 2`, so one
/// past this would need epoch 64.
const MAX_KPSY_HORIZON: u64 = (1 << 63) - 2;

use crate::batch::run_trials_scoped_with;
use crate::outcome::ScenarioOutcome;

/// Which simulation engine executes a scenario.
///
/// Re-exported from `rcb_core`: [`Engine::Exact`] is the slot-by-slot
/// ground truth; [`Engine::Fast`] selects the phase-level aggregated
/// simulator — `rcb_core::fast` for ε-BROADCAST, `rcb_core::fast_mc`
/// for the multi-channel hopping workload; [`Engine::Fluid`] selects
/// the deterministic mean-field tier (`rcb_core::fluid`, hopping
/// protocols only) whose cost is independent of `n`.
pub use rcb_core::EngineKind as Engine;

/// Which protocol a scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// ε-BROADCAST (Gilbert & Young, PODC 2012).
    Broadcast,
    /// The §1.1 naive always-on strawman.
    Naive,
    /// Epidemic gossip without backoff.
    Epidemic,
    /// The King–Saia–Young-style two-player comparator.
    Ksy,
    /// Multi-channel epidemic-style random-hopping broadcast.
    Hopping,
    /// Epoch-structured multi-channel hopping (the Chen–Zheng schedule:
    /// channels held for `epoch_len` slots, redrawn at boundaries).
    EpochHopping,
    /// The King–Pettie–Saia–Young `n`-player resource-competitive
    /// jamming defense (doubling epochs, secret sparse activity plans).
    Kpsy,
}

impl ProtocolKind {
    /// Whether this protocol can host a multi-channel spectrum
    /// (`Scenario::channels(c)` with `c > 1`, and with it the
    /// channel-aware adversary strategies).
    #[must_use]
    pub fn supports_channels(self) -> bool {
        matches!(self, ProtocolKind::Hopping | ProtocolKind::EpochHopping)
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ProtocolKind::Broadcast => "ε-broadcast",
            ProtocolKind::Naive => "naive",
            ProtocolKind::Epidemic => "epidemic",
            ProtocolKind::Ksy => "ksy",
            ProtocolKind::Hopping => "hopping",
            ProtocolKind::EpochHopping => "epoch-hopping",
            ProtocolKind::Kpsy => "kpsy",
        })
    }
}

/// Configuration for [`Scenario::naive`] (budget and seed come from the
/// builder).
#[derive(Debug, Clone, Copy)]
pub struct NaiveSpec {
    /// Number of receiver nodes.
    pub n: u64,
    /// Alice transmits every slot until this horizon, then stops.
    pub horizon: u64,
}

/// Configuration for [`Scenario::epidemic`] (budget and seed come from
/// the builder).
#[derive(Debug, Clone, Copy)]
pub struct EpidemicSpec {
    /// Number of receiver nodes.
    pub n: u64,
    /// Hard stop.
    pub horizon: u64,
    /// Per-slot listen probability of uninformed nodes.
    pub listen_p: f64,
    /// Relay probability is `relay_rate / n`.
    pub relay_rate: f64,
}

impl EpidemicSpec {
    /// The default gossip shape: `listen_p = 0.5`, `relay_rate = 1.0`.
    #[must_use]
    pub fn new(n: u64, horizon: u64) -> Self {
        Self {
            n,
            horizon,
            listen_p: 0.5,
            relay_rate: 1.0,
        }
    }
}

/// Configuration for [`Scenario::hopping`] — the multi-channel
/// epidemic-style random-hopping broadcast (budget, seed, and the
/// channel count come from the builder; see
/// [`ScenarioBuilder::channels`]).
#[derive(Debug, Clone, Copy)]
pub struct HoppingSpec {
    /// Number of receiver nodes.
    pub n: u64,
    /// Hard stop.
    pub horizon: u64,
    /// Per-slot listen probability of uninformed nodes.
    pub listen_p: f64,
    /// Relay probability is `relay_rate / n`.
    pub relay_rate: f64,
}

impl HoppingSpec {
    /// The default gossip shape: `listen_p = 0.5`, `relay_rate = 1.0`.
    #[must_use]
    pub fn new(n: u64, horizon: u64) -> Self {
        Self {
            n,
            horizon,
            listen_p: 0.5,
            relay_rate: 1.0,
        }
    }
}

/// Configuration for [`Scenario::epoch_hopping`] — the epoch-structured
/// multi-channel broadcast of Chen–Zheng (budget, seed, and channel
/// count come from the builder; see [`ScenarioBuilder::channels`]).
#[derive(Debug, Clone, Copy)]
pub struct EpochHoppingSpec {
    /// Number of receiver nodes.
    pub n: u64,
    /// Hard stop.
    pub horizon: u64,
    /// Per-slot listen probability of uninformed nodes.
    pub listen_p: f64,
    /// Relay probability is `relay_rate / n`.
    pub relay_rate: f64,
    /// Epoch length `L` in slots: every device holds its channel for `L`
    /// consecutive slots and redraws only at epoch boundaries.
    /// [`ScenarioBuilder::build`] rejects 0 with
    /// [`ScenarioError::InvalidConfig`].
    pub epoch_len: u64,
}

impl EpochHoppingSpec {
    /// The default gossip shape: `listen_p = 0.5`, `relay_rate = 1.0`.
    #[must_use]
    pub fn new(n: u64, horizon: u64, epoch_len: u64) -> Self {
        Self {
            n,
            horizon,
            listen_p: 0.5,
            relay_rate: 1.0,
            epoch_len,
        }
    }
}

/// Configuration for [`Scenario::kpsy`] — the `n`-player KPSY jamming
/// defense (budget and seed come from the builder).
#[derive(Debug, Clone, Copy)]
pub struct KpsySpec {
    /// Number of receiver nodes.
    pub n: u64,
    /// Hard stop. Epochs double, so a horizon of `2^{e+1} − 2` runs
    /// exactly `e` whole epochs.
    pub horizon: u64,
}

/// Configuration for [`Scenario::ksy`] (the jamming budget `T` comes from
/// the builder's `carol_budget`).
#[derive(Debug, Clone, Copy)]
pub struct KsySpec {
    /// Stop after this many epochs even if undelivered.
    pub max_epochs: u32,
}

impl Default for KsySpec {
    fn default() -> Self {
        Self { max_epochs: 40 }
    }
}

#[derive(Debug, Clone)]
enum ProtocolSpec {
    Broadcast(Box<Params>),
    Naive(NaiveSpec),
    Epidemic(EpidemicSpec),
    Ksy(KsySpec),
    Hopping(HoppingSpec),
    EpochHopping(EpochHoppingSpec),
    Kpsy(KpsySpec),
}

impl ProtocolSpec {
    fn kind(&self) -> ProtocolKind {
        match self {
            ProtocolSpec::Broadcast(_) => ProtocolKind::Broadcast,
            ProtocolSpec::Naive(_) => ProtocolKind::Naive,
            ProtocolSpec::Epidemic(_) => ProtocolKind::Epidemic,
            ProtocolSpec::Ksy(_) => ProtocolKind::Ksy,
            ProtocolSpec::Hopping(_) => ProtocolKind::Hopping,
            ProtocolSpec::EpochHopping(_) => ProtocolKind::EpochHopping,
            ProtocolSpec::Kpsy(_) => ProtocolKind::Kpsy,
        }
    }
}

/// A protocol × engine × adversary combination rejected at build time.
///
/// Every variant names the conflicting pieces so experiment sweeps can
/// filter combinations instead of panicking mid-run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// The engine cannot run this protocol (the fast simulators model
    /// ε-BROADCAST's phase structure and the hopping workload only).
    UnsupportedEngine {
        /// The requested protocol.
        protocol: ProtocolKind,
        /// The requested engine.
        engine: Engine,
    },
    /// The strategy has no phase-level model, so the fast simulator
    /// cannot host it (e.g. `StrategySpec::LaggedReactive`).
    SlotOnlyStrategy {
        /// The offending strategy's stable name.
        strategy: String,
    },
    /// The strategy is defined in terms of the ε-BROADCAST round/phase
    /// schedule, which this protocol does not have.
    ScheduleBoundStrategy {
        /// The requested protocol.
        protocol: ProtocolKind,
        /// The offending strategy's stable name.
        strategy: String,
    },
    /// The protocol's execution model cannot host this adversary at all
    /// (the two-player KSY comparator has a built-in continuous jammer).
    UnsupportedAdversary {
        /// The requested protocol.
        protocol: ProtocolKind,
        /// The offending strategy's stable name.
        strategy: String,
    },
    /// Slot tracing was requested from an engine that records no slots
    /// (the phase-level fast simulator, or the closed-form KSY
    /// comparator).
    TraceUnsupported {
        /// The requested protocol.
        protocol: ProtocolKind,
        /// The requested engine.
        engine: Engine,
    },
    /// This combination needs a finite Carol budget (a KSY run against
    /// the continuous jammer is parameterised by her budget `T`).
    BudgetRequired {
        /// The requested protocol.
        protocol: ProtocolKind,
    },
    /// A multi-channel spectrum was requested for a protocol pinned to
    /// the single-channel model.
    MultiChannelUnsupported {
        /// The requested protocol.
        protocol: ProtocolKind,
        /// The requested channel count.
        channels: u16,
    },
    /// A channel-aware strategy was paired with a protocol that cannot
    /// host a multi-channel spectrum.
    ChannelStrategyUnsupported {
        /// The requested protocol.
        protocol: ProtocolKind,
        /// The offending strategy's stable name.
        strategy: String,
    },
    /// A protocol configuration value was out of range.
    InvalidConfig(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::UnsupportedEngine { protocol, engine } => write!(
                f,
                "the {engine:?} engine cannot run the {protocol} protocol"
            ),
            ScenarioError::SlotOnlyStrategy { strategy } => write!(
                f,
                "strategy {strategy} is slot-only and has no phase-level model for the fast engine"
            ),
            ScenarioError::ScheduleBoundStrategy { protocol, strategy } => write!(
                f,
                "strategy {strategy} targets the ε-BROADCAST round schedule, which the \
                 {protocol} protocol does not have"
            ),
            ScenarioError::UnsupportedAdversary { protocol, strategy } => write!(
                f,
                "the {protocol} protocol cannot host the {strategy} strategy"
            ),
            ScenarioError::TraceUnsupported { protocol, engine } => write!(
                f,
                "slot tracing is unavailable for {protocol} on the {engine:?} engine; \
                 attach a collector via ScenarioBuilder::telemetry for phase-level \
                 events and metrics instead"
            ),
            ScenarioError::BudgetRequired { protocol } => {
                write!(f, "the {protocol} protocol requires a finite carol_budget")
            }
            ScenarioError::MultiChannelUnsupported { protocol, channels } => write!(
                f,
                "the {protocol} protocol is pinned to the single-channel model and cannot \
                 run on {channels} channels"
            ),
            ScenarioError::ChannelStrategyUnsupported { protocol, strategy } => write!(
                f,
                "strategy {strategy} is channel-aware, which the {protocol} protocol \
                 cannot host"
            ),
            ScenarioError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A validated, runnable scenario.
///
/// Build one with [`Scenario::broadcast`], [`Scenario::naive`],
/// [`Scenario::epidemic`], or [`Scenario::ksy`], compose engine /
/// adversary / budget / seed on the returned [`ScenarioBuilder`], and
/// execute with [`run`](Scenario::run) (one execution) or
/// [`run_batch`](Scenario::run_batch) (parallel trials with derived
/// seeds and scratch reuse).
///
/// # Example
///
/// ```
/// use rcb_adversary::StrategySpec;
/// use rcb_sim::{Engine, Scenario};
/// use rcb_core::Params;
///
/// let params = Params::builder(64).build()?;
/// let outcome = Scenario::broadcast(params)
///     .adversary(StrategySpec::Continuous)
///     .carol_budget(2_000)
///     .seed(42)
///     .build()?
///     .run();
/// assert!(outcome.informed_fraction() > 0.9); // she cannot stop the broadcast
/// assert_eq!(outcome.carol_spend(), 2_000); // and she paid for trying
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    protocol: ProtocolSpec,
    engine: Engine,
    adversary: StrategySpec,
    carol_budget: Option<u64>,
    enforce_correct_budgets: bool,
    trace_capacity: usize,
    channels: u16,
    mc_phase_len: u64,
    threads: Option<usize>,
    seed: u64,
    telemetry: Option<Arc<dyn Collector>>,
}

/// Reusable per-worker scratch for batched scenario execution.
///
/// Holds one scratch per exact driver (per-device state, wake queues,
/// and the engine's [`rcb_radio::Medium`]): ε-BROADCAST's, KPSY's, and
/// the gossip driver's, which all four gossip-shaped protocols share. A
/// batch worker resets them in place across its trials, so steady-state
/// trial execution performs little per-trial allocation beyond the
/// outcome itself.
#[derive(Debug, Default)]
pub struct ScenarioScratch {
    broadcast_soa: BroadcastSoaScratch,
    gossip: GossipSoaScratch,
    kpsy: KpsyScratch,
}

impl ScenarioScratch {
    /// Creates an empty scratch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scenario {
    /// Starts building an ε-BROADCAST scenario.
    #[must_use]
    pub fn broadcast(params: Params) -> ScenarioBuilder {
        ScenarioBuilder::new(ProtocolSpec::Broadcast(Box::new(params)))
    }

    /// Starts building a naive always-on broadcast scenario.
    #[must_use]
    pub fn naive(spec: NaiveSpec) -> ScenarioBuilder {
        ScenarioBuilder::new(ProtocolSpec::Naive(spec))
    }

    /// Starts building an epidemic-gossip scenario.
    #[must_use]
    pub fn epidemic(spec: EpidemicSpec) -> ScenarioBuilder {
        ScenarioBuilder::new(ProtocolSpec::Epidemic(spec))
    }

    /// Starts building a KSY-style two-player scenario.
    #[must_use]
    pub fn ksy(spec: KsySpec) -> ScenarioBuilder {
        ScenarioBuilder::new(ProtocolSpec::Ksy(spec))
    }

    /// Starts building a multi-channel random-hopping broadcast scenario
    /// (set the channel count with [`ScenarioBuilder::channels`]).
    #[must_use]
    pub fn hopping(spec: HoppingSpec) -> ScenarioBuilder {
        ScenarioBuilder::new(ProtocolSpec::Hopping(spec))
    }

    /// Starts building an epoch-structured hopping scenario — the
    /// Chen–Zheng schedule, where each device holds its channel for
    /// `spec.epoch_len` slots (set the channel count with
    /// [`ScenarioBuilder::channels`]).
    #[must_use]
    pub fn epoch_hopping(spec: EpochHoppingSpec) -> ScenarioBuilder {
        ScenarioBuilder::new(ProtocolSpec::EpochHopping(spec))
    }

    /// Starts building a KPSY jamming-defense scenario: `n` players with
    /// secret `O(L^{φ−1})`-slot activity plans per doubling epoch, on
    /// the exact engine only.
    #[must_use]
    pub fn kpsy(spec: KpsySpec) -> ScenarioBuilder {
        ScenarioBuilder::new(ProtocolSpec::Kpsy(spec))
    }

    /// Which protocol this scenario runs.
    #[must_use]
    pub fn protocol(&self) -> ProtocolKind {
        self.protocol.kind()
    }

    /// Which engine executes it.
    #[must_use]
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// The adversary strategy.
    #[must_use]
    pub fn adversary(&self) -> StrategySpec {
        self.adversary
    }

    /// The master seed [`run`](Self::run) uses and
    /// [`run_batch`](Self::run_batch) derives per-trial seeds from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of channels this scenario runs on (1 = the single-channel
    /// model of the source paper).
    #[must_use]
    pub fn channels(&self) -> u16 {
        self.channels
    }

    /// The spectrum this scenario runs on.
    #[must_use]
    pub fn spectrum(&self) -> Spectrum {
        Spectrum::new(self.channels)
    }

    /// The ε-BROADCAST parameters, when this is a broadcast scenario.
    #[must_use]
    pub fn params(&self) -> Option<&Params> {
        match &self.protocol {
            ProtocolSpec::Broadcast(params) => Some(params),
            _ => None,
        }
    }

    /// The attached telemetry collector, if any (see
    /// [`ScenarioBuilder::telemetry`]).
    #[must_use]
    pub fn telemetry(&self) -> Option<&Arc<dyn Collector>> {
        self.telemetry.as_ref()
    }

    /// The collector every engine run receives: the attached one, or the
    /// disabled noop singleton.
    fn collector(&self) -> &dyn Collector {
        self.telemetry.as_deref().unwrap_or(&NOOP)
    }

    /// Runs the scenario once with its master seed.
    #[must_use]
    pub fn run(&self) -> ScenarioOutcome {
        self.run_seeded(self.seed)
    }

    /// Runs the scenario once with an explicit seed (the master seed is
    /// ignored).
    #[must_use]
    pub fn run_seeded(&self, seed: u64) -> ScenarioOutcome {
        self.run_in(&mut ScenarioScratch::new(), seed)
    }

    /// Runs the scenario once, reusing caller-owned scratch allocations —
    /// the single-threaded counterpart of [`run_batch`](Self::run_batch).
    ///
    /// Debug builds check every exact-engine outcome's ledger with
    /// [`ScenarioOutcome::check_invariants`] and panic on a broken
    /// identity.
    #[must_use]
    pub fn run_in(&self, scratch: &mut ScenarioScratch, seed: u64) -> ScenarioOutcome {
        let outcome = self.dispatch(scratch, seed);
        if cfg!(debug_assertions) && self.engine == Engine::Exact {
            if let Err(broken) = outcome.check_invariants(self.carol_budget_as_budget()) {
                panic!(
                    "{} under {} (seed {seed}) broke a ledger invariant: {broken}",
                    self.protocol.kind(),
                    self.adversary.name()
                );
            }
        }
        outcome
    }

    /// Runs the protocol on its engine.
    fn dispatch(&self, scratch: &mut ScenarioScratch, seed: u64) -> ScenarioOutcome {
        match (&self.protocol, self.engine) {
            (ProtocolSpec::Broadcast(params), Engine::Exact) => {
                self.run_broadcast_exact(scratch, params, seed)
            }
            (ProtocolSpec::Broadcast(params), Engine::Fast) => {
                self.run_broadcast_fast(params, seed)
            }
            (ProtocolSpec::Broadcast(_), Engine::Fluid) => {
                unreachable!("validated at build: fluid runs hopping only")
            }
            (ProtocolSpec::Ksy(spec), _) => self.run_ksy(*spec, seed),
            (ProtocolSpec::Kpsy(spec), _) => self.run_kpsy(scratch, *spec, seed),
            (ProtocolSpec::Hopping(spec), Engine::Fast | Engine::Fluid) => {
                self.run_phase_tier(*spec, None, seed)
            }
            (ProtocolSpec::EpochHopping(s), Engine::Fast | Engine::Fluid) => {
                let shape = HoppingSpec {
                    n: s.n,
                    horizon: s.horizon,
                    listen_p: s.listen_p,
                    relay_rate: s.relay_rate,
                };
                self.run_phase_tier(shape, Some(s.epoch_len), seed)
            }
            // The exact gossip driver: one row of `GossipSpec` each.
            (ProtocolSpec::Naive(s), _) => {
                self.run_gossip(scratch, GossipSpec::naive(s.n, s.horizon), seed)
            }
            (ProtocolSpec::Epidemic(s), _) => {
                let row = GossipSpec::epidemic(s.n, s.horizon, s.listen_p, s.relay_rate);
                self.run_gossip(scratch, row, seed)
            }
            (ProtocolSpec::Hopping(s), Engine::Exact) => {
                let row = GossipSpec::hopping(s.n, s.horizon, s.listen_p, s.relay_rate);
                self.run_gossip(scratch, row, seed)
            }
            (ProtocolSpec::EpochHopping(s), Engine::Exact) => {
                let row = GossipSpec::epoch_hopping(
                    s.n,
                    s.horizon,
                    s.listen_p,
                    s.relay_rate,
                    s.epoch_len,
                );
                self.run_gossip(scratch, row, seed)
            }
        }
    }

    /// The worker-thread override for [`run_batch`](Self::run_batch)
    /// (`None` = `RCB_THREADS` env var, then `available_parallelism`).
    #[must_use]
    pub fn threads(&self) -> Option<usize> {
        self.threads
    }

    /// Runs `trials` independent executions in parallel and returns their
    /// outcomes in trial order.
    ///
    /// Per-trial seeds are derived as `SeedTree::new(self.seed)
    /// .leaf_seed("trial", index)` — identical to the analysis harness's
    /// historical derivation, and independent of thread scheduling. Each
    /// worker thread owns one [`ScenarioScratch`], so rosters and budget
    /// vectors are reset in place across the trials it executes instead
    /// of being reallocated per trial. The worker count follows
    /// [`ScenarioBuilder::threads`], the `RCB_THREADS` environment
    /// variable, or `available_parallelism`, in that order — the choice
    /// never changes the outcomes.
    #[must_use]
    pub fn run_batch(&self, trials: u32) -> Vec<ScenarioOutcome> {
        run_trials_scoped_with(
            self.threads,
            self.seed,
            trials,
            ScenarioScratch::new,
            |scratch, seed| self.run_in(scratch, seed),
        )
    }

    fn carol_budget_as_budget(&self) -> Budget {
        match self.carol_budget {
            Some(units) => Budget::limited(units),
            None => Budget::unlimited(),
        }
    }

    fn outcome(
        &self,
        broadcast: BroadcastOutcome,
        seed: u64,
        ksy: Option<KsyOutcome>,
    ) -> ScenarioOutcome {
        ScenarioOutcome {
            protocol: self.protocol.kind(),
            strategy: self.adversary.name(),
            seed,
            broadcast,
            ksy,
            stop_reason: None,
            participant_refusals: None,
            channel_stats: None,
            trace: None,
            telemetry: self.telemetry.as_deref().and_then(Collector::snapshot),
        }
    }

    fn run_broadcast_exact(
        &self,
        scratch: &mut ScenarioScratch,
        params: &Params,
        seed: u64,
    ) -> ScenarioOutcome {
        let mut adversary = self.adversary.slot_adversary(params, seed);
        let config = RunConfig {
            carol_budget: self.carol_budget_as_budget(),
            enforce_correct_budgets: self.enforce_correct_budgets,
            trace_capacity: self.trace_capacity,
            seed,
        };
        let (broadcast, report) =
            scratch
                .broadcast_soa
                .run_with(params, adversary.as_mut(), &config, self.collector());
        self.exact_outcome(broadcast, report, seed)
    }

    /// The exact gossip driver (`rcb_core::run_gossip_with`), which runs
    /// the naive, epidemic, hopping and epoch-hopping protocols, each as
    /// its row of [`GossipSpec`]'s table.
    fn run_gossip(
        &self,
        scratch: &mut ScenarioScratch,
        row: GossipSpec,
        seed: u64,
    ) -> ScenarioOutcome {
        let (broadcast, report) = run_gossip_with(
            &row,
            self.spectrum(),
            self.carol_budget_as_budget(),
            self.trace_capacity,
            self.schedule_free_adversary(seed).as_mut(),
            seed,
            &mut scratch.gossip,
            self.collector(),
        );
        self.exact_outcome(broadcast, report, seed)
    }

    /// The hopping phase tiers (`rcb_core::phase`): one recurrence per
    /// hopping schedule, sampled on [`Engine::Fast`] (`fast_mc`) and taken
    /// in expectation on [`Engine::Fluid`], with
    /// [`ScenarioOutcome::channel_stats`] populated from the per-channel
    /// tallies. `epoch_len` selects the epoch schedule, one phase per
    /// epoch; without it phases last [`ScenarioBuilder::phase_len`]
    /// slots. The fluid tier records `seed` for provenance but never
    /// consumes it — every seed produces the identical expectation run.
    fn run_phase_tier(
        &self,
        spec: HoppingSpec,
        epoch_len: Option<u64>,
        seed: u64,
    ) -> ScenarioOutcome {
        let spectrum = self.spectrum();
        let collector = self.collector();
        let config = McConfig {
            n: spec.n,
            horizon: spec.horizon,
            listen_p: spec.listen_p,
            relay_rate: spec.relay_rate,
            phase_len: epoch_len.unwrap_or(self.mc_phase_len),
            carol_budget: self.carol_budget,
            seed,
        };
        let (broadcast, channel_stats) = if self.engine == Engine::Fluid {
            let config = FluidConfig {
                n: config.n,
                horizon: config.horizon,
                listen_p: config.listen_p,
                relay_rate: config.relay_rate,
                phase_len: config.phase_len,
                carol_budget: config.carol_budget,
            };
            let mut jammer = self
                .adversary
                .fluid_jammer(spectrum)
                .expect("validated at build: strategy has a phase-mc model");
            match epoch_len {
                None => run_fluid_with(&config, spectrum, jammer.as_mut(), collector),
                Some(len) => {
                    run_fluid_epoch_with(&config, len, spectrum, jammer.as_mut(), collector)
                }
            }
        } else {
            let mut jammer = self
                .adversary
                .phase_jammer(spectrum, seed)
                .expect("validated at build: strategy has a phase-mc model");
            match epoch_len {
                None => run_fast_mc_with(&config, spectrum, jammer.as_mut(), collector),
                Some(len) => {
                    run_fast_mc_epoch_with(&config, len, spectrum, jammer.as_mut(), collector)
                }
            }
        };
        let mut outcome = self.outcome(broadcast, seed, None);
        outcome.channel_stats = Some(channel_stats);
        outcome
    }

    /// KPSY on the exact engine: players park in the wake queue until
    /// their next secret slot (see `rcb_baselines::execute_kpsy`).
    fn run_kpsy(
        &self,
        scratch: &mut ScenarioScratch,
        spec: KpsySpec,
        seed: u64,
    ) -> ScenarioOutcome {
        let config = KpsyConfig {
            n: spec.n,
            horizon: spec.horizon,
            carol_budget: self.carol_budget_as_budget(),
            trace_capacity: self.trace_capacity,
            seed,
        };
        let (broadcast, report) = execute_kpsy_with(
            &config,
            self.schedule_free_adversary(seed).as_mut(),
            &mut scratch.kpsy,
            self.collector(),
        );
        self.exact_outcome(broadcast, report, seed)
    }

    /// Folds an exact-engine report's extras into the outcome.
    fn exact_outcome(
        &self,
        broadcast: BroadcastOutcome,
        report: rcb_radio::RunReport,
        seed: u64,
    ) -> ScenarioOutcome {
        let mut outcome = self.outcome(broadcast, seed, None);
        outcome.stop_reason = Some(report.stop_reason);
        outcome.participant_refusals = Some(report.participant_refusals);
        outcome.channel_stats = Some(report.channel_stats);
        if self.trace_capacity > 0 {
            outcome.trace = Some(report.trace);
        }
        outcome
    }

    fn run_broadcast_fast(&self, params: &Params, seed: u64) -> ScenarioOutcome {
        let mut adversary = self
            .adversary
            .phase_adversary(params, seed)
            .expect("validated at build: strategy has a phase model");
        let mut config = FastConfig::seeded(seed);
        if let Some(units) = self.carol_budget {
            config = config.carol_budget(units);
        }
        let broadcast = run_fast_with(params, adversary.as_mut(), &config, self.collector());
        self.outcome(broadcast, seed, None)
    }

    fn schedule_free_adversary(&self, seed: u64) -> Box<dyn rcb_radio::Adversary> {
        self.adversary
            .schedule_free_slot_adversary_on(self.spectrum(), seed)
            .expect("validated at build: strategy is schedule-free")
    }

    fn run_ksy(&self, spec: KsySpec, seed: u64) -> ScenarioOutcome {
        // Silent Carol = a zero-budget jammer; otherwise the budget was
        // validated finite at build time.
        let budget = match self.adversary {
            StrategySpec::Silent => 0,
            _ => self.carol_budget.expect("validated at build"),
        };
        let ksy = run_ksy(&KsyConfig {
            carol_budget: budget,
            max_epochs: spec.max_epochs,
            seed,
        });
        let broadcast = BroadcastOutcome {
            n: 1,
            informed_nodes: u64::from(ksy.delivered),
            uninformed_terminated: 0,
            unterminated_nodes: 1 - u64::from(ksy.delivered),
            alice_terminated: ksy.delivered,
            alice_cost: CostBreakdown {
                sends: ksy.sender_cost,
                listens: 0,
                jams: 0,
            },
            node_total_cost: CostBreakdown {
                sends: 0,
                listens: ksy.receiver_cost,
                jams: 0,
            },
            max_node_cost: Some(ksy.receiver_cost),
            carol_cost: CostBreakdown {
                sends: 0,
                listens: 0,
                jams: ksy.carol_spend,
            },
            slots: ksy.slots,
            rounds_entered: ksy.delivery_epoch,
            engine: EngineKind::Exact,
            node_costs: None,
        };
        self.outcome(broadcast, seed, Some(ksy))
    }
}

/// Builder for [`Scenario`]; see [`Scenario::broadcast`] and friends.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    protocol: ProtocolSpec,
    engine: Engine,
    adversary: StrategySpec,
    carol_budget: Option<u64>,
    enforce_correct_budgets: bool,
    trace: Option<usize>,
    channels: u16,
    phase_len: Option<u64>,
    threads: Option<usize>,
    seed: u64,
    telemetry: Option<Arc<dyn Collector>>,
}

impl ScenarioBuilder {
    fn new(protocol: ProtocolSpec) -> Self {
        Self {
            protocol,
            engine: Engine::Exact,
            adversary: StrategySpec::Silent,
            carol_budget: None,
            enforce_correct_budgets: true,
            trace: None,
            channels: 1,
            phase_len: None,
            threads: None,
            seed: 0,
            telemetry: None,
        }
    }

    /// Selects the simulation engine (default [`Engine::Exact`]).
    #[must_use]
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Selects the adversary strategy (default [`StrategySpec::Silent`]).
    #[must_use]
    pub fn adversary(mut self, adversary: StrategySpec) -> Self {
        self.adversary = adversary;
        self
    }

    /// Caps Carol's pooled budget (default unlimited).
    #[must_use]
    pub fn carol_budget(mut self, units: u64) -> Self {
        self.carol_budget = Some(units);
        self
    }

    /// Lifts Carol's budget cap (measure pure strategy shapes).
    #[must_use]
    pub fn carol_unlimited(mut self) -> Self {
        self.carol_budget = None;
        self
    }

    /// Disables correct-side budget enforcement (exact ε-BROADCAST only;
    /// the fast simulator and the baselines never enforce them).
    #[must_use]
    pub fn unconstrained_correct(mut self) -> Self {
        self.enforce_correct_budgets = false;
        self
    }

    /// Enables slot tracing with the given capacity.
    ///
    /// Every protocol that simulates slots on the exact engine records a
    /// trace: ε-BROADCAST, the naive and epidemic baselines, and the
    /// hopping workload. [`build`](Self::build) rejects tracing on the
    /// phase-level fast simulator and on KSY (neither records slots) with
    /// [`ScenarioError::TraceUnsupported`] — even at capacity 0 — and a
    /// zero capacity elsewhere with [`ScenarioError::InvalidConfig`]. On
    /// engines that cannot trace, attach a collector with
    /// [`telemetry`](Self::telemetry) instead: it captures per-phase
    /// events and metrics on every engine.
    #[must_use]
    pub fn trace(mut self, capacity: usize) -> Self {
        self.trace = Some(capacity);
        self
    }

    /// Sets the number of radio channels (default 1, the single-channel
    /// model of the source paper — a scenario built with `channels(1)` is
    /// byte-identical to one that never called this).
    ///
    /// `c > 1` requires a protocol that hosts a multi-channel spectrum
    /// (currently [`Scenario::hopping`]); [`build`](Self::build) rejects
    /// other combinations with
    /// [`ScenarioError::MultiChannelUnsupported`].
    #[must_use]
    pub fn channels(mut self, c: u16) -> Self {
        self.channels = c;
        self
    }

    /// Sets the phase length (slots) of the phase-level multi-channel
    /// engines (default [`DEFAULT_MC_PHASE_LEN`]).
    ///
    /// Only meaningful for `Scenario::hopping` on [`Engine::Fast`] or
    /// [`Engine::Fluid`]; [`build`](Self::build) rejects it anywhere
    /// else (and a zero length) with [`ScenarioError::InvalidConfig`].
    /// Shorter phases track the exact engine more closely; longer phases
    /// run faster.
    #[must_use]
    pub fn phase_len(mut self, slots: u64) -> Self {
        self.phase_len = Some(slots);
        self
    }

    /// Overrides the worker-thread count used by
    /// [`Scenario::run_batch`].
    ///
    /// Defaults to the `RCB_THREADS` environment variable, then
    /// `available_parallelism`. Outcomes are identical at any worker
    /// count (per-trial seeds are derived from the master seed, not
    /// shared state); the knob exists so bench harnesses can measure
    /// single-core throughput (`threads(1)`) and thread scaling.
    /// [`build`](Self::build) rejects 0 with
    /// [`ScenarioError::InvalidConfig`].
    #[must_use]
    pub fn threads(mut self, workers: usize) -> Self {
        self.threads = Some(workers);
        self
    }

    /// Sets the master seed (default 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attaches a telemetry collector (see `rcb_telemetry`); every run
    /// then routes engine metrics, per-phase events, and profile
    /// flushes through it, and the resulting
    /// [`ScenarioOutcome::telemetry`](crate::ScenarioOutcome::telemetry)
    /// carries a snapshot when the collector records one.
    ///
    /// Works on **every** protocol × engine combination, including the
    /// phase-level fast simulators that cannot record slot traces — it
    /// is the observability path for exactly those engines. Telemetry
    /// is observational only: outcomes are byte-identical with and
    /// without a collector (pinned by the workspace's
    /// telemetry-neutrality suite). The collector is shared across
    /// [`Scenario::run_batch`] workers, so a recording collector
    /// aggregates over all trials of a batch.
    #[must_use]
    pub fn telemetry(mut self, collector: Arc<dyn Collector>) -> Self {
        self.telemetry = Some(collector);
        self
    }

    /// Validates the combination and produces a runnable [`Scenario`].
    ///
    /// # Errors
    ///
    /// Returns the first [`ScenarioError`] the combination violates; see
    /// that type for the full compatibility matrix.
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        let protocol = self.protocol.kind();

        // Engine × protocol × adversary: two phase-level model families
        // exist — `fast` for ε-BROADCAST's round schedule, and the hopping
        // phase kernel, sampled (`fast_mc`, on the Fast engine) or in
        // expectation (the Fluid engine) — and each hosts only the
        // strategies with a model at its granularity.
        if self.engine != Engine::Exact {
            match protocol {
                ProtocolKind::Broadcast if self.engine == Engine::Fast => {
                    if !self.adversary.supports_phase() {
                        return Err(ScenarioError::SlotOnlyStrategy {
                            strategy: self.adversary.name(),
                        });
                    }
                }
                ProtocolKind::Hopping | ProtocolKind::EpochHopping => {
                    if !self.adversary.supports_phase_mc() && !self.adversary.requires_schedule() {
                        return Err(ScenarioError::SlotOnlyStrategy {
                            strategy: self.adversary.name(),
                        });
                    }
                    // Schedule-bound strategies fall through to the
                    // protocol × adversary check below, which names the
                    // more precise error.
                }
                _ => {
                    return Err(ScenarioError::UnsupportedEngine {
                        protocol,
                        engine: self.engine,
                    });
                }
            }
        }

        // The phase length is a fast_mc knob; naming it anywhere else is
        // a configuration error, not a silent no-op.
        let mc_phase_len = match self.phase_len {
            None => DEFAULT_MC_PHASE_LEN,
            Some(0) => {
                return Err(ScenarioError::InvalidConfig(
                    "phase length must be at least one slot".into(),
                ));
            }
            Some(slots) => {
                let phase_level_engine =
                    self.engine == Engine::Fast || self.engine == Engine::Fluid;
                if !phase_level_engine || protocol != ProtocolKind::Hopping {
                    return Err(ScenarioError::InvalidConfig(format!(
                        "phase_len applies to the phase-level multi-channel engines only \
                         (hopping on the Fast or Fluid engine), not {protocol} on {:?}",
                        self.engine
                    )));
                }
                slots
            }
        };

        // A zero-thread batch cannot make progress.
        if self.threads == Some(0) {
            return Err(ScenarioError::InvalidConfig(
                "run_batch needs at least one worker thread".into(),
            ));
        }

        // Spectrum: a multi-channel run needs a channel-capable protocol,
        // and channel-aware strategies need one too (even at C = 1 — a
        // budget splitter makes no sense against a protocol pinned to a
        // single channel).
        if self.channels == 0 {
            return Err(ScenarioError::InvalidConfig(
                "a scenario needs at least one channel".into(),
            ));
        }
        if self.channels > 1 && !protocol.supports_channels() {
            return Err(ScenarioError::MultiChannelUnsupported {
                protocol,
                channels: self.channels,
            });
        }
        if self.adversary.requires_channels() && !protocol.supports_channels() {
            return Err(ScenarioError::ChannelStrategyUnsupported {
                protocol,
                strategy: self.adversary.name(),
            });
        }
        if let StrategySpec::ChannelSweep { dwell: 0 } = self.adversary {
            return Err(ScenarioError::InvalidConfig(
                "channel-sweep dwell must be at least one slot".into(),
            ));
        }
        if let StrategySpec::Adaptive { window, reactivity } = self.adversary {
            if window == 0 {
                return Err(ScenarioError::InvalidConfig(
                    "adaptive window must be at least one slot".into(),
                ));
            }
            if !(reactivity > 0.0 && reactivity <= 1.0 && reactivity.is_finite()) {
                return Err(ScenarioError::InvalidConfig(format!(
                    "adaptive reactivity must be in (0, 1], got {reactivity}"
                )));
            }
        }

        // Protocol × adversary.
        match protocol {
            ProtocolKind::Broadcast => {}
            ProtocolKind::Naive
            | ProtocolKind::Epidemic
            | ProtocolKind::Hopping
            | ProtocolKind::EpochHopping
            | ProtocolKind::Kpsy => {
                if self.adversary.requires_schedule() {
                    return Err(ScenarioError::ScheduleBoundStrategy {
                        protocol,
                        strategy: self.adversary.name(),
                    });
                }
            }
            ProtocolKind::Ksy => match self.adversary {
                StrategySpec::Silent => {}
                StrategySpec::Continuous => {
                    if self.carol_budget.is_none() {
                        return Err(ScenarioError::BudgetRequired { protocol });
                    }
                }
                other => {
                    return Err(ScenarioError::UnsupportedAdversary {
                        protocol,
                        strategy: other.name(),
                    });
                }
            },
        }

        // Tracing exists wherever a recording engine simulates slots one
        // by one: every protocol on the exact engine except the
        // closed-form KSY comparator. The phase-level fast simulator
        // records no slots — that check comes first, so a traceless
        // engine is named as such even at capacity 0 (the typed error
        // points at the telemetry alternative).
        let trace_capacity = match self.trace {
            None => 0,
            Some(capacity) => {
                if self.engine != Engine::Exact || protocol == ProtocolKind::Ksy {
                    return Err(ScenarioError::TraceUnsupported {
                        protocol,
                        engine: self.engine,
                    });
                }
                if capacity == 0 {
                    return Err(ScenarioError::InvalidConfig(
                        "slot tracing needs a nonzero capacity".into(),
                    ));
                }
                capacity
            }
        };

        // Protocol-spec value validation.
        if let ProtocolSpec::EpochHopping(spec) = &self.protocol {
            if spec.epoch_len == 0 {
                return Err(ScenarioError::InvalidConfig(
                    "epoch-hopping epoch_len must be at least one slot".into(),
                ));
            }
        }
        // The exact engine's slot counters: naive and epidemic gossip run
        // only there (the engine check above), hopping on the exact engine.
        let horizon_cap = match (&self.protocol, self.engine) {
            (ProtocolSpec::Naive(spec), _) => Some((spec.horizon, MAX_GOSSIP_HORIZON)),
            (ProtocolSpec::Epidemic(spec), _) => Some((spec.horizon, MAX_GOSSIP_HORIZON)),
            (ProtocolSpec::Hopping(spec), Engine::Exact) => {
                Some((spec.horizon, MAX_GOSSIP_HORIZON))
            }
            (ProtocolSpec::EpochHopping(spec), Engine::Exact) => {
                Some((spec.horizon, MAX_GOSSIP_HORIZON))
            }
            (ProtocolSpec::Kpsy(spec), _) => Some((spec.horizon, MAX_KPSY_HORIZON)),
            _ => None,
        };
        if let Some((horizon, cap)) = horizon_cap {
            if horizon > cap {
                return Err(ScenarioError::InvalidConfig(format!(
                    "{protocol} horizon must be at most {cap} on the exact engine, got {horizon}"
                )));
            }
        }
        let gossip_shape = match &self.protocol {
            ProtocolSpec::Epidemic(spec) => Some((protocol, spec.listen_p, spec.relay_rate)),
            ProtocolSpec::Hopping(spec) => Some((protocol, spec.listen_p, spec.relay_rate)),
            ProtocolSpec::EpochHopping(spec) => Some((protocol, spec.listen_p, spec.relay_rate)),
            _ => None,
        };
        if let Some((protocol, listen_p, relay_rate)) = gossip_shape {
            if !(0.0..=1.0).contains(&listen_p) || !listen_p.is_finite() {
                return Err(ScenarioError::InvalidConfig(format!(
                    "{protocol} listen_p must be a probability, got {listen_p}"
                )));
            }
            if !relay_rate.is_finite() || relay_rate < 0.0 {
                return Err(ScenarioError::InvalidConfig(format!(
                    "{protocol} relay_rate must be nonnegative and finite, got {relay_rate}"
                )));
            }
        }

        Ok(Scenario {
            protocol: self.protocol,
            engine: self.engine,
            adversary: self.adversary,
            carol_budget: self.carol_budget,
            enforce_correct_budgets: self.enforce_correct_budgets,
            trace_capacity,
            channels: self.channels,
            mc_phase_len,
            threads: self.threads,
            seed: self.seed,
            telemetry: self.telemetry,
        })
    }

    /// Convenience: [`build`](Self::build) then run once.
    ///
    /// # Errors
    ///
    /// Propagates [`ScenarioError`] from validation.
    pub fn run(self) -> Result<ScenarioOutcome, ScenarioError> {
        Ok(self.build()?.run())
    }
}
