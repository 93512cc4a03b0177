//! The static metric catalog.
//!
//! Metrics are a closed enum rather than a string-keyed registry: every
//! instrumented site in the workspace names a [`MetricId`] variant, so
//! the recording backend is a fixed array of atomics (genuinely
//! lock-free, no registration races, no hash lookups on the hot path)
//! and a [`Snapshot`](crate::Snapshot) enumerates the catalog without
//! guessing. The naming scheme is Prometheus-flavoured:
//! `rcb_<subsystem>_<what>[_total]` — `_total` marks monotone counters,
//! bare names are gauges or histograms.

/// One metric in the catalog. The discriminant doubles as the index into
/// the recording backend's atomic arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum MetricId {
    // --- exact-engine (era 2) hot-path profile ---
    /// Slots an exact run spanned (its length, dead air included).
    EngineSlots,
    /// Wake-queue drain batches (slots that woke at least one device),
    /// counting what the per-slot loops did. The request windows of exact
    /// ε-BROADCAST take their actions from per-device masks, and the
    /// gossip driver settles its send-only tail (the stretch after its
    /// last uninformed node is informed) node by node, neither through
    /// the queue, so their slots are not counted.
    EngineWakeDrains,
    /// Devices drained from the wake queue; actions in ε-BROADCAST's
    /// request windows and in the gossip driver's send-only tail are not
    /// counted (see [`EngineWakeDrains`](Self::EngineWakeDrains)).
    EngineWakeDrained,
    /// Slots whose listener set was exactly materialized. In
    /// ε-BROADCAST's request windows, only slots that may deliver a
    /// frame or whose jam picks listeners are.
    EngineListenerPasses,
    /// Listeners resolved by exact materialization, over the slots
    /// [`EngineListenerPasses`](Self::EngineListenerPasses) counts.
    EngineListenersResolved,
    /// Slots whose listens by a settled set (ε-BROADCAST's quiet set,
    /// a gossip driver's dormant pool) were deferred to aggregate
    /// settlement instead of resolved, dead air included.
    EngineInertSlots,
    /// Listens charged without being resolved: the deferred listens of
    /// [`EngineInertSlots`](Self::EngineInertSlots), and in
    /// ε-BROADCAST's request windows the listens of slots that resolved
    /// no listener list. Together with
    /// [`EngineListenersResolved`](Self::EngineListenersResolved) it
    /// covers every charged listen.
    EngineSettledListens,
    /// Words drawn from the run's random streams (KPSY counts one per
    /// secret slot it samples). A draw that needs no randomness, such as
    /// a `p = 1` geometric gap, draws none.
    EngineRngDraws,
    /// Adversary plan invocations: one per slot of a driver's per-slot
    /// loop. The slots a driver settles without calling Carol have none:
    /// the dead air the ε-BROADCAST and KPSY drivers skip once she is
    /// broke, and the gossip driver's send-only tail, settled in bulk once
    /// she is broke or has committed her moves to the run's end. So
    /// `EngineSlots` minus this counter is the slots settled without her.
    EngineAdversaryPlans,
    /// Distribution of wake-queue drain batch sizes (devices per
    /// non-empty drain).
    EngineWakeDrainBatch,

    // --- fast / fast_mc phase-level engines ---
    /// Phases the fast engines advanced.
    FastPhases,
    /// Nodes newly informed across all phases.
    FastInformed,
    /// Jam slots the adversary's phase plans requested.
    FastJamRequested,
    /// Jam slots actually executed after budget clamping (the difference
    /// against requested is the budget fizzle).
    FastJamExecuted,
    /// Per-phase rendezvous probability of an uninformed listener
    /// (last value).
    FastRendezvousP,
    /// Per-phase surviving-slot fraction after jam thinning (last value).
    FastSurviveP,

    // --- fluid mean-field tier ---
    /// Phases the fluid-limit engine advanced.
    FluidPhases,
    /// Expected uninformed mass after the last fluid phase (gauge).
    FluidUninformed,

    // --- sweep service ---
    /// Cells planned across submissions.
    SweepCells,
    /// Trials executed by the worker pool.
    SweepTrials,
    /// Result-cache hits (memory or disk).
    SweepCacheHits,
    /// Result-cache misses.
    SweepCacheMisses,
    /// Result-cache entries refused as stale or unparsable (era
    /// mismatch, corrupt file).
    SweepCacheInvalidations,
    /// Intra-submission duplicate cells coalesced onto one execution.
    SweepDedupHits,
    /// Early-stop checkpoint evaluations.
    SweepCheckpoints,
    /// Cells that stopped early (before `max_trials`).
    SweepEarlyStops,
    /// Shards a worker stole from another worker's deque.
    SweepSteals,
    /// Shards issued to the worker pool.
    SweepShards,
    /// Worker threads of the last pool (gauge).
    SweepWorkers,
    /// Distribution of per-cell executed trial counts.
    SweepCellTrials,
}

/// Number of metrics in the catalog (array size of the recording
/// backend).
pub const METRIC_COUNT: usize = 30;

/// What kind of instrument a metric is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone sum of `u64` increments.
    Counter,
    /// Last-written `f64` value.
    Gauge,
    /// Fixed-bucket distribution of observed `f64` values.
    Histogram,
}

/// Power-of-two histogram buckets (upper bounds), for batch-size-shaped
/// distributions.
const POW2_BUCKETS: &[f64] = &[
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 4096.0,
];

impl MetricId {
    /// Every metric, in discriminant order.
    pub const ALL: [MetricId; METRIC_COUNT] = [
        MetricId::EngineSlots,
        MetricId::EngineWakeDrains,
        MetricId::EngineWakeDrained,
        MetricId::EngineListenerPasses,
        MetricId::EngineListenersResolved,
        MetricId::EngineInertSlots,
        MetricId::EngineSettledListens,
        MetricId::EngineRngDraws,
        MetricId::EngineAdversaryPlans,
        MetricId::EngineWakeDrainBatch,
        MetricId::FastPhases,
        MetricId::FastInformed,
        MetricId::FastJamRequested,
        MetricId::FastJamExecuted,
        MetricId::FastRendezvousP,
        MetricId::FastSurviveP,
        MetricId::FluidPhases,
        MetricId::FluidUninformed,
        MetricId::SweepCells,
        MetricId::SweepTrials,
        MetricId::SweepCacheHits,
        MetricId::SweepCacheMisses,
        MetricId::SweepCacheInvalidations,
        MetricId::SweepDedupHits,
        MetricId::SweepCheckpoints,
        MetricId::SweepEarlyStops,
        MetricId::SweepSteals,
        MetricId::SweepShards,
        MetricId::SweepWorkers,
        MetricId::SweepCellTrials,
    ];

    /// The dense array index of this metric.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable Prometheus-style name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MetricId::EngineSlots => "rcb_engine_slots_total",
            MetricId::EngineWakeDrains => "rcb_engine_wake_drains_total",
            MetricId::EngineWakeDrained => "rcb_engine_wake_drained_total",
            MetricId::EngineListenerPasses => "rcb_engine_listener_passes_total",
            MetricId::EngineListenersResolved => "rcb_engine_listeners_resolved_total",
            MetricId::EngineInertSlots => "rcb_engine_inert_slots_total",
            MetricId::EngineSettledListens => "rcb_engine_settled_listens_total",
            MetricId::EngineRngDraws => "rcb_engine_rng_draws_total",
            MetricId::EngineAdversaryPlans => "rcb_engine_adversary_plans_total",
            MetricId::EngineWakeDrainBatch => "rcb_engine_wake_drain_batch",
            MetricId::FastPhases => "rcb_fast_phases_total",
            MetricId::FastInformed => "rcb_fast_informed_total",
            MetricId::FastJamRequested => "rcb_fast_jam_requested_total",
            MetricId::FastJamExecuted => "rcb_fast_jam_executed_total",
            MetricId::FastRendezvousP => "rcb_fast_rendezvous_p",
            MetricId::FastSurviveP => "rcb_fast_survive_p",
            MetricId::FluidPhases => "rcb_fluid_phases_total",
            MetricId::FluidUninformed => "rcb_fluid_uninformed",
            MetricId::SweepCells => "rcb_sweep_cells_total",
            MetricId::SweepTrials => "rcb_sweep_trials_executed_total",
            MetricId::SweepCacheHits => "rcb_sweep_cache_hits_total",
            MetricId::SweepCacheMisses => "rcb_sweep_cache_misses_total",
            MetricId::SweepCacheInvalidations => "rcb_sweep_cache_invalidations_total",
            MetricId::SweepDedupHits => "rcb_sweep_dedup_hits_total",
            MetricId::SweepCheckpoints => "rcb_sweep_checkpoints_total",
            MetricId::SweepEarlyStops => "rcb_sweep_early_stops_total",
            MetricId::SweepSteals => "rcb_sweep_steals_total",
            MetricId::SweepShards => "rcb_sweep_shards_total",
            MetricId::SweepWorkers => "rcb_sweep_workers",
            MetricId::SweepCellTrials => "rcb_sweep_cell_trials",
        }
    }

    /// One-line help text (the Prometheus `# HELP` line).
    #[must_use]
    pub fn help(self) -> &'static str {
        match self {
            MetricId::EngineSlots => "Slots the exact engine simulated",
            MetricId::EngineWakeDrains => "Wake-queue drain batches with at least one device",
            MetricId::EngineWakeDrained => "Devices drained from the wake queue",
            MetricId::EngineListenerPasses => "Slots whose listener set was exactly materialized",
            MetricId::EngineListenersResolved => "Listeners resolved by exact materialization",
            MetricId::EngineInertSlots => "Slots whose settled listens were deferred",
            MetricId::EngineSettledListens => "Listens charged without being resolved",
            MetricId::EngineRngDraws => "Words drawn from the run's random streams",
            MetricId::EngineAdversaryPlans => "Adversary plan invocations",
            MetricId::EngineWakeDrainBatch => "Wake-queue drain batch sizes",
            MetricId::FastPhases => "Phases advanced by the phase-level engines",
            MetricId::FastInformed => "Nodes newly informed across phases",
            MetricId::FastJamRequested => "Jam slots requested by phase plans",
            MetricId::FastJamExecuted => "Jam slots executed after budget clamping",
            MetricId::FastRendezvousP => "Last per-phase rendezvous probability",
            MetricId::FastSurviveP => "Last per-phase surviving-slot fraction after jamming",
            MetricId::FluidPhases => "Phases advanced by the fluid mean-field engine",
            MetricId::FluidUninformed => "Expected uninformed mass after the last fluid phase",
            MetricId::SweepCells => "Cells planned by the sweep service",
            MetricId::SweepTrials => "Trials executed by the sweep worker pool",
            MetricId::SweepCacheHits => "Result-cache hits",
            MetricId::SweepCacheMisses => "Result-cache misses",
            MetricId::SweepCacheInvalidations => "Cache entries refused as stale or unparsable",
            MetricId::SweepDedupHits => "Intra-submission duplicate cells coalesced",
            MetricId::SweepCheckpoints => "Early-stop checkpoint evaluations",
            MetricId::SweepEarlyStops => "Cells stopped before max_trials",
            MetricId::SweepSteals => "Shards stolen across worker deques",
            MetricId::SweepShards => "Shards issued to the worker pool",
            MetricId::SweepWorkers => "Worker threads of the last pool",
            MetricId::SweepCellTrials => "Per-cell executed trial counts",
        }
    }

    /// The instrument kind.
    #[must_use]
    pub fn kind(self) -> MetricKind {
        match self {
            MetricId::EngineWakeDrainBatch | MetricId::SweepCellTrials => MetricKind::Histogram,
            MetricId::FastRendezvousP
            | MetricId::FastSurviveP
            | MetricId::FluidUninformed
            | MetricId::SweepWorkers => MetricKind::Gauge,
            _ => MetricKind::Counter,
        }
    }

    /// Histogram bucket upper bounds (histogram metrics only; an
    /// implicit `+Inf` bucket always follows).
    #[must_use]
    pub fn buckets(self) -> &'static [f64] {
        match self.kind() {
            MetricKind::Histogram => POW2_BUCKETS,
            _ => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_indices_are_dense_and_ordered() {
        for (i, id) in MetricId::ALL.iter().enumerate() {
            assert_eq!(id.index(), i, "{id:?}");
        }
    }

    #[test]
    fn names_are_unique_and_scheme_conformant() {
        let mut names: Vec<&str> = MetricId::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), METRIC_COUNT, "duplicate metric name");
        for id in MetricId::ALL {
            assert!(id.name().starts_with("rcb_"), "{}", id.name());
            // Counters carry the `_total` suffix; gauges and histograms
            // never do.
            assert_eq!(
                id.name().ends_with("_total"),
                id.kind() == MetricKind::Counter,
                "{}",
                id.name()
            );
            assert!(!id.help().is_empty());
        }
    }

    #[test]
    fn buckets_exist_exactly_for_histograms() {
        for id in MetricId::ALL {
            assert_eq!(
                !id.buckets().is_empty(),
                id.kind() == MetricKind::Histogram,
                "{id:?}"
            );
        }
        // Bucket bounds are strictly increasing.
        for w in POW2_BUCKETS.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}
