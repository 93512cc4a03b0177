//! `rcb-sweep` — a resident spectrum-sweep service over the unified
//! [`Scenario`](rcb_sim::Scenario) API.
//!
//! The workspace's one-shot path (`run_trials`, `Scenario::run_batch`)
//! answers "run N trials of this configuration". A sweep asks a bigger
//! question — "measure this *grid* of configurations to this
//! *precision*" — and a resident service can answer it much cheaper than
//! N one-shots, because it can stop cells early, balance the grid across
//! a worker pool, and remember every cell it has ever finished. This
//! crate is that service, in four layers:
//!
//! * **Specs and fingerprints** ([`ScenarioSpec`], [`fingerprint`]) — a
//!   declarative cell description and a canonical 128-bit content
//!   address over it, with an engine-era tag so cached statistics go
//!   stale loudly, never silently.
//! * **Streaming statistics** ([`CellStats`], [`StopRule`]) — one
//!   Welford accumulator per tracked metric, fed strictly in trial-index
//!   order, with CI-driven early stopping at deterministic checkpoints.
//! * **Execution** (the internal scheduler and work-stealing
//!   [`queue`](ShardQueue)) — cells decompose into trial shards executed
//!   by a scoped worker pool; aggregates are **byte-identical** to a
//!   sequential `run_trials` pass at any worker count or shard size.
//! * **Service and cache** ([`SweepService`], [`ResultCache`]) — the
//!   controller that validates a [`SweepSpec`], serves finished cells
//!   from the content-addressed cache (memory or disk), executes the
//!   rest, and reports per-cell [`CellResult`]s with a
//!   [`SweepProgress`] trail.
//!
//! The `sweepd` binary wraps the service for the command line; the
//! `rcb-analysis` E15 experiment and perfbench's `sweep-exact-zoo`
//! workload drive it in-process.
//!
//! # Example
//!
//! ```
//! use rcb_sim::{HoppingSpec, StrategySpec};
//! use rcb_sweep::{Metric, ScenarioSpec, StopRule, SweepService, SweepSpec};
//!
//! let cells: Vec<ScenarioSpec> = (0..3)
//!     .map(|c| {
//!         ScenarioSpec::hopping(HoppingSpec::new(8, 200))
//!             .channels(1 + c)
//!             .adversary(StrategySpec::SplitUniform)
//!             .carol_budget(100)
//!             .seed(7)
//!     })
//!     .collect();
//! let rule = StopRule::new(Metric::NodeTotalCost, 1e18).trials(4, 4, 8);
//! let service = SweepService::in_memory();
//!
//! let cold = service.submit(&SweepSpec::new(cells.clone(), rule))?;
//! assert!(cold.trials_executed() > 0);
//!
//! // Identical resubmission: every cell is served from the cache.
//! let warm = service.submit(&SweepSpec::new(cells, rule))?;
//! assert_eq!(warm.trials_executed(), 0);
//! # Ok::<(), rcb_sweep::SweepError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod fingerprint;
mod progress;
mod queue;
mod scheduler;
mod service;
mod spec;
mod stats;

pub use cache::{CacheEntry, CacheLookup, ResultCache};
pub use fingerprint::{
    fingerprint, fingerprint_with_era, Fingerprint, ParseFingerprintError, ENGINE_ERA, SEED_LINEAGE,
};
pub use progress::SweepProgress;
pub use queue::ShardQueue;
pub use service::{CellResult, SweepConfig, SweepError, SweepReport, SweepService, SweepSpec};
pub use spec::{ProtocolSpec, ScenarioSpec};
pub use stats::{CellStats, Metric, StopRule, TrialMetrics, METRIC_COUNT};
