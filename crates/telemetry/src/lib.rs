//! # rcb-telemetry — zero-cost observability for the workspace
//!
//! The paper's central claims are *resource* claims: Carol's budget `T`
//! versus the per-device cost the protocol charges the correct side.
//! Until this crate, those quantities were only visible post-hoc through
//! outcome aggregates and the exact engines' capped slot
//! [`Trace`](https://docs.rs/)-style records — the phase-level fast
//! engines were completely opaque, and the engine hot paths could not be
//! profiled without hand-instrumenting each investigation. This crate
//! provides three layers, all routed through one [`Collector`] trait:
//!
//! * a **lock-free metrics registry** — counters, gauges, and
//!   fixed-bucket histograms behind static [`MetricId`] handles, with a
//!   [`Snapshot`] type serializable to JSON and a Prometheus-style text
//!   format;
//! * a **structured event-tracing API** — [`Event`]s carry engine-tier,
//!   protocol, and phase dimensions, generalizing the slot-level trace so
//!   the fast and fast_mc engines emit per-phase records (rendezvous
//!   probability, jam thinning, budget fizzle) comparable to the exact
//!   engines' slot records;
//! * **profiling hooks** — the [`EngineProfile`] accumulator batches
//!   hot-loop counts (wake-queue drain batches, listener-resolution
//!   passes, RNG draws, adversary-plan invocations) into plain integer
//!   adds and flushes once per run, so instrumentation never perturbs
//!   the engines' RNG streams and costs nothing measurable when off.
//!
//! ## The zero-cost contract
//!
//! [`NoopCollector`] is a ZST whose hooks are inlined empty bodies:
//! engine entry points are generic over `C: Collector + ?Sized`, and the
//! uninstrumented public signatures delegate with `&NoopCollector`, so
//! the telemetry-off path monomorphizes to the pre-telemetry code. Hot
//! loops hoist [`Collector::enabled`] into a local `bool` once per run
//! and gate every count on it — with the noop that bool is a compile-time
//! `false` and the counting folds away; with a dyn-dispatched collector
//! it is one predictable branch per event. The workspace's pinned
//! fingerprint suites re-run with a recording collector attached prove
//! byte-identical outcomes; experiment E18's full-scale gate holds an
//! attached noop to at most 2 % per trial over no collector.
//!
//! ## Quick start
//!
//! ```
//! use rcb_telemetry::{Collector, MetricId, RecordingCollector};
//!
//! let collector = RecordingCollector::new();
//! collector.add(MetricId::EngineSlots, 128);
//! collector.observe(MetricId::EngineWakeDrainBatch, 3.0);
//!
//! let snapshot = collector.snapshot().expect("recording collectors snapshot");
//! assert_eq!(snapshot.counter(MetricId::EngineSlots), 128);
//! let text = snapshot.to_prometheus();
//! assert!(text.contains("rcb_engine_slots_total 128"));
//! let json = snapshot.to_json();
//! assert!(json.contains("\"rcb_engine_slots_total\": 128"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod collector;
mod event;
mod metric;
mod profile;
mod record;
mod snapshot;

pub use collector::{Collector, NoopCollector, SpanTimer};
pub use event::{EngineTier, Event, EventLog};
pub use metric::{MetricId, MetricKind, METRIC_COUNT};
pub use profile::EngineProfile;
pub use record::RecordingCollector;
pub use snapshot::{HistogramSnapshot, Snapshot, SpanSnapshot};
