//! The [`Collector`] trait, its no-op default, and the span timer.

use std::fmt;
use std::time::Instant;

use crate::event::Event;
use crate::metric::MetricId;
use crate::snapshot::Snapshot;

/// The sink every instrumented site routes through.
///
/// All methods take `&self` — recording implementations use atomics (and
/// a mutex only for the cold event/span paths), so one collector can be
/// shared across batch worker threads. Hooks must be **purely
/// observational**: a collector never draws from the engines' RNG
/// streams or otherwise influences execution, which is what makes
/// recording telemetry outcome-neutral (asserted by the workspace's
/// telemetry-neutrality fingerprint suite).
///
/// Engine entry points are generic over `C: Collector + ?Sized`: the
/// telemetry-off path instantiates with the ZST [`NoopCollector`]
/// (everything inlines to nothing), the attached path with
/// `&dyn Collector`. Hot loops should hoist [`enabled`](Self::enabled)
/// into a local `bool` once per run and gate their bookkeeping on it.
pub trait Collector: fmt::Debug + Send + Sync {
    /// Whether this collector records anything. Instrumented code checks
    /// this once per run (or per cold-path section) and skips all
    /// bookkeeping when `false`.
    fn enabled(&self) -> bool;

    /// Adds `delta` to a counter.
    fn add(&self, _id: MetricId, _delta: u64) {}

    /// Sets a gauge to `value`.
    fn gauge(&self, _id: MetricId, _value: f64) {}

    /// Records one observation into a histogram.
    fn observe(&self, _id: MetricId, _value: f64) {}

    /// Records one structured tracing event.
    fn event(&self, _event: Event) {}

    /// Drains a buffer of events into the collector, preserving order.
    ///
    /// Hot engine loops that emit one event per phase should buffer
    /// locally and flush through here: a recording backend can then take
    /// its store lock once per batch instead of once per event. The
    /// default forwards each event through [`event`](Self::event), so
    /// implementations only need to override this for performance. The
    /// buffer is left empty (capacity retained) so callers can reuse it.
    fn event_batch(&self, events: &mut Vec<Event>) {
        for event in events.drain(..) {
            self.event(event);
        }
    }

    /// Records `ns` nanoseconds against the named span.
    fn span_ns(&self, _name: &'static str, _ns: u64) {}

    /// A point-in-time snapshot of everything recorded so far; `None`
    /// for collectors that record nothing.
    fn snapshot(&self) -> Option<Snapshot> {
        None
    }
}

/// The default collector: a ZST whose hooks compile to nothing.
///
/// Instrumented engine code invoked without telemetry monomorphizes
/// against this type, so the telemetry-off path *is* the pre-telemetry
/// code — pinned fingerprints and E18's overhead gate hold it to that.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopCollector;

impl Collector for NoopCollector {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn add(&self, _id: MetricId, _delta: u64) {}

    #[inline(always)]
    fn gauge(&self, _id: MetricId, _value: f64) {}

    #[inline(always)]
    fn observe(&self, _id: MetricId, _value: f64) {}

    #[inline(always)]
    fn event(&self, _event: Event) {}

    #[inline(always)]
    fn event_batch(&self, events: &mut Vec<Event>) {
        events.clear();
    }

    #[inline(always)]
    fn span_ns(&self, _name: &'static str, _ns: u64) {}
}

/// A scope timer: measures wall time from construction to drop and
/// reports it via [`Collector::span_ns`].
///
/// Against a disabled collector no clock is read at all, so timers can
/// sit on cold paths (per run, per sweep submission) unconditionally.
/// Not for hot loops — a clock read per slot would dwarf the code being
/// measured.
#[must_use = "a span timer reports on drop; binding it to _ discards the measurement"]
pub struct SpanTimer<'a> {
    collector: &'a dyn Collector,
    name: &'static str,
    start: Option<Instant>,
}

impl<'a> SpanTimer<'a> {
    /// Starts timing `name` (a no-op against a disabled collector).
    pub fn start(collector: &'a dyn Collector, name: &'static str) -> Self {
        let start = collector.enabled().then(Instant::now);
        Self {
            collector,
            name,
            start,
        }
    }
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.collector.span_ns(self.name, ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_zst_with_no_snapshot() {
        assert_eq!(std::mem::size_of::<NoopCollector>(), 0);
        let c = NoopCollector;
        assert!(!c.enabled());
        c.add(MetricId::EngineSlots, 1);
        c.observe(MetricId::EngineWakeDrainBatch, 1.0);
        assert!(c.snapshot().is_none());
    }

    #[test]
    fn default_event_batch_forwards_through_event() {
        /// Counts `event` calls, so the default `event_batch` is observed
        /// routing every buffered event through the per-event hook.
        #[derive(Debug, Default)]
        struct Counting(std::sync::atomic::AtomicU64);
        impl Collector for Counting {
            fn enabled(&self) -> bool {
                true
            }
            fn event(&self, _event: Event) {
                self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
        let c = Counting::default();
        let mut buf: Vec<Event> = (0..4)
            .map(|i| Event::new(crate::EngineTier::FastMc, "hopping", "phase", i))
            .collect();
        c.event_batch(&mut buf);
        assert!(buf.is_empty());
        assert_eq!(c.0.load(std::sync::atomic::Ordering::Relaxed), 4);
    }

    #[test]
    fn span_timer_skips_the_clock_when_disabled() {
        let noop = NoopCollector;
        let timer = SpanTimer::start(&noop, "section");
        assert!(timer.start.is_none());
        drop(timer);
    }
}
