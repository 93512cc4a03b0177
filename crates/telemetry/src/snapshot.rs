//! Point-in-time snapshots and their serializations.
//!
//! The workspace deliberately vendors no serde_json, so [`Snapshot`]
//! hand-rolls its JSON, as perfbench's run records do, and additionally
//! emits a Prometheus-style text exposition for scrape-shaped consumers.

use std::fmt::Write as _;

use crate::event::EventLog;
use crate::metric::MetricId;

/// One histogram's recorded state.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Which metric this is.
    pub id: MetricId,
    /// Per-bucket counts, aligned with [`MetricId::buckets`] plus a
    /// final `+Inf` overflow bucket. Non-cumulative.
    pub buckets: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Mean observed value, if any observations were recorded.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }
}

/// One named span's aggregate timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Span name.
    pub name: &'static str,
    /// How many times the span closed.
    pub count: u64,
    /// Total wall time across all closures, in nanoseconds.
    pub total_ns: u64,
}

/// Everything a recording collector has accumulated, frozen at one
/// moment. Zero-valued counters and never-written gauges are omitted.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Nonzero counters, in catalog order.
    pub counters: Vec<(MetricId, u64)>,
    /// Written gauges, in catalog order.
    pub gauges: Vec<(MetricId, f64)>,
    /// Histograms with at least one observation, in catalog order.
    pub histograms: Vec<HistogramSnapshot>,
    /// Aggregated spans, in first-seen order.
    pub spans: Vec<SpanSnapshot>,
    /// Retained tracing events, in emission order (shared with the
    /// collector's store — cloning a snapshot never copies events).
    pub events: EventLog,
    /// Events discarded after the retention capacity filled.
    pub events_dropped: u64,
}

impl Snapshot {
    /// The value of a counter (0 if it never fired).
    #[must_use]
    pub fn counter(&self, id: MetricId) -> u64 {
        self.counters
            .iter()
            .find(|(cid, _)| *cid == id)
            .map_or(0, |(_, v)| *v)
    }

    /// The value of a gauge, if it was ever written.
    #[must_use]
    pub fn gauge(&self, id: MetricId) -> Option<f64> {
        self.gauges
            .iter()
            .find(|(gid, _)| *gid == id)
            .map(|(_, v)| *v)
    }

    /// A histogram's state, if it recorded anything.
    #[must_use]
    pub fn histogram(&self, id: MetricId) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.id == id)
    }

    /// Serializes the snapshot as a JSON object (hand-rolled: the
    /// workspace vendors no serde_json). Events are summarized by count;
    /// full event payloads stay in-process.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"rcb-telemetry-v1\",\n  \"counters\": {");
        for (i, (id, value)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(out, "{sep}    \"{}\": {}", id.name(), value);
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (id, value)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(out, "{sep}    \"{}\": {}", id.name(), json_f64(*value));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}    \"{}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [",
                h.id.name(),
                h.count,
                json_f64(h.sum)
            );
            for (j, b) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("]}");
        }
        out.push_str("\n  },\n  \"spans\": {");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}    \"{}\": {{\"count\": {}, \"total_ns\": {}}}",
                s.name, s.count, s.total_ns
            );
        }
        let _ = write!(
            out,
            "\n  }},\n  \"events\": {},\n  \"events_dropped\": {}\n}}\n",
            self.events.len(),
            self.events_dropped
        );
        out
    }

    /// Serializes the metrics as Prometheus-style text exposition
    /// (`# HELP` / `# TYPE` lines, `_bucket{{le="..."}}` series with
    /// cumulative counts plus `_sum` / `_count` for histograms). Spans
    /// and events have no exposition-format equivalent and are omitted.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (id, value) in &self.counters {
            let _ = writeln!(out, "# HELP {} {}", id.name(), id.help());
            let _ = writeln!(out, "# TYPE {} counter", id.name());
            let _ = writeln!(out, "{} {}", id.name(), value);
        }
        for (id, value) in &self.gauges {
            let _ = writeln!(out, "# HELP {} {}", id.name(), id.help());
            let _ = writeln!(out, "# TYPE {} gauge", id.name());
            let _ = writeln!(out, "{} {}", id.name(), prom_f64(*value));
        }
        for h in &self.histograms {
            let name = h.id.name();
            let _ = writeln!(out, "# HELP {} {}", name, h.id.help());
            let _ = writeln!(out, "# TYPE {name} histogram");
            let bounds = h.id.buckets();
            let mut cumulative = 0u64;
            for (i, count) in h.buckets.iter().enumerate() {
                cumulative += count;
                let le = bounds
                    .get(i)
                    .map_or_else(|| "+Inf".to_string(), |b| prom_f64(*b));
                let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{name}_sum {}", prom_f64(h.sum));
            let _ = writeln!(out, "{name}_count {}", h.count);
        }
        out
    }
}

/// JSON has no NaN/Infinity literals; clamp them to null.
fn json_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Prometheus text format accepts plain decimal floats.
fn prom_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else if value.is_nan() {
        "NaN".to_string()
    } else if value > 0.0 {
        "+Inf".to_string()
    } else {
        "-Inf".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Collector;
    use crate::metric::MetricKind;
    use crate::record::RecordingCollector;

    fn sample() -> Snapshot {
        let c = RecordingCollector::new();
        c.add(MetricId::EngineSlots, 42);
        c.add(MetricId::SweepCacheHits, 7);
        c.gauge(MetricId::FastRendezvousP, 0.25);
        c.observe(MetricId::SweepCellTrials, 96.0);
        c.observe(MetricId::SweepCellTrials, 3000.0);
        c.span_ns("submit", 1_500);
        c.snapshot().unwrap()
    }

    #[test]
    fn json_is_wellformed_enough_to_grep() {
        let json = sample().to_json();
        assert!(json.contains("\"schema\": \"rcb-telemetry-v1\""));
        assert!(json.contains("\"rcb_engine_slots_total\": 42"));
        assert!(json.contains("\"rcb_fast_rendezvous_p\": 0.25"));
        assert!(json.contains("\"rcb_sweep_cell_trials\": {\"count\": 2"));
        assert!(json.contains("\"submit\": {\"count\": 1, \"total_ns\": 1500}"));
        // Balanced braces as a cheap structural check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE rcb_engine_slots_total counter"));
        assert!(text.contains("rcb_engine_slots_total 42"));
        assert!(text.contains("# TYPE rcb_fast_rendezvous_p gauge"));
        assert!(text.contains("# TYPE rcb_sweep_cell_trials histogram"));
        // Buckets are cumulative: 96 lands at le="128", 3000 only in +Inf.
        assert!(text.contains("rcb_sweep_cell_trials_bucket{le=\"128\"} 1"));
        assert!(text.contains("rcb_sweep_cell_trials_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("rcb_sweep_cell_trials_count 2"));
        // Zero-valued counters are omitted entirely.
        assert!(!text.contains("rcb_sweep_trials_executed_total"));
    }

    #[test]
    fn accessors_fall_back_sensibly() {
        let snap = sample();
        assert_eq!(snap.counter(MetricId::SweepTrials), 0);
        assert_eq!(snap.gauge(MetricId::SweepWorkers), None);
        assert!(snap.histogram(MetricId::EngineWakeDrainBatch).is_none());
        assert_eq!(
            snap.histogram(MetricId::SweepCellTrials).unwrap().mean(),
            Some(1548.0)
        );
    }

    #[test]
    fn kind_coverage_in_catalog_order() {
        let snap = sample();
        for pair in snap.counters.windows(2) {
            assert!(pair[0].0.index() < pair[1].0.index());
        }
        for (id, _) in &snap.counters {
            assert_eq!(id.kind(), MetricKind::Counter);
        }
    }
}
