//! The per-layer metric catalogue and the layer measurements shared by
//! the workloads: engine counters read from a `RecordingCollector`, and
//! radio and rng calls timed alone on workload-shaped inputs.

use std::hint::black_box;
use std::time::Instant;

use rand::Rng;
use rcb_radio::{
    resolve_for_listener_on, ChannelId, ChannelLoad, JamPlan, ParticipantId, Payload, Spectrum,
    WakeQueue,
};
use rcb_rng::{Binomial, CounterRng, Geometric};
use rcb_telemetry::{MetricId, RecordingCollector};

use crate::stats::median;
use crate::Metric;

/// Every per-layer metric with its unit, in report order. A traced run
/// reports all of them; a layer its workload does not exercise reads 0
/// and says why.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("sim.self_ms", "ms"),
    ("sim.fresh_scratch_ms", "ms"),
    ("sim.batch_efficiency", "ratio"),
    ("adversary.calls", "count"),
    ("adversary.busy_ms", "ms"),
    ("adversary.build_us", "us"),
    ("core.busy_ms", "ms"),
    ("core.fast_mc_busy_ms", "ms"),
    ("core.fluid_busy_ms", "ms"),
    ("core.fast_busy_ms", "ms"),
    ("core.slots", "count"),
    ("core.phases", "count"),
    ("core.fluid_phases", "count"),
    ("core.jam_requested", "count"),
    ("core.jam_executed", "count"),
    ("radio.wake_drains", "count"),
    ("radio.wake_drained", "count"),
    ("radio.listener_passes", "count"),
    ("radio.listeners_resolved", "count"),
    ("radio.wake_ns", "ns"),
    ("radio.resolve_ns", "ns"),
    ("radio.inert_slots", "count"),
    ("radio.settled_listens", "count"),
    ("rng.draws", "count"),
    ("rng.geometric_ns", "ns"),
    ("rng.binomial_ns", "ns"),
    ("baselines.kpsy_share", "ratio"),
    ("baselines.gossip_share", "ratio"),
    ("core.bcast_share", "ratio"),
    ("core.hopping_share", "ratio"),
    ("baselines.kpsy_ms", "ms"),
    ("sweep.fingerprint_us", "us"),
    ("sweep.open_ms", "ms"),
    ("sweep.lookup_disk_us", "us"),
    ("sweep.reopen_ms", "ms"),
    ("sweep.store_us", "us"),
    ("sweep.stats_push_ns", "ns"),
    ("sweep.pool_efficiency", "ratio"),
    ("sweep.stop_saving", "ratio"),
    ("sweep.cells", "count"),
    ("sweep.trials_executed", "count"),
    ("sweep.trials_saved", "count"),
    ("sweep.cache_hits", "count"),
    ("sweep.cache_misses", "count"),
    ("sweep.cache_invalidations", "count"),
    ("sweep.shards", "count"),
    ("sweep.checkpoints", "count"),
    ("sweep.early_stops", "count"),
    ("sweep.steals", "count"),
    ("telemetry.trace_overhead", "ratio"),
];

/// Orders `measured` by the catalogue and fills every metric the
/// workload did not measure as absent, with `why_absent(name)`.
pub fn complete(measured: Vec<Metric>, why_absent: impl Fn(&str) -> &'static str) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            measured
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::absent(name, unit, why_absent(name)))
        })
        .collect()
}

/// The engine counters of a recording collector, divided by `per` (the
/// number of workload operations they cover).
pub fn counters(collector: &RecordingCollector, per: f64, per_what: &str) -> Vec<Metric> {
    let pairs = [
        ("core.slots", MetricId::EngineSlots),
        ("core.phases", MetricId::FastPhases),
        ("core.fluid_phases", MetricId::FluidPhases),
        ("core.jam_requested", MetricId::FastJamRequested),
        ("core.jam_executed", MetricId::FastJamExecuted),
        ("radio.wake_drains", MetricId::EngineWakeDrains),
        ("radio.wake_drained", MetricId::EngineWakeDrained),
        ("radio.listener_passes", MetricId::EngineListenerPasses),
        (
            "radio.listeners_resolved",
            MetricId::EngineListenersResolved,
        ),
        ("radio.inert_slots", MetricId::EngineInertSlots),
        ("radio.settled_listens", MetricId::EngineSettledListens),
        ("rng.draws", MetricId::EngineRngDraws),
    ];
    pairs
        .iter()
        .map(|&(name, id)| {
            Metric::new(
                name,
                "count",
                collector.counter(id) as f64 / per,
                format!("telemetry counter per {per_what}"),
            )
        })
        .collect()
}

fn ns_per(start: Instant, ops: u64) -> f64 {
    start.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// `WakeQueue::schedule` + `drain_due`, ns per wake: `nodes` devices
/// each re-parked a geometric(`p`) gap ahead every time they wake, over
/// `horizon` slots — the wake pattern of an exact run with that
/// per-device wake rate. Median of three passes.
pub fn wake_ns(nodes: usize, horizon: u64, p: f64, seed: u64) -> f64 {
    let geo = Geometric::new(p.clamp(1e-6, 1.0)).expect("clamped into (0, 1]");
    let mut rng = CounterRng::new(seed);
    let gaps: Vec<u64> = (0..1 << 16).map(|_| 1 + geo.sample(&mut rng)).collect();
    let mask = gaps.len() - 1;
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let mut queue = WakeQueue::new();
            queue.reset(nodes, horizon);
            let mut g = 0usize;
            for node in 0..nodes {
                queue.schedule(node as u32, gaps[g & mask]);
                g += 1;
            }
            let mut due = Vec::new();
            let mut wakes = 0u64;
            let start = Instant::now();
            for slot in 0..horizon {
                queue.drain_due(slot, &mut due);
                for &(_, node) in &due {
                    queue.schedule(node, slot + gaps[g & mask]);
                    g += 1;
                }
                wakes += due.len() as u64;
            }
            let ns = ns_per(start, wakes);
            black_box(&due);
            ns
        })
        .collect();
    median(&samples)
}

/// `resolve_for_listener_on`, ns per call, over a pre-drawn mix of
/// quiet, single-frame and collision slots with `jam_share` of the
/// calls jammed. Median of three passes.
pub fn resolve_ns(jam_share: f64, seed: u64) -> f64 {
    let spectrum = Spectrum::single();
    let channel = ChannelId::new(0);
    let mut loads = vec![ChannelLoad::new(spectrum); 3];
    loads[1].push(channel, Payload::Nack);
    loads[2].push(channel, Payload::Nack);
    loads[2].push(channel, Payload::Decoy);
    let jams = [JamPlan::none(), JamPlan::all_channels(spectrum)];
    let mut rng = CounterRng::new(seed);
    let calls: Vec<(u32, u8, u8)> = (0..1u32 << 20)
        .map(|i| {
            let load = rng.gen_range(0..3u8);
            (i % 4096, load, u8::from(rng.gen::<f64>() < jam_share))
        })
        .collect();
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            for &(listener, load, jam) in &calls {
                black_box(resolve_for_listener_on(
                    ParticipantId::new(listener),
                    channel,
                    &loads[load as usize],
                    &jams[jam as usize],
                ));
            }
            ns_per(start, calls.len() as u64)
        })
        .collect();
    median(&samples)
}

/// `Geometric::sample` on a `CounterRng`, ns per draw.
pub fn geometric_ns(p: f64, seed: u64) -> f64 {
    let geo = Geometric::new(p.clamp(1e-6, 1.0)).expect("clamped into (0, 1]");
    let mut rng = CounterRng::new(seed);
    let draws = 1u64 << 21;
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..draws {
                black_box(geo.sample(&mut rng));
            }
            ns_per(start, draws)
        })
        .collect();
    median(&samples)
}

/// `Binomial::sample` on a `CounterRng`, ns per draw.
pub fn binomial_ns(n: u64, p: f64, seed: u64) -> f64 {
    let bin = Binomial::new(n, p).expect("valid binomial parameters");
    let mut rng = CounterRng::new(seed);
    let draws = 1u64 << 18;
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..draws {
                black_box(bin.sample(&mut rng));
            }
            ns_per(start, draws)
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_valid() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|&(n, _)| n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        for (name, unit) in PER_LAYER {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert!(unit.len() <= 16);
        }
    }

    #[test]
    fn complete_fills_absent_metrics_in_order() {
        let measured = vec![Metric::new("rng.draws", "count", 7.0, "")];
        let all = complete(measured, |_| "not here");
        assert_eq!(all.len(), PER_LAYER.len());
        let draws = all.iter().find(|m| m.name == "rng.draws").unwrap();
        assert_eq!(draws.value, 7.0);
        assert!(all[0].note.starts_with("absent"));
    }

    #[test]
    fn layer_timers_return_positive_times() {
        assert!(wake_ns(64, 2_000, 0.05, 1) > 0.0);
        assert!(geometric_ns(0.1, 1) > 0.0);
    }
}
