//! Batched hot-loop profiling.
//!
//! Counting through [`Collector::add`] per slot would put an atomic RMW
//! (or at least a dyn call) in the engine hot loop. [`EngineProfile`] is
//! the agreed alternative: engines accumulate plain `u64` fields while
//! they run — gated on one hoisted `enabled` bool — and flush the whole
//! profile with a handful of collector calls at run end.

use crate::collector::Collector;
use crate::metric::MetricId;

/// Plain-integer accumulator for the exact-engine hot-path counters.
///
/// Field meanings mirror the `Engine*` entries of the
/// [`MetricId`] catalog one-for-one; [`flush`](Self::flush) maps them
/// across.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineProfile {
    /// Slots the run spanned, dead air included.
    pub slots: u64,
    /// Wake-queue drain batches that woke at least one device.
    pub wake_drains: u64,
    /// Devices drained from the wake queue.
    pub wake_drained: u64,
    /// Slots whose listener set was exactly materialized.
    pub listener_passes: u64,
    /// Listeners resolved by exact materialization.
    pub listeners_resolved: u64,
    /// Slots whose settled listens were deferred.
    pub inert_slots: u64,
    /// Listens charged without being resolved.
    pub settled_listens: u64,
    /// Words drawn from the run's random streams.
    pub rng_draws: u64,
    /// Adversary plan invocations: one per simulated slot.
    pub adversary_plans: u64,
}

impl EngineProfile {
    /// A zeroed profile.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds another profile into this one (e.g. per-run profiles into a
    /// batch aggregate).
    pub fn merge(&mut self, other: &EngineProfile) {
        self.slots += other.slots;
        self.wake_drains += other.wake_drains;
        self.wake_drained += other.wake_drained;
        self.listener_passes += other.listener_passes;
        self.listeners_resolved += other.listeners_resolved;
        self.inert_slots += other.inert_slots;
        self.settled_listens += other.settled_listens;
        self.rng_draws += other.rng_draws;
        self.adversary_plans += other.adversary_plans;
    }

    /// Flushes every nonzero field to the collector. (Wake-drain batch
    /// *shapes* are not covered here — those go through
    /// [`Collector::observe`] as they happen.)
    pub fn flush<C: Collector + ?Sized>(&self, collector: &C) {
        if !collector.enabled() {
            return;
        }
        let pairs = [
            (MetricId::EngineSlots, self.slots),
            (MetricId::EngineWakeDrains, self.wake_drains),
            (MetricId::EngineWakeDrained, self.wake_drained),
            (MetricId::EngineListenerPasses, self.listener_passes),
            (MetricId::EngineListenersResolved, self.listeners_resolved),
            (MetricId::EngineInertSlots, self.inert_slots),
            (MetricId::EngineSettledListens, self.settled_listens),
            (MetricId::EngineRngDraws, self.rng_draws),
            (MetricId::EngineAdversaryPlans, self.adversary_plans),
        ];
        for (id, value) in pairs {
            if value != 0 {
                collector.add(id, value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordingCollector;

    #[test]
    fn flush_maps_fields_to_catalog_entries() {
        let c = RecordingCollector::new();
        let profile = EngineProfile {
            slots: 10,
            wake_drains: 3,
            wake_drained: 7,
            rng_draws: 20,
            ..EngineProfile::default()
        };
        profile.flush(&c);
        profile.flush(&c);
        assert_eq!(c.counter(MetricId::EngineSlots), 20);
        assert_eq!(c.counter(MetricId::EngineWakeDrains), 6);
        assert_eq!(c.counter(MetricId::EngineWakeDrained), 14);
        assert_eq!(c.counter(MetricId::EngineRngDraws), 40);
        assert_eq!(c.counter(MetricId::EngineListenerPasses), 0);
    }

    #[test]
    fn merge_adds_fieldwise() {
        let mut a = EngineProfile {
            slots: 1,
            adversary_plans: 2,
            ..EngineProfile::default()
        };
        let b = EngineProfile {
            slots: 4,
            settled_listens: 9,
            ..EngineProfile::default()
        };
        a.merge(&b);
        assert_eq!(a.slots, 5);
        assert_eq!(a.adversary_plans, 2);
        assert_eq!(a.settled_listens, 9);
    }
}
