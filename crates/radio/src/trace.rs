//! Slot-level event tracing.
//!
//! A [`Trace`] records one compact [`SlotRecord`] per slot, capped so long
//! runs cannot exhaust memory. Traces support debugging, the blocked-phase
//! post-mortems in tests, and the EXPERIMENTS.md narrative plots.

use crate::slot::Slot;

/// Compact per-slot summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotRecord {
    /// The slot index.
    pub slot: u64,
    /// Number of frames transmitted (correct + Byzantine), saturating.
    pub transmissions: u16,
    /// Number of channels on which Carol's jam executed (0 or 1 in the
    /// single-channel model).
    pub jammed_channels: u16,
    /// Number of correct participants listening.
    pub listeners: u32,
    /// Number of listeners that received a frame cleanly.
    pub delivered: u32,
}

impl SlotRecord {
    /// Whether any of Carol's jam plan executed this slot.
    #[must_use]
    pub fn jammed(&self) -> bool {
        self.jammed_channels > 0
    }

    /// Whether the slot was noisy for at least some listener (activity or
    /// jamming present).
    #[must_use]
    pub fn had_activity(&self) -> bool {
        self.transmissions > 0 || self.jammed()
    }
}

/// A bounded in-memory trace of slot records.
///
/// # Example
///
/// ```
/// use rcb_radio::{SlotRecord, Trace};
/// let mut trace = Trace::with_capacity(2);
/// for i in 0..5 {
///     trace.push(SlotRecord {
///         slot: i, transmissions: 0, jammed_channels: 0, listeners: 0, delivered: 0,
///     });
/// }
/// assert_eq!(trace.len(), 2);           // capped
/// assert_eq!(trace.dropped(), 3);       // but counted
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    records: Vec<SlotRecord>,
    cap: usize,
    dropped: u64,
}

impl Trace {
    /// A trace retaining at most `cap` records (the earliest ones).
    ///
    /// `cap == 0` (tracing disabled — the engine's default) is guaranteed
    /// to allocate nothing; a nonzero cap pre-reserves the record buffer
    /// up front (bounded, so an absurd cap cannot OOM before a single
    /// record exists), sparing the slot loop incremental regrowth.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        /// Pre-reservation bound: 24 bytes/record ⇒ at most ~6 MiB up
        /// front; larger traces grow on demand.
        const MAX_PREALLOC_RECORDS: usize = 1 << 18;
        let records = if cap == 0 {
            Vec::new()
        } else {
            Vec::with_capacity(cap.min(MAX_PREALLOC_RECORDS))
        };
        Self {
            records,
            cap,
            dropped: 0,
        }
    }

    /// Appends a record (dropped silently past the cap, but counted).
    pub fn push(&mut self, record: SlotRecord) {
        if self.records.len() < self.cap {
            self.records.push(record);
        } else {
            self.dropped += 1;
        }
    }

    /// Records retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of records dropped due to the cap.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained records.
    #[must_use]
    pub fn records(&self) -> &[SlotRecord] {
        &self.records
    }

    /// Looks up the record for a slot (only works within the retained
    /// prefix).
    #[must_use]
    pub fn get(&self, slot: Slot) -> Option<&SlotRecord> {
        self.records
            .binary_search_by_key(&slot.index(), |r| r.slot)
            .ok()
            .map(|i| &self.records[i])
    }

    /// Count of retained records where the jam executed.
    #[must_use]
    pub fn jammed_slots(&self) -> usize {
        self.records.iter().filter(|r| r.jammed()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(slot: u64, jammed: bool) -> SlotRecord {
        SlotRecord {
            slot,
            transmissions: 0,
            jammed_channels: u16::from(jammed),
            listeners: 0,
            delivered: 0,
        }
    }

    #[test]
    fn cap_is_enforced_and_counted() {
        let mut t = Trace::with_capacity(3);
        for i in 0..10 {
            t.push(rec(i, false));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 7);
        assert!(!t.is_empty());
    }

    #[test]
    fn get_by_slot() {
        let mut t = Trace::with_capacity(10);
        for i in 0..5 {
            t.push(rec(i * 2, i % 2 == 0));
        }
        assert!(t.get(Slot::new(4)).is_some());
        assert!(t.get(Slot::new(5)).is_none());
    }

    #[test]
    fn jam_counting_and_activity() {
        let mut t = Trace::with_capacity(10);
        t.push(rec(0, true));
        t.push(rec(1, false));
        t.push(rec(2, true));
        assert_eq!(t.jammed_slots(), 2);
        assert!(rec(0, true).had_activity());
        assert!(!rec(1, false).had_activity());
        let active = SlotRecord {
            slot: 3,
            transmissions: 2,
            jammed_channels: 0,
            listeners: 0,
            delivered: 0,
        };
        assert!(active.had_activity());
    }
}
