//! The round/phase schedule of ε-BROADCAST.
//!
//! Round `i` (for `i = start_round, start_round+1, …`) consists of `k + 1`
//! phases, each of `⌈2^{(1+1/k)·i}⌉` slots:
//!
//! 1. **Inform** — Alice seeds the set `S_{i,1}`;
//! 2. **Propagation step `h`** for `h = 1..k−1` — `S_{i,h}` builds
//!    `S_{i,h+1}`;
//! 3. **Request** — uninformed nodes nack; Alice and nodes test their
//!    termination conditions.
//!
//! No global broadcast schedule is assumed by the paper, but time *is*
//! slotted and all correct devices agree on the round structure as a pure
//! function of the slot index — which is what this module provides. Both
//! the protocol state machines and the adversary strategies consult it.

use crate::params::Params;

/// Which phase of a round a slot belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    /// Alice transmits `m`; uninformed nodes sample listen slots.
    Inform,
    /// Newly informed nodes relay `m`; `step` ranges over `1..=k−1`.
    Propagation {
        /// The step index `h` (1-based, as in the paper).
        step: u32,
    },
    /// Uninformed nodes send nacks; termination conditions are evaluated.
    Request,
}

impl PhaseKind {
    /// Index of this phase within its round (`0..=k`).
    #[must_use]
    pub fn ordinal(&self, k: u32) -> u32 {
        match *self {
            PhaseKind::Inform => 0,
            PhaseKind::Propagation { step } => step,
            PhaseKind::Request => k,
        }
    }
}

/// Where a slot falls in the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotPosition {
    /// The round index `i`.
    pub round: u32,
    /// The phase within the round.
    pub phase: PhaseKind,
    /// Offset of this slot within its phase (`0..phase_len`).
    pub offset: u64,
    /// Length of the current phase in slots.
    pub phase_len: u64,
}

impl SlotPosition {
    /// Whether this is the first slot of its phase.
    #[must_use]
    pub fn is_phase_start(&self) -> bool {
        self.offset == 0
    }

    /// Whether this is the last slot of its phase.
    #[must_use]
    pub fn is_phase_end(&self) -> bool {
        self.offset + 1 == self.phase_len
    }
}

/// The deterministic slot → (round, phase) mapping.
///
/// # Example
///
/// ```
/// use rcb_core::{Params, RoundSchedule, PhaseKind};
/// let params = Params::builder(256).build()?;
/// let schedule = RoundSchedule::new(&params);
/// let pos = schedule.locate(0);
/// assert_eq!(pos.round, params.start_round());
/// assert_eq!(pos.phase, PhaseKind::Inform);
/// # Ok::<(), rcb_core::ParamsError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundSchedule {
    k: u32,
    start_round: u32,
    max_round: u32,
    /// `round_starts[j]` = first global slot of round `start_round + j`.
    round_starts: Vec<u64>,
}

impl RoundSchedule {
    /// Builds the schedule for a parameter set.
    #[must_use]
    pub fn new(params: &Params) -> Self {
        Self::with_shape(params.k(), params.start_round(), params.max_round())
    }

    /// Builds a schedule from raw shape values (used by baselines/tests).
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`, `start_round < 1`, `max_round < start_round`, or
    /// the schedule would overflow `u64` slot indices.
    #[must_use]
    pub fn with_shape(k: u32, start_round: u32, max_round: u32) -> Self {
        assert!(k >= 2, "k must be at least 2");
        assert!(start_round >= 1, "rounds are 1-based");
        assert!(max_round >= start_round, "empty schedule");
        assert!(
            phase_exponent(k) * f64::from(max_round) < 62.0,
            "schedule would overflow u64 slots"
        );
        let mut round_starts = Vec::with_capacity((max_round - start_round + 2) as usize);
        let mut acc = 0u64;
        for i in start_round..=max_round {
            round_starts.push(acc);
            acc += Self::round_len_static(k, i);
        }
        round_starts.push(acc); // sentinel: one past the last round
        Self {
            k,
            start_round,
            max_round,
            round_starts,
        }
    }

    /// The budget exponent `k` this schedule was built for.
    #[must_use]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// First round index.
    #[must_use]
    pub fn start_round(&self) -> u32 {
        self.start_round
    }

    /// Last provisioned round index.
    #[must_use]
    pub fn max_round(&self) -> u32 {
        self.max_round
    }

    /// Phase length in round `i`: `⌈2^{(1+1/k)·i}⌉`.
    #[must_use]
    pub fn phase_len(&self, i: u32) -> u64 {
        phase_len_static(self.k, i)
    }

    /// Total length of round `i`: `(k+1)` phases.
    #[must_use]
    pub fn round_len(&self, i: u32) -> u64 {
        Self::round_len_static(self.k, i)
    }

    fn round_len_static(k: u32, i: u32) -> u64 {
        (u64::from(k) + 1) * phase_len_static(k, i)
    }

    /// First global slot of round `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside `start_round..=max_round`.
    #[must_use]
    pub fn round_start(&self, i: u32) -> u64 {
        assert!(
            (self.start_round..=self.max_round).contains(&i),
            "round {i} outside schedule"
        );
        self.round_starts[(i - self.start_round) as usize]
    }

    /// One past the last slot of the schedule.
    #[must_use]
    pub fn total_slots(&self) -> u64 {
        *self.round_starts.last().expect("sentinel always present")
    }

    /// Maps a global slot index to its schedule position.
    ///
    /// Slots beyond the last provisioned round are reported as belonging to
    /// the final round's request phase (the protocol has effectively ended;
    /// orchestration caps runs at [`total_slots`](Self::total_slots)).
    #[must_use]
    pub fn locate(&self, slot: u64) -> SlotPosition {
        if slot >= self.total_slots() {
            let i = self.max_round;
            let len = self.phase_len(i);
            return SlotPosition {
                round: i,
                phase: PhaseKind::Request,
                offset: len - 1,
                phase_len: len,
            };
        }
        // Binary search over round starts.
        let j = match self.round_starts.binary_search(&slot) {
            Ok(j) => j,
            Err(j) => j - 1,
        };
        let i = self.start_round + j as u32;
        let within = slot - self.round_starts[j];
        // A round is k + 1 phases of one length, so that length divides
        // out of the round's span without `phase_len`'s `powf`: the phase
        // jammers locate every phase they plan.
        let len = (self.round_starts[j + 1] - self.round_starts[j]) / (u64::from(self.k) + 1);
        let phase_idx = (within / len) as u32;
        let offset = within % len;
        let phase = if phase_idx == 0 {
            PhaseKind::Inform
        } else if phase_idx < self.k {
            PhaseKind::Propagation { step: phase_idx }
        } else {
            PhaseKind::Request
        };
        SlotPosition {
            round: i,
            phase,
            offset,
            phase_len: len,
        }
    }

    /// Iterates `(round, phase, phase_len)` over the whole schedule, in
    /// execution order — the fast simulator's driving loop.
    pub fn phases(&self) -> impl Iterator<Item = (u32, PhaseKind, u64)> + '_ {
        (self.start_round..=self.max_round).flat_map(move |i| {
            let len = self.phase_len(i);
            (0..=self.k).map(move |ordinal| {
                let phase = if ordinal == 0 {
                    PhaseKind::Inform
                } else if ordinal < self.k {
                    PhaseKind::Propagation { step: ordinal }
                } else {
                    PhaseKind::Request
                };
                (i, phase, len)
            })
        })
    }
}

/// The phase-length exponent `1 + 1/k`.
#[must_use]
pub fn phase_exponent(k: u32) -> f64 {
    1.0 + 1.0 / f64::from(k)
}

fn phase_len_static(k: u32, i: u32) -> u64 {
    2f64.powf(phase_exponent(k) * f64::from(i)).ceil() as u64
}

/// An O(1)-per-slot cursor through the schedule, for protocol state
/// machines that are driven one slot at a time.
///
/// [`Cursor::advance`] must be called exactly once per consecutive slot,
/// starting from slot 0.
#[derive(Debug, Clone)]
pub struct Cursor {
    schedule: RoundSchedule,
    round: u32,
    phase_ordinal: u32,
    offset: u64,
    phase_len: u64,
    exhausted: bool,
}

impl Cursor {
    /// Creates a cursor positioned before slot 0.
    #[must_use]
    pub fn new(schedule: RoundSchedule) -> Self {
        let round = schedule.start_round();
        let phase_len = schedule.phase_len(round);
        Self {
            schedule,
            round,
            phase_ordinal: 0,
            offset: 0,
            phase_len,
            exhausted: false,
        }
    }

    /// Rewinds the cursor to before slot 0 without rebuilding the
    /// schedule — the allocation-free counterpart of [`Cursor::new`],
    /// used when a protocol state machine is reset between batched runs.
    pub fn reset(&mut self) {
        self.round = self.schedule.start_round();
        self.phase_ordinal = 0;
        self.offset = 0;
        self.phase_len = self.schedule.phase_len(self.round);
        self.exhausted = false;
    }

    /// Advances to the next slot and returns its position.
    ///
    /// After the schedule's final slot, keeps returning the final request
    /// phase's last slot (matching [`RoundSchedule::locate`]).
    pub fn advance(&mut self) -> SlotPosition {
        let pos = SlotPosition {
            round: self.round,
            phase: self.phase_kind(),
            offset: self.offset,
            phase_len: self.phase_len,
        };
        self.step_forward();
        pos
    }

    fn phase_kind(&self) -> PhaseKind {
        let k = self.schedule.k();
        if self.phase_ordinal == 0 {
            PhaseKind::Inform
        } else if self.phase_ordinal < k {
            PhaseKind::Propagation {
                step: self.phase_ordinal,
            }
        } else {
            PhaseKind::Request
        }
    }

    fn step_forward(&mut self) {
        if self.exhausted {
            return;
        }
        self.offset += 1;
        if self.offset < self.phase_len {
            return;
        }
        self.offset = 0;
        self.phase_ordinal += 1;
        if self.phase_ordinal <= self.schedule.k() {
            return;
        }
        self.phase_ordinal = 0;
        if self.round < self.schedule.max_round() {
            self.round += 1;
            self.phase_len = self.schedule.phase_len(self.round);
        } else {
            // Pin to the final slot.
            self.phase_ordinal = self.schedule.k();
            self.offset = self.phase_len - 1;
            self.exhausted = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(n: u64, k: u32) -> RoundSchedule {
        let params = Params::builder(n).k(k).build().unwrap();
        RoundSchedule::new(&params)
    }

    #[test]
    fn phase_lengths_match_formula() {
        let s = sched(256, 2);
        // k=2 → exponent 1.5; round 2 → 2^3 = 8; round 4 → 2^6 = 64.
        assert_eq!(s.phase_len(2), 8);
        assert_eq!(s.phase_len(4), 64);
        // k=3 → exponent 4/3; round 3 → 2^4 = 16, round 6 → 2^8 = 256.
        let s3 = sched(256, 3);
        assert_eq!(s3.phase_len(3), 16);
        assert_eq!(s3.phase_len(6), 256);
        // Non-integer exponents round up.
        assert_eq!(s.phase_len(1), 3); // 2^1.5 ≈ 2.83 → 3
    }

    #[test]
    fn round_len_counts_k_plus_one_phases() {
        let s = sched(256, 2);
        assert_eq!(s.round_len(4), 3 * 64);
        let s3 = sched(256, 3);
        assert_eq!(s3.round_len(3), 4 * 16);
    }

    #[test]
    fn round_starts_accumulate() {
        let s = sched(256, 2);
        assert_eq!(s.round_start(1), 0);
        assert_eq!(s.round_start(2), s.round_len(1));
        assert_eq!(s.round_start(3), s.round_len(1) + s.round_len(2));
        let total: u64 = (1..=s.max_round()).map(|i| s.round_len(i)).sum();
        assert_eq!(s.total_slots(), total);
    }

    #[test]
    fn locate_walks_phases_in_order() {
        let s = sched(256, 3);
        // Round 1, k=3: phase_len = ceil(2^{4/3}) = 3; phases Inform,
        // Prop1, Prop2, Request each 3 slots.
        assert_eq!(s.phase_len(1), 3);
        let kinds: Vec<PhaseKind> = (0..12).map(|t| s.locate(t).phase).collect();
        assert_eq!(kinds[0..3], [PhaseKind::Inform; 3]);
        assert_eq!(kinds[3..6], [PhaseKind::Propagation { step: 1 }; 3]);
        assert_eq!(kinds[6..9], [PhaseKind::Propagation { step: 2 }; 3]);
        assert_eq!(kinds[9..12], [PhaseKind::Request; 3]);
        assert_eq!(s.locate(12).round, 2);
    }

    #[test]
    fn locate_reports_offsets_and_boundaries() {
        let s = sched(256, 2);
        let pos = s.locate(0);
        assert!(pos.is_phase_start());
        assert!(!pos.is_phase_end());
        let last_of_inform_r1 = s.phase_len(1) - 1;
        assert!(s.locate(last_of_inform_r1).is_phase_end());
    }

    #[test]
    fn locate_beyond_schedule_pins_to_final_request() {
        let s = sched(64, 2);
        let beyond = s.locate(s.total_slots() + 1_000_000);
        assert_eq!(beyond.round, s.max_round());
        assert_eq!(beyond.phase, PhaseKind::Request);
        assert!(beyond.is_phase_end());
    }

    #[test]
    fn cursor_agrees_with_locate_exhaustively() {
        let s = sched(64, 3);
        let mut cursor = Cursor::new(s.clone());
        for slot in 0..s.total_slots() + 10 {
            let from_cursor = cursor.advance();
            let from_locate = s.locate(slot);
            assert_eq!(from_cursor, from_locate, "mismatch at slot {slot}");
        }
    }

    #[test]
    fn phases_iterator_covers_schedule() {
        let s = sched(64, 2);
        let total: u64 = s.phases().map(|(_, _, len)| len).sum();
        assert_eq!(total, s.total_slots());
        let first: Vec<_> = s.phases().take(3).collect();
        assert_eq!(first[0].1, PhaseKind::Inform);
        assert_eq!(first[1].1, PhaseKind::Propagation { step: 1 });
        assert_eq!(first[2].1, PhaseKind::Request);
    }

    #[test]
    fn phase_ordinals() {
        assert_eq!(PhaseKind::Inform.ordinal(3), 0);
        assert_eq!(PhaseKind::Propagation { step: 2 }.ordinal(3), 2);
        assert_eq!(PhaseKind::Request.ordinal(3), 3);
    }

    #[test]
    #[should_panic(expected = "outside schedule")]
    fn round_start_bounds_checked() {
        let s = sched(64, 2);
        let _ = s.round_start(0);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_guard() {
        let _ = RoundSchedule::with_shape(2, 1, 60);
    }
}
