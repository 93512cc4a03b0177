//! Energy accounting: budgets, meters, and the ledger.
//!
//! Energy is *the* resource in resource-competitive analysis: the paper's
//! guarantees are statements about how much each side spends. The ledger
//! enforces budgets strictly — a correct node whose budget is exhausted
//! sleeps (the engine notifies its protocol), and a broke Carol's jam
//! directives fizzle, which is precisely how the protocol eventually
//! reaches an unblockable round (Lemma 11).

use std::fmt;

use crate::spectrum::{ChannelId, Spectrum};

/// An energy budget: a cap on total units spendable, or unlimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget(Option<u64>);

impl Budget {
    /// A budget of `units`.
    #[must_use]
    pub const fn limited(units: u64) -> Self {
        Budget(Some(units))
    }

    /// No cap.
    #[must_use]
    pub const fn unlimited() -> Self {
        Budget(None)
    }

    /// The cap, if any.
    #[must_use]
    pub const fn cap(self) -> Option<u64> {
        self.0
    }

    /// Whether `spent + 1` would exceed this budget.
    #[must_use]
    pub fn allows(self, spent: u64) -> bool {
        match self.0 {
            None => true,
            Some(cap) => spent < cap,
        }
    }
}

impl fmt::Display for Budget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            None => write!(f, "∞"),
            Some(cap) => write!(f, "{cap}"),
        }
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

/// The chargeable operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Transmitting a frame.
    Send,
    /// Receiving for one slot.
    Listen,
    /// Jamming one slot (adversary only).
    Jam,
}

/// Result of a charge attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChargeOutcome {
    /// The unit was charged.
    Charged,
    /// The budget is exhausted; the operation must not take effect.
    Refused,
}

impl ChargeOutcome {
    /// Whether the charge went through.
    #[must_use]
    pub fn is_charged(self) -> bool {
        matches!(self, ChargeOutcome::Charged)
    }
}

/// Per-participant spend, broken down by operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostBreakdown {
    /// Units spent transmitting.
    pub sends: u64,
    /// Units spent listening.
    pub listens: u64,
    /// Units spent jamming (zero for correct participants).
    pub jams: u64,
}

impl CostBreakdown {
    /// Total units spent.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.sends + self.listens + self.jams
    }

    /// Adds another breakdown (for pooling Byzantine devices).
    pub fn absorb(&mut self, other: &CostBreakdown) {
        self.sends += other.sends;
        self.listens += other.listens;
        self.jams += other.jams;
    }
}

impl fmt::Display for CostBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} units (send {}, listen {}, jam {})",
            self.total(),
            self.sends,
            self.listens,
            self.jams
        )
    }
}

/// A single participant's meter: budget plus running breakdown.
#[derive(Debug, Clone, Copy, Default)]
struct Meter {
    budget: Budget,
    spent: CostBreakdown,
    refusals: u64,
}

impl Meter {
    fn try_charge(&mut self, op: Op) -> ChargeOutcome {
        if !self.budget.allows(self.spent.total()) {
            self.refusals += 1;
            return ChargeOutcome::Refused;
        }
        match op {
            Op::Send => self.spent.sends += 1,
            Op::Listen => self.spent.listens += 1,
            Op::Jam => self.spent.jams += 1,
        }
        ChargeOutcome::Charged
    }

    /// Charges up to `count` units of `op` in one step, returning how many
    /// were granted; the shortfall is recorded as refusals one-for-one.
    fn try_charge_many(&mut self, op: Op, count: u64) -> u64 {
        let granted = match self.budget.cap() {
            None => count,
            Some(cap) => cap.saturating_sub(self.spent.total()).min(count),
        };
        match op {
            Op::Send => self.spent.sends += granted,
            Op::Listen => self.spent.listens += granted,
            Op::Jam => self.spent.jams += granted,
        }
        self.refusals += count - granted;
        granted
    }
}

/// The simulation's energy ledger: one meter per correct participant plus
/// Carol's pooled meter, with per-channel spend breakdowns on both sides.
///
/// Budgets are pooled across channels (energy is energy), but every
/// charge names the channel it lands on, so "making evildoers pay"
/// accounting survives the multi-channel split: after a run,
/// [`carol_channel_spend`](Self::carol_channel_spend) shows exactly how
/// her budget was divided across the spectrum. The channel-less
/// [`charge_participant`](Self::charge_participant) /
/// [`charge_carol`](Self::charge_carol) shims land on
/// [`ChannelId::ZERO`].
///
/// # Example
///
/// ```
/// use rcb_radio::{Budget, EnergyLedger, Op, ParticipantId};
///
/// let mut ledger = EnergyLedger::new(vec![Budget::limited(2)], Budget::limited(1));
/// let p = ParticipantId::new(0);
/// assert!(ledger.charge_participant(p, Op::Listen).is_charged());
/// assert!(ledger.charge_participant(p, Op::Send).is_charged());
/// assert!(!ledger.charge_participant(p, Op::Send).is_charged()); // broke
/// assert!(ledger.charge_carol(Op::Jam).is_charged());
/// assert!(!ledger.charge_carol(Op::Jam).is_charged()); // Carol broke too
/// ```
#[derive(Debug, Clone)]
pub struct EnergyLedger {
    participants: Vec<Meter>,
    carol: Meter,
    spectrum: Spectrum,
    /// Aggregate correct-side spend per channel (all participants pooled).
    correct_by_channel: Vec<CostBreakdown>,
    /// Carol's spend per channel.
    carol_by_channel: Vec<CostBreakdown>,
}

impl Default for EnergyLedger {
    /// An empty single-channel ledger (no participants, unlimited Carol) —
    /// the placeholder state scratch holders start from before the first
    /// [`reset_on`](Self::reset_on).
    fn default() -> Self {
        Self::from_budgets_on(&[], Budget::unlimited(), Spectrum::single())
    }
}

impl EnergyLedger {
    /// Creates a single-channel ledger with the given per-participant
    /// budgets and Carol's pooled budget.
    #[must_use]
    pub fn new(participant_budgets: Vec<Budget>, carol_budget: Budget) -> Self {
        Self::from_budgets(&participant_budgets, carol_budget)
    }

    /// Like [`new`](Self::new), but borrowing the budgets — callers that
    /// keep a budget vector alive across runs (batched trials) build each
    /// run's ledger without an intermediate copy of it.
    #[must_use]
    pub fn from_budgets(participant_budgets: &[Budget], carol_budget: Budget) -> Self {
        Self::from_budgets_on(participant_budgets, carol_budget, Spectrum::single())
    }

    /// A ledger accounting over an explicit [`Spectrum`].
    #[must_use]
    pub fn from_budgets_on(
        participant_budgets: &[Budget],
        carol_budget: Budget,
        spectrum: Spectrum,
    ) -> Self {
        let channels = spectrum.channel_count() as usize;
        Self {
            participants: participant_budgets
                .iter()
                .map(|&budget| Meter {
                    budget,
                    ..Meter::default()
                })
                .collect(),
            carol: Meter {
                budget: carol_budget,
                ..Meter::default()
            },
            spectrum,
            correct_by_channel: vec![CostBreakdown::default(); channels],
            carol_by_channel: vec![CostBreakdown::default(); channels],
        }
    }

    /// Rewinds this ledger to the pre-run state of
    /// [`from_budgets_on`](Self::from_budgets_on) **in place**: meters and
    /// per-channel tables are rebuilt inside their existing allocations.
    /// This is the batched-trials path — one ledger per worker, reset per
    /// trial, zero allocation after the first run at a given shape.
    pub fn reset_on(
        &mut self,
        participant_budgets: &[Budget],
        carol_budget: Budget,
        spectrum: Spectrum,
    ) {
        self.participants.clear();
        self.participants
            .extend(participant_budgets.iter().map(|&budget| Meter {
                budget,
                ..Meter::default()
            }));
        self.carol = Meter {
            budget: carol_budget,
            ..Meter::default()
        };
        self.spectrum = spectrum;
        let channels = spectrum.channel_count() as usize;
        self.correct_by_channel.clear();
        self.correct_by_channel
            .resize(channels, CostBreakdown::default());
        self.carol_by_channel.clear();
        self.carol_by_channel
            .resize(channels, CostBreakdown::default());
    }

    /// Number of correct participants tracked.
    #[must_use]
    pub fn participant_count(&self) -> usize {
        self.participants.len()
    }

    /// The spectrum this ledger accounts over.
    #[must_use]
    pub fn spectrum(&self) -> Spectrum {
        self.spectrum
    }

    /// Attempts to charge one unit to a correct participant, on channel 0.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this ledger.
    pub fn charge_participant(&mut self, id: impl ParticipantIdLike, op: Op) -> ChargeOutcome {
        self.charge_participant_on(id, op, ChannelId::ZERO)
    }

    /// Attempts to charge one unit to a correct participant for an
    /// operation on `channel`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range, or `channel` is outside the
    /// ledger's spectrum.
    pub fn charge_participant_on(
        &mut self,
        id: impl ParticipantIdLike,
        op: Op,
        channel: ChannelId,
    ) -> ChargeOutcome {
        let idx = id.into_index();
        let outcome = self.participants[idx].try_charge(op);
        if outcome.is_charged() {
            charge_channel(&mut self.correct_by_channel, channel, op, 1);
        }
        outcome
    }

    /// Bulk-charges `count` units of `op` to a correct participant on
    /// `channel` in one call, returning how many units were actually
    /// charged.
    ///
    /// This is the era-2 engine's settlement path: a sleep-skipping run
    /// defers a dormant node's provably-inert listens and charges the
    /// binomially-sampled total here when the node leaves the dormant
    /// pool. Budget enforcement matches the unit path in aggregate — up
    /// to the remaining budget is granted and every unit beyond it is
    /// recorded as a refusal — though *which* of an interleaved
    /// sequence's units get refused is coarser than charging one at a
    /// time (the gossip workloads that use this run nodes on unlimited
    /// budgets, where the two are indistinguishable).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range, or `channel` is outside the
    /// ledger's spectrum.
    pub fn charge_participant_many_on(
        &mut self,
        id: impl ParticipantIdLike,
        op: Op,
        count: u64,
        channel: ChannelId,
    ) -> u64 {
        let idx = id.into_index();
        let granted = self.participants[idx].try_charge_many(op, count);
        charge_channel(&mut self.correct_by_channel, channel, op, granted);
        granted
    }

    /// Attempts to charge one unit to Carol's pool, on channel 0.
    pub fn charge_carol(&mut self, op: Op) -> ChargeOutcome {
        self.charge_carol_on(op, ChannelId::ZERO)
    }

    /// Attempts to charge one unit to Carol's pool for an operation on
    /// `channel`.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is outside the ledger's spectrum.
    pub fn charge_carol_on(&mut self, op: Op, channel: ChannelId) -> ChargeOutcome {
        let outcome = self.carol.try_charge(op);
        if outcome.is_charged() {
            charge_channel(&mut self.carol_by_channel, channel, op, 1);
        }
        outcome
    }

    /// Charges up to `count` units of `op` to Carol's pool on `channel`
    /// in one call, returning how many were granted: the bulk form of
    /// [`charge_carol_on`](Self::charge_carol_on), for a driver that
    /// settles a stretch of her committed jams at once (the shortfall
    /// counts as refusals).
    ///
    /// # Panics
    ///
    /// Panics if `channel` is outside the ledger's spectrum.
    pub(crate) fn charge_carol_many_on(&mut self, op: Op, count: u64, channel: ChannelId) -> u64 {
        let granted = self.carol.try_charge_many(op, count);
        charge_channel(&mut self.carol_by_channel, channel, op, granted);
        granted
    }

    /// A participant's spend so far.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn participant_spend(&self, id: impl ParticipantIdLike) -> CostBreakdown {
        self.participants[id.into_index()].spent
    }

    /// How many operations a participant had refused for lack of budget.
    #[must_use]
    pub fn participant_refusals(&self, id: impl ParticipantIdLike) -> u64 {
        self.participants[id.into_index()].refusals
    }

    /// Carol's pooled spend so far.
    #[must_use]
    pub fn carol_spend(&self) -> CostBreakdown {
        self.carol.spent
    }

    /// Carol's remaining budget, if capped.
    #[must_use]
    pub fn carol_remaining(&self) -> Option<u64> {
        self.carol
            .budget
            .cap()
            .map(|cap| cap.saturating_sub(self.carol.spent.total()))
    }

    /// Snapshot of every participant's spend.
    #[must_use]
    pub fn all_participant_spend(&self) -> Vec<CostBreakdown> {
        self.participants.iter().map(|m| m.spent).collect()
    }

    /// Aggregate correct-side spend per channel (index = channel index).
    #[must_use]
    pub fn correct_channel_spend(&self) -> &[CostBreakdown] {
        &self.correct_by_channel
    }

    /// Carol's spend per channel (index = channel index) — how her
    /// budget was split across the spectrum.
    #[must_use]
    pub fn carol_channel_spend(&self) -> &[CostBreakdown] {
        &self.carol_by_channel
    }
}

/// Records `units` granted charges in a per-channel breakdown table.
fn charge_channel(table: &mut [CostBreakdown], channel: ChannelId, op: Op, units: u64) {
    let entry = &mut table[channel.index() as usize];
    match op {
        Op::Send => entry.sends += units,
        Op::Listen => entry.listens += units,
        Op::Jam => entry.jams += units,
    }
}

/// Anything convertible to a roster index (lets the ledger be used with
/// either raw indices or [`crate::ParticipantId`]).
pub trait ParticipantIdLike: Copy {
    /// The roster index.
    fn into_index(self) -> usize;
}

impl ParticipantIdLike for usize {
    fn into_index(self) -> usize {
        self
    }
}

impl ParticipantIdLike for crate::participant::ParticipantId {
    fn into_index(self) -> usize {
        self.index() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::participant::ParticipantId;

    #[test]
    fn budget_semantics() {
        assert!(Budget::unlimited().allows(u64::MAX - 1));
        assert!(Budget::limited(3).allows(2));
        assert!(!Budget::limited(3).allows(3));
        assert_eq!(Budget::limited(3).cap(), Some(3));
        assert_eq!(Budget::unlimited().to_string(), "∞");
        assert_eq!(Budget::limited(5).to_string(), "5");
    }

    #[test]
    fn breakdown_totals_and_absorb() {
        let mut a = CostBreakdown {
            sends: 1,
            listens: 2,
            jams: 0,
        };
        let b = CostBreakdown {
            sends: 0,
            listens: 5,
            jams: 7,
        };
        a.absorb(&b);
        assert_eq!(a.total(), 15);
        assert_eq!(a.listens, 7);
        assert_eq!(a.jams, 7);
    }

    #[test]
    fn ledger_enforces_participant_budget() {
        let mut ledger = EnergyLedger::new(vec![Budget::limited(2)], Budget::unlimited());
        let p = ParticipantId::new(0);
        assert!(ledger.charge_participant(p, Op::Listen).is_charged());
        assert!(ledger.charge_participant(p, Op::Listen).is_charged());
        assert!(!ledger.charge_participant(p, Op::Listen).is_charged());
        assert_eq!(ledger.participant_spend(p).total(), 2);
        assert_eq!(ledger.participant_refusals(p), 1);
    }

    #[test]
    fn ledger_enforces_carol_budget() {
        let mut ledger = EnergyLedger::new(vec![], Budget::limited(2));
        assert!(ledger.charge_carol(Op::Jam).is_charged());
        assert_eq!(ledger.carol_remaining(), Some(1));
        assert!(ledger.charge_carol(Op::Send).is_charged());
        assert!(!ledger.charge_carol(Op::Jam).is_charged());
        assert_eq!(ledger.carol_spend().total(), 2);
        assert_eq!(ledger.carol_spend().jams, 1);
        assert_eq!(ledger.carol_spend().sends, 1);
        assert_eq!(ledger.carol_remaining(), Some(0));
    }

    #[test]
    fn unlimited_budget_never_refuses() {
        let mut ledger = EnergyLedger::new(vec![Budget::unlimited()], Budget::unlimited());
        for _ in 0..10_000 {
            assert!(ledger.charge_participant(0usize, Op::Send).is_charged());
        }
        assert_eq!(ledger.participant_spend(0usize).sends, 10_000);
    }

    #[test]
    fn per_channel_breakdowns_track_where_energy_lands() {
        let mut ledger = EnergyLedger::from_budgets_on(
            &[Budget::unlimited()],
            Budget::limited(3),
            Spectrum::new(3),
        );
        assert_eq!(ledger.spectrum().channel_count(), 3);
        let c0 = ChannelId::new(0);
        let c2 = ChannelId::new(2);
        assert!(ledger
            .charge_participant_on(0usize, Op::Listen, c2)
            .is_charged());
        assert!(ledger.charge_carol_on(Op::Jam, c0).is_charged());
        assert!(ledger.charge_carol_on(Op::Jam, c2).is_charged());
        assert!(ledger.charge_carol_on(Op::Send, c2).is_charged());
        // Pool is now exhausted: the refused charge must not leak into
        // the per-channel table.
        assert!(!ledger.charge_carol_on(Op::Jam, c0).is_charged());
        assert_eq!(ledger.correct_channel_spend()[2].listens, 1);
        assert_eq!(ledger.correct_channel_spend()[0].total(), 0);
        assert_eq!(ledger.carol_channel_spend()[0].jams, 1);
        assert_eq!(ledger.carol_channel_spend()[2].jams, 1);
        assert_eq!(ledger.carol_channel_spend()[2].sends, 1);
        // Per-channel totals reconcile with the pooled meter.
        let by_channel: u64 = ledger
            .carol_channel_spend()
            .iter()
            .map(CostBreakdown::total)
            .sum();
        assert_eq!(by_channel, ledger.carol_spend().total());
    }

    #[test]
    fn channel_zero_shims_are_the_single_channel_path() {
        let mut ledger = EnergyLedger::new(vec![Budget::unlimited()], Budget::unlimited());
        assert!(ledger.charge_participant(0usize, Op::Send).is_charged());
        assert!(ledger.charge_carol(Op::Jam).is_charged());
        assert_eq!(ledger.correct_channel_spend().len(), 1);
        assert_eq!(ledger.correct_channel_spend()[0].sends, 1);
        assert_eq!(ledger.carol_channel_spend()[0].jams, 1);
    }

    #[test]
    fn bulk_charge_matches_unit_charges_in_aggregate() {
        let mut unit = EnergyLedger::from_budgets_on(
            &[Budget::limited(5)],
            Budget::unlimited(),
            Spectrum::new(2),
        );
        let mut bulk = unit.clone();
        let ch = ChannelId::new(1);
        for _ in 0..8 {
            let _ = unit.charge_participant_on(0usize, Op::Listen, ch);
        }
        let granted = bulk.charge_participant_many_on(0usize, Op::Listen, 8, ch);
        assert_eq!(granted, 5);
        assert_eq!(
            unit.participant_spend(0usize),
            bulk.participant_spend(0usize)
        );
        assert_eq!(
            unit.participant_refusals(0usize),
            bulk.participant_refusals(0usize)
        );
        assert_eq!(unit.correct_channel_spend(), bulk.correct_channel_spend());
        // Unlimited budgets grant everything, touching only the named
        // channel.
        let mut free = EnergyLedger::from_budgets_on(
            &[Budget::unlimited()],
            Budget::unlimited(),
            Spectrum::new(2),
        );
        assert_eq!(
            free.charge_participant_many_on(0usize, Op::Listen, 1_000, ch),
            1_000
        );
        assert_eq!(free.correct_channel_spend()[1].listens, 1_000);
        assert_eq!(free.correct_channel_spend()[0].total(), 0);
        assert_eq!(free.participant_refusals(0usize), 0);
    }

    #[test]
    fn independent_meters() {
        let mut ledger = EnergyLedger::new(
            vec![Budget::limited(1), Budget::limited(1)],
            Budget::unlimited(),
        );
        assert!(ledger.charge_participant(0usize, Op::Send).is_charged());
        // Participant 0 being broke must not affect participant 1.
        assert!(!ledger.charge_participant(0usize, Op::Send).is_charged());
        assert!(ledger.charge_participant(1usize, Op::Send).is_charged());
    }
}
