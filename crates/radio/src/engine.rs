//! The exact slot engine's shared core — ground truth for the whole
//! workspace.
//!
//! Every exact driver (the gossip driver in [`crate::soa`], and the
//! ε-BROADCAST and KPSY drivers downstream) parks its devices in a
//! [`WakeQueue`](crate::WakeQueue) and touches only those that act in a
//! slot. What happens on the air is the same for all of them and lives
//! here, once: a [`Medium`] collects the slot's charged sends and
//! listens, [`Medium::carol_turn`] runs the adversary's step and the
//! per-(listener, channel) resolution — transmissions are grouped by
//! channel first, so each listener's resolution touches only its own
//! channel's bucket (n-uniform semantics within a channel, total
//! isolation across channels) — and [`Medium::report`] assembles the
//! [`RunReport`]. Every radio operation is charged against the
//! [`EnergyLedger`] with per-channel attribution.

use crate::adversary::{Adversary, AdversaryCtx, SlotObservation};
use crate::channel::{resolve_for_listener_on, ChannelLoad, JamDirective, JamPlan};
use crate::energy::{Budget, CostBreakdown, EnergyLedger, Op};
use crate::message::{Payload, PayloadKind};
use crate::participant::{ParticipantId, Reception};
use crate::slot::Slot;
use crate::spectrum::{ChannelId, Spectrum};
use crate::trace::{SlotRecord, Trace};

/// Per-channel activity and spend tallies for one run.
///
/// Index-aligned with the spectrum's channels in
/// [`RunReport::channel_stats`]; the breakdown is what lets experiments
/// show how a jammer's budget was split across channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChannelStats {
    /// Frames sent by correct participants on this channel.
    pub correct_sends: u64,
    /// Listen operations by correct participants on this channel.
    pub correct_listens: u64,
    /// Byzantine frames Carol aired on this channel.
    pub byz_sends: u64,
    /// Slots in which Carol's jam executed on this channel.
    pub jammed_slots: u64,
    /// Clean frame receptions on this channel.
    pub delivered: u64,
}

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Every participant terminated its protocol.
    AllTerminated,
    /// The driver's slot cap was reached first.
    SlotCapReached,
}

/// Everything measured during a run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Number of slots simulated.
    pub slots_elapsed: u64,
    /// Why the run stopped.
    pub stop_reason: StopReason,
    /// Per-participant spend (index-aligned with the roster).
    pub participant_costs: Vec<CostBreakdown>,
    /// Per-participant count of operations refused for lack of budget.
    pub participant_refusals: Vec<u64>,
    /// Carol's pooled spend.
    pub carol_cost: CostBreakdown,
    /// Per-participant informed flags at the end of the run.
    pub informed: Vec<bool>,
    /// Per-participant terminated flags at the end of the run.
    pub terminated: Vec<bool>,
    /// Slots in which Carol's jam executed (on at least one channel).
    pub jammed_slots: u64,
    /// Slots containing at least one transmission or an executed jam.
    pub noisy_slots: u64,
    /// Per-channel activity/spend tallies, index-aligned with the
    /// spectrum's channels (a single entry in the single-channel model).
    pub channel_stats: Vec<ChannelStats>,
    /// Optional slot trace (empty if tracing was disabled).
    pub trace: Trace,
}

/// The shared air of one exact run: the slot's charged traffic, Carol's
/// executed plan, the energy ledger, and the run-long tallies behind the
/// [`RunReport`].
///
/// A driver shapes it with [`reset`](Self::reset); then, for every slot,
/// commits its woken devices through [`send`](Self::send) and
/// [`listen`](Self::listen) (in roster order) and hands the slot to
/// [`carol_turn`](Self::carol_turn). A driver that draws a device's
/// actions ahead of their slots charges them first
/// ([`charge`](Self::charge)) and airs the charged ones in their slots
/// ([`air_send`](Self::air_send), [`air_listener`](Self::air_listener)).
/// A driver that settles a stretch of slots without Carol's turn, because
/// nobody listens in it and her moves are known (her pool is spent, or
/// she made a [`Commitment`](crate::Commitment)), charges her jams with
/// [`charge_committed_jam`](Self::charge_committed_jam).
/// [`report`](Self::report) closes the run. Held in a driver's scratch,
/// it allocates nothing per run but the report once warm.
#[derive(Debug, Default)]
pub struct Medium {
    /// Every correct participant's and Carol's spend.
    pub(crate) ledger: EnergyLedger,
    /// The slot's airing frames, grouped by channel.
    pub(crate) load: ChannelLoad,
    /// Carol's jam as executed this slot (budget permitting).
    pub(crate) jam: JamPlan,
    /// The slot's charged correct transmissions, in roster order.
    correct_sends: Vec<(ParticipantId, ChannelId, PayloadKind)>,
    /// The slot's charged listeners, in roster order.
    listeners: Vec<(ParticipantId, ChannelId)>,
    /// Listeners that heard a clean frame this slot.
    delivered: Vec<(ParticipantId, ChannelId)>,
    jammed_channels: Vec<ChannelId>,
    delivered_by_channel: Vec<u64>,
    jammed_slots: u64,
    noisy_slots: u64,
    spectrum: Spectrum,
    trace_capacity: usize,
    trace: Trace,
}

impl Medium {
    /// Creates an empty medium; [`reset`](Self::reset) shapes it.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-shapes the medium in place for a run of `budgets.len()`
    /// participants on `spectrum`, retaining at most `trace_capacity`
    /// slot records (0 disables tracing).
    pub fn reset(
        &mut self,
        budgets: &[Budget],
        carol_budget: Budget,
        spectrum: Spectrum,
        trace_capacity: usize,
    ) {
        self.ledger.reset_on(budgets, carol_budget, spectrum);
        self.load.reset_for(spectrum);
        self.clear_slot();
        self.delivered_by_channel.clear();
        self.delivered_by_channel
            .resize(spectrum.channel_count() as usize, 0);
        self.jammed_slots = 0;
        self.noisy_slots = 0;
        self.spectrum = spectrum;
        self.trace_capacity = trace_capacity;
        self.trace = Trace::with_capacity(trace_capacity);
    }

    /// Charges participant `node` one send on `channel`; if its budget
    /// allows, `payload` airs (a refused send is simply not heard).
    #[inline]
    pub fn send(&mut self, node: u32, channel: ChannelId, payload: Payload) {
        if self.charge(node, channel, Op::Send) {
            self.air_send(node, channel, payload);
        }
    }

    /// Charges participant `node` one listen on `channel`; if its budget
    /// allows, it joins the slot's listeners.
    #[inline]
    pub fn listen(&mut self, node: u32, channel: ChannelId) {
        if self.charge(node, channel, Op::Listen) {
            self.air_listener(node, channel);
        }
    }

    /// Charges participant `node` one `op` on `channel` without putting
    /// it on the air; returns whether its budget allowed it. A driver
    /// that knows a device's actions ahead of their slots charges them
    /// here, in the device's own time order, and airs the charged ones
    /// in their slots through [`air_send`](Self::air_send) and
    /// [`air_listener`](Self::air_listener). Each participant's budget
    /// is its own, so charging device by device rather than slot by
    /// slot grants and refuses the same operations.
    #[inline]
    pub fn charge(&mut self, node: u32, channel: ChannelId, op: Op) -> bool {
        self.ledger
            .charge_participant_on(node as usize, op, channel)
            .is_charged()
    }

    /// Airs a send that [`charge`](Self::charge) already granted.
    #[inline]
    pub fn air_send(&mut self, node: u32, channel: ChannelId, payload: Payload) {
        self.correct_sends
            .push((ParticipantId::new(node), channel, payload.kind()));
        self.load.push(channel, payload);
    }

    /// Adds a listen that [`charge`](Self::charge) already granted to
    /// the slot's listeners.
    #[inline]
    pub fn air_listener(&mut self, node: u32, channel: ChannelId) {
        self.listeners.push((ParticipantId::new(node), channel));
    }

    /// Charges participant `node` `count` listens on `channel` at once,
    /// for slots in which it listened without being materialized; returns
    /// how many its budget granted (the shortfall counts as refusals).
    #[inline]
    pub fn settle_listens(&mut self, node: u32, channel: ChannelId, count: u64) -> u64 {
        self.ledger
            .charge_participant_many_on(node as usize, Op::Listen, count, channel)
    }

    /// Whether Carol's capped pool is spent. From then on nothing she
    /// plans can air, so a slot in which no device acts changes no state:
    /// an untraced driver whose adversary does not want listener
    /// identities may skip such dead air without calling
    /// [`carol_turn`](Self::carol_turn).
    #[must_use]
    #[inline]
    pub fn carol_broke(&self) -> bool {
        self.ledger.carol_remaining() == Some(0)
    }

    /// Charges Carol's committed `jam` for each of `slots` consecutive
    /// slots at once, under [`carol_turn`](Self::carol_turn)'s rule: each
    /// slot charges its channels in ascending order, and once her pool
    /// runs dry the rest fizzles. Returns how many of the slots her jam
    /// executed in (they lead the stretch), which are tallied as jammed
    /// slots. The stretch's noisy slots also count the slots that carried
    /// a transmission, so the driver tallies them: the gossip driver
    /// marks both on a slot bitmap.
    ///
    /// Nobody may listen in a settled slot: nothing resolves, and Carol
    /// neither plans nor observes.
    ///
    /// # Panics
    ///
    /// Panics if `jam` targets a channel outside the run's spectrum.
    pub fn charge_committed_jam(&mut self, slots: u64, jam: &JamPlan) -> u64 {
        let entries = jam.entries();
        for &(channel, _) in entries {
            assert!(
                self.spectrum.contains(channel),
                "jam directive targets {channel} outside the {}",
                self.spectrum
            );
        }
        let per_slot = entries.len() as u64;
        if per_slot == 0 || slots == 0 {
            return 0;
        }
        // Whole slots, then the channels of one partial slot.
        let (whole, partial) = match self.ledger.carol_remaining() {
            None => (slots, 0),
            Some(left) if left / per_slot >= slots => (slots, 0),
            Some(left) => (left / per_slot, left % per_slot),
        };
        for (i, &(channel, _)) in entries.iter().enumerate() {
            let units = whole + u64::from((i as u64) < partial);
            self.ledger.charge_carol_many_on(Op::Jam, units, channel);
        }
        let executed = whole + u64::from(partial > 0);
        self.jammed_slots += executed;
        executed
    }

    /// Tallies `slots` noisy slots (a transmission or an executed jam) of
    /// a stretch the driver settled without
    /// [`carol_turn`](Self::carol_turn).
    pub(crate) fn count_noisy_slots(&mut self, slots: u64) {
        self.noisy_slots += slots;
    }

    /// The listeners charged so far this slot, in roster order.
    #[must_use]
    pub fn listeners(&self) -> &[(ParticipantId, ChannelId)] {
        &self.listeners
    }

    /// Whether any listener could hear a frame this slot: some channel
    /// carries exactly one transmission and is not blanket-jammed.
    /// Otherwise every listener hears silence or noise, whoever it is, so
    /// a driver whose listeners ignore both may settle their listens
    /// later instead of resolving them. Only meaningful inside
    /// [`carol_turn`](Self::carol_turn)'s `resolve`, once Carol's frames
    /// and jam are on the air.
    #[must_use]
    #[inline]
    pub fn may_deliver(&self) -> bool {
        self.spectrum.channels().any(|ch| {
            self.load.on(ch).len() == 1 && !matches!(self.jam.directive_on(ch), JamDirective::All)
        })
    }

    /// Whether Carol's executed jam picks listeners on some channel
    /// ([`JamDirective::AllExcept`] or [`JamDirective::Only`]), so that
    /// what a listener hears there depends on who it is. Only
    /// meaningful inside [`carol_turn`](Self::carol_turn)'s `resolve`.
    #[must_use]
    #[inline]
    pub fn jam_picks_listeners(&self) -> bool {
        self.jam.entries().iter().any(|(_, directive)| {
            matches!(
                directive,
                JamDirective::AllExcept(_) | JamDirective::Only(_)
            )
        })
    }

    /// Whether the slot carries a transmission or an executed jam, the
    /// slots [`RunReport::noisy_slots`] counts. When no frame can reach
    /// a listener ([`may_deliver`](Self::may_deliver) is false) and the
    /// jam picks no listeners, every listener hears noise if this holds
    /// and silence otherwise. Only meaningful inside
    /// [`carol_turn`](Self::carol_turn)'s `resolve`.
    #[must_use]
    #[inline]
    pub fn is_noisy(&self) -> bool {
        self.jam.is_active() || !self.load.is_quiet()
    }

    /// Resolves the slot's listeners in roster order, recording clean
    /// frames for Carol's observation and the per-channel tallies, and
    /// hands each reception to `heard` together with the ledger (for
    /// charges a reception settles). Only meaningful inside
    /// [`carol_turn`](Self::carol_turn)'s `resolve`, once Carol's frames
    /// and jam are on the air.
    #[inline]
    pub fn hear_all(
        &mut self,
        mut heard: impl FnMut(&mut EnergyLedger, ParticipantId, &Reception),
    ) {
        for &(listener, channel) in &self.listeners {
            let reception = resolve_for_listener_on(listener, channel, &self.load, &self.jam);
            if matches!(reception, Reception::Frame(_)) {
                self.delivered.push((listener, channel));
            }
            heard(&mut self.ledger, listener, &reception);
        }
    }

    /// Carol's turn in `slot`, once the correct devices have committed
    /// their sends and listens.
    ///
    /// Carol plans (a reactive Carol also sees whether the slot carries
    /// traffic). Her Byzantine sends are charged first, then her jams
    /// channel by channel in ascending order; once her pool runs dry the
    /// rest of the plan fizzles. `resolve` then settles the slot's
    /// listeners, typically through [`hear_all`](Self::hear_all).
    /// Finally the jammed/noisy tallies, Carol's [`SlotObservation`] and
    /// the trace record are written, and the slot's buffers are cleared
    /// for the next one.
    ///
    /// # Panics
    ///
    /// Panics if Carol targets a channel outside the run's spectrum.
    #[inline]
    pub fn carol_turn(
        &mut self,
        slot: Slot,
        adversary: &mut dyn Adversary,
        resolve: impl FnOnce(&mut Self),
    ) {
        let ctx = AdversaryCtx {
            budget_remaining: self.ledger.carol_remaining(),
            spent: self.ledger.carol_spend().total(),
        };
        let mut mv = adversary.plan(slot, &ctx);
        if adversary.is_reactive() {
            let activity = !self.load.is_quiet();
            mv = adversary.react(slot, activity, mv);
        }
        let spectrum = self.spectrum;
        for tx in mv.sends {
            assert!(
                spectrum.contains(tx.channel),
                "byzantine send targets {} outside the {spectrum}",
                tx.channel
            );
            if self
                .ledger
                .charge_carol_on(Op::Send, tx.channel)
                .is_charged()
            {
                self.load.push(tx.channel, tx.payload);
            } // beyond budget: the frame never airs
        }
        for (channel, directive) in mv.jam {
            assert!(
                spectrum.contains(channel),
                "jam directive targets {channel} outside the {spectrum}"
            );
            if self.ledger.charge_carol_on(Op::Jam, channel).is_charged() {
                self.jam.set(channel, directive);
                self.jammed_channels.push(channel);
            }
        }
        let jam_executed = self.jam.is_active();
        if jam_executed {
            self.jammed_slots += 1;
        }
        if self.is_noisy() {
            self.noisy_slots += 1;
        }

        resolve(self);

        for &(_, channel) in &self.delivered {
            self.delivered_by_channel[channel.index() as usize] += 1;
        }
        adversary.observe(
            slot,
            &SlotObservation {
                correct_sends: &self.correct_sends,
                listeners: &self.listeners,
                jam_executed,
                jammed_channels: &self.jammed_channels,
                delivered: &self.delivered,
            },
        );
        if self.trace_capacity > 0 {
            self.trace.push(SlotRecord {
                slot: slot.index(),
                transmissions: self.load.total().min(u16::MAX as usize) as u16,
                jammed_channels: self.jam.active_channel_count().min(u16::MAX as usize) as u16,
                listeners: self.listeners.len() as u32,
                delivered: self.delivered.len() as u32,
            });
        }
        self.clear_slot();
    }

    /// Closes the run: per-channel stats from the ledger and the
    /// delivery tallies, plus every participant's end state
    /// (`informed`/`terminated`, index-aligned with the ledger).
    pub fn report(
        &mut self,
        slots_elapsed: u64,
        stop_reason: StopReason,
        informed: Vec<bool>,
        terminated: Vec<bool>,
    ) -> RunReport {
        let channel_stats = self
            .spectrum
            .channels()
            .map(|c| {
                let i = c.index() as usize;
                let correct = self.ledger.correct_channel_spend()[i];
                let carol = self.ledger.carol_channel_spend()[i];
                ChannelStats {
                    correct_sends: correct.sends,
                    correct_listens: correct.listens,
                    byz_sends: carol.sends,
                    jammed_slots: carol.jams,
                    delivered: self.delivered_by_channel[i],
                }
            })
            .collect();
        RunReport {
            slots_elapsed,
            stop_reason,
            participant_costs: self.ledger.all_participant_spend(),
            participant_refusals: (0..self.ledger.participant_count())
                .map(|i| self.ledger.participant_refusals(i))
                .collect(),
            carol_cost: self.ledger.carol_spend(),
            informed,
            terminated,
            jammed_slots: self.jammed_slots,
            noisy_slots: self.noisy_slots,
            channel_stats,
            trace: std::mem::take(&mut self.trace),
        }
    }

    fn clear_slot(&mut self) {
        self.load.clear();
        self.jam.clear();
        self.jammed_channels.clear();
        self.correct_sends.clear();
        self.listeners.clear();
        self.delivered.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{AdversaryMove, SilentAdversary, Transmission};
    use crate::channel::IdSet;

    /// Carol's move every slot, forever.
    struct Fixed(AdversaryMove);
    impl Adversary for Fixed {
        fn plan(&mut self, _: Slot, _: &AdversaryCtx) -> AdversaryMove {
            self.0.clone()
        }
    }

    /// Runs `slots` slots on one medium: participant 0 sends a `Nack` on
    /// channel 0 every slot when `chatter` is set, and participant
    /// `i + 1` listens on channel `ears[i]` until it hears a frame.
    /// Returns the report and the slot in which each ear first heard one.
    fn drive(
        spectrum: Spectrum,
        carol_budget: Budget,
        adversary: &mut dyn Adversary,
        slots: u64,
        chatter: bool,
        ears: &[u16],
    ) -> (RunReport, Vec<Option<u64>>) {
        let mut medium = Medium::new();
        let budgets = vec![Budget::unlimited(); ears.len() + 1];
        medium.reset(&budgets, carol_budget, spectrum, 64);
        let mut heard = vec![None; ears.len()];
        for s in 0..slots {
            if chatter {
                medium.send(0, ChannelId::ZERO, Payload::Nack);
            }
            for (i, &channel) in ears.iter().enumerate() {
                if heard[i].is_none() {
                    medium.listen(i as u32 + 1, ChannelId::new(channel));
                }
            }
            medium.carol_turn(Slot::new(s), adversary, |air| {
                air.hear_all(|_, ear, reception| {
                    if let Reception::Frame(_) = reception {
                        heard[ear.index() as usize - 1] = Some(s);
                    }
                });
            });
        }
        let informed = std::iter::once(true)
            .chain(heard.iter().map(Option::is_some))
            .collect();
        let report = medium.report(
            slots,
            StopReason::SlotCapReached,
            informed,
            vec![false; ears.len() + 1],
        );
        (report, heard)
    }

    #[test]
    fn broke_carol_jams_fizzle() {
        let (report, heard) = drive(
            Spectrum::single(),
            Budget::limited(3),
            &mut Fixed(AdversaryMove::jam_all()),
            50,
            true,
            &[0],
        );
        // Exactly 3 jams execute, then the listener receives in slot 3.
        assert_eq!(report.carol_cost.jams, 3);
        assert_eq!(report.jammed_slots, 3);
        assert_eq!(heard, vec![Some(3)]);
        assert_eq!(report.participant_costs[1].listens, 4);
        assert_eq!(report.noisy_slots, 50, "the chatter keeps the air busy");
    }

    #[test]
    fn blanket_jam_costs_one_unit_per_channel_and_fizzles_mid_plan() {
        // Spectrum of 4; Carol blankets all channels with budget 10: two
        // full slots (8 units) plus a partial third slot covering only
        // channels 0 and 1 before the pool is dry.
        let spectrum = Spectrum::new(4);
        let (report, heard) = drive(
            spectrum,
            Budget::limited(10),
            &mut Fixed(AdversaryMove::jam_spectrum(spectrum)),
            5,
            false,
            &[3],
        );
        assert_eq!(report.carol_cost.jams, 10, "she spends the whole pool");
        let jammed: Vec<u64> = report
            .channel_stats
            .iter()
            .map(|s| s.jammed_slots)
            .collect();
        assert_eq!(jammed, vec![3, 3, 2, 2], "ascending order fizzles ch2-3");
        // The ch3 listener hears noise in slots 0-1 and silence after.
        assert_eq!(report.trace.get(Slot::new(2)).unwrap().jammed_channels, 2);
        assert_eq!(report.trace.get(Slot::new(3)).unwrap().jammed_channels, 0);
        assert_eq!(heard, vec![None]);
        assert_eq!(report.participant_costs[1].listens, 5);
    }

    #[test]
    fn byzantine_sends_are_charged_and_collide_with_correct_traffic() {
        let mut spam = Fixed(AdversaryMove {
            jam: JamPlan::none(),
            sends: vec![Payload::Garbage(0).into()],
        });
        let (report, heard) = drive(
            Spectrum::single(),
            Budget::unlimited(),
            &mut spam,
            10,
            true,
            &[0],
        );
        assert_eq!(heard, vec![None], "constant collisions block delivery");
        assert_eq!(report.carol_cost.sends, 10);
        assert_eq!(report.channel_stats[0].byz_sends, 10);
        assert_eq!(report.trace.get(Slot::ZERO).unwrap().transmissions, 2);

        // A budget of 4 airs 4 frames; the 5th slot delivers the chatter's.
        let (report, heard) = drive(
            Spectrum::single(),
            Budget::limited(4),
            &mut spam,
            10,
            true,
            &[0],
        );
        assert_eq!(report.carol_cost.sends, 4);
        assert_eq!(heard, vec![Some(4)]);
    }

    #[test]
    fn byzantine_sends_land_on_their_target_channel() {
        let mut cross = Fixed(AdversaryMove {
            jam: JamPlan::none(),
            sends: vec![Transmission::on(ChannelId::new(1), Payload::Nack)],
        });
        let (report, heard) = drive(
            Spectrum::new(2),
            Budget::unlimited(),
            &mut cross,
            5,
            false,
            &[0, 1],
        );
        assert_eq!(heard, vec![None, Some(0)], "the frame delivers on ch1 only");
        assert_eq!(report.channel_stats[1].byz_sends, 5);
        assert_eq!(report.channel_stats[0].byz_sends, 0);
        assert_eq!(report.channel_stats[1].delivered, 1);
        assert_eq!(report.channel_stats[0].delivered, 0);
    }

    #[test]
    fn trace_records_slot_facts() {
        let (report, _) = drive(
            Spectrum::single(),
            Budget::unlimited(),
            &mut SilentAdversary,
            5,
            true,
            &[0],
        );
        assert_eq!(report.trace.len(), 5);
        let r0 = report.trace.get(Slot::ZERO).unwrap();
        assert_eq!(r0.transmissions, 1);
        assert_eq!(r0.listeners, 1);
        assert_eq!(r0.delivered, 1);
        assert!(!r0.jammed());
        let r1 = report.trace.get(Slot::new(1)).unwrap();
        assert_eq!((r1.listeners, r1.delivered), (0, 0), "the ear stopped");
    }

    #[test]
    fn committed_jams_settle_as_carol_turn_charges_them() {
        // Random stretches of random jam plans, settled in bulk, against
        // the same plans played slot by slot through Carol's turn: the
        // spend, the per-channel jams and the jammed slots must agree,
        // whether the pool is unlimited, runs dry at a slot boundary or
        // inside a slot, or is empty from the start.
        use rand::Rng;
        use rcb_rng::CounterRng;

        /// Plays stretch after stretch of fixed plans.
        struct Stretches(Vec<(u64, JamPlan)>);
        impl Adversary for Stretches {
            fn plan(&mut self, slot: Slot, _: &AdversaryCtx) -> AdversaryMove {
                let mut start = 0;
                for (len, jam) in &self.0 {
                    if slot.index() < start + len {
                        return AdversaryMove {
                            jam: jam.clone(),
                            sends: Vec::new(),
                        };
                    }
                    start += len;
                }
                AdversaryMove::idle()
            }
        }

        let mut rng = CounterRng::new(0x7a11_c0de);
        let directives = |rng: &mut CounterRng| match rng.gen_range(0..3u32) {
            0 => JamDirective::All,
            1 => JamDirective::Only([1u32].into_iter().map(ParticipantId::new).collect()),
            _ => JamDirective::AllExcept(IdSet::new()),
        };
        let (mut dry_mid_slot, mut unlimited) = (0, 0);
        for case in 0..300 {
            let channels = [1u16, 2, 4][case % 3];
            let spectrum = Spectrum::new(channels);
            let stretches: Vec<(u64, JamPlan)> = (0..rng.gen_range(1..5u32))
                .map(|_| {
                    let mut jam = JamPlan::none();
                    for c in 0..channels {
                        if rng.gen_bool(0.6) {
                            jam.set(ChannelId::new(c), directives(&mut rng));
                        }
                    }
                    (rng.gen_range(0..40), jam)
                })
                .collect();
            let needed: u64 = stretches
                .iter()
                .map(|(len, jam)| len * jam.active_channel_count() as u64)
                .sum();
            let budget = match case % 4 {
                0 => Budget::unlimited(),
                1 => Budget::limited(0),
                _ => Budget::limited(rng.gen_range(0..=needed + 3)),
            };
            let slots: u64 = stretches.iter().map(|(len, _)| len).sum();

            let mut slotted = Medium::new();
            slotted.reset(&[Budget::unlimited()], budget, spectrum, 0);
            let mut carol = Stretches(stretches.clone());
            for s in 0..slots {
                slotted.carol_turn(Slot::new(s), &mut carol, |_| {});
            }
            let slotted = slotted.report(slots, StopReason::AllTerminated, vec![true], vec![true]);

            let mut bulk = Medium::new();
            bulk.reset(&[Budget::unlimited()], budget, spectrum, 0);
            for (len, jam) in &stretches {
                let executed = bulk.charge_committed_jam(*len, jam);
                assert!(executed <= *len);
                bulk.count_noisy_slots(executed);
            }
            let bulk = bulk.report(slots, StopReason::AllTerminated, vec![true], vec![true]);

            let label = format!("case {case}: {budget:?} over {stretches:?}");
            assert_eq!(bulk.carol_cost, slotted.carol_cost, "{label}");
            assert_eq!(bulk.channel_stats, slotted.channel_stats, "{label}");
            assert_eq!(bulk.jammed_slots, slotted.jammed_slots, "{label}");
            assert_eq!(bulk.noisy_slots, slotted.noisy_slots, "{label}");
            match budget.cap() {
                None => unlimited += 1,
                Some(cap) if cap < needed => {
                    let per_slot = stretches.iter().map(|(_, j)| j.active_channel_count());
                    if per_slot.clone().any(|c| c > 1) {
                        dry_mid_slot += 1;
                    }
                }
                Some(_) => {}
            }
        }
        assert!(
            unlimited > 50 && dry_mid_slot > 30,
            "{unlimited} {dry_mid_slot}"
        );
    }

    #[test]
    fn single_channel_stats_reconcile_with_totals() {
        let (report, _) = drive(
            Spectrum::single(),
            Budget::unlimited(),
            &mut Fixed(AdversaryMove::jam_all()),
            30,
            true,
            &[0],
        );
        assert_eq!(report.channel_stats.len(), 1);
        let stats = report.channel_stats[0];
        assert_eq!(stats.jammed_slots, report.jammed_slots);
        assert_eq!(stats.jammed_slots, 30);
        assert_eq!(stats.correct_sends, report.participant_costs[0].sends);
        assert_eq!(stats.correct_listens, report.participant_costs[1].listens);
    }
}
