//! The adversary interface: adaptive by default, optionally reactive.
//!
//! Carol is a single logical adversary controlling her own device and all
//! Byzantine devices; the engine talks to her through this trait. Her
//! information model follows §1.1:
//!
//! * **adaptive** — [`Adversary::observe`] hands her complete information
//!   about every past slot: who sent what on which channel, who listened
//!   where, what the channel resolution was. She never sees the *current*
//!   slot's actions before committing… unless she is
//! * **reactive** — then [`Adversary::react`] is additionally called after
//!   the correct devices' actions are fixed, with the RSSI bit (is anyone
//!   transmitting right now, on any channel?) but **not** message
//!   content. This is the CCA/RSSI capability of §4.1: "while RSSI
//!   enables Carol to detect channel activity, it provides no information
//!   about the transmitted content."
//!
//! In a multi-channel [`Spectrum`](crate::Spectrum), her per-slot
//! [`AdversaryMove`] carries a [`JamPlan`] (one directive per targeted
//! channel, each costing one unit when it executes) and channel-tagged
//! Byzantine [`Transmission`]s — splitting her budget across channels is
//! now her problem, which is the point of the multi-channel model.

use crate::channel::JamPlan;
use crate::message::{Payload, PayloadKind};
use crate::participant::ParticipantId;
use crate::slot::Slot;
use crate::spectrum::{ChannelId, Spectrum};

/// One Byzantine frame: a payload aimed at a channel.
///
/// `From<Payload>` targets [`ChannelId::ZERO`], keeping single-channel
/// adversary code one `.into()` away from its original shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transmission {
    /// The channel the frame airs on.
    pub channel: ChannelId,
    /// The frame itself.
    pub payload: Payload,
}

impl Transmission {
    /// A frame on an explicit channel.
    #[must_use]
    pub fn on(channel: ChannelId, payload: Payload) -> Self {
        Self { channel, payload }
    }
}

impl From<Payload> for Transmission {
    fn from(payload: Payload) -> Self {
        Self {
            channel: ChannelId::ZERO,
            payload,
        }
    }
}

/// What Carol decides to do in one slot.
#[derive(Debug, Clone, Default)]
pub struct AdversaryMove {
    /// Jamming decision across the spectrum. Every active channel entry
    /// costs one unit when it executes; if the pool goes broke mid-plan,
    /// the remaining channels' jams fizzle (ascending channel order).
    pub jam: JamPlan,
    /// Frames transmitted by Byzantine devices this slot (spoofed nacks,
    /// garbage, replayed `m`, …), each aimed at a channel. Each costs one
    /// unit; frames beyond the remaining budget are dropped.
    pub sends: Vec<Transmission>,
}

impl AdversaryMove {
    /// A move that does nothing.
    #[must_use]
    pub fn idle() -> Self {
        Self::default()
    }

    /// A move that jams every listener on channel 0 — the single-channel
    /// "jam everything" of the source paper.
    #[must_use]
    pub fn jam_all() -> Self {
        Self {
            jam: crate::channel::JamDirective::All.into(),
            sends: Vec::new(),
        }
    }

    /// A move that jams every listener on every channel of `spectrum`
    /// (costs one unit per channel — the budget-splitting blanket).
    #[must_use]
    pub fn jam_spectrum(spectrum: Spectrum) -> Self {
        Self {
            jam: JamPlan::all_channels(spectrum),
            sends: Vec::new(),
        }
    }
}

/// What Carol learns about a slot after it resolves (full information).
///
/// This is the feedback loop the adaptive multi-channel adversary of
/// Chen & Zheng 2020 assumes: after every slot — at any channel count —
/// Carol legally consumes the complete prior-slot outcome, including
/// which channels carried traffic, where her jam landed, and which
/// listeners a clean frame actually reached. She still never sees the
/// *current* slot before committing (that is the separate reactive
/// capability, [`Adversary::react`]).
#[derive(Debug, Clone, Copy)]
pub struct SlotObservation<'a> {
    /// Which correct participants transmitted, on which channel, and what
    /// kind of frame.
    pub correct_sends: &'a [(ParticipantId, ChannelId, PayloadKind)],
    /// Which correct participants listened, and on which channel.
    ///
    /// Empty or partial in slots where no frame could reach a listener,
    /// when the driver settles those listens in bulk: the gossip driver
    /// ([`run_gossip_soa_with`](crate::run_gossip_soa_with)) and the
    /// exact ε-BROADCAST driver (`rcb_core::BroadcastSoaScratch`) both
    /// do, unless the run is traced or the adversary
    /// [`wants_listener_identities`](Adversary::wants_listener_identities).
    /// The ε-BROADCAST driver settles such slots in request phases too,
    /// unless the executed jam picks listeners.
    pub listeners: &'a [(ParticipantId, ChannelId)],
    /// Whether any part of her jam plan actually took effect (budget
    /// permitting).
    pub jam_executed: bool,
    /// The channels on which her jam executed (ascending, empty when
    /// nothing executed).
    pub jammed_channels: &'a [ChannelId],
    /// Which listeners received a clean frame, and on which channel —
    /// the per-channel jam *outcome*: a delivery on a channel she jammed
    /// is impossible, so every entry marks a rendezvous she failed to
    /// block.
    pub delivered: &'a [(ParticipantId, ChannelId)],
}

impl SlotObservation<'_> {
    /// Number of correct transmissions that aired on `channel`.
    #[must_use]
    pub fn correct_sends_on(&self, channel: ChannelId) -> usize {
        self.correct_sends
            .iter()
            .filter(|&&(_, c, _)| c == channel)
            .count()
    }

    /// Number of clean frame receptions on `channel`.
    #[must_use]
    pub fn delivered_on(&self, channel: ChannelId) -> usize {
        self.delivered
            .iter()
            .filter(|&&(_, c)| c == channel)
            .count()
    }
}

/// Carol's promise about a stretch of slots ahead of them, returned by
/// [`Adversary::commitment`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Commitment {
    /// The first slot past the stretch; `u64::MAX` promises the rest of
    /// any run.
    pub until: u64,
    /// Her jam in every slot of the stretch, with no Byzantine frames.
    /// Executing it costs what [`carol_turn`](crate::Medium::carol_turn)
    /// charges: one unit per channel per slot, channels ascending, the
    /// rest fizzling once her pool is spent.
    pub jam: JamPlan,
}

/// Budget context handed to the adversary when planning.
#[derive(Debug, Clone, Copy)]
pub struct AdversaryCtx {
    /// Units remaining in Carol's pool (`None` = unlimited).
    pub budget_remaining: Option<u64>,
    /// Units spent so far.
    pub spent: u64,
}

impl AdversaryCtx {
    /// Whether at least `units` more can be spent.
    #[must_use]
    pub fn can_afford(&self, units: u64) -> bool {
        match self.budget_remaining {
            None => true,
            Some(rem) => rem >= units,
        }
    }
}

/// Carol's strategy interface.
///
/// Implementations live in `rcb-adversary`; the engine only needs these
/// hooks. All methods have sensible defaults except [`plan`](Self::plan),
/// so a passive adversary is one line (see [`SilentAdversary`]).
pub trait Adversary {
    /// Decides this slot's move *before* seeing any current-slot activity.
    ///
    /// Called once per simulated slot, with one exception: an untraced
    /// run whose adversary does not
    /// [`want listener identities`](Self::wants_listener_identities)
    /// settles stretches whose every slot is known in advance without
    /// calling her.
    ///
    /// * Once a capped pool is spent, nothing Carol plans can air, so the
    ///   exact ε-BROADCAST driver (`rcb_core::BroadcastSoaScratch`) and
    ///   KPSY driver (`rcb_baselines::execute_kpsy`) skip *dead air*, the
    ///   slots in which no device acts.
    /// * Once the gossip driver
    ///   ([`run_gossip_soa_with`](crate::run_gossip_soa_with)) has no
    ///   uninformed node left, only Alice and the relays act, and nobody
    ///   listens. If Carol's pool is spent, or her
    ///   [`commitment`](Self::commitment)s chain to the run's end, the
    ///   driver settles the rest of the run in bulk.
    ///
    /// A traced run, or an adversary that wants listener identities, is
    /// called in every slot; outcomes are the same either way.
    fn plan(&mut self, slot: Slot, ctx: &AdversaryCtx) -> AdversaryMove;

    /// Reactive override: called only when [`is_reactive`](Self::is_reactive)
    /// is true, after correct actions are committed. `activity` is the RSSI
    /// bit — “is at least one correct device transmitting right now, on
    /// any channel?”. Returns the final move (default: keep the planned
    /// one).
    fn react(&mut self, slot: Slot, activity: bool, planned: AdversaryMove) -> AdversaryMove {
        let _ = (slot, activity);
        planned
    }

    /// Whether this adversary gets the in-slot RSSI callback.
    fn is_reactive(&self) -> bool {
        false
    }

    /// Full-information feedback after the slot resolves (adaptive power).
    ///
    /// Called once per simulated slot, after every slot
    /// [`plan`](Self::plan) was called for, with the same exception: the
    /// slots a driver settles without calling her (see `plan`) go
    /// unobserved too.
    fn observe(&mut self, slot: Slot, observation: &SlotObservation<'_>) {
        let _ = (slot, observation);
    }

    /// Carol's moves from `slot` on, if she can promise them ahead.
    ///
    /// `Some(c)` promises that her plan in every slot of
    /// `[slot, c.until)` is `c.jam` with no Byzantine frames, whatever
    /// she observes and whatever her budget, and that skipping
    /// [`plan`](Self::plan) and [`observe`](Self::observe) over the
    /// stretch leaves her later moves unchanged. `c.until` must lie past
    /// `slot`; a driver that reads a stretch asks again at `c.until` to
    /// chain the next. The default, `None`, promises nothing. Drivers
    /// never ask an adversary that [`is_reactive`](Self::is_reactive).
    ///
    /// The gossip driver asks in each slot after its last uninformed node
    /// is informed, until the chain from that slot reaches the run's end;
    /// from then on it charges each stretch's jam in bulk instead of
    /// calling her slot by slot.
    fn commitment(&self, slot: Slot) -> Option<Commitment> {
        let _ = slot;
        None
    }

    /// Whether [`observe`](Self::observe) needs exact per-listener
    /// identity lists in every slot.
    ///
    /// Two exact drivers settle provably inert listens (slots where every
    /// listener would hear silence or blanket noise) in bulk: the gossip
    /// driver ([`run_gossip_soa_with`](crate::run_gossip_soa_with)) and
    /// the ε-BROADCAST driver (`rcb_core::BroadcastSoaScratch`). The
    /// latter does so in its inform and propagation phases, where
    /// uninformed nodes listen in every slot, and in its request phases,
    /// where listeners only count noise, in every slot that cannot
    /// deliver and whose jam picks no listeners. Their
    /// [`SlotObservation::listeners`] leaves those listeners out even
    /// though the nodes paid for the listens — aggregate accounting stays
    /// exact, identities don't. An adversary
    /// whose strategy reads listener identities returns `true` here to
    /// force per-slot materialization (at the cost of a per-slot listener
    /// walk). Sends, jams, and deliveries are always exact regardless.
    /// Returning `true` also makes every exact driver call Carol in every
    /// slot, dead air and the gossip driver's send-only tail included
    /// (see [`plan`](Self::plan)).
    fn wants_listener_identities(&self) -> bool {
        false
    }
}

/// An adversary that never acts. Useful as the no-attack baseline and in
/// tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct SilentAdversary;

impl Adversary for SilentAdversary {
    fn plan(&mut self, _slot: Slot, _ctx: &AdversaryCtx) -> AdversaryMove {
        AdversaryMove::idle()
    }

    /// Idle to the end of any run.
    fn commitment(&self, _slot: Slot) -> Option<Commitment> {
        Some(Commitment {
            until: u64::MAX,
            jam: JamPlan::none(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_move_is_free() {
        let mv = AdversaryMove::idle();
        assert!(!mv.jam.is_active());
        assert!(mv.sends.is_empty());
    }

    #[test]
    fn jam_all_move_targets_channel_zero_only() {
        let mv = AdversaryMove::jam_all();
        assert!(mv.jam.is_active());
        assert_eq!(mv.jam.active_channel_count(), 1);
        assert!(mv.jam.jams(ChannelId::ZERO, ParticipantId::new(0)));
    }

    #[test]
    fn jam_spectrum_blankets_every_channel() {
        let mv = AdversaryMove::jam_spectrum(Spectrum::new(4));
        assert_eq!(mv.jam.active_channel_count(), 4);
    }

    #[test]
    fn transmission_defaults_to_channel_zero() {
        let tx: Transmission = Payload::Nack.into();
        assert_eq!(tx.channel, ChannelId::ZERO);
        let explicit = Transmission::on(ChannelId::new(3), Payload::Decoy);
        assert_eq!(explicit.channel.index(), 3);
    }

    #[test]
    fn ctx_affordability() {
        let unlimited = AdversaryCtx {
            budget_remaining: None,
            spent: 0,
        };
        assert!(unlimited.can_afford(u64::MAX));
        let tight = AdversaryCtx {
            budget_remaining: Some(2),
            spent: 98,
        };
        assert!(tight.can_afford(2));
        assert!(!tight.can_afford(3));
    }

    #[test]
    fn silent_adversary_defaults() {
        let mut carol = SilentAdversary;
        assert!(!carol.is_reactive());
        let ctx = AdversaryCtx {
            budget_remaining: None,
            spent: 0,
        };
        let mv = carol.plan(Slot::ZERO, &ctx);
        assert!(!mv.jam.is_active());
        // Default react keeps the planned move.
        let kept = carol.react(Slot::ZERO, true, AdversaryMove::jam_all());
        assert!(kept.jam.is_active());
        // She promises the idle plan she makes, to the end of any run.
        let promise = carol
            .commitment(Slot::new(17))
            .expect("silence is known ahead");
        assert_eq!(promise.until, u64::MAX);
        assert_eq!(promise.jam, carol.plan(Slot::new(17), &ctx).jam);
    }

    #[test]
    fn adversaries_promise_nothing_by_default() {
        struct Planner;
        impl Adversary for Planner {
            fn plan(&mut self, _: Slot, _: &AdversaryCtx) -> AdversaryMove {
                AdversaryMove::jam_all()
            }
        }
        assert_eq!(Planner.commitment(Slot::ZERO), None);
    }
}
