//! Time-slotted single-hop radio simulator — the network model of
//! Gilbert & Young (§1.1), implemented as an executable substrate and
//! generalised to a multi-channel spectrum.
//!
//! # The model
//!
//! Time is divided into discrete slots. In each slot every device either
//! **sleeps** (free), **sends** one frame, or **listens** (each costing one
//! energy unit). A listener perceives one of three outcomes:
//!
//! * **silence** — no transmissions, not jammed. Silence cannot be forged:
//!   no adversary action can make an active channel sound silent.
//! * **a frame** — exactly one transmission reached it un-jammed.
//! * **noise** — two or more transmissions collided, or the slot was jammed
//!   *for this listener*. Jamming is indistinguishable from collision.
//!
//! The adversary Carol is **n-uniform**: her [`JamDirective`] may target any
//! subset of listeners, so some devices hear noise while others receive the
//! same slot cleanly. She is **adaptive** (full information about all past
//! behaviour, via [`Adversary::observe`]) and optionally **reactive** (sees
//! the current slot's channel activity before committing to jam, via
//! [`Adversary::react`]).
//!
//! Every operation draws on an [`EnergyLedger`]: correct devices have
//! individual budgets, Carol has a pooled budget covering herself and her
//! Byzantine devices. When her budget is exhausted, jam directives fizzle —
//! this is the mechanism that makes resource competitiveness *observable*.
//!
//! # The spectrum: `C ≥ 1` channels
//!
//! Following the multi-channel successors of the source paper (Chen &
//! Zheng 2019/2020), every radio operation targets a channel
//! `c ∈ 0..C` of a [`Spectrum`]:
//!
//! * every [`Medium::send`] and [`Medium::listen`] names the channel it
//!   lands on (single-channel drivers use [`ChannelId::ZERO`]);
//! * transmissions are grouped by channel into a [`ChannelLoad`], and a
//!   listener tuned to channel `c` perceives **only** that channel's
//!   traffic and jamming — resolution inspects one bucket per listener
//!   (`O(active channels)` grouping, not `O(n)` scanning per listener);
//! * Carol's per-slot [`JamPlan`] names a [`JamDirective`] per targeted
//!   channel, **each costing one unit when it executes** — blanketing the
//!   spectrum costs `C` units per slot, so she must split her budget;
//! * the [`EnergyLedger`] attributes every charge to its channel, and the
//!   engine's [`RunReport::channel_stats`] reports the split.
//!
//! **The `C = 1` equivalence guarantee.** With [`Spectrum::single`],
//! every operation lands on channel 0, the per-channel resolution
//! degenerates to [`resolve_for_listener`], no extra RNG draws occur,
//! and runs are bit-for-bit identical to the pre-spectrum engine — the
//! single-channel model of the source paper is a special case, not a
//! compatibility mode.
//!
//! # Quick start
//!
//! The exact drivers (`rcb-core`'s ε-BROADCAST, the gossip driver in this
//! crate, `rcb-baselines`' KPSY) all run their slots on one [`Medium`]:
//! they commit the devices that act, then hand the slot to Carol's turn.
//!
//! ```
//! use rcb_radio::{
//!     Budget, ChannelId, Medium, Payload, Reception, SilentAdversary, Slot, Spectrum, StopReason,
//! };
//!
//! // Device 0 beacons every slot; device 1 listens until it hears a frame.
//! let mut medium = Medium::new();
//! medium.reset(&[Budget::unlimited(); 2], Budget::unlimited(), Spectrum::single(), 0);
//! let mut heard = false;
//! let mut slot = 0;
//! while !heard {
//!     medium.send(0, ChannelId::ZERO, Payload::Nack);
//!     medium.listen(1, ChannelId::ZERO);
//!     medium.carol_turn(Slot::new(slot), &mut SilentAdversary, |air| {
//!         air.hear_all(|_, _, reception| heard = matches!(reception, Reception::Frame(_)));
//!     });
//!     slot += 1;
//! }
//! let report = medium.report(slot, StopReason::AllTerminated, vec![true; 2], vec![true; 2]);
//! assert_eq!(report.participant_costs[1].listens, 1);
//! assert_eq!(report.channel_stats[0].delivered, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
mod channel;
mod energy;
mod engine;
mod message;
mod participant;
mod slot;
mod soa;
mod spectrum;
mod trace;

pub use adversary::{
    Adversary, AdversaryCtx, AdversaryMove, Commitment, SilentAdversary, SlotObservation,
    Transmission,
};
pub use channel::{
    resolve_for_listener, resolve_for_listener_on, ChannelLoad, IdSet, JamDirective, JamPlan,
    JamPlanIntoIter,
};
pub use energy::{Budget, ChargeOutcome, CostBreakdown, EnergyLedger, Op};
pub use engine::{ChannelStats, Medium, RunReport, StopReason};
pub use message::{Payload, PayloadKind};
pub use participant::{ParticipantId, Reception};
pub use slot::Slot;
pub use soa::{run_gossip_soa_with, GossipSoaScratch, GossipSpec, WakeQueue};
pub use spectrum::{ChannelId, Spectrum};
pub use trace::{SlotRecord, Trace};
