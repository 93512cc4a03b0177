//! The phase kernel: one recurrence per schedule — the two hopping
//! schedules behind the `fast_mc` and `fluid` tiers, and ε-BROADCAST's
//! round schedule behind the `fast` tier.
//!
//! The exact engine prices a hopping run at `O(n · slots)` — at
//! `n = 2^16` and the horizons the multi-channel experiments use, one
//! trial costs billions of node-slots, far below the scales where the
//! competitive bounds of the multi-channel successors (Chen & Zheng
//! 2019/2020) actually bite. The phase tiers advance one *phase* (a
//! contiguous block of slots) at a time instead, so a run costs
//! `O(phases · C)` regardless of `n`.
//!
//! This module writes each schedule's recurrence once, in `f64`:
//!
//! * the **memoryless** schedule of
//!   [`GossipSpec::hopping`](rcb_radio::GossipSpec::hopping), where
//!   every device retunes each slot;
//! * the **epoch** schedule of
//!   [`GossipSpec::epoch_hopping`](rcb_radio::GossipSpec::epoch_hopping),
//!   where every device holds one channel for a whole epoch (one phase
//!   per epoch);
//! * the **ε-BROADCAST** schedule of the paper's Figures 1–2 on one
//!   channel — inform, the propagation steps, then request with its
//!   noise-count termination test — whose model and approximations
//!   [`crate::fast`] documents.
//!
//! Each recurrence is generic over a *realization* of its random
//! quantities. The sampled realization draws them from the run's RNG —
//! binomial counts, multinomial channel splits, Alice's epoch channel —
//! so every tally is a whole number ([`crate::fast_mc`], and
//! [`crate::fast`] on its own stream). The expected realization takes
//! their means, with no RNG anywhere ([`crate::fluid`]); only the
//! hopping recurrences run it so far.
//!
//! # The hopping model
//!
//! Within a phase of `s` slots the informed set is frozen at its
//! start-of-phase size `i` (state changes take effect at phase
//! boundaries, exactly as in [`crate::fast`]):
//!
//! * **send/listen counts**: the sum of `u` independent `Bin(s, p)`
//!   variables *is* `Bin(u·s, p)`, and uniform hopping spreads them over
//!   channels multinomially;
//! * **rendezvous**: a listener tuned to channel `c` is informed when
//!   exactly one correct transmission lands on `c` and the channel is not
//!   jammed. With Alice transmitting with probability `a` and each of `i`
//!   relays with probability `p_r`, each picking a uniform channel, the
//!   sender–listener channel-coincidence probability is
//!   `P₁ = (a/C)(1−p_r/C)^i + i(p_r/C)(1−a/C)(1−p_r/C)^{i−1}`, thinned by
//!   the per-channel jam fraction of the executed plan. The epoch
//!   schedule computes it per channel from the held-channel census
//!   instead of the `1/C` spectrum average, the rendezvous boost the
//!   schedule exists to provide;
//! * **per-node delivery** over the phase is geometric in the per-slot
//!   informing probability; newly informed nodes are charged listens only
//!   up to their (truncated-geometric) expected informing slot, and
//!   relay sends from then on;
//! * **epoch boundaries** carry the listener-side jam-evasion rule: a
//!   surviving listener detects jamming on its channel with probability
//!   `1 − (1 − listen_p)^{jammed_slots}` and redraws over the other
//!   `C − 1` channels, while undetected survivors and all relays redraw
//!   uniformly. Collision noise from concurrent correct senders is not
//!   modelled as a detection source.
//!
//! Approximations relative to the exact engine (validated statistically
//! in `tests/fast_mc_vs_exact.rs` and experiments E13/E19): informed-set
//! changes land at phase boundaries, jam slots are treated as spread
//! uniformly over the phase, and a mid-phase budget exhaustion fizzles
//! the plan *proportionally* across channels (the slot-major spending
//! order of the exact engine) instead of at an exact slot.
//!
//! # The adversary
//!
//! Carol is consulted once per phase through [`PhaseJammer`] — the
//! multi-channel, phase-granularity counterpart of
//! [`rcb_radio::Adversary`], and the one phase-level adversary trait of
//! every recurrence — and observes the previous hopping phase only as a
//! whole-count [`PhaseObservation`] rollup (no slot-level clairvoyance).
//! On the fluid tier the kernel rounds its expected tallies and masses
//! to whole counts and floors her budget, so one jammer serves both
//! tiers. Plans are per-channel `f64` slot counts: the sampled tier
//! rounds each channel to whole slots, the fluid tier executes them as
//! exact expectations. The ε-BROADCAST recurrence also prices a plan's
//! sparing ([`PhaseJamPlan::spare`]) and Byzantine frames
//! ([`PhaseJamPlan::byz_sends`]); the hopping recurrences ignore both.

use rand::Rng;
use rcb_radio::{ChannelId, ChannelStats, CostBreakdown, Spectrum};
use rcb_rng::math::binomial_cdf_upto;
use rcb_rng::{Binomial, SeedTree, SimRng};
use rcb_telemetry::{Collector, EngineTier, Event, MetricId};

use crate::outcome::{BroadcastOutcome, EngineKind};
use crate::params::Params;
use crate::probabilities::{phase_probabilities, PhaseProbabilities};
use crate::schedule::{PhaseKind, RoundSchedule};

/// Alice's per-slot transmission probability under hopping gossip —
/// fixed at 1/2, mirroring the exact protocol's `HoppingAlice`.
const ALICE_SEND_P: f64 = 0.5;

/// Buffered events per [`Collector::event_batch`] flush: one lock
/// acquisition amortized over this many phases.
const EVENT_FLUSH_CHUNK: usize = 256;

/// Per-channel rollup of one phase — what a [`PhaseJammer`] observes.
///
/// Every tally is a whole-count per-channel vector, index-aligned with
/// the [`Spectrum`]'s channels.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PhaseObservation {
    /// Number of slots the observed phase spanned (0 = "no phase has
    /// completed yet", the state before the first phase resolves).
    pub slots: u64,
    /// Frames sent by correct participants, per channel.
    pub correct_sends: Vec<u64>,
    /// Listen operations by correct participants, per channel.
    pub listens: Vec<u64>,
    /// Clean frame receptions, per channel — every one a rendezvous the
    /// jam failed to block.
    pub delivered: Vec<u64>,
    /// Slots in which the jam executed, per channel.
    pub jammed_slots: Vec<u64>,
}

impl PhaseObservation {
    /// An empty observation over `spectrum` (all tallies zero).
    #[must_use]
    pub fn empty(spectrum: Spectrum) -> Self {
        let c = spectrum.channel_count() as usize;
        Self {
            slots: 0,
            correct_sends: vec![0; c],
            listens: vec![0; c],
            delivered: vec![0; c],
            jammed_slots: vec![0; c],
        }
    }

    /// Number of channels the tallies cover.
    #[must_use]
    pub fn channel_count(&self) -> usize {
        self.correct_sends.len()
    }

    /// Expected number of slots in which `channel` carried at least one
    /// correct transmission, under a Poisson model of the observed send
    /// count spread uniformly over the phase: `s · (1 − e^{−sends/s})`.
    ///
    /// This is the quantity a slot-level reactive jammer would have
    /// spent on the channel (one unit per active slot), which is how the
    /// phase-level lowerings of the lagged/adaptive jammers pace their
    /// budgets. Returns 0 for an empty observation.
    #[must_use]
    pub fn expected_active_slots(&self, channel: ChannelId) -> f64 {
        let i = channel.index() as usize;
        if self.slots == 0 || i >= self.channel_count() {
            return 0.0;
        }
        let s = self.slots as f64;
        let sends = self.correct_sends[i] as f64;
        s * (1.0 - (-sends / s).exp())
    }
}

/// Phase-level context handed to a [`PhaseJammer`], in whole counts on
/// both tiers.
#[derive(Debug, Clone, Copy)]
pub struct PhaseJamCtx<'a> {
    /// Phase index (0-based).
    pub phase: u32,
    /// Index of the phase's first slot. On the ε-BROADCAST schedule,
    /// [`RoundSchedule::locate`](crate::RoundSchedule::locate) maps it to
    /// the phase's round and [`PhaseKind`].
    pub start_slot: u64,
    /// Phase length in slots (the final phase may be shorter than the
    /// configured length).
    pub phase_len: u64,
    /// The spectrum the run hops over (a single channel for
    /// ε-BROADCAST).
    pub spectrum: Spectrum,
    /// Carol's remaining pooled budget (`None` = unlimited).
    pub budget_remaining: Option<u64>,
    /// Nodes still uninformed at the phase start.
    pub uninformed: u64,
    /// Informed (relaying) nodes at the phase start.
    pub informed: u64,
    /// Rollup of the previous phase ([`PhaseObservation::slots`] is 0
    /// before the first phase resolves) — the adversary's whole feedback
    /// channel, per the adaptive model of Chen & Zheng 2020 aggregated to
    /// phase granularity. The ε-BROADCAST recurrence observes nothing:
    /// its rollup always reads 0 slots and empty tallies.
    pub observation: &'a PhaseObservation,
}

/// A jammer's plan for one phase: how many slots to jam on each channel,
/// plus the two moves only the ε-BROADCAST recurrence prices.
///
/// Each jammed slot on each channel costs one budget unit when it
/// executes, exactly like a slot-level [`JamPlan`](rcb_radio::JamPlan)
/// entry. The kernel clamps each channel to the phase length (the
/// sampled tier rounds it to whole slots) and, when the pooled budget
/// cannot cover the whole plan, fizzles it proportionally across
/// channels (uniform-in-time spending).
///
/// The per-channel counts sit inline for spectra of up to four channels,
/// so planning a phase allocates nothing there.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseJamPlan {
    jam_slots: JamSlots,
    /// n-uniform targeting (§2.3): with `Some(x)` the jam is total for
    /// every listener except `x` adversary-chosen uninformed nodes, who
    /// hear no jamming at all. Only the ε-BROADCAST recurrence reads it;
    /// the hopping recurrences ignore it.
    pub spare: Option<u64>,
    /// Byzantine frames (spoofed nacks in request phases, garbage
    /// elsewhere), each in its own uniformly random slot and costing one
    /// unit, charged after the jam and clamped to the phase length. Only
    /// the ε-BROADCAST recurrence reads it; the hopping recurrences
    /// ignore it.
    pub byz_sends: u64,
}

/// Channels a [`PhaseJamPlan`] stores inline. Its constructors and
/// accessors are `#[inline]`: every jammer builds one plan per phase from
/// another crate, and the fast ε-BROADCAST loop spends only a few hundred
/// nanoseconds on a whole phase.
const INLINE_CHANNELS: usize = 4;

/// Per-channel jam counts: inline up to [`INLINE_CHANNELS`] channels, on
/// the heap beyond.
#[derive(Debug, Clone, PartialEq)]
struct JamSlots {
    len: usize,
    inline: [f64; INLINE_CHANNELS],
    heap: Vec<f64>,
}

impl JamSlots {
    #[inline]
    fn filled(len: usize, slots: f64) -> Self {
        let inline = std::array::from_fn(|ch| if ch < len { slots } else { 0.0 });
        let heap = if len <= INLINE_CHANNELS {
            Vec::new()
        } else {
            vec![slots; len]
        };
        Self { len, inline, heap }
    }

    #[inline]
    fn get(&self) -> &[f64] {
        match self.inline.get(..self.len) {
            Some(inline) => inline,
            None => &self.heap,
        }
    }

    #[inline]
    fn get_mut(&mut self) -> &mut [f64] {
        match self.inline.get_mut(..self.len) {
            Some(inline) => inline,
            None => &mut self.heap,
        }
    }
}

impl PhaseJamPlan {
    /// A plan that jams nothing on any channel of `spectrum`.
    #[must_use]
    #[inline]
    pub fn idle(spectrum: Spectrum) -> Self {
        Self::blanket(spectrum, 0.0)
    }

    /// Blankets every channel of `spectrum` for `slots` slots — the
    /// budget-splitting uniform jam (costs `C · slots` units).
    #[must_use]
    #[inline]
    pub fn blanket(spectrum: Spectrum, slots: f64) -> Self {
        Self {
            jam_slots: JamSlots::filled(spectrum.channel_count() as usize, slots),
            spare: None,
            byz_sends: 0,
        }
    }

    /// Jams `slots` slots on channel 0 only — the source paper's
    /// single-channel "jam everything" (`jam_all`), one unit per slot.
    #[must_use]
    #[inline]
    pub fn channel_zero(spectrum: Spectrum, slots: f64) -> Self {
        let mut plan = Self::idle(spectrum);
        plan.set_jam(ChannelId::ZERO, slots);
        plan
    }

    /// Sets the jammed-slot count on one channel (out-of-spectrum
    /// channels are ignored).
    #[inline]
    pub fn set_jam(&mut self, channel: ChannelId, slots: f64) {
        if let Some(entry) = self.jam_slots.get_mut().get_mut(channel.index() as usize) {
            *entry = slots;
        }
    }

    /// The jammed-slot count requested on `channel` (0 when outside the
    /// plan's spectrum).
    #[must_use]
    pub fn jam_on(&self, channel: ChannelId) -> f64 {
        let slots = self.jam_slots().get(channel.index() as usize);
        slots.copied().unwrap_or(0.0)
    }

    /// Per-channel jammed-slot counts, index-aligned with the spectrum.
    #[must_use]
    #[inline]
    pub fn jam_slots(&self) -> &[f64] {
        self.jam_slots.get()
    }

    /// Total units the plan requests.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.jam_slots().iter().sum()
    }
}

/// Phase-granularity, channel-aware adversary interface — what every
/// phase recurrence consults once per phase.
///
/// Implementations live in `rcb-adversary`: every schedule-free
/// strategy has one, and so does every strategy with an ε-BROADCAST
/// phase model. A stochastic strategy draws from its own seeded RNG on
/// the sampled tier; the fluid tier's determinism contract needs its
/// mean plan instead (`rcb_adversary::RandomFluidJammer`).
pub trait PhaseJammer {
    /// Decides the per-channel jam split for the phase described by
    /// `ctx`. Everything the jammer may legally know — including the
    /// previous phase's [`PhaseObservation`] — arrives through `ctx`.
    fn plan_phase(&mut self, ctx: &PhaseJamCtx<'_>) -> PhaseJamPlan;
}

/// The no-attack phase jammer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SilentPhaseJammer;

impl PhaseJammer for SilentPhaseJammer {
    fn plan_phase(&mut self, ctx: &PhaseJamCtx<'_>) -> PhaseJamPlan {
        PhaseJamPlan::idle(ctx.spectrum)
    }
}

/// Rounds to the nearest whole count, ties away from zero; negative and
/// NaN values give 0. Bit-identical to `v.round().max(0.0) as u64`
/// without `round`'s libm call: truncation is exact, and so is the
/// remainder it leaves. Below 2^52 the conversions go through `i64`,
/// which baseline x86-64 converts in one instruction each way; from
/// 2^52 up every float is already whole.
fn round_count(v: f64) -> u64 {
    if v < 4_503_599_627_370_496.0 {
        let whole = v as i64;
        let rounded = whole + i64::from(v - whole as f64 >= 0.5);
        rounded.max(0) as u64
    } else {
        v as u64
    }
}

/// How a phase tier turns the recurrence's random quantities into
/// numbers: by drawing them ([`Sampled`]) or by taking their means
/// ([`Expected`]).
pub(crate) trait Realization {
    /// The outcome's engine tag.
    const ENGINE: EngineKind;
    /// The telemetry tier label.
    const TIER: EngineTier;
    /// Whether jam plans execute in whole slots.
    const WHOLE: bool;

    /// `Bin(trials · slots, p)`: `trials` devices acting in each of
    /// `slots` slots with probability `p`.
    fn binomial(&mut self, trials: f64, slots: u64, p: f64) -> f64;

    /// `population` devices acting over a fractional `slots_each` slots
    /// with probability `p`.
    fn scaled(&mut self, population: f64, slots_each: f64, p: f64) -> f64;

    /// Listens of `newly` informed devices up to their informing slot:
    /// the informing listen itself plus `pre_slots` earlier slots at
    /// rate `p_pre`.
    fn informing_listens(&mut self, newly: f64, pre_slots: f64, p_pre: f64) -> f64;

    /// Splits `total` over `out`'s bins in proportion to `weights`.
    fn split(&mut self, total: f64, weights: &[f64], out: &mut [f64]);

    /// Splits `total` evenly over `out`'s bins.
    fn split_even(&mut self, total: f64, out: &mut [f64]);

    /// Alice's channel for one epoch, or `None` when the epoch mixes
    /// over her uniform residency instead.
    fn alice_channel(&mut self, c: usize) -> Option<usize>;

    /// Shrinks a clamped jam whose `total` exceeds the positive
    /// remaining budget `rem` to exactly `rem`, proportionally.
    fn fizzle(jam: &mut [f64], total: f64, rem: f64);
}

/// The sampled realization (`fast_mc`, `fast`): whole counts drawn from
/// one seeded stream.
pub(crate) struct Sampled {
    rng: SimRng,
    /// Unit weights for even splits, grown to the widest one seen.
    ones: Vec<f64>,
}

impl Sampled {
    /// Draws from the run's `stream` under `seed`.
    pub(crate) fn new(seed: u64, stream: &str) -> Self {
        Self {
            rng: SeedTree::new(seed).stream(stream, 0),
            ones: Vec::new(),
        }
    }
}

fn sample_bin(rng: &mut SimRng, n: u64, p: f64) -> u64 {
    Binomial::new(n, p.clamp(0.0, 1.0))
        .expect("probability already clamped")
        .sample(rng)
}

/// A multinomial as sequential binomials. Zero-weight bins receive
/// nothing; if every weight is zero the total is dropped.
fn multinomial(rng: &mut SimRng, total: f64, weights: &[f64], out: &mut [f64]) {
    out.fill(0.0);
    let mut remaining = total as u64;
    let mut weight_left: f64 = weights.iter().map(|w| w.max(0.0)).sum();
    for (i, &w) in weights.iter().enumerate() {
        if remaining == 0 || weight_left <= 0.0 {
            break;
        }
        let w = w.max(0.0);
        let p = (w / weight_left).clamp(0.0, 1.0);
        // Last positive-weight bin takes the exact remainder (floating
        // residue in weight_left must never shunt mass onto a
        // zero-weight — e.g. fully jammed — bin).
        let draw = if i + 1 == weights.len() && w > 0.0 && (weight_left - w).abs() < 1e-12 {
            remaining
        } else {
            sample_bin(rng, remaining, p)
        };
        out[i] = draw as f64;
        remaining -= draw;
        weight_left -= w;
    }
}

impl Realization for Sampled {
    const ENGINE: EngineKind = EngineKind::Fast;
    const TIER: EngineTier = EngineTier::FastMc;
    const WHOLE: bool = true;

    fn binomial(&mut self, trials: f64, slots: u64, p: f64) -> f64 {
        sample_bin(&mut self.rng, (trials as u64).saturating_mul(slots), p) as f64
    }

    /// `Bin(round(population · slots_each), p)`.
    fn scaled(&mut self, population: f64, slots_each: f64, p: f64) -> f64 {
        let trials = (population * slots_each).round();
        if trials <= 0.0 {
            return 0.0;
        }
        sample_bin(&mut self.rng, trials as u64, p) as f64
    }

    fn informing_listens(&mut self, newly: f64, pre_slots: f64, p_pre: f64) -> f64 {
        newly + self.scaled(newly, pre_slots, p_pre)
    }

    fn split(&mut self, total: f64, weights: &[f64], out: &mut [f64]) {
        multinomial(&mut self.rng, total, weights, out);
    }

    fn split_even(&mut self, total: f64, out: &mut [f64]) {
        if self.ones.len() < out.len() {
            self.ones.resize(out.len(), 1.0);
        }
        multinomial(&mut self.rng, total, &self.ones[..out.len()], out);
    }

    fn alice_channel(&mut self, c: usize) -> Option<usize> {
        Some(if c > 1 { self.rng.gen_range(0..c) } else { 0 })
    }

    /// Integer fizzle: every channel scales down, and the remainder lands
    /// on the lowest-indexed channels with spare requested capacity.
    fn fizzle(jam: &mut [f64], total: f64, rem: f64) {
        let (total, rem) = (total as u64, rem as u64);
        let share =
            |requested: u64| ((u128::from(requested) * u128::from(rem)) / u128::from(total)) as u64;
        let mut leftover = rem - jam.iter().map(|&j| share(j as u64)).sum::<u64>();
        for slots in jam.iter_mut() {
            let requested = *slots as u64;
            let executed = share(requested);
            let add = (requested - executed).min(leftover);
            leftover -= add;
            *slots = (executed + add) as f64;
        }
    }
}

/// The fluid realization: exact means, no RNG.
pub(crate) struct Expected;

impl Realization for Expected {
    const ENGINE: EngineKind = EngineKind::Fluid;
    const TIER: EngineTier = EngineTier::Fluid;
    const WHOLE: bool = false;

    fn binomial(&mut self, trials: f64, slots: u64, p: f64) -> f64 {
        trials * slots as f64 * p
    }

    fn scaled(&mut self, population: f64, slots_each: f64, p: f64) -> f64 {
        population * slots_each * p
    }

    fn informing_listens(&mut self, newly: f64, pre_slots: f64, p_pre: f64) -> f64 {
        newly * (1.0 + pre_slots * p_pre)
    }

    fn split(&mut self, total: f64, weights: &[f64], out: &mut [f64]) {
        let sum: f64 = weights.iter().sum();
        for (share, &w) in out.iter_mut().zip(weights) {
            *share = if sum > 0.0 { total * w / sum } else { 0.0 };
        }
    }

    fn split_even(&mut self, total: f64, out: &mut [f64]) {
        out.fill(total / out.len() as f64);
    }

    fn alice_channel(&mut self, _c: usize) -> Option<usize> {
        None
    }

    fn fizzle(jam: &mut [f64], total: f64, rem: f64) {
        let scale = rem / total;
        for slots in jam {
            *slots *= scale;
        }
    }
}

/// The protocol shape both tiers' configs share.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Shape {
    pub(crate) n: u64,
    pub(crate) horizon: u64,
    pub(crate) listen_p: f64,
    pub(crate) relay_rate: f64,
    pub(crate) carol_budget: Option<u64>,
}

impl Shape {
    fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.listen_p),
            "listen_p must be a probability"
        );
        assert!(
            self.relay_rate.is_finite() && self.relay_rate >= 0.0,
            "relay_rate must be nonnegative and finite"
        );
    }

    /// Per-slot relay probability `relay_rate / n`.
    fn relay_p(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.relay_rate / self.n as f64).clamp(0.0, 1.0)
        }
    }
}

/// One phase's telemetry.
struct PhaseRecord {
    index: u32,
    phase_len: u64,
    requested: f64,
    executed: f64,
    newly: f64,
    rendezvous_p: f64,
    /// The fraction of slots the attack left clean: the spectrum-average
    /// clean fraction on the hopping schedules, the surviving `m`-slot
    /// (or, in request phases, quiet-slot) fraction on ε-BROADCAST.
    survive_p: f64,
    uninformed: f64,
    schedule: ScheduleFields,
}

/// The event fields only one schedule records.
enum ScheduleFields {
    /// Hopping: the spectrum-wide coincidence probability (memoryless
    /// schedule only; the epoch schedule has one per channel).
    Hopping { p_one: Option<f64> },
    /// ε-BROADCAST: the round, and the uninformed nodes that terminated.
    Broadcast { round: u32, terminated: f64 },
}

/// One run's telemetry, accumulated locally and flushed in bulk.
///
/// The recording seam must stay cheap against the phase loop (E18 times
/// it beside its attached-noop gate): counters sum into plain numbers
/// here and hit the shared atomics once per run, gauges keep last-write-wins
/// semantics by writing only the final phase's values, and events buffer
/// into a reusable `Vec` flushed through [`Collector::event_batch`]
/// every [`EVENT_FLUSH_CHUNK`] phases — one store lock per chunk
/// instead of per phase. Each tier keeps its own counters: `Fluid*` on
/// the fluid tier, `Fast*` on the sampled ones.
struct Recorder {
    tier: EngineTier,
    protocol: &'static str,
    events: Vec<Event>,
    phases: u64,
    informed: f64,
    jam_requested: f64,
    jam_executed: f64,
    last: Option<PhaseRecord>,
}

impl Recorder {
    /// A recorder for one run, or `None` when `collector` is disabled.
    fn new<C: Collector + ?Sized>(
        collector: &C,
        tier: EngineTier,
        protocol: &'static str,
    ) -> Option<Self> {
        collector.enabled().then(|| Self {
            tier,
            protocol,
            events: Vec::new(),
            phases: 0,
            informed: 0.0,
            jam_requested: 0.0,
            jam_executed: 0.0,
            last: None,
        })
    }

    fn record<C: Collector + ?Sized>(&mut self, collector: &C, phase: PhaseRecord) {
        self.phases += 1;
        self.informed += phase.newly;
        self.jam_requested += phase.requested;
        self.jam_executed += phase.executed;
        let jam = [
            ("phase_len", phase.phase_len as f64),
            ("jam_requested", phase.requested),
            ("jam_executed", phase.executed),
        ];
        let (rendezvous, newly) = (
            ("rendezvous_p", phase.rendezvous_p),
            ("newly_informed", phase.newly),
        );
        let uninformed = ("uninformed", phase.uninformed);
        let fields = match phase.schedule {
            ScheduleFields::Hopping { p_one } => (jam.into_iter())
                .chain(p_one.map(|p| ("p_one", p)))
                .chain([
                    ("clean_avg", phase.survive_p),
                    rendezvous,
                    newly,
                    uninformed,
                ])
                .collect(),
            ScheduleFields::Broadcast { round, terminated } => [("round", f64::from(round))]
                .into_iter()
                .chain(jam)
                .chain([newly, ("terminated", terminated), rendezvous])
                .chain([("survive_p", phase.survive_p), uninformed])
                .collect(),
        };
        self.events.push(Event {
            tier: self.tier,
            protocol: self.protocol,
            name: "phase",
            index: u64::from(phase.index),
            fields,
        });
        self.last = Some(phase);
        if self.events.len() >= EVENT_FLUSH_CHUNK {
            collector.event_batch(&mut self.events);
        }
    }

    fn finish<C: Collector + ?Sized>(&mut self, collector: &C) {
        if self.tier == EngineTier::Fluid {
            collector.add(MetricId::FluidPhases, self.phases);
            if let Some(last) = &self.last {
                collector.gauge(MetricId::FluidUninformed, last.uninformed);
            }
        } else {
            collector.add(MetricId::FastPhases, self.phases);
            collector.add(MetricId::FastInformed, self.informed as u64);
            collector.add(MetricId::FastJamRequested, self.jam_requested as u64);
            collector.add(MetricId::FastJamExecuted, self.jam_executed as u64);
            if let Some(last) = &self.last {
                collector.gauge(MetricId::FastRendezvousP, last.rendezvous_p);
                collector.gauge(MetricId::FastSurviveP, last.survive_p);
            }
        }
        collector.event_batch(&mut self.events);
    }
}

/// The state both schedules share: Carol's jam and ledger, the correct
/// side's costs, this phase's per-channel tallies and the run totals,
/// all in per-run buffers.
struct Run<'a, R, C: ?Sized> {
    real: R,
    shape: Shape,
    spectrum: Spectrum,
    adversary: &'a mut dyn PhaseJammer,
    collector: &'a C,
    telemetry: Option<Recorder>,
    /// What the jammer sees of the last phase.
    observation: PhaseObservation,
    /// This phase's executed jam and correct-side tallies, per channel.
    jam: Vec<f64>,
    sends: Vec<f64>,
    listens: Vec<f64>,
    delivered: Vec<f64>,
    /// Per-channel run totals of the sends, listens, jams and
    /// deliveries columns.
    totals: [Vec<f64>; 4],
    informed: f64,
    alice_sends: f64,
    node_sends: f64,
    node_listens: f64,
    carol_jams: f64,
    full_delivery_phase: Option<u32>,
}

impl<'a, R: Realization, C: Collector + ?Sized> Run<'a, R, C> {
    fn new(
        real: R,
        shape: &Shape,
        spectrum: Spectrum,
        adversary: &'a mut dyn PhaseJammer,
        collector: &'a C,
        protocol: &'static str,
    ) -> Self {
        shape.validate();
        let c = spectrum.channel_count() as usize;
        Self {
            real,
            shape: *shape,
            spectrum,
            adversary,
            collector,
            telemetry: Recorder::new(collector, R::TIER, protocol),
            observation: PhaseObservation::empty(spectrum),
            jam: vec![0.0; c],
            sends: vec![0.0; c],
            listens: vec![0.0; c],
            delivered: vec![0.0; c],
            totals: std::array::from_fn(|_| vec![0.0; c]),
            informed: 0.0,
            alice_sends: 0.0,
            node_sends: 0.0,
            node_listens: 0.0,
            carol_jams: 0.0,
            full_delivery_phase: None,
        }
    }

    /// Consults the jammer for the phase `[start, start + s)` and
    /// executes its plan into `self.jam`; returns the clamped request.
    fn jam(&mut self, phase: u32, start: u64, s: u64, uninformed: f64) -> f64 {
        let remaining = self
            .shape
            .carol_budget
            .map(|cap| (cap as f64 - self.carol_jams).max(0.0));
        let plan = self.adversary.plan_phase(&PhaseJamCtx {
            phase,
            start_slot: start,
            phase_len: s,
            spectrum: self.spectrum,
            budget_remaining: remaining.map(|rem| rem as u64),
            uninformed: round_count(uninformed),
            informed: round_count(self.informed),
            observation: &self.observation,
        });
        let requested = execute_jam::<R>(&plan, s, remaining, &mut self.jam);
        self.carol_jams += self.jam.iter().sum::<f64>();
        requested
    }

    /// Closes a phase of `s` slots: this phase's tallies become the
    /// jammer's next observation and join the run totals.
    fn close_phase(&mut self, s: u64) {
        let obs = &mut self.observation;
        obs.slots = s;
        let columns = [
            (&self.sends, &mut obs.correct_sends),
            (&self.listens, &mut obs.listens),
            (&self.jam, &mut obs.jammed_slots),
            (&self.delivered, &mut obs.delivered),
        ];
        for ((tally, seen), totals) in columns.into_iter().zip(&mut self.totals) {
            for ((&value, count), total) in tally.iter().zip(seen.iter_mut()).zip(totals) {
                *count = round_count(value);
                *total += value;
            }
        }
    }

    fn record(&mut self, phase: PhaseRecord) {
        if let Some(recorder) = &mut self.telemetry {
            recorder.record(self.collector, phase);
        }
    }

    /// Rounds the run totals into the common outcome shape — the one
    /// rounding step. Each per-channel column is apportioned to its
    /// rounded total, so the channel stats reconcile with the ledger:
    /// sends with Alice's and the nodes' sends, listens with the nodes'
    /// listens, jams with Carol's spend, deliveries with the informed
    /// count.
    fn finish(mut self, phases: u32) -> (BroadcastOutcome, Vec<ChannelStats>) {
        if let Some(recorder) = &mut self.telemetry {
            recorder.finish(self.collector);
        }
        let n = self.shape.n;
        let informed = round_count(self.informed).min(n);
        let alice_cost = CostBreakdown {
            sends: round_count(self.alice_sends),
            ..CostBreakdown::default()
        };
        let node_total_cost = CostBreakdown {
            sends: round_count(self.node_sends),
            listens: round_count(self.node_listens),
            ..CostBreakdown::default()
        };
        let carol_cost = CostBreakdown {
            jams: round_count(self.carol_jams),
            ..CostBreakdown::default()
        };
        let [sends, listens, jams, delivered] = &self.totals;
        let sends = apportion(sends, alice_cost.sends + node_total_cost.sends);
        let listens = apportion(listens, node_total_cost.listens);
        let jams = apportion(jams, carol_cost.jams);
        let delivered = apportion(delivered, informed);
        let stats = (0..sends.len())
            .map(|ch| ChannelStats {
                correct_sends: sends[ch],
                correct_listens: listens[ch],
                byz_sends: 0,
                jammed_slots: jams[ch],
                delivered: delivered[ch],
            })
            .collect();
        let outcome = BroadcastOutcome {
            n,
            informed_nodes: informed,
            uninformed_terminated: 0,
            unterminated_nodes: n - informed,
            alice_terminated: true,
            alice_cost,
            node_total_cost,
            max_node_cost: None,
            carol_cost,
            // Mirror the exact engine: every device terminates at its
            // first activation past the horizon.
            slots: self.shape.horizon + 1,
            // Latency proxy: the phase in which the (expected) uninformed
            // count fell below half a node, or the phase count when it
            // never did.
            rounds_entered: self.full_delivery_phase.unwrap_or(phases),
            engine: R::ENGINE,
            node_costs: None,
        };
        (outcome, stats)
    }
}

/// Rounds a column of non-negative values to whole counts summing to
/// `total`, by largest remainder: every value rounds down, then the
/// largest remainders (lowest channel first on ties) take one more unit
/// each until the column reaches `total`. Rounding down never overshoots
/// a rounded total of the same mass, and a whole-number column that
/// already sums to `total` — every sampled run — comes back unchanged.
fn apportion(column: &[f64], total: u64) -> Vec<u64> {
    let mut counts: Vec<u64> = column.iter().map(|&v| v as u64).collect();
    let deficit = total.saturating_sub(counts.iter().sum());
    let remainder = |ch: usize| column[ch] - counts[ch] as f64;
    let mut by_remainder: Vec<usize> = (0..column.len()).collect();
    by_remainder.sort_by(|&a, &b| remainder(b).total_cmp(&remainder(a)));
    for &ch in by_remainder.iter().cycle().take(deficit as usize) {
        counts[ch] += 1;
    }
    counts
}

/// Clamps `plan` to the phase and to Carol's remaining budget, into
/// `jam`, and returns the clamped request.
///
/// Each channel is capped at `s` slots (non-finite entries are dropped,
/// and the sampled tier rounds to whole slots). If the total still
/// exceeds the remaining budget, every channel scales down
/// proportionally — the slot-major spending of the exact engine drains
/// channels uniformly in time, not channel 0 first.
fn execute_jam<R: Realization>(
    plan: &PhaseJamPlan,
    s: u64,
    remaining: Option<f64>,
    jam: &mut [f64],
) -> f64 {
    for (ch, slots) in jam.iter_mut().enumerate() {
        let planned = plan.jam_slots().get(ch).copied().unwrap_or(0.0);
        let planned = if planned.is_finite() {
            planned.clamp(0.0, s as f64)
        } else {
            0.0
        };
        *slots = if R::WHOLE {
            round_count(planned) as f64
        } else {
            planned
        };
    }
    let requested: f64 = jam.iter().sum();
    match remaining {
        Some(rem) if requested > rem && rem <= 0.0 => jam.fill(0.0),
        Some(rem) if requested > rem => R::fizzle(jam, requested, rem),
        _ => {}
    }
    requested
}

/// `E[T | T ≤ s]` for `T ~ Geometric(p)` (first-success index, 1-based):
/// the expected informing slot of a node known to inform within the
/// phase.
fn truncated_geometric_mean(p: f64, s: u64) -> f64 {
    if p <= 0.0 {
        return s as f64;
    }
    if p >= 1.0 {
        return 1.0;
    }
    let q = 1.0 - p;
    let qs = q.powf(s as f64);
    if 1.0 - qs <= f64::EPSILON {
        return s as f64;
    }
    ((1.0 / p) - (s as f64) * qs / (1.0 - qs)).clamp(1.0, s as f64)
}

/// What `u` uninformed listeners do over one phase of `s` slots.
#[derive(Default)]
struct Delivery {
    /// Probability that a listener is informed within the phase.
    p_phase: f64,
    newly: f64,
    listens: f64,
    /// Relay sends of the newly informed after their informing slot.
    post_sends: f64,
}

/// One phase of rendezvous for `u` listeners at per-slot coincidence
/// probability `p_one` on a `clean` fraction of unjammed slots.
fn deliver<R: Realization>(
    real: &mut R,
    (listen_p, p_r): (f64, f64),
    u: f64,
    s: u64,
    p_one: f64,
    clean: f64,
) -> Delivery {
    let p_inform = (listen_p * p_one * clean).clamp(0.0, 1.0);
    // The first rendezvous is geometric in the per-slot informing
    // probability.
    let p_phase = 1.0 - (1.0 - p_inform).powf(s as f64);
    let newly = real.binomial(u, 1, p_phase);
    // Survivors listen the whole phase; the newly informed listen up to
    // their expected informing slot (one guaranteed listen — the
    // informing one — plus the pre-success listening rate over the slots
    // before it), and relay for the rest of the phase.
    let mut listens = real.binomial(u - newly, s, listen_p);
    let mut post_sends = 0.0;
    if newly > 0.0 {
        let e_slot = truncated_geometric_mean(p_inform, s);
        let p_pre = if p_inform >= 1.0 {
            0.0
        } else {
            listen_p * (1.0 - p_one * clean) / (1.0 - p_inform)
        };
        listens += real.informing_listens(newly, (e_slot - 1.0).max(0.0), p_pre);
        post_sends = real.scaled(newly, (s as f64 - e_slot).max(0.0), p_r);
    }
    Delivery {
        p_phase,
        newly,
        listens,
        post_sends,
    }
}

/// The memoryless hopping recurrence: phases of `phase_len` slots, every
/// device on a fresh uniform channel each slot.
pub(crate) fn run_memoryless<R: Realization, C: Collector + ?Sized>(
    real: R,
    shape: &Shape,
    phase_len: u64,
    spectrum: Spectrum,
    adversary: &mut dyn PhaseJammer,
    collector: &C,
) -> (BroadcastOutcome, Vec<ChannelStats>) {
    let mut run = Run::new(real, shape, spectrum, adversary, collector, "hopping");
    assert!(phase_len > 0, "phase_len must be at least one slot");
    let c = spectrum.channel_count() as f64;
    let p_r = shape.relay_p();
    let rates = (shape.listen_p, p_r);
    let mut u = shape.n as f64;
    let mut clean = vec![0.0; run.jam.len()];

    let mut start = 0u64;
    let mut phase: u32 = 0;
    while start < shape.horizon {
        let s = (shape.horizon - start).min(phase_len);
        let requested = run.jam(phase, start, s, u);

        // Correct-side transmissions (frozen informed set).
        let alice_sends = run.real.binomial(1.0, s, ALICE_SEND_P);
        run.alice_sends += alice_sends;
        let relay_sends = run.real.binomial(run.informed, s, p_r);

        // Sender–listener channel coincidence: probability that exactly
        // one correct transmission lands on a given channel in a slot.
        let q_a = ALICE_SEND_P / c;
        let q_r = p_r / c;
        let i_f = run.informed;
        let p_one = (q_a * (1.0 - q_r).powf(i_f)
            + i_f * q_r * (1.0 - q_a) * (1.0 - q_r).powf((i_f - 1.0).max(0.0)))
        .clamp(0.0, 1.0);

        // Per-channel clean fractions from the executed jam, and their
        // spectrum average (listeners hop uniformly).
        for (w, &j) in clean.iter_mut().zip(&run.jam) {
            *w = 1.0 - j / s as f64;
        }
        let clean_avg = clean.iter().sum::<f64>() / c;
        let d = deliver(&mut run.real, rates, u, s, p_one, clean_avg);
        run.node_listens += d.listens;
        run.node_sends += relay_sends + d.post_sends;

        // Per-channel attribution: uniform hopping spreads sends and
        // listens evenly; deliveries weight by clean fraction.
        let total_sends = alice_sends + relay_sends + d.post_sends;
        run.real.split_even(total_sends, &mut run.sends);
        run.real.split_even(d.listens, &mut run.listens);
        run.real.split(d.newly, &clean, &mut run.delivered);
        run.close_phase(s);

        u -= d.newly;
        run.informed += d.newly;
        if u < 0.5 && run.full_delivery_phase.is_none() {
            run.full_delivery_phase = Some(phase);
        }
        let executed = run.jam.iter().sum();
        run.record(PhaseRecord {
            index: phase,
            phase_len: s,
            requested,
            executed,
            newly: d.newly,
            rendezvous_p: d.p_phase,
            survive_p: clean_avg,
            uninformed: u,
            schedule: ScheduleFields::Hopping { p_one: Some(p_one) },
        });
        start += s;
        phase += 1;
    }
    run.finish(phase)
}

/// The epoch hopping recurrence: one phase per epoch of `epoch_len`
/// slots, with the per-channel census — uninformed listeners and relays
/// by channel — carried across epochs.
///
/// Alice holds one uniform channel per epoch. The sampled tier draws it;
/// the fluid tier conditions over it: each channel hosts her with
/// probability `1/C`, and its epoch outcome is the `1/C : (C−1)/C`
/// mixture of the with-Alice and without-Alice branch outcomes. The
/// epoch-level delivery probability `1 − (1 − p)^s` is sharply convex in
/// `p` at epoch lengths, so the mix must happen on the branches' *phase
/// outcomes*, not on their coincidence probabilities — mixing before the
/// exponentiation overstates delivery on Alice-less channels by orders
/// of magnitude at `C > 1`.
pub(crate) fn run_epoch<R: Realization, C: Collector + ?Sized>(
    real: R,
    shape: &Shape,
    epoch_len: u64,
    spectrum: Spectrum,
    adversary: &mut dyn PhaseJammer,
    collector: &C,
) -> (BroadcastOutcome, Vec<ChannelStats>) {
    let mut run = Run::new(real, shape, spectrum, adversary, collector, "epoch-hopping");
    assert!(epoch_len > 0, "epoch_len must be at least one slot");
    let c = run.jam.len();
    let p_r = shape.relay_p();
    let rates = (shape.listen_p, p_r);
    let detect_q = 1.0 - shape.listen_p;
    let mut u_by = vec![0.0; c];
    run.real.split_even(shape.n as f64, &mut u_by);
    let mut r_by = vec![0.0; c];
    let mut relay_by = vec![0.0; c];
    let mut survivors_by = vec![0.0; c];
    let mut next_u = vec![0.0; c];
    let mut spread = vec![0.0; c];

    let mut start = 0u64;
    let mut phase: u32 = 0;
    while start < shape.horizon {
        let s = (shape.horizon - start).min(epoch_len);
        let uninformed: f64 = u_by.iter().sum();
        let requested = run.jam(phase, start, s, uninformed);

        let alice_ch = run.real.alice_channel(c);
        let alice_sends = run.real.binomial(1.0, s, ALICE_SEND_P);
        run.alice_sends += alice_sends;
        let relay_sends = run.real.binomial(run.informed, s, p_r);
        run.real.split(relay_sends, &r_by, &mut relay_by);

        // Per-channel rendezvous from the local sender census (no 1/C
        // spectrum averaging — the whole point of holding a channel).
        let mut newly_total = 0.0;
        let mut rendezvous_acc = 0.0;
        let mut clean_acc = 0.0;
        for ch in 0..c {
            let r_ch = r_by[ch];
            let relays_alone = r_ch * p_r * (1.0 - p_r).powf((r_ch - 1.0).max(0.0));
            let clean = 1.0 - run.jam[ch] / s as f64;
            let with_alice = match alice_ch {
                Some(a) if a == ch => 1.0,
                Some(_) => 0.0,
                None => 1.0 / c as f64,
            };
            let branches = [
                (
                    with_alice,
                    (ALICE_SEND_P * (1.0 - p_r).powf(r_ch) + relays_alone * (1.0 - ALICE_SEND_P))
                        .clamp(0.0, 1.0),
                ),
                (1.0 - with_alice, relays_alone.clamp(0.0, 1.0)),
            ];
            // Zero-weight branches are skipped, so a sampled epoch draws
            // exactly one.
            let mut mixed = Delivery::default();
            for (weight, p_one) in branches {
                if weight > 0.0 {
                    let d = deliver(&mut run.real, rates, u_by[ch], s, p_one, clean);
                    mixed.p_phase += weight * d.p_phase;
                    mixed.newly += weight * d.newly;
                    mixed.listens += weight * d.listens;
                    mixed.post_sends += weight * d.post_sends;
                }
            }
            survivors_by[ch] = u_by[ch] - mixed.newly;
            newly_total += mixed.newly;
            rendezvous_acc += mixed.p_phase * u_by[ch];
            clean_acc += clean;

            run.node_listens += mixed.listens;
            run.node_sends += relay_by[ch] + mixed.post_sends;
            run.sends[ch] = relay_by[ch] + mixed.post_sends + alice_sends * with_alice;
            run.listens[ch] = mixed.listens;
            run.delivered[ch] = mixed.newly;
        }
        run.informed += newly_total;
        run.close_phase(s);

        // Boundary redraw. Detected survivors (heard the jam) exclude
        // their channel; everyone else — undetected survivors, relays —
        // redraws uniformly.
        if c > 1 {
            next_u.fill(0.0);
            let mut uniform_pool = 0.0;
            for (ch, (&survivors, &jam)) in survivors_by.iter().zip(&run.jam).enumerate() {
                let p_detect = (1.0 - detect_q.powf(jam.min(s as f64))).clamp(0.0, 1.0);
                let detected = run.real.binomial(survivors, 1, p_detect);
                uniform_pool += survivors - detected;
                if detected > 0.0 {
                    run.real.split_even(detected, &mut spread[..c - 1]);
                    let mut others = spread.iter();
                    for (other, slot) in next_u.iter_mut().enumerate() {
                        if other != ch {
                            *slot += others.next().expect("one share per other channel");
                        }
                    }
                }
            }
            run.real.split_even(uniform_pool, &mut spread);
            for (slot, extra) in next_u.iter_mut().zip(&spread) {
                *slot += extra;
            }
            std::mem::swap(&mut u_by, &mut next_u);
            run.real.split_even(run.informed, &mut r_by);
        } else {
            u_by[0] = survivors_by[0];
            r_by[0] = run.informed;
        }

        let u_total: f64 = u_by.iter().sum();
        if u_total < 0.5 && run.full_delivery_phase.is_none() {
            run.full_delivery_phase = Some(phase);
        }
        let executed = run.jam.iter().sum();
        run.record(PhaseRecord {
            index: phase,
            phase_len: s,
            requested,
            executed,
            newly: newly_total,
            rendezvous_p: if uninformed > 0.0 {
                rendezvous_acc / uninformed
            } else {
                0.0
            },
            survive_p: clean_acc / c as f64,
            uninformed: u_total,
            schedule: ScheduleFields::Hopping { p_one: None },
        });
        start += s;
        phase += 1;
    }
    run.finish(phase)
}

/// Who seeds `m` in an inform or propagation phase.
#[derive(Clone, Copy)]
enum Seeding {
    /// Alice, transmitting with this per-slot probability.
    Alice(f64),
    /// Last phase's newly informed nodes, each transmitting with this
    /// per-slot probability.
    Relays(f64),
}

/// Carol's executed moves for one ε-BROADCAST phase.
struct Attack {
    jam: f64,
    byz: f64,
    spare: Option<f64>,
}

/// One ε-BROADCAST phase's outcome, as its telemetry event reports it.
#[derive(Default)]
struct BroadcastDigest {
    /// Nodes newly informed (seeding phases only).
    informed: f64,
    /// Uninformed nodes that terminated (request phases only).
    terminated: f64,
    /// Probability an uninformed listener met a surviving `m`-slot
    /// (request phases: 0).
    rendezvous_p: f64,
    /// Fraction of `m`-slots surviving jam, spoof and decoy thinning
    /// (request phases: the complement of the noise probability).
    survive_p: f64,
}

/// The ε-BROADCAST population and ledgers.
#[derive(Default)]
struct Broadcast {
    uninformed: f64,
    /// Nodes informed in the last seeding phase: the next propagation
    /// step's relays.
    relay_set: f64,
    /// Informed nodes past their relay duty.
    informed_done: f64,
    uninformed_terminated: f64,
    alice_terminated: bool,
    alice_sends: f64,
    alice_listens: f64,
    node_sends: f64,
    node_listens: f64,
    carol_jams: f64,
    carol_sends: f64,
}

impl Broadcast {
    /// Consults Carol for the phase `[start, start + s)` and executes her
    /// plan against her remaining budget: the jam through
    /// [`execute_jam`], then as many Byzantine frames as the rest covers.
    /// Returns the clamped jam request and what executes.
    fn attack<R: Realization>(
        &mut self,
        adversary: &mut dyn PhaseJammer,
        carol_budget: Option<u64>,
        phase: usize,
        start: u64,
        s: u64,
    ) -> (f64, Attack) {
        let remaining =
            carol_budget.map(|cap| (cap as f64 - (self.carol_jams + self.carol_sends)).max(0.0));
        let plan = adversary.plan_phase(&PhaseJamCtx {
            phase: phase as u32,
            start_slot: start,
            phase_len: s,
            spectrum: Spectrum::single(),
            budget_remaining: remaining.map(|rem| rem as u64),
            uninformed: round_count(self.uninformed),
            informed: round_count(self.informed_done + self.relay_set),
            observation: &PhaseObservation::default(),
        });
        let mut jam = [0.0];
        let requested = execute_jam::<R>(&plan, s, remaining, &mut jam);
        let [jam] = jam;
        let byz = (plan.byz_sends as f64)
            .min(s as f64)
            .min(remaining.map_or(f64::INFINITY, |rem| rem - jam));
        self.carol_jams += jam;
        self.carol_sends += byz;
        let spare = plan.spare.map(|x| x as f64);
        (requested, Attack { jam, byz, spare })
    }

    /// Inform and propagation phases share one structure: a seeding
    /// source transmits `m`, uninformed nodes listen, and jamming, decoys
    /// and Byzantine frames thin the slots that carry it; a listener of a
    /// surviving slot is informed.
    fn seeding<R: Realization>(
        &mut self,
        real: &mut R,
        s: u64,
        attack: &Attack,
        source: Seeding,
        probs: &PhaseProbabilities,
    ) -> BroadcastDigest {
        let (listen_p, decoy_p) = (probs.uninformed_listen, probs.decoy_send);
        let u = self.uninformed;
        // Decoy noise per slot; the decoy senders are all active correct
        // nodes, about the uninformed plus the relays.
        let active = u + self.relay_set;
        let p_decoy_slot = if decoy_p > 0.0 {
            1.0 - (1.0 - decoy_p).powf(active)
        } else {
            0.0
        };
        if decoy_p > 0.0 && active > 0.0 {
            self.node_sends += real.binomial(active, s, decoy_p);
        }

        // Slots carrying exactly one copy of `m` from the seeding source.
        let m_slots = match source {
            Seeding::Alice(alice_send) => {
                let sends = real.binomial(1.0, s, alice_send);
                self.alice_sends += sends;
                sends
            }
            Seeding::Relays(send_p) => {
                let relays = self.relay_set;
                if relays == 0.0 {
                    // Known ledger error (ROADMAP.md): this skips the uninformed nodes' listens.
                    return BroadcastDigest::default();
                }
                self.node_sends += real.binomial(relays, s, send_p);
                real.binomial(1.0, s, exactly_one_prob(relays, send_p))
            }
        };

        // Thinning: survive uniform jamming, Byzantine collisions and
        // decoy collisions.
        let clean_frac = if attack.spare.is_some() {
            1.0 // spared nodes experience no jamming; others get nothing
        } else {
            1.0 - attack.jam / s as f64
        };
        let byz_frac = 1.0 - attack.byz / s as f64;
        let survive_p = (clean_frac * byz_frac * (1.0 - p_decoy_slot)).clamp(0.0, 1.0);
        let good_slots = real.binomial(m_slots, 1, survive_p);

        // Listening costs for all uninformed nodes over the phase.
        // Known ledger error (ROADMAP.md): nodes informed mid-phase pay for the whole phase.
        if u > 0.0 {
            self.node_listens += real.binomial(u, s, listen_p);
        }

        // Who becomes informed?
        let p_informed = 1.0 - (1.0 - listen_p).powf(good_slots);
        let newly = match attack.spare {
            // Total blockade except x hand-picked nodes.
            Some(x) if attack.jam >= s as f64 => real.binomial(x.min(u), 1, p_informed),
            Some(x) => {
                // Partial jam with spared nodes: spared nodes see all
                // m-slots, others see the thinned ones. Conservative
                // model: spared nodes use the unjammed success probability.
                let unjammed_p = (byz_frac * (1.0 - p_decoy_slot)).clamp(0.0, 1.0);
                let unjammed_good = real.binomial(m_slots, 1, unjammed_p);
                let p_spared = 1.0 - (1.0 - listen_p).powf(unjammed_good);
                let spared = x.min(u);
                let spared_informed = real.binomial(spared, 1, p_spared);
                spared_informed + real.binomial(u - spared, 1, p_informed)
            }
            None => real.binomial(u, 1, p_informed),
        };
        self.uninformed -= newly;
        self.relay_set = newly;
        BroadcastDigest {
            informed: newly,
            terminated: 0.0,
            rendezvous_p: p_informed,
            survive_p,
        }
    }

    /// The request phase: uninformed nodes nack and listen, Alice
    /// listens, and from the termination floor on each of them
    /// terminates when the noise it heard stays within the threshold.
    fn request<R: Realization>(
        &mut self,
        real: &mut R,
        params: &Params,
        round: u32,
        s: u64,
        attack: &Attack,
        probs: &PhaseProbabilities,
    ) -> BroadcastDigest {
        let u = self.uninformed;
        // Per-slot noise probability: a nack from anyone, a Byzantine
        // frame, or a jam (jams are noise for every listener — spares do
        // not matter to the termination counters Carol wants to
        // *inflate*; she spares no one here).
        let p_nack_slot = 1.0 - (1.0 - probs.uninformed_nack).powf(u);
        let attack_frac = ((attack.jam + attack.byz) / s as f64).min(1.0);
        let p_noisy = 1.0 - (1.0 - p_nack_slot) * (1.0 - attack_frac);

        if u > 0.0 {
            self.node_sends += real.binomial(u, s, probs.uninformed_nack);
            self.node_listens += real.binomial(u, s, probs.uninformed_listen);
        }
        let alice_listens = real.binomial(1.0, s, probs.alice_listen);
        self.alice_listens += alice_listens;

        let judged = round >= params.min_termination_round();
        let threshold = params.termination_threshold();
        if judged
            && !self.alice_terminated
            && real.binomial(alice_listens, 1, p_noisy) <= threshold as f64
        {
            self.alice_terminated = true;
        }

        // Each uninformed node's noisy-heard count is
        // Bin(s, listen_p · p_noisy); it terminates iff ≤ threshold.
        let mut terminated = 0.0;
        if u > 0.0 && judged {
            let p_term = binomial_cdf_upto(s, probs.uninformed_listen * p_noisy, threshold);
            terminated = real.binomial(u, 1, p_term);
            self.uninformed -= terminated;
            self.uninformed_terminated += terminated;
        }
        BroadcastDigest {
            informed: 0.0,
            terminated,
            rendezvous_p: 0.0,
            survive_p: 1.0 - p_noisy,
        }
    }
}

/// `P(exactly one of `relays` senders transmits)` in a slot.
fn exactly_one_prob(relays: f64, p: f64) -> f64 {
    if relays == 0.0 || p <= 0.0 {
        return 0.0;
    }
    (relays * p * (1.0 - p).powf(relays - 1.0)).clamp(0.0, 1.0)
}

/// The ε-BROADCAST recurrence: the paper's round schedule — inform, the
/// propagation steps, then request with its noise-count termination
/// test — one phase at a time on one channel, until Alice and every
/// node have terminated or the schedule ends. It records as the `fast`
/// tier, the only one that runs it.
pub(crate) fn run_broadcast<R: Realization, C: Collector + ?Sized>(
    mut real: R,
    params: &Params,
    carol_budget: Option<u64>,
    adversary: &mut dyn PhaseJammer,
    collector: &C,
) -> BroadcastOutcome {
    let mut telemetry = Recorder::new(collector, EngineTier::Fast, "broadcast");
    let n = params.n();
    let mut run = Broadcast {
        uninformed: n as f64,
        ..Broadcast::default()
    };
    let mut slots = 0;
    let mut rounds_entered = params.start_round();
    for (index, (round, phase, s)) in RoundSchedule::new(params).phases().enumerate() {
        if run.uninformed == 0.0 && run.relay_set == 0.0 && run.alice_terminated {
            break;
        }
        rounds_entered = round;
        let (requested, attack) = run.attack::<R>(adversary, carol_budget, index, slots, s);
        let probs = phase_probabilities(params, round, phase);
        let digest = match phase {
            PhaseKind::Inform => {
                let alice = Seeding::Alice(probs.alice_send);
                run.seeding(&mut real, s, &attack, alice, &probs)
            }
            PhaseKind::Propagation { step } => {
                let relays = run.relay_set;
                let relaying = Seeding::Relays(probs.informed_send);
                let digest = run.seeding(&mut real, s, &attack, relaying, &probs);
                // The old relay set terminates informed at the end of its
                // step; nodes informed in the final step get no duty and
                // terminate when the request phase starts.
                run.informed_done += relays;
                if step == params.propagation_steps() {
                    run.informed_done += run.relay_set;
                    run.relay_set = 0.0;
                }
                digest
            }
            PhaseKind::Request => run.request(&mut real, params, round, s, &attack, &probs),
        };
        slots += s;
        if let Some(recorder) = &mut telemetry {
            recorder.record(
                collector,
                PhaseRecord {
                    index: index as u32,
                    phase_len: s,
                    requested,
                    executed: attack.jam,
                    newly: digest.informed,
                    rendezvous_p: digest.rendezvous_p,
                    survive_p: digest.survive_p,
                    uninformed: run.uninformed,
                    schedule: ScheduleFields::Broadcast {
                        round,
                        terminated: digest.terminated,
                    },
                },
            );
        }
    }
    if let Some(recorder) = &mut telemetry {
        recorder.finish(collector);
    }

    let costs = |sends: f64, listens: f64, jams: f64| CostBreakdown {
        sends: round_count(sends),
        listens: round_count(listens),
        jams: round_count(jams),
    };
    BroadcastOutcome {
        n,
        informed_nodes: round_count(run.informed_done + run.relay_set),
        uninformed_terminated: round_count(run.uninformed_terminated),
        unterminated_nodes: round_count(run.uninformed),
        alice_terminated: run.alice_terminated,
        alice_cost: costs(run.alice_sends, run.alice_listens, 0.0),
        node_total_cost: costs(run.node_sends, run.node_listens, 0.0),
        max_node_cost: None,
        carol_cost: costs(run.carol_sends, 0.0, run.carol_jams),
        slots,
        rounds_entered,
        engine: R::ENGINE,
        node_costs: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcb_telemetry::NoopCollector;
    use std::time::Instant;

    /// The two realizations, and the two schedules each runs.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Tier {
        Sampled,
        Expected,
    }
    const TIERS: [Tier; 2] = [Tier::Sampled, Tier::Expected];
    /// `None` = memoryless with 32-slot phases, `Some(len)` = epochs.
    const SCHEDULES: [Option<u64>; 2] = [None, Some(32)];

    /// One run of `(n, horizon, Carol's budget)`; `seed` feeds the
    /// sampled tier only.
    fn run(
        tier: Tier,
        seed: u64,
        (n, horizon, carol_budget): (u64, u64, Option<u64>),
        schedule: Option<u64>,
        channels: u16,
        jammer: &mut dyn PhaseJammer,
    ) -> (BroadcastOutcome, Vec<ChannelStats>) {
        fn on<R: Realization>(
            real: R,
            shape: &Shape,
            schedule: Option<u64>,
            spectrum: Spectrum,
            jammer: &mut dyn PhaseJammer,
        ) -> (BroadcastOutcome, Vec<ChannelStats>) {
            match schedule {
                None => run_memoryless(real, shape, 32, spectrum, jammer, &NoopCollector),
                Some(len) => run_epoch(real, shape, len, spectrum, jammer, &NoopCollector),
            }
        }
        let shape = Shape {
            n,
            horizon,
            listen_p: 0.5,
            relay_rate: 1.0,
            carol_budget,
        };
        let spectrum = Spectrum::new(channels);
        match tier {
            Tier::Sampled => on(
                Sampled::new(seed, "fast-mc"),
                &shape,
                schedule,
                spectrum,
                jammer,
            ),
            Tier::Expected => on(Expected, &shape, schedule, spectrum, jammer),
        }
    }

    /// Blankets the whole spectrum every phase.
    struct Blanket;
    impl PhaseJammer for Blanket {
        fn plan_phase(&mut self, ctx: &PhaseJamCtx<'_>) -> PhaseJamPlan {
            PhaseJamPlan::blanket(ctx.spectrum, ctx.phase_len as f64)
        }
    }

    /// Jams only channel 0, fully.
    struct PinChannelZero;
    impl PhaseJammer for PinChannelZero {
        fn plan_phase(&mut self, ctx: &PhaseJamCtx<'_>) -> PhaseJamPlan {
            let mut plan = PhaseJamPlan::idle(ctx.spectrum);
            plan.set_jam(ChannelId::ZERO, ctx.phase_len as f64);
            plan
        }
    }

    #[test]
    fn quiet_runs_inform_everyone_on_any_spectrum() {
        for (tier, engine) in TIERS.into_iter().zip([EngineKind::Fast, EngineKind::Fluid]) {
            for schedule in SCHEDULES {
                for c in [1u16, 2, 8] {
                    let quiet = &mut SilentPhaseJammer;
                    let (o, stats) = run(tier, 3, (10_000, 4_000, None), schedule, c, quiet);
                    let label = format!("{tier:?} {schedule:?} C={c}: {o:?}");
                    assert!(o.informed_fraction() > 0.99, "{label}");
                    let ledger = (o.engine, o.carol_spend(), o.slots);
                    assert_eq!(ledger, (engine, 0, 4_001), "{label}");
                    assert_eq!(stats.len(), c as usize, "{label}");
                }
            }
        }
    }

    #[test]
    fn large_n_costs_phases_not_nodes() {
        let quiet = &mut SilentPhaseJammer;
        for tier in TIERS {
            for schedule in [None, Some(64)] {
                let (o, _) = run(tier, 5, (1 << 18, 8_000, None), schedule, 8, quiet);
                assert!(o.informed_fraction() > 0.99, "{tier:?} {schedule:?}");
            }
        }
        // The fluid recurrence never touches n except as a scalar, so
        // n = 2^24 costs microseconds. A loose sanity bound rather than a
        // ratio (CI clocks are noisy) — the real guarantee is structural.
        let _ = run(Tier::Expected, 0, (64, 8_000, None), None, 8, quiet);
        let start = Instant::now();
        let (o, _) = run(Tier::Expected, 0, (1 << 24, 8_000, None), None, 8, quiet);
        let elapsed = start.elapsed();
        assert!(o.informed_fraction() > 0.99);
        assert!(elapsed.as_millis() < 100, "fluid run took {elapsed:?}");
    }

    #[test]
    fn runs_replay_bit_for_bit() {
        for schedule in SCHEDULES {
            let render = |tier, seed| {
                let shape = (5_000, 2_000, Some(1_000));
                format!("{:?}", run(tier, seed, shape, schedule, 4, &mut Blanket))
            };
            // The sampled tier replays its seed, and the seed matters...
            assert_eq!(render(Tier::Sampled, 11), render(Tier::Sampled, 11));
            assert_ne!(render(Tier::Sampled, 11), render(Tier::Sampled, 12));
            // ...while the fluid tier has none to replay.
            assert_eq!(render(Tier::Expected, 11), render(Tier::Expected, 12));
        }
    }

    #[test]
    fn blanket_budget_splits_uniformly_and_is_spent() {
        for tier in TIERS {
            let (o, stats) = run(tier, 7, (2_000, 4_000, Some(8_000)), None, 4, &mut Blanket);
            assert_eq!(o.carol_spend(), 8_000, "{tier:?}: she spends it all");
            let per_channel: Vec<u64> = stats.iter().map(|s| s.jammed_slots).collect();
            match tier {
                // Integer fizzle: the remainder lands a slot at a time.
                Tier::Sampled => {
                    assert_eq!(per_channel.iter().sum::<u64>(), 8_000);
                    let (min, max) = (per_channel.iter().min(), per_channel.iter().max());
                    assert!(max.unwrap() - min.unwrap() <= 1, "{per_channel:?}");
                }
                // Exact proportional scaling.
                Tier::Expected => assert_eq!(per_channel, vec![2_000; 4]),
            }
            // The blanket only held 8000/4 = 2000 of 4000 slots: delivery
            // completes once she is broke.
            assert!(o.informed_fraction() > 0.99, "{tier:?}: {o:?}");
        }
    }

    #[test]
    fn unlimited_blanket_blocks_all_delivery() {
        for tier in TIERS {
            for schedule in SCHEDULES {
                let (o, stats) = run(tier, 9, (2_000, 2_000, None), schedule, 2, &mut Blanket);
                let label = format!("{tier:?} {schedule:?}: {stats:?}");
                assert_eq!(o.informed_nodes, 0, "{label}");
                assert!(stats.iter().all(|s| s.delivered == 0), "{label}");
                // Every slot on every channel jammed.
                assert!(stats.iter().all(|s| s.jammed_slots == 2_000), "{label}");
                // Listeners still paid: the attack does not silence radios.
                assert!(o.node_total_cost.listens > 0, "{label}");
            }
        }
    }

    #[test]
    fn partial_jam_redirects_deliveries_to_clean_channels() {
        for tier in TIERS {
            for schedule in SCHEDULES {
                let pin = &mut PinChannelZero;
                let (o, stats) = run(tier, 13, (4_000, 4_000, None), schedule, 4, pin);
                let label = format!("{tier:?} {schedule:?}: {stats:?}");
                assert!(o.informed_fraction() > 0.95, "{label}");
                let pinned = stats[0].delivered;
                if tier == Tier::Expected && schedule.is_some() {
                    // In expectation the pinned channel still hosts a
                    // sliver of deliveries via evasion redraws landing
                    // mid-epoch — but far fewer than any clean channel.
                    let clean = &stats[1..];
                    assert!(clean.iter().all(|s| s.delivered > 2 * pinned), "{label}");
                } else {
                    assert_eq!(pinned, 0, "jammed channel delivers nothing: {label}");
                    assert!(stats[1..].iter().all(|s| s.delivered > 0), "{label}");
                }
            }
        }
    }

    #[test]
    fn observation_reaches_the_jammer_with_one_phase_lag() {
        /// Asserts the first ctx is empty and later ctxs carry the
        /// previous phase's tallies.
        struct ObsProbe {
            phases_seen: u32,
        }
        impl PhaseJammer for ObsProbe {
            fn plan_phase(&mut self, ctx: &PhaseJamCtx<'_>) -> PhaseJamPlan {
                let obs = ctx.observation;
                if ctx.phase == 0 {
                    assert_eq!(obs.slots, 0, "no clairvoyance before phase 0");
                } else {
                    assert!(obs.slots > 0);
                    let sends: u64 = obs.correct_sends.iter().sum();
                    assert!(sends > 0, "Alice transmits every phase in expectation");
                }
                self.phases_seen += 1;
                PhaseJamPlan::idle(ctx.spectrum)
            }
        }
        for tier in TIERS {
            let mut probe = ObsProbe { phases_seen: 0 };
            let _ = run(tier, 17, (500, 640, None), None, 2, &mut probe);
            // 640 slots in 32-slot phases.
            assert_eq!(probe.phases_seen, 20, "{tier:?}");
        }
    }

    #[test]
    fn truncated_phase_at_the_horizon() {
        for tier in TIERS {
            let (o, _) = run(tier, 19, (100, 50, None), None, 1, &mut SilentPhaseJammer);
            assert_eq!(o.slots, 51);
            // 32 + 18 slots = 2 phases.
            assert!(o.rounds_entered <= 2, "{tier:?}");
        }
    }

    #[test]
    #[should_panic(expected = "epoch_len must be at least one slot")]
    fn rejects_zero_epoch_len() {
        let quiet = &mut SilentPhaseJammer;
        let _ = run(Tier::Expected, 1, (10, 10, None), Some(0), 2, quiet);
    }

    #[test]
    fn execute_jam_clamps_and_fizzles_proportionally() {
        fn execute<R: Realization>(s: u64, remaining: Option<f64>) -> Vec<f64> {
            let mut plan = PhaseJamPlan::idle(Spectrum::new(4));
            for (ch, slots) in [100.0, 50.0, 0.0, 200.0].into_iter().enumerate() {
                plan.set_jam(ChannelId::new(ch as u16), slots);
            }
            let mut jam = vec![0.0; 4];
            execute_jam::<R>(&plan, s, remaining, &mut jam);
            jam
        }
        for execute in [execute::<Sampled>, execute::<Expected>] {
            // Clamp to the phase first, then keep what the budget covers.
            assert_eq!(execute(80, None), [80.0, 50.0, 0.0, 80.0]);
            assert_eq!(execute(200, Some(1_000.0)), [100.0, 50.0, 0.0, 200.0]);
            // Broke: nothing executes.
            assert_eq!(execute(200, Some(0.0)), [0.0; 4]);
        }
        // Tight budget: proportional split, exact total — in whole slots
        // on the sampled tier, exact scaling on the fluid tier.
        let sampled = execute::<Sampled>(200, Some(35.0));
        assert_eq!(sampled.iter().sum::<f64>(), 35.0);
        assert!(sampled.iter().all(|j| j.fract() == 0.0), "{sampled:?}");
        assert!(sampled[3] >= sampled[0] && sampled[0] >= sampled[1] && sampled[2] == 0.0);
        let expected = execute::<Expected>(200, Some(35.0));
        assert!((expected.iter().sum::<f64>() - 35.0).abs() < 1e-9);
        assert!((expected[0] / expected[1] - 2.0).abs() < 1e-9 && expected[2] == 0.0);
    }

    #[test]
    fn splits_conserve_and_respect_zero_weights() {
        fn split<R: Realization>(real: &mut R, total: f64, weights: &[f64]) -> Vec<f64> {
            let mut out = vec![f64::NAN; weights.len()];
            real.split(total, weights, &mut out);
            out
        }
        fn even<R: Realization>(real: &mut R, total: f64) -> Vec<f64> {
            let mut out = vec![f64::NAN; 4];
            real.split_even(total, &mut out);
            out
        }
        let mut sampled = Sampled::new(1, "fast-mc");
        let out = split(&mut sampled, 10_000.0, &[1.0, 0.0, 1.0]);
        assert_eq!((out.iter().sum::<f64>(), out[1]), (10_000.0, 0.0));
        let uniform = even(&mut sampled, 100_000.0);
        assert_eq!(uniform.iter().sum::<f64>(), 100_000.0);
        assert!(
            uniform.iter().all(|bin| (bin - 25_000.0).abs() < 1_500.0),
            "{uniform:?}"
        );
        assert_eq!(split(&mut sampled, 5.0, &[0.0, 0.0]), [0.0, 0.0]);

        let out = split(&mut Expected, 10_000.0, &[1.0, 0.0, 1.0]);
        assert_eq!(out, [5_000.0, 0.0, 5_000.0]);
        assert_eq!(even(&mut Expected, 100_000.0), [25_000.0; 4]);
        assert_eq!(split(&mut Expected, 5.0, &[0.0, 0.0]), [0.0, 0.0]);
    }

    #[test]
    fn truncated_geometric_mean_shapes() {
        assert_eq!(truncated_geometric_mean(1.0, 10), 1.0);
        assert_eq!(truncated_geometric_mean(0.0, 10), 10.0);
        // Tiny p: conditioned on success within s, the mean is inside
        // [1, s] and near the middle.
        let m = truncated_geometric_mean(1e-9, 100);
        assert!(m > 1.0 && m <= 100.0);
        // p = 0.5, s large: mean ≈ 2.
        assert!((truncated_geometric_mean(0.5, 1_000) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn exactly_one_prob_shapes() {
        assert_eq!(exactly_one_prob(0.0, 0.5), 0.0);
        assert!((exactly_one_prob(1.0, 0.5) - 0.5).abs() < 1e-12);
        // n·p(1-p)^{n-1} peaks near p = 1/n.
        let peak = exactly_one_prob(1000.0, 1.0 / 1000.0);
        assert!((peak - (1.0f64 - 1.0 / 1000.0).powf(999.0)).abs() < 1e-9);
        assert!(peak > 0.36 && peak < 0.37); // ≈ 1/e
    }

    #[test]
    fn round_count_is_round_without_libm() {
        let halves = [0.5, 1.5, 2.5, 1e15 + 0.5, 4_503_599_627_370_495.5];
        let near = [
            0.0,
            -0.0,
            0.3,
            2.499_999_999_999_999_6,
            -0.4,
            -3.0,
            1e19,
            1e300,
        ];
        let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for v in halves.into_iter().chain(near).chain(odd) {
            assert_eq!(round_count(v), v.round().max(0.0) as u64, "{v}");
        }
    }

    #[test]
    fn apportion_reaches_the_total_by_largest_remainder() {
        // Rounding each entry would give [1, 1, 1] = 3, not 2.
        assert_eq!(apportion(&[0.6, 0.7, 0.7], 2), [0, 1, 1]);
        // Short of the total: largest remainders first, ties to the
        // lowest channel.
        assert_eq!(apportion(&[1.5, 1.5, 0.2], 4), [2, 2, 0]);
        assert_eq!(apportion(&[0.5, 0.5], 1), [1, 0]);
        // Whole columns that sum to the total are untouched.
        assert_eq!(apportion(&[3.0, 0.0, 4.0], 7), [3, 0, 4]);
    }

    #[test]
    fn expected_active_slots_poissonises_the_send_count() {
        let mut phase = PhaseObservation::empty(Spectrum::new(2));
        assert_eq!(phase.channel_count(), 2);
        assert_eq!(phase.expected_active_slots(ChannelId::ZERO), 0.0);
        phase.slots = 100;
        phase.correct_sends = vec![100, 0];
        // 100 sends over 100 slots: ~63 active slots (1 − 1/e).
        let active = phase.expected_active_slots(ChannelId::ZERO);
        assert!((active - 100.0 * (1.0 - (-1.0f64).exp())).abs() < 1e-9);
        assert_eq!(phase.expected_active_slots(ChannelId::new(1)), 0.0);
        // Out-of-spectrum channels report zero, not panic.
        assert_eq!(phase.expected_active_slots(ChannelId::new(9)), 0.0);
    }
}
