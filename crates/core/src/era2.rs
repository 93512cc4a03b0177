//! Era-2 exact driver for ε-BROADCAST: sleep-skipping wake scheduling
//! over structure-of-arrays state.
//!
//! A naive roster engine walks all `n + 1` state machines every slot,
//! drawing per-slot Bernoullis even for devices that sleep with
//! probability `1 − O(2^{−i})`. This driver replaces that walk with an
//! event queue: within a *segment* — a maximal slot range over
//! which a device class's action probabilities are constant (a phase, or
//! a §4.2 g-loop subsegment of one) — each live device's next action slot
//! is drawn geometrically and parked in a bucketed [`WakeQueue`], so a
//! simulated slot touches only the devices that act in it, plus Carol's
//! turn; once she is broke, slots in which nobody acts are not simulated
//! at all (see *Dead air*). Request segments, whose listens only feed
//! noise tallies, draw their actions device by device instead (see
//! *Request windows*).
//!
//! ## The two-arm reduction
//!
//! Every per-slot decision in Figures 1/2 is (at most) two sequential
//! Bernoullis: *try action A with `p₁`; failing that, try action B with
//! `p₂`*. The pair is equivalent to waking with
//! `p_w = 1 − (1−p₁)(1−p₂)` and, given a wake, performing A with
//! probability `p₁ / p_w` (else B). Inter-wake gaps within a segment are
//! then geometric with parameter `p_w`; geometric memorylessness makes it
//! sound to re-draw pending gaps at every segment boundary, which is how
//! probability changes (new phase, next g-loop subsegment) are applied.
//!
//! ## Settled listens
//!
//! The Figure 1/2 listen probabilities exceed 1 in early rounds and are
//! clamped to 1. In an inform or propagation segment where, in addition,
//! uninformed nodes send no decoys, every uninformed node listens in
//! every slot and draws nothing (a `p = 1` geometric and a one-armed
//! class consume no randomness). Such nodes leave the wake queue for the
//! segment and form its *quiet* set. A slot in which no frame can reach
//! a listener ([`Medium::may_deliver`] is false) only counts as one more
//! deferred listen for each of them, since silence and noise change no
//! state outside request phases. The deferred listens are charged in one
//! ledger step per node just before a slot that could deliver, at the
//! next segment boundary and at run end. A slot that could deliver
//! materializes the quiet set exactly, in roster order, once Carol's
//! frames and jams are on the air. Budget refusals land on the same
//! listens as when every listen is charged on its own.
//!
//! ## Dead air
//!
//! Once Carol's capped pool is spent ([`Medium::carol_broke`]), nothing
//! she plans can air, and a slot in which no device wakes carries no
//! frame and no jam: it changes no state. When the run is untraced and
//! its adversary does not want listener identities (the same gate as
//! settled listens), the driver jumps from such a slot straight to the
//! next event: a wake or termination ([`WakeQueue::next_due`] on both
//! calendars), the next segment boundary (judgements fall on round
//! boundaries) or the slot cap. Carol is not consulted for the skipped
//! slots, which could deliver nothing, so the jump adds its length to
//! the quiet set's deferred listens. No random draw moves. In the
//! jammed flagship (n = 2^12, T = 2,000) she is broke after 2,000 slots,
//! and about 125k of a trial's 152k slots are skipped.
//!
//! ## Request windows
//!
//! In a request phase, Alice and the uninformed nodes listen only to
//! count noise for the round-end termination test, so nothing they hear
//! changes what they do before the round ends, and nobody is informed
//! there: Alice only listens, relayers are silent, and Carol cannot mint
//! `m`. When the run is untraced and its adversary does not want
//! listener identities, each request segment therefore runs in windows
//! of at most 64 slots, cut at the segment end and the slot cap, with
//! the wake queue left empty.
//!
//! First node-major: each actor (Alice and every uninformed node that
//! acts, in roster order) draws its actions in the window from its own
//! stream in the per-wake order (arm, then gap), charges each in time
//! order ([`Medium::charge`]), and keeps its charged listens in one
//! `u64` mask and its charged nacks in another. Then slot-major: each
//! slot airs its nacks in roster order and takes Carol's turn unchanged.
//! A slot that no frame can reach ([`Medium::may_deliver`] is false)
//! under a jam that picks no listeners only records whether it was
//! noisy, in the window's noise mask. A slot that may deliver, or whose
//! jam picks listeners ([`Medium::jam_picks_listeners`]), rebuilds its
//! listener list from the masks and resolves it exactly. When the
//! window closes, each actor's noise tally gains
//! `popcount(listens & noise)`, and the listens no listener list held
//! count as settled. Each device's stream, budget and tally see the
//! same draws, charges and receptions as on the per-wake path, and
//! Carol the same calls, so the outcome is identical. Dead air inside a
//! window is skipped as above, up to the window's next action.
//!
//! ## Fidelity
//!
//! Per-slot action *marginals* match the Figure 1/2 state machines
//! exactly; receptions, noisy counts, informs and budget charges are
//! exact, and so is every run's outcome whether or not listens are
//! settled. What settlement hides is the identity of the listeners of a
//! slot that could deliver nothing: the adversary's
//! [`SlotObservation::listeners`](rcb_radio::SlotObservation::listeners)
//! is empty there, in request windows as in the quiet set's slots.
//! Tracing (`trace_capacity > 0`) or an adversary whose
//! [`Adversary::wants_listener_identities`] is true turns settlement,
//! request windows and dead-air skipping off: the run wakes and
//! materializes every listener and calls Carol in every slot, with an
//! identical outcome. Termination timing replicates the protocol
//! slot-for-slot: judged devices go quiet on the round-boundary slot,
//! relayers terminate *after* acting on their step's final slot, and
//! late recruits wait (sending decoys) until the next request phase.

use rand::distributions::{Bernoulli, Distribution};
use rcb_auth::{Authority, KeyId, Payload as MessageBytes, Verifier};
use rcb_radio::{
    Adversary, Budget, ChannelId, Medium, Op, Payload, Reception, RunReport, Slot, Spectrum,
    StopReason, WakeQueue,
};
use rcb_rng::{CounterRng, Geometric, SeedTree};
use rcb_telemetry::{Collector, EngineProfile, MetricId, NoopCollector};

use crate::broadcast::{summarize, RunConfig};
use crate::outcome::BroadcastOutcome;
use crate::params::{Params, SizeKnowledge};
use crate::probabilities::{phase_probabilities, PhaseProbabilities};
use crate::schedule::{PhaseKind, RoundSchedule};

/// A maximal slot range with constant per-class action probabilities:
/// one phase, or one g-loop subsegment of a propagation/request phase.
/// Each class holds its `(p₁, p₂)` arm pair (see module docs).
#[derive(Debug, Clone, Copy)]
struct Segment {
    start: u64,
    round: u32,
    phase: PhaseKind,
    /// Alice: (send `m` — inform only, listen — request only).
    alice: (f64, f64),
    /// Uninformed node: (decoy, listen) in inform/propagation;
    /// (g-adjusted nack, listen) in request.
    uninformed: (f64, f64),
    /// A node relaying in this exact step: (g-adjusted send `m`, decoy).
    relaying: (f64, f64),
    /// An informed node outside its relay step: decoy only.
    waiting: f64,
}

/// An arm pair reduced to sampling form: wake probability, the
/// geometric gap distribution (absent when the class never acts) and,
/// given a wake, the first arm's chance `p₁ / p_w`.
struct Class {
    p1: f64,
    p2: f64,
    pw: f64,
    geo: Option<Geometric>,
    arm: Bernoulli,
}

fn class(arms: (f64, f64)) -> Class {
    let (p1, p2) = arms;
    let pw = p1 + p2 - p1 * p2;
    let geo = (pw > 0.0).then(|| Geometric::new(pw).expect("probabilities are clamped to [0,1]"));
    let first = if pw > 0.0 { (p1 / pw).min(1.0) } else { 0.0 };
    let arm = Bernoulli::new(first).expect("a ratio in [0, 1]");
    Class {
        p1,
        p2,
        pw,
        geo,
        arm,
    }
}

impl Class {
    /// Whether a woken device takes its first arm; draws only when both
    /// arms are possible.
    #[inline]
    fn first_arm(&self, rng: &mut CounterRng) -> bool {
        if self.p2 <= 0.0 {
            true
        } else if self.p1 <= 0.0 {
            false
        } else {
            self.arm.sample(rng)
        }
    }
}

/// Longest request window, in slots: one bit of a `u64` mask per slot.
const WINDOW: u64 = 64;

/// What a woken device does on each arm; resolved from (role, phase).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Alice,
    Uninformed,
    Relaying,
    Waiting,
}

/// §4.2 g-loop segment count (1 = disabled): `⌈log2 ν⌉` halvings of the
/// nack/relay probability under a polynomial size overestimate `ν`.
fn g_segments(params: &Params) -> u64 {
    match params.size_knowledge() {
        SizeKnowledge::PolynomialOverestimate { nu } => {
            u64::from((64 - (nu.max(2) - 1).leading_zeros()).max(1))
        }
        _ => 1,
    }
}

fn segment_for(
    start: u64,
    round: u32,
    phase: PhaseKind,
    probs: &PhaseProbabilities,
    g_prob: Option<f64>,
) -> Segment {
    let (alice, uninformed, relaying) = match phase {
        PhaseKind::Inform => (
            (probs.alice_send, 0.0),
            (probs.decoy_send, probs.uninformed_listen),
            (0.0, 0.0),
        ),
        PhaseKind::Propagation { .. } => (
            (0.0, 0.0),
            (probs.decoy_send, probs.uninformed_listen),
            (g_prob.unwrap_or(probs.informed_send), probs.decoy_send),
        ),
        PhaseKind::Request => (
            (0.0, probs.alice_listen),
            (
                g_prob.unwrap_or(probs.uninformed_nack),
                probs.uninformed_listen,
            ),
            (0.0, 0.0),
        ),
    };
    // Informed nodes outside their relay step never act in request
    // phases (they terminate at the first request slot instead).
    let waiting = match phase {
        PhaseKind::Request => 0.0,
        _ => probs.decoy_send,
    };
    Segment {
        start,
        round,
        phase,
        alice,
        uninformed,
        relaying,
        waiting,
    }
}

/// Builds the run's segment table, splitting propagation and request
/// phases at g-loop boundaries, plus one overtime segment pinned at the
/// final request position (matching `Cursor`'s past-end behaviour).
fn build_segments(params: &Params, schedule: &RoundSchedule) -> Vec<Segment> {
    let gseg = g_segments(params);
    let mut segments = Vec::new();
    let mut acc = 0u64;
    for (round, phase, len) in schedule.phases() {
        let probs = phase_probabilities(params, round, phase);
        let split = gseg > 1 && !matches!(phase, PhaseKind::Inform);
        let seg_len = (len / gseg).max(1);
        let mut offset = 0u64;
        loop {
            let g = (offset / seg_len + 1).min(gseg);
            let g_prob = split.then(|| 0.5f64.powi(g as i32));
            segments.push(segment_for(acc + offset, round, phase, &probs, g_prob));
            if !split || g >= gseg {
                break;
            }
            let next = g * seg_len;
            if next >= len {
                break;
            }
            offset = next;
        }
        acc += len;
    }
    // Overtime: the cursor pins to the final request slot, so the few
    // slots between `total_slots` and the engine cap reuse its position.
    let round = schedule.max_round();
    let len = schedule.phase_len(round);
    let probs = phase_probabilities(params, round, PhaseKind::Request);
    let seg_len = (len / gseg).max(1);
    let g = ((len - 1) / seg_len + 1).min(gseg);
    let g_prob = (gseg > 1).then(|| 0.5f64.powi(g as i32));
    segments.push(segment_for(acc, round, PhaseKind::Request, &probs, g_prob));
    segments
}

/// The first slot strictly after `slot` whose schedule position is a
/// request phase — when an `Informed { relay_step: None }` node next
/// acts as such and terminates.
fn next_request_slot(schedule: &RoundSchedule, slot: u64, round: u32, phase: PhaseKind) -> u64 {
    let len = schedule.phase_len(round);
    let start = schedule.round_start(round);
    let k = u64::from(schedule.k());
    match phase {
        PhaseKind::Request => {
            let round_end = start + (k + 1) * len - 1;
            if slot < round_end {
                slot + 1
            } else if round < schedule.max_round() {
                let next = round + 1;
                schedule.round_start(next) + k * schedule.phase_len(next)
            } else {
                // Pinned final request position: the next act is still
                // "request phase" regardless of the slot index.
                slot + 1
            }
        }
        _ => start + k * len,
    }
}

/// Whether `reception` hands its listener Alice's authenticated `m`.
fn carries_m(reception: &Reception, alice: KeyId, verifier: &Verifier) -> bool {
    matches!(
        reception,
        Reception::Frame(Payload::Broadcast(signed))
            if signed.signer() == alice && verifier.verify_signed(signed)
    )
}

/// The actors of a windowed request segment (see *Request windows*):
/// Alice and the uninformed nodes that act in it, in roster order, each
/// with the slot of its next action and its charged listens in the
/// current window. 20 B per actor, plus one nack entry per actor that
/// nacks in the window.
#[derive(Debug, Default)]
struct RequestWindows {
    actors: Vec<u32>,
    /// Per actor: the slot of its next action.
    next: Vec<u64>,
    /// Per actor: its charged listens in the window, bit `slot − start`.
    listens: Vec<u64>,
    /// The window's nacking actors and their charged nacks, in roster
    /// order; at most one entry per actor, however many nacks.
    nacks: Vec<(u32, u64)>,
}

impl RequestWindows {
    /// Empties the windows and makes room for `actors` actors at once:
    /// growing by doubling would leave up to twice that allocated.
    fn reset(&mut self, actors: usize) {
        self.clear();
        self.actors.reserve_exact(actors);
        self.next.reserve_exact(actors);
        self.listens.reserve_exact(actors);
    }

    fn clear(&mut self) {
        self.actors.clear();
        self.next.clear();
        self.listens.clear();
        self.nacks.clear();
    }

    /// Enrols `node`, whose first action in the segment falls at `slot`.
    fn push(&mut self, node: u32, slot: u64) {
        self.actors.push(node);
        self.next.push(slot);
        self.listens.push(0);
    }

    /// The node-major half of window `start..end`: every actor draws its
    /// actions in the window from its own stream, in the per-wake
    /// order (arm, then gap), and charges each in time order. Returns
    /// the mask of slots in which some actor acts, refused actions
    /// included.
    fn fill(
        &mut self,
        start: u64,
        end: u64,
        medium: &mut Medium,
        rngs: &mut [CounterRng],
        alice: &Class,
        uninformed: &Class,
    ) -> u64 {
        debug_assert!(end - start <= WINDOW);
        let mut acted = 0u64;
        self.nacks.clear();
        for (i, &node) in self.actors.iter().enumerate() {
            let mut slot = self.next[i];
            let mut listens = 0u64;
            if slot < end {
                debug_assert!(slot >= start, "node {node} skipped an action");
                let cls = if node == 0 { alice } else { uninformed };
                let geo = cls.geo.as_ref().expect("actors act");
                let rng = &mut rngs[node as usize];
                let mut nacks = 0u64;
                while slot < end {
                    let bit = 1u64 << (slot - start);
                    acted |= bit;
                    if cls.first_arm(rng) {
                        if medium.charge(node, ChannelId::ZERO, Op::Send) {
                            nacks |= bit;
                        }
                    } else if medium.charge(node, ChannelId::ZERO, Op::Listen) {
                        listens |= bit;
                    }
                    slot += 1 + geo.sample(rng);
                }
                self.next[i] = slot;
                if nacks != 0 {
                    self.nacks.push((node, nacks));
                }
            }
            self.listens[i] = listens;
        }
        acted
    }

    /// Airs the nacks charged for the slot at `bit`, in roster order.
    fn air_nacks(&self, bit: u64, medium: &mut Medium) {
        for &(node, nacks) in &self.nacks {
            if nacks & bit != 0 {
                medium.air_send(node, ChannelId::ZERO, Payload::Nack);
            }
        }
    }

    /// Puts the listens charged for the slot at `bit` on the slot's
    /// listener list, in roster order.
    fn air_listeners(&self, bit: u64, medium: &mut Medium) {
        for (&node, &listens) in self.actors.iter().zip(&self.listens) {
            if listens & bit != 0 {
                medium.air_listener(node, ChannelId::ZERO);
            }
        }
    }

    /// Closes a window: every actor's noise tally gains its listens in
    /// the window's `noise` slots. Returns the listens no listener list
    /// held (outside the `resolved` slots): those are settled.
    fn flush(&self, noise: u64, resolved: u64, noisy: &mut [u64]) -> u64 {
        let mut settled = 0u64;
        for (&node, &listens) in self.actors.iter().zip(&self.listens) {
            noisy[node as usize] += u64::from((listens & noise).count_ones());
            settled += u64::from((listens & !resolved).count_ones());
        }
        settled
    }
}

/// Lands the terminations due at `slot`: the device set its done flag
/// while acting in it, so `live` reflects it from the next slot on.
fn land_terminations(
    term: &mut WakeQueue,
    term_due: &mut Vec<(u64, u32)>,
    status: &mut [u8],
    live: &mut u64,
    slot: u64,
) {
    term.drain_due(slot, term_due);
    for &(_, node) in term_due.iter() {
        let node = node as usize;
        if status[node] == 1 {
            status[node] = 2;
            *live -= 1;
        }
    }
}

/// Reusable scratch for exact ε-BROADCAST executions.
///
/// `Params` fixes the budgets, schedule, and [`BroadcastOutcome`]
/// accounting; the slot loop only touches devices that act (see module
/// docs). Segment tables, per-node flag arrays, and both calendar queues
/// are reused across runs with the same parameters.
///
/// # Example
///
/// ```
/// use rcb_core::{BroadcastSoaScratch, Params, RunConfig};
/// use rcb_radio::SilentAdversary;
///
/// let params = Params::builder(32).min_termination_round(3).build()?;
/// let mut scratch = BroadcastSoaScratch::new();
/// let (outcome, _report) = scratch.run(&params, &mut SilentAdversary, &RunConfig::seeded(7));
/// assert!(outcome.informed_fraction() > 0.9);
/// # Ok::<(), rcb_core::ParamsError>(())
/// ```
#[derive(Debug, Default)]
pub struct BroadcastSoaScratch {
    built_for: Option<Params>,
    schedule: Option<RoundSchedule>,
    segments: Vec<Segment>,
    /// `(boundary slot, round judged at it)` — request-phase judgements
    /// fire on the first slot after each round.
    judges: Vec<(u64, u32)>,
    budgets: Vec<Budget>,
    // Per-device state, index 0 = Alice.
    rngs: Vec<CounterRng>,
    /// 0 = active/uninformed, 1 = informed, 2 = done.
    status: Vec<u8>,
    informed: Vec<bool>,
    noisy: Vec<u64>,
    relay_round: Vec<u32>,
    /// Propagation step the node relays in (0 = no relay duty).
    relay_step: Vec<u32>,
    /// Last slot the device may act in (inclusive); `u64::MAX` until a
    /// termination slot is known.
    act_until: Vec<u64>,
    wake: WakeQueue,
    /// Calendar of known future terminations (informed nodes).
    term: WakeQueue,
    due: Vec<(u64, u32)>,
    term_due: Vec<(u64, u32)>,
    /// The segment's uninformed nodes whose listens are settled rather
    /// than woken (see module docs), in roster order.
    quiet: Vec<u32>,
    /// A windowed request segment's actors (see module docs).
    windows: RequestWindows,
    medium: Medium,
}

impl BroadcastSoaScratch {
    /// Creates an empty scratch; tables are built on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs one ε-BROADCAST execution on the era-2 engine and returns
    /// the outcome plus the raw engine report (for trace inspection and
    /// engine-level assertions).
    pub fn run(
        &mut self,
        params: &Params,
        adversary: &mut dyn Adversary,
        config: &RunConfig,
    ) -> (BroadcastOutcome, RunReport) {
        self.run_with(params, adversary, config, &NoopCollector)
    }

    /// [`run`](Self::run) with a telemetry collector attached.
    ///
    /// Telemetry is purely observational — the collector never draws
    /// from the run's RNG streams, so instrumented and uninstrumented
    /// runs of one seed are byte-identical. Hot-path counts batch in an
    /// [`EngineProfile`] gated on one hoisted `enabled` bool and flush
    /// once at run end.
    #[allow(clippy::too_many_lines)]
    pub fn run_with<C: Collector + ?Sized>(
        &mut self,
        params: &Params,
        adversary: &mut dyn Adversary,
        config: &RunConfig,
        collector: &C,
    ) -> (BroadcastOutcome, RunReport) {
        let seeds = SeedTree::new(config.seed);
        let mut authority = Authority::new(seeds.leaf_seed("auth-domain", 0));
        let alice_key = authority.issue_key();
        let verifier = authority.verifier();
        let signed_m = alice_key.sign(&MessageBytes::from_static(b"the broadcast payload m"));
        let alice_id = alice_key.id();

        let n = params.n() as usize;
        if self.built_for.as_ref() != Some(params) {
            let schedule = RoundSchedule::new(params);
            self.segments = build_segments(params, &schedule);
            self.judges = (schedule.start_round()..=schedule.max_round())
                .map(|i| (schedule.round_start(i) + schedule.round_len(i), i))
                .collect();
            self.schedule = Some(schedule);
            self.built_for = Some(params.clone());
        }
        self.budgets.clear();
        if config.enforce_correct_budgets {
            self.budgets.push(Budget::limited(params.alice_budget()));
            self.budgets.extend(std::iter::repeat_n(
                Budget::limited(params.node_budget()),
                n,
            ));
        } else {
            self.budgets
                .extend(std::iter::repeat_n(Budget::unlimited(), n + 1));
        }

        let threshold = params.termination_threshold();
        let min_term = params.min_termination_round();
        let prop_steps = params.propagation_steps();
        let spectrum = Spectrum::single();
        let materialize_all = config.trace_capacity > 0 || adversary.wants_listener_identities();

        let BroadcastSoaScratch {
            schedule,
            segments,
            judges,
            budgets,
            rngs,
            status,
            informed,
            noisy,
            relay_round,
            relay_step,
            act_until,
            wake,
            term,
            due,
            term_due,
            quiet,
            windows,
            medium,
            ..
        } = self;
        let schedule = schedule.as_ref().expect("built above");
        let max_slots = schedule.total_slots() + 4;

        medium.reset(
            budgets,
            config.carol_budget,
            spectrum,
            config.trace_capacity,
        );
        rngs.clear();
        rngs.extend((0..=n).map(|i| CounterRng::new(seeds.leaf_seed("participant", i as u64))));
        status.clear();
        status.resize(n + 1, 0);
        informed.clear();
        informed.resize(n + 1, false);
        informed[0] = true; // Alice holds m by definition.
        noisy.clear();
        noisy.resize(n + 1, 0);
        relay_round.clear();
        relay_round.resize(n + 1, 0);
        relay_step.clear();
        relay_step.resize(n + 1, 0);
        act_until.clear();
        act_until.resize(n + 1, u64::MAX);
        wake.reset(n + 1, max_slots);
        term.reset(n + 1, max_slots);
        quiet.clear();
        windows.reset(n + 1);
        // Telemetry: one hoisted bool gates all bookkeeping; counts batch
        // in a plain-integer profile and flush once after the loop.
        let telemetry = collector.enabled();
        let mut prof = EngineProfile::new();

        let mut live = (n + 1) as u64;
        let mut seg_idx = 0usize;
        let mut judge_idx = 0usize;
        let mut alice_cls = class((0.0, 0.0));
        let mut uninf_cls = class((0.0, 0.0));
        let mut relay_cls = class((0.0, 0.0));
        let mut wait_cls = class((0.0, 0.0));
        // Slots since the quiet set's listens were last charged.
        let mut deferred = 0u64;
        // Slots skipped without Carol's turn.
        let mut dead_air = 0u64;
        let mut slot_idx = 0u64;

        let stop_reason = loop {
            if slot_idx >= max_slots {
                break StopReason::SlotCapReached;
            }
            if live == 0 {
                break StopReason::AllTerminated;
            }
            while seg_idx + 1 < segments.len() && segments[seg_idx + 1].start <= slot_idx {
                seg_idx += 1;
            }
            let seg = segments[seg_idx];
            let mut windowed = false;
            if seg.start == slot_idx {
                // The finished segment's deferred listens land first.
                prof.settled_listens += settle_quiet(medium, quiet, deferred);
                deferred = 0;
                quiet.clear();
                // Round boundary: judge the request phase that just ended
                // (all of its receptions are in), then reset counters.
                while judge_idx < judges.len() && judges[judge_idx].0 == slot_idx {
                    let round = judges[judge_idx].1;
                    judge_idx += 1;
                    let may_terminate = round >= min_term;
                    for node in 0..=n {
                        if status[node] == 0 {
                            if may_terminate && noisy[node] <= threshold {
                                status[node] = 2;
                                live -= 1;
                                wake.cancel(node as u32);
                            }
                            noisy[node] = 0;
                        }
                    }
                }
                // New segment ⇒ new arm probabilities; geometric
                // memorylessness makes a fresh draw for every live device
                // distribution-preserving even where probabilities did
                // not change.
                alice_cls = class(seg.alice);
                uninf_cls = class(seg.uninformed);
                relay_cls = class(seg.relaying);
                wait_cls = class((seg.waiting, 0.0));
                let settle = !materialize_all
                    && seg.phase != PhaseKind::Request
                    && uninf_cls.p1 <= 0.0
                    && uninf_cls.pw >= 1.0;
                windowed = !materialize_all && seg.phase == PhaseKind::Request;
                windows.clear();
                for node in 0..=n as u32 {
                    let nu = node as usize;
                    if status[nu] == 2 {
                        continue;
                    }
                    if settle && node != 0 && status[nu] == 0 {
                        wake.cancel(node);
                        quiet.push(node);
                        continue;
                    }
                    let cls = role_class(
                        node,
                        status[nu],
                        relay_round[nu],
                        relay_step[nu],
                        &seg,
                        &alice_cls,
                        &uninf_cls,
                        &relay_cls,
                        &wait_cls,
                    )
                    .1;
                    let mut next = None;
                    if let Some(geo) = &cls.geo {
                        let t = slot_idx + geo.sample(&mut rngs[nu]);
                        if t <= act_until[nu] {
                            next = Some(t);
                        }
                    }
                    match next {
                        Some(t) if windowed => {
                            // Only Alice and uninformed nodes act in a
                            // request phase.
                            debug_assert_eq!(status[nu], 0, "node {node} acts in a request phase");
                            wake.cancel(node);
                            windows.push(node, t);
                        }
                        Some(t) => wake.schedule(node, t),
                        None => wake.cancel(node),
                    }
                }
            } else if !materialize_all && medium.carol_broke() {
                // Dead air (see module docs): jump to the next wake,
                // termination, segment boundary or the cap. A skipped
                // slot could deliver nothing, so it is one more deferred
                // listen for the quiet set.
                let mut next = segments
                    .get(seg_idx + 1)
                    .map_or(max_slots, |s| s.start.min(max_slots));
                next = wake.next_due(slot_idx, next).unwrap_or(next);
                next = term.next_due(slot_idx, next).unwrap_or(next);
                if next > slot_idx {
                    if !quiet.is_empty() {
                        deferred += next - slot_idx;
                        prof.inert_slots += next - slot_idx;
                    }
                    dead_air += next - slot_idx;
                    slot_idx = next;
                    continue;
                }
            }

            if windowed {
                // Request windows (see module docs): the segment runs
                // here, window by window, up to its end, the cap, or
                // the slot after the last live device terminates. Like
                // every segment's, its first slot runs even if its
                // judgement terminated everyone.
                let end = segments
                    .get(seg_idx + 1)
                    .map_or(max_slots, |s| s.start.min(max_slots));
                let runs = |slot: u64, live: u64| slot == seg.start || live > 0;
                while slot_idx < end && runs(slot_idx, live) {
                    debug_assert!(wake.is_empty(), "the wake calendar holds an actor");
                    let start = slot_idx;
                    let stop = end.min(start + WINDOW);
                    debug_assert!(
                        stop <= max_slots
                            && segments
                                .get(seg_idx + 1)
                                .is_none_or(|next| stop <= next.start),
                        "window {start}..{stop} runs past its segment or the cap"
                    );
                    let acted = windows.fill(start, stop, medium, rngs, &alice_cls, &uninf_cls);
                    let mut noise = 0u64;
                    let mut resolved = 0u64;
                    while slot_idx < stop && runs(slot_idx, live) {
                        let offset = slot_idx - start;
                        if slot_idx != seg.start && medium.carol_broke() {
                            // Dead air, as above, bounded by the
                            // window's next action.
                            let ahead = acted >> offset;
                            let act = if ahead == 0 {
                                stop
                            } else {
                                slot_idx + u64::from(ahead.trailing_zeros())
                            };
                            let next = term.next_due(slot_idx, act).unwrap_or(act);
                            if next > slot_idx {
                                dead_air += next - slot_idx;
                                slot_idx = next;
                                continue;
                            }
                        }
                        let bit = 1u64 << offset;
                        windows.air_nacks(bit, medium);
                        medium.carol_turn(Slot::new(slot_idx), adversary, |air| {
                            if air.may_deliver() || air.jam_picks_listeners() {
                                // Who listens matters: resolve them all.
                                windows.air_listeners(bit, air);
                                resolved |= bit;
                                if telemetry && !air.listeners().is_empty() {
                                    prof.listener_passes += 1;
                                    prof.listeners_resolved += air.listeners().len() as u64;
                                }
                                air.hear_all(|_, pid, reception| {
                                    debug_assert!(
                                        !carries_m(reception, alice_id, &verifier),
                                        "{pid} is informed in a request phase"
                                    );
                                    if !matches!(reception, Reception::Silence) {
                                        noisy[pid.index() as usize] += 1;
                                    }
                                });
                            } else if air.is_noisy() {
                                noise |= bit;
                            }
                        });
                        land_terminations(term, term_due, status, &mut live, slot_idx);
                        slot_idx += 1;
                    }
                    prof.settled_listens += windows.flush(noise, resolved, noisy);
                }
                continue;
            }

            // 1. Devices due this slot act: pick an arm, charge it, and
            //    re-draw the next wake.
            wake.drain_due(slot_idx, due);
            if telemetry && !due.is_empty() {
                prof.wake_drains += 1;
                prof.wake_drained += due.len() as u64;
                collector.observe(MetricId::EngineWakeDrainBatch, due.len() as f64);
            }
            for &(_, node) in due.iter() {
                let nu = node as usize;
                if status[nu] == 2 || slot_idx > act_until[nu] {
                    continue;
                }
                let (role, cls) = role_class(
                    node,
                    status[nu],
                    relay_round[nu],
                    relay_step[nu],
                    &seg,
                    &alice_cls,
                    &uninf_cls,
                    &relay_cls,
                    &wait_cls,
                );
                if cls.pw <= 0.0 {
                    continue;
                }
                let rng = &mut rngs[nu];
                let send = if cls.first_arm(rng) {
                    Some(match role {
                        Role::Alice | Role::Relaying => Payload::Broadcast(signed_m.clone()),
                        Role::Uninformed => match seg.phase {
                            PhaseKind::Request => Payload::Nack,
                            _ => Payload::Decoy,
                        },
                        Role::Waiting => Payload::Decoy,
                    })
                } else {
                    match role {
                        // Second arms: Alice and uninformed nodes listen;
                        // a relayer that skipped m falls back to a decoy.
                        Role::Relaying => Some(Payload::Decoy),
                        Role::Alice | Role::Uninformed => None,
                        Role::Waiting => unreachable!("waiting class has no second arm"),
                    }
                };
                match send {
                    Some(payload) => medium.send(node, ChannelId::ZERO, payload),
                    None => medium.listen(node, ChannelId::ZERO),
                };
                if let Some(geo) = &cls.geo {
                    let t = slot_idx + 1 + geo.sample(rng);
                    if t <= act_until[nu] {
                        wake.schedule(node, t);
                    }
                }
            }

            // 2. Carol's turn. If a frame could reach the quiet set, its
            //    deferred listens land and it listens now, exactly;
            //    otherwise the slot is one more deferred listen. Then
            //    every listener resolves exactly: informs flip state and
            //    schedule the node's (now known) termination slot;
            //    request-phase noise feeds the judgement counters.
            let mut materialized = false;
            medium.carol_turn(Slot::new(slot_idx), adversary, |air| {
                if !quiet.is_empty() {
                    if air.may_deliver() {
                        prof.settled_listens += settle_quiet(air, quiet, deferred);
                        deferred = 0;
                        for &node in quiet.iter() {
                            air.listen(node, ChannelId::ZERO);
                        }
                        materialized = true;
                    } else {
                        deferred += 1;
                        prof.inert_slots += 1;
                    }
                }
                if telemetry && !air.listeners().is_empty() {
                    prof.listener_passes += 1;
                    prof.listeners_resolved += air.listeners().len() as u64;
                }
                air.hear_all(|_, pid, reception| {
                    if matches!(reception, Reception::Silence) {
                        return;
                    }
                    let node = pid.index();
                    let nu = node as usize;
                    if nu != 0 && status[nu] == 0 && carries_m(reception, alice_id, &verifier) {
                        status[nu] = 1;
                        informed[nu] = true;
                        let (rr, rs) = match seg.phase {
                            PhaseKind::Inform => (seg.round, 1u32),
                            PhaseKind::Propagation { step } if step < prop_steps => {
                                (seg.round, step + 1)
                            }
                            // Too late in the round for a relay duty.
                            _ => (seg.round, 0),
                        };
                        relay_round[nu] = rr;
                        relay_step[nu] = rs;
                        let done_at = if rs != 0 {
                            // Done at the end of its relay step — still
                            // acting on that step's final slot.
                            schedule.round_start(rr) + (u64::from(rs) + 1) * schedule.phase_len(rr)
                                - 1
                        } else {
                            next_request_slot(schedule, slot_idx, seg.round, seg.phase)
                        };
                        act_until[nu] = if rs != 0 { done_at } else { done_at - 1 };
                        term.schedule(node, done_at);
                        // Re-draw under the informed class for the rest of
                        // the current segment (relay duty, if any, starts
                        // at a future segment boundary).
                        wake.cancel(node);
                        if let Some(geo) = &wait_cls.geo {
                            let t = slot_idx + 1 + geo.sample(&mut rngs[nu]);
                            if t <= act_until[nu] {
                                wake.schedule(node, t);
                            }
                        }
                    } else if matches!(seg.phase, PhaseKind::Request) && status[nu] == 0 {
                        // Nacks, forged frames, jamming, collisions: all
                        // noisy, none distinguishable (Alice shares the
                        // tally rule).
                        noisy[nu] += 1;
                    }
                });
            });
            if materialized {
                // Newly informed nodes left the quiet set.
                quiet.retain(|&node| status[node as usize] == 0);
            }

            // 3. Terminations determined earlier land now.
            land_terminations(term, term_due, status, &mut live, slot_idx);

            slot_idx += 1;
        };

        prof.settled_listens += settle_quiet(medium, quiet, deferred);
        if telemetry {
            prof.slots = slot_idx;
            // The adversary plans once per simulated slot.
            prof.adversary_plans = slot_idx - dead_air;
            // Exact: a device's counter is the number of words it drew.
            prof.rng_draws = rngs.iter().map(CounterRng::counter).sum();
            prof.flush(collector);
        }

        let terminated: Vec<bool> = status.iter().map(|&s| s == 2).collect();
        let report = medium.report(slot_idx, stop_reason, std::mem::take(informed), terminated);
        let outcome = summarize(params, schedule, &report);
        (outcome, report)
    }
}

/// Charges every quiet node its `deferred` settled listens; returns the
/// listens granted.
fn settle_quiet(medium: &mut Medium, quiet: &[u32], deferred: u64) -> u64 {
    if deferred == 0 {
        return 0;
    }
    quiet
        .iter()
        .map(|&node| medium.settle_listens(node, ChannelId::ZERO, deferred))
        .sum()
}

/// Resolves which arm pair governs a device in the current segment.
#[allow(clippy::too_many_arguments)]
#[inline]
fn role_class<'a>(
    node: u32,
    status: u8,
    relay_round: u32,
    relay_step: u32,
    seg: &Segment,
    alice: &'a Class,
    uninformed: &'a Class,
    relaying: &'a Class,
    waiting: &'a Class,
) -> (Role, &'a Class) {
    if node == 0 {
        (Role::Alice, alice)
    } else if status == 0 {
        (Role::Uninformed, uninformed)
    } else if relay_step != 0
        && seg.round == relay_round
        && seg.phase == (PhaseKind::Propagation { step: relay_step })
    {
        (Role::Relaying, relaying)
    } else {
        (Role::Waiting, waiting)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::DecoyConfig;
    use rcb_radio::{AdversaryCtx, AdversaryMove, SilentAdversary};

    fn params(n: u64, min_term: u32) -> Params {
        Params::builder(n)
            .min_termination_round(min_term)
            .build()
            .unwrap()
    }

    #[test]
    fn era2_quiet_run_informs_everyone_and_stops_cleanly() {
        let params = params(64, 3);
        let (outcome, report) =
            BroadcastSoaScratch::new().run(&params, &mut SilentAdversary, &RunConfig::seeded(42));
        assert!(
            outcome.informed_fraction() >= 0.95,
            "informed {}/{}",
            outcome.informed_nodes,
            outcome.n
        );
        assert!(outcome.alice_terminated);
        assert_eq!(outcome.unterminated_nodes, 0);
        assert_eq!(outcome.carol_spend(), 0);
        assert_eq!(report.stop_reason, StopReason::AllTerminated);
        assert_eq!(
            report.channel_stats.len(),
            1,
            "ε-BROADCAST is single-channel"
        );
        let stats = report.channel_stats[0];
        assert_eq!(
            stats.correct_sends,
            outcome.alice_cost.sends + outcome.node_total_cost.sends
        );
        assert_eq!(
            stats.correct_listens,
            outcome.alice_cost.listens + outcome.node_total_cost.listens
        );
    }

    #[test]
    fn era2_runs_are_deterministic_by_seed() {
        let params = params(32, 3);
        let run = |seed| {
            BroadcastSoaScratch::new()
                .run(&params, &mut SilentAdversary, &RunConfig::seeded(seed))
                .0
        };
        let a = run(9);
        let b = run(9);
        assert_eq!(a.slots, b.slots);
        assert_eq!(a.informed_nodes, b.informed_nodes);
        assert_eq!(a.alice_cost, b.alice_cost);
        assert_eq!(a.node_total_cost, b.node_total_cost);
        assert_eq!(a.node_costs, b.node_costs);
        let c = run(10);
        assert!(
            a.slots != c.slots
                || a.alice_cost != c.alice_cost
                || a.node_total_cost != c.node_total_cost
        );
    }

    #[test]
    fn era2_scratch_reuse_reproduces_fresh_runs() {
        let params_a = params(32, 3);
        let params_b = params(16, 2);
        let mut scratch = BroadcastSoaScratch::new();
        for (params, seed) in [
            (&params_a, 1u64),
            (&params_a, 2),
            (&params_b, 1),
            (&params_a, 1),
        ] {
            let cfg = RunConfig::seeded(seed);
            let (reused, _) = scratch.run(params, &mut SilentAdversary, &cfg);
            let (fresh, _) = BroadcastSoaScratch::new().run(params, &mut SilentAdversary, &cfg);
            assert_eq!(reused.slots, fresh.slots);
            assert_eq!(reused.informed_nodes, fresh.informed_nodes);
            assert_eq!(reused.alice_cost, fresh.alice_cost);
            assert_eq!(reused.node_costs, fresh.node_costs);
        }
    }

    struct JamAll;
    impl Adversary for JamAll {
        fn plan(&mut self, _: Slot, _: &AdversaryCtx) -> AdversaryMove {
            AdversaryMove::jam_all()
        }
    }

    #[test]
    fn era2_blanket_jamming_timeline_is_deterministic() {
        // Under unlimited blanket jamming no frame is ever delivered, and
        // the two regimes of the termination rule are both deterministic:
        // while request phases are shorter than the noise threshold,
        // every device goes quiet at the `min_termination_round` boundary
        // regardless of its listen draws; once they are much longer,
        // noise overwhelms the threshold and no one ever terminates. The
        // engine must land on the identical timeline in each regime on
        // every seed (the draws cannot influence a blanket-jammed run's
        // shape).
        let early = params(16, 2);
        let late = params(16, 5);
        let (base_early, re) =
            BroadcastSoaScratch::new().run(&early, &mut JamAll, &RunConfig::seeded(3));
        let (base_late, rl) =
            BroadcastSoaScratch::new().run(&late, &mut JamAll, &RunConfig::seeded(3));
        assert_eq!(re.stop_reason, StopReason::AllTerminated);
        assert_eq!(rl.stop_reason, StopReason::SlotCapReached);
        assert_eq!(base_early.informed_nodes, 0);
        assert_eq!(base_late.informed_nodes, 0);
        for seed in [7u64, 19, 42] {
            let cfg = RunConfig::seeded(seed);
            let (o, r) = BroadcastSoaScratch::new().run(&early, &mut JamAll, &cfg);
            assert_eq!(o.slots, base_early.slots, "seed {seed}");
            assert_eq!(r.jammed_slots, re.jammed_slots, "seed {seed}");
            let (o, r) = BroadcastSoaScratch::new().run(&late, &mut JamAll, &cfg);
            assert_eq!(o.slots, base_late.slots, "seed {seed}");
            assert_eq!(r.jammed_slots, rl.jammed_slots, "seed {seed}");
        }
    }

    #[test]
    fn era2_respects_the_termination_floor() {
        let params = params(32, 5);
        let (outcome, _) =
            BroadcastSoaScratch::new().run(&params, &mut SilentAdversary, &RunConfig::seeded(4));
        assert!(outcome.alice_terminated);
        assert!(
            outcome.rounds_entered >= 5,
            "no one may terminate before round 5, got {}",
            outcome.rounds_entered
        );
    }

    #[test]
    fn era2_runs_hardened_variants() {
        // §4.1 decoys exercise the waiting/decoy arms; §4.2 polynomial
        // overestimates exercise the g-loop segment splitting.
        let decoyed = Params::builder(32)
            .min_termination_round(3)
            .decoys(DecoyConfig::recommended())
            .build()
            .unwrap();
        let (o, r) =
            BroadcastSoaScratch::new().run(&decoyed, &mut SilentAdversary, &RunConfig::seeded(6));
        assert!(o.informed_fraction() >= 0.9);
        assert_eq!(r.stop_reason, StopReason::AllTerminated);

        let overestimated = Params::builder(32)
            .min_termination_round(3)
            .size_knowledge(SizeKnowledge::PolynomialOverestimate { nu: 1 << 10 })
            .build()
            .unwrap();
        let (o, _) = BroadcastSoaScratch::new().run(
            &overestimated,
            &mut SilentAdversary,
            &RunConfig::seeded(6),
        );
        assert!(o.informed_fraction() >= 0.9);
        assert!(o.completed());
    }

    #[test]
    fn era2_unconstrained_config_lifts_budgets() {
        let params = params(16, 2);
        let cfg = RunConfig::seeded(3).unconstrained_correct();
        let (_, report) = BroadcastSoaScratch::new().run(&params, &mut SilentAdversary, &cfg);
        assert!(report.participant_refusals.iter().all(|&r| r == 0));
    }

    #[test]
    fn era2_trace_capture_reconciles_with_charges() {
        let params = params(16, 2);
        let (_, report) = BroadcastSoaScratch::new().run(
            &params,
            &mut SilentAdversary,
            &RunConfig::seeded(2).trace(1 << 20),
        );
        assert!(!report.trace.is_empty());
        let traced: u64 = report
            .trace
            .records()
            .iter()
            .map(|r| u64::from(r.listeners))
            .sum();
        let charged: u64 = report.participant_costs.iter().map(|c| c.listens).sum();
        assert_eq!(traced, charged);
    }
}
