//! The sleep-skipping slot driver for gossip-shaped workloads, and the
//! [`WakeQueue`] every exact driver parks its devices in.
//!
//! The driver runs four protocols, each one row of [`GossipSpec`]: the
//! naive strawman, epidemic gossip, and memoryless and epoch-structured
//! channel hopping. Walking every live participant every slot costs
//! `O(n)` per slot even when almost every node sleeps, which is the
//! common case for all of them (an uninformed node acts with
//! probability `listen_p`, an informed relayer with probability `λ/n`).
//! This driver is built around structure-of-arrays state and event
//! scheduling instead:
//!
//! * **SoA rosters** — informed flags, draw counters, and scheduling
//!   state live in contiguous arrays indexed by node id instead of being
//!   scattered across per-node state machines.
//! * **Counter-based RNG** ([`CounterRng`]) — a node's stream is a pure
//!   function of `(key, draw index)`, so skipping a node for thousands
//!   of slots costs nothing and never perturbs its stream.
//! * **Sleep-skipping senders** — each sender samples the gap to its
//!   next transmission geometrically and parks in a bucketed
//!   [`WakeQueue`]; the engine touches only nodes that act this slot.
//! * **Deferred listener settlement** — in a slot where no channel
//!   carries exactly one un-blanket-jammed transmission, every listener
//!   provably hears silence or noise, neither of which changes gossip
//!   state. Such *inert* slots are counted, not simulated; when a node
//!   leaves the dormant pool its inert listens are sampled in one
//!   binomial draw and bulk-charged. Slots where a frame *could*
//!   deliver materialize the full listener set exactly, drawing which
//!   dormant nodes listen with Floyd's sampler ([`SortedSampler`]),
//!   whose bitset hands them back in roster order.
//! * **The send-only tail** — once no uninformed node is left, nobody
//!   listens again: the rest of the run is Alice and the relays sending
//!   to nobody until the horizon, often most of it. If Carol's moves to
//!   the end are known too (her pool is spent, or her
//!   [`commitment`](Adversary::commitment)s chain there), the driver
//!   leaves the per-slot loop. Each device draws its remaining actions
//!   node-major from its own stream, in the loop's order (epoch
//!   redraw, channel, gap), and is charged through [`Medium::charge`];
//!   Carol's committed jams are charged per stretch
//!   ([`Medium::charge_committed_jam`]); and the noisy slots are counted
//!   on a slot bitmap of a fixed window, reused pass after pass.
//!
//! The result is statistically equivalent to a per-slot roster walk but
//! runs in time proportional to the *events* in a run rather than
//! `n × slots`. What happens on the air — Carol's turn, listener
//! resolution, the report — is the shared [`Medium`]. The send-only tail
//! draws the same words and makes the same charges as the per-slot loop,
//! so the two are byte-identical; only `EngineAdversaryPlans`,
//! `EngineWakeDrains` and `EngineWakeDrained` count less, since they
//! count what the loop did.
//!
//! Exactness boundaries: per-slot listener *identities* are not
//! materialized in inert slots, so [`SlotObservation::listeners`] is
//! empty there (aggregate energy accounting is still exact), and the
//! send-only tail is not observed at all. Tracing
//! (`trace_capacity > 0`) or an adversary returning `true` from
//! [`Adversary::wants_listener_identities`] forces full per-slot
//! materialization, restoring full observability at the cost of a
//! per-slot listener walk. Traced and untraced runs of one seed are
//! identically distributed but not bit-identical.
//!
//! [`SlotObservation::listeners`]: crate::SlotObservation::listeners

use std::ops::Range;

use rand::Rng;
use rcb_auth::{Authority, Payload as MessageBytes};
use rcb_rng::subset::SortedSampler;
use rcb_rng::{Binomial, CounterRng, Geometric, SeedTree};
use rcb_telemetry::{Collector, EngineProfile, MetricId};

use crate::adversary::Adversary;
use crate::channel::{JamDirective, JamPlan};
use crate::energy::{Budget, EnergyLedger, Op};
use crate::engine::{Medium, RunReport, StopReason};
use crate::message::Payload;
use crate::participant::Reception;
use crate::slot::Slot;
use crate::spectrum::{ChannelId, Spectrum};

/// Upper bound on wheel size. Past it, far-future wakes alias into
/// earlier buckets, and a drain walks past them (correctly, at a small
/// re-scan cost).
const MAX_BUCKETS: u64 = 1 << 16;

/// The end of a bucket's list: no node.
const NIL: u32 = u32::MAX;

/// A calendar queue over slots: each pending wakeup is parked in the
/// bucket `slot & mask` of a power-of-two wheel.
///
/// A bucket is an intrusive doubly linked list threaded through the
/// nodes: one `u32` head per bucket, and per node its `next`/`prev`
/// links beside its authoritative wake slot (`u64::MAX` meaning
/// unscheduled). A node sits in at most one list, its wake slot's, so
/// rescheduling or cancelling unlinks the old entry at once, in O(1),
/// and a list holds only pending wakes, some of them aliased from later
/// turns of the wheel. The storage is sized by [`reset`](Self::reset):
/// 4 B per bucket and 16 B per node, plus the drains' roster bitmap.
/// Traffic never grows it, so a slot in which every node wakes costs no
/// memory.
///
/// Scheduling at or past the queue's horizon is a no-op, which is how
/// protocol deadlines ("senders stop at the horizon") are enforced
/// without a per-wake branch at drain time.
#[derive(Debug, Default)]
pub struct WakeQueue {
    /// The first node parked in each bucket, `NIL` when empty.
    heads: Vec<u32>,
    mask: u64,
    /// Per node: its wake slot and its links in that slot's bucket.
    parked: Vec<Parked>,
    /// How many nodes are scheduled.
    len: usize,
    horizon: u64,
    /// A roster bitmap, one bit per node, all clear between drains.
    due_bits: Vec<u64>,
    /// The `due_bits` words a drain set, to read back in ascending order.
    due_words: Vec<u32>,
}

/// One node's place in a [`WakeQueue`].
#[derive(Debug, Clone, Copy)]
struct Parked {
    /// The slot the node wakes at, `u64::MAX` when unscheduled.
    wake: u64,
    /// Its neighbours in its bucket's list, `NIL` at either end; unused
    /// while unscheduled.
    prev: u32,
    next: u32,
}

impl Parked {
    const UNSCHEDULED: Self = Self {
        wake: u64::MAX,
        prev: NIL,
        next: NIL,
    };
}

impl WakeQueue {
    /// Creates an empty queue; [`reset`](Self::reset) shapes it.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-shapes the queue in place for `nodes` participants and wakes
    /// strictly below `horizon`, reusing its allocations.
    pub fn reset(&mut self, nodes: usize, horizon: u64) {
        let buckets = horizon.clamp(1, MAX_BUCKETS).next_power_of_two();
        self.reset_with_buckets(nodes, horizon, buckets);
    }

    /// [`reset`](Self::reset) with an explicit power-of-two bucket count:
    /// a smaller wheel aliases far-future wakes into shared buckets,
    /// trading drain scans for bucket memory.
    pub fn reset_with_buckets(&mut self, nodes: usize, horizon: u64, buckets: u64) {
        assert!(
            buckets.is_power_of_two(),
            "bucket count must be a power of two"
        );
        self.heads.clear();
        self.heads.resize(buckets as usize, NIL);
        self.mask = buckets - 1;
        self.parked.clear();
        self.parked.resize(nodes, Parked::UNSCHEDULED);
        self.len = 0;
        self.horizon = horizon;
        let words = nodes.div_ceil(64);
        self.due_bits.clear();
        self.due_bits.resize(words, 0);
        // A drain lists each bitmap word at most once.
        self.due_words.clear();
        self.due_words.reserve_exact(words);
    }

    /// Schedules `node` to wake at `slot`, replacing any pending wake.
    /// Requests at or past the horizon leave the node unscheduled.
    pub fn schedule(&mut self, node: u32, slot: u64) {
        self.cancel(node);
        if slot >= self.horizon {
            return;
        }
        let head = &mut self.heads[(slot & self.mask) as usize];
        let next = std::mem::replace(head, node);
        if next != NIL {
            self.parked[next as usize].prev = node;
        }
        self.parked[node as usize] = Parked {
            wake: slot,
            prev: NIL,
            next,
        };
        self.len += 1;
    }

    /// Unschedules `node`, unlinking its pending wake if it has one.
    pub fn cancel(&mut self, node: u32) {
        let Parked { wake, prev, next } = self.parked[node as usize];
        if wake == u64::MAX {
            return;
        }
        self.parked[node as usize].wake = u64::MAX;
        self.len -= 1;
        if prev == NIL {
            self.heads[(wake & self.mask) as usize] = next;
        } else {
            self.parked[prev as usize].next = next;
        }
        if next != NIL {
            self.parked[next as usize].prev = prev;
        }
    }

    /// How many nodes are scheduled.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no node is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The slot `node` will next wake at, if scheduled.
    #[must_use]
    pub fn next_wake(&self, node: u32) -> Option<u64> {
        let slot = self.parked[node as usize].wake;
        (slot != u64::MAX).then_some(slot)
    }

    /// Moves every wake due exactly at `slot` into `out`, sorted by node
    /// id (ascending — the engine processes wakes in roster order).
    /// The walk covers `slot`'s bucket, unlinking the due nodes and
    /// passing over the wakes aliased into it from later turns.
    ///
    /// Every entry of a batch is due in the same slot and names a
    /// distinct node, so no comparison sort is needed: each due node
    /// sets its bit in a roster bitmap, and the bits are read back in
    /// ascending order, visiting only the words the batch touched (those
    /// few word indices are sorted). A drain costs its bucket's length
    /// plus the batch, not `batch × log(batch)`.
    pub fn drain_due(&mut self, slot: u64, out: &mut Vec<(u64, u32)>) {
        out.clear();
        let mut node = self.heads[(slot & self.mask) as usize];
        while node != NIL {
            let Parked { wake, next, .. } = self.parked[node as usize];
            if wake == slot {
                self.cancel(node);
                let word = &mut self.due_bits[(node / 64) as usize];
                if *word == 0 {
                    self.due_words.push(node / 64);
                }
                *word |= 1 << (node % 64);
            }
            node = next;
        }
        self.due_words.sort_unstable();
        for &w in &self.due_words {
            let mut bits = std::mem::take(&mut self.due_bits[w as usize]);
            while bits != 0 {
                out.push((slot, w * 64 + bits.trailing_zeros()));
                bits &= bits - 1;
            }
        }
        self.due_words.clear();
    }

    /// The first slot in `from..until` at which some wake is due, if any.
    ///
    /// An empty queue answers at once. Otherwise the walk covers the
    /// buckets of at most one turn of the wheel from `from`, looking for
    /// a wake due exactly at its bucket's slot; if the turn finds none
    /// and `until` lies beyond it, every pending wake is at least a turn
    /// away, and one pass over the nodes' schedule finds the earliest.
    /// Drivers use it to jump over slots in which nothing can happen,
    /// without draining them one by one.
    pub fn next_due(&self, from: u64, until: u64) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let turn_end = until.min(from.saturating_add(self.mask + 1));
        for slot in from..turn_end {
            let mut node = self.heads[(slot & self.mask) as usize];
            while node != NIL {
                let parked = self.parked[node as usize];
                if parked.wake == slot {
                    return Some(slot);
                }
                node = parked.next;
            }
        }
        if turn_end == until {
            return None;
        }
        self.parked
            .iter()
            .map(|p| p.wake)
            .filter(|&s| (turn_end..until).contains(&s))
            .min()
    }
}

/// Parameters of a gossip-shaped broadcast for the sleep-skipping
/// engine.
///
/// One driver covers four protocols. Each is one row of this table and
/// one constructor, which is the only place the row is written:
///
/// | protocol | `alice_send_p` | `listen_p` | `relay_p` | `hop_channels` | `terminate_on_inform` | `epoch_len` |
/// |----------|---------------:|-----------:|----------:|:--------------:|:---------------------:|------------:|
/// | [`naive`](Self::naive) | 1.0 | 1.0 | 0.0 | no | yes | 0 |
/// | [`epidemic`](Self::epidemic) | 0.5 | `listen_p` | `λ/n` | no | no | 0 |
/// | [`hopping`](Self::hopping) | 0.5 | `listen_p` | `λ/n` | yes | no | 0 |
/// | [`epoch_hopping`](Self::epoch_hopping) | 0.5 | `listen_p` | `λ/n` | yes | no | `L` |
///
/// `λ/n` is the relay rate over the node count, clamped to `[0, 1]`,
/// and 0 at `n = 0`, where no node is there to relay (the phase
/// kernel's rule).
#[derive(Debug, Clone, Copy)]
pub struct GossipSpec {
    /// Number of receiver nodes (the roster is `n + 1` with Alice at
    /// index 0).
    pub n: u64,
    /// Senders transmit only in slots `< horizon`; in the
    /// horizon-terminated mode (`terminate_on_inform = false`) every
    /// participant terminates once slot `horizon` has been acted.
    pub horizon: u64,
    /// Alice's per-slot transmit probability.
    pub alice_send_p: f64,
    /// An uninformed node's per-slot listen probability.
    pub listen_p: f64,
    /// An informed node's per-slot relay probability.
    pub relay_p: f64,
    /// Whether devices retune to a uniformly random channel per action
    /// (the hopping workload); otherwise everything lands on channel 0.
    pub hop_channels: bool,
    /// Naive mode: a node terminates the moment it is informed, and
    /// uninformed nodes keep listening past the horizon (up to the
    /// driver's `horizon + 2` slot cap) instead of stopping at the
    /// horizon.
    pub terminate_on_inform: bool,
    /// Epoch length in slots for epoch-structured hopping (the
    /// Chen–Zheng 2019 schedule). When nonzero (requires
    /// `hop_channels`), every device holds one channel for `epoch_len`
    /// consecutive slots and redraws only at epoch boundaries; an
    /// uninformed node that sampled noise on its channel during an
    /// epoch excludes that channel from its next draw (listener-side
    /// jam evasion — senders redraw uniformly, since a half-duplex
    /// radio senses nothing while transmitting). `0` disables the
    /// epoch structure (memoryless per-action hopping).
    pub epoch_len: u64,
}

impl GossipSpec {
    /// The §1.1 naive strawman: Alice sends `m` every slot until the
    /// horizon, and every receiver listens every slot until it hears
    /// `m`, then stops. Per-device cost is `Θ(T)`.
    #[must_use]
    pub fn naive(n: u64, horizon: u64) -> Self {
        Self {
            n,
            horizon,
            alice_send_p: 1.0,
            listen_p: 1.0,
            relay_p: 0.0,
            hop_channels: false,
            terminate_on_inform: true,
            epoch_len: 0,
        }
    }

    /// Epidemic gossip without backoff on one channel: Alice sends with
    /// probability 1/2 per slot, uninformed nodes listen with
    /// `listen_p`, informed ones relay with `relay_rate / n`, and no
    /// one stops before the horizon.
    #[must_use]
    pub fn epidemic(n: u64, horizon: u64, listen_p: f64, relay_rate: f64) -> Self {
        Self {
            n,
            horizon,
            alice_send_p: 0.5,
            listen_p,
            relay_p: if n == 0 {
                0.0
            } else {
                (relay_rate / n as f64).clamp(0.0, 1.0)
            },
            hop_channels: false,
            terminate_on_inform: false,
            epoch_len: 0,
        }
    }

    /// [`epidemic`](Self::epidemic) gossip whose devices retune to a
    /// uniformly random channel for every action.
    #[must_use]
    pub fn hopping(n: u64, horizon: u64, listen_p: f64, relay_rate: f64) -> Self {
        Self {
            hop_channels: true,
            ..Self::epidemic(n, horizon, listen_p, relay_rate)
        }
    }

    /// [`hopping`](Self::hopping) on the Chen–Zheng schedule: every
    /// device holds its channel for `epoch_len` slots (see
    /// [`epoch_len`](Self::epoch_len)). An `epoch_len` of 0 is the
    /// memoryless `hopping` row; `rcb_sim`'s builder rejects it.
    #[must_use]
    pub fn epoch_hopping(
        n: u64,
        horizon: u64,
        listen_p: f64,
        relay_rate: f64,
        epoch_len: u64,
    ) -> Self {
        Self {
            epoch_len,
            ..Self::hopping(n, horizon, listen_p, relay_rate)
        }
    }
}

/// Reusable cross-run scratch for [`run_gossip_soa_with`] — the SoA
/// state arrays plus the run's [`Medium`].
#[derive(Debug, Default)]
pub struct GossipSoaScratch {
    medium: Medium,
    budgets: Vec<Budget>,
    rngs: Vec<CounterRng>,
    informed: Vec<bool>,
    pool: Vec<u32>,
    pool_pos: Vec<u32>,
    wake: WakeQueue,
    due: Vec<(u64, u32)>,
    ids: Vec<u32>,
    sampler: SortedSampler,
    epoch_channel: Vec<u16>,
    epoch_detected: Vec<bool>,
    epoch_noisy: Vec<u64>,
    tail: TailBuffers,
}

impl GossipSoaScratch {
    /// Creates an empty scratch; buffers are shaped on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Slots per pass of the send-only tail's slot bitmap: 64 words.
const TAIL_WINDOW: u64 = 1 << 12;

/// The send-only tail's buffers, sized by the roster and [`TAIL_WINDOW`]
/// alone, never by the horizon.
#[derive(Debug, Default)]
struct TailBuffers {
    /// Per device, its next send (`u64::MAX`: none before the horizon).
    next: Vec<u64>,
    /// One bit per slot of the current window: a send or an executed jam.
    noisy: Vec<u64>,
}

/// How the devices of a send-only tail act: what
/// [`run_gossip_soa_with`]'s per-slot loop draws for a sender, in its
/// order.
struct Senders<'a> {
    hop: bool,
    channels: u16,
    /// The epoch length in epoch mode, 0 otherwise.
    epoch_len: u64,
    alice_geo: Option<&'a Geometric>,
    relay_geo: Option<&'a Geometric>,
    horizon: u64,
}

impl Senders<'_> {
    /// Plays device `node`'s actions in `window` from its own stream, in
    /// the per-slot loop's order: at an epoch boundary a channel redraw,
    /// then at a send slot the channel (drawn unless held for the
    /// epoch), the charged send and the gap to the next send. Marks each
    /// send in `noisy` (bit `slot - window.start`).
    #[allow(clippy::too_many_arguments)]
    fn play(
        &self,
        node: u32,
        window: &Range<u64>,
        rng: &mut CounterRng,
        epoch_channel: &mut [u16],
        next: &mut u64,
        medium: &mut Medium,
        noisy: &mut [u64],
    ) {
        let i = node as usize;
        let mut boundary = if self.epoch_len > 0 {
            window.start.max(1).next_multiple_of(self.epoch_len)
        } else {
            u64::MAX
        };
        loop {
            if boundary < window.end && boundary <= *next {
                epoch_channel[i] = rng.gen_range(0..self.channels);
                boundary = boundary.saturating_add(self.epoch_len);
            } else if *next < window.end {
                let slot = *next;
                let channel = if self.epoch_len > 0 {
                    ChannelId::new(epoch_channel[i])
                } else {
                    pick_channel(rng, self.hop, self.channels)
                };
                medium.charge(node, channel, Op::Send);
                let bit = slot - window.start;
                noisy[(bit / 64) as usize] |= 1 << (bit % 64);
                let geo = if node == 0 {
                    self.alice_geo
                } else {
                    self.relay_geo
                };
                *next = geo
                    .map(|geo| slot.saturating_add(1).saturating_add(geo.sample(rng)))
                    .filter(|&wake| wake < self.horizon)
                    .unwrap_or(u64::MAX);
            } else {
                break;
            }
        }
    }
}

/// Whether Carol's [`commitment`](Adversary::commitment)s chain from
/// `slots.start` through `slots.end`.
fn commits_through(adversary: &dyn Adversary, slots: &Range<u64>) -> bool {
    let mut slot = slots.start;
    while slot < slots.end {
        match adversary.commitment(Slot::new(slot)) {
            Some(promise) if promise.until > slot => slot = promise.until,
            _ => return false,
        }
    }
    true
}

/// Settles a run's send-only tail, `slots`, without the per-slot loop:
/// nobody listens in it, so what is left is each device's sends and
/// Carol's jams, and their tallies.
///
/// Window by window ([`TAIL_WINDOW`] slots), each device plays its
/// actions node-major ([`Senders::play`]), and Carol's committed
/// stretches are charged in bulk ([`Medium::charge_committed_jam`]),
/// walking the chain of `carol`'s commitments; `carol` is `None` once
/// her pool is spent. The window's slot bitmap counts the noisy slots.
#[allow(clippy::too_many_arguments)]
fn settle_send_only_tail(
    medium: &mut Medium,
    carol: Option<&dyn Adversary>,
    senders: &Senders<'_>,
    slots: Range<u64>,
    rngs: &mut [CounterRng],
    epoch_channel: &mut [u16],
    wake: &WakeQueue,
    tail: &mut TailBuffers,
) {
    let devices = rngs.len() as u32;
    tail.next.clear();
    tail.next
        .extend((0..devices).map(|node| wake.next_wake(node).unwrap_or(u64::MAX)));
    tail.noisy.clear();
    tail.noisy.resize((TAIL_WINDOW / 64) as usize, 0);
    // Carol's current stretch ends at `until` (fetched when reached).
    let (mut until, mut jam) = (slots.start, JamPlan::none());
    let mut start = slots.start;
    while start < slots.end {
        let window = start..slots.end.min(start.saturating_add(TAIL_WINDOW));
        for (node, rng) in (0..devices).zip(rngs.iter_mut()) {
            senders.play(
                node,
                &window,
                rng,
                epoch_channel,
                &mut tail.next[node as usize],
                medium,
                &mut tail.noisy,
            );
        }
        if let Some(carol) = carol {
            let mut slot = window.start;
            while slot < window.end && !medium.carol_broke() {
                if slot == until {
                    let promise = carol
                        .commitment(Slot::new(slot))
                        .expect("the chain was checked to the end");
                    (until, jam) = (promise.until, promise.jam);
                }
                let stretch = until.min(window.end) - slot;
                let executed = medium.charge_committed_jam(stretch, &jam);
                for bit in slot - window.start..slot - window.start + executed {
                    tail.noisy[(bit / 64) as usize] |= 1 << (bit % 64);
                }
                slot += stretch;
            }
        }
        let noisy: u32 = tail.noisy.iter().map(|w| w.count_ones()).sum();
        medium.count_noisy_slots(u64::from(noisy));
        tail.noisy.fill(0);
        start = window.end;
    }
}

/// Draws the channel an action lands on.
#[inline]
fn pick_channel(rng: &mut CounterRng, hop: bool, channels: u16) -> ChannelId {
    if hop && channels > 1 {
        ChannelId::new(rng.gen_range(0..channels))
    } else {
        ChannelId::ZERO
    }
}

/// Samples and bulk-charges a node's listens over `inert` deferred
/// slots: total via one binomial, split across channels via the chained
/// conditional binomials of a uniform multinomial. Returns the listens
/// the node's budget granted.
fn settle_inert(
    ledger: &mut EnergyLedger,
    rng: &mut CounterRng,
    node: u32,
    inert: u64,
    listen_p: f64,
    hop: bool,
    channels: u16,
) -> u64 {
    if inert == 0 || listen_p <= 0.0 {
        return 0;
    }
    let total = if listen_p >= 1.0 {
        inert
    } else {
        Binomial::new(inert, listen_p)
            .expect("listen_p is a probability")
            .sample(rng)
    };
    if total == 0 {
        return 0;
    }
    if !hop || channels == 1 {
        return ledger.charge_participant_many_on(
            node as usize,
            Op::Listen,
            total,
            ChannelId::ZERO,
        );
    }
    let mut rem = total;
    let mut granted = 0;
    for c in 0..channels - 1 {
        if rem == 0 {
            return granted;
        }
        let take = Binomial::new(rem, 1.0 / f64::from(channels - c))
            .expect("1/(C-c) is a probability")
            .sample(rng);
        if take > 0 {
            granted += ledger.charge_participant_many_on(
                node as usize,
                Op::Listen,
                take,
                ChannelId::new(c),
            );
        }
        rem -= take;
    }
    if rem > 0 {
        granted += ledger.charge_participant_many_on(
            node as usize,
            Op::Listen,
            rem,
            ChannelId::new(channels - 1),
        );
    }
    granted
}

/// Epoch-mode settlement: a dormant node's deferred listens within one
/// epoch all land on its epoch channel, so the multinomial split of
/// [`settle_inert`] collapses to two binomials — one over the epoch's
/// noisy inert slots (which doubles as the node's jam-detection sample)
/// and one over the quiet remainder. Returns whether any noisy slot was
/// sampled, and the listens the node's budget granted.
fn settle_epoch_inert(
    ledger: &mut EnergyLedger,
    rng: &mut CounterRng,
    node: u32,
    channel: u16,
    inert: u64,
    noisy: u64,
    listen_p: f64,
) -> (bool, u64) {
    if inert == 0 || listen_p <= 0.0 {
        return (false, 0);
    }
    let noisy = noisy.min(inert);
    let draw = |rng: &mut CounterRng, trials: u64| -> u64 {
        if trials == 0 {
            0
        } else if listen_p >= 1.0 {
            trials
        } else {
            Binomial::new(trials, listen_p)
                .expect("listen_p is a probability")
                .sample(rng)
        }
    };
    let heard_noise = draw(rng, noisy);
    let quiet = draw(rng, inert - noisy);
    let granted = ledger.charge_participant_many_on(
        node as usize,
        Op::Listen,
        heard_noise + quiet,
        ChannelId::new(channel),
    );
    (heard_noise > 0, granted)
}

/// Runs a gossip-shaped broadcast on the sleep-skipping engine and
/// returns its [`RunReport`].
///
/// Alice's `m` is signed under a key drawn from the run's
/// `"auth-domain"` leaf, and a delivered frame informs an uninformed
/// node only if it carries a valid signature of hers. Every device has
/// an unlimited budget, and the run stops after at most `horizon + 2`
/// slots. Per the module docs, `trace_capacity > 0` or an adversary
/// that [`wants_listener_identities`](Adversary::wants_listener_identities)
/// switches the run to full per-slot listener materialization and keeps
/// it in the per-slot loop to the end; otherwise the send-only tail is
/// settled in bulk once Carol's moves are known to the end.
///
/// Telemetry is purely observational: the collector never draws from
/// the run's RNG streams, so instrumented and uninstrumented runs of
/// one seed are byte-identical. Hot-path counts accumulate in a plain
/// [`EngineProfile`] gated on one hoisted `enabled` bool and flush once
/// at run end; with a [`NoopCollector`](rcb_telemetry::NoopCollector)
/// the whole apparatus folds away.
///
/// # Panics
///
/// Panics if a probability parameter is outside `[0, 1]`, or if
/// `epoch_len` is nonzero without `hop_channels`.
#[must_use]
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
pub fn run_gossip_soa_with<C: Collector + ?Sized>(
    spec: &GossipSpec,
    spectrum: Spectrum,
    carol_budget: Budget,
    trace_capacity: usize,
    adversary: &mut dyn Adversary,
    seeds: &SeedTree,
    scratch: &mut GossipSoaScratch,
    collector: &C,
) -> RunReport {
    let n = spec.n as usize;
    for (label, p) in [
        ("alice_send_p", spec.alice_send_p),
        ("listen_p", spec.listen_p),
        ("relay_p", spec.relay_p),
    ] {
        assert!((0.0..=1.0).contains(&p), "{label} must be a probability");
    }
    assert!(
        spec.epoch_len == 0 || spec.hop_channels,
        "epoch_len requires hop_channels"
    );
    let channels = spectrum.channel_count();
    let hop = spec.hop_channels;
    let max_slots = spec.horizon.saturating_add(2);
    let materialize_all = trace_capacity > 0 || adversary.wants_listener_identities();
    // Telemetry: one hoisted bool gates all bookkeeping; counts batch in
    // a plain-integer profile and flush once after the loop.
    let telemetry = collector.enabled();
    let mut prof = EngineProfile::new();

    let GossipSoaScratch {
        medium,
        budgets,
        rngs,
        informed,
        pool,
        pool_pos,
        wake,
        due,
        ids,
        sampler,
        epoch_channel,
        epoch_detected,
        epoch_noisy,
        tail,
    } = scratch;

    let mut authority = Authority::new(seeds.leaf_seed("auth-domain", 0));
    let alice_key = authority.issue_key();
    let verifier = authority.verifier();
    let alice_id = alice_key.id();
    let m = Payload::Broadcast(alice_key.sign(&MessageBytes::from_static(b"gossip payload m")));
    let informs = |payload: &Payload| {
        matches!(payload, Payload::Broadcast(signed)
            if signed.signer() == alice_id && verifier.verify_signed(signed))
    };

    // Re-shape every buffer in place (allocation-free once warm).
    budgets.clear();
    budgets.resize(n + 1, Budget::unlimited());
    medium.reset(budgets, carol_budget, spectrum, trace_capacity);
    rngs.clear();
    rngs.extend((0..=n).map(|i| CounterRng::new(seeds.leaf_seed("participant", i as u64))));
    let mut engine_rng = CounterRng::new(seeds.leaf_seed("era2-engine", 0));
    informed.clear();
    informed.resize(n + 1, false);
    informed[0] = true;
    pool.clear();
    pool.extend(1..=n as u32);
    pool_pos.clear();
    pool_pos.resize(n + 1, u32::MAX);
    for (pos, &node) in pool.iter().enumerate() {
        pool_pos[node as usize] = pos as u32;
    }
    wake.reset(n + 1, spec.horizon);
    // Epoch-structured hopping: with one channel the schedule degenerates
    // to single-channel gossip and draws nothing — the stream stays
    // identical to the memoryless C=1 run.
    let epoch_mode = spec.epoch_len > 0 && hop && channels > 1;
    epoch_channel.clear();
    epoch_detected.clear();
    epoch_noisy.clear();
    let mut epoch_inert = 0u64;
    if epoch_mode {
        epoch_channel.extend((0..=n).map(|i| rngs[i].gen_range(0..channels)));
        epoch_detected.resize(n + 1, false);
        epoch_noisy.resize(channels as usize, 0);
    }

    let alice_geo = (spec.alice_send_p > 0.0)
        .then(|| Geometric::new(spec.alice_send_p).expect("validated above"));
    let relay_geo =
        (spec.relay_p > 0.0).then(|| Geometric::new(spec.relay_p).expect("validated above"));
    if let Some(geo) = &alice_geo {
        let first = geo.sample(&mut rngs[0]);
        wake.schedule(0, first);
    }

    let senders = Senders {
        hop,
        channels,
        epoch_len: if epoch_mode { spec.epoch_len } else { 0 },
        alice_geo: alice_geo.as_ref(),
        relay_geo: relay_geo.as_ref(),
        horizon: spec.horizon,
    };
    let mut inert_slots = 0u64;
    let mut settled_slots = 0u64;
    let mut slot_idx = 0u64;
    let stop_reason = loop {
        if slot_idx >= max_slots {
            break StopReason::SlotCapReached;
        }
        // Termination shape: Alice and (in horizon mode) the nodes set
        // their done flags while acting slot `horizon`, so from the next
        // slot's perspective everyone is terminated. Naive-mode nodes
        // terminate individually on informing.
        let alice_terminated = slot_idx > spec.horizon;
        let nodes_terminated = if spec.terminate_on_inform {
            pool.is_empty()
        } else {
            slot_idx > spec.horizon
        };
        if alice_terminated && nodes_terminated {
            break StopReason::AllTerminated;
        }
        // The send-only tail: with no uninformed node left, nobody listens
        // again, and every device terminates once slot `horizon` has been
        // acted. If Carol's moves to then are known too (her pool is
        // spent, or her commitments chain there), settle the rest in bulk.
        if !materialize_all && pool.is_empty() {
            let rest = slot_idx..spec.horizon.saturating_add(1);
            let carol_known = medium.carol_broke()
                || (!adversary.is_reactive() && commits_through(adversary, &rest));
            if carol_known {
                let carol = (!medium.carol_broke()).then_some(&*adversary);
                settled_slots = rest.end - rest.start;
                slot_idx = rest.end;
                settle_send_only_tail(
                    medium,
                    carol,
                    &senders,
                    rest,
                    rngs,
                    epoch_channel,
                    wake,
                    tail,
                );
                break StopReason::AllTerminated;
            }
        }
        // Epoch boundary: settle every dormant node's deferred listens
        // for the finished epoch and redraw channels, in roster order.
        // An uninformed node that sampled noise evades its old channel;
        // everyone else redraws uniformly.
        if epoch_mode && slot_idx > 0 && slot_idx.is_multiple_of(spec.epoch_len) {
            for node in 0..=n as u32 {
                let i = node as usize;
                let prev = epoch_channel[i];
                if node > 0 && pool_pos[i] != u32::MAX {
                    let (heard, charged) = settle_epoch_inert(
                        &mut medium.ledger,
                        &mut rngs[i],
                        node,
                        prev,
                        epoch_inert,
                        epoch_noisy[prev as usize],
                        spec.listen_p,
                    );
                    if telemetry {
                        prof.settled_listens += charged;
                    }
                    let detected = epoch_detected[i] || heard;
                    let rng = &mut rngs[i];
                    epoch_channel[i] = if detected {
                        let r = rng.gen_range(0..channels - 1);
                        if r >= prev {
                            r + 1
                        } else {
                            r
                        }
                    } else {
                        rng.gen_range(0..channels)
                    };
                } else {
                    epoch_channel[i] = rngs[i].gen_range(0..channels);
                }
                epoch_detected[i] = false;
            }
            epoch_inert = 0;
            for count in epoch_noisy.iter_mut() {
                *count = 0;
            }
        }

        // 1. Senders due this slot transmit and re-draw their next wake.
        wake.drain_due(slot_idx, due);
        if telemetry && !due.is_empty() {
            prof.wake_drains += 1;
            prof.wake_drained += due.len() as u64;
            collector.observe(MetricId::EngineWakeDrainBatch, due.len() as f64);
        }
        for &(_, node) in due.iter() {
            let rng = &mut rngs[node as usize];
            let channel = if epoch_mode {
                ChannelId::new(epoch_channel[node as usize])
            } else {
                pick_channel(rng, hop, channels)
            };
            medium.send(node, channel, m.clone());
            let geo = if node == 0 { &alice_geo } else { &relay_geo };
            if let Some(geo) = geo {
                let gap = geo.sample(rng);
                wake.schedule(node, slot_idx.saturating_add(1).saturating_add(gap));
            }
        }

        // 2. Carol's turn. Listeners: a slot can change listener state
        //    (or deliver any frame) only if some channel carries exactly
        //    one transmission not blanket-jammed; otherwise every listen
        //    resolves to silence or noise and is deferred to settlement.
        let listen_open = spec.terminate_on_inform || slot_idx < spec.horizon;
        medium.carol_turn(Slot::new(slot_idx), adversary, |air| {
            if !listen_open || pool.is_empty() {
                return;
            }
            if !materialize_all && !air.may_deliver() {
                inert_slots += 1;
                if epoch_mode {
                    // Track which channels a deferred listener would have
                    // heard noise on: blanket jam, or any transmission
                    // (an inert slot's lone transmissions are exactly the
                    // blanket-jammed ones; ≥ 2 collide).
                    epoch_inert += 1;
                    for c in 0..channels {
                        let ch = ChannelId::new(c);
                        if !air.load.on(ch).is_empty()
                            || matches!(air.jam.directive_on(ch), JamDirective::All)
                        {
                            epoch_noisy[c as usize] += 1;
                        }
                    }
                }
                return;
            }
            // Materialize the exact listener set: count, identities, and
            // per-listener channels, in roster order.
            let u = pool.len() as u64;
            let k = if spec.listen_p >= 1.0 {
                u
            } else if spec.listen_p <= 0.0 {
                0
            } else {
                Binomial::new(u, spec.listen_p)
                    .expect("validated above")
                    .sample(&mut engine_rng)
            };
            ids.clear();
            let roster = n as u64 + 1;
            let push = |id: u64| ids.push(id as u32);
            if k == u {
                sampler.ascending(pool.iter().map(|&node| u64::from(node)), roster, push);
            } else {
                let member = |i: u64| u64::from(pool[i as usize]);
                sampler.sample_mapped(&mut engine_rng, u, k, roster, member, push);
            }
            for &node in ids.iter() {
                let channel = if epoch_mode {
                    ChannelId::new(epoch_channel[node as usize])
                } else {
                    pick_channel(&mut rngs[node as usize], hop, channels)
                };
                air.listen(node, channel);
            }
            if telemetry && !air.listeners().is_empty() {
                // Passes that resolve someone, and the listens budgets
                // granted, as in the ε-BROADCAST driver.
                prof.listener_passes += 1;
                prof.listeners_resolved += air.listeners().len() as u64;
            }
            air.hear_all(|ledger, pid, reception| {
                if epoch_mode && reception.is_noisy() {
                    epoch_detected[pid.index() as usize] = true;
                }
                let Reception::Frame(payload) = reception else {
                    return;
                };
                let node = pid.index();
                if informed[node as usize] || !informs(payload) {
                    return;
                }
                informed[node as usize] = true;
                let pos = pool_pos[node as usize] as usize;
                pool.swap_remove(pos);
                if pos < pool.len() {
                    pool_pos[pool[pos] as usize] = pos as u32;
                }
                pool_pos[node as usize] = u32::MAX;
                let charged = if epoch_mode {
                    // Prior epochs settled at their boundaries; only the
                    // current epoch's inert listens remain.
                    let ch = epoch_channel[node as usize];
                    settle_epoch_inert(
                        ledger,
                        &mut rngs[node as usize],
                        node,
                        ch,
                        epoch_inert,
                        epoch_noisy[ch as usize],
                        spec.listen_p,
                    )
                    .1
                } else {
                    settle_inert(
                        ledger,
                        &mut rngs[node as usize],
                        node,
                        inert_slots,
                        spec.listen_p,
                        hop,
                        channels,
                    )
                };
                if telemetry {
                    prof.settled_listens += charged;
                }
                if !spec.terminate_on_inform {
                    if let Some(geo) = &relay_geo {
                        let gap = geo.sample(&mut rngs[node as usize]);
                        wake.schedule(node, slot_idx.saturating_add(1).saturating_add(gap));
                    }
                }
            });
        });

        slot_idx += 1;
    };

    // Nodes still dormant at the end settle their deferred listens now,
    // in roster order (epoch mode: only the final partial epoch is
    // outstanding — earlier epochs settled at their boundaries).
    for node in 1..=n as u32 {
        if pool_pos[node as usize] != u32::MAX {
            let charged = if epoch_mode {
                let ch = epoch_channel[node as usize];
                settle_epoch_inert(
                    &mut medium.ledger,
                    &mut rngs[node as usize],
                    node,
                    ch,
                    epoch_inert,
                    epoch_noisy[ch as usize],
                    spec.listen_p,
                )
                .1
            } else {
                settle_inert(
                    &mut medium.ledger,
                    &mut rngs[node as usize],
                    node,
                    inert_slots,
                    spec.listen_p,
                    hop,
                    channels,
                )
            };
            if telemetry {
                prof.settled_listens += charged;
            }
        }
    }

    if telemetry {
        prof.slots = slot_idx;
        // The adversary plans once per slot of the per-slot loop; inert
        // slots were counted (not simulated) on the listener side, and
        // the send-only tail was settled without her.
        prof.adversary_plans = slot_idx - settled_slots;
        prof.inert_slots = inert_slots;
        // Exact: a stream's counter is the number of words it drew.
        prof.rng_draws = rngs.iter().map(CounterRng::counter).sum::<u64>() + engine_rng.counter();
        prof.flush(collector);
    }

    let alice_done = slot_idx > spec.horizon;
    let terminated: Vec<bool> = if spec.terminate_on_inform {
        std::iter::once(alice_done)
            .chain(informed[1..].iter().copied())
            .collect()
    } else {
        vec![alice_done; n + 1]
    };
    medium.report(slot_idx, stop_reason, std::mem::take(informed), terminated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{AdversaryCtx, AdversaryMove, SilentAdversary};
    use crate::spectrum::Spectrum;

    use rcb_rng::subset::sample_distinct;
    use rcb_telemetry::NoopCollector;

    fn quiet_spec(n: u64, horizon: u64) -> GossipSpec {
        GossipSpec::epidemic(n, horizon, 0.5, 1.0)
    }

    fn run_in(
        spec: &GossipSpec,
        spectrum: Spectrum,
        trace_capacity: usize,
        carol_budget: Budget,
        adversary: &mut dyn Adversary,
        seed: u64,
        scratch: &mut GossipSoaScratch,
    ) -> RunReport {
        run_gossip_soa_with(
            spec,
            spectrum,
            carol_budget,
            trace_capacity,
            adversary,
            &SeedTree::new(seed),
            scratch,
            &NoopCollector,
        )
    }

    fn run(
        spec: &GossipSpec,
        spectrum: Spectrum,
        trace_capacity: usize,
        carol_budget: Budget,
        adversary: &mut dyn Adversary,
        seed: u64,
    ) -> RunReport {
        let mut scratch = GossipSoaScratch::new();
        run_in(
            spec,
            spectrum,
            trace_capacity,
            carol_budget,
            adversary,
            seed,
            &mut scratch,
        )
    }

    #[test]
    fn wake_queue_drains_in_node_order_and_respects_horizon() {
        let mut q = WakeQueue::new();
        q.reset(8, 100);
        q.schedule(5, 10);
        q.schedule(2, 10);
        q.schedule(7, 11);
        q.schedule(3, 100); // at horizon: dropped
        assert_eq!(q.next_wake(3), None);
        let mut out = Vec::new();
        q.drain_due(10, &mut out);
        assert_eq!(out, vec![(10, 2), (10, 5)]);
        assert_eq!(q.next_wake(5), None);
        q.drain_due(11, &mut out);
        assert_eq!(out, vec![(11, 7)]);
    }

    #[test]
    fn wake_queue_takes_any_horizon() {
        // Past 2^63 the next power of two overflows; the wheel is capped
        // long before, so any horizon shapes the same 2^16 buckets.
        let mut q = WakeQueue::new();
        for (horizon, buckets) in [
            (0, 1),
            (1, 1),
            (3, 4),
            (1 << 16, 1 << 16),
            ((1 << 16) + 1, 1 << 16),
            ((1 << 63) + 1, 1 << 16),
            (u64::MAX - 1, 1 << 16),
            (u64::MAX, 1 << 16),
        ] {
            q.reset(3, horizon);
            assert_eq!(q.heads.len(), buckets, "horizon {horizon}");
            q.schedule(2, horizon.saturating_sub(1));
            assert_eq!(q.len(), usize::from(horizon > 0), "horizon {horizon}");
        }
    }

    #[test]
    fn wake_queue_reschedule_and_cancel_unlink_the_old_entry() {
        let mut q = WakeQueue::new();
        q.reset(4, 1_000);
        q.schedule(1, 5);
        q.schedule(1, 9); // reschedule: the entry at 5 is unlinked
        q.schedule(2, 5);
        q.cancel(2);
        let mut out = Vec::new();
        q.drain_due(5, &mut out);
        assert!(out.is_empty(), "moved and cancelled wakes must not fire");
        q.drain_due(9, &mut out);
        assert_eq!(out, vec![(9, 1)]);
    }

    #[test]
    fn wake_queue_aliasing_keeps_future_entries() {
        let mut q = WakeQueue::new();
        // 4 buckets: slots 3 and 7 share bucket 3.
        q.reset_with_buckets(4, 1_000, 4);
        q.schedule(0, 3);
        q.schedule(1, 7);
        let mut out = Vec::new();
        q.drain_due(3, &mut out);
        assert_eq!(out, vec![(3, 0)]);
        q.drain_due(7, &mut out);
        assert_eq!(out, vec![(7, 1)]);
    }

    #[test]
    fn wake_queue_matches_a_model_under_random_traffic() {
        // Random schedule / reschedule / cancel traffic over wheels far
        // shorter than the horizon, so entries alias and move. Time
        // advances slot by slot or, like a driver skipping dead air, by
        // `next_due` jumps that leave buckets undrained. Every drain is
        // checked against a node → slot model, every `next_due` against
        // a brute-force scan of it.
        use std::collections::BTreeMap;
        let nodes = 131u32; // n + 1 over three bitmap words, one partial
        let horizon = 700u64;
        let mut rng = CounterRng::new(0x3a7e_9d01);
        let mut q = WakeQueue::new();
        let mut out = Vec::new();
        let mut seen = vec![false; nodes as usize + 1];
        for episode in 0..24 {
            let wheel = 1u64 << (episode % 6); // 1 … 32 buckets
            q.reset_with_buckets(nodes as usize, horizon, wheel);
            let mut model: BTreeMap<u32, u64> = BTreeMap::new();
            let mut now = 0u64;
            while now < horizon {
                let schedule = |q: &mut WakeQueue, model: &mut BTreeMap<u32, u64>, node, slot| {
                    q.schedule(node, slot);
                    if slot < horizon {
                        model.insert(node, slot);
                    } else {
                        model.remove(&node);
                    }
                };
                for _ in 0..rng.gen_range(0..6u32) {
                    let node = rng.gen_range(0..nodes);
                    let gap = match rng.gen_range(0..4u32) {
                        0 => rng.gen_range(0..4),
                        1 => rng.gen_range(0..4 * wheel + 8),
                        2 => rng.gen_range(0..horizon),
                        _ => horizon, // at or past the horizon: unscheduled
                    };
                    schedule(&mut q, &mut model, node, now + gap);
                    if rng.gen_bool(0.2) {
                        q.cancel(node);
                        model.remove(&node);
                    }
                }
                // Bursts: a random subset due now or shortly, and now and
                // then the whole roster due in this very slot, parked in
                // descending order so that roster order must be restored.
                if rng.gen_bool(0.1) {
                    let k = rng.gen_range(0..=u64::from(nodes));
                    let at = now + rng.gen_range(0..3);
                    let mut burst = sample_distinct(&mut rng, u64::from(nodes), k);
                    burst.sort_unstable_by(|a, b| b.cmp(a));
                    for node in burst {
                        schedule(&mut q, &mut model, node as u32, at);
                    }
                }
                if rng.gen_bool(0.02) {
                    for node in (0..nodes).rev() {
                        schedule(&mut q, &mut model, node, now);
                    }
                }
                for until in [
                    now,
                    now + 1,
                    now + rng.gen_range(0..wheel + 2),
                    now + rng.gen_range(0..8 * wheel + 64),
                    horizon,
                ] {
                    let brute = model.values().copied().filter(|&s| s < until).min();
                    assert_eq!(q.next_due(now, until), brute, "next_due({now}, {until})");
                }
                q.drain_due(now, &mut out);
                let expected: Vec<(u64, u32)> = model
                    .iter()
                    .filter(|&(_, &s)| s == now)
                    .map(|(&node, &s)| (s, node))
                    .collect();
                assert_eq!(out, expected, "episode {episode}, slot {now}");
                model.retain(|_, s| *s != now);
                seen[out.len()] = true;
                for node in 0..nodes {
                    assert_eq!(q.next_wake(node), model.get(&node).copied());
                }
                assert_eq!(q.len(), model.len(), "episode {episode}, slot {now}");
                now = if rng.gen_bool(0.3) {
                    q.next_due(now + 1, horizon).unwrap_or(horizon)
                } else {
                    now + 1
                };
            }
            // Refill the queue, then cancel it down to empty in random
            // order: the count follows the model, and an empty queue
            // answers `next_due` without a walk.
            now = rng.gen_range(0..horizon);
            for node in 0..nodes {
                q.schedule(node, now + rng.gen_range(0..4 * wheel + 8));
            }
            let order = sample_distinct(&mut rng, u64::from(nodes), u64::from(nodes));
            for (cancelled, node) in order.into_iter().enumerate() {
                assert_eq!(q.len(), nodes as usize - cancelled);
                q.cancel(node as u32);
                q.cancel(node as u32);
            }
            assert!(q.is_empty());
            assert_eq!(q.next_due(now, horizon), None);
            q.drain_due(now, &mut out);
            assert!(out.is_empty());
            assert_well_linked(&q);
        }
        let n = nodes as usize;
        assert!(
            seen[0] && seen[1] && seen[n],
            "empty, single and full drains"
        );
        assert!(seen[2..=64].contains(&true), "a drain within one word");
        assert!(seen[65..n].contains(&true), "a drain across words");
    }

    /// Walks every bucket's list, with a bound, checking that the lists
    /// hold exactly the scheduled nodes, each in its slot's bucket and
    /// linked both ways.
    fn assert_well_linked(q: &WakeQueue) {
        let mut listed = 0;
        for (bucket, &head) in q.heads.iter().enumerate() {
            let (mut prev, mut node) = (NIL, head);
            while node != NIL {
                assert!(listed < q.parked.len(), "a bucket list cycles");
                let parked = q.parked[node as usize];
                assert_eq!(parked.wake & q.mask, bucket as u64, "node {node}'s bucket");
                assert_eq!(parked.prev, prev, "node {node}'s back link");
                listed += 1;
                (prev, node) = (node, parked.next);
            }
        }
        let scheduled = q.parked.iter().filter(|p| p.wake != u64::MAX).count();
        assert_eq!(listed, scheduled, "every scheduled node is listed once");
    }

    #[test]
    fn wake_queue_memory_is_fixed_at_reset() {
        // Whole-roster bursts due in one slot, again and again, then
        // re-parked across a wheel far shorter than the horizon, with
        // reschedules, cancels and `next_due` jumps: the storage `reset`
        // sized must carry all of it, and a drain lists each bitmap word
        // at most once.
        let nodes = 300u32; // five bitmap words, one partial
        let words = 5;
        let horizon = 20_000u64;
        let mut rng = CounterRng::new(0x5eed_b0a7);
        let mut q = WakeQueue::new();
        q.reset_with_buckets(nodes as usize, horizon, 16);
        assert_eq!(q.due_words.capacity(), words);
        let shape = |q: &WakeQueue| {
            [
                q.heads.len(),
                q.heads.capacity(),
                q.parked.len(),
                q.parked.capacity(),
                q.due_bits.len(),
                q.due_bits.capacity(),
                q.due_words.capacity(),
            ]
        };
        let sized = shape(&q);
        assert_eq!(sized[..6], [16, 16, 300, 300, words, words]);
        let mut out = Vec::new();
        let (mut now, mut bursts) = (0u64, 0);
        while now < horizon {
            for _ in 0..rng.gen_range(0..20u32) {
                let node = rng.gen_range(0..nodes);
                q.schedule(node, now + rng.gen_range(1..500));
                if rng.gen_bool(0.3) {
                    q.cancel(node);
                }
            }
            let burst = rng.gen_bool(0.2);
            if burst {
                bursts += 1;
                for node in (0..nodes).rev() {
                    q.schedule(node, now);
                }
            }
            assert_well_linked(&q);
            q.drain_due(now, &mut out);
            assert!(!burst || out.len() == nodes as usize);
            for &(_, node) in &out {
                q.schedule(node, now + 1 + rng.gen_range(0..2_000));
            }
            assert!(q.due_words.is_empty() && q.due_bits.iter().all(|&w| w == 0));
            assert_eq!(shape(&q), sized, "slot {now}");
            assert_well_linked(&q);
            now = if rng.gen_bool(0.3) {
                q.next_due(now + 1, horizon).unwrap_or(horizon)
            } else {
                now + 1
            };
        }
        assert!(bursts > 100, "{bursts} whole-roster drains");
    }

    #[test]
    fn quiet_gossip_informs_everyone_and_stops_at_the_horizon() {
        let spec = quiet_spec(32, 4_000);
        let report = run(
            &spec,
            Spectrum::single(),
            0,
            Budget::unlimited(),
            &mut SilentAdversary,
            1,
        );
        assert_eq!(report.stop_reason, StopReason::AllTerminated);
        assert_eq!(report.slots_elapsed, 4_001);
        assert!(report.informed.iter().all(|&b| b), "everyone informs");
        assert!(report.terminated.iter().all(|&b| b));
        // Informed nodes stop listening: per-node listens far below the
        // 0.5 × horizon an uninformed node would pay.
        let listens: u64 = report.participant_costs[1..]
            .iter()
            .map(|c| c.listens)
            .sum();
        assert!(listens < 32 * 400, "mean listens too high: {listens}");
        assert!(
            report.participant_costs[0].sends > 1_500,
            "Alice sends ~half the slots"
        );
    }

    #[test]
    fn runs_are_deterministic_by_seed() {
        let hopping = GossipSpec::hopping(24, 2_000, 0.5, 1.0);
        let run = |seed| {
            run(
                &hopping,
                Spectrum::new(4),
                0,
                Budget::unlimited(),
                &mut SilentAdversary,
                seed,
            )
        };
        let a = run(9);
        let b = run(9);
        assert_eq!(a.slots_elapsed, b.slots_elapsed);
        assert_eq!(a.participant_costs, b.participant_costs);
        assert_eq!(a.informed, b.informed);
        assert_eq!(a.channel_stats, b.channel_stats);
        let c = run(10);
        assert_ne!(
            a.participant_costs, c.participant_costs,
            "different seeds should differ"
        );
    }

    /// Jams every channel of the spectrum, every slot.
    struct Blanket(Spectrum);
    impl Adversary for Blanket {
        fn plan(&mut self, _: Slot, _: &AdversaryCtx) -> AdversaryMove {
            AdversaryMove::jam_spectrum(self.0)
        }
    }

    #[test]
    fn blanket_jamming_defers_listens_but_still_charges_them() {
        // Everything is jammed: no one informs, every listen is settled
        // in bulk at the end, and aggregate listen counts look binomial.
        let n = 64u64;
        let horizon = 2_000u64;
        let spec = quiet_spec(n, horizon);
        let report = run(
            &spec,
            Spectrum::single(),
            0,
            Budget::unlimited(),
            &mut Blanket(Spectrum::single()),
            3,
        );
        assert!(report.informed[1..].iter().all(|&b| !b), "no deliveries");
        assert_eq!(report.jammed_slots, horizon + 1);
        let listens: Vec<u64> = report.participant_costs[1..]
            .iter()
            .map(|c| c.listens)
            .collect();
        let mean = listens.iter().sum::<u64>() as f64 / n as f64;
        let expected = horizon as f64 * spec.listen_p;
        assert!(
            (mean - expected).abs() < expected * 0.1,
            "mean listens {mean} should be ≈ {expected}"
        );
        assert_eq!(report.channel_stats[0].delivered, 0);
    }

    #[test]
    fn naive_mode_informs_in_slot_zero_for_one_listen_each() {
        let spec = GossipSpec::naive(16, 50);
        let report = run(
            &spec,
            Spectrum::single(),
            0,
            Budget::unlimited(),
            &mut SilentAdversary,
            1,
        );
        assert!(report.informed.iter().all(|&b| b));
        assert_eq!(report.stop_reason, StopReason::AllTerminated);
        assert_eq!(report.slots_elapsed, 51, "Alice transmits to her horizon");
        let listens: u64 = report.participant_costs[1..]
            .iter()
            .map(|c| c.listens)
            .sum();
        assert_eq!(listens, 16, "every receiver pays exactly one listen");
        assert_eq!(report.participant_costs[0].sends, 50);
    }

    /// Jams channel 0 with `All` until broke.
    struct JamAll;
    impl Adversary for JamAll {
        fn plan(&mut self, _: Slot, _: &AdversaryCtx) -> AdversaryMove {
            AdversaryMove::jam_all()
        }
    }

    #[test]
    fn naive_mode_uninformed_nodes_listen_past_the_horizon_to_the_cap() {
        // Carol outlasts the horizon: receivers never inform and keep
        // listening until the slot cap.
        let spec = GossipSpec::naive(4, 30);
        let report = run(
            &spec,
            Spectrum::single(),
            0,
            Budget::unlimited(),
            &mut JamAll,
            2,
        );
        assert_eq!(report.stop_reason, StopReason::SlotCapReached);
        assert_eq!(report.slots_elapsed, 32);
        assert!(report.informed[1..].iter().all(|&b| !b));
        assert!(report.terminated[0], "Alice terminated at her horizon");
        assert!(report.terminated[1..].iter().all(|&t| !t));
        for cost in &report.participant_costs[1..] {
            assert_eq!(cost.listens, 32, "listens continue through the cap");
        }
    }

    #[test]
    fn traced_runs_materialize_exact_listener_counts() {
        let spec = quiet_spec(16, 500);
        let report = run(
            &spec,
            Spectrum::single(),
            1024,
            Budget::unlimited(),
            &mut SilentAdversary,
            5,
        );
        // With full materialization there is no bulk settlement: the
        // trace's listener counts must reconcile exactly with the
        // ledger's listen charges.
        let traced: u64 = report
            .trace
            .records()
            .iter()
            .map(|r| u64::from(r.listeners))
            .sum();
        let charged: u64 = report.participant_costs[1..]
            .iter()
            .map(|c| c.listens)
            .sum();
        assert_eq!(traced, charged);
        assert!(report.informed.iter().all(|&b| b));
    }

    #[test]
    fn hopping_spreads_settled_listens_across_channels() {
        let spec = GossipSpec::hopping(32, 3_000, 0.5, 1.0);
        let spectrum = Spectrum::new(4);
        let report = run(
            &spec,
            spectrum,
            0,
            Budget::unlimited(),
            &mut Blanket(spectrum),
            7,
        );
        // Blanket jamming defers everything; the multinomial split must
        // land listens on every channel.
        for (i, stats) in report.channel_stats.iter().enumerate() {
            assert!(
                stats.correct_listens > 0,
                "channel {i} never hosted a listener"
            );
        }
        let per_channel: Vec<u64> = report
            .channel_stats
            .iter()
            .map(|s| s.correct_listens)
            .collect();
        let total: u64 = per_channel.iter().sum();
        for (i, &l) in per_channel.iter().enumerate() {
            let share = l as f64 / total as f64;
            assert!(
                (share - 0.25).abs() < 0.05,
                "channel {i} share {share} should be ≈ 1/4"
            );
        }
    }

    #[test]
    fn telemetry_counts_what_happened() {
        // A 1,500-slot blanket jam defers most listens, and the slots
        // after it resolve the rest. Settled plus materialized listens
        // must add up to what the ledger charged, and the RNG count must
        // be every stream's draws.
        let spec = quiet_spec(16, 2_000);
        let collector = rcb_telemetry::RecordingCollector::new();
        let report = run_gossip_soa_with(
            &spec,
            Spectrum::single(),
            Budget::limited(1_500),
            0,
            &mut Blanket(Spectrum::single()),
            &SeedTree::new(1),
            &mut GossipSoaScratch::new(),
            &collector,
        );
        let charged: u64 = report.participant_costs.iter().map(|c| c.listens).sum();
        let settled = collector.counter(MetricId::EngineSettledListens);
        let resolved = collector.counter(MetricId::EngineListenersResolved);
        assert!(
            settled > 0 && resolved > 0,
            "{settled} settled, {resolved} resolved"
        );
        assert_eq!(settled + resolved, charged);
        assert!(collector.counter(MetricId::EngineRngDraws) > 0);

        // A traced run materializes every slot, but with listen_p 0.05
        // most slots draw no listener: only the others count as passes.
        let mut sparse = quiet_spec(16, 500);
        sparse.listen_p = 0.05;
        let collector = rcb_telemetry::RecordingCollector::new();
        let report = run_gossip_soa_with(
            &sparse,
            Spectrum::single(),
            Budget::unlimited(),
            1 << 12,
            &mut SilentAdversary,
            &SeedTree::new(1),
            &mut GossipSoaScratch::new(),
            &collector,
        );
        let heard = report.trace.records().iter().filter(|r| r.listeners > 0);
        assert_eq!(
            collector.counter(MetricId::EngineListenerPasses),
            heard.count() as u64
        );
    }

    #[test]
    fn scratch_reuse_reproduces_fresh_runs() {
        let spec = quiet_spec(24, 1_500);
        let mut scratch = GossipSoaScratch::new();
        let first_run = |scratch: &mut GossipSoaScratch| {
            run_in(
                &spec,
                Spectrum::single(),
                0,
                Budget::unlimited(),
                &mut SilentAdversary,
                21,
                scratch,
            )
        };
        let first = first_run(&mut scratch);
        // Run something different through the same scratch, then repeat
        // the first run: reuse must leak nothing.
        let _ = run_in(
            &GossipSpec::epoch_hopping(8, 300, 0.5, 1.0, 16),
            Spectrum::new(4),
            7,
            Budget::unlimited(),
            &mut SilentAdversary,
            22,
            &mut scratch,
        );
        let again = first_run(&mut scratch);
        assert_eq!(first.slots_elapsed, again.slots_elapsed);
        assert_eq!(first.participant_costs, again.participant_costs);
        assert_eq!(first.informed, again.informed);
        assert_eq!(first.channel_stats, again.channel_stats);
    }
}
