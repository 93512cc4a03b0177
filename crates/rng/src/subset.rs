//! Uniform sampling of distinct indices.
//!
//! When a propagation-phase slot succeeds, *every listener* of that slot
//! becomes informed; the aggregated simulator knows only how many of the
//! `u` uninformed nodes listened. Converting that count into concrete node
//! identities (for per-node bookkeeping) requires a uniform `k`-subset of
//! `{0, …, u−1}` — Floyd's algorithm does this in `O(k)` expected time,
//! independent of `u`: for `j = n−k … n−1` it draws `t` uniform in
//! `[0, j]` and picks `t`, or `j` when `t` is already picked.
//!
//! Two samplers run it on the same words:
//!
//! * [`sample_distinct`] returns the picks in insertion order, testing
//!   membership in a hash set. Callers that need a random order (the
//!   two-player KSY epochs, random cancel orders in tests) use it.
//! * [`SortedSampler`] returns the same picks in ascending order. It
//!   tests membership in a reusable bitset over the universe and reads
//!   the bits back in order, so it hashes, sorts and allocates nothing
//!   once warm. Where the universe is much larger than the sample (more
//!   than 16 bitset words, 128 bytes, per pick, and more than 8 KiB in
//!   all), a bitset would cost more memory than the picks; there it falls
//!   back to [`sample_distinct`] and a sort, whose memory is `O(k)`.
//!
//! Both draw the same words from the stream and pick the same set, so a
//! caller can move from one to the other without changing a result.

use std::collections::HashSet;

use rand::Rng;

/// Samples `k` distinct values uniformly from `0..n` (Floyd's algorithm).
///
/// The returned vector is in insertion order, **not** sorted and **not**
/// uniformly permuted; callers that need a uniform random *sequence* should
/// shuffle it. [`SortedSampler`] picks the same values from the same words
/// and hands them over in ascending order.
///
/// # Panics
///
/// Panics if `k > n` — there is no `k`-subset to sample.
///
/// # Example
///
/// ```
/// use rcb_rng::{subset::sample_distinct, SimRng};
/// use rand::SeedableRng;
///
/// let mut rng = SimRng::seed_from_u64(3);
/// let picks = sample_distinct(&mut rng, 1_000_000, 5);
/// assert_eq!(picks.len(), 5);
/// ```
#[must_use]
pub fn sample_distinct<R: Rng + ?Sized>(rng: &mut R, n: u64, k: u64) -> Vec<u64> {
    assert!(k <= n, "cannot sample {k} distinct values from 0..{n}");
    let mut chosen: HashSet<u64> = HashSet::with_capacity(k as usize);
    let mut out = Vec::with_capacity(k as usize);
    // Floyd: for j = n-k .. n-1, pick t in [0, j]; insert t unless already
    // present, in which case insert j. Produces a uniform k-subset.
    for j in (n - k)..n {
        let t = rng.gen_range(0..=j);
        let pick = if chosen.contains(&t) { j } else { t };
        chosen.insert(pick);
        out.push(pick);
    }
    out
}

/// The most bitset words per pick [`SortedSampler`] spends before it
/// takes the bounded-memory path: 128 bytes per pick.
const BITSET_WORDS_PER_PICK: u64 = 16;

/// The bitset words [`SortedSampler`] spends whatever the sample size:
/// 8 KiB, a universe of 65,536 values.
const BITSET_MIN_WORDS: u64 = 1 << 10;

/// Floyd's sampler with its picks read back in ascending order, holding
/// its bitset across calls (see the [module docs](self)).
///
/// # Example
///
/// ```
/// use rcb_rng::subset::{sample_distinct, SortedSampler};
/// use rcb_rng::SimRng;
/// use rand::SeedableRng;
///
/// let mut sampler = SortedSampler::new();
/// let mut sorted = Vec::new();
/// sampler.sample(&mut SimRng::seed_from_u64(3), 1_000, 40, |pick| sorted.push(pick));
///
/// let mut picks = sample_distinct(&mut SimRng::seed_from_u64(3), 1_000, 40);
/// picks.sort_unstable();
/// assert_eq!(sorted, picks);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SortedSampler {
    /// One bit per universe value, all clear between calls.
    bits: Vec<u64>,
}

impl SortedSampler {
    /// Creates a sampler; its bitset grows on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Samples `k` distinct values uniformly from `0..n` and hands them to
    /// `emit` in ascending order: the values [`sample_distinct`] picks from
    /// the same words.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R, n: u64, k: u64, emit: impl FnMut(u64)) {
        self.sample_mapped(rng, n, k, n, |i| i, emit);
    }

    /// [`sample`](Self::sample) seen through `map`, a one-to-one map of
    /// `0..n` into `0..universe`: `emit` receives the picks' images in
    /// ascending order. With a roster position → node id map, the picks
    /// come back as node ids in roster order.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`; `map` must be one-to-one into `0..universe`.
    pub fn sample_mapped<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        n: u64,
        k: u64,
        universe: u64,
        map: impl Fn(u64) -> u64,
        mut emit: impl FnMut(u64),
    ) {
        assert!(k <= n, "cannot sample {k} distinct values from 0..{n}");
        if !self.use_bitset(universe, k) {
            let mut picks = sample_distinct(rng, n, k);
            for pick in &mut picks {
                *pick = map(*pick);
            }
            picks.sort_unstable();
            picks.into_iter().for_each(emit);
            return;
        }
        for j in (n - k)..n {
            let t = map(rng.gen_range(0..=j));
            let pick = if self.bits[(t / 64) as usize] & (1 << (t % 64)) == 0 {
                t
            } else {
                map(j)
            };
            self.bits[(pick / 64) as usize] |= 1 << (pick % 64);
        }
        self.drain(universe, &mut emit);
    }

    /// Hands the distinct `values`, all below `universe`, to `emit` in
    /// ascending order, through the same bitset: a sort without
    /// comparisons.
    ///
    /// # Panics
    ///
    /// Panics if a value is at or past `universe` on the bitset path;
    /// values must be distinct.
    pub fn ascending(
        &mut self,
        values: impl ExactSizeIterator<Item = u64>,
        universe: u64,
        mut emit: impl FnMut(u64),
    ) {
        if !self.use_bitset(universe, values.len() as u64) {
            let mut sorted: Vec<u64> = values.collect();
            sorted.sort_unstable();
            sorted.into_iter().for_each(emit);
            return;
        }
        for v in values {
            self.bits[(v / 64) as usize] |= 1 << (v % 64);
        }
        self.drain(universe, &mut emit);
    }

    /// Whether a sample of `k` from a universe of `universe` values takes
    /// the bitset path, growing the bitset to cover the universe if so.
    fn use_bitset(&mut self, universe: u64, k: u64) -> bool {
        let words = universe.div_ceil(64);
        if words > BITSET_MIN_WORDS.max(k.saturating_mul(BITSET_WORDS_PER_PICK)) {
            return false;
        }
        if self.bits.len() < words as usize {
            self.bits.resize(words as usize, 0);
        }
        true
    }

    /// Reads the set bits below `universe` back in ascending order,
    /// clearing them.
    fn drain(&mut self, universe: u64, emit: &mut impl FnMut(u64)) {
        let words = universe.div_ceil(64) as usize;
        for (w, word) in self.bits[..words].iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                emit(w as u64 * 64 + u64::from(bits.trailing_zeros()));
                bits &= bits - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    type TestRng = crate::Xoshiro256PlusPlus;

    #[test]
    fn sample_distinct_is_distinct_and_in_range() {
        let mut rng = TestRng::seed_from_u64(0);
        for &(n, k) in &[(10u64, 10u64), (100, 3), (1 << 40, 50), (1, 1), (5, 0)] {
            let v = sample_distinct(&mut rng, n, k);
            assert_eq!(v.len(), k as usize);
            let set: HashSet<_> = v.iter().collect();
            assert_eq!(set.len(), k as usize, "duplicates for n={n} k={k}");
            assert!(v.iter().all(|&x| x < n));
        }
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_distinct_rejects_oversized_k() {
        let mut rng = TestRng::seed_from_u64(0);
        let _ = sample_distinct(&mut rng, 3, 4);
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sorted_sampler_rejects_oversized_k() {
        let mut rng = TestRng::seed_from_u64(0);
        SortedSampler::new().sample(&mut rng, 3, 4, |_| {});
    }

    #[test]
    fn sample_distinct_is_approximately_uniform() {
        // Sample 2-subsets of {0..5}; each element should appear with
        // frequency 2/6 = 1/3.
        let mut rng = TestRng::seed_from_u64(9);
        let mut counts = [0u32; 6];
        const TRIALS: u32 = 60_000;
        for _ in 0..TRIALS {
            for x in sample_distinct(&mut rng, 6, 2) {
                counts[x as usize] += 1;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            let freq = f64::from(c) / f64::from(TRIALS);
            assert!(
                (freq - 1.0 / 3.0).abs() < 0.01,
                "element {i} frequency {freq}"
            );
        }
    }

    #[test]
    fn sorted_sampler_picks_what_sample_distinct_picks_from_the_same_words() {
        // The hash-set Floyd is the oracle: the same stream must yield
        // the same set, in ascending order, and leave the stream at the
        // same word. The shapes cover k = 0, k = n, one-word and
        // many-word bitsets, a partial last word, a universe the bitset
        // grows into after a smaller one, and the bounded-memory path
        // (2^40 with 50 picks, and 2^20 with 3).
        let shapes: [(u64, u64); 14] = [
            (0, 0),
            (1, 0),
            (1, 1),
            (5, 0),
            (10, 10),
            (64, 64),
            (64, 17),
            (100, 3),
            (1_000, 999),
            (4_097, 300),
            (65_536, 2),
            (1 << 18, 4_000),
            (1 << 20, 3),
            (1 << 40, 50),
        ];
        let mut sampler = SortedSampler::new();
        let mut sorted = Vec::new();
        for seed in 0..8u64 {
            for &(n, k) in &shapes {
                let mut oracle_rng = TestRng::seed_from_u64(seed);
                let mut rng = oracle_rng.clone();
                let mut oracle = sample_distinct(&mut oracle_rng, n, k);
                oracle.sort_unstable();
                sorted.clear();
                sampler.sample(&mut rng, n, k, |pick| sorted.push(pick));
                assert_eq!(sorted, oracle, "n={n} k={k} seed={seed}");
                assert_eq!(rng.next_u64(), oracle_rng.next_u64(), "n={n} k={k}");
            }
        }
        assert!(
            sampler.bits.iter().all(|&w| w == 0),
            "every call clears its bits"
        );
        assert!(
            sampler.bits.len() as u64 <= (1 << 18) / 64,
            "the bounded-memory shapes never grow the bitset"
        );
    }

    #[test]
    fn mapped_picks_come_back_as_ascending_images() {
        // A shuffled roster: positions 0..u map onto scattered node ids
        // below a larger universe, as a gossip driver's dormant pool does.
        let universe = 300u64;
        let mut sampler = SortedSampler::new();
        let mut rng = TestRng::seed_from_u64(11);
        for u in [0u64, 1, 2, 63, 64, 65, 200, 299] {
            let roster: Vec<u64> = sample_distinct(&mut rng, universe, u);
            for k in [0, u / 3, u] {
                let mut oracle_rng = TestRng::seed_from_u64(u * 31 + k);
                let mut sampled_rng = oracle_rng.clone();
                let mut oracle: Vec<u64> = sample_distinct(&mut oracle_rng, u, k)
                    .into_iter()
                    .map(|i| roster[i as usize])
                    .collect();
                oracle.sort_unstable();
                let mut got = Vec::new();
                sampler.sample_mapped(
                    &mut sampled_rng,
                    u,
                    k,
                    universe,
                    |i| roster[i as usize],
                    |id| got.push(id),
                );
                assert_eq!(got, oracle, "u={u} k={k}");
                assert_eq!(sampled_rng.next_u64(), oracle_rng.next_u64());
                let mut all = Vec::new();
                sampler.ascending(roster.iter().copied(), universe, |id| all.push(id));
                let mut expected = roster.clone();
                expected.sort_unstable();
                assert_eq!(all, expected, "u={u}");
            }
        }
        // Far past the bitset's reach, the sort path orders them too.
        let mut all = Vec::new();
        sampler.ascending([1u64 << 50, 7, 1 << 33].into_iter(), 1 << 51, |v| {
            all.push(v);
        });
        assert_eq!(all, vec![7, 1 << 33, 1 << 50]);
    }
}
