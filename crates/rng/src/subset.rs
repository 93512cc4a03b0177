//! Uniform sampling of distinct indices.
//!
//! When a propagation-phase slot succeeds, *every listener* of that slot
//! becomes informed; the aggregated simulator knows only how many of the
//! `u` uninformed nodes listened. Converting that count into concrete node
//! identities (for per-node bookkeeping) requires a uniform `k`-subset of
//! `{0, …, u−1}` — Floyd's algorithm does this in `O(k)` expected time and
//! `O(k)` space, independent of `u`.

use std::collections::HashSet;

use rand::Rng;

/// Samples `k` distinct values uniformly from `0..n` (Floyd's algorithm).
///
/// The returned vector is in insertion order, **not** sorted and **not**
/// uniformly permuted; callers that need a uniform random *sequence* should
/// shuffle it.
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

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
}
