//! Geometric sampling for skip-ahead Bernoulli streams.
//!
//! A node that listens each slot independently with probability `p` can be
//! simulated without touching the slots it sleeps through: the gap to its
//! next active slot is `Geometric(p)`. The exact engine uses this to skip
//! a participant forward across long idle stretches.
//!
//! ## The threshold table
//!
//! A variate is the inversion `⌊ln U / ln(1−p)⌋` of one uniform `U`,
//! which costs a logarithm and a division. With `ln_q` the divisor and
//! `t_k = exp(k·ln_q)`, the variate is `k` exactly when
//! `t_{k+1} < U ≤ t_k`, so [`Geometric::new`] precomputes `t_1, …, t_16`
//! and [`Geometric::sample`] answers `k` from them, without the
//! logarithm, whenever `U` lies inside `(t_{k+1}, t_k)` with more than a
//! relative `2^-32` to spare on each side. There the formula's floor is
//! provably `k`: `ln`, `exp` and the division each err by a few ULPs
//! (about `1e-15` relative), and a relative `2^-32` shift of `U` moves
//! `ln U / ln_q` by `2^-32 / |ln_q| ≥ 2^-38` (`|ln_q| ≤ 53·ln 2` for
//! any double `p < 1`), far more than those errors move it. Every
//! other `U` (inside a guard band, below `t_16`, or `0`) takes the
//! formula. The argument holds at any `p`: where neighbouring guard
//! bands overlap, the interval between them is empty and every `U`
//! there takes the formula too, and at small `p`, where `t_16` is close
//! to 1, almost every `U` fails the first compare. Each variate draws
//! the same one word and returns the same value as the formula alone.

use std::fmt;

use rand::Rng;

/// Error returned when constructing a [`Geometric`] with an invalid `p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeometricError(());

impl fmt::Display for GeometricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "probability must be finite and in (0, 1]")
    }
}

impl std::error::Error for GeometricError {}

/// Samples the number of failures before the first success of a Bernoulli
/// process with success probability `p`.
///
/// Support is `{0, 1, 2, …}`; `P(X = k) = (1−p)^k · p`.
///
/// # Example
///
/// ```
/// use rcb_rng::{Geometric, SimRng};
/// use rand::SeedableRng;
///
/// let mut rng = SimRng::seed_from_u64(2);
/// let g = Geometric::new(0.25)?;
/// let gap = g.sample(&mut rng);
/// // Skip `gap` silent slots, act in slot `gap`.
/// # let _ = gap;
/// # Ok::<(), rcb_rng::GeometricError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometric {
    p: f64,
    ln_q: f64,
    /// `lower[j] = t_{j+1}·(1 − 2^-32)`, the low edge of the guard band
    /// around `t_{j+1}`.
    lower: [f64; TABLE],
    /// `upper[j] = t_{j+1}·(1 + 2^-32)`, its high edge.
    upper: [f64; TABLE],
}

/// Thresholds in a sampler's table.
const TABLE: usize = 16;

/// The guard band's half-width, relative to its threshold.
const GUARD: f64 = 1.0 / (1u64 << 32) as f64;

impl Geometric {
    /// Creates a sampler with success probability `p ∈ (0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`GeometricError`] if `p` is not finite or not in `(0, 1]`.
    /// (`p = 0` is rejected: the waiting time would be infinite.)
    pub fn new(p: f64) -> Result<Self, GeometricError> {
        if !p.is_finite() || !(0.0..=1.0).contains(&p) || p == 0.0 {
            return Err(GeometricError(()));
        }
        let ln_q = (-p).ln_1p();
        let mut lower = [0.0; TABLE];
        let mut upper = [0.0; TABLE];
        for (k, (lo, hi)) in (1..).zip(lower.iter_mut().zip(&mut upper)) {
            let t = (f64::from(k) * ln_q).exp();
            *lo = t * (1.0 - GUARD);
            *hi = t * (1.0 + GUARD);
        }
        Ok(Self {
            p,
            ln_q,
            lower,
            upper,
        })
    }

    /// The success probability.
    #[must_use]
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Draws one variate: failures before the first success. Draws one
    /// word, or none at `p = 1`.
    #[must_use]
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.p >= 1.0 {
            return 0;
        }
        self.at(rng.gen())
    }

    /// The variate at uniform `u`: from the table where it provably
    /// agrees with [`invert`](Self::invert), from the formula elsewhere
    /// (see the module docs).
    #[inline]
    fn at(&self, u: f64) -> u64 {
        if u > self.upper[TABLE - 1] {
            // `k` thresholds lie above `u`'s guard band; the lower edges
            // fall with `k`, so they are `t_1, …, t_k`, and `k < 16`.
            let k = self.lower.iter().filter(|&&lo| u < lo).count();
            if u > self.upper[k] {
                return k as u64;
            }
        }
        self.invert(u)
    }

    /// The reference inversion `⌊ln U / ln(1−p)⌋` (`U = 0` read as the
    /// smallest normal double; the cast saturates at `u64::MAX`).
    #[inline]
    fn invert(&self, u: f64) -> u64 {
        (u.max(f64::MIN_POSITIVE).ln() / self.ln_q) as u64
    }

    /// Mean `= (1−p)/p`.
    #[must_use]
    pub fn mean(&self) -> f64 {
        (1.0 - self.p) / self.p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::RunningStats;
    use crate::CounterRng;
    use rand::{Rng, SeedableRng};

    type TestRng = crate::Xoshiro256PlusPlus;

    #[test]
    fn rejects_invalid() {
        assert!(Geometric::new(0.0).is_err());
        assert!(Geometric::new(-0.5).is_err());
        assert!(Geometric::new(1.5).is_err());
        assert!(Geometric::new(f64::NAN).is_err());
        assert!(Geometric::new(1.0).is_ok());
    }

    #[test]
    fn p_one_is_always_zero() {
        let g = Geometric::new(1.0).unwrap();
        let mut rng = TestRng::seed_from_u64(0);
        for _ in 0..100 {
            assert_eq!(g.sample(&mut rng), 0);
        }
    }

    #[test]
    fn moments_match_for_various_p() {
        for (i, &p) in [0.5f64, 0.1, 0.01, 0.9].iter().enumerate() {
            let g = Geometric::new(p).unwrap();
            let mut rng = TestRng::seed_from_u64(40 + i as u64);
            let mut acc = RunningStats::new();
            for _ in 0..60_000 {
                acc.push(g.sample(&mut rng) as f64);
            }
            let mean = g.mean();
            let sd = ((1.0 - p) / (p * p)).sqrt();
            let se = sd / (60_000f64).sqrt();
            assert!(
                (acc.mean() - mean).abs() < 6.0 * se,
                "p={p}: mean {} want {mean}",
                acc.mean()
            );
        }
    }

    #[test]
    fn matches_bernoulli_loop_distribution() {
        // The sampler must agree with literally flipping coins.
        let p = 0.2;
        let g = Geometric::new(p).unwrap();
        let mut rng = TestRng::seed_from_u64(50);
        let mut direct = RunningStats::new();
        let mut inverted = RunningStats::new();
        for _ in 0..30_000 {
            inverted.push(g.sample(&mut rng) as f64);
            let mut k = 0u64;
            while !rand::Rng::gen_bool(&mut rng, p) {
                k += 1;
            }
            direct.push(k as f64);
        }
        assert!((direct.mean() - inverted.mean()).abs() < 0.1);
        assert!((direct.variance() - inverted.variance()).abs() < 2.0);
    }

    /// Every grid point `m·2^-53` (the values `gen::<f64>` returns)
    /// within `±2^11` points of each threshold and of each guard-band
    /// edge must take the reference's value.
    fn assert_grid_matches(g: &Geometric) {
        const SPAN: u64 = 1 << 11;
        const TOP: u64 = (1 << 53) - 1;
        let scale = (1u64 << 53) as f64;
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for j in 0..TABLE {
            let t = (((j + 1) as f64) * g.ln_q).exp();
            for centre in [t, g.lower[j], g.upper[j]] {
                let m = (centre * scale) as u64;
                ranges.push((m.saturating_sub(SPAN), (m + SPAN + 1).min(TOP)));
            }
        }
        ranges.sort_unstable();
        let mut next = 0u64;
        for (lo, hi) in ranges {
            for m in lo.max(next)..=hi {
                let u = m as f64 / scale;
                assert_eq!(g.at(u), g.invert(u), "p {}, U = {m}·2^-53", g.p);
            }
            next = next.max(hi + 1);
        }
    }

    /// Every sampler returns the reference inversion's value from the
    /// same word. A zero guard fails this (first at p ≈ 0.17, next to
    /// `t_10`).
    #[test]
    fn table_matches_the_reference_inversion() {
        let cases = [
            // The flagship's request wake rates.
            0.171_4,
            0.342_5,
            0.684_8,
            0.5,
            0.9,
            1.0 - 2f64.powi(-53),
            // Small rates: from 37 % (0.06) to nearly all of the mass
            // lies below `t_16`.
            0.06,
            0.03,
            0.01,
            3.7e-5,
            // Every threshold rounds to 1 and the guard bands coincide.
            1e-300,
            1.0,
        ];
        for (i, &p) in cases.iter().enumerate() {
            let g = Geometric::new(p).unwrap();
            if p < 1.0 {
                assert_grid_matches(&g);
            }
            let reference = |rng: &mut CounterRng| {
                if p >= 1.0 {
                    0
                } else {
                    g.invert(rng.gen())
                }
            };
            // 2^17 variates per p: one word each (none at p = 1), and the
            // reference's value from it.
            let mut rng = CounterRng::new(0x6E0 + i as u64);
            let words = u64::from(p < 1.0);
            for _ in 0..1 << 17 {
                let before = rng.counter();
                let mut replay = rng;
                let want = reference(&mut replay);
                assert_eq!(g.sample(&mut rng), want, "p {p}");
                assert_eq!(rng.counter(), before + words, "p {p}");
            }
            // U = 0, what a word below 2^11 gives.
            assert_eq!(g.at(0.0), g.invert(0.0), "p {p}, U = 0");
        }
    }

    #[test]
    fn tiny_p_does_not_overflow() {
        let g = Geometric::new(1e-300).unwrap();
        let mut rng = TestRng::seed_from_u64(51);
        let x = g.sample(&mut rng);
        assert!(x > 0, "waiting time for p=1e-300 is astronomically large");
    }
}
