//! Protocol parameters and derived budgets.
//!
//! The paper's protocol is governed by a handful of constants: the budget
//! exponent `k ≥ 2`, the sacrifice fraction `ε′`, the w.h.p. constant `c`,
//! and the budget constant `C` ("large enough to subsume the constants in
//! our protocol", §2, Lemma 11). [`Params`] materialises all of them, with
//! `C` *computed* from the protocol's own per-round cost constants so that
//! default configurations provably cannot run out of energy before the
//! unblockable round `i = lg n + O(1)`.

use std::fmt;

/// Which pseudocode the probabilities follow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Figure 1: the `k = 2` presentation (`2 ln n / 2^i` for Alice,
    /// `4e(c+1)/2^i` propagation listening). Only valid with `k = 2`.
    K2Paper,
    /// Figure 2: the general-`k` presentation (`2c ln^k n / 2^i` for Alice,
    /// `2ec/(ε′ 2^i)` propagation listening). Valid for every `k ≥ 2`.
    GeneralK,
}

/// §4.1 decoy-traffic configuration (reactive-adversary hardening).
///
/// Each active correct node transmits a content-free decoy with probability
/// `rate / n` per slot of the inform and propagation phases, so a reactive
/// jammer's RSSI reading cannot distinguish `m`-slots from chaff. Decoys
/// collide with `m` like any transmission, so listen probabilities are
/// boosted by `listen_boost` to compensate (the paper's re-proof of
/// Lemma 1 does the same with its own constants).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecoyConfig {
    /// Per-slot decoy probability is `rate / n`. The paper uses
    /// `3/(4ε′n)`; with its w.h.p.-proof-sized `ε′` that saturates the
    /// channel, so the default is `rate = 0.75` — decoys then occupy
    /// `1 − e^{−0.75} ≈ 53%` of slots, matching the paper's "half of the
    /// slots contain non-critical traffic" intuition.
    pub rate: f64,
    /// Multiplier on uninformed listen probabilities during inform and
    /// propagation phases, compensating decoy-induced collisions. The
    /// expected collision survival is `e^{−rate}`, so the default is
    /// `2·e^{rate}`.
    pub listen_boost: f64,
}

impl DecoyConfig {
    /// The default hardening: `rate = 0.75`, `listen_boost = 2·e^{0.75}`.
    #[must_use]
    pub fn recommended() -> Self {
        Self {
            rate: 0.75,
            listen_boost: 2.0 * (0.75f64).exp(),
        }
    }
}

/// §4.2: what nodes know about the system size `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeKnowledge {
    /// Nodes know `n` exactly (the baseline model).
    Exact,
    /// Nodes share a constant-factor approximation `n̂` of `n` and use it
    /// wherever `n` or `ln n` appears; costs grow by a constant factor.
    Approximate {
        /// The shared estimate.
        n_hat: u64,
    },
    /// Nodes share only a polynomial overestimate `ν = n^{c′}` and run the
    /// §4.2 `g`-loop: send-probability steps are swept over `2^{−g}` for
    /// `g = 1..⌈lg ν⌉`, multiplying propagation/request cost by a `log`
    /// factor.
    PolynomialOverestimate {
        /// The overestimate `ν ≥ n`.
        nu: u64,
    },
}

/// Validated ε-BROADCAST parameters.
///
/// Build with [`Params::builder`]:
///
/// ```
/// use rcb_core::Params;
/// let params = Params::builder(512).k(2).epsilon_prime(0.05).build()?;
/// assert_eq!(params.n(), 512);
/// assert!(params.node_budget() > 0);
/// # Ok::<(), rcb_core::ParamsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    n: u64,
    k: u32,
    epsilon_prime: f64,
    c: f64,
    variant: Variant,
    start_round: u32,
    min_termination_round: u32,
    max_round_margin: u32,
    decoys: Option<DecoyConfig>,
    size_knowledge: SizeKnowledge,
    budget_scale: f64,
}

impl Params {
    /// Starts building parameters for a network of `n` correct nodes.
    #[must_use]
    pub fn builder(n: u64) -> ParamsBuilder {
        ParamsBuilder::new(n)
    }

    /// Number of correct receiver nodes.
    #[must_use]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The budget exponent `k ≥ 2`.
    #[must_use]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The sacrifice constant `ε′`.
    #[must_use]
    pub fn epsilon_prime(&self) -> f64 {
        self.epsilon_prime
    }

    /// The w.h.p. constant `c`.
    #[must_use]
    pub fn c(&self) -> f64 {
        self.c
    }

    /// Which pseudocode variant drives the probabilities.
    #[must_use]
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// First executed round index (the paper starts analysis at
    /// `3 lg ln n` but notes nodes "may start with i = 1", §2.3).
    #[must_use]
    pub fn start_round(&self) -> u32 {
        self.start_round
    }

    /// Rounds strictly below this never terminate (the `d lg ln n` floor of
    /// §2.3; without it the request-phase counters have not concentrated).
    #[must_use]
    pub fn min_termination_round(&self) -> u32 {
        self.min_termination_round
    }

    /// Last schedulable round: `⌈lg n⌉ + margin`.
    #[must_use]
    pub fn max_round(&self) -> u32 {
        self.lg_n_ceil() + self.max_round_margin
    }

    /// Decoy hardening, if enabled.
    #[must_use]
    pub fn decoys(&self) -> Option<DecoyConfig> {
        self.decoys
    }

    /// What nodes know about `n`.
    #[must_use]
    pub fn size_knowledge(&self) -> SizeKnowledge {
        self.size_knowledge
    }

    /// `ln n` as used by the protocol — computed from the *known* size
    /// (estimate or overestimate), not the true `n`.
    #[must_use]
    pub fn ln_n(&self) -> f64 {
        (self.known_n() as f64).ln().max(1.0)
    }

    /// The size value nodes plug into probability formulas.
    #[must_use]
    pub fn known_n(&self) -> u64 {
        match self.size_knowledge {
            SizeKnowledge::Exact => self.n,
            SizeKnowledge::Approximate { n_hat } => n_hat,
            SizeKnowledge::PolynomialOverestimate { nu } => nu,
        }
    }

    /// `⌈lg n⌉` over the true population.
    #[must_use]
    pub fn lg_n_ceil(&self) -> u32 {
        64 - (self.n.max(2) - 1).leading_zeros()
    }

    /// The request-phase termination threshold `5 c ln n`.
    #[must_use]
    pub fn termination_threshold(&self) -> u64 {
        (5.0 * self.c * self.ln_n()).ceil() as u64
    }

    /// Number of propagation steps per round (`k − 1`).
    #[must_use]
    pub fn propagation_steps(&self) -> u32 {
        self.k - 1
    }

    /// Worst-case expected spend of a node that stays uninformed for the
    /// *entire* schedule: the exact sum of (clamped) per-slot probabilities
    /// over every phase of every round. This is the constant Lemma 11
    /// calls `d·2^{i/k}` summed, but computed from the executable formulas
    /// so clamping in early rounds is accounted for.
    #[must_use]
    pub fn expected_node_cost_ceiling(&self) -> f64 {
        let schedule = crate::schedule::RoundSchedule::new(self);
        let mut total = 0.0;
        for (round, phase, len) in schedule.phases() {
            let p = crate::probabilities::phase_probabilities(self, round, phase);
            let per_slot = match phase {
                crate::schedule::PhaseKind::Inform
                | crate::schedule::PhaseKind::Propagation { .. } => {
                    p.uninformed_listen + p.decoy_send
                }
                crate::schedule::PhaseKind::Request => p.uninformed_listen + p.uninformed_nack,
            };
            total += len as f64 * per_slot;
        }
        total
    }

    /// Alice's worst-case expected spend over the entire schedule (inform
    /// sends plus request listens), from the executable formulas.
    #[must_use]
    pub fn expected_alice_cost_ceiling(&self) -> f64 {
        let schedule = crate::schedule::RoundSchedule::new(self);
        let mut total = 0.0;
        for (round, phase, len) in schedule.phases() {
            let p = crate::probabilities::phase_probabilities(self, round, phase);
            total += len as f64 * (p.alice_send + p.alice_listen);
        }
        total
    }

    /// A provably sufficient per-node budget (Lemma 11's `C·n^{1/k}` with
    /// `C` computed, not guessed): triple the worst-case expectation, so
    /// Chernoff concentration leaves exhaustion probability negligible.
    #[must_use]
    pub fn node_budget(&self) -> u64 {
        (3.0 * self.expected_node_cost_ceiling() * self.budget_scale).ceil() as u64 + 64
    }

    /// A provably sufficient budget for Alice (same construction).
    #[must_use]
    pub fn alice_budget(&self) -> u64 {
        (3.0 * self.expected_alice_cost_ceiling() * self.budget_scale).ceil() as u64 + 64
    }

    /// The first round Carol cannot block with `carol_budget` units:
    /// blocking round `i` costs at least `phase_len(i)/2 + 1` (more than
    /// half of one phase), so walking rounds in order and deducting the
    /// cheapest block tells us where she necessarily goes broke — the
    /// engine of Lemma 11's termination argument.
    #[must_use]
    pub fn unblockable_round(&self, carol_budget: u64) -> u32 {
        let mut remaining = carol_budget;
        let mut i = self.start_round;
        loop {
            let len = 2f64
                .powf((1.0 + 1.0 / f64::from(self.k)) * f64::from(i))
                .ceil() as u64;
            let need = len / 2 + 1;
            if remaining < need || i >= 60 {
                return i;
            }
            remaining -= need;
            i += 1;
        }
    }

    /// Carol's pooled budget for Byzantine ratio `f`: her `f·n` devices at
    /// one node budget each, plus her personal Alice-sized allowance (the
    /// symmetry concession of §1.1).
    #[must_use]
    pub fn carol_budget(&self, f: f64) -> u64 {
        assert!(f >= 0.0, "byzantine ratio must be nonnegative");
        let devices = (f * self.n as f64).round() as u64;
        devices * self.node_budget() + self.alice_budget()
    }

    /// Returns a copy with decoy hardening enabled.
    #[must_use]
    pub fn with_decoys(mut self, decoys: DecoyConfig) -> Self {
        self.decoys = Some(decoys);
        self
    }
}

impl fmt::Display for Params {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ε-BROADCAST(n={}, k={}, ε′={}, c={}, rounds {}..={})",
            self.n,
            self.k,
            self.epsilon_prime,
            self.c,
            self.start_round,
            self.max_round()
        )
    }
}

/// Error from [`ParamsBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamsError {
    /// `n` was too small for the protocol to be meaningful.
    PopulationTooSmall,
    /// `k` was outside `[2, 8]` (the paper requires constant `k ≥ 2`;
    /// §3.2 shows `k = ω(1)` is infeasible, and beyond 8 the `ln^k n`
    /// factors dwarf any practical `n`).
    InvalidK,
    /// `ε′` was not in `(0, 1)`.
    InvalidEpsilon,
    /// `c` was not positive and finite.
    InvalidC,
    /// The [`Variant::K2Paper`] pseudocode was requested with `k ≠ 2`.
    VariantRequiresK2,
    /// A size estimate was smaller than 2 or wildly inconsistent.
    InvalidSizeKnowledge,
    /// `budget_scale` was not positive and finite.
    InvalidBudgetScale,
}

impl fmt::Display for ParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            ParamsError::PopulationTooSmall => "population n must be at least 8",
            ParamsError::InvalidK => "k must be in [2, 8]",
            ParamsError::InvalidEpsilon => "epsilon prime must be in (0, 1)",
            ParamsError::InvalidC => "c must be positive and finite",
            ParamsError::VariantRequiresK2 => "the Figure-1 variant requires k = 2",
            ParamsError::InvalidSizeKnowledge => "size estimate must be at least 2",
            ParamsError::InvalidBudgetScale => "budget scale must be positive and finite",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ParamsError {}

/// Builder for [`Params`].
#[derive(Debug, Clone)]
pub struct ParamsBuilder {
    n: u64,
    k: u32,
    epsilon_prime: f64,
    c: f64,
    variant: Variant,
    start_round: u32,
    min_termination_round: Option<u32>,
    max_round_margin: u32,
    decoys: Option<DecoyConfig>,
    size_knowledge: SizeKnowledge,
    budget_scale: f64,
}

impl ParamsBuilder {
    fn new(n: u64) -> Self {
        Self {
            n,
            k: 2,
            epsilon_prime: 0.005,
            c: 2.0,
            variant: Variant::GeneralK,
            start_round: 1,
            min_termination_round: None,
            max_round_margin: 2,
            decoys: None,
            size_knowledge: SizeKnowledge::Exact,
            budget_scale: 1.0,
        }
    }

    /// Sets the budget exponent `k` (default 2).
    #[must_use]
    pub fn k(mut self, k: u32) -> Self {
        self.k = k;
        self
    }

    /// Sets `ε′` (default 0.005).
    ///
    /// Must be small: the termination margins of Lemmas 4–7 hinge on the
    /// separation between `1 − e^{−4ε′}`, `1 − e^{−64ε′}` and the nack
    /// saturation level — for `ε′ ≳ 0.02` the expected noisy count under
    /// full jamming drops *below* the `5c ln n` threshold and the protocol
    /// mis-terminates (this is the paper's "for `n` sufficiently large /
    /// `ε′` arbitrarily small" fine print made concrete).
    #[must_use]
    pub fn epsilon_prime(mut self, eps: f64) -> Self {
        self.epsilon_prime = eps;
        self
    }

    /// Sets the w.h.p. constant `c` (default 2).
    #[must_use]
    pub fn c(mut self, c: f64) -> Self {
        self.c = c;
        self
    }

    /// Selects the pseudocode variant (default [`Variant::GeneralK`]).
    #[must_use]
    pub fn variant(mut self, variant: Variant) -> Self {
        self.variant = variant;
        self
    }

    /// Sets the first executed round (default 1).
    #[must_use]
    pub fn start_round(mut self, round: u32) -> Self {
        self.start_round = round;
        self
    }

    /// Overrides the earliest round in which termination is allowed
    /// (default `⌈3·lg ln n⌉`).
    #[must_use]
    pub fn min_termination_round(mut self, round: u32) -> Self {
        self.min_termination_round = Some(round);
        self
    }

    /// Extra rounds past `⌈lg n⌉` the schedule provisions (default 2).
    #[must_use]
    pub fn max_round_margin(mut self, margin: u32) -> Self {
        self.max_round_margin = margin;
        self
    }

    /// Enables §4.1 decoy hardening.
    #[must_use]
    pub fn decoys(mut self, decoys: DecoyConfig) -> Self {
        self.decoys = Some(decoys);
        self
    }

    /// Sets what nodes know about `n` (default exact).
    #[must_use]
    pub fn size_knowledge(mut self, knowledge: SizeKnowledge) -> Self {
        self.size_knowledge = knowledge;
        self
    }

    /// Scales the computed budgets (default 1.0; below 1 deliberately
    /// starves participants for failure-injection tests).
    #[must_use]
    pub fn budget_scale(mut self, scale: f64) -> Self {
        self.budget_scale = scale;
        self
    }

    /// Validates and builds.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamsError`] describing the first constraint violated.
    pub fn build(self) -> Result<Params, ParamsError> {
        if self.n < 8 {
            return Err(ParamsError::PopulationTooSmall);
        }
        if !(2..=8).contains(&self.k) {
            return Err(ParamsError::InvalidK);
        }
        if !self.epsilon_prime.is_finite()
            || !(0.0..1.0).contains(&self.epsilon_prime)
            || self.epsilon_prime == 0.0
        {
            return Err(ParamsError::InvalidEpsilon);
        }
        if !self.c.is_finite() || self.c <= 0.0 {
            return Err(ParamsError::InvalidC);
        }
        if self.variant == Variant::K2Paper && self.k != 2 {
            return Err(ParamsError::VariantRequiresK2);
        }
        match self.size_knowledge {
            SizeKnowledge::Exact => {}
            SizeKnowledge::Approximate { n_hat }
            | SizeKnowledge::PolynomialOverestimate { nu: n_hat } => {
                if n_hat < 2 {
                    return Err(ParamsError::InvalidSizeKnowledge);
                }
            }
        }
        if !self.budget_scale.is_finite() || self.budget_scale <= 0.0 {
            return Err(ParamsError::InvalidBudgetScale);
        }
        let ln_ln = ((self.n as f64).ln().max(std::f64::consts::E))
            .ln()
            .max(1.0);
        let default_min_term = (3.0 * ln_ln / 2f64.ln()).ceil() as u32;
        Ok(Params {
            n: self.n,
            k: self.k,
            epsilon_prime: self.epsilon_prime,
            c: self.c,
            variant: self.variant,
            start_round: self.start_round.max(1),
            min_termination_round: self
                .min_termination_round
                .unwrap_or(default_min_term)
                .max(self.start_round),
            max_round_margin: self.max_round_margin,
            decoys: self.decoys,
            size_knowledge: self.size_knowledge,
            budget_scale: self.budget_scale,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_build() {
        let p = Params::builder(1024).build().unwrap();
        assert_eq!(p.n(), 1024);
        assert_eq!(p.k(), 2);
        assert_eq!(p.lg_n_ceil(), 10);
        assert_eq!(p.propagation_steps(), 1);
        assert!(p.decoys().is_none());
    }

    #[test]
    fn validation_errors() {
        assert_eq!(
            Params::builder(2).build().unwrap_err(),
            ParamsError::PopulationTooSmall
        );
        assert_eq!(
            Params::builder(64).k(1).build().unwrap_err(),
            ParamsError::InvalidK
        );
        assert_eq!(
            Params::builder(64).k(9).build().unwrap_err(),
            ParamsError::InvalidK
        );
        assert_eq!(
            Params::builder(64).epsilon_prime(0.0).build().unwrap_err(),
            ParamsError::InvalidEpsilon
        );
        assert_eq!(
            Params::builder(64).epsilon_prime(1.0).build().unwrap_err(),
            ParamsError::InvalidEpsilon
        );
        assert_eq!(
            Params::builder(64).c(0.0).build().unwrap_err(),
            ParamsError::InvalidC
        );
        assert_eq!(
            Params::builder(64)
                .k(3)
                .variant(Variant::K2Paper)
                .build()
                .unwrap_err(),
            ParamsError::VariantRequiresK2
        );
        assert_eq!(
            Params::builder(64).budget_scale(0.0).build().unwrap_err(),
            ParamsError::InvalidBudgetScale
        );
        assert_eq!(
            Params::builder(64)
                .size_knowledge(SizeKnowledge::Approximate { n_hat: 1 })
                .build()
                .unwrap_err(),
            ParamsError::InvalidSizeKnowledge
        );
    }

    #[test]
    fn lg_n_is_ceiling() {
        assert_eq!(Params::builder(8).build().unwrap().lg_n_ceil(), 3);
        assert_eq!(Params::builder(9).build().unwrap().lg_n_ceil(), 4);
        assert_eq!(Params::builder(1023).build().unwrap().lg_n_ceil(), 10);
        assert_eq!(Params::builder(1024).build().unwrap().lg_n_ceil(), 10);
        assert_eq!(Params::builder(1025).build().unwrap().lg_n_ceil(), 11);
    }

    #[test]
    fn min_termination_round_default_tracks_lg_ln_n() {
        // n = 1024: ln n ≈ 6.93, lg(6.93) ≈ 2.79, ×3 ≈ 8.38 → 9.
        let p = Params::builder(1024).build().unwrap();
        assert_eq!(p.min_termination_round(), 9);
        // Explicit override wins.
        let p = Params::builder(1024)
            .min_termination_round(4)
            .build()
            .unwrap();
        assert_eq!(p.min_termination_round(), 4);
    }

    #[test]
    fn budgets_scale_as_n_to_one_over_k() {
        // Four-fold n should roughly double the k=2 node budget (the
        // clamped early rounds contribute an n-independent floor, so the
        // practical-n ratio sits a bit above the asymptotic 2).
        let b1 = Params::builder(1 << 10).build().unwrap().node_budget();
        let b2 = Params::builder(1 << 12).build().unwrap().node_budget();
        let ratio = b2 as f64 / b1 as f64;
        assert!((1.5..3.4).contains(&ratio), "ratio {ratio}");
        // k = 3: four-fold n → asymptotically 4^{1/3} ≈ 1.59; again the
        // clamp floor inflates small-n ratios.
        let b1 = Params::builder(1 << 10).k(3).build().unwrap().node_budget();
        let b2 = Params::builder(1 << 12).k(3).build().unwrap().node_budget();
        let ratio = b2 as f64 / b1 as f64;
        assert!((1.2..3.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn budgets_are_positive_and_cover_expectations() {
        let p = Params::builder(4096).build().unwrap();
        assert!(p.node_budget() as f64 >= 3.0 * p.expected_node_cost_ceiling());
        assert!(p.alice_budget() as f64 >= 3.0 * p.expected_alice_cost_ceiling());
        // budget_scale stretches budgets proportionally.
        let stretched = Params::builder(4096).budget_scale(2.0).build().unwrap();
        assert!(stretched.node_budget() > p.node_budget());
    }

    #[test]
    fn unblockable_round_tracks_carol_budget() {
        let p = Params::builder(1024).build().unwrap();
        // Tiny budget: she cannot even block round 1.
        assert_eq!(p.unblockable_round(0), 1);
        // Budgets strictly increase the round she can disrupt.
        let r_small = p.unblockable_round(1_000);
        let r_big = p.unblockable_round(1_000_000);
        assert!(r_big > r_small);
        // Blocking through round r costs ~2^{1.5r}; 10^6 ≈ 2^20 → r ≈ 13.
        assert!((12..=15).contains(&r_big), "round {r_big}");
    }

    #[test]
    fn carol_budget_composition() {
        let p = Params::builder(256).build().unwrap();
        let solo = p.carol_budget(0.0);
        assert_eq!(solo, p.alice_budget());
        let with_devices = p.carol_budget(1.0);
        assert_eq!(with_devices, 256 * p.node_budget() + p.alice_budget());
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn carol_budget_rejects_negative_f() {
        let p = Params::builder(256).build().unwrap();
        let _ = p.carol_budget(-0.5);
    }

    #[test]
    fn known_n_respects_size_knowledge() {
        let exact = Params::builder(100).build().unwrap();
        assert_eq!(exact.known_n(), 100);
        let approx = Params::builder(100)
            .size_knowledge(SizeKnowledge::Approximate { n_hat: 180 })
            .build()
            .unwrap();
        assert_eq!(approx.known_n(), 180);
        let over = Params::builder(100)
            .size_knowledge(SizeKnowledge::PolynomialOverestimate { nu: 10_000 })
            .build()
            .unwrap();
        assert_eq!(over.known_n(), 10_000);
        assert!(over.ln_n() > approx.ln_n());
    }

    #[test]
    fn termination_threshold_formula() {
        let p = Params::builder(1024).c(2.0).build().unwrap();
        let expect = (5.0 * 2.0 * (1024f64).ln()).ceil() as u64;
        assert_eq!(p.termination_threshold(), expect);
    }

    #[test]
    fn decoy_config_recommended() {
        let d = DecoyConfig::recommended();
        assert!(d.rate > 0.0 && d.rate < 1.0);
        assert!(d.listen_boost > 1.0);
        let p = Params::builder(128).decoys(d).build().unwrap();
        assert!(p.decoys().is_some());
        // Decoys raise the cost ceiling.
        let plain = Params::builder(128).build().unwrap();
        assert!(p.expected_node_cost_ceiling() > plain.expected_node_cost_ceiling());
    }

    #[test]
    fn display_mentions_shape() {
        let p = Params::builder(64).build().unwrap();
        let s = p.to_string();
        assert!(s.contains("n=64"));
        assert!(s.contains("k=2"));
    }
}
