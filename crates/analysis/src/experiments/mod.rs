//! The reproduction experiments.
//!
//! Each module regenerates one analytical claim of the paper as a measured
//! table; [`run_experiment`] dispatches by id. All experiments run at two
//! scales:
//!
//! * [`Scale::Smoke`] — seconds; exercised by `cargo test`;
//! * [`Scale::Full`] — minutes; what `reproduce` runs and what
//!   `EXPERIMENTS.md` archives.

use std::fmt;
use std::time::Instant;

use rcb_core::{Params, ParamsError};
use rcb_sim::{Scenario, ScenarioScratch};

use crate::Table;

pub mod e10_k_sweep;
pub mod e11_multichannel;
pub mod e12_adaptive;
pub mod e13_fast_mc;
pub mod e15_sweep;
pub mod e17_epoch;
pub mod e18_profile;
pub mod e19_fluid;
pub mod e1_cost_scaling;
pub mod e2_delivery;
pub mod e3_latency;
pub mod e4_quiet_costs;
pub mod e5_load_balance;
pub mod e6_reactive;
pub mod e7_baselines;
pub mod e8_spoofing;
pub mod e9_unknown_n;
pub mod x2_nuniform;

/// Every experiment in the reproduction suite, by id.
pub const EXPERIMENT_IDS: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e15", "e17",
    "e18", "e19", "x2",
];

/// Runs one experiment by id (case-insensitive).
///
/// Returns `None` for an unknown id.
#[must_use]
pub fn run_experiment(id: &str, scale: Scale) -> Option<ExperimentReport> {
    let report = match id.to_ascii_lowercase().as_str() {
        "e1" => e1_cost_scaling::run(scale),
        "e2" => e2_delivery::run(scale),
        "e3" => e3_latency::run(scale),
        "e4" => e4_quiet_costs::run(scale),
        "e5" => e5_load_balance::run(scale),
        "e6" => e6_reactive::run(scale),
        "e7" => e7_baselines::run(scale),
        "e8" => e8_spoofing::run(scale),
        "e9" => e9_unknown_n::run(scale),
        "e10" => e10_k_sweep::run(scale),
        "e11" => e11_multichannel::run(scale),
        "e12" => e12_adaptive::run(scale),
        "e13" => e13_fast_mc::run(scale),
        "e15" => e15_sweep::run(scale),
        "e17" => e17_epoch::run(scale),
        "e18" => e18_profile::run(scale),
        "e19" => e19_fluid::run(scale),
        "x2" => x2_nuniform::run(scale),
        _ => return None,
    };
    Some(report)
}

/// How much compute an experiment may spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small populations, few trials — for the test suite.
    Smoke,
    /// The EXPERIMENTS.md configuration.
    Full,
}

/// A rendered experiment outcome.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Experiment id (e.g. "E1").
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// The paper claim being reproduced.
    pub claim: &'static str,
    /// Result tables, each with a caption.
    pub tables: Vec<(String, Table)>,
    /// Free-form findings (fitted exponents, ratios, …).
    pub findings: Vec<String>,
    /// Whether the measured shape matches the paper's claim.
    pub pass: bool,
}

impl fmt::Display for ExperimentReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "## {} — {}", self.id, self.title)?;
        writeln!(f)?;
        writeln!(f, "*Paper claim:* {}", self.claim)?;
        writeln!(f)?;
        for (caption, table) in &self.tables {
            writeln!(f, "**{caption}**")?;
            writeln!(f)?;
            writeln!(f, "{table}")?;
        }
        for finding in &self.findings {
            writeln!(f, "- {finding}")?;
        }
        writeln!(
            f,
            "- **verdict: {}**",
            if self.pass {
                "SHAPE REPRODUCED"
            } else {
                "MISMATCH"
            }
        )
    }
}

/// Builds `Params` whose schedule provably outlasts a Carol budget: the
/// margin is set so her [`Params::unblockable_round`] falls inside the
/// schedule (the Lemma 11 provisioning rule).
///
/// # Errors
///
/// Propagates [`ParamsError`] from the builder.
pub fn provisioned_params(n: u64, k: u32, carol_budget: u64) -> Result<Params, ParamsError> {
    let probe = Params::builder(n).k(k).build()?;
    let broke_round = probe.unblockable_round(carol_budget);
    let margin = (broke_round + 1).saturating_sub(probe.lg_n_ceil()).max(2);
    Params::builder(n).k(k).max_round_margin(margin).build()
}

/// Convenience wrapper used by most experiments.
pub(crate) fn must_provision(n: u64, k: u32, carol_budget: u64) -> Params {
    provisioned_params(n, k, carol_budget).expect("experiment parameters are valid")
}

/// Mean wall time of one sequential trial, in nanoseconds: one warm-up
/// run, then `trials` runs on seeds `0..trials`, all on one reused
/// [`ScenarioScratch`] as a `run_batch` worker would. The timing gates
/// of E18 and E19 use it, at [`Scale::Full`] only.
pub(crate) fn per_trial_ns(scenario: &Scenario, trials: u32) -> u128 {
    let mut scratch = ScenarioScratch::new();
    std::hint::black_box(scenario.run_in(&mut scratch, 0xBEEF));
    let start = Instant::now();
    for seed in 0..trials {
        std::hint::black_box(scenario.run_in(&mut scratch, u64::from(seed)));
    }
    start.elapsed().as_nanos() / u128::from(trials.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provisioning_covers_the_budget() {
        let budget = 1_000_000u64;
        let p = provisioned_params(1024, 2, budget).unwrap();
        assert!(
            p.unblockable_round(budget) <= p.max_round(),
            "Carol must go broke within the schedule"
        );
    }

    #[test]
    fn provisioning_keeps_minimum_margin() {
        let p = provisioned_params(1024, 2, 0).unwrap();
        assert!(p.max_round() >= p.lg_n_ceil() + 2);
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(run_experiment("e99", Scale::Smoke).is_none());
    }

    #[test]
    fn ids_are_exhaustive_and_runnable() {
        // Run the two cheapest to keep the test fast; existence checks for
        // the rest.
        assert!(run_experiment("x2", Scale::Smoke).is_some());
        assert!(run_experiment("E4", Scale::Smoke).is_some());
        assert_eq!(EXPERIMENT_IDS.len(), 18);
    }

    #[test]
    fn report_renders_verdict() {
        let report = ExperimentReport {
            id: "E0",
            title: "smoke",
            claim: "none",
            tables: vec![("cap".into(), Table::new(vec!["a"]))],
            findings: vec!["finding".into()],
            pass: true,
        };
        let text = report.to_string();
        assert!(text.contains("E0"));
        assert!(text.contains("SHAPE REPRODUCED"));
    }
}
