//! Experiment harness: trial runner, statistics, regression, tables, and
//! the reproduction experiments E1–E19/X2.
//!
//! The paper is a theory paper — its "evaluation" is Theorem 1 and the
//! lemma chain. Each analytical claim maps to an experiment here that
//! regenerates it as a measured table; this crate's `reproduce` binary
//! prints them, and `EXPERIMENTS.md` archives paper-vs-measured.
//!
//! ```
//! use rcb_analysis::experiments::{self, Scale};
//!
//! // The smoke scale finishes in seconds and is exercised by `cargo test`.
//! let report = experiments::e4_quiet_costs::run(Scale::Smoke);
//! println!("{}", report);
//! assert!(report.pass);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
mod regression;
mod runner;
mod summary;
pub mod sweep_runner;
mod table;

pub use regression::{fit_loglog, fit_ols, PowerLawFit};
pub use runner::{run_trials, run_trials_scoped};
pub use summary::Summary;
pub use table::Table;
