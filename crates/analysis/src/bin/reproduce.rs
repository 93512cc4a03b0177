//! `reproduce` — regenerate the paper's claims as measured tables.
//!
//! ```text
//! reproduce                 # run every experiment at full scale
//! reproduce --smoke         # quick versions (seconds)
//! reproduce e1 e7           # a subset
//! reproduce --list          # show the experiment index
//! ```

use std::process::ExitCode;

use rcb_analysis::experiments::{run_experiment, Scale, EXPERIMENT_IDS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Full;
    let mut ids: Vec<String> = Vec::new();
    for arg in &args {
        match arg.as_str() {
            "--smoke" => scale = Scale::Smoke,
            "--full" => scale = Scale::Full,
            "--list" => {
                println!("experiments: {}", EXPERIMENT_IDS.join(", "));
                println!(
                    "each report states its paper claim; EXPERIMENTS.md archives full-scale runs"
                );
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("usage: reproduce [--smoke|--full] [--list] [IDS...]");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}; try --help");
                return ExitCode::FAILURE;
            }
            id => ids.push(id.to_string()),
        }
    }
    if ids.is_empty() {
        ids = EXPERIMENT_IDS.iter().map(|s| s.to_string()).collect();
    }

    println!("# Reproduction — Gilbert & Young, PODC 2012");
    println!(
        "\nscale: {}\n",
        match scale {
            Scale::Smoke => "smoke (fast, small populations)",
            Scale::Full => "full (EXPERIMENTS.md configuration)",
        }
    );

    let mut failures = 0u32;
    for id in &ids {
        match run_experiment(id, scale) {
            Some(report) => {
                println!("{report}");
                if !report.pass {
                    failures += 1;
                }
            }
            None => {
                eprintln!("unknown experiment id: {id}");
                failures += 1;
            }
        }
    }
    if failures == 0 {
        println!(
            "\nall {} experiment(s) reproduced the paper's shape",
            ids.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("\n{failures} experiment(s) mismatched");
        ExitCode::FAILURE
    }
}
