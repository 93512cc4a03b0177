//! `perfbench` — end-to-end and per-layer benchmark of the simulator.
//!
//! ```text
//! perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--record FILE]
//! perfbench compare A.jsonl B.jsonl
//! perfbench list
//! ```
//!
//! See `perfbench/README.md` for the workloads, the metrics and the
//! noise model behind the per-run statistics.

mod check;
mod compare;
mod exact;
mod layers;
mod phase;
mod stats;
mod sweep;
mod trace;
mod util;
mod wrap;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use check::Tally;
use util::{num, quote, Provenance};

/// Workload seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 20_120_716;
/// Where runs leave their records, traces and scratch cache directories.
const OUT_DIR: &str = ".bench_out";

/// The registered workloads, in the order `all` runs them.
const WORKLOADS: [&str; 3] = [exact::NAME, phase::NAME, sweep::NAME];

/// What one run of one workload asks for.
#[derive(Debug, Clone)]
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub out_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How the value was obtained (sample count and spread, or why the
    /// layer is absent from this workload).
    pub note: String,
    /// The per-operation values the statistic summarises, in run order
    /// (kept in the run record, not in the result line).
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn new(
        name: &'static str,
        unit: &'static str,
        value: f64,
        note: impl Into<String>,
    ) -> Self {
        Self {
            name,
            unit,
            value,
            note: note.into(),
            samples: Vec::new(),
        }
    }

    /// A per-layer metric this workload does not exercise: reported as
    /// 0 with the reason.
    pub fn absent(name: &'static str, unit: &'static str, why: &str) -> Self {
        Self::new(name, unit, 0.0, format!("absent: {why}"))
    }

    /// A per-run statistic over per-operation samples: their median,
    /// with sample count and quartiles in the note.
    pub fn median_of(name: &'static str, unit: &'static str, samples: &[f64], what: &str) -> Self {
        let value = stats::median(samples);
        let spread = stats::quartiles(samples)
            .map_or_else(String::new, |(q1, q3)| format!(", q1 {q1:.4}, q3 {q3:.4}"));
        let tail = stats::tail_percentile(samples, 10)
            .map_or_else(String::new, |(p, v)| format!(", p{p} {v:.4}"));
        Self {
            samples: samples.to_vec(),
            ..Self::new(
                name,
                unit,
                value,
                format!("median of {} {what}{spread}{tail}", samples.len()),
            )
        }
    }

    /// A throughput over a run: total trials ÷ total time of the timed
    /// operations, each given as `(trials, seconds)`. The per-operation
    /// rates are kept as samples, with their median and quartiles in
    /// the note.
    pub fn rate_of(name: &'static str, ops: &[(f64, f64)], what: &str) -> Self {
        let trials: f64 = ops.iter().map(|&(t, _)| t).sum();
        let seconds: f64 = ops.iter().map(|&(_, s)| s).sum();
        let rates: Vec<f64> = ops.iter().map(|&(t, s)| t / s).collect();
        let spread = stats::quartiles(&rates)
            .map_or_else(String::new, |(q1, q3)| format!(", q1 {q1:.4}, q3 {q3:.4}"));
        Self {
            samples: rates.clone(),
            ..Self::new(
                name,
                "1/s",
                trials / seconds,
                format!(
                    "{trials} trials / {seconds:.3} s over {} {what}; per-op median {:.4}{spread}",
                    ops.len(),
                    stats::median(&rates)
                ),
            )
        }
    }
}

/// The result of one workload run.
#[derive(Debug)]
pub struct Outcome {
    /// Workload name plus the digest of its canonical cell list.
    pub id: String,
    pub tally: Tally,
    pub metrics: Vec<Metric>,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => match argv.as_slice() {
            [_, a, b] => compare::run(Path::new(a), Path::new(b)),
            _ => usage("compare takes two record files"),
        },
        Some("list") => {
            for w in WORKLOADS {
                println!("{}", workload_id(w));
            }
            ExitCode::SUCCESS
        }
        _ => match parse(&argv) {
            Ok(cli) => run(&cli),
            Err(why) => usage(&why),
        },
    }
}

fn usage(why: &str) -> ExitCode {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] [--record FILE]",
        WORKLOADS.join("|")
    );
    eprintln!("       perfbench compare A.jsonl B.jsonl");
    eprintln!("       perfbench list");
    ExitCode::from(2)
}

#[derive(Debug)]
struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: PathBuf,
    /// Internal: run the workload's 1-worker memory probe and print its
    /// peak resident memory (see [`peak_rss_mb`]).
    peak_rss: bool,
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        record: Path::new(OUT_DIR).join("runs.jsonl"),
        peak_rss: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = value()?.clone(),
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--record" => cli.record = PathBuf::from(value()?),
            "--peak-rss" => cli.peak_rss = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.workload != "all" && !WORKLOADS.contains(&cli.workload.as_str()) {
        return Err(format!("unknown workload {:?}", cli.workload));
    }
    Ok(cli)
}

/// `name@digest`: the digest covers the workload's canonical cell list,
/// trial counts and worker counts, so an id cannot silently change
/// meaning.
fn workload_id(name: &str) -> String {
    let digest = match name {
        exact::NAME => exact::digest(),
        phase::NAME => phase::digest(),
        _ => sweep::digest(),
    };
    format!("{name}@{digest}")
}

fn run(cli: &Cli) -> ExitCode {
    if cli.workload == "all" {
        return run_all(cli);
    }
    if cli.peak_rss {
        match cli.workload.as_str() {
            exact::NAME => exact::memory_probe(cli.seed),
            phase::NAME => phase::memory_probe(cli.seed),
            _ => sweep::memory_probe(cli.seed, Path::new(OUT_DIR)),
        }
        println!("{}", num(util::peak_rss_mb()));
        return ExitCode::SUCCESS;
    }
    let out_dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let args = Args {
        seed: cli.seed,
        seconds: cli.seconds,
        out_dir,
    };
    let provenance = Provenance::collect();
    let started = Instant::now();
    let outcome = match (cli.workload.as_str(), cli.trace) {
        (exact::NAME, false) => exact::run(&args),
        (exact::NAME, true) => exact::traced(&args),
        (phase::NAME, false) => phase::run(&args),
        (phase::NAME, true) => phase::traced(&args),
        (_, false) => sweep::run(&args),
        (_, true) => sweep::traced(&args),
    };
    let wall = started.elapsed().as_secs_f64();

    println!(
        "workload {} seed {} trace {} ({wall:.1} s)",
        outcome.id,
        cli.seed,
        u8::from(cli.trace)
    );
    println!(
        "  git {} | sources {} | {} | nproc {} | {} | era {}",
        provenance.git_rev,
        provenance.source_digest,
        provenance.rustc,
        provenance.nproc,
        provenance.cpu_model,
        provenance.engine_era
    );
    for m in &outcome.metrics {
        println!(
            "  {:<28} {:>14} {:<6} {}",
            m.name,
            fmt_value(m.value),
            m.unit,
            m.note
        );
    }
    println!(
        "  ops attempted {}, failed {}",
        outcome.tally.attempted, outcome.tally.failed
    );
    for why in &outcome.tally.messages {
        println!("  FAILED: {why}");
    }
    if let Err(e) = append_record(cli, &outcome, &provenance) {
        eprintln!("perfbench: cannot write the run record: {e}");
    }
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}

fn fmt_value(x: f64) -> String {
    if x != 0.0 && x.abs() < 0.01 {
        format!("{x:.3e}")
    } else {
        format!("{x:.4}")
    }
}

/// The contract's last line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_line(outcome: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        let _ = write!(
            metrics,
            "{}{}: {{\"value\": {}, \"unit\": {}}}",
            if i == 0 { "" } else { ", " },
            quote(m.name),
            num(m.value),
            quote(m.unit)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.tally.failed == 0,
        outcome.tally.attempted,
        outcome.tally.failed
    )
}

/// Appends one JSON line describing the run to the record file that
/// `compare` reads.
fn append_record(cli: &Cli, outcome: &Outcome, provenance: &Provenance) -> std::io::Result<()> {
    if let Some(parent) = cli.record.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        let _ = write!(
            metrics,
            "{}{}: {{\"value\": {}, \"unit\": {}, \"note\": {}, \"samples\": [{}]}}",
            if i == 0 { "" } else { ", " },
            quote(m.name),
            num(m.value),
            quote(m.unit),
            quote(&m.note),
            m.samples
                .iter()
                .map(|&x| num(x))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    let line = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"provenance\": {}, \"metrics\": {{{metrics}}}}}\n",
        quote(&outcome.id),
        cli.seed,
        num(cli.seconds),
        u8::from(cli.trace),
        outcome.tally.failed == 0,
        outcome.tally.attempted,
        outcome.tally.failed,
        provenance.to_json()
    );
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&cli.record)?
        .write_all(line.as_bytes())
}

/// `peak_rss_mb`: the peak resident memory of a fresh process that sets
/// the workload up and runs its operation once at 1 worker. A separate
/// process, because the 2-worker phases' per-thread allocator arenas
/// make a shared process's peak vary from run to run.
pub fn peak_rss_mb(workload: &str, seed: u64, tally: &mut Tally) -> Metric {
    let value = std::env::current_exe()
        .map_err(|e| e.to_string())
        .and_then(|exe| {
            Command::new(exe)
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    &seed.to_string(),
                    "--peak-rss",
                ])
                .output()
                .map_err(|e| e.to_string())
        })
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .trim()
                .parse::<f64>()
                .map_err(|e| format!("memory probe printed no number: {e}"))
        });
    tally.op(value.as_ref().map(|_| ()).map_err(Clone::clone));
    Metric::new(
        "peak_rss_mb",
        "MB",
        value.unwrap_or(f64::NAN),
        "VmHWM of a fresh process running the workload once at 1 worker",
    )
}

/// Runs every workload in its own child process (so each reports its
/// own peak memory), then prints one table and a combined result line.
fn run_all(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut table = Vec::new();
    let (mut attempted, mut failed, mut correct) = (0.0, 0.0, true);
    let mut combined = String::new();
    for w in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", w, "--seed", &cli.seed.to_string()])
            .args(["--seconds", &cli.seconds.to_string()])
            .args(["--trace", if cli.trace { "1" } else { "0" }])
            .arg("--record")
            .arg(&cli.record)
            .output();
        let output = match output {
            Ok(o) if o.status.success() => o,
            Ok(o) => {
                eprintln!("perfbench: {w} exited with {}", o.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("perfbench: cannot run {w}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let text = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for l in &lines {
            println!("{l}");
        }
        let Ok(result) = util::Json::parse(last) else {
            eprintln!("perfbench: {w} printed no result line");
            return ExitCode::FAILURE;
        };
        attempted += result
            .get("attempted")
            .and_then(util::Json::as_f64)
            .unwrap_or(0.0);
        failed += result
            .get("failed")
            .and_then(util::Json::as_f64)
            .unwrap_or(0.0);
        correct &= result.get("correct") == Some(&util::Json::Bool(true));
        if let Some(metrics) = result.get("metrics").and_then(util::Json::as_object) {
            for (name, m) in metrics {
                let value = m
                    .get("value")
                    .and_then(util::Json::as_f64)
                    .unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(util::Json::as_str).unwrap_or("");
                table.push((w, name.clone(), value, unit.to_string()));
                let _ = write!(
                    combined,
                    "{}{}: {{\"value\": {}, \"unit\": {}}}",
                    if combined.is_empty() { "" } else { ", " },
                    quote(&format!("{w}/{name}")),
                    num(value),
                    quote(unit)
                );
            }
        }
        let a = result
            .get("attempted")
            .and_then(util::Json::as_f64)
            .unwrap_or(0.0);
        let f = result
            .get("failed")
            .and_then(util::Json::as_f64)
            .unwrap_or(0.0);
        table.push((w, "ops attempted / failed".into(), a, format!("/ {f}")));
    }
    println!();
    println!("{:<20} {:<32} {:>14}  unit", "workload", "metric", "value");
    for (w, name, value, unit) in &table {
        println!("{w:<20} {name:<32} {:>14}  {unit}", fmt_value(*value));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{combined}}}}}"
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use util::Json;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
    }

    fn names(json: &Json, key: &str) -> Vec<(String, String)> {
        json.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_manifest_matches_the_code() {
        let json = manifest();
        let end_to_end: Vec<(String, String)> = [
            ("setup_s", "s"),
            ("trials_per_s", "1/s"),
            ("batch_trials_per_s", "1/s"),
            ("peak_rss_mb", "MB"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
        assert_eq!(names(&json, "end_to_end"), end_to_end);
        let per_layer: Vec<(String, String)> = layers::PER_LAYER
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names(&json, "per_layer"), per_layer);
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut tally = Tally::default();
        tally.op(Ok(()));
        tally.op(Err("bad".into()));
        let outcome = Outcome {
            id: "w@0".into(),
            tally,
            metrics: vec![Metric::new("setup_s", "s", 0.25, "")],
        };
        let line = Json::parse(&result_line(&outcome)).expect("valid JSON");
        let keys: Vec<&String> = line.as_object().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("attempted").and_then(Json::as_f64), Some(2.0));
        let setup = line
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric");
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn arguments_are_validated() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse(&argv(
            "--workload exact-bcast-jammed --seed 3 --seconds 10 --trace 1"
        ))
        .is_ok());
        assert!(parse(&argv("--workload nope")).is_err());
        assert!(parse(&argv("--workload all --trace 2")).is_err());
        assert!(parse(&argv("--workload all --seconds 0")).is_err());
        assert!(parse(&argv("--workload all --bogus")).is_err());
    }
}
