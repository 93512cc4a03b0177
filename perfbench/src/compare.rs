//! `perfbench compare A B`: per workload × metric, the median and
//! quartiles of two sets of runs and a verdict against the bounds in
//! `BENCHMARK.json`.
//!
//! * `worse`: B's median is worse than A's by more than the bound;
//! * `better`: B's median is better by more than A's own quartile
//!   spread, and B wins at least nine tenths of the pairs (runs paired by
//!   seed when both sides used the same seeds, all cross pairs otherwise);
//! * `unresolved`: neither, and the run-to-run spread exceeds the bound;
//! * `unchanged`: neither, within the bound.
//!
//! Runs whose workload ids (name plus cell-list digest) differ are not
//! compared.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use crate::stats::{median, quartiles};
use crate::util::Json;

/// One run record, reduced to what the comparison needs.
struct Run {
    id: String,
    trace: bool,
    seed: u64,
    metrics: BTreeMap<String, f64>,
}

fn load(path: &Path) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let j = Json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
            let id = j
                .get("workload")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string();
            let metrics = j
                .get("metrics")
                .and_then(Json::as_object)
                .map(|m| {
                    m.iter()
                        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                        .collect()
                })
                .unwrap_or_default();
            Ok(Run {
                id,
                trace: j.get("trace").and_then(Json::as_f64) == Some(1.0),
                seed: j.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
                metrics,
            })
        })
        .collect()
}

/// `(bound, higher_is_better)` per end-to-end metric.
fn bounds() -> BTreeMap<String, (f64, bool)> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return BTreeMap::new();
    };
    let Ok(json) = Json::parse(&text) else {
        return BTreeMap::new();
    };
    let mut out = BTreeMap::new();
    for m in json
        .get("end_to_end")
        .and_then(Json::as_array)
        .unwrap_or_default()
    {
        if let (Some(name), Some(bound), Some(better)) = (
            m.get("name").and_then(Json::as_str),
            m.get("bound").and_then(Json::as_f64),
            m.get("better").and_then(Json::as_str),
        ) {
            out.insert(name.to_string(), (bound, better == "higher"));
        }
    }
    out
}

/// The verdict of B against A for one metric.
pub fn verdict(a: &[(u64, f64)], b: &[(u64, f64)], bound: f64, higher: bool) -> &'static str {
    let va: Vec<f64> = a.iter().map(|&(_, v)| v).collect();
    let vb: Vec<f64> = b.iter().map(|&(_, v)| v).collect();
    let (ma, mb) = (median(&va), median(&vb));
    let sign = if higher { 1.0 } else { -1.0 };
    let gain = sign * (mb - ma) / ma.abs();
    let spread =
        |v: &[f64], m: f64| quartiles(v).map_or(f64::INFINITY, |(q1, q3)| (q3 - q1) / m.abs());
    let (sa, sb) = (spread(&va, ma), spread(&vb, mb));
    let better_than = |x: f64, y: f64| sign * (x - y) > 0.0;
    let same_seeds = {
        let mut sa: Vec<u64> = a.iter().map(|&(s, _)| s).collect();
        let mut sb: Vec<u64> = b.iter().map(|&(s, _)| s).collect();
        sa.sort_unstable();
        sb.sort_unstable();
        sa == sb
    };
    let (wins, pairs) = if same_seeds {
        let wins = b
            .iter()
            .filter(|&&(s, vb)| a.iter().any(|&(sa, va)| sa == s && better_than(vb, va)))
            .count();
        (wins, b.len())
    } else {
        let wins = vb
            .iter()
            .map(|&x| va.iter().filter(|&&y| better_than(x, y)).count())
            .sum();
        (wins, va.len() * vb.len())
    };
    if gain < -bound {
        "worse"
    } else if gain > sa && wins * 10 >= pairs * 9 {
        "better"
    } else if sa.max(sb) > bound {
        "unresolved"
    } else {
        "unchanged"
    }
}

fn name(id: &str) -> &str {
    id.split('@').next().unwrap_or_default()
}

fn select<'a>(runs: &'a [Run], workload: &str, trace: bool) -> Vec<&'a Run> {
    runs.iter()
        .filter(|r| name(&r.id) == workload && r.trace == trace)
        .collect()
}

pub fn run(a_path: &Path, b_path: &Path) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench compare: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bounds = bounds();
    let mut keys: Vec<(String, bool)> = a
        .iter()
        .map(|r| (name(&r.id).to_string(), r.trace))
        .collect();
    keys.sort();
    keys.dedup();
    let mut refused = false;
    println!(
        "{:<20} {:<28} {:>12} {:>12} {:>12}   {:>12} {:>12} {:>12}  verdict",
        "workload", "metric", "A q1", "A median", "A q3", "B q1", "B median", "B q3"
    );
    for (workload, trace) in keys {
        let ra = select(&a, &workload, trace);
        let rb = select(&b, &workload, trace);
        if rb.is_empty() {
            continue;
        }
        let ids: Vec<&str> = ra.iter().chain(&rb).map(|r| r.id.as_str()).collect();
        if ids.iter().any(|id| *id != ids[0]) {
            eprintln!(
                "perfbench compare: refusing {workload}: its workload digests differ ({})",
                {
                    let mut u = ids.clone();
                    u.sort_unstable();
                    u.dedup();
                    u.join(", ")
                }
            );
            refused = true;
            continue;
        }
        let metrics: Vec<&String> = ra[0].metrics.keys().collect();
        for metric in metrics {
            let values = |runs: &[&Run]| -> Vec<(u64, f64)> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(metric).map(|&v| (r.seed, v)))
                    .filter(|(_, v)| v.is_finite())
                    .collect()
            };
            let (va, vb) = (values(&ra), values(&rb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let summary = |v: &[(u64, f64)]| {
                let x: Vec<f64> = v.iter().map(|&(_, y)| y).collect();
                let (q1, q3) = quartiles(&x).unwrap_or((f64::NAN, f64::NAN));
                (q1, median(&x), q3)
            };
            let (a1, am, a3) = summary(&va);
            let (b1, bm, b3) = summary(&vb);
            let v = match bounds.get(metric.as_str()) {
                Some(&(bound, higher)) if !trace => verdict(&va, &vb, bound, higher),
                _ => "no bound",
            };
            println!(
                "{workload:<20} {metric:<28} {a1:>12.4} {am:>12.4} {a3:>12.4}   {b1:>12.4} {bm:>12.4} {b3:>12.4}  {v}"
            );
        }
    }
    if refused {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(values: &[f64]) -> Vec<(u64, f64)> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect()
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = runs(&[10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]);
        let faster = runs(&[12.0, 12.1, 11.9, 12.0, 12.05, 11.95, 12.0, 12.1, 11.9, 12.0]);
        let slower = runs(&[8.0, 8.1, 7.9, 8.0, 8.05, 7.95, 8.0, 8.1, 7.9, 8.0]);
        assert_eq!(verdict(&a, &faster, 0.1, true), "better");
        assert_eq!(verdict(&a, &slower, 0.1, true), "worse");
        assert_eq!(verdict(&a, &a, 0.1, true), "unchanged");
        // Lower-is-better flips the reading.
        assert_eq!(verdict(&a, &slower, 0.1, false), "better");
        let noisy = runs(&[5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]);
        assert_eq!(verdict(&a, &noisy, 0.1, true), "unresolved");
    }
}
