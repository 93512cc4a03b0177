//! `exact-bcast-jammed`: jammed ε-BROADCAST on the exact engine.
//!
//! n = 2^12, default `Params`, a `Continuous` jammer with T = 2,000 —
//! the shape of the legacy BENCH_5/7/9 flagship rows. It is bound by
//! protocol-mandated listening in core's era-2 driver, radio's wake
//! queue and listener resolution, and rng; it never enters the phase
//! tiers or the sweep service, so a phase-kernel or sweep change should
//! leave it unchanged.

use std::time::Instant;

use rcb_adversary::StrategySpec;
use rcb_core::{BroadcastSoaScratch, Params, RunConfig};
use rcb_radio::Budget;
use rcb_rng::SeedTree;
use rcb_sim::{Scenario, ScenarioScratch};
use rcb_sweep::ScenarioSpec;
use rcb_telemetry::{Collector, NoopCollector, RecordingCollector};

use crate::check::{self, Tally};
use crate::layers;
use crate::trace::Tracer;
use crate::wrap::TimedAdversary;
use crate::{Args, Metric, Outcome};

pub const NAME: &str = "exact-bcast-jammed";
const N: u64 = 1 << 12;
const CAROL_T: u64 = 2_000;
/// Trials per `run_batch` call (E1's batch size).
const BATCH: u32 = 8;
const WORKERS: [usize; 2] = [1, 2];
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

fn params() -> Params {
    Params::builder(N)
        .build()
        .expect("default parameters are valid")
}

fn spec() -> ScenarioSpec {
    ScenarioSpec::broadcast(params())
        .adversary(StrategySpec::Continuous)
        .carol_budget(CAROL_T)
}

pub fn digest() -> String {
    crate::util::workload_digest(&[(spec(), BATCH)], &WORKERS)
}

fn trial_seed(master: u64, trial: u32) -> u64 {
    SeedTree::new(master).leaf_seed("trial", trial.into())
}

/// Everything a run needs before its first timed operation.
struct Ready {
    params: Params,
    master: u64,
    /// `run_batch` drivers at 1 and 2 workers.
    scenarios: Vec<Scenario>,
}

/// Builds the inputs and scenarios, then runs one untimed warm-up trial
/// on a fresh scratch. Returns the warm-up outcome's digest.
fn set_up(seed: u64, tally: &mut Tally, warm: &mut Option<u64>) -> (Ready, f64) {
    let start = Instant::now();
    let params = params();
    let master = SeedTree::new(seed).leaf_seed(NAME, 0);
    let scenarios: Vec<Scenario> = WORKERS
        .iter()
        .map(|&w| {
            Scenario::broadcast(params.clone())
                .adversary(StrategySpec::Continuous)
                .carol_budget(CAROL_T)
                .seed(master)
                .threads(w)
                .build()
                .expect("the flagship scenario is valid")
        })
        .collect();
    let first = scenarios[0].run_in(&mut ScenarioScratch::new(), trial_seed(master, 0));
    let elapsed = start.elapsed().as_secs_f64();
    let d = check::digest(&first);
    tally.op(
        check::ledger(&first, Some(CAROL_T)).and_then(|()| match *warm {
            Some(w) if w != d => Err("warm-up outcome differs between set-ups".into()),
            _ => Ok(()),
        }),
    );
    *warm = Some(d);
    (
        Ready {
            params,
            master,
            scenarios,
        },
        elapsed,
    )
}

fn set_up_all(seed: u64, tally: &mut Tally) -> (Ready, Vec<f64>, u64) {
    let mut warm = None;
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS {
        let (r, s) = set_up(seed, tally, &mut warm);
        setups.push(s);
        ready = Some(r);
    }
    (
        ready.expect("at least one set-up"),
        setups,
        warm.expect("warm-up ran"),
    )
}

/// Times one `run_batch` call and checks its outcomes: identical to the
/// reference (set by the first call, whose trial 0 must match the
/// warm-up), ledger invariants on every trial.
fn timed_batch(
    scenario: &Scenario,
    reference: &mut Option<Vec<u64>>,
    warm: u64,
    tally: &mut Tally,
) -> f64 {
    let start = Instant::now();
    let outcomes = scenario.run_batch(BATCH);
    let seconds = start.elapsed().as_secs_f64();
    let what = format!("run_batch({BATCH}) at {:?} workers", scenario.threads());
    let verdict = match reference {
        Some(r) => check::batch(&outcomes, r, Some(CAROL_T), &what),
        None => {
            let digests: Vec<u64> = outcomes.iter().map(check::digest).collect();
            let verdict = check::batch(&outcomes, &digests, Some(CAROL_T), &what).and_then(|()| {
                (digests.first() == Some(&warm))
                    .then_some(())
                    .ok_or_else(|| format!("{what}: trial 0 differs from the warm-up"))
            });
            *reference = Some(digests);
            verdict
        }
    };
    tally.op(verdict);
    seconds
}

/// The memory probe: set up, then one `run_batch(8)` at 1 worker.
pub fn memory_probe(seed: u64) {
    let (ready, _) = set_up(seed, &mut Tally::default(), &mut None);
    std::hint::black_box(ready.scenarios[0].run_batch(BATCH));
}

pub fn run(args: &Args) -> Outcome {
    let mut tally = Tally::default();
    let peak_rss = crate::peak_rss_mb(NAME, args.seed, &mut tally);
    let (ready, setups, warm) = set_up_all(args.seed, &mut tally);

    // Alternate the worker counts (ABBA) so both see the same machine.
    let mut reference = None;
    let mut per_worker: Vec<Vec<(f64, f64)>> = vec![Vec::new(); WORKERS.len()];
    let start = Instant::now();
    let mut round = 0usize;
    while start.elapsed().as_secs_f64() < args.seconds {
        let order: Vec<usize> = if round.is_multiple_of(2) {
            vec![0, 1]
        } else {
            vec![1, 0]
        };
        for i in order {
            let s = timed_batch(&ready.scenarios[i], &mut reference, warm, &mut tally);
            per_worker[i].push((f64::from(BATCH), s));
        }
        round += 1;
    }

    Outcome {
        id: crate::workload_id(NAME),
        tally,
        metrics: vec![
            Metric::median_of("setup_s", "s", &setups, "set-ups"),
            Metric::rate_of(
                "trials_per_s",
                &per_worker[0],
                "run_batch(8) calls at 1 worker",
            ),
            Metric::rate_of(
                "batch_trials_per_s",
                &per_worker[1],
                "run_batch(8) calls at 2 workers",
            ),
            peak_rss,
        ],
    }
}

fn run_config(seed: u64) -> RunConfig {
    RunConfig::seeded(seed).carol_budget(Budget::limited(CAROL_T))
}

pub fn traced(args: &Args) -> Outcome {
    let mut tally = Tally::default();
    let (ready, _, warm) = set_up_all(args.seed, &mut tally);
    let seeds: Vec<u64> = (0..BATCH).map(|t| trial_seed(ready.master, t)).collect();

    // Untraced reference: one call per worker count.
    let mut reference = None;
    let walls: Vec<f64> = ready
        .scenarios
        .iter()
        .map(|s| timed_batch(s, &mut reference, warm, &mut tally))
        .collect();
    let reference = reference.expect("a batch ran");

    // Traced pass: the same trials through the engine entry point, with
    // the adversary wrapped and the engine's counters attached.
    let collector = RecordingCollector::new();
    let mut tracer = Tracer::default();
    let mut scratch = BroadcastSoaScratch::new();
    let mut adversary_calls = 0u64;
    let mut adversary_ns = 0u64;
    let mut builds = Vec::new();
    let mut carol_share = 0.0;
    let traced_start = Instant::now();
    for (t, &seed) in seeds.iter().enumerate() {
        let root = tracer.begin("trial", t as u64, None);
        let build = Instant::now();
        let inner = tracer.span("adversary.build", t as u64, Some(root), || {
            StrategySpec::Continuous.slot_adversary(&ready.params, seed)
        });
        builds.push(build.elapsed().as_nanos() as f64 / 1e3);
        let mut adversary = TimedAdversary::new(inner);
        let span = tracer.begin("core.run_with", t as u64, Some(root));
        let (outcome, report) =
            scratch.run_with(&ready.params, &mut adversary, &run_config(seed), &collector);
        tracer.end(span);
        tracer.aggregate(
            "adversary.calls",
            span,
            adversary.calls.calls,
            adversary.calls.ns,
        );
        tracer.end(root);
        adversary_calls += adversary.calls.calls;
        adversary_ns += adversary.calls.ns;
        carol_share += outcome.carol_spend() as f64 / outcome.slots.max(1) as f64;
        let d = check::digest_parts(
            &outcome,
            Some(report.stop_reason),
            Some(&report.participant_refusals),
            Some(&report.channel_stats),
        );
        tally.op(check::ledger(&outcome, Some(CAROL_T)).and_then(|()| {
            (d == reference[t])
                .then_some(())
                .ok_or_else(|| format!("traced trial {t} differs from the untraced run"))
        }));
    }
    let traced_wall = traced_start.elapsed().as_secs_f64();
    let trials = f64::from(BATCH);

    // sim's own cost and the fresh-scratch cost: one seed through
    // `run_in` on a fresh scratch, again on the now-warm scratch, and
    // through the bare engine call `run_in` makes (no wrapper, the same
    // dyn no-op collector), three times; minima, since each difference
    // is small against the trial's run-to-run noise.
    let noop: &dyn Collector = &NoopCollector;
    let (mut fresh, mut steady, mut direct) = (Vec::new(), Vec::new(), Vec::new());
    let mut direct_scratch = BroadcastSoaScratch::new();
    let seed = seeds[0];
    for _ in 0..3 {
        let mut sim_scratch = ScenarioScratch::new();
        for times in [&mut fresh, &mut steady] {
            let start = Instant::now();
            let o = ready.scenarios[0].run_in(&mut sim_scratch, seed);
            times.push(start.elapsed().as_secs_f64() * 1e3);
            tally.op(check::ledger(&o, Some(CAROL_T)));
        }
        let mut adversary = StrategySpec::Continuous.slot_adversary(&ready.params, seed);
        let start = Instant::now();
        let (o, _) =
            direct_scratch.run_with(&ready.params, adversary.as_mut(), &run_config(seed), noop);
        direct.push(start.elapsed().as_secs_f64() * 1e3);
        tally.op(check::ledger(&o, Some(CAROL_T)));
    }
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);

    let slots = collector.counter(rcb_telemetry::MetricId::EngineSlots) as f64 / trials;
    let drained = collector.counter(rcb_telemetry::MetricId::EngineWakeDrained) as f64 / trials;
    let wake_p = drained / (slots.max(1.0) * (N + 1) as f64);

    let mut metrics = vec![
        Metric::new(
            "sim.self_ms",
            "ms",
            min(&steady) - min(&direct),
            "run_in minus the direct engine call, per trial (minima of 3; noise-limited)",
        ),
        Metric::new(
            "sim.fresh_scratch_ms",
            "ms",
            min(&fresh) - min(&steady),
            "first run_in on a new ScenarioScratch minus a steady one (minima of 3; noise-limited)",
        ),
        Metric::new(
            "sim.batch_efficiency",
            "ratio",
            walls[0] / (2.0 * walls[1]),
            "1-worker wall / (2 x 2-worker wall), run_batch(8)",
        ),
        Metric::new(
            "adversary.calls",
            "count",
            adversary_calls as f64 / trials,
            "wrapped plan/react/observe calls per trial",
        ),
        Metric::new(
            "adversary.busy_ms",
            "ms",
            adversary_ns as f64 / 1e6 / trials,
            "time inside the adversary per trial",
        ),
        Metric::median_of(
            "adversary.build_us",
            "us",
            &builds,
            "StrategySpec::slot_adversary calls",
        ),
        Metric::new(
            "core.busy_ms",
            "ms",
            tracer.total_self_ns("core.run_with") as f64 / 1e6 / trials,
            "BroadcastSoaScratch::run_with minus adversary time, per trial",
        ),
        Metric::new(
            "radio.wake_ns",
            "ns",
            layers::wake_ns((N + 1) as usize, slots as u64, wake_p, ready.master),
            format!("per wake, {} devices, wake rate {wake_p:.2e}/slot", N + 1),
        ),
        Metric::new(
            "radio.resolve_ns",
            "ns",
            layers::resolve_ns(carol_share / trials, ready.master),
            "per resolve_for_listener_on call, workload jam share",
        ),
        Metric::new(
            "rng.geometric_ns",
            "ns",
            layers::geometric_ns(wake_p, ready.master),
            format!("per Geometric::sample at p = {wake_p:.2e}"),
        ),
        Metric::new(
            "rng.binomial_ns",
            "ns",
            layers::binomial_ns(N, wake_p, ready.master),
            format!("per Binomial::sample at n = {N}, p = {wake_p:.2e}"),
        ),
        Metric::new(
            "telemetry.trace_overhead",
            "ratio",
            traced_wall / walls[0],
            "traced 8-trial pass / untraced run_batch(8) at 1 worker",
        ),
    ];
    metrics.extend(layers::counters(&collector, trials, "trial"));
    let path = args
        .out_dir
        .join(format!("trace-{NAME}-{}.json", args.seed));
    if let Err(e) = tracer.write(&path) {
        tally.op(Err(format!("cannot write {}: {e}", path.display())));
    }
    Outcome {
        id: crate::workload_id(NAME),
        tally,
        metrics: layers::complete(metrics, |name| {
            if name.starts_with("sweep.") || name.contains("share") || name == "baselines.kpsy_ms" {
                "the sweep service runs only in sweep-exact-zoo"
            } else {
                "phase-tier loops run only in phase-tier-mix"
            }
        }),
    }
}
