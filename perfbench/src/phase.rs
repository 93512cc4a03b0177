//! `phase-tier-mix`: one fixed pass of `run_batch` calls over the
//! phase-level tiers — `fast_mc` (memoryless and epoch), fluid
//! (memoryless and epoch) and the ε-BROADCAST phase simulator — under
//! their adversary lowerings.
//!
//! This is the code ROADMAP item 2 merges: four phase loops, `fast.rs`
//! and three phase-adversary traits. It touches no slot engine, so a
//! slot-engine change should leave it unchanged. Trials per cell are
//! weighted so each of the five loops takes roughly a fifth of a pass.

use std::time::Instant;

use rcb_adversary::StrategySpec;
use rcb_core::fast::{run_fast_with, FastConfig};
use rcb_core::fast_mc::{run_fast_mc_epoch_with, run_fast_mc_with, McConfig, DEFAULT_PHASE_LEN};
use rcb_core::fluid::{run_fluid_epoch_with, run_fluid_with, FluidConfig};
use rcb_core::Params;
use rcb_radio::Spectrum;
use rcb_rng::SeedTree;
use rcb_sim::{Engine, EpochHoppingSpec, HoppingSpec, Scenario, ScenarioOutcome};
use rcb_sweep::ScenarioSpec;
use rcb_telemetry::{Collector, NoopCollector, RecordingCollector};

use crate::check::{self, Tally};
use crate::layers;
use crate::stats::median;
use crate::trace::Tracer;
use crate::util::builder_of;
use crate::wrap::{Calls, TimedFluidJammer, TimedPhaseAdversary, TimedPhaseJammer};
use crate::{Args, Metric, Outcome};

pub const NAME: &str = "phase-tier-mix";
const WORKERS: [usize; 2] = [1, 2];
const SETUPS: usize = 5;

const HORIZON: u64 = 40_000;
const CAROL_T: u64 = 24_000;
const CHANNELS: u16 = 4;
const EPOCH_LEN: u64 = 32;
const N_MC: u64 = 1 << 16;
const N_FLUID: u64 = 1 << 20;
const N_FAST: u64 = 1 << 16;
const FAST_T: u64 = 24_000;

/// The five phase loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loop {
    FastMc,
    FastMcEpoch,
    Fluid,
    FluidEpoch,
    Fast,
}

const LOOPS: [Loop; 5] = [
    Loop::FastMc,
    Loop::FastMcEpoch,
    Loop::Fluid,
    Loop::FluidEpoch,
    Loop::Fast,
];

const ADAPTIVE: StrategySpec = StrategySpec::Adaptive {
    window: 8,
    reactivity: 0.5,
};

/// `(loop, strategy, trials per pass)`.
const CELLS: [(Loop, StrategySpec, u32); 16] = [
    (Loop::FastMc, StrategySpec::Random(0.5), 12),
    (Loop::FastMc, ADAPTIVE, 12),
    (Loop::FastMc, StrategySpec::SplitUniform, 12),
    (
        Loop::FastMc,
        StrategySpec::Bursty { burst: 16, gap: 48 },
        12,
    ),
    (
        Loop::FastMcEpoch,
        StrategySpec::ChannelSweep { dwell: 32 },
        15,
    ),
    (Loop::FastMcEpoch, StrategySpec::Random(0.5), 15),
    (Loop::Fluid, StrategySpec::Random(0.5), 36),
    (Loop::Fluid, ADAPTIVE, 36),
    (Loop::Fluid, StrategySpec::ChannelLagged, 36),
    (Loop::Fluid, StrategySpec::LaggedReactive, 36),
    (Loop::FluidEpoch, StrategySpec::Random(0.5), 32),
    (
        Loop::FluidEpoch,
        StrategySpec::ChannelSweep { dwell: 32 },
        32,
    ),
    (Loop::Fast, StrategySpec::Continuous, 2_800),
    (Loop::Fast, StrategySpec::BlockAll(0.5), 2_800),
    (Loop::Fast, StrategySpec::Extract(2), 2_800),
    (Loop::Fast, StrategySpec::Spoof(0.3), 2_800),
];

fn fast_params() -> Params {
    Params::builder(N_FAST)
        .build()
        .expect("default parameters are valid")
}

fn spec(lp: Loop, strategy: StrategySpec) -> ScenarioSpec {
    let cell = match lp {
        Loop::FastMc => ScenarioSpec::hopping(HoppingSpec::new(N_MC, HORIZON)).engine(Engine::Fast),
        Loop::FastMcEpoch => {
            ScenarioSpec::epoch_hopping(EpochHoppingSpec::new(N_MC, HORIZON, EPOCH_LEN))
                .engine(Engine::Fast)
        }
        Loop::Fluid => {
            ScenarioSpec::hopping(HoppingSpec::new(N_FLUID, HORIZON)).engine(Engine::Fluid)
        }
        Loop::FluidEpoch => {
            ScenarioSpec::epoch_hopping(EpochHoppingSpec::new(N_FLUID, HORIZON, EPOCH_LEN))
                .engine(Engine::Fluid)
        }
        Loop::Fast => {
            return ScenarioSpec::broadcast(fast_params())
                .engine(Engine::Fast)
                .adversary(strategy)
                .carol_budget(FAST_T)
        }
    };
    cell.channels(CHANNELS)
        .adversary(strategy)
        .carol_budget(CAROL_T)
}

pub fn digest() -> String {
    let cells: Vec<(ScenarioSpec, u32)> = CELLS
        .iter()
        .map(|&(lp, s, trials)| (spec(lp, s), trials))
        .collect();
    crate::util::workload_digest(&cells, &WORKERS)
}

fn carol_budget(lp: Loop) -> u64 {
    if lp == Loop::Fast {
        FAST_T
    } else {
        CAROL_T
    }
}

struct Ready {
    /// Per cell: master seed and the drivers at 1 and 2 workers.
    cells: Vec<(u64, Vec<Scenario>)>,
}

/// One pass: every cell's `run_batch` at `workers[w]`. Returns the wall
/// time and checks every outcome against `reference` (set on the first
/// pass).
fn pass(ready: &Ready, w: usize, reference: &mut Option<Vec<Vec<u64>>>, tally: &mut Tally) -> f64 {
    let start = Instant::now();
    let outcomes: Vec<Vec<ScenarioOutcome>> = ready
        .cells
        .iter()
        .zip(CELLS)
        .map(|((_, drivers), (_, _, trials))| drivers[w].run_batch(trials))
        .collect();
    let seconds = start.elapsed().as_secs_f64();
    let verdict = match reference {
        Some(r) => outcomes
            .iter()
            .zip(r.iter())
            .zip(CELLS)
            .try_for_each(|((o, d), (lp, s, _))| {
                check::batch(
                    o,
                    d,
                    Some(carol_budget(lp)),
                    &format!("{lp:?}/{}", s.name()),
                )
            }),
        None => {
            let digests: Vec<Vec<u64>> = outcomes
                .iter()
                .map(|o| o.iter().map(check::digest).collect())
                .collect();
            let verdict =
                outcomes
                    .iter()
                    .zip(&digests)
                    .zip(CELLS)
                    .try_for_each(|((o, d), (lp, s, _))| {
                        check::batch(
                            o,
                            d,
                            Some(carol_budget(lp)),
                            &format!("{lp:?}/{}", s.name()),
                        )
                    });
            *reference = Some(digests);
            verdict
        }
    };
    tally.op(verdict.map_err(|e| format!("pass at {} workers: {e}", WORKERS[w])));
    seconds
}

/// Builds every cell's drivers, then runs one untimed warm-up pass.
fn set_up(seed: u64, tally: &mut Tally, reference: &mut Option<Vec<Vec<u64>>>) -> (Ready, f64) {
    let start = Instant::now();
    let tree = SeedTree::new(seed);
    let cells = CELLS
        .iter()
        .enumerate()
        .map(|(i, &(lp, s, _))| {
            let master = tree.leaf_seed(NAME, i as u64);
            let cell = spec(lp, s).seed(master);
            let drivers = WORKERS
                .iter()
                .map(|&w| {
                    builder_of(&cell)
                        .threads(w)
                        .build()
                        .expect("phase-tier cells are valid")
                })
                .collect();
            (master, drivers)
        })
        .collect();
    let ready = Ready { cells };
    pass(&ready, 0, reference, tally);
    (ready, start.elapsed().as_secs_f64())
}

fn total_trials() -> f64 {
    CELLS.iter().map(|&(_, _, t)| f64::from(t)).sum()
}

/// The memory probe: set up, which runs one pass at 1 worker.
pub fn memory_probe(seed: u64) {
    std::hint::black_box(set_up(seed, &mut Tally::default(), &mut None));
}

pub fn run(args: &Args) -> Outcome {
    let mut tally = Tally::default();
    let peak_rss = crate::peak_rss_mb(NAME, args.seed, &mut tally);
    let mut reference = None;
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS {
        let (r, s) = set_up(args.seed, &mut tally, &mut reference);
        setups.push(s);
        ready = Some(r);
    }
    let ready = ready.expect("set up");

    let trials = total_trials();
    let mut per_worker: Vec<Vec<(f64, f64)>> = vec![Vec::new(); WORKERS.len()];
    let start = Instant::now();
    let mut round = 0usize;
    while start.elapsed().as_secs_f64() < args.seconds {
        let order = if round.is_multiple_of(2) {
            [0, 1]
        } else {
            [1, 0]
        };
        for w in order {
            let s = pass(&ready, w, &mut reference, &mut tally);
            per_worker[w].push((trials, s));
        }
        round += 1;
    }
    Outcome {
        id: crate::workload_id(NAME),
        tally,
        metrics: vec![
            Metric::median_of("setup_s", "s", &setups, "set-ups"),
            Metric::rate_of("trials_per_s", &per_worker[0], "passes at 1 worker"),
            Metric::rate_of("batch_trials_per_s", &per_worker[1], "passes at 2 workers"),
            peak_rss,
        ],
    }
}

/// Runs one trial of a cell through its engine entry point, with the
/// same config `Scenario` builds. With `calls` the adversary is wrapped
/// in a timer; without, it is handed over bare. Returns the outcome
/// digest and the ledger check.
fn direct<C: Collector + ?Sized>(
    params: &Params,
    lp: Loop,
    strategy: StrategySpec,
    seed: u64,
    collector: &C,
    calls: Option<&mut Calls>,
) -> (u64, Result<(), String>) {
    /// Hands `$inner` to `$body` as `$adv`, wrapped in `$wrapper` when
    /// timing is on.
    macro_rules! call {
        ($wrapper:ident, $inner:expr, |$adv:ident| $body:expr) => {{
            let inner = $inner;
            match calls {
                Some(total) => {
                    let mut wrapped = $wrapper {
                        inner,
                        calls: Calls::default(),
                    };
                    let $adv = &mut wrapped;
                    let out = $body;
                    *total = wrapped.calls;
                    out
                }
                None => {
                    let mut inner = inner;
                    let $adv = inner.as_mut();
                    $body
                }
            }
        }};
    }
    let spectrum = Spectrum::new(CHANNELS);
    let shape = HoppingSpec::new(N_MC, HORIZON);
    let mc = |phase_len: u64| McConfig {
        n: N_MC,
        horizon: HORIZON,
        listen_p: shape.listen_p,
        relay_rate: shape.relay_rate,
        phase_len,
        carol_budget: Some(CAROL_T),
        seed,
    };
    let fluid = |phase_len: u64| FluidConfig {
        n: N_FLUID,
        horizon: HORIZON,
        listen_p: shape.listen_p,
        relay_rate: shape.relay_rate,
        phase_len,
        carol_budget: Some(CAROL_T),
    };
    let (outcome, stats) = match lp {
        Loop::FastMc => {
            let inner = strategy
                .phase_jammer(spectrum, seed)
                .expect("has a phase-mc model");
            call!(TimedPhaseJammer, inner, |adv| run_fast_mc_with(
                &mc(DEFAULT_PHASE_LEN),
                spectrum,
                adv,
                collector
            ))
        }
        Loop::FastMcEpoch => {
            let inner = strategy
                .phase_jammer(spectrum, seed)
                .expect("has a phase-mc model");
            call!(TimedPhaseJammer, inner, |adv| run_fast_mc_epoch_with(
                &mc(EPOCH_LEN),
                EPOCH_LEN,
                spectrum,
                adv,
                collector
            ))
        }
        Loop::Fluid => {
            let inner = strategy.fluid_jammer(spectrum).expect("has a fluid model");
            call!(TimedFluidJammer, inner, |adv| run_fluid_with(
                &fluid(DEFAULT_PHASE_LEN),
                spectrum,
                adv,
                collector
            ))
        }
        Loop::FluidEpoch => {
            let inner = strategy.fluid_jammer(spectrum).expect("has a fluid model");
            call!(TimedFluidJammer, inner, |adv| run_fluid_epoch_with(
                &fluid(EPOCH_LEN),
                EPOCH_LEN,
                spectrum,
                adv,
                collector
            ))
        }
        Loop::Fast => {
            let inner = strategy
                .phase_adversary(params, seed)
                .expect("has a phase model");
            let config = FastConfig::seeded(seed).carol_budget(FAST_T);
            let o = call!(TimedPhaseAdversary, inner, |adv| run_fast_with(
                params, adv, &config, collector
            ));
            let ledger = check::ledger(&o, Some(FAST_T));
            return (check::digest_parts(&o, None, None, None), ledger);
        }
    };
    let ledger = check::ledger(&outcome, Some(CAROL_T));
    (
        check::digest_parts(&outcome, None, None, Some(&stats)),
        ledger,
    )
}

fn busy_name(lp: Loop) -> &'static str {
    match lp {
        Loop::FastMc | Loop::FastMcEpoch => "core.fast_mc_busy_ms",
        Loop::Fluid | Loop::FluidEpoch => "core.fluid_busy_ms",
        Loop::Fast => "core.fast_busy_ms",
    }
}

fn span_name(lp: Loop) -> &'static str {
    match lp {
        Loop::FastMc => "core.run_fast_mc_with",
        Loop::FastMcEpoch => "core.run_fast_mc_epoch_with",
        Loop::Fluid => "core.run_fluid_with",
        Loop::FluidEpoch => "core.run_fluid_epoch_with",
        Loop::Fast => "core.run_fast_with",
    }
}

pub fn traced(args: &Args) -> Outcome {
    let mut tally = Tally::default();
    let mut reference = None;
    let (ready, _) = set_up(args.seed, &mut tally, &mut reference);
    let walls: Vec<f64> = (0..WORKERS.len())
        .map(|w| pass(&ready, w, &mut reference, &mut tally))
        .collect();
    let reference = reference.expect("a pass ran");
    let params = fast_params();

    // Traced pass: every trial through its engine entry point, adversary
    // wrapped, counters attached.
    let collector = RecordingCollector::new();
    let mut tracer = Tracer::default();
    let mut adversary = Calls::default();
    let mut builds = Vec::new();
    let root = tracer.begin("pass", 0, None);
    let traced_start = Instant::now();
    for (c, (&(lp, strategy, trials), (master, _))) in CELLS.iter().zip(&ready.cells).enumerate() {
        let cell_span = tracer.begin("cell", c as u64, Some(root));
        let tree = SeedTree::new(*master);
        let mut failures = Vec::new();
        for t in 0..trials {
            let seed = tree.leaf_seed("trial", t.into());
            let build = Instant::now();
            let _ = match lp {
                Loop::FastMc | Loop::FastMcEpoch => strategy
                    .phase_jammer(Spectrum::new(CHANNELS), seed)
                    .map(|_| ()),
                Loop::Fluid | Loop::FluidEpoch => {
                    strategy.fluid_jammer(Spectrum::new(CHANNELS)).map(|_| ())
                }
                Loop::Fast => strategy.phase_adversary(&params, seed).map(|_| ()),
            };
            builds.push(build.elapsed().as_nanos() as f64 / 1e3);
            let mut calls = Calls::default();
            let span = tracer.begin(span_name(lp), u64::from(t), Some(cell_span));
            let (d, ledger) = direct(&params, lp, strategy, seed, &collector, Some(&mut calls));
            tracer.end(span);
            tracer.aggregate("adversary.calls", span, calls.calls, calls.ns);
            adversary.calls += calls.calls;
            adversary.ns += calls.ns;
            if let Err(e) = ledger {
                failures.push(e);
            } else if d != reference[c][t as usize] {
                failures.push(format!("trial {t} differs from the untraced run"));
            }
        }
        tracer.end(cell_span);
        tally.op(match failures.first() {
            None => Ok(()),
            Some(e) => Err(format!("traced {lp:?}/{}: {e}", strategy.name())),
        });
    }
    let traced_wall = traced_start.elapsed().as_secs_f64();
    tracer.end(root);

    // sim's own cost per pass: every trial through `run_in` versus the
    // bare engine call, alternating which goes first, three times.
    let noop: &dyn Collector = &NoopCollector;
    let (mut sim, mut bare) = (Vec::new(), Vec::new());
    let mut loop_ms = [0.0f64; LOOPS.len()];
    for rep in 0..3 {
        let mut times = [0.0f64; 2];
        for side in if rep % 2 == 0 { [0, 1] } else { [1, 0] } {
            let start = Instant::now();
            for (&(lp, strategy, trials), (master, drivers)) in CELLS.iter().zip(&ready.cells) {
                let tree = SeedTree::new(*master);
                let mut scratch = rcb_sim::ScenarioScratch::new();
                let cell_start = Instant::now();
                for t in 0..trials {
                    let seed = tree.leaf_seed("trial", t.into());
                    if side == 0 {
                        std::hint::black_box(drivers[0].run_in(&mut scratch, seed));
                    } else {
                        let _ =
                            std::hint::black_box(direct(&params, lp, strategy, seed, noop, None));
                    }
                }
                if side == 1 {
                    let i = LOOPS
                        .iter()
                        .position(|&l| l == lp)
                        .expect("every loop is listed");
                    loop_ms[i] += cell_start.elapsed().as_secs_f64() * 1e3 / 3.0;
                }
            }
            times[side] = start.elapsed().as_secs_f64() * 1e3;
        }
        sim.push(times[0]);
        bare.push(times[1]);
    }
    let pass_ms: f64 = loop_ms.iter().sum();
    let shares: Vec<String> = LOOPS
        .iter()
        .zip(loop_ms)
        .map(|(lp, ms)| format!("{lp:?} {:.0}%", 100.0 * ms / pass_ms))
        .collect();
    let shares = shares.join(", ");

    let mut metrics = vec![
        Metric::new(
            "sim.self_ms",
            "ms",
            median(&sim) - median(&bare),
            "run_in minus the direct engine calls, per pass (3 passes each)",
        ),
        Metric::new(
            "sim.batch_efficiency",
            "ratio",
            walls[0] / (2.0 * walls[1]),
            "1-worker pass wall / (2 x 2-worker pass wall)",
        ),
        Metric::new(
            "adversary.calls",
            "count",
            adversary.calls as f64,
            "wrapped plan_phase calls per pass",
        ),
        Metric::new(
            "adversary.busy_ms",
            "ms",
            adversary.ns as f64 / 1e6,
            "time inside the adversaries per pass",
        ),
        Metric::median_of(
            "adversary.build_us",
            "us",
            &builds,
            "StrategySpec constructions",
        ),
        Metric::new(
            "rng.geometric_ns",
            "ns",
            layers::geometric_ns(0.5, args.seed),
            "per Geometric::sample at p = listen_p = 0.5",
        ),
        Metric::new(
            "rng.binomial_ns",
            "ns",
            layers::binomial_ns(N_MC / u64::from(CHANNELS), 0.05, args.seed),
            format!(
                "per Binomial::sample at n = {}, p = 0.05",
                N_MC / u64::from(CHANNELS)
            ),
        ),
        Metric::new(
            "telemetry.trace_overhead",
            "ratio",
            traced_wall / walls[0],
            "traced pass / untraced pass at 1 worker",
        ),
    ];
    for name in [
        "core.fast_mc_busy_ms",
        "core.fluid_busy_ms",
        "core.fast_busy_ms",
    ] {
        let ns: u64 = LOOPS
            .iter()
            .filter(|&&lp| busy_name(lp) == name)
            .map(|&lp| tracer.total_self_ns(span_name(lp)))
            .sum();
        metrics.push(Metric::new(
            name,
            "ms",
            ns as f64 / 1e6,
            format!("engine calls minus adversary time, per pass; untraced loop shares: {shares}"),
        ));
    }
    metrics.extend(layers::counters(&collector, 1.0, "pass"));
    let path = args
        .out_dir
        .join(format!("trace-{NAME}-{}.json", args.seed));
    if let Err(e) = tracer.write(&path) {
        tally.op(Err(format!("cannot write {}: {e}", path.display())));
    }
    Outcome {
        id: crate::workload_id(NAME),
        tally,
        metrics: layers::complete(metrics, |name| match name {
            "sim.fresh_scratch_ms" => "the phase tiers take no ScenarioScratch",
            "core.busy_ms" | "radio.wake_ns" | "radio.resolve_ns" => {
                "slot engines run only in exact-bcast-jammed and sweep-exact-zoo"
            }
            _ => "the sweep service runs only in sweep-exact-zoo",
        }),
    }
}
