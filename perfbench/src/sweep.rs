//! `sweep-exact-zoo`: the sweep service over a fresh, size-bounded disk
//! cache, on a grid of exact-engine cells.
//!
//! A cold submission runs several hundred cells — KPSY, ε-BROADCAST
//! (jammed, spoofed, blocked and quiet), and the gossip drivers (naive,
//! epidemic, hopping, epoch hopping) under the schedule-free zoo, plus
//! many cheap small-n cells — under a `NodeTotalCost` stop rule, so some
//! cells stop at the first checkpoint and others run to the cap. A new
//! service then reopens the directory and resubmits; it must execute
//! zero trials. Only here do the scheduler, the cache, the statistics
//! and disk I/O sit on the measured path, and only here do KPSY's slot
//! loop and the gossip drivers' aggregate settlement run.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use rcb_adversary::StrategySpec;
use rcb_core::Params;
use rcb_rng::SeedTree;
use rcb_sim::{
    EpidemicSpec, EpochHoppingSpec, HoppingSpec, KpsySpec, NaiveSpec, ProtocolKind, ScenarioScratch,
};
use rcb_sweep::{
    fingerprint, CacheEntry, CellStats, Metric as SweepMetric, ProtocolSpec, ResultCache,
    ScenarioSpec, StopRule, SweepConfig, SweepReport, SweepService, SweepSpec, TrialMetrics,
};
use rcb_telemetry::{Collector, MetricId, RecordingCollector};

use crate::check::{self, Tally};
use crate::layers;
use crate::trace::Tracer;
use crate::util::builder_of;
use crate::{Args, Metric, Outcome};

pub const NAME: &str = "sweep-exact-zoo";
const WORKERS: [usize; 2] = [1, 2];
const SETUPS: usize = 5;
/// Disk bound of the cache: far above the grid's footprint, so nothing
/// is evicted and a reopen serves every cell.
const CACHE_BYTES: u64 = 64 << 20;
const SHARD: u32 = 8;

fn rule() -> StopRule {
    StopRule::new(SweepMetric::NodeTotalCost, 40.0).trials(4, 4, 16)
}

const SINGLE_ZOO: [StrategySpec; 5] = [
    StrategySpec::Silent,
    StrategySpec::Continuous,
    StrategySpec::Random(0.5),
    StrategySpec::Bursty { burst: 16, gap: 48 },
    StrategySpec::LaggedReactive,
];

const CHANNEL_ZOO: [StrategySpec; 4] = [
    StrategySpec::SplitUniform,
    StrategySpec::ChannelSweep { dwell: 8 },
    StrategySpec::ChannelLagged,
    StrategySpec::Adaptive {
        window: 8,
        reactivity: 0.5,
    },
];

/// The grid, at seed 0 (the run derives one seed per cell).
fn grid() -> Vec<ScenarioSpec> {
    let mut cells = Vec::new();
    // KPSY's era-1 slot loop.
    for s in SINGLE_ZOO {
        cells.push(
            ScenarioSpec::kpsy(KpsySpec {
                n: 256,
                horizon: (1 << 10) - 2,
            })
            .adversary(s)
            .carol_budget(1_000),
        );
    }
    // ε-BROADCAST on the exact engine: jammed, spoofed, blocked, quiet.
    let params = |n: u64| {
        Params::builder(n)
            .build()
            .expect("default parameters are valid")
    };
    for s in [
        StrategySpec::Continuous,
        StrategySpec::Spoof(0.3),
        StrategySpec::BlockAll(0.5),
    ] {
        cells.push(
            ScenarioSpec::broadcast(params(256))
                .adversary(s)
                .carol_budget(1_000),
        );
    }
    cells.push(ScenarioSpec::broadcast(params(1_024)));
    // The gossip drivers under the schedule-free zoo.
    for n in [64, 256] {
        for s in SINGLE_ZOO {
            cells.push(
                ScenarioSpec::naive(NaiveSpec { n, horizon: 400 })
                    .adversary(s)
                    .carol_budget(300),
            );
            cells.push(
                ScenarioSpec::epidemic(EpidemicSpec::new(n, 2_000))
                    .adversary(s)
                    .carol_budget(600),
            );
        }
    }
    for n in [256] {
        for c in [1u16, 4] {
            for s in SINGLE_ZOO.iter().chain(&CHANNEL_ZOO) {
                cells.push(
                    ScenarioSpec::hopping(HoppingSpec::new(n, 1_500))
                        .channels(c)
                        .adversary(*s)
                        .carol_budget(600),
                );
                cells.push(
                    ScenarioSpec::epoch_hopping(EpochHoppingSpec::new(n, 1_500, 16))
                        .channels(c)
                        .adversary(*s)
                        .carol_budget(600),
                );
            }
        }
    }
    // Many cheap small-n cells: they put the per-cell cache traffic
    // (validation, fingerprint, one file written and read per cell) on
    // the path without adding much trial work.
    for n in [2u64, 4, 8] {
        for horizon in [16u64, 64] {
            for s in SINGLE_ZOO {
                for t in [8u64, 32, 128] {
                    cells.push(
                        ScenarioSpec::naive(NaiveSpec { n, horizon })
                            .adversary(s)
                            .carol_budget(t),
                    );
                    cells.push(
                        ScenarioSpec::epidemic(EpidemicSpec::new(n, horizon))
                            .adversary(s)
                            .carol_budget(t),
                    );
                }
            }
        }
    }
    cells
}

pub fn digest() -> String {
    let r = rule();
    let cells: Vec<(ScenarioSpec, u32)> = grid().into_iter().map(|c| (c, r.max_trials)).collect();
    crate::util::workload_digest(&cells, &WORKERS)
}

fn seeded_grid(seed: u64) -> Vec<ScenarioSpec> {
    let tree = SeedTree::new(seed);
    grid()
        .into_iter()
        .enumerate()
        .map(|(i, c)| c.seed(tree.leaf_seed(NAME, i as u64)))
        .collect()
}

/// Per cell: rendered statistics (bit-exact via `Debug`) and trials.
type Stats = Vec<(String, u64)>;

fn rendered(report: &SweepReport) -> Stats {
    report
        .cells
        .iter()
        .map(|c| (format!("{:?}", c.stats), c.trials))
        .collect()
}

fn same(report: &SweepReport, reference: &Stats, what: &str) -> Result<(), String> {
    let got = rendered(report);
    match got.iter().zip(reference).position(|(a, b)| a != b) {
        None if got.len() == reference.len() => Ok(()),
        None => Err(format!(
            "{what}: {} cells, expected {}",
            got.len(),
            reference.len()
        )),
        Some(i) => Err(format!(
            "{what}: cell {i} statistics differ from the reference"
        )),
    }
}

fn service(workers: usize, dir: &Path) -> SweepService {
    let cache = ResultCache::at_dir_bounded(dir, CACHE_BYTES)
        .unwrap_or_else(|e| panic!("cannot open a cache at {}: {e}", dir.display()));
    SweepService::new(
        SweepConfig {
            workers: Some(workers),
            shard_size: SHARD,
        },
        cache,
    )
}

/// Scratch cache directories of this process, removed on drop.
struct Dirs {
    root: PathBuf,
    next: u64,
}

impl Dirs {
    fn new(out: &Path) -> Self {
        let root = out.join(format!("sweep-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        Self { root, next: 0 }
    }

    fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.root.join(self.next.to_string())
    }
}

impl Drop for Dirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

struct Ready {
    spec: SweepSpec,
    reference: Stats,
    cold: SweepReport,
}

fn submit(service: &SweepService, spec: &SweepSpec) -> (SweepReport, f64) {
    let start = Instant::now();
    let report = service
        .submit(spec)
        .unwrap_or_else(|e| panic!("the grid is valid and the cache writable: {e}"));
    (report, start.elapsed().as_secs_f64())
}

/// Builds the grid and a fresh cache, then runs one untimed cold
/// submission (2 workers) whose statistics are the run's reference.
fn set_up(seed: u64, dirs: &mut Dirs, tally: &mut Tally, prior: Option<&Stats>) -> (Ready, f64) {
    let start = Instant::now();
    let spec = SweepSpec::new(seeded_grid(seed), rule());
    let dir = dirs.fresh();
    let (cold, _) = submit(&service(2, &dir), &spec);
    let elapsed = start.elapsed().as_secs_f64();
    let reference = rendered(&cold);
    tally.op(match prior {
        Some(p) => same(&cold, p, "set-up cold submission"),
        None if cold.progress.dedup_hits > 0 => Err("the grid has duplicate cells".into()),
        None => Ok(()),
    });
    let _ = std::fs::remove_dir_all(&dir);
    (
        Ready {
            spec,
            reference,
            cold,
        },
        elapsed,
    )
}

fn zero_trials(report: &SweepReport, what: &str) -> Result<(), String> {
    if report.trials_executed() == 0 && report.cells.iter().all(|c| c.from_cache) {
        Ok(())
    } else {
        Err(format!(
            "{what}: executed {} trials, expected 0",
            report.trials_executed()
        ))
    }
}

/// The memory probe: one cold submission at 1 worker on a fresh cache.
pub fn memory_probe(seed: u64, out: &Path) {
    let mut dirs = Dirs::new(out);
    let spec = SweepSpec::new(seeded_grid(seed), rule());
    std::hint::black_box(submit(&service(1, &dirs.fresh()), &spec));
}

pub fn run(args: &Args) -> Outcome {
    let mut tally = Tally::default();
    let peak_rss = crate::peak_rss_mb(NAME, args.seed, &mut tally);
    let mut dirs = Dirs::new(&args.out_dir);
    let mut setups = Vec::new();
    let mut ready: Option<Ready> = None;
    for _ in 0..SETUPS {
        let (r, s) = set_up(
            args.seed,
            &mut dirs,
            &mut tally,
            ready.as_ref().map(|r| &r.reference),
        );
        setups.push(s);
        ready = Some(r);
    }
    let ready = ready.expect("set up");
    let spec = &ready.spec;

    let (mut one, mut two) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut round = 0usize;
    while start.elapsed().as_secs_f64() < args.seconds {
        let order = if round.is_multiple_of(2) {
            [2, 1]
        } else {
            [1, 2]
        };
        for workers in order {
            let dir = dirs.fresh();
            let svc = service(workers, &dir);
            let (cold, s) = submit(&svc, spec);
            let what = format!("cold submission at {workers} workers");
            tally.op(same(&cold, &ready.reference, &what));
            let op = (cold.trials_executed() as f64, s);
            if workers == 1 {
                one.push(op);
            } else {
                two.push(op);
                // Warm: the same service, from memory.
                let (warm, _) = submit(&svc, spec);
                tally.op(zero_trials(&warm, "warm resubmission")
                    .and_then(|()| same(&warm, &ready.reference, "warm resubmission")));
                drop(svc);
                // Reopen: a new service over the populated directory.
                let (again, _) = submit(&service(2, &dir), spec);
                tally.op(zero_trials(&again, "reopened submission")
                    .and_then(|()| same(&again, &ready.reference, "reopened submission")));
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
        round += 1;
    }

    // The cold statistics must equal a sequential replay bit for bit.
    let replay = replay(&ready, None);
    for (kind, verdict) in replay.verdicts {
        tally.op(verdict.map_err(|e| format!("replay of {kind} cells: {e}")));
    }

    Outcome {
        id: crate::workload_id(NAME),
        tally,
        metrics: vec![
            Metric::median_of("setup_s", "s", &setups, "set-ups"),
            Metric::rate_of("trials_per_s", &one, "cold submissions at 1 worker"),
            Metric::rate_of("batch_trials_per_s", &two, "cold submissions at 2 workers"),
            peak_rss,
        ],
    }
}

/// Protocol groups the replay times separately.
const GROUPS: [&str; 4] = ["kpsy", "bcast", "gossip", "hopping"];

fn group(kind: ProtocolKind) -> usize {
    match kind {
        ProtocolKind::Kpsy => 0,
        ProtocolKind::Broadcast | ProtocolKind::Ksy => 1,
        ProtocolKind::Naive | ProtocolKind::Epidemic => 2,
        ProtocolKind::Hopping | ProtocolKind::EpochHopping => 3,
    }
}

struct Replay {
    /// Seconds per protocol group.
    seconds: [f64; 4],
    /// Per-trial metric vectors in submission order (for the stats-push
    /// timing) and per-trial outcome digests.
    trials: Vec<TrialMetrics>,
    digests: Vec<u64>,
    verdicts: Vec<(&'static str, Result<(), String>)>,
}

/// Replays every trial the cold submission executed, sequentially
/// through `run_in`, and checks each cell's statistics against the cold
/// report bit for bit, and every outcome's ledger.
fn replay(ready: &Ready, collector: Option<&Arc<RecordingCollector>>) -> Replay {
    let mut out = Replay {
        seconds: [0.0; 4],
        trials: Vec::new(),
        digests: Vec::new(),
        verdicts: Vec::new(),
    };
    let mut failures: [Option<String>; 4] = Default::default();
    let mut scratch = ScenarioScratch::new();
    for (i, (cell, result)) in ready.spec.cells.iter().zip(&ready.cold.cells).enumerate() {
        let mut builder = builder_of(cell);
        if let Some(c) = collector {
            builder = builder.telemetry(Arc::clone(c) as Arc<dyn Collector>);
        }
        let scenario = builder.build().expect("grid cells are valid");
        let g = group(scenario.protocol());
        let tree = SeedTree::new(cell.seed);
        let mut stats = CellStats::new();
        for t in 0..result.trials {
            let start = Instant::now();
            let o = scenario.run_in(&mut scratch, tree.leaf_seed("trial", t));
            out.seconds[g] += start.elapsed().as_secs_f64();
            let m = TrialMetrics::from_outcome(&o);
            stats.push(&m);
            if let Err(e) = check::ledger(&o, cell.carol_budget) {
                failures[g].get_or_insert(format!("cell {i} trial {t}: {e}"));
            }
            out.trials.push(m);
            out.digests.push(check::digest(&o));
        }
        if format!("{stats:?}") != format!("{:?}", result.stats) {
            failures[g].get_or_insert(format!("cell {i}: replayed statistics differ"));
        }
    }
    for (g, failure) in failures.into_iter().enumerate() {
        out.verdicts.push((GROUPS[g], failure.map_or(Ok(()), Err)));
    }
    out
}

fn count(c: &RecordingCollector, id: MetricId) -> f64 {
    c.counter(id) as f64
}

pub fn traced(args: &Args) -> Outcome {
    let mut tally = Tally::default();
    let mut dirs = Dirs::new(&args.out_dir);
    let (ready, _) = set_up(args.seed, &mut dirs, &mut tally, None);
    let spec = &ready.spec;
    let mut tracer = Tracer::default();

    // Untraced and traced cold submissions at 2 workers.
    let dir = dirs.fresh();
    let (cold, untraced_wall) = submit(&service(2, &dir), spec);
    tally.op(same(&cold, &ready.reference, "untraced cold submission"));
    let _ = std::fs::remove_dir_all(&dir);
    let sweep_collector = Arc::new(RecordingCollector::new());
    let dir = dirs.fresh();
    let svc = service(2, &dir).with_collector(Arc::clone(&sweep_collector) as Arc<dyn Collector>);
    let root = tracer.begin("submission", 0, None);
    let (traced, traced_wall) = tracer.span("sweep.submit", 0, Some(root), || submit(&svc, spec));
    tracer.end(root);
    tally.op(same(&traced, &ready.reference, "traced cold submission"));
    drop(svc);

    // Layer timings over the populated directory.
    let reps = 5;
    let mut open = Vec::new();
    let mut reopen = Vec::new();
    let mut lookups = Vec::new();
    let prints: Vec<_> = spec.cells.iter().map(fingerprint).collect();
    for r in 0..reps {
        let t = Instant::now();
        let cache = tracer.span("sweep.open", r, Some(root), || {
            ResultCache::at_dir_bounded(&dir, CACHE_BYTES).expect("the populated cache opens")
        });
        open.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let hits = tracer.span("sweep.lookup", r, Some(root), || {
            prints
                .iter()
                .filter(|&&p| cache.lookup(p).is_some())
                .count()
        });
        lookups.push(t.elapsed().as_nanos() as f64 / 1e3 / prints.len() as f64);
        if hits != prints.len() {
            tally.op(Err(format!(
                "{hits} of {} cells found on disk",
                prints.len()
            )));
        }
        let t = Instant::now();
        let (again, _) = tracer.span("sweep.reopen", r, Some(root), || {
            submit(&service(2, &dir), spec)
        });
        reopen.push(t.elapsed().as_secs_f64() * 1e3);
        tally.op(zero_trials(&again, "reopened submission")
            .and_then(|()| same(&again, &ready.reference, "reopened submission")));
    }
    let t = Instant::now();
    for _ in 0..3 {
        for cell in &spec.cells {
            std::hint::black_box(fingerprint(cell));
        }
    }
    let fingerprint_us = t.elapsed().as_nanos() as f64 / 1e3 / (3 * spec.cells.len()) as f64;
    let store_dir = dirs.fresh();
    let store_cache = ResultCache::at_dir_bounded(&store_dir, CACHE_BYTES).expect("fresh cache");
    let t = Instant::now();
    for (cell, &print) in ready.cold.cells.iter().zip(&prints) {
        store_cache
            .store(CacheEntry {
                fingerprint: print,
                label: cell.spec.label(),
                trials: cell.trials,
                stats: cell.stats.clone(),
            })
            .expect("the fresh cache is writable");
    }
    let store_us = t.elapsed().as_nanos() as f64 / 1e3 / prints.len() as f64;

    // Sequential replays: untraced for the protocol shares, traced for
    // the engine counters; both must reproduce the cold statistics and
    // each other's outcomes.
    let plain = replay(&ready, None);
    let engine_collector = Arc::new(RecordingCollector::new());
    let counted = replay(&ready, Some(&engine_collector));
    for (kind, verdict) in plain
        .verdicts
        .iter()
        .cloned()
        .chain(counted.verdicts.iter().cloned())
    {
        tally.op(verdict.map_err(|e| format!("replay of {kind} cells: {e}")));
    }
    tally.op(if plain.digests == counted.digests {
        Ok(())
    } else {
        Err("replay outcomes change with telemetry attached".into())
    });
    let replay_s: f64 = plain.seconds.iter().sum();

    let pushes = plain.trials.len().max(1);
    let rounds = (200_000 / pushes).max(1);
    let t = Instant::now();
    for _ in 0..rounds {
        let mut stats = CellStats::new();
        for m in &plain.trials {
            stats.push(m);
        }
        std::hint::black_box(stats);
    }
    let push_ns = t.elapsed().as_nanos() as f64 / (rounds * pushes) as f64;

    let mut builds = Vec::new();
    for cell in &spec.cells {
        let t = Instant::now();
        let adversary = match &cell.protocol {
            ProtocolSpec::Broadcast(params) => {
                Some(cell.adversary.slot_adversary(params, cell.seed))
            }
            _ => cell.adversary.schedule_free_slot_adversary_on(
                rcb_radio::Spectrum::new(cell.channels),
                cell.seed,
            ),
        };
        builds.push(t.elapsed().as_nanos() as f64 / 1e3);
        std::hint::black_box(adversary);
    }

    let progress = &traced.progress;
    let slots = count(&engine_collector, MetricId::EngineSlots);
    let drained = count(&engine_collector, MetricId::EngineWakeDrained);
    let wake_p = drained / (slots.max(1.0) * 256.0);
    let sc = &*sweep_collector;
    let mut metrics = vec![
        Metric::median_of(
            "adversary.build_us",
            "us",
            &builds,
            "constructions, one per cell",
        ),
        Metric::new(
            "rng.geometric_ns",
            "ns",
            layers::geometric_ns(wake_p.max(1e-3), args.seed),
            format!("per Geometric::sample at p = {:.2e}", wake_p.max(1e-3)),
        ),
        Metric::new(
            "rng.binomial_ns",
            "ns",
            layers::binomial_ns(256, 0.05, args.seed),
            "per Binomial::sample at n = 256, p = 0.05",
        ),
        Metric::new(
            "baselines.kpsy_ms",
            "ms",
            plain.seconds[0] * 1e3,
            "KPSY replay time per cold submission",
        ),
        Metric::new("sweep.fingerprint_us", "us", fingerprint_us, "per cell"),
        Metric::median_of(
            "sweep.open_ms",
            "ms",
            &open,
            "ResultCache::at_dir_bounded opens",
        ),
        Metric::median_of(
            "sweep.lookup_disk_us",
            "us",
            &lookups,
            "passes, per lookup from disk",
        ),
        Metric::median_of(
            "sweep.reopen_ms",
            "ms",
            &reopen,
            "reopen + resubmit from disk",
        ),
        Metric::new(
            "sweep.store_us",
            "us",
            store_us,
            "per ResultCache::store into a fresh directory",
        ),
        Metric::new("sweep.stats_push_ns", "ns", push_ns, "per CellStats::push"),
        Metric::new(
            "sweep.pool_efficiency",
            "ratio",
            replay_s / (2.0 * untraced_wall),
            "sequential replay / (2 x cold wall at 2 workers)",
        ),
        Metric::new(
            "sweep.stop_saving",
            "ratio",
            progress.trials_saved_by_stopping as f64
                / (spec.cells.len() as f64 * f64::from(rule().max_trials)),
            "trials saved by early stopping / (cells x cap)",
        ),
        Metric::new(
            "sweep.cells",
            "count",
            count(sc, MetricId::SweepCells),
            "per cold submission",
        ),
        Metric::new(
            "sweep.trials_executed",
            "count",
            progress.trials_executed as f64,
            "per cold submission",
        ),
        Metric::new(
            "sweep.trials_saved",
            "count",
            progress.trials_saved() as f64,
            "by stopping and cache",
        ),
        Metric::new(
            "sweep.cache_hits",
            "count",
            count(sc, MetricId::SweepCacheHits),
            "cold",
        ),
        Metric::new(
            "sweep.cache_misses",
            "count",
            count(sc, MetricId::SweepCacheMisses),
            "cold",
        ),
        Metric::new(
            "sweep.cache_invalidations",
            "count",
            count(sc, MetricId::SweepCacheInvalidations),
            "cold",
        ),
        Metric::new(
            "sweep.shards",
            "count",
            count(sc, MetricId::SweepShards),
            "cold",
        ),
        Metric::new(
            "sweep.checkpoints",
            "count",
            count(sc, MetricId::SweepCheckpoints),
            "cold",
        ),
        Metric::new(
            "sweep.early_stops",
            "count",
            count(sc, MetricId::SweepEarlyStops),
            "cold",
        ),
        Metric::new(
            "sweep.steals",
            "count",
            count(sc, MetricId::SweepSteals),
            "cold; depends on timing, not expected to repeat",
        ),
        Metric::new(
            "telemetry.trace_overhead",
            "ratio",
            traced_wall / untraced_wall,
            "cold submission with a collector / without",
        ),
    ];
    for (g, name) in [
        "baselines.kpsy_share",
        "core.bcast_share",
        "baselines.gossip_share",
        "core.hopping_share",
    ]
    .into_iter()
    .enumerate()
    {
        metrics.push(Metric::new(
            name,
            "ratio",
            plain.seconds[g] / replay_s,
            format!("share of the sequential replay ({replay_s:.3} s)"),
        ));
    }
    metrics.extend(layers::counters(&engine_collector, 1.0, "cold submission"));
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
            "radio.wake_ns" | "radio.resolve_ns" => "timed on exact-bcast-jammed's shape",
            "core.fast_mc_busy_ms" | "core.fluid_busy_ms" | "core.fast_busy_ms" => {
                "phase-tier loops run only in phase-tier-mix"
            }
            _ => "the sweep drives engines through its own pool, not run_batch or direct calls",
        }),
    }
}
