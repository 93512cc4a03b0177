//! The worker-pool scheduler: decomposes cells into trial shards,
//! executes them with work stealing, and aggregates deterministically.
//!
//! Determinism contract (pinned by `tests/determinism.rs` at the
//! workspace root): per-cell aggregates are **byte-identical** to a
//! sequential `run_trials` pass over the same seeds, at any worker
//! count and shard size. Three mechanisms deliver it:
//!
//! 1. per-trial seeds derive from the cell's master seed
//!    (`SeedTree::new(seed).leaf_seed("trial", i)`) — exactly the
//!    `Scenario::run_batch` tree, independent of scheduling;
//! 2. workers return raw per-trial metric vectors; the scheduler buffers
//!    out-of-order shards and pushes trials into the Welford
//!    accumulators strictly in trial-index order (float addition is not
//!    associative — completion-order merging would change bits);
//! 3. early stopping is evaluated only at the [`StopRule`]'s fixed
//!    checkpoints, and shards are never issued past the next
//!    checkpoint, so the stopped trial count is a pure function of the
//!    rule and the cell — never of shard size or worker count.

use std::collections::BTreeMap;
use std::sync::mpsc;

use rcb_rng::SeedTree;
use rcb_sim::{resolve_workers, Scenario, ScenarioScratch};
use rcb_telemetry::{Collector, MetricId};

use crate::progress::SweepProgress;
use crate::queue::ShardQueue;
use crate::stats::{CellStats, StopRule, TrialMetrics};

/// A contiguous batch of trials of one cell.
#[derive(Debug, Clone, Copy)]
struct Shard {
    /// Index into the scheduler's cell list.
    cell: usize,
    /// First trial index of the shard.
    start: u32,
    /// Number of trials.
    len: u32,
}

/// Scheduler-side state of one executing cell.
struct CellState {
    stats: CellStats,
    /// Completed shards waiting for their turn, keyed by start index.
    pending: BTreeMap<u32, Vec<TrialMetrics>>,
    /// Trials aggregated so far (the contiguous prefix).
    aggregated: u32,
    /// Trials issued as shards so far.
    issued: u32,
    /// The checkpoint the current wave runs to.
    target: u32,
    done: bool,
}

/// Issues shards covering `[state.issued, state.target)`; returns how
/// many shards were pushed.
fn issue(queue: &ShardQueue<Shard>, cell: usize, state: &mut CellState, shard_size: u32) -> u64 {
    let mut pushed = 0u64;
    while state.issued < state.target {
        let len = shard_size.min(state.target - state.issued);
        queue.push(Shard {
            cell,
            start: state.issued,
            len,
        });
        state.issued += len;
        pushed += 1;
    }
    pushed
}

/// Executes `cells` under `rule`, returning `(stats, trials)` per cell in
/// input order. `progress` is updated in place; `on_progress` fires after
/// every checkpoint evaluation and cell completion. The collector (noop
/// by default at the service level) sees shard issues, checkpoint
/// evaluations, early stops, per-cell trial-count observations, and the
/// queue's final steal count — never anything that affects results.
pub(crate) fn execute(
    cells: &[(usize, Scenario)],
    rule: &StopRule,
    workers: Option<usize>,
    shard_size: u32,
    progress: &mut SweepProgress,
    on_progress: &mut dyn FnMut(&SweepProgress),
    collector: &dyn Collector,
) -> Vec<(CellStats, u32)> {
    if cells.is_empty() {
        return Vec::new();
    }
    let telemetry = collector.enabled();
    let shard_size = shard_size.max(1);
    let workers = resolve_workers(workers);
    if telemetry {
        collector.gauge(MetricId::SweepWorkers, workers as f64);
    }
    let queue: ShardQueue<Shard> = ShardQueue::new(workers);
    // (scenario, seed tree) per cell, shared immutably with the workers;
    // mutable aggregation state stays on the scheduler thread.
    let exec: Vec<(&Scenario, SeedTree)> = cells
        .iter()
        .map(|(_, scenario)| (scenario, SeedTree::new(scenario.seed())))
        .collect();
    let mut state: Vec<CellState> = cells
        .iter()
        .map(|_| CellState {
            stats: CellStats::new(),
            pending: BTreeMap::new(),
            aggregated: 0,
            issued: 0,
            target: rule.first_checkpoint(),
            done: false,
        })
        .collect();

    let (tx, rx) = mpsc::channel::<(usize, u32, Vec<TrialMetrics>)>();
    let mut shards_issued = 0u64;
    for (cell, cell_state) in state.iter_mut().enumerate() {
        shards_issued += issue(&queue, cell, cell_state, shard_size);
    }

    std::thread::scope(|scope| {
        for worker in 0..workers {
            let queue = &queue;
            let exec = &exec;
            let tx = tx.clone();
            scope.spawn(move || {
                let mut scratch = ScenarioScratch::new();
                while let Some(shard) = queue.pop(worker) {
                    let (scenario, tree) = &exec[shard.cell];
                    let mut metrics = Vec::with_capacity(shard.len as usize);
                    for trial in shard.start..shard.start + shard.len {
                        let seed = tree.leaf_seed("trial", u64::from(trial));
                        let outcome = scenario.run_in(&mut scratch, seed);
                        metrics.push(TrialMetrics::from_outcome(&outcome));
                    }
                    if tx.send((shard.cell, shard.start, metrics)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);

        let mut remaining = state.len();
        while remaining > 0 {
            let (cell, start, metrics) = rx
                .recv()
                .expect("workers cannot exit while shards are outstanding");
            let cell_state = &mut state[cell];
            cell_state.pending.insert(start, metrics);
            // Drain the contiguous prefix, strictly in trial order.
            while let Some(batch) = cell_state.pending.remove(&cell_state.aggregated) {
                for trial in &batch {
                    cell_state.stats.push(trial);
                }
                cell_state.aggregated += batch.len() as u32;
                progress.trials_executed += batch.len() as u64;
                if telemetry {
                    collector.add(MetricId::SweepTrials, batch.len() as u64);
                }
            }
            // Checkpoint reached: stop, or issue the next wave.
            if cell_state.aggregated == cell_state.target && !cell_state.done {
                if telemetry {
                    collector.add(MetricId::SweepCheckpoints, 1);
                }
                if rule.finished_by(&cell_state.stats) {
                    cell_state.done = true;
                    remaining -= 1;
                    progress.cells_done += 1;
                    progress.trials_saved_by_stopping +=
                        u64::from(rule.max_trials - cell_state.aggregated);
                    if telemetry {
                        if cell_state.aggregated < rule.max_trials {
                            collector.add(MetricId::SweepEarlyStops, 1);
                        }
                        collector
                            .observe(MetricId::SweepCellTrials, f64::from(cell_state.aggregated));
                    }
                } else {
                    cell_state.target = rule
                        .next_checkpoint(cell_state.aggregated)
                        .expect("finished_by is true at max_trials");
                    shards_issued += issue(&queue, cell, cell_state, shard_size);
                }
                on_progress(progress);
            }
        }
        queue.close();
    });
    if telemetry {
        collector.add(MetricId::SweepShards, shards_issued);
        collector.add(MetricId::SweepSteals, queue.steals());
    }

    state
        .into_iter()
        .map(|cell_state| {
            debug_assert!(cell_state.done && cell_state.pending.is_empty());
            (cell_state.stats, cell_state.aggregated)
        })
        .collect()
}
