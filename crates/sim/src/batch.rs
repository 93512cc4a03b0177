//! Parallel trial execution with deterministic per-trial seeds.
//!
//! This is the workspace's one parallel substrate: `Scenario::run_batch`
//! builds on [`run_trials_scoped`] (per-worker scratch state), and the
//! analysis harness re-exports [`run_trials`] (stateless closures).
//!
//! Results are routed **channel-by-index**: every worker sends
//! `(trial_index, result)` over an unbounded channel and the collector
//! writes each result into its own pre-sized slot. Workers never contend
//! on a shared results lock — the previous design took a global mutex per
//! trial, which measurably serialised short trials.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use rcb_rng::SeedTree;

/// Runs `trials` independent executions of `trial_fn` across worker
/// threads, collecting results in trial order.
///
/// Each trial receives a seed derived as `SeedTree::new(base_seed)
/// .leaf_seed("trial", index)` — so a whole experiment replays from one
/// number regardless of thread scheduling.
///
/// # Example
///
/// ```
/// use rcb_sim::run_trials;
/// let squares = run_trials(7, 8, |seed| (seed % 100) * (seed % 100));
/// assert_eq!(squares.len(), 8);
/// // Deterministic regardless of parallelism.
/// assert_eq!(squares, run_trials(7, 8, |seed| (seed % 100) * (seed % 100)));
/// ```
pub fn run_trials<T, F>(base_seed: u64, trials: u32, trial_fn: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    run_trials_scoped(base_seed, trials, || (), |(), seed| trial_fn(seed))
}

/// The environment variable that overrides the worker-thread count for
/// [`run_trials_scoped`] (and everything built on it, notably
/// `Scenario::run_batch`) when no explicit override is passed. Invalid
/// or zero values are ignored. Harnesses use it to measure thread
/// scaling: `RCB_THREADS=1 cargo run --release -p rcb-analysis --bin reproduce ...`.
pub const THREADS_ENV_VAR: &str = "RCB_THREADS";

/// Resolves the workspace's worker count: the explicit override (zero
/// is clamped to 1 — an explicit request never silently falls back to
/// the environment), else [`THREADS_ENV_VAR`], else
/// `available_parallelism`. Both the batch runner and `rcb-sweep`'s
/// scheduler size their pools with it; the batch runner also caps it at
/// the trial count.
#[must_use]
pub fn resolve_workers(requested: Option<usize>) -> usize {
    requested
        .map(|w| w.max(1))
        .or_else(|| {
            std::env::var(THREADS_ENV_VAR)
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&w| w > 0)
        })
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
        })
}

/// Like [`run_trials`], but each worker thread owns a scratch value built
/// by `init` and passed to every trial it executes — the hook that lets
/// `Scenario::run_batch` reuse roster and budget allocations across the
/// trials of one worker instead of rebuilding them per trial.
///
/// The worker count defaults to `available_parallelism`, overridable via
/// the [`THREADS_ENV_VAR`] environment variable; use
/// [`run_trials_scoped_with`] for an explicit per-call override. Results
/// are identical regardless of the worker count (per-trial seeds are
/// derived, not shared).
pub fn run_trials_scoped<S, T, F, Init>(
    base_seed: u64,
    trials: u32,
    init: Init,
    trial_fn: F,
) -> Vec<T>
where
    T: Send,
    Init: Fn() -> S + Sync,
    F: Fn(&mut S, u64) -> T + Sync,
{
    run_trials_scoped_with(None, base_seed, trials, init, trial_fn)
}

/// Like [`run_trials_scoped`], with an explicit worker-count override
/// (`None` falls back to [`THREADS_ENV_VAR`], then
/// `available_parallelism`). `Some(1)` — and `Some(0)`, which clamps to
/// 1 — forces fully sequential execution on the calling thread: the
/// configuration bench harnesses use to measure single-core engine
/// throughput and thread scaling.
pub fn run_trials_scoped_with<S, T, F, Init>(
    workers: Option<usize>,
    base_seed: u64,
    trials: u32,
    init: Init,
    trial_fn: F,
) -> Vec<T>
where
    T: Send,
    Init: Fn() -> S + Sync,
    F: Fn(&mut S, u64) -> T + Sync,
{
    let tree = SeedTree::new(base_seed);
    let seeds: Vec<u64> = (0..trials)
        .map(|i| tree.leaf_seed("trial", i.into()))
        .collect();

    let workers = resolve_workers(workers).min(trials.max(1) as usize);

    if workers <= 1 || trials <= 1 {
        let mut scratch = init();
        return seeds
            .into_iter()
            .map(|seed| trial_fn(&mut scratch, seed))
            .collect();
    }

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let seeds = &seeds;
            let next = &next;
            let init = &init;
            let trial_fn = &trial_fn;
            scope.spawn(move || {
                let mut scratch = init();
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= seeds.len() {
                        break;
                    }
                    let out = trial_fn(&mut scratch, seeds[idx]);
                    if tx.send((idx, out)).is_err() {
                        break; // collector gone: abandon quietly
                    }
                }
            });
        }
    });
    drop(tx);

    // All workers have joined (scope ended) and every sender is dropped:
    // drain the channel into disjoint per-index slots.
    let mut slots: Vec<Option<T>> = (0..trials).map(|_| None).collect();
    for (idx, out) in rx {
        debug_assert!(slots[idx].is_none(), "trial {idx} delivered twice");
        slots[idx] = Some(out);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every trial index visited"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn runs_every_trial_exactly_once() {
        let counter = AtomicU32::new(0);
        let out = run_trials(1, 32, |seed| {
            counter.fetch_add(1, Ordering::Relaxed);
            seed
        });
        assert_eq!(out.len(), 32);
        assert_eq!(counter.load(Ordering::Relaxed), 32);
        // Seeds are pairwise distinct.
        let mut sorted = out.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 32);
    }

    #[test]
    fn deterministic_ordering_across_runs() {
        let a = run_trials(9, 16, |seed| seed.wrapping_mul(3));
        let b = run_trials(9, 16, |seed| seed.wrapping_mul(3));
        assert_eq!(a, b);
    }

    #[test]
    fn single_trial_short_circuits() {
        let out = run_trials(2, 1, |seed| seed + 1);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn zero_trials_is_empty() {
        let out: Vec<u64> = run_trials(2, 0, |seed| seed);
        assert!(out.is_empty());
    }

    #[test]
    fn scoped_scratch_is_per_worker_and_reused() {
        // Each worker counts its own trials in its scratch; the sum over
        // all workers must equal the trial count.
        let totals = std::sync::Mutex::new(Vec::new());
        struct Scratch<'a> {
            count: u64,
            totals: &'a std::sync::Mutex<Vec<u64>>,
        }
        impl Drop for Scratch<'_> {
            fn drop(&mut self) {
                self.totals.lock().unwrap().push(self.count);
            }
        }
        let out = run_trials_scoped(
            3,
            40,
            || Scratch {
                count: 0,
                totals: &totals,
            },
            |scratch, seed| {
                scratch.count += 1;
                seed
            },
        );
        assert_eq!(out.len(), 40);
        let per_worker = totals.into_inner().unwrap();
        assert_eq!(per_worker.iter().sum::<u64>(), 40);
    }

    #[test]
    fn seed_derivation_matches_the_documented_tree() {
        let tree = SeedTree::new(11);
        let expect: Vec<u64> = (0..5).map(|i| tree.leaf_seed("trial", i)).collect();
        let got = run_trials(11, 5, |seed| seed);
        assert_eq!(got, expect);
    }
}
