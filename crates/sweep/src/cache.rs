//! Content-addressed result cache: completed cell statistics keyed by
//! canonical fingerprint.
//!
//! Entries live in memory always and, when the cache is rooted at a
//! directory, in one small text file per fingerprint (`<hex>.cell`).
//! Floats are stored as IEEE-754 bit patterns in hex, so a disk
//! round-trip reproduces the in-memory accumulators **bit-exactly** —
//! a warm-cache sweep reports byte-identical aggregates to the run that
//! populated it. Files carry the [`ENGINE_ERA`] tag; entries from a
//! different era (or any unparsable file) are treated as misses, never
//! served. Entries are written to a temporary file and renamed into
//! place, and a file must end in a newline to parse, so a torn write is
//! refused rather than read short.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::SystemTime;

use rcb_rng::stats::RunningStats;

use crate::fingerprint::{Fingerprint, ENGINE_ERA};
use crate::stats::{CellStats, Metric, METRIC_COUNT};

/// On-disk format version (the first line of every cell file).
const FORMAT: &str = "rcb-sweep-cell-v1";

/// One cached cell: the statistics a finished cell accumulated.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry {
    /// The cell's canonical fingerprint.
    pub fingerprint: Fingerprint,
    /// Human-readable cell label (diagnostic only; never part of the key).
    pub label: String,
    /// Trials the statistics aggregate.
    pub trials: u64,
    /// The accumulated per-metric statistics.
    pub stats: CellStats,
}

/// How a cache lookup resolved — the telemetry-facing classification
/// behind [`ResultCache::lookup`]'s `Option`.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheLookup {
    /// A usable entry was found (in memory or on disk).
    Hit(Box<CacheEntry>),
    /// No entry exists for the fingerprint.
    Miss,
    /// A file exists for the fingerprint but was refused — stale engine
    /// era, corruption, or a fingerprint mismatch. Served as a miss, but
    /// worth distinguishing: a burst of these after an upgrade is the
    /// era guard working, not a cold cache.
    Invalidated,
}

/// A content-addressed store of completed cell statistics.
///
/// Lookups check the in-memory map first, then the directory (when
/// rooted); stores write through to both. The service keeps one cache
/// across submissions, so repeated cells — within a sweep, across
/// sweeps, or across process restarts via the directory — cost nothing.
#[derive(Debug)]
pub struct ResultCache {
    dir: Option<PathBuf>,
    mem: Mutex<HashMap<Fingerprint, CacheEntry>>,
    bound: Option<DiskBound>,
}

/// Compaction state for a size-bounded disk store.
///
/// `tracked_bytes` is the believed total size of the `.cell` files,
/// maintained incrementally across stores (initialized by one directory
/// scan, lazily). Compaction rescans, so external deletions only make
/// the estimate conservative, never unsafe.
#[derive(Debug)]
struct DiskBound {
    max_bytes: u64,
    tracked_bytes: Mutex<Option<u64>>,
    evicted: AtomicU64,
}

impl ResultCache {
    /// A purely in-memory cache (dies with the service).
    #[must_use]
    pub fn in_memory() -> Self {
        Self {
            dir: None,
            mem: Mutex::new(HashMap::new()),
            bound: None,
        }
    }

    /// A cache rooted at `dir` (created if absent); entries survive
    /// process restarts.
    ///
    /// # Errors
    ///
    /// Propagates the error when the directory cannot be created.
    pub fn at_dir(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self {
            dir: Some(dir),
            mem: Mutex::new(HashMap::new()),
            bound: None,
        })
    }

    /// A rooted cache whose disk footprint is compacted to at most
    /// `max_bytes` of `.cell` files, evicting the **oldest entries
    /// first** (by file modification time; evicted cells are simply
    /// recomputed on their next submission).
    ///
    /// Compaction runs once at open — so a restart against a directory
    /// that outgrew the bound shrinks it immediately — and after any
    /// store that pushes the tracked total past the bound. The store
    /// that triggered a compaction is the newest file and therefore the
    /// last eviction candidate; it only goes when `max_bytes` is smaller
    /// than that single entry.
    ///
    /// # Errors
    ///
    /// Propagates the error when the directory cannot be created or the
    /// opening compaction scan fails.
    pub fn at_dir_bounded(dir: impl Into<PathBuf>, max_bytes: u64) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let cache = Self {
            dir: Some(dir),
            mem: Mutex::new(HashMap::new()),
            bound: Some(DiskBound {
                max_bytes,
                tracked_bytes: Mutex::new(None),
                evicted: AtomicU64::new(0),
            }),
        };
        cache.compact()?;
        Ok(cache)
    }

    /// Disk entries evicted by compaction over this cache's lifetime.
    #[must_use]
    pub fn evicted_entries(&self) -> u64 {
        self.bound
            .as_ref()
            .map_or(0, |b| b.evicted.load(Ordering::Relaxed))
    }

    /// The backing directory, when rooted.
    #[must_use]
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Number of entries resident in memory (disk-only entries count
    /// after their first lookup).
    #[must_use]
    pub fn resident_len(&self) -> usize {
        self.mem.lock().expect("cache mutex poisoned").len()
    }

    /// Looks up a fingerprint; `None` on miss, era mismatch, or an
    /// unparsable file.
    #[must_use]
    pub fn lookup(&self, fingerprint: Fingerprint) -> Option<CacheEntry> {
        match self.lookup_classified(fingerprint) {
            CacheLookup::Hit(entry) => Some(*entry),
            CacheLookup::Miss | CacheLookup::Invalidated => None,
        }
    }

    /// Like [`lookup`](Self::lookup), but distinguishes a plain miss
    /// (no entry) from an invalidated one (a file that exists but was
    /// refused: stale era, corruption, fingerprint mismatch).
    #[must_use]
    pub fn lookup_classified(&self, fingerprint: Fingerprint) -> CacheLookup {
        if let Some(entry) = self
            .mem
            .lock()
            .expect("cache mutex poisoned")
            .get(&fingerprint)
        {
            return CacheLookup::Hit(Box::new(entry.clone()));
        }
        let Some(dir) = self.dir.as_ref() else {
            return CacheLookup::Miss;
        };
        let Ok(text) = fs::read_to_string(entry_path(dir, fingerprint)) else {
            return CacheLookup::Miss;
        };
        let Some(entry) = parse_entry(&text).filter(|e| e.fingerprint == fingerprint) else {
            return CacheLookup::Invalidated;
        };
        self.mem
            .lock()
            .expect("cache mutex poisoned")
            .insert(fingerprint, entry.clone());
        CacheLookup::Hit(Box::new(entry))
    }

    /// Stores a completed cell, writing through to disk when rooted.
    ///
    /// # Errors
    ///
    /// Propagates the write error; the in-memory copy is kept either way.
    pub fn store(&self, entry: CacheEntry) -> io::Result<()> {
        let rendered = self
            .dir
            .as_ref()
            .map(|dir| (entry_path(dir, entry.fingerprint), render_entry(&entry)));
        self.mem
            .lock()
            .expect("cache mutex poisoned")
            .insert(entry.fingerprint, entry);
        if let Some((path, text)) = rendered {
            let written = text.len() as u64;
            write_then_rename(&path, &text)?;
            self.note_written(written)?;
        }
        Ok(())
    }

    /// Adds `written` bytes to the tracked disk total (initializing it
    /// with one directory scan on first use) and compacts if the bound
    /// is now exceeded.
    fn note_written(&self, written: u64) -> io::Result<()> {
        let (Some(dir), Some(bound)) = (self.dir.as_ref(), self.bound.as_ref()) else {
            return Ok(());
        };
        let over = {
            let mut tracked = bound.tracked_bytes.lock().expect("cache mutex poisoned");
            let total = match *tracked {
                // `store` overwrites on a repeated fingerprint, so the
                // increment over-counts re-stores; compaction rescans,
                // which only makes this estimate trigger early, never
                // miss.
                Some(total) => total + written,
                None => scan_cells(dir)?.iter().map(|c| c.bytes).sum::<u64>(),
            };
            *tracked = Some(total);
            total > bound.max_bytes
        };
        if over {
            self.compact()?;
        }
        Ok(())
    }

    /// Evicts oldest-first until the `.cell` files fit the bound; a
    /// no-op for unbounded caches.
    fn compact(&self) -> io::Result<()> {
        let (Some(dir), Some(bound)) = (self.dir.as_ref(), self.bound.as_ref()) else {
            return Ok(());
        };
        let mut cells = scan_cells(dir)?;
        let mut total: u64 = cells.iter().map(|c| c.bytes).sum();
        // Oldest first; ties (e.g. coarse mtime clocks within one sweep)
        // break by file name so eviction order is deterministic.
        cells.sort_by(|a, b| {
            a.modified
                .cmp(&b.modified)
                .then_with(|| a.path.cmp(&b.path))
        });
        let mut evicted = 0u64;
        for cell in &cells {
            if total <= bound.max_bytes {
                break;
            }
            match fs::remove_file(&cell.path) {
                Ok(()) => {}
                // Already gone (another handle compacted): nothing to do.
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
            total -= cell.bytes;
            evicted += 1;
        }
        if evicted > 0 {
            bound.evicted.fetch_add(evicted, Ordering::Relaxed);
        }
        *bound.tracked_bytes.lock().expect("cache mutex poisoned") = Some(total);
        Ok(())
    }
}

/// One `.cell` file's eviction-relevant metadata.
struct CellFile {
    path: PathBuf,
    bytes: u64,
    modified: SystemTime,
}

fn scan_cells(dir: &Path) -> io::Result<Vec<CellFile>> {
    let mut cells = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.extension().is_none_or(|ext| ext != "cell") {
            continue;
        }
        let meta = entry.metadata()?;
        if !meta.is_file() {
            continue;
        }
        cells.push(CellFile {
            path,
            bytes: meta.len(),
            modified: meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
        });
    }
    Ok(cells)
}

fn entry_path(dir: &Path, fingerprint: Fingerprint) -> PathBuf {
    dir.join(format!("{fingerprint}.cell"))
}

/// Writes `text` to a temporary sibling of `path` and renames it over
/// `path`, so readers see the old entry or the whole new one. The
/// temporary name is unique per process and store, and is not a
/// `.cell` file, so [`scan_cells`] never counts or evicts it. Nothing is
/// synced: an entry a crash loses or zeroes fails [`parse_entry`] and
/// is recomputed, which is all a cache needs.
fn write_then_rename(path: &Path, text: &str) -> io::Result<()> {
    static STORES: AtomicU64 = AtomicU64::new(0);
    let store = STORES.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("{}-{store}.tmp", std::process::id()));
    let written = fs::write(&tmp, text).and_then(|()| fs::rename(&tmp, path));
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    written
}

fn render_stats(line: &mut String, metric: Metric, stats: &RunningStats) {
    let _ = writeln!(
        line,
        "stat.{}={} {:016x} {:016x} {:016x} {:016x}",
        metric.name(),
        stats.count(),
        stats.mean().to_bits(),
        stats.m2().to_bits(),
        stats.min().to_bits(),
        stats.max().to_bits(),
    );
}

fn render_entry(entry: &CacheEntry) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{FORMAT}");
    let _ = writeln!(out, "era={ENGINE_ERA}");
    let _ = writeln!(out, "fingerprint={}", entry.fingerprint);
    let _ = writeln!(out, "label={}", entry.label);
    let _ = writeln!(out, "trials={}", entry.trials);
    for metric in Metric::ALL {
        render_stats(&mut out, metric, entry.stats.stats(metric));
    }
    out
}

fn parse_bits(field: &str) -> Option<f64> {
    u64::from_str_radix(field, 16).ok().map(f64::from_bits)
}

fn parse_stats_line(value: &str) -> Option<RunningStats> {
    let mut fields = value.split_ascii_whitespace();
    let count: u64 = fields.next()?.parse().ok()?;
    let mean = parse_bits(fields.next()?)?;
    let m2 = parse_bits(fields.next()?)?;
    let min = parse_bits(fields.next()?)?;
    let max = parse_bits(fields.next()?)?;
    if fields.next().is_some() {
        return None;
    }
    Some(RunningStats::from_raw_parts(count, mean, m2, min, max))
}

fn parse_entry(text: &str) -> Option<CacheEntry> {
    // Every line is written newline-terminated and every metric line is
    // required, so this refuses every strict prefix of a valid file.
    if !text.ends_with('\n') {
        return None;
    }
    let mut lines = text.lines();
    if lines.next()? != FORMAT {
        return None;
    }
    let mut era = None;
    let mut fingerprint = None;
    let mut label = String::new();
    let mut trials = None;
    let mut per: [Option<RunningStats>; METRIC_COUNT] = [None; METRIC_COUNT];
    for line in lines {
        let (key, value) = line.split_once('=')?;
        match key {
            "era" => era = Some(value.to_string()),
            "fingerprint" => fingerprint = value.parse::<Fingerprint>().ok(),
            "label" => label = value.to_string(),
            "trials" => trials = value.parse::<u64>().ok(),
            stat_key => {
                let name = stat_key.strip_prefix("stat.")?;
                let metric = Metric::from_name(name)?;
                per[metric as usize] = Some(parse_stats_line(value)?);
            }
        }
    }
    // The era guard: statistics from another engine era are stale.
    if era.as_deref() != Some(ENGINE_ERA) {
        return None;
    }
    let mut stats = [RunningStats::new(); METRIC_COUNT];
    for (slot, parsed) in stats.iter_mut().zip(per) {
        *slot = parsed?;
    }
    let trials = trials?;
    let stats = CellStats::from_raw(stats);
    if stats.count() != trials {
        return None;
    }
    Some(CacheEntry {
        fingerprint: fingerprint?,
        label,
        trials,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TrialMetrics;
    use rcb_sim::{HoppingSpec, StrategySpec};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rcb-sweep-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_entry() -> CacheEntry {
        sample_entry_seeded(3)
    }

    fn sample_entry_seeded(seed: u64) -> CacheEntry {
        let spec = crate::ScenarioSpec::hopping(HoppingSpec::new(16, 2_000))
            .channels(2)
            .adversary(StrategySpec::SplitUniform)
            .carol_budget(500)
            .seed(seed);
        let scenario = spec.build().unwrap();
        let mut stats = CellStats::new();
        for outcome in scenario.run_batch(5) {
            stats.push(&TrialMetrics::from_outcome(&outcome));
        }
        CacheEntry {
            fingerprint: crate::fingerprint(&spec),
            label: spec.label(),
            trials: 5,
            stats,
        }
    }

    #[test]
    fn in_memory_round_trip() {
        let cache = ResultCache::in_memory();
        let entry = sample_entry();
        assert!(cache.lookup(entry.fingerprint).is_none());
        cache.store(entry.clone()).unwrap();
        assert_eq!(cache.lookup(entry.fingerprint), Some(entry));
    }

    #[test]
    fn disk_round_trip_is_bit_exact() {
        let dir = temp_dir("roundtrip");
        let entry = sample_entry();
        {
            let cache = ResultCache::at_dir(&dir).unwrap();
            cache.store(entry.clone()).unwrap();
        }
        // A fresh cache (cold memory) must reload identical bits.
        let cache = ResultCache::at_dir(&dir).unwrap();
        assert_eq!(cache.resident_len(), 0);
        let loaded = cache.lookup(entry.fingerprint).expect("disk hit");
        assert_eq!(loaded, entry);
        for metric in Metric::ALL {
            assert_eq!(
                loaded.stats.stats(metric).mean().to_bits(),
                entry.stats.stats(metric).mean().to_bits(),
            );
            assert_eq!(
                loaded.stats.stats(metric).m2().to_bits(),
                entry.stats.stats(metric).m2().to_bits(),
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn era_mismatch_and_corruption_are_misses() {
        let dir = temp_dir("guards");
        let entry = sample_entry();
        let cache = ResultCache::at_dir(&dir).unwrap();
        cache.store(entry.clone()).unwrap();
        let path = entry_path(&dir, entry.fingerprint);

        // Stale era: rewritten tag must be refused by a cold cache —
        // and classified as an invalidation, not a plain miss.
        let stale = fs::read_to_string(&path)
            .unwrap()
            .replace(ENGINE_ERA, "era0:ancient");
        fs::write(&path, stale).unwrap();
        let cold = ResultCache::at_dir(&dir).unwrap();
        assert!(cold.lookup(entry.fingerprint).is_none());
        assert_eq!(
            cold.lookup_classified(entry.fingerprint),
            CacheLookup::Invalidated
        );

        // Corruption: truncated file is a miss, not a panic.
        fs::write(&path, "rcb-sweep-cell-v1\nera=garbage").unwrap();
        let cold = ResultCache::at_dir(&dir).unwrap();
        assert!(cold.lookup(entry.fingerprint).is_none());
        assert_eq!(
            cold.lookup_classified(entry.fingerprint),
            CacheLookup::Invalidated
        );

        // An absent fingerprint is a plain miss.
        let other = sample_entry_seeded(99).fingerprint;
        assert_eq!(cold.lookup_classified(other), CacheLookup::Miss);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn era1_disk_cache_is_invalidated_loudly_not_corrupt_read() {
        use crate::fingerprint::{fingerprint_with_era, PREVIOUS_ENGINE_ERA};

        // Simulate a cache directory left behind by an era-1 build: one
        // entry stored under the era-1 fingerprint with the era-1 body
        // tag — exactly what `ResultCache::store` wrote before the PR-7
        // era bump.
        let dir = temp_dir("era1-upgrade");
        let spec = crate::ScenarioSpec::hopping(HoppingSpec::new(16, 2_000))
            .channels(2)
            .adversary(StrategySpec::SplitUniform)
            .carol_budget(500)
            .seed(3);
        let entry = sample_entry();
        let era1_key = fingerprint_with_era(&spec, PREVIOUS_ENGINE_ERA);
        fs::create_dir_all(&dir).unwrap();
        let era1_body = render_entry(&CacheEntry {
            fingerprint: era1_key,
            ..entry.clone()
        })
        .replace(ENGINE_ERA, PREVIOUS_ENGINE_ERA);
        fs::write(entry_path(&dir, era1_key), era1_body).unwrap();

        let cache = ResultCache::at_dir(&dir).unwrap();
        // Layer 1: the era-2 key addresses a different file, so the cell
        // is recomputed rather than served from era-1 statistics.
        let era2_key = crate::fingerprint(&spec);
        assert_ne!(era2_key, era1_key);
        assert!(cache.lookup(era2_key).is_none());
        // Layer 2: even addressed directly (say, via a pinned key list
        // from an old report), the era-1 body is refused — a miss, never
        // a partial or reinterpreted read.
        assert!(cache.lookup(era1_key).is_none());
        assert_eq!(cache.resident_len(), 0, "nothing stale became resident");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_evicts_oldest_entries_to_fit_the_bound() {
        let dir = temp_dir("compaction");
        let entries: Vec<CacheEntry> = (0..4).map(sample_entry_seeded).collect();
        let cell_bytes = render_entry(&entries[0]).len() as u64;
        // Room for roughly two cells: storing four must evict the two
        // oldest from disk (the in-memory copies are untouched).
        let cache = ResultCache::at_dir_bounded(&dir, 2 * cell_bytes + cell_bytes / 2).unwrap();
        for (i, entry) in entries.iter().enumerate() {
            cache.store(entry.clone()).unwrap();
            // Distinct mtimes even on coarse filesystem clocks.
            let when = fs::FileTimes::new()
                .set_modified(SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(i as u64));
            fs::File::options()
                .append(true)
                .open(entry_path(&dir, entry.fingerprint))
                .unwrap()
                .set_times(when)
                .unwrap();
        }
        cache.compact().unwrap();
        assert_eq!(cache.evicted_entries(), 2, "two oldest cells evicted");
        assert!(!entry_path(&dir, entries[0].fingerprint).exists());
        assert!(!entry_path(&dir, entries[1].fingerprint).exists());
        assert!(entry_path(&dir, entries[2].fingerprint).exists());
        assert!(entry_path(&dir, entries[3].fingerprint).exists());
        // Memory still serves every entry this process stored...
        assert!(cache.lookup(entries[0].fingerprint).is_some());

        // ...but a restart sees only the survivors: evicted cells are
        // plain misses (recomputed on next submission), survivors load
        // bit-exactly.
        let cold = ResultCache::at_dir_bounded(&dir, 2 * cell_bytes + cell_bytes / 2).unwrap();
        assert_eq!(
            cold.lookup_classified(entries[0].fingerprint),
            CacheLookup::Miss
        );
        assert_eq!(
            cold.lookup_classified(entries[1].fingerprint),
            CacheLookup::Miss
        );
        assert_eq!(
            cold.lookup(entries[3].fingerprint),
            Some(entries[3].clone())
        );
        assert_eq!(cold.evicted_entries(), 0, "nothing left to evict at open");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn opening_a_bounded_cache_shrinks_an_overgrown_directory() {
        let dir = temp_dir("compaction-open");
        // Populate unbounded, past any bound we will set.
        {
            let unbounded = ResultCache::at_dir(&dir).unwrap();
            for seed in 0..5 {
                unbounded.store(sample_entry_seeded(seed)).unwrap();
            }
        }
        let cell_bytes = render_entry(&sample_entry()).len() as u64;
        let bounded = ResultCache::at_dir_bounded(&dir, 3 * cell_bytes).unwrap();
        assert_eq!(bounded.evicted_entries(), 2, "open-time compaction ran");
        let remaining = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x == "cell")
            })
            .count();
        assert_eq!(remaining, 3);
        // An unbounded handle over the same directory never compacts.
        let unbounded = ResultCache::at_dir(&dir).unwrap();
        unbounded.store(sample_entry_seeded(100)).unwrap();
        assert_eq!(unbounded.evicted_entries(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_entries_are_never_hits() {
        // Every strict prefix of a valid file — what a write that fails
        // partway, a crash, or a reader racing a writer can leave — must
        // be refused, never served with a cut-short statistic.
        let dir = temp_dir("torn");
        let entry = sample_entry();
        ResultCache::at_dir(&dir)
            .unwrap()
            .store(entry.clone())
            .unwrap();
        let files: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        let path = entry_path(&dir, entry.fingerprint);
        assert_eq!(
            files,
            std::slice::from_ref(&path),
            "a store leaves only its entry behind"
        );
        let text = fs::read_to_string(&path).unwrap();
        for cut in 0..text.len() {
            fs::write(&path, &text.as_bytes()[..cut]).unwrap();
            let lookup = ResultCache::at_dir(&dir)
                .unwrap()
                .lookup_classified(entry.fingerprint);
            assert!(
                !matches!(lookup, CacheLookup::Hit(_)),
                "prefix of {cut} of {} bytes served as a hit",
                text.len()
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn trials_stats_consistency_is_enforced() {
        let entry = sample_entry();
        let mut text = render_entry(&entry);
        text = text.replace("trials=5", "trials=9");
        assert!(parse_entry(&text).is_none());
    }
}
