//! Set-up: generate a corpus, build it, write it, open it — the part
//! of a run a user pays before the first query, timed step by step.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use nucdb::{
    build_sharded_root, Database, IndexVariant, LiveDatabase, LiveOptions, OnDiskStore,
    SequenceStore, ShardSet, ShardSetConfig, StoreVariant,
};
use nucdb_index::{IndexBuilder, OnDiskIndex};
use nucdb_obs::MetricsRegistry;
use nucdb_seq::random::SyntheticCollection;

use crate::inputs::{corpus, db_config, records};

/// Sizes of a run. `FULL` is what the benchmark reports; `SMOKE` only
/// proves that every metric is produced.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Corpus of `family_fine`.
    pub small_bases: usize,
    /// Corpus of the other three workloads.
    pub large_bases: usize,
    /// Records `live_mixed` bulk-loads before its mixed phase.
    pub live_bulk_records: usize,
    /// Batches of 8 the traced `live_mixed` run inserts after the bulk,
    /// with one search after each.
    pub live_trace_batches: usize,
    /// Times set-up is repeated in a timed run, on the small corpus (and
    /// for an empty live database) and on the large one; `setup_s` is
    /// the fastest. The large corpus takes seconds to build, and every
    /// repetition comes out of the time the pipeline allows a run.
    pub small_setup_reps: usize,
    pub large_setup_reps: usize,
    /// Complete rounds a measured window must hold.
    pub min_rounds: usize,
    /// Seconds of unmeasured load before the measured window: the first
    /// seconds after a build run slow while the kernel settles the
    /// memory the build freed.
    pub warmup_s: f64,
}

pub const FULL: Scale = Scale {
    small_bases: 2_000_000,
    large_bases: 8_000_000,
    live_bulk_records: 1_536,
    live_trace_batches: 256,
    small_setup_reps: 5,
    large_setup_reps: 3,
    min_rounds: 3,
    warmup_s: 1.0,
};

pub const SMOKE: Scale = Scale {
    small_bases: 1_000_000,
    large_bases: 1_000_000,
    live_bulk_records: 512,
    live_trace_batches: 32,
    small_setup_reps: 1,
    large_setup_reps: 3,
    min_rounds: 1,
    warmup_s: 0.2,
};

/// A scratch directory inside the benchmark's `out/`, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(label: &str) -> WorkDir {
        let dir = crate::out_dir().join(format!("work-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create work directory");
        WorkDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Seconds each set-up step took, and what it left on disk.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupCost {
    pub generate_s: f64,
    pub build_s: f64,
    pub write_s: f64,
    pub open_s: f64,
    pub index_bytes: u64,
    pub store_bytes: u64,
    pub records: usize,
    pub bases: u64,
}

impl SetupCost {
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.build_s + self.write_s + self.open_s
    }

    pub fn stored_bytes_per_base(&self) -> f64 {
        (self.index_bytes + self.store_bytes) as f64 / self.bases as f64
    }
}

fn since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).expect("stat built file").len()
}

fn generate(seed: u64, bases: usize, cost: &mut SetupCost) -> SyntheticCollection {
    let start = Instant::now();
    let coll = corpus(seed, bases);
    cost.generate_s = since(start);
    cost.records = coll.records.len();
    cost.bases = coll.total_bases() as u64;
    coll
}

/// Build a static database in `dir` with index and store on disk
/// (`NUCIDX04` + `NUCSTO02`, positional reads), through the same public
/// calls `Database::build` + `with_disk_index` + `with_disk_store` make,
/// taken apart so that build, write and open are timed separately.
pub fn build_static(seed: u64, bases: usize, dir: &Path) -> (Database, SetupCost) {
    std::fs::create_dir_all(dir).expect("create database directory");
    let mut cost = SetupCost::default();
    let coll = generate(seed, bases, &mut cost);
    let config = db_config();

    let start = Instant::now();
    let mut store = SequenceStore::new(config.storage);
    let mut builder = IndexBuilder::new(config.index.clone()).with_codec(config.codec);
    for record in &coll.records {
        store.add(record.id.clone(), &record.seq);
        builder.add_record(&record.seq.representative_bases());
    }
    let index = builder.finish();
    cost.build_s = since(start);

    let (index_path, store_path) = (dir.join("index.nucidx"), dir.join("store.nucsto"));
    let start = Instant::now();
    nucdb_index::write_index(&index, &index_path).expect("write index");
    store.write_to(&store_path).expect("write store");
    cost.write_s = since(start);
    drop((index, store));

    let start = Instant::now();
    let db = Database::from_variants(
        StoreVariant::Disk(OnDiskStore::open(&store_path).expect("open store")),
        IndexVariant::Disk(OnDiskIndex::open(&index_path).expect("open index")),
    );
    cost.open_s = since(start);
    cost.index_bytes = file_len(&index_path);
    cost.store_bytes = file_len(&store_path);
    (db, cost)
}

/// Build a two-shard root in `dir` and open it as a [`ShardSet`] bound
/// to a fresh registry (the one the server must be started with).
pub fn build_sharded(
    seed: u64,
    bases: usize,
    dir: &Path,
) -> (Arc<ShardSet>, Arc<MetricsRegistry>, SetupCost) {
    let mut cost = SetupCost::default();
    let coll = generate(seed, bases, &mut cost);
    // `build_sharded_root` takes the records by value; copying them out
    // of the collection is the harness's cost, counted as generation.
    let start = Instant::now();
    let recs = records(&coll);
    drop(coll);
    cost.generate_s += since(start);

    let start = Instant::now();
    build_sharded_root(dir, recs, 2, &db_config()).expect("build sharded root");
    // Shards are built and written in one call; the split is not visible.
    cost.build_s = since(start);

    let start = Instant::now();
    let registry = Arc::new(MetricsRegistry::new());
    let set = ShardSet::open_root(dir, ShardSetConfig::default(), &registry).expect("open root");
    cost.open_s = since(start);
    for shard in 0..2 {
        let shard_dir = dir.join(format!("shard-{shard:03}"));
        cost.index_bytes += file_len(&shard_dir.join("index.nucidx"));
        cost.store_bytes += file_len(&shard_dir.join("store.nucsto"));
    }
    (Arc::new(set), registry, cost)
}

/// Create an empty live database in `dir`. The harness flushes on its
/// own every [`crate::live::FLUSH_EVERY`] records — the same points an
/// auto-flush at that memtable size would pick — so that a flush is a
/// call it can time.
pub fn create_live(dir: &Path) -> LiveDatabase {
    let opts = LiveOptions {
        memtable_max_records: usize::MAX,
        ..LiveOptions::default()
    };
    LiveDatabase::create(dir, &db_config(), opts).expect("create live database")
}

/// Run `setup` `reps` times, each in its own directory, keeping only the
/// last result alive; returns it with the seconds of the fastest run.
///
/// The fastest, not the median: writing a database ends in an `fsync`,
/// and on this host the same 30 MB take 0.07 s or 2.3 s to reach the
/// disk, at random, beside 1.4 s of building. The median of three such
/// runs is mostly a draw from the disk; the fastest is what set-up
/// costs when the host stays out of the way, and it still moves with
/// every byte and instruction the program adds.
pub fn repeat<T>(reps: usize, root: &Path, mut setup: impl FnMut(&Path) -> (T, f64)) -> (T, f64) {
    let mut seconds = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps.max(1) {
        // The previous database must not live beside the next one.
        if last.take().is_some() {
            let _ = std::fs::remove_dir_all(root.join(format!("rep{}", rep - 1)));
        }
        let (value, s) = setup(&root.join(format!("rep{rep}")));
        seconds.push(s);
        last = Some(value);
    }
    eprintln!("set-up repetitions, seconds: {seconds:.3?}");
    (
        last.expect("at least one repetition"),
        seconds.into_iter().fold(f64::INFINITY, f64::min),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_reports_the_fastest_and_keeps_the_last_value() {
        let dir = WorkDir::new("repeat-test");
        let mut times = [5.0, 1.0, 3.0].into_iter();
        let mut seen = Vec::new();
        let (value, s) = repeat(3, dir.path(), |path| {
            seen.push(path.file_name().unwrap().to_string_lossy().into_owned());
            (seen.len(), times.next().unwrap())
        });
        assert_eq!((value, s), (3, 1.0));
        assert_eq!(seen, ["rep0", "rep1", "rep2"]);
    }

    #[test]
    fn work_dir_lives_under_out_and_is_removed() {
        let path = {
            let dir = WorkDir::new("drop-test");
            assert!(dir.path().starts_with(crate::out_dir()));
            assert!(dir.path().is_dir());
            dir.path().to_path_buf()
        };
        assert!(!path.exists());
    }
}
