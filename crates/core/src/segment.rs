//! Live ingestion: the segmented, LSM-style database.
//!
//! The paper's index is built once and searched forever. This module
//! turns [`Database`] into an engine over an *ordered set of segments*
//! so records can be inserted while queries run:
//!
//! * [`SegmentedIndex`] / [`SegmentedStore`] — read-side composites
//!   implementing the same [`PostingsSource`] / [`RecordSource`] traits
//!   as a monolithic index/store. Each part covers a contiguous range of
//!   global record ids; postings are visited part by part in ascending
//!   base order with record ids remapped at the boundary, so the visit
//!   sequence — and therefore every coarse score, candidate cut, and
//!   final ranking — is bit-identical to a joint single-index build.
//! * [`LiveDatabase`] — the writer: an in-memory write buffer (memtable)
//!   of index+store runs, flushed to immutable on-disk segments
//!   (`NUCIDX03/04` + `NUCSTO02`, both written atomically) tracked by the
//!   crash-safe [`Manifest`]. Queries go through an epoch-swapped
//!   [`Database`] snapshot that is rebuilt after every mutation; readers
//!   holding an old snapshot keep their segment files alive through
//!   `Arc`s and are never torn.
//! * Size-tiered compaction ([`LiveDatabase::compact_once`]) — merges
//!   adjacent similar-sized segments with
//!   [`merge_indexes`] as the kernel,
//!   deleting superseded files only after the new manifest is durable.
//!   Merging only ever touches *adjacent* segments, so global record ids
//!   (positional) never change.
//!
//! Crash safety is inherited from two primitives: every file is written
//! via `AtomicFile` (temp + fsync + rename), and the manifest names
//! exactly the segment files that are live. Kill -9 at any point leaves
//! either the old manifest (old files still present) or the new one;
//! unreferenced files are orphans that [`LiveDatabase::open`] deletes.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use nucdb_index::manifest::{segment_index_file, segment_store_file, Manifest, SegmentMeta};
use nucdb_index::{
    load_index, merge_indexes, write_index, CompressedIndex, FetchStats, IndexBuilder, IndexError,
    IndexParams, OffsetSection, PostingsVisitor, BLOCK_LEN,
};
use nucdb_obs::{Counter, Forensics, Gauge, MetricsRegistry};
use nucdb_seq::{Base, DnaSeq, SeqError};

use crate::coarse::PostingsSource;
use crate::collection::{has_live_manifest, Shape};
use crate::engine::{io_err, Database, DbConfig, IndexVariant};
use crate::explain::SegmentExplain;
use crate::store::{RecordSource, SequenceStore, StorageMode, StoreVariant};

// ---------------------------------------------------------------------------
// Read side: segmented index and store
// ---------------------------------------------------------------------------

struct IndexPart {
    /// First global record id this part covers.
    base: u32,
    /// Human-readable name for explain plans (`seg-000003`, `memtable`).
    label: String,
    /// A memtable run or an immutable segment, shared via `Arc` so an
    /// old query snapshot and the current one can reference the same
    /// bytes.
    inner: Arc<CompressedIndex>,
}

/// A [`PostingsSource`] over an ordered set of index parts with disjoint,
/// contiguous record-id ranges. Postings of a code are visited part by
/// part in ascending base order with each part's record ids shifted by
/// its base — exactly the sequence a joint single-index build would
/// produce, so coarse search over a segmented index is bit-identical to
/// coarse search over the merged index.
pub struct SegmentedIndex {
    parts: Vec<IndexPart>,
    /// Concatenated per-record lengths across all parts.
    record_lens: Vec<u32>,
    params: IndexParams,
}

impl SegmentedIndex {
    /// Compose parts (in global record-id order) into one index view. All
    /// parts must agree on interval parameters and be unstopped (live
    /// directories never use stopping; a stopped segment would break
    /// merge identity).
    pub fn new(parts: Vec<(String, Arc<CompressedIndex>)>) -> Result<SegmentedIndex, IndexError> {
        let Some((_, first)) = parts.first() else {
            return Err(IndexError::Unsupported(
                "a segmented index needs at least one part",
            ));
        };
        let params = first.params().clone();
        if params.stopping.is_some() {
            return Err(IndexError::Unsupported(
                "segmented indexes must be unstopped",
            ));
        }
        let mut record_lens = Vec::new();
        let mut assembled = Vec::with_capacity(parts.len());
        let mut base = 0u64;
        for (label, part) in parts {
            let p = part.params();
            if p.k != params.k || p.stride != params.stride || p.stopping.is_some() {
                return Err(IndexError::Unsupported(
                    "segment parts disagree on index parameters",
                ));
            }
            record_lens.extend_from_slice(part.record_lens());
            assembled.push(IndexPart {
                base: u32::try_from(base)
                    .map_err(|_| IndexError::OutOfRange("segmented index exceeds u32 records"))?,
                label,
                inner: part,
            });
            base += u64::from(assembled.last().unwrap().inner.num_records());
        }
        if base > u64::from(u32::MAX) {
            return Err(IndexError::OutOfRange(
                "segmented index exceeds u32 records",
            ));
        }
        Ok(SegmentedIndex {
            parts: assembled,
            record_lens,
            params,
        })
    }

    /// Number of parts.
    pub fn num_parts(&self) -> usize {
        self.parts.len()
    }

    /// Explain-plan rows: one per part, in record-id order.
    pub fn explain_rows(&self) -> Vec<SegmentExplain> {
        self.parts
            .iter()
            .map(|p| SegmentExplain {
                label: p.label.clone(),
                base: p.base,
                records: p.inner.num_records(),
            })
            .collect()
    }

    /// Run one per-list `fetch` on every part in ascending base order,
    /// each part's record ids shifted to global ones, and sum the parts'
    /// stats (`None` when no part holds the list).
    fn fetch_parts(
        &self,
        visitor: &mut dyn PostingsVisitor,
        mut fetch: impl FnMut(
            &dyn PostingsSource,
            &mut dyn PostingsVisitor,
        ) -> Result<Option<FetchStats>, IndexError>,
    ) -> Result<Option<FetchStats>, IndexError> {
        let mut total: Option<FetchStats> = None;
        for part in &self.parts {
            let mut shifted = ShiftVisitor {
                base: part.base,
                inner: visitor,
            };
            if let Some(stats) = fetch(part.inner.as_ref(), &mut shifted)? {
                total = Some(merge_stats(total, stats));
            }
        }
        Ok(total)
    }
}

/// Visitor adapter shifting a part's local record ids to global ids
/// before forwarding, including the block-skip consultation — the skip
/// decision is made by the real visitor on global ids, so it is exactly
/// the decision it would make on the joint index. Whole blocks are
/// forwarded whole, with their offset sections untouched.
struct ShiftVisitor<'a> {
    base: u32,
    inner: &'a mut dyn PostingsVisitor,
}

impl PostingsVisitor for ShiftVisitor<'_> {
    fn visit(&mut self, record: u32, value: u32) {
        self.inner.visit(record + self.base, value);
    }

    fn skip_block(&mut self, lo: u32, hi: u32) -> bool {
        self.inner.skip_block(lo + self.base, hi + self.base)
    }

    fn visit_block(&mut self, records: &[u32], counts: &[u32], offsets: OffsetSection) {
        let mut shifted = [0u32; BLOCK_LEN];
        let shifted = &mut shifted[..records.len()];
        for (global, &local) in shifted.iter_mut().zip(records) {
            *global = local + self.base;
        }
        self.inner.visit_block(shifted, counts, offsets);
    }
}

impl PostingsSource for SegmentedIndex {
    fn num_records(&self) -> u32 {
        self.record_lens.len() as u32
    }

    fn record_lens(&self) -> &[u32] {
        &self.record_lens
    }

    fn index_params(&self) -> &IndexParams {
        &self.params
    }

    fn fetch_stream(
        &self,
        code: u64,
        io_buf: &mut Vec<u8>,
        visitor: &mut dyn PostingsVisitor,
    ) -> Result<Option<FetchStats>, IndexError> {
        self.fetch_parts(visitor, |part, shifted| {
            part.fetch_stream(code, io_buf, shifted)
        })
    }

    fn fetch_append(
        &self,
        code: u64,
        kept: &mut Vec<u8>,
        visitor: &mut dyn PostingsVisitor,
    ) -> Result<Option<FetchStats>, IndexError> {
        self.fetch_parts(visitor, |part, shifted| {
            part.fetch_append(code, kept, shifted)
        })
    }
}

fn merge_stats(total: Option<FetchStats>, part: FetchStats) -> FetchStats {
    let mut acc = total.unwrap_or_default();
    acc.df += part.df;
    acc.bytes_read += part.bytes_read;
    acc.ids_decoded += part.ids_decoded;
    acc.blocks_decoded += part.blocks_decoded;
    acc.blocks_skipped += part.blocks_skipped;
    acc
}

struct StorePart {
    base: u32,
    inner: Arc<SequenceStore>,
}

/// A [`RecordSource`] over an ordered set of store parts with
/// contiguous record-id ranges; lookups binary-search the part bases.
pub struct SegmentedStore {
    parts: Vec<StorePart>,
    total: usize,
}

impl SegmentedStore {
    /// Compose parts in global record-id order.
    pub fn new(parts: Vec<Arc<SequenceStore>>) -> SegmentedStore {
        let mut assembled = Vec::with_capacity(parts.len());
        let mut base = 0usize;
        for part in parts {
            let len = part.len();
            assembled.push(StorePart {
                base: base as u32,
                inner: part,
            });
            base += len;
        }
        SegmentedStore {
            parts: assembled,
            total: base,
        }
    }

    /// Bytes the stored sequence payloads occupy across parts.
    pub fn stored_bytes(&self) -> usize {
        self.parts.iter().map(|p| p.inner.stored_bytes()).sum()
    }

    fn locate(&self, record: u32) -> (&dyn RecordSource, u32) {
        let idx = self
            .parts
            .partition_point(|p| p.base <= record)
            .checked_sub(1)
            .expect("record id below first part base");
        let part = &self.parts[idx];
        (part.inner.as_ref(), record - part.base)
    }
}

impl RecordSource for SegmentedStore {
    fn len(&self) -> usize {
        self.total
    }

    fn id(&self, record: u32) -> &str {
        let (part, local) = self.locate(record);
        part.id(local)
    }

    fn record_len(&self, record: u32) -> usize {
        let (part, local) = self.locate(record);
        part.record_len(local)
    }

    fn bases(&self, record: u32) -> Vec<Base> {
        let (part, local) = self.locate(record);
        part.bases(local)
    }

    fn try_bases(&self, record: u32) -> Result<Vec<Base>, SeqError> {
        let (part, local) = self.locate(record);
        part.try_bases(local)
    }

    fn sequence(&self, record: u32) -> Result<DnaSeq, SeqError> {
        let (part, local) = self.locate(record);
        part.sequence(local)
    }

    fn total_bases(&self) -> usize {
        self.parts.iter().map(|p| p.inner.total_bases()).sum()
    }
}

// ---------------------------------------------------------------------------
// Write side: the live database
// ---------------------------------------------------------------------------

/// Map a [`StorageMode`] to the opaque byte the manifest carries.
pub(crate) fn storage_tag(mode: StorageMode) -> u8 {
    match mode {
        StorageMode::Ascii => 0,
        StorageMode::DirectCoding => 1,
    }
}

/// Inverse of [`storage_tag`].
pub(crate) fn storage_from_tag(tag: u8) -> Result<StorageMode, IndexError> {
    match tag {
        0 => Ok(StorageMode::Ascii),
        1 => Ok(StorageMode::DirectCoding),
        _ => Err(IndexError::bad_in("unknown storage mode tag", "manifest")),
    }
}

/// Observability and tuning knobs for a [`LiveDatabase`]. Handles are
/// fixed at construction (segments bind their I/O counters as they are
/// opened), matching the engine's configure-then-share pattern.
#[derive(Clone)]
pub struct LiveOptions {
    /// Auto-flush the memtable once it holds this many records.
    pub memtable_max_records: usize,
    /// Soft cap on on-disk segments: above it, compaction merges the
    /// smallest adjacent pair even when no similar-sized pair exists.
    pub max_segments: usize,
    /// Metric registry for engine + segment + live-ingestion metrics.
    pub registry: Arc<MetricsRegistry>,
    /// Query capture handle bound to every query snapshot.
    pub forensics: Forensics,
}

impl Default for LiveOptions {
    fn default() -> LiveOptions {
        LiveOptions {
            memtable_max_records: 1024,
            max_segments: 8,
            registry: Arc::new(MetricsRegistry::disabled()),
            forensics: Forensics::disabled(),
        }
    }
}

/// Result of one insert call.
#[derive(Debug, Clone, Copy)]
pub struct InsertOutcome {
    /// Records added by this call.
    pub inserted: usize,
    /// Records in the memtable after the call (0 if it flushed).
    pub memtable_records: u32,
    /// Did the call trigger an auto-flush?
    pub flushed: bool,
}

/// Work accounting for one completed compaction run.
#[derive(Debug, Clone)]
pub struct CompactionRun {
    /// Ids of the segments that were merged away.
    pub inputs: Vec<u64>,
    /// Combined on-disk bytes of the inputs.
    pub input_bytes: u64,
    /// On-disk bytes of the merged output segment.
    pub output_bytes: u64,
    /// Wall time of the merge (including file writes).
    pub nanos: u64,
}

/// Point-in-time description of a live directory (for `/stats` and
/// `nucdb stat`).
#[derive(Debug, Clone)]
pub struct LiveStatus {
    /// Current manifest version.
    pub manifest_version: u64,
    /// On-disk segments, in record-id order.
    pub segments: Vec<SegmentMeta>,
    /// Records buffered in the memtable.
    pub memtable_records: u32,
    /// Memtable runs (merged opportunistically, binary-counter style).
    pub memtable_runs: usize,
    /// Flushes since open.
    pub flushes: u64,
    /// Compaction runs since open.
    pub compaction_runs: u64,
    /// Input bytes compaction has read since open.
    pub compaction_bytes: u64,
    /// Wall time compaction has spent since open, in nanoseconds.
    pub compaction_nanos: u64,
    /// Orphaned files removed when the directory was opened.
    pub orphans_removed: u64,
}

/// Prometheus handles for the live-ingestion metric family.
struct LiveMetrics {
    segment_count: Gauge,
    memtable_records: Gauge,
    flush_total: Counter,
    compaction_runs: Counter,
    compaction_bytes: Counter,
    /// Whole seconds only (the registry has no float counters); the
    /// sub-second remainder is carried in `LiveInner::seconds_carry_ns`
    /// and added once it crosses a second boundary. Precise nanos are in
    /// [`LiveStatus::compaction_nanos`].
    compaction_seconds: Counter,
}

impl LiveMetrics {
    fn new(registry: &MetricsRegistry) -> LiveMetrics {
        LiveMetrics {
            segment_count: registry
                .gauge("nucdb_segment_count", "On-disk segments in the manifest"),
            memtable_records: registry.gauge(
                "nucdb_memtable_records",
                "Records buffered in the in-memory write buffer",
            ),
            flush_total: registry.counter(
                "nucdb_flush_total",
                "Memtable flushes to an on-disk segment",
            ),
            compaction_runs: registry.counter(
                "nucdb_compaction_runs_total",
                "Completed background compaction merges",
            ),
            compaction_bytes: registry.counter(
                "nucdb_compaction_bytes_total",
                "Segment bytes read as compaction input",
            ),
            compaction_seconds: registry.counter(
                "nucdb_compaction_seconds_total",
                "Wall-clock seconds spent compacting (whole seconds)",
            ),
        }
    }
}

/// One memtable run: an in-memory store + index over a batch of recently
/// inserted records. Runs merge binary-counter style so their number
/// stays logarithmic in the memtable size.
struct MemRun {
    store: Arc<SequenceStore>,
    index: Arc<CompressedIndex>,
}

impl MemRun {
    fn records(&self) -> u32 {
        self.index.num_records()
    }
}

/// One open on-disk segment.
struct DiskSegment {
    meta: SegmentMeta,
    index: Arc<CompressedIndex>,
    store: Arc<SequenceStore>,
}

struct LiveInner {
    manifest: Manifest,
    segments: Vec<DiskSegment>,
    runs: Vec<MemRun>,
    /// Next segment id to allocate; seeded past the manifest's max and
    /// bumped on every reservation so a flush racing a compaction can
    /// never collide on a file name.
    next_id: u64,
    /// Serializes compactions (at most one in flight).
    compacting: bool,
    flushes: u64,
    compaction_runs: u64,
    compaction_bytes: u64,
    compaction_nanos: u64,
    seconds_carry_ns: u64,
    orphans_removed: u64,
}

impl LiveInner {
    fn memtable_records(&self) -> u32 {
        self.runs.iter().map(MemRun::records).sum()
    }
}

/// A database that accepts inserts while serving queries.
///
/// Writers (insert / flush / compaction) serialize on an internal lock;
/// readers never take it — they clone the current [`Database`] snapshot
/// via [`LiveDatabase::snapshot`] and search it lock-free. Every
/// mutation rebuilds the snapshot; old snapshots stay valid (their
/// segment parts are `Arc`-shared) until the last reader drops them.
pub struct LiveDatabase {
    dir: PathBuf,
    config: DbConfig,
    opts: LiveOptions,
    metrics: LiveMetrics,
    inner: Mutex<LiveInner>,
    view: RwLock<Arc<Database>>,
}

impl LiveDatabase {
    /// Create a new live directory at `dir` (the directory is created if
    /// absent; it must not already hold a manifest, nor be a sharded
    /// root). Stopping is rejected: stopped indexes cannot be merged,
    /// so they cannot be flushed or compacted.
    pub fn create(
        dir: &Path,
        config: &DbConfig,
        opts: LiveOptions,
    ) -> Result<LiveDatabase, IndexError> {
        if config.index.stopping.is_some() {
            return Err(IndexError::Unsupported(
                "live databases must be unstopped (stopped indexes cannot be merged)",
            ));
        }
        std::fs::create_dir_all(dir)?;
        if has_live_manifest(dir) {
            return Err(IndexError::Io(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                format!("{} already holds a manifest", dir.display()),
            )));
        }
        if Shape::of(dir) == Shape::Sharded {
            return Err(IndexError::Unsupported(
                "a sharded root cannot be made live",
            ));
        }
        let manifest = Manifest::new(
            config.index.k,
            config.index.stride,
            config.codec,
            storage_tag(config.storage),
        );
        manifest.save(dir)?;
        LiveDatabase::assemble(dir, config.clone(), manifest, opts, 0)
    }

    /// Open an existing live directory: load and verify the manifest,
    /// delete orphaned segment files and stale temps (debris from an
    /// interrupted flush or compaction), and open every referenced
    /// segment. The configuration is recovered from the manifest itself.
    pub fn open(dir: &Path, opts: LiveOptions) -> Result<LiveDatabase, IndexError> {
        let manifest = Manifest::load(dir)?;
        let config = DbConfig {
            index: IndexParams {
                k: manifest.k,
                stride: manifest.stride,
                stopping: None,
            },
            codec: manifest.codec,
            storage: storage_from_tag(manifest.storage)?,
        };
        let mut removed = 0u64;
        for orphan in manifest.orphans_in(dir)? {
            if std::fs::remove_file(dir.join(&orphan)).is_ok() {
                removed += 1;
            }
        }
        LiveDatabase::assemble(dir, config, manifest, opts, removed)
    }

    /// Open a live directory as a plain read-only [`Database`] over its
    /// committed segments — no memtable, no mutation, no orphan
    /// cleanup. Offline tools (`nucdb search`, `bench`, examples) use
    /// this to query exactly the view a restarted server would serve.
    /// Segment I/O counters are bound to `registry` at open time.
    pub fn open_readonly(dir: &Path, registry: &MetricsRegistry) -> Result<Database, IndexError> {
        let manifest = Manifest::load(dir)?;
        let config = DbConfig {
            index: IndexParams {
                k: manifest.k,
                stride: manifest.stride,
                stopping: None,
            },
            codec: manifest.codec,
            storage: storage_from_tag(manifest.storage)?,
        };
        if manifest.segments.is_empty() {
            return Ok(Database::build(std::iter::empty(), &config));
        }
        let mut index_parts = Vec::with_capacity(manifest.segments.len());
        let mut store_parts = Vec::with_capacity(manifest.segments.len());
        for meta in &manifest.segments {
            let seg = open_segment(dir, meta, registry)?;
            index_parts.push((format!("seg-{:06}", meta.id), seg.index));
            store_parts.push(seg.store);
        }
        let mut db = Database::from_variants(
            StoreVariant::Segmented(SegmentedStore::new(store_parts)),
            IndexVariant::Segmented(SegmentedIndex::new(index_parts)?),
        );
        db.bind_metrics(registry);
        Ok(db)
    }

    /// [`LiveDatabase::open`] if `dir` holds a manifest, else
    /// [`LiveDatabase::create`].
    pub fn open_or_create(
        dir: &Path,
        config: &DbConfig,
        opts: LiveOptions,
    ) -> Result<LiveDatabase, IndexError> {
        if has_live_manifest(dir) {
            LiveDatabase::open(dir, opts)
        } else {
            LiveDatabase::create(dir, config, opts)
        }
    }

    fn assemble(
        dir: &Path,
        config: DbConfig,
        manifest: Manifest,
        opts: LiveOptions,
        orphans_removed: u64,
    ) -> Result<LiveDatabase, IndexError> {
        let mut segments = Vec::with_capacity(manifest.segments.len());
        for meta in &manifest.segments {
            segments.push(open_segment(dir, meta, &opts.registry)?);
        }
        let next_id = manifest.next_segment_id();
        let metrics = LiveMetrics::new(&opts.registry);
        let inner = LiveInner {
            manifest,
            segments,
            runs: Vec::new(),
            next_id,
            compacting: false,
            flushes: 0,
            compaction_runs: 0,
            compaction_bytes: 0,
            compaction_nanos: 0,
            seconds_carry_ns: 0,
            orphans_removed,
        };
        let live = LiveDatabase {
            dir: dir.to_path_buf(),
            config,
            opts,
            metrics,
            inner: Mutex::new(inner),
            view: RwLock::new(Arc::new(Database::build(
                std::iter::empty(),
                &DbConfig::default(),
            ))),
        };
        {
            let inner = live.lock_inner();
            live.rebuild_view(&inner)?;
        }
        Ok(live)
    }

    fn lock_inner(&self) -> std::sync::MutexGuard<'_, LiveInner> {
        self.inner.lock().expect("live database lock poisoned")
    }

    /// The directory this database lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The build configuration (recovered from the manifest on open).
    pub fn config(&self) -> &DbConfig {
        &self.config
    }

    /// The current query snapshot. Cheap (one `RwLock` read + `Arc`
    /// clone); the snapshot stays consistent for as long as the caller
    /// holds it, regardless of concurrent inserts or compactions.
    pub fn snapshot(&self) -> Arc<Database> {
        self.view.read().expect("live view lock poisoned").clone()
    }

    /// Point-in-time status for `/stats` and `nucdb stat`.
    pub fn status(&self) -> LiveStatus {
        let inner = self.lock_inner();
        LiveStatus {
            manifest_version: inner.manifest.version,
            segments: inner.manifest.segments.clone(),
            memtable_records: inner.memtable_records(),
            memtable_runs: inner.runs.len(),
            flushes: inner.flushes,
            compaction_runs: inner.compaction_runs,
            compaction_bytes: inner.compaction_bytes,
            compaction_nanos: inner.compaction_nanos,
            orphans_removed: inner.orphans_removed,
        }
    }

    /// Insert one record. See [`LiveDatabase::insert_batch`].
    pub fn insert(&self, id: String, seq: &DnaSeq) -> Result<InsertOutcome, IndexError> {
        self.insert_batch(vec![(id, seq.clone())])
    }

    /// Insert a batch of records into the memtable. The records are
    /// searchable as soon as the call returns (the query snapshot is
    /// rebuilt); they become durable at the next flush. Auto-flushes
    /// when the memtable reaches the configured size.
    pub fn insert_batch(
        &self,
        records: Vec<(String, DnaSeq)>,
    ) -> Result<InsertOutcome, IndexError> {
        let mut inner = self.lock_inner();
        if records.is_empty() {
            return Ok(InsertOutcome {
                inserted: 0,
                memtable_records: inner.memtable_records(),
                flushed: false,
            });
        }
        let total = inner.manifest.total_records()
            + u64::from(inner.memtable_records())
            + records.len() as u64;
        if total > u64::from(u32::MAX) {
            return Err(IndexError::OutOfRange("database exceeds u32 records"));
        }

        let inserted = records.len();
        let mut store = SequenceStore::new(self.config.storage);
        let mut builder =
            IndexBuilder::new(self.config.index.clone()).with_codec(self.config.codec);
        for (id, seq) in records {
            builder.add_record(&seq.representative_bases());
            store.add(id, &seq);
        }
        inner.runs.push(MemRun {
            store: Arc::new(store),
            index: Arc::new(builder.finish()),
        });
        // Binary-counter merging: collapse the tail while the newest run
        // is at least as large as its predecessor, so run count stays
        // logarithmic and every record is merged O(log n) times.
        while inner.runs.len() >= 2 {
            let n = inner.runs.len();
            if inner.runs[n - 2].records() > inner.runs[n - 1].records() {
                break;
            }
            let b = inner.runs.pop().unwrap();
            let a = inner.runs.pop().unwrap();
            inner.runs.push(self.merge_runs(&a, &b)?);
        }

        let mut flushed = false;
        if inner.memtable_records() as usize >= self.opts.memtable_max_records {
            flushed = self.flush_locked(&mut inner)?;
        }
        self.rebuild_view(&inner)?;
        Ok(InsertOutcome {
            inserted,
            memtable_records: inner.memtable_records(),
            flushed,
        })
    }

    /// Merge two adjacent memtable runs (`b` follows `a`).
    fn merge_runs(&self, a: &MemRun, b: &MemRun) -> Result<MemRun, IndexError> {
        let mut store = SequenceStore::new(self.config.storage);
        store.extend_from_store(&a.store).map_err(io_err)?;
        store.extend_from_store(&b.store).map_err(io_err)?;
        let index = merge_indexes(&a.index, &b.index)?;
        Ok(MemRun {
            store: Arc::new(store),
            index: Arc::new(index),
        })
    }

    /// Flush the memtable to a new immutable on-disk segment and swap in
    /// a manifest naming it. No-op (returns `false`) when the memtable
    /// is empty.
    pub fn flush(&self) -> Result<bool, IndexError> {
        let mut inner = self.lock_inner();
        let flushed = self.flush_locked(&mut inner)?;
        if flushed {
            self.rebuild_view(&inner)?;
        }
        Ok(flushed)
    }

    fn flush_locked(&self, inner: &mut LiveInner) -> Result<bool, IndexError> {
        if inner.runs.is_empty() {
            return Ok(false);
        }
        // Collapse the memtable to a single run.
        while inner.runs.len() >= 2 {
            let b = inner.runs.pop().unwrap();
            let a = inner.runs.pop().unwrap();
            inner.runs.push(self.merge_runs(&a, &b)?);
        }
        let run = inner.runs.last().unwrap();

        let id = inner.next_id;
        let index_path = self.dir.join(segment_index_file(id));
        let store_path = self.dir.join(segment_store_file(id));
        write_index(&run.index, &index_path)?;
        run.store.write_to(&store_path).map_err(io_err)?;
        let meta = SegmentMeta {
            id,
            records: run.records(),
            index_bytes: std::fs::metadata(&index_path)?.len(),
            store_bytes: std::fs::metadata(&store_path)?.len(),
        };
        let segment = open_segment(&self.dir, &meta, &self.opts.registry)?;

        inner.manifest.segments.push(meta);
        inner.manifest.version += 1;
        if let Err(e) = inner.manifest.save(&self.dir) {
            // The manifest on disk is unchanged; put memory back in sync
            // and leave the segment files as orphans for open() to sweep.
            inner.manifest.segments.pop();
            inner.manifest.version -= 1;
            return Err(e);
        }
        // The new manifest is durable: commit the in-memory state.
        inner.next_id = id + 1;
        inner.segments.push(segment);
        inner.runs.clear();
        inner.flushes += 1;
        self.metrics.flush_total.inc();
        Ok(true)
    }

    /// Run one size-tiered compaction step if the policy finds a
    /// candidate pair: merge two adjacent segments into one (via
    /// `merge_indexes`), swap in a manifest naming the replacement, and
    /// delete the superseded files. The expensive merge runs *outside*
    /// the writer lock, so inserts and flushes proceed concurrently.
    /// Returns `None` when there is nothing to compact (or another
    /// compaction is in flight).
    pub fn compact_once(&self) -> Result<Option<CompactionRun>, IndexError> {
        let (pos, a, b, new_id) = {
            let mut inner = self.lock_inner();
            if inner.compacting {
                return Ok(None);
            }
            let Some(pos) = compaction_candidate(&inner.manifest.segments, self.opts.max_segments)
            else {
                return Ok(None);
            };
            inner.compacting = true;
            let new_id = inner.next_id;
            inner.next_id += 1;
            (
                pos,
                inner.manifest.segments[pos].clone(),
                inner.manifest.segments[pos + 1].clone(),
                new_id,
            )
        };
        let result = self.compact_pair(pos, &a, &b, new_id);
        self.lock_inner().compacting = false;
        result
    }

    fn compact_pair(
        &self,
        pos: usize,
        a: &SegmentMeta,
        b: &SegmentMeta,
        new_id: u64,
    ) -> Result<Option<CompactionRun>, IndexError> {
        let started = Instant::now();

        // Merge outside the lock: load both segments fully, merge, write
        // the replacement files (atomically, under the reserved id).
        let store_a = SequenceStore::read_from(&self.dir.join(a.store_file())).map_err(io_err)?;
        let store_b = SequenceStore::read_from(&self.dir.join(b.store_file())).map_err(io_err)?;
        let mut merged_store = SequenceStore::new(self.config.storage);
        merged_store.extend_from_store(&store_a).map_err(io_err)?;
        merged_store.extend_from_store(&store_b).map_err(io_err)?;
        let index_a = load_index(&self.dir.join(a.index_file()))?;
        let index_b = load_index(&self.dir.join(b.index_file()))?;
        let merged_index = merge_indexes(&index_a, &index_b)?;

        let index_path = self.dir.join(segment_index_file(new_id));
        let store_path = self.dir.join(segment_store_file(new_id));
        write_index(&merged_index, &index_path)?;
        merged_store.write_to(&store_path).map_err(io_err)?;
        let meta = SegmentMeta {
            id: new_id,
            records: merged_index.num_records(),
            index_bytes: std::fs::metadata(&index_path)?.len(),
            store_bytes: std::fs::metadata(&store_path)?.len(),
        };
        let segment = open_segment(&self.dir, &meta, &self.opts.registry)?;
        let input_bytes = a.bytes() + b.bytes();

        // Swap: replace the pair at its list position. Flushes only
        // append and compactions are serialized, so the pair is still
        // where we left it — verified defensively anyway.
        let mut inner = self.lock_inner();
        let pair_intact = inner.manifest.segments.get(pos).map(|s| s.id) == Some(a.id)
            && inner.manifest.segments.get(pos + 1).map(|s| s.id) == Some(b.id);
        if !pair_intact {
            drop(inner);
            let _ = std::fs::remove_file(&index_path);
            let _ = std::fs::remove_file(&store_path);
            return Ok(None);
        }
        let replaced: Vec<SegmentMeta> = inner
            .manifest
            .segments
            .splice(pos..=pos + 1, [meta.clone()])
            .collect();
        inner.manifest.version += 1;
        if let Err(e) = inner.manifest.save(&self.dir) {
            inner
                .manifest
                .segments
                .splice(pos..=pos, replaced)
                .for_each(drop);
            inner.manifest.version -= 1;
            drop(inner);
            let _ = std::fs::remove_file(&index_path);
            let _ = std::fs::remove_file(&store_path);
            return Err(e);
        }
        inner
            .segments
            .splice(pos..=pos + 1, [segment])
            .for_each(drop);
        // Only now — with the new manifest durable — delete the
        // superseded files.
        for name in [
            a.index_file(),
            a.store_file(),
            b.index_file(),
            b.store_file(),
        ] {
            let _ = std::fs::remove_file(self.dir.join(name));
        }

        let nanos = started.elapsed().as_nanos() as u64;
        inner.compaction_runs += 1;
        inner.compaction_bytes += input_bytes;
        inner.compaction_nanos += nanos;
        self.metrics.compaction_runs.inc();
        self.metrics.compaction_bytes.add(input_bytes);
        inner.seconds_carry_ns += nanos;
        let whole = inner.seconds_carry_ns / 1_000_000_000;
        if whole > 0 {
            self.metrics.compaction_seconds.add(whole);
            inner.seconds_carry_ns %= 1_000_000_000;
        }
        self.rebuild_view(&inner)?;
        Ok(Some(CompactionRun {
            inputs: vec![a.id, b.id],
            input_bytes,
            output_bytes: meta.bytes(),
            nanos,
        }))
    }

    /// Compact until the policy finds no further candidate. Returns the
    /// completed runs (possibly empty).
    pub fn compact_all(&self) -> Result<Vec<CompactionRun>, IndexError> {
        let mut runs = Vec::new();
        while let Some(run) = self.compact_once()? {
            runs.push(run);
        }
        Ok(runs)
    }

    /// Rebuild the query snapshot from the current segments + memtable
    /// and publish it. Readers holding the old snapshot are unaffected.
    fn rebuild_view(&self, inner: &LiveInner) -> Result<(), IndexError> {
        let mut db = if inner.segments.is_empty() && inner.runs.is_empty() {
            // Empty database: a plain empty memory build with the right
            // parameters (a segmented view needs at least one part).
            Database::build(std::iter::empty(), &self.config)
        } else {
            let mut index_parts = Vec::new();
            let mut store_parts = Vec::new();
            for seg in &inner.segments {
                index_parts.push((format!("seg-{:06}", seg.meta.id), seg.index.clone()));
                store_parts.push(seg.store.clone());
            }
            for run in &inner.runs {
                index_parts.push(("memtable".to_string(), run.index.clone()));
                store_parts.push(run.store.clone());
            }
            Database::from_variants(
                StoreVariant::Segmented(SegmentedStore::new(store_parts)),
                IndexVariant::Segmented(SegmentedIndex::new(index_parts)?),
            )
        };
        db.bind_metrics(&self.opts.registry);
        db.set_forensics(self.opts.forensics.clone());
        *self.view.write().expect("live view lock poisoned") = Arc::new(db);
        self.metrics.segment_count.set(inner.segments.len() as i64);
        self.metrics
            .memtable_records
            .set(i64::from(inner.memtable_records()));
        Ok(())
    }
}

fn open_segment(
    dir: &Path,
    meta: &SegmentMeta,
    registry: &MetricsRegistry,
) -> Result<DiskSegment, IndexError> {
    let mut index = CompressedIndex::open(&dir.join(meta.index_file()))?;
    index.bind_metrics(registry);
    let mut store = SequenceStore::open(&dir.join(meta.store_file())).map_err(io_err)?;
    store.bind_metrics(registry);
    Ok(DiskSegment {
        meta: meta.clone(),
        index: Arc::new(index),
        store: Arc::new(store),
    })
}

/// Size-tiered compaction policy over adjacent segments. Prefers the
/// smallest adjacent pair of *similar* size (within `TIER_FACTOR`), so a
/// large settled segment is not rewritten every time a small flush lands
/// next to it. When the segment count exceeds `max_segments`, falls back
/// to the smallest adjacent pair regardless of tier, bounding segment
/// count (and so per-query fan-out) even for adversarial size patterns.
fn compaction_candidate(segments: &[SegmentMeta], max_segments: usize) -> Option<usize> {
    const TIER_FACTOR: u64 = 4;
    if segments.len() < 2 {
        return None;
    }
    let pair_bytes = |i: usize| segments[i].bytes().max(1) + segments[i + 1].bytes().max(1);
    let tiered = (0..segments.len() - 1)
        .filter(|&i| {
            let a = segments[i].bytes().max(1);
            let b = segments[i + 1].bytes().max(1);
            a.max(b) <= TIER_FACTOR * a.min(b)
        })
        .min_by_key(|&i| pair_bytes(i));
    if tiered.is_some() {
        return tiered;
    }
    if segments.len() > max_segments {
        return (0..segments.len() - 1).min_by_key(|&i| pair_bytes(i));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SearchParams;
    use nucdb_seq::random::{CollectionSpec, SyntheticCollection};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "nucdb-seg-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn collection() -> Vec<(String, DnaSeq)> {
        let coll = SyntheticCollection::generate(&CollectionSpec::tiny(5));
        coll.records
            .iter()
            .map(|r| (r.id.clone(), r.seq.clone()))
            .collect()
    }

    fn results_of(db: &Database, query: &DnaSeq) -> Vec<(u32, i32, String)> {
        db.search(query, &SearchParams::default())
            .unwrap()
            .results
            .iter()
            .map(|r| (r.record, r.score, r.id.clone()))
            .collect()
    }

    #[test]
    fn segmented_view_matches_joint_build() {
        let records = collection();
        let config = DbConfig::default();
        let joint = Database::build(records.clone(), &config);

        // Split into three memory parts at arbitrary boundaries.
        let mut parts = Vec::new();
        let mut stores = Vec::new();
        for chunk in records.chunks(records.len() / 3 + 1) {
            let mut store = SequenceStore::new(config.storage);
            let mut builder = IndexBuilder::new(config.index.clone()).with_codec(config.codec);
            for (id, seq) in chunk {
                builder.add_record(&seq.representative_bases());
                store.add(id.clone(), seq);
            }
            parts.push((format!("part-{}", parts.len()), Arc::new(builder.finish())));
            stores.push(Arc::new(store));
        }
        let segmented = Database::from_variants(
            StoreVariant::Segmented(SegmentedStore::new(stores)),
            IndexVariant::Segmented(SegmentedIndex::new(parts).unwrap()),
        );

        let coll = SyntheticCollection::generate(&CollectionSpec::tiny(5));
        for fam in 0..3 {
            let query =
                coll.query_for_family(fam, 0.7, &nucdb_seq::MutationModel::substitutions(0.05));
            assert_eq!(results_of(&joint, &query), results_of(&segmented, &query));
        }
    }

    #[test]
    fn live_insert_flush_compact_round_trip() {
        let dir = temp_dir("live");
        let records = collection();
        let config = DbConfig::default();
        let live = LiveDatabase::create(&dir, &config, LiveOptions::default()).unwrap();

        // Insert in three batches with a flush between each, producing
        // multiple on-disk segments plus a memtable tail.
        let chunks: Vec<_> = records.chunks(records.len() / 3 + 1).collect();
        for (i, chunk) in chunks.iter().enumerate() {
            live.insert_batch(chunk.to_vec()).unwrap();
            if i + 1 < chunks.len() {
                assert!(live.flush().unwrap());
            }
        }
        let joint = Database::build(records.clone(), &config);
        let coll = SyntheticCollection::generate(&CollectionSpec::tiny(5));
        let query = coll.query_for_family(0, 0.7, &nucdb_seq::MutationModel::substitutions(0.05));
        assert_eq!(
            results_of(&joint, &query),
            results_of(&live.snapshot(), &query)
        );

        // Flush the tail, compact everything, reopen: same answers.
        live.flush().unwrap();
        let runs = live.compact_all().unwrap();
        assert!(!runs.is_empty());
        assert_eq!(
            results_of(&joint, &query),
            results_of(&live.snapshot(), &query)
        );
        let status = live.status();
        assert_eq!(status.memtable_records, 0);
        assert!(status.compaction_runs as usize >= runs.len());
        drop(live);

        let reopened = LiveDatabase::open(&dir, LiveOptions::default()).unwrap();
        assert_eq!(
            results_of(&joint, &query),
            results_of(&reopened.snapshot(), &query)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn policy_prefers_similar_sizes_and_bounds_count() {
        let seg = |id, bytes| SegmentMeta {
            id,
            records: 1,
            index_bytes: bytes,
            store_bytes: 0,
        };
        // A big settled segment next to a small flush: no candidate.
        assert_eq!(
            compaction_candidate(&[seg(0, 1 << 20), seg(1, 100)], 8),
            None
        );
        // Two similar smalls after the big one: merge those.
        assert_eq!(
            compaction_candidate(&[seg(0, 1 << 20), seg(1, 100), seg(2, 150)], 8),
            Some(1)
        );
        // Over the cap, tier is waived: smallest adjacent pair merges.
        let steep: Vec<SegmentMeta> = (0..4)
            .map(|i| seg(i, 10u64.pow(6 - 2 * i as u32)))
            .collect();
        assert_eq!(compaction_candidate(&steep, 3), Some(2));
        assert_eq!(compaction_candidate(&steep, 8), None);
    }

    #[test]
    fn explain_plan_lists_segments() {
        let dir = temp_dir("explain");
        let records = collection();
        let live =
            LiveDatabase::create(&dir, &DbConfig::default(), LiveOptions::default()).unwrap();
        live.insert_batch(records[..3].to_vec()).unwrap();
        live.flush().unwrap();
        live.insert_batch(records[3..6].to_vec()).unwrap();

        let coll = SyntheticCollection::generate(&CollectionSpec::tiny(5));
        let query = coll.query_for_family(0, 0.7, &nucdb_seq::MutationModel::substitutions(0.05));
        let params = SearchParams {
            explain: true,
            ..SearchParams::default()
        };
        let outcome = live.snapshot().search(&query, &params).unwrap();
        let plan = outcome.explain.expect("explain plan");
        assert_eq!(plan.segments.len(), 2);
        assert_eq!(plan.segments[0].label, "seg-000000");
        assert_eq!(plan.segments[0].base, 0);
        assert_eq!(plan.segments[1].label, "memtable");
        let text = plan.render_text(5);
        assert!(text.contains("segments: 2 consulted"), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
