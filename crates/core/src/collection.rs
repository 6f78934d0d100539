//! One handle over every deployment shape.
//!
//! A database directory is one of three things, told apart by which
//! manifest it holds: a plain `index.nucidx` + `store.nucsto` pair, a
//! live (segmented) directory with a `MANIFEST`, or a sharded root with
//! a `SHARDS` manifest. [`Shape::of`] is the one place that probes and
//! [`Collection::open`] turns the answer into something searchable.
//! Callers above this module — the server, the CLI — search, size, and
//! observe a [`Collection`] without asking which shape it is — search,
//! explain, and the (index, store) pairs a view holds open
//! ([`Collection::parts`], what the scrubber walks) — and reach for
//! [`Collection::as_live`] / [`Collection::as_sharded`] only for what
//! one shape alone can do (insert, flush, compact; per-shard rows).
//! Every shape answers a query on the caller's thread with the caller's
//! [`CoarseScratch`], through the one query driver: a shard set is one
//! segmented view whose parts are its shards.

use std::path::Path;
use std::sync::Arc;

use nucdb_index::{CompressedIndex, IndexError, Manifest, ShardManifest};
use nucdb_obs::{Forensics, MetricsRegistry};
use nucdb_seq::DnaSeq;

use crate::coarse::CoarseScratch;
use crate::engine::{io_err, Database, IndexVariant, SearchOutcome};
use crate::params::SearchParams;
use crate::segment::LiveDatabase;
use crate::shard::{ShardCoverage, ShardSet, ShardSetConfig};
use crate::store::{RecordSource, SequenceStore, StoreVariant};

/// Index file of a plain database directory (and of each shard).
pub const INDEX_FILE: &str = "index.nucidx";
/// Store file of a plain database directory (and of each shard).
pub const STORE_FILE: &str = "store.nucsto";

/// What kind of database a directory holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One index + store pair.
    Plain,
    /// A live (segmented) directory: `MANIFEST` + segment files.
    Live,
    /// A sharded root: `SHARDS` + one plain directory per shard.
    Sharded,
}

impl Shape {
    /// Probe `dir` for a manifest. `SHARDS` wins over `MANIFEST`, so
    /// "is this directory sharded?" is the question this answers; "has
    /// anyone committed segments here?" is `has_live_manifest`'s.
    pub fn of(dir: &Path) -> Shape {
        if ShardManifest::exists_in(dir) {
            Shape::Sharded
        } else if has_live_manifest(dir) {
            Shape::Live
        } else {
            Shape::Plain
        }
    }
}

/// Does `dir` hold a live `MANIFEST`, whatever else sits beside it? The
/// overwrite guard of [`LiveDatabase::create`] and the switch in
/// [`LiveDatabase::open_or_create`] ask this, not [`Shape::of`]: a
/// manifest shadowed by a `SHARDS` file still names committed segments
/// that a fresh manifest would orphan.
pub(crate) fn has_live_manifest(dir: &Path) -> bool {
    Manifest::exists_in(dir)
}

/// Open a plain directory (or one shard's) fully disk-resident:
/// postings lists and candidate records are both fetched per query —
/// the paper's operating point.
pub(crate) fn open_plain_dir(dir: &Path) -> Result<Database, IndexError> {
    let store = SequenceStore::open(&dir.join(STORE_FILE)).map_err(io_err)?;
    let index = CompressedIndex::open(&dir.join(INDEX_FILE))?;
    Ok(Database::from_variants(
        StoreVariant::Disk(store),
        IndexVariant::Disk(index),
    ))
}

/// Observability handles for [`Collection::open`].
#[derive(Clone)]
pub struct CollectionOptions {
    /// Registry the engine, I/O, and per-shard metrics register in.
    pub registry: Arc<MetricsRegistry>,
    /// Query capture: flight recorder, tail sampling, capture log.
    pub forensics: Forensics,
}

impl Default for CollectionOptions {
    fn default() -> CollectionOptions {
        CollectionOptions {
            registry: Arc::new(MetricsRegistry::disabled()),
            forensics: Forensics::disabled(),
        }
    }
}

/// A searchable collection of any shape. Cloning shares the underlying
/// database.
#[derive(Clone)]
pub enum Collection {
    /// An immutable database: a plain directory, or the committed
    /// segments of a live directory opened read-only.
    Static(Arc<Database>),
    /// A live database accepting inserts; every query runs on its
    /// current snapshot.
    Live(Arc<LiveDatabase>),
    /// A shard set; every query runs on one segmented view of its
    /// shards and reports which shards answered.
    Sharded(Arc<ShardSet>),
}

impl Collection {
    /// Open whatever `dir` holds, read-only: a plain directory as a
    /// fully disk-resident [`Database`], a live directory as the view
    /// of its committed segments (the answers a restarted server would
    /// give; taking the writer role is [`LiveDatabase::open`]'s
    /// business, not detection's), a sharded root as a [`ShardSet`].
    pub fn open(dir: &Path, opts: &CollectionOptions) -> Result<Collection, IndexError> {
        let mut db = match Shape::of(dir) {
            Shape::Sharded => {
                let mut set = ShardSet::open_root(dir, ShardSetConfig, &opts.registry)?;
                set.set_forensics(opts.forensics.clone());
                return Ok(Collection::Sharded(Arc::new(set)));
            }
            Shape::Live => LiveDatabase::open_readonly(dir, &opts.registry)?,
            Shape::Plain => {
                let mut db = open_plain_dir(dir)?;
                db.bind_metrics(&opts.registry);
                db
            }
        };
        db.set_forensics(opts.forensics.clone());
        Ok(Collection::Static(Arc::new(db)))
    }

    /// A view that holds still for a whole request: a live database is
    /// replaced by its current snapshot (cheap: one `RwLock` read + `Arc`
    /// clone), so every query, length lookup, and size read of the
    /// request sees the same record-id space even as inserts land.
    pub fn pinned(&self) -> Collection {
        match self {
            Collection::Live(live) => Collection::Static(live.snapshot()),
            other => other.clone(),
        }
    }

    /// Evaluate one query. `scratch` is the caller's reusable coarse
    /// working memory; `request_id` flows into every span, trace line,
    /// and flight-recorder entry. A sharded answer carries its
    /// [`ShardCoverage`] in [`SearchOutcome::coverage`].
    pub fn search_with_id(
        &self,
        query: &DnaSeq,
        params: &SearchParams,
        scratch: &mut CoarseScratch,
        request_id: Option<&str>,
    ) -> Result<SearchOutcome, IndexError> {
        match self {
            Collection::Static(db) => db.search_with_id(query, params, scratch, request_id),
            Collection::Live(live) => live
                .snapshot()
                .search_with_id(query, params, scratch, request_id),
            Collection::Sharded(set) => {
                let outcome = set.search_with_id(query, params, scratch, request_id)?;
                Ok(SearchOutcome {
                    results: outcome.results,
                    stats: outcome.stats,
                    explain: outcome.explain,
                    coverage: Some(ShardCoverage {
                        coverage: outcome.coverage,
                        failures: outcome.failures,
                    }),
                })
            }
        }
    }

    /// Number of records (dead shards included, via their manifest
    /// counts).
    pub fn len(&self) -> usize {
        match self {
            Collection::Static(db) => db.len(),
            Collection::Live(live) => live.snapshot().len(),
            Collection::Sharded(set) => set.len(),
        }
    }

    /// Is the collection empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total stored bases. O(records) for a database, cached for a
    /// shard set — ask only when the answer is needed.
    pub fn total_bases(&self) -> u64 {
        match self {
            Collection::Static(db) => db.store().total_bases() as u64,
            Collection::Live(live) => live.snapshot().store().total_bases() as u64,
            Collection::Sharded(set) => set.total_bases(),
        }
    }

    /// Length of a record in bases.
    pub fn record_len(&self, record: u32) -> usize {
        match self {
            Collection::Static(db) => db.store().record_len(record),
            Collection::Live(live) => live.snapshot().store().record_len(record),
            Collection::Sharded(set) => set.record_len(record),
        }
    }

    /// The flight recorder queries are captured into (a live database
    /// re-binds the same handle to every snapshot).
    pub fn forensics(&self) -> Forensics {
        match self {
            Collection::Static(db) => db.forensics().clone(),
            Collection::Live(live) => live.snapshot().forensics().clone(),
            Collection::Sharded(set) => set.metrics().forensics.clone(),
        }
    }

    /// Every (index, store) pair this view holds open, named, in id
    /// order: a plain database's one unnamed pair, a live view's parts
    /// (`seg-000003`, `memtable`), each shard that opened (`shard-001`).
    /// A live handle names none: pin it first ([`Collection::pinned`]).
    pub fn parts(&self) -> Vec<(&str, &CompressedIndex, &SequenceStore)> {
        match self {
            Collection::Static(db) => db.parts(),
            Collection::Live(_) => Vec::new(),
            Collection::Sharded(set) => set.parts(),
        }
    }

    /// The live database, when that is what this is (insert, flush,
    /// compact).
    pub fn as_live(&self) -> Option<&Arc<LiveDatabase>> {
        match self {
            Collection::Live(live) => Some(live),
            _ => None,
        }
    }

    /// The shard set, when that is what this is (per-shard rows).
    pub fn as_sharded(&self) -> Option<&Arc<ShardSet>> {
        match self {
            Collection::Sharded(set) => Some(set),
            _ => None,
        }
    }
}
