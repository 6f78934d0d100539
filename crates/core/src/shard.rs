//! Sharded search: N shards answering as the parts of one view.
//!
//! A [`ShardSet`] partitions a collection into N shards, each an
//! ordinary index + store pair over a contiguous slice of the record-id
//! space. Opened, the shards become the parts of one segmented
//! [`Database`] view (`shard-000`, `shard-001`, … at their manifest id
//! bases), and a query runs the one query driver on that view: one
//! coarse pass over every record of the joint id space, one top-C cut,
//! fine alignment of the winners, the driver's strand merge, spans and
//! capture. Answers are bit-identical to a joint build for the reason a
//! live database's are: a segmented view visits postings part by part
//! with ids shifted to global ones, so every score and every tie-break
//! is the joint build's.
//!
//! What is left to the set is what only a partitioned answer has:
//!
//! * **Holes.** A shard that is dead at open keeps its manifest id range
//!   as an empty placeholder part — its records have no postings and no
//!   bases — so no candidate can land in it, every other shard keeps its
//!   id base, and its explain and `/stats` rows remain.
//! * **Degraded retry.** When a query over the view fails, the set runs
//!   it on each live shard alone; the shards that fail are charged an
//!   error, become holes, and the query is answered once more over the
//!   rest. The answer carries a [`Coverage`] of `shards_ok /
//!   shards_total` and equals the answer of the surviving shards alone.
//!   If no shard fails alone the original error stands, and a query with
//!   no shard left errors.
//! * **Per-shard work.** The query's per-part cursors tally each part's
//!   postings work and its share of the candidate cut, reported as
//!   [`ShardWork`] and in the `nucdb_shard_*` metric families.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use nucdb_index::{
    shard_dir_name, CompressedIndex, IndexBuilder, IndexError, IndexParams, ListCodec,
    ShardManifest, ShardMeta,
};
use nucdb_obs::{Counter, Forensics, MetricsRegistry};
use nucdb_seq::DnaSeq;

use crate::coarse::CoarseScratch;
use crate::collection::open_plain_dir;
use crate::driver;
use crate::engine::{io_err, Database, DbConfig, IndexVariant, QueryStats, SearchResult};
use crate::explain::ExplainPlan;
use crate::metrics::SearchMetrics;
use crate::params::SearchParams;
use crate::segment::{SegmentedIndex, SegmentedStore};
use crate::store::{RecordSource, SequenceStore, StorageMode, StoreVariant};

/// Answer completeness of a sharded query: how many shards contributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coverage {
    /// Shards that answered the query.
    pub shards_ok: usize,
    /// Total shards in the set (including dead-at-open shards).
    pub shards_total: usize,
}

impl Coverage {
    /// Fraction of shards that contributed, in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        if self.shards_total == 0 {
            return 1.0;
        }
        self.shards_ok as f64 / self.shards_total as f64
    }

    /// Did every shard contribute?
    pub fn is_full(&self) -> bool {
        self.shards_ok == self.shards_total
    }
}

/// One shard's failure within a query (or at open).
#[derive(Debug, Clone)]
pub struct ShardFailure {
    /// Shard directory name (`shard-000`, …).
    pub shard: String,
    /// Human-readable cause.
    pub error: String,
}

/// Which shards answered a query: the completeness report a
/// [`SearchOutcome`](crate::SearchOutcome) carries when the query ran
/// over a shard set.
#[derive(Debug, Clone)]
pub struct ShardCoverage {
    /// How many shards contributed.
    pub coverage: Coverage,
    /// Why non-contributing shards failed (empty at full coverage).
    pub failures: Vec<ShardFailure>,
}

/// `2/3 shards (shard-001: <cause>)` — how warnings and the flight
/// recorder describe a partial answer.
impl std::fmt::Display for ShardCoverage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Coverage {
            shards_ok,
            shards_total,
        } = self.coverage;
        let causes: Vec<String> = self
            .failures
            .iter()
            .map(|failure| format!("{}: {}", failure.shard, failure.error))
            .collect();
        write!(
            f,
            "{shards_ok}/{shards_total} shards ({})",
            causes.join("; ")
        )
    }
}

/// Per-shard work attribution for one query (the bench's scaling story:
/// wall time on a loaded box lies, decoded postings do not).
#[derive(Debug, Clone, Default)]
pub struct ShardWork {
    /// Shard directory name.
    pub shard: String,
    /// Compressed postings bytes the query read from this shard.
    pub postings_bytes_read: u64,
    /// Postings entries the query decoded from this shard.
    pub ids_decoded: u64,
    /// Candidates of the query's top-C cuts (both strands) this shard
    /// holds.
    pub candidates: u64,
}

/// A sharded query's answer: engine-shaped results plus coverage.
#[derive(Debug, Clone)]
pub struct ShardedOutcome {
    /// Ranked answers, best first — bit-identical to a joint build when
    /// coverage is full.
    pub results: Vec<SearchResult>,
    /// The query's cost counters, as a joint build counts them.
    pub stats: QueryStats,
    /// How many shards contributed.
    pub coverage: Coverage,
    /// Why non-contributing shards failed (empty at full coverage).
    pub failures: Vec<ShardFailure>,
    /// Per-shard work attribution, one entry per shard that answered.
    pub work: Vec<ShardWork>,
    /// The query plan, when [`SearchParams::explain`] asked for one: one
    /// segment row per shard.
    pub explain: Option<ExplainPlan>,
}

/// Options for [`ShardSet::open_root`]. There are none: a query runs on
/// the calling thread, so there is no dispatch to tune.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardSetConfig;

/// Per-shard metric handles (`nucdb_shard_*` families, labeled by
/// shard name). Disabled handles when no registry is bound.
struct ShardMetrics {
    queries: Counter,
    errors: Counter,
}

impl ShardMetrics {
    fn bind(registry: &MetricsRegistry, shard: &str) -> ShardMetrics {
        let labels: &[(&str, &str)] = &[("shard", shard)];
        ShardMetrics {
            queries: registry.counter_with(
                "nucdb_shard_queries_total",
                "Query phases this shard served: coarse for every query, fine for a query whose cut it held candidates of",
                labels,
            ),
            errors: registry.counter_with(
                "nucdb_shard_errors_total",
                "Queries this shard failed",
                labels,
            ),
        }
    }
}

/// An opened shard's index and store, as parts of a view.
type Part = (Arc<CompressedIndex>, Arc<SequenceStore>);

/// One shard: its id range and its opened part, or why it did not open.
/// A dead shard keeps its range — its record count, and therefore every
/// later shard's id base, comes from the shard manifest.
struct Shard {
    name: String,
    base: u32,
    records: u32,
    part: Result<Part, String>,
    metrics: ShardMetrics,
}

/// N shards answering as one segmented view. See the module docs for
/// holes, the degraded retry and per-shard work.
pub struct ShardSet {
    shards: Vec<Shard>,
    /// Every shard as a part, dead ones as holes; carries the set's
    /// query metrics and capture handle.
    view: Database,
    /// Stored bases across live shards, summed once at open.
    total_bases: u64,
    degraded_queries: Counter,
}

/// One shard before assembly: name, manifest record count, and the
/// opened database or the reason it is dead.
type ShardEntry = (String, u32, Result<Database, String>);

impl ShardSet {
    fn from_entries(
        entries: Vec<ShardEntry>,
        registry: &MetricsRegistry,
    ) -> Result<ShardSet, IndexError> {
        if entries.is_empty() {
            return Err(IndexError::Unsupported(
                "a shard set needs at least one shard",
            ));
        }
        let mut shards = Vec::with_capacity(entries.len());
        let mut base: u64 = 0;
        for (name, records, db) in entries {
            let part = match db.map(Database::into_variants) {
                Ok((StoreVariant::Disk(store), IndexVariant::Disk(index))) => {
                    Ok((Arc::new(index), Arc::new(store)))
                }
                Ok(_) => return Err(IndexError::Unsupported("a shard must be a plain database")),
                Err(dead) => Err(dead),
            };
            shards.push(Shard {
                metrics: ShardMetrics::bind(registry, &name),
                name,
                base: u32::try_from(base).map_err(|_| {
                    IndexError::Unsupported("total shard records overflow the u32 id space")
                })?,
                records,
                part,
            });
            base += u64::from(records);
        }
        let total_bases = (shards.iter().filter_map(|s| s.part.as_ref().ok()))
            .map(|(_, store)| store.total_bases() as u64)
            .sum();
        let view = view_of(&shards, |_| false)?.with_metrics(SearchMetrics::new(registry));
        Ok(ShardSet {
            shards,
            view,
            total_bases,
            degraded_queries: registry.counter(
                "nucdb_shard_degraded_queries_total",
                "Queries answered with partial shard coverage",
            ),
        })
    }

    /// Build a set from in-memory plain databases (tests, benches).
    /// Shard `i` is named `shard-00i`.
    pub fn from_databases(
        dbs: Vec<Database>,
        registry: &MetricsRegistry,
    ) -> Result<ShardSet, IndexError> {
        let entries = dbs
            .into_iter()
            .enumerate()
            .map(|(i, db)| (shard_dir_name(i), db.len() as u32, Ok(db)))
            .collect();
        ShardSet::from_entries(entries, registry)
    }

    /// Open a sharded root written by [`build_sharded_root`] (or
    /// `nucdb build --shards N`). A shard whose files are missing or
    /// corrupt is *dead*: the set still opens and answers degraded
    /// queries, with the dead shard's record count taken from the
    /// manifest so every other shard's id base stays correct.
    pub fn open_root(
        root: &Path,
        _config: ShardSetConfig,
        registry: &MetricsRegistry,
    ) -> Result<ShardSet, IndexError> {
        let manifest = ShardManifest::load(root)?;
        let entries = manifest
            .shards
            .iter()
            .enumerate()
            .map(|(i, meta)| {
                let name = shard_dir_name(i);
                let db = match open_plain_dir(&root.join(&name)) {
                    Ok(db) if db.len() != meta.records as usize => {
                        Err("shard record count disagrees with SHARDS manifest".into())
                    }
                    opened => opened.map_err(|e| e.to_string()),
                };
                (name, meta.records, db)
            })
            .collect();
        ShardSet::from_entries(entries, registry)
    }

    /// Number of shards (including dead ones).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Names and liveness of all shards, in id order:
    /// `(name, base, records, dead-error)`.
    pub fn shard_rows(&self) -> Vec<(String, u32, u32, Option<String>)> {
        self.shards
            .iter()
            .map(|s| {
                (
                    s.name.clone(),
                    s.base,
                    s.records,
                    s.part.as_ref().err().cloned(),
                )
            })
            .collect()
    }

    /// The (index, store) pair of every shard that opened, named by its
    /// shard, in id order. A dead shard has none.
    pub fn parts(&self) -> Vec<(&str, &CompressedIndex, &SequenceStore)> {
        self.shards
            .iter()
            .filter_map(|s| {
                let (index, store) = s.part.as_ref().ok()?;
                Some((s.name.as_str(), index.as_ref(), store.as_ref()))
            })
            .collect()
    }

    /// Total records across all shards (the joint id space).
    pub fn len(&self) -> usize {
        self.view.len()
    }

    /// Is the whole set empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total stored bases across *live* shards.
    pub fn total_bases(&self) -> u64 {
        self.total_bases
    }

    /// Attach the query capture handle (flight recorder, tail sampling,
    /// capture log). `&mut self`: configure before sharing the set.
    pub fn set_forensics(&mut self, forensics: Forensics) {
        self.view.set_forensics(forensics);
    }

    /// The set's observability handles.
    pub fn metrics(&self) -> &SearchMetrics {
        self.view.metrics()
    }

    /// Length of a global record in bases (0 for records on dead shards).
    pub fn record_len(&self, global: u32) -> usize {
        self.view.store().record_len(global)
    }

    /// Evaluate a query across all shards. Bit-identical to a joint
    /// build at full coverage; partial results plus `coverage < 1`
    /// when shards fail; an error only when *no* shard answers.
    ///
    /// Allocates fresh coarse working memory, as [`Database::search`]
    /// does; batch callers hold a [`CoarseScratch`] and use
    /// [`ShardSet::search_with_id`].
    pub fn search(
        &self,
        query: &DnaSeq,
        params: &SearchParams,
    ) -> Result<ShardedOutcome, IndexError> {
        self.search_with_id(query, params, &mut CoarseScratch::new(), None)
    }

    /// [`ShardSet::search`] with caller-provided coarse working memory,
    /// carrying a caller-assigned request id into every span, trace
    /// line, and flight-recorder entry the query produces (see
    /// [`Database::search_with_id`]).
    pub fn search_with_id(
        &self,
        query: &DnaSeq,
        params: &SearchParams,
        scratch: &mut CoarseScratch,
        request_id: Option<&str>,
    ) -> Result<ShardedOutcome, IndexError> {
        let mut failed: BTreeMap<usize, String> = (self.shards.iter().enumerate())
            .filter_map(|(i, shard)| Some((i, shard.part.as_ref().err()?.clone())))
            .collect();
        let run = |view: &Database, failed: &BTreeMap<usize, String>, scratch: &mut _| {
            self.ensure_alive(failed)?;
            let partial = (!failed.is_empty())
                .then(|| format!("partial answer from {}", self.coverage_of(failed)));
            driver::run_query(view, scratch, query, params, request_id, partial)
        };
        let outcome = match run(&self.view, &failed, scratch) {
            Ok(outcome) => outcome,
            Err(error) => {
                // Find the shards that fail the query alone, then answer
                // without them.
                let before = failed.len();
                for (i, shard) in self.shards.iter().enumerate() {
                    if failed.contains_key(&i) {
                        continue;
                    }
                    let alone = view_of(std::slice::from_ref(shard), |_| false)?;
                    if let Err(e) = alone.search_with(query, params, scratch) {
                        shard.metrics.errors.inc();
                        failed.insert(i, e.to_string());
                    }
                }
                if failed.len() == before {
                    return Err(error);
                }
                let view = view_of(&self.shards, |i| failed.contains_key(&i))?
                    .with_metrics(self.view.metrics().clone());
                run(&view, &failed, scratch)?
            }
        };
        if !failed.is_empty() {
            self.degraded_queries.inc();
        }
        let mut work = Vec::new();
        let mut part_work = scratch.part_work();
        for (i, shard) in self.shards.iter().enumerate() {
            let done = part_work.next().unwrap_or_default();
            if failed.contains_key(&i) {
                continue;
            }
            shard
                .metrics
                .queries
                .add(1 + u64::from(done.candidates > 0));
            work.push(ShardWork {
                shard: shard.name.clone(),
                postings_bytes_read: done.bytes_read,
                ids_decoded: done.ids_decoded,
                candidates: done.candidates,
            });
        }
        let ShardCoverage { coverage, failures } = self.coverage_of(&failed);
        Ok(ShardedOutcome {
            results: outcome.results,
            stats: outcome.stats,
            coverage,
            failures,
            work,
            explain: outcome.explain,
        })
    }

    fn coverage_of(&self, failed: &BTreeMap<usize, String>) -> ShardCoverage {
        ShardCoverage {
            coverage: Coverage {
                shards_ok: self.shards.len() - failed.len(),
                shards_total: self.shards.len(),
            },
            failures: failed
                .iter()
                .map(|(&i, error)| ShardFailure {
                    shard: self.shards[i].name.clone(),
                    error: error.clone(),
                })
                .collect(),
        }
    }

    /// The all-shards-failed error, once no shard is left to answer.
    fn ensure_alive(&self, failed: &BTreeMap<usize, String>) -> Result<(), IndexError> {
        let shards_total = self.shards.len();
        if failed.len() < shards_total {
            return Ok(());
        }
        let detail = failed.values().next().map_or("no shards", |e| e);
        Err(IndexError::Io(std::io::Error::other(format!(
            "all {shards_total} shards failed: {detail}"
        ))))
    }
}

/// One segmented view over `shards`, in id order: a live shard not
/// `is_hole(i)` as itself, every other shard as an empty placeholder of
/// its record count, built with the live shards' parameters. (With no
/// live shard any parameters do: no query runs on such a view.)
fn view_of(shards: &[Shard], is_hole: impl Fn(usize) -> bool) -> Result<Database, IndexError> {
    let hole = (shards.iter().find_map(|s| s.part.as_ref().ok()))
        .map(|(index, _)| (index.params().clone(), index.codec()))
        .unwrap_or_else(|| {
            let DbConfig { index, codec, .. } = DbConfig::default();
            (index, codec)
        });
    let (mut indexes, mut stores) = (Vec::new(), Vec::new());
    for (i, shard) in shards.iter().enumerate() {
        let (index, store) = match &shard.part {
            Ok(part) if !is_hole(i) => part.clone(),
            _ => placeholder(&hole, shard.records),
        };
        indexes.push((shard.name.clone(), index));
        stores.push(store);
    }
    Ok(Database::from_variants(
        StoreVariant::Segmented(SegmentedStore::new(stores)),
        IndexVariant::Segmented(SegmentedIndex::new(indexes)?),
    ))
}

/// `records` empty records with no postings: a hole in a view.
fn placeholder((params, codec): &(IndexParams, ListCodec), records: u32) -> Part {
    let mut builder = IndexBuilder::new(params.clone()).with_codec(*codec);
    let mut store = SequenceStore::new(StorageMode::DirectCoding);
    for _ in 0..records {
        builder.add_record(&[]);
        store.add(String::new(), &DnaSeq::new());
    }
    (Arc::new(builder.finish()), Arc::new(store))
}

/// Partition `records` into `num_shards` contiguous slices and write a
/// sharded root: `root/SHARDS` plus one plain database directory per
/// shard, built in parallel (one builder thread per shard). Returns the
/// per-shard record counts.
pub fn build_sharded_root(
    root: &Path,
    records: Vec<(String, DnaSeq)>,
    num_shards: usize,
    config: &DbConfig,
) -> Result<Vec<u32>, IndexError> {
    assert!(num_shards > 0, "need at least one shard");
    std::fs::create_dir_all(root)?;
    let n = records.len();
    let mut slices: Vec<Vec<(String, DnaSeq)>> = Vec::with_capacity(num_shards);
    let mut rest = records;
    for i in 0..num_shards {
        // Shard i gets records [i*n/N, (i+1)*n/N) — contiguous, and
        // sizes differ by at most one.
        let start = i * n / num_shards;
        let end = (i + 1) * n / num_shards;
        let tail = rest.split_off(end - start);
        slices.push(rest);
        rest = tail;
    }
    let results: Vec<Result<(u32, u64, u64), IndexError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = slices
            .into_iter()
            .enumerate()
            .map(|(i, slice)| {
                let dir: PathBuf = root.join(shard_dir_name(i));
                scope.spawn(move || build_shard_dir(&dir, slice, config))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard build thread panicked"))
            .collect()
    });
    let mut manifest = ShardManifest::new(config.index.k, config.index.stride, config.codec);
    let mut counts = Vec::with_capacity(num_shards);
    for result in results {
        let (records, index_bytes, store_bytes) = result?;
        counts.push(records);
        manifest.shards.push(ShardMeta {
            records,
            index_bytes,
            store_bytes,
        });
    }
    manifest.save(root)?;
    Ok(counts)
}

fn build_shard_dir(
    dir: &Path,
    records: Vec<(String, DnaSeq)>,
    config: &DbConfig,
) -> Result<(u32, u64, u64), IndexError> {
    std::fs::create_dir_all(dir)?;
    let mut store = SequenceStore::new(config.storage);
    let mut builder = nucdb_index::IndexBuilder::new(config.index.clone()).with_codec(config.codec);
    let count = records.len() as u32;
    for (id, seq) in records {
        builder.add_record(&seq.representative_bases());
        store.add(id, &seq);
    }
    let index_path = dir.join(crate::collection::INDEX_FILE);
    let store_path = dir.join(crate::collection::STORE_FILE);
    nucdb_index::write_index(&builder.finish(), &index_path)?;
    store.write_to(&store_path).map_err(io_err)?;
    let index_bytes = std::fs::metadata(&index_path)?.len();
    let store_bytes = std::fs::metadata(&store_path)?.len();
    Ok((count, index_bytes, store_bytes))
}
