//! Scatter-gather sharded search: the query driver's shard-set backend.
//!
//! A [`ShardSet`] partitions a collection into N shards, each an
//! independent [`Database`] over a contiguous slice of the record-id
//! space. The set is a backend of the one query driver
//! (`crate::driver`): its coarse phase ranks each shard in turn on the
//! request's own thread, with the caller's [`CoarseScratch`], and merges
//! the per-shard top-C candidates globally; its fine phase aligns only
//! the global winners on the shards that own them; and the strand loop,
//! strand merge, spans, and flight-recorder capture are the driver's —
//! the same code a single database runs. A lone query therefore costs
//! what it costs on the joint database plus each shard's per-query
//! overhead; concurrency comes from the caller's threads (the server's
//! workers), as for every other shape.
//!
//! ## Merge proof obligation
//!
//! Sharded answers must be **bit-identical** to a joint single-index
//! build (pinned by `tests/sharding.rs`). The argument:
//!
//! * The coarse score is a function of one record alone: the frame
//!   score windows the record's own diagonal histogram. No
//!   collection-global statistic enters, so a record scores the same in
//!   its shard as in the joint index.
//! * Shards hold *contiguous* id ranges (shard `s` covers
//!   `[base_s, base_s + n_s)`), so adding `base_s` to a local id
//!   preserves the joint `(frame hits desc, record asc)` tie-break
//!   order.
//! * Any member of the joint top-C has fewer than C records ahead of it
//!   globally, hence fewer than C within its own shard: it survives the
//!   per-shard `top-C` truncation. Merging the per-shard lists and
//!   truncating to C therefore reproduces the joint candidate list
//!   exactly — same set, same order.
//!
//! No engine knob breaks this argument, so a shard set refuses no
//! parameter. An explain plan is the driver's one plan: each shard's
//! coarse evidence is folded into its strand's plan list by list, and
//! the survivors are the merged global candidates.
//!
//! ## Degraded mode
//!
//! A shard that cannot be opened (dead at open) or whose phase returns
//! an error (corruption) is dropped from the answer; a slow shard never
//! is. The query still succeeds with the surviving shards and a
//! [`Coverage`] of `shards_ok / shards_total`. Results from a shard
//! that failed *any* phase are discarded entirely, so a degraded answer
//! equals the answer of a `ShardSet` over the surviving shards alone.
//! Only when every shard fails does the query error.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use nucdb_index::{shard_dir_name, CompressedIndex, IndexError, ShardManifest, ShardMeta};
use nucdb_obs::{Counter, Forensics, Histogram, MetricsRegistry};
use nucdb_seq::{Base, DnaSeq};

use crate::coarse::{
    coarse_rank_explain, record_survivors, CoarseHit, CoarseOutcome, CoarseScratch,
};
use crate::collection::open_plain_dir;
use crate::driver::{self, Backend, Merged};
use crate::engine::{io_err, Database, DbConfig, QueryStats, SearchResult};
use crate::explain::{CoarseExplain, ExplainPlan, SegmentExplain};
use crate::fine::{fine_search_traced, CandidateTiming, FineMode, FineResult};
use crate::metrics::SearchMetrics;
use crate::params::SearchParams;
use crate::store::{RecordSource, SequenceStore};

/// Answer completeness of a sharded query: how many shards contributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coverage {
    /// Shards that answered every phase of the query.
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
    /// Compressed postings bytes this shard read.
    pub postings_bytes_read: u64,
    /// Postings entries this shard decoded.
    pub ids_decoded: u64,
    /// Coarse candidates this shard surfaced (pre-merge).
    pub candidates: u64,
}

/// A sharded query's answer: engine-shaped results plus coverage.
#[derive(Debug, Clone)]
pub struct ShardedOutcome {
    /// Ranked answers, best first — bit-identical to a joint build when
    /// coverage is full.
    pub results: Vec<SearchResult>,
    /// Aggregated cost counters across all shards and phases.
    pub stats: QueryStats,
    /// How many shards contributed.
    pub coverage: Coverage,
    /// Why non-contributing shards failed (empty at full coverage).
    pub failures: Vec<ShardFailure>,
    /// Per-shard work attribution, one entry per *live* shard that
    /// completed coarse search.
    pub work: Vec<ShardWork>,
    /// The query plan, when [`SearchParams::explain`] asked for one: one
    /// segment row per shard, each strand's lists folded over the shards.
    pub explain: Option<ExplainPlan>,
}

/// Options for [`ShardSet::open_root`]. There are none: every shard
/// runs on the calling thread, so there is no dispatch to tune.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardSetConfig;

/// Per-shard metric handles (`nucdb_shard_*` families, labeled by
/// shard name). Disabled handles when no registry is bound.
#[derive(Clone, Default)]
struct ShardMetrics {
    queries: Counter,
    errors: Counter,
    latency: Histogram,
}

impl ShardMetrics {
    fn bind(registry: &MetricsRegistry, shard: &str) -> ShardMetrics {
        let labels: &[(&str, &str)] = &[("shard", shard)];
        ShardMetrics {
            queries: registry.counter_with(
                "nucdb_shard_queries_total",
                "Phase dispatches to this shard",
                labels,
            ),
            errors: registry.counter_with(
                "nucdb_shard_errors_total",
                "Queries this shard failed",
                labels,
            ),
            latency: registry.histogram_with(
                "nucdb_shard_latency_ns",
                "Per-phase shard service time in nanoseconds",
                labels,
            ),
        }
    }
}

/// One shard slot: its database (or why it did not open) and its
/// record-id base. Dead-at-open shards keep their slot — their record
/// count, and therefore every later shard's id base, comes from the
/// shard manifest.
struct ShardSlot {
    name: String,
    base: u32,
    records: u32,
    db: Result<Database, String>,
    /// Stored bases, summed once at open (0 for a dead slot): a shard's
    /// records never change.
    total_bases: u64,
    metrics: ShardMetrics,
}

/// The scatter-gather planner over N shards. See the module docs for
/// the identity argument and degraded-mode contract.
pub struct ShardSet {
    slots: Vec<ShardSlot>,
    degraded_queries: Counter,
    /// The driver's observability handles: query metrics bound to the
    /// registry the set was opened with; capture disabled until
    /// [`ShardSet::set_forensics`].
    metrics: SearchMetrics,
}

/// One shard slot before assembly: name, manifest record count, and the
/// opened database or the reason it is dead.
type ShardEntry = (String, u32, Result<Database, String>);

impl ShardSet {
    fn from_entries(
        entries: Vec<ShardEntry>,
        registry: &MetricsRegistry,
    ) -> Result<ShardSet, IndexError> {
        use crate::coarse::PostingsSource;
        if entries.is_empty() {
            return Err(IndexError::Unsupported(
                "a shard set needs at least one shard",
            ));
        }
        // All live shards must agree on index parameters: coarse scores
        // are only comparable across shards built the same way.
        let mut live = entries.iter().filter_map(|(_, _, db)| db.as_ref().ok());
        if let Some(first) = live.next() {
            let params = first.index().index_params();
            if live.any(|db| db.index().index_params() != params) {
                return Err(IndexError::Unsupported(
                    "shards disagree on index parameters",
                ));
            }
        }
        let mut slots = Vec::with_capacity(entries.len());
        let mut base: u64 = 0;
        for (name, records, db) in entries {
            if base + u64::from(records) > u64::from(u32::MAX) {
                return Err(IndexError::Unsupported(
                    "total shard records overflow the u32 id space",
                ));
            }
            slots.push(ShardSlot {
                metrics: ShardMetrics::bind(registry, &name),
                name,
                base: base as u32,
                records,
                total_bases: db.as_ref().map_or(0, |db| db.store().total_bases() as u64),
                db,
            });
            base += u64::from(records);
        }
        Ok(ShardSet {
            slots,
            degraded_queries: registry.counter(
                "nucdb_shard_degraded_queries_total",
                "Queries answered with partial shard coverage",
            ),
            metrics: SearchMetrics::new(registry),
        })
    }

    /// Build a set from in-memory databases (tests, benches). Shard `i`
    /// is named `shard-00i`.
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
    /// corrupt becomes a *dead* slot: the set still opens and answers
    /// degraded queries, with the dead shard's record count taken from
    /// the manifest so every other shard's id base stays correct.
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
        self.slots.len()
    }

    /// Names and liveness of all shards, in id order:
    /// `(name, base, records, dead-error)`.
    pub fn shard_rows(&self) -> Vec<(String, u32, u32, Option<String>)> {
        self.slots
            .iter()
            .map(|s| {
                (
                    s.name.clone(),
                    s.base,
                    s.records,
                    s.db.as_ref().err().cloned(),
                )
            })
            .collect()
    }

    /// The (index, store) pair of every shard that opened, named by its
    /// shard, in id order. A dead shard has none.
    pub fn parts(&self) -> Vec<(&str, &CompressedIndex, &SequenceStore)> {
        self.slots
            .iter()
            .filter_map(|slot| Some((slot.name.as_str(), slot.db.as_ref().ok()?)))
            .flat_map(|(name, db)| db.parts().into_iter().map(move |(_, i, s)| (name, i, s)))
            .collect()
    }

    /// Total records across all shards (the joint id space).
    pub fn len(&self) -> usize {
        self.slots.iter().map(|s| s.records as usize).sum()
    }

    /// Is the whole set empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total stored bases across *live* shards.
    pub fn total_bases(&self) -> u64 {
        self.slots.iter().map(|s| s.total_bases).sum()
    }

    /// Attach the query capture handle (flight recorder, tail sampling,
    /// capture log). `&mut self`: configure before sharing the set.
    pub fn set_forensics(&mut self, forensics: Forensics) {
        self.metrics = std::mem::take(&mut self.metrics).with_forensics(forensics);
    }

    /// The set's observability handles.
    pub fn metrics(&self) -> &SearchMetrics {
        &self.metrics
    }

    /// External id of a global record (empty for records on dead shards).
    pub fn record_id(&self, global: u32) -> String {
        self.live_slot_of(global)
            .map(|(db, local)| db.store().id(local).to_string())
            .unwrap_or_default()
    }

    /// Length of a global record in bases (0 for records on dead shards).
    pub fn record_len(&self, global: u32) -> usize {
        self.live_slot_of(global)
            .map_or(0, |(db, local)| db.store().record_len(local))
    }

    /// Index of the slot whose id range holds `global`. Bases ascend, so
    /// the owner is the last slot starting at or below it (empty slots
    /// share their successor's base and sort before it).
    fn slot_index_of(&self, global: u32) -> usize {
        self.slots
            .partition_point(|s| s.base <= global)
            .saturating_sub(1)
    }

    fn live_slot_of(&self, global: u32) -> Option<(&Database, u32)> {
        let slot = &self.slots[self.slot_index_of(global)];
        let local = global - slot.base;
        slot.db
            .as_ref()
            .ok()
            .filter(|_| local < slot.records)
            .map(|db| (db, local))
    }

    /// Run one phase on one live shard, on the calling thread. A shard
    /// that errors is charged and entered in `failures`, and gives
    /// `None`; so does a dead one (already a failure).
    fn run_phase<T>(
        &self,
        failures: &mut BTreeMap<usize, String>,
        slot_idx: usize,
        phase: impl FnOnce(&Database) -> Result<T, IndexError>,
    ) -> Option<T> {
        let slot = &self.slots[slot_idx];
        let db = slot.db.as_ref().ok()?;
        slot.metrics.queries.inc();
        let start = Instant::now();
        let output = phase(db);
        slot.metrics
            .latency
            .record(start.elapsed().as_nanos() as u64);
        output
            .map_err(|e| {
                // A corrupt shard degrades the answer instead of failing
                // the query, so the driver never sees the error: count
                // the corruption here.
                if e.is_corruption() {
                    self.metrics.io_corruption.inc();
                }
                slot.metrics.errors.inc();
                failures.insert(slot_idx, e.to_string());
            })
            .ok()
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
    /// which every shard's coarse phase reuses in turn, carrying a
    /// caller-assigned request id into every span, trace line, and
    /// flight-recorder entry the query produces (see
    /// [`Database::search_with_id`]).
    pub fn search_with_id(
        &self,
        query: &DnaSeq,
        params: &SearchParams,
        scratch: &mut CoarseScratch,
        request_id: Option<&str>,
    ) -> Result<ShardedOutcome, IndexError> {
        let mut state = ShardQuery {
            failures: self
                .slots
                .iter()
                .enumerate()
                .filter_map(|(i, slot)| Some((i, slot.db.as_ref().err()?.clone())))
                .collect(),
            work: BTreeMap::new(),
            scratch: std::mem::take(scratch),
        };
        let outcome = driver::run_query(self, &mut state, query, params, request_id);
        *scratch = std::mem::take(&mut state.scratch);
        let outcome = outcome?;
        let ShardCoverage { coverage, failures } = self.coverage_of(&state);
        Ok(ShardedOutcome {
            results: outcome.results,
            stats: outcome.stats,
            coverage,
            failures,
            work: state.work.into_values().collect(),
            explain: outcome.explain,
        })
    }

    fn coverage_of(&self, state: &ShardQuery) -> ShardCoverage {
        ShardCoverage {
            coverage: Coverage {
                shards_ok: self.slots.len() - state.failures.len(),
                shards_total: self.slots.len(),
            },
            failures: state
                .failures
                .iter()
                .map(|(&i, error)| ShardFailure {
                    shard: self.slots[i].name.clone(),
                    error: error.clone(),
                })
                .collect(),
        }
    }

    /// The all-shards-failed error, once no slot is left to answer.
    fn ensure_alive(&self, state: &ShardQuery) -> Result<(), IndexError> {
        let shards_total = self.slots.len();
        if state.failures.len() < shards_total {
            return Ok(());
        }
        let detail = state.failures.values().next().map_or("no shards", |e| e);
        Err(IndexError::Io(std::io::Error::other(format!(
            "all {shards_total} shards failed: {detail}"
        ))))
    }
}

/// One query's cross-phase state: which shards have failed so far (dead
/// at open or errored — by slot index), what each live shard has done,
/// and the caller's coarse working memory, lent for the query.
pub(crate) struct ShardQuery {
    failures: BTreeMap<usize, String>,
    work: BTreeMap<usize, ShardWork>,
    scratch: CoarseScratch,
}

impl Backend for ShardSet {
    type State = ShardQuery;

    fn metrics(&self) -> &SearchMetrics {
        &self.metrics
    }

    /// One row per shard, dead ones included.
    fn segment_rows(&self) -> Vec<SegmentExplain> {
        let row = |(label, base, records, _)| SegmentExplain {
            label,
            base,
            records,
        };
        self.shard_rows().into_iter().map(row).collect()
    }

    /// Coarse on every shard still answering, one after another, then
    /// merge the per-shard candidate lists to the global top-C exactly
    /// as joint coarse ranking would. Work counters (and the per-shard
    /// stage times) are summed over shards, and so is each list of an
    /// explain plan, over the shards whose coarse phase succeeded.
    fn coarse(
        &self,
        state: &mut ShardQuery,
        query_bases: &[Base],
        params: &SearchParams,
        mut explain: Option<&mut CoarseExplain>,
    ) -> Result<CoarseOutcome, IndexError> {
        self.ensure_alive(state)?;
        let mut total = CoarseOutcome::default();
        for (slot_idx, slot) in self.slots.iter().enumerate() {
            if state.failures.contains_key(&slot_idx) {
                continue;
            }
            let scratch = &mut state.scratch;
            let mut shard_plan = explain.is_some().then(CoarseExplain::default);
            let Some(coarse) = self.run_phase(&mut state.failures, slot_idx, |db| {
                coarse_rank_explain(
                    db.index(),
                    query_bases,
                    params,
                    scratch,
                    shard_plan.as_mut(),
                )
            }) else {
                continue;
            };
            if let (Some(plan), Some(shard_plan)) = (explain.as_deref_mut(), shard_plan) {
                fold_plan(plan, shard_plan);
            }
            total.intervals_looked_up += coarse.intervals_looked_up;
            total.lists_fetched += coarse.lists_fetched;
            total.postings_decoded += coarse.postings_decoded;
            total.postings_bytes_read += coarse.postings_bytes_read;
            total.blocks_decoded += coarse.blocks_decoded;
            total.total_hits += coarse.total_hits;
            total.extract_nanos += coarse.extract_nanos;
            total.accumulate_nanos += coarse.accumulate_nanos;
            total.rank_nanos += coarse.rank_nanos;
            let work = state.work.entry(slot_idx).or_insert_with(|| ShardWork {
                shard: slot.name.clone(),
                ..ShardWork::default()
            });
            work.postings_bytes_read += coarse.postings_bytes_read;
            work.ids_decoded += coarse.postings_decoded;
            work.candidates += coarse.candidates.len() as u64;
            total
                .candidates
                .extend(coarse.candidates.into_iter().map(|mut hit| {
                    hit.record += slot.base;
                    hit
                }));
        }
        // The joint candidate order: frame hits desc, global record asc.
        // Globalised ids preserve the joint tie-break because shards
        // hold contiguous, ordered id ranges.
        total
            .candidates
            .sort_by(|a, b| (b.frame_hits.cmp(&a.frame_hits)).then(a.record.cmp(&b.record)));
        total.candidates.truncate(params.max_candidates);
        if let Some(plan) = explain {
            record_survivors(plan, &total.candidates);
        }
        Ok(total)
    }

    /// Fine only on shards owning a global winner, each aligning its
    /// own candidates under shard-local ids.
    fn fine(
        &self,
        state: &mut ShardQuery,
        query: &DnaSeq,
        candidates: &[CoarseHit],
        mode: FineMode,
        params: &SearchParams,
        mut timings: Option<&mut Vec<CandidateTiming>>,
    ) -> Result<Vec<FineResult>, IndexError> {
        let stage_start = Instant::now();
        let mut per_shard: BTreeMap<usize, Vec<CoarseHit>> = BTreeMap::new();
        for hit in candidates {
            let slot_idx = self.slot_index_of(hit.record);
            per_shard.entry(slot_idx).or_default().push(CoarseHit {
                record: hit.record - self.slots[slot_idx].base,
                ..*hit
            });
        }
        let mut results = Vec::with_capacity(candidates.len());
        for (slot_idx, hits) in per_shard {
            let base = self.slots[slot_idx].base;
            let first = timings.as_ref().map_or(0, |t| t.len());
            let start_ns = stage_start.elapsed().as_nanos() as u64;
            let fine = self.run_phase(&mut state.failures, slot_idx, |db| {
                fine_search_traced(
                    db.store(),
                    query,
                    &hits,
                    mode,
                    &params.scheme,
                    params.min_score,
                    timings.as_deref_mut(),
                )
                .map_err(io_err)
            });
            // This shard's timings, in global ids and stage time.
            for t in timings.iter_mut().flat_map(|t| t[first..].iter_mut()) {
                (t.record, t.start_ns) = (t.record + base, t.start_ns + start_ns);
            }
            let Some(fine) = fine else { continue };
            results.extend(fine.into_iter().map(|mut r| {
                r.record += base;
                r.coarse.record += base;
                r
            }));
        }
        Ok(results)
    }

    fn record_id(&self, record: u32) -> String {
        ShardSet::record_id(self, record)
    }

    /// A shard that failed any phase contributes nothing: drop even
    /// results it returned for other strands/phases, so a degraded
    /// answer equals a clean answer over the surviving shards.
    fn finish(
        &self,
        state: &mut ShardQuery,
        merged: &mut Merged,
    ) -> Result<Option<String>, IndexError> {
        self.ensure_alive(state)?;
        if state.failures.is_empty() {
            return Ok(None);
        }
        merged.retain(|(_, r)| !state.failures.contains_key(&self.slot_index_of(r.record)));
        self.degraded_queries.inc();
        Ok(Some(format!(
            "partial answer from {}",
            self.coverage_of(state)
        )))
    }
}

/// Fold one shard's coarse plan into its strand's: lists matched by
/// code, with their work summed and `absent` only where every shard
/// lacks the list. The survivors are set once, from the merged cut.
fn fold_plan(plan: &mut CoarseExplain, shard: CoarseExplain) {
    plan.k = shard.k;
    plan.stopping = shard.stopping;
    plan.floor = plan.floor.max(shard.floor);
    for list in shard.lists {
        match plan.lists.binary_search_by_key(&list.code, |l| l.code) {
            Ok(i) => {
                let into = &mut plan.lists[i];
                into.df += list.df;
                into.ids_decoded += list.ids_decoded;
                into.bytes_read += list.bytes_read;
                into.blocks_decoded += list.blocks_decoded;
                into.absent &= list.absent;
            }
            Err(i) => plan.lists.insert(i, list),
        }
    }
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
