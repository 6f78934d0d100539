//! The database engine: sequence store + inverted index + partitioned
//! query evaluation.

use std::path::Path;

use nucdb_align::Alignment;
use nucdb_index::{
    CompressedIndex, FetchStats, IndexBuilder, IndexError, IndexParams, ListCodec, PostingsVisitor,
};
use nucdb_seq::DnaSeq;

use nucdb_obs::{Forensics, MetricsRegistry};

use crate::coarse::{CoarseScratch, PartCursor, PostingsSource};
use crate::driver;
use crate::explain::ExplainPlan;
use crate::metrics::SearchMetrics;
use crate::params::{SearchParams, Strand};
use crate::shard::ShardCoverage;
use crate::store::{RecordSource, SequenceStore, StorageMode, StoreVariant};

/// Build-time configuration of a database.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Interval index parameters.
    pub index: IndexParams,
    /// Postings codec.
    pub codec: ListCodec,
    /// Sequence storage mode.
    pub storage: StorageMode,
}

impl Default for DbConfig {
    fn default() -> DbConfig {
        DbConfig {
            index: IndexParams::new(8),
            codec: ListCodec::Paper,
            storage: StorageMode::DirectCoding,
        }
    }
}

/// The index backing a database: one index, or a segmented view over
/// several.
pub enum IndexVariant {
    /// One index (its file image, or one built in memory).
    Disk(CompressedIndex),
    /// Ordered set of index parts (live ingestion segments + memtable).
    Segmented(crate::segment::SegmentedIndex),
}

impl IndexVariant {
    /// The index this variant wraps: every [`PostingsSource`] call
    /// forwards through this one `match`.
    fn source(&self) -> &dyn PostingsSource {
        match self {
            IndexVariant::Disk(i) => i,
            IndexVariant::Segmented(i) => i,
        }
    }
}

impl PostingsSource for IndexVariant {
    fn num_records(&self) -> u32 {
        self.source().num_records()
    }

    fn record_lens(&self) -> &[u32] {
        self.source().record_lens()
    }

    fn index_params(&self) -> &IndexParams {
        self.source().index_params()
    }

    fn fetch_stream(
        &self,
        code: u64,
        io_buf: &mut Vec<u8>,
        visitor: &mut dyn PostingsVisitor,
    ) -> Result<Option<FetchStats>, IndexError> {
        self.source().fetch_stream(code, io_buf, visitor)
    }

    fn fetch_counts(
        &self,
        code: u64,
        cursors: &mut Vec<PartCursor>,
        visitor: &mut dyn PostingsVisitor,
    ) -> Result<Option<FetchStats>, IndexError> {
        self.source().fetch_counts(code, cursors, visitor)
    }

    fn section_bytes(&self, part: u32) -> &[u8] {
        self.source().section_bytes(part)
    }
}

/// One answer to a query.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Record id within the collection.
    pub record: u32,
    /// The record's external identifier.
    pub id: String,
    /// Local alignment score from fine search.
    pub score: i32,
    /// Coarse (frame) score that promoted the record: its frame hits.
    pub coarse_score: f64,
    /// Total coarse interval hits.
    pub coarse_hits: u32,
    /// Which strand of the query produced this answer.
    pub strand: Strand,
    /// Full alignment when fine search ran with traceback (coordinates
    /// are in the searched strand's orientation).
    pub alignment: Option<Alignment>,
}

/// Per-query cost counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryStats {
    /// Distinct query intervals.
    pub intervals_looked_up: u64,
    /// Postings lists found and decoded.
    pub lists_fetched: u64,
    /// Postings entries decoded.
    pub postings_decoded: u64,
    /// Compressed postings bytes read.
    pub postings_bytes_read: u64,
    /// Block-codec blocks unpacked.
    pub blocks_decoded: u64,
    /// Hit pairs accumulated.
    pub total_hits: u64,
    /// Candidates passed to fine search.
    pub candidates: u64,
    /// Alignments computed in fine search.
    pub fine_alignments: u64,
    /// Coarse stage wall time in nanoseconds.
    pub coarse_nanos: u64,
    /// Fine stage wall time in nanoseconds.
    pub fine_nanos: u64,
    /// Coarse sub-stage: interval extraction + code sort, nanoseconds.
    pub extract_nanos: u64,
    /// Coarse sub-stage: postings fetch + hit accumulation, nanoseconds.
    pub accumulate_nanos: u64,
    /// Coarse sub-stage: diagonal scatter + scoring + ranking, nanoseconds.
    pub rank_nanos: u64,
    /// Strand merge + result assembly wall time in nanoseconds.
    pub merge_nanos: u64,
}

/// Results plus cost counters.
#[derive(Debug, Clone, Default)]
pub struct SearchOutcome {
    /// Ranked answers, best first.
    pub results: Vec<SearchResult>,
    /// Cost counters.
    pub stats: QueryStats,
    /// The explain plan, when [`SearchParams::explain`] was set. Plans
    /// are passive observers: `results` and `stats` are bit-identical
    /// with or without one.
    pub explain: Option<ExplainPlan>,
    /// Which shards answered, when the query ran over a
    /// [`ShardSet`](crate::ShardSet) behind a
    /// [`Collection`](crate::Collection); `None` for a single database.
    pub coverage: Option<ShardCoverage>,
}

/// Adapt a store-layer error to the engine's error type. Checksum
/// mismatches map variant-to-variant (so callers see one corruption type
/// regardless of which file failed), as does a retired-format refusal;
/// plain I/O errors pass through; the rest surface as `InvalidData` I/O errors with the
/// [`nucdb_seq::SeqError`] reachable through `source()`. Every branch
/// satisfies [`IndexError::is_corruption`] when the cause is corrupt
/// bytes.
pub(crate) fn io_err(e: nucdb_seq::SeqError) -> IndexError {
    match e {
        nucdb_seq::SeqError::Corruption {
            section,
            offset,
            expected,
            actual,
        } => IndexError::Corruption {
            section,
            offset,
            expected,
            actual,
        },
        nucdb_seq::SeqError::UnsupportedFormat(what) => IndexError::UnsupportedFormat(what),
        nucdb_seq::SeqError::Io(io) => IndexError::Io(io),
        other => IndexError::Io(std::io::Error::new(std::io::ErrorKind::InvalidData, other)),
    }
}

/// An indexed nucleotide database.
///
/// # Concurrency
///
/// The entire query path takes `&self`: [`Database::search`],
/// [`Database::search_with`], and [`Database::search_with_id`] never
/// mutate the database, so a `Database` inside an
/// [`Arc`](std::sync::Arc) can serve any number of threads
/// concurrently with no external lock — `nucdb-serve`'s workers share
/// one `Arc<Database>`, each with its own scratch. Per-query mutable state lives in
/// the caller-owned [`CoarseScratch`]; everything the database itself
/// touches during a query is either immutable (vocabulary, postings,
/// stored sequences — all slices of file images read at open, so a
/// query does no file I/O) or an interior atomic (the metric
/// counters, histograms, and I/O tallies behind [`SearchMetrics`],
/// which are relaxed `AtomicU64`s designed for concurrent writers).
///
/// The only `&mut self` methods are setup: [`Database::bind_metrics`],
/// [`Database::set_forensics`], and the disk-conversion constructors.
/// Configure observability first, then share the database —
/// `nucdb-serve` follows exactly this pattern.
pub struct Database {
    store: StoreVariant,
    index: IndexVariant,
    /// Observability handles; fully detached (free) until
    /// [`Database::bind_metrics`] is called.
    metrics: SearchMetrics,
}

impl Database {
    /// Build an in-memory database from `(id, sequence)` records.
    pub fn build(
        records: impl IntoIterator<Item = (String, DnaSeq)>,
        config: &DbConfig,
    ) -> Database {
        let mut store = SequenceStore::new(config.storage);
        let mut builder = IndexBuilder::new(config.index.clone()).with_codec(config.codec);
        for (id, seq) in records {
            let bases = seq.representative_bases();
            store.add(id, &seq);
            builder.add_record(&bases);
        }
        Database {
            store: StoreVariant::Disk(store),
            index: IndexVariant::Disk(builder.finish()),
            metrics: SearchMetrics::disabled(),
        }
    }

    /// Assemble from already-built parts. The index must cover exactly
    /// the store's records.
    pub fn from_parts(store: SequenceStore, index: IndexVariant) -> Database {
        Database::from_variants(StoreVariant::Disk(store), index)
    }

    /// Assemble from any store/index variant combination.
    pub fn from_variants(store: StoreVariant, index: IndexVariant) -> Database {
        assert_eq!(
            RecordSource::len(&store) as u32,
            index.num_records(),
            "store and index disagree on record count"
        );
        Database {
            store,
            index,
            metrics: SearchMetrics::disabled(),
        }
    }

    /// The store and index, taken apart again.
    pub(crate) fn into_variants(self) -> (StoreVariant, IndexVariant) {
        (self.store, self.index)
    }

    /// This database answering under `metrics` (another view's handles).
    pub(crate) fn with_metrics(self, metrics: SearchMetrics) -> Database {
        Database { metrics, ..self }
    }

    /// Persist the index to `path` and reopen it from there (the
    /// paper's disk setting). A segmented index is left as it is.
    pub fn with_disk_index(self, path: &Path) -> Result<Database, IndexError> {
        let index = match self.index {
            IndexVariant::Disk(index) => {
                nucdb_index::write_index(&index, path)?;
                IndexVariant::Disk(CompressedIndex::open(path)?)
            }
            segmented @ IndexVariant::Segmented(_) => segmented,
        };
        Ok(Database {
            store: self.store,
            index,
            metrics: self.metrics,
        })
    }

    /// Persist the sequence store to `path` and reopen it from there —
    /// completing the paper's disk setting (index *and* collection on
    /// disk). A segmented store is left as it is.
    pub fn with_disk_store(self, path: &Path) -> Result<Database, IndexError> {
        let store = match self.store {
            StoreVariant::Disk(store) => {
                store.write_to(path).map_err(io_err)?;
                StoreVariant::Disk(SequenceStore::open(path).map_err(io_err)?)
            }
            segmented @ StoreVariant::Segmented(_) => segmented,
        };
        Ok(Database {
            store,
            index: self.index,
            metrics: self.metrics,
        })
    }

    /// Bind this database to a metrics registry: register the engine's
    /// stage histograms and counters, and migrate the index and store
    /// I/O counters onto registry-backed handles (their accumulated
    /// values carry over). Call after the final
    /// [`Database::with_disk_index`] / [`Database::with_disk_store`]
    /// conversion; binding to [`MetricsRegistry::disabled`] detaches
    /// everything again.
    pub fn bind_metrics(&mut self, registry: &MetricsRegistry) {
        let forensics = std::mem::take(&mut self.metrics.forensics);
        self.metrics = SearchMetrics::new(registry).with_forensics(forensics);
        if let IndexVariant::Disk(index) = &mut self.index {
            index.bind_metrics(registry);
        }
        if let StoreVariant::Disk(store) = &mut self.store {
            store.bind_metrics(registry);
        }
    }

    /// Attach the query capture handle (flight recorder, tail sampling,
    /// capture log); subsequent queries are captured per its
    /// configuration. Works with or without a bound metrics registry;
    /// like the other observability setters this is `&mut self` —
    /// configure before sharing the database.
    pub fn set_forensics(&mut self, forensics: Forensics) {
        self.metrics = std::mem::take(&mut self.metrics).with_forensics(forensics);
    }

    /// The forensics handle bound to this database (disabled by default).
    pub fn forensics(&self) -> &Forensics {
        &self.metrics.forensics
    }

    /// The (index, store) pairs this database holds open, named as its
    /// explain rows name them (see [`crate::Collection::parts`]).
    pub fn parts(&self) -> Vec<(&str, &CompressedIndex, &SequenceStore)> {
        match (&self.index, &self.store) {
            (IndexVariant::Disk(index), StoreVariant::Disk(store)) => vec![("", index, store)],
            (IndexVariant::Segmented(index), StoreVariant::Segmented(store)) => index
                .parts()
                .zip(store.parts())
                .map(|((label, index), store)| (label, index, store))
                .collect(),
            _ => Vec::new(),
        }
    }

    /// The engine's observability handles.
    pub fn metrics(&self) -> &SearchMetrics {
        &self.metrics
    }

    /// The sequence store.
    pub fn store(&self) -> &StoreVariant {
        &self.store
    }

    /// The index.
    pub fn index(&self) -> &IndexVariant {
        &self.index
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        RecordSource::len(&self.store)
    }

    /// Is the database empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evaluate a query with partitioned search: coarse index ranking,
    /// then fine local alignment of the top candidates. With
    /// [`Strand::Both`], the query and its reverse complement are each
    /// evaluated and merged per record by best score.
    ///
    /// Allocates fresh coarse working memory; batch callers should hold a
    /// [`CoarseScratch`] and use [`Database::search_with`].
    pub fn search(
        &self,
        query: &DnaSeq,
        params: &SearchParams,
    ) -> Result<SearchOutcome, IndexError> {
        self.search_with(query, params, &mut CoarseScratch::new())
    }

    /// [`Database::search`] with caller-provided coarse working memory.
    /// One scratch serves any number of sequential queries without
    /// per-query allocation; results are independent of its history.
    ///
    /// A query that trips over on-disk corruption (checksum mismatch,
    /// structural violation, truncated read) fails with a typed error and
    /// increments `nucdb_io_corruption_total`; the database itself stays
    /// healthy and keeps serving queries that touch intact bytes.
    pub fn search_with(
        &self,
        query: &DnaSeq,
        params: &SearchParams,
        scratch: &mut CoarseScratch,
    ) -> Result<SearchOutcome, IndexError> {
        self.search_with_id(query, params, scratch, None)
    }

    /// [`Database::search_with`] carrying a caller-assigned request id,
    /// which flows into every span, trace line, and flight-recorder
    /// entry this query produces — `nucdb-serve` passes the id it echoed
    /// to the client, so a slow trace is joinable with the client's own
    /// records. Results are unaffected by the id.
    pub fn search_with_id(
        &self,
        query: &DnaSeq,
        params: &SearchParams,
        scratch: &mut CoarseScratch,
        request_id: Option<&str>,
    ) -> Result<SearchOutcome, IndexError> {
        driver::run_query(self, scratch, query, params, request_id, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fine::FineMode;
    use nucdb_seq::random::{CollectionSpec, MutationModel, SyntheticCollection};

    fn build_db(seed: u64) -> (SyntheticCollection, Database) {
        let coll = SyntheticCollection::generate(&CollectionSpec::tiny(seed));
        let db = Database::build(
            coll.records.iter().map(|r| (r.id.clone(), r.seq.clone())),
            &DbConfig::default(),
        );
        (coll, db)
    }

    #[test]
    fn planted_family_is_retrieved() {
        let (coll, db) = build_db(51);
        let query = coll.query_for_family(0, 0.7, &MutationModel::substitutions(0.03));
        let outcome = db.search(&query, &SearchParams::default()).unwrap();
        assert!(!outcome.results.is_empty());
        let retrieved: Vec<u32> = outcome.results.iter().map(|r| r.record).collect();
        let found = coll.families[0]
            .member_ids
            .iter()
            .filter(|m| retrieved.contains(m))
            .count();
        assert!(
            found >= coll.families[0].member_ids.len() - 1,
            "only {found} of {} members retrieved",
            coll.families[0].member_ids.len()
        );
        // Results are sorted by score.
        for pair in outcome.results.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }

    #[test]
    fn unrelated_query_returns_little() {
        let (coll, db) = build_db(52);
        let query = coll.random_query(300);
        let outcome = db.search(&query, &SearchParams::default()).unwrap();
        // Random local alignments of a 300-mer against unrelated records
        // score noise-level (tens); a planted homolog scores hundreds.
        // Nothing homolog-strength may surface for a random query.
        for result in &outcome.results {
            assert!(
                result.score < 150,
                "random query found a strong hit: record {} score {}",
                result.record,
                result.score
            );
        }
        let related = coll.query_for_family(0, 0.5, &MutationModel::substitutions(0.03));
        let outcome = db.search(&related, &SearchParams::default()).unwrap();
        // A homolog at ~13% total divergence still aligns most of its
        // length: demand well over half the perfect-match score.
        let floor = related.len() as i32 * 3; // 60% of the +5/base maximum
        assert!(
            outcome.results[0].score >= floor,
            "homolog query only scored {} (floor {floor})",
            outcome.results[0].score
        );
    }

    #[test]
    fn stats_are_populated() {
        let (coll, db) = build_db(53);
        let query = coll.query_for_family(1, 0.5, &MutationModel::identity());
        let outcome = db.search(&query, &SearchParams::default()).unwrap();
        let s = outcome.stats;
        assert!(s.intervals_looked_up > 0);
        assert!(s.lists_fetched > 0);
        assert!(s.candidates > 0);
        assert!(s.total_hits >= s.candidates);
    }

    #[test]
    fn traceback_mode_carries_alignment() {
        let (coll, db) = build_db(54);
        let query = coll.query_for_family(0, 0.5, &MutationModel::identity());
        let params = SearchParams::default().with_fine(FineMode::FullWithTraceback);
        let outcome = db.search(&query, &params).unwrap();
        let top = &outcome.results[0];
        let alignment = top.alignment.as_ref().expect("traceback requested");
        assert_eq!(alignment.score, top.score);
        assert!(alignment.is_consistent());
        assert!(alignment.identity() > 0.8);
    }

    #[test]
    fn all_rankings_find_exact_member() {
        let (coll, db) = build_db(55);
        // An exact fragment of a stored record must be found under every
        // frame window E8 sweeps.
        let member = coll.families[2].member_ids[0];
        let range = coll.families[2].embedded_ranges[0].clone();
        let query = coll.records[member as usize].seq.subseq(range);
        for frame_window in [4, 16, 64] {
            let params = SearchParams {
                frame_window,
                ..SearchParams::default()
            };
            let outcome = db.search(&query, &params).unwrap();
            assert!(
                outcome.results.iter().any(|r| r.record == member),
                "frame window {frame_window} missed the exact member"
            );
        }
    }

    #[test]
    fn empty_database_returns_nothing() {
        let db = Database::build(std::iter::empty(), &DbConfig::default());
        assert!(db.is_empty());
        let query = DnaSeq::from_ascii(b"ACGTACGTACGTACGT").unwrap();
        let outcome = db.search(&query, &SearchParams::default()).unwrap();
        assert!(outcome.results.is_empty());
    }

    #[test]
    fn short_query_returns_nothing() {
        let (_, db) = build_db(56);
        let query = DnaSeq::from_ascii(b"ACG").unwrap(); // below k
        let outcome = db.search(&query, &SearchParams::default()).unwrap();
        assert!(outcome.results.is_empty());
    }

    #[test]
    #[should_panic(expected = "disagree on record count")]
    fn mismatched_parts_rejected() {
        let (_, db) = build_db(57);
        let store = SequenceStore::new(StorageMode::DirectCoding);
        let Database { index, .. } = db;
        let _ = Database::from_parts(store, index);
    }

    #[test]
    fn reverse_complement_homolog_found_only_with_both_strands() {
        let (coll, db) = build_db(59);
        // Query with the reverse complement of a stored fragment: the
        // forward search must miss it, the both-strands search must find
        // it with the same score a forward query of the fragment gets.
        let member = coll.families[1].member_ids[0];
        let range = coll.families[1].embedded_ranges[0].clone();
        let fragment = coll.records[member as usize].seq.subseq(range);
        let rc_query = fragment.reverse_complement();

        let forward_only = db.search(&rc_query, &SearchParams::default()).unwrap();
        assert!(
            !forward_only
                .results
                .iter()
                .any(|r| r.record == member && r.score > 100),
            "forward-only search should not strongly match the rc query"
        );

        let both = SearchParams::default().with_strand(Strand::Both);
        let outcome = db.search(&rc_query, &both).unwrap();
        let hit = outcome
            .results
            .iter()
            .find(|r| r.record == member)
            .expect("both-strands search finds the member");
        assert_eq!(hit.strand, Strand::Reverse);

        let direct = db.search(&fragment, &SearchParams::default()).unwrap();
        let direct_hit = direct.results.iter().find(|r| r.record == member).unwrap();
        assert_eq!(hit.score, direct_hit.score);
    }

    #[test]
    fn reverse_only_strand_mode() {
        let (coll, db) = build_db(60);
        let member = coll.families[0].member_ids[0];
        let range = coll.families[0].embedded_ranges[0].clone();
        let fragment = coll.records[member as usize].seq.subseq(range);
        let rc_query = fragment.reverse_complement();
        let params = SearchParams::default().with_strand(Strand::Reverse);
        let outcome = db.search(&rc_query, &params).unwrap();
        assert!(outcome.results.iter().any(|r| r.record == member));
        assert!(outcome.results.iter().all(|r| r.strand == Strand::Reverse));
    }

    #[test]
    fn max_results_respected() {
        let (coll, db) = build_db(58);
        let query = coll.query_for_family(0, 0.8, &MutationModel::identity());
        let params = SearchParams {
            max_results: 2,
            min_score: 1,
            ..SearchParams::default()
        };
        let outcome = db.search(&query, &params).unwrap();
        assert!(outcome.results.len() <= 2);
    }
}
