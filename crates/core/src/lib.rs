//! # nucdb — partitioned search over indexed nucleotide databases
//!
//! A from-scratch Rust reproduction of *Indexing Nucleotide Databases for
//! Fast Query Evaluation* (Williams & Zobel, EDBT 1996), the precursor of
//! the CAFE genomic retrieval system.
//!
//! A query is a DNA sequence; answers are database records with
//! high-quality **local alignments** to it. Instead of exhaustively
//! scanning every record (Smith–Waterman, FASTA, BLAST — all implemented
//! in [`nucdb_align`] as baselines), search is **partitioned**:
//!
//! 1. **Coarse search** looks every fixed-length substring (*interval*) of
//!    the query up in a compressed inverted index ([`nucdb_index`]) and
//!    ranks records by how strongly their interval hits suggest a local
//!    alignment — at its best with the *frame* heuristic, which scores
//!    hits concentrated on a common alignment diagonal.
//! 2. **Fine search** runs (banded) local alignment only on the top
//!    candidates and ranks the survivors by alignment score.
//!
//! ## Quickstart
//!
//! ```
//! use nucdb::{Database, DbConfig, SearchParams};
//! use nucdb_seq::random::{CollectionSpec, SyntheticCollection};
//!
//! // A small synthetic collection with planted homolog families.
//! let coll = SyntheticCollection::generate(&CollectionSpec::tiny(7));
//! let db = Database::build(
//!     coll.records.iter().map(|r| (r.id.clone(), r.seq.clone())),
//!     &DbConfig::default(),
//! );
//!
//! // Query with a mutated fragment of family 0's parent: its members
//! // should surface.
//! let query = coll.query_for_family(0, 0.6, &nucdb_seq::MutationModel::substitutions(0.05));
//! let outcome = db.search(&query, &SearchParams::default()).unwrap();
//! assert!(!outcome.results.is_empty());
//! let top: Vec<u32> = outcome.results.iter().map(|r| r.record).collect();
//! assert!(coll.families[0].member_ids.iter().any(|m| top.contains(m)));
//! ```

#![warn(missing_docs)]

pub mod baseline;
pub mod build_info;
pub mod coarse;
pub mod collection;
mod driver;
pub mod engine;
pub mod eval;
pub mod explain;
pub mod fine;
pub mod health;
pub mod metrics;
pub mod params;
pub mod segment;
pub mod shard;
pub mod store;

pub use baseline::{exhaustive_blast, exhaustive_fasta, exhaustive_sw};
pub use coarse::{
    coarse_rank, coarse_rank_explain, coarse_rank_with, CoarseHit, CoarseOutcome, CoarseScratch,
    PartCursor, PostingsSource,
};
pub use collection::{Collection, CollectionOptions, Shape, INDEX_FILE, STORE_FILE};
pub use engine::{Database, DbConfig, IndexVariant, QueryStats, SearchOutcome, SearchResult};
pub use eval::{average_precision, eleven_point_precision, ground_truth_sw, recall_at};
pub use explain::{
    CandidateExplain, CoarseExplain, ExplainPlan, ListExplain, SegmentExplain, StrandExplain,
    SurvivorExplain,
};
pub use fine::{fine_search, fine_search_traced, CandidateTiming, FineMode, FineResult};
pub use health::{
    fsck_cross_check, fsck_index, fsck_store, FsckFinding, FsckReport, FsckSeverity, HistBucket,
    IndexStatReport, StatReport, StoreStatReport,
};
pub use metrics::SearchMetrics;
pub use params::{SearchParams, Strand};
pub use segment::{
    CompactionRun, InsertOutcome, LiveDatabase, LiveOptions, LiveStatus, SegmentedIndex,
    SegmentedStore,
};
pub use shard::{
    build_sharded_root, Coverage, ShardCoverage, ShardFailure, ShardSet, ShardSetConfig, ShardWork,
    ShardedOutcome,
};
pub use store::{OnDiskStore, RecordSource, SequenceStore, StorageMode, StoreVariant};
