//! # nucdb-index
//!
//! The compressed inverted *interval* index at the heart of the paper's
//! partitioned search. An interval is a fixed-length substring; the index
//! maps every distinct interval of the collection to a postings list of
//! `(record, offsets)` pairs. Coarse search reads only the lists of the
//! query's intervals — a tiny fraction of the collection — instead of
//! scanning every record.
//!
//! The pieces:
//!
//! * [`interval`] — interval extraction and the index parameters.
//! * [`postings`] — decoded postings lists and the in-memory accumulator.
//! * [`compress`] — the compressed list layout: Golomb-coded record gaps
//!   (parameter fitted per list), Elias-gamma offset counts, Golomb-coded
//!   offset gaps. This is what holds the index "to an acceptable level".
//! * [`block`] — the fast-decode tier: fixed 128-posting bitpacked
//!   blocks with per-block skip entries and CRCs (`ListCodec::Block`,
//!   on disk `NUCIDX04`), decoded by a branchless word-parallel kernel
//!   that can skip whole blocks.
//! * [`stopping`] — index stopping: discarding intervals that occur in too
//!   many records, which carry little information but much index space.
//! * [`builder`] — index construction: single-pass in-memory, chunked
//!   external build with run spilling and multiway merge (the collection
//!   need not fit in memory), and a parallel variant.
//! * [`manifest`] — the crash-safe `MANIFEST` naming the segments of a
//!   live (incrementally ingested) directory, swapped atomically on
//!   every flush/compaction.
//! * [`shard`] — the `SHARDS` manifest describing a sharded database
//!   root: per-shard record counts fix the record-id bases that make
//!   scatter-gather answers bit-identical to a joint build.
//! * [`disk`] — the index file format: [`write_index`] writes an index's
//!   byte image, [`CompressedIndex::open`] reads it back once, and the
//!   verification walk that loads, `fsck` and the scrubber share. Every
//!   fetch checks its list's CRC and counts the bytes it read (the
//!   paper's disk-cost story).
//! * [`durable`] — durability primitives: CRC-32, bounded streaming
//!   reads, the open-time image read with bounded retry of transient
//!   errors, and write-to-temp + fsync + atomic-rename persistence.
//! * [`fault`] — deterministic I/O fault injection (short reads,
//!   transient errors, bit flips, truncation) for durability tests.
//! * [`stats`] — size accounting used by experiments E1/E4/E5.
//!
//! Decoding comes in two shapes: materialising (`decode_postings`,
//! `decode_counts`) and streaming (`decode_postings_with`,
//! `decode_counts_with`), the latter driving a visitor per entry so the
//! hot coarse-search path never allocates per-list structures.

#![warn(missing_docs)]

pub mod block;
pub mod builder;
pub mod compress;
pub mod disk;
pub mod durable;
pub mod error;
pub mod fault;
pub mod interval;
pub mod manifest;
pub mod merge;
pub mod postings;
pub mod shard;
pub mod stats;
pub mod stopping;

pub use block::{skip_table_len, OffsetSection, BLOCK_LEN, SKIP_ENTRY_BYTES};
pub use builder::{build_chunked, build_parallel, IndexBuilder};
pub use compress::{
    decode_counts, decode_counts_with, decode_postings, decode_postings_with, encode_postings,
    CompressedIndex, FetchStats, ListCodec, PostingsVisitor, VocabEntry,
};
pub use disk::{load_index, load_index_from, write_index, OnDiskIndex};
pub use durable::{
    crc32, read_image, AtomicFile, CountingReader, Crc32, WalkStep, TRANSIENT_RETRY_LIMIT,
};
pub use error::{FormatViolation, IndexError};
pub use fault::{FaultPlan, FaultyReader};
pub use interval::IndexParams;
pub use manifest::{Manifest, SegmentMeta, MANIFEST_FILE};
pub use merge::{apply_stopping, merge_indexes};
pub use postings::{Posting, PostingsList};
pub use shard::{shard_dir_name, ShardManifest, ShardMeta, SHARD_MANIFEST_FILE};
pub use stats::IndexStats;
pub use stopping::StopPolicy;
