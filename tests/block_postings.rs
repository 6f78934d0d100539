//! Cross-layer acceptance tests for the NUCIDX04 block-postings tier:
//! coarse search over a block-codec index — built in memory and opened
//! from its file — must return bit-identical ranks to the paper
//! (v3 bit-serial) codec build, and under floor pressure it still decodes
//! every block of every list it fetches.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use nucdb::{
    coarse_rank, CoarseOutcome, Database, DbConfig, IndexVariant, SearchParams, SequenceStore,
    StorageMode, StoreVariant,
};
use nucdb_index::{write_index, CompressedIndex, IndexBuilder, IndexParams, ListCodec};
use nucdb_seq::random::{CollectionSpec, MutationModel, SyntheticCollection};
use nucdb_seq::Base;

static DIR_NONCE: AtomicU64 = AtomicU64::new(0);

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "nucdb_blockpost_{name}_{}_{}",
        std::process::id(),
        DIR_NONCE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn collection(seed: u64) -> SyntheticCollection {
    SyntheticCollection::generate(&CollectionSpec::tiny(seed))
}

fn build_index(coll: &SyntheticCollection, codec: ListCodec) -> CompressedIndex {
    let mut builder = IndexBuilder::new(IndexParams::new(8)).with_codec(codec);
    for record in &coll.records {
        builder.add_record(&record.seq.representative_bases());
    }
    builder.finish()
}

/// Σ df over the distinct lists `query` fetches from `index`: what a
/// coarse search that decodes every block of every list must decode.
fn fetched_df(index: &CompressedIndex, query: &[Base]) -> u64 {
    let mut codes: Vec<u64> = index.params().extract(query).map(|(_, c)| c).collect();
    codes.sort_unstable();
    codes.dedup();
    codes.iter().map(|&code| u64::from(index.df(code))).sum()
}

fn ranks(outcome: &CoarseOutcome) -> Vec<(u32, u32, u32, i64)> {
    outcome
        .candidates
        .iter()
        .map(|c| (c.record, c.hits, c.frame_hits, c.best_diagonal))
        .collect()
}

/// The headline acceptance test: for a spread of queries and coarse
/// floors, candidate ranks from the NUCIDX04 build equal the v3
/// (paper codec) build bit for bit — built and opened from disk.
#[test]
fn block_index_ranks_bit_identical_to_paper_codec() {
    let coll = collection(1203);
    let paper = build_index(&coll, ListCodec::Paper);
    let block = build_index(&coll, ListCodec::Block);

    let dir = temp_dir("ranks");
    let v3_path = dir.join("paper.nucidx");
    let v4_path = dir.join("block.nucidx");
    write_index(&paper, &v3_path).unwrap();
    write_index(&block, &v4_path).unwrap();
    assert_eq!(&std::fs::read(&v4_path).unwrap()[..8], b"NUCIDX04");
    let v3_disk = CompressedIndex::open(&v3_path).unwrap();
    let v4_disk = CompressedIndex::open(&v4_path).unwrap();

    let model = MutationModel::identity();
    for family in 0..coll.families.len().min(4) {
        let query: Vec<Base> = coll
            .query_for_family(family, 0.7, &model)
            .representative_bases();
        for min_coarse_hits in [1, 2, 8, 32] {
            let params = SearchParams {
                min_coarse_hits,
                max_candidates: 100,
                ..SearchParams::default()
            };
            let label = format!("family {family}, floor {min_coarse_hits}");
            let baseline = coarse_rank(&paper, &query, &params).unwrap();
            let mem = coarse_rank(&block, &query, &params).unwrap();
            assert_eq!(
                ranks(&baseline),
                ranks(&mem),
                "memory ranks diverge: {label}"
            );
            let d3 = coarse_rank(&v3_disk, &query, &params).unwrap();
            let d4 = coarse_rank(&v4_disk, &query, &params).unwrap();
            assert_eq!(
                ranks(&baseline),
                ranks(&d3),
                "v3 disk ranks diverge: {label}"
            );
            assert_eq!(
                ranks(&baseline),
                ranks(&d4),
                "v4 disk ranks diverge: {label}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// 400 records share one long segment (so its interval lists span
/// several 128-posting blocks), and record 0 alone also carries the
/// query's unique half: a floor of 40 only record 0 can clear.
fn shared_segment_records() -> (Vec<(String, nucdb_seq::DnaSeq)>, Vec<Base>) {
    let common = b"ACGTAGCTAGCTGGATCCAATTGGCCAACC";
    let unique = b"TGCATGCATTGCAACGGTACCTTAGGCATC";
    let mut records = Vec::new();
    let mut full = Vec::from(&common[..]);
    full.extend_from_slice(unique);
    records.push((
        "target".to_string(),
        nucdb_seq::DnaSeq::from_ascii(&full).unwrap(),
    ));
    for i in 0..400usize {
        let mut r = Vec::from(&common[..]);
        r.extend(std::iter::repeat_n(b"GCTA"[i % 4], 8));
        records.push((format!("bg{i}"), nucdb_seq::DnaSeq::from_ascii(&r).unwrap()));
    }
    let mut query = Vec::from(&common[..]);
    query.extend_from_slice(unique);
    let query = nucdb_seq::DnaSeq::from_ascii(&query)
        .unwrap()
        .representative_bases();
    (records, query)
}

#[test]
fn high_floor_decodes_every_block_on_disk_and_preserves_answers() {
    let (records, query) = shared_segment_records();
    let mut builder = IndexBuilder::new(IndexParams::new(8)).with_codec(ListCodec::Block);
    for (_, seq) in &records {
        builder.add_record(&seq.representative_bases());
    }
    let block = builder.finish();
    let mut paper_builder = IndexBuilder::new(IndexParams::new(8)).with_codec(ListCodec::Paper);
    for (_, seq) in &records {
        paper_builder.add_record(&seq.representative_bases());
    }
    let paper = paper_builder.finish();

    let dir = temp_dir("skip");
    let path = dir.join("block.nucidx");
    write_index(&block, &path).unwrap();
    let disk = CompressedIndex::open(&path).unwrap();

    let params = SearchParams {
        min_coarse_hits: 40,
        max_candidates: 500,
        ..SearchParams::default()
    };
    let baseline = coarse_rank(&paper, &query, &params).unwrap();
    let on_disk = coarse_rank(&disk, &query, &params).unwrap();
    assert_eq!(ranks(&baseline), ranks(&on_disk));
    assert_eq!(on_disk.blocks_skipped, 0);
    assert_eq!(on_disk.postings_decoded, fetched_df(&block, &query));
    assert_eq!(on_disk.postings_decoded, baseline.postings_decoded);
    assert!(on_disk.postings_bytes_read > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Full-engine parity: end-to-end search answers (records and fine
/// scores) from a block-codec database equal the paper-codec ones, and
/// the engine's stats surface the new work counters.
#[test]
fn database_answers_identical_across_codecs() {
    let coll = collection(1204);
    let records = || coll.records.iter().map(|r| (r.id.clone(), r.seq.clone()));
    let paper_db = Database::build(records(), &DbConfig::default());
    let block_db = Database::build(
        records(),
        &DbConfig {
            codec: ListCodec::Block,
            ..DbConfig::default()
        },
    );

    let query = coll.query_for_family(0, 0.6, &MutationModel::identity());
    let params = SearchParams::default();
    let tuples = |o: &nucdb::SearchOutcome| -> Vec<(u32, i32)> {
        o.results.iter().map(|r| (r.record, r.score)).collect()
    };
    let a = paper_db.search(&query, &params).unwrap();
    let b = block_db.search(&query, &params).unwrap();
    assert_eq!(tuples(&a), tuples(&b));
    assert!(!a.results.is_empty());
    assert!(b.stats.postings_bytes_read > 0);
    assert!(b.stats.blocks_decoded > 0);
    assert_eq!(a.stats.blocks_decoded, 0);
}

/// The engine also accepts a v4 file through its disk wiring, with the
/// store alongside — the serve/CLI path.
#[test]
fn engine_runs_on_a_v4_disk_index() {
    let (records, query_bases) = shared_segment_records();
    let mut builder = IndexBuilder::new(IndexParams::new(8)).with_codec(ListCodec::Block);
    let mut store = SequenceStore::new(StorageMode::DirectCoding);
    for (id, seq) in &records {
        builder.add_record(&seq.representative_bases());
        store.add(id.clone(), seq);
    }
    let dir = temp_dir("engine");
    let path = dir.join("idx.nucidx");
    let index = builder.finish();
    write_index(&index, &path).unwrap();
    let loaded = CompressedIndex::open(&path).unwrap();
    assert_eq!(loaded.codec(), ListCodec::Block);

    let db = Database::from_variants(StoreVariant::Disk(store), IndexVariant::Disk(loaded));
    let query = nucdb_seq::DnaSeq::from_ascii(
        b"ACGTAGCTAGCTGGATCCAATTGGCCAACCTGCATGCATTGCAACGGTACCTTAGGCATC",
    )
    .unwrap();
    let params = SearchParams {
        min_coarse_hits: 40,
        max_candidates: 500,
        ..SearchParams::default()
    };
    let outcome = db.search(&query, &params).unwrap();
    assert_eq!(outcome.results[0].record, 0, "target record must win");
    assert_eq!(
        outcome.stats.postings_decoded,
        fetched_df(&index, &query_bases)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
