//! The live-ingestion subsystem under test: manifest durability (every
//! single-byte flip and every truncation of `MANIFEST` must fail cleanly
//! or load identically — never panic, never load silently wrong),
//! crash recovery between flush and manifest swap, orphan cleanup, and
//! the core search contract — a multi-segment live database answers
//! **bit-identically** to a single joint-build index over the same
//! records, at any flush split, across codecs,
//! before and after compaction, and across a reopen.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use nucdb::{Database, DbConfig, LiveDatabase, LiveOptions, SearchParams};
use nucdb_index::{IndexParams, ListCodec, Manifest, MANIFEST_FILE};
use nucdb_seq::random::{CollectionSpec, MutationModel, SyntheticCollection};
use nucdb_seq::DnaSeq;
use proptest::prelude::*;

static DIR_NONCE: AtomicU64 = AtomicU64::new(0);

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "nucdb_segments_{name}_{}_{}",
        std::process::id(),
        DIR_NONCE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn collection(seed: u64) -> SyntheticCollection {
    SyntheticCollection::generate(&CollectionSpec::tiny(seed))
}

fn records_of(coll: &SyntheticCollection) -> Vec<(String, DnaSeq)> {
    coll.records
        .iter()
        .map(|r| (r.id.clone(), r.seq.clone()))
        .collect()
}

/// Build a live directory holding two real segments plus memtable leftovers.
fn two_segment_live(name: &str) -> (PathBuf, SyntheticCollection) {
    let coll = collection(4242);
    let dir = temp_dir(name);
    let live = LiveDatabase::create(&dir, &DbConfig::default(), LiveOptions::default()).unwrap();
    let records = records_of(&coll);
    let half = records.len() / 2;
    live.insert_batch(records[..half].to_vec()).unwrap();
    live.flush().unwrap();
    live.insert_batch(records[half..].to_vec()).unwrap();
    live.flush().unwrap();
    (dir, coll)
}

// ---------------------------------------------------------------------
// Manifest durability: exhaustive single-byte-flip and truncation
// sweeps. The manifest is small, so the sweeps are cheap.
// ---------------------------------------------------------------------

#[test]
fn manifest_survives_every_single_byte_flip() {
    let (dir, _) = two_segment_live("manflip");
    let path = dir.join(MANIFEST_FILE);
    let pristine_bytes = std::fs::read(&path).unwrap();
    let pristine = Manifest::load(&dir).unwrap();
    assert_eq!(pristine.segments.len(), 2);

    for offset in 0..pristine_bytes.len() {
        let mut mutated = pristine_bytes.clone();
        mutated[offset] ^= 0xFF;
        std::fs::write(&path, &mutated).unwrap();
        match catch_unwind(AssertUnwindSafe(|| Manifest::load(&dir))) {
            Err(_) => panic!("Manifest::load panicked with byte {offset} flipped"),
            Ok(Err(_)) => {} // clean typed error: acceptable
            Ok(Ok(loaded)) => assert_eq!(
                loaded, pristine,
                "byte {offset} flip loaded successfully but changed the manifest"
            ),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn manifest_survives_every_truncation() {
    let (dir, _) = two_segment_live("mantrunc");
    let path = dir.join(MANIFEST_FILE);
    let pristine = std::fs::read(&path).unwrap();

    for cut in 0..pristine.len() {
        std::fs::write(&path, &pristine[..cut]).unwrap();
        match catch_unwind(AssertUnwindSafe(|| Manifest::load(&dir))) {
            Err(_) => panic!("Manifest::load panicked on truncation at {cut}"),
            Ok(result) => assert!(
                result.is_err(),
                "truncation at {cut} of {} loaded successfully",
                pristine.len()
            ),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Crash recovery: a crash after segment files land but before the new
// manifest is swapped in must leave a directory that opens on the OLD
// manifest, with the unreferenced files cleaned up.
// ---------------------------------------------------------------------

#[test]
fn crash_between_flush_and_manifest_swap_recovers_on_the_old_manifest() {
    let coll = collection(77);
    let dir = temp_dir("crash");
    let records = records_of(&coll);
    let half = records.len() / 2;

    let live = LiveDatabase::create(&dir, &DbConfig::default(), LiveOptions::default()).unwrap();
    live.insert_batch(records[..half].to_vec()).unwrap();
    live.flush().unwrap();
    let manifest_before = std::fs::read(dir.join(MANIFEST_FILE)).unwrap();

    // Second flush writes seg files AND the new manifest; rolling the
    // manifest back reproduces the exact on-disk state of a crash after
    // the segment files were written but before the manifest swap.
    live.insert_batch(records[half..].to_vec()).unwrap();
    live.flush().unwrap();
    drop(live);
    std::fs::write(dir.join(MANIFEST_FILE), &manifest_before).unwrap();
    // A stale atomic-write temp from the "crashed" swap rides along.
    std::fs::write(dir.join(format!("{MANIFEST_FILE}.tmp.1.2")), b"partial").unwrap();

    let reopened = LiveDatabase::open(&dir, LiveOptions::default()).unwrap();
    let status = reopened.status();
    assert_eq!(status.segments.len(), 1, "old manifest names one segment");
    assert_eq!(
        reopened.snapshot().len(),
        half,
        "only flushed-and-committed records remain"
    );
    assert!(
        status.orphans_removed >= 3,
        "orphaned seg pair + stale temp must be removed, got {}",
        status.orphans_removed
    );
    let leftovers: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.contains(".tmp.") || name.contains("seg-000001"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "stray files after recovery: {leftovers:?}"
    );

    // The recovered database accepts new inserts and flushes cleanly.
    reopened.insert_batch(records[half..].to_vec()).unwrap();
    reopened.flush().unwrap();
    assert_eq!(reopened.snapshot().len(), records.len());

    // And it answers like a joint rebuild over the same records.
    let joint = Database::build(records, &DbConfig::default());
    let query = coll.query_for_family(0, 0.7, &MutationModel::substitutions(0.05));
    let got: Vec<(u32, i32)> = reopened
        .snapshot()
        .search(&query, &SearchParams::default())
        .unwrap()
        .results
        .iter()
        .map(|r| (r.record, r.score))
        .collect();
    let want: Vec<(u32, i32)> = joint
        .search(&query, &SearchParams::default())
        .unwrap()
        .results
        .iter()
        .map(|r| (r.record, r.score))
        .collect();
    assert_eq!(got, want);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn readonly_open_answers_like_the_live_view() {
    let (dir, coll) = two_segment_live("readonly");
    let live = LiveDatabase::open(&dir, LiveOptions::default()).unwrap();
    let readonly = LiveDatabase::open_readonly(&dir, &nucdb_obs::MetricsRegistry::new()).unwrap();
    assert_eq!(readonly.len(), live.snapshot().len());
    let params = SearchParams::default();
    for family in 0..coll.families.len() {
        let query = coll.query_for_family(family, 0.7, &MutationModel::substitutions(0.05));
        let got: Vec<(u32, i32)> = readonly
            .search(&query, &params)
            .unwrap()
            .results
            .iter()
            .map(|r| (r.record, r.score))
            .collect();
        let want: Vec<(u32, i32)> = live
            .snapshot()
            .search(&query, &params)
            .unwrap()
            .results
            .iter()
            .map(|r| (r.record, r.score))
            .collect();
        assert_eq!(got, want, "family {family} diverged in the read-only view");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_segment_file_fails_to_open_cleanly() {
    let (dir, _) = two_segment_live("missingseg");
    std::fs::remove_file(dir.join("seg-000001.nucidx")).unwrap();
    match catch_unwind(AssertUnwindSafe(|| {
        LiveDatabase::open(&dir, LiveOptions::default())
    })) {
        Err(_) => panic!("open panicked on a missing segment file"),
        Ok(result) => assert!(result.is_err(), "open succeeded without seg-000001.nucidx"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// The identity contract, pinned by proptest: for ANY record stream, ANY
// flush split, ANY codec, a live database answers every
// query bit-identically to one joint-built index — from the memtable,
// from multiple segments, after compaction, and across a reopen.
// ---------------------------------------------------------------------

fn dna(len: usize, seed: u64) -> DnaSeq {
    // Cheap deterministic bases; variety comes from len + seed.
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let ascii: Vec<u8> = (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            b"ACGT"[(state >> 33) as usize % 4]
        })
        .collect();
    DnaSeq::from_ascii(&ascii).unwrap()
}

fn answers(
    db: &Database,
    queries: &[DnaSeq],
    params: &SearchParams,
) -> Vec<Vec<(u32, String, i32, f64)>> {
    queries
        .iter()
        .map(|q| {
            db.search(q, params)
                .unwrap()
                .results
                .iter()
                .map(|r| (r.record, r.id.clone(), r.score, r.coarse_score))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn any_flush_split_matches_the_joint_build(
        lens in prop::collection::vec(30usize..90, 6..24),
        flush_mask in prop::collection::vec(any::<bool>(), 24),
        memtable_max in 4usize..12,
        codec_pick in 0usize..2,
        seed in any::<u64>(),
    ) {
        let codec = [ListCodec::Paper, ListCodec::Block][codec_pick];
        let config = DbConfig {
            index: IndexParams::new(8),
            codec,
            ..DbConfig::default()
        };
        let records: Vec<(String, DnaSeq)> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| (format!("r{i}"), dna(len, seed.wrapping_add(i as u64))))
            .collect();
        // Queries: a few of the records themselves — guaranteed strong
        // local alignments, so result lists are non-trivial.
        let queries: Vec<DnaSeq> = records.iter().step_by(3).map(|(_, s)| s.clone()).collect();
        let params = SearchParams::default();
        let joint = Database::build(records.clone(), &config);
        let want = answers(&joint, &queries, &params);

        let dir = temp_dir("prop");
        let opts = LiveOptions { memtable_max_records: memtable_max, ..LiveOptions::default() };
        let live = LiveDatabase::create(&dir, &config, opts.clone()).unwrap();
        for (i, record) in records.iter().enumerate() {
            live.insert(record.0.clone(), &record.1).unwrap();
            if flush_mask[i % flush_mask.len()] {
                live.flush().unwrap();
            }
        }
        // Memtable + segments, wherever the flush split landed:
        prop_assert_eq!(&answers(&live.snapshot(), &queries, &params), &want);

        // After compaction to quiescence:
        live.flush().unwrap();
        live.compact_all().unwrap();
        prop_assert_eq!(&answers(&live.snapshot(), &queries, &params), &want);

        // And across a reopen from the manifest:
        drop(live);
        let reopened = LiveDatabase::open(&dir, opts).unwrap();
        prop_assert_eq!(&answers(&reopened.snapshot(), &queries, &params), &want);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
