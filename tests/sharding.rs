//! The sharded search layer under test: scatter-gather answers must be
//! **bit-identical** to a joint single-index build (ids, scores, order)
//! for any corpus, any shard count and every codec —
//! and a set with one shard down must keep answering, with `coverage`
//! reporting the loss and the surviving shards' answers unchanged.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nucdb::{
    build_sharded_root, Database, DbConfig, IndexVariant, LocalShard, SearchParams, Shard,
    ShardSet, ShardSetConfig, StoreVariant,
};
use nucdb_index::{
    shard_dir_name, CompressedIndex, FaultPlan, IndexParams, ListCodec, ShardManifest,
};
use nucdb_obs::MetricsRegistry;
use nucdb_seq::DnaSeq;
use proptest::prelude::*;

static DIR_NONCE: AtomicU64 = AtomicU64::new(0);

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "nucdb_sharding_{name}_{}_{}",
        std::process::id(),
        DIR_NONCE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn dna(len: usize, seed: u64) -> DnaSeq {
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

fn corpus(n: usize, seed: u64) -> Vec<(String, DnaSeq)> {
    (0..n)
        .map(|i| {
            (
                format!("r{i}"),
                dna(40 + (i * 13) % 50, seed.wrapping_add(i as u64)),
            )
        })
        .collect()
}

/// Split `records` into `n` contiguous chunks exactly like
/// `build_sharded_root`: shard i gets records [i*len/n, (i+1)*len/n).
fn split(records: &[(String, DnaSeq)], n: usize) -> Vec<Vec<(String, DnaSeq)>> {
    (0..n)
        .map(|i| records[i * records.len() / n..(i + 1) * records.len() / n].to_vec())
        .collect()
}

fn sharded_set(records: &[(String, DnaSeq)], n: usize, config: &DbConfig) -> ShardSet {
    let dbs = split(records, n)
        .into_iter()
        .map(|chunk| Database::build(chunk, config))
        .collect();
    ShardSet::from_databases(dbs, ShardSetConfig::default(), &MetricsRegistry::disabled()).unwrap()
}

type Answer = Vec<(u32, String, i32, f64, u32)>;

fn joint_answers(db: &Database, queries: &[DnaSeq], params: &SearchParams) -> Vec<Answer> {
    queries
        .iter()
        .map(|q| {
            db.search(q, params)
                .unwrap()
                .results
                .iter()
                .map(|r| {
                    (
                        r.record,
                        r.id.clone(),
                        r.score,
                        r.coarse_score,
                        r.coarse_hits,
                    )
                })
                .collect()
        })
        .collect()
}

fn sharded_answers(set: &ShardSet, queries: &[DnaSeq], params: &SearchParams) -> Vec<Answer> {
    queries
        .iter()
        .map(|q| {
            let outcome = set.search(q, params).unwrap();
            assert!(outcome.coverage.is_full(), "unexpected degraded answer");
            outcome
                .results
                .iter()
                .map(|r| {
                    (
                        r.record,
                        r.id.clone(),
                        r.score,
                        r.coarse_score,
                        r.coarse_hits,
                    )
                })
                .collect()
        })
        .collect()
}

// ---------------------------------------------------------------------
// The identity contract, pinned by proptest: for ANY record stream, ANY
// shard count 1..=5, every codec, both strands,
// scatter-gather answers are bit-identical to a joint build.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn any_shard_count_matches_the_joint_build(
        lens in prop::collection::vec(30usize..90, 6..24),
        num_shards in 1usize..=5,
        codec_pick in 0usize..2,
        both_strands in any::<bool>(),
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
        let queries: Vec<DnaSeq> = records.iter().step_by(3).map(|(_, s)| s.clone()).collect();
        let params = SearchParams {
            strand: if both_strands {
                nucdb::Strand::Both
            } else {
                nucdb::Strand::Forward
            },
            ..SearchParams::default()
        };
        let joint = Database::build(records.clone(), &config);
        let want = joint_answers(&joint, &queries, &params);

        let set = sharded_set(&records, num_shards, &config);
        prop_assert_eq!(&sharded_answers(&set, &queries, &params), &want);
    }
}

// ---------------------------------------------------------------------
// The on-disk path: `build_sharded_root` + `ShardSet::open_root` answer
// exactly like the joint build, and the SHARDS manifest accounts for
// every record.
// ---------------------------------------------------------------------

#[test]
fn disk_root_matches_the_joint_build() {
    let records = corpus(20, 11);
    let config = DbConfig::default();
    let dir = temp_dir("diskroot");
    let counts = build_sharded_root(&dir, records.clone(), 3, &config).unwrap();
    assert_eq!(counts.iter().map(|&c| c as usize).sum::<usize>(), 20);

    let manifest = ShardManifest::load(&dir).unwrap();
    assert_eq!(manifest.shards.len(), 3);
    assert_eq!(manifest.total_records(), 20);

    let registry = MetricsRegistry::new();
    let set = ShardSet::open_root(&dir, ShardSetConfig::default(), &registry).unwrap();
    assert_eq!(set.len(), 20);

    let joint = Database::build(records.clone(), &config);
    let queries: Vec<DnaSeq> = records.iter().step_by(4).map(|(_, s)| s.clone()).collect();
    let params = SearchParams::default();
    assert_eq!(
        sharded_answers(&set, &queries, &params),
        joint_answers(&joint, &queries, &params)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Degraded mode: one shard down — at open (truncated files) or at query
// time (postings failing their checksums) — must not take the set down. The
// surviving shards answer exactly as a set built from them alone,
// coverage reports the loss, and the per-shard error metric bumps.
// ---------------------------------------------------------------------

/// Exhaustive one-shard-down sweep: for every shard count and every
/// downed shard, the degraded answers match (by external id and score)
/// a joint build over the surviving records.
#[test]
fn one_shard_down_sweep_keeps_surviving_answers() {
    let records = corpus(24, 99);
    let config = DbConfig::default();
    let queries: Vec<DnaSeq> = records.iter().step_by(5).map(|(_, s)| s.clone()).collect();
    let params = SearchParams::default();

    for n in 2..=4usize {
        let dir = temp_dir(&format!("sweep{n}"));
        build_sharded_root(&dir, records.clone(), n, &config).unwrap();
        for down in 0..n {
            // Truncating the downed shard's index makes it dead at open.
            let root = temp_dir(&format!("sweep{n}_{down}"));
            copy_tree(&dir, &root);
            let victim = root.join(shard_dir_name(down)).join("index.nucidx");
            let bytes = std::fs::read(&victim).unwrap();
            std::fs::write(&victim, &bytes[..8]).unwrap();

            let registry = MetricsRegistry::new();
            let set = ShardSet::open_root(&root, ShardSetConfig::default(), &registry).unwrap();

            // The expected degraded answer: a joint build over every
            // record the surviving shards hold.
            let chunks = split(&records, n);
            let surviving: Vec<(String, DnaSeq)> = chunks
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != down)
                .flat_map(|(_, c)| c.clone())
                .collect();
            let joint = Database::build(surviving, &config);

            for query in &queries {
                let outcome = set.search(query, &params).unwrap();
                assert_eq!(
                    outcome.coverage,
                    nucdb::Coverage {
                        shards_ok: n - 1,
                        shards_total: n
                    },
                    "n={n} down={down}"
                );
                assert_eq!(outcome.failures.len(), 1);
                assert_eq!(outcome.failures[0].shard, shard_dir_name(down));
                // Global record ids differ between the two numberings,
                // but external ids and scores must match exactly, in
                // order.
                let got: Vec<(String, i32)> = outcome
                    .results
                    .iter()
                    .map(|r| (r.id.clone(), r.score))
                    .collect();
                let want: Vec<(String, i32)> = joint
                    .search(query, &params)
                    .unwrap()
                    .results
                    .iter()
                    .map(|r| (r.id.clone(), r.score))
                    .collect();
                assert_eq!(got, want, "n={n} down={down}");
            }
            let _ = std::fs::remove_dir_all(&root);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Query-time corruption, per shard: a shard whose postings fail their
/// checksums opens fine but fails queries that touch it; the set answers
/// degraded and `nucdb_shard_errors_total` bumps for exactly that shard.
#[test]
fn query_time_shard_error_degrades_and_bumps_the_metric() {
    let records = corpus(18, 7);
    let config = DbConfig::default();
    let dir = temp_dir("qfault");
    build_sharded_root(&dir, records.clone(), 3, &config).unwrap();

    let registry = MetricsRegistry::new();
    let mut shards: Vec<Arc<dyn Shard>> = Vec::new();
    for i in 0..3usize {
        let shard_dir = dir.join(shard_dir_name(i));
        let idx = shard_dir.join("index.nucidx");
        let sto = shard_dir.join("store.nucsto");
        let index = if i == 1 {
            // Shard 1's postings all fail their checksums: a bit flip in
            // every blob byte as the image is read. The header comes from
            // the pristine file, so the shard opens and dies only when a
            // query touches it.
            let blob_start = CompressedIndex::open(&idx).unwrap().blob_start();
            let len = std::fs::metadata(&idx).unwrap().len();
            let flips = (blob_start..len).map(|at| (at, 0x01)).collect();
            CompressedIndex::open_faulty(&idx, FaultPlan::clean(1).with_bit_flips(flips)).unwrap()
        } else {
            CompressedIndex::open(&idx).unwrap()
        };
        let store = nucdb::SequenceStore::open(&sto).unwrap();
        let db = Database::from_variants(StoreVariant::Disk(store), IndexVariant::Disk(index));
        shards.push(Arc::new(LocalShard::new(shard_dir_name(i), db)));
    }
    let set = ShardSet::assemble(shards, Vec::new(), ShardSetConfig::default(), &registry).unwrap();

    // A query that IS a record of the faulted shard: its own intervals
    // are in that shard's vocabulary, so coarse search must fetch there
    // and hit the fault deterministically.
    let shard1_query = records[7].1.clone(); // records 6..12 land on shard 1
    let outcome = set.search(&shard1_query, &SearchParams::default()).unwrap();
    assert_eq!(outcome.coverage.shards_ok, 2);
    assert_eq!(outcome.coverage.shards_total, 3);
    assert!(outcome.coverage.fraction() < 1.0);
    assert_eq!(outcome.failures.len(), 1);
    assert_eq!(outcome.failures[0].shard, "shard-001");

    let errors = registry
        .counter_with("nucdb_shard_errors_total", "", &[("shard", "shard-001")])
        .get();
    assert!(errors >= 1, "shard-001 error counter not bumped");
    for ok_shard in ["shard-000", "shard-002"] {
        let clean = registry
            .counter_with("nucdb_shard_errors_total", "", &[("shard", ok_shard)])
            .get();
        assert_eq!(clean, 0, "{ok_shard} wrongly charged an error");
    }

    // No result may come from the failed shard, and survivors' answers
    // match a joint build over their records.
    let surviving: Vec<(String, DnaSeq)> = split(&records, 3)
        .into_iter()
        .enumerate()
        .filter(|(i, _)| *i != 1)
        .flat_map(|(_, c)| c)
        .collect();
    let joint = Database::build(surviving, &config);
    let got: Vec<(String, i32)> = outcome
        .results
        .iter()
        .map(|r| (r.id.clone(), r.score))
        .collect();
    let want: Vec<(String, i32)> = joint
        .search(&shard1_query, &SearchParams::default())
        .unwrap()
        .results
        .iter()
        .map(|r| (r.id.clone(), r.score))
        .collect();
    assert_eq!(got, want);
    let _ = std::fs::remove_dir_all(&dir);
}

/// All shards down is the only total failure: the query errors instead
/// of returning an empty success.
#[test]
fn all_shards_down_is_an_error() {
    let records = corpus(10, 3);
    let dir = temp_dir("alldown");
    build_sharded_root(&dir, records, 2, &DbConfig::default()).unwrap();
    for i in 0..2 {
        let victim = dir.join(shard_dir_name(i)).join("index.nucidx");
        let bytes = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, &bytes[..4]).unwrap();
    }
    let registry = MetricsRegistry::new();
    let set = ShardSet::open_root(&dir, ShardSetConfig::default(), &registry).unwrap();
    assert!(set.search(&dna(60, 1), &SearchParams::default()).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Hedging at the planner level: a delayed primary worker loses the
/// race to the undelayed hedge replica, answers stay bit-identical, and
/// the hedge counters tick.
#[test]
fn hedge_overtakes_a_delayed_shard_bit_identically() {
    let records = corpus(16, 21);
    let config = DbConfig::default();
    let queries: Vec<DnaSeq> = records.iter().step_by(4).map(|(_, s)| s.clone()).collect();
    let params = SearchParams::default();
    let joint = Database::build(records.clone(), &config);
    let want = joint_answers(&joint, &queries, &params);

    let registry = MetricsRegistry::new();
    let dbs = split(&records, 2)
        .into_iter()
        .map(|chunk| Database::build(chunk, &config))
        .collect();
    let set_config = ShardSetConfig {
        hedge_after: Some(std::time::Duration::from_millis(20)),
        ..ShardSetConfig::default()
    };
    let set = ShardSet::from_databases(dbs, set_config, &registry).unwrap();
    // Shard 0's primary sleeps 400ms per phase; the hedge fires at 20ms
    // and answers identically long before the primary wakes.
    set.inject_delay_ns(0, 400_000_000);

    assert_eq!(sharded_answers(&set, &queries, &params), want);

    let hedges = registry
        .counter_with("nucdb_shard_hedges_total", "", &[("shard", "shard-000")])
        .get();
    assert!(hedges >= 1, "no hedge was dispatched for the slow shard");
    let wins = registry
        .counter_with(
            "nucdb_shard_hedge_wins_total",
            "",
            &[("shard", "shard-000")],
        )
        .get();
    assert!(wins >= 1, "the hedge replica never won the race");
}

/// A shard past its per-phase deadline is dropped from the answer with
/// a timeout failure; the survivors still answer.
#[test]
fn deadline_expiry_degrades_instead_of_hanging() {
    let records = corpus(12, 33);
    let config = DbConfig::default();
    let registry = MetricsRegistry::new();
    let dbs = split(&records, 2)
        .into_iter()
        .map(|chunk| Database::build(chunk, &config))
        .collect();
    let set_config = ShardSetConfig {
        shard_deadline: std::time::Duration::from_millis(50),
        hedge_after: None, // no hedge: the delay must hit the deadline
    };
    let set = ShardSet::from_databases(dbs, set_config, &registry).unwrap();
    set.inject_delay_ns(1, 400_000_000);

    let outcome = set.search(&records[0].1, &SearchParams::default()).unwrap();
    assert_eq!(outcome.coverage.shards_ok, 1);
    assert_eq!(outcome.coverage.shards_total, 2);
    assert!(outcome.failures[0].error.contains("deadline"));
    let timeouts = registry
        .counter_with("nucdb_shard_timeouts_total", "", &[("shard", "shard-001")])
        .get();
    assert!(timeouts >= 1, "timeout counter not bumped");
}

fn copy_tree(from: &Path, to: &Path) {
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            std::fs::create_dir_all(&target).unwrap();
            copy_tree(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).unwrap();
        }
    }
}
