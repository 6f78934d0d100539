//! The sharded search layer under test: scatter-gather answers must be
//! **bit-identical** to a joint single-index build (ids, scores, order)
//! for any corpus, any shard count and every codec —
//! and a set with one shard down must keep answering, with `coverage`
//! reporting the loss and the surviving shards' answers unchanged.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nucdb::{
    build_sharded_root, CoarseScratch, Collection, Database, DbConfig, IndexVariant, SearchParams,
    ShardSet, ShardSetConfig, StoreVariant,
};
use nucdb_index::{
    forge_short_record, shard_dir_name, CompressedIndex, IndexParams, ListCodec, ShardManifest,
    StopPolicy,
};
use nucdb_obs::{Forensics, ForensicsConfig, MetricsRegistry, SpanNode};
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
    ShardSet::from_databases(dbs, &MetricsRegistry::disabled()).unwrap()
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
    let set = ShardSet::open_root(&dir, ShardSetConfig, &registry).unwrap();
    assert_eq!(set.len(), 20);

    let joint = Database::build(records.clone(), &config);
    let queries: Vec<DnaSeq> = records.iter().step_by(4).map(|(_, s)| s.clone()).collect();
    let params = SearchParams::default();
    assert_eq!(
        sharded_answers(&set, &queries, &params),
        joint_answers(&joint, &queries, &params)
    );
    let _ = std::fs::remove_dir_all(&dir);

    // A stopped root: each shard drops its own frequent lists, so no
    // joint build answers like it, but it opens, and every answer is
    // its owning shard's own answer for that record (id, score, hits).
    let stopped = DbConfig {
        index: IndexParams {
            stopping: Some(StopPolicy::DfFraction(0.3)),
            ..IndexParams::new(8)
        },
        ..DbConfig::default()
    };
    let dir = temp_dir("stoppedroot");
    let counts = build_sharded_root(&dir, records.clone(), 2, &stopped).unwrap();
    let set = ShardSet::open_root(&dir, ShardSetConfig, &registry).unwrap();
    let shards: Vec<Collection> = (0..2)
        .map(|i| Collection::open(&dir.join(shard_dir_name(i)), &Default::default()).unwrap())
        .collect();
    for query in &queries {
        let answer = &sharded_answers(&set, std::slice::from_ref(query), &params)[0];
        assert!(!answer.is_empty());
        for (record, id, score, coarse_score, hits) in answer {
            let shard = usize::from(*record >= counts[0]);
            let local = record - shard as u32 * counts[0];
            let alone = shards[shard]
                .search_with_id(query, &params, &mut CoarseScratch::new(), None)
                .unwrap();
            let own = (alone.results.iter())
                .find(|r| r.record == local)
                .unwrap_or_else(|| panic!("{id} missing from shard {shard}'s own answer"));
            assert_eq!(
                (&own.id, own.score, own.coarse_score, own.coarse_hits),
                (id, *score, *coarse_score, *hits)
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sharded query does the joint build's work, not once per shard: one
/// coarse pass over the joint id space fetches each list once. Its
/// counts of lists, ids, hits and candidates equal the joint build's,
/// and the per-shard attribution sums to them. Bytes and blocks depend
/// on how each file encodes its share of a list, so they are each
/// shard's own: every shard's work is what the shard alone reads.
#[test]
fn a_sharded_query_does_the_joint_builds_work() {
    let records = corpus(60, 23);
    let queries: Vec<DnaSeq> = records.iter().step_by(4).map(|(_, s)| s.clone()).collect();
    let params = SearchParams {
        strand: nucdb::Strand::Both,
        ..SearchParams::default()
    };
    let counters = |s: &nucdb::QueryStats| {
        [
            s.intervals_looked_up,
            s.lists_fetched,
            s.postings_decoded,
            s.total_hits,
            s.candidates,
        ]
    };
    for codec in [ListCodec::Paper, ListCodec::Block] {
        let config = DbConfig {
            codec,
            ..DbConfig::default()
        };
        let joint = Database::build(records.clone(), &config);
        let parts: Vec<Database> = split(&records, 2)
            .into_iter()
            .map(|chunk| Database::build(chunk, &config))
            .collect();
        let set = sharded_set(&records, 2, &config);
        for query in &queries {
            let want = joint.search(query, &params).unwrap().stats;
            let got = set.search(query, &params).unwrap();
            assert_eq!(counters(&got.stats), counters(&want), "{codec:?}");
            let work = &got.work;
            assert_eq!(work.len(), 2);
            let sum = |field: fn(&nucdb::ShardWork) -> u64| work.iter().map(field).sum::<u64>();
            assert_eq!(sum(|w| w.ids_decoded), want.postings_decoded);
            assert_eq!(sum(|w| w.candidates), want.candidates);

            let alone: Vec<nucdb::QueryStats> = (parts.iter())
                .map(|db| db.search(query, &params).unwrap().stats)
                .collect();
            for (w, alone) in work.iter().zip(&alone) {
                assert_eq!(
                    (w.ids_decoded, w.postings_bytes_read),
                    (alone.postings_decoded, alone.postings_bytes_read),
                    "{codec:?} {}",
                    w.shard
                );
            }
            let total = |field: fn(&nucdb::QueryStats) -> u64| alone.iter().map(field).sum::<u64>();
            assert_eq!(
                got.stats.postings_bytes_read,
                total(|s| s.postings_bytes_read)
            );
            assert_eq!(got.stats.blocks_decoded, total(|s| s.blocks_decoded));
        }
    }
}

// ---------------------------------------------------------------------
// Degraded mode: one shard down — at open (truncated files) or at query
// time (postings failing their decode) — must not take the set down. The
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
            let set = ShardSet::open_root(&root, ShardSetConfig, &registry).unwrap();

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
/// decode under intact checksums opens fine but fails queries that touch
/// them; the set answers degraded and `nucdb_shard_errors_total` bumps
/// for exactly that shard.
#[test]
fn query_time_shard_error_degrades_and_bumps_the_metric() {
    let records = corpus(18, 7);
    let config = DbConfig::default();
    let dir = temp_dir("qfault");
    build_sharded_root(&dir, records.clone(), 3, &config).unwrap();

    let registry = MetricsRegistry::new();
    let mut dbs = Vec::new();
    for i in 0..3usize {
        let shard_dir = dir.join(shard_dir_name(i));
        let idx = shard_dir.join("index.nucidx");
        let sto = shard_dir.join("store.nucsto");
        if i == 1 {
            // Shard 1's header says its record 1 (global record 7) is
            // one base long, under restamped checksums: the shard opens,
            // and dies only when a query decodes that record's lists.
            forge_short_record(&idx, 1).unwrap();
        }
        let index = CompressedIndex::open(&idx).unwrap();
        let store = nucdb::SequenceStore::open(&sto).unwrap();
        dbs.push(Database::from_variants(
            StoreVariant::Disk(store),
            IndexVariant::Disk(index),
        ));
    }
    let set = ShardSet::from_databases(dbs, &registry).unwrap();

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
    // The failure names the list's file offset in the shard's index.
    let index = CompressedIndex::open(&dir.join("shard-001").join("index.nucidx")).unwrap();
    let error = &outcome.failures[0].error;
    assert!(
        (index.vocab().iter())
            .any(|entry| error.contains(&format!("byte {})", index.blob_start() + entry.offset))),
        "{error}"
    );

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
    let set = ShardSet::open_root(&dir, ShardSetConfig, &registry).unwrap();
    assert!(set.search(&dna(60, 1), &SearchParams::default()).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sharded query's span tree nests like a single database's: the
/// shards' coarse stage times are summed into one `coarse` span, so
/// they must add up to no more than that span's wall time, and every
/// child must end within it.
#[test]
fn sharded_coarse_spans_nest_within_their_parent() {
    let records = corpus(120, 5);
    let queries: Vec<DnaSeq> = records.iter().step_by(10).map(|(_, s)| s.clone()).collect();
    let dbs = split(&records, 2)
        .into_iter()
        .map(|chunk| Database::build(chunk, &DbConfig::default()))
        .collect();
    let mut set = ShardSet::from_databases(dbs, &MetricsRegistry::disabled()).unwrap();
    let forensics = Forensics::new(ForensicsConfig::default());
    set.set_forensics(forensics.clone());
    for query in &queries {
        set.search(query, &SearchParams::default()).unwrap();
    }

    fn check(node: &SpanNode, coarse_spans: &mut usize) {
        if node.name == "coarse" {
            *coarse_spans += 1;
            let end = node.start_ns + node.dur_ns;
            let children: u64 = node.children.iter().map(|c| c.dur_ns).sum();
            assert!(
                children <= node.dur_ns,
                "coarse children sum to {children} ns > span {} ns",
                node.dur_ns
            );
            for child in &node.children {
                assert!(
                    child.start_ns >= node.start_ns && child.start_ns + child.dur_ns <= end,
                    "{} [{}, +{}] outside coarse [{}, {end}]",
                    child.name,
                    child.start_ns,
                    child.dur_ns,
                    node.start_ns
                );
            }
        }
        for child in &node.children {
            check(child, coarse_spans);
        }
    }
    let entries = forensics.recent();
    assert_eq!(entries.len(), queries.len());
    let mut coarse_spans = 0;
    for entry in &entries {
        check(&entry.trace.root, &mut coarse_spans);
    }
    // One per query: the default params search the forward strand.
    assert_eq!(coarse_spans, queries.len());
}

/// Four threads share one set, each with its own scratch, through the
/// front ends' entry point: the calls overlap, every answer equals the
/// joint build's, and the per-shard phase counter misses no phase.
#[test]
fn concurrent_callers_on_one_set_match_the_joint_build() {
    const THREADS: u64 = 4;
    let records = corpus(60, 17);
    let config = DbConfig::default();
    let queries: Vec<DnaSeq> = records.iter().step_by(3).map(|(_, s)| s.clone()).collect();
    let params = SearchParams::default();
    let joint = Database::build(records.clone(), &config);
    let want: Vec<Vec<(u32, i32)>> = joint_answers(&joint, &queries, &params)
        .into_iter()
        .map(|answer| answer.into_iter().map(|(r, _, s, _, _)| (r, s)).collect())
        .collect();

    let registry = MetricsRegistry::new();
    let dbs = split(&records, 2)
        .into_iter()
        .map(|chunk| Database::build(chunk, &config))
        .collect();
    let collection =
        Collection::Sharded(Arc::new(ShardSet::from_databases(dbs, &registry).unwrap()));
    let phases = || -> u64 {
        (0..2)
            .map(|i| {
                registry
                    .counter_with(
                        "nucdb_shard_queries_total",
                        "",
                        &[("shard", &shard_dir_name(i))],
                    )
                    .get()
            })
            .sum()
    };
    let run_all = |scratch: &mut CoarseScratch| -> Vec<Vec<(u32, i32)>> {
        queries
            .iter()
            .map(|q| {
                let outcome = collection
                    .search_with_id(q, &params, scratch, None)
                    .unwrap();
                assert!(outcome.coverage.unwrap().coverage.is_full());
                outcome
                    .results
                    .iter()
                    .map(|r| (r.record, r.score))
                    .collect()
            })
            .collect()
    };

    // One pass alone fixes how many phases the query list dispatches:
    // coarse on both shards, fine on the shards owning winners.
    assert_eq!(run_all(&mut CoarseScratch::new()), want);
    let per_pass = phases();
    assert!(per_pass > 2 * queries.len() as u64, "{per_pass}");

    let start = std::sync::Barrier::new(THREADS as usize);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let mut scratch = CoarseScratch::new();
                    start.wait();
                    run_all(&mut scratch)
                })
            })
            .collect();
        for handle in handles {
            assert_eq!(handle.join().unwrap(), want);
        }
    });
    assert_eq!(phases(), (THREADS + 1) * per_pass);
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
