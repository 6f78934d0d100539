//! One corpus, every deployment shape, one entry point. The same records
//! written as a plain directory, a live directory (flushed segments plus
//! a memtable flushed last, reopened read-only), and sharded roots of 2
//! and 3 are each opened through [`Collection::open`] — the single
//! detection entry point — and must answer identically; and in every
//! shape a request id handed to `search_with_id` must come back in the
//! flight recorder under a `query` root with `coarse`, `fine` and
//! `strand_merge` children, because all of them run the same driver.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use nucdb::{
    build_sharded_root, CoarseScratch, Collection, CollectionOptions, Database, DbConfig,
    LiveDatabase, LiveOptions, SearchParams, Shape, Strand,
};
use nucdb_obs::{Forensics, ForensicsConfig, MetricsRegistry};
use nucdb_seq::random::{CollectionSpec, MutationModel, SyntheticCollection};
use nucdb_seq::DnaSeq;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nucdb_shapes_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_plain(dir: &Path, records: &[(String, DnaSeq)], config: &DbConfig) {
    Database::build(records.to_vec(), config)
        .with_disk_index(&dir.join(nucdb::INDEX_FILE))
        .unwrap()
        .with_disk_store(&dir.join(nucdb::STORE_FILE))
        .unwrap();
}

/// Three flushed segments; the last one sits in a non-empty memtable
/// (and is searchable there) before its flush.
fn write_live(dir: &Path, records: &[(String, DnaSeq)], config: &DbConfig) {
    let live = LiveDatabase::create(dir, config, LiveOptions::default()).unwrap();
    let third = records.len() / 3;
    for chunk in [&records[..third], &records[third..2 * third]] {
        live.insert_batch(chunk.to_vec()).unwrap();
        assert!(live.flush().unwrap());
    }
    live.insert_batch(records[2 * third..].to_vec()).unwrap();
    let status = live.status();
    assert_eq!(status.segments.len(), 2);
    assert!(status.memtable_records > 0);
    assert_eq!(live.snapshot().len(), records.len());
    assert!(live.flush().unwrap());
}

type Answer = Vec<(u32, String, i32, Strand)>;

#[test]
fn every_shape_answers_identically_and_traces_through_one_driver() {
    let coll = SyntheticCollection::generate(&CollectionSpec {
        seed: 2020,
        num_background: 60,
        num_families: 4,
        family_size: 3,
        ..CollectionSpec::default()
    });
    let records: Vec<(String, DnaSeq)> = coll
        .records
        .iter()
        .map(|r| (r.id.clone(), r.seq.clone()))
        .collect();
    let queries: Vec<DnaSeq> = (0..coll.families.len())
        .map(|f| coll.query_for_family(f, 0.5, &MutationModel::standard(0.05)))
        .collect();
    let config = DbConfig::default();
    let params = SearchParams {
        strand: Strand::Both,
        ..SearchParams::default()
    };

    let root = temp_dir("matrix");
    let shapes = [
        ("plain", Shape::Plain),
        ("live", Shape::Live),
        ("shards2", Shape::Sharded),
        ("shards3", Shape::Sharded),
    ];
    for (name, _) in shapes {
        std::fs::create_dir_all(root.join(name)).unwrap();
    }
    write_plain(&root.join("plain"), &records, &config);
    write_live(&root.join("live"), &records, &config);
    build_sharded_root(&root.join("shards2"), records.clone(), 2, &config).unwrap();
    build_sharded_root(&root.join("shards3"), records.clone(), 3, &config).unwrap();

    let mut reference: Option<Vec<Answer>> = None;
    for (name, shape) in shapes {
        let dir = root.join(name);
        assert_eq!(Shape::of(&dir), shape, "{name}");
        let forensics = Forensics::new(ForensicsConfig::default());
        let collection = Collection::open(
            &dir,
            &CollectionOptions {
                registry: Arc::new(MetricsRegistry::new()),
                forensics: forensics.clone(),
            },
        )
        .unwrap();
        assert_eq!(collection.len(), records.len(), "{name}");
        assert_eq!(
            collection.as_sharded().is_some(),
            shape == Shape::Sharded,
            "{name}"
        );

        let mut scratch = CoarseScratch::new();
        let answers: Vec<Answer> = queries
            .iter()
            .enumerate()
            .map(|(i, query)| {
                let id = format!("{name}-q{i}");
                let outcome = collection
                    .search_with_id(query, &params, &mut scratch, Some(&id))
                    .unwrap();
                assert_eq!(
                    outcome.coverage.is_some(),
                    shape == Shape::Sharded,
                    "{name}"
                );
                assert!(outcome.coverage.is_none_or(|c| c.coverage.is_full()));
                outcome
                    .results
                    .iter()
                    .map(|r| (r.record, r.id.clone(), r.score, r.strand))
                    .collect()
            })
            .collect();
        assert!(answers.iter().all(|a| !a.is_empty()), "{name}");
        match &reference {
            None => reference = Some(answers),
            Some(want) => assert_eq!(&answers, want, "{name} differs from the plain directory"),
        }

        // The request id reappears in the recorder, on the driver's tree.
        let entries = collection.forensics().recent();
        assert_eq!(entries.len(), queries.len(), "{name}");
        for i in 0..queries.len() {
            let id = format!("{name}-q{i}");
            let entry = entries
                .iter()
                .find(|e| e.trace.request_id == id)
                .unwrap_or_else(|| panic!("{id} not in the flight recorder"));
            assert_eq!(entry.trace.root.name, "query");
            let children: Vec<&str> = entry
                .trace
                .root
                .children
                .iter()
                .map(|c| c.name.as_str())
                .collect();
            // Both strands: coarse, fine, coarse, fine, then the merge.
            assert_eq!(
                children,
                ["coarse", "fine", "coarse", "fine", "strand_merge"],
                "{id}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// One strand's plan reduced to what must not depend on partitioning:
/// per list `(code, qlen, df, ids_decoded, absent)`, and the survivors.
type StrandPlan = (Vec<(u64, u32, u32, u64, bool)>, Vec<(u32, u32, u32, i64)>);

fn strand_plans(plan: &nucdb::ExplainPlan) -> Vec<StrandPlan> {
    plan.strands
        .iter()
        .map(|strand| {
            let c = &strand.coarse;
            (
                (c.lists.iter())
                    .map(|l| (l.code, l.qlen, l.df, l.ids_decoded, l.absent))
                    .collect(),
                (c.survivors.iter())
                    .map(|s| (s.record, s.hits, s.frame_hits, s.best_diagonal))
                    .collect(),
            )
        })
        .collect()
}

/// Explain over a shard set is the driver's one plan: each strand's
/// lists, summed over the shards, and its survivors, the merged global
/// candidates, equal the joint build's; there is one segment row per
/// shard; and answers are bit-identical with explain on and off, clean
/// or degraded by a shard whose lists fail their decode.
#[test]
fn sharded_plans_match_the_joint_plan() {
    let coll = SyntheticCollection::generate(&CollectionSpec {
        seed: 2044,
        num_background: 40,
        num_families: 3,
        family_size: 3,
        ..CollectionSpec::default()
    });
    let records: Vec<(String, DnaSeq)> = coll
        .records
        .iter()
        .map(|r| (r.id.clone(), r.seq.clone()))
        .collect();
    let config = DbConfig::default();
    let root = temp_dir("plans");
    let (plain, sharded) = (root.join("plain"), root.join("shards"));
    std::fs::create_dir_all(&plain).unwrap();
    write_plain(&plain, &records, &config);
    let counts = build_sharded_root(&sharded, records.clone(), 2, &config).unwrap();
    let open = |dir: &Path| Collection::open(dir, &CollectionOptions::default()).unwrap();
    let (joint, set) = (open(&plain), open(&sharded));

    let explain = SearchParams {
        strand: Strand::Both,
        explain: true,
        ..SearchParams::default()
    };
    let quiet = SearchParams {
        explain: false,
        ..explain
    };
    let answer = |collection: &Collection, query: &DnaSeq, params: &SearchParams| {
        let outcome = collection
            .search_with_id(query, params, &mut CoarseScratch::new(), None)
            .unwrap();
        let results: Answer = (outcome.results.iter())
            .map(|r| (r.record, r.id.clone(), r.score, r.strand))
            .collect();
        (results, outcome.explain)
    };
    // A family query, and a stored record of each shard verbatim.
    let queries = [
        coll.query_for_family(0, 0.5, &MutationModel::standard(0.05)),
        records[1].1.clone(),
        records[records.len() - 2].1.clone(),
    ];
    for query in &queries {
        let (want, joint_plan) = answer(&joint, query, &explain);
        let (got, plan) = answer(&set, query, &explain);
        assert!(!want.is_empty());
        assert_eq!(got, want);
        assert_eq!(answer(&set, query, &quiet), (want, None));
        let (joint_plan, plan) = (joint_plan.unwrap(), plan.unwrap());
        assert_eq!(strand_plans(&plan), strand_plans(&joint_plan));
        assert!(plan.strands.iter().all(|s| !s.coarse.survivors.is_empty()));
        let rows: Vec<(&str, u32, u32)> = (plan.segments.iter())
            .map(|row| (row.label.as_str(), row.base, row.records))
            .collect();
        assert_eq!(
            rows,
            [
                ("shard-000", 0, counts[0]),
                ("shard-001", counts[0], counts[1])
            ]
        );
    }

    // Shard 1's lists holding its record 1 now fail their decode: the
    // set degrades, and explain changes nothing about the answer.
    nucdb_index::forge_short_record(&sharded.join("shard-001").join(nucdb::INDEX_FILE), 1).unwrap();
    let set = open(&sharded);
    let query = records[counts[0] as usize + 1].1.clone();
    let outcome = |params: &SearchParams| {
        set.search_with_id(&query, params, &mut CoarseScratch::new(), None)
            .unwrap()
    };
    let (on, off) = (outcome(&explain), outcome(&quiet));
    assert_eq!(on.coverage.as_ref().unwrap().coverage.shards_ok, 1);
    let tuples = |o: &nucdb::SearchOutcome| -> Vec<(u32, i32)> {
        o.results.iter().map(|r| (r.record, r.score)).collect()
    };
    assert_eq!(tuples(&on), tuples(&off));
    let plan = on.explain.unwrap();
    assert_eq!(plan.segments.len(), 2);
    assert_eq!(plan.results, on.results.len());
    let _ = std::fs::remove_dir_all(&root);
}

/// A `MANIFEST` shadowed by a `SHARDS` file (a state `serve --live` over
/// a sharded root could leave behind) still names committed segments:
/// `create` must refuse to replace it and `open_or_create` must reopen
/// it, even though the directory probes as sharded. A sharded root
/// without a manifest is refused outright, and nothing is written.
#[test]
fn a_shadowed_live_manifest_is_reopened_never_overwritten() {
    let coll = SyntheticCollection::generate(&CollectionSpec::tiny(11));
    let records: Vec<(String, DnaSeq)> = coll
        .records
        .iter()
        .map(|r| (r.id.clone(), r.seq.clone()))
        .collect();
    let config = DbConfig::default();
    let sharded = temp_dir("shadow_root");
    build_sharded_root(&sharded, records.clone(), 2, &config).unwrap();
    let err = LiveDatabase::open_or_create(&sharded, &config, LiveOptions::default())
        .err()
        .expect("a sharded root must not become live");
    assert!(
        matches!(err, nucdb_index::IndexError::Unsupported(_)),
        "{err}"
    );
    assert!(!sharded.join("MANIFEST").exists());

    let dir = temp_dir("shadow_live");
    write_live(&dir, &records, &config);
    std::fs::copy(sharded.join("SHARDS"), dir.join("SHARDS")).unwrap();
    assert_eq!(Shape::of(&dir), Shape::Sharded);
    let manifest_before = std::fs::read(dir.join("MANIFEST")).unwrap();

    let err = LiveDatabase::create(&dir, &config, LiveOptions::default())
        .err()
        .expect("create over an existing manifest");
    assert!(
        err.to_string().contains("already holds a manifest"),
        "{err}"
    );
    let live = LiveDatabase::open_or_create(&dir, &config, LiveOptions::default()).unwrap();
    assert_eq!(live.status().segments.len(), 3);
    assert_eq!(live.snapshot().len(), records.len());
    drop(live);
    assert_eq!(
        std::fs::read(dir.join("MANIFEST")).unwrap(),
        manifest_before
    );
    for dir in [sharded, dir] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The codec tags 1–5 belonged to retired list codecs, and granularity
/// byte 1 to retired record-level postings. An otherwise intact file
/// carrying one — the byte rewritten and the CRC re-stamped, so nothing
/// else is wrong — is refused by name through the one door, whichever
/// file of whichever shape carries it: a plain directory's index header,
/// a live directory's `MANIFEST`, a sharded root's `SHARDS`.
#[test]
fn retired_codec_tags_are_refused_by_name_in_every_shape() {
    let coll = SyntheticCollection::generate(&CollectionSpec::tiny(13));
    let records: Vec<(String, DnaSeq)> = coll
        .records
        .iter()
        .map(|r| (r.id.clone(), r.seq.clone()))
        .collect();
    let config = DbConfig::default();
    let root = temp_dir("retired_tags");
    for name in ["plain", "live", "sharded"] {
        std::fs::create_dir_all(root.join(name)).unwrap();
    }
    write_plain(&root.join("plain"), &records, &config);
    write_live(&root.join("live"), &records, &config);
    build_sharded_root(&root.join("sharded"), records, 2, &config).unwrap();

    // All three files open `magic:8 body_len:u32 body_crc:u32 body`. The
    // index header holds `k stride stopping codec granularity`, both
    // manifests `version k stride granularity codec`.
    for (name, file, codec_at, granularity_at) in [
        ("plain", nucdb::INDEX_FILE, 16 + 3, 16 + 4),
        ("live", nucdb_index::MANIFEST_FILE, 16 + 4, 16 + 3),
        ("sharded", nucdb_index::SHARD_MANIFEST_FILE, 16 + 4, 16 + 3),
    ] {
        let dir = root.join(name);
        let open = || Collection::open(&dir, &CollectionOptions::default()).map(drop);
        let good = std::fs::read(dir.join(file)).unwrap();
        assert_eq!(good[codec_at], 0, "{name}: not the paper codec's tag");
        assert_eq!(good[granularity_at], 0, "{name}: not the offsets byte");
        let body_len = u32::from_le_bytes(good[8..12].try_into().unwrap()) as usize;
        let retired = (1..=5u8)
            .map(|tag| (codec_at, tag, format!("list codec tag {tag}")))
            .chain([(granularity_at, 1, "record-granularity".to_string())]);
        for (at, tag, named) in retired {
            let mut bytes = good.clone();
            bytes[at] = tag;
            let crc = nucdb_index::crc32(&bytes[16..16 + body_len]);
            bytes[12..16].copy_from_slice(&crc.to_le_bytes());
            std::fs::write(dir.join(file), &bytes).unwrap();
            match open() {
                Err(e @ nucdb_index::IndexError::UnsupportedFormat(_)) => {
                    assert!(e.to_string().contains(&named), "{name}: {e}")
                }
                other => panic!("{name}, {named}: {other:?}"),
            }
        }
        std::fs::write(dir.join(file), &good).unwrap();
        open().unwrap();
    }

    // The storage byte: 1 opens, 0 (the retired ASCII store) is refused
    // by name, anything else is damage. Both manifests carry it after
    // the codec byte; the plain store's TOC, framed like a manifest,
    // opens with it.
    for (name, file, at) in [
        ("plain", nucdb::STORE_FILE, 16),
        ("live", nucdb_index::MANIFEST_FILE, 16 + 5),
        ("sharded", nucdb_index::SHARD_MANIFEST_FILE, 16 + 5),
    ] {
        let dir = root.join(name);
        let open = || Collection::open(&dir, &CollectionOptions::default()).map(drop);
        let good = std::fs::read(dir.join(file)).unwrap();
        assert_eq!(good[at], 1, "{name}: not the direct-coding byte");
        let body_len = u32::from_le_bytes(good[8..12].try_into().unwrap()) as usize;
        for tag in [0, 200] {
            let mut bytes = good.clone();
            bytes[at] = tag;
            let crc = nucdb_index::crc32(&bytes[16..16 + body_len]);
            bytes[12..16].copy_from_slice(&crc.to_le_bytes());
            std::fs::write(dir.join(file), &bytes).unwrap();
            match (tag, open()) {
                (0, Err(e @ nucdb_index::IndexError::UnsupportedFormat(_))) => {
                    assert!(e.to_string().contains("ASCII store mode 0"), "{name}: {e}")
                }
                (200, Err(e)) => assert!(
                    !matches!(e, nucdb_index::IndexError::UnsupportedFormat(_)),
                    "{name}: {e}"
                ),
                (_, other) => panic!("{name}, storage byte {tag}: {other:?}"),
            }
        }
        std::fs::write(dir.join(file), &good).unwrap();
        open().unwrap();
    }
    let _ = std::fs::remove_dir_all(&root);
}
