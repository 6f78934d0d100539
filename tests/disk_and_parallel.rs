//! Integration: the on-disk index and the alternative build paths must be
//! behaviourally identical to the in-memory reference.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use nucdb::{
    CoarseScratch, Database, DbConfig, IndexVariant, RankingScheme, SearchParams, SequenceStore,
    StorageMode, Strand,
};
use nucdb_index::{build_chunked, build_parallel, IndexParams, ListCodec};
use nucdb_seq::random::{CollectionSpec, MutationModel, SyntheticCollection};

fn collection(seed: u64) -> SyntheticCollection {
    SyntheticCollection::generate(&CollectionSpec {
        seed,
        num_background: 80,
        num_families: 4,
        family_size: 3,
        ..CollectionSpec::default()
    })
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nucdb_it_{}_{}", name, std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn results_of(db: &Database, coll: &SyntheticCollection) -> Vec<Vec<(u32, i32)>> {
    let params = SearchParams::default();
    (0..coll.families.len())
        .map(|f| {
            let query = coll.query_for_family(f, 0.5, &MutationModel::standard(0.05));
            db.search(&query, &params)
                .unwrap()
                .results
                .iter()
                .map(|r| (r.record, r.score))
                .collect()
        })
        .collect()
}

#[test]
fn disk_index_gives_identical_results() {
    let coll = collection(201);
    let memory_db = Database::build(
        coll.records.iter().map(|r| (r.id.clone(), r.seq.clone())),
        &DbConfig::default(),
    );
    let reference = results_of(&memory_db, &coll);

    let dir = temp_dir("disk");
    let disk_db = memory_db.with_disk_index(&dir.join("idx.nucidx")).unwrap();
    let from_disk = results_of(&disk_db, &coll);
    assert_eq!(from_disk, reference);

    // The disk variant actually read postings.
    if let IndexVariant::Disk(disk) = disk_db.index() {
        assert!(disk.bytes_read() > 0);
        assert!(disk.lists_read() > 0);
    } else {
        panic!("expected a disk index");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chunked_and_parallel_builds_search_identically() {
    let coll = collection(202);
    let records: Vec<Vec<nucdb_seq::Base>> = coll
        .records
        .iter()
        .map(|r| r.seq.representative_bases())
        .collect();
    let params = IndexParams::new(8);

    let reference_db = Database::build(
        coll.records.iter().map(|r| (r.id.clone(), r.seq.clone())),
        &DbConfig {
            index: params.clone(),
            ..DbConfig::default()
        },
    );
    let reference = results_of(&reference_db, &coll);

    let mut store = SequenceStore::new(StorageMode::DirectCoding);
    for record in &coll.records {
        store.add(record.id.clone(), &record.seq);
    }

    let dir = temp_dir("chunked");
    let chunked_index = build_chunked(
        params.clone(),
        ListCodec::Paper,
        records.iter().map(|r| r.as_slice()),
        13,
        &dir,
    )
    .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let chunked_db = Database::from_parts(store.clone(), IndexVariant::Disk(chunked_index));
    assert_eq!(results_of(&chunked_db, &coll), reference);

    let parallel_index = build_parallel(params, ListCodec::Paper, &records, 4);
    let parallel_db = Database::from_parts(store, IndexVariant::Disk(parallel_index));
    assert_eq!(results_of(&parallel_db, &coll), reference);
}

#[test]
fn all_codecs_search_identically() {
    let coll = collection(203);
    let reference = {
        let db = Database::build(
            coll.records.iter().map(|r| (r.id.clone(), r.seq.clone())),
            &DbConfig {
                codec: ListCodec::Paper,
                ..DbConfig::default()
            },
        );
        results_of(&db, &coll)
    };
    let block = Database::build(
        coll.records.iter().map(|r| (r.id.clone(), r.seq.clone())),
        &DbConfig {
            codec: ListCodec::Block,
            ..DbConfig::default()
        },
    );
    assert_eq!(results_of(&block, &coll), reference);
}

#[test]
fn disk_round_trip_through_separate_open() {
    // Write with one database, reopen the file independently.
    let coll = collection(204);
    let db = Database::build(
        coll.records.iter().map(|r| (r.id.clone(), r.seq.clone())),
        &DbConfig::default(),
    );
    let reference = results_of(&db, &coll);

    let dir = temp_dir("reopen");
    let path = dir.join("standalone.nucidx");
    let IndexVariant::Disk(index) = db.index() else {
        panic!("memory expected")
    };
    nucdb_index::write_index(index, &path).unwrap();

    let reopened = nucdb_index::CompressedIndex::open(&path).unwrap();
    let mut store = SequenceStore::new(StorageMode::DirectCoding);
    for record in &coll.records {
        store.add(record.id.clone(), &record.seq);
    }
    let disk_db = Database::from_parts(store, IndexVariant::Disk(reopened));
    assert_eq!(results_of(&disk_db, &coll), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fully_on_disk_database_gives_identical_results() {
    // Index AND store on disk — the paper's complete operating point.
    let coll = collection(207);
    let memory_db = Database::build(
        coll.records.iter().map(|r| (r.id.clone(), r.seq.clone())),
        &DbConfig::default(),
    );
    let reference = results_of(&memory_db, &coll);

    let dir = temp_dir("fulldisk");
    let disk_db = memory_db
        .with_disk_index(&dir.join("idx.nucidx"))
        .unwrap()
        .with_disk_store(&dir.join("store.nucsto"))
        .unwrap();
    assert_eq!(results_of(&disk_db, &coll), reference);

    // Both layers actually performed reads.
    let nucdb::StoreVariant::Disk(store) = disk_db.store() else {
        panic!("expected a disk store")
    };
    assert!(store.bytes_read() > 0, "fine search read no store bytes");
    let IndexVariant::Disk(index) = disk_db.index() else {
        panic!("expected a disk index")
    };
    assert!(index.bytes_read() > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parallel_batch_search_matches_sequential_on_disk_index() {
    // Threads sharing one `&Database` over an on-disk index and store
    // (lock-free slices of the file images, one scratch per thread) must give
    // exactly the sequential results, in order.
    let coll = collection(206);
    let db = Database::build(
        coll.records.iter().map(|r| (r.id.clone(), r.seq.clone())),
        &DbConfig::default(),
    );
    let dir = temp_dir("parbatch");
    let db = db
        .with_disk_index(&dir.join("idx.nucidx"))
        .unwrap()
        .with_disk_store(&dir.join("store.nucsto"))
        .unwrap();

    let queries: Vec<_> = (0..coll.families.len())
        .map(|f| coll.query_for_family(f, 0.5, &MutationModel::standard(0.05)))
        .collect();
    let params = SearchParams::default();
    let answer = |query, scratch: &mut CoarseScratch| -> Vec<(u32, i32)> {
        db.search_with(query, &params, scratch)
            .unwrap()
            .results
            .iter()
            .map(|r| (r.record, r.score))
            .collect()
    };

    let mut scratch = CoarseScratch::new();
    let sequential: Vec<_> = queries.iter().map(|q| answer(q, &mut scratch)).collect();
    for threads in [2usize, 4, 8] {
        // Work-stealing over the queries; each thread keeps (index, answer).
        let next = AtomicUsize::new(0);
        let mut parallel: Vec<(usize, Vec<(u32, i32)>)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut scratch = CoarseScratch::new();
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(query) = queries.get(i) else {
                                return local;
                            };
                            local.push((i, answer(query, &mut scratch)));
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        parallel.sort_by_key(|&(i, _)| i);
        let parallel: Vec<_> = parallel.into_iter().map(|(_, answer)| answer).collect();
        assert_eq!(parallel, sequential, "threads = {threads}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reused_scratch_gives_identical_results() {
    // One CoarseScratch carried across many queries — varying ranking
    // scheme, strand and stride, against both the in-memory and on-disk
    // index — must reproduce the fresh-scratch results exactly. This is the allocation-free contract: reuse never
    // leaks state between queries.
    let coll = collection(207);
    let db = Database::build(
        coll.records.iter().map(|r| (r.id.clone(), r.seq.clone())),
        &DbConfig::default(),
    );
    let dir = temp_dir("scratch");
    let disk_db = Database::build(
        coll.records.iter().map(|r| (r.id.clone(), r.seq.clone())),
        &DbConfig::default(),
    )
    .with_disk_index(&dir.join("idx.nucidx"))
    .unwrap();

    let param_sets = [
        SearchParams::default(),
        SearchParams::default().with_ranking(RankingScheme::Count),
        SearchParams::default().with_ranking(RankingScheme::Proportional),
        SearchParams::default().with_strand(Strand::Both),
        SearchParams {
            query_stride: 3,
            ..SearchParams::default()
        },
    ];
    for database in [&db, &disk_db] {
        let mut scratch = CoarseScratch::new();
        for i in 0..12 {
            let f = i % coll.families.len();
            let params = &param_sets[i % param_sets.len()];
            let query = coll.query_for_family(f, 0.5, &MutationModel::standard(0.05));
            let fresh = database.search(&query, params).unwrap();
            let reused = database.search_with(&query, params, &mut scratch).unwrap();
            let a: Vec<(u32, i32)> = fresh.results.iter().map(|r| (r.record, r.score)).collect();
            let b: Vec<(u32, i32)> = reused.results.iter().map(|r| (r.record, r.score)).collect();
            assert_eq!(a, b, "family {f} params {params:?}");
            assert_eq!(fresh.stats.total_hits, reused.stats.total_hits);
            assert_eq!(
                fresh.stats.intervals_looked_up,
                reused.stats.intervals_looked_up
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn loaded_index_equals_original() {
    let coll = collection(205);
    let db = Database::build(
        coll.records.iter().map(|r| (r.id.clone(), r.seq.clone())),
        &DbConfig::default(),
    );
    let IndexVariant::Disk(index) = db.index() else {
        panic!()
    };

    let dir = temp_dir("load");
    let path = dir.join("idx.nucidx");
    nucdb_index::write_index(index, &path).unwrap();
    let loaded = nucdb_index::load_index(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(loaded.num_records(), index.num_records());
    assert_eq!(loaded.decode_all().unwrap(), index.decode_all().unwrap());
}
