//! The full external pipeline, as the paper's setting demands: build the
//! index with bounded memory (chunked build with run files), persist it,
//! reopen it in on-disk mode, and evaluate queries that fetch postings
//! lists individually — reporting the bytes read from "disk" per query.
//!
//! ```sh
//! cargo run --release -p nucdb --example disk_index_pipeline
//! ```

use nucdb::{Database, IndexVariant, SearchParams, SequenceStore, StorageMode};
use nucdb_index::{build_chunked, write_index, CompressedIndex, IndexParams, ListCodec};
use nucdb_seq::random::{CollectionSpec, MutationModel, SyntheticCollection};

fn main() {
    let coll = SyntheticCollection::generate(&CollectionSpec {
        seed: 31337,
        num_background: 500,
        num_families: 5,
        family_size: 4,
        ..CollectionSpec::default()
    });
    println!(
        "collection: {} records / {} bases",
        coll.records.len(),
        coll.total_bases()
    );

    let work_dir = std::env::temp_dir().join(format!("nucdb_pipeline_{}", std::process::id()));
    std::fs::create_dir_all(&work_dir).expect("create work dir");

    // --- Chunked external build: only `chunk` records in memory at once. ---
    let chunk = 64;
    let t0 = std::time::Instant::now();
    let index = build_chunked(
        IndexParams::new(8),
        ListCodec::Paper,
        coll.records.iter().map(|r| r.seq.representative_bases()),
        chunk,
        &work_dir,
    )
    .expect("chunked build");
    println!(
        "chunked build ({} records/chunk): {:.1} ms, {} distinct intervals",
        chunk,
        t0.elapsed().as_secs_f64() * 1e3,
        index.distinct_intervals()
    );
    let stats = index.stats();
    println!(
        "index: {} postings entries, {} B compressed ({:.1}% of the uncompressed layout)",
        stats.postings_entries,
        stats.blob_bytes,
        stats.compression_ratio() * 100.0
    );

    // --- Persist and reopen on disk. ---
    let index_path = work_dir.join("collection.nucidx");
    write_index(&index, &index_path).expect("write index");
    let on_disk = CompressedIndex::open(&index_path).expect("open index");
    println!(
        "index file: {} bytes at {}",
        std::fs::metadata(&index_path).unwrap().len(),
        index_path.display()
    );

    let mut store = SequenceStore::new(StorageMode::DirectCoding);
    for record in &coll.records {
        store.add(record.id.clone(), &record.seq);
    }
    let db = Database::from_parts(store, IndexVariant::Disk(on_disk));

    // --- Queries, with per-query I/O accounting. ---
    let params = SearchParams::default();
    println!(
        "\n{:<8} {:>8} {:>10} {:>12} {:>10}",
        "query", "answers", "top score", "bytes read", "lists"
    );
    for f in 0..coll.families.len() {
        let query = coll.query_for_family(f, 0.5, &MutationModel::standard(0.05));
        if let IndexVariant::Disk(disk) = db.index() {
            disk.reset_io_counters();
        }
        let outcome = db.search(&query, &params).unwrap();
        let (bytes, lists) = match db.index() {
            IndexVariant::Disk(disk) => (disk.bytes_read(), disk.lists_read()),
            _ => (0, 0),
        };
        println!(
            "fam{f:02}    {:>8} {:>10} {:>12} {:>10}",
            outcome.results.len(),
            outcome.results.first().map_or(0, |r| r.score),
            bytes,
            lists
        );
    }

    let _ = std::fs::remove_dir_all(&work_dir);
}
