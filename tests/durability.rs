//! Durability suite: the on-disk formats under byte-level corruption,
//! truncation, and injected I/O faults.
//!
//! The contract under test, from the durability layer's design: every
//! byte a query can read was checked when its file was opened, so opening
//! a corrupted, truncated or overlong index / store file fails with a
//! typed error locating the damage — it must **never** panic and never
//! open. Damage no checksum can see (a forged header) fails the query
//! that decodes it, with a typed error, and leaves the database serving.
//! Transient I/O errors within the open-time retry budget must be
//! invisible.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use nucdb::{Database, IndexVariant, SearchParams, SequenceStore, StorageMode, StoreVariant};
use nucdb_index::{
    forge_short_record, write_index, CompressedIndex, FaultPlan, IndexBuilder, IndexError,
    IndexParams, ListCodec, StopPolicy, TRANSIENT_RETRY_LIMIT,
};
use nucdb_seq::random::{CollectionSpec, SyntheticCollection};
use nucdb_seq::{DnaSeq, SeqError};

static DIR_NONCE: AtomicU64 = AtomicU64::new(0);

/// A unique fresh directory per call, so concurrently-running tests never
/// collide on file names.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "nucdb_durability_{name}_{}_{}",
        std::process::id(),
        DIR_NONCE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn small_collection(seed: u64) -> SyntheticCollection {
    SyntheticCollection::generate(&CollectionSpec::tiny(seed))
}

/// A handful of short handcrafted records: the exhaustive fuzz tests
/// re-load the whole file once per byte, so the files must stay small
/// (a couple of kilobytes) for the sweep to stay fast.
fn micro_records() -> Vec<(String, DnaSeq)> {
    [
        &b"ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT"[..],
        b"TTTTGGGGCCCCAAAATTTTGGGGCCCCAAAA",
        b"ACGTNNACGTRYACGTACGTACGTACGT",
        b"GATTACAGATTACAGATTACAGATTACAGATTACA",
        b"CCCCCCCCGGGGGGGGACGTACGTTTTTTTTT",
        b"ATATATATATATATATATATGCGCGCGCGC",
    ]
    .iter()
    .enumerate()
    .map(|(i, ascii)| (format!("m{i}"), DnaSeq::from_ascii(ascii).unwrap()))
    .collect()
}

fn micro_index() -> CompressedIndex {
    micro_index_with(ListCodec::Paper)
}

fn micro_index_with(codec: ListCodec) -> CompressedIndex {
    let mut builder = IndexBuilder::new(IndexParams::new(8)).with_codec(codec);
    for (_, seq) in micro_records() {
        builder.add_record(&seq.representative_bases());
    }
    builder.finish()
}

fn micro_store() -> SequenceStore {
    let mut store = SequenceStore::new(StorageMode::DirectCoding);
    for (id, seq) in micro_records() {
        store.add(id, &seq);
    }
    store
}

fn build_index(
    coll: &SyntheticCollection,
    params: IndexParams,
    codec: ListCodec,
) -> CompressedIndex {
    let mut builder = IndexBuilder::new(params).with_codec(codec);
    for record in &coll.records {
        builder.add_record(&record.seq.representative_bases());
    }
    builder.finish()
}

fn build_store(coll: &SyntheticCollection) -> SequenceStore {
    let mut store = SequenceStore::new(StorageMode::DirectCoding);
    for record in &coll.records {
        store.add(record.id.clone(), &record.seq);
    }
    store
}

fn indexes_equal(a: &CompressedIndex, b: &CompressedIndex) -> bool {
    a.params() == b.params()
        && a.codec() == b.codec()
        && a.record_lens() == b.record_lens()
        && a.vocab() == b.vocab()
        && a.blob() == b.blob()
}

fn stores_equal(a: &SequenceStore, b: &SequenceStore) -> bool {
    a.len() == b.len()
        && (0..a.len() as u32)
            .all(|r| a.id(r) == b.id(r) && a.sequence(r).unwrap() == b.sequence(r).unwrap())
}

// ---------------------------------------------------------------------
// Exhaustive byte fuzz. Every single-byte flip and every truncation
// prefix of a NUCIDX03 index, a NUCIDX04 index and a NUCSTO02 store makes
// `open` refuse the file with a typed error naming a section and a file
// offset — and never panic.
// ---------------------------------------------------------------------

/// The section and file offset an index error locates its damage at.
fn index_locus(e: &IndexError) -> Option<(&'static str, u64)> {
    match e {
        IndexError::Corruption {
            section, offset, ..
        } => Some((section, *offset)),
        IndexError::BadFormat(v) => v.offset.map(|offset| (v.section, offset)),
        _ => None,
    }
}

/// The store twin of [`index_locus`].
fn store_locus(e: &SeqError) -> Option<(&'static str, u64)> {
    match e {
        SeqError::Corruption {
            section, offset, ..
        } => Some((section, *offset)),
        SeqError::CorruptPackedData {
            section, offset, ..
        } => offset.map(|offset| (*section, offset)),
        _ => None,
    }
}

fn flipped(bytes: &[u8], at: usize) -> Vec<u8> {
    let mut bytes = bytes.to_vec();
    bytes[at] ^= 0xFF;
    bytes
}

fn cut(bytes: &[u8], at: usize) -> Vec<u8> {
    bytes[..at].to_vec()
}

/// Write `damage` of the pristine file at `path` once per byte offset
/// and open it: every open must fail, without panicking, with an error
/// `locus` locates; `located` hears each offset with the section and
/// file offset the error names. The pristine file is restored after.
fn every_damage_is_located<E: std::fmt::Debug>(
    path: &Path,
    damage: fn(&[u8], usize) -> Vec<u8>,
    open: impl Fn(&Path) -> Result<(), E>,
    locus: fn(&E) -> Option<(&'static str, u64)>,
    mut located: impl FnMut(usize, &'static str, u64),
) {
    let pristine = std::fs::read(path).unwrap();
    for at in 0..pristine.len() {
        std::fs::write(path, damage(&pristine, at)).unwrap();
        let err = match catch_unwind(AssertUnwindSafe(|| open(path))) {
            Err(_) => panic!("open panicked with damage at byte {at}"),
            Ok(Ok(())) => panic!("damage at byte {at} opened"),
            Ok(Err(e)) => e,
        };
        let Some((section, offset)) = locus(&err) else {
            panic!("damage at byte {at}: the error locates nothing: {err:?}")
        };
        located(at, section, offset);
    }
    std::fs::write(path, pristine).unwrap();
}

fn open_index(path: &Path) -> Result<(), IndexError> {
    CompressedIndex::open(path).map(drop)
}

fn open_store(path: &Path) -> Result<(), SeqError> {
    SequenceStore::open(path).map(drop)
}

/// Every flip of an index file: a flip before the blob names the magic
/// or the header, a flip in the blob names the list or block holding
/// it, at or before the flipped byte. Returns the flips named as blocks.
fn index_flips_are_located(path: &Path) -> usize {
    let blob_start = CompressedIndex::open(path).unwrap().blob_start();
    let mut blocks = 0;
    every_damage_is_located(
        path,
        flipped,
        open_index,
        index_locus,
        |at, section, offset| {
            let at = at as u64;
            if at < blob_start {
                assert!(
                    ["magic", "header"].contains(&section),
                    "byte {at}: {section}"
                );
            } else {
                assert!(["list", "block"].contains(&section), "byte {at}: {section}");
                assert!(
                    (blob_start..=at).contains(&offset),
                    "byte {at}: offset {offset}"
                );
                blocks += usize::from(section == "block");
            }
        },
    );
    blocks
}

/// Every cut of a file is refused at the cut.
fn cuts_are_located_at_the_cut<E: std::fmt::Debug>(
    path: &Path,
    open: impl Fn(&Path) -> Result<(), E>,
    locus: fn(&E) -> Option<(&'static str, u64)>,
) {
    every_damage_is_located(path, cut, open, locus, |at, section, offset| {
        assert_eq!(offset, at as u64, "cut at {at} located in {section}");
    });
}

#[test]
fn index_survives_every_single_byte_flip() {
    let dir = temp_dir("idxflip");
    let path = dir.join("idx.nucidx");
    write_index(&micro_index(), &path).unwrap();
    assert_eq!(
        index_flips_are_located(&path),
        0,
        "a paper list has no blocks"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn index_survives_every_truncation() {
    let dir = temp_dir("idxtrunc");
    let path = dir.join("idx.nucidx");
    write_index(&micro_index(), &path).unwrap();
    cuts_are_located_at_the_cut(&path, open_index, index_locus);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// NUCIDX04 (block codec): the same exhaustive sweeps, plus the format's
// sharper promise — a point corruption in a list payload is pinned to
// one block (section "block").
// ---------------------------------------------------------------------

#[test]
fn block_index_survives_every_single_byte_flip() {
    let dir = temp_dir("v4flip");
    let path = dir.join("idx.nucidx");
    write_index(&micro_index_with(ListCodec::Block), &path).unwrap();
    assert_eq!(&std::fs::read(&path).unwrap()[..8], b"NUCIDX04");
    // Payload flips must have been attributed to blocks, not whole lists.
    assert!(
        index_flips_are_located(&path) > 0,
        "no flip surfaced a block-level corruption error"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn block_index_survives_every_truncation() {
    let dir = temp_dir("v4trunc");
    let path = dir.join("idx.nucidx");
    write_index(&micro_index_with(ListCodec::Block), &path).unwrap();
    cuts_are_located_at_the_cut(&path, open_index, index_locus);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn block_point_corruption_costs_one_block_not_the_file() {
    let index = micro_index_with(ListCodec::Block);
    let dir = temp_dir("v4point");
    let path = dir.join("idx.nucidx");
    write_index(&index, &path).unwrap();

    // Flip the final byte of the file: the last list's last block
    // payload (the blob is the file's tail in NUCIDX04, as in v3).
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();

    // Open refuses the file, naming the block…
    match CompressedIndex::open(&path) {
        Err(IndexError::Corruption { section, .. }) => assert_eq!(section, "block"),
        other => panic!("expected a block-level corruption, got {other:?}"),
    }
    // …and fsck's walk pins the byte to that one block: every other list
    // verifies.
    let mut findings = Vec::new();
    let mut verified = 0usize;
    let records = CompressedIndex::fsck(&path, |step, outcome| {
        match (step, outcome) {
            (nucdb_index::WalkStep::Item(_), Ok(_)) => verified += 1,
            (_, Ok(_)) => {}
            (step, Err(e)) => findings.push((step, e)),
        }
        std::ops::ControlFlow::Continue(())
    });
    assert_eq!(records.unwrap(), index.num_records());
    assert_eq!(
        findings.len(),
        1,
        "one corrupt byte must cost exactly one list"
    );
    let (step, e) = &findings[0];
    assert_eq!(*step, nucdb_index::WalkStep::Item(index.vocab().len() - 1));
    assert!(
        matches!(e, IndexError::Corruption { section, .. } if *section == "block"),
        "expected a block-level corruption, got {e}"
    );
    assert_eq!(verified, index.vocab().len() - 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_survives_every_single_byte_flip() {
    let dir = temp_dir("stoflip");
    let path = dir.join("coll.nucsto");
    micro_store().write_to(&path).unwrap();
    let payload_start = SequenceStore::open(&path).unwrap().payload_start();
    every_damage_is_located(
        &path,
        flipped,
        open_store,
        store_locus,
        |at, section, offset| {
            let at = at as u64;
            if at < payload_start {
                assert!(["magic", "toc"].contains(&section), "byte {at}: {section}");
            } else {
                assert_eq!(section, "record", "byte {at}");
                assert!(
                    (payload_start..=at).contains(&offset),
                    "byte {at}: offset {offset}"
                );
            }
        },
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_survives_every_truncation() {
    let dir = temp_dir("stotrunc");
    let path = dir.join("coll.nucsto");
    micro_store().write_to(&path).unwrap();
    cuts_are_located_at_the_cut(&path, open_store, store_locus);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A file longer than its header or TOC declares is refused at open,
/// located at the declared end, and is a structural fsck finding.
#[test]
fn trailing_bytes_are_refused_at_open_and_structural_in_fsck() {
    let dir = temp_dir("trailing");
    let (idx, sto) = (dir.join(nucdb::INDEX_FILE), dir.join(nucdb::STORE_FILE));
    write_index(&micro_index(), &idx).unwrap();
    micro_store().write_to(&sto).unwrap();
    let ends = [idx.as_path(), sto.as_path()].map(|path| {
        let mut bytes = std::fs::read(path).unwrap();
        let end = bytes.len() as u64;
        bytes.extend_from_slice(b"appended");
        std::fs::write(path, bytes).unwrap();
        end
    });
    match CompressedIndex::open(&idx) {
        Err(e) => assert_eq!(index_locus(&e), Some(("blob", ends[0])), "{e}"),
        Ok(_) => panic!("an overlong index opened"),
    }
    match SequenceStore::open(&sto) {
        Err(e) => assert_eq!(store_locus(&e), Some(("record", ends[1])), "{e}"),
        Ok(_) => panic!("an overlong store opened"),
    }
    let mut report = nucdb::FsckReport::default();
    assert_eq!(nucdb::fsck_index(&idx, &mut report), None);
    nucdb::fsck_store(&sto, &mut report);
    assert_eq!(report.exit_code(), 2);
    let found: Vec<_> = (report.findings.iter())
        .map(|f| (f.file, f.severity, f.offset))
        .collect();
    let structural = nucdb::FsckSeverity::Structural;
    assert_eq!(
        found,
        [
            ("index", structural, Some(ends[0])),
            ("store", structural, Some(ends[1]))
        ]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Format sweep: every codec x stopping combo round-trips
// through the writer, and the retired generation is refused by name at
// every door.
// ---------------------------------------------------------------------

#[test]
fn every_codec_granularity_stopping_combo_round_trips() {
    let coll = small_collection(905);
    let codecs = [ListCodec::Paper, ListCodec::Block];
    let stoppings = [
        None,
        Some(StopPolicy::DfFraction(0.25)),
        Some(StopPolicy::DfAbsolute(10)),
        Some(StopPolicy::TopK(3)),
    ];
    let dir = temp_dir("combos");
    for codec in codecs {
        for stopping in stoppings {
            let mut params = IndexParams::new(8);
            if let Some(policy) = stopping {
                params = params.with_stopping(policy);
            }
            let index = build_index(&coll, params, codec);
            let label = format!("{codec:?}/{stopping:?}");

            let path = dir.join("combo.nucidx");
            write_index(&index, &path).unwrap();
            let loaded = CompressedIndex::open(&path).unwrap();
            assert!(indexes_equal(&loaded, &index), "mismatch for {label}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retired_magics_are_refused_by_name_at_every_door() {
    use nucdb_index::IndexError;

    // A plain database directory, then each file in turn replaced by what
    // the retired writers left: the old magic followed by fields under no
    // checksum. No door may parse past the magic.
    let coll = small_collection(906);
    let dir = temp_dir("retired");
    let idx = dir.join(nucdb::INDEX_FILE);
    let sto = dir.join(nucdb::STORE_FILE);
    write_index(
        &build_index(&coll, IndexParams::new(8), ListCodec::Paper),
        &idx,
    )
    .unwrap();
    build_store(&coll).write_to(&sto).unwrap();
    let open = || nucdb::Collection::open(&dir, &nucdb::CollectionOptions::default()).map(drop);
    open().unwrap();
    let retired = |magic: &str| [magic.as_bytes(), &[8, 1, 0, 0, 0, 1, 40, 0][..]].concat();
    let names = |e: &dyn std::fmt::Display, magic: &str, door: &str| {
        let shown = e.to_string();
        assert!(shown.contains(magic), "{door}: {shown:?} lacks {magic}");
    };

    let good = std::fs::read(&idx).unwrap();
    std::fs::write(&idx, retired("NUCIDX02")).unwrap();
    for (door, result) in [
        (
            "CompressedIndex::open",
            CompressedIndex::open(&idx).map(drop),
        ),
        ("Collection::open", open()),
    ] {
        match result {
            Err(e @ IndexError::UnsupportedFormat(_)) => names(&e, "NUCIDX02", door),
            other => panic!("{door}: {other:?}"),
        }
    }
    std::fs::write(&idx, good).unwrap();

    let good = std::fs::read(&sto).unwrap();
    std::fs::write(&sto, retired("NUCSTO01")).unwrap();
    match nucdb::SequenceStore::open(&sto) {
        Err(e @ SeqError::UnsupportedFormat(_)) => names(&e, "NUCSTO01", "SequenceStore::open"),
        other => panic!("SequenceStore::open: {other:?}"),
    }
    match open() {
        Err(e @ IndexError::UnsupportedFormat(_)) => names(&e, "NUCSTO01", "Collection::open"),
        other => panic!("Collection::open: {other:?}"),
    }
    std::fs::write(&sto, good).unwrap();
    open().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Fault injection on the open-time read: transient errors within the
// retry budget are invisible; bit flips surface as typed corruption at
// open. Damage under intact checksums surfaces at the query that decodes
// it and bumps the engine's corruption metric; the database never panics
// and keeps answering clean queries.
// ---------------------------------------------------------------------

/// Build the collection on disk and return (dir, index path, store path).
fn persisted(seed: u64, name: &str) -> (PathBuf, PathBuf, PathBuf, SyntheticCollection) {
    let coll = small_collection(seed);
    let dir = temp_dir(name);
    let idx = dir.join("idx.nucidx");
    let sto = dir.join("coll.nucsto");
    write_index(
        &build_index(&coll, IndexParams::new(8), ListCodec::Paper),
        &idx,
    )
    .unwrap();
    build_store(&coll).write_to(&sto).unwrap();
    (dir, idx, sto, coll)
}

fn faulty_db(idx: &Path, sto: &Path, plan: FaultPlan) -> Database {
    Database::from_variants(
        StoreVariant::Disk(nucdb::SequenceStore::open_faulty(sto, plan.clone()).unwrap()),
        IndexVariant::Disk(CompressedIndex::open_faulty(idx, plan).unwrap()),
    )
}

#[test]
fn transient_errors_within_budget_are_invisible() {
    let (dir, idx, sto, coll) = persisted(907, "transient");
    let clean = faulty_db(&idx, &sto, FaultPlan::clean(1));
    let query = coll.query_for_family(1, 0.6, &nucdb_seq::random::MutationModel::identity());
    let baseline = clean.search(&query, &SearchParams::default()).unwrap();
    assert!(!baseline.results.is_empty());

    // Every read at open fails with a transient error until the budget
    // is spent — but the budget is within the retry limit, so searches
    // must succeed with identical answers. Short reads ride along for
    // free.
    let plan = FaultPlan::clean(42)
        .with_transient_errors(1.0, TRANSIENT_RETRY_LIMIT)
        .with_short_reads(0.5);
    let flaky = faulty_db(&idx, &sto, plan);
    let outcome = flaky.search(&query, &SearchParams::default()).unwrap();
    let tuples = |o: &nucdb::SearchOutcome| -> Vec<(u32, i32)> {
        o.results.iter().map(|r| (r.record, r.score)).collect()
    };
    assert_eq!(tuples(&outcome), tuples(&baseline));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flips_surface_as_corruption_and_bump_the_metric() {
    let (dir, idx, sto, coll) = persisted(908, "bitflip");
    // Flip bits spread over each whole file (those in its header or TOC
    // miss: open reads those from the pristine file): open refuses both.
    let flips = |path: &Path| {
        let len = std::fs::metadata(path).unwrap().len();
        let flips = (0..64u64).map(|i| (len * i / 64, 1u8 << (i % 8))).collect();
        FaultPlan::clean(7).with_bit_flips(flips)
    };
    let index = CompressedIndex::open_faulty(&idx, flips(&idx)).map(drop);
    assert!(index.is_err_and(|e| index_locus(&e).is_some()));
    let store = nucdb::SequenceStore::open_faulty(&sto, flips(&sto)).map(drop);
    assert!(store.is_err_and(|e| store_locus(&e).is_some()));

    // A header that says one of family 0's members is one base long
    // passes every checksum; the query that decodes its lists fails.
    forge_short_record(&idx, coll.families[0].member_ids[0]).unwrap();
    let mut db = faulty_db(&idx, &sto, FaultPlan::clean(1));
    let registry = nucdb_obs::MetricsRegistry::new();
    db.bind_metrics(&registry);
    let query = coll.query_for_family(0, 0.6, &nucdb_seq::random::MutationModel::identity());
    let result = catch_unwind(AssertUnwindSafe(|| {
        db.search(&query, &SearchParams::default())
    }));
    let e = (result.expect("search must not panic on a forged header"))
        .expect_err("a query decoding the forged record's lists must fail");
    assert!(e.is_corruption(), "expected corruption error, got {e}");
    assert!(
        db.metrics().io_corruption.get() >= 1,
        "corruption metric not bumped"
    );
    let text = registry.snapshot().to_prometheus();
    assert!(
        text.contains("nucdb_io_corruption_total"),
        "metric missing from exposition:\n{text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_file_is_refused_at_open() {
    let (dir, idx, sto, _) = persisted(909, "opentrunc");
    // Truncate both files to 1/4 length as they are read: the header and
    // TOC come from the pristine files, but the image stops short of the
    // payload they declare, so open refuses it with a typed error.
    let idx_len = std::fs::metadata(&idx).unwrap().len();
    let sto_len = std::fs::metadata(&sto).unwrap().len();
    let opened = catch_unwind(AssertUnwindSafe(|| {
        let store = nucdb::SequenceStore::open_faulty(
            &sto,
            FaultPlan::clean(3).with_truncation(sto_len / 4),
        );
        let index =
            CompressedIndex::open_faulty(&idx, FaultPlan::clean(3).with_truncation(idx_len / 4));
        (store.map(drop), index.map(drop))
    }))
    .expect("open must not panic on a truncated file");
    match opened {
        (Err(store), Err(index)) => {
            assert!(
                index.is_corruption(),
                "unexpected index error class: {index}"
            );
            assert!(
                matches!(store, SeqError::CorruptPackedData { .. }),
                "unexpected store error: {store}"
            );
        }
        other => panic!("a truncated file opened: {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Atomic persistence: writers leave no temp droppings behind, and the
// destination file only ever holds a complete image.
// ---------------------------------------------------------------------

#[test]
fn writers_leave_no_temp_files() {
    let coll = small_collection(910);
    let dir = temp_dir("atomic");
    let index = build_index(&coll, IndexParams::new(8), ListCodec::Paper);
    let store = build_store(&coll);

    write_index(&index, &dir.join("idx.nucidx")).unwrap();
    store.write_to(&dir.join("sto.nucsto")).unwrap();

    // Overwrites go through the same temp+rename path.
    write_index(&index, &dir.join("idx.nucidx")).unwrap();
    store.write_to(&dir.join("sto.nucsto")).unwrap();

    let leftovers: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.contains(".tmp."))
        .collect();
    assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");

    // And what was renamed into place is complete and valid.
    assert!(indexes_equal(
        &CompressedIndex::open(&dir.join("idx.nucidx")).unwrap(),
        &index
    ));
    assert!(stores_equal(
        &SequenceStore::open(&dir.join("sto.nucsto")).unwrap(),
        &store
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_write_preserves_previous_file() {
    // A write that errors out (destination directory removed mid-flight
    // is hard to stage portably; instead: write to a path whose parent
    // is a file, which fails at create time) must leave an existing good
    // file untouched.
    let coll = small_collection(911);
    let dir = temp_dir("preserve");
    let store = build_store(&coll);
    let path = dir.join("sto.nucsto");
    store.write_to(&path).unwrap();
    let before = std::fs::read(&path).unwrap();

    let blocked = dir.join("sto.nucsto").join("impossible");
    assert!(store.write_to(&blocked).is_err());

    assert_eq!(std::fs::read(&path).unwrap(), before);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Open-time reads through the fault-injecting reader: short reads are
// harmless, flips produce typed errors.
// ---------------------------------------------------------------------

#[test]
fn streaming_index_load_survives_short_reads() {
    let coll = small_collection(912);
    let index = build_index(&coll, IndexParams::new(8), ListCodec::Paper);
    let dir = temp_dir("stream");
    let path = dir.join("idx.nucidx");
    write_index(&index, &path).unwrap();

    // Short reads only: open must reassemble the exact index.
    let plan = FaultPlan::clean(5).with_short_reads(0.9);
    let loaded = CompressedIndex::open_faulty(&path, plan).unwrap();
    assert!(indexes_equal(&loaded, &index));

    // A flipped bit in the blob must be caught even through short reads.
    let flip = vec![(index.blob_start() + 5, 0x10)];
    let plan = FaultPlan::clean(5)
        .with_short_reads(0.9)
        .with_bit_flips(flip);
    assert!(CompressedIndex::open_faulty(&path, plan).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn query_error_does_not_poison_the_database() {
    // One record's postings are damaged under intact checksums. Queries
    // that decode them fail with a typed error; the same database keeps
    // answering queries that avoid them — degraded service, not an
    // outage.
    let coll = small_collection(913);
    let dir = temp_dir("poison");
    let sto = dir.join("coll.nucsto");
    let idx = dir.join("idx.nucidx");
    let store = build_store(&coll);
    store.write_to(&sto).unwrap();
    write_index(
        &build_index(&coll, IndexParams::new(8), ListCodec::Paper),
        &idx,
    )
    .unwrap();

    // The index header says the last record is one base long: every list
    // holding it past offset 0 fails its decode.
    let last_record = (coll.records.len() - 1) as u32;
    forge_short_record(&idx, last_record).unwrap();

    let db = Database::from_variants(
        StoreVariant::Disk(nucdb::SequenceStore::open(&sto).unwrap()),
        IndexVariant::Disk(CompressedIndex::open(&idx).unwrap()),
    );

    // Query the damaged record by its own sequence: coarse search must
    // decode its lists and fail cleanly.
    let corrupt_query = coll.records[last_record as usize].seq.clone();
    let err = db
        .search(&corrupt_query, &SearchParams::default())
        .expect_err("query touching the corrupt record must fail");
    assert!(err.is_corruption());
    // The error names the failing list's file offset, as fsck would.
    let index = CompressedIndex::open(&idx).unwrap();
    let list_starts: Vec<u64> = (index.vocab().iter())
        .map(|entry| index.blob_start() + entry.offset)
        .collect();
    match &err {
        IndexError::BadFormat(v) => assert!(
            v.offset.is_some_and(|at| list_starts.contains(&at)),
            "{err}"
        ),
        other => panic!("expected a format violation, got {other}"),
    }

    // A query for a family that does not contain the corrupt record
    // still succeeds afterwards.
    let family = coll
        .families
        .iter()
        .enumerate()
        .find(|(_, f)| !f.member_ids.contains(&last_record))
        .map(|(i, _)| i)
        .expect("some family avoids the last record");
    let healthy_query =
        coll.query_for_family(family, 0.6, &nucdb_seq::random::MutationModel::identity());
    let outcome = db.search(&healthy_query, &SearchParams::default());
    if let Ok(outcome) = outcome {
        assert!(outcome
            .results
            .iter()
            .all(|r| r.record != last_record || r.score >= 0));
    }
    // (If the healthy query's lists happen to hold the damaged record,
    // the error is still the typed kind.)
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Coarse search's two passes read only bytes verified at open. So a
// flipped byte in any block of any list — one a query would decode or
// one no survivor of pass one holds — is that block's corruption error
// at open, at its file offset.
// ---------------------------------------------------------------------

/// 401 records share a 30-base segment (so its lists span four blocks)
/// and record 0 also holds the query's other half: under floor 40 only
/// record 0 can place.
fn shared_segment_index_on_disk(
    name: &str,
) -> (PathBuf, PathBuf, CompressedIndex, Vec<nucdb_seq::Base>) {
    let common = b"ACGTAGCTAGCTGGATCCAATTGGCCAACC";
    let unique = b"TGCATGCATTGCAACGGTACCTTAGGCATC";
    let bases = |ascii: &[u8]| DnaSeq::from_ascii(ascii).unwrap().representative_bases();
    let query = bases(&[&common[..], &unique[..]].concat());
    let mut builder = IndexBuilder::new(IndexParams::new(8)).with_codec(ListCodec::Block);
    builder.add_record(&query);
    for i in 0..400usize {
        let mut record = common.to_vec();
        record.extend(std::iter::repeat_n(b"GCTA"[i % 4], 8));
        builder.add_record(&bases(&record));
    }
    let index = builder.finish();
    let dir = temp_dir(name);
    let path = dir.join("idx.nucidx");
    write_index(&index, &path).unwrap();
    (dir, path, index, query)
}

fn floor_40() -> SearchParams {
    SearchParams {
        min_coarse_hits: 40,
        max_candidates: 500,
        ..SearchParams::default()
    }
}

/// File offset of the payload of block `b` of `code`'s list.
fn block_at(path: &Path, index: &CompressedIndex, code: u64, b: usize) -> u64 {
    let file_len = std::fs::metadata(path).unwrap().len();
    let blob_start = file_len - index.blob().len() as u64;
    let entry = index.entry(code).unwrap();
    let list = &index.blob()[entry.offset as usize..][..entry.len as usize];
    let block_start = match b {
        0 => 0,
        _ => {
            let end = &list[(b - 1) * nucdb_index::SKIP_ENTRY_BYTES + 4..][..4];
            u32::from_le_bytes(end.try_into().unwrap()) as u64
        }
    };
    blob_start + entry.offset + nucdb_index::skip_table_len(entry.df) as u64 + block_start
}

fn flip_byte(path: &Path, at: u64) {
    let mut bytes = std::fs::read(path).unwrap();
    bytes[at as usize] ^= 0x5A;
    std::fs::write(path, bytes).unwrap();
}

/// The clean run's per-list evidence.
fn explain_lists(path: &Path, query: &[nucdb_seq::Base]) -> Vec<nucdb::ListExplain> {
    let mut explain = nucdb::CoarseExplain::default();
    nucdb::coarse_rank_explain(
        &CompressedIndex::open(path).unwrap(),
        query,
        &floor_40(),
        &mut nucdb::CoarseScratch::new(),
        Some(&mut explain),
    )
    .unwrap();
    explain.lists
}

#[test]
fn flip_in_a_decoded_block_is_that_blocks_corruption_error() {
    let (dir, path, index, query) = shared_segment_index_on_disk("decodedflip");
    let list = explain_lists(&path, &query)
        .into_iter()
        .find(|l| !l.absent && l.df > 128)
        .expect("a multi-block list");
    for b in [0, 1] {
        let at = block_at(&path, &index, list.code, b);
        flip_byte(&path, at + 1);
        match CompressedIndex::open(&path) {
            Err(nucdb_index::IndexError::Corruption {
                section, offset, ..
            }) => {
                assert_eq!(section, "block", "block {b}");
                assert_eq!(offset, at, "block {b}");
            }
            other => panic!("block {b}: expected a block corruption, got {other:?}"),
        }
        flip_byte(&path, at + 1);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The last block of every multi-block list holds only records that
/// cannot reach floor 40, yet no byte goes unchecked: a flip there is
/// still that block's corruption error at its file offset.
#[test]
fn flip_in_a_block_no_survivor_holds_is_that_blocks_corruption_error() {
    let (dir, path, index, query) = shared_segment_index_on_disk("lastblockflip");
    let clean =
        nucdb::coarse_rank(&CompressedIndex::open(&path).unwrap(), &query, &floor_40()).unwrap();
    assert_eq!(clean.candidates.len(), 1);
    assert_eq!(clean.candidates[0].record, 0);
    let lists: Vec<_> = explain_lists(&path, &query)
        .into_iter()
        .filter(|l| !l.absent && l.df > 128)
        .collect();
    assert!(!lists.is_empty());
    for list in lists {
        assert_eq!(list.blocks_decoded, list.df.div_ceil(128), "{}", list.code);
        let at = block_at(&path, &index, list.code, list.blocks_decoded as usize - 1);
        flip_byte(&path, at + 1);
        match CompressedIndex::open(&path) {
            Err(nucdb_index::IndexError::Corruption {
                section, offset, ..
            }) => {
                assert_eq!(section, "block", "list {}", list.code);
                assert_eq!(offset, at, "list {}", list.code);
            }
            other => panic!(
                "list {}: expected a block corruption, got {other:?}",
                list.code
            ),
        }
        flip_byte(&path, at + 1);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transient_faults_are_invisible_to_both_coarse_passes() {
    let (dir, path, _, query) = shared_segment_index_on_disk("transientcoarse");
    let plan = FaultPlan::clean(42)
        .with_transient_errors(1.0, TRANSIENT_RETRY_LIMIT)
        .with_short_reads(0.5);
    for params in [floor_40(), SearchParams::default()] {
        let clean = nucdb::coarse_rank(&CompressedIndex::open(&path).unwrap(), &query, &params);
        let flaky = CompressedIndex::open_faulty(&path, plan.clone()).unwrap();
        let faulty = nucdb::coarse_rank(&flaky, &query, &params);
        let (clean, faulty) = (clean.unwrap(), faulty.unwrap());
        assert!(!clean.candidates.is_empty());
        assert_eq!(faulty.candidates, clean.candidates);
        assert_eq!(faulty.total_hits, clean.total_hits);
        assert_eq!(faulty.postings_bytes_read, clean.postings_bytes_read);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Rot after open: queries read the image taken at open, so a byte that
// rots on disk later never reaches an answer; fsck reads the disk and
// reports it.
// ---------------------------------------------------------------------

#[test]
fn rot_after_open_leaves_answers_alone_and_fsck_finds_it() {
    let coll = small_collection(914);
    let dir = temp_dir("rotafteropen");
    let records = coll.records.iter().map(|r| (r.id.clone(), r.seq.clone()));
    drop(
        Database::build(records, &nucdb::DbConfig::default())
            .with_disk_index(&dir.join("index.nucidx"))
            .unwrap()
            .with_disk_store(&dir.join("store.nucsto"))
            .unwrap(),
    );
    let opened = nucdb::Collection::open(&dir, &nucdb::CollectionOptions::default()).unwrap();
    let [("", index, _)] = opened.parts()[..] else {
        panic!("a plain directory opens one index");
    };
    let query = coll.query_for_family(0, 0.6, &nucdb_seq::random::MutationModel::identity());
    let params = SearchParams::default();
    let tuples = |o: nucdb::SearchOutcome| -> Vec<(u32, i32)> {
        o.results.iter().map(|r| (r.record, r.score)).collect()
    };
    let search = || opened.search_with_id(&query, &params, &mut nucdb::CoarseScratch::new(), None);
    let pristine = tuples(search().unwrap());
    assert!(!pristine.is_empty());

    // Flip the first byte of a list this query reads, on disk.
    let mut explain = nucdb::CoarseExplain::default();
    let bases = query.representative_bases();
    let mut scratch = nucdb::CoarseScratch::new();
    nucdb::coarse_rank_explain(index, &bases, &params, &mut scratch, Some(&mut explain)).unwrap();
    let code = explain.lists.iter().find(|l| !l.absent).unwrap().code;
    let at = index.blob_start() + index.entry(code).unwrap().offset;
    flip_byte(&dir.join("index.nucidx"), at);

    assert_eq!(tuples(search().unwrap()), pristine);
    let mut report = nucdb::FsckReport::default();
    nucdb::fsck_index(&dir.join("index.nucidx"), &mut report);
    assert_eq!(report.exit_code(), 1, "{:?}", report.findings);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.severity == nucdb::FsckSeverity::Payload && f.offset == Some(at)),
        "no payload finding at {at}: {:?}",
        report.findings
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// A hostile header: its CRC is valid, but a vocabulary code gap runs the
// interval code past u64::MAX. Debug builds would panic on the overflow
// and release builds would wrap into an unsorted vocabulary; both must
// refuse the file with a typed error.
// ---------------------------------------------------------------------

/// An index file whose second vocabulary entry overflows the code.
fn hostile_vocabulary_file() -> Vec<u8> {
    // k=8, stride 1, no stopping, paper codec, offset granularity; one
    // record of 40 bases; two empty lists.
    let mut header = vec![8u8, 1, 0, 0, 0, 1, 40, 2];
    // Code gap u64::MAX (a ten-byte varint): code u64::MAX - 1.
    header.extend([0xFF; 9]);
    header.extend([0x01, 0, 0, 0]);
    // Code gap 3: past u64::MAX.
    header.extend([3, 0, 0, 0]);
    header.push(0); // blob length
    let mut file = b"NUCIDX03".to_vec();
    file.extend((header.len() as u32).to_le_bytes());
    file.extend(nucdb_index::crc32(&header).to_le_bytes());
    file.extend(header);
    file
}

#[test]
fn hostile_vocabulary_code_gap_is_a_typed_error() {
    let dir = temp_dir("hostilevocab");
    let path = dir.join("idx.nucidx");
    std::fs::write(&path, hostile_vocabulary_file()).unwrap();
    let outcome = catch_unwind(AssertUnwindSafe(|| CompressedIndex::open(&path).map(drop)))
        .expect("a hostile header must not panic");
    match outcome {
        Err(IndexError::BadFormat(v)) => assert_eq!(v.section, "vocabulary"),
        other => panic!("expected a vocabulary format error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
