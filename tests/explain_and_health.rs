//! Explain plans and index health: the observability layer's two
//! load-bearing contracts.
//!
//! 1. **Explain is passive.** Turning `SearchParams::explain` on must
//!    not change a single answer bit or cost counter, across every
//!    postings codec, in memory and on disk.
//! 2. **fsck finds what the durability suite breaks.** Every
//!    single-byte flip injected into a `NUCIDX03`, `NUCIDX04`, or
//!    `NUCSTO02` file must surface as an fsck finding naming the
//!    damaged section and an offset — and clean files must come back
//!    with exit code 0.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use nucdb::{
    fsck_index, fsck_store, Database, DbConfig, FsckReport, FsckSeverity, IndexStatReport,
    SearchOutcome, SearchParams, SequenceStore, StorageMode,
};
use nucdb_index::{CompressedIndex, FaultPlan, FaultyReader, IndexParams, ListCodec};
use nucdb_seq::random::{CollectionSpec, MutationModel, SyntheticCollection};
use nucdb_seq::DnaSeq;
use proptest::prelude::*;

static DIR_NONCE: AtomicU64 = AtomicU64::new(0);

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "nucdb_health_{name}_{}_{}",
        std::process::id(),
        DIR_NONCE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn build_db(seed: u64, codec: ListCodec) -> (Database, SyntheticCollection) {
    let coll = SyntheticCollection::generate(&CollectionSpec::tiny(seed));
    let config = DbConfig {
        index: IndexParams::new(8),
        codec,
        storage: StorageMode::DirectCoding,
    };
    let db = Database::build(
        coll.records.iter().map(|r| (r.id.clone(), r.seq.clone())),
        &config,
    );
    (db, coll)
}

/// One answer as (record, id, score, coarse score bits, coarse hits).
type AnswerPrint = (u32, String, i32, u64, u32);

/// Everything about an outcome that must be bit-identical with explain
/// on and off: ranked answers and all non-timing cost counters.
fn fingerprint(outcome: &SearchOutcome) -> (Vec<AnswerPrint>, Vec<u64>) {
    let results = outcome
        .results
        .iter()
        .map(|r| {
            (
                r.record,
                r.id.clone(),
                r.score,
                r.coarse_score.to_bits(),
                r.coarse_hits,
            )
        })
        .collect();
    let s = &outcome.stats;
    let counters = vec![
        s.intervals_looked_up,
        s.lists_fetched,
        s.postings_decoded,
        s.postings_bytes_read,
        s.blocks_decoded,
        s.total_hits,
        s.candidates,
        s.fine_alignments,
    ];
    (results, counters)
}

fn assert_explain_passive(db: &Database, query: &DnaSeq) {
    assert_explain_passive_with(db, query, SearchParams::default());
}

fn assert_explain_passive_with(db: &Database, query: &DnaSeq, params: SearchParams) {
    let off = db.search(query, &params).unwrap();
    let on = db
        .search(
            query,
            &SearchParams {
                explain: true,
                ..params
            },
        )
        .unwrap();
    assert!(off.explain.is_none(), "explain off must not attach a plan");
    let plan = on.explain.as_ref().expect("explain on must attach a plan");
    assert!(
        !plan.strands.is_empty(),
        "a plan must describe at least one strand"
    );
    assert_eq!(fingerprint(&off), fingerprint(&on));
}

fn any_codec() -> impl Strategy<Value = ListCodec> {
    prop::sample::select(vec![ListCodec::Paper, ListCodec::Block])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Contract 1, memory variant: explain changes nothing, whatever the
    // codec.
    #[test]
    fn explain_is_passive_across_codecs_and_granularities(
        codec in any_codec(),
        seed in 1u64..64,
        survivors in prop::sample::select(vec![0.4f64, 0.6, 0.9]),
    ) {
        let (db, coll) = build_db(seed, codec);
        let family = (seed as usize) % coll.families.len();
        let query = coll.query_for_family(family, survivors, &MutationModel::standard(0.05));
        assert_explain_passive_with(&db, &query, SearchParams::default());
    }
}

// Contract 1, disk variant: the plan's block-decode accounting rides on
// the checked fetch from an opened file, so the identity must also hold with the index
// and store both on disk — for the checksummed v3 tier and the
// block-structured v4 tier.
#[test]
fn explain_is_passive_on_disk() {
    for codec in [ListCodec::Paper, ListCodec::Block] {
        let dir = temp_dir("explain_disk");
        let (db, coll) = build_db(11, codec);
        let db = db
            .with_disk_index(&dir.join("idx.nucidx"))
            .unwrap()
            .with_disk_store(&dir.join("sto.nucsto"))
            .unwrap();
        for family in 0..coll.families.len().min(4) {
            let query = coll.query_for_family(family, 0.6, &MutationModel::standard(0.05));
            assert_explain_passive(&db, &query);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// Contract 2: fsck vs the durability suite's fault injection.
// ---------------------------------------------------------------------

/// A small persisted index + store pair in `dir`, sized so a per-byte
/// sweep stays fast.
fn persist_micro(dir: &Path, codec: ListCodec) -> (PathBuf, PathBuf) {
    let records: Vec<(String, DnaSeq)> = [
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
    .collect();

    let mut builder = nucdb_index::IndexBuilder::new(IndexParams::new(8)).with_codec(codec);
    let mut store = SequenceStore::new(StorageMode::DirectCoding);
    for (id, seq) in &records {
        builder.add_record(&seq.representative_bases());
        store.add(id.clone(), seq);
    }
    let idx = dir.join("idx.nucidx");
    let sto = dir.join("sto.nucsto");
    nucdb_index::write_index(&builder.finish(), &idx).unwrap();
    store.write_to(&sto).unwrap();
    (idx, sto)
}

fn fsck_faulty(idx: &Path, sto: &Path, plan: FaultPlan) -> FsckReport {
    fsck_planned(idx, sto, plan.clone(), plan)
}

/// The fsck walk over each file as `plan` damages it on its way in.
fn fsck_planned(
    idx: &Path,
    sto: &Path,
    index_plan: FaultPlan,
    store_plan: FaultPlan,
) -> FsckReport {
    let index = CompressedIndex::open(idx).unwrap();
    let store = SequenceStore::open(sto).unwrap();
    let file = |path: &Path, plan| FaultyReader::new(std::fs::File::open(path).unwrap(), plan);
    let mut report = FsckReport::default();
    index.walk(file(idx, index_plan), |step, outcome| {
        report.note_index(step, outcome)
    });
    store.walk(file(sto, store_plan), |step, outcome| {
        report.note_store(step, outcome)
    });
    report
}

#[test]
fn clean_files_exit_zero_for_every_codec() {
    for codec in [ListCodec::Paper, ListCodec::Block] {
        let dir = temp_dir("fsck_clean");
        let (idx, sto) = persist_micro(&dir, codec);
        let report = fsck_faulty(&idx, &sto, FaultPlan::clean(1));
        assert!(
            report.is_clean(),
            "clean files flagged: {:?}",
            report.findings
        );
        assert_eq!(report.exit_code(), 0);
        assert!(report.lists_checked > 0 && report.records_checked > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Sweep every byte of a file: each flip must produce at least one fsck
/// finding that names a section, with severity matching where the flip
/// landed. This replays exactly the faults the durability suite
/// injects, through the fsck walk instead of the query path.
fn sweep_every_byte(
    idx: &PathBuf,
    sto: &PathBuf,
    target_index: bool,
    structural_end: u64,
    format: &str,
) {
    let target = if target_index { idx } else { sto };
    let file_len = std::fs::metadata(target).unwrap().len();
    for offset in 0..file_len {
        let plan = FaultPlan::clean(1).with_bit_flips(vec![(offset, 0xFF)]);
        let (index_plan, store_plan) = if target_index {
            (plan, FaultPlan::clean(1))
        } else {
            (FaultPlan::clean(1), plan)
        };
        let report = fsck_planned(idx, sto, index_plan, store_plan);
        assert!(
            !report.is_clean(),
            "{format}: flip at byte {offset} of {} went undetected",
            target.display()
        );
        let finding = &report.findings[0];
        assert!(
            !finding.section.is_empty(),
            "{format}: finding at byte {offset} has no section"
        );
        if offset < structural_end {
            assert_eq!(
                finding.severity,
                FsckSeverity::Structural,
                "{format}: flip at header/TOC byte {offset} not structural: {finding:?}"
            );
            assert_eq!(report.exit_code(), 2);
        } else {
            assert_eq!(report.exit_code(), 1, "{format}: payload flip at {offset}");
            assert!(
                report
                    .findings
                    .iter()
                    .any(|f| f.severity == FsckSeverity::Payload && f.offset.is_some()),
                "{format}: payload flip at byte {offset} produced no located payload \
                 finding: {:?}",
                report.findings
            );
        }
    }
}

#[test]
fn every_byte_flip_in_v3_index_is_found() {
    let dir = temp_dir("fsck_v3");
    let (idx, sto) = persist_micro(&dir, ListCodec::Paper);
    let blob_start = CompressedIndex::open(&idx).unwrap().blob_start();
    sweep_every_byte(&idx, &sto, true, blob_start, "NUCIDX03");

    // The one single-bit flip that lands on another magic this code ever
    // knew: bit 0 of byte 7 makes the file claim to be the retired,
    // checksum-free NUCIDX02. It is refused by name — by the fsck walk
    // and by open — never by parsing the header it no longer
    // authenticates.
    let flip = FaultPlan::clean(1).with_bit_flips(vec![(7, 0x01)]);
    let report = fsck_faulty(&idx, &sto, flip);
    assert_eq!(report.exit_code(), 2);
    let finding = &report.findings[0];
    assert_eq!(finding.severity, FsckSeverity::Structural);
    assert!(finding.detail.contains("NUCIDX02"), "{finding:?}");
    let mut bytes = std::fs::read(&idx).unwrap();
    bytes[7] ^= 0x01;
    std::fs::write(&idx, &bytes).unwrap();
    match CompressedIndex::open(&idx).map(drop) {
        Err(nucdb_index::IndexError::UnsupportedFormat(what)) => assert_eq!(what, "NUCIDX02"),
        other => panic!("expected UnsupportedFormat(\"NUCIDX02\"), got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_byte_flip_in_v4_index_is_found() {
    let dir = temp_dir("fsck_v4");
    let (idx, sto) = persist_micro(&dir, ListCodec::Block);
    let opened = CompressedIndex::open(&idx).unwrap();
    assert_eq!(opened.format(), "NUCIDX04");
    let blob_start = opened.blob_start();
    sweep_every_byte(&idx, &sto, true, blob_start, "NUCIDX04");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_byte_flip_in_v2_store_is_found() {
    let dir = temp_dir("fsck_sto");
    let (idx, sto) = persist_micro(&dir, ListCodec::Paper);
    let store = SequenceStore::open(&sto).unwrap();
    let payload_start = store.payload_start();
    assert!(payload_start > 0);
    sweep_every_byte(&idx, &sto, false, payload_start, "NUCSTO02");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn findings_name_the_damaged_list_with_its_offset() {
    let dir = temp_dir("fsck_named");
    let (idx, sto) = persist_micro(&dir, ListCodec::Paper);
    let blob_start = CompressedIndex::open(&idx).unwrap().blob_start();
    // Flip one byte a little into the postings blob: the finding must
    // name the "list" section and carry the damaged list's offset.
    let plan = FaultPlan::clean(1).with_bit_flips(vec![(blob_start + 5, 0x10)]);
    let report = fsck_faulty(&idx, &sto, plan);
    let finding = report
        .findings
        .iter()
        .find(|f| f.file == "index")
        .expect("no index finding");
    assert_eq!(finding.section, "list");
    assert_eq!(finding.severity, FsckSeverity::Payload);
    let offset = finding.offset.expect("list finding without offset");
    assert!(offset >= blob_start, "offset {offset} before blob start");
    // And the rendering carries all of it, human-readably.
    let text = report.render_text();
    assert!(text.contains("payload damage"), "render: {text}");
    assert!(text.contains("\"list\""), "render: {text}");
    let _ = std::fs::remove_dir_all(&dir);
}

// The stat report stays consistent with what fsck walks: same list and
// record universe, byte totals that add up.
#[test]
fn stat_and_fsck_agree_on_the_universe() {
    let dir = temp_dir("stat_agree");
    let (idx, sto) = persist_micro(&dir, ListCodec::Block);
    let index = CompressedIndex::open(&idx).unwrap();
    let store = SequenceStore::open(&sto).unwrap();
    let stat = IndexStatReport::from_disk(&index);
    let mut report = FsckReport::default();
    fsck_index(&index, &mut report);
    fsck_store(&store, &mut report);
    assert!(report.is_clean());
    assert_eq!(report.lists_checked, stat.distinct_intervals);
    assert_eq!(report.records_checked, store.len() as u64);
    // fsck verified the header plus every list byte and every record
    // blob; the index part must equal the stat report's accounting.
    assert!(report.bytes_verified >= stat.header_bytes + stat.blob_bytes);
    let _ = std::fs::remove_dir_all(&dir);
}
