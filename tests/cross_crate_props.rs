//! Cross-crate property tests: invariants that tie the sequence, codec,
//! index, alignment, and engine layers together.

use nucdb::{coarse_rank, Database, DbConfig, SearchParams};
use nucdb_align::{banded_sw_score, sw_score, ScoringScheme};
use nucdb_index::{write_index, CompressedIndex, IndexBuilder, IndexParams, ListCodec, StopPolicy};
use nucdb_seq::{DnaSeq, PackedSeq};
use proptest::prelude::*;

/// Random DNA ASCII with occasional wildcards.
fn dna_ascii(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(b"ACGTACGTACGTACGTACGTN".to_vec()), len)
}

fn any_codec() -> impl Strategy<Value = ListCodec> {
    prop::sample::select(vec![ListCodec::Paper, ListCodec::Block])
}

fn any_stopping() -> impl Strategy<Value = Option<StopPolicy>> {
    prop::sample::select(vec![
        None,
        Some(StopPolicy::DfFraction(0.25)),
        Some(StopPolicy::DfAbsolute(8)),
        Some(StopPolicy::TopK(2)),
    ])
}

/// A unique path per proptest case (cases run sequentially within one
/// test, but distinct property tests run on parallel threads).
fn unique_path(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NONCE: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "nucdb_props_{tag}_{}_{}",
        std::process::id(),
        NONCE.fetch_add(1, Ordering::Relaxed)
    ))
}

fn index_fields_equal(a: &CompressedIndex, b: &CompressedIndex) -> bool {
    a.params() == b.params()
        && a.codec() == b.codec()
        && a.record_lens() == b.record_lens()
        && a.vocab() == b.vocab()
        && a.blob() == b.blob()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pack_round_trips_any_sequence(ascii in dna_ascii(0..600)) {
        let seq = DnaSeq::from_ascii(&ascii).unwrap();
        let packed = PackedSeq::pack(&seq);
        prop_assert_eq!(packed.unpack(), seq.clone());
        let bytes = packed.to_bytes();
        prop_assert_eq!(PackedSeq::from_bytes(&bytes).unwrap().unpack(), seq);
    }

    #[test]
    fn index_contains_every_extracted_interval(
        records in prop::collection::vec(dna_ascii(10..120), 1..12),
        k in 4usize..10,
    ) {
        let params = IndexParams::new(k);
        let mut builder = IndexBuilder::new(params.clone());
        let bases: Vec<Vec<nucdb_seq::Base>> = records
            .iter()
            .map(|a| DnaSeq::from_ascii(a).unwrap().representative_bases())
            .collect();
        for b in &bases {
            builder.add_record(b);
        }
        let index = builder.finish();
        for (id, b) in bases.iter().enumerate() {
            for (offset, code) in params.extract(b) {
                let list = index.postings(code).unwrap().expect("interval indexed");
                let entry = list.entries.iter().find(|p| p.record == id as u32)
                    .expect("record present in its interval's list");
                prop_assert!(entry.offsets.contains(&offset));
            }
        }
        // And the index contains nothing that is not in some record:
        // total offsets equals total extracted intervals.
        let extracted: usize = bases.iter().map(|b| params.intervals_in(b.len())).sum();
        let stored: usize = index
            .decode_all()
            .unwrap()
            .iter()
            .map(|(_, l)| l.total_occurrences())
            .sum();
        prop_assert_eq!(extracted, stored);
    }

    #[test]
    fn banded_score_bounded_by_full(
        q in dna_ascii(5..80),
        t in dna_ascii(5..80),
        center in -20i64..20,
        half_width in 0usize..12,
    ) {
        let q = DnaSeq::from_ascii(&q).unwrap().representative_bases();
        let t = DnaSeq::from_ascii(&t).unwrap().representative_bases();
        let scheme = ScoringScheme::blastn();
        let banded = banded_sw_score(&q, &t, &scheme, center, half_width);
        let full = sw_score(&q, &t, &scheme);
        prop_assert!(banded <= full, "banded {banded} > full {full}");
        prop_assert!(banded >= 0);
        // A band covering everything equals the full score.
        let wide = banded_sw_score(&q, &t, &scheme, 0, q.len() + t.len());
        prop_assert_eq!(wide, full);
    }

    #[test]
    fn self_query_always_finds_self(ascii in dna_ascii(40..200)) {
        // Any record queried by its own full sequence must come back as
        // the (joint) top answer with the self-alignment score.
        let seq = DnaSeq::from_ascii(&ascii).unwrap();
        let others = [
            DnaSeq::from_ascii(&[b'A'; 60]).unwrap(),
            DnaSeq::from_ascii(&[b'G'; 80]).unwrap(),
        ];
        let db = Database::build(
            std::iter::once(("self".to_string(), seq.clone()))
                .chain(others.iter().enumerate().map(|(i, s)| (format!("o{i}"), s.clone()))),
            &DbConfig::default(),
        );
        let outcome = db.search(&seq, &SearchParams::default()).unwrap();
        prop_assert!(!outcome.results.is_empty());
        let top = &outcome.results[0];
        prop_assert_eq!(top.record, 0, "self record must rank first");
        let scheme = ScoringScheme::blastn();
        let self_bases = seq.representative_bases();
        prop_assert_eq!(top.score, sw_score(&self_bases, &self_bases, &scheme));
    }

    #[test]
    fn v3_files_round_trip_for_any_configuration(
        records in prop::collection::vec(dna_ascii(20..100), 1..8),
        k in 4usize..10,
        stride in 1usize..3,
        codec in any_codec(),
        stopping in any_stopping(),
    ) {
        // Whatever the build configuration, writing the index and
        // loading it back must reproduce it exactly — params (including
        // stopping), vocabulary, and blob bytes.
        let mut params = IndexParams::new(k).with_stride(stride);
        if let Some(policy) = stopping {
            params = params.with_stopping(policy);
        }
        let mut builder = IndexBuilder::new(params).with_codec(codec);
        for r in &records {
            builder.add_record(&DnaSeq::from_ascii(r).unwrap().representative_bases());
        }
        let index = builder.finish();

        let v3 = unique_path("v3");
        write_index(&index, &v3).unwrap();
        let loaded_v3 = CompressedIndex::open(&v3);
        let _ = std::fs::remove_file(&v3);
        prop_assert!(index_fields_equal(&loaded_v3.unwrap(), &index));
    }

    #[test]
    fn store_files_round_trip_and_reject_flips(
        records in prop::collection::vec(dna_ascii(1..80), 1..8),
        flip_pos in any::<u16>(),
        flip_mask in any::<u8>(),
    ) {
        use nucdb::{SequenceStore, StorageMode};
        let mut store = SequenceStore::new(StorageMode::DirectCoding);
        for (i, r) in records.iter().enumerate() {
            store.add(format!("r{i}"), &DnaSeq::from_ascii(r).unwrap());
        }
        let path = unique_path("sto");
        store.write_to(&path).unwrap();

        let loaded = SequenceStore::open(&path).unwrap();
        prop_assert_eq!(loaded.len(), store.len());
        for r in 0..store.len() as u32 {
            prop_assert_eq!(loaded.id(r), store.id(r));
            prop_assert_eq!(loaded.sequence(r).unwrap(), store.sequence(r).unwrap());
        }

        // Any single-byte flip anywhere in the file fails the open with
        // a typed error: xor with a nonzero mask always changes the
        // byte, so a successful open would mean undetected corruption.
        let mut bytes = std::fs::read(&path).unwrap();
        let offset = flip_pos as usize % bytes.len();
        let mask = flip_mask | 1; // ensure nonzero
        bytes[offset] ^= mask;
        std::fs::write(&path, &bytes).unwrap();
        let mutated = SequenceStore::open(&path);
        let _ = std::fs::remove_file(&path);
        prop_assert!(mutated.is_err(), "flip {mask:#x} at byte {offset} opened");
    }

    #[test]
    fn coarse_candidates_never_exceed_cutoff(
        records in prop::collection::vec(dna_ascii(30..100), 1..10),
        cutoff in 1usize..8,
    ) {
        let mut builder = IndexBuilder::new(IndexParams::new(6));
        for r in &records {
            builder.add_record(&DnaSeq::from_ascii(r).unwrap().representative_bases());
        }
        let index = builder.finish();
        let query = DnaSeq::from_ascii(&records[0]).unwrap().representative_bases();
        let params = SearchParams {
            max_candidates: cutoff,
            min_coarse_hits: 1,
            ..SearchParams::default()
        };
        let outcome = coarse_rank(&index, &query, &params).unwrap();
        prop_assert!(outcome.candidates.len() <= cutoff);
        // Scores are sorted descending.
        for pair in outcome.candidates.windows(2) {
            prop_assert!(pair[0].frame_hits >= pair[1].frame_hits);
        }
        // Every candidate's diagonal is within the possible range.
        let num_records = index.num_records();
        for c in &outcome.candidates {
            prop_assert!(c.record < num_records);
            let len = index.record_lens()[c.record as usize] as i64;
            prop_assert!(c.best_diagonal > -(query.len() as i64));
            prop_assert!(c.best_diagonal < len);
        }
    }
}
