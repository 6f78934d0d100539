//! Property tests for the index layer: list codecs round-trip arbitrary
//! well-formed postings, corrupt inputs fail without panicking, and the
//! disk format round-trips arbitrary collections.

use nucdb_index::{
    decode_counts, decode_counts_with, decode_postings, decode_postings_with, encode_postings,
    write_index, CompressedIndex, IndexBuilder, IndexParams, ListCodec, Posting, PostingsList,
};
use nucdb_seq::{Base, DnaSeq};
use proptest::prelude::*;

const CODECS: [ListCodec; 2] = [ListCodec::Paper, ListCodec::Block];

/// Strategy: a well-formed postings list over `num_records` records of
/// length `record_len`, plus the length table.
fn postings_list(num_records: u32, record_len: u32) -> impl Strategy<Value = PostingsList> {
    // Choose a subset of records; per record a sorted set of offsets.
    prop::collection::btree_set(0..num_records, 0..20).prop_flat_map(move |records| {
        let records: Vec<u32> = records.into_iter().collect();
        let per_record =
            prop::collection::btree_set(0..record_len, 1..8).prop_map(|s| s.into_iter().collect());
        prop::collection::vec(per_record, records.len()..=records.len()).prop_map(
            move |offsets_per: Vec<Vec<u32>>| PostingsList {
                entries: records
                    .iter()
                    .zip(offsets_per)
                    .map(|(&record, offsets)| Posting { record, offsets })
                    .collect(),
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_well_formed_list_round_trips(list in postings_list(500, 900)) {
        prop_assume!(list.is_well_formed());
        let lens = vec![900u32; 500];
        for codec in CODECS {
            let bytes = encode_postings(&list, 500, &lens, codec);
            let back =
                decode_postings(&bytes, list.df() as u32, 500, &lens, codec).unwrap();
            prop_assert_eq!(&back, &list, "{}", codec.name());
        }
    }

    #[test]
    fn streaming_decode_visits_exactly_the_materialized_list(list in postings_list(400, 800)) {
        prop_assume!(list.is_well_formed());
        let lens = vec![800u32; 400];
        let df = list.df() as u32;
        for codec in CODECS {
            // The streamed (record, offset) sequence must equal the flattened
            // materialized decode, and the streamed (record, count) sequence its
            // per-record grouping.
            let bytes = encode_postings(&list, 400, &lens, codec);
            let materialized = decode_postings(&bytes, df, 400, &lens, codec).unwrap();
            let flat: Vec<(u32, u32)> = materialized
                .entries
                .iter()
                .flat_map(|p| p.offsets.iter().map(|&o| (p.record, o)))
                .collect();
            let mut streamed = Vec::new();
            decode_postings_with(&bytes, df, 400, &lens, codec, |r, o| streamed.push((r, o)))
                .unwrap();
            prop_assert_eq!(&streamed, &flat, "postings {}", codec.name());

            let counts = decode_counts(&bytes, df, 400, &lens, codec).unwrap();
            let mut streamed_counts = Vec::new();
            decode_counts_with(&bytes, df, 400, &lens, codec, |r, c| {
                streamed_counts.push((r, c))
            })
            .unwrap();
            prop_assert_eq!(&streamed_counts, &counts, "counts {}", codec.name());
        }
    }

    #[test]
    fn random_bytes_never_panic_decoder(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
        df in 0u32..50,
    ) {
        let lens = vec![300u32; 100];
        for codec in CODECS {
            // Must return Ok or Err; panics fail the test harness.
            let _ = decode_postings(&bytes, df, 100, &lens, codec);
        }
    }

    #[test]
    fn truncated_real_lists_never_panic(
        list in postings_list(200, 500),
        cut_frac in 0.0f64..1.0,
    ) {
        prop_assume!(list.df() > 0);
        let lens = vec![500u32; 200];
        for codec in CODECS {
            let bytes = encode_postings(&list, 200, &lens, codec);
            let cut = ((bytes.len() as f64) * cut_frac) as usize;
            let _ = decode_postings(&bytes[..cut], list.df() as u32, 200, &lens, codec);
        }
    }

    /// Block codec, multi-block scale: lists wide enough to span several
    /// 128-posting blocks round-trip, as postings and as counts.
    #[test]
    fn block_codec_round_trips_multi_block_lists(
        records in prop::collection::btree_set(0u32..2_000, 120..400),
        offsets_seed in prop::collection::vec(prop::collection::btree_set(0u32..300, 1..4), 400),
    ) {
        let list = PostingsList {
            entries: records
                .into_iter()
                .zip(offsets_seed)
                .map(|(record, offsets)| Posting {
                    record,
                    offsets: offsets.into_iter().collect(),
                })
                .collect(),
        };
        prop_assume!(list.is_well_formed());
        let lens = vec![300u32; 2_000];
        let df = list.df() as u32;
        let bytes = encode_postings(&list, 2_000, &lens, ListCodec::Block);
        let counts = decode_counts(&bytes, df, 2_000, &lens, ListCodec::Block).unwrap();
        let expected: Vec<(u32, u32)> = list
            .entries
            .iter()
            .map(|p| (p.record, p.offsets.len() as u32))
            .collect();
        prop_assert_eq!(&counts, &expected);
        let back = decode_postings(&bytes, df, 2_000, &lens, ListCodec::Block).unwrap();
        prop_assert_eq!(&back, &list);
    }

    /// Degenerate shapes the block layout must survive: df=1, a single
    /// partial block, and record ids at the very top of the u32 range.
    #[test]
    fn block_codec_handles_degenerate_lists(
        record in 0u32..u32::MAX,
        offsets in prop::collection::btree_set(0u32..1_000, 1..6),
    ) {
        let list = PostingsList {
            entries: vec![Posting {
                record,
                offsets: offsets.into_iter().collect(),
            }],
        };
        // Length table deliberately shorter than the record space:
        // records beyond it are unbounded (no per-record length cap).
        let lens = vec![1_000u32; 16];
        let bytes = encode_postings(&list, u32::MAX, &lens, ListCodec::Block);
        let back = decode_postings(&bytes, 1, u32::MAX, &lens, ListCodec::Block).unwrap();
        prop_assert_eq!(&back, &list);
    }

    #[test]
    fn disk_round_trip_arbitrary_records(
        records in prop::collection::vec(
            prop::collection::vec(prop::sample::select(b"ACGT".to_vec()), 0..150),
            0..20,
        ),
        k in 4usize..9,
    ) {
        let mut builder = IndexBuilder::new(IndexParams::new(k));
        for r in &records {
            let bases: Vec<Base> =
                DnaSeq::from_ascii(r).unwrap().representative_bases();
            builder.add_record(&bases);
        }
        let index = builder.finish();

        let path = std::env::temp_dir().join(format!(
            "nucdb_prop_disk_{}_{}.idx",
            std::process::id(),
            k
        ));
        write_index(&index, &path).unwrap();
        let loaded = CompressedIndex::open(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(loaded.num_records(), index.num_records());
        prop_assert_eq!(loaded.decode_all().unwrap(), index.decode_all().unwrap());
    }
}
