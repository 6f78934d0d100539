//! **BENCH — postings decode rate, bit-serial vs block-parallel.**
//!
//! The NUCIDX04 block tier exists for one reason: the bit-serial Golomb
//! decoder walks the list one bit at a time, while the block decoder
//! unpacks 32 fixed-width lanes in straight-line code the compiler can
//! vectorise. This microbenchmark isolates that difference: the same
//! postings lists (from a reference index over the standard collection)
//! are decoded repeatedly under the paper codec and the block codec,
//! and the headline number is ids/second for each, plus the ratio.
//!
//! CI runs this with a reduced collection via `DECODE_RATE_BASES`;
//! results land in `results/BENCH_decode.json` next to the other
//! benchmark artifacts.

use std::time::{Duration, Instant};

use nucdb_bench::json::Value;
use nucdb_bench::{banner, bytes, collection, results_path, Table};
use nucdb_index::{decode_postings_with, encode_postings, IndexBuilder, IndexParams, ListCodec};

const REPEATS: usize = 5;

fn main() {
    banner(
        "BENCH",
        "postings decode rate: bit-serial vs block-parallel",
    );
    let size: usize = std::env::var("DECODE_RATE_BASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000_000);
    let coll = collection(0xDEC0DE, size);
    let mut builder = IndexBuilder::new(IndexParams::new(8));
    for r in &coll.records {
        builder.add_record(&r.seq.representative_bases());
    }
    let reference = builder.finish();
    let lists = reference.decode_all().expect("reference index decodes");
    let num_records = reference.num_records();
    let lens = reference.record_lens().to_vec();
    let total_ids: u64 = lists.iter().map(|(_, l)| l.df() as u64).sum();
    println!(
        "postings data: {} lists, {} ids ({} bases)",
        bytes(lists.len() as u64),
        bytes(total_ids),
        bytes(size as u64)
    );

    let mut table = Table::new(&["codec", "encoded B", "decode ms (best)", "M ids/s"]);
    let mut rows: Vec<Value> = Vec::new();
    let mut rates = Vec::new();
    for codec in [ListCodec::Paper, ListCodec::Block] {
        let encoded: Vec<Vec<u8>> = lists
            .iter()
            .map(|(_, list)| encode_postings(list, num_records, &lens, codec))
            .collect();
        let encoded_bytes: u64 = encoded.iter().map(|b| b.len() as u64).sum();

        // Best-of-REPEATS full-corpus decode through the streaming path
        // (the one coarse search uses); the visitor only folds, so the
        // measured work is the decoder, not downstream bookkeeping.
        let mut best = Duration::MAX;
        let mut sink = 0u64;
        for _ in 0..REPEATS {
            let start = Instant::now();
            let mut acc = 0u64;
            for ((_, list), blob) in lists.iter().zip(&encoded) {
                decode_postings_with(
                    blob,
                    list.df() as u32,
                    num_records,
                    &lens,
                    codec,
                    |record, offset| acc = acc.wrapping_add(record as u64 ^ offset as u64),
                )
                .expect("decode");
            }
            best = best.min(start.elapsed());
            sink = sink.wrapping_add(acc);
        }
        std::hint::black_box(sink);

        let ids_per_sec = total_ids as f64 / best.as_secs_f64();
        rates.push(ids_per_sec);
        table.row(vec![
            codec.name().to_string(),
            bytes(encoded_bytes),
            format!("{:.2}", best.as_secs_f64() * 1e3),
            format!("{:.1}", ids_per_sec / 1e6),
        ]);
        rows.push(Value::Obj(vec![
            ("codec", Value::Str(codec.name().into())),
            ("encoded_bytes", Value::Int(encoded_bytes)),
            ("decode_ms_best", Value::Num(best.as_secs_f64() * 1e3)),
            ("ids_per_sec", Value::Num(ids_per_sec)),
        ]));
    }
    table.print();
    let ratio = rates[1] / rates[0];
    println!("\nblock decode rate is {ratio:.1}x the bit-serial Golomb decoder");

    let out = Value::Obj(vec![
        ("experiment", Value::Str("decode_rate".into())),
        (
            "description",
            Value::Str(
                "full-corpus postings decode through the streaming path: bit-serial \
                 Golomb (paper) vs 128-entry bitpacked blocks (NUCIDX04)"
                    .into(),
            ),
        ),
        ("collection_bases", Value::Int(size as u64)),
        ("total_ids", Value::Int(total_ids)),
        ("repeats_best_of", Value::Int(REPEATS as u64)),
        ("codecs", Value::Arr(rows)),
        ("block_vs_bit_serial_speedup", Value::Num(ratio)),
    ]);
    let path = results_path("BENCH_decode.json");
    std::fs::write(&path, out.render() + "\n").expect("write BENCH_decode.json");
    println!("wrote {}", path.display());
}
