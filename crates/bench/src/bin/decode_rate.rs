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
//! Two more views of the block tier follow. The counts row walks every
//! list of a block-codec index the way coarse search's first pass does —
//! ids and counts only, offsets stepped over — on lists verified when
//! the index was opened, so it times the unpack kernel and the
//! structural checks and no CRC. The width rows time the unpack kernel alone, in
//! ns per value at every bit width, so a kernel regression shows at the
//! width it hits.
//!
//! CI runs this with a reduced collection via `DECODE_RATE_BASES`;
//! results land in `results/BENCH_decode.json` next to the other
//! benchmark artifacts.

use std::time::{Duration, Instant};

use nucdb_bench::json::Value;
use nucdb_bench::{banner, bytes, collection, results_path, Table};
use nucdb_index::{
    decode_postings_with, encode_postings, pack_group, unpack_group, CompressedIndex, IndexBuilder,
    IndexParams, ListCodec, OffsetSection, PostingsVisitor, VocabCursor,
};

const REPEATS: usize = 5;
/// Groups per width row: 4096 × 32 values.
const WIDTH_GROUPS: usize = 4096;

/// Folds every id and count of a counts walk, so none is optimised away.
struct Fold(u64);

impl PostingsVisitor for Fold {
    fn visit(&mut self, record: u32, value: u32) {
        self.0 = self.0.wrapping_add(u64::from(record ^ value));
    }

    fn visit_block(&mut self, records: &[u32], counts: &[u32], _offsets: OffsetSection) {
        for (&record, &count) in records.iter().zip(counts) {
            self.visit(record, count);
        }
    }
}

/// Best-of-REPEATS seconds for one counts walk over every list of
/// `index`, ascending code, after one untimed walk that verifies them.
fn counts_walk_best(index: &CompressedIndex) -> Duration {
    let mut fold = Fold(0);
    let mut walk = || {
        let start = Instant::now();
        let mut cursor = VocabCursor::default();
        for entry in index.vocab() {
            index
                .counts_stream(entry.code, &mut cursor, &mut fold)
                .expect("counts walk");
        }
        start.elapsed()
    };
    walk();
    let best = (0..REPEATS).map(|_| walk()).min().expect("REPEATS > 0");
    std::hint::black_box(fold.0);
    best
}

/// Best-of-REPEATS ns per value unpacking [`WIDTH_GROUPS`] groups of
/// pseudo-random values packed at `width`.
fn unpack_ns_per_value(width: u8) -> f64 {
    let mask = ((1u64 << width) - 1) as u32;
    let mut packed = Vec::new();
    let mut state = 0x9E37_79B9_u32;
    for _ in 0..WIDTH_GROUPS {
        let values: [u32; 32] = std::array::from_fn(|_| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            state & mask
        });
        pack_group(width, &values, &mut packed);
    }
    let group_bytes = usize::from(width) * 4;
    let mut lanes = [0u32; 32];
    let mut sink = 0u32;
    let mut best = Duration::MAX;
    for _ in 0..REPEATS {
        let start = Instant::now();
        for g in 0..WIDTH_GROUPS {
            unpack_group(
                std::hint::black_box(width),
                &packed[g * group_bytes..],
                &mut lanes,
            );
            sink = sink.wrapping_add(lanes[g % 32]);
        }
        best = best.min(start.elapsed());
    }
    std::hint::black_box(sink);
    best.as_secs_f64() * 1e9 / (WIDTH_GROUPS * 32) as f64
}

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

        // Best-of-REPEATS full-corpus decode through the free streaming
        // decode, offsets included (a block list's CRCs are checked
        // first, as when an index is opened); the visitor only folds,
        // so the measured work is the decoder, not downstream
        // bookkeeping.
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

    let mut builder = IndexBuilder::new(IndexParams::new(8)).with_codec(ListCodec::Block);
    for r in &coll.records {
        builder.add_record(&r.seq.representative_bases());
    }
    let block_index = builder.finish();
    let counts_best = counts_walk_best(&block_index);
    let counts_rate = total_ids as f64 / counts_best.as_secs_f64();
    println!(
        "\ncounts walk (pass one, verified lists): {:.2} ms, {:.1} M ids/s",
        counts_best.as_secs_f64() * 1e3,
        counts_rate / 1e6
    );

    let mut widths = Table::new(&["width", "unpack ns/value"]);
    let mut width_rows: Vec<Value> = Vec::new();
    for width in 0..=32u8 {
        let ns = unpack_ns_per_value(width);
        widths.row(vec![width.to_string(), format!("{ns:.3}")]);
        width_rows.push(Value::Obj(vec![
            ("width", Value::Int(u64::from(width))),
            ("unpack_ns_per_value", Value::Num(ns)),
        ]));
    }
    println!();
    widths.print();

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
        (
            "counts_walk",
            Value::Obj(vec![
                (
                    "description",
                    Value::Str(
                        "ids and counts of every block-codec list through the coarse \
                         pass-one walk, on lists verified by an earlier walk"
                            .into(),
                    ),
                ),
                (
                    "decode_ms_best",
                    Value::Num(counts_best.as_secs_f64() * 1e3),
                ),
                ("ids_per_sec", Value::Num(counts_rate)),
            ]),
        ),
        ("unpack_widths", Value::Arr(width_rows)),
    ]);
    let path = results_path("BENCH_decode.json");
    std::fs::write(&path, out.render() + "\n").expect("write BENCH_decode.json");
    println!("wrote {}", path.display());
}
