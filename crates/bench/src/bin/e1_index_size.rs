//! **E1 — Index size vs. interval length, compressed vs. uncompressed.**
//!
//! Reproduces the paper's index-size story ("by use of suitable
//! compression techniques the index size is held to an acceptable
//! level"): sweep the interval length `k` and compare the paper's
//! Golomb/gamma postings layout against the fixed-width (uncompressed)
//! layout, reporting index size as a fraction of the collection.

use nucdb_bench::{banner, bytes, collection, time, Table};
use nucdb_codec::FixedWidth;
use nucdb_index::{CompressedIndex, IndexBuilder, IndexParams};

/// Postings bytes of the uncompressed comparator: the same lists with
/// every record gap and offset gap at the fixed width of its universe
/// and every count in 32 bits, each list byte-aligned as the index's are.
fn fixed_width_bytes(index: &CompressedIndex) -> u64 {
    let width = |universe: u32| FixedWidth::for_max((universe as u64).max(1)).bits() as u64;
    let record_bits = width(index.num_records()) + 32;
    let lens = index.record_lens();
    let lists = index.decode_all().expect("index decodes");
    lists
        .iter()
        .map(|(_, list)| {
            let bits: u64 = list
                .entries
                .iter()
                .map(|p| record_bits + p.offsets.len() as u64 * width(lens[p.record as usize]))
                .sum();
            bits.div_ceil(8)
        })
        .sum()
}

fn main() {
    banner(
        "E1",
        "index size vs interval length, compressed vs uncompressed",
    );
    let coll = collection(0xE1, 4_000_000);
    let bases: Vec<Vec<nucdb_seq::Base>> = coll
        .records
        .iter()
        .map(|r| r.seq.representative_bases())
        .collect();
    let collection_bytes: u64 = coll.total_bases() as u64; // 1 byte/base ASCII
    println!(
        "collection: {} records, {} bases",
        coll.records.len(),
        bytes(collection_bytes)
    );

    let mut table = Table::new(&[
        "k",
        "distinct",
        "postings",
        "compressed B",
        "fixed B",
        "ratio",
        "index/coll",
        "build ms",
    ]);

    for k in [6usize, 8, 10, 12] {
        let (paper, paper_time) = time(|| {
            let mut b = IndexBuilder::new(IndexParams::new(k));
            for r in &bases {
                b.add_record(r);
            }
            b.finish()
        });
        let stats = paper.stats();
        let fixed_bytes = fixed_width_bytes(&paper);
        table.row(vec![
            k.to_string(),
            bytes(stats.distinct_intervals),
            bytes(stats.postings_entries),
            bytes(stats.blob_bytes),
            bytes(fixed_bytes),
            format!("{:.3}", stats.blob_bytes as f64 / fixed_bytes as f64),
            format!("{:.3}", stats.index_to_collection_ratio()),
            format!("{:.0}", paper_time.as_secs_f64() * 1e3),
        ]);
    }
    table.print();
    println!(
        "\nratio = compressed/fixed postings bytes; index/coll = total index bytes per\n\
         collection byte (vocabulary included). The paper's claim is that the ratio\n\
         stays well below 1 and index/coll remains acceptable at useful k."
    );
}
