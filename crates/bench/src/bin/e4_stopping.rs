//! **E4 — Index stopping: size, speed, and accuracy vs. the threshold.**
//!
//! Frequent intervals carry little information but much index space and
//! decode time. This harness sweeps the stopping threshold (maximum
//! document frequency as a fraction of the collection) and reports index
//! size, mean query time, and planted-family recall.

use nucdb::{recall_at, DbConfig, IndexVariant, SearchParams};
use nucdb_bench::{
    banner, bytes, collection, database, family_queries, family_relevant, time, Table,
};
use nucdb_index::{IndexParams, StopPolicy};

fn main() {
    banner("E4", "index stopping threshold: size / time / accuracy");
    let coll = collection(0xE4, 4_000_000);
    let queries = family_queries(&coll, 0.6, 0.06);
    println!("collection: {} records", coll.records.len());

    let mut table = Table::new(&[
        "stop df <=",
        "distinct",
        "postings",
        "index B",
        "query ms",
        "family recall@10",
    ]);

    // k = 10 keeps the interval vocabulary unsaturated (mean df ~0.1% of
    // records) so the repeat families' lists stand out as the heavy tail
    // the thresholds step down through. At the end the threshold cuts
    // into ordinary intervals and recall pays.
    let fractions: &[Option<f64>] = &[
        None,
        Some(0.04),
        Some(0.02),
        Some(0.01),
        Some(0.003),
        Some(0.0008),
    ];
    for &frac in fractions {
        let mut index = IndexParams::new(10);
        index.stopping = frac.map(StopPolicy::DfFraction);
        let db = database(
            &coll,
            &DbConfig {
                index,
                ..DbConfig::default()
            },
        );
        let stats = match db.index() {
            IndexVariant::Disk(i) => i.stats(),
            _ => unreachable!("e4 builds one index, not segments"),
        };

        let params = SearchParams::default();
        let mut recall = 0.0;
        let mut total = std::time::Duration::ZERO;
        for (f, query) in &queries {
            let (outcome, took) = time(|| db.search(query, &params).unwrap());
            total += took;
            let ranked: Vec<u32> = outcome.results.iter().map(|r| r.record).collect();
            recall += recall_at(&ranked, &family_relevant(&coll, *f), 10);
        }
        let n = queries.len() as f64;
        table.row(vec![
            frac.map_or("none".to_string(), |f| format!("{:.1}%", f * 100.0)),
            bytes(stats.distinct_intervals),
            bytes(stats.postings_entries),
            bytes(stats.total_bytes()),
            format!("{:.2}", total.as_secs_f64() * 1e3 / n),
            format!("{:.3}", recall / n),
        ]);
    }
    table.print();
    println!(
        "\nModerate stopping removes the longest lists — most of the postings volume —\n\
         with little accuracy cost; aggressive stopping eventually removes the evidence\n\
         coarse ranking needs."
    );
}
