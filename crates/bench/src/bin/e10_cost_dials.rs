//! **E10 — Coarse-search cost dial: query stride.**
//!
//! A bounded-resource technique from the CAFE/inverted-file line,
//! ablated against the default configuration: *query stride* — look up
//! only every s-th query interval (overlapping intervals are redundant,
//! so lookups shrink ~s-fold).

use nucdb::{recall_at, DbConfig, SearchParams};
use nucdb_bench::{banner, collection, database, family_queries, family_relevant, time, Table};

fn main() {
    banner("E10", "coarse cost dial: query stride");
    let coll = collection(0xE10, 4_000_000);
    let db = database(&coll, &DbConfig::default());
    let queries = family_queries(&coll, 0.6, 0.06);
    println!("collection: {} records", coll.records.len());

    let mut table = Table::new(&[
        "configuration",
        "lookups",
        "postings",
        "query ms",
        "family recall@10",
    ]);

    for stride in [1usize, 2, 4, 8, 16] {
        let params = SearchParams {
            query_stride: stride,
            ..SearchParams::default()
        };
        let mut lookups = 0u64;
        let mut postings = 0u64;
        let mut recall = 0.0;
        let mut total = std::time::Duration::ZERO;
        for (f, query) in &queries {
            let (outcome, took) = time(|| db.search(query, &params).unwrap());
            total += took;
            lookups += outcome.stats.intervals_looked_up;
            postings += outcome.stats.postings_decoded;
            let ranked: Vec<u32> = outcome.results.iter().map(|r| r.record).collect();
            recall += recall_at(&ranked, &family_relevant(&coll, *f), 10);
        }
        let n = queries.len() as f64;
        table.row(vec![
            format!("stride {stride}"),
            format!("{:.0}", lookups as f64 / n),
            format!("{:.0}", postings as f64 / n),
            format!("{:.2}", total.as_secs_f64() * 1e3 / n),
            format!("{:.3}", recall / n),
        ]);
    }
    table.print();
    println!(
        "\nStride divides lookups (and postings volume) nearly proportionally with\n\
         little recall cost until the sampled intervals get too sparse to cover the\n\
         homologous region."
    );
}
