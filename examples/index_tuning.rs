//! Index tuning: sweep the interval length, codec, and stopping policy and
//! print the size/speed/accuracy consequences — a miniature of experiments
//! E1/E4 for interactive exploration (E8's binary sweeps the coarse
//! ranking).
//!
//! ```sh
//! cargo run --release -p nucdb --example index_tuning
//! ```

use std::collections::HashSet;
use std::time::Instant;

use nucdb::{recall_at, Database, DbConfig, SearchParams};
use nucdb_index::{IndexParams, ListCodec, StopPolicy};
use nucdb_seq::random::{CollectionSpec, MutationModel, SyntheticCollection};

fn main() {
    let coll = SyntheticCollection::generate(&CollectionSpec {
        seed: 4096,
        num_background: 300,
        num_families: 6,
        family_size: 4,
        ..CollectionSpec::default()
    });
    println!(
        "collection: {} records / {} bases\n",
        coll.records.len(),
        coll.total_bases()
    );

    let queries: Vec<_> = (0..coll.families.len())
        .map(|f| coll.query_for_family(f, 0.5, &MutationModel::standard(0.06)))
        .collect();

    let evaluate = |config: &DbConfig, label: &str| {
        let t0 = Instant::now();
        let db = Database::build(
            coll.records.iter().map(|r| (r.id.clone(), r.seq.clone())),
            config,
        );
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;

        let index_bytes = match db.index() {
            nucdb::IndexVariant::Disk(i) => i.stats().total_bytes(),
            _ => unreachable!("built as one index"),
        };

        let params = SearchParams::default();
        let t0 = Instant::now();
        let mut recall_sum = 0.0;
        for (f, query) in queries.iter().enumerate() {
            let outcome = db.search(query, &params).unwrap();
            let ranked: Vec<u32> = outcome.results.iter().map(|r| r.record).collect();
            let relevant: HashSet<u32> = coll.families[f].member_ids.iter().copied().collect();
            recall_sum += recall_at(&ranked, &relevant, 10);
        }
        let query_ms = t0.elapsed().as_secs_f64() * 1e3 / queries.len() as f64;
        println!(
            "{label:<34} build {build_ms:>7.1} ms  index {:>9} B  query {query_ms:>6.2} ms  recall@10 {:.3}",
            index_bytes,
            recall_sum / queries.len() as f64
        );
    };

    println!("--- interval length sweep (codec: paper) ---");
    for k in [6, 8, 10, 12] {
        let config = DbConfig {
            index: IndexParams::new(k),
            ..DbConfig::default()
        };
        evaluate(&config, &format!("k = {k}"));
    }

    println!("\n--- codec sweep (k = 8) ---");
    for codec in [ListCodec::Paper, ListCodec::Block] {
        let config = DbConfig {
            codec,
            ..DbConfig::default()
        };
        evaluate(&config, codec.name());
    }

    println!("\n--- stopping sweep (k = 8, paper codec) ---");
    for (label, stopping) in [
        ("no stopping", None),
        ("df <= 10% of records", Some(StopPolicy::DfFraction(0.10))),
        ("df <= 2% of records", Some(StopPolicy::DfFraction(0.02))),
    ] {
        let mut index = IndexParams::new(8);
        index.stopping = stopping;
        let config = DbConfig {
            index,
            ..DbConfig::default()
        };
        evaluate(&config, label);
    }
}
