//! **E8 — Coarse ranking ablation: Count vs. Proportional vs. Frame.**
//!
//! The design choice at the heart of "likely answers": how should raw
//! interval hits be turned into a candidate ranking? The workload plants,
//! alongside each homolog family, *decoy* records — the family parent's
//! blocks in shuffled order. A decoy shares almost all of the parent's
//! intervals (hit counting cannot tell it from a member) but has no long
//! common diagonal (no good local alignment exists). Diagonal-structured
//! ranking should demote decoys; counting should not.

use nucdb::{coarse_rank, recall_at, DbConfig, IndexVariant, RankingScheme, SearchParams};
use nucdb_bench::{banner, database, family_queries, family_relevant, Table};
use nucdb_seq::random::{CollectionSpec, SyntheticCollection};

fn main() {
    banner("E8", "coarse ranking schemes vs shuffled-block decoys");
    let spec = CollectionSpec {
        repeat_prob: 0.25,
        repeat_families: 4,
        decoys_per_family: 3,
        ..CollectionSpec::sized(0xE8, 4_000_000)
    };
    let coll = SyntheticCollection::generate(&spec);
    let db = database(&coll, &DbConfig::default());
    let queries = family_queries(&coll, 0.6, 0.08);
    println!(
        "collection: {} records ({} decoys); divergence 8% queries",
        coll.records.len(),
        coll.families
            .iter()
            .map(|f| f.decoy_ids.len())
            .sum::<usize>()
    );

    let schemes: &[(&str, RankingScheme)] = &[
        ("count", RankingScheme::Count),
        ("proportional", RankingScheme::Proportional),
        ("frame w=4", RankingScheme::Frame { window: 4 }),
        ("frame w=16", RankingScheme::Frame { window: 16 }),
        ("frame w=64", RankingScheme::Frame { window: 64 }),
    ];

    let mut table = Table::new(&[
        "ranking",
        "members in coarse top-5",
        "decoys in coarse top-5",
        "recall@10 (end-to-end)",
    ]);

    for &(label, ranking) in schemes {
        let mut member5 = 0.0;
        let mut decoy5 = 0.0;
        let mut recall = 0.0;
        for (f, query) in &queries {
            let family = family_relevant(&coll, *f);
            let decoys: std::collections::HashSet<u32> =
                coll.families[*f].decoy_ids.iter().copied().collect();
            let params = SearchParams::default()
                .with_ranking(ranking)
                .with_candidates(30);

            let IndexVariant::Disk(index) = db.index() else {
                unreachable!()
            };
            let coarse = coarse_rank(index, &query.representative_bases(), &params).unwrap();
            let top5: Vec<u32> = coarse.candidates.iter().take(5).map(|c| c.record).collect();
            member5 += top5.iter().filter(|r| family.contains(r)).count() as f64;
            decoy5 += top5.iter().filter(|r| decoys.contains(r)).count() as f64;

            let outcome = db.search(query, &params).unwrap();
            let ranked: Vec<u32> = outcome.results.iter().map(|r| r.record).collect();
            recall += recall_at(&ranked, &family, 10);
        }
        let n = queries.len() as f64;
        table.row(vec![
            label.to_string(),
            format!("{:.2}", member5 / n),
            format!("{:.2}", decoy5 / n),
            format!("{:.3}", recall / n),
        ]);
    }
    table.print();
    println!(
        "\nDecoys carry the same intervals as true members, so counting ranks them\n\
         together; only the diagonal-windowed frame score separates alignable records\n\
         from shuffled impostors before any alignment is computed. (Fine search cleans\n\
         up either way — the coarse columns show who wastes fine alignments on decoys.)"
    );
}
