//! **E8 — Coarse ranking ablation: Count vs. Proportional vs. Frame.**
//!
//! The design choice at the heart of "likely answers": how should raw
//! interval hits be turned into a candidate ranking? The workload plants,
//! alongside each homolog family, *decoy* records — the family parent's
//! blocks in shuffled order. A decoy shares almost all of the parent's
//! intervals (hit counting cannot tell it from a member) but has no long
//! common diagonal (no good local alignment exists). Diagonal-structured
//! ranking should demote decoys; counting should not.
//!
//! The engine ranks by the frame score only; the count and proportional
//! rows rank with [`rank_by_hits`] here. Every row fine-searches its
//! candidates as the engine would.

use nucdb::{coarse_rank, fine_search, recall_at, DbConfig, IndexVariant, SearchParams};
use nucdb_bench::{
    banner, database, family_queries, family_relevant, rank_by_hits, HitScore, Table,
};
use nucdb_seq::random::{CollectionSpec, SyntheticCollection};

/// What a row ranks coarse candidates by.
#[derive(Clone, Copy)]
enum Ranking {
    /// A hit score, ranked in this binary.
    Hits(HitScore),
    /// The engine's frame score over a window of this many bases.
    Frame(u32),
}

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

    let schemes = [
        ("count", Ranking::Hits(HitScore::Count)),
        ("proportional", Ranking::Hits(HitScore::Proportional)),
        ("frame w=4", Ranking::Frame(4)),
        ("frame w=16", Ranking::Frame(16)),
        ("frame w=64", Ranking::Frame(64)),
    ];
    let IndexVariant::Disk(index) = db.index() else {
        unreachable!()
    };
    let params = SearchParams::default().with_candidates(30);

    let mut table = Table::new(&[
        "ranking",
        "members in coarse top-5",
        "decoys in coarse top-5",
        "recall@10 (end-to-end)",
    ]);

    for (label, ranking) in schemes {
        let mut member5 = 0.0;
        let mut decoy5 = 0.0;
        let mut recall = 0.0;
        for (f, query) in &queries {
            let family = family_relevant(&coll, *f);
            let decoys: std::collections::HashSet<u32> =
                coll.families[*f].decoy_ids.iter().copied().collect();
            let bases = query.representative_bases();
            let candidates = match ranking {
                Ranking::Hits(score) => rank_by_hits(index, &bases, &params, score).unwrap(),
                Ranking::Frame(frame_window) => {
                    let params = SearchParams {
                        frame_window,
                        ..params
                    };
                    coarse_rank(index, &bases, &params).unwrap().candidates
                }
            };
            let top5: Vec<u32> = candidates.iter().take(5).map(|c| c.record).collect();
            member5 += top5.iter().filter(|r| family.contains(r)).count() as f64;
            decoy5 += top5.iter().filter(|r| decoys.contains(r)).count() as f64;

            let (mode, scheme, floor) = (params.fine, &params.scheme, params.min_score);
            let results = fine_search(db.store(), query, &candidates, mode, scheme, floor);
            let results = results.unwrap();
            let ranked: Vec<u32> = (results.iter().take(params.max_results))
                .map(|r| r.record)
                .collect();
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
