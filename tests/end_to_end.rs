//! End-to-end integration: build databases over synthetic collections and
//! verify that partitioned search retrieves planted homologs, agrees with
//! exhaustive ground truth at generous cutoffs, and degrades gracefully
//! as the candidate cutoff shrinks.

use std::collections::HashSet;

use nucdb::{
    average_precision, exhaustive_sw, recall_at, Database, DbConfig, FineMode, SearchParams,
};
use nucdb_align::ScoringScheme;
use nucdb_index::{IndexParams, StopPolicy};
use nucdb_seq::random::{CollectionSpec, MutationModel, SyntheticCollection};

fn medium_collection(seed: u64) -> SyntheticCollection {
    SyntheticCollection::generate(&CollectionSpec {
        seed,
        num_background: 150,
        background_len: 300..1200,
        num_families: 6,
        family_size: 4,
        parent_len: 250..500,
        mutation: MutationModel::standard(0.08),
        flank_len: 50..250,
        ..CollectionSpec::default()
    })
}

fn build(coll: &SyntheticCollection, config: &DbConfig) -> Database {
    Database::build(
        coll.records.iter().map(|r| (r.id.clone(), r.seq.clone())),
        config,
    )
}

#[test]
fn partitioned_search_recalls_planted_families() {
    let coll = medium_collection(101);
    let db = build(&coll, &DbConfig::default());
    let params = SearchParams::default();

    let mut total_recall = 0.0;
    for (f, family) in coll.families.iter().enumerate() {
        let query = coll.query_for_family(f, 0.6, &MutationModel::substitutions(0.03));
        let outcome = db.search(&query, &params).unwrap();
        let ranked: Vec<u32> = outcome.results.iter().map(|r| r.record).collect();
        let relevant: HashSet<u32> = family.member_ids.iter().copied().collect();
        total_recall += recall_at(&ranked, &relevant, 10);
    }
    let mean_recall = total_recall / coll.families.len() as f64;
    assert!(mean_recall > 0.9, "mean family recall {mean_recall}");
}

#[test]
fn partitioned_agrees_with_exhaustive_sw_at_generous_cutoff() {
    let coll = medium_collection(102);
    let db = build(&coll, &DbConfig::default());
    let scheme = ScoringScheme::blastn();

    for f in [0usize, 3] {
        let query = coll.query_for_family(f, 0.5, &MutationModel::standard(0.05));
        let qb = query.representative_bases();
        let truth = exhaustive_sw(db.store(), &qb, &scheme);
        let truth_top: Vec<u32> = truth.iter().take(5).map(|h| h.id).collect();

        // A generous candidate cutoff with full fine alignment should
        // reproduce the exhaustive top answers.
        let params = SearchParams::default()
            .with_candidates(100)
            .with_fine(FineMode::Full);
        let outcome = db.search(&query, &params).unwrap();
        let ours: Vec<u32> = outcome.results.iter().map(|r| r.record).collect();
        let relevant: HashSet<u32> = truth_top.iter().copied().collect();
        let recall = recall_at(&ours, &relevant, 10);
        assert!(recall >= 0.8, "family {f}: recall of SW top-5 was {recall}");

        // And the very best answer must agree (same record AND score).
        assert_eq!(ours[0], truth[0].id, "family {f}: top answer differs");
        assert_eq!(
            outcome.results[0].score, truth[0].score,
            "family {f}: top score differs"
        );
    }
}

#[test]
fn accuracy_degrades_gracefully_with_cutoff() {
    let coll = medium_collection(103);
    let db = build(&coll, &DbConfig::default());

    let query = coll.query_for_family(1, 0.6, &MutationModel::standard(0.05));
    let relevant: HashSet<u32> = coll.families[1].member_ids.iter().copied().collect();

    let mut previous_ap = -1.0;
    for candidates in [1usize, 5, 30, 200] {
        let params = SearchParams::default().with_candidates(candidates);
        let outcome = db.search(&query, &params).unwrap();
        let ranked: Vec<u32> = outcome.results.iter().map(|r| r.record).collect();
        let ap = average_precision(&ranked, &relevant);
        assert!(
            ap + 1e-9 >= previous_ap,
            "AP decreased from {previous_ap} to {ap} when cutoff grew to {candidates}"
        );
        previous_ap = ap;
    }
    assert!(
        previous_ap > 0.8,
        "AP at generous cutoff only {previous_ap}"
    );
}

#[test]
fn stopping_preserves_most_accuracy() {
    let coll = medium_collection(104);
    let unstopped = build(&coll, &DbConfig::default());
    let stopped = build(
        &coll,
        &DbConfig {
            index: IndexParams::new(8).with_stopping(StopPolicy::DfFraction(0.05)),
            ..DbConfig::default()
        },
    );

    let params = SearchParams::default();
    let mut recall_unstopped = 0.0;
    let mut recall_stopped = 0.0;
    for (f, family) in coll.families.iter().enumerate() {
        let query = coll.query_for_family(f, 0.6, &MutationModel::substitutions(0.04));
        let relevant: HashSet<u32> = family.member_ids.iter().copied().collect();
        let ranked: Vec<u32> = unstopped
            .search(&query, &params)
            .unwrap()
            .results
            .iter()
            .map(|r| r.record)
            .collect();
        recall_unstopped += recall_at(&ranked, &relevant, 10);
        let ranked: Vec<u32> = stopped
            .search(&query, &params)
            .unwrap()
            .results
            .iter()
            .map(|r| r.record)
            .collect();
        recall_stopped += recall_at(&ranked, &relevant, 10);
    }
    // Stopping may cost a little accuracy but must not collapse it.
    assert!(
        recall_stopped >= recall_unstopped * 0.8,
        "stopped recall {recall_stopped} vs unstopped {recall_unstopped}"
    );
}

#[test]
fn all_rankings_work_end_to_end() {
    let coll = medium_collection(105);
    let db = build(&coll, &DbConfig::default());
    let query = coll.query_for_family(2, 0.5, &MutationModel::identity());
    let relevant: HashSet<u32> = coll.families[2].member_ids.iter().copied().collect();

    for frame_window in [4, 16, 64] {
        let params = SearchParams {
            frame_window,
            ..SearchParams::default().with_candidates(50)
        };
        let outcome = db.search(&query, &params).unwrap();
        let ranked: Vec<u32> = outcome.results.iter().map(|r| r.record).collect();
        let recall = recall_at(&ranked, &relevant, 10);
        assert!(
            recall >= 0.75,
            "frame window {frame_window}: recall {recall}"
        );
    }
}

#[test]
fn wildcards_do_not_break_search() {
    // A collection with heavy wildcard contamination still indexes and
    // searches without error, and exact-fragment queries still hit.
    let coll = SyntheticCollection::generate(&CollectionSpec {
        seed: 107,
        wildcard_rate: 0.02,
        ..CollectionSpec::tiny(107)
    });
    let db = build(&coll, &DbConfig::default());
    let member = coll.families[0].member_ids[0];
    let range = coll.families[0].embedded_ranges[0].clone();
    let query = coll.records[member as usize].seq.subseq(range);
    let outcome = db.search(&query, &SearchParams::default()).unwrap();
    assert!(outcome.results.iter().any(|r| r.record == member));
}
