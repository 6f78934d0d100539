//! Integration tests for the feature surface beyond the core pipeline:
//! strand handling, masking, striding, and e-value statistics working
//! together at collection scale.

use std::collections::HashSet;

use nucdb::{recall_at, Database, DbConfig, FineMode, RecordSource, SearchParams, Strand};
use nucdb_align::{calibrate_gumbel, sw_score_iupac};
use nucdb_seq::random::{splice_repeat, CollectionSpec, MutationModel, SyntheticCollection};
use nucdb_seq::{DnaSeq, DustParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn collection(seed: u64) -> SyntheticCollection {
    SyntheticCollection::generate(&CollectionSpec {
        seed,
        num_background: 120,
        num_families: 4,
        family_size: 3,
        repeat_prob: 0.3,
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
fn both_strand_search_unions_forward_and_reverse() {
    let coll = collection(301);
    let db = build(&coll, &DbConfig::default());

    // Forward query for family 0, rc query for family 1, concatenated —
    // a chimera whose halves sit on opposite strands.
    let fwd = coll.query_for_family(0, 0.5, &MutationModel::substitutions(0.02));
    let rev = coll
        .query_for_family(1, 0.5, &MutationModel::substitutions(0.02))
        .reverse_complement();
    let mut chimera = fwd.clone();
    chimera.extend_from(&rev);

    let params = SearchParams::default().with_strand(Strand::Both);
    let outcome = db.search(&chimera, &params).unwrap();
    let by_record: Vec<(u32, Strand)> = outcome
        .results
        .iter()
        .map(|r| (r.record, r.strand))
        .collect();

    for &m in &coll.families[0].member_ids {
        assert!(
            by_record
                .iter()
                .any(|&(r, s)| r == m && s == Strand::Forward),
            "family 0 member {m} missing on forward strand"
        );
    }
    for &m in &coll.families[1].member_ids {
        assert!(
            by_record
                .iter()
                .any(|&(r, s)| r == m && s == Strand::Reverse),
            "family 1 member {m} missing on reverse strand"
        );
    }
}

#[test]
fn masking_defends_against_contaminated_queries_at_scale() {
    let coll = collection(302);
    let db = build(&coll, &DbConfig::default());

    // Contaminate every family query with a repeat-unit tiling segment.
    let mut rng = StdRng::seed_from_u64(302);
    let unit = coll.repeat_units[0].clone();
    let mut masked_recall = 0.0;
    let mut masked_hits = 0u64;
    let mut unmasked_hits = 0u64;
    for f in 0..coll.families.len() {
        let mut query = coll.query_for_family(f, 0.6, &MutationModel::substitutions(0.03));
        let repeat = splice_repeat(
            &DnaSeq::from_ascii(&[b'C'; 100]).unwrap(),
            &unit,
            100..101,
            &mut rng,
        );
        query.extend_from(&repeat);

        let relevant: HashSet<u32> = coll.families[f].member_ids.iter().copied().collect();

        let plain = db.search(&query, &SearchParams::default()).unwrap();
        unmasked_hits += plain.stats.total_hits;

        let masked_params = SearchParams {
            mask: Some(DustParams::default()),
            ..SearchParams::default()
        };
        let masked = db.search(&query, &masked_params).unwrap();
        masked_hits += masked.stats.total_hits;
        let ranked: Vec<u32> = masked.results.iter().map(|r| r.record).collect();
        masked_recall += recall_at(&ranked, &relevant, 10);
    }
    let n = coll.families.len() as f64;
    assert!(
        masked_recall / n >= 0.9,
        "masked recall {:.3}",
        masked_recall / n
    );
    assert!(
        masked_hits * 4 < unmasked_hits,
        "masking did not curb hit volume: {masked_hits} vs {unmasked_hits}"
    );
}

#[test]
fn striding_keeps_recall_at_scale() {
    let coll = collection(303);
    let db = build(&coll, &DbConfig::default());
    for stride in [2usize, 4] {
        let params = SearchParams {
            query_stride: stride,
            ..SearchParams::default()
        };
        let mut recall = 0.0;
        for f in 0..coll.families.len() {
            let query = coll.query_for_family(f, 0.6, &MutationModel::substitutions(0.03));
            let relevant: HashSet<u32> = coll.families[f].member_ids.iter().copied().collect();
            let ranked: Vec<u32> = db
                .search(&query, &params)
                .unwrap()
                .results
                .iter()
                .map(|r| r.record)
                .collect();
            recall += recall_at(&ranked, &relevant, 10);
        }
        let recall = recall / coll.families.len() as f64;
        assert!(recall >= 0.9, "stride {stride}: recall {recall}");
    }
}

#[test]
fn evalues_separate_homologs_from_noise() {
    let coll = collection(305);
    let db = build(&coll, &DbConfig::default());
    let params = SearchParams::default();
    let mean_len = db.store().total_bases() / db.len();
    let query = coll.query_for_family(2, 0.6, &MutationModel::standard(0.05));
    let fit = calibrate_gumbel(&params.scheme, query.len(), mean_len, 48, 305);

    let outcome = db.search(&query, &params).unwrap();
    let members: HashSet<u32> = coll.families[2].member_ids.iter().copied().collect();
    for result in &outcome.results {
        let target_len = db.store().record_len(result.record);
        let evalue = fit.evalue(query.len(), target_len, result.score);
        if members.contains(&result.record) {
            assert!(
                evalue < 1e-6,
                "member {} has weak e-value {evalue}",
                result.record
            );
        } else {
            assert!(
                evalue > 1e-6,
                "non-member {} looks significant: {evalue}",
                result.record
            );
        }
    }
}

#[test]
fn iupac_fine_mode_runs_end_to_end() {
    // Heavy wildcard contamination: wildcard-aware scoring of the stored
    // member must score at least as well as the collapsed fine search.
    let coll = SyntheticCollection::generate(&CollectionSpec {
        seed: 306,
        wildcard_rate: 0.05,
        ..CollectionSpec::tiny(306)
    });
    let db = build(&coll, &DbConfig::default());
    let member = coll.families[0].member_ids[0];
    let range = coll.families[0].embedded_ranges[0].clone();
    let query = coll.records[member as usize].seq.subseq(range);

    let params = SearchParams::default().with_fine(FineMode::Full);
    let collapsed = db.search(&query, &params).unwrap();
    let collapsed_score = collapsed
        .results
        .iter()
        .find(|r| r.record == member)
        .map(|r| r.score)
        .unwrap_or(0);
    let stored = db.store().sequence(member).unwrap();
    let iupac_score = sw_score_iupac(&query, &stored, &params.scheme);
    assert!(
        iupac_score >= collapsed_score,
        "iupac {iupac_score} < collapsed {collapsed_score}"
    );
}
