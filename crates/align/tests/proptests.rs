//! Property tests for the alignment substrate: invariants that hold for
//! every input under every reasonable scheme.

use nucdb_align::{
    banded_sw_score, banded_sw_scores, blast_score, fasta_score, nw_align, sw_align, sw_score,
    sw_score_iupac, BandScratch, BlastParams, FastaParams, ScoringScheme, WordTable, LANES,
};
use nucdb_seq::{Base, DnaSeq};
use proptest::prelude::*;

fn dna(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(b"ACGT".to_vec()), len)
}

fn bases(ascii: &[u8]) -> Vec<Base> {
    DnaSeq::from_ascii(ascii).unwrap().representative_bases()
}

fn schemes() -> [ScoringScheme; 3] {
    [
        ScoringScheme::unit(),
        ScoringScheme::blastn(),
        ScoringScheme {
            match_score: 2,
            mismatch_score: -7,
            gap_open: 6,
            gap_extend: 1,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sw_score_nonnegative_and_bounded(q in dna(0..60), t in dna(0..60)) {
        for scheme in schemes() {
            let s = sw_score(&bases(&q), &bases(&t), &scheme);
            prop_assert!(s >= 0);
            let bound = scheme.max_score(q.len().min(t.len()));
            prop_assert!(s as i64 <= bound, "score {s} exceeds bound {bound}");
        }
    }

    #[test]
    fn sw_score_is_symmetric(q in dna(0..50), t in dna(0..50)) {
        for scheme in schemes() {
            prop_assert_eq!(
                sw_score(&bases(&q), &bases(&t), &scheme),
                sw_score(&bases(&t), &bases(&q), &scheme)
            );
        }
    }

    #[test]
    fn sw_align_agrees_with_sw_score(q in dna(1..50), t in dna(1..50)) {
        for scheme in schemes() {
            let score = sw_score(&bases(&q), &bases(&t), &scheme);
            let align = sw_align(&bases(&q), &bases(&t), &scheme);
            match align {
                None => prop_assert_eq!(score, 0),
                Some(a) => {
                    prop_assert_eq!(a.score, score);
                    prop_assert!(a.is_consistent());
                    prop_assert!(a.query_range.end <= q.len());
                    prop_assert!(a.target_range.end <= t.len());
                }
            }
        }
    }

    #[test]
    fn self_alignment_is_perfect(q in dna(1..80)) {
        for scheme in schemes() {
            let b = bases(&q);
            prop_assert_eq!(
                sw_score(&b, &b, &scheme) as i64,
                scheme.max_score(q.len())
            );
        }
    }

    #[test]
    fn extending_target_never_lowers_local_score(
        q in dna(1..40),
        t in dna(1..40),
        extra in dna(0..30),
    ) {
        // A local alignment within t is still available within t+extra.
        let scheme = ScoringScheme::blastn();
        let qb = bases(&q);
        let short = sw_score(&qb, &bases(&t), &scheme);
        let mut longer = t.clone();
        longer.extend_from_slice(&extra);
        let long = sw_score(&qb, &bases(&longer), &scheme);
        prop_assert!(long >= short, "extension lowered score {short} -> {long}");
    }

    #[test]
    fn banded_below_full_and_exact_when_wide(
        q in dna(1..40),
        t in dna(1..40),
        center in -15i64..15,
        half_width in 0usize..10,
    ) {
        let scheme = ScoringScheme::blastn();
        let qb = bases(&q);
        let tb = bases(&t);
        let full = sw_score(&qb, &tb, &scheme);
        let banded = banded_sw_score(&qb, &tb, &scheme, center, half_width);
        prop_assert!((0..=full).contains(&banded));
        let wide = banded_sw_score(&qb, &tb, &scheme, 0, q.len() + t.len());
        prop_assert_eq!(wide, full);
    }

    #[test]
    fn lane_kernel_equals_scalar_kernel(
        q in dna(0..70),
        // ((shape, band centre), left flank, right flank) per target.
        specs in prop::collection::vec(((0u8..4, -80i64..160), dna(0..50), dna(0..50)), 1..=LANES),
        half_width in 0usize..40,
    ) {
        // Empty, unrelated, containing the query, and containing it with
        // an insertion in the middle: lengths 0..170, so the centres fall
        // before, inside and beyond every target.
        let targets: Vec<(Vec<Base>, i64)> = specs
            .iter()
            .map(|((shape, center), left, right)| {
                let (head, tail) = q.split_at(q.len() / 2);
                let ascii = match shape {
                    0 => Vec::new(),
                    1 => [&left[..], right].concat(),
                    2 => [&left[..], &q, right].concat(),
                    _ => [head, left, tail, right].concat(),
                };
                (bases(&ascii), *center)
            })
            .collect();
        let qb = bases(&q);
        let gapless_open = ScoringScheme {
            match_score: 3,
            mismatch_score: -2,
            gap_open: 0,
            gap_extend: 2,
        };
        let mut scratch = BandScratch::default();
        for scheme in schemes().into_iter().chain([gapless_open]) {
            let mut lanes = vec![0; targets.len()];
            banded_sw_scores(&qb, &targets, &scheme, half_width, &mut scratch, &mut lanes);
            let scalar: Vec<i32> = targets
                .iter()
                .map(|(t, c)| banded_sw_score(&qb, t, &scheme, *c, half_width))
                .collect();
            prop_assert_eq!(lanes, scalar, "scheme {:?}", scheme);
        }
    }

    #[test]
    fn global_score_at_most_local(q in dna(0..40), t in dna(0..40)) {
        for scheme in schemes() {
            let qb = bases(&q);
            let tb = bases(&t);
            let global = nw_align(&qb, &tb, &scheme);
            prop_assert!(global.is_consistent());
            prop_assert!(global.score <= sw_score(&qb, &tb, &scheme));
        }
    }

    #[test]
    fn heuristics_bounded_by_sw(q in dna(12..60), t in dna(12..60)) {
        let scheme = ScoringScheme::blastn();
        let qb = bases(&q);
        let tb = bases(&t);
        let sw = sw_score(&qb, &tb, &scheme);
        let ft = WordTable::build(&qb, 6);
        let fasta = fasta_score(&ft, &qb, &tb, &FastaParams::default(), &scheme);
        prop_assert!(fasta <= sw, "fasta {fasta} > sw {sw}");
        let bt = WordTable::build(&qb, 11);
        let blast = blast_score(&bt, &qb, &tb, &BlastParams::default(), &scheme);
        prop_assert!(blast <= sw, "blast {blast} > sw {sw}");
    }

    #[test]
    fn iupac_matches_classic_on_plain_bases(q in dna(0..50), t in dna(0..50)) {
        let qs = DnaSeq::from_ascii(&q).unwrap();
        let ts = DnaSeq::from_ascii(&t).unwrap();
        for scheme in schemes() {
            prop_assert_eq!(
                sw_score_iupac(&qs, &ts, &scheme),
                sw_score(&bases(&q), &bases(&t), &scheme)
            );
        }
    }

    #[test]
    fn planted_substring_scores_at_least_its_length(
        flank_a in dna(0..30),
        core in dna(8..40),
        flank_b in dna(0..30),
    ) {
        // Embedding an exact copy of the query guarantees a full-score
        // local alignment regardless of the flanks.
        let scheme = ScoringScheme::blastn();
        let mut target = flank_a.clone();
        target.extend_from_slice(&core);
        target.extend_from_slice(&flank_b);
        let score = sw_score(&bases(&core), &bases(&target), &scheme);
        prop_assert!(score as i64 >= scheme.max_score(core.len()));
    }
}

#[test]
fn scores_beyond_i16_fall_back_to_scalar_and_the_rest_fit() {
    // 7 000 identical bases at +5 score 35 000: more than an `i16` holds,
    // so the batch must take the scalar path.
    let seq: Vec<Base> = (0..7000u32)
        .map(|i| Base::from_code((i.wrapping_mul(2_654_435_761) >> 13) as u8))
        .collect();
    let short = &seq[..100];
    let scheme = ScoringScheme::blastn();
    let mut scores = [0; 2];
    banded_sw_scores(
        &seq,
        &[(&seq[..], 0), (short, 0)],
        &scheme,
        8,
        &mut BandScratch::default(),
        &mut scores,
    );
    assert_eq!(scores[0], 35_000);
    assert!(scores[0] > i32::from(i16::MAX));
    assert_eq!(scores[0], banded_sw_score(&seq, &seq, &scheme, 0, 8));
    assert_eq!(scores[1], banded_sw_score(&seq, short, &scheme, 0, 8));

    // The largest score the guard admits (3 199 × 5 < 16 000) stays in
    // lanes and must not overflow them: debug builds would panic here.
    let fits = &seq[..3199];
    banded_sw_scores(
        fits,
        &[(fits, 0)],
        &scheme,
        8,
        &mut BandScratch::default(),
        &mut scores[..1],
    );
    assert_eq!(scores[0], 15_995);
}

#[test]
fn more_targets_than_lanes_are_scored_in_order() {
    let query = bases(b"ACGTAGCTAGCTGGATCCGATTACA");
    let targets: Vec<(Vec<Base>, i64)> = (0..2 * LANES + 3)
        .map(|k| {
            let rotated = query[k % 7..].iter().chain(&query[..k % 5]);
            (rotated.copied().collect(), -((k % 7) as i64))
        })
        .collect();
    let scheme = ScoringScheme::blastn();
    let mut scores = vec![0; targets.len()];
    banded_sw_scores(
        &query,
        &targets,
        &scheme,
        3,
        &mut BandScratch::default(),
        &mut scores,
    );
    for ((target, center), &score) in targets.iter().zip(&scores) {
        assert_eq!(score, banded_sw_score(&query, target, &scheme, *center, 3));
    }
}
