//! The correctness gate: every answer the benchmark times must equal
//! the answer of an in-memory joint build over the same records.

use nucdb::{CoarseScratch, Database, SearchResult, Strand};

use crate::inputs::{db_config, Mix, Record};

/// What identifies an answer list: `(record, score, strand)` in rank order.
pub type Answer = Vec<(u32, i32, Strand)>;

pub fn answer_of(results: &[SearchResult]) -> Answer {
    results
        .iter()
        .map(|r| (r.record, r.score, r.strand))
        .collect()
}

/// Operations attempted and failed so far. A wrong answer is a failed
/// operation, the same as an error.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Answers of a joint in-memory build over `records` to every query of
/// `mix`. The oracle database is dropped before returning so it never
/// lives beside the database under test.
pub fn oracle_answers(records: &[Record], mix: &Mix) -> Vec<Answer> {
    let db = Database::build(records.iter().cloned(), &db_config());
    search_all(&db, mix).expect("in-memory search cannot fail")
}

/// Answers of `db` to every query of `mix`, with one reused scratch.
pub fn search_all(db: &Database, mix: &Mix) -> Result<Vec<Answer>, nucdb_index::IndexError> {
    let mut scratch = CoarseScratch::new();
    mix.queries
        .iter()
        .map(|q| {
            db.search_with(&q.seq, &mix.params, &mut scratch)
                .map(|o| answer_of(&o.results))
        })
        .collect()
}

/// Compare one answer list per query against the oracle's; every query
/// is one attempted operation.
pub fn check_answers(workload: &str, got: &[Answer], want: &[Answer]) -> Tally {
    assert_eq!(got.len(), want.len(), "one answer list per query");
    let mut tally = Tally::default();
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g != w {
            eprintln!("{workload}: query {i} differs from the joint in-memory build");
        }
        tally.record(g == w);
    }
    tally
}

/// Mean over the mix of the share of each query's planted records that
/// are in its answers. Only records below `present` exist (a live
/// database holds a prefix of the corpus); a query none of whose planted
/// records exist yet is left out of the mean.
pub fn recall_planted(mix: &Mix, answers: &[Answer], present: u32) -> f64 {
    let per_query: Vec<f64> = mix
        .queries
        .iter()
        .zip(answers)
        .filter_map(|(q, answer)| {
            let expected: Vec<u32> = q.planted.iter().copied().filter(|&r| r < present).collect();
            if expected.is_empty() {
                return None;
            }
            let found = expected
                .iter()
                .filter(|r| answer.iter().any(|a| a.0 == **r))
                .count();
            Some(found as f64 / expected.len() as f64)
        })
        .collect();
    per_query.iter().sum::<f64>() / per_query.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{corpus, family_mix, records};

    #[test]
    fn recall_counts_only_planted_records_that_exist() {
        let coll = corpus(3, 1_000_000);
        let mut mix = family_mix(&coll);
        mix.queries.truncate(2);
        mix.queries[0].planted = vec![1, 2, 50];
        mix.queries[1].planted = vec![60, 70];
        let answers = vec![
            vec![(2, 10, Strand::Forward), (9, 5, Strand::Reverse)],
            vec![(60, 10, Strand::Forward)],
        ];
        // Everything present: (1/3 + 1/2) / 2.
        assert!((recall_planted(&mix, &answers, 100) - 5.0 / 12.0).abs() < 1e-12);
        // Only records < 10 exist: query 0 expects {1, 2}, query 1 nothing.
        assert!((recall_planted(&mix, &answers, 10) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_wrong_answer_is_a_failed_operation() {
        let a = vec![(1, 10, Strand::Forward)];
        let b = vec![(1, 11, Strand::Forward)];
        let tally = check_answers("t", &[a.clone(), a.clone()], &[a, b]);
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
    }

    #[test]
    fn oracle_finds_the_planted_families() {
        let coll = corpus(4, 1_000_000);
        let mix = family_mix(&coll);
        let answers = oracle_answers(&records(&coll), &mix);
        let recall = recall_planted(&mix, &answers, coll.records.len() as u32);
        assert!(recall >= mix.min_recall, "recall {recall}");
    }
}
