//! Exhaustive baselines: the search strategies the paper compares
//! partitioned search against, run over the same sequence store.
//!
//! * [`exhaustive_sw`] — full Smith–Waterman against every record: the
//!   gold standard for answer quality and the ground truth for the
//!   accuracy experiments, but quadratic per record.
//! * [`exhaustive_fasta`] — the FASTA-style k-tuple scan.
//! * [`exhaustive_blast`] — the BLAST1-style word-hit scan.
//!
//! All three touch every record of the collection on every query; their
//! cost grows linearly with collection size regardless of how few records
//! are relevant — the motivation for indexing in the first place.

use nucdb_align::{
    blast_score, fasta_score, sw_score, BlastParams, FastaParams, ScanHit, ScoringScheme, WordTable,
};
use nucdb_seq::Base;

use crate::store::RecordSource;

/// Rank every record by full Smith–Waterman score (descending; positive
/// scores only, ties by ascending record id).
pub fn exhaustive_sw<S: RecordSource>(
    store: &S,
    query: &[Base],
    scheme: &ScoringScheme,
) -> Vec<ScanHit> {
    let mut hits: Vec<ScanHit> = (0..store.len() as u32)
        .filter_map(|record| {
            let target = store.bases(record);
            let score = sw_score(query, &target, scheme);
            (score > 0).then_some(ScanHit { id: record, score })
        })
        .collect();
    hits.sort_by(|a, b| b.score.cmp(&a.score).then(a.id.cmp(&b.id)));
    hits
}

/// Rank every record with the FASTA-style scanner.
pub fn exhaustive_fasta<S: RecordSource>(
    store: &S,
    query: &[Base],
    params: &FastaParams,
    scheme: &ScoringScheme,
) -> Vec<ScanHit> {
    let table = WordTable::build(query, params.ktup);
    let mut hits: Vec<ScanHit> = (0..store.len() as u32)
        .filter_map(|record| {
            let target = store.bases(record);
            let score = fasta_score(&table, query, &target, params, scheme);
            (score > 0).then_some(ScanHit { id: record, score })
        })
        .collect();
    hits.sort_by(|a, b| b.score.cmp(&a.score).then(a.id.cmp(&b.id)));
    hits
}

/// Rank every record with the BLAST-style scanner.
pub fn exhaustive_blast<S: RecordSource>(
    store: &S,
    query: &[Base],
    params: &BlastParams,
    scheme: &ScoringScheme,
) -> Vec<ScanHit> {
    let table = WordTable::build(query, params.word_len);
    let mut hits: Vec<ScanHit> = (0..store.len() as u32)
        .filter_map(|record| {
            let target = store.bases(record);
            let score = blast_score(&table, query, &target, params, scheme);
            (score > 0).then_some(ScanHit { id: record, score })
        })
        .collect();
    hits.sort_by(|a, b| b.score.cmp(&a.score).then(a.id.cmp(&b.id)));
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{SequenceStore, StorageMode};
    use nucdb_seq::random::{CollectionSpec, MutationModel, SyntheticCollection};
    use nucdb_seq::DnaSeq;

    fn setup(seed: u64) -> (SyntheticCollection, SequenceStore) {
        let coll = SyntheticCollection::generate(&CollectionSpec::tiny(seed));
        let mut store = SequenceStore::new(StorageMode::DirectCoding);
        for record in &coll.records {
            store.add(record.id.clone(), &record.seq);
        }
        (coll, store)
    }

    #[test]
    fn sw_ranks_family_members_on_top() {
        let (coll, store) = setup(61);
        let query = coll.query_for_family(0, 0.6, &MutationModel::substitutions(0.02));
        let qb = query.representative_bases();
        let hits = exhaustive_sw(&store, &qb, &ScoringScheme::blastn());
        let members = &coll.families[0].member_ids;
        let top: Vec<u32> = hits.iter().take(members.len()).map(|h| h.id).collect();
        let found = members.iter().filter(|m| top.contains(m)).count();
        assert!(
            found >= members.len() - 1,
            "{found}/{} members in SW top",
            members.len()
        );
    }

    #[test]
    fn heuristics_agree_with_sw_on_clear_answers() {
        // Query with an exact fragment of a stored record: every scanner
        // must rank that record first with the full-match score.
        let (coll, store) = setup(62);
        let member = coll.families[1].member_ids[0];
        let range = coll.families[1].embedded_ranges[0].clone();
        let query = coll.records[member as usize].seq.subseq(range);
        let qb = query.representative_bases();
        let scheme = ScoringScheme::blastn();
        let sw = exhaustive_sw(&store, &qb, &scheme);
        let fasta = exhaustive_fasta(&store, &qb, &FastaParams::default(), &scheme);
        let blast = exhaustive_blast(&store, &qb, &BlastParams::default(), &scheme);
        assert_eq!(sw[0].id, member);
        assert_eq!(fasta[0].id, member);
        assert_eq!(blast[0].id, member);
        let full = qb.len() as i32 * scheme.match_score;
        assert_eq!(sw[0].score, full);
        assert_eq!(blast[0].score, full);
    }

    #[test]
    fn empty_store_yields_no_hits() {
        let store = SequenceStore::new(StorageMode::DirectCoding);
        let qb = DnaSeq::from_ascii(b"ACGTACGTACGTACGT")
            .unwrap()
            .representative_bases();
        assert!(exhaustive_sw(&store, &qb, &ScoringScheme::blastn()).is_empty());
        assert!(exhaustive_fasta(
            &store,
            &qb,
            &FastaParams::default(),
            &ScoringScheme::blastn()
        )
        .is_empty());
        assert!(exhaustive_blast(
            &store,
            &qb,
            &BlastParams::default(),
            &ScoringScheme::blastn()
        )
        .is_empty());
    }

    #[test]
    fn heuristic_scores_never_exceed_sw() {
        // FASTA (banded SW rescoring) and BLAST (ungapped HSP) both lower-
        // bound the true local alignment score.
        let (coll, store) = setup(63);
        let query = coll.query_for_family(2, 0.4, &MutationModel::substitutions(0.05));
        let qb = query.representative_bases();
        let scheme = ScoringScheme::blastn();
        let sw: std::collections::HashMap<u32, i32> = exhaustive_sw(&store, &qb, &scheme)
            .into_iter()
            .map(|h| (h.id, h.score))
            .collect();
        for h in exhaustive_fasta(&store, &qb, &FastaParams::default(), &scheme) {
            assert!(h.score <= sw[&h.id], "fasta {} > sw {}", h.score, sw[&h.id]);
        }
        for h in exhaustive_blast(&store, &qb, &BlastParams::default(), &scheme) {
            assert!(h.score <= sw[&h.id], "blast {} > sw {}", h.score, sw[&h.id]);
        }
    }
}
