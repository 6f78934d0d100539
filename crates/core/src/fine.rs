//! Fine search: local alignment of the coarse candidates.
//!
//! The paper's second stage. Only the top coarse candidates reach this
//! point, so even full Smith–Waterman here costs a fraction of an
//! exhaustive scan — but the default is cheaper still: a *banded*
//! alignment centred on the diagonal coarse ranking discovered.

use std::time::Instant;

use nucdb_align::{
    banded_sw_scores, sw_align, sw_score, sw_score_iupac, Alignment, BandScratch, ScoringScheme,
    LANES,
};
use nucdb_seq::{DnaSeq, SeqError};

use crate::coarse::CoarseHit;
use crate::store::RecordSource;

/// How fine search aligns each candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FineMode {
    /// Banded Smith–Waterman around the candidate's coarse diagonal.
    Banded {
        /// Band half-width in bases.
        half_width: usize,
    },
    /// Full (unbanded) Smith–Waterman, score only.
    Full,
    /// Full Smith–Waterman with traceback: slowest, but results carry
    /// complete alignments.
    FullWithTraceback,
    /// Full Smith–Waterman over the lossless IUPAC sequences: ambiguity
    /// codes score by set overlap instead of collapsing to representative
    /// bases — the accurate mode for wildcard-heavy records.
    FullIupac,
}

impl Default for FineMode {
    fn default() -> FineMode {
        FineMode::Banded { half_width: 24 }
    }
}

/// Per-candidate timing captured by [`fine_search_traced`] for forensic
/// span trees. Offsets are relative to the start of the fine stage.
#[derive(Debug, Clone, Copy)]
pub struct CandidateTiming {
    /// Record id aligned.
    pub record: u32,
    /// Nanoseconds from the start of the fine stage to this candidate's
    /// alignment starting.
    pub start_ns: u64,
    /// Nanoseconds spent aligning this candidate.
    pub nanos: u64,
    /// The alignment score (before the `min_score` filter).
    pub score: i32,
}

/// A fine-scored candidate.
#[derive(Debug, Clone)]
pub struct FineResult {
    /// Record id.
    pub record: u32,
    /// Local alignment score.
    pub score: i32,
    /// The coarse evidence that promoted this record.
    pub coarse: CoarseHit,
    /// Full alignment, when [`FineMode::FullWithTraceback`] was used.
    pub alignment: Option<Alignment>,
}

/// Align `candidates` against the query; returns results in descending
/// score order (ties by ascending record id), scores below `min_score`
/// dropped.
///
/// `query` must be in the orientation being searched (the engine passes
/// the reverse complement for the reverse strand).
///
/// Record decodes are fallible: an on-disk store surfaces read failures
/// and checksum mismatches here, and the whole fine pass reports them as
/// an error instead of panicking or aligning against corrupt bytes.
pub fn fine_search<S: RecordSource>(
    store: &S,
    query: &DnaSeq,
    candidates: &[CoarseHit],
    mode: FineMode,
    scheme: &ScoringScheme,
    min_score: i32,
) -> Result<Vec<FineResult>, SeqError> {
    fine_search_traced(store, query, candidates, mode, scheme, min_score, None)
}

/// [`fine_search`] that additionally records per-candidate wall time
/// into `timings` (append-only; pass `None` to skip all timing work).
/// Results are identical to [`fine_search`] — the instrumentation only
/// reads the clock around each candidate, or in [`FineMode::Banded`]
/// around each batch of candidates, whose time its members share evenly.
pub fn fine_search_traced<S: RecordSource>(
    store: &S,
    query: &DnaSeq,
    candidates: &[CoarseHit],
    mode: FineMode,
    scheme: &ScoringScheme,
    min_score: i32,
    mut timings: Option<&mut Vec<CandidateTiming>>,
) -> Result<Vec<FineResult>, SeqError> {
    let query_bases = query.representative_bases();
    let stage_start = timings.as_ref().map(|_| Instant::now());
    // Nanoseconds into the stage; the clock is read only when timing.
    let now = || stage_start.map_or(0, |s| s.elapsed().as_nanos() as u64);
    let mut results: Vec<FineResult> = Vec::with_capacity(candidates.len());
    // Every candidate is timed; those under the score floor are dropped.
    let mut scored = |coarse: CoarseHit, score, alignment, start_ns, nanos| {
        if let Some(timings) = timings.as_deref_mut() {
            timings.push(CandidateTiming {
                record: coarse.record,
                start_ns,
                nanos,
                score,
            });
        }
        if score >= min_score {
            results.push(FineResult {
                record: coarse.record,
                score,
                coarse,
                alignment,
            });
        }
    };
    if let FineMode::Banded { half_width } = mode {
        // Sixteen candidates a pass, one per lane of the kernel: fetch
        // the batch, score it in one call, keep only the scores.
        let mut scratch = BandScratch::default();
        let mut scores = [0i32; LANES];
        for batch in candidates.chunks(LANES) {
            let start_ns = now();
            let targets = batch
                .iter()
                .map(|coarse| Ok((store.try_bases(coarse.record)?, coarse.best_diagonal)))
                .collect::<Result<Vec<_>, SeqError>>()?;
            let scores = &mut scores[..batch.len()];
            banded_sw_scores(
                &query_bases,
                &targets,
                scheme,
                half_width,
                &mut scratch,
                scores,
            );
            let share = (now() - start_ns) / batch.len() as u64;
            for (lane, (&coarse, &score)) in batch.iter().zip(scores.iter()).enumerate() {
                scored(coarse, score, None, start_ns + lane as u64 * share, share);
            }
        }
    } else {
        for &coarse in candidates {
            let start_ns = now();
            let (score, alignment) = if mode == FineMode::FullIupac {
                let target = store.sequence(coarse.record)?;
                (sw_score_iupac(query, &target, scheme), None)
            } else {
                let target = store.try_bases(coarse.record)?;
                if mode == FineMode::FullWithTraceback {
                    let alignment = sw_align(&query_bases, &target, scheme);
                    (alignment.as_ref().map_or(0, |a| a.score), alignment)
                } else {
                    (sw_score(&query_bases, &target, scheme), None)
                }
            };
            scored(coarse, score, alignment, start_ns, now() - start_ns);
        }
    }
    results.sort_by(|a, b| b.score.cmp(&a.score).then(a.record.cmp(&b.record)));
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::SegmentedStore;
    use crate::store::{SequenceStore, StorageMode};
    use std::sync::Arc;

    fn store_with(records: &[&[u8]]) -> SequenceStore {
        let records: Vec<DnaSeq> = records
            .iter()
            .map(|r| DnaSeq::from_ascii(r).unwrap())
            .collect();
        memory_store(&records)
    }

    fn memory_store(records: &[DnaSeq]) -> SequenceStore {
        let mut store = SequenceStore::new(StorageMode::DirectCoding);
        for (i, seq) in records.iter().enumerate() {
            store.add(format!("r{i}"), seq);
        }
        store
    }

    fn hit(record: u32, diagonal: i64) -> CoarseHit {
        CoarseHit {
            record,
            score: 1.0,
            hits: 1,
            frame_hits: 1,
            best_diagonal: diagonal,
        }
    }

    fn query() -> DnaSeq {
        DnaSeq::from_ascii(b"ACGTAGCTAGCTGGATCC").unwrap()
    }

    #[test]
    fn banded_finds_alignment_on_good_diagonal() {
        let store = store_with(&[b"TTTTTTACGTAGCTAGCTGGATCCTTTT"]);
        let results = fine_search(
            &store,
            &query(),
            &[hit(0, 6)],
            FineMode::Banded { half_width: 8 },
            &ScoringScheme::blastn(),
            1,
        )
        .unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].score, 18 * 5);
        assert!(results[0].alignment.is_none());
    }

    #[test]
    fn full_modes_agree_on_score() {
        let store = store_with(&[b"GGGGACGTAGCTAGCTGGATCCGGGG"]);
        let q = query();
        let scheme = ScoringScheme::blastn();
        let full = fine_search(&store, &q, &[hit(0, 0)], FineMode::Full, &scheme, 1).unwrap();
        let traced = fine_search(
            &store,
            &q,
            &[hit(0, 0)],
            FineMode::FullWithTraceback,
            &scheme,
            1,
        )
        .unwrap();
        assert_eq!(full[0].score, traced[0].score);
        let alignment = traced[0].alignment.as_ref().unwrap();
        assert_eq!(alignment.score, traced[0].score);
        assert!(alignment.is_consistent());
    }

    #[test]
    fn iupac_mode_scores_wildcards_fairly() {
        // Target has Ns where the query has real bases. Representative
        // collapsing turns the Ns into As (mismatching the query's Cs);
        // IUPAC-aware alignment scores them as partial matches instead.
        let store = store_with(&[b"ACGTAGNNNNGGATCCAAAA"]);
        let q = DnaSeq::from_ascii(b"ACGTAGCCCCGGATCC").unwrap();
        let scheme = ScoringScheme::blastn();
        let collapsed = fine_search(&store, &q, &[hit(0, 0)], FineMode::Full, &scheme, 1).unwrap();
        let iupac = fine_search(&store, &q, &[hit(0, 0)], FineMode::FullIupac, &scheme, 1).unwrap();
        assert!(
            iupac[0].score > collapsed[0].score,
            "iupac {} <= collapsed {}",
            iupac[0].score,
            collapsed[0].score
        );
    }

    #[test]
    fn min_score_filters() {
        let store = store_with(&[b"TTTTTTTTTTTTTTTTTT"]);
        let results = fine_search(
            &store,
            &query(),
            &[hit(0, 0)],
            FineMode::Full,
            &ScoringScheme::blastn(),
            10,
        )
        .unwrap();
        assert!(results.is_empty());
    }

    #[test]
    fn results_sorted_by_score() {
        let store = store_with(&[
            b"ACGTAGCTAG",         // partial match
            b"ACGTAGCTAGCTGGATCC", // exact match
            b"ACGTAGCTAGCTGG",     // longer partial
        ]);
        let results = fine_search(
            &store,
            &query(),
            &[hit(0, 0), hit(1, 0), hit(2, 0)],
            FineMode::Full,
            &ScoringScheme::blastn(),
            1,
        )
        .unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].record, 1);
        assert!(results[0].score > results[1].score);
        assert!(results[1].score >= results[2].score);
        assert_eq!(results[1].record, 2);
    }

    #[test]
    fn traced_variant_matches_untraced_and_times_every_candidate() {
        let store = store_with(&[
            b"ACGTAGCTAG",
            b"ACGTAGCTAGCTGGATCC",
            b"TTTTTTTTTTTTTTTTTT", // scores below min_score, still timed
        ]);
        let hits = [hit(0, 0), hit(1, 0), hit(2, 0)];
        let scheme = ScoringScheme::blastn();
        let plain = fine_search(&store, &query(), &hits, FineMode::Full, &scheme, 10).unwrap();
        let mut timings = Vec::new();
        let traced = fine_search_traced(
            &store,
            &query(),
            &hits,
            FineMode::Full,
            &scheme,
            10,
            Some(&mut timings),
        )
        .unwrap();
        let key = |r: &FineResult| (r.record, r.score);
        assert_eq!(
            plain.iter().map(key).collect::<Vec<_>>(),
            traced.iter().map(key).collect::<Vec<_>>()
        );
        // Every candidate is timed, including ones the score filter drops.
        assert_eq!(timings.len(), 3);
        let records: Vec<u32> = timings.iter().map(|t| t.record).collect();
        assert_eq!(records, [0, 1, 2]);
        for pair in timings.windows(2) {
            assert!(pair[1].start_ns >= pair[0].start_ns + pair[0].nanos);
        }
    }

    /// Twenty records around `query()` with IUPAC wildcards in them, and
    /// a candidate list over all of them: two lane batches, 16 + 4.
    fn wildcard_corpus() -> (Vec<DnaSeq>, Vec<CoarseHit>) {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |below: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % below as u64) as usize
        };
        let core = query().to_ascii_vec();
        let mut records = Vec::new();
        let mut hits = Vec::new();
        for record in 0..20u32 {
            let lead = next(30);
            let mut ascii: Vec<u8> = (0..lead).map(|_| b"ACGT"[next(4)]).collect();
            ascii.extend_from_slice(&core[..6 + next(12)]);
            ascii.extend((0..next(3)).map(|_| b"NRYK"[next(4)]));
            ascii.extend_from_slice(&core[next(8)..]);
            let at = next(ascii.len());
            ascii[at] = b"NSWB"[next(4)];
            records.push(DnaSeq::from_ascii(&ascii).unwrap());
            // Mostly the true diagonal, sometimes one off either end.
            hits.push(hit(record, lead as i64 + [0, 0, 2, -40, 90][next(5)]));
        }
        (records, hits)
    }

    fn disk_store(records: &[DnaSeq], tag: &str) -> (std::path::PathBuf, SequenceStore) {
        let path = std::env::temp_dir().join(format!("nucdb_fine_{tag}_{}", std::process::id()));
        memory_store(records).write_to(&path).unwrap();
        let disk = SequenceStore::open(&path).unwrap();
        (path, disk)
    }

    #[test]
    fn banded_batches_equal_a_scalar_loop_on_every_store() {
        let (records, hits) = wildcard_corpus();
        let q = query();
        let scheme = ScoringScheme::blastn();
        let half_width = 6;
        let mut expected: Vec<(u32, i32)> = hits
            .iter()
            .map(|h| {
                let score = nucdb_align::banded_sw_score(
                    &q.representative_bases(),
                    &records[h.record as usize].representative_bases(),
                    &scheme,
                    h.best_diagonal,
                    half_width,
                );
                (h.record, score)
            })
            .filter(|&(_, score)| score >= 20)
            .collect();
        expected.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        assert!(expected.len() > 10 && expected.len() < hits.len());

        let (path, disk) = disk_store(&records, "all");
        let (head_path, head) = disk_store(&records[..9], "head");
        let segmented =
            SegmentedStore::new(vec![Arc::new(head), Arc::new(memory_store(&records[9..]))]);
        let memory = memory_store(&records);
        let mode = FineMode::Banded { half_width };
        let answers = |found: Vec<FineResult>| -> Vec<(u32, i32)> {
            found.iter().map(|r| (r.record, r.score)).collect()
        };
        let from_memory = fine_search(&memory, &q, &hits, mode, &scheme, 20).unwrap();
        let from_disk = fine_search(&disk, &q, &hits, mode, &scheme, 20).unwrap();
        let from_parts = fine_search(&segmented, &q, &hits, mode, &scheme, 20).unwrap();
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&head_path);
        assert_eq!(answers(from_memory), expected);
        assert_eq!(answers(from_disk), expected);
        assert_eq!(answers(from_parts), expected);
    }

    #[test]
    fn banded_batches_time_every_candidate_in_order() {
        let (records, hits) = wildcard_corpus();
        let (path, disk) = disk_store(&records, "timed");
        let mut timings = Vec::new();
        fine_search_traced(
            &disk,
            &query(),
            &hits,
            FineMode::default(),
            &ScoringScheme::blastn(),
            20,
            Some(&mut timings),
        )
        .unwrap();
        let _ = std::fs::remove_file(&path);
        // One entry per candidate — kept or not, first batch or second —
        // in candidate order, each starting where the last one ended.
        let timed: Vec<u32> = timings.iter().map(|t| t.record).collect();
        let asked: Vec<u32> = hits.iter().map(|h| h.record).collect();
        assert_eq!(timed, asked);
        for pair in timings.windows(2) {
            assert!(pair[1].start_ns >= pair[0].start_ns + pair[0].nanos);
        }
    }

    #[test]
    fn corrupt_record_inside_a_batch_is_a_checksum_error() {
        let (records, hits) = wildcard_corpus();
        let (path, disk) = disk_store(&records, "flip");
        let (offset, len) = disk.record_location(5);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[(offset + len as u64 - 1) as usize] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        // Queries read the image taken at open: reopen to read the flip.
        let disk = SequenceStore::open(&path).unwrap();
        let found = fine_search(
            &disk,
            &query(),
            &hits,
            FineMode::default(),
            &ScoringScheme::blastn(),
            1,
        );
        let _ = std::fs::remove_file(&path);
        match found {
            Err(SeqError::Corruption {
                section,
                offset: at,
                ..
            }) => assert_eq!((section, at), ("record", offset)),
            other => panic!("expected the record's checksum error, got {other:?}"),
        }
    }

    #[test]
    fn empty_candidates_empty_results() {
        let store = store_with(&[b"ACGT"]);
        let results = fine_search(
            &store,
            &query(),
            &[],
            FineMode::Full,
            &ScoringScheme::blastn(),
            1,
        )
        .unwrap();
        assert!(results.is_empty());
    }
}
