//! **E12 — Index granularity: offset-level vs. record-level postings.**
//!
//! The CAFE line evaluates how much the index should remember about each
//! interval occurrence. Offset-level postings enable frame ranking and
//! banded fine alignment; record-level postings store only `(record,
//! count)` — a far smaller index whose coarse stage is count-based and
//! whose fine stage must align whole records. Size, per-stage time, and
//! recall for both, on the same collection and queries.
//!
//! The engine indexes offsets only and ranks by the frame score. The
//! other rows are built here. The count row over offsets ranks with
//! [`rank_by_hits`] and aligns banded, as the engine would. The
//! record-level rows come from `nucdb-codec`: each list of the offsets
//! build re-coded as the paper's layout without its offsets (Golomb
//! record gaps fitted to `(N, df)`, gamma `count − 1`, byte-aligned),
//! ranked by `count × qlen` over those lists, and every candidate fully
//! aligned.

use std::time::Duration;

use nucdb::{fine_search, recall_at, CoarseHit, DbConfig, FineMode, IndexVariant, SearchParams};
use nucdb_bench::{
    banner, bytes, collection, database, family_queries, family_relevant, rank_by_hits, time,
    HitScore, Table,
};
use nucdb_codec::{BitReader, BitWriter, Gamma, Golomb, IntCodec};
use nucdb_index::{CompressedIndex, IndexParams};
use nucdb_seq::DnaSeq;

/// Record-level postings: per interval, `(record, count)` pairs only.
struct RecordLists {
    params: IndexParams,
    record_lens: Vec<u32>,
    /// `(code, df, list bytes)`, ascending code.
    lists: Vec<(u64, u32, Vec<u8>)>,
}

impl RecordLists {
    /// Re-code every list of an offsets index without its offsets.
    fn from_index(index: &CompressedIndex) -> RecordLists {
        let num_records = index.num_records();
        let lists = index
            .vocab()
            .iter()
            .map(|entry| {
                let counts = index.counts(entry.code).unwrap().expect("entry exists");
                let gaps = Golomb::fit(u64::from(num_records).max(1), counts.len() as u64);
                let mut w = BitWriter::new();
                let mut next = 0;
                for (record, count) in counts {
                    gaps.encode(u64::from(record - next), &mut w);
                    Gamma.encode(u64::from(count) - 1, &mut w);
                    next = record + 1;
                }
                (entry.code, entry.df, w.into_bytes())
            })
            .collect();
        RecordLists {
            params: index.params().clone(),
            record_lens: index.record_lens().to_vec(),
            lists,
        }
    }

    /// List bytes plus the vocabulary as the index file would store it
    /// (varint code gap + 1, length and df per entry).
    fn index_bytes(&self) -> u64 {
        let varint_len = |v: u64| -> u64 { (64 - v.max(1).leading_zeros() as u64).div_ceil(7) };
        let mut total = 0;
        let mut prev_code = 0;
        for (code, df, list) in &self.lists {
            total += list.len() as u64
                + varint_len(code - prev_code + 1)
                + varint_len(list.len() as u64)
                + varint_len(u64::from(*df));
            prev_code = *code;
        }
        total
    }

    /// Count-based coarse ranking: each record scores `count × qlen` per
    /// interval (saturating), `Count` ranks by that total and
    /// `Proportional` by it over the record's length; records below
    /// `min_coarse_hits` (at least 1) drop out, and the top C are kept in
    /// score-descending, record-ascending order. No offsets, so no
    /// diagonal.
    fn coarse(&self, query: &DnaSeq, params: &SearchParams, score: HitScore) -> Vec<CoarseHit> {
        let mut codes: Vec<u64> = self
            .params
            .extract(&query.representative_bases())
            .map(|(_, code)| code)
            .collect();
        codes.sort_unstable();
        let mut totals = vec![0u32; self.record_lens.len()];
        let mut touched = Vec::new();
        for run in codes.chunk_by(|a, b| a == b) {
            let Ok(at) = self.lists.binary_search_by_key(&run[0], |l| l.0) else {
                continue;
            };
            let (_, df, list) = &self.lists[at];
            let qlen = run.len() as u32;
            let gaps = Golomb::fit((self.record_lens.len() as u64).max(1), u64::from(*df));
            let mut r = BitReader::new(list);
            let mut next = 0;
            for _ in 0..*df {
                let record = next + gaps.decode(&mut r).expect("own coding") as u32;
                let count = Gamma.decode(&mut r).expect("own coding") as u32 + 1;
                next = record + 1;
                if totals[record as usize] == 0 {
                    touched.push(record);
                }
                let total = &mut totals[record as usize];
                *total = total.saturating_add(count.saturating_mul(qlen));
            }
        }
        let candidates = (touched.into_iter())
            .map(|record| (record, totals[record as usize]))
            .filter(|&(_, hits)| hits >= params.min_coarse_hits.max(1))
            .map(|(record, hits)| CoarseHit {
                record,
                hits,
                frame_hits: 0,
                best_diagonal: 0,
            })
            .collect();
        score.top(candidates, &self.record_lens, params.max_candidates)
    }
}

/// Where a row's coarse candidates come from.
#[derive(Clone, Copy)]
enum Coarse {
    /// The engine: frame score over offsets.
    Engine,
    /// [`rank_by_hits`] over the offsets index, fine search banded.
    Offsets(HitScore),
    /// [`RecordLists::coarse`], every candidate fully aligned.
    Records(HitScore),
}

fn main() {
    banner("E12", "index granularity: offsets vs records-only");
    let coll = collection(0xE12, 4_000_000);
    let queries = family_queries(&coll, 0.6, 0.06);
    println!("collection: {} records", coll.records.len());

    let mut table = Table::new(&[
        "granularity / config",
        "index B",
        "coarse ms",
        "fine ms",
        "query ms",
        "family recall@10",
    ]);

    let db = database(&coll, &DbConfig::default());
    let IndexVariant::Disk(index) = db.index() else {
        unreachable!()
    };
    let records = RecordLists::from_index(index);
    let rows = [
        ("offsets + frame + banded", Coarse::Engine),
        ("offsets + count + banded", Coarse::Offsets(HitScore::Count)),
        (
            "records + count + full fine",
            Coarse::Records(HitScore::Count),
        ),
        (
            "records + proportional + full fine",
            Coarse::Records(HitScore::Proportional),
        ),
    ];
    let params = SearchParams::default();
    for (label, source) in rows {
        let index_bytes = match source {
            Coarse::Records(_) => records.index_bytes(),
            _ => index.stats().total_bytes(),
        };

        let mut coarse = Duration::ZERO;
        let mut fine = Duration::ZERO;
        let mut recall = 0.0;
        let mut total = Duration::ZERO;
        for (f, query) in &queries {
            let start = std::time::Instant::now();
            let (candidates, mode) = match source {
                Coarse::Engine => (None, params.fine),
                Coarse::Offsets(score) => {
                    let (hits, c) =
                        time(|| rank_by_hits(index, &query.representative_bases(), &params, score));
                    coarse += c;
                    (Some(hits.unwrap()), params.fine)
                }
                Coarse::Records(score) => {
                    let (hits, c) = time(|| records.coarse(query, &params, score));
                    coarse += c;
                    (Some(hits), FineMode::Full)
                }
            };
            let ranked: Vec<u32> = match candidates {
                None => {
                    let outcome = db.search(query, &params).unwrap();
                    coarse += Duration::from_nanos(outcome.stats.coarse_nanos);
                    fine += Duration::from_nanos(outcome.stats.fine_nanos);
                    outcome.results.iter().map(|r| r.record).collect()
                }
                Some(candidates) => {
                    let (scheme, min_score) = (&params.scheme, params.min_score);
                    let (results, fi) = time(|| {
                        fine_search(db.store(), query, &candidates, mode, scheme, min_score)
                    });
                    fine += fi;
                    // Already in the engine's order: score desc, record asc.
                    let results = results.unwrap();
                    results
                        .iter()
                        .take(params.max_results)
                        .map(|r| r.record)
                        .collect()
                }
            };
            total += start.elapsed();
            recall += recall_at(&ranked, &family_relevant(&coll, *f), 10);
        }
        let n = queries.len() as f64;
        let per_query_ms = |d: Duration| format!("{:.2}", d.as_secs_f64() * 1e3 / n);
        table.row(vec![
            label.to_string(),
            bytes(index_bytes),
            per_query_ms(coarse),
            per_query_ms(fine),
            per_query_ms(total),
            format!("{:.3}", recall / n),
        ]);
    }
    table.print();
    println!(
        "\nRecord-granularity postings shrink the index several-fold and speed the\n\
         coarse stage (no offsets to decode), but push work into fine search: without\n\
         a diagonal to band around, every candidate costs a full alignment. The paper\n\
         family's conclusion — offset granularity pays for itself at query time —\n\
         falls out of the last two columns."
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use nucdb_seq::random::{CollectionSpec, SyntheticCollection};

    /// The record-level lists of a tiny collection take exactly the bytes
    /// the engine's former record-granularity build reported for it.
    #[test]
    fn record_lists_size_matches_the_retired_record_granularity_build() {
        let coll = SyntheticCollection::generate(&CollectionSpec::tiny(0xE12));
        let db = database(&coll, &DbConfig::default());
        let IndexVariant::Disk(index) = db.index() else {
            unreachable!()
        };
        assert_eq!(RecordLists::from_index(index).index_bytes(), 22_204);
    }
}
