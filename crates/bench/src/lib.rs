//! Shared harness utilities for the experiment binaries (E1–E12).
//!
//! Each `src/bin/eN_*.rs` binary regenerates one table/figure of the
//! reconstructed evaluation (see EXPERIMENTS.md); this crate holds the
//! pieces they share: deterministic workload construction, timing, and
//! plain-text table rendering.

#![warn(missing_docs)]

use std::cell::Cell;
use std::collections::HashSet;
use std::time::{Duration, Instant};

use nucdb::{CoarseHit, Database, DbConfig, PostingsSource, RecordSource, SearchParams};
use nucdb_index::{IndexError, PostingsVisitor};
use nucdb_seq::random::{CollectionSpec, MutationModel, SyntheticCollection};
use nucdb_seq::{Base, DnaSeq, SeqError};

/// Standard workload: a synthetic collection of roughly `total_bases`
/// bases with planted homolog families and a realistic dose of
/// low-complexity repeats (deterministic in `seed`).
pub fn collection(seed: u64, total_bases: usize) -> SyntheticCollection {
    let spec = CollectionSpec {
        repeat_prob: 0.25,
        repeat_families: 4,
        ..CollectionSpec::sized(seed, total_bases)
    };
    SyntheticCollection::generate(&spec)
}

/// Build a database over a collection.
pub fn database(coll: &SyntheticCollection, config: &DbConfig) -> Database {
    Database::build(
        coll.records.iter().map(|r| (r.id.clone(), r.seq.clone())),
        config,
    )
}

/// One query per planted family: a mutated fragment of the family parent.
/// `frac` controls query length relative to the parent; `divergence` the
/// mutation load.
pub fn family_queries(
    coll: &SyntheticCollection,
    frac: f64,
    divergence: f64,
) -> Vec<(usize, DnaSeq)> {
    (0..coll.families.len())
        .map(|f| {
            (
                f,
                coll.query_for_family(f, frac, &MutationModel::standard(divergence)),
            )
        })
        .collect()
}

/// The planted relevant set for family `f`.
pub fn family_relevant(coll: &SyntheticCollection, f: usize) -> HashSet<u32> {
    coll.families[f].member_ids.iter().copied().collect()
}

/// A coarse score the engine does not rank by: E8's and E12's ablation
/// rows against the frame score.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitScore {
    /// Total interval hits.
    Count,
    /// Hits divided by record length.
    Proportional,
}

impl HitScore {
    /// Order `candidates` by this score descending, then record
    /// ascending, and keep the first `keep`.
    pub fn top(self, mut candidates: Vec<CoarseHit>, lens: &[u32], keep: usize) -> Vec<CoarseHit> {
        let value = |c: &CoarseHit| match self {
            HitScore::Count => f64::from(c.hits),
            HitScore::Proportional => f64::from(c.hits) / f64::from(lens[c.record as usize].max(1)),
        };
        candidates.sort_by(|a, b| value(b).total_cmp(&value(a)).then(a.record.cmp(&b.record)));
        candidates.truncate(keep);
        candidates
    }
}

/// The diagonal window the count and proportional rows seed fine search
/// with: the engine's default frame window.
const SEED_WINDOW: i64 = 16;

/// Rank the records of `index` for `query` by `score` instead of the
/// frame score. Each distinct query interval is fetched once through
/// [`PostingsSource::fetch_stream`], and every posting charges its
/// record one hit `offset − qpos` per query position of that interval.
/// Every interval is looked up: E8 and E12 run no query stride or mask,
/// and `params` must ask for none. Records below
/// `min_coarse_hits` drop out. Each candidate's `best_diagonal` is the
/// median of its first widest diagonal window of width 16, as the engine
/// seeds fine search. Returns the top `max_candidates` by (score
/// descending, record ascending).
pub fn rank_by_hits<S: PostingsSource>(
    index: &S,
    query: &[Base],
    params: &SearchParams,
    score: HitScore,
) -> Result<Vec<CoarseHit>, IndexError> {
    assert!(
        params.query_stride <= 1 && params.mask.is_none(),
        "rank_by_hits looks up every query interval"
    );
    let mut codes: Vec<(u64, u32)> = (index.index_params().extract(query))
        .map(|(qpos, code)| (code, qpos))
        .collect();
    codes.sort_unstable();

    struct Charge<'a> {
        run: &'a [(u64, u32)],
        diagonals: &'a mut [Vec<i64>],
    }
    impl PostingsVisitor for Charge<'_> {
        fn visit(&mut self, record: u32, offset: u32) {
            let diagonals = &mut self.diagonals[record as usize];
            diagonals.extend(
                self.run
                    .iter()
                    .map(|&(_, qpos)| offset as i64 - qpos as i64),
            );
        }
    }
    let mut diagonals = vec![Vec::new(); index.num_records() as usize];
    let mut io_buf = Vec::new();
    for run in codes.chunk_by(|a, b| a.0 == b.0) {
        let mut charge = Charge {
            run,
            diagonals: &mut diagonals,
        };
        index.fetch_stream(run[0].0, &mut io_buf, &mut charge)?;
    }

    let mut candidates = Vec::new();
    for (record, diags) in diagonals.iter_mut().enumerate() {
        let hits = diags.len() as u32;
        if diags.is_empty() || hits < params.min_coarse_hits {
            continue;
        }
        diags.sort_unstable();
        let (mut width, mut start, mut lo) = (0, 0, 0);
        for hi in 0..diags.len() {
            while diags[hi] - diags[lo] > SEED_WINDOW {
                lo += 1;
            }
            if hi - lo + 1 > width {
                (width, start) = (hi - lo + 1, lo);
            }
        }
        candidates.push(CoarseHit {
            record: record as u32,
            hits,
            frame_hits: width as u32,
            best_diagonal: diags[start + width / 2],
        });
    }
    Ok(score.top(candidates, index.record_lens(), params.max_candidates))
}

/// E6's ASCII baseline store: one byte per base, the records' blobs in
/// one image. Like [`nucdb::SequenceStore`], every fetch counts the
/// bytes and the record read and computes no checksum, so E6 compares
/// encodings and not checks.
#[derive(Default)]
pub struct AsciiStore {
    ids: Vec<String>,
    /// Per record: offset of its blob in `image`.
    blobs: Vec<usize>,
    image: Vec<u8>,
    /// Bytes and records fetched so far.
    pub reads: Cell<(u64, u64)>,
}

impl AsciiStore {
    /// Store every record of a collection, in record order.
    pub fn new(coll: &SyntheticCollection) -> AsciiStore {
        let mut store = AsciiStore::default();
        for record in &coll.records {
            let blob = record.seq.to_ascii_vec();
            store.ids.push(record.id.clone());
            store.blobs.push(store.image.len());
            store.image.extend_from_slice(&blob);
        }
        store
    }

    /// Bytes the stored blobs occupy.
    pub fn stored_bytes(&self) -> usize {
        self.image.len()
    }

    fn blob(&self, record: u32) -> (&[u8], u64) {
        let offset = self.blobs[record as usize];
        let end = (self.blobs.get(record as usize + 1)).map_or(self.image.len(), |&b| b);
        (&self.image[offset..end], offset as u64)
    }
}

impl RecordSource for AsciiStore {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn id(&self, record: u32) -> &str {
        &self.ids[record as usize]
    }

    fn record_len(&self, record: u32) -> usize {
        self.blob(record).0.len()
    }

    fn bases(&self, record: u32) -> Vec<Base> {
        self.try_bases(record).expect("record decodes")
    }

    fn try_bases(&self, record: u32) -> Result<Vec<Base>, SeqError> {
        Ok(self.sequence(record)?.representative_bases())
    }

    fn sequence(&self, record: u32) -> Result<DnaSeq, SeqError> {
        let (blob, offset) = self.blob(record);
        let (bytes, records) = self.reads.get();
        self.reads.set((bytes + blob.len() as u64, records + 1));
        DnaSeq::from_ascii(blob).map_err(|e| e.located("record", offset))
    }
}

/// Time a closure.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed())
}

/// Milliseconds with two decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Format a byte count with thousands separators.
pub fn bytes(n: u64) -> String {
    group_thousands(n)
}

/// Insert `,` thousands separators.
pub fn group_thousands(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i) % 3 == 0 {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// A plain-text table that renders with aligned columns.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create with column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let render = |cells: &[String]| {
            let line: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect();
            println!("  {}", line.join("  "));
        };
        render(&self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        println!("  {}", "-".repeat(total));
        for row in &self.rows {
            render(row);
        }
    }
}

/// The `latency_ns` block shared by the experiment JSON files: count,
/// mean, and p50/p90/p99/max of a latency histogram, in nanoseconds.
/// Percentiles are HDR-bucket upper bounds (≤ 1/16 relative error); see
/// DESIGN.md "Observability".
pub fn latency_block(latency: &nucdb_obs::HistogramSnapshot) -> json::Value {
    use json::Value;
    Value::Obj(vec![
        ("count", Value::Int(latency.count())),
        ("mean", Value::Num(latency.mean())),
        ("p50", Value::Int(latency.p50())),
        ("p90", Value::Int(latency.p90())),
        ("p99", Value::Int(latency.p99())),
        ("max", Value::Int(latency.max)),
    ])
}

/// Print an experiment banner.
pub fn banner(id: &str, title: &str) {
    println!("\n================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

/// Path of a machine-readable output file in the repository's `results/`
/// directory (created on demand). Experiment binaries drop JSON here
/// alongside their printed tables.
pub fn results_path(file: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let _ = std::fs::create_dir_all(&dir);
    dir.join(file)
}

/// Minimal JSON rendering for the experiment outputs — the workspace
/// carries no serialisation dependency, and the outputs are small flat
/// tables, so a tiny writer with stable key order suffices.
pub mod json {
    use std::fmt::Write as _;

    /// A JSON value.
    pub enum Value {
        /// A float (non-finite values render as `null`).
        Num(f64),
        /// An unsigned integer.
        Int(u64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object; keys render in insertion order.
        Obj(Vec<(&'static str, Value)>),
    }

    impl Value {
        /// Render to a JSON string.
        pub fn render(&self) -> String {
            let mut out = String::new();
            self.write(&mut out, 0);
            out
        }

        fn write(&self, out: &mut String, depth: usize) {
            match self {
                Value::Num(x) if x.is_finite() => {
                    let _ = write!(out, "{x}");
                }
                Value::Num(_) => out.push_str("null"),
                Value::Int(n) => {
                    let _ = write!(out, "{n}");
                }
                Value::Str(s) => {
                    out.push('"');
                    for c in s.chars() {
                        match c {
                            '"' => out.push_str("\\\""),
                            '\\' => out.push_str("\\\\"),
                            '\n' => out.push_str("\\n"),
                            c if (c as u32) < 0x20 => {
                                let _ = write!(out, "\\u{:04x}", c as u32);
                            }
                            c => out.push(c),
                        }
                    }
                    out.push('"');
                }
                Value::Arr(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push('\n');
                        out.push_str(&"  ".repeat(depth + 1));
                        item.write(out, depth + 1);
                    }
                    if !items.is_empty() {
                        out.push('\n');
                        out.push_str(&"  ".repeat(depth));
                    }
                    out.push(']');
                }
                Value::Obj(fields) => {
                    out.push('{');
                    for (i, (key, value)) in fields.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push('\n');
                        out.push_str(&"  ".repeat(depth + 1));
                        let _ = write!(out, "\"{key}\": ");
                        value.write(out, depth + 1);
                    }
                    if !fields.is_empty() {
                        out.push('\n');
                        out.push_str(&"  ".repeat(depth));
                    }
                    out.push('}');
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thousands_grouping() {
        assert_eq!(group_thousands(0), "0");
        assert_eq!(group_thousands(999), "999");
        assert_eq!(group_thousands(1000), "1,000");
        assert_eq!(group_thousands(1234567), "1,234,567");
    }

    #[test]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.row(vec!["only-one".into()]);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn json_renders_stably() {
        use super::json::Value;
        let v = Value::Obj(vec![
            ("name", Value::Str("a\"b".into())),
            ("n", Value::Int(3)),
            ("x", Value::Num(1.5)),
            ("bad", Value::Num(f64::NAN)),
            ("xs", Value::Arr(vec![Value::Int(1), Value::Int(2)])),
            ("empty", Value::Arr(vec![])),
        ]);
        let rendered = v.render();
        assert!(rendered.contains("\"name\": \"a\\\"b\""));
        assert!(rendered.contains("\"n\": 3"));
        assert!(rendered.contains("\"x\": 1.5"));
        assert!(rendered.contains("\"bad\": null"));
        assert!(rendered.contains("\"empty\": []"));
        // Balanced braces/brackets — structurally parseable.
        assert_eq!(rendered.matches('{').count(), rendered.matches('}').count());
        assert_eq!(rendered.matches('[').count(), rendered.matches(']').count());
    }

    fn bases(ascii: &[u8]) -> Vec<Base> {
        DnaSeq::from_ascii(ascii).unwrap().representative_bases()
    }

    #[test]
    fn proportional_corrects_length_bias() {
        // A short record with one shared interval vs a long record with
        // two: proportional prefers the short one, count the long one.
        let short = b"ACGTAGCTAGCT"; // 12 bases, hits once
        let mut long = b"ACGTAGCTAGCTACGTAGCTAGCT".to_vec(); // hits more
        long.extend(std::iter::repeat_n(b'G', 400));
        let mut builder = nucdb_index::IndexBuilder::new(nucdb_index::IndexParams::new(12));
        builder.add_record(&bases(short));
        builder.add_record(&bases(&long));
        let index = builder.finish();
        let query = bases(b"ACGTAGCTAGCT");
        let params = SearchParams {
            min_coarse_hits: 1,
            ..SearchParams::default()
        };
        let rank = |score| rank_by_hits(&index, &query, &params, score).unwrap();
        assert_eq!(rank(HitScore::Count)[0].record, 1);
        assert_eq!(rank(HitScore::Proportional)[0].record, 0);
    }

    /// A frame wider than any diagonal span scores a record by all its
    /// hits, so the engine then ranks as the count row does.
    #[test]
    fn count_rank_matches_the_engine_with_an_unbounded_window() {
        let coll = collection(105, 300_000);
        let db = database(&coll, &DbConfig::default());
        let nucdb::IndexVariant::Disk(index) = db.index() else {
            unreachable!()
        };
        let params = SearchParams {
            frame_window: 1 << 20,
            ..SearchParams::default()
        };
        let order =
            |hits: &[CoarseHit]| hits.iter().map(|c| (c.record, c.hits)).collect::<Vec<_>>();
        for f in 0..coll.families.len() {
            let query = coll.query_for_family(f, 0.5, &MutationModel::standard(0.05));
            let query = query.representative_bases();
            let engine = nucdb::coarse_rank(index, &query, &params).unwrap();
            let count = rank_by_hits(index, &query, &params, HitScore::Count).unwrap();
            assert!(!count.is_empty(), "family {f}");
            assert_eq!(order(&count), order(&engine.candidates), "family {f}");
        }
    }

    #[test]
    fn ascii_and_packed_stores_give_identical_results() {
        let coll = collection(106, 300_000);
        let db = database(&coll, &DbConfig::default());
        let ascii = AsciiStore::new(&coll);
        let params = SearchParams::default();
        let (mut records, mut bytes) = (0, 0);
        for f in 0..coll.families.len() {
            let query = coll.query_for_family(f, 0.5, &MutationModel::standard(0.05));
            let coarse = nucdb::coarse_rank(db.index(), &query.representative_bases(), &params);
            let candidates = coarse.unwrap().candidates;
            let (mode, scheme) = (params.fine, &params.scheme);
            let plain = nucdb::fine_search(&ascii, &query, &candidates, mode, scheme, 1);
            let packed = nucdb::fine_search(db.store(), &query, &candidates, mode, scheme, 1);
            let answer = |r: Vec<nucdb::FineResult>| r.into_iter().map(|r| (r.record, r.score));
            assert!(
                answer(plain.unwrap()).eq(answer(packed.unwrap())),
                "family {f}"
            );
            records += candidates.len() as u64;
            bytes += (candidates.iter())
                .map(|c| coll.records[c.record as usize].seq.len() as u64)
                .sum::<u64>();
        }
        // Every fetch is counted, at one byte a base.
        assert_eq!(ascii.reads.get(), (bytes, records));
    }

    #[test]
    fn workload_helpers_are_deterministic() {
        let a = collection(5, 100_000);
        let b = collection(5, 100_000);
        assert_eq!(a.records.len(), b.records.len());
        let qa = family_queries(&a, 0.5, 0.05);
        let qb = family_queries(&b, 0.5, 0.05);
        assert_eq!(qa.len(), qb.len());
        for ((fa, sa), (fb, sb)) in qa.iter().zip(&qb) {
            assert_eq!(fa, fb);
            assert_eq!(sa, sb);
        }
        assert!(!family_relevant(&a, 0).is_empty());
    }
}
