//! The traced run's view of one search: the harness calls the stages
//! itself — query prep, coarse ranking, fine search, strand merge — and
//! records a span around each call across a layer boundary.
//!
//! Three costs hide inside a stage and are brought out without touching
//! the program: record fetches (a [`Timed`] store wrapper turns them
//! into child spans of `core.fine`, and the gaps between fetches are the
//! alignments), postings decode (the query's lists are replayed through
//! `fetch_stream` with a visitor that does nothing, so decode is apart
//! from accumulation) and DUST masking (replayed the same way). Replays
//! run after the query's root span has closed and are laid into the
//! stage they came from.

use std::cell::RefCell;
use std::time::Instant;

use nucdb::{
    coarse_rank_explain, coarse_rank_with, fine_search, CoarseExplain, CoarseOutcome,
    CoarseScratch, Database, FineResult, PostingsSource, RecordSource, StoreVariant, Strand,
};
use nucdb_index::PostingsVisitor;
use nucdb_seq::{Base, DnaSeq, SeqError};

use crate::gate::{answer_of, Answer, Tally};
use crate::inputs::{Mix, BAND_HALF_WIDTH};
use crate::metrics::Metrics;
use crate::spans::{Trace, ROOT};

/// A [`RecordSource`] that notes when each record fetch began and ended.
pub struct Timed<'a, S: RecordSource> {
    inner: &'a S,
    epoch: Instant,
    fetches: RefCell<Vec<(u64, u64)>>,
}

impl<'a, S: RecordSource> Timed<'a, S> {
    pub fn new(inner: &'a S, epoch: Instant) -> Timed<'a, S> {
        Timed {
            inner,
            epoch,
            fetches: RefCell::new(Vec::new()),
        }
    }

    fn timed<T>(&self, fetch: impl FnOnce() -> T) -> T {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let value = fetch();
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.fetches.borrow_mut().push((start, end));
        value
    }

    /// `(start_ns, end_ns)` of every fetch so far, relative to `epoch`.
    pub fn into_fetches(self) -> Vec<(u64, u64)> {
        self.fetches.into_inner()
    }
}

impl<S: RecordSource> RecordSource for Timed<'_, S> {
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn id(&self, record: u32) -> &str {
        self.inner.id(record)
    }
    fn record_len(&self, record: u32) -> usize {
        self.inner.record_len(record)
    }
    fn bases(&self, record: u32) -> Vec<Base> {
        self.timed(|| self.inner.bases(record))
    }
    fn try_bases(&self, record: u32) -> Result<Vec<Base>, SeqError> {
        self.timed(|| self.inner.try_bases(record))
    }
    fn sequence(&self, record: u32) -> Result<DnaSeq, SeqError> {
        self.timed(|| self.inner.sequence(record))
    }
}

/// Decodes and discards; skips as many blocks of a list as the real
/// query skipped, so the replay decodes the same number of blocks.
struct Replay {
    skip_left: u32,
}

impl PostingsVisitor for Replay {
    fn visit(&mut self, _record: u32, _value: u32) {}

    fn skip_block(&mut self, _lo: u32, _hi: u32) -> bool {
        let skip = self.skip_left > 0;
        self.skip_left -= u32::from(skip);
        skip
    }
}

/// The lists one strand of a query touches: `(code, blocks skipped)`.
type ListPlan = Vec<(u64, u32)>;

/// Replay a strand's postings fetches; returns nanoseconds and ids decoded.
pub fn replay_lists<S: PostingsSource>(
    index: &S,
    plan: &ListPlan,
    io_buf: &mut Vec<u8>,
) -> (u64, u64) {
    let start = Instant::now();
    let mut ids = 0u64;
    for &(code, skip) in plan {
        let mut visitor = Replay { skip_left: skip };
        if let Ok(Some(stats)) = index.fetch_stream(code, io_buf, &mut visitor) {
            ids += stats.ids_decoded;
        }
    }
    (start.elapsed().as_nanos() as u64, ids)
}

/// Sums over every traced query of a mix.
#[derive(Debug, Default, Clone)]
pub struct LayerTotals {
    pub queries: u64,
    /// Whole `Database::search_with` calls, untraced.
    pub whole_ns: u64,
    /// `QueryStats::merge_nanos` of those calls.
    pub whole_merge_ns: u64,
    /// The staged evaluation's root spans.
    pub staged_ns: u64,
    pub prep_ns: u64,
    pub mask_ns: u64,
    pub coarse_ns: u64,
    pub extract_ns: u64,
    pub accumulate_ns: u64,
    pub rank_ns: u64,
    pub index_ns: u64,
    pub index_ids: u64,
    pub fine_ns: u64,
    pub store_ns: u64,
    pub align_ns: u64,
    pub lists_fetched: u64,
    pub ids_decoded: u64,
    pub postings_bytes: u64,
    pub blocks_decoded: u64,
    pub blocks_skipped: u64,
    pub hits: u64,
    pub candidates: u64,
    pub kept: u64,
    pub alignments: u64,
    /// Computed: query length × min(target length, band width).
    pub dp_cells: u64,
    pub store_bytes_read: u64,
    pub store_records_read: u64,
}

impl LayerTotals {
    fn add_coarse(&mut self, c: &CoarseOutcome) {
        self.extract_ns += c.extract_nanos;
        self.accumulate_ns += c.accumulate_nanos;
        self.rank_ns += c.rank_nanos;
        self.lists_fetched += c.lists_fetched;
        self.ids_decoded += c.postings_decoded;
        self.postings_bytes += c.postings_bytes_read;
        self.blocks_decoded += c.blocks_decoded;
        self.blocks_skipped += c.blocks_skipped;
        self.hits += c.total_hits;
        self.candidates += c.candidates.len() as u64;
    }
}

fn store_io(store: &StoreVariant) -> (u64, u64) {
    match store {
        StoreVariant::Disk(s) => (s.bytes_read(), s.records_read()),
        _ => (0, 0),
    }
}

/// The strands `params` asks for, oriented, with their base views.
fn strands(query: &DnaSeq, strand: Strand) -> Vec<(Strand, DnaSeq, Vec<Base>)> {
    let mut out = Vec::with_capacity(2);
    if strand != Strand::Reverse {
        out.push((Strand::Forward, query.clone(), query.representative_bases()));
    }
    if strand != Strand::Forward {
        let rc = query.reverse_complement();
        let bases = rc.representative_bases();
        out.push((Strand::Reverse, rc, bases));
    }
    out
}

/// The engine's strand merge: per record keep the better strand, rank by
/// score, cut at `max_results`, look up each answer's external id.
fn merge(db: &Database, mut merged: Vec<(Strand, FineResult)>, max_results: usize) -> Answer {
    merged.sort_by(|(_, a), (_, b)| a.record.cmp(&b.record).then(b.score.cmp(&a.score)));
    merged.dedup_by_key(|(_, r)| r.record);
    merged.sort_by(|(_, a), (_, b)| b.score.cmp(&a.score).then(a.record.cmp(&b.record)));
    merged
        .into_iter()
        .take(max_results)
        .map(|(strand, r)| {
            std::hint::black_box(db.store().id(r.record).to_string());
            (r.record, r.score, strand)
        })
        .collect()
}

/// Evaluate every query of `mix` `passes` times against `db`, once whole
/// and once stage by stage, recording spans into `trace`. The staged
/// answer must equal the whole answer and the oracle's (`expected`): a
/// decomposition that computes something else measures something else.
pub fn trace_mix(
    db: &Database,
    mix: &Mix,
    passes: usize,
    expected: &[Answer],
    trace: &mut Trace,
) -> (LayerTotals, Tally) {
    let params = &mix.params;
    let mut totals = LayerTotals::default();
    let mut tally = Tally::default();
    let mut scratch = CoarseScratch::new();
    let mut io_buf = Vec::new();

    // Which lists each strand of each query touches, and how many blocks
    // of each the skip plan refused: taken once from an explain pass,
    // outside every timed region.
    let plans: Vec<Vec<ListPlan>> = mix
        .queries
        .iter()
        .map(|q| {
            strands(&q.seq, params.strand)
                .iter()
                .map(|(_, _, bases)| {
                    let mut explain = CoarseExplain::default();
                    coarse_rank_explain(
                        db.index(),
                        bases,
                        params,
                        &mut scratch,
                        Some(&mut explain),
                    )
                    .expect("explain pass");
                    explain
                        .lists
                        .iter()
                        .filter(|l| !l.absent)
                        .map(|l| (l.code, l.blocks_skipped))
                        .collect()
                })
                .collect()
        })
        .collect();

    for pass in 0..passes {
        for (i, q) in mix.queries.iter().enumerate() {
            let qid = (pass * mix.queries.len() + i) as u32;
            totals.queries += 1;

            let start = Instant::now();
            let whole = db.search_with(&q.seq, params, &mut scratch);
            totals.whole_ns += start.elapsed().as_nanos() as u64;
            let Ok(whole) = whole else {
                tally.record(false);
                continue;
            };
            totals.whole_merge_ns += whole.stats.merge_nanos;
            let whole_answer = answer_of(&whole.results);

            let root = trace.open(qid, ROOT, None);
            let prep = trace.open(qid, "seq:prep", Some(root));
            let oriented = strands(&q.seq, params.strand);
            trace.close(prep);

            let mut merged: Vec<(Strand, FineResult)> = Vec::new();
            // (extract span, accumulate span) per strand, for the replays.
            let mut stage_spans = Vec::with_capacity(2);
            let io_before = store_io(db.store());
            for (strand, seq, bases) in &oriented {
                let coarse_span = trace.open(qid, "core.coarse", Some(root));
                let coarse = coarse_rank_with(db.index(), bases, params, &mut scratch)
                    .expect("coarse stage");
                trace.close(coarse_span);
                totals.add_coarse(&coarse);
                // The outcome reports its three sub-stages as durations.
                let t0 = trace.span(coarse_span).start_ns;
                let t1 = t0 + coarse.extract_nanos;
                let t2 = t1 + coarse.accumulate_nanos;
                let extract = trace.push(qid, "core.coarse:extract", Some(coarse_span), t0, t1);
                let accumulate =
                    trace.push(qid, "core.coarse:accumulate", Some(coarse_span), t1, t2);
                trace.push(
                    qid,
                    "core.coarse:rank",
                    Some(coarse_span),
                    t2,
                    t2 + coarse.rank_nanos,
                );
                stage_spans.push((extract, accumulate));

                let fine_span = trace.open(qid, "core.fine", Some(root));
                let timed = Timed::new(db.store(), trace.epoch());
                let fine = fine_search(
                    &timed,
                    seq,
                    &coarse.candidates,
                    params.fine,
                    &params.scheme,
                    params.min_score,
                )
                .expect("fine stage");
                trace.close(fine_span);
                // A fetch is a `core.store` span; what follows it, up to
                // the next fetch or the end of the stage, is the alignment.
                let fetches = timed.into_fetches();
                let fine_end = trace.span(fine_span).end_ns;
                for (n, &(start, end)) in fetches.iter().enumerate() {
                    trace.push(qid, "core.store:fetch", Some(fine_span), start, end);
                    let next = fetches.get(n + 1).map_or(fine_end, |f| f.0);
                    trace.push(qid, "align:banded", Some(fine_span), end, next);
                }
                totals.alignments += coarse.candidates.len() as u64;
                totals.kept += fine.len() as u64;
                totals.dp_cells += coarse
                    .candidates
                    .iter()
                    .map(|c| {
                        let target = db.store().record_len(c.record);
                        (bases.len() * target.min(2 * BAND_HALF_WIDTH + 1)) as u64
                    })
                    .sum::<u64>();
                merged.extend(fine.into_iter().map(|r| (*strand, r)));
            }
            let io_after = store_io(db.store());
            totals.store_bytes_read += io_after.0 - io_before.0;
            totals.store_records_read += io_after.1 - io_before.1;

            let merge_span = trace.open(qid, "core.engine:merge", Some(root));
            let staged_answer = merge(db, merged, params.max_results);
            trace.close(merge_span);
            trace.close(root);

            tally.record(staged_answer == whole_answer && expected[i] == whole_answer);

            // Replays, laid at the start of the stage they belong to.
            for ((_, _, bases), ((extract, accumulate), plan)) in
                oriented.iter().zip(stage_spans.iter().zip(&plans[i]))
            {
                if let Some(dust) = &params.mask {
                    let start = Instant::now();
                    std::hint::black_box(nucdb_seq::complexity::mask_regions(bases, dust));
                    let ns = start.elapsed().as_nanos() as u64;
                    let at = trace.span(*extract).start_ns;
                    trace.push(qid, "seq:mask", Some(*extract), at, at + ns);
                    totals.mask_ns += ns;
                }
                let (ns, ids) = replay_lists(db.index(), plan, &mut io_buf);
                let at = trace.span(*accumulate).start_ns;
                trace.push(qid, "index:fetch", Some(*accumulate), at, at + ns);
                totals.index_ns += ns;
                totals.index_ids += ids;
            }
        }
    }
    for (name, field) in [
        (ROOT, &mut totals.staged_ns),
        ("seq:prep", &mut totals.prep_ns),
        ("core.coarse", &mut totals.coarse_ns),
        ("core.fine", &mut totals.fine_ns),
        ("core.store:fetch", &mut totals.store_ns),
        ("align:banded", &mut totals.align_ns),
    ] {
        *field = trace.total(name).0;
    }
    (totals, tally)
}

/// Share of `part` in `whole`, 0 when there is no whole.
fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Turn the sums and the trace's self times into the per-layer metrics
/// of the stages every workload shares. Fails if the layers' self times
/// do not add up to the query spans: then the tree was recorded wrong
/// and its shares mean nothing.
pub fn layer_metrics(totals: &LayerTotals, trace: &Trace, m: &mut Metrics) -> Result<(), String> {
    let q = totals.queries.max(1) as f64;
    let per_query = |v: u64| v as f64 / q;
    m.set("index.fetch_ns_per_query", per_query(totals.index_ns));
    m.set(
        "index.decode_ids_per_s",
        totals.index_ids as f64 / (totals.index_ns.max(1) as f64 / 1e9),
    );
    m.set(
        "index.postings_bytes_per_query",
        per_query(totals.postings_bytes),
    );
    m.set("index.ids_decoded_per_query", per_query(totals.ids_decoded));
    m.set(
        "index.lists_fetched_per_query",
        per_query(totals.lists_fetched),
    );
    m.set(
        "index.blocks_decoded_per_query",
        per_query(totals.blocks_decoded),
    );
    m.set(
        "index.blocks_skipped_per_query",
        per_query(totals.blocks_skipped),
    );
    m.set(
        "index.block_skip_ratio",
        ratio(
            totals.blocks_skipped,
            totals.blocks_skipped + totals.blocks_decoded,
        ),
    );
    m.set("core.coarse.ns_per_query", per_query(totals.coarse_ns));
    m.set(
        "core.coarse.self_ns_per_query",
        per_query(
            totals
                .coarse_ns
                .saturating_sub(totals.index_ns + totals.mask_ns),
        ),
    );
    m.set(
        "core.coarse.extract_ns_per_query",
        per_query(totals.extract_ns),
    );
    m.set(
        "core.coarse.accumulate_ns_per_query",
        per_query(totals.accumulate_ns),
    );
    m.set("core.coarse.rank_ns_per_query", per_query(totals.rank_ns));
    m.set("core.coarse.hits_per_query", per_query(totals.hits));
    m.set(
        "core.coarse.candidates_per_query",
        per_query(totals.candidates),
    );
    m.set(
        "core.coarse.candidate_yield",
        ratio(totals.kept, totals.candidates),
    );
    m.set(
        "core.store.fetch_ns_per_candidate",
        totals.store_ns as f64 / totals.alignments.max(1) as f64,
    );
    m.set(
        "core.store.bytes_read_per_query",
        per_query(totals.store_bytes_read),
    );
    m.set(
        "core.store.records_read_per_query",
        per_query(totals.store_records_read),
    );
    m.set(
        "align.ns_per_alignment",
        totals.align_ns as f64 / totals.alignments.max(1) as f64,
    );
    m.set("align.dp_cells_per_query", per_query(totals.dp_cells));
    m.set(
        "align.cells_per_s",
        totals.dp_cells as f64 / (totals.align_ns.max(1) as f64 / 1e9),
    );
    m.set("core.fine.ns_per_query", per_query(totals.fine_ns));
    m.set(
        "core.fine.self_ns_per_query",
        per_query(
            totals
                .fine_ns
                .saturating_sub(totals.store_ns + totals.align_ns),
        ),
    );
    m.set(
        "core.fine.alignments_per_query",
        per_query(totals.alignments),
    );
    m.set(
        "core.engine.search_ns_per_query",
        per_query(totals.whole_ns),
    );
    m.set(
        "core.engine.merge_ns_per_query",
        per_query(totals.whole_merge_ns),
    );
    m.set(
        "seq.query_prep_ns_per_query",
        per_query(totals.prep_ns + totals.mask_ns),
    );
    m.set(
        "bench.trace_overhead_pct",
        (ratio(totals.staged_ns, totals.whole_ns) - 1.0) * 100.0,
    );

    // A layer's self time: its spans minus what their children cover.
    let by_layer = trace.self_ns_by_layer();
    let layer = |name: &str| by_layer.get(name).copied().unwrap_or(0);
    let staged_layers: u64 = STAGED_LAYERS.iter().map(|l| layer(l)).sum();
    if (staged_layers as f64 / totals.staged_ns.max(1) as f64 - 1.0).abs() > 0.10 {
        return Err(format!(
            "layer self times sum to {staged_layers} ns, the query spans to {} ns",
            totals.staged_ns
        ));
    }
    // What the root spans spent outside every child is unaccounted, and
    // so is whatever the whole call does that the stages do not. The two
    // are separate executions on a host whose speed drifts, so a large
    // difference is flagged, not failed.
    let root_self = layer("core.engine") - trace.total("core.engine:merge").0;
    let unaccounted = 1.0 - ratio(totals.staged_ns - root_self, totals.whole_ns);
    if unaccounted >= 0.10 {
        eprintln!("warning: core.engine.unaccounted_share is {unaccounted:.3}, the budget is 0.10");
    }
    m.set("core.engine.unaccounted_share", unaccounted);
    m.set(
        "bench.layer_share_fine",
        ratio(
            layer("align") + layer("core.fine") + layer("core.store"),
            totals.staged_ns,
        ),
    );
    m.set(
        "bench.layer_share_coarse",
        ratio(layer("index") + layer("core.coarse"), totals.staged_ns),
    );
    Ok(())
}

/// The layers a staged query's spans belong to.
const STAGED_LAYERS: [&str; 7] = [
    "core.engine",
    "seq",
    "index",
    "core.coarse",
    "core.store",
    "align",
    "core.fine",
];
