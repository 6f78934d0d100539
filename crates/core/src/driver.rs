//! The query driver: the paper's one algorithm — coarse-rank the
//! interval index, fine-align the top C, merge strands — written once.
//!
//! It runs on a [`Database`] of any shape: one index and store, or a
//! segmented view over several parts (a live database's segments, a
//! shard set's shards). The driver owns everything around the two
//! phases: the strand loop, cost counters, explain-plan and span
//! collection, the strand merge, result assembly, metrics, and capture
//! into the flight recorder and its log (including failed queries).

use std::time::Instant;

use nucdb_index::IndexError;
use nucdb_obs::{CaptureReason, QueryTrace, SpanNode};
use nucdb_seq::DnaSeq;

use crate::coarse::{coarse_rank_explain, CoarseScratch};
use crate::engine::{io_err, Database, IndexVariant, QueryStats, SearchOutcome, SearchResult};
use crate::explain::{fine_mode_name, CandidateExplain, CoarseExplain, ExplainPlan, StrandExplain};
use crate::fine::{fine_search_traced, CandidateTiming, FineResult};
use crate::params::{SearchParams, Strand};
use crate::store::RecordSource;

/// Cap on per-candidate child spans under a `fine` span, so one query
/// with a huge candidate list cannot bloat a trace (and therefore the
/// flight recorder's memory bound). The slowest candidates are kept.
const MAX_CANDIDATE_SPANS: usize = 8;

/// What one query accumulates besides its results.
struct Capture {
    query_start: Instant,
    stats: QueryStats,
    /// `Some` when the recorder wants spans.
    spans: Option<Vec<SpanNode>>,
    /// `Some` when an explain plan is being collected.
    strand_plans: Option<Vec<StrandExplain>>,
}

/// Evaluate one query on `db`, with `scratch` as its coarse working
/// memory. A query that trips over on-disk corruption fails with a typed
/// error and increments `nucdb_io_corruption_total`; the database itself
/// stays healthy. A `partial` note marks the answer as partial (a shard
/// set answering without some of its shards): the flight recorder files
/// such a query with the note as its error.
pub(crate) fn run_query(
    db: &Database,
    scratch: &mut CoarseScratch,
    query: &DnaSeq,
    params: &SearchParams,
    request_id: Option<&str>,
    partial: Option<String>,
) -> Result<SearchOutcome, IndexError> {
    let metrics = db.metrics();
    // Ask the recorder up front whether it wants spans and a plan; an
    // explain plan is also collected when the caller asks for one.
    let capture = metrics.forensics.begin();
    let want_plan = params.explain || capture.plan;

    // Deterministic latency injection for tail-sampler tests; only a
    // sleep, so results are bit-identical with or without it. The clock
    // starts first, so the delay counts toward the query's time.
    let query_start = Instant::now();
    let inject_ns = metrics.forensics.inject_delay_ns();
    if inject_ns > 0 {
        std::thread::sleep(std::time::Duration::from_nanos(inject_ns));
    }

    let mut cap = Capture {
        query_start,
        stats: QueryStats::default(),
        spans: capture.spans.then(Vec::new),
        strand_plans: want_plan.then(Vec::new),
    };
    scratch.begin_query();
    let strands = (|| -> Result<Vec<(Strand, FineResult)>, IndexError> {
        let mut merged = Vec::new();
        for strand in [Strand::Forward, Strand::Reverse] {
            if params.strand != strand && params.strand != Strand::Both {
                continue;
            }
            let reversed;
            let oriented = if strand == Strand::Reverse {
                reversed = query.reverse_complement();
                &reversed
            } else {
                query
            };
            let fine = search_strand(db, scratch, oriented, params, strand, &mut cap)?;
            merged.extend(fine.into_iter().map(|r| (strand, r)));
        }
        Ok(merged)
    })();
    let Capture {
        query_start,
        mut stats,
        spans,
        strand_plans,
    } = cap;
    let mut merged = match strands {
        Ok(done) => done,
        Err(e) => {
            if e.is_corruption() {
                metrics.io_corruption.inc();
            }
            // Tail sampling: failed queries are always captured, with
            // whatever spans completed before the failure.
            if metrics.forensics.is_enabled() {
                let total_ns = query_start.elapsed().as_nanos() as u64;
                let mut root = SpanNode::new("query", 0, total_ns);
                root.children = spans.unwrap_or_default();
                let trace = QueryTrace {
                    request_id: request_id.unwrap_or("").to_string(),
                    total_ns,
                    results: 0,
                    error: Some(e.to_string()),
                    root,
                    plan: None,
                };
                metrics.forensics.observe(capture, trace);
            }
            return Err(e);
        }
    };

    // Per record, keep the better strand.
    let merge_start = Instant::now();
    merged.sort_by(|(_, a), (_, b)| a.record.cmp(&b.record).then(b.score.cmp(&a.score)));
    merged.dedup_by_key(|(_, r)| r.record);
    merged.sort_by(|(_, a), (_, b)| b.score.cmp(&a.score).then(a.record.cmp(&b.record)));

    let results: Vec<SearchResult> = merged
        .into_iter()
        .take(params.max_results)
        .map(|(strand, r)| SearchResult {
            record: r.record,
            id: db.store().id(r.record).to_string(),
            score: r.score,
            coarse_score: f64::from(r.coarse.frame_hits),
            coarse_hits: r.coarse.hits,
            strand,
            alignment: r.alignment,
        })
        .collect();
    stats.merge_nanos = merge_start.elapsed().as_nanos() as u64;
    let merge_offset = merge_start.duration_since(query_start).as_nanos() as u64;
    let total_nanos = query_start.elapsed().as_nanos() as u64;

    let plan = strand_plans.map(|strands| ExplainPlan {
        query_len: query.len(),
        ranking: format!("frame:{}", params.frame_window),
        max_candidates: params.max_candidates,
        min_score: params.min_score,
        segments: match db.index() {
            IndexVariant::Segmented(index) => index.explain_rows(),
            IndexVariant::Disk(_) => Vec::new(),
        },
        strands,
        results: results.len(),
    });

    if metrics.is_enabled() {
        metrics.record_query(&stats, total_nanos);
    }
    if let Some(spans) = spans {
        let mut root = SpanNode::new("query", 0, total_nanos);
        root.children = spans;
        root.children.push(
            SpanNode::new("strand_merge", merge_offset, stats.merge_nanos)
                .counter("results", results.len() as u64),
        );
        let trace = QueryTrace {
            request_id: request_id.unwrap_or("").to_string(),
            total_ns: total_nanos,
            results: results.len() as u64,
            error: partial,
            root,
            plan: plan.as_ref().map(ExplainPlan::to_value),
        };
        if metrics.forensics.observe(capture, trace) == CaptureReason::Slow {
            metrics.slow_queries.inc();
        }
    }

    Ok(SearchOutcome {
        results,
        stats,
        explain: params.explain.then_some(plan).flatten(),
        coverage: None,
    })
}

/// Run coarse + fine for one strand orientation of the query,
/// accumulating cost counters into `cap.stats`. When spans are being
/// captured, a `coarse` span (children `extract`/`accumulate`/`rank`)
/// and a `fine` span (children: the slowest candidates) are appended,
/// each carrying its work counters.
fn search_strand(
    db: &Database,
    scratch: &mut CoarseScratch,
    query: &DnaSeq,
    params: &SearchParams,
    strand: Strand,
    cap: &mut Capture,
) -> Result<Vec<FineResult>, IndexError> {
    let stats = &mut cap.stats;
    let query_bases = query.representative_bases();
    let mut coarse_explain = cap.strand_plans.is_some().then(CoarseExplain::default);
    let coarse_offset = cap.query_start.elapsed().as_nanos() as u64;
    let coarse_start = Instant::now();
    let coarse = coarse_rank_explain(
        db.index(),
        &query_bases,
        params,
        scratch,
        coarse_explain.as_mut(),
    )?;
    scratch.charge_candidates(&coarse.candidates);
    let coarse_nanos = coarse_start.elapsed().as_nanos() as u64;
    stats.coarse_nanos += coarse_nanos;
    stats.extract_nanos += coarse.extract_nanos;
    stats.accumulate_nanos += coarse.accumulate_nanos;
    stats.rank_nanos += coarse.rank_nanos;
    stats.intervals_looked_up += coarse.intervals_looked_up;
    stats.lists_fetched += coarse.lists_fetched;
    stats.postings_decoded += coarse.postings_decoded;
    stats.postings_bytes_read += coarse.postings_bytes_read;
    stats.blocks_decoded += coarse.blocks_decoded;
    stats.total_hits += coarse.total_hits;
    stats.candidates += coarse.candidates.len() as u64;
    stats.fine_alignments += coarse.candidates.len() as u64;

    let fine_offset = cap.query_start.elapsed().as_nanos() as u64;
    let fine_start = Instant::now();
    let mut timings: Vec<CandidateTiming> = Vec::new();
    let fine = fine_search_traced(
        db.store(),
        query,
        &coarse.candidates,
        params.fine,
        &params.scheme,
        params.min_score,
        (cap.spans.is_some() || cap.strand_plans.is_some()).then_some(&mut timings),
    )
    .map_err(io_err);
    let fine_nanos = fine_start.elapsed().as_nanos() as u64;
    stats.fine_nanos += fine_nanos;

    // The explain candidates want alignment order; take them before
    // the span builder below re-sorts `timings` by duration.
    if let (Some(strands), Some(coarse_explain)) = (&mut cap.strand_plans, coarse_explain) {
        strands.push(StrandExplain {
            strand,
            coarse: coarse_explain,
            fine_mode: fine_mode_name(params.fine),
            candidates: timings
                .iter()
                .map(|t| CandidateExplain {
                    record: t.record,
                    score: t.score,
                    nanos: t.nanos,
                    kept: t.score >= params.min_score,
                })
                .collect(),
        });
    }

    if let Some(spans) = &mut cap.spans {
        let strand_idx = u64::from(strand == Strand::Reverse);
        spans.push(
            SpanNode::new("coarse", coarse_offset, coarse_nanos)
                .counter("@strand", strand_idx)
                .child(
                    SpanNode::new("extract", coarse_offset, coarse.extract_nanos)
                        .counter("intervals_looked_up", coarse.intervals_looked_up),
                )
                .child(
                    SpanNode::new(
                        "accumulate",
                        coarse_offset + coarse.extract_nanos,
                        coarse.accumulate_nanos,
                    )
                    .counter("lists_fetched", coarse.lists_fetched)
                    .counter("ids_decoded", coarse.postings_decoded)
                    .counter("postings_bytes_read", coarse.postings_bytes_read)
                    .counter("blocks_decoded", coarse.blocks_decoded)
                    .counter("hits", coarse.total_hits),
                )
                .child(
                    SpanNode::new(
                        "rank",
                        coarse_offset + coarse.extract_nanos + coarse.accumulate_nanos,
                        coarse.rank_nanos,
                    )
                    .counter("candidates", coarse.candidates.len() as u64),
                ),
        );

        let mut fine_span = SpanNode::new("fine", fine_offset, fine_nanos)
            .counter("@strand", strand_idx)
            .counter("alignments", coarse.candidates.len() as u64);
        // Keep only the slowest candidates so trace size stays bounded.
        timings.sort_by(|a, b| b.nanos.cmp(&a.nanos).then(a.record.cmp(&b.record)));
        for t in timings.iter().take(MAX_CANDIDATE_SPANS) {
            fine_span = fine_span.child(
                SpanNode::new("candidate", fine_offset + t.start_ns, t.nanos)
                    .counter("@record", t.record as u64)
                    .counter("@score", t.score.max(0) as u64),
            );
        }
        spans.push(fine_span);
    }
    fine
}
