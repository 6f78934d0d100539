//! Engine-side observability: the bundle of registered metric handles a
//! [`Database`](crate::Database) records into, plus its query capture
//! handle.
//!
//! The bundle is resolved once (at
//! [`Database::bind_metrics`](crate::Database::bind_metrics) time) so the
//! hot path never touches the registry lock — each query records through
//! pre-registered atomic handles. A default-constructed [`SearchMetrics`]
//! is fully disabled: every handle is detached, so each record call is
//! one branch.

use nucdb_obs::{Counter, Forensics, Histogram, MetricsRegistry};

use crate::engine::QueryStats;

/// Pre-registered metric handles for the search path.
///
/// Histogram values are nanoseconds unless the metric name says
/// otherwise.
#[derive(Debug, Clone, Default)]
pub struct SearchMetrics {
    /// Queries evaluated.
    pub queries: Counter,
    /// End-to-end per-query latency.
    pub query_latency: Histogram,
    /// Coarse stage: interval extraction + code sort.
    pub stage_extract: Histogram,
    /// Coarse stage: postings fetch + hit accumulation.
    pub stage_accumulate: Histogram,
    /// Coarse stage: diagonal scatter, window scoring, ranking.
    pub stage_rank: Histogram,
    /// Fine stage: local alignment of the candidates.
    pub stage_fine: Histogram,
    /// Strand merge + result assembly.
    pub stage_merge: Histogram,
    /// Candidates promoted to fine search, per query.
    pub candidates: Histogram,
    /// Postings lists fetched.
    pub lists_fetched: Counter,
    /// Postings entries decoded.
    pub postings_decoded: Counter,
    /// Hit pairs accumulated.
    pub total_hits: Counter,
    /// Fine alignments computed.
    pub fine_alignments: Counter,
    /// Queries that failed on detected on-disk corruption (checksum
    /// mismatch, structural violation, or truncated read). Incremented
    /// per failing query; the query errors out, the engine stays up.
    pub io_corruption: Counter,
    /// Queries captured by tail sampling for exceeding the forensics
    /// slow-query threshold.
    pub slow_queries: Counter,
    /// Capture-log lines lost to write errors (bound onto the log as
    /// `nucdb_trace_dropped_total`).
    pub trace_dropped: Counter,
    /// Capture-log size-cap rotations (bound onto the log as
    /// `nucdb_trace_rotations_total`).
    pub trace_rotations: Counter,
    /// Query capture: flight-recorder rings, tail sampling, and the
    /// strided JSONL log.
    pub forensics: Forensics,
}

impl SearchMetrics {
    /// Register the search metric family in `registry` and return live
    /// handles (detached no-op handles if the registry is disabled).
    pub fn new(registry: &MetricsRegistry) -> SearchMetrics {
        let stage = |name: &str| {
            registry.histogram_with(
                "nucdb_stage_latency_ns",
                "Per-stage search latency in nanoseconds",
                &[("stage", name)],
            )
        };
        SearchMetrics {
            queries: registry.counter("nucdb_queries_total", "Queries evaluated"),
            query_latency: registry.histogram(
                "nucdb_query_latency_ns",
                "End-to-end per-query latency in nanoseconds",
            ),
            stage_extract: stage("coarse_extract"),
            stage_accumulate: stage("coarse_accumulate"),
            stage_rank: stage("coarse_rank"),
            stage_fine: stage("fine_align"),
            stage_merge: stage("strand_merge"),
            candidates: registry.histogram(
                "nucdb_candidates_per_query",
                "Candidates promoted to fine search per query",
            ),
            lists_fetched: registry.counter("nucdb_lists_fetched_total", "Postings lists fetched"),
            postings_decoded: registry
                .counter("nucdb_postings_decoded_total", "Postings entries decoded"),
            total_hits: registry
                .counter("nucdb_hits_total", "Hit pairs accumulated in coarse search"),
            fine_alignments: registry
                .counter("nucdb_fine_alignments_total", "Fine alignments computed"),
            io_corruption: registry.counter(
                "nucdb_io_corruption_total",
                "Queries failed on detected on-disk corruption",
            ),
            slow_queries: registry.counter(
                "nucdb_slow_queries_total",
                "Queries tail-sampled for exceeding the slow-query threshold",
            ),
            trace_dropped: registry.counter(
                "nucdb_trace_dropped_total",
                "Capture log lines dropped on write error",
            ),
            trace_rotations: registry.counter(
                "nucdb_trace_rotations_total",
                "Capture log size-cap rotations",
            ),
            forensics: Forensics::disabled(),
        }
    }

    /// A fully detached bundle: every record call is one branch.
    pub fn disabled() -> SearchMetrics {
        SearchMetrics::default()
    }

    /// Attach the query capture handle (flight recorder, tail sampling,
    /// log). The log's drop and rotation tallies bind to this bundle's
    /// `nucdb_trace_{dropped,rotations}_total` counters.
    pub fn with_forensics(mut self, forensics: Forensics) -> SearchMetrics {
        forensics.bind_log_counters(self.trace_dropped.clone(), self.trace_rotations.clone());
        self.forensics = forensics;
        self
    }

    /// Is any metric handle live?
    pub fn is_enabled(&self) -> bool {
        self.queries.is_enabled()
    }

    /// Record one evaluated query's stats into the registered handles.
    pub fn record_query(&self, stats: &QueryStats, total_nanos: u64) {
        self.queries.inc();
        self.query_latency.record(total_nanos);
        self.stage_extract.record(stats.extract_nanos);
        self.stage_accumulate.record(stats.accumulate_nanos);
        self.stage_rank.record(stats.rank_nanos);
        self.stage_fine.record(stats.fine_nanos);
        self.stage_merge.record(stats.merge_nanos);
        self.candidates.record(stats.candidates);
        self.lists_fetched.add(stats.lists_fetched);
        self.postings_decoded.add(stats.postings_decoded);
        self.total_hits.add(stats.total_hits);
        self.fine_alignments.add(stats.fine_alignments);
    }
}
