//! The benchmark's metric names and units — the one table the timed
//! run, the traced run, `BENCHMARK.json` and `README.md` agree on.
//!
//! Every workload prints every metric of its run kind. A per-layer
//! metric of a layer the workload does not exercise reads 0.

use std::collections::BTreeMap;

use nucdb_obs::json::Value;

/// End-to-end metrics: measured with tracing off, one value per workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("recall_planted", "ratio"),
    ("stored_bytes_per_base", "B/base"),
];

/// Per-layer metrics: produced by the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("index.fetch_ns_per_query", "ns"),
    ("index.decode_ids_per_s", "1/s"),
    ("index.postings_bytes_per_query", "B"),
    ("index.ids_decoded_per_query", "count"),
    ("index.lists_fetched_per_query", "count"),
    ("index.blocks_decoded_per_query", "count"),
    ("index.blocks_skipped_per_query", "count"),
    ("index.block_skip_ratio", "ratio"),
    ("index.build_s", "s"),
    ("index.write_s", "s"),
    ("index.open_s", "s"),
    ("index.file_bytes", "B"),
    ("codec.paper_decode_ids_per_s", "1/s"),
    ("codec.paper_bytes_per_base", "B/base"),
    ("core.coarse.ns_per_query", "ns"),
    ("core.coarse.self_ns_per_query", "ns"),
    ("core.coarse.extract_ns_per_query", "ns"),
    ("core.coarse.accumulate_ns_per_query", "ns"),
    ("core.coarse.rank_ns_per_query", "ns"),
    ("core.coarse.hits_per_query", "count"),
    ("core.coarse.candidates_per_query", "count"),
    ("core.coarse.candidate_yield", "ratio"),
    ("core.store.fetch_ns_per_candidate", "ns"),
    ("core.store.bytes_read_per_query", "B"),
    ("core.store.records_read_per_query", "count"),
    ("core.store.file_bytes", "B"),
    ("align.ns_per_alignment", "ns"),
    ("align.dp_cells_per_query", "count"),
    ("align.cells_per_s", "1/s"),
    ("core.fine.ns_per_query", "ns"),
    ("core.fine.self_ns_per_query", "ns"),
    ("core.fine.alignments_per_query", "count"),
    ("core.engine.search_ns_per_query", "ns"),
    ("core.engine.merge_ns_per_query", "ns"),
    ("core.engine.unaccounted_share", "ratio"),
    ("seq.query_prep_ns_per_query", "ns"),
    ("core.shard.search_ns_per_query", "ns"),
    ("core.shard.premerge_candidates_per_query", "count"),
    ("core.shard.ids_decoded_per_query", "count"),
    ("core.shard.fanout_overhead_ns_per_query", "ns"),
    ("core.shard.degraded_queries", "count"),
    ("serve.overhead_ns_per_request", "ns"),
    ("serve.response_bytes_per_request", "B"),
    ("serve.requests", "count"),
    ("serve.shed_503", "count"),
    ("core.segment.bulk_records_per_s", "1/s"),
    ("core.segment.insert_ns_per_record", "ns"),
    ("core.segment.flush_ms_p50", "ms"),
    ("core.segment.flush_ms_max", "ms"),
    ("core.segment.flushes", "count"),
    ("core.segment.compaction_runs", "count"),
    ("core.segment.compaction_s", "s"),
    ("core.segment.write_amplification", "ratio"),
    ("core.segment.segments_at_end", "count"),
    ("core.segment.snapshot_ns", "ns"),
    ("core.segment.search_ns_per_query", "ns"),
    ("obs.metrics_overhead_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.layer_share_fine", "ratio"),
    ("bench.layer_share_coarse", "ratio"),
    ("bench.recall_sw_at_30", "ratio"),
];

/// Per-layer metrics that are counts of work, not timings: two traced
/// runs of one commit must agree on them exactly. Ratios of two counts
/// are counts; response bytes are not, because each response carries
/// the server's own stage timings as digits.
pub fn is_count(name: &str) -> bool {
    const COUNT_RATIOS: &[&str] = &[
        "index.block_skip_ratio",
        "core.coarse.candidate_yield",
        "core.segment.write_amplification",
        "bench.recall_sw_at_30",
    ];
    name != "serve.response_bytes_per_request"
        && PER_LAYER.iter().any(|&(n, unit)| {
            n == name && (matches!(unit, "count" | "B" | "B/base") || COUNT_RATIOS.contains(&n))
        })
}

/// `{"value": v, "unit": u}`, the shape every reported figure has.
pub fn value_with_unit(value: f64, unit: &str) -> Value {
    Value::Obj(vec![
        ("value".to_string(), Value::Num(value)),
        ("unit".to_string(), Value::Str(unit.to_string())),
    ])
}

/// Named values of one run, checked against one of the tables above.
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// An empty set over `table`.
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics {
            table,
            values: BTreeMap::new(),
        }
    }

    /// Record `name`; a name outside the table is a bug in the harness.
    pub fn set(&mut self, name: &str, value: f64) {
        let &(known, _) = self
            .table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the benchmark's table"));
        self.values.insert(known, value);
    }

    /// Every metric of the table in table order; unset ones read 0.
    pub fn rows(&self) -> Vec<(&'static str, f64, &'static str)> {
        self.table
            .iter()
            .map(|&(name, unit)| (name, self.values.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }

    /// End-to-end metrics must all be measured and non-zero.
    pub fn missing(&self) -> Vec<&'static str> {
        self.table
            .iter()
            .filter(|(n, _)| {
                self.values
                    .get(n)
                    .is_none_or(|v| *v == 0.0 || !v.is_finite())
            })
            .map(|(n, _)| *n)
            .collect()
    }

    /// `{"name": {"value": v, "unit": u}, ...}`.
    pub fn to_json(&self) -> Value {
        Value::Obj(
            self.rows()
                .into_iter()
                .map(|(name, value, unit)| (name.to_string(), value_with_unit(value, unit)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the pipeline reads; the tables above are
    /// what the binary prints. They must name the same metrics.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = nucdb_obs::json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Value::Arr(entries)) = doc.get(key) else {
                panic!("BENCHMARK.json has no {key} array");
            };
            let listed: Vec<(String, String)> = entries
                .iter()
                .map(|e| {
                    (
                        e.get("name").and_then(Value::as_str).unwrap().to_string(),
                        e.get("unit").and_then(Value::as_str).unwrap().to_string(),
                    )
                })
                .collect();
            let expected: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key} differs from the harness table");
        }
    }

    #[test]
    fn unset_per_layer_metrics_read_zero_and_unknown_names_panic() {
        let mut m = Metrics::new(PER_LAYER);
        m.set("index.file_bytes", 12.0);
        let rows = m.rows();
        assert_eq!(rows.len(), PER_LAYER.len());
        assert!(rows
            .iter()
            .any(|r| r.0 == "index.file_bytes" && r.1 == 12.0));
        assert!(rows.iter().any(|r| r.0 == "serve.requests" && r.1 == 0.0));
        let unknown = std::panic::catch_unwind(|| {
            Metrics::new(PER_LAYER).set("index.no_such_metric", 1.0);
        });
        assert!(unknown.is_err());
    }

    #[test]
    fn end_to_end_set_reports_what_is_missing() {
        let mut m = Metrics::new(END_TO_END);
        for (name, _) in END_TO_END {
            m.set(name, 1.5);
        }
        assert!(m.missing().is_empty());
        m.set("setup_s", 0.0);
        assert_eq!(m.missing(), vec!["setup_s"]);
    }
}
