//! Offline aggregation of query-trace dumps (`nucdb profile`).
//!
//! Takes the JSONL emitted by the capture log, or a
//! `GET /debug/queries` / `GET /debug/slow` dump, and folds every
//! [`QueryTrace`] in it into one [`ProfileReport`]:
//!
//! * a **per-stage self-time breakdown** — spans grouped by name, with
//!   self time ([`SpanNode::self_nanos`]) so parents don't double-count
//!   their children;
//! * **work-counter totals** across all spans (postings bytes read, ids
//!   decoded, blocks decoded/skipped, …), connecting time to work;
//! * a **top-K slowest queries** table keyed by request id.
//!
//! The parser is deliberately forgiving about framing: the input may be
//! one JSON document with a `"queries"` array (debug-endpoint dump),
//! JSONL of trace lines, JSONL of flight entries, or a mix; lines that
//! don't carry a trace are counted in [`ProfileReport::skipped_lines`]
//! rather than failing the run.

use crate::json::{num, Value};
use crate::span::{QueryTrace, SpanNode};

/// Aggregate timing for one span name across all parsed traces.
#[derive(Debug, Clone, PartialEq)]
pub struct StageAgg {
    /// Span name (`"extract"`, `"fine"`, …).
    pub name: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span self times (duration minus children).
    pub self_ns: u64,
    /// Largest single span duration.
    pub max_ns: u64,
}

/// One row of the slowest-queries table.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySummary {
    /// Request id (may be empty for offline queries).
    pub request_id: String,
    /// Total query wall time.
    pub total_ns: u64,
    /// Results returned.
    pub results: u64,
    /// Error message, if the query failed.
    pub error: Option<String>,
}

/// The aggregated profile of a trace dump.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfileReport {
    /// Traces parsed.
    pub queries: u64,
    /// Of those, queries that ended in error.
    pub errors: u64,
    /// Sum of total query wall time.
    pub total_ns: u64,
    /// Per-stage aggregates, sorted by self time descending.
    pub stages: Vec<StageAgg>,
    /// Work-counter totals across all spans, sorted by name
    /// (`@`-prefixed identity labels excluded).
    pub counters: Vec<(String, u64)>,
    /// Top-K slowest queries, slowest first.
    pub slowest: Vec<QuerySummary>,
    /// Input lines that carried no parseable trace.
    pub skipped_lines: u64,
}

/// Aggregate a trace dump. `top_k` bounds the slowest-queries table.
pub fn aggregate(input: &str, top_k: usize) -> ProfileReport {
    let mut report = ProfileReport::default();
    let mut stages: Vec<StageAgg> = Vec::new();
    let mut counters: Vec<(String, u64)> = Vec::new();
    let mut summaries: Vec<QuerySummary> = Vec::new();

    let fold_trace = |trace: QueryTrace,
                      report: &mut ProfileReport,
                      stages: &mut Vec<StageAgg>,
                      counters: &mut Vec<(String, u64)>,
                      summaries: &mut Vec<QuerySummary>| {
        report.queries += 1;
        report.total_ns += trace.total_ns;
        if trace.error.is_some() {
            report.errors += 1;
        }
        if !trace.root.name.is_empty() {
            trace.root.walk(&mut |span: &SpanNode| {
                let agg = match stages.iter_mut().find(|s| s.name == span.name) {
                    Some(agg) => agg,
                    None => {
                        stages.push(StageAgg {
                            name: span.name.clone(),
                            count: 0,
                            total_ns: 0,
                            self_ns: 0,
                            max_ns: 0,
                        });
                        stages.last_mut().unwrap()
                    }
                };
                agg.count += 1;
                agg.total_ns += span.dur_ns;
                agg.self_ns += span.self_nanos();
                agg.max_ns = agg.max_ns.max(span.dur_ns);
                for (key, val) in &span.counters {
                    // `@`-prefixed counters are identity labels (record
                    // id, strand, score); summing them is meaningless.
                    if key.starts_with('@') {
                        continue;
                    }
                    match counters.iter_mut().find(|(k, _)| k == key) {
                        Some((_, total)) => *total += val,
                        None => counters.push((key.clone(), *val)),
                    }
                }
            });
        }
        summaries.push(QuerySummary {
            request_id: trace.request_id,
            total_ns: trace.total_ns,
            results: trace.results,
            error: trace.error,
        });
    };

    // A value may be a trace itself or a `{"queries":[…]}` dump.
    let fold_value = |value: &Value,
                      report: &mut ProfileReport,
                      stages: &mut Vec<StageAgg>,
                      counters: &mut Vec<(String, u64)>,
                      summaries: &mut Vec<QuerySummary>|
     -> bool {
        if let Some(Value::Arr(entries)) = value.get("queries") {
            let mut any = false;
            for entry in entries {
                if let Some(trace) = QueryTrace::from_value(entry) {
                    fold_trace(trace, report, stages, counters, summaries);
                    any = true;
                }
            }
            any
        } else if let Some(trace) = QueryTrace::from_value(value) {
            fold_trace(trace, report, stages, counters, summaries);
            true
        } else {
            false
        }
    };

    for line in input.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let parsed = match crate::json::parse(line) {
            Ok(value) => fold_value(
                &value,
                &mut report,
                &mut stages,
                &mut counters,
                &mut summaries,
            ),
            Err(_) => false,
        };
        if !parsed {
            report.skipped_lines += 1;
        }
    }

    stages.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
    counters.sort_by(|a, b| a.0.cmp(&b.0));
    summaries.sort_by(|a, b| {
        b.total_ns
            .cmp(&a.total_ns)
            .then(a.request_id.cmp(&b.request_id))
    });
    summaries.truncate(top_k);

    report.stages = stages;
    report.counters = counters;
    report.slowest = summaries;
    report
}

impl ProfileReport {
    /// The report as a JSON object (what `nucdb profile` writes to
    /// `results/`).
    pub fn to_value(&self) -> Value {
        let stages = self
            .stages
            .iter()
            .map(|s| {
                Value::Obj(vec![
                    ("name".to_string(), Value::Str(s.name.clone())),
                    ("count".to_string(), num(s.count)),
                    ("total_ns".to_string(), num(s.total_ns)),
                    ("self_ns".to_string(), num(s.self_ns)),
                    ("max_ns".to_string(), num(s.max_ns)),
                ])
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), num(*v)))
            .collect();
        let slowest = self
            .slowest
            .iter()
            .map(|q| {
                let mut members = vec![
                    ("request_id".to_string(), Value::Str(q.request_id.clone())),
                    ("total_ns".to_string(), num(q.total_ns)),
                    ("results".to_string(), num(q.results)),
                ];
                if let Some(err) = &q.error {
                    members.push(("error".to_string(), Value::Str(err.clone())));
                }
                Value::Obj(members)
            })
            .collect();
        Value::Obj(vec![
            ("queries".to_string(), num(self.queries)),
            ("errors".to_string(), num(self.errors)),
            ("total_ns".to_string(), num(self.total_ns)),
            ("skipped_lines".to_string(), num(self.skipped_lines)),
            ("stages".to_string(), Value::Arr(stages)),
            ("counters".to_string(), Value::Obj(counters)),
            ("slowest".to_string(), Value::Arr(slowest)),
        ])
    }

    /// Human-readable report text (what `nucdb profile` prints).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "profile: {} queries ({} errors), {:.3} ms total query time",
            self.queries,
            self.errors,
            self.total_ns as f64 / 1e6
        ));
        if self.skipped_lines > 0 {
            out.push_str(&format!(", {} lines skipped", self.skipped_lines));
        }
        out.push('\n');

        out.push_str("\nstage breakdown (by self time):\n");
        out.push_str(&format!(
            "  {:<14} {:>8} {:>12} {:>12} {:>10} {:>7}\n",
            "stage", "count", "self_ms", "total_ms", "max_us", "share"
        ));
        let self_total: u64 = self.stages.iter().map(|s| s.self_ns).sum();
        for stage in &self.stages {
            let share = if self_total > 0 {
                stage.self_ns as f64 / self_total as f64 * 100.0
            } else {
                0.0
            };
            out.push_str(&format!(
                "  {:<14} {:>8} {:>12.3} {:>12.3} {:>10.1} {:>6.1}%\n",
                stage.name,
                stage.count,
                stage.self_ns as f64 / 1e6,
                stage.total_ns as f64 / 1e6,
                stage.max_ns as f64 / 1e3,
                share
            ));
        }

        out.push_str("\nwork counters:\n");
        for (name, total) in &self.counters {
            out.push_str(&format!("  {:<24} {:>14}\n", name, total));
        }

        out.push_str(&format!("\nslowest {} queries:\n", self.slowest.len()));
        out.push_str(&format!(
            "  {:>4} {:<24} {:>10} {:>8}  {}\n",
            "rank", "request_id", "total_ms", "results", "error"
        ));
        for (i, q) in self.slowest.iter().enumerate() {
            let id = if q.request_id.is_empty() {
                "-"
            } else {
                q.request_id.as_str()
            };
            out.push_str(&format!(
                "  {:>4} {:<24} {:>10.3} {:>8}  {}\n",
                i + 1,
                id,
                q.total_ns as f64 / 1e6,
                q.results,
                q.error.as_deref().unwrap_or("-")
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_line(id: &str, total: u64, extract: u64, fine: u64) -> String {
        let root = SpanNode::new("query", 0, total)
            .child(
                SpanNode::new("coarse", 0, extract + 10)
                    .child(SpanNode::new("extract", 0, extract).counter("ids_decoded", 100)),
            )
            .child(
                SpanNode::new("fine", extract + 10, fine)
                    .counter("alignments", 3)
                    .counter("@strand", 0),
            );
        QueryTrace {
            request_id: id.to_string(),
            total_ns: total,
            results: 2,
            error: None,
            root,
            plan: None,
        }
        .to_value()
        .render()
    }

    #[test]
    fn aggregates_stage_self_time_and_counters_exactly() {
        let input = format!(
            "{}\n{}\n",
            trace_line("a", 1_000, 300, 500),
            trace_line("b", 2_000, 600, 900)
        );
        let report = aggregate(&input, 10);
        assert_eq!(report.queries, 2);
        assert_eq!(report.errors, 0);
        assert_eq!(report.total_ns, 3_000);
        assert_eq!(report.skipped_lines, 0);

        let stage = |name: &str| report.stages.iter().find(|s| s.name == name).unwrap();
        // extract: 300 + 600 total and self (leaf).
        assert_eq!(stage("extract").total_ns, 900);
        assert_eq!(stage("extract").self_ns, 900);
        assert_eq!(stage("extract").count, 2);
        assert_eq!(stage("extract").max_ns, 600);
        // coarse self time = 10 per query (duration extract+10 minus child).
        assert_eq!(stage("coarse").self_ns, 20);
        // query self = total - (coarse + fine).
        assert_eq!(
            stage("query").self_ns,
            (1_000 - 310 - 500) + (2_000 - 610 - 900)
        );
        // Identity labels (`@strand`) are excluded from work totals.
        assert_eq!(
            report.counters,
            vec![
                ("alignments".to_string(), 6),
                ("ids_decoded".to_string(), 200),
            ]
        );
    }

    #[test]
    fn slowest_table_is_ranked_and_truncated() {
        let mut input = String::new();
        for i in 0..5u64 {
            input.push_str(&trace_line(&format!("q{i}"), (i + 1) * 100, 10, 20));
            input.push('\n');
        }
        let report = aggregate(&input, 3);
        assert_eq!(report.slowest.len(), 3);
        let ids: Vec<&str> = report
            .slowest
            .iter()
            .map(|q| q.request_id.as_str())
            .collect();
        assert_eq!(ids, ["q4", "q3", "q2"]);
    }

    #[test]
    fn accepts_debug_dump_and_skips_garbage() {
        let dump = format!(
            "{{\"capacity\":4,\"queries\":[{},{}]}}",
            trace_line("a", 500, 100, 200),
            trace_line("b", 700, 100, 200)
        );
        let input = format!("not json\n{{\"event\":\"other\"}}\n{dump}\n");
        let report = aggregate(&input, 10);
        assert_eq!(report.queries, 2);
        assert_eq!(report.skipped_lines, 2);
    }

    #[test]
    fn error_traces_count_without_spans() {
        let line = QueryTrace {
            request_id: "bad".to_string(),
            total_ns: 42,
            results: 0,
            error: Some("corruption".to_string()),
            root: SpanNode::default(),
            plan: None,
        }
        .to_value()
        .render();
        let report = aggregate(&line, 10);
        assert_eq!(report.queries, 1);
        assert_eq!(report.errors, 1);
        assert!(report.stages.is_empty());
        assert_eq!(report.slowest[0].error.as_deref(), Some("corruption"));
    }

    #[test]
    fn json_report_round_trips_through_parser() {
        let input = format!("{}\n", trace_line("a", 1_000, 300, 500));
        let report = aggregate(&input, 10);
        let rendered = report.to_value().render();
        let value = crate::json::parse(&rendered).unwrap();
        assert_eq!(value.get("queries").and_then(Value::as_f64), Some(1.0));
        let text = report.render_text();
        assert!(text.contains("stage breakdown"));
        assert!(text.contains("extract"));
        assert!(text.contains("ids_decoded"));
    }
}
