//! Span trees: structured per-query timing with attached work counters.
//!
//! A [`SpanNode`] is one timed region of a query (a stage, a strand, a
//! fine-alignment candidate) carrying its duration, its offset from the
//! start of the query, a set of named work counters (postings bytes
//! read, ids decoded, blocks skipped, …) and child spans. A
//! [`QueryTrace`] is the complete forensic record of one query: the
//! request id the client saw, total wall time, result/error outcome, and
//! the root span. Both serialize to the crate's mini-JSON
//! ([`SpanNode::to_value`]) and parse back ([`SpanNode::from_value`]),
//! so the same shape flows through the JSONL trace log, the flight
//! recorder, the `/debug/*` endpoints, and `nucdb profile`.
//!
//! The tree exists so that *time is attributable to work*: a span's
//! **self time** ([`SpanNode::self_nanos`]) is its duration minus the
//! time covered by its children, which is what a profile aggregates —
//! summing raw durations would double-count every parent.

use crate::json::{num, Value};

/// One timed region of a query with its work counters and children.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpanNode {
    /// Stage name, e.g. `"extract"`, `"fine"`, `"strand_merge"`. Profile
    /// aggregation groups spans by this name across queries and strands.
    pub name: String,
    /// Offset of this span's start from the start of the query, in
    /// nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration of this span, in nanoseconds.
    pub dur_ns: u64,
    /// Named work counters attributed to this span (not its children).
    /// Names beginning with `@` are **identity labels** (which record,
    /// which strand, what score) rather than work; profile aggregation
    /// excludes them from counter totals, where summing them would be
    /// meaningless.
    pub counters: Vec<(String, u64)>,
    /// Child spans, in execution order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// A leaf span with the given name, start offset, and duration.
    pub fn new(name: &str, start_ns: u64, dur_ns: u64) -> SpanNode {
        SpanNode {
            name: name.to_string(),
            start_ns,
            dur_ns,
            counters: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Attach a work counter (builder style).
    pub fn counter(mut self, key: &str, value: u64) -> SpanNode {
        self.counters.push((key.to_string(), value));
        self
    }

    /// Attach a child span (builder style).
    pub fn child(mut self, child: SpanNode) -> SpanNode {
        self.children.push(child);
        self
    }

    /// Duration not covered by child spans: `dur_ns` minus the sum of
    /// child durations, saturating at zero (children measured on a
    /// different clock read can overshoot the parent by a few ns).
    pub fn self_nanos(&self) -> u64 {
        let covered: u64 = self.children.iter().map(|c| c.dur_ns).sum();
        self.dur_ns.saturating_sub(covered)
    }

    /// Visit this span and every descendant, depth-first, parents before
    /// children.
    pub fn walk<'a>(&'a self, visit: &mut dyn FnMut(&'a SpanNode)) {
        visit(self);
        for child in &self.children {
            child.walk(visit);
        }
    }

    /// The span as a JSON object:
    /// `{"name":…,"start_ns":…,"dur_ns":…,"counters":{…},"children":[…]}`.
    /// Empty counter sets and child lists are omitted to keep trace
    /// lines compact.
    pub fn to_value(&self) -> Value {
        let mut members = vec![
            ("name".to_string(), Value::Str(self.name.clone())),
            ("start_ns".to_string(), num(self.start_ns)),
            ("dur_ns".to_string(), num(self.dur_ns)),
        ];
        if !self.counters.is_empty() {
            let counters = self
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), num(*v)))
                .collect();
            members.push(("counters".to_string(), Value::Obj(counters)));
        }
        if !self.children.is_empty() {
            let children = self.children.iter().map(SpanNode::to_value).collect();
            members.push(("children".to_string(), Value::Arr(children)));
        }
        Value::Obj(members)
    }

    /// Parse a span produced by [`SpanNode::to_value`]. Returns `None`
    /// when the value is not a span-shaped object.
    pub fn from_value(value: &Value) -> Option<SpanNode> {
        let name = value.get("name")?.as_str()?.to_string();
        let start_ns = value.get("start_ns")?.as_f64()? as u64;
        let dur_ns = value.get("dur_ns")?.as_f64()? as u64;
        let mut counters = Vec::new();
        if let Some(Value::Obj(members)) = value.get("counters") {
            for (key, val) in members {
                counters.push((key.clone(), val.as_f64()? as u64));
            }
        }
        let mut children = Vec::new();
        if let Some(Value::Arr(items)) = value.get("children") {
            for item in items {
                children.push(SpanNode::from_value(item)?);
            }
        }
        Some(SpanNode {
            name,
            start_ns,
            dur_ns,
            counters,
            children,
        })
    }
}

/// The complete forensic record of one query: identity, outcome, and the
/// span tree. This is what the flight recorder stores, the slow-query
/// log emits, and `nucdb profile` aggregates.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryTrace {
    /// The request id the client received (server queries) or was given
    /// by the caller (batch/CLI queries). Empty string when none.
    pub request_id: String,
    /// Total query wall time in nanoseconds.
    pub total_ns: u64,
    /// Number of results returned. Zero on error.
    pub results: u64,
    /// The error message, for queries that ended in error.
    pub error: Option<String>,
    /// Root of the span tree (name `"query"` by convention). A trace
    /// captured at error time may carry an empty root.
    pub root: SpanNode,
    /// The query's explain plan as a JSON object, when one was collected
    /// (the engine attaches plans to every capture while tail sampling is
    /// armed, so slow captures ship their own explanation).
    pub plan: Option<Value>,
}

impl QueryTrace {
    /// The trace as a JSON object. `error` is omitted for successful
    /// queries; `spans` is omitted when the root is empty (error traces
    /// captured before any stage ran).
    pub fn to_value(&self) -> Value {
        let mut members = vec![
            (
                "request_id".to_string(),
                Value::Str(self.request_id.clone()),
            ),
            ("total_ns".to_string(), num(self.total_ns)),
            ("results".to_string(), num(self.results)),
        ];
        if let Some(err) = &self.error {
            members.push(("error".to_string(), Value::Str(err.clone())));
        }
        if !self.root.name.is_empty() {
            members.push(("spans".to_string(), self.root.to_value()));
        }
        if let Some(plan) = &self.plan {
            members.push(("plan".to_string(), plan.clone()));
        }
        Value::Obj(members)
    }

    /// Parse a trace produced by [`QueryTrace::to_value`]. Tolerates
    /// extra fields (flight entries and capture-log lines add `seq` and
    /// `reason`), so the same parser serves every dump format.
    pub fn from_value(value: &Value) -> Option<QueryTrace> {
        let request_id = value
            .get("request_id")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        let total_ns = value.get("total_ns")?.as_f64()? as u64;
        let results = value.get("results").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        let error = value
            .get("error")
            .and_then(Value::as_str)
            .map(str::to_string);
        let root = match value.get("spans") {
            Some(spans) => SpanNode::from_value(spans)?,
            None => SpanNode::default(),
        };
        let plan = value.get("plan").cloned();
        Some(QueryTrace {
            request_id,
            total_ns,
            results,
            error,
            root,
            plan,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> SpanNode {
        SpanNode::new("query", 0, 1000)
            .counter("candidates", 7)
            .child(
                SpanNode::new("coarse", 0, 600)
                    .counter("strand", 0)
                    .child(SpanNode::new("extract", 0, 100).counter("intervals_looked_up", 9))
                    .child(
                        SpanNode::new("accumulate", 100, 400)
                            .counter("postings_bytes_read", 2048)
                            .counter("ids_decoded", 512),
                    )
                    .child(SpanNode::new("rank", 500, 100)),
            )
            .child(SpanNode::new("fine", 600, 300).counter("alignments", 7))
            .child(SpanNode::new("strand_merge", 900, 50))
    }

    #[test]
    fn self_time_subtracts_children() {
        let tree = sample_tree();
        // 1000 - (600 + 300 + 50) = 50 self ns at the root.
        assert_eq!(tree.self_nanos(), 50);
        // coarse: 600 - (100 + 400 + 100) = 0.
        assert_eq!(tree.children[0].self_nanos(), 0);
        // Leaves own all their time.
        assert_eq!(tree.children[1].self_nanos(), 300);
    }

    #[test]
    fn self_time_saturates_when_children_overshoot() {
        let tree = SpanNode::new("query", 0, 10).child(SpanNode::new("stage", 0, 25));
        assert_eq!(tree.self_nanos(), 0);
    }

    #[test]
    fn json_round_trip_is_identity() {
        let tree = sample_tree();
        let rendered = tree.to_value().render();
        let parsed = SpanNode::from_value(&crate::json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(parsed, tree);
    }

    #[test]
    fn walk_visits_every_node_parent_first() {
        let tree = sample_tree();
        let mut names = Vec::new();
        tree.walk(&mut |span| names.push(span.name.as_str()));
        assert_eq!(
            names,
            [
                "query",
                "coarse",
                "extract",
                "accumulate",
                "rank",
                "fine",
                "strand_merge"
            ]
        );
    }

    #[test]
    fn query_trace_round_trip_with_and_without_error() {
        let ok = QueryTrace {
            request_id: "req-1".to_string(),
            total_ns: 1234,
            results: 3,
            error: None,
            root: sample_tree(),
            plan: None,
        };
        let rendered = ok.to_value().render();
        assert_eq!(
            QueryTrace::from_value(&crate::json::parse(&rendered).unwrap()).unwrap(),
            ok
        );

        let failed = QueryTrace {
            request_id: "req-2".to_string(),
            total_ns: 77,
            results: 0,
            error: Some("corruption: index toc".to_string()),
            root: SpanNode::default(),
            plan: None,
        };
        let rendered = failed.to_value().render();
        let parsed = QueryTrace::from_value(&crate::json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(parsed, failed);
        assert!(rendered.contains("\"error\""));
        assert!(!rendered.contains("\"spans\""));

        let explained = QueryTrace {
            plan: Some(Value::Obj(vec![(
                "query_len".to_string(),
                crate::json::num(12),
            )])),
            ..ok
        };
        let rendered = explained.to_value().render();
        let parsed = QueryTrace::from_value(&crate::json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(parsed, explained);
        assert!(rendered.contains("\"plan\""));
    }

    #[test]
    fn from_value_tolerates_extra_fields() {
        let line = r#"{"event":"query","seq":9,"reason":"slow","request_id":"r","total_ns":5,"results":1}"#;
        let parsed = QueryTrace::from_value(&crate::json::parse(line).unwrap()).unwrap();
        assert_eq!(parsed.request_id, "r");
        assert_eq!(parsed.total_ns, 5);
    }
}
