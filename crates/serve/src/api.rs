//! The `/search` wire format: query bodies in and ranked answers out.
//!
//! Two body formats are accepted, chosen by sniffing the first
//! non-whitespace byte:
//!
//! - **FASTA** (`>` first): every record is one query, searched with the
//!   server's default parameters.
//! - **JSON** (`{` first): `{"queries": [{"id": "q1", "seq": "ACGT..."},
//!   ...], "params": {...}}` where `params` may override `candidates`,
//!   `max_results`, `min_score`, `both_strands` and request `evalue`
//!   blocks.
//!
//! Responses are JSON built with [`nucdb_obs::json`] — the same ranked
//! answers (record, id, score, coarse hits, strand) the CLI `search`
//! command prints, so server results are bit-identical to offline ones.

use std::io::Cursor;

use nucdb::{SearchOutcome, SearchParams, Strand};
use nucdb_obs::json::{num, Value};
use nucdb_seq::{DnaSeq, FastaReader};

/// One parsed query.
#[derive(Debug, Clone)]
pub struct ApiQuery {
    /// Client-supplied identifier (FASTA header or JSON `id`).
    pub id: String,
    /// The query sequence.
    pub seq: DnaSeq,
}

/// A fully parsed `/search` request body.
#[derive(Debug, Clone)]
pub struct SearchRequest {
    /// The queries, in request order.
    pub queries: Vec<ApiQuery>,
    /// Engine parameters (server defaults + per-request overrides).
    pub params: SearchParams,
    /// Attach bit scores and e-values to each answer (costs a Gumbel
    /// calibration per query).
    pub evalue: bool,
}

/// A 400-able body problem.
#[derive(Debug)]
pub struct BodyError(pub String);

impl std::fmt::Display for BodyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Parse a `/search` body against the server's default parameters.
pub fn parse_search_body(
    body: &[u8],
    defaults: &SearchParams,
    max_queries: usize,
) -> Result<SearchRequest, BodyError> {
    let first = body.iter().copied().find(|b| !b.is_ascii_whitespace());
    let request = match first {
        Some(b'>') => parse_fasta_body(body, defaults)?,
        Some(b'{') => parse_json_body(body, defaults)?,
        Some(_) => {
            return Err(BodyError(
                "unrecognized body: expected FASTA ('>') or JSON ('{')".to_string(),
            ))
        }
        None => return Err(BodyError("empty body".to_string())),
    };
    if request.queries.is_empty() {
        return Err(BodyError("no queries in body".to_string()));
    }
    if request.queries.len() > max_queries {
        return Err(BodyError(format!(
            "too many queries in one request: {} > {max_queries}",
            request.queries.len()
        )));
    }
    Ok(request)
}

fn parse_fasta_body(body: &[u8], defaults: &SearchParams) -> Result<SearchRequest, BodyError> {
    let reader = FastaReader::new(Cursor::new(body.to_vec()));
    let mut queries = Vec::new();
    for record in reader {
        let record = record.map_err(|e| BodyError(format!("FASTA: {e}")))?;
        queries.push(ApiQuery {
            id: record.id,
            seq: record.seq,
        });
    }
    Ok(SearchRequest {
        queries,
        params: *defaults,
        evalue: false,
    })
}

fn parse_json_body(body: &[u8], defaults: &SearchParams) -> Result<SearchRequest, BodyError> {
    let text = std::str::from_utf8(body).map_err(|_| BodyError("body is not UTF-8".to_string()))?;
    let doc = nucdb_obs::json::parse(text).map_err(|e| BodyError(format!("JSON: {e}")))?;
    // Reject unknown top-level keys so a misplaced override (say,
    // `evalue` outside `params`) fails loudly instead of being ignored.
    if let Value::Obj(members) = &doc {
        for (key, _) in members {
            if key != "queries" && key != "params" {
                return Err(BodyError(format!(
                    "{key}: unknown top-level key (expected queries, params)"
                )));
            }
        }
    }
    let Some(Value::Arr(entries)) = doc.get("queries") else {
        return Err(BodyError("missing \"queries\" array".to_string()));
    };
    let mut queries = Vec::with_capacity(entries.len());
    for (i, entry) in entries.iter().enumerate() {
        let seq_text = entry
            .get("seq")
            .and_then(Value::as_str)
            .ok_or_else(|| BodyError(format!("queries[{i}]: missing \"seq\" string")))?;
        let seq = DnaSeq::from_ascii(seq_text.as_bytes())
            .map_err(|e| BodyError(format!("queries[{i}].seq: {e}")))?;
        let id = entry
            .get("id")
            .and_then(Value::as_str)
            .map_or_else(|| format!("q{i}"), str::to_string);
        queries.push(ApiQuery { id, seq });
    }

    let mut params = *defaults;
    let mut evalue = false;
    if let Some(overrides) = doc.get("params") {
        let Value::Obj(members) = overrides else {
            return Err(BodyError("\"params\" must be an object".to_string()));
        };
        for (key, value) in members {
            match key.as_str() {
                "candidates" => params.max_candidates = usize_field(value, key)?,
                "max_results" => params.max_results = usize_field(value, key)?,
                "min_score" => {
                    params.min_score = value
                        .as_f64()
                        .filter(|v| v.fract() == 0.0)
                        .map(|v| v as i32)
                        .ok_or_else(|| BodyError(format!("params.{key}: expected integer")))?
                }
                "both_strands" => {
                    params.strand = match value {
                        Value::Bool(true) => Strand::Both,
                        Value::Bool(false) => Strand::Forward,
                        _ => return Err(BodyError(format!("params.{key}: expected bool"))),
                    }
                }
                "evalue" => {
                    evalue = match value {
                        Value::Bool(b) => *b,
                        _ => return Err(BodyError(format!("params.{key}: expected bool"))),
                    }
                }
                "explain" => {
                    params.explain = match value {
                        Value::Bool(b) => *b,
                        _ => return Err(BodyError(format!("params.{key}: expected bool"))),
                    }
                }
                other => {
                    return Err(BodyError(format!(
                        "params.{other}: unknown parameter (expected candidates, \
                         max_results, min_score, both_strands, evalue, explain)"
                    )))
                }
            }
        }
    }
    Ok(SearchRequest {
        queries,
        params,
        evalue,
    })
}

/// Parse a `/insert` body into `(id, sequence)` records.
///
/// Accepts the same two formats as `/search`, sniffed by first byte:
/// FASTA (every record is one insert) or JSON
/// `{"records": [{"id": "r1", "seq": "ACGT..."}, ...]}`.
pub fn parse_insert_body(
    body: &[u8],
    max_records: usize,
) -> Result<Vec<(String, DnaSeq)>, BodyError> {
    let first = body.iter().copied().find(|b| !b.is_ascii_whitespace());
    let records = match first {
        Some(b'>') => {
            let reader = FastaReader::new(Cursor::new(body.to_vec()));
            let mut records = Vec::new();
            for record in reader {
                let record = record.map_err(|e| BodyError(format!("FASTA: {e}")))?;
                records.push((record.id, record.seq));
            }
            records
        }
        Some(b'{') => parse_insert_json(body)?,
        Some(_) => {
            return Err(BodyError(
                "unrecognized body: expected FASTA ('>') or JSON ('{')".to_string(),
            ))
        }
        None => return Err(BodyError("empty body".to_string())),
    };
    if records.is_empty() {
        return Err(BodyError("no records in body".to_string()));
    }
    if records.len() > max_records {
        return Err(BodyError(format!(
            "too many records in one request: {} > {max_records}",
            records.len()
        )));
    }
    Ok(records)
}

fn parse_insert_json(body: &[u8]) -> Result<Vec<(String, DnaSeq)>, BodyError> {
    let text = std::str::from_utf8(body).map_err(|_| BodyError("body is not UTF-8".to_string()))?;
    let doc = nucdb_obs::json::parse(text).map_err(|e| BodyError(format!("JSON: {e}")))?;
    if let Value::Obj(members) = &doc {
        for (key, _) in members {
            if key != "records" {
                return Err(BodyError(format!(
                    "{key}: unknown top-level key (expected records)"
                )));
            }
        }
    }
    let Some(Value::Arr(entries)) = doc.get("records") else {
        return Err(BodyError("missing \"records\" array".to_string()));
    };
    let mut records = Vec::with_capacity(entries.len());
    for (i, entry) in entries.iter().enumerate() {
        let seq_text = entry
            .get("seq")
            .and_then(Value::as_str)
            .ok_or_else(|| BodyError(format!("records[{i}]: missing \"seq\" string")))?;
        let seq = DnaSeq::from_ascii(seq_text.as_bytes())
            .map_err(|e| BodyError(format!("records[{i}].seq: {e}")))?;
        let id = entry
            .get("id")
            .and_then(Value::as_str)
            .map_or_else(|| format!("r{i}"), str::to_string);
        records.push((id, seq));
    }
    Ok(records)
}

fn usize_field(value: &Value, key: &str) -> Result<usize, BodyError> {
    value
        .as_f64()
        .filter(|v| v.fract() == 0.0 && *v >= 0.0)
        .map(|v| v as usize)
        .ok_or_else(|| BodyError(format!("params.{key}: expected non-negative integer")))
}

/// Per-answer significance statistics (computed when `evalue` was
/// requested).
pub struct Significance {
    /// Bit score.
    pub bits: f64,
    /// Expect value.
    pub evalue: f64,
}

/// Render one query's outcome as a JSON object.
pub fn outcome_to_json(
    query: &ApiQuery,
    outcome: &SearchOutcome,
    significance: Option<&[Significance]>,
) -> Value {
    let answers = outcome
        .results
        .iter()
        .enumerate()
        .map(|(rank, result)| {
            let strand = match result.strand {
                Strand::Forward => "+",
                Strand::Reverse => "-",
                Strand::Both => "?",
            };
            let mut members = vec![
                ("rank".to_string(), num(rank as u64 + 1)),
                ("id".to_string(), Value::Str(result.id.clone())),
                ("record".to_string(), num(u64::from(result.record))),
                ("score".to_string(), Value::Num(f64::from(result.score))),
                (
                    "coarse_hits".to_string(),
                    num(u64::from(result.coarse_hits)),
                ),
                ("coarse_score".to_string(), Value::Num(result.coarse_score)),
                ("strand".to_string(), Value::Str(strand.to_string())),
            ];
            if let Some(stats) = significance.and_then(|s| s.get(rank)) {
                members.push(("bits".to_string(), Value::Num(stats.bits)));
                members.push(("evalue".to_string(), Value::Num(stats.evalue)));
            }
            Value::Obj(members)
        })
        .collect();
    let mut members = vec![
        ("query".to_string(), Value::Str(query.id.clone())),
        ("answers".to_string(), Value::Arr(answers)),
        (
            "stats".to_string(),
            Value::Obj(vec![
                ("candidates".to_string(), num(outcome.stats.candidates)),
                (
                    "lists_fetched".to_string(),
                    num(outcome.stats.lists_fetched),
                ),
                (
                    "postings_decoded".to_string(),
                    num(outcome.stats.postings_decoded),
                ),
                ("coarse_ns".to_string(), num(outcome.stats.coarse_nanos)),
                ("fine_ns".to_string(), num(outcome.stats.fine_nanos)),
            ]),
        ),
    ];
    if let Some(plan) = &outcome.explain {
        members.push(("plan".to_string(), plan.to_value()));
    }
    if let Some(report) = &outcome.coverage {
        let failures = report
            .failures
            .iter()
            .map(|failure| {
                Value::Obj(vec![
                    ("shard".to_string(), Value::Str(failure.shard.clone())),
                    ("error".to_string(), Value::Str(failure.error.clone())),
                ])
            })
            .collect();
        members.push((
            "coverage".to_string(),
            Value::Obj(vec![
                (
                    "shards_ok".to_string(),
                    num(report.coverage.shards_ok as u64),
                ),
                (
                    "shards_total".to_string(),
                    num(report.coverage.shards_total as u64),
                ),
                (
                    "fraction".to_string(),
                    Value::Num(report.coverage.fraction()),
                ),
                ("failures".to_string(), Value::Arr(failures)),
            ]),
        ));
    }
    Value::Obj(members)
}

/// Render the whole response document. The request id is echoed as a
/// top-level field (it also rides the `X-Request-Id` header) so clients
/// that only keep bodies can still join answers with server-side traces.
pub fn response_to_json(per_query: Vec<Value>, request_id: &str) -> Value {
    Value::Obj(vec![
        ("request_id".to_string(), Value::Str(request_id.to_string())),
        ("results".to_string(), Value::Arr(per_query)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn defaults() -> SearchParams {
        SearchParams::default()
    }

    #[test]
    fn fasta_body_parses() {
        let body = b">q1\nACGTACGT\nACGT\n>q2\nTTTTGGGG\n";
        let req = parse_search_body(body, &defaults(), 64).unwrap();
        assert_eq!(req.queries.len(), 2);
        assert_eq!(req.queries[0].id, "q1");
        assert_eq!(req.queries[0].seq.len(), 12);
        assert_eq!(req.params, defaults());
        assert!(!req.evalue);
    }

    #[test]
    fn json_body_parses_with_overrides() {
        let body = br#"{
            "queries": [{"id": "a", "seq": "ACGTACGTAA"}, {"seq": "GGCCGGCC"}],
            "params": {"candidates": 5, "max_results": 3, "min_score": 10,
                       "both_strands": true, "evalue": true, "explain": true}
        }"#;
        let req = parse_search_body(body, &defaults(), 64).unwrap();
        assert_eq!(req.queries.len(), 2);
        assert_eq!(req.queries[0].id, "a");
        assert_eq!(req.queries[1].id, "q1"); // positional fallback
        assert_eq!(req.params.max_candidates, 5);
        assert_eq!(req.params.max_results, 3);
        assert_eq!(req.params.min_score, 10);
        assert_eq!(req.params.strand, Strand::Both);
        assert!(req.evalue);
        assert!(req.params.explain);
    }

    #[test]
    fn bad_bodies_are_rejected() {
        let cases: &[&[u8]] = &[
            b"",
            b"   ",
            b"plain text",
            b"{\"queries\": []}",
            b"{\"queries\": [{\"id\": \"x\"}]}",
            b"{\"queries\": [{\"seq\": \"not dna!!\"}]}",
            b"{\"queries\": [{\"seq\": \"ACGT\"}], \"params\": {\"bogus\": 1}}",
            b"{\"queries\": [{\"seq\": \"ACGT\"}], \"params\": {\"candidates\": -1}}",
            b"{\"queries\": [{\"seq\": \"ACGT\"}], \"params\": {\"candidates\": 1.5}}",
            b"{truncated",
            b">onlyheader",
        ];
        for body in cases {
            assert!(
                parse_search_body(body, &defaults(), 64).is_err(),
                "{:?} should fail",
                String::from_utf8_lossy(body)
            );
        }
    }

    #[test]
    fn insert_bodies_parse_in_both_formats() {
        let fasta = b">r1\nACGTACGT\n>r2\nTTTT\n";
        let records = parse_insert_body(fasta, 64).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].0, "r1");
        assert_eq!(records[0].1.len(), 8);

        let json = br#"{"records": [{"id": "a", "seq": "ACGT"}, {"seq": "GGCC"}]}"#;
        let records = parse_insert_body(json, 64).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].0, "a");
        assert_eq!(records[1].0, "r1"); // positional fallback

        for bad in [
            &b""[..],
            b"plain",
            b"{\"records\": []}",
            b"{\"records\": [{\"id\": \"x\"}]}",
            b"{\"queries\": [{\"seq\": \"ACGT\"}]}",
        ] {
            assert!(parse_insert_body(bad, 64).is_err());
        }
        assert!(parse_insert_body(fasta, 1).is_err());
    }

    #[test]
    fn query_cap_is_enforced() {
        let body = b">a\nACGT\n>b\nACGT\n>c\nACGT\n";
        assert!(parse_search_body(body, &defaults(), 2).is_err());
        assert!(parse_search_body(body, &defaults(), 3).is_ok());
    }

    #[test]
    fn outcome_renders_parseable_json() {
        let query = ApiQuery {
            id: "q".to_string(),
            seq: DnaSeq::from_ascii(b"ACGT").unwrap(),
        };
        let outcome = SearchOutcome::default();
        let doc = response_to_json(vec![outcome_to_json(&query, &outcome, None)], "req-0-0");
        let text = doc.render();
        let parsed = nucdb_obs::json::parse(&text).unwrap();
        assert_eq!(parsed, doc);
        assert_eq!(
            parsed.get("request_id").and_then(Value::as_str),
            Some("req-0-0")
        );
    }
}
