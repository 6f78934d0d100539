//! End-to-end tests for serving a sharded root: bit-identity of the
//! scatter-gather HTTP answer against the joint engine, degraded mode
//! answering 200 with
//! partial coverage (never a 500) when a shard is corrupt, and the
//! request id / flight recorder path a shard set shares with every
//! other shape.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use nucdb::{Database, DbConfig, SearchParams, ShardSet, ShardSetConfig};
use nucdb_obs::json::{self, Value};
use nucdb_obs::{Forensics, ForensicsConfig, MetricsRegistry};
use nucdb_seq::random::{CollectionSpec, MutationModel, SyntheticCollection};
use nucdb_seq::DnaSeq;
use nucdb_serve::{start_sharded, ServeConfig};

fn collection() -> SyntheticCollection {
    let mut spec = CollectionSpec::sized(0xD1CE, 100_000);
    spec.mutation = MutationModel::standard(0.06);
    SyntheticCollection::generate(&spec)
}

fn records(coll: &SyntheticCollection) -> Vec<(String, DnaSeq)> {
    coll.records
        .iter()
        .map(|r| (r.id.clone(), r.seq.clone()))
        .collect()
}

fn queries(coll: &SyntheticCollection, n: usize) -> Vec<(String, DnaSeq)> {
    (0..coll.families.len().min(n))
        .map(|f| {
            let q = coll.query_for_family(f, 0.5, &MutationModel::standard(0.06));
            (format!("q{f}"), q)
        })
        .collect()
}

fn to_fasta(queries: &[(String, DnaSeq)]) -> String {
    let mut out = String::new();
    for (id, seq) in queries {
        out.push('>');
        out.push_str(id);
        out.push('\n');
        out.extend(
            seq.representative_bases()
                .iter()
                .map(|b| b.to_ascii() as char),
        );
        out.push('\n');
    }
    out
}

/// A unique temp directory per test invocation.
fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "nucdb_shard_e2e_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id(),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One raw HTTP/1.1 exchange over a fresh connection: status, response
/// head, body.
fn http(
    addr: std::net::SocketAddr,
    request_head: &str,
    body: &[u8],
) -> std::io::Result<(u16, String, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.write_all(request_head.as_bytes())?;
    stream.write_all(body)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("no header terminator in response");
    let head = std::str::from_utf8(&raw[..head_end]).expect("non-UTF8 response head");
    let status: u16 = head
        .split("\r\n")
        .next()
        .unwrap()
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("bad status line");
    Ok((status, head.to_string(), raw[head_end + 4..].to_vec()))
}

fn post_search(addr: std::net::SocketAddr, body: &str) -> (u16, Vec<u8>) {
    let head = format!(
        "POST /search HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let (status, _, body) = http(addr, &head, body.as_bytes()).unwrap();
    (status, body)
}

fn get(addr: std::net::SocketAddr, path: &str) -> (u16, Vec<u8>) {
    let head = format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    let (status, _, body) = http(addr, &head, &[]).unwrap();
    (status, body)
}

/// The entries of a `/debug/queries` or `/debug/slow` ring.
fn debug_entries(addr: std::net::SocketAddr, path: &str) -> Vec<Value> {
    let (status, body) = get(addr, path);
    assert_eq!(status, 200);
    let doc = json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    match doc.get("queries") {
        Some(Value::Arr(entries)) => entries.clone(),
        _ => panic!("no queries array in {}", doc.render()),
    }
}

/// One answer as (id, record, score, coarse_hits, strand).
type AnswerTuple = (String, u64, u64, u64, String);

/// The (id, record, score, coarse_hits, strand) tuples of one query's
/// answers, in rank order — the bit-identity fingerprint.
fn answer_tuples(result: &Value) -> Vec<AnswerTuple> {
    let Some(Value::Arr(answers)) = result.get("answers") else {
        panic!("no answers array in {}", result.render());
    };
    answers
        .iter()
        .map(|a| {
            (
                a.get("id").and_then(Value::as_str).unwrap().to_string(),
                a.get("record").and_then(Value::as_f64).unwrap() as u64,
                a.get("score").and_then(Value::as_f64).unwrap() as u64,
                a.get("coarse_hits").and_then(Value::as_f64).unwrap() as u64,
                a.get("strand").and_then(Value::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

/// The joint (unsharded) engine's answer tuples for each query.
fn joint_tuples(
    coll: &SyntheticCollection,
    qs: &[(String, DnaSeq)],
    params: &SearchParams,
) -> Vec<Vec<AnswerTuple>> {
    let db = Database::build(records(coll), &DbConfig::default());
    qs.iter()
        .map(|(_, seq)| {
            db.search(seq, params)
                .unwrap()
                .results
                .iter()
                .map(|r| {
                    let strand = match r.strand {
                        nucdb::Strand::Forward => "+",
                        nucdb::Strand::Reverse => "-",
                        nucdb::Strand::Both => "?",
                    };
                    (
                        r.id.clone(),
                        r.record as u64,
                        r.score as u64,
                        r.coarse_hits as u64,
                        strand.to_string(),
                    )
                })
                .collect()
        })
        .collect()
}

/// The `coverage` object of one per-query result document.
fn coverage_of(result: &Value) -> (u64, u64, Vec<String>) {
    let coverage = result.get("coverage").expect("no coverage object");
    let ok = coverage
        .get("shards_ok")
        .and_then(Value::as_f64)
        .expect("no shards_ok") as u64;
    let total = coverage
        .get("shards_total")
        .and_then(Value::as_f64)
        .expect("no shards_total") as u64;
    let Some(Value::Arr(failures)) = coverage.get("failures") else {
        panic!("no failures array");
    };
    let failed = failures
        .iter()
        .map(|f| f.get("shard").and_then(Value::as_str).unwrap().to_string())
        .collect();
    (ok, total, failed)
}

/// Answers over HTTP are bit-identical to the joint build at full
/// coverage, and the per-shard query counters fill.
#[test]
fn sharded_server_is_bit_identical_to_joint_build() {
    let coll = collection();
    let qs = queries(&coll, 4);
    let params = SearchParams::default();
    let expected = joint_tuples(&coll, &qs, &params);

    let root = temp_dir("identity");
    nucdb::build_sharded_root(&root, records(&coll), 3, &DbConfig::default()).unwrap();
    let registry = Arc::new(MetricsRegistry::new());
    let mut set = ShardSet::open_root(&root, ShardSetConfig, &registry).unwrap();
    set.set_forensics(Forensics::new(ForensicsConfig::default()));
    let set = Arc::new(set);

    let handle = start_sharded(
        "127.0.0.1:0",
        Arc::clone(&set),
        registry,
        params,
        ServeConfig::default(),
    )
    .unwrap();
    let addr = handle.addr();

    let fasta = to_fasta(&qs);
    let head = format!(
        "POST /search HTTP/1.1\r\nHost: t\r\nX-Request-Id: shard-e2e-7\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        fasta.len()
    );
    let (status, response_head, body) = http(addr, &head, fasta.as_bytes()).unwrap();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    assert!(
        response_head
            .to_ascii_lowercase()
            .contains("x-request-id: shard-e2e-7"),
        "request id not echoed: {response_head}"
    );
    let response = json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let Some(Value::Arr(results)) = response.get("results") else {
        panic!("bad response shape: {}", response.render());
    };
    assert_eq!(results.len(), qs.len());

    // A shard set has a flight recorder like any other shape: one entry
    // per query, each carrying the id the client was echoed.
    let recent = debug_entries(addr, "/debug/queries");
    assert_eq!(recent.len(), qs.len());
    for entry in &recent {
        assert_eq!(
            entry.get("request_id").and_then(Value::as_str),
            Some("shard-e2e-7")
        );
    }
    assert!(debug_entries(addr, "/debug/slow").is_empty());

    for (i, result) in results.iter().enumerate() {
        assert_eq!(answer_tuples(result), expected[i], "query {i}");
        let (ok, total, failed) = coverage_of(result);
        assert_eq!((ok, total), (3, 3), "query {i} lost coverage");
        assert!(failed.is_empty());
    }

    // An explain plan over a shard set is the driver's one plan: one
    // segment row per shard, with the same answers as without it.
    let body = format!(
        r#"{{"queries":[{{"id":"x","seq":"{}"}}],"params":{{"explain":true}}}}"#,
        to_fasta(&qs[..1]).lines().nth(1).unwrap()
    );
    let (status, body) = post_search(addr, &body);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let response = json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let Some(Value::Arr(explained)) = response.get("results") else {
        panic!("bad response shape: {}", response.render());
    };
    assert_eq!(answer_tuples(&explained[0]), expected[0]);
    let plan = explained[0].get("plan").expect("no plan in the response");
    let Some(Value::Arr(rows)) = plan.get("segments") else {
        panic!("no segment rows in {}", plan.render());
    };
    let names: Vec<&str> = rows
        .iter()
        .filter_map(|row| row.get("segment").and_then(Value::as_str))
        .collect();
    assert_eq!(names, ["shard-000", "shard-001", "shard-002"]);

    // The per-shard metric families are in the exposition: every shard
    // served phases.
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let text = String::from_utf8(metrics).unwrap();
    let counter = |name: &str, shard: &str| -> u64 {
        let needle = format!("{name}{{shard=\"{shard}\"}}");
        text.lines()
            .find(|l| l.starts_with(&needle))
            .unwrap_or_else(|| panic!("{needle} not in /metrics"))
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    for shard in ["shard-000", "shard-001", "shard-002"] {
        assert!(counter("nucdb_shard_queries_total", shard) >= 1);
    }

    handle.shutdown();
}

/// A corrupt shard degrades the answer instead of erroring it: the
/// server answers 200 with `coverage < 1` naming the dead shard, the
/// per-shard error metric is visible, and /stats reports the dead row.
#[test]
fn corrupt_shard_degrades_to_partial_coverage_not_500() {
    let coll = collection();
    let qs = queries(&coll, 3);
    let params = SearchParams::default();

    let root = temp_dir("degraded");
    nucdb::build_sharded_root(&root, records(&coll), 3, &DbConfig::default()).unwrap();
    // Flip the last byte of shard 1's index, inside its last list: open
    // checks every list, so the shard is dead at open, but the SHARDS
    // manifest keeps every other shard's id base.
    let victim = root.join("shard-001").join("index.nucidx");
    let mut bytes = std::fs::read(&victim).unwrap();
    *bytes.last_mut().unwrap() ^= 0x5A;
    std::fs::write(&victim, &bytes).unwrap();

    let registry = Arc::new(MetricsRegistry::new());
    let mut set = ShardSet::open_root(&root, ShardSetConfig, &registry).unwrap();
    set.set_forensics(Forensics::new(ForensicsConfig::default()));
    let set = Arc::new(set);
    let handle = start_sharded(
        "127.0.0.1:0",
        Arc::clone(&set),
        registry,
        params,
        ServeConfig::default(),
    )
    .unwrap();
    let addr = handle.addr();

    // Ready once the scrubber has walked the live shards' headers, and
    // every query answers 200 — degraded, never a 500.
    let start = std::time::Instant::now();
    while !handle.is_ready() {
        assert!(start.elapsed() < Duration::from_secs(10), "never ready");
        std::thread::sleep(Duration::from_millis(10));
    }
    let (status, _) = get(addr, "/readyz");
    assert_eq!(status, 200);
    let (status, body) = post_search(addr, &to_fasta(&qs));
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let response = json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let Some(Value::Arr(results)) = response.get("results") else {
        panic!("bad response shape: {}", response.render());
    };
    assert_eq!(results.len(), qs.len());
    // The degraded answer is the answer of a set over the survivors:
    // same external ids and scores, in order, as a joint build of the
    // records shards 0 and 2 hold.
    let all = records(&coll);
    let n = all.len();
    let survivors: Vec<(String, DnaSeq)> = all[..n / 3]
        .iter()
        .chain(&all[2 * n / 3..])
        .cloned()
        .collect();
    let joint = Database::build(survivors, &DbConfig::default());
    for (result, (_, seq)) in results.iter().zip(&qs) {
        let (ok, total, failed) = coverage_of(result);
        assert_eq!((ok, total), (2, 3));
        assert_eq!(failed, vec!["shard-001".to_string()]);
        let got: Vec<(String, u64)> = answer_tuples(result)
            .into_iter()
            .map(|(id, _, score, _, _)| (id, score))
            .collect();
        let want: Vec<(String, u64)> = joint
            .search(seq, &params)
            .unwrap()
            .results
            .iter()
            .map(|r| (r.id.clone(), r.score as u64))
            .collect();
        assert_eq!(got, want);
    }

    // Every partial answer is filed with the errors, naming the shard.
    let slow = debug_entries(addr, "/debug/slow");
    assert_eq!(slow.len(), qs.len());
    for entry in &slow {
        assert_eq!(entry.get("reason").and_then(Value::as_str), Some("error"));
        let cause = entry.get("error").and_then(Value::as_str).unwrap();
        assert!(cause.contains("2/3 shards (shard-001"), "{cause}");
    }

    // /stats names the dead shard and its manifest-recorded size.
    let (status, stats) = get(addr, "/stats");
    assert_eq!(status, 200);
    let stats = json::parse(std::str::from_utf8(&stats).unwrap()).unwrap();
    let sharded = stats.get("sharded").expect("no sharded block");
    assert_eq!(sharded.get("shards").and_then(Value::as_f64), Some(3.0));
    let Some(Value::Arr(rows)) = sharded.get("rows") else {
        panic!("no shard rows");
    };
    let dead: Vec<&Value> = rows
        .iter()
        .filter(|r| !matches!(r.get("error"), Some(Value::Null) | None))
        .collect();
    assert_eq!(dead.len(), 1);
    assert_eq!(
        dead[0].get("shard").and_then(Value::as_str),
        Some("shard-001")
    );

    // The degraded-query counter moved once per query.
    let (_, metrics) = get(addr, "/metrics");
    let text = String::from_utf8(metrics).unwrap();
    let degraded = text
        .lines()
        .find(|l| l.starts_with("nucdb_shard_degraded_queries_total"))
        .expect("no degraded counter in /metrics")
        .rsplit(' ')
        .next()
        .unwrap()
        .parse::<u64>()
        .unwrap();
    assert!(degraded >= qs.len() as u64);

    handle.shutdown();
}
