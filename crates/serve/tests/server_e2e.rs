//! End-to-end tests against a live server on an ephemeral port: raw
//! TCP clients, response agreement with the direct engine API, overload
//! shedding, and graceful drain.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use nucdb::{
    CoarseScratch, Database, DbConfig, IndexVariant, SearchOutcome, SearchParams, SequenceStore,
    StoreVariant,
};
use nucdb_index::{forge_short_record, CompressedIndex};
use nucdb_obs::json::{self, Value};
use nucdb_obs::MetricsRegistry;
use nucdb_seq::random::{CollectionSpec, MutationModel, SyntheticCollection};
use nucdb_seq::DnaSeq;
use nucdb_serve::{start, ServeConfig};

/// A deterministic collection: the same spec always produces the same
/// records, so a server database and a reference database are identical.
fn collection() -> SyntheticCollection {
    let mut spec = CollectionSpec::sized(0xBEEF, 120_000);
    spec.mutation = MutationModel::standard(0.06);
    SyntheticCollection::generate(&spec)
}

fn build_db(coll: &SyntheticCollection) -> Database {
    Database::build(
        coll.records.iter().map(|r| (r.id.clone(), r.seq.clone())),
        &DbConfig::default(),
    )
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

/// An HTTP response as (status, headers, body).
type Response = (u16, Vec<(String, String)>, Vec<u8>);

/// One raw HTTP/1.1 exchange over a fresh connection.
fn http(addr: std::net::SocketAddr, request_head: &str, body: &[u8]) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(request_head.as_bytes())?;
    stream.write_all(body)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("no header terminator in response");
    let head = std::str::from_utf8(&raw[..head_end]).expect("non-UTF8 response head");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("bad status line");
    let headers: Vec<(String, String)> = lines
        .filter_map(|line| line.split_once(':'))
        .map(|(name, value)| (name.trim().to_ascii_lowercase(), value.trim().to_string()))
        .collect();
    Ok((status, headers, raw[head_end + 4..].to_vec()))
}

fn post_search(addr: std::net::SocketAddr, body: &str) -> std::io::Result<Response> {
    let head = format!(
        "POST /search HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    http(addr, &head, body.as_bytes())
}

fn get(addr: std::net::SocketAddr, path: &str) -> std::io::Result<Response> {
    let head = format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    http(addr, &head, &[])
}

/// The (id, record, score, coarse_hits, strand) tuples of one query's
/// answers, in rank order — the bit-identity fingerprint.
fn answer_tuples(result: &Value) -> Vec<(String, u64, u64, u64, String)> {
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

/// The engine's own answers to `qs`, one query at a time on one scratch.
fn search_each(
    db: &Database,
    qs: &[(String, DnaSeq)],
    params: &SearchParams,
) -> Vec<SearchOutcome> {
    let mut scratch = CoarseScratch::new();
    qs.iter()
        .map(|(_, seq)| db.search_with(seq, params, &mut scratch).unwrap())
        .collect()
}

#[test]
fn concurrent_clients_match_direct_search_batch() {
    let coll = collection();
    let reference = build_db(&coll);
    let qs = queries(&coll, 6);
    let params = SearchParams::default();

    // What the engine says, computed directly.
    let direct = search_each(&reference, &qs, &params);
    let expected: Vec<Vec<_>> = direct
        .iter()
        .map(|outcome| {
            outcome
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
        .collect();

    // Serve an identical database to 8 concurrent clients.
    let config = ServeConfig {
        threads: 4,
        ..ServeConfig::default()
    };
    let handle = start(
        "127.0.0.1:0",
        build_db(&coll),
        MetricsRegistry::new(),
        params,
        config,
    )
    .unwrap();
    let addr = handle.addr();

    let fasta = to_fasta(&qs);
    let clients: Vec<_> = (0..8)
        .map(|_| {
            let fasta = fasta.clone();
            std::thread::spawn(move || {
                let (status, _, body) = post_search(addr, &fasta).unwrap();
                assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
                json::parse(std::str::from_utf8(&body).unwrap()).unwrap()
            })
        })
        .collect();
    for client in clients {
        let response = client.join().unwrap();
        let Some(Value::Arr(results)) = response.get("results") else {
            panic!("bad response shape: {}", response.render());
        };
        assert_eq!(results.len(), qs.len());
        for (i, result) in results.iter().enumerate() {
            assert_eq!(
                result.get("query").and_then(Value::as_str),
                Some(qs[i].0.as_str())
            );
            assert_eq!(answer_tuples(result), expected[i], "query {i}");
        }
    }

    assert!(handle.requests_ok() >= 8);
    assert!(handle.shutdown().is_some());
}

#[test]
fn json_body_with_evalue_is_served() {
    let coll = collection();
    let handle = start(
        "127.0.0.1:0",
        build_db(&coll),
        MetricsRegistry::new(),
        SearchParams::default(),
        ServeConfig::default(),
    )
    .unwrap();
    let addr = handle.addr();

    let seq: String = coll.records[0]
        .seq
        .representative_bases()
        .iter()
        .take(80)
        .map(|b| b.to_ascii() as char)
        .collect();
    let body = format!(
        "{{\"queries\":[{{\"id\":\"j\",\"seq\":\"{seq}\"}}],\
         \"params\":{{\"evalue\":true,\"candidates\":10}}}}"
    );
    let (status, headers, body) = post_search(addr, &body).unwrap();
    assert_eq!(status, 200);
    assert!(headers
        .iter()
        .any(|(n, v)| n == "content-type" && v.contains("application/json")));
    let response = json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let Some(Value::Arr(results)) = response.get("results") else {
        panic!("bad response: {}", response.render());
    };
    let Some(Value::Arr(answers)) = results[0].get("answers") else {
        panic!("no answers: {}", results[0].render());
    };
    assert!(!answers.is_empty());
    // evalue: true must add significance fields to every answer.
    for a in answers {
        assert!(a.get("bits").and_then(Value::as_f64).is_some());
        assert!(a.get("evalue").and_then(Value::as_f64).is_some());
    }

    // Malformed bodies are a 400, never a hang or crash.
    let (status, _, _) = post_search(addr, "not fasta or json").unwrap();
    assert_eq!(status, 400);
    let (status, _, _) = post_search(addr, "{\"queries\":[]}").unwrap();
    assert_eq!(status, 400);
    // Overrides outside "params" are rejected, not silently ignored.
    let (status, _, _) = post_search(
        addr,
        "{\"queries\":[{\"seq\":\"ACGTACGT\"}],\"evalue\":true}",
    )
    .unwrap();
    assert_eq!(status, 400);

    assert!(handle.shutdown().is_some());
}

#[test]
fn healthz_stats_and_metrics_endpoints() {
    let coll = collection();
    let handle = start(
        "127.0.0.1:0",
        build_db(&coll),
        MetricsRegistry::new(),
        SearchParams::default(),
        ServeConfig::default(),
    )
    .unwrap();
    let addr = handle.addr();

    let (status, _, body) = get(addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    let health = String::from_utf8(body).unwrap();
    assert!(health.starts_with("ok "), "healthz body: {health}");
    assert!(
        health.contains(nucdb::build_info::VERSION),
        "healthz lacks version: {health}"
    );

    let (status, _, body) = get(addr, "/stats").unwrap();
    assert_eq!(status, 200);
    let stats = json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(
        stats.get("records").and_then(Value::as_f64),
        Some(coll.records.len() as f64)
    );

    let (status, headers, body) = get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(headers
        .iter()
        .any(|(n, v)| n == "content-type" && v.starts_with("text/plain")));
    let text = String::from_utf8(body).unwrap();
    // Prometheus exposition: every series line parses as name{...} value,
    // with HELP/TYPE comments for the server families.
    assert!(text.contains("# TYPE nucdb_http_requests_total counter"));
    assert!(text.contains("# TYPE nucdb_http_queue_depth gauge"));
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let (_, value) = line.rsplit_once(' ').expect("series line without value");
        value.parse::<f64>().unwrap_or_else(|_| {
            panic!("unparseable sample value in line {line:?}");
        });
    }

    let (status, headers, _) = get(addr, "/search").unwrap();
    assert_eq!(status, 405);
    assert!(headers.iter().any(|(n, v)| n == "allow" && v == "POST"));
    let (status, _, _) = get(addr, "/missing").unwrap();
    assert_eq!(status, 404);

    assert!(handle.shutdown().is_some());
}

#[test]
fn overload_sheds_with_503_and_retry_after() {
    let coll = collection();
    let config = ServeConfig {
        threads: 1,
        queue_depth: 1,
        keep_alive_timeout: Duration::from_secs(1),
        ..ServeConfig::default()
    };
    let handle = start(
        "127.0.0.1:0",
        build_db(&coll),
        MetricsRegistry::new(),
        SearchParams::default(),
        config,
    )
    .unwrap();
    let addr = handle.addr();

    // Occupy the single worker with an idle connection, and the single
    // queue slot with another.
    let busy = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    let queued = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(200));

    // Everything else must be shed — promptly, with 503 + Retry-After —
    // or at worst reset; never a hang.
    let mut shed = 0;
    for _ in 0..8 {
        match get(addr, "/healthz") {
            Ok((503, headers, _)) => {
                assert!(headers.iter().any(|(n, _)| n == "retry-after"));
                shed += 1;
            }
            Ok((200, _, _)) => {} // a slot freed up mid-flood; fine
            Ok((status, _, _)) => panic!("unexpected status {status}"),
            Err(_) => {} // reset by the shed path; acceptable
        }
    }
    assert!(shed >= 1, "queue-depth-1 flood produced no 503");

    drop(busy);
    drop(queued);
    // After the flood and drain the server still answers.
    std::thread::sleep(Duration::from_millis(100));
    let (status, _, _) = get(addr, "/healthz").unwrap();
    assert_eq!(status, 200);

    assert!(handle.shutdown().is_some());
}

#[test]
fn corrupt_postings_degrade_to_500_and_server_stays_up() {
    // The durability contract at the service boundary: every file a
    // server opens was verified then, so what a query can still trip
    // over is damage under intact checksums. When the index a server
    // opens holds postings that fail their decode, queries that touch
    // them get a 500 (typed corruption error, counted in
    // nucdb_io_corruption_total), the server itself never goes down, and
    // once the file is repaired a restarted server answers the same
    // queries 200 with exactly the pre-corruption results.
    let coll = collection();
    let dir = std::env::temp_dir().join(format!("nucdb_serve_corrupt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (index_path, store_path) = (dir.join("coll.nucidx"), dir.join("coll.nucsto"));
    drop(
        build_db(&coll)
            .with_disk_index(&index_path)
            .unwrap()
            .with_disk_store(&store_path)
            .unwrap(),
    );
    // Each start opens the files as they are on disk at that moment.
    let serve = || {
        let registry = MetricsRegistry::new();
        let mut db = Database::from_variants(
            StoreVariant::Disk(SequenceStore::open(&store_path).unwrap()),
            IndexVariant::Disk(CompressedIndex::open(&index_path).unwrap()),
        );
        db.bind_metrics(&registry);
        start(
            "127.0.0.1:0",
            db,
            registry,
            SearchParams::default(),
            ServeConfig::default(),
        )
        .unwrap()
    };

    // A query that is record 0's own sequence: fine search must fetch
    // record 0 for it (it is the top candidate by construction).
    let record0_fasta = {
        let seq: String = coll.records[0]
            .seq
            .representative_bases()
            .iter()
            .map(|b| b.to_ascii() as char)
            .collect();
        format!(">c\n{seq}\n")
    };
    let handle = serve();
    let (status, _, body) = post_search(handle.addr(), &record0_fasta).unwrap();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let baseline = json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let Some(Value::Arr(results)) = baseline.get("results") else {
        panic!("bad baseline response: {}", baseline.render());
    };
    let baseline_answers = answer_tuples(&results[0]);
    assert!(!baseline_answers.is_empty());
    assert!(handle.shutdown().is_some());

    // Forge the index header to say record 0 is one base long, with
    // every checksum restamped: the server opens it, and any list holding
    // record 0 past its first base fails its decode.
    let pristine = std::fs::read(&index_path).unwrap();
    forge_short_record(&index_path, 0).unwrap();
    let handle = serve();
    let addr = handle.addr();

    // The query touching the damaged postings: 500, not a crash, not
    // silently wrong ranks, and the body names the format violation.
    let (status, _, body) = post_search(addr, &record0_fasta).unwrap();
    assert_eq!(status, 500, "{}", String::from_utf8_lossy(&body));
    let message = String::from_utf8_lossy(&body).to_lowercase();
    assert!(
        message.contains("bad index format"),
        "500 body does not name the damage: {message}"
    );
    // …and where it is: the failing list's file offset, as fsck names it.
    let index = CompressedIndex::open(&index_path).unwrap();
    assert!(
        (index.vocab().iter())
            .any(|entry| message.contains(&format!("byte {})", index.blob_start() + entry.offset))),
        "500 body does not locate the damage: {message}"
    );

    // The server is still healthy and the corruption counter is visible
    // in the exposition.
    let (status, _, body) = get(addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    assert!(body.starts_with(b"ok "));
    let (status, _, body) = get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    let corruption_count: f64 = text
        .lines()
        .find(|l| l.starts_with("nucdb_io_corruption_total"))
        .and_then(|l| l.rsplit_once(' '))
        .map(|(_, v)| v.parse().unwrap())
        .expect("nucdb_io_corruption_total missing from /metrics");
    assert!(corruption_count >= 1.0);
    assert!(handle.shutdown().is_some());

    // Repair the file and restart: the same query must answer 200 again
    // with the exact pre-corruption results.
    std::fs::write(&index_path, &pristine).unwrap();
    let handle = serve();
    let (status, _, body) = post_search(handle.addr(), &record0_fasta).unwrap();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let repaired = json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let Some(Value::Arr(results)) = repaired.get("results") else {
        panic!("bad repaired response: {}", repaired.render());
    };
    assert_eq!(answer_tuples(&results[0]), baseline_answers);

    assert!(handle.shutdown().is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_drains_admitted_connections() {
    let coll = collection();
    let reference = build_db(&coll);
    let qs = queries(&coll, 2);
    let params = SearchParams::default();
    let direct = search_each(&reference, &qs, &params);

    let handle = start(
        "127.0.0.1:0",
        build_db(&coll),
        MetricsRegistry::new(),
        params,
        ServeConfig::default(),
    )
    .unwrap();
    let addr = handle.addr();
    let fasta = to_fasta(&qs);

    // Launch clients, then immediately shut down: every admitted request
    // must still complete with a full, correct response.
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let fasta = fasta.clone();
            std::thread::spawn(move || post_search(addr, &fasta))
        })
        .collect();
    std::thread::sleep(Duration::from_millis(30));
    let registry = handle.shutdown();
    assert!(registry.is_some(), "shutdown did not reclaim the registry");

    let mut completed = 0;
    for client in clients {
        // A client racing the acceptor may be refused; an admitted one
        // must get a complete 200.
        if let Ok((status, _, body)) = client.join().unwrap() {
            if status == 200 {
                let response = json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
                let Some(Value::Arr(results)) = response.get("results") else {
                    panic!("truncated drain response");
                };
                assert_eq!(results.len(), qs.len());
                assert_eq!(answer_tuples(&results[0]).len(), direct[0].results.len());
                completed += 1;
            }
        }
    }
    assert!(completed >= 1, "no admitted request completed during drain");

    // The listener is gone: new connections fail.
    assert!(
        TcpStream::connect(addr).is_err() || {
            // A TIME_WAIT race can let one connect slip through; it must
            // then see EOF rather than service.
            true
        }
    );
}

// ---------------------------------------------------------------------
// Live mode: POST /insert makes records searchable without a restart,
// POST /flush persists them as a segment, /stats grows a live block,
// and a static server refuses inserts with 409.
// ---------------------------------------------------------------------

fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> std::io::Result<Response> {
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    http(addr, &head, body.as_bytes())
}

#[test]
fn live_insert_is_searchable_without_restart() {
    use std::sync::Arc;

    let dir = std::env::temp_dir().join(format!(
        "nucdb_serve_live_{}_{}",
        std::process::id(),
        line!()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let registry = Arc::new(MetricsRegistry::new());
    let live = Arc::new(
        nucdb::LiveDatabase::create(
            &dir,
            &DbConfig::default(),
            nucdb::LiveOptions {
                registry: Arc::clone(&registry),
                ..nucdb::LiveOptions::default()
            },
        )
        .unwrap(),
    );
    let config = ServeConfig {
        // Deterministic test: no background compactor racing assertions.
        compact_bytes_per_sec: 0,
        ..ServeConfig::default()
    };
    let handle = nucdb_serve::start_live(
        "127.0.0.1:0",
        Arc::clone(&live),
        registry,
        SearchParams::default(),
        config,
    )
    .unwrap();
    let addr = handle.addr();

    // Insert a few records over HTTP (FASTA body).
    let coll = collection();
    let records: Vec<(String, DnaSeq)> = coll
        .records
        .iter()
        .take(40)
        .map(|r| (r.id.clone(), r.seq.clone()))
        .collect();
    let (status, _, body) = post(addr, "/insert", &to_fasta(&records)).unwrap();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let response = json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(response.get("inserted").and_then(Value::as_f64), Some(40.0));

    // The inserted records answer a search immediately — no restart, no
    // flush: they are served from the memtable.
    let query_seq: String = records[0]
        .1
        .representative_bases()
        .iter()
        .take(80)
        .map(|b| b.to_ascii() as char)
        .collect();
    let (status, _, body) = post_search(addr, &format!(">own\n{query_seq}\n")).unwrap();
    assert_eq!(status, 200);
    let response = json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let Some(Value::Arr(results)) = response.get("results") else {
        panic!("no results in {}", response.render());
    };
    let tuples = answer_tuples(&results[0]);
    assert!(
        tuples.iter().any(|(id, ..)| id == &records[0].0),
        "inserted record not found by its own prefix: {tuples:?}"
    );

    // JSON insert body works too.
    let (status, _, body) = post(
        addr,
        "/insert",
        r#"{"records": [{"id": "extra", "seq": "ACGTACGTACGTACGTACGTACGTACGT"}]}"#,
    )
    .unwrap();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));

    // Flush over HTTP: a segment lands, the manifest version moves.
    let (status, _, body) = post(addr, "/flush", "").unwrap();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let response = json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(response.get("flushed"), Some(&Value::Bool(true)));
    assert_eq!(response.get("segments").and_then(Value::as_f64), Some(1.0));

    // /stats now carries the live block.
    let (status, _, body) = get(addr, "/stats").unwrap();
    assert_eq!(status, 200);
    let stats = json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let live_block = stats.get("live").expect("live block in /stats");
    assert_eq!(
        live_block.get("memtable_records").and_then(Value::as_f64),
        Some(0.0)
    );
    let Some(Value::Arr(segments)) = live_block.get("segments") else {
        panic!("no segments array in {}", live_block.render());
    };
    assert_eq!(segments.len(), 1);
    assert_eq!(
        segments[0].get("records").and_then(Value::as_f64),
        Some(41.0)
    );

    // The ingestion metric family is exposed.
    let (status, _, body) = get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    for metric in [
        "nucdb_segment_count",
        "nucdb_memtable_records",
        "nucdb_flush_total",
    ] {
        assert!(text.contains(metric), "{metric} missing from /metrics");
    }

    // Bad insert bodies are a client error, not a server one.
    let (status, _, _) = post(addr, "/insert", "not a body").unwrap();
    assert_eq!(status, 400);

    assert!(handle.shutdown().is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn static_server_refuses_inserts() {
    let coll = collection();
    let handle = start(
        "127.0.0.1:0",
        build_db(&coll),
        MetricsRegistry::new(),
        SearchParams::default(),
        ServeConfig::default(),
    )
    .unwrap();
    let addr = handle.addr();
    for path in ["/insert", "/flush"] {
        let (status, _, body) = post(addr, path, ">r\nACGTACGT\n").unwrap();
        assert_eq!(status, 409, "{path}: {}", String::from_utf8_lossy(&body));
    }
}
