//! End-to-end tests for the background scrubber and readiness gate:
//! `/readyz` flips only after the first structural scrub pass, injected
//! on-disk corruption bumps `nucdb_scrub_errors_total`, search answers
//! are bit-identical with the scrubber on and off, and the
//! flight-recorder occupancy gauges appear on `/metrics`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use nucdb::{Database, DbConfig, IndexVariant, SearchParams, SequenceStore, StoreVariant};
use nucdb_index::CompressedIndex;
use nucdb_obs::json::{self, Value};
use nucdb_obs::{Forensics, ForensicsConfig, MetricsRegistry};
use nucdb_seq::random::{CollectionSpec, MutationModel, SyntheticCollection};
use nucdb_serve::{start, ServeConfig, ServerHandle};

static DIR_NONCE: AtomicU64 = AtomicU64::new(0);

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "nucdb_scrub_e2e_{name}_{}_{}",
        std::process::id(),
        DIR_NONCE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn collection() -> SyntheticCollection {
    let mut spec = CollectionSpec::sized(0xD15C, 60_000);
    spec.mutation = MutationModel::standard(0.06);
    SyntheticCollection::generate(&spec)
}

/// Persist `coll` as an on-disk index + store pair in `dir`.
fn persist(coll: &SyntheticCollection, dir: &Path) -> (PathBuf, PathBuf) {
    let idx = dir.join("idx.nucidx");
    let sto = dir.join("sto.nucsto");
    let db = Database::build(
        coll.records.iter().map(|r| (r.id.clone(), r.seq.clone())),
        &DbConfig::default(),
    );
    let db = db.with_disk_index(&idx).unwrap();
    let _ = db.with_disk_store(&sto).unwrap();
    (idx, sto)
}

fn open_disk_db(idx: &Path, sto: &Path) -> Database {
    Database::from_variants(
        StoreVariant::Disk(SequenceStore::open(sto).unwrap()),
        IndexVariant::Disk(CompressedIndex::open(idx).unwrap()),
    )
}

fn start_server(db: Database, scrub_bytes_per_sec: u64) -> ServerHandle {
    let config = ServeConfig {
        threads: 2,
        scrub_bytes_per_sec,
        ..ServeConfig::default()
    };
    start(
        "127.0.0.1:0",
        db,
        MetricsRegistry::new(),
        SearchParams::default(),
        config,
    )
    .unwrap()
}

/// One raw HTTP/1.1 exchange. Returns (status, body).
fn http(
    addr: std::net::SocketAddr,
    request_head: &str,
    body: &[u8],
) -> std::io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(request_head.as_bytes())?;
    stream.write_all(body)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("no header terminator");
    let head = std::str::from_utf8(&raw[..head_end]).expect("non-UTF8 head");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("bad status line");
    Ok((status, raw[head_end + 4..].to_vec()))
}

fn get(addr: std::net::SocketAddr, path: &str) -> (u16, Vec<u8>) {
    let head = format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    http(addr, &head, &[]).unwrap()
}

fn post_search(addr: std::net::SocketAddr, body: &str) -> (u16, Vec<u8>) {
    let head = format!(
        "POST /search HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    http(addr, &head, body.as_bytes()).unwrap()
}

fn wait_until(what: &str, timeout: Duration, mut check: impl FnMut() -> bool) {
    let start = Instant::now();
    while start.elapsed() < timeout {
        if check() {
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("timed out after {timeout:?} waiting for {what}");
}

#[test]
fn readyz_gates_on_the_first_structural_scrub_pass() {
    let coll = collection();
    let dir = temp_dir("readyz");
    let (idx, sto) = persist(&coll, &dir);

    // A 1-byte/sec budget makes the header pass take hours: the server
    // must report not-ready for as long as we care to look.
    let starved = start_server(open_disk_db(&idx, &sto), 1);
    assert!(!starved.is_ready());
    let (status, body) = get(starved.addr(), "/readyz");
    assert_eq!(status, 503, "starved scrubber must hold /readyz at 503");
    assert!(std::str::from_utf8(&body).unwrap().contains("not ready"));
    // But liveness stays green throughout.
    assert_eq!(get(starved.addr(), "/healthz").0, 200);
    starved.shutdown();

    // A realistic budget completes the header/TOC pass almost at once.
    let healthy = start_server(open_disk_db(&idx, &sto), 64 << 20);
    wait_until("readyz to flip", Duration::from_secs(10), || {
        healthy.is_ready()
    });
    assert_eq!(get(healthy.addr(), "/readyz").0, 200);
    healthy.shutdown();

    // Scrubber disabled: nothing to wait for, ready immediately.
    let unscrubbed = start_server(open_disk_db(&idx, &sto), 0);
    assert!(unscrubbed.is_ready());
    assert_eq!(get(unscrubbed.addr(), "/readyz").0, 200);
    unscrubbed.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scrub_finds_corruption_the_query_path_has_not_touched() {
    let coll = collection();
    let dir = temp_dir("corrupt");
    let (idx, sto) = persist(&coll, &dir);

    // Damage one payload byte on disk, far from the header so open()
    // still succeeds — exactly the cold-region rot the scrubber exists
    // to find.
    let blob_start = CompressedIndex::open(&idx).unwrap().blob_start();
    let mut bytes = std::fs::read(&idx).unwrap();
    let victim = blob_start as usize + (bytes.len() - blob_start as usize) / 2;
    bytes[victim] ^= 0x40;
    std::fs::write(&idx, &bytes).unwrap();

    let handle = start_server(open_disk_db(&idx, &sto), 256 << 20);
    wait_until(
        "scrubber to find the flipped byte",
        Duration::from_secs(30),
        || handle.scrub_errors() > 0,
    );

    // The finding is visible on /metrics and in /stats' scrub block.
    let (status, body) = get(handle.addr(), "/metrics");
    assert_eq!(status, 200);
    let text = std::str::from_utf8(&body).unwrap();
    let errors_line = text
        .lines()
        .find(|l| l.starts_with("nucdb_scrub_errors_total"))
        .expect("nucdb_scrub_errors_total missing from /metrics");
    let count: f64 = errors_line
        .split_whitespace()
        .last()
        .unwrap()
        .parse()
        .unwrap();
    assert!(count >= 1.0, "bad errors line: {errors_line}");
    assert!(text.contains("nucdb_scrub_bytes_total"));

    let (_, body) = get(handle.addr(), "/stats");
    let stats = json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let scrub = stats.get("scrub").expect("no scrub block in /stats");
    assert_eq!(scrub.get("enabled"), Some(&Value::Bool(true)));
    let last_error = scrub.get("last_error").expect("no last_error field");
    assert!(
        matches!(last_error, Value::Str(s) if s.contains("index")),
        "unhelpful last_error: {}",
        last_error.render()
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn answers_are_bit_identical_with_the_scrubber_running() {
    let coll = collection();
    let dir = temp_dir("identity");
    let (idx, sto) = persist(&coll, &dir);

    let with_scrub = start_server(open_disk_db(&idx, &sto), 64 << 20);
    let without = start_server(open_disk_db(&idx, &sto), 0);
    wait_until("first scrub cycle", Duration::from_secs(10), || {
        with_scrub.is_ready()
    });

    for family in 0..coll.families.len().min(4) {
        let query = coll.query_for_family(family, 0.5, &MutationModel::standard(0.06));
        let fasta: String = format!(
            ">q{family}\n{}\n",
            query
                .representative_bases()
                .iter()
                .map(|b| b.to_ascii() as char)
                .collect::<String>()
        );
        let (status_a, body_a) = post_search(with_scrub.addr(), &fasta);
        let (status_b, body_b) = post_search(without.addr(), &fasta);
        assert_eq!((status_a, status_b), (200, 200));
        // Per-query stats carry wall times, which legitimately differ
        // between servers; the ranked answers must not.
        let results = |body: &[u8]| -> Vec<String> {
            let doc = json::parse(std::str::from_utf8(body).unwrap()).unwrap();
            let Some(Value::Arr(per_query)) = doc.get("results") else {
                panic!("no results array in {}", doc.render());
            };
            per_query
                .iter()
                .map(|q| q.get("answers").expect("no answers array").render())
                .collect()
        };
        assert_eq!(
            results(&body_a),
            results(&body_b),
            "family {family}: scrubber changed an answer"
        );
    }
    with_scrub.shutdown();
    without.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_exposes_index_stats_and_metrics_expose_flight_occupancy() {
    let coll = collection();
    let dir = temp_dir("gauges");
    let (idx, sto) = persist(&coll, &dir);
    let mut db = open_disk_db(&idx, &sto);
    db.set_forensics(Forensics::new(ForensicsConfig {
        recent_capacity: 4,
        slow_capacity: 2,
        ..ForensicsConfig::default()
    }));
    let handle = start_server(db, 64 << 20);

    // /stats carries the on-disk index shape.
    let (_, body) = get(handle.addr(), "/stats");
    let stats = json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let index_stats = stats.get("index_stats").expect("no index_stats block");
    assert_eq!(
        index_stats.get("format").and_then(Value::as_str),
        Some("NUCIDX03")
    );
    assert!(index_stats.get("distinct_intervals").is_some());

    // Six searches through a capacity-4 recent ring: occupancy pins at
    // 4 and the eviction counter records the overflow.
    let query = coll.query_for_family(0, 0.5, &MutationModel::standard(0.06));
    let fasta = format!(
        ">q\n{}\n",
        query
            .representative_bases()
            .iter()
            .map(|b| b.to_ascii() as char)
            .collect::<String>()
    );
    for _ in 0..6 {
        assert_eq!(post_search(handle.addr(), &fasta).0, 200);
    }
    let (_, body) = get(handle.addr(), "/metrics");
    let text = std::str::from_utf8(&body).unwrap();
    let metric = |name: &str| -> f64 {
        text.lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .unwrap_or_else(|| panic!("{name} missing from /metrics:\n{text}"))
            .split_whitespace()
            .last()
            .unwrap()
            .parse()
            .unwrap()
    };
    assert_eq!(metric("nucdb_flight_recent_entries"), 4.0);
    assert_eq!(metric("nucdb_flight_slow_entries"), 0.0);
    assert_eq!(metric("nucdb_flight_dropped_total"), 2.0);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
