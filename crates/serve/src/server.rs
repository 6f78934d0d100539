//! The server proper: acceptor, bounded admission queue, worker pool,
//! and graceful shutdown.
//!
//! # Threading model
//!
//! One **acceptor** thread blocks in `accept()`. Each accepted
//! connection is stamped and pushed into a [`BoundedQueue`]; when the
//! queue is full the acceptor itself answers `503 + Retry-After` and
//! closes — overload is shed at the door, before any parsing or query
//! work. A fixed pool of **worker** threads pops connections, drops
//! those whose queue wait already exceeded the deadline (a client that
//! has given up is not worth serving), then runs the connection's
//! keep-alive request loop to completion. Workers never spawn threads
//! per connection: concurrency is bounded by `threads + queue_depth`.
//! Every `/search` query runs on its worker's own [`CoarseScratch`]
//! through [`Collection::search_with_id`], whatever the collection's
//! shape.
//!
//! Shutdown: a flag flips, the acceptor is woken by a self-connection
//! and exits, the queue closes (already-admitted connections drain),
//! workers finish and exit, and the capture log is flushed. No request
//! that was admitted is abandoned.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nucdb::{
    build_info, CoarseScratch, Collection, Database, IndexVariant, LiveDatabase, SearchParams,
    ShardSet,
};
use nucdb_align::calibrate_gumbel;
use nucdb_obs::json::{num, Value};
use nucdb_obs::{Counter, FlightEntry, Gauge, MetricsRegistry};

use crate::api::{self, Significance};
use crate::http::{self, Limits, Method, Request, Response};
use crate::metrics::HttpMetrics;
use crate::queue::BoundedQueue;
use crate::scrub::{scrub_loop, ScrubState};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads handling connections.
    pub threads: usize,
    /// Admission queue capacity; connections beyond it are shed with 503.
    pub queue_depth: usize,
    /// Maximum queue wait before a request is dropped at dequeue.
    pub deadline: Duration,
    /// Maximum queries accepted in one `/search` request.
    pub max_queries_per_request: usize,
    /// Idle timeout on a keep-alive connection.
    pub keep_alive_timeout: Duration,
    /// HTTP parsing limits.
    pub limits: Limits,
    /// Background scrubber I/O budget in bytes per second; `0` disables
    /// the scrubber entirely (readiness is then immediate).
    pub scrub_bytes_per_sec: u64,
    /// Background compaction input budget in bytes per second (live mode
    /// only); `0` disables the compaction thread.
    pub compact_bytes_per_sec: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            threads: 4,
            queue_depth: 64,
            deadline: Duration::from_secs(5),
            max_queries_per_request: 256,
            keep_alive_timeout: Duration::from_secs(5),
            limits: Limits::default(),
            scrub_bytes_per_sec: 4 << 20,
            compact_bytes_per_sec: 8 << 20,
        }
    }
}

// ---------------------------------------------------------------------
// Request ids
// ---------------------------------------------------------------------

/// Generate a process-unique request id: a per-process nonce (so ids
/// from different server runs never collide in a shared log) plus a
/// monotonic sequence number.
fn generate_request_id() -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    static NONCE: OnceLock<u32> = OnceLock::new();
    let nonce = *NONCE.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        let mixed = nanos ^ (u64::from(std::process::id()) << 32);
        (mixed as u32) ^ ((mixed >> 32) as u32)
    });
    let seq = COUNTER.fetch_add(1, Ordering::Relaxed);
    format!("req-{nonce:08x}-{seq}")
}

/// A client-supplied `X-Request-Id` is honoured when it is short and
/// printable; anything else is replaced with a generated id (the header
/// lands in logs and trace lines, so it must be safe to echo).
fn sanitize_request_id(raw: &str) -> Option<String> {
    let trimmed = raw.trim();
    let ok =
        !trimmed.is_empty() && trimmed.len() <= 64 && trimmed.chars().all(|c| c.is_ascii_graphic());
    ok.then(|| trimmed.to_string())
}

/// The id for one parsed request: the client's sanitized `X-Request-Id`
/// if it sent one, a generated id otherwise.
fn request_id_for(request: &Request) -> String {
    request
        .header("x-request-id")
        .and_then(sanitize_request_id)
        .unwrap_or_else(generate_request_id)
}

/// Everything the acceptor and workers share.
struct Shared {
    /// What queries are answered from; `/search` pins it per request.
    collection: Collection,
    registry: Arc<MetricsRegistry>,
    metrics: HttpMetrics,
    defaults: SearchParams,
    config: ServeConfig,
    shutdown: AtomicBool,
    started: Instant,
    scrub: ScrubState,
    /// `nucdb_flight_recent_entries`: occupancy of the recent ring,
    /// refreshed at `/metrics` scrape time.
    flight_recent_entries: Gauge,
    /// `nucdb_flight_slow_entries`: occupancy of the slow/error ring.
    flight_slow_entries: Gauge,
    /// `nucdb_flight_dropped_total`: captures evicted from either ring.
    flight_dropped: Counter,
}

/// A running server. Dropping the handle does *not* stop the server;
/// call [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    queue: Arc<BoundedQueue<TcpStream>>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    scrubber: Option<JoinHandle<()>>,
    compactor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The configuration the server is running with.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.config
    }

    /// Queries served so far (the `200` response count).
    pub fn requests_ok(&self) -> u64 {
        self.shared.metrics.requests_for(200)
    }

    /// Has shutdown been requested?
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Is the server ready (`GET /readyz` would answer 200)? True once
    /// the first scrub pass over the header and TOC completes, or
    /// immediately when the scrubber is disabled.
    pub fn is_ready(&self) -> bool {
        self.shared.scrub.is_ready()
    }

    /// Scrub corruption findings so far (the
    /// `nucdb_scrub_errors_total` counter).
    pub fn scrub_errors(&self) -> u64 {
        self.shared.scrub.errors.get()
    }

    /// Graceful shutdown: stop accepting, drain every admitted
    /// connection, join all threads, flush the trace sink. Returns once
    /// the server is fully stopped, handing back the metrics registry
    /// (now quiescent) so the caller can write a final snapshot that
    /// includes the drained tail.
    pub fn shutdown(mut self) -> Option<Arc<MetricsRegistry>> {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // The acceptor blocks in accept(); a throwaway connection wakes
        // it so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Close the queue: workers drain what was admitted, then exit.
        self.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // The scrubber and compactor poll the shutdown flag between
        // units of work and inside every throttle sleep, so these joins
        // are prompt.
        if let Some(scrubber) = self.scrubber.take() {
            let _ = scrubber.join();
        }
        if let Some(compactor) = self.compactor.take() {
            let _ = compactor.join();
        }
        self.shared.collection.forensics().flush();
        // Every thread has been joined, so this handle holds the last
        // strong reference; `None` only if a connection handler leaked.
        Arc::try_unwrap(self.shared)
            .ok()
            .map(|shared| shared.registry)
    }
}

/// Bind `addr` and start serving `db`. The database is moved into the
/// server and shared read-only across all workers (the query path takes
/// `&self`; see the concurrency notes on [`Database`]).
pub fn start(
    addr: impl ToSocketAddrs,
    db: Database,
    registry: MetricsRegistry,
    defaults: SearchParams,
    config: ServeConfig,
) -> std::io::Result<ServerHandle> {
    start_collection(
        addr,
        Collection::Static(Arc::new(db)),
        Arc::new(registry),
        defaults,
        config,
    )
}

/// Bind `addr` and serve a [`LiveDatabase`]: `POST /insert` and
/// `POST /flush` become available, every query snapshots the current
/// segmented view, and a background compaction thread merges small
/// segments at a bounded I/O rate
/// ([`ServeConfig::compact_bytes_per_sec`]). The registry must be the
/// one the live database was opened with (its [`nucdb::LiveOptions`]),
/// so ingestion and query metrics land in one exposition.
pub fn start_live(
    addr: impl ToSocketAddrs,
    live: Arc<LiveDatabase>,
    registry: Arc<MetricsRegistry>,
    defaults: SearchParams,
    config: ServeConfig,
) -> std::io::Result<ServerHandle> {
    start_collection(addr, Collection::Live(live), registry, defaults, config)
}

/// Bind `addr` and serve a [`ShardSet`]: every `/search` query scatters
/// across the set's per-shard worker pool and gathers one globally
/// merged answer, bit-identical to a joint build at full coverage. Each
/// per-query response document carries a `coverage` object; when shards
/// fail (at open or at query time) the server answers with partial
/// results and `coverage < 1` instead of a 500 — only a query *no*
/// shard could answer errors. The registry must be the one the shard
/// set was assembled with, so the per-shard `nucdb_shard_*` families
/// land in this server's `/metrics` exposition. The scrubber is
/// skipped (`nucdb fsck` audits sharded roots offline), so readiness is
/// immediate. Request ids, `/debug/*`, and the flight
/// gauges work as for any other shape: configure the recorder with
/// [`ShardSet::set_forensics`] before sharing the set.
pub fn start_sharded(
    addr: impl ToSocketAddrs,
    shards: Arc<ShardSet>,
    registry: Arc<MetricsRegistry>,
    defaults: SearchParams,
    config: ServeConfig,
) -> std::io::Result<ServerHandle> {
    start_collection(
        addr,
        Collection::Sharded(shards),
        registry,
        defaults,
        config,
    )
}

/// Bind `addr` and serve a [`Collection`] of any shape; [`start`],
/// [`start_live`], and [`start_sharded`] are this with the shape spelled
/// out. The registry must be the one the collection was opened with.
pub fn start_collection(
    addr: impl ToSocketAddrs,
    collection: Collection,
    registry: Arc<MetricsRegistry>,
    defaults: SearchParams,
    config: ServeConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let metrics = HttpMetrics::new(&registry);
    build_info::register(&registry);
    // The scrubber walks one fixed pair of on-disk files; a live
    // database's segment set changes underneath it, so live mode skips
    // it (per-segment checksums still verify on every query read).
    let scrub_target = collection
        .as_static()
        .filter(|_| config.scrub_bytes_per_sec > 0)
        .cloned();
    let scrub = ScrubState::new(&registry, scrub_target.is_some());
    let flight_recent_entries = registry.gauge(
        "nucdb_flight_recent_entries",
        "Entries currently retained in the flight recorder's recent ring",
    );
    let flight_slow_entries = registry.gauge(
        "nucdb_flight_slow_entries",
        "Entries currently retained in the flight recorder's slow/error ring",
    );
    let flight_dropped = registry.counter(
        "nucdb_flight_dropped_total",
        "Flight-recorder captures evicted from the recent or slow ring",
    );
    let shared = Arc::new(Shared {
        collection,
        registry,
        metrics,
        defaults,
        config,
        shutdown: AtomicBool::new(false),
        started: Instant::now(),
        scrub,
        flight_recent_entries,
        flight_slow_entries,
        flight_dropped,
    });
    let queue = Arc::new(BoundedQueue::new(shared.config.queue_depth));

    let acceptor = {
        let shared = Arc::clone(&shared);
        let queue = Arc::clone(&queue);
        std::thread::Builder::new()
            .name("nucdb-accept".to_string())
            .spawn(move || accept_loop(&shared, &listener, &queue))?
    };
    let workers = (0..shared.config.threads.max(1))
        .map(|i| {
            let shared = Arc::clone(&shared);
            let queue = Arc::clone(&queue);
            std::thread::Builder::new()
                .name(format!("nucdb-worker-{i}"))
                .spawn(move || worker_loop(&shared, &queue))
        })
        .collect::<std::io::Result<Vec<_>>>()?;
    let scrubber = match scrub_target {
        Some(db) => {
            let shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("nucdb-scrub".to_string())
                    .spawn(move || {
                        scrub_loop(
                            &db,
                            &shared.scrub,
                            &shared.shutdown,
                            shared.config.scrub_bytes_per_sec,
                        );
                    })?,
            )
        }
        None => None,
    };
    let compactor = match (
        shared.collection.as_live(),
        shared.config.compact_bytes_per_sec,
    ) {
        (Some(live), budget) if budget > 0 => {
            let live = Arc::clone(live);
            let shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("nucdb-compact".to_string())
                    .spawn(move || compact_loop(&live, &shared.shutdown, budget))?,
            )
        }
        _ => None,
    };

    Ok(ServerHandle {
        addr,
        shared,
        queue,
        acceptor: Some(acceptor),
        workers,
        scrubber,
        compactor,
    })
}

/// How long the compactor idles when the size-tiered policy finds no
/// candidate pair. Short enough that a burst of flushes is merged
/// promptly; long enough that an idle server does not spin.
const COMPACT_PAUSE: Duration = Duration::from_millis(200);

/// The background compaction thread body: repeatedly ask the live
/// database for one size-tiered merge, pacing by *input bytes read*
/// through the same leaky-bucket throttle the scrubber uses, so
/// compaction I/O never exceeds `bytes_per_sec` in the long run. Errors
/// are remembered by the status endpoint's counters staying flat; the
/// thread itself backs off and retries — one failed merge (say, a
/// transient I/O error) must not end background maintenance for good.
fn compact_loop(live: &LiveDatabase, shutdown: &AtomicBool, bytes_per_sec: u64) {
    let mut throttle = crate::scrub::Throttle::new(bytes_per_sec);
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match live.compact_once() {
            Ok(Some(run)) => {
                if throttle.consume(run.input_bytes, shutdown) {
                    return;
                }
            }
            Ok(None) | Err(_) => {
                if crate::scrub::pause(COMPACT_PAUSE, shutdown) {
                    return;
                }
            }
        }
    }
}

fn accept_loop(shared: &Shared, listener: &TcpListener, queue: &Arc<BoundedQueue<TcpStream>>) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match conn {
            Ok(stream) => stream,
            Err(_) => continue,
        };
        shared.metrics.connections.inc();
        match queue.push(stream) {
            Ok(()) => shared.metrics.queue_depth.set(queue.len() as i64),
            Err((_, stream)) => shed(shared, stream),
        }
    }
}

/// Refuse one connection with `503 + Retry-After`.
fn shed(shared: &Shared, mut stream: TcpStream) {
    shared.metrics.shed.inc();
    // Drain what the client already sent before responding: closing a
    // socket with unread received data sends RST, which can discard the
    // 503 sitting in the send buffer before the client reads it.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut sink = [0u8; 4096];
    let _ = stream.read(&mut sink);
    let response = Response::new(503, "Service Unavailable")
        .header("Retry-After", "1")
        .header("X-Request-Id", generate_request_id())
        .text("admission queue full; retry later\n");
    let _ = response.write_to(&mut stream, false);
    shared.metrics.record_response(503, 0);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.read(&mut sink);
}

fn worker_loop(shared: &Shared, queue: &Arc<BoundedQueue<TcpStream>>) {
    let mut scratch = CoarseScratch::new();
    while let Some((admitted, mut stream)) = queue.pop() {
        shared.metrics.queue_depth.set(queue.len() as i64);
        let waited = admitted.elapsed();
        if waited > shared.config.deadline {
            // The client has likely timed out already; answering with
            // real work would be wasted. Tell it to retry instead.
            shared.metrics.expired.inc();
            let response = Response::new(503, "Service Unavailable")
                .header("Retry-After", "1")
                .header("X-Request-Id", generate_request_id())
                .text("request expired in admission queue\n");
            let _ = response.write_to(&mut stream, false);
            shared
                .metrics
                .record_response(503, waited.as_nanos() as u64);
            continue;
        }
        handle_connection(shared, stream, admitted, &mut scratch);
    }
}

fn handle_connection(
    shared: &Shared,
    stream: TcpStream,
    admitted: Instant,
    scratch: &mut CoarseScratch,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.keep_alive_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = std::io::BufReader::new(read_half);
    let mut writer = stream;
    let mut first = true;
    loop {
        let request = match http::read_request(&mut reader, &shared.config.limits) {
            Ok(Some(request)) => request,
            Ok(None) => return, // clean keep-alive end
            Err(error) => {
                if let Some((status, reason)) = error.status() {
                    // Even a request too malformed to parse gets an id:
                    // the client can still quote it at the operator.
                    let response = Response::new(status, reason)
                        .header("X-Request-Id", generate_request_id())
                        .text(format!("{}\n", error.detail()));
                    let _ = response.write_to(&mut writer, false);
                    shared.metrics.record_response(status, 0);
                }
                return; // parse errors always end the connection
            }
        };
        // The first request's latency includes its queue wait; later
        // keep-alive requests are timed from arrival.
        let start = if first { admitted } else { Instant::now() };
        first = false;
        let request_id = request_id_for(&request);
        let response =
            route(shared, &request, &request_id, scratch).header("X-Request-Id", request_id);
        let keep = request.keep_alive && !shared.shutdown.load(Ordering::SeqCst);
        let status = response.status;
        if response.write_to(&mut writer, keep).is_err() {
            return;
        }
        shared
            .metrics
            .record_response(status, start.elapsed().as_nanos() as u64);
        if !keep {
            return;
        }
    }
}

fn route(
    shared: &Shared,
    request: &Request,
    request_id: &str,
    scratch: &mut CoarseScratch,
) -> Response {
    match (request.method, request.path.as_str()) {
        (Method::Get, "/healthz") => Response::ok().text(format!("ok {}\n", build_info::human())),
        (Method::Get, "/readyz") => {
            // Liveness (`/healthz`) says "the process answers"; readiness
            // additionally requires the first scrub pass to have proven
            // the index header and store TOC readable through the live
            // file handles.
            if shared.scrub.is_ready() {
                Response::ok().text("ready\n")
            } else {
                Response::new(503, "Service Unavailable")
                    .header("Retry-After", "1")
                    .text("not ready: awaiting first scrub pass over header and TOC\n")
            }
        }
        (Method::Get, "/metrics") => {
            update_flight_gauges(shared);
            let mut response = Response::ok().header("Content-Type", "text/plain; version=0.0.4");
            response.body = shared.registry.snapshot().to_prometheus().into_bytes();
            response
        }
        (Method::Get, "/stats") => Response::ok().json(stats_json(shared).render()),
        (Method::Get, "/debug/queries") => {
            let forensics = shared.collection.forensics();
            Response::ok()
                .json(debug_json(forensics.recent(), forensics.recent_capacity()).render())
        }
        (Method::Get, "/debug/slow") => {
            let forensics = shared.collection.forensics();
            Response::ok().json(debug_json(forensics.slow(), forensics.slow_capacity()).render())
        }
        (Method::Post, "/search") => search_endpoint(shared, request, request_id, scratch),
        (Method::Post, "/insert") => insert_endpoint(shared, request, request_id),
        (Method::Post, "/flush") => flush_endpoint(shared, request_id),
        (Method::Get, "/search" | "/insert" | "/flush") => Response::new(405, "Method Not Allowed")
            .header("Allow", "POST")
            .text("use POST\n"),
        (
            Method::Post,
            "/healthz" | "/readyz" | "/metrics" | "/stats" | "/debug/queries" | "/debug/slow",
        ) => Response::new(405, "Method Not Allowed")
            .header("Allow", "GET")
            .text("use GET\n"),
        _ => Response::new(404, "Not Found").text("unknown path\n"),
    }
}

/// `POST /insert`: add records to a live database's memtable. The
/// records are searchable as soon as the 200 comes back; durability
/// arrives with the next flush (automatic once the memtable fills, or
/// explicit via `POST /flush`).
fn insert_endpoint(shared: &Shared, request: &Request, request_id: &str) -> Response {
    let Some(live) = shared.collection.as_live() else {
        return Response::new(409, "Conflict")
            .text("server is not in live mode; restart with --live to accept inserts\n");
    };
    let records = match api::parse_insert_body(&request.body, shared.config.max_queries_per_request)
    {
        Ok(records) => records,
        Err(error) => {
            return Response::new(400, "Bad Request")
                .text(format!("{error} (request {request_id})\n"));
        }
    };
    match live.insert_batch(records) {
        Ok(outcome) => Response::ok().json(
            Value::Obj(vec![
                ("request_id".to_string(), Value::Str(request_id.to_string())),
                ("inserted".to_string(), num(outcome.inserted as u64)),
                (
                    "memtable_records".to_string(),
                    num(u64::from(outcome.memtable_records)),
                ),
                ("flushed".to_string(), Value::Bool(outcome.flushed)),
            ])
            .render(),
        ),
        Err(error) => Response::new(500, "Internal Server Error")
            .text(format!("{error} (request {request_id})\n")),
    }
}

/// `POST /flush`: persist a live database's memtable as an on-disk
/// segment and swap in a manifest naming it. Idempotent: flushing an
/// empty memtable answers `"flushed": false`.
fn flush_endpoint(shared: &Shared, request_id: &str) -> Response {
    let Some(live) = shared.collection.as_live() else {
        return Response::new(409, "Conflict")
            .text("server is not in live mode; restart with --live to flush\n");
    };
    match live.flush() {
        Ok(flushed) => {
            let status = live.status();
            Response::ok().json(
                Value::Obj(vec![
                    ("request_id".to_string(), Value::Str(request_id.to_string())),
                    ("flushed".to_string(), Value::Bool(flushed)),
                    ("manifest_version".to_string(), num(status.manifest_version)),
                    ("segments".to_string(), num(status.segments.len() as u64)),
                ])
                .render(),
            )
        }
        Err(error) => Response::new(500, "Internal Server Error")
            .text(format!("{error} (request {request_id})\n")),
    }
}

/// Render one flight-recorder ring as the `/debug/*` response document.
fn debug_json(entries: Vec<FlightEntry>, capacity: usize) -> Value {
    Value::Obj(vec![
        ("capacity".to_string(), num(capacity as u64)),
        ("count".to_string(), num(entries.len() as u64)),
        (
            "queries".to_string(),
            Value::Arr(entries.iter().map(FlightEntry::to_value).collect()),
        ),
    ])
}

/// Refresh the flight-recorder occupancy gauges and eviction counter
/// from the rings' cursors. Called at `/metrics` scrape time: the rings
/// have no registry hooks of their own, and scrape-time refresh keeps
/// the query path free of extra atomics.
fn update_flight_gauges(shared: &Shared) {
    let forensics = shared.collection.forensics();
    let recent_recorded = forensics.recent_recorded();
    let slow_recorded = forensics.slow_recorded();
    let recent_capacity = forensics.recent_capacity() as u64;
    let slow_capacity = forensics.slow_capacity() as u64;
    shared
        .flight_recent_entries
        .set(recent_recorded.min(recent_capacity) as i64);
    shared
        .flight_slow_entries
        .set(slow_recorded.min(slow_capacity) as i64);
    let dropped = recent_recorded.saturating_sub(recent_capacity)
        + slow_recorded.saturating_sub(slow_capacity);
    let counted = shared.flight_dropped.get();
    if dropped > counted {
        shared.flight_dropped.add(dropped - counted);
    }
}

/// `GET /stats`: one document for every shape. The `live`,
/// `index_stats`, and `sharded` blocks describe what only one shape has
/// and are `null` for the others.
fn stats_json(shared: &Shared) -> Value {
    let view = shared.collection.pinned();
    let forensics = view.forensics();
    Value::Obj(vec![
        ("records".to_string(), num(view.len() as u64)),
        ("total_bases".to_string(), num(view.total_bases())),
        (
            "uptime_seconds".to_string(),
            Value::Num(shared.started.elapsed().as_secs_f64()),
        ),
        ("build_info".to_string(), build_info::as_json()),
        (
            "forensics".to_string(),
            Value::Obj(vec![
                ("enabled".to_string(), Value::Bool(forensics.is_enabled())),
                (
                    "recent_capacity".to_string(),
                    num(forensics.recent_capacity() as u64),
                ),
                (
                    "slow_capacity".to_string(),
                    num(forensics.slow_capacity() as u64),
                ),
                (
                    "slow_threshold_ns".to_string(),
                    match forensics.slow_threshold_ns() {
                        Some(ns) if ns < u64::MAX => num(ns),
                        _ => Value::Null,
                    },
                ),
            ]),
        ),
        ("scrub".to_string(), shared.scrub.to_value()),
        (
            "live".to_string(),
            shared.collection.as_live().map_or(Value::Null, live_json),
        ),
        (
            // Shape and file layout of the loaded index (`null` for a
            // segmented live view, whose `live` block above describes
            // the segments instead). Computed per request from the
            // vocabulary; no disk I/O.
            "index_stats".to_string(),
            match view.as_static().map(|db| db.index()) {
                Some(IndexVariant::Disk(index)) => {
                    nucdb::IndexStatReport::from_disk(index).to_value()
                }
                _ => Value::Null,
            },
        ),
        (
            "sharded".to_string(),
            view.as_sharded().map_or(Value::Null, sharded_json),
        ),
        ("metrics".to_string(), shared.registry.snapshot().to_json()),
    ])
}

/// The `sharded` block of `GET /stats`: one row per shard (name, record
/// base, liveness).
fn sharded_json(set: &Arc<ShardSet>) -> Value {
    let rows = set
        .shard_rows()
        .into_iter()
        .map(|(name, base, records, error)| {
            Value::Obj(vec![
                ("shard".to_string(), Value::Str(name)),
                ("record_base".to_string(), num(u64::from(base))),
                ("records".to_string(), num(u64::from(records))),
                ("error".to_string(), error.map_or(Value::Null, Value::Str)),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("shards".to_string(), num(set.num_shards() as u64)),
        ("rows".to_string(), Value::Arr(rows)),
    ])
}

/// The `live` block of `GET /stats`: segment list, memtable occupancy,
/// and flush/compaction work counters.
fn live_json(live: &Arc<LiveDatabase>) -> Value {
    let status = live.status();
    let segments = status
        .segments
        .iter()
        .map(|seg| {
            Value::Obj(vec![
                ("id".to_string(), num(seg.id)),
                ("records".to_string(), num(u64::from(seg.records))),
                ("index_bytes".to_string(), num(seg.index_bytes)),
                ("store_bytes".to_string(), num(seg.store_bytes)),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("manifest_version".to_string(), num(status.manifest_version)),
        ("segments".to_string(), Value::Arr(segments)),
        (
            "memtable_records".to_string(),
            num(u64::from(status.memtable_records)),
        ),
        (
            "memtable_runs".to_string(),
            num(status.memtable_runs as u64),
        ),
        ("flushes".to_string(), num(status.flushes)),
        (
            "compaction".to_string(),
            Value::Obj(vec![
                ("runs".to_string(), num(status.compaction_runs)),
                ("input_bytes".to_string(), num(status.compaction_bytes)),
                (
                    "seconds".to_string(),
                    Value::Num(status.compaction_nanos as f64 / 1e9),
                ),
            ]),
        ),
        (
            "orphans_removed_at_open".to_string(),
            num(status.orphans_removed),
        ),
    ])
}

fn search_endpoint(
    shared: &Shared,
    request: &Request,
    request_id: &str,
    scratch: &mut CoarseScratch,
) -> Response {
    let parsed = api::parse_search_body(
        &request.body,
        &shared.defaults,
        shared.config.max_queries_per_request,
    );
    let search = match parsed {
        Ok(search) => search,
        Err(error) => {
            return Response::new(400, "Bad Request")
                .text(format!("{error} (request {request_id})\n"));
        }
    };
    // One view for the whole request: every query, the calibration
    // inputs, and the target lengths see the same record-id space, so
    // live-mode inserts are reflected immediately and never mid-request.
    let view = shared.collection.pinned();
    // A parameter this collection cannot honour (`explain` over a shard
    // set) is the client's error, not a failed query.
    if let Err(error) = view.supports(&search.params) {
        return Response::new(400, "Bad Request").text(format!("{error} (request {request_id})\n"));
    }
    // Degraded shard coverage still answers 200 — the per-query
    // `coverage` object tells the client how complete its answer is;
    // only a query *no* shard could answer becomes a 500.
    let outcomes: Result<Vec<_>, _> = search
        .queries
        .iter()
        .map(|query| view.search_with_id(&query.seq, &search.params, scratch, Some(request_id)))
        .collect();
    let outcomes = match outcomes {
        Ok(outcomes) => outcomes,
        Err(error) => {
            return Response::new(500, "Internal Server Error")
                .text(format!("{error} (request {request_id})\n"));
        }
    };
    // Mean record length for Gumbel calibration (matches the CLI; dead
    // shards count via the manifest's records, so e-values agree with
    // the joint build at full coverage). Summing the collection is
    // O(records): only when e-values were asked for.
    let mean_len = search
        .evalue
        .then(|| (view.total_bases() as usize / view.len().max(1)).max(1));
    let per_query = search
        .queries
        .iter()
        .zip(&outcomes)
        .map(|(query, outcome)| {
            let significance = mean_len.map(|mean_len| {
                // Same calibration the CLI `search --evalue` uses, so
                // server answers match offline answers exactly.
                let fit = calibrate_gumbel(
                    &search.params.scheme,
                    query.seq.len().max(16),
                    mean_len,
                    48,
                    0xCAFE,
                );
                outcome
                    .results
                    .iter()
                    .map(|result| Significance {
                        bits: fit.bit_score(result.score),
                        evalue: fit.evalue(
                            query.seq.len(),
                            view.record_len(result.record),
                            result.score,
                        ),
                    })
                    .collect::<Vec<_>>()
            });
            api::outcome_to_json(query, outcome, significance.as_deref())
        })
        .collect();
    Response::ok().json(api::response_to_json(per_query, request_id).render())
}

// ---------------------------------------------------------------------
// Termination signal flag
// ---------------------------------------------------------------------

/// Process-wide "please stop" flag, set by SIGINT/SIGTERM.
static TERMINATED: AtomicBool = AtomicBool::new(false);

/// Install SIGINT/SIGTERM handlers that flip the termination flag (a
/// no-op off Unix). Async-signal-safe: the handler only stores to an
/// atomic. Call once before the serve loop.
pub fn install_termination_flag() {
    #[cfg(unix)]
    {
        type Handler = extern "C" fn(i32);
        extern "C" {
            // std already links libc on every Unix target, so this is a
            // plain declaration, not a new dependency.
            fn signal(signum: i32, handler: Handler) -> isize;
        }
        extern "C" fn on_signal(_signum: i32) {
            TERMINATED.store(true, Ordering::SeqCst);
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

/// Has a termination signal been received (or requested in-process)?
pub fn termination_requested() -> bool {
    TERMINATED.load(Ordering::SeqCst)
}

/// Flip the termination flag from within the process (tests, embedders).
pub fn request_termination() {
    TERMINATED.store(true, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    // Shareability is what the whole design rests on: one Database,
    // many worker threads, queries through `&self`.
    #[test]
    fn database_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Database>();
        assert_send_sync::<Shared>();
    }

    #[test]
    fn termination_flag_round_trips() {
        install_termination_flag();
        assert!(!termination_requested() || TERMINATED.load(Ordering::SeqCst));
        request_termination();
        assert!(termination_requested());
        TERMINATED.store(false, Ordering::SeqCst);
    }
}
