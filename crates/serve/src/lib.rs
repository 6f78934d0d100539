//! `nucdb-serve`: a zero-dependency HTTP/1.1 query server.
//!
//! The paper's partitioned-search engine answers queries in
//! milliseconds, which makes the *process model* the next bottleneck:
//! loading the index per invocation (CLI style) costs more than the
//! query itself. This crate keeps one [`nucdb::Database`] resident and
//! serves it over plain `std::net` TCP — no async runtime, no HTTP
//! library — with the three properties a long-lived query daemon needs:
//!
//! * **Admission control** ([`queue`]): a bounded queue between the
//!   acceptor and a fixed worker pool. Overload is answered instantly
//!   with `503 + Retry-After` instead of growing latency without bound,
//!   and requests that out-waited their deadline are dropped at dequeue.
//! * **One query path** ([`server`]): each worker answers its requests'
//!   queries itself, on its own reusable coarse-search scratch, through
//!   the same driver the CLI uses — for a plain, live, or sharded
//!   collection alike.
//! * **Graceful shutdown**: SIGTERM/ctrl-c stops the acceptor, drains
//!   every admitted connection, flushes the trace sink, and exits
//!   cleanly.
//!
//! A background **scrubber** thread ([`scrub`]) continuously re-reads
//! and checksum-verifies the on-disk index and store at a bounded I/O
//! rate, so cold-region corruption surfaces in metrics
//! (`nucdb_scrub_errors_total`) instead of waiting for an unlucky
//! query. `GET /readyz` answers 503 until the first scrub pass over the
//! structural metadata (header + TOC) completes.
//!
//! Endpoints: `POST /search` (FASTA or JSON body → ranked answers as
//! JSON; `"explain": true` attaches the evaluation plan), `GET /metrics`
//! (Prometheus text), `GET /healthz`, `GET /readyz`,
//! `GET /stats`, and — when a flight recorder is attached to the
//! database — `GET /debug/queries` / `GET /debug/slow` (recent and
//! tail-sampled query traces). Every response carries an
//! `X-Request-Id` header (client-supplied ids are echoed when sane);
//! the same id is stamped on the query's spans, trace lines, and
//! flight-recorder entries. Results are bit-identical to the offline
//! CLI `search` command — same engine, same parameters, same
//! calibration.

#![warn(missing_docs)]

pub mod api;
pub mod http;
pub mod metrics;
pub mod queue;
pub mod scrub;
pub mod server;

pub use api::{parse_insert_body, parse_search_body, SearchRequest};
pub use http::{Limits, Method, ParseError, Request, Response};
pub use metrics::HttpMetrics;
pub use queue::{BoundedQueue, PushError};
pub use scrub::ScrubState;
pub use server::{
    install_termination_flag, request_termination, start, start_collection, start_live,
    start_sharded, termination_requested, ServeConfig, ServerHandle,
};
