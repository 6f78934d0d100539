//! # nucdb-obs — observability substrate for the search stack
//!
//! The paper's central claim is about *where time goes*: partitioned
//! (coarse index + fine alignment) evaluation wins because the expensive
//! stage runs on few records. Verifying that — and every subsequent
//! performance claim — needs latency *distributions* per stage, not just
//! per-call means. This crate provides the machinery and nothing else:
//!
//! * [`MetricsRegistry`] — a registry of named metrics. Registration and
//!   snapshotting take an internal lock (cold path); the handles it hands
//!   out ([`Counter`], [`Gauge`], [`Histogram`]) touch only atomics, so
//!   the hot path — including the server's concurrent workers sharing
//!   one database — is lock-free and allocation-free.
//! * [`Histogram`] — log-bucketed (power-of-two exponent with 16 linear
//!   sub-buckets, HDR-style) value recorder with ≤ 6.25 % relative bucket
//!   width, built for nanosecond latencies but usable for any `u64`.
//! * [`Snapshot`] — a point-in-time copy of every registered metric, with
//!   [`Snapshot::delta`] for interval accounting and percentile
//!   extraction (p50/p90/p99/max) from histogram snapshots.
//! * Exposition in two formats: Prometheus text ([`Snapshot::to_prometheus`])
//!   and JSON ([`Snapshot::to_json`]).
//! * Query capture: [`SpanNode`]/[`QueryTrace`] span trees attaching
//!   work counters to every timed stage, and one capture handle,
//!   [`Forensics`]: [`FlightRecorder`] rings of the last N query traces,
//!   a 1-in-K stride and tail sampling that always captures slow or
//!   failed queries, all writing one JSONL [`CaptureLog`]. Offline
//!   aggregation ([`profile::aggregate`]) backs `nucdb profile`.
//!
//! ## Cost model
//!
//! A registry is either *enabled* or *disabled* ([`MetricsRegistry::disabled`]).
//! Handles from a disabled registry hold no storage at all: every record
//! call is one branch on an `Option` discriminant and returns — provably
//! free, safe to leave compiled into the hottest path. Handles from an
//! enabled registry cost one relaxed atomic RMW per event (histograms:
//! three — bucket, sum, max).
//!
//! The crate is intentionally dependency-free so every layer of the
//! workspace (index, store, engine, CLI, benches) can use it without
//! weight.

#![warn(missing_docs)]

pub mod flight;
pub mod hist;
pub mod json;
pub mod profile;
pub mod registry;
pub mod span;
mod trace;

pub use flight::{
    CaptureReason, FlightEntry, FlightRecorder, Forensics, ForensicsConfig, QueryCapture,
};
pub use hist::{bucket_bounds, bucket_index, Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use profile::{aggregate, ProfileReport, QuerySummary, StageAgg};
pub use registry::{
    Counter, Gauge, MetricKind, MetricSnapshot, MetricsRegistry, Snapshot, ValueSnapshot,
};
pub use span::{QueryTrace, SpanNode};
pub use trace::CaptureLog;
