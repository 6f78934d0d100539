//! Flight recorder and capture policy: which query traces are kept, in
//! memory and in the capture log.
//!
//! * [`FlightRecorder`] — a fixed-capacity ring of the most recent
//!   completed [`QueryTrace`]s. A writer reserves a slot with one atomic
//!   fetch-add on the cursor and takes only that slot's lock, so
//!   concurrent recorders never serialize against each other (two
//!   writers contend only when they land on the same slot, i.e. one
//!   full capacity apart). Memory is strictly bounded: `capacity`
//!   entries, each a span tree whose size the engine bounds (fine-stage
//!   candidate spans are capped), so a 256-entry ring stays in the
//!   hundreds of kilobytes.
//! * [`Forensics`] — the one capture handle the engine holds: two rings
//!   (all recent queries, and slow/error captures) and the JSONL
//!   [`CaptureLog`], under three policies. The *recent* ring keeps every
//!   query. The *stride* writes every K-th query to the log, which shows
//!   what a typical query looks like. *Tail sampling* always captures a
//!   query slower than the threshold, or ending in error, into the slow
//!   ring and the log: the queries worth debugging are precisely the
//!   ones a 1-in-K stride skips. A query reaches the log at most once, as
//!   one [`FlightEntry`] line.
//!
//! Like the other obs handles, a disabled [`Forensics`] is one `Option`
//! branch on the hot path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::Value;
use crate::registry::Counter;
use crate::span::QueryTrace;
use crate::trace::{recover, CaptureLog};

/// Why a trace was captured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureReason {
    /// Captured only because the flight recorder keeps every recent query.
    Recent,
    /// Total wall time met or exceeded the tail-sampling threshold.
    Slow,
    /// The query ended in error.
    Error,
}

impl CaptureReason {
    /// Stable string form used in JSON dumps and the capture log.
    pub fn as_str(&self) -> &'static str {
        match self {
            CaptureReason::Recent => "recent",
            CaptureReason::Slow => "slow",
            CaptureReason::Error => "error",
        }
    }
}

/// One recorded trace with its capture sequence number and reason.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEntry {
    /// Monotonic capture sequence (per ring).
    pub seq: u64,
    /// Why this entry was captured.
    pub reason: CaptureReason,
    /// The query trace itself.
    pub trace: QueryTrace,
}

impl FlightEntry {
    /// The entry as a JSON object: `seq` and `reason` prepended to the
    /// trace's own fields, flat, so [`QueryTrace::from_value`] (and
    /// therefore `nucdb profile`) parses an entry dump directly.
    pub fn to_value(&self) -> Value {
        let mut members = vec![
            ("seq".to_string(), crate::json::num(self.seq)),
            (
                "reason".to_string(),
                Value::Str(self.reason.as_str().to_string()),
            ),
        ];
        if let Value::Obj(trace_members) = self.trace.to_value() {
            members.extend(trace_members);
        }
        Value::Obj(members)
    }
}

/// Fixed-capacity ring of the most recent [`FlightEntry`]s.
///
/// The write cursor is an atomic; each slot has its own mutex, taken
/// only for the `Option` swap. See the module docs for the contention
/// and memory-bound arguments.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<FlightEntry>>>,
    cursor: AtomicU64,
}

impl FlightRecorder {
    /// A ring holding the last `capacity` entries. A ring of capacity 0
    /// keeps nothing but still numbers what it is offered.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicU64::new(0),
        }
    }

    /// Maximum number of entries retained.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of traces ever recorded (not the number retained).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Record a trace, overwriting the oldest entry once full. Returns
    /// the entry's sequence number.
    pub fn record(&self, trace: QueryTrace, reason: CaptureReason) -> u64 {
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        if self.slots.is_empty() {
            return seq;
        }
        let slot = (seq % self.slots.len() as u64) as usize;
        let mut guard = recover(self.slots[slot].lock());
        // A slow writer that reserved this slot an entire lap ago may
        // arrive after us; keep whichever entry is newer.
        if guard.as_ref().is_none_or(|prev| prev.seq < seq) {
            *guard = Some(FlightEntry { seq, reason, trace });
        }
        seq
    }

    /// The retained entries, newest first.
    pub fn snapshot(&self) -> Vec<FlightEntry> {
        let mut entries: Vec<FlightEntry> = self
            .slots
            .iter()
            .filter_map(|slot| recover(slot.lock()).clone())
            .collect();
        entries.sort_by_key(|entry| std::cmp::Reverse(entry.seq));
        entries
    }
}

/// Configuration for [`Forensics::new`].
#[derive(Debug, Clone)]
pub struct ForensicsConfig {
    /// Capacity of the all-queries ring (`GET /debug/queries`); 0 turns
    /// the ring off.
    pub recent_capacity: usize,
    /// Capacity of the slow/error ring (`GET /debug/slow`).
    pub slow_capacity: usize,
    /// Tail-sampling threshold in nanoseconds: a query whose total wall
    /// time meets or exceeds this is always captured. `u64::MAX`
    /// disables the slow classification (errors are still captured).
    pub slow_threshold_ns: u64,
    /// The log's stride: every `sample_every`-th query, the first
    /// included, is written to the log even when it is fast. 0 logs only
    /// slow and failed queries.
    pub sample_every: u64,
    /// The JSONL capture log (`None` = rings only).
    pub log: Option<CaptureLog>,
    /// Deterministic per-query latency injection in nanoseconds, for
    /// testing the tail sampler (`0` = off). Results are unaffected —
    /// the engine only sleeps.
    pub inject_delay_ns: u64,
}

impl Default for ForensicsConfig {
    fn default() -> ForensicsConfig {
        ForensicsConfig {
            recent_capacity: 256,
            slow_capacity: 64,
            slow_threshold_ns: u64::MAX,
            sample_every: 0,
            log: None,
            inject_delay_ns: 0,
        }
    }
}

/// What the recorder wants from one query, decided before the query runs
/// ([`Forensics::begin`]) and handed back with its trace
/// ([`Forensics::observe`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryCapture {
    /// Build the query's span tree.
    pub spans: bool,
    /// Collect the query's explain plan: tail sampling is armed, and a
    /// slow query is only known to be slow after it finishes, so its
    /// explanation must already exist.
    pub plan: bool,
    /// The query is the stride's: the log takes it even if it is fast.
    pub(crate) stride: bool,
}

struct ForensicsCore {
    recent: FlightRecorder,
    slow: FlightRecorder,
    slow_threshold_ns: u64,
    sample_every: u64,
    /// Queries begun, which the stride counts.
    begun: AtomicU64,
    log: Option<CaptureLog>,
    inject_delay_ns: u64,
}

/// Shared handle to the query capture state. Cloning is cheap; all
/// clones share the rings and the log. The disabled handle holds nothing.
#[derive(Clone, Default)]
pub struct Forensics {
    inner: Option<Arc<ForensicsCore>>,
}

impl Forensics {
    /// An enabled forensics handle with the given configuration.
    pub fn new(config: ForensicsConfig) -> Forensics {
        Forensics {
            inner: Some(Arc::new(ForensicsCore {
                recent: FlightRecorder::new(config.recent_capacity),
                slow: FlightRecorder::new(config.slow_capacity),
                slow_threshold_ns: config.slow_threshold_ns,
                sample_every: config.sample_every,
                begun: AtomicU64::new(0),
                log: config.log,
                inject_delay_ns: config.inject_delay_ns,
            })),
        }
    }

    /// A no-op handle: every call is one branch.
    pub fn disabled() -> Forensics {
        Forensics { inner: None }
    }

    /// Does this handle record anywhere?
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The tail-sampling threshold, if enabled.
    pub fn slow_threshold_ns(&self) -> Option<u64> {
        self.inner.as_ref().map(|core| core.slow_threshold_ns)
    }

    /// Injected per-query latency for tail-sampler tests (0 = off).
    pub fn inject_delay_ns(&self) -> u64 {
        self.inner.as_ref().map_or(0, |core| core.inject_delay_ns)
    }

    /// Capacity of the recent-queries ring (0 when disabled).
    pub fn recent_capacity(&self) -> usize {
        self.inner.as_ref().map_or(0, |core| core.recent.capacity())
    }

    /// Capacity of the slow/error ring (0 when disabled).
    pub fn slow_capacity(&self) -> usize {
        self.inner.as_ref().map_or(0, |core| core.slow.capacity())
    }

    /// Total traces ever recorded to the recent ring, including entries
    /// the ring has since overwritten (0 when disabled). Occupancy is
    /// `min(recent_recorded, recent_capacity)`; the surplus is the
    /// number of captures dropped from the ring.
    pub fn recent_recorded(&self) -> u64 {
        self.inner.as_ref().map_or(0, |core| core.recent.recorded())
    }

    /// Total traces ever recorded to the slow/error ring, including
    /// overwritten entries (0 when disabled).
    pub fn slow_recorded(&self) -> u64 {
        self.inner.as_ref().map_or(0, |core| core.slow.recorded())
    }

    /// Decide what the query about to run should collect, advancing the
    /// log's stride. A disabled handle wants nothing.
    pub fn begin(&self) -> QueryCapture {
        let Some(core) = &self.inner else {
            return QueryCapture::default();
        };
        let stride = core.log.is_some()
            && core.sample_every > 0
            && core.begun.fetch_add(1, Ordering::Relaxed) % core.sample_every == 0;
        let tail = core.slow_threshold_ns < u64::MAX;
        QueryCapture {
            spans: stride || tail || core.recent.capacity() > 0,
            plan: tail,
            stride,
        }
    }

    /// Classify and record a completed query trace, `capture` being what
    /// [`Forensics::begin`] returned for it. Every trace goes to the
    /// recent ring, `Slow` and `Error` traces to the slow ring as well.
    /// The log takes the trace once if it is slow, failed, or the
    /// stride's, under the sequence number of the ring entry it mirrors.
    /// Returns the capture reason (`Recent` when disabled).
    pub fn observe(&self, capture: QueryCapture, trace: QueryTrace) -> CaptureReason {
        let Some(core) = &self.inner else {
            return CaptureReason::Recent;
        };
        let reason = if trace.error.is_some() {
            CaptureReason::Error
        } else if trace.total_ns >= core.slow_threshold_ns {
            CaptureReason::Slow
        } else {
            CaptureReason::Recent
        };
        let tail = reason != CaptureReason::Recent;
        let slow_seq = tail.then(|| core.slow.record(trace.clone(), reason));
        let log = core.log.as_ref().filter(|_| tail || capture.stride);
        let logged = log.map(|_| trace.clone());
        let recent_seq = core.recent.record(trace, reason);
        if let (Some(log), Some(trace)) = (log, logged) {
            let seq = slow_seq.unwrap_or(recent_seq);
            log.append(&FlightEntry { seq, reason, trace }.to_value());
        }
        reason
    }

    /// Retained recent entries, newest first (empty when disabled).
    pub fn recent(&self) -> Vec<FlightEntry> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |core| core.recent.snapshot())
    }

    /// Retained slow/error entries, newest first (empty when disabled).
    pub fn slow(&self) -> Vec<FlightEntry> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |core| core.slow.snapshot())
    }

    /// Flush the capture log.
    pub fn flush(&self) {
        if let Some(log) = self.log() {
            log.flush();
        }
    }

    /// Bind the registry counters the capture log bumps on a dropped
    /// line (`nucdb_trace_dropped_total`) and on a rotation
    /// (`nucdb_trace_rotations_total`). No-op without a log.
    pub fn bind_log_counters(&self, dropped: Counter, rotations: Counter) {
        if let Some(log) = self.log() {
            log.bind(dropped, rotations);
        }
    }

    fn log(&self) -> Option<&CaptureLog> {
        self.inner.as_ref().and_then(|core| core.log.as_ref())
    }
}

impl std::fmt::Debug for Forensics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Forensics")
            .field("enabled", &self.is_enabled())
            .field("recent_capacity", &self.recent_capacity())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanNode;

    fn trace(id: &str, total_ns: u64) -> QueryTrace {
        QueryTrace {
            request_id: id.to_string(),
            total_ns,
            results: 1,
            error: None,
            root: SpanNode::new("query", 0, total_ns),
            plan: None,
        }
    }

    #[test]
    fn ring_keeps_last_n_newest_first() {
        let ring = FlightRecorder::new(4);
        for i in 0..10u64 {
            ring.record(trace(&format!("req-{i}"), i), CaptureReason::Recent);
        }
        let entries = ring.snapshot();
        assert_eq!(entries.len(), 4);
        let ids: Vec<&str> = entries
            .iter()
            .map(|e| e.trace.request_id.as_str())
            .collect();
        assert_eq!(ids, ["req-9", "req-8", "req-7", "req-6"]);
        assert_eq!(ring.recorded(), 10);
    }

    #[test]
    fn concurrent_recording_is_capped_and_loses_nothing_recent() {
        let ring = Arc::new(FlightRecorder::new(8));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let ring = Arc::clone(&ring);
                scope.spawn(move || {
                    for i in 0..100u64 {
                        ring.record(trace(&format!("t{t}-{i}"), i), CaptureReason::Recent);
                    }
                });
            }
        });
        let entries = ring.snapshot();
        assert_eq!(entries.len(), 8);
        assert_eq!(ring.recorded(), 400);
        // The eight retained entries are the eight highest sequence numbers.
        let min_seq = entries.iter().map(|e| e.seq).min().unwrap();
        assert!(min_seq >= 392, "stale entry survived: seq {min_seq}");
    }

    #[test]
    fn tail_sampling_classifies_slow_and_error() {
        let forensics = Forensics::new(ForensicsConfig {
            recent_capacity: 8,
            slow_capacity: 4,
            slow_threshold_ns: 1_000,
            ..ForensicsConfig::default()
        });
        let observe = |trace| forensics.observe(QueryCapture::default(), trace);
        assert_eq!(observe(trace("fast", 10)), CaptureReason::Recent);
        assert_eq!(observe(trace("slow", 5_000)), CaptureReason::Slow);
        let mut failed = trace("bad", 5);
        failed.error = Some("boom".to_string());
        assert_eq!(observe(failed), CaptureReason::Error);

        assert_eq!(forensics.recent().len(), 3);
        let slow = forensics.slow();
        assert_eq!(slow.len(), 2);
        assert_eq!(slow[0].reason, CaptureReason::Error);
        assert_eq!(slow[1].reason, CaptureReason::Slow);
        // Threshold is inclusive: exactly-threshold queries are captured.
        assert_eq!(observe(trace("edge", 1_000)), CaptureReason::Slow);
    }

    #[test]
    fn disabled_forensics_is_inert() {
        let forensics = Forensics::disabled();
        assert!(!forensics.is_enabled());
        assert_eq!(forensics.begin(), QueryCapture::default());
        assert_eq!(
            forensics.observe(QueryCapture::default(), trace("x", 1)),
            CaptureReason::Recent
        );
        assert!(forensics.recent().is_empty());
        assert!(forensics.slow().is_empty());
        assert_eq!(forensics.recent_capacity(), 0);
    }

    #[test]
    fn entry_json_parses_back_as_query_trace() {
        let entry = FlightEntry {
            seq: 41,
            reason: CaptureReason::Slow,
            trace: trace("req-x", 9_999),
        };
        let rendered = entry.to_value().render();
        let value = crate::json::parse(&rendered).unwrap();
        assert_eq!(value.get("reason").and_then(Value::as_str), Some("slow"));
        let parsed = QueryTrace::from_value(&value).unwrap();
        assert_eq!(parsed, entry.trace);
    }

    #[test]
    fn a_tail_capture_line_carries_the_seq_of_its_own_ring_entry() {
        let path = std::env::temp_dir().join(format!("nucdb_seq_{}.jsonl", std::process::id()));
        let forensics = Forensics::new(ForensicsConfig {
            slow_capacity: 2_000,
            slow_threshold_ns: 0,
            log: Some(CaptureLog::create(&path, None).unwrap()),
            ..ForensicsConfig::default()
        });
        std::thread::scope(|scope| {
            for t in 0..4 {
                let forensics = &forensics;
                scope.spawn(move || {
                    for i in 0..500 {
                        let trace = trace(&format!("t{t}-{i}"), 1);
                        forensics.observe(QueryCapture::default(), trace);
                    }
                });
            }
        });
        forensics.flush();
        let ring: std::collections::HashMap<u64, String> = forensics
            .slow()
            .into_iter()
            .map(|entry| (entry.seq, entry.trace.request_id))
            .collect();
        assert_eq!(ring.len(), 2_000, "the ring keeps every entry");
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(text.lines().count(), 2_000);
        for line in text.lines() {
            let line = crate::json::parse(line).unwrap();
            let seq = line.get("seq").and_then(Value::as_f64).unwrap() as u64;
            assert_eq!(
                ring.get(&seq).map(String::as_str),
                line.get("request_id").and_then(Value::as_str),
                "log line {seq} names another entry"
            );
        }
    }
}
