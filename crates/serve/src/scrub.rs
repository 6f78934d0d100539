//! Background index/store scrubber.
//!
//! A long-lived server sits on on-disk files that can rot underneath it
//! — a bad sector, a truncating copy, a stray write. `open` checks the
//! CRC of every list and record once, and queries then read the images
//! taken at open, not the disk. The scrubber closes that gap:
//! one low-priority thread continuously re-reads every checksummed
//! section through the file handles `open` kept and re-verifies it, at
//! a bounded I/O rate so it never competes with query traffic. Rot that
//! arrives after open never reaches an answer; the scrubber reports it.
//!
//! The scrubber runs on every shape: each cycle walks the (index, store)
//! pairs of one pinned view ([`nucdb::Collection::parts`]) — a plain
//! database's pair, a live snapshot's segments, a shard set's shards.
//! One **cycle** is, per pair: header + store TOC (the structural
//! skeleton), then every postings list, then every record blob.
//! Completing the first header/TOC pass flips the server's readiness
//! (`GET /readyz`): from that point the structural metadata has been
//! proven readable *through the live handles*, not just at `open()`
//! time. Damage found mid-cycle is counted and remembered but does not
//! stop the scrubber — a single bad list must not hide damage elsewhere.
//!
//! The scrubber runs the counter-free verification walk
//! ([`nucdb_index::CompressedIndex::scrub`], [`nucdb::SequenceStore::scrub`]),
//! so `nucdb_index_bytes_read_total` and friends keep meaning "bytes read
//! *for queries*" even with the scrubber running; scrub I/O is reported
//! separately as `nucdb_scrub_bytes_total`.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use nucdb::Collection;
use nucdb_index::WalkStep;
use nucdb_obs::json::{num, Value};
use nucdb_obs::{Counter, Gauge, MetricsRegistry};

/// How long the scrubber idles between full cycles. Short enough that
/// tests observe multiple cycles quickly; long enough that a tiny
/// database does not spin.
const CYCLE_PAUSE: Duration = Duration::from_millis(200);

/// Granularity of interruptible sleeps: shutdown latency is bounded by
/// this regardless of how far the throttle wants to wait.
const SLEEP_SLICE: Duration = Duration::from_millis(25);

/// Shared scrub state: metric handles plus the readiness flag the
/// `/readyz` endpoint reports. Lives in the server's `Shared` block;
/// the scrubber thread writes, request handlers read.
pub struct ScrubState {
    /// Is a scrubber thread running? (`false` when the I/O budget is 0.)
    pub enabled: bool,
    /// Flips once the first header/TOC pass completes (or immediately
    /// when there is nothing to scrub).
    ready: AtomicBool,
    /// `nucdb_scrub_bytes_total`: bytes re-read and verified.
    pub bytes: Counter,
    /// `nucdb_scrub_errors_total`: checksum/structure failures found.
    pub errors: Counter,
    /// `nucdb_scrub_cycles_total`: completed full cycles.
    pub cycles: Counter,
    /// `nucdb_scrub_last_complete_seconds`: Unix time of the last
    /// completed cycle (0 until the first completes).
    pub last_complete: Gauge,
    /// Mirror of `last_complete` readable without a registry (the gauge
    /// may be a no-op handle when metrics are disabled).
    last_complete_unix: AtomicI64,
    /// Human-readable description of the most recent scrub failure.
    last_error: Mutex<Option<String>>,
}

impl ScrubState {
    /// Register the scrub metric family in `registry`. `enabled` is
    /// whether a scrubber thread will actually run; when it will not,
    /// readiness is immediate (there is no first pass to wait for).
    pub fn new(registry: &MetricsRegistry, enabled: bool) -> ScrubState {
        ScrubState {
            enabled,
            ready: AtomicBool::new(!enabled),
            bytes: registry.counter(
                "nucdb_scrub_bytes_total",
                "Bytes re-read and checksum-verified by the background scrubber",
            ),
            errors: registry.counter(
                "nucdb_scrub_errors_total",
                "Corruption findings (checksum or structure) from the background scrubber",
            ),
            cycles: registry.counter(
                "nucdb_scrub_cycles_total",
                "Completed background scrub cycles over the whole index and store",
            ),
            last_complete: registry.gauge(
                "nucdb_scrub_last_complete_seconds",
                "Unix time when the last background scrub cycle completed",
            ),
            last_complete_unix: AtomicI64::new(0),
            last_error: Mutex::new(None),
        }
    }

    /// Has the first header/TOC pass completed (or was there nothing to
    /// scrub)? This is the `/readyz` signal.
    pub fn is_ready(&self) -> bool {
        self.ready.load(Ordering::SeqCst)
    }

    fn mark_ready(&self) {
        self.ready.store(true, Ordering::SeqCst);
    }

    fn note_error(&self, detail: String) {
        self.errors.inc();
        *self.last_error.lock().unwrap_or_else(|e| e.into_inner()) = Some(detail);
    }

    fn complete_cycle(&self) {
        self.cycles.inc();
        let now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_secs() as i64);
        self.last_complete.set(now);
        self.last_complete_unix.store(now, Ordering::Relaxed);
    }

    /// The `scrub` block of `GET /stats`.
    pub fn to_value(&self) -> Value {
        let last = self.last_complete_unix.load(Ordering::Relaxed);
        let last_error = self
            .last_error
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        Value::Obj(vec![
            ("enabled".to_string(), Value::Bool(self.enabled)),
            ("ready".to_string(), Value::Bool(self.is_ready())),
            ("bytes_verified_total".to_string(), num(self.bytes.get())),
            ("errors_total".to_string(), num(self.errors.get())),
            ("cycles_total".to_string(), num(self.cycles.get())),
            (
                "last_complete_unix_seconds".to_string(),
                if last > 0 {
                    num(last as u64)
                } else {
                    Value::Null
                },
            ),
            (
                "last_error".to_string(),
                last_error.map_or(Value::Null, Value::Str),
            ),
        ])
    }
}

/// Leaky-bucket throttle: once the scrubber has verified a whole
/// [`SLEEP_SLICE`] of budget ahead of wall time, it sleeps until elapsed
/// time covers `consumed / bytes_per_sec`, so the long-run scrub read
/// rate never exceeds the budget. Sleeping only a slice at a time keeps
/// the thread from waking after every small list, thousands of times a
/// second, on the CPUs queries run on. The window resets once a second,
/// when not ahead, so a long stall does not bank an unbounded burst.
pub(crate) struct Throttle {
    bytes_per_sec: u64,
    window_start: Instant,
    consumed: u64,
}

impl Throttle {
    pub(crate) fn new(bytes_per_sec: u64) -> Throttle {
        Throttle {
            bytes_per_sec,
            window_start: Instant::now(),
            consumed: 0,
        }
    }

    /// Account `n` verified bytes and sleep as needed. Returns `true`
    /// when shutdown was requested mid-sleep.
    pub(crate) fn consume(&mut self, n: u64, shutdown: &AtomicBool) -> bool {
        if self.bytes_per_sec == 0 {
            return shutdown.load(Ordering::SeqCst);
        }
        self.consumed = self.consumed.saturating_add(n);
        let target = Duration::from_secs_f64(self.consumed as f64 / self.bytes_per_sec as f64);
        if target.saturating_sub(self.window_start.elapsed()) >= SLEEP_SLICE {
            while self.window_start.elapsed() < target {
                if shutdown.load(Ordering::SeqCst) {
                    return true;
                }
                let remaining = target.saturating_sub(self.window_start.elapsed());
                std::thread::sleep(remaining.min(SLEEP_SLICE));
            }
        }
        let elapsed = self.window_start.elapsed();
        if elapsed >= Duration::from_secs(1) && elapsed >= target {
            self.window_start = Instant::now();
            self.consumed = 0;
        }
        shutdown.load(Ordering::SeqCst)
    }
}

/// Interruptible pause between cycles. Returns `true` on shutdown.
pub(crate) fn pause(total: Duration, shutdown: &AtomicBool) -> bool {
    let start = Instant::now();
    while start.elapsed() < total {
        if shutdown.load(Ordering::SeqCst) {
            return true;
        }
        std::thread::sleep(SLEEP_SLICE);
    }
    shutdown.load(Ordering::SeqCst)
}

/// The scrubber thread body: cycle over header/TOC, then every postings
/// list, then every record, at `bytes_per_sec`, until `shutdown` flips.
/// Each cycle pins a view of `collection` and walks every (index, store)
/// pair it holds open ([`Collection::parts`]), each file through the
/// handle `open` kept: a memtable run has none and walks nothing, and
/// compaction cannot take a pinned segment's file away mid-cycle.
pub fn scrub_loop(
    collection: &Collection,
    state: &ScrubState,
    shutdown: &AtomicBool,
    bytes_per_sec: u64,
) {
    let mut throttle = Throttle::new(bytes_per_sec);
    // Count one walk step's verified bytes or note its error, then spend
    // the step's bytes (at least `len`) of the budget; stop on shutdown.
    let mut account = |outcome: Result<u64, String>, len: u64| {
        let spent = match outcome {
            Ok(n) => {
                state.bytes.add(n);
                n.max(len)
            }
            Err(e) => {
                state.note_error(e);
                len
            }
        };
        if throttle.consume(spent, shutdown) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    };
    let down = || shutdown.load(Ordering::SeqCst);
    loop {
        let view = collection.pinned();
        // `shard-001 index list 3: …`; a plain database's pair is unnamed.
        let parts: Vec<_> = (view.parts().into_iter())
            .map(|(label, index, store)| {
                (format!("{label} ").trim_start().to_string(), index, store)
            })
            .collect();
        // The structural pass — each walk's first step proves the header
        // or TOC readable through the live handle — declares the server
        // ready; the payload pass then verifies every postings list and
        // every record blob (each walk re-reads its header uncounted).
        for payload in [false, true] {
            for (at, index, store) in &parts {
                index.scrub(|step, outcome| match step {
                    WalkStep::Header if payload => ControlFlow::Continue(()),
                    WalkStep::Header => {
                        let _ = account(outcome.map_err(|e| format!("{at}index header: {e}")), 0);
                        ControlFlow::Break(())
                    }
                    WalkStep::Item(i) => account(
                        outcome.map_err(|e| format!("{at}index list {i}: {e}")),
                        u64::from(index.vocab()[i].len),
                    ),
                });
                if down() {
                    return;
                }
                store.scrub(|step, outcome| match step {
                    WalkStep::Header if payload => ControlFlow::Continue(()),
                    WalkStep::Header => {
                        let _ = account(outcome.map_err(|e| format!("{at}store toc: {e}")), 0);
                        ControlFlow::Break(())
                    }
                    WalkStep::Item(r) => account(
                        outcome.map_err(|e| format!("{at}store record {r}: {e}")),
                        u64::from(store.record_location(r as u32).1),
                    ),
                });
                if down() {
                    return;
                }
            }
            state.mark_ready();
        }

        state.complete_cycle();
        if pause(CYCLE_PAUSE, shutdown) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_scrub_is_ready_immediately() {
        let registry = MetricsRegistry::new();
        let state = ScrubState::new(&registry, false);
        assert!(state.is_ready());
        let rendered = state.to_value().render();
        assert!(rendered.contains("\"enabled\":false"));
        assert!(rendered.contains("\"last_error\":null"));
    }

    #[test]
    fn enabled_scrub_waits_for_first_pass() {
        let registry = MetricsRegistry::new();
        let state = ScrubState::new(&registry, true);
        assert!(!state.is_ready());
        state.mark_ready();
        assert!(state.is_ready());
    }

    #[test]
    fn errors_are_counted_and_remembered() {
        let registry = MetricsRegistry::new();
        let state = ScrubState::new(&registry, true);
        state.note_error("index list 3: checksum mismatch".to_string());
        state.note_error("store record 1: checksum mismatch".to_string());
        assert_eq!(state.errors.get(), 2);
        assert!(state
            .to_value()
            .render()
            .contains("store record 1: checksum mismatch"));
    }

    #[test]
    fn throttle_paces_consumption() {
        let shutdown = AtomicBool::new(false);
        // 1 MiB/s budget, 64 KiB consumed → ~62 ms of pacing.
        let mut throttle = Throttle::new(1 << 20);
        let start = Instant::now();
        assert!(!throttle.consume(64 << 10, &shutdown));
        assert!(start.elapsed() >= Duration::from_millis(40));
    }

    #[test]
    fn throttle_honours_shutdown() {
        let shutdown = AtomicBool::new(true);
        let mut throttle = Throttle::new(1); // 1 byte/s: would sleep forever
        let start = Instant::now();
        assert!(throttle.consume(1 << 20, &shutdown));
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn full_cycle_over_memory_database_completes() {
        use nucdb::{Database, DbConfig};
        use nucdb_seq::random::{CollectionSpec, SyntheticCollection};

        let coll = SyntheticCollection::generate(&CollectionSpec::tiny(3));
        let db = Database::build(
            coll.records.iter().map(|r| (r.id.clone(), r.seq.clone())),
            &DbConfig::default(),
        );
        let registry = MetricsRegistry::new();
        let state = ScrubState::new(&registry, true);
        let shutdown = AtomicBool::new(false);
        let db = Collection::Static(std::sync::Arc::new(db));
        // A database built in memory has no file to walk, so the first
        // cycle completes almost instantly; stop shortly after.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(300));
                shutdown.store(true, Ordering::SeqCst);
            });
            scrub_loop(&db, &state, &shutdown, 1 << 20);
        });
        assert!(state.is_ready());
        assert!(state.cycles.get() >= 1);
        assert_eq!(state.errors.get(), 0);
    }
}
