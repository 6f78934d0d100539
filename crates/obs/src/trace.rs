//! The capture log's writer: one JSONL file the flight recorder
//! ([`Forensics`](crate::Forensics)) appends captured queries to.
//!
//! Only the handle, [`CaptureLog`], leaves the crate: callers create one
//! and hand it over in [`ForensicsConfig::log`](crate::ForensicsConfig).
//! Writing never fails a query. A line that cannot be written is dropped
//! and counted, a lock poisoned by a panicking writer is recovered, and
//! an optional byte cap rotates the file so a long-running process
//! cannot grow it without bound.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::Value;
use crate::registry::Counter;

/// Recover a possibly-poisoned lock: a panic on another capturing thread
/// must not cascade into every later query. The guarded state is a byte
/// stream, a counter or a ring slot, each safe to keep using after an
/// interrupted writer (worst case: one torn line in a diagnostic log, or
/// a stale ring entry).
pub(crate) fn recover<T>(result: std::sync::LockResult<T>) -> T {
    result.unwrap_or_else(|poison| poison.into_inner())
}

/// A local count plus a late-bindable registry counter, so events are
/// observable before any registry is attached and binding never
/// undercounts.
#[derive(Default)]
struct Tally {
    count: AtomicU64,
    counter: Mutex<Counter>,
}

impl Tally {
    fn inc(&self) {
        self.count.fetch_add(1, Ordering::Relaxed);
        recover(self.counter.lock()).inc();
    }

    fn get(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Route later events to `counter`, carrying over the ones so far.
    fn bind(&self, counter: Counter) {
        counter.add(self.get().saturating_sub(counter.get()));
        *recover(self.counter.lock()) = counter;
    }
}

/// The open log file. With a `rotation` of `(path, max_bytes)`, a file
/// that has reached the cap at the end of a line is renamed to
/// `<path>.1`, replacing any earlier one, and a fresh file is started at
/// `path`: no line is split across files, and disk usage stays within
/// roughly `2 × max_bytes` plus one line.
struct LogFile {
    writer: Box<dyn Write + Send>,
    rotation: Option<(PathBuf, u64)>,
    /// Bytes written to the current file.
    written: u64,
}

/// The `<path>.1` sibling a rotation renames the full file to.
fn rotated_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".1");
    PathBuf::from(name)
}

impl LogFile {
    /// Write one whole line; `Ok(true)` when the file rotated after it.
    fn append(&mut self, line: &[u8]) -> io::Result<bool> {
        self.writer.write_all(line)?;
        self.written += line.len() as u64;
        match &self.rotation {
            Some((path, max_bytes)) if self.written >= *max_bytes => {
                self.writer.flush()?;
                std::fs::rename(path, rotated_path(path))?;
                self.writer = Box::new(io::BufWriter::new(std::fs::File::create(path)?));
                self.written = 0;
                Ok(true)
            }
            _ => Ok(false),
        }
    }
}

struct LogCore {
    file: Mutex<LogFile>,
    /// Lines lost to write or flush errors (`nucdb_trace_dropped_total`
    /// once bound).
    dropped: Tally,
    /// Size-cap rotations (`nucdb_trace_rotations_total` once bound).
    rotations: Tally,
}

/// Handle to the JSONL capture log. Cloning is cheap; every clone
/// appends to the same file.
#[derive(Clone)]
pub struct CaptureLog {
    core: Arc<LogCore>,
}

impl CaptureLog {
    /// Create (or truncate) the log at `path`. With `max_bytes`, a file
    /// that reaches the cap is renamed to `<path>.1` at a line boundary,
    /// replacing any earlier one, and a fresh file is started.
    pub fn create(path: &Path, max_bytes: Option<u64>) -> io::Result<CaptureLog> {
        let file = io::BufWriter::new(std::fs::File::create(path)?);
        let rotation = max_bytes.map(|max_bytes| (path.to_path_buf(), max_bytes.max(1)));
        Ok(CaptureLog::with_writer(Box::new(file), rotation))
    }

    fn with_writer(writer: Box<dyn Write + Send>, rotation: Option<(PathBuf, u64)>) -> CaptureLog {
        let file = LogFile {
            writer,
            rotation,
            written: 0,
        };
        CaptureLog {
            core: Arc::new(LogCore {
                file: Mutex::new(file),
                dropped: Tally::default(),
                rotations: Tally::default(),
            }),
        }
    }

    /// A log over any writer, so tests can inject failing ones.
    #[cfg(test)]
    pub(crate) fn to_writer(writer: Box<dyn Write + Send>) -> CaptureLog {
        CaptureLog::with_writer(writer, None)
    }

    /// Append `value` as one JSONL line. A write error drops the line
    /// and counts it instead of failing the query.
    pub(crate) fn append(&self, value: &Value) {
        let mut line = value.render();
        line.push('\n');
        match recover(self.core.file.lock()).append(line.as_bytes()) {
            Ok(false) => {}
            Ok(true) => self.core.rotations.inc(),
            Err(_) => self.core.dropped.inc(),
        }
    }

    /// Flush the writer. A flush error counts as a drop.
    pub(crate) fn flush(&self) {
        if recover(self.core.file.lock()).writer.flush().is_err() {
            self.core.dropped.inc();
        }
    }

    /// Bind the registry counters bumped on a dropped line and on a
    /// rotation; what happened before binding carries over.
    pub(crate) fn bind(&self, dropped: Counter, rotations: Counter) {
        self.core.dropped.bind(dropped);
        self.core.rotations.bind(rotations);
    }
}

impl std::fmt::Debug for CaptureLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CaptureLog")
            .field("dropped", &self.core.dropped.get())
            .field("rotations", &self.core.rotations.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::{CaptureReason, Forensics, ForensicsConfig};
    use crate::span::QueryTrace;

    /// A writer that appends into a shared buffer we can inspect later.
    #[derive(Clone)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn shared_sink() -> (CaptureLog, Arc<Mutex<Vec<u8>>>) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let log = CaptureLog::to_writer(Box::new(SharedBuf(Arc::clone(&buf))));
        (log, buf)
    }

    fn text(buf: &Arc<Mutex<Vec<u8>>>) -> String {
        String::from_utf8(buf.lock().unwrap().clone()).unwrap()
    }

    fn line(key: &str, n: u64) -> Value {
        Value::Obj(vec![(key.to_string(), crate::json::num(n))])
    }

    fn trace(total_ns: u64) -> QueryTrace {
        QueryTrace {
            request_id: format!("q{total_ns}"),
            total_ns,
            ..QueryTrace::default()
        }
    }

    #[test]
    fn disabled_sink_is_inert() {
        // A recorder without a log never takes the stride, and its flush
        // touches no writer.
        let forensics = Forensics::new(ForensicsConfig {
            sample_every: 1,
            ..ForensicsConfig::default()
        });
        for i in 0..3 {
            let capture = forensics.begin();
            assert!(!capture.stride);
            forensics.observe(capture, trace(i));
        }
        forensics.flush();
        assert_eq!(forensics.recent().len(), 3);
    }

    #[test]
    fn events_are_one_json_object_per_line() {
        let (log, buf) = shared_sink();
        for i in 0..3u64 {
            log.append(&Value::Obj(vec![
                ("seq".to_string(), crate::json::num(i)),
                ("family".to_string(), Value::Str("alu".to_string())),
                ("nested".to_string(), Value::Arr(vec![crate::json::num(i)])),
            ]));
        }
        log.flush();
        let text = text(&buf);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for (i, line) in lines.iter().enumerate() {
            let value = crate::json::parse(line).expect("line parses");
            assert_eq!(value.get("family").and_then(Value::as_str), Some("alu"));
            assert_eq!(value.get("seq").and_then(Value::as_f64), Some(i as f64));
        }
    }

    #[test]
    fn sampling_emits_every_nth() {
        let (log, buf) = shared_sink();
        let forensics = Forensics::new(ForensicsConfig {
            recent_capacity: 0,
            sample_every: 3,
            log: Some(log),
            ..ForensicsConfig::default()
        });
        let mut sampled = 0;
        for i in 0..10u64 {
            // With the ring off and no tail sampling, only the stride's
            // queries build spans, and none collects a plan.
            let capture = forensics.begin();
            assert_eq!(capture.spans, capture.stride);
            assert!(!capture.plan);
            sampled += u64::from(capture.stride);
            assert_eq!(forensics.observe(capture, trace(i)), CaptureReason::Recent);
        }
        forensics.flush();
        // Queries 0, 3, 6, 9 are sampled, each logged as `recent`.
        assert_eq!(sampled, 4);
        let text = text(&buf);
        assert_eq!(text.lines().count(), 4);
        for (line, id) in text.lines().zip(["q0", "q3", "q6", "q9"]) {
            let value = crate::json::parse(line).unwrap();
            assert_eq!(value.get("reason").and_then(Value::as_str), Some("recent"));
            assert_eq!(value.get("request_id").and_then(Value::as_str), Some(id));
        }
    }

    /// A writer that panics on the first write, then works normally.
    struct PanicOnce {
        armed: bool,
        out: SharedBuf,
    }

    impl Write for PanicOnce {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.armed {
                self.armed = false;
                panic!("injected writer panic");
            }
            self.out.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn poisoned_writer_lock_is_recovered_not_propagated() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let log = CaptureLog::to_writer(Box::new(PanicOnce {
            armed: true,
            out: SharedBuf(Arc::clone(&buf)),
        }));
        // First append panics inside the writer while the lock is held,
        // poisoning it.
        let panicking = log.clone();
        let result = std::thread::spawn(move || panicking.append(&line("n", 0))).join();
        assert!(
            result.is_err(),
            "writer panic should propagate to its thread"
        );

        // Later appends on other threads must keep working.
        log.append(&line("n", 1));
        log.flush();
        let text = text(&buf);
        assert_eq!(text.lines().count(), 1);
        crate::json::parse(text.lines().next().unwrap()).expect("valid line after recovery");
    }

    /// A writer that always fails.
    struct BrokenPipe;

    impl Write for BrokenPipe {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            Err(io::Error::new(io::ErrorKind::BrokenPipe, "gone"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::new(io::ErrorKind::BrokenPipe, "gone"))
        }
    }

    #[test]
    fn write_errors_drop_events_and_bump_counter() {
        let log = CaptureLog::to_writer(Box::new(BrokenPipe));
        log.append(&line("n", 0));
        assert_eq!(log.core.dropped.get(), 1);

        // Binding late carries over drops that already happened.
        let (dropped, rotations) = (Counter::new(), Counter::new());
        log.bind(dropped.clone(), rotations.clone());
        assert_eq!(dropped.get(), 1);

        log.append(&line("n", 1));
        log.flush();
        assert_eq!(log.core.dropped.get(), 3); // 2 write errors + 1 flush error
        assert_eq!(dropped.get(), 3);
        assert_eq!(rotations.get(), 0);
    }

    #[test]
    fn rotating_sink_caps_size_and_keeps_one_predecessor() {
        let dir = std::env::temp_dir().join(format!("nucdb_rot_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("capture.jsonl");
        let log = CaptureLog::create(&path, Some(200)).unwrap();

        // Each line is ~25 bytes; 30 lines must rotate more than once.
        for i in 0..30u64 {
            log.append(&Value::Obj(vec![
                ("seq".to_string(), crate::json::num(i)),
                ("pad".to_string(), Value::Str("xxxx".to_string())),
            ]));
        }
        log.flush();
        let rotated = log.core.rotations.get();
        assert!(rotated >= 2, "rotations: {rotated}");

        // Late binding carries the count over.
        let counter = Counter::new();
        log.bind(Counter::new(), counter.clone());
        assert_eq!(counter.get(), rotated);

        // Both generations exist, are size-capped (one line of overshoot
        // allowed), and contain only whole JSONL lines.
        let rotated_file = rotated_path(&path);
        for file in [&path, &rotated_file] {
            let text = std::fs::read_to_string(file).unwrap();
            assert!(text.len() < 300, "{}: {} bytes", file.display(), text.len());
            for line in text.lines() {
                crate::json::parse(line).expect("whole line");
            }
        }
        // Every line landed in some generation: sequence numbers in the
        // rotated file strictly precede those in the live file.
        let seq_of = |line: Option<&str>| {
            crate::json::parse(line.unwrap())
                .unwrap()
                .get("seq")
                .and_then(Value::as_f64)
                .unwrap()
        };
        let older = std::fs::read_to_string(&rotated_file).unwrap();
        let newer = std::fs::read_to_string(&path).unwrap();
        assert!(seq_of(older.lines().last()) < seq_of(newer.lines().next()));
        assert_eq!(log.core.dropped.get(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_rotating_sink_reports_zero_rotations() {
        let (log, _) = shared_sink();
        log.append(&line("n", 0));
        let counter = Counter::new();
        log.bind(Counter::new(), counter.clone());
        assert_eq!(log.core.rotations.get(), 0);
        assert_eq!(counter.get(), 0);
    }

    #[test]
    fn concurrent_emitters_produce_whole_lines() {
        let (log, buf) = shared_sink();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let log = log.clone();
                scope.spawn(move || {
                    for i in 0..50u64 {
                        log.append(&line("id", t * 1000 + i));
                    }
                });
            }
        });
        log.flush();
        let text = text(&buf);
        assert_eq!(text.lines().count(), 200);
        for line in text.lines() {
            crate::json::parse(line).expect("every line is valid JSON");
        }
    }
}
