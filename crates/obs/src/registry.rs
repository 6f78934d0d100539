//! The metrics registry: named counters, gauges and histograms.
//!
//! Registration and snapshotting take a `Mutex` — both are cold paths
//! (startup and scrape time). The handles handed out are `Arc`-backed
//! atomics: recording never locks, so any number of worker threads can
//! write concurrently (the server's worker pool). Handles from a
//! [`MetricsRegistry::disabled`] registry carry no storage at all, making
//! the disabled mode provably free: one `Option` discriminant branch.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::{Histogram, HistogramCore, HistogramSnapshot};

/// A monotonically increasing event counter (resettable between
/// experiment runs via [`Counter::reset`]).
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A standalone enabled counter (not tied to any registry).
    pub fn new() -> Counter {
        Counter(Some(Arc::new(AtomicU64::new(0))))
    }

    /// A no-op counter: every operation is one branch.
    pub fn disabled() -> Counter {
        Counter(None)
    }

    /// Does this handle record anywhere?
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }

    /// Reset to zero (between experiment runs).
    pub fn reset(&self) {
        if let Some(cell) = &self.0 {
            cell.store(0, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

/// A current-level value (candidates in flight, open files, …).
#[derive(Clone, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// A standalone enabled gauge.
    pub fn new() -> Gauge {
        Gauge(Some(Arc::new(AtomicI64::new(0))))
    }

    /// A no-op gauge.
    pub fn disabled() -> Gauge {
        Gauge(None)
    }

    /// Does this handle record anywhere?
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Set the level.
    #[inline]
    pub fn set(&self, value: i64) {
        if let Some(cell) = &self.0 {
            cell.store(value, Ordering::Relaxed);
        }
    }

    /// Add `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current level (0 when disabled).
    pub fn get(&self) -> i64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
    }
}

/// What kind of metric a registration is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone event count.
    Counter,
    /// Current level.
    Gauge,
    /// Value distribution.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` name.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

enum Instrument {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<HistogramCore>),
}

impl Instrument {
    fn kind(&self) -> MetricKind {
        match self {
            Instrument::Counter(_) => MetricKind::Counter,
            Instrument::Gauge(_) => MetricKind::Gauge,
            Instrument::Histogram(_) => MetricKind::Histogram,
        }
    }
}

struct Registration {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    instrument: Instrument,
}

/// Is `name` a legal Prometheus metric name?
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    (first.is_ascii_alphabetic() || first == '_' || first == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// The registry. See the [crate docs](crate) for the cost model.
pub struct MetricsRegistry {
    /// `None` for a disabled registry.
    inner: Option<Mutex<Vec<Registration>>>,
}

impl MetricsRegistry {
    /// An enabled registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            inner: Some(Mutex::new(Vec::new())),
        }
    }

    /// A disabled registry: every handle it returns is a no-op and its
    /// snapshot is empty.
    pub fn disabled() -> MetricsRegistry {
        MetricsRegistry { inner: None }
    }

    /// Does this registry record anything?
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Register (or look up) a counter. Re-registering the same
    /// name/labels returns a handle to the same storage.
    ///
    /// # Panics
    /// On an invalid metric name, or if the name/labels are already
    /// registered as a different metric kind.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// [`MetricsRegistry::counter`] with labels.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, help, labels, MetricKind::Counter) {
            Some(Instrument::Counter(cell)) => Counter(Some(cell)),
            Some(_) => unreachable!("register checked the kind"),
            None => Counter::disabled(),
        }
    }

    /// Register (or look up) a gauge.
    ///
    /// # Panics
    /// On an invalid metric name or kind mismatch (see
    /// [`MetricsRegistry::counter`]).
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// [`MetricsRegistry::gauge`] with labels.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, help, labels, MetricKind::Gauge) {
            Some(Instrument::Gauge(cell)) => Gauge(Some(cell)),
            Some(_) => unreachable!("register checked the kind"),
            None => Gauge::disabled(),
        }
    }

    /// Register (or look up) a histogram.
    ///
    /// # Panics
    /// On an invalid metric name or kind mismatch (see
    /// [`MetricsRegistry::counter`]).
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, help, &[])
    }

    /// [`MetricsRegistry::histogram`] with labels.
    pub fn histogram_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.register(name, help, labels, MetricKind::Histogram) {
            Some(Instrument::Histogram(core)) => Histogram(Some(core)),
            Some(_) => unreachable!("register checked the kind"),
            None => Histogram::disabled(),
        }
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: MetricKind,
    ) -> Option<Instrument> {
        let inner = self.inner.as_ref()?;
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        for (key, _) in &labels {
            assert!(valid_metric_name(key), "invalid label name {key:?}");
        }
        let mut registrations = inner.lock().expect("metrics registry poisoned");
        if let Some(existing) = registrations
            .iter()
            .find(|r| r.name == name && r.labels == labels)
        {
            assert_eq!(
                existing.instrument.kind(),
                kind,
                "metric {name:?} already registered as a {}",
                existing.instrument.kind().name()
            );
            return Some(match &existing.instrument {
                Instrument::Counter(cell) => Instrument::Counter(Arc::clone(cell)),
                Instrument::Gauge(cell) => Instrument::Gauge(Arc::clone(cell)),
                Instrument::Histogram(core) => Instrument::Histogram(Arc::clone(core)),
            });
        }
        let instrument = match kind {
            MetricKind::Counter => Instrument::Counter(Arc::new(AtomicU64::new(0))),
            MetricKind::Gauge => Instrument::Gauge(Arc::new(AtomicI64::new(0))),
            MetricKind::Histogram => {
                let Histogram(core) = Histogram::new();
                Instrument::Histogram(core.expect("Histogram::new is enabled"))
            }
        };
        let handle = match &instrument {
            Instrument::Counter(cell) => Instrument::Counter(Arc::clone(cell)),
            Instrument::Gauge(cell) => Instrument::Gauge(Arc::clone(cell)),
            Instrument::Histogram(core) => Instrument::Histogram(Arc::clone(core)),
        };
        registrations.push(Registration {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            instrument,
        });
        Some(handle)
    }

    /// A point-in-time copy of every registered metric, sorted by name
    /// then labels (stable exposition order). Empty for a disabled
    /// registry.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = self.inner.as_ref() else {
            return Snapshot {
                metrics: Vec::new(),
            };
        };
        let registrations = inner.lock().expect("metrics registry poisoned");
        let mut metrics: Vec<MetricSnapshot> = registrations
            .iter()
            .map(|r| MetricSnapshot {
                name: r.name.clone(),
                help: r.help.clone(),
                labels: r.labels.clone(),
                value: match &r.instrument {
                    Instrument::Counter(cell) => {
                        ValueSnapshot::Counter(cell.load(Ordering::Relaxed))
                    }
                    Instrument::Gauge(cell) => ValueSnapshot::Gauge(cell.load(Ordering::Relaxed)),
                    Instrument::Histogram(core) => ValueSnapshot::Histogram(core.snapshot()),
                },
            })
            .collect();
        metrics.sort_by(|a, b| a.name.cmp(&b.name).then_with(|| a.labels.cmp(&b.labels)));
        Snapshot { metrics }
    }
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("enabled", &self.is_enabled())
            .field("metrics", &self.snapshot().metrics.len())
            .finish()
    }
}

/// One metric inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Metric name (Prometheus charset).
    pub name: String,
    /// Help text.
    pub help: String,
    /// Label pairs, in registration order.
    pub labels: Vec<(String, String)>,
    /// The captured value.
    pub value: ValueSnapshot,
}

/// The captured value of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueSnapshot {
    /// Counter value.
    Counter(u64),
    /// Gauge level.
    Gauge(i64),
    /// Histogram distribution.
    Histogram(HistogramSnapshot),
}

/// A point-in-time copy of a whole registry.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// All metrics, sorted by name then labels.
    pub metrics: Vec<MetricSnapshot>,
}

impl Snapshot {
    /// Activity since `earlier`: counters and histogram buckets
    /// subtract (saturating); gauges keep their current level. Metrics
    /// absent from `earlier` pass through unchanged.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let before = earlier
                    .metrics
                    .iter()
                    .find(|e| e.name == m.name && e.labels == m.labels);
                let value = match (&m.value, before.map(|b| &b.value)) {
                    (ValueSnapshot::Counter(now), Some(ValueSnapshot::Counter(then))) => {
                        ValueSnapshot::Counter(now.saturating_sub(*then))
                    }
                    (ValueSnapshot::Histogram(now), Some(ValueSnapshot::Histogram(then))) => {
                        ValueSnapshot::Histogram(now.delta(then))
                    }
                    (value, _) => value.clone(),
                };
                MetricSnapshot {
                    name: m.name.clone(),
                    help: m.help.clone(),
                    labels: m.labels.clone(),
                    value,
                }
            })
            .collect();
        Snapshot { metrics }
    }

    /// Look up a metric by name (and no labels).
    pub fn get(&self, name: &str) -> Option<&ValueSnapshot> {
        self.get_with(name, &[])
    }

    /// Look up a metric by name and exact label set.
    pub fn get_with(&self, name: &str, labels: &[(&str, &str)]) -> Option<&ValueSnapshot> {
        self.metrics
            .iter()
            .find(|m| {
                m.name == name
                    && m.labels.len() == labels.len()
                    && m.labels
                        .iter()
                        .zip(labels)
                        .all(|((k, v), &(lk, lv))| k == lk && v == lv)
            })
            .map(|m| &m.value)
    }
}

/// Escape a `# HELP` text: backslash and newline.
fn escape_help(text: &str) -> String {
    text.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escape a label value: backslash, double-quote, newline.
fn escape_label_value(text: &str) -> String {
    text.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label_value(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

impl Snapshot {
    /// Render in the Prometheus text exposition format (version 0.0.4):
    /// one `# HELP` / `# TYPE` header per metric family followed by its
    /// samples; histograms expose cumulative `_bucket{le="…"}` series
    /// plus `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut last_family: Option<&str> = None;
        for metric in &self.metrics {
            if last_family != Some(metric.name.as_str()) {
                let kind = match metric.value {
                    ValueSnapshot::Counter(_) => MetricKind::Counter,
                    ValueSnapshot::Gauge(_) => MetricKind::Gauge,
                    ValueSnapshot::Histogram(_) => MetricKind::Histogram,
                };
                let _ = writeln!(out, "# HELP {} {}", metric.name, escape_help(&metric.help));
                let _ = writeln!(out, "# TYPE {} {}", metric.name, kind.name());
                last_family = Some(metric.name.as_str());
            }
            match &metric.value {
                ValueSnapshot::Counter(v) => {
                    let labels = render_labels(&metric.labels, None);
                    let _ = writeln!(out, "{}{labels} {v}", metric.name);
                }
                ValueSnapshot::Gauge(v) => {
                    let labels = render_labels(&metric.labels, None);
                    let _ = writeln!(out, "{}{labels} {v}", metric.name);
                }
                ValueSnapshot::Histogram(hist) => {
                    for (upper, cumulative) in hist.cumulative_buckets() {
                        let le = if upper == u64::MAX {
                            "+Inf".to_string()
                        } else {
                            upper.to_string()
                        };
                        let labels = render_labels(&metric.labels, Some(("le", &le)));
                        let _ = writeln!(out, "{}_bucket{labels} {cumulative}", metric.name);
                    }
                    let labels = render_labels(&metric.labels, None);
                    let _ = writeln!(out, "{}_sum{labels} {}", metric.name, hist.sum);
                    let _ = writeln!(out, "{}_count{labels} {}", metric.name, hist.count());
                }
            }
        }
        out
    }

    /// Render as a JSON document (see [`crate::json`]): an object with a
    /// `"metrics"` array; histograms carry count/sum/max, percentiles,
    /// and sparse `[upper_bound, cumulative_count]` bucket pairs (the
    /// final bucket's bound is `null`, meaning +Inf).
    pub fn to_json(&self) -> crate::json::Value {
        use crate::json::{num, Value};
        let metrics = self
            .metrics
            .iter()
            .map(|metric| {
                let mut members = vec![
                    ("name".to_string(), Value::Str(metric.name.clone())),
                    ("help".to_string(), Value::Str(metric.help.clone())),
                ];
                if !metric.labels.is_empty() {
                    members.push((
                        "labels".to_string(),
                        Value::Obj(
                            metric
                                .labels
                                .iter()
                                .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                                .collect(),
                        ),
                    ));
                }
                match &metric.value {
                    ValueSnapshot::Counter(v) => {
                        members.push(("type".to_string(), Value::Str("counter".to_string())));
                        members.push(("value".to_string(), num(*v)));
                    }
                    ValueSnapshot::Gauge(v) => {
                        members.push(("type".to_string(), Value::Str("gauge".to_string())));
                        members.push(("value".to_string(), Value::Num(*v as f64)));
                    }
                    ValueSnapshot::Histogram(hist) => {
                        members.push(("type".to_string(), Value::Str("histogram".to_string())));
                        members.push(("count".to_string(), num(hist.count())));
                        members.push(("sum".to_string(), num(hist.sum)));
                        members.push(("max".to_string(), num(hist.max)));
                        members.push(("p50".to_string(), num(hist.p50())));
                        members.push(("p90".to_string(), num(hist.p90())));
                        members.push(("p99".to_string(), num(hist.p99())));
                        let buckets = hist
                            .cumulative_buckets()
                            .into_iter()
                            .map(|(upper, cumulative)| {
                                let bound = if upper == u64::MAX {
                                    Value::Null
                                } else {
                                    num(upper)
                                };
                                Value::Arr(vec![bound, num(cumulative)])
                            })
                            .collect();
                        members.push(("buckets".to_string(), Value::Arr(buckets)));
                    }
                }
                Value::Obj(members)
            })
            .collect();
        Value::Obj(vec![("metrics".to_string(), Value::Arr(metrics))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("events_total", "events");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);

        let g = registry.gauge("level", "level");
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn reregistration_shares_storage() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("shared_total", "x");
        let b = registry.counter("shared_total", "x");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        // Different labels are a different series.
        let c = registry.counter_with("shared_total", "x", &[("shard", "1")]);
        c.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(c.get(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let registry = MetricsRegistry::new();
        let _ = registry.counter("thing", "x");
        let _ = registry.gauge("thing", "x");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_name_panics() {
        let registry = MetricsRegistry::new();
        let _ = registry.counter("bad name", "x");
    }

    #[test]
    fn disabled_registry_is_inert() {
        let registry = MetricsRegistry::disabled();
        assert!(!registry.is_enabled());
        let c = registry.counter("x_total", "x");
        let g = registry.gauge("g", "g");
        let h = registry.histogram("h_ns", "h");
        c.add(5);
        g.set(5);
        h.record(5);
        assert!(!c.is_enabled() && !g.is_enabled() && !h.is_enabled());
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.snapshot().count(), 0);
        assert!(registry.snapshot().metrics.is_empty());
    }

    #[test]
    fn snapshot_and_delta() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("ops_total", "ops");
        let h = registry.histogram("lat_ns", "latency");
        let g = registry.gauge("level", "level");
        c.add(3);
        h.record(100);
        g.set(9);
        let before = registry.snapshot();
        c.add(2);
        h.record(200);
        g.set(4);
        let after = registry.snapshot();
        let delta = after.delta(&before);
        assert_eq!(delta.get("ops_total"), Some(&ValueSnapshot::Counter(2)));
        assert_eq!(delta.get("level"), Some(&ValueSnapshot::Gauge(4)));
        let Some(ValueSnapshot::Histogram(hist)) = delta.get("lat_ns") else {
            panic!("histogram missing from delta");
        };
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.sum, 200);
    }

    #[test]
    fn snapshot_order_is_stable() {
        let registry = MetricsRegistry::new();
        registry.counter("zzz_total", "z").inc();
        registry.counter("aaa_total", "a").inc();
        registry.counter_with("mid_total", "m", &[("b", "2")]).inc();
        registry.counter_with("mid_total", "m", &[("b", "1")]).inc();
        let names: Vec<String> = registry
            .snapshot()
            .metrics
            .iter()
            .map(|m| format!("{}{:?}", m.name, m.labels))
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn concurrent_writers_lose_nothing() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("hits_total", "hits");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = c.clone();
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }

    /// Build a snapshot exercising every metric kind, labels that need
    /// escaping, and a populated histogram.
    fn exposition_fixture() -> Snapshot {
        let registry = MetricsRegistry::new();
        registry
            .counter(
                "nucdb_reads_total",
                "Reads with a \\ and\na newline in help",
            )
            .add(2);
        registry
            .counter_with("nucdb_reads_total", "Reads", &[("path", "a\\b\"c\nd")])
            .add(7);
        registry.gauge("nucdb_level", "Level").set(-3);
        let h = registry.histogram("nucdb_lat_ns", "Latency");
        for v in [1u64, 5, 5, 100, 10_000] {
            h.record(v);
        }
        registry.snapshot()
    }

    /// Prometheus text format conformance: every line is a well-formed
    /// comment or sample, HELP/TYPE appear exactly once per family and
    /// before that family's samples, label escaping is applied, and
    /// histogram buckets are cumulative and end at +Inf == count.
    #[test]
    fn prometheus_exposition_conforms() {
        let text = exposition_fixture().to_prometheus();
        let mut seen_type: Vec<&str> = Vec::new();
        for line in text.lines() {
            assert!(!line.is_empty(), "blank line in exposition");
            if let Some(rest) = line.strip_prefix("# ") {
                let mut parts = rest.splitn(3, ' ');
                let keyword = parts.next().unwrap();
                let family = parts.next().expect("family name after keyword");
                assert!(
                    keyword == "HELP" || keyword == "TYPE",
                    "unknown comment keyword in {line:?}"
                );
                if keyword == "TYPE" {
                    let kind = parts.next().expect("kind after TYPE");
                    assert!(matches!(kind, "counter" | "gauge" | "histogram"));
                    assert!(!seen_type.contains(&family), "duplicate TYPE for {family}");
                    seen_type.push(family);
                }
            } else {
                // Sample line: name[{labels}] value
                let (series, value) = line.rsplit_once(' ').expect("sample has a value");
                value.parse::<f64>().expect("sample value is a number");
                let name = series.split('{').next().unwrap();
                let family = name
                    .strip_suffix("_bucket")
                    .or_else(|| name.strip_suffix("_sum"))
                    .or_else(|| name.strip_suffix("_count"))
                    .filter(|f| seen_type.contains(f))
                    .unwrap_or(name);
                assert!(
                    seen_type.contains(&family),
                    "sample {name} before its TYPE line"
                );
            }
        }
        // HELP text and label values are escaped.
        assert!(text.contains("Reads with a \\\\ and\\na newline"));
        assert!(text.contains(r#"path="a\\b\"c\nd""#));
        // Histogram buckets: cumulative, non-decreasing, +Inf == count.
        let buckets: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("nucdb_lat_ns_bucket"))
            .map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap())
            .collect();
        assert!(!buckets.is_empty());
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]));
        let last_bucket_line = text
            .lines()
            .rfind(|l| l.starts_with("nucdb_lat_ns_bucket"))
            .unwrap();
        assert!(last_bucket_line.contains(r#"le="+Inf""#));
        assert_eq!(*buckets.last().unwrap(), 5);
        assert!(text.contains("nucdb_lat_ns_count 5"));
        assert!(text.contains("nucdb_lat_ns_sum 10111"));
    }

    /// The JSON exposition round-trips through the crate's own parser:
    /// parse(render(v)) == v, and the re-rendered text is stable.
    #[test]
    fn json_exposition_round_trips() {
        let value = exposition_fixture().to_json();
        let text = value.render();
        let reparsed = crate::json::parse(&text).expect("exposition JSON parses");
        assert_eq!(reparsed, value);
        assert_eq!(reparsed.render(), text);
        // Spot-check structure.
        let metrics = match value.get("metrics") {
            Some(crate::json::Value::Arr(items)) => items,
            other => panic!("metrics array missing: {other:?}"),
        };
        assert_eq!(metrics.len(), 4);
        let hist = metrics
            .iter()
            .find(|m| m.get("type").and_then(|t| t.as_str()) == Some("histogram"))
            .expect("histogram present");
        assert_eq!(hist.get("count").and_then(|v| v.as_f64()), Some(5.0));
        assert_eq!(hist.get("max").and_then(|v| v.as_f64()), Some(10_000.0));
    }
}
