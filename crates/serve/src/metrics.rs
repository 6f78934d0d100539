//! Server-side metric families, registered in the same
//! [`MetricsRegistry`] the engine binds to, so one `GET /metrics`
//! scrape exposes the whole stack: HTTP front-end, admission queue,
//! engine stages, and index/store I/O.

use nucdb_obs::{Counter, Gauge, Histogram, MetricsRegistry};

/// The response codes the server emits, pre-registered so the hot path
/// never touches the registry lock.
const CODES: &[u16] = &[200, 400, 404, 405, 408, 411, 413, 431, 500, 501, 503, 505];

/// Pre-registered handles for the HTTP front-end.
#[derive(Clone, Default)]
pub struct HttpMetrics {
    /// `nucdb_http_requests_total{code=...}`, one counter per status.
    requests: Vec<(u16, Counter)>,
    /// Requests with a status outside [`CODES`] (should stay zero).
    requests_other: Counter,
    /// End-to-end request latency (parse → response flushed).
    pub request_latency: Histogram,
    /// Connections accepted.
    pub connections: Counter,
    /// Current admission-queue depth.
    pub queue_depth: Gauge,
    /// Connections shed with 503 because the queue was full.
    pub shed: Counter,
    /// Requests dropped at dequeue because their deadline had passed.
    pub expired: Counter,
}

impl HttpMetrics {
    /// Register the family in `registry` (live no-op handles when the
    /// registry is disabled).
    pub fn new(registry: &MetricsRegistry) -> HttpMetrics {
        let requests = CODES
            .iter()
            .map(|&code| {
                (
                    code,
                    registry.counter_with(
                        "nucdb_http_requests_total",
                        "HTTP responses sent, by status code",
                        &[("code", &code.to_string())],
                    ),
                )
            })
            .collect();
        HttpMetrics {
            requests,
            requests_other: registry.counter_with(
                "nucdb_http_requests_total",
                "HTTP responses sent, by status code",
                &[("code", "other")],
            ),
            request_latency: registry.histogram(
                "nucdb_http_request_latency_ns",
                "End-to-end HTTP request latency in nanoseconds",
            ),
            connections: registry.counter(
                "nucdb_http_connections_total",
                "TCP connections accepted by the server",
            ),
            queue_depth: registry.gauge(
                "nucdb_http_queue_depth",
                "Connections waiting in the admission queue",
            ),
            shed: registry.counter(
                "nucdb_http_shed_total",
                "Connections refused with 503 because the admission queue was full",
            ),
            expired: registry.counter(
                "nucdb_http_expired_total",
                "Requests dropped at dequeue because their queue deadline had passed",
            ),
        }
    }

    /// Fully detached handles (every record call is one branch).
    pub fn disabled() -> HttpMetrics {
        HttpMetrics::default()
    }

    /// Count one response with `status`, `nanos` after the request was
    /// admitted.
    pub fn record_response(&self, status: u16, nanos: u64) {
        match self.requests.iter().find(|(code, _)| *code == status) {
            Some((_, counter)) => counter.inc(),
            None => self.requests_other.inc(),
        }
        self.request_latency.record(nanos);
    }

    /// The counter for one status code (useful in tests).
    pub fn requests_for(&self, status: u16) -> u64 {
        self.requests
            .iter()
            .find(|(code, _)| *code == status)
            .map_or(0, |(_, c)| c.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_pre_registered_and_counted() {
        let registry = MetricsRegistry::new();
        let metrics = HttpMetrics::new(&registry);
        metrics.record_response(200, 1_000);
        metrics.record_response(200, 2_000);
        metrics.record_response(503, 10);
        metrics.record_response(299, 10); // unknown → "other"
        assert_eq!(metrics.requests_for(200), 2);
        assert_eq!(metrics.requests_for(503), 1);
        assert_eq!(metrics.requests_other.get(), 1);

        let prom = registry.snapshot().to_prometheus();
        assert!(prom.contains("nucdb_http_requests_total{code=\"200\"} 2"));
        assert!(prom.contains("nucdb_http_requests_total{code=\"503\"} 1"));
        assert!(prom.contains("nucdb_http_request_latency_ns_count 4"));
    }

    #[test]
    fn disabled_is_inert() {
        let metrics = HttpMetrics::disabled();
        metrics.record_response(200, 1);
        metrics.shed.inc();
        assert_eq!(metrics.requests_for(200), 0);
        assert_eq!(metrics.shed.get(), 0);
    }
}
