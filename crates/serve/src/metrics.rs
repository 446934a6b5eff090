//! Prometheus-style serving metrics.
//!
//! One [`trace::metrics::Registry`] per [`crate::Server`], holding:
//!
//! * per-tenant request / row / quantized-fallback counters
//!   (`ftk_serve_requests_total{model="..."}`, ...),
//! * a per-tenant end-to-end predict latency histogram over
//!   [`trace::metrics::LATENCY_BUCKETS_US`] — p50/p99 come from the
//!   bucket counts ([`trace::metrics::HistogramSnapshot::quantile`]),
//!   never from retained samples,
//! * a queue-delay histogram (enqueue → dispatch) for requests that
//!   went through the micro-batching queue, and
//! * batch-occupancy gauges: rows and member-requests of the most recent
//!   dispatch group plus high-water marks.
//!
//! Wall-clock readings live only here — the byte-stable trace *event*
//! stream never carries them (see the `trace` crate docs), so a scrape
//! endpoint and a deterministic trace can coexist on one server.

use std::sync::Arc;
use trace::metrics::{Gauge, Histogram, Registry, LATENCY_BUCKETS_US};

/// The server's metric instruments. Global (label-free) instruments are
/// created eagerly so `render()` output has a stable family order from
/// the first scrape; per-tenant entries appear on first traffic.
pub(crate) struct ServeMetrics {
    registry: Registry,
    queue_delay: Arc<Histogram>,
    batch_rows: Arc<Gauge>,
    batch_rows_peak: Arc<Gauge>,
    batch_requests_peak: Arc<Gauge>,
}

impl ServeMetrics {
    pub(crate) fn new() -> Self {
        let registry = Registry::new();
        let queue_delay = registry.histogram(
            "ftk_serve_queue_delay_us",
            "Enqueue-to-dispatch wait of queued predict requests, microseconds",
            LATENCY_BUCKETS_US,
            &[],
        );
        let batch_rows = registry.gauge(
            "ftk_serve_batch_rows",
            "Query rows in the most recently dispatched batch group",
            &[],
        );
        let batch_rows_peak = registry.gauge(
            "ftk_serve_batch_rows_peak",
            "Largest dispatch-group row count observed",
            &[],
        );
        let batch_requests_peak = registry.gauge(
            "ftk_serve_batch_requests_peak",
            "Largest number of requests coalesced into one dispatch group",
            &[],
        );
        ServeMetrics {
            registry,
            queue_delay,
            batch_rows,
            batch_rows_peak,
            batch_requests_peak,
        }
    }

    /// Book one served predict request for `model`: traffic counters plus
    /// the end-to-end latency observation.
    pub(crate) fn request(&self, model: &str, rows: u64, latency_us: u64) {
        let labels = &[("model", model)];
        self.registry
            .counter(
                "ftk_serve_requests_total",
                "Predict requests served, by model",
                labels,
            )
            .inc();
        self.registry
            .counter(
                "ftk_serve_rows_total",
                "Query rows served across predict requests, by model",
                labels,
            )
            .add(rows);
        self.registry
            .histogram(
                "ftk_serve_predict_latency_us",
                "End-to-end predict latency (request entry to response), microseconds",
                LATENCY_BUCKETS_US,
                labels,
            )
            .observe(latency_us);
    }

    /// Book quantized-path exact-row fallbacks charged to `model`'s
    /// serving launches.
    pub(crate) fn fallbacks(&self, model: &str, n: u64) {
        if n == 0 {
            return;
        }
        self.registry
            .counter(
                "ftk_serve_quant_fallbacks_total",
                "Quantized predict rows that fell back to exact fp distances, by model",
                &[("model", model)],
            )
            .add(n);
    }

    /// Book one queued request's enqueue-to-dispatch wait.
    pub(crate) fn queue_delay(&self, delay_us: u64) {
        self.queue_delay.observe(delay_us);
    }

    /// Book one dispatched batch group's occupancy.
    pub(crate) fn group(&self, requests: usize, rows: usize) {
        self.batch_rows.set(rows as u64);
        self.batch_rows_peak.set_max(rows as u64);
        self.batch_requests_peak.set_max(requests as u64);
    }

    /// Prometheus text-format rendering of every instrument.
    pub(crate) fn render(&self) -> String {
        self.registry.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_delay_histogram_resolves_sub_50us_waits() {
        let metrics = ServeMetrics::new();
        metrics.queue_delay(20);
        let text = metrics.render();
        assert!(
            text.contains(r#"ftk_serve_queue_delay_us_bucket{le="10"} 0"#),
            "{text}"
        );
        assert!(
            text.contains(r#"ftk_serve_queue_delay_us_bucket{le="25"} 1"#),
            "{text}"
        );
    }
}
