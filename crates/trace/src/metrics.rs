//! Prometheus-style metrics: counters, gauges, fixed-bucket histograms,
//! and a registry that renders the text exposition format.
//!
//! This is the home for *wall-clock* serving quantities (latency, queue
//! delay), which are intentionally outside the trace stream's
//! byte-stability contract. Histograms use fixed bucket bounds so p50/p99
//! come from bucket interpolation, not stored samples — constant memory
//! regardless of traffic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default latency bucket bounds, microseconds. Spans ~10µs
/// work-conserving queue waits through multi-second refit storms.
pub const LATENCY_BUCKETS_US: &[u64] = &[
    10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000,
    500_000, 1_000_000, 5_000_000,
];

/// Monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins gauge (with a max-tracking helper for watermarks).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if `v` is larger (watermark semantics).
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket histogram over `u64` observations (typically µs).
///
/// Buckets are per-bound (non-cumulative) internally; rendering and
/// snapshots produce the cumulative `le` form Prometheus expects. A final
/// implicit `+Inf` bucket catches overflow observations.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>, // len = bounds.len() + 1 (+Inf last)
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Histogram with the given ascending bucket bounds.
    pub fn new(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Consistent point-in-time copy for quantile math and snapshots.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }

    /// Estimated quantile (`q` in `[0, 1]`) from bucket interpolation;
    /// see [`HistogramSnapshot::quantile`].
    pub fn quantile(&self, q: f64) -> f64 {
        self.snapshot().quantile(q)
    }
}

/// Point-in-time histogram state.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Ascending bucket upper bounds (exclusive of the implicit `+Inf`).
    pub bounds: Vec<u64>,
    /// Per-bucket (non-cumulative) observation counts; last is `+Inf`.
    pub buckets: Vec<u64>,
    /// Sum of all observations.
    pub sum: u64,
    /// Total observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Estimated quantile from linear interpolation inside the bucket the
    /// target rank falls into (the same estimate PromQL's
    /// `histogram_quantile` produces). Ranks landing in the `+Inf` bucket
    /// clamp to the highest finite bound; an empty histogram reports 0.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if (cumulative as f64) >= rank {
                if i >= self.bounds.len() {
                    // +Inf bucket: clamp to the largest finite bound.
                    return self.bounds.last().copied().unwrap_or(0) as f64;
                }
                let upper = self.bounds[i] as f64;
                let lower = if i == 0 {
                    0.0
                } else {
                    self.bounds[i - 1] as f64
                };
                let in_bucket = n as f64;
                if in_bucket == 0.0 {
                    return upper;
                }
                let below = (cumulative - n) as f64;
                return lower + (upper - lower) * ((rank - below) / in_bucket);
            }
        }
        self.bounds.last().copied().unwrap_or(0) as f64
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

type Labels = Vec<(String, String)>;

struct Family {
    name: String,
    help: String,
    entries: Vec<(Labels, Metric)>,
}

/// A named collection of metric families rendered in registration order
/// as Prometheus text exposition format (see [`Registry::render`]).
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get-or-create the counter `name{labels}`.
    ///
    /// # Panics
    /// If `name` already exists with a different metric kind.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.entry(name, help, labels, || {
            Metric::Counter(Arc::new(Counter::default()))
        })
        .map(|m| match m {
            Metric::Counter(c) => c,
            _ => unreachable!(),
        })
        .unwrap_or_else(|kind| panic!("metric {name} already registered as {kind}"))
    }

    /// Get-or-create the gauge `name{labels}`.
    ///
    /// # Panics
    /// If `name` already exists with a different metric kind.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.entry(name, help, labels, || {
            Metric::Gauge(Arc::new(Gauge::default()))
        })
        .map(|m| match m {
            Metric::Gauge(g) => g,
            _ => unreachable!(),
        })
        .unwrap_or_else(|kind| panic!("metric {name} already registered as {kind}"))
    }

    /// Get-or-create the histogram `name{labels}` with `bounds` (used
    /// only on first creation of that label set).
    ///
    /// # Panics
    /// If `name` already exists with a different metric kind.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        bounds: &[u64],
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        self.entry(name, help, labels, || {
            Metric::Histogram(Arc::new(Histogram::new(bounds)))
        })
        .map(|m| match m {
            Metric::Histogram(h) => h,
            _ => unreachable!(),
        })
        .unwrap_or_else(|kind| panic!("metric {name} already registered as {kind}"))
    }

    fn entry(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Result<Metric, &'static str> {
        let labels: Labels = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut families = self.families.lock().unwrap();
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(f) => f,
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    entries: Vec::new(),
                });
                families.last_mut().unwrap()
            }
        };
        if let Some((_, metric)) = family.entries.iter().find(|(l, _)| *l == labels) {
            let wanted = make();
            if metric.kind() != wanted.kind() {
                return Err(metric.kind());
            }
            return Ok(clone_metric(metric));
        }
        let metric = make();
        if let Some((_, existing)) = family.entries.first() {
            if existing.kind() != metric.kind() {
                return Err(existing.kind());
            }
        }
        let out = clone_metric(&metric);
        family.entries.push((labels, metric));
        Ok(out)
    }

    /// Render all families as Prometheus text exposition format.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let families = self.families.lock().unwrap();
        let mut out = String::new();
        for family in families.iter() {
            let kind = family
                .entries
                .first()
                .map(|(_, m)| m.kind())
                .unwrap_or("untyped");
            let _ = writeln!(out, "# HELP {} {}", family.name, family.help);
            let _ = writeln!(out, "# TYPE {} {}", family.name, kind);
            for (labels, metric) in &family.entries {
                match metric {
                    Metric::Counter(c) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            family.name,
                            label_block(labels, None),
                            c.get()
                        );
                    }
                    Metric::Gauge(g) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            family.name,
                            label_block(labels, None),
                            g.get()
                        );
                    }
                    Metric::Histogram(h) => {
                        let snap = h.snapshot();
                        let mut cumulative = 0u64;
                        for (i, &n) in snap.buckets.iter().enumerate() {
                            cumulative += n;
                            let le = if i < snap.bounds.len() {
                                snap.bounds[i].to_string()
                            } else {
                                "+Inf".to_string()
                            };
                            let _ = writeln!(
                                out,
                                "{}_bucket{} {}",
                                family.name,
                                label_block(labels, Some(&le)),
                                cumulative
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{}_sum{} {}",
                            family.name,
                            label_block(labels, None),
                            snap.sum
                        );
                        let _ = writeln!(
                            out,
                            "{}_count{} {}",
                            family.name,
                            label_block(labels, None),
                            snap.count
                        );
                    }
                }
            }
        }
        out
    }
}

fn clone_metric(m: &Metric) -> Metric {
    match m {
        Metric::Counter(c) => Metric::Counter(c.clone()),
        Metric::Gauge(g) => Metric::Gauge(g.clone()),
        Metric::Histogram(h) => Metric::Histogram(h.clone()),
    }
}

fn label_block(labels: &Labels, le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("requests_total", "Requests served", &[("tenant", "a")]);
        c.inc();
        c.add(2);
        assert_eq!(c.get(), 3);
        // Same name+labels returns the same underlying counter.
        let c2 = reg.counter("requests_total", "Requests served", &[("tenant", "a")]);
        c2.inc();
        assert_eq!(c.get(), 4);
        let g = reg.gauge("occupancy", "Rows in last batch", &[]);
        g.set(7);
        g.set_max(3);
        assert_eq!(g.get(), 7);
        g.set_max(11);
        assert_eq!(g.get(), 11);
        let text = reg.render();
        assert!(text.contains("# TYPE requests_total counter"), "{text}");
        assert!(text.contains("requests_total{tenant=\"a\"} 4"), "{text}");
        assert!(text.contains("occupancy 11"), "{text}");
    }

    #[test]
    fn histogram_buckets_quantiles_and_rendering() {
        let h = Histogram::new(&[10, 100, 1000]);
        for v in [5, 7, 50, 60, 70, 500] {
            h.observe(v);
        }
        h.observe(5000); // lands in +Inf
        let snap = h.snapshot();
        assert_eq!(snap.count, 7);
        assert_eq!(snap.buckets, vec![2, 3, 1, 1]);
        assert_eq!(snap.sum, 5 + 7 + 50 + 60 + 70 + 500 + 5000);
        // Median rank 3.5 falls in the (10, 100] bucket.
        let p50 = snap.quantile(0.5);
        assert!((10.0..=100.0).contains(&p50), "p50 = {p50}");
        // p99 lands in +Inf, clamping to the top finite bound.
        assert_eq!(snap.quantile(0.99), 1000.0);
        assert_eq!(
            HistogramSnapshot::quantile(&Histogram::new(&[10]).snapshot(), 0.5),
            0.0
        );

        let reg = Registry::new();
        let hr = reg.histogram(
            "latency_us",
            "Latency",
            &[10, 100, 1000],
            &[("tenant", "b")],
        );
        hr.observe(42);
        let text = reg.render();
        assert!(text.contains("# TYPE latency_us histogram"), "{text}");
        assert!(
            text.contains("latency_us_bucket{tenant=\"b\",le=\"10\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("latency_us_bucket{tenant=\"b\",le=\"100\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("latency_us_bucket{tenant=\"b\",le=\"+Inf\"} 1"),
            "{text}"
        );
        assert!(text.contains("latency_us_sum{tenant=\"b\"} 42"), "{text}");
        assert!(text.contains("latency_us_count{tenant=\"b\"} 1"), "{text}");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.counter("m", "help", &[]);
        let _ = reg.gauge("m", "help", &[]);
    }
}
