//! Metric records, summary statistics, and the output format: one
//! human-readable line per metric, then the machine-readable result line.
//! A part run prints tab-separated records instead, which the parent run
//! reads back and combines.

use std::fmt::Write as _;

/// Which clock or counter a number comes from. A metric name never mixes
/// two currencies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Currency {
    /// Host wall-clock of this process.
    Measured,
    /// Device time priced by the simulator's timing model.
    Modeled,
    /// A program counter or a ratio of counters.
    Count,
}

impl Currency {
    const ALL: [Currency; 3] = [Currency::Measured, Currency::Modeled, Currency::Count];

    fn label(self) -> &'static str {
        match self {
            Currency::Measured => "measured",
            Currency::Modeled => "modeled",
            Currency::Count => "count",
        }
    }
}

/// A `BENCHMARK.json` key that a workload-specific metric fills on the
/// result line, in the key's own unit (`value * scale`).
#[derive(Clone, Debug)]
pub struct Key {
    pub name: String,
    pub unit: String,
    pub scale: f64,
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub currency: Currency,
    /// Samples the value summarizes (ops or repetitions).
    pub samples: usize,
    /// The result-line key this metric fills, when it is not its own name.
    pub key: Option<Key>,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str, currency: Currency, samples: usize) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            currency,
            samples,
            key: None,
        }
    }

    /// Report this metric on the result line under the key `name`, in
    /// `unit`, as its value times `scale`.
    pub fn filling(mut self, name: &str, unit: &str, scale: f64) -> Self {
        self.key = Some(Key {
            name: name.to_string(),
            unit: unit.to_string(),
            scale,
        });
        self
    }

    /// The value and unit this metric has under the result-line key
    /// `name`, if it fills that key.
    fn under(&self, name: &str) -> Option<(f64, &str)> {
        match &self.key {
            _ if self.name == name => Some((self.value, &self.unit)),
            Some(k) if k.name == name => Some((self.value * k.scale, &k.unit)),
            _ => None,
        }
    }

    /// The tab-separated record a part run prints. `{:?}` keeps every
    /// digit, so the value reads back as the same f64.
    fn record(&self) -> String {
        let (key, key_unit, scale) = match &self.key {
            Some(k) => (k.name.as_str(), k.unit.as_str(), format!("{:?}", k.scale)),
            None => ("-", "-", "-".to_string()),
        };
        format!(
            "record\t{}\t{:?}\t{}\t{}\t{}\t{key}\t{key_unit}\t{scale}",
            self.name,
            self.value,
            self.unit,
            self.currency.label(),
            self.samples
        )
    }

    /// Read back a [`Metric::record`].
    fn parse_record(line: &str) -> Option<Metric> {
        let f: Vec<&str> = line.strip_prefix("record\t")?.split('\t').collect();
        let [name, value, unit, currency, samples, key, key_unit, scale] = f[..] else {
            return None;
        };
        let currency = *Currency::ALL.iter().find(|c| c.label() == currency)?;
        let mut m = Metric::new(
            name,
            value.parse().ok()?,
            unit,
            currency,
            samples.parse().ok()?,
        );
        if key != "-" {
            m = m.filling(key, key_unit, scale.parse().ok()?);
        }
        Some(m)
    }
}

/// What one run reports: its metrics and its output checks.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    /// Record one metric.
    pub fn add(&mut self, name: &str, value: f64, unit: &str, currency: Currency, samples: usize) {
        self.metrics
            .push(Metric::new(name, value, unit, currency, samples));
    }

    /// Count one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Every check passed and every number is finite.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// One line per metric: workload, name, value, unit, currency, sample
    /// count, and the result-line key it fills if that is another name.
    pub fn human_lines(&self, workload: &str) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = write!(
                out,
                "{workload:<16} {:<24} {:>16.6} {:<10} [{}, n={}]",
                m.name,
                m.value,
                m.unit,
                m.currency.label(),
                m.samples
            );
            if let Some(k) = &m.key {
                let _ = write!(out, " -> {}", k.name);
            }
            out.push('\n');
        }
        out
    }

    /// The result line: a JSON object holding the checks and the metrics
    /// named in `keep`, in that order.
    pub fn result_line(&self, keep: &[&str]) -> String {
        let mut metrics = String::new();
        for name in keep {
            let Some((value, unit)) = self.metrics.iter().find_map(|m| m.under(name)) else {
                continue;
            };
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            // `{:?}` keeps every digit and always prints a decimal point or
            // exponent, so each value parses back to the same f64.
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }

    /// What a part run prints: one record per metric, then its checks.
    pub fn records(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "{}", m.record());
        }
        let _ = writeln!(out, "checks\t{}\t{}", self.attempted, self.failed);
        out
    }

    /// Read back [`Outcome::records`]; `None` when the checks line is
    /// missing, as when the part run died.
    pub fn parse_records(text: &str) -> Option<Outcome> {
        let mut out = Outcome {
            metrics: text.lines().filter_map(Metric::parse_record).collect(),
            ..Outcome::default()
        };
        let checks = text.lines().find_map(|l| l.strip_prefix("checks\t"))?;
        let (attempted, failed) = checks.split_once('\t')?;
        out.attempted = attempted.parse().ok()?;
        out.failed = failed.parse().ok()?;
        Some(out)
    }

    /// Combine part runs: checks add up; each metric every part reports
    /// becomes the median of the parts' values over the sum of their
    /// samples.
    pub fn median_of(parts: &[Outcome]) -> Outcome {
        let mut out = Outcome {
            attempted: parts.iter().map(|p| p.attempted).sum(),
            failed: parts.iter().map(|p| p.failed).sum(),
            ..Outcome::default()
        };
        let Some(first) = parts.first() else {
            return out;
        };
        for m in &first.metrics {
            let same: Vec<&Metric> = parts
                .iter()
                .filter_map(|p| p.metrics.iter().find(|o| o.name == m.name))
                .collect();
            if same.len() < parts.len() {
                continue;
            }
            let values: Vec<f64> = same.iter().map(|o| o.value).collect();
            out.metrics.push(Metric {
                value: median(&values),
                samples: same.iter().map(|o| o.samples).sum(),
                ..m.clone()
            });
        }
        out
    }
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of a non-empty sample, `p` in `[0, 1]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Peak resident set size of this process in MB (`VmHWM`), or NaN where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 0.5), 50.0);
    }

    #[test]
    fn result_line_keeps_named_metrics_in_order() {
        let mut o = Outcome::default();
        o.check(true);
        o.add("b", 2.0, "s", Currency::Measured, 1);
        o.add("a", 0.125, "ms", Currency::Measured, 1);
        o.metrics
            .push(Metric::new("c_s", 1.5, "s", Currency::Measured, 1).filling("c_ms", "ms", 1e3));
        assert_eq!(
            o.result_line(&["a", "b", "c_ms"]),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 0.125, \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"s\"}, \
             \"c_ms\": {\"value\": 1500.0, \"unit\": \"ms\"}}}"
        );
        assert!(o
            .human_lines("w")
            .lines()
            .last()
            .unwrap()
            .ends_with(" -> c_ms"));
    }

    #[test]
    fn parts_combine_through_their_records() {
        let part = |v: f64, failed: bool| {
            let mut o = Outcome::default();
            o.check(!failed);
            o.metrics
                .push(Metric::new("c_s", v, "s", Currency::Measured, 2).filling("c_ms", "ms", 1e3));
            o.add("n", v, "count", Currency::Count, 1);
            Outcome::parse_records(&o.records()).expect("records read back")
        };
        let mut parts = vec![part(0.1, false), part(0.30000000000000004, false)];
        parts.push(part(0.2, true));
        parts[2].metrics.pop();
        let all = Outcome::median_of(&parts);
        assert_eq!((all.attempted, all.failed), (3, 1));
        assert_eq!(all.metrics.len(), 1, "only metrics every part reports");
        let m = &all.metrics[0];
        assert_eq!((m.value, m.samples), (0.2, 6));
        assert_eq!(m.under("c_ms"), Some((200.0, "ms")));
        assert!(Outcome::parse_records("record\tx\t1.0\ts\tmeasured\t1\t-\t-\t-\n").is_none());
    }
}
