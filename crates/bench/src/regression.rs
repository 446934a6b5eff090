//! The throughput ledger and its regression gate.
//!
//! One committed file, `baselines/throughput.csv`, holds every throughput
//! baseline: fit rates per assignment variant, predict rates per
//! [`kmeans::PredictPolicy`] and modeled serve rates per scenario. Each row
//! records the shape it was measured at, and [`check`] compares a fresh row
//! only against a baseline row of the same shape: a rate measured at one
//! `m` says little about another, because fixed per-fit and per-launch
//! costs amortize differently. A shape mismatch fails closed, as does a row
//! missing on either side.
//!
//! Machines differ, hence a band rather than equality: a row fails when its
//! fresh median rate is more than [`TOLERANCE`] times below the baseline.

/// Regression band: a fresh rate more than this factor below its baseline
/// fails.
pub const TOLERANCE: f64 = 2.5;

/// Repetitions per measurement; the median is what the ledger records and
/// what the gate compares.
pub const REPS: usize = 5;

/// Header line of the ledger.
const LEDGER_HEADER: &str = "bench,name,m,median_s,rate\n";

/// Which bench a ledger row belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// End-to-end `fit_model`; `rate` is samples x iterations per second.
    Fit,
    /// `FittedModel::predict`; `rate` is samples per second.
    Predict,
    /// The multi-tenant server; `rate` is modeled device rows per second.
    Serve,
}

impl Bench {
    /// Every bench, in ledger order.
    pub const ALL: [Bench; 3] = [Bench::Fit, Bench::Predict, Bench::Serve];

    /// The ledger's `bench` field.
    pub fn name(self) -> &'static str {
        match self {
            Bench::Fit => "fit",
            Bench::Predict => "predict",
            Bench::Serve => "serve",
        }
    }

    /// Inverse of [`Bench::name`].
    pub fn parse(s: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == s)
    }
}

/// One measurement: a fresh run or a committed baseline row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Which bench measured it.
    pub bench: Bench,
    /// Variant, policy or scenario name.
    pub name: String,
    /// Problem size: samples for fit and predict, requests x rows for serve.
    pub m: usize,
    /// Median seconds per fit or predict call; median request latency for
    /// serve.
    pub median_s: f64,
    /// Throughput (unit per [`Bench`]).
    pub rate: f64,
}

impl Row {
    /// The row as one ledger line.
    pub fn to_csv(&self) -> String {
        format!(
            "{},{},{},{:.9},{:.1}\n",
            self.bench.name(),
            self.name,
            self.m,
            self.median_s,
            self.rate
        )
    }
}

/// Render rows as a complete ledger file.
pub fn write_ledger(rows: &[Row]) -> String {
    let mut csv = String::from(LEDGER_HEADER);
    for r in rows {
        csv.push_str(&r.to_csv());
    }
    csv
}

/// Parse a ledger. Returns an error naming the first malformed line (wrong
/// field count, unknown bench, unparsable number); an empty ledger is an
/// error too.
pub fn parse_ledger(csv: &str) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for (idx, line) in csv.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line == LEDGER_HEADER.trim_end() {
            continue;
        }
        let err = |what: &str| format!("line {}: {what} in {line:?}", idx + 1);
        let fields: Vec<&str> = line.split(',').collect();
        let [bench, name, m, median_s, rate] = fields[..] else {
            return Err(err(&format!("expected 5 fields, got {}", fields.len())));
        };
        rows.push(Row {
            bench: Bench::parse(bench).ok_or_else(|| err("unknown bench"))?,
            name: name.to_string(),
            m: m.parse().map_err(|_| err("bad m"))?,
            median_s: median_s.parse().map_err(|_| err("bad median_s"))?,
            rate: rate.parse().map_err(|_| err("bad rate"))?,
        });
    }
    if rows.is_empty() {
        return Err("no rows in the ledger".into());
    }
    Ok(rows)
}

/// The rows of one bench.
pub fn rows_of(rows: &[Row], bench: Bench) -> Vec<Row> {
    rows.iter().filter(|r| r.bench == bench).cloned().collect()
}

/// Outcome of checking one row against its baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckOutcome {
    /// Variant, policy or scenario name.
    pub name: String,
    /// Fresh throughput (0 when the fresh run lacks the row).
    pub fresh_rate: f64,
    /// Baseline throughput (0 when the baseline lacks the row).
    pub baseline_rate: f64,
    /// `baseline_rate / fresh_rate`: above 1 is slower than the baseline;
    /// infinite when the row is missing on one side or the shapes differ.
    pub regression_factor: f64,
    /// True when the shapes match and the factor is within the band.
    pub pass: bool,
}

/// Check fresh rows against baseline rows of the same bench with band
/// `tolerance`. The gate fails closed three ways: a fresh row without a
/// baseline row, a baseline row without a fresh row (a silently unchecked
/// row is itself a regression of the gate), and a fresh row whose `m`
/// differs from its baseline row's.
pub fn check(fresh: &[Row], baseline: &[Row], tolerance: f64) -> Vec<CheckOutcome> {
    let same = |a: &Row, b: &Row| a.bench == b.bench && a.name == b.name;
    let mut outcomes: Vec<CheckOutcome> = fresh
        .iter()
        .map(|f| {
            let b = baseline.iter().find(|b| same(b, f));
            let comparable = b.is_some_and(|b| b.m == f.m && b.rate > 0.0 && f.rate > 0.0);
            let baseline_rate = b.map_or(0.0, |b| b.rate);
            let factor = if comparable {
                baseline_rate / f.rate
            } else {
                f64::INFINITY
            };
            CheckOutcome {
                name: f.name.clone(),
                fresh_rate: f.rate,
                baseline_rate,
                regression_factor: factor,
                pass: factor <= tolerance,
            }
        })
        .collect();
    for b in baseline {
        if !fresh.iter().any(|f| same(f, b)) {
            outcomes.push(CheckOutcome {
                name: b.name.clone(),
                fresh_rate: 0.0,
                baseline_rate: b.rate,
                regression_factor: f64::INFINITY,
                pass: false,
            });
        }
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(bench: Bench, name: &str, m: usize, rate: f64) -> Row {
        Row {
            bench,
            name: name.into(),
            m,
            median_s: 1.0,
            rate,
        }
    }

    const CSV: &str = "bench,name,m,median_s,rate\n\
        fit,naive,131072,0.721496,545001.1\n\
        fit,fused_v2,131072,1.431587,274671.4\n\
        predict,exact,131072,0.500000,262144.0\n\
        serve,batched64,16384,0.000635,149248629.6\n";

    #[test]
    fn parses_fit_rows_and_skips_others() {
        let rows = rows_of(&parse_ledger(CSV).unwrap(), Bench::Fit);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "naive");
        assert_eq!(rows[0].m, 131072);
        assert!((rows[0].rate - 545001.1).abs() < 1e-6);
    }

    #[test]
    fn kind_parameter_selects_predict_rows() {
        let rows = rows_of(&parse_ledger(CSV).unwrap(), Bench::Predict);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, "exact");
        assert!((rows[0].median_s - 0.5).abs() < 1e-12);
        let serve = rows_of(&parse_ledger(CSV).unwrap(), Bench::Serve);
        assert_eq!((serve[0].name.as_str(), serve[0].m), ("batched64", 16384));
    }

    #[test]
    fn malformed_line_is_an_error() {
        assert!(parse_ledger("fit,naive,xx\n").is_err());
        assert!(parse_ledger("").is_err());
        assert!(parse_ledger(LEDGER_HEADER).is_err(), "empty fails closed");
        assert!(parse_ledger("fit,naive,1,notafloat,9\n").is_err());
        assert!(
            parse_ledger("fit,naive,1.5,0.1,9\n").is_err(),
            "m is a count"
        );
    }

    #[test]
    fn unknown_bench_or_wrong_field_count_is_an_error() {
        let e = parse_ledger("launch_overhead,noop64,64,0.000001,0\n").unwrap_err();
        assert!(e.contains("unknown bench"), "{e}");
        // The old 8-field schema is rejected, not half-read.
        let e = parse_ledger("fit,naive,131072,64,16,3,0.72,545001.1\n").unwrap_err();
        assert!(e.contains("expected 5 fields"), "{e}");
        let e = parse_ledger("fit,naive,131072,0.72\n").unwrap_err();
        assert!(e.contains("expected 5 fields"), "{e}");
    }

    #[test]
    fn ledger_round_trips_every_bench() {
        let rows = vec![
            Row {
                bench: Bench::Fit,
                name: "tensor_v4".into(),
                m: 131072,
                median_s: 0.251234,
                rate: 1565123.4,
            },
            Row {
                bench: Bench::Predict,
                name: "int8".into(),
                m: 131072,
                median_s: 0.0625,
                rate: 2097152.0,
            },
            Row {
                bench: Bench::Serve,
                name: "paced64".into(),
                m: 16384,
                median_s: 0.000788,
                rate: 81000052.4,
            },
        ];
        let csv = write_ledger(&rows);
        assert!(csv.starts_with(LEDGER_HEADER));
        assert_eq!(parse_ledger(&csv).unwrap(), rows);
        assert_eq!(
            rows[1].to_csv(),
            "predict,int8,131072,0.062500000,2097152.0\n"
        );
    }

    #[test]
    fn within_band_passes_beyond_band_fails() {
        let baseline = parse_ledger(CSV).unwrap();
        let naive = |rate| [row(Bench::Fit, "naive", 131072, rate)];
        let pick = |out: Vec<CheckOutcome>| out.into_iter().find(|o| o.name == "naive").unwrap();
        // naive baseline rate 545001: 2x slower passes at tol 2.5 ...
        let o = pick(check(&naive(545001.1 / 2.0), &baseline, 2.5));
        assert!(o.pass, "{o:?}");
        assert!((o.regression_factor - 2.0).abs() < 1e-9);
        // ... 3x slower fails
        assert!(!pick(check(&naive(545001.1 / 3.0), &baseline, 2.5)).pass);
        // faster than baseline is of course fine
        assert!(pick(check(&naive(545001.1 * 4.0), &baseline, 2.5)).pass);
    }

    #[test]
    fn fresh_row_at_a_different_m_fails_closed() {
        let baseline = parse_ledger(CSV).unwrap();
        // Even a much faster rate cannot pass at another shape.
        let out = check(
            &[row(Bench::Fit, "naive", 16384, 545001.1 * 10.0)],
            &rows_of(&baseline, Bench::Fit),
            2.5,
        );
        assert!(!out[0].pass, "{out:?}");
        assert!(out[0].regression_factor.is_infinite());
    }

    #[test]
    fn missing_baseline_variant_fails_closed() {
        let baseline = parse_ledger(CSV).unwrap();
        let out = check(&[row(Bench::Fit, "tensor_v4", 131072, 1e6)], &baseline, 2.5);
        assert!(!out[0].pass);
        assert!(out[0].regression_factor.is_infinite());
        // A name from another bench is no substitute.
        let out = check(&[row(Bench::Fit, "exact", 131072, 1e6)], &baseline, 2.5);
        assert!(!out[0].pass);
    }

    #[test]
    fn baseline_variant_absent_from_fresh_run_fails_closed() {
        // A variant dropped (or renamed) in the fresh run must not pass
        // silently: the gate emits a failing outcome for the orphaned
        // baseline row.
        let baseline = rows_of(&parse_ledger(CSV).unwrap(), Bench::Fit);
        let out = check(&[row(Bench::Fit, "naive", 131072, 1e6)], &baseline, 2.5);
        assert_eq!(out.len(), 2);
        assert!(out[0].pass, "naive itself is fine");
        let orphan = &out[1];
        assert_eq!(orphan.name, "fused_v2");
        assert!(!orphan.pass);
        assert!(orphan.regression_factor.is_infinite());
    }
}
