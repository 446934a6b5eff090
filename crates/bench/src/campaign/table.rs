//! Aggregate cell outcomes into the paper's §V-C detection / correction /
//! SDC tables (one row per scheme × precision × rate) and render
//! per-injection JSONL logs.
//!
//! Every formatted value is a pure function of the outcomes, and outcomes
//! are ordered by cell index, so the rendered table is byte-identical
//! across runs and execution policies — the committed baseline compares
//! with `==`.

use super::grid::{scheme_token, variant_token};
use super::runner::CellOutcome;
use crate::report::FigureReport;
use fault::CampaignStats;

/// One aggregated row: all cells sharing (scheme, precision, variant, rate).
#[derive(Debug, Clone)]
pub struct CampaignRow {
    /// Scheme token (`ftkmeans` / `kosaian` / `wu` / `none`).
    pub scheme: String,
    /// Precision name (`fp32` / `fp64`).
    pub precision: String,
    /// Kernel-variant token (`tensor_v4` / `hamerly`).
    pub variant: String,
    /// Requested rate in errors per modeled second.
    pub rate_hz: f64,
    /// Mean achieved rate after the per-block clamp.
    pub achieved_hz: f64,
    /// Cells aggregated into this row.
    pub cells: usize,
    /// Cells whose result was corrupted (SDC verdict).
    pub sdc_cells: usize,
    /// Summed campaign ledger.
    pub stats: CampaignStats,
}

impl CampaignRow {
    /// Detected faults including update-phase DMR mismatches.
    pub fn detected_total(&self) -> u64 {
        self.stats.detected + self.stats.dmr_mismatches
    }

    /// Repaired faults (in-place corrections, re-baselines, recomputations
    /// and DMR majority votes).
    pub fn handled_total(&self) -> u64 {
        self.stats.handled() + self.stats.dmr_mismatches
    }

    /// Fraction of injected faults visibly detected.
    pub fn detection_rate(&self) -> Option<f64> {
        ratio(self.detected_total(), self.stats.injected)
    }

    /// Fraction of detected faults repaired.
    pub fn correction_rate(&self) -> Option<f64> {
        ratio(self.handled_total(), self.detected_total())
    }

    /// Fraction of injected faults that caused silent data corruption.
    pub fn sdc_rate(&self) -> Option<f64> {
        ratio(self.stats.sdc, self.stats.injected)
    }
}

fn ratio(num: u64, den: u64) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

/// Group outcomes by (scheme, precision, variant, rate) preserving
/// first-seen order (which is grid-expansion order, since outcomes arrive
/// by cell index).
pub fn aggregate(outcomes: &[CellOutcome]) -> Vec<CampaignRow> {
    let mut rows: Vec<CampaignRow> = Vec::new();
    for o in outcomes {
        let scheme = scheme_token(o.cell.scheme).to_string();
        let precision = o.cell.precision.name().to_string();
        let variant = variant_token(o.cell.variant).to_string();
        let row = match rows.iter_mut().find(|r| {
            r.scheme == scheme
                && r.precision == precision
                && r.variant == variant
                && r.rate_hz == o.cell.rate_hz
        }) {
            Some(r) => r,
            None => {
                rows.push(CampaignRow {
                    scheme,
                    precision,
                    variant,
                    rate_hz: o.cell.rate_hz,
                    achieved_hz: 0.0,
                    cells: 0,
                    sdc_cells: 0,
                    stats: CampaignStats::default(),
                });
                rows.last_mut().expect("just pushed")
            }
        };
        row.cells += 1;
        row.sdc_cells += o.verdict.is_sdc as usize;
        row.stats.merge(&o.stats);
        row.achieved_hz += o.realization.map_or(0.0, |r| r.achieved_hz);
    }
    for r in &mut rows {
        if r.cells > 0 {
            r.achieved_hz /= r.cells as f64;
        }
    }
    rows
}

/// Render the aggregated detection/correction/SDC table.
pub fn campaign_table(outcomes: &[CellOutcome]) -> FigureReport {
    let mut rep = FigureReport::new(
        "campaign",
        "fault-injection campaign: detection / correction / SDC by scheme, precision, variant \
         and rate",
        &[
            "scheme",
            "precision",
            "variant",
            "rate_hz",
            "achieved_hz",
            "cells",
            "injected",
            "detected",
            "corrected",
            "rebaselined",
            "recomputed",
            "dmr",
            "benign",
            "sdc",
            "detection_rate",
            "correction_rate",
            "sdc_rate",
            "sdc_cells",
        ],
    );
    let rows = aggregate(outcomes);
    for r in &rows {
        rep.push_row(vec![
            r.scheme.clone(),
            r.precision.clone(),
            r.variant.clone(),
            format!("{:.1}", r.rate_hz),
            format!("{:.1}", r.achieved_hz),
            r.cells.to_string(),
            r.stats.injected.to_string(),
            r.stats.detected.to_string(),
            r.stats.corrected.to_string(),
            r.stats.rebaselined.to_string(),
            r.stats.recomputed.to_string(),
            r.stats.dmr_mismatches.to_string(),
            r.stats.benign.to_string(),
            r.stats.sdc.to_string(),
            fmt_rate(r.detection_rate()),
            fmt_rate(r.correction_rate()),
            fmt_rate(r.sdc_rate()),
            r.sdc_cells.to_string(),
        ]);
    }
    let saturated: u64 = rows.iter().map(|r| r.stats.saturated_launches).sum();
    let launches: u64 = rows.iter().map(|r| r.stats.injection_launches).sum();
    if saturated > 0 {
        rep.note(format!(
            "{saturated}/{launches} injected launches saturated the per-block probability clamp \
             (achieved_hz < rate_hz): the schedule cannot deliver more than one fault per \
             threadblock per launch"
        ));
    }
    let total_injected: u64 = rows.iter().map(|r| r.stats.injected).sum();
    let total_sdc: u64 = rows.iter().map(|r| r.stats.sdc).sum();
    rep.note(format!(
        "{} cells, {total_injected} faults injected, {total_sdc} classified SDC; rates are \
         errors per modeled second of GPU residency (paper §V-C protocol)",
        outcomes.len()
    ));
    rep
}

/// Render every injection of every cell as one JSON object per line.
///
/// Hand-rolled serialization (the workspace has no serialization crate);
/// all fields are numbers, booleans or fixed tokens, so no string escaping
/// is needed.
pub fn records_jsonl(outcomes: &[CellOutcome]) -> String {
    let mut s = String::new();
    for o in outcomes {
        for r in &o.records {
            let field = format!("{:?}", r.field()).to_ascii_lowercase();
            s.push_str(&format!(
                concat!(
                    "{{\"cell\":{},\"scheme\":\"{}\",\"precision\":\"{}\",\"variant\":\"{}\",",
                    "\"rate_hz\":{},",
                    "\"rep\":{},\"shape\":\"{}\",\"block\":[{},{}],\"warp\":{},\"k_step\":{},",
                    "\"hit_checksum\":{},\"elem_idx\":{},\"bit\":{},\"width\":{},\"field\":\"{}\",",
                    "\"magnitude\":{},\"cell_sdc\":{}}}\n"
                ),
                o.cell.idx,
                scheme_token(o.cell.scheme),
                o.cell.precision.name(),
                variant_token(o.cell.variant),
                o.cell.rate_hz,
                o.cell.rep,
                o.cell.shape.label(),
                r.block.0,
                r.block.1,
                r.warp,
                r.k_step,
                r.hit_checksum,
                r.elem_idx,
                r.bit,
                r.width,
                field,
                json_f64(r.magnitude),
                o.verdict.is_sdc,
            ));
        }
    }
    s
}

fn fmt_rate(r: Option<f64>) -> String {
    match r {
        Some(v) => format!("{v:.4}"),
        None => "-".to_string(),
    }
}

/// JSON has no NaN/inf literals; a flipped exponent bit can produce both.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::super::classify::Classification;
    use super::super::grid::{CampaignCell, DataShape};
    use super::*;
    use abft::SchemeKind;
    use fault::{InjectionRecord, RateRealization};
    use gpu_sim::Precision;
    use kmeans::Variant;

    fn outcome(scheme: SchemeKind, rate: f64, injected: u64, sdc: bool) -> CellOutcome {
        CellOutcome {
            cell: CampaignCell {
                idx: 0,
                rate_hz: rate,
                scheme,
                precision: Precision::Fp32,
                variant: Variant::Tensor(None),
                shape: DataShape {
                    m: 64,
                    dim: 4,
                    k: 2,
                },
                rep: 0,
                seed: 1,
            },
            stats: {
                let mut s = CampaignStats {
                    injected,
                    detected: injected / 2,
                    corrected: injected / 2,
                    ..Default::default()
                };
                s.classify_unhandled(sdc);
                s
            },
            realization: Some(RateRealization {
                requested_hz: rate,
                achieved_hz: rate,
            }),
            verdict: Classification {
                label_agreement: if sdc { 0.5 } else { 1.0 },
                inertia_rel_diff: 0.0,
                labels_match: !sdc,
                is_sdc: sdc,
            },
            iterations: 4,
            records: vec![InjectionRecord {
                block: (0, 1),
                warp: 2,
                k_step: 8,
                hit_checksum: false,
                elem_idx: 3,
                bit: 30,
                width: 32,
                magnitude: 2.5,
            }],
        }
    }

    #[test]
    fn aggregation_merges_same_coordinates() {
        let outs = vec![
            outcome(SchemeKind::FtKMeans, 50.0, 10, false),
            outcome(SchemeKind::FtKMeans, 50.0, 6, true),
            outcome(SchemeKind::Wu, 50.0, 4, false),
        ];
        let rows = aggregate(&outs);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].cells, 2);
        assert_eq!(rows[0].stats.injected, 16);
        assert_eq!(rows[0].sdc_cells, 1);
        assert_eq!(rows[1].scheme, "wu");
    }

    #[test]
    fn rates_handle_zero_denominators() {
        let row = CampaignRow {
            scheme: "none".into(),
            precision: "fp32".into(),
            variant: "tensor_v4".into(),
            rate_hz: 0.0,
            achieved_hz: 0.0,
            cells: 1,
            sdc_cells: 0,
            stats: CampaignStats::default(),
        };
        assert_eq!(row.detection_rate(), None);
        assert_eq!(row.correction_rate(), None);
        assert_eq!(row.sdc_rate(), None);
        assert_eq!(fmt_rate(None), "-");
        assert_eq!(fmt_rate(Some(0.99555)), "0.9956");
    }

    #[test]
    fn table_has_one_row_per_group_and_stable_columns() {
        let outs = vec![
            outcome(SchemeKind::FtKMeans, 50.0, 10, false),
            outcome(SchemeKind::Kosaian, 50.0, 8, false),
        ];
        let rep = campaign_table(&outs);
        assert_eq!(rep.rows.len(), 2);
        assert_eq!(rep.columns.len(), rep.rows[0].len());
        assert_eq!(rep.id, "campaign");
        let csv = rep.to_csv();
        assert!(csv.contains("ftkmeans,fp32,tensor_v4,50.0"));
    }

    #[test]
    fn jsonl_lines_parse_shape() {
        let outs = vec![outcome(SchemeKind::Wu, 50.0, 1, false)];
        let j = records_jsonl(&outs);
        assert_eq!(j.lines().count(), 1);
        let line = j.lines().next().unwrap();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"scheme\":\"wu\""));
        assert!(line.contains("\"variant\":\"tensor_v4\""));
        assert!(line.contains("\"bit\":30"));
        assert!(line.contains("\"field\":\"exponent\""));
        assert!(line.contains("\"magnitude\":2.5"));
    }

    #[test]
    fn non_finite_magnitudes_stay_valid_json() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1.5), "1.5");
    }
}
