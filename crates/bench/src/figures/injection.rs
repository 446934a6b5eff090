//! Figs. 17/18 (A100) and 21 (T4): FT K-means under error injection,
//! against Wu's ABFT under the same injection rate.
//!
//! Two parts per figure:
//!
//! 1. **throughput series** (timing model, paper scale): cuML, FT K-means,
//!    FT K-means w/ FT, FT K-means w/ FT under injection, Wu's w/
//!    injection;
//! 2. **functional campaign** (reduced M): real bit flips injected into the
//!    simulated MMA stream during full K-means fits; the report records
//!    injected/detected/corrected counts and whether the final clustering
//!    matches the fault-free run.

use crate::figures::{best_tuned_gflops, feasible_params, gflops_for_params, M};
use crate::paper::injection as paper;
use crate::report::{fmt_gflops, FigureReport};
use abft::SchemeKind;
use codegen::KernelParams;
use fault::CampaignStats;
use gpu_sim::timing::FtMode;
use gpu_sim::{DeviceProfile, Matrix, Precision, Scalar};
use kmeans::{FtConfig, KMeansConfig, Session, Variant};

/// Injection rate used by the throughput series — "tens of errors injected
/// per second".
pub const INJECTION_RATE_HZ: f64 = 50.0;

fn panels() -> [(&'static str, bool, usize); 4] {
    [
        ("K=8", true, 8),
        ("K=128", true, 128),
        ("N=8", false, 8),
        ("N=128", false, 128),
    ]
}

fn xs(quick: bool) -> Vec<usize> {
    if quick {
        vec![8, 64, 128]
    } else {
        (1..=16).map(|i| i * 8).collect()
    }
}

/// Shared engine: throughput series under injection.
pub fn run_injection(
    id: &str,
    device: &DeviceProfile,
    precision: Precision,
    quick: bool,
) -> FigureReport {
    let mut rep = FigureReport::new(
        id,
        format!("error injection, {} {}", device.name, precision.name()),
        &[
            "panel",
            "x",
            "cuML",
            "FT K-Means",
            "FT K-Means w/ FT",
            "FT K-Means w/ err. inj.",
            "Wu's w/ err. inj.",
        ],
    );
    let feasible = feasible_params(device, precision);
    let cuml = KernelParams::cuml(precision);
    let mut inj_overhead = 0.0;
    let mut wu_ratio = 0.0;
    let mut count = 0usize;
    for (label, sweep_features, fixed) in panels() {
        for x in xs(quick) {
            let (clusters, dim) = if sweep_features {
                (fixed, x)
            } else {
                (x, fixed)
            };
            let cu = gflops_for_params(
                device,
                precision,
                &cuml,
                M,
                clusters,
                dim,
                FtMode::None,
                0.0,
            );
            let (plain, _) = best_tuned_gflops(
                device,
                precision,
                &feasible,
                M,
                clusters,
                dim,
                FtMode::None,
                0.0,
            );
            let (ft, _) = best_tuned_gflops(
                device,
                precision,
                &feasible,
                M,
                clusters,
                dim,
                FtMode::FtKMeans,
                0.0,
            );
            let (inj, _) = best_tuned_gflops(
                device,
                precision,
                &feasible,
                M,
                clusters,
                dim,
                FtMode::FtKMeans,
                INJECTION_RATE_HZ,
            );
            let (wu, _) = best_tuned_gflops(
                device,
                precision,
                &feasible,
                M,
                clusters,
                dim,
                FtMode::Wu,
                INJECTION_RATE_HZ,
            );
            inj_overhead += ft / inj - 1.0;
            wu_ratio += inj / wu;
            count += 1;
            rep.push_row(vec![
                label.to_string(),
                x.to_string(),
                fmt_gflops(cu),
                fmt_gflops(plain),
                fmt_gflops(ft),
                fmt_gflops(inj),
                fmt_gflops(wu),
            ]);
        }
    }
    rep.note(format!(
        "mean extra overhead of injection over FT: {:.2}%; FT-under-injection vs Wu-under-injection: {:.2}x",
        inj_overhead / count as f64 * 100.0,
        wu_ratio / count as f64
    ));
    rep
}

/// Outcome of one functional injection campaign.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// The injected fit's fault record.
    pub ft_stats: CampaignStats,
    /// Bitwise-identical final assignment (FP64 with its tight threshold
    /// achieves this; FP32/TF32 may flip near-tie assignments on
    /// below-threshold mantissa flips — the paper's threshold δ faces the
    /// same physics).
    pub labels_match_clean: bool,
    /// Fraction of samples assigned identically to the clean run.
    pub label_agreement: f64,
    /// Relative difference of the final inertia vs the clean run — the
    /// clustering-quality criterion.
    pub inertia_rel_diff: f64,
}

/// Run a functional campaign: fit twice (clean, injected) at reduced scale
/// and compare.
pub fn functional_campaign<T: Scalar>(
    device: &DeviceProfile,
    m: usize,
    dim: usize,
    k: usize,
    per_block_probability: f64,
    seed: u64,
) -> CampaignOutcome {
    let data: Matrix<T> = synth_data(m, dim, k, seed);
    let base_cfg = KMeansConfig {
        k,
        max_iter: 6,
        tol: 0.0,
        seed,
        variant: Variant::Tensor(None),
        ..Default::default()
    };
    let clean_cfg = KMeansConfig {
        ft: FtConfig {
            scheme: SchemeKind::FtKMeans,
            dmr_update: true,
            ..Default::default()
        },
        ..base_cfg.clone()
    };
    let inj_cfg = KMeansConfig {
        ft: FtConfig {
            scheme: SchemeKind::FtKMeans,
            dmr_update: true,
            injection: fault::InjectionSchedule::PerBlock {
                probability: per_block_probability,
            },
            injection_seed: seed.wrapping_mul(31) + 7,
            ..Default::default()
        },
        ..base_cfg
    };
    // One session serves both fits (the estimator-lifecycle path).
    let session = Session::new(device.clone());
    let clean = session
        .kmeans(clean_cfg)
        .fit_model(&data)
        .expect("clean fit");
    let injected = session
        .kmeans(inj_cfg)
        .fit_model(&data)
        .expect("injected fit");
    let agree = clean
        .labels
        .iter()
        .zip(&injected.labels)
        .filter(|(a, b)| a == b)
        .count() as f64
        / m as f64;
    let denom = clean.inertia.abs().max(1e-12);
    CampaignOutcome {
        ft_stats: injected.ft_stats,
        labels_match_clean: injected.labels == clean.labels,
        label_agreement: agree,
        inertia_rel_diff: (injected.inertia - clean.inertia).abs() / denom,
    }
}

fn synth_data<T: Scalar>(m: usize, dim: usize, k: usize, seed: u64) -> Matrix<T> {
    // Deterministic well-separated blobs (no dependency on ftk-data to keep
    // the harness layering flat).
    Matrix::from_fn(m, dim, |r, c| {
        let cluster = (r % k) as f64;
        let jitter =
            (((r * 2654435761 + c * 40503 + seed as usize) % 1000) as f64 / 1000.0 - 0.5) * 0.4;
        T::from_f64(cluster * 8.0 + jitter + c as f64 * 0.01)
    })
}

fn campaign_rows<T: Scalar>(device: &DeviceProfile, rep: &mut FigureReport, quick: bool) {
    let (m, dim, k) = if quick { (1024, 16, 8) } else { (4096, 32, 16) };
    let out = functional_campaign::<T>(device, m, dim, k, 0.35, 17);
    rep.note(format!(
        "functional campaign (M={m}, N={dim}, K={k}): injected {}, corrected {}, rebaselined {}, \
         recomputed {}, DMR mismatches {}; label agreement {:.2}%, inertia drift {:.2e}, \
         bitwise-identical: {}",
        out.ft_stats.injected,
        out.ft_stats.corrected,
        out.ft_stats.rebaselined,
        out.ft_stats.recomputed,
        out.ft_stats.dmr_mismatches,
        out.label_agreement * 100.0,
        out.inertia_rel_diff,
        out.labels_match_clean
    ));
}

/// Fig. 17 — A100 FP32 under injection.
pub fn fig17(quick: bool) -> FigureReport {
    let dev = DeviceProfile::a100();
    let mut rep = run_injection("fig17", &dev, Precision::Fp32, quick);
    campaign_rows::<f32>(&dev, &mut rep, quick);
    rep.note(format!(
        "paper: avg injection overhead {:.2}%, Wu's scheme ≈ +{:.0}% from its non-async baseline",
        paper::FP32_AVG_PCT,
        paper::WU_OVERHEAD_PCT
    ));
    rep
}

/// Fig. 18 — A100 FP64 under injection.
pub fn fig18(quick: bool) -> FigureReport {
    let dev = DeviceProfile::a100();
    let mut rep = run_injection("fig18", &dev, Precision::Fp64, quick);
    campaign_rows::<f64>(&dev, &mut rep, quick);
    rep.note(format!(
        "paper: avg {:.2}% (K=8 {:.2}%, K=128 {:.2}%)",
        paper::FP64_AVG_PCT,
        paper::FP64_K8_PCT,
        paper::FP64_K128_PCT
    ));
    rep
}

/// Fig. 21 — T4 FP32 under injection.
pub fn fig21(quick: bool) -> FigureReport {
    let dev = DeviceProfile::t4();
    let mut rep = run_injection("fig21", &dev, Precision::Fp32, quick);
    campaign_rows::<f32>(&dev, &mut rep, quick);
    rep.note(format!(
        "paper: FT overhead {:.0}% / {:.0}% under injection on T4; ≥{:.0}% better than Wu's \
         (threadblock-sync elimination)",
        crate::paper::t4::FT_OVERHEAD_PCT,
        crate::paper::t4::INJECTION_OVERHEAD_PCT,
        crate::paper::t4::VS_WU_IMPROVEMENT_PCT
    ));
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig17_injection_overhead_small_and_wu_worse() {
        let rep = fig17(true);
        let note = &rep.notes[0];
        assert!(note.contains("vs Wu-under-injection"));
        // FT under injection must beat Wu under injection on average.
        let ratio: f64 = note
            .rsplit(' ')
            .next()
            .unwrap()
            .trim_end_matches('x')
            .parse()
            .unwrap();
        assert!(ratio > 1.1, "FT/Wu ratio {ratio}");
    }

    #[test]
    fn functional_campaign_absorbs_all_faults_fp64() {
        let out = functional_campaign::<f64>(&DeviceProfile::a100(), 512, 16, 4, 0.6, 3);
        assert!(out.ft_stats.injected > 0, "campaign must inject something");
        assert!(
            out.labels_match_clean,
            "FP64 FT must absorb every fault: {out:?}"
        );
        assert!(out.inertia_rel_diff < 1e-9);
    }

    #[test]
    fn functional_campaign_preserves_quality_fp32() {
        // FP32/TF32 detection has a coarse threshold δ; below-threshold
        // mantissa flips may move near-tie assignments but must not damage
        // clustering quality.
        let out = functional_campaign::<f32>(&DeviceProfile::a100(), 1024, 16, 8, 0.5, 11);
        assert!(out.ft_stats.injected > 0);
        assert!(
            out.label_agreement > 0.99,
            "agreement {:.4}",
            out.label_agreement
        );
        assert!(
            out.inertia_rel_diff < 1e-2,
            "inertia drift {:.3e}",
            out.inertia_rel_diff
        );
    }

    #[test]
    fn fig21_runs_on_t4() {
        let rep = fig21(true);
        assert!(rep.title.contains("Tesla-T4"));
        assert!(!rep.rows.is_empty());
    }
}
