//! SDC classification: compare an injected fit against its fault-free twin
//! and split the unhandled faults into *benign* (result preserved) vs *SDC*
//! (silent data corruption — the result diverged with no detection).
//!
//! The twin shares data, seeding, scheme and numerics with the injected
//! run, so the comparison isolates the effect of the faults the FT layer
//! did **not** visibly handle. Classification is conservative at cell
//! granularity: when the final clustering is corrupted, every unhandled
//! fault of that fit is charged as SDC (any of them could have been the
//! culprit); when it is preserved, all of them were benign.

use gpu_sim::{Precision, Scalar};
use kmeans::FitResult;

/// Tolerances deciding when an injected result counts as corrupted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SdcPolicy {
    /// Minimum fraction of samples assigned identically to the twin.
    pub min_label_agreement: f64,
    /// Maximum relative difference of final inertia vs. the twin.
    pub max_inertia_rel_diff: f64,
}

impl SdcPolicy {
    /// Per-precision defaults mirroring the repo's FT guarantees: FP64's
    /// tight detection threshold δ yields bitwise-identical clusterings, so
    /// any divergence is SDC; FP32/TF32's coarser δ admits below-threshold
    /// mantissa flips that may move near-tie assignments without damaging
    /// clustering quality, so small drift is benign (the paper's threshold
    /// faces the same physics).
    pub fn for_precision(p: Precision) -> Self {
        match p {
            Precision::Fp32 => SdcPolicy {
                min_label_agreement: 0.99,
                max_inertia_rel_diff: 1e-2,
            },
            Precision::Fp64 => SdcPolicy {
                min_label_agreement: 1.0,
                max_inertia_rel_diff: 1e-9,
            },
        }
    }
}

/// Outcome of comparing an injected fit against its fault-free twin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Classification {
    /// Fraction of samples assigned identically to the twin.
    pub label_agreement: f64,
    /// Relative difference of final inertia vs. the twin.
    pub inertia_rel_diff: f64,
    /// Bitwise-identical final assignment.
    pub labels_match: bool,
    /// True when the result diverged beyond the policy's tolerances — the
    /// fit suffered silent data corruption.
    pub is_sdc: bool,
}

/// Compare `injected` against its fault-free `clean` twin under `policy`.
pub fn classify<T: Scalar>(
    clean: &FitResult<T>,
    injected: &FitResult<T>,
    policy: &SdcPolicy,
) -> Classification {
    assert_eq!(
        clean.labels.len(),
        injected.labels.len(),
        "twin runs must cover the same samples"
    );
    let n = clean.labels.len().max(1);
    let same = clean
        .labels
        .iter()
        .zip(&injected.labels)
        .filter(|(a, b)| a == b)
        .count();
    let label_agreement = same as f64 / n as f64;
    let denom = clean.inertia.abs().max(1e-12);
    let inertia_rel_diff = (injected.inertia - clean.inertia).abs() / denom;
    let is_sdc = label_agreement < policy.min_label_agreement
        || inertia_rel_diff > policy.max_inertia_rel_diff
        || !injected.inertia.is_finite();
    Classification {
        label_agreement,
        inertia_rel_diff,
        labels_match: clean.labels == injected.labels,
        is_sdc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault::CampaignStats;
    use gpu_sim::counters::CounterSnapshot;
    use gpu_sim::Matrix;

    fn result(labels: Vec<u32>, inertia: f64) -> FitResult<f64> {
        FitResult {
            centroids: Matrix::zeros(1, 1),
            labels,
            inertia,
            iterations: 1,
            converged: true,
            ft_stats: CampaignStats::default(),
            counters: CounterSnapshot::default(),
            injection_records: Vec::new(),
            injection_realization: None,
            history: Vec::new(),
        }
    }

    #[test]
    fn identical_results_are_benign() {
        let clean = result(vec![0, 1, 2, 1], 10.0);
        let hit = result(vec![0, 1, 2, 1], 10.0);
        let c = classify(&clean, &hit, &SdcPolicy::for_precision(Precision::Fp64));
        assert!(!c.is_sdc);
        assert!(c.labels_match);
        assert_eq!(c.label_agreement, 1.0);
        assert_eq!(c.inertia_rel_diff, 0.0);
    }

    #[test]
    fn fp64_policy_flags_any_label_flip() {
        let clean = result(vec![0; 100], 10.0);
        let mut flipped = vec![0; 100];
        flipped[7] = 1;
        let hit = result(flipped, 10.0);
        let c = classify(&clean, &hit, &SdcPolicy::for_precision(Precision::Fp64));
        assert!(c.is_sdc, "one flipped label out of 100 is SDC at fp64");
        assert!((c.label_agreement - 0.99).abs() < 1e-12);
    }

    #[test]
    fn fp32_policy_tolerates_near_tie_flips() {
        let clean = result(vec![0; 1000], 10.0);
        let mut flipped = vec![0; 1000];
        flipped[3] = 1; // 99.9% agreement
        let hit = result(flipped, 10.0 * (1.0 + 1e-3));
        let c = classify(&clean, &hit, &SdcPolicy::for_precision(Precision::Fp32));
        assert!(!c.is_sdc, "{c:?}");
        assert!(!c.labels_match);
    }

    #[test]
    fn inertia_explosion_is_sdc_even_with_matching_labels() {
        let clean = result(vec![0, 1], 10.0);
        let hit = result(vec![0, 1], 14.0);
        let c = classify(&clean, &hit, &SdcPolicy::for_precision(Precision::Fp32));
        assert!(c.is_sdc);
        let nan = result(vec![0, 1], f64::NAN);
        let c = classify(&clean, &nan, &SdcPolicy::for_precision(Precision::Fp32));
        assert!(c.is_sdc, "non-finite inertia is always SDC");
    }
}
