//! Error-bound policy for quantized-table predict (the serving-path
//! analogue of [`crate::bounds::BoundPolicy`]).
//!
//! The fused quantized predict kernel scores every sample against a
//! *dequantized* centroid table, so its computed squared distances `d̂_j`
//! differ from the exact-table distances `d_j` two ways:
//!
//! 1. **Quantization displacement.** The dequantized centroid `ĉ_j` sits at
//!    Euclidean distance `e_j = ‖c_j − ĉ_j‖` from the true centroid —
//!    computed *exactly* at table-build time, not estimated. By the
//!    triangle inequality `|‖x−c_j‖ − ‖x−ĉ_j‖| ≤ e_j`, so in squared space
//!    `d_j ≥ (√d̂_j − e_j)²` and `d_a ≤ (√d̂_a + e_a)²`.
//! 2. **FP accumulation noise.** Both the quantized scan (norm-identity
//!    form `‖x‖² + ‖ĉ‖² − 2x·ĉ`, subject to cancellation at the magnitude
//!    scale `‖x‖² + ‖ĉ‖²`) and the reference scan it must agree with
//!    (direct `Σ(x−y)²`) carry a relative noise floor of order `dim·ε`.
//!
//! [`QuantMargin::accepts`] admits a quantized argmin only when the gap to
//! the runner-up dominates *both* sources: using `√s − √b > e` ⟺
//! `s − b > e·(√s + √b)`, the quantization term charges the winner's own
//! displacement plus the table-wide maximum (any non-runner-up centroid
//! could carry the maximum), and the FP term charges the same `4·(dim+16)·ε`
//! slack [`crate::bounds::BoundPolicy`] uses, scaled by the magnitude at
//! which the norm-identity cancellation occurs. A rejected sample falls
//! back to the exact fp row scan, so predict stays label-exact while the
//! common case runs quantized.

use gpu_sim::Precision;

/// Acceptance bound for a quantized argmin: the margin between best and
/// runner-up quantized distances must clear the quantization-induced
/// distance slack plus the FP accumulation noise floor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantMargin {
    /// Largest per-centroid quantization displacement `max_j ‖c_j − ĉ_j‖`
    /// (exact, computed at table build).
    pub err_norm_max: f64,
    /// Relative FP noise slack of the accumulation format — `4·(dim+16)·ε`,
    /// the same floor [`crate::bounds::BoundPolicy`] dominates.
    pub rel_slack: f64,
}

impl QuantMargin {
    /// Policy for a table with worst-case displacement `err_norm_max`,
    /// accumulating in precision `accum` over `dim` features.
    pub fn new(err_norm_max: f64, accum: Precision, dim: usize) -> Self {
        let eps = match accum {
            Precision::Fp32 => f32::EPSILON as f64,
            Precision::Fp64 => f64::EPSILON,
        };
        QuantMargin {
            err_norm_max,
            rel_slack: 4.0 * (dim as f64 + 16.0) * eps,
        }
    }

    /// The slack (in squared-distance units) the best/runner-up gap must
    /// exceed for the quantized argmin to be provably the exact-table
    /// argmin *and* beyond the reference scan's rounding noise. `err_best`
    /// is the winner's own displacement `e_a`; `mag_sq` the cancellation
    /// magnitude `‖x‖² + max_j ‖ĉ_j‖²` of the norm-identity evaluation.
    pub fn slack_sq(&self, best_sq: f64, second_sq: f64, err_best: f64, mag_sq: f64) -> f64 {
        let b = best_sq.max(0.0);
        let s = second_sq.max(0.0);
        let e = err_best + self.err_norm_max;
        e * (b.sqrt() + s.sqrt()) + e * e + 4.0 * self.rel_slack * mag_sq.max(0.0)
    }

    /// True when the quantized argmin is safe to accept: the runner-up gap
    /// exceeds [`QuantMargin::slack_sq`]. Non-finite inputs (NaN distances,
    /// the `+∞` runner-up sentinel of `k = 1`) always reject — the caller's
    /// exact fallback row handles them with reference semantics.
    pub fn accepts(&self, best_sq: f64, second_sq: f64, err_best: f64, mag_sq: f64) -> bool {
        if !(best_sq.is_finite() && second_sq.is_finite() && mag_sq.is_finite()) {
            return false;
        }
        second_sq - best_sq > self.slack_sq(best_sq, second_sq, err_best, mag_sq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_table_still_needs_fp_margin() {
        // err 0: the policy degenerates to an FP-noise margin check.
        let p = QuantMargin::new(0.0, Precision::Fp32, 64);
        assert!(p.accepts(1.0, 2.0, 0.0, 3.0), "wide gap accepted");
        assert!(!p.accepts(1.0, 1.0, 0.0, 3.0), "tie always rejected");
        // a gap inside the FP noise band is rejected
        let tiny_gap = 1.0 + p.rel_slack * 3.0 * 0.5;
        assert!(!p.accepts(1.0, tiny_gap, 0.0, 3.0));
    }

    #[test]
    fn quantization_error_widens_the_required_margin() {
        let tight = QuantMargin::new(1e-6, Precision::Fp32, 64);
        let loose = QuantMargin::new(0.5, Precision::Fp32, 64);
        assert!(tight.slack_sq(1.0, 4.0, 1e-6, 5.0) < loose.slack_sq(1.0, 4.0, 0.5, 5.0));
        // gap 3 in sqrt space is 2−1=1; a displacement sum of ~1 must reject
        assert!(tight.accepts(1.0, 4.0, 1e-6, 5.0));
        assert!(!loose.accepts(1.0, 4.0, 0.5, 5.0));
    }

    #[test]
    fn winner_displacement_is_charged_separately() {
        let p = QuantMargin::new(0.01, Precision::Fp32, 8);
        // same table-wide max, bigger winner displacement → bigger slack
        assert!(p.slack_sq(1.0, 4.0, 0.2, 5.0) > p.slack_sq(1.0, 4.0, 0.0, 5.0));
    }

    #[test]
    fn non_finite_inputs_always_reject() {
        let p = QuantMargin::new(0.0, Precision::Fp64, 8);
        assert!(!p.accepts(f64::NAN, 2.0, 0.0, 1.0));
        assert!(!p.accepts(1.0, f64::INFINITY, 0.0, 1.0), "k = 1 sentinel");
        assert!(!p.accepts(1.0, 2.0, 0.0, f64::NAN));
    }

    #[test]
    fn sqrt_space_identity_holds() {
        // accepts ⟹ √s − √b > e_a + e_max (the triangle-inequality form).
        let p = QuantMargin::new(0.3, Precision::Fp64, 4);
        for (b, s, ea) in [(0.5, 9.0, 0.1), (0.0, 4.0, 0.3), (2.0, 2.4, 0.0)] {
            if p.accepts(b, s, ea, b + s) {
                assert!(f64::sqrt(s) - f64::sqrt(b) > ea + p.err_norm_max);
            }
        }
    }
}
