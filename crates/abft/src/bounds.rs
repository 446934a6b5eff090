//! Slack policy for triangle-inequality bound pruning (Hamerly).
//!
//! Bound-pruned assignment keeps per-sample distance bounds in Euclidean
//! (non-squared) space and skips the k-way scan whenever the upper bound
//! proves the assignment cannot change. Two floating-point hazards make a
//! naive implementation unsound against the reference kernel:
//!
//! 1. the scan it replaces accumulates `Σ (x−y)²` in FP, so its argmin can
//!    differ from the exact argmin by the accumulation noise floor, and
//! 2. the bounds themselves are maintained by FP adds/subtracts of centroid
//!    drifts, accumulating their own rounding error over iterations.
//!
//! The policy here makes prune decisions *provably consistent* with the
//! reference scan: every upper bound is inflated by a relative slack and
//! every lower bound deflated by it, where the slack dominates the scan's
//! worst-case accumulation error (a sum of `dim` non-negative terms has
//! relative error ≤ `(dim+1)·ε`; the slack is `4·(dim+16)·ε`). A prune then
//! implies a true relative gap the reference's rounding noise cannot
//! bridge, so the pruned label equals the reference's FP argmin bit for
//! bit. The same slack gives revalidation its false-alarm immunity: a
//! recomputed distance only counts as a bound violation when it disagrees
//! beyond the slack band, which rounding cannot cause — any trip is a real
//! corruption.

use gpu_sim::{Precision, Scalar};

/// Relative slack applied to Hamerly bounds: upper bounds are multiplied by
/// `1 + rel_slack`, lower bounds (and centroid-separation radii) by
/// `1 - rel_slack`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundPolicy {
    /// The relative slack; dominates the distance scan's FP noise floor.
    pub rel_slack: f64,
}

impl BoundPolicy {
    /// Policy for a precision and feature dimension: `4·(dim+16)·ε` with ε
    /// the format's machine epsilon. The `+16` keeps a margin even at tiny
    /// dimensions; the factor 4 puts the slack a comfortable factor above
    /// the `(dim+1)·ε` worst-case relative error of the non-negative-term
    /// accumulation it must dominate.
    pub fn for_precision(p: Precision, dim: usize) -> Self {
        let eps = match p {
            Precision::Fp32 => f32::EPSILON as f64,
            Precision::Fp64 => f64::EPSILON,
        };
        BoundPolicy {
            rel_slack: 4.0 * (dim as f64 + 16.0) * eps,
        }
    }

    /// Round `x` up by the slack — safe for upper bounds.
    pub fn inflate<T: Scalar>(&self, x: T) -> T {
        x * T::from_f64(1.0 + self.rel_slack)
    }

    /// Round `x` down by the slack — safe for lower bounds.
    pub fn deflate<T: Scalar>(&self, x: T) -> T {
        x * T::from_f64(1.0 - self.rel_slack)
    }

    /// True when a stored upper bound sits *below* the recomputed exact
    /// distance by more than the slack band — impossible under fault-free
    /// maintenance, so it signals a corrupted bound. Non-finite stored
    /// values other than `+∞` (which is a valid "unbounded" upper bound)
    /// also trip.
    pub fn upper_violates<T: Scalar>(&self, stored: T, exact: T) -> bool {
        if !stored.is_finite_s() {
            return stored != T::INFINITY;
        }
        stored < self.deflate(exact)
    }

    /// True when a stored lower bound sits *above* the recomputed exact
    /// second-closest distance by more than the slack band. NaN trips;
    /// `-∞` (an over-deflated but sound lower bound) does not.
    pub fn lower_violates<T: Scalar>(&self, stored: T, exact_second: T) -> bool {
        if stored.to_f64().is_nan() {
            return true; // NaN is never a sound bound
        }
        if exact_second == T::INFINITY {
            // k = 1: there is no second centroid, any bound is sound
            return false;
        }
        if !stored.is_finite_s() {
            // +∞ claims every other centroid is infinitely far; −∞ is just
            // an over-deflated (useless but sound) bound
            return stored == T::INFINITY;
        }
        stored > self.inflate(exact_second)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slack_scales_with_dim_and_precision() {
        let a = BoundPolicy::for_precision(Precision::Fp64, 8);
        let b = BoundPolicy::for_precision(Precision::Fp64, 256);
        assert!(b.rel_slack > a.rel_slack);
        let c = BoundPolicy::for_precision(Precision::Fp32, 8);
        assert!(c.rel_slack > a.rel_slack, "fp32 noise floor is coarser");
        // slack stays far below anything that would cost pruning power
        assert!(c.rel_slack < 1e-3);
    }

    #[test]
    fn inflate_deflate_bracket_the_value() {
        let p = BoundPolicy::for_precision(Precision::Fp64, 64);
        let x = 3.75f64;
        assert!(p.inflate(x) > x);
        assert!(p.deflate(x) < x);
        assert!(p.inflate(0.0f64) == 0.0 && p.deflate(0.0f64) == 0.0);
        assert_eq!(p.inflate(f64::INFINITY), f64::INFINITY);
    }

    #[test]
    fn violations_require_more_than_rounding() {
        let p = BoundPolicy::for_precision(Precision::Fp64, 64);
        let d = 10.0f64;
        // within the slack band: no alarm either direction
        assert!(!p.upper_violates(d * (1.0 - p.rel_slack / 8.0), d));
        assert!(!p.lower_violates(d * (1.0 + p.rel_slack / 8.0), d));
        // beyond it: alarm
        assert!(p.upper_violates(d * 0.5, d));
        assert!(p.lower_violates(d * 2.0, d));
        // exact agreement never alarms
        assert!(!p.upper_violates(d, d));
        assert!(!p.lower_violates(d, d));
    }

    #[test]
    fn non_finite_bounds_classified() {
        let p = BoundPolicy::for_precision(Precision::Fp64, 8);
        assert!(!p.upper_violates(f64::INFINITY, 1.0), "+inf upper is valid");
        assert!(p.upper_violates(f64::NAN, 1.0));
        assert!(p.lower_violates(f64::NAN, 1.0));
        assert!(p.lower_violates(f64::INFINITY, 1.0));
        assert!(!p.lower_violates(f64::NEG_INFINITY, 1.0));
        // k = 1 sentinel: no second centroid, nothing finite can violate
        assert!(!p.lower_violates(5.0f64, f64::INFINITY));
    }
}
