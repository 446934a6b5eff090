//! Detection threshold δ.
//!
//! Checksum equality is algebraic but floating-point accumulation orders
//! differ between the payload path (per-element MMA accumulation) and the
//! checksum path (products of sums), so a tolerance is required (paper
//! §II-A: "a checksum test with a defined threshold δ"). The policy scales
//! with the checksum magnitude and the format's effective epsilon — TF32
//! truncation makes the FP32 noise floor far coarser than IEEE binary32.

use gpu_sim::Precision;

/// Threshold policy: `δ = max(abs_floor, rel · scale)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdPolicy {
    /// Relative component, multiplied by the checksum magnitude scale.
    pub rel: f64,
    /// Absolute floor, guards tiny-magnitude tiles.
    pub abs_floor: f64,
}

impl ThresholdPolicy {
    /// Default policy for a precision.
    ///
    /// FP32 kernels accumulate TF32-truncated products (10-bit mantissa,
    /// ε ≈ 2⁻¹⁰), so rounding noise between the two accumulation orders can
    /// reach a few times `ε·√n·scale`; `rel = 2⁻⁶` keeps false alarms out
    /// while still catching any flip that matters at single precision.
    /// FP64 tensor MMA is true IEEE double; `rel = 2⁻³⁰` is far above the
    /// rounding floor yet catches everything above ~1 ulp of the scale.
    pub fn for_precision(p: Precision) -> Self {
        match p {
            Precision::Fp32 => ThresholdPolicy {
                rel: 1.0 / 64.0,
                abs_floor: 1e-4,
            },
            Precision::Fp64 => ThresholdPolicy {
                rel: 2f64.powi(-30),
                abs_floor: 1e-9,
            },
        }
    }

    /// A loose policy for stress tests (misses more, never false-alarms).
    pub fn loose(p: Precision) -> Self {
        let d = Self::for_precision(p);
        ThresholdPolicy {
            rel: d.rel * 16.0,
            abs_floor: d.abs_floor * 16.0,
        }
    }

    /// The detection threshold for a tile whose checksum magnitude scale is
    /// `scale`.
    pub fn delta(&self, scale: f64) -> f64 {
        (self.rel * scale).max(self.abs_floor)
    }

    /// True when `disc` (an observed checksum discrepancy) signals an error
    /// for a tile of magnitude `scale`. Non-finite discrepancies (an Inf or
    /// NaN produced by an exponent-field bit flip) always signal an error —
    /// `NaN > δ` would otherwise silently evaluate to `false`.
    pub fn is_error(&self, disc: f64, scale: f64) -> bool {
        !disc.is_finite() || disc.abs() > self.delta(scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_scales_with_magnitude() {
        let p = ThresholdPolicy::for_precision(Precision::Fp64);
        assert!(p.delta(1e6) > p.delta(1.0));
        assert_eq!(p.delta(0.0), p.abs_floor);
    }

    #[test]
    fn fp32_threshold_coarser_than_fp64() {
        let p32 = ThresholdPolicy::for_precision(Precision::Fp32);
        let p64 = ThresholdPolicy::for_precision(Precision::Fp64);
        assert!(p32.rel > p64.rel);
    }

    #[test]
    fn is_error_decision() {
        let p = ThresholdPolicy::for_precision(Precision::Fp64);
        let scale = 100.0;
        assert!(p.is_error(1.0, scale));
        assert!(!p.is_error(1e-9, scale));
        assert!(p.is_error(-1.0, scale), "sign must not matter");
    }

    #[test]
    fn non_finite_discrepancies_always_flagged() {
        let p = ThresholdPolicy::for_precision(Precision::Fp64);
        assert!(p.is_error(f64::NAN, 1e6));
        assert!(p.is_error(f64::INFINITY, 1e6));
        assert!(p.is_error(f64::NEG_INFINITY, 1e6));
    }

    #[test]
    fn loose_is_looser() {
        let a = ThresholdPolicy::for_precision(Precision::Fp32);
        let b = ThresholdPolicy::loose(Precision::Fp32);
        assert!(b.delta(10.0) > a.delta(10.0));
    }
}
