//! Unified scalar abstraction over `f32` and `f64`.
//!
//! The fault-tolerance layers need raw bit access (single-event upsets flip
//! one bit of an IEEE-754 value) and precision-aware tolerances, so the trait
//! exposes both numeric and bit-level views. Device storage is not part of
//! it: a [`Scalar`] is an [`Element`], and one [`crate::GlobalBuffer`] type
//! holds floats, labels and quantized codes alike.

use crate::device::Precision;
use crate::memory::Element;
use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A floating-point element type usable in simulated kernels.
///
/// Implemented for `f32` and `f64` only. All kernels, checksum routines and
/// fault injectors in the workspace are generic over this trait.
pub trait Scalar:
    Element
    + Display
    + PartialOrd
    + PartialEq
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + Sum
{
    /// Raw-bits integer representation of the same width.
    type Bits: Copy + Eq + Debug;

    /// Number of bits in the representation (32 or 64).
    const BITS: u32;
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Positive infinity, used as the initial value of min-reductions.
    const INFINITY: Self;
    /// Largest finite value.
    const MAX: Self;
    /// Machine epsilon of the format.
    const EPSILON: Self;
    /// Which [`Precision`] this type corresponds to.
    const PRECISION: Precision;

    /// Reinterpret as raw bits.
    fn to_bits(self) -> Self::Bits;
    /// Reinterpret raw bits as a value.
    fn from_bits(bits: Self::Bits) -> Self;
    /// Flip a single bit (0 = least-significant mantissa bit).
    fn flip_bit(self, bit: u32) -> Self;
    /// Lossless-ish conversion from `f64` (used by data generators).
    fn from_f64(v: f64) -> Self;
    /// Widening conversion to `f64` (used by metrics and thresholds).
    fn to_f64(self) -> f64;
    /// Conversion from a small index (checksum weight vectors `e2 = [1,2,..]`).
    fn from_usize(v: usize) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// `self * a + b` fused for readability (not necessarily hardware-fused).
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Largest of two values with NaN-poisoning semantics of `max`.
    fn max_s(self, other: Self) -> Self;
    /// True if the value is finite.
    fn is_finite_s(self) -> bool;
    /// Round to the TF32 storage format (10-bit mantissa) as tensor cores do
    /// for FP32 inputs on Ampere. Identity for `f64`.
    fn to_tf32(self) -> Self;
}

impl Scalar for f32 {
    type Bits = u32;
    const BITS: u32 = 32;
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const INFINITY: Self = f32::INFINITY;
    const MAX: Self = f32::MAX;
    const EPSILON: Self = f32::EPSILON;
    const PRECISION: Precision = Precision::Fp32;

    #[inline]
    fn to_bits(self) -> u32 {
        self.to_bits()
    }
    #[inline]
    fn from_bits(bits: u32) -> Self {
        f32::from_bits(bits)
    }
    #[inline]
    fn flip_bit(self, bit: u32) -> Self {
        debug_assert!(bit < 32);
        f32::from_bits(self.to_bits() ^ (1u32 << bit))
    }
    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn from_usize(v: usize) -> Self {
        v as f32
    }
    #[inline]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f32::mul_add(self, a, b)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline]
    fn max_s(self, other: Self) -> Self {
        f32::max(self, other)
    }
    #[inline]
    fn is_finite_s(self) -> bool {
        self.is_finite()
    }
    #[inline]
    fn to_tf32(self) -> Self {
        // TF32 keeps the FP32 exponent and truncates the mantissa to 10 bits;
        // Ampere rounds to nearest even. Emulate by masking after adding half
        // of the dropped range.
        let bits = self.to_bits();
        let round = bits.wrapping_add(0x0000_1000); // half of 2^13
        f32::from_bits(round & 0xFFFF_E000)
    }
}

impl Scalar for f64 {
    type Bits = u64;
    const BITS: u32 = 64;
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const INFINITY: Self = f64::INFINITY;
    const MAX: Self = f64::MAX;
    const EPSILON: Self = f64::EPSILON;
    const PRECISION: Precision = Precision::Fp64;

    #[inline]
    fn to_bits(self) -> u64 {
        self.to_bits()
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        f64::from_bits(bits)
    }
    #[inline]
    fn flip_bit(self, bit: u32) -> Self {
        debug_assert!(bit < 64);
        f64::from_bits(self.to_bits() ^ (1u64 << bit))
    }
    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn from_usize(v: usize) -> Self {
        v as f64
    }
    #[inline]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline]
    fn max_s(self, other: Self) -> Self {
        f64::max(self, other)
    }
    #[inline]
    fn is_finite_s(self) -> bool {
        self.is_finite()
    }
    #[inline]
    fn to_tf32(self) -> Self {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_flip_roundtrips_f32() {
        let x = 3.25f32;
        for bit in 0..32 {
            let y = x.flip_bit(bit);
            assert_ne!(x.to_bits(), y.to_bits());
            assert_eq!(y.flip_bit(bit).to_bits(), x.to_bits());
        }
    }

    #[test]
    fn bit_flip_roundtrips_f64() {
        let x = -1234.5678f64;
        for bit in 0..64 {
            let y = x.flip_bit(bit);
            assert_eq!(y.flip_bit(bit).to_bits(), x.to_bits());
        }
    }

    #[test]
    fn sign_bit_flip_negates() {
        let x = 7.5f32;
        assert_eq!(x.flip_bit(31), -7.5f32);
        let y = 7.5f64;
        assert_eq!(y.flip_bit(63), -7.5f64);
    }

    #[test]
    fn tf32_truncates_mantissa() {
        let x = 1.0f32 + f32::EPSILON; // differs from 1.0 only below TF32 precision
        assert_eq!(x.to_tf32(), 1.0f32);
        // Values representable in 10 mantissa bits survive exactly.
        let y = 1.5f32;
        assert_eq!(y.to_tf32(), 1.5f32);
        let z = 1024.0f32 + 1.0; // needs 11 bits -> rounds
        let t = z.to_tf32();
        assert!((t - z).abs() <= 1.0);
    }

    #[test]
    fn tf32_identity_for_f64() {
        let x = 1.0f64 + f64::EPSILON;
        assert_eq!(x.to_tf32(), x);
    }

    #[test]
    fn from_usize_exact_for_small_indices() {
        for i in 0..4096usize {
            assert_eq!(<f32 as Scalar>::from_usize(i) as usize, i);
            assert_eq!(<f64 as Scalar>::from_usize(i) as usize, i);
        }
    }

    #[test]
    fn constants_match_precision() {
        assert_eq!(<f32 as Scalar>::PRECISION, Precision::Fp32);
        assert_eq!(<f64 as Scalar>::PRECISION, Precision::Fp64);
        assert_eq!(<f32 as Scalar>::BITS, 32);
        assert_eq!(<f64 as Scalar>::BITS, 64);
    }
}
