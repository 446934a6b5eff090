//! Single-bit flips and IEEE-754 field classification.

use gpu_sim::Scalar;

/// Which IEEE-754 field a bit position belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BitField {
    Sign,
    Exponent,
    Mantissa,
}

/// Classify bit `bit` (0 = LSB) of a float with `total_bits` ∈ {32, 64}.
pub fn classify_bit(bit: u32, total_bits: u32) -> BitField {
    match total_bits {
        32 => match bit {
            31 => BitField::Sign,
            23..=30 => BitField::Exponent,
            _ => BitField::Mantissa,
        },
        64 => match bit {
            63 => BitField::Sign,
            52..=62 => BitField::Exponent,
            _ => BitField::Mantissa,
        },
        _ => panic!("unsupported float width {total_bits}"),
    }
}

/// Flip bit `bit` of `v`.
pub fn flip<T: Scalar>(v: T, bit: u32) -> T {
    v.flip_bit(bit)
}

/// Magnitude of the perturbation a flip at `bit` causes on `v` (used by
/// tests to separate above-threshold from below-threshold flips).
pub fn flip_magnitude<T: Scalar>(v: T, bit: u32) -> f64 {
    (v.flip_bit(bit).to_f64() - v.to_f64()).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_f32() {
        assert_eq!(classify_bit(31, 32), BitField::Sign);
        assert_eq!(classify_bit(30, 32), BitField::Exponent);
        assert_eq!(classify_bit(23, 32), BitField::Exponent);
        assert_eq!(classify_bit(22, 32), BitField::Mantissa);
        assert_eq!(classify_bit(0, 32), BitField::Mantissa);
    }

    #[test]
    fn classification_f64() {
        assert_eq!(classify_bit(63, 64), BitField::Sign);
        assert_eq!(classify_bit(62, 64), BitField::Exponent);
        assert_eq!(classify_bit(52, 64), BitField::Exponent);
        assert_eq!(classify_bit(51, 64), BitField::Mantissa);
    }

    #[test]
    fn exponent_flips_dominate_mantissa_flips() {
        let v = 123.456f32;
        assert!(flip_magnitude(v, 27) > flip_magnitude(v, 5));
    }

    #[test]
    fn flip_is_involution() {
        let v = -9.75f64;
        for bit in [0, 13, 52, 63] {
            assert_eq!(flip(flip(v, bit), bit), v);
        }
    }
}
