//! In-place correction: subtract the located error magnitude.

use gpu_sim::Scalar;

/// Subtract error magnitude `d` from `acc[row][col]` of a row-major tile
/// with `cols` columns. Returns the corrected value.
pub fn correct_in_place<T: Scalar>(
    acc: &mut [T],
    cols: usize,
    row: usize,
    col: usize,
    d: f64,
) -> T {
    let idx = row * cols + col;
    let fixed = acc[idx] - T::from_f64(d);
    acc[idx] = fixed;
    fixed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::ChecksumTriple;
    use crate::detect::compare;
    use crate::locate::{locate, Located};
    use crate::threshold::ThresholdPolicy;
    use gpu_sim::Precision;

    #[test]
    fn correction_restores_value() {
        let mut acc = vec![1.0f64, 2.0, 3.0, 4.0];
        let v = correct_in_place(&mut acc, 2, 1, 0, 0.5);
        assert_eq!(v, 2.5);
        assert_eq!(acc, vec![1.0, 2.0, 2.5, 4.0]);
    }

    #[test]
    fn full_detect_locate_correct_cycle() {
        // Reference tile and checksums.
        let clean = [1.5f64, -2.0, 0.25, 4.0, 1.0, -3.5];
        let (rows, cols) = (2, 3);
        let reference = ChecksumTriple::from_tile(&clean, cols, (rows, cols));

        // Corrupt one element.
        let mut acc = clean;
        acc[4] += 7.25; // (row 1, col 1)

        let observed = ChecksumTriple::from_tile(&acc, cols, (rows, cols));
        let policy = ThresholdPolicy::for_precision(Precision::Fp64);
        let disc = compare(&observed, &reference, &policy).expect("detected");
        let Located::At { row, col } = locate(&disc, rows, cols) else {
            panic!("must locate a single error");
        };
        assert_eq!((row, col), (1, 1));
        correct_in_place(&mut acc, cols, row, col, disc.d);
        for (a, b) in acc.iter().zip(clean.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn correction_is_idempotent_on_zero_magnitude() {
        let mut acc = vec![1.0f32, 2.0];
        correct_in_place(&mut acc, 2, 0, 1, 0.0);
        assert_eq!(acc, vec![1.0, 2.0]);
    }
}
