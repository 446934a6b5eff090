//! Checksum encodings.
//!
//! The double-checksum construction (paper Eq. 3–6, §IV-A) uses two weight
//! vectors: `e1 = [1, 1, …, 1]` for magnitude and `e2 = [1, 2, …, n]` for
//! location. For an accumulator tile `C` the three protected quantities are
//!
//! * `s11 = e1ᵀ C e1` — the plain sum,
//! * `s21 = e2ᵀ C e1` — row-weighted sum (locates the corrupted row),
//! * `s12 = e1ᵀ C e2` — column-weighted sum (locates the corrupted column).
//!
//! The same triple is maintained *online* from the input fragments: for each
//! K-column, `(Σ_i a_i)·(Σ_j b_j)` contributes to `s11`, etc. Because GEMM
//! is bilinear these telescopes agree with the sums over `C` exactly (up to
//! floating-point rounding, handled by [`crate::threshold`]).

use gpu_sim::{Scalar, ScratchBuf};

/// The three checksum scalars protecting one accumulator tile.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChecksumTriple<T> {
    /// `e1ᵀ C e1` — unweighted sum.
    pub s11: T,
    /// `e2ᵀ C e1` — row-weighted sum (weights 1..=rows).
    pub s21: T,
    /// `e1ᵀ C e2` — column-weighted sum (weights 1..=cols).
    pub s12: T,
}

impl<T: Scalar> ChecksumTriple<T> {
    /// Zero triple.
    pub fn zero() -> Self {
        ChecksumTriple {
            s11: T::ZERO,
            s21: T::ZERO,
            s12: T::ZERO,
        }
    }

    /// Compute the triple directly from the live `rows x cols` corner of
    /// a row-major tile with row stride `wn`; `live = (tile rows, wn)`
    /// covers the whole tile. Lanes outside the corner are not read. A
    /// caller passes a smaller corner only where those lanes hold `+0.0`:
    /// they would add exact zeros to sums that start at `+0.0` (and so are
    /// never `-0.0`), so the triple is the whole tile's, bit for bit.
    pub fn from_tile(acc: &[T], wn: usize, (rows, cols): (usize, usize)) -> Self {
        debug_assert!(cols <= wn && rows * wn <= acc.len());
        let mut t = Self::zero();
        let mut wc = ScratchBuf::<T, 256>::filled(cols, T::ZERO);
        for (j, w) in wc.iter_mut().enumerate() {
            *w = T::from_usize(j + 1);
        }
        for i in 0..rows {
            let wr = T::from_usize(i + 1);
            for (&v, &w) in acc[i * wn..i * wn + cols].iter().zip(wc.iter()) {
                t.s11 += v;
                t.s21 += wr * v;
                t.s12 += w * v;
            }
        }
        t
    }

    /// Accumulate one K-column's contribution from input sums:
    /// `a1 = Σ_i a_i`, `a2 = Σ_i (i+1)·a_i`, `b1 = Σ_j b_j`,
    /// `b2 = Σ_j (j+1)·b_j`.
    pub fn accumulate_rank1(&mut self, a1: T, a2: T, b1: T, b2: T) {
        self.s11 += a1 * b1;
        self.s21 += a2 * b1;
        self.s12 += a1 * b2;
    }

    /// Elementwise difference `self - other`.
    pub fn diff(&self, other: &ChecksumTriple<T>) -> ChecksumTriple<T> {
        ChecksumTriple {
            s11: self.s11 - other.s11,
            s21: self.s21 - other.s21,
            s12: self.s12 - other.s12,
        }
    }

    /// Magnitude scale used by the threshold policy.
    pub fn scale(&self) -> f64 {
        self.s11
            .to_f64()
            .abs()
            .max(self.s21.to_f64().abs())
            .max(self.s12.to_f64().abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::matrix::gemm_abt_reference;
    use gpu_sim::warp::frag_col_sums;
    use gpu_sim::Matrix;

    #[test]
    fn triple_from_tile_small() {
        // C = [[1,2],[3,4]]
        let acc = [1.0f64, 2.0, 3.0, 4.0];
        let t = ChecksumTriple::from_tile(&acc, 2, (2, 2));
        assert_eq!(t.s11, 10.0);
        assert_eq!(t.s21, 1.0 * (1.0 + 2.0) + 2.0 * (3.0 + 4.0));
        assert_eq!(t.s12, 1.0 * (1.0 + 3.0) + 2.0 * (2.0 + 4.0));
    }

    #[test]
    fn rank1_telescope_matches_tile_checksums() {
        // Bilinearity: accumulating input sums per k must equal the tile
        // checksums of C = A·Bᵀ.
        let a = Matrix::<f64>::from_fn(4, 6, |r, c| (r as f64 + 1.0) * 0.3 - c as f64 * 0.11);
        let b = Matrix::<f64>::from_fn(3, 6, |r, c| 0.7 - r as f64 * 0.2 + c as f64 * 0.05);
        let c = gemm_abt_reference(&a, &b);
        let direct = ChecksumTriple::from_tile(c.as_slice(), 3, (4, 3));

        let mut online = ChecksumTriple::zero();
        for k in 0..6 {
            let a1: f64 = (0..4).map(|i| a.get(i, k)).sum();
            let a2: f64 = (0..4).map(|i| (i as f64 + 1.0) * a.get(i, k)).sum();
            let b1: f64 = (0..3).map(|j| b.get(j, k)).sum();
            let b2: f64 = (0..3).map(|j| (j as f64 + 1.0) * b.get(j, k)).sum();
            online.accumulate_rank1(a1, a2, b1, b2);
        }
        assert!((online.s11 - direct.s11).abs() < 1e-9);
        assert!((online.s21 - direct.s21).abs() < 1e-9);
        assert!((online.s12 - direct.s12).abs() < 1e-9);
    }

    #[test]
    fn encodings_match_definitions() {
        // The input encodings e1ᵀX and e2ᵀX (Eq. 3–4) are fragment column
        // sums; B fragments hold rows of Y, so Ye1 and Ye2 are too.
        let x = Matrix::<f32>::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        // cols: [0,1],[2,3],[4,5]
        let (mut e1, mut e2) = ([0.0f32; 2], [0.0f32; 2]);
        frag_col_sums(x.as_slice(), &mut e1, Some(&mut e2));
        assert_eq!(e1, [6.0, 9.0]);
        assert_eq!(e2, [0.0 + 4.0 + 12.0, 1.0 + 6.0 + 15.0]);
    }

    #[test]
    fn diff_and_scale() {
        let a = ChecksumTriple {
            s11: 5.0f64,
            s21: -3.0,
            s12: 1.0,
        };
        let b = ChecksumTriple {
            s11: 4.0f64,
            s21: -1.0,
            s12: 1.0,
        };
        let d = a.diff(&b);
        assert_eq!((d.s11, d.s21, d.s12), (1.0, -2.0, 0.0));
        assert_eq!(a.scale(), 5.0);
    }
}
