//! Row-major host matrices used as kernel operands.

use crate::error::SimError;
use crate::scalar::Scalar;

/// A dense row-major matrix of `T`.
///
/// This is the host-side container; kernels read/write it through
/// [`crate::memory::GlobalBuffer`] views. Row-major matches the paper's
/// layout (samples matrix is M×N row-major, centroids K×N row-major, the
/// GEMM consumes `Centroids^T` implicitly).
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// Zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Matrix filled with `v`.
    pub fn filled(rows: usize, cols: usize, v: T) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// Build from an existing row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Result<Self, SimError> {
        if data.len() != rows * cols {
            return Err(SimError::ShapeMismatch(format!(
                "buffer of {} elements cannot back a {}x{} matrix",
                data.len(),
                rows,
                cols
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Build by evaluating `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow the backing row-major slice.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutably borrow the backing row-major slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consume into the backing vector.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// One full row as a slice.
    pub fn row(&self, r: usize) -> &[T] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> T {
        debug_assert!(
            r < self.rows && c < self.cols,
            "({r},{c}) out of {}x{}",
            self.rows,
            self.cols
        );
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: T) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Out-of-place transpose.
    pub fn transposed(&self) -> Matrix<T> {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Maximum absolute elementwise difference (test helper).
    pub fn max_abs_diff(&self, other: &Matrix<T>) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0, f64::max)
    }
}

/// Reference dense GEMM: `C = A * B^T` where A is m×k and B is n×k, giving
/// C m×n. This is exactly the distance-kernel product shape
/// (`Samples × Centroids^T`), used as ground truth in tests.
pub fn gemm_abt_reference<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    assert_eq!(a.cols(), b.cols(), "inner dimensions must agree");
    let mut c = Matrix::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        for j in 0..b.rows() {
            let mut acc = T::ZERO;
            for p in 0..a.cols() {
                acc += a.get(i, p) * b.get(j, p);
            }
            c.set(i, j, acc);
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut m = Matrix::<f32>::zeros(3, 4);
        m.set(2, 3, 7.0);
        assert_eq!(m.get(2, 3), 7.0);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.row(2)[3], 7.0);
    }

    #[test]
    fn from_vec_validates_shape() {
        assert!(Matrix::<f64>::from_vec(2, 2, vec![0.0; 3]).is_err());
        assert!(Matrix::<f64>::from_vec(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::<f32>::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(m.transposed().transposed(), m);
        assert_eq!(m.transposed().get(4, 2), m.get(2, 4));
    }

    #[test]
    fn gemm_reference_small() {
        // A = [[1,2],[3,4]], B = [[5,6],[7,8]] (rows are the "centroids")
        // C = A * B^T = [[17,23],[39,53]]
        let a = Matrix::from_vec(2, 2, vec![1.0f64, 2.0, 3.0, 4.0]).unwrap();
        let b = Matrix::from_vec(2, 2, vec![5.0f64, 6.0, 7.0, 8.0]).unwrap();
        let c = gemm_abt_reference(&a, &b);
        assert_eq!(c.get(0, 0), 17.0);
        assert_eq!(c.get(0, 1), 23.0);
        assert_eq!(c.get(1, 0), 39.0);
        assert_eq!(c.get(1, 1), 53.0);
    }

    #[test]
    fn diff_helpers() {
        let a = Matrix::<f32>::filled(2, 2, 1.0);
        let mut b = a.clone();
        b.set(1, 1, 3.0);
        assert_eq!(a.max_abs_diff(&b), 2.0);
    }
}
