//! Warp-level helpers: the shuffle reductions the ABFT encodings rely on.

use crate::scalar::Scalar;

/// Warp reduction: the input checksums of a row-major fragment of
/// `kk = plain.len()` columns in one row-major pass: `plain[k] = e1ᵀ·frag[:,k]`
/// (Fig. 6 lines 15/16) and, when given, `weighted[k] = e2ᵀ·frag[:,k] =
/// Σ_i (i+1)·frag[i,k]` (lines 17/18, the paper's `e2 = [1, 2, …, n]`). Each
/// column adds its rows in ascending order, bit for bit a column-at-a-time
/// reduction.
pub fn frag_col_sums<T: Scalar>(frag: &[T], plain: &mut [T], mut weighted: Option<&mut [T]>) {
    plain.fill(T::ZERO);
    if let Some(w) = weighted.as_deref_mut() {
        w.fill(T::ZERO);
    }
    for (i, row) in frag.chunks_exact(plain.len().max(1)).enumerate() {
        for (s, &v) in plain.iter_mut().zip(row) {
            *s += v;
        }
        if let Some(w) = weighted.as_deref_mut() {
            let wi = T::from_usize(i + 1);
            for (s, &v) in w.iter_mut().zip(row) {
                *s += wi * v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_sums() {
        // frag rows = [1,2], [3,4], [5,6] ; kk = 2
        let frag = vec![1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0];
        let (mut plain, mut weighted) = ([7.0f64; 2], [7.0f64; 2]);
        frag_col_sums(&frag, &mut plain, Some(&mut weighted));
        assert_eq!(plain, [9.0, 12.0]);
        // weighted: 1*1 + 2*3 + 3*5 = 22 ; 1*2 + 2*4 + 3*6 = 28
        assert_eq!(weighted, [22.0, 28.0]);
        let mut plain_only = [7.0f64; 2];
        frag_col_sums(&frag, &mut plain_only, None);
        assert_eq!(plain_only, plain);
    }
}
