//! Clustering quality metrics used by tests and examples.
//!
//! [`inertia`] is the host reference for the objective. Fits compute
//! theirs on the device with [`crate::norms::inertia_kernel`], which sums
//! each row the same way and agrees with it within 1e-12 relative.

use gpu_sim::{Matrix, Scalar};

/// Within-cluster sum of squared distances (the K-means objective), one
/// serial f64 pass on the host.
pub fn inertia<T: Scalar>(samples: &Matrix<T>, centroids: &Matrix<T>, labels: &[u32]) -> f64 {
    assert_eq!(samples.rows(), labels.len());
    let mut total = 0.0;
    for (i, &label) in labels.iter().enumerate() {
        let c = label as usize;
        let x = samples.row(i);
        let y = centroids.row(c);
        total += x
            .iter()
            .zip(y.iter())
            .map(|(&a, &b)| {
                let d = a.to_f64() - b.to_f64();
                d * d
            })
            .sum::<f64>();
    }
    total
}

/// Adjusted Rand index between two labelings (1.0 = identical partitions,
/// ~0.0 = random agreement). Label values need not match, only the induced
/// partitions.
pub fn adjusted_rand_index(a: &[u32], b: &[u32]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    if n == 0 {
        return 1.0;
    }
    let ka = (*a.iter().max().unwrap() + 1) as usize;
    let kb = (*b.iter().max().unwrap() + 1) as usize;
    let mut table = vec![0u64; ka * kb];
    let mut ra = vec![0u64; ka];
    let mut rb = vec![0u64; kb];
    for i in 0..n {
        let (x, y) = (a[i] as usize, b[i] as usize);
        table[x * kb + y] += 1;
        ra[x] += 1;
        rb[y] += 1;
    }
    let comb2 = |x: u64| (x * x.saturating_sub(1)) as f64 / 2.0;
    let sum_ij: f64 = table.iter().map(|&x| comb2(x)).sum();
    let sum_a: f64 = ra.iter().map(|&x| comb2(x)).sum();
    let sum_b: f64 = rb.iter().map(|&x| comb2(x)).sum();
    let total = comb2(n as u64);
    let expected = sum_a * sum_b / total;
    let max_index = (sum_a + sum_b) / 2.0;
    if (max_index - expected).abs() < f64::EPSILON {
        return 1.0;
    }
    (sum_ij - expected) / (max_index - expected)
}

/// Fraction of positions where two labelings agree exactly (for comparing
/// runs that share initialization).
pub fn agreement(a: &[u32], b: &[u32]) -> f64 {
    assert_eq!(a.len(), b.len());
    if a.is_empty() {
        return 1.0;
    }
    a.iter().zip(b).filter(|(x, y)| x == y).count() as f64 / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inertia_zero_at_centroids() {
        let samples = Matrix::from_vec(2, 2, vec![1.0f64, 2.0, 3.0, 4.0]).unwrap();
        let cents = samples.clone();
        assert_eq!(inertia(&samples, &cents, &[0, 1]), 0.0);
    }

    #[test]
    fn inertia_accumulates_squares() {
        let samples = Matrix::from_vec(1, 2, vec![1.0f64, 1.0]).unwrap();
        let cents = Matrix::from_vec(1, 2, vec![0.0f64, 0.0]).unwrap();
        assert!((inertia(&samples, &cents, &[0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ari_identical_partitions() {
        assert_eq!(adjusted_rand_index(&[0, 0, 1, 1], &[1, 1, 0, 0]), 1.0);
    }

    #[test]
    fn ari_disagreement_is_low() {
        let a = [0, 0, 0, 0, 1, 1, 1, 1];
        let b = [0, 1, 0, 1, 0, 1, 0, 1];
        assert!(adjusted_rand_index(&a, &b) < 0.1);
    }

    #[test]
    fn agreement_fraction() {
        assert_eq!(agreement(&[1, 2, 3], &[1, 2, 4]), 2.0 / 3.0);
        assert_eq!(agreement(&[], &[]), 1.0);
    }
}
