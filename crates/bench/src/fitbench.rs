//! Fit-throughput measurement behind `bench_check`'s fit gate.
//!
//! One measurement is a full `KMeans::fit_model` at the paper's
//! feature/cluster shape (d = 64, k = 16) over `m` deterministic
//! pseudo-random samples, per assignment variant. Timing is wall-clock median over a fixed number of
//! repetitions (no calibration loops: each rep is already a macro-scale run).

use crate::regression::{Bench, Row};
use gpu_sim::{DeviceProfile, Matrix};
use kmeans::{KMeansConfig, Session, Variant};
use std::time::Instant;

/// Sample count of the fit, predict and trace gates: the paper's headline
/// shape.
pub const M: usize = 131_072;
/// Feature dimension of the benchmark problem (paper headline shape).
pub const DIM: usize = 64;
/// Cluster count of the benchmark problem.
pub const K: usize = 16;
/// Lloyd iterations per fit (tol = 0 so every rep does identical work).
pub const MAX_ITER: usize = 3;

/// The six variants measured: the paper's optimization ladder in order,
/// then the bound-pruned Hamerly family.
pub const VARIANT_NAMES: [&str; 6] = [
    "naive",
    "gemm_v1",
    "fused_v2",
    "broadcast_v3",
    "tensor_v4",
    "hamerly",
];

/// Deterministic pseudo-random blobs: K well-separated centers plus hash
/// noise, no RNG dependency so every run measures identical work.
pub fn blobs(m: usize) -> Matrix<f32> {
    Matrix::from_fn(m, DIM, |r, c| {
        let center = ((r % K) * 8) as f32;
        let h = (r.wrapping_mul(2654435761) ^ c.wrapping_mul(40503)) % 1000;
        center + (h as f32 / 1000.0 - 0.5) + c as f32 * 0.01
    })
}

/// Median of a sample set (destructive sort).
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn variant_by_name(name: &str) -> Variant {
    match name {
        "naive" => Variant::Naive,
        "gemm_v1" => Variant::GemmV1,
        "fused_v2" => Variant::FusedV2,
        "broadcast_v3" => Variant::BroadcastV3,
        "tensor_v4" => Variant::Tensor(None),
        "hamerly" => Variant::Hamerly,
        other => panic!("unknown variant {other}"),
    }
}

/// The ledger row of one variant's median fit time: `rate` is
/// samples x iterations per second.
fn fit_row(name: &str, m: usize, median_s: f64) -> Row {
    Row {
        bench: Bench::Fit,
        name: name.to_string(),
        m,
        median_s,
        rate: (m * MAX_ITER) as f64 / median_s,
    }
}

/// Measure every variant at sample count `m` with `reps` repetitions each.
/// One [`Session`] is shared across every variant and repetition — the
/// estimator-lifecycle shape production callers are expected to use.
pub fn run_fit_bench(m: usize, reps: usize) -> Vec<Row> {
    let reps = reps.max(1);
    let data = blobs(m);
    let session = Session::new(DeviceProfile::a100());
    VARIANT_NAMES
        .iter()
        .map(|&name| {
            let km = session.kmeans(KMeansConfig {
                k: K,
                max_iter: MAX_ITER,
                tol: 0.0, // run all iterations: fixed work per rep
                seed: 42,
                variant: variant_by_name(name),
                ..Default::default()
            });
            let mut samples = Vec::with_capacity(reps);
            for _ in 0..reps {
                let start = Instant::now();
                km.fit_model(&data).expect("fit failed");
                samples.push(start.elapsed().as_secs_f64());
            }
            fit_row(name, m, median(&mut samples))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        // even length takes the upper-middle element
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 3.0);
    }

    #[test]
    fn blobs_are_deterministic() {
        let a = blobs(16);
        let b = blobs(16);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn csv_rows_match_baseline_schema() {
        let row = fit_row("naive", 1024, 0.125);
        assert_eq!(row.rate, 24576.0, "samples x iterations per second");
        assert_eq!(row.to_csv(), "fit,naive,1024,0.125000000,24576.0\n");
    }
}
