//! Shared fit-throughput measurement used by the `fit_throughput` bench and
//! the `bench_check` regression gate.
//!
//! One measurement is a full `KMeans::fit_model` at the paper's
//! feature/cluster shape (d = 64, k = 16) over `m` deterministic
//! pseudo-random samples, per assignment variant. Timing is wall-clock median over a fixed number of
//! repetitions (no calibration loops: each rep is already a macro-scale run).

use gpu_sim::{launch_grid, Counters, DeviceProfile, Dim3, LaunchConfig, Matrix};
use kmeans::{KMeansConfig, Session, Variant};
use std::time::Instant;

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

/// One variant's timing at one problem size.
#[derive(Debug, Clone, PartialEq)]
pub struct FitMeasurement {
    /// Variant name (one of [`VARIANT_NAMES`]).
    pub name: String,
    /// Sample count.
    pub m: usize,
    /// Median seconds per fit.
    pub median_s: f64,
    /// Throughput in samples x iterations per second.
    pub rate: f64,
    /// Final inertia (work checksum — equal across reps by construction).
    pub inertia: f64,
}

/// Parse a `usize` knob from the environment, falling back to `default`
/// when unset or unparsable.
pub fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parse an `f64` knob from the environment, falling back to `default`
/// when unset or unparsable.
pub fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

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

/// Measure every variant at sample count `m` with `reps` repetitions each.
/// One [`Session`] is shared across every variant and repetition — the
/// estimator-lifecycle shape production callers are expected to use.
pub fn run_fit_bench(m: usize, reps: usize) -> Vec<FitMeasurement> {
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
            let mut inertia = 0.0f64;
            for _ in 0..reps {
                let start = Instant::now();
                let r = km.fit_model(&data).expect("fit failed");
                samples.push(start.elapsed().as_secs_f64());
                inertia = r.inertia;
            }
            let med = median(&mut samples);
            FitMeasurement {
                name: name.to_string(),
                m,
                median_s: med,
                rate: (m * MAX_ITER) as f64 / med,
                inertia,
            }
        })
        .collect()
}

/// Many tiny launches of a near-empty kernel: isolates per-kernel-launch
/// engine overhead. Returns median seconds per launch.
pub fn measure_launch_overhead() -> f64 {
    let dev = DeviceProfile::a100();
    let counters = Counters::new();
    let cfg = LaunchConfig {
        grid: Dim3::x(64),
        threads_per_block: 128,
        smem_bytes: 0,
    };
    let launches = 2000usize;
    let mut samples = Vec::with_capacity(5);
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..launches {
            launch_grid(&dev, cfg, &counters, |ctx| {
                std::hint::black_box(ctx.bx);
            })
            .unwrap();
        }
        samples.push(start.elapsed().as_secs_f64() / launches as f64);
    }
    median(&mut samples)
}

/// The CSV header shared by the bench output and the committed baseline.
pub const CSV_HEADER: &str = "bench,name,m,d,k,iters,median_s,rate\n";

/// Render a launch-overhead measurement as a CSV row.
pub fn launch_overhead_csv_row(med_s: f64) -> String {
    format!("launch_overhead,noop64,64,0,0,1,{med_s:.9},0\n")
}

/// Render one fit measurement as a CSV row.
pub fn fit_csv_row(m: &FitMeasurement) -> String {
    format!(
        "fit,{},{},{DIM},{K},{MAX_ITER},{:.6},{:.1}\n",
        m.name, m.m, m.median_s, m.rate
    )
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
        let row = fit_csv_row(&FitMeasurement {
            name: "naive".into(),
            m: 1024,
            median_s: 0.125,
            rate: 24576.0,
            inertia: 0.0,
        });
        assert_eq!(row, "fit,naive,1024,64,16,3,0.125000,24576.0\n");
        assert!(launch_overhead_csv_row(1.5e-6).starts_with("launch_overhead,noop64,"));
    }
}
