//! Predict-throughput measurement behind `bench_check`'s predict gate.
//!
//! One measurement serves `m` query samples through a fitted model's
//! [`FittedModel::predict`] under one [`PredictPolicy`] — the steady-state
//! serving shape: the model (and for the quantized policies its resident
//! quantized table) is built once, then every repetition predicts a
//! *distinct* query matrix, because fresh queries are what a serving path
//! actually sees.
//!
//! Timing is wall-clock median over the repetitions; the quantized
//! policies additionally report their exact-fallback rate (fraction of
//! samples whose argmin margin did not clear the quantization bound),
//! taken from the [`quant_fallbacks`](gpu_sim::CounterSnapshot) counter.

use crate::fitbench::{blobs, median, DIM, K, MAX_ITER};
use crate::regression::{Bench, Row};
use gpu_sim::{DeviceProfile, Matrix};
use kmeans::{FittedModel, KMeansConfig, PredictPolicy, Session};
use std::time::Instant;

/// Training-set size for the one-time fit the serving model derives from.
pub const TRAIN_M: usize = 8192;

/// The serving policies measured, exact first (the fp32 reference path).
pub const POLICY_NAMES: [&str; 3] = ["exact", "fp16", "int8"];

/// The serving claim, checked on every fresh same-shape run: each quantized
/// policy serves at least this many times the exact policy's rate.
pub const MIN_QUANT_SPEEDUP: f64 = 1.5;

/// One policy's serving throughput at one query-batch size.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictMeasurement {
    /// Policy label (one of [`POLICY_NAMES`]).
    pub name: String,
    /// Query samples per batch.
    pub m: usize,
    /// Median seconds per predict call.
    pub median_s: f64,
    /// Throughput in samples per second.
    pub rate: f64,
    /// Fraction of samples that fell back to the exact row scan
    /// (0 for the exact policy).
    pub fallback_rate: f64,
}

fn policy_by_name(name: &str) -> PredictPolicy {
    match name {
        "exact" => PredictPolicy::Exact,
        "fp16" => PredictPolicy::Fp16,
        "int8" => PredictPolicy::Int8,
        other => panic!("unknown predict policy {other}"),
    }
}

/// Deterministic query batch `salt` — same blob geometry as the training
/// set, different noise per salt so every repetition predicts fresh data.
pub fn queries(m: usize, salt: usize) -> Matrix<f32> {
    Matrix::from_fn(m, DIM, |r, c| {
        let center = ((r % K) * 8) as f32;
        let h = (r
            .wrapping_mul(2654435761)
            .wrapping_add(salt.wrapping_mul(97911)))
            ^ c.wrapping_mul(40503);
        center + ((h % 1000) as f32 / 1000.0 - 0.5) + c as f32 * 0.01
    })
}

/// Fit the serving model once: the paper shape (d = 64, k = 16), tensor
/// kernel, fixed seed — the model every policy is measured against.
pub fn serving_model(session: &Session) -> FittedModel<f32> {
    session
        .kmeans(KMeansConfig {
            k: K,
            max_iter: MAX_ITER,
            tol: 0.0,
            seed: 42,
            ..Default::default()
        })
        .fit_model(&blobs(TRAIN_M))
        .expect("serving fit failed")
}

/// Measure every policy serving `m`-sample batches, `reps` batches each.
/// One fitted model is shared across policies (resident centroids and
/// quantized tables persist), matching the serving lifecycle. The policies
/// take turns call by call, so a burst of load from other processes falls
/// on all of them rather than on one policy's whole run, and every call,
/// warmups included, predicts a batch of its own.
pub fn run_predict_bench(m: usize, reps: usize) -> Vec<PredictMeasurement> {
    let reps = reps.max(1);
    let session = Session::new(DeviceProfile::a100());
    let mut model = serving_model(&session);
    let mut salt = 0;
    let mut next_batch = || {
        salt += 1;
        queries(m, salt)
    };
    // Warmup batches: build each quantized table on first use so the
    // one-time quantization cost is not misread as per-call cost.
    for name in POLICY_NAMES {
        model.set_predict_policy(policy_by_name(name));
        model.predict(&next_batch()).expect("warmup predict");
    }
    let mut samples = vec![Vec::with_capacity(reps); POLICY_NAMES.len()];
    let mut fallbacks = vec![0u64; POLICY_NAMES.len()];
    for _ in 0..reps {
        for (p, name) in POLICY_NAMES.into_iter().enumerate() {
            model.set_predict_policy(policy_by_name(name));
            let batch = next_batch();
            let before = model.predict_counters();
            let start = Instant::now();
            model.predict(&batch).expect("predict failed");
            samples[p].push(start.elapsed().as_secs_f64());
            fallbacks[p] += model.predict_counters().since(&before).quant_fallbacks;
        }
    }
    POLICY_NAMES
        .iter()
        .zip(samples.iter_mut().zip(fallbacks))
        .map(|(&name, (samples, fallbacks))| {
            let med = median(samples);
            PredictMeasurement {
                name: name.to_string(),
                m,
                median_s: med,
                rate: m as f64 / med,
                fallback_rate: fallbacks as f64 / (m * reps) as f64,
            }
        })
        .collect()
}

impl PredictMeasurement {
    /// The ledger row: `rate` is samples per second.
    pub fn row(&self) -> Row {
        Row {
            bench: Bench::Predict,
            name: self.name.clone(),
            m: self.m,
            median_s: self.median_s,
            rate: self.rate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_are_deterministic_per_salt_and_distinct_across_salts() {
        let a = queries(32, 1);
        let b = queries(32, 1);
        let c = queries(32, 2);
        assert_eq!(a.as_slice(), b.as_slice());
        assert_ne!(a.as_slice(), c.as_slice());
    }

    #[test]
    fn csv_row_matches_baseline_schema() {
        let row = PredictMeasurement {
            name: "int8".into(),
            m: 131072,
            median_s: 0.25,
            rate: 524288.0,
            fallback_rate: 0.01,
        }
        .row();
        assert_eq!(row.to_csv(), "predict,int8,131072,0.250000000,524288.0\n");
    }

    #[test]
    fn bench_runs_and_policies_agree_at_small_scale() {
        let out = run_predict_bench(512, 1);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].name, "exact");
        assert_eq!(out[0].fallback_rate, 0.0, "exact never falls back");
        for p in &out {
            assert!(p.median_s > 0.0 && p.rate > 0.0, "{p:?}");
            assert!(
                (0.0..=1.0).contains(&p.fallback_rate),
                "fallback rate is a fraction: {p:?}"
            );
        }
    }
}
