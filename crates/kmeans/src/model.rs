//! The fitted half of the estimator lifecycle.
//!
//! A [`FittedModel`] is what [`crate::KMeans::fit_model`] and
//! [`crate::KMeans::partial_fit`] return: the [`FitResult`] plus everything
//! needed to keep using the model without re-deriving state — the session
//! handle, the configuration, and the device-resident final centroids
//! (the fit's sample buffers are released at construction; nothing reads
//! them again). Repeated [`FittedModel::predict`] /
//! [`FittedModel::score`] calls *share* the resident centroid and
//! centroid-norm buffers (device-pointer copies; no re-upload, no norm
//! kernel re-run). The quantized policies read the query rows in place and
//! the exact policy uploads them per call; nothing is cached between
//! calls. [`crate::KMeans::fit_from`] uses the model's centroids as a warm
//! start.

use crate::assign::run_assignment;
use crate::config::{KMeansConfig, PredictPolicy};
use crate::device_data::DeviceData;
use crate::driver::FitResult;
use crate::error::{ensure_finite, KMeansError};
use crate::phase;
use crate::quant::{QuantKind, QuantizedCentroids};
use crate::session::Session;
use crate::variants::predict_fused::{predict_fused_assign, QueryView};
use fault::CampaignStats;
use gpu_sim::mma::NoFault;
use gpu_sim::{CounterSnapshot, Counters, Matrix, Scalar};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A fitted K-means model owning its device-resident state.
///
/// Dereferences to the underlying [`FitResult`], so result fields read
/// naturally: `model.labels`, `model.inertia`, `model.ft_stats`, ...
///
/// ```
/// use gpu_sim::{DeviceProfile, Matrix};
/// use kmeans::{KMeansConfig, Session};
///
/// let session = Session::new(DeviceProfile::a100());
/// let data = Matrix::<f64>::from_fn(24, 3, |r, c| (r % 3) as f64 * 9.0 + c as f64 * 0.1);
/// let model = session
///     .kmeans(KMeansConfig::new(3).with_seed(4))
///     .fit_model(&data)
///     .unwrap();
/// // result fields via deref, prediction via the model itself
/// assert!(model.converged);
/// assert_eq!(model.predict(&data).unwrap(), model.labels);
/// // new samples only need matching dimensionality
/// let fresh = Matrix::<f64>::from_fn(5, 3, |_, c| c as f64 * 0.1);
/// assert_eq!(model.predict(&fresh).unwrap().len(), 5);
/// ```
pub struct FittedModel<T: Scalar> {
    pub(crate) session: Session,
    pub(crate) config: KMeansConfig,
    /// The *final* centroids and their norms, device-resident
    /// ([`DeviceData::centroids_only`] — the sample buffers of the fit are
    /// dropped at construction; nothing reads them again). The
    /// predict/score path shares these centroid buffers (device-pointer
    /// copies) instead of re-uploading.
    pub(crate) data: DeviceData<T>,
    pub(crate) result: FitResult<T>,
    /// Per-center accumulated sample counts: the mini-batch learning-rate
    /// state (for a full-batch fit, the final cluster sizes).
    pub(crate) weights: Vec<u64>,
    /// Mini-batch batches consumed (0 for a full-batch fit).
    pub(crate) batches: usize,
    /// Serving precision policy (see [`PredictPolicy`]); labels and
    /// distances are identical under every setting.
    policy: PredictPolicy,
    /// Reusable serving-path state — built once per model, not per call.
    scratch: PredictScratch,
}

/// Hot-path predict state hoisted out of the per-call path: one counter
/// sink and one campaign-stats sink for the model's lifetime.
#[derive(Default)]
struct PredictScratch {
    counters: Counters,
    stats: Mutex<CampaignStats>,
    /// Monotone predict sequence number — the trace-span index of each
    /// predict, so timelines stay deterministic without wall-clock
    /// identifiers.
    predict_seq: AtomicU64,
}

/// Cloning a model is cheap: the device-resident centroid and
/// centroid-norm buffers (and the cached quantized tables) are shared via
/// device-pointer copies — no re-upload, no norm kernel re-run, no table
/// rebuild. The fit outcome and learning-rate weights are host-side copies
/// so the clone can continue a stream independently
/// ([`crate::KMeans::partial_fit`] consumes its model), and the clone gets
/// a *fresh* `PredictScratch` — its counters and serving stats start at
/// zero, so per-clone metering never cross-talks.
impl<T: Scalar> Clone for FittedModel<T> {
    fn clone(&self) -> Self {
        FittedModel {
            session: self.session.clone(),
            config: self.config.clone(),
            data: self.data.centroids_only(),
            result: self.result.clone(),
            weights: self.weights.clone(),
            batches: self.batches,
            policy: self.policy,
            scratch: PredictScratch::default(),
        }
    }
}

impl<T: Scalar> std::ops::Deref for FittedModel<T> {
    type Target = FitResult<T>;

    fn deref(&self) -> &FitResult<T> {
        &self.result
    }
}

impl<T: Scalar> std::fmt::Debug for FittedModel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FittedModel")
            .field("k", &self.config.k)
            .field("dim", &self.data.dim)
            .field("batches", &self.batches)
            .field("result", &self.result)
            .finish_non_exhaustive()
    }
}

impl<T: Scalar> FittedModel<T> {
    /// Assemble a model from a finished fit (`data` must hold the final
    /// centroids). Only the centroid buffers are kept resident; the fit's
    /// sample buffers are released here.
    pub(crate) fn from_parts(
        session: Session,
        config: KMeansConfig,
        data: &DeviceData<T>,
        result: FitResult<T>,
        weights: Vec<u64>,
        batches: usize,
    ) -> Self {
        FittedModel {
            session,
            config,
            data: data.centroids_only(),
            result,
            weights,
            batches,
            policy: PredictPolicy::default(),
            scratch: PredictScratch::default(),
        }
    }

    /// The configuration the model was fitted under.
    pub fn config(&self) -> &KMeansConfig {
        &self.config
    }

    /// The session the model is bound to.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The full fit outcome.
    pub fn result(&self) -> &FitResult<T> {
        &self.result
    }

    /// Consume the model, keeping only the fit outcome (drops the
    /// device-resident buffers).
    pub fn into_result(self) -> FitResult<T> {
        self.result
    }

    /// Mini-batch batches consumed so far (0 for a full-batch fit).
    pub fn batches_seen(&self) -> usize {
        self.batches
    }

    /// Per-center accumulated sample counts — the mini-batch learning-rate
    /// denominators. For a full-batch fit these are the final cluster sizes.
    pub fn center_weights(&self) -> &[u64] {
        &self.weights
    }

    /// Feature dimensionality the model was trained on.
    pub fn dim(&self) -> usize {
        self.data.dim
    }

    /// The current serving precision policy.
    pub fn predict_policy(&self) -> PredictPolicy {
        self.policy
    }

    /// Set the serving precision policy. Labels and distances are identical
    /// under every policy (the quantized paths fall back to exact rows when
    /// the argmin margin is inside the quantization error).
    pub fn set_predict_policy(&mut self, policy: PredictPolicy) {
        self.policy = policy;
    }

    /// Builder-style [`FittedModel::set_predict_policy`].
    pub fn with_predict_policy(mut self, policy: PredictPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Snapshot of the model's cumulative serving-path counters (traffic,
    /// kernel launches, [`quant_fallbacks`](CounterSnapshot::quant_fallbacks),
    /// ...). Take deltas around calls to meter a single predict.
    pub fn predict_counters(&self) -> CounterSnapshot {
        self.scratch.counters.snapshot()
    }

    /// Cumulative serving-path fault-tolerance stats — `detected` counts
    /// quantized-table integrity failures caught (and repaired) by the
    /// digest guard at predict entry.
    pub fn predict_stats(&self) -> CampaignStats {
        *self.scratch.stats.lock()
    }

    /// The quantized resident table for `kind`, building it on first use.
    /// Fault campaigns reach through this to corrupt resident serving state
    /// ([`QuantizedCentroids::corrupt_code_bit`]).
    pub fn quantized_table(&self, kind: QuantKind) -> Arc<QuantizedCentroids<T>> {
        self.data.quant.get_or_build(
            kind,
            &self.data.centroids,
            self.data.k,
            self.data.dim,
            &self.scratch.counters,
        )
    }

    /// Assign each of `samples` to its nearest centroid.
    ///
    /// The resident centroid and centroid-norm buffers are shared (no
    /// re-upload, no centroid norm kernel re-run). The quantized policies
    /// read the query rows in place; the exact policy uploads them through
    /// its ingest launch. Every call runs the kernel: nothing is cached
    /// between calls.
    ///
    /// **Thread safety.** `predict`/`score` take `&self` and are safe to
    /// call from any number of threads concurrently: every
    /// `PredictScratch` field is either atomic (counters) or
    /// mutex-guarded, and each call's query rows and outputs are its own.
    pub fn predict(&self, samples: &Matrix<T>) -> Result<Vec<u32>, KMeansError> {
        Ok(self.assign(samples)?.0)
    }

    /// Total within-cluster sum of squared distances of `samples` against
    /// the fitted centroids (the K-means objective; lower is better). For
    /// the training inertia use the `inertia` result field. Runs the
    /// assignment kernel again, even straight after a `predict` of the same
    /// matrix.
    pub fn score(&self, samples: &Matrix<T>) -> Result<f64, KMeansError> {
        Ok(self.assign(samples)?.1)
    }

    /// Check that `samples` can be served: `dim` columns and every row
    /// admissible. A row holding a NaN or an infinity has no nearest
    /// centroid and is rejected with [`KMeansError::NonFinite`]; a finite
    /// row whose squared norm overflows the distance identity is rejected
    /// with [`KMeansError::Overflow`].
    pub fn validate_queries(&self, samples: &Matrix<T>) -> Result<(), KMeansError> {
        self.check_shape(samples)?;
        ensure_finite(samples)
    }

    fn check_shape(&self, samples: &Matrix<T>) -> Result<(), KMeansError> {
        if samples.cols() != self.data.dim {
            return Err(KMeansError::ShapeMismatch {
                what: "samples",
                expected: (samples.rows(), self.data.dim),
                got: (samples.rows(), samples.cols()),
            });
        }
        Ok(())
    }

    fn assign(&self, samples: &Matrix<T>) -> Result<(Vec<u32>, f64), KMeansError> {
        self.check_shape(samples)?;
        if samples.rows() == 0 {
            return Ok((Vec::new(), 0.0));
        }
        let counters = &self.scratch.counters;
        self.session.run(|| {
            ensure_finite(samples)?;
            let device = self.session.device();
            let seq = self.scratch.predict_seq.fetch_add(1, Ordering::Relaxed);
            phase::traced(trace::phases::PREDICT, seq, counters, || {
                let fallbacks_before = trace::active().then(|| counters.snapshot().quant_fallbacks);
                let out = match self.policy.quant_kind() {
                    Some(kind) => {
                        // Integrity guard: the digest must match before the
                        // quantized table serves a query; a corrupted table is
                        // detected here and rebuilt from the fp centroids.
                        let mut table = self.quantized_table(kind);
                        if !table.verify() {
                            self.scratch.stats.lock().detected += 1;
                            trace::fault(trace::faults::QUANT_DIGEST_MISMATCH, 1);
                            table = self.data.quant.rebuild(
                                kind,
                                &self.data.centroids,
                                self.data.k,
                                self.data.dim,
                                counters,
                            );
                        }
                        // The fused kernel reads the query rows in place and
                        // folds ‖x‖² into its distance pass, so this path
                        // uploads nothing and launches no sample-norms kernel.
                        predict_fused_assign(
                            device,
                            QueryView {
                                samples: samples.as_slice(),
                                centroids: &self.data.centroids,
                                m: samples.rows(),
                                k: self.data.k,
                                dim: self.data.dim,
                            },
                            &table,
                            counters,
                        )?
                    }
                    None => {
                        // Upload only the query samples; the resident centroid
                        // and centroid-norm buffers are shared, not re-uploaded.
                        let data = self
                            .data
                            .upload_samples_sharing_centroids(device, samples, counters)?;
                        run_assignment(
                            device,
                            &data,
                            self.config.variant,
                            self.config.ft.scheme,
                            &NoFault,
                            counters,
                            &self.scratch.stats,
                        )?
                    }
                };
                if let Some(before) = fallbacks_before {
                    trace::fault(
                        trace::faults::QUANT_FALLBACK,
                        counters.snapshot().quant_fallbacks.saturating_sub(before),
                    );
                }
                let inertia = out.distances.iter().map(|d| d.to_f64().max(0.0)).sum();
                Ok((out.labels, inertia))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use crate::reference::assign_reference;
    use crate::session::Session;

    fn blobs(m: usize, dim: usize, k: usize) -> Matrix<f64> {
        Matrix::from_fn(m, dim, |r, c| {
            ((r % k) * 12) as f64 + ((r * 7 + c * 3) % 5) as f64 * 0.05 + c as f64 * 0.01
        })
    }

    fn fitted(k: usize) -> (Matrix<f64>, FittedModel<f64>) {
        let data = blobs(90, 4, k);
        let model = Session::a100()
            .kmeans(KMeansConfig::new(k).with_seed(3))
            .fit_model(&data)
            .expect("fit");
        (data, model)
    }

    #[test]
    fn predict_matches_reference_assignment() {
        let (_, model) = fitted(3);
        let queries = blobs(30, 4, 3);
        let labels = model.predict(&queries).unwrap();
        let (want, _) = assign_reference(&queries, &model.centroids);
        assert_eq!(labels, want);
    }

    #[test]
    fn repeated_predicts_are_stable() {
        let (data, model) = fitted(3);
        let a = model.predict(&data).unwrap();
        let b = model.predict(&data).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            a, model.labels,
            "converged fit is an assignment fixed point"
        );
    }

    #[test]
    fn score_is_the_inertia_of_the_assignment() {
        let (data, model) = fitted(3);
        let score = model.score(&data).unwrap();
        assert!((score - model.inertia).abs() <= 1e-9 * model.inertia.max(1.0));
    }

    #[test]
    fn predict_rejects_wrong_dimensionality() {
        let (_, model) = fitted(3);
        let bad = Matrix::<f64>::zeros(5, 7);
        match model.predict(&bad) {
            Err(KMeansError::ShapeMismatch {
                what,
                expected,
                got,
            }) => {
                assert_eq!(what, "samples");
                assert_eq!(expected.1, 4);
                assert_eq!(got.1, 7);
            }
            other => panic!("expected shape mismatch, got {other:?}"),
        }
    }

    #[test]
    fn predict_works_for_every_variant() {
        let data = blobs(80, 3, 2);
        for variant in [
            Variant::Naive,
            Variant::GemmV1,
            Variant::FusedV2,
            Variant::BroadcastV3,
            Variant::Tensor(None),
        ] {
            let model = Session::a100()
                .kmeans(KMeansConfig::new(2).with_seed(1).with_variant(variant))
                .fit_model(&data)
                .expect("fit");
            let labels = model.predict(&data).unwrap();
            assert_eq!(labels.len(), 80);
        }
    }

    #[test]
    fn empty_predict_returns_no_labels_without_launching() {
        let (_, model) = fitted(3);
        let empty = Matrix::<f64>::zeros(0, 4);
        let before = model.predict_counters();
        assert_eq!(model.predict(&empty).unwrap(), Vec::<u32>::new());
        assert_eq!(model.score(&empty).unwrap(), 0.0);
        let delta = model.predict_counters().since(&before);
        assert_eq!(delta.kernel_launches, 0, "empty input launches nothing");
        // shape validation still applies to empty input
        assert!(model.predict(&Matrix::<f64>::zeros(0, 9)).is_err());
    }

    #[test]
    fn quantized_policies_match_exact_labels_and_score() {
        let (_, mut model) = fitted(4);
        let queries = blobs(57, 4, 4);
        let want_labels = model.predict(&queries).unwrap();
        let want_score = model.score(&queries).unwrap();
        for policy in [PredictPolicy::Fp16, PredictPolicy::Int8] {
            model.set_predict_policy(policy);
            let fresh = blobs(57, 4, 4);
            assert_eq!(model.predict(&fresh).unwrap(), want_labels, "{policy:?}");
            // the exact policy here runs the fitted tensor kernel, whose
            // norm-identity rounding differs in the last bits from the
            // reference scan the fused path reproduces — scores agree to
            // rounding noise
            let score = model.score(&fresh).unwrap();
            assert!(
                (score - want_score).abs() <= 1e-9 * want_score.max(1.0),
                "{policy:?}: {score} vs {want_score}"
            );
        }
    }

    #[test]
    fn quantized_score_is_bit_identical_to_the_naive_scan() {
        // Against a naive-variant model the fused path's distances are
        // reference arithmetic — the scores match exactly, not just closely.
        let data = blobs(90, 4, 3);
        let mut model = Session::a100()
            .kmeans(
                KMeansConfig::new(3)
                    .with_seed(3)
                    .with_variant(Variant::Naive),
            )
            .fit_model(&data)
            .expect("fit");
        let queries = blobs(41, 4, 3);
        let want = model.score(&queries).unwrap();
        for policy in [PredictPolicy::Fp16, PredictPolicy::Int8] {
            model.set_predict_policy(policy);
            let fresh = blobs(41, 4, 3);
            assert_eq!(model.score(&fresh).unwrap(), want, "{policy:?}");
        }
    }

    #[test]
    fn quantized_predict_skips_the_norms_kernel() {
        let (_, model) = fitted(3);
        let model = model.with_predict_policy(PredictPolicy::Int8);
        model.quantized_table(crate::quant::QuantKind::Int8); // prebuild
        let queries = blobs(40, 4, 3);
        let before = model.predict_counters();
        model.predict(&queries).unwrap();
        let delta = model.predict_counters().since(&before);
        assert_eq!(
            delta.kernel_launches, 1,
            "one fused launch — no separate sample-norms kernel"
        );
    }

    #[test]
    fn corrupted_quantized_table_is_detected_and_repaired() {
        let (data, mut model) = fitted(3);
        let want = model.predict(&data).unwrap();
        model.set_predict_policy(PredictPolicy::Fp16);
        let table = model.quantized_table(crate::quant::QuantKind::Fp16);
        table.corrupt_code_bit(5, 13);
        assert!(!table.verify());
        let queries = blobs(90, 4, 3);
        let labels = model.predict(&queries).unwrap();
        assert_eq!(labels, want, "guard repaired the table before serving");
        assert_eq!(model.predict_stats().detected, 1, "the flip was counted");
        // the rebuilt resident table verifies again
        assert!(model
            .quantized_table(crate::quant::QuantKind::Fp16)
            .verify());
    }

    #[test]
    fn concurrent_predicts_share_scratch_without_corruption() {
        // Overlapping predicts share the model's counters and stats but
        // never each other's queries or outputs. Eight threads hammer the
        // same model with *different* same-sized matrices; every one must
        // get its own reference labels.
        let data = blobs(512, 6, 4);
        let model = Session::a100()
            .kmeans(KMeansConfig::new(4).with_seed(9))
            .fit_model(&data)
            .expect("fit")
            .with_predict_policy(PredictPolicy::Int8);
        model.quantized_table(crate::quant::QuantKind::Int8); // prebuild
        std::thread::scope(|s| {
            for t in 0..8usize {
                let model = &model;
                s.spawn(move || {
                    let queries = Matrix::<f64>::from_fn(256, 6, |r, c| {
                        ((r + t * 131) % 4 * 12) as f64 + ((r * 7 + c * 3 + t) % 5) as f64 * 0.05
                    });
                    let (want, _) = assign_reference(&queries, &model.centroids);
                    for _ in 0..6 {
                        assert_eq!(
                            model.predict(&queries).unwrap(),
                            want,
                            "thread {t} read another caller's queries"
                        );
                    }
                });
            }
        });
    }

    #[test]
    fn clone_shares_device_state_with_fresh_scratch() {
        let (data, model) = fitted(3);
        let model = model.with_predict_policy(PredictPolicy::Fp16);
        // warm the original's table cache and counters
        let table = model.quantized_table(crate::quant::QuantKind::Fp16);
        model.predict(&data).unwrap();
        assert!(model.predict_counters().kernel_launches > 0);
        let twin = model.clone();
        // the quantized table cache is shared — no rebuild in the clone
        assert!(Arc::ptr_eq(
            &table,
            &twin.quantized_table(crate::quant::QuantKind::Fp16)
        ));
        // but serving scratch is fresh: per-clone metering starts at zero
        assert_eq!(twin.predict_counters(), CounterSnapshot::default());
        assert_eq!(twin.predict_policy(), PredictPolicy::Fp16);
        assert_eq!(twin.center_weights(), model.center_weights());
        let fresh = blobs(30, 4, 3);
        assert_eq!(
            twin.predict(&fresh).unwrap(),
            model.predict(&fresh).unwrap()
        );
        // a clone can continue a stream while the original keeps serving
        let cont = twin
            .session()
            .kmeans(twin.config().clone())
            .partial_fit(Some(twin), &fresh)
            .expect("continue stream from clone");
        assert_eq!(cont.batches_seen(), 1);
        assert_eq!(model.batches_seen(), 0, "original untouched");
    }

    #[test]
    fn in_place_edit_is_relabelled() {
        // A predict of a matrix edited in place since the last predict of
        // the same buffer labels the edited rows afresh. Two blobs apart
        // along column 1 only; the edited element (row 0, column 1) is not
        // at the start or end of the buffer, and moving it to 100 carries
        // row 0 across to the other blob.
        let two_blobs = |m: usize| {
            Matrix::<f64>::from_fn(m, 64, |r, c| {
                let centre = if c == 1 { (r % 2) as f64 * 10.0 } else { 0.0 };
                centre + ((r * 7 + c * 3) % 5) as f64 * 0.05
            })
        };
        let model = Session::a100()
            .kmeans(KMeansConfig::new(2).with_seed(1))
            .fit_model(&two_blobs(200))
            .expect("fit");
        for policy in [PredictPolicy::Exact, PredictPolicy::Int8] {
            let model = model.clone().with_predict_policy(policy);
            let mut q = two_blobs(128);
            let before = model.predict(&q).unwrap();
            q.set(0, 1, 100.0);
            let edited = model.predict(&q).unwrap();
            let fresh = model.predict(&q.clone()).unwrap();
            assert_ne!(fresh[0], before[0], "{policy:?}: the edit moves row 0");
            assert_eq!(edited, fresh, "{policy:?}: stale labels after an edit");
        }
    }

    #[test]
    fn full_fit_weights_are_cluster_sizes() {
        let (_, model) = fitted(3);
        let mut counts = vec![0u64; 3];
        for &l in &model.labels {
            counts[l as usize] += 1;
        }
        assert_eq!(model.center_weights(), counts.as_slice());
        assert_eq!(model.batches_seen(), 0);
    }
}
