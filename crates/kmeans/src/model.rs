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
//! kernel re-run — only the query samples are uploaded per call), and
//! [`crate::KMeans::fit_from`] uses the model's centroids as a warm
//! start.

use crate::assign::run_assignment;
use crate::config::{KMeansConfig, PredictPolicy};
use crate::device_data::DeviceData;
use crate::driver::FitResult;
use crate::error::{admissible, ensure_finite, rejected_row, sq_norm, KMeansError};
use crate::phase;
use crate::quant::{fnv1a64, fnv1a64_step, QuantKind, QuantizedCentroids, FNV1A64_BASIS};
use crate::session::Session;
use crate::variants::predict_fused::predict_fused_assign;
use fault::CampaignStats;
use gpu_sim::mma::NoFault;
use gpu_sim::{exec, CounterSnapshot, Counters, GlobalBuffer, Matrix, Scalar};
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
    scratch: PredictScratch<T>,
}

/// Hot-path predict state hoisted out of the per-call path: one counter
/// sink and one campaign-stats sink for the model's lifetime, the last
/// assignment memo (so `score` directly after `predict` on the same
/// matrix re-derives nothing — no upload, no norms kernel, no scan), and
/// the resident query buffer the quantized path re-fills instead of
/// re-allocating per batch.
struct PredictScratch<T: Scalar> {
    counters: Counters,
    stats: Mutex<CampaignStats>,
    memo: Mutex<Option<AssignMemo>>,
    query_buf: Mutex<Option<GlobalBuffer<T>>>,
    /// Monotone predict sequence number — the trace-span index of each
    /// served (non-memoized) predict, so timelines stay deterministic
    /// without wall-clock identifiers.
    predict_seq: AtomicU64,
}

impl<T: Scalar> Default for PredictScratch<T> {
    fn default() -> Self {
        PredictScratch {
            counters: Counters::new(),
            stats: Mutex::new(CampaignStats::default()),
            memo: Mutex::new(None),
            query_buf: Mutex::new(None),
            predict_seq: AtomicU64::new(0),
        }
    }
}

/// The memoized result of the most recent assignment, keyed by sample-
/// buffer identity: data pointer + shape + a digest of every element (the
/// pointer alone could be reused by a fresh allocation, or the matrix
/// edited in place between calls). Because every [`PredictPolicy`] returns
/// bit-identical labels and distances, the memo is valid across policy
/// switches.
struct AssignMemo {
    key: MemoKey,
    labels: Vec<u32>,
    inertia: f64,
}

/// Data pointer, rows, columns and digest of a query matrix.
type MemoKey = (usize, usize, usize, u64);

/// Rows per digest run: whole rows, about 2^18 elements.
fn run_rows(cols: usize) -> usize {
    ((1 << 18) / cols.max(1)).max(1)
}

/// Check and fingerprint the queries of a predict, and for a quantized
/// predict copy them into `buf`, in one parallel pass over `samples`: the
/// first row whose squared norm is not admissible is rejected with the
/// error [`ensure_finite`] gives, and the memo key hashes
/// every element by [`fnv1a64`] steps. Runs of [`run_rows`] rows are
/// digested in parallel on the current executor ([`LaneDigest`]) and the
/// run digests are then hashed in order, so a change to any single element
/// always changes its lane's digest, its run's and so the key, and a wider
/// in-place edit replays stale labels only on a chance 64-bit collision.
/// Each run is walked in groups of 64 rows that are checked, copied and
/// digested while they are in cache; a group's element count is a
/// multiple of sixteen, so the lanes see the elements as one slice would
/// show them. A run stops at its first rejected row.
fn ingest_queries<T: Scalar>(
    samples: &Matrix<T>,
    buf: Option<&GlobalBuffer<T>>,
) -> Result<MemoKey, KMeansError> {
    let (m, cols) = (samples.rows(), samples.cols());
    let per = run_rows(cols);
    let s = samples.as_slice();
    let mut runs = vec![(None, 0u64); m.div_ceil(per)];
    exec::with_current(|e| {
        e.par_chunks_mut(&mut runs, 1, |i, out| {
            let rows = i * per..m.min((i + 1) * per);
            let mut lanes = LaneDigest::new();
            for g0 in rows.clone().step_by(64) {
                let group = g0..rows.end.min(g0 + 64);
                let rejected = group
                    .clone()
                    .find(|&r| !admissible(sq_norm(samples.row(r))));
                if rejected.is_some() {
                    out[0] = (rejected, 0);
                    return;
                }
                let run = &s[group.start * cols..group.end * cols];
                if let Some(buf) = buf {
                    buf.write_range(group.start * cols, run);
                }
                lanes.absorb(run);
            }
            out[0] = (None, lanes.finish());
        })
    });
    if let Some(row) = runs.iter().find_map(|r| r.0) {
        return Err(rejected_row(samples, row));
    }
    let digest = fnv1a64(runs.into_iter().map(|r| r.1));
    Ok((s.as_ptr() as usize, m, cols, digest))
}

/// Eight [`fnv1a64`] lanes over one run. The run is read in 64-bit words,
/// one `f64` or two `f32` elements each (packing pairs halves the
/// multiply chain, which bounds the pass): word `i` folds into lane
/// `i % 8`, and the digest hashes the lanes and then, one element per
/// word, the tail that does not fill a group of eight words.
struct LaneDigest {
    lanes: [u64; 8],
    tail: ([u64; 15], usize),
}

impl LaneDigest {
    fn new() -> Self {
        LaneDigest {
            lanes: [FNV1A64_BASIS; 8],
            tail: ([0; 15], 0),
        }
    }

    /// Fold the run's next elements. Only its last slice may be ragged.
    fn absorb<T: Scalar>(&mut self, run: &[T]) {
        debug_assert_eq!(self.tail.1, 0, "a ragged slice ends the run");
        let per_word = (u64::BITS / T::BITS) as usize;
        let mut chunks = run.chunks_exact(8 * per_word);
        for chunk in &mut chunks {
            for (h, w) in self.lanes.iter_mut().zip(chunk.chunks_exact(per_word)) {
                let word = w
                    .iter()
                    .fold(0u64, |acc, v| acc.wrapping_shl(T::BITS) | v.to_raw_u64());
                *h = fnv1a64_step(*h, word);
            }
        }
        let rest = chunks.remainder();
        for (t, v) in self.tail.0.iter_mut().zip(rest) {
            *t = v.to_raw_u64();
        }
        self.tail.1 = rest.len();
    }

    fn finish(self) -> u64 {
        let (tail, n) = self.tail;
        fnv1a64(self.lanes.into_iter().chain(tail[..n].iter().copied()))
    }
}

/// Cloning a model is cheap: the device-resident centroid and
/// centroid-norm buffers (and the cached quantized tables) are shared via
/// device-pointer copies — no re-upload, no norm kernel re-run, no table
/// rebuild. The fit outcome and learning-rate weights are host-side copies
/// so the clone can continue a stream independently
/// ([`crate::KMeans::partial_fit`] consumes its model), and the clone gets
/// a *fresh* `PredictScratch` — counters, serving stats, and the memo
/// start at zero, so per-clone metering never cross-talks.
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
    /// the argmin margin is inside the quantization error), so switching
    /// never invalidates memoized results.
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
    /// Only the query samples are uploaded; the resident centroid and
    /// centroid-norm buffers are shared (no re-upload, no centroid norm
    /// kernel re-run).
    ///
    /// **Thread safety.** `predict`/`score` take `&self` and are safe to
    /// call from any number of threads concurrently: every
    /// `PredictScratch` field is either atomic (counters) or
    /// mutex-guarded, and the resident query buffer is handed to exactly
    /// one in-flight call at a time via a take/park lease — an overlapping
    /// caller allocates its own buffer rather than sharing device memory.
    /// Steady-state single-caller serving still re-allocates nothing.
    pub fn predict(&self, samples: &Matrix<T>) -> Result<Vec<u32>, KMeansError> {
        Ok(self.assign(samples)?.0)
    }

    /// Total within-cluster sum of squared distances of `samples` against
    /// the fitted centroids (the K-means objective; lower is better). For
    /// the training inertia use the `inertia` result field.
    pub fn score(&self, samples: &Matrix<T>) -> Result<f64, KMeansError> {
        Ok(self.assign(samples)?.1)
    }

    /// Check that `samples` can be served: `dim` columns and every entry
    /// finite. A NaN or infinite query has no nearest centroid, so it is
    /// rejected with [`KMeansError::NonFinite`] instead of labelled.
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
        // One pass checks and fingerprints the queries; the quantized path
        // leases its query buffer first and fills it in the same pass,
        // while the exact path uploads through its ingest launch after the
        // memo lookup. A shape error comes first, then the first rejected
        // row, then the memo.
        self.check_shape(samples)?;
        if samples.rows() == 0 {
            return Ok((Vec::new(), 0.0));
        }
        // The quantized path's buffer is model-owned scratch, re-filled in
        // place when the batch size repeats (steady-state serving
        // re-allocates nothing). It is *leased* out of the mutex until the
        // launch is done: a `GlobalBuffer` clone is a device-pointer copy,
        // so two overlapping predicts holding clones of one cached buffer
        // would overwrite each other's queries between their uploads and
        // launches. Taking the `Option` means an overlapping caller simply
        // allocates a fresh buffer; whoever finishes last parks theirs for
        // the next call.
        let leased = self.policy.quant_kind().map(|kind| {
            let len = samples.as_slice().len();
            let queries = match self.scratch.query_buf.lock().take() {
                Some(buf) if buf.len() == len => buf,
                _ => GlobalBuffer::zeros(len),
            };
            queries.set_sanitizer_label("serve.queries");
            (kind, queries)
        });
        let buf = leased.as_ref().map(|(_, queries)| queries);
        let key = match self.session.run(|| ingest_queries(samples, buf)) {
            Ok(key) => key,
            Err(e) => {
                if let Some((_, queries)) = leased {
                    *self.scratch.query_buf.lock() = Some(queries);
                }
                return Err(e);
            }
        };
        // `score` after `predict` on the same matrix (and repeated
        // predicts) replay the memo — no kernels.
        if let Some(memo) = self.scratch.memo.lock().as_ref() {
            if memo.key == key {
                if let Some((_, queries)) = leased {
                    *self.scratch.query_buf.lock() = Some(queries);
                }
                return Ok((memo.labels.clone(), memo.inertia));
            }
        }
        let counters = &self.scratch.counters;
        let (labels, inertia) = self.session.run(|| {
            let device = self.session.device();
            let seq = self.scratch.predict_seq.fetch_add(1, Ordering::Relaxed);
            phase::traced(trace::phases::PREDICT, seq, counters, || {
                let fallbacks_before = trace::active().then(|| counters.snapshot().quant_fallbacks);
                let out = match leased {
                    Some((kind, queries)) => {
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
                        // Only the raw query buffer was uploaded (not a
                        // launch) — the fused kernel folds ‖x‖² into its
                        // distance pass, so this path launches no
                        // sample-norms kernel at all.
                        let out = predict_fused_assign(
                            device,
                            crate::variants::predict_fused::QueryView {
                                samples: &queries,
                                centroids: &self.data.centroids,
                                m: samples.rows(),
                                k: self.data.k,
                                dim: self.data.dim,
                            },
                            &table,
                            counters,
                        )?;
                        *self.scratch.query_buf.lock() = Some(queries);
                        out
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
                Ok::<_, KMeansError>((out.labels, inertia))
            })
        })?;
        *self.scratch.memo.lock() = Some(AssignMemo {
            key,
            labels: labels.clone(),
            inertia,
        });
        Ok((labels, inertia))
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
    fn score_after_predict_replays_the_memo() {
        let (data, model) = fitted(3);
        let labels = model.predict(&data).unwrap();
        let before = model.predict_counters();
        let score = model.score(&data).unwrap();
        let delta = model.predict_counters().since(&before);
        assert_eq!(delta.kernel_launches, 0, "memo hit re-runs nothing");
        assert_eq!(delta.bytes_loaded, 0);
        assert_eq!(model.predict(&data).unwrap(), labels, "repeat predict too");
        assert!(score > 0.0);
        // a different matrix misses the memo and really runs
        let fresh = blobs(30, 4, 3);
        let before = model.predict_counters();
        model.predict(&fresh).unwrap();
        assert!(model.predict_counters().since(&before).kernel_launches > 0);
    }

    #[test]
    fn quantized_policies_match_exact_labels_and_score() {
        let (_, mut model) = fitted(4);
        let queries = blobs(57, 4, 4);
        let want_labels = model.predict(&queries).unwrap();
        let want_score = model.score(&queries).unwrap();
        for policy in [PredictPolicy::Fp16, PredictPolicy::Int8] {
            model.set_predict_policy(policy);
            // distinct allocation so the memo can't answer for the kernel
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
        // Regression test for the query-buffer lease: before it, two
        // overlapping predicts of the same batch size cloned one cached
        // device buffer and overwrote each other's queries between upload
        // and launch. Eight threads hammer the same model with *different*
        // same-sized matrices; every one must get its own reference labels.
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
    fn in_place_edit_misses_the_memo() {
        // Two blobs apart along column 1 only. The edited element (row 0,
        // column 1) is not at the start or end of the buffer, and moving it
        // to 100 carries row 0 across to the other blob.
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
            assert_eq!(edited, fresh, "{policy:?}: stale memo after an edit");
        }
    }

    /// The memo key of `x`, from the query ingest without a buffer.
    fn query_key<T: Scalar>(x: &Matrix<T>) -> MemoKey {
        ingest_queries(x, None).unwrap()
    }

    /// The query ingest keys the samples as one slice per digest run would,
    /// with or without a buffer, fills the buffer with the samples, and
    /// rejects the row `ensure_finite` names: ragged shapes, one and
    /// several digest runs.
    #[test]
    fn query_ingest_matches_the_separate_passes() {
        fn whole_run_key<T: Scalar>(x: &Matrix<T>) -> MemoKey {
            let runs = x.as_slice().chunks(run_rows(x.cols()) * x.cols());
            let digests = runs.map(|run| {
                let mut lanes = LaneDigest::new();
                lanes.absorb(run);
                lanes.finish()
            });
            let ptr = x.as_slice().as_ptr() as usize;
            (ptr, x.rows(), x.cols(), fnv1a64(digests))
        }
        for (rows, cols) in [(1, 1), (7, 3), (130, 65), (4100, 65), (8200, 33)] {
            let x = Matrix::<f32>::from_fn(rows, cols, |r, c| (r * 7 + c * 13) as f32 * 0.25 - 9.0);
            let buf = GlobalBuffer::zeros(rows * cols);
            let want = whole_run_key(&x);
            assert_eq!(
                ingest_queries(&x, Some(&buf)).unwrap(),
                want,
                "{rows}x{cols}"
            );
            assert_eq!(query_key(&x), want, "{rows}x{cols} without a buffer");
            assert_eq!(buf.to_vec(), x.as_slice(), "{rows}x{cols} upload");
            let y = Matrix::<f64>::from_fn(rows, cols, |r, c| (r * 3 + c) as f64 * 0.5);
            let buf = GlobalBuffer::zeros(rows * cols);
            let want = whole_run_key(&y);
            assert_eq!(
                ingest_queries(&y, Some(&buf)).unwrap(),
                want,
                "f64 {rows}x{cols}"
            );
            assert_eq!(query_key(&y), want, "f64 {rows}x{cols} without a buffer");
            let mut bad = x.clone();
            for (r, v) in [
                (rows - 1, f32::INFINITY),
                (rows / 2, f32::MAX),
                (rows * 3 / 4, f32::NAN),
            ] {
                bad.set(r, cols / 2, v);
            }
            let want = ensure_finite(&bad).unwrap_err().to_string();
            let buf = GlobalBuffer::zeros(rows * cols);
            for got in [ingest_queries(&bad, Some(&buf)), ingest_queries(&bad, None)] {
                assert_eq!(
                    got.unwrap_err().to_string(),
                    want,
                    "{rows}x{cols} rejected row"
                );
            }
        }
    }

    #[test]
    fn in_place_negations_change_the_memo_key() {
        let fresh = || Matrix::<f64>::from_fn(128, 64, |r, c| 1.0 + (r * 64 + c) as f64 * 0.01);
        let before = query_key(&fresh());
        // two elements: their sign bits must not cancel in the digest
        let mut x = fresh();
        x.set(3, 5, -x.get(3, 5));
        x.set(90, 17, -x.get(90, 17));
        assert_ne!(query_key(&x), before, "two negated elements");
        // a whole column of an even-row batch: 128 sign flips
        let mut x = fresh();
        for r in 0..x.rows() {
            x.set(r, 1, -x.get(r, 1));
        }
        assert_ne!(query_key(&x), before, "negated column");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        #[test]
        fn any_single_bit_flip_changes_the_memo_key(
            rows in 1usize..160,
            cols in 1usize..72,
            pick in 0usize..usize::MAX,
            bit in 0u32..64,
        ) {
            let mut x = Matrix::<f64>::from_fn(rows, cols, |r, c| {
                (r * 31 + c * 17) as f64 * 0.37 - 40.0
            });
            let (r, c) = (pick % rows, pick / rows % cols);
            let before = query_key(&x);
            x.set(r, c, x.get(r, c).flip_bit(bit));
            proptest::prop_assert_ne!(query_key(&x), before, "({}, {}) bit {}", r, c, bit);
            // single-precision elements hash as their 32 raw bits
            let mut y = Matrix::<f32>::from_fn(rows, cols, |r, c| (r + 3 * c) as f32 * 0.5);
            let before = query_key(&y);
            y.set(r, c, y.get(r, c).flip_bit(bit % 32));
            proptest::prop_assert_ne!(query_key(&y), before, "f32 ({}, {}) bit {}", r, c, bit);
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
