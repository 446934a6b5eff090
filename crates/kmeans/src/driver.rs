//! The Lloyd-iteration driver: init → (assign → update)* → converge.
//!
//! [`KMeans`] is an estimator handle bound to a [`Session`]. Every fit entry
//! point ([`KMeans::fit_model`], [`KMeans::partial_fit`],
//! [`KMeans::fit_from`]) returns a [`crate::FittedModel`] that owns the
//! device-resident state and derefs to its [`FitResult`], or a
//! [`KMeansError`]. A campaign's fault-free twin is a second `fit_model`
//! with [`crate::FtConfig::without_injection`]: the injector keys every
//! draw by (seed, launch, block, per-block call ordinal), so an injected
//! fit is as schedule-independent as a clean one.

use crate::assign::{run_assignment, AssignmentResult};
use crate::config::{KMeansConfig, Variant};
use crate::device_data::DeviceData;
use crate::error::KMeansError;
use crate::init::{init_centroids, reseed_empty_clusters};
use crate::ledger::FaultLedger;
use crate::minibatch;
use crate::model::FittedModel;
use crate::norms::{inertia_kernel, ingest_samples};
use crate::phase;
use crate::session::Session;
use crate::update::{centroid_drift, update_centroids};
use crate::variants::hamerly;
use fault::{CampaignStats, InjectionRecord, RateRealization};
use gpu_sim::counters::CounterSnapshot;
use gpu_sim::mma::NoFault;
use gpu_sim::{Counters, DeviceProfile, Matrix, Scalar};

/// Per-iteration progress record (populated when history tracking is on).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationEvent {
    /// Lloyd iteration index (0-based). For a streaming fit, the batch
    /// index.
    pub iteration: usize,
    /// Inertia after the assignment step.
    pub inertia: f64,
    /// Samples whose assignment changed relative to the previous iteration.
    pub reassigned: usize,
    /// Clusters that ended the iteration empty (before reseeding).
    pub empty_clusters: usize,
}

/// Outcome of a `fit`.
#[derive(Debug, Clone)]
pub struct FitResult<T> {
    /// Final centroids, `k x dim`.
    pub centroids: Matrix<T>,
    /// Final assignment per sample (for a streaming fit: the most recent
    /// batch).
    pub labels: Vec<u32>,
    /// Final within-cluster sum of squares (for a streaming fit: of the
    /// most recent batch under the post-update centroids).
    pub inertia: f64,
    /// Lloyd iterations executed. Streaming fits count one per batch, and
    /// a full fit continued via `partial_fit` keeps counting forward
    /// (Lloyd iterations + batches).
    pub iterations: usize,
    /// Whether the tolerance criterion fired before `max_iter`. Always
    /// `false` after a `partial_fit` step: a stream has no convergence
    /// criterion (every batch moves the centroids).
    pub converged: bool,
    /// The fit's whole fault record (accumulated across batches for a
    /// streaming fit): faults injected, checksum detections, corrections,
    /// rebaselines and recomputations, Hamerly revalidations, DMR
    /// mismatches and unresolved evaluations of the update phase, and the
    /// out-of-range labels it caught (counted as detected).
    pub ft_stats: CampaignStats,
    /// Hardware-event counters accumulated over the whole fit.
    pub counters: CounterSnapshot,
    /// Every fault injected during the fit, ordered by (launch, block,
    /// per-block call ordinal) so the order does not depend on block
    /// scheduling (empty without an injection campaign). Campaign harnesses
    /// log these as per-injection JSONL records.
    pub injection_records: Vec<InjectionRecord>,
    /// Requested vs. achievable injection rate of the campaign schedule
    /// (`None` without an injection campaign). When the requested rate
    /// saturates the per-block probability clamp the achieved rate falls
    /// short — see [`fault::RateRealization`]. For a streaming fit this is
    /// the *worst* (lowest achieved/requested) realization over all
    /// batches, so saturation anywhere in the stream stays visible.
    pub injection_realization: Option<RateRealization>,
    /// Per-iteration trace (inertia, reassignments, empty clusters).
    pub history: Vec<IterationEvent>,
}

/// The FT K-means estimator, bound to a [`Session`].
#[derive(Debug, Clone)]
pub struct KMeans {
    session: Session,
    config: KMeansConfig,
}

impl KMeans {
    /// Build an estimator for a device (a fresh single-use [`Session`] is
    /// created under the hood; to amortize session state across estimators
    /// use [`Session::kmeans`] / [`KMeans::with_session`]).
    pub fn new(device: DeviceProfile, config: KMeansConfig) -> Self {
        KMeans::with_session(Session::new(device), config)
    }

    /// Build an estimator sharing an existing session.
    pub fn with_session(session: Session, config: KMeansConfig) -> Self {
        KMeans { session, config }
    }

    /// Convenience: A100 with the given cluster count, everything default.
    pub fn with_k(k: usize) -> Self {
        KMeans::new(DeviceProfile::a100(), KMeansConfig::new(k))
    }

    /// The configuration in use.
    pub fn config(&self) -> &KMeansConfig {
        &self.config
    }

    /// The session this estimator runs in.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Fit the estimator on `samples` (row-major `m x dim`), returning a
    /// [`FittedModel`] that owns the device-resident final centroids —
    /// enabling re-upload-free [`FittedModel::predict`] /
    /// [`FittedModel::score`] and [`KMeans::fit_from`] warm starts. The
    /// model derefs to its [`FitResult`]; [`FittedModel::into_result`]
    /// takes it by value.
    pub fn fit_model<T: Scalar>(&self, samples: &Matrix<T>) -> Result<FittedModel<T>, KMeansError> {
        let (result, data) = self
            .session
            .run(|| lloyd_core(&self.session, &self.config, samples, None))?;
        Ok(finish_model(
            self.session.clone(),
            self.config.clone(),
            result,
            data,
        ))
    }

    /// Fit on `samples` starting from `warm`'s centroids instead of a fresh
    /// initialization — the warm-start path for refitting on grown or
    /// drifted data. The estimator's `k` must match the warm model's.
    pub fn fit_from<T: Scalar>(
        &self,
        warm: &FittedModel<T>,
        samples: &Matrix<T>,
    ) -> Result<FittedModel<T>, KMeansError> {
        let init = &warm.result.centroids;
        if init.rows() != self.config.k || init.cols() != samples.cols() {
            return Err(KMeansError::ShapeMismatch {
                what: "warm-start centroids",
                expected: (self.config.k, samples.cols()),
                got: (init.rows(), init.cols()),
            });
        }
        let (result, data) = self
            .session
            .run(|| lloyd_core(&self.session, &self.config, samples, Some(init)))?;
        Ok(finish_model(
            self.session.clone(),
            self.config.clone(),
            result,
            data,
        ))
    }

    /// Streaming mini-batch K-means: consume one batch and return the
    /// updated model.
    ///
    /// Pass `None` for the first batch (centroids are initialized from it;
    /// the batch must therefore hold at least `k` samples) and the previous
    /// return value afterwards. A model produced by [`KMeans::fit_model`]
    /// can also be continued this way — its final cluster sizes seed the
    /// learning-rate denominators. Per-batch assignment runs the configured
    /// kernel variant (with ABFT and fault injection, when enabled);
    /// centroid updates apply the aggregated mini-batch learning-rate rule.
    /// `ft_stats` and hardware counters accumulate across batches, and
    /// the produced centroids are byte-identical under `FTK_EXEC=serial`
    /// and the parallel pool.
    pub fn partial_fit<T: Scalar>(
        &self,
        model: Option<FittedModel<T>>,
        batch: &Matrix<T>,
    ) -> Result<FittedModel<T>, KMeansError> {
        minibatch::partial_fit_step(&self.session, &self.config, model, batch)
    }
}

/// Wrap a finished Lloyd fit into a model: the learning-rate weights of a
/// full-batch fit are its final cluster sizes, so a stream can continue
/// from it seamlessly.
fn finish_model<T: Scalar>(
    session: Session,
    config: KMeansConfig,
    result: FitResult<T>,
    data: DeviceData<T>,
) -> FittedModel<T> {
    let mut weights = vec![0u64; config.k];
    for &l in &result.labels {
        if let Some(w) = weights.get_mut(l as usize) {
            *w += 1;
        }
    }
    FittedModel::from_parts(session, config, &data, result, weights, 0)
}

/// The full-batch Lloyd loop. Returns the fit outcome together with the
/// device-resident data (whose centroids are the final ones); a
/// [`FittedModel`] keeps the centroid buffers of that data resident.
fn lloyd_core<T: Scalar>(
    session: &Session,
    cfg: &KMeansConfig,
    samples: &Matrix<T>,
    warm_start: Option<&Matrix<T>>,
) -> Result<(FitResult<T>, DeviceData<T>), KMeansError> {
    let device = session.device();
    let (m, dim) = (samples.rows(), samples.cols());
    cfg.validate(m, dim)?;

    let counters = Counters::new();

    let (mut centroids, mut data) = phase::traced(trace::phases::INIT, 0, &counters, || {
        // Ingest before init: a NaN or overflowing row is rejected here,
        // before any seeding reads it.
        let ingested = ingest_samples(device, samples, &counters)?;
        let centroids = match warm_start {
            Some(init) => init.clone(),
            None => init_centroids(samples, cfg.k, cfg.seed, cfg.init),
        };
        let mut data = DeviceData::with_samples(device, ingested, &centroids, &counters)?;
        if cfg.variant == Variant::Hamerly {
            // Vacuous bounds (u = +∞) make the first pruned pass a full
            // scan; the half-separations must exist before any assignment
            // runs.
            data.ensure_bounds();
            hamerly::compute_s_half(device, &data, &counters)?;
        }
        Ok::<_, KMeansError>((centroids, data))
    })?;

    let ledger = FaultLedger::new::<T>(device, cfg, m, dim, cfg.max_iter);

    let mut prev_inertia = f64::INFINITY;
    let mut labels = vec![0u32; m];
    let mut inertia;
    let mut converged = false;
    let mut iterations = 0;
    let mut history = Vec::with_capacity(cfg.max_iter);
    // Baseline for the per-iteration fault events, so trace streams see
    // every ledger movement exactly once.
    let mut fault_base = CampaignStats::default();

    for it in 0..cfg.max_iter {
        iterations = it + 1;
        ledger.begin_launch();
        let assignment: AssignmentResult<T> =
            phase::traced(trace::phases::ASSIGNMENT, it as u64, &counters, || {
                run_assignment(
                    device,
                    &data,
                    cfg.variant,
                    cfg.ft.scheme,
                    ledger.hook(),
                    &counters,
                    ledger.stats(),
                )
            })?;
        // Hamerly protection: periodic exact revalidation of the resident
        // bound state, widened to the whole population on the final
        // iteration so no corrupted bound survives the fit. Under a
        // protective scheme every due sweep is full-width and doubles as a
        // verify-and-repair pass (the sweep *is* this variant's ABFT — a
        // partial stratum would let a struck assignment poison the update
        // it feeds); unprotected fits keep the cheap rotating stratum,
        // where violations are booked as detected and repaired by a
        // verified (hook-free) un-pruned re-assignment that rebuilds both
        // labels and bounds.
        let assignment = if cfg.variant == Variant::Hamerly {
            let last = it + 1 == cfg.max_iter;
            let periodic = cfg.ft.revalidate_every > 0 && (it + 1) % cfg.ft.revalidate_every == 0;
            if last || periodic {
                phase::traced(trace::phases::REVALIDATION, it as u64, &counters, || {
                    if last || cfg.ft.scheme != abft::SchemeKind::None {
                        let (violations, exact) =
                            hamerly::revalidate_and_repair(device, &data, &counters)?;
                        ledger.revalidated(violations);
                        Ok::<_, KMeansError>(exact)
                    } else {
                        let r = hamerly::REVALIDATE_STRIDE;
                        let stratum = (it + 1) / cfg.ft.revalidate_every % r;
                        let violations = hamerly::revalidate(device, &data, r, stratum, &counters)?;
                        let repaired = if violations > 0 {
                            hamerly::hamerly_assign(device, &data, true, &NoFault, &counters)?
                        } else {
                            assignment
                        };
                        ledger.revalidated(violations);
                        Ok(repaired)
                    }
                })?
            } else {
                assignment
            }
        } else {
            assignment
        };
        let reassigned = if it == 0 {
            m
        } else {
            labels
                .iter()
                .zip(&assignment.labels)
                .filter(|(a, b)| a != b)
                .count()
        };
        labels = assignment.labels;
        inertia = assignment
            .distances
            .iter()
            .map(|d| d.to_f64().max(0.0)) // FP cancellation may yield -0 epsilon
            .sum();

        ledger.begin_launch();
        let update = phase::traced(trace::phases::UPDATE, it as u64, &counters, || {
            update_centroids(
                device,
                &data.samples,
                m,
                dim,
                &labels,
                &centroids,
                cfg.ft.dmr_update,
                ledger.hook(),
                &counters,
            )
        })?;
        ledger.absorb_update(&update);
        centroids = update.centroids;

        let empty_clusters = update.counts.iter().filter(|&&c| c == 0).count();
        history.push(IterationEvent {
            iteration: it,
            inertia,
            reassigned,
            empty_clusters,
        });

        // Empty-cluster repair: reseed each empty cluster at the sample
        // currently farthest from its centroid.
        reseed_empty_clusters(
            &mut centroids,
            &update.counts,
            samples,
            &assignment.distances,
        );

        phase::traced(trace::phases::DRIFT, it as u64, &counters, || {
            let old_centroids = data.bounds.is_some().then(|| data.centroids.clone());
            data.refresh_centroids(device, &centroids, &counters)?;
            if let (Some(old), Some(bounds)) = (old_centroids, data.bounds.as_ref()) {
                // The update-phase fold-in of the Hamerly variant: measure
                // how far each centroid moved (including reseeds), refresh
                // the half-separations, and loosen the bounds eagerly so
                // they stay current against the refreshed centroids.
                let max_drift = centroid_drift(
                    device,
                    &old,
                    &data.centroids,
                    cfg.k,
                    dim,
                    &bounds.drift,
                    &counters,
                )?;
                hamerly::compute_s_half(device, &data, &counters)?;
                hamerly::apply_drift(device, &data, max_drift, &counters)?;
            }
            Ok::<_, KMeansError>(())
        })?;

        ledger.emit_since(&mut fault_base);

        let rel = if prev_inertia.is_finite() && prev_inertia > 0.0 {
            (prev_inertia - inertia).abs() / prev_inertia
        } else {
            f64::INFINITY
        };
        if rel < cfg.tol {
            converged = true;
            break;
        }
        prev_inertia = inertia;
    }

    // The loop's `inertia` was measured against the centroids the last
    // assignment ran with, but `centroids` has since been updated (and
    // possibly reseeded). Re-measure so the returned inertia is the cost
    // of the returned labels under the returned centroids, which
    // `refresh_centroids` has made resident. (On a max_iter-bounded fit the
    // labels themselves may still predate the final update — no extra
    // assignment pass is run, matching `lloyd_reference`.) One launch over
    // the resident samples, within 1e-12 relative of the host reference
    // `metrics::inertia` and bitwise the same under every executor.
    let inertia = phase::traced(trace::phases::INERTIA, 0, &counters, || {
        inertia_kernel(device, &data, &labels, &counters)
    })?;

    let (ft_stats, injection_records, injection_realization) = ledger.finish();
    let result = FitResult {
        centroids,
        labels,
        inertia,
        iterations,
        converged,
        ft_stats,
        counters: counters.snapshot(),
        injection_records,
        injection_realization,
        history,
    };
    Ok((result, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FtConfig, InitMethod};
    use crate::metrics::inertia as inertia_of;
    use crate::reference::lloyd_reference;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn blobs(m: usize, dim: usize, k: usize, seed: u64) -> Matrix<f64> {
        // lightweight local blob generator to avoid a dev-dependency cycle
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(m, dim, |r, c| {
            let center = ((r % k) * 10) as f64;
            center + ((rng.random::<f64>() - 0.5) * 0.5) + c as f64 * 0.01
        })
    }

    #[test]
    fn fit_recovers_separated_clusters() {
        let data = blobs(120, 3, 3, 1);
        let km = KMeans::new(
            DeviceProfile::a100(),
            KMeansConfig::new(3)
                .with_variant(Variant::Tensor(None))
                .with_seed(5),
        );
        let r = km.fit_model(&data).unwrap();
        assert!(r.converged, "should converge on separable data");
        assert!(r.iterations <= 50);
        // every cluster used
        let mut seen = [false; 3];
        for &l in &r.labels {
            seen[l as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // inertia consistent with returned centroids/labels
        let check = inertia_of(&data, &r.centroids, &r.labels);
        assert!((check - r.inertia).abs() / check.max(1.0) < 1e-6);
    }

    #[test]
    fn matches_cpu_reference_per_iteration() {
        let data = blobs(90, 4, 3, 2);
        let km = KMeans::new(
            DeviceProfile::a100(),
            KMeansConfig {
                k: 3,
                max_iter: 8,
                tol: 0.0, // run all iterations
                seed: 11,
                ..Default::default()
            },
        );
        let r = km.fit_model(&data).unwrap();
        let init = init_centroids(&data, 3, 11, InitMethod::RandomSamples);
        let (_, ref_labels, _) = lloyd_reference(&data, &init, 8);
        assert_eq!(r.labels, ref_labels);
    }

    #[test]
    fn all_variants_agree_on_final_labels() {
        let data = blobs(100, 5, 4, 3);
        let variants = [
            Variant::Naive,
            Variant::GemmV1,
            Variant::FusedV2,
            Variant::BroadcastV3,
            Variant::Tensor(None),
            Variant::Hamerly,
        ];
        let session = Session::a100();
        let mut results = Vec::new();
        for v in variants {
            let km = session.kmeans(KMeansConfig::new(4).with_variant(v).with_seed(9));
            results.push(km.fit_model(&data).unwrap().into_result().labels);
        }
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
    }

    #[test]
    fn history_tracks_monotone_convergence() {
        let data = blobs(150, 3, 3, 17);
        let km = KMeans::new(
            DeviceProfile::a100(),
            KMeansConfig {
                k: 3,
                max_iter: 15,
                tol: 0.0,
                seed: 2,
                ..Default::default()
            },
        );
        let r = km.fit_model(&data).unwrap();
        assert_eq!(r.history.len(), r.iterations);
        assert_eq!(
            r.history[0].reassigned, 150,
            "first iteration assigns everything"
        );
        // Lloyd monotonicity: inertia never increases along the trace.
        for w in r.history.windows(2) {
            assert!(
                w[1].inertia <= w[0].inertia * (1.0 + 1e-12),
                "inertia rose: {} -> {}",
                w[0].inertia,
                w[1].inertia
            );
        }
        // Once the assignment stabilizes, reassignment counts hit zero.
        assert_eq!(r.history.last().unwrap().reassigned, 0);
    }

    #[test]
    fn kmeans_plus_plus_initializes_distinctly() {
        let data = blobs(60, 2, 4, 4);
        let km = KMeans::new(
            DeviceProfile::a100(),
            KMeansConfig::new(4)
                .with_init(InitMethod::KMeansPlusPlus)
                .with_seed(21),
        );
        let r = km.fit_model(&data).unwrap();
        assert!(r.converged);
        let mut seen = [false; 4];
        for &l in &r.labels {
            seen[l as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn rejects_degenerate_configs_with_typed_errors() {
        let data = Matrix::<f32>::zeros(5, 2);
        let session = Session::a100();
        match session.kmeans(KMeansConfig::new(0)).fit_model(&data) {
            Err(KMeansError::InvalidConfig { field: "k", .. }) => {}
            other => panic!("k = 0 must be InvalidConfig(k): {other:?}"),
        }
        match session.kmeans(KMeansConfig::new(6)).fit_model(&data) {
            Err(KMeansError::InvalidConfig { field: "k", .. }) => {}
            other => panic!("k > m must be InvalidConfig(k): {other:?}"),
        }
    }

    #[test]
    fn non_finite_training_data_is_a_typed_error() {
        let session = Session::a100();
        // One NaN and one +Inf cell; the error names the first in row-major
        // order, whichever of the two it is.
        for (bad, other) in [(f64::NAN, f64::INFINITY), (f64::INFINITY, f64::NAN)] {
            let mut data = blobs(64, 3, 2, 5);
            data.set(17, 2, bad);
            data.set(40, 0, other);
            let want = Err(KMeansError::NonFinite { row: 17, col: 2 });
            for v in [
                Variant::Naive,
                Variant::GemmV1,
                Variant::FusedV2,
                Variant::BroadcastV3,
                Variant::Tensor(None),
                Variant::Hamerly,
            ] {
                let km = session.kmeans(KMeansConfig::new(2).with_variant(v));
                let got = km.fit_model(&data).map(|_| ());
                assert_eq!(got, want, "{v:?} fit on {bad}");
            }
            let km = session.kmeans(KMeansConfig::new(2));
            let first = km.partial_fit(None, &data).map(|_| ());
            assert_eq!(first, want, "first partial_fit batch holding {bad}");
            let model = km.fit_model(&blobs(64, 3, 2, 6)).unwrap();
            let next = km.partial_fit(Some(model), &data).map(|_| ());
            assert_eq!(next, want, "continued partial_fit batch holding {bad}");
        }
    }

    #[test]
    fn predict_assigns_new_samples() {
        let data = blobs(80, 3, 2, 7);
        let km = Session::a100().kmeans(KMeansConfig::new(2).with_seed(1));
        let fitted = km.fit_model(&data).unwrap();
        let labels = fitted.predict(&data).unwrap();
        assert_eq!(labels, fitted.labels);
    }

    #[test]
    fn fit_from_warm_start_reaches_the_same_fixed_point_faster() {
        let data = blobs(200, 4, 3, 19);
        let km = Session::a100().kmeans(KMeansConfig::new(3).with_seed(6));
        let cold = km.fit_model(&data).unwrap();
        let warm = km.fit_from(&cold, &data).unwrap();
        assert_eq!(warm.labels, cold.labels, "fixed point is stable");
        assert!(
            warm.iterations <= cold.iterations,
            "warm start must not be slower: {} vs {}",
            warm.iterations,
            cold.iterations
        );
        // shape-checked warm starts
        let km2 = Session::a100().kmeans(KMeansConfig::new(4).with_seed(6));
        assert!(matches!(
            km2.fit_from(&cold, &data),
            Err(KMeansError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn protected_fit_under_injection_matches_clean_fit() {
        let data = blobs(128, 4, 4, 8);
        let clean = KMeans::new(
            DeviceProfile::a100(),
            KMeansConfig::new(4).with_seed(2).with_ft(FtConfig {
                scheme: abft::SchemeKind::FtKMeans,
                dmr_update: true,
                injection: fault::InjectionSchedule::Off,
                injection_seed: 0,
                ..Default::default()
            }),
        )
        .fit_model(&data)
        .unwrap();
        let injected = KMeans::new(
            DeviceProfile::a100(),
            KMeansConfig::new(4).with_seed(2).with_ft(FtConfig {
                scheme: abft::SchemeKind::FtKMeans,
                dmr_update: true,
                injection: fault::InjectionSchedule::PerBlock { probability: 0.8 },
                injection_seed: 99,
                ..Default::default()
            }),
        )
        .fit_model(&data)
        .unwrap();
        assert!(
            injected.ft_stats.injected > 0,
            "campaign must actually inject"
        );
        assert_eq!(injected.labels, clean.labels, "FT must absorb every fault");
        assert!(injected.ft_stats.handled() + injected.ft_stats.dmr_mismatches > 0);
    }

    #[test]
    fn twin_fit_pairs_injected_with_fault_free() {
        let data = blobs(256, 4, 4, 12);
        let cfg = KMeansConfig::new(4).with_seed(3).with_ft(FtConfig {
            scheme: abft::SchemeKind::FtKMeans,
            dmr_update: true,
            injection: fault::InjectionSchedule::PerBlock { probability: 0.9 },
            injection_seed: 5,
            ..Default::default()
        });
        let session = Session::a100();
        let injected = session.kmeans(cfg.clone()).fit_model(&data).unwrap();
        let clean_cfg = KMeansConfig {
            ft: cfg.ft.without_injection(),
            ..cfg
        };
        let clean = session.kmeans(clean_cfg).fit_model(&data).unwrap();
        assert!(injected.ft_stats.injected > 0, "injected leg must inject");
        assert_eq!(clean.ft_stats.injected, 0, "twin must be fault-free");
        assert_eq!(
            injected.injection_records.len() as u64,
            injected.ft_stats.injected,
            "records mirror the count"
        );
        assert!(clean.injection_records.is_empty());
        assert!(clean.injection_realization.is_none());
        // FP64 + FtKMeans absorbs the barrage, so the pair agrees.
        assert_eq!(injected.labels, clean.labels);
    }

    #[test]
    fn residency_rate_schedule_injects_and_reports_realization() {
        let data = blobs(512, 8, 4, 14);
        let fit = |rate: f64| {
            KMeans::new(
                DeviceProfile::a100(),
                KMeansConfig {
                    k: 4,
                    max_iter: 6,
                    tol: 0.0,
                    seed: 4,
                    ft: FtConfig {
                        scheme: abft::SchemeKind::FtKMeans,
                        dmr_update: true,
                        injection: fault::InjectionSchedule::Rate {
                            errors_per_second: rate,
                        },
                        injection_seed: 9,
                        modeled_residency_s: 1.0,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            )
            .fit_model(&data)
            .unwrap()
        };
        // 50 err/s over one modeled second ≈ 50 expected injections; demand
        // at least a loose statistical floor.
        let r = fit(50.0);
        assert!(
            r.ft_stats.injected >= 20,
            "expected tens of injections, got {}",
            r.ft_stats.injected
        );
        let real = r.injection_realization.expect("campaign must report");
        assert!((real.requested_hz - 50.0).abs() < 1e-6);
        assert_eq!(r.ft_stats.injection_launches, 2 * r.iterations as u64);
        if !real.saturated() {
            assert_eq!(r.ft_stats.saturated_launches, 0);
        }
        // An absurd rate must saturate the per-block clamp and say so.
        let r = fit(1e7);
        let real = r.injection_realization.unwrap();
        assert!(real.saturated(), "1e7 err/s must saturate: {real:?}");
        assert!(real.achieved_hz < real.requested_hz);
        assert_eq!(r.ft_stats.saturated_launches, r.ft_stats.injection_launches);
    }

    #[test]
    fn empty_cluster_reseeding_keeps_k_clusters() {
        // Pathological init: k=4 on data with 2 real blobs.
        let data = blobs(40, 2, 2, 10);
        let km = KMeans::new(
            DeviceProfile::a100(),
            KMeansConfig {
                k: 4,
                max_iter: 30,
                seed: 13,
                ..Default::default()
            },
        );
        let r = km.fit_model(&data).unwrap();
        let mut counts = [0usize; 4];
        for &l in &r.labels {
            counts[l as usize] += 1;
        }
        // after reseeding, no cluster should be persistently empty
        assert!(counts.iter().filter(|&&c| c > 0).count() >= 2);
    }
}
