//! Streaming mini-batch K-means (the `partial_fit` driver).
//!
//! Each batch runs one assignment pass through the configured kernel
//! variant (ABFT schemes and fault injection included), then folds the
//! batch's per-cluster means into the running centroids with the standard
//! aggregated mini-batch learning-rate rule (Sculley-style): with
//! accumulated per-center weight `w_c` and a batch contributing `n_c`
//! members with mean `mu_c`,
//!
//! ```text
//! w_c ← w_c + n_c,   eta = n_c / w_c,   c ← c + eta · (mu_c − c)
//! ```
//!
//! On the first batch (`w_c = 0`) this reduces to `c = mu_c`, i.e. one
//! full Lloyd step over the batch.
//!
//! The assignment and update kernels are both schedule-independent
//! (order-invariant argmin merge; block partials reduced in block order),
//! so batch means are byte-identical under `FTK_EXEC=serial` and the pool.

use crate::assign::run_assignment;
use crate::config::KMeansConfig;
use crate::device_data::DeviceData;
use crate::driver::{FitResult, IterationEvent};
use crate::error::KMeansError;
use crate::init::init_centroids;
use crate::ledger::FaultLedger;
use crate::model::FittedModel;
use crate::norms::{inertia_kernel, ingest_samples};
use crate::phase;
use crate::session::Session;
use crate::update::update_centroids;
use fault::CampaignStats;
use gpu_sim::counters::CounterSnapshot;
use gpu_sim::{Counters, Matrix, Scalar};

/// splitmix64 finalizer — decorrelates per-batch injection streams from
/// the base seed without an RNG dependency.
fn mix(seed: u64, batch: u64) -> u64 {
    let mut z = seed ^ batch.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One `partial_fit` step: bootstrap from the first batch when `model` is
/// `None`, otherwise continue the stream.
pub(crate) fn partial_fit_step<T: Scalar>(
    session: &Session,
    config: &KMeansConfig,
    model: Option<FittedModel<T>>,
    batch: &Matrix<T>,
) -> Result<FittedModel<T>, KMeansError> {
    let (mb, dim) = (batch.rows(), batch.cols());
    let device = session.device();
    session.run(|| {
        let counters = Counters::new();
        // Ingest first: a NaN or overflowing row is rejected before the
        // batch is checked against the stream or seeds its centroids.
        let ingested = ingest_samples(device, batch, &counters)?;
        let (cfg, mut result, mut weights, batches) = stream_state(config, model, batch)?;
        let k = cfg.k;

        // Per-batch injector: same schedule, a decorrelated seed per batch
        // so a stream is not struck at identical sites every step. A rate
        // schedule's residency budget applies per batch (one assignment
        // launch each).
        let mut batch_cfg = cfg.clone();
        batch_cfg.ft.injection_seed = mix(cfg.ft.injection_seed, batches as u64);
        let ledger = FaultLedger::new::<T>(device, &batch_cfg, mb, dim, 1);

        let mut data = DeviceData::with_samples(device, ingested, &result.centroids, &counters)?;

        ledger.begin_launch();
        let assignment = phase::traced(
            trace::phases::BATCH_ASSIGN,
            batches as u64,
            &counters,
            || {
                run_assignment(
                    device,
                    &data,
                    cfg.variant,
                    cfg.ft.scheme,
                    ledger.hook(),
                    &counters,
                    ledger.stats(),
                )
            },
        )?;
        let labels = assignment.labels;
        let distances = assignment.distances;

        ledger.begin_launch();
        let update = phase::traced(
            trace::phases::BATCH_UPDATE,
            batches as u64,
            &counters,
            || {
                update_centroids(
                    device,
                    &data.samples,
                    mb,
                    dim,
                    &labels,
                    &result.centroids,
                    cfg.ft.dmr_update,
                    ledger.hook(),
                    &counters,
                )
            },
        )?;
        ledger.absorb_update(&update);

        // Learning-rate fold: clusters absent from the batch keep their
        // position (and their weight).
        let mut centroids = result.centroids.clone();
        let mut empty_clusters = 0usize;
        for (c, weight) in weights.iter_mut().enumerate().take(k) {
            let n = update.counts[c] as u64;
            if n == 0 {
                empty_clusters += 1;
                continue;
            }
            let w = *weight + n;
            let eta = n as f64 / w as f64;
            for d in 0..dim {
                let old = centroids.get(c, d).to_f64();
                let mean = update.centroids.get(c, d).to_f64();
                centroids.set(c, d, T::from_f64(old + eta * (mean - old)));
            }
            *weight = w;
        }

        // Empty-cluster repair (sklearn's `reassignment_ratio` analog):
        // after the fold, centers whose accumulated weight fell below
        // `ratio × max(weights)` are re-seeded onto the batch samples
        // farthest from their assigned centers. Everything here is
        // host-side and fully ordered (descending assigned distance, ties
        // and center order by ascending index), so repair — like the rest
        // of the update — is byte-identical under serial and pool
        // executors. Disabled at the default `ratio = 0.0`.
        if cfg.reassignment_ratio > 0.0 {
            let threshold =
                weights.iter().copied().max().unwrap_or(0) as f64 * cfg.reassignment_ratio;
            let low: Vec<usize> = (0..k)
                .filter(|&c| (weights[c] as f64) < threshold)
                .collect();
            if !low.is_empty() {
                // Donor rows: batch samples by descending assigned
                // (squared) distance — the points the current centers
                // explain worst — each used at most once.
                let mut order: Vec<usize> = (0..mb).collect();
                order.sort_unstable_by(|&a, &b| {
                    distances[b]
                        .to_f64()
                        .partial_cmp(&distances[a].to_f64())
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                });
                // A re-seeded center restarts at the lightest surviving
                // weight: heavy enough to not be instantly re-flagged,
                // light enough that the next batches can still move it.
                let is_low = {
                    let mut f = vec![false; k];
                    low.iter().for_each(|&c| f[c] = true);
                    f
                };
                let restart = (0..k)
                    .filter(|&c| !is_low[c])
                    .map(|c| weights[c])
                    .min()
                    .unwrap_or(1)
                    .max(1);
                for (&c, row) in low.iter().zip(order) {
                    for d in 0..dim {
                        centroids.set(c, d, batch.get(row, d));
                    }
                    weights[c] = restart;
                }
            }
        }
        data.refresh_centroids(device, &centroids, &counters)?;

        // Per-batch bookkeeping, accumulated into the running result.
        let inertia = phase::traced(trace::phases::INERTIA, batches as u64, &counters, || {
            inertia_kernel(device, &data, &labels, &counters)
        })?;
        // Each batch's ledger starts from zero, so the whole of it is the
        // batch's fault events.
        ledger.emit_since(&mut CampaignStats::default());
        let (batch_stats, records, realization) = ledger.finish();
        result.ft_stats.merge(&batch_stats);
        result.counters = result.counters.merged(&counters.snapshot());
        result.injection_records.extend(records);
        // Keep the *worst* realization across batches (lowest
        // achieved/requested ratio): a rate schedule that saturated the
        // per-block clamp in any batch must stay visible even when later
        // batches achieve their rate. `saturated_launches` counts the
        // affected launches; this field carries the representative rates.
        result.injection_realization = match (result.injection_realization, realization) {
            (prev, None) => prev,
            (None, now) => now,
            (Some(prev), Some(now)) => {
                let shortfall = |r: &fault::RateRealization| {
                    if r.requested_hz > 0.0 {
                        r.achieved_hz / r.requested_hz
                    } else {
                        1.0
                    }
                };
                Some(if shortfall(&now) < shortfall(&prev) {
                    now
                } else {
                    prev
                })
            }
        };
        // History keeps numbering where it left off, so continuing a
        // full-batch fit appends batch events after its Lloyd events
        // instead of colliding with them; `iterations` likewise counts
        // forward (Lloyd iterations + batches), and a stream is never
        // "converged" — each batch moves the centroids.
        result.history.push(IterationEvent {
            iteration: result.history.len(),
            inertia,
            reassigned: mb,
            empty_clusters,
        });
        result.centroids = centroids;
        result.labels = labels;
        result.inertia = inertia;
        result.iterations += 1;
        result.converged = false;

        Ok(FittedModel::from_parts(
            session.clone(),
            cfg,
            &data,
            result,
            weights,
            batches + 1,
        ))
    })
}

/// The stream state `batch` continues: (config, result shell, weights,
/// batch#). A continued stream keeps the model's own config (the
/// estimator's config only seeds the first batch), so `km.partial_fit`
/// composes with models produced by other estimators of the same session.
fn stream_state<T: Scalar>(
    config: &KMeansConfig,
    model: Option<FittedModel<T>>,
    batch: &Matrix<T>,
) -> Result<(KMeansConfig, FitResult<T>, Vec<u64>, usize), KMeansError> {
    let (mb, dim) = (batch.rows(), batch.cols());
    Ok(match model {
        Some(m) => {
            if dim != m.data.dim {
                return Err(KMeansError::ShapeMismatch {
                    what: "batch",
                    expected: (mb, m.data.dim),
                    got: (mb, dim),
                });
            }
            if mb == 0 {
                return Err(KMeansError::InvalidConfig {
                    field: "batch",
                    reason: "batch must contain at least one sample".into(),
                });
            }
            (m.config, m.result, m.weights, m.batches)
        }
        None => {
            config.validate(mb, dim).map_err(|e| match e {
                // Re-word the sample-count constraint for the streaming case.
                KMeansError::InvalidConfig { field: "k", reason } if config.k > mb => {
                    KMeansError::InvalidConfig {
                        field: "k",
                        reason: format!(
                            "{reason} (the first batch must contain at least k samples)"
                        ),
                    }
                }
                other => other,
            })?;
            let shell = FitResult {
                centroids: init_centroids(batch, config.k, config.seed, config.init),
                labels: Vec::new(),
                inertia: f64::INFINITY,
                iterations: 0,
                converged: false,
                ft_stats: CampaignStats::default(),
                counters: CounterSnapshot::default(),
                injection_records: Vec::new(),
                injection_realization: None,
                history: Vec::new(),
            };
            (config.clone(), shell, vec![0u64; config.k], 0)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FtConfig;
    use crate::metrics::{self, adjusted_rand_index};
    use gpu_sim::exec::Executor;

    fn blobs(m: usize, dim: usize, k: usize, seed: u64) -> Matrix<f64> {
        Matrix::from_fn(m, dim, |r, c| {
            ((r % k) * 14) as f64
                + (((r * 31 + c * 7 + seed as usize) % 100) as f64 / 100.0 - 0.5) * 0.6
                + c as f64 * 0.02
        })
    }

    /// Deterministic row shuffle: stride permutation with gcd(stride, m)=1.
    fn shuffled_batches(data: &Matrix<f64>, batch: usize) -> Vec<Matrix<f64>> {
        let m = data.rows();
        let stride = 97usize; // coprime with the test sizes used below
        assert_eq!(
            num_gcd(stride, m),
            1,
            "stride must be coprime with m for a full permutation"
        );
        let order: Vec<usize> = (0..m).map(|i| (i * stride) % m).collect();
        order
            .chunks(batch)
            .map(|rows| Matrix::from_fn(rows.len(), data.cols(), |r, c| data.get(rows[r], c)))
            .collect()
    }

    fn num_gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            num_gcd(b, a % b)
        }
    }

    #[test]
    fn streaming_recovers_the_full_batch_clustering() {
        let data = blobs(600, 6, 4, 3);
        let session = Session::a100();
        // k-means++ seeding: one seed per blob with near-certainty, so the
        // stream and the full-batch fit converge to the same partition
        // (random seeding can double-seed a blob and strand the stream in a
        // different local optimum — mini-batch has no empty-cluster repair).
        let km = session.kmeans(
            KMeansConfig::new(4)
                .with_seed(7)
                .with_init(crate::config::InitMethod::KMeansPlusPlus),
        );
        let full = km.fit_model(&data).expect("full fit");

        let mut model = None;
        // two passes over the stream settle the learning-rate updates
        for _epoch in 0..2 {
            for b in shuffled_batches(&data, 128) {
                model = Some(km.partial_fit(model, &b).expect("batch"));
            }
        }
        let model = model.unwrap();
        let stream_labels = model.predict(&data).unwrap();
        let ari = adjusted_rand_index(&stream_labels, &full.labels);
        assert!(
            ari >= 0.95,
            "streaming vs full-batch ARI {ari:.3} (want ≥ 0.95)"
        );
        assert_eq!(model.batches_seen(), 10, "2 epochs x 5 batches");
        assert_eq!(
            model.center_weights().iter().sum::<u64>(),
            1200,
            "weights count every processed sample"
        );
    }

    #[test]
    fn first_batch_must_hold_k_samples() {
        let session = Session::a100();
        let km = session.kmeans(KMeansConfig::new(8).with_seed(1));
        let tiny = blobs(4, 3, 2, 1);
        match km.partial_fit(None, &tiny) {
            Err(KMeansError::InvalidConfig { field: "k", reason }) => {
                assert!(reason.contains("batch"), "streaming wording: {reason}");
            }
            other => panic!("expected InvalidConfig(k): {other:?}"),
        }
    }

    #[test]
    fn continuation_rejects_dimension_changes() {
        let session = Session::a100();
        let km = session.kmeans(KMeansConfig::new(2).with_seed(1));
        let model = km.partial_fit(None, &blobs(32, 3, 2, 5)).unwrap();
        let bad = blobs(16, 5, 2, 5);
        assert!(matches!(
            km.partial_fit(Some(model), &bad),
            Err(KMeansError::ShapeMismatch { what: "batch", .. })
        ));
    }

    #[test]
    fn full_fit_continues_as_a_stream() {
        let data = blobs(300, 4, 3, 9);
        let session = Session::a100();
        let km = session.kmeans(KMeansConfig::new(3).with_seed(2));
        let full = km.fit_model(&data).expect("fit");
        let seen: u64 = full.center_weights().iter().sum();
        assert_eq!(seen, 300);
        let lloyd_iters = full.iterations;
        let lloyd_events = full.history.len();
        assert!(full.converged);
        let cont = km
            .partial_fit(Some(full), &blobs(64, 4, 3, 10))
            .expect("continuation");
        assert_eq!(cont.batches_seen(), 1);
        assert_eq!(cont.center_weights().iter().sum::<u64>(), 364);
        // bookkeeping counts forward from the Lloyd fit, never backwards
        assert_eq!(cont.iterations, lloyd_iters + 1);
        assert!(!cont.converged, "a stream is never 'converged'");
        assert_eq!(cont.history.len(), lloyd_events + 1);
        assert_eq!(
            cont.history.last().unwrap().iteration,
            lloyd_events,
            "batch events extend the Lloyd numbering without colliding"
        );
    }

    #[test]
    fn abft_and_injection_counters_accumulate_across_batches() {
        let session = Session::a100();
        let cfg = KMeansConfig::new(3).with_seed(4).with_ft(FtConfig {
            scheme: abft::SchemeKind::FtKMeans,
            dmr_update: true,
            injection: fault::InjectionSchedule::PerBlock { probability: 0.7 },
            injection_seed: 11,
            ..Default::default()
        });
        let km = session.kmeans(cfg);
        let mut model = None;
        let mut last = (0u64, 0u64, 0u64, 0u64);
        for i in 0..4 {
            let b = blobs(128, 4, 3, 20 + i);
            let m = km.partial_fit(model.take(), &b).expect("batch");
            let now = (
                m.ft_stats.injected,
                m.ft_stats.handled(),
                m.counters.mma_ops,
                m.ft_stats.injection_launches,
            );
            assert!(now.0 >= last.0, "injected monotone: {now:?} vs {last:?}");
            assert!(now.1 >= last.1, "handled monotone");
            assert!(now.2 > last.2, "mma counters grow every batch");
            assert_eq!(now.3, last.3 + 2, "2 injection launches per batch");
            assert_eq!(
                m.injection_records.len() as u64,
                m.ft_stats.injected,
                "records mirror the accumulated count"
            );
            last = now;
            model = Some(m);
        }
        assert!(last.0 > 0, "a 0.7 per-block storm must inject something");
        let model = model.unwrap();
        assert_eq!(model.history.len(), 4, "one history event per batch");
    }

    #[test]
    fn stream_keeps_the_worst_rate_realization() {
        // Batch sizes change across the stream, so the per-block clamp's
        // achievable rate changes too; the reported realization must be the
        // worst one seen, not whatever the final batch achieved.
        let session = Session::a100();
        let cfg = KMeansConfig::new(3).with_seed(4).with_ft(FtConfig {
            scheme: abft::SchemeKind::FtKMeans,
            dmr_update: true,
            injection: fault::InjectionSchedule::Rate {
                errors_per_second: 1e6, // saturates small batches for sure
            },
            injection_seed: 7,
            modeled_residency_s: 1.0,
            ..Default::default()
        });
        let km = session.kmeans(cfg);
        // tiny batch first (few blocks -> clamp saturates hard), then a
        // larger one (more blocks -> higher achievable rate)
        let model = km.partial_fit(None, &blobs(64, 4, 3, 1)).unwrap();
        let worst = model.injection_realization.expect("rate must report");
        assert!(worst.saturated());
        let model = km.partial_fit(Some(model), &blobs(1024, 4, 3, 2)).unwrap();
        let kept = model.injection_realization.unwrap();
        assert!(
            kept.achieved_hz <= worst.achieved_hz + 1e-9,
            "stream must keep the worst realization: kept {kept:?} vs first-batch {worst:?}"
        );
        assert!(kept.saturated());
    }

    /// Drift-stream batch: phase 0 has blobs at per-dim bases 0/14/28;
    /// phase 1 drops the 0-blob and adds a far blob at 70 — the center
    /// left behind starves while its siblings keep accumulating weight.
    fn drift_batch(phase: usize, dim: usize, seed: u64) -> Matrix<f64> {
        let bases: [f64; 3] = if phase == 0 {
            [0.0, 14.0, 28.0]
        } else {
            [14.0, 28.0, 70.0]
        };
        Matrix::from_fn(128, dim, |r, c| {
            bases[r % 3]
                + (((r * 31 + c * 7 + seed as usize) % 100) as f64 / 100.0 - 0.5) * 0.6
                + c as f64 * 0.02
        })
    }

    fn run_drift_stream(session: &Session, ratio: f64) -> FittedModel<f64> {
        let cfg = KMeansConfig::new(3)
            .with_seed(5)
            .with_init(crate::config::InitMethod::KMeansPlusPlus)
            .with_reassignment_ratio(ratio);
        let km = session.kmeans(cfg);
        let mut model = Some(km.partial_fit(None, &drift_batch(0, 4, 0)).unwrap());
        // Long enough for *both* repairs: the dead 0-center is re-seeded
        // onto the new far blob within ~6 batches; the mid center stranded
        // between the surviving blobs starves relative to its siblings and
        // is only flagged once the weight gap has grown (~45 batches).
        for b in 1..56u64 {
            model = Some(km.partial_fit(model, &drift_batch(1, 4, b)).unwrap());
        }
        model.unwrap()
    }

    #[test]
    fn reassignment_repairs_clusters_starved_by_drift() {
        let session = Session::a100();
        let plain = run_drift_stream(&session, 0.0);
        let repaired = run_drift_stream(&session, 0.1);
        // ground truth on post-drift data
        let eval = drift_batch(1, 4, 99);
        let truth: Vec<u32> = (0..eval.rows()).map(|r| (r % 3) as u32).collect();
        let ari_plain = adjusted_rand_index(&plain.predict(&eval).unwrap(), &truth);
        let ari_repaired = adjusted_rand_index(&repaired.predict(&eval).unwrap(), &truth);
        assert!(
            ari_repaired >= 0.99,
            "repair must recover the post-drift clustering, ARI {ari_repaired:.3}"
        );
        assert!(
            ari_repaired > ari_plain + 0.2,
            "without repair the dead center must hurt: {ari_plain:.3} vs {ari_repaired:.3}"
        );
        // the re-seeded center restarted light, and no weight was lost twice
        assert!(repaired.center_weights().iter().all(|&w| w > 0));
    }

    #[test]
    fn repair_is_byte_identical_across_executors() {
        // The repair rule is host-side and fully ordered; like the
        // learning-rate fold it must not depend on the pool schedule.
        let serial = run_drift_stream(&Session::a100().with_executor(Executor::serial()), 0.1);
        let pooled = run_drift_stream(
            &Session::a100().with_executor(Executor::with_workers(4)),
            0.1,
        );
        let bits =
            |m: &Matrix<f64>| -> Vec<u64> { m.as_slice().iter().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(&serial.centroids), bits(&pooled.centroids));
        assert_eq!(serial.center_weights(), pooled.center_weights());
    }

    #[test]
    fn repair_is_a_noop_on_balanced_streams() {
        // With every center healthily weighted, a positive ratio must not
        // perturb the stream: centroids stay bitwise what ratio = 0 gives.
        let session = Session::a100();
        let km_off = session.kmeans(KMeansConfig::new(3).with_seed(2));
        let km_on = session.kmeans(
            KMeansConfig::new(3)
                .with_seed(2)
                .with_reassignment_ratio(0.05),
        );
        let (mut a, mut b) = (None, None);
        for s in 0..4u64 {
            let batch = blobs(120, 4, 3, s);
            a = Some(km_off.partial_fit(a, &batch).unwrap());
            b = Some(km_on.partial_fit(b, &batch).unwrap());
        }
        let (a, b) = (a.unwrap(), b.unwrap());
        let bits =
            |m: &Matrix<f64>| -> Vec<u64> { m.as_slice().iter().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(&a.centroids), bits(&b.centroids));
        assert_eq!(a.center_weights(), b.center_weights());
    }

    #[test]
    fn batch_inertia_is_self_consistent() {
        let session = Session::a100();
        let km = session.kmeans(KMeansConfig::new(2).with_seed(3));
        let b = blobs(96, 3, 2, 8);
        let model = km.partial_fit(None, &b).unwrap();
        let check = metrics::inertia(&b, &model.centroids, &model.labels);
        assert!((check - model.inertia).abs() <= 1e-12 * check.max(1.0));
    }
}
