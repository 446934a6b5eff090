//! Cross-variant agreement: all six assignment kernels must produce
//! identical labels on a shared fixture (fault hooks disabled).
//!
//! The fixture is integer-valued in f64, where both distance formulas —
//! the reference's `Σ(x−y)²` and the kernels' `‖x‖²+‖y‖²−2·x·y` — are
//! exact (every intermediate is an integer far below 2⁵³), so agreement is
//! required bit-for-bit, not approximately: any divergence is a real
//! indexing/reduction bug, not roundoff.
//!
//! The bound-pruned (Hamerly) variant additionally has to agree across
//! whole *fits*, where its resident bounds skip most of the distance work:
//! its slack policy promises the pruned labels are still bit-for-bit the
//! naive kernel's FP argmin, every iteration.

use abft::SchemeKind;
use fault::CampaignStats;
use gpu_sim::mma::NoFault;
use gpu_sim::timing::TileConfig;
use gpu_sim::{Counters, DeviceProfile, Matrix};
use kmeans::assign::run_assignment;
use kmeans::config::Variant;
use kmeans::device_data::DeviceData;
use kmeans::quant::{QuantKind, QuantizedCentroids};
use kmeans::reference::assign_reference;
use kmeans::variants::predict_fused::predict_fused_assign;
use kmeans::{KMeansConfig, PredictPolicy, Session};
use parking_lot::Mutex;

/// Integer-valued fixture with odd (non-tile-multiple) shapes.
fn fixture() -> (Matrix<f64>, Matrix<f64>) {
    let samples = Matrix::<f64>::from_fn(193, 17, |r, c| ((r * 31 + c * 7) % 17) as f64 - 8.0);
    let cents = Matrix::<f64>::from_fn(37, 17, |r, c| ((r * 13 + c * 5) % 15) as f64 - 7.0);
    (samples, cents)
}

#[test]
fn all_six_variants_produce_identical_labels() {
    let (samples, cents) = fixture();
    let (want_labels, want_dists) = assign_reference(&samples, &cents);

    let tile = TileConfig {
        tb_m: 16,
        tb_n: 16,
        tb_k: 8,
        wm: 8,
        wn: 8,
        k_stages: 2,
    };
    let variants: [(&str, Variant); 6] = [
        ("naive", Variant::Naive),
        ("gemm_v1", Variant::GemmV1),
        ("fused_v2", Variant::FusedV2),
        ("broadcast_v3", Variant::BroadcastV3),
        ("tensor_v4", Variant::Tensor(Some(tile))),
        ("hamerly", Variant::Hamerly),
    ];
    let dev = DeviceProfile::a100();
    for (name, variant) in variants {
        let c = Counters::new();
        let stats = Mutex::new(CampaignStats::default());
        let data = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
        let out =
            run_assignment(&dev, &data, variant, SchemeKind::None, &NoFault, &c, &stats).unwrap();
        assert_eq!(out.labels, want_labels, "{name}: labels diverge");
        // Integer-exact fixture: distances must also match exactly.
        for (i, (got, want)) in out.distances.iter().zip(want_dists.iter()).enumerate() {
            assert_eq!(got, want, "{name}: distance {i}");
        }
    }
}

#[test]
fn quantized_predict_agrees_with_every_variant_on_the_fixture() {
    // The serving path's exactness promise, against the same fixture the
    // six fit kernels agree on: fused quantized predict (fp16 and int8)
    // returns the reference labels AND the reference distances bit-for-bit
    // — the margin policy may route samples to the exact fallback row, but
    // nothing it emits is allowed to differ from the reference scan.
    let (samples, cents) = fixture();
    let (want_labels, want_dists) = assign_reference(&samples, &cents);
    let dev = DeviceProfile::a100();
    let c = Counters::new();
    let data = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
    for kind in [QuantKind::Fp16, QuantKind::Int8] {
        let table = QuantizedCentroids::build(&data.centroids, data.k, data.dim, kind);
        let out = predict_fused_assign(
            &dev,
            kmeans::variants::predict_fused::QueryView {
                samples: samples.as_slice(),
                centroids: &data.centroids,
                m: data.m,
                k: data.k,
                dim: data.dim,
            },
            &table,
            &c,
        )
        .unwrap();
        assert_eq!(out.labels, want_labels, "{kind:?}: labels diverge");
        for (i, (got, want)) in out.distances.iter().zip(want_dists.iter()).enumerate() {
            assert_eq!(got, want, "{kind:?}: distance {i}");
        }
    }
}

#[test]
fn quantized_model_predict_agrees_across_fit_variants() {
    // End-to-end sweep: fit under every kernel variant, then serve the
    // same queries under all three predict policies — the labels must be
    // identical per model regardless of policy.
    let data = blobs(256, 9, 4);
    let queries = blobs(97, 9, 4);
    let session = Session::a100();
    for variant in [
        Variant::Naive,
        Variant::GemmV1,
        Variant::FusedV2,
        Variant::BroadcastV3,
        Variant::Tensor(None),
        Variant::Hamerly,
    ] {
        let mut model = session
            .kmeans(fit_cfg(4, variant, 5))
            .fit_model(&data)
            .unwrap();
        let want = model.predict(&queries).unwrap();
        for policy in [PredictPolicy::Fp16, PredictPolicy::Int8] {
            model.set_predict_policy(policy);
            let fresh = blobs(97, 9, 4);
            assert_eq!(
                model.predict(&fresh).unwrap(),
                want,
                "{variant:?} under {policy:?}"
            );
        }
    }
}

/// Well-separated deterministic blobs (fit-level fixture: no RNG, every
/// run identical).
fn blobs(m: usize, dim: usize, k: usize) -> Matrix<f64> {
    Matrix::<f64>::from_fn(m, dim, |r, c| {
        let center = ((r % k) * 10) as f64;
        let h = (r.wrapping_mul(2654435761) ^ c.wrapping_mul(40503)) % 1000;
        center + h as f64 / 1000.0 - 0.5 + c as f64 * 0.01
    })
}

fn fit_cfg(k: usize, variant: Variant, max_iter: usize) -> KMeansConfig {
    KMeansConfig {
        k,
        max_iter,
        tol: 0.0, // run every iteration: the comparison covers all of them
        seed: 7,
        variant,
        ..Default::default()
    }
}

#[test]
fn hamerly_fit_matches_naive_bitwise_at_every_iteration_count() {
    // The update phase consumes labels only, so if the labels agree
    // bit-for-bit at every iteration the centroid trajectories are
    // bitwise identical too. Fitting both variants at every horizon
    // checks exactly that, pruning included. The fits ride the ambient
    // executor: the update reduces per-block partials in block order, so
    // its centroid bits do not depend on the schedule.
    let (m, dim, k) = (512, 17, 8);
    let data = blobs(m, dim, k);
    hamerly_vs_naive_all_horizons(&data, k);
}

fn hamerly_vs_naive_all_horizons(data: &Matrix<f64>, k: usize) {
    let session = Session::a100();
    for iters in [1usize, 2, 3, 5, 8] {
        let naive = session
            .kmeans(fit_cfg(k, Variant::Naive, iters))
            .fit_model(data)
            .unwrap();
        let ham = session
            .kmeans(fit_cfg(k, Variant::Hamerly, iters))
            .fit_model(data)
            .unwrap();
        assert_eq!(ham.labels, naive.labels, "labels diverge at {iters} iters");
        for (i, (a, b)) in ham
            .centroids
            .as_slice()
            .iter()
            .zip(naive.centroids.as_slice())
            .enumerate()
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "centroid element {i} diverges at {iters} iters"
            );
        }
    }
}

#[test]
fn hamerly_prunes_most_distance_work_after_warmup() {
    // On separated blobs the centroids settle within three iterations;
    // after that the triangle-inequality test must skip more than half of
    // all candidate distances. Two fits sharing seed and data differ only
    // in their horizon, so the counter delta is exactly the work of
    // iterations 4..=8.
    let (m, dim, k) = (2048, 8, 8);
    let data = blobs(m, dim, k);
    let session = Session::a100();
    let short = session
        .kmeans(fit_cfg(k, Variant::Hamerly, 3))
        .fit_model(&data)
        .unwrap();
    let long = session
        .kmeans(fit_cfg(k, Variant::Hamerly, 8))
        .fit_model(&data)
        .unwrap();
    assert_eq!(long.iterations, 8, "tol = 0 must run the full horizon");
    let pruned = long.counters.pruned_candidates - short.counters.pruned_candidates;
    let candidates = (m * k * (8 - 3)) as u64;
    assert!(
        pruned * 2 > candidates,
        "after warmup the kernel must prune >50% of candidate distances: \
         pruned {pruned} of {candidates}"
    );
}
