//! Facade surface test: every re-export advertised by `ft_kmeans` must
//! resolve, and the happy path — construct a config, fit a tiny dataset —
//! must work through the facade alone (no direct workspace-crate deps).

use ft_kmeans::abft::ChecksumTriple;
use ft_kmeans::codegen::enumerate_params;
use ft_kmeans::data::{make_blobs, BlobSpec};
use ft_kmeans::fault::InjectionSchedule;
use ft_kmeans::gpu::Matrix;
use ft_kmeans::kmeans::Variant;
use ft_kmeans::{DeviceProfile, KMeans, KMeansConfig, KMeansError, Precision, Session};

#[test]
fn all_module_reexports_resolve() {
    // One item per re-exported module proves the path is wired.
    let dev: DeviceProfile = ft_kmeans::gpu::DeviceProfile::a100();
    assert_eq!(dev.sm_count, 108);

    let t = ChecksumTriple::<f64>::zero();
    assert_eq!(t.s11, 0.0);

    assert!(matches!(InjectionSchedule::Off, InjectionSchedule::Off));

    let m = Matrix::<f32>::zeros(2, 3);
    assert_eq!((m.rows(), m.cols()), (2, 3));

    assert!(
        !enumerate_params(Precision::Fp32).is_empty(),
        "codegen must enumerate at least one kernel parameter set"
    );
}

#[test]
fn kmeans_constructs_and_fits_tiny_blobs() {
    let spec = BlobSpec {
        samples: 60,
        dim: 4,
        centers: 3,
        cluster_std: 0.2,
        center_box: 5.0,
        seed: 3,
    };
    let (data, _truth, _centers) = make_blobs::<f64>(&spec);

    let km = KMeans::new(
        DeviceProfile::a100(),
        KMeansConfig::new(3)
            .with_variant(Variant::Tensor(None))
            .with_seed(11),
    );
    let fit = km.fit_model(&data).expect("fit through the facade");
    assert_eq!(fit.labels.len(), 60);
    assert!(fit.iterations >= 1);
    assert!(fit.inertia.is_finite() && fit.inertia >= 0.0);
    // returned triple is self-consistent (the invariant PR 1 repaired)
    let check = ft_kmeans::kmeans::metrics::inertia(&data, &fit.centroids, &fit.labels);
    assert!((check - fit.inertia).abs() <= 1e-9 * check.max(1.0));
}

#[test]
fn session_lifecycle_flows_through_the_facade() {
    let (data, _, _) = make_blobs::<f64>(&BlobSpec {
        samples: 80,
        dim: 4,
        centers: 2,
        cluster_std: 0.2,
        center_box: 5.0,
        seed: 9,
    });
    let session = Session::new(DeviceProfile::a100());
    let km = session.kmeans(KMeansConfig::new(2).with_seed(4));

    // session path: fit -> model -> predict/score without re-upload
    let model = km.fit_model(&data).expect("fit_model");
    assert_eq!(model.predict(&data).expect("predict"), model.labels);
    let score = model.score(&data).expect("score");
    assert!((score - model.inertia).abs() <= 1e-9 * model.inertia.max(1.0));

    // warm start continues from the model
    let warm = km.fit_from(&model, &data).expect("fit_from");
    assert_eq!(warm.labels, model.labels);

    // streaming path accumulates batches
    let stream = km.partial_fit(None, &data).expect("first batch");
    let stream = km.partial_fit(Some(stream), &data).expect("second batch");
    assert_eq!(stream.batches_seen(), 2);
    assert_eq!(stream.center_weights().iter().sum::<u64>(), 160);
}

#[test]
fn typed_errors_surface_through_the_facade() {
    let session = Session::new(DeviceProfile::a100());
    let data = Matrix::<f32>::zeros(4, 2);
    match session.kmeans(KMeansConfig::new(9)).fit_model(&data) {
        Err(KMeansError::InvalidConfig { field: "k", reason }) => {
            assert!(
                reason.contains('4'),
                "reason cites the sample count: {reason}"
            );
        }
        other => panic!("expected InvalidConfig(k): {other:?}"),
    }
}
