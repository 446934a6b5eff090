//! End-to-end integration: every kernel variant, both precisions, the
//! dataset catalog, against the CPU reference.

use ft_kmeans::data::{anisotropic, imbalanced, uniform_cube, DatasetSpec, SCENARIOS};
use ft_kmeans::gpu::{Matrix, Scalar};
use ft_kmeans::kmeans::reference::{assign_reference, lloyd_reference};
use ft_kmeans::kmeans::{metrics, InitMethod, KMeans, KMeansConfig, Variant};
use ft_kmeans::{DeviceProfile, Session};

fn fit_labels<T: Scalar>(
    session: &Session,
    data: &Matrix<T>,
    k: usize,
    variant: Variant,
    seed: u64,
) -> Vec<u32> {
    let km = session.kmeans(KMeansConfig {
        k,
        max_iter: 12,
        tol: 0.0,
        seed,
        variant,
        ..Default::default()
    });
    km.fit_model(data).expect("fit").labels.clone()
}

#[test]
fn all_variants_agree_on_every_scenario_f64() {
    // FP64 leaves no room for formula-rounding divergence between the
    // direct Σ(x−y)² distance (naive) and the norm identity (GEMM paths):
    // full Lloyd trajectories must coincide. One session serves every
    // scenario/variant combination.
    let session = Session::new(DeviceProfile::a100());
    for spec in SCENARIOS.iter().filter(|s| s.samples <= 3000) {
        let (data, _, _) = spec.build::<f64>();
        let reference = fit_labels(&session, &data, spec.clusters, Variant::Tensor(None), 3);
        for variant in [
            Variant::Naive,
            Variant::GemmV1,
            Variant::FusedV2,
            Variant::BroadcastV3,
        ] {
            let labels = fit_labels(&session, &data, spec.clusters, variant, 3);
            let agree = labels
                .iter()
                .zip(&reference)
                .filter(|(a, b)| a == b)
                .count() as f64
                / labels.len() as f64;
            assert!(
                agree > 0.999,
                "{}: {} disagrees with tensor variant ({:.4})",
                spec.name,
                variant.label(),
                agree
            );
        }
    }
}

#[test]
fn variants_agree_single_step_f32() {
    // FP32: near-tie assignments may flip between distance formulas; a
    // single assignment step must still agree on ≥99% of samples.
    let dev = DeviceProfile::a100();
    let spec = DatasetSpec {
        name: "f32-step",
        samples: 2000,
        dim: 16,
        clusters: 24,
        seed: 13,
    };
    let (data, _, _) = spec.build::<f32>();
    let one = |variant| {
        let km = KMeans::new(
            dev.clone(),
            KMeansConfig {
                k: 24,
                max_iter: 1,
                tol: 0.0,
                seed: 3,
                variant,
                ..Default::default()
            },
        );
        km.fit_model(&data).expect("fit").into_result().labels
    };
    let reference = one(Variant::Tensor(None));
    for variant in [
        Variant::Naive,
        Variant::GemmV1,
        Variant::FusedV2,
        Variant::BroadcastV3,
    ] {
        let labels = one(variant);
        let agree = labels
            .iter()
            .zip(&reference)
            .filter(|(a, b)| a == b)
            .count() as f64
            / labels.len() as f64;
        assert!(
            agree > 0.99,
            "{}: single-step agreement {:.4}",
            variant.label(),
            agree
        );
    }
}

#[test]
fn tensor_variant_tracks_cpu_lloyd_f64() {
    let dev = DeviceProfile::a100();
    let spec = DatasetSpec {
        name: "ref",
        samples: 600,
        dim: 10,
        clusters: 6,
        seed: 8,
    };
    let (data, _, _) = spec.build::<f64>();
    // Same init as the estimator (RandomSamples, seed 11).
    let km = KMeans::new(
        dev,
        KMeansConfig {
            k: 6,
            max_iter: 10,
            tol: 0.0,
            seed: 11,
            variant: Variant::Tensor(None),
            ..Default::default()
        },
    );
    let fit = km.fit_model(&data).expect("fit");
    // Reconstruct the reference trajectory with identical init.
    // Init extraction is internal; validate by the fixed-point property:
    let (ref_labels, _) = assign_reference(&data, &fit.centroids);
    assert_eq!(
        fit.labels, ref_labels,
        "final labels must be optimal for final centroids"
    );
}

#[test]
fn lloyd_reference_and_gpu_converge_to_same_inertia_class() {
    let dev = DeviceProfile::a100();
    let spec = DatasetSpec {
        name: "conv",
        samples: 500,
        dim: 8,
        clusters: 5,
        seed: 21,
    };
    let (data, _, _) = spec.build::<f64>();
    let km = KMeans::new(
        dev,
        KMeansConfig {
            k: 5,
            max_iter: 40,
            tol: 1e-9,
            seed: 4,
            variant: Variant::Tensor(None),
            ..Default::default()
        },
    );
    let fit = km.fit_model(&data).expect("fit");
    // CPU Lloyd from the same data (independent random-ish init via
    // centroids of the GPU fit — checks fixed-point property).
    let (c2, l2, _) = lloyd_reference(&data, &fit.centroids, 10);
    let gpu_inertia = metrics::inertia(&data, &fit.centroids, &fit.labels);
    let cpu_inertia = metrics::inertia(&data, &c2, &l2);
    assert!(
        cpu_inertia <= gpu_inertia * 1.0001,
        "continuing from the GPU fixed point must not improve much: {cpu_inertia} vs {gpu_inertia}"
    );
    assert!((cpu_inertia - gpu_inertia).abs() / gpu_inertia < 0.01);
}

#[test]
fn clustering_quality_on_separated_blobs() {
    let dev = DeviceProfile::a100();
    let spec = DatasetSpec {
        name: "quality",
        samples: 1200,
        dim: 6,
        clusters: 8,
        seed: 33,
    };
    let (data, truth, _) = spec.build::<f32>();
    let mut cfg = KMeansConfig::new(8)
        .with_seed(2)
        .with_init(InitMethod::KMeansPlusPlus);
    cfg.max_iter = 60;
    let fit = KMeans::new(dev, cfg).fit_model(&data).expect("fit");
    let ari = metrics::adjusted_rand_index(&fit.labels, &truth);
    // The catalog blobs overlap slightly (std 0.5 in a ±6 box); high but
    // not perfect agreement is the correct expectation.
    assert!(
        ari > 0.75,
        "k-means++ on blobs should largely recover truth, ARI {ari:.3}"
    );
}

#[test]
fn hard_datasets_do_not_crash_and_produce_valid_labels() {
    let dev = DeviceProfile::t4();
    let noise = uniform_cube::<f32>(700, 5, 3.0, 9);
    let (aniso, _) = anisotropic::<f32>(800, 6, 4, 5.0, 10);
    let (imbal, _) = imbalanced::<f32>(900, 4, 5, 11);
    for (name, data, k) in [
        ("noise", noise, 7),
        ("aniso", aniso, 4),
        ("imbalanced", imbal, 5),
    ] {
        let fit = KMeans::new(dev.clone(), KMeansConfig::new(k).with_seed(1))
            .fit_model(&data)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(fit.labels.len(), data.rows());
        assert!(
            fit.labels.iter().all(|&l| (l as usize) < k),
            "{name}: label out of range"
        );
        assert!(fit.inertia.is_finite());
    }
}

#[test]
fn t4_and_a100_produce_identical_results() {
    // Device profiles change performance, never semantics.
    let spec = DatasetSpec {
        name: "xdev",
        samples: 400,
        dim: 8,
        clusters: 4,
        seed: 77,
    };
    let (data, _, _) = spec.build::<f64>();
    let cfg = KMeansConfig::new(4).with_seed(5);
    let a = KMeans::new(DeviceProfile::a100(), cfg.clone())
        .fit_model(&data)
        .unwrap();
    let t = KMeans::new(DeviceProfile::t4(), cfg)
        .fit_model(&data)
        .unwrap();
    assert_eq!(a.labels, t.labels);
    assert!((a.inertia - t.inertia).abs() < 1e-9);
}

#[test]
fn norms_are_shared_across_variants() {
    // A fused counter sanity check: the tensor variant must touch far less
    // DRAM per iteration than the naive variant on the same problem.
    let dev = DeviceProfile::a100();
    let spec = DatasetSpec {
        name: "traffic",
        samples: 2048,
        dim: 32,
        clusters: 32,
        seed: 6,
    };
    let (data, _, _) = spec.build::<f32>();
    let run = |variant| {
        let km = KMeans::new(
            dev.clone(),
            KMeansConfig {
                k: 32,
                max_iter: 2,
                tol: 0.0,
                seed: 9,
                variant,
                ..Default::default()
            },
        );
        km.fit_model(&data).unwrap().counters
    };
    let naive = run(Variant::Naive);
    let tensor = run(Variant::Tensor(None));
    assert!(
        tensor.bytes_loaded * 2 < naive.bytes_loaded,
        "tensor {} vs naive {}",
        tensor.bytes_loaded,
        naive.bytes_loaded
    );
}
