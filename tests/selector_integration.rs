//! Integration of the code-generation layer with the K-means estimator:
//! tuned tiles flow from the selector into functional kernels and behave.

use ft_kmeans::codegen::feasibility::stages_for;
use ft_kmeans::codegen::tuner::ShapeGrid;
use ft_kmeans::codegen::{KernelParams, KernelSelector};
use ft_kmeans::data::{make_blobs, BlobSpec};
use ft_kmeans::gpu::timing::{estimate, FtMode, GemmShape, KernelClass, TimingInput};
use ft_kmeans::kmeans::{KMeans, KMeansConfig, Variant};
use ft_kmeans::{DeviceProfile, Precision, Session};

fn small_grid() -> ShapeGrid {
    ShapeGrid {
        m: 131_072,
        dims: vec![8, 32, 64, 128],
        clusters: vec![8, 64, 128, 256],
    }
}

#[test]
fn selected_tile_runs_functionally_and_matches_default() {
    let dev = DeviceProfile::a100();
    let selector = KernelSelector::build_with_grid(&dev, Precision::Fp32, &small_grid());
    let (data, _, _) = make_blobs::<f32>(&BlobSpec {
        samples: 1024,
        dim: 32,
        centers: 16,
        cluster_std: 0.4,
        center_box: 6.0,
        seed: 2,
    });
    let chosen = selector.select(16, 32);
    let tile = chosen.tile_config(stages_for(&dev));
    let cfg_sel = KMeansConfig {
        k: 16,
        max_iter: 6,
        tol: 0.0,
        seed: 3,
        variant: Variant::Tensor(Some(tile)),
        ..Default::default()
    };
    let cfg_def = KMeansConfig {
        variant: Variant::Tensor(None),
        ..cfg_sel.clone()
    };
    let a = KMeans::new(dev.clone(), cfg_sel)
        .fit_model(&data)
        .expect("selected tile fit");
    let b = KMeans::new(dev, cfg_def)
        .fit_model(&data)
        .expect("default tile fit");
    assert_eq!(
        a.labels, b.labels,
        "tiling is a performance knob, not a semantic one"
    );
}

#[test]
fn selector_choice_dominates_cuml_in_model_across_grid() {
    let dev = DeviceProfile::a100();
    for precision in Precision::all() {
        let selector = KernelSelector::build_with_grid(&dev, precision, &small_grid());
        let stages = stages_for(&dev);
        let cuml = KernelParams::cuml(precision).tile_config(stages);
        for &(clusters, dim) in &[(8usize, 8usize), (8, 128), (128, 8), (256, 64)] {
            let choice = selector.select(clusters, dim).tile_config(stages);
            let shape = GemmShape::new(131_072, clusters, dim);
            let t_sel = estimate(&TimingInput::plain(
                &dev,
                precision,
                KernelClass::Tensor(choice),
                shape,
            ));
            let t_cuml = estimate(&TimingInput::plain(
                &dev,
                precision,
                KernelClass::Tensor(cuml),
                shape,
            ));
            assert!(
                t_sel.gflops >= t_cuml.gflops * 0.98,
                "{precision} K={clusters} N={dim}: selector {:.0} vs cuML {:.0}",
                t_sel.gflops,
                t_cuml.gflops
            );
        }
    }
}

#[test]
fn selector_text_roundtrip_preserves_choices() {
    let dev = DeviceProfile::t4();
    let selector = KernelSelector::build_with_grid(&dev, Precision::Fp32, &small_grid());
    let text = selector.to_text();
    let back = KernelSelector::from_text(&text).expect("parse");
    for &(clusters, dim) in &[(8usize, 16usize), (128, 64), (500, 100)] {
        assert_eq!(
            selector.select(clusters, dim),
            back.select(clusters, dim),
            "K={clusters} N={dim}"
        );
    }
}

#[test]
fn session_selector_persists_and_feeds_a_functional_fit() {
    // The estimator-lifecycle face of selector persistence: a session tunes
    // once, writes the cache, and a second session reuses the file; the
    // tuned tile is functionally interchangeable with the default.
    let dir = std::env::temp_dir().join(format!("ftk-selector-integration-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let session = Session::new(DeviceProfile::a100()).with_selector_cache(&dir);
    let tile = session.tuned_tile(Precision::Fp32, 16, 32);

    // second session: must load the persisted table, not re-tune a
    // different one
    let session2 = Session::new(DeviceProfile::a100()).with_selector_cache(&dir);
    assert_eq!(session2.tuned_tile(Precision::Fp32, 16, 32), tile);
    assert!(
        std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0) >= 1,
        "tuning must have persisted at least one table under {dir:?}"
    );

    let (data, _, _) = make_blobs::<f32>(&BlobSpec {
        samples: 1024,
        dim: 32,
        centers: 16,
        cluster_std: 0.4,
        center_box: 6.0,
        seed: 2,
    });
    let tuned = session
        .kmeans(
            KMeansConfig::new(16)
                .with_seed(3)
                .with_variant(Variant::Tensor(Some(tile))),
        )
        .fit_model(&data)
        .expect("tuned-tile fit");
    let default = session
        .kmeans(KMeansConfig::new(16).with_seed(3))
        .fit_model(&data)
        .expect("default-tile fit");
    assert_eq!(tuned.labels, default.labels, "tiling is a perf knob only");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ft_mode_timing_consistency_for_selected_tiles() {
    // FT never makes the selected kernel faster; the overhead stays within
    // the paper's envelope for FP32.
    let dev = DeviceProfile::a100();
    let selector = KernelSelector::build_with_grid(&dev, Precision::Fp32, &small_grid());
    let stages = stages_for(&dev);
    for &(clusters, dim) in &[(8usize, 64usize), (128, 128)] {
        let tile = selector.select(clusters, dim).tile_config(stages);
        let shape = GemmShape::new(131_072, clusters, dim);
        let plain = estimate(&TimingInput::plain(
            &dev,
            Precision::Fp32,
            KernelClass::Tensor(tile),
            shape,
        ));
        let ft = estimate(&TimingInput {
            ft: FtMode::FtKMeans,
            ..TimingInput::plain(&dev, Precision::Fp32, KernelClass::Tensor(tile), shape)
        });
        let overhead = ft.time_s / plain.time_s - 1.0;
        assert!(
            (0.0..0.12).contains(&overhead),
            "FP32 FT overhead at K={clusters} N={dim}: {:.2}%",
            overhead * 100.0
        );
    }
}
