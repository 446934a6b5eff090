//! Streaming mini-batch K-means through the facade: quality vs the
//! full-batch fit, cross-batch accounting, and policy determinism.

use ft_kmeans::data::{make_blobs, BlobSpec};
use ft_kmeans::fault::InjectionSchedule;
use ft_kmeans::gpu::exec::Executor;
use ft_kmeans::gpu::Matrix;
use ft_kmeans::kmeans::{metrics, FtConfig, InitMethod};
use ft_kmeans::{DeviceProfile, KMeansConfig, Session};

fn blob_data(samples: usize, seed: u64) -> (Matrix<f64>, Vec<u32>) {
    let (data, truth, _) = make_blobs::<f64>(&BlobSpec {
        samples,
        dim: 8,
        centers: 5,
        cluster_std: 0.25,
        center_box: 7.0,
        seed,
    });
    (data, truth)
}

/// Deterministic shuffle: stride permutation, coprime with the row count.
fn shuffle_rows(data: &Matrix<f64>, stride: usize) -> Matrix<f64> {
    let m = data.rows();
    Matrix::from_fn(m, data.cols(), |r, c| data.get((r * stride) % m, c))
}

fn batches_of(data: &Matrix<f64>, size: usize) -> Vec<Matrix<f64>> {
    (0..data.rows())
        .collect::<Vec<_>>()
        .chunks(size)
        .map(|rows| Matrix::from_fn(rows.len(), data.cols(), |r, c| data.get(rows[r], c)))
        .collect()
}

#[test]
fn partial_fit_over_shuffled_batches_matches_full_batch_fit() {
    let (data, _) = blob_data(1000, 21);
    let session = Session::new(DeviceProfile::a100());
    // Seed choice matters: k-means++ is D²-weighted sampling, and a handful
    // of seeds double-seed the closest blob pair on a 200-sample batch and
    // settle in a different (worse) local optimum than the full-batch fit.
    // Everything is deterministic, so this seed is stable forever.
    let km = session.kmeans(
        KMeansConfig::new(5)
            .with_seed(7)
            .with_init(InitMethod::KMeansPlusPlus),
    );
    let full = km.fit_model(&data).expect("full-batch fit");

    // stream the same data, shuffled, in batches of 200, two epochs
    let shuffled = shuffle_rows(&data, 333); // gcd(333, 1000) = 1
    let mut model = None;
    for _ in 0..2 {
        for b in batches_of(&shuffled, 200) {
            model = Some(km.partial_fit(model, &b).expect("batch"));
        }
    }
    let model = model.unwrap();
    let stream_labels = model.predict(&data).expect("predict");
    let ari = metrics::adjusted_rand_index(&stream_labels, &full.labels);
    assert!(
        ari >= 0.95,
        "streaming vs full-batch ARI {ari:.3} (want ≥ 0.95)"
    );
}

#[test]
fn abft_and_injection_accounting_accumulates_monotonically() {
    let (data, _) = blob_data(768, 33);
    let session = Session::new(DeviceProfile::a100());
    let km = session.kmeans(KMeansConfig::new(5).with_seed(2).with_ft(FtConfig {
        scheme: ft_kmeans::abft::SchemeKind::FtKMeans,
        dmr_update: true,
        injection: InjectionSchedule::PerBlock { probability: 0.6 },
        injection_seed: 17,
        ..Default::default()
    }));
    let mut model = None;
    let mut prev_injected = 0u64;
    let mut prev_handled = 0u64;
    let mut prev_bytes = 0u64;
    for b in batches_of(&data, 256) {
        let m = km.partial_fit(model, &b).expect("batch");
        assert!(
            m.ft_stats.injected >= prev_injected,
            "injected count is cumulative"
        );
        assert!(m.ft_stats.handled() >= prev_handled, "handled cumulative");
        assert!(m.counters.total_bytes() > prev_bytes, "traffic grows");
        assert_eq!(m.injection_records.len() as u64, m.ft_stats.injected);
        prev_injected = m.ft_stats.injected;
        prev_handled = m.ft_stats.handled();
        prev_bytes = m.counters.total_bytes();
        model = Some(m);
    }
    assert!(prev_injected > 0, "the storm must inject across the stream");
    let model = model.unwrap();
    assert_eq!(model.batches_seen(), 3);
    assert_eq!(
        model.ft_stats.injection_launches,
        2 * model.batches_seen() as u64,
        "one assignment + one update injection launch per batch"
    );
}

#[test]
fn streaming_centroids_are_byte_identical_across_executors() {
    let (data, _) = blob_data(640, 44);
    let run = |exec: Executor| {
        let session = Session::new(DeviceProfile::a100()).with_executor(exec);
        let km = session.kmeans(KMeansConfig::new(5).with_seed(9));
        let mut model = None;
        for b in batches_of(&data, 160) {
            model = Some(km.partial_fit(model, &b).expect("batch"));
        }
        let model = model.unwrap();
        let bits: Vec<u64> = model
            .centroids
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        (bits, model.labels.clone())
    };
    let (serial_bits, serial_labels) = run(Executor::serial());
    let (pool_bits, pool_labels) = run(Executor::with_workers(4));
    assert_eq!(serial_bits, pool_bits, "byte-identical centroids");
    assert_eq!(serial_labels, pool_labels);
}
