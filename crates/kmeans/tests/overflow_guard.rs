//! Finite but huge inputs are rejected at the boundary, not mislabelled.
//!
//! A row whose squared norm overflows `T` makes the distance identity
//! `‖x‖² − 2x·c + ‖c‖²` compute `inf − inf = NaN`; no centroid then beats
//! the argmin's sentinel. Fit, `partial_fit` and predict therefore reject
//! any row with `‖x‖² > T::MAX / 8` as [`KMeansError::Overflow`], and
//! data just under that bound clusters normally under every variant.

use gpu_sim::{Matrix, Scalar};
use kmeans::{FtConfig, InitMethod, KMeansConfig, KMeansError, Session, Variant};

const VARIANTS: [Variant; 6] = [
    Variant::Naive,
    Variant::GemmV1,
    Variant::FusedV2,
    Variant::BroadcastV3,
    Variant::Tensor(None),
    Variant::Hamerly,
];

const M: usize = 512;
const DIM: usize = 8;
const K: usize = 4;

/// Four separated blobs in `[-1, 1]^DIM`, as `f64`.
fn unit_blobs(m: usize, seed: usize) -> Matrix<f64> {
    Matrix::from_fn(m, DIM, |r, c| {
        let center = if (r % K + c).is_multiple_of(2) {
            0.6
        } else {
            -0.6
        };
        let jitter = (((r * 37 + c * 11 + seed * 5) % 23) as f64 - 11.0) / 60.0;
        center + jitter
    })
}

fn to_t<T: Scalar>(m: &Matrix<f64>, scale: f64) -> Matrix<T> {
    Matrix::from_fn(m.rows(), m.cols(), |r, c| T::from_f64(m.get(r, c) * scale))
}

fn configs(v: Variant) -> [KMeansConfig; 2] {
    [
        KMeansConfig::new(K).with_variant(v).with_seed(3),
        KMeansConfig::new(K)
            .with_variant(v)
            .with_ft(FtConfig::protected())
            .with_seed(3),
    ]
}

#[test]
fn huge_f32_fit_is_a_typed_error_under_every_variant() {
    let session = Session::a100();
    let data = Matrix::<f32>::from_fn(M, DIM, |r, c| {
        if (r + c).is_multiple_of(2) {
            1e20
        } else {
            -1e20
        }
    });
    for v in VARIANTS {
        for cfg in configs(v) {
            let got = session.kmeans(cfg).fit_model(&data).map(|_| ());
            assert_eq!(got, Err(KMeansError::Overflow { row: 0 }), "{v:?}");
        }
    }
}

#[test]
fn one_huge_row_is_rejected_by_partial_fit_and_predict() {
    let session = Session::a100();
    let km = session.kmeans(KMeansConfig::new(K).with_seed(3));
    let mut batch = to_t::<f32>(&unit_blobs(M, 0), 1.0);
    for c in 0..DIM {
        batch.set(77, c, 1e20);
    }
    let want = Err(KMeansError::Overflow { row: 77 });

    assert_eq!(
        km.partial_fit(None, &batch).map(|_| ()),
        want,
        "first batch"
    );
    let model = km.fit_model(&to_t::<f32>(&unit_blobs(M, 1), 1.0)).unwrap();
    assert_eq!(model.predict(&batch).map(|_| ()), want, "predict");
    assert_eq!(model.score(&batch).map(|_| ()), want, "score");
    assert_eq!(
        km.partial_fit(Some(model), &batch).map(|_| ()),
        want,
        "continued stream"
    );

    // A NaN in an earlier row is still reported as NonFinite, with its
    // column; the first rejected row decides.
    batch.set(12, 5, f32::NAN);
    assert_eq!(
        km.partial_fit(None, &batch).map(|_| ()),
        Err(KMeansError::NonFinite { row: 12, col: 5 })
    );
}

/// k-means++ seeding reads every sample's distance, so a NaN row must be
/// rejected before it runs: fit and the first `partial_fit` batch return
/// the typed error, not a panic from inside the seeding.
#[test]
fn kmeans_plus_plus_sees_no_nan_row() {
    let session = Session::a100();
    let mut data = to_t::<f64>(&unit_blobs(M, 3), 1.0);
    data.set(300, 6, f64::NAN);
    let want = Err(KMeansError::NonFinite { row: 300, col: 6 });
    let km = session.kmeans(
        KMeansConfig::new(K)
            .with_init(InitMethod::KMeansPlusPlus)
            .with_seed(3),
    );
    assert_eq!(km.fit_model(&data).map(|_| ()), want, "fit");
    assert_eq!(km.partial_fit(None, &data).map(|_| ()), want, "first batch");
}

/// Scale the blobs so the largest row squared norm is 0.999 of
/// `T::MAX / 8`, then fit under every variant, plain and protected.
fn fit_just_under_the_bound<T: Scalar>() {
    let base = unit_blobs(M, 2);
    let max_sq = (0..M)
        .map(|r| (0..DIM).map(|c| base.get(r, c).powi(2)).sum::<f64>())
        .fold(0.0, f64::max);
    let bound = T::MAX.to_f64() / 8.0;
    let scale = (0.999 * bound / max_sq).sqrt();
    let data = to_t::<T>(&base, scale);
    let session = Session::a100();
    // The bound is tight: 0.2% further out is rejected.
    let over = to_t::<T>(&base, scale * (1.002f64 / 0.999).sqrt());
    let got = session
        .kmeans(configs(VARIANTS[0])[0].clone())
        .fit_model(&over);
    assert!(matches!(got, Err(KMeansError::Overflow { .. })), "{got:?}");
    for v in VARIANTS {
        for cfg in configs(v) {
            let model = session
                .kmeans(cfg)
                .fit_model(&data)
                .unwrap_or_else(|e| panic!("{v:?} {}: {e}", std::any::type_name::<T>()));
            assert!(model.labels.iter().all(|&l| (l as usize) < K), "{v:?}");
            let labels = model.predict(&data).unwrap();
            assert!(labels.iter().all(|&l| (l as usize) < K), "{v:?}");
        }
    }
}

#[test]
fn data_just_under_the_bound_fits_f32() {
    fit_just_under_the_bound::<f32>();
}

#[test]
fn data_just_under_the_bound_fits_f64() {
    fit_just_under_the_bound::<f64>();
}
