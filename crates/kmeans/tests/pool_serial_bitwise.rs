//! Schedule independence, property-checked: every fit variant and the
//! streaming `partial_fit` produce bitwise-identical labels, centroids and
//! counter totals on a 4-worker pool and on the serial executor, at any
//! sample count. The assignment merges per-block candidates
//! order-invariantly and the update reduces per-block partials in block
//! order, so there is no tolerance: any difference is a schedule-dependent
//! reduction.

use gpu_sim::exec::Executor;
use gpu_sim::{CounterSnapshot, DeviceProfile, Matrix};
use kmeans::{FittedModel, FtConfig, KMeansConfig, Session, Variant};
use proptest::prelude::*;

const VARIANTS: [Variant; 6] = [
    Variant::Naive,
    Variant::GemmV1,
    Variant::FusedV2,
    Variant::BroadcastV3,
    Variant::Tensor(None),
    Variant::Hamerly,
];

/// Blobs around `k` centers with hashed jitter spread over several
/// binades, so sums taken in different orders round differently.
fn data(m: usize, dim: usize, k: usize, seed: u64) -> Matrix<f32> {
    Matrix::from_fn(m, dim, |r, c| {
        let mut z = seed ^ ((r * dim + c) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let jitter = ((z >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 2f32.powi((z & 7) as i32 - 4);
        ((r % k) * 7) as f32 + jitter
    })
}

/// Labels, centroid bits and counter totals of one model.
type Outcome = (Vec<u32>, Vec<u32>, CounterSnapshot);

fn outcome(model: &FittedModel<f32>) -> Outcome {
    let bits = model.centroids.as_slice().iter().map(|v| v.to_bits());
    (model.labels.clone(), bits.collect(), model.counters)
}

/// Every variant's 3-iteration fit, then a two-batch `partial_fit` stream.
fn run_all(exec: Executor, x: &Matrix<f32>, k: usize, seed: u64) -> Vec<Outcome> {
    let session = Session::new(DeviceProfile::a100()).with_executor(exec);
    let cfg = |variant| KMeansConfig {
        k,
        max_iter: 3,
        tol: 0.0,
        seed,
        variant,
        ft: FtConfig::protected(),
        ..Default::default()
    };
    let mut out: Vec<Outcome> = VARIANTS
        .iter()
        .map(|&v| outcome(&session.kmeans(cfg(v)).fit_model(x).expect("fit")))
        .collect();
    let km = session.kmeans(cfg(Variant::tensor_default()));
    let first = km.partial_fit(None, x).expect("first batch");
    out.push(outcome(
        &km.partial_fit(Some(first), x).expect("second batch"),
    ));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn pool_matches_serial_bitwise(m in 1usize..4097, k in 1usize..40, dim in 1usize..9, seed in 0u64..1000) {
        let k = k.min(m);
        let x = data(m, dim, k, seed);
        let serial = run_all(Executor::serial(), &x, k, seed);
        let pool = run_all(Executor::with_workers(4), &x, k, seed);
        for (i, (s, p)) in serial.iter().zip(&pool).enumerate() {
            let what = VARIANTS.get(i).map_or("partial_fit".to_string(), |v| format!("{v:?}"));
            prop_assert_eq!(&s.0, &p.0, "{} labels", what);
            prop_assert_eq!(&s.1, &p.1, "{} centroid bits", what);
            prop_assert_eq!(s.2, p.2, "{} counters", what);
        }
    }
}
