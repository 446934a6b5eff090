//! Schedule independence, property-checked: every fit variant, the
//! streaming `partial_fit` and a fit under fault injection produce
//! bitwise-identical labels, centroids, inertia, counter totals, campaign
//! ledgers and injection records on a 4-worker pool and on the serial executor, at
//! any sample count, and so do the tensor model's predicts under every
//! [`PredictPolicy`] (labels, `score` bits and predict counters). The assignment merges per-block candidates
//! order-invariantly, the update reduces per-block partials in block order
//! and the injector keys each draw by (seed, launch, block, per-block call
//! ordinal), so there is no tolerance: any difference is a
//! schedule-dependent reduction or draw.

use fault::{CampaignStats, FaultTarget, InjectionSchedule};
use gpu_sim::exec::Executor;
use gpu_sim::{CounterSnapshot, DeviceProfile, Matrix};
use kmeans::{FittedModel, FtConfig, KMeansConfig, PredictPolicy, Session, Variant};
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

/// One injection, with the magnitude as bits (a flip can make it NaN).
type Injection = ((usize, usize), usize, usize, bool, usize, u32, u64);

/// Labels, centroid bits, inertia bits, counter totals, campaign ledger
/// and injection records of one model.
type Outcome = (
    Vec<u32>,
    Vec<u32>,
    u64,
    CounterSnapshot,
    CampaignStats,
    Vec<Injection>,
);

/// Labels, `score` bits and predict counters of one predict policy.
type Served = (Vec<u32>, u64, CounterSnapshot);

fn outcome(model: &FittedModel<f32>) -> Outcome {
    let bits = model.centroids.as_slice().iter().map(|v| v.to_bits());
    let records = model.injection_records.iter().map(|r| {
        let magnitude = r.magnitude.to_bits();
        (
            r.block,
            r.warp,
            r.k_step,
            r.hit_checksum,
            r.elem_idx,
            r.bit,
            magnitude,
        )
    });
    (
        model.labels.clone(),
        bits.collect(),
        model.inertia.to_bits(),
        model.counters,
        model.ft_stats,
        records.collect(),
    )
}

/// Every variant's 3-iteration fit, a two-batch `partial_fit` stream, then
/// a protected tensor fit under fault injection on every eligible site;
/// and a predict of `x` per policy by a fresh clone (own counters) of the
/// fitted tensor model.
fn run_all(exec: Executor, x: &Matrix<f32>, k: usize, seed: u64) -> (Vec<Outcome>, Vec<Served>) {
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
    let models: Vec<FittedModel<f32>> = VARIANTS
        .iter()
        .map(|&v| session.kmeans(cfg(v)).fit_model(x).expect("fit"))
        .collect();
    let mut out: Vec<Outcome> = models.iter().map(outcome).collect();
    let served = [
        PredictPolicy::Exact,
        PredictPolicy::Fp16,
        PredictPolicy::Int8,
    ]
    .into_iter()
    .map(|policy| {
        let model = models[4].clone().with_predict_policy(policy); // Variant::Tensor(None)
        let labels = model.predict(x).expect("predict");
        let score = model.score(x).expect("score").to_bits();
        (labels, score, model.predict_counters())
    })
    .collect();
    let km = session.kmeans(cfg(Variant::tensor_default()));
    let first = km.partial_fit(None, x).expect("first batch");
    out.push(outcome(
        &km.partial_fit(Some(first), x).expect("second batch"),
    ));
    let injected = KMeansConfig {
        ft: FtConfig {
            injection: InjectionSchedule::PerBlock { probability: 0.5 },
            injection_seed: seed,
            fault_target: FaultTarget::Any,
            ..FtConfig::protected()
        },
        ..cfg(Variant::tensor_default())
    };
    out.push(outcome(
        &session.kmeans(injected).fit_model(x).expect("injected fit"),
    ));
    (out, served)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn pool_matches_serial_bitwise(m in 1usize..4097, k in 1usize..40, dim in 1usize..9, seed in 0u64..1000) {
        let k = k.min(m);
        let x = data(m, dim, k, seed);
        let (serial, serial_served) = run_all(Executor::serial(), &x, k, seed);
        let (pool, pool_served) = run_all(Executor::with_workers(4), &x, k, seed);
        for (policy, (s, p)) in ["exact", "fp16", "int8"].iter().zip(serial_served.iter().zip(&pool_served)) {
            prop_assert_eq!(&s.0, &p.0, "{} predict labels", policy);
            prop_assert_eq!(s.1, p.1, "{} score bits", policy);
            prop_assert_eq!(s.2, p.2, "{} predict counters", policy);
        }
        for (i, (s, p)) in serial.iter().zip(&pool).enumerate() {
            let what = match i.checked_sub(VARIANTS.len()) {
                None => format!("{:?}", VARIANTS[i]),
                Some(0) => "partial_fit".to_string(),
                Some(_) => "injected fit".to_string(),
            };
            prop_assert_eq!(&s.0, &p.0, "{} labels", what);
            prop_assert_eq!(&s.1, &p.1, "{} centroid bits", what);
            prop_assert_eq!(s.2, p.2, "{} inertia bits", what);
            prop_assert_eq!(s.3, p.3, "{} counters", what);
            prop_assert_eq!(s.4, p.4, "{} campaign ledger", what);
            prop_assert_eq!(&s.5, &p.5, "{} injection records", what);
        }
    }
}
