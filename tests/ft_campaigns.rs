//! Cross-crate fault-injection campaigns: every scheme, both precisions,
//! sustained barrages — the integration-level version of the paper's §V-C.

use ft_kmeans::abft::SchemeKind;
use ft_kmeans::data::{make_blobs, BlobSpec};
use ft_kmeans::fault::InjectionSchedule;
use ft_kmeans::gpu::exec::{with_executor, Executor};
use ft_kmeans::gpu::mma::NoFault;
use ft_kmeans::gpu::{Counters, GlobalBuffer, Matrix, Scalar};
use ft_kmeans::kmeans::device_data::DeviceData;
use ft_kmeans::kmeans::reference::{assign_reference, update_reference};
use ft_kmeans::kmeans::update::centroid_drift;
use ft_kmeans::kmeans::variants::hamerly::{
    apply_drift, compute_s_half, hamerly_assign, revalidate,
};
use ft_kmeans::kmeans::variants::naive::naive_assign;
use ft_kmeans::kmeans::{FittedModel, FtConfig, KMeansConfig, Variant};
use ft_kmeans::{DeviceProfile, Session};

fn blobs<T: Scalar>(m: usize, dim: usize, k: usize, seed: u64) -> Matrix<T> {
    let (data, _, _) = make_blobs::<T>(&BlobSpec {
        samples: m,
        dim,
        centers: k,
        cluster_std: 0.3,
        center_box: 7.0,
        seed,
    });
    data
}

fn run<T: Scalar>(
    device: &DeviceProfile,
    data: &Matrix<T>,
    k: usize,
    scheme: SchemeKind,
    injection: InjectionSchedule,
    seed: u64,
) -> FittedModel<T> {
    let cfg = KMeansConfig {
        k,
        max_iter: 5,
        tol: 0.0,
        seed,
        variant: Variant::Tensor(None),
        ft: FtConfig {
            scheme,
            dmr_update: true,
            injection,
            injection_seed: seed * 13 + 1,
            ..Default::default()
        },
        ..Default::default()
    };
    // session path: result fields read through the model's Deref
    Session::new(device.clone())
        .kmeans(cfg)
        .fit_model(data)
        .expect("fit")
}

#[test]
fn ftkmeans_scheme_absorbs_sustained_barrage_fp64() {
    let dev = DeviceProfile::a100();
    let data = blobs::<f64>(1024, 24, 8, 1);
    let clean = run(
        &dev,
        &data,
        8,
        SchemeKind::FtKMeans,
        InjectionSchedule::Off,
        4,
    );
    let hit = run(
        &dev,
        &data,
        8,
        SchemeKind::FtKMeans,
        InjectionSchedule::PerBlock { probability: 0.7 },
        4,
    );
    assert!(
        hit.ft_stats.injected >= 10,
        "barrage expected, injected {}",
        hit.ft_stats.injected
    );
    assert_eq!(hit.labels, clean.labels);
    assert!((hit.inertia - clean.inertia).abs() / clean.inertia < 1e-9);
    assert!(hit.ft_stats.handled() + hit.ft_stats.dmr_mismatches > 0);
}

#[test]
fn kosaian_scheme_recovers_by_recomputation_fp64() {
    let dev = DeviceProfile::a100();
    let data = blobs::<f64>(768, 16, 6, 2);
    let clean = run(
        &dev,
        &data,
        6,
        SchemeKind::Kosaian,
        InjectionSchedule::Off,
        9,
    );
    let hit = run(
        &dev,
        &data,
        6,
        SchemeKind::Kosaian,
        InjectionSchedule::PerBlock { probability: 0.8 },
        9,
    );
    assert!(hit.ft_stats.injected > 0);
    assert_eq!(
        hit.labels, clean.labels,
        "recompute-based correction must restore the result"
    );
    // Detection-only: every handled distance-kernel fault shows up as a
    // recomputation, never as an in-place correction.
    assert_eq!(hit.ft_stats.corrected, 0);
}

#[test]
fn wu_scheme_corrects_at_block_level_fp64() {
    let dev = DeviceProfile::a100();
    let data = blobs::<f64>(768, 16, 6, 3);
    let clean = run(&dev, &data, 6, SchemeKind::Wu, InjectionSchedule::Off, 10);
    let hit = run(
        &dev,
        &data,
        6,
        SchemeKind::Wu,
        InjectionSchedule::PerBlock { probability: 0.8 },
        10,
    );
    assert!(hit.ft_stats.injected > 0);
    assert_eq!(hit.labels, clean.labels);
    // Wu on Ampere must have paid re-read traffic for its checksums.
    assert!(
        hit.counters.ft_extra_loads > 0,
        "cp.async forces Wu to re-read operands"
    );
}

#[test]
fn wu_reread_traffic_absent_on_turing() {
    let dev = DeviceProfile::t4();
    let data = blobs::<f64>(512, 16, 4, 4);
    let fit = run(&dev, &data, 4, SchemeKind::Wu, InjectionSchedule::Off, 3);
    assert_eq!(
        fit.counters.ft_extra_loads, 0,
        "register-staged copies make Wu's checksums free on Turing"
    );
}

#[test]
fn unprotected_runs_are_actually_damaged_fp64() {
    // Negative control: if injection never changed anything, the FT tests
    // above would be vacuous.
    let dev = DeviceProfile::a100();
    let data = blobs::<f64>(1024, 24, 8, 5);
    let clean = run(&dev, &data, 8, SchemeKind::None, InjectionSchedule::Off, 6);
    let mut damaged_any = false;
    for seed in [6, 7, 8] {
        let cfg = KMeansConfig {
            k: 8,
            max_iter: 5,
            tol: 0.0,
            seed: 6,
            variant: Variant::Tensor(None),
            ft: FtConfig {
                scheme: SchemeKind::None,
                dmr_update: false,
                injection: InjectionSchedule::PerBlock { probability: 0.9 },
                injection_seed: seed * 101,
                ..Default::default()
            },
            ..Default::default()
        };
        let hit = Session::new(dev.clone())
            .kmeans(cfg)
            .fit_model(&data)
            .expect("fit");
        if hit.labels != clean.labels || (hit.inertia - clean.inertia).abs() / clean.inertia > 1e-12
        {
            damaged_any = true;
        }
    }
    assert!(
        damaged_any,
        "a heavy unprotected barrage should corrupt at least one of three runs"
    );
}

#[test]
fn rate_schedule_converts_to_visible_injections() {
    let dev = DeviceProfile::a100();
    let data = blobs::<f32>(2048, 16, 8, 6);
    let hit = run(
        &dev,
        &data,
        8,
        SchemeKind::FtKMeans,
        // absurd rate so the per-launch probability saturates
        InjectionSchedule::Rate {
            errors_per_second: 1e9,
        },
        12,
    );
    assert!(hit.ft_stats.injected > 0, "rate schedule must inject");
}

#[test]
fn fp32_campaign_preserves_quality() {
    let dev = DeviceProfile::a100();
    let data = blobs::<f32>(1024, 16, 8, 7);
    let clean = run(
        &dev,
        &data,
        8,
        SchemeKind::FtKMeans,
        InjectionSchedule::Off,
        5,
    );
    let hit = run(
        &dev,
        &data,
        8,
        SchemeKind::FtKMeans,
        InjectionSchedule::PerBlock { probability: 0.5 },
        5,
    );
    assert!(hit.ft_stats.injected > 0);
    let agree = clean
        .labels
        .iter()
        .zip(&hit.labels)
        .filter(|(a, b)| a == b)
        .count() as f64
        / clean.labels.len() as f64;
    assert!(agree > 0.99, "label agreement {agree}");
    assert!((hit.inertia - clean.inertia).abs() / clean.inertia < 1e-2);
}

/// Overlapping blobs for the bound-corruption cases: wide clusters make
/// the first Lloyd step actually move assignments, so a stale label
/// frozen by a corrupted bound is a *wrong* label, not a coincidence.
fn overlapping_blobs(m: usize, dim: usize, k: usize, seed: u64) -> Matrix<f64> {
    let (data, _, _) = make_blobs::<f64>(&BlobSpec {
        samples: m,
        dim,
        centers: k,
        cluster_std: 2.0,
        center_box: 7.0,
        seed,
    });
    data
}

/// Build a Hamerly bound state one Lloyd step past its seeding (so stale
/// labels exist to preserve), then flip exponent bits in the resident
/// bound buffers: upper bounds down (a sample prunes that must rescan),
/// lower bounds up (same effect through the other bound). Deterministic,
/// so every call reproduces the identical corrupted state.
fn corrupted_hamerly_state(
    dev: &DeviceProfile,
    samples: &Matrix<f64>,
    k: usize,
    c: &Counters,
) -> (DeviceData<f64>, Vec<u32>, usize) {
    let (m, dim) = (samples.rows(), samples.cols());
    let cents1 = Matrix::<f64>::from_fn(k, dim, |r, cc| samples.get((r * 61) % m, cc));
    let mut dd = DeviceData::upload(dev, samples, &cents1, c).unwrap();
    dd.ensure_bounds();
    compute_s_half(dev, &dd, c).unwrap();
    hamerly_assign(dev, &dd, false, &NoFault, c).unwrap();

    // One Lloyd step moves the centroids; run the driver's bookkeeping so
    // the bounds stay sound against the moved positions.
    let (labels1, _) = assign_reference(samples, &cents1);
    let (cents2, _) = update_reference(samples, &labels1, &cents1);
    let old = GlobalBuffer::from_matrix(&cents1);
    dd.refresh_centroids(dev, &cents2, c).unwrap();
    let b = dd.bounds.as_ref().unwrap();
    let max_drift = centroid_drift(dev, &old, &dd.centroids, k, dim, &b.drift, c).unwrap();
    compute_s_half(dev, &dd, c).unwrap();
    apply_drift(dev, &dd, max_drift, c).unwrap();

    // Ground truth for the moved centroids (naive never touches bounds).
    let want = naive_assign(dev, &dd, &NoFault, c).unwrap().labels;

    // The barrage: dangerous-direction exponent flips in both buffers.
    let b = dd.bounds.as_ref().unwrap();
    let mut corrupted = 0;
    for i in (0..m).step_by(3) {
        if i % 2 == 0 {
            let v = b.upper.load(i);
            let flipped = v.flip_bit(62);
            if flipped < v {
                b.upper.store(i, flipped);
                corrupted += 1;
            }
        } else {
            let v = b.lower.load(i);
            let flipped = v.flip_bit(62);
            if flipped > v {
                b.lower.store(i, flipped);
                corrupted += 1;
            }
        }
    }
    (dd, want, corrupted)
}

#[test]
fn bound_buffer_bitflips_become_detections_not_sdc() {
    let dev = DeviceProfile::a100();
    let samples = overlapping_blobs(256, 8, 4, 11);
    let c = Counters::new();

    // Negative control: on the corrupted state a pruned pass silently
    // keeps stale labels — the flips would be SDCs if nothing checked.
    let (dd, want, corrupted) = corrupted_hamerly_state(&dev, &samples, 4, &c);
    assert!(corrupted >= 10, "barrage expected, corrupted {corrupted}");
    let unprotected = hamerly_assign(&dev, &dd, false, &NoFault, &c).unwrap();
    let wrong = unprotected
        .labels
        .iter()
        .zip(&want)
        .filter(|(a, b)| a != b)
        .count();
    assert!(
        wrong > 0,
        "corrupted bounds must mislabel at least one sample unprotected"
    );

    // The driver's recipe on a fresh copy of the same corrupted state:
    // full-population revalidation detects, a forced un-pruned pass
    // rebuilds, and the labels come out exactly right.
    let (dd, want, _) = corrupted_hamerly_state(&dev, &samples, 4, &c);
    let violations = revalidate(&dev, &dd, 1, 0, &c).unwrap();
    assert!(
        violations as usize >= corrupted,
        "every dangerous flip must trip revalidation: {violations} < {corrupted}"
    );
    let repaired = hamerly_assign(&dev, &dd, true, &NoFault, &c).unwrap();
    assert_eq!(
        repaired.labels, want,
        "forced full pass restores the labels"
    );
    assert_eq!(
        revalidate(&dev, &dd, 1, 0, &c).unwrap(),
        0,
        "rebuilt state revalidates clean"
    );
}

#[test]
fn bound_repair_is_byte_identical_serial_vs_pool() {
    // The detect-and-repair path must not depend on the execution policy:
    // same corrupted state, same labels and bound bits out, whether blocks
    // run serially or on a worker pool.
    let dev = DeviceProfile::a100();
    let samples = overlapping_blobs(256, 8, 4, 11);
    let outcome = |exec: &Executor| {
        with_executor(exec, || {
            let c = Counters::new();
            let (dd, _, _) = corrupted_hamerly_state(&dev, &samples, 4, &c);
            let violations = revalidate(&dev, &dd, 1, 0, &c).unwrap();
            let repaired = hamerly_assign(&dev, &dd, true, &NoFault, &c).unwrap();
            let b = dd.bounds.as_ref().unwrap();
            let bound_bits: Vec<u64> = b
                .upper
                .to_vec()
                .iter()
                .chain(b.lower.to_vec().iter())
                .map(|v| v.to_bits())
                .collect();
            (violations, repaired.labels, bound_bits)
        })
    };
    let serial = outcome(&Executor::serial());
    let pool = outcome(&Executor::with_workers(4));
    assert_eq!(serial, pool);
}

#[test]
fn dmr_protects_update_phase_under_targeted_storm() {
    let dev = DeviceProfile::a100();
    let data = blobs::<f64>(512, 8, 4, 8);
    let clean = run(
        &dev,
        &data,
        4,
        SchemeKind::FtKMeans,
        InjectionSchedule::Off,
        21,
    );
    let hit = run(
        &dev,
        &data,
        4,
        SchemeKind::FtKMeans,
        InjectionSchedule::PerBlock { probability: 1.0 },
        21,
    );
    assert_eq!(hit.labels, clean.labels);
    assert!(
        hit.ft_stats.dmr_mismatches > 0,
        "a probability-1 storm must hit the update phase at least once"
    );
    assert_eq!(
        hit.ft_stats.dmr_unresolved, 0,
        "SEU faults always resolve by majority"
    );
}

#[test]
fn quantized_table_bitflips_become_detections_not_sdc() {
    // The serving-path analogue of the bound-buffer campaign above: flip a
    // bit in each piece of resident quantized state (fp16/int8 codes, int8
    // scales, cached norms), then serve a batch through the guarded
    // quantized predict. The digest guard must detect the corruption,
    // rebuild the table from the fp centroids, and serve labels identical
    // to the exact host reference — corrupted resident state is a
    // detection, never silent data corruption.
    use ft_kmeans::kmeans::quant::QuantKind;
    use ft_kmeans::kmeans::PredictPolicy;

    let data = blobs::<f32>(600, 12, 5, 77);
    let queries = blobs::<f32>(200, 12, 5, 78);
    let mut model = Session::a100()
        .kmeans(KMeansConfig {
            k: 5,
            max_iter: 4,
            tol: 0.0,
            seed: 77,
            ..Default::default()
        })
        .fit_model(&data)
        .expect("fit");
    let (want, _) = assign_reference(&queries, &model.centroids);

    for (kind, policy) in [
        (QuantKind::Fp16, PredictPolicy::Fp16),
        (QuantKind::Int8, PredictPolicy::Int8),
    ] {
        model.set_predict_policy(policy);
        let detected_before = model.predict_stats().detected;
        // One flip per state target, each followed by a guarded predict.
        let table = model.quantized_table(kind);
        table.corrupt_code_bit(7, 3);
        let served = model.predict(&blobs::<f32>(200, 12, 5, 79)).unwrap();
        assert_eq!(
            served,
            assign_reference(&blobs::<f32>(200, 12, 5, 79), &model.centroids).0,
            "{kind:?} code flip must not corrupt served labels"
        );
        let table = model.quantized_table(kind);
        let prev = table.scales.load(2);
        table.scales.store(2, prev.flip_bit(21));
        let served = model.predict(&queries).unwrap();
        assert_eq!(served, want, "{kind:?} scale flip must not corrupt labels");
        let table = model.quantized_table(kind);
        let prev = table.norms.load(1);
        table.norms.store(1, prev.flip_bit(30));
        let served = model.predict(&blobs::<f32>(200, 12, 5, 80)).unwrap();
        assert_eq!(
            served,
            assign_reference(&blobs::<f32>(200, 12, 5, 80), &model.centroids).0,
            "{kind:?} norm flip must not corrupt served labels"
        );
        assert_eq!(
            model.predict_stats().detected - detected_before,
            3,
            "{kind:?}: every flip must be caught by the digest guard"
        );
        // After the final repair the resident table verifies clean again.
        assert!(model.quantized_table(kind).verify());
    }
}
