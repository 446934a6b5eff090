//! Property-based tests over the core invariants (proptest).

use ft_kmeans::abft::checksum::ChecksumTriple;
use ft_kmeans::abft::{compare, correct_in_place, locate, Located, ThresholdPolicy};
use ft_kmeans::codegen::enumerate_params;
use ft_kmeans::gpu::matrix::gemm_abt_reference;
use ft_kmeans::gpu::mma::NoFault;
use ft_kmeans::gpu::timing::{estimate, GemmShape, KernelClass, TileConfig, TimingInput};
use ft_kmeans::gpu::{Counters, GlobalBuffer};
use ft_kmeans::gpu::{Matrix, Scalar};
use ft_kmeans::kmeans::device_data::DeviceData;
use ft_kmeans::kmeans::quant::{f16_bits_to_f32, f32_to_f16_bits, QuantKind, QuantizedCentroids};
use ft_kmeans::kmeans::reference::{assign_reference, update_reference};
use ft_kmeans::kmeans::update::centroid_drift;
use ft_kmeans::kmeans::variants::hamerly::{
    apply_drift, bound_policy, compute_s_half, hamerly_assign,
};
use ft_kmeans::kmeans::variants::naive::naive_assign;
use ft_kmeans::kmeans::variants::predict_fused::{predict_fused_assign, QueryView};
use ft_kmeans::kmeans::{KMeansConfig, Session, Variant};
use ft_kmeans::{DeviceProfile, Precision};
use proptest::prelude::*;

fn policy() -> ThresholdPolicy {
    ThresholdPolicy::for_precision(Precision::Fp64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Rank-1 online accumulation equals direct tile checksums for any
    /// product (bilinearity — the algebra the whole scheme rests on).
    #[test]
    fn checksum_telescoping_holds(
        rows in 1usize..8,
        cols in 1usize..8,
        depth in 1usize..10,
        seed in 0u64..1000,
    ) {
        let a = Matrix::<f64>::from_fn(rows, depth, |r, c| {
            (((r * 31 + c * 17 + seed as usize) % 97) as f64 - 48.0) / 13.0
        });
        let b = Matrix::<f64>::from_fn(cols, depth, |r, c| {
            (((r * 13 + c * 29 + seed as usize) % 89) as f64 - 44.0) / 11.0
        });
        let c = gemm_abt_reference(&a, &b);
        let direct = ChecksumTriple::from_tile(c.as_slice(), cols, (rows, cols));
        let mut online = ChecksumTriple::<f64>::zero();
        for k in 0..depth {
            let a1: f64 = (0..rows).map(|i| a.get(i, k)).sum();
            let a2: f64 = (0..rows).map(|i| (i + 1) as f64 * a.get(i, k)).sum();
            let b1: f64 = (0..cols).map(|j| b.get(j, k)).sum();
            let b2: f64 = (0..cols).map(|j| (j + 1) as f64 * b.get(j, k)).sum();
            online.accumulate_rank1(a1, a2, b1, b2);
        }
        prop_assert!((online.s11 - direct.s11).abs() < 1e-8);
        prop_assert!((online.s21 - direct.s21).abs() < 1e-8);
        prop_assert!((online.s12 - direct.s12).abs() < 1e-8);
    }

    /// A single injected error of meaningful magnitude is always detected,
    /// located exactly, and corrected to within rounding.
    #[test]
    fn single_error_detect_locate_correct(
        rows in 1usize..9,
        cols in 1usize..9,
        row in 0usize..9,
        col in 0usize..9,
        magnitude in prop::sample::select(vec![0.5f64, -2.0, 17.0, -123.5, 1e4]),
        seed in 0u64..500,
    ) {
        let row = row % rows;
        let col = col % cols;
        let clean: Vec<f64> = (0..rows * cols)
            .map(|i| (((i * 37 + seed as usize) % 41) as f64 - 20.0) / 7.0)
            .collect();
        let reference = ChecksumTriple::from_tile(&clean, cols, (rows, cols));
        let mut acc = clean.clone();
        acc[row * cols + col] += magnitude;
        let observed = ChecksumTriple::from_tile(&acc, cols, (rows, cols));
        let disc = compare(&observed, &reference, &policy());
        prop_assert!(disc.is_some(), "error of {magnitude} must be detected");
        let disc = disc.unwrap();
        match locate(&disc, rows, cols) {
            Located::At { row: r, col: c } => {
                prop_assert_eq!((r, c), (row, col));
                correct_in_place(&mut acc, cols, r, c, disc.d);
                for (x, y) in acc.iter().zip(clean.iter()) {
                    prop_assert!((x - y).abs() < 1e-6);
                }
            }
            Located::Ambiguous => prop_assert!(false, "single error must locate"),
        }
    }

    /// Clean tiles never raise an alarm (no false positives), regardless of
    /// data.
    #[test]
    fn no_false_positives(
        rows in 1usize..9,
        cols in 1usize..9,
        scale in prop::sample::select(vec![1e-3f64, 1.0, 1e3, 1e6]),
        seed in 0u64..500,
    ) {
        let tile: Vec<f64> = (0..rows * cols)
            .map(|i| (((i * 53 + seed as usize) % 71) as f64 - 35.0) * scale)
            .collect();
        let t = ChecksumTriple::from_tile(&tile, cols, (rows, cols));
        prop_assert!(compare(&t, &t.clone(), &policy()).is_none());
    }

    /// Bit flips roundtrip for all positions and values.
    #[test]
    fn bit_flip_involution(v in prop::num::f64::ANY, bit in 0u32..64) {
        let flipped = v.flip_bit(bit);
        prop_assert_eq!(flipped.flip_bit(bit).to_bits(), v.to_bits());
        if v.is_finite() && bit != 63 {
            prop_assert_ne!(flipped.to_bits(), v.to_bits());
        }
    }

    /// Every enumerated kernel parameter group obeys the paper's rules.
    #[test]
    fn enumeration_rules_always_hold(fp64 in proptest::bool::ANY) {
        let precision = if fp64 { Precision::Fp64 } else { Precision::Fp32 };
        for p in enumerate_params(precision) {
            prop_assert!(p.threadblock.m.is_power_of_two());
            prop_assert!(p.threadblock.n.is_power_of_two());
            prop_assert_eq!(p.warp.k, p.threadblock.k);
            prop_assert_eq!(p.threadblock.m % p.warp.m, 0);
            prop_assert_eq!(p.threadblock.n % p.warp.n, 0);
            let ratio = (p.warp.m * p.warp.n) / (p.thread.m * p.thread.n);
            prop_assert!(ratio == 8 || ratio == 16);
        }
    }

    /// Timing model sanity: feasible configs give positive finite times,
    /// and more work never takes less time on the same config.
    #[test]
    fn timing_monotone_in_problem_size(
        mexp in 10usize..17,
        n in 1usize..512,
        k in 1usize..256,
    ) {
        let dev = DeviceProfile::a100();
        let tile = TileConfig { tb_m: 64, tb_n: 64, tb_k: 16, wm: 32, wn: 32, k_stages: 3 };
        let m = 1 << mexp;
        let t1 = estimate(&TimingInput::plain(
            &dev, Precision::Fp32, KernelClass::Tensor(tile), GemmShape::new(m, n, k),
        ));
        let t2 = estimate(&TimingInput::plain(
            &dev, Precision::Fp32, KernelClass::Tensor(tile), GemmShape::new(2 * m, n, k),
        ));
        prop_assert!(t1.feasible && t2.feasible);
        prop_assert!(t1.time_s.is_finite() && t1.time_s > 0.0);
        prop_assert!(t2.time_s >= t1.time_s, "double the samples cannot be faster");
    }

    /// Reference assignment: the reported distance is the true minimum.
    #[test]
    fn reference_assignment_is_argmin(
        m in 1usize..30,
        k in 1usize..10,
        dim in 1usize..6,
        seed in 0u64..200,
    ) {
        let samples = Matrix::<f64>::from_fn(m, dim, |r, c| {
            (((r * 7 + c * 3 + seed as usize) % 23) as f64 - 11.0) / 3.0
        });
        let cents = Matrix::<f64>::from_fn(k, dim, |r, c| {
            (((r * 11 + c * 5 + seed as usize) % 19) as f64 - 9.0) / 3.0
        });
        let (labels, dists) = assign_reference(&samples, &cents);
        for i in 0..m {
            for j in 0..k {
                let d: f64 = (0..dim)
                    .map(|dd| (samples.get(i, dd) - cents.get(j, dd)).powi(2))
                    .sum();
                prop_assert!(dists[i] <= d + 1e-12, "sample {i}: {} > {d}", dists[i]);
            }
            prop_assert!((labels[i] as usize) < k);
        }
    }

    /// Centroid update: means weighted by counts reproduce the total mass.
    #[test]
    fn update_conserves_mass(
        m in 1usize..40,
        k in 1usize..6,
        seed in 0u64..200,
    ) {
        let dim = 3;
        let samples = Matrix::<f64>::from_fn(m, dim, |r, c| {
            (((r * 13 + c + seed as usize) % 31) as f64 - 15.0) / 4.0
        });
        let labels: Vec<u32> = (0..m).map(|i| ((i * 7 + seed as usize) % k) as u32).collect();
        let old = Matrix::<f64>::zeros(k, dim);
        let (new_c, counts) = update_reference(&samples, &labels, &old);
        for d in 0..dim {
            let total: f64 = (0..m).map(|i| samples.get(i, d)).sum();
            let reconstructed: f64 =
                (0..k).map(|c| new_c.get(c, d) * counts[c] as f64).sum();
            prop_assert!((total - reconstructed).abs() < 1e-9);
        }
        prop_assert_eq!(counts.iter().sum::<u32>() as usize, m);
    }
}

/// Euclidean distance between sample row `i` and centroid row `j`.
fn row_dist(samples: &Matrix<f64>, i: usize, cents: &Matrix<f64>, j: usize) -> f64 {
    (0..samples.cols())
        .map(|d| (samples.get(i, d) - cents.get(j, d)).powi(2))
        .sum::<f64>()
        .max(0.0)
        .sqrt()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Hamerly's resident bounds stay sound under *any* centroid-drift
    /// sequence, run through the driver's exact bookkeeping (drift kernel →
    /// centroid refresh → s_half → apply_drift): the upper bound never falls
    /// below the distance to the assigned centroid, the lower bound never
    /// rises above the closest *other* centroid (both within the policy's
    /// FP slack), and the next pruned pass still returns exactly the naive
    /// kernel's labels.
    #[test]
    fn hamerly_bounds_survive_any_drift_sequence(
        m in 4usize..40,
        k in 2usize..6,
        dim in 1usize..6,
        seed in 0u64..200,
        drifts in prop::collection::vec(
            (0usize..1000, prop::sample::select(vec![0.0f64, 0.05, 0.5, 3.0])),
            1..4,
        ),
    ) {
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let samples = Matrix::<f64>::from_fn(m, dim, |r, cc| {
            (((r * 7 + cc * 3 + seed as usize) % 23) as f64 - 11.0) / 3.0
        });
        let mut cents = Matrix::<f64>::from_fn(k, dim, |r, cc| {
            (((r * 11 + cc * 5 + seed as usize) % 19) as f64 - 9.0) / 3.0
        });
        let mut data = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
        data.ensure_bounds();
        compute_s_half(&dev, &data, &c).unwrap();
        hamerly_assign(&dev, &data, false, &NoFault, &c).unwrap();
        let policy = bound_policy::<f64>(dim);

        for (jseed, mag) in drifts {
            let next = Matrix::<f64>::from_fn(k, dim, |r, cc| {
                cents.get(r, cc)
                    + mag * ((((r * 31 + cc * 17 + jseed) % 13) as f64 - 6.0) / 6.0)
            });
            let old_buf = GlobalBuffer::from_matrix(&cents);
            data.refresh_centroids(&dev, &next, &c).unwrap();
            let b = data.bounds.as_ref().unwrap();
            let max_drift =
                centroid_drift(&dev, &old_buf, &data.centroids, k, dim, &b.drift, &c).unwrap();
            compute_s_half(&dev, &data, &c).unwrap();
            apply_drift(&dev, &data, max_drift, &c).unwrap();
            cents = next;

            let b = data.bounds.as_ref().unwrap();
            for i in 0..m {
                let a = b.labels.load(i) as usize;
                let d_assigned = row_dist(&samples, i, &cents, a);
                prop_assert!(
                    !policy.upper_violates(b.upper.load(i), d_assigned),
                    "sample {i}: upper {} below assigned distance {d_assigned}",
                    b.upper.load(i),
                );
                let mut d_other = f64::INFINITY;
                for j in (0..k).filter(|&j| j != a) {
                    d_other = d_other.min(row_dist(&samples, i, &cents, j));
                }
                prop_assert!(
                    !policy.lower_violates(b.lower.load(i), d_other),
                    "sample {i}: lower {} above closest-other distance {d_other}",
                    b.lower.load(i),
                );
            }

            // The pruned pass after the drift agrees with the naive kernel
            // bit-for-bit on labels — the slack absorbed every rounding.
            let want = naive_assign(&dev, &data, &NoFault, &c).unwrap();
            let got = hamerly_assign(&dev, &data, false, &NoFault, &c).unwrap();
            prop_assert_eq!(got.labels, want.labels);
        }
    }

    /// int8 quantize→dequantize round-trip stays within the advertised
    /// half-scale bound for adversarial per-centroid magnitudes — tiny,
    /// huge, and mixed within one table.
    #[test]
    fn int8_roundtrip_error_within_half_scale(
        k in 1usize..5,
        dim in 1usize..12,
        seed in 0u64..500,
        mags in prop::collection::vec(
            prop::sample::select(vec![1e-30f64, 1e-6, 1.0, 1e6, 1e30]),
            1..5,
        ),
    ) {
        let cents = Matrix::<f64>::from_fn(k, dim, |r, c| {
            let base = (((r * 31 + c * 7 + seed as usize) % 201) as f64 - 100.0) / 100.0;
            base * mags[(r * 13 + c) % mags.len()]
        });
        let buf = GlobalBuffer::from_matrix(&cents);
        let t = QuantizedCentroids::build(&buf, k, dim, QuantKind::Int8);
        let counters = Counters::new();
        let (mut deq, mut qn, mut sc) =
            (vec![0.0f64; k * dim], vec![0.0f64; k], vec![0.0f64; k]);
        t.stage_dequantized(&mut deq, &mut qn, &mut sc, &counters);
        for j in 0..k {
            // advertised bound: |v − v̂| ≤ scale/2 up to representation
            // rounding (0.51 covers the slop with margin)
            let bound = sc[j] * 0.51;
            let mut err_sq = 0.0f64;
            for d in 0..dim {
                let err = (cents.get(j, d) - deq[j * dim + d]).abs();
                prop_assert!(err <= bound, "row {j} elem {d}: err {err} > {bound}");
                err_sq += err * err;
            }
            // the cached displacement metadata is the exact row error
            prop_assert!((t.err_norms[j] - err_sq.sqrt()).abs() <= 1e-12 * err_sq.sqrt().max(1.0));
        }
    }

    /// fp16 round-trip honors the advertised relative bound inside the
    /// representable range and saturates (never overflows to ∞) outside it.
    #[test]
    fn fp16_roundtrip_error_within_advertised_bound(
        v in -66000.0f64..66000.0,
        scale in prop::sample::select(vec![1e-8f64, 1e-4, 1.0]),
    ) {
        let x = v * scale;
        let back = f16_bits_to_f32(f32_to_f16_bits(x as f32)) as f64;
        prop_assert!(back.is_finite());
        if x.abs() <= 65504.0 {
            // f32 narrowing (2⁻²³ rel) + f16 rounding (2⁻¹¹ rel) +
            // subnormal absolute floor (2⁻²⁴)
            let bound = x.abs() * (2f64.powi(-11) + 2f64.powi(-23)) + 2f64.powi(-24);
            prop_assert!((back - x).abs() <= bound, "{x}: {back} off by {}", (back - x).abs());
        } else {
            prop_assert_eq!(back.abs(), 65504.0, "finite overflow saturates");
            prop_assert_eq!(back.signum(), x.signum());
        }
    }

    /// The serving path's exactness invariant under adversarial magnitudes:
    /// whatever the data scale mix, fused quantized predict returns exactly
    /// the naive kernel's labels and distances (the margin policy must
    /// reject any sample quantization could mislabel).
    #[test]
    fn quantized_predict_labels_always_exact(
        m in 1usize..40,
        k in 1usize..7,
        dim in 1usize..9,
        seed in 0u64..300,
        mag in prop::sample::select(vec![1e-20f64, 1e-3, 1.0, 1e5, 1e18]),
    ) {
        let dev = DeviceProfile::a100();
        let counters = Counters::new();
        let samples = Matrix::<f64>::from_fn(m, dim, |r, c| {
            mag * ((((r * 7 + c * 3 + seed as usize) % 23) as f64 - 11.0) / 3.0)
        });
        let cents = Matrix::<f64>::from_fn(k, dim, |r, c| {
            mag * ((((r * 11 + c * 5 + seed as usize) % 19) as f64 - 9.0) / 3.0)
        });
        let data = DeviceData::upload(&dev, &samples, &cents, &counters).unwrap();
        let want = naive_assign(&dev, &data, &NoFault, &counters).unwrap();
        for kind in [QuantKind::Fp16, QuantKind::Int8] {
            let table = QuantizedCentroids::build(&data.centroids, k, dim, kind);
            let got = predict_fused_assign(
                &dev,
                QueryView {
                    samples: samples.as_slice(),
                    centroids: &data.centroids,
                    m,
                    k,
                    dim,
                },
                &table,
                &counters,
            )
            .unwrap();
            prop_assert_eq!(&got.labels, &want.labels, "{:?} labels", kind);
            for (a, b) in got.distances.iter().zip(want.distances.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{:?} distances", kind);
            }
        }
    }

    /// On fault-free fits the periodic revalidation is a pure no-op
    /// whatever the cadence: sweeps run (the final iteration always checks
    /// the whole population) but never find a violation, so nothing is
    /// detected and no forced recompute is charged.
    #[test]
    fn hamerly_revalidation_is_noop_on_fault_free_fits(
        m in 16usize..96,
        k in 2usize..6,
        dim in 1usize..5,
        seed in 0u64..100,
        every in 1usize..4,
        max_iter in 1usize..7,
    ) {
        let samples = Matrix::<f64>::from_fn(m, dim, |r, c| {
            (((r * 13 + c * 7 + seed as usize) % 29) as f64 - 14.0) / 3.0
        });
        let session = Session::a100();
        let mut cfg = KMeansConfig {
            k,
            max_iter,
            tol: 0.0,
            seed,
            variant: Variant::Hamerly,
            ..Default::default()
        };
        cfg.ft.revalidate_every = every;
        let fit = session.kmeans(cfg).fit_model(&samples).unwrap();
        prop_assert!(
            fit.ft_stats.clean_sweeps >= 1,
            "the final-iteration full sweep always runs"
        );
        prop_assert_eq!(fit.ft_stats.detected, 0);
        prop_assert_eq!(fit.ft_stats.recomputed, 0);
    }
}
