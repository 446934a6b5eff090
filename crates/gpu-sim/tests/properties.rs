//! Property-based tests of the simulator substrate.

use gpu_sim::atomics::ArgminSlots;
use gpu_sim::matrix::gemm_abt_reference;
use gpu_sim::mma::checksum_dot;
use gpu_sim::warp::frag_col_sums;
use gpu_sim::{
    AsyncPipeline, CopyPath, Counters, FragmentMma, GlobalBuffer, Matrix, MmaSite, NoFault, Scalar,
};
use proptest::prelude::*;

/// A value spread over many binades, so sums in different orders round
/// differently: hash `(seed, i)` to a mantissa in [-1, 1) scaled by 2^e,
/// e in [-8, 8).
fn spread(seed: u64, i: usize) -> f64 {
    let mut z = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let mantissa = (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
    mantissa * 2f64.powi((z & 15) as i32 - 8)
}

/// `v` survives a device cell's `new`/`load` and `store`/`load` bit for
/// bit.
fn cell_roundtrip<T: Scalar>(v: T) {
    let cell = T::cell(v);
    assert_eq!(T::load_cell(&cell).to_bits(), v.to_bits(), "new / load");
    T::store_cell(&cell, T::ZERO);
    T::store_cell(&cell, v);
    assert_eq!(T::load_cell(&cell).to_bits(), v.to_bits(), "store / load");
}

/// The single-pass fragment sums equal a column-at-a-time reduction, and
/// the k-deep checksum dot equals a 1x1 `FragmentMma` slab, bit for bit and
/// in the counters they charge.
fn sums_and_dot_match<T: Scalar>(rows: usize, kk: usize, seed: u64) {
    let frag: Vec<T> = (0..rows * kk)
        .map(|i| T::from_f64(spread(seed, i)))
        .collect();
    let (mut plain, mut weighted) = (vec![T::ZERO; kk], vec![T::ZERO; kk]);
    frag_col_sums(&frag, &mut plain, Some(&mut weighted));
    let mut plain_only = vec![T::ZERO; kk];
    frag_col_sums(&frag, &mut plain_only, None);
    for k in 0..kk {
        let (mut s, mut sw) = (T::ZERO, T::ZERO);
        for i in 0..rows {
            s += frag[i * kk + k];
            sw += T::from_usize(i + 1) * frag[i * kk + k];
        }
        assert_eq!(
            plain[k].to_raw_u64(),
            s.to_raw_u64(),
            "plain sum, column {k}"
        );
        assert_eq!(
            plain_only[k].to_raw_u64(),
            s.to_raw_u64(),
            "plain-only sum, column {k}"
        );
        assert_eq!(
            weighted[k].to_raw_u64(),
            sw.to_raw_u64(),
            "weighted sum, column {k}"
        );
    }

    let site = MmaSite {
        block: (0, 0),
        warp: 0,
        k_step: 0,
        is_checksum: true,
    };
    let start = T::from_f64(spread(seed, usize::MAX));
    let (c_dot, c_mma) = (Counters::new(), Counters::new());
    let mut got = start;
    checksum_dot(&mut got, &weighted, &plain, site, &NoFault, &c_dot);
    let mut want = [start];
    FragmentMma::new::<T>(1, 1).mma(&mut want, &weighted, &plain, kk, site, &NoFault, &c_mma);
    assert_eq!(got.to_raw_u64(), want[0].to_raw_u64(), "checksum dot");
    assert_eq!(c_dot.snapshot(), c_mma.snapshot(), "checksum dot counters");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pipeline discipline: for any number of tiles and stages, the
    /// prologue/prefetch/wait pattern used by the tensor kernel never reads
    /// an in-flight stage and always drains.
    #[test]
    fn pipeline_pattern_never_races(
        n_tiles in 1usize..20,
        k_stages in 2usize..5,
    ) {
        let c = Counters::new();
        let mut p = AsyncPipeline::<f32>::new(k_stages, 4, 4, 2, CopyPath::AsyncBypass);
        let prologue = (k_stages - 1).min(n_tiles);
        for s in 0..prologue {
            p.cp_async(s, &c, |t| t.set(0, 0, s as f32), |_| {});
            p.commit_group();
        }
        let mut committed = prologue;
        for kt in 0..n_tiles {
            let pf = kt + k_stages - 1;
            if pf < n_tiles {
                p.cp_async(pf % k_stages, &c, |t| t.set(0, 0, pf as f32), |_| {});
                p.commit_group();
                committed += 1;
            }
            p.wait_group(committed - kt - 1);
            // reading must not panic, and the stage holds tile kt's data
            let v = p.a(kt % k_stages).get(0, 0);
            prop_assert_eq!(v, kt as f32);
        }
        prop_assert_eq!(p.pending_groups(), 0);
    }

    /// Concurrent atomic increments are lossless for any partition of work.
    #[test]
    fn atomic_add_total_is_exact(
        threads in 1usize..8,
        per_thread in 1usize..200,
    ) {
        let c = Counters::new();
        let buf = GlobalBuffer::<u32>::zeros(1);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..per_thread {
                        buf.atomic_inc(0, &c);
                    }
                });
            }
        });
        prop_assert_eq!(buf.load(0), (threads * per_thread) as u32);
    }

    /// ArgminSlots picks what one scan in column order picks, bits and
    /// ties included, for any split of a row's columns into `bn` column
    /// blocks that each store their own scan's minimum, in any store order:
    /// ties, ±0.0, NaN and +∞ among the distances, and an all-NaN last row.
    #[test]
    fn argmin_store_matches_sequential(
        bn in 1usize..4,
        width in 1usize..6,
        codes in prop::collection::vec(0usize..6, 1..90),
    ) {
        const VALUES: [f32; 6] = [0.0, -0.0, 1.0, 2.0, f32::NAN, f32::INFINITY];
        let cols = bn * width;
        let rows = codes.len().div_ceil(cols) + 1;
        let dist = |r: usize, c: usize| {
            if r + 1 == rows {
                f32::NAN
            } else {
                VALUES[codes[(r * cols + c) % codes.len()]]
            }
        };
        // Smallest distance, first column among equals; NaN never wins.
        let scan = |r: usize, cs: std::ops::Range<usize>| {
            cs.fold((f32::INFINITY, u32::MAX), |best, c| {
                let d = dist(r, c);
                if d < best.0 || (d == best.0 && (c as u32) < best.1) {
                    (d, c as u32)
                } else {
                    best
                }
            })
        };
        let c = Counters::new();
        let slots = ArgminSlots::<f32>::new(rows, bn);
        for bx in (0..bn).rev() {
            for r in 0..rows {
                let (d, j) = scan(r, bx * width..(bx + 1) * width);
                slots.put(bx, r, d, j, &c);
            }
        }
        let (got_d, got_c) = slots.reduce();
        for r in 0..rows {
            let (d, j) = scan(r, 0..cols);
            prop_assert_eq!((got_d[r].to_bits(), got_c[r]), (d.to_bits(), j));
        }
        prop_assert_eq!(got_c[rows - 1], u32::MAX);
        prop_assert_eq!(c.snapshot().atomic_ops, (rows * bn) as u64);
    }

    /// GEMM reference transpose identity: (A·Bᵀ)ᵀ == B·Aᵀ.
    #[test]
    fn gemm_transpose_identity(
        m in 1usize..8,
        n in 1usize..8,
        k in 1usize..6,
        seed in 0u64..300,
    ) {
        let a = Matrix::<f64>::from_fn(m, k, |r, c| (((r * 3 + c + seed as usize) % 17) as f64) - 8.0);
        let b = Matrix::<f64>::from_fn(n, k, |r, c| (((r * 5 + c * 2 + seed as usize) % 13) as f64) - 6.0);
        let ab = gemm_abt_reference(&a, &b);
        let ba = gemm_abt_reference(&b, &a);
        prop_assert_eq!(ab.transposed(), ba);
    }

    /// TF32 truncation stays within the 10-bit-mantissa relative error
    /// bound and is idempotent.
    #[test]
    fn tf32_error_bound(x in -1e30f32..1e30f32) {
        let t = x.to_tf32();
        prop_assert_eq!(t.to_tf32(), t, "idempotent");
        if x != 0.0 && x.is_finite() && t.is_finite() {
            let rel = ((t - x) / x).abs();
            prop_assert!(rel <= 2.0f32.powi(-10), "rel err {rel} for {x}");
        }
    }

    /// Fragment input sums and checksum dots are bitwise the reference
    /// reductions at every fragment shape up to 64 x 64.
    #[test]
    fn checksum_sums_and_dot_match_reference_bitwise(
        rows in 1usize..65,
        kk in 1usize..65,
        seed in 0u64..u64::MAX,
    ) {
        sums_and_dot_match::<f32>(rows, kk, seed);
        sums_and_dot_match::<f64>(rows, kk, seed);
    }

    /// Device-cell round trip for both scalar widths, bit for bit.
    #[test]
    fn device_cell_roundtrip(x in prop::num::f64::ANY, y in prop::num::f32::ANY) {
        cell_roundtrip(x);
        cell_roundtrip(y);
    }
}
