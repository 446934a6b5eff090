//! Warp-level tensor-core matrix-multiply-accumulate.
//!
//! The paper's kernels issue `mma.sync` instructions over register fragments
//! (`m16n8k8` for TF32, `m8n8k4` for FP64, Fig. 4 line 17). The simulator
//! executes MMA at warp-tile granularity: a warp owns a `wm x wn` block of
//! accumulators and each call performs `acc[i][j] += Σ_k a[i][k] * b[j][k]`
//! for a `kk`-deep slab, applying TF32 input truncation for `f32`.
//!
//! Every MMA call passes through a [`FaultHook`], the interception point the
//! fault injector (crate `ftk-fault`) uses to flip bits in accumulator
//! outputs — errors born *inside the compute units*, exactly the paper's
//! fail-continue fault model (§II-A).

use crate::counters::EventSink;
use crate::scalar::Scalar;

/// Hardware MMA tile shapes per precision (M, N, K of one `mma.sync`).
pub mod shapes {
    /// Ampere TF32 `mma.sync.aligned.m16n8k8`.
    pub const FP32_MMA: (usize, usize, usize) = (16, 8, 8);
    /// Ampere FP64 `mma.sync.aligned.m8n8k4`.
    pub const FP64_MMA: (usize, usize, usize) = (8, 8, 4);
}

/// Identifies one warp-level MMA issue site, for fault targeting and
/// reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MmaSite {
    /// Threadblock coordinates in the launch grid, or of a finer tile
    /// inside one block (the update names its 256-sample tiles). Within
    /// one launch all sites with a given `block` must come from a single
    /// grid block, so a hook may key its state by `block` and see that
    /// block's calls in program order whatever the schedule.
    pub block: (usize, usize),
    /// Warp index within the threadblock.
    pub warp: usize,
    /// Position along the GEMM K dimension (start of the slab).
    pub k_step: usize,
    /// True when this MMA computes an ABFT checksum rather than payload.
    pub is_checksum: bool,
}

/// Interception point for transient-fault injection into compute results.
///
/// Implementations must be cheap in the common (no fault) case. The tensor
/// kernels call [`FaultHook::post_mma`] once per warp-tile MMA slab; the
/// SIMT kernels and the centroid update call [`FaultHook::post_fma`] once
/// per element they compute.
pub trait FaultHook<T: Scalar>: Sync {
    /// Inspect/corrupt the accumulator tile (`wm x wn`, row-major) after the
    /// MMA slab at `site` completed.
    fn post_mma(&self, site: &MmaSite, acc: &mut [T], wn: usize);

    /// Inspect/corrupt a single SIMT FMA result (used by the CUDA-core
    /// kernels of the step-wise variants and by the centroid update).
    fn post_fma(&self, site: &MmaSite, value: T) -> T {
        let _ = site;
        value
    }

    /// True only if this hook never changes what it is handed: every
    /// `post_mma` leaves the tile as it is and every `post_fma` returns its
    /// value. A kernel may then skip the calls altogether (monomorphising
    /// over [`NoFault`] instead of calling through `dyn`), so a hook that
    /// counts or records its calls must keep the default `false`.
    fn is_inert(&self) -> bool {
        false
    }
}

/// The default hook: faults disabled.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFault;

impl<T: Scalar> FaultHook<T> for NoFault {
    #[inline]
    fn post_mma(&self, _site: &MmaSite, _acc: &mut [T], _wn: usize) {}

    #[inline]
    fn is_inert(&self) -> bool {
        true
    }
}

/// Functional warp-tile MMA executor.
///
/// `wm`/`wn` are the warp tile dimensions in elements; the executor derives
/// how many hardware `mma.sync` instructions one slab costs from the
/// precision's tile shape, for counter purposes.
#[derive(Debug, Clone, Copy)]
pub struct FragmentMma {
    wm: usize,
    wn: usize,
    mma_shape: (usize, usize, usize),
}

impl FragmentMma {
    /// Create an executor for a `wm x wn` warp tile of precision `P`.
    pub fn new<T: Scalar>(wm: usize, wn: usize) -> Self {
        let mma_shape = match T::PRECISION {
            crate::device::Precision::Fp32 => shapes::FP32_MMA,
            crate::device::Precision::Fp64 => shapes::FP64_MMA,
        };
        FragmentMma { wm, wn, mma_shape }
    }

    pub fn wm(&self) -> usize {
        self.wm
    }

    pub fn wn(&self) -> usize {
        self.wn
    }

    /// Number of hardware `mma.sync` instructions one `kk`-deep slab costs.
    pub fn hw_mma_count(&self, kk: usize) -> u64 {
        let (tm, tn, tk) = self.mma_shape;
        (self.wm.div_ceil(tm) * self.wn.div_ceil(tn) * kk.div_ceil(tk)) as u64
    }

    /// `acc[i][j] += Σ_k a[i*kk+k] * b[j*kk+k]`, with TF32 truncation of the
    /// inputs for `f32`, fault-hook interception, and MMA counting.
    ///
    /// * `acc` — `wm*wn` row-major accumulator fragment,
    /// * `a` — `wm*kk` row-major A fragment (rows of X),
    /// * `b` — `wn*kk` row-major B fragment (rows of Y),
    /// * `kk` — slab depth.
    ///
    /// This is [`FragmentMma::mma_clipped`] over the whole `wm x wn` tile;
    /// a caller that knows trailing A or B rows are zero padding passes the
    /// live extent there instead and skips their host arithmetic, with the
    /// same charge and hook call.
    #[allow(clippy::too_many_arguments)]
    pub fn mma<T: Scalar, H: FaultHook<T> + ?Sized, C: EventSink + ?Sized>(
        &self,
        acc: &mut [T],
        a: &[T],
        b: &[T],
        kk: usize,
        site: MmaSite,
        hook: &H,
        counters: &C,
    ) {
        let live = (self.wm, self.wn);
        self.mma_clipped(acc, a, b, kk, live, site, hook, counters);
    }

    /// [`FragmentMma::mma`] for a tile whose A rows at or beyond
    /// `live.0` and B rows (output columns) at or beyond `live.1` are zero
    /// padding: only the live `live.0 x live.1` corner of `acc` is
    /// computed, and the padded lanes keep their values (the full MMA would
    /// add `±0` to them, which changes at most the sign of a zero).
    /// Everything else is the full tile's: every `mma.sync` of the
    /// `wm x wn` tile is charged and `hook` sees the whole accumulator, so
    /// counters, fault sites and modeled time do not depend on the clip. `a` and `b` keep
    /// their full shapes; padded rows are never read.
    ///
    /// The micro-kernel is register-blocked four output columns wide: the
    /// four dot products run as independent accumulation chains over the
    /// contiguous fragment rows. Every output still accumulates its `k`
    /// terms in ascending order, so results are bitwise identical to the
    /// scalar triple loop — only instruction-level parallelism changes.
    #[allow(clippy::too_many_arguments)]
    pub fn mma_clipped<T: Scalar, H: FaultHook<T> + ?Sized, C: EventSink + ?Sized>(
        &self,
        acc: &mut [T],
        a: &[T],
        b: &[T],
        kk: usize,
        live: (usize, usize),
        site: MmaSite,
        hook: &H,
        counters: &C,
    ) {
        debug_assert_eq!(acc.len(), self.wm * self.wn);
        debug_assert_eq!(a.len(), self.wm * kk);
        debug_assert_eq!(b.len(), self.wn * kk);
        let (rows, cols) = live;
        debug_assert!(rows <= self.wm && cols <= self.wn);
        let wn = self.wn;
        // Fast path: stage the live B rows transposed to k-major
        // (`bt[k*cols + j]`) in registers/local scratch, TF32-converted
        // exactly once per element. The inner loop then walks contiguous
        // j-runs, which vectorizes across output columns; every output
        // still accumulates its k terms in ascending order, so results stay
        // bitwise identical to the scalar triple loop (TF32 conversion is
        // elementwise and deterministic).
        const AMAX: usize = 64;
        const BT_MAX: usize = 512;
        if kk <= AMAX && cols * kk <= BT_MAX {
            let mut bt = [T::ZERO; BT_MAX];
            for j in 0..cols {
                let brow = &b[j * kk..(j + 1) * kk];
                for (k, &v) in brow.iter().enumerate() {
                    bt[k * cols + j] = v.to_tf32();
                }
            }
            // One zero-init per slab, refilled (first kk slots) per row.
            let mut at = [T::ZERO; AMAX];
            for i in 0..rows {
                for (d, s) in at[..kk].iter_mut().zip(&a[i * kk..(i + 1) * kk]) {
                    *d = s.to_tf32();
                }
                let crow = &mut acc[i * wn..i * wn + cols];
                let mut j = 0;
                while j + 16 <= cols {
                    dot_block::<T, 16>(crow, &at[..kk], &bt, cols, j);
                    j += 16;
                }
                while j + 4 <= cols {
                    dot_block::<T, 4>(crow, &at[..kk], &bt, cols, j);
                    j += 4;
                }
                while j < cols {
                    dot_block::<T, 1>(crow, &at[..kk], &bt, cols, j);
                    j += 1;
                }
            }
        } else {
            // Fallback for oversized fragments: the scalar triple loop.
            for i in 0..rows {
                let arow = &a[i * kk..(i + 1) * kk];
                let crow = &mut acc[i * wn..i * wn + cols];
                for (j, cj) in crow.iter_mut().enumerate() {
                    let brow = &b[j * kk..(j + 1) * kk];
                    let mut sum = T::ZERO;
                    for k in 0..kk {
                        sum += arow[k].to_tf32() * brow[k].to_tf32();
                    }
                    *cj += sum;
                }
            }
        }
        let n = self.hw_mma_count(kk);
        if site.is_checksum {
            counters.add_ft_mma(n);
        } else {
            counters.add_mma(n);
        }
        hook.post_mma(&site, acc, wn);
    }
}

/// `W` independent dot-product chains over a k-major transposed B panel of
/// row stride `wn`: `crow[j+l] += Σ_k at[k] * bt[k*wn + j+l]` for
/// `l in 0..W`. Each output's k terms accumulate in ascending order,
/// preserving the bitwise-identity contract of [`FragmentMma::mma`] at
/// every block width.
#[inline]
fn dot_block<T: Scalar, const W: usize>(crow: &mut [T], at: &[T], bt: &[T], wn: usize, j: usize) {
    let mut s = [T::ZERO; W];
    for (k, &av) in at.iter().enumerate() {
        let brun = &bt[k * wn + j..k * wn + j + W];
        for (sl, &bv) in s.iter_mut().zip(brun) {
            *sl += av * bv;
        }
    }
    for (cj, &sl) in crow[j..j + W].iter_mut().zip(&s) {
        *cj += sl;
    }
}

/// One checksum product on a tensor core (Fig. 6 lines 22–24):
/// `acc += Σ_k a[k]·b[k]` over a `kk = a.len()`-deep slab, with TF32 inputs
/// for `f32`. The sum runs from zero in ascending `k` and is then added to
/// `acc`, the order of a 1×1 [`FragmentMma::mma`], so the result is bit for
/// bit the same. It costs that MMA's `mma.sync` count, charged as checksum
/// MMAs, and passes through `hook` like every MMA.
pub fn checksum_dot<T: Scalar, H: FaultHook<T> + ?Sized, C: EventSink + ?Sized>(
    acc: &mut T,
    a: &[T],
    b: &[T],
    site: MmaSite,
    hook: &H,
    counters: &C,
) {
    debug_assert_eq!(a.len(), b.len());
    let mut sum = T::ZERO;
    for (&x, &y) in a.iter().zip(b) {
        sum += x.to_tf32() * y.to_tf32();
    }
    let mut tile = [*acc + sum];
    counters.add_ft_mma(FragmentMma::new::<T>(1, 1).hw_mma_count(a.len()));
    hook.post_mma(&site, &mut tile, 1);
    *acc = tile[0];
}

/// SIMT fused multiply-add with fault-hook interception (CUDA-core path of
/// the naive/V1/V2/V3 kernels).
#[inline]
pub fn simt_fma<T: Scalar, H: FaultHook<T> + ?Sized, C: EventSink + ?Sized>(
    acc: T,
    a: T,
    b: T,
    site: &MmaSite,
    hook: &H,
    counters: &C,
) -> T {
    counters.add_fma(1);
    hook.post_fma(site, acc + a * b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Counters;

    struct FlipFirst;
    impl FaultHook<f64> for FlipFirst {
        fn post_mma(&self, _site: &MmaSite, acc: &mut [f64], _wn: usize) {
            acc[0] = acc[0].flip_bit(52); // flip an exponent bit
        }
    }

    fn site() -> MmaSite {
        MmaSite {
            block: (0, 0),
            warp: 0,
            k_step: 0,
            is_checksum: false,
        }
    }

    #[test]
    fn mma_matches_reference_f64() {
        let exec = FragmentMma::new::<f64>(4, 3);
        let kk = 5;
        let a: Vec<f64> = (0..4 * kk).map(|i| i as f64 * 0.5).collect();
        let b: Vec<f64> = (0..3 * kk).map(|i| 1.0 - i as f64 * 0.25).collect();
        let mut acc = vec![0.0f64; 12];
        let c = Counters::new();
        exec.mma(&mut acc, &a, &b, kk, site(), &NoFault, &c);
        for i in 0..4 {
            for j in 0..3 {
                let expect: f64 = (0..kk).map(|k| a[i * kk + k] * b[j * kk + k]).sum();
                assert!((acc[i * 3 + j] - expect).abs() < 1e-12);
            }
        }
        assert!(c.snapshot().mma_ops > 0);
    }

    #[test]
    fn register_blocked_path_matches_scalar_reference_bitwise() {
        // wn = 9 exercises both the 4-wide blocked loop and the scalar tail;
        // equality must be bitwise, not approximate — the register blocking
        // may not change any output's accumulation order.
        let (wm, wn, kk) = (5, 9, 7);
        let exec = FragmentMma::new::<f32>(wm, wn);
        let a: Vec<f32> = (0..wm * kk).map(|i| (i as f32).sin()).collect();
        let b: Vec<f32> = (0..wn * kk).map(|i| (i as f32 * 0.37).cos()).collect();
        let mut acc: Vec<f32> = (0..wm * wn).map(|i| i as f32 * 0.01).collect();
        let mut want = acc.clone();
        for i in 0..wm {
            for j in 0..wn {
                let mut sum = 0.0f32;
                for k in 0..kk {
                    sum += a[i * kk + k].to_tf32() * b[j * kk + k].to_tf32();
                }
                want[i * wn + j] += sum;
            }
        }
        let c = Counters::new();
        exec.mma(&mut acc, &a, &b, kk, site(), &NoFault, &c);
        for (got, want) in acc.iter().zip(want.iter()) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    /// Records every `post_mma` call: site, tile length and row width.
    #[derive(Default)]
    struct Recorder(std::sync::Mutex<Vec<(MmaSite, usize, usize)>>);

    impl<T: Scalar> FaultHook<T> for Recorder {
        fn post_mma(&self, site: &MmaSite, acc: &mut [T], wn: usize) {
            self.0.lock().unwrap().push((*site, acc.len(), wn));
        }
    }

    /// Random fragments whose A rows from `live.0` and B rows from `live.1`
    /// are zero: the clipped MMA must equal the full one bit for bit on
    /// every live lane, leave padded lanes as they were, and charge and
    /// hook exactly what the full one does, slab after slab.
    fn clipped_matches_full<T: Scalar>(wm: usize, wn: usize, kk: usize) {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            T::from_f64((state >> 11) as f64 / (1u64 << 53) as f64 * 8.0 - 4.0)
        };
        let exec = FragmentMma::new::<T>(wm, wn);
        let extents = [(wm, wn), (0, wn), (wm, 0), (1, 1), (wm / 2 + 1, wn / 3 + 1)];
        for live in extents {
            let acc0: Vec<T> = (0..wm * wn).map(|_| draw()).collect();
            let (mut full, mut clipped) = (acc0.clone(), acc0.clone());
            let (c_full, c_clipped) = (Counters::new(), Counters::new());
            let (h_full, h_clipped) = (Recorder::default(), Recorder::default());
            for slab in 0..3 {
                let a: Vec<T> = (0..wm * kk)
                    .map(|e| if e / kk < live.0 { draw() } else { T::ZERO })
                    .collect();
                let b: Vec<T> = (0..wn * kk)
                    .map(|e| if e / kk < live.1 { draw() } else { T::ZERO })
                    .collect();
                let site = MmaSite {
                    k_step: slab * kk,
                    ..site()
                };
                exec.mma(&mut full, &a, &b, kk, site, &h_full, &c_full);
                exec.mma_clipped(&mut clipped, &a, &b, kk, live, site, &h_clipped, &c_clipped);
            }
            for (e, ((&f, &c), &o)) in full.iter().zip(&clipped).zip(&acc0).enumerate() {
                let (i, j) = (e / wn, e % wn);
                if i < live.0 && j < live.1 {
                    assert_eq!(c.to_raw_u64(), f.to_raw_u64(), "{live:?} lane ({i}, {j})");
                } else {
                    assert_eq!(c.to_raw_u64(), o.to_raw_u64(), "{live:?} padded ({i}, {j})");
                    assert_eq!(f, o, "the full MMA adds only zeros to ({i}, {j})");
                }
            }
            assert_eq!(c_clipped.snapshot(), c_full.snapshot(), "{live:?} counters");
            let calls = h_clipped.0.into_inner().unwrap();
            assert_eq!(calls.len(), 3);
            assert_eq!(calls, h_full.0.into_inner().unwrap(), "{live:?} hook calls");
        }
    }

    #[test]
    fn clipped_mma_matches_full_mma_on_live_lanes() {
        // 8-deep slabs take the transposed fast path; 80-deep ones the
        // scalar fallback.
        for kk in [8, 80] {
            clipped_matches_full::<f32>(16, 24, kk);
            clipped_matches_full::<f64>(8, 9, kk);
        }
        clipped_matches_full::<f32>(64, 32, 8);
    }

    #[test]
    fn mma_accumulates() {
        let exec = FragmentMma::new::<f64>(2, 2);
        let mut acc = vec![10.0f64; 4];
        let c = Counters::new();
        exec.mma(&mut acc, &[1.0, 1.0], &[2.0, 3.0], 1, site(), &NoFault, &c);
        assert_eq!(acc, vec![12.0, 13.0, 12.0, 13.0]);
    }

    #[test]
    fn tf32_truncation_applies_to_f32_inputs() {
        let exec = FragmentMma::new::<f32>(1, 1);
        let c = Counters::new();
        let mut acc = vec![0.0f32];
        // 1 + 2^-12 is below TF32 resolution -> truncates to 1.0
        let a = [1.0f32 + 2.0_f32.powi(-12)];
        let b = [1.0f32];
        exec.mma(&mut acc, &a, &b, 1, site(), &NoFault, &c);
        assert_eq!(acc[0], 1.0);
    }

    #[test]
    fn hw_mma_count_uses_tile_shapes() {
        let e32 = FragmentMma::new::<f32>(64, 32);
        // 64/16 * 32/8 * 8/8 = 16 instructions per 8-deep slab
        assert_eq!(e32.hw_mma_count(8), 16);
        let e64 = FragmentMma::new::<f64>(32, 32);
        // 32/8 * 32/8 * 4/4 = 16
        assert_eq!(e64.hw_mma_count(4), 16);
    }

    #[test]
    fn fault_hook_corrupts_output() {
        let exec = FragmentMma::new::<f64>(2, 2);
        let c = Counters::new();
        let mut acc = vec![0.0f64; 4];
        exec.mma(
            &mut acc,
            &[1.0, 0.0],
            &[1.0, 1.0],
            1,
            site(),
            &FlipFirst,
            &c,
        );
        // clean result would be [1,1,0,0]; hook flipped a bit of acc[0]
        assert_ne!(acc[0], 1.0);
        assert_eq!(acc[1], 1.0);
    }

    #[test]
    fn checksum_dot_counts_separately() {
        let c = Counters::new();
        let mut acc = 1.0f64;
        checksum_dot(
            &mut acc,
            &[2.0; 5],
            &[3.0; 5],
            MmaSite {
                is_checksum: true,
                ..site()
            },
            &NoFault,
            &c,
        );
        assert_eq!(acc, 31.0);
        let s = c.snapshot();
        // 5 deep at the FP64 MMA K of 4: two mma.sync.
        assert_eq!(s.ft_mma_ops, 2);
        assert_eq!(s.mma_ops, 0);
    }

    #[test]
    fn simt_fma_counts() {
        let c = Counters::new();
        let v = simt_fma(1.0f32, 2.0, 4.0, &site(), &NoFault, &c);
        assert_eq!(v, 9.0);
        assert_eq!(c.snapshot().fma_ops, 1);
    }
}
