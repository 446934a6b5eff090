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
/// Implementations must be cheap in the common (no fault) case; the hook is
/// invoked once per warp-tile MMA slab.
pub trait FaultHook<T: Scalar>: Sync {
    /// Inspect/corrupt the accumulator tile (`wm x wn`, row-major) after the
    /// MMA slab at `site` completed.
    fn post_mma(&self, site: &MmaSite, acc: &mut [T], wn: usize);

    /// Inspect/corrupt a single SIMT FMA result (used by the CUDA-core
    /// kernels of the step-wise variants).
    fn post_fma(&self, site: &MmaSite, value: T) -> T {
        let _ = site;
        value
    }
}

/// The default hook: faults disabled.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFault;

impl<T: Scalar> FaultHook<T> for NoFault {
    #[inline]
    fn post_mma(&self, _site: &MmaSite, _acc: &mut [T], _wn: usize) {}
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
    /// The micro-kernel is register-blocked four output columns wide: the
    /// four dot products run as independent accumulation chains over the
    /// contiguous fragment rows. Every output still accumulates its `k`
    /// terms in ascending order, so results are bitwise identical to the
    /// scalar triple loop — only instruction-level parallelism changes.
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
        debug_assert_eq!(acc.len(), self.wm * self.wn);
        debug_assert_eq!(a.len(), self.wm * kk);
        debug_assert_eq!(b.len(), self.wn * kk);
        // Fast path: stage B transposed to k-major in registers/local
        // scratch, TF32-converted exactly once per element. The inner loop
        // then walks contiguous j-runs, which vectorizes across output
        // columns; every output still accumulates its k terms in ascending
        // order, so results stay bitwise identical to the scalar triple
        // loop (TF32 conversion is elementwise and deterministic).
        const AMAX: usize = 64;
        const BT_MAX: usize = 512;
        if kk <= AMAX && self.wn * kk <= BT_MAX {
            let mut bt = [T::ZERO; BT_MAX];
            for j in 0..self.wn {
                let brow = &b[j * kk..(j + 1) * kk];
                for (k, &v) in brow.iter().enumerate() {
                    bt[k * self.wn + j] = v.to_tf32();
                }
            }
            // One zero-init per slab, refilled (first kk slots) per row.
            let mut at = [T::ZERO; AMAX];
            for i in 0..self.wm {
                for (d, s) in at[..kk].iter_mut().zip(&a[i * kk..(i + 1) * kk]) {
                    *d = s.to_tf32();
                }
                let crow = &mut acc[i * self.wn..(i + 1) * self.wn];
                let mut j = 0;
                while j + 16 <= self.wn {
                    dot_block::<T, 16>(crow, &at[..kk], &bt, self.wn, j);
                    j += 16;
                }
                while j + 4 <= self.wn {
                    dot_block::<T, 4>(crow, &at[..kk], &bt, self.wn, j);
                    j += 4;
                }
                while j < self.wn {
                    dot_block::<T, 1>(crow, &at[..kk], &bt, self.wn, j);
                    j += 1;
                }
            }
        } else {
            // Fallback for oversized fragments: the scalar triple loop.
            for i in 0..self.wm {
                let arow = &a[i * kk..(i + 1) * kk];
                let crow = &mut acc[i * self.wn..(i + 1) * self.wn];
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
        hook.post_mma(&site, acc, self.wn);
    }
}

/// `W` independent dot-product chains over a k-major transposed B panel:
/// `crow[j+l] += Σ_k at[k] * bt[k*wn + j+l]` for `l in 0..W`. Each output's
/// k terms accumulate in ascending order, preserving the bitwise-identity
/// contract of [`FragmentMma::mma`] at every block width.
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
