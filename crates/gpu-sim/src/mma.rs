//! Warp-level tensor-core matrix-multiply-accumulate.
//!
//! The paper's kernels issue `mma.sync` instructions over register fragments
//! (`m16n8k8` for TF32, `m8n8k4` for FP64, Fig. 4 line 17). The simulator
//! executes MMA at warp-tile granularity: a warp owns a `wm x wn` block of
//! accumulators and each call performs `acc[i][j] += Σ_k a[i][k] * b[j][k]`
//! for a `kk`-deep slab, applying TF32 input truncation for `f32`.
//!
//! Operands are staged as TF32 panels, A rows row-major ([`APanel`]) and B
//! rows k-major ([`BPanel`]), and multiplied by one register-blocked
//! micro-kernel, whether a caller hands in fragments ([`FragmentMma::mma`])
//! or whole staged tiles ([`FragmentMma::mma_panel`]). A B panel does not
//! belong to any one block: the tensor kernel stages the centroid panels
//! once per launch and every block reads them.
//!
//! The micro-kernel has three paths: AVX-512F, AVX2, and the portable
//! baseline. The widest path the host supports is picked once per process
//! ([`isa`] names it); targets other than x86-64 have only the portable
//! path. On the AVX-512F path `f32` runs a block written in `core::arch`
//! intrinsics, the paper's register tiling at host width: 4 rows × 32
//! columns, 8 independent sums held in `zmm` registers. Everything else
//! (`f64`, AVX2, portable) compiles one portable body, rows two at a time
//! and columns in blocks of 16, 4 and 1, for the path's vector width.
//! Every path keeps products and sums as separate multiplies and adds
//! (never contracted to a fused multiply-add), and every output sums its
//! slab from zero in ascending `k`, so the wider vectors change the speed
//! and never a bit of a number in the result. The one exception is the
//! sign and payload of a NaN that a slab makes from non-finite panel
//! values, which follow the operand order each path picked. Samples and
//! centroids are checked finite before any kernel runs, so no fit
//! multiplies one; a NaN already in the accumulator (a flipped bit)
//! passes through every path unchanged.
//!
//! Every MMA slab passes through a [`FaultHook`], the interception point the
//! fault injector (crate `ftk-fault`) uses to flip bits in accumulator
//! outputs — errors born *inside the compute units*, exactly the paper's
//! fail-continue fault model (§II-A). Only an inert hook lets a kernel skip
//! the call.

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
/// per element they compute. Kernels may skip both for a hook that is
/// [inert](FaultHook::is_inert).
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
    /// counts or records its calls must keep the default `false`. The
    /// centroid update runs its inert path over [`NoFault`]; the tensor
    /// assignment kernel skips `post_mma` and verifies a warp's checksums
    /// over its live corner, since no hook can have written its padded
    /// lanes.
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

/// The instruction set the MMA micro-kernel is compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    #[cfg(target_arch = "x86_64")]
    Avx512f,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    Portable,
}

impl Isa {
    /// Every path, widest first.
    #[cfg(target_arch = "x86_64")]
    const ALL: [Isa; 3] = [Isa::Avx512f, Isa::Avx2, Isa::Portable];
    #[cfg(not(target_arch = "x86_64"))]
    const ALL: [Isa; 1] = [Isa::Portable];

    fn supported(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512f => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            Isa::Portable => true,
        }
    }

    /// The widest path this host runs, detected once per process.
    fn host() -> Isa {
        static HOST: std::sync::OnceLock<Isa> = std::sync::OnceLock::new();
        *HOST.get_or_init(|| {
            Isa::ALL
                .into_iter()
                .find(|isa| isa.supported())
                .unwrap_or(Isa::Portable)
        })
    }

    fn name(self) -> &'static str {
        match self {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512f => "avx512f",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => "avx2",
            Isa::Portable => "portable",
        }
    }
}

/// The instruction set the MMA micro-kernel runs on in this process:
/// `"avx512f"`, `"avx2"` or `"portable"`. Results do not depend on it; host
/// wall-clock does.
pub fn isa() -> &'static str {
    Isa::host().name()
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
    isa: Isa,
}

impl FragmentMma {
    /// Create an executor for a `wm x wn` warp tile of precision `P`.
    pub fn new<T: Scalar>(wm: usize, wn: usize) -> Self {
        let mma_shape = match T::PRECISION {
            crate::device::Precision::Fp32 => shapes::FP32_MMA,
            crate::device::Precision::Fp64 => shapes::FP64_MMA,
        };
        FragmentMma {
            wm,
            wn,
            mma_shape,
            isa: Isa::host(),
        }
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
    /// The fragments are staged as panels and multiplied by the same
    /// micro-kernel as [`FragmentMma::mma_panel`], so both paths give the
    /// same bits. A checksum `site` is charged as checksum MMAs.
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
        let (mut ap, mut bp) = (APanel::default(), BPanel::default());
        ap.stage(a, kk);
        bp.stage(b, kk);
        let whole = (self.wm, self.wn);
        panel_kernel(self.isa, acc, self.wn, (&ap, &bp), (0, 0, 0), whole, kk);
        let n = self.hw_mma_count(kk);
        if site.is_checksum {
            counters.add_ft_mma(n);
        } else {
            counters.add_mma(n);
        }
        hook.post_mma(&site, acc, self.wn);
    }

    /// One `kk`-deep payload MMA slab of one warp over staged panels:
    /// `acc[i][j] += Σ_k a[row0+i][k0+k] · b[k0+k][col0+j]`, the sum
    /// starting at zero, where `at = (row0, col0, k0)` places the warp tile
    /// in the panels.
    ///
    /// Only the `live.0 x live.1` corner of `acc` is computed: panel rows
    /// and columns past it are zero padding, whose lanes keep their values
    /// (the full MMA would add `±0` to them, which changes at most the sign
    /// of a zero). Every `mma.sync` of the whole `wm x wn` tile is charged
    /// so counters and modeled time do not depend on the clip.
    ///
    /// No hook is called: a caller with a live [`FaultHook`] hands the
    /// whole tile to [`FaultHook::post_mma`] after the slab.
    #[allow(clippy::too_many_arguments)]
    pub fn mma_panel<T: Scalar, C: EventSink + ?Sized>(
        &self,
        acc: &mut [T],
        a: &APanel<T>,
        b: &BPanel<T>,
        at: (usize, usize, usize),
        live: (usize, usize),
        kk: usize,
        counters: &C,
    ) {
        debug_assert_eq!(acc.len(), self.wm * self.wn);
        debug_assert!(live.0 <= self.wm && live.1 <= self.wn);
        panel_kernel(self.isa, acc, self.wn, (a, b), at, live, kk);
        counters.add_mma(self.hw_mma_count(kk));
    }
}

/// The A operand of one staged k-tile: its rows TF32-converted once
/// (identity for `f64`) and kept row-major (`a[i*kk + k]`) for every warp
/// and slab that reads them. Empty by default; [`APanel::stage`] sizes it.
#[derive(Debug, Clone, Default)]
pub struct APanel<T> {
    a: Vec<T>,
    kk: usize,
}

impl<T: Scalar> APanel<T> {
    /// Stage `a` (row-major rows of A, `kk` deep), reusing the buffer. Pass
    /// only the live rows: padding rows are never read.
    pub fn stage(&mut self, a: &[T], kk: usize) {
        debug_assert!(kk > 0 && a.len().is_multiple_of(kk));
        self.kk = kk;
        self.a.clear();
        self.a.extend(a.iter().map(|v| v.to_tf32()));
    }
}

/// The B operand of one k-tile: its rows TF32-converted once and
/// transposed k-major (`b[k*cols + j]`), so a slab's B values for
/// consecutive output columns are contiguous. It holds no block state, so
/// one panel can serve every block that multiplies the same B rows. Empty
/// by default; [`BPanel::stage`] sizes it.
#[derive(Debug, Clone, Default)]
pub struct BPanel<T> {
    b: Vec<T>,
    kk: usize,
    cols: usize,
}

impl<T: Scalar> BPanel<T> {
    /// Stage `b` (row-major rows of B, `kk` deep), reusing the buffer. Pass
    /// only the live rows: padding columns are never read.
    pub fn stage(&mut self, b: &[T], kk: usize) {
        debug_assert!(kk > 0 && b.len().is_multiple_of(kk));
        self.kk = kk;
        self.cols = b.len() / kk;
        self.b.clear();
        self.b.resize(b.len(), T::ZERO);
        for (j, brow) in b.chunks_exact(kk).enumerate() {
            for (k, &v) in brow.iter().enumerate() {
                self.b[k * self.cols + j] = v.to_tf32();
            }
        }
    }
}

/// The one MMA micro-kernel (see [`FragmentMma::mma_panel`]), run on the
/// `isa` path. The AVX-512F path runs [`avx512::panel`] for `f32`; every
/// other path compiles the same [`panel_body`] for its own vector width.
/// All of them give the same numbers (NaNs aside, see the module doc).
fn panel_kernel<T: Scalar>(
    isa: Isa,
    acc: &mut [T],
    wn: usize,
    panels: (&APanel<T>, &BPanel<T>),
    at: (usize, usize, usize),
    live: (usize, usize),
    kk: usize,
) {
    // `Isa` is private to this module: a value reaches here from
    // `Isa::host()` (via `FragmentMma`) or from a test that checked
    // `supported()`, so a wide variant means the CPU has its feature.
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512f if std::any::TypeId::of::<T>() == std::any::TypeId::of::<f32>() => {
            use std::any::Any;
            let pa = (panels.0 as &dyn Any).downcast_ref().expect("T is f32");
            let pb = (panels.1 as &dyn Any).downcast_ref().expect("T is f32");
            let (ptr, len) = (acc.as_mut_ptr().cast(), acc.len());
            // SAFETY: `T` is `f32` (same `TypeId`), so this is the same
            // slice at the same type.
            let acc = unsafe { std::slice::from_raw_parts_mut(ptr, len) };
            // SAFETY: `isa == Avx512f` only where AVX-512F was detected.
            unsafe { avx512::panel(acc, wn, (pa, pb), at, live, kk) }
        }
        // SAFETY: `isa == Avx512f` only where AVX-512F was detected (above).
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512f => unsafe { panel_avx512f(acc, wn, panels, at, live, kk) },
        // SAFETY: `isa == Avx2` only where AVX2 was detected (above).
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { panel_avx2(acc, wn, panels, at, live, kk) },
        Isa::Portable => panel_body(acc, wn, panels, at, live, kk),
    }
}

/// [`panel_body`] compiled for AVX-512F, run for `f64`. Callable only
/// where the CPU has it (see [`panel_kernel`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn panel_avx512f<T: Scalar>(
    acc: &mut [T],
    wn: usize,
    panels: (&APanel<T>, &BPanel<T>),
    at: (usize, usize, usize),
    live: (usize, usize),
    kk: usize,
) {
    panel_body(acc, wn, panels, at, live, kk)
}

/// [`panel_body`] compiled for AVX2. Callable only where the CPU has it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn panel_avx2<T: Scalar>(
    acc: &mut [T],
    wn: usize,
    panels: (&APanel<T>, &BPanel<T>),
    at: (usize, usize, usize),
    live: (usize, usize),
    kk: usize,
) {
    panel_body(acc, wn, panels, at, live, kk)
}

/// The `f32` micro-kernel in AVX-512F intrinsics, the paper's register
/// tiling at host width. Rows run four at a time (then a 3-, 2- or 1-row
/// tail) and columns in blocks of 32 and 16, then one masked block under
/// 16. A 4×32 block keeps 8 independent sums in `zmm` registers, enough
/// chains to hide the add latency. Each output lane sums the slab's `k`
/// terms from `+0.0` in ascending order, with a separate multiply and add,
/// then adds the sum to `acc`: the order of [`dot_block`], so the numbers
/// are [`panel_body`]'s.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{APanel, BPanel};
    use std::arch::x86_64::*;

    /// Leading dimensions of the A panel, the B panel and `acc`, and the
    /// slab depth.
    #[derive(Clone, Copy)]
    struct Geom {
        lda: usize,
        ldb: usize,
        ldc: usize,
        kk: usize,
    }

    /// [`super::panel_body`] for `f32`. Callable only where the CPU has
    /// AVX-512F (see [`super::panel_kernel`]).
    #[target_feature(enable = "avx512f")]
    pub(super) fn panel(
        acc: &mut [f32],
        wn: usize,
        (pa, pb): (&APanel<f32>, &BPanel<f32>),
        (row0, col0, k0): (usize, usize, usize),
        (rows, cols): (usize, usize),
        kk: usize,
    ) {
        if rows == 0 || cols == 0 {
            return;
        }
        // Every pointer the blocks form stays inside these extents.
        assert!(k0 + kk <= pa.kk && pa.kk == pb.kk && col0 + cols <= pb.cols && cols <= wn);
        assert!((row0 + rows) * pa.kk <= pa.a.len() && (k0 + kk) * pb.cols <= pb.b.len());
        assert!((rows - 1) * wn + cols <= acc.len());
        let g = Geom {
            lda: pa.kk,
            ldb: pb.cols,
            ldc: wn,
            kk,
        };
        let a = pa.a[row0 * g.lda + k0..].as_ptr();
        let b = pb.b[k0 * g.ldb + col0..].as_ptr();
        let c = acc.as_mut_ptr();
        let mut i = 0;
        // SAFETY (all four calls): rows `i..i + R` are below `rows`, so by
        // the asserts above the blocks read A and B and write `acc` in
        // bounds.
        while i + 4 <= rows {
            unsafe { row_block::<4>(a.add(i * g.lda), b, c.add(i * g.ldc), g, cols) };
            i += 4;
        }
        let (a, c) = (a.wrapping_add(i * g.lda), c.wrapping_add(i * g.ldc));
        match rows - i {
            3 => unsafe { row_block::<3>(a, b, c, g, cols) },
            2 => unsafe { row_block::<2>(a, b, c, g, cols) },
            1 => unsafe { row_block::<1>(a, b, c, g, cols) },
            _ => {}
        }
    }

    /// `R` rows of the panel, walked in column blocks.
    ///
    /// # Safety
    ///
    /// `a` holds `R` rows of `g.kk` values `g.lda` apart, `b` holds `g.kk`
    /// rows of `cols` values `g.ldb` apart, and `c` holds `R` rows of
    /// `cols` values `g.ldc` apart.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn row_block<const R: usize>(
        a: *const f32,
        b: *const f32,
        c: *mut f32,
        g: Geom,
        cols: usize,
    ) {
        let mut j = 0;
        // SAFETY (all three calls): columns `j..` up to the block's width
        // (or, masked, to `cols`) lie inside the rows of `b` and `c`.
        while j + 32 <= cols {
            unsafe { block::<R, 2>(a, b.add(j), c.add(j), g, !0) };
            j += 32;
        }
        if j + 16 <= cols {
            unsafe { block::<R, 1>(a, b.add(j), c.add(j), g, !0) };
            j += 16;
        }
        if j < cols {
            let tail = (1u16 << (cols - j)) - 1;
            unsafe { block::<R, 1>(a, b.add(j), c.add(j), g, tail) };
        }
    }

    /// `R x 16V` independent sums: `c[r][l] += Σ_k a[r][k] · b[k][l]`, the
    /// last vector's lanes limited to `tail`.
    ///
    /// # Safety
    ///
    /// `a` holds `R` rows of `g.kk` values `g.lda` apart; `b` holds `g.kk`
    /// rows and `c` holds `R` rows, `g.ldb` and `g.ldc` apart, each with
    /// `16V` values, of which the last vector's lanes outside `tail` need
    /// not exist.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn block<const R: usize, const V: usize>(
        a: *const f32,
        b: *const f32,
        c: *mut f32,
        g: Geom,
        tail: __mmask16,
    ) {
        let mask = |v: usize| if v + 1 == V { tail } else { !0 };
        let mut sum = [[_mm512_setzero_ps(); V]; R];
        let mut bv = [_mm512_setzero_ps(); V];
        for k in 0..g.kk {
            // SAFETY: row `k < g.kk` of `b` and of every `a` row, masked
            // to the lanes that exist (by the contract above).
            unsafe {
                for (v, bv) in bv.iter_mut().enumerate() {
                    *bv = _mm512_maskz_loadu_ps(mask(v), b.add(k * g.ldb + 16 * v));
                }
                for (r, sr) in sum.iter_mut().enumerate() {
                    let av = _mm512_set1_ps(*a.add(r * g.lda + k));
                    for (s, &bv) in sr.iter_mut().zip(&bv) {
                        *s = _mm512_add_ps(*s, _mm512_mul_ps(av, bv));
                    }
                }
            }
        }
        for (r, sr) in sum.iter().enumerate() {
            for (v, &s) in sr.iter().enumerate() {
                // SAFETY: row `r < R` of `c`, masked as above.
                unsafe {
                    let p = c.add(r * g.ldc + 16 * v);
                    let out = _mm512_add_ps(_mm512_maskz_loadu_ps(mask(v), p), s);
                    _mm512_mask_storeu_ps(p, mask(v), out);
                }
            }
        }
    }
}

/// The micro-kernel's portable body, run by the AVX2 and portable paths
/// and for `f64`. Rows run two at a time and columns in blocks of 16, 4
/// and 1. Every output still sums the slab's `k` terms from zero in
/// ascending order and then adds the sum to `acc`, so the blocking changes
/// only instruction-level parallelism, never a bit of the result.
#[inline(always)]
fn panel_body<T: Scalar>(
    acc: &mut [T],
    wn: usize,
    (pa, pb): (&APanel<T>, &BPanel<T>),
    (row0, col0, k0): (usize, usize, usize),
    (rows, cols): (usize, usize),
    kk: usize,
) {
    if rows == 0 || cols == 0 {
        return;
    }
    debug_assert!(k0 + kk <= pa.kk && pa.kk == pb.kk && col0 + cols <= pb.cols);
    let a_row = |i: usize| &pa.a[(row0 + i) * pa.kk + k0..][..kk];
    let b = &pb.b[k0 * pb.cols + col0..];
    let mut i = 0;
    while i + 2 <= rows {
        let (c0, c1) = acc[i * wn..(i + 2) * wn].split_at_mut(wn);
        let out = [&mut c0[..cols], &mut c1[..cols]];
        row_block(out, [a_row(i), a_row(i + 1)], b, pb.cols);
        i += 2;
    }
    if i < rows {
        let out = [&mut acc[i * wn..i * wn + cols]];
        row_block(out, [a_row(i)], b, pb.cols);
    }
}

/// `R` output rows of [`panel_body`], walked in column blocks.
#[inline(always)]
fn row_block<T: Scalar, const R: usize>(mut out: [&mut [T]; R], a: [&[T]; R], b: &[T], ldb: usize) {
    let cols = out[0].len();
    let mut j = 0;
    while j + 16 <= cols {
        dot_block::<T, R, 16>(&mut out, &a, b, ldb, j);
        j += 16;
    }
    while j + 4 <= cols {
        dot_block::<T, R, 4>(&mut out, &a, b, ldb, j);
        j += 4;
    }
    while j < cols {
        dot_block::<T, R, 1>(&mut out, &a, b, ldb, j);
        j += 1;
    }
}

/// `R x W` independent dot-product chains:
/// `out[r][j+l] += Σ_k a[r][k] · b[k*ldb + j+l]`.
#[inline(always)]
fn dot_block<T: Scalar, const R: usize, const W: usize>(
    out: &mut [&mut [T]; R],
    a: &[&[T]; R],
    b: &[T],
    ldb: usize,
    j: usize,
) {
    let mut sum = [[T::ZERO; W]; R];
    for k in 0..a[0].len() {
        let brun: &[T; W] = b[k * ldb + j..k * ldb + j + W]
            .try_into()
            .expect("a W-wide run");
        for (sr, ar) in sum.iter_mut().zip(a) {
            let av = ar[k];
            for (sl, &bv) in sr.iter_mut().zip(brun) {
                *sl += av * bv;
            }
        }
    }
    for (o, sr) in out.iter_mut().zip(&sum) {
        for (ol, &sl) in o[j..j + W].iter_mut().zip(sr) {
            *ol += sl;
        }
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
        // wn = 9 exercises both the 4-wide blocked columns and the scalar
        // tail, wm = 5 the paired rows and the odd one; equality must be
        // bitwise, not approximate — the register blocking may not change
        // any output's accumulation order.
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

    /// Random slabs whose A rows from `live.0` and B rows from `live.1`
    /// are zero, run slab by slab through the fragment MMA and through
    /// panels staged from the live rows only, placed at an offset inside
    /// bigger panels: the panel slabs must equal the fragment MMA bit for
    /// bit on every live lane, leave padded lanes as they were, and charge
    /// the same.
    fn panel_matches_full<T: Scalar>(wm: usize, wn: usize, kk: usize) {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            T::from_f64((state >> 11) as f64 / (1u64 << 53) as f64 * 8.0 - 4.0)
        };
        let exec = FragmentMma::new::<T>(wm, wn);
        let (slabs, depth, at) = (3, 3 * kk, (2, 3));
        let extents = [(wm, wn), (0, wn), (wm, 0), (1, 1), (wm / 2 + 1, wn / 3 + 1)];
        for live in extents {
            let acc0: Vec<T> = (0..wm * wn).map(|_| draw()).collect();
            let mut full = acc0.clone();
            let c_full = Counters::new();
            // Panel rows of all three slabs side by side, behind `at`
            // leading rows that the warp does not own.
            let mut a_rows = vec![T::ZERO; (at.0 + live.0) * depth];
            let mut b_rows = vec![T::ZERO; (at.1 + live.1) * depth];
            a_rows.iter_mut().for_each(|v| *v = draw());
            b_rows.iter_mut().for_each(|v| *v = draw());
            for slab in 0..slabs {
                let frag = |rows: &[T], first: usize, live: usize, n: usize| -> Vec<T> {
                    (0..n * kk)
                        .map(|e| {
                            let (r, k) = (e / kk, e % kk);
                            if r < live {
                                rows[(first + r) * depth + slab * kk + k]
                            } else {
                                T::ZERO
                            }
                        })
                        .collect()
                };
                let a = frag(&a_rows, at.0, live.0, wm);
                let b = frag(&b_rows, at.1, live.1, wn);
                let site = MmaSite {
                    k_step: slab * kk,
                    ..site()
                };
                exec.mma(&mut full, &a, &b, kk, site, &NoFault, &c_full);
            }
            let (mut ap, mut bp) = (APanel::default(), BPanel::default());
            ap.stage(&a_rows, depth);
            bp.stage(&b_rows, depth);
            let mut got = acc0.clone();
            let c_panel = Counters::new();
            for slab in 0..slabs {
                let origin = (at.0, at.1, slab * kk);
                exec.mma_panel(&mut got, &ap, &bp, origin, live, kk, &c_panel);
            }
            for (e, ((&f, &g), &o)) in full.iter().zip(&got).zip(&acc0).enumerate() {
                let (i, j) = (e / wn, e % wn);
                if i < live.0 && j < live.1 {
                    assert_eq!(g.to_raw_u64(), f.to_raw_u64(), "{live:?} lane ({i}, {j})");
                } else {
                    assert_eq!(g.to_raw_u64(), o.to_raw_u64(), "{live:?} padded ({i}, {j})");
                    assert_eq!(f, o, "the full MMA adds only zeros to ({i}, {j})");
                }
            }
            assert_eq!(c_panel.snapshot(), c_full.snapshot(), "{live:?} counters");
        }
    }

    #[test]
    fn panel_mma_matches_full_mma_on_live_lanes() {
        // 8-deep slabs as the tensor kernel runs them, 80-deep ones, and
        // shapes that leave 4- and 1-wide column tails and an odd row.
        for kk in [8, 80] {
            panel_matches_full::<f32>(16, 24, kk);
            panel_matches_full::<f64>(8, 9, kk);
        }
        panel_matches_full::<f32>(64, 32, 8);
        panel_matches_full::<f64>(7, 21, 4);
    }

    /// Every path this host runs gives the portable micro-kernel's bits:
    /// random slabs with NaN, ±Inf and −0.0 among the inputs and the
    /// accumulators, on live corners, at the panel origin and at an offset
    /// inside bigger panels, and through [`FragmentMma::mma`]. The shapes
    /// reach every block of every path: AVX-512's 4×32 and 16-wide blocks,
    /// its masked column tails under 16 and row tails of 1–3, the portable
    /// body's 16-, 4- and 1-wide columns and odd rows, at depths 8 and 16
    /// as the tensor kernel runs them. A NaN result is NaN on every path,
    /// but its sign and payload depend on the operand order the compiler
    /// picked, so only its NaN-ness is compared.
    fn wide_paths_match_portable<T: Scalar>() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut draw = |specials: bool| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let pick = (state >> 59) as usize;
            let v = match pick {
                0 if specials => f64::NAN,
                1 if specials => f64::INFINITY,
                2 if specials => f64::NEG_INFINITY,
                3 | 4 => -0.0,
                _ => (state >> 11) as f64 / (1u64 << 53) as f64 * 16.0 - 8.0,
            };
            T::from_f64(v)
        };
        let paths: Vec<Isa> = Isa::ALL.into_iter().filter(|i| i.supported()).collect();
        assert!(paths.contains(&Isa::host()) && paths.contains(&Isa::Portable));
        let bits = |acc: &[T]| {
            let bits = |v: &T| (!v.to_f64().is_nan()).then(|| v.to_raw_u64());
            acc.iter().map(bits).collect::<Vec<_>>()
        };
        let shapes = [
            (5, 21, 8),
            (7, 37, 4),
            (1, 16, 3),
            (9, 53, 16),
            (64, 32, 8),
            (8, 64, 8),
            (7, 48, 16),
            (6, 45, 8),
            (3, 15, 16),
            (2, 31, 8),
            (1, 33, 16),
        ];
        for (wm, wn, kk) in shapes {
            let corners = [(wm, wn), (wm / 2 + 1, wn / 3 + 1), (1, 1), (wm, wn.min(17))];
            for at in [(0, 0, 0), (2, 3, kk)] {
                // One slab of depth `kk` at `at.2`, inside panels one slab
                // deeper on each side when `at` is off the origin.
                let depth = if at.2 == 0 { kk } else { 3 * kk };
                for (live, specials) in corners.into_iter().zip([false, true, true, false]) {
                    let a: Vec<T> = (0..(at.0 + live.0) * depth)
                        .map(|_| draw(specials))
                        .collect();
                    let b: Vec<T> = (0..(at.1 + live.1) * depth)
                        .map(|_| draw(specials))
                        .collect();
                    let acc0: Vec<T> = (0..wm * wn).map(|_| draw(specials)).collect();
                    let (mut ap, mut bp) = (APanel::default(), BPanel::default());
                    ap.stage(&a, depth);
                    bp.stage(&b, depth);
                    let run = |isa: Isa| {
                        let mut acc = acc0.clone();
                        panel_kernel(isa, &mut acc, wn, (&ap, &bp), at, live, kk);
                        bits(&acc)
                    };
                    let want = run(Isa::Portable);
                    for &isa in &paths {
                        let shape = format!("{wm}x{wn}x{kk} at {at:?} live {live:?}");
                        assert_eq!(run(isa), want, "{isa:?} {shape}");
                    }
                }
            }
            let a: Vec<T> = (0..wm * kk).map(|_| draw(true)).collect();
            let b: Vec<T> = (0..wn * kk).map(|_| draw(true)).collect();
            let acc0: Vec<T> = (0..wm * wn).map(|_| draw(false)).collect();
            let run = |isa: Isa| {
                let exec = FragmentMma {
                    isa,
                    ..FragmentMma::new::<T>(wm, wn)
                };
                let mut acc = acc0.clone();
                exec.mma(&mut acc, &a, &b, kk, site(), &NoFault, &Counters::new());
                bits(&acc)
            };
            let want = run(Isa::Portable);
            for &isa in &paths {
                assert_eq!(run(isa), want, "{isa:?} fragment MMA {wm}x{wn}x{kk}");
            }
        }
    }

    #[test]
    fn every_host_path_matches_the_portable_kernel_bitwise() {
        wide_paths_match_portable::<f32>();
        wide_paths_match_portable::<f64>();
        assert!(["avx512f", "avx2", "portable"].contains(&isa()));
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
}
