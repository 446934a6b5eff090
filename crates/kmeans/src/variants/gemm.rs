//! V1 — GEMM-based K-means (§III-A2).
//!
//! The distance is decomposed as `‖x‖² + ‖y‖² − 2·x·y`; the cross term is a
//! GEMM whose result matrix is written back to global memory, then a second
//! kernel reduces each row to find the nearest centroid. The write-back +
//! re-read of the full `M x K` product matrix is the cost V2/V3 remove.

use crate::assign::AssignmentResult;
use crate::device_data::DeviceData;
use crate::variants::{fill_tile_from_global, simt_block_gemm};
use gpu_sim::mma::{FaultHook, MmaSite};
use gpu_sim::shared::SharedTile;
use gpu_sim::{
    launch_grid_labeled, Counters, DeviceProfile, Dim3, GlobalBuffer, LaunchConfig, Scalar,
    ScratchBuf, SimError,
};

/// SIMT threadblock tile (fixed for the hand-written V1–V3 kernels).
pub(crate) const TB_M: usize = 64;
pub(crate) const TB_N: usize = 64;
pub(crate) const TB_K: usize = 16;

/// Rows per block in the reduction kernel.
const REDUCE_ROWS_PER_BLOCK: usize = 256;

/// The shared SIMT GEMM used by V1/V2/V3: computes the `x·y` product tile
/// per block and hands it to `epilogue(ctx, tile_acc, row0, rows, col0,
/// cols)`.
pub(crate) fn simt_gemm_driver<T: Scalar>(
    device: &DeviceProfile,
    data: &DeviceData<T>,
    hook: &dyn FaultHook<T>,
    counters: &Counters,
    epilogue: impl Fn(&gpu_sim::BlockCtx, &[T], usize, usize, usize, usize) + Sync,
) -> Result<(), SimError> {
    let (m, k, dim) = (data.m, data.k, data.dim);
    let bm = m.div_ceil(TB_M);
    let bn = k.div_ceil(TB_N);
    let grid = Dim3::xy(bn.max(1), bm.max(1));
    let smem = 2 * (TB_M + TB_N) * TB_K * std::mem::size_of::<T>();
    let cfg = LaunchConfig {
        grid,
        threads_per_block: 256,
        smem_bytes: smem,
    };

    launch_grid_labeled(device, cfg, counters, "simt_gemm", |ctx| {
        let row0 = ctx.by * TB_M;
        let col0 = ctx.bx * TB_N;
        let rows = TB_M.min(m.saturating_sub(row0));
        let cols = TB_N.min(k.saturating_sub(col0));
        if rows == 0 || cols == 0 {
            return;
        }
        let mut a_tile = SharedTile::<T>::new(TB_M, TB_K);
        let mut b_tile = SharedTile::<T>::new(TB_N, TB_K);
        // Register/local accumulator: fixed-size (no per-block heap
        // allocation), zeroed once and reused across every k-step.
        let mut acc = [T::ZERO; TB_M * TB_N];
        let mut k0 = 0;
        while k0 < dim {
            let kk = TB_K.min(dim - k0);
            fill_tile_from_global(&mut a_tile, &data.samples, row0, k0, m, dim, ctx.counters);
            fill_tile_from_global(&mut b_tile, &data.centroids, col0, k0, k, dim, ctx.counters);
            ctx.barrier();
            let site = MmaSite {
                block: (ctx.by, ctx.bx),
                warp: 0,
                k_step: k0,
                is_checksum: false,
            };
            // Only the rows x cols sub-tile is valid output (the zero-padded
            // remainder would accumulate exact zeros); restricting the
            // micro-kernel to it skips the padding waste that made edge-heavy
            // shapes (k << TB_N) pay the full-tile cost.
            simt_block_gemm(
                &mut acc,
                &a_tile,
                &b_tile,
                rows,
                cols,
                TB_N,
                kk,
                site,
                hook,
                ctx.counters,
            );
            ctx.barrier();
            k0 += TB_K;
        }
        epilogue(ctx, &acc, row0, rows, col0, cols);
    })
}

/// Run the V1 assignment: GEMM → full product write-back → reduction kernel.
pub fn gemm_assign<T: Scalar>(
    device: &DeviceProfile,
    data: &DeviceData<T>,
    hook: &dyn FaultHook<T>,
    counters: &Counters,
) -> Result<AssignmentResult<T>, SimError> {
    let (m, k) = (data.m, data.k);
    // Kernel 1: GEMM, product matrix stored to global (the V1 tax). Each
    // accumulator row writes back as one contiguous run. The allocation is
    // deliberately uninitialized (plain `cudaMalloc` semantics): the GEMM
    // must cover every cell before the reduction reads it, and
    // `FTK_SANITIZE=init` proves that it does.
    let product = GlobalBuffer::<T>::uninit(m * k);
    product.set_sanitizer_label("gemm.product");
    simt_gemm_driver(
        device,
        data,
        hook,
        counters,
        |ctx, acc, row0, rows, col0, cols| {
            for i in 0..rows {
                product.store_run(
                    (row0 + i) * k + col0,
                    &acc[i * TB_N..i * TB_N + cols],
                    ctx.counters,
                );
            }
        },
    )?;

    // Kernel 2: row-wise reduction over the product matrix, streaming one
    // product row per step through block-local scratch.
    let labels = GlobalBuffer::<u32>::zeros(m);
    labels.set_sanitizer_label("gemm.labels");
    let dists = GlobalBuffer::<T>::filled(m, T::INFINITY);
    dists.set_sanitizer_label("gemm.dists");
    let grid = Dim3::x(m.div_ceil(REDUCE_ROWS_PER_BLOCK).max(1));
    let cfg = LaunchConfig {
        grid,
        threads_per_block: 256,
        smem_bytes: 0,
    };
    let two = T::ONE + T::ONE;
    launch_grid_labeled(device, cfg, counters, "gemm_reduce", |ctx| {
        let row0 = ctx.bx * REDUCE_ROWS_PER_BLOCK;
        let rows = REDUCE_ROWS_PER_BLOCK.min(m.saturating_sub(row0));
        if rows == 0 {
            return;
        }
        // Centroid norms are broadcast to every block (uncounted, as on the
        // per-element path); the product row streams through scratch.
        let mut yn = ScratchBuf::<T, 256>::filled(k, T::ZERO);
        data.centroid_norms.read_range(0, &mut yn);
        let mut prod = ScratchBuf::<T, 256>::filled(k, T::ZERO);
        let mut best_d = [T::INFINITY; REDUCE_ROWS_PER_BLOCK];
        let mut best_j = [u32::MAX; REDUCE_ROWS_PER_BLOCK];
        let mut xn = [T::ZERO; REDUCE_ROWS_PER_BLOCK];
        data.sample_norms
            .load_run(row0, &mut xn[..rows], ctx.counters);
        for i in 0..rows {
            product.load_run((row0 + i) * k, &mut prod, ctx.counters);
            let mut best = T::INFINITY;
            let mut best_idx = u32::MAX;
            for (j, (&xy, &y)) in prod.iter().zip(yn.iter()).enumerate() {
                let d = xn[i] + y - two * xy;
                if d < best || (d == best && (j as u32) < best_idx) {
                    best = d;
                    best_idx = j as u32;
                }
            }
            ctx.counters.add_fma((2 * k) as u64);
            best_d[i] = best;
            best_j[i] = best_idx;
        }
        labels.write_range(row0, &best_j[..rows]);
        dists.store_run(row0, &best_d[..rows], ctx.counters);
    })?;

    Ok(AssignmentResult {
        labels: labels.to_vec(),
        distances: dists.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::assign_reference;
    use gpu_sim::mma::NoFault;
    use gpu_sim::Matrix;

    #[test]
    fn matches_reference_on_odd_shapes() {
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        // sizes deliberately not multiples of the tile
        let samples =
            Matrix::<f64>::from_fn(130, 19, |r, c| ((r * 7 + c * 13) % 23) as f64 * 0.5 - 5.0);
        let cents =
            Matrix::<f64>::from_fn(70, 19, |r, c| ((r * 11 + c * 5) % 19) as f64 * 0.5 - 4.0);
        let data = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
        let out = gemm_assign(&dev, &data, &NoFault, &c).unwrap();
        let (want, want_d) = assign_reference(&samples, &cents);
        assert_eq!(out.labels, want);
        for (a, b) in out.distances.iter().zip(want_d.iter()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn writes_product_matrix_to_global() {
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let samples = Matrix::<f32>::zeros(64, 8);
        let cents = Matrix::<f32>::zeros(64, 8);
        let data = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
        let before = c.snapshot();
        let _ = gemm_assign(&dev, &data, &NoFault, &c).unwrap();
        let delta = c.snapshot().since(&before);
        // the defining V1 traffic: 64*64 product elements written AND re-read
        let product_bytes = (64 * 64 * 4) as u64;
        assert!(delta.bytes_stored >= product_bytes);
        assert!(delta.bytes_loaded >= product_bytes);
        assert_eq!(delta.kernel_launches, 2, "GEMM + reduction");
    }
}
