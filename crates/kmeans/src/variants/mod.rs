//! The step-wise kernel variants of §III, lowest to highest performance.

pub mod broadcast;
pub mod fused;
pub mod gemm;
pub mod hamerly;
pub mod naive;
pub mod predict_fused;
pub mod tensor;

use gpu_sim::mma::{FaultHook, MmaSite};
use gpu_sim::shared::SharedTile;
use gpu_sim::{EventSink, GlobalBuffer, Scalar};

/// Fill a shared operand tile from global memory with zero-padding at the
/// problem edge, charging only in-bounds loads (cp.async zero-fill
/// semantics).
///
/// `row0` is the first global row; `k0` the first global column of the
/// K-slab; the backing matrix is `rows x cols` row-major in `global`.
///
/// Every in-bounds row moves as one contiguous run (`copy_from_slice` under
/// the hood) and the whole tile is charged as bulk transactions — byte
/// totals are identical to per-element charging.
pub(crate) fn fill_tile_from_global<T: Scalar, C: EventSink + ?Sized>(
    tile: &mut SharedTile<T>,
    global: &GlobalBuffer<T>,
    row0: usize,
    k0: usize,
    rows: usize,
    cols: usize,
    counters: &C,
) {
    let tile_rows = tile.rows();
    let mut loaded = 0u64;
    for r in 0..tile_rows {
        let gr = row0 + r;
        let dst = tile.row_mut(r);
        if gr < rows && k0 < cols {
            let run = dst.len().min(cols - k0);
            global.read_range(gr * cols + k0, &mut dst[..run]);
            dst[run..].fill(T::ZERO);
            loaded += run as u64;
        } else {
            dst.fill(T::ZERO);
        }
    }
    counters.add_loaded(loaded * std::mem::size_of::<T>() as u64);
}

/// Charge what [`fill_tile_from_global`] charges for a `tile_rows`-row,
/// `tile_cols`-column tile, and show the sanitizer the same loads, without
/// copying: for a kernel that reads the values from a copy staged once per
/// launch.
pub(crate) fn charge_tile_from_global<T: Scalar, C: EventSink + ?Sized>(
    (tile_rows, tile_cols): (usize, usize),
    global: &GlobalBuffer<T>,
    row0: usize,
    k0: usize,
    rows: usize,
    cols: usize,
    counters: &C,
) {
    if k0 >= cols {
        return;
    }
    let run = tile_cols.min(cols - k0);
    for gr in row0..(row0 + tile_rows).min(rows) {
        global.charge_run(gr * cols + k0, run, counters);
    }
}

/// SIMT threadblock GEMM slab: `acc[i][j] += Σ_k a[i][k]·b[j][k]` over the
/// shared tiles' first `kk` columns, for the `tm x tn` active sub-tile of an
/// accumulator laid out row-major with row stride `stride`. Fault hook
/// applied at slab granularity (over the full accumulator, as before); FMA
/// count charged in bulk.
///
/// The micro-kernel is register-blocked four output columns wide over
/// contiguous tile-row slices; each output still accumulates its k terms in
/// ascending order, so results are bitwise identical to the scalar triple
/// loop.
#[allow(clippy::too_many_arguments)]
pub(crate) fn simt_block_gemm<T: Scalar, C: EventSink + ?Sized>(
    acc: &mut [T],
    a: &SharedTile<T>,
    b: &SharedTile<T>,
    tm: usize,
    tn: usize,
    stride: usize,
    kk: usize,
    site: MmaSite,
    hook: &dyn FaultHook<T>,
    counters: &C,
) {
    debug_assert!(tn <= stride);
    debug_assert!(tm == 0 || acc.len() >= (tm - 1) * stride + tn);
    for i in 0..tm {
        let arow = &a.row(i)[..kk];
        let crow = &mut acc[i * stride..i * stride + tn];
        let mut j = 0;
        while j + 4 <= tn {
            let b0 = &b.row(j)[..kk];
            let b1 = &b.row(j + 1)[..kk];
            let b2 = &b.row(j + 2)[..kk];
            let b3 = &b.row(j + 3)[..kk];
            let (mut s0, mut s1, mut s2, mut s3) = (T::ZERO, T::ZERO, T::ZERO, T::ZERO);
            for (k, &av) in arow.iter().enumerate() {
                s0 += av * b0[k];
                s1 += av * b1[k];
                s2 += av * b2[k];
                s3 += av * b3[k];
            }
            crow[j] += s0;
            crow[j + 1] += s1;
            crow[j + 2] += s2;
            crow[j + 3] += s3;
            j += 4;
        }
        while j < tn {
            let brow = &b.row(j)[..kk];
            let mut sum = T::ZERO;
            for (k, &av) in arow.iter().enumerate() {
                sum += av * brow[k];
            }
            crow[j] += sum;
            j += 1;
        }
    }
    counters.add_fma((tm * tn * kk) as u64);
    hook.post_mma(&site, acc, stride);
}

/// Row-minimum epilogue over a block's accumulator tile: for every valid
/// row, find the nearest centroid among the block's valid columns using
/// `dist = ‖x‖² + ‖y‖² − 2·(x·y)`, writing `(distance, global column)`
/// pairs into `out`. The norm vectors arrive as slices the caller already
/// staged (bulk loads, charged at the call site); this routine charges the
/// epilogue FMA work.
pub(crate) fn block_row_min<T: Scalar, C: EventSink + ?Sized>(
    acc: &[T],
    stride: usize,
    xn: &[T],
    yn: &[T],
    col0: usize,
    out: &mut [(T, u32)],
    counters: &C,
) {
    debug_assert_eq!(out.len(), xn.len());
    let two = T::ONE + T::ONE;
    for (i, (&x, slot)) in xn.iter().zip(out.iter_mut()).enumerate() {
        let row = &acc[i * stride..i * stride + yn.len()];
        let mut best = T::INFINITY;
        let mut best_j = u32::MAX;
        for (j, (&y, &xy)) in yn.iter().zip(row.iter()).enumerate() {
            let d = x + y - two * xy;
            if d < best || (d == best && ((col0 + j) as u32) < best_j) {
                best = d;
                best_j = (col0 + j) as u32;
            }
        }
        *slot = (best, best_j);
    }
    counters.add_fma((xn.len() * yn.len() * 2) as u64);
}

/// V2/V3 epilogue entry: stage the block's norm vectors as bulk runs —
/// sample norms counted, centroid norms broadcast/uncounted, the exact
/// charging contract of the per-element path — then compute the row minima
/// over the `rows x cols` valid sub-tile of a stride-`TB_N` accumulator.
/// `out` receives `rows` `(distance, global column)` pairs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn staged_block_row_min<T: Scalar, C: EventSink + ?Sized>(
    acc: &[T],
    sample_norms: &GlobalBuffer<T>,
    centroid_norms: &GlobalBuffer<T>,
    row0: usize,
    rows: usize,
    col0: usize,
    cols: usize,
    out: &mut [(T, u32)],
    counters: &C,
) {
    use gemm::{TB_M, TB_N};
    debug_assert!(rows <= TB_M && cols <= TB_N);
    let mut xn = [T::ZERO; TB_M];
    sample_norms.load_run(row0, &mut xn[..rows], counters);
    let mut yn = [T::ZERO; TB_N];
    centroid_norms.read_range(col0, &mut yn[..cols]);
    block_row_min(acc, TB_N, &xn[..rows], &yn[..cols], col0, out, counters);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::mma::NoFault;
    use gpu_sim::Counters;

    #[test]
    fn tile_fill_pads_with_zero_and_charges_inbounds_only() {
        let c = Counters::new();
        let global = GlobalBuffer::<f32>::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]); // 3x2
        let mut tile = SharedTile::<f32>::new(2, 3);
        fill_tile_from_global(&mut tile, &global, 2, 0, 3, 2, &c);
        // global row 2 = [5,6]; row 3 doesn't exist; col 2 doesn't exist
        assert_eq!(tile.get(0, 0), 5.0);
        assert_eq!(tile.get(0, 1), 6.0);
        assert_eq!(tile.get(0, 2), 0.0);
        assert_eq!(tile.get(1, 0), 0.0);
        assert_eq!(c.snapshot().bytes_loaded, 2 * 4);
    }

    #[test]
    fn tile_fill_bulk_charges_equal_per_element_accounting() {
        // The bulk tile fill, and the charge-only one, must charge exactly
        // what a per-element `load_counted` walk of the same in-bounds
        // region would.
        let (rows, cols) = (5, 7);
        let global = GlobalBuffer::<f64>::from_slice(
            &(0..rows * cols).map(|i| i as f64).collect::<Vec<_>>(),
        );
        for (row0, k0) in [(0, 0), (2, 3), (4, 6), (3, 5)] {
            let bulk = Counters::new();
            let mut tile = SharedTile::<f64>::new(3, 4);
            fill_tile_from_global(&mut tile, &global, row0, k0, rows, cols, &bulk);

            let per_elem = Counters::new();
            let mut want = SharedTile::<f64>::new(3, 4);
            for r in 0..3 {
                for c in 0..4 {
                    let (gr, gc) = (row0 + r, k0 + c);
                    let v = if gr < rows && gc < cols {
                        global.load_counted(gr * cols + gc, &per_elem)
                    } else {
                        0.0
                    };
                    want.set(r, c, v);
                }
            }
            assert_eq!(bulk.snapshot(), per_elem.snapshot(), "at ({row0},{k0})");
            assert_eq!(tile.as_slice(), want.as_slice());
            let charged = Counters::new();
            charge_tile_from_global((3, 4), &global, row0, k0, rows, cols, &charged);
            assert_eq!(
                charged.snapshot(),
                bulk.snapshot(),
                "charge-only ({row0},{k0})"
            );
        }
    }

    #[test]
    fn simt_gemm_matches_reference() {
        let c = Counters::new();
        let mut a = SharedTile::<f64>::new(2, 3);
        let mut b = SharedTile::<f64>::new(2, 3);
        for k in 0..3 {
            a.set(0, k, (k + 1) as f64);
            a.set(1, k, 1.0);
            b.set(0, k, 2.0);
            b.set(1, k, (k as f64) - 1.0);
        }
        let mut acc = vec![0.0f64; 4];
        let site = MmaSite {
            block: (0, 0),
            warp: 0,
            k_step: 0,
            is_checksum: false,
        };
        simt_block_gemm(&mut acc, &a, &b, 2, 2, 2, 3, site, &NoFault, &c);
        // row0: [1,2,3]·[2,2,2]=12 ; [1,2,3]·[-1,0,1]=2
        // row1: [1,1,1]·[2,2,2]=6  ; [1,1,1]·[-1,0,1]=0
        assert_eq!(acc, vec![12.0, 2.0, 6.0, 0.0]);
        assert_eq!(c.snapshot().fma_ops, 12);
    }

    #[test]
    fn simt_gemm_active_subtile_with_wider_stride() {
        // tm x tn = 2x2 active region inside a stride-3 accumulator: the
        // padding column must stay untouched.
        let c = Counters::new();
        let mut a = SharedTile::<f64>::new(2, 2);
        let mut b = SharedTile::<f64>::new(3, 2);
        for k in 0..2 {
            a.set(0, k, 1.0);
            a.set(1, k, 2.0);
            b.set(0, k, 1.0);
            b.set(1, k, (k + 1) as f64);
            b.set(2, k, 100.0); // column outside the active region
        }
        let mut acc = vec![0.0f64; 6];
        let site = MmaSite {
            block: (0, 0),
            warp: 0,
            k_step: 0,
            is_checksum: false,
        };
        simt_block_gemm(&mut acc, &a, &b, 2, 2, 3, 2, site, &NoFault, &c);
        assert_eq!(acc, vec![2.0, 3.0, 0.0, 4.0, 6.0, 0.0]);
        assert_eq!(c.snapshot().fma_ops, 2 * 2 * 2);
    }

    #[test]
    fn simt_gemm_register_blocking_is_bitwise_identical_to_scalar_loop() {
        // 11 columns exercise both the 4-wide blocked loop and the tail.
        let (tm, tn, kk) = (3, 11, 9);
        let mut a = SharedTile::<f32>::new(tm, kk);
        let mut b = SharedTile::<f32>::new(tn, kk);
        for i in 0..tm {
            for k in 0..kk {
                a.set(i, k, ((i * 31 + k * 7) as f32 * 0.123).sin());
            }
        }
        for j in 0..tn {
            for k in 0..kk {
                b.set(j, k, ((j * 13 + k * 3) as f32 * 0.456).cos());
            }
        }
        let mut want = vec![0.0f32; tm * tn];
        for i in 0..tm {
            for j in 0..tn {
                let mut sum = 0.0f32;
                for k in 0..kk {
                    sum += a.get(i, k) * b.get(j, k);
                }
                want[i * tn + j] += sum;
            }
        }
        let c = Counters::new();
        let mut acc = vec![0.0f32; tm * tn];
        let site = MmaSite {
            block: (0, 0),
            warp: 0,
            k_step: 0,
            is_checksum: false,
        };
        simt_block_gemm(&mut acc, &a, &b, tm, tn, tn, kk, site, &NoFault, &c);
        for (got, want) in acc.iter().zip(want.iter()) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn row_min_uses_norm_identity() {
        let c = Counters::new();
        // x = (1,0); centroids y0 = (1,0), y1 = (0,2)
        // products: x·y0 = 1, x·y1 = 0
        let acc = vec![1.0f64, 0.0];
        let mut out = [(0.0f64, 0u32); 1];
        block_row_min(&acc, 2, &[1.0], &[1.0, 4.0], 0, &mut out, &c);
        // d0 = 1+1-2 = 0 ; d1 = 1+4-0 = 5
        assert_eq!(out, [(0.0, 0)]);
    }

    #[test]
    fn row_min_ties_break_low_index() {
        let c = Counters::new();
        let acc = vec![0.0f32, 0.0];
        let mut out = [(0.0f32, 0u32); 1];
        block_row_min(&acc, 2, &[0.0], &[1.0, 1.0], 0, &mut out, &c);
        assert_eq!(out[0].1, 0);
    }
}
