//! V2 — kernel fusion at thread and threadblock level (§III-A3).
//!
//! The row-minimum over each block's tile is computed *inside* the GEMM
//! kernel; only one partial (distance, index) pair per (row, block-column)
//! reaches global memory — `TB_N/K` of V1's reduction traffic. A small
//! second kernel folds the per-block partials.

use crate::assign::AssignmentResult;
use crate::device_data::DeviceData;
use crate::variants::gemm::{simt_gemm_driver, TB_M, TB_N};
use crate::variants::staged_block_row_min;
use gpu_sim::mma::FaultHook;
use gpu_sim::{
    launch_grid_labeled, Counters, DeviceProfile, Dim3, GlobalBuffer, LaunchConfig, Scalar,
    ScratchBuf, SimError,
};

/// Rows per block in the partial-fold kernel.
const FOLD_ROWS_PER_BLOCK: usize = 256;

/// Run the V2 assignment: fused GEMM+row-min, then fold partials.
pub fn fused_assign<T: Scalar>(
    device: &DeviceProfile,
    data: &DeviceData<T>,
    hook: &dyn FaultHook<T>,
    counters: &Counters,
) -> Result<AssignmentResult<T>, SimError> {
    let (m, k) = (data.m, data.k);
    let bn = k.div_ceil(TB_N).max(1);

    // Per-(row, block-column) partial results.
    let part_dist = GlobalBuffer::<T>::filled(m * bn, T::INFINITY);
    part_dist.set_sanitizer_label("fused.part_dist");
    let part_idx = GlobalBuffer::<u32>::zeros(m * bn);
    part_idx.set_sanitizer_label("fused.part_idx");
    part_idx.fill(u32::MAX);

    simt_gemm_driver(
        device,
        data,
        hook,
        counters,
        |ctx, acc, row0, rows, col0, cols| {
            let mut mins = [(T::INFINITY, u32::MAX); TB_M];
            staged_block_row_min(
                acc,
                &data.sample_norms,
                &data.centroid_norms,
                row0,
                rows,
                col0,
                cols,
                &mut mins[..rows],
                ctx.counters,
            );
            // thread 0 writes the block's partial answers (Fig. 2 step 2)
            for (i, &(d, j)) in mins[..rows].iter().enumerate() {
                let slot = (row0 + i) * bn + ctx.bx;
                part_dist.store_counted(slot, d, ctx.counters);
                // Index traffic is not byte-counted by design (see
                // `gpu_sim::memory`). ftk-lint: allow(raw-access)
                part_idx.store(slot, j);
            }
        },
    )?;

    // Fold the bn partials per row.
    let labels = GlobalBuffer::<u32>::zeros(m);
    labels.set_sanitizer_label("fused.labels");
    let dists = GlobalBuffer::<T>::filled(m, T::INFINITY);
    dists.set_sanitizer_label("fused.dists");
    let grid = Dim3::x(m.div_ceil(FOLD_ROWS_PER_BLOCK).max(1));
    let cfg = LaunchConfig {
        grid,
        threads_per_block: 256,
        smem_bytes: 0,
    };
    launch_grid_labeled(device, cfg, counters, "fused_assign", |ctx| {
        let row0 = ctx.bx * FOLD_ROWS_PER_BLOCK;
        let rows = FOLD_ROWS_PER_BLOCK.min(m.saturating_sub(row0));
        if rows == 0 {
            return;
        }
        // Each row's bn partials are contiguous: stream them as runs.
        let mut pd = ScratchBuf::<T, 64>::filled(bn, T::ZERO);
        let mut pj = ScratchBuf::<u32, 64>::filled(bn, 0);
        let mut best_d = [T::INFINITY; FOLD_ROWS_PER_BLOCK];
        let mut best_j = [u32::MAX; FOLD_ROWS_PER_BLOCK];
        for i in 0..rows {
            part_dist.load_run((row0 + i) * bn, &mut pd, ctx.counters);
            part_idx.read_range((row0 + i) * bn, &mut pj);
            let mut best = T::INFINITY;
            let mut best_idx = u32::MAX;
            for (&d, &j) in pd.iter().zip(pj.iter()) {
                if d < best || (d == best && j < best_idx) {
                    best = d;
                    best_idx = j;
                }
            }
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
    use crate::variants::gemm::gemm_assign;
    use gpu_sim::mma::NoFault;
    use gpu_sim::Matrix;

    #[test]
    fn matches_reference_and_v1() {
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let samples = Matrix::<f64>::from_fn(150, 9, |r, c| ((r * 5 + c * 3) % 17) as f64 - 8.0);
        let cents = Matrix::<f64>::from_fn(130, 9, |r, c| ((r * 3 + c * 7) % 13) as f64 - 6.0);
        let data = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
        let v2 = fused_assign(&dev, &data, &NoFault, &c).unwrap();
        let v1 = gemm_assign(&dev, &data, &NoFault, &c).unwrap();
        let (want, _) = assign_reference(&samples, &cents);
        assert_eq!(v2.labels, want);
        assert_eq!(v2.labels, v1.labels);
    }

    #[test]
    fn writes_less_than_v1() {
        let dev = DeviceProfile::a100();
        let c1 = Counters::new();
        let c2 = Counters::new();
        let samples = Matrix::<f32>::from_fn(256, 16, |r, c| ((r + c) % 7) as f32);
        let cents = Matrix::<f32>::from_fn(256, 16, |r, c| ((r * c) % 5) as f32);
        let d1 = DeviceData::upload(&dev, &samples, &cents, &c1).unwrap();
        let d2 = DeviceData::upload(&dev, &samples, &cents, &c2).unwrap();
        let b1 = c1.snapshot();
        let b2 = c2.snapshot();
        let _ = gemm_assign(&dev, &d1, &NoFault, &c1).unwrap();
        let _ = fused_assign(&dev, &d2, &NoFault, &c2).unwrap();
        let v1 = c1.snapshot().since(&b1);
        let v2 = c2.snapshot().since(&b2);
        assert!(
            v2.bytes_stored < v1.bytes_stored / 4,
            "fusion must slash store traffic: v1={} v2={}",
            v1.bytes_stored,
            v2.bytes_stored
        );
    }
}
