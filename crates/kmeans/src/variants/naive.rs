//! V0 — the naive baseline (§III-A1).
//!
//! "Each thread in this kernel handles a line in the sample matrix … loads
//! all centroids in the centroid matrix, calculates the Euclidean distance
//! between this sample and every centroid, and chooses the one with the
//! smallest distance." Every thread re-reads every centroid from global
//! memory — the cost this variant exists to demonstrate.

use crate::assign::AssignmentResult;
use crate::device_data::DeviceData;
use gpu_sim::mma::{FaultHook, MmaSite};
use gpu_sim::{
    launch_grid_labeled, Counters, DeviceProfile, Dim3, GlobalBuffer, LaunchConfig, Scalar,
    ScratchBuf, SimError,
};

/// Samples per threadblock.
const SAMPLES_PER_BLOCK: usize = 256;

/// Run the naive assignment kernel.
pub fn naive_assign<T: Scalar>(
    device: &DeviceProfile,
    data: &DeviceData<T>,
    hook: &dyn FaultHook<T>,
    counters: &Counters,
) -> Result<AssignmentResult<T>, SimError> {
    let (m, k, dim) = (data.m, data.k, data.dim);
    let labels = GlobalBuffer::<u32>::zeros(m);
    labels.set_sanitizer_label("naive.labels");
    let dists = GlobalBuffer::<T>::filled(m, T::INFINITY);
    dists.set_sanitizer_label("naive.dists");
    let grid = Dim3::x(m.div_ceil(SAMPLES_PER_BLOCK).max(1));
    let cfg = LaunchConfig {
        grid,
        threads_per_block: SAMPLES_PER_BLOCK,
        smem_bytes: 0,
    };

    launch_grid_labeled(device, cfg, counters, "naive_assign", |ctx| {
        let row0 = ctx.bx * SAMPLES_PER_BLOCK;
        let rows = SAMPLES_PER_BLOCK.min(m.saturating_sub(row0));
        if rows == 0 {
            return;
        }
        // Row scratch lives on the stack for typical dimensions — no
        // per-block heap allocation on the hot path.
        let mut x = ScratchBuf::<T, 256>::filled(dim, T::ZERO);
        let mut y = ScratchBuf::<T, 256>::filled(dim, T::ZERO);
        let mut best_d = [T::INFINITY; SAMPLES_PER_BLOCK];
        let mut best_j = [u32::MAX; SAMPLES_PER_BLOCK];
        for i in 0..rows {
            data.samples
                .load_run((row0 + i) * dim, &mut x, ctx.counters);
            let mut best = T::INFINITY;
            let mut best_idx = u32::MAX;
            for j in 0..k {
                // every thread re-reads the centroid row from global — the
                // per-sample re-read is the variant's defining cost; it now
                // moves as one contiguous run per centroid row
                data.centroids.load_run(j * dim, &mut y, ctx.counters);
                let mut acc = T::ZERO;
                for (&xv, &yv) in x.iter().zip(y.iter()) {
                    let diff = xv - yv;
                    acc += diff * diff;
                }
                ctx.counters.add_fma((2 * dim) as u64);
                let site = MmaSite {
                    block: (ctx.bx, 0),
                    warp: 0,
                    k_step: j,
                    is_checksum: false,
                };
                let acc = hook.post_fma(&site, acc);
                if acc < best || (acc == best && (j as u32) < best_idx) {
                    best = acc;
                    best_idx = j as u32;
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
    use gpu_sim::mma::NoFault;
    use gpu_sim::Matrix;

    #[test]
    fn matches_reference_assignment() {
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let samples = Matrix::<f64>::from_fn(97, 5, |r, c| ((r * 31 + c * 7) % 13) as f64 - 6.0);
        let cents = Matrix::<f64>::from_fn(6, 5, |r, c| ((r * 17 + c * 3) % 11) as f64 - 5.0);
        let data = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
        let out = naive_assign(&dev, &data, &NoFault, &c).unwrap();
        let (want_labels, want_dists) = assign_reference(&samples, &cents);
        assert_eq!(out.labels, want_labels);
        for (a, b) in out.distances.iter().zip(want_dists.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn centroids_reread_per_sample() {
        // The defining inefficiency: centroid traffic scales with M.
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let samples = Matrix::<f32>::zeros(64, 4);
        let cents = Matrix::<f32>::zeros(8, 4);
        let data = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
        let before = c.snapshot();
        let _ = naive_assign(&dev, &data, &NoFault, &c).unwrap();
        let delta = c.snapshot().since(&before);
        // 64 samples x (4 own + 8 centroids x 4) loads x 4 bytes
        assert_eq!(delta.bytes_loaded, 64 * (4 + 32) * 4);
    }
}
