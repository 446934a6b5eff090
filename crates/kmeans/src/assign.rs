//! Assignment-stage results and variant dispatch.

use crate::config::Variant;
use crate::device_data::DeviceData;
use crate::variants;
use abft::SchemeKind;
use fault::CampaignStats;
use gpu_sim::mma::FaultHook;
use gpu_sim::timing::TileConfig;
use gpu_sim::{Counters, DeviceProfile, Precision, Scalar, SimError};
use parking_lot::Mutex;

/// Output of one distance/assignment pass.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignmentResult<T> {
    /// Nearest-centroid index per sample.
    pub labels: Vec<u32>,
    /// Squared distance to that centroid per sample.
    pub distances: Vec<T>,
}

impl<T: Scalar> AssignmentResult<T> {
    /// Sum of the squared distances (the inertia of this assignment).
    pub fn inertia(&self) -> f64 {
        self.distances.iter().map(|d| d.to_f64()).sum()
    }
}

/// Default tensor tile per precision — the strongest general-purpose
/// parameters from the paper's Table I (id 83 for FP32, id 19 for FP64).
pub fn default_tile(precision: Precision) -> TileConfig {
    match precision {
        Precision::Fp32 => TileConfig {
            tb_m: 64,
            tb_n: 128,
            tb_k: 16,
            wm: 64,
            wn: 32,
            k_stages: 3,
        },
        Precision::Fp64 => TileConfig {
            tb_m: 64,
            tb_n: 64,
            tb_k: 16,
            wm: 32,
            wn: 32,
            k_stages: 3,
        },
    }
}

/// Run the assignment stage with the chosen kernel variant.
///
/// Every label it returns is `< k`: a row whose argmin kept its `u32::MAX`
/// sentinel (all of its candidate distances NaN) is recomputed here with a
/// direct, hook-free `Σ(x − c)²` and counted as detected and recomputed in
/// `stats`.
#[allow(clippy::too_many_arguments)]
pub fn run_assignment<T: Scalar>(
    device: &DeviceProfile,
    data: &DeviceData<T>,
    variant: Variant,
    scheme: SchemeKind,
    hook: &dyn FaultHook<T>,
    counters: &Counters,
    stats: &Mutex<CampaignStats>,
) -> Result<AssignmentResult<T>, SimError> {
    let mut out = match variant {
        Variant::Naive => variants::naive::naive_assign(device, data, hook, counters),
        Variant::GemmV1 => variants::gemm::gemm_assign(device, data, hook, counters),
        Variant::FusedV2 => variants::fused::fused_assign(device, data, hook, counters),
        Variant::BroadcastV3 => variants::broadcast::broadcast_assign(device, data, hook, counters),
        Variant::Tensor(tile) => {
            let tile = tile.unwrap_or_else(|| default_tile(T::PRECISION));
            variants::tensor::tensor_assign(device, tile, data, scheme, hook, counters, stats)
        }
        // Prunes against the resident bound state when the driver allocated
        // it; stateless callers (predict, mini-batch) fall back to the full
        // naive-identical scan inside the kernel.
        Variant::Hamerly => variants::hamerly::hamerly_assign(device, data, false, hook, counters),
    }?;
    recompute_sentinel_rows(data, &mut out, counters, stats);
    Ok(out)
}

/// Recompute every row whose label is `≥ k`. Each kernel's argmin starts
/// from `(∞, u32::MAX)` and only a smaller distance replaces it, so a row
/// whose candidate distances are all NaN (an unprotected fault can make
/// them so) keeps the sentinel. Such a row gets a direct `Σ(x − c)²` scan
/// over the device buffers that calls no fault hook, with its loads charged
/// to `counters`, and counts in `stats` as one detected and recomputed
/// error. A clean pass pays one scan of the labels.
fn recompute_sentinel_rows<T: Scalar>(
    data: &DeviceData<T>,
    out: &mut AssignmentResult<T>,
    counters: &Counters,
    stats: &Mutex<CampaignStats>,
) {
    let (k, dim) = (data.k, data.dim);
    if out.labels.iter().all(|&l| (l as usize) < k) {
        return;
    }
    let (mut x, mut c) = (vec![T::ZERO; dim], vec![T::ZERO; dim]);
    let mut rows = 0;
    for (i, (label, dist)) in out.labels.iter_mut().zip(&mut out.distances).enumerate() {
        if (*label as usize) < k {
            continue;
        }
        data.samples.load_run(i * dim, &mut x, counters);
        for j in 0..k {
            data.centroids.load_run(j * dim, &mut c, counters);
            let mut d = T::ZERO;
            for (&a, &b) in x.iter().zip(&c) {
                let diff = a - b;
                d += diff * diff;
            }
            // `j == 0` seeds the scan, so even an all-NaN row gets a label.
            if j == 0 || d < *dist {
                (*label, *dist) = (j as u32, d);
            }
        }
        rows += 1;
    }
    let mut st = stats.lock();
    st.detected += rows;
    st.recomputed += rows;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_tiles_match_table1() {
        let t32 = default_tile(Precision::Fp32);
        assert_eq!((t32.tb_m, t32.tb_n, t32.tb_k), (64, 128, 16));
        assert_eq!((t32.wm, t32.wn), (64, 32));
        let t64 = default_tile(Precision::Fp64);
        assert_eq!((t64.tb_m, t64.tb_n, t64.tb_k), (64, 64, 16));
        assert_eq!((t64.wm, t64.wn), (32, 32));
    }

    #[test]
    fn inertia_sums_distances() {
        let r = AssignmentResult {
            labels: vec![0, 1],
            distances: vec![1.5f64, 2.5],
        };
        assert_eq!(r.inertia(), 4.0);
    }
}
