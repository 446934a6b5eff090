//! V3 — threadblock-level broadcast (§III-A4).
//!
//! The per-block partial minima are merged directly into a global result
//! ("each threadblock needs to acquire the lock of a row before changing the
//! assignment answer"), removing V2's second kernel entirely. Each merge is
//! charged as the paper's atomic, but lands as a plain store in its column
//! block's own slot ([`ArgminSlots`]); the host folds the column blocks in
//! order after the launch.

use crate::assign::AssignmentResult;
use crate::device_data::DeviceData;
use crate::variants::gemm::{simt_gemm_driver, TB_M, TB_N};
use crate::variants::staged_block_row_min;
use gpu_sim::atomics::ArgminSlots;
use gpu_sim::mma::FaultHook;
use gpu_sim::{Counters, DeviceProfile, Scalar, SimError};

/// Run the V3 assignment: fully fused GEMM + row-min + atomic broadcast.
pub fn broadcast_assign<T: Scalar>(
    device: &DeviceProfile,
    data: &DeviceData<T>,
    hook: &dyn FaultHook<T>,
    counters: &Counters,
) -> Result<AssignmentResult<T>, SimError> {
    let slots = ArgminSlots::<T>::new(data.m, data.k.div_ceil(TB_N));
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
            for (i, &(d, j)) in mins[..rows].iter().enumerate() {
                slots.put(ctx.bx, row0 + i, d, j, ctx.counters);
            }
        },
    )?;
    let (distances, labels) = slots.reduce();
    Ok(AssignmentResult { labels, distances })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::assign_reference;
    use gpu_sim::mma::NoFault;
    use gpu_sim::Matrix;

    /// The kernel computes distances via `‖x‖²+‖y‖²−2x·y`, the reference via
    /// `Σ(x−y)²`; under exact ties the two can round to different winners,
    /// so equivalence is judged on the achieved distance, not the index.
    fn assert_assignment_equivalent(
        samples: &Matrix<f64>,
        cents: &Matrix<f64>,
        got: &[u32],
        tol: f64,
    ) {
        let (_, want_d) = assign_reference(samples, cents);
        for i in 0..samples.rows() {
            let j = got[i] as usize;
            let d: f64 = samples
                .row(i)
                .iter()
                .zip(cents.row(j).iter())
                .map(|(&a, &b)| (a - b) * (a - b))
                .sum();
            assert!(
                (d - want_d[i]).abs() <= tol * (1.0 + want_d[i].abs()),
                "sample {i}: chose centroid {j} at {d}, best is {}",
                want_d[i]
            );
        }
    }

    #[test]
    fn matches_reference() {
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let samples = Matrix::<f64>::from_fn(200, 6, |r, c| ((r * 13 + c) % 29) as f64 * 0.3);
        let cents = Matrix::<f64>::from_fn(150, 6, |r, c| ((r + c * 17) % 31) as f64 * 0.3);
        let data = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
        let out = broadcast_assign(&dev, &data, &NoFault, &c).unwrap();
        assert_assignment_equivalent(&samples, &cents, &out.labels, 1e-9);
    }

    #[test]
    fn single_kernel_launch_with_atomics() {
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let samples = Matrix::<f32>::zeros(128, 8);
        let cents = Matrix::<f32>::zeros(128, 8);
        let data = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
        let before = c.snapshot();
        let _ = broadcast_assign(&dev, &data, &NoFault, &c).unwrap();
        let delta = c.snapshot().since(&before);
        assert_eq!(delta.kernel_launches, 1, "no separate reduction kernel");
        assert!(delta.atomic_ops > 0, "broadcast merges are atomic");
    }

    #[test]
    fn f32_matches_reference_small() {
        let dev = DeviceProfile::t4();
        let c = Counters::new();
        let samples = Matrix::<f32>::from_fn(66, 3, |r, c| (r as f32 * 0.1) - (c as f32));
        let cents = Matrix::<f32>::from_fn(5, 3, |r, c| (r as f32) - (c as f32 * 0.2));
        let data = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
        let out = broadcast_assign(&dev, &data, &NoFault, &c).unwrap();
        let (_, want_d) = assign_reference(&samples, &cents);
        // f32 rounding differs between the two distance formulas; judge on
        // achieved distance.
        for (i, &lbl) in out.labels.iter().enumerate() {
            let j = lbl as usize;
            let d: f32 = samples
                .row(i)
                .iter()
                .zip(cents.row(j).iter())
                .map(|(&a, &b)| (a - b) * (a - b))
                .sum();
            assert!((d - want_d[i]).abs() <= 1e-3 * (1.0 + want_d[i].abs()));
        }
    }
}
