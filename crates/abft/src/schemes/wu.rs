//! Wu et al.'s fully-fused ABFT-GEMM (ICS'23): **threadblock-level**
//! checksums whose input encodings piggyback on the global→register→shared
//! staging path ("register reusing", paper Fig. 1 / §II-C).
//!
//! On pre-Ampere devices the staging observation is free. On Ampere,
//! `cp.async` bypasses the register file, so the only way to obtain the
//! input sums is to **re-read the operand tiles** — the kernel charges
//! those loads to `Counters::ft_extra_loads` and the timing model bills the
//! corresponding DRAM traffic and the threadblock-wide reduction
//! synchronization.

use crate::checksum::ChecksumTriple;
use crate::correct::correct_in_place;
use crate::detect::compare;
use crate::locate::{locate, Located};
use crate::online::CheckOutcome;
use crate::threshold::ThresholdPolicy;
use gpu_sim::counters::EventSink;
use gpu_sim::shared::SharedTile;
use gpu_sim::warp::frag_col_sums;
use gpu_sim::{Precision, Scalar, ScratchBuf};

/// Threadblock-level online ABFT state for Wu's scheme.
#[derive(Debug, Clone)]
pub struct WuBlockState<T> {
    reference: ChecksumTriple<T>,
    tb_m: usize,
    tb_n: usize,
    policy: ThresholdPolicy,
}

impl<T: Scalar> WuBlockState<T> {
    /// Fresh state for a `tb_m x tb_n` threadblock output tile.
    pub fn new(tb_m: usize, tb_n: usize, precision: Precision) -> Self {
        WuBlockState {
            reference: ChecksumTriple::zero(),
            tb_m,
            tb_n,
            policy: ThresholdPolicy::for_precision(precision),
        }
    }

    /// Current reference (test introspection).
    pub fn reference(&self) -> &ChecksumTriple<T> {
        &self.reference
    }

    /// Absorb one staged K-slab's operand tiles into the block-level
    /// checksums. The caller decides how the tile data was obtained:
    /// observed during a register-staged copy (free on Turing) or re-read
    /// from global memory (Ampere — charge
    /// [`gpu_sim::Counters::add_ft_extra_loads`] before calling).
    ///
    /// This is a threadblock-wide reduction: all warps must synchronize
    /// before the sums are complete, which is the synchronization cost the
    /// paper eliminates (§V-D: "60% improvement due to the elimination of
    /// threadblock-level synchronization").
    pub fn absorb_tiles<C: EventSink + ?Sized>(
        &mut self,
        a_tile: &SharedTile<T>,
        b_tile: &SharedTile<T>,
        kk: usize,
        counters: &C,
    ) {
        debug_assert!(kk <= a_tile.cols() && kk <= b_tile.cols());
        // Column sums (plain, then weighted) of the tile's first `rows` rows.
        let sums = |t: &SharedTile<T>, rows: usize| {
            let cols = t.cols();
            let mut s = ScratchBuf::<T, 128>::filled(2 * cols, T::ZERO);
            let (plain, weighted) = s.split_at_mut(cols);
            frag_col_sums(
                &t.as_slice()[..rows.min(t.rows()) * cols],
                plain,
                Some(weighted),
            );
            s
        };
        let (a, b) = (sums(a_tile, self.tb_m), sums(b_tile, self.tb_n));
        let (ca, cb) = (a_tile.cols(), b_tile.cols());
        for k in 0..kk {
            self.reference
                .accumulate_rank1(a[k], a[ca + k], b[k], b[cb + k]);
        }
        counters.add_ft_cuda((2 * (self.tb_m + self.tb_n) * kk + 6 * kk) as u64);
        counters.add_barrier(); // block-wide reduction sync
    }

    /// Verify the block tile (accessed through `get`) and correct a located
    /// error through `set`. Uses the same decision tree as the warp-level
    /// scheme (see [`crate::online::WarpOnlineState::check`]): non-finite or
    /// unlocatable payload errors request recomputation; checksum-side hits
    /// re-baseline.
    pub fn check_and_correct<C: EventSink + ?Sized>(
        &mut self,
        get: impl Fn(usize, usize) -> T,
        set: impl FnMut(usize, usize, T),
        counters: &C,
    ) -> CheckOutcome {
        let mut set = set;
        let mut tile = vec![T::ZERO; self.tb_m * self.tb_n];
        for r in 0..self.tb_m {
            for c in 0..self.tb_n {
                tile[r * self.tb_n + c] = get(r, c);
            }
        }
        counters.add_ft_cuda((3 * self.tb_m * self.tb_n) as u64);
        counters.add_barrier();
        if tile.iter().any(|v| !v.is_finite_s()) {
            return CheckOutcome::RecomputeRequired { since_k: 0 };
        }
        let observed = ChecksumTriple::from_tile(&tile, self.tb_n, (self.tb_m, self.tb_n));
        let Some(disc) = compare(&observed, &self.reference, &self.policy) else {
            return CheckOutcome::Clean;
        };
        if !self.policy.is_error(disc.d, disc.scale) {
            // Weighted-only mismatch: a checksum accumulator was struck.
            self.reference = observed;
            return CheckOutcome::Rebaselined;
        }
        match locate(&disc, self.tb_m, self.tb_n) {
            Located::At { row, col } => {
                let fixed = correct_in_place(&mut tile, self.tb_n, row, col, disc.d);
                set(row, col, fixed);
                let after = ChecksumTriple::from_tile(&tile, self.tb_n, (self.tb_m, self.tb_n));
                if compare(&after, &self.reference, &self.policy).is_none() {
                    CheckOutcome::Corrected {
                        row,
                        col,
                        magnitude: disc.d,
                    }
                } else {
                    CheckOutcome::RecomputeRequired { since_k: 0 }
                }
            }
            Located::Ambiguous => {
                let weighted_clean = !self.policy.is_error(disc.d21, disc.scale * 2.0)
                    && !self.policy.is_error(disc.d12, disc.scale * 2.0);
                if weighted_clean {
                    self.reference = observed;
                    CheckOutcome::Rebaselined
                } else {
                    CheckOutcome::RecomputeRequired { since_k: 0 }
                }
            }
        }
    }

    /// Reset the reference checksums from the current block tile (after an
    /// external recomputation).
    pub fn rebaseline_from<C: EventSink + ?Sized>(
        &mut self,
        get: impl Fn(usize, usize) -> T,
        counters: &C,
    ) {
        let mut tile = vec![T::ZERO; self.tb_m * self.tb_n];
        for r in 0..self.tb_m {
            for c in 0..self.tb_n {
                tile[r * self.tb_n + c] = get(r, c);
            }
        }
        counters.add_ft_cuda((3 * self.tb_m * self.tb_n) as u64);
        self.reference = ChecksumTriple::from_tile(&tile, self.tb_n, (self.tb_m, self.tb_n));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::counters::Counters;
    use gpu_sim::matrix::gemm_abt_reference;
    use gpu_sim::Matrix;

    const TBM: usize = 6;
    const TBN: usize = 4;
    const KK: usize = 5;

    fn setup() -> (WuBlockState<f64>, Vec<f64>, Counters) {
        let counters = Counters::new();
        let a = Matrix::<f64>::from_fn(TBM, KK, |r, c| 0.3 * r as f64 - 0.2 * c as f64 + 0.1);
        let b = Matrix::<f64>::from_fn(TBN, KK, |r, c| 0.15 * (r + c) as f64 - 0.4);
        let c = gemm_abt_reference(&a, &b);

        let mut a_tile = SharedTile::<f64>::new(TBM, KK);
        let mut b_tile = SharedTile::<f64>::new(TBN, KK);
        for r in 0..TBM {
            for k in 0..KK {
                a_tile.set(r, k, a.get(r, k));
            }
        }
        for r in 0..TBN {
            for k in 0..KK {
                b_tile.set(r, k, b.get(r, k));
            }
        }
        let mut st = WuBlockState::<f64>::new(TBM, TBN, Precision::Fp64);
        st.absorb_tiles(&a_tile, &b_tile, KK, &counters);
        (st, c.into_vec(), counters)
    }

    #[test]
    fn clean_block_passes() {
        let (mut st, tile, counters) = setup();
        let out = st.check_and_correct(
            |r, c| tile[r * TBN + c],
            |_, _, _| panic!("no correction expected"),
            &counters,
        );
        assert_eq!(out, CheckOutcome::Clean);
    }

    #[test]
    fn block_level_error_corrected() {
        let (mut st, mut tile, counters) = setup();
        let clean = tile.clone();
        tile[3 * TBN + 2] += 11.0;
        let mut fixed_at = None;
        let out = st.check_and_correct(
            |r, c| tile[r * TBN + c],
            |r, c, v| fixed_at = Some((r, c, v)),
            &counters,
        );
        match out {
            CheckOutcome::Corrected {
                row,
                col,
                magnitude,
            } => {
                assert_eq!((row, col), (3, 2));
                assert!((magnitude - 11.0).abs() < 1e-9);
            }
            other => panic!("expected correction, got {other:?}"),
        }
        let (r, c, v) = fixed_at.unwrap();
        assert!((v - clean[r * TBN + c]).abs() < 1e-9);
    }

    #[test]
    fn absorb_counts_block_sync() {
        let (_, _, counters) = setup();
        assert!(
            counters.snapshot().barriers >= 1,
            "block reduction must sync"
        );
        assert!(counters.snapshot().ft_cuda_ops > 0);
    }
}
