//! The per-warp online checksum state machine fused into the tensor
//! kernel's main loop (paper Fig. 6).
//!
//! Per K-slab the warp already holds its A and B register fragments, so the
//! input checksums (`e1ᵀX`, `Xᵀe2`, `Ye1`, `Ye2` — lines 15–18) cost only
//! CUDA-core adds and **no extra memory traffic** — this is what makes the
//! scheme compatible with `cp.async`, unlike register-reuse ABFT. The three
//! checksum products (lines 22–24) are genuine tensor-core MMAs and pass
//! through the same [`gpu_sim::FaultHook`] as payload MMAs, so injected
//! faults can strike the checksums themselves; the state machine handles
//! that case by re-baselining (under the single-event-upset assumption a
//! located failure in the checksum implies a clean payload).
//!
//! The work is split in two: [`gpu_sim::warp::frag_col_sums`] reduces a
//! fragment to its per-column input sums in one pass, and
//! [`WarpOnlineState::fold`] folds a slab's sums into one warp's reference
//! with three k-deep checksum dots ([`gpu_sim::mma::checksum_dot`]). The
//! tensor kernel computes each fragment's sums once per k-slab and shares
//! them across the warps that consume that fragment, in stack scratch with
//! no heap allocation per slab; [`WarpOnlineState::accumulate`] composes
//! the two steps for a single warp. [`WarpOnlineState::check`] verifies
//! only a tile's live corner when the caller vouches that its padded lanes
//! still hold `+0.0`, and falls back to the whole tile on any verdict but
//! clean.

use crate::checksum::ChecksumTriple;
use crate::correct::correct_in_place;
use crate::detect::compare;
use crate::locate::{locate, Located};
use crate::threshold::ThresholdPolicy;
use gpu_sim::counters::EventSink;
use gpu_sim::mma::{checksum_dot, FaultHook, MmaSite};
use gpu_sim::warp::frag_col_sums;
use gpu_sim::{Scalar, ScratchBuf};

/// Whether the state machine corrects in place or only detects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnlineMode {
    /// FT K-means: detect, locate, correct in place.
    DetectCorrect,
    /// Kosaian-style: detect only; the caller must recompute.
    DetectOnly,
}

/// Outcome of one online verification sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CheckOutcome {
    /// Checksums agree within δ.
    Clean,
    /// A single payload error was located and subtracted.
    Corrected {
        row: usize,
        col: usize,
        magnitude: f64,
    },
    /// The discrepancy was inconsistent with a single payload error (the
    /// fault hit a checksum accumulator); the reference was re-baselined to
    /// the payload.
    Rebaselined,
    /// Detection-only mode: an error was detected; recompute from
    /// `since_k`.
    RecomputeRequired { since_k: usize },
}

/// Per-warp online ABFT state.
#[derive(Debug, Clone)]
pub struct WarpOnlineState<T> {
    reference: ChecksumTriple<T>,
    wm: usize,
    wn: usize,
    policy: ThresholdPolicy,
    mode: OnlineMode,
    last_verified_k: usize,
    /// Set by the first verdict other than clean: a correction or a
    /// recomputation may have written padded lanes, so every later check
    /// sums the whole tile.
    full_tile: bool,
}

impl<T: Scalar> WarpOnlineState<T> {
    /// Fresh state for a `wm x wn` warp accumulator tile.
    pub fn new(wm: usize, wn: usize, policy: ThresholdPolicy, mode: OnlineMode) -> Self {
        WarpOnlineState {
            reference: ChecksumTriple::zero(),
            wm,
            wn,
            policy,
            mode,
            last_verified_k: 0,
            full_tile: false,
        }
    }

    /// The mode this state operates in.
    pub fn mode(&self) -> OnlineMode {
        self.mode
    }

    /// Current reference checksums (test introspection).
    pub fn reference(&self) -> &ChecksumTriple<T> {
        &self.reference
    }

    /// Accumulate the checksum contribution of one K-slab from the warp's
    /// register fragments (`a_frag`: `wm x kk`, `b_frag`: `wn x kk`): the
    /// input sums of both fragments ([`frag_col_sums`]) folded into the
    /// reference by [`fold`](Self::fold).
    pub fn accumulate<H: FaultHook<T> + ?Sized, C: EventSink + ?Sized>(
        &mut self,
        a_frag: &[T],
        b_frag: &[T],
        kk: usize,
        site: MmaSite,
        hook: &H,
        counters: &C,
    ) {
        debug_assert_eq!(a_frag.len(), self.wm * kk);
        debug_assert_eq!(b_frag.len(), self.wn * kk);
        let weighted = self.mode == OnlineMode::DetectCorrect;
        let mut sums = ScratchBuf::<T, 256>::filled(4 * kk, T::ZERO);
        let (a, b) = sums.split_at_mut(2 * kk);
        let ((a1, a2), (b1, b2)) = (a.split_at_mut(kk), b.split_at_mut(kk));
        frag_col_sums(a_frag, a1, weighted.then_some(&mut *a2));
        frag_col_sums(b_frag, b1, weighted.then_some(&mut *b2));
        self.fold([a1, a2], [b1, b2], site, hook, counters);
    }

    /// Fold one K-slab's input sums (Fig. 6 lines 15–18) into the reference
    /// checksums: `a` of the warp's `wm`-row A fragment, `b` of its `wn`-row
    /// B fragment, each `[plain, weighted]` with one entry per K column
    /// (`e1ᵀ·frag` and `e2ᵀ·frag`; `weighted` is not read in
    /// [`OnlineMode::DetectOnly`]).
    ///
    /// The input sums are charged as this warp's CUDA-core work even when
    /// the caller shares one fragment's sums between warps; the three dot
    /// products run as tensor-core MMAs through `hook` (so they are
    /// themselves corruptible — the paper's fault model does not exempt
    /// checksum computation).
    pub fn fold<H: FaultHook<T> + ?Sized, C: EventSink + ?Sized>(
        &mut self,
        [a1, a2]: [&[T]; 2],
        [b1, b2]: [&[T]; 2],
        site: MmaSite,
        hook: &H,
        counters: &C,
    ) {
        counters.add_ft_cuda((2 * (self.wm + self.wn) * a1.len()) as u64);
        let cs_site = MmaSite {
            is_checksum: true,
            ..site
        };
        let r = &mut self.reference;
        checksum_dot(&mut r.s11, a1, b1, cs_site, hook, counters);
        if self.mode == OnlineMode::DetectCorrect {
            checksum_dot(&mut r.s21, a2, b1, cs_site, hook, counters);
            checksum_dot(&mut r.s12, a1, b2, cs_site, hook, counters);
        }
    }

    /// Verify the accumulator tile at K-position `k_now` and, in
    /// `DetectCorrect` mode, repair a located error in place (Fig. 6 lines
    /// 25–31). A clean verdict is charged `3·wm·wn` CUDA-core adds
    /// however it is reached.
    ///
    /// `live` is the corner of `acc` the caller computed. A caller passes
    /// less than `(wm, wn)` only when the lanes outside it hold `+0.0`
    /// that nothing wrote since the tile was zeroed (zero padding under an
    /// inert hook): the non-finite scan and the checksums then cover the
    /// corner alone, which reaches the whole tile's clean verdict bit for
    /// bit (see [`ChecksumTriple::from_tile`]). Any other verdict re-runs
    /// the whole-tile check, and once a check was not clean every later
    /// one sums the whole tile.
    pub fn check<C: EventSink + ?Sized>(
        &mut self,
        acc: &mut [T],
        live: (usize, usize),
        k_now: usize,
        counters: &C,
    ) -> CheckOutcome {
        debug_assert_eq!(acc.len(), self.wm * self.wn);
        if !self.full_tile && live != (self.wm, self.wn) {
            debug_assert!(
                acc.iter().enumerate().all(|(e, v)| {
                    (e / self.wn < live.0 && e % self.wn < live.1) || v.to_raw_u64() == 0
                }),
                "a lane outside the live corner {live:?} is not +0.0"
            );
            if self.corner_clean(acc, live) {
                counters.add_ft_cuda((3 * self.wm * self.wn) as u64);
                self.last_verified_k = k_now;
                return CheckOutcome::Clean;
            }
        }
        let outcome = self.check_tile(acc, k_now, counters);
        if outcome != CheckOutcome::Clean {
            self.full_tile = true;
        }
        outcome
    }

    /// True when the `live` corner is finite and its checksums agree with
    /// the reference.
    fn corner_clean(&self, acc: &[T], (rows, cols): (usize, usize)) -> bool {
        let row = |i: usize| &acc[i * self.wn..i * self.wn + cols];
        if !(0..rows).all(|i| row(i).iter().all(|v| v.is_finite_s())) {
            return false;
        }
        let observed = self.triple(acc, (rows, cols));
        compare(&observed, &self.reference, &self.policy).is_none()
    }

    /// [`check`](Self::check) over the whole tile. Decision tree (all
    /// under the single-event-upset assumption):
    ///
    /// 1. payload contains Inf/NaN → in-place arithmetic cannot restore it:
    ///    request recomputation;
    /// 2. checksums agree → clean;
    /// 3. detection-only mode → request recomputation;
    /// 4. the plain-sum checksum `s11` agrees but a weighted checksum
    ///    deviates → a single fault can only do that by striking a checksum
    ///    accumulator, so the payload is trustworthy: re-baseline;
    /// 5. `s11` deviates and the error locates → correct in place, then
    ///    re-verify (a correction polluted by rounding of an astronomical
    ///    error magnitude must not survive — fall back to recomputation);
    /// 6. `s11` deviates but location decoding fails (overflowed weighted
    ///    sums, multi-error) → request recomputation.
    fn check_tile<C: EventSink + ?Sized>(
        &mut self,
        acc: &mut [T],
        k_now: usize,
        counters: &C,
    ) -> CheckOutcome {
        // (1) Inf/NaN in the payload: no subtraction can repair it.
        if acc.iter().any(|v| !v.is_finite_s()) {
            return CheckOutcome::RecomputeRequired {
                since_k: self.last_verified_k,
            };
        }
        let observed = self.observed(acc, counters);
        let Some(disc) = compare(&observed, &self.reference, &self.policy) else {
            self.last_verified_k = k_now;
            return CheckOutcome::Clean;
        };
        // (3) Detection-only schemes never attempt in-place repair.
        if self.mode == OnlineMode::DetectOnly {
            return CheckOutcome::RecomputeRequired {
                since_k: self.last_verified_k,
            };
        }
        // (4) A payload error of magnitude e perturbs s11 by e; if s11
        // agrees, the fault must have hit a checksum accumulator.
        if !self.policy.is_error(disc.d, disc.scale) {
            self.rebaseline(acc, counters);
            self.last_verified_k = k_now;
            return CheckOutcome::Rebaselined;
        }
        match locate(&disc, self.wm, self.wn) {
            Located::At { row, col } => {
                let magnitude = disc.d;
                correct_in_place(acc, self.wn, row, col, magnitude);
                // (5) Re-verify: a mislocated or precision-polluted
                // correction must not survive.
                let after = self.observed(acc, counters);
                if compare(&after, &self.reference, &self.policy).is_none() {
                    self.last_verified_k = k_now;
                    CheckOutcome::Corrected {
                        row,
                        col,
                        magnitude,
                    }
                } else {
                    correct_in_place(acc, self.wn, row, col, -magnitude);
                    CheckOutcome::RecomputeRequired {
                        since_k: self.last_verified_k,
                    }
                }
            }
            Located::Ambiguous => {
                // A payload error of magnitude e moves the weighted sums by
                // (r+1)·e and (c+1)·e ≥ e. If both weighted checksums agree
                // while s11 deviates, the fault hit the s11 accumulator
                // itself: the payload is trustworthy.
                let weighted_clean = !self.policy.is_error(disc.d21, disc.scale * 2.0)
                    && !self.policy.is_error(disc.d12, disc.scale * 2.0);
                if weighted_clean {
                    self.rebaseline(acc, counters);
                    self.last_verified_k = k_now;
                    CheckOutcome::Rebaselined
                } else {
                    // (6) Unlocatable payload error (overflow, multi-error).
                    CheckOutcome::RecomputeRequired {
                        since_k: self.last_verified_k,
                    }
                }
            }
        }
    }

    /// Reset the reference checksums to match the current accumulator
    /// (after an external recompute, or when the checksums were corrupted).
    pub fn rebaseline<C: EventSink + ?Sized>(&mut self, acc: &[T], counters: &C) {
        self.reference = self.observed(acc, counters);
        self.full_tile = true;
    }

    fn observed<C: EventSink + ?Sized>(&self, acc: &[T], counters: &C) -> ChecksumTriple<T> {
        counters.add_ft_cuda((3 * self.wm * self.wn) as u64);
        self.triple(acc, (self.wm, self.wn))
    }

    /// The observed checksums of the `live` corner, uncharged.
    fn triple(&self, acc: &[T], live: (usize, usize)) -> ChecksumTriple<T> {
        let mut t = ChecksumTriple::from_tile(acc, self.wn, live);
        if self.mode == OnlineMode::DetectOnly {
            // Detection-only states never accumulated the weighted
            // references; comparing them against zero would false-alarm.
            t.s21 = T::ZERO;
            t.s12 = T::ZERO;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::counters::Counters;
    use gpu_sim::mma::{FragmentMma, NoFault};
    use gpu_sim::Precision;

    const WM: usize = 4;
    const WN: usize = 3;
    const KK: usize = 4;

    fn site() -> MmaSite {
        MmaSite {
            block: (0, 0),
            warp: 0,
            k_step: 0,
            is_checksum: false,
        }
    }

    /// Run `slabs` accumulation steps over deterministic fragments,
    /// returning (state, acc).
    fn run_clean(mode: OnlineMode) -> (WarpOnlineState<f64>, Vec<f64>) {
        let c = Counters::new();
        let policy = ThresholdPolicy::for_precision(Precision::Fp64);
        let mut st = WarpOnlineState::<f64>::new(WM, WN, policy, mode);
        let exec = FragmentMma::new::<f64>(WM, WN);
        let mut acc = vec![0.0f64; WM * WN];
        for slab in 0..3 {
            let a: Vec<f64> = (0..WM * KK)
                .map(|i| ((i + slab * 7) % 5) as f64 * 0.5 - 1.0)
                .collect();
            let b: Vec<f64> = (0..WN * KK)
                .map(|i| ((i + slab * 3) % 7) as f64 * 0.25 - 0.75)
                .collect();
            exec.mma(&mut acc, &a, &b, KK, site(), &NoFault, &c);
            st.accumulate(&a, &b, KK, site(), &NoFault, &c);
        }
        (st, acc)
    }

    #[test]
    fn clean_run_verifies_clean() {
        let c = Counters::new();
        let (mut st, mut acc) = run_clean(OnlineMode::DetectCorrect);
        assert_eq!(st.check(&mut acc, (WM, WN), 12, &c), CheckOutcome::Clean);
    }

    #[test]
    fn payload_error_is_located_and_corrected() {
        let c = Counters::new();
        let (mut st, mut acc) = run_clean(OnlineMode::DetectCorrect);
        let clean = acc.clone();
        acc[2 * WN + 1] += 13.5; // corrupt (2,1)
        match st.check(&mut acc, (WM, WN), 12, &c) {
            CheckOutcome::Corrected {
                row,
                col,
                magnitude,
            } => {
                assert_eq!((row, col), (2, 1));
                assert!((magnitude - 13.5).abs() < 1e-9);
            }
            other => panic!("expected correction, got {other:?}"),
        }
        for (a, b) in acc.iter().zip(&clean) {
            assert!((a - b).abs() < 1e-9, "tile restored");
        }
        // A subsequent sweep is clean.
        assert_eq!(st.check(&mut acc, (WM, WN), 12, &c), CheckOutcome::Clean);
    }

    #[test]
    fn negative_error_corrected_too() {
        let c = Counters::new();
        let (mut st, mut acc) = run_clean(OnlineMode::DetectCorrect);
        let clean = acc.clone();
        acc[0] -= 42.0;
        assert!(matches!(
            st.check(&mut acc, (WM, WN), 12, &c),
            CheckOutcome::Corrected { row: 0, col: 0, .. }
        ));
        assert!((acc[0] - clean[0]).abs() < 1e-9);
    }

    #[test]
    fn checksum_corruption_rebaselines_without_touching_payload() {
        let c = Counters::new();
        let (mut st, mut acc) = run_clean(OnlineMode::DetectCorrect);
        let clean = acc.clone();
        // Corrupt the reference checksum (as if the fault hit a checksum MMA).
        st.reference.s11 += 99.0;
        assert_eq!(
            st.check(&mut acc, (WM, WN), 12, &c),
            CheckOutcome::Rebaselined
        );
        assert_eq!(acc, clean, "payload untouched");
        assert_eq!(st.check(&mut acc, (WM, WN), 12, &c), CheckOutcome::Clean);
    }

    #[test]
    fn detect_only_mode_requests_recompute() {
        let c = Counters::new();
        let (mut st, mut acc) = run_clean(OnlineMode::DetectOnly);
        acc[5] += 7.0;
        assert_eq!(
            st.check(&mut acc, (WM, WN), 12, &c),
            CheckOutcome::RecomputeRequired { since_k: 0 }
        );
        // After the caller recomputes, it re-baselines and proceeds.
        acc[5] -= 7.0;
        st.rebaseline(&acc, &c);
        assert_eq!(st.check(&mut acc, (WM, WN), 16, &c), CheckOutcome::Clean);
    }

    #[test]
    fn detect_only_skips_weighted_checksums() {
        let c = Counters::new();
        let policy = ThresholdPolicy::for_precision(Precision::Fp64);
        let mut st = WarpOnlineState::<f64>::new(WM, WN, policy, OnlineMode::DetectOnly);
        let a = vec![1.0f64; WM * KK];
        let b = vec![2.0f64; WN * KK];
        st.accumulate(&a, &b, KK, site(), &NoFault, &c);
        assert_eq!(st.reference().s21, 0.0, "weighted row checksum skipped");
        assert_eq!(st.reference().s12, 0.0, "weighted col checksum skipped");
        // s11 = Σ_k (Σ_i 1)(Σ_j 2) = KK * WM * 2*WN
        assert_eq!(st.reference().s11, (KK * WM * 2 * WN) as f64);
    }

    /// An 8x6 warp tile with a 5x4 live corner after three slabs: A rows
    /// from 5 and B rows from 4 are zero padding, so the padded lanes stay
    /// +0.0.
    fn padded_tile() -> (WarpOnlineState<f64>, Vec<f64>, (usize, usize)) {
        let (wm, wn, live) = (8, 6, (5, 4));
        let policy = ThresholdPolicy::for_precision(Precision::Fp64);
        let mut st = WarpOnlineState::<f64>::new(wm, wn, policy, OnlineMode::DetectCorrect);
        let exec = FragmentMma::new::<f64>(wm, wn);
        let c = Counters::new();
        let mut acc = vec![0.0f64; wm * wn];
        for slab in 0..3 {
            let frag = |rows: usize, live: usize| -> Vec<f64> {
                (0..rows * KK)
                    .map(|i| {
                        if i / KK < live {
                            ((i + slab * 5) % 9) as f64 * 0.5 - 2.0
                        } else {
                            0.0
                        }
                    })
                    .collect()
            };
            let (a, b) = (frag(wm, live.0), frag(wn, live.1));
            exec.mma(&mut acc, &a, &b, KK, site(), &NoFault, &c);
            st.accumulate(&a, &b, KK, site(), &NoFault, &c);
        }
        (st, acc, live)
    }

    #[test]
    fn live_corner_check_matches_the_full_tile_and_then_sums_it() {
        let (mut st, mut acc, live) = padded_tile();
        let (wm, wn) = (8, 6);
        let c = Counters::new();
        // Fold one wrong slab: a lone product a[1]·b[2] = 6 the payload never
        // received, so the payload reads as 6 short at (1, 2).
        let (mut a, mut b) = (vec![0.0f64; wm * KK], vec![0.0f64; wn * KK]);
        a[KK] = 2.0;
        b[2 * KK] = 3.0;
        st.accumulate(&a, &b, KK, site(), &NoFault, &c);

        let (mut whole, mut whole_acc) = (st.clone(), acc.clone());
        let (c_live, c_whole) = (Counters::new(), Counters::new());
        let got = st.check(&mut acc, live, 12, &c_live);
        let want = whole.check(&mut whole_acc, (wm, wn), 12, &c_whole);
        assert_eq!(got, want);
        assert!(
            matches!(got, CheckOutcome::Corrected { row: 1, col: 2, .. }),
            "{got:?}"
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&acc), bits(&whole_acc), "corrected tile");
        assert_eq!(c_live.snapshot(), c_whole.snapshot(), "charges");

        // A later error in a padded lane: the corrected warp sums the whole
        // tile and sees it.
        acc[(wm - 1) * wn + wn - 1] += 5.0;
        let later = st.check(&mut acc, live, 16, &c_live);
        assert_ne!(later, CheckOutcome::Clean);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside the live corner")]
    fn live_corner_check_rejects_a_written_padded_lane() {
        // A warp never corrected checks only its live corner, which is
        // sound only while the padded lanes hold +0.0.
        let (mut st, mut acc, live) = padded_tile();
        let last = acc.len() - 1;
        acc[last] = 5.0;
        st.check(&mut acc, live, 12, &Counters::new());
    }

    #[test]
    fn counters_track_ft_work() {
        let c = Counters::new();
        let policy = ThresholdPolicy::for_precision(Precision::Fp64);
        let mut st = WarpOnlineState::<f64>::new(WM, WN, policy, OnlineMode::DetectCorrect);
        let a = vec![1.0f64; WM * KK];
        let b = vec![1.0f64; WN * KK];
        st.accumulate(&a, &b, KK, site(), &NoFault, &c);
        let s = c.snapshot();
        assert!(s.ft_cuda_ops > 0);
        assert_eq!(s.ft_mma_ops, 3, "three checksum dot-MMAs per slab");
        assert_eq!(s.mma_ops, 0, "no payload MMAs issued here");
    }
}
