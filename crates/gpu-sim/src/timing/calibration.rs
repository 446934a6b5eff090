//! Calibration constants for the analytic timing model.
//!
//! Every constant is an interpretable quantity; values were fitted against
//! the paper's published anchors and asserted by the calibration tests in
//! [`crate::timing::model`]:
//!
//! * Fig. 7 (A100, FP32, M=131072, N=128, K=128): naive ≈ 0.48 TF,
//!   V1 ≈ 4.7 TF, V2 ≈ 5.9 TF, V3 ≈ 6.9 TF, tuned tensor ≈ 17.7 TF,
//!   cuML ≈ 9.7 TF.
//! * Fig. 15/16: ABFT overhead ≈ 0–2% FP32 (hidden in the execution bubble
//!   between the tensor pipe and the issue/memory legs), ≈ 13% average FP64
//!   (the FP64 tensor pipe is the binding leg, so the 3/(m_w·n_w) checksum
//!   MMAs are exposed).
//! * Fig. 17/18/21: error-injection overhead small for FT K-means; Wu's
//!   scheme ≈ +30% on A100 (re-reads + no `cp.async`), ≈ 60% worse than FT
//!   K-means on T4 (threadblock-level synchronization).
//!
//! ## Two compute legs
//!
//! The model distinguishes the **issue leg** (`s_issue_gflops`) — a
//! composite ceiling covering instruction issue, shared-memory traffic and
//! pipeline latencies, which is what actually limits the TF32 kernel at
//! ~18–20 TFLOP/s despite a 156 TFLOP/s tensor peak — from the **tensor
//! pipe leg** (`s_tensor_gflops`), the raw MMA throughput that payload and
//! checksum MMAs *share*. FP32: tensor pipe ≫ issue leg, so ABFT MMAs hide.
//! FP64: tensor pipe ≈ issue leg, so ABFT MMAs surface (paper §IV-B).

use crate::device::{DeviceProfile, Precision};

/// Tunable constants of the timing model for one (device, precision) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// Composite issue/pipeline ceiling for the fused tensor-core distance
    /// kernel, GFLOP/s (payload FLOPs only).
    pub s_issue_gflops: f64,
    /// Raw tensor-pipe ceiling, GFLOP/s. Payload and ABFT checksum MMAs
    /// contend here.
    pub s_tensor_gflops: f64,
    /// Half-saturation point of the warp-occupancy efficiency curve
    /// `f_occ = aw / (aw + h)`.
    pub occ_half_sat_warps: f64,
    /// Pipeline fill weight in `g_k = iters / (iters + fill·(stages−1))`.
    pub kloop_fill_frac: f64,
    /// Fixed per-k-iteration cost (barrier, pointer arithmetic, `cp.async`
    /// issue) expressed as the extra issue-work fraction at
    /// `Threadblock.K = 16`; scales inversely with the tile depth. This is
    /// what makes very shallow K tiles unattractive despite their lower
    /// padding — the paper's winning tiles all use `Threadblock.K = 16`.
    pub kiter_overhead_frac: f64,
    /// ILP offset in the tile-shape efficiency `h = r / (r + o)` with
    /// `r = wm·wn / (wm+wn)` (compute per shared-memory element).
    pub tile_ilp_offset: f64,
    /// Sustained fraction of DRAM bandwidth for streaming tile loads.
    pub mem_efficiency: f64,
    /// Sustained SIMT GEMM rate of the V1 variant (separate reduction
    /// kernel), GFLOP/s.
    pub s_simt_v1_gflops: f64,
    /// V2 (thread/threadblock-fused reduction) sustained rate, GFLOP/s.
    pub s_simt_v2_gflops: f64,
    /// V3 (fully fused, broadcast) sustained rate, GFLOP/s.
    pub s_simt_v3_gflops: f64,
    /// Naive kernel's achieved fraction of CUDA-core peak (uncoalesced
    /// loads, no tiling).
    pub naive_frac_of_cuda: f64,
    /// Per-element epilogue cost (row-min + index bookkeeping), CUDA-core
    /// flop-equivalents.
    pub epilogue_flops_per_elem: f64,
    /// Cost of one global argmin merge (lock + compare), nanoseconds.
    pub atomic_merge_ns: f64,
    /// Per-wave fill/drain overhead, microseconds.
    pub wave_overhead_us: f64,
    /// Serialized fraction of min(compute, memory) without `cp.async`
    /// (Turing, and Wu's pre-Ampere kernel on any device).
    pub no_async_serial_frac: f64,
    /// Extra fraction of A-operand DRAM traffic Wu's scheme re-reads when
    /// the register-staged path is unavailable (Ampere only).
    pub wu_reread_frac: f64,
    /// Per-k-iteration threadblock-level checksum reduction + sync cost of
    /// Wu's scheme, microseconds (per wave).
    pub wu_block_sync_us: f64,
    /// Multiplier on the issue ceiling for Wu's pre-`cp.async` kernel
    /// generation (older tiling, explicit staging).
    pub wu_issue_penalty: f64,
    /// CUDA-core flop-equivalents per accumulator element for one online
    /// detection sweep (Fig. 6 lines 25–30).
    pub detect_flops_per_elem: f64,
    /// Detection interval in K-dimension steps (Fig. 6 line 25).
    pub detect_interval_k: usize,
    /// Time to locate + correct one error with FT K-means' location
    /// encoding, microseconds (warp-local, no recomputation).
    pub err_fix_us_ftk: f64,
    /// Fraction of a detection interval recomputed per error by
    /// recompute-based correction (Kosaian).
    pub recompute_interval_frac: f64,
}

impl Calibration {
    /// Constants for a device/precision pair.
    pub fn for_device(device: &DeviceProfile, precision: Precision) -> Self {
        let ampere = device.has_async_copy;
        let base = Calibration {
            s_issue_gflops: 30_000.0,
            s_tensor_gflops: 90_000.0,
            occ_half_sat_warps: 2.0,
            kloop_fill_frac: 0.75,
            kiter_overhead_frac: 0.10,
            tile_ilp_offset: 2.0,
            mem_efficiency: 0.85,
            s_simt_v1_gflops: 5_300.0,
            s_simt_v2_gflops: 6_400.0,
            s_simt_v3_gflops: 7_300.0,
            naive_frac_of_cuda: 0.025,
            epilogue_flops_per_elem: 3.0,
            atomic_merge_ns: 18.0,
            wave_overhead_us: 2.0,
            no_async_serial_frac: 0.55,
            wu_reread_frac: 0.5,
            wu_block_sync_us: 0.15,
            wu_issue_penalty: 0.9,
            detect_flops_per_elem: 2.0,
            detect_interval_k: 256,
            err_fix_us_ftk: 0.5,
            recompute_interval_frac: 1.0,
        };
        match (ampere, precision) {
            // A100 FP32 (TF32 tensor path): issue-bound, tensor pipe idle.
            (true, Precision::Fp32) => base,
            // A100 FP64: tensor pipe is the binding leg.
            (true, Precision::Fp64) => Calibration {
                s_issue_gflops: 30_000.0,
                s_tensor_gflops: 17_000.0,
                s_simt_v1_gflops: 3_000.0,
                s_simt_v2_gflops: 3_600.0,
                s_simt_v3_gflops: 4_100.0,
                ..base
            },
            // T4 FP32 (FP16 tensor cores, no cp.async).
            (false, Precision::Fp32) => Calibration {
                s_issue_gflops: 10_000.0,
                s_tensor_gflops: 15_000.0,
                mem_efficiency: 0.80,
                s_simt_v1_gflops: 2_200.0,
                s_simt_v2_gflops: 2_600.0,
                s_simt_v3_gflops: 3_000.0,
                atomic_merge_ns: 30.0,
                wave_overhead_us: 2.5,
                no_async_serial_frac: 0.30,
                wu_reread_frac: 0.0, // register staging still exists on Turing
                wu_block_sync_us: 0.8,
                wu_issue_penalty: 0.75,
                ..base
            },
            // T4 FP64: no FP64 tensor cores; everything runs on the 253
            // GFLOP/s SIMT path.
            (false, Precision::Fp64) => Calibration {
                s_issue_gflops: 240.0,
                s_tensor_gflops: 240.0,
                mem_efficiency: 0.80,
                s_simt_v1_gflops: 170.0,
                s_simt_v2_gflops: 200.0,
                s_simt_v3_gflops: 220.0,
                atomic_merge_ns: 30.0,
                wave_overhead_us: 2.5,
                no_async_serial_frac: 0.30,
                wu_reread_frac: 0.0,
                wu_block_sync_us: 0.8,
                wu_issue_penalty: 0.75,
                ..base
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp32_tensor_pipe_has_headroom_fp64_does_not() {
        let a100 = DeviceProfile::a100();
        let c32 = Calibration::for_device(&a100, Precision::Fp32);
        let c64 = Calibration::for_device(&a100, Precision::Fp64);
        // FP32: tensor pipe far above the issue ceiling -> ABFT hides.
        assert!(c32.s_tensor_gflops > 2.0 * c32.s_issue_gflops);
        // FP64: tensor pipe below the issue ceiling -> ABFT surfaces.
        assert!(c64.s_tensor_gflops < c64.s_issue_gflops);
    }

    #[test]
    fn wu_penalties_differ_by_architecture() {
        let a100 = DeviceProfile::a100();
        let t4 = DeviceProfile::t4();
        let ca = Calibration::for_device(&a100, Precision::Fp32);
        let ct = Calibration::for_device(&t4, Precision::Fp32);
        assert!(ca.wu_reread_frac > 0.0, "Ampere forces re-reads");
        assert_eq!(ct.wu_reread_frac, 0.0, "Turing keeps register staging");
        assert!(ct.wu_block_sync_us > ca.wu_block_sync_us);
    }

    #[test]
    fn constants_are_sane() {
        for dev in [DeviceProfile::a100(), DeviceProfile::t4()] {
            for p in Precision::all() {
                let c = Calibration::for_device(&dev, p);
                assert!(c.s_issue_gflops > 0.0);
                assert!(c.s_tensor_gflops > 0.0);
                assert!(c.mem_efficiency > 0.0 && c.mem_efficiency <= 1.0);
                assert!(c.s_simt_v1_gflops < c.s_simt_v2_gflops);
                assert!(c.s_simt_v2_gflops < c.s_simt_v3_gflops);
                assert!(c.detect_interval_k >= 1);
            }
        }
    }
}
