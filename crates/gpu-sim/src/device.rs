//! Device profiles for the GPUs evaluated in the paper.
//!
//! The paper benchmarks an NVIDIA A100-PCIE-40GB (Ampere, SM80) and a Tesla
//! T4 (Turing, SM75). The profile captures the architectural quantities the
//! timing model and the feasibility checker consume. Throughput figures are
//! *sustained* numbers used as model ceilings, annotated with the paper's
//! quoted peaks.

/// Floating-point precision of a kernel instantiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// 32-bit IEEE-754 (tensor cores operate in TF32 on Ampere).
    Fp32,
    /// 64-bit IEEE-754 (tensor cores use DMMA `m8n8k4` on Ampere).
    Fp64,
}

impl Precision {
    /// Size of one element in bytes.
    pub fn bytes(self) -> usize {
        match self {
            Precision::Fp32 => 4,
            Precision::Fp64 => 8,
        }
    }

    /// Short lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Precision::Fp32 => "fp32",
            Precision::Fp64 => "fp64",
        }
    }

    /// Both precisions, in report order.
    pub fn all() -> [Precision; 2] {
        [Precision::Fp32, Precision::Fp64]
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Static description of a GPU used by the timing model and feasibility
/// checks. All throughputs are in GFLOP/s, bandwidth in GB/s, capacities in
/// bytes unless stated otherwise.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Marketing name, e.g. `"A100-PCIE-40GB"`.
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub sm_count: usize,
    /// SM clock in GHz (boost).
    pub clock_ghz: f64,
    /// Sustained CUDA-core (SIMT) FP32 throughput, GFLOP/s.
    pub cuda_fp32_gflops: f64,
    /// Sustained CUDA-core (SIMT) FP64 throughput, GFLOP/s.
    pub cuda_fp64_gflops: f64,
    /// Sustained tensor-core throughput for FP32-accumulate (TF32 on Ampere,
    /// FP16-accumulate-FP32 on Turing), GFLOP/s.
    pub tensor_fp32_gflops: f64,
    /// Sustained tensor-core FP64 (DMMA) throughput, GFLOP/s. Zero when the
    /// architecture has no FP64 tensor path (Turing).
    pub tensor_fp64_gflops: f64,
    /// Global-memory bandwidth, GB/s.
    pub mem_bw_gbs: f64,
    /// L2 cache capacity in bytes (drives operand-reuse modeling: a
    /// centroid matrix that fits in L2 is fetched from DRAM once, not once
    /// per threadblock).
    pub l2_bytes: usize,
    /// Shared memory available per SM (bytes, opted-in maximum).
    pub smem_per_sm: usize,
    /// Maximum shared memory a single threadblock may allocate (bytes).
    pub smem_per_block: usize,
    /// 32-bit registers per SM.
    pub regs_per_sm: usize,
    /// Maximum registers per thread.
    pub regs_per_thread: usize,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: usize,
    /// Maximum resident threadblocks per SM.
    pub max_blocks_per_sm: usize,
    /// Maximum threads per threadblock.
    pub max_threads_per_block: usize,
    /// Whether the architecture has `cp.async` (global→shared bypassing the
    /// register file). True from Ampere (SM80) on. This is the architectural
    /// property that invalidates register-reuse ABFT (paper §I, §II-C).
    pub has_async_copy: bool,
    /// Kernel launch overhead in microseconds (used by multi-kernel variants).
    pub launch_overhead_us: f64,
}

impl DeviceProfile {
    /// NVIDIA A100-PCIE-40GB (SM80) as used in the paper's main evaluation.
    ///
    /// Paper-quoted peaks: 19.5 TFLOPS FP32 (CUDA cores), 9.7 TFLOPS FP64,
    /// 1.55 TB/s HBM2. TF32 tensor peak is 156 TFLOPS but the fused
    /// distance kernel is bandwidth/epilogue limited far below that; the
    /// sustained ceiling here is set so the tuned kernel tops out near the
    /// paper's measured 17.7 TFLOPS (Fig. 7).
    pub fn a100() -> Self {
        DeviceProfile {
            name: "A100-PCIE-40GB",
            sm_count: 108,
            clock_ghz: 1.41,
            cuda_fp32_gflops: 19_500.0,
            cuda_fp64_gflops: 9_700.0,
            tensor_fp32_gflops: 52_000.0,
            tensor_fp64_gflops: 19_500.0,
            mem_bw_gbs: 1555.0,
            l2_bytes: 40 * 1024 * 1024,
            smem_per_sm: 164 * 1024,
            smem_per_block: 160 * 1024,
            regs_per_sm: 65_536,
            regs_per_thread: 255,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            has_async_copy: true,
            launch_overhead_us: 4.0,
        }
    }

    /// Tesla T4 (SM75, Turing) as used in the paper's §V-D evaluation.
    ///
    /// Paper-quoted peaks: 8.1 TFLOPS FP32, 0.253 TFLOPS FP64, 320 GB/s.
    /// Turing has no `cp.async` and no FP64 tensor cores; its FP16 tensor
    /// cores still accelerate the FP32-accumulate distance kernel.
    pub fn t4() -> Self {
        DeviceProfile {
            name: "Tesla-T4",
            sm_count: 40,
            clock_ghz: 1.59,
            cuda_fp32_gflops: 8_100.0,
            cuda_fp64_gflops: 253.0,
            tensor_fp32_gflops: 24_000.0,
            tensor_fp64_gflops: 0.0,
            mem_bw_gbs: 320.0,
            l2_bytes: 4 * 1024 * 1024,
            smem_per_sm: 64 * 1024,
            smem_per_block: 64 * 1024,
            regs_per_sm: 65_536,
            regs_per_thread: 255,
            max_threads_per_sm: 1024,
            max_blocks_per_sm: 16,
            max_threads_per_block: 1024,
            has_async_copy: false,
            launch_overhead_us: 5.0,
        }
    }

    /// Sustained CUDA-core throughput for a precision.
    pub fn cuda_gflops(&self, p: Precision) -> f64 {
        match p {
            Precision::Fp32 => self.cuda_fp32_gflops,
            Precision::Fp64 => self.cuda_fp64_gflops,
        }
    }

    /// Peak warps per SM.
    pub fn max_warps_per_sm(&self) -> usize {
        self.max_threads_per_sm / 32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_matches_paper_quotes() {
        let d = DeviceProfile::a100();
        assert_eq!(d.sm_count, 108);
        assert!((d.cuda_fp32_gflops - 19_500.0).abs() < 1.0);
        assert!((d.cuda_fp64_gflops - 9_700.0).abs() < 1.0);
        assert!((d.mem_bw_gbs - 1555.0).abs() < 1.0);
        assert!(d.has_async_copy);
    }

    #[test]
    fn t4_matches_paper_quotes() {
        let d = DeviceProfile::t4();
        assert!((d.cuda_fp32_gflops - 8_100.0).abs() < 1.0);
        assert!((d.cuda_fp64_gflops - 253.0).abs() < 1.0);
        assert!((d.mem_bw_gbs - 320.0).abs() < 1.0);
        assert!(!d.has_async_copy);
        assert_eq!(d.tensor_fp64_gflops, 0.0, "T4 has no FP64 tensor path");
    }

    #[test]
    fn precision_bytes() {
        assert_eq!(Precision::Fp32.bytes(), 4);
        assert_eq!(Precision::Fp64.bytes(), 8);
        assert_eq!(Precision::all().len(), 2);
    }

    #[test]
    fn warps_per_sm() {
        assert_eq!(DeviceProfile::a100().max_warps_per_sm(), 64);
        assert_eq!(DeviceProfile::t4().max_warps_per_sm(), 32);
    }
}
