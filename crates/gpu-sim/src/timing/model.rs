//! The analytic kernel-time estimator.
//!
//! Shapes follow the GEMM mapping used throughout the paper: for M samples
//! of dimension N clustered into K centroids, the distance computation is a
//! GEMM with `Gm = M` (samples), `Gn = K` (clusters), `Gk = N` (features).
//! [`GemmShape`] stores `(m, n, k)` in *that* order: `m` = samples,
//! `n` = clusters, `k` = features.
//!
//! The estimate composes explicit legs:
//!
//! * **issue leg** — padded payload FLOPs over a composite issue ceiling,
//!   scaled by occupancy (`f_occ`), k-loop fill (`g_k`) and tile ILP (`h`),
//! * **tensor-pipe leg** — payload + ABFT checksum MMAs over the raw MMA
//!   throughput (this is where FP64 ABFT overhead surfaces),
//! * **memory leg** — DRAM traffic with L2 reuse of operands that fit,
//! * **epilogue** — fused row-min + global argmin merges,
//! * **overheads** — wave quantization, kernel launches, fault-injection
//!   recovery costs per scheme.
//!
//! Tile-quantization waste (`util`) is implicit in the padded FLOP counts:
//! a fixed `Threadblock.N = 256` at `Gn = 8` pays 32× the useful work,
//! which is the paper's core explanation for cuML's losses (§V-A6).

use crate::device::{DeviceProfile, Precision};
use crate::dim::{ceil_div, round_up};
use crate::mma::shapes;
use crate::shared::staged_smem_bytes;
use crate::timing::calibration::Calibration;
use crate::timing::occupancy::{occupancy, tensor_regs_per_thread};

/// GEMM problem shape in the paper's mapping: `m` samples, `n` clusters,
/// `k` features.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmShape {
    /// Number of samples (GEMM M).
    pub m: usize,
    /// Number of clusters (GEMM N).
    pub n: usize,
    /// Feature dimension (GEMM K).
    pub k: usize,
}

impl GemmShape {
    pub fn new(m: usize, n: usize, k: usize) -> Self {
        GemmShape { m, n, k }
    }

    /// Useful distance-computation FLOPs, `2·M·N·K` as the paper reports.
    pub fn useful_flops(&self) -> f64 {
        2.0 * self.m as f64 * self.n as f64 * self.k as f64
    }
}

/// Tiling of the tensor-core kernel: threadblock tile, warp tile and
/// pipeline depth. `wk == tb_k` per the paper's enumeration rule 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileConfig {
    pub tb_m: usize,
    pub tb_n: usize,
    pub tb_k: usize,
    pub wm: usize,
    pub wn: usize,
    /// Pipeline stages (3 with `cp.async`, 2 with register double-buffering).
    pub k_stages: usize,
}

impl TileConfig {
    /// Warps per threadblock.
    pub fn warps(&self) -> usize {
        (self.tb_m / self.wm) * (self.tb_n / self.wn)
    }

    /// Threads per threadblock.
    pub fn threads(&self) -> usize {
        self.warps() * 32
    }

    /// Shared-memory bytes for the staged pipeline.
    pub fn smem_bytes(&self, precision: Precision) -> usize {
        staged_smem_bytes(
            self.tb_m,
            self.tb_n,
            self.tb_k,
            self.k_stages,
            precision.bytes(),
        )
    }

    /// Number of MMA tiles per warp `(m_w, n_w)` for a precision — the
    /// denominators of the paper's ABFT overhead ratio `3/(m_w·n_w)`.
    pub fn mma_tiles(&self, precision: Precision) -> (usize, usize) {
        let (tm, tn, _) = match precision {
            Precision::Fp32 => shapes::FP32_MMA,
            Precision::Fp64 => shapes::FP64_MMA,
        };
        (ceil_div(self.wm, tm), ceil_div(self.wn, tn))
    }
}

/// Fault-tolerance scheme applied to the distance kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FtMode {
    /// No protection.
    None,
    /// FT K-means: warp-level two-sided checksums, online detection and
    /// location-encoded correction (the paper's scheme).
    FtKMeans,
    /// Kosaian & Rashmi: warp-level detection only; correction recomputes.
    Kosaian,
    /// Wu et al. (ICS'23): threadblock-level checksums relying on
    /// register-staged copies; on Ampere it must re-read operands.
    Wu,
}

/// Which kernel implementation computes the distance/assignment step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelClass {
    /// Thread-per-sample baseline (§III-A1).
    Naive,
    /// SIMT GEMM + separate row-min kernel (§III-A2).
    GemmV1,
    /// SIMT GEMM with thread/threadblock fused reduction (§III-A3).
    FusedV2,
    /// Fully fused with threadblock broadcast (§III-A4).
    BroadcastV3,
    /// Tensor-core pipeline kernel with the given tiling (§III-A5).
    Tensor(TileConfig),
}

/// Everything the estimator needs.
#[derive(Debug, Clone)]
pub struct TimingInput<'a> {
    pub device: &'a DeviceProfile,
    pub precision: Precision,
    pub class: KernelClass,
    pub shape: GemmShape,
    pub ft: FtMode,
    /// Expected transient-error arrivals per second of kernel time.
    pub inj_rate_hz: f64,
}

impl<'a> TimingInput<'a> {
    /// Convenience constructor with no fault tolerance and no injection.
    pub fn plain(
        device: &'a DeviceProfile,
        precision: Precision,
        class: KernelClass,
        shape: GemmShape,
    ) -> Self {
        TimingInput {
            device,
            precision,
            class,
            shape,
            ft: FtMode::None,
            inj_rate_hz: 0.0,
        }
    }
}

/// The estimator's output: total time plus the breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelTiming {
    /// End-to-end kernel time, seconds (`f64::INFINITY` if the
    /// configuration cannot launch).
    pub time_s: f64,
    /// Useful throughput, GFLOP/s (`2·M·N·K / time`).
    pub gflops: f64,
    /// Issue-leg time, seconds.
    pub t_issue: f64,
    /// Tensor-pipe leg time (payload + checksum MMAs), seconds.
    pub t_tensor: f64,
    /// DRAM leg time, seconds.
    pub t_memory: f64,
    /// Epilogue (row-min + atomic merges), seconds.
    pub t_epilogue: f64,
    /// Wave/launch overheads, seconds.
    pub t_overhead: f64,
    /// Fault-injection recovery time, seconds.
    pub t_recovery: f64,
    /// Achieved occupancy ratio (tensor kernels; 0 for SIMT classes).
    pub occupancy: f64,
    /// Threadblocks launched.
    pub blocks: usize,
    /// True when the configuration fits the device.
    pub feasible: bool,
}

impl std::fmt::Display for KernelTiming {
    /// Roofline-style breakdown, e.g.
    /// `243.1 us (17.7 TFLOP/s) | issue 210.2 us | tensor 66.1 us | mem 48.2 us | epi 26.4 us | ovh 18.0 us`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if !self.feasible {
            return write!(f, "infeasible configuration");
        }
        let us = |t: f64| t * 1e6;
        write!(
            f,
            "{:.1} us ({:.1} TFLOP/s) | issue {:.1} us | tensor {:.1} us | mem {:.1} us | epi {:.1} us | ovh {:.1} us",
            us(self.time_s),
            self.gflops / 1000.0,
            us(self.t_issue),
            us(self.t_tensor),
            us(self.t_memory),
            us(self.t_epilogue),
            us(self.t_overhead + self.t_recovery),
        )
    }
}

impl KernelTiming {
    /// The leg that bounds this kernel ("issue", "tensor", "memory",
    /// "epilogue" or "overhead") — the roofline diagnosis.
    pub fn binding_leg(&self) -> &'static str {
        let legs = [
            (self.t_issue, "issue"),
            (self.t_tensor, "tensor"),
            (self.t_memory, "memory"),
            (self.t_epilogue, "epilogue"),
            (self.t_overhead + self.t_recovery, "overhead"),
        ];
        legs.into_iter()
            .max_by(|a, b| a.0.partial_cmp(&b.0).expect("finite legs"))
            .map(|(_, n)| n)
            .expect("non-empty")
    }

    fn infeasible() -> Self {
        KernelTiming {
            time_s: f64::INFINITY,
            gflops: 0.0,
            t_issue: f64::INFINITY,
            t_tensor: 0.0,
            t_memory: 0.0,
            t_epilogue: 0.0,
            t_overhead: 0.0,
            t_recovery: 0.0,
            occupancy: 0.0,
            blocks: 0,
            feasible: false,
        }
    }
}

/// DRAM traffic for the operand tiles of a blocked GEMM, with L2 reuse: an
/// operand whose footprint fits in L2 is fetched from DRAM once regardless
/// of how many threadblocks read it.
fn operand_dram_bytes(
    device: &DeviceProfile,
    shape: GemmShape,
    tb_m: usize,
    tb_n: usize,
    gk_pad: usize,
    es: usize,
) -> f64 {
    let bm = ceil_div(shape.m, tb_m);
    let bn = ceil_div(shape.n, tb_n);
    let a_footprint = shape.m * shape.k * es;
    let b_footprint = shape.n * shape.k * es;
    // A (samples): each block-column of the grid streams all of A.
    let a_bytes = if a_footprint <= device.l2_bytes {
        a_footprint as f64
    } else {
        (bn * shape.m * gk_pad * es) as f64
    };
    // B (centroids): usually tiny; fits L2 → one DRAM pass.
    let b_bytes = if b_footprint <= device.l2_bytes {
        b_footprint as f64
    } else {
        (bm * shape.n * gk_pad * es) as f64
    };
    a_bytes + b_bytes
}

/// Estimate kernel time for `input` with the default calibration.
pub fn estimate(input: &TimingInput) -> KernelTiming {
    let cal = Calibration::for_device(input.device, input.precision);
    estimate_with(input, &cal)
}

/// Estimate kernel time with an explicit calibration — the entry point for
/// ablation studies that switch individual model terms off.
pub fn estimate_with(input: &TimingInput, cal: &Calibration) -> KernelTiming {
    match input.class {
        KernelClass::Tensor(tile) => estimate_tensor(input, tile, cal),
        KernelClass::Naive => estimate_naive(input, cal),
        KernelClass::GemmV1 | KernelClass::FusedV2 | KernelClass::BroadcastV3 => {
            estimate_simt(input, cal)
        }
    }
}

fn estimate_tensor(input: &TimingInput, tile: TileConfig, cal: &Calibration) -> KernelTiming {
    let dev = input.device;
    let p = input.precision;
    let es = p.bytes();
    let shape = input.shape;

    if tile.wm == 0
        || tile.wn == 0
        || !tile.tb_m.is_multiple_of(tile.wm)
        || !tile.tb_n.is_multiple_of(tile.wn)
        || tile.tb_k == 0
    {
        return KernelTiming::infeasible();
    }

    let bm = ceil_div(shape.m, tile.tb_m);
    let bn = ceil_div(shape.n, tile.tb_n);
    let blocks = bm * bn;
    let mma_k = match p {
        Precision::Fp32 => shapes::FP32_MMA.2,
        Precision::Fp64 => shapes::FP64_MMA.2,
    };
    // K-dimension padding happens at MMA granularity: CUTLASS's k-residue
    // handling stops the main loop at the last partially-filled MMA slab,
    // so a shallow feature dimension does not pay for the whole
    // Threadblock.K tile.
    let gk_pad = round_up(shape.k.max(1), mma_k);

    let threads = tile.threads();
    let smem = tile.smem_bytes(p);
    let regs = tensor_regs_per_thread(tile.wm, tile.wn, mma_k, p);
    if threads > dev.max_threads_per_block || smem > dev.smem_per_block {
        return KernelTiming::infeasible();
    }
    let occ = occupancy(dev, threads, smem, regs);
    if occ.blocks_per_sm == 0 {
        return KernelTiming::infeasible();
    }

    // --- efficiency factors -------------------------------------------------
    let aw = occ.active_warps as f64;
    let f_occ = aw / (aw + cal.occ_half_sat_warps);
    let iters = (gk_pad as f64 / tile.tb_k as f64).max(1.0).ceil();
    let g_k = iters / (iters + cal.kloop_fill_frac * (tile.k_stages as f64 - 1.0));
    let r = (tile.wm * tile.wn) as f64 / (tile.wm + tile.wn) as f64;
    let h_tile = r / (r + cal.tile_ilp_offset);
    // Vectorization/alignment factor (paper §V-A6): "the memory alignment
    // requirement for FP64 is more strict than FP32 and is fixed to 1 in
    // CUTLASS's implementation. So the degree of vectorization for FP64 is
    // lower. So a balanced data fetching pattern is crucial" — narrow
    // Threadblock.N tiles lose their padding advantage at FP64, which is
    // why the paper's FP64 speedups over cuML are marginal (Fig. 12).
    let vec_n = match p {
        Precision::Fp32 => (tile.tb_n as f64 / 32.0).min(1.0),
        Precision::Fp64 => (tile.tb_n as f64 / 64.0).min(1.0),
    };
    let eff = f_occ * g_k * h_tile * vec_n;

    // --- compute legs -------------------------------------------------------
    let padded_flops = 2.0 * (bm * tile.tb_m) as f64 * (bn * tile.tb_n) as f64 * gk_pad as f64;
    let issue_ceiling = match input.ft {
        FtMode::Wu => cal.s_issue_gflops * cal.wu_issue_penalty,
        _ => cal.s_issue_gflops,
    };
    // Fixed per-k-iteration cost: shallow K tiles iterate more often per
    // FLOP, paying barriers/pointer math/copy issue each time.
    let kiter_work = 1.0 + cal.kiter_overhead_frac * 16.0 / tile.tb_k as f64;
    let t_issue = padded_flops * kiter_work / (issue_ceiling * 1e9 * eff);

    let (m_w, n_w) = tile.mma_tiles(p);
    let ft_mma_frac = match input.ft {
        FtMode::None => 0.0,
        // Three checksum MMAs (e1ᵀXYe1, e1ᵀXYe2, e2ᵀXYe1) per m_w·n_w
        // payload MMAs (paper §IV-A).
        FtMode::FtKMeans => 3.0 / (m_w * n_w) as f64,
        // Detection-only needs a single checksum product.
        FtMode::Kosaian => 1.0 / (m_w * n_w) as f64,
        // Threadblock-level double checksum: two products amortized over the
        // whole block tile — negligible MMA cost, the damage is elsewhere.
        FtMode::Wu => 2.0 / ((m_w * n_w) as f64 * tile.warps() as f64),
    };
    let t_tensor =
        padded_flops * (1.0 + ft_mma_frac) / (cal.s_tensor_gflops * 1e9 * f_occ * g_k * vec_n);

    // --- memory leg ----------------------------------------------------------
    let mut dram_bytes = operand_dram_bytes(dev, shape, tile.tb_m, tile.tb_n, gk_pad, es);
    if input.ft == FtMode::Wu && dev.has_async_copy {
        // Register-reuse checksums impossible: Wu re-reads operand tiles.
        dram_bytes *= 1.0 + cal.wu_reread_frac;
    }
    // Assignment output: one (index, distance) pair per sample.
    dram_bytes += (shape.m * (4 + es)) as f64;
    let t_memory = dram_bytes / (dev.mem_bw_gbs * 1e9 * cal.mem_efficiency);

    // --- overlap -------------------------------------------------------------
    let legs = [t_issue, t_tensor, t_memory];
    let t_max = legs.iter().cloned().fold(0.0, f64::max);
    let overlapped = dev.has_async_copy && input.ft != FtMode::Wu;
    let t_main = if overlapped {
        t_max
    } else {
        // Without cp.async, a fraction of the shorter legs serializes.
        let rest: f64 = legs.iter().sum::<f64>() - t_max;
        t_max + cal.no_async_serial_frac * rest
    };

    // --- epilogue ------------------------------------------------------------
    let epi_flops = (blocks * tile.tb_m * tile.tb_n) as f64 * cal.epilogue_flops_per_elem;
    let t_epi_compute = epi_flops / (dev.cuda_gflops(p) * 1e9 * f_occ);
    let merges = (blocks * tile.tb_m) as f64;
    let t_atomic = merges * cal.atomic_merge_ns * 1e-9 / dev.sm_count as f64;
    let t_epilogue = t_epi_compute + t_atomic;

    // --- fixed overheads -----------------------------------------------------
    let waves = ceil_div(blocks, dev.sm_count * occ.blocks_per_sm);
    let mut t_overhead = waves as f64 * cal.wave_overhead_us * 1e-6 + dev.launch_overhead_us * 1e-6;
    // Online detection sweeps (every `detect_interval_k` steps + final).
    if input.ft != FtMode::None {
        let sweeps = (gk_pad as f64 / cal.detect_interval_k as f64)
            .ceil()
            .max(1.0);
        let detect_flops =
            (blocks * tile.tb_m * tile.tb_n) as f64 * cal.detect_flops_per_elem * sweeps;
        t_overhead += detect_flops / (dev.cuda_gflops(p) * 1e9 * f_occ);
        if input.ft == FtMode::Wu {
            t_overhead += waves as f64 * iters * cal.wu_block_sync_us * 1e-6;
        }
    }

    // --- fault recovery ------------------------------------------------------
    let nominal = t_main + t_epilogue + t_overhead;
    let expected_errors = input.inj_rate_hz * nominal;
    let t_recovery = if expected_errors > 0.0 && input.ft != FtMode::None {
        let per_error = match input.ft {
            FtMode::FtKMeans => cal.err_fix_us_ftk * 1e-6,
            FtMode::Kosaian | FtMode::Wu => {
                // Recompute one detection interval (Kosaian) or the whole
                // block tile (Wu) on one SM while the rest of the wave waits.
                let interval_frac = match input.ft {
                    FtMode::Kosaian => {
                        (cal.detect_interval_k as f64 / gk_pad as f64).min(1.0)
                            * cal.recompute_interval_frac
                    }
                    _ => 1.0,
                };
                let block_flops = 2.0 * (tile.tb_m * tile.tb_n) as f64 * gk_pad as f64;
                block_flops * interval_frac
                    / (cal.s_tensor_gflops * 1e9 / dev.sm_count as f64 / occ.blocks_per_sm as f64)
                        .max(1.0)
            }
            FtMode::None => 0.0,
        };
        expected_errors * per_error
    } else {
        0.0
    };

    let time_s = nominal + t_recovery;
    KernelTiming {
        time_s,
        gflops: shape.useful_flops() / time_s / 1e9,
        t_issue,
        t_tensor,
        t_memory,
        t_epilogue,
        t_overhead,
        t_recovery,
        occupancy: occ.ratio,
        blocks,
        feasible: true,
    }
}

fn estimate_naive(input: &TimingInput, cal: &Calibration) -> KernelTiming {
    let dev = input.device;
    let p = input.precision;
    let es = p.bytes();
    let shape = input.shape;

    // Thread-per-sample: centroids cached, samples streamed, but scalar
    // loads and no tiling keep the achieved rate at a few percent of peak.
    let t_compute = shape.useful_flops() / (dev.cuda_gflops(p) * 1e9 * cal.naive_frac_of_cuda);
    let bytes = (shape.m * shape.k * es + shape.n * shape.k * es + shape.m * 4) as f64;
    let t_memory = bytes / (dev.mem_bw_gbs * 1e9 * cal.mem_efficiency);
    let t_main = t_compute.max(t_memory);
    let t_overhead = dev.launch_overhead_us * 1e-6;
    let time_s = t_main + t_overhead;
    KernelTiming {
        time_s,
        gflops: shape.useful_flops() / time_s / 1e9,
        t_issue: t_compute,
        t_tensor: 0.0,
        t_memory,
        t_epilogue: 0.0,
        t_overhead,
        t_recovery: 0.0,
        occupancy: 0.0,
        blocks: ceil_div(shape.m, 256),
        feasible: true,
    }
}

fn estimate_simt(input: &TimingInput, cal: &Calibration) -> KernelTiming {
    let dev = input.device;
    let p = input.precision;
    let es = p.bytes();
    let shape = input.shape;

    // Fixed SIMT tiling used by the hand-written V1–V3 kernels.
    let (tb_m, tb_n) = (128usize, 64usize);
    let bm = ceil_div(shape.m, tb_m);
    let bn = ceil_div(shape.n, tb_n);
    let blocks = bm * bn;
    let gk_pad = round_up(shape.k.max(1), 8);
    let padded_flops = 2.0 * (bm * tb_m) as f64 * (bn * tb_n) as f64 * gk_pad as f64;

    let rate = match input.class {
        KernelClass::GemmV1 => cal.s_simt_v1_gflops,
        KernelClass::FusedV2 => cal.s_simt_v2_gflops,
        KernelClass::BroadcastV3 => cal.s_simt_v3_gflops,
        _ => unreachable!("estimate_simt called with non-SIMT class"),
    };
    let t_compute = padded_flops / (rate * 1e9);

    let mut dram = operand_dram_bytes(dev, shape, tb_m, tb_n, gk_pad, es);
    let mut t_extra = 0.0;
    let bw = dev.mem_bw_gbs * 1e9 * cal.mem_efficiency;
    match input.class {
        KernelClass::GemmV1 => {
            // Write the full distance matrix, then a second kernel re-reads
            // it for the row-min reduction.
            let c_bytes = (shape.m * shape.n * es) as f64;
            dram += c_bytes; // write
            t_extra += c_bytes / bw // reduction read
                + (shape.m * 4) as f64 / bw // assignment write
                + dev.launch_overhead_us * 1e-6; // extra kernel
        }
        KernelClass::FusedV2 => {
            // Per-block partial minima written, then a small second kernel.
            let partial_bytes = (shape.m * bn * (es + 4)) as f64;
            dram += partial_bytes;
            t_extra += partial_bytes / bw + dev.launch_overhead_us * 1e-6;
        }
        KernelClass::BroadcastV3 => {
            // Fully fused: per-row atomic merges instead of a second kernel.
            let merges = (blocks * tb_m) as f64;
            t_extra += merges * cal.atomic_merge_ns * 1e-9 / dev.sm_count as f64;
        }
        _ => unreachable!(),
    }
    dram += (shape.m * (4 + es)) as f64;
    let t_memory = dram / bw;

    let t_main = if dev.has_async_copy {
        t_compute.max(t_memory)
    } else {
        t_compute.max(t_memory) + cal.no_async_serial_frac * t_compute.min(t_memory)
    };
    let t_overhead = dev.launch_overhead_us * 1e-6;
    let time_s = t_main + t_extra + t_overhead;
    KernelTiming {
        time_s,
        gflops: shape.useful_flops() / time_s / 1e9,
        t_issue: t_compute,
        t_tensor: 0.0,
        t_memory,
        t_epilogue: t_extra,
        t_overhead,
        t_recovery: 0.0,
        occupancy: 0.0,
        blocks,
        feasible: true,
    }
}

/// Time for the memory-bound centroid-update phase (atomicAdd accumulation
/// plus averaging), optionally with DMR duplication of the arithmetic.
/// DMR duplicates only compute, which hides behind the memory latency; the
/// paper measures less than 1% overhead (§I, §IV).
pub fn estimate_update(
    device: &DeviceProfile,
    precision: Precision,
    shape: GemmShape,
    dmr: bool,
) -> KernelTiming {
    let cal = Calibration::for_device(device, precision);
    let es = precision.bytes();
    let bytes = (shape.m * shape.k * es) as f64 // read samples
        + (shape.m * 4) as f64 // read assignments
        + (shape.n * shape.k * es) as f64; // write centroids
    let t_memory = bytes / (device.mem_bw_gbs * 1e9 * cal.mem_efficiency);
    // Atomic adds: one per sample-feature, but they coalesce per cluster;
    // charge a throughput term.
    let atomics = (shape.m * shape.k) as f64;
    let t_atomic = atomics * 0.25e-9 / device.sm_count as f64;
    let flops = (shape.m * shape.k) as f64 * if dmr { 2.0 } else { 1.0 };
    // DMR additionally re-executes the comparison per element.
    let t_compute = flops / (device.cuda_gflops(precision) * 1e9 * 0.2);
    let t_main = t_memory.max(t_compute) + t_atomic;
    let time_s = t_main + device.launch_overhead_us * 1e-6;
    KernelTiming {
        time_s,
        gflops: flops / time_s / 1e9,
        t_issue: t_compute,
        t_tensor: 0.0,
        t_memory,
        t_epilogue: t_atomic,
        t_overhead: device.launch_overhead_us * 1e-6,
        t_recovery: 0.0,
        occupancy: 0.0,
        blocks: ceil_div(shape.m, 256),
        feasible: true,
    }
}

/// Time for the §III-A1 *basic* update: one kernel per centroid, each
/// streaming all M samples' labels (and the matching samples' features).
/// This is the baseline behind the paper's "25x compared to the basic
/// implementation" claim once combined with the naive assignment.
pub fn estimate_update_naive(
    device: &DeviceProfile,
    precision: Precision,
    shape: GemmShape,
) -> KernelTiming {
    let cal = Calibration::for_device(device, precision);
    let es = precision.bytes();
    // Every one of the K launches scans all labels, and — because feature
    // rows share cache lines with neighbouring samples — the predicated
    // feature loads still pull most of the sample matrix through DRAM on
    // every launch.
    let bytes = (shape.n * shape.m) as f64 * (4.0 + (shape.k * es) as f64 * 0.75);
    let t_memory = bytes / (device.mem_bw_gbs * 1e9 * cal.mem_efficiency);
    let t_overhead = shape.n as f64 * device.launch_overhead_us * 1e-6;
    let time_s = t_memory + t_overhead;
    KernelTiming {
        time_s,
        gflops: (shape.m * shape.k) as f64 / time_s / 1e9,
        t_issue: 0.0,
        t_tensor: 0.0,
        t_memory,
        t_epilogue: 0.0,
        t_overhead,
        t_recovery: 0.0,
        occupancy: 0.0,
        blocks: ceil_div(shape.m, 256) * shape.n,
        feasible: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// cuML's fixed FP32 tiling (Table I).
    fn cuml_fp32() -> TileConfig {
        TileConfig {
            tb_m: 32,
            tb_n: 256,
            tb_k: 16,
            wm: 32,
            wn: 64,
            k_stages: 3,
        }
    }

    /// A strong tuned FP32 tiling (paper parameter 83).
    fn tuned_fp32() -> TileConfig {
        TileConfig {
            tb_m: 64,
            tb_n: 128,
            tb_k: 16,
            wm: 64,
            wn: 32,
            k_stages: 3,
        }
    }

    /// cuML's fixed FP64 tiling (Table I, same as paper parameter 19).
    fn cuml_fp64() -> TileConfig {
        TileConfig {
            tb_m: 64,
            tb_n: 64,
            tb_k: 16,
            wm: 32,
            wn: 32,
            k_stages: 3,
        }
    }

    fn fig7_shape() -> GemmShape {
        GemmShape::new(131072, 128, 128)
    }

    fn assert_within(actual: f64, target: f64, rel: f64, what: &str) {
        let lo = target * (1.0 - rel);
        let hi = target * (1.0 + rel);
        assert!(
            actual >= lo && actual <= hi,
            "{what}: {actual:.1} not within {rel:.0e} of {target:.1}",
            rel = rel * 100.0
        );
    }

    // ---- Fig. 7 anchors (A100, FP32, M=131072, N=128) ----------------------

    #[test]
    fn fig7_naive_anchor() {
        let dev = DeviceProfile::a100();
        let t = estimate(&TimingInput::plain(
            &dev,
            Precision::Fp32,
            KernelClass::Naive,
            fig7_shape(),
        ));
        assert_within(t.gflops, 482.0, 0.30, "naive GFLOPS");
    }

    #[test]
    fn fig7_simt_ladder() {
        let dev = DeviceProfile::a100();
        let s = fig7_shape();
        let v1 = estimate(&TimingInput::plain(
            &dev,
            Precision::Fp32,
            KernelClass::GemmV1,
            s,
        ));
        let v2 = estimate(&TimingInput::plain(
            &dev,
            Precision::Fp32,
            KernelClass::FusedV2,
            s,
        ));
        let v3 = estimate(&TimingInput::plain(
            &dev,
            Precision::Fp32,
            KernelClass::BroadcastV3,
            s,
        ));
        assert_within(v1.gflops, 4662.0, 0.25, "V1");
        assert_within(v2.gflops, 5902.0, 0.25, "V2");
        assert_within(v3.gflops, 6916.0, 0.25, "V3");
        assert!(v1.gflops < v2.gflops && v2.gflops < v3.gflops);
    }

    #[test]
    fn fig7_tensor_and_cuml_anchors() {
        let dev = DeviceProfile::a100();
        let s = fig7_shape();
        let tuned = estimate(&TimingInput::plain(
            &dev,
            Precision::Fp32,
            KernelClass::Tensor(tuned_fp32()),
            s,
        ));
        let cuml = estimate(&TimingInput::plain(
            &dev,
            Precision::Fp32,
            KernelClass::Tensor(cuml_fp32()),
            s,
        ));
        assert_within(tuned.gflops, 17686.0, 0.30, "tuned tensor");
        assert_within(cuml.gflops, 9676.0, 0.30, "cuML");
        let ratio = tuned.gflops / cuml.gflops;
        assert!(ratio > 1.4 && ratio < 2.6, "tuned/cuML ratio {ratio:.2}");
    }

    // ---- tile quantization: the headline mechanism -------------------------

    #[test]
    fn cuml_collapses_at_small_cluster_count() {
        let dev = DeviceProfile::a100();
        // 8 clusters: cuML's Threadblock.N = 256 wastes 31/32 of the work.
        let s = GemmShape::new(131072, 8, 128);
        let cuml = estimate(&TimingInput::plain(
            &dev,
            Precision::Fp32,
            KernelClass::Tensor(cuml_fp32()),
            s,
        ));
        let narrow = TileConfig {
            tb_m: 256,
            tb_n: 32,
            tb_k: 16,
            wm: 64,
            wn: 32,
            k_stages: 3,
        };
        let tuned = estimate(&TimingInput::plain(
            &dev,
            Precision::Fp32,
            KernelClass::Tensor(narrow),
            s,
        ));
        assert!(
            tuned.gflops / cuml.gflops > 2.0,
            "narrow tile should beat cuML by >2x at N=8 (got {:.2})",
            tuned.gflops / cuml.gflops
        );
    }

    // ---- ABFT overhead shapes ----------------------------------------------

    #[test]
    fn abft_overhead_hidden_for_fp32() {
        let dev = DeviceProfile::a100();
        let s = fig7_shape();
        let base = estimate(&TimingInput::plain(
            &dev,
            Precision::Fp32,
            KernelClass::Tensor(tuned_fp32()),
            s,
        ));
        let ft = estimate(&TimingInput {
            ft: FtMode::FtKMeans,
            ..TimingInput::plain(&dev, Precision::Fp32, KernelClass::Tensor(tuned_fp32()), s)
        });
        let overhead = ft.time_s / base.time_s - 1.0;
        assert!(
            overhead < 0.05,
            "FP32 ABFT overhead should be <5%, got {:.1}%",
            overhead * 100.0
        );
    }

    #[test]
    fn abft_overhead_exposed_for_fp64_compute_bound() {
        let dev = DeviceProfile::a100();
        let s = fig7_shape();
        let base = estimate(&TimingInput::plain(
            &dev,
            Precision::Fp64,
            KernelClass::Tensor(cuml_fp64()),
            s,
        ));
        let ft = estimate(&TimingInput {
            ft: FtMode::FtKMeans,
            ..TimingInput::plain(&dev, Precision::Fp64, KernelClass::Tensor(cuml_fp64()), s)
        });
        let overhead = ft.time_s / base.time_s - 1.0;
        // Paper: ~20% at K=128 (compute bound), 13% average.
        assert!(
            overhead > 0.08 && overhead < 0.30,
            "FP64 ABFT overhead should be 8-30%, got {:.1}%",
            overhead * 100.0
        );
    }

    #[test]
    fn wu_scheme_pays_on_ampere() {
        let dev = DeviceProfile::a100();
        let s = fig7_shape();
        let mk = |ft| {
            estimate(&TimingInput {
                ft,
                ..TimingInput::plain(&dev, Precision::Fp32, KernelClass::Tensor(tuned_fp32()), s)
            })
        };
        let ftk = mk(FtMode::FtKMeans);
        let wu = mk(FtMode::Wu);
        let rel = wu.time_s / ftk.time_s - 1.0;
        assert!(
            rel > 0.15,
            "Wu should be >15% slower than FT K-means on A100, got {:.1}%",
            rel * 100.0
        );
    }

    #[test]
    fn wu_scheme_pays_sync_on_t4() {
        let dev = DeviceProfile::t4();
        let s = fig7_shape();
        let tile = TileConfig {
            tb_m: 64,
            tb_n: 128,
            tb_k: 16,
            wm: 64,
            wn: 32,
            k_stages: 2,
        };
        let mk = |ft| {
            estimate(&TimingInput {
                ft,
                inj_rate_hz: 10.0,
                ..TimingInput::plain(&dev, Precision::Fp32, KernelClass::Tensor(tile), s)
            })
        };
        let ftk = mk(FtMode::FtKMeans);
        let wu = mk(FtMode::Wu);
        let rel = wu.time_s / ftk.time_s - 1.0;
        assert!(
            rel > 0.3,
            "Wu should be much slower than FT K-means on T4, got {:.1}%",
            rel * 100.0
        );
    }

    #[test]
    fn injection_adds_little_for_ftkmeans() {
        let dev = DeviceProfile::a100();
        let s = fig7_shape();
        let base = estimate(&TimingInput {
            ft: FtMode::FtKMeans,
            ..TimingInput::plain(&dev, Precision::Fp32, KernelClass::Tensor(tuned_fp32()), s)
        });
        let inj = estimate(&TimingInput {
            ft: FtMode::FtKMeans,
            inj_rate_hz: 50.0,
            ..TimingInput::plain(&dev, Precision::Fp32, KernelClass::Tensor(tuned_fp32()), s)
        });
        let rel = inj.time_s / base.time_s - 1.0;
        assert!(
            rel < 0.10,
            "injection overhead should be <10%, got {:.1}%",
            rel * 100.0
        );
    }

    // ---- structural properties ---------------------------------------------

    #[test]
    fn infeasible_configs_are_flagged() {
        let dev = DeviceProfile::a100();
        // absurd shared-memory demand
        let huge = TileConfig {
            tb_m: 512,
            tb_n: 512,
            tb_k: 32,
            wm: 64,
            wn: 64,
            k_stages: 4,
        };
        let t = estimate(&TimingInput::plain(
            &dev,
            Precision::Fp64,
            KernelClass::Tensor(huge),
            fig7_shape(),
        ));
        assert!(!t.feasible);
        assert!(t.time_s.is_infinite());
        // warp tile not dividing threadblock tile
        let bad = TileConfig {
            tb_m: 48,
            tb_n: 64,
            tb_k: 16,
            wm: 32,
            wn: 32,
            k_stages: 3,
        };
        assert!(
            !estimate(&TimingInput::plain(
                &dev,
                Precision::Fp32,
                KernelClass::Tensor(bad),
                fig7_shape()
            ))
            .feasible
        );
    }

    #[test]
    fn more_bandwidth_never_slower() {
        let mut dev = DeviceProfile::a100();
        let s = GemmShape::new(131072, 8, 8); // memory-bound corner
        let t1 = estimate(&TimingInput::plain(
            &dev,
            Precision::Fp64,
            KernelClass::Tensor(cuml_fp64()),
            s,
        ));
        dev.mem_bw_gbs *= 2.0;
        let t2 = estimate(&TimingInput::plain(
            &dev,
            Precision::Fp64,
            KernelClass::Tensor(cuml_fp64()),
            s,
        ));
        assert!(t2.time_s <= t1.time_s + 1e-12);
    }

    #[test]
    fn update_phase_dmr_is_cheap() {
        let dev = DeviceProfile::a100();
        let s = fig7_shape();
        let plain = estimate_update(&dev, Precision::Fp32, s, false);
        let dmr = estimate_update(&dev, Precision::Fp32, s, true);
        let rel = dmr.time_s / plain.time_s - 1.0;
        assert!(
            rel < 0.01,
            "DMR overhead must stay <1%, got {:.2}%",
            rel * 100.0
        );
    }

    #[test]
    fn useful_flops_formula() {
        assert_eq!(GemmShape::new(10, 20, 30).useful_flops(), 12000.0);
    }

    #[test]
    fn display_and_binding_leg() {
        let dev = DeviceProfile::a100();
        let t = estimate(&TimingInput::plain(
            &dev,
            Precision::Fp32,
            KernelClass::Tensor(tuned_fp32()),
            fig7_shape(),
        ));
        let s = t.to_string();
        assert!(s.contains("TFLOP/s"));
        assert!(s.contains("issue"));
        assert!(["issue", "tensor", "memory", "epilogue", "overhead"].contains(&t.binding_leg()));
        // FP64 at a big compute-bound shape must be tensor-bound.
        let t64 = estimate(&TimingInput::plain(
            &dev,
            Precision::Fp64,
            KernelClass::Tensor(cuml_fp64()),
            fig7_shape(),
        ));
        assert_eq!(t64.binding_leg(), "tensor");
        // infeasible prints as such
        let huge = TileConfig {
            tb_m: 512,
            tb_n: 512,
            tb_k: 32,
            wm: 64,
            wn: 64,
            k_stages: 4,
        };
        let bad = estimate(&TimingInput::plain(
            &dev,
            Precision::Fp64,
            KernelClass::Tensor(huge),
            fig7_shape(),
        ));
        assert_eq!(bad.to_string(), "infeasible configuration");
    }

    #[test]
    fn basic_iteration_is_roughly_25x_slower_than_v1() {
        // §III-A2: "Our optimization boosts the performance to 25x compared
        // to the basic implementation" — naive assign + per-centroid update
        // vs GEMM assign + fused update, whole-iteration time.
        let dev = DeviceProfile::a100();
        let s = fig7_shape();
        let basic = estimate(&TimingInput::plain(
            &dev,
            Precision::Fp32,
            KernelClass::Naive,
            s,
        ))
        .time_s
            + estimate_update_naive(&dev, Precision::Fp32, s).time_s;
        let v1 = estimate(&TimingInput::plain(
            &dev,
            Precision::Fp32,
            KernelClass::GemmV1,
            s,
        ))
        .time_s
            + estimate_update(&dev, Precision::Fp32, s, false).time_s;
        let ratio = basic / v1;
        assert!(
            (8.0..60.0).contains(&ratio),
            "basic/V1 iteration ratio {ratio:.1} should be ~25x"
        );
    }

    #[test]
    fn t4_is_slower_than_a100() {
        let a100 = DeviceProfile::a100();
        let t4 = DeviceProfile::t4();
        let s = fig7_shape();
        let tile = TileConfig {
            tb_m: 64,
            tb_n: 128,
            tb_k: 16,
            wm: 64,
            wn: 32,
            k_stages: 2,
        };
        let ta = estimate(&TimingInput::plain(
            &a100,
            Precision::Fp32,
            KernelClass::Tensor(tile),
            s,
        ));
        let tt = estimate(&TimingInput::plain(
            &t4,
            Precision::Fp32,
            KernelClass::Tensor(tile),
            s,
        ));
        assert!(ta.gflops > 1.5 * tt.gflops);
    }
}
