//! V4 — the tensor-core pipeline kernel (§III-A5, Fig. 4) with optional
//! online fault tolerance (§IV, Fig. 6).
//!
//! Per threadblock the kernel runs the paper's structure faithfully:
//!
//! 1. a `k_stage`-deep asynchronous copy pipeline stages A/B tiles into
//!    shared memory (`cp.async` + commit/wait groups, lines 03–09, 13–14,
//!    18–19). The ring, the warp accumulators and the online states live
//!    in per-worker block scratch ([`launch_grid_scratch`]): built once per
//!    claimed chunk of blocks, reset at every block start (accumulators
//!    zeroed, states cloned from the launch's template), the ring drained
//!    at every block end,
//! 2. each staged k-tile's live A rows are TF32-converted once per block
//!    into a row-major [`APanel`]. The B side is the same for every block
//!    of a grid column, so the live centroid rows of every (column block,
//!    k-tile) are TF32-converted into a k-major [`BPanel`] once per launch,
//!    before the grid. A block's B tile copies are charged (and
//!    sanitizer-checked) as before but not made, since only Wu's tile
//!    absorption reads them; under Wu they are copied.
//!    Every warp then issues its tensor-core MMA slabs over its
//!    `wm x wn` accumulator from the panels (line 17). Where the tile
//!    overhangs the problem (fewer than `tb_m` samples or `tb_n`
//!    centroids left), the padded lanes are charged like any other but not
//!    computed: a warp multiplies only its live rows and columns. A hook
//!    sees every slab of every warp in (warp row, slab, warp column) order,
//!    which its fault sites key on; an inert hook
//!    ([`FaultHook::is_inert`]) is not called,
//! 3. with FT enabled, input checksums are folded from the *register
//!    fragments* (lines 15–18 — no extra memory traffic, which is why the
//!    scheme survives `cp.async`) and three checksum MMAs accumulate the
//!    protected sums (lines 22–24). Each fragment's sums are computed once
//!    over its live rows (staged padding is `+0.0` and never hooked, so it
//!    would add nothing) and shared by every warp that consumes the
//!    fragment: an A fragment's once per block and k-tile, into stack
//!    scratch, a B fragment's once per launch, next to its panel. Each warp
//!    is still charged its own CUDA-core adds,
//! 4. every `DETECT_INTERVAL_K` steps and at the loop end the accumulator
//!    is verified and, for FT K-means, corrected in place via location
//!    encoding (lines 25–31). Under an inert hook the padded lanes still
//!    hold the `+0.0` they started with, so the non-finite scan and the
//!    observed checksums cover only a warp's live corner for the clean
//!    verdict. Any other verdict re-runs the whole-tile check, and a warp
//!    once corrected, re-baselined or recomputed sums its whole tile for
//!    the rest of the launch. Every check is charged the whole tile,
//! 5. the fused epilogue performs the row-minimum with the norm identity
//!    and merges it into the global argmin (threadblock broadcast). A
//!    row's distances are scanned lane-wise: 16 lanes each keep a running
//!    `(distance, column)` minimum with branch-free selects (at AVX-512F
//!    width where the host has it), and one tree reduce across the lanes
//!    ends the row. The pair it picks is the one a scan in column order
//!    picks, bits and ties included. The merge is charged as one atomic a
//!    row, and is a plain store into the block's column-block slot of an
//!    [`ArgminSlots`]; after the launch the host folds the column blocks
//!    in ascending order (no fold at all when `k <= tb_n`).
//!
//! Wu's threadblock-level scheme instead absorbs whole staged tiles; on
//! `cp.async` devices those values are *re-read from global memory*
//! (charged to `ft_extra_loads`) because the register-staged observation
//! path no longer exists.

use crate::assign::AssignmentResult;
use crate::device_data::DeviceData;
use crate::variants::{charge_tile_from_global, fill_tile_from_global};
use abft::online::{CheckOutcome, OnlineMode, WarpOnlineState};
use abft::schemes::wu::WuBlockState;
use abft::{SchemeKind, ThresholdPolicy};
use fault::CampaignStats;
use gpu_sim::atomics::{takes, ArgminSlots};
use gpu_sim::mma::{shapes, APanel, BPanel, FaultHook, FragmentMma, MmaSite, NoFault};
use gpu_sim::timing::TileConfig;
use gpu_sim::warp::frag_col_sums;
use gpu_sim::{
    launch_grid_scratch, AsyncPipeline, BlockCtx, CopyPath, Counters, DeviceProfile, Dim3,
    LaunchConfig, Precision, Scalar, ScratchBuf, SharedTile, SimError,
};
use parking_lot::Mutex;

/// Online detection interval along the K dimension (Fig. 6 line 25:
/// `if k % 256 == 0`).
pub const DETECT_INTERVAL_K: usize = 256;

fn validate<T: Scalar>(device: &DeviceProfile, tile: &TileConfig) -> Result<(), SimError> {
    if tile.wm == 0
        || tile.wn == 0
        || !tile.tb_m.is_multiple_of(tile.wm)
        || !tile.tb_n.is_multiple_of(tile.wn)
    {
        return Err(SimError::InvalidConfig(format!(
            "warp tile {}x{} must divide threadblock tile {}x{}",
            tile.wm, tile.wn, tile.tb_m, tile.tb_n
        )));
    }
    let mma_k = match T::PRECISION {
        Precision::Fp32 => shapes::FP32_MMA.2,
        Precision::Fp64 => shapes::FP64_MMA.2,
    };
    if tile.tb_k == 0 || !tile.tb_k.is_multiple_of(mma_k) {
        return Err(SimError::InvalidConfig(format!(
            "Threadblock.K = {} must be a positive multiple of the MMA K = {mma_k}",
            tile.tb_k
        )));
    }
    if tile.k_stages < 2 {
        return Err(SimError::InvalidConfig(
            "pipeline needs at least 2 stages".into(),
        ));
    }
    let smem = tile.smem_bytes(T::PRECISION);
    if smem > device.smem_per_block {
        return Err(SimError::SharedMemoryOverflow {
            requested: smem,
            limit: device.smem_per_block,
        });
    }
    if tile.threads() > device.max_threads_per_block {
        return Err(SimError::ThreadLimitExceeded {
            requested: tile.threads(),
            limit: device.max_threads_per_block,
        });
    }
    Ok(())
}

/// The centroid operand of one k-tile of one column block: the TF32
/// k-major [`BPanel`] of its live centroid rows and, when the scheme folds
/// input checksums, every warp column's plain and weighted fragment sums
/// (`sums[wj*tb_k + k]`; `wsums` stays zero unless `weighted`).
struct CentroidTile<T> {
    panel: BPanel<T>,
    sums: Vec<T>,
    wsums: Vec<T>,
}

impl<T: Scalar> CentroidTile<T> {
    /// Stage `rows`: the live rows of the tile, `tb_k` deep, zero past the
    /// problem's last dimension. `sums` is `Some(weighted)` when the scheme
    /// needs the fragment sums.
    fn stage(rows: &[T], tile: &TileConfig, sums: Option<bool>) -> Self {
        let mut panel = BPanel::default();
        panel.stage(rows, tile.tb_k);
        let n = if sums.is_some() {
            tile.tb_n / tile.wn * tile.tb_k
        } else {
            0
        };
        let (mut plain, mut wsums) = (vec![T::ZERO; n], vec![T::ZERO; n]);
        let run = tile.wn * tile.tb_k;
        let frags = plain
            .chunks_exact_mut(tile.tb_k)
            .zip(wsums.chunks_exact_mut(tile.tb_k));
        for (wj, (p, w)) in frags.enumerate() {
            let frag = &rows[rows.len().min(wj * run)..rows.len().min((wj + 1) * run)];
            frag_col_sums(frag, p, sums.unwrap_or(false).then_some(w));
        }
        CentroidTile {
            panel,
            sums: plain,
            wsums,
        }
    }

    /// Stage k-tile `kt` of column block `bx` from the resident centroids
    /// (an uncounted host read: each block still loads its B tiles
    /// through the pipeline and is charged there).
    fn from_global(
        data: &DeviceData<T>,
        tile: &TileConfig,
        (bx, kt): (usize, usize),
        sums: Option<bool>,
    ) -> Self {
        let col0 = bx * tile.tb_n;
        let cols_valid = tile.tb_n.min(data.k - col0);
        let k0 = kt * tile.tb_k;
        let run = tile.tb_k.min(data.dim.saturating_sub(k0));
        let mut rows = vec![T::ZERO; cols_valid * tile.tb_k];
        if run > 0 {
            for (j, dst) in rows.chunks_exact_mut(tile.tb_k).enumerate() {
                data.centroids
                    .read_range((col0 + j) * data.dim + k0, &mut dst[..run]);
            }
        }
        CentroidTile::stage(&rows, tile, sums)
    }
}

/// One worker's block state, built once per claimed chunk of blocks and
/// reset at every block start: the pipeline ring (drained at every block
/// end, so only its stale tile contents carry over, and every stage is
/// rewritten before it is read), the warp accumulators (zeroed), the
/// online states (cloned from the launch's template) and the A panel
/// (restaged every k-tile).
struct BlockScratch<T> {
    pipeline: AsyncPipeline<T>,
    /// All warp accumulators in one flat buffer; warp `w` owns
    /// `accs[w*wm*wn..(w+1)*wm*wn]`.
    accs: Vec<T>,
    warp_states: Option<Vec<WarpOnlineState<T>>>,
    wu_state: Option<WuBlockState<T>>,
    /// Wu's block-level view of the warp accumulators (empty otherwise).
    wu_view: Vec<T>,
    a_panel: APanel<T>,
}

/// Run the tensor-core assignment kernel.
#[allow(clippy::too_many_arguments)]
pub fn tensor_assign<T: Scalar>(
    device: &DeviceProfile,
    tile: TileConfig,
    data: &DeviceData<T>,
    scheme: SchemeKind,
    hook: &dyn FaultHook<T>,
    counters: &Counters,
    stats: &Mutex<CampaignStats>,
) -> Result<AssignmentResult<T>, SimError> {
    run_tensor(
        device,
        tile,
        data,
        scheme,
        hook,
        counters,
        stats,
        Staging::Kernel,
    )
}

/// How [`run_tensor`] stages its block state. Only [`Staging::Kernel`]
/// runs outside tests; the others are the references it must match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Staging {
    /// Centroid tiles staged once per launch, block scratch once per chunk.
    Kernel,
    /// Every block stages its centroid tiles from its own pipeline tiles.
    #[cfg_attr(not(test), allow(dead_code))]
    PerBlockTiles,
    /// Every block builds a fresh block scratch.
    #[cfg_attr(not(test), allow(dead_code))]
    FreshScratch,
}

/// [`tensor_assign`], with its block state staged as `staging` says.
#[allow(clippy::too_many_arguments)]
fn run_tensor<T: Scalar>(
    device: &DeviceProfile,
    tile: TileConfig,
    data: &DeviceData<T>,
    scheme: SchemeKind,
    hook: &dyn FaultHook<T>,
    counters: &Counters,
    stats: &Mutex<CampaignStats>,
    staging: Staging,
) -> Result<AssignmentResult<T>, SimError> {
    let per_block = staging == Staging::PerBlockTiles;
    validate::<T>(device, &tile)?;
    let (m, kc, dim) = (data.m, data.k, data.dim);
    let mma_k = match T::PRECISION {
        Precision::Fp32 => shapes::FP32_MMA.2,
        Precision::Fp64 => shapes::FP64_MMA.2,
    };
    let bm = m.div_ceil(tile.tb_m);
    let bn = kc.div_ceil(tile.tb_n);
    let n_ktiles = dim.div_ceil(tile.tb_k).max(1);
    let warps_n = tile.tb_n / tile.wn;
    let warps_m = tile.tb_m / tile.wm;
    let n_warps = warps_m * warps_n;
    let path = if device.has_async_copy {
        CopyPath::AsyncBypass
    } else {
        CopyPath::RegisterStaged
    };
    let slots = ArgminSlots::<T>::new(m, bn);
    let exec = FragmentMma::new::<T>(tile.wm, tile.wn);
    let elem = std::mem::size_of::<T>();
    let inert = hook.is_inert();
    // FT K-means detects and corrects in place; Kosaian's scheme only
    // detects, and the interval is recomputed.
    let warp_mode = match scheme {
        SchemeKind::FtKMeans => Some(OnlineMode::DetectCorrect),
        SchemeKind::Kosaian => Some(OnlineMode::DetectOnly),
        _ => None,
    };
    let warp_state = warp_mode.map(|mode| {
        WarpOnlineState::<T>::new(
            tile.wm,
            tile.wn,
            ThresholdPolicy::for_precision(T::PRECISION),
            mode,
        )
    });
    // Input sums of the warps' fragments, weighted ones only where the
    // scheme corrects (a detection-only state never reads them).
    let sums_mode = warp_mode.map(|mode| mode == OnlineMode::DetectCorrect);
    let centroid_tiles: Vec<CentroidTile<T>> = if per_block {
        Vec::new()
    } else {
        (0..bn * n_ktiles)
            .map(|t| {
                CentroidTile::from_global(data, &tile, (t / n_ktiles, t % n_ktiles), sums_mode)
            })
            .collect()
    };

    let cfg = LaunchConfig {
        grid: Dim3::xy(bn.max(1), bm.max(1)),
        threads_per_block: tile.threads(),
        smem_bytes: tile.smem_bytes(T::PRECISION),
    };
    let wsize = tile.wm * tile.wn;
    let wu_template =
        (scheme == SchemeKind::Wu).then(|| WuBlockState::new(tile.tb_m, tile.tb_n, T::PRECISION));
    let new = || BlockScratch {
        pipeline: AsyncPipeline::new(tile.k_stages, tile.tb_m, tile.tb_n, tile.tb_k, path),
        accs: vec![T::ZERO; n_warps * wsize],
        warp_states: warp_state.as_ref().map(|st| vec![st.clone(); n_warps]),
        wu_state: wu_template.clone(),
        wu_view: wu_template
            .as_ref()
            .map_or_else(Vec::new, |_| vec![T::ZERO; tile.tb_m * tile.tb_n]),
        a_panel: APanel::default(),
    };
    // Only Wu's tile absorption and per-block staging read the staged B
    // tiles. Every other block multiplies the launch's centroid tiles, so
    // its B copies are charged (and sanitizer-checked) but not made.
    let copy_b = per_block || wu_template.is_some();

    let kernel = |ctx: &BlockCtx, scratch: &mut BlockScratch<T>| {
        let row0 = ctx.by * tile.tb_m;
        let col0 = ctx.bx * tile.tb_n;
        let rows_valid = tile.tb_m.min(m.saturating_sub(row0));
        let cols_valid = tile.tb_n.min(kc.saturating_sub(col0));
        if rows_valid == 0 || cols_valid == 0 {
            return;
        }
        let block = (ctx.by, ctx.bx);

        let mut fresh;
        let scratch = if staging == Staging::FreshScratch {
            fresh = new();
            &mut fresh
        } else {
            scratch
        };
        let BlockScratch {
            pipeline,
            accs,
            warp_states,
            wu_state,
            wu_view,
            a_panel,
        } = scratch;
        accs.fill(T::ZERO);
        if let (Some(states), Some(template)) = (warp_states.as_mut(), &warp_state) {
            states.iter_mut().for_each(|st| st.clone_from(template));
        }
        if let (Some(wu), Some(template)) = (wu_state.as_mut(), &wu_template) {
            wu.clone_from(template);
        }

        let fill_a = |dst: &mut SharedTile<T>, k0: usize, c: &gpu_sim::CounterSink| {
            fill_tile_from_global(dst, &data.samples, row0, k0, m, dim, c);
        };
        let fill_b = |dst: &mut SharedTile<T>, k0: usize, c: &gpu_sim::CounterSink| {
            if copy_b {
                fill_tile_from_global(dst, &data.centroids, col0, k0, kc, dim, c);
            } else {
                let shape = (tile.tb_n, tile.tb_k);
                charge_tile_from_global(shape, &data.centroids, col0, k0, kc, dim, c);
            }
        };

        // Prologue: stage the first k_stages-1 tiles (Fig. 4 lines 03-07).
        let prologue = (tile.k_stages - 1).min(n_ktiles);
        for s in 0..prologue {
            let k0 = s * tile.tb_k;
            pipeline.cp_async(
                s,
                ctx.counters,
                |t| fill_a(t, k0, ctx.counters),
                |t| fill_b(t, k0, ctx.counters),
            );
            pipeline.commit_group();
        }
        let mut committed = prologue;

        // Input sums of every warp row's A fragments across one k-tile:
        // `sums[wi*tb_k + k]`, `wsums` the weighted ones (skipped by
        // detection-only states). The B fragments' come with their panel.
        let n_sums = if sums_mode.is_some() {
            warps_m * tile.tb_k
        } else {
            0
        };
        let mut sums = ScratchBuf::<T, 128>::filled(n_sums, T::ZERO);
        let mut wsums = ScratchBuf::<T, 128>::filled(n_sums, T::ZERO);
        let mut own_tile = None;
        let mut ledger = CampaignStats::default();
        // The live extent of warp (wi, wj): its rows and columns inside the
        // problem. Lanes past it are zero padding.
        let live_of = |wi: usize, wj: usize| {
            let rows = rows_valid.saturating_sub(wi * tile.wm).min(tile.wm);
            (rows, cols_valid.saturating_sub(wj * tile.wn).min(tile.wn))
        };

        for kt in 0..n_ktiles {
            // Prefetch the tile k_stages-1 ahead (Fig. 4 lines 13-14).
            let pf = kt + tile.k_stages - 1;
            if pf < n_ktiles {
                let stage = pf % tile.k_stages;
                let k0 = pf * tile.tb_k;
                pipeline.cp_async(
                    stage,
                    ctx.counters,
                    |t| fill_a(t, k0, ctx.counters),
                    |t| fill_b(t, k0, ctx.counters),
                );
                pipeline.commit_group();
                committed += 1;
            }
            // Wait until this iteration's tile is resident (line 08/19).
            pipeline.wait_group(committed - kt - 1);
            ctx.barrier();

            let stage = kt % tile.k_stages;
            let (a_tile, b_tile) = (pipeline.a(stage), pipeline.b(stage));

            // Wu's threadblock-level checksums: absorb the staged tiles. On
            // cp.async devices the values must be re-read from global.
            if let Some(wu) = wu_state.as_mut() {
                if path == CopyPath::AsyncBypass {
                    ctx.counters
                        .add_ft_extra_loads(((tile.tb_m + tile.tb_n) * tile.tb_k * elem) as u64);
                }
                wu.absorb_tiles(a_tile, b_tile, tile.tb_k, ctx.counters);
            }

            // The centroid operand of this k-tile: staged for the launch,
            // or from this block's own B tile.
            let b_stage = if per_block {
                let rows = &b_tile.as_slice()[..cols_valid * tile.tb_k];
                &*own_tile.insert(CentroidTile::stage(rows, &tile, sums_mode))
            } else {
                &centroid_tiles[ctx.bx * n_ktiles + kt]
            };

            // Input checksums (Fig. 6 lines 15-18), once per fragment: the
            // staged tiles hold every warp's fragments for this k-tile
            // (tb_k is a multiple of the MMA K, so fragments are never
            // zero-padded), and a fragment row's column sums over the
            // whole tile are its fragments' sums side by side. Rows past
            // the problem edge are staged as +0.0 and no hook touches
            // them, so summing the live prefix gives the same bits.
            if let Some(weighted) = sums_mode {
                let run = tile.wm * tile.tb_k;
                for (f, frag) in a_tile.as_slice().chunks_exact(run).enumerate() {
                    let live = rows_valid.saturating_sub(f * tile.wm).min(tile.wm);
                    let at = f * tile.tb_k..(f + 1) * tile.tb_k;
                    let w = weighted.then(|| &mut wsums[at.clone()]);
                    frag_col_sums(&frag[..live * tile.tb_k], &mut sums[at], w);
                }
            }
            // Fragment `f`'s sums over the slab at `kk0`.
            let slab = |f: usize, kk0: usize| f * tile.tb_k + kk0..f * tile.tb_k + kk0 + mma_k;
            let mma_site = |warp: usize, kk0: usize| MmaSite {
                block,
                warp,
                k_step: kt * tile.tb_k + kk0,
                is_checksum: false,
            };

            // Warp MMA main loop (Fig. 4 lines 15-17) over the live rows
            // and columns, TF32-converted once for every warp and slab.
            a_panel.stage(&a_tile.as_slice()[..rows_valid * tile.tb_k], tile.tb_k);
            // The hook sees every slab of every warp, in the order (warp
            // row, slab, warp column) its fault sites key on; an inert hook
            // is not called at all.
            for wi in 0..warps_m {
                for kk0 in (0..tile.tb_k).step_by(mma_k) {
                    for wj in 0..warps_n {
                        let warp_id = wi * warps_n + wj;
                        let acc = &mut accs[warp_id * wsize..(warp_id + 1) * wsize];
                        let at = (wi * tile.wm, wj * tile.wn, kk0);
                        let live = live_of(wi, wj);
                        let b_panel = &b_stage.panel;
                        exec.mma_panel(acc, a_panel, b_panel, at, live, mma_k, ctx.counters);
                        let site = mma_site(warp_id, kk0);
                        if !inert {
                            hook.post_mma(&site, acc, tile.wn);
                        }
                        if let Some(states) = warp_states.as_mut() {
                            let (ra, rb) = (slab(wi, kk0), slab(wj, kk0));
                            let a = [&sums[ra.clone()], &wsums[ra]];
                            let b = [&b_stage.sums[rb.clone()], &b_stage.wsums[rb]];
                            if inert {
                                states[warp_id].fold(a, b, site, &NoFault, ctx.counters);
                            } else {
                                states[warp_id].fold(a, b, site, hook, ctx.counters);
                            }
                        }
                    }
                }
            }

            // Online verification (Fig. 6 lines 25-31).
            let k_end = (kt + 1) * tile.tb_k;
            let at_interval = k_end.is_multiple_of(DETECT_INTERVAL_K);
            let at_end = kt == n_ktiles - 1;
            if at_interval || at_end {
                if let Some(states) = warp_states.as_mut() {
                    for wi in 0..warps_m {
                        for wj in 0..warps_n {
                            let warp_id = wi * warps_n + wj;
                            let acc = &mut accs[warp_id * wsize..(warp_id + 1) * wsize];
                            // Under an inert hook the padded lanes are
                            // still the +0.0 they started as.
                            let live = if inert {
                                live_of(wi, wj)
                            } else {
                                (tile.wm, tile.wn)
                            };
                            let outcome = states[warp_id].check(acc, live, k_end, ctx.counters);
                            record_outcome(&mut ledger, outcome);
                            if let CheckOutcome::RecomputeRequired { .. } = outcome {
                                // Detection-only scheme: time-redundant
                                // recomputation of the warp tile from global
                                // memory, then re-baseline.
                                recompute_warp(
                                    data,
                                    row0 + wi * tile.wm,
                                    col0 + wj * tile.wn,
                                    &tile,
                                    mma_k,
                                    k_end,
                                    &exec,
                                    ctx.counters,
                                    acc,
                                );
                                states[warp_id].rebaseline(acc, ctx.counters);
                            }
                        }
                    }
                }
                if let Some(wu) = wu_state.as_mut() {
                    let (wm, wn) = (tile.wm, tile.wn);
                    let warp_elem = |r: usize, c: usize| {
                        ((r / wm) * warps_n + (c / wn)) * wsize + (r % wm) * wn + (c % wn)
                    };
                    // Assemble a block-level view of the distributed warp
                    // accumulators, verify it, and write corrections back.
                    for r in 0..tile.tb_m {
                        for c in 0..tile.tb_n {
                            wu_view[r * tile.tb_n + c] = accs[warp_elem(r, c)];
                        }
                    }
                    let outcome = wu.check_and_correct(
                        |r, c| wu_view[r * tile.tb_n + c],
                        |r, c, v| {
                            accs[warp_elem(r, c)] = v;
                        },
                        ctx.counters,
                    );
                    record_outcome(&mut ledger, outcome);
                    if let CheckOutcome::RecomputeRequired { .. } = outcome {
                        // Block-level recomputation: redo every warp tile.
                        for wi in 0..warps_m {
                            for wj in 0..warps_n {
                                let warp_id = wi * warps_n + wj;
                                recompute_warp(
                                    data,
                                    row0 + wi * wm,
                                    col0 + wj * wn,
                                    &tile,
                                    mma_k,
                                    k_end,
                                    &exec,
                                    ctx.counters,
                                    &mut accs[warp_id * wsize..(warp_id + 1) * wsize],
                                );
                            }
                        }
                        let accs_ref = &*accs;
                        wu.rebaseline_from(|r, c| accs_ref[warp_elem(r, c)], ctx.counters);
                    }
                }
            }
        }
        // Reused scratch relies on a drained ring: no stage is in flight.
        debug_assert_eq!(pipeline.pending_groups(), 0, "pipeline not drained");
        // One merge per block into the launch-wide ledger.
        stats.lock().merge(&ledger);

        // Fused epilogue: row-minimum with the norm identity, then the
        // threadblock broadcast merge. Norm vectors are staged once per
        // block as contiguous runs (uncounted, matching the element path).
        let mut xn = ScratchBuf::<T, 256>::filled(rows_valid, T::ZERO);
        data.sample_norms.read_range(row0, &mut xn);
        let mut yn = ScratchBuf::<T, 256>::filled(cols_valid, T::ZERO);
        data.centroid_norms.read_range(col0, &mut yn);
        ctx.counters.add_fma((rows_valid * cols_valid * 2) as u64);
        ctx.barrier();
        block_argmin(accs, &tile, (&xn, &yn), col0, |i, d, j| {
            slots.put(ctx.bx, row0 + i, d, j, ctx.counters)
        });
    };
    launch_grid_scratch(device, cfg, counters, "tensor_assign", new, kernel)?;

    let (distances, labels) = slots.reduce();
    Ok(AssignmentResult { labels, distances })
}

/// Lanes of the epilogue's running `(distance, column)` minimum.
const LANES: usize = 16;

/// The fused epilogue of one block (step 5): for every live row `i`, the
/// minimum over the block's live columns of `‖x‖² + ‖y‖² − 2·x·y`
/// (`xn[i]`, `yn[j]` and the warp accumulators `accs`), handed to
/// `emit(i, distance, column)` with `col0` added to the column. Runs at
/// AVX-512F width where the host has it; the numbers do not depend on it.
fn block_argmin<T: Scalar>(
    accs: &[T],
    tile: &TileConfig,
    norms: (&[T], &[T]),
    col0: usize,
    emit: impl FnMut(usize, T, u32),
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        // SAFETY: the CPU has AVX-512F (detected just above).
        return unsafe { block_argmin_avx512f(accs, tile, norms, col0, emit) };
    }
    argmin_body(accs, tile, norms, col0, emit)
}

/// [`argmin_body`] compiled for AVX-512F. Callable only where the CPU has
/// it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn block_argmin_avx512f<T: Scalar>(
    accs: &[T],
    tile: &TileConfig,
    norms: (&[T], &[T]),
    col0: usize,
    emit: impl FnMut(usize, T, u32),
) {
    argmin_body(accs, tile, norms, col0, emit)
}

/// [`block_argmin`]'s body. Each row is scanned lane-wise: column `j` of a
/// warp row offers its distance to lane `j % LANES`, every lane keeps its
/// own minimum by [`takes`] with branch-free selects, and a tree reduce
/// across the lanes ends the row. The smaller pair under [`takes`] is the
/// minimum of a total order (NaN aside), so the lanes and the reduce pick
/// what a one-at-a-time scan in column order picks, bits and ties
/// included: the first column of the least distance, the first `+∞` column
/// of a row with nothing smaller, and the `u32::MAX` sentinel only for a
/// row of NaNs.
#[inline(always)]
fn argmin_body<T: Scalar>(
    accs: &[T],
    tile: &TileConfig,
    (xn, yn): (&[T], &[T]),
    col0: usize,
    mut emit: impl FnMut(usize, T, u32),
) {
    let two = T::ONE + T::ONE;
    let warps_n = tile.tb_n / tile.wn;
    let wsize = tile.wm * tile.wn;
    for (row, &x) in xn.iter().enumerate() {
        let (wi, i) = (row / tile.wm, row % tile.wm);
        let mut d = [T::INFINITY; LANES];
        let mut col = [u32::MAX; LANES];
        let mut offer = |l: usize, cand: T, c: u32| {
            let take = takes(cand, c, (d[l], col[l]));
            d[l] = if take { cand } else { d[l] };
            col[l] = if take { c } else { col[l] };
        };
        for (wj, yn) in yn.chunks(tile.wn).enumerate() {
            let at = (wi * warps_n + wj) * wsize + i * tile.wn;
            let xy = &accs[at..at + yn.len()];
            let c_base = (col0 + wj * tile.wn) as u32;
            let (xy_runs, yn_runs) = (xy.chunks_exact(LANES), yn.chunks_exact(LANES));
            let tail = xy_runs.remainder().iter().zip(yn_runs.remainder());
            for (r, (xy, yn)) in xy_runs.zip(yn_runs).enumerate() {
                let base = c_base + (r * LANES) as u32;
                for l in 0..LANES {
                    offer(l, x + yn[l] - two * xy[l], base + l as u32);
                }
            }
            let base = c_base + (xy.len() - xy.len() % LANES) as u32;
            for (l, (&xy, &yn)) in tail.enumerate() {
                offer(l, x + yn - two * xy, base + l as u32);
            }
        }
        let mut w = LANES / 2;
        while w > 0 {
            for l in 0..w {
                let take = takes(d[l + w], col[l + w], (d[l], col[l]));
                d[l] = if take { d[l + w] } else { d[l] };
                col[l] = if take { col[l + w] } else { col[l] };
            }
            w /= 2;
        }
        emit(row, d[0], col[0]);
    }
}

fn record_outcome(s: &mut CampaignStats, outcome: CheckOutcome) {
    match outcome {
        CheckOutcome::Clean => s.clean_sweeps += 1,
        CheckOutcome::Corrected { .. } => {
            s.detected += 1;
            s.corrected += 1;
        }
        CheckOutcome::Rebaselined => {
            s.detected += 1;
            s.rebaselined += 1;
        }
        CheckOutcome::RecomputeRequired { .. } => {
            s.detected += 1;
            s.recomputed += 1;
        }
    }
}

/// Time-redundant recomputation of one warp tile's accumulator from global
/// memory over `[0, k_end)` — the correction path of detection-only
/// schemes. Charges the extra global loads it performs. Recomputation
/// bypasses the fault hook: under SEU at most one error strikes per
/// interval and it already fired.
#[allow(clippy::too_many_arguments)]
fn recompute_warp<T: Scalar, C: gpu_sim::EventSink + ?Sized>(
    data: &DeviceData<T>,
    grow0: usize,
    gcol0: usize,
    tile: &TileConfig,
    mma_k: usize,
    k_end: usize,
    exec: &FragmentMma,
    counters: &C,
    acc: &mut [T],
) {
    acc.fill(T::ZERO);
    let mut a_frag = ScratchBuf::<T, 1024>::filled(tile.wm * mma_k, T::ZERO);
    let mut b_frag = ScratchBuf::<T, 1024>::filled(tile.wn * mma_k, T::ZERO);
    let (mut a_panel, mut b_panel) = (APanel::default(), BPanel::default());
    let elem = std::mem::size_of::<T>() as u64;
    // Stage each fragment row as a contiguous run (zero-padded at the
    // problem edge), charging in-bounds elements in bulk.
    for k0 in (0..k_end.min(data.dim.next_multiple_of(mma_k))).step_by(mma_k) {
        let mut loaded = 0u64;
        let run = mma_k.min(data.dim.saturating_sub(k0));
        for (i, dst) in a_frag.chunks_exact_mut(mma_k).enumerate() {
            let r = grow0 + i;
            if r < data.m && run > 0 {
                data.samples.read_range(r * data.dim + k0, &mut dst[..run]);
                dst[run..].fill(T::ZERO);
                loaded += run as u64;
            } else {
                dst.fill(T::ZERO);
            }
        }
        for (j, dst) in b_frag.chunks_exact_mut(mma_k).enumerate() {
            let r = gcol0 + j;
            if r < data.k && run > 0 {
                data.centroids
                    .read_range(r * data.dim + k0, &mut dst[..run]);
                dst[run..].fill(T::ZERO);
                loaded += run as u64;
            } else {
                dst.fill(T::ZERO);
            }
        }
        counters.add_loaded(loaded * elem);
        counters.add_ft_extra_loads(loaded * elem);
        a_panel.stage(&a_frag, mma_k);
        b_panel.stage(&b_frag, mma_k);
        let live = (tile.wm, tile.wn);
        exec.mma_panel(acc, &a_panel, &b_panel, (0, 0, 0), live, mma_k, counters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::default_tile;
    use crate::reference::assign_reference;
    use fault::{Injector, PlannedInjection};
    use gpu_sim::mma::NoFault;
    use gpu_sim::Matrix;

    fn small_tile() -> TileConfig {
        TileConfig {
            tb_m: 16,
            tb_n: 16,
            tb_k: 8,
            wm: 8,
            wn: 8,
            k_stages: 2,
        }
    }

    fn mk_data_f64(
        m: usize,
        k: usize,
        dim: usize,
    ) -> (DeviceProfile, Counters, Matrix<f64>, Matrix<f64>) {
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let samples =
            Matrix::<f64>::from_fn(m, dim, |r, cc| ((r * 7 + cc * 13) % 23) as f64 * 0.25 - 2.5);
        let cents =
            Matrix::<f64>::from_fn(k, dim, |r, cc| ((r * 11 + cc * 3) % 19) as f64 * 0.25 - 2.0);
        (dev, c, samples, cents)
    }

    #[test]
    fn matches_reference_f64_odd_shapes() {
        let (dev, c, samples, cents) = mk_data_f64(77, 21, 13);
        let data = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
        let stats = Mutex::new(CampaignStats::default());
        let out = tensor_assign(
            &dev,
            small_tile(),
            &data,
            SchemeKind::None,
            &NoFault,
            &c,
            &stats,
        )
        .unwrap();
        let (want, want_d) = assign_reference(&samples, &cents);
        assert_eq!(out.labels, want);
        for (a, b) in out.distances.iter().zip(want_d.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn matches_reference_f32_with_default_tile() {
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let samples = Matrix::<f32>::from_fn(300, 24, |r, cc| ((r + cc * 7) % 11) as f32 - 5.0);
        let cents = Matrix::<f32>::from_fn(40, 24, |r, cc| ((r * 3 + cc) % 13) as f32 - 6.0);
        let data = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
        let stats = Mutex::new(CampaignStats::default());
        let out = tensor_assign(
            &dev,
            default_tile(Precision::Fp32),
            &data,
            SchemeKind::None,
            &NoFault,
            &c,
            &stats,
        )
        .unwrap();
        let (want, _) = assign_reference(&samples, &cents);
        assert_eq!(out.labels, want);
    }

    #[test]
    fn ft_scheme_clean_run_matches_and_counts_sweeps() {
        let (dev, c, samples, cents) = mk_data_f64(64, 20, 16);
        let data = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
        let stats = Mutex::new(CampaignStats::default());
        let out = tensor_assign(
            &dev,
            small_tile(),
            &data,
            SchemeKind::FtKMeans,
            &NoFault,
            &c,
            &stats,
        )
        .unwrap();
        let (want, _) = assign_reference(&samples, &cents);
        assert_eq!(out.labels, want);
        let s = stats.lock();
        assert!(s.clean_sweeps > 0);
        assert_eq!(s.detected, 0);
        assert!(c.snapshot().ft_mma_ops > 0, "checksum MMAs issued");
    }

    #[test]
    fn injected_payload_error_is_corrected() {
        let (dev, c, samples, cents) = mk_data_f64(48, 12, 16);
        let data = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
        // Fault-free baseline.
        let stats0 = Mutex::new(CampaignStats::default());
        let clean = tensor_assign(
            &dev,
            small_tile(),
            &data,
            SchemeKind::FtKMeans,
            &NoFault,
            &c,
            &stats0,
        )
        .unwrap();
        // Inject a moderate, locatable flip (top mantissa bit) into block
        // (1,0), warp 0, k-step 8.
        let inj = Injector::planned(vec![PlannedInjection {
            block: (1, 0),
            warp: 0,
            k_step: 8,
            elem_idx: 5,
            bit: 51,
            target_checksum: false,
        }]);
        let stats = Mutex::new(CampaignStats::default());
        let out = tensor_assign(
            &dev,
            small_tile(),
            &data,
            SchemeKind::FtKMeans,
            &inj,
            &c,
            &stats,
        )
        .unwrap();
        assert_eq!(inj.injected_count(), 1, "fault fired");
        let s = stats.lock();
        assert_eq!(s.corrected, 1, "location encoding repaired it");
        drop(s);
        assert_eq!(out.labels, clean.labels, "final assignment unaffected");
        for (a, b) in out.distances.iter().zip(clean.distances.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn injected_checksum_error_rebaselines() {
        let (dev, c, samples, cents) = mk_data_f64(32, 12, 16);
        let data = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
        let inj = Injector::planned(vec![PlannedInjection {
            block: (0, 0),
            warp: 0,
            k_step: 0,
            elem_idx: 0,
            bit: 62,
            target_checksum: true,
        }]);
        let stats = Mutex::new(CampaignStats::default());
        let out = tensor_assign(
            &dev,
            small_tile(),
            &data,
            SchemeKind::FtKMeans,
            &inj,
            &c,
            &stats,
        )
        .unwrap();
        assert_eq!(inj.injected_count(), 1);
        assert_eq!(
            stats.lock().rebaselined,
            1,
            "checksum hit resolved by re-baseline"
        );
        let (want, _) = assign_reference(&samples, &cents);
        assert_eq!(out.labels, want, "payload was never wrong");
    }

    #[test]
    fn kosaian_recomputes_and_recovers() {
        let (dev, c, samples, cents) = mk_data_f64(48, 12, 16);
        let data = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
        let inj = Injector::planned(vec![PlannedInjection {
            block: (0, 0),
            warp: 1,
            k_step: 8,
            elem_idx: 3,
            bit: 61,
            target_checksum: false,
        }]);
        let stats = Mutex::new(CampaignStats::default());
        let before = c.snapshot();
        let out = tensor_assign(
            &dev,
            small_tile(),
            &data,
            SchemeKind::Kosaian,
            &inj,
            &c,
            &stats,
        )
        .unwrap();
        assert_eq!(stats.lock().recomputed, 1);
        let (want, _) = assign_reference(&samples, &cents);
        assert_eq!(out.labels, want, "recompute restored correctness");
        let delta = c.snapshot().since(&before);
        assert!(delta.ft_extra_loads > 0, "recompute re-reads operands");
    }

    #[test]
    fn wu_corrects_at_block_level_and_pays_rereads_on_ampere() {
        let (dev, c, samples, cents) = mk_data_f64(32, 16, 16);
        let data = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
        let inj = Injector::planned(vec![PlannedInjection {
            block: (0, 0),
            warp: 2,
            k_step: 0,
            elem_idx: 7,
            bit: 51,
            target_checksum: false,
        }]);
        let stats = Mutex::new(CampaignStats::default());
        let before = c.snapshot();
        let out =
            tensor_assign(&dev, small_tile(), &data, SchemeKind::Wu, &inj, &c, &stats).unwrap();
        assert_eq!(stats.lock().corrected, 1, "block-level correction");
        let (want, _) = assign_reference(&samples, &cents);
        assert_eq!(out.labels, want);
        let delta = c.snapshot().since(&before);
        assert!(delta.ft_extra_loads > 0, "cp.async forces Wu to re-read");
    }

    #[test]
    fn wu_needs_no_rereads_on_turing() {
        let dev = DeviceProfile::t4();
        let c = Counters::new();
        let samples = Matrix::<f64>::from_fn(32, 8, |r, cc| (r + cc) as f64 * 0.1);
        let cents = Matrix::<f64>::from_fn(16, 8, |r, cc| (r * cc) as f64 * 0.1);
        let data = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
        let stats = Mutex::new(CampaignStats::default());
        let before = c.snapshot();
        let _ = tensor_assign(
            &dev,
            small_tile(),
            &data,
            SchemeKind::Wu,
            &NoFault,
            &c,
            &stats,
        )
        .unwrap();
        let delta = c.snapshot().since(&before);
        assert_eq!(
            delta.ft_extra_loads, 0,
            "register staging keeps Wu free on Turing"
        );
    }

    #[test]
    fn invalid_tiles_rejected() {
        let (dev, c, samples, cents) = mk_data_f64(16, 8, 8);
        let data = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
        let stats = Mutex::new(CampaignStats::default());
        // warp tile does not divide threadblock tile
        let bad = TileConfig {
            tb_m: 24,
            tb_n: 16,
            tb_k: 8,
            wm: 16,
            wn: 8,
            k_stages: 2,
        };
        assert!(tensor_assign(&dev, bad, &data, SchemeKind::None, &NoFault, &c, &stats).is_err());
        // tb_k not a multiple of mma k (f64 -> 4)
        let bad_k = TileConfig {
            tb_m: 16,
            tb_n: 16,
            tb_k: 6,
            wm: 8,
            wn: 8,
            k_stages: 2,
        };
        assert!(tensor_assign(&dev, bad_k, &data, SchemeKind::None, &NoFault, &c, &stats).is_err());
    }

    #[test]
    fn catastrophic_exponent_flip_triggers_recompute() {
        // A top-exponent-bit flip turns the accumulator element into a
        // subnormal/astronomical value; location encoding overflows or the
        // correction cannot restore precision — the scheme must fall back
        // to recomputation and still deliver the clean result.
        let (dev, c, samples, cents) = mk_data_f64(48, 12, 16);
        let data = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
        let inj = Injector::planned(vec![PlannedInjection {
            block: (0, 0),
            warp: 0,
            k_step: 0,
            elem_idx: 2,
            bit: 62,
            target_checksum: false,
        }]);
        let stats = Mutex::new(CampaignStats::default());
        let out = tensor_assign(
            &dev,
            small_tile(),
            &data,
            SchemeKind::FtKMeans,
            &inj,
            &c,
            &stats,
        )
        .unwrap();
        assert_eq!(inj.injected_count(), 1);
        let s = *stats.lock();
        assert!(
            s.corrected + s.recomputed >= 1,
            "catastrophic flip must be handled, stats: {s:?}"
        );
        let (want, _) = assign_reference(&samples, &cents);
        assert_eq!(out.labels, want, "result still clean");
    }

    /// Records every `post_mma` site and the length of the tile it saw.
    #[derive(Default)]
    struct RecordingHook(std::sync::Mutex<Vec<(MmaSite, usize)>>);

    impl FaultHook<f64> for RecordingHook {
        fn post_mma(&self, site: &MmaSite, acc: &mut [f64], _wn: usize) {
            self.0.lock().unwrap().push((*site, acc.len()));
        }
    }

    #[test]
    fn ft_hook_sequence_and_counter_totals_are_pinned() {
        // 3x2 blocks of 2x2 warps, 19 = 5 MMA k-steps of 4 (zero-padded
        // to 3 k-tiles = 6 k-steps).
        let (dev, c, samples, cents) = mk_data_f64(40, 20, 19);
        let data = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
        let stats = Mutex::new(CampaignStats::default());
        let hook = RecordingHook::default();
        let before = c.snapshot();
        gpu_sim::exec::with_executor(&gpu_sim::Executor::serial(), || {
            tensor_assign(
                &dev,
                small_tile(),
                &data,
                SchemeKind::FtKMeans,
                &hook,
                &c,
                &stats,
            )
        })
        .unwrap();
        let delta = c.snapshot().since(&before);
        let calls = hook.0.into_inner().unwrap();
        // Per (block, warp, k-step): the payload MMA over the 8x8 warp
        // tile, then the three checksum dots at the same site.
        let (blocks, warps, k_steps) = (6, 4, 6);
        assert_eq!(calls.len(), blocks * warps * k_steps * 4);
        let mut seen = std::collections::HashSet::new();
        for group in calls.chunks_exact(4) {
            let (payload, len) = group[0];
            assert!(!payload.is_checksum);
            assert_eq!(len, 64);
            for &(cs, len) in &group[1..] {
                let want = MmaSite {
                    is_checksum: true,
                    ..payload
                };
                assert_eq!((cs, len), (want, 1));
            }
            assert!(seen.insert((payload.block, payload.warp, payload.k_step)));
        }
        // One m8n8k4 per payload slab, three checksum dots per slab, and
        // CUDA-core work charged per warp even where warps share fragment
        // sums: the input sums (2·(8+8)·4 per slab) plus one end-of-loop
        // verification (3·8·8).
        assert_eq!(
            (delta.mma_ops, delta.ft_mma_ops, delta.ft_cuda_ops),
            (144, 432, 144 * 128 + 24 * 192)
        );
        assert_eq!(stats.lock().clean_sweeps, 24);
    }

    /// Labels, distance bits, counters and campaign ledger of one run.
    type Staged = (Vec<u32>, Vec<u64>, gpu_sim::CounterSnapshot, CampaignStats);

    fn staged_run<T: Scalar>(
        data: &DeviceData<T>,
        tile: TileConfig,
        scheme: SchemeKind,
        hook: &dyn FaultHook<T>,
        staging: Staging,
    ) -> Staged {
        let (dev, c) = (DeviceProfile::a100(), Counters::new());
        let stats = Mutex::new(CampaignStats::default());
        let out = run_tensor(&dev, tile, data, scheme, hook, &c, &stats, staging).unwrap();
        let bits = out.distances.iter().map(|d| d.to_raw_u64()).collect();
        (out.labels, bits, c.snapshot(), stats.into_inner())
    }

    /// Runs of the kernel and of the `reference` staging give the same
    /// labels, distance bits, counters and ledger under every scheme, clean
    /// and under injection, on a ragged shape: k not a multiple of `tb_n`,
    /// dim not a multiple of `tb_k`, and a partial last row block. The
    /// injections hit block (0, 0) at the first k-step and block (1, 1) one
    /// k-tile later. Returns the injected runs' ledgers, scheme by scheme.
    fn staging_matches<T: Scalar>(
        reference: Staging,
        tile: TileConfig,
        (m, k, dim): (usize, usize, usize),
    ) -> Vec<CampaignStats> {
        let dev = DeviceProfile::a100();
        let value = |r: usize, c: usize, s: usize| {
            let h = (r * 2654435761 + c * 40503 + s) % 1000;
            T::from_f64(h as f64 / 125.0 - 4.0)
        };
        let samples = Matrix::<T>::from_fn(m, dim, |r, c| value(r, c, 1));
        let cents = Matrix::<T>::from_fn(k, dim, |r, c| value(r, c, 7));
        let data = DeviceData::upload(&dev, &samples, &cents, &Counters::new()).unwrap();
        let stagings = [Staging::Kernel, reference];
        let mut ledgers = Vec::new();
        for scheme in [
            SchemeKind::None,
            SchemeKind::FtKMeans,
            SchemeKind::Kosaian,
            SchemeKind::Wu,
        ] {
            let clean = stagings.map(|st| staged_run(&data, tile, scheme, &NoFault, st));
            assert_eq!(clean[0], clean[1], "{scheme:?}");
            let hits =
                [(0, 0, 0, 2, 62), (1, 1, tile.tb_k, 5, 51)].map(|(by, bx, k_step, e, bit)| {
                    PlannedInjection {
                        block: (by, bx),
                        warp: 0,
                        k_step,
                        elem_idx: e,
                        bit,
                        target_checksum: false,
                    }
                });
            let injected = stagings.map(|st| {
                let inj = Injector::planned(hits.to_vec());
                let out = staged_run(&data, tile, scheme, &inj, st);
                assert_eq!(inj.injected_count(), 2, "{scheme:?}");
                out
            });
            assert_eq!(injected[0], injected[1], "{scheme:?} injected");
            ledgers.push(injected[0].3);
        }
        ledgers
    }

    #[test]
    fn launch_staged_centroids_match_per_block_staging() {
        let per_block = Staging::PerBlockTiles;
        staging_matches::<f64>(per_block, small_tile(), (77, 21, 13));
        staging_matches::<f32>(per_block, default_tile(Precision::Fp32), (150, 300, 37));
        staging_matches::<f64>(per_block, default_tile(Precision::Fp64), (130, 70, 21));
    }

    /// One block scratch carried through a whole serial launch (one chunk)
    /// gives what a fresh scratch per block gives, though an early block
    /// is corrected or recomputed (so its warps sum their whole tiles from
    /// then on) and the partial last row blocks follow full ones.
    #[test]
    fn reused_block_scratch_matches_fresh_scratch() {
        let fresh = Staging::FreshScratch;
        gpu_sim::exec::with_executor(&gpu_sim::Executor::serial(), || {
            let f64_ledgers = [
                staging_matches::<f64>(fresh, small_tile(), (77, 21, 13)),
                staging_matches::<f64>(fresh, default_tile(Precision::Fp64), (130, 70, 21)),
            ];
            // FtKMeans, Kosaian and Wu each handled a hit (None has no
            // checks); FP32 misses the same hits, so it is only compared.
            for ledgers in f64_ledgers {
                assert!(ledgers[1..].iter().all(|l| l.detected > 0), "{ledgers:?}");
            }
            staging_matches::<f32>(fresh, default_tile(Precision::Fp32), (150, 300, 37));
        });
    }

    /// The epilogue's earlier one-at-a-time scan, kept as the reference
    /// [`block_argmin`] must match: warp by warp, row by row, every live
    /// column in order, replacing the row's pair on a smaller distance or
    /// an equal one at a smaller column.
    fn scalar_scan<T: Scalar>(
        accs: &[T],
        tile: &TileConfig,
        (xn, yn): (&[T], &[T]),
        col0: usize,
        mut emit: impl FnMut(usize, T, u32),
    ) {
        let two = T::ONE + T::ONE;
        let (rows_valid, cols_valid) = (xn.len(), yn.len());
        let (warps_m, warps_n) = (tile.tb_m / tile.wm, tile.tb_n / tile.wn);
        let wsize = tile.wm * tile.wn;
        let mut best = vec![(T::INFINITY, u32::MAX); rows_valid];
        for wi in 0..warps_m {
            let r_base = wi * tile.wm;
            if r_base >= rows_valid {
                continue;
            }
            for wj in 0..warps_n {
                let c_base = wj * tile.wn;
                if c_base >= cols_valid {
                    continue;
                }
                let acc = &accs[(wi * warps_n + wj) * wsize..(wi * warps_n + wj + 1) * wsize];
                for i in 0..tile.wm.min(rows_valid - r_base) {
                    let row = r_base + i;
                    let x = xn[row];
                    let slot = &mut best[row];
                    let cols_here = tile.wn.min(cols_valid - c_base);
                    let arow = &acc[i * tile.wn..i * tile.wn + cols_here];
                    for (j, &xy) in arow.iter().enumerate() {
                        let col_g = (col0 + c_base + j) as u32;
                        let d = x + yn[c_base + j] - two * xy;
                        if d < slot.0 || (d == slot.0 && col_g < slot.1) {
                            *slot = (d, col_g);
                        }
                    }
                }
            }
        }
        for (i, &(d, j)) in best.iter().enumerate() {
            emit(i, d, j);
        }
    }

    /// The lane-wise epilogue emits the scalar scan's (distance bits,
    /// column) for every row of every block, and the merged labels and
    /// distances agree, on `m` rows (a partial last row block) against
    /// `k` columns (a partial last column block and warp). Rows cycle
    /// through six kinds: small integer distances (ties within a warp,
    /// across warps and across column blocks), ±0.0 ties, NaN among them,
    /// all `+∞`, all NaN, and `+∞` mixed with NaN. Padded lanes hold a
    /// distance that would win if it were read.
    fn epilogue_matches_scalar_scan<T: Scalar>(tile: TileConfig, m: usize, k: usize) {
        let hash = |r: usize, c: usize| (r * 2654435761 + c * 40503 + r * c) % 97;
        let f = T::from_f64;
        let yn: Vec<T> = (0..k)
            .map(|c| [f(-0.0), f(0.0), f(1.0), f(2.0)][hash(7, c) % 4])
            .collect();
        let xn: Vec<T> = (0..m)
            .map(|r| if r % 6 == 1 { f(-0.0) } else { f(0.0) })
            .collect();
        let xy = |r: usize, c: usize| {
            let h = hash(r, c);
            match r % 6 {
                0 => [f(0.0), f(0.5), f(-0.5), f(1.0)][h % 4],
                1 => [f(0.0), f(0.0), f(-0.5)][h % 3],
                2 if h % 4 == 0 => f(f64::NAN),
                2 => [f(0.0), f(0.5), f(1.0)][h % 3],
                3 => f(f64::NEG_INFINITY),
                4 => f(f64::NAN),
                _ => [f(f64::NEG_INFINITY), f(f64::NAN)][h % 2],
            }
        };
        let (warps_n, wsize) = (tile.tb_n / tile.wn, tile.wm * tile.wn);
        let bn = k.div_ceil(tile.tb_n);
        let stores = [ArgminSlots::<T>::new(m, bn), ArgminSlots::<T>::new(m, bn)];
        let c = Counters::new();
        for row0 in (0..m).step_by(tile.tb_m) {
            for col0 in (0..k).step_by(tile.tb_n) {
                let (rows, cols) = (tile.tb_m.min(m - row0), tile.tb_n.min(k - col0));
                let mut accs = vec![f(1e30); tile.tb_m * tile.tb_n];
                for (r, cc) in (0..rows).flat_map(|r| (0..cols).map(move |cc| (r, cc))) {
                    let warp = (r / tile.wm) * warps_n + cc / tile.wn;
                    accs[warp * wsize + (r % tile.wm) * tile.wn + cc % tile.wn] =
                        xy(row0 + r, col0 + cc);
                }
                let norms = (&xn[row0..row0 + rows], &yn[col0..col0 + cols]);
                let mut got = Vec::new();
                block_argmin(&accs, &tile, norms, col0, |i, d, j| {
                    got.push((i, d.to_raw_u64(), j));
                    stores[0].put(col0 / tile.tb_n, row0 + i, d, j, &c);
                });
                let mut want = Vec::new();
                scalar_scan(&accs, &tile, norms, col0, |i, d, j| {
                    want.push((i, d.to_raw_u64(), j));
                    stores[1].put(col0 / tile.tb_n, row0 + i, d, j, &c);
                });
                assert_eq!(got, want, "block at ({row0}, {col0})");
            }
        }
        let [(gd, gl), (wd, wl)] = stores.map(|s| s.reduce());
        assert_eq!(gl, wl);
        let bits = |d: &[T]| d.iter().map(|v| v.to_raw_u64()).collect::<Vec<_>>();
        assert_eq!(bits(&gd), bits(&wd));
        // The kinds the rows were built for did occur.
        assert!(wl.contains(&u32::MAX), "an all-NaN row");
        assert!(
            wd.iter().any(|&d| d.to_f64() == f64::INFINITY),
            "an all-+Inf row"
        );
        assert!(
            wd.iter().any(|&d| d.to_raw_u64() == f(-0.0).to_raw_u64()),
            "a -0.0 win"
        );
    }

    #[test]
    fn lane_wise_epilogue_matches_the_scalar_scan() {
        epilogue_matches_scalar_scan::<f32>(default_tile(Precision::Fp32), 150, 300);
        epilogue_matches_scalar_scan::<f64>(default_tile(Precision::Fp64), 150, 300);
        epilogue_matches_scalar_scan::<f64>(small_tile(), 37, 300);
    }

    #[test]
    fn dim_smaller_than_tbk_works() {
        // Gk = 3 with tb_k = 8: single zero-padded k-tile.
        let (dev, c, samples, cents) = mk_data_f64(40, 10, 3);
        let data = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
        let stats = Mutex::new(CampaignStats::default());
        let out = tensor_assign(
            &dev,
            small_tile(),
            &data,
            SchemeKind::FtKMeans,
            &NoFault,
            &c,
            &stats,
        )
        .unwrap();
        let (want, _) = assign_reference(&samples, &cents);
        assert_eq!(out.labels, want);
    }
}
