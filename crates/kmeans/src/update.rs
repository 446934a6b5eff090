//! Centroid-update phase (Fig. 2 step 3) with optional DMR protection.
//!
//! The phase is split into a combine and a reduce step (the MapReduce
//! K-means split):
//!
//! 1. `update_accumulate` — each block sums its samples into block-local
//!    per-cluster sums and member counts (rows added in ascending order)
//!    and writes them out as one block partial. No atomics.
//! 2. `update_divide` — one thread per centroid-matrix element sums that
//!    cell's partials from zero in ascending block order, then averages.
//!
//! Every float addition therefore happens in an order fixed by the input
//! alone, so centroids are bitwise identical under any executor schedule.
//! Samples per block scale with `k` (`256·⌈k/16⌉`), which keeps the
//! partials (`blocks · k · dim` cells) at most 1/16 of the sample matrix.
//! Fault-hook sites keep naming the 256-sample tile a sample falls in, so
//! injection keys do not depend on the block size.
//!
//! The phase is memory-bound, so duplicating the arithmetic (DMR) and
//! voting hides behind the loads — the paper measures <1% overhead (§I,
//! §IV). Both kernels are generic over the fault hook. When the hook is
//! inert ([`FaultHook::is_inert`], e.g. [`NoFault`]) they run
//! monomorphised over `NoFault`, whose per-element `post_fma` inlines
//! away, instead of making a virtual call per element and DMR replica.
//! On the traced `fit_k16` (M = 131072, d = 64, k = 16, 2-vCPU host) the
//! clean update's `update.dmr_overhead` fell from 1.51 to 1.02 this way.
//! A hook that is not inert (the injector, counting and recording hooks)
//! still sees every call.

use abft::dmr::{protected, DmrStats};
use gpu_sim::mma::{FaultHook, MmaSite, NoFault};
use gpu_sim::{
    launch_grid_labeled, BlockCtx, Counters, DeviceProfile, Dim3, GlobalBuffer, LaunchConfig,
    Matrix, Scalar, ScratchBuf, SimError,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Sample tile that names a fault-hook site (`MmaSite::block`).
const SAMPLE_TILE: usize = 256;

/// Centroid-matrix elements per threadblock in the averaging kernel.
const ELEMS_PER_BLOCK: usize = 256;

/// Result of the update phase.
#[derive(Debug, Clone)]
pub struct UpdateResult<T> {
    /// New centroid positions (empty clusters keep their previous ones).
    pub centroids: Matrix<T>,
    /// Members per cluster.
    pub counts: Vec<u32>,
    /// DMR statistics (zeros when DMR was off).
    pub dmr: DmrStats,
    /// Labels found out of range `[0, k)` and excluded from the
    /// accumulation — a fault-injected bit flip in a label is *detected*
    /// here instead of indexing the sums buffer out of bounds.
    pub oob_labels: u64,
}

/// Run the centroid update.
#[allow(clippy::too_many_arguments)]
pub fn update_centroids<T: Scalar>(
    device: &DeviceProfile,
    samples: &GlobalBuffer<T>,
    m: usize,
    dim: usize,
    labels: &[u32],
    old_centroids: &Matrix<T>,
    dmr: bool,
    hook: &dyn FaultHook<T>,
    counters: &Counters,
) -> Result<UpdateResult<T>, SimError> {
    if labels.len() != m {
        return Err(SimError::ShapeMismatch(format!(
            "{} labels for {m} samples",
            labels.len()
        )));
    }
    let k = old_centroids.rows();
    let per_block = SAMPLE_TILE * k.div_ceil(16).max(1);
    let blocks = m.div_ceil(per_block).max(1);
    let part_sums = GlobalBuffer::<T>::uninit(blocks * k * dim);
    part_sums.set_sanitizer_label("update.part_sums");
    let part_counts = GlobalBuffer::<u32>::uninit(blocks * k);
    part_counts.set_sanitizer_label("update.part_counts");
    let out = GlobalBuffer::<T>::uninit(k * dim);
    out.set_sanitizer_label("update.out");
    let count_out = GlobalBuffer::<u32>::uninit(k);
    count_out.set_sanitizer_label("update.counts");
    let old = GlobalBuffer::from_matrix(old_centroids);
    old.set_sanitizer_label("update.old");
    let phase = UpdatePhase {
        samples,
        labels,
        m,
        dim,
        k,
        per_block,
        blocks,
        dmr,
        part_sums,
        part_counts,
        old,
        out,
        count_out,
        dmr_stats: Mutex::new(DmrStats::default()),
        oob_labels: AtomicU64::new(0),
    };
    // A hook that never changes a value need not be called: the inert
    // launches run the same kernel bodies monomorphised over `NoFault`,
    // whose `post_fma` inlines away, instead of making a virtual call per
    // element. Values, DMR executions and charges are the same either way.
    let inert = hook.is_inert();

    // Kernel 1: combine — each block accumulates its samples into private
    // sums and counts and writes them out as one partial (§III-A2's fused
    // accumulation, without the cross-block atomicAdd).
    let cfg = LaunchConfig {
        grid: Dim3::x(blocks),
        threads_per_block: 256,
        smem_bytes: 0,
    };
    launch_grid_labeled(device, cfg, counters, "update_accumulate", |ctx| {
        if inert {
            phase.accumulate(ctx, &NoFault);
        } else {
            phase.accumulate(ctx, hook);
        }
    })?;

    // Kernel 2: reduce and average — one thread per centroid-matrix
    // *element*, so the work spreads over the worker pool even at small k.
    let cfg2 = LaunchConfig {
        grid: Dim3::x((k * dim).div_ceil(ELEMS_PER_BLOCK).max(1)),
        threads_per_block: 256,
        smem_bytes: 0,
    };
    launch_grid_labeled(device, cfg2, counters, "update_divide", |ctx| {
        if inert {
            phase.divide(ctx, &NoFault);
        } else {
            phase.divide(ctx, hook);
        }
    })?;

    let dmr = *phase.dmr_stats.lock();
    Ok(UpdateResult {
        centroids: phase.out.to_matrix(k, dim),
        counts: phase.count_out.to_vec(),
        dmr,
        oob_labels: phase.oob_labels.into_inner(),
    })
}

/// The buffers and shape of one centroid update, shared by its two
/// kernels. The kernel bodies are generic over the fault hook, so one
/// source serves both the hooked and the inert launches.
struct UpdatePhase<'a, T: Scalar> {
    samples: &'a GlobalBuffer<T>,
    labels: &'a [u32],
    m: usize,
    dim: usize,
    k: usize,
    per_block: usize,
    blocks: usize,
    dmr: bool,
    part_sums: GlobalBuffer<T>,
    part_counts: GlobalBuffer<u32>,
    old: GlobalBuffer<T>,
    out: GlobalBuffer<T>,
    count_out: GlobalBuffer<u32>,
    dmr_stats: Mutex<DmrStats>,
    oob_labels: AtomicU64,
}

impl<T: Scalar> UpdatePhase<'_, T> {
    /// `update_accumulate` block `ctx.bx`: sum its samples into block-local
    /// per-cluster sums and counts and write them out as one partial.
    fn accumulate<H: FaultHook<T> + ?Sized>(&self, ctx: &BlockCtx, hook: &H) {
        let (dim, k, dmr) = (self.dim, self.k, self.dmr);
        let row0 = ctx.bx * self.per_block;
        let mut local_dmr = DmrStats::default();
        let mut sums = ScratchBuf::<T, 1024>::filled(k * dim, T::ZERO);
        let mut counts = ScratchBuf::<u32, 256>::filled(k, 0);
        let mut xrow = ScratchBuf::<T, 256>::filled(dim, T::ZERO);
        for (i, &label) in self
            .labels
            .iter()
            .enumerate()
            .take((row0 + self.per_block).min(self.m))
            .skip(row0)
        {
            let c = label as usize;
            if c >= k {
                // A bit flip in a label (fail-continue fault model) must
                // not index the sums out of bounds: detect it and drop the
                // sample from this update.
                self.oob_labels.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            self.samples.load_run(i * dim, &mut xrow, ctx.counters);
            let acc = &mut sums[c * dim..(c + 1) * dim];
            for (d, (&x, s)) in xrow.iter().zip(acc).enumerate() {
                let site = MmaSite {
                    block: (i / SAMPLE_TILE, 0),
                    warp: 0,
                    k_step: d,
                    is_checksum: false,
                };
                *s += if dmr {
                    // Duplicated arithmetic: both replicas run the same FMA
                    // through the fault hook; disagreement is voted out.
                    protected(|_| hook.post_fma(&site, x), 3, &mut local_dmr)
                } else {
                    hook.post_fma(&site, x)
                };
            }
            ctx.counters.add_fma((if dmr { 2 } else { 1 }) * dim as u64);
            counts[c] += 1;
        }
        self.part_sums
            .store_run(ctx.bx * k * dim, &sums, ctx.counters);
        // Index traffic is not byte-counted (see `gpu_sim::memory`).
        self.part_counts.write_range(ctx.bx * k, &counts);
        if dmr {
            self.dmr_stats.lock().merge(&local_dmr);
        }
    }

    /// `update_divide` block `ctx.bx`: for each of its centroid-matrix
    /// elements, sum the partials from zero in ascending block order and
    /// average (an empty cluster keeps its old position).
    fn divide<H: FaultHook<T> + ?Sized>(&self, ctx: &BlockCtx, hook: &H) {
        let (dim, k, blocks) = (self.dim, self.k, self.blocks);
        let e0 = ctx.bx * ELEMS_PER_BLOCK;
        let mut local_dmr = DmrStats::default();
        let (mut cur, mut n) = (usize::MAX, 0u32);
        for e in e0..(e0 + ELEMS_PER_BLOCK).min(k * dim) {
            let (c, d) = (e / dim, e % dim);
            if c != cur {
                cur = c;
                n = (0..blocks).map(|b| self.part_counts.load(b * k + c)).sum();
                if d == 0 {
                    // exactly one element per cluster publishes its count
                    self.count_out.store(c, n);
                }
            }
            let v = if n == 0 {
                self.old.load_counted(e, ctx.counters)
            } else {
                let mut s = T::ZERO;
                for b in 0..blocks {
                    s += self.part_sums.load_counted(b * k * dim + e, ctx.counters);
                }
                let site = MmaSite {
                    block: (ctx.bx, 0),
                    warp: 1,
                    k_step: d,
                    is_checksum: false,
                };
                let divide = |_: u32| hook.post_fma(&site, s / T::from_usize(n as usize));
                if self.dmr {
                    protected(divide, 3, &mut local_dmr)
                } else {
                    divide(0)
                }
            };
            self.out.store_counted(e, v, ctx.counters);
        }
        if self.dmr {
            self.dmr_stats.lock().merge(&local_dmr);
        }
    }
}

/// Per-centroid drift `‖c_old − c_new‖` of one update step, written into
/// `out` (length `k`) and returned as its maximum — the two quantities the
/// Hamerly variant loosens its bounds by. A standalone kernel (one block
/// per centroid, counted bulk row loads) so the fused update keeps its
/// exact two-launch profile; the driver folds it into the update phase
/// only for [`crate::config::Variant::Hamerly`] fits.
pub fn centroid_drift<T: Scalar>(
    device: &DeviceProfile,
    old: &GlobalBuffer<T>,
    new: &GlobalBuffer<T>,
    k: usize,
    dim: usize,
    out: &GlobalBuffer<T>,
    counters: &Counters,
) -> Result<T, SimError> {
    if old.len() != k * dim || new.len() != k * dim || out.len() != k {
        return Err(SimError::ShapeMismatch(format!(
            "drift buffers: old {} new {} out {} for k={k} dim={dim}",
            old.len(),
            new.len(),
            out.len()
        )));
    }
    let cfg = LaunchConfig {
        grid: Dim3::x(k.max(1)),
        threads_per_block: 32,
        smem_bytes: 0,
    };
    launch_grid_labeled(device, cfg, counters, "centroid_drift", |ctx| {
        let j = ctx.bx;
        if j >= k {
            return;
        }
        let mut a = ScratchBuf::<T, 256>::filled(dim, T::ZERO);
        let mut b = ScratchBuf::<T, 256>::filled(dim, T::ZERO);
        old.load_run(j * dim, &mut a, ctx.counters);
        new.load_run(j * dim, &mut b, ctx.counters);
        let mut acc = T::ZERO;
        for (&av, &bv) in a.iter().zip(b.iter()) {
            let diff = av - bv;
            acc += diff * diff;
        }
        ctx.counters.add_fma((2 * dim) as u64);
        out.store_counted(j, acc.max_s(T::ZERO).sqrt(), ctx.counters);
    })?;
    let mut max_drift = T::ZERO;
    for d in out.to_vec() {
        max_drift = max_drift.max_s(d);
    }
    Ok(max_drift)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::update_reference;
    use fault::{Injector, PlannedInjection};

    fn setup(m: usize, dim: usize, k: usize) -> (Matrix<f64>, Vec<u32>, Matrix<f64>) {
        let samples = Matrix::<f64>::from_fn(m, dim, |r, c| ((r * 3 + c) % 7) as f64 - 3.0);
        let labels: Vec<u32> = (0..m).map(|i| (i % k) as u32).collect();
        let old = Matrix::<f64>::from_fn(k, dim, |r, c| (r + c) as f64);
        (samples, labels, old)
    }

    #[test]
    fn matches_reference_update() {
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let (samples, labels, old) = setup(100, 5, 7);
        let buf = GlobalBuffer::from_matrix(&samples);
        let out = update_centroids(&dev, &buf, 100, 5, &labels, &old, false, &NoFault, &c).unwrap();
        let (want, want_counts) = update_reference(&samples, &labels, &old);
        assert_eq!(out.counts, want_counts);
        assert!(out.centroids.max_abs_diff(&want) < 1e-9);
    }

    #[test]
    fn empty_cluster_keeps_old_position() {
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let samples = Matrix::<f32>::filled(4, 2, 1.0);
        let labels = vec![0, 0, 0, 0];
        let old = Matrix::from_vec(2, 2, vec![0.0f32, 0.0, 7.0, 8.0]).unwrap();
        let out = update_centroids(
            &dev,
            &GlobalBuffer::from_matrix(&samples),
            4,
            2,
            &labels,
            &old,
            false,
            &NoFault,
            &c,
        )
        .unwrap();
        assert_eq!(out.counts, vec![4, 0]);
        assert_eq!(out.centroids.get(1, 0), 7.0);
        assert_eq!(out.centroids.get(1, 1), 8.0);
        assert_eq!(out.centroids.get(0, 0), 1.0);
    }

    #[test]
    fn dmr_votes_out_injected_fault() {
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let (samples, labels, old) = setup(64, 4, 4);
        let buf = GlobalBuffer::from_matrix(&samples);
        // One planned strike on the accumulation FMA of block 0.
        let inj = Injector::planned(vec![PlannedInjection {
            block: (0, 0),
            warp: 0,
            k_step: 2,
            elem_idx: 0,
            bit: 62,
            target_checksum: false,
        }]);
        let out = update_centroids(&dev, &buf, 64, 4, &labels, &old, true, &inj, &c).unwrap();
        assert_eq!(inj.injected_count(), 1);
        assert_eq!(out.dmr.mismatches, 1, "DMR caught the corrupted replica");
        let (want, _) = update_reference(&samples, &labels, &old);
        assert!(
            out.centroids.max_abs_diff(&want) < 1e-9,
            "result unaffected"
        );
    }

    #[test]
    fn unprotected_update_is_corrupted_by_same_fault() {
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let (samples, labels, old) = setup(64, 4, 4);
        let buf = GlobalBuffer::from_matrix(&samples);
        let inj = Injector::planned(vec![PlannedInjection {
            block: (0, 0),
            warp: 0,
            k_step: 2,
            elem_idx: 0,
            bit: 62,
            target_checksum: false,
        }]);
        let out = update_centroids(&dev, &buf, 64, 4, &labels, &old, false, &inj, &c).unwrap();
        let (want, _) = update_reference(&samples, &labels, &old);
        assert!(
            out.centroids.max_abs_diff(&want) > 1.0,
            "without DMR the flip silently lands in a centroid"
        );
    }

    #[test]
    fn out_of_range_label_is_detected_not_fatal() {
        // A bit flip in a label can push it far past k; the update must
        // survive (no OOB indexing, debug or release), report the fault,
        // and exclude only the corrupted sample.
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let (samples, mut labels, old) = setup(100, 5, 7);
        labels[17] = 7 + (1 << 20); // corrupted label, way out of range
        let buf = GlobalBuffer::from_matrix(&samples);
        let out = update_centroids(&dev, &buf, 100, 5, &labels, &old, false, &NoFault, &c).unwrap();
        assert_eq!(out.oob_labels, 1, "corruption counted as detected");
        // Result equals the reference computed over the surviving samples.
        let mut clean_labels = labels.clone();
        clean_labels[17] = 0;
        let keep: Vec<usize> = (0..100).filter(|&i| i != 17).collect();
        let kept = Matrix::from_fn(keep.len(), 5, |r, cc| samples.get(keep[r], cc));
        let kept_labels: Vec<u32> = keep.iter().map(|&i| clean_labels[i]).collect();
        let (want, want_counts) = update_reference(&kept, &kept_labels, &old);
        assert_eq!(out.counts, want_counts);
        assert!(out.centroids.max_abs_diff(&want) < 1e-9);
    }

    #[test]
    fn in_range_labels_report_zero_oob() {
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let (samples, labels, old) = setup(64, 3, 4);
        let buf = GlobalBuffer::from_matrix(&samples);
        let out = update_centroids(&dev, &buf, 64, 3, &labels, &old, false, &NoFault, &c).unwrap();
        assert_eq!(out.oob_labels, 0);
    }

    #[test]
    fn centroid_drift_is_rowwise_euclidean_and_standalone() {
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let old = GlobalBuffer::<f64>::from_slice(&[0.0, 0.0, 1.0, 1.0, 5.0, 5.0]);
        let new = GlobalBuffer::<f64>::from_slice(&[3.0, 4.0, 1.0, 1.0, 5.0, 4.0]);
        let out = GlobalBuffer::<f64>::zeros(3);
        let before = c.snapshot();
        let max_drift = centroid_drift(&dev, &old, &new, 3, 2, &out, &c).unwrap();
        assert_eq!(out.to_vec(), vec![5.0, 0.0, 1.0]);
        assert_eq!(max_drift, 5.0);
        // one launch — the fused update keeps its two-launch profile
        assert_eq!(c.snapshot().since(&before).kernel_launches, 1);
        // shape mismatches rejected
        assert!(centroid_drift(&dev, &old, &new, 2, 2, &out, &c).is_err());
    }

    /// Forwards to [`NoFault`] but does not declare itself inert, so the
    /// update takes the per-element hook path.
    struct Forwarding;

    impl<T: Scalar> FaultHook<T> for Forwarding {
        fn post_mma(&self, site: &MmaSite, acc: &mut [T], wn: usize) {
            NoFault.post_mma(site, acc, wn);
        }
        fn post_fma(&self, site: &MmaSite, value: T) -> T {
            NoFault.post_fma(site, value)
        }
    }

    fn inert_path_equals_hooked_path<T: Scalar>() {
        let dev = DeviceProfile::a100();
        // k = 20 gives 512-sample blocks; m = 1300 is not a multiple.
        let (m, dim, k) = (1300, 7, 20);
        let samples = Matrix::<T>::from_fn(m, dim, |r, c| {
            T::from_f64(((r * 13 + c * 5) % 19) as f64 * 0.37 - 3.1)
        });
        // One cluster left empty, one label out of range.
        let mut labels: Vec<u32> = (0..m).map(|i| ((i * 7) % (k - 1)) as u32).collect();
        labels[901] = 1 << 30;
        let old = Matrix::<T>::from_fn(k, dim, |r, c| T::from_usize(r * dim + c));
        let buf = GlobalBuffer::from_matrix(&samples);
        assert!(!FaultHook::<T>::is_inert(&Forwarding));
        for dmr in [false, true] {
            let run = |hook: &dyn FaultHook<T>| {
                let c = Counters::new();
                let out =
                    update_centroids(&dev, &buf, m, dim, &labels, &old, dmr, hook, &c).unwrap();
                (out, c.snapshot())
            };
            let (inert, inert_c) = run(&NoFault);
            let (hooked, hooked_c) = run(&Forwarding);
            let bits = |c: &Matrix<T>| c.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&inert.centroids), bits(&hooked.centroids), "dmr {dmr}");
            assert_eq!(inert.counts, hooked.counts, "dmr {dmr}");
            assert_eq!(inert.dmr, hooked.dmr, "dmr {dmr}");
            assert_eq!(inert.oob_labels, 1, "dmr {dmr}");
            assert_eq!(inert.oob_labels, hooked.oob_labels, "dmr {dmr}");
            assert_eq!(inert_c, hooked_c, "dmr {dmr}");
            assert_eq!(inert.dmr.executions > 0, dmr, "dmr {dmr}");
        }
    }

    #[test]
    fn inert_hook_path_equals_hooked_path_f32() {
        inert_path_equals_hooked_path::<f32>();
    }

    #[test]
    fn inert_hook_path_equals_hooked_path_f64() {
        inert_path_equals_hooked_path::<f64>();
    }

    #[test]
    fn dmr_off_has_zero_stats() {
        let dev = DeviceProfile::t4();
        let c = Counters::new();
        let (samples, labels, old) = setup(16, 2, 2);
        let buf = GlobalBuffer::from_matrix(&samples);
        let out = update_centroids(&dev, &buf, 16, 2, &labels, &old, false, &NoFault, &c).unwrap();
        assert_eq!(out.dmr, DmrStats::default());
    }
}
