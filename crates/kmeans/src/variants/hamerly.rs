//! Bound-pruned assignment — Hamerly's algorithm as the sixth kernel
//! family.
//!
//! Every other variant recomputes all `m × k` distances per iteration.
//! This kernel keeps, per sample, an upper bound `u(i)` on the distance to
//! its assigned centroid and a single lower bound `l(i)` on the distance to
//! the second-closest one (Euclidean, not squared), plus per-centroid
//! half-separations `s_half(j)`. Whenever `u(i) ≤ max(l(i), s_half(a))`
//! the triangle inequality proves the assignment cannot change and the
//! whole k-way scan is skipped — after the first few Lloyd iterations the
//! drifts shrink and the vast majority of samples prune.
//!
//! Floating-point soundness: bounds are inflated/deflated by the
//! [`BoundPolicy`] slack, so a prune implies a true relative gap the
//! reference scan's rounding noise cannot bridge — the pruned labels are
//! bit-for-bit the labels the naive kernel would produce. The un-pruned
//! path mirrors the naive kernel's arithmetic exactly (same accumulation
//! order, same tie-break, same fault-hook sites).
//!
//! Fault tolerance: the bounds are device-resident state a bit flip can
//! silently corrupt into a wrong assignment (an upper bound flipped low
//! prunes a sample that should have rescanned). The protection is
//! [`revalidate`] — an exact-distance sweep over a deterministic sample
//! stratum whose slack-tolerant checks only trip on real corruption; the
//! driver runs it periodically, counting violations as detected and
//! forcing an un-pruned re-assignment (`force_full`) to rebuild the
//! state. Under a protective [`abft::SchemeKind`] (and always on the
//! final iteration) the due sweep is instead [`revalidate_and_repair`]:
//! full-width, rewriting bounds and labels from the exact quantities and
//! handing the driver the verified assignment outright.

use crate::assign::AssignmentResult;
use crate::device_data::{BoundState, DeviceData};
use abft::BoundPolicy;
use gpu_sim::mma::{FaultHook, MmaSite};
use gpu_sim::{
    launch_grid_labeled, Counters, DeviceProfile, Dim3, GlobalBuffer, LaunchConfig, Scalar,
    ScratchBuf, SimError,
};

/// Samples per threadblock (matches the naive kernel's blocking).
const SAMPLES_PER_BLOCK: usize = 256;

/// Stratum width of the periodic revalidation pass: one pass checks the
/// samples whose index is congruent to the rotating phase modulo this.
pub const REVALIDATE_STRIDE: usize = 8;

/// The bound policy this variant runs under for a feature dimension.
pub fn bound_policy<T: Scalar>(dim: usize) -> BoundPolicy {
    BoundPolicy::for_precision(T::PRECISION, dim)
}

/// Run the bound-pruned assignment kernel.
///
/// With [`DeviceData::bounds`] present the kernel prunes against the
/// resident bound state and rewrites it; without it (the stateless
/// predict/mini-batch path) every sample takes the full naive-identical
/// scan and no state is touched. `force_full` disables pruning for one
/// pass while still rebuilding the bounds — the recovery action after a
/// revalidation alarm.
pub fn hamerly_assign<T: Scalar>(
    device: &DeviceProfile,
    data: &DeviceData<T>,
    force_full: bool,
    hook: &dyn FaultHook<T>,
    counters: &Counters,
) -> Result<AssignmentResult<T>, SimError> {
    let (m, k, dim) = (data.m, data.k, data.dim);
    let policy = bound_policy::<T>(dim);
    let out_labels = GlobalBuffer::<u32>::zeros(m);
    out_labels.set_sanitizer_label("hamerly.labels");
    let dists = GlobalBuffer::<T>::filled(m, T::INFINITY);
    dists.set_sanitizer_label("hamerly.dists");
    let bounds: Option<&BoundState<T>> = data.bounds.as_ref();
    let grid = Dim3::x(m.div_ceil(SAMPLES_PER_BLOCK).max(1));
    let cfg = LaunchConfig {
        grid,
        threads_per_block: SAMPLES_PER_BLOCK,
        smem_bytes: 0,
    };

    launch_grid_labeled(device, cfg, counters, "hamerly_assign", |ctx| {
        let row0 = ctx.bx * SAMPLES_PER_BLOCK;
        let rows = SAMPLES_PER_BLOCK.min(m.saturating_sub(row0));
        if rows == 0 {
            return;
        }
        let mut x = ScratchBuf::<T, 256>::filled(dim, T::ZERO);
        let mut y = ScratchBuf::<T, 256>::filled(dim, T::ZERO);
        let mut best_d = [T::INFINITY; SAMPLES_PER_BLOCK];
        let mut best_j = [u32::MAX; SAMPLES_PER_BLOCK];

        // Stage the block's bound state: u/l move as counted bulk runs
        // (the PR-3 transaction path), labels and the k-length broadcast
        // vectors uncounted like every variant's index/broadcast traffic.
        let mut u_buf = [T::ZERO; SAMPLES_PER_BLOCK];
        let mut l_buf = [T::ZERO; SAMPLES_PER_BLOCK];
        let mut lab_buf = [0u32; SAMPLES_PER_BLOCK];
        let mut s_half = vec![T::ZERO; k];
        if let Some(b) = bounds {
            if !force_full {
                b.upper.load_run(row0, &mut u_buf[..rows], ctx.counters);
                b.lower.load_run(row0, &mut l_buf[..rows], ctx.counters);
                b.labels.read_range(row0, &mut lab_buf[..rows]);
                b.s_half.read_range(0, &mut s_half);
            }
        }

        for i in 0..rows {
            let mut x_loaded = false;
            if bounds.is_some() && !force_full {
                let a = lab_buf[i] as usize;
                let z = l_buf[i].max_s(s_half[a]);
                if u_buf[i] <= z {
                    // Bound prune: the assignment provably cannot change;
                    // all k candidate distances are skipped and no sample
                    // or centroid row is read.
                    ctx.counters.add_pruned(k as u64);
                    best_d[i] = u_buf[i] * u_buf[i];
                    best_j[i] = lab_buf[i];
                    continue;
                }
                // Tighten: one exact distance to the assigned centroid,
                // computed with the reference arithmetic, may re-prove the
                // prune with a fresh (drift-free) upper bound.
                data.samples
                    .load_run((row0 + i) * dim, &mut x, ctx.counters);
                x_loaded = true;
                data.centroids.load_run(a * dim, &mut y, ctx.counters);
                let mut acc = T::ZERO;
                for (&xv, &yv) in x.iter().zip(y.iter()) {
                    let diff = xv - yv;
                    acc += diff * diff;
                }
                ctx.counters.add_fma((2 * dim) as u64);
                let site = MmaSite {
                    block: (ctx.bx, 0),
                    warp: 0,
                    k_step: a,
                    is_checksum: false,
                };
                let acc = hook.post_fma(&site, acc);
                // A NaN distance proves nothing (`max_s` would turn it into
                // a zero bound): fall through to the full scan.
                let tightened = policy.inflate(acc.max_s(T::ZERO).sqrt());
                if acc.is_finite_s() && tightened <= z {
                    ctx.counters.add_pruned((k - 1) as u64);
                    u_buf[i] = tightened;
                    best_d[i] = acc;
                    best_j[i] = lab_buf[i];
                    continue;
                }
            }

            // Full scan — bitwise the naive kernel's loop (same loads,
            // accumulation order, FMA charge, hook sites and tie-break).
            if !x_loaded {
                data.samples
                    .load_run((row0 + i) * dim, &mut x, ctx.counters);
            }
            let mut best = T::INFINITY;
            let mut best_idx = u32::MAX;
            let mut second = T::INFINITY;
            for j in 0..k {
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
                    second = best;
                    best = acc;
                    best_idx = j as u32;
                } else if acc < second {
                    second = acc;
                }
            }
            best_d[i] = best;
            best_j[i] = best_idx;
            if bounds.is_some() {
                u_buf[i] = policy.inflate(best.max_s(T::ZERO).sqrt());
                l_buf[i] = policy.deflate(second.max_s(T::ZERO).sqrt());
                lab_buf[i] = best_idx;
            }
        }

        if let Some(b) = bounds {
            b.upper.store_run(row0, &u_buf[..rows], ctx.counters);
            b.lower.store_run(row0, &l_buf[..rows], ctx.counters);
            b.labels.write_range(row0, &lab_buf[..rows]);
        }
        out_labels.write_range(row0, &best_j[..rows]);
        dists.store_run(row0, &best_d[..rows], ctx.counters);
    })?;

    Ok(AssignmentResult {
        labels: out_labels.to_vec(),
        distances: dists.to_vec(),
    })
}

/// Recompute the per-centroid half-separations `s_half(j) = ½·min_{i≠j}
/// ‖c_j − c_i‖`, deflated by the policy slack, into the resident bound
/// state. One block per centroid; must run whenever the centroids change.
pub fn compute_s_half<T: Scalar>(
    device: &DeviceProfile,
    data: &DeviceData<T>,
    counters: &Counters,
) -> Result<(), SimError> {
    let (k, dim) = (data.k, data.dim);
    let policy = bound_policy::<T>(dim);
    let b = data
        .bounds
        .as_ref()
        .expect("compute_s_half requires bounds");
    let cfg = LaunchConfig {
        grid: Dim3::x(k.max(1)),
        threads_per_block: 32,
        smem_bytes: 0,
    };
    launch_grid_labeled(device, cfg, counters, "hamerly_s_half", |ctx| {
        let j = ctx.bx;
        if j >= k {
            return;
        }
        let mut y = ScratchBuf::<T, 256>::filled(dim, T::ZERO);
        let mut z = ScratchBuf::<T, 256>::filled(dim, T::ZERO);
        data.centroids.load_run(j * dim, &mut y, ctx.counters);
        let mut best = T::INFINITY;
        for i in 0..k {
            if i == j {
                continue;
            }
            data.centroids.load_run(i * dim, &mut z, ctx.counters);
            let mut acc = T::ZERO;
            for (&yv, &zv) in y.iter().zip(z.iter()) {
                let diff = yv - zv;
                acc += diff * diff;
            }
            ctx.counters.add_fma((2 * dim) as u64);
            if acc < best {
                best = acc;
            }
        }
        // k = 1 leaves `best = +∞`: every sample prunes forever, correctly.
        let half = T::from_f64(0.5) * best.max_s(T::ZERO).sqrt();
        b.s_half
            .store_counted(j, policy.deflate(half), ctx.counters);
    })
}

/// Loosen the resident bounds for the centroid motion of one update:
/// `u(i) += inflate(drift(a(i)))`, `l(i) −= inflate(max_drift)`. Applied
/// eagerly right after the centroids move, so the bounds are always
/// current against [`DeviceData::centroids`] and [`revalidate`] can run at
/// any point.
pub fn apply_drift<T: Scalar>(
    device: &DeviceProfile,
    data: &DeviceData<T>,
    max_drift: T,
    counters: &Counters,
) -> Result<(), SimError> {
    let (m, k, dim) = (data.m, data.k, data.dim);
    let policy = bound_policy::<T>(dim);
    let b = data.bounds.as_ref().expect("apply_drift requires bounds");
    let loosen = policy.inflate(max_drift);
    let cfg = LaunchConfig {
        grid: Dim3::x(m.div_ceil(SAMPLES_PER_BLOCK).max(1)),
        threads_per_block: SAMPLES_PER_BLOCK,
        smem_bytes: 0,
    };
    launch_grid_labeled(device, cfg, counters, "hamerly_apply_drift", |ctx| {
        let row0 = ctx.bx * SAMPLES_PER_BLOCK;
        let rows = SAMPLES_PER_BLOCK.min(m.saturating_sub(row0));
        if rows == 0 {
            return;
        }
        let mut u_buf = [T::ZERO; SAMPLES_PER_BLOCK];
        let mut l_buf = [T::ZERO; SAMPLES_PER_BLOCK];
        let mut lab_buf = [0u32; SAMPLES_PER_BLOCK];
        let mut drift = vec![T::ZERO; k];
        b.upper.load_run(row0, &mut u_buf[..rows], ctx.counters);
        b.lower.load_run(row0, &mut l_buf[..rows], ctx.counters);
        b.labels.read_range(row0, &mut lab_buf[..rows]);
        b.drift.read_range(0, &mut drift);
        for i in 0..rows {
            u_buf[i] += policy.inflate(drift[lab_buf[i] as usize]);
            l_buf[i] -= loosen;
        }
        b.upper.store_run(row0, &u_buf[..rows], ctx.counters);
        b.lower.store_run(row0, &l_buf[..rows], ctx.counters);
    })
}

/// The checksum-style protection pass: recompute exact distances for the
/// deterministic sample stratum `index ≡ phase (mod stride)` with the
/// reference arithmetic and check the resident state against them. A
/// sample violates when its stored label is not the exact argmin, its
/// upper bound sits below the true assigned distance by more than the
/// policy slack, or its lower bound sits above the true second-closest
/// distance by more than the slack — none of which fault-free maintenance
/// can produce. Returns the violation count (`stride = 1` sweeps the whole
/// population).
pub fn revalidate<T: Scalar>(
    device: &DeviceProfile,
    data: &DeviceData<T>,
    stride: usize,
    phase: usize,
    counters: &Counters,
) -> Result<u64, SimError> {
    let (m, k, dim) = (data.m, data.k, data.dim);
    let policy = bound_policy::<T>(dim);
    let b = data.bounds.as_ref().expect("revalidate requires bounds");
    let stride = stride.max(1);
    let violations = GlobalBuffer::<u32>::zeros(1);
    violations.set_sanitizer_label("hamerly.violations");
    let cfg = LaunchConfig {
        grid: Dim3::x(m.div_ceil(SAMPLES_PER_BLOCK).max(1)),
        threads_per_block: SAMPLES_PER_BLOCK,
        smem_bytes: 0,
    };
    launch_grid_labeled(device, cfg, counters, "hamerly_revalidate", |ctx| {
        let row0 = ctx.bx * SAMPLES_PER_BLOCK;
        let rows = SAMPLES_PER_BLOCK.min(m.saturating_sub(row0));
        let mut x = ScratchBuf::<T, 256>::filled(dim, T::ZERO);
        let mut y = ScratchBuf::<T, 256>::filled(dim, T::ZERO);
        for i in 0..rows {
            let idx = row0 + i;
            if idx % stride != phase % stride {
                continue;
            }
            data.samples.load_run(idx * dim, &mut x, ctx.counters);
            let mut best = T::INFINITY;
            let mut best_idx = u32::MAX;
            let mut second = T::INFINITY;
            for j in 0..k {
                data.centroids.load_run(j * dim, &mut y, ctx.counters);
                let mut acc = T::ZERO;
                for (&xv, &yv) in x.iter().zip(y.iter()) {
                    let diff = xv - yv;
                    acc += diff * diff;
                }
                ctx.counters.add_fma((2 * dim) as u64);
                if acc < best || (acc == best && (j as u32) < best_idx) {
                    second = best;
                    best = acc;
                    best_idx = j as u32;
                } else if acc < second {
                    second = acc;
                }
            }
            // strided verification reads: per-element counted traffic
            let u = b.upper.load_counted(idx, ctx.counters);
            let l = b.lower.load_counted(idx, ctx.counters);
            // Index traffic is not byte-counted by design (see
            // `gpu_sim::memory`). ftk-lint: allow(raw-access)
            let label = b.labels.load(idx);
            let exact = best.max_s(T::ZERO).sqrt();
            let exact_second = second.max_s(T::ZERO).sqrt();
            if label != best_idx
                || policy.upper_violates(u, exact)
                || policy.lower_violates(l, exact_second)
            {
                violations.atomic_inc(0, ctx.counters);
            }
        }
    })?;
    // Host-side single-cell readback after the launch, not kernel traffic.
    Ok(violations.load(0) as u64) // ftk-lint: allow(raw-access)
}

/// Full-width verify-and-repair sweep — the protective-scheme form of
/// [`revalidate`]. Recomputes the exact assignment (reference arithmetic,
/// naive tie-break) for **every** sample, counts stored labels/bounds the
/// slack-tolerant checks reject (same predicate as [`revalidate`]),
/// rewrites the resident bound state from the exact quantities, and
/// returns the exact assignment for the driver to adopt.
///
/// This is the Kosaian-style recompute story applied to the bound-pruned
/// variant: the sweep is hook-free, so whatever a fault did to the
/// pruned pass — a flipped label, a silently inflated distance, a
/// corrupted bound — the state the update phase consumes is the verified
/// one. With `revalidate_every = 1` a protected fit is therefore
/// bit-identical to its fault-free twin whatever the barrage, which is
/// exactly what the campaign's zero-SDC gate measures.
pub fn revalidate_and_repair<T: Scalar>(
    device: &DeviceProfile,
    data: &DeviceData<T>,
    counters: &Counters,
) -> Result<(u64, AssignmentResult<T>), SimError> {
    let (m, k, dim) = (data.m, data.k, data.dim);
    let policy = bound_policy::<T>(dim);
    let b = data
        .bounds
        .as_ref()
        .expect("revalidate_and_repair requires bounds");
    let violations = GlobalBuffer::<u32>::zeros(1);
    violations.set_sanitizer_label("hamerly.repair.violations");
    let out_labels = GlobalBuffer::<u32>::zeros(m);
    out_labels.set_sanitizer_label("hamerly.repair.labels");
    let dists = GlobalBuffer::<T>::filled(m, T::INFINITY);
    dists.set_sanitizer_label("hamerly.repair.dists");
    let cfg = LaunchConfig {
        grid: Dim3::x(m.div_ceil(SAMPLES_PER_BLOCK).max(1)),
        threads_per_block: SAMPLES_PER_BLOCK,
        smem_bytes: 0,
    };
    launch_grid_labeled(device, cfg, counters, "hamerly_reval_repair", |ctx| {
        let row0 = ctx.bx * SAMPLES_PER_BLOCK;
        let rows = SAMPLES_PER_BLOCK.min(m.saturating_sub(row0));
        if rows == 0 {
            return;
        }
        let mut x = ScratchBuf::<T, 256>::filled(dim, T::ZERO);
        let mut y = ScratchBuf::<T, 256>::filled(dim, T::ZERO);
        // Stored state streams through as contiguous runs: the full sweep
        // touches every sample, so the verification reads coalesce.
        let mut u_buf = [T::ZERO; SAMPLES_PER_BLOCK];
        let mut l_buf = [T::ZERO; SAMPLES_PER_BLOCK];
        let mut lab_buf = [0u32; SAMPLES_PER_BLOCK];
        let mut best_d = [T::INFINITY; SAMPLES_PER_BLOCK];
        b.upper.load_run(row0, &mut u_buf[..rows], ctx.counters);
        b.lower.load_run(row0, &mut l_buf[..rows], ctx.counters);
        b.labels.read_range(row0, &mut lab_buf[..rows]);
        for i in 0..rows {
            data.samples
                .load_run((row0 + i) * dim, &mut x, ctx.counters);
            let mut best = T::INFINITY;
            let mut best_idx = u32::MAX;
            let mut second = T::INFINITY;
            for j in 0..k {
                data.centroids.load_run(j * dim, &mut y, ctx.counters);
                let mut acc = T::ZERO;
                for (&xv, &yv) in x.iter().zip(y.iter()) {
                    let diff = xv - yv;
                    acc += diff * diff;
                }
                ctx.counters.add_fma((2 * dim) as u64);
                if acc < best || (acc == best && (j as u32) < best_idx) {
                    second = best;
                    best = acc;
                    best_idx = j as u32;
                } else if acc < second {
                    second = acc;
                }
            }
            let exact = best.max_s(T::ZERO).sqrt();
            let exact_second = second.max_s(T::ZERO).sqrt();
            if lab_buf[i] != best_idx
                || policy.upper_violates(u_buf[i], exact)
                || policy.lower_violates(l_buf[i], exact_second)
            {
                violations.atomic_inc(0, ctx.counters);
            }
            // Repair unconditionally: the exact quantities are in hand, and
            // rewriting them is what makes the sweep's output trustworthy
            // even when the corruption stayed under the slack.
            u_buf[i] = policy.inflate(exact);
            l_buf[i] = policy.deflate(exact_second);
            lab_buf[i] = best_idx;
            best_d[i] = best;
        }
        b.upper.store_run(row0, &u_buf[..rows], ctx.counters);
        b.lower.store_run(row0, &l_buf[..rows], ctx.counters);
        b.labels.write_range(row0, &lab_buf[..rows]);
        out_labels.write_range(row0, &lab_buf[..rows]);
        dists.store_run(row0, &best_d[..rows], ctx.counters);
    })?;
    Ok((
        // Host-side readback after the launch. ftk-lint: allow(raw-access)
        violations.load(0) as u64,
        AssignmentResult {
            labels: out_labels.to_vec(),
            distances: dists.to_vec(),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::assign_reference;
    use crate::variants::naive::naive_assign;
    use gpu_sim::mma::NoFault;
    use gpu_sim::Matrix;

    fn fixture() -> (Matrix<f64>, Matrix<f64>) {
        let samples = Matrix::<f64>::from_fn(193, 17, |r, c| ((r * 31 + c * 7) % 17) as f64 - 8.0);
        // 13 rows keep the mod-15 pattern collision-free: the rows are
        // pairwise distinct, so no centroid has a zero-distance twin (a
        // duplicate would pin s_half at 0 and second == best for every
        // sample, making pruning structurally impossible).
        let cents = Matrix::<f64>::from_fn(13, 17, |r, c| ((r * 13 + c * 5) % 15) as f64 - 7.0);
        (samples, cents)
    }

    #[test]
    fn stateless_path_matches_naive_bitwise() {
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let (samples, cents) = fixture();
        let data = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
        let a = hamerly_assign(&dev, &data, false, &NoFault, &c).unwrap();
        let b = naive_assign(&dev, &data, &NoFault, &c).unwrap();
        assert_eq!(a.labels, b.labels);
        for (x, y) in a.distances.iter().zip(b.distances.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn first_pass_with_bounds_is_a_full_scan_and_seeds_them() {
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let (samples, cents) = fixture();
        let mut data = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
        data.ensure_bounds();
        compute_s_half(&dev, &data, &c).unwrap();
        let before = c.snapshot();
        let out = hamerly_assign(&dev, &data, false, &NoFault, &c).unwrap();
        assert_eq!(
            c.snapshot().since(&before).pruned_candidates,
            0,
            "vacuous bounds cannot prune"
        );
        let (want, _) = assign_reference(&samples, &cents);
        assert_eq!(out.labels, want);
        let b = data.bounds.as_ref().unwrap();
        assert_eq!(b.labels.to_vec(), want);
        // seeded bounds bracket the exact distances
        let (_, dists) = assign_reference(&samples, &cents);
        for (i, d) in dists.iter().enumerate() {
            assert!(b.upper.load(i) >= d.sqrt());
        }
        // and immediately revalidate clean
        assert_eq!(revalidate(&dev, &data, 1, 0, &c).unwrap(), 0);
    }

    #[test]
    fn second_pass_prunes_and_stays_exact_when_centroids_hold_still() {
        // No centroid motion between passes: every sample must prune (u
        // equals its own distance, l the second distance, gap ≥ slack on
        // this integer fixture), and labels must stay the reference ones.
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let (samples, cents) = fixture();
        let mut data = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
        data.ensure_bounds();
        compute_s_half(&dev, &data, &c).unwrap();
        let first = hamerly_assign(&dev, &data, false, &NoFault, &c).unwrap();
        let before = c.snapshot();
        let second = hamerly_assign(&dev, &data, false, &NoFault, &c).unwrap();
        let pruned = c.snapshot().since(&before).pruned_candidates;
        assert_eq!(second.labels, first.labels);
        // exact distance ties (possible on an integer fixture) legitimately
        // refuse to prune, so demand "most", not "all"
        assert!(
            pruned as usize > samples.rows() * cents.rows() / 2,
            "stationary centroids must prune most candidates, pruned {pruned}"
        );
        assert_eq!(revalidate(&dev, &data, 1, 0, &c).unwrap(), 0);
    }

    #[test]
    fn s_half_is_infinite_for_a_single_centroid() {
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let samples = Matrix::<f64>::from_fn(9, 3, |r, c| (r + c) as f64);
        let cents = Matrix::<f64>::from_fn(1, 3, |_, c| c as f64);
        let mut data = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
        data.ensure_bounds();
        compute_s_half(&dev, &data, &c).unwrap();
        let b = data.bounds.as_ref().unwrap();
        assert_eq!(b.s_half.load(0), f64::INFINITY);
        // with k = 1 everything prunes from the second pass on
        let _ = hamerly_assign(&dev, &data, false, &NoFault, &c).unwrap();
        let before = c.snapshot();
        let out = hamerly_assign(&dev, &data, false, &NoFault, &c).unwrap();
        assert_eq!(c.snapshot().since(&before).pruned_candidates, 9);
        assert!(out.labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn corrupted_upper_bound_trips_revalidation() {
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let (samples, cents) = fixture();
        let mut data = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
        data.ensure_bounds();
        compute_s_half(&dev, &data, &c).unwrap();
        let _ = hamerly_assign(&dev, &data, false, &NoFault, &c).unwrap();
        assert_eq!(revalidate(&dev, &data, 1, 0, &c).unwrap(), 0);
        // flip an upper bound far below its true distance
        let b = data.bounds.as_ref().unwrap();
        b.upper.store(5, b.upper.load(5) * 1e-3);
        assert_eq!(revalidate(&dev, &data, 1, 0, &c).unwrap(), 1);
        // the stratum not containing sample 5 stays clean
        assert_eq!(
            revalidate(
                &dev,
                &data,
                REVALIDATE_STRIDE,
                (5 + 1) % REVALIDATE_STRIDE,
                &c
            )
            .unwrap(),
            0
        );
        // a forced full pass rebuilds the state
        let _ = hamerly_assign(&dev, &data, true, &NoFault, &c).unwrap();
        assert_eq!(revalidate(&dev, &data, 1, 0, &c).unwrap(), 0);
    }
}
