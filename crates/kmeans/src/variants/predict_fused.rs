//! Fused quantized distance+argmin predict kernel — the serving path.
//!
//! Serving a fitted model is a pure assignment problem: no update phase, no
//! iteration loop, the centroid table is frozen. This kernel exploits that
//! shape three ways the fit-grade kernels cannot:
//!
//! 1. **Quantized resident table.** Each threadblock bulk-loads the
//!    fp16/int8 codes once ([`QuantizedCentroids::stage_dequantized`]),
//!    dequantizes them in registers, and scores all of its samples against
//!    the staged fp table — centroid traffic drops 2–4× *and* stops
//!    scaling with `M` (the naive kernel re-reads the fp table per sample).
//! 2. **Fused epilogue.** The running `(best, second, argmin)` triple lives
//!    in registers while the distance row streams — the `M × k` distance
//!    matrix is never materialized.
//! 3. **In-kernel sample norms.** `‖x‖²` is one extra fused multiply per
//!    element of a row that is already in registers, so the quantized path
//!    launches no separate sample-norms kernel at all.
//!
//! Accuracy is not traded away: every accepted argmin must clear the
//! [`abft::QuantMargin`] bound (quantization displacement + FP noise), and
//! the winner's distance is then re-derived from the exact fp centroid row
//! with the reference scan's own arithmetic — labels *and* distances are
//! bit-identical to [`crate::variants::naive`]. A sample whose margin is
//! too thin falls back to the full exact row scan and is counted via
//! [`gpu_sim::EventSink::add_quant_fallback`].

use crate::assign::AssignmentResult;
use crate::quant::QuantizedCentroids;
use gpu_sim::{
    launch_grid_labeled, Counters, DeviceProfile, Dim3, GlobalBuffer, LaunchConfig, Scalar,
    ScratchBuf, SimError,
};

/// Samples per threadblock (matches the naive kernel's block shape so the
/// two paths see identical grid quantization).
const SAMPLES_PER_BLOCK: usize = 256;

/// Exact squared distance of a staged sample row to one staged fp centroid
/// row — the naive kernel's inner loop verbatim (staging copies bits, so an
/// accepted winner's distance and a fallback row's distances are
/// bit-identical to the reference scan).
#[inline]
fn exact_row_distance<T: Scalar>(x: &[T], fp: &[T], j: usize, dim: usize) -> T {
    let mut acc = T::ZERO;
    for (&xv, &yv) in x.iter().zip(fp[j * dim..(j + 1) * dim].iter()) {
        let diff = xv - yv;
        acc += diff * diff;
    }
    acc
}

/// [`exact_row_distance`] of eight (sample row, centroid row) pairs at
/// once, each summed in that function's order, so every distance has its
/// bits. The squared differences of a run of `k` are computed row by row
/// (contiguous, so they vectorise) into a `k`-major scratch, where each
/// `k`'s eight terms sit side by side and the eight running sums take them
/// as one vector add.
#[inline]
fn exact_distances8<T: Scalar>(x: [&[T]; 8], c: [&[T]; 8]) -> [T; 8] {
    const RUN: usize = 16;
    let n = x[0].len();
    let mut acc = [T::ZERO; 8];
    let mut sq = [[T::ZERO; 8]; RUN];
    for k0 in (0..n).step_by(RUN) {
        let run = RUN.min(n - k0);
        for l in 0..8 {
            let (xr, cr) = (&x[l][k0..k0 + run], &c[l][k0..k0 + run]);
            for (terms, (&xv, &cv)) in sq.iter_mut().zip(xr.iter().zip(cr)) {
                let diff = xv - cv;
                terms[l] = diff * diff;
            }
        }
        for terms in &sq[..run] {
            for (a, &t) in acc.iter_mut().zip(terms) {
                *a += t;
            }
        }
    }
    acc
}

/// Eight-accumulator dot product for the quantized scan. Re-associating the
/// sum breaks the serial FP-add dependency chain (and lets the compiler
/// vectorize), which is safe *here* because scan distances only drive the
/// argmin candidate and the margin decision: the accumulation-error term in
/// [`abft::QuantMargin`]'s slack (`4·(dim+16)·ε·‖·‖`) bounds any summation
/// order of `dim` terms, and an accepted winner's distance is re-derived
/// with [`exact_row_distance`]. A near-tie whose ordering could differ
/// under re-association is by construction inside the slack → fallback.
#[inline]
fn dot_wide<T: Scalar>(x: &[T], y: &[T]) -> T {
    let mut acc = [T::ZERO; 8];
    let xc = x.chunks_exact(8);
    let yc = y.chunks_exact(8);
    let (xr, yr) = (xc.remainder(), yc.remainder());
    for (xs, ys) in xc.zip(yc) {
        for l in 0..8 {
            acc[l] += xs[l] * ys[l];
        }
    }
    let mut tail = T::ZERO;
    for (&xv, &yv) in xr.iter().zip(yr.iter()) {
        tail += xv * yv;
    }
    (((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))) + tail
}

/// The inputs of one fused predict launch: the caller's `m × dim` query
/// rows, the resident fp centroid table the fallback rows read, and the
/// shapes tying them together.
pub struct QueryView<'a, T: Scalar> {
    /// Query samples, row-major `m × dim`, read in place by the launch.
    pub samples: &'a [T],
    /// Resident exact centroid table, row-major `k × dim`.
    pub centroids: &'a GlobalBuffer<T>,
    /// Number of query rows.
    pub m: usize,
    /// Number of centroids.
    pub k: usize,
    /// Feature dimension.
    pub dim: usize,
}

/// Run the fused quantized predict kernel over the query view's samples.
///
/// `table` is the quantized resident state (verified by the caller before
/// launch). Each block reads its rows of `samples` in place and is charged
/// their bytes as one bulk load; a `samples` that is not `m · dim` long is
/// a [`SimError::ShapeMismatch`].
pub fn predict_fused_assign<T: Scalar>(
    device: &DeviceProfile,
    query: QueryView<'_, T>,
    table: &QuantizedCentroids<T>,
    counters: &Counters,
) -> Result<AssignmentResult<T>, SimError> {
    let QueryView {
        samples,
        centroids,
        m,
        k,
        dim,
    } = query;
    assert_eq!(table.k, k, "quantized table k mismatch");
    assert_eq!(table.dim, dim, "quantized table dim mismatch");
    if m.checked_mul(dim) != Some(samples.len()) {
        return Err(SimError::ShapeMismatch(format!(
            "{} query elements for {m} rows of {dim}",
            samples.len()
        )));
    }
    let labels = GlobalBuffer::<u32>::zeros(m);
    labels.set_sanitizer_label("predict.labels");
    let dists = GlobalBuffer::<T>::filled(m, T::INFINITY);
    dists.set_sanitizer_label("predict.dists");
    let grid = Dim3::x(m.div_ceil(SAMPLES_PER_BLOCK).max(1));
    let cfg = LaunchConfig {
        grid,
        threads_per_block: SAMPLES_PER_BLOCK,
        smem_bytes: table.code_bytes() + (2 * k + k * dim) * std::mem::size_of::<T>(),
    };
    let margin = table.margin;

    launch_grid_labeled(device, cfg, counters, "predict_fused", |ctx| {
        let row0 = ctx.bx * SAMPLES_PER_BLOCK;
        let rows = SAMPLES_PER_BLOCK.min(m.saturating_sub(row0));
        if rows == 0 {
            return;
        }
        // Stage the whole dequantized table once per block: 1- or 2-byte code
        // traffic plus the cached scale/norm vectors, dequantized into
        // block-local scratch. The default serving shape (k=16, d=64)
        // fits the stack arrays exactly.
        let mut cents = ScratchBuf::<T, 1024>::filled(k * dim, T::ZERO);
        let mut qnorms = ScratchBuf::<T, 64>::filled(k, T::ZERO);
        let mut scales = ScratchBuf::<T, 64>::filled(k, T::ZERO);
        table.stage_dequantized(&mut cents, &mut qnorms, &mut scales, ctx.counters);
        // Stage the exact fp table once per block too: winner re-derivation
        // and fallback scans read the staged copy (bit-identical values), so
        // fp centroid traffic is one k×dim read per *block*, not per sample.
        let mut fp = ScratchBuf::<T, 1024>::filled(k * dim, T::ZERO);
        centroids.load_run(0, &mut fp, ctx.counters);
        // The block's query tile, charged as one bulk load.
        let xtile = &samples[row0 * dim..(row0 + rows) * dim];
        ctx.counters
            .add_loaded(std::mem::size_of_val::<[T]>(xtile) as u64);
        // Per-block f64 copies of the quantized norms and their square
        // roots, for the norm-only pruning bounds below.
        let mut qn64 = ScratchBuf::<f64, 64>::filled(k, 0.0);
        let mut sq64 = ScratchBuf::<f64, 64>::filled(k, 0.0);
        for j in 0..k {
            let q = qnorms[j].to_f64();
            qn64[j] = q;
            sq64[j] = q.max(0.0).sqrt();
        }

        let mut out_d = [T::INFINITY; SAMPLES_PER_BLOCK];
        let mut out_j = [u32::MAX; SAMPLES_PER_BLOCK];
        // Rows whose label was accepted, for the winner re-derivation.
        let mut accepted = [0usize; SAMPLES_PER_BLOCK];
        // Per-sample working set: `dlb[j]` holds row j's scan distance once
        // evaluated (`evald[j] == 1`), else a lower bound on it.
        let mut dlb = ScratchBuf::<f64, 64>::filled(k, 0.0);
        let mut evald = ScratchBuf::<u8, 64>::filled(k, 0);
        // Plain slices for the per-sample loops, so they vectorise.
        let (dlb, evald) = (&mut dlb[..], &mut evald[..]);
        let (qn64, sq64) = (&qn64[..], &sq64[..]);
        let rel_slack = margin.rel_slack;
        let mut fallbacks = 0u64;
        let mut accepted_n = 0u64;
        let mut dots_n = 0u64;
        for i in 0..rows {
            let x = &xtile[i * dim..(i + 1) * dim];
            // ‖x‖² folded into a pass over the staged row — no separate
            // norms kernel on this path.
            let xn = dot_wide(x, x);
            let xnf = xn.to_f64();
            let sxn = xnf.max(0.0).sqrt();
            // Norm-only lower bounds: ‖x − ĉ_j‖² ≥ (√‖x‖ − √‖ĉ_j‖)² by the
            // reverse triangle inequality. The `rel_slack·mag` guard covers
            // the T-accumulation wobble of the staged norms (the margin's
            // own slack budgets 4× that), so a bound never lands above the
            // scan distance it stands in for; the clamp keeps a valid (the
            // true value is a squared norm) bound finite-math friendly.
            for ((d, &q), &sq) in dlb.iter_mut().zip(qn64).zip(sq64) {
                let mag = xnf + q;
                let lb = mag - 2.0 * sxn * sq - rel_slack * mag.abs();
                *d = lb.max(0.0);
            }
            evald.fill(0);
            // Evaluate the most promising row, then lazily refine: the
            // margin's runner-up only needs to LOWER-BOUND every other
            // row's scan distance, so unevaluated rows stand in with their
            // norm bound — strictly conservative. Each rejection evaluates
            // the binding row; on well-separated data one dot product
            // usually decides the sample.
            // The first row with the least bound, found as the least bound
            // and then its first position: a scan that carries its best
            // index reloads `dlb[jmin]` on every step and mispredicts its
            // branch, since the winner moves from sample to sample. The
            // bounds are never NaN (`max` drops one), so both agree.
            let lo = dlb
                .iter()
                .fold(f64::INFINITY, |m, &d| if d < m { d } else { m });
            let jmin = dlb.iter().position(|&d| d == lo).unwrap_or(0);
            let row = &cents[jmin * dim..(jmin + 1) * dim];
            let dot = dot_wide(x, row);
            dlb[jmin] = (xn + qnorms[jmin] - (dot + dot)).to_f64();
            evald[jmin] = 1;
            dots_n += 1;
            let mut best_f = dlb[jmin];
            let mut best_idx = jmin as u32;
            let accepted_label = loop {
                let mut second_f = f64::INFINITY;
                let mut j2 = usize::MAX;
                // As selects, for the same reason.
                for (j, &d) in dlb.iter().enumerate() {
                    let runner_up = j as u32 != best_idx && d < second_f;
                    second_f = if runner_up { d } else { second_f };
                    j2 = if runner_up { j } else { j2 };
                }
                if margin.accepts(
                    best_f,
                    second_f,
                    table.err_norms[best_idx as usize],
                    xnf + table.max_norm_sq,
                ) {
                    break true;
                }
                if j2 == usize::MAX || evald[j2] == 1 {
                    // The binding runner-up is already exact — the margin
                    // is genuinely too thin for the quantization error.
                    break false;
                }
                let row = &cents[j2 * dim..(j2 + 1) * dim];
                let dot = dot_wide(x, row);
                let d = (xn + qnorms[j2] - (dot + dot)).to_f64();
                dlb[j2] = d;
                evald[j2] = 1;
                dots_n += 1;
                if d < best_f || (d == best_f && (j2 as u32) < best_idx) {
                    best_f = d;
                    best_idx = j2 as u32;
                }
            };
            if accepted_label {
                // Label is provably the exact argmin; only the winner's
                // distance is re-derived, after the scan.
                accepted[accepted_n as usize] = i;
                accepted_n += 1;
                out_j[i] = best_idx;
            } else {
                // Margin too thin for the quantization error: exact fp row
                // scan, identical to the naive kernel (same tie-break).
                fallbacks += 1;
                let mut fb_best = T::INFINITY;
                let mut fb_idx = u32::MAX;
                for j in 0..k {
                    let acc = exact_row_distance(x, &fp, j, dim);
                    if acc < fb_best || (acc == fb_best && (j as u32) < fb_idx) {
                        fb_best = acc;
                        fb_idx = j as u32;
                    }
                }
                out_j[i] = fb_idx;
                out_d[i] = fb_best;
            }
        }
        // Re-derive the accepted winners' distances with reference
        // arithmetic, eight rows at a time.
        let row = |i: usize| &xtile[i * dim..(i + 1) * dim];
        let cent = |i: usize| &fp[out_j[i] as usize * dim..(out_j[i] as usize + 1) * dim];
        let mut groups = accepted[..accepted_n as usize].chunks_exact(8);
        for g in &mut groups {
            let d = exact_distances8(
                std::array::from_fn(|l| row(g[l])),
                std::array::from_fn(|l| cent(g[l])),
            );
            for (&i, d) in g.iter().zip(d) {
                out_d[i] = d;
            }
        }
        for &i in groups.remainder() {
            out_d[i] = exact_row_distance(row(i), &fp, out_j[i] as usize, dim);
        }
        // FMA accounting hoisted out of the per-sample loop — one aggregate
        // per block: per sample d (norm) + 2k (pruning bounds), plus 2d per
        // evaluated scan dot, 2d per accepted winner re-derivation, and
        // 2dk per fallback scan.
        let per_sample = (dim + 2 * k) as u64;
        ctx.counters.add_fma(
            rows as u64 * per_sample
                + dots_n * (2 * dim) as u64
                + accepted_n * (2 * dim) as u64
                + fallbacks * (2 * dim * k) as u64,
        );
        if fallbacks > 0 {
            ctx.counters.add_quant_fallback(fallbacks);
        }
        labels.write_range(row0, &out_j[..rows]);
        dists.store_run(row0, &out_d[..rows], ctx.counters);
    })?;

    Ok(AssignmentResult {
        labels: labels.to_vec(),
        distances: dists.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device_data::DeviceData;
    use crate::quant::QuantKind;
    use crate::variants::naive::naive_assign;
    use gpu_sim::mma::NoFault;
    use gpu_sim::Matrix;

    fn fixture() -> (Matrix<f32>, Matrix<f32>) {
        let samples = Matrix::<f32>::from_fn(193, 17, |r, c| ((r * 31 + c * 7) % 13) as f32 - 6.0);
        let cents = Matrix::<f32>::from_fn(7, 17, |r, c| ((r * 17 + c * 3) % 11) as f32 - 5.0);
        (samples, cents)
    }

    fn view<'a, T: Scalar>(samples: &'a Matrix<T>, data: &'a DeviceData<T>) -> QueryView<'a, T> {
        QueryView {
            samples: samples.as_slice(),
            centroids: &data.centroids,
            m: data.m,
            k: data.k,
            dim: data.dim,
        }
    }

    #[test]
    fn labels_and_distances_match_naive_bit_for_bit() {
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let (samples, cents) = fixture();
        let data = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
        let want = naive_assign(&dev, &data, &NoFault, &c).unwrap();
        for kind in [QuantKind::Fp16, QuantKind::Int8] {
            let table = QuantizedCentroids::build(&data.centroids, data.k, data.dim, kind);
            let got = predict_fused_assign(&dev, view(&samples, &data), &table, &c).unwrap();
            assert_eq!(got.labels, want.labels, "{kind:?} labels");
            for (a, b) in got.distances.iter().zip(want.distances.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{kind:?} distances");
            }
        }
    }

    #[test]
    fn eight_chain_distances_match_the_single_chain_bitwise() {
        let x = Matrix::<f32>::from_fn(8, 37, |r, c| ((r * 31 + c * 7) % 13) as f32 * 0.37 - 2.0);
        let fp = Matrix::<f32>::from_fn(5, 37, |r, c| ((r * 17 + c * 3) % 11) as f32 * 0.61 - 3.0);
        let pick = |l: usize| (l * 3) % 5;
        let d = exact_distances8(
            std::array::from_fn(|l| x.row(l)),
            std::array::from_fn(|l| fp.row(pick(l))),
        );
        for (l, d) in d.into_iter().enumerate() {
            let want = exact_row_distance(x.row(l), fp.as_slice(), pick(l), 37);
            assert_eq!(d.to_bits(), want.to_bits(), "row {l}");
        }
    }

    #[test]
    fn well_separated_data_mostly_accepts() {
        // Two far-apart blobs: the argmin margin dwarfs the quantization
        // error, so nearly every sample should take the fast path.
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let samples = Matrix::<f32>::from_fn(512, 8, |r, ccol| {
            (r % 2) as f32 * 100.0 + (ccol as f32) * 0.25 + ((r / 2) % 5) as f32 * 0.01
        });
        let cents = Matrix::<f32>::from_fn(2, 8, |r, ccol| r as f32 * 100.0 + (ccol as f32) * 0.25);
        let data = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
        let table = QuantizedCentroids::build(&data.centroids, data.k, data.dim, QuantKind::Int8);
        let before = c.snapshot();
        let got = predict_fused_assign(&dev, view(&samples, &data), &table, &c).unwrap();
        let fallbacks = c.snapshot().since(&before).quant_fallbacks;
        assert_eq!(fallbacks, 0, "wide margins never fall back");
        let want = naive_assign(&dev, &data, &NoFault, &c).unwrap();
        assert_eq!(got.labels, want.labels);
    }

    #[test]
    fn k_of_one_rejects_to_exact_scan() {
        // The +∞ runner-up sentinel must reject, not accept on garbage.
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let samples = Matrix::<f64>::from_fn(9, 3, |r, ccol| (r + ccol) as f64);
        let cents = Matrix::<f64>::from_fn(1, 3, |_, ccol| ccol as f64 * 2.0);
        let data = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
        let table = QuantizedCentroids::build(&data.centroids, 1, 3, QuantKind::Fp16);
        let before = c.snapshot();
        let got = predict_fused_assign(&dev, view(&samples, &data), &table, &c).unwrap();
        assert_eq!(c.snapshot().since(&before).quant_fallbacks, 9);
        let want = naive_assign(&dev, &data, &NoFault, &c).unwrap();
        assert_eq!(got.labels, want.labels);
        assert_eq!(got.distances, want.distances);
    }

    #[test]
    fn short_query_slice_is_a_shape_mismatch() {
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let (samples, cents) = fixture();
        let data = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
        let table = QuantizedCentroids::build(&data.centroids, data.k, data.dim, QuantKind::Int8);
        let mut query = view(&samples, &data);
        query.samples = &query.samples[1..];
        let before = c.snapshot();
        let got = predict_fused_assign(&dev, query, &table, &c);
        assert!(matches!(got, Err(SimError::ShapeMismatch(_))), "{got:?}");
        assert_eq!(c.snapshot().since(&before).kernel_launches, 0);
    }

    #[test]
    fn centroid_traffic_does_not_scale_with_m_on_the_fast_path() {
        // Both tables (quantized codes and the exact fp copy) are staged
        // once per block, and the query tile is charged as one bulk load —
        // per-sample centroid traffic is zero, unlike naive's full k-row
        // re-read per sample.
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let samples = Matrix::<f32>::from_fn(256, 4, |r, _| (r % 2) as f32 * 50.0);
        let cents = Matrix::<f32>::from_fn(2, 4, |r, _| r as f32 * 50.0);
        let data = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
        let table = QuantizedCentroids::build(&data.centroids, 2, 4, QuantKind::Int8);
        let before = c.snapshot();
        predict_fused_assign(&dev, view(&samples, &data), &table, &c).unwrap();
        let delta = c.snapshot().since(&before);
        assert_eq!(delta.quant_fallbacks, 0);
        // one block: staged codes 8 B + scales/norms 16 B + staged fp table
        // 2×4×4 = 32 B + query tile 256×4×4 = 4096 B. Centroid traffic is
        // per *block*, so it does not grow with m.
        assert_eq!(delta.bytes_loaded, 8 + 16 + 32 + 4096);
        // naive on the same shape re-reads all k rows per sample:
        // 256 × (4 + 2×4) × 4 = 12288 loaded bytes — already ~3x at k=2,
        // and the gap widens linearly in k (fused stays per-block).
        let nb = c.snapshot();
        naive_assign(&dev, &data, &NoFault, &c).unwrap();
        let naive_bytes = c.snapshot().since(&nb).bytes_loaded;
        assert_eq!(naive_bytes, 256 * (4 + 8) * 4);
        assert!(naive_bytes > 2 * delta.bytes_loaded);
    }
}
