//! The ingest launch (Fig. 2 step 1 plus the upload) and the on-device
//! inertia.
//!
//! "The first two parts of this formula can be computed by squaring
//! elements and summing them up in each row. This can be finished by
//! launching two simple kernels." Here the squaring pass and the
//! host→device copy are one launch per uploaded matrix ([`ingest`]): each
//! 256-row block writes its rows into device cells and sums their squares
//! in the same pass, so X is read once and the pages of the fresh (zeroed)
//! buffer are faulted in by the pool workers that fill them. The same pass
//! finds the first row whose squared norm the distance identity cannot
//! take (the rule of [`crate::error`]), so a fit needs no separate scan.
//!
//! [`inertia_kernel`] is a fit's final objective: per-block f64 partials
//! over the resident samples, added on the host in block order, so the
//! pool and the serial executor agree bit for bit.

use crate::device_data::DeviceData;
use crate::error::{admissible, rejected_row, KMeansError};
use gpu_sim::{
    launch_grid_labeled, Counters, DeviceProfile, Dim3, GlobalBuffer, LaunchConfig, Matrix, Scalar,
    ScratchBuf, SimError,
};

/// Rows handled per threadblock.
const ROWS_PER_BLOCK: usize = 256;

fn row_blocks(rows: usize) -> LaunchConfig {
    LaunchConfig {
        grid: Dim3::x(rows.div_ceil(ROWS_PER_BLOCK).max(1)),
        threads_per_block: ROWS_PER_BLOCK,
        smem_bytes: 0,
    }
}

/// A host matrix resident in device memory, with its row squared norms.
pub struct Ingested<T: Scalar> {
    /// The rows, row-major `rows x cols`.
    pub cells: GlobalBuffer<T>,
    /// `‖row_i‖²` per row.
    pub norms: GlobalBuffer<T>,
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// The first row whose squared norm is not admissible (a NaN or an
    /// infinity in it, or a finite overflow), if any.
    pub first_rejected: Option<usize>,
}

/// Upload `host` and compute `‖row_i‖²` for every row in one launch.
///
/// Each block copies its rows into the cells uncounted, as every upload
/// is, and charges what the norms pass reads and writes: `rows·cols` loads
/// and FMAs and `rows` stores. Each norm is the sequential `acc += v·v` of
/// its row. A block records its first rejected row, and the host takes the
/// first block that has one, so the verdict does not depend on the
/// schedule.
pub fn ingest<T: Scalar>(
    device: &DeviceProfile,
    host: &Matrix<T>,
    counters: &Counters,
) -> Result<Ingested<T>, SimError> {
    let (rows, cols) = (host.rows(), host.cols());
    let src = host.as_slice();
    let cells = GlobalBuffer::<T>::zeros(rows * cols);
    let norms = GlobalBuffer::<T>::zeros(rows);
    let cfg = row_blocks(rows);
    // Per block, the block-local index of its first rejected row.
    let rejected = GlobalBuffer::<u16>::filled(cfg.grid.volume(), u16::MAX);
    launch_grid_labeled(device, cfg, counters, "ingest", |ctx| {
        let row0 = ctx.bx * ROWS_PER_BLOCK;
        let nrows = ROWS_PER_BLOCK.min(rows.saturating_sub(row0));
        if nrows == 0 {
            return;
        }
        let block = &src[row0 * cols..(row0 + nrows) * cols];
        cells.write_range(row0 * cols, block);
        ctx.counters
            .add_loaded(std::mem::size_of_val::<[T]>(block) as u64);
        ctx.counters.add_fma(block.len() as u64);
        let mut sq = [T::ZERO; ROWS_PER_BLOCK];
        let mut first = None;
        for (i, (slot, x)) in sq
            .iter_mut()
            .zip(block.chunks_exact(cols.max(1)))
            .enumerate()
        {
            let mut acc = T::ZERO;
            for &v in x {
                acc += v * v;
            }
            *slot = acc;
            if first.is_none() && !admissible(acc) {
                first = Some(i as u16);
            }
        }
        norms.store_run(row0, &sq[..nrows], ctx.counters);
        if let Some(i) = first {
            rejected.store(ctx.bx, i);
        }
    })?;
    let first_rejected = rejected
        .to_vec()
        .into_iter()
        .enumerate()
        .find(|&(_, i)| i != u16::MAX)
        .map(|(b, i)| b * ROWS_PER_BLOCK + i as usize);
    Ok(Ingested {
        cells,
        norms,
        rows,
        cols,
        first_rejected,
    })
}

/// [`ingest`] the samples of a fit or `partial_fit` batch, rejecting them
/// with the typed error of their first rejected row
/// ([`crate::error::rejected_row`]).
pub(crate) fn ingest_samples<T: Scalar>(
    device: &DeviceProfile,
    samples: &Matrix<T>,
    counters: &Counters,
) -> Result<Ingested<T>, KMeansError> {
    let ingested = ingest(device, samples, counters)?;
    match ingested.first_rejected {
        Some(row) => Err(rejected_row(samples, row)),
        None => Ok(ingested),
    }
}

/// The K-means objective `Σ_i ‖x_i − c_{labels[i]}‖²` of `data`'s resident
/// samples against its resident centroids, in f64.
///
/// Each block stages the centroid table, then loads its rows one at a
/// time, sums each as [`crate::metrics::inertia`] does and adds them in
/// ascending order into its partial. The host adds the partials in block order, so the
/// result is schedule-independent and within rounding of the host
/// reference.
pub fn inertia_kernel<T: Scalar>(
    device: &DeviceProfile,
    data: &DeviceData<T>,
    labels: &[u32],
    counters: &Counters,
) -> Result<f64, SimError> {
    let (m, k, dim) = (data.m, data.k, data.dim);
    if labels.len() != m {
        return Err(SimError::ShapeMismatch(format!(
            "{} labels for {m} samples",
            labels.len()
        )));
    }
    let cfg = row_blocks(m);
    let partials = GlobalBuffer::<f64>::zeros(cfg.grid.volume());
    partials.set_sanitizer_label("inertia.partials");
    launch_grid_labeled(device, cfg, counters, "inertia", |ctx| {
        let row0 = ctx.bx * ROWS_PER_BLOCK;
        let nrows = ROWS_PER_BLOCK.min(m.saturating_sub(row0));
        if nrows == 0 {
            return;
        }
        let mut table = vec![T::ZERO; k * dim];
        data.centroids.load_run(0, &mut table, ctx.counters);
        let mut x = ScratchBuf::<T, 256>::filled(dim, T::ZERO);
        let mut partial = 0.0;
        for (i, &label) in labels[row0..row0 + nrows].iter().enumerate() {
            data.samples
                .load_run((row0 + i) * dim, &mut x, ctx.counters);
            let c = &table[label as usize * dim..][..dim];
            partial += x
                .iter()
                .zip(c)
                .map(|(&a, &b)| {
                    let d = a.to_f64() - b.to_f64();
                    d * d
                })
                .sum::<f64>();
        }
        partials.store_counted(ctx.bx, partial, ctx.counters);
    })?;
    Ok(partials.to_vec().into_iter().fold(0.0, |acc, p| acc + p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::exec::{with_executor, Executor};

    fn rows<T: Scalar>(m: usize, dim: usize) -> Matrix<T> {
        Matrix::from_fn(m, dim, |r, c| {
            T::from_f64(((r * 7 + c * 13) % 29) as f64 * 0.37 - 5.0 + r as f64 * 1e-3)
        })
    }

    fn norm_bits_match_the_sequential_row_sum<T: Scalar>() {
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let m = rows::<T>(600, 11);
        let got = ingest(&dev, &m, &c).unwrap();
        assert_eq!(got.cells.to_vec(), m.as_slice());
        assert_eq!(got.first_rejected, None);
        for (r, n) in got.norms.to_vec().into_iter().enumerate() {
            let mut acc = T::ZERO;
            for &v in m.row(r) {
                acc += v * v;
            }
            assert_eq!(n.to_bits(), acc.to_bits(), "row {r}");
        }
    }

    #[test]
    fn matches_host_computation() {
        norm_bits_match_the_sequential_row_sum::<f32>();
        norm_bits_match_the_sequential_row_sum::<f64>();
    }

    #[test]
    fn charges_memory_traffic() {
        // The norms pass: every element loaded and squared once, one norm
        // stored per row, one launch. The copy itself is the uncounted
        // upload.
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let m = Matrix::<f32>::from_fn(10, 4, |_, _| 2.0);
        let _ = ingest(&dev, &m, &c).unwrap();
        let s = c.snapshot();
        assert_eq!(s.bytes_loaded, 40 * 4);
        assert_eq!(s.bytes_stored, 10 * 4);
        assert_eq!(s.fma_ops, 40);
        assert_eq!(s.kernel_launches, 1);
    }

    #[test]
    fn empty_rows_ok() {
        let dev = DeviceProfile::t4();
        let c = Counters::new();
        let out = ingest(&dev, &Matrix::<f64>::zeros(0, 4), &c).unwrap();
        assert_eq!((out.norms.len(), out.first_rejected), (0, None));
    }

    #[test]
    fn first_rejected_row_is_schedule_independent() {
        let dev = DeviceProfile::a100();
        // A NaN in block 3 and an overflowing row in block 1: block 1's
        // row is the first. Two rejected rows in one block: the lower.
        let mut late = rows::<f32>(1100, 5);
        late.set(3 * ROWS_PER_BLOCK + 9, 2, f32::NAN);
        for col in 0..5 {
            late.set(ROWS_PER_BLOCK + 40, col, 1e20);
        }
        let mut same = rows::<f32>(1100, 5);
        same.set(2 * ROWS_PER_BLOCK + 200, 0, f32::INFINITY);
        same.set(2 * ROWS_PER_BLOCK + 17, 4, f32::NAN);
        for exec in [Executor::serial(), Executor::with_workers(4)] {
            with_executor(&exec, || {
                let c = Counters::new();
                let got = ingest(&dev, &late, &c).unwrap().first_rejected;
                assert_eq!(got, Some(ROWS_PER_BLOCK + 40));
                let got = ingest(&dev, &same, &c).unwrap().first_rejected;
                assert_eq!(got, Some(2 * ROWS_PER_BLOCK + 17));
            });
        }
    }

    fn inertia_matches_the_host_reference<T: Scalar>() {
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        // 700 rows: two full blocks and a partial one.
        let samples = rows::<T>(700, 9);
        let cents = rows::<T>(5, 9);
        let labels: Vec<u32> = (0..700).map(|i| (i * 3 % 5) as u32).collect();
        let data = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
        let want = crate::metrics::inertia(&samples, &cents, &labels);
        let serial = with_executor(&Executor::serial(), || {
            inertia_kernel(&dev, &data, &labels, &c).unwrap()
        });
        let pool = with_executor(&Executor::with_workers(4), || {
            inertia_kernel(&dev, &data, &labels, &c).unwrap()
        });
        assert_eq!(serial.to_bits(), pool.to_bits());
        assert!(
            (serial - want).abs() <= 1e-12 * want.abs(),
            "{serial} vs {want}"
        );
        assert!(inertia_kernel(&dev, &data, &labels[1..], &c).is_err());
    }

    #[test]
    fn inertia_launch_matches_the_host_reference() {
        inertia_matches_the_host_reference::<f32>();
        inertia_matches_the_host_reference::<f64>();
    }
}
