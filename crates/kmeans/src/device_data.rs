//! Device-resident problem state shared by all kernel variants.

use crate::norms::{ingest, Ingested};
use crate::quant::QuantCache;
use gpu_sim::{Counters, DeviceProfile, GlobalBuffer, Matrix, Scalar, SimError};
use std::sync::Arc;

/// Device-resident Hamerly bound state: the per-sample triangle-inequality
/// bounds plus the per-centroid geometry they are maintained against. Only
/// [`crate::config::Variant::Hamerly`] allocates this (via
/// [`DeviceData::ensure_bounds`]); every other variant leaves it `None`.
pub struct BoundState<T: Scalar> {
    /// Per-sample upper bound on the distance to the assigned centroid
    /// (Euclidean, not squared). Initialized to `+∞` so the first
    /// assignment pass is a full scan.
    pub upper: GlobalBuffer<T>,
    /// Per-sample lower bound on the distance to the second-closest
    /// centroid. Initialized to zero (vacuously sound).
    pub lower: GlobalBuffer<T>,
    /// Per-sample assigned centroid — the device-resident copy the pruned
    /// kernel reads back each iteration.
    pub labels: GlobalBuffer<u32>,
    /// Per-centroid drift `‖c_old − c_new‖` of the most recent update.
    pub drift: GlobalBuffer<T>,
    /// Per-centroid half-distance to its nearest other centroid, deflated
    /// by the bound policy's slack.
    pub s_half: GlobalBuffer<T>,
}

impl<T: Scalar> BoundState<T> {
    fn new(m: usize, k: usize) -> Self {
        let state = BoundState {
            upper: GlobalBuffer::filled(m, T::INFINITY),
            lower: GlobalBuffer::zeros(m),
            labels: GlobalBuffer::<u32>::zeros(m),
            drift: GlobalBuffer::zeros(k),
            s_half: GlobalBuffer::zeros(k),
        };
        state.label_for_sanitizer();
        state
    }

    /// Name the bound buffers in sanitizer reports (no-op unless they were
    /// allocated under a `gpu_sim::sanitizer` checker).
    pub fn label_for_sanitizer(&self) {
        self.upper.set_sanitizer_label("bounds.upper");
        self.lower.set_sanitizer_label("bounds.lower");
        self.labels.set_sanitizer_label("bounds.labels");
        self.drift.set_sanitizer_label("bounds.drift");
        self.s_half.set_sanitizer_label("bounds.s_half");
    }
}

/// Samples, centroids and their squared norms, uploaded to simulated global
/// memory (Fig. 2 step 1: the `Samples²` / `Centroids²` terms are computed
/// by the launch that uploads each matrix, [`crate::norms::ingest`]).
pub struct DeviceData<T: Scalar> {
    /// Samples, row-major `m x dim`.
    pub samples: GlobalBuffer<T>,
    /// Centroids, row-major `k x dim`.
    pub centroids: GlobalBuffer<T>,
    /// `‖x_i‖²` per sample.
    pub sample_norms: GlobalBuffer<T>,
    /// `‖y_j‖²` per centroid.
    pub centroid_norms: GlobalBuffer<T>,
    /// Number of samples (GEMM M).
    pub m: usize,
    /// Number of centroids (GEMM N).
    pub k: usize,
    /// Feature dimension (GEMM K).
    pub dim: usize,
    /// Hamerly bound state; `None` until [`DeviceData::ensure_bounds`].
    pub bounds: Option<BoundState<T>>,
    /// Lazily-built quantized centroid tables for the serving path. Shared
    /// (same `Arc`) by every device-pointer view of these centroids, so a
    /// table built once stays resident across predict calls; invalidated
    /// when the centroids are replaced.
    pub quant: Arc<QuantCache<T>>,
}

impl<T: Scalar> DeviceData<T> {
    /// Upload samples and centroids, one ingest launch each, which also
    /// computes their squared norms.
    ///
    /// The ingest's finite/overflow verdict on the samples is not checked
    /// here: fits ingest the samples themselves, reject a bad row before
    /// they initialise centroids, and then ingest the centroids next to
    /// them.
    pub fn upload(
        device: &DeviceProfile,
        samples: &Matrix<T>,
        centroids: &Matrix<T>,
        counters: &Counters,
    ) -> Result<Self, SimError> {
        if samples.cols() != centroids.cols() {
            return Err(SimError::ShapeMismatch(format!(
                "samples dim {} != centroids dim {}",
                samples.cols(),
                centroids.cols()
            )));
        }
        let samples = ingest(device, samples, counters)?;
        Self::with_samples(device, samples, centroids, counters)
    }

    /// Finish an upload whose samples are already ingested: ingest the
    /// centroids next to them.
    pub(crate) fn with_samples(
        device: &DeviceProfile,
        samples: Ingested<T>,
        centroids: &Matrix<T>,
        counters: &Counters,
    ) -> Result<Self, SimError> {
        if samples.cols != centroids.cols() {
            return Err(SimError::ShapeMismatch(format!(
                "samples dim {} != centroids dim {}",
                samples.cols,
                centroids.cols()
            )));
        }
        let c = ingest(device, centroids, counters)?;
        let data = DeviceData {
            samples: samples.cells,
            centroids: c.cells,
            sample_norms: samples.norms,
            centroid_norms: c.norms,
            m: samples.rows,
            k: c.rows,
            dim: samples.cols,
            bounds: None,
            quant: Arc::new(QuantCache::default()),
        };
        data.label_for_sanitizer();
        Ok(data)
    }

    /// Name every resident buffer in sanitizer reports, so
    /// `gpu_sim::sanitizer` findings read `samples` / `centroids` /
    /// `bounds.upper` instead of allocation ordinals. No-op (one branch per
    /// buffer) unless the buffers were allocated under a checker.
    pub fn label_for_sanitizer(&self) {
        self.samples.set_sanitizer_label("samples");
        self.centroids.set_sanitizer_label("centroids");
        self.sample_norms.set_sanitizer_label("sample_norms");
        self.centroid_norms.set_sanitizer_label("centroid_norms");
        if let Some(b) = &self.bounds {
            b.label_for_sanitizer();
        }
    }

    /// Allocate the Hamerly bound buffers if not yet present. Fresh bounds
    /// are vacuous (`upper = +∞`, `lower = 0`), so the next pruned
    /// assignment degenerates to a full scan and rebuilds them exactly.
    pub fn ensure_bounds(&mut self) -> &BoundState<T> {
        if self.bounds.is_none() {
            self.bounds = Some(BoundState::new(self.m, self.k));
        }
        self.bounds.as_ref().expect("just ensured")
    }

    /// Upload new samples against this data's already-resident centroids:
    /// the centroid and centroid-norm buffers are *shared* (a
    /// device-pointer copy — no re-upload, no norm kernel re-run); only the
    /// query samples and their norms are new. This is the predict/score
    /// path of a fitted model.
    pub fn upload_samples_sharing_centroids(
        &self,
        device: &DeviceProfile,
        samples: &Matrix<T>,
        counters: &Counters,
    ) -> Result<Self, SimError> {
        if samples.cols() != self.dim {
            return Err(SimError::ShapeMismatch(format!(
                "samples dim {} != resident centroids dim {}",
                samples.cols(),
                self.dim
            )));
        }
        let s = ingest(device, samples, counters)?;
        s.cells.set_sanitizer_label("query.samples");
        s.norms.set_sanitizer_label("query.sample_norms");
        Ok(DeviceData {
            samples: s.cells,
            centroids: self.centroids.clone(),
            sample_norms: s.norms,
            centroid_norms: self.centroid_norms.clone(),
            m: samples.rows(),
            k: self.k,
            dim: self.dim,
            bounds: None,
            quant: Arc::clone(&self.quant),
        })
    }

    /// A zero-sample view sharing only this data's centroid and
    /// centroid-norm buffers (device-pointer copies). This is what a
    /// fitted model keeps resident: the training samples are never read
    /// again after a fit, so retaining them would pin `O(m x dim)` device
    /// memory per model for nothing.
    pub fn centroids_only(&self) -> Self {
        DeviceData {
            samples: GlobalBuffer::zeros(0),
            sample_norms: GlobalBuffer::zeros(0),
            centroids: self.centroids.clone(),
            centroid_norms: self.centroid_norms.clone(),
            m: 0,
            k: self.k,
            dim: self.dim,
            bounds: None,
            quant: Arc::clone(&self.quant),
        }
    }

    /// Replace the centroids (between Lloyd iterations) and refresh their
    /// norms.
    pub fn refresh_centroids(
        &mut self,
        device: &DeviceProfile,
        centroids: &Matrix<T>,
        counters: &Counters,
    ) -> Result<(), SimError> {
        if centroids.cols() != self.dim || centroids.rows() != self.k {
            return Err(SimError::ShapeMismatch(format!(
                "expected {}x{} centroids, got {}x{}",
                self.k,
                self.dim,
                centroids.rows(),
                centroids.cols()
            )));
        }
        let c = ingest(device, centroids, counters)?;
        c.cells.set_sanitizer_label("centroids");
        c.norms.set_sanitizer_label("centroid_norms");
        self.centroids = c.cells;
        self.centroid_norms = c.norms;
        // cached quantized tables encode the old centroids — drop them so
        // the next quantized predict re-quantizes the fresh table
        self.quant.invalidate();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upload_computes_norms() {
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let samples = Matrix::from_vec(2, 2, vec![3.0f32, 4.0, 1.0, 0.0]).unwrap();
        let cents = Matrix::from_vec(1, 2, vec![0.0f32, 2.0]).unwrap();
        let d = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
        assert_eq!(d.sample_norms.to_vec(), vec![25.0, 1.0]);
        assert_eq!(d.centroid_norms.to_vec(), vec![4.0]);
        assert_eq!((d.m, d.k, d.dim), (2, 1, 2));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let samples = Matrix::<f64>::zeros(4, 3);
        let cents = Matrix::<f64>::zeros(2, 5);
        assert!(DeviceData::upload(&dev, &samples, &cents, &c).is_err());
    }

    #[test]
    fn sharing_upload_reuses_centroid_buffers() {
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let samples = Matrix::from_vec(2, 2, vec![3.0f64, 4.0, 1.0, 0.0]).unwrap();
        let cents = Matrix::from_vec(2, 2, vec![0.0f64, 2.0, 1.0, 1.0]).unwrap();
        let d = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();

        let queries = Matrix::from_vec(3, 2, vec![0.0f64, 0.0, 5.0, 5.0, 1.0, 1.0]).unwrap();
        let before = c.snapshot();
        let p = d
            .upload_samples_sharing_centroids(&dev, &queries, &c)
            .unwrap();
        assert_eq!(p.sample_norms.to_vec(), vec![0.0, 50.0, 2.0]);
        assert_eq!((p.m, p.k, p.dim), (3, 2, 2));
        // the centroid buffers are the same device memory, not copies:
        // a write through the original is visible through the share
        d.centroids.store(0, 7.0);
        assert_eq!(p.centroids.load(0), 7.0);
        // only the query ingest launched (no centroid norm re-run)
        assert_eq!(c.snapshot().since(&before).kernel_launches, 1);
        // dimension mismatch rejected
        let bad = Matrix::<f64>::zeros(2, 5);
        assert!(d.upload_samples_sharing_centroids(&dev, &bad, &c).is_err());
    }

    #[test]
    fn refresh_centroids_updates_norms() {
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let samples = Matrix::<f64>::zeros(3, 2);
        let cents = Matrix::from_vec(2, 2, vec![1.0f64, 0.0, 0.0, 1.0]).unwrap();
        let mut d = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
        let new_c = Matrix::from_vec(2, 2, vec![2.0f64, 0.0, 0.0, 3.0]).unwrap();
        d.refresh_centroids(&dev, &new_c, &c).unwrap();
        assert_eq!(d.centroid_norms.to_vec(), vec![4.0, 9.0]);
        // wrong shape rejected
        let bad = Matrix::<f64>::zeros(3, 2);
        assert!(d.refresh_centroids(&dev, &bad, &c).is_err());
    }
}
