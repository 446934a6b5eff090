//! The estimator lifecycle root: a device profile, an optional executor
//! handle, and a lazily-built, cached kernel selector.
//!
//! A one-shot fit API would re-derive everything per call:
//! each fit re-validated the config, each process re-tuned the kernel
//! selector from scratch, and nothing owned the device-resident state
//! between calls. A [`Session`] amortizes all of that: build it once,
//! derive estimators from it ([`Session::kmeans`]), and every fit,
//! [`crate::KMeans::partial_fit`] batch and [`crate::FittedModel::predict`]
//! call shares the session's selector cache and executor scope.
//!
//! Selector persistence (the ROADMAP item) hangs off the session: point it
//! at a cache directory with [`Session::with_selector_cache`] or the
//! `FTK_SELECTOR_CACHE` environment variable and tuned selection tables
//! are written after the first build and reloaded by later sessions; a
//! corrupt or stale cache file falls back to re-tuning.

use crate::config::{KMeansConfig, Variant};
use crate::driver::KMeans;
use codegen::feasibility::stages_for;
use codegen::{plan_variant, KernelSelector, VariantChoice};
use gpu_sim::exec::{self, Executor};
use gpu_sim::timing::TileConfig;
use gpu_sim::{DeviceProfile, Precision};
use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Environment variable naming the selector cache directory used by
/// [`Session::new`] when no explicit [`Session::with_selector_cache`] is
/// given.
pub const SELECTOR_CACHE_ENV: &str = "FTK_SELECTOR_CACHE";

/// A long-lived estimator context: device profile + executor handle +
/// lazily-built, cached [`KernelSelector`].
///
/// Sessions are cheap to clone (clones share the selector cache) and are
/// the intended way to run many fits against one device:
///
/// ```
/// use gpu_sim::{DeviceProfile, Matrix};
/// use kmeans::{KMeansConfig, Session};
///
/// let session = Session::new(DeviceProfile::a100());
/// let km = session.kmeans(KMeansConfig::new(2).with_seed(1));
/// let data = Matrix::<f64>::from_fn(32, 2, |r, c| {
///     (r % 2) as f64 * 8.0 + r as f64 * 0.01 + c as f64 * 0.1
/// });
/// let model = km.fit_model(&data).unwrap();
/// assert_eq!(model.labels.len(), 32);
/// // the fitted model owns the uploaded centroids: prediction reuses them
/// let labels = model.predict(&data).unwrap();
/// assert_eq!(labels, model.labels);
/// ```
#[derive(Clone)]
pub struct Session {
    device: DeviceProfile,
    exec: Option<Arc<Executor>>,
    trace: Option<Arc<dyn trace::TraceSink>>,
    cache_dir: Option<PathBuf>,
    /// Lazily-built selectors, indexed `[fp32, fp64]`; shared across clones.
    selectors: Arc<Mutex<[Option<Arc<KernelSelector>>; 2]>>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("device", &self.device)
            .field("exec", &self.exec)
            .field("trace", &self.trace.as_ref().map(|_| "TraceSink"))
            .field("cache_dir", &self.cache_dir)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Build a session for a device. The selector cache directory is taken
    /// from the `FTK_SELECTOR_CACHE` environment variable when set (and
    /// non-empty); [`Session::with_selector_cache`] overrides it.
    pub fn new(device: DeviceProfile) -> Self {
        let cache_dir = std::env::var(SELECTOR_CACHE_ENV)
            .ok()
            .filter(|v| !v.trim().is_empty())
            .map(PathBuf::from);
        Session {
            device,
            exec: None,
            trace: None,
            cache_dir,
            selectors: Arc::new(Mutex::new([None, None])),
        }
    }

    /// Convenience: a session on the simulated A100.
    pub fn a100() -> Self {
        Session::new(DeviceProfile::a100())
    }

    /// Use `dir` as the selector cache directory: tuned selection tables
    /// are written there (one text file per device/precision, via
    /// [`KernelSelector::to_text`]) and reloaded by later sessions instead
    /// of re-tuning. Corrupt or stale files (wrong device, wrong precision,
    /// unparsable) are ignored and overwritten after re-tuning.
    pub fn with_selector_cache(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Pin every fit/predict derived from this session to `exec` instead of
    /// the ambient executor (the global pool, or whatever an enclosing
    /// [`gpu_sim::exec::with_executor`] scope installed). Useful for
    /// deterministic A/B runs: `Session::with_executor(Executor::serial())`
    /// makes block order linear for everything the session runs.
    pub fn with_executor(mut self, exec: Executor) -> Self {
        self.exec = Some(Arc::new(exec));
        self
    }

    /// Attach a trace sink: every fit, `partial_fit` batch and predict
    /// call derived from this session emits its spans (driver phases,
    /// labeled kernel launches, fault events) into `sink` via a
    /// [`trace::with_sink`] scope around the session's work. Without a
    /// sink (and without `FTK_TRACE`), instrumentation costs one flag
    /// check per emission site.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use gpu_sim::{DeviceProfile, Matrix};
    /// use kmeans::{KMeansConfig, Session};
    ///
    /// let sink = Arc::new(trace::RecordingSink::default());
    /// let session = Session::new(DeviceProfile::a100()).with_trace_sink(sink.clone());
    /// let km = session.kmeans(KMeansConfig::new(2).with_seed(7));
    /// let data = Matrix::<f32>::from_fn(64, 4, |r, c| (r % 2) as f32 * 6.0 + c as f32 * 0.1);
    /// km.fit_model(&data).unwrap();
    /// let profile = sink.phase_profile();
    /// assert!(profile.get(trace::phases::ASSIGNMENT).is_some());
    /// ```
    pub fn with_trace_sink(mut self, sink: Arc<dyn trace::TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// The device this session runs on.
    pub fn device(&self) -> &DeviceProfile {
        &self.device
    }

    /// The selector cache directory in effect, if any.
    pub fn selector_cache_dir(&self) -> Option<&Path> {
        self.cache_dir.as_deref()
    }

    /// Run `f` under this session's executor and trace-sink scopes (a
    /// no-op wrapper when neither was attached).
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        let inner = || match &self.exec {
            Some(e) => exec::with_executor(e, f),
            None => f(),
        };
        match &self.trace {
            Some(sink) => trace::with_sink(Arc::clone(sink), inner),
            None => inner(),
        }
    }

    /// Derive an estimator bound to this session.
    pub fn kmeans(&self, config: KMeansConfig) -> KMeans {
        KMeans::with_session(self.clone(), config)
    }

    /// The kernel selector for `precision`, built on first use (tuning over
    /// the paper's 64-shape grid) and cached for the session's lifetime.
    /// With a cache directory configured, a valid cached table short-cuts
    /// the build, and a fresh build is persisted for the next process.
    pub fn selector(&self, precision: Precision) -> Arc<KernelSelector> {
        let idx = match precision {
            Precision::Fp32 => 0,
            Precision::Fp64 => 1,
        };
        let mut slots = self.selectors.lock();
        if let Some(s) = &slots[idx] {
            return Arc::clone(s);
        }
        let sel = match self.load_cached(precision) {
            Some(s) => s,
            None => {
                let s = KernelSelector::build(&self.device, precision);
                self.store_cached(precision, &s);
                s
            }
        };
        let sel = Arc::new(sel);
        slots[idx] = Some(Arc::clone(&sel));
        sel
    }

    /// The tuned tensor tile for a problem shape, from the cached selector.
    pub fn tuned_tile(&self, precision: Precision, clusters: usize, dim: usize) -> TileConfig {
        self.selector(precision)
            .select(clusters, dim)
            .tile_config(stages_for(&self.device))
    }

    /// The tuned assignment variant for a whole *fit*: the per-launch
    /// selector cannot see the iteration count, but the bound-pruned
    /// (Hamerly) kernel amortizes its warmup full scans across Lloyd
    /// iterations, so long fits switch families. Short fits get the tuned
    /// tensor tile for the shape; fits past the modeled crossover get
    /// [`Variant::Hamerly`].
    pub fn tuned_variant(
        &self,
        precision: Precision,
        m: usize,
        clusters: usize,
        dim: usize,
        max_iter: usize,
    ) -> Variant {
        let plan = plan_variant(&self.device, precision, m, clusters, dim, max_iter);
        match plan.choice {
            VariantChoice::BoundPruned => Variant::Hamerly,
            VariantChoice::Baseline => {
                Variant::Tensor(Some(self.tuned_tile(precision, clusters, dim)))
            }
        }
    }

    fn cache_path(&self, precision: Precision) -> Option<PathBuf> {
        let dir = self.cache_dir.as_ref()?;
        let slug: String = self
            .device
            .name
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '-'
                }
            })
            .collect();
        Some(dir.join(format!("ftk-selector-{slug}-{}.txt", precision.name())))
    }

    /// Parse a cached selection table; `None` (fall back to tuning) when the
    /// file is missing, unparsable, or tuned for a different device or
    /// precision.
    fn load_cached(&self, precision: Precision) -> Option<KernelSelector> {
        let path = self.cache_path(precision)?;
        let text = std::fs::read_to_string(path).ok()?;
        let sel = KernelSelector::from_text(&text).ok()?;
        let table = sel.table();
        (table.device == self.device.name && table.precision == precision).then_some(sel)
    }

    /// Best-effort persistence: cache writes never fail a fit.
    fn store_cached(&self, precision: Precision, sel: &KernelSelector) {
        let Some(path) = self.cache_path(precision) else {
            return;
        };
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let _ = std::fs::write(path, sel.to_text());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_cache_dir(tag: &str) -> PathBuf {
        static UNIQ: AtomicU64 = AtomicU64::new(0);
        let n = UNIQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("ftk-session-test-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn selector_is_built_once_and_shared_across_clones() {
        let session = Session::a100();
        let a = session.selector(Precision::Fp32);
        let b = session.clone().selector(Precision::Fp32);
        assert!(Arc::ptr_eq(&a, &b), "clones share the cached selector");
        assert_eq!(a.table().precision, Precision::Fp32);
    }

    #[test]
    fn selector_cache_roundtrips_through_disk() {
        let dir = temp_cache_dir("roundtrip");
        let tuned = Session::a100()
            .with_selector_cache(&dir)
            .selector(Precision::Fp32);
        // a second session (fresh in-memory cache) must load the file
        let session2 = Session::a100().with_selector_cache(&dir);
        let path = session2.cache_path(Precision::Fp32).unwrap();
        assert!(path.exists(), "tuning must persist the table");
        let loaded = session2.selector(Precision::Fp32);
        assert_eq!(loaded.to_text(), tuned.to_text());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_falls_back_to_tuning_and_is_repaired() {
        let dir = temp_cache_dir("corrupt");
        let session = Session::a100().with_selector_cache(&dir);
        let path = session.cache_path(Precision::Fp64).unwrap();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, "not a selector table").unwrap();
        let sel = session.selector(Precision::Fp64);
        assert_eq!(sel.table().precision, Precision::Fp64);
        // the corrupt file was overwritten with the re-tuned table
        let repaired = std::fs::read_to_string(&path).unwrap();
        assert!(repaired.starts_with("ftk-selector v1"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_cache_for_another_device_is_rejected() {
        let dir = temp_cache_dir("stale");
        // tune on the T4 and copy its table over the A100's cache slot
        let t4 = Session::new(DeviceProfile::t4()).with_selector_cache(&dir);
        let t4_sel = t4.selector(Precision::Fp32);
        let a100 = Session::a100().with_selector_cache(&dir);
        let a100_path = a100.cache_path(Precision::Fp32).unwrap();
        std::fs::write(&a100_path, t4_sel.to_text()).unwrap();
        let sel = a100.selector(Precision::Fp32);
        assert_eq!(
            sel.table().device,
            DeviceProfile::a100().name,
            "stale table (device mismatch) must be re-tuned, not adopted"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tuned_tile_is_usable() {
        let tile = Session::a100().tuned_tile(Precision::Fp32, 16, 32);
        assert!(tile.tb_m > 0 && tile.tb_n > 0 && tile.tb_k > 0);
    }

    #[test]
    fn tuned_variant_switches_families_with_iteration_count() {
        let session = Session::a100();
        let short = session.tuned_variant(Precision::Fp32, 131_072, 16, 64, 3);
        assert!(
            matches!(short, Variant::Tensor(Some(_))),
            "short fit keeps the tuned tensor tile, got {short:?}"
        );
        let long = session.tuned_variant(Precision::Fp32, 131_072, 16, 64, 20);
        assert_eq!(long, Variant::Hamerly, "20-iteration fit bound-prunes");
    }

    #[test]
    fn session_executor_scopes_launches() {
        // A serial-pinned session must run launches under serial policy.
        let session = Session::a100().with_executor(Executor::serial());
        let policy = session.run(|| exec::with_current(|e| e.policy()));
        assert_eq!(policy, gpu_sim::exec::ExecPolicy::Serial);
    }
}
