//! Estimator configuration.

use crate::error::KMeansError;
use abft::SchemeKind;
use fault::{FaultTarget, InjectionSchedule};
use gpu_sim::timing::TileConfig;

/// Which distance/assignment kernel implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Thread-per-sample baseline (§III-A1).
    Naive,
    /// SIMT GEMM + separate reduction kernel (§III-A2).
    GemmV1,
    /// GEMM with thread/threadblock-fused reduction (§III-A3).
    FusedV2,
    /// Fully fused with threadblock broadcast (§III-A4).
    BroadcastV3,
    /// Tensor-core pipeline kernel with the given tiling (§III-A5). `None`
    /// selects a per-precision default tile.
    Tensor(Option<TileConfig>),
    /// Bound-pruned scalar assignment (Hamerly's algorithm): a per-sample
    /// upper bound and a single global lower bound skip most distance
    /// computations once centroids settle. Protected by periodic exact
    /// bound revalidation (see [`FtConfig::revalidate_every`]).
    Hamerly,
}

impl Variant {
    /// The production variant with default tiling.
    pub fn tensor_default() -> Self {
        Variant::Tensor(None)
    }

    /// Display label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::Naive => "K-Means Naive",
            Variant::GemmV1 => "K-Means V1",
            Variant::FusedV2 => "K-Means V2",
            Variant::BroadcastV3 => "K-Means V3",
            Variant::Tensor(_) => "FT K-Means",
            Variant::Hamerly => "K-Means Hamerly",
        }
    }
}

/// Precision policy for the serving path ([`crate::FittedModel::predict`] /
/// [`crate::FittedModel::score`]).
///
/// The quantized policies score queries against a reduced-precision
/// resident centroid table through the fused distance+argmin kernel
/// ([`crate::variants::predict_fused`]); an error-bound check
/// ([`abft::QuantMargin`]) routes any sample whose argmin margin is inside
/// the quantization noise to the exact fp row, so every policy returns the
/// same labels and distances as [`PredictPolicy::Exact`] — the quantized
/// policies are a throughput knob, not an accuracy knob.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum PredictPolicy {
    /// Full-precision assignment through the model's fitted kernel variant.
    #[default]
    Exact,
    /// fp16 resident table (2 bytes/element, ~2⁻¹¹ relative error).
    Fp16,
    /// Symmetric per-centroid int8 resident table (1 byte/element).
    Int8,
}

impl PredictPolicy {
    /// The quantization format this policy serves from (`None` for exact).
    pub fn quant_kind(self) -> Option<crate::quant::QuantKind> {
        match self {
            PredictPolicy::Exact => None,
            PredictPolicy::Fp16 => Some(crate::quant::QuantKind::Fp16),
            PredictPolicy::Int8 => Some(crate::quant::QuantKind::Int8),
        }
    }

    /// Display label for benches and reports.
    pub fn label(&self) -> &'static str {
        match self {
            PredictPolicy::Exact => "exact",
            PredictPolicy::Fp16 => "fp16",
            PredictPolicy::Int8 => "int8",
        }
    }
}

/// Centroid initialization strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitMethod {
    /// K distinct samples chosen uniformly.
    RandomSamples,
    /// K-means++ (D² weighting) — better seeds, more setup work.
    KMeansPlusPlus,
}

/// Fault-tolerance configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FtConfig {
    /// ABFT scheme protecting the distance kernel.
    pub scheme: SchemeKind,
    /// Whether the centroid update runs under DMR.
    pub dmr_update: bool,
    /// Error-injection schedule (for evaluation campaigns).
    pub injection: InjectionSchedule,
    /// Injection RNG seed.
    pub injection_seed: u64,
    /// Which execution sites the injector may corrupt. [`FaultTarget::Any`]
    /// (the default) storms the whole pipeline — MMA accumulators, ABFT
    /// checksums, and the scalar FMA stream of the update phase.
    /// Campaigns reproducing the paper's §V-C protocol restrict to
    /// [`FaultTarget::PayloadMma`], the distance-kernel MMA stream.
    pub fault_target: FaultTarget,
    /// Modeled distance-kernel residency of one fit, in seconds, used to
    /// convert a [`InjectionSchedule::Rate`] into per-launch probabilities.
    ///
    /// `0.0` (the default) derives a per-launch kernel time from the
    /// calibrated timing model — physically faithful, but at simulator
    /// scale a kernel lasts microseconds, so a paper-rate schedule ("tens
    /// of errors per second") almost never fires within a single fit.
    /// Setting this positive instead spreads `residency × rate` expected
    /// errors uniformly over the fit's `max_iter` assignment-kernel
    /// launches, modeling a distance kernel that occupies the GPU for that
    /// many wall seconds — the way the paper's §V-C campaigns sustain
    /// their arrival rates over seconds of execution. Campaign sweeps set
    /// `1.0` so a 50 err/s cell sees ≈50 MMA-stream injections per fit
    /// (under [`FaultTarget::PayloadMma`]; broader targets add arrivals in
    /// the other streams on top).
    pub modeled_residency_s: f64,
    /// Bound-revalidation cadence for [`Variant::Hamerly`]: every this many
    /// iterations an exact-distance sweep over a rotating sample stratum
    /// checks the triangle-inequality bounds; a violation counts as
    /// detected and forces a full un-pruned re-assignment. The final
    /// iteration always revalidates the whole population so no corrupted
    /// bound survives the fit. `0` disables the periodic passes (the
    /// final-iteration sweep still runs). Ignored by the other variants.
    pub revalidate_every: usize,
}

impl Default for FtConfig {
    fn default() -> Self {
        FtConfig {
            scheme: SchemeKind::None,
            dmr_update: false,
            injection: InjectionSchedule::Off,
            injection_seed: 0,
            fault_target: FaultTarget::Any,
            modeled_residency_s: 0.0,
            revalidate_every: 4,
        }
    }
}

impl FtConfig {
    /// The paper's production configuration: warp-level ABFT + DMR update.
    pub fn protected() -> Self {
        FtConfig {
            scheme: SchemeKind::FtKMeans,
            dmr_update: true,
            ..Default::default()
        }
    }

    /// This configuration with injection disabled — the fault-free twin of
    /// a campaign cell (same scheme and DMR setting, so the numerics are
    /// identical; only the fault stream is removed).
    pub fn without_injection(self) -> Self {
        FtConfig {
            injection: InjectionSchedule::Off,
            ..self
        }
    }
}

/// Full estimator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansConfig {
    /// Number of clusters K.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iter: usize,
    /// Relative inertia-improvement tolerance for convergence.
    pub tol: f64,
    /// Seed for initialization.
    pub seed: u64,
    /// Initialization method.
    pub init: InitMethod,
    /// Kernel variant for the assignment stage.
    pub variant: Variant,
    /// Fault-tolerance setup.
    pub ft: FtConfig,
    /// Mini-batch empty-cluster repair threshold (sklearn's
    /// `reassignment_ratio` analog), used only by
    /// [`crate::KMeans::partial_fit`]. After each batch's learning-rate
    /// fold, any center whose accumulated weight falls below
    /// `reassignment_ratio × max(weights)` is deterministically re-seeded
    /// onto the batch sample farthest from its current center (largest
    /// assigned distance; ties and ordering resolved by index, so repair is
    /// byte-identical under serial and parallel executors), and its weight
    /// restarts at the smallest weight among the surviving centers. `0.0`
    /// (the default) disables repair — dead or starved clusters then drift
    /// forever, which is the robustness gap this closes for long-running
    /// service refits. Full-batch fits ignore the field.
    pub reassignment_ratio: f64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            k: 8,
            max_iter: 50,
            tol: 1e-4,
            seed: 0,
            init: InitMethod::RandomSamples,
            variant: Variant::tensor_default(),
            ft: FtConfig::default(),
            reassignment_ratio: 0.0,
        }
    }
}

impl KMeansConfig {
    /// Convenience constructor.
    pub fn new(k: usize) -> Self {
        KMeansConfig {
            k,
            ..Default::default()
        }
    }

    /// Builder-style variant selection.
    pub fn with_variant(mut self, v: Variant) -> Self {
        self.variant = v;
        self
    }

    /// Builder-style FT selection.
    pub fn with_ft(mut self, ft: FtConfig) -> Self {
        self.ft = ft;
        self
    }

    /// Builder-style seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style initialization method (callers previously had to poke
    /// the public `init` field).
    pub fn with_init(mut self, init: InitMethod) -> Self {
        self.init = init;
        self
    }

    /// Builder-style mini-batch empty-cluster repair threshold (see the
    /// [`reassignment_ratio`](KMeansConfig::reassignment_ratio) field;
    /// sklearn defaults to `0.01`).
    pub fn with_reassignment_ratio(mut self, ratio: f64) -> Self {
        self.reassignment_ratio = ratio;
        self
    }

    /// Check this configuration against a problem of `samples` rows and
    /// `dim` features. Every estimator entry point calls this before
    /// touching the device; errors name the offending field.
    pub fn validate(&self, samples: usize, dim: usize) -> Result<(), KMeansError> {
        if self.k == 0 {
            return Err(KMeansError::InvalidConfig {
                field: "k",
                reason: "must be at least 1".into(),
            });
        }
        if self.k > samples {
            return Err(KMeansError::InvalidConfig {
                field: "k",
                reason: format!("k = {} exceeds the {samples} available samples", self.k),
            });
        }
        if dim == 0 {
            return Err(KMeansError::InvalidConfig {
                field: "samples",
                reason: "feature dimension must be positive".into(),
            });
        }
        if self.max_iter == 0 {
            return Err(KMeansError::InvalidConfig {
                field: "max_iter",
                reason: "must be at least 1".into(),
            });
        }
        if !self.tol.is_finite() || self.tol < 0.0 {
            return Err(KMeansError::InvalidConfig {
                field: "tol",
                reason: format!("must be finite and non-negative, got {}", self.tol),
            });
        }
        if !self.reassignment_ratio.is_finite() || !(0.0..=1.0).contains(&self.reassignment_ratio) {
            return Err(KMeansError::InvalidConfig {
                field: "reassignment_ratio",
                reason: format!(
                    "must be a finite fraction in [0, 1], got {}",
                    self.reassignment_ratio
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = KMeansConfig::default();
        assert_eq!(c.k, 8);
        assert!(c.max_iter > 0);
        assert_eq!(c.ft.scheme, SchemeKind::None);
        assert!(matches!(c.variant, Variant::Tensor(None)));
        assert_eq!(c.reassignment_ratio, 0.0, "repair is opt-in");
    }

    #[test]
    fn builders_compose() {
        let c = KMeansConfig::new(16)
            .with_variant(Variant::Naive)
            .with_ft(FtConfig::protected())
            .with_seed(7);
        assert_eq!(c.k, 16);
        assert_eq!(c.variant, Variant::Naive);
        assert_eq!(c.ft.scheme, SchemeKind::FtKMeans);
        assert!(c.ft.dmr_update);
        assert_eq!(c.seed, 7);
    }

    #[test]
    fn with_init_selects_the_method() {
        let c = KMeansConfig::new(4).with_init(InitMethod::KMeansPlusPlus);
        assert_eq!(c.init, InitMethod::KMeansPlusPlus);
    }

    #[test]
    fn validate_names_the_offending_field() {
        let field = |cfg: KMeansConfig, m: usize, d: usize| match cfg.validate(m, d) {
            Err(KMeansError::InvalidConfig { field, .. }) => Some(field),
            Ok(()) => None,
            other => panic!("unexpected: {other:?}"),
        };
        assert_eq!(field(KMeansConfig::new(0), 10, 2), Some("k"));
        assert_eq!(field(KMeansConfig::new(11), 10, 2), Some("k"));
        assert_eq!(field(KMeansConfig::new(2), 10, 0), Some("samples"));
        let mut c = KMeansConfig::new(2);
        c.max_iter = 0;
        assert_eq!(field(c, 10, 2), Some("max_iter"));
        let mut c = KMeansConfig::new(2);
        c.tol = f64::NAN;
        assert_eq!(field(c, 10, 2), Some("tol"));
        for bad in [-0.1, 1.5, f64::NAN] {
            let c = KMeansConfig::new(2).with_reassignment_ratio(bad);
            assert_eq!(field(c, 10, 2), Some("reassignment_ratio"));
        }
        let c = KMeansConfig::new(2).with_reassignment_ratio(0.05);
        assert_eq!(field(c, 10, 2), None);
        assert_eq!(field(KMeansConfig::new(2), 10, 2), None);
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(Variant::Naive.label(), "K-Means Naive");
        assert_eq!(Variant::Tensor(None).label(), "FT K-Means");
    }
}
