//! # ftk-kmeans — FT K-means core
//!
//! The paper's contribution: a step-wise optimized K-means whose
//! distance/assignment stage runs as a fused GEMM on the simulated GPU
//! ([`gpu_sim`]), with optional warp-level algorithm-based fault tolerance.
//!
//! The step-wise variants of §III are all present and runnable, plus a
//! bound-pruned sixth family that amortizes over Lloyd iterations:
//!
//! | variant | §III | kernel |
//! |---|---|---|
//! | [`Variant::Naive`] | A-1 | thread-per-sample distance loop |
//! | [`Variant::GemmV1`] | A-2 | SIMT GEMM + separate row-min kernel |
//! | [`Variant::FusedV2`] | A-3 | fused thread/threadblock reduction |
//! | [`Variant::BroadcastV3`] | A-4 | fully fused with per-row broadcast |
//! | [`Variant::Tensor`] | A-5 | tensor-core pipeline kernel (Fig. 4/6) |
//! | [`Variant::Hamerly`] | — | triangle-inequality bound pruning ([`variants::hamerly`]) |
//! | serving path | — | fused quantized distance+argmin ([`variants::predict_fused`], [`PredictPolicy`]) |
//!
//! Fault tolerance plugs into the tensor variant as [`abft::SchemeKind`]:
//! the paper's warp-level detect+correct scheme, Kosaian's detection-only
//! scheme, and Wu's threadblock-level scheme; the centroid-update phase is
//! DMR-protected ([`update`]). The Hamerly variant's device-resident
//! bounds get their own checksum-style protection: periodic revalidation
//! sweeps ([`variants::hamerly::revalidate`], cadence
//! [`FtConfig::revalidate_every`]) that recompute exact distances for a
//! rotating sample stratum and force a full un-pruned re-assignment when
//! a stored bound or label cannot be fault-free; under a protective
//! scheme the sweeps widen to the whole population and verify-and-repair
//! in place ([`variants::hamerly::revalidate_and_repair`]), making a
//! cadence-1 protected fit bit-identical to its fault-free twin.
//!
//! ## Estimator lifecycle
//!
//! A [`Session`] owns the long-lived context (device profile, executor
//! handle, lazily-built kernel selector with optional on-disk persistence);
//! estimators derive from it and fits return a [`FittedModel`] that owns
//! the uploaded device data:
//!
//! ```
//! use gpu_sim::{DeviceProfile, Matrix};
//! use kmeans::{FtConfig, KMeansConfig, Session, Variant};
//!
//! // 64 samples around two centers on a line.
//! let data = Matrix::<f64>::from_fn(64, 2, |r, c| {
//!     (r % 2) as f64 * 10.0 + (r as f64 * 0.01) + c as f64 * 0.1
//! });
//! let session = Session::new(DeviceProfile::a100());
//! let km = session.kmeans(
//!     KMeansConfig::new(2)
//!         .with_variant(Variant::tensor_default())
//!         .with_ft(FtConfig::protected()),
//! );
//! let model = km.fit_model(&data).unwrap();
//! assert!(model.converged);
//! assert_eq!(model.labels.len(), 64);
//! // even samples cluster together, odd samples together
//! assert_eq!(model.labels[0], model.labels[2]);
//! assert_ne!(model.labels[0], model.labels[1]);
//! // the model predicts new samples without re-uploading its centroids
//! assert_eq!(model.predict(&data).unwrap(), model.labels);
//! ```
//!
//! Streaming workloads use [`KMeans::partial_fit`] — mini-batch K-means
//! over the same assignment kernels, with per-batch ABFT accounting; see
//! the [`minibatch`](crate::KMeans::partial_fit) docs.

pub mod assign;
pub mod baselines;
pub mod config;
pub mod device_data;
pub mod driver;
pub mod error;
mod init;
mod ledger;
pub mod metrics;
mod minibatch;
pub mod model;
pub mod norms;
mod phase;
pub mod quant;
pub mod reference;
pub mod session;
pub mod update;
pub mod variants;

pub use assign::AssignmentResult;
pub use config::{FtConfig, InitMethod, KMeansConfig, PredictPolicy, Variant};
pub use device_data::DeviceData;
pub use driver::{FitResult, IterationEvent, KMeans};
pub use error::KMeansError;
pub use metrics::{adjusted_rand_index, inertia};
pub use model::FittedModel;
pub use quant::{QuantCache, QuantKind, QuantizedCentroids};
pub use session::Session;
