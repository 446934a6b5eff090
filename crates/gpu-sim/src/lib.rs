//! # ftk-gpu-sim — a warp/threadblock-level GPU simulator
//!
//! This crate is the hardware substrate for the FT K-means reproduction.
//! The original paper runs hand-written CUDA/CUTLASS kernels on NVIDIA A100
//! and T4 GPUs; here the same kernels are expressed against a *functional*
//! model of the relevant GPU machinery:
//!
//! * [`GlobalBuffer`] — device global memory with transaction accounting at
//!   per-element (uncoalesced) and per-run (coalesced) granularity,
//! * [`SharedTile`] / [`AsyncPipeline`] — shared-memory staging with the
//!   Ampere `cp.async` multi-stage pipeline semantics (commit/wait groups),
//!   including the distinction between the pre-Ampere *register-staged* copy
//!   path and the Ampere *bypass* path that breaks register-reuse ABFT,
//! * [`mma`] — warp-level tensor-core fragment multiply-accumulate with a
//!   fault-injection interception point,
//! * [`launch`] / [`exec`] — grid/threadblock execution on a persistent
//!   worker pool with chunked block scheduling, per-worker counter shards
//!   and a deterministic serial policy (`FTK_EXEC=serial`),
//! * [`timing`] — an analytic performance model (occupancy, tile and wave
//!   quantization, compute/memory overlap, ABFT overhead terms) calibrated
//!   against the paper's published A100/T4 anchors.
//!
//! The functional side computes *real numerical results* so the ABFT layers
//! above can detect and correct *real injected bit flips*; the timing side
//! regenerates the shape of every figure in the paper's evaluation.
//!
//! ```
//! use gpu_sim::{DeviceProfile, Matrix};
//!
//! let dev = DeviceProfile::a100();
//! assert_eq!(dev.sm_count, 108);
//! let m = Matrix::<f32>::zeros(4, 8);
//! assert_eq!(m.rows() * m.cols(), 32);
//! ```

pub mod async_copy;
pub mod atomics;
pub mod counters;
pub mod device;
pub mod dim;
pub mod error;
pub mod exec;
pub mod launch;
pub mod matrix;
pub mod memory;
pub mod mma;
pub mod sanitizer;
pub mod scalar;
pub mod scratch;
pub mod shared;
pub mod timing;
pub mod warp;

pub use async_copy::{AsyncPipeline, CopyPath};
pub use counters::{CounterSink, CounterSnapshot, Counters, EventSink};
pub use device::{DeviceProfile, Precision};
pub use dim::Dim3;
pub use error::SimError;
pub use exec::{ExecPolicy, Executor};
pub use launch::{launch_grid, launch_grid_labeled, launch_grid_scratch, BlockCtx, LaunchConfig};
pub use matrix::Matrix;
pub use memory::{Element, GlobalBuffer};
pub use mma::{FaultHook, FragmentMma, MmaSite, NoFault};
pub use sanitizer::{Finding, FindingKind, SanitizeConfig, SanitizerReport};
pub use scalar::Scalar;
pub use scratch::ScratchBuf;
pub use shared::SharedTile;
pub use timing::model::{KernelClass, KernelTiming, TimingInput};
