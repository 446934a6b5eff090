//! # ftk-abft — algorithm-based fault tolerance for the distance GEMM
//!
//! Implements the paper's fault-tolerance layer (§II-C, §IV):
//!
//! * [`checksum`] — the `e1 = [1,1,…,1]` and `e2 = [1,2,…,n]` encodings of
//!   operands and accumulator tiles,
//! * [`bounds`] — the FP-slack policy that keeps Hamerly bound pruning
//!   consistent with the reference scan and gives bound revalidation its
//!   false-alarm immunity,
//! * [`quant`] — the quantization-slack margin policy that keeps
//!   quantized-table predict label-exact against the reference scan,
//! * [`threshold`] — the detection threshold δ policy (floating-point
//!   rounding must not raise false alarms; injected bit flips above the
//!   noise floor must),
//! * [`detect`] — checksum comparison and discrepancy extraction,
//! * [`mod@locate`] — **location encoding**: recovering the (row, column) of a
//!   corrupted accumulator element from the ratios of weighted checksum
//!   discrepancies,
//! * [`correct`] — in-place subtraction of the error magnitude,
//! * [`online`] — the per-warp online state machine fused into the tensor
//!   kernel's main loop (Fig. 6),
//! * [`schemes`] — the three competing schemes evaluated in the paper:
//!   FT K-means (warp-level detect + correct) and Kosaian (warp-level
//!   detect only, recompute to correct) run on [`online`]'s per-warp
//!   state; Wu (threadblock-level, register-reuse — degraded on Ampere)
//!   has its own block state,
//! * [`dmr`] — dual modular redundancy for the memory-bound centroid
//!   update.

pub mod bounds;
pub mod checksum;
pub mod correct;
pub mod detect;
pub mod dmr;
pub mod locate;
pub mod online;
pub mod quant;
pub mod schemes;
pub mod threshold;

pub use bounds::BoundPolicy;
pub use checksum::ChecksumTriple;
pub use correct::correct_in_place;
pub use detect::{compare, Discrepancy};
pub use locate::{locate, Located};
pub use online::{CheckOutcome, WarpOnlineState};
pub use quant::QuantMargin;
pub use schemes::SchemeKind;
pub use threshold::ThresholdPolicy;
