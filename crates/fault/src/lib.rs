//! # ftk-fault — transient-fault injection
//!
//! Implements the paper's fault model (§II-A): fail-continue errors inside
//! the computational logic units, under the single-event-upset (SEU)
//! assumption — at most one soft error per detection/correction interval.
//! "Each threadblock randomly selects an element to corrupt by flipping a
//! single bit, either in its 32-bit float representation or 64-bit double
//! representation."
//!
//! * [`bitflip`] — single-bit flips with IEEE-754 field classification,
//! * [`model`] — which execution sites are eligible for corruption,
//! * [`schedule`] — when faults arrive (per-launch probability or a rate in
//!   errors/second, as in the paper's "tens of errors per second"), with
//!   requested-vs-achieved rate accounting when the per-block probability
//!   clamp saturates,
//! * [`injector`] — a seeded [`gpu_sim::FaultHook`] implementation,
//! * [`stats`] — campaign statistics (injected / detected / corrected /
//!   benign / SDC).

pub mod bitflip;
pub mod injector;
pub mod model;
pub mod schedule;
pub mod stats;

pub use bitflip::{classify_bit, BitField};
pub use injector::{splitmix64, Injector, InjectorConfig, PlannedInjection};
pub use model::{FaultTarget, SeuModel};
pub use schedule::{InjectionSchedule, RateRealization};
pub use stats::{CampaignStats, InjectionRecord};
