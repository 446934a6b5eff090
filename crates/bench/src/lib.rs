//! # bench_harness — the evaluation harness
//!
//! Regenerates every table and figure of the paper's §V on the simulated
//! GPU: the step-wise optimization ladder (Fig. 7), the parameter sweeps
//! against cuML (Figs. 8–11, 19–20), the speedup heatmap and parameter
//! selection analysis (Figs. 12–14, Table I), the fault-tolerance overhead
//! studies (Figs. 15–16) and the error-injection campaigns (Figs. 17–18,
//! 21).
//!
//! GFLOPS series come from the calibrated timing model at paper scale
//! (M = 131072); the injection figures additionally run *functional*
//! campaigns at reduced scale where real bit flips are injected, detected
//! and corrected, so the correctness claims are exercised, not asserted.
//!
//! The [`campaign`] subsystem generalizes those functional campaigns into
//! a declarative sweep over injection rates × schemes × precisions ×
//! variants × shapes with SDC classification against fault-free twin fits
//! (§V-C tables; `campaign` bin), and [`drift`] gates generated tables
//! against committed baselines (`bench_check` bin). The same bin gates
//! fit, predict and serve throughput against the one ledger that
//! [`regression`] reads and writes.
//!
//! Run `cargo run -p bench_harness --release --bin figures -- --fig all` to
//! write `results/figNN.csv` plus a printed summary per figure, and
//! `cargo run -p bench_harness --release --bin campaign -- --quick` for
//! the fault-injection campaign table.

pub mod campaign;
pub mod drift;
pub mod figures;
pub mod fitbench;
pub mod mmarate;
pub mod paper;
pub mod predictbench;
pub mod regression;
pub mod report;
pub mod sanitize;
pub mod servebench;
pub mod tracebench;

pub use report::{FigureReport, ReportSink};
