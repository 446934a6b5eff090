//! Trace-overhead measurement and the at-scale phase-profile consistency
//! check behind `bench_check`'s trace gate.
//!
//! Two properties are gated:
//!
//! 1. **Overhead** — a fit with a [`trace::RecordingSink`] attached must
//!    stay within the regression band
//!    ([`TOLERANCE`](crate::regression::TOLERANCE)) of the identical
//!    untraced fit. The instrumentation is branch-gated on [`trace::active`], so the
//!    *untraced* cost is already covered by the fit-throughput gate; this
//!    measures the enabled path (snapshotting counters, formatting modeled
//!    times, ring-buffer pushes).
//! 2. **Attribution consistency** — the phase profiler's modeled-time
//!    breakdown must reproduce the fit ordering of `baselines/throughput.csv`
//!    at its committed scale: the naive variant's assignment phase
//!    (which materializes the m×k distance matrix) must cost more modeled
//!    time than the fused variant's. This ordering only holds once the
//!    extra distance-matrix traffic (2·m·k·4 bytes per iteration) outweighs
//!    the fused path's extra per-iteration launch (~4 us on the A100
//!    profile), i.e. m·k ≳ 1.7M, which the gate's m = 131072
//!    ([`fitbench::M`](crate::fitbench::M)) clears.

use crate::fitbench::{blobs, median, K, MAX_ITER};
use gpu_sim::DeviceProfile;
use kmeans::{KMeansConfig, Session, Variant};
use std::sync::Arc;
use std::time::Instant;
use trace::RecordingSink;

/// Overhead of running a fit with a recording sink attached, versus the
/// identical fit untraced.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceOverhead {
    /// Sample count of both fits.
    pub m: usize,
    /// Median seconds per untraced fit.
    pub untraced_s: f64,
    /// Median seconds per fit with a `RecordingSink` attached.
    pub traced_s: f64,
    /// Records the sink captured during one traced fit.
    pub events: usize,
}

impl TraceOverhead {
    /// `traced / untraced` wall-time ratio (1.0 = free).
    pub fn factor(&self) -> f64 {
        self.traced_s / self.untraced_s
    }
}

fn bench_config(variant: Variant) -> KMeansConfig {
    KMeansConfig {
        k: K,
        max_iter: MAX_ITER,
        tol: 0.0, // fixed work per rep, matching fitbench
        seed: 42,
        variant,
        ..Default::default()
    }
}

/// One traced fit of `variant` over `m` samples: the recorded sink plus
/// the fit's wall time.
pub fn traced_fit(m: usize, variant: Variant) -> (Arc<RecordingSink>, f64) {
    let sink = Arc::new(RecordingSink::default());
    let session = Session::new(DeviceProfile::a100())
        .with_trace_sink(Arc::clone(&sink) as Arc<dyn trace::TraceSink>);
    let data = blobs(m);
    let start = Instant::now();
    session
        .kmeans(bench_config(variant))
        .fit_model(&data)
        .expect("fit failed");
    (sink, start.elapsed().as_secs_f64())
}

/// Measure the recording-sink overhead on the fused variant: `reps`
/// untraced fits vs `reps` traced fits, medians compared.
pub fn run_trace_overhead(m: usize, reps: usize) -> TraceOverhead {
    let reps = reps.max(1);
    let data = blobs(m);
    let session = Session::new(DeviceProfile::a100());
    let km = session.kmeans(bench_config(Variant::FusedV2));
    let mut untraced = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        km.fit_model(&data).expect("fit failed");
        untraced.push(start.elapsed().as_secs_f64());
    }
    let mut traced = Vec::with_capacity(reps);
    let mut events = 0usize;
    for _ in 0..reps {
        let (sink, elapsed) = traced_fit(m, Variant::FusedV2);
        traced.push(elapsed);
        events = sink.len();
    }
    TraceOverhead {
        m,
        untraced_s: median(&mut untraced),
        traced_s: median(&mut traced),
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitbench::DIM;

    #[test]
    fn traced_fit_records_assignment_spans() {
        let (sink, _) = traced_fit(512, Variant::FusedV2);
        let profile = sink.phase_profile();
        let stats = profile
            .get(trace::phases::ASSIGNMENT)
            .expect("fit records assignment spans");
        assert_eq!(stats.spans, MAX_ITER as u64);
        assert!(stats.launches >= stats.spans);
        assert!(profile.modeled_s(trace::phases::UPDATE) > 0.0);
        // The bench shape is what the spans describe.
        assert_eq!(DIM, 64);
        assert_eq!(K, 16);
    }

    #[test]
    fn overhead_factor_is_finite_and_sane() {
        let o = run_trace_overhead(512, 1);
        assert!(o.untraced_s > 0.0 && o.traced_s > 0.0);
        assert!(o.factor().is_finite());
        assert!(o.events > 0, "traced fit must record events");
    }
}
