//! Structured tracing and metrics substrate for the FT K-Means stack.
//!
//! This crate sits *below* every other crate in the workspace (including
//! `gpu-sim`, which emits per-launch spans into it), so it is std-only and
//! knows nothing about counters, kernels, or servers. Producers hand it
//! typed [`TraceEvent`]s; counter deltas cross the boundary as a flat
//! [`Fields`] list of `(name, value)` pairs.
//!
//! # Zero overhead when disabled
//!
//! The hot-path contract is a single [`active()`] check (one thread-local
//! read plus one relaxed atomic load). Event construction — snapshotting
//! counters, formatting labels — happens only behind that check, either
//! explicitly (`if trace::active() { ... }`) or via [`emit_with`], which
//! takes a closure so the event is never built when no sink is installed.
//!
//! # Sink resolution
//!
//! Two scopes, mirroring `gpu_sim::exec`'s executor override:
//!
//! * **Thread-local** — [`with_sink`] installs a sink for the duration of a
//!   closure on the current thread (this is what
//!   `Session::with_trace_sink` routes through). It *overrides* the global
//!   sink on that thread.
//! * **Global** — [`install_global`] installs a process-wide sink, and the
//!   `FTK_TRACE=<path>` environment variable lazily installs a streaming
//!   [`ChromeWriterSink`](chrome::ChromeWriterSink) writing Chrome
//!   `chrome://tracing` JSON to `<path>` on first use.
//!
//! Worker threads of the `gpu-sim` pool do not inherit the caller's
//! thread-local sink; all span emission in the stack happens host-side on
//! the thread that owns the scope, which is also what keeps pool-mode
//! event counts deterministic.
//!
//! # Determinism
//!
//! Records carry *modeled* time (derived from counter deltas via the
//! calibrated timing model) and deterministic indices — never wall-clock.
//! Under `FTK_EXEC=serial` a [`RecordingSink`]
//! stream is byte-stable run-to-run ([`recording::RecordingSink::to_log_text`]);
//! under the pool, per-phase event counts and summed counter deltas match
//! serial even though interleaving may differ. Wall-clock quantities live
//! exclusively in the [`metrics`] registry, which is outside the
//! byte-stability contract.

pub mod chrome;
pub mod event;
pub mod metrics;
pub mod profile;
pub mod recording;

pub use event::{Fields, Record, TraceEvent};
pub use recording::RecordingSink;

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, Once};

/// Canonical phase names emitted by the kmeans driver and friends.
///
/// Kept here (rather than in `kmeans`) so sinks, the profiler, and tests
/// can match on them without depending on the producer crates.
pub mod phases {
    /// Centroid seeding, device upload, and initial bound computation.
    pub const INIT: &str = "init";
    /// One assignment sweep (any kernel variant).
    pub const ASSIGNMENT: &str = "assignment";
    /// Centroid accumulation + finalize (the update kernels).
    pub const UPDATE: &str = "update";
    /// Centroid drift measurement and Hamerly bound maintenance.
    pub const DRIFT: &str = "drift";
    /// Hamerly bound revalidation / fault repair sweep.
    pub const REVALIDATION: &str = "revalidation";
    /// Quantized table (fp16/int8) build or rebuild.
    pub const QUANT_BUILD: &str = "quant_build";
    /// Reserved for the device-loss checkpoint/restart subsystem
    /// (ROADMAP "Device-level fault tolerance"); no producer emits it yet.
    pub const CHECKPOINT: &str = "checkpoint";
    /// Mini-batch assignment sweep inside `partial_fit`.
    pub const BATCH_ASSIGN: &str = "batch_assign";
    /// Mini-batch centroid fold inside `partial_fit`.
    pub const BATCH_UPDATE: &str = "batch_update";
    /// One `FittedModel` predict/assign call (serving path).
    pub const PREDICT: &str = "predict";
    /// The final objective of a fit or `partial_fit` step (one launch).
    pub const INERTIA: &str = "inertia";
}

/// Canonical fault-event kinds (see [`TraceEvent::Fault`]).
pub mod faults {
    /// Bit flips injected by the campaign injector this step.
    pub const INJECTION: &str = "injection";
    /// Faults detected by a checksum / digest / bound check.
    pub const DETECTED: &str = "detected";
    /// Faults corrected in place (ABFT column/row correction).
    pub const CORRECTED: &str = "corrected";
    /// Checksum baselines recomputed after an uncorrectable mismatch.
    pub const REBASELINED: &str = "rebaselined";
    /// Samples recomputed by the Hamerly revalidation repair sweep.
    pub const RECOMPUTED: &str = "recomputed";
    /// DMR (dual modular redundancy) mismatches in the update kernel.
    pub const DMR_MISMATCH: &str = "dmr_mismatch";
    /// Revalidation sweeps triggered by a detected fault.
    pub const REVAL_REPAIR: &str = "reval_repair";
    /// Quantized predict fell back to the exact path for a query batch.
    pub const QUANT_FALLBACK: &str = "quant_fallback";
    /// Quantized table digest mismatch forcing a rebuild.
    pub const QUANT_DIGEST_MISMATCH: &str = "quant_digest_mismatch";
}

/// A consumer of trace records.
///
/// Implementations must be cheap and non-blocking where possible: `record`
/// is called synchronously from instrumented code (driver loops, launch
/// epilogues). The provided sinks are [`RecordingSink`] (bounded in-memory
/// ring) and [`chrome::ChromeWriterSink`] (streaming file writer); the
/// default is no sink at all, in which case instrumentation reduces to a
/// single flag check.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use trace::{Record, TraceEvent, TraceSink};
///
/// /// A sink that just counts launch spans.
/// #[derive(Default)]
/// struct LaunchCounter(AtomicU64);
///
/// impl TraceSink for LaunchCounter {
///     fn record(&self, record: Record) {
///         if matches!(record.event, TraceEvent::Launch { .. }) {
///             self.0.fetch_add(1, Ordering::Relaxed);
///         }
///     }
/// }
///
/// let sink = Arc::new(LaunchCounter::default());
/// let n = trace::with_sink(sink.clone(), || {
///     trace::emit_with(|| TraceEvent::Launch {
///         label: "demo",
///         grid: (4, 1, 1),
///         modeled_s: 1e-6,
///         fields: vec![("bytes_loaded", 1024)],
///     });
///     sink.0.load(Ordering::Relaxed)
/// });
/// assert_eq!(n, 1);
/// assert!(!trace::active()); // scope ended, back to zero-overhead
/// ```
pub trait TraceSink: Send + Sync {
    /// Consume one record. Called synchronously by the emitting thread.
    fn record(&self, record: Record);
}

thread_local! {
    static LOCAL_SINK: RefCell<Option<Arc<dyn TraceSink>>> = const { RefCell::new(None) };
    static LOCAL_ACTIVE: Cell<bool> = const { Cell::new(false) };
    static LOCAL_TRACK: Cell<u32> = const { Cell::new(u32::MAX) };
}

static GLOBAL_INIT: Once = Once::new();
static GLOBAL_ACTIVE: AtomicBool = AtomicBool::new(false);
static GLOBAL_SINK: Mutex<Option<Arc<dyn TraceSink>>> = Mutex::new(None);
static NEXT_TRACK: AtomicU32 = AtomicU32::new(0);

/// True when any sink (thread-local or global) is installed.
///
/// This is the whole disabled-path cost: a thread-local flag read plus —
/// only when that is false — a relaxed atomic load.
#[inline]
pub fn active() -> bool {
    LOCAL_ACTIVE.with(|c| c.get()) || global_active()
}

#[inline]
fn global_active() -> bool {
    GLOBAL_INIT.call_once(init_global_from_env);
    GLOBAL_ACTIVE.load(Ordering::Relaxed)
}

fn init_global_from_env() {
    let Ok(path) = std::env::var("FTK_TRACE") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    match chrome::ChromeWriterSink::create(&path) {
        Ok(sink) => {
            *GLOBAL_SINK.lock().unwrap() = Some(Arc::new(sink));
            GLOBAL_ACTIVE.store(true, Ordering::Relaxed);
        }
        Err(err) => {
            eprintln!("trace: FTK_TRACE={path}: cannot open for writing: {err}");
        }
    }
}

/// Install a process-wide sink (overrides any `FTK_TRACE` sink).
///
/// Thread-local sinks installed via [`with_sink`] still take precedence on
/// their thread.
pub fn install_global(sink: Arc<dyn TraceSink>) {
    // Run (or skip) env init first so it cannot clobber this install later.
    GLOBAL_INIT.call_once(init_global_from_env);
    *GLOBAL_SINK.lock().unwrap() = Some(sink);
    GLOBAL_ACTIVE.store(true, Ordering::Relaxed);
}

/// Remove the process-wide sink (the `FTK_TRACE` env sink included).
pub fn uninstall_global() {
    GLOBAL_INIT.call_once(init_global_from_env);
    GLOBAL_ACTIVE.store(false, Ordering::Relaxed);
    *GLOBAL_SINK.lock().unwrap() = None;
}

/// Run `f` with `sink` installed as this thread's trace sink.
///
/// Nested scopes restore the previous sink on exit (drop-guard, so
/// panics unwind correctly). Pool worker threads spawned inside `f` do
/// *not* inherit the sink — emission is a host-side affair by design.
pub fn with_sink<R>(sink: Arc<dyn TraceSink>, f: impl FnOnce() -> R) -> R {
    struct Restore {
        prev: Option<Arc<dyn TraceSink>>,
        prev_active: bool,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL_SINK.with(|s| *s.borrow_mut() = self.prev.take());
            LOCAL_ACTIVE.with(|c| c.set(self.prev_active));
        }
    }
    let prev = LOCAL_SINK.with(|s| s.borrow_mut().replace(sink));
    let prev_active = LOCAL_ACTIVE.with(|c| c.replace(true));
    let _restore = Restore { prev, prev_active };
    f()
}

/// Deterministic small integer identifying the current thread's trace
/// track (assigned on first emission; serial runs always use track 0).
pub fn thread_track() -> u32 {
    LOCAL_TRACK.with(|c| {
        let mut t = c.get();
        if t == u32::MAX {
            t = NEXT_TRACK.fetch_add(1, Ordering::Relaxed);
            c.set(t);
        }
        t
    })
}

/// Emit an event, constructing it lazily: the closure runs only when a
/// sink is installed. This is the preferred call form for hot paths.
#[inline]
pub fn emit_with(f: impl FnOnce() -> TraceEvent) {
    if !active() {
        return;
    }
    emit_now(f());
}

/// Emit an already-constructed event. Prefer [`emit_with`] unless the
/// event was built behind your own [`active()`] check.
#[inline]
pub fn emit(event: TraceEvent) {
    if !active() {
        return;
    }
    emit_now(event);
}

#[cold]
fn emit_now(event: TraceEvent) {
    let record = Record {
        track: thread_track(),
        event,
    };
    // Thread-local sink overrides the global one on this thread.
    let sent_local = LOCAL_SINK.with(|s| {
        if let Some(sink) = s.borrow().as_ref() {
            sink.record(record.clone());
            true
        } else {
            false
        }
    });
    if !sent_local {
        if let Some(sink) = GLOBAL_SINK.lock().unwrap().as_ref() {
            sink.record(record);
        }
    }
}

/// Emit a [`TraceEvent::PhaseBegin`] if tracing is active.
#[inline]
pub fn phase_begin(phase: &'static str, index: u64) {
    emit_with(|| TraceEvent::PhaseBegin { phase, index });
}

/// Emit a [`TraceEvent::PhaseEnd`] if tracing is active. `fields` is
/// typically the phase's counter delta; the closure runs only when a sink
/// is installed.
#[inline]
pub fn phase_end(phase: &'static str, index: u64, fields: impl FnOnce() -> Fields) {
    emit_with(|| TraceEvent::PhaseEnd {
        phase,
        index,
        fields: fields(),
    });
}

/// Emit a [`TraceEvent::Fault`] if tracing is active and `count` is
/// nonzero (fault streams stay quiet on clean runs).
#[inline]
pub fn fault(kind: &'static str, count: u64) {
    if count == 0 {
        return;
    }
    emit_with(|| TraceEvent::Fault { kind, count });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_by_default_on_fresh_thread() {
        std::thread::spawn(|| {
            // Global env sink may be installed by other tests' env; only
            // assert the local flag layering.
            LOCAL_ACTIVE.with(|c| assert!(!c.get()));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn with_sink_scopes_and_restores() {
        let sink = Arc::new(RecordingSink::new(16));
        assert!(!LOCAL_ACTIVE.with(|c| c.get()));
        with_sink(sink.clone(), || {
            assert!(active());
            emit(TraceEvent::Fault {
                kind: faults::DETECTED,
                count: 2,
            });
            // Nested scope with a different sink shadows the outer one.
            let inner = Arc::new(RecordingSink::new(16));
            with_sink(inner.clone(), || {
                emit(TraceEvent::Fault {
                    kind: faults::CORRECTED,
                    count: 1,
                });
            });
            assert_eq!(inner.len(), 1);
        });
        assert!(!LOCAL_ACTIVE.with(|c| c.get()));
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn emit_with_skips_construction_when_disabled() {
        let mut built = false;
        // No local sink on this thread; if no global sink is active the
        // closure must not run. (When FTK_TRACE is set in the test env the
        // closure legitimately runs; guard on that.)
        if !active() {
            emit_with(|| {
                built = true;
                TraceEvent::Fault {
                    kind: faults::DETECTED,
                    count: 1,
                }
            });
            assert!(!built);
        }
    }

    #[test]
    fn fault_suppresses_zero_counts() {
        let sink = Arc::new(RecordingSink::new(16));
        with_sink(sink.clone(), || {
            fault(faults::INJECTION, 0);
            fault(faults::INJECTION, 3);
        });
        assert_eq!(sink.len(), 1);
    }
}
