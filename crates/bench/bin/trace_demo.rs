//! `trace_demo` — produce one of every observability artifact.
//!
//! Runs a traced fused-variant fit plus a short micro-batched serve storm,
//! then writes into the output directory (first CLI argument, default
//! `target/trace_demo`):
//!
//! * `trace.json`         — Chrome-trace export of both workloads (load in
//!   `chrome://tracing` or Perfetto),
//! * `phase_profile.txt`  — the phase profiler's modeled-time table,
//! * `metrics.txt`        — the server's Prometheus text-format scrape.
//!
//! The CI serve-smoke leg uploads all three as build artifacts; locally the
//! same files are a quick way to eyeball what the trace subsystem records.

use bench_harness::fitbench::{blobs, DIM};
use bench_harness::tracebench::traced_fit;
use gpu_sim::DeviceProfile;
use kmeans::{KMeansConfig, PredictPolicy, Session, Variant};
use serve::{ModelRegistry, Server, ServerConfig};
use std::path::PathBuf;
use std::sync::Arc;
use trace::RecordingSink;

/// Samples in the traced fit.
const FIT_M: usize = 16_384;
/// Rows across the serve storm's clients.
const STORM_ROWS: usize = 16_384;

fn main() {
    let out: PathBuf = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/trace_demo".into())
        .into();
    std::fs::create_dir_all(&out).expect("create output directory");

    // 1. Traced fit: phase spans, launch spans, fault events.
    println!("trace_demo: traced fused fit at m = {FIT_M} (d = {DIM})");
    let (fit_sink, elapsed) = traced_fit(FIT_M, Variant::FusedV2);
    println!(
        "trace_demo: fit took {elapsed:.3} s wall, {} records",
        fit_sink.len()
    );

    // 2. Serve storm into its own sink (the server's session carries it to
    //    the dispatcher thread), scraping the metrics registry afterwards.
    let session = Session::new(DeviceProfile::a100());
    let registry = ModelRegistry::new();
    registry.register(
        "demo",
        session
            .kmeans(KMeansConfig::new(16).with_seed(42))
            .fit_model(&blobs(4096))
            .expect("fit")
            .with_predict_policy(PredictPolicy::Int8),
    );
    let serve_sink = Arc::new(RecordingSink::default());
    let server = Server::new(
        session.with_trace_sink(Arc::clone(&serve_sink) as Arc<dyn trace::TraceSink>),
        registry,
        ServerConfig {
            max_batch_rows: 4096,
            // a batching window: without one there is no micro-batching
            max_delay_us: 200,
            ..ServerConfig::default()
        },
    );
    let clients = 8usize;
    let rows = STORM_ROWS / clients;
    println!("trace_demo: serve storm — {clients} clients x {rows} rows");
    std::thread::scope(|s| {
        for _ in 0..clients {
            let server = &server;
            s.spawn(move || {
                server.predict("demo", &blobs(rows)).expect("predict");
            });
        }
    });
    let metrics = server.metrics_text();
    drop(server);

    // 3. Exports: one merged Chrome trace (serve tracks offset past the
    //    fit's so the two workloads land on distinct timeline rows), the
    //    fit's phase table, and the metrics scrape.
    let mut records = fit_sink.records();
    let fit_tracks = records.iter().map(|r| r.track + 1).max().unwrap_or(0);
    records.extend(serve_sink.records().into_iter().map(|mut r| {
        r.track += fit_tracks;
        r
    }));
    let json = trace::chrome::chrome_json(&records);
    std::fs::write(out.join("trace.json"), json).expect("write trace.json");
    std::fs::write(
        out.join("phase_profile.txt"),
        fit_sink.phase_profile().to_table(),
    )
    .expect("write phase_profile.txt");
    std::fs::write(out.join("metrics.txt"), metrics).expect("write metrics.txt");
    println!(
        "trace_demo: wrote trace.json, phase_profile.txt, metrics.txt under {}",
        out.display()
    );
}
