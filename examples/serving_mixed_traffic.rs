//! Clustering-as-a-service: two tenants with different predict policies
//! served concurrently through one micro-batching [`Server`].
//!
//! A latency-tolerant "analytics" tenant serves exact fp32 predictions
//! while a throughput-hungry "edge" tenant serves from the int8 resident
//! table; 16 concurrent clients fire small requests at both, and a
//! maintenance thread refits the edge tenant mid-storm (the hot swap is
//! invisible to in-flight requests). The server coalesces concurrent
//! requests into shared kernel launches — the per-client latency table and
//! the launch count show both sides of the micro-batching trade.
//!
//! ```text
//! cargo run --release --example serving_mixed_traffic
//! ```

use ft_kmeans::gpu::Matrix;
use ft_kmeans::kmeans::{KMeansConfig, PredictPolicy};
use ft_kmeans::{ModelRegistry, Server, ServerConfig, Session};
use std::time::Instant;

const CLIENTS: usize = 16;
const REQUESTS_PER_CLIENT: usize = 24;
const ROWS: usize = 8;
const DIM: usize = 24;

fn blobs(m: usize, k: usize, salt: usize) -> Matrix<f64> {
    Matrix::from_fn(m, DIM, |r, c| {
        ((r % k) * 9) as f64
            + (((r * 131 + c * 17 + salt * 7919) % 1000) as f64 / 1000.0 - 0.5) * 0.8
            + c as f64 * 0.02
    })
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn main() {
    let session = Session::a100();
    let registry = ModelRegistry::new();

    // Tenant 1: exact fp32 serving for the latency-tolerant consumer.
    registry.register(
        "analytics",
        session
            .kmeans(KMeansConfig::new(6).with_seed(1))
            .fit_model(&blobs(3072, 6, 0))
            .expect("fit analytics"),
    );
    // Tenant 2: int8 resident serving (labels still bit-exact — the
    // epilogue falls back to exact rows whenever quantization could flip
    // an argmin).
    registry.register(
        "edge",
        session
            .kmeans(KMeansConfig::new(4).with_seed(2))
            .fit_model(&blobs(3072, 4, 1))
            .expect("fit edge")
            .with_predict_policy(PredictPolicy::Int8),
    );

    // A 200 µs batching window, so concurrent 8-row predicts share
    // launches. Without one, every request runs on its caller's thread.
    let server = Server::new(
        session,
        registry,
        ServerConfig {
            max_batch_rows: 512,
            max_delay_us: 200,
            ..ServerConfig::default()
        },
    );

    println!(
        "multi-tenant serving: {CLIENTS} clients x {REQUESTS_PER_CLIENT} requests of {ROWS} rows"
    );
    println!("tenants: analytics (exact fp32), edge (int8 resident)");
    println!();

    // Concurrent client storm + one maintenance refit of the edge tenant.
    let latencies: Vec<(String, Vec<f64>)> = std::thread::scope(|s| {
        let server = &server;
        let maintenance = s.spawn(move || {
            server.refit("edge", &blobs(3072, 4, 99)).expect("refit");
        });
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let tenant = if c % 2 == 0 { "analytics" } else { "edge" };
                    let k = if c % 2 == 0 { 6 } else { 4 };
                    let mut lat = Vec::with_capacity(REQUESTS_PER_CLIENT);
                    for i in 0..REQUESTS_PER_CLIENT {
                        let q = blobs(ROWS, k, c * 1000 + i + 2);
                        let t = Instant::now();
                        let resp = server.predict(tenant, &q).expect("serve");
                        lat.push(t.elapsed().as_secs_f64() * 1e6);
                        assert_eq!(resp.labels.len(), ROWS);
                        assert!(resp.labels.iter().all(|&l| (l as usize) < k));
                    }
                    (tenant.to_string(), lat)
                })
            })
            .collect();
        let out = handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect();
        maintenance.join().expect("maintenance");
        out
    });

    println!(
        "{:<10} {:>9} {:>10} {:>10} {:>10}",
        "tenant", "requests", "p50 us", "p99 us", "rows/s"
    );
    for tenant in ["analytics", "edge"] {
        let mut lat: Vec<f64> = latencies
            .iter()
            .filter(|(t, _)| t == tenant)
            .flat_map(|(_, l)| l.iter().copied())
            .collect();
        lat.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let total_s: f64 = lat.iter().sum::<f64>() / 1e6;
        println!(
            "{:<10} {:>9} {:>10.1} {:>10.1} {:>10.0}",
            tenant,
            lat.len(),
            percentile(&lat, 0.50),
            percentile(&lat, 0.99),
            (lat.len() * ROWS) as f64 / total_s
        );
    }

    let stats = server.stats();
    println!();
    println!("predict requests    : {}", stats.predict_requests);
    println!("dispatch groups     : {}", stats.dispatch_groups);
    println!("coalesced requests  : {}", stats.coalesced_requests);
    println!("refits admitted     : {}", stats.refits);

    // The swapped-in edge model serves exactly like a direct call on it.
    let swapped = server.registry().get("edge").expect("still registered");
    assert_eq!(
        swapped.predict_policy(),
        PredictPolicy::Int8,
        "policy survives refit"
    );
    let probe = blobs(64, 4, 123456);
    assert_eq!(
        server.predict("edge", &probe).expect("serve").labels,
        swapped.predict(&probe).expect("direct"),
        "served labels are bit-identical to the unbatched path"
    );
    assert_eq!(
        stats.predict_requests as usize,
        CLIENTS * REQUESTS_PER_CLIENT
    );
    assert!(
        stats.dispatch_groups < stats.predict_requests,
        "concurrent requests must coalesce: {stats:?}"
    );
}
