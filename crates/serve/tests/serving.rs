//! Cross-layer serving tests: micro-batched responses must be bit-identical
//! to the unbatched path under every predict policy, and concurrent
//! fits/predicts over one shared executor must produce exactly the state
//! and counter totals of serial-pinned twin runs (no cross-talk).

use gpu_sim::exec::Executor;
use gpu_sim::Matrix;
use kmeans::{FtConfig, KMeansConfig, KMeansError, PredictPolicy, Session, Variant};
use serve::{ModelRegistry, ServeError, Server, ServerConfig};
use std::sync::Arc;

fn blobs(m: usize, dim: usize, k: usize, salt: usize) -> Matrix<f64> {
    Matrix::from_fn(m, dim, |r, c| {
        ((r % k) * 11) as f64
            + (((r * 31 + c * 7 + salt) % 100) as f64 / 100.0 - 0.5) * 0.7
            + c as f64 * 0.03
    })
}

fn wide_window() -> ServerConfig {
    ServerConfig {
        max_batch_rows: 4096,
        max_delay_us: 50_000,
        validate_batched: true,
    }
}

#[test]
fn batched_labels_bit_identical_for_every_policy() {
    for policy in [
        PredictPolicy::Exact,
        PredictPolicy::Fp16,
        PredictPolicy::Int8,
    ] {
        let session = Session::a100();
        let registry = ModelRegistry::new();
        let model = registry.register(
            "svc",
            session
                .kmeans(KMeansConfig::new(4).with_seed(3))
                .fit_model(&blobs(256, 8, 4, 0))
                .expect("fit")
                .with_predict_policy(policy),
        );
        // validate_batched re-runs every coalesced member unbatched inside
        // the dispatcher and fails the request on any bit difference.
        let server = Server::new(session, registry, wide_window());
        std::thread::scope(|s| {
            for t in 0..12usize {
                let (server, model) = (&server, &model);
                s.spawn(move || {
                    // varying row counts exercise the scatter offsets
                    let q = blobs(13 + t % 5, 8, 4, t * 17 + 1);
                    let want = model.predict(&q).expect("unbatched reference");
                    let resp = server.predict("svc", &q).expect("served");
                    assert_eq!(resp.labels, want, "{policy:?}, client {t}");
                });
            }
        });
        let stats = server.stats();
        assert_eq!(stats.predict_requests, 12, "{policy:?}");
        assert!(
            stats.dispatch_groups < 12,
            "{policy:?}: a 50ms window must coalesce concurrent clients: {stats:?}"
        );
        assert!(stats.coalesced_requests > 0, "{policy:?}");
    }
}

#[test]
fn non_finite_queries_are_typed_errors_and_spare_their_batch() {
    for policy in [PredictPolicy::Exact, PredictPolicy::Int8] {
        let session = Session::a100();
        let registry = ModelRegistry::new();
        let model = registry.register(
            "svc",
            session
                .kmeans(KMeansConfig::new(4).with_seed(3))
                .fit_model(&blobs(256, 8, 4, 0))
                .expect("fit")
                .with_predict_policy(policy),
        );
        let server = Server::new(session, registry, wide_window());
        std::thread::scope(|s| {
            for (t, bad) in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
                .into_iter()
                .enumerate()
            {
                let (server, model) = (&server, &model);
                s.spawn(move || {
                    let mut q = blobs(5, 8, 4, t);
                    q.set(2, 3, bad);
                    let want = KMeansError::NonFinite { row: 2, col: 3 };
                    assert_eq!(model.predict(&q), Err(want.clone()), "{policy:?}");
                    assert_eq!(model.score(&q), Err(want.clone()), "{policy:?}");
                    match server.predict("svc", &q) {
                        Err(ServeError::KMeans(e)) => assert_eq!(e, want, "{policy:?}"),
                        other => panic!("{policy:?}: {bad} query served: {other:?}"),
                    }
                });
            }
            for t in 0..3usize {
                let (server, model) = (&server, &model);
                s.spawn(move || {
                    let q = blobs(7, 8, 4, 40 + t);
                    let want = model.predict(&q).expect("unbatched reference");
                    let resp = server.predict("svc", &q).expect("finite neighbour served");
                    assert_eq!(resp.labels, want, "{policy:?}, client {t}");
                });
            }
        });
    }
}

#[test]
fn coalescing_collapses_kernel_launches() {
    let session = Session::a100();
    let registry = ModelRegistry::new();
    let model = registry.register(
        "svc",
        session
            .kmeans(KMeansConfig::new(4).with_seed(1))
            .fit_model(&blobs(256, 8, 4, 0))
            .expect("fit")
            .with_predict_policy(PredictPolicy::Int8),
    );
    model.quantized_table(kmeans::quant::QuantKind::Int8); // prebuild
    let server = Server::new(
        session,
        registry,
        ServerConfig {
            validate_batched: false, // validation would re-launch per member
            ..wide_window()
        },
    );
    let before = model.predict_counters();
    std::thread::scope(|s| {
        for t in 0..16usize {
            let server = &server;
            s.spawn(move || {
                server
                    .predict("svc", &blobs(16, 8, 4, t + 1))
                    .expect("served");
            });
        }
    });
    let delta = model.predict_counters().since(&before);
    let stats = server.stats();
    assert_eq!(stats.predict_requests, 16);
    assert_eq!(
        delta.kernel_launches, stats.dispatch_groups,
        "the quantized path is one fused launch per dispatch group"
    );
    assert!(
        delta.kernel_launches < 16,
        "16 concurrent small requests must share launches, got {}",
        delta.kernel_launches
    );
}

#[test]
fn concurrent_fits_match_serial_pinned_twins_bitwise() {
    // One pool executor shared by every concurrent fit; the twins run the
    // identical requests serially over an identical fresh pool. Per-request
    // scoped counters mean the concurrent results must be *bit-for-bit* the
    // serially-issued ones — any difference would be cross-talk between the
    // overlapping requests.
    let shared = Session::a100().with_executor(Executor::with_workers(4));
    let twin_pool = Session::a100().with_executor(Executor::with_workers(4));
    let serial = Session::a100().with_executor(Executor::serial());
    let cfgs: Vec<KMeansConfig> = vec![
        KMeansConfig::new(3).with_seed(1),
        KMeansConfig::new(4)
            .with_seed(2)
            .with_variant(Variant::Naive),
        KMeansConfig::new(3)
            .with_seed(3)
            .with_variant(Variant::FusedV2)
            .with_ft(FtConfig::protected()),
        KMeansConfig::new(5)
            .with_seed(4)
            .with_variant(Variant::Hamerly),
    ];
    let datas: Vec<Matrix<f64>> = (0..cfgs.len())
        .map(|i| blobs(192 + 32 * i, 6, 3 + i % 3, i * 7))
        .collect();

    let concurrent: Vec<kmeans::FittedModel<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = cfgs
            .iter()
            .zip(&datas)
            .map(|(cfg, data)| {
                let shared = &shared;
                s.spawn(move || shared.kmeans(cfg.clone()).fit_model(data).expect("fit"))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });

    let bits = |m: &Matrix<f64>| -> Vec<u64> { m.as_slice().iter().map(|v| v.to_bits()).collect() };
    for ((cfg, data), got) in cfgs.iter().zip(&datas).zip(&concurrent) {
        let want = twin_pool
            .kmeans(cfg.clone())
            .fit_model(data)
            .expect("twin fit");
        assert_eq!(got.labels, want.labels, "{cfg:?}");
        assert_eq!(bits(&got.centroids), bits(&want.centroids), "{cfg:?}");
        assert_eq!(
            got.counters, want.counters,
            "per-request counter totals must not cross-talk: {cfg:?}"
        );
        assert_eq!(got.ft_stats.handled(), want.ft_stats.handled(), "{cfg:?}");
        // Cross-executor determinism on top: every variant's serial-pinned
        // twin matches bit-for-bit.
        let pinned = serial
            .kmeans(cfg.clone())
            .fit_model(data)
            .expect("pinned twin");
        assert_eq!(bits(&got.centroids), bits(&pinned.centroids), "{cfg:?}");
        assert_eq!(got.counters, pinned.counters, "{cfg:?}");
    }
}

#[test]
fn concurrent_predict_counter_totals_match_serial_twins() {
    // Same shared-pool vs serial-pinned twin structure, predict side: the
    // model's serving counters after N concurrent predicts must equal the
    // twin's after the same N predicts issued serially.
    let shared = Session::a100().with_executor(Executor::with_workers(4));
    let serial = Session::a100().with_executor(Executor::serial());
    let train = blobs(256, 6, 4, 0);
    let cfg = KMeansConfig::new(4).with_seed(9);
    let pooled_model = shared
        .kmeans(cfg.clone())
        .fit_model(&train)
        .expect("fit")
        .with_predict_policy(PredictPolicy::Int8);
    let serial_model = serial
        .kmeans(cfg)
        .fit_model(&train)
        .expect("twin fit")
        .with_predict_policy(PredictPolicy::Int8);
    pooled_model.quantized_table(kmeans::quant::QuantKind::Int8);
    serial_model.quantized_table(kmeans::quant::QuantKind::Int8);

    let queries: Vec<Matrix<f64>> = (0..6).map(|t| blobs(64, 6, 4, t * 13 + 5)).collect();
    let concurrent_labels: Vec<Vec<u32>> = std::thread::scope(|s| {
        let handles: Vec<_> = queries
            .iter()
            .map(|q| {
                let m = &pooled_model;
                s.spawn(move || m.predict(q).expect("predict"))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });
    for (q, got) in queries.iter().zip(&concurrent_labels) {
        assert_eq!(got, &serial_model.predict(q).expect("twin predict"));
    }
    assert_eq!(
        pooled_model.predict_counters(),
        serial_model.predict_counters(),
        "serving counter totals must be schedule-independent"
    );
}

#[test]
fn hot_swaps_race_predict_traffic_safely() {
    // Two tenants at different resident precisions; predict clients hammer
    // both while a maintenance thread refits one and streams batches into
    // the other through the server. Every response must be well-formed and
    // the final states must serve exactly like their direct twins.
    let session = Session::a100();
    let registry = ModelRegistry::new();
    registry.register(
        "low-lat",
        session
            .kmeans(KMeansConfig::new(3).with_seed(1))
            .fit_model(&blobs(200, 5, 3, 0))
            .expect("fit")
            .with_predict_policy(PredictPolicy::Int8),
    );
    registry.register(
        "exact",
        session
            .kmeans(
                KMeansConfig::new(4)
                    .with_seed(2)
                    .with_reassignment_ratio(0.01),
            )
            .fit_model(&blobs(200, 5, 4, 1))
            .expect("fit")
            .with_predict_policy(PredictPolicy::Exact),
    );
    let server = Server::new(
        session,
        registry,
        ServerConfig {
            max_batch_rows: 512,
            max_delay_us: 300,
            validate_batched: true,
        },
    );
    std::thread::scope(|s| {
        for t in 0..4usize {
            let server = &server;
            s.spawn(move || {
                for i in 0..8usize {
                    let (name, k) = if (t + i) % 2 == 0 {
                        ("low-lat", 3)
                    } else {
                        ("exact", 4)
                    };
                    let resp = server
                        .predict(name, &blobs(16, 5, k, t * 100 + i))
                        .expect("served across swaps");
                    assert_eq!(resp.labels.len(), 16);
                    assert!(resp.labels.iter().all(|&l| (l as usize) < k));
                }
            });
        }
        let server = &server;
        s.spawn(move || {
            for i in 0..3usize {
                server
                    .refit("low-lat", &blobs(200, 5, 3, 50 + i))
                    .expect("refit");
                server
                    .partial_fit("exact", &blobs(64, 5, 4, 80 + i))
                    .expect("stream");
            }
        });
    });
    let stats = server.stats();
    assert_eq!(stats.predict_requests, 32);
    assert_eq!(stats.refits, 6);
    // swapped-in models still carry their tenant policies and serve
    // bit-identically to a direct call on the resolved model
    let low = server.registry().get("low-lat").expect("still registered");
    assert_eq!(low.predict_policy(), PredictPolicy::Int8);
    let streamed = server.registry().get("exact").expect("still registered");
    assert_eq!(streamed.predict_policy(), PredictPolicy::Exact);
    assert_eq!(streamed.batches_seen(), 3);
    let probe = blobs(32, 5, 3, 999);
    assert_eq!(
        server.predict("low-lat", &probe).expect("serve").labels,
        low.predict(&probe).expect("direct")
    );
    // in-flight Arcs keep displaced models alive; nothing dangles
    drop(server);
    assert!(Arc::strong_count(&low) >= 1);
}

#[test]
fn server_over_shared_pinned_executor_stays_consistent() {
    // The server, its fits, and direct estimator use all share ONE pool
    // executor; a serial-pinned twin server must produce bit-identical
    // responses and fit counter aggregates.
    let run = |exec: Executor| {
        let session = Session::a100().with_executor(exec);
        let server: Server<f64> =
            Server::new(session, ModelRegistry::new(), ServerConfig::default());
        server
            .fit(
                "svc",
                KMeansConfig::new(3).with_seed(4),
                PredictPolicy::Fp16,
                &blobs(180, 6, 3, 2),
            )
            .expect("fit");
        server
            .partial_fit("svc", &blobs(90, 6, 3, 3))
            .expect("stream");
        let labels = server
            .predict("svc", &blobs(48, 6, 3, 9))
            .expect("serve")
            .labels;
        (labels, server.counters())
    };
    let (labels_pool, counters_pool) = run(Executor::with_workers(4));
    let (labels_serial, counters_serial) = run(Executor::serial());
    assert_eq!(labels_pool, labels_serial);
    assert_eq!(counters_pool, counters_serial);
}

#[test]
fn server_moves_across_threads_and_drops_without_hanging() {
    let (tx, rx) = std::sync::mpsc::channel::<Server<f64>>();
    let session = Session::a100();
    let registry = ModelRegistry::new();
    registry.register(
        "svc",
        session
            .kmeans(KMeansConfig::new(2).with_seed(1))
            .fit_model(&blobs(64, 4, 2, 0))
            .expect("fit"),
    );
    let server = Server::new(session, registry, ServerConfig::default());
    tx.send(server).unwrap();
    let server = rx.recv().unwrap();
    // Shutdown drains and joins the dispatcher; the test must simply finish.
    drop(server);
}
