//! The full-stack device-sanitizer sweep: every assignment variant, the
//! update/drift/revalidation kernels, the quantized predict epilogues, the
//! mini-batch path and a multi-client serve storm, all executed under a
//! [`gpu_sim::sanitizer`] checker.
//!
//! This is the dynamic-analysis companion to the byte-exactness gates: the
//! campaign baseline proves the kernels produce the right answer under
//! today's schedule, the sweep proves no kernel *depends* on the schedule
//! (racecheck), reads memory it never defined (initcheck), or indexes
//! outside an allocation (oobcheck). CI runs it via the `sanitize_sweep`
//! bin at a reduced shape and fails on any finding.
//!
//! The checker is installed process-globally for the duration of the sweep
//! (not thread-locally) because the serve storm's client threads and the
//! server's batch formation must be checked too, and they do not inherit a
//! thread-local scope. Run the sweep in a dedicated process (the bin) or as
//! the only concurrently-running user of the global checker.

use gpu_sim::sanitizer::{self, Checker, SanitizeConfig, SanitizerReport};
use gpu_sim::Matrix;
use kmeans::{FtConfig, KMeansConfig, PredictPolicy, Session, Variant};
use serve::{ModelRegistry, Server, ServerConfig};
use std::sync::Arc;

use crate::fitbench::{blobs, DIM, K};

/// The variants the sweep fits, with the names findings are grouped under.
pub const SWEEP_VARIANTS: [(&str, Variant); 6] = [
    ("naive", Variant::Naive),
    ("gemm_v1", Variant::GemmV1),
    ("fused_v2", Variant::FusedV2),
    ("broadcast_v3", Variant::BroadcastV3),
    ("tensor_v4", Variant::Tensor(None)),
    ("hamerly", Variant::Hamerly),
];

/// Clients in the serve-storm phase.
const STORM_CLIENTS: usize = 4;
/// Requests per storm client.
const STORM_REQUESTS: usize = 3;
/// Rows per storm request.
const STORM_ROWS: usize = 16;

fn fit_config(variant: Variant) -> KMeansConfig {
    KMeansConfig {
        k: K,
        // Enough iterations to cross the Hamerly revalidation cadence
        // (revalidate_every defaults to 4), so the revalidation and repair
        // kernels run under the checker too.
        max_iter: 5,
        tol: 0.0,
        seed: 42,
        variant,
        ft: FtConfig {
            revalidate_every: 4,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// One sweep phase: name plus what it exercised (for the log).
#[derive(Debug, Clone)]
pub struct SweepPhase {
    /// Phase label (`fit:naive`, `predict:int8`, `serve:storm`, ...).
    pub name: String,
}

/// Run the whole sweep under a fresh checker running `cfg` and return its
/// report plus the phases executed. Installs the checker globally for the
/// duration (see module docs) and uninstalls it before returning.
pub fn run_sanitize_sweep(m: usize, cfg: SanitizeConfig) -> (SanitizerReport, Vec<SweepPhase>) {
    let checker = Arc::new(Checker::new(cfg));
    sanitizer::install_global(Arc::clone(&checker));
    let phases = run_phases(m);
    sanitizer::uninstall_global();
    (checker.report(), phases)
}

fn run_phases(m: usize) -> Vec<SweepPhase> {
    let mut phases = Vec::new();
    let data = blobs(m.max(2 * K));
    let session = Session::a100();

    // Phase 1: full fits, every assignment variant (assignment + update +
    // drift + revalidation kernels).
    for (name, variant) in SWEEP_VARIANTS {
        let km = session.kmeans(fit_config(variant));
        km.fit_model(&data).expect("sweep fit");
        phases.push(SweepPhase {
            name: format!("fit:{name}"),
        });
    }

    // Phase 2: mini-batch streaming (init-from-batch + learning-rate fold).
    let km = session.kmeans(fit_config(Variant::BroadcastV3));
    let half = data.rows() / 2;
    let first = Matrix::from_fn(half, DIM, |r, c| data.get(r, c));
    let second = Matrix::from_fn(data.rows() - half, DIM, |r, c| data.get(half + r, c));
    let model = km.partial_fit(None, &first).expect("sweep partial_fit 1");
    let model = km
        .partial_fit(Some(model), &second)
        .expect("sweep partial_fit 2");
    phases.push(SweepPhase {
        name: "fit:minibatch".to_string(),
    });

    // Phase 3: the serving epilogues — exact and both quantized predict
    // policies (quant table build + fused label-exact predict).
    let queries = Matrix::from_fn(64, DIM, |r, c| data.get(r % data.rows(), c));
    let mut model = model;
    for (label, policy) in [
        ("exact", PredictPolicy::Exact),
        ("fp16", PredictPolicy::Fp16),
        ("int8", PredictPolicy::Int8),
    ] {
        model.set_predict_policy(policy);
        model.predict(&queries).expect("sweep predict");
        phases.push(SweepPhase {
            name: format!("predict:{label}"),
        });
    }

    // Phase 4: a multi-client serve storm through the micro-batching
    // server — request validation, batch formation and the shared
    // resident model, all across threads.
    let registry = ModelRegistry::new();
    let storm_model = session
        .kmeans(fit_config(Variant::BroadcastV3))
        .fit_model(&data)
        .expect("storm fit");
    registry.register("svc", storm_model.with_predict_policy(PredictPolicy::Int8));
    // A batching window, so every request queues and batch formation
    // runs (without one, every request runs on its caller's thread).
    let server = Server::new(
        session,
        registry,
        ServerConfig {
            max_batch_rows: STORM_CLIENTS * STORM_ROWS,
            max_delay_us: 200,
            ..ServerConfig::default()
        },
    );
    std::thread::scope(|s| {
        for c in 0..STORM_CLIENTS {
            let server = &server;
            let data = &data;
            s.spawn(move || {
                for i in 0..STORM_REQUESTS {
                    let q = Matrix::from_fn(STORM_ROWS, DIM, |r, col| {
                        data.get((c * STORM_REQUESTS + i + r) % data.rows(), col)
                    });
                    server.predict("svc", &q).expect("storm predict");
                }
            });
        }
    });
    phases.push(SweepPhase {
        name: "serve:storm".to_string(),
    });
    phases
}
