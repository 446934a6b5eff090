//! The micro-batching request front-end.
//!
//! By default ([`ServerConfig::max_delay_us`] = 0) every predict runs at
//! once on its caller's thread: no queue trip, no hand-off, no timer.
//! Micro-batching is opt-in. With a window (`max_delay_us` > 0) one
//! background dispatcher thread owns the predict queue. Callers block on a
//! per-request response slot; the dispatcher groups queued requests by
//! model (same `Arc`, hence same resident buffers and
//! [`kmeans::PredictPolicy`]), and a group closes when its rows reach
//! [`ServerConfig::max_batch_rows`] or its oldest member has waited the
//! window. The dispatcher concatenates the group's query rows into one matrix, runs
//! **one** predict — one query upload, one fused assignment launch
//! through the model's [`kmeans::FittedModel::predict`] scratch — and
//! scatters the label vector back to the callers.
//!
//! Correctness of the scatter rests on a property every assignment kernel
//! in this workspace already guarantees (and `tests/` re-asserts through
//! the server): labels are a per-sample function of the sample's bits —
//! bit-for-bit the naive fp32 argmin regardless of batch shape or row
//! position — so coalescing N requests is response-invisible. The
//! [`ServerConfig::validate_batched`] knob makes the server re-run every
//! coalesced member unbatched and fail the request on any divergence.
//!
//! Fits ([`Server::fit`], [`Server::refit`], [`Server::partial_fit`]) run
//! on the calling thread over the same shared executor as everything else.
//! Each fit charges a fresh per-request `Counters` internally (scoped
//! sinks — concurrent admissions never cross-talk) and the server folds
//! the finished snapshot into one aggregate via
//! [`gpu_sim::Counters::add_snapshot`].

use crate::error::ServeError;
use crate::metrics::ServeMetrics;
use crate::registry::ModelRegistry;
use gpu_sim::{CounterSnapshot, Counters, Matrix, Scalar};
use kmeans::{FittedModel, KMeansConfig, KMeansError, PredictPolicy, Session};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Micro-batching knobs for [`Server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// With a batching window, a batch closes as soon as its total rows
    /// reach this many; a request at least this large (or any request when
    /// this is ≤ 1) bypasses the queue and runs on the caller's thread —
    /// micro-batching only helps when per-launch overhead dominates, i.e.
    /// for small requests.
    pub max_batch_rows: usize,
    /// Opt-in batching window: when nonzero, every small request queues,
    /// and a batch stays open until its rows reach the cap or its oldest
    /// member has waited this many microseconds, trading that latency for
    /// the chance to share a launch. 0, the default, runs every request on
    /// its caller's thread at once; no dispatcher thread is started.
    pub max_delay_us: u64,
    /// Re-run every coalesced member unbatched and fail the request with
    /// [`ServeError::BatchMismatch`] if the labels differ in any bit.
    /// Diagnostic mode: it exists to *assert* the bit-identity contract,
    /// and costs the whole batching win.
    pub validate_batched: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_batch_rows: 1024,
            max_delay_us: 0,
            validate_batched: false,
        }
    }
}

impl ServerConfig {
    /// A configuration with micro-batching disabled: every request runs
    /// on its caller's thread, one kernel launch per call. The comparison
    /// baseline for the batching win.
    pub fn unbatched() -> Self {
        ServerConfig {
            max_batch_rows: 1,
            ..Self::default()
        }
    }

    /// Whether small requests queue for the dispatcher: a batching window
    /// is set and a batch can hold more than one row.
    fn batching(&self) -> bool {
        self.max_delay_us > 0 && self.max_batch_rows > 1
    }
}

/// A served predict response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredictResponse {
    /// Nearest-centroid label per query row — bit-identical to calling
    /// [`FittedModel::predict`] directly, however the request was batched.
    pub labels: Vec<u32>,
    /// How many requests shared the kernel launch that served this one
    /// (1 = the request ran alone).
    pub coalesced_with: usize,
}

/// Cumulative serving traffic totals (see [`Server::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Predict requests served (batched or not).
    pub predict_requests: u64,
    /// Query rows served across all predict requests.
    pub predict_rows: u64,
    /// Dispatch groups executed — each is one predict call on a model, so
    /// `predict_requests / dispatch_groups` is the achieved coalescing
    /// factor.
    pub dispatch_groups: u64,
    /// Requests that shared their launch with at least one other.
    pub coalesced_requests: u64,
    /// Cold fits admitted via [`Server::fit`].
    pub fits: u64,
    /// Warm refits and streaming updates admitted via [`Server::refit`] /
    /// [`Server::partial_fit`].
    pub refits: u64,
    /// Requests that went through the micro-batching queue (direct/bypass
    /// requests never wait and are not counted here).
    pub queued_requests: u64,
    /// Summed enqueue-to-dispatch wait of queued requests, microseconds;
    /// `queue_delay_us_total / queued_requests` is the mean queue delay.
    pub queue_delay_us_total: u64,
    /// Largest single enqueue-to-dispatch wait observed, microseconds —
    /// bounded by the running group's time plus the
    /// [`ServerConfig::max_delay_us`] window, plus scheduling noise.
    pub queue_delay_us_max: u64,
}

struct ResponseSlot {
    state: Mutex<Option<Result<PredictResponse, ServeError>>>,
    ready: Condvar,
}

impl ResponseSlot {
    fn new() -> Self {
        ResponseSlot {
            state: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn fill(&self, r: Result<PredictResponse, ServeError>) {
        // A panicking filler poisons the lock but leaves the slot usable;
        // recover the guard rather than cascading the panic to the client.
        *self.state.lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
        self.ready.notify_all();
    }

    fn wait(&self) -> Result<PredictResponse, ServeError> {
        let mut g = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(r) = g.take() {
                return r;
            }
            g = self.ready.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }
}

struct Pending<T: Scalar> {
    name: String,
    model: Arc<FittedModel<T>>,
    queries: Matrix<T>,
    slot: Arc<ResponseSlot>,
    /// When the request entered the queue — the enqueue side of the
    /// queue-delay accounting closed out at dispatch.
    enqueued: Instant,
}

struct QueueState<T: Scalar> {
    pending: Vec<Pending<T>>,
    shutdown: bool,
}

struct ServerInner<T: Scalar> {
    registry: ModelRegistry<T>,
    config: ServerConfig,
    queue: Mutex<QueueState<T>>,
    arrived: Condvar,
    /// Server-wide fit counter aggregate (scoped per-request counters are
    /// folded in; see the module docs).
    fit_counters: Counters,
    stats: parking_lot::Mutex<ServerStats>,
    /// Incremented once per executed dispatch group; cheap enough for the
    /// hot path and lets `predict` callers meter coalescing without locks.
    groups: AtomicU64,
    /// Prometheus-style instruments (see [`Server::metrics_text`]).
    metrics: ServeMetrics,
}

/// A multi-tenant serving front-end over a [`ModelRegistry`].
///
/// ```
/// use gpu_sim::Matrix;
/// use kmeans::{KMeansConfig, PredictPolicy, Session};
/// use serve::{ModelRegistry, Server, ServerConfig};
///
/// let session = Session::a100();
/// let data = Matrix::<f64>::from_fn(60, 4, |r, c| (r % 3) as f64 * 9.0 + c as f64 * 0.1);
/// let registry = ModelRegistry::new();
/// registry.register(
///     "tenant-a",
///     session
///         .kmeans(KMeansConfig::new(3).with_seed(1))
///         .fit_model(&data)
///         .unwrap()
///         .with_predict_policy(PredictPolicy::Int8),
/// );
/// let server = Server::new(session, registry, ServerConfig::default());
/// let resp = server.predict("tenant-a", &data).unwrap();
/// assert_eq!(resp.labels.len(), 60);
/// // admission of new tenants goes through the server too
/// server
///     .fit("tenant-b", KMeansConfig::new(2).with_seed(7), PredictPolicy::Fp16, &data)
///     .unwrap();
/// assert_eq!(server.registry().names(), ["tenant-a", "tenant-b"]);
/// ```
///
/// Dropping a batching server shuts the dispatcher down after draining
/// queued requests; queued [`Server::predict`] calls racing the drop get
/// [`ServeError::Shutdown`].
pub struct Server<T: Scalar> {
    session: Session,
    inner: Arc<ServerInner<T>>,
    dispatcher: Option<JoinHandle<()>>,
}

impl<T: Scalar> Server<T> {
    /// Start a server over `registry`. `session` hosts models admitted via
    /// [`Server::fit`] (predicts always run on the session each model was
    /// fitted under). Predicts run under `session`'s scopes
    /// ([`Session::run`]), on the caller's thread or the dispatcher's, so
    /// they emit into the session's trace sink even when their model's own
    /// session has none. The dispatcher thread is started only with a
    /// batching window ([`ServerConfig::max_delay_us`] > 0).
    pub fn new(session: Session, registry: ModelRegistry<T>, config: ServerConfig) -> Self {
        let inner = Arc::new(ServerInner {
            registry,
            config,
            queue: Mutex::new(QueueState {
                pending: Vec::new(),
                shutdown: false,
            }),
            arrived: Condvar::new(),
            fit_counters: Counters::new(),
            stats: parking_lot::Mutex::new(ServerStats::default()),
            groups: AtomicU64::new(0),
            metrics: ServeMetrics::new(),
        });
        let dispatcher = config.batching().then(|| {
            let inner = Arc::clone(&inner);
            let scopes = session.clone();
            std::thread::Builder::new()
                .name("serve-dispatch".into())
                .spawn(move || scopes.run(|| dispatch_loop(inner)))
                // Construction-time, not a request path: a host that cannot
                // spawn a thread cannot run a server at all.
                .expect("spawn dispatcher") // ftk-lint: allow(serve-unwrap)
        });
        Server {
            session,
            inner,
            dispatcher,
        }
    }

    /// The registry this server fronts.
    pub fn registry(&self) -> &ModelRegistry<T> {
        &self.inner.registry
    }

    /// The batching configuration in effect.
    pub fn config(&self) -> ServerConfig {
        self.inner.config
    }

    /// Cumulative traffic totals.
    pub fn stats(&self) -> ServerStats {
        let mut s = *self.inner.stats.lock();
        s.dispatch_groups = self.inner.groups.load(Ordering::Relaxed);
        s
    }

    /// Aggregate hardware-event counters of every fit admitted through
    /// this server. Each fit runs against its own scoped counters and is
    /// folded in on completion, so the total is exact under any request
    /// concurrency. (Predict-path counters stay per model:
    /// [`FittedModel::predict_counters`].)
    pub fn counters(&self) -> CounterSnapshot {
        self.inner.fit_counters.snapshot()
    }

    /// Label `queries` against the model registered under `name`.
    ///
    /// Without a batching window every request runs directly on the
    /// calling thread, as do requests of [`ServerConfig::max_batch_rows`]
    /// rows or more. With a window, smaller requests are queued for the
    /// dispatcher and may share their kernel launch with other callers
    /// ([`PredictResponse::coalesced_with`]). Blocks until the response is
    /// ready.
    pub fn predict(&self, name: &str, queries: &Matrix<T>) -> Result<PredictResponse, ServeError> {
        let start = Instant::now();
        let model = self
            .inner
            .registry
            .get(name)
            .ok_or_else(|| ServeError::UnknownModel(name.to_string()))?;
        let direct =
            !self.inner.config.batching() || queries.rows() >= self.inner.config.max_batch_rows;
        // Fail fast (and cheap) before queueing: a bad shape or a
        // non-finite query must neither cost a queue trip nor fail the
        // requests coalesced with it. A direct request gets the same
        // verdict from `FittedModel::predict`'s own check.
        if !direct || queries.rows() == 0 {
            model.validate_queries(queries)?;
        }
        if queries.rows() == 0 {
            return Ok(PredictResponse {
                labels: Vec::new(),
                coalesced_with: 1,
            });
        }
        let out = if direct {
            self.session
                .run(|| self.inner.serve_direct(name, &model, queries))
        } else {
            let slot = Arc::new(ResponseSlot::new());
            {
                let mut q = self.inner.queue.lock().unwrap_or_else(|e| e.into_inner());
                if q.shutdown {
                    return Err(ServeError::Shutdown);
                }
                q.pending.push(Pending {
                    name: name.to_string(),
                    model,
                    queries: queries.clone(),
                    slot: Arc::clone(&slot),
                    enqueued: Instant::now(),
                });
                self.inner.arrived.notify_all();
            }
            slot.wait()
        };
        if out.is_ok() {
            self.inner.metrics.request(
                name,
                queries.rows() as u64,
                start.elapsed().as_micros() as u64,
            );
        }
        out
    }

    /// Prometheus text-exposition snapshot of the server's serving
    /// metrics: per-tenant request/row/fallback counters, per-tenant
    /// predict-latency histograms (derive p50/p99 from the bucket counts),
    /// the queue-delay histogram, and batch-occupancy gauges. Serve it
    /// from a `/metrics` endpoint or dump it after a bench run.
    ///
    /// ```
    /// use gpu_sim::Matrix;
    /// use kmeans::{KMeansConfig, Session};
    /// use serve::{ModelRegistry, Server, ServerConfig};
    ///
    /// let session = Session::a100();
    /// let data = Matrix::<f64>::from_fn(60, 4, |r, c| (r % 3) as f64 * 9.0 + c as f64 * 0.1);
    /// let registry = ModelRegistry::new();
    /// registry.register(
    ///     "svc",
    ///     session.kmeans(KMeansConfig::new(3).with_seed(1)).fit_model(&data).unwrap(),
    /// );
    /// let server = Server::new(session, registry, ServerConfig::default());
    /// server.predict("svc", &data).unwrap();
    /// let text = server.metrics_text();
    /// assert!(text.contains(r#"ftk_serve_requests_total{model="svc"} 1"#));
    /// assert!(text.contains("# TYPE ftk_serve_predict_latency_us histogram"));
    /// ```
    pub fn metrics_text(&self) -> String {
        self.inner.metrics.render()
    }

    /// Fit a new model on the server's session and register it under
    /// `name` (replacing any previous holder atomically).
    pub fn fit(
        &self,
        name: &str,
        config: KMeansConfig,
        policy: PredictPolicy,
        samples: &Matrix<T>,
    ) -> Result<Arc<FittedModel<T>>, ServeError> {
        let model = self
            .session
            .kmeans(config)
            .fit_model(samples)?
            .with_predict_policy(policy);
        self.inner.fit_counters.add_snapshot(&model.counters);
        self.inner.stats.lock().fits += 1;
        Ok(self.inner.registry.register(name, model))
    }

    /// Warm-started full refit of the model registered under `name`
    /// (same configuration and policy, current centroids as the starting
    /// point — `KMeans::fit_from`). In-flight predicts finish against the
    /// old model; the swap is atomic.
    pub fn refit(
        &self,
        name: &str,
        samples: &Matrix<T>,
    ) -> Result<Arc<FittedModel<T>>, ServeError> {
        let old = self
            .inner
            .registry
            .get(name)
            .ok_or_else(|| ServeError::UnknownModel(name.to_string()))?;
        let fresh = old
            .session()
            .kmeans(old.config().clone())
            .fit_from(&old, samples)?
            .with_predict_policy(old.predict_policy());
        self.inner.fit_counters.add_snapshot(&fresh.counters);
        self.inner.stats.lock().refits += 1;
        Ok(self.inner.registry.register(name, fresh))
    }

    /// Streaming update of the model registered under `name`: one
    /// `partial_fit` batch folded into a *clone* of the serving model
    /// (device buffers Arc-aliased, so the clone costs no uploads),
    /// registered as the replacement when it completes.
    pub fn partial_fit(
        &self,
        name: &str,
        batch: &Matrix<T>,
    ) -> Result<Arc<FittedModel<T>>, ServeError> {
        let old = self
            .inner
            .registry
            .get(name)
            .ok_or_else(|| ServeError::UnknownModel(name.to_string()))?;
        let before = old.counters;
        let policy = old.predict_policy();
        let cont = old
            .session()
            .kmeans(old.config().clone())
            .partial_fit(Some((*old).clone()), batch)?
            .with_predict_policy(policy);
        // `FitResult::counters` accumulates over the whole stream; only
        // this batch's delta is new work admitted through the server.
        self.inner
            .fit_counters
            .add_snapshot(&cont.counters.since(&before));
        self.inner.stats.lock().refits += 1;
        Ok(self.inner.registry.register(name, cont))
    }
}

impl<T: Scalar> Drop for Server<T> {
    fn drop(&mut self) {
        {
            let mut q = self.inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.shutdown = true;
            self.inner.arrived.notify_all();
        }
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
    }
}

impl<T: Scalar> ServerInner<T> {
    /// Unbatched path: one request, one predict, caller's thread.
    fn serve_direct(
        &self,
        name: &str,
        model: &FittedModel<T>,
        queries: &Matrix<T>,
    ) -> Result<PredictResponse, ServeError> {
        let fallbacks_before = model.predict_counters().quant_fallbacks;
        let labels = model.predict(queries)?;
        self.metrics.fallbacks(
            name,
            model
                .predict_counters()
                .quant_fallbacks
                .saturating_sub(fallbacks_before),
        );
        self.metrics.group(1, queries.rows());
        self.groups.fetch_add(1, Ordering::Relaxed);
        {
            let mut s = self.stats.lock();
            s.predict_requests += 1;
            s.predict_rows += queries.rows() as u64;
        }
        Ok(PredictResponse {
            labels,
            coalesced_with: 1,
        })
    }

    /// Run one closed dispatch group: concatenate, predict once, scatter.
    fn execute_group(&self, batch: Vec<Pending<T>>) {
        let coalesced = batch.len();
        let total_rows: usize = batch.iter().map(|p| p.queries.rows()).sum();
        // Close out the queue-delay accounting: every member waited from
        // its enqueue until this dispatch moment.
        let dispatched = Instant::now();
        {
            let mut s = self.stats.lock();
            for p in &batch {
                let delay = dispatched.duration_since(p.enqueued).as_micros() as u64;
                self.metrics.queue_delay(delay);
                s.queued_requests += 1;
                s.queue_delay_us_total += delay;
                s.queue_delay_us_max = s.queue_delay_us_max.max(delay);
            }
        }
        let fallbacks_before = batch[0].model.predict_counters().quant_fallbacks;
        let outcome: Result<Vec<Vec<u32>>, ServeError> = (|| {
            if coalesced == 1 {
                return Ok(vec![batch[0].model.predict(&batch[0].queries)?]);
            }
            let model = &batch[0].model;
            let dim = model.dim();
            let mut flat = Vec::with_capacity(total_rows * dim);
            for p in &batch {
                flat.extend_from_slice(p.queries.as_slice());
            }
            // Rows×dim are consistent by construction, but a mismatch must
            // surface as a per-request error, not a dispatcher-killing panic.
            let fused = Matrix::from_vec(total_rows, dim, flat).map_err(KMeansError::from)?;
            let labels = model.predict(&fused)?;
            let mut per_request = Vec::with_capacity(coalesced);
            let mut offset = 0usize;
            for p in &batch {
                per_request.push(labels[offset..offset + p.queries.rows()].to_vec());
                offset += p.queries.rows();
            }
            Ok(per_request)
        })();
        self.metrics.fallbacks(
            &batch[0].name,
            batch[0]
                .model
                .predict_counters()
                .quant_fallbacks
                .saturating_sub(fallbacks_before),
        );
        self.metrics.group(coalesced, total_rows);
        self.groups.fetch_add(1, Ordering::Relaxed);
        {
            let mut s = self.stats.lock();
            s.predict_requests += coalesced as u64;
            s.predict_rows += total_rows as u64;
            if coalesced > 1 {
                s.coalesced_requests += coalesced as u64;
            }
        }
        match outcome {
            Ok(per_request) => {
                for (p, labels) in batch.into_iter().zip(per_request) {
                    let response = if self.config.validate_batched && coalesced > 1 {
                        match p.model.predict(&p.queries) {
                            Ok(ref want) if *want == labels => Ok(PredictResponse {
                                labels,
                                coalesced_with: coalesced,
                            }),
                            Ok(_) => Err(ServeError::BatchMismatch {
                                model: p.name.clone(),
                            }),
                            Err(e) => Err(e.into()),
                        }
                    } else {
                        Ok(PredictResponse {
                            labels,
                            coalesced_with: coalesced,
                        })
                    };
                    p.slot.fill(response);
                }
            }
            Err(e) => {
                for p in batch {
                    p.slot.fill(Err(e.clone()));
                }
            }
        }
    }
}

fn dispatch_loop<T: Scalar>(inner: Arc<ServerInner<T>>) {
    loop {
        let mut q = inner.queue.lock().unwrap_or_else(|e| e.into_inner());
        // Sleep until there is work; exit only once shut down AND drained,
        // so requests accepted before shutdown are always answered.
        while q.pending.is_empty() {
            if q.shutdown {
                return;
            }
            q = inner.arrived.wait(q).unwrap_or_else(|e| e.into_inner());
        }
        // Adopt the oldest request's model as this group's key; the group
        // stays open until the row budget fills or the window closes.
        let model = Arc::clone(&q.pending[0].model);
        let deadline = Instant::now() + Duration::from_micros(inner.config.max_delay_us);
        let mut batch: Vec<Pending<T>> = Vec::new();
        let mut rows = 0usize;
        loop {
            let mut i = 0;
            while i < q.pending.len() {
                if rows < inner.config.max_batch_rows && Arc::ptr_eq(&q.pending[i].model, &model) {
                    let p = q.pending.remove(i);
                    rows += p.queries.rows();
                    batch.push(p);
                } else {
                    i += 1;
                }
            }
            if rows >= inner.config.max_batch_rows || q.shutdown {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (g, _timeout) = inner
                .arrived
                .wait_timeout(q, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            q = g;
        }
        drop(q);
        inner.execute_group(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(m: usize, salt: usize) -> Matrix<f64> {
        Matrix::from_fn(m, 4, |r, c| {
            ((r + salt) % 3) as f64 * 10.0 + ((r * 7 + c * 3 + salt) % 5) as f64 * 0.05
        })
    }

    fn serving_pair() -> (Session, ModelRegistry<f64>) {
        let session = Session::a100();
        let registry = ModelRegistry::new();
        registry.register(
            "svc",
            session
                .kmeans(KMeansConfig::new(3).with_seed(1))
                .fit_model(&blobs(120, 0))
                .expect("fit")
                .with_predict_policy(PredictPolicy::Int8),
        );
        (session, registry)
    }

    #[test]
    fn poisoned_locks_recover_instead_of_cascading() {
        // Regression pin for the ftk-lint serve-unwrap pass: a client
        // thread panicking while holding server-internal locks must not
        // take the server down with it. Poison a ResponseSlot's mutex and
        // the dispatch queue's mutex the same way a panicking caller
        // would, then verify both stay usable.
        let slot = Arc::new(ResponseSlot::new());
        {
            let slot = Arc::clone(&slot);
            let _ = std::thread::spawn(move || {
                let _g = slot.state.lock().unwrap();
                panic!("poison the slot lock");
            })
            .join();
        }
        slot.fill(Err(ServeError::Shutdown));
        assert!(matches!(slot.wait(), Err(ServeError::Shutdown)));

        let (session, registry) = serving_pair();
        let server = Server::new(session, registry, ServerConfig::default());
        {
            let inner = Arc::clone(&server.inner);
            let _ = std::thread::spawn(move || {
                let _g = inner.queue.lock().unwrap_or_else(|e| e.into_inner());
                panic!("poison the queue lock");
            })
            .join();
        }
        let q = blobs(16, 5);
        let resp = server.predict("svc", &q).expect("predict after poison");
        assert_eq!(resp.labels.len(), 16);
    }

    #[test]
    fn single_request_round_trip() {
        let (session, registry) = serving_pair();
        let model = registry.get("svc").unwrap();
        let server = Server::new(session, registry, ServerConfig::default());
        let q = blobs(16, 5);
        let want = model.predict(&q).unwrap();
        let resp = server.predict("svc", &q).unwrap();
        assert_eq!(resp.labels, want);
        let stats = server.stats();
        assert_eq!(stats.predict_requests, 1);
        assert_eq!(stats.predict_rows, 16);
        assert_eq!(stats.dispatch_groups, 1);
    }

    #[test]
    fn unknown_model_and_bad_shape_fail_fast() {
        let (session, registry) = serving_pair();
        let server = Server::new(session, registry, ServerConfig::default());
        assert_eq!(
            server.predict("nope", &blobs(4, 0)),
            Err(ServeError::UnknownModel("nope".into()))
        );
        let bad = Matrix::<f64>::zeros(4, 7);
        assert!(matches!(
            server.predict("svc", &bad),
            Err(ServeError::KMeans(KMeansError::ShapeMismatch { .. }))
        ));
        // empty requests are answered inline without queueing or launching
        let empty = Matrix::<f64>::zeros(0, 4);
        assert_eq!(
            server.predict("svc", &empty).unwrap(),
            PredictResponse {
                labels: Vec::new(),
                coalesced_with: 1
            }
        );
        assert_eq!(server.stats().predict_requests, 0);
    }

    /// A rejected or empty request gets the same answer whether it would
    /// run on the caller's thread (no window, or at least `max_batch_rows`
    /// rows) or queue for the dispatcher, and is never counted as served.
    #[test]
    fn bad_and_empty_requests_answer_alike_on_both_paths() {
        let window = |max_batch_rows| ServerConfig {
            max_batch_rows,
            max_delay_us: 10_000,
            validate_batched: false,
        };
        let mut nan = blobs(4, 0);
        nan.set(2, 3, f64::NAN);
        let mut huge = blobs(4, 0);
        huge.set(1, 0, 1e200);
        let shape = |rows| {
            Err(ServeError::KMeans(KMeansError::ShapeMismatch {
                what: "samples",
                expected: (rows, 4),
                got: (rows, 7),
            }))
        };
        let cases = [
            (Matrix::<f64>::zeros(4, 7), shape(4)),
            (Matrix::<f64>::zeros(0, 7), shape(0)),
            (
                nan,
                Err(ServeError::KMeans(KMeansError::NonFinite {
                    row: 2,
                    col: 3,
                })),
            ),
            (
                huge,
                Err(ServeError::KMeans(KMeansError::Overflow { row: 1 })),
            ),
            (
                Matrix::<f64>::zeros(0, 4),
                Ok(PredictResponse {
                    labels: Vec::new(),
                    coalesced_with: 1,
                }),
            ),
        ];
        // Direct without a window, direct by size, and queued.
        for config in [ServerConfig::default(), window(2), window(4096)] {
            let (session, registry) = serving_pair();
            let server = Server::new(session, registry, config);
            for (queries, want) in &cases {
                assert_eq!(&server.predict("svc", queries), want, "{config:?}");
            }
            let stats = server.stats();
            assert_eq!((stats.predict_requests, stats.dispatch_groups), (0, 0));
        }
    }

    #[test]
    fn large_requests_bypass_the_queue() {
        let (session, registry) = serving_pair();
        let server = Server::new(
            session,
            registry,
            ServerConfig {
                max_batch_rows: 32,
                max_delay_us: 10_000,
                validate_batched: false,
            },
        );
        // 32 rows ≥ max_batch_rows: served inline, no window latency
        let resp = server.predict("svc", &blobs(32, 1)).unwrap();
        assert_eq!(resp.coalesced_with, 1);
        assert_eq!(server.stats().dispatch_groups, 1);
    }

    #[test]
    fn concurrent_small_requests_coalesce_and_match_unbatched_labels() {
        let (session, registry) = serving_pair();
        let model = registry.get("svc").unwrap();
        let server = Server::new(
            session,
            registry,
            ServerConfig {
                max_batch_rows: 4096,
                max_delay_us: 20_000,
                validate_batched: true,
            },
        );
        std::thread::scope(|s| {
            for t in 0..8usize {
                let server = &server;
                let model = &model;
                s.spawn(move || {
                    let q = blobs(16, t * 13 + 1);
                    let want = model.predict(&q).unwrap();
                    let resp = server.predict("svc", &q).unwrap();
                    assert_eq!(resp.labels, want, "client {t}");
                });
            }
        });
        let stats = server.stats();
        assert_eq!(stats.predict_requests, 8);
        assert_eq!(stats.predict_rows, 128);
        assert!(
            stats.dispatch_groups < 8,
            "some coalescing must happen: {stats:?}"
        );
        assert!(stats.coalesced_requests > 0);
    }

    #[test]
    fn window_expiry_reports_nonzero_bounded_queue_delay() {
        let (session, registry) = serving_pair();
        let max_delay_us = 3_000u64;
        let server = Server::new(
            session,
            registry,
            ServerConfig {
                max_batch_rows: 4096, // never filled by one small request
                max_delay_us,
                validate_batched: false,
            },
        );
        // A lone queued request can only be released by window expiry, so
        // its dispatch wait is at least the window (minus timer coarseness)
        // and — absent pathological scheduling — well under a second.
        let resp = server.predict("svc", &blobs(8, 3)).unwrap();
        assert_eq!(resp.coalesced_with, 1);
        let stats = server.stats();
        assert_eq!(stats.queued_requests, 1);
        assert!(
            stats.queue_delay_us_total > 0,
            "a window-expired request must report a nonzero queue delay: {stats:?}"
        );
        assert_eq!(stats.queue_delay_us_total, stats.queue_delay_us_max);
        assert!(
            stats.queue_delay_us_max < 1_000_000,
            "queue delay must stay near the window bound: {stats:?}"
        );
        let text = server.metrics_text();
        assert!(text.contains("# TYPE ftk_serve_queue_delay_us histogram"));
        assert!(text.contains("ftk_serve_queue_delay_us_count 1"));
    }

    #[test]
    fn default_dispatch_is_work_conserving() {
        let (session, registry) = serving_pair();
        let server = Server::new(session, registry, ServerConfig::default());
        assert!(server.dispatcher.is_none(), "no window, no dispatcher");
        // Without a window each request runs on its caller's thread at
        // once: never queued, never waiting for a partner or a timer.
        for i in 0..100 {
            let resp = server.predict("svc", &blobs(8, i)).unwrap();
            assert_eq!(resp.coalesced_with, 1);
        }
        let stats = server.stats();
        assert_eq!(stats.predict_requests, 100);
        assert_eq!(stats.queued_requests, 0, "{stats:?}");
        assert_eq!(stats.queue_delay_us_total, 0, "{stats:?}");
        assert_eq!(stats.queue_delay_us_max, 0, "{stats:?}");
    }

    #[test]
    fn one_slot_executor_serves_concurrent_clients_exactly() {
        // Eight callers run their predicts side by side against one model
        // on a serial executor; each must get the labels of a direct
        // predict.
        let session = Session::a100().with_executor(gpu_sim::Executor::serial());
        let registry = ModelRegistry::new();
        registry.register(
            "svc",
            session
                .kmeans(KMeansConfig::new(3).with_seed(1))
                .fit_model(&blobs(120, 0))
                .expect("fit")
                .with_predict_policy(PredictPolicy::Int8),
        );
        let model = registry.get("svc").unwrap();
        let config = ServerConfig {
            validate_batched: true,
            ..ServerConfig::default()
        };
        let server = Server::new(session, registry, config);
        std::thread::scope(|s| {
            for t in 0..8usize {
                let (server, model) = (&server, &model);
                s.spawn(move || {
                    let q = blobs(16, t * 13 + 1);
                    let want = model.predict(&q).unwrap();
                    let resp = server.predict("svc", &q).unwrap();
                    assert_eq!(resp.labels, want, "client {t}");
                });
            }
        });
        let stats = server.stats();
        assert_eq!(stats.predict_requests, 8);
        assert_eq!(stats.queued_requests, 0, "{stats:?}");
    }

    #[test]
    fn shutdown_rejects_new_requests_and_drains_old_ones() {
        let (session, registry) = serving_pair();
        let config = ServerConfig {
            max_delay_us: 100,
            ..ServerConfig::default()
        };
        let server = Server::new(session, registry, config);
        let resp = server.predict("svc", &blobs(8, 2)).unwrap();
        assert_eq!(resp.labels.len(), 8);
        assert_eq!(server.stats().queued_requests, 1);
        drop(server); // joins the dispatcher; must not hang
    }

    #[test]
    fn fit_refit_and_partial_fit_admit_through_the_server() {
        let session = Session::a100();
        let server: Server<f64> =
            Server::new(session, ModelRegistry::new(), ServerConfig::default());
        let data = blobs(120, 0);
        server
            .fit(
                "svc",
                KMeansConfig::new(3).with_seed(1),
                PredictPolicy::Fp16,
                &data,
            )
            .unwrap();
        assert!(server.counters().kernel_launches > 0, "fit work is metered");
        let before = server.counters();
        let first = server.registry().get("svc").unwrap();
        assert_eq!(first.predict_policy(), PredictPolicy::Fp16);

        let refit = server.refit("svc", &blobs(120, 3)).unwrap();
        assert!(!Arc::ptr_eq(&first, &refit), "refit hot-swaps the model");
        assert_eq!(refit.predict_policy(), PredictPolicy::Fp16, "policy sticks");
        assert!(server.counters().since(&before).kernel_launches > 0);

        let streamed = server.partial_fit("svc", &blobs(64, 4)).unwrap();
        assert_eq!(streamed.batches_seen(), 1);
        assert_eq!(streamed.predict_policy(), PredictPolicy::Fp16);
        let stats = server.stats();
        assert_eq!((stats.fits, stats.refits), (1, 2));
        assert_eq!(
            server.refit("ghost", &data).unwrap_err(),
            ServeError::UnknownModel("ghost".into())
        );
    }
}
