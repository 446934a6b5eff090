//! The traced run (`--trace 1`). It times calls into each layer's public
//! functions from this file, on seeded data, and takes modeled time and
//! counts from the simulator's counters and a `trace::RecordingSink` phase
//! profile. End-to-end runs never come here, so their clocks see no
//! tracing.
//!
//! The result line carries every per-layer metric on every workload. The
//! fit layers run at the workload's fit shape (on `serve_mixed`, the
//! tenant's training fit). The serving layers always run on the
//! `serve_mixed` tenant, the only servable shape: on a fit workload they
//! repeat `serve_mixed`'s numbers. `exec.launches` and `trace.overhead`
//! come from the workload's own op: a fit, or a storm op.

use crate::report::{median, Currency, Outcome};
use crate::workloads::{
    build_server, fit_ok, injected_ft, labels_ok, make_inputs, probe_ok, storm, workload, Inputs,
    Kind, Scale, Stop, Workload, ITERS,
};
use abft::SchemeKind;
use fault::{CampaignStats, FaultTarget, Injector, InjectorConfig, SeuModel};
use gpu_sim::mma::{FaultHook, MmaSite, NoFault};
use gpu_sim::timing::counter_roofline;
use gpu_sim::{
    launch_grid, Counters, DeviceProfile, Dim3, GlobalBuffer, LaunchConfig, Matrix, Precision,
};
use kmeans::assign::{default_tile, run_assignment};
use kmeans::update::update_centroids;
use kmeans::{
    DeviceData, KMeansConfig, PredictPolicy, QuantKind, QuantizedCentroids, Session, Variant,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use trace::RecordingSink;
use Currency::{Count, Measured, Modeled};

/// The per-layer metrics `BENCHMARK.json` lists, in its order.
pub const PER_LAYER_METRICS: [&str; 29] = [
    "exec.launch_us",
    "exec.launches",
    "device_data.upload_s",
    "device_data.refresh_s",
    "assign.wall_s",
    "assign.bytes",
    "assign.modeled_s",
    "abft.overhead",
    "abft.ft_mma_ops",
    "update.wall_s",
    "update.atomic_ops",
    "update.modeled_s",
    "update.dmr_overhead",
    "fault.hook_calls",
    "fault.assign_slowdown",
    "fault.update_slowdown",
    "fault.injected",
    "fault.detected",
    "fault.corrected",
    "quant.build_ms",
    "predict.direct_us",
    "predict.batch_us",
    "predict.fallback_frac",
    "partial_fit.wall_ms",
    "server.self_us",
    "server.queue_delay_us",
    "server.coalesce",
    "fit.unattributed_s",
    "trace.overhead",
];

/// Records the traced fits and storms may emit; far above what they do.
const SINK_RECORDS: usize = 1 << 20;
/// Repetitions of the no-op launch.
const LAUNCH_REPS: usize = 200;

/// Repetition counts of the layer calls.
#[derive(Clone, Copy)]
struct Reps {
    /// Layer calls and their ratio sides.
    calls: usize,
    /// Calls under the injector, which run 10-30x slower.
    hooked: usize,
    /// Direct predicts per batch size.
    predicts: usize,
    /// Storm ops per client.
    storm_ops: usize,
}

impl Reps {
    fn at(scale: Scale) -> Reps {
        match scale {
            Scale::Full => Reps {
                calls: 5,
                hooked: 3,
                predicts: 64,
                storm_ops: 1500,
            },
            Scale::Smoke => Reps {
                calls: 2,
                hooked: 1,
                predicts: 8,
                storm_ops: 64,
            },
        }
    }
}

/// Counts every hook call, then hands it to the wrapped injector.
struct CountingHook<'a> {
    inner: &'a Injector,
    calls: AtomicU64,
}

impl FaultHook<f32> for CountingHook<'_> {
    fn post_mma(&self, site: &MmaSite, acc: &mut [f32], wn: usize) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        FaultHook::<f32>::post_mma(self.inner, site, acc, wn);
    }

    fn post_fma(&self, site: &MmaSite, value: f32) -> f32 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        FaultHook::<f32>::post_fma(self.inner, site, value)
    }
}

/// The injector a §V-C fit of this shape builds: 50 err/s over one modeled
/// second spread across the fit's [`ITERS`] assignment launches.
fn injector(w: &Workload, seed: u64) -> Injector {
    let tile = default_tile(Precision::Fp32);
    let blocks = w.m.div_ceil(tile.tb_m) * w.k.div_ceil(tile.tb_n);
    let events = tile.warps() * w.dim.div_ceil(tile.tb_k).max(1) * (tile.tb_k / 8);
    let ft = injected_ft(seed);
    Injector::new(InjectorConfig {
        schedule: ft.injection,
        model: SeuModel {
            target: FaultTarget::PayloadMma,
            ..SeuModel::default()
        },
        seed,
        kernel_time_hint_s: ft.modeled_residency_s / ITERS as f64,
        blocks_hint: blocks,
        events_per_block_hint: events.max(1) as u64,
    })
}

/// Run `op` `reps` times and return each wall time in seconds.
fn time_reps<R>(reps: usize, mut op: impl FnMut() -> R) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(op());
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// Like [`time_reps`], counting each call as a checked op.
fn timed_checked<R, E>(
    out: &mut Outcome,
    reps: usize,
    mut op: impl FnMut(usize) -> Result<R, E>,
) -> Vec<f64> {
    (0..reps)
        .map(|i| {
            let t = Instant::now();
            let r = op(i);
            let dt = t.elapsed().as_secs_f64();
            out.check(r.is_ok());
            dt
        })
        .collect()
}

/// Time `a` and `b` alternately, `reps` times each, so that host speed
/// drifting during the run falls on both sides of their ratio.
fn timed_pair<R, E>(
    out: &mut Outcome,
    reps: usize,
    mut a: impl FnMut() -> Result<R, E>,
    mut b: impl FnMut() -> Result<R, E>,
) -> (Vec<f64>, Vec<f64>) {
    let mut ta = Vec::with_capacity(reps);
    let mut tb = Vec::with_capacity(reps);
    for _ in 0..reps {
        ta.extend(timed_checked(out, 1, |_| a()));
        tb.extend(timed_checked(out, 1, |_| b()));
    }
    (ta, tb)
}

fn launches(sink: &RecordingSink) -> u64 {
    sink.phase_profile().phases().map(|(_, s)| s.launches).sum()
}

/// Row-wise concatenation of two matrices of equal width.
fn concat(a: &Matrix<f32>, b: &Matrix<f32>) -> Matrix<f32> {
    let mut v = a.as_slice().to_vec();
    v.extend_from_slice(b.as_slice());
    Matrix::from_vec(a.rows() + b.rows(), a.cols(), v).expect("equal widths")
}

pub fn run(w: &Workload, inputs: &Inputs, seed: u64, seconds: f64, scale: Scale) -> Outcome {
    let mut out = Outcome::default();
    let reps = Reps::at(scale);

    // gpu_sim::exec: a 64-block no-op launch.
    let (device, counters) = (DeviceProfile::a100(), Counters::new());
    let noop = LaunchConfig {
        grid: Dim3::x(64),
        threads_per_block: 32,
        smem_bytes: 0,
    };
    let launch = timed_checked(&mut out, LAUNCH_REPS, |_| {
        launch_grid(&device, noop, &counters, |_| {})
    });
    out.add(
        "exec.launch_us",
        median(&launch) * 1e6,
        "us",
        Measured,
        LAUNCH_REPS,
    );

    let own_fit = w.kind == Kind::Fit;
    fit_layers(&mut out, w, inputs, seed, seconds, reps, own_fit);
    if own_fit {
        let sw = workload("serve_mixed", scale).expect("a known workload");
        serve_layers(&mut out, &sw, &make_inputs(&sw, seed), seed, reps, false);
    } else {
        serve_layers(&mut out, w, inputs, seed, reps, true);
    }
    out
}

/// The fit layers at `w`'s fit shape. With `own`, also `exec.launches` and
/// `trace.overhead` of its fits.
fn fit_layers(
    out: &mut Outcome,
    w: &Workload,
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
    reps: Reps,
    own: bool,
) {
    let device = DeviceProfile::a100();
    let session = Session::a100();
    let counters = Counters::new();
    let (m, dim, k) = (w.m, w.dim, w.k);
    let train = &inputs.train;

    // The clean twin: the SDC reference of every fit below and the
    // centroids every layer call runs against.
    let Ok(clean) = session.kmeans(w.fit_config(seed)).fit_model(train) else {
        out.check(false);
        return;
    };
    out.check(labels_ok(&clean.labels, k) && clean.inertia.is_finite());
    let centroids = &clean.centroids;

    // Whole fits, untraced and with a recording sink in turn.
    let km = session.kmeans(w.fit_config(seed));
    let fit_sink = Arc::new(RecordingSink::new(SINK_RECORDS));
    let traced_km = session
        .clone()
        .with_trace_sink(fit_sink.clone())
        .kmeans(w.fit_config(seed));
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while untraced.len() < 2 || t0.elapsed().as_secs_f64() < seconds / 3.0 {
        for (km, times) in [(&km, &mut untraced), (&traced_km, &mut traced)] {
            let t = Instant::now();
            let r = km.fit_model(train);
            times.push(t.elapsed().as_secs_f64());
            out.check(fit_ok(&r, k, clean.result()));
        }
    }
    let fits = untraced.len();

    // kmeans::device_data: upload with both norm kernels, then the
    // per-iteration centroid refresh.
    let upload = timed_checked(out, reps.calls, |_| {
        DeviceData::upload(&device, train, centroids, &counters)
    });
    let Ok(mut data) = DeviceData::upload(&device, train, centroids, &counters) else {
        out.check(false);
        return;
    };
    let refresh = timed_checked(out, reps.calls, |_| {
        data.refresh_centroids(&device, centroids, &counters)
    });
    let data = data;

    // kmeans::assign / variants::tensor, with and without warp ABFT.
    let stats = parking_lot::Mutex::new(CampaignStats::default());
    let assign = |scheme: SchemeKind, hook: &dyn FaultHook<f32>| {
        run_assignment(
            &device,
            &data,
            Variant::tensor_default(),
            scheme,
            hook,
            &counters,
            &stats,
        )
    };
    let (assign_ft, assign_plain) = timed_pair(
        out,
        reps.calls,
        || assign(SchemeKind::FtKMeans, &NoFault),
        || assign(SchemeKind::None, &NoFault),
    );
    let before = counters.snapshot();
    let Ok(assigned) = assign(SchemeKind::FtKMeans, &NoFault) else {
        out.check(false);
        return;
    };
    let assign_delta = counters.snapshot().since(&before);
    let labels = assigned.labels;

    // kmeans::update, DMR on and off.
    let update = |dmr: bool, hook: &dyn FaultHook<f32>| {
        update_centroids(
            &device,
            &data.samples,
            m,
            dim,
            &labels,
            centroids,
            dmr,
            hook,
            &counters,
        )
    };
    let (update_dmr, update_plain) = timed_pair(
        out,
        reps.calls,
        || update(true, &NoFault),
        || update(false, &NoFault),
    );
    let before = counters.snapshot();
    out.check(update(true, &NoFault).is_ok());
    let update_delta = counters.snapshot().since(&before);

    // fault: the same calls through an injector at the §V-C rate.
    let inj = injector(w, seed);
    let (assign_hooked, assign_base) = timed_pair(
        out,
        reps.hooked,
        || {
            inj.begin_launch();
            assign(SchemeKind::FtKMeans, &inj)
        },
        || assign(SchemeKind::FtKMeans, &NoFault),
    );
    let (update_hooked, update_base) = timed_pair(
        out,
        reps.hooked,
        || {
            inj.begin_launch();
            update(true, &inj)
        },
        || update(true, &NoFault),
    );
    let counting = CountingHook {
        inner: &inj,
        calls: AtomicU64::new(0),
    };
    out.check(assign(SchemeKind::FtKMeans, &counting).is_ok());
    out.check(update(true, &counting).is_ok());
    let hook_calls = counting.calls.load(Ordering::Relaxed);
    // The fault ledger of one whole fit under the §V-C protocol. Only its
    // counts are reported, so it is not held to the SDC policy: about one
    // injected fit in seventy drifts past it (see README.md).
    let inj_cfg = KMeansConfig {
        ft: injected_ft(seed),
        ..w.fit_config(seed)
    };
    let r = session.kmeans(inj_cfg).fit_model(train);
    out.check(matches!(&r, Ok(m) if labels_ok(&m.labels, k) && m.inertia.is_finite()));
    let ledger = r.map(|model| model.ft_stats).unwrap_or_default();

    let upload_s = median(&upload);
    let refresh_s = median(&refresh);
    let assign_s = median(&assign_ft);
    let update_s = median(&update_dmr);
    let calls = reps.calls;
    out.add("device_data.upload_s", upload_s, "s", Measured, calls);
    out.add("device_data.refresh_s", refresh_s, "s", Measured, calls);
    out.add("assign.wall_s", assign_s, "s", Measured, calls);
    let bytes = assign_delta.total_bytes() as f64;
    out.add("assign.bytes", bytes, "bytes", Count, 1);
    let modeled = counter_roofline(&device, &assign_delta);
    out.add("assign.modeled_s", modeled, "s_modeled", Modeled, 1);
    let overhead = assign_s / median(&assign_plain);
    out.add("abft.overhead", overhead, "ratio", Measured, calls);
    let ft_mma = assign_delta.ft_mma_ops as f64;
    out.add("abft.ft_mma_ops", ft_mma, "count", Count, 1);
    out.add("update.wall_s", update_s, "s", Measured, calls);
    let atomics = update_delta.atomic_ops as f64;
    out.add("update.atomic_ops", atomics, "count", Count, 1);
    let modeled = counter_roofline(&device, &update_delta);
    out.add("update.modeled_s", modeled, "s_modeled", Modeled, 1);
    let dmr = update_s / median(&update_plain);
    out.add("update.dmr_overhead", dmr, "ratio", Measured, calls);
    out.add("fault.hook_calls", hook_calls as f64, "count", Count, 1);
    let hooked = reps.hooked;
    let slowdown = median(&assign_hooked) / median(&assign_base);
    out.add("fault.assign_slowdown", slowdown, "ratio", Measured, hooked);
    let slowdown = median(&update_hooked) / median(&update_base);
    out.add("fault.update_slowdown", slowdown, "ratio", Measured, hooked);
    out.add("fault.injected", ledger.injected as f64, "count", Count, 1);
    out.add("fault.detected", ledger.detected as f64, "count", Count, 1);
    out.add(
        "fault.corrected",
        ledger.corrected as f64,
        "count",
        Count,
        1,
    );
    let unattributed =
        median(&untraced) - (upload_s + ITERS as f64 * (assign_s + update_s + refresh_s));
    out.add("fit.unattributed_s", unattributed, "s", Measured, fits);
    if own {
        let per_fit = launches(&fit_sink) as f64 / fits as f64;
        out.add("exec.launches", per_fit, "count", Count, fits);
        let overhead = traced.iter().sum::<f64>() / untraced.iter().sum::<f64>();
        out.add("trace.overhead", overhead, "ratio", Measured, fits);
    }
}

/// The serving layers on the `serve_mixed` tenant `w`. With `own`, also
/// `exec.launches` and `trace.overhead` of its storm ops.
fn serve_layers(
    out: &mut Outcome,
    w: &Workload,
    inputs: &Inputs,
    seed: u64,
    reps: Reps,
    own: bool,
) {
    let session = Session::a100();
    let (dim, k) = (w.dim, w.k);
    let Ok(model) = session.kmeans(w.fit_config(seed)).fit_model(&inputs.train) else {
        out.check(false);
        return;
    };
    let model = model.with_predict_policy(PredictPolicy::Int8);

    // kmeans::quant: the int8 table build.
    let cbuf = GlobalBuffer::from_matrix(&model.centroids);
    let quant = time_reps(reps.calls, || {
        QuantizedCentroids::build(&cbuf, k, dim, QuantKind::Int8)
    });
    model.quantized_table(QuantKind::Int8);

    // kmeans::model + variants::predict_fused: direct predicts on distinct
    // matrices (the model memoizes its last batch), 64 rows and the
    // 128-row batch two coalesced callers make.
    let before = model.predict_counters();
    let predict = |out: &mut Outcome, q: &Matrix<f32>| {
        let t = Instant::now();
        let r = model.predict(q);
        let dt = t.elapsed().as_secs_f64();
        out.check(matches!(&r, Ok(l) if l.len() == q.rows() && labels_ok(l, k)));
        dt
    };
    let qs = &inputs.queries;
    let direct: Vec<f64> = (0..reps.predicts)
        .map(|i| predict(out, &qs[0][i]))
        .collect();
    let batches: Vec<Matrix<f32>> = (0..reps.predicts)
        .map(|i| concat(&qs[0][i + reps.predicts], &qs[1][i]))
        .collect();
    let batch: Vec<f64> = batches.iter().map(|q| predict(out, q)).collect();
    let predicted_rows =
        direct.len() * qs[0][0].rows() + batches.iter().map(|q| q.rows()).sum::<usize>();
    let fallbacks = model.predict_counters().since(&before).quant_fallbacks;
    let direct_us = median(&direct) * 1e6;

    // kmeans::minibatch: direct partial_fit continuing the fitted model.
    let pkm = session.kmeans(w.fit_config(seed));
    let partial = timed_checked(out, reps.calls, |i| {
        pkm.partial_fit(Some(model.clone()), &inputs.writes[i % inputs.writes.len()])
    });

    // serve::server: the workload's mixed storm, untraced.
    let Ok(server) = build_server(w, inputs, session.clone(), seed) else {
        out.check(false);
        return;
    };
    let s = storm(&server, w, inputs, Stop::Ops(reps.storm_ops));
    out.attempted += s.ops;
    out.failed += s.failed;
    out.check(probe_ok(&server, inputs));
    let sstats = server.stats();
    drop(server);

    let calls = reps.calls;
    out.add(
        "quant.build_ms",
        median(&quant) * 1e3,
        "ms",
        Measured,
        calls,
    );
    out.add("predict.direct_us", direct_us, "us", Measured, direct.len());
    let batch_us = median(&batch) * 1e6;
    out.add("predict.batch_us", batch_us, "us", Measured, batch.len());
    let frac = fallbacks as f64 / predicted_rows as f64;
    out.add("predict.fallback_frac", frac, "frac", Count, predicted_rows);
    let partial_ms = median(&partial) * 1e3;
    out.add("partial_fit.wall_ms", partial_ms, "ms", Measured, calls);
    let self_us = median(&s.predict_us) - direct_us;
    out.add(
        "server.self_us",
        self_us,
        "us",
        Measured,
        s.predict_us.len(),
    );
    let queued = sstats.queued_requests;
    let delay = sstats.queue_delay_us_total as f64 / queued.max(1) as f64;
    out.add(
        "server.queue_delay_us",
        delay,
        "us",
        Measured,
        queued as usize,
    );
    let requests = sstats.predict_requests;
    let coalesce = requests as f64 / sstats.dispatch_groups.max(1) as f64;
    out.add(
        "server.coalesce",
        coalesce,
        "count",
        Count,
        requests as usize,
    );

    // The same storm with a recording sink, for launches per op and the
    // tracing overhead.
    if !own {
        return;
    }
    let sink = Arc::new(RecordingSink::new(SINK_RECORDS));
    let Ok(server) = build_server(w, inputs, session.with_trace_sink(sink.clone()), seed) else {
        out.check(false);
        return;
    };
    // Count only the storm's launches, not the tenant's fit.
    sink.clear();
    let t = storm(&server, w, inputs, Stop::Ops(reps.storm_ops));
    out.attempted += t.ops;
    out.failed += t.failed;
    drop(server);
    let per_op = launches(&sink) as f64 / t.ops as f64;
    out.add("exec.launches", per_op, "count", Count, t.ops as usize);
    out.add(
        "trace.overhead",
        t.wall_s / s.wall_s,
        "ratio",
        Measured,
        t.ops as usize,
    );
}
