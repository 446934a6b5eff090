//! `bench_check` — the one bench binary: it measures, gates and re-records
//! every throughput baseline.
//!
//! ```text
//! bench_check [fit|predict|serve|trace|figures|campaign]...
//! bench_check --write-baseline
//! ```
//!
//! With no gate names it runs all six. Its first line names the MMA
//! micro-kernel path the host runs ([`gpu_sim::mma::isa`]) and reports,
//! ungated, the micro-kernel's GFLOP/s on the fp32 default warp slab next
//! to the host's mul+add peak ([`bench_harness::mmarate`]). Exit status is
//! 1 when a gate fails and 2 on a usage error or an unreadable ledger.
//!
//! * **fit / predict / serve** — fresh median rates ([`REPS`] reps) against
//!   the rows of the same bench in `baselines/throughput.csv`, measured at
//!   the committed shape (fit and predict at M = 131072, serve at 16384
//!   rows per scenario). A row fails when it is more than [`TOLERANCE`]
//!   times slower than its baseline, missing on either side, or measured
//!   at another `m`. Predict and serve also check their headline claim on
//!   the fresh run: each quantized policy at least
//!   [`MIN_QUANT_SPEEDUP`] times the exact rate, and micro-batched
//!   modeled device throughput at least [`MIN_BATCHING_SPEEDUP`] times
//!   the one-call-per-launch rate.
//! * **trace** — a fit with a recording sink attached stays within the
//!   band of the identical untraced fit, and the phase profiler's modeled
//!   attribution reproduces the fit ordering (naive assignment costs more
//!   than fused) at M = 131072.
//! * **figures** — a fresh `figures --fig all --quick` run matches the
//!   column headers and row counts of `baselines/figures/*.csv`.
//! * **campaign** — a fresh quick campaign reproduces
//!   `baselines/campaign/campaign.csv` byte for byte.
//!
//! `--write-baseline` re-measures fit, predict and serve through the same
//! path and rewrites `baselines/throughput.csv`. It writes nothing when a
//! claim fails on that run.

use bench_harness::campaign::{campaign_table, run_campaign, CampaignGrid};
use bench_harness::drift::{check_campaign_exact, check_figure_schemas};
use bench_harness::figures::run_figure;
use bench_harness::fitbench::{run_fit_bench, M};
use bench_harness::mmarate::{kernel_gflops, mul_add_peak_gflops, SLAB};
use bench_harness::predictbench::{run_predict_bench, PredictMeasurement, MIN_QUANT_SPEEDUP};
use bench_harness::regression::{
    check, parse_ledger, rows_of, write_ledger, Bench, Row, REPS, TOLERANCE,
};
use bench_harness::servebench::{
    batching_speedup, run_serve_bench, ServeMeasurement, MIN_BATCHING_SPEEDUP, ROWS,
};
use bench_harness::tracebench::{run_trace_overhead, traced_fit};
use kmeans::Variant;
use std::path::{Path, PathBuf};

/// Every gate, in the order a bare run executes them.
const GATES: [&str; 6] = ["fit", "predict", "serve", "trace", "figures", "campaign"];

fn baselines_root() -> PathBuf {
    // crates/bench → workspace root → baselines/
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("baselines")
}

fn ledger_path() -> PathBuf {
    baselines_root().join("throughput.csv")
}

fn read_ledger() -> Vec<Row> {
    let path = ledger_path();
    let parsed = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|csv| parse_ledger(&csv));
    parsed.unwrap_or_else(|e| {
        eprintln!("bench_check: cannot use {}: {e}", path.display());
        std::process::exit(2);
    })
}

fn verdict(pass: bool) -> &'static str {
    if pass {
        "ok"
    } else {
        "FAILED"
    }
}

/// Measure one throughput bench at its committed shape, print its detail
/// lines, and check its headline claim on this fresh run. Returns the
/// ledger rows and whether the claim holds.
fn measure(bench: Bench) -> (Vec<Row>, bool) {
    match bench {
        Bench::Fit => {
            println!("bench_check: fit at m = {M}, median of {REPS}");
            (run_fit_bench(M, REPS), true)
        }
        Bench::Predict => {
            println!("bench_check: predict at m = {M}, median of {REPS}");
            let out = run_predict_bench(M, REPS);
            let exact = out[0].rate; // POLICY_NAMES puts exact first
            let mut claim = true;
            for p in &out {
                let speedup = p.rate / exact;
                let pass = p.name == "exact" || speedup >= MIN_QUANT_SPEEDUP;
                println!(
                    "  {:<6} {:>12.0} samples/s  {:>5.2}x vs exact (claim >= {MIN_QUANT_SPEEDUP}x)  \
                     fallback {:.3}%  {}",
                    p.name,
                    p.rate,
                    speedup,
                    p.fallback_rate * 100.0,
                    verdict(pass)
                );
                claim &= pass;
            }
            (out.iter().map(PredictMeasurement::row).collect(), claim)
        }
        Bench::Serve => {
            println!("bench_check: serve at {ROWS} rows per scenario, median of {REPS}");
            let out = run_serve_bench(ROWS, REPS);
            println!(
                "  {:<12} {:>9} {:>9} {:>10} {:>10} {:>14} {:>12}",
                "scenario",
                "requests",
                "launches",
                "p50 us",
                "p99 us",
                "device rows/s",
                "wall rows/s"
            );
            for s in &out {
                println!(
                    "  {:<12} {:>9} {:>9} {:>10.1} {:>10.1} {:>14.0} {:>12.0}",
                    s.name,
                    s.requests,
                    s.launches,
                    s.p50_us,
                    s.p99_us,
                    s.rows_per_s,
                    s.wall_rows_per_s
                );
            }
            let speedup = batching_speedup(&out).unwrap_or(0.0);
            let claim = speedup >= MIN_BATCHING_SPEEDUP;
            println!(
                "  micro-batching speedup (batched64 / unbatched64) {speedup:.2}x \
                 (claim >= {MIN_BATCHING_SPEEDUP}x)  {}",
                verdict(claim)
            );
            (out.iter().map(ServeMeasurement::row).collect(), claim)
        }
    }
}

/// A throughput gate: the fresh run's claim plus every row within the band
/// of its same-shape baseline row.
fn check_throughput(bench: Bench, ledger: &[Row]) -> bool {
    let (fresh, mut ok) = measure(bench);
    println!(
        "  {:<14} {:>14} {:>14} {:>8}  verdict (band {TOLERANCE}x)",
        "name", "fresh rate", "baseline rate", "factor"
    );
    for o in check(&fresh, &rows_of(ledger, bench), TOLERANCE) {
        println!(
            "  {:<14} {:>14.0} {:>14.0} {:>7.2}x  {}",
            o.name,
            o.fresh_rate,
            o.baseline_rate,
            o.regression_factor,
            verdict(o.pass)
        );
        ok &= o.pass;
    }
    if !ok {
        eprintln!(
            "bench_check: {} gate failed (an infinite factor means the row is missing \
             on one side or its baseline was taken at another m)",
            bench.name()
        );
    }
    ok
}

/// Trace gate: attaching a recording sink must not push fit wall time out
/// of the band, and the phase profiler's modeled-time attribution must
/// reproduce the ledger's fit ordering (naive assignment costs more than
/// fused) at the committed scale.
fn check_trace() -> bool {
    println!("bench_check: recording-sink overhead at m = {M}, median of {REPS}");
    let o = run_trace_overhead(M, REPS);
    let mut ok = o.factor() <= TOLERANCE;
    println!(
        "  untraced {:>9.6} s  traced {:>9.6} s  {:>5.2}x (band {TOLERANCE}x, {} events)  {}",
        o.untraced_s,
        o.traced_s,
        o.factor(),
        o.events,
        verdict(ok)
    );

    println!("bench_check: phase-profile attribution at m = {M}");
    let naive = traced_fit(M, Variant::Naive).0.phase_profile();
    let fused = traced_fit(M, Variant::FusedV2).0.phase_profile();
    let assignment = trace::phases::ASSIGNMENT;
    let (na, fa) = (naive.modeled_s(assignment), fused.modeled_s(assignment));
    let ordered = na > fa && fa > 0.0;
    println!(
        "  assignment modeled  naive {:>9.3} ms  fused_v2 {:>9.3} ms  {}",
        na * 1e3,
        fa * 1e3,
        verdict(ordered)
    );
    print!("{}", fused.to_table());
    ok &= ordered;
    if !ok {
        eprintln!("bench_check: trace gate failed");
    }
    ok
}

fn check_figures() -> bool {
    let dir = baselines_root().join("figures");
    println!(
        "bench_check: regenerating all figures (--quick) for schema drift vs {}",
        dir.display()
    );
    let fresh = run_figure("all", true).expect("'all' is a valid figure id");
    let outcomes = check_figure_schemas(&fresh, &dir);
    let mut failed = false;
    for o in &outcomes {
        println!(
            "{:<10} {}  {}",
            o.id,
            if o.pass { "ok      " } else { "DRIFTED " },
            o.detail
        );
        failed |= !o.pass;
    }
    if failed {
        eprintln!(
            "bench_check: figure schema drift — update baselines/figures/ deliberately with: \
             figures --fig all --quick --out baselines/figures"
        );
    }
    !failed
}

fn check_campaign() -> bool {
    let path = baselines_root().join("campaign").join("campaign.csv");
    println!(
        "bench_check: running the quick campaign grid for exact-match vs {}",
        path.display()
    );
    let outcomes = run_campaign(&CampaignGrid::quick());
    let fresh_csv = campaign_table(&outcomes).to_csv();
    let o = check_campaign_exact(&fresh_csv, &path);
    println!(
        "{:<10} {}  {}",
        o.id,
        if o.pass { "ok      " } else { "DRIFTED " },
        o.detail
    );
    if !o.pass {
        eprintln!("bench_check: campaign table drift");
    }
    o.pass
}

/// Re-measure every throughput bench and rewrite the ledger, unless a claim
/// fails on this run.
fn write_baseline() -> bool {
    let mut rows = Vec::new();
    let mut claims = true;
    for bench in Bench::ALL {
        let (fresh, claim) = measure(bench);
        rows.extend(fresh);
        claims &= claim;
    }
    if !claims {
        eprintln!("bench_check: a claim fails on this run; the baseline is not written");
        return false;
    }
    let (path, csv) = (ledger_path(), write_ledger(&rows));
    print!("{csv}");
    if let Err(e) = std::fs::write(&path, csv) {
        eprintln!("bench_check: cannot write {}: {e}", path.display());
        std::process::exit(2);
    }
    println!("bench_check: baseline written to {}", path.display());
    true
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_check [{}]...\n       bench_check --write-baseline",
        GATES.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut write = false;
    let mut gates = Vec::new();
    for arg in std::env::args().skip(1) {
        match GATES.iter().find(|g| **g == arg) {
            Some(gate) => gates.push(*gate),
            None if arg == "--write-baseline" => write = true,
            None => usage(),
        }
    }
    // Host rates depend on the vector width the MMA micro-kernel runs at.
    let (kernel, (wm, wn, kk)) = (kernel_gflops(20_000), SLAB);
    let peak = match mul_add_peak_gflops(20_000) {
        Some(peak) => format!("{peak:.1} GFLOP/s ({:.0}%)", 100.0 * kernel / peak),
        None => "not probed".into(),
    };
    println!(
        "bench_check: MMA path {}, micro-kernel {kernel:.1} GFLOP/s on the {wm}x{wn}x{kk} \
         fp32 slab, host mul+add peak {peak}",
        gpu_sim::mma::isa()
    );
    if write {
        if !gates.is_empty() {
            usage();
        }
        std::process::exit(if write_baseline() { 0 } else { 1 });
    }
    if gates.is_empty() {
        gates = GATES.to_vec();
    }
    let ledger = if gates.iter().any(|g| Bench::parse(g).is_some()) {
        read_ledger()
    } else {
        Vec::new()
    };
    let mut ok = true;
    for gate in gates {
        ok &= match gate {
            "trace" => check_trace(),
            "figures" => check_figures(),
            "campaign" => check_campaign(),
            bench => check_throughput(Bench::parse(bench).expect("a GATES entry"), &ledger),
        };
    }
    if !ok {
        std::process::exit(1);
    }
    println!("bench_check: all gates green");
}
