//! Fit-throughput benchmark: end-to-end `KMeans::fit_model` at the paper's
//! headline problem size (M = 131072, d = 64, k = 16) across every
//! assignment variant, plus a launch-overhead microbenchmark that isolates
//! the per-kernel-launch cost of the execution engine.
//!
//! Hand-rolled harness (no criterion): each measurement is a full fit, so
//! calibration loops would only add minutes; instead we run a fixed number
//! of repetitions and report the median. The measurement machinery lives in
//! [`bench_harness::fitbench`], shared with the `bench_check` regression
//! gate. Output is both human-readable lines and CSV rows; set
//! `FTK_WRITE_BASELINE=1` to (over)write `baselines/fit_throughput.csv`
//! with the CSV for regression comparison.
//!
//! Knobs:
//! * `FTK_BENCH_REPS` — repetitions per variant (default 3),
//! * `FTK_BENCH_M`    — sample count (default 131072).

use bench_harness::fitbench::{
    env_usize, fit_csv_row, launch_overhead_csv_row, measure_launch_overhead, run_fit_bench,
    CSV_HEADER,
};

fn main() {
    let m = env_usize("FTK_BENCH_M", 131072);
    let reps = env_usize("FTK_BENCH_REPS", 3).max(1);
    let mut csv = String::from(CSV_HEADER);

    let overhead = measure_launch_overhead();
    println!(
        "bench: launch_overhead/64-block-noop           {:>9.2} µs/launch",
        overhead * 1e6
    );
    csv.push_str(&launch_overhead_csv_row(overhead));

    for meas in run_fit_bench(m, reps) {
        let rate = meas.rate;
        println!(
            "bench: fit_throughput/{:<24} {:>9.3} s/fit  {rate:>12.0} samples·iter/s  (inertia {:.3e})",
            meas.name, meas.median_s, meas.inertia
        );
        csv.push_str(&fit_csv_row(&meas));
    }

    if std::env::var("FTK_WRITE_BASELINE").is_ok() {
        // crates/bench → workspace root → baselines/
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("baselines");
        std::fs::create_dir_all(&dir).expect("create baselines/");
        let path = dir.join("fit_throughput.csv");
        std::fs::write(&path, &csv).expect("write baseline CSV");
        println!("baseline written to {}", path.display());
    }
}
