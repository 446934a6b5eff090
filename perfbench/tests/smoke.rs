//! Tiny-scale smoke of the benchmark command: every workload of
//! `BENCHMARK.json`, end to end and traced, prints every metric the file
//! lists for that mode with its unit, and passes every output check.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

/// The `{...}` entries of one list in `BENCHMARK.json`.
fn entries(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json lists {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split('{').skip(1).map(str::to_string).collect()
}

/// The string value of `"key": "..."` in one entry.
fn field(entry: &str, key: &str) -> String {
    let pat = format!("\"{key}\": \"");
    let at = entry
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {entry}"))
        + pat.len();
    let len = entry[at..].find('"').expect("string closes");
    entry[at..at + len].to_string()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--scale", "smoke"])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn every_workload_prints_every_listed_metric_and_passes_its_checks() {
    let workloads: Vec<String> = entries("workloads")
        .iter()
        .map(|e| field(e, "name"))
        .collect();
    assert_eq!(workloads.len(), 3);
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let metrics = entries(section);
        for w in &workloads {
            let stdout = run(w, trace);
            let result = stdout.lines().last().expect("a result line");
            assert!(
                result.starts_with("{\"correct\": true, ") && result.contains("\"failed\": 0, "),
                "{w}: {result}"
            );
            for m in &metrics {
                let (name, unit) = (field(m, "name"), field(m, "unit"));
                let at = result
                    .find(&format!("\"{name}\": {{\"value\": "))
                    .unwrap_or_else(|| panic!("{w} --trace {trace}: no {name} in {result}"));
                let entry = &result[at..at + result[at..].find('}').expect("entry closes")];
                assert!(
                    entry.ends_with(&format!("\"unit\": \"{unit}\"")),
                    "{w}: {name} must carry unit {unit}: {entry}"
                );
            }
        }
    }
}

#[test]
fn end_to_end_runs_print_each_workloads_own_metrics_by_name() {
    for (w, names) in [
        (
            "fit_k16",
            &["fit_s", "fail_frac", "setup_s", "peak_rss_mb"][..],
        ),
        (
            "serve_mixed",
            &[
                "predict_p50_us",
                "predict_p99_us",
                "predict_rows_per_s",
                "write_p50_ms",
                "fail_frac",
                "setup_s",
                "peak_rss_mb",
            ][..],
        ),
    ] {
        let stdout = run(w, "0");
        for name in names {
            // A one-second smoke run may hold fewer than the 1000 predicts
            // `predict_p99_us` needs; its line then reads `n/a` instead of a
            // value, which is the documented output.
            assert!(
                stdout
                    .lines()
                    .any(|l| l.split_whitespace().nth(1) == Some(name)),
                "{w}: no {name} line in\n{stdout}"
            );
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload fit_k16 --seed 1 --seconds 1",
        "--workload fit_k16 --seed x --seconds 1 --trace 0",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args.split(' '))
            .output()
            .expect("run perfbench");
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} must print no result");
    }
}
