//! `sanitize_sweep` — run the device sanitizer over the whole stack and
//! fail on any finding.
//!
//! Fits all six assignment variants (crossing the Hamerly revalidation
//! cadence), streams a mini-batch fit, runs the exact and quantized predict
//! epilogues, and drives a multi-client serve storm — all under a
//! `gpu_sim::sanitizer` checker. Prints the deterministic report and exits
//! non-zero when it is non-empty. Intended for the CI `sanitize-smoke` leg
//! and local pre-merge checks.
//!
//! Usage: `sanitize_sweep [REPORT]` — also writes the report text to the
//! `REPORT` path when given. `FTK_SANITIZE` picks the checks (default
//! `race,init,oob`; `leak` and `all` also accepted). The leak check is not
//! in the default gate: a fit legitimately leaves e.g. `sample_norms`
//! unread under variants that never use norms, and the serve path retains
//! resident buffers past the sweep.

use bench_harness::sanitize::run_sanitize_sweep;
use gpu_sim::sanitizer::SanitizeConfig;

/// Samples in each fit of the sweep.
const M: usize = 2048;

fn main() {
    let report_path = std::env::args().nth(1);
    let cfg = SanitizeConfig::from_env().unwrap_or(SanitizeConfig {
        race: true,
        init: true,
        oob: true,
        leak: false,
    });

    let (report, phases) = run_sanitize_sweep(M, cfg);
    for p in &phases {
        eprintln!("sanitize_sweep: ran {}", p.name);
    }
    let text = report.to_text();
    print!("{text}");
    if let Some(path) = report_path {
        if let Some(parent) = std::path::Path::new(&path).parent() {
            if !parent.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(parent);
            }
        }
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("sanitize_sweep: cannot write {path}: {e}");
            std::process::exit(2);
        }
    }
    if !report.is_empty() {
        eprintln!(
            "sanitize_sweep: FAILED — {} finding(s) at m={M}",
            report.findings.len()
        );
        std::process::exit(1);
    }
    eprintln!("sanitize_sweep: OK — no findings at m={M}");
}
