//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale full|smoke]
//! ```
//!
//! With `--trace 0` it runs one workload end to end through the public
//! APIs with tracing off, checks every output, and prints the end-to-end
//! metrics. With `--trace 1` it runs the traced per-layer pass instead
//! (`layers.rs`). Either way it prints one line per metric, then a final
//! JSON line `{"correct", "attempted", "failed", "metrics"}` holding the
//! metrics `BENCHMARK.json` lists for that mode. It exits non-zero when
//! any output check fails. See README.md in this directory.
//!
//! An end-to-end run measures in [`PARTS`] fresh processes of this binary,
//! started with the internal flag `--part 1`, which print tab-separated
//! records instead (`report.rs`).

mod layers;
mod report;
mod workloads;

use report::{Currency, Outcome};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Kind, Scale, Workload};

/// End-to-end runs split their seconds across this many part runs, each a
/// fresh process of this binary (`--part 1`) that sets up and measures on
/// its own, and report the median of the parts. On a shared 2-vCPU host
/// the fit time of one process differs from the next by up to 20%; the
/// median of three fresh processes halved the spread (IQR/median) in one
/// eight-run sweep.
const PARTS: usize = 3;

const USAGE: &str = "usage: perfbench --workload <fit_k16|fit_k256|serve_mixed> \
                     --seed <n> --seconds <s> --trace <0|1> [--scale full|smoke]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    /// Run as one part of an end-to-end run and print records.
    part: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut scale = Scale::Full;
    let mut part = false;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err(bad()),
                }
            }
            "--part" => part = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        scale,
        part,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workloads::workload(&args.workload, args.scale) else {
        eprintln!("perfbench: unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let (outcome, keep): (_, &[&str]) = if args.trace {
        let inputs = workloads::make_inputs(&w, args.seed);
        let o = layers::run(&w, &inputs, args.seed, args.seconds, args.scale);
        (o, &layers::PER_LAYER_METRICS)
    } else if args.part {
        let o = run_end_to_end(&w, args.seed, args.seconds);
        print!("{}", o.records());
        return exit_code(&o);
    } else {
        (run_parts(&args), &workloads::E2E_METRICS)
    };
    print!("{}", outcome.human_lines(w.name));
    println!("{}", outcome.result_line(keep));
    exit_code(&outcome)
}

fn exit_code(outcome: &Outcome) -> ExitCode {
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One end-to-end measurement in this process, tracing off.
fn run_end_to_end(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let inputs = workloads::make_inputs(w, seed);
    match w.kind {
        Kind::Fit => workloads::run_fit(w, &inputs, seed, seconds),
        Kind::Serve => workloads::run_serve(w, &inputs, seed, seconds),
    }
}

/// Split the end-to-end run into [`PARTS`] part runs of this binary, one
/// after another, and combine them. A part that dies counts as a failed
/// check; `fail_frac` is taken over all parts' checks.
fn run_parts(args: &Args) -> Outcome {
    let scale = match args.scale {
        Scale::Full => "full",
        Scale::Smoke => "smoke",
    };
    let seconds = args.seconds / PARTS as f64;
    let parts: Vec<Outcome> = (0..PARTS)
        .map(|_| {
            let out = std::env::current_exe().and_then(|exe| {
                Command::new(exe)
                    .args([
                        "--workload",
                        &args.workload,
                        "--seed",
                        &args.seed.to_string(),
                    ])
                    .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                    .args(["--scale", scale, "--part", "1"])
                    .stderr(Stdio::inherit())
                    .output()
            });
            let text = out.map(|o| String::from_utf8_lossy(&o.stdout).into_owned());
            let text = text.unwrap_or_else(|e| {
                eprintln!("perfbench: part run failed to start: {e}");
                String::new()
            });
            // Lines that are not records, such as a metric's n/a note.
            for line in text.lines() {
                if !line.starts_with("record\t") && !line.starts_with("checks\t") {
                    println!("{line}");
                }
            }
            Outcome::parse_records(&text).unwrap_or(Outcome {
                attempted: 1,
                failed: 1,
                ..Outcome::default()
            })
        })
        .collect();
    let mut all = Outcome::median_of(&parts);
    let fail_frac = all.failed as f64 / all.attempted.max(1) as f64;
    let attempted = all.attempted as usize;
    all.add("fail_frac", fail_frac, "frac", Currency::Count, attempted);
    all
}
