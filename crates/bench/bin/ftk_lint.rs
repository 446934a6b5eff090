//! `ftk-lint` — workspace source lint for rules `cargo clippy` cannot see.
//!
//! A std-only source scanner over `crates/*/src`, enforcing repo-specific
//! invariants that live above the language level:
//!
//! * `raw-access`  — in `crates/kmeans/src/variants/`, per-element
//!   `.load(` / `.store(` bypass the coalesced-run accessors and the byte
//!   counters feeding the timing model. Use
//!   `load_counted` / `store_counted` / `read_range` / `write_range` /
//!   `load_run` / `store_run`, or annotate the line with
//!   `ftk-lint: allow(raw-access)` and say why (index traffic — labels
//!   and counts in a `GlobalBuffer<u32>` — is not byte-counted by design;
//!   host-side single-cell readbacks are fine).
//! * `serve-unwrap` — in `crates/serve/src/`, `.unwrap()` / `.expect(` on a
//!   request path turns a recoverable condition (lock poisoning, a malformed
//!   batch) into a server-killing panic. Recover poisoned locks with
//!   `unwrap_or_else(|e| e.into_inner())` or return a `ServeError`;
//!   `ftk-lint: allow(serve-unwrap)` marks audited invariants.
//! * `entry-unwrap` — the same check on the estimator's public fit/predict
//!   entry points (`crates/kmeans/src/{driver,model,minibatch}.rs`): bad
//!   input or a device failure there is a `KMeansError` for the caller,
//!   not a panic. `ftk-lint: allow(entry-unwrap)` marks audited invariants.
//! * `label-unique` — kernel-launch labels (`launch_grid_labeled`,
//!   `launch_grid_scratch`, `launch_labeled`) must be globally unique so
//!   sanitizer findings, trace phases and fault-campaign site attribution
//!   are unambiguous. The `"kernel"` default used by unlabeled launches is
//!   exempt.
//! * `site-unique` — two textually identical `MmaSite { .. }` literals in
//!   one file alias the same fault-injection site id, so an injection
//!   targeting one silently hits both.
//! * `env-knob` — a string literal naming an `FTK_*` environment variable
//!   must name one of [`KNOBS`]: the executor, trace and sanitizer
//!   bootstrap set plus the selector-cache deployment path. Anything else
//!   is a constant or a flag of the binary that needs it. Unlike the rules
//!   above, which cover `crates/*/src`, this one covers every Rust file in
//!   the workspace: bins, tests, examples and the facade too.
//!
//! Doc comments, line comments and `#[cfg(test)] mod` bodies are skipped.
//! Findings print one per line sorted by `(file, line)`; exit status is 1
//! when any rule fires, 0 otherwise. Run from anywhere:
//! `cargo run -p bench_harness --bin ftk-lint`.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One rule violation at a source location.
struct LintFinding {
    rule: &'static str,
    file: String,
    line: usize,
    message: String,
}

fn main() {
    // crates/bench/ -> workspace root, so the bin works from any cwd.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/bench")
        .to_path_buf();
    let findings = run_lint(&root);
    let mut out = String::new();
    for f in &findings {
        let _ = writeln!(
            out,
            "ftk-lint: {} {}:{} {}",
            f.rule, f.file, f.line, f.message
        );
    }
    print!("{out}");
    if findings.is_empty() {
        eprintln!("ftk-lint: OK — no findings");
    } else {
        eprintln!("ftk-lint: FAILED — {} finding(s)", findings.len());
        std::process::exit(1);
    }
}

fn run_lint(root: &Path) -> Vec<LintFinding> {
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        collect_rs(&root.join(dir), &mut files);
    }
    files.sort();

    let mut findings = Vec::new();
    // label -> (file, line) of first sighting; the "kernel" default used by
    // unlabeled Executor::launch may repeat.
    let mut labels: HashMap<String, (String, usize)> = HashMap::new();

    for path in &files {
        let rel = path.strip_prefix(root).unwrap_or(path);
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        lint_file(&rel_str, &text, &mut labels, &mut findings);
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// The estimator's public fit/predict entry points, held to `entry-unwrap`.
const ENTRY_FILES: [&str; 3] = [
    "crates/kmeans/src/driver.rs",
    "crates/kmeans/src/model.rs",
    "crates/kmeans/src/minibatch.rs",
];

/// The `FTK_*` environment variables the workspace reads.
const KNOBS: [&str; 5] = [
    "FTK_EXEC",
    "FTK_WORKERS",
    "FTK_TRACE",
    "FTK_SANITIZE",
    "FTK_SELECTOR_CACHE",
];

/// Run every rule that applies to the file at workspace-relative `rel`.
fn lint_file(
    rel: &str,
    text: &str,
    labels: &mut HashMap<String, (String, usize)>,
    findings: &mut Vec<LintFinding>,
) {
    let lines = scannable_lines(text);
    lint_env_knobs(rel, &lines, findings);
    // The other rules cover shipped code only: crates/*/src, not tests/ or
    // bin/ (this linter and the harness bins drive the checks, they are
    // not kernel or request-path code).
    if !rel.starts_with("crates/") || !rel.contains("/src/") {
        return;
    }
    if rel.starts_with("crates/kmeans/src/variants/") {
        lint_raw_access(rel, &lines, findings);
    }
    if rel.starts_with("crates/serve/src/") {
        lint_unwrap(
            "serve-unwrap",
            "on a serve request path; recover (e.g. `unwrap_or_else(|e| e.into_inner())` \
             for locks) or return a ServeError",
            rel,
            &lines,
            findings,
        );
    }
    if ENTRY_FILES.contains(&rel) {
        lint_unwrap(
            "entry-unwrap",
            "on a public fit/predict entry path; return a KMeansError",
            rel,
            &lines,
            findings,
        );
    }
    lint_labels(rel, &lines, labels, findings);
    lint_mma_sites(rel, &lines, findings);
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Source lines with comments blanked and `#[cfg(test)] mod` bodies removed,
/// keeping line numbers stable (1-based alongside the original file). A line
/// carrying an `ftk-lint: allow(rule)` marker records it for itself and the
/// following line.
struct ScanLine {
    number: usize,
    code: String,
    allows: Vec<String>,
}

fn scannable_lines(text: &str) -> Vec<ScanLine> {
    let mut out = Vec::new();
    let mut in_test_mod = false;
    let mut test_depth = 0usize;
    let mut pending_cfg_test = false;
    let mut pending_allows: Vec<String> = Vec::new();

    for (i, raw) in text.lines().enumerate() {
        let mut allows = std::mem::take(&mut pending_allows);
        for marker in raw.split("ftk-lint: allow(").skip(1) {
            if let Some(end) = marker.find(')') {
                allows.push(marker[..end].trim().to_string());
            }
        }
        // Markers on a comment-only line also cover the next line.
        if raw.trim_start().starts_with("//") {
            pending_allows = allows.clone();
        }

        let code = strip_line_comment(raw);
        let trimmed = code.trim();

        if in_test_mod {
            test_depth += brace_delta_open(trimmed);
            let closes = brace_delta_close(trimmed);
            if closes >= test_depth {
                in_test_mod = false;
                test_depth = 0;
            } else {
                test_depth -= closes;
            }
            continue;
        }
        if pending_cfg_test && trimmed.starts_with("mod ") {
            pending_cfg_test = false;
            in_test_mod = true;
            test_depth = brace_delta_open(trimmed).saturating_sub(brace_delta_close(trimmed));
            if test_depth == 0 && trimmed.ends_with(';') {
                in_test_mod = false; // out-of-line `mod tests;`
            }
            continue;
        }
        if trimmed.contains("#[cfg(test)]") {
            pending_cfg_test = true;
            continue;
        }
        if trimmed.is_empty() {
            continue;
        }
        pending_cfg_test = false;
        out.push(ScanLine {
            number: i + 1,
            code,
            allows,
        });
    }
    out
}

fn strip_line_comment(line: &str) -> String {
    // Good enough for this workspace: `//` inside string literals does not
    // occur on lines any rule matches.
    match line.find("//") {
        Some(pos) => line[..pos].to_string(),
        None => line.to_string(),
    }
}

fn brace_delta_open(s: &str) -> usize {
    s.matches('{').count()
}

fn brace_delta_close(s: &str) -> usize {
    s.matches('}').count()
}

fn lint_raw_access(file: &str, lines: &[ScanLine], findings: &mut Vec<LintFinding>) {
    for l in lines {
        if l.allows.iter().any(|a| a == "raw-access") {
            continue;
        }
        for pat in [".load(", ".store("] {
            if l.code.contains(pat) {
                findings.push(LintFinding {
                    rule: "raw-access",
                    file: file.to_string(),
                    line: l.number,
                    message: format!(
                        "per-element `{pat}..)` in a variant hot path; use the counted or \
                         run accessors, or annotate `ftk-lint: allow(raw-access)` with a reason \
                         (index traffic on a `GlobalBuffer<u32>` is not byte-counted by design)"
                    ),
                });
            }
        }
    }
}

/// `.unwrap()` / `.expect(` under `rule`, unless the line allows it.
fn lint_unwrap(
    rule: &'static str,
    hint: &str,
    file: &str,
    lines: &[ScanLine],
    findings: &mut Vec<LintFinding>,
) {
    for l in lines {
        if l.allows.iter().any(|a| a == rule) {
            continue;
        }
        for pat in [".unwrap()", ".expect("] {
            if l.code.contains(pat) {
                findings.push(LintFinding {
                    rule,
                    file: file.to_string(),
                    line: l.number,
                    message: format!("`{pat}` {hint}"),
                });
            }
        }
    }
}

fn lint_labels(
    file: &str,
    lines: &[ScanLine],
    labels: &mut HashMap<String, (String, usize)>,
    findings: &mut Vec<LintFinding>,
) {
    const CALLS: [&str; 3] = [
        "launch_grid_labeled(",
        "launch_grid_scratch(",
        "launch_labeled(",
    ];
    for (i, l) in lines.iter().enumerate() {
        if !CALLS.iter().any(|c| l.code.contains(c)) || l.code.contains("fn ") {
            continue;
        }
        // The label is the first string literal at or shortly after the call
        // site (labels are `&'static str` literals by convention).
        let label = lines[i..lines.len().min(i + 4)]
            .iter()
            .find_map(|cand| extract_str_literal(&cand.code));
        let Some(label) = label else { continue };
        if label == "kernel" {
            continue; // default for unlabeled Executor::launch
        }
        match labels.get(&label) {
            None => {
                labels.insert(label, (file.to_string(), l.number));
            }
            Some((first_file, first_line)) => {
                findings.push(LintFinding {
                    rule: "label-unique",
                    file: file.to_string(),
                    line: l.number,
                    message: format!(
                        "kernel label \"{label}\" already used at {first_file}:{first_line}; \
                         labels key sanitizer findings and trace phases and must be unique"
                    ),
                });
            }
        }
    }
}

/// The variable-name prefix, split so this line is not itself a literal
/// the rule matches.
const KNOB_PREFIX: &str = concat!("FTK", "_");

fn lint_env_knobs(file: &str, lines: &[ScanLine], findings: &mut Vec<LintFinding>) {
    for l in lines {
        for (pos, _) in l.code.match_indices(KNOB_PREFIX) {
            if !l.code[..pos].ends_with('"') {
                continue;
            }
            let name: String = l.code[pos..]
                .chars()
                .take_while(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_')
                .collect();
            if !KNOBS.contains(&name.as_str()) {
                findings.push(LintFinding {
                    rule: "env-knob",
                    file: file.to_string(),
                    line: l.number,
                    message: format!(
                        "`{name}` is not one of the workspace's environment variables ({}); \
                         make it a constant or a flag of the binary that needs it",
                        KNOBS.join(", ")
                    ),
                });
            }
        }
    }
}

fn extract_str_literal(code: &str) -> Option<String> {
    let start = code.find('"')?;
    let rest = &code[start + 1..];
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

fn lint_mma_sites(file: &str, lines: &[ScanLine], findings: &mut Vec<LintFinding>) {
    // Signature = the field lines of the literal, whitespace-normalized.
    // Two identical signatures in one file alias one injection site id.
    let mut seen: HashMap<String, usize> = HashMap::new();
    for (i, l) in lines.iter().enumerate() {
        if !l.code.contains("MmaSite {") || l.code.contains("struct") {
            continue;
        }
        let mut depth = brace_delta_open(&l.code) - brace_delta_close(&l.code);
        let mut sig = String::new();
        let mut j = i + 1;
        while depth > 0 && j < lines.len() {
            let body = lines[j].code.trim();
            depth += brace_delta_open(body);
            depth = depth.saturating_sub(brace_delta_close(body));
            if depth > 0 {
                sig.push_str(&body.split_whitespace().collect::<Vec<_>>().join(" "));
                sig.push(';');
            }
            j += 1;
        }
        if sig.is_empty() {
            continue;
        }
        match seen.get(&sig) {
            None => {
                seen.insert(sig, l.number);
            }
            Some(first) => {
                findings.push(LintFinding {
                    rule: "site-unique",
                    file: file.to_string(),
                    line: l.number,
                    message: format!(
                        "MmaSite literal identical to the one at line {first}; duplicate \
                         fault-injection site ids make campaign attribution ambiguous"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(rel: &str, text: &str) -> Vec<LintFinding> {
        let mut findings = Vec::new();
        lint_file(rel, text, &mut HashMap::new(), &mut findings);
        findings
    }

    #[test]
    fn unwrap_in_an_entry_file_fires() {
        let text = "pub fn fit() {\n    let x = run().unwrap();\n}\n";
        for rel in ENTRY_FILES {
            let found = lint(rel, text);
            assert_eq!(found.len(), 1, "{rel}");
            assert_eq!((found[0].rule, found[0].line), ("entry-unwrap", 2));
        }
        let text = "fn f() {\n    g().expect(\"g\");\n}\n";
        assert_eq!(lint(ENTRY_FILES[0], text)[0].rule, "entry-unwrap");
        // Other kmeans files are not entry points.
        assert!(lint("crates/kmeans/src/update.rs", text).is_empty());
    }

    #[test]
    fn unwrap_in_a_test_module_is_skipped() {
        let text = "pub fn fit() {}\n\n#[cfg(test)]\nmod tests {\n    \
                    #[test]\n    fn t() {\n        run().unwrap();\n    }\n}\n";
        assert!(lint(ENTRY_FILES[1], text).is_empty());
    }

    #[test]
    fn allowed_unwrap_is_skipped() {
        let same_line = "fn f() {\n    g().unwrap(); // ftk-lint: allow(entry-unwrap)\n}\n";
        assert!(lint(ENTRY_FILES[2], same_line).is_empty());
        let line_above = "fn f() {\n    // ftk-lint: allow(entry-unwrap) g never fails\n    \
                          g().unwrap();\n}\n";
        assert!(lint(ENTRY_FILES[2], line_above).is_empty());
        // The serve rule's marker does not cover an entry file.
        let other = "fn f() {\n    g().unwrap(); // ftk-lint: allow(serve-unwrap)\n}\n";
        assert_eq!(lint(ENTRY_FILES[2], other).len(), 1);
    }

    #[test]
    fn unknown_knob_literal_fires() {
        let text =
            format!("fn main() {{\n    let m = env_usize(\"{KNOB_PREFIX}BENCH_M\", 1);\n}}\n");
        // In a bin and in shipped code alike.
        for rel in [
            "crates/bench/bin/bench_check.rs",
            "crates/kmeans/src/session.rs",
        ] {
            let found = lint(rel, &text);
            assert_eq!(found.len(), 1, "{rel}");
            assert_eq!((found[0].rule, found[0].line), ("env-knob", 2));
            assert!(found[0].message.contains("BENCH_M"));
        }
    }

    #[test]
    fn allowed_knob_literals_pass() {
        for knob in KNOBS {
            let text = format!("fn f() {{\n    std::env::var(\"{knob}\");\n}}\n");
            assert!(
                lint("crates/gpu-sim/src/exec.rs", &text).is_empty(),
                "{knob}"
            );
        }
        // A value after the name is still the allowed name; a longer name
        // is not.
        let text = format!("const A: &str = \"{}=serial\";\n", KNOBS[0]);
        assert!(lint("src/lib.rs", &text).is_empty());
        let text = format!("const A: &str = \"{}_M\";\n", KNOBS[3]);
        assert_eq!(lint("src/lib.rs", &text).len(), 1);
    }

    #[test]
    fn knob_literal_in_a_test_module_is_skipped() {
        let text = format!(
            "pub fn f() {{}}\n\n#[cfg(test)]\nmod tests {{\n    #[test]\n    fn t() {{\n        \
             std::env::set_var(\"{KNOB_PREFIX}BENCH_M\", \"8\");\n    }}\n}}\n"
        );
        assert!(lint("crates/bench/src/fitbench.rs", &text).is_empty());
    }
}
