//! End-to-end device sanitizer behavior: deliberately buggy kernels must
//! produce exactly their expected findings, clean kernels must produce
//! empty reports, and reports must be byte-stable across executor policies.

use gpu_sim::sanitizer::{self, Checker, FindingKind, SanitizeConfig};
use gpu_sim::{Counters, DeviceProfile, Dim3, Executor, GlobalBuffer, LaunchConfig};
use std::sync::Arc;

fn cfg(blocks: usize) -> LaunchConfig {
    LaunchConfig {
        grid: Dim3::x(blocks),
        threads_per_block: 128,
        smem_bytes: 0,
    }
}

fn checker() -> Arc<Checker> {
    Arc::new(Checker::new(SanitizeConfig::all()))
}

#[test]
fn racy_accumulate_kernel_is_reported() {
    // Every block does a plain read-modify-write of cell 0 — the textbook
    // unsynchronized accumulate that atomicAdd exists to fix.
    let c = checker();
    let report = sanitizer::with_checker(&c, || {
        let exec = Executor::serial();
        let dev = DeviceProfile::a100();
        let counters = Counters::new();
        let accum = GlobalBuffer::<f32>::zeros(4);
        accum.set_sanitizer_label("accum");
        exec.launch_labeled(&dev, cfg(8), &counters, "racy_accumulate", |ctx| {
            let cur = accum.load(0);
            accum.store(0, cur + ctx.bx as f32);
        })
        .unwrap();
        let _ = accum.to_vec();
        c.report()
    });
    let ww = report.of_kind(FindingKind::RaceWriteWrite);
    assert_eq!(
        ww.len(),
        1,
        "one write-write race line: {}",
        report.to_text()
    );
    assert_eq!(ww[0].buffer, "accum");
    assert_eq!(ww[0].launch, "racy_accumulate");
    assert_eq!(ww[0].cells, 1);
    assert_eq!(ww[0].first_index, 0);
    assert_eq!(
        report.of_kind(FindingKind::RaceReadWrite).len(),
        1,
        "the unsynchronized load is a read-write race too"
    );
}

#[test]
fn disjoint_writes_and_atomics_are_clean() {
    // Each block writes its own cell and atomically increments a shared
    // counter — the correct pattern; racecheck must stay quiet.
    let c = checker();
    let report = sanitizer::with_checker(&c, || {
        let exec = Executor::with_workers(4);
        let dev = DeviceProfile::a100();
        let counters = Counters::new();
        let out = GlobalBuffer::<f32>::zeros(16);
        let total = GlobalBuffer::<u32>::zeros(1);
        out.set_sanitizer_label("out");
        total.set_sanitizer_label("total");
        exec.launch_labeled(&dev, cfg(16), &counters, "disjoint", |ctx| {
            out.store(ctx.bx, ctx.bx as f32);
            total.atomic_inc(0, ctx.counters);
        })
        .unwrap();
        let _ = (out.to_vec(), total.to_vec());
        c.report()
    });
    assert!(
        report.is_empty(),
        "unexpected findings:\n{}",
        report.to_text()
    );
}

#[test]
fn atomic_mixed_with_plain_store_is_reported() {
    let c = checker();
    let report = sanitizer::with_checker(&c, || {
        let exec = Executor::serial();
        let dev = DeviceProfile::a100();
        let counters = Counters::new();
        let buf = GlobalBuffer::<u32>::zeros(2);
        buf.set_sanitizer_label("mixed");
        exec.launch_labeled(&dev, cfg(4), &counters, "atomic_mix", |ctx| {
            if ctx.bx == 0 {
                buf.store(0, 7); // plain store...
            } else {
                buf.atomic_inc(0, ctx.counters); // ...races the atomics
            }
        })
        .unwrap();
        let _ = buf.to_vec();
        c.report()
    });
    let am = report.of_kind(FindingKind::RaceAtomicMix);
    assert_eq!(am.len(), 1, "{}", report.to_text());
    assert_eq!(am[0].buffer, "mixed");
}

#[test]
fn uninit_read_kernel_is_reported_and_full_overwrite_is_clean() {
    let c = checker();
    let report = sanitizer::with_checker(&c, || {
        let exec = Executor::serial();
        let dev = DeviceProfile::a100();
        let counters = Counters::new();

        // Scratch the kernel is supposed to fill before reading — but the
        // buggy kernel reads cell bx + 4 having only written bx.
        let scratch = GlobalBuffer::<f32>::uninit(8);
        scratch.set_sanitizer_label("scratch");
        exec.launch_labeled(&dev, cfg(4), &counters, "uninit_read", |ctx| {
            scratch.store(ctx.bx, 1.0);
            let _ = scratch.load(ctx.bx + 4);
        })
        .unwrap();

        // A correct kernel over a second uninit buffer: write, then read
        // the same cell. No finding.
        let ok = GlobalBuffer::<f32>::uninit(4);
        ok.set_sanitizer_label("ok_scratch");
        exec.launch_labeled(&dev, cfg(4), &counters, "writes_first", |ctx| {
            ok.store(ctx.bx, 2.0);
            let _ = ok.load(ctx.bx);
        })
        .unwrap();
        c.report()
    });
    let ui = report.of_kind(FindingKind::UninitLoad);
    assert_eq!(ui.len(), 1, "{}", report.to_text());
    assert_eq!(ui[0].buffer, "scratch");
    assert_eq!(ui[0].launch, "uninit_read");
    assert_eq!(ui[0].cells, 4);
    assert_eq!(ui[0].first_index, 4);
    assert!(report.of_kind(FindingKind::RaceWriteWrite).is_empty());
}

#[test]
fn oob_access_is_reported_not_fatal() {
    let c = checker();
    let report = sanitizer::with_checker(&c, || {
        let exec = Executor::serial();
        let dev = DeviceProfile::a100();
        let counters = Counters::new();
        let buf = GlobalBuffer::<f32>::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        buf.set_sanitizer_label("small");
        let idx = GlobalBuffer::<u32>::zeros(4);
        idx.set_sanitizer_label("small_idx");
        exec.launch_labeled(&dev, cfg(2), &counters, "oob_kernel", |ctx| {
            // Off-by-len indexing: reads return zero, stores are dropped,
            // the process survives to report every offender.
            let v = buf.load(buf.len() + ctx.bx);
            assert_eq!(v, 0.0, "suppressed OOB load reads zero");
            buf.store(buf.len() + 7, v);
            idx.store(99, 1);
        })
        .unwrap();
        assert_eq!(buf.to_vec(), vec![1.0, 2.0, 3.0, 4.0], "stores dropped");
        let _ = idx.to_vec();
        c.report()
    });
    let oob = report.of_kind(FindingKind::OutOfBounds);
    assert_eq!(oob.len(), 2, "{}", report.to_text());
    let buffers: Vec<&str> = oob.iter().map(|f| f.buffer.as_str()).collect();
    assert_eq!(buffers, vec!["small", "small_idx"]);
    assert_eq!(oob[0].cells, 4, "2 loads + 2 stores on `small`");
    assert_eq!(oob[0].launch, "oob_kernel");
}

#[test]
fn never_read_buffer_is_a_leak_finding() {
    let c = checker();
    let report = sanitizer::with_checker(&c, || {
        let exec = Executor::serial();
        let dev = DeviceProfile::a100();
        let counters = Counters::new();
        let used = GlobalBuffer::<f32>::zeros(4);
        used.set_sanitizer_label("used");
        let wasted = GlobalBuffer::<f32>::zeros(1024);
        wasted.set_sanitizer_label("wasted");
        exec.launch_labeled(&dev, cfg(4), &counters, "writer", |ctx| {
            used.store(ctx.bx, 1.0);
            wasted.store(ctx.bx, 1.0); // written but never read
        })
        .unwrap();
        let _ = used.to_vec();
        c.report()
    });
    let leaks = report.of_kind(FindingKind::LeakNeverRead);
    assert_eq!(leaks.len(), 1, "{}", report.to_text());
    assert_eq!(leaks[0].buffer, "wasted");
    assert_eq!(leaks[0].cells, 1024);
}

#[test]
fn race_findings_are_schedule_independent_and_reports_byte_stable() {
    // The same racy kernel under serial and heavily-parallel execution must
    // produce byte-identical reports: detection is from access *sets*, not
    // from observed interleavings.
    let run = |exec: Executor| {
        let c = checker();
        sanitizer::with_checker(&c, || {
            let dev = DeviceProfile::a100();
            let counters = Counters::new();
            let a = GlobalBuffer::<f32>::zeros(64);
            a.set_sanitizer_label("a");
            // Overlapping tiles: block b writes [4b, 4b+8), so consecutive
            // blocks collide on 4 cells each.
            exec.launch_labeled(&dev, cfg(8), &counters, "overlap", |ctx| {
                let base = ctx.bx * 4;
                for i in 0..8 {
                    if base + i < a.len() {
                        a.store(base + i, 1.0);
                    }
                }
            })
            .unwrap();
            let _ = a.to_vec();
            c.report().to_text()
        })
    };
    let serial = run(Executor::serial());
    let parallel = run(Executor::with_workers(8));
    assert_eq!(serial, parallel, "report must not depend on the schedule");
    assert!(serial.contains("race-write-write buffer=a launch=overlap cells=28 first=4"));
}

#[test]
fn buffers_allocated_outside_any_scope_are_never_checked() {
    let buf = GlobalBuffer::<f32>::zeros(4);
    buf.set_sanitizer_label("ignored"); // no-op without shadow state
    let c = checker();
    let report = sanitizer::with_checker(&c, || {
        let exec = Executor::serial();
        let dev = DeviceProfile::a100();
        let counters = Counters::new();
        exec.launch(&dev, cfg(4), &counters, |_| {
            let cur = buf.load(0);
            buf.store(0, cur + 1.0); // racy, but the buffer is untracked
        })
        .unwrap();
        c.report()
    });
    assert!(report.is_empty(), "{}", report.to_text());
}
