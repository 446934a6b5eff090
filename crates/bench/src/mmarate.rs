//! The MMA micro-kernel's measured rate next to the host's mul+add peak,
//! reported on `bench_check`'s first line and not gated.
//!
//! Both rates are host wall-clock on one thread, best of a few timed runs,
//! at the vector width of the path the micro-kernel runs
//! ([`gpu_sim::mma::isa`]). The kernel keeps every product and sum a
//! separate multiply and add, so the peak to hold it against is the
//! host's separate mul+add rate, not its fused multiply-add rate.

use gpu_sim::mma::{APanel, BPanel, FragmentMma};
use gpu_sim::{CounterSink, Counters};
use std::hint::black_box;
use std::time::Instant;

/// The fp32 default warp slab: a 64×32 warp tile, 8 deep (one TF32
/// `mma.sync` k-step).
pub const SLAB: (usize, usize, usize) = (64, 32, 8);

/// Timed runs per rate; the best is reported.
const RUNS: usize = 5;

/// GFLOP/s of [`FragmentMma::mma_panel`] on the [`SLAB`] (2·64·32·8 flops
/// per call), called `calls` times per run as the tensor kernel calls it:
/// one slab at a time into the same accumulator.
pub fn kernel_gflops(calls: usize) -> f64 {
    let (wm, wn, kk) = SLAB;
    let value = |i: usize| ((i * 2_654_435_761) % 1000) as f32 / 500.0 - 1.0;
    let a: Vec<f32> = (0..wm * kk).map(value).collect();
    let b: Vec<f32> = (0..wn * kk).map(|i| value(i + 7)).collect();
    let (mut ap, mut bp) = (APanel::default(), BPanel::default());
    ap.stage(&a, kk);
    bp.stage(&b, kk);
    let exec = FragmentMma::new::<f32>(wm, wn);
    let counters = Counters::new();
    let sink = CounterSink::new(&counters);
    best_rate((2 * wm * wn * kk * calls) as f64, || {
        let mut acc = vec![0.0f32; wm * wn];
        for _ in 0..calls {
            exec.mma_panel(
                black_box(&mut acc),
                &ap,
                &bp,
                (0, 0, 0),
                (wm, wn),
                kk,
                &sink,
            );
        }
        black_box(&acc);
    })
}

/// GFLOP/s of separate multiplies and adds at the vector width of the
/// micro-kernel's path (SSE for the portable path): 8 independent sums
/// `s += x·y`, `x` read from a ring of 64 vectors so that no product is
/// loop-invariant. That is as many sums as the AVX-512 block keeps, and
/// enough to hide the add latency, so the loop runs at the core's mul+add
/// issue rate. `None` off x86-64.
pub fn mul_add_peak_gflops(rounds: usize) -> Option<f64> {
    #[cfg(target_arch = "x86_64")]
    {
        let flops = |lanes: usize| (2 * RING * SUMS * lanes * rounds) as f64;
        Some(match gpu_sim::mma::isa() {
            // SAFETY: the path is named for a feature the CPU has.
            "avx512f" => best_rate(flops(16), || unsafe { peak::avx512f(rounds) }),
            // SAFETY: as above.
            "avx2" => best_rate(flops(8), || unsafe { peak::avx2(rounds) }),
            // SAFETY: SSE is part of every x86-64 CPU.
            _ => best_rate(flops(4), || unsafe { peak::sse(rounds) }),
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = rounds;
        None
    }
}

/// Ring entries and independent sums of the peak loop.
const RING: usize = 64;
const SUMS: usize = 8;

/// The peak loop at each x86-64 vector width. Callable only where the CPU
/// has the feature.
#[cfg(target_arch = "x86_64")]
mod peak {
    use super::{RING, SUMS};
    use std::arch::x86_64::*;
    use std::hint::black_box;

    macro_rules! mul_add_loop {
        ($name:ident, $feature:literal, $set1:ident, $zero:ident, $add:ident, $mul:ident) => {
            #[target_feature(enable = $feature)]
            pub(super) fn $name(rounds: usize) {
                let mut ring = [$zero(); RING];
                for (i, x) in ring.iter_mut().enumerate() {
                    *x = $set1(1.0 + i as f32 * 1e-4);
                }
                let mut y = [$zero(); SUMS];
                for (c, y) in y.iter_mut().enumerate() {
                    *y = $set1(0.5 + c as f32 * 1e-3);
                }
                let mut s = [$zero(); SUMS];
                for _ in 0..rounds {
                    for x in black_box(&ring) {
                        for (s, y) in s.iter_mut().zip(&y) {
                            *s = $add(*s, $mul(*x, *y));
                        }
                    }
                }
                black_box(s);
            }
        };
    }

    mul_add_loop!(
        avx512f,
        "avx512f",
        _mm512_set1_ps,
        _mm512_setzero_ps,
        _mm512_add_ps,
        _mm512_mul_ps
    );
    mul_add_loop!(
        avx2,
        "avx2",
        _mm256_set1_ps,
        _mm256_setzero_ps,
        _mm256_add_ps,
        _mm256_mul_ps
    );
    mul_add_loop!(
        sse,
        "sse",
        _mm_set1_ps,
        _mm_setzero_ps,
        _mm_add_ps,
        _mm_mul_ps
    );
}

/// The best of [`RUNS`] timed runs of `run`, as GFLOP/s for `flops`
/// operations per run.
fn best_rate(flops: f64, mut run: impl FnMut()) -> f64 {
    let best = (0..RUNS)
        .map(|_| {
            let t = Instant::now();
            run();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    flops / best / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_rates_are_positive_and_finite() {
        let peak = mul_add_peak_gflops(4);
        assert_eq!(peak.is_some(), cfg!(target_arch = "x86_64"));
        for rate in [kernel_gflops(8)].into_iter().chain(peak) {
            assert!(rate.is_finite() && rate > 0.0, "{rate}");
        }
    }
}
