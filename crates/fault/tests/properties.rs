//! Property-based tests of the fault injector and campaign statistics.

use fault::{
    CampaignStats, FaultTarget, InjectionSchedule, Injector, InjectorConfig, PlannedInjection,
    SeuModel,
};
use gpu_sim::mma::{FaultHook, MmaSite};
use proptest::prelude::*;

fn site(block: (usize, usize), warp: usize, k: usize) -> MmaSite {
    MmaSite {
        block,
        warp,
        k_step: k,
        is_checksum: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every planned injection fires exactly once, regardless of how often
    /// the site recurs.
    #[test]
    fn planned_list_exhausts_once(
        n_plans in 1usize..6,
        repeats in 1usize..5,
    ) {
        let plans: Vec<PlannedInjection> = (0..n_plans)
            .map(|i| PlannedInjection {
                block: (i, 0),
                warp: 0,
                k_step: 8 * i,
                elem_idx: i,
                bit: 40,
                target_checksum: false,
            })
            .collect();
        let inj = Injector::planned(plans.clone());
        let mut acc = vec![1.0f64; n_plans.max(8)];
        for _ in 0..repeats {
            for p in &plans {
                <Injector as FaultHook<f64>>::post_mma(
                    &inj,
                    &site(p.block, p.warp, p.k_step),
                    &mut acc,
                    4,
                );
            }
        }
        prop_assert_eq!(inj.injected_count(), n_plans as u64);
    }

    /// The SEU cap bounds injections per block for any probability.
    #[test]
    fn seu_cap_holds(
        cap in 1u32..4,
        events in 1usize..60,
        seed in 0u64..500,
    ) {
        let inj = Injector::new(InjectorConfig {
            schedule: InjectionSchedule::PerBlock { probability: 1.0 },
            model: SeuModel { target: FaultTarget::Any, max_per_block: cap },
            seed,
            kernel_time_hint_s: 1.0,
            blocks_hint: 1,
            events_per_block_hint: 1,
        });
        let mut acc = vec![1.0f32; 16];
        for k in 0..events {
            <Injector as FaultHook<f32>>::post_mma(&inj, &site((0, 0), 0, k), &mut acc, 4);
        }
        prop_assert!(inj.injected_count() <= cap as u64);
    }

    /// Rate→probability conversion is always a probability and scales
    /// linearly below saturation.
    #[test]
    fn rate_conversion_bounds(
        rate in 0.0f64..1e7,
        kernel_us in 1.0f64..1e5,
        blocks in 1usize..100_000,
    ) {
        let s = InjectionSchedule::Rate { errors_per_second: rate };
        let p = s.per_block_probability(kernel_us * 1e-6, blocks);
        prop_assert!((0.0..=1.0).contains(&p));
        let p2 = InjectionSchedule::Rate { errors_per_second: rate * 2.0 }
            .per_block_probability(kernel_us * 1e-6, blocks);
        prop_assert!(p2 >= p);
    }

    /// Same seed ⇒ identical campaign, whatever order the blocks' hook
    /// calls interleave in: every draw is keyed by (seed, launch, block,
    /// per-block call ordinal), and the records come back in that order.
    #[test]
    fn campaigns_reproducible(seed in 0u64..1000) {
        let inj = || {
            Injector::new(InjectorConfig {
                schedule: InjectionSchedule::PerBlock { probability: 0.5 },
                model: SeuModel { target: FaultTarget::Any, max_per_block: 8 },
                seed,
                kernel_time_hint_s: 1.0,
                blocks_hint: 1,
                events_per_block_hint: 2,
            })
        };
        // Two blocks, 32 calls each, over two launches; each block has its
        // own accumulator. `order` lists the block of each successive call.
        let run = |inj: &Injector, order: &[usize]| {
            for _ in 0..2 {
                inj.begin_launch();
                let mut acc = [vec![1.0f64; 8], vec![2.0f64; 8]];
                let mut next = [0usize; 2];
                for &b in order {
                    let s = site((b, 0), 0, next[b]);
                    next[b] += 1;
                    <Injector as FaultHook<f64>>::post_mma(inj, &s, &mut acc[b], 4);
                }
            }
            // the magnitude can be NaN (and NaN != NaN): compare its bits
            inj.records()
                .into_iter()
                .map(|r| (r.block, r.warp, r.k_step, r.elem_idx, r.bit, r.magnitude.to_bits()))
                .collect::<Vec<_>>()
        };
        let blockwise: Vec<usize> = (0..64).map(|i| i / 32).collect();
        let interleaved: Vec<usize> = (0..64).map(|i| i % 2).collect();
        let a = run(&inj(), &blockwise);
        prop_assert_eq!(&a, &run(&inj(), &blockwise));
        prop_assert_eq!(&a, &run(&inj(), &interleaved));
    }

    /// `CampaignStats::merge` is commutative and associative, so per-shard
    /// stats can be folded in any order (the parallel campaign runner
    /// depends on this for byte-identical serial-vs-parallel tables).
    #[test]
    fn stats_merge_commutative_associative(
        a in arb_stats(),
        b in arb_stats(),
        c in arb_stats(),
    ) {
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        prop_assert_eq!(ab, ba);

        // (a + b) + c == a + (b + c)
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// `unhandled()` never underflows, even on inconsistent ledgers where
    /// the handled counts exceed the injected count.
    #[test]
    fn unhandled_never_underflows(s in arb_stats()) {
        let u = s.unhandled();
        prop_assert!(u <= s.injected);
        // classification partitions whatever unhandled() reports
        let mut sdc = s;
        sdc.classify_unhandled(true);
        let mut benign = s;
        benign.classify_unhandled(false);
        prop_assert_eq!(sdc.sdc, u);
        prop_assert_eq!(sdc.benign, 0);
        prop_assert_eq!(benign.benign, u);
        prop_assert_eq!(benign.sdc, 0);
    }
}

/// Arbitrary `CampaignStats`, including inconsistent ones (handled counts
/// larger than `injected`) — the accessors must stay total anyway. Bounded
/// well below `u64::MAX / 3` so triple-merges cannot overflow.
fn arb_stats() -> impl Strategy<Value = CampaignStats> {
    let f = 0u64..1_000_000;
    (
        (f.clone(), f.clone(), f.clone(), f.clone()),
        (f.clone(), f.clone(), f.clone(), f.clone()),
        (f.clone(), f.clone(), f.clone(), f),
    )
        .prop_map(
            |(
                (injected, detected, corrected, rebaselined),
                (recomputed, dmr_mismatches, clean_sweeps, benign),
                (sdc, injection_launches, saturated_launches, dmr_unresolved),
            )| CampaignStats {
                injected,
                detected,
                corrected,
                rebaselined,
                recomputed,
                dmr_mismatches,
                dmr_unresolved,
                clean_sweeps,
                benign,
                sdc,
                injection_launches,
                saturated_launches,
            },
        )
}
