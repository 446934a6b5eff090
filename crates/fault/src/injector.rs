//! The seeded fault injector — a [`gpu_sim::FaultHook`] implementation.
//!
//! Two operating modes:
//!
//! * **random** — per the paper's §II-A protocol, each threadblock is an
//!   independent victim candidate; the per-block probability derives from
//!   the schedule (a rate in errors/second spread over the launch). Within
//!   a stricken block a uniformly random MMA event, accumulator element and
//!   bit position are corrupted; the SEU cap (`max_per_block`) is enforced.
//! * **planned** — deterministic injections at named (block, warp, k_step)
//!   sites for reproducible unit tests.
//!
//! Every random draw is keyed: it is a pure function of `(seed, launch,
//! block, ordinal)`, where `ordinal` counts the hook calls the block has made
//! in the current launch. A block's calls come from one simulated
//! threadblock in program order, so the fault sites do not depend on how
//! the executor schedules blocks, and [`Injector::records`] sorts by the same
//! key. The ordinal keeps calls at an identical [`MmaSite`] apart: DMR
//! replicas and the samples of one update tile share a site, and must not
//! be struck alike.

use crate::model::SeuModel;
use crate::schedule::{InjectionSchedule, RateRealization};
use crate::stats::InjectionRecord;
use gpu_sim::mma::{FaultHook, MmaSite};
use gpu_sim::Scalar;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// The SplitMix64 finalizer: a cheap, well-mixed `u64 → u64` bijection for
/// deriving independent seeds from structured keys.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic injection order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedInjection {
    /// Victim threadblock.
    pub block: (usize, usize),
    /// Victim warp within the block.
    pub warp: usize,
    /// K-step of the MMA slab to corrupt (matched exactly).
    pub k_step: usize,
    /// Accumulator element index to flip.
    pub elem_idx: usize,
    /// Bit position to flip.
    pub bit: u32,
    /// Whether to strike a checksum MMA instead of payload.
    pub target_checksum: bool,
}

/// Injector configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectorConfig {
    pub schedule: InjectionSchedule,
    pub model: SeuModel,
    /// RNG seed (campaigns are reproducible).
    pub seed: u64,
    /// Estimated kernel duration (converts a rate schedule into per-block
    /// probability).
    pub kernel_time_hint_s: f64,
    /// Threadblocks in the launch.
    pub blocks_hint: usize,
    /// Eligible MMA events per block (warps × k-slabs), used to spread the
    /// per-block probability across events.
    pub events_per_block_hint: u64,
}

/// Where a hook call falls in the schedule-independent order:
/// `(launch, block, ordinal)`.
type DrawKey = (u64, (usize, usize), u64);

/// One block's tally within the current launch.
#[derive(Debug)]
struct BlockTally {
    /// splitmix64 chained over (seed, launch, block): the part of every
    /// draw key this block's calls share.
    prefix: u64,
    /// Hook calls so far (the next call's ordinal).
    calls: u64,
    /// Faults injected so far (the SEU cap applies to this).
    hits: u32,
}

#[derive(Debug, Default)]
struct InjectorState {
    /// Launches begun so far ([`Injector::begin_launch`]).
    launch: u64,
    blocks: HashMap<(usize, usize), BlockTally>,
    records: Vec<(DrawKey, InjectionRecord)>,
    planned: Vec<PlannedInjection>,
}

/// Thread-safe fault injector shared by all simulated threadblocks.
#[derive(Debug)]
pub struct Injector {
    cfg: InjectorConfig,
    p_event: f64,
    state: Mutex<InjectorState>,
}

impl Injector {
    /// Random-mode injector.
    pub fn new(cfg: InjectorConfig) -> Self {
        let p_block = cfg
            .schedule
            .per_block_probability(cfg.kernel_time_hint_s, cfg.blocks_hint.max(1));
        let p_event = if cfg.events_per_block_hint == 0 {
            0.0
        } else {
            (p_block / cfg.events_per_block_hint as f64).clamp(0.0, 1.0)
        };
        Injector {
            cfg,
            p_event,
            state: Mutex::default(),
        }
    }

    /// Planned-mode injector: fire exactly the given injections.
    pub fn planned(injections: Vec<PlannedInjection>) -> Self {
        let cfg = InjectorConfig {
            schedule: InjectionSchedule::Off,
            model: SeuModel {
                max_per_block: u32::MAX,
                ..SeuModel::default()
            },
            seed: 0,
            kernel_time_hint_s: 0.0,
            blocks_hint: 0,
            events_per_block_hint: 0,
        };
        Injector {
            cfg,
            p_event: 0.0,
            state: Mutex::new(InjectorState {
                planned: injections,
                ..InjectorState::default()
            }),
        }
    }

    /// Injections performed so far, ordered by (launch, block, per-block
    /// call ordinal) — the same order whatever the block schedule.
    pub fn records(&self) -> Vec<InjectionRecord> {
        let mut keyed = self.state.lock().records.clone();
        keyed.sort_by_key(|&(key, _)| key);
        keyed.into_iter().map(|(_, r)| r).collect()
    }

    /// Number of injections performed.
    pub fn injected_count(&self) -> u64 {
        self.state.lock().records.len() as u64
    }

    /// Start a new launch: the SEU cap and the per-block call ordinals
    /// restart, and later draws are keyed by the new launch index. Call
    /// between kernel launches. Keeps the records.
    pub fn begin_launch(&self) {
        let mut st = self.state.lock();
        st.launch += 1;
        st.blocks.clear();
    }

    /// Effective per-event probability (test introspection).
    pub fn p_event(&self) -> f64 {
        self.p_event
    }

    /// Requested vs. achievable injection rate under this injector's
    /// schedule and launch-shape hints. When a [`InjectionSchedule::Rate`]
    /// saturates the per-block probability clamp, `achieved_hz` falls
    /// short of `requested_hz` — campaigns report that shortfall instead
    /// of silently under-injecting.
    pub fn realization(&self) -> RateRealization {
        self.cfg
            .schedule
            .realization(self.cfg.kernel_time_hint_s, self.cfg.blocks_hint.max(1))
    }

    /// `mma_event` distinguishes tensor-core MMA slabs (`post_mma`) from
    /// scalar SIMT FMA results (`post_fma`) so the [`FaultTarget`] can
    /// restrict a campaign to one stream — e.g. `PayloadMma` covers exactly
    /// the distance accumulators, leaving the DMR-protected update phase
    /// unstruck, per the paper's §V-C protocol.
    fn corrupt_slice<T: Scalar>(&self, site: &MmaSite, acc: &mut [T], mma_event: bool) {
        if acc.is_empty() {
            return;
        }
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let launch = st.launch;
        let tally = st.blocks.entry(site.block).or_insert_with(|| {
            let fields = [launch, site.block.0 as u64, site.block.1 as u64];
            BlockTally {
                prefix: fields
                    .into_iter()
                    .fold(splitmix64(self.cfg.seed), |h, f| splitmix64(h ^ f)),
                calls: 0,
                hits: 0,
            }
        });
        let key = (launch, site.block, tally.calls);
        tally.calls += 1;

        // Planned mode: exact site match.
        if !st.planned.is_empty() {
            if let Some(pos) = st.planned.iter().position(|p| {
                p.block == site.block
                    && p.warp == site.warp
                    && p.k_step == site.k_step
                    && p.target_checksum == site.is_checksum
            }) {
                let p = st.planned.remove(pos);
                let rec = flip(
                    site,
                    acc,
                    p.elem_idx.min(acc.len() - 1),
                    p.bit.min(T::BITS - 1),
                );
                st.records.push((key, rec));
            }
            return;
        }

        // Random mode.
        if self.p_event <= 0.0 {
            return;
        }
        let eligible = if site.is_checksum {
            self.cfg.model.target.allows_checksum()
        } else if mma_event {
            self.cfg.model.target.allows_payload_mma()
        } else {
            self.cfg.model.target.allows_fma()
        };
        if !eligible || tally.hits >= self.cfg.model.max_per_block {
            return;
        }
        let mut rng = StdRng::seed_from_u64(splitmix64(tally.prefix ^ key.2));
        if rng.random::<f64>() >= self.p_event {
            return;
        }
        let idx = rng.random_range(0..acc.len());
        let bit = rng.random_range(0..T::BITS);
        tally.hits += 1;
        let rec = flip(site, acc, idx, bit);
        st.records.push((key, rec));
    }
}

/// Flip `bit` of `acc[idx]` and describe the injection.
fn flip<T: Scalar>(site: &MmaSite, acc: &mut [T], idx: usize, bit: u32) -> InjectionRecord {
    let old = acc[idx];
    let new = old.flip_bit(bit);
    acc[idx] = new;
    InjectionRecord {
        block: site.block,
        warp: site.warp,
        k_step: site.k_step,
        hit_checksum: site.is_checksum,
        elem_idx: idx,
        bit,
        width: T::BITS,
        magnitude: (new.to_f64() - old.to_f64()).abs(),
    }
}

impl<T: Scalar> FaultHook<T> for Injector {
    fn post_mma(&self, site: &MmaSite, acc: &mut [T], _wn: usize) {
        self.corrupt_slice(site, acc, true);
    }

    fn post_fma(&self, site: &MmaSite, value: T) -> T {
        let mut one = [value];
        self.corrupt_slice(site, &mut one, false);
        one[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FaultTarget;

    fn site(block: (usize, usize), warp: usize, k: usize, cs: bool) -> MmaSite {
        MmaSite {
            block,
            warp,
            k_step: k,
            is_checksum: cs,
        }
    }

    #[test]
    fn planned_injection_fires_exactly_once() {
        let inj = Injector::planned(vec![PlannedInjection {
            block: (1, 2),
            warp: 0,
            k_step: 16,
            elem_idx: 3,
            bit: 30,
            target_checksum: false,
        }]);
        let mut acc = vec![1.0f32; 8];
        // wrong site: nothing
        <Injector as FaultHook<f32>>::post_mma(&inj, &site((0, 0), 0, 16, false), &mut acc, 4);
        assert_eq!(acc, vec![1.0; 8]);
        // right site: flips
        <Injector as FaultHook<f32>>::post_mma(&inj, &site((1, 2), 0, 16, false), &mut acc, 4);
        assert_ne!(acc[3], 1.0);
        // fires only once
        let snapshot = acc.clone();
        <Injector as FaultHook<f32>>::post_mma(&inj, &site((1, 2), 0, 16, false), &mut acc, 4);
        assert_eq!(acc, snapshot);
        assert_eq!(inj.injected_count(), 1);
        let rec = &inj.records()[0];
        assert_eq!(rec.bit, 30);
        assert_eq!(rec.elem_idx, 3);
        assert!(rec.magnitude > 0.0);
    }

    #[test]
    fn random_mode_respects_seu_cap() {
        let inj = Injector::new(InjectorConfig {
            schedule: InjectionSchedule::PerBlock { probability: 1.0 },
            model: SeuModel {
                target: FaultTarget::Any,
                max_per_block: 1,
            },
            seed: 7,
            kernel_time_hint_s: 1.0,
            blocks_hint: 1,
            events_per_block_hint: 1, // p_event = 1
        });
        let mut acc = vec![1.0f64; 4];
        for k in 0..10 {
            <Injector as FaultHook<f64>>::post_mma(&inj, &site((0, 0), 0, k, false), &mut acc, 2);
        }
        assert_eq!(inj.injected_count(), 1, "SEU cap = 1 per block");
        // a different block may also be struck
        let mut acc2 = vec![1.0f64; 4];
        <Injector as FaultHook<f64>>::post_mma(&inj, &site((0, 1), 0, 0, false), &mut acc2, 2);
        assert_eq!(inj.injected_count(), 2);
    }

    #[test]
    fn begin_launch_resets_cap() {
        let inj = Injector::new(InjectorConfig {
            schedule: InjectionSchedule::PerBlock { probability: 1.0 },
            model: SeuModel {
                target: FaultTarget::Any,
                max_per_block: 1,
            },
            seed: 3,
            kernel_time_hint_s: 1.0,
            blocks_hint: 1,
            events_per_block_hint: 1,
        });
        let mut acc = vec![2.0f32; 2];
        <Injector as FaultHook<f32>>::post_mma(&inj, &site((0, 0), 0, 0, false), &mut acc, 2);
        <Injector as FaultHook<f32>>::post_mma(&inj, &site((0, 0), 0, 8, false), &mut acc, 2);
        assert_eq!(inj.injected_count(), 1);
        inj.begin_launch();
        <Injector as FaultHook<f32>>::post_mma(&inj, &site((0, 0), 0, 16, false), &mut acc, 2);
        assert_eq!(inj.injected_count(), 2);
    }

    #[test]
    fn payload_only_model_skips_checksums() {
        let inj = Injector::new(InjectorConfig {
            schedule: InjectionSchedule::PerBlock { probability: 1.0 },
            model: SeuModel {
                target: FaultTarget::PayloadMma,
                max_per_block: 10,
            },
            seed: 1,
            kernel_time_hint_s: 1.0,
            blocks_hint: 1,
            events_per_block_hint: 1,
        });
        let mut acc = vec![1.0f32; 4];
        for k in 0..20 {
            <Injector as FaultHook<f32>>::post_mma(&inj, &site((0, 0), 0, k, true), &mut acc, 2);
        }
        assert_eq!(inj.injected_count(), 0);
    }

    #[test]
    fn payload_mma_target_skips_scalar_fma_stream() {
        let inj = Injector::new(InjectorConfig {
            schedule: InjectionSchedule::PerBlock { probability: 1.0 },
            model: SeuModel {
                target: FaultTarget::PayloadMma,
                max_per_block: 100,
            },
            seed: 2,
            kernel_time_hint_s: 1.0,
            blocks_hint: 1,
            events_per_block_hint: 1,
        });
        for k in 0..50 {
            let v = <Injector as FaultHook<f32>>::post_fma(&inj, &site((0, 0), 0, k, false), 3.25);
            assert_eq!(v, 3.25, "FMA results are outside the MMA stream");
        }
        assert_eq!(inj.injected_count(), 0);
        // ... while the MMA stream is eligible.
        let mut acc = vec![1.0f32; 4];
        <Injector as FaultHook<f32>>::post_mma(&inj, &site((0, 0), 0, 0, false), &mut acc, 2);
        assert_eq!(inj.injected_count(), 1);
    }

    #[test]
    fn simt_fma_target_skips_mma_stream() {
        let inj = Injector::new(InjectorConfig {
            schedule: InjectionSchedule::PerBlock { probability: 1.0 },
            model: SeuModel {
                target: FaultTarget::SimtFma,
                max_per_block: 100,
            },
            seed: 2,
            kernel_time_hint_s: 1.0,
            blocks_hint: 1,
            events_per_block_hint: 1,
        });
        let mut acc = vec![1.0f64; 4];
        for k in 0..20 {
            <Injector as FaultHook<f64>>::post_mma(&inj, &site((0, 0), 0, k, false), &mut acc, 2);
        }
        assert_eq!(inj.injected_count(), 0);
        let _ = <Injector as FaultHook<f64>>::post_fma(&inj, &site((0, 0), 0, 0, false), 1.5);
        assert_eq!(inj.injected_count(), 1);
    }

    #[test]
    fn off_schedule_never_injects() {
        let inj = Injector::new(InjectorConfig {
            schedule: InjectionSchedule::Off,
            model: SeuModel::default(),
            seed: 1,
            kernel_time_hint_s: 1.0,
            blocks_hint: 10,
            events_per_block_hint: 100,
        });
        assert_eq!(inj.p_event(), 0.0);
        let mut acc = vec![1.0f64; 4];
        for k in 0..50 {
            <Injector as FaultHook<f64>>::post_mma(&inj, &site((0, 0), 0, k, false), &mut acc, 2);
        }
        assert_eq!(inj.injected_count(), 0);
    }

    #[test]
    fn identical_site_calls_draw_independently() {
        // DMR replicas and the samples of one update tile call the hook at
        // an identical site. Keyed by the site alone, both replicas of a
        // pair would be struck alike and the vote could not see the fault.
        let inj = Injector::new(InjectorConfig {
            schedule: InjectionSchedule::PerBlock { probability: 0.5 },
            model: SeuModel {
                target: FaultTarget::Any,
                max_per_block: u32::MAX,
            },
            seed: 11,
            kernel_time_hint_s: 1.0,
            blocks_hint: 1,
            events_per_block_hint: 1,
        });
        let s = site((0, 0), 0, 0, false);
        let mut split = 0;
        for _ in 0..64 {
            let a = <Injector as FaultHook<f64>>::post_fma(&inj, &s, 1.0);
            let b = <Injector as FaultHook<f64>>::post_fma(&inj, &s, 1.0);
            split += usize::from(a.to_bits() != b.to_bits());
        }
        assert!(split >= 16, "replica pairs must disagree often: {split}/64");
    }

    #[test]
    fn reproducible_with_same_seed() {
        let mk = || {
            Injector::new(InjectorConfig {
                schedule: InjectionSchedule::PerBlock { probability: 0.5 },
                model: SeuModel {
                    target: FaultTarget::Any,
                    max_per_block: 5,
                },
                seed: 42,
                kernel_time_hint_s: 1.0,
                blocks_hint: 1,
                events_per_block_hint: 4,
            })
        };
        let run = |inj: &Injector| {
            let mut acc = vec![1.0f64; 8];
            for k in 0..64 {
                <Injector as FaultHook<f64>>::post_mma(
                    inj,
                    &site((0, 0), 0, k, false),
                    &mut acc,
                    4,
                );
            }
            inj.records()
        };
        let (a, b) = (run(&mk()), run(&mk()));
        assert_eq!(a, b);
    }
}
