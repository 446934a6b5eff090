//! No label `≥ k` leaves the assignment stage. A hook that turns every
//! distance into NaN leaves each kernel's argmin at its `u32::MAX` sentinel;
//! `run_assignment` must recompute those rows without the hook, so every
//! variant still returns the reference labels, and the ledger shows each
//! recomputed row.

use abft::SchemeKind;
use fault::CampaignStats;
use gpu_sim::mma::{FaultHook, MmaSite};
use gpu_sim::timing::TileConfig;
use gpu_sim::{Counters, DeviceProfile, Matrix};
use kmeans::assign::run_assignment;
use kmeans::config::Variant;
use kmeans::device_data::DeviceData;
use kmeans::reference::assign_reference;
use parking_lot::Mutex;

/// Poisons every SIMT FMA result and every MMA accumulator with NaN.
struct NanHook;

impl FaultHook<f64> for NanHook {
    fn post_mma(&self, _site: &MmaSite, acc: &mut [f64], _wn: usize) {
        acc.fill(f64::NAN);
    }

    fn post_fma(&self, _site: &MmaSite, _value: f64) -> f64 {
        f64::NAN
    }
}

#[test]
fn all_nan_distances_never_leave_a_sentinel_label() {
    let tile = TileConfig {
        tb_m: 16,
        tb_n: 16,
        tb_k: 8,
        wm: 8,
        wn: 8,
        k_stages: 2,
    };
    let variants = [
        Variant::Naive,
        Variant::GemmV1,
        Variant::FusedV2,
        Variant::BroadcastV3,
        Variant::Tensor(Some(tile)),
        Variant::Hamerly,
    ];
    let dev = DeviceProfile::a100();
    let samples = Matrix::<f64>::from_fn(53, 7, |r, c| ((r * 31 + c * 7) % 17) as f64 - 8.0);
    for k in [1, 3] {
        let cents = Matrix::<f64>::from_fn(k, 7, |r, c| ((r * 13 + c * 5) % 15) as f64 - 7.0);
        let (want, _) = assign_reference(&samples, &cents);
        for variant in variants {
            let c = Counters::new();
            let stats = Mutex::new(CampaignStats::default());
            let data = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
            let out = run_assignment(&dev, &data, variant, SchemeKind::None, &NanHook, &c, &stats)
                .unwrap();
            assert!(
                out.labels.iter().all(|&l| (l as usize) < k),
                "{variant:?} k={k}: label out of range"
            );
            assert_eq!(out.labels, want, "{variant:?} k={k}");
            let st = stats.lock();
            assert!(
                st.detected > 0 && st.recomputed > 0,
                "{variant:?} k={k}: recomputed rows are not in the ledger"
            );
        }
    }
}

/// A NaN tightening distance must not prune. Fresh Hamerly bounds are
/// vacuous (`u = +∞`, `l = 0`, `s_half = 0`), so every row tightens against
/// its stored label 0; the NaN hook makes that distance NaN, and clamping
/// it to a zero bound would keep label 0 for every row. The row must fall
/// through to the full scan, whose all-NaN result is recomputed without
/// the hook.
#[test]
fn nan_tightening_distance_falls_through_to_the_full_scan() {
    let dev = DeviceProfile::a100();
    let samples = Matrix::<f64>::from_fn(53, 7, |r, c| ((r * 31 + c * 7) % 17) as f64 - 8.0);
    let cents = Matrix::<f64>::from_fn(3, 7, |r, c| ((r * 13 + c * 5) % 15) as f64 - 7.0);
    let (want, _) = assign_reference(&samples, &cents);
    assert!(
        want.iter().any(|&l| l != 0),
        "the test needs rows off label 0"
    );
    let c = Counters::new();
    let stats = Mutex::new(CampaignStats::default());
    let mut data = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
    data.ensure_bounds();
    let out = run_assignment(
        &dev,
        &data,
        Variant::Hamerly,
        SchemeKind::None,
        &NanHook,
        &c,
        &stats,
    )
    .unwrap();
    assert_eq!(out.labels, want);
}
