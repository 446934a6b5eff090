//! The tensor kernel computes only the live corner of each warp tile.
//! Warp-tile lanes past the problem edge (fewer than `tb_m` samples or
//! `tb_n` centroids left in a block) hold zero padding. Their host
//! arithmetic is skipped, but the MMAs covering them are still issued,
//! charged and passed to the fault hook.
//!
//! These tests pin what must not move: labels against the reference scan,
//! the payload MMA count in closed form (padding MMAs included),
//! detection and correction of a fault struck into a warp with no live
//! column, and that the inert-hook path (no `post_mma` calls, live-corner
//! checksums) gives the bits, counters and ledger of the hooked path.
//!
//! The fixtures are small integers, exact in TF32 and in both distance
//! formulas, so labels must agree bit for bit, ties included.

use abft::SchemeKind;
use fault::{CampaignStats, Injector, PlannedInjection};
use gpu_sim::mma::{shapes, FaultHook, FragmentMma, MmaSite, NoFault};
use gpu_sim::timing::TileConfig;
use gpu_sim::{CounterSnapshot, Counters, DeviceProfile, Matrix, Precision, Scalar};
use kmeans::assign::{default_tile, AssignmentResult};
use kmeans::device_data::DeviceData;
use kmeans::reference::assign_reference;
use kmeans::variants::tensor::tensor_assign;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Not a multiple of any tile's `tb_m`.
const M: usize = 1000;
/// 24 = one full 16-deep k-tile plus a zero-padded one.
const DIM: usize = 24;
/// Two online detection intervals of 256, the second ending mid k-tile;
/// run on fewer samples (three full 64-row blocks and a padded one) to
/// keep the debug-build test short.
const LONG: (usize, usize) = (200, 300);
const KS: [usize; 5] = [1, 16, 17, 129, 200];
const SCHEMES: [SchemeKind; 4] = [
    SchemeKind::None,
    SchemeKind::FtKMeans,
    SchemeKind::Kosaian,
    SchemeKind::Wu,
];

fn fixture<T: Scalar>(m: usize, k: usize, dim: usize) -> (Matrix<T>, Matrix<T>) {
    let samples = Matrix::from_fn(m, dim, |r, c| {
        T::from_f64(((r * 31 + c * 7) % 17) as f64 - 8.0)
    });
    let cents = Matrix::from_fn(k, dim, |r, c| {
        T::from_f64(((r * 13 + c * 5) % 15) as f64 - 7.0)
    });
    (samples, cents)
}

fn run<T: Scalar>(
    tile: TileConfig,
    samples: &Matrix<T>,
    cents: &Matrix<T>,
    scheme: SchemeKind,
    hook: &dyn FaultHook<T>,
) -> (AssignmentResult<T>, CounterSnapshot, CampaignStats) {
    let dev = DeviceProfile::a100();
    let c = Counters::new();
    let data = DeviceData::upload(&dev, samples, cents, &c).expect("upload");
    let before = c.snapshot();
    let stats = Mutex::new(CampaignStats::default());
    let out = tensor_assign(&dev, tile, &data, scheme, hook, &c, &stats).expect("assign");
    (out, c.snapshot().since(&before), stats.into_inner())
}

/// Warp MMA slabs of one launch: every warp of every block issues every
/// k-slab, padded or not.
fn closed_form_slabs<T: Scalar>(tile: TileConfig, (m, k, dim): (usize, usize, usize)) -> u64 {
    let blocks = m.div_ceil(tile.tb_m) * k.div_ceil(tile.tb_n);
    let warps = (tile.tb_m / tile.wm) * (tile.tb_n / tile.wn);
    (blocks * warps * (dim.div_ceil(tile.tb_k) * tile.tb_k / mma_k::<T>())) as u64
}

fn mma_k<T: Scalar>() -> usize {
    match T::PRECISION {
        Precision::Fp32 => shapes::FP32_MMA.2,
        Precision::Fp64 => shapes::FP64_MMA.2,
    }
}

/// Payload `mma.sync` count of one launch.
fn closed_form_mma_ops<T: Scalar>(tile: TileConfig, k: usize) -> u64 {
    let per_slab = FragmentMma::new::<T>(tile.wm, tile.wn).hw_mma_count(mma_k::<T>());
    closed_form_slabs::<T>(tile, (M, k, DIM)) * per_slab
}

fn check_precision<T: Scalar>() {
    let tile = default_tile(T::PRECISION);
    for k in KS {
        let (samples, cents) = fixture::<T>(M, k, DIM);
        let (want, _) = assign_reference(&samples, &cents);
        for scheme in SCHEMES {
            let (out, c, stats) = run(tile, &samples, &cents, scheme, &NoFault);
            let what = format!("{:?} k={k} {scheme:?}", T::PRECISION);
            assert_eq!(out.labels, want, "{what}: labels");
            assert_eq!(
                c.mma_ops,
                closed_form_mma_ops::<T>(tile, k),
                "{what}: padding MMAs must still be charged"
            );
            assert_eq!(stats.detected, 0, "{what}: clean run");
        }
    }
}

#[test]
fn padded_tiles_match_reference_and_charge_every_mma_fp32() {
    check_precision::<f32>();
}

#[test]
fn padded_tiles_match_reference_and_charge_every_mma_fp64() {
    check_precision::<f64>();
}

/// A flip into warp 3 of block (0, 0) at k = 16: under both default tiles
/// that warp's columns are all past the 16th centroid, so its whole
/// accumulator is padding the kernel never computes. Flipping the top
/// exponent bit turns a zero into 2.0, a clear error the checksums must
/// still see and repair.
fn strike_dead_warp<T: Scalar>() {
    let tile = default_tile(T::PRECISION);
    let (samples, cents) = fixture::<T>(M, 16, DIM);
    let (clean, _, _) = run(tile, &samples, &cents, SchemeKind::FtKMeans, &NoFault);
    let inj = Injector::planned(vec![PlannedInjection {
        block: (0, 0),
        warp: 3,
        k_step: 0,
        elem_idx: 5,
        bit: (std::mem::size_of::<T>() * 8 - 2) as u32,
        target_checksum: false,
    }]);
    let (out, _, stats) = run(tile, &samples, &cents, SchemeKind::FtKMeans, &inj);
    assert_eq!(inj.injected_count(), 1, "the fault fired");
    assert_eq!((stats.detected, stats.corrected), (1, 1), "{stats:?}");
    assert_eq!(out.labels, clean.labels);
}

#[test]
fn fault_in_a_warp_with_no_live_column_is_corrected_fp32() {
    strike_dead_warp::<f32>();
}

#[test]
fn fault_in_a_warp_with_no_live_column_is_corrected_fp64() {
    strike_dead_warp::<f64>();
}

/// Returns every value unchanged but does not declare itself inert, so the
/// kernel hooks every slab; counts the payload and checksum calls.
#[derive(Default)]
struct Forwarding {
    payload: AtomicU64,
    checksum: AtomicU64,
}

impl<T: Scalar> FaultHook<T> for Forwarding {
    fn post_mma(&self, site: &MmaSite, _acc: &mut [T], _wn: usize) {
        let calls = if site.is_checksum {
            &self.checksum
        } else {
            &self.payload
        };
        calls.fetch_add(1, Ordering::Relaxed);
    }
}

/// The inert path and the hooked path must agree on labels, distance
/// bits, counters and the campaign ledger, and the hooked path must call
/// the hook once per warp slab plus once per checksum MMA (three per slab
/// for FT K-means, one for detection-only Kosaian, none for the others).
fn inert_matches_forwarding<T: Scalar>() {
    let tile = default_tile(T::PRECISION);
    for (m, dim) in [(M, DIM), LONG] {
        for k in KS {
            let (samples, cents) = fixture::<T>(m, k, dim);
            for scheme in SCHEMES {
                let what = format!("{:?} m={m} dim={dim} k={k} {scheme:?}", T::PRECISION);
                let hook = Forwarding::default();
                let (inert, inert_c, inert_s) = run(tile, &samples, &cents, scheme, &NoFault);
                let (fwd, fwd_c, fwd_s) = run(tile, &samples, &cents, scheme, &hook);
                assert_eq!(inert.labels, fwd.labels, "{what}: labels");
                let bits = |d: &[T]| d.iter().map(|v| v.to_raw_u64()).collect::<Vec<_>>();
                assert_eq!(bits(&inert.distances), bits(&fwd.distances), "{what}");
                assert_eq!(inert_c, fwd_c, "{what}: counters");
                assert_eq!(inert_s, fwd_s, "{what}: ledger");
                let slabs = closed_form_slabs::<T>(tile, (m, k, dim));
                let per_slab = match scheme {
                    SchemeKind::FtKMeans => 3,
                    SchemeKind::Kosaian => 1,
                    _ => 0,
                };
                let calls = (hook.payload.into_inner(), hook.checksum.into_inner());
                assert_eq!(calls, (slabs, per_slab * slabs), "{what}: hook calls");
            }
        }
    }
}

#[test]
fn inert_hook_matches_forwarding_hook_fp32() {
    inert_matches_forwarding::<f32>();
}

#[test]
fn inert_hook_matches_forwarding_hook_fp64() {
    inert_matches_forwarding::<f64>();
}
