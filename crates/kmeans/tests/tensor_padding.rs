//! The tensor kernel computes only the live corner of each warp tile.
//! Warp-tile lanes past the problem edge (fewer than `tb_m` samples or
//! `tb_n` centroids left in a block) hold zero padding. Their host
//! arithmetic is skipped, but the MMAs covering them are still issued,
//! charged and passed to the fault hook.
//!
//! These tests pin what must not move: labels against the reference scan,
//! the payload MMA count in closed form (padding MMAs included), and
//! detection and correction of a fault struck into a warp with no live
//! column.
//!
//! The fixtures are small integers, exact in TF32 and in both distance
//! formulas, so labels must agree bit for bit, ties included.

use abft::SchemeKind;
use fault::{CampaignStats, Injector, PlannedInjection};
use gpu_sim::mma::{shapes, FaultHook, FragmentMma, NoFault};
use gpu_sim::timing::TileConfig;
use gpu_sim::{CounterSnapshot, Counters, DeviceProfile, Matrix, Precision, Scalar};
use kmeans::assign::{default_tile, AssignmentResult};
use kmeans::device_data::DeviceData;
use kmeans::reference::assign_reference;
use kmeans::variants::tensor::tensor_assign;
use parking_lot::Mutex;

/// Not a multiple of any tile's `tb_m`.
const M: usize = 1000;
/// 24 = one full 16-deep k-tile plus a zero-padded one.
const DIM: usize = 24;
const KS: [usize; 5] = [1, 16, 17, 129, 200];
const SCHEMES: [SchemeKind; 4] = [
    SchemeKind::None,
    SchemeKind::FtKMeans,
    SchemeKind::Kosaian,
    SchemeKind::Wu,
];

fn fixture<T: Scalar>(k: usize) -> (Matrix<T>, Matrix<T>) {
    let samples = Matrix::from_fn(M, DIM, |r, c| {
        T::from_f64(((r * 31 + c * 7) % 17) as f64 - 8.0)
    });
    let cents = Matrix::from_fn(k, DIM, |r, c| {
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

/// Payload `mma.sync` count of one launch: every warp of every block
/// issues every k-slab, padded or not.
fn closed_form_mma_ops<T: Scalar>(tile: TileConfig, k: usize) -> u64 {
    let mma_k = match T::PRECISION {
        Precision::Fp32 => shapes::FP32_MMA.2,
        Precision::Fp64 => shapes::FP64_MMA.2,
    };
    let blocks = M.div_ceil(tile.tb_m) * k.div_ceil(tile.tb_n);
    let warps = (tile.tb_m / tile.wm) * (tile.tb_n / tile.wn);
    let slabs = DIM.div_ceil(tile.tb_k) * tile.tb_k / mma_k;
    let per_slab = FragmentMma::new::<T>(tile.wm, tile.wn).hw_mma_count(mma_k);
    (blocks * warps * slabs) as u64 * per_slab
}

fn check_precision<T: Scalar>() {
    let tile = default_tile(T::PRECISION);
    for k in KS {
        let (samples, cents) = fixture::<T>(k);
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
    let (samples, cents) = fixture::<T>(16);
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
