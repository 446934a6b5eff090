//! Campaign execution: run every cell of an expanded grid, in parallel over
//! the `gpu_sim::exec` pool, with per-cell determinism.
//!
//! Each cell fits twice — once under injection, once as the fault-free twin
//! — on whatever executor is current. Both fits are schedule-independent:
//! the kernels reduce in a fixed order, and the random injector keys every
//! draw by (seed, launch, block, per-block call ordinal), so the fault
//! sites do not depend on block scheduling either. Every cell's outcome is
//! therefore a pure function of its seed; the campaign parallelizes across
//! cells as well (results are written into a pre-sized slot array by cell
//! index), so the emitted table is byte-identical between `FTK_EXEC=serial`
//! and the worker pool.

use super::classify::{classify, Classification, SdcPolicy};
use super::grid::{CampaignCell, CampaignGrid};
use abft::SchemeKind;
use data::{make_blobs, BlobSpec};
use fault::{
    splitmix64, CampaignStats, FaultTarget, InjectionRecord, InjectionSchedule, RateRealization,
};
use gpu_sim::exec;
use gpu_sim::{DeviceProfile, Precision, Scalar};
use kmeans::{FtConfig, KMeansConfig, Session, Variant};

/// Everything recorded about one executed cell.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The cell that ran.
    pub cell: CampaignCell,
    /// Campaign ledger of the injected fit, with update-phase DMR
    /// mismatches folded in and `benign`/`sdc` filled from the twin
    /// comparison.
    pub stats: CampaignStats,
    /// Requested vs. achieved injection rate (None when the cell's rate
    /// is zero).
    pub realization: Option<RateRealization>,
    /// Twin-comparison verdict.
    pub verdict: Classification,
    /// Lloyd iterations the injected fit executed.
    pub iterations: usize,
    /// Per-injection records of the injected fit (JSONL fodder).
    pub records: Vec<InjectionRecord>,
}

/// Run every cell of `grid` and return outcomes ordered by cell index.
///
/// Cells are distributed over the current executor (the global worker pool
/// unless the caller scoped a different one with
/// [`gpu_sim::exec::with_executor`]); every cell's outcome is
/// schedule-independent, so the outcome vector — and any table rendered
/// from it — is identical whatever the policy.
pub fn run_campaign(grid: &CampaignGrid) -> Vec<CellOutcome> {
    let cells = grid.cells();
    let mut slots: Vec<Option<CellOutcome>> = Vec::new();
    slots.resize_with(cells.len(), || None);
    exec::with_current(|e| {
        e.par_chunks_mut(&mut slots, 1, |offset, piece| {
            for (i, slot) in piece.iter_mut().enumerate() {
                *slot = Some(run_cell(grid, &cells[offset + i]));
            }
        });
    });
    slots
        .into_iter()
        .map(|s| s.expect("every cell slot filled"))
        .collect()
}

/// Execute one cell (injected fit, fault-free twin, classification) under
/// the ambient executor.
pub fn run_cell(grid: &CampaignGrid, cell: &CampaignCell) -> CellOutcome {
    match cell.precision {
        Precision::Fp32 => run_cell_typed::<f32>(grid, cell),
        Precision::Fp64 => run_cell_typed::<f64>(grid, cell),
    }
}

fn run_cell_typed<T: Scalar>(grid: &CampaignGrid, cell: &CampaignCell) -> CellOutcome {
    let (data, _, _) = make_blobs::<T>(&BlobSpec {
        samples: cell.shape.m,
        dim: cell.shape.dim,
        centers: cell.shape.k,
        cluster_std: 0.3,
        center_box: 7.0,
        seed: cell.seed,
    });
    let injection = if cell.rate_hz > 0.0 {
        InjectionSchedule::Rate {
            errors_per_second: cell.rate_hz,
        }
    } else {
        InjectionSchedule::Off
    };
    let cfg = KMeansConfig {
        k: cell.shape.k,
        max_iter: grid.max_iter,
        tol: 0.0, // fixed work per fit: rates stay comparable across cells
        seed: cell.seed,
        variant: cell.variant,
        ft: FtConfig {
            scheme: cell.scheme,
            // The unprotected control runs genuinely unprotected.
            dmr_update: cell.scheme != SchemeKind::None,
            injection,
            injection_seed: splitmix64(cell.seed),
            // The paper's §V-C protocol: corrupt the distance-kernel MMA
            // stream (the thing the schemes axis protects); the update
            // phase is DMR territory with its own benches. The Hamerly
            // variant computes distances on scalar SIMT FMAs — its sites
            // never match the tensor-payload filter, so it gets the SIMT
            // target or the whole cell would inject nothing.
            fault_target: if cell.variant == Variant::Hamerly {
                FaultTarget::SimtFma
            } else {
                FaultTarget::PayloadMma
            },
            // Revalidate Hamerly bounds every iteration: campaign cells
            // exist to measure detection, not to amortize sweep cost.
            revalidate_every: 1,
            modeled_residency_s: grid.residency_s,
        },
        ..Default::default()
    };
    // The fault-free twin shares data, seeding, scheme and numerics with
    // the injected fit, so any divergence between them is down to
    // unhandled faults.
    let session = Session::new(DeviceProfile::a100());
    let mut clean_cfg = cfg.clone();
    clean_cfg.ft = clean_cfg.ft.without_injection();
    let fit = |cfg| {
        session
            .kmeans(cfg)
            .fit_model(&data)
            .expect("campaign cell fit")
            .into_result()
    };
    let injected = fit(cfg);
    let clean = fit(clean_cfg);

    let verdict = classify(&clean, &injected, &SdcPolicy::for_precision(cell.precision));
    let mut stats = injected.ft_stats;
    stats.classify_unhandled(verdict.is_sdc);

    CellOutcome {
        cell: *cell,
        stats,
        realization: injected.injection_realization,
        verdict,
        iterations: injected.iterations,
        records: injected.injection_records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Precision;
    use kmeans::Variant;

    fn tiny_grid() -> CampaignGrid {
        CampaignGrid {
            rates_hz: vec![50.0],
            schemes: vec![SchemeKind::FtKMeans],
            precisions: vec![Precision::Fp64],
            variants: vec![Variant::Tensor(None)],
            shapes: vec![super::super::grid::DataShape {
                m: 512,
                dim: 8,
                k: 4,
            }],
            reps: 1,
            residency_s: 1.0,
            max_iter: 4,
            base_seed: 7,
        }
    }

    #[test]
    fn ftkmeans_fp64_cell_absorbs_the_rate() {
        let grid = tiny_grid();
        let out = run_campaign(&grid);
        assert_eq!(out.len(), 1);
        let o = &out[0];
        assert!(o.stats.injected > 10, "50 err/s must inject: {:?}", o.stats);
        assert!(!o.verdict.is_sdc, "FP64 FtKMeans absorbs faults: {o:?}");
        assert_eq!(o.stats.sdc, 0);
        assert_eq!(o.stats.benign, o.stats.unhandled());
        assert_eq!(o.records.len() as u64, o.stats.injected);
        assert!(o.realization.is_some());
    }

    #[test]
    fn unprotected_cell_shows_sdc_under_heavy_rate() {
        // Negative control. Conditions chosen so corruption *persists*:
        // k = 64 fills the FP64 warp tile (no padding lanes to absorb
        // flips), max_iter = 1 makes the injected assignment the final one
        // (Lloyd cannot self-correct a transient mislabel), and a large M
        // gives the saturated schedule many blocks to strike. Label flips
        // need an *upward* exponent flip on a product term (downward flips
        // only make the victim lose the argmin), so dozens of injections
        // are required for a reliable hit.
        let mut grid = tiny_grid();
        grid.schemes = vec![SchemeKind::None];
        grid.rates_hz = vec![1e5];
        grid.shapes = vec![super::super::grid::DataShape {
            m: 4096,
            dim: 8,
            k: 64,
        }];
        grid.max_iter = 1;
        grid.reps = 2;
        let out = run_campaign(&grid);
        let sdc: u64 = out.iter().map(|o| o.stats.sdc).sum();
        assert!(
            sdc > 0,
            "a saturated unprotected barrage must corrupt at least one rep: {:?}",
            out.iter().map(|o| &o.verdict).collect::<Vec<_>>()
        );
        // The requested rate is far past what the per-block clamp can
        // deliver — the shortfall must be surfaced, not silent.
        for o in &out {
            let r = o.realization.expect("rate schedule must report");
            assert!(r.saturated(), "1e5 err/s must saturate: {r:?}");
            assert_eq!(o.stats.saturated_launches, o.stats.injection_launches);
        }
    }

    #[test]
    fn outcomes_arrive_in_cell_order() {
        let mut grid = tiny_grid();
        grid.rates_hz = vec![0.0, 50.0];
        grid.reps = 2;
        let out = run_campaign(&grid);
        for (i, o) in out.iter().enumerate() {
            assert_eq!(o.cell.idx, i);
        }
        // rate 0 cells inject nothing and classify clean
        for o in out.iter().filter(|o| o.cell.rate_hz == 0.0) {
            assert_eq!(o.stats.injected, 0);
            assert!(!o.verdict.is_sdc);
            assert!(o.verdict.labels_match);
        }
    }
}
