//! The fault ledger of one fit or one `partial_fit` batch.
//!
//! [`FaultLedger`] owns the fault injector, the campaign counts the
//! launches accumulate and the schedule's rate realization. The drivers
//! keep their fault bookkeeping through it alone, so a
//! [`FitResult`](crate::FitResult)'s `ft_stats` comes out as the whole
//! fault record: injections, checksum outcomes, Hamerly revalidations,
//! DMR outcomes and out-of-range labels.

use crate::assign::default_tile;
use crate::config::{KMeansConfig, Variant};
use crate::update::UpdateResult;
use fault::{CampaignStats, InjectionRecord, Injector, InjectorConfig, RateRealization};
use gpu_sim::mma::{FaultHook, NoFault};
use gpu_sim::timing::{estimate, GemmShape, KernelClass, TimingInput};
use gpu_sim::{DeviceProfile, Precision, Scalar};
use parking_lot::Mutex;

pub(crate) struct FaultLedger {
    injector: Option<Injector>,
    stats: Mutex<CampaignStats>,
    rate_saturated: bool,
}

impl FaultLedger {
    /// The ledger of an `m x dim` fit or batch, with an injector when `cfg`
    /// injects. A rate schedule is spread over `launches` assignment
    /// launches (the fit's `max_iter`, or 1 for a single mini-batch step).
    pub(crate) fn new<T: Scalar>(
        device: &DeviceProfile,
        cfg: &KMeansConfig,
        m: usize,
        dim: usize,
        launches: usize,
    ) -> Self {
        let injector = cfg
            .ft
            .injection
            .is_active()
            .then(|| build_injector::<T>(device, cfg, m, dim, launches));
        let rate_saturated = injector
            .as_ref()
            .is_some_and(|i| i.realization().saturated());
        FaultLedger {
            injector,
            stats: Mutex::new(CampaignStats::default()),
            rate_saturated,
        }
    }

    /// Start a kernel launch: the injector's next launch, booked in
    /// `injection_launches` (and `saturated_launches` when the rate
    /// request saturated the per-block clamp).
    pub(crate) fn begin_launch(&self) {
        if let Some(i) = &self.injector {
            i.begin_launch();
            self.stats.lock().note_injection_launch(self.rate_saturated);
        }
    }

    /// The fault hook the kernels run under.
    pub(crate) fn hook<T: Scalar>(&self) -> &dyn FaultHook<T> {
        match &self.injector {
            Some(i) => i,
            None => &NoFault,
        }
    }

    /// The campaign counts an assignment launch adds to.
    pub(crate) fn stats(&self) -> &Mutex<CampaignStats> {
        &self.stats
    }

    /// Fold an update phase's outcome: its DMR mismatches and unresolved
    /// evaluations, and its out-of-range labels, which count as detected
    /// faults.
    pub(crate) fn absorb_update<T>(&self, update: &UpdateResult<T>) {
        let mut s = self.stats.lock();
        s.dmr_mismatches += update.dmr.mismatches;
        s.dmr_unresolved += update.dmr.unresolved;
        s.detected += update.oob_labels;
    }

    /// Book a Hamerly bound revalidation that found `violations`: they
    /// count as detected and, since the caller has re-assigned their rows
    /// exactly, as recomputed; a clean sweep counts toward `clean_sweeps`.
    pub(crate) fn revalidated(&self, violations: u64) {
        let mut s = self.stats.lock();
        s.note_revalidation(violations);
        if violations > 0 {
            s.recomputed += violations;
            drop(s);
            trace::fault(trace::faults::REVAL_REPAIR, violations);
        }
    }

    /// Emit the ledger's movement since `*prev` as trace fault events and
    /// advance `*prev` to the current ledger. Called host-side between
    /// launches: worker threads never emit, which keeps pool-mode fault
    /// streams count-identical to serial ones.
    pub(crate) fn emit_since(&self, prev: &mut CampaignStats) {
        if trace::active() {
            let now = self.current();
            now.emit_trace_delta(prev);
            *prev = now;
        }
    }

    /// The finished ledger, the injections in (launch, block, ordinal)
    /// order, and the rate realization (`None` without injection).
    pub(crate) fn finish(self) -> (CampaignStats, Vec<InjectionRecord>, Option<RateRealization>) {
        let stats = self.current();
        match self.injector {
            Some(i) => (stats, i.records(), Some(i.realization())),
            None => (stats, Vec::new(), None),
        }
    }

    /// The counts so far, with the injector's authoritative injection count.
    fn current(&self) -> CampaignStats {
        let mut s = *self.stats.lock();
        s.injected = self.injector.as_ref().map_or(0, Injector::injected_count);
        s
    }
}

/// The fault injector for a problem shape; see [`FaultLedger::new`].
fn build_injector<T: Scalar>(
    device: &DeviceProfile,
    cfg: &KMeansConfig,
    m: usize,
    dim: usize,
    launches: usize,
) -> Injector {
    let tile = match cfg.variant {
        Variant::Tensor(Some(t)) => t,
        _ => default_tile(T::PRECISION),
    };
    let shape = GemmShape::new(m, cfg.k, dim);
    let blocks = m.div_ceil(tile.tb_m) * cfg.k.div_ceil(tile.tb_n);
    // Per-launch kernel time converting a rate schedule into per-block
    // probability: either the calibrated timing model's estimate for
    // this shape (physical, default), or the configured distance-kernel
    // residency budget spread uniformly over the fit's assignment
    // launches (campaign mode — see `FtConfig::modeled_residency_s`).
    let kernel_s = if cfg.ft.modeled_residency_s > 0.0 {
        cfg.ft.modeled_residency_s / launches.max(1) as f64
    } else {
        let t = estimate(&TimingInput {
            ft: cfg.ft.scheme.ft_mode(),
            ..TimingInput::plain(device, T::PRECISION, KernelClass::Tensor(tile), shape)
        });
        t.time_s.max(1e-9)
    };
    let mma_k = match T::PRECISION {
        Precision::Fp32 => 8,
        Precision::Fp64 => 4,
    };
    let events = (tile.warps() * dim.div_ceil(tile.tb_k).max(1) * (tile.tb_k / mma_k)) as u64;
    Injector::new(InjectorConfig {
        schedule: cfg.ft.injection,
        model: fault::SeuModel {
            target: cfg.ft.fault_target,
            ..fault::SeuModel::default()
        },
        seed: cfg.ft.injection_seed,
        kernel_time_hint_s: kernel_s,
        blocks_hint: blocks,
        events_per_block_hint: events.max(1),
    })
}
