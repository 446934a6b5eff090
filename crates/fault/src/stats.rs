//! Campaign bookkeeping: what was injected, what the FT layer did about it.

use crate::bitflip::{classify_bit, BitField};

/// One injected fault (raw bits stored widened to `u64` so records are
/// precision-agnostic).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectionRecord {
    /// Threadblock coordinates.
    pub block: (usize, usize),
    /// Warp within the block.
    pub warp: usize,
    /// K-dimension position of the stricken MMA slab.
    pub k_step: usize,
    /// True when the victim was a checksum computation.
    pub hit_checksum: bool,
    /// Index of the corrupted element within the accumulator fragment.
    pub elem_idx: usize,
    /// Bit position flipped (0 = LSB).
    pub bit: u32,
    /// Float width of the victim (32 or 64).
    pub width: u32,
    /// Absolute value change caused by the flip.
    pub magnitude: f64,
}

impl InjectionRecord {
    /// IEEE-754 field of the flipped bit.
    pub fn field(&self) -> BitField {
        classify_bit(self.bit, self.width)
    }
}

/// Aggregated outcome of an injection campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignStats {
    /// Faults injected.
    pub injected: u64,
    /// Detection sweeps that flagged an error.
    pub detected: u64,
    /// Errors repaired in place via location encoding.
    pub corrected: u64,
    /// Checksum-side hits resolved by re-baselining.
    pub rebaselined: u64,
    /// Intervals recomputed (detection-only schemes).
    pub recomputed: u64,
    /// DMR mismatches caught in the update phase.
    pub dmr_mismatches: u64,
    /// DMR evaluations whose replicas never agreed within the retries
    /// (persistent disagreement).
    pub dmr_unresolved: u64,
    /// Verification sweeps that ran clean.
    pub clean_sweeps: u64,
    /// Unhandled faults classified as harmless (the final result matched a
    /// fault-free twin run). Filled by
    /// [`classify_unhandled`](Self::classify_unhandled);
    /// `benign + sdc <= unhandled()`.
    pub benign: u64,
    /// Unhandled faults classified as silent data corruption (the final
    /// result diverged from the fault-free twin beyond tolerance).
    pub sdc: u64,
    /// Kernel launches that ran with an active injection schedule.
    pub injection_launches: u64,
    /// Of those, launches whose requested rate saturated the per-block
    /// probability clamp at 1.0 (the schedule under-injected; see
    /// [`crate::schedule::RateRealization`]).
    pub saturated_launches: u64,
}

impl CampaignStats {
    /// Faults the FT layer visibly handled (detected in any way).
    pub fn handled(&self) -> u64 {
        self.corrected + self.rebaselined + self.recomputed
    }

    /// Injected faults with no visible detection — either harmless
    /// (below-threshold mantissa flips) or silent corruption; callers
    /// split the two with [`classify_unhandled`](Self::classify_unhandled)
    /// by comparing final results against a fault-free twin.
    pub fn unhandled(&self) -> u64 {
        self.injected.saturating_sub(self.handled())
    }

    /// Split [`unhandled`](Self::unhandled) into `benign` vs `sdc` after
    /// comparing the run's final result against its fault-free twin: when
    /// the outcome was corrupted every unhandled fault is (conservatively)
    /// charged as SDC, otherwise all of them were benign.
    pub fn classify_unhandled(&mut self, outcome_corrupted: bool) {
        let u = self.unhandled();
        if outcome_corrupted {
            self.sdc = u;
            self.benign = 0;
        } else {
            self.benign = u;
            self.sdc = 0;
        }
    }

    /// Record one bound-revalidation sweep (the Hamerly variant's
    /// checksum-style protection pass): a sweep that found violations books
    /// them as detected — the caller then forces an un-pruned re-assignment
    /// and credits `recomputed` — and a violation-free sweep counts toward
    /// `clean_sweeps`, mirroring how the tensor schemes ledger their
    /// checksum checks.
    pub fn note_revalidation(&mut self, violations: u64) {
        if violations > 0 {
            self.detected += violations;
        } else {
            self.clean_sweeps += 1;
        }
    }

    /// Record one kernel launch performed under an active injection
    /// schedule, noting whether its rate request was clamp-saturated.
    pub fn note_injection_launch(&mut self, saturated: bool) {
        self.injection_launches += 1;
        if saturated {
            self.saturated_launches += 1;
        }
    }

    /// Emit the handling-path movement since `prev` as trace fault events
    /// (one [`trace::TraceEvent::Fault`] per nonzero delta; zero deltas
    /// cost nothing), DMR mismatches included. Drivers call this host-side
    /// once per iteration — worker threads never emit, which is what keeps
    /// pool-mode fault streams count-identical to serial ones.
    pub fn emit_trace_delta(&self, prev: &CampaignStats) {
        if !trace::active() {
            return;
        }
        trace::fault(
            trace::faults::INJECTION,
            self.injected.saturating_sub(prev.injected),
        );
        trace::fault(
            trace::faults::DETECTED,
            self.detected.saturating_sub(prev.detected),
        );
        trace::fault(
            trace::faults::CORRECTED,
            self.corrected.saturating_sub(prev.corrected),
        );
        trace::fault(
            trace::faults::REBASELINED,
            self.rebaselined.saturating_sub(prev.rebaselined),
        );
        trace::fault(
            trace::faults::RECOMPUTED,
            self.recomputed.saturating_sub(prev.recomputed),
        );
        trace::fault(
            trace::faults::DMR_MISMATCH,
            self.dmr_mismatches.saturating_sub(prev.dmr_mismatches),
        );
    }

    /// Merge another campaign's counts (elementwise sum — commutative and
    /// associative, so shards can be folded in any order).
    pub fn merge(&mut self, o: &CampaignStats) {
        self.injected += o.injected;
        self.detected += o.detected;
        self.corrected += o.corrected;
        self.rebaselined += o.rebaselined;
        self.recomputed += o.recomputed;
        self.dmr_mismatches += o.dmr_mismatches;
        self.dmr_unresolved += o.dmr_unresolved;
        self.clean_sweeps += o.clean_sweeps;
        self.benign += o.benign;
        self.sdc += o.sdc;
        self.injection_launches += o.injection_launches;
        self.saturated_launches += o.saturated_launches;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_field_classification() {
        let r = InjectionRecord {
            block: (0, 1),
            warp: 2,
            k_step: 64,
            hit_checksum: false,
            elem_idx: 5,
            bit: 30,
            width: 32,
            magnitude: 1.0,
        };
        assert_eq!(r.field(), BitField::Exponent);
    }

    #[test]
    fn handled_and_unhandled() {
        let s = CampaignStats {
            injected: 10,
            detected: 8,
            corrected: 6,
            rebaselined: 1,
            recomputed: 1,
            clean_sweeps: 100,
            ..Default::default()
        };
        assert_eq!(s.handled(), 8);
        assert_eq!(s.unhandled(), 2);
    }

    #[test]
    fn classify_splits_unhandled() {
        let mut s = CampaignStats {
            injected: 10,
            corrected: 7,
            ..Default::default()
        };
        s.classify_unhandled(false);
        assert_eq!((s.benign, s.sdc), (3, 0));
        s.classify_unhandled(true);
        assert_eq!((s.benign, s.sdc), (0, 3));
    }

    #[test]
    fn revalidation_accounting() {
        let mut s = CampaignStats::default();
        s.note_revalidation(0);
        s.note_revalidation(3);
        s.note_revalidation(0);
        assert_eq!(s.clean_sweeps, 2);
        assert_eq!(s.detected, 3);
    }

    #[test]
    fn launch_accounting() {
        let mut s = CampaignStats::default();
        s.note_injection_launch(false);
        s.note_injection_launch(true);
        s.note_injection_launch(true);
        assert_eq!(s.injection_launches, 3);
        assert_eq!(s.saturated_launches, 2);
    }

    #[test]
    fn merge_sums() {
        let mut a = CampaignStats {
            injected: 1,
            corrected: 1,
            ..Default::default()
        };
        let b = CampaignStats {
            injected: 2,
            rebaselined: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.injected, 3);
        assert_eq!(a.handled(), 2);
    }
}
