//! The fault model: what can be corrupted and under what assumptions.

/// Which computation site a fault may strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultTarget {
    /// Payload tensor-core MMA outputs (the distance accumulators).
    PayloadMma,
    /// ABFT checksum MMA outputs (the protection itself is not exempt).
    ChecksumMma,
    /// SIMT FMA results (naive/V1–V3 kernels, update phase).
    SimtFma,
    /// Any of the above, chosen uniformly at the stricken site.
    Any,
}

impl FaultTarget {
    /// Whether a site flagged as checksum work is eligible.
    pub fn allows_checksum(self) -> bool {
        matches!(self, FaultTarget::ChecksumMma | FaultTarget::Any)
    }

    /// Whether a payload site is eligible (either event kind).
    pub fn allows_payload(self) -> bool {
        self.allows_payload_mma() || self.allows_fma()
    }

    /// Whether a payload tensor-core MMA slab is eligible. `PayloadMma`
    /// means exactly the distance accumulators of the MMA stream — the
    /// paper's §V-C protocol — so scalar-FMA phases (the centroid update,
    /// the SIMT kernels) are *not* covered by it.
    pub fn allows_payload_mma(self) -> bool {
        matches!(self, FaultTarget::PayloadMma | FaultTarget::Any)
    }

    /// Whether a scalar SIMT FMA result is eligible (naive/V1–V3 kernels
    /// and the update phase).
    pub fn allows_fma(self) -> bool {
        matches!(self, FaultTarget::SimtFma | FaultTarget::Any)
    }
}

/// The single-event-upset model of §II-A: memory is ECC-protected, network
/// is FT-MPI-protected; compute errors arrive at most once per detection
/// interval per threadblock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeuModel {
    /// Eligible sites.
    pub target: FaultTarget,
    /// At most this many injections per (threadblock, kernel launch) — the
    /// SEU assumption is 1.
    pub max_per_block: u32,
}

impl Default for SeuModel {
    fn default() -> Self {
        SeuModel {
            target: FaultTarget::PayloadMma,
            max_per_block: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eligibility() {
        assert!(FaultTarget::Any.allows_checksum());
        assert!(FaultTarget::Any.allows_payload());
        assert!(!FaultTarget::PayloadMma.allows_checksum());
        assert!(FaultTarget::ChecksumMma.allows_checksum());
        assert!(!FaultTarget::ChecksumMma.allows_payload());
    }

    #[test]
    fn eligibility_distinguishes_event_kinds() {
        // PayloadMma is exactly the distance-kernel MMA stream.
        assert!(FaultTarget::PayloadMma.allows_payload_mma());
        assert!(!FaultTarget::PayloadMma.allows_fma());
        // SimtFma is exactly the scalar stream (SIMT kernels, update).
        assert!(FaultTarget::SimtFma.allows_fma());
        assert!(!FaultTarget::SimtFma.allows_payload_mma());
        // Any covers both.
        assert!(FaultTarget::Any.allows_payload_mma());
        assert!(FaultTarget::Any.allows_fma());
        // Checksum-only covers neither payload stream.
        assert!(!FaultTarget::ChecksumMma.allows_payload_mma());
        assert!(!FaultTarget::ChecksumMma.allows_fma());
    }

    #[test]
    fn default_is_single_event() {
        let m = SeuModel::default();
        assert_eq!(m.max_per_block, 1);
    }
}
