//! Dual modular redundancy (DMR) for memory-bound phases.
//!
//! The paper protects the centroid-update phase (Fig. 1 step 3) by
//! duplicating all arithmetic and comparing — the memory latency of loading
//! the data points is high enough that the duplicated instructions add
//! under 1% (§I). The combinator here executes an operation twice,
//! compares, and retries on mismatch (a mismatch proves a transient fault
//! hit one of the two executions).

use gpu_sim::Scalar;

/// Statistics from a DMR-protected region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DmrStats {
    /// Number of protected evaluations.
    pub executions: u64,
    /// Mismatches caught (each implies one transient fault absorbed).
    pub mismatches: u64,
    /// Evaluations that exhausted retries (persistent disagreement).
    pub unresolved: u64,
}

impl DmrStats {
    /// Merge two stat blocks.
    pub fn merge(&mut self, other: &DmrStats) {
        self.executions += other.executions;
        self.mismatches += other.mismatches;
        self.unresolved += other.unresolved;
    }
}

/// Execute `op` twice and compare; on mismatch retry up to `max_retries`
/// times, taking the majority (first value that repeats). Returns the
/// trusted value.
///
/// `op` receives the replica index (0, 1, 2, …) so fault injectors can
/// target a specific replica.
pub fn protected<T: Scalar>(
    mut op: impl FnMut(u32) -> T,
    max_retries: u32,
    stats: &mut DmrStats,
) -> T {
    stats.executions += 1;
    let first = op(0);
    let second = op(1);
    if first.to_bits() == second.to_bits() {
        return first;
    }
    stats.mismatches += 1;
    // Disagreement: re-execute until some value repeats (SEU ⇒ the third
    // execution matches one of the first two).
    let mut seen = [first, second];
    for retry in 0..max_retries {
        let v = op(2 + retry);
        if seen.iter().any(|s| s.to_bits() == v.to_bits()) {
            return v;
        }
        seen[0] = seen[1];
        seen[1] = v;
    }
    stats.unresolved += 1;
    second
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreeing_replicas_pass_through() {
        let mut stats = DmrStats::default();
        let v = protected(|_| 2.5f64, 3, &mut stats);
        assert_eq!(v, 2.5);
        assert_eq!(stats.mismatches, 0);
        assert_eq!(stats.executions, 1);
    }

    #[test]
    fn single_fault_is_outvoted() {
        let mut stats = DmrStats::default();
        // Replica 0 is corrupted; replicas 1 and 2 agree.
        let v = protected(
            |replica| if replica == 0 { 99.0f64 } else { 7.0 },
            3,
            &mut stats,
        );
        assert_eq!(v, 7.0);
        assert_eq!(stats.mismatches, 1);
        assert_eq!(stats.unresolved, 0);
    }

    #[test]
    fn fault_in_second_replica_is_outvoted() {
        let mut stats = DmrStats::default();
        let v = protected(
            |replica| if replica == 1 { -1.0f32 } else { 3.5 },
            3,
            &mut stats,
        );
        assert_eq!(v, 3.5);
        assert_eq!(stats.mismatches, 1);
    }

    #[test]
    fn persistent_disagreement_is_reported() {
        let mut stats = DmrStats::default();
        let mut x = 0.0f64;
        let _ = protected(
            |_| {
                x += 1.0;
                x
            },
            2,
            &mut stats,
        );
        assert_eq!(stats.unresolved, 1);
    }

    #[test]
    fn stats_merge() {
        let mut a = DmrStats {
            executions: 2,
            mismatches: 1,
            unresolved: 0,
        };
        let b = DmrStats {
            executions: 3,
            mismatches: 0,
            unresolved: 1,
        };
        a.merge(&b);
        assert_eq!(
            a,
            DmrStats {
                executions: 5,
                mismatches: 1,
                unresolved: 1
            }
        );
    }
}
