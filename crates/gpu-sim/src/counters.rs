//! Hardware-event counters collected during functional kernel execution.
//!
//! The functional simulator counts the events that the analytic timing model
//! reasons about: global-memory traffic, MMA/FMA issue counts, atomics and
//! barriers. Tests use them to assert structural properties of kernels (e.g.
//! "the fused variant does not write the distance matrix back to global
//! memory", paper §III-A3).
//!
//! Two charging paths exist, unified by the [`EventSink`] trait:
//!
//! * [`Counters`] — the shared, atomic accumulator a launch is charged to.
//!   Host-side code (uploads, unit tests) charges it directly.
//! * [`CounterSink`] — a worker-local, non-atomic shard used inside kernel
//!   execution. Every counted primitive inside a threadblock charges plain
//!   [`Cell`]s; the execution engine merges the shard into the shared
//!   [`Counters`] exactly once per block, eliminating the shared-cache-line
//!   ping-pong of per-element `fetch_add`s while keeping totals bit-identical
//!   (u64 addition is exact and commutative, so serial and parallel launches
//!   produce the same [`CounterSnapshot`]).
//!
//! The event list lives in one place — the `counter_events!` invocation —
//! which generates the structs, the snapshot/flush plumbing and both
//! [`EventSink`] impls, so adding an event kind cannot leave a path out of
//! sync.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Defines every counter-carrying type from one event list.
///
/// `counted` events expose `fn add(&self, n: u64)`; `unit` events expose
/// `fn add(&self)` (increment by one). Generates [`Counters`],
/// [`CounterSnapshot`], [`CounterSink`], the [`EventSink`] trait and its two
/// impls, plus the snapshot/reset/flush/since plumbing.
macro_rules! counter_events {
    (
        counted { $($(#[doc = $cdoc:literal])* $cfield:ident => $cadd:ident),+ $(,)? }
        unit { $($(#[doc = $udoc:literal])* $ufield:ident => $uadd:ident),+ $(,)? }
    ) => {
        /// Shared atomic event counters. Cheap to increment from parallel
        /// threadblocks; snapshot with [`Counters::snapshot`].
        #[derive(Debug, Default)]
        pub struct Counters {
            $($(#[doc = $cdoc])* pub $cfield: AtomicU64,)+
            $($(#[doc = $udoc])* pub $ufield: AtomicU64,)+
        }

        /// A plain-value copy of [`Counters`] at a point in time.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct CounterSnapshot {
            $($(#[doc = $cdoc])* pub $cfield: u64,)+
            $($(#[doc = $udoc])* pub $ufield: u64,)+
        }

        /// Anything hardware events can be charged to: the shared
        /// [`Counters`] (atomic, host-side) or a worker-local
        /// [`CounterSink`] (non-atomic, inside kernels). Counted primitives
        /// are generic over this trait so the same kernel code runs against
        /// either.
        pub trait EventSink {
            $($(#[doc = $cdoc])* fn $cadd(&self, n: u64);)+
            $($(#[doc = $udoc])* fn $uadd(&self);)+
        }

        impl Counters {
            $(
                $(#[doc = $cdoc])*
                #[inline]
                pub fn $cadd(&self, n: u64) {
                    self.$cfield.fetch_add(n, Ordering::Relaxed);
                }
            )+
            $(
                $(#[doc = $udoc])*
                #[inline]
                pub fn $uadd(&self) {
                    self.$ufield.fetch_add(1, Ordering::Relaxed);
                }
            )+

            /// Capture current values.
            pub fn snapshot(&self) -> CounterSnapshot {
                CounterSnapshot {
                    $($cfield: self.$cfield.load(Ordering::Relaxed),)+
                    $($ufield: self.$ufield.load(Ordering::Relaxed),)+
                }
            }

            /// Reset every counter to zero.
            pub fn reset(&self) {
                $(self.$cfield.store(0, Ordering::Relaxed);)+
                $(self.$ufield.store(0, Ordering::Relaxed);)+
            }

            /// Fold a plain-value snapshot into these live counters — the
            /// aggregation half of per-request scoping. A serving layer
            /// charges each admitted request its own scoped [`Counters`]
            /// (so concurrent requests never cross-talk), then folds the
            /// request's finished [`CounterSnapshot`] into a shared total
            /// with one call. Zero fields cost nothing (no atomic issued).
            pub fn add_snapshot(&self, s: &CounterSnapshot) {
                $(if s.$cfield != 0 {
                    self.$cfield.fetch_add(s.$cfield, Ordering::Relaxed);
                })+
                $(if s.$ufield != 0 {
                    self.$ufield.fetch_add(s.$ufield, Ordering::Relaxed);
                })+
            }
        }

        impl EventSink for Counters {
            $(fn $cadd(&self, n: u64) { Counters::$cadd(self, n); })+
            $(fn $uadd(&self) { Counters::$uadd(self); })+
        }

        /// A worker-local counter shard. Accumulates events in plain
        /// [`Cell`]s (no atomics, no sharing — the type is deliberately
        /// `!Sync`) and merges them into the shared [`Counters`] on
        /// [`CounterSink::flush`] or drop.
        ///
        /// The execution engine creates one per worker and flushes once per
        /// threadblock, so the shared cache line is touched O(blocks) times
        /// instead of O(memory accesses).
        #[derive(Debug)]
        pub struct CounterSink<'a> {
            shared: &'a Counters,
            $($cfield: Cell<u64>,)+
            $($ufield: Cell<u64>,)+
        }

        impl<'a> CounterSink<'a> {
            /// A zeroed sink draining into `shared`.
            pub fn new(shared: &'a Counters) -> Self {
                CounterSink {
                    shared,
                    $($cfield: Cell::new(0),)+
                    $($ufield: Cell::new(0),)+
                }
            }

            /// The shared counters this sink drains into.
            pub fn shared(&self) -> &'a Counters {
                self.shared
            }

            $(
                $(#[doc = $cdoc])*
                #[inline]
                pub fn $cadd(&self, n: u64) {
                    self.$cfield.set(self.$cfield.get().wrapping_add(n));
                }
            )+
            $(
                $(#[doc = $udoc])*
                #[inline]
                pub fn $uadd(&self) {
                    self.$ufield.set(self.$ufield.get().wrapping_add(1));
                }
            )+

            /// Merge the local tallies into the shared [`Counters`] and
            /// reset them. Zero fields cost nothing (no atomic issued).
            pub fn flush(&self) {
                fn drain(cell: &Cell<u64>, target: &AtomicU64) {
                    let v = cell.replace(0);
                    if v != 0 {
                        target.fetch_add(v, Ordering::Relaxed);
                    }
                }
                $(drain(&self.$cfield, &self.shared.$cfield);)+
                $(drain(&self.$ufield, &self.shared.$ufield);)+
            }
        }

        impl EventSink for CounterSink<'_> {
            $(fn $cadd(&self, n: u64) { CounterSink::$cadd(self, n); })+
            $(fn $uadd(&self) { CounterSink::$uadd(self); })+
        }

        impl CounterSnapshot {
            /// Difference `self - earlier`, elementwise (saturating).
            pub fn since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
                CounterSnapshot {
                    $($cfield: self.$cfield.saturating_sub(earlier.$cfield),)+
                    $($ufield: self.$ufield.saturating_sub(earlier.$ufield),)+
                }
            }

            /// Sum `self + other`, elementwise (saturating): folds a
            /// per-step snapshot into a running total (e.g. per-batch
            /// counters of a streaming fit).
            pub fn merged(&self, other: &CounterSnapshot) -> CounterSnapshot {
                CounterSnapshot {
                    $($cfield: self.$cfield.saturating_add(other.$cfield),)+
                    $($ufield: self.$ufield.saturating_add(other.$ufield),)+
                }
            }

            /// The nonzero fields as `(name, value)` pairs in declaration
            /// order — the flat form the `trace` crate consumes (it sits
            /// below this crate, so it cannot see [`CounterSnapshot`]).
            /// Declaration order is part of the trace byte-stability
            /// contract.
            pub fn nonzero_fields(&self) -> Vec<(&'static str, u64)> {
                let mut out = Vec::new();
                $(if self.$cfield != 0 {
                    out.push((stringify!($cfield), self.$cfield));
                })+
                $(if self.$ufield != 0 {
                    out.push((stringify!($ufield), self.$ufield));
                })+
                out
            }
        }
    };
}

counter_events! {
    counted {
        /// Bytes read from global memory.
        bytes_loaded => add_loaded,
        /// Bytes written to global memory.
        bytes_stored => add_stored,
        /// Warp-level tensor-core MMA instructions issued.
        mma_ops => add_mma,
        /// Scalar fused-multiply-add operations on CUDA cores.
        fma_ops => add_fma,
        /// Atomic read-modify-write operations on global memory.
        atomic_ops => add_atomic,
        /// `cp.async` copy instructions issued.
        cp_async_ops => add_cp_async,
        /// Extra global reads forced on a fault-tolerance scheme when the
        /// register-staged path is unavailable (Wu's scheme on Ampere).
        ft_extra_loads => add_ft_extra_loads,
        /// Checksum-related arithmetic performed on CUDA cores.
        ft_cuda_ops => add_ft_cuda,
        /// Checksum-related MMA instructions on tensor cores.
        ft_mma_ops => add_ft_mma,
        /// Candidate distance computations skipped by triangle-inequality
        /// bound pruning (Hamerly-style assignment kernels).
        pruned_candidates => add_pruned,
        /// Samples whose quantized argmin margin did not clear the
        /// quantization error bound and fell back to the exact fp scan
        /// (fused quantized predict kernels).
        quant_fallbacks => add_quant_fallback,
    }
    unit {
        /// `__syncthreads()` barriers executed (per threadblock).
        barriers => add_barrier,
        /// Kernel launches performed.
        kernel_launches => add_launch,
    }
}

impl Counters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh local shard draining into these counters (see
    /// [`CounterSink`]).
    pub fn sink(&self) -> CounterSink<'_> {
        CounterSink::new(self)
    }
}

impl Drop for CounterSink<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

impl CounterSnapshot {
    /// Total global traffic in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_loaded + self.bytes_stored
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increments_and_snapshot() {
        let c = Counters::new();
        c.add_loaded(100);
        c.add_stored(40);
        c.add_mma(3);
        c.add_barrier();
        c.add_atomic(2);
        let s = c.snapshot();
        assert_eq!(s.bytes_loaded, 100);
        assert_eq!(s.bytes_stored, 40);
        assert_eq!(s.mma_ops, 3);
        assert_eq!(s.barriers, 1);
        assert_eq!(s.atomic_ops, 2);
        assert_eq!(s.total_bytes(), 140);
    }

    #[test]
    fn since_computes_delta() {
        let c = Counters::new();
        c.add_loaded(10);
        let before = c.snapshot();
        c.add_loaded(25);
        c.add_fma(7);
        let delta = c.snapshot().since(&before);
        assert_eq!(delta.bytes_loaded, 25);
        assert_eq!(delta.fma_ops, 7);
    }

    #[test]
    fn merged_sums_elementwise_and_inverts_since() {
        let c = Counters::new();
        c.add_loaded(10);
        c.add_launch();
        let a = c.snapshot();
        c.add_loaded(25);
        c.add_fma(7);
        let total = c.snapshot();
        let delta = total.since(&a);
        assert_eq!(a.merged(&delta), total);
        assert_eq!(a.merged(&CounterSnapshot::default()), a);
    }

    #[test]
    fn reset_zeroes_everything() {
        let c = Counters::new();
        c.add_loaded(1);
        c.add_ft_mma(5);
        c.add_launch();
        c.reset();
        assert_eq!(c.snapshot(), CounterSnapshot::default());
    }

    #[test]
    fn sink_merges_on_flush_and_drop() {
        let c = Counters::new();
        let sink = c.sink();
        sink.add_loaded(64);
        sink.add_mma(3);
        sink.add_barrier();
        // nothing visible until the sink flushes
        assert_eq!(c.snapshot(), CounterSnapshot::default());
        sink.flush();
        let s = c.snapshot();
        assert_eq!(s.bytes_loaded, 64);
        assert_eq!(s.mma_ops, 3);
        assert_eq!(s.barriers, 1);
        // flush reset the locals: a second flush adds nothing
        sink.flush();
        assert_eq!(c.snapshot(), s);
        sink.add_fma(7);
        drop(sink); // drop flushes the remainder
        assert_eq!(c.snapshot().fma_ops, 7);
    }

    #[test]
    fn sink_totals_match_direct_charging() {
        let direct = Counters::new();
        let sharded = Counters::new();
        for i in 0..100u64 {
            direct.add_loaded(i);
            direct.add_atomic(1);
            let sink = sharded.sink();
            sink.add_loaded(i);
            sink.add_atomic(1);
        }
        assert_eq!(direct.snapshot(), sharded.snapshot());
    }

    #[test]
    fn every_event_kind_survives_the_sink_round_trip() {
        // One charge per event kind through a sink must land in the shared
        // counters — guards the macro-generated flush list.
        let c = Counters::new();
        {
            let sink = c.sink();
            sink.add_loaded(1);
            sink.add_stored(2);
            sink.add_mma(3);
            sink.add_fma(4);
            sink.add_atomic(5);
            sink.add_cp_async(6);
            sink.add_ft_extra_loads(7);
            sink.add_ft_cuda(8);
            sink.add_ft_mma(9);
            sink.add_pruned(10);
            sink.add_quant_fallback(11);
            sink.add_barrier();
            sink.add_launch();
        }
        let s = c.snapshot();
        assert_eq!(
            (
                s.bytes_loaded,
                s.bytes_stored,
                s.mma_ops,
                s.fma_ops,
                s.atomic_ops,
                s.cp_async_ops,
                s.ft_extra_loads
            ),
            (1, 2, 3, 4, 5, 6, 7)
        );
        assert_eq!(
            (
                s.ft_cuda_ops,
                s.ft_mma_ops,
                s.pruned_candidates,
                s.quant_fallbacks,
                s.barriers,
                s.kernel_launches
            ),
            (8, 9, 10, 11, 1, 1)
        );
    }

    #[test]
    fn add_snapshot_folds_scoped_totals() {
        // Per-request scoping: two "requests" charge their own counters;
        // folding both snapshots into a shared total must equal charging
        // the total directly (u64 addition is exact and commutative).
        let total = Counters::new();
        let req_a = Counters::new();
        req_a.add_loaded(100);
        req_a.add_launch();
        let req_b = Counters::new();
        req_b.add_loaded(30);
        req_b.add_quant_fallback(2);
        total.add_snapshot(&req_a.snapshot());
        total.add_snapshot(&req_b.snapshot());
        assert_eq!(total.snapshot(), req_a.snapshot().merged(&req_b.snapshot()));
        // every field kind survives the fold, not just the touched ones
        let full = Counters::new();
        {
            let sink = full.sink();
            sink.add_loaded(1);
            sink.add_stored(2);
            sink.add_mma(3);
            sink.add_fma(4);
            sink.add_atomic(5);
            sink.add_cp_async(6);
            sink.add_ft_extra_loads(7);
            sink.add_ft_cuda(8);
            sink.add_ft_mma(9);
            sink.add_pruned(10);
            sink.add_quant_fallback(11);
            sink.add_barrier();
            sink.add_launch();
        }
        let copy = Counters::new();
        copy.add_snapshot(&full.snapshot());
        assert_eq!(copy.snapshot(), full.snapshot());
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        let c = Counters::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.add_mma(1);
                    }
                });
            }
        });
        assert_eq!(c.snapshot().mma_ops, 8000);
    }
}
