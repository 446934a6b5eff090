//! Cross-threadblock coordination primitives.
//!
//! The paper's V3/V4 kernels fuse the nearest-centroid reduction into the
//! GEMM kernel by having each threadblock merge its partial row minima into
//! a global result protected by per-row locks ("broadcast vector and atomic
//! operation", §III-A4). [`ArgminStore`] models that structure: one slot per
//! sample row holding the best (distance, centroid) pair seen so far.

use crate::counters::EventSink;
use crate::scalar::Scalar;
use parking_lot::Mutex;

/// Per-row (distance, index) argmin accumulator shared by all threadblocks.
#[derive(Debug)]
pub struct ArgminStore<T> {
    slots: Vec<Mutex<(T, u32)>>,
}

impl<T: Scalar> ArgminStore<T> {
    /// One slot per row, initialized to (+inf, u32::MAX).
    pub fn new(rows: usize) -> Self {
        let mut slots = Vec::with_capacity(rows);
        slots.resize_with(rows, || Mutex::new((T::INFINITY, u32::MAX)));
        ArgminStore { slots }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Merge a candidate (distance, index) for `row`. Equal distances keep
    /// the smaller index so results are deterministic regardless of block
    /// execution order.
    pub fn merge<C: EventSink + ?Sized>(&self, row: usize, dist: T, idx: u32, counters: &C) {
        counters.add_atomic(1);
        let mut slot = self.slots[row].lock();
        if dist < slot.0 || (dist == slot.0 && idx < slot.1) {
            *slot = (dist, idx);
        }
    }

    /// Read one row's current winner.
    pub fn get(&self, row: usize) -> (T, u32) {
        *self.slots[row].lock()
    }

    /// Download all (distance, index) pairs.
    pub fn snapshot(&self) -> (Vec<T>, Vec<u32>) {
        let mut d = Vec::with_capacity(self.slots.len());
        let mut i = Vec::with_capacity(self.slots.len());
        for s in &self.slots {
            let (dist, idx) = *s.lock();
            d.push(dist);
            i.push(idx);
        }
        (d, i)
    }

    /// Reset every slot (between K-means iterations).
    pub fn reset(&self) {
        for s in &self.slots {
            *s.lock() = (T::INFINITY, u32::MAX);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Counters;

    #[test]
    fn merge_keeps_minimum() {
        let c = Counters::new();
        let store = ArgminStore::<f32>::new(2);
        store.merge(0, 5.0, 3, &c);
        store.merge(0, 2.0, 7, &c);
        store.merge(0, 9.0, 1, &c);
        assert_eq!(store.get(0), (2.0, 7));
        assert_eq!(store.get(1), (f32::INFINITY, u32::MAX));
    }

    #[test]
    fn ties_break_to_smaller_index() {
        let c = Counters::new();
        let store = ArgminStore::<f64>::new(1);
        store.merge(0, 1.5, 9, &c);
        store.merge(0, 1.5, 2, &c);
        store.merge(0, 1.5, 5, &c);
        assert_eq!(store.get(0), (1.5, 2));
    }

    #[test]
    fn concurrent_merges_find_global_min() {
        let c = Counters::new();
        let store = ArgminStore::<f32>::new(4);
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let store = &store;
                let c = &c;
                s.spawn(move || {
                    for row in 0..4 {
                        // thread t proposes distance (t xor row) so each row has
                        // a unique minimum across threads
                        store.merge(row, ((t ^ row as u32) + 1) as f32, t, c);
                    }
                });
            }
        });
        for row in 0..4 {
            let (d, idx) = store.get(row);
            assert_eq!(d, 1.0, "row {row}");
            assert_eq!(idx, row as u32); // t == row gives (t^row)+1 == 1
        }
    }

    #[test]
    fn reset_restores_initial_state() {
        let c = Counters::new();
        let store = ArgminStore::<f32>::new(2);
        store.merge(1, 0.5, 4, &c);
        store.reset();
        assert_eq!(store.get(1), (f32::INFINITY, u32::MAX));
    }
}
