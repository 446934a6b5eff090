//! Cross-threadblock argmin.
//!
//! The paper's V3/V4 kernels fuse the nearest-centroid reduction into the
//! GEMM kernel: every threadblock merges its partial row minima into one
//! global answer, under per-row locks ("broadcast vector and atomic
//! operation", §III-A4). [`ArgminSlots`] keeps that merge's charge (one
//! atomic per row and block) but needs no lock. Block `(bx, by)` stores its
//! rows' `(distance, column)` minima into column block `bx`'s own slots, so
//! every slot has exactly one writer. After the launch the host folds the
//! column blocks in ascending order by [`takes`], the rule a lock-guarded
//! merge applies. The answer so does not depend on block order, by
//! construction, and with one column block the slots are the answer.

use crate::counters::EventSink;
use crate::scalar::Scalar;
use std::sync::atomic::{AtomicU32, Ordering};

/// True when candidate `(d, col)` replaces `best`: a smaller distance, or
/// an equal one (`−0.0 == +0.0`) at a smaller column. NaN never replaces,
/// and `(+∞, u32::MAX)` is the empty slot. Among non-NaN pairs of distinct
/// columns this picks the minimum of a total order, so any merge order
/// gives what a scan in column order gives, bits and ties included.
#[inline(always)]
pub fn takes<T: Scalar>(d: T, col: u32, best: (T, u32)) -> bool {
    (d < best.0) | ((d == best.0) & (col < best.1))
}

/// Per-row `(distance, column)` minima of every column block of a launch:
/// `rows` slots per column block, each written by the one block that owns
/// it, all starting as the empty slot `(+∞, u32::MAX)`.
pub struct ArgminSlots<T: Scalar> {
    rows: usize,
    dist: Vec<T::Cell>,
    col: Vec<AtomicU32>,
}

impl<T: Scalar> ArgminSlots<T> {
    /// Empty slots for `rows` rows of `col_blocks` column blocks (at least
    /// one, so a launch with no columns still yields one empty pair a row).
    pub fn new(rows: usize, col_blocks: usize) -> Self {
        let n = rows * col_blocks.max(1);
        ArgminSlots {
            rows,
            dist: (0..n).map(|_| T::cell(T::INFINITY)).collect(),
            col: (0..n).map(|_| AtomicU32::new(u32::MAX)).collect(),
        }
    }

    /// Store column block `bx`'s minimum `(dist, col)` of `row`, charged
    /// as one atomic (the merge it stands for). A plain (relaxed) store: the
    /// slot has no other writer, and [`ArgminSlots::reduce`] takes `self`,
    /// so it runs after the launch has joined every block (the executor's
    /// completion count is an acquire-release counter), which orders every
    /// store before the fold.
    #[inline]
    pub fn put<C: EventSink + ?Sized>(
        &self,
        bx: usize,
        row: usize,
        dist: T,
        col: u32,
        counters: &C,
    ) {
        counters.add_atomic(1);
        let at = bx * self.rows + row;
        T::store_cell(&self.dist[at], dist);
        self.col[at].store(col, Ordering::Relaxed);
    }

    /// Each row's winner over the column blocks, `(distances, columns)`:
    /// column block 0's pair, replaced by block 1's where it [`takes`], and
    /// so on in ascending order. A block's minimum is never NaN (its scan
    /// starts at the empty slot), so starting at block 0 gives what
    /// starting at the empty slot would; with one column block no fold runs.
    pub fn reduce(self) -> (Vec<T>, Vec<u32>) {
        let m = self.rows;
        let mut dist: Vec<T> = self.dist.into_iter().map(|c| T::load_cell(&c)).collect();
        let mut col: Vec<u32> = self.col.into_iter().map(AtomicU32::into_inner).collect();
        if dist.len() > m {
            let (best_d, rest_d) = dist.split_at_mut(m);
            let (best_c, rest_c) = col.split_at_mut(m);
            let blocks = rest_d.chunks_exact(m).zip(rest_c.chunks_exact(m));
            for (d, c) in blocks {
                for r in 0..m {
                    if takes(d[r], c[r], (best_d[r], best_c[r])) {
                        (best_d[r], best_c[r]) = (d[r], c[r]);
                    }
                }
            }
            dist.truncate(m);
            dist.shrink_to_fit();
            col.truncate(m);
            col.shrink_to_fit();
        }
        (dist, col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Counters;

    #[test]
    fn merge_keeps_minimum() {
        let c = Counters::new();
        let slots = ArgminSlots::<f32>::new(2, 3);
        slots.put(0, 0, 5.0, 3, &c);
        slots.put(1, 0, 2.0, 7, &c);
        slots.put(2, 0, 9.0, 11, &c);
        let (d, i) = slots.reduce();
        assert_eq!((d[0], i[0]), (2.0, 7));
        assert_eq!((d[1], i[1]), (f32::INFINITY, u32::MAX));
        assert_eq!(c.snapshot().atomic_ops, 3);
    }

    #[test]
    fn ties_break_to_smaller_index() {
        let c = Counters::new();
        let slots = ArgminSlots::<f64>::new(1, 3);
        slots.put(0, 0, 1.5, 2, &c);
        slots.put(1, 0, 1.5, 9, &c);
        slots.put(2, 0, -0.0, 12, &c);
        let one = ArgminSlots::<f64>::new(1, 2);
        one.put(0, 0, 0.0, 4, &c);
        one.put(1, 0, -0.0, 9, &c);
        assert_eq!(slots.reduce(), (vec![-0.0], vec![12]));
        let (d, i) = one.reduce();
        assert_eq!(
            (d[0].to_bits(), i[0]),
            (0.0f64.to_bits(), 4),
            "+0.0 at the smaller column"
        );
    }

    #[test]
    fn concurrent_merges_find_global_min() {
        let c = Counters::new();
        let slots = ArgminSlots::<f32>::new(4, 8);
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let (slots, c) = (&slots, &c);
                s.spawn(move || {
                    for row in 0..4 {
                        // Column block t proposes distance (t xor row) + 1,
                        // so each row has a unique minimum at t == row.
                        slots.put(t as usize, row, ((t ^ row as u32) + 1) as f32, t, c);
                    }
                });
            }
        });
        let (d, i) = slots.reduce();
        assert_eq!(d, vec![1.0; 4]);
        assert_eq!(i, vec![0, 1, 2, 3]);
    }

    #[test]
    fn no_column_blocks_reduce_to_empty_pairs() {
        let (d, i) = ArgminSlots::<f32>::new(3, 0).reduce();
        assert_eq!(d, vec![f32::INFINITY; 3]);
        assert_eq!(i, vec![u32::MAX; 3]);
    }
}
