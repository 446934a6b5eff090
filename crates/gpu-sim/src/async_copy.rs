//! The Ampere asynchronous global→shared copy pipeline (`cp.async`).
//!
//! The paper's key architectural observation (§I, Fig. 1) is that from SM80
//! on, global→shared transfers can *bypass the register file*. Pre-Ampere
//! kernels staged every element through registers, which let ABFT schemes
//! (Wu's ICS'23 scheme) compute input checksums "for free" during the copy.
//! With `cp.async` that register-reuse trick is impossible, so checksums
//! must either re-read global memory (expensive) or be computed from the
//! register *fragments* that the MMA main loop loads anyway — which is
//! exactly what FT K-means does (Fig. 6 lines 15–18).
//!
//! [`AsyncPipeline`] models a `k_stage`-deep ring of (A, B) shared tiles with
//! `commit_group`/`wait_group` semantics, and enforces the staging
//! discipline: reading a stage that has not been waited on is a bug (a data
//! race on real hardware) and panics in the simulator.

use crate::counters::EventSink;
use crate::error::SimError;
use crate::scalar::Scalar;
use crate::shared::SharedTile;
use std::collections::VecDeque;

/// Which global→shared data path the device uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyPath {
    /// Pre-Ampere: elements pass through the register file; an observer can
    /// piggyback checksum accumulation on the copy (register reuse).
    RegisterStaged,
    /// Ampere+ `cp.async`: the register file is bypassed; no per-element
    /// observation is possible during the copy.
    AsyncBypass,
}

/// A multi-stage software pipeline of A and B operand tiles.
#[derive(Debug)]
pub struct AsyncPipeline<T> {
    a: Vec<SharedTile<T>>,
    b: Vec<SharedTile<T>>,
    /// Stages written and committed but not yet waited on (bit `s` is
    /// stage `s`).
    in_flight: u64,
    /// FIFO of committed groups, each the bitmask of its stages.
    pending: VecDeque<u64>,
    /// Stages copied since the last `commit_group`.
    current_group: u64,
    path: CopyPath,
}

impl<T: Scalar> AsyncPipeline<T> {
    /// Create a pipeline of `k_stages` stages with A tiles of
    /// `tb_m x tb_k` and B tiles of `tb_n x tb_k`.
    pub fn new(k_stages: usize, tb_m: usize, tb_n: usize, tb_k: usize, path: CopyPath) -> Self {
        assert!(k_stages >= 2, "a pipeline needs at least 2 stages");
        assert!(k_stages <= 64, "a pipeline holds at most 64 stages");
        AsyncPipeline {
            a: (0..k_stages).map(|_| SharedTile::new(tb_m, tb_k)).collect(),
            b: (0..k_stages).map(|_| SharedTile::new(tb_n, tb_k)).collect(),
            in_flight: 0,
            pending: VecDeque::with_capacity(k_stages),
            current_group: 0,
            path,
        }
    }

    /// Number of stages.
    pub fn k_stages(&self) -> usize {
        self.a.len()
    }

    /// The copy path of the underlying device.
    pub fn path(&self) -> CopyPath {
        self.path
    }

    /// Total shared-memory bytes held by the pipeline.
    pub fn smem_bytes(&self) -> usize {
        self.a.iter().map(SharedTile::bytes).sum::<usize>()
            + self.b.iter().map(SharedTile::bytes).sum::<usize>()
    }

    /// Issue an asynchronous copy filling stage `stage`'s A and B tiles.
    ///
    /// `fill_a(tile)` / `fill_b(tile)` write the tile contents (the kernel
    /// decides addressing and zero-padding). The copy is counted as one
    /// `cp.async` burst per tile; global traffic is charged by the fill
    /// closures through the counter sink.
    pub fn cp_async<C: EventSink + ?Sized>(
        &mut self,
        stage: usize,
        counters: &C,
        fill_a: impl FnOnce(&mut SharedTile<T>),
        fill_b: impl FnOnce(&mut SharedTile<T>),
    ) {
        assert!(stage < self.k_stages(), "stage {stage} out of range");
        fill_a(&mut self.a[stage]);
        fill_b(&mut self.b[stage]);
        counters.add_cp_async(2);
        self.in_flight |= 1 << stage;
        self.current_group |= 1 << stage;
    }

    /// Like [`AsyncPipeline::cp_async`] but additionally invokes `observe`
    /// for every element copied — only possible on the register-staged path.
    ///
    /// Returns [`SimError::InvalidConfig`] on `AsyncBypass` devices: this is
    /// the precise failure mode that breaks Wu's register-reuse ABFT on
    /// Ampere (paper §I).
    pub fn cp_staged_observed<C: EventSink + ?Sized>(
        &mut self,
        stage: usize,
        counters: &C,
        fill_a: impl FnOnce(&mut SharedTile<T>),
        fill_b: impl FnOnce(&mut SharedTile<T>),
        observe: impl FnMut(Operand, usize, usize, T),
    ) -> Result<(), SimError> {
        if self.path == CopyPath::AsyncBypass {
            return Err(SimError::InvalidConfig(
                "register-staged copy observation is unavailable when cp.async bypasses the \
                 register file (Ampere)"
                    .to_string(),
            ));
        }
        let mut observe = observe;
        self.cp_async(stage, counters, fill_a, fill_b);
        // On the register-staged path every element is visible in flight.
        for (r, c, v) in iter_tile(&self.a[stage]) {
            observe(Operand::A, r, c, v);
        }
        for (r, c, v) in iter_tile(&self.b[stage]) {
            observe(Operand::B, r, c, v);
        }
        Ok(())
    }

    /// Commit all copies issued since the previous commit as one group
    /// (`cp.async.commit_group`).
    pub fn commit_group(&mut self) {
        self.pending
            .push_back(std::mem::take(&mut self.current_group));
    }

    /// Wait until at most `max_pending` committed groups remain in flight
    /// (`cp.async.wait_group N`), marking completed stages ready.
    pub fn wait_group(&mut self, max_pending: usize) {
        while self.pending.len() > max_pending {
            let group = self.pending.pop_front().expect("len checked");
            self.in_flight &= !group;
        }
    }

    /// Read access to stage `stage`'s A tile. Panics if the stage is still
    /// in flight — the simulator's equivalent of a shared-memory data race.
    pub fn a(&self, stage: usize) -> &SharedTile<T> {
        self.assert_ready(stage);
        &self.a[stage]
    }

    /// Read access to stage `stage`'s B tile (same discipline as `a`).
    pub fn b(&self, stage: usize) -> &SharedTile<T> {
        self.assert_ready(stage);
        &self.b[stage]
    }

    fn assert_ready(&self, stage: usize) {
        assert!(
            self.in_flight & (1 << stage) == 0,
            "read of in-flight pipeline stage {stage}: missing cp.async.wait_group"
        );
    }

    /// Number of committed groups not yet waited on.
    pub fn pending_groups(&self) -> usize {
        self.pending.len()
    }
}

/// Which GEMM operand a copied element belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// Samples tile (X).
    A,
    /// Centroids tile (Y).
    B,
}

fn iter_tile<T: Scalar>(tile: &SharedTile<T>) -> impl Iterator<Item = (usize, usize, T)> + '_ {
    let cols = tile.cols();
    tile.as_slice()
        .iter()
        .enumerate()
        .map(move |(i, &v)| (i / cols, i % cols, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Counters;

    fn fill_seq(tile: &mut SharedTile<f32>) {
        for r in 0..tile.rows() {
            for c in 0..tile.cols() {
                tile.set(r, c, (r * tile.cols() + c) as f32);
            }
        }
    }

    #[test]
    fn commit_wait_discipline() {
        let c = Counters::new();
        let mut p = AsyncPipeline::<f32>::new(3, 4, 4, 2, CopyPath::AsyncBypass);
        p.cp_async(0, &c, fill_seq, fill_seq);
        p.commit_group();
        p.cp_async(1, &c, fill_seq, fill_seq);
        p.commit_group();
        assert_eq!(p.pending_groups(), 2);
        // wait until at most 1 group pending -> stage 0 ready, stage 1 not
        p.wait_group(1);
        assert_eq!(p.pending_groups(), 1);
        assert_eq!(p.a(0).get(0, 1), 1.0);
        // stage 1 readable only after full drain
        p.wait_group(0);
        assert_eq!(p.b(1).get(1, 0), 2.0);
        assert_eq!(c.snapshot().cp_async_ops, 4);
    }

    #[test]
    #[should_panic(expected = "in-flight")]
    fn reading_inflight_stage_panics() {
        let c = Counters::new();
        let mut p = AsyncPipeline::<f32>::new(2, 2, 2, 2, CopyPath::AsyncBypass);
        p.cp_async(0, &c, |_| {}, |_| {});
        p.commit_group();
        let _ = p.a(0); // no wait_group -> race
    }

    #[test]
    fn observed_copy_works_on_turing() {
        let c = Counters::new();
        let mut p = AsyncPipeline::<f32>::new(2, 2, 3, 2, CopyPath::RegisterStaged);
        let mut sum_a = 0.0f32;
        let mut count_b = 0usize;
        p.cp_staged_observed(0, &c, fill_seq, fill_seq, |op, _r, _c, v| match op {
            Operand::A => sum_a += v,
            Operand::B => count_b += 1,
        })
        .unwrap();
        assert_eq!(sum_a, (0..4).sum::<i32>() as f32);
        assert_eq!(count_b, 6);
    }

    #[test]
    fn observed_copy_fails_on_ampere() {
        let c = Counters::new();
        let mut p = AsyncPipeline::<f64>::new(2, 2, 2, 2, CopyPath::AsyncBypass);
        let err = p
            .cp_staged_observed(0, &c, |_| {}, |_| {}, |_, _, _, _| {})
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
    }

    #[test]
    fn smem_accounting() {
        let p = AsyncPipeline::<f64>::new(3, 64, 64, 16, CopyPath::AsyncBypass);
        assert_eq!(p.smem_bytes(), 3 * (64 + 64) * 16 * 8);
    }

    #[test]
    #[should_panic(expected = "at least 2 stages")]
    fn single_stage_rejected() {
        let _ = AsyncPipeline::<f32>::new(1, 2, 2, 2, CopyPath::AsyncBypass);
    }
}
