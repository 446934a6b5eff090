//! The auto-tuner: benchmark every feasible kernel over the evaluation
//! shape grid and record the winner per shape.
//!
//! "The test workflow illustrated in Figure 3 checks the feasibility of
//! those kernels and performs the benchmark over 64 problem sizes. The
//! benchmark result of different kernels will be employed as the kernel
//! selection criterion." (§III-B2)

use crate::feasibility::{feasible_set, stages_for};
use crate::params::KernelParams;
use crate::registry::ParamRegistry;
use gpu_sim::timing::{estimate, GemmShape, KernelClass, TimingInput};
use gpu_sim::{DeviceProfile, Precision};

/// The problem-size grid the tuner sweeps (8 dims × 8 cluster counts = 64
/// shapes, matching the paper's Fig. 12/14 axes).
#[derive(Debug, Clone, PartialEq)]
pub struct ShapeGrid {
    /// Sample count (fixed at 131072 in the paper).
    pub m: usize,
    /// Feature dimensions (paper N axis).
    pub dims: Vec<usize>,
    /// Cluster counts (paper K axis).
    pub clusters: Vec<usize>,
}

impl ShapeGrid {
    /// The paper's 64-shape grid: N ∈ {8, 24, …, 120}, K ∈ {32, 96, …, 480}.
    pub fn paper() -> Self {
        ShapeGrid {
            m: 131_072,
            dims: (0..8).map(|i| 8 + 16 * i).collect(),
            clusters: (0..8).map(|i| 32 + 64 * i).collect(),
        }
    }

    /// A reduced grid for fast tests.
    pub fn small() -> Self {
        ShapeGrid {
            m: 131_072,
            dims: vec![8, 64, 128],
            clusters: vec![8, 128],
        }
    }

    /// Total number of shapes.
    pub fn len(&self) -> usize {
        self.dims.len() * self.clusters.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Winner information for one shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunedEntry {
    /// Feature dimension (GEMM K).
    pub dim: usize,
    /// Cluster count (GEMM N).
    pub clusters: usize,
    /// Registry id of the winning parameter group.
    pub param_id: usize,
    /// Winner throughput (timing model), GFLOP/s.
    pub gflops: f64,
    /// cuML's fixed parameters at the same shape, GFLOP/s.
    pub cuml_gflops: f64,
}

impl TunedEntry {
    /// Speedup of the tuned kernel over cuML.
    pub fn speedup(&self) -> f64 {
        self.gflops / self.cuml_gflops
    }
}

/// The tuner output: per-shape winners for one (device, precision).
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionTable {
    pub device: String,
    pub precision: Precision,
    pub m: usize,
    pub entries: Vec<TunedEntry>,
}

impl SelectionTable {
    /// Average speedup over cuML across the grid.
    pub fn mean_speedup(&self) -> f64 {
        self.entries.iter().map(TunedEntry::speedup).sum::<f64>() / self.entries.len() as f64
    }

    /// Maximum speedup over cuML across the grid.
    pub fn max_speedup(&self) -> f64 {
        self.entries
            .iter()
            .map(TunedEntry::speedup)
            .fold(0.0, f64::max)
    }

    /// Distinct winning parameter ids (the paper observes only 7 FP32 / 4
    /// FP64 groups are ever selected, §V-A5).
    pub fn distinct_winners(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = self.entries.iter().map(|e| e.param_id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

/// Model-predicted throughput of one parameter group at one shape.
pub fn predicted_gflops(
    device: &DeviceProfile,
    precision: Precision,
    params: &KernelParams,
    m: usize,
    clusters: usize,
    dim: usize,
) -> f64 {
    let tile = params.tile_config(stages_for(device));
    let input = TimingInput::plain(
        device,
        precision,
        KernelClass::Tensor(tile),
        GemmShape::new(m, clusters, dim),
    );
    estimate(&input).gflops
}

/// Run the tuner: probe feasibility, benchmark every survivor on every
/// shape, record winners.
pub fn tune(
    device: &DeviceProfile,
    precision: Precision,
    registry: &ParamRegistry,
    grid: &ShapeGrid,
) -> SelectionTable {
    let space: Vec<KernelParams> = registry.iter().map(|(_, p)| *p).collect();
    let feasible = feasible_set(device, precision, &space);
    assert!(
        !feasible.is_empty(),
        "no feasible kernels on {}",
        device.name
    );
    let cuml = KernelParams::cuml(precision);
    let mut entries = Vec::with_capacity(grid.len());
    for &dim in &grid.dims {
        for &clusters in &grid.clusters {
            let mut best_id = feasible[0].0;
            let mut best = f64::NEG_INFINITY;
            for (id, p) in &feasible {
                let g = predicted_gflops(device, precision, p, grid.m, clusters, dim);
                if g > best {
                    best = g;
                    best_id = *id;
                }
            }
            let cuml_g = predicted_gflops(device, precision, &cuml, grid.m, clusters, dim);
            entries.push(TunedEntry {
                dim,
                clusters,
                param_id: best_id,
                gflops: best,
                cuml_gflops: cuml_g,
            });
        }
    }
    SelectionTable {
        device: device.name.to_string(),
        precision,
        m: grid.m,
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_has_64_shapes() {
        let g = ShapeGrid::paper();
        assert_eq!(g.len(), 64);
        assert_eq!(g.dims[0], 8);
        assert_eq!(*g.dims.last().unwrap(), 120);
        assert_eq!(g.clusters[0], 32);
        assert_eq!(*g.clusters.last().unwrap(), 480);
    }

    #[test]
    fn tuned_kernels_never_lose_to_cuml() {
        // cuML's parameters are inside the search space, so the winner is
        // at least as fast at every shape.
        let dev = DeviceProfile::a100();
        let reg = ParamRegistry::new(Precision::Fp32);
        let table = tune(&dev, Precision::Fp32, &reg, &ShapeGrid::small());
        for e in &table.entries {
            assert!(
                e.gflops >= e.cuml_gflops * 0.999,
                "shape dim={} k={} lost to cuML",
                e.dim,
                e.clusters
            );
        }
    }

    #[test]
    fn fp32_speedups_match_paper_band() {
        // Paper Fig. 12: FP32 average 2.49x, max 4.55x over cuML.
        let dev = DeviceProfile::a100();
        let reg = ParamRegistry::new(Precision::Fp32);
        let table = tune(&dev, Precision::Fp32, &reg, &ShapeGrid::paper());
        let mean = table.mean_speedup();
        let max = table.max_speedup();
        assert!((1.6..=3.6).contains(&mean), "FP32 mean speedup {mean:.2}");
        assert!((2.5..=7.0).contains(&max), "FP32 max speedup {max:.2}");
    }

    #[test]
    fn fp64_speedups_are_marginal_as_in_paper() {
        // Paper Fig. 12: FP64 average 1.04x, max 1.39x.
        let dev = DeviceProfile::a100();
        let reg = ParamRegistry::new(Precision::Fp64);
        let table = tune(&dev, Precision::Fp64, &reg, &ShapeGrid::paper());
        let mean = table.mean_speedup();
        assert!((1.0..=1.6).contains(&mean), "FP64 mean speedup {mean:.2}");
    }

    #[test]
    fn few_distinct_winners() {
        // §V-A5: only a handful of parameter groups are ever selected.
        let dev = DeviceProfile::a100();
        let reg = ParamRegistry::new(Precision::Fp32);
        let table = tune(&dev, Precision::Fp32, &reg, &ShapeGrid::paper());
        let w = table.distinct_winners();
        assert!(
            (1..=16).contains(&w.len()),
            "expected a small winner set, got {} ids",
            w.len()
        );
    }
}
