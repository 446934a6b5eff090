//! Named dataset scenarios shared by benches, tests and examples.

use crate::blobs::{make_blobs, BlobSpec};
use gpu_sim::{Matrix, Scalar};

/// A named dataset recipe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetSpec {
    pub name: &'static str,
    pub samples: usize,
    pub dim: usize,
    pub clusters: usize,
    pub seed: u64,
}

impl DatasetSpec {
    /// Materialize the dataset (blobs with one component per cluster).
    pub fn build<T: Scalar>(&self) -> (Matrix<T>, Vec<u32>, Matrix<T>) {
        make_blobs(&BlobSpec {
            samples: self.samples,
            dim: self.dim,
            centers: self.clusters,
            cluster_std: 0.5,
            center_box: 6.0,
            seed: self.seed,
        })
    }
}

/// The scenarios exercised by tests and the functional benches. Shapes
/// mirror the paper's sweeps at test-friendly M.
pub const SCENARIOS: &[DatasetSpec] = &[
    DatasetSpec {
        name: "tiny",
        samples: 256,
        dim: 4,
        clusters: 4,
        seed: 1,
    },
    DatasetSpec {
        name: "skinny-n8",
        samples: 4096,
        dim: 8,
        clusters: 32,
        seed: 2,
    },
    DatasetSpec {
        name: "wide-n64",
        samples: 2048,
        dim: 64,
        clusters: 16,
        seed: 3,
    },
    DatasetSpec {
        name: "many-clusters",
        samples: 4096,
        dim: 16,
        clusters: 128,
        seed: 4,
    },
    DatasetSpec {
        name: "irregular",
        samples: 3000,
        dim: 24,
        clusters: 52,
        seed: 5,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scenarios_build() {
        for s in SCENARIOS {
            let (data, labels, centers) = s.build::<f32>();
            assert_eq!(data.rows(), s.samples, "{}", s.name);
            assert_eq!(data.cols(), s.dim);
            assert_eq!(centers.rows(), s.clusters);
            assert_eq!(labels.len(), s.samples);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = SCENARIOS.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SCENARIOS.len());
    }
}
