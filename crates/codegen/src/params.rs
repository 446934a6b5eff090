//! Kernel parameter triples.
//!
//! "A group of kernel parameters in cuML and CUTLASS refers to a set of
//! parameters, threadblock level parameters, warp level parameters, and
//! thread level parameters. Each level is composed of three parameters from
//! each dimension." (§III-B)

use gpu_sim::timing::TileConfig;
use gpu_sim::Precision;
use std::fmt;

/// One `<M, N, K>` tile triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tile3 {
    pub m: usize,
    pub n: usize,
    pub k: usize,
}

impl Tile3 {
    pub const fn new(m: usize, n: usize, k: usize) -> Self {
        Tile3 { m, n, k }
    }
}

impl fmt::Display for Tile3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{},{},{}>", self.m, self.n, self.k)
    }
}

/// A full kernel parameter group: threadblock, warp and thread tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelParams {
    pub threadblock: Tile3,
    pub warp: Tile3,
    pub thread: Tile3,
}

impl KernelParams {
    pub const fn new(threadblock: Tile3, warp: Tile3, thread: Tile3) -> Self {
        KernelParams {
            threadblock,
            warp,
            thread,
        }
    }

    /// The fixed thread-level tile per precision ("owing to the size of the
    /// tensor core", §III-B1 rule 4).
    pub const fn thread_tile(precision: Precision) -> Tile3 {
        match precision {
            Precision::Fp32 => Tile3::new(16, 8, 4),
            Precision::Fp64 => Tile3::new(8, 8, 4),
        }
    }

    /// Warps per threadblock.
    pub fn warps(&self) -> usize {
        (self.threadblock.m / self.warp.m) * (self.threadblock.n / self.warp.n)
    }

    /// Threads per threadblock.
    pub fn threads(&self) -> usize {
        self.warps() * 32
    }

    /// Convert to the simulator/timing-model tile configuration.
    /// `k_stages` is 3 with `cp.async` (Ampere) and 2 otherwise.
    pub fn tile_config(&self, k_stages: usize) -> TileConfig {
        TileConfig {
            tb_m: self.threadblock.m,
            tb_n: self.threadblock.n,
            tb_k: self.threadblock.k,
            wm: self.warp.m,
            wn: self.warp.n,
            k_stages,
        }
    }

    /// cuML's hard-coded parameter group (Table I).
    pub fn cuml(precision: Precision) -> Self {
        match precision {
            Precision::Fp32 => KernelParams::new(
                Tile3::new(32, 256, 16),
                Tile3::new(32, 64, 16),
                Self::thread_tile(Precision::Fp32),
            ),
            Precision::Fp64 => KernelParams::new(
                Tile3::new(64, 64, 16),
                Tile3::new(32, 32, 16),
                Self::thread_tile(Precision::Fp64),
            ),
        }
    }

    /// The named parameters the paper's Table I lists for FT K-means.
    pub fn table1(precision: Precision) -> Vec<(&'static str, Self)> {
        let t = Self::thread_tile(precision);
        match precision {
            Precision::Fp32 => vec![
                (
                    "88",
                    KernelParams::new(Tile3::new(256, 32, 16), Tile3::new(64, 32, 16), t),
                ),
                (
                    "69",
                    KernelParams::new(Tile3::new(128, 64, 16), Tile3::new(32, 64, 16), t),
                ),
                (
                    "83",
                    KernelParams::new(Tile3::new(64, 128, 16), Tile3::new(64, 32, 16), t),
                ),
            ],
            Precision::Fp64 => vec![
                (
                    "21",
                    KernelParams::new(Tile3::new(128, 32, 16), Tile3::new(32, 32, 16), t),
                ),
                (
                    "19",
                    KernelParams::new(Tile3::new(64, 64, 16), Tile3::new(32, 32, 16), t),
                ),
            ],
        }
    }
}

impl fmt::Display for KernelParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tb{} warp{} thread{}",
            self.threadblock, self.warp, self.thread
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_notation() {
        let t = Tile3::new(32, 256, 16);
        assert_eq!(t.to_string(), "<32,256,16>");
    }

    #[test]
    fn cuml_params_match_table1() {
        let p = KernelParams::cuml(Precision::Fp32);
        assert_eq!(p.threadblock, Tile3::new(32, 256, 16));
        assert_eq!(p.warp, Tile3::new(32, 64, 16));
        assert_eq!(p.thread, Tile3::new(16, 8, 4));
        let p = KernelParams::cuml(Precision::Fp64);
        assert_eq!(p.threadblock, Tile3::new(64, 64, 16));
        assert_eq!(p.thread, Tile3::new(8, 8, 4));
    }

    #[test]
    fn warps_and_threads() {
        let p = KernelParams::cuml(Precision::Fp32);
        // (32/32)*(256/64) = 4 warps = 128 threads
        assert_eq!(p.warps(), 4);
        assert_eq!(p.threads(), 128);
    }

    #[test]
    fn tile_config_roundtrip() {
        let p = KernelParams::cuml(Precision::Fp64);
        let t = p.tile_config(3);
        assert_eq!(t.tb_m, 64);
        assert_eq!(t.tb_n, 64);
        assert_eq!(t.wm, 32);
        assert_eq!(t.k_stages, 3);
    }

    #[test]
    fn table1_entries_are_structurally_valid() {
        for p in gpu_sim::Precision::all() {
            for (name, params) in KernelParams::table1(p) {
                assert_eq!(params.threadblock.m % params.warp.m, 0, "{name}");
                assert_eq!(params.threadblock.n % params.warp.n, 0, "{name}");
                assert_eq!(params.warp.k, params.threadblock.k, "{name}");
            }
        }
    }
}
