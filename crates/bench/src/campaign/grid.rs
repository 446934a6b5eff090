//! Declarative sweep specification: the cartesian grid of injection rates ×
//! ABFT schemes × precisions × kernel variants × dataset shapes × reps.
//!
//! A [`CampaignGrid`] expands into a flat, deterministically ordered and
//! deterministically seeded list of [`CampaignCell`]s; the runner executes
//! cells in any order (including in parallel) and results are re-assembled
//! by cell index, so the emitted table is byte-identical regardless of
//! execution policy.

use abft::SchemeKind;
use fault::splitmix64;
use gpu_sim::Precision;
use kmeans::Variant;

/// One dataset shape swept by a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataShape {
    /// Samples (M).
    pub m: usize,
    /// Feature dimension (N).
    pub dim: usize,
    /// Clusters (K).
    pub k: usize,
}

impl DataShape {
    /// Compact `MxNxK` label used in reports.
    pub fn label(&self) -> String {
        format!("{}x{}x{}", self.m, self.dim, self.k)
    }
}

/// The declarative sweep specification.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignGrid {
    /// Injection rates in errors per modeled second of GPU residency (the
    /// paper's §V-C axis: "tens of errors injected per second"). Each rep
    /// models [`CampaignGrid::residency_s`] seconds of execution, so a
    /// 50 err/s cell sees ≈ `50 × residency_s` injections per fit.
    pub rates_hz: Vec<f64>,
    /// ABFT schemes under test.
    pub schemes: Vec<SchemeKind>,
    /// Floating-point precisions under test.
    pub precisions: Vec<Precision>,
    /// Assignment-kernel variants under test.
    pub variants: Vec<Variant>,
    /// Dataset shapes under test.
    pub shapes: Vec<DataShape>,
    /// Statistical repetitions per cell (distinct data/injection seeds).
    pub reps: usize,
    /// Modeled GPU residency per fit, in seconds (see
    /// `kmeans::FtConfig::modeled_residency_s`).
    pub residency_s: f64,
    /// Lloyd iterations per fit (tol = 0, so every fit does fixed work).
    pub max_iter: usize,
    /// Base seed every per-cell seed derives from.
    pub base_seed: u64,
}

/// One executable cell of the expanded grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignCell {
    /// Flat index in grid-expansion order (stable output ordering).
    pub idx: usize,
    /// Injection rate in errors per modeled second.
    pub rate_hz: f64,
    /// ABFT scheme.
    pub scheme: SchemeKind,
    /// Precision.
    pub precision: Precision,
    /// Assignment-kernel variant.
    pub variant: Variant,
    /// Dataset shape.
    pub shape: DataShape,
    /// Repetition index within the cell's coordinates.
    pub rep: usize,
    /// Derived seed (data generation, centroid init and injection stream).
    pub seed: u64,
}

impl CampaignGrid {
    /// The reduced-scale grid behind `campaign --quick`, the committed
    /// baseline table and the CI smoke leg: every scheme × both precisions
    /// at the paper's 50 err/s plus a lighter 10 err/s point.
    ///
    /// `k = 64` fills the FP64 warp tile (and half the FP32 one), so most
    /// injections strike *live* accumulator lanes — zero-valued padding
    /// lanes can only produce sub-threshold flips, which would depress the
    /// detection column into noise.
    pub fn quick() -> Self {
        CampaignGrid {
            rates_hz: vec![10.0, 50.0],
            schemes: vec![SchemeKind::FtKMeans, SchemeKind::Kosaian, SchemeKind::Wu],
            precisions: vec![Precision::Fp32, Precision::Fp64],
            variants: vec![Variant::Tensor(None), Variant::Hamerly],
            shapes: vec![DataShape {
                m: 640,
                dim: 8,
                k: 64,
            }],
            reps: 2,
            residency_s: 1.0,
            max_iter: 6,
            base_seed: 0xF7CA_2024,
        }
    }

    /// The full default grid: the paper's rate axis extended past the
    /// saturation knee, with an unprotected control scheme and more reps.
    pub fn full() -> Self {
        CampaignGrid {
            rates_hz: vec![10.0, 50.0, 100.0, 200.0],
            schemes: vec![
                SchemeKind::None,
                SchemeKind::FtKMeans,
                SchemeKind::Kosaian,
                SchemeKind::Wu,
            ],
            precisions: vec![Precision::Fp32, Precision::Fp64],
            variants: vec![Variant::Tensor(None), Variant::Hamerly],
            shapes: vec![DataShape {
                m: 2048,
                dim: 32,
                k: 64,
            }],
            reps: 3,
            residency_s: 1.0,
            max_iter: 6,
            base_seed: 0xF7CA_2024,
        }
    }

    /// Expand into the flat, deterministically seeded cell list. Axis
    /// nesting order (outer → inner): scheme, precision, rate, variant,
    /// shape, rep — so the emitted table groups naturally by scheme.
    pub fn cells(&self) -> Vec<CampaignCell> {
        let mut out = Vec::new();
        for (si, &scheme) in self.schemes.iter().enumerate() {
            for (pi, &precision) in self.precisions.iter().enumerate() {
                for (ri, &rate_hz) in self.rates_hz.iter().enumerate() {
                    for (vi, &variant) in self.variants.iter().enumerate() {
                        for (hi, &shape) in self.shapes.iter().enumerate() {
                            for rep in 0..self.reps.max(1) {
                                // The seed mixes only *axis positions*, never
                                // the expansion counter, so inserting a new
                                // rate does not reshuffle every other cell.
                                let seed = cell_seed(self.base_seed, &[si, pi, ri, vi, hi, rep]);
                                out.push(CampaignCell {
                                    idx: out.len(),
                                    rate_hz,
                                    scheme,
                                    precision,
                                    variant,
                                    shape,
                                    rep,
                                    seed,
                                });
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Number of cells the grid expands to.
    pub fn len(&self) -> usize {
        self.rates_hz.len()
            * self.schemes.len()
            * self.precisions.len()
            * self.variants.len()
            * self.shapes.len()
            * self.reps.max(1)
    }

    /// True when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn cell_seed(base: u64, coords: &[usize]) -> u64 {
    let mut s = splitmix64(base);
    for &c in coords {
        s = splitmix64(s ^ (c as u64).wrapping_add(0xA5A5_5A5A_0F0F_F0F0));
    }
    s
}

/// Stable lowercase token for a scheme — shared by CLI parsing, table rows
/// and JSONL records.
pub fn scheme_token(s: SchemeKind) -> &'static str {
    match s {
        SchemeKind::None => "none",
        SchemeKind::FtKMeans => "ftkmeans",
        SchemeKind::Kosaian => "kosaian",
        SchemeKind::Wu => "wu",
    }
}

/// Parse a scheme token (the inverse of [`scheme_token`]).
pub fn parse_scheme(s: &str) -> Option<SchemeKind> {
    match s.to_ascii_lowercase().as_str() {
        "none" | "off" => Some(SchemeKind::None),
        "ftkmeans" | "ft" | "ft-kmeans" => Some(SchemeKind::FtKMeans),
        "kosaian" => Some(SchemeKind::Kosaian),
        "wu" => Some(SchemeKind::Wu),
        _ => None,
    }
}

/// Stable lowercase token for a campaign variant — shared by table rows
/// and JSONL records. Only the variants the campaign axes actually sweep
/// get tokens; `Tensor` is reported with its paper-series name.
pub fn variant_token(v: Variant) -> &'static str {
    match v {
        Variant::Naive => "naive",
        Variant::GemmV1 => "gemm_v1",
        Variant::FusedV2 => "fused_v2",
        Variant::BroadcastV3 => "broadcast_v3",
        Variant::Tensor(_) => "tensor_v4",
        Variant::Hamerly => "hamerly",
    }
}

/// Parse a precision token (`fp32` / `fp64`).
pub fn parse_precision(s: &str) -> Option<Precision> {
    match s.to_ascii_lowercase().as_str() {
        "fp32" | "f32" | "32" => Some(Precision::Fp32),
        "fp64" | "f64" | "64" => Some(Precision::Fp64),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_covers_schemes_and_precisions() {
        let g = CampaignGrid::quick();
        let cells = g.cells();
        assert_eq!(cells.len(), g.len());
        assert!(g.rates_hz.contains(&50.0), "the paper's headline rate");
        for &s in &[SchemeKind::FtKMeans, SchemeKind::Kosaian, SchemeKind::Wu] {
            for &p in &[Precision::Fp32, Precision::Fp64] {
                assert!(
                    cells.iter().any(|c| c.scheme == s && c.precision == p),
                    "missing {s:?}/{p:?}"
                );
            }
        }
    }

    #[test]
    fn quick_grid_sweeps_both_kernel_families() {
        let cells = CampaignGrid::quick().cells();
        assert!(cells.iter().any(|c| c.variant == Variant::Tensor(None)));
        assert!(cells.iter().any(|c| c.variant == Variant::Hamerly));
        assert_eq!(variant_token(Variant::Tensor(None)), "tensor_v4");
        assert_eq!(variant_token(Variant::Hamerly), "hamerly");
    }

    #[test]
    fn cell_indices_are_dense_and_ordered() {
        let cells = CampaignGrid::quick().cells();
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.idx, i);
        }
    }

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        let a = CampaignGrid::quick().cells();
        let b = CampaignGrid::quick().cells();
        assert_eq!(a, b, "expansion must be reproducible");
        let mut seeds: Vec<u64> = a.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), a.len(), "per-cell seeds must be distinct");
    }

    #[test]
    fn adding_a_rate_preserves_other_cells_seeds() {
        let base = CampaignGrid::quick();
        let mut wider = base.clone();
        wider.rates_hz.push(500.0);
        let find = |cells: &[CampaignCell], rate: f64| -> Vec<u64> {
            cells
                .iter()
                .filter(|c| c.rate_hz == rate)
                .map(|c| c.seed)
                .collect()
        };
        assert_eq!(
            find(&base.cells(), 50.0),
            find(&wider.cells(), 50.0),
            "axis-position seeding: existing cells keep their seeds"
        );
    }

    #[test]
    fn scheme_tokens_roundtrip() {
        for s in [
            SchemeKind::None,
            SchemeKind::FtKMeans,
            SchemeKind::Kosaian,
            SchemeKind::Wu,
        ] {
            assert_eq!(parse_scheme(scheme_token(s)), Some(s));
        }
        assert_eq!(parse_scheme("bogus"), None);
        assert_eq!(parse_precision("fp32"), Some(Precision::Fp32));
        assert_eq!(parse_precision("fp64"), Some(Precision::Fp64));
        assert_eq!(parse_precision("fp16"), None);
    }
}
