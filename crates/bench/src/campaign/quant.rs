//! Quantized-resident-state fault campaign: bit flips in the serving
//! path's quantized centroid tables (fp16/int8 codes, per-centroid scales,
//! cached norms), classified against host-reference labels.
//!
//! The fit-time campaign ([`super::runner`]) strikes the distance-kernel
//! arithmetic; this axis strikes *state at rest* — the resident quantized
//! table a model serves from between batches. Protection is the digest
//! guard in the predict path ([`kmeans::QuantizedCentroids::verify`] before
//! every quantized launch): a corrupted table must be detected, rebuilt
//! from the fp centroids, and the served labels must equal the exact
//! reference — any mismatch is silent data corruption.
//!
//! Deterministic by construction: fault sites come from splitmix64
//! chains, fits and queries from fixed seeds, so `quant_table.csv` is
//! byte-stable across runs and executors.

use fault::splitmix64;
use gpu_sim::{DeviceProfile, Matrix, Scalar};
use kmeans::quant::QuantKind;
use kmeans::reference::assign_reference;
use kmeans::{FittedModel, KMeansConfig, PredictPolicy, Session};

/// Which piece of resident quantized state a rep corrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantTarget {
    /// The fp16/int8 codes.
    Codes,
    /// The per-centroid int8 dequantization scales.
    Scales,
    /// The cached quantized-centroid norms the fused scan reads.
    Norms,
}

impl QuantTarget {
    pub const ALL: [QuantTarget; 3] = [QuantTarget::Codes, QuantTarget::Scales, QuantTarget::Norms];

    pub fn label(self) -> &'static str {
        match self {
            QuantTarget::Codes => "codes",
            QuantTarget::Scales => "scales",
            QuantTarget::Norms => "norms",
        }
    }
}

/// Campaign shape knobs (one cell = one kind × target pair).
#[derive(Debug, Clone)]
pub struct QuantCampaignSpec {
    /// Bit flips per kind × target cell.
    pub reps: u64,
    /// Base seed for fit data, query batches, and fault sites.
    pub seed: u64,
    /// Training samples for the one-time fit per kind.
    pub train_m: usize,
    /// Query samples per served batch.
    pub query_m: usize,
    /// Feature dimension.
    pub dim: usize,
    /// Cluster count.
    pub k: usize,
}

impl Default for QuantCampaignSpec {
    fn default() -> Self {
        QuantCampaignSpec {
            reps: 8,
            seed: 0xF7CA_2024,
            train_m: 1024,
            query_m: 512,
            dim: 16,
            k: 8,
        }
    }
}

/// One aggregated row of the quantized-state campaign table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantCampaignRow {
    /// Quantization kind label (`fp16` / `int8`).
    pub kind: String,
    /// Corrupted state ([`QuantTarget::label`]).
    pub target: String,
    /// Bit flips injected (one per rep).
    pub injected: u64,
    /// Flips the digest guard caught before serving.
    pub detected: u64,
    /// Reps whose served labels matched the exact reference.
    pub benign: u64,
    /// Reps that served wrong labels — silent data corruption.
    pub sdc: u64,
}

impl QuantCampaignRow {
    /// SDC fraction of this row (None when nothing was injected).
    pub fn sdc_rate(&self) -> Option<f64> {
        (self.injected > 0).then(|| self.sdc as f64 / self.injected as f64)
    }
}

fn blobs(m: usize, dim: usize, k: usize, seed: u64) -> Matrix<f32> {
    Matrix::from_fn(m, dim, |r, c| {
        let h = splitmix64(seed ^ (r as u64).wrapping_mul(0x9E37_79B9) ^ (c as u64));
        ((r % k) * 10) as f32 + (h % 1000) as f32 / 1000.0 + c as f32 * 0.01
    })
}

fn serving_model(spec: &QuantCampaignSpec, kind: QuantKind) -> FittedModel<f32> {
    let mut model = Session::new(DeviceProfile::a100())
        .kmeans(KMeansConfig {
            k: spec.k,
            max_iter: 3,
            tol: 0.0,
            seed: spec.seed,
            ..Default::default()
        })
        .fit_model(&blobs(spec.train_m, spec.dim, spec.k, spec.seed))
        .expect("quant campaign fit");
    model.set_predict_policy(match kind {
        QuantKind::Fp16 => PredictPolicy::Fp16,
        QuantKind::Int8 => PredictPolicy::Int8,
    });
    model
}

/// Run one kind × target cell: `reps` independent bit flips, each against
/// a fresh query batch, served through the guarded quantized predict path
/// and compared to the host reference labels.
fn run_cell(spec: &QuantCampaignSpec, kind: QuantKind, target: QuantTarget) -> QuantCampaignRow {
    let model = serving_model(spec, kind);
    let detected_before = model.predict_stats().detected;
    let mut benign = 0u64;
    let mut sdc = 0u64;
    for rep in 0..spec.reps {
        let site = splitmix64(
            spec.seed ^ 0xC0DE ^ (rep << 8) ^ (target.label().len() as u64) ^ (kind as u64),
        );
        // Corrupt the *live* resident table (the cache hands out shared
        // device pointers, so this is the table the next predict serves).
        let table = model.quantized_table(kind);
        match target {
            QuantTarget::Codes => {
                let lanes = spec.k * spec.dim;
                let bits = match kind {
                    QuantKind::Fp16 => 16,
                    QuantKind::Int8 => 8,
                };
                table.corrupt_code_bit(site as usize % lanes, (site >> 32) as u32 % bits);
            }
            QuantTarget::Scales => {
                let idx = site as usize % spec.k;
                let prev = table.scales.load(idx);
                table
                    .scales
                    .store(idx, prev.flip_bit((site >> 32) as u32 % 32));
            }
            QuantTarget::Norms => {
                let idx = site as usize % spec.k;
                let prev = table.norms.load(idx);
                table
                    .norms
                    .store(idx, prev.flip_bit((site >> 32) as u32 % 32));
            }
        }
        let batch = blobs(
            spec.query_m,
            spec.dim,
            spec.k,
            splitmix64(spec.seed ^ (rep + 1)),
        );
        let served = model.predict(&batch).expect("guarded quantized predict");
        let (want, _) = assign_reference(&batch, &model.centroids);
        if served == want {
            benign += 1;
        } else {
            sdc += 1;
        }
    }
    QuantCampaignRow {
        kind: kind.label().to_string(),
        target: target.label().to_string(),
        injected: spec.reps,
        detected: model.predict_stats().detected - detected_before,
        benign,
        sdc,
    }
}

/// Sweep both quantization kinds over every [`QuantTarget`].
pub fn run_quant_campaign(spec: &QuantCampaignSpec) -> Vec<QuantCampaignRow> {
    let mut rows = Vec::new();
    for kind in [QuantKind::Fp16, QuantKind::Int8] {
        for target in QuantTarget::ALL {
            rows.push(run_cell(spec, kind, target));
        }
    }
    rows
}

/// Render the campaign rows as the committed-artifact CSV.
pub fn quant_table_csv(rows: &[QuantCampaignRow]) -> String {
    let mut out = String::from("kind,target,injected,detected,benign,sdc\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{}\n",
            r.kind, r.target, r.injected, r.detected, r.benign, r.sdc
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> QuantCampaignSpec {
        QuantCampaignSpec {
            reps: 2,
            seed: 11,
            train_m: 256,
            query_m: 128,
            dim: 8,
            k: 4,
        }
    }

    #[test]
    fn guarded_predict_detects_every_flip_and_serves_exact_labels() {
        let rows = run_quant_campaign(&tiny_spec());
        assert_eq!(rows.len(), 6, "2 kinds x 3 targets");
        for r in &rows {
            assert_eq!(r.injected, 2);
            assert_eq!(
                r.detected, r.injected,
                "digest guard must catch every {}/{} flip",
                r.kind, r.target
            );
            assert_eq!(r.sdc, 0, "guarded serving must stay label-exact: {r:?}");
            assert_eq!(r.benign, r.injected);
            assert_eq!(r.sdc_rate(), Some(0.0));
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = run_quant_campaign(&tiny_spec());
        let b = run_quant_campaign(&tiny_spec());
        assert_eq!(a, b);
        assert_eq!(quant_table_csv(&a), quant_table_csv(&b));
    }

    #[test]
    fn csv_schema_is_stable() {
        let csv = quant_table_csv(&[QuantCampaignRow {
            kind: "int8".into(),
            target: "codes".into(),
            injected: 8,
            detected: 8,
            benign: 8,
            sdc: 0,
        }]);
        assert_eq!(
            csv,
            "kind,target,injected,detected,benign,sdc\nint8,codes,8,8,8,0\n"
        );
    }
}
