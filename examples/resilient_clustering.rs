//! Fault-resilience demonstration: the same clustering job under a heavy
//! transient-fault barrage, with and without the FT machinery.
//!
//! Shows what the paper's §V-C campaigns measure: unprotected runs silently
//! diverge; protected runs detect, locate and repair every impactful fault
//! and land on the clean result.
//!
//! ```text
//! cargo run --release --example resilient_clustering
//! ```

use ft_kmeans::abft::SchemeKind;
use ft_kmeans::data::{make_blobs, BlobSpec};
use ft_kmeans::fault::InjectionSchedule;
use ft_kmeans::kmeans::{FtConfig, KMeansConfig, Variant};
use ft_kmeans::{DeviceProfile, Session};

fn main() {
    let (data, _, _) = make_blobs::<f64>(&BlobSpec {
        samples: 4096,
        dim: 24,
        centers: 10,
        cluster_std: 0.35,
        center_box: 8.0,
        seed: 99,
    });
    // One session serves all three fits.
    let session = Session::new(DeviceProfile::a100());
    let base = KMeansConfig::new(10)
        .with_variant(Variant::tensor_default())
        .with_seed(5);

    // Ground truth: no faults, no FT.
    let clean = session
        .kmeans(base.clone())
        .fit_model(&data)
        .expect("clean");

    let storm = InjectionSchedule::PerBlock { probability: 0.4 };

    // Unprotected under the fault storm.
    let unprotected_cfg = KMeansConfig {
        ft: FtConfig {
            scheme: SchemeKind::None,
            dmr_update: false,
            injection: storm,
            injection_seed: 1234,
            ..Default::default()
        },
        ..base.clone()
    };
    let unprotected = session
        .kmeans(unprotected_cfg)
        .fit_model(&data)
        .expect("unprot");

    // Protected under the same storm.
    let protected_cfg = KMeansConfig {
        ft: FtConfig {
            scheme: SchemeKind::FtKMeans,
            dmr_update: true,
            injection: storm,
            injection_seed: 1234,
            ..Default::default()
        },
        ..base
    };
    let protected = session
        .kmeans(protected_cfg)
        .fit_model(&data)
        .expect("prot");

    let agree = |a: &[u32], b: &[u32]| {
        a.iter().zip(b).filter(|(x, y)| x == y).count() as f64 / a.len() as f64
    };

    println!("resilient clustering under transient faults (A100, FP64)");
    println!("--------------------------------------------------------");
    println!("clean run          : inertia {:.3}", clean.inertia);
    println!();
    println!(
        "UNPROTECTED + faults ({} injected):",
        unprotected.ft_stats.injected
    );
    println!(
        "  label agreement with clean : {:.2}%",
        agree(&clean.labels, &unprotected.labels) * 100.0
    );
    println!(
        "  inertia                    : {:.3} (clean {:.3})",
        unprotected.inertia, clean.inertia
    );
    println!();
    println!(
        "FT K-MEANS + faults ({} injected):",
        protected.ft_stats.injected
    );
    println!(
        "  corrected in place         : {}",
        protected.ft_stats.corrected
    );
    println!(
        "  checksum re-baselines      : {}",
        protected.ft_stats.rebaselined
    );
    println!(
        "  interval recomputations    : {}",
        protected.ft_stats.recomputed
    );
    println!(
        "  DMR mismatches (update)    : {}",
        protected.ft_stats.dmr_mismatches
    );
    println!(
        "  label agreement with clean : {:.2}%",
        agree(&clean.labels, &protected.labels) * 100.0
    );
    println!("  inertia                    : {:.3}", protected.inertia);

    assert!(
        protected.ft_stats.injected > 0,
        "the storm must inject faults"
    );
    assert_eq!(
        protected.labels, clean.labels,
        "FP64 FT run must reproduce the clean clustering exactly"
    );
    let handled = protected.ft_stats.handled() + protected.ft_stats.dmr_mismatches;
    assert!(handled > 0, "the FT layer must visibly handle faults");
}
