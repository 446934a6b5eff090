//! The campaign's headline reproducibility guarantee: the same grid renders
//! a byte-identical table whatever the execution policy. Nothing is pinned
//! to a serial executor: cells and the blocks inside each cell's fits both
//! run on the pool, and the result is the same because the kernels reduce
//! in a fixed order and the injector keys every draw by (seed, launch,
//! block, per-block call ordinal).

use abft::SchemeKind;
use bench_harness::campaign::{
    campaign_table, records_jsonl, run_campaign, CampaignGrid, DataShape,
};
use gpu_sim::exec::{with_executor, Executor};
use gpu_sim::Precision;
use kmeans::Variant;

fn grid() -> CampaignGrid {
    CampaignGrid {
        rates_hz: vec![50.0],
        schemes: vec![SchemeKind::FtKMeans, SchemeKind::Wu],
        precisions: vec![Precision::Fp64],
        variants: vec![Variant::Tensor(None), Variant::Hamerly],
        shapes: vec![DataShape {
            m: 256,
            dim: 8,
            k: 16,
        }],
        reps: 2,
        residency_s: 1.0,
        max_iter: 4,
        base_seed: 99,
    }
}

#[test]
fn table_is_byte_identical_serial_vs_parallel() {
    let g = grid();
    let serial = Executor::serial();
    let (csv_serial, jsonl_serial) = with_executor(&serial, || {
        let out = run_campaign(&g);
        (campaign_table(&out).to_csv(), records_jsonl(&out))
    });
    let pool = Executor::with_workers(4);
    let (csv_pool, jsonl_pool) = with_executor(&pool, || {
        let out = run_campaign(&g);
        (campaign_table(&out).to_csv(), records_jsonl(&out))
    });
    assert!(
        csv_serial.contains("ftkmeans,fp64,tensor_v4,50.0"),
        "sanity: table rendered\n{csv_serial}"
    );
    assert!(
        csv_serial.contains("ftkmeans,fp64,hamerly,50.0"),
        "the bound-pruned grid cell must render its own row\n{csv_serial}"
    );
    assert_eq!(
        csv_serial, csv_pool,
        "campaign table must not depend on the execution policy"
    );
    assert_eq!(
        jsonl_serial, jsonl_pool,
        "per-injection logs must not depend on the execution policy"
    );
}

#[test]
fn repeat_runs_are_byte_identical() {
    let g = grid();
    let a = campaign_table(&run_campaign(&g)).to_csv();
    let b = campaign_table(&run_campaign(&g)).to_csv();
    assert_eq!(a, b);
}
