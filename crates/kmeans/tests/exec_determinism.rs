//! Execution-engine determinism: a kernel variant must produce the same
//! labels AND the same hardware-event totals whether its threadblocks run
//! serially or across the worker pool. This is the contract that makes
//! `FTK_EXEC=serial` a faithful debugging mode and lets counter-based
//! structural tests ignore the execution policy.

use gpu_sim::exec::{with_executor, Executor};
use gpu_sim::mma::NoFault;
use gpu_sim::{CounterSnapshot, Counters, DeviceProfile, Matrix};
use kmeans::device_data::DeviceData;
use kmeans::update::update_centroids;
use kmeans::variants::fused::fused_assign;

fn problem() -> (Matrix<f64>, Matrix<f64>) {
    let samples =
        Matrix::<f64>::from_fn(513, 11, |r, c| ((r * 7 + c * 13) % 29) as f64 * 0.5 - 7.0);
    let cents = Matrix::<f64>::from_fn(70, 11, |r, c| ((r * 17 + c * 5) % 23) as f64 * 0.5 - 5.0);
    (samples, cents)
}

fn run_fused(exec: &Executor) -> (Vec<u32>, CounterSnapshot) {
    let (samples, cents) = problem();
    with_executor(exec, || {
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let data = DeviceData::upload(&dev, &samples, &cents, &c).unwrap();
        let out = fused_assign(&dev, &data, &NoFault, &c).unwrap();
        (out.labels, c.snapshot())
    })
}

#[test]
fn fused_variant_serial_and_parallel_agree_exactly() {
    let (labels_serial, counters_serial) = run_fused(&Executor::serial());
    let (labels_parallel, counters_parallel) = run_fused(&Executor::with_workers(4));
    assert_eq!(
        labels_serial, labels_parallel,
        "labels must not depend on scheduling"
    );
    assert_eq!(
        counters_serial, counters_parallel,
        "CounterSnapshot must be bit-identical between serial and parallel launches"
    );
}

#[test]
fn update_phase_serial_and_parallel_agree_exactly() {
    // k = 70 puts 1280 samples in each update block; 4007 samples span
    // four blocks, so the block-partial reduce is exercised.
    let (_, cents) = problem();
    let samples =
        Matrix::<f64>::from_fn(4007, 11, |r, c| ((r * 7 + c * 13) % 29) as f64 * 0.5 - 7.0);
    let labels: Vec<u32> = (0..samples.rows())
        .map(|i| ((i * 31) % cents.rows()) as u32)
        .collect();
    let mut runs = Vec::new();
    for exec in [Executor::serial(), Executor::with_workers(3)] {
        let (centroids, counts, snap) = with_executor(&exec, || {
            let dev = DeviceProfile::a100();
            let c = Counters::new();
            let buf = gpu_sim::GlobalBuffer::from_matrix(&samples);
            let out = update_centroids(
                &dev,
                &buf,
                samples.rows(),
                samples.cols(),
                &labels,
                &cents,
                false,
                &NoFault,
                &c,
            )
            .unwrap();
            (out.centroids, out.counts, c.snapshot())
        });
        runs.push((centroids, counts, snap));
    }
    let (c0, n0, s0) = &runs[0];
    let (c1, n1, s1) = &runs[1];
    assert_eq!(n0, n1);
    assert_eq!(s0, s1, "update-phase counters identical across policies");
    assert_eq!(s0.atomic_ops, 0, "the update issues no atomics");
    let bits = |m: &Matrix<f64>| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(c0),
        bits(c1),
        "centroid bits must not depend on the schedule"
    );
}
