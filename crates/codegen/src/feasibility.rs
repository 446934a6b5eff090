//! The feasibility probe — our stand-in for the paper's "use a demo to
//! check parameter feasibility … if it can compile and run, which means it
//! is functionally correct" loop (Fig. 3).
//!
//! On real hardware infeasible parameter sets fail at compile time
//! (register spill, static shared-memory overflow) or at launch. The probe
//! applies the same arithmetic the hardware would.

use crate::params::KernelParams;
use gpu_sim::timing::occupancy::{occupancy, tensor_regs_per_thread};
use gpu_sim::{DeviceProfile, Precision};

/// Verdict of the probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feasibility {
    /// Compiles and launches.
    Ok,
    /// Static shared memory exceeds the per-block limit.
    SharedMemory,
    /// Register demand exceeds the architectural per-thread cap.
    Registers,
    /// Threadblock exceeds the thread limit.
    Threads,
    /// The configuration cannot co-reside even once per SM.
    ZeroOccupancy,
}

impl Feasibility {
    /// True when the kernel can run.
    pub fn is_ok(self) -> bool {
        self == Feasibility::Ok
    }
}

/// Pipeline stages used on a device (3 with `cp.async`, 2 without).
pub fn stages_for(device: &DeviceProfile) -> usize {
    if device.has_async_copy {
        3
    } else {
        2
    }
}

/// Probe one parameter group on a device.
pub fn check_feasibility(
    device: &DeviceProfile,
    precision: Precision,
    params: &KernelParams,
) -> Feasibility {
    let stages = stages_for(device);
    let tile = params.tile_config(stages);
    let smem = tile.smem_bytes(precision);
    if smem > device.smem_per_block {
        return Feasibility::SharedMemory;
    }
    if params.threads() > device.max_threads_per_block {
        return Feasibility::Threads;
    }
    let mma_k = match precision {
        Precision::Fp32 => 8,
        Precision::Fp64 => 4,
    };
    let regs = tensor_regs_per_thread(params.warp.m, params.warp.n, mma_k, precision);
    if regs >= device.regs_per_thread {
        return Feasibility::Registers;
    }
    let occ = occupancy(device, params.threads(), smem, regs);
    if occ.blocks_per_sm == 0 {
        return Feasibility::ZeroOccupancy;
    }
    Feasibility::Ok
}

/// Filter a candidate list down to the feasible ones, preserving order and
/// returning (index-in-space, params).
pub fn feasible_set(
    device: &DeviceProfile,
    precision: Precision,
    space: &[KernelParams],
) -> Vec<(usize, KernelParams)> {
    space
        .iter()
        .enumerate()
        .filter(|(_, p)| check_feasibility(device, precision, p).is_ok())
        .map(|(i, p)| (i, *p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Tile3;
    use crate::space::enumerate_params;

    #[test]
    fn cuml_and_table1_are_feasible_on_a100() {
        let dev = DeviceProfile::a100();
        for p in Precision::all() {
            assert!(check_feasibility(&dev, p, &KernelParams::cuml(p)).is_ok());
            for (name, kp) in KernelParams::table1(p) {
                assert!(
                    check_feasibility(&dev, p, &kp).is_ok(),
                    "Table I id {name} must be feasible"
                );
            }
        }
    }

    #[test]
    fn oversized_smem_rejected() {
        let dev = DeviceProfile::t4(); // 64 KiB shared per block
        let p = KernelParams::new(
            Tile3::new(512, 512, 32),
            Tile3::new(64, 64, 32),
            KernelParams::thread_tile(Precision::Fp64),
        );
        assert_eq!(
            check_feasibility(&dev, Precision::Fp64, &p),
            Feasibility::SharedMemory
        );
    }

    #[test]
    fn feasible_set_shrinks_on_t4() {
        // Turing's smaller shared memory must reject more candidates.
        let space = enumerate_params(Precision::Fp32);
        let a100 = feasible_set(&DeviceProfile::a100(), Precision::Fp32, &space);
        let t4 = feasible_set(&DeviceProfile::t4(), Precision::Fp32, &space);
        assert!(t4.len() < a100.len(), "a100={} t4={}", a100.len(), t4.len());
        assert!(!t4.is_empty());
    }

    #[test]
    fn stages_depend_on_async_copy() {
        assert_eq!(stages_for(&DeviceProfile::a100()), 3);
        assert_eq!(stages_for(&DeviceProfile::t4()), 2);
    }
}
