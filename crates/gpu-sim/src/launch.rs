//! Kernel launch: validate resources, then execute one closure per
//! threadblock on the execution engine ([`crate::exec`]).
//!
//! Threadblocks on a GPU execute independently (no inter-block ordering);
//! the simulator reproduces that by distributing blocks over a persistent
//! worker pool with chunked work stealing (see [`crate::exec::Executor`]).
//! A kernel's result must not depend on that order. Each block writes its
//! own disjoint output range (per-block partials), and a follow-up launch
//! reduces the partials in block-index order. The fused argmin is the same
//! pattern: [`crate::atomics::ArgminSlots`] gives each column block its own
//! slots and the host folds them in column-block order. Integer atomics
//! such as [`crate::GlobalBuffer::atomic_inc`] (on a `GlobalBuffer<u32>`)
//! are order-invariant and may share a location. Device memory has no float
//! atomic add, whose rounding would depend on arrival order, and plain
//! stores to overlapping locations are a bug, as on hardware.
//!
//! A kernel may keep its block state (pipeline ring, accumulators) in
//! per-worker scratch ([`launch_grid_scratch`]): one instance per claimed
//! chunk of blocks, reset by the kernel at every block start.

use crate::counters::{CounterSink, Counters};
use crate::device::DeviceProfile;
use crate::dim::Dim3;
use crate::error::SimError;
use crate::exec;

/// Launch geometry and declared resource usage of a kernel.
#[derive(Debug, Clone, Copy)]
pub struct LaunchConfig {
    /// Grid of threadblocks.
    pub grid: Dim3,
    /// Threads per threadblock (informational: the functional simulator
    /// executes warps as units, but the count is validated and used by the
    /// timing model).
    pub threads_per_block: usize,
    /// Declared dynamic shared memory per block, bytes.
    pub smem_bytes: usize,
}

/// Per-block execution context handed to kernel closures.
pub struct BlockCtx<'a> {
    /// Block x coordinate (output-column / N direction by our convention).
    pub bx: usize,
    /// Block y coordinate (output-row / M direction).
    pub by: usize,
    /// Block z coordinate.
    pub bz: usize,
    /// Worker-local event-counter shard; merged into the launch's shared
    /// [`Counters`] once per block by the execution engine.
    pub counters: &'a CounterSink<'a>,
    /// Profile of the device the kernel runs on.
    pub device: &'a DeviceProfile,
}

impl BlockCtx<'_> {
    /// `__syncthreads()` — a no-op functionally (warps in a block execute
    /// sequentially in the simulator) but counted for the timing model.
    pub fn barrier(&self) {
        self.counters.add_barrier();
    }
}

pub(crate) fn validate(device: &DeviceProfile, cfg: &LaunchConfig) -> Result<(), SimError> {
    if cfg.threads_per_block > device.max_threads_per_block {
        return Err(SimError::ThreadLimitExceeded {
            requested: cfg.threads_per_block,
            limit: device.max_threads_per_block,
        });
    }
    if cfg.smem_bytes > device.smem_per_block {
        return Err(SimError::SharedMemoryOverflow {
            requested: cfg.smem_bytes,
            limit: device.smem_per_block,
        });
    }
    if cfg.threads_per_block == 0 || !cfg.threads_per_block.is_multiple_of(32) {
        return Err(SimError::InvalidConfig(format!(
            "threads per block must be a positive multiple of the warp size, got {}",
            cfg.threads_per_block
        )));
    }
    Ok(())
}

/// Launch `kernel` over the grid on the current executor (the thread-local
/// override installed by [`exec::with_executor`], else the global pool —
/// which honors the `FTK_EXEC=serial` / `FTK_WORKERS=N` environment knobs).
///
/// The closure is invoked once per block with a fresh [`BlockCtx`]; any
/// per-block state (pipelines, fragments) is created inside it, or kept in
/// per-worker scratch ([`launch_grid_scratch`]).
/// Trace spans (when a sink is active) carry the generic label `"kernel"`;
/// production kernels use [`launch_grid_labeled`] so the timeline and the
/// phase profiler can name them.
pub fn launch_grid<F>(
    device: &DeviceProfile,
    cfg: LaunchConfig,
    counters: &Counters,
    kernel: F,
) -> Result<(), SimError>
where
    F: Fn(&BlockCtx) + Sync,
{
    exec::with_current(|e| e.launch(device, cfg, counters, &kernel))
}

/// [`launch_grid`] with a kernel label for trace spans (counter delta +
/// modeled roofline duration; see [`exec::Executor::launch_labeled`]).
pub fn launch_grid_labeled<F>(
    device: &DeviceProfile,
    cfg: LaunchConfig,
    counters: &Counters,
    label: &'static str,
    kernel: F,
) -> Result<(), SimError>
where
    F: Fn(&BlockCtx) + Sync,
{
    launch_grid_scratch(device, cfg, counters, label, || (), |ctx, _| kernel(ctx))
}

/// [`launch_grid_labeled`] with per-worker block scratch: each claimed
/// chunk of blocks builds one `S` with `scratch()` and passes it to its
/// blocks in turn, so a kernel allocates its block state once per chunk.
/// The kernel resets what it reads at block start (see
/// [`exec::Executor::launch_scratch`]).
pub fn launch_grid_scratch<S, M, F>(
    device: &DeviceProfile,
    cfg: LaunchConfig,
    counters: &Counters,
    label: &'static str,
    scratch: M,
    kernel: F,
) -> Result<(), SimError>
where
    M: Fn() -> S + Sync,
    F: Fn(&BlockCtx, &mut S) + Sync,
{
    exec::with_current(|e| e.launch_scratch(device, cfg, counters, label, &scratch, &kernel))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::GlobalBuffer;

    #[test]
    fn all_blocks_execute_exactly_once() {
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let grid = Dim3::xy(7, 5);
        let hits = GlobalBuffer::<u32>::zeros(grid.volume());
        launch_grid(
            &dev,
            LaunchConfig {
                grid,
                threads_per_block: 128,
                smem_bytes: 0,
            },
            &c,
            |ctx| {
                let idx = grid.linear(ctx.bx, ctx.by, ctx.bz);
                hits.atomic_inc(idx, ctx.counters);
            },
        )
        .unwrap();
        assert!(hits.to_vec().iter().all(|&v| v == 1));
        assert_eq!(c.snapshot().kernel_launches, 1);
    }

    #[test]
    fn resource_validation() {
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let bad_threads = LaunchConfig {
            grid: Dim3::x(1),
            threads_per_block: 2048,
            smem_bytes: 0,
        };
        assert!(matches!(
            launch_grid(&dev, bad_threads, &c, |_| {}),
            Err(SimError::ThreadLimitExceeded { .. })
        ));
        let bad_smem = LaunchConfig {
            grid: Dim3::x(1),
            threads_per_block: 128,
            smem_bytes: 1 << 20,
        };
        assert!(matches!(
            launch_grid(&dev, bad_smem, &c, |_| {}),
            Err(SimError::SharedMemoryOverflow { .. })
        ));
        let bad_warp = LaunchConfig {
            grid: Dim3::x(1),
            threads_per_block: 48,
            smem_bytes: 0,
        };
        assert!(matches!(
            launch_grid(&dev, bad_warp, &c, |_| {}),
            Err(SimError::InvalidConfig(_))
        ));
    }

    #[test]
    fn empty_grid_is_ok() {
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let cfg = LaunchConfig {
            grid: Dim3::x(0),
            threads_per_block: 32,
            smem_bytes: 0,
        };
        launch_grid(&dev, cfg, &c, |_| panic!("no blocks should run")).unwrap();
    }
}
