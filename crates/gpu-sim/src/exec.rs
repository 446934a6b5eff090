//! The execution engine: a lazily-initialized, persistent worker pool with
//! chunked block scheduling.
//!
//! Spawning and joining a fresh set of scoped host threads per launch and
//! stealing work one block at a time off a shared atomic is too slow: a
//! K-means fit performs thousands of launches, so the spawn/join cost and
//! the one-`fetch_add`-per-block ping-pong would sit directly on the
//! per-iteration hot path the paper engineers to zero.
//!
//! [`Executor`] replaces that machinery:
//!
//! * **Persistent workers.** A pool is created once (lazily, on first
//!   launch) and reused by every subsequent launch; submitting a job is an
//!   enqueue + wake, not N thread spawns.
//! * **Chunked scheduling.** A worker grabs a *batch* of consecutive block
//!   indices per steal, amortizing the shared work-index traffic over the
//!   batch.
//! * **Counter sharding.** Each worker charges a local [`CounterSink`] and
//!   merges into the launch's shared [`Counters`] once per block, so
//!   [`Counters::snapshot`] totals are bit-identical between serial and
//!   parallel execution.
//! * **Caller participation.** The submitting thread executes chunks too,
//!   so a launch always makes progress even when every pool worker is busy
//!   with another caller's job (and nested launches cannot deadlock).
//! * **Deterministic serial policy.** [`ExecPolicy::Serial`] runs blocks in
//!   linear grid order on the calling thread — selectable per executor, via
//!   the `FTK_EXEC=serial` environment override for the global pool, or
//!   scoped over a region of code with [`with_executor`].
//!
//! Environment knobs (read once, when the global executor is first used):
//!
//! * `FTK_EXEC=serial` — run every launch serially (deterministic block
//!   order, no worker threads at all).
//! * `FTK_WORKERS=N` — pool size; defaults to
//!   [`std::thread::available_parallelism`].

use crate::counters::{CounterSink, Counters};
use crate::device::DeviceProfile;
use crate::error::SimError;
use crate::launch::{validate, BlockCtx, LaunchConfig};
use crate::sanitizer;
use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// How an executor runs the blocks of a launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPolicy {
    /// Run every block on the calling thread, in linear grid order. Fully
    /// deterministic — the debugging/reproducibility mode.
    Serial,
    /// Distribute blocks over a persistent pool of `workers` threads (the
    /// caller participates as an extra worker).
    Parallel {
        /// Pool size (≥ 1).
        workers: usize,
    },
}

/// A chunk-level task: `run(start, end)` executes items `start..end`.
/// Lifetime-erased so persistent workers (which are `'static`) can call into
/// a stack-borrowed closure; soundness is provided by [`Job::remaining`] —
/// the submitting call blocks until every item completed, so the closure
/// outlives every invocation.
struct Task {
    data: *const (),
    call: unsafe fn(*const (), usize, usize),
}

// SAFETY: the pointed-to closure is `Sync` (checked by the generic bound in
// `run_chunked`) and outlives the job (the submitter blocks on completion).
unsafe impl Send for Task {}
unsafe impl Sync for Task {}

/// One submitted launch, shared between the submitter and the pool workers.
struct Job {
    /// Next unclaimed item index.
    next: AtomicUsize,
    /// Total number of items.
    total: usize,
    /// Items per steal.
    chunk: usize,
    /// Items not yet executed; the job is complete when this hits zero.
    remaining: AtomicUsize,
    task: Task,
    /// First panic payload raised by any chunk (re-raised on the submitter).
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
    /// Completion signal (guards nothing; pairs with `remaining`).
    done_lock: Mutex<()>,
    done_cv: Condvar,
}

impl Job {
    /// Claim the next chunk; `None` when the job is exhausted.
    fn claim(&self) -> Option<(usize, usize)> {
        let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
        if start >= self.total {
            return None;
        }
        Some((start, (start + self.chunk).min(self.total)))
    }

    /// Run one claimed chunk, capturing a panic instead of unwinding into
    /// the pool, then retire its items.
    fn run_chunk(&self, start: usize, end: usize) {
        let r = catch_unwind(AssertUnwindSafe(|| unsafe {
            (self.task.call)(self.task.data, start, end)
        }));
        if let Err(payload) = r {
            let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        if self.remaining.fetch_sub(end - start, Ordering::AcqRel) == end - start {
            // Last chunk: wake the submitter. Taking the lock orders the
            // notify after the submitter's `remaining` check.
            let _g = self.done_lock.lock().unwrap_or_else(|e| e.into_inner());
            self.done_cv.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }
}

/// State shared by the pool's worker threads.
struct PoolShared {
    queue: Mutex<VecDeque<Arc<Job>>>,
    available: Condvar,
    shutdown: AtomicBool,
}

struct Pool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    fn new(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ftk-exec-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn executor worker")
            })
            .collect();
        Pool {
            shared,
            workers: handles,
        }
    }

    /// Enqueue a job and wake the workers.
    fn submit(&self, job: &Arc<Job>) {
        let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.push_back(Arc::clone(job));
        drop(q);
        self.shared.available.notify_all();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // The store must happen under the queue mutex: a worker checks the
        // flag and enters `wait` while holding it, so storing outside the
        // lock could slip into that window and the notify would be lost,
        // hanging the join below.
        {
            let _q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.available.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                // Drop exhausted jobs off the front, then adopt the first
                // one that still has unclaimed work.
                while let Some(front) = q.front() {
                    if front.next.load(Ordering::Relaxed) >= front.total {
                        q.pop_front();
                    } else {
                        break;
                    }
                }
                if let Some(j) = q.front() {
                    break Arc::clone(j);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                q = shared.available.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        while let Some((start, end)) = job.claim() {
            job.run_chunk(start, end);
        }
    }
}

/// The execution engine. Obtain the process-wide instance with
/// [`Executor::global`], or build private ones ([`Executor::serial`],
/// [`Executor::with_workers`]) and scope them over code with
/// [`with_executor`].
pub struct Executor {
    policy: ExecPolicy,
    pool: Option<Pool>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("policy", &self.policy)
            .finish()
    }
}

impl Executor {
    /// Build an executor with an explicit policy. `Parallel { workers: 0 }`
    /// is clamped to one worker.
    pub fn new(policy: ExecPolicy) -> Self {
        match policy {
            ExecPolicy::Serial => Executor { policy, pool: None },
            ExecPolicy::Parallel { workers } => {
                let workers = workers.max(1);
                Executor {
                    policy: ExecPolicy::Parallel { workers },
                    pool: Some(Pool::new(workers)),
                }
            }
        }
    }

    /// A serial executor (deterministic block order, no threads).
    pub fn serial() -> Self {
        Executor::new(ExecPolicy::Serial)
    }

    /// A parallel executor with exactly `workers` pool threads.
    pub fn with_workers(workers: usize) -> Self {
        Executor::new(ExecPolicy::Parallel { workers })
    }

    /// The process-wide executor, created on first use from the
    /// environment: `FTK_EXEC=serial` selects [`ExecPolicy::Serial`];
    /// otherwise a pool of `FTK_WORKERS` (default
    /// [`std::thread::available_parallelism`]) threads.
    pub fn global() -> &'static Executor {
        static GLOBAL: OnceLock<Executor> = OnceLock::new();
        GLOBAL.get_or_init(|| Executor::new(policy_from_env()))
    }

    /// The policy this executor resolves launches with.
    pub fn policy(&self) -> ExecPolicy {
        self.policy
    }

    /// Worker count the pool schedules onto (1 under `Serial`).
    pub fn workers(&self) -> usize {
        match self.policy {
            ExecPolicy::Serial => 1,
            ExecPolicy::Parallel { workers } => workers,
        }
    }

    /// Items per steal for a job of `total` items: large enough to amortize
    /// the shared work-index `fetch_add`, small enough to keep every worker
    /// busy through the tail (≈ 4 steals per worker).
    fn chunk_for(&self, total: usize) -> usize {
        (total / (self.workers() * 4)).clamp(1, 256)
    }

    /// Execute `task(start, end)` over disjoint chunks covering `0..total`.
    /// Parallel under `Parallel` policy (pool workers + the calling
    /// thread), in-order on the calling thread under `Serial`. A panic in
    /// any chunk is re-raised on the caller after all items retire.
    pub fn run_chunked<F>(&self, total: usize, task: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        if total == 0 {
            return;
        }
        let pool = match (&self.policy, &self.pool) {
            (ExecPolicy::Parallel { .. }, Some(pool)) if total > 1 => pool,
            _ => {
                task(0, total);
                return;
            }
        };
        unsafe fn call<F: Fn(usize, usize)>(data: *const (), start: usize, end: usize) {
            // SAFETY: `data` was erased from an `&F` that the submitting
            // frame keeps alive until `remaining == 0`.
            unsafe { (*(data as *const F))(start, end) }
        }
        let job = Arc::new(Job {
            next: AtomicUsize::new(0),
            total,
            chunk: self.chunk_for(total),
            remaining: AtomicUsize::new(total),
            task: Task {
                data: &task as *const F as *const (),
                call: call::<F>,
            },
            panic: Mutex::new(None),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
        });
        pool.submit(&job);
        // Participate: the submitter is an extra worker for its own job.
        while let Some((start, end)) = job.claim() {
            job.run_chunk(start, end);
        }
        // Wait for chunks still in flight on pool workers.
        let mut g = job.done_lock.lock().unwrap_or_else(|e| e.into_inner());
        while !job.is_done() {
            g = job.done_cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        drop(g);
        let payload = job.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(p) = payload {
            resume_unwind(p);
        }
    }

    /// Launch `kernel` over the grid described by `cfg`, charging `counters`
    /// through per-worker [`CounterSink`]s (merged once per block). Emits a
    /// trace span under the generic label `"kernel"` when tracing is active;
    /// use [`Executor::launch_labeled`] to name the kernel.
    pub fn launch<F>(
        &self,
        device: &DeviceProfile,
        cfg: LaunchConfig,
        counters: &Counters,
        kernel: F,
    ) -> Result<(), SimError>
    where
        F: Fn(&BlockCtx) + Sync,
    {
        self.launch_labeled(device, cfg, counters, "kernel", kernel)
    }

    /// [`Executor::launch`] with a kernel label for trace spans. When a
    /// trace sink is active on the calling thread, the launch's counter
    /// delta and its modeled duration (counter-roofline over the device's
    /// calibrated ceilings) are emitted as a [`trace::TraceEvent::Launch`];
    /// otherwise the only extra cost over [`Executor::launch`] is one flag
    /// check.
    pub fn launch_labeled<F>(
        &self,
        device: &DeviceProfile,
        cfg: LaunchConfig,
        counters: &Counters,
        label: &'static str,
        kernel: F,
    ) -> Result<(), SimError>
    where
        F: Fn(&BlockCtx) + Sync,
    {
        self.launch_scratch(device, cfg, counters, label, || (), |ctx, _| kernel(ctx))
    }

    /// [`Executor::launch_labeled`] with per-worker block scratch: every
    /// claimed chunk of blocks builds one `S` with `scratch()`, next to its
    /// counter shard, and hands it to each of its blocks in turn. A kernel
    /// that keeps its block state there (pipeline ring, accumulators)
    /// allocates it once per chunk instead of once per block, and must
    /// reset what it reads at block start: which blocks share a scratch
    /// depends on the schedule.
    pub fn launch_scratch<S, M, F>(
        &self,
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
        if !trace::active() {
            return self.launch_inner(device, cfg, counters, label, scratch, kernel);
        }
        let before = counters.snapshot();
        self.launch_inner(device, cfg, counters, label, scratch, kernel)?;
        emit_launch_span(device, &cfg, counters, label, &before);
        Ok(())
    }

    fn launch_inner<S, M, F>(
        &self,
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
        validate(device, &cfg)?;
        counters.add_launch();
        let total = cfg.grid.volume();
        if total == 0 {
            return Ok(());
        }
        let san = sanitizer::launch_begin(label);
        self.run_chunked(total, |start, end| {
            let sink = CounterSink::new(counters);
            let mut scratch = scratch();
            for idx in start..end {
                let (bx, by, bz) = cfg.grid.unlinear(idx);
                let ctx = BlockCtx {
                    bx,
                    by,
                    bz,
                    counters: &sink,
                    device,
                };
                match &san {
                    Some(sh) => {
                        sanitizer::with_block(sh, idx as u32, || kernel(&ctx, &mut scratch))
                    }
                    None => kernel(&ctx, &mut scratch),
                }
                sink.flush();
            }
        });
        if let Some(sh) = &san {
            sanitizer::launch_end(sh);
        }
        Ok(())
    }

    /// Process `data` in place as disjoint `chunk`-sized pieces,
    /// `f(offset, piece)`, distributed over the pool. The host-side
    /// data-parallel companion to [`Executor::launch`] (used e.g. by the
    /// parallel CPU reference path).
    pub fn par_chunks_mut<T, F>(&self, data: &mut [T], chunk: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        // Send the raw pointer to workers without laundering it through an
        // integer, so pointer provenance survives (miri strict-provenance
        // clean). The accessor method makes closures capture the wrapper,
        // not the bare `*mut T` field (edition-2021 captures are
        // field-precise).
        struct SendPtr<T>(*mut T);
        unsafe impl<T: Send> Send for SendPtr<T> {}
        unsafe impl<T: Send> Sync for SendPtr<T> {}
        impl<T> SendPtr<T> {
            fn get(&self) -> *mut T {
                self.0
            }
        }

        let chunk = chunk.max(1);
        let len = data.len();
        let n_chunks = len.div_ceil(chunk);
        let base = SendPtr(data.as_mut_ptr());
        self.run_chunked(n_chunks, |cs, ce| {
            for ci in cs..ce {
                let start = ci * chunk;
                let end = (start + chunk).min(len);
                // SAFETY: chunk indices are claimed exactly once, so the
                // reconstructed subslices are disjoint; `run_chunked` joins
                // all workers before returning, so they never outlive the
                // `&mut [T]` borrow.
                let piece =
                    unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
                f(start, piece);
            }
        });
    }
}

/// Emit a [`trace::TraceEvent::Launch`] span for a completed launch: the
/// counter delta since `before`, the grid dims, and the modeled duration
/// from the counter roofline. Called only when tracing is active.
fn emit_launch_span(
    device: &DeviceProfile,
    cfg: &LaunchConfig,
    counters: &Counters,
    label: &'static str,
    before: &crate::counters::CounterSnapshot,
) {
    let delta = counters.snapshot().since(before);
    let modeled_s = crate::timing::counter_roofline(device, &delta);
    trace::emit(trace::TraceEvent::Launch {
        label,
        grid: (cfg.grid.x, cfg.grid.y, cfg.grid.z),
        modeled_s,
        fields: delta.nonzero_fields(),
    });
}

fn policy_from_env() -> ExecPolicy {
    match std::env::var("FTK_EXEC").as_deref() {
        Ok(v) if v.eq_ignore_ascii_case("serial") => ExecPolicy::Serial,
        _ => {
            let workers = std::env::var("FTK_WORKERS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
            ExecPolicy::Parallel { workers }
        }
    }
}

thread_local! {
    /// Scoped executor override installed by [`with_executor`].
    static OVERRIDE: Cell<Option<*const Executor>> = const { Cell::new(None) };
}

/// Run `f` with `exec` as the launch executor for the current thread:
/// every [`crate::launch_grid`] (and parallel reference helper) invoked
/// inside `f` on this thread resolves to `exec` instead of the global pool.
/// Restores the previous override on exit, including across panics.
pub fn with_executor<R>(exec: &Executor, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<*const Executor>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|c| c.replace(Some(exec as *const Executor))));
    f()
}

/// Resolve the current executor (thread-local override, else global) and
/// hand it to `f`.
pub fn with_current<R>(f: impl FnOnce(&Executor) -> R) -> R {
    match OVERRIDE.with(|c| c.get()) {
        // SAFETY: the pointer was installed by `with_executor`, whose
        // `&Executor` borrow is alive for the whole override scope, and it
        // is only ever read on the installing thread.
        Some(ptr) => f(unsafe { &*ptr }),
        None => f(Executor::global()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dim::Dim3;
    use std::sync::atomic::AtomicU64;

    fn cfg(grid: Dim3) -> LaunchConfig {
        LaunchConfig {
            grid,
            threads_per_block: 128,
            smem_bytes: 0,
        }
    }

    #[test]
    fn every_block_runs_exactly_once_under_chunked_scheduling() {
        // Deliberately more blocks than chunk capacity and a pool bigger
        // than the machine, to exercise multi-steal paths.
        let exec = Executor::with_workers(4);
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let grid = Dim3::xy(37, 11);
        let hits: Vec<AtomicU64> = (0..grid.volume()).map(|_| AtomicU64::new(0)).collect();
        exec.launch(&dev, cfg(grid), &c, |ctx| {
            hits[grid.linear(ctx.bx, ctx.by, ctx.bz)].fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(c.snapshot().kernel_launches, 1);
    }

    #[test]
    fn pool_is_reusable_across_launches() {
        let exec = Executor::with_workers(2);
        let dev = DeviceProfile::t4();
        let c = Counters::new();
        let total = AtomicU64::new(0);
        for _ in 0..50 {
            exec.launch(&dev, cfg(Dim3::x(16)), &c, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 50 * 16);
        assert_eq!(c.snapshot().kernel_launches, 50);
    }

    #[test]
    fn serial_policy_runs_in_linear_order() {
        let exec = Executor::serial();
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let order = Mutex::new(Vec::new());
        exec.launch(&dev, cfg(Dim3::xy(3, 2)), &c, |ctx| {
            order.lock().unwrap().push((ctx.bx, ctx.by));
        })
        .unwrap();
        assert_eq!(
            order.into_inner().unwrap(),
            vec![(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]
        );
    }

    #[test]
    fn serial_and_parallel_counter_snapshots_are_identical() {
        let dev = DeviceProfile::a100();
        let kernel = |ctx: &BlockCtx| {
            ctx.counters.add_loaded(ctx.bx as u64 * 8 + 4);
            ctx.counters.add_fma(3);
            ctx.barrier();
        };
        let c_ser = Counters::new();
        Executor::serial()
            .launch(&dev, cfg(Dim3::x(100)), &c_ser, kernel)
            .unwrap();
        let c_par = Counters::new();
        Executor::with_workers(4)
            .launch(&dev, cfg(Dim3::x(100)), &c_par, kernel)
            .unwrap();
        assert_eq!(c_ser.snapshot(), c_par.snapshot());
    }

    #[test]
    fn panicking_block_propagates_to_the_caller() {
        let exec = Executor::with_workers(3);
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let result = catch_unwind(AssertUnwindSafe(|| {
            exec.launch(&dev, cfg(Dim3::x(64)), &c, |ctx| {
                if ctx.bx == 13 {
                    panic!("block 13 died");
                }
            })
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "block 13 died");
    }

    #[test]
    fn panic_in_serial_policy_propagates_too() {
        let exec = Executor::serial();
        let dev = DeviceProfile::a100();
        let c = Counters::new();
        let result = catch_unwind(AssertUnwindSafe(|| {
            exec.launch(&dev, cfg(Dim3::x(4)), &c, |ctx| {
                assert!(ctx.bx < 2, "serial block panic");
            })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn with_executor_overrides_and_restores() {
        let serial = Executor::serial();
        with_executor(&serial, || {
            with_current(|e| assert_eq!(e.policy(), ExecPolicy::Serial));
            // nested override wins, then unwinds
            let pool = Executor::with_workers(2);
            with_executor(&pool, || {
                with_current(|e| assert_eq!(e.policy(), ExecPolicy::Parallel { workers: 2 }));
            });
            with_current(|e| assert_eq!(e.policy(), ExecPolicy::Serial));
        });
    }

    #[test]
    fn par_chunks_mut_covers_every_element_disjointly() {
        let exec = Executor::with_workers(4);
        let mut data = vec![0u32; 10_001];
        exec.par_chunks_mut(&mut data, 97, |offset, piece| {
            for (i, v) in piece.iter_mut().enumerate() {
                *v += (offset + i) as u32 + 1;
            }
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32 + 1));
    }

    #[test]
    fn concurrent_submitters_share_the_pool() {
        let exec = Executor::with_workers(2);
        let dev = DeviceProfile::a100();
        let total = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let c = Counters::new();
                    exec.launch(&dev, cfg(Dim3::x(200)), &c, |_| {
                        total.fetch_add(1, Ordering::Relaxed);
                    })
                    .unwrap();
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 200);
    }

    #[test]
    fn chunk_size_balances_steals() {
        let exec = Executor::with_workers(4);
        assert_eq!(exec.chunk_for(8), 1);
        assert_eq!(exec.chunk_for(1600), 100);
        assert_eq!(exec.chunk_for(1 << 20), 256); // capped
    }
}
