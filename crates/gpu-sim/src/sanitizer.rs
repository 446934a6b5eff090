//! Device sanitizer suite: shadow-memory analysis for the simulated GPU.
//!
//! The byte-exactness tests in this workspace prove kernels produce the
//! right answer *under today's pool schedule*; they cannot prove the absence
//! of the bug classes that only show up under a different schedule or a
//! different allocator. CUDA ships `compute-sanitizer`
//! (racecheck/initcheck/memcheck) for exactly this, and since the simulator
//! already intercepts every device memory access, the analogous analysis
//! layer can be built natively:
//!
//! * **racecheck** — records per-cell access sets (block id × read / write /
//!   atomic) on every [`crate::GlobalBuffer`] (floats, `u32` labels and
//!   counts, quantized codes) within one kernel launch and reports
//!   any cross-block write–write or read–write conflict not mediated by
//!   atomics — i.e. kernels that are only *accidentally* deterministic under
//!   the current chunk-stealing schedule.
//! * **initcheck** — tracks a written-bitmap per buffer and flags device
//!   loads of never-stored cells. Allocation via `zeros` / `filled` /
//!   `from_slice` marks cells initialized (the values are defined);
//!   [`crate::GlobalBuffer::uninit`] models `cudaMalloc` garbage and starts
//!   all-clear. `corrupt_bit` does not mark anything.
//! * **oobcheck** — turns the existing bounds asserts into structured
//!   findings: an out-of-range device access is reported (and suppressed —
//!   loads return zero, stores are dropped) instead of tearing down the
//!   whole process, so one sweep can collect every offender.
//! * **leakcheck** — reports buffers that were allocated under the checker
//!   but never read by anything (wasted resident memory on the serve path).
//!
//! # Activation
//!
//! Checking is **zero-cost when disabled**: a buffer allocated with no
//! checker in scope carries no shadow state, and every hot-path hook is a
//! single `Option` branch on an already-loaded field (the same contract as
//! `trace::active()`). A checker is resolved at *allocation* and *launch*
//! time from the thread-local scope installed by [`with_checker`], else
//! the process-global checker — [`install_global`], or the
//! `FTK_SANITIZE=race,init,oob` environment variable on first use.
//!
//! # Determinism
//!
//! Access *sets* are schedule-independent (every block performs the same
//! accesses whatever order blocks run in), so the conflict analysis — and
//! therefore [`SanitizerReport::to_text`] — is byte-stable run-to-run,
//! pool or serial, as long as buffer labels are assigned. Findings sort by
//! (buffer label, kind, launch label).

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Which checkers a [`Checker`] runs. Parsed from `FTK_SANITIZE` as a
/// comma-separated token list: `race`, `init`, `oob`, `leak`, or `all`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SanitizeConfig {
    /// Cross-block data-race detection within one launch.
    pub race: bool,
    /// Read-before-write detection on device loads.
    pub init: bool,
    /// Structured out-of-bounds reporting (instead of a panic).
    pub oob: bool,
    /// Allocated-but-never-read buffer reporting.
    pub leak: bool,
}

impl SanitizeConfig {
    /// Every checker on.
    pub fn all() -> Self {
        SanitizeConfig {
            race: true,
            init: true,
            oob: true,
            leak: true,
        }
    }

    /// Parse a `FTK_SANITIZE`-style token list (`"race,init,oob"`).
    /// Unknown tokens are ignored; an empty string enables nothing.
    pub fn parse(spec: &str) -> Self {
        let mut cfg = SanitizeConfig::default();
        for tok in spec.split(',') {
            match tok.trim() {
                "race" => cfg.race = true,
                "init" => cfg.init = true,
                "oob" => cfg.oob = true,
                "leak" => cfg.leak = true,
                "all" | "1" => cfg = SanitizeConfig::all(),
                _ => {}
            }
        }
        cfg
    }

    /// Read `FTK_SANITIZE` from the environment; `None` when unset/empty.
    pub fn from_env() -> Option<Self> {
        let spec = std::env::var("FTK_SANITIZE").ok()?;
        if spec.trim().is_empty() {
            return None;
        }
        Some(Self::parse(&spec))
    }

    fn any(&self) -> bool {
        self.race || self.init || self.oob || self.leak
    }

    fn tokens(&self) -> String {
        let mut t = Vec::new();
        if self.race {
            t.push("race");
        }
        if self.init {
            t.push("init");
        }
        if self.oob {
            t.push("oob");
        }
        if self.leak {
            t.push("leak");
        }
        t.join(",")
    }
}

/// The kind of defect a [`Finding`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FindingKind {
    /// Two different blocks issued non-atomic writes to the same cell
    /// within one launch.
    RaceWriteWrite,
    /// One block wrote a cell non-atomically while a different block read
    /// it within the same launch.
    RaceReadWrite,
    /// A cell was touched both atomically and non-atomically by different
    /// blocks within one launch (atomics only mediate against atomics).
    RaceAtomicMix,
    /// A device load of a cell no store ever defined.
    UninitLoad,
    /// A device access outside the buffer's allocation.
    OutOfBounds,
    /// A buffer allocated under the checker that nothing ever read.
    LeakNeverRead,
}

impl FindingKind {
    fn as_str(self) -> &'static str {
        match self {
            FindingKind::RaceWriteWrite => "race-write-write",
            FindingKind::RaceReadWrite => "race-read-write",
            FindingKind::RaceAtomicMix => "race-atomic-mix",
            FindingKind::UninitLoad => "uninit-load",
            FindingKind::OutOfBounds => "out-of-bounds",
            FindingKind::LeakNeverRead => "leak-never-read",
        }
    }
}

/// One aggregated sanitizer finding: a defect kind observed on one buffer
/// (optionally within one labeled kernel launch), with the number of
/// affected cells and the smallest affected index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// What went wrong.
    pub kind: FindingKind,
    /// Buffer label (set via the labeling hooks, e.g.
    /// `GlobalBuffer::set_sanitizer_label`), else `buf#<ordinal>`.
    pub buffer: String,
    /// Label of the launch the defect was observed in (`-` for findings
    /// that are not launch-scoped, e.g. leaks).
    pub launch: String,
    /// Number of affected cells (summed across launches of the same label).
    pub cells: u64,
    /// Smallest affected element index.
    pub first_index: u64,
}

/// The outcome of a sanitizer pass: every [`Finding`] the checker
/// accumulated, in a deterministic order.
///
/// The text rendering is **byte-stable**: findings sort by
/// `(buffer, kind, launch)` and carry no wall-clock or pointer material, so
/// a report can be pinned in tests exactly like a campaign table.
///
/// ```
/// use gpu_sim::sanitizer::{Checker, SanitizeConfig};
/// use std::sync::Arc;
///
/// let checker = Arc::new(Checker::new(SanitizeConfig::all()));
/// let report = gpu_sim::sanitizer::with_checker(&checker, || {
///     let buf = gpu_sim::GlobalBuffer::<f32>::zeros(8);
///     buf.set_sanitizer_label("demo");
///     let _ = buf.to_vec(); // read it so leakcheck stays quiet
///     checker.report()
/// });
/// assert!(report.is_empty());
/// assert!(report.to_text().starts_with("sanitizer report"));
/// ```
#[derive(Debug, Clone)]
pub struct SanitizerReport {
    /// Which checkers produced this report.
    pub checks: SanitizeConfig,
    /// All findings, sorted by `(buffer, kind, launch)`.
    pub findings: Vec<Finding>,
}

impl SanitizerReport {
    /// True when no checker found anything.
    pub fn is_empty(&self) -> bool {
        self.findings.is_empty()
    }

    /// Deterministic, byte-stable text rendering (pin it in tests).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "sanitizer report (checks: {})\n",
            self.checks.tokens()
        ));
        out.push_str(&format!("findings: {}\n", self.findings.len()));
        for f in &self.findings {
            out.push_str(&format!(
                "{} buffer={} launch={} cells={} first={}\n",
                f.kind.as_str(),
                f.buffer,
                f.launch,
                f.cells,
                f.first_index
            ));
        }
        out
    }

    /// Findings of one kind (test helper).
    pub fn of_kind(&self, kind: FindingKind) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.kind == kind).collect()
    }
}

// ---------------------------------------------------------------------------
// Shadow state
// ---------------------------------------------------------------------------

/// Sentinel for "no block" / "more than one distinct block" in the packed
/// per-cell race word. Block ids are stored as `id + 1` in 21-bit fields.
const FIELD_BITS: u32 = 21;
const FIELD_MASK: u64 = (1 << FIELD_BITS) - 1;
const MULTI: u64 = FIELD_MASK;
/// Largest encodable block id (+1 encoding); bigger grids saturate to it,
/// trading exactness far beyond any shape this workspace launches.
const MAX_BLOCK: u64 = MULTI - 2;

#[inline]
fn encode_block(block: u32) -> u64 {
    (block as u64 + 1).min(MAX_BLOCK + 1)
}

/// Per-buffer shadow state, shared by every device-pointer alias of the
/// buffer (it lives behind the same `Arc` the storage does).
pub(crate) struct BufShadow {
    checker: Arc<Checker>,
    ordinal: u64,
    len: usize,
    label: Mutex<Option<String>>,
    /// Written-bitmap (one bit per cell); `None` when initcheck is off or
    /// the allocation was born fully initialized *and* nothing needs the
    /// map (uninit allocations always build it).
    init: Option<Box<[AtomicU64]>>,
    ever_read: AtomicBool,
    /// initcheck accumulator: count + min index + first launch label.
    uninit_loads: AtomicU64,
    uninit_first: AtomicU64,
    uninit_launch: Mutex<Option<&'static str>>,
    /// oobcheck accumulator.
    oob_accesses: AtomicU64,
    oob_first: AtomicU64,
    oob_launch: Mutex<Option<&'static str>>,
}

impl std::fmt::Debug for BufShadow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufShadow")
            .field("ordinal", &self.ordinal)
            .field("len", &self.len)
            .finish()
    }
}

impl BufShadow {
    fn name(&self) -> String {
        self.label
            .lock()
            .clone()
            .unwrap_or_else(|| format!("buf#{}", self.ordinal))
    }

    #[inline]
    fn mark_init_range(&self, start: usize, n: usize) {
        if let Some(bits) = &self.init {
            for idx in start..start + n {
                bits[idx / 64].fetch_or(1 << (idx % 64), Ordering::Relaxed);
            }
        }
    }

    #[inline]
    fn is_init(&self, idx: usize) -> bool {
        match &self.init {
            Some(bits) => bits[idx / 64].load(Ordering::Relaxed) & (1 << (idx % 64)) != 0,
            None => true,
        }
    }

    fn note_uninit(&self, idx: usize, launch: Option<&'static str>) {
        self.uninit_loads.fetch_add(1, Ordering::Relaxed);
        self.uninit_first.fetch_min(idx as u64, Ordering::Relaxed);
        if let Some(l) = launch {
            let mut slot = self.uninit_launch.lock();
            if slot.is_none() {
                *slot = Some(l);
            }
        }
    }

    fn note_oob(&self, idx: usize, launch: Option<&'static str>) {
        self.oob_accesses.fetch_add(1, Ordering::Relaxed);
        self.oob_first.fetch_min(idx as u64, Ordering::Relaxed);
        if let Some(l) = launch {
            let mut slot = self.oob_launch.lock();
            if slot.is_none() {
                *slot = Some(l);
            }
        }
    }
}

/// Race-shadow words for one buffer within one launch.
struct RaceCells {
    shadow: Arc<BufShadow>,
    words: Box<[AtomicU64]>,
}

/// Per-launch sanitizer state created by the execution engine around each
/// kernel launch; block closures record accesses into it via the
/// thread-local scope, and the engine analyzes + retires it at launch end.
pub struct LaunchShadow {
    checker: Arc<Checker>,
    label: &'static str,
    race: Mutex<HashMap<u64, Arc<RaceCells>>>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AccessKind {
    Read,
    Write,
    Atomic,
}

impl LaunchShadow {
    fn record(
        &self,
        shadow: &Arc<BufShadow>,
        block: u32,
        start: usize,
        n: usize,
        kind: AccessKind,
    ) {
        let cells = {
            let mut map = self.race.lock();
            Arc::clone(map.entry(shadow.ordinal).or_insert_with(|| {
                Arc::new(RaceCells {
                    shadow: Arc::clone(shadow),
                    words: (0..shadow.len).map(|_| AtomicU64::new(0)).collect(),
                })
            }))
        };
        let enc = encode_block(block);
        let shift = match kind {
            AccessKind::Write => 0,
            AccessKind::Read => FIELD_BITS,
            AccessKind::Atomic => 2 * FIELD_BITS,
        };
        for idx in start..start + n {
            let cell = &cells.words[idx];
            let mut cur = cell.load(Ordering::Relaxed);
            loop {
                let field = (cur >> shift) & FIELD_MASK;
                if field == enc || field == MULTI {
                    break; // same block again, or already saturated
                }
                let new_field = if field == 0 { enc } else { MULTI };
                let new = (cur & !(FIELD_MASK << shift)) | (new_field << shift);
                match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => break,
                    Err(actual) => cur = actual,
                }
            }
        }
    }

    /// Analyze the access sets and fold conflicts into the checker. The
    /// per-cell summaries are schedule-independent, so so is this.
    fn finish(&self) {
        struct Agg {
            cells: u64,
            first: u64,
        }
        let map = self.race.lock();
        let mut out: Vec<(u64, String, FindingKind, Agg)> = Vec::new();
        for rc in map.values() {
            let mut ww = Agg {
                cells: 0,
                first: u64::MAX,
            };
            let mut rw = Agg {
                cells: 0,
                first: u64::MAX,
            };
            let mut am = Agg {
                cells: 0,
                first: u64::MAX,
            };
            for (idx, word) in rc.words.iter().enumerate() {
                let w = word.load(Ordering::Relaxed);
                if w == 0 {
                    continue;
                }
                let writer = w & FIELD_MASK;
                let reader = (w >> FIELD_BITS) & FIELD_MASK;
                let atomic = (w >> (2 * FIELD_BITS)) & FIELD_MASK;
                if writer == MULTI {
                    ww.cells += 1;
                    ww.first = ww.first.min(idx as u64);
                }
                if writer != 0
                    && reader != 0
                    && (writer == MULTI || reader == MULTI || writer != reader)
                {
                    rw.cells += 1;
                    rw.first = rw.first.min(idx as u64);
                }
                if atomic != 0
                    && ((writer != 0 && (writer == MULTI || atomic == MULTI || writer != atomic))
                        || (reader != 0
                            && (reader == MULTI || atomic == MULTI || reader != atomic)))
                {
                    am.cells += 1;
                    am.first = am.first.min(idx as u64);
                }
            }
            for (kind, agg) in [
                (FindingKind::RaceWriteWrite, ww),
                (FindingKind::RaceReadWrite, rw),
                (FindingKind::RaceAtomicMix, am),
            ] {
                if agg.cells > 0 {
                    out.push((rc.shadow.ordinal, rc.shadow.name(), kind, agg));
                }
            }
        }
        drop(map);
        if out.is_empty() {
            return;
        }
        let mut races = self.checker.races.lock();
        for (_, name, kind, agg) in out {
            let entry = races
                .entry((name, kind, self.label))
                .or_insert((0, u64::MAX));
            entry.0 += agg.cells;
            entry.1 = entry.1.min(agg.first);
        }
    }
}

/// A sanitizer instance: configuration plus every shadow it has registered
/// and every finding it has accumulated. Cheap to share (`Arc`); one
/// checker typically scopes one fit / sweep / storm.
pub struct Checker {
    cfg: SanitizeConfig,
    shadows: Mutex<Vec<Arc<BufShadow>>>,
    next_ordinal: AtomicU64,
    /// Race findings keyed by (buffer name, kind, launch label) →
    /// (cells, first index). Aggregated across launches of the same label
    /// so an N-iteration fit with one racy kernel reports one line.
    #[allow(clippy::type_complexity)] // flat aggregation key, local to this impl
    races: Mutex<HashMap<(String, FindingKind, &'static str), (u64, u64)>>,
}

impl Checker {
    /// A checker running the given checks.
    pub fn new(cfg: SanitizeConfig) -> Self {
        Checker {
            cfg,
            shadows: Mutex::new(Vec::new()),
            next_ordinal: AtomicU64::new(0),
            races: Mutex::new(HashMap::new()),
        }
    }

    /// The checks this checker runs.
    pub fn config(&self) -> SanitizeConfig {
        self.cfg
    }

    fn register(self: &Arc<Self>, len: usize, pre_init: bool) -> Arc<BufShadow> {
        let want_bitmap = self.cfg.init && !pre_init;
        let shadow = Arc::new(BufShadow {
            checker: Arc::clone(self),
            ordinal: self.next_ordinal.fetch_add(1, Ordering::Relaxed),
            len,
            label: Mutex::new(None),
            init: want_bitmap.then(|| (0..len.div_ceil(64)).map(|_| AtomicU64::new(0)).collect()),
            ever_read: AtomicBool::new(false),
            uninit_loads: AtomicU64::new(0),
            uninit_first: AtomicU64::new(u64::MAX),
            uninit_launch: Mutex::new(None),
            oob_accesses: AtomicU64::new(0),
            oob_first: AtomicU64::new(u64::MAX),
            oob_launch: Mutex::new(None),
        });
        self.shadows.lock().push(Arc::clone(&shadow));
        shadow
    }

    /// Build the report from everything accumulated so far. Leakcheck runs
    /// here (a buffer is a leak only once the scope it served is over).
    pub fn report(&self) -> SanitizerReport {
        let mut findings = Vec::new();
        for ((buffer, kind, launch), (cells, first)) in self.races.lock().iter() {
            findings.push(Finding {
                kind: *kind,
                buffer: buffer.clone(),
                launch: (*launch).to_string(),
                cells: *cells,
                first_index: *first,
            });
        }
        for sh in self.shadows.lock().iter() {
            let uninit = sh.uninit_loads.load(Ordering::Relaxed);
            if uninit > 0 {
                findings.push(Finding {
                    kind: FindingKind::UninitLoad,
                    buffer: sh.name(),
                    launch: sh.uninit_launch.lock().unwrap_or("-").to_string(),
                    cells: uninit,
                    first_index: sh.uninit_first.load(Ordering::Relaxed),
                });
            }
            let oob = sh.oob_accesses.load(Ordering::Relaxed);
            if oob > 0 {
                findings.push(Finding {
                    kind: FindingKind::OutOfBounds,
                    buffer: sh.name(),
                    launch: sh.oob_launch.lock().unwrap_or("-").to_string(),
                    cells: oob,
                    first_index: sh.oob_first.load(Ordering::Relaxed),
                });
            }
            if self.cfg.leak && sh.len > 0 && !sh.ever_read.load(Ordering::Relaxed) {
                findings.push(Finding {
                    kind: FindingKind::LeakNeverRead,
                    buffer: sh.name(),
                    launch: "-".to_string(),
                    cells: sh.len as u64,
                    first_index: 0,
                });
            }
        }
        findings
            .sort_by(|a, b| (&a.buffer, a.kind, &a.launch).cmp(&(&b.buffer, b.kind, &b.launch)));
        // Distinct allocations sharing a label (e.g. one `centroid_norms`
        // per fit in a sweep) collapse to one line per (buffer, kind,
        // launch): cells sum, first index is the minimum.
        findings.dedup_by(|b, a| {
            let same = a.buffer == b.buffer && a.kind == b.kind && a.launch == b.launch;
            if same {
                a.cells += b.cells;
                a.first_index = a.first_index.min(b.first_index);
            }
            same
        });
        SanitizerReport {
            checks: self.cfg,
            findings,
        }
    }
}

impl std::fmt::Debug for Checker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checker").field("cfg", &self.cfg).finish()
    }
}

// ---------------------------------------------------------------------------
// Scope resolution
// ---------------------------------------------------------------------------

struct Scope {
    checker: Arc<Checker>,
    /// Set while executing one block of a launch: (launch shadow, block id).
    launch: Option<(Arc<LaunchShadow>, u32)>,
}

thread_local! {
    static SCOPE: std::cell::RefCell<Option<Scope>> = const { std::cell::RefCell::new(None) };
}

static GLOBAL_INIT: std::sync::Once = std::sync::Once::new();
static GLOBAL_ACTIVE: AtomicBool = AtomicBool::new(false);
static GLOBAL_CHECKER: OnceLock<Mutex<Option<Arc<Checker>>>> = OnceLock::new();

fn global_slot() -> &'static Mutex<Option<Arc<Checker>>> {
    GLOBAL_CHECKER.get_or_init(|| Mutex::new(None))
}

fn init_global_from_env() {
    if let Some(cfg) = SanitizeConfig::from_env() {
        if cfg.any() {
            *global_slot().lock() = Some(Arc::new(Checker::new(cfg)));
            GLOBAL_ACTIVE.store(true, Ordering::Relaxed);
        }
    }
}

/// Install a process-wide checker (overrides any `FTK_SANITIZE` checker).
pub fn install_global(checker: Arc<Checker>) {
    GLOBAL_INIT.call_once(init_global_from_env);
    *global_slot().lock() = Some(checker);
    GLOBAL_ACTIVE.store(true, Ordering::Relaxed);
}

/// Remove the process-wide checker (the env-var one included) and return
/// it, so a caller can take its report after a storm.
pub fn uninstall_global() -> Option<Arc<Checker>> {
    GLOBAL_INIT.call_once(init_global_from_env);
    GLOBAL_ACTIVE.store(false, Ordering::Relaxed);
    global_slot().lock().take()
}

/// The process-global checker, if one is installed (via [`install_global`]
/// or `FTK_SANITIZE`).
pub fn global() -> Option<Arc<Checker>> {
    GLOBAL_INIT.call_once(init_global_from_env);
    global_slot().lock().clone()
}

#[inline]
fn global_checker_fast() -> Option<Arc<Checker>> {
    GLOBAL_INIT.call_once(init_global_from_env);
    if !GLOBAL_ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    global_slot().lock().clone()
}

/// Run `f` with `checker` installed as this thread's sanitizer. Buffer
/// allocations inside the scope register shadow state with it; launches on
/// this thread check against it. Nested scopes shadow outer ones; the
/// previous scope is restored on exit (panic-safe).
pub fn with_checker<R>(checker: &Arc<Checker>, f: impl FnOnce() -> R) -> R {
    let prev = SCOPE.with(|s| {
        s.borrow_mut().replace(Scope {
            checker: Arc::clone(checker),
            launch: None,
        })
    });
    struct Restore(Option<Scope>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPE.with(|s| *s.borrow_mut() = self.0.take());
        }
    }
    let _restore = Restore(prev);
    f()
}

/// The checker the current thread resolves to (thread-local scope, else
/// global), if any.
pub fn current() -> Option<Arc<Checker>> {
    if let Some(c) = SCOPE.with(|s| s.borrow().as_ref().map(|sc| Arc::clone(&sc.checker))) {
        return Some(c);
    }
    global_checker_fast()
}

/// Allocation hook: build shadow state for a buffer of `len` cells when a
/// checker is in scope. `pre_init` marks the whole allocation initialized
/// (host uploads and zero-fills — the values are defined).
pub(crate) fn alloc_shadow(len: usize, pre_init: bool) -> Option<Arc<BufShadow>> {
    let checker = current()?;
    if !checker.cfg.any() {
        return None;
    }
    Some(checker.register(len, pre_init))
}

// ---------------------------------------------------------------------------
// Executor integration
// ---------------------------------------------------------------------------

/// Open a launch scope: resolve the current checker (thread-local scope,
/// else global) and build the per-launch race shadow. Called by the
/// execution engine; `None` when no checker resolves.
pub(crate) fn launch_begin(label: &'static str) -> Option<Arc<LaunchShadow>> {
    let checker = current()?;
    if !checker.cfg.any() {
        return None;
    }
    Some(Arc::new(LaunchShadow {
        checker,
        label,
        race: Mutex::new(HashMap::new()),
    }))
}

/// Close a launch scope: analyze the race shadow into checker findings.
pub(crate) fn launch_end(shadow: &Arc<LaunchShadow>) {
    if shadow.checker.cfg.race {
        shadow.finish();
    }
}

/// Run `f` (one block's kernel body) with the launch scope installed on
/// this thread, so every shadowed memory access records against `block`.
pub(crate) fn with_block<R>(shadow: &Arc<LaunchShadow>, block: u32, f: impl FnOnce() -> R) -> R {
    let prev = SCOPE.with(|s| {
        s.borrow_mut().replace(Scope {
            checker: Arc::clone(&shadow.checker),
            launch: Some((Arc::clone(shadow), block)),
        })
    });
    struct Restore(Option<Scope>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPE.with(|s| *s.borrow_mut() = self.0.take());
        }
    }
    let _restore = Restore(prev);
    f()
}

#[inline]
fn current_block() -> Option<(Arc<LaunchShadow>, u32, &'static str)> {
    SCOPE.with(|s| {
        s.borrow()
            .as_ref()
            .and_then(|sc| sc.launch.as_ref())
            .map(|(sh, b)| (Arc::clone(sh), *b, sh.label))
    })
}

// ---------------------------------------------------------------------------
// Access hooks (called from the buffer types when shadow state is present)
// ---------------------------------------------------------------------------

/// Shared bounds handling: `true` means proceed with the real access,
/// `false` means the access was out of bounds and has been reported — the
/// caller must suppress it. When oobcheck is off the caller proceeds and
/// the underlying slice indexing panics exactly as before.
#[inline]
fn bounds_ok(shadow: &BufShadow, start: usize, n: usize, launch: Option<&'static str>) -> bool {
    if start + n <= shadow.len {
        return true;
    }
    if !shadow.checker.cfg.oob {
        return true; // let the pre-existing assert/panic fire
    }
    shadow.note_oob(start.min(shadow.len), launch);
    false
}

/// Hook for a load of `n` cells at `start`. Returns `false` when the access
/// must be suppressed (out of bounds under oobcheck).
pub(crate) fn check_load(shadow: &Arc<BufShadow>, start: usize, n: usize) -> bool {
    let block = current_block();
    let launch_label = block.as_ref().map(|(_, _, l)| *l);
    if !bounds_ok(shadow, start, n, launch_label) {
        return false;
    }
    shadow.ever_read.store(true, Ordering::Relaxed);
    if let Some((launch, b, label)) = block {
        if shadow.checker.cfg.race {
            launch.record(shadow, b, start, n, AccessKind::Read);
        }
        if shadow.checker.cfg.init {
            for idx in start..start + n {
                if !shadow.is_init(idx) {
                    shadow.note_uninit(idx, Some(label));
                }
            }
        }
    }
    true
}

/// Hook for a store of `n` cells at `start`. Returns `false` when the
/// access must be suppressed.
pub(crate) fn check_store(shadow: &Arc<BufShadow>, start: usize, n: usize) -> bool {
    let block = current_block();
    let launch_label = block.as_ref().map(|(_, _, l)| *l);
    if !bounds_ok(shadow, start, n, launch_label) {
        return false;
    }
    if let Some((launch, b, _)) = block {
        if shadow.checker.cfg.race {
            launch.record(shadow, b, start, n, AccessKind::Write);
        }
    }
    shadow.mark_init_range(start, n);
    true
}

/// Hook for an atomic read-modify-write of one cell.
pub(crate) fn check_atomic(shadow: &Arc<BufShadow>, idx: usize) -> bool {
    let block = current_block();
    let launch_label = block.as_ref().map(|(_, _, l)| *l);
    if !bounds_ok(shadow, idx, 1, launch_label) {
        return false;
    }
    shadow.ever_read.store(true, Ordering::Relaxed);
    if let Some((launch, b, _)) = block {
        if shadow.checker.cfg.race {
            launch.record(shadow, b, idx, 1, AccessKind::Atomic);
        }
    }
    shadow.mark_init_range(idx, 1);
    true
}

/// Label the buffer behind `shadow` for reports.
pub(crate) fn set_label(shadow: &Arc<BufShadow>, label: &str) {
    *shadow.label.lock() = Some(label.to_string());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checker(cfg: SanitizeConfig) -> Arc<Checker> {
        Arc::new(Checker::new(cfg))
    }

    #[test]
    fn config_parses_token_lists() {
        let cfg = SanitizeConfig::parse("race, init ,oob");
        assert!(cfg.race && cfg.init && cfg.oob && !cfg.leak);
        assert_eq!(SanitizeConfig::parse("all"), SanitizeConfig::all());
        assert_eq!(SanitizeConfig::parse("bogus"), SanitizeConfig::default());
        assert_eq!(SanitizeConfig::parse("race").tokens(), "race");
        assert_eq!(SanitizeConfig::all().tokens(), "race,init,oob,leak");
    }

    #[test]
    fn empty_report_is_stable_text() {
        let c = checker(SanitizeConfig::all());
        let r = c.report();
        assert!(r.is_empty());
        assert_eq!(
            r.to_text(),
            "sanitizer report (checks: race,init,oob,leak)\nfindings: 0\n"
        );
    }

    #[test]
    fn with_checker_scopes_and_restores() {
        let c = checker(SanitizeConfig::all());
        assert!(SCOPE.with(|s| s.borrow().is_none()));
        with_checker(&c, || {
            assert!(current().is_some());
            let inner = checker(SanitizeConfig::all());
            with_checker(&inner, || {
                let got = current().unwrap();
                assert!(Arc::ptr_eq(&got, &inner));
            });
            let got = current().unwrap();
            assert!(Arc::ptr_eq(&got, &c));
        });
        assert!(SCOPE.with(|s| s.borrow().is_none()));
    }

    #[test]
    fn race_word_encoding_saturates() {
        assert_eq!(encode_block(0), 1);
        assert_eq!(encode_block(5), 6);
        assert!(encode_block(u32::MAX) <= MAX_BLOCK + 1);
    }

    #[test]
    fn findings_sort_deterministically() {
        let c = checker(SanitizeConfig::all());
        {
            let mut races = c.races.lock();
            races.insert(("b".into(), FindingKind::RaceWriteWrite, "k2"), (3, 7));
            races.insert(("a".into(), FindingKind::RaceReadWrite, "k1"), (1, 0));
            races.insert(("a".into(), FindingKind::RaceWriteWrite, "k1"), (2, 4));
        }
        let r = c.report();
        let kinds: Vec<_> = r
            .findings
            .iter()
            .map(|f| (f.buffer.as_str(), f.kind))
            .collect();
        assert_eq!(
            kinds,
            vec![
                ("a", FindingKind::RaceWriteWrite),
                ("a", FindingKind::RaceReadWrite),
                ("b", FindingKind::RaceWriteWrite),
            ]
        );
        let text = r.to_text();
        assert!(text.contains("race-write-write buffer=a launch=k1 cells=2 first=4"));
    }
}
