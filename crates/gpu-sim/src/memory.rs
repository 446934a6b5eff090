//! Simulated global (device) memory.
//!
//! [`GlobalBuffer`] is the one device buffer type. It holds any
//! [`Element`]: the float [`Scalar`]s (`f32`, `f64`), labels and counts
//! (`u32`), fp16 codes (`u16`) and int8 codes (`u8`). Each element is
//! stored as its raw bits in an atomic cell of its own width
//! ([`Element::Cell`]), so that parallel threadblocks can load and store
//! safely, as plain CUDA global accesses do, and the host moves the bytes
//! the traffic counters charge. Loads and stores are relaxed atomics. There
//! is no float `atomicAdd`: its rounding depends on arrival order, so
//! kernels reduce per-block partials in block order instead (see
//! [`crate::launch`]). The one read-modify-write atomic is an integer one,
//! [`GlobalBuffer::atomic_inc`] on a `GlobalBuffer<u32>`; the fused
//! argmin's merge is a plain store into per-column-block slots
//! ([`crate::atomics::ArgminSlots`]).
//!
//! Traffic accounting is explicit: kernels charge a [`crate::counters::EventSink`]
//! (the launch's shared counters, or a worker-local sink inside kernels)
//! when they touch global memory, mirroring the transactions a profiler
//! would report.
//!
//! Two charging granularities exist:
//!
//! * **Per element** — [`GlobalBuffer::load_counted`] /
//!   [`GlobalBuffer::store_counted`], one sink charge per element. This is
//!   the uncoalesced access pattern (strided or data-dependent addressing).
//! * **Per run** — [`GlobalBuffer::load_run`] / [`GlobalBuffer::store_run`],
//!   which move a contiguous run of elements with one sink charge for the
//!   whole run, modeling the coalesced transactions a warp issues when
//!   consecutive threads touch consecutive addresses. The charged *byte*
//!   totals are identical to charging every element individually (u64 byte
//!   addition is exact), so counter-based structural tests and the
//!   serial-vs-parallel counter-identity invariant are agnostic to which
//!   path a kernel uses. [`GlobalBuffer::charge_run`] charges (and
//!   sanitizer-checks) such a run without moving it, for a kernel that
//!   stages a tile only to be charged for it and reads the values from a
//!   copy staged once per launch.
//!
//! Both charge `size_of::<E>()` bytes per element, so a quantized code
//! table shows its 2–4x traffic advantage over an fp32 table in the
//! counters. Index traffic (a `GlobalBuffer<u32>` of labels or counts) is
//! not byte-counted: kernels move it only with the uncounted
//! [`GlobalBuffer::load`] / [`GlobalBuffer::store`] /
//! [`GlobalBuffer::read_range`] / [`GlobalBuffer::write_range`], and
//! `ftk-lint`'s `raw-access` rule asks for an annotation at each such
//! per-element access in the kernel variants.

use crate::counters::EventSink;
use crate::matrix::Matrix;
use crate::sanitizer;
use crate::scalar::Scalar;
use std::convert::identity;
use std::sync::atomic::{AtomicU16, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

mod sealed {
    /// Closes [`super::Element`] to the five impls below, whose cells are
    /// all atomic integers (what [`super::GlobalBuffer::zeros`] relies on).
    pub trait Sealed {}
}

/// An element type a [`GlobalBuffer`] can hold.
///
/// Every access is bit-exact (NaN payloads, signed zeros and subnormals
/// survive): the cell holds the element's raw bits at its own width.
pub trait Element:
    sealed::Sealed + Copy + Default + std::fmt::Debug + Send + Sync + 'static
{
    /// Atomic cell of the element's width: `AtomicU32` for `f32` and `u32`,
    /// `AtomicU64` for `f64`, `AtomicU16` for `u16`, `AtomicU8` for `u8`.
    /// All-zero bits are a valid cell holding `Self::default()`.
    type Cell: Send + Sync + 'static;
    /// A cell holding `v`.
    fn cell(v: Self) -> Self::Cell;
    /// Relaxed load of a cell.
    fn load_cell(cell: &Self::Cell) -> Self;
    /// Relaxed store into a cell.
    fn store_cell(cell: &Self::Cell, v: Self);
    /// Raw bits widened to `u64` (narrower types live in the low bits): one
    /// key type for hashing values of any width, as the quantized-table
    /// digests do.
    fn to_raw_u64(self) -> u64;
    /// The element whose raw bits are the low bits of `bits`.
    fn from_raw_u64(bits: u64) -> Self;
}

macro_rules! element {
    ($($t:ty => $atomic:ty, $bits:ty, $to:path, $from:path;)*) => {$(
        impl sealed::Sealed for $t {}
        impl Element for $t {
            type Cell = $atomic;
            #[inline]
            fn cell(v: $t) -> $atomic {
                <$atomic>::new($to(v))
            }
            #[inline]
            fn load_cell(cell: &$atomic) -> $t {
                $from(cell.load(Ordering::Relaxed))
            }
            #[inline]
            fn store_cell(cell: &$atomic, v: $t) {
                cell.store($to(v), Ordering::Relaxed)
            }
            #[inline]
            fn to_raw_u64(self) -> u64 {
                $to(self) as u64
            }
            #[inline]
            fn from_raw_u64(bits: u64) -> $t {
                $from(bits as $bits)
            }
        }
    )*};
}

element! {
    f32 => AtomicU32, u32, f32::to_bits, f32::from_bits;
    f64 => AtomicU64, u64, f64::to_bits, f64::from_bits;
    u32 => AtomicU32, u32, identity, identity;
    u16 => AtomicU16, u16, identity, identity;
    u8 => AtomicU8, u8, identity, identity;
}

/// A device-global buffer of `E` with atomic element access.
///
/// Storage is shared: [`Clone`] is a device-pointer copy (both handles
/// alias the same memory), not a deep copy — exactly how passing a device
/// pointer to a second kernel behaves. `Arc<[E::Cell]>` is a fat pointer
/// straight to the element array, so element access costs the same as
/// through an owning `Vec`, and each cell is `size_of::<E>()` bytes.
///
/// When a [`crate::sanitizer`] checker is in scope at allocation time the
/// buffer carries shadow state and every access is checked; otherwise
/// `shadow` is `None` and the hooks cost one branch.
pub struct GlobalBuffer<E: Element> {
    cells: Arc<[E::Cell]>,
    shadow: Option<Arc<sanitizer::BufShadow>>,
}

impl<E: Element> Clone for GlobalBuffer<E> {
    /// Alias the same device memory (a device-pointer copy): writes through
    /// either handle are visible through both.
    fn clone(&self) -> Self {
        GlobalBuffer {
            cells: Arc::clone(&self.cells),
            shadow: self.shadow.clone(),
        }
    }
}

impl<E: Element> GlobalBuffer<E> {
    fn alloc(cells: Arc<[E::Cell]>, pre_init: bool) -> Self {
        GlobalBuffer {
            shadow: sanitizer::alloc_shadow(cells.len(), pre_init),
            cells,
        }
    }

    /// `len` cells of all-zero bits, which read as `E::default()`.
    ///
    /// The storage comes zeroed from the allocator, so a large buffer is
    /// mapped lazily and each page is faulted in by whichever thread (pool
    /// worker, under a parallel ingest) first writes it, instead of being
    /// filled serially here. Those pages are 2 MiB where the host allows
    /// it ([`advise_huge_pages`]).
    fn zeroed_cells(len: usize) -> Arc<[E::Cell]> {
        debug_assert_eq!(
            E::default().to_raw_u64(),
            0,
            "E::default() is all-zero bits"
        );
        // SAFETY: `Element` is sealed, and every `Element::Cell` is an
        // atomic integer (`AtomicU8` .. `AtomicU64`), for which all-zero
        // bytes are a valid value; all-zero bits decode to `E::default()`
        // (asserted above).
        let cells = unsafe { Arc::<[E::Cell]>::new_zeroed_slice(len).assume_init() };
        advise_huge_pages(&cells);
        cells
    }

    /// Zero-initialized buffer of `len` elements (the `cudaMemset` path —
    /// every cell is defined, so initcheck treats it as initialized).
    pub fn zeros(len: usize) -> Self {
        Self::alloc(Self::zeroed_cells(len), true)
    }

    /// Buffer filled with `v`.
    pub fn filled(len: usize, v: E) -> Self {
        Self::alloc((0..len).map(|_| E::cell(v)).collect(), true)
    }

    /// Uninitialized allocation (the bare `cudaMalloc` path): the storage
    /// observably reads as zero, but under `FTK_SANITIZE=init` any device
    /// load of a cell that was never stored is reported. Use this for
    /// scratch buffers a kernel is supposed to fully overwrite before
    /// reading back.
    pub fn uninit(len: usize) -> Self {
        Self::alloc(Self::zeroed_cells(len), false)
    }

    /// Upload a host slice.
    pub fn from_slice(data: &[E]) -> Self {
        Self::alloc(data.iter().map(|&v| E::cell(v)).collect(), true)
    }

    /// Name this buffer in sanitizer reports. No-op when the buffer was
    /// allocated with no checker in scope.
    pub fn set_sanitizer_label(&self, label: &str) {
        if let Some(sh) = &self.shadow {
            sanitizer::set_label(sh, label);
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Plain load (no traffic charged — use [`GlobalBuffer::load_counted`]
    /// inside kernels, except for uncounted index traffic).
    #[inline]
    pub fn load(&self, idx: usize) -> E {
        if let Some(sh) = &self.shadow {
            if !sanitizer::check_load(sh, idx, 1) {
                return E::default(); // OOB reported and suppressed
            }
        }
        E::load_cell(&self.cells[idx])
    }

    /// Load charging `counters` for the transaction.
    #[inline]
    pub fn load_counted<C: EventSink + ?Sized>(&self, idx: usize, counters: &C) -> E {
        counters.add_loaded(std::mem::size_of::<E>() as u64);
        self.load(idx)
    }

    /// Plain store.
    #[inline]
    pub fn store(&self, idx: usize, v: E) {
        if let Some(sh) = &self.shadow {
            if !sanitizer::check_store(sh, idx, 1) {
                return; // OOB reported and dropped
            }
        }
        E::store_cell(&self.cells[idx], v);
    }

    /// Store charging `counters`.
    #[inline]
    pub fn store_counted<C: EventSink + ?Sized>(&self, idx: usize, v: E, counters: &C) {
        counters.add_stored(std::mem::size_of::<E>() as u64);
        self.store(idx, v);
    }

    /// Bulk load of a contiguous run into `out`, charging `counters` once
    /// for the whole run (one coalesced transaction per run, not one per
    /// element). Byte totals equal `out.len()` individual
    /// [`GlobalBuffer::load_counted`] calls.
    #[inline]
    pub fn load_run<C: EventSink + ?Sized>(&self, start: usize, out: &mut [E], counters: &C) {
        counters.add_loaded(std::mem::size_of_val::<[E]>(out) as u64);
        self.read_range(start, out);
    }

    /// Bulk store of a contiguous run from `vals`, charging `counters` once
    /// for the whole run. Byte totals equal `vals.len()` individual
    /// [`GlobalBuffer::store_counted`] calls.
    #[inline]
    pub fn store_run<C: EventSink + ?Sized>(&self, start: usize, vals: &[E], counters: &C) {
        counters.add_stored(std::mem::size_of_val::<[E]>(vals) as u64);
        self.write_range(start, vals);
    }

    /// Charge a contiguous run of `len` elements from `start` as
    /// [`GlobalBuffer::load_run`] does, and show the sanitizer the same
    /// load, without copying it anywhere.
    #[inline]
    pub fn charge_run<C: EventSink + ?Sized>(&self, start: usize, len: usize, counters: &C) {
        counters.add_loaded((len * std::mem::size_of::<E>()) as u64);
        if let Some(sh) = &self.shadow {
            sanitizer::check_load(sh, start, len);
        }
    }

    /// Download the whole buffer into a vector.
    pub fn to_vec(&self) -> Vec<E> {
        let mut out = vec![E::default(); self.len()];
        self.read_range(0, &mut out);
        out
    }

    /// Copy a contiguous range into `out` without counting (host access, or
    /// kernel reads that are deliberately uncounted — see the charging rules
    /// at each call site). The relaxed per-element atomic loads compile to
    /// plain loads on mainstream ISAs, so this is the cheap bulk path.
    pub fn read_range(&self, start: usize, out: &mut [E]) {
        if let Some(sh) = &self.shadow {
            if !sanitizer::check_load(sh, start, out.len()) {
                out.fill(E::default()); // OOB reported and suppressed
                return;
            }
        }
        let cells = &self.cells[start..start + out.len()];
        for (slot, cell) in out.iter_mut().zip(cells) {
            *slot = E::load_cell(cell);
        }
    }

    /// Overwrite a contiguous range from `vals` without counting.
    pub fn write_range(&self, start: usize, vals: &[E]) {
        if let Some(sh) = &self.shadow {
            if !sanitizer::check_store(sh, start, vals.len()) {
                return; // OOB reported and dropped
            }
        }
        let cells = &self.cells[start..start + vals.len()];
        for (&v, cell) in vals.iter().zip(cells) {
            E::store_cell(cell, v);
        }
    }

    /// Overwrite every element with `v` (host-side reset between iterations).
    pub fn fill(&self, v: E) {
        if let Some(sh) = &self.shadow {
            sanitizer::check_store(sh, 0, self.len());
        }
        for cell in self.cells.iter() {
            E::store_cell(cell, v);
        }
    }

    /// Flip bit `bit` (0 = least significant) of element `idx` in place —
    /// the fault-injection surface for campaigns targeting resident state.
    /// Deliberately bypasses the sanitizer: a bit flip does not *initialize*
    /// a cell (that is the whole point of initcheck) and is not a kernel
    /// access.
    pub fn corrupt_bit(&self, idx: usize, bit: u32) {
        assert!(
            (bit as usize) < 8 * std::mem::size_of::<E>(),
            "bit outside the element"
        );
        let cell = &self.cells[idx];
        E::store_cell(
            cell,
            E::from_raw_u64(E::load_cell(cell).to_raw_u64() ^ (1 << bit)),
        );
    }
}

/// Ask the host kernel to back the whole 2 MiB pages inside `cells` with
/// transparent huge pages, as device global memory is mapped. A fresh
/// 32 MB buffer then takes 16 page faults rather than 8192, and the
/// kernels' passes over it miss the TLB far less. Advisory: where the host
/// refuses, the pages stay 4 KiB and nothing else changes.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn advise_huge_pages<C>(cells: &[C]) {
    use std::ffi::{c_int, c_void};
    const HUGE_PAGE: usize = 2 << 20;
    const MADV_HUGEPAGE: c_int = 14;
    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    let base = cells.as_ptr().cast::<u8>().cast_mut();
    let bytes = std::mem::size_of_val(cells);
    let head = base.align_offset(HUGE_PAGE);
    let len = bytes.saturating_sub(head) / HUGE_PAGE * HUGE_PAGE;
    if len > 0 {
        // SAFETY: `head + len <= bytes`, so the range lies inside the
        // allocation behind `cells`. MADV_HUGEPAGE changes only how the
        // kernel backs the range, never its contents or validity, and a
        // failure is harmless, so the result is ignored.
        unsafe { madvise(base.add(head).cast(), len, MADV_HUGEPAGE) };
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn advise_huge_pages<C>(_cells: &[C]) {}

impl<T: Scalar> GlobalBuffer<T> {
    /// Upload a host matrix (row-major).
    pub fn from_matrix(m: &Matrix<T>) -> Self {
        Self::from_slice(m.as_slice())
    }

    /// Download as a row-major matrix of the given shape.
    pub fn to_matrix(&self, rows: usize, cols: usize) -> Matrix<T> {
        assert_eq!(
            rows * cols,
            self.len(),
            "matrix shape must cover the buffer"
        );
        Matrix::from_vec(rows, cols, self.to_vec()).expect("shape checked above")
    }
}

impl GlobalBuffer<u32> {
    /// Atomic `+1`, returning the previous value.
    pub fn atomic_inc<C: EventSink + ?Sized>(&self, idx: usize, counters: &C) -> u32 {
        counters.add_atomic(1);
        if let Some(sh) = &self.shadow {
            if !sanitizer::check_atomic(sh, idx) {
                return 0; // OOB reported and dropped
            }
        }
        self.cells[idx].fetch_add(1, Ordering::AcqRel)
    }
}

impl<E: Element> std::fmt::Debug for GlobalBuffer<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GlobalBuffer<{}>[len={}]",
            std::any::type_name::<E>(),
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Counters;

    #[test]
    fn roundtrip_f32_and_f64() {
        let b32 = GlobalBuffer::<f32>::from_slice(&[1.5, -2.25, 3.0]);
        assert_eq!(b32.to_vec(), vec![1.5, -2.25, 3.0]);
        let b64 = GlobalBuffer::<f64>::from_slice(&[1e-300, 2e300]);
        assert_eq!(b64.to_vec(), vec![1e-300, 2e300]);
    }

    #[test]
    fn zeroed_allocations_read_the_default_at_both_ends() {
        fn check<E: Element + PartialEq>() {
            // 1 << 20 elements of 4 or 8 bytes span whole 2 MiB pages.
            for n in [1, 3, 1 << 16, 1 << 20] {
                for b in [GlobalBuffer::<E>::zeros(n), GlobalBuffer::<E>::uninit(n)] {
                    assert_eq!(b.len(), n);
                    assert_eq!(b.load(0), E::default());
                    assert_eq!(b.load(n - 1), E::default());
                }
            }
            assert!(GlobalBuffer::<E>::zeros(0).is_empty());
        }
        check::<u8>();
        check::<u16>();
        check::<u32>();
        check::<f32>();
        check::<f64>();
    }

    #[test]
    fn cells_have_the_element_width() {
        assert_eq!(std::mem::size_of::<<f32 as Element>::Cell>(), 4);
        assert_eq!(std::mem::size_of::<<f64 as Element>::Cell>(), 8);
        assert_eq!(std::mem::size_of::<<u32 as Element>::Cell>(), 4);
        assert_eq!(std::mem::size_of::<<u16 as Element>::Cell>(), 2);
        assert_eq!(std::mem::size_of::<<u8 as Element>::Cell>(), 1);
    }

    /// ±0, the extreme subnormals, ±inf, and quiet and signalling NaNs
    /// with payloads survive every accessor bit for bit.
    fn special_bits_roundtrip<T: Scalar>(bits: &[T::Bits]) {
        let vals: Vec<T> = bits.iter().map(|&b| T::from_bits(b)).collect();
        let n = vals.len();
        let as_bits = |v: &[T]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let c = Counters::new();

        let b = GlobalBuffer::from_slice(&vals);
        assert_eq!(as_bits(&b.to_vec()), bits, "from_slice / to_vec");
        let loaded: Vec<T> = (0..n).map(|i| b.load(i)).collect();
        assert_eq!(as_bits(&loaded), bits, "load");

        let z = GlobalBuffer::<T>::zeros(n + 2);
        z.write_range(1, &vals);
        let mut out = vec![T::ONE; n];
        z.read_range(1, &mut out);
        assert_eq!(as_bits(&out), bits, "write_range / read_range");

        let r = GlobalBuffer::<T>::zeros(n);
        r.store_run(0, &vals, &c);
        r.load_run(0, &mut out, &c);
        assert_eq!(as_bits(&out), bits, "store_run / load_run");

        let s = GlobalBuffer::<T>::zeros(n);
        for (i, &v) in vals.iter().enumerate() {
            s.store(i, v);
        }
        assert_eq!(as_bits(&s.to_vec()), bits, "store");

        for &v in &vals {
            let f = GlobalBuffer::filled(3, v);
            assert!(
                f.to_vec().iter().all(|x| x.to_bits() == v.to_bits()),
                "filled"
            );
            f.fill(T::ONE);
            f.fill(v);
            assert!(
                f.to_vec().iter().all(|x| x.to_bits() == v.to_bits()),
                "fill"
            );
        }
    }

    #[test]
    fn special_f32_bits_roundtrip_through_every_accessor() {
        special_bits_roundtrip::<f32>(&[
            0x0000_0000, // +0
            0x8000_0000, // -0
            0x0000_0001, // smallest subnormal
            0x807F_FFFF, // largest negative subnormal
            0x7F80_0000, // +inf
            0xFF80_0000, // -inf
            0x7FC0_0000, // quiet NaN
            0xFFC1_2345, // quiet NaN, negative, with payload
            0x7F80_0001, // signalling NaN
            0x7FA5_A5A5, // signalling NaN with payload
            0x3FC0_0000, // 1.5
        ]);
    }

    #[test]
    fn special_f64_bits_roundtrip_through_every_accessor() {
        special_bits_roundtrip::<f64>(&[
            0x0000_0000_0000_0000,
            0x8000_0000_0000_0000,
            0x0000_0000_0000_0001,
            0x800F_FFFF_FFFF_FFFF,
            0x7FF0_0000_0000_0000,
            0xFFF0_0000_0000_0000,
            0x7FF8_0000_0000_0000,
            0xFFF8_0123_4567_89AB,
            0x7FF0_0000_0000_0001,
            0x7FF5_A5A5_A5A5_A5A5,
            0xC00C_0000_0000_0000, // -3.5
        ]);
    }

    #[test]
    fn counted_access_charges_traffic() {
        let c = Counters::new();
        let b = GlobalBuffer::<f64>::zeros(4);
        b.store_counted(0, 5.0, &c);
        let v = b.load_counted(0, &c);
        assert_eq!(v, 5.0);
        let s = c.snapshot();
        assert_eq!(s.bytes_stored, 8);
        assert_eq!(s.bytes_loaded, 8);
    }

    #[test]
    fn run_ops_charge_identically_to_element_ops() {
        // The bulk-transaction invariant: load_run/store_run must charge the
        // exact byte totals of the equivalent per-element counted accesses.
        let per_elem = Counters::new();
        let bulk = Counters::new();
        let src: Vec<f32> = (0..37).map(|i| i as f32 * 0.5 - 3.0).collect();
        let a = GlobalBuffer::<f32>::from_slice(&src);
        let b = GlobalBuffer::<f32>::from_slice(&src);

        let mut elems = vec![0.0f32; 21];
        for (i, slot) in elems.iter_mut().enumerate() {
            *slot = a.load_counted(5 + i, &per_elem);
        }
        for (i, &v) in elems.iter().enumerate() {
            a.store_counted(i, v * 2.0, &per_elem);
        }

        let mut run = vec![0.0f32; 21];
        b.load_run(5, &mut run, &bulk);
        assert_eq!(run, elems, "bulk load reads the same values");
        let doubled: Vec<f32> = run.iter().map(|v| v * 2.0).collect();
        b.store_run(0, &doubled, &bulk);

        assert_eq!(
            per_elem.snapshot(),
            bulk.snapshot(),
            "bulk path totals must equal the per-element path"
        );
        assert_eq!(a.to_vec(), b.to_vec(), "stored contents identical");
    }

    #[test]
    fn write_range_and_read_range_roundtrip() {
        let b = GlobalBuffer::<f64>::zeros(8);
        b.write_range(2, &[1.0, 2.0, 3.0]);
        let mut out = [0.0f64; 3];
        b.read_range(2, &mut out);
        assert_eq!(out, [1.0, 2.0, 3.0]);
        assert_eq!(b.load(1), 0.0);
        assert_eq!(b.load(5), 0.0);
    }

    #[test]
    fn index_buffer_range_roundtrip() {
        fn check<E: Element + From<u8> + PartialEq>() {
            let b = GlobalBuffer::<E>::zeros(6);
            b.write_range(1, &[E::from(7), E::from(8), E::from(9)]);
            let mut out = [E::from(1); 4];
            b.read_range(0, &mut out);
            assert_eq!(out, [E::from(0), E::from(7), E::from(8), E::from(9)]);
        }
        check::<u8>();
        check::<u16>();
        check::<u32>();
    }

    #[test]
    fn matrix_roundtrip() {
        let m = Matrix::<f32>::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        let b = GlobalBuffer::from_matrix(&m);
        assert_eq!(b.to_matrix(3, 4), m);
    }

    #[test]
    fn clone_aliases_the_same_device_memory() {
        let b = GlobalBuffer::<f64>::from_slice(&[1.0, 2.0, 3.0]);
        let alias = b.clone();
        b.store(1, 42.0);
        assert_eq!(alias.load(1), 42.0, "writes visible through both handles");
        alias.store(2, -1.0);
        assert_eq!(b.load(2), -1.0);
        assert_eq!(alias.len(), 3);
    }

    /// `n` distinct values of `E` spanning its whole width.
    fn lanes<E: Element>(n: usize) -> Vec<E> {
        let bits = 8 * std::mem::size_of::<E>() as u32;
        (0..n as u64)
            .map(|i| E::from_raw_u64(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - bits)))
            .collect()
    }

    #[test]
    fn packed_buffer_roundtrips_across_word_boundaries() {
        // An odd length that is not a whole number of 64-bit words, and a
        // mid-buffer range read.
        fn check<E: Element + PartialEq>() {
            let v = lanes::<E>(13);
            let b = GlobalBuffer::from_slice(&v);
            assert_eq!(b.to_vec(), v);
            let mut out = vec![E::default(); 6];
            b.read_range(3, &mut out);
            assert_eq!(out, v[3..9]);
        }
        check::<u8>();
        check::<u16>();
        check::<u32>();
    }

    #[test]
    fn packed_runs_charge_packed_byte_widths() {
        // Counted traffic is the element width: 1 byte per int8 code, 2 per
        // fp16 code, 4 per u32 — not the 4/8 of a float buffer.
        fn check<E: Element>(width: u64) {
            let c = Counters::new();
            let b = GlobalBuffer::<E>::zeros(20);
            let mut out = vec![E::default(); 9];
            b.load_run(2, &mut out, &c);
            b.store_run(11, &lanes::<E>(5), &c);
            let s = c.snapshot();
            assert_eq!((s.bytes_loaded, s.bytes_stored), (9 * width, 5 * width));
        }
        check::<u8>(1);
        check::<u16>(2);
        check::<u32>(4);
    }

    #[test]
    fn packed_stores_to_adjacent_lanes_do_not_clobber() {
        // Concurrent stores to neighboring elements must all survive.
        fn check<E: Element + From<u8> + PartialEq>() {
            let b = GlobalBuffer::<E>::zeros(8);
            std::thread::scope(|s| {
                for t in 0..8u8 {
                    let b = &b;
                    s.spawn(move || {
                        for _ in 0..500 {
                            b.store(t as usize, E::from(t + 1));
                        }
                    });
                }
            });
            let want: Vec<E> = (1..=8).map(E::from).collect();
            assert_eq!(b.to_vec(), want);
        }
        check::<u8>();
        check::<u16>();
        check::<u32>();
    }

    #[test]
    fn packed_corrupt_bit_flips_exactly_one_lane_bit() {
        fn check<E: Element + PartialEq>() {
            let top = 8 * std::mem::size_of::<E>() as u32 - 1;
            let v = lanes::<E>(3);
            let b = GlobalBuffer::from_slice(&v);
            b.corrupt_bit(1, top);
            let got = b.to_vec();
            assert_eq!((got[0], got[2]), (v[0], v[2]), "neighbors untouched");
            assert_eq!(got[1].to_raw_u64(), v[1].to_raw_u64() ^ (1 << top));
            b.corrupt_bit(1, top);
            assert_eq!(b.load(1), v[1], "second flip restores");
            // clone aliases the same device cells
            b.clone().corrupt_bit(0, 0);
            assert_eq!(b.load(0).to_raw_u64(), v[0].to_raw_u64() ^ 1);
        }
        check::<u8>();
        check::<u16>();
        check::<u32>();
    }

    #[test]
    fn charge_run_charges_what_load_run_does() {
        let buf = GlobalBuffer::<f64>::from_slice(&[1.5; 10]);
        let (copied, charged) = (Counters::new(), Counters::new());
        buf.load_run(2, &mut [0.0; 5], &copied);
        buf.charge_run(2, 5, &charged);
        assert_eq!(copied.snapshot(), charged.snapshot());
        assert_eq!(charged.snapshot().bytes_loaded, 40);
    }

    #[test]
    fn index_buffer_atomics() {
        fn check<E: Element + From<u8> + PartialEq>(b: GlobalBuffer<E>) {
            b.fill(E::from(9));
            assert_eq!(b.to_vec(), vec![E::from(9); 3]);
        }
        let c = Counters::new();
        let idx = GlobalBuffer::<u32>::zeros(3);
        assert_eq!(idx.atomic_inc(1, &c), 0);
        assert_eq!(idx.atomic_inc(1, &c), 1);
        assert_eq!(idx.load(1), 2);
        assert_eq!(c.snapshot().atomic_ops, 2);
        check(idx);
        check(GlobalBuffer::<u16>::zeros(3));
        check(GlobalBuffer::<u8>::zeros(3));
    }
}
