//! Simulated global (device) memory.
//!
//! [`GlobalBuffer`] stores every element as its raw bits in an atomic cell
//! of the element's own width ([`Scalar::Cell`]: 32 bits for `f32`, 64 for
//! `f64`), so that parallel threadblocks can load and store safely, as
//! plain CUDA global accesses do, and the host moves the bytes the traffic
//! counters charge. Loads and stores are relaxed atomics. There is no
//! float `atomicAdd`: its rounding depends on arrival order, so kernels
//! reduce per-block partials in block order instead (see [`crate::launch`]).
//! The read-modify-write atomics are integer ones:
//! [`GlobalIndexBuffer::atomic_inc`] and the order-invariant
//! [`crate::atomics::ArgminStore`].
//!
//! Traffic accounting is explicit: kernels charge a [`crate::counters::EventSink`]
//! (the launch's shared counters, or a worker-local sink inside kernels)
//! when they touch global memory, mirroring the transactions a profiler
//! would report.
//!
//! Two charging granularities exist:
//!
//! * **Per element** — [`GlobalBuffer::load_counted`] /
//!   [`GlobalBuffer::store_counted`], one sink charge per scalar. This is
//!   the uncoalesced access pattern (strided or data-dependent addressing).
//! * **Per run** — [`GlobalBuffer::load_run`] / [`GlobalBuffer::store_run`],
//!   which move a contiguous run of elements with one sink charge for the
//!   whole run, modeling the coalesced transactions a warp issues when
//!   consecutive threads touch consecutive addresses. The charged *byte*
//!   totals are identical to charging every element individually (u64 byte
//!   addition is exact), so counter-based structural tests and the
//!   serial-vs-parallel counter-identity invariant are agnostic to which
//!   path a kernel uses.

use crate::counters::EventSink;
use crate::matrix::Matrix;
use crate::sanitizer;
use crate::scalar::{Scalar, ScalarCell};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A device-global buffer of `T` with atomic element access.
///
/// Storage is shared: [`Clone`] is a device-pointer copy (both handles
/// alias the same memory), not a deep copy — exactly how passing a device
/// pointer to a second kernel behaves. `Arc<[T::Cell]>` is a fat pointer
/// straight to the element array, so element access costs the same as
/// through an owning `Vec`, and each cell is `size_of::<T>()` bytes.
///
/// When a [`crate::sanitizer`] checker is in scope at allocation time the
/// buffer carries shadow state and every access is checked; otherwise
/// `shadow` is `None` and the hooks cost one branch.
pub struct GlobalBuffer<T: Scalar> {
    cells: Arc<[T::Cell]>,
    len: usize,
    shadow: Option<Arc<sanitizer::BufShadow>>,
    _marker: PhantomData<T>,
}

impl<T: Scalar> Clone for GlobalBuffer<T> {
    /// Alias the same device memory (a device-pointer copy): writes through
    /// either handle are visible through both.
    fn clone(&self) -> Self {
        GlobalBuffer {
            cells: Arc::clone(&self.cells),
            len: self.len,
            shadow: self.shadow.clone(),
            _marker: PhantomData,
        }
    }
}

impl<T: Scalar> GlobalBuffer<T> {
    fn alloc(len: usize, v: T, pre_init: bool) -> Self {
        GlobalBuffer {
            cells: (0..len).map(|_| T::Cell::new(v)).collect(),
            len,
            shadow: sanitizer::alloc_shadow(len, pre_init),
            _marker: PhantomData,
        }
    }

    /// Zero-initialized buffer of `len` elements (the `cudaMemset` path —
    /// every cell is defined, so initcheck treats it as initialized).
    pub fn zeros(len: usize) -> Self {
        Self::alloc(len, T::ZERO, true)
    }

    /// Buffer filled with `v`.
    pub fn filled(len: usize, v: T) -> Self {
        Self::alloc(len, v, true)
    }

    /// Uninitialized allocation (the bare `cudaMalloc` path): the storage
    /// observably reads as zero, but under `FTK_SANITIZE=init` any device
    /// load of a cell that was never stored is reported. Use this for
    /// scratch buffers a kernel is supposed to fully overwrite before
    /// reading back.
    pub fn uninit(len: usize) -> Self {
        Self::alloc(len, T::ZERO, false)
    }

    /// Upload a host slice.
    pub fn from_slice(data: &[T]) -> Self {
        GlobalBuffer {
            cells: data.iter().map(|&v| T::Cell::new(v)).collect(),
            len: data.len(),
            shadow: sanitizer::alloc_shadow(data.len(), true),
            _marker: PhantomData,
        }
    }

    /// Name this buffer in sanitizer reports. No-op when the buffer was
    /// allocated with no checker in scope.
    pub fn set_sanitizer_label(&self, label: &str) {
        if let Some(sh) = &self.shadow {
            sanitizer::set_label(sh, label);
        }
    }

    /// Upload a host matrix (row-major).
    pub fn from_matrix(m: &Matrix<T>) -> Self {
        Self::from_slice(m.as_slice())
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Plain load (no traffic charged — use [`GlobalBuffer::load_counted`]
    /// inside kernels).
    #[inline]
    pub fn load(&self, idx: usize) -> T {
        if let Some(sh) = &self.shadow {
            if !sanitizer::check_load(sh, idx, 1) {
                return T::ZERO; // OOB reported and suppressed
            }
        }
        self.cells[idx].load()
    }

    /// Load charging `counters` for the transaction.
    #[inline]
    pub fn load_counted<C: EventSink + ?Sized>(&self, idx: usize, counters: &C) -> T {
        counters.add_loaded(std::mem::size_of::<T>() as u64);
        self.load(idx)
    }

    /// Plain store.
    #[inline]
    pub fn store(&self, idx: usize, v: T) {
        if let Some(sh) = &self.shadow {
            if !sanitizer::check_store(sh, idx, 1) {
                return; // OOB reported and dropped
            }
        }
        self.cells[idx].store(v);
    }

    /// Store charging `counters`.
    #[inline]
    pub fn store_counted<C: EventSink + ?Sized>(&self, idx: usize, v: T, counters: &C) {
        counters.add_stored(std::mem::size_of::<T>() as u64);
        self.store(idx, v);
    }

    /// Bulk load of a contiguous run into `out`, charging `counters` once
    /// for the whole run (one coalesced transaction per run, not one per
    /// element). Byte totals equal `out.len()` individual
    /// [`GlobalBuffer::load_counted`] calls.
    #[inline]
    pub fn load_run<C: EventSink + ?Sized>(&self, start: usize, out: &mut [T], counters: &C) {
        counters.add_loaded(std::mem::size_of_val::<[T]>(out) as u64);
        self.read_range(start, out);
    }

    /// Bulk store of a contiguous run from `vals`, charging `counters` once
    /// for the whole run. Byte totals equal `vals.len()` individual
    /// [`GlobalBuffer::store_counted`] calls.
    #[inline]
    pub fn store_run<C: EventSink + ?Sized>(&self, start: usize, vals: &[T], counters: &C) {
        counters.add_stored(std::mem::size_of_val::<[T]>(vals) as u64);
        self.write_range(start, vals);
    }

    /// Download a contiguous range into a vector.
    pub fn to_vec(&self) -> Vec<T> {
        (0..self.len).map(|i| self.load(i)).collect()
    }

    /// Download as a row-major matrix of the given shape.
    pub fn to_matrix(&self, rows: usize, cols: usize) -> Matrix<T> {
        assert_eq!(rows * cols, self.len, "matrix shape must cover the buffer");
        Matrix::from_vec(rows, cols, self.to_vec()).expect("shape checked above")
    }

    /// Copy a contiguous range into `out` without counting (host access, or
    /// kernel reads that are deliberately uncounted — see the charging rules
    /// at each call site). The relaxed per-element atomic loads compile to
    /// plain loads on mainstream ISAs, so this is the cheap bulk path.
    pub fn read_range(&self, start: usize, out: &mut [T]) {
        if let Some(sh) = &self.shadow {
            if !sanitizer::check_load(sh, start, out.len()) {
                out.fill(T::ZERO); // OOB reported and suppressed
                return;
            }
        }
        let cells = &self.cells[start..start + out.len()];
        for (slot, cell) in out.iter_mut().zip(cells) {
            *slot = cell.load();
        }
    }

    /// Overwrite a contiguous range from `vals` without counting.
    pub fn write_range(&self, start: usize, vals: &[T]) {
        if let Some(sh) = &self.shadow {
            if !sanitizer::check_store(sh, start, vals.len()) {
                return; // OOB reported and dropped
            }
        }
        let cells = &self.cells[start..start + vals.len()];
        for (&v, cell) in vals.iter().zip(cells) {
            cell.store(v);
        }
    }

    /// Overwrite every element with `v` (host-side reset between iterations).
    pub fn fill(&self, v: T) {
        if let Some(sh) = &self.shadow {
            sanitizer::check_store(sh, 0, self.len);
        }
        for cell in self.cells.iter() {
            cell.store(v);
        }
    }
}

impl<T: Scalar> std::fmt::Debug for GlobalBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GlobalBuffer<{}>[len={}]",
            std::any::type_name::<T>(),
            self.len
        )
    }
}

/// An integer lane type storable packed inside the 64-bit device words of a
/// [`GlobalPackedBuffer`]. Implemented for `u16` (fp16 bit patterns) and
/// `u8` (int8 quantization codes).
pub trait PackedLane: Copy + Eq + std::fmt::Debug + Default + Send + Sync + 'static {
    /// Lanes per 64-bit device word (`64 / bits`).
    const LANES: usize;
    /// Bytes per lane — what counted traffic charges per element.
    const BYTES: usize;
    /// Widen the lane's bits into a `u64` (value in the low bits).
    fn to_lane_u64(self) -> u64;
    /// Narrow the low bits of a `u64` back into a lane.
    fn from_lane_u64(bits: u64) -> Self;
}

impl PackedLane for u16 {
    const LANES: usize = 4;
    const BYTES: usize = 2;
    #[inline]
    fn to_lane_u64(self) -> u64 {
        self as u64
    }
    #[inline]
    fn from_lane_u64(bits: u64) -> Self {
        bits as u16
    }
}

impl PackedLane for u8 {
    const LANES: usize = 8;
    const BYTES: usize = 1;
    #[inline]
    fn to_lane_u64(self) -> u64 {
        self as u64
    }
    #[inline]
    fn from_lane_u64(bits: u64) -> Self {
        bits as u8
    }
}

/// A device-global buffer of sub-word integer lanes (`u16` / `u8`) packed
/// into atomic 64-bit words — the storage for quantized resident state
/// (fp16 bit patterns, int8 codes).
///
/// Counted traffic charges the *packed* byte width (`len ×
/// [`PackedLane::BYTES`]`), which is exactly where a quantized table's
/// 2–4x memory-traffic advantage over an fp32 buffer shows up in the
/// counters. Like [`GlobalBuffer`], [`Clone`] is a device-pointer copy and
/// lane stores are atomic read-modify-writes on the containing word, so
/// concurrent stores to adjacent lanes never clobber each other.
pub struct GlobalPackedBuffer<U: PackedLane> {
    words: Arc<[AtomicU64]>,
    len: usize,
    shadow: Option<Arc<sanitizer::BufShadow>>,
    _marker: PhantomData<U>,
}

impl<U: PackedLane> Clone for GlobalPackedBuffer<U> {
    /// Alias the same device memory (a device-pointer copy).
    fn clone(&self) -> Self {
        GlobalPackedBuffer {
            words: Arc::clone(&self.words),
            len: self.len,
            shadow: self.shadow.clone(),
            _marker: PhantomData,
        }
    }
}

impl<U: PackedLane> GlobalPackedBuffer<U> {
    const LANE_BITS: u32 = (64 / U::LANES) as u32;
    const LANE_MASK: u64 = u64::MAX >> (64 - Self::LANE_BITS);

    /// Zero-initialized buffer of `len` lanes.
    pub fn zeros(len: usize) -> Self {
        GlobalPackedBuffer {
            words: (0..len.div_ceil(U::LANES))
                .map(|_| AtomicU64::new(0))
                .collect(),
            len,
            shadow: sanitizer::alloc_shadow(len, true),
            _marker: PhantomData,
        }
    }

    /// Name this buffer in sanitizer reports. No-op when the buffer was
    /// allocated with no checker in scope.
    pub fn set_sanitizer_label(&self, label: &str) {
        if let Some(sh) = &self.shadow {
            sanitizer::set_label(sh, label);
        }
    }

    /// Upload a host slice of lanes.
    pub fn from_slice(data: &[U]) -> Self {
        let buf = Self::zeros(data.len());
        buf.write_range(0, data);
        buf
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn split(idx: usize) -> (usize, u32) {
        (idx / U::LANES, (idx % U::LANES) as u32 * Self::LANE_BITS)
    }

    /// Lane load without sanitizer interception (internal: the fault
    /// injector and the checked paths share it).
    #[inline]
    fn load_raw(&self, idx: usize) -> U {
        assert!(
            idx < self.len,
            "lane index {idx} out of bounds {}",
            self.len
        );
        let (w, shift) = Self::split(idx);
        U::from_lane_u64((self.words[w].load(Ordering::Relaxed) >> shift) & Self::LANE_MASK)
    }

    /// Plain lane load (no traffic charged).
    #[inline]
    pub fn load(&self, idx: usize) -> U {
        if let Some(sh) = &self.shadow {
            if !sanitizer::check_load(sh, idx, 1) {
                return U::default(); // OOB reported and suppressed
            }
        }
        self.load_raw(idx)
    }

    /// Plain lane store: an atomic read-modify-write of the containing
    /// word, so neighbors in the same word survive concurrent stores.
    #[inline]
    pub fn store(&self, idx: usize, v: U) {
        if let Some(sh) = &self.shadow {
            if !sanitizer::check_store(sh, idx, 1) {
                return; // OOB reported and dropped
            }
        }
        self.store_raw(idx, v);
    }

    #[inline]
    fn store_raw(&self, idx: usize, v: U) {
        assert!(
            idx < self.len,
            "lane index {idx} out of bounds {}",
            self.len
        );
        let (w, shift) = Self::split(idx);
        let mask = Self::LANE_MASK << shift;
        let bits = (v.to_lane_u64() << shift) & mask;
        let cell = &self.words[w];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let new = (cur & !mask) | bits;
            match cell.compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Bulk load of a contiguous lane run into `out`, charging `counters`
    /// once for the whole run at the packed byte width (`out.len() ×
    /// [`PackedLane::BYTES`]` bytes — the quantized table's traffic
    /// advantage over an fp32 buffer).
    #[inline]
    pub fn load_run<C: EventSink + ?Sized>(&self, start: usize, out: &mut [U], counters: &C) {
        counters.add_loaded((out.len() * U::BYTES) as u64);
        self.read_range(start, out);
    }

    /// Bulk store of a contiguous lane run from `vals`, charging `counters`
    /// once for the whole run at the packed byte width.
    #[inline]
    pub fn store_run<C: EventSink + ?Sized>(&self, start: usize, vals: &[U], counters: &C) {
        counters.add_stored((vals.len() * U::BYTES) as u64);
        self.write_range(start, vals);
    }

    /// Copy a contiguous lane range into `out` without counting.
    pub fn read_range(&self, start: usize, out: &mut [U]) {
        if let Some(sh) = &self.shadow {
            if !sanitizer::check_load(sh, start, out.len()) {
                out.fill(U::default()); // OOB reported and suppressed
                return;
            }
        }
        assert!(start + out.len() <= self.len, "lane range out of bounds");
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.load_raw(start + i);
        }
    }

    /// Overwrite a contiguous lane range from `vals` without counting.
    pub fn write_range(&self, start: usize, vals: &[U]) {
        if let Some(sh) = &self.shadow {
            if !sanitizer::check_store(sh, start, vals.len()) {
                return; // OOB reported and dropped
            }
        }
        assert!(start + vals.len() <= self.len, "lane range out of bounds");
        for (i, &v) in vals.iter().enumerate() {
            self.store_raw(start + i, v);
        }
    }

    /// Download every lane into a vector.
    pub fn to_vec(&self) -> Vec<U> {
        (0..self.len).map(|i| self.load(i)).collect()
    }

    /// Flip one bit of one lane in place — the fault-injection surface for
    /// campaigns targeting quantized resident state. Deliberately bypasses
    /// the sanitizer: a bit flip does not *initialize* a cell (that is the
    /// whole point of initcheck) and is not a kernel access.
    pub fn corrupt_bit(&self, idx: usize, bit: u32) {
        assert!((bit as usize) < U::BYTES * 8, "bit outside the lane");
        let cur = self.load_raw(idx).to_lane_u64();
        self.store_raw(idx, U::from_lane_u64(cur ^ (1u64 << bit)));
    }

    /// The raw packed words (for checksumming resident state).
    pub fn raw_words(&self) -> Vec<u64> {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed))
            .collect()
    }
}

impl<U: PackedLane> std::fmt::Debug for GlobalPackedBuffer<U> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GlobalPackedBuffer<{}>[len={}]",
            std::any::type_name::<U>(),
            self.len
        )
    }
}

/// A global buffer of `u32` indices (assignment lists, counts) with atomic
/// increment support.
#[derive(Debug)]
pub struct GlobalIndexBuffer {
    data: Vec<std::sync::atomic::AtomicU32>,
    shadow: Option<Arc<sanitizer::BufShadow>>,
}

impl GlobalIndexBuffer {
    /// Zero-initialized index buffer.
    pub fn zeros(len: usize) -> Self {
        let mut data = Vec::with_capacity(len);
        data.resize_with(len, || std::sync::atomic::AtomicU32::new(0));
        GlobalIndexBuffer {
            data,
            shadow: sanitizer::alloc_shadow(len, true),
        }
    }

    /// Uninitialized index allocation (reads as zero; under
    /// `FTK_SANITIZE=init` loads of never-stored cells are reported). See
    /// [`GlobalBuffer::uninit`].
    pub fn uninit(len: usize) -> Self {
        let mut data = Vec::with_capacity(len);
        data.resize_with(len, || std::sync::atomic::AtomicU32::new(0));
        GlobalIndexBuffer {
            data,
            shadow: sanitizer::alloc_shadow(len, false),
        }
    }

    /// Name this buffer in sanitizer reports. No-op when the buffer was
    /// allocated with no checker in scope.
    pub fn set_sanitizer_label(&self, label: &str) {
        if let Some(sh) = &self.shadow {
            sanitizer::set_label(sh, label);
        }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn load(&self, idx: usize) -> u32 {
        if let Some(sh) = &self.shadow {
            if !sanitizer::check_load(sh, idx, 1) {
                return 0; // OOB reported and suppressed
            }
        }
        self.data[idx].load(Ordering::Relaxed)
    }

    #[inline]
    pub fn store(&self, idx: usize, v: u32) {
        if let Some(sh) = &self.shadow {
            if !sanitizer::check_store(sh, idx, 1) {
                return; // OOB reported and dropped
            }
        }
        self.data[idx].store(v, Ordering::Relaxed);
    }

    /// Atomic `+1`, returning the previous value.
    pub fn atomic_inc<C: EventSink + ?Sized>(&self, idx: usize, counters: &C) -> u32 {
        counters.add_atomic(1);
        if let Some(sh) = &self.shadow {
            if !sanitizer::check_atomic(sh, idx) {
                return 0; // OOB reported and dropped
            }
        }
        self.data[idx].fetch_add(1, Ordering::AcqRel)
    }

    /// Copy a contiguous range into `out` (bulk companion of
    /// [`GlobalIndexBuffer::load`]; index traffic is not byte-counted,
    /// matching the per-element accessors).
    pub fn read_range(&self, start: usize, out: &mut [u32]) {
        if let Some(sh) = &self.shadow {
            if !sanitizer::check_load(sh, start, out.len()) {
                out.fill(0); // OOB reported and suppressed
                return;
            }
        }
        let cells = &self.data[start..start + out.len()];
        for (slot, cell) in out.iter_mut().zip(cells) {
            *slot = cell.load(Ordering::Relaxed);
        }
    }

    /// Overwrite a contiguous range from `vals` (bulk companion of
    /// [`GlobalIndexBuffer::store`]).
    pub fn write_range(&self, start: usize, vals: &[u32]) {
        if let Some(sh) = &self.shadow {
            if !sanitizer::check_store(sh, start, vals.len()) {
                return; // OOB reported and dropped
            }
        }
        let cells = &self.data[start..start + vals.len()];
        for (&v, cell) in vals.iter().zip(cells) {
            cell.store(v, Ordering::Relaxed);
        }
    }

    pub fn to_vec(&self) -> Vec<u32> {
        if let Some(sh) = &self.shadow {
            sanitizer::check_load(sh, 0, self.data.len());
        }
        self.data
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect()
    }

    pub fn fill(&self, v: u32) {
        if let Some(sh) = &self.shadow {
            sanitizer::check_store(sh, 0, self.data.len());
        }
        for cell in &self.data {
            cell.store(v, Ordering::Relaxed);
        }
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
    fn cells_have_the_element_width() {
        assert_eq!(std::mem::size_of::<<f32 as Scalar>::Cell>(), 4);
        assert_eq!(std::mem::size_of::<<f64 as Scalar>::Cell>(), 8);
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
        let idx = GlobalIndexBuffer::zeros(6);
        idx.write_range(1, &[7, 8, 9]);
        let mut out = [0u32; 4];
        idx.read_range(0, &mut out);
        assert_eq!(out, [0, 7, 8, 9]);
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

    #[test]
    fn packed_buffer_roundtrips_across_word_boundaries() {
        // 11 u16 lanes span three 64-bit words; 13 u8 lanes span two.
        let v16: Vec<u16> = (0..11).map(|i| (i * 4093 + 17) as u16).collect();
        let b16 = GlobalPackedBuffer::<u16>::from_slice(&v16);
        assert_eq!(b16.to_vec(), v16);
        let v8: Vec<u8> = (0..13).map(|i| (i * 37 + 5) as u8).collect();
        let b8 = GlobalPackedBuffer::<u8>::from_slice(&v8);
        assert_eq!(b8.to_vec(), v8);
        // mid-buffer range read crossing a word boundary
        let mut out = [0u16; 6];
        b16.read_range(3, &mut out);
        assert_eq!(out, v16[3..9]);
    }

    #[test]
    fn packed_runs_charge_packed_byte_widths() {
        // The whole point of the packed views: counted traffic is 2 bytes
        // per u16 lane and 1 byte per u8 lane, not the 4/8 of a fp buffer.
        let c = Counters::new();
        let b16 = GlobalPackedBuffer::<u16>::zeros(10);
        let mut out16 = [0u16; 7];
        b16.load_run(1, &mut out16, &c);
        assert_eq!(c.snapshot().bytes_loaded, 7 * 2);
        b16.store_run(0, &[1, 2, 3], &c);
        assert_eq!(c.snapshot().bytes_stored, 3 * 2);

        let c8 = Counters::new();
        let b8 = GlobalPackedBuffer::<u8>::zeros(20);
        let mut out8 = [0u8; 9];
        b8.load_run(2, &mut out8, &c8);
        b8.store_run(11, &[7; 5], &c8);
        let s = c8.snapshot();
        assert_eq!((s.bytes_loaded, s.bytes_stored), (9, 5));
    }

    #[test]
    fn packed_stores_to_adjacent_lanes_do_not_clobber() {
        // Lanes share a word: concurrent stores must RMW, not overwrite.
        let b = GlobalPackedBuffer::<u8>::zeros(8);
        std::thread::scope(|s| {
            for t in 0..8usize {
                let b = &b;
                s.spawn(move || {
                    for _ in 0..500 {
                        b.store(t, (t + 1) as u8);
                    }
                });
            }
        });
        assert_eq!(b.to_vec(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn packed_corrupt_bit_flips_exactly_one_lane_bit() {
        let b = GlobalPackedBuffer::<u16>::from_slice(&[0x0f0f, 0xffff, 0x0000]);
        b.corrupt_bit(1, 15);
        assert_eq!(b.to_vec(), vec![0x0f0f, 0x7fff, 0x0000]);
        b.corrupt_bit(1, 15);
        assert_eq!(b.load(1), 0xffff, "second flip restores");
        // clone aliases the same device words
        let alias = b.clone();
        alias.corrupt_bit(0, 0);
        assert_eq!(b.load(0), 0x0f0e);
        assert_eq!(b.raw_words().len(), 1);
    }

    #[test]
    fn index_buffer_atomics() {
        let c = Counters::new();
        let idx = GlobalIndexBuffer::zeros(3);
        assert_eq!(idx.atomic_inc(1, &c), 0);
        assert_eq!(idx.atomic_inc(1, &c), 1);
        assert_eq!(idx.load(1), 2);
        idx.fill(9);
        assert_eq!(idx.to_vec(), vec![9, 9, 9]);
    }
}
