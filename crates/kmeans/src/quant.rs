//! Quantized resident centroid tables for the serving path.
//!
//! A fitted model's predict traffic is dominated by the centroid stream,
//! so the resident `k × dim` table is quantized once — fp16 bit patterns
//! or symmetric per-centroid int8 codes, held in a `GlobalBuffer<u16>` or
//! `GlobalBuffer<u8>` at 2 or 1 bytes per code — and every derived
//! quantity the fused predict kernel needs is cached alongside it:
//! dequantized centroid norms `‖ĉ_j‖²`, per-centroid int8 scales, the
//! exact per-centroid quantization displacements `e_j = ‖c_j − ĉ_j‖`
//! feeding the [`QuantMargin`] acceptance bound, and a content digest.
//! Nothing is re-derived per call. Counted runs over the codes charge the
//! code width (the charging rules, including that index traffic is not
//! byte-counted, are in `gpu_sim::memory`).
//!
//! The digest is the norm/checksum guard for this resident state: a
//! bit flip anywhere in the codes, scales or cached norms changes the
//! FNV-1a digest, so [`QuantizedCentroids::verify`] catches it at predict
//! entry and the caller rebuilds the table from the fp centroids (which
//! carry their own protection) — flips in quantized state are detected,
//! never silent.

use abft::QuantMargin;
use gpu_sim::{Counters, Element, EventSink, GlobalBuffer, Scalar};
use parking_lot::Mutex;
use std::sync::Arc;

/// Convert an `f32` to IEEE-754 binary16 bits with round-to-nearest-even.
///
/// Finite values beyond the f16 range *saturate* to ±65504 (the largest
/// finite f16) instead of overflowing to infinity: a saturated centroid
/// row keeps its distances finite and its exact displacement `e_j`
/// simply grows, so the margin policy routes affected samples to the
/// exact fallback rather than poisoning every comparison. `±∞` and NaN
/// pass through as `±∞` / NaN.
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;
    if exp == 0xff {
        // propagate inf / NaN
        return if man != 0 {
            sign | 0x7e00
        } else {
            sign | 0x7c00
        };
    }
    let e = exp - 127 + 15; // biased f16 exponent
    if e >= 31 {
        return sign | 0x7bff; // finite overflow saturates to ±65504
    }
    if e <= 0 {
        // subnormal (or zero) result: magnitude = round(m24 · 2^(e2+1)) · 2^-24
        if e < -10 {
            return sign; // underflows to ±0 (RNE: below half the smallest subnormal)
        }
        let m24 = man | 0x0080_0000;
        let shift = (1 - e) as u32 + 13;
        let kept = m24 >> shift;
        let rest = m24 & ((1 << shift) - 1);
        let half = 1u32 << (shift - 1);
        let round_up = rest > half || (rest == half && (kept & 1) == 1);
        return sign | (kept + round_up as u32) as u16;
    }
    let kept = man >> 13;
    let rest = man & 0x1fff;
    let round_up = rest > 0x1000 || (rest == 0x1000 && (kept & 1) == 1);
    let h = ((e as u32) << 10 | kept) + round_up as u32;
    if h >= 0x7c00 {
        sign | 0x7bff // rounding crossed into the infinity encoding: saturate
    } else {
        sign | h as u16
    }
}

/// Convert IEEE-754 binary16 bits back to `f32` (exact — every f16 value
/// is representable in f32).
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let man = (h & 0x03ff) as u32;
    match exp {
        0 => {
            // ±0 and subnormals: magnitude = man · 2^-24
            let mag = man as f32 * f32::from_bits(0x3380_0000);
            if sign != 0 {
                -mag
            } else {
                mag
            }
        }
        31 => {
            if man != 0 {
                f32::NAN
            } else if sign != 0 {
                f32::NEG_INFINITY
            } else {
                f32::INFINITY
            }
        }
        _ => f32::from_bits(sign | ((exp + 112) << 23) | (man << 13)),
    }
}

/// FNV-1a over a stream of 64-bit words, one xor-multiply-xorshift per
/// word — the content digest guarding quantized resident state. For a
/// fixed state each step is a bijection of the word (xor, a multiply by an
/// odd prime mod 2^64, then `h ^= h >> 32`), and for a fixed word a
/// bijection of the state, so two streams of equal length that differ in
/// exactly one word always digest differently. The xorshift feeds high
/// bits back down: a multiply alone only carries upward, so a bit-63 flip
/// would pass through it unchanged and a second bit-63 flip in a later word
/// (negating two floats) would cancel it.
pub fn fnv1a64(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(FNV1A64_BASIS, fnv1a64_step)
}

/// The state [`fnv1a64`] starts from.
const FNV1A64_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// One [`fnv1a64`] step: fold `word` into the digest `state`.
fn fnv1a64_step(state: u64, word: u64) -> u64 {
    let h = (state ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    h ^ (h >> 32)
}

/// Which reduced-precision storage format a table uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuantKind {
    /// IEEE binary16 bit patterns (2 bytes/element, ~2^-11 relative error).
    Fp16,
    /// Symmetric per-centroid int8 codes (1 byte/element, error ≤ scale/2).
    Int8,
}

impl QuantKind {
    /// Short lowercase token (CSV/table label).
    pub fn label(self) -> &'static str {
        match self {
            QuantKind::Fp16 => "fp16",
            QuantKind::Int8 => "int8",
        }
    }
}

/// The code storage of a quantized table.
#[derive(Debug, Clone)]
pub enum QuantCodes {
    /// fp16 bit patterns, 2 bytes per code.
    Fp16(GlobalBuffer<u16>),
    /// int8 two's-complement codes, 1 byte per code.
    Int8(GlobalBuffer<u8>),
}

/// A quantized resident centroid table plus every cached derived quantity
/// the fused predict kernel reads — built once, re-derived never.
#[derive(Debug, Clone)]
pub struct QuantizedCentroids<T: Scalar> {
    /// Storage format.
    pub kind: QuantKind,
    /// Centroid count.
    pub k: usize,
    /// Feature dimension.
    pub dim: usize,
    /// Quantization codes, row-major `k × dim`.
    pub codes: QuantCodes,
    /// Per-centroid int8 dequantization scales (filled with `1` for fp16 —
    /// uniform layout keeps the kernel branch-free over rows).
    pub scales: GlobalBuffer<T>,
    /// Cached dequantized centroid norms `‖ĉ_j‖²`.
    pub norms: GlobalBuffer<T>,
    /// Exact per-centroid quantization displacement `e_j = ‖c_j − ĉ_j‖`
    /// (host-resident policy metadata, computed in f64 at build).
    pub err_norms: Vec<f64>,
    /// `max_j ‖ĉ_j‖²` — the cancellation magnitude term of the margin.
    pub max_norm_sq: f64,
    /// The acceptance bound for this table.
    pub margin: QuantMargin,
    digest: u64,
}

impl<T: Scalar> QuantizedCentroids<T> {
    /// Quantize the resident fp centroid table (`k × dim`, row-major in
    /// `centroids`). Charges the one-time read of the fp table to
    /// `counters`; everything derived here is cached in the result.
    pub fn build(centroids: &GlobalBuffer<T>, k: usize, dim: usize, kind: QuantKind) -> Self {
        assert_eq!(centroids.len(), k * dim, "table shape mismatch");
        let mut row = vec![T::ZERO; dim];
        let mut scales = vec![T::ONE; k];
        let mut norms = vec![T::ZERO; k];
        let mut err_norms = vec![0.0f64; k];
        let mut lanes16 = Vec::new();
        let mut lanes8 = Vec::new();
        if matches!(kind, QuantKind::Fp16) {
            lanes16.reserve(k * dim);
        } else {
            lanes8.reserve(k * dim);
        }
        for j in 0..k {
            centroids.read_range(j * dim, &mut row);
            let scale_t = match kind {
                QuantKind::Fp16 => T::ONE,
                QuantKind::Int8 => {
                    let amax = row.iter().fold(0.0f64, |m, v| m.max(v.to_f64().abs()));
                    if amax == 0.0 || !amax.is_finite() {
                        T::ONE
                    } else {
                        T::from_f64(amax / 127.0)
                    }
                }
            };
            scales[j] = scale_t;
            let mut norm = T::ZERO;
            let mut err_sq = 0.0f64;
            for &v in row.iter() {
                let deq = match kind {
                    QuantKind::Fp16 => {
                        let code = f32_to_f16_bits(v.to_f64() as f32);
                        lanes16.push(code);
                        dequant_fp16::<T>(code)
                    }
                    QuantKind::Int8 => {
                        let s = scale_t.to_f64();
                        let q = (v.to_f64() / s).round().clamp(-127.0, 127.0);
                        let code = q as i8 as u8;
                        lanes8.push(code);
                        dequant_int8::<T>(code, scale_t)
                    }
                };
                norm += deq * deq;
                let d = v.to_f64() - deq.to_f64();
                err_sq += d * d;
            }
            norms[j] = norm;
            err_norms[j] = err_sq.sqrt();
        }
        let codes = match kind {
            QuantKind::Fp16 => QuantCodes::Fp16(GlobalBuffer::from_slice(&lanes16)),
            QuantKind::Int8 => QuantCodes::Int8(GlobalBuffer::from_slice(&lanes8)),
        };
        match &codes {
            QuantCodes::Fp16(b) => b.set_sanitizer_label("quant.codes.fp16"),
            QuantCodes::Int8(b) => b.set_sanitizer_label("quant.codes.int8"),
        }
        let err_norm_max = err_norms.iter().fold(0.0f64, |m, &e| m.max(e));
        let max_norm_sq = norms.iter().fold(0.0f64, |m, n| m.max(n.to_f64()));
        let mut table = QuantizedCentroids {
            kind,
            k,
            dim,
            codes,
            scales: {
                let b = GlobalBuffer::from_slice(&scales);
                b.set_sanitizer_label("quant.scales");
                b
            },
            norms: {
                let b = GlobalBuffer::from_slice(&norms);
                b.set_sanitizer_label("quant.norms");
                b
            },
            err_norms,
            max_norm_sq,
            margin: QuantMargin::new(err_norm_max, T::PRECISION, dim),
            digest: 0,
        };
        table.digest = table.compute_digest();
        table
    }

    /// Bytes of the code table — the resident state the format
    /// exists to shrink (2 bytes/element fp16, 1 byte/element int8, vs 4/8
    /// for the fp table).
    pub fn code_bytes(&self) -> usize {
        self.k
            * self.dim
            * match self.kind {
                QuantKind::Fp16 => 2,
                QuantKind::Int8 => 1,
            }
    }

    fn compute_digest(&self) -> u64 {
        let words = match &self.codes {
            QuantCodes::Fp16(b) => packed_words(&b.to_vec()),
            QuantCodes::Int8(b) => packed_words(&b.to_vec()),
        };
        let stream = [self.kind as u64, self.k as u64, self.dim as u64]
            .into_iter()
            .chain(words)
            .chain(self.scales.to_vec().into_iter().map(|v| v.to_raw_u64()))
            .chain(self.norms.to_vec().into_iter().map(|v| v.to_raw_u64()))
            .chain(self.err_norms.iter().map(|e| e.to_bits()));
        fnv1a64(stream)
    }

    /// The checksum guard: true when codes, scales, cached norms and
    /// displacement metadata still match the digest taken at build. Run at
    /// predict entry; a mismatch means the quantized resident state was
    /// corrupted and must be rebuilt from the fp centroids.
    pub fn verify(&self) -> bool {
        self.compute_digest() == self.digest
    }

    /// Stage the whole table for a threadblock: bulk-load the codes
    /// (charged at the code width), the scale and norm vectors, and
    /// dequantize into `cents` (`k × dim`, row-major) with `qnorms`
    /// receiving the cached `‖ĉ_j‖²`. The dequantized values live in the
    /// block's registers/scratch — the fp32 accumulation operands.
    pub fn stage_dequantized<C: EventSink + ?Sized>(
        &self,
        cents: &mut [T],
        qnorms: &mut [T],
        scales: &mut [T],
        counters: &C,
    ) {
        assert_eq!(cents.len(), self.k * self.dim);
        assert_eq!(qnorms.len(), self.k);
        assert_eq!(scales.len(), self.k);
        self.scales.load_run(0, scales, counters);
        self.norms.load_run(0, qnorms, counters);
        match &self.codes {
            QuantCodes::Fp16(codes) => {
                let mut lanes = vec![0u16; self.dim];
                for j in 0..self.k {
                    codes.load_run(j * self.dim, &mut lanes, counters);
                    for (dst, &code) in cents[j * self.dim..(j + 1) * self.dim]
                        .iter_mut()
                        .zip(lanes.iter())
                    {
                        *dst = dequant_fp16::<T>(code);
                    }
                }
            }
            QuantCodes::Int8(codes) => {
                let mut lanes = vec![0u8; self.dim];
                for j in 0..self.k {
                    codes.load_run(j * self.dim, &mut lanes, counters);
                    let s = scales[j];
                    for (dst, &code) in cents[j * self.dim..(j + 1) * self.dim]
                        .iter_mut()
                        .zip(lanes.iter())
                    {
                        *dst = dequant_int8::<T>(code, s);
                    }
                }
            }
        }
    }

    /// Flip one bit of one code lane — the campaign's fault-injection
    /// surface for quantized resident state.
    pub fn corrupt_code_bit(&self, idx: usize, bit: u32) {
        match &self.codes {
            QuantCodes::Fp16(b) => b.corrupt_bit(idx, bit),
            QuantCodes::Int8(b) => b.corrupt_bit(idx, bit),
        }
    }
}

/// Pack code lanes little-endian into 64-bit words, as the digest hashes
/// them: lane `i` of a word sits at bit `i · width`, and the last word is
/// zero-padded. Four fp16 or eight int8 codes make one word.
fn packed_words<E: Element>(lanes: &[E]) -> Vec<u64> {
    let width = 8 * std::mem::size_of::<E>();
    lanes
        .chunks(64 / width)
        .map(|w| (0..w.len()).fold(0, |acc, i| acc | w[i].to_raw_u64() << (i * width)))
        .collect()
}

/// Dequantize one fp16 code into the accumulation type.
#[inline]
pub fn dequant_fp16<T: Scalar>(code: u16) -> T {
    T::from_f64(f16_bits_to_f32(code) as f64)
}

/// Dequantize one symmetric int8 code with its centroid's scale.
#[inline]
pub fn dequant_int8<T: Scalar>(code: u8, scale: T) -> T {
    T::from_f64(code as i8 as f64) * scale
}

/// Lazily-built per-model cache of quantized tables, shared between a
/// model's resident [`crate::DeviceData`] and any per-call views of it
/// (the cache rides an `Arc`, so a device-pointer view shares the same
/// tables). One slot per [`QuantKind`]; [`QuantCache::invalidate`] empties
/// both when the centroids are replaced.
#[derive(Debug, Default)]
pub struct QuantCache<T: Scalar> {
    slots: Mutex<[Option<Arc<QuantizedCentroids<T>>>; 2]>,
}

impl<T: Scalar> QuantCache<T> {
    fn slot(kind: QuantKind) -> usize {
        match kind {
            QuantKind::Fp16 => 0,
            QuantKind::Int8 => 1,
        }
    }

    /// The table for `kind`, building it (once) from the fp centroids on
    /// first use. The one-time fp-table read is charged to `counters`.
    pub fn get_or_build(
        &self,
        kind: QuantKind,
        centroids: &GlobalBuffer<T>,
        k: usize,
        dim: usize,
        counters: &Counters,
    ) -> Arc<QuantizedCentroids<T>> {
        let mut slots = self.slots.lock();
        let slot = &mut slots[Self::slot(kind)];
        if let Some(table) = slot {
            return Arc::clone(table);
        }
        let table = crate::phase::traced(
            trace::phases::QUANT_BUILD,
            Self::slot(kind) as u64,
            counters,
            || {
                counters.add_loaded((k * dim * std::mem::size_of::<T>()) as u64);
                Arc::new(QuantizedCentroids::build(centroids, k, dim, kind))
            },
        );
        *slot = Some(Arc::clone(&table));
        table
    }

    /// Drop a (possibly corrupted) cached table and rebuild it from the fp
    /// centroids. Returns the fresh table.
    pub fn rebuild(
        &self,
        kind: QuantKind,
        centroids: &GlobalBuffer<T>,
        k: usize,
        dim: usize,
        counters: &Counters,
    ) -> Arc<QuantizedCentroids<T>> {
        self.slots.lock()[Self::slot(kind)] = None;
        self.get_or_build(kind, centroids, k, dim, counters)
    }

    /// Empty every slot (the centroids changed; cached tables are stale).
    pub fn invalidate(&self) {
        *self.slots.lock() = [None, None];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_roundtrips_representable_values() {
        for v in [
            0.0f32,
            -0.0,
            1.0,
            -1.5,
            6552.0 / 65536.0, // 0.0999755859375, exactly representable in f16
            65504.0,
            2.0f32.powi(-14),
            2.0f32.powi(-24),
        ] {
            let code = f32_to_f16_bits(v);
            let back = f16_bits_to_f32(code);
            assert_eq!(back.to_bits(), v.to_bits(), "{v} not preserved");
        }
    }

    #[test]
    fn f16_rounds_to_nearest_even() {
        // 1 + 2^-11 sits exactly between 1.0 and 1 + 2^-10: ties to even → 1.0
        let tie = 1.0 + 2.0f32.powi(-11);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(tie)), 1.0);
        // just above the tie rounds up
        let above = 1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-13);
        assert_eq!(
            f16_bits_to_f32(f32_to_f16_bits(above)),
            1.0 + 2.0f32.powi(-10)
        );
    }

    #[test]
    fn f16_saturates_finite_overflow_and_propagates_nonfinite() {
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1e9)), 65504.0);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(-1e9)), -65504.0);
        assert_eq!(
            f16_bits_to_f32(f32_to_f16_bits(f32::INFINITY)),
            f32::INFINITY
        );
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
        // tiny values flush to signed zero
        assert_eq!(
            f16_bits_to_f32(f32_to_f16_bits(1e-30)).to_bits(),
            0.0f32.to_bits()
        );
        assert_eq!(
            f16_bits_to_f32(f32_to_f16_bits(-1e-30)).to_bits(),
            (-0.0f32).to_bits()
        );
    }

    #[test]
    fn f16_relative_error_within_advertised_bound() {
        for i in 0..2000 {
            let v = (i as f32 * 0.37 - 350.0) * 1.7;
            let err = (f16_bits_to_f32(f32_to_f16_bits(v)) - v).abs();
            assert!(
                err <= v.abs() * 2.0f32.powi(-11) + 2.0f32.powi(-24),
                "|{v}| err {err}"
            );
        }
    }

    #[test]
    fn int8_build_quantizes_within_half_scale() {
        let vals: Vec<f32> = (0..32).map(|i| (i as f32 - 16.0) * 3.1).collect();
        let buf = GlobalBuffer::from_slice(&vals);
        let t = QuantizedCentroids::build(&buf, 2, 16, QuantKind::Int8);
        let mut cents = vec![0.0f32; 32];
        let mut qn = vec![0.0f32; 2];
        let mut sc = vec![0.0f32; 2];
        let c = Counters::new();
        t.stage_dequantized(&mut cents, &mut qn, &mut sc, &c);
        for (j, chunk) in cents.chunks(16).enumerate() {
            let half = sc[j] as f64 * 0.51;
            for (a, b) in chunk.iter().zip(&vals[j * 16..]) {
                assert!((*a as f64 - *b as f64).abs() <= half, "{a} vs {b}");
            }
        }
        // cached norms match the staged dequantized rows
        for (j, chunk) in cents.chunks(16).enumerate() {
            let norm: f32 = chunk.iter().map(|v| v * v).sum();
            assert_eq!(norm.to_bits(), qn[j].to_bits());
        }
        // displacement metadata is exact and bounded by sqrt(dim)·scale/2-ish
        assert!(t.err_norms[0] <= 4.0 * sc[0] as f64 * 0.51);
        assert!(t.margin.err_norm_max >= t.err_norms[0].min(t.err_norms[1]));
    }

    #[test]
    fn zero_row_gets_unit_scale_and_zero_error() {
        let buf = GlobalBuffer::from_slice(&[0.0f64; 8]);
        let t = QuantizedCentroids::build(&buf, 1, 8, QuantKind::Int8);
        assert_eq!(t.scales.to_vec(), vec![1.0]);
        assert_eq!(t.err_norms, vec![0.0]);
        assert_eq!(t.norms.to_vec(), vec![0.0]);
    }

    #[test]
    fn staging_charges_packed_traffic() {
        let vals: Vec<f32> = (0..64).map(|i| i as f32 * 0.25).collect();
        let buf = GlobalBuffer::from_slice(&vals);
        let t8 = QuantizedCentroids::build(&buf, 4, 16, QuantKind::Int8);
        let c = Counters::new();
        let (mut cents, mut qn, mut sc) = (vec![0.0f32; 64], vec![0.0f32; 4], vec![0.0f32; 4]);
        t8.stage_dequantized(&mut cents, &mut qn, &mut sc, &c);
        // codes at 1 byte/lane + scales and norms at 4 bytes each
        assert_eq!(c.snapshot().bytes_loaded, 64 + 2 * 4 * 4);
        let t16 = QuantizedCentroids::build(&buf, 4, 16, QuantKind::Fp16);
        let c = Counters::new();
        t16.stage_dequantized(&mut cents, &mut qn, &mut sc, &c);
        assert_eq!(c.snapshot().bytes_loaded, 64 * 2 + 2 * 4 * 4);
        assert_eq!(t16.code_bytes(), 128);
        assert_eq!(t8.code_bytes(), 64);
    }

    #[test]
    fn digest_guard_detects_any_flip() {
        let vals: Vec<f64> = (0..24).map(|i| (i as f64 - 11.0) * 0.7).collect();
        let t = QuantizedCentroids::build(&GlobalBuffer::from_slice(&vals), 3, 8, QuantKind::Fp16);
        assert!(t.verify(), "fresh table verifies");
        t.corrupt_code_bit(13, 9);
        assert!(!t.verify(), "code flip detected");
        t.corrupt_code_bit(13, 9);
        assert!(t.verify(), "restored");
        // flips in the cached norms are covered too
        let prev = t.norms.load(1);
        t.norms.store(1, prev.flip_bit(52));
        assert!(!t.verify(), "norm flip detected");
        t.norms.store(1, prev);
        assert!(t.verify());
        // and the int8 scale vector
        let t8 = QuantizedCentroids::build(&GlobalBuffer::from_slice(&vals), 3, 8, QuantKind::Int8);
        let s = t8.scales.load(2);
        t8.scales.store(2, s.flip_bit(30));
        assert!(!t8.verify(), "scale flip detected");
    }

    #[test]
    fn cache_builds_once_and_invalidates() {
        let vals: Vec<f32> = (0..32).map(|i| i as f32).collect();
        let buf = GlobalBuffer::from_slice(&vals);
        let cache = QuantCache::<f32>::default();
        let c = Counters::new();
        let a = cache.get_or_build(QuantKind::Int8, &buf, 4, 8, &c);
        let loaded_once = c.snapshot().bytes_loaded;
        assert_eq!(loaded_once, 32 * 4, "one fp-table read charged");
        let b = cache.get_or_build(QuantKind::Int8, &buf, 4, 8, &c);
        assert!(Arc::ptr_eq(&a, &b), "second call hits the cache");
        assert_eq!(c.snapshot().bytes_loaded, loaded_once, "no re-read");
        cache.invalidate();
        let d = cache.get_or_build(QuantKind::Int8, &buf, 4, 8, &c);
        assert!(!Arc::ptr_eq(&a, &d), "invalidate forces a rebuild");
        let e = cache.rebuild(QuantKind::Int8, &buf, 4, 8, &c);
        assert!(!Arc::ptr_eq(&d, &e));
    }

    #[test]
    fn fnv_distinguishes_streams() {
        assert_ne!(fnv1a64([1u64, 2]), fnv1a64([2u64, 1]));
        assert_ne!(fnv1a64([0u64]), fnv1a64([] as [u64; 0]));
        assert_eq!(fnv1a64([7u64, 9]), fnv1a64(vec![7u64, 9]));
        // Two sign-bit flips must not cancel, wherever they sit.
        let words: Vec<u64> = (0..64u64).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
        let base = fnv1a64(words.iter().copied());
        for i in 0..words.len() {
            for j in i + 1..words.len() {
                let mut w = words.clone();
                w[i] ^= 1 << 63;
                w[j] ^= 1 << 63;
                assert_ne!(fnv1a64(w), base, "sign flips at {i} and {j}");
            }
        }
    }

    #[test]
    fn digest_guard_detects_paired_sign_flips() {
        let vals: Vec<f64> = (0..32).map(|i| (i as f64 - 11.0) * 0.7).collect();
        let t = QuantizedCentroids::build(&GlobalBuffer::from_slice(&vals), 4, 8, QuantKind::Fp16);
        // negating two cached norms in place
        let (a, b) = (t.norms.load(0), t.norms.load(2));
        t.norms.store(0, -a);
        t.norms.store(2, -b);
        assert!(!t.verify(), "paired norm negation detected");
        t.norms.store(0, a);
        t.norms.store(2, b);
        assert!(t.verify(), "restored");
        // bit 63 of two digest words (fp16: lane 3 and lane 7, bit 15)
        t.corrupt_code_bit(3, 15);
        t.corrupt_code_bit(7, 15);
        assert!(!t.verify(), "paired code-word sign flips detected");
    }

    #[test]
    fn digest_hashes_codes_as_little_endian_u64_words() {
        // 36 codes: nine fp16 words, and four and a half int8 words (the
        // last one zero-padded).
        let vals: Vec<f64> = (0..36).map(|i| (i as f64 - 17.0) * 0.3).collect();
        let buf = GlobalBuffer::from_slice(&vals);
        for kind in [QuantKind::Fp16, QuantKind::Int8] {
            let t = QuantizedCentroids::build(&buf, 4, 9, kind);
            let bytes: Vec<u8> = match &t.codes {
                QuantCodes::Fp16(b) => b.to_vec().iter().flat_map(|l| l.to_le_bytes()).collect(),
                QuantCodes::Int8(b) => b.to_vec(),
            };
            let words = bytes.chunks(8).map(|c| {
                let mut w = [0u8; 8];
                w[..c.len()].copy_from_slice(c);
                u64::from_le_bytes(w)
            });
            let (scales, norms) = (t.scales.to_vec(), t.norms.to_vec());
            let stream = [kind as u64, 4, 9]
                .into_iter()
                .chain(words)
                .chain(scales.iter().map(|v| v.to_bits()))
                .chain(norms.iter().map(|v| v.to_bits()))
                .chain(t.err_norms.iter().map(|e| e.to_bits()));
            assert_eq!(fnv1a64(stream), t.digest, "{}", kind.label());
        }
    }
}
