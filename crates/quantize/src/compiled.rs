//! Compiled skip-mask execution: the DSE hot path without per-product
//! branching.
//!
//! The reference masked kernel ([`SkipMaskSet`]-driven) tests a `bool` per
//! product inside the innermost MAC loop — one load + one branch per
//! product, thousands of times per output position, for every one of the
//! thousands of designs the DSE simulates. Exactly like the paper compiles
//! skip decisions *into the generated code* (Eq. (3): skipped products are
//! simply absent), [`CompiledMasks`] moves all mask interpretation out of
//! the inner loop and into the data layout, once per design: per output
//! channel, the retained products are compacted into a contiguous stream of
//! **weight pairs**, and a layer whose mask skips nothing compiles to
//! `None` — dense-stream dispatch.
//!
//! ## Kernel shape: the paper's SMLAD pairing, host-width
//!
//! The paper's generated MCU code feeds SMLAD with offline-packed weight
//! pairs ([`tinytensor::simd::pack_weight_pairs`]). The host kernel adopts
//! the same pairing at SIMD width: columns are stored **pair-interleaved**
//! — pair row `i` holds patch elements `2i` and `2i+1` elementwise
//! interleaved across all lanes, written in one pass by
//! [`tinytensor::im2col::fill_im2col_pairs_planar_pitched`] for every conv
//! (an NHWC-input conv stages each image planar first, see
//! `fill_pair_cols`) — and each stream entry broadcasts one
//! `(w_even, w_odd)` pair against its pair row, so
//!
//! * one AVX-512 VNNI `vpdpwssd` (or AVX2 `vpmaddwd`, or two scalar
//!   multiplies — runtime-dispatched, all bit-exact integer math) consumes
//!   **two products of 16 lanes at once**, with no shuffles in the loop:
//!   the interleave happened at column-fill time;
//! * a product masked out of a pair simply compiles to weight 0 (`0·a = 0`
//!   in wrapping i32 arithmetic — exact), and a pair with both weights 0
//!   drops out of the stream entirely, so masked layers get *faster* with
//!   every skipped product instead of paying a branch to avoid work;
//! * a **lane** is one output position of one image: the kernel runs
//!   batch-major (`lanes = B · positions`, see [`crate::batch`]; one image
//!   is `B = 1`), where each weight pair broadcasts across all
//!   `B × positions` contiguous lanes in one pass — weight streams,
//!   requantization parameters and the branch-resolved output stage are
//!   traversed once per batch instead of once per image;
//! * per lane, accumulation still groups products `(2i, 2i+1)` ascending —
//!   a regrouping of the reference kernel's ascending-order wrapping i32
//!   additions, which is associative, so results are **bit-exact** with the
//!   `Vec<bool>` path.
//!
//! Bit-exactness is enforced by unit tests here (including cross-checking
//! every available SIMD dispatch level against the scalar kernel) and
//! workspace proptests over random models, τ grids and images
//! (`tests/compiled_masks.rs`, `tests/batched_forward.rs`).

use crate::forward::SkipMaskSet;
use crate::qmodel::{QConv, QLayer, QuantModel};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;
use tinytensor::im2col::{fill_im2col_pairs_nhwc, fill_im2col_pairs_planar_pitched};
use tinytensor::quant::avg_round;

/// One conv layer's mask compiled into compact retained weight-pair streams.
///
/// Entry `j` of a channel covers patch elements `2·r` and `2·r + 1` of
/// pair row `r = Σ deltas[..=j]` (the [`tinytensor::stream`] delta
/// encoding — ascending within a channel, reference accumulation order
/// regrouped pairwise) with weights `w[2j]` / `w[2j + 1]`; a masked (or
/// zero-weight, or past-the-end for odd patch lengths) half carries weight
/// 0 and contributes exactly nothing. Gaps wider than
/// [`tinytensor::stream::MAX_DELTA`] pair rows are bridged by phantom
/// entries whose weight pair is `(0, 0)` — also contributing exactly
/// nothing. Channels whose mask retains everything still stream their
/// nonzero weight pairs; a mask that skips nothing anywhere compiles to
/// `None` at the [`CompiledMasks`] level (dense-stream dispatch through
/// the same kernel).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledConv {
    /// Per-channel `[start, end)` entry spans into `deltas` (and, doubled,
    /// into `w`); length `out_c + 1`.
    pub row_offsets: Vec<u32>,
    /// Delta-encoded pair-row index of each entry ([`tinytensor::stream`]):
    /// within a channel, entry `j`'s pair row is the running sum of
    /// `deltas[..=j]` measured from the channel's span start. One byte per
    /// entry, and the hot loop reconstructs rows with a single add — the
    /// same encoding unpackgen's flash streams use.
    pub deltas: Vec<u8>,
    /// Interleaved weight pairs: entry `j` multiplies its pair row by
    /// `(w[2j], w[2j+1])`. A 0 half is a skipped/zero/absent product; a
    /// `(0, 0)` pair is a phantom gap-bridge.
    pub w: Vec<i8>,
    /// Retained products per channel, zero weights included (cost
    /// accounting that matches the boolean masks without re-scanning).
    pub retained: Vec<u32>,
}

impl CompiledConv {
    /// Compile one conv layer's boolean mask (`true` = skip).
    pub fn from_mask(conv: &QConv, mask: &[bool]) -> Self {
        let patch = conv.patch_len();
        let out_c = conv.geom.out_c;
        assert_eq!(mask.len(), out_c * patch, "mask length mismatch");
        Self::build(conv, |o, i| mask[o * patch + i])
    }

    /// Compile the dense (nothing-skipped) stream of a conv layer — the
    /// exact-layer execution form (zero weights still dropped, which is
    /// bit-exact and strictly faster).
    pub fn dense(conv: &QConv) -> Self {
        Self::build(conv, |_, _| false)
    }

    /// Compile from any skip predicate over `(channel, patch index)`.
    ///
    /// Every channel — dense or masked — gets a pair stream holding its
    /// retained products with **zero weights dropped** (they contribute
    /// exactly 0, so dropping them is bit-exact; it is the compile-time
    /// analogue of the unpacked engine's `drop_zero_weights`). `retained`
    /// still counts every mask-retained product, zero-weight or not, so
    /// cost accounting matches the boolean masks.
    pub fn build(conv: &QConv, skip: impl Fn(usize, usize) -> bool) -> Self {
        let patch = conv.patch_len();
        let out_c = conv.geom.out_c;
        let pair_rows = patch.div_ceil(2);
        let mut row_offsets = Vec::with_capacity(out_c + 1);
        let mut deltas = Vec::new();
        let mut w = Vec::new();
        let mut retained = Vec::with_capacity(out_c);
        row_offsets.push(0u32);
        for o in 0..out_c {
            let wrow = &conv.weights[o * patch..(o + 1) * patch];
            let mut kept = 0u32;
            let mut enc = tinytensor::stream::DeltaWriter::new();
            for i in 0..pair_rows {
                let e0 = 2 * i;
                let e1 = 2 * i + 1;
                let mut w0 = 0i8;
                let mut w1 = 0i8;
                if !skip(o, e0) {
                    kept += 1;
                    w0 = wrow[e0];
                }
                if e1 < patch && !skip(o, e1) {
                    kept += 1;
                    w1 = wrow[e1];
                }
                if w0 != 0 || w1 != 0 {
                    // Wide gaps are bridged by phantom (0, 0) weight pairs
                    // so the kernel's running-row add never overflows a
                    // delta byte.
                    for _ in 0..enc.push(i) {
                        w.push(0);
                        w.push(0);
                    }
                    w.push(w0);
                    w.push(w1);
                }
            }
            retained.push(kept);
            deltas.extend_from_slice(&enc.finish());
            row_offsets.push(deltas.len() as u32);
        }
        Self {
            row_offsets,
            deltas,
            w,
            retained,
        }
    }

    /// Absolute pair-row index of every entry of channel `o` (phantom
    /// gap-bridges included) — the decoded view for tests, cost accounting
    /// and stream introspection; the kernels never materialize this.
    pub fn channel_pair_rows(&self, o: usize) -> Vec<usize> {
        let s = self.row_offsets[o] as usize;
        let e = self.row_offsets[o + 1] as usize;
        tinytensor::stream::decode_indices(&self.deltas[s..e])
    }

    /// True when every channel retains all `patch` products (the mask
    /// skipped nothing) — derived from `retained`, no separate state.
    pub fn is_dense(&self, patch: usize) -> bool {
        self.retained.iter().all(|&r| r as usize == patch)
    }

    /// Total retained products over all channels.
    pub fn retained_products(&self) -> u64 {
        self.retained.iter().map(|&r| r as u64).sum()
    }

    /// Approximate heap bytes of this stream (reporting only). The
    /// per-entry cost is [`tinytensor::stream::encoded_bytes`]'s: one delta
    /// byte plus the two-weight payload.
    pub fn resident_bytes(&self) -> u64 {
        (4 * self.row_offsets.len() + 4 * self.retained.len()) as u64
            + tinytensor::stream::encoded_bytes(self.deltas.len(), 2)
    }
}

/// τ-independent dense (nothing-skipped) pair streams of every conv layer
/// of `model` — the exact-layer dispatch form, built once per scratch and
/// binding that scratch to `model`.
pub(crate) fn dense_streams(model: &QuantModel) -> Vec<CompiledConv> {
    (0..model.conv_indices().len())
        .map(|k| CompiledConv::dense(model.conv(k)))
        .collect()
}

/// A full design's masks in compiled form (`None` = layer left exact).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledMasks {
    /// One optional compiled mask per conv ordinal.
    pub per_conv: Vec<Option<CompiledConv>>,
}

impl CompiledMasks {
    /// Compile a boolean [`SkipMaskSet`] against `model`.
    ///
    /// Masks that skip nothing compile to `None` (dense-stream dispatch),
    /// which is semantically identical and strictly faster.
    pub fn compile(model: &QuantModel, masks: &SkipMaskSet) -> Self {
        let per_conv = masks
            .per_conv
            .iter()
            .enumerate()
            .map(|(k, m)| {
                m.as_ref().and_then(|mask| {
                    let conv = model.conv(k);
                    let cc = CompiledConv::from_mask(conv, mask);
                    if cc.is_dense(conv.patch_len()) {
                        None
                    } else {
                        Some(cc)
                    }
                })
            })
            .collect();
        Self { per_conv }
    }

    /// No approximation anywhere.
    pub fn none(n_convs: usize) -> Self {
        Self {
            per_conv: vec![None; n_convs],
        }
    }

    /// Retained conv MACs under these masks, dense (exact) layers
    /// contributing their full product count.
    pub fn retained_conv_macs(&self, model: &QuantModel) -> u64 {
        let mut total = 0u64;
        for (k, cm) in self.per_conv.iter().enumerate() {
            let conv = model.conv(k);
            let products = match cm {
                Some(cc) => cc.retained_products(),
                None => (conv.geom.out_c * conv.patch_len()) as u64,
            };
            total += products * conv.geom.out_positions() as u64;
        }
        total
    }

    /// Approximate heap bytes of the compiled streams (reporting only).
    pub fn resident_bytes(&self) -> u64 {
        self.per_conv
            .iter()
            .flatten()
            .map(CompiledConv::resident_bytes)
            .sum()
    }
}

/// SIMD dispatch level of the pair-stream kernel, detected once per
/// process. Every level computes identical wrapping i32 arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SimdLevel {
    /// Portable pair loop (also the semantic reference for the others).
    Scalar,
    /// AVX2 `vpmaddwd`, 8 lanes × 2 products per instruction.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// AVX-512 VNNI `vpdpwssd`, 16 lanes × 2 products per instruction.
    #[cfg(target_arch = "x86_64")]
    Vnni,
}

pub(crate) fn simd_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vnni") {
                SimdLevel::Vnni
            } else if is_x86_feature_detected!("avx2") {
                SimdLevel::Avx2
            } else {
                SimdLevel::Scalar
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        SimdLevel::Scalar
    })
}

/// Human-readable name of the SIMD dispatch level the pair-stream kernels
/// run at on this host (perf-trajectory reporting: throughput numbers are
/// only comparable at the same level).
pub fn simd_level_name() -> &'static str {
    match simd_level() {
        SimdLevel::Scalar => "scalar",
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => "avx2",
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Vnni => "avx512-vnni",
    }
}

/// All dispatch levels this host can execute (most capable last) — lets
/// tests cross-check every reachable kernel against the scalar reference.
#[cfg(test)]
pub(crate) fn available_simd_levels() -> Vec<SimdLevel> {
    let mut levels = vec![SimdLevel::Scalar];
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            levels.push(SimdLevel::Avx2);
        }
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vnni") {
            levels.push(SimdLevel::Vnni);
        }
    }
    levels
}

/// Apply one channel's pair stream to `acc[..b]` over lanes
/// `[p0, p0 + b)` — portable reference loop. `pcolt` is the
/// pair-interleaved column buffer with `lanes` lanes per pair row; `dx` is
/// the channel's delta-encoded pair-row stream (the running sum of deltas
/// is the absolute row).
fn apply_stream_scalar(
    pcolt: &[i16],
    lanes: usize,
    p0: usize,
    dx: &[u8],
    w: &[i8],
    acc: &mut [i32],
) {
    let b = acc.len();
    let mut ri = 0usize;
    for (j, &d) in dx.iter().enumerate() {
        ri += d as usize;
        let row = &pcolt[ri * 2 * lanes + 2 * p0..][..2 * b];
        let w0 = w[2 * j] as i32;
        let w1 = w[2 * j + 1] as i32;
        for (p, a) in acc.iter_mut().enumerate() {
            *a += row[2 * p] as i32 * w0 + row[2 * p + 1] as i32 * w1;
        }
    }
}

/// AVX2 `vpmaddwd` pair kernel: two stream entries per pass to halve
/// accumulator traffic. Bit-exact with [`apply_stream_scalar`] (`vpmaddwd`
/// computes the same two i16×i16 products and their i32 sum; the adds are
/// the same wrapping i32 additions, regrouped — associative).
///
/// SAFETY: caller must ensure AVX2 is available; slice bounds match the
/// scalar kernel's accesses exactly.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn apply_stream_avx2(
    pcolt: &[i16],
    lanes: usize,
    p0: usize,
    dx: &[u8],
    w: &[i8],
    acc: &mut [i32],
) {
    use std::arch::x86_64::*;
    // SAFETY: the caller guarantees AVX2 is available; every pointer access
    // below matches the scalar kernel's slice indexing exactly, which the
    // window asserts in `conv_forward_pairs_window` keep in bounds.
    unsafe {
        let b = acc.len();
        let n = dx.len();
        let wpair = |j: usize| -> i32 {
            (((w[2 * j + 1] as i16 as u16 as u32) << 16) | (w[2 * j] as i16 as u16 as u32)) as i32
        };
        let mut j = 0;
        let mut ri = 0usize;
        while j + 2 <= n {
            let r0i = ri + dx[j] as usize;
            let r1i = r0i + dx[j + 1] as usize;
            let r0 = pcolt.as_ptr().add(r0i * 2 * lanes + 2 * p0);
            let r1 = pcolt.as_ptr().add(r1i * 2 * lanes + 2 * p0);
            if j + 4 <= n {
                // Next pass's pair rows at this lane window's base — hides the
                // first-touch miss of each row behind the current pass's MACs.
                let n0 = r1i + dx[j + 2] as usize;
                let n1 = n0 + dx[j + 3] as usize;
                _mm_prefetch::<_MM_HINT_T0>(
                    pcolt.as_ptr().add(n0 * 2 * lanes + 2 * p0) as *const i8
                );
                _mm_prefetch::<_MM_HINT_T0>(
                    pcolt.as_ptr().add(n1 * 2 * lanes + 2 * p0) as *const i8
                );
            }
            let wv0 = _mm256_set1_epi32(wpair(j));
            let wv1 = _mm256_set1_epi32(wpair(j + 1));
            let mut p = 0usize;
            while p + 8 <= b {
                let a0 = _mm256_loadu_si256(r0.add(2 * p) as *const __m256i);
                let a1 = _mm256_loadu_si256(r1.add(2 * p) as *const __m256i);
                let accv = _mm256_loadu_si256(acc.as_ptr().add(p) as *const __m256i);
                let s = _mm256_add_epi32(
                    accv,
                    _mm256_add_epi32(_mm256_madd_epi16(a0, wv0), _mm256_madd_epi16(a1, wv1)),
                );
                _mm256_storeu_si256(acc.as_mut_ptr().add(p) as *mut __m256i, s);
                p += 8;
            }
            while p < b {
                let s0 = (*r0.add(2 * p) as i32) * (w[2 * j] as i32)
                    + (*r0.add(2 * p + 1) as i32) * (w[2 * j + 1] as i32);
                let s1 = (*r1.add(2 * p) as i32) * (w[2 * j + 2] as i32)
                    + (*r1.add(2 * p + 1) as i32) * (w[2 * j + 3] as i32);
                acc[p] = acc[p].wrapping_add(s0).wrapping_add(s1);
                p += 1;
            }
            ri = r1i;
            j += 2;
        }
        if j < n {
            let r0i = ri + dx[j] as usize;
            let r0 = pcolt.as_ptr().add(r0i * 2 * lanes + 2 * p0);
            let wv0 = _mm256_set1_epi32(wpair(j));
            let mut p = 0usize;
            while p + 8 <= b {
                let a0 = _mm256_loadu_si256(r0.add(2 * p) as *const __m256i);
                let accv = _mm256_loadu_si256(acc.as_ptr().add(p) as *const __m256i);
                let s = _mm256_add_epi32(accv, _mm256_madd_epi16(a0, wv0));
                _mm256_storeu_si256(acc.as_mut_ptr().add(p) as *mut __m256i, s);
                p += 8;
            }
            while p < b {
                let s0 = (*r0.add(2 * p) as i32) * (w[2 * j] as i32)
                    + (*r0.add(2 * p + 1) as i32) * (w[2 * j + 1] as i32);
                acc[p] = acc[p].wrapping_add(s0);
                p += 1;
            }
        }
    }
}

/// AVX-512 VNNI `vpdpwssd` pair kernel: the widest path — 16 lanes × 2
/// products per instruction, four stream entries per pass (quartering
/// accumulator load/store traffic; independent lane iterations keep the
/// `vpdpwssd` chains pipelined). `vpdpwssd` is the non-saturating
/// dot-product accumulate, i.e. exactly the scalar kernel's wrapping
/// arithmetic.
///
/// SAFETY: caller must ensure AVX-512F + AVX-512 VNNI are available; slice
/// bounds match the scalar kernel's accesses exactly.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni")]
unsafe fn apply_stream_vnni(
    pcolt: &[i16],
    lanes: usize,
    p0: usize,
    dx: &[u8],
    w: &[i8],
    acc: &mut [i32],
) {
    use std::arch::x86_64::*;
    // SAFETY: the caller guarantees AVX-512F + AVX-512 VNNI are available;
    // every pointer access below matches the scalar kernel's slice indexing
    // exactly (in bounds by `conv_forward_pairs_window`'s asserts).
    unsafe {
        let b = acc.len();
        let n = dx.len();
        let wpair = |j: usize| -> i32 {
            (((w[2 * j + 1] as i16 as u16 as u32) << 16) | (w[2 * j] as i16 as u16 as u32)) as i32
        };
        let mut j = 0;
        let mut ri = 0usize;
        while j + 4 <= n {
            let r0i = ri + dx[j] as usize;
            let r1i = r0i + dx[j + 1] as usize;
            let r2i = r1i + dx[j + 2] as usize;
            let r3i = r2i + dx[j + 3] as usize;
            let row = |i: usize| pcolt.as_ptr().add(i * 2 * lanes + 2 * p0);
            let (r0, r1, r2, r3) = (row(r0i), row(r1i), row(r2i), row(r3i));
            if j + 8 <= n {
                // Next quartet's pair rows at this lane window's base — the
                // deltas make their addresses one add each.
                let mut pi = r3i;
                for k in 0..4 {
                    pi += dx[j + 4 + k] as usize;
                    _mm_prefetch::<_MM_HINT_T0>(row(pi) as *const i8);
                }
            }
            let wv0 = _mm512_set1_epi32(wpair(j));
            let wv1 = _mm512_set1_epi32(wpair(j + 1));
            let wv2 = _mm512_set1_epi32(wpair(j + 2));
            let wv3 = _mm512_set1_epi32(wpair(j + 3));
            let mut p = 0usize;
            // Two independent 2-deep `vpdpwssd` chains joined by one add
            // instead of one 4-deep serial chain: wrapping adds commute, so
            // the regroup is bit-exact, and the chains pipeline across ports
            // instead of serializing on the accumulator.
            let zero = _mm512_setzero_si512();
            while p + 16 <= b {
                let a0 = _mm512_loadu_si512(r0.add(2 * p) as *const _);
                let a1 = _mm512_loadu_si512(r1.add(2 * p) as *const _);
                let a2 = _mm512_loadu_si512(r2.add(2 * p) as *const _);
                let a3 = _mm512_loadu_si512(r3.add(2 * p) as *const _);
                let accv = _mm512_loadu_si512(acc.as_ptr().add(p) as *const _);
                let c0 = _mm512_dpwssd_epi32(_mm512_dpwssd_epi32(accv, a0, wv0), a1, wv1);
                let c1 = _mm512_dpwssd_epi32(_mm512_dpwssd_epi32(zero, a2, wv2), a3, wv3);
                let s = _mm512_add_epi32(c0, c1);
                _mm512_storeu_si512(acc.as_mut_ptr().add(p) as *mut _, s);
                p += 16;
            }
            while p < b {
                let scalar_pair = |r: *const i16, jj: usize| -> i32 {
                    (*r.add(2 * p) as i32) * (w[2 * jj] as i32)
                        + (*r.add(2 * p + 1) as i32) * (w[2 * jj + 1] as i32)
                };
                acc[p] = acc[p]
                    .wrapping_add(scalar_pair(r0, j))
                    .wrapping_add(scalar_pair(r1, j + 1))
                    .wrapping_add(scalar_pair(r2, j + 2))
                    .wrapping_add(scalar_pair(r3, j + 3));
                p += 1;
            }
            ri = r3i;
            j += 4;
        }
        while j < n {
            ri += dx[j] as usize;
            let r0 = pcolt.as_ptr().add(ri * 2 * lanes + 2 * p0);
            let wv0 = _mm512_set1_epi32(wpair(j));
            let mut p = 0usize;
            while p + 16 <= b {
                let a0 = _mm512_loadu_si512(r0.add(2 * p) as *const _);
                let accv = _mm512_loadu_si512(acc.as_ptr().add(p) as *const _);
                let s = _mm512_dpwssd_epi32(accv, a0, wv0);
                _mm512_storeu_si512(acc.as_mut_ptr().add(p) as *mut _, s);
                p += 16;
            }
            while p < b {
                let s0 = (*r0.add(2 * p) as i32) * (w[2 * j] as i32)
                    + (*r0.add(2 * p + 1) as i32) * (w[2 * j + 1] as i32);
                acc[p] = acc[p].wrapping_add(s0);
                p += 1;
            }
            j += 1;
        }
    }
}

/// One conv layer's output stage (requantize + zero point + clamp) with the
/// left/right shift direction resolved once per layer and every branch of
/// the gemmlowp pipeline flattened to selects.
///
/// Bit-exact with `clamp_out` / `tinytensor::quant::requantize` for every
/// i32 accumulator: the saturating pre-shift becomes an i64 multiply +
/// clamp, and the `a == b == i32::MIN` saturation case of the doubling
/// high-mul cannot fire because quantized-model multipliers are
/// non-negative (`RequantMultiplier::from_real` range) — asserted at
/// construction. Unit-tested against the reference over random
/// accumulators.
#[derive(Clone, Copy)]
struct OutStage {
    /// `1 << max(shift, 0)` — the saturating left pre-shift as a multiply.
    left_mul: i64,
    /// Fixed-point multiplier (non-negative).
    m: i64,
    /// `max(-shift, 0)` — rounding right-shift exponent.
    right: i32,
    zp: i32,
    lo: i32,
    hi: i32,
}

impl OutStage {
    fn new(c: &QConv) -> Self {
        assert!(c.mult.multiplier >= 0, "negative requant multiplier");
        let (lo, hi) = c.act_bounds();
        Self {
            left_mul: 1i64 << c.mult.shift.max(0),
            m: c.mult.multiplier as i64,
            right: (-c.mult.shift).max(0),
            zp: c.out_qp.zero_point,
            lo,
            hi,
        }
    }

    #[inline(always)]
    fn apply(&self, acc: i32) -> i8 {
        // `value.saturating_mul(1 << left)` without the overflow branches.
        let pre = (acc as i64 * self.left_mul).clamp(i32::MIN as i64, i32::MAX as i64);
        // SaturatingRoundingDoublingHighMul with b >= 0: never saturates.
        let ab = pre * self.m;
        let nudge = if ab >= 0 {
            1i64 << 30
        } else {
            1 - (1i64 << 30)
        };
        let v = ((ab + nudge) / (1i64 << 31)) as i32;
        // RoundingDivideByPOT with a per-layer constant exponent.
        let v = if self.right == 0 {
            v
        } else {
            let mask = (1i64 << self.right) - 1;
            let remainder = i64::from(v) & mask;
            let threshold = (mask >> 1) + i64::from(v < 0);
            (v >> self.right) + i32::from(remainder > threshold)
        };
        // `requantize_to_i8`'s [-128, 127] clamp is subsumed by the fused
        // ReLU bounds (always within i8 range).
        (v + self.zp).clamp(self.lo, self.hi) as i8
    }
}

/// L1 budget for one lane block of pair-interleaved columns (bytes). Blocks
/// sized so every pair row of a block stays cache-hot across all output
/// channels of the layer.
const COLT_BLOCK_BYTES: usize = 36 * 1024;

/// Lane-block size for a layer: L1 budget over the pair-row working set,
/// rounded down to a whole number of 16-lane vectors so the SIMD kernels
/// only ever run scalar tails on the final block of the lane space.
fn lane_block(pair_rows: usize, lanes: usize) -> usize {
    let block = (COLT_BLOCK_BYTES / (4 * pair_rows)).clamp(64, lanes.max(64));
    (block & !15).max(16)
}

/// Whole-buffer conv forward over pair-interleaved columns at an explicit
/// dispatch level, writing **planar** output (`output[o * lanes + p]`) —
/// lets tests cross-check every available level against scalar.
#[cfg(test)]
fn conv_forward_pairs_with_level(
    c: &QConv,
    cc: &CompiledConv,
    pcolt: &[i16],
    lanes: usize,
    acc: &mut [i32],
    output: &mut [i8],
    level: SimdLevel,
) {
    let out_c = c.geom.out_c;
    assert!(output.len() >= out_c * lanes);
    // SAFETY: the output covers `out_c` rows of pitch `lanes` and this is
    // the only writer.
    unsafe {
        conv_forward_pairs_window(
            c,
            cc,
            pcolt,
            lanes,
            0,
            lanes,
            acc,
            output.as_mut_ptr(),
            lanes,
            0,
            level,
        )
    };
}

/// The windowed, pitched kernel core behind every conv execution path:
/// apply `cc`'s streams to column lanes `[p_lo, p_hi)` of `pcolt` (whose
/// pair rows have `colt_lanes` lanes), writing channel `o`, lane `p` to
/// `output[o * out_pitch + out_base + (p - p_lo)]`.
///
/// Three shapes ride on this one function:
/// * whole-buffer (`p_lo = 0`, `p_hi = colt_lanes`, `out_pitch =
///   colt_lanes`, `out_base = 0`) — prefilled columns on one thread;
/// * **image-group tiles** with tile-local columns (`colt_lanes` = the
///   tile's lanes, `out_base` = the tile's first lane in the full batch,
///   `out_pitch` = the full batch's lanes) — the fill/MAC interleave that
///   keeps the column working set batch-size-independent, and the parallel
///   work unit;
/// * **lane windows** over a shared full-batch column buffer (`p_lo > 0`)
///   — parallel MAC over prefilled (cached conv0) columns.
///
/// Lane-blocked inside the window so each block's pair rows stay L1-hot
/// across all output channels.
///
/// # Safety
/// `output` must be valid for writes over every
/// `o * out_pitch + out_base + [0, p_hi - p_lo)` for `o < out_c`, and no
/// other thread may concurrently touch those elements. Distinct windows
/// (disjoint `[p_lo, p_hi)` at the same `out_base - p_lo` shift) write
/// disjoint elements, which is what makes tile-parallel execution sound.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn conv_forward_pairs_window(
    c: &QConv,
    cc: &CompiledConv,
    pcolt: &[i16],
    colt_lanes: usize,
    p_lo: usize,
    p_hi: usize,
    acc: &mut [i32],
    output: *mut i8,
    out_pitch: usize,
    out_base: usize,
    level: SimdLevel,
) {
    let pair_rows = c.patch_len().div_ceil(2);
    let out_c = c.geom.out_c;
    assert!(pcolt.len() >= pair_rows * 2 * colt_lanes);
    assert!(p_lo <= p_hi && p_hi <= colt_lanes);
    let window = p_hi - p_lo;
    assert!(acc.len() >= lane_block(pair_rows, window).min(window.max(1)));
    let stage = OutStage::new(c);
    let block = lane_block(pair_rows, window);

    let mut p0 = p_lo;
    while p0 < p_hi {
        let b = block.min(p_hi - p0);
        let acc = &mut acc[..b];
        for o in 0..out_c {
            acc.fill(c.bias[o]);
            let s = cc.row_offsets[o] as usize;
            let e = cc.row_offsets[o + 1] as usize;
            let (dx, ws) = (&cc.deltas[s..e], &cc.w[2 * s..2 * e]);
            match level {
                SimdLevel::Scalar => apply_stream_scalar(pcolt, colt_lanes, p0, dx, ws, acc),
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `level` only reaches Avx2/Vnni when the features
                // were runtime-detected (`simd_level`/`available_simd_levels`).
                SimdLevel::Avx2 => unsafe { apply_stream_avx2(pcolt, colt_lanes, p0, dx, ws, acc) },
                #[cfg(target_arch = "x86_64")]
                SimdLevel::Vnni => unsafe { apply_stream_vnni(pcolt, colt_lanes, p0, dx, ws, acc) },
            }
            // Output stage: requantize + clamp, contiguous pitched store.
            // Materialized as a slice so the store loop keeps `noalias`
            // (a raw-pointer write loop de-vectorizes the requant — an
            // 11% hit, caught by interleaved A/B).
            // SAFETY: the caller contract (above) guarantees `output` is
            // valid and exclusive over exactly these pitched elements.
            let orow = unsafe {
                std::slice::from_raw_parts_mut(
                    output.add(o * out_pitch + out_base + (p0 - p_lo)),
                    b,
                )
            };
            for (out, &a) in orow.iter_mut().zip(acc.iter()) {
                *out = stage.apply(a);
            }
        }
        p0 += b;
    }
}

impl QuantModel {
    /// Largest output-position count of any conv layer (accumulator
    /// scratch sizing for the compiled kernels).
    pub fn max_conv_positions(&self) -> usize {
        self.layers
            .iter()
            .map(|l| match l {
                QLayer::Conv(c) => c.geom.out_positions(),
                _ => 0,
            })
            .max()
            .unwrap_or(0)
    }

    /// Largest pair-interleaved column buffer any conv layer needs, in i16
    /// elements per image (`2 · ⌈patch/2⌉ · positions`).
    pub fn max_pair_colt_elems(&self) -> usize {
        self.layers
            .iter()
            .map(|l| match l {
                QLayer::Conv(c) => c.patch_len().div_ceil(2) * 2 * c.geom.out_positions(),
                _ => 0,
            })
            .max()
            .unwrap_or(0)
    }
}

/// Global average pool over planar activations: each channel's plane sits
/// at `input[c * plane_pitch ..][..positions]` (`plane_pitch = positions`
/// per-image; a batch passes the batched pitch and per-image offsets).
/// Bit-exact with [`crate::forward::gap_forward_nhwc`] — same sums, same
/// rounding average.
pub(crate) fn gap_forward_planar(
    positions: usize,
    ch: usize,
    plane_pitch: usize,
    input: &[i8],
    output: &mut [i8],
) {
    debug_assert_eq!(output.len(), ch);
    for (c, out) in output.iter_mut().enumerate() {
        let plane = &input[c * plane_pitch..c * plane_pitch + positions];
        let mut sum = 0i32;
        for &v in plane {
            sum += v as i32;
        }
        *out = avg_round(sum, positions as i32);
    }
}

/// Fill conv `c`'s pair-interleaved columns for images `images` of a
/// `batch`-image source into `out` (`images.len() · positions` lanes, image
/// `b` from lane `(b − images.start) · positions`) — the one column
/// producer of every conv the compiled engine runs.
///
/// A `planar_in` source is batch-planar: image `b`'s channel planes sit
/// `batch` planes apart starting at plane `b` (`batch = 1` is the
/// per-image planar layout). Otherwise the source stacks NHWC images back
/// to back and each image is de-interleaved through `stage` (at least
/// [`crate::plan::ExecPlan::max_stage`] long) into the same planar fill.
#[inline(always)]
pub(crate) fn fill_pair_cols(
    c: &QConv,
    planar_in: bool,
    batch: usize,
    src: &[i8],
    images: std::ops::Range<usize>,
    stage: &mut [i8],
    out: &mut [i16],
) {
    let geom = &c.geom;
    let positions = geom.out_positions();
    let lanes = images.len() * positions;
    let in_pos = geom.in_h * geom.in_w;
    let (zp, pad) = (c.in_qp.zero_point as i16, c.centered_pad());
    for b in images.clone() {
        let lane0 = (b - images.start) * positions;
        if planar_in {
            let plane_pitch = batch * in_pos;
            let view = &src[b * in_pos..(geom.in_c - 1) * plane_pitch + b * in_pos + in_pos];
            fill_im2col_pairs_planar_pitched(view, geom, zp, pad, out, lanes, lane0, plane_pitch);
        } else {
            let in_len = in_pos * geom.in_c;
            let image = &src[b * in_len..(b + 1) * in_len];
            fill_im2col_pairs_nhwc(image, geom, zp, pad, stage, out, lanes, lane0);
        }
    }
}

/// 2×2/2 max-pool over planar activations — contiguous reads and writes
/// per channel (layout change only: max is order- and layout-invariant, so
/// results equal the NHWC reference pool). Also serves batch-major
/// activations directly: a batch stores `C·B` independent planes, so the
/// caller passes `ch = C · B`.
pub(crate) fn pool_forward_planar(
    in_h: usize,
    in_w: usize,
    ch: usize,
    input: &[i8],
    output: &mut [i8],
) {
    let (oh, ow) = (in_h / 2, in_w / 2);
    let in_plane = in_h * in_w;
    let out_plane = oh * ow;
    for c in 0..ch {
        let src = &input[c * in_plane..(c + 1) * in_plane];
        let dst = &mut output[c * out_plane..(c + 1) * out_plane];
        for oy in 0..oh {
            let r0 = &src[(oy * 2) * in_w..(oy * 2) * in_w + in_w];
            let r1 = &src[(oy * 2 + 1) * in_w..(oy * 2 + 1) * in_w + in_w];
            let drow = &mut dst[oy * ow..(oy + 1) * ow];
            for (ox, d) in drow.iter_mut().enumerate() {
                let x = ox * 2;
                *d = r0[x].max(r0[x + 1]).max(r1[x]).max(r1[x + 1]);
            }
        }
    }
}

/// Interleave one image's planar activations back into NHWC order, reading
/// channel `c`'s plane at `src[c * plane_pitch]` — the per-image gather
/// out of a batch-major activation buffer, where a batch of `B` images
/// spaces one image's channel planes `B` planes apart.
pub(crate) fn planar_to_nhwc_pitched(
    src: &[i8],
    positions: usize,
    ch: usize,
    plane_pitch: usize,
    dst: &mut [i8],
) {
    for c in 0..ch {
        let plane = &src[c * plane_pitch..c * plane_pitch + positions];
        for (p, &v) in plane.iter().enumerate() {
            dst[p * ch + c] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchScratch;
    use crate::calib::calibrate_ranges;
    use crate::qmodel::quantize_model;
    use cifar10sim::DatasetConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tinytensor::im2col::{fill_im2col_centered_t, interleave_pair_rows};

    fn quantized_micro(seed: u64) -> (QuantModel, cifar10sim::SyntheticCifar) {
        let data = cifar10sim::generate(DatasetConfig::tiny(seed));
        let mut rng = StdRng::seed_from_u64(seed);
        let m = tinynn::Sequential::new("cm", tinytensor::Shape4::nhwc(1, 32, 32, 3))
            .conv_relu(4, 3, &mut rng)
            .maxpool()
            .conv_relu(6, 3, &mut rng)
            .maxpool()
            .dense(10, true, &mut rng);
        let ranges = calibrate_ranges(&m, &data.train.take(8));
        (quantize_model(&m, &ranges), data)
    }

    fn random_masks(q: &QuantModel, seed: u64, density_mod: u64) -> SkipMaskSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = q.conv_indices().len();
        let mut masks = SkipMaskSet::none(n);
        for k in 0..n {
            let c = q.conv(k);
            let len = c.geom.out_c * c.patch_len();
            masks.per_conv[k] = Some(
                (0..len)
                    .map(|_| rng.gen_range(0u64..density_mod) == 0)
                    .collect(),
            );
        }
        masks
    }

    #[test]
    fn compiled_forward_bit_exact_with_bool_reference() {
        let (q, data) = quantized_micro(77);
        for density in [2u64, 5, 50] {
            let masks = random_masks(&q, 1000 + density, density);
            let compiled = CompiledMasks::compile(&q, &masks);
            let mut bs = BatchScratch::for_model(&q, 1);
            for i in 0..8 {
                let qin = q.quantize_input(data.test.image(i));
                let want = q.forward_quantized(&qin, Some(&masks));
                let got = q.forward_compiled_batch_scratch(&qin, 1, None, Some(&compiled), &mut bs);
                assert_eq!(got, want, "density {density}, image {i}");
            }
        }
    }

    #[test]
    fn all_simd_levels_bit_exact_with_scalar() {
        let (q, data) = quantized_micro(88);
        let masks = random_masks(&q, 42, 3);
        let compiled = CompiledMasks::compile(&q, &masks);
        let c0 = q.conv(0);
        let cc = compiled.per_conv[0].as_ref().expect("conv 0 masked");
        let positions = c0.geom.out_positions();
        let qin = q.quantize_input(data.test.image(0));
        let pcolt = q.conv0_pair_cols_batch(&qin, 1).expect("starts with conv");
        let mut acc = vec![0i32; positions];
        let mut want = vec![0i8; c0.geom.out_c * positions];
        conv_forward_pairs_with_level(
            c0,
            cc,
            &pcolt,
            positions,
            &mut acc,
            &mut want,
            SimdLevel::Scalar,
        );
        for level in available_simd_levels() {
            let mut got = vec![0i8; c0.geom.out_c * positions];
            conv_forward_pairs_with_level(c0, cc, &pcolt, positions, &mut acc, &mut got, level);
            assert_eq!(got, want, "{level:?}");
        }
        // Odd lane counts exercise every vector tail.
        for lanes_off in 1..4usize {
            let lanes = positions - lanes_off;
            let pair_rows = c0.patch_len().div_ceil(2);
            // Re-lay the columns at the narrower lane count.
            let mut rows = vec![0i16; positions * c0.patch_len()];
            let zp = c0.in_qp.zero_point as i16;
            fill_im2col_centered_t(&qin, &c0.geom, zp, c0.centered_pad(), &mut rows);
            let mut narrow_rows = vec![0i16; lanes * c0.patch_len()];
            for i in 0..c0.patch_len() {
                narrow_rows[i * lanes..(i + 1) * lanes]
                    .copy_from_slice(&rows[i * positions..i * positions + lanes]);
            }
            let mut pc = vec![0i16; pair_rows * 2 * lanes];
            interleave_pair_rows(&narrow_rows, lanes, c0.patch_len(), &mut pc, lanes, 0);
            let mut want = vec![0i8; c0.geom.out_c * lanes];
            conv_forward_pairs_with_level(
                c0,
                cc,
                &pc,
                lanes,
                &mut acc,
                &mut want,
                SimdLevel::Scalar,
            );
            for level in available_simd_levels() {
                let mut got = vec![0i8; c0.geom.out_c * lanes];
                conv_forward_pairs_with_level(c0, cc, &pc, lanes, &mut acc, &mut got, level);
                assert_eq!(got, want, "{level:?} lanes {lanes}");
            }
        }
    }

    #[test]
    fn compiled_exact_path_matches_unmasked_reference() {
        let (q, data) = quantized_micro(82);
        let mut bs = BatchScratch::for_model(&q, 1);
        for i in 0..6 {
            let qin = q.quantize_input(data.test.image(i));
            assert_eq!(
                q.forward_compiled_batch_scratch(&qin, 1, None, None, &mut bs),
                q.forward_quantized(&qin, None),
                "{i}"
            );
        }
    }

    #[test]
    fn conv0_cache_is_bit_exact() {
        let (q, data) = quantized_micro(78);
        let masks = random_masks(&q, 5, 3);
        let compiled = CompiledMasks::compile(&q, &masks);
        let mut scratch = BatchScratch::for_model(&q, 1);
        for i in 0..6 {
            let qin = q.quantize_input(data.test.image(i));
            let pcolt = q
                .conv0_pair_cols_batch(&qin, 1)
                .expect("model starts with conv");
            let want = q.forward_quantized(&qin, Some(&masks));
            let got = q.forward_compiled_batch_scratch(
                &qin,
                1,
                Some(&pcolt),
                Some(&compiled),
                &mut scratch,
            );
            assert_eq!(got, want, "image {i}");
        }
    }

    #[test]
    fn all_false_mask_compiles_to_exact_dispatch() {
        let (q, data) = quantized_micro(79);
        let n = q.conv_indices().len();
        let mut masks = SkipMaskSet::none(n);
        let c0 = q.conv(0);
        masks.per_conv[0] = Some(vec![false; c0.geom.out_c * c0.patch_len()]);
        let compiled = CompiledMasks::compile(&q, &masks);
        assert!(compiled.per_conv.iter().all(|m| m.is_none()));
        let qin = q.quantize_input(data.test.image(0));
        let mut bs = BatchScratch::for_model(&q, 1);
        assert_eq!(
            q.forward_compiled_batch_scratch(&qin, 1, None, Some(&compiled), &mut bs),
            q.forward_quantized(&qin, None)
        );
    }

    #[test]
    fn dense_rows_dispatch_and_masked_rows_compact() {
        let (q, _) = quantized_micro(80);
        let c0 = q.conv(0);
        let patch = c0.patch_len();
        // Skip one product of channel 1 only.
        let mut mask = vec![false; c0.geom.out_c * patch];
        mask[patch + 2] = true;
        let cc = CompiledConv::from_mask(c0, &mask);
        assert!(!cc.is_dense(patch));
        // `retained` counts mask-retained products, zero weights included.
        assert_eq!(cc.retained[0] as usize, patch);
        assert_eq!(cc.retained[1] as usize, patch - 1);
        // Pair streams hold exactly the retained nonzero-weight products,
        // ascending pair index, masked/zero halves carrying weight 0.
        for o in [0usize, 1] {
            let s = cc.row_offsets[o] as usize;
            let idx_row = cc.channel_pair_rows(o);
            assert!(
                idx_row.windows(2).all(|p| p[0] < p[1]),
                "pair indices not ascending"
            );
            let wrow = &c0.weights[o * patch..(o + 1) * patch];
            for (j, &pi) in idx_row.iter().enumerate() {
                let (e0, e1) = (2 * pi, 2 * pi + 1);
                let want0 = if o == 1 && e0 == 2 { 0 } else { wrow[e0] };
                let want1 = if e1 >= patch || (o == 1 && e1 == 2) {
                    0
                } else {
                    wrow[e1]
                };
                assert_eq!(cc.w[2 * (s + j)], want0, "channel {o} entry {j} even");
                assert_eq!(cc.w[2 * (s + j) + 1], want1, "channel {o} entry {j} odd");
            }
            // Every nonzero retained weight appears in exactly one entry.
            let streamed: i64 = idx_row
                .iter()
                .enumerate()
                .map(|(j, _)| cc.w[2 * (s + j)] as i64 + cc.w[2 * (s + j) + 1] as i64)
                .sum();
            let want: i64 = (0..patch)
                .filter(|&i| !(o == 1 && i == 2))
                .map(|i| wrow[i] as i64)
                .sum();
            assert_eq!(streamed, want, "channel {o} weight sum");
        }
        // The masked product (channel 1, patch index 2) must not appear:
        // pair row 1's even half for channel 1 is forced to 0.
        let s1 = cc.row_offsets[1] as usize;
        for (j, &pi) in cc.channel_pair_rows(1).iter().enumerate() {
            if pi == 1 {
                assert_eq!(cc.w[2 * (s1 + j)], 0, "masked half-pair must be 0");
            }
        }
    }

    #[test]
    fn dense_stream_drops_zero_weights_only() {
        let (q, _) = quantized_micro(84);
        let c0 = q.conv(0);
        let patch = c0.patch_len();
        let cc = CompiledConv::dense(c0);
        assert!(cc.is_dense(patch));
        for o in 0..c0.geom.out_c {
            let wrow = &c0.weights[o * patch..(o + 1) * patch];
            // Entries exist exactly for pairs with at least one nonzero.
            let want_pairs: Vec<usize> = (0..patch.div_ceil(2))
                .filter(|&i| wrow[2 * i] != 0 || (2 * i + 1 < patch && wrow[2 * i + 1] != 0))
                .collect();
            assert_eq!(cc.channel_pair_rows(o), want_pairs, "channel {o}");
        }
    }

    #[test]
    fn out_stage_bit_exact_with_reference_requantize() {
        use crate::forward::clamp_out;
        let (q, _) = quantized_micro(83);
        let mut rng = StdRng::seed_from_u64(83);
        for k in 0..q.conv_indices().len() {
            let c = q.conv(k);
            let stage = OutStage::new(c);
            let (lo, hi) = c.act_bounds();
            let out_zp = c.out_qp.zero_point;
            // Edge accumulators plus a random sweep.
            let mut accs = vec![
                0,
                1,
                -1,
                i32::MAX,
                i32::MIN,
                i32::MAX - 1,
                i32::MIN + 1,
                1 << 30,
            ];
            for _ in 0..20_000 {
                accs.push(rng.gen_range(i32::MIN..i32::MAX));
                accs.push(rng.gen_range(-5_000_000i32..5_000_000));
            }
            for &a in &accs {
                assert_eq!(
                    stage.apply(a),
                    clamp_out(a, c, out_zp, lo, hi),
                    "conv {k}, acc {a}"
                );
            }
        }
    }

    #[test]
    fn retained_conv_macs_matches_bool_accounting() {
        let (q, _) = quantized_micro(81);
        let masks = random_masks(&q, 9, 4);
        let compiled = CompiledMasks::compile(&q, &masks);
        let dense: u64 = (0..q.conv_indices().len())
            .map(|k| q.conv(k).geom.macs())
            .sum();
        assert_eq!(
            compiled.retained_conv_macs(&q),
            dense - masks.skipped_macs(&q)
        );
    }
}
