//! Image-to-column transform and receptive-field offset tables.
//!
//! CMSIS-NN's `arm_convolve_s8` gathers each output position's receptive
//! field into a column buffer (padding positions filled with the input's
//! zero point, so they contribute exactly zero after the offset-corrected
//! MAC), then hands columns to the `mat_mult` kernel.
//!
//! The unpacked engine does *not* materialize columns — the generated code
//! addresses the input directly. For that, [`patch_offsets`] produces, per
//! output position, the flat input offset of every patch element or `None`
//! for padding. Both paths must agree; tests cross-check them.

use crate::shape::ConvGeometry;

/// The im2col column matrix for a single input image (HWC layout).
///
/// `cols[p * patch_len + i]` is patch element `i` of output position `p`
/// (row-major over output positions). Padding elements hold `pad_value`
/// (the input zero point for quantized tensors).
pub fn im2col_i8(input_hwc: &[i8], geom: &ConvGeometry, pad_value: i8) -> Vec<i8> {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let patch = geom.patch_len();
    let mut cols = vec![pad_value; oh * ow * patch];
    fill_im2col_i8(input_hwc, geom, pad_value, &mut cols);
    cols
}

/// In-place variant of [`im2col_i8`] reusing a scratch buffer (the engines
/// allocate the column buffer once per layer, as the MCU library would).
pub fn fill_im2col_i8(input_hwc: &[i8], geom: &ConvGeometry, pad_value: i8, cols: &mut [i8]) {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let patch = geom.patch_len();
    assert_eq!(cols.len(), oh * ow * patch, "column buffer size mismatch");
    assert_eq!(
        input_hwc.len(),
        geom.in_h * geom.in_w * geom.in_c,
        "input size mismatch"
    );

    let mut col_base = 0usize;
    for oy in 0..oh {
        let iy0 = (oy * geom.stride_h) as isize - geom.pad_h as isize;
        for ox in 0..ow {
            let ix0 = (ox * geom.stride_w) as isize - geom.pad_w as isize;
            let mut i = col_base;
            for ky in 0..geom.kernel_h {
                let iy = iy0 + ky as isize;
                if iy < 0 || iy >= geom.in_h as isize {
                    // whole kernel row out of bounds: leave pad_value
                    for _ in 0..geom.kernel_w * geom.in_c {
                        cols[i] = pad_value;
                        i += 1;
                    }
                    continue;
                }
                let row_base = iy as usize * geom.in_w * geom.in_c;
                for kx in 0..geom.kernel_w {
                    let ix = ix0 + kx as isize;
                    if ix < 0 || ix >= geom.in_w as isize {
                        for _ in 0..geom.in_c {
                            cols[i] = pad_value;
                            i += 1;
                        }
                        continue;
                    }
                    let src = row_base + ix as usize * geom.in_c;
                    cols[i..i + geom.in_c].copy_from_slice(&input_hwc[src..src + geom.in_c]);
                    i += geom.in_c;
                }
            }
            col_base += patch;
        }
    }
}

/// im2col directly into a **centered, patch-major (transposed)** i16
/// buffer: `out[i * out_positions + p]` holds patch element `i` of output
/// position `p`, already centered (`x − zp`; `pad_centered` for padding,
/// which is 0 whenever `zp` is representable in i8).
///
/// Together with [`interleave_pair_rows`] this is the two-pass reference
/// of the compiled conv kernels' column layout: the engines fill pair rows
/// in one pass ([`fill_im2col_pairs_planar_pitched`],
/// [`fill_im2col_pairs_nhwc`]), and tests hold that single pass to this
/// oracle element for element.
///
/// Bit-exact with centering the output of [`fill_im2col_i8`]: tests
/// cross-check element-for-element.
pub fn fill_im2col_centered_t(
    input_hwc: &[i8],
    geom: &ConvGeometry,
    zp: i16,
    pad_centered: i16,
    out: &mut [i16],
) {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let positions = oh * ow;
    let patch = geom.patch_len();
    assert_eq!(
        out.len(),
        positions * patch,
        "transposed column buffer size mismatch"
    );
    assert_eq!(
        input_hwc.len(),
        geom.in_h * geom.in_w * geom.in_c,
        "input size mismatch"
    );

    // Patch-element-outer iteration: every output row is written
    // sequentially (the write side dominates the cost of a transposed
    // fill), while the strided reads stay inside the L1-resident input.
    let (in_c, in_w, in_h) = (geom.in_c, geom.in_w, geom.in_h);
    let (sw, sh) = (geom.stride_w, geom.stride_h);
    for ky in 0..geom.kernel_h {
        for kx in 0..geom.kernel_w {
            // Valid ox range: 0 <= ox·sw + kx − pad_w < in_w.
            let lo_num = geom.pad_w as isize - kx as isize;
            let ox_lo = if lo_num > 0 {
                (lo_num as usize).div_ceil(sw)
            } else {
                0
            }
            .min(ow);
            let hi_num = in_w as isize + geom.pad_w as isize - kx as isize;
            let ox_hi = if hi_num <= 0 {
                0
            } else {
                (((hi_num - 1) as usize) / sw + 1).min(ow)
            }
            .max(ox_lo);
            for ci in 0..in_c {
                let i = (ky * geom.kernel_w + kx) * in_c + ci;
                let out_row = &mut out[i * positions..(i + 1) * positions];
                let mut p = 0usize;
                for oy in 0..oh {
                    let iy = (oy * sh) as isize + ky as isize - geom.pad_h as isize;
                    let row = &mut out_row[p..p + ow];
                    p += ow;
                    if iy < 0 || iy >= in_h as isize {
                        row.fill(pad_centered);
                        continue;
                    }
                    row[..ox_lo].fill(pad_centered);
                    row[ox_hi..].fill(pad_centered);
                    if ox_lo == ox_hi {
                        // No valid column: the first source index below
                        // would underflow.
                        continue;
                    }
                    let row_base = iy as usize * in_w * in_c;
                    let mut src = row_base + (ox_lo * sw + kx - geom.pad_w) * in_c + ci;
                    for v in &mut row[ox_lo..ox_hi] {
                        *v = input_hwc[src] as i16 - zp;
                        src += sw * in_c;
                    }
                }
            }
        }
    }
}

/// [`fill_im2col_centered_t`] for a **planar** (channel-major) source:
/// `planar[ci * in_h * in_w + iy * in_w + ix]` — the layout the compiled
/// pipeline keeps between layers (test oracle, like its NHWC sibling).
pub fn fill_im2col_centered_t_planar(
    planar: &[i8],
    geom: &ConvGeometry,
    zp: i16,
    pad_centered: i16,
    out: &mut [i16],
) {
    assert_eq!(
        planar.len(),
        geom.in_h * geom.in_w * geom.in_c,
        "input size mismatch"
    );
    fill_im2col_centered_t_planar_pitched(
        planar,
        geom,
        zp,
        pad_centered,
        out,
        geom.in_h * geom.in_w,
    );
}

/// [`fill_im2col_centered_t_planar`] with an explicit **channel pitch**:
/// channel `ci`'s plane starts at `planar[ci * plane_pitch]` instead of
/// being packed back-to-back. This is the read side of batch-major
/// activations, where a batch of `B` images stores image `b`'s channel `ci`
/// at plane `ci·B + b` — the caller passes the sub-slice starting at image
/// `b`'s first plane and `plane_pitch = B · in_h · in_w`.
pub fn fill_im2col_centered_t_planar_pitched(
    planar: &[i8],
    geom: &ConvGeometry,
    zp: i16,
    pad_centered: i16,
    out: &mut [i16],
    plane_pitch: usize,
) {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let positions = oh * ow;
    let patch = geom.patch_len();
    assert_eq!(
        out.len(),
        positions * patch,
        "transposed column buffer size mismatch"
    );
    let plane = geom.in_h * geom.in_w;
    assert!(plane_pitch >= plane, "plane pitch smaller than one plane");
    assert!(
        planar.len() >= (geom.in_c - 1) * plane_pitch + plane,
        "planar view too short for channel pitch"
    );

    let (in_c, in_w, in_h) = (geom.in_c, geom.in_w, geom.in_h);
    let (sw, sh) = (geom.stride_w, geom.stride_h);
    for ky in 0..geom.kernel_h {
        for kx in 0..geom.kernel_w {
            let lo_num = geom.pad_w as isize - kx as isize;
            let ox_lo = if lo_num > 0 {
                (lo_num as usize).div_ceil(sw)
            } else {
                0
            }
            .min(ow);
            let hi_num = in_w as isize + geom.pad_w as isize - kx as isize;
            let ox_hi = if hi_num <= 0 {
                0
            } else {
                (((hi_num - 1) as usize) / sw + 1).min(ow)
            }
            .max(ox_lo);
            for ci in 0..in_c {
                let i = (ky * geom.kernel_w + kx) * in_c + ci;
                let out_row = &mut out[i * positions..(i + 1) * positions];
                let src_plane = &planar[ci * plane_pitch..ci * plane_pitch + plane];
                let mut p = 0usize;
                for oy in 0..oh {
                    let iy = (oy * sh) as isize + ky as isize - geom.pad_h as isize;
                    let row = &mut out_row[p..p + ow];
                    p += ow;
                    if iy < 0 || iy >= in_h as isize {
                        row.fill(pad_centered);
                        continue;
                    }
                    row[..ox_lo].fill(pad_centered);
                    row[ox_hi..].fill(pad_centered);
                    if ox_lo == ox_hi {
                        continue;
                    }
                    let row_base = iy as usize * in_w;
                    let mut src = row_base + ox_lo * sw + kx - geom.pad_w;
                    if sw == 1 {
                        let src_run = &src_plane[src..src + (ox_hi - ox_lo)];
                        for (d, &v) in row[ox_lo..ox_hi].iter_mut().zip(src_run) {
                            *d = v as i16 - zp;
                        }
                    } else {
                        for v in &mut row[ox_lo..ox_hi] {
                            *v = src_plane[src] as i16 - zp;
                            src += sw;
                        }
                    }
                }
            }
        }
    }
}

/// Fill **pair-interleaved** columns directly from a planar (channel-major)
/// source — the single column fill of the compiled conv pipeline, producing
/// the layout of [`interleave_pair_rows`] without materializing natural
/// rows first.
///
/// `out` pair row `i` (pitch `2·lanes`, this image's lanes starting at
/// `lane0`) receives patch elements `2i` and `2i+1` elementwise
/// interleaved; channel `ci`'s source plane starts at
/// `planar[ci * plane_pitch]` (batch-major activations pass
/// `plane_pitch = B · in_h · in_w`). A pair past the end of an odd patch
/// gets 0 (its weight slot is always 0).
///
/// For stride-1 convolutions whose output width equals the input width
/// (`kernel_w == 2·pad_w + 1` — every same-padding conv here), each half of
/// a pair row is a shifted copy of its own plane, whatever kernel position
/// and channel it names. The fill interleaves both halves over the span
/// where both are in range, writes the (at most a few rows long) remainder
/// of each half alone, then patches each half's pad rows and pad columns —
/// so the fill vectorizes over whole planes instead of per-output-row
/// fragments. Strided and valid-padding geometries take the general
/// per-half path. Bit-exact with the two-pass reference
/// [`fill_im2col_centered_t_planar_pitched`] then [`interleave_pair_rows`]
/// (cross-checked by tests).
#[allow(clippy::too_many_arguments)]
pub fn fill_im2col_pairs_planar_pitched(
    planar: &[i8],
    geom: &ConvGeometry,
    zp: i16,
    pad_centered: i16,
    out: &mut [i16],
    lanes: usize,
    lane0: usize,
    plane_pitch: usize,
) {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let positions = oh * ow;
    let patch = geom.patch_len();
    let pair_rows = patch.div_ceil(2);
    assert!(lane0 + positions <= lanes, "lane window out of range");
    assert!(
        out.len() >= pair_rows * 2 * lanes,
        "pair-row buffer too short"
    );
    let plane = geom.in_h * geom.in_w;
    assert!(plane_pitch >= plane, "plane pitch smaller than one plane");
    assert!(
        planar.len() >= (geom.in_c - 1) * plane_pitch + plane,
        "planar view too short for channel pitch"
    );

    let (in_c, in_w, in_h) = (geom.in_c, geom.in_w, geom.in_h);
    let (sw, sh) = (geom.stride_w, geom.stride_h);
    // Valid ox range of a kernel column kx.
    let ox_range = |kx: usize| -> (usize, usize) {
        let lo_num = geom.pad_w as isize - kx as isize;
        let lo = if lo_num > 0 {
            (lo_num as usize).div_ceil(sw)
        } else {
            0
        }
        .min(ow);
        let hi_num = in_w as isize + geom.pad_w as isize - kx as isize;
        let hi = if hi_num <= 0 {
            0
        } else {
            (((hi_num - 1) as usize) / sw + 1).min(ow)
        }
        .max(lo);
        (lo, hi)
    };
    let shifted = sw == 1 && sh == 1 && ow == in_w;
    // Stride-1 same-width half: output position p reads plane element
    // p + off whenever p is a valid (row, column) position. Division-free:
    // it runs twice per pair row, and tiny interior planes make the
    // per-pair set-up count.
    let shifted_half = |(ky, kx, ci): (usize, usize, usize)| -> ShiftedHalf {
        let off =
            (ky as isize - geom.pad_h as isize) * in_w as isize + kx as isize - geom.pad_w as isize;
        let oy_lo = geom.pad_h.saturating_sub(ky).min(oh);
        // Saturating: a kernel row entirely below the input (ky ≥
        // in_h + pad_h) has no valid output rows at all.
        let oy_hi = (in_h + geom.pad_h).saturating_sub(ky).min(oh).max(oy_lo);
        let ox_lo = geom.pad_w.saturating_sub(kx).min(ow);
        let ox_hi = (in_w + geom.pad_w).saturating_sub(kx).min(ow).max(ox_lo);
        // Copy span: the valid rows, clamped so p + off stays inside the
        // plane; the clamped-off elements are pad columns.
        let mut p_lo = oy_lo * ow;
        let mut p_hi = oy_hi * ow;
        if off < 0 {
            p_lo = p_lo.max((-off) as usize);
        } else {
            p_hi = p_hi.min(plane.saturating_sub(off as usize));
        }
        ShiftedHalf {
            src: ci * plane_pitch,
            off,
            oy_lo,
            oy_hi,
            ox_lo,
            ox_hi,
            p_lo,
            p_hi: p_hi.max(p_lo),
        }
    };

    // (ky, kx, ci) of the patch element after `k`.
    let next_element = |(ky, kx, ci): (usize, usize, usize)| {
        if ci + 1 < in_c {
            (ky, kx, ci + 1)
        } else if kx + 1 < geom.kernel_w {
            (ky, kx + 1, 0)
        } else {
            (ky + 1, 0, 0)
        }
    };
    let mut k0 = (0, 0, 0);
    for pair in 0..pair_rows {
        let e0 = 2 * pair;
        let e1 = e0 + 1;
        let k1 = next_element(k0);
        let dst =
            &mut out[pair * 2 * lanes + 2 * lane0..pair * 2 * lanes + 2 * lane0 + 2 * positions];

        if shifted {
            let ha = shifted_half(k0);
            match (e1 < patch).then(|| shifted_half(k1)) {
                Some(hb) => {
                    // Joint span: both halves in range, one interleaved copy.
                    let j_lo = ha.p_lo.max(hb.p_lo);
                    let j_hi = ha.p_hi.min(hb.p_hi).max(j_lo);
                    if j_lo < j_hi {
                        let src = ha.run(planar, j_lo, j_hi).iter();
                        let src = src.zip(hb.run(planar, j_lo, j_hi));
                        for (d2, (&a, &b)) in dst[2 * j_lo..2 * j_hi].chunks_exact_mut(2).zip(src) {
                            d2[0] = a as i16 - zp;
                            d2[1] = b as i16 - zp;
                        }
                    }
                    // Then each half's remainder alone; pads last, as they
                    // overwrite whatever the copies wrapped into.
                    ha.copy_rest::<0>(planar, dst, (j_lo, j_hi), zp);
                    hb.copy_rest::<1>(planar, dst, (j_lo, j_hi), zp);
                    if ha.same_window(&hb) {
                        ha.pad::<3>(dst, ow, pad_centered);
                    } else {
                        ha.pad::<1>(dst, ow, pad_centered);
                        hb.pad::<2>(dst, ow, pad_centered);
                    }
                }
                None => {
                    // Past the end of an odd patch: the odd slot is 0.
                    for v in dst.iter_mut().skip(1).step_by(2) {
                        *v = 0;
                    }
                    ha.copy_rest::<0>(planar, dst, (ha.p_lo, ha.p_lo), zp);
                    ha.pad::<1>(dst, ow, pad_centered);
                }
            }
        } else {
            // General path: each half independently, stride-2 writes.
            for h in 0..2usize {
                let e = e0 + h;
                if e >= patch {
                    for p in 0..positions {
                        dst[2 * p + h] = 0;
                    }
                    continue;
                }
                let (ky, kx, ci) = if h == 0 { k0 } else { k1 };
                let src_plane = &planar[ci * plane_pitch..ci * plane_pitch + plane];
                let (ox_lo, ox_hi) = ox_range(kx);
                let mut p = 0usize;
                for oy in 0..oh {
                    let iy = (oy * sh) as isize + ky as isize - geom.pad_h as isize;
                    let row = &mut dst[2 * p..2 * (p + ow)];
                    p += ow;
                    if iy < 0 || iy >= in_h as isize {
                        for ox in 0..ow {
                            row[2 * ox + h] = pad_centered;
                        }
                        continue;
                    }
                    for ox in (0..ox_lo).chain(ox_hi..ow) {
                        row[2 * ox + h] = pad_centered;
                    }
                    if ox_lo == ox_hi {
                        continue;
                    }
                    let row_base = iy as usize * in_w;
                    let mut src = row_base + ox_lo * sw + kx - geom.pad_w;
                    for ox in ox_lo..ox_hi {
                        row[2 * ox + h] = src_plane[src] as i16 - zp;
                        src += sw;
                    }
                }
            }
        }
        k0 = next_element(k1);
    }
}

/// One half of a pair row under the stride-1, same-width fill: its source
/// plane, flat shift, valid output rows/columns and clamped copy span.
struct ShiftedHalf {
    /// Offset of the half's channel plane in the planar view.
    src: usize,
    /// Output position `p` reads plane element `p + off`.
    off: isize,
    oy_lo: usize,
    oy_hi: usize,
    ox_lo: usize,
    ox_hi: usize,
    /// Copy span `[p_lo, p_hi)`: every valid (row, column) position lies
    /// inside it, and `p + off` stays inside the plane over all of it.
    p_lo: usize,
    p_hi: usize,
}

impl ShiftedHalf {
    /// The source run feeding output positions `[lo, hi)` (inside the copy
    /// span).
    fn run<'a>(&self, planar: &'a [i8], lo: usize, hi: usize) -> &'a [i8] {
        let base = self.src as isize + self.off;
        &planar[(base + lo as isize) as usize..(base + hi as isize) as usize]
    }

    /// The rest of this half's copy span (slot `H`: 0 even, 1 odd) outside
    /// the joint interleaved copy over `[j_lo, j_hi)`.
    fn copy_rest<const H: usize>(
        &self,
        planar: &[i8],
        dst: &mut [i16],
        (j_lo, j_hi): (usize, usize),
        zp: i16,
    ) {
        for (lo, hi) in [
            (self.p_lo, self.p_hi.min(j_lo)),
            (self.p_lo.max(j_hi), self.p_hi),
        ] {
            if lo < hi {
                let d = dst[2 * lo..2 * hi].chunks_exact_mut(2);
                for (d2, &v) in d.zip(self.run(planar, lo, hi)) {
                    d2[H] = v as i16 - zp;
                }
            }
        }
    }

    /// Write `pad` into this half's pad rows and the pad columns of its
    /// valid rows (which also covers wrapped-around copies at the copy
    /// span's row ends), in the slots `MASK` selects (bit 0 even, bit 1
    /// odd) — both at once when the two halves share a kernel position.
    fn pad<const MASK: u8>(&self, dst: &mut [i16], ow: usize, pad: i16) {
        let set = |d2: &mut [i16]| {
            if MASK & 1 != 0 {
                d2[0] = pad;
            }
            if MASK & 2 != 0 {
                d2[1] = pad;
            }
        };
        let positions = dst.len() / 2;
        let (rows_lo, rows_hi) = (self.oy_lo * ow, self.oy_hi * ow);
        for (lo, hi) in [(0, rows_lo), (rows_hi, positions)] {
            dst[2 * lo..2 * hi].chunks_exact_mut(2).for_each(set);
        }
        // Pad columns: one strided pass down each (usually one or two).
        if rows_lo < rows_hi {
            for ox in (0..self.ox_lo).chain(self.ox_hi..ow) {
                let col = dst[2 * (rows_lo + ox)..2 * rows_hi].chunks_exact_mut(2);
                col.step_by(ow).for_each(set);
            }
        }
    }

    /// Same valid rows and columns (the two halves share a kernel position).
    fn same_window(&self, other: &Self) -> bool {
        (self.oy_lo, self.oy_hi, self.ox_lo, self.ox_hi)
            == (other.oy_lo, other.oy_hi, other.ox_lo, other.ox_hi)
    }
}

/// [`fill_im2col_pairs_planar_pitched`] for an **NHWC** source: the image
/// is first de-interleaved into `stage` (`in_c · in_h · in_w` i8, channel
/// planes back to back), then filled by the same planar pair fill. This is
/// how a conv reading NHWC activations (the model input at conv 0) gets the
/// planar path's single vectorized pass: the staging copy is one image of
/// i8 (3 KB for a 32×32×3 input), small enough to stay in L1 next to the
/// columns it feeds.
#[allow(clippy::too_many_arguments)]
pub fn fill_im2col_pairs_nhwc(
    input_hwc: &[i8],
    geom: &ConvGeometry,
    zp: i16,
    pad_centered: i16,
    stage: &mut [i8],
    out: &mut [i16],
    lanes: usize,
    lane0: usize,
) {
    let (in_c, plane) = (geom.in_c, geom.in_h * geom.in_w);
    assert_eq!(input_hwc.len(), plane * in_c, "input size mismatch");
    let stage = &mut stage[..plane * in_c];
    for (ci, dst) in stage.chunks_exact_mut(plane).enumerate() {
        for (d, &v) in dst.iter_mut().zip(input_hwc[ci..].iter().step_by(in_c)) {
            *d = v;
        }
    }
    fill_im2col_pairs_planar_pitched(stage, geom, zp, pad_centered, out, lanes, lane0, plane);
}

/// Interleave transposed column rows into the **pair-row** layout of the
/// SMLAD/VNNI-shaped conv kernels, at a lane offset inside a (possibly
/// batched) destination.
///
/// Source: natural transposed rows, `rows[i * positions + p]` (patch
/// element `i`, output position `p`). Destination: pair row `i` holds patch
/// elements `2i` and `2i+1` interleaved elementwise —
/// `out[i * 2·lanes + 2·(lane0 + p)] = rows[2i · positions + p]` and
/// `out[… + 1] = rows[(2i+1) · positions + p]` — so one weight-pair
/// broadcast consumes both products of a lane with a single i16-pair
/// multiply-add. For odd `patch` the final pair's second half is
/// zero-filled; its weight slot is always 0, so the value never matters
/// (kept at 0 for determinism).
///
/// `lanes` is the destination's lane count per pair row (`B · positions`
/// for a batch of `B` images); `lane0` is where this image's lanes start.
///
/// The second pass of the two-pass reference fill (after
/// [`fill_im2col_centered_t`]); the engines use the single-pass pair fills
/// and tests check them against this.
pub fn interleave_pair_rows(
    rows: &[i16],
    positions: usize,
    patch: usize,
    out: &mut [i16],
    lanes: usize,
    lane0: usize,
) {
    assert!(rows.len() >= positions * patch, "source rows too short");
    assert!(lane0 + positions <= lanes, "lane window out of range");
    let pair_rows = patch.div_ceil(2);
    assert!(
        out.len() >= pair_rows * 2 * lanes,
        "pair-row buffer too short"
    );
    for i in 0..patch / 2 {
        let a = &rows[(2 * i) * positions..(2 * i + 1) * positions];
        let b = &rows[(2 * i + 1) * positions..(2 * i + 2) * positions];
        let dst = &mut out[i * 2 * lanes + 2 * lane0..i * 2 * lanes + 2 * lane0 + 2 * positions];
        for p in 0..positions {
            dst[2 * p] = a[p];
            dst[2 * p + 1] = b[p];
        }
    }
    if patch % 2 == 1 {
        let i = patch / 2;
        let a = &rows[(patch - 1) * positions..patch * positions];
        let dst = &mut out[i * 2 * lanes + 2 * lane0..i * 2 * lanes + 2 * lane0 + 2 * positions];
        for p in 0..positions {
            dst[2 * p] = a[p];
            dst[2 * p + 1] = 0;
        }
    }
}

/// f32 variant used by the training substrate.
pub fn im2col_f32(input_hwc: &[f32], geom: &ConvGeometry) -> Vec<f32> {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let patch = geom.patch_len();
    let mut cols = vec![0.0f32; oh * ow * patch];
    let mut col_base = 0usize;
    for oy in 0..oh {
        let iy0 = (oy * geom.stride_h) as isize - geom.pad_h as isize;
        for ox in 0..ow {
            let ix0 = (ox * geom.stride_w) as isize - geom.pad_w as isize;
            let mut i = col_base;
            for ky in 0..geom.kernel_h {
                let iy = iy0 + ky as isize;
                for kx in 0..geom.kernel_w {
                    let ix = ix0 + kx as isize;
                    if iy < 0 || iy >= geom.in_h as isize || ix < 0 || ix >= geom.in_w as isize {
                        i += geom.in_c;
                        continue;
                    }
                    let src = (iy as usize * geom.in_w + ix as usize) * geom.in_c;
                    cols[i..i + geom.in_c].copy_from_slice(&input_hwc[src..src + geom.in_c]);
                    i += geom.in_c;
                }
            }
            col_base += patch;
        }
    }
    cols
}

/// Per-output-position flat input offsets for direct (im2col-free)
/// addressing, as the unpacked generated code uses.
///
/// Returns a vector of length `out_positions * patch_len`; `usize::MAX`
/// marks a padding element (the generated code simply emits no instruction
/// for those, since `pad` contributes zero after offset correction).
pub const PAD_OFFSET: usize = usize::MAX;

/// Build the offset table. Patch element order matches [`im2col_i8`]:
/// `(ky, kx, ci)` row-major.
pub fn patch_offsets(geom: &ConvGeometry) -> Vec<usize> {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let patch = geom.patch_len();
    let mut offs = vec![PAD_OFFSET; oh * ow * patch];
    let mut base = 0usize;
    for oy in 0..oh {
        let iy0 = (oy * geom.stride_h) as isize - geom.pad_h as isize;
        for ox in 0..ow {
            let ix0 = (ox * geom.stride_w) as isize - geom.pad_w as isize;
            let mut i = base;
            for ky in 0..geom.kernel_h {
                let iy = iy0 + ky as isize;
                for kx in 0..geom.kernel_w {
                    let ix = ix0 + kx as isize;
                    let inside =
                        iy >= 0 && iy < geom.in_h as isize && ix >= 0 && ix < geom.in_w as isize;
                    for ci in 0..geom.in_c {
                        if inside {
                            offs[i] = (iy as usize * geom.in_w + ix as usize) * geom.in_c + ci;
                        }
                        i += 1;
                    }
                }
            }
            base += patch;
        }
    }
    offs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_geom() -> ConvGeometry {
        ConvGeometry {
            in_h: 4,
            in_w: 4,
            in_c: 2,
            out_c: 3,
            kernel_h: 3,
            kernel_w: 3,
            pad_h: 1,
            pad_w: 1,
            stride_h: 1,
            stride_w: 1,
        }
    }

    #[test]
    fn im2col_center_patch_is_exact_copy() {
        let geom = small_geom();
        let input: Vec<i8> = (0..32).map(|v| v as i8).collect();
        let cols = im2col_i8(&input, &geom, -9);
        let patch = geom.patch_len();
        // Output position (1,1): receptive field rows 0..3, cols 0..3, fully inside.
        let p = (geom.out_w() + 1) * patch;
        let col = &cols[p..p + patch];
        let mut want = Vec::new();
        for ky in 0..3 {
            for kx in 0..3 {
                for ci in 0..2 {
                    want.push(input[(ky * 4 + kx) * 2 + ci]);
                }
            }
        }
        assert_eq!(col, &want[..]);
    }

    #[test]
    fn im2col_corners_are_padded() {
        let geom = small_geom();
        let input: Vec<i8> = vec![1; 32];
        let cols = im2col_i8(&input, &geom, -9);
        let patch = geom.patch_len();
        // Output (0,0): kernel row 0 and kernel col 0 fall outside.
        let col = &cols[0..patch];
        // first kernel row (3 positions * 2 ch) is padding
        assert!(col[..6].iter().all(|&v| v == -9));
        // kernel (1,0) also padding
        assert!(col[6..8].iter().all(|&v| v == -9));
        // kernel (1,1) maps to input (0,0)
        assert_eq!(&col[8..10], &[1, 1]);
    }

    #[test]
    fn offsets_agree_with_im2col() {
        let geom = small_geom();
        let input: Vec<i8> = (0..32).map(|v| (v as i8).wrapping_mul(3)).collect();
        let pad = 42_i8;
        let cols = im2col_i8(&input, &geom, pad);
        let offs = patch_offsets(&geom);
        assert_eq!(cols.len(), offs.len());
        for (i, &o) in offs.iter().enumerate() {
            let want = if o == PAD_OFFSET { pad } else { input[o] };
            assert_eq!(cols[i], want, "element {i}");
        }
    }

    #[test]
    fn transposed_centered_matches_plain_im2col() {
        let geoms = [
            small_geom(),
            // kernel 1, no padding
            ConvGeometry {
                in_h: 5,
                in_w: 4,
                in_c: 3,
                out_c: 2,
                kernel_h: 1,
                kernel_w: 1,
                pad_h: 0,
                pad_w: 0,
                stride_h: 1,
                stride_w: 1,
            },
            // strided with padding
            ConvGeometry {
                in_h: 7,
                in_w: 6,
                in_c: 2,
                out_c: 2,
                kernel_h: 3,
                kernel_w: 3,
                pad_h: 1,
                pad_w: 1,
                stride_h: 2,
                stride_w: 2,
            },
            // wide kernel exceeding half the input
            ConvGeometry {
                in_h: 4,
                in_w: 4,
                in_c: 1,
                out_c: 1,
                kernel_h: 5,
                kernel_w: 5,
                pad_h: 2,
                pad_w: 2,
                stride_h: 1,
                stride_w: 1,
            },
        ];
        for (g, geom) in geoms.iter().enumerate() {
            let len = geom.in_h * geom.in_w * geom.in_c;
            let input: Vec<i8> = (0..len).map(|v| (v as i8).wrapping_mul(5)).collect();
            let zp = -3i16;
            let pad = zp.clamp(-128, 127) as i8;
            let cols = im2col_i8(&input, geom, pad);
            let positions = geom.out_positions();
            let patch = geom.patch_len();
            let mut t = vec![99i16; positions * patch];
            fill_im2col_centered_t(&input, geom, zp, pad as i16 - zp, &mut t);
            // Planar variant on the channel-major permutation of the input.
            let plane = geom.in_h * geom.in_w;
            let mut planar = vec![0i8; len];
            for pix in 0..plane {
                for ci in 0..geom.in_c {
                    planar[ci * plane + pix] = input[pix * geom.in_c + ci];
                }
            }
            let mut tp = vec![99i16; positions * patch];
            fill_im2col_centered_t_planar(&planar, geom, zp, pad as i16 - zp, &mut tp);
            for p in 0..positions {
                for i in 0..patch {
                    let want = cols[p * patch + i] as i16 - zp;
                    assert_eq!(t[i * positions + p], want, "geom {g} p {p} i {i}");
                    assert_eq!(tp[i * positions + p], want, "planar geom {g} p {p} i {i}");
                }
            }
        }
    }

    #[test]
    fn pitched_planar_fill_matches_packed_planar_fill() {
        let geom = small_geom();
        let len = geom.in_h * geom.in_w * geom.in_c;
        let plane = geom.in_h * geom.in_w;
        let positions = geom.out_positions();
        let patch = geom.patch_len();
        let planar: Vec<i8> = (0..len).map(|v| (v as i8).wrapping_mul(11)).collect();
        let zp = 4i16;
        let mut want = vec![0i16; positions * patch];
        fill_im2col_centered_t_planar(&planar, &geom, zp, 0, &mut want);
        // Scatter the packed planes into a pitched buffer (pitch = 3 planes)
        // and check the pitched fill reads through the gaps identically.
        let pitch = 3 * plane;
        let mut spread = vec![0i8; (geom.in_c - 1) * pitch + plane];
        for ci in 0..geom.in_c {
            spread[ci * pitch..ci * pitch + plane]
                .copy_from_slice(&planar[ci * plane..(ci + 1) * plane]);
        }
        let mut got = vec![0i16; positions * patch];
        fill_im2col_centered_t_planar_pitched(&spread, &geom, zp, 0, &mut got, pitch);
        assert_eq!(got, want);
    }

    #[test]
    fn fused_pair_fill_matches_two_pass_reference() {
        // Geometries covering the shifted fast path (stride 1,
        // ow == in_w) with even and odd channels, strides, valid padding,
        // 1×1.
        let geoms = [
            ConvGeometry {
                in_h: 6,
                in_w: 6,
                in_c: 4,
                out_c: 2,
                kernel_h: 3,
                kernel_w: 3,
                pad_h: 1,
                pad_w: 1,
                stride_h: 1,
                stride_w: 1,
            },
            ConvGeometry {
                in_h: 5,
                in_w: 7,
                in_c: 3,
                out_c: 2,
                kernel_h: 3,
                kernel_w: 3,
                pad_h: 1,
                pad_w: 1,
                stride_h: 1,
                stride_w: 1,
            },
            ConvGeometry {
                in_h: 7,
                in_w: 6,
                in_c: 2,
                out_c: 2,
                kernel_h: 3,
                kernel_w: 3,
                pad_h: 1,
                pad_w: 1,
                stride_h: 2,
                stride_w: 2,
            },
            ConvGeometry {
                in_h: 6,
                in_w: 6,
                in_c: 2,
                out_c: 2,
                kernel_h: 3,
                kernel_w: 3,
                pad_h: 0,
                pad_w: 0,
                stride_h: 1,
                stride_w: 1,
            },
            ConvGeometry {
                in_h: 4,
                in_w: 4,
                in_c: 5,
                out_c: 2,
                kernel_h: 1,
                kernel_w: 1,
                pad_h: 0,
                pad_w: 0,
                stride_h: 1,
                stride_w: 1,
            },
            ConvGeometry {
                in_h: 4,
                in_w: 4,
                in_c: 1,
                out_c: 1,
                kernel_h: 5,
                kernel_w: 5,
                pad_h: 2,
                pad_w: 2,
                stride_h: 1,
                stride_w: 1,
            },
            // Kernel taller than the padded input: bottom kernel rows have
            // no valid output rows (regression: oy_hi/p_hi underflow).
            ConvGeometry {
                in_h: 1,
                in_w: 5,
                in_c: 2,
                out_c: 1,
                kernel_h: 5,
                kernel_w: 5,
                pad_h: 2,
                pad_w: 2,
                stride_h: 1,
                stride_w: 1,
            },
        ];
        for (g, geom) in geoms.iter().enumerate() {
            let plane = geom.in_h * geom.in_w;
            let positions = geom.out_positions();
            let patch = geom.patch_len();
            let pair_rows = patch.div_ceil(2);
            // Pitched planar source (pitch of 2 planes, batch-like).
            let pitch = 2 * plane;
            let mut planar = vec![0i8; (geom.in_c - 1) * pitch + plane];
            for (i, v) in planar.iter_mut().enumerate() {
                *v = (i as i8).wrapping_mul(7);
            }
            let zp = -5i16;
            let pad = 3i16;
            // Reference: natural pitched fill + interleave, at a lane offset.
            let lanes = positions + 4;
            let lane0 = 2usize;
            let mut rows = vec![0i16; positions * patch];
            fill_im2col_centered_t_planar_pitched(&planar, geom, zp, pad, &mut rows, pitch);
            let mut want = vec![0i16; pair_rows * 2 * lanes];
            interleave_pair_rows(&rows, positions, patch, &mut want, lanes, lane0);
            let mut got = vec![0i16; pair_rows * 2 * lanes];
            fill_im2col_pairs_planar_pitched(&planar, geom, zp, pad, &mut got, lanes, lane0, pitch);
            for i in 0..pair_rows {
                let w = &want[i * 2 * lanes + 2 * lane0..i * 2 * lanes + 2 * (lane0 + positions)];
                let o = &got[i * 2 * lanes + 2 * lane0..i * 2 * lanes + 2 * (lane0 + positions)];
                assert_eq!(o, w, "geom {g} pair row {i}");
            }
        }
    }

    /// Oracle for the pair fills: the two-pass NHWC fill + interleave at a
    /// lane offset, compared pair row by pair row inside the lane window.
    fn two_pass_pairs(
        input_hwc: &[i8],
        geom: &ConvGeometry,
        zp: i16,
        pad: i16,
        lanes: usize,
        lane0: usize,
    ) -> Vec<i16> {
        let (positions, patch) = (geom.out_positions(), geom.patch_len());
        let mut rows = vec![0i16; positions * patch];
        fill_im2col_centered_t(input_hwc, geom, zp, pad, &mut rows);
        let mut want = vec![0i16; patch.div_ceil(2) * 2 * lanes];
        interleave_pair_rows(&rows, positions, patch, &mut want, lanes, lane0);
        want
    }

    #[test]
    fn pair_fill_crosses_kernel_positions_bit_exact() {
        // Odd channel counts put pairs across kernel-position (and
        // kernel-row) boundaries; one-row / one-column inputs leave halves
        // with no valid rows or columns at all.
        let mut checked = 0;
        for in_c in [1usize, 3, 5] {
            for k in [3usize, 5] {
                for (in_h, in_w) in [(1usize, 7usize), (6, 1), (1, 1), (5, 6), (7, 4)] {
                    for (pad, stride) in [(k / 2, 1usize), (0, 1), (k / 2, 2)] {
                        if in_h + 2 * pad < k || in_w + 2 * pad < k {
                            continue;
                        }
                        let geom = ConvGeometry {
                            in_h,
                            in_w,
                            in_c,
                            out_c: 1,
                            kernel_h: k,
                            kernel_w: k,
                            pad_h: pad,
                            pad_w: pad,
                            stride_h: stride,
                            stride_w: stride,
                        };
                        let plane = in_h * in_w;
                        let len = plane * in_c;
                        let input: Vec<i8> = (0..len)
                            .map(|v| (v as i8).wrapping_mul(37).wrapping_add(11))
                            .collect();
                        let (zp, pad_c) = (-7i16, 5i16);
                        let positions = geom.out_positions();
                        let pair_rows = geom.patch_len().div_ceil(2);
                        let (lanes, lane0) = (positions + 5, 3usize);
                        let want = two_pass_pairs(&input, &geom, zp, pad_c, lanes, lane0);
                        let window = |buf: &[i16], i: usize| -> Vec<i16> {
                            buf[i * 2 * lanes + 2 * lane0..i * 2 * lanes + 2 * (lane0 + positions)]
                                .to_vec()
                        };
                        // Pitched planar source (3 planes per channel).
                        let pitch = 3 * plane;
                        let mut planar = vec![99i8; (in_c - 1) * pitch + plane];
                        for pix in 0..plane {
                            for ci in 0..in_c {
                                planar[ci * pitch + pix] = input[pix * in_c + ci];
                            }
                        }
                        let mut got = vec![-1i16; pair_rows * 2 * lanes];
                        fill_im2col_pairs_planar_pitched(
                            &planar, &geom, zp, pad_c, &mut got, lanes, lane0, pitch,
                        );
                        // NHWC staging entry point.
                        let mut stage = vec![0i8; len + 4];
                        let mut got_nhwc = vec![-1i16; pair_rows * 2 * lanes];
                        fill_im2col_pairs_nhwc(
                            &input,
                            &geom,
                            zp,
                            pad_c,
                            &mut stage,
                            &mut got_nhwc,
                            lanes,
                            lane0,
                        );
                        for i in 0..pair_rows {
                            let tag =
                                format!("c{in_c} k{k} {in_h}x{in_w} p{pad} s{stride} row {i}");
                            assert_eq!(window(&got, i), window(&want, i), "planar {tag}");
                            assert_eq!(window(&got_nhwc, i), window(&want, i), "nhwc {tag}");
                        }
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked >= 40, "only {checked} geometries checked");
    }

    #[test]
    fn pair_interleave_round_trips_rows() {
        // Odd patch length exercises the zero-filled final half-pair.
        for (positions, patch) in [(7usize, 5usize), (8, 6), (1, 1)] {
            let rows: Vec<i16> = (0..positions * patch).map(|v| v as i16 - 20).collect();
            // Batched destination: 2 images' lanes, this image at lane 3.
            let lanes = positions + 5;
            let pair_rows = patch.div_ceil(2);
            let mut out = vec![77i16; pair_rows * 2 * lanes];
            interleave_pair_rows(&rows, positions, patch, &mut out, lanes, 3);
            for i in 0..pair_rows {
                for p in 0..positions {
                    let got0 = out[i * 2 * lanes + 2 * (3 + p)];
                    let got1 = out[i * 2 * lanes + 2 * (3 + p) + 1];
                    assert_eq!(got0, rows[(2 * i) * positions + p], "even {i} {p}");
                    let want1 = if 2 * i + 1 < patch {
                        rows[(2 * i + 1) * positions + p]
                    } else {
                        0
                    };
                    assert_eq!(got1, want1, "odd {i} {p}");
                }
            }
        }
    }

    #[test]
    fn strided_no_padding() {
        let geom = ConvGeometry {
            in_h: 4,
            in_w: 4,
            in_c: 1,
            out_c: 1,
            kernel_h: 2,
            kernel_w: 2,
            pad_h: 0,
            pad_w: 0,
            stride_h: 2,
            stride_w: 2,
        };
        let input: Vec<i8> = (0..16).map(|v| v as i8).collect();
        let cols = im2col_i8(&input, &geom, 0);
        assert_eq!(geom.out_h(), 2);
        assert_eq!(cols.len(), 4 * 4);
        // position (0,0): input (0,0),(0,1),(1,0),(1,1) = 0,1,4,5
        assert_eq!(&cols[0..4], &[0, 1, 4, 5]);
        // position (1,1): input (2,2),(2,3),(3,2),(3,3) = 10,11,14,15
        assert_eq!(&cols[12..16], &[10, 11, 14, 15]);
    }

    #[test]
    fn f32_matches_i8_structure() {
        let geom = small_geom();
        let input_i8: Vec<i8> = (0..32).map(|v| v as i8).collect();
        let input_f32: Vec<f32> = input_i8.iter().map(|&v| v as f32).collect();
        let a = im2col_i8(&input_i8, &geom, 0);
        let b = im2col_f32(&input_f32, &geom);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(*x as f32, *y);
        }
    }
}
