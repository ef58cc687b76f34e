//! Bit-exact int8 reference forward pass, with optional skip masks.
//!
//! This is the hot path of the DSE: each of the thousands of explored
//! configurations evaluates classification accuracy by running this forward
//! over the evaluation set with its skip masks. The implementation therefore
//! keeps tight, allocation-reused inner loops (centered i16 columns × i8
//! weights), no cycle accounting, and rayon parallelism *across images*.

use crate::plan::{
    AddSegment, ConvSegment, DenseSegment, ExecBackend, ExecPlan, GapSegment, LogitsSegment,
    PoolSegment,
};
use crate::qmodel::{QConv, QDense, QLayer, QuantModel};
use cifar10sim::Dataset;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use tinytensor::im2col::fill_im2col_i8;
use tinytensor::quant::{avg_round, requantize_to_i8};

/// Callback receiving `(conv_ordinal, layer, centered_cols)` during an
/// inspected forward pass.
pub type Inspector<'a> = dyn FnMut(usize, &QConv, &[i16]) + 'a;

/// Skip masks for the convolution layers of one approximate configuration.
///
/// `per_conv[k]` (by conv *ordinal*, not layer index) holds, when present,
/// a boolean per `(out_channel, patch_index)` product — `true` means the
/// product is **skipped** (omitted from the generated code), exactly
/// Eq. (3): `Sum'_c = b + Σ a_i·w_i − Σ_{i: S_i ≤ τ} a_i·w_i`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SkipMaskSet {
    /// One optional mask per conv layer, length `out_c · patch_len`.
    pub per_conv: Vec<Option<Vec<bool>>>,
}

impl SkipMaskSet {
    /// No approximation anywhere.
    pub fn none(n_convs: usize) -> Self {
        Self {
            per_conv: vec![None; n_convs],
        }
    }

    /// True when no mask skips anything.
    pub fn is_noop(&self) -> bool {
        self.per_conv
            .iter()
            .all(|m| m.as_ref().is_none_or(|v| v.iter().all(|&s| !s)))
    }

    /// Number of skipped products in conv ordinal `k`, weighted by how many
    /// output positions execute them (i.e. skipped MACs for that layer).
    pub fn skipped_macs(&self, model: &QuantModel) -> u64 {
        let mut total = 0u64;
        for (k, idx) in model.conv_indices().into_iter().enumerate() {
            if let (Some(mask), QLayer::Conv(c)) = (&self.per_conv[k], &model.layers[idx]) {
                let skipped_products = mask.iter().filter(|&&s| s).count() as u64;
                total += skipped_products * c.geom.out_positions() as u64;
            }
        }
        total
    }
}

/// Reusable per-thread scratch buffers for the reference forward pass.
pub(crate) struct ForwardScratch {
    /// The lowered execution plan every walker over this scratch follows.
    plan: ExecPlan,
    act_a: Vec<i8>,
    act_b: Vec<i8>,
    cols: Vec<i8>,
    centered: Vec<i16>,
    /// Residual stash buffers, one per plan stash slot (NHWC, like every
    /// reference activation).
    stash: Vec<Vec<i8>>,
}

impl ForwardScratch {
    /// Scratch sized for the largest activation / im2col buffer of `model`.
    pub(crate) fn for_model(model: &QuantModel) -> Self {
        let plan = ExecPlan::lower(model);
        let max_act = plan.max_act();
        let max_cols = plan.max_cols();
        let stash = plan.stash_lens().iter().map(|&l| vec![0; l]).collect();
        Self {
            plan,
            act_a: vec![0; max_act],
            act_b: vec![0; max_act],
            cols: vec![0; max_cols],
            centered: vec![0; max_cols],
            stash,
        }
    }
}

impl QuantModel {
    /// Quantize a `[0,1]` f32 image into the model's input domain.
    pub fn quantize_input(&self, image: &[f32]) -> Vec<i8> {
        image.iter().map(|&v| self.input_qp.quantize(v)).collect()
    }

    /// Reference forward on a quantized input; returns the final int8
    /// activation (logits in the quantized domain).
    pub fn forward_quantized(&self, qinput: &[i8], masks: Option<&SkipMaskSet>) -> Vec<i8> {
        let mut scratch = ForwardScratch::for_model(self);
        self.forward_scratch_inspect(qinput, masks, &mut scratch, &mut None)
    }

    /// Forward pass that additionally hands every convolution layer's
    /// *centered* im2col columns (`a_i − zero_point`, padding already 0) to
    /// `inspector(conv_ordinal, layer, centered_cols)`.
    ///
    /// This is the capture point for the significance analysis: Eq. (2)
    /// needs `E[a_i]` over calibration images and output positions, and the
    /// centered column buffer is exactly the `a_i` stream of Eq. (1).
    pub fn forward_inspect(
        &self,
        qinput: &[i8],
        masks: Option<&SkipMaskSet>,
        inspector: &mut Inspector<'_>,
    ) -> Vec<i8> {
        let mut scratch = ForwardScratch::for_model(self);
        let mut ins: Option<&mut Inspector<'_>> = Some(inspector);
        self.forward_scratch_inspect(qinput, masks, &mut scratch, &mut ins)
    }

    /// Forward reusing caller scratch (the batch paths allocate once per
    /// thread, not once per image).
    fn forward_scratch(
        &self,
        qinput: &[i8],
        masks: Option<&SkipMaskSet>,
        s: &mut ForwardScratch,
    ) -> Vec<i8> {
        self.forward_scratch_inspect(qinput, masks, s, &mut None)
    }

    fn forward_scratch_inspect(
        &self,
        qinput: &[i8],
        masks: Option<&SkipMaskSet>,
        s: &mut ForwardScratch,
        inspector: &mut Option<&mut Inspector<'_>>,
    ) -> Vec<i8> {
        assert_eq!(
            qinput.len(),
            self.input_shape.item_len(),
            "input length mismatch"
        );
        let cur_len = qinput.len();
        s.act_a[..cur_len].copy_from_slice(qinput);
        let ForwardScratch {
            plan,
            act_a,
            act_b,
            cols,
            centered,
            stash,
        } = s;
        let mut backend = RefBackend {
            model: self,
            masks,
            inspector,
            act_a,
            act_b,
            cols,
            centered,
            stash,
            cur_len,
            in_a: true,
        };
        plan.execute(&mut backend);
        let in_a = backend.in_a;
        let n = s.plan.logits_len();
        let fin = if in_a { &s.act_a[..n] } else { &s.act_b[..n] };
        fin.to_vec()
    }

    /// Full reference inference from an f32 image.
    pub fn forward(&self, image: &[f32]) -> Vec<i8> {
        self.forward_quantized(&self.quantize_input(image), None)
    }

    /// Predicted class.
    pub fn predict(&self, image: &[f32]) -> usize {
        argmax_i8(&self.forward(image))
    }

    /// Top-1 accuracy over a dataset, optionally with skip masks.
    /// Rayon-parallel across images; deterministic (pure per-image work).
    pub fn accuracy(&self, data: &Dataset, masks: Option<&SkipMaskSet>) -> f32 {
        if data.is_empty() {
            return 0.0;
        }
        let correct: usize = (0..data.len())
            .into_par_iter()
            .map_init(
                || ForwardScratch::for_model(self),
                |scratch, i| {
                    let q = self.quantize_input(data.image(i));
                    let logits = self.forward_scratch(&q, masks, scratch);
                    usize::from(argmax_i8(&logits) == data.labels[i] as usize)
                },
            )
            .sum();
        correct as f32 / data.len() as f32
    }
}

/// The boolean-mask reference backend: NHWC activations ping-ponging
/// between two scratch buffers, branchy masked conv kernel, optional
/// centered-column inspector (the significance capture point).
struct RefBackend<'r, 'm, 'i1, 'i2> {
    model: &'m QuantModel,
    masks: Option<&'r SkipMaskSet>,
    inspector: &'r mut Option<&'i1 mut Inspector<'i2>>,
    act_a: &'r mut Vec<i8>,
    act_b: &'r mut Vec<i8>,
    cols: &'r mut Vec<i8>,
    centered: &'r mut Vec<i16>,
    /// Residual stash buffers (NHWC, like every reference activation).
    stash: &'r mut Vec<Vec<i8>>,
    cur_len: usize,
    /// Current activation lives in `act_a`.
    in_a: bool,
}

impl RefBackend<'_, '_, '_, '_> {
    #[inline(always)]
    fn advance(&mut self, out_len: usize) {
        self.cur_len = out_len;
        self.in_a = !self.in_a;
    }
}

impl ExecBackend for RefBackend<'_, '_, '_, '_> {
    #[inline]
    fn conv(&mut self, seg: &ConvSegment) {
        let c = self.model.conv_at(seg.layer_idx);
        let (src, dst) = if self.in_a {
            (&self.act_a[..], &mut self.act_b[..])
        } else {
            (&self.act_b[..], &mut self.act_a[..])
        };
        let mask = self.masks.and_then(|m| m.per_conv[seg.ordinal].as_deref());
        conv_forward(
            c,
            &src[..self.cur_len],
            &mut dst[..seg.out_len],
            mask,
            self.cols,
            self.centered,
        );
        if let Some(ins) = self.inspector.as_deref_mut() {
            ins(seg.ordinal, c, &self.centered[..seg.positions * seg.patch]);
        }
        self.advance(seg.out_len);
    }

    #[inline]
    fn pool(&mut self, seg: &PoolSegment) {
        let (src, dst) = if self.in_a {
            (&self.act_a[..], &mut self.act_b[..])
        } else {
            (&self.act_b[..], &mut self.act_a[..])
        };
        pool_forward(
            seg.in_h,
            seg.in_w,
            seg.c,
            &src[..self.cur_len],
            &mut dst[..seg.out_len],
        );
        self.advance(seg.out_len);
    }

    #[inline]
    fn global_avg_pool(&mut self, seg: &GapSegment) {
        let (src, dst) = if self.in_a {
            (&self.act_a[..], &mut self.act_b[..])
        } else {
            (&self.act_b[..], &mut self.act_a[..])
        };
        gap_forward_nhwc(
            seg.positions,
            seg.c,
            &src[..self.cur_len],
            &mut dst[..seg.out_len],
        );
        self.advance(seg.out_len);
    }

    #[inline]
    fn dense(&mut self, seg: &DenseSegment) {
        let d = self.model.dense_at(seg.layer_idx);
        let (src, dst) = if self.in_a {
            (&self.act_a[..], &mut self.act_b[..])
        } else {
            (&self.act_b[..], &mut self.act_a[..])
        };
        dense_forward(d, &src[..self.cur_len], &mut dst[..seg.out_dim]);
        self.advance(seg.out_dim);
    }

    #[inline(never)]
    fn add(&mut self, seg: &AddSegment) {
        // The reference path is NHWC throughout, so both operands share one
        // layout and the join is plain elementwise two-input requantization.
        let a = self.model.add_at(seg.layer_idx);
        let (src, dst) = if self.in_a {
            (&self.act_a[..], &mut self.act_b[..])
        } else {
            (&self.act_b[..], &mut self.act_a[..])
        };
        let lhs = &self.stash[seg.slot][..seg.len];
        for ((d, &l), &r) in dst[..seg.len].iter_mut().zip(lhs).zip(&src[..seg.len]) {
            *d = a.apply(l, r);
        }
        self.advance(seg.len);
    }

    #[inline(never)]
    fn stash(&mut self, slot: usize, len: usize) {
        let src = if self.in_a {
            &self.act_a[..len]
        } else {
            &self.act_b[..len]
        };
        self.stash[slot][..len].copy_from_slice(src);
    }

    #[inline]
    fn logits(&mut self, _seg: &LogitsSegment) {
        // The reference path is NHWC throughout: nothing to normalize.
    }
}

/// Argmax over int8 logits (first index on ties).
pub fn argmax_i8(xs: &[i8]) -> usize {
    let mut best = 0usize;
    for (i, &v) in xs.iter().enumerate() {
        if v > xs[best] {
            best = i;
        }
    }
    best
}

/// im2col + centering for one conv layer: fills `centered[..positions*patch]`
/// with `a_i − zero_point` (padding contributing exactly 0).
pub(crate) fn prepare_centered_cols(
    c: &QConv,
    input: &[i8],
    cols: &mut [i8],
    centered: &mut [i16],
) {
    let geom = &c.geom;
    let patch = geom.patch_len();
    let positions = geom.out_positions();
    let zp = c.in_qp.zero_point;
    let pad = zp.clamp(-128, 127) as i8;
    let cols = &mut cols[..positions * patch];
    fill_im2col_i8(input, geom, pad, cols);
    // Center once: (x - zp) fits i16.
    let centered = &mut centered[..positions * patch];
    for (dst, &v) in centered.iter_mut().zip(cols.iter()) {
        *dst = v as i16 - zp as i16;
    }
}

fn conv_forward(
    c: &QConv,
    input: &[i8],
    output: &mut [i8],
    mask: Option<&[bool]>,
    cols: &mut [i8],
    centered: &mut [i16],
) {
    let geom = &c.geom;
    let patch = geom.patch_len();
    let positions = geom.out_positions();
    let out_c = geom.out_c;
    prepare_centered_cols(c, input, cols, centered);
    let centered = &centered[..positions * patch];
    let (lo, hi) = c.act_bounds();
    let out_zp = c.out_qp.zero_point;

    match mask {
        None => {
            for p in 0..positions {
                let col = &centered[p * patch..(p + 1) * patch];
                let orow = &mut output[p * out_c..(p + 1) * out_c];
                for (o, out) in orow.iter_mut().enumerate() {
                    let w = &c.weights[o * patch..(o + 1) * patch];
                    let mut acc = c.bias[o];
                    for i in 0..patch {
                        acc += col[i] as i32 * w[i] as i32;
                    }
                    *out = clamp_out(acc, c, out_zp, lo, hi);
                }
            }
        }
        Some(mask) => {
            for p in 0..positions {
                let col = &centered[p * patch..(p + 1) * patch];
                let orow = &mut output[p * out_c..(p + 1) * out_c];
                for (o, out) in orow.iter_mut().enumerate() {
                    let w = &c.weights[o * patch..(o + 1) * patch];
                    let m = &mask[o * patch..(o + 1) * patch];
                    let mut acc = c.bias[o];
                    for i in 0..patch {
                        if !m[i] {
                            acc += col[i] as i32 * w[i] as i32;
                        }
                    }
                    *out = clamp_out(acc, c, out_zp, lo, hi);
                }
            }
        }
    }
}

#[inline(always)]
pub(crate) fn clamp_out(acc: i32, c: &QConv, out_zp: i32, lo: i32, hi: i32) -> i8 {
    let v = requantize_to_i8(acc, c.mult, out_zp) as i32;
    v.clamp(lo, hi) as i8
}

pub(crate) fn pool_forward(in_h: usize, in_w: usize, ch: usize, input: &[i8], output: &mut [i8]) {
    let (oh, ow) = (in_h / 2, in_w / 2);
    for oy in 0..oh {
        for ox in 0..ow {
            for c in 0..ch {
                let i00 = ((oy * 2) * in_w + ox * 2) * ch + c;
                let i01 = i00 + ch;
                let i10 = i00 + in_w * ch;
                let i11 = i10 + ch;
                let m = input[i00].max(input[i01]).max(input[i10]).max(input[i11]);
                output[(oy * ow + ox) * ch + c] = m;
            }
        }
    }
}

/// Global average pool over NHWC activations: one rounding integer mean
/// per channel ([`tinytensor::quant::avg_round`] — the shared output stage
/// of every engine's GAP kernel).
pub(crate) fn gap_forward_nhwc(positions: usize, ch: usize, input: &[i8], output: &mut [i8]) {
    debug_assert_eq!(input.len(), positions * ch);
    debug_assert_eq!(output.len(), ch);
    for (c, out) in output.iter_mut().enumerate() {
        let mut sum = 0i32;
        for p in 0..positions {
            sum += input[p * ch + c] as i32;
        }
        *out = avg_round(sum, positions as i32);
    }
}

pub(crate) fn dense_forward(d: &QDense, input: &[i8], output: &mut [i8]) {
    let zp = d.in_qp.zero_point;
    let (lo, hi) = d.act_bounds();
    let out_zp = d.out_qp.zero_point;
    for (o, out) in output.iter_mut().enumerate() {
        let w = &d.weights[o * d.in_dim..(o + 1) * d.in_dim];
        let mut acc = d.bias[o];
        for i in 0..d.in_dim {
            acc += (input[i] as i32 - zp) * w[i] as i32;
        }
        let v = requantize_to_i8(acc, d.mult, out_zp) as i32;
        *out = v.clamp(lo, hi) as i8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::calibrate_ranges;
    use crate::qmodel::quantize_model;
    use cifar10sim::DatasetConfig;
    use tinynn::{SgdConfig, Trainer};

    fn trained_quantized() -> (tinynn::Sequential, QuantModel, cifar10sim::SyntheticCifar) {
        let data = cifar10sim::generate(DatasetConfig::tiny(31));
        let mut m = tinynn::zoo::mini_cifar(3);
        let mut t = Trainer::new(SgdConfig {
            epochs: 12,
            lr: 0.08,
            ..Default::default()
        });
        t.train(&mut m, &data.train);
        let ranges = calibrate_ranges(&m, &data.train.take(32));
        let q = quantize_model(&m, &ranges);
        (m, q, data)
    }

    #[test]
    fn quantized_accuracy_tracks_f32() {
        let (m, q, data) = trained_quantized();
        let f32_acc = tinynn::evaluate_accuracy(&m, &data.test);
        let q_acc = q.accuracy(&data.test, None);
        assert!(
            (f32_acc - q_acc).abs() <= 0.10,
            "int8 accuracy {q_acc} too far from f32 {f32_acc}"
        );
        assert!(q_acc > 0.2, "quantized accuracy collapsed: {q_acc}");
    }

    #[test]
    fn noop_mask_is_bit_exact_with_no_mask() {
        let (_, q, data) = trained_quantized();
        let masks = SkipMaskSet::none(q.conv_indices().len());
        assert!(masks.is_noop());
        for i in 0..10 {
            let img = data.test.image(i);
            let a = q.forward(img);
            let b = q.forward_quantized(&q.quantize_input(img), Some(&masks));
            assert_eq!(a, b, "image {i}");
        }
    }

    #[test]
    fn all_false_mask_is_noop_and_all_true_changes_everything() {
        let (_, q, data) = trained_quantized();
        let n = q.conv_indices().len();
        let mut masks = SkipMaskSet::none(n);
        // explicit all-false mask on conv 0
        let c0 = q.conv(0);
        masks.per_conv[0] = Some(vec![false; c0.geom.out_c * c0.patch_len()]);
        assert!(masks.is_noop());
        let img = data.test.image(0);
        assert_eq!(
            q.forward(img),
            q.forward_quantized(&q.quantize_input(img), Some(&masks))
        );

        // all-true: conv 0 output becomes bias-only => logits must change
        masks.per_conv[0] = Some(vec![true; c0.geom.out_c * c0.patch_len()]);
        assert!(!masks.is_noop());
        let approx = q.forward_quantized(&q.quantize_input(img), Some(&masks));
        assert_ne!(q.forward(img), approx);
    }

    #[test]
    fn skipped_macs_counts_positions() {
        let (_, q, _) = trained_quantized();
        let n = q.conv_indices().len();
        let c0 = q.conv(0);
        let mut masks = SkipMaskSet::none(n);
        let mut mask = vec![false; c0.geom.out_c * c0.patch_len()];
        mask[0] = true; // one product of channel 0
        mask[c0.patch_len()] = true; // one product of channel 1
        masks.per_conv[0] = Some(mask);
        assert_eq!(masks.skipped_macs(&q), 2 * c0.geom.out_positions() as u64);
    }

    #[test]
    fn single_skip_changes_at_most_one_channel_map() {
        let (_, q, data) = trained_quantized();
        // Skipping products only in channel 0 of conv 0 must leave other
        // channels of conv 0's direct output untouched. We verify indirectly:
        // the final prediction can change, but the forward must stay valid.
        let n = q.conv_indices().len();
        let c0 = q.conv(0);
        let mut mask = vec![false; c0.geom.out_c * c0.patch_len()];
        mask[..c0.patch_len()].fill(true);
        let mut masks = SkipMaskSet::none(n);
        masks.per_conv[0] = Some(mask);
        let img = data.test.image(1);
        let out = q.forward_quantized(&q.quantize_input(img), Some(&masks));
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn pool_is_max_in_quantized_domain() {
        let mut out = vec![0i8; 1];
        pool_forward(2, 2, 1, &[-5, 3, -128, 127], &mut out);
        assert_eq!(out[0], 127);
    }

    #[test]
    fn argmax_i8_ties_first() {
        assert_eq!(argmax_i8(&[1, 7, 7, -3]), 1);
    }

    #[test]
    fn accuracy_deterministic_across_runs() {
        let (_, q, data) = trained_quantized();
        let a = q.accuracy(&data.test, None);
        let b = q.accuracy(&data.test, None);
        assert_eq!(a, b);
    }
}
