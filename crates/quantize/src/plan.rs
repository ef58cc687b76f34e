//! Execution-plan IR: one lowering of a [`QuantModel`], one layer-graph
//! walker, shared by **every** engine in the workspace.
//!
//! Every engine — the boolean-mask reference ([`crate::forward`]), the
//! batch-major compiled engine with its checkpoint resume
//! ([`crate::batch`]; per-image inference is its `batch = 1`), the
//! CMSIS-style exact engine (`cmsisnn`) and the unpacked straight-line
//! engine (`unpackgen`) — walks the model through this one lowering
//! instead of re-matching `QLayer` with its own traversal loop, scratch
//! sizing and logits epilogue.
//!
//! [`ExecPlan::lower`] walks the model **once** and produces an ordered
//! list of typed [`Segment`]s:
//!
//! * per-segment geometry (positions, patch/pair-row extents, in/out
//!   lengths) and dense MAC counts — the *cost hooks* the analytic
//!   estimators (`dse::estimate_stats`, `xcubeai`) read without re-deriving
//!   shapes;
//! * each segment's **input-layout fill strategy**: whether the incoming
//!   activation buffer is NHWC/per-image or channel-planar is a static
//!   property of the layer sequence (convs emit planar, dense/GAP emit
//!   per-image, pool preserves), so the plan bakes it in and backends stop
//!   tracking layout at runtime;
//! * **checkpoint boundaries**: the segment range of each "conv segment"
//!   (one conv plus every following non-conv segment up to the next conv
//!   or through the logits epilogue) — the unit the prefix-sharing DSE
//!   resumes at ([`crate::batch::BatchCheckpoint`]);
//! * a final [`Segment::Logits`] epilogue where backends normalize the
//!   output layout (planar → NHWC unbatch) or charge their softmax cost;
//! * the workspace-wide scratch extents (largest activation, im2col,
//!   pair-column, NHWC staging and accumulator buffers) every scratch
//!   allocator needs.
//!
//! Backends implement [`ExecBackend`] — one monomorphized executor per
//! segment kind — and [`ExecPlan::execute`] / [`ExecPlan::execute_range`]
//! drive them. The executors own every hot inner loop (pair-interleaved
//! column fills, SMLAD kernels) exactly as before: the plan owns *traversal
//! and shapes*, never the fill inner loop, so the monolithic batched path
//! stays within measurement noise of the hand-rolled walker (A/B-gated by
//! the `batch_micro` bench).

use crate::qmodel::{QAdd, QConv, QDense, QLayer, QuantModel};
use std::ops::Range;
use tinytensor::shape::ConvGeometry;

pub mod verify;
pub use verify::PlanError;

/// One convolution segment: the τ-bearing unit of the plan.
#[derive(Debug, Clone)]
pub struct ConvSegment {
    /// Index into `model.layers`.
    pub layer_idx: usize,
    /// Conv ordinal (the τ-trie depth / skip-mask index).
    pub ordinal: usize,
    /// Layer geometry (copied; `ConvGeometry` is `Copy`).
    pub geom: ConvGeometry,
    /// Output positions per image.
    pub positions: usize,
    /// Patch length (`kh·kw·in_c`).
    pub patch: usize,
    /// Pair rows of the interleaved column buffer (`⌈patch/2⌉`).
    pub pair_rows: usize,
    /// Input activation length per image.
    pub in_len: usize,
    /// Output activation length per image.
    pub out_len: usize,
    /// Fill strategy: `true` when the incoming activations are
    /// channel-planar (the pair fill reads them in place), `false` when
    /// they are NHWC and each image is first de-interleaved into the
    /// planar staging buffer ([`ExecPlan::max_stage`]) for the same fill.
    pub planar_in: bool,
    /// Dense (pre-skipping) MAC count — the segment cost hook.
    pub macs: u64,
    /// Stash side-output: slots this segment's result is recorded into
    /// (residual skip sources; usually empty, more than one for nested
    /// blocks stashing the same value).
    pub stash_slots: Vec<usize>,
}

/// One 2×2/2 max-pool segment.
#[derive(Debug, Clone)]
pub struct PoolSegment {
    /// Index into `model.layers`.
    pub layer_idx: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Channels.
    pub c: usize,
    /// Input activation length per image.
    pub in_len: usize,
    /// Output activation length per image.
    pub out_len: usize,
    /// `true` when the incoming activations are channel-planar (the pool
    /// then runs per-plane; layout is preserved either way).
    pub planar_in: bool,
    /// Stash side-output slots (see [`ConvSegment::stash_slots`]).
    pub stash_slots: Vec<usize>,
}

/// One global-average-pool segment (spatial mean per channel).
#[derive(Debug, Clone)]
pub struct GapSegment {
    /// Index into `model.layers`.
    pub layer_idx: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Channels.
    pub c: usize,
    /// Spatial positions averaged per channel (`in_h·in_w`).
    pub positions: usize,
    /// Input activation length per image.
    pub in_len: usize,
    /// Output activation length per image (`c`; the output is a per-image
    /// vector, i.e. NHWC and planar coincide).
    pub out_len: usize,
    /// `true` when the incoming activations are channel-planar.
    pub planar_in: bool,
    /// Stash side-output slots (see [`ConvSegment::stash_slots`]).
    pub stash_slots: Vec<usize>,
}

/// One fully-connected segment.
#[derive(Debug, Clone)]
pub struct DenseSegment {
    /// Index into `model.layers`.
    pub layer_idx: usize,
    /// Input dimension.
    pub in_dim: usize,
    /// Output dimension.
    pub out_dim: usize,
    /// `Some((positions, channels))` when the incoming activations are
    /// channel-planar and must be gathered to NHWC before the kernel.
    pub planar_in: Option<(usize, usize)>,
    /// Dense MAC count — the segment cost hook.
    pub macs: u64,
    /// Stash side-output slots (see [`ConvSegment::stash_slots`]).
    pub stash_slots: Vec<usize>,
}

/// One residual elementwise-add segment: joins the current activation
/// (`rhs`, the block branch) with a stashed activation (`lhs`, the skip
/// branch) under the two-input requantization of [`QAdd`]. The output takes
/// the `rhs` layout; when the branches were produced in different layouts
/// the executor index-maps the stash through `(positions, ch)`.
#[derive(Debug, Clone)]
pub struct AddSegment {
    /// Index into `model.layers`.
    pub layer_idx: usize,
    /// Stash slot holding the skip (lhs) operand.
    pub slot: usize,
    /// Elements per image (both operands and the output).
    pub len: usize,
    /// The stash was recorded channel-planar.
    pub lhs_planar: bool,
    /// The current activation (and therefore the output) is channel-planar.
    pub rhs_planar: bool,
    /// Planar view dims; `(len, 1)` when both operands are NHWC.
    pub positions: usize,
    /// Planar view channels (see `positions`).
    pub ch: usize,
    /// Stash side-output slots of this segment's own result (chained
    /// residual blocks stash the join output).
    pub stash_slots: Vec<usize>,
}

/// The logits epilogue: always the final segment. Backends normalize their
/// output layout here (planar → NHWC / per-image unbatch) and/or charge
/// their classifier-head cost (softmax cycles).
#[derive(Debug, Clone)]
pub struct LogitsSegment {
    /// Logits length per image.
    pub out_len: usize,
    /// `Some((positions, channels))` when the model ends on a conv/pool
    /// whose planar output must be converted to NHWC.
    pub planar: Option<(usize, usize)>,
}

/// One typed segment of an [`ExecPlan`].
#[derive(Debug, Clone)]
pub enum Segment {
    /// Convolution (τ-bearing).
    Conv(ConvSegment),
    /// 2×2/2 max-pool.
    Pool(PoolSegment),
    /// Global average pool.
    GlobalAvgPool(GapSegment),
    /// Fully connected.
    Dense(DenseSegment),
    /// Residual elementwise add (skip join).
    Add(AddSegment),
    /// Logits epilogue (always last, exactly once).
    Logits(LogitsSegment),
}

impl Segment {
    /// Output activation length per image (logits segments report the
    /// unchanged logits length).
    pub fn out_len(&self) -> usize {
        match self {
            Segment::Conv(s) => s.out_len,
            Segment::Pool(s) => s.out_len,
            Segment::GlobalAvgPool(s) => s.out_len,
            Segment::Dense(s) => s.out_dim,
            Segment::Add(s) => s.len,
            Segment::Logits(s) => s.out_len,
        }
    }

    /// Dense MAC count of this segment (the cost hook; 0 for pools, adds
    /// and the epilogue).
    pub fn macs(&self) -> u64 {
        match self {
            Segment::Conv(s) => s.macs,
            Segment::Dense(s) => s.macs,
            _ => 0,
        }
    }

    /// Stash side-output slots of this segment (empty for the epilogue).
    pub fn stash_slots(&self) -> &[usize] {
        match self {
            Segment::Conv(s) => &s.stash_slots,
            Segment::Pool(s) => &s.stash_slots,
            Segment::GlobalAvgPool(s) => &s.stash_slots,
            Segment::Dense(s) => &s.stash_slots,
            Segment::Add(s) => &s.stash_slots,
            Segment::Logits(_) => &[],
        }
    }
}

/// Monomorphized per-segment executors: one implementation per engine —
/// the boolean-mask reference, the batch-major compiled engine (per-image
/// inference is its `batch = 1`; checkpoint resume drives it over a plan
/// range), `cmsisnn` and `unpackgen`.
///
/// Implementations keep every hot inner loop (`#[inline]` executors over
/// the backend's own scratch) — the walker only dispatches. Executors are
/// invoked in plan order; a whole-plan run invokes the logits executor
/// exactly once, last.
pub trait ExecBackend {
    /// Execute one convolution segment.
    fn conv(&mut self, seg: &ConvSegment);
    /// Execute one max-pool segment.
    fn pool(&mut self, seg: &PoolSegment);
    /// Execute one global-average-pool segment.
    fn global_avg_pool(&mut self, seg: &GapSegment);
    /// Execute one fully-connected segment.
    fn dense(&mut self, seg: &DenseSegment);
    /// Execute one residual elementwise-add segment (consumes stash
    /// `seg.slot`).
    fn add(&mut self, seg: &AddSegment);
    /// Record the **current** activation into stash slot `slot` (`len`
    /// elements per image, in the backend's current layout). Invoked by the
    /// walker right after the producing segment's executor (or, for a
    /// stash of the model input, before the first segment).
    fn stash(&mut self, slot: usize, len: usize);
    /// Execute the logits epilogue.
    fn logits(&mut self, seg: &LogitsSegment);
}

/// A lowered model: ordered typed segments + checkpoint boundaries +
/// scratch extents. Immutable after [`ExecPlan::lower`]; engines either
/// store one per engine instance or one per scratch.
#[derive(Debug, Clone)]
pub struct ExecPlan {
    segments: Vec<Segment>,
    /// Segment index of conv ordinal `k`.
    conv_starts: Vec<usize>,
    /// Largest per-image activation length (input included).
    max_act: usize,
    /// Largest im2col column matrix (i8 elements) of any conv.
    max_cols: usize,
    /// Largest pair-interleaved column buffer (i16 elements per image).
    max_pair_colt: usize,
    /// Largest NHWC → planar staging buffer (i8 elements, one image) of
    /// any conv whose input arrives NHWC.
    max_stage: usize,
    /// Largest conv output-position count (accumulator scratch).
    max_positions: usize,
    /// Logits length per image.
    logits_len: usize,
    /// Model input length per image (the leading stash source).
    input_len: usize,
    /// Slots stashed straight from the model input (a residual block
    /// opening the model), recorded by the walker before the first segment.
    input_stashes: Vec<usize>,
    /// Per-slot stashed activation length (per image); slots are numbered
    /// in stash order. Backends size their stash buffers from this.
    stash_lens: Vec<usize>,
}

impl ExecPlan {
    /// Lower `model` into its execution plan. O(layers); engines call this
    /// once per engine/scratch construction.
    pub fn lower(model: &QuantModel) -> Self {
        let mut segments = Vec::with_capacity(model.layers.len() + 1);
        let mut conv_starts = Vec::new();
        let mut planar = false; // the input arrives NHWC (per-image)
        let mut planar_dims: Option<(usize, usize)> = None;
        let input_len = model.input_shape.item_len();
        let mut cur_len = input_len;
        let mut max_act = cur_len;
        let mut max_cols = 0usize;
        let mut max_pair_colt = 0usize;
        let mut max_stage = 0usize;
        let mut max_positions = 0usize;
        // Residual bookkeeping: slots are numbered in stash order; the
        // stack mirrors the Stash/Add pairing; per-slot layout is recorded
        // so the Add segment knows how to index each operand.
        let mut input_stashes = Vec::new();
        let mut stash_lens: Vec<usize> = Vec::new();
        let mut stash_stack: Vec<usize> = Vec::new();
        let mut stash_layout: Vec<(bool, Option<(usize, usize)>)> = Vec::new();

        for (layer_idx, layer) in model.layers.iter().enumerate() {
            match layer {
                QLayer::Conv(c) => {
                    let positions = c.geom.out_positions();
                    let patch = c.geom.patch_len();
                    let pair_rows = patch.div_ceil(2);
                    let out_len = positions * c.geom.out_c;
                    conv_starts.push(segments.len());
                    segments.push(Segment::Conv(ConvSegment {
                        layer_idx,
                        ordinal: conv_starts.len() - 1,
                        geom: c.geom,
                        positions,
                        patch,
                        pair_rows,
                        in_len: cur_len,
                        out_len,
                        planar_in: planar,
                        macs: c.geom.macs(),
                        stash_slots: Vec::new(),
                    }));
                    max_cols = max_cols.max(positions * patch);
                    max_pair_colt = max_pair_colt.max(pair_rows * 2 * positions);
                    if !planar {
                        max_stage = max_stage.max(c.geom.in_h * c.geom.in_w * c.geom.in_c);
                    }
                    max_positions = max_positions.max(positions);
                    planar = true;
                    planar_dims = Some((positions, c.geom.out_c));
                    cur_len = out_len;
                }
                QLayer::Pool(p) => {
                    segments.push(Segment::Pool(PoolSegment {
                        layer_idx,
                        in_h: p.in_h,
                        in_w: p.in_w,
                        c: p.c,
                        in_len: cur_len,
                        out_len: p.out_len(),
                        planar_in: planar,
                        stash_slots: Vec::new(),
                    }));
                    if planar {
                        planar_dims = Some(((p.in_h / 2) * (p.in_w / 2), p.c));
                    }
                    cur_len = p.out_len();
                }
                QLayer::GlobalAvgPool(g) => {
                    segments.push(Segment::GlobalAvgPool(GapSegment {
                        layer_idx,
                        in_h: g.in_h,
                        in_w: g.in_w,
                        c: g.c,
                        positions: g.positions(),
                        in_len: cur_len,
                        out_len: g.out_len(),
                        planar_in: planar,
                        stash_slots: Vec::new(),
                    }));
                    // One value per channel: NHWC and planar coincide.
                    planar = false;
                    planar_dims = None;
                    cur_len = g.out_len();
                }
                QLayer::Dense(d) => {
                    segments.push(Segment::Dense(DenseSegment {
                        layer_idx,
                        in_dim: d.in_dim,
                        out_dim: d.out_dim,
                        planar_in: planar.then(|| planar_dims.expect("planar dims")),
                        macs: (d.in_dim * d.out_dim) as u64,
                        stash_slots: Vec::new(),
                    }));
                    planar = false;
                    planar_dims = None;
                    cur_len = d.out_dim;
                }
                QLayer::Stash(st) => {
                    debug_assert_eq!(st.len, cur_len, "stash length mismatch");
                    let slot = stash_lens.len();
                    stash_lens.push(cur_len);
                    stash_layout.push((planar, planar_dims));
                    stash_stack.push(slot);
                    // The stash is a side-output of whatever produced the
                    // current activation: the previous segment, or the
                    // model input itself.
                    match segments.last_mut() {
                        Some(Segment::Conv(s)) => s.stash_slots.push(slot),
                        Some(Segment::Pool(s)) => s.stash_slots.push(slot),
                        Some(Segment::GlobalAvgPool(s)) => s.stash_slots.push(slot),
                        Some(Segment::Dense(s)) => s.stash_slots.push(slot),
                        Some(Segment::Add(s)) => s.stash_slots.push(slot),
                        Some(Segment::Logits(_)) => {
                            unreachable!("logits epilogue precedes a layer")
                        }
                        None => input_stashes.push(slot),
                    }
                }
                QLayer::Add(a) => {
                    let slot = stash_stack.pop().expect("Add without live stash");
                    let (lhs_planar, lhs_dims) = stash_layout[slot];
                    // Operand length and planar-dims agreement are verifier
                    // invariants now (StashLifetime / LayoutChain in
                    // [`verify`]); only the model-side length is checked
                    // here, since the plan records the walked length.
                    debug_assert_eq!(a.len, cur_len, "Add length mismatch");
                    let (positions, ch) = match (planar, lhs_planar) {
                        (true, _) => planar_dims.expect("planar dims"),
                        (false, true) => lhs_dims.expect("planar dims"),
                        (false, false) => (cur_len, 1),
                    };
                    segments.push(Segment::Add(AddSegment {
                        layer_idx,
                        slot,
                        len: cur_len,
                        lhs_planar,
                        rhs_planar: planar,
                        positions,
                        ch,
                        stash_slots: Vec::new(),
                    }));
                    // Output layout and length are the rhs branch's.
                }
            }
            max_act = max_act.max(cur_len);
        }
        assert!(
            stash_stack.is_empty(),
            "unconsumed residual stash: every Stash needs a matching Add"
        );
        segments.push(Segment::Logits(LogitsSegment {
            out_len: cur_len,
            planar: planar.then(|| planar_dims.expect("planar dims")),
        }));
        let plan = Self {
            segments,
            conv_starts,
            max_act,
            max_cols,
            max_pair_colt,
            max_stage,
            max_positions,
            logits_len: cur_len,
            input_len,
            input_stashes,
            stash_lens,
        };
        // Every lowering self-checks in debug builds: a plan that fails
        // static verification must never reach an executor. Release builds
        // skip this (zero hot-path cost); the serving registry re-runs it
        // at deploy time instead.
        #[cfg(debug_assertions)]
        {
            if let Err(e) = plan.verify() {
                panic!("lowered plan failed static verification: {e}");
            }
            debug_assert_eq!(
                plan.peak_activation_pair(),
                model.peak_activation_pair(),
                "plan stash accounting diverged from the model's peak"
            );
        }
        plan
    }

    /// The ordered segments (the last is always [`Segment::Logits`]).
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of convolution segments.
    pub fn n_convs(&self) -> usize {
        self.conv_starts.len()
    }

    /// The conv segment of ordinal `k`.
    pub fn conv_segment(&self, ordinal: usize) -> &ConvSegment {
        match &self.segments[self.conv_starts[ordinal]] {
            Segment::Conv(s) => s,
            _ => unreachable!("conv_starts indexes a conv segment"),
        }
    }

    /// Segment range **before** conv ordinal 0 — the leading non-conv
    /// prefix a resumable execution runs at start. For a conv-free model
    /// this is the whole plan (logits epilogue included).
    pub fn leading_range(&self) -> Range<usize> {
        0..self
            .conv_starts
            .first()
            .copied()
            .unwrap_or(self.segments.len())
    }

    /// Checkpoint segment range of conv ordinal `k`: the conv segment plus
    /// every following non-conv segment up to the next conv, or through the
    /// logits epilogue for the final conv — the unit
    /// [`QuantModel::batch_advance_into`](crate::batch) resumes at.
    pub fn advance_range(&self, ordinal: usize) -> Range<usize> {
        let start = self.conv_starts[ordinal];
        let end = self
            .conv_starts
            .get(ordinal + 1)
            .copied()
            .unwrap_or(self.segments.len());
        start..end
    }

    /// Largest per-image activation length, model input included.
    pub fn max_act(&self) -> usize {
        self.max_act
    }

    /// Largest im2col column matrix (i8 elements) of any conv segment.
    pub fn max_cols(&self) -> usize {
        self.max_cols
    }

    /// Largest pair-interleaved column buffer (i16 elements per image).
    pub fn max_pair_colt(&self) -> usize {
        self.max_pair_colt
    }

    /// Largest NHWC → planar staging buffer (i8 elements, one image) the
    /// pair fill of an NHWC-input conv needs; 0 when every conv reads
    /// planar activations.
    pub fn max_stage(&self) -> usize {
        self.max_stage
    }

    /// Largest conv output-position count (per-image accumulator extent).
    pub fn max_positions(&self) -> usize {
        self.max_positions
    }

    /// Logits length per image.
    pub fn logits_len(&self) -> usize {
        self.logits_len
    }

    /// Number of residual stash slots the plan uses (backends size their
    /// stash buffers from [`ExecPlan::stash_lens`]).
    pub fn n_stash_slots(&self) -> usize {
        self.stash_lens.len()
    }

    /// Per-slot stashed activation length (per image), in slot order.
    pub fn stash_lens(&self) -> &[usize] {
        &self.stash_lens
    }

    /// Total dense MAC count over all segments (the cost hooks summed).
    pub fn total_macs(&self) -> u64 {
        self.segments.iter().map(Segment::macs).sum()
    }

    /// Drive `backend` through the whole plan.
    #[inline]
    pub fn execute<B: ExecBackend>(&self, backend: &mut B) {
        self.execute_range(0..self.segments.len(), backend);
    }

    /// Drive `backend` through `range` (resumable execution: leading
    /// prefix, one checkpoint segment, tail). A non-empty range starting at
    /// 0 first records any stash-of-the-input slots (so an empty leading
    /// prefix leaves them to the first checkpoint segment); after each
    /// segment its stash side-outputs are recorded — the walker owns stash
    /// *timing*, backends own the copy.
    ///
    /// Stash-free plans (every chain model) take a dedicated tight loop:
    /// the per-segment stash dispatch, dead as it is for them, measurably
    /// perturbs the batched serving hot path when inlined into it (same
    /// code-layout sensitivity the `batch_micro` A/B guards).
    #[inline]
    pub fn execute_range<B: ExecBackend>(&self, range: Range<usize>, backend: &mut B) {
        if self.stash_lens.is_empty() {
            for seg in &self.segments[range] {
                match seg {
                    Segment::Conv(s) => backend.conv(s),
                    Segment::Pool(s) => backend.pool(s),
                    Segment::GlobalAvgPool(s) => backend.global_avg_pool(s),
                    Segment::Dense(s) => backend.dense(s),
                    Segment::Add(s) => backend.add(s),
                    Segment::Logits(s) => backend.logits(s),
                }
            }
            return;
        }
        if range.start == 0 && !range.is_empty() {
            for &slot in &self.input_stashes {
                backend.stash(slot, self.input_len);
            }
        }
        for seg in &self.segments[range] {
            match seg {
                Segment::Conv(s) => backend.conv(s),
                Segment::Pool(s) => backend.pool(s),
                Segment::GlobalAvgPool(s) => backend.global_avg_pool(s),
                Segment::Dense(s) => backend.dense(s),
                Segment::Add(s) => backend.add(s),
                Segment::Logits(s) => backend.logits(s),
            }
            for &slot in seg.stash_slots() {
                backend.stash(slot, self.stash_lens[slot]);
            }
        }
    }
}

impl QuantModel {
    /// The convolution layer at `layer_idx` (panics when the index does not
    /// name a conv — plan segments guarantee it does).
    #[inline]
    pub fn conv_at(&self, layer_idx: usize) -> &QConv {
        match &self.layers[layer_idx] {
            QLayer::Conv(c) => c,
            _ => unreachable!("segment layer_idx {layer_idx} is not a conv"),
        }
    }

    /// The dense layer at `layer_idx` (panics when the index does not name
    /// a dense layer).
    #[inline]
    pub fn dense_at(&self, layer_idx: usize) -> &QDense {
        match &self.layers[layer_idx] {
            QLayer::Dense(d) => d,
            _ => unreachable!("segment layer_idx {layer_idx} is not dense"),
        }
    }

    /// The residual-add layer at `layer_idx` (panics when the index does
    /// not name an Add).
    #[inline]
    pub fn add_at(&self, layer_idx: usize) -> &QAdd {
        match &self.layers[layer_idx] {
            QLayer::Add(a) => a,
            _ => unreachable!("segment layer_idx {layer_idx} is not an add"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::calibrate_ranges;
    use crate::qmodel::quantize_model;
    use cifar10sim::DatasetConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    pub(crate) fn quantized(seed: u64) -> QuantModel {
        let data = cifar10sim::generate(DatasetConfig::tiny(seed));
        let mut rng = StdRng::seed_from_u64(seed);
        let m = tinynn::Sequential::new("p", tinytensor::Shape4::nhwc(1, 32, 32, 3))
            .conv_relu(4, 3, &mut rng)
            .maxpool()
            .conv_relu(6, 3, &mut rng)
            .maxpool()
            .dense(10, true, &mut rng);
        let ranges = calibrate_ranges(&m, &data.train.take(4));
        quantize_model(&m, &ranges)
    }

    #[test]
    fn lowering_covers_every_layer_plus_logits() {
        let q = quantized(11);
        let plan = ExecPlan::lower(&q);
        assert_eq!(plan.segments().len(), q.layers.len() + 1);
        assert!(matches!(plan.segments().last(), Some(Segment::Logits(_))));
        assert_eq!(plan.n_convs(), q.conv_indices().len());
        assert_eq!(plan.logits_len(), 10);
        assert_eq!(plan.total_macs(), q.macs());
    }

    #[test]
    fn scratch_extents_match_model_helpers() {
        let q = quantized(12);
        let plan = ExecPlan::lower(&q);
        assert_eq!(
            plan.max_act(),
            q.activation_sizes().into_iter().max().unwrap()
        );
        assert_eq!(plan.max_cols(), q.max_im2col_bytes() as usize);
        assert_eq!(plan.max_pair_colt(), q.max_pair_colt_elems());
        assert_eq!(plan.max_positions(), q.max_conv_positions());
        // Only conv 0 reads NHWC: its staging holds one model input.
        assert_eq!(plan.max_stage(), q.input_shape.item_len());
    }

    #[test]
    fn fill_strategy_is_static_layout_inference() {
        let q = quantized(13);
        let plan = ExecPlan::lower(&q);
        // conv0 consumes the NHWC input; pool after conv is planar; conv1
        // consumes the planar pool output; the dense head gathers planar.
        let mut saw = 0;
        for seg in plan.segments() {
            match seg {
                Segment::Conv(s) => {
                    assert_eq!(s.planar_in, s.ordinal != 0, "ordinal {}", s.ordinal);
                    saw += 1;
                }
                Segment::Pool(s) => assert!(s.planar_in),
                Segment::Dense(s) => assert!(s.planar_in.is_some()),
                Segment::Logits(s) => assert!(s.planar.is_none()),
                Segment::GlobalAvgPool(_) | Segment::Add(_) => unreachable!(),
            }
        }
        assert_eq!(saw, 2);
    }

    #[test]
    fn residual_lowering_builds_the_dag() {
        let data = cifar10sim::generate(DatasetConfig::tiny(15));
        let m = tinynn::zoo::mini_resnet(15);
        let ranges = calibrate_ranges(&m, &data.train.take(4));
        let q = quantize_model(&m, &ranges);
        let plan = ExecPlan::lower(&q);

        // Two stash slots, none taken from the raw input here (the stem
        // conv+pool precede the first residual block).
        assert_eq!(plan.n_stash_slots(), 2);
        assert_eq!(plan.stash_lens().len(), 2);
        // Stash side-outputs hang off the pool segments preceding each
        // block; each Add consumes its slot in stash order.
        let mut stashing_segments = 0usize;
        let mut add_slots = Vec::new();
        for seg in plan.segments() {
            stashing_segments += usize::from(!seg.stash_slots().is_empty());
            if let Segment::Add(a) = seg {
                add_slots.push(a.slot);
                // Both branches of these blocks are conv/pool-produced:
                // planar on both sides, matching dims.
                assert!(a.lhs_planar && a.rhs_planar);
                assert_eq!(a.positions * a.ch, a.len);
                assert!(a.stash_slots.is_empty());
            }
        }
        assert_eq!(stashing_segments, 2);
        assert_eq!(add_slots, vec![0, 1]);
        // Checkpoint ranges still tile the whole plan: Add segments ride in
        // their conv's advance range, so prefix-resume crosses the joins.
        let mut covered = plan.leading_range().len();
        for k in 0..plan.n_convs() {
            covered += plan.advance_range(k).len();
        }
        assert_eq!(covered, plan.segments().len());
        assert_eq!(plan.n_convs(), 5);
        // Markers add no segments: layers minus stash markers plus logits.
        let stash_layers = q
            .layers
            .iter()
            .filter(|l| matches!(l, QLayer::Stash(_)))
            .count();
        assert_eq!(plan.segments().len(), q.layers.len() - stash_layers + 1);
    }

    #[test]
    fn input_stash_is_recorded_for_blocks_opening_the_model() {
        // A residual block right at the input: the stash has no producing
        // segment, so the plan records it as an input stash (NHWC) joined
        // against a planar conv branch.
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(16);
        let m = tinynn::Sequential::new("res-in", tinytensor::Shape4::nhwc(1, 8, 8, 2))
            .residual(|m| m.conv(2, 3, &mut rng))
            .global_avg_pool()
            .dense(4, true, &mut rng);
        let n = 4usize;
        let flat: Vec<f32> = (0..n * 8 * 8 * 2)
            .map(|_| rng.gen_range(0.0f32..1.0))
            .collect();
        let calib = cifar10sim::Dataset {
            images: tinytensor::Tensor::from_vec(tinytensor::Shape4::nhwc(n, 8, 8, 2), flat)
                .unwrap(),
            labels: vec![0; n],
        };
        let ranges = calibrate_ranges(&m, &calib);
        let q = quantize_model(&m, &ranges);
        let plan = ExecPlan::lower(&q);
        assert_eq!(plan.n_stash_slots(), 1);
        // No segment carries the stash side-output...
        assert!(plan.segments().iter().all(|s| s.stash_slots().is_empty()));
        let add = plan
            .segments()
            .iter()
            .find_map(|s| match s {
                Segment::Add(a) => Some(a),
                _ => None,
            })
            .expect("has an Add segment");
        // ...and the join mixes an NHWC stash with a planar conv branch.
        assert!(!add.lhs_planar);
        assert!(add.rhs_planar);
        assert_eq!(add.positions * add.ch, add.len);
    }

    #[test]
    fn checkpoint_ranges_tile_the_plan() {
        let q = quantized(14);
        let plan = ExecPlan::lower(&q);
        let mut covered = plan.leading_range().len();
        for k in 0..plan.n_convs() {
            let r = plan.advance_range(k);
            assert!(matches!(plan.segments()[r.start], Segment::Conv(_)));
            covered += r.len();
        }
        assert_eq!(covered, plan.segments().len());
        assert_eq!(plan.leading_range(), 0..0); // model starts with a conv
    }
}
