//! Batch-major compiled execution — the one compiled host engine: pack `B`
//! images through the pair-stream kernels in one pass, monolithically or
//! **resumably** from per-layer checkpoints. Per-image inference is
//! `batch = 1` of the same engine.
//!
//! Running a model image by image would re-traverse every layer's weight
//! streams, requantization parameters and output stages once **per
//! image**. The DSE evaluates hundreds of eval images per design and a
//! serving front-end pushes thousands of requests per second through a
//! deployed design, so this module amortizes all per-layer stream state
//! across a batch:
//!
//! * **Batched pair columns** — image `b` occupies lanes
//!   `[b·positions, (b+1)·positions)` of every pair row, so one stream
//!   entry broadcasts its weight pair across `B × positions` contiguous
//!   lanes of the conv kernel ([`crate::compiled`]).
//! * **Batch-planar activations** between conv/pool stages — plane
//!   `c·B + b` holds channel `c` of image `b`, so conv stores, pooling and
//!   the next conv's column fill all touch contiguous planes, and pooling a
//!   batch is literally the planar pool over `C·B` planes.
//! * **Per-image unbatch only at the logits** — dense layers (and the
//!   final planar→NHWC conversion of the plan's logits segment) gather one
//!   image at a time; everything before them never materializes a
//!   per-image view.
//!
//! Traversal is plan-driven ([`crate::plan::ExecPlan`]): every run — a
//! whole forward, the leading segments of a checkpoint chain, one
//! checkpoint segment — is the [`crate::plan::ExecBackend`] impl
//! `BatchBackend` driven over a plan range. Activation layout per segment
//! is a static plan property, so no run tracks layout at runtime.
//!
//! ## Tiled (and optionally parallel) conv execution
//!
//! Conv segments execute in **image-group tiles** (`tile_images`): fill
//! one tile's pair columns into a tile-local buffer, MAC it into its lane
//! window of the batch-planar output, repeat. The per-tile column working
//! set is capped at `TILE_BYTES` (256 KB) regardless of batch size —
//! growing the batch without tiling grew every pair row's stride *and* put
//! the whole batch's columns between fill and MAC, which is why batch 12
//! ran slower per image than batch 3 before this existed (DESIGN.md
//! §"Intra-batch parallelism and stream encoding").
//!
//! With [`BatchScratch::set_pool`], tiles additionally become the unit of
//! **intra-batch parallelism**: pool threads steal tiles from a shared
//! cursor and work out of per-thread arenas (`ParArena`), so nothing
//! allocates or shares inside a segment. Pool segments chunk planes, Add
//! segments chunk elements/channels; GAP, dense and logits tails stay
//! serial (per-image small). Each output element's accumulation walks the
//! same stream in the same order regardless of threads, so parallel
//! execution is bit-exact, enforced by tests here and the workspace
//! proptest `tests/parallel_batch.rs`.
//!
//! ## Resumable execution ([`BatchCheckpoint`])
//!
//! Only convolution layers carry a significance threshold τ; pooling and
//! dense layers are τ-independent. The activations entering conv ordinal
//! `k` therefore depend only on the τ choices of convs `0..k` — which is
//! exactly what a prefix-sharing DSE exploits. [`QuantModel::batch_start`]
//! captures the batch state before the first conv, and
//! [`QuantModel::batch_advance_into`] executes **one checkpoint segment**
//! of the plan ([`crate::plan::ExecPlan::advance_range`]: the conv under a
//! chosen compiled stream, plus every following non-conv segment up to the
//! next conv or through the logits epilogue) from one checkpoint into
//! another. Both are `BatchBackend` runs over the checkpoint's state: the
//! run reads the source checkpoint's activations in place, records stashes
//! into the destination checkpoint, and a stash consumed by its Add is
//! released after the range runs. A DSE walking a τ trie keeps a small
//! stack of checkpoints and re-runs only the segments below the first
//! layer whose τ changed. [`QuantModel::batch_fill_conv_cols`]
//! additionally splits out the τ-independent pair-column fill of a segment
//! so siblings in the trie share one column fill.
//!
//! Every layout change is value-preserving and each lane's MAC/requantize
//! arithmetic is the boolean-mask reference's, regrouped pairwise, so
//! results — monolithic *and* checkpoint-resumed, for any split points —
//! are **bit-exact** with [`QuantModel::forward_quantized`] for every batch
//! size, including `batch = 1` and ragged final batches — enforced by unit
//! tests here and the workspace proptests `tests/batched_forward.rs`,
//! `tests/engine_equivalence.rs` and `tests/prefix_forward.rs`.

use crate::compiled::{
    conv_forward_pairs_window, fill_pair_cols, gap_forward_planar, planar_to_nhwc_pitched,
    pool_forward_planar, simd_level, CompiledConv, CompiledMasks,
};
use crate::forward::{argmax_i8, dense_forward, gap_forward_nhwc, pool_forward};
use crate::plan::{
    AddSegment, ConvSegment, DenseSegment, ExecBackend, ExecPlan, GapSegment, LogitsSegment,
    PoolSegment, Segment,
};
use crate::pool::BatchPool;
use crate::qmodel::{QAdd, QConv, QuantModel};
use std::cell::UnsafeCell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Column working-set budget of one image-group tile (i16 pair-column
/// bytes). A quarter of the builder Xeon's 1 MB L2: the tile's columns,
/// the weight streams and the output rows all stay resident while the MAC
/// loop walks every output channel. Growing the batch no longer grows the
/// per-tile working set — the fix for the batch-12 < batch-3 regression.
/// Chosen by interleaved A/B sweep (96K–384K): 256K is the largest budget
/// whose batch-12 per-image throughput stays ≥ batch 3, while small
/// batches still run un-tiled (see DESIGN.md "Intra-batch parallelism and
/// stream encoding").
const TILE_BYTES: usize = 256 * 1024;

/// Elementwise work below which a parallel dispatch costs more than it
/// saves (condvar wake + join ≈ a few µs ≈ tens of KB of byte traffic).
const MIN_PAR_ELEMS: usize = 8192;

/// Images per tile of a conv segment: enough images to fill `TILE_BYTES`
/// of pair columns, never more than the batch, and — when `threads`
/// execute — no more than an even share, so every thread gets work.
pub(crate) fn tile_images(
    pair_rows: usize,
    positions: usize,
    batch: usize,
    threads: usize,
) -> usize {
    let per_image = pair_rows * 2 * positions * std::mem::size_of::<i16>();
    let mut g = (TILE_BYTES / per_image.max(1)).clamp(1, batch.max(1));
    if threads > 1 {
        g = g.min(batch.div_ceil(threads)).max(1);
    }
    g
}

/// Per-thread scratch arena for parallel segment execution — sized once
/// from the plan's extents ([`BatchScratch::set_pool`]) so nothing
/// allocates or shares inside a segment.
struct ParArena {
    /// One NHWC image staged planar for an NHWC-input conv's column fill.
    stage: Vec<i8>,
    /// Tile-local pair-interleaved columns.
    pcolt: Vec<i16>,
    /// Lane accumulators for one tile.
    acc: Vec<i32>,
}

/// [`ParArena`] behind an [`UnsafeCell`] so the pool closure (a shared
/// `Fn`) can hand each thread *its own* arena mutably.
///
/// SAFETY: every access pattern indexes the arena slice by the pool's
/// thread index, which is unique per concurrent closure invocation, so no
/// two threads ever alias one arena.
struct ArenaCell(UnsafeCell<ParArena>);
unsafe impl Sync for ArenaCell {}

/// A raw output pointer that may cross into pool threads.
///
/// SAFETY: writers hold disjoint windows (tiles / plane chunks / element
/// ranges) of the pointee, so no two threads ever write the same element,
/// and the buffer outlives every dispatch (`pool.run` blocks) — see each
/// dispatch site.
#[derive(Clone, Copy)]
struct SendPtr(*mut i8);
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// The pointer, via a whole-struct method so closures capture the
    /// (`Sync`) wrapper rather than the raw field.
    fn get(self) -> *mut i8 {
        self.0
    }
}

/// Reusable buffers for batched compiled forwards, sized once for a model
/// and a maximum batch size.
pub struct BatchScratch {
    max_batch: usize,
    /// The lowered execution plan every batched walker over this scratch
    /// follows — built at construction, like the dense streams.
    plan: ExecPlan,
    /// Ping-pong activation buffers, `max_batch ×` the largest activation.
    act_a: Vec<i8>,
    act_b: Vec<i8>,
    /// One NHWC image staged planar for an NHWC-input conv's column fill.
    stage: Vec<i8>,
    /// Batched pair-interleaved columns (`max_batch ×` the largest layer).
    pcolt: Vec<i16>,
    /// Lane accumulators.
    acc: Vec<i32>,
    /// One image's NHWC staging at planar → dense boundaries.
    nhwc: Vec<i8>,
    /// Residual stash buffers, `max_batch ×` the slot length each, stored
    /// in whatever batch layout the producing segment emitted.
    stash: Vec<Vec<i8>>,
    /// τ-independent dense pair streams per conv ordinal (exact-layer
    /// dispatch through the same kernel; built at construction — this is
    /// what binds the scratch to its model).
    dense_streams: Vec<CompiledConv>,
    /// Intra-batch thread pool (opt-in via [`BatchScratch::set_pool`];
    /// `None` = single-thread execution, the default).
    pool: Option<Arc<BatchPool>>,
    /// One scratch arena per pool thread (empty without a pool).
    arenas: Vec<ArenaCell>,
}

impl BatchScratch {
    /// Scratch for batches of up to `max_batch` images of `model` —
    /// **bound to `model`**: the dense pair streams baked in here are that
    /// model's weights, so a scratch must not be reused across different
    /// models (build one per model instead).
    pub fn for_model(model: &QuantModel, max_batch: usize) -> Self {
        assert!(max_batch >= 1, "max_batch must be at least 1");
        let plan = ExecPlan::lower(model);
        let max_act = plan.max_act();
        let max_stage = plan.max_stage();
        let max_pcolt = plan.max_pair_colt();
        let max_positions = plan.max_positions();
        let stash: Vec<Vec<i8>> = plan
            .stash_lens()
            .iter()
            .map(|&l| vec![0; max_batch * l])
            .collect();
        Self {
            max_batch,
            plan,
            act_a: vec![0; max_batch * max_act],
            act_b: vec![0; max_batch * max_act],
            stage: vec![0; max_stage],
            pcolt: vec![0; max_batch * max_pcolt],
            acc: vec![0; (max_batch * max_positions).max(1)],
            nhwc: vec![0; max_act],
            stash,
            dense_streams: crate::compiled::dense_streams(model),
            pool: None,
            arenas: Vec::new(),
        }
    }

    /// Opt into intra-batch parallel segment execution on `pool` (or back
    /// out with `None`). Sizes one scratch arena per pool thread from the
    /// plan's conv extents, so parallel segments never allocate. The same
    /// `Arc`'d pool may back several scratches (dispatches serialize).
    pub fn set_pool(&mut self, pool: Option<Arc<BatchPool>>) {
        self.arenas.clear();
        if let Some(p) = &pool {
            let threads = p.threads();
            if threads > 1 {
                let stage_len = self.plan.max_stage();
                let (mut pcolt_len, mut acc_len) = (0usize, 1usize);
                for k in 0..self.plan.n_convs() {
                    let seg = self.plan.conv_segment(k);
                    // Upper bound over every runtime tiling: threads = 1
                    // and the full batch give the widest tile.
                    let g = tile_images(seg.pair_rows, seg.positions, self.max_batch, 1);
                    let tl = g * seg.positions;
                    pcolt_len = pcolt_len.max(seg.pair_rows * 2 * tl);
                    acc_len = acc_len.max(tl);
                }
                self.arenas = (0..threads)
                    .map(|_| {
                        ArenaCell(UnsafeCell::new(ParArena {
                            stage: vec![0; stage_len],
                            pcolt: vec![0; pcolt_len],
                            acc: vec![0; acc_len],
                        }))
                    })
                    .collect();
            }
        }
        self.pool = pool;
    }

    /// Threads intra-batch segments execute with (1 without a pool).
    pub fn intra_batch_threads(&self) -> usize {
        self.pool.as_ref().map_or(1, |p| p.threads())
    }

    /// Largest batch this scratch can execute.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// The execution plan this scratch was sized for.
    pub fn plan(&self) -> &ExecPlan {
        &self.plan
    }

    /// Approximate heap bytes held by the scratch buffers (reporting).
    pub fn resident_bytes(&self) -> u64 {
        (self.act_a.len()
            + self.act_b.len()
            + self.stage.len()
            + 2 * self.pcolt.len()
            + 4 * self.acc.len()
            + self.nhwc.len()
            + self.stash.iter().map(Vec::capacity).sum::<usize>()) as u64
            + self
                .dense_streams
                .iter()
                .map(CompiledConv::resident_bytes)
                .sum::<u64>()
            + self
                .arenas
                .iter()
                .map(|a| {
                    // SAFETY: `&self` — no pool dispatch is live.
                    let a = unsafe { &*a.0.get() };
                    (a.stage.len() + 2 * a.pcolt.len() + 4 * a.acc.len()) as u64
                })
                .sum::<u64>()
    }
}

/// The batched activation state after some prefix of the plan's segments —
/// the unit of reuse of the prefix-sharing DSE.
///
/// A checkpoint is always positioned either **before a conv segment** (the
/// next τ decision; the buffer layout there is a static plan property) or
/// **past the logits epilogue** (per-image logits ready for
/// [`QuantModel::batch_checkpoint_predictions_into`]). Produced by
/// [`QuantModel::batch_start_into`] and advanced one checkpoint segment at
/// a time by [`QuantModel::batch_advance_into`]. The buffer is reused
/// across `*_into` calls, so a pooled stack of checkpoints allocates only
/// on its first descent.
pub struct BatchCheckpoint {
    batch: usize,
    /// Conv ordinal of the next conv layer (the τ trie depth).
    conv_ordinal: usize,
    /// Per-image activation length of `act`.
    cur_len: usize,
    /// True once every segment (including the logits epilogue) ran.
    complete: bool,
    /// Activations, `batch × cur_len`; batch-planar between convs,
    /// per-image at the start and once complete (the plan knows which).
    act: Vec<i8>,
    /// Live residual stashes, one buffer per plan stash slot (`batch ×`
    /// slot length once recorded, empty before). Part of the resume state:
    /// a checkpoint taken between a stash and its Add must carry the
    /// stashed activations, and cloning a checkpoint's stashes is what lets
    /// sibling τ choices in the DSE trie share a prefix *through* a
    /// residual join.
    stashes: Vec<Vec<i8>>,
}

impl Default for BatchCheckpoint {
    fn default() -> Self {
        Self::empty()
    }
}

impl BatchCheckpoint {
    /// An unpositioned checkpoint (fill it via the `*_into` methods).
    pub fn empty() -> Self {
        Self {
            batch: 0,
            conv_ordinal: 0,
            cur_len: 0,
            complete: false,
            act: Vec::new(),
            stashes: Vec::new(),
        }
    }

    /// Images in this checkpoint's batch.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Conv ordinal the checkpoint is positioned before, or `None` once the
    /// whole plan (logits epilogue included) has run.
    pub fn next_conv_ordinal(&self) -> Option<usize> {
        (!self.complete).then_some(self.conv_ordinal)
    }

    /// True once every segment has run and `act` holds per-image logits.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Heap bytes held by the checkpoint's activation buffer and live
    /// stashes (memory-budget reporting for checkpoint stacks, like
    /// `BatchScratch::resident_bytes`).
    pub fn resident_bytes(&self) -> u64 {
        self.act.capacity() as u64
            + self
                .stashes
                .iter()
                .map(|s| s.capacity() as u64)
                .sum::<u64>()
    }
}

/// Residual join over a batch (`batch = 1` is the per-image case, where
/// the plane pitch collapses to `pos`). Same-layout operands add
/// elementwise (per-image NHWC stacking and batch-planar plane layout are
/// both position-for-position identical between the branches); a layout
/// mismatch index-maps the stash — per-image NHWC element `(b, p·ch + c)`
/// against batch-planar element `c·(B·pos) + b·pos + p`.
fn add_join_batched(
    a: &QAdd,
    seg: &AddSegment,
    batch: usize,
    lhs: &[i8],
    rhs: &[i8],
    dst: &mut [i8],
) {
    let n = batch * seg.len;
    debug_assert!(lhs.len() >= n && rhs.len() >= n && dst.len() >= n);
    match (seg.lhs_planar, seg.rhs_planar) {
        (false, false) | (true, true) => {
            for ((d, &l), &r) in dst[..n].iter_mut().zip(&lhs[..n]).zip(&rhs[..n]) {
                *d = a.apply(l, r);
            }
        }
        (false, true) => {
            let (pos, ch) = (seg.positions, seg.ch);
            let plane = batch * pos;
            for b in 0..batch {
                for c in 0..ch {
                    for p in 0..pos {
                        dst[c * plane + b * pos + p] =
                            a.apply(lhs[b * seg.len + p * ch + c], rhs[c * plane + b * pos + p]);
                    }
                }
            }
        }
        (true, false) => {
            let (pos, ch) = (seg.positions, seg.ch);
            let plane = batch * pos;
            for b in 0..batch {
                for p in 0..pos {
                    for c in 0..ch {
                        dst[b * seg.len + p * ch + c] =
                            a.apply(lhs[c * plane + b * pos + p], rhs[b * seg.len + p * ch + c]);
                    }
                }
            }
        }
    }
}

/// [`add_join_batched`] split across a pool: same-layout joins chunk the
/// element range, layout-mapping joins chunk the channel axis (each
/// channel's writes are injective and channel-disjoint in both layouts).
/// Per-element arithmetic is untouched, so the result is bit-exact with
/// the serial join.
fn add_join_batched_par(
    a: &QAdd,
    seg: &AddSegment,
    batch: usize,
    lhs: &[i8],
    rhs: &[i8],
    dst: &mut [i8],
    pool: &BatchPool,
) {
    let n = batch * seg.len;
    debug_assert!(lhs.len() >= n && rhs.len() >= n && dst.len() >= n);
    let threads = pool.threads();
    let out = SendPtr(dst.as_mut_ptr());
    match (seg.lhs_planar, seg.rhs_planar) {
        (false, false) | (true, true) => {
            let chunk = n.div_ceil(threads);
            pool.run(&|tid| {
                let lo = (tid * chunk).min(n);
                let hi = ((tid + 1) * chunk).min(n);
                for i in lo..hi {
                    // SAFETY: threads hold disjoint element ranges; `dst`
                    // outlives the dispatch.
                    unsafe { out.get().add(i).write(a.apply(lhs[i], rhs[i])) };
                }
            });
        }
        (false, true) => {
            let (pos, ch) = (seg.positions, seg.ch);
            let plane = batch * pos;
            let chunk = ch.div_ceil(threads);
            pool.run(&|tid| {
                let c_lo = (tid * chunk).min(ch);
                let c_hi = ((tid + 1) * chunk).min(ch);
                for c in c_lo..c_hi {
                    for b in 0..batch {
                        for p in 0..pos {
                            let pl = c * plane + b * pos + p;
                            let v = a.apply(lhs[b * seg.len + p * ch + c], rhs[pl]);
                            // SAFETY: plane-layout writes are disjoint
                            // across channel ranges.
                            unsafe { out.get().add(pl).write(v) };
                        }
                    }
                }
            });
        }
        (true, false) => {
            let (pos, ch) = (seg.positions, seg.ch);
            let plane = batch * pos;
            let chunk = ch.div_ceil(threads);
            pool.run(&|tid| {
                let c_lo = (tid * chunk).min(ch);
                let c_hi = ((tid + 1) * chunk).min(ch);
                for c in c_lo..c_hi {
                    for b in 0..batch {
                        for p in 0..pos {
                            let nh = b * seg.len + p * ch + c;
                            let v = a.apply(lhs[c * plane + b * pos + p], rhs[nh]);
                            // SAFETY: NHWC writes at stride `ch` are
                            // disjoint across channel ranges.
                            unsafe { out.get().add(nh).write(v) };
                        }
                    }
                }
            });
        }
    }
}

/// The tiled conv segment executor every batched driver shares: walk the
/// batch in image-group tiles ([`tile_images`]) — fill a tile's columns,
/// MAC the tile through [`conv_forward_pairs_window`] into its lane window
/// of the batch-planar output, move on. With `prefilled` columns (cached
/// conv 0 / sibling-shared trie fills) the fill half is skipped and tiles
/// become pure MAC lane-windows over the shared buffer.
///
/// With a pool ([`BatchScratch::set_pool`]), tiles are the parallel work
/// unit: every thread drains a shared atomic tile cursor (work-stealing —
/// fast threads take more tiles) into its own arena. Tiles write disjoint
/// lane windows of `dst`, and each output element's accumulation walks the
/// same stream in the same order as single-thread execution, so parallel
/// results are **bit-exact**, not merely close.
///
/// `#[inline(always)]`: the fill + MAC must inline into the segment
/// executors — routing them through an outlined helper measured ~10% off
/// batched throughput (re-confirmed by interleaved A/B when this function
/// first landed outlined; the PR 3 / PR 5 lesson).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn conv_exec_tiled(
    c: &QConv,
    cc: &CompiledConv,
    seg: &ConvSegment,
    batch: usize,
    src: &[i8],
    prefilled: Option<&[i16]>,
    par: Option<(&BatchPool, &[ArenaCell])>,
    stage: &mut [i8],
    pcolt: &mut [i16],
    acc: &mut [i32],
    dst: &mut [i8],
) {
    let positions = seg.positions;
    let lanes = batch * positions;
    let level = simd_level();
    debug_assert!(dst.len() >= seg.geom.out_c * lanes);
    if let Some(pc) = prefilled {
        assert_eq!(pc.len(), seg.pair_rows * 2 * lanes, "prefilled length");
    }
    let threads = par.map_or(1, |(p, _)| p.threads());
    let g = tile_images(seg.pair_rows, positions, batch, threads);
    let n_tiles = batch.div_ceil(g);

    if let Some((pool, arenas)) = par.filter(|_| n_tiles > 1 && threads > 1) {
        let cursor = AtomicUsize::new(0);
        let out = SendPtr(dst.as_mut_ptr());
        pool.run(&|tid| {
            // SAFETY: `tid` is unique per concurrent invocation — this
            // thread is the arena's only user.
            let arena = unsafe { &mut *arenas[tid].0.get() };
            loop {
                let t = cursor.fetch_add(1, Ordering::Relaxed);
                if t >= n_tiles {
                    break;
                }
                let (b_lo, b_hi) = (t * g, ((t + 1) * g).min(batch));
                let (w_lo, w_hi) = (b_lo * positions, b_hi * positions);
                // SAFETY: (both arms) tiles hold disjoint `[w_lo, w_hi)`
                // lane windows at shift 0, so writes are disjoint; `dst`
                // outlives the dispatch (`pool.run` blocks).
                match prefilled {
                    Some(pc) => unsafe {
                        conv_forward_pairs_window(
                            c,
                            cc,
                            pc,
                            lanes,
                            w_lo,
                            w_hi,
                            &mut arena.acc,
                            out.get(),
                            lanes,
                            w_lo,
                            level,
                        );
                    },
                    None => {
                        let n_t = seg.pair_rows * 2 * (w_hi - w_lo);
                        fill_pair_cols(
                            c,
                            seg.planar_in,
                            batch,
                            src,
                            b_lo..b_hi,
                            &mut arena.stage,
                            &mut arena.pcolt[..n_t],
                        );
                        // SAFETY: disjoint tile windows, per the argument
                        // at the top of the match.
                        unsafe {
                            conv_forward_pairs_window(
                                c,
                                cc,
                                &arena.pcolt[..n_t],
                                w_hi - w_lo,
                                0,
                                w_hi - w_lo,
                                &mut arena.acc,
                                out.get(),
                                lanes,
                                w_lo,
                                level,
                            );
                        }
                    }
                }
            }
        });
        return;
    }

    match prefilled {
        Some(pc) => {
            // SAFETY: whole-buffer window, sole writer.
            unsafe {
                conv_forward_pairs_window(
                    c,
                    cc,
                    pc,
                    lanes,
                    0,
                    lanes,
                    acc,
                    dst.as_mut_ptr(),
                    lanes,
                    0,
                    level,
                );
            }
        }
        None => {
            let mut b_lo = 0;
            while b_lo < batch {
                let b_hi = (b_lo + g).min(batch);
                let (w_lo, w_hi) = (b_lo * positions, b_hi * positions);
                let n_t = seg.pair_rows * 2 * (w_hi - w_lo);
                fill_pair_cols(
                    c,
                    seg.planar_in,
                    batch,
                    src,
                    b_lo..b_hi,
                    stage,
                    &mut pcolt[..n_t],
                );
                // SAFETY: sequential tiles, disjoint lane windows, sole
                // writer.
                unsafe {
                    conv_forward_pairs_window(
                        c,
                        cc,
                        &pcolt[..n_t],
                        w_hi - w_lo,
                        0,
                        w_hi - w_lo,
                        acc,
                        dst.as_mut_ptr(),
                        lanes,
                        w_lo,
                        level,
                    );
                }
                b_lo = b_hi;
            }
        }
    }
}

/// Per-conv-ordinal stream dispatch view (`None` = exact layer through the
/// dense stream): the borrowed form the batched drivers consume, buildable
/// from a [`CompiledMasks`] or from independently owned (e.g. memoized,
/// `Arc`-shared) [`CompiledConv`]s without cloning them into a mask set.
fn mask_view(masks: Option<&CompiledMasks>, n_convs: usize) -> Vec<Option<&CompiledConv>> {
    match masks {
        Some(m) => m.per_conv.iter().map(Option::as_ref).collect(),
        None => vec![None; n_convs],
    }
}

/// Where a [`BatchBackend`]'s current activation lives.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Cur {
    /// The caller's input (stacked model inputs, or a checkpoint's
    /// activations), read in place.
    Input,
    /// The scratch's `act_a`.
    A,
    /// The scratch's `act_b`.
    B,
}

/// Split the ping-pong buffers into the current activation and the buffer
/// the next segment writes (`act_a` unless the current one is `act_a`).
#[inline(always)]
fn io<'a>(
    cur: Cur,
    input: &'a [i8],
    act_a: &'a mut [i8],
    act_b: &'a mut [i8],
) -> (&'a [i8], &'a mut [i8]) {
    match cur {
        Cur::Input => (input, act_a),
        Cur::A => (act_a, act_b),
        Cur::B => (act_b, act_a),
    }
}

/// One run of the batch engine: `batch` images entering plan segments
/// `range` as `input` (`in_len` elements per image).
struct Run<'r> {
    range: Range<usize>,
    batch: usize,
    input: &'r [i8],
    in_len: usize,
    /// Stream per conv ordinal from `first_conv` on (`None` = exact,
    /// dense-stream dispatch).
    streams: &'r [Option<&'r CompiledConv>],
    first_conv: usize,
    /// Pair columns of conv `first_conv`, filled by the caller (the DSE's
    /// cached conv-0 columns, a trie node's sibling-shared fill): that
    /// conv skips its own fill.
    prefilled: Option<&'r [i16]>,
}

/// The batch-major backend: the serving / DSE hot path, and the only
/// compiled host engine. One instance walks one [`Run`] — the whole plan,
/// or a checkpoint's range of it.
struct BatchBackend<'r, 'm> {
    model: &'m QuantModel,
    batch: usize,
    streams: &'r [Option<&'r CompiledConv>],
    first_conv: usize,
    prefilled: Option<&'r [i16]>,
    dense_streams: &'r [CompiledConv],
    input: &'r [i8],
    act_a: &'r mut [i8],
    act_b: &'r mut [i8],
    stage: &'r mut [i8],
    pcolt: &'r mut [i16],
    acc: &'r mut [i32],
    nhwc: &'r mut [i8],
    /// Residual stash buffers (batch layout as produced): the scratch's
    /// own for a whole forward, the destination checkpoint's for a
    /// checkpoint run.
    stash: &'r mut [Vec<i8>],
    /// Intra-batch pool + per-thread arenas when parallel execution is on.
    par: Option<(&'r BatchPool, &'r [ArenaCell])>,
    /// Per-image activation length of the current buffer.
    cur_len: usize,
    cur: Cur,
}

impl BatchBackend<'_, '_> {
    #[inline(always)]
    fn advance(&mut self, out_len: usize) {
        self.cur_len = out_len;
        self.cur = if self.cur == Cur::A { Cur::B } else { Cur::A };
    }
}

impl ExecBackend for BatchBackend<'_, '_> {
    #[inline]
    fn conv(&mut self, seg: &ConvSegment) {
        let c = self.model.conv_at(seg.layer_idx);
        let batch = self.batch;
        let (src, dst) = io(self.cur, self.input, self.act_a, self.act_b);
        let i = seg.ordinal - self.first_conv;
        let prefilled = if i == 0 { self.prefilled } else { None };
        let cc = self.streams[i].unwrap_or(&self.dense_streams[seg.ordinal]);
        conv_exec_tiled(
            c,
            cc,
            seg,
            batch,
            src,
            prefilled,
            self.par,
            self.stage,
            self.pcolt,
            self.acc,
            &mut dst[..batch * seg.out_len],
        );
        self.advance(seg.out_len);
    }

    #[inline]
    fn pool(&mut self, seg: &PoolSegment) {
        let batch = self.batch;
        let (src, dst) = io(self.cur, self.input, self.act_a, self.act_b);
        if seg.planar_in {
            // A batch is C·B independent planes; pooling each plane
            // preserves the (c, b) → plane mapping.
            let planes = seg.c * batch;
            let in_plane = seg.in_h * seg.in_w;
            let out_plane = (seg.in_h / 2) * (seg.in_w / 2);
            match self.par.filter(|(p, _)| {
                p.threads() > 1 && batch * self.cur_len >= MIN_PAR_ELEMS && planes >= 2
            }) {
                Some((pool, _)) => {
                    // Plane chunks are independent (the pool is per-plane):
                    // thread t takes planes [t·chunk, (t+1)·chunk) — the
                    // (c, b) → plane mapping is untouched.
                    let chunk = planes.div_ceil(pool.threads());
                    let out = SendPtr(dst.as_mut_ptr());
                    pool.run(&|tid| {
                        let lo = (tid * chunk).min(planes);
                        let hi = ((tid + 1) * chunk).min(planes);
                        if lo >= hi {
                            return;
                        }
                        // SAFETY: chunks write disjoint output planes
                        // `[lo·out_plane, hi·out_plane)`; `dst` outlives
                        // the dispatch.
                        let dst_chunk = unsafe {
                            std::slice::from_raw_parts_mut(
                                out.get().add(lo * out_plane),
                                (hi - lo) * out_plane,
                            )
                        };
                        pool_forward_planar(
                            seg.in_h,
                            seg.in_w,
                            hi - lo,
                            &src[lo * in_plane..hi * in_plane],
                            dst_chunk,
                        );
                    });
                }
                None => pool_forward_planar(
                    seg.in_h,
                    seg.in_w,
                    planes,
                    &src[..batch * self.cur_len],
                    &mut dst[..batch * seg.out_len],
                ),
            }
        } else {
            for b in 0..batch {
                pool_forward(
                    seg.in_h,
                    seg.in_w,
                    seg.c,
                    &src[b * self.cur_len..(b + 1) * self.cur_len],
                    &mut dst[b * seg.out_len..(b + 1) * seg.out_len],
                );
            }
        }
        self.advance(seg.out_len);
    }

    #[inline]
    fn global_avg_pool(&mut self, seg: &GapSegment) {
        let batch = self.batch;
        let (src, dst) = io(self.cur, self.input, self.act_a, self.act_b);
        if seg.planar_in {
            // Image b's planes sit batch planes apart starting at plane b;
            // the output is a per-image channel vector.
            let plane_pitch = batch * seg.positions;
            for b in 0..batch {
                gap_forward_planar(
                    seg.positions,
                    seg.c,
                    plane_pitch,
                    &src[b * seg.positions..],
                    &mut dst[b * seg.out_len..(b + 1) * seg.out_len],
                );
            }
        } else {
            for b in 0..batch {
                gap_forward_nhwc(
                    seg.positions,
                    seg.c,
                    &src[b * self.cur_len..(b + 1) * self.cur_len],
                    &mut dst[b * seg.out_len..(b + 1) * seg.out_len],
                );
            }
        }
        self.advance(seg.out_len);
    }

    #[inline]
    fn dense(&mut self, seg: &DenseSegment) {
        let batch = self.batch;
        let d = self.model.dense_at(seg.layer_idx);
        let (src, dst) = io(self.cur, self.input, self.act_a, self.act_b);
        if let Some((positions, ch)) = seg.planar_in {
            // Per-image unbatch: gather image b's planes into NHWC, then
            // the (small) dense tail per image.
            for b in 0..batch {
                planar_to_nhwc_pitched(
                    &src[b * positions..],
                    positions,
                    ch,
                    batch * positions,
                    &mut self.nhwc[..self.cur_len],
                );
                dense_forward(
                    d,
                    &self.nhwc[..self.cur_len],
                    &mut dst[b * seg.out_dim..(b + 1) * seg.out_dim],
                );
            }
        } else {
            for b in 0..batch {
                dense_forward(
                    d,
                    &src[b * self.cur_len..(b + 1) * self.cur_len],
                    &mut dst[b * seg.out_dim..(b + 1) * seg.out_dim],
                );
            }
        }
        self.advance(seg.out_dim);
    }

    #[inline(never)]
    fn add(&mut self, seg: &AddSegment) {
        let a = self.model.add_at(seg.layer_idx);
        let batch = self.batch;
        let n = batch * seg.len;
        let (src, dst) = io(self.cur, self.input, self.act_a, self.act_b);
        match self
            .par
            .filter(|(p, _)| p.threads() > 1 && n >= MIN_PAR_ELEMS)
        {
            Some((pool, _)) => add_join_batched_par(
                a,
                seg,
                batch,
                &self.stash[seg.slot][..n],
                &src[..n],
                &mut dst[..n],
                pool,
            ),
            None => add_join_batched(
                a,
                seg,
                batch,
                &self.stash[seg.slot][..n],
                &src[..n],
                &mut dst[..n],
            ),
        }
        self.advance(seg.len);
    }

    #[inline(never)]
    fn stash(&mut self, slot: usize, len: usize) {
        let n = self.batch * len;
        let (src, _) = io(self.cur, self.input, self.act_a, self.act_b);
        // Within capacity for the scratch's own buffers; a checkpoint's
        // grows on its first descent only.
        self.stash[slot].clear();
        self.stash[slot].extend_from_slice(&src[..n]);
    }

    #[inline]
    fn logits(&mut self, seg: &LogitsSegment) {
        // A model ending on a conv/pool leaves the buffer batch-planar:
        // unbatch so callers always see per-image NHWC logits.
        if let Some((positions, ch)) = seg.planar {
            let batch = self.batch;
            let (src, dst) = io(self.cur, self.input, self.act_a, self.act_b);
            for b in 0..batch {
                // Split borrow: nhwc is a distinct field from act_a/act_b.
                planar_to_nhwc_pitched(
                    &src[b * positions..],
                    positions,
                    ch,
                    batch * positions,
                    &mut self.nhwc[..seg.out_len],
                );
                dst[b * seg.out_len..(b + 1) * seg.out_len]
                    .copy_from_slice(&self.nhwc[..seg.out_len]);
            }
            self.advance(seg.out_len);
        }
    }
}

impl BatchScratch {
    fn check_batch(&self, model: &QuantModel, batch: usize) {
        assert!(batch >= 1, "empty batch");
        assert!(
            batch <= self.max_batch,
            "batch {batch} exceeds scratch capacity {}",
            self.max_batch
        );
        debug_assert_eq!(
            self.dense_streams.len(),
            model.conv_indices().len(),
            "BatchScratch reused across models (it is bound to the model it \
             was constructed for)"
        );
    }

    /// Execute `run` of `model` over this scratch, recording stashes into
    /// `stash` (the scratch's own buffers when `None`). Returns where the
    /// result lives and its per-image length.
    fn execute(
        &mut self,
        model: &QuantModel,
        run: Run<'_>,
        stash: Option<&mut [Vec<i8>]>,
    ) -> (Cur, usize) {
        let BatchScratch {
            plan,
            act_a,
            act_b,
            stage,
            pcolt,
            acc,
            nhwc,
            stash: own_stash,
            dense_streams,
            pool,
            arenas,
            ..
        } = self;
        let par = pool
            .as_deref()
            .filter(|p| p.threads() > 1)
            .map(|p| (p, arenas.as_slice()));
        let mut backend = BatchBackend {
            model,
            batch: run.batch,
            streams: run.streams,
            first_conv: run.first_conv,
            prefilled: run.prefilled,
            dense_streams,
            input: run.input,
            act_a,
            act_b,
            stage,
            pcolt,
            acc,
            nhwc,
            stash: stash.unwrap_or(&mut own_stash[..]),
            par,
            cur_len: run.in_len,
            cur: Cur::Input,
        };
        plan.execute_range(run.range, &mut backend);
        (backend.cur, backend.cur_len)
    }

    /// The `n` result elements of a run that ended at `cur`.
    fn output<'a>(&'a self, cur: Cur, input: &'a [i8], n: usize) -> &'a [i8] {
        match cur {
            Cur::Input => &input[..n],
            Cur::A => &self.act_a[..n],
            Cur::B => &self.act_b[..n],
        }
    }
}

impl QuantModel {
    /// Batched pair-interleaved first-conv columns for `batch` stacked
    /// quantized inputs — τ-independent and therefore precomputable once
    /// per eval set.
    ///
    /// Returns `None` when the model does not start with a convolution.
    pub fn conv0_pair_cols_batch(&self, qinputs: &[i8], batch: usize) -> Option<Vec<i16>> {
        let c = match self.layers.first() {
            Some(crate::qmodel::QLayer::Conv(c)) => c,
            _ => return None,
        };
        let in_len = self.input_shape.item_len();
        assert_eq!(qinputs.len(), batch * in_len, "input length mismatch");
        let lanes = batch * c.geom.out_positions();
        let mut stage = vec![0i8; in_len];
        let mut pcolt = vec![0i16; c.patch_len().div_ceil(2) * 2 * lanes];
        // The model input arrives NHWC: the first conv stages it planar.
        fill_pair_cols(c, false, batch, qinputs, 0..batch, &mut stage, &mut pcolt);
        Some(pcolt)
    }

    /// Batched forward with compiled masks: `batch` quantized inputs stacked
    /// back-to-back in `qinputs`, logits stacked back-to-back in the return
    /// value (`batch × out_len`, NHWC per image).
    ///
    /// `conv0_pcolt` optionally supplies this batch's precomputed
    /// first-conv pair columns ([`QuantModel::conv0_pair_cols_batch`]).
    /// Bit-exact with [`QuantModel::forward_quantized`] per image over the
    /// boolean masks the compiled masks were built from.
    pub fn forward_compiled_batch_scratch(
        &self,
        qinputs: &[i8],
        batch: usize,
        conv0_pcolt: Option<&[i16]>,
        masks: Option<&CompiledMasks>,
        s: &mut BatchScratch,
    ) -> Vec<i8> {
        let view = mask_view(masks, s.dense_streams.len());
        let (cur, per_image) =
            self.forward_compiled_batch_core(qinputs, batch, conv0_pcolt, &view, s);
        s.output(cur, qinputs, batch * per_image).to_vec()
    }

    /// Predicted class per image of a batch, reusing caller scratch —
    /// allocation-free beyond the returned vector.
    pub fn predict_compiled_batch_scratch(
        &self,
        qinputs: &[i8],
        batch: usize,
        conv0_pcolt: Option<&[i16]>,
        masks: Option<&CompiledMasks>,
        s: &mut BatchScratch,
    ) -> Vec<usize> {
        let view = mask_view(masks, s.dense_streams.len());
        self.predict_compiled_batch_view(qinputs, batch, conv0_pcolt, &view, s)
    }

    /// [`QuantModel::predict_compiled_batch_scratch`] over a borrowed
    /// per-ordinal stream view (`streams[k] = None` = conv ordinal `k`
    /// exact) — lets callers dispatch memoized `Arc`-shared streams without
    /// assembling an owned [`CompiledMasks`] per design.
    pub fn predict_compiled_batch_view(
        &self,
        qinputs: &[i8],
        batch: usize,
        conv0_pcolt: Option<&[i16]>,
        streams: &[Option<&CompiledConv>],
        s: &mut BatchScratch,
    ) -> Vec<usize> {
        let (cur, per_image) =
            self.forward_compiled_batch_core(qinputs, batch, conv0_pcolt, streams, s);
        let fin = s.output(cur, qinputs, batch * per_image);
        (0..batch)
            .map(|b| argmax_i8(&fin[b * per_image..(b + 1) * per_image]))
            .collect()
    }

    /// Batched driver: the whole plan as one run, writing into scratch;
    /// returns where the logits live and the per-image logits length.
    fn forward_compiled_batch_core(
        &self,
        qinputs: &[i8],
        batch: usize,
        conv0_pcolt: Option<&[i16]>,
        streams: &[Option<&CompiledConv>],
        s: &mut BatchScratch,
    ) -> (Cur, usize) {
        s.check_batch(self, batch);
        assert_eq!(streams.len(), s.dense_streams.len(), "stream arity");
        let in_len = self.input_shape.item_len();
        assert_eq!(qinputs.len(), batch * in_len, "input length mismatch");
        let run = Run {
            range: 0..s.plan.segments().len(),
            batch,
            input: qinputs,
            in_len,
            streams,
            first_conv: 0,
            prefilled: conv0_pcolt,
        };
        s.execute(self, run, None)
    }

    /// Execute `run` into checkpoint `out`: its stashes record into
    /// `out.stashes`, its result becomes `out`'s activations, and every
    /// stash an Add of the range consumed is released.
    fn run_into_checkpoint(&self, run: Run<'_>, s: &mut BatchScratch, out: &mut BatchCheckpoint) {
        let (range, batch, input) = (run.range.clone(), run.batch, run.input);
        let (cur, len) = s.execute(self, run, Some(&mut out.stashes[..]));
        out.act.clear();
        out.act.extend_from_slice(s.output(cur, input, batch * len));
        out.batch = batch;
        out.cur_len = len;
        out.complete = range.end == s.plan.segments().len();
        // Each slot is consumed by exactly one Add (LIFO pairing, asserted
        // at lowering), and sibling advances re-read the *ancestor*
        // checkpoint — free the dead buffer so descendant checkpoints stop
        // cloning it and resident_bytes stops counting its capacity.
        for seg in &s.plan.segments()[range] {
            if let Segment::Add(a) = seg {
                out.stashes[a.slot] = Vec::new();
            }
        }
    }

    /// Begin a resumable batched forward: capture `qinputs` and run the
    /// plan's leading non-conv segments, leaving `out` positioned before
    /// conv ordinal 0 (or complete, for a conv-free model).
    pub fn batch_start_into(
        &self,
        qinputs: &[i8],
        batch: usize,
        s: &mut BatchScratch,
        out: &mut BatchCheckpoint,
    ) {
        s.check_batch(self, batch);
        let in_len = self.input_shape.item_len();
        assert_eq!(qinputs.len(), batch * in_len, "input length mismatch");
        // One (initially empty) stash buffer per plan slot; the run
        // records input stashes and leading-segment side-outputs.
        out.stashes.resize_with(s.plan.n_stash_slots(), Vec::new);
        for st in &mut out.stashes {
            st.clear();
        }
        let run = Run {
            range: s.plan.leading_range(),
            batch,
            input: qinputs,
            in_len,
            streams: &[],
            first_conv: 0,
            prefilled: None,
        };
        self.run_into_checkpoint(run, s, out);
        out.conv_ordinal = 0;
    }

    /// Allocating convenience over [`QuantModel::batch_start_into`].
    pub fn batch_start(
        &self,
        qinputs: &[i8],
        batch: usize,
        s: &mut BatchScratch,
    ) -> BatchCheckpoint {
        let mut out = BatchCheckpoint::empty();
        self.batch_start_into(qinputs, batch, s, &mut out);
        out
    }

    /// Fill the batched pair-interleaved columns of the conv segment `ckpt`
    /// is positioned before — the τ-independent half of the segment, so a
    /// trie traversal fills once per node and shares the columns across all
    /// sibling τ choices via [`QuantModel::batch_advance_into`].
    pub fn batch_fill_conv_cols(
        &self,
        ckpt: &BatchCheckpoint,
        s: &mut BatchScratch,
        out: &mut Vec<i16>,
    ) {
        assert!(!ckpt.complete, "checkpoint already past the final layer");
        let seg = s.plan.conv_segment(ckpt.conv_ordinal);
        let c = self.conv_at(seg.layer_idx);
        let n = seg.pair_rows * 2 * ckpt.batch * seg.positions;
        out.resize(n, 0);
        fill_pair_cols(
            c,
            seg.planar_in,
            ckpt.batch,
            &ckpt.act,
            0..ckpt.batch,
            &mut s.stage,
            &mut out[..],
        );
    }

    /// Advance one checkpoint segment of the plan: run the conv segment
    /// `ckpt` is positioned before under `stream` (`None` = exact,
    /// dense-stream dispatch), then every following non-conv segment up to
    /// the next conv or through the logits epilogue, writing the resulting
    /// state into `out`.
    ///
    /// `prefilled` optionally supplies this segment's pair columns
    /// ([`QuantModel::batch_fill_conv_cols`], or the eval cache's conv-0
    /// columns at ordinal 0); when `None` the columns are filled here.
    /// Bit-exact with the monolithic batched forward for every split.
    pub fn batch_advance_into(
        &self,
        ckpt: &BatchCheckpoint,
        stream: Option<&CompiledConv>,
        prefilled: Option<&[i16]>,
        s: &mut BatchScratch,
        out: &mut BatchCheckpoint,
    ) {
        assert!(!ckpt.complete, "checkpoint already past the final layer");
        s.check_batch(self, ckpt.batch);
        let k = ckpt.conv_ordinal;
        // Live stashes travel with the resume state: clone from the source
        // so the source checkpoint stays reusable for sibling τ choices
        // (prefixes share *through* a residual join).
        out.stashes.clone_from(&ckpt.stashes);
        let run = Run {
            range: s.plan.advance_range(k),
            batch: ckpt.batch,
            input: &ckpt.act,
            in_len: ckpt.cur_len,
            streams: std::slice::from_ref(&stream),
            first_conv: k,
            prefilled,
        };
        self.run_into_checkpoint(run, s, out);
        out.conv_ordinal = k + 1;
    }

    /// Predicted class per image of a **complete** checkpoint, appended
    /// into `preds` (cleared first) — allocation-free at steady state.
    pub fn batch_checkpoint_predictions_into(
        &self,
        ckpt: &BatchCheckpoint,
        preds: &mut Vec<usize>,
    ) {
        assert!(ckpt.complete, "checkpoint has layers left to run");
        preds.clear();
        preds.extend(
            (0..ckpt.batch).map(|b| argmax_i8(&ckpt.act[b * ckpt.cur_len..(b + 1) * ckpt.cur_len])),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::calibrate_ranges;
    use crate::forward::SkipMaskSet;
    use crate::qmodel::quantize_model;
    use cifar10sim::DatasetConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn quantized_micro(seed: u64) -> (QuantModel, cifar10sim::SyntheticCifar) {
        let data = cifar10sim::generate(DatasetConfig::tiny(seed));
        let mut rng = StdRng::seed_from_u64(seed);
        let m = tinynn::Sequential::new("bm", tinytensor::Shape4::nhwc(1, 32, 32, 3))
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

    fn stacked_qinputs(q: &QuantModel, data: &cifar10sim::SyntheticCifar, n: usize) -> Vec<i8> {
        let mut flat = Vec::new();
        for i in 0..n {
            flat.extend(q.quantize_input(data.test.image(i)));
        }
        flat
    }

    #[test]
    fn batched_forward_bit_exact_with_per_image_all_batch_sizes() {
        let (q, data) = quantized_micro(301);
        let masks = random_masks(&q, 7, 3);
        let compiled = CompiledMasks::compile(&q, &masks);
        let mut batch_scratch = BatchScratch::for_model(&q, 8);
        for batch in 1..=8usize {
            let flat = stacked_qinputs(&q, &data, batch);
            let got = q.forward_compiled_batch_scratch(
                &flat,
                batch,
                None,
                Some(&compiled),
                &mut batch_scratch,
            );
            let in_len = q.input_shape.item_len();
            for b in 0..batch {
                let want = q.forward_quantized(&flat[b * in_len..(b + 1) * in_len], Some(&masks));
                let out_len = want.len();
                assert_eq!(
                    &got[b * out_len..(b + 1) * out_len],
                    &want[..],
                    "batch {batch}, image {b}"
                );
            }
        }
    }

    #[test]
    fn batched_conv0_cache_and_predictions_bit_exact() {
        let (q, data) = quantized_micro(302);
        let masks = random_masks(&q, 11, 4);
        let compiled = CompiledMasks::compile(&q, &masks);
        let mut per_image = BatchScratch::for_model(&q, 1);
        let mut bs = BatchScratch::for_model(&q, 5);
        let in_len = q.input_shape.item_len();
        // Ragged batch (5 then 3) with the cached conv0 pair columns.
        for batch in [5usize, 3] {
            let flat = stacked_qinputs(&q, &data, batch);
            let pcolt = q.conv0_pair_cols_batch(&flat, batch).expect("conv first");
            let preds = q.predict_compiled_batch_scratch(
                &flat,
                batch,
                Some(&pcolt),
                Some(&compiled),
                &mut bs,
            );
            for (b, &pred) in preds.iter().enumerate() {
                let want = q.predict_compiled_batch_scratch(
                    &flat[b * in_len..(b + 1) * in_len],
                    1,
                    None,
                    Some(&compiled),
                    &mut per_image,
                )[0];
                assert_eq!(pred, want, "batch {batch}, image {b}");
            }
        }
    }

    #[test]
    fn batched_exact_path_matches_reference() {
        let (q, data) = quantized_micro(303);
        let mut bs = BatchScratch::for_model(&q, 4);
        let flat = stacked_qinputs(&q, &data, 4);
        let got = q.forward_compiled_batch_scratch(&flat, 4, None, None, &mut bs);
        let in_len = q.input_shape.item_len();
        for b in 0..4 {
            let want = q.forward_quantized(&flat[b * in_len..(b + 1) * in_len], None);
            let out_len = want.len();
            assert_eq!(&got[b * out_len..(b + 1) * out_len], &want[..], "image {b}");
        }
    }

    #[test]
    fn conv0_column_producers_agree() {
        // Every conv-0 column producer — the DSE cache (batched and
        // per-image) and the checkpoint fill at the start checkpoint —
        // yields the same pair columns, lane window for lane window. The
        // 3-channel input puts pairs across kernel positions.
        let (q, data) = quantized_micro(308);
        let seg = ExecPlan::lower(&q).conv_segment(0).clone();
        assert!(!seg.planar_in && seg.geom.in_c == 3);
        let (positions, pair_rows) = (seg.positions, seg.pair_rows);
        let in_len = q.input_shape.item_len();
        let mut bs = BatchScratch::for_model(&q, 12);
        let mut cols = Vec::new();
        for batch in [12usize, 5] {
            let flat = stacked_qinputs(&q, &data, batch);
            let cached = q.conv0_pair_cols_batch(&flat, batch).expect("conv first");
            let start = q.batch_start(&flat, batch, &mut bs);
            q.batch_fill_conv_cols(&start, &mut bs, &mut cols);
            assert_eq!(cols, cached, "batch {batch}: checkpoint fill vs cache");
            let lanes = batch * positions;
            for b in 0..batch {
                let one = q
                    .conv0_pair_cols_batch(&flat[b * in_len..(b + 1) * in_len], 1)
                    .expect("conv first");
                for r in 0..pair_rows {
                    let window = &cached[r * 2 * lanes + 2 * b * positions..][..2 * positions];
                    assert_eq!(
                        window,
                        &one[r * 2 * positions..(r + 1) * 2 * positions],
                        "batch {batch}, image {b}, pair row {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn checkpoint_chain_bit_exact_with_monolithic() {
        let (q, data) = quantized_micro(306);
        let masks = random_masks(&q, 13, 3);
        let compiled = CompiledMasks::compile(&q, &masks);
        let mut bs = BatchScratch::for_model(&q, 5);
        for batch in [1usize, 4, 5] {
            let flat = stacked_qinputs(&q, &data, batch);
            let want =
                q.predict_compiled_batch_scratch(&flat, batch, None, Some(&compiled), &mut bs);
            // Segment-by-segment with prefilled sibling-shared columns.
            let mut cur = q.batch_start(&flat, batch, &mut bs);
            let mut next = BatchCheckpoint::empty();
            let mut cols = Vec::new();
            while let Some(k) = cur.next_conv_ordinal() {
                q.batch_fill_conv_cols(&cur, &mut bs, &mut cols);
                q.batch_advance_into(
                    &cur,
                    compiled.per_conv[k].as_ref(),
                    Some(&cols),
                    &mut bs,
                    &mut next,
                );
                std::mem::swap(&mut cur, &mut next);
            }
            assert!(cur.is_complete());
            let mut preds = Vec::new();
            q.batch_checkpoint_predictions_into(&cur, &mut preds);
            assert_eq!(preds, want, "batch {batch}");
            assert!(cur.resident_bytes() > 0);
        }
    }

    #[test]
    fn checkpoint_resume_shares_prefix_across_suffixes() {
        // Two designs agreeing on conv 0: advance conv 0 once, then branch.
        let (q, data) = quantized_micro(307);
        let masks_a = random_masks(&q, 21, 3);
        let mut masks_b = masks_a.clone();
        masks_b.per_conv[1] = random_masks(&q, 22, 2).per_conv[1].clone();
        let ca = CompiledMasks::compile(&q, &masks_a);
        let cb = CompiledMasks::compile(&q, &masks_b);
        let batch = 4;
        let flat = stacked_qinputs(&q, &data, batch);
        let mut bs = BatchScratch::for_model(&q, batch);

        let start = q.batch_start(&flat, batch, &mut bs);
        let mut shared = BatchCheckpoint::empty();
        q.batch_advance_into(&start, ca.per_conv[0].as_ref(), None, &mut bs, &mut shared);
        let mut leaf = BatchCheckpoint::empty();
        let mut preds = Vec::new();
        for (cm, label) in [(&ca, "a"), (&cb, "b")] {
            q.batch_advance_into(&shared, cm.per_conv[1].as_ref(), None, &mut bs, &mut leaf);
            assert!(leaf.is_complete());
            q.batch_checkpoint_predictions_into(&leaf, &mut preds);
            let want = q.predict_compiled_batch_scratch(&flat, batch, None, Some(cm), &mut bs);
            assert_eq!(preds, want, "design {label}");
        }
    }

    #[test]
    fn parallel_batched_forward_bit_exact_with_serial() {
        let (q, data) = quantized_micro(310);
        let masks = random_masks(&q, 17, 3);
        let compiled = CompiledMasks::compile(&q, &masks);
        let mut serial = BatchScratch::for_model(&q, 8);
        for threads in [2usize, 4] {
            let mut par = BatchScratch::for_model(&q, 8);
            par.set_pool(Some(BatchPool::new(threads)));
            assert_eq!(par.intra_batch_threads(), threads);
            for batch in [1usize, 3, 5, 8] {
                let flat = stacked_qinputs(&q, &data, batch);
                let want = q.forward_compiled_batch_scratch(
                    &flat,
                    batch,
                    None,
                    Some(&compiled),
                    &mut serial,
                );
                let got =
                    q.forward_compiled_batch_scratch(&flat, batch, None, Some(&compiled), &mut par);
                assert_eq!(got, want, "threads {threads}, batch {batch}");
            }
        }
    }

    #[test]
    fn parallel_checkpoint_chain_bit_exact_with_serial() {
        let (q, data) = quantized_micro(311);
        let masks = random_masks(&q, 19, 3);
        let compiled = CompiledMasks::compile(&q, &masks);
        let batch = 6;
        let flat = stacked_qinputs(&q, &data, batch);
        let mut serial = BatchScratch::for_model(&q, batch);
        let want =
            q.predict_compiled_batch_scratch(&flat, batch, None, Some(&compiled), &mut serial);
        let mut bs = BatchScratch::for_model(&q, batch);
        bs.set_pool(Some(BatchPool::new(3)));
        let mut cur = q.batch_start(&flat, batch, &mut bs);
        let mut next = BatchCheckpoint::empty();
        let mut cols = Vec::new();
        while let Some(k) = cur.next_conv_ordinal() {
            // Alternate prefilled (lane-window parallel MAC) and in-segment
            // tile fills.
            let prefilled = if k % 2 == 0 {
                q.batch_fill_conv_cols(&cur, &mut bs, &mut cols);
                Some(&cols[..])
            } else {
                None
            };
            q.batch_advance_into(
                &cur,
                compiled.per_conv[k].as_ref(),
                prefilled,
                &mut bs,
                &mut next,
            );
            std::mem::swap(&mut cur, &mut next);
        }
        assert!(cur.is_complete());
        let mut preds = Vec::new();
        q.batch_checkpoint_predictions_into(&cur, &mut preds);
        assert_eq!(preds, want);
    }

    #[test]
    fn set_pool_back_to_none_restores_serial_path() {
        let (q, data) = quantized_micro(312);
        let mut bs = BatchScratch::for_model(&q, 4);
        bs.set_pool(Some(BatchPool::new(2)));
        bs.set_pool(None);
        assert_eq!(bs.intra_batch_threads(), 1);
        let flat = stacked_qinputs(&q, &data, 4);
        let got = q.forward_compiled_batch_scratch(&flat, 4, None, None, &mut bs);
        let in_len = q.input_shape.item_len();
        for b in 0..4 {
            let want = q.forward_quantized(&flat[b * in_len..(b + 1) * in_len], None);
            let out_len = want.len();
            assert_eq!(&got[b * out_len..(b + 1) * out_len], &want[..], "image {b}");
        }
    }

    #[test]
    fn scratch_reports_capacity_and_bytes() {
        let (q, _) = quantized_micro(304);
        let bs = BatchScratch::for_model(&q, 6);
        assert_eq!(bs.max_batch(), 6);
        assert!(bs.resident_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "exceeds scratch capacity")]
    fn oversized_batch_is_rejected() {
        let (q, data) = quantized_micro(305);
        let mut bs = BatchScratch::for_model(&q, 2);
        let flat = stacked_qinputs(&q, &data, 3);
        let _ = q.forward_compiled_batch_scratch(&flat, 3, None, None, &mut bs);
    }
}
