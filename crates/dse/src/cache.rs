//! Cross-design evaluation cache: the τ-independent part of the DSE loop,
//! computed once and shared read-only by every design evaluation.
//!
//! Profiling the naive `explore()` shows every design redoing, per eval
//! image, work that no τ can change: quantizing the f32 image into the
//! int8 input domain, and — because the first conv consumes the raw input —
//! the first conv's im2col gather, centering and pair interleave.
//! [`DseEvalCache`] front-loads both, and it does so **batch-major**: the
//! eval set is packed into batches of [`DseEvalCache::batch_size`] images
//! (a ragged final batch when the set doesn't divide evenly) so that
//! [`DseEvalCache::accuracy`] — the hot call of the whole DSE — runs the
//! batched pair-stream kernels, traversing each design's weight streams and
//! output stages once per *batch* instead of once per image:
//!
//! * `qinputs` — each batch's quantized inputs, stacked back-to-back;
//! * `conv0_pcols` — each batch's pair-interleaved first-conv columns (the
//!   `a_i` stream of Eq. (1) for conv ordinal 0, batched), handed straight
//!   to the kernel so masked evaluation of conv 0 starts at the MAC loop;
//! * `labels` — for Top-1 accuracy without touching the `Dataset` again.
//!
//! The cache is immutable after construction and `Sync`, so
//! `explore()`/`greedy_refine()` workers share one instance across designs
//! and rayon threads. The boolean-mask reference forward
//! ([`QuantModel::forward_quantized`]) stays the bit-exactness oracle;
//! tests assert batch accuracy equals the per-image boolean-mask accuracy
//! exactly.
//!
//! On top of the per-design [`DseEvalCache::accuracy`],
//! [`DseEvalCache::accuracies_trie`] evaluates a whole τ-trie of
//! configurations in one **prefix-sharing** traversal: per batch it walks
//! the trie depth-first with a bounded stack of activation checkpoints
//! ([`quantize::BatchCheckpoint`]) and per-depth pair-column buffers, so a
//! conv segment runs once per trie *node* (not once per design) and each
//! node's im2col fill is shared across its sibling τ choices. Work items
//! are (top-level subtree × batch) pairs, parallelized with per-worker
//! pooled trie scratches; the merge is an integer sum, so results are
//! schedule-independent.

use crate::space::{TauTrie, TrieNode};
use cifar10sim::Dataset;
use quantize::plan::ExecPlan;
use quantize::{BatchCheckpoint, BatchScratch, CompiledConv, CompiledMasks, QuantModel};
use rayon::prelude::*;
use signif::{LayerStream, StreamMemo};
use std::sync::{Arc, Mutex};

/// Default images per batch: big enough to amortize per-batch stream
/// traversal and queueing, small enough that a batch's working set (batched
/// pair columns + batch-planar activations, several hundred KB at this
/// size for the paper's models) stays L2-resident — measured optimum on the
/// reference machine; larger batches thrash L2 and measure ~15% slower.
pub const DEFAULT_EVAL_BATCH: usize = 12;

/// One batch of the eval set in batch-major form.
struct EvalBatch {
    /// Images in this batch (the final batch may be ragged).
    len: usize,
    /// Quantized inputs, stacked back-to-back (`len × input_len`).
    qinputs: Vec<i8>,
    /// Batched pair-interleaved first-conv columns; `None` when the model
    /// does not start with a convolution.
    conv0_pcols: Option<Vec<i16>>,
    /// Ground-truth labels.
    labels: Vec<u8>,
}

/// Pre-quantized batched inputs + first-conv pair columns + labels for one
/// eval set.
pub struct DseEvalCache {
    batch_size: usize,
    n_images: usize,
    /// The model's execution plan, lowered once per cache — per-design
    /// evaluation tails read it instead of re-lowering per design.
    plan: ExecPlan,
    batches: Vec<EvalBatch>,
    /// Reusable [`BatchScratch`]es, checked out per worker per
    /// [`DseEvalCache::accuracy`] call and returned afterwards — the DSE
    /// calls `accuracy` once per design, and reallocating multi-megabyte
    /// batched column buffers per design is measurable. Scratches are sized
    /// for the model the cache was built for (the only model `accuracy`
    /// accepts meaningful masks of).
    scratch_pool: Mutex<Vec<BatchScratch>>,
    /// Reusable trie-traversal scratches (checkpoint stack + per-depth
    /// pair-column buffers + a [`BatchScratch`]), one per worker at steady
    /// state — the prefix-sharing analogue of `scratch_pool`.
    trie_pool: Mutex<Vec<TrieScratch>>,
}

/// Per-worker state of one trie descent: a stack of activation checkpoints
/// (entry `d` = the batch state before conv ordinal `d`) and a stack of
/// filled pair-column buffers (entry `d` = conv `d`'s columns, shared by
/// every sibling τ at that node), plus kernel scratch and a prediction
/// buffer. Bounded: `n_convs + 1` checkpoints and `n_convs` column buffers
/// regardless of grid size.
struct TrieScratch {
    scratch: BatchScratch,
    ckpts: Vec<BatchCheckpoint>,
    cols: Vec<Vec<i16>>,
    preds: Vec<usize>,
}

impl TrieScratch {
    fn new(model: &QuantModel, batch_size: usize, n_convs: usize) -> Self {
        Self {
            scratch: BatchScratch::for_model(model, batch_size),
            ckpts: (0..=n_convs).map(|_| BatchCheckpoint::empty()).collect(),
            cols: vec![Vec::new(); n_convs],
            preds: Vec::new(),
        }
    }

    fn resident_bytes(&self) -> u64 {
        self.scratch.resident_bytes()
            + self
                .ckpts
                .iter()
                .map(BatchCheckpoint::resident_bytes)
                .sum::<u64>()
            + self
                .cols
                .iter()
                .map(|c| 2 * c.capacity() as u64)
                .sum::<u64>()
    }
}

/// Checked-out scratch that returns itself to the pool on drop (covers the
/// early-return and panic paths of rayon workers).
struct PooledScratch<'a> {
    pool: &'a Mutex<Vec<BatchScratch>>,
    scratch: Option<BatchScratch>,
}

impl Drop for PooledScratch<'_> {
    fn drop(&mut self) {
        if let Some(s) = self.scratch.take() {
            self.pool.lock().unwrap().push(s);
        }
    }
}

/// Checked-out trie scratch that returns itself to the pool on drop.
struct PooledTrieScratch<'a> {
    pool: &'a Mutex<Vec<TrieScratch>>,
    scratch: Option<TrieScratch>,
}

impl Drop for PooledTrieScratch<'_> {
    fn drop(&mut self) {
        if let Some(s) = self.scratch.take() {
            self.pool.lock().unwrap().push(s);
        }
    }
}

impl DseEvalCache {
    /// Build the cache for `eval_set` (all images; callers slice the set
    /// beforehand via `Dataset::take`) at the default batch size.
    pub fn new(model: &QuantModel, eval_set: &Dataset) -> Self {
        Self::with_batch_size(model, eval_set, DEFAULT_EVAL_BATCH)
    }

    /// Build the cache with an explicit batch size (tests exercise ragged
    /// and unit batches; benchmarks sweep it).
    pub fn with_batch_size(model: &QuantModel, eval_set: &Dataset, batch_size: usize) -> Self {
        assert!(batch_size >= 1, "batch size must be at least 1");
        let n = eval_set.len();
        let in_len = model.input_shape.item_len();
        let n_batches = n.div_ceil(batch_size);
        let batches: Vec<EvalBatch> = (0..n_batches)
            .into_par_iter()
            .map(|bi| {
                let start = bi * batch_size;
                let len = batch_size.min(n - start);
                let mut qinputs = Vec::with_capacity(len * in_len);
                for i in start..start + len {
                    qinputs.extend(model.quantize_input(eval_set.image(i)));
                }
                let conv0_pcols = model.conv0_pair_cols_batch(&qinputs, len);
                EvalBatch {
                    len,
                    qinputs,
                    conv0_pcols,
                    labels: eval_set.labels[start..start + len].to_vec(),
                }
            })
            .collect();
        Self {
            batch_size,
            n_images: n,
            plan: ExecPlan::lower(model),
            batches,
            scratch_pool: Mutex::new(Vec::new()),
            trie_pool: Mutex::new(Vec::new()),
        }
    }

    /// The cached model's execution plan (lowered once at construction).
    pub fn plan(&self) -> &ExecPlan {
        &self.plan
    }

    /// Number of cached images.
    pub fn len(&self) -> usize {
        self.n_images
    }

    /// True when the cache holds no images.
    pub fn is_empty(&self) -> bool {
        self.n_images == 0
    }

    /// Images per full batch (the final batch may hold fewer).
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Number of batches (including a ragged tail batch, if any).
    pub fn n_batches(&self) -> usize {
        self.batches.len()
    }

    /// Whether first-conv pair columns are cached (model starts with a
    /// conv).
    pub fn has_conv0_cols(&self) -> bool {
        self.batches
            .first()
            .is_some_and(|b| b.conv0_pcols.is_some())
    }

    /// Resident bytes of the cache: batched quantized inputs, batched
    /// first-conv pair-column buffers, labels, **and** the pooled
    /// [`BatchScratch`]es / trie scratches (checkpoint stacks + per-depth
    /// column buffers) retained from past [`DseEvalCache::accuracy`] /
    /// [`DseEvalCache::accuracies_trie`] calls (one per worker at steady
    /// state — the largest growing component on wide machines). Reported by
    /// `dse_bench` so memory growth stays visible in the perf trajectory.
    pub fn resident_bytes(&self) -> u64 {
        let data: u64 = self
            .batches
            .iter()
            .map(|b| {
                b.qinputs.len() as u64
                    + b.conv0_pcols.as_ref().map_or(0, |c| 2 * c.len() as u64)
                    + b.labels.len() as u64
            })
            .sum();
        let pool: u64 = self
            .scratch_pool
            .lock()
            .unwrap()
            .iter()
            .map(BatchScratch::resident_bytes)
            .sum();
        data + pool + self.trie_scratch_bytes()
    }

    /// Heap bytes of the pooled trie-traversal scratches alone: checkpoint
    /// stacks, per-depth pair-column buffers and their kernel scratches —
    /// the memory budget of prefix sharing, reported separately by
    /// `dse_bench`.
    pub fn trie_scratch_bytes(&self) -> u64 {
        self.trie_pool
            .lock()
            .unwrap()
            .iter()
            .map(TrieScratch::resident_bytes)
            .sum()
    }

    /// Top-1 accuracy of `model` under `masks` over the cached eval set —
    /// the hot call of `explore()`, running the batch-major compiled
    /// kernels. Rayon-parallel across batches with per-worker scratch;
    /// deterministic (pure per-batch work, ordered integer reduction).
    ///
    /// `model` must be the model the cache was built for: the cached
    /// quantized inputs and first-conv columns carry *that* model's
    /// quantization (and the pooled scratches its dense streams), so a
    /// different model would be silently evaluated against stale data.
    ///
    /// Bit-exact with `model.accuracy(eval_set, Some(&bool_masks))` for the
    /// boolean masks `masks` was compiled from.
    pub fn accuracy(&self, model: &QuantModel, masks: &CompiledMasks) -> f32 {
        let view: Vec<Option<&CompiledConv>> = masks.per_conv.iter().map(Option::as_ref).collect();
        // Debug builds statically verify every compiled stream against the
        // plan before it reaches the unsafe kernels; release trusts the
        // deploy-time check ([`Registry::deploy`]) instead.
        #[cfg(debug_assertions)]
        for (ordinal, cc) in view.iter().enumerate() {
            if let Some(cc) = cc {
                if let Err(e) = self.plan.verify_stream(ordinal, cc) {
                    panic!("design stream failed static verification: {e}");
                }
            }
        }
        self.accuracy_view(model, &view)
    }

    /// [`DseEvalCache::accuracy`] over memoized `Arc`-shared per-layer
    /// streams ([`StreamMemo::design`]) — no owned [`CompiledMasks`] is
    /// assembled per design.
    pub fn accuracy_streams(&self, model: &QuantModel, streams: &[Arc<LayerStream>]) -> f32 {
        // Debug builds cross-check each memoized stream — tallies *and*
        // compiled payload — against the plan geometry before evaluation.
        #[cfg(debug_assertions)]
        for (ordinal, s) in streams.iter().enumerate() {
            if let Err(e) = s.verify_consistent(&self.plan, ordinal) {
                panic!("memoized stream failed static verification: {e}");
            }
        }
        let view: Vec<Option<&CompiledConv>> =
            streams.iter().map(|s| s.compiled.as_ref()).collect();
        self.accuracy_view(model, &view)
    }

    fn accuracy_view(&self, model: &QuantModel, streams: &[Option<&CompiledConv>]) -> f32 {
        if self.is_empty() {
            return 0.0;
        }
        let correct: usize = self
            .batches
            .par_iter()
            .map_init(
                || PooledScratch {
                    pool: &self.scratch_pool,
                    scratch: self.scratch_pool.lock().unwrap().pop(),
                },
                |pooled, batch| {
                    let scratch = pooled
                        .scratch
                        .get_or_insert_with(|| BatchScratch::for_model(model, self.batch_size));
                    let preds = model.predict_compiled_batch_view(
                        &batch.qinputs,
                        batch.len,
                        batch.conv0_pcols.as_deref(),
                        streams,
                        scratch,
                    );
                    preds
                        .iter()
                        .zip(&batch.labels)
                        .filter(|&(&p, &l)| p == l as usize)
                        .count()
                },
            )
            .sum();
        correct as f32 / self.n_images as f32
    }

    /// Top-1 accuracy of **every** configuration of a τ trie in one
    /// prefix-sharing traversal — the hot call of the trie-ordered
    /// `explore()`. Returns accuracies indexed like the config list the
    /// trie was built from.
    ///
    /// Per `(top-level subtree, batch)` work item — parallelized across
    /// rayon workers, each holding its own pooled trie scratch — the
    /// trie is walked depth-first: advancing from the checkpoint stack's
    /// state before conv `d` through conv `d` under one memoized τ stream
    /// yields the state before conv `d+1`, so a segment runs once per trie
    /// node instead of once per design, and each node's pair-column fill is
    /// shared by all its sibling τ choices (conv 0 reuses the cache's
    /// precomputed columns outright). Leaves run the (τ-independent) tail
    /// and score predictions; duplicate configs share one leaf.
    ///
    /// Deterministic (per-config integer correct counts, summed) and
    /// bit-exact with [`DseEvalCache::accuracy`] per design: the segment
    /// kernels are the monolithic batched forward's, merely re-entered at
    /// checkpoints.
    pub fn accuracies_trie(
        &self,
        model: &QuantModel,
        memo: &StreamMemo<'_>,
        trie: &TauTrie,
    ) -> Vec<f32> {
        let n_cfg = trie.n_configs();
        if n_cfg == 0 {
            return Vec::new();
        }
        if self.is_empty() {
            return vec![0.0; n_cfg];
        }
        let n_convs = trie.n_convs();
        let root = trie.root();
        // Work items: every (top-level subtree, batch) pair. A conv-free
        // model (or an all-duplicate root leaf) has no children; fall back
        // to one item per batch scoring the root's leaves.
        let top = root.children.len().max(1);
        let items: Vec<(usize, usize)> = (0..top)
            .flat_map(|ci| (0..self.batches.len()).map(move |bi| (ci, bi)))
            .collect();
        // Each (subtree, batch) item yields sparse `(config, correct)`
        // deltas for the configs under its subtree; the final merge is an
        // order-independent integer sum, so the parallel schedule never
        // changes the result.
        let deltas: Vec<Vec<(u32, u64)>> = items
            .par_iter()
            .map_init(
                || PooledTrieScratch {
                    pool: &self.trie_pool,
                    scratch: self.trie_pool.lock().unwrap().pop(),
                },
                |pooled, &(ci, bi)| {
                    let ts = pooled
                        .scratch
                        .get_or_insert_with(|| TrieScratch::new(model, self.batch_size, n_convs));
                    let batch = &self.batches[bi];
                    let mut delta: Vec<(u32, u64)> = Vec::new();
                    model.batch_start_into(
                        &batch.qinputs,
                        batch.len,
                        &mut ts.scratch,
                        &mut ts.ckpts[0],
                    );
                    if root.children.is_empty() {
                        // Conv-free model: the start checkpoint is complete.
                        walk(
                            model,
                            memo,
                            0,
                            root,
                            None,
                            &mut ts.scratch,
                            &mut ts.ckpts,
                            &mut ts.cols,
                            &mut ts.preds,
                            &batch.labels,
                            &mut delta,
                        );
                    } else {
                        let (ck_head, ck_tail) = ts.ckpts.split_first_mut().unwrap();
                        let (col_head, col_tail) = ts.cols.split_first_mut().unwrap();
                        // Conv 0's columns: the cache's precomputed batch
                        // columns when available, else filled once here
                        // (they are τ-independent either way).
                        let pc: &[i16] = match batch.conv0_pcols.as_deref() {
                            Some(p) => p,
                            None => {
                                model.batch_fill_conv_cols(ck_head, &mut ts.scratch, col_head);
                                &col_head[..]
                            }
                        };
                        let (tau, child) = &root.children[ci];
                        let stream = memo.layer(0, *tau);
                        model.batch_advance_into(
                            ck_head,
                            stream.compiled.as_ref(),
                            Some(pc),
                            &mut ts.scratch,
                            &mut ck_tail[0],
                        );
                        walk(
                            model,
                            memo,
                            1,
                            child,
                            None,
                            &mut ts.scratch,
                            ck_tail,
                            col_tail,
                            &mut ts.preds,
                            &batch.labels,
                            &mut delta,
                        );
                    }
                    delta
                },
            )
            .collect();
        let mut counts = vec![0u64; n_cfg];
        for (cfg, correct) in deltas.into_iter().flatten() {
            counts[cfg as usize] += correct;
        }
        counts
            .into_iter()
            .map(|c| c as f32 / self.n_images as f32)
            .collect()
    }
}

/// Depth-first trie walk. `ckpts[0]` holds the batch state before conv
/// ordinal `depth` (a complete state at a leaf), `cols[0]` is the scratch
/// buffer for conv `depth`'s pair columns; both slices shrink by one per
/// recursion level, which both bounds the memory (one stack, reused across
/// the whole walk) and lets the node's one column fill be borrowed by all
/// sibling advances. `prefilled` optionally supplies this node's columns
/// (conv 0's cached batch columns at the root).
#[allow(clippy::too_many_arguments)]
fn walk(
    model: &QuantModel,
    memo: &StreamMemo<'_>,
    depth: usize,
    node: &TrieNode,
    prefilled: Option<&[i16]>,
    scratch: &mut BatchScratch,
    ckpts: &mut [BatchCheckpoint],
    cols: &mut [Vec<i16>],
    preds: &mut Vec<usize>,
    labels: &[u8],
    delta: &mut Vec<(u32, u64)>,
) {
    if node.children.is_empty() {
        // Leaf (full depth): the last advance ran the τ-independent tail,
        // so score once and credit every (possibly duplicate) config here.
        debug_assert!(ckpts[0].is_complete());
        model.batch_checkpoint_predictions_into(&ckpts[0], preds);
        let correct = preds
            .iter()
            .zip(labels)
            .filter(|&(&p, &l)| p == l as usize)
            .count() as u64;
        for &cfg in &node.leaves {
            delta.push((cfg, correct));
        }
        return;
    }
    let (ck_head, ck_tail) = ckpts.split_first_mut().unwrap();
    let (col_head, col_tail) = cols.split_first_mut().unwrap();
    // This conv's im2col/pair-interleave depends only on the prefix above:
    // fill once, share across every sibling τ below.
    let pc: &[i16] = match prefilled {
        Some(p) => p,
        None => {
            model.batch_fill_conv_cols(ck_head, scratch, col_head);
            &col_head[..]
        }
    };
    for (tau, child) in &node.children {
        let stream = memo.layer(depth, *tau);
        model.batch_advance_into(
            ck_head,
            stream.compiled.as_ref(),
            Some(pc),
            scratch,
            &mut ck_tail[0],
        );
        walk(
            model,
            memo,
            depth + 1,
            child,
            None,
            scratch,
            ck_tail,
            col_tail,
            preds,
            labels,
            delta,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cifar10sim::DatasetConfig;
    use quantize::{calibrate_ranges, quantize_model};
    use signif::{capture_mean_inputs, SignificanceMap, TauAssignment};

    fn setup() -> (QuantModel, SignificanceMap, cifar10sim::SyntheticCifar) {
        let data = cifar10sim::generate(DatasetConfig::tiny(222));
        let m = tinynn::zoo::mini_cifar(222);
        let ranges = calibrate_ranges(&m, &data.train.take(8));
        let q = quantize_model(&m, &ranges);
        let means = capture_mean_inputs(&q, &data.train.take(8));
        let sig = SignificanceMap::compute(&q, &means);
        (q, sig, data)
    }

    #[test]
    fn cached_accuracy_bit_exact_with_reference() {
        let (q, sig, data) = setup();
        let eval = data.test.take(24);
        let cache = DseEvalCache::new(&q, &eval);
        assert_eq!(cache.len(), 24);
        assert!(cache.has_conv0_cols());
        assert!(cache.resident_bytes() > 0);
        for tau in [0.0, 0.01, 0.06] {
            let taus = TauAssignment::global(tau);
            let bool_masks = sig.masks_for_tau(&q, &taus);
            let compiled = sig.compiled_masks_for_tau(&q, &taus);
            let want = q.accuracy(&eval, Some(&bool_masks));
            let got = cache.accuracy(&q, &compiled);
            assert_eq!(got, want, "tau {tau}");
        }
    }

    #[test]
    fn batch_size_and_ragged_tails_do_not_change_accuracy() {
        let (q, sig, data) = setup();
        let eval = data.test.take(23); // prime: every batch size leaves a tail
        let taus = TauAssignment::global(0.02);
        let compiled = sig.compiled_masks_for_tau(&q, &taus);
        let want = q.accuracy(&eval, Some(&sig.masks_for_tau(&q, &taus)));
        for batch_size in [1usize, 2, 5, 8, 23, 64] {
            let cache = DseEvalCache::with_batch_size(&q, &eval, batch_size);
            assert_eq!(cache.len(), 23);
            assert_eq!(cache.n_batches(), 23usize.div_ceil(batch_size));
            assert_eq!(cache.accuracy(&q, &compiled), want, "batch {batch_size}");
        }
    }

    #[test]
    fn resident_bytes_accounts_batched_column_buffers() {
        let (q, _, data) = setup();
        let eval = data.test.take(16);
        let cache = DseEvalCache::new(&q, &eval);
        // Lower bound: quantized inputs + labels + 2 bytes per cached
        // first-conv pair-column element (pair rows are zero-padded for odd
        // patch lengths, so the buffer is at least positions × patch).
        let c0 = q.conv(0);
        let per_image_cols = 2 * (c0.patch_len().div_ceil(2) * 2 * c0.geom.out_positions()) as u64;
        let want_min = 16 * (q.input_shape.item_len() as u64 + 1 + per_image_cols);
        assert!(
            cache.resident_bytes() >= want_min,
            "resident {} < expected minimum {}",
            cache.resident_bytes(),
            want_min
        );
    }

    #[test]
    fn empty_eval_set_yields_zero() {
        let (q, _, data) = setup();
        let cache = DseEvalCache::new(&q, &data.test.take(0));
        assert!(cache.is_empty());
        assert_eq!(
            cache.accuracy(&q, &CompiledMasks::none(q.conv_indices().len())),
            0.0
        );
    }

    #[test]
    fn accuracy_streams_equals_accuracy() {
        let (q, sig, data) = setup();
        let eval = data.test.take(21);
        let cache = DseEvalCache::new(&q, &eval);
        let memo = signif::StreamMemo::new(&q, &sig);
        for tau in [0.0, 0.02, 0.07] {
            let taus = TauAssignment::global(tau);
            let want = cache.accuracy(&q, &sig.compiled_masks_for_tau(&q, &taus));
            let got = cache.accuracy_streams(&q, &memo.design(&taus));
            assert_eq!(got, want, "tau {tau}");
        }
    }

    #[test]
    fn trie_accuracies_bit_exact_with_per_design_accuracy() {
        let (q, sig, data) = setup();
        let eval = data.test.take(23); // ragged batches
        let cache = DseEvalCache::new(&q, &eval);
        let memo = signif::StreamMemo::new(&q, &sig);
        let n = q.conv_indices().len();
        // Shared-prefix grid + a duplicate + a fully-exact design.
        let mut configs = Vec::new();
        for &t0 in &[None, Some(0.01), Some(0.04)] {
            for &t_rest in &[Some(0.0), Some(0.03)] {
                let mut per = vec![t_rest; n];
                per[0] = t0;
                configs.push(TauAssignment::per_layer(per));
            }
        }
        configs.push(configs[2].clone());
        configs.push(TauAssignment::per_layer(vec![None; n]));
        let trie = crate::space::TauTrie::build(n, &configs);
        let got = cache.accuracies_trie(&q, &memo, &trie);
        assert_eq!(got.len(), configs.len());
        for (i, taus) in configs.iter().enumerate() {
            let want = cache.accuracy(&q, &sig.compiled_masks_for_tau(&q, taus));
            assert_eq!(got[i], want, "config {i} ({taus:?})");
        }
        assert!(cache.trie_scratch_bytes() > 0);
        assert!(cache.resident_bytes() > cache.trie_scratch_bytes());
    }

    #[test]
    fn trie_accuracies_deterministic_across_batch_sizes() {
        let (q, sig, data) = setup();
        let eval = data.test.take(19);
        let memo = signif::StreamMemo::new(&q, &sig);
        let configs: Vec<TauAssignment> = [0.0, 0.01, 0.05]
            .iter()
            .map(|&t| TauAssignment::global(t))
            .collect();
        let n = q.conv_indices().len();
        let trie = crate::space::TauTrie::build(n, &configs);
        let want = DseEvalCache::with_batch_size(&q, &eval, 19).accuracies_trie(&q, &memo, &trie);
        for bs in [1usize, 3, 8, 64] {
            let cache = DseEvalCache::with_batch_size(&q, &eval, bs);
            assert_eq!(
                cache.accuracies_trie(&q, &memo, &trie),
                want,
                "batch size {bs}"
            );
        }
    }

    #[test]
    fn trie_accuracies_empty_inputs() {
        let (q, sig, data) = setup();
        let memo = signif::StreamMemo::new(&q, &sig);
        let n = q.conv_indices().len();
        let configs = [TauAssignment::global(0.01)];
        let trie = crate::space::TauTrie::build(n, &configs);
        // Empty eval set → all-zero accuracies, still one per config.
        let empty = DseEvalCache::new(&q, &data.test.take(0));
        assert_eq!(empty.accuracies_trie(&q, &memo, &trie), vec![0.0]);
        // Empty config list → empty result.
        let cache = DseEvalCache::new(&q, &data.test.take(4));
        let none = crate::space::TauTrie::build(n, &[]);
        assert!(cache.accuracies_trie(&q, &memo, &none).is_empty());
    }
}
