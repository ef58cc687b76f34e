//! Cross-engine equivalence over the **open layer set**: for any random
//! model shape (including the global-average-pool layer, models ending on
//! a pool/GAP, and multi-conv stacks) and any random τ-style skip masks,
//! every engine that consumes the shared `ExecPlan` must produce
//! bit-identical logits:
//!
//! * masked: boolean reference ≡ batch-major compiled engine (at `B = 1`
//!   and in every batch split incl. ragged) ≡ unpacked straight-line;
//! * exact (no masks): the above plus the CMSIS-style engine and the
//!   X-CUBE-AI comparator.
//!
//! This is the acceptance property of the ExecPlan refactor: one walker,
//! four backends plus the X-CUBE comparator, one ground truth. Inputs carry 1–3 channels, so the
//! NHWC-staged conv-0 column fill sees pairs that cross kernel positions
//! (odd channel counts) as well as pairs that do not.

use ataman_repro::prelude::*;
use proptest::prelude::*;
use quantize::{BatchCheckpoint, BatchScratch, CompiledMasks, ExecPlan, Segment};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinytensor::Shape4;

/// Build a small random CNN over 8×8×`in_c` inputs. `head` picks the tail
/// shape, exercising every segment kind and epilogue layout:
/// 0 = pool→dense, 1 = GAP→dense, 2 = pool→GAP→dense, 3 = dense (flatten),
/// 4 = GAP (model ends on the pooled channel vector), 5 = pool (model ends
/// planar — the logits epilogue must unbatch).
fn random_model(
    seed: u64,
    in_c: usize,
    convs: usize,
    width: usize,
    kernel: usize,
    head: u8,
) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Sequential::new("eq", Shape4::nhwc(1, 8, 8, in_c));
    for _ in 0..convs {
        m = m.conv_relu(width, kernel, &mut rng);
    }
    match head % 6 {
        0 => m.maxpool().dense(4, true, &mut rng),
        1 => m.global_avg_pool().dense(4, true, &mut rng),
        2 => m.maxpool().global_avg_pool().dense(4, true, &mut rng),
        3 => m.dense(4, true, &mut rng),
        4 => m.global_avg_pool(),
        _ => m.maxpool(),
    }
}

/// Build a small random **residual** CNN over 8×8×`in_c` inputs. `stem` 0 puts
/// the first skip edge right at the input (NHWC stash joined against a
/// planar conv branch — the mixed-layout join); `stem` 1 opens with a
/// conv+relu so every join is planar/planar. `blocks` residual blocks of
/// `block_convs` convs each follow, then a GAP/dense head.
fn random_residual_model(
    seed: u64,
    in_c: usize,
    width: usize,
    stem: u8,
    blocks: usize,
    block_convs: usize,
    head: u8,
) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Sequential::new("req", Shape4::nhwc(1, 8, 8, in_c));
    let c = if stem % 2 == 1 {
        m = m.conv_relu(width, 3, &mut rng);
        width
    } else {
        in_c
    };
    for _ in 0..blocks {
        m = m.residual(|mut b| {
            for _ in 0..block_convs.saturating_sub(1) {
                b = b.conv_relu(c, 3, &mut rng);
            }
            b.conv(c, 3, &mut rng)
        });
    }
    match head % 3 {
        0 => m.dense(4, true, &mut rng),
        1 => m.global_avg_pool().dense(4, true, &mut rng),
        _ => m.maxpool().global_avg_pool().dense(4, true, &mut rng),
    }
}

fn quantized(model: &Sequential, seed: u64, n: usize) -> (QuantModel, cifar10sim::Dataset) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
    let in_c = model.input_shape.c;
    let len = 8 * 8 * in_c;
    let flat: Vec<f32> = (0..n * len).map(|_| rng.gen_range(0.0f32..1.0)).collect();
    let labels: Vec<u8> = (0..n).map(|_| rng.gen_range(0u8..4)).collect();
    let ds = cifar10sim::Dataset {
        images: tinytensor::Tensor::from_vec(Shape4::nhwc(n, 8, 8, in_c), flat).unwrap(),
        labels,
    };
    let ranges = calibrate_ranges(model, &ds);
    let q = quantize_model(model, &ranges);
    (q, ds)
}

fn random_masks(q: &QuantModel, seed: u64, skip_mod: u64) -> SkipMaskSet {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFEED);
    let n = q.conv_indices().len();
    let mut masks = SkipMaskSet::none(n);
    for k in 0..n {
        let c = q.conv(k);
        let len = c.geom.out_c * c.patch_len();
        masks.per_conv[k] = Some(
            (0..len)
                .map(|_| rng.gen_range(0u64..skip_mod) == 0)
                .collect(),
        );
    }
    masks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The four plan-consuming engines and the X-CUBE comparator agree
    /// bit-for-bit on exact models; the mask-capable paths (the compiled
    /// engine at `B = 1` and in ragged batch splits) agree under random
    /// skip masks — for every head shape.
    #[test]
    fn five_engines_bit_exact(
        seed in 0u64..5000,
        in_c in 1usize..4,
        convs in 1usize..4,
        width in 2usize..5,
        kernel in prop::sample::select(vec![1usize, 3]),
        head in 0u8..6,
        skip_mod in 2u64..9,
        batch in 1usize..6,
    ) {
        let model = random_model(seed, in_c, convs, width, kernel, head);
        let n_images = 5; // prime: batch sizes 2..=4 leave a ragged tail
        let (q, ds) = quantized(&model, seed, n_images);
        let in_len = q.input_shape.item_len();
        let qinputs: Vec<Vec<i8>> =
            (0..n_images).map(|i| q.quantize_input(ds.image(i))).collect();

        // --- exact: reference ≡ cmsis ≡ xcube ≡ unpacked ≡ batch-1 -------
        let mut one = BatchScratch::for_model(&q, 1);
        let cmsis = CmsisEngine::new(&q);
        let xcube = XCubeEngine::new(&q);
        let unpacked = UnpackedEngine::new(&q, None, UnpackOptions::default());
        for (i, qin) in qinputs.iter().enumerate() {
            let want = q.forward_quantized(qin, None);
            prop_assert_eq!(&cmsis.infer_quantized(qin).0, &want, "cmsis img {}", i);
            prop_assert_eq!(&xcube.infer(ds.image(i)).0, &want, "xcube img {}", i);
            prop_assert_eq!(&unpacked.infer_quantized(qin).0, &want, "unpacked img {}", i);
            let got = q.forward_compiled_batch_scratch(qin, 1, None, None, &mut one);
            prop_assert_eq!(&got, &want, "batch-1 img {}", i);
        }

        // --- masked: reference ≡ batch-1 ≡ batch ≡ unpacked --------------
        let masks = random_masks(&q, seed, skip_mod);
        let compiled = CompiledMasks::compile(&q, &masks);
        let unpacked_m = UnpackedEngine::new(&q, Some(&masks), UnpackOptions::default());
        let mut refs = Vec::new();
        for (i, qin) in qinputs.iter().enumerate() {
            let want = q.forward_quantized(qin, Some(&masks));
            prop_assert_eq!(&unpacked_m.infer_quantized(qin).0, &want, "unpacked masked {}", i);
            let got = q.forward_compiled_batch_scratch(qin, 1, None, Some(&compiled), &mut one);
            prop_assert_eq!(&got, &want, "batch-1 masked {}", i);
            refs.push(want);
        }
        // Batched, in ragged splits of `batch`.
        let out_len = refs[0].len();
        let mut bs = BatchScratch::for_model(&q, batch.min(n_images));
        let mut start = 0usize;
        while start < n_images {
            let b = batch.min(n_images - start);
            let mut flat = Vec::with_capacity(b * in_len);
            for qin in &qinputs[start..start + b] {
                flat.extend_from_slice(qin);
            }
            let got = q.forward_compiled_batch_scratch(&flat, b, None, Some(&compiled), &mut bs);
            for i in 0..b {
                prop_assert_eq!(
                    &got[i * out_len..(i + 1) * out_len],
                    &refs[start + i][..],
                    "batched masked, start {} lane {}", start, i
                );
            }
            start += b;
        }
    }

    /// Residual (DAG-shaped) models: all mask-capable engines agree
    /// bit-for-bit under random skip masks, the exact engines agree with
    /// the reference, batching is split-invariant, and the resumable
    /// checkpoint chain crosses every residual join — skip edges at
    /// varying depths, including a stash of the raw input joined against a
    /// planar branch.
    #[test]
    fn residual_models_five_engines_bit_exact(
        seed in 0u64..5000,
        in_c in 1usize..4,
        width in 2usize..5,
        stem in 0u8..2,
        blocks in 1usize..3,
        block_convs in 1usize..3,
        head in 0u8..3,
        skip_mod in 2u64..9,
        batch in 1usize..6,
    ) {
        let model = random_residual_model(seed, in_c, width, stem, blocks, block_convs, head);
        let n_images = 5; // prime: batch sizes 2..=4 leave a ragged tail
        let (q, ds) = quantized(&model, seed, n_images);
        let in_len = q.input_shape.item_len();
        let qinputs: Vec<Vec<i8>> =
            (0..n_images).map(|i| q.quantize_input(ds.image(i))).collect();

        // --- exact: reference ≡ cmsis ≡ xcube ≡ unpacked ≡ batch-1 -------
        let mut one = BatchScratch::for_model(&q, 1);
        let cmsis = CmsisEngine::new(&q);
        let xcube = XCubeEngine::new(&q);
        let unpacked = UnpackedEngine::new(&q, None, UnpackOptions::default());
        for (i, qin) in qinputs.iter().enumerate() {
            let want = q.forward_quantized(qin, None);
            prop_assert_eq!(&cmsis.infer_quantized(qin).0, &want, "cmsis img {}", i);
            prop_assert_eq!(&xcube.infer(ds.image(i)).0, &want, "xcube img {}", i);
            prop_assert_eq!(&unpacked.infer_quantized(qin).0, &want, "unpacked img {}", i);
            let got = q.forward_compiled_batch_scratch(qin, 1, None, None, &mut one);
            prop_assert_eq!(&got, &want, "batch-1 img {}", i);
        }

        // --- masked: reference ≡ batch-1 ≡ batch ≡ unpacked --------------
        let masks = random_masks(&q, seed, skip_mod);
        let compiled = CompiledMasks::compile(&q, &masks);
        let unpacked_m = UnpackedEngine::new(&q, Some(&masks), UnpackOptions::default());
        let mut refs = Vec::new();
        for (i, qin) in qinputs.iter().enumerate() {
            let want = q.forward_quantized(qin, Some(&masks));
            prop_assert_eq!(&unpacked_m.infer_quantized(qin).0, &want, "unpacked masked {}", i);
            let got = q.forward_compiled_batch_scratch(qin, 1, None, Some(&compiled), &mut one);
            prop_assert_eq!(&got, &want, "batch-1 masked {}", i);
            refs.push(want);
        }
        // Batched, in ragged splits of `batch`.
        let out_len = refs[0].len();
        let mut bs = BatchScratch::for_model(&q, batch.min(n_images));
        let mut start = 0usize;
        while start < n_images {
            let b = batch.min(n_images - start);
            let mut flat = Vec::with_capacity(b * in_len);
            for qin in &qinputs[start..start + b] {
                flat.extend_from_slice(qin);
            }
            let got = q.forward_compiled_batch_scratch(&flat, b, None, Some(&compiled), &mut bs);
            for i in 0..b {
                prop_assert_eq!(
                    &got[i * out_len..(i + 1) * out_len],
                    &refs[start + i][..],
                    "batched masked, start {} lane {}", start, i
                );
            }
            start += b;
        }

        // --- checkpoint-resume across the residual joins -----------------
        let cb = batch.min(n_images);
        let mut flat = Vec::with_capacity(cb * in_len);
        for qin in &qinputs[..cb] {
            flat.extend_from_slice(qin);
        }
        let want = q.predict_compiled_batch_scratch(&flat, cb, None, Some(&compiled), &mut bs);
        let mut cur = q.batch_start(&flat, cb, &mut bs);
        let mut next = BatchCheckpoint::empty();
        let mut cols = Vec::new();
        while let Some(k) = cur.next_conv_ordinal() {
            q.batch_fill_conv_cols(&cur, &mut bs, &mut cols);
            q.batch_advance_into(&cur, compiled.per_conv[k].as_ref(), Some(&cols), &mut bs, &mut next);
            std::mem::swap(&mut cur, &mut next);
        }
        prop_assert!(cur.is_complete());
        let mut preds = Vec::new();
        q.batch_checkpoint_predictions_into(&cur, &mut preds);
        prop_assert_eq!(preds, want);
    }

    /// Prefix sharing through a residual join: a checkpoint taken before a
    /// conv *inside* a residual block (i.e. with a live stash) is advanced
    /// under two different τ streams; each leaf must equal its design's
    /// monolithic batched run.
    #[test]
    fn checkpoint_prefix_shares_through_residual_join(
        seed in 0u64..5000,
        in_c in 1usize..4,
        width in 2usize..4,
        stem in 0u8..2,
        skip_mod in 2u64..7,
        batch in 1usize..5,
    ) {
        // One residual block of two convs: conv ordinals inside the block
        // see a live stash at their checkpoint.
        let model = random_residual_model(seed, in_c, width, stem, 1, 2, 1);
        let (q, ds) = quantized(&model, seed, batch);
        let masks_a = random_masks(&q, seed, skip_mod);
        let mut masks_b = masks_a.clone();
        let last = q.conv_indices().len() - 1;
        masks_b.per_conv[last] = random_masks(&q, seed ^ 0xA5A5, 2).per_conv[last].clone();
        let ca = CompiledMasks::compile(&q, &masks_a);
        let cb = CompiledMasks::compile(&q, &masks_b);
        let mut flat = Vec::new();
        for i in 0..batch {
            flat.extend(q.quantize_input(ds.image(i)));
        }
        let mut bs = BatchScratch::for_model(&q, batch);

        // Shared prefix: everything up to (but not including) the last conv.
        let mut shared = q.batch_start(&flat, batch, &mut bs);
        let mut tmp = BatchCheckpoint::empty();
        for k in 0..last {
            q.batch_advance_into(&shared, ca.per_conv[k].as_ref(), None, &mut bs, &mut tmp);
            std::mem::swap(&mut shared, &mut tmp);
        }
        let mut leaf = BatchCheckpoint::empty();
        let mut preds = Vec::new();
        for (cm, label) in [(&ca, "a"), (&cb, "b")] {
            q.batch_advance_into(&shared, cm.per_conv[last].as_ref(), None, &mut bs, &mut leaf);
            prop_assert!(leaf.is_complete());
            q.batch_checkpoint_predictions_into(&leaf, &mut preds);
            let want = q.predict_compiled_batch_scratch(&flat, batch, None, Some(cm), &mut bs);
            prop_assert_eq!(&preds, &want, "design {}", label);
        }
    }

    /// The checkpoint-resumed batch path handles GAP-bearing models: chain
    /// of per-conv advances ≡ monolithic batched predictions.
    #[test]
    fn checkpoint_resume_handles_gap_models(
        seed in 0u64..5000,
        in_c in 1usize..4,
        convs in 1usize..3,
        width in 2usize..5,
        head in prop::sample::select(vec![1u8, 2, 4]),
        skip_mod in 2u64..7,
        batch in 1usize..5,
    ) {
        let model = random_model(seed, in_c, convs, width, 3, head);
        let (q, ds) = quantized(&model, seed, batch);
        let masks = random_masks(&q, seed, skip_mod);
        let compiled = CompiledMasks::compile(&q, &masks);
        let mut flat = Vec::new();
        for i in 0..batch {
            flat.extend(q.quantize_input(ds.image(i)));
        }
        let mut bs = BatchScratch::for_model(&q, batch);
        let want = q.predict_compiled_batch_scratch(&flat, batch, None, Some(&compiled), &mut bs);

        let mut cur = q.batch_start(&flat, batch, &mut bs);
        let mut next = BatchCheckpoint::empty();
        let mut cols = Vec::new();
        while let Some(k) = cur.next_conv_ordinal() {
            q.batch_fill_conv_cols(&cur, &mut bs, &mut cols);
            q.batch_advance_into(&cur, compiled.per_conv[k].as_ref(), Some(&cols), &mut bs, &mut next);
            std::mem::swap(&mut cur, &mut next);
        }
        prop_assert!(cur.is_complete());
        let mut preds = Vec::new();
        q.batch_checkpoint_predictions_into(&cur, &mut preds);
        prop_assert_eq!(preds, want);
    }
}

/// The mini-ResNet zoo model (two residual stages + GAP head) runs
/// end-to-end through every engine, the analytic estimators and the
/// prefix-sharing DSE — the acceptance property of the DAG-shaped ExecPlan.
#[test]
fn zoo_resnet_model_reaches_all_backends() {
    let data = generate(DatasetConfig::tiny(78));
    let m = zoo::mini_resnet(78);
    let ranges = calibrate_ranges(&m, &data.train.take(8));
    let q = quantize_model(&m, &ranges);

    let cmsis = CmsisEngine::new(&q);
    let unpacked = UnpackedEngine::new(&q, None, UnpackOptions::default());
    let xcube = XCubeEngine::new(&q);
    let mut one = BatchScratch::for_model(&q, 1);
    for i in 0..6 {
        let img = data.test.image(i);
        let want = q.forward(img);
        assert_eq!(cmsis.infer(img).0, want, "cmsis img {i}");
        assert_eq!(unpacked.infer(img).0, want, "unpacked img {i}");
        assert_eq!(xcube.infer(img).0, want, "xcube img {i}");
        assert_eq!(
            q.forward_compiled_batch_scratch(&q.quantize_input(img), 1, None, None, &mut one),
            want,
            "batch-1 img {i}"
        );
    }
    // Cycle accounting covers the Add segments in engine and estimator
    // alike (and the residual join is actually charged).
    let (_, measured) = unpacked.infer(data.test.image(0));
    let estimated = dse::estimate_stats(&q, None, UnpackOptions::default());
    assert_eq!(
        estimated, measured,
        "analytic estimator ≡ engine on residual model"
    );
    assert!(
        measured.count(mcusim::Event::AddRequant) > 0,
        "residual join charged"
    );

    // The DSE explores the residual model bit-exactly through the trie
    // path (prefixes share through the residual joins).
    let means = capture_mean_inputs(&q, &data.train.take(8));
    let sig = SignificanceMap::compute(&q, &means);
    let n = q.conv_indices().len();
    let mut mixed = vec![Some(0.02); n];
    mixed[0] = None;
    let configs: Vec<TauAssignment> = vec![
        TauAssignment::global(0.0),
        TauAssignment::global(0.01),
        TauAssignment::global(0.05),
        TauAssignment::per_layer(mixed),
    ];
    let opts = dse::ExploreOptions {
        eval_images: 16,
        ..Default::default()
    };
    let fast = dse::explore(&q, &sig, &data.test, &configs, &opts);
    let slow = dse::explore_reference(&q, &sig, &data.test, &configs, &opts);
    for (a, b) in fast.iter().zip(&slow) {
        assert_eq!(a.accuracy, b.accuracy);
        assert_eq!(a.est_cycles, b.est_cycles);
        assert_eq!(a.est_flash, b.est_flash);
        assert_eq!(a.retained_macs, b.retained_macs);
    }
}

/// A checkpoint drops a residual stash once the Add consuming it has run:
/// walking the mini-ResNet's checkpoint chain, every checkpoint holds its
/// activations plus exactly the stashes still live at its boundary, so a
/// descendant stops cloning (and a DSE trie stack stops holding) a dead
/// skip operand.
#[test]
fn checkpoint_releases_consumed_residual_stash() {
    let data = generate(DatasetConfig::tiny(79));
    let m = zoo::mini_resnet(79);
    let ranges = calibrate_ranges(&m, &data.train.take(8));
    let q = quantize_model(&m, &ranges);
    let plan = ExecPlan::lower(&q);
    let batch = 3;
    let mut flat = Vec::new();
    for i in 0..batch {
        flat.extend(q.quantize_input(data.test.image(i)));
    }
    let mut bs = BatchScratch::for_model(&q, batch);
    let mut cur = q.batch_start(&flat, batch, &mut bs);
    let mut live: Vec<usize> = Vec::new();
    let mut releases = 0;
    while let Some(k) = cur.next_conv_ordinal() {
        // A fresh destination, so its capacities track what it holds.
        let mut next = BatchCheckpoint::empty();
        q.batch_advance_into(&cur, None, None, &mut bs, &mut next);
        let range = plan.advance_range(k);
        let mut consumed = 0;
        for seg in &plan.segments()[range.clone()] {
            if let Segment::Add(a) = seg {
                consumed += plan.stash_lens()[a.slot];
                live.retain(|&s| s != a.slot);
            }
            live.extend_from_slice(seg.stash_slots());
        }
        let act = plan.segments()[range.end - 1].out_len();
        let held: usize = live.iter().map(|&s| plan.stash_lens()[s]).sum();
        let bytes = next.resident_bytes();
        assert!(
            bytes >= (batch * (act + held)) as u64,
            "conv {k}: live state missing"
        );
        if consumed > 0 {
            releases += 1;
            assert!(
                bytes < (batch * (act + held + consumed)) as u64,
                "conv {k}: consumed stash still held ({bytes} bytes)"
            );
            assert!(bytes < cur.resident_bytes(), "conv {k}: bytes did not fall");
        }
        cur = next;
    }
    assert!(cur.is_complete());
    assert_eq!(releases, 2, "both residual joins release their stash");
    assert!(live.is_empty());
}

/// The GAP-headed zoo model runs end-to-end through every engine, the DSE
/// and the analytic estimators (the "one segment executor per backend"
/// acceptance check for the opened layer set).
#[test]
fn zoo_gap_model_reaches_all_backends() {
    let data = generate(DatasetConfig::tiny(77));
    let m = zoo::mini_cifar_gap(77);
    let ranges = calibrate_ranges(&m, &data.train.take(8));
    let q = quantize_model(&m, &ranges);

    let cmsis = CmsisEngine::new(&q);
    let unpacked = UnpackedEngine::new(&q, None, UnpackOptions::default());
    let xcube = XCubeEngine::new(&q);
    let mut one = BatchScratch::for_model(&q, 1);
    for i in 0..6 {
        let img = data.test.image(i);
        let want = q.forward(img);
        assert_eq!(cmsis.infer(img).0, want, "cmsis img {i}");
        assert_eq!(unpacked.infer(img).0, want, "unpacked img {i}");
        assert_eq!(xcube.infer(img).0, want, "xcube img {i}");
        assert_eq!(
            q.forward_compiled_batch_scratch(&q.quantize_input(img), 1, None, None, &mut one),
            want,
            "batch-1 img {i}"
        );
    }
    // Cycle accounting covers the GAP segment in engine and estimator alike.
    let (_, measured) = unpacked.infer(data.test.image(0));
    let estimated = dse::estimate_stats(&q, None, UnpackOptions::default());
    assert_eq!(
        estimated, measured,
        "analytic estimator ≡ engine on GAP model"
    );
    assert!(measured.count(mcusim::Event::AvgAccum) > 0, "GAP charged");

    // The DSE explores the GAP model bit-exactly through the trie path.
    let means = capture_mean_inputs(&q, &data.train.take(8));
    let sig = SignificanceMap::compute(&q, &means);
    let configs: Vec<TauAssignment> = [0.0, 0.01, 0.05]
        .iter()
        .map(|&t| TauAssignment::global(t))
        .collect();
    let opts = dse::ExploreOptions {
        eval_images: 16,
        ..Default::default()
    };
    let fast = dse::explore(&q, &sig, &data.test, &configs, &opts);
    let slow = dse::explore_reference(&q, &sig, &data.test, &configs, &opts);
    for (a, b) in fast.iter().zip(&slow) {
        assert_eq!(a.accuracy, b.accuracy);
        assert_eq!(a.est_cycles, b.est_cycles);
        assert_eq!(a.est_flash, b.est_flash);
    }
}
