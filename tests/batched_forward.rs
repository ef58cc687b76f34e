//! Property tests for the batch-major compiled execution path: for any
//! random model, any τ grid (via real significance scores), any batch size
//! and any ragged final batch, the batched forward must be bit-exact with
//! the same engine run one image at a time (`batch = 1`) and with the
//! boolean-mask reference.

use proptest::prelude::*;
use quantize::{
    calibrate_ranges, quantize_model, BatchScratch, CompiledMasks, QuantModel, SkipMaskSet,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use signif::{capture_mean_inputs, SignificanceMap, TauAssignment};
use tinynn::Sequential;
use tinytensor::Shape4;

/// Build a small random CNN: 1-2 conv(+relu) layers, pool, dense.
fn random_model(seed: u64, convs: usize, width: usize, kernel: usize) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Sequential::new("prop", Shape4::nhwc(1, 8, 8, 2));
    for _ in 0..convs {
        m = m.conv_relu(width, kernel, &mut rng);
    }
    m = m.maxpool();
    m.dense(4, true, &mut rng)
}

/// Quantize against a tiny synthetic calibration set; returns eval images.
fn quantized(model: &Sequential, seed: u64, n: usize) -> (QuantModel, cifar10sim::Dataset) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0DE);
    let len = 8 * 8 * 2;
    let mut flat = Vec::with_capacity(n * len);
    for _ in 0..n * len {
        flat.push(rng.gen_range(0.0f32..1.0));
    }
    let ds = cifar10sim::Dataset {
        images: tinytensor::Tensor::from_vec(Shape4::nhwc(n, 8, 8, 2), flat).unwrap(),
        labels: vec![0; n],
    };
    let ranges = calibrate_ranges(model, &ds);
    let q = quantize_model(model, &ranges);
    (q, ds)
}

/// Stack the first `n` eval images as quantized inputs.
fn stacked(q: &QuantModel, ds: &cifar10sim::Dataset, n: usize) -> Vec<i8> {
    let mut flat = Vec::new();
    for i in 0..n {
        flat.extend(q.quantize_input(ds.image(i)));
    }
    flat
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Random boolean masks: the batched forward over every batch split of
    /// the image set (full and ragged batches, with and without the
    /// batched conv0 pair-column cache) equals the same engine run one
    /// image at a time, and that equals the boolean-mask reference.
    #[test]
    fn batched_equals_per_image_for_any_mask_and_batch_size(
        seed in 0u64..5000,
        convs in 1usize..3,
        width in 2usize..6,
        kernel in prop::sample::select(vec![1usize, 3]),
        skip_mod in 2u64..9,
        batch in 1usize..8,
    ) {
        let model = random_model(seed, convs, width, kernel);
        let n_images = 7; // prime: every batch size 2..=7 leaves a ragged tail
        let (q, ds) = quantized(&model, seed, n_images);
        let n = q.conv_indices().len();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFACE);
        let mut masks = SkipMaskSet::none(n);
        for k in 0..n {
            let c = q.conv(k);
            let len = c.geom.out_c * c.patch_len();
            masks.per_conv[k] =
                Some((0..len).map(|_| rng.gen_range(0u64..skip_mod) == 0).collect());
        }
        let compiled = CompiledMasks::compile(&q, &masks);
        let in_len = q.input_shape.item_len();
        let mut per_image = BatchScratch::for_model(&q, 1);
        let mut bs = BatchScratch::for_model(&q, batch);

        // Per-image references: one image at a time, checked against the
        // boolean-mask reference.
        let flat_all = stacked(&q, &ds, n_images);
        let mut refs: Vec<Vec<i8>> = Vec::with_capacity(n_images);
        for i in 0..n_images {
            let qin = &flat_all[i * in_len..(i + 1) * in_len];
            let one = q.forward_compiled_batch_scratch(qin, 1, None, Some(&compiled), &mut per_image);
            prop_assert_eq!(&one, &q.forward_quantized(qin, Some(&masks)), "image {} at B=1", i);
            refs.push(one);
        }

        // Batched over the whole set in `batch`-sized chunks (ragged tail).
        let mut start = 0usize;
        while start < n_images {
            let b = batch.min(n_images - start);
            let flat = &flat_all[start * in_len..(start + b) * in_len];
            let got = q.forward_compiled_batch_scratch(flat, b, None, Some(&compiled), &mut bs);
            let pcols = q.conv0_pair_cols_batch(flat, b).expect("starts with conv");
            let got_cached =
                q.forward_compiled_batch_scratch(flat, b, Some(&pcols), Some(&compiled), &mut bs);
            let out_len = refs[0].len();
            for i in 0..b {
                prop_assert_eq!(
                    &got[i * out_len..(i + 1) * out_len],
                    &refs[start + i][..],
                    "batch start {} size {} image {} (uncached)", start, b, i
                );
                prop_assert_eq!(
                    &got_cached[i * out_len..(i + 1) * out_len],
                    &refs[start + i][..],
                    "batch start {} size {} image {} (conv0-cached)", start, b, i
                );
            }
            start += b;
        }
    }

    /// Real τ-driven masks: batched predictions equal the boolean-mask
    /// reference argmax.
    #[test]
    fn batched_predictions_equal_reference_for_any_tau(
        seed in 0u64..5000,
        convs in 1usize..3,
        width in 2usize..5,
        kernel in prop::sample::select(vec![1usize, 3]),
        tau in 0.0f64..0.25,
        batch in 1usize..6,
    ) {
        let model = random_model(seed, convs, width, kernel);
        let n_images = 5;
        let (q, ds) = quantized(&model, seed, n_images);
        let means = capture_mean_inputs(&q, &ds);
        let sig = SignificanceMap::compute(&q, &means);
        let taus = TauAssignment::global(tau);
        let bool_masks = sig.masks_for_tau(&q, &taus);
        let compiled = sig.compiled_masks_for_tau(&q, &taus);
        let in_len = q.input_shape.item_len();
        let b = batch.min(n_images);
        let flat = stacked(&q, &ds, b);
        let mut bs = BatchScratch::for_model(&q, b);
        let preds = q.predict_compiled_batch_scratch(&flat, b, None, Some(&compiled), &mut bs);
        for (i, &pred) in preds.iter().enumerate() {
            let want = q.forward_quantized(
                &flat[i * in_len..(i + 1) * in_len],
                Some(&bool_masks),
            );
            prop_assert_eq!(pred, quantize::argmax_i8(&want), "tau {} image {}", tau, i);
        }
    }
}
