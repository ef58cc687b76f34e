//! Property tests for the compiled skip-mask execution path: for any random
//! model, any τ grid (via real significance scores) and any random mask,
//! the compiled kernels — one image at a time, i.e. the batch engine at
//! `batch = 1` — must be bit-exact with the `Vec<bool>` reference.

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
fn quantized(model: &Sequential, seed: u64) -> (QuantModel, cifar10sim::Dataset) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0DE);
    let n = 6;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random boolean masks: compiled kernels equal the reference
    /// bit-for-bit on every image, with and without the conv0 column cache.
    #[test]
    fn compiled_equals_reference_for_any_mask(
        seed in 0u64..5000,
        convs in 1usize..3,
        width in 2usize..6,
        kernel in prop::sample::select(vec![1usize, 3]),
        skip_mod in 2u64..9,
    ) {
        let model = random_model(seed, convs, width, kernel);
        let (q, ds) = quantized(&model, seed);
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
        let mut scratch = BatchScratch::for_model(&q, 1);
        for i in 0..ds.len() {
            let qin = q.quantize_input(ds.image(i));
            let want = q.forward_quantized(&qin, Some(&masks));
            let got = q.forward_compiled_batch_scratch(&qin, 1, None, Some(&compiled), &mut scratch);
            prop_assert_eq!(&got, &want, "image {} plain", i);
            let cols = q.conv0_pair_cols_batch(&qin, 1).expect("first layer is conv");
            let cached = q.forward_compiled_batch_scratch(
                &qin, 1, Some(&cols), Some(&compiled), &mut scratch,
            );
            prop_assert_eq!(&cached, &want, "image {} conv0-cached", i);
        }
    }

    /// Real τ-driven masks from significance scores: the directly-emitted
    /// compiled form, the compiled boolean form and the reference all agree.
    #[test]
    fn compiled_equals_reference_for_any_tau_grid(
        seed in 0u64..5000,
        convs in 1usize..3,
        width in 2usize..5,
        kernel in prop::sample::select(vec![1usize, 3]),
        tau in 0.0f64..0.25,
    ) {
        let model = random_model(seed, convs, width, kernel);
        let (q, ds) = quantized(&model, seed);
        let means = capture_mean_inputs(&q, &ds);
        let sig = SignificanceMap::compute(&q, &means);
        let taus = TauAssignment::global(tau);
        let bool_masks = sig.masks_for_tau(&q, &taus);
        let direct = sig.compiled_masks_for_tau(&q, &taus);
        let via_bool = CompiledMasks::compile(&q, &bool_masks);
        prop_assert_eq!(&direct, &via_bool);
        let mut scratch = BatchScratch::for_model(&q, 1);
        for i in 0..ds.len() {
            let qin = q.quantize_input(ds.image(i));
            let want = q.forward_quantized(&qin, Some(&bool_masks));
            let got = q.forward_compiled_batch_scratch(&qin, 1, None, Some(&direct), &mut scratch);
            prop_assert_eq!(&got, &want, "tau {} image {}", tau, i);
        }
    }
}
