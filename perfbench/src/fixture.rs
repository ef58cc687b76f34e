//! Set-up shared by every workload: synthesize the dataset, train both zoo
//! models, quantize them, score significance and compile the designs the
//! workloads run.
//!
//! The models come from a fixed seed: with seeded weights the residual
//! model's retained MACs over the DSE space moved by ±7% from seed to seed
//! and the DSE throughput with them, so the spread over seeds measured the
//! seeds, not the program. The run's seed draws the test images (every
//! workload's inputs) from a pool of the same distribution, and the serving
//! schedule. Everything is a pure function of the two seeds.

use crate::rng::SplitMix;
use crate::trace::Tracer;
use ataman::{AtamanConfig, Framework};
use ataman_serve::{CostContract, DeployedModel};
use cifar10sim::{Dataset, DatasetConfig, SyntheticCifar};
use quantize::{calibrate_ranges, quantize_model, CompiledMasks, QuantModel, SkipMaskSet};
use signif::{capture_mean_inputs, SignificanceMap, TauAssignment};
use std::time::Instant;
use tinytensor::{Shape4, Tensor};

/// Seed of the training set, the model initializations and the training
/// order.
const MODEL_SEED: u64 = 0xA7A3_4A11;
/// Test images generated alongside the training set; each run draws its
/// test set from them.
const TEST_POOL: usize = 2048;
/// Images the DSE evaluates each design on (`AtamanConfig::default()`).
pub const EVAL_IMAGES: usize = 512;
/// Calibration images for PTQ and mean-input capture.
const CALIB_IMAGES: usize = 64;
/// Conv-MAC cut of the mid design (global τ = 0.055 on the fixed models).
const MID_CUT: f64 = 0.45;
/// Conv-MAC cut of the heavy designs, which must skip at least half of
/// the conv MACs (global τ = 0.17 and 0.14 on the fixed models).
const HEAVY_CUT: f64 = 0.7;
/// Bisection range and steps of the global τ that meets a cut.
const TAU_MAX: f64 = 1.0;
const TAU_BISECTIONS: usize = 30;

/// One trained, quantized and scored model.
pub struct Model {
    pub q: QuantModel,
    pub sig: SignificanceMap,
}

/// One compiled design the offline and serving workloads execute.
pub struct Design {
    pub name: &'static str,
    /// Index into [`Fixture::models`].
    pub model: usize,
    pub taus: TauAssignment,
    pub masks: CompiledMasks,
}

impl Design {
    /// One line for the run log: name, τ and the share of conv MACs cut.
    pub fn describe(&self, m: &Model) -> String {
        format!(
            "{}: taus {:?}, conv MACs cut {:.3}",
            self.name,
            self.taus.per_conv,
            conv_mac_cut(&m.q, &self.masks)
        )
    }
}

pub struct Fixture {
    pub seed: u64,
    pub data: SyntheticCifar,
    /// `[mini_cifar, mini_resnet]`.
    pub models: Vec<Model>,
    /// `cifar-exact`, `cifar-mid`, `cifar-heavy`, `resnet-heavy`.
    pub designs: Vec<Design>,
    /// `mini-approx` (ataman pipeline), `mini-exact`, `resnet-heavy`.
    pub served: Vec<DeployedModel>,
    /// Seconds spent in each set-up stage (train, PTQ + significance,
    /// design compilation).
    pub train_s: f64,
    pub ptq_signif_s: f64,
    pub compile_s: f64,
}

impl Fixture {
    pub fn model_of(&self, d: &Design) -> &Model {
        &self.models[d.model]
    }
}

fn train(model: &mut tinynn::Sequential, data: &SyntheticCifar, epochs: usize, lr: f32, seed: u64) {
    tinynn::Trainer::new(tinynn::SgdConfig {
        epochs,
        lr,
        seed,
        ..Default::default()
    })
    .train(model, &data.train);
}

/// Share of the model's conv MACs the masks cut.
fn conv_mac_cut(q: &QuantModel, masks: &CompiledMasks) -> f64 {
    let dense = CompiledMasks::none(q.conv_indices().len()).retained_conv_macs(q);
    1.0 - masks.retained_conv_macs(q) as f64 / dense as f64
}

fn design(
    name: &'static str,
    model: usize,
    m: &Model,
    taus: TauAssignment,
    tr: &mut Tracer,
) -> Design {
    let masks = tr.span("signif.compiled_masks_for_tau", 0, || {
        m.sig.compiled_masks_for_tau(&m.q, &taus)
    });
    Design {
        name,
        model,
        taus,
        masks,
    }
}

/// The design at the smallest global τ that cuts at least `target` of the
/// conv MACs (bisection), so every seed runs about the same amount of
/// work.
fn cutting(name: &'static str, model: usize, m: &Model, target: f64, tr: &mut Tracer) -> Design {
    let (mut lo, mut hi) = (0.0, TAU_MAX);
    for _ in 0..TAU_BISECTIONS {
        let mid = 0.5 * (lo + hi);
        let masks = m
            .sig
            .compiled_masks_for_tau(&m.q, &TauAssignment::global(mid));
        if conv_mac_cut(&m.q, &masks) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    design(name, model, m, TauAssignment::global(hi), tr)
}

/// Board cost of a design from the analytic estimators (`masks = None`:
/// the exact design).
fn contract(q: &QuantModel, masks: Option<&SkipMaskSet>, fw_cfg: &AtamanConfig) -> CostContract {
    let stats = dse::estimate_stats(q, masks, fw_cfg.unpack);
    let cycles = stats.cycles(&mcusim::CostModel::cortex_m33());
    CostContract {
        cycles,
        latency_ms: fw_cfg.board.cycles_to_ms(cycles),
        energy_mj: fw_cfg.board.cycles_to_mj(cycles),
        flash_bytes: dse::estimate_flash(q, masks, fw_cfg.unpack),
    }
}

/// The images `idx` of `ds` as a dataset of their own.
pub fn subset(ds: &Dataset, idx: &[usize]) -> Dataset {
    let shape = ds.images.shape();
    let data = idx.iter().flat_map(|&i| ds.image(i)).copied().collect();
    Dataset {
        images: Tensor::from_vec(Shape4::nhwc(idx.len(), shape.h, shape.w, shape.c), data)
            .expect("subset shape"),
        labels: idx.iter().map(|&i| ds.labels[i]).collect(),
    }
}

/// Build the whole fixture, its test set drawn by `seed`, recording one
/// span per public call into `tr` (root spans under id 0).
pub fn build(seed: u64, tr: &mut Tracer) -> Fixture {
    let mut rng = SplitMix::new(MODEL_SEED);
    // The test-suite difficulty: a few epochs on 512 images train both
    // models above chance (on the paper's difficulty they stay at chance),
    // so "no top-1 loss" selects real designs.
    let cfg = DatasetConfig {
        n_train: 512,
        n_test: TEST_POOL,
        ..DatasetConfig::tiny(rng.next_u64())
    };
    let t0 = Instant::now();
    let mut data = tr.span("cifar10sim.generate", 0, || cifar10sim::generate(cfg));
    // A seeded partial Fisher-Yates shuffle picks the run's test images.
    let mut pool: Vec<usize> = (0..TEST_POOL).collect();
    let mut draw = SplitMix::new(seed);
    for i in 0..EVAL_IMAGES + 128 {
        let j = i + draw.below(TEST_POOL - i);
        pool.swap(i, j);
    }
    data.test = subset(&data.test, &pool[..EVAL_IMAGES + 128]);

    let mut cifar = tinynn::zoo::mini_cifar(rng.next_u64());
    let mut resnet = tinynn::zoo::mini_resnet(rng.next_u64());
    let train_seed = rng.next_u64();
    tr.span("tinynn.train", 0, || {
        train(&mut cifar, &data, 2, 0.08, train_seed);
        // The residual model learns slower and diverges at the chain
        // model's rate.
        train(&mut resnet, &data, 6, 0.02, train_seed);
    });
    let train_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let calib = data.train.take(CALIB_IMAGES);
    let models: Vec<Model> = [&cifar, &resnet]
        .into_iter()
        .map(|net| {
            let q = tr.span("quantize.quantize_model", 0, || {
                quantize_model(net, &calibrate_ranges(net, &calib))
            });
            let sig = tr.span("signif.significance", 0, || {
                SignificanceMap::compute(&q, &capture_mean_inputs(&q, &calib))
            });
            Model { q, sig }
        })
        .collect();
    let ptq_signif_s = t1.elapsed().as_secs_f64();

    let t2 = Instant::now();
    let n_cifar = models[0].q.conv_indices().len();
    let designs = vec![
        design(
            "cifar-exact",
            0,
            &models[0],
            TauAssignment::per_layer(vec![None; n_cifar]),
            tr,
        ),
        cutting("cifar-mid", 0, &models[0], MID_CUT, tr),
        cutting("cifar-heavy", 0, &models[0], HEAVY_CUT, tr),
        cutting("resnet-heavy", 1, &models[1], HEAVY_CUT, tr),
    ];

    // The approximate serving design comes out of the full ataman pipeline
    // (quick DSE, latency-optimal design within a 25% loss budget).
    let fw_cfg = AtamanConfig::quick();
    let fw = tr.span("ataman.analyze", 0, || {
        Framework::analyze_quantized(models[0].q.clone(), &data, fw_cfg.clone())
    });
    let dep = tr
        .span("ataman.deploy", 0, || fw.deploy(0.25))
        .expect("the quick mini_cifar design fits the default board");
    let rh = &designs[3];
    let rq = &models[1].q;
    let served = vec![
        DeployedModel::from_deployment("mini-approx", &fw, &dep),
        DeployedModel::from_parts(
            "mini-exact",
            models[0].q.clone(),
            CompiledMasks::none(n_cifar),
            contract(&models[0].q, None, &fw_cfg),
        ),
        DeployedModel::from_parts(
            "resnet-heavy",
            rq.clone(),
            rh.masks.clone(),
            contract(
                rq,
                Some(&models[1].sig.masks_for_tau(rq, &rh.taus)),
                &fw_cfg,
            ),
        ),
    ];
    let compile_s = t2.elapsed().as_secs_f64();

    Fixture {
        seed,
        data,
        models,
        designs,
        served,
        train_s,
        ptq_signif_s,
        compile_s,
    }
}
