//! `offline-b12`: a seeded image set classified at batch 12 on one thread
//! through `predict_compiled_batch_scratch`, four designs with equal image
//! counts. The traced pass also walks every batch through the checkpoint
//! API (`batch_start_into` / `batch_fill_conv_cols` / `batch_advance_into`)
//! to split each conv into column fill and MAC + output stage, and runs
//! each conv of each design once on the unpacked MCU engine for its
//! simulated cycle count.

use crate::fixture::{Design, Fixture};
use crate::metrics::Metrics;
use crate::rng::SplitMix;
use crate::stats::{mean, median};
use crate::trace::Tracer;
use quantize::{argmax_i8, BatchCheckpoint, BatchScratch, QLayer, QuantModel, SkipMaskSet};
use std::hint::black_box;
use std::time::{Duration, Instant};

pub const BATCH: usize = 12;
const N_BATCHES: usize = 20;
/// Images per design checked against the boolean-mask reference forward.
const ORACLE_SAMPLE: usize = 24;

struct Lane<'f> {
    design: &'f Design,
    q: &'f QuantModel,
    /// `N_BATCHES` stacked quantized batches.
    batches: Vec<Vec<i8>>,
    /// Predictions of the batch path, checked against the reference.
    expected: Vec<Vec<usize>>,
    scratch: BatchScratch,
    /// Untraced forward times interleaved with the traced pass, ms.
    untraced_ms: Vec<f64>,
}

pub struct Offline<'f> {
    lanes: Vec<Lane<'f>>,
}

/// Result of one untraced measurement.
pub struct Measured {
    /// Per-round throughput (every design over every batch once).
    pub round_images_per_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl<'f> Offline<'f> {
    /// Draw the image set, quantize it per model and compute each design's
    /// predictions (untimed).
    pub fn prepare(fx: &'f Fixture) -> Self {
        let mut rng = SplitMix::new(fx.seed ^ 0x0FF1);
        let test = &fx.data.test;
        let picks: Vec<usize> = (0..N_BATCHES * BATCH)
            .map(|_| rng.below(test.len()))
            .collect();
        let lanes = fx
            .designs
            .iter()
            .map(|design| {
                let q = &fx.model_of(design).q;
                let batches: Vec<Vec<i8>> = picks
                    .chunks(BATCH)
                    .map(|c| {
                        c.iter()
                            .flat_map(|&i| q.quantize_input(test.image(i)))
                            .collect()
                    })
                    .collect();
                let mut scratch = BatchScratch::for_model(q, BATCH);
                let expected = batches
                    .iter()
                    .map(|b| {
                        q.predict_compiled_batch_scratch(
                            b,
                            BATCH,
                            None,
                            Some(&design.masks),
                            &mut scratch,
                        )
                    })
                    .collect();
                Lane {
                    design,
                    q,
                    batches,
                    expected,
                    scratch,
                    untraced_ms: Vec::new(),
                }
            })
            .collect();
        Self { lanes }
    }

    /// Oracle: the batch path's predictions must equal the boolean-mask
    /// reference forward (`QuantModel::forward_quantized` under
    /// `SignificanceMap::masks_for_tau`) on a seeded sample. Returns
    /// (checked, mismatched).
    pub fn oracle(&self, fx: &Fixture) -> (u64, u64) {
        let mut rng = SplitMix::new(fx.seed ^ 0x0AC1E);
        let (mut checked, mut bad) = (0, 0);
        for lane in &self.lanes {
            let masks = fx
                .model_of(lane.design)
                .sig
                .masks_for_tau(lane.q, &lane.design.taus);
            let in_len = lane.q.input_shape.item_len();
            for _ in 0..ORACLE_SAMPLE {
                let (b, i) = (rng.below(N_BATCHES), rng.below(BATCH));
                let qin = &lane.batches[b][i * in_len..(i + 1) * in_len];
                let want = argmax_i8(&lane.q.forward_quantized(qin, Some(&masks)));
                checked += 1;
                bad += u64::from(lane.expected[b][i] != want);
            }
        }
        (checked, bad)
    }

    /// Classify the image set with every design, round after round, until
    /// `budget` has passed (at least one round).
    pub fn measure(&mut self, budget: Duration) -> Measured {
        let mut m = Measured {
            round_images_per_s: Vec::new(),
            attempted: 0,
            failed: 0,
        };
        let t_end = Instant::now() + budget;
        loop {
            let t_round = Instant::now();
            for lane in &mut self.lanes {
                for (b, flat) in lane.batches.iter().enumerate() {
                    let preds = lane.q.predict_compiled_batch_scratch(
                        black_box(flat),
                        BATCH,
                        None,
                        Some(&lane.design.masks),
                        &mut lane.scratch,
                    );
                    m.attempted += 1;
                    m.failed += u64::from(preds != lane.expected[b]);
                }
            }
            let images = (self.lanes.len() * N_BATCHES * BATCH) as f64;
            m.round_images_per_s
                .push(images / t_round.elapsed().as_secs_f64());
            if Instant::now() >= t_end {
                return m;
            }
        }
    }

    /// The traced pass: every batch through the monolithic forward and
    /// through the checkpoint API, each call in its own span, and once more
    /// through an untraced forward (before the spans on odd batches, after
    /// them on even ones) for [`Offline::trace_overhead_frac`].
    /// Returns (attempted, failed) batch operations.
    pub fn traced(&mut self, budget: Duration, tr: &mut Tracer) -> (u64, u64) {
        let (mut attempted, mut failed) = (0, 0);
        let mut seq = 0u64;
        let (mut a, mut b) = (BatchCheckpoint::empty(), BatchCheckpoint::empty());
        let mut cols = Vec::new();
        let mut preds = Vec::new();
        let t_end = Instant::now() + budget;
        while Instant::now() < t_end || seq == 0 {
            for lane in &mut self.lanes {
                let d = lane.design.name;
                let n_convs = lane.q.conv_indices().len();
                for (bi, flat) in lane.batches.iter().enumerate() {
                    seq += 1;
                    let plain_first = seq % 2 == 1;
                    let mut plain = Vec::new();
                    if plain_first {
                        plain = timed_forward(
                            lane.q,
                            lane.design,
                            flat,
                            &mut lane.scratch,
                            &mut lane.untraced_ms,
                        );
                    }
                    let root = tr.begin("offline.batch", seq);
                    let mono = tr.span(&format!("quantize.{d}.forward"), seq, || {
                        lane.q.predict_compiled_batch_scratch(
                            flat,
                            BATCH,
                            None,
                            Some(&lane.design.masks),
                            &mut lane.scratch,
                        )
                    });
                    let ck = tr.begin(&format!("quantize.{d}.checkpoint"), seq);
                    tr.span(&format!("quantize.{d}.start"), seq, || {
                        lane.q
                            .batch_start_into(flat, BATCH, &mut lane.scratch, &mut a)
                    });
                    for k in 0..n_convs {
                        tr.span(&format!("quantize.{d}.conv{k}.fill"), seq, || {
                            lane.q
                                .batch_fill_conv_cols(&a, &mut lane.scratch, &mut cols)
                        });
                        tr.span(&format!("quantize.{d}.conv{k}.advance"), seq, || {
                            lane.q.batch_advance_into(
                                &a,
                                lane.design.masks.per_conv[k].as_ref(),
                                Some(&cols),
                                &mut lane.scratch,
                                &mut b,
                            )
                        });
                        std::mem::swap(&mut a, &mut b);
                    }
                    tr.span(&format!("quantize.{d}.predictions"), seq, || {
                        lane.q.batch_checkpoint_predictions_into(&a, &mut preds)
                    });
                    tr.end(ck);
                    tr.end(root);
                    if !plain_first {
                        plain = timed_forward(
                            lane.q,
                            lane.design,
                            flat,
                            &mut lane.scratch,
                            &mut lane.untraced_ms,
                        );
                    }
                    let want = &lane.expected[bi];
                    attempted += 1;
                    failed += u64::from(&mono != want || &preds != want || &plain != want);
                }
            }
        }
        (attempted, failed)
    }

    /// Per-layer metrics of the traced pass, plus each conv's simulated
    /// Cortex-M33 cycles on the unpacked engine (one inference per conv,
    /// in its own span).
    pub fn layer_metrics(&self, fx: &Fixture, tr: &mut Tracer, out: &mut Metrics) {
        // The cycle counts run first: recording a span drops the self times
        // the reads below compute once and share.
        let cycles: Vec<Vec<u64>> = self
            .lanes
            .iter()
            .map(|lane| {
                let d = lane.design.name;
                let masks = fx
                    .model_of(lane.design)
                    .sig
                    .masks_for_tau(lane.q, &lane.design.taus);
                (0..masks.per_conv.len())
                    .map(|k| {
                        tr.span(&format!("unpackgen.{d}.conv{k}.infer"), 0, || {
                            conv_cycles(lane.q, k, masks.per_conv[k].clone())
                        })
                    })
                    .collect()
            })
            .collect();
        for (lane, cycles) in self.lanes.iter().zip(cycles) {
            let d = lane.design.name;
            let forward = tr.total_us_by_id(&format!("quantize.{d}.forward"));
            let ckpt = tr.total_us_by_id(&format!("quantize.{d}.checkpoint"));
            let ratios: Vec<f64> = ckpt
                .iter()
                .filter_map(|(id, c)| forward.get(id).map(|f| c / f))
                .collect();
            out.put(
                &format!("quantize.{d}.sum_over_forward"),
                median(&ratios),
                "ratio",
            );

            for (k, cycles) in cycles.into_iter().enumerate() {
                let c = lane.q.conv(k);
                let fill = per_image(tr, &format!("quantize.{d}.conv{k}.fill"));
                let advance = per_image(tr, &format!("quantize.{d}.conv{k}.advance"));
                let retained = match &lane.design.masks.per_conv[k] {
                    Some(cc) => cc.retained_products(),
                    None => (c.geom.out_c * c.patch_len()) as u64,
                };
                let kmacs = (retained * c.geom.out_positions() as u64) as f64 / 1e3;
                let col_bytes = c.patch_len().div_ceil(2) * 2 * c.geom.out_positions() * 2;
                let p = format!("quantize.{d}.conv{k}");
                out.put(&format!("{p}.fill_us"), fill, "us");
                out.put(&format!("{p}.advance_us"), advance, "us");
                out.put(&format!("{p}.kmacs"), kmacs, "count");
                out.put(&format!("{p}.col_kb"), col_bytes as f64 / 1024.0, "KB");
                out.put(
                    &format!("{p}.host_ns_per_mcu_cycle"),
                    (fill + advance) * 1e3 / cycles as f64,
                    "ns",
                );
                out.put(
                    &format!("mcu.{d}.conv{k}.kcycles"),
                    cycles as f64 / 1e3,
                    "count",
                );
            }
        }
    }

    /// Traced over untraced time of the monolithic forward, minus one: per
    /// design, the median `forward` span over the median interleaved
    /// untraced forward of the traced pass, averaged over designs.
    pub fn trace_overhead_frac(&self, tr: &Tracer) -> f64 {
        let ratios: Vec<f64> = self
            .lanes
            .iter()
            .map(|l| {
                let spans = tr.total_us_by_id(&format!("quantize.{}.forward", l.design.name));
                let traced_ms = median(&spans.into_values().collect::<Vec<_>>()) / 1e3;
                traced_ms / median(&l.untraced_ms)
            })
            .collect();
        mean(&ratios) - 1.0
    }
}

/// One forward of `flat` through `predict_compiled_batch_scratch`, its
/// time appended to `into` (ms); returns the predictions.
fn timed_forward(
    q: &QuantModel,
    design: &Design,
    flat: &[i8],
    scratch: &mut BatchScratch,
    into: &mut Vec<f64>,
) -> Vec<usize> {
    let t = Instant::now();
    let preds = q.predict_compiled_batch_scratch(
        black_box(flat),
        BATCH,
        None,
        Some(&design.masks),
        scratch,
    );
    into.push(t.elapsed().as_secs_f64() * 1e3);
    preds
}

/// Median self time of the spans named `name`, µs per image.
fn per_image(tr: &Tracer, name: &str) -> f64 {
    median(&tr.self_us(name)) / BATCH as f64
}

/// Simulated Cortex-M33 cycles of one conv layer on the unpacked engine:
/// the layer runs alone as a one-layer model, and the logits epilogue the
/// plan appends is left out of the count. The unpacked code's event counts
/// do not depend on the activations, so a zero input suffices.
fn conv_cycles(q: &QuantModel, ordinal: usize, mask: Option<Vec<bool>>) -> u64 {
    let c = q.conv(ordinal);
    let g = c.geom;
    let single = QuantModel {
        name: format!("{}-conv", q.name),
        input_shape: tinytensor::Shape4::nhwc(1, g.in_h, g.in_w, g.in_c),
        input_qp: c.in_qp,
        layers: vec![QLayer::Conv(c.clone())],
    };
    let masks = SkipMaskSet {
        per_conv: vec![mask],
    };
    let engine = unpackgen::UnpackedEngine::new(&single, Some(&masks), Default::default());
    let (_, stats) = engine.infer_quantized(&vec![0i8; single.input_shape.item_len()]);
    let cost = engine.cost_model();
    stats
        .breakdown(cost)
        .iter()
        .filter(|(e, _, _)| *e != mcusim::Event::SoftmaxOp)
        .map(|(_, _, cycles)| cycles)
        .sum::<f64>()
        .round() as u64
}
