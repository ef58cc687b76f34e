//! `dse-paper`: `dse::explore` over the paper's design space as
//! `AtamanConfig::default()` builds it (`DseSpace::paper(n, 0.005)
//! .thin(600)`) for both trained models on 512 eval images, followed by
//! Pareto selection. The traced pass runs the same exploration through
//! the public pieces `explore` is made of (eval cache, stream memo, τ trie,
//! estimators, Pareto front), each in its own span.

use crate::fixture::{subset, Fixture, Model, EVAL_IMAGES};
use crate::metrics::Metrics;
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use cifar10sim::Dataset;
use dse::{DseEvalCache, DseSpace, EvaluatedDesign, ExploreOptions, TauTrie};
use signif::{StreamMemo, TauAssignment};
use std::time::{Duration, Instant};

const TAU_STEP: f64 = 0.005;
const MAX_CONFIGS: usize = 600;
/// Sub-grid and eval-set size of the `explore_reference` oracle.
const ORACLE_CONFIGS: usize = 40;
const ORACLE_IMAGES: usize = 128;
/// Eval images per measured `explore` call.
const CHUNK: usize = 128;

struct Space<'f> {
    model: &'f Model,
    configs: Vec<TauAssignment>,
    /// Exact-model top-1 on the eval set.
    baseline_accuracy: f32,
    exact_cycles: u64,
    /// The first pass's designs; later passes must reproduce them.
    expected: Vec<EvaluatedDesign>,
}

pub struct DsePaper<'f> {
    fx: &'f Fixture,
    spaces: Vec<Space<'f>>,
    opts: ExploreOptions,
    /// The eval set cut into `CHUNK`-image datasets.
    chunks: Vec<Dataset>,
    /// Untraced `explore` passes interleaved with the traced pass, s.
    untraced_pass_s: Vec<f64>,
}

pub struct Measured {
    /// Time of each `explore` call (one per model and eval chunk), by
    /// model, s.
    pub call_s: Vec<Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
}

impl Measured {
    /// Eval-image inferences per second: each model's explore calls read
    /// at their slow decile (`slow`-quantile of call time).
    pub fn images_per_s(&self, d: &DsePaper<'_>, slow: f64) -> f64 {
        let pass_s: f64 = self
            .call_s
            .iter()
            .map(|calls| quantile(calls, slow) * d.chunks.len() as f64)
            .sum();
        (d.designs_per_pass() * EVAL_IMAGES) as f64 / pass_s
    }
}

/// Run `f` with every parallel iterator inside it on one thread. With two
/// threads each parallel section waits for the slower vCPU, which doubles
/// the pass's exposure to co-tenants of the host: over five seeds its
/// throughput spread 16%, against 9% on one thread.
fn on_one_thread<R>(f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a one-thread pool")
        .install(f)
}

fn same_design(a: &EvaluatedDesign, b: &EvaluatedDesign) -> bool {
    a.taus == b.taus
        && a.accuracy == b.accuracy
        && a.retained_macs == b.retained_macs
        && a.conv_mac_reduction == b.conv_mac_reduction
        && a.est_cycles == b.est_cycles
        && a.est_flash == b.est_flash
        && a.skipped_products == b.skipped_products
}

fn mismatches(a: &[EvaluatedDesign], b: &[EvaluatedDesign]) -> u64 {
    let differing = a.iter().zip(b).filter(|(x, y)| !same_design(x, y)).count();
    (differing + a.len().abs_diff(b.len())) as u64
}

impl<'f> DsePaper<'f> {
    /// Enumerate both design spaces and run one untimed exploration each
    /// (its designs are what every measured pass must reproduce).
    pub fn prepare(fx: &'f Fixture) -> Self {
        let opts = ExploreOptions {
            eval_images: EVAL_IMAGES,
            ..Default::default()
        };
        let eval = fx.data.test.take(EVAL_IMAGES);
        let cost = mcusim::CostModel::cortex_m33();
        let spaces = fx
            .models
            .iter()
            .map(|model| {
                let n = model.q.conv_indices().len();
                let configs = DseSpace::paper(n, TAU_STEP).thin(MAX_CONFIGS).configs();
                let expected = dse::explore(&model.q, &model.sig, &fx.data.test, &configs, &opts);
                Space {
                    model,
                    baseline_accuracy: model.q.accuracy(&eval, None),
                    exact_cycles: dse::estimate_stats(&model.q, None, opts.unpack).cycles(&cost),
                    configs,
                    expected,
                }
            })
            .collect();
        let chunks = (0..EVAL_IMAGES / CHUNK)
            .map(|c| subset(&eval, &(c * CHUNK..(c + 1) * CHUNK).collect::<Vec<_>>()))
            .collect();
        Self {
            fx,
            spaces,
            opts,
            chunks,
            untraced_pass_s: Vec::new(),
        }
    }

    pub fn designs_per_pass(&self) -> usize {
        self.spaces.iter().map(|s| s.configs.len()).sum()
    }

    /// Oracle: `explore` must equal `explore_reference` field for field on
    /// a thinned sub-grid. Returns (checked, mismatched) designs.
    pub fn oracle(&self) -> (u64, u64) {
        let opts = ExploreOptions {
            eval_images: ORACLE_IMAGES,
            ..self.opts.clone()
        };
        let (mut checked, mut bad) = (0, 0);
        for s in &self.spaces {
            let n = s.model.q.conv_indices().len();
            let configs = DseSpace::paper(n, TAU_STEP).thin(ORACLE_CONFIGS).configs();
            let data = &self.fx.data.test;
            let fast = dse::explore(&s.model.q, &s.model.sig, data, &configs, &opts);
            let reference = dse::explore_reference(&s.model.q, &s.model.sig, data, &configs, &opts);
            checked += configs.len() as u64;
            bad += mismatches(&fast, &reference);
        }
        (checked, bad)
    }

    /// Simulated cycle cut of the fastest Pareto design with no eval-set
    /// top-1 loss, averaged over both models (deterministic per seed).
    fn cycles_saved_frac(&self) -> f64 {
        let cuts: Vec<f64> = self
            .spaces
            .iter()
            .map(|s| {
                let front = dse::pareto_front(&s.expected);
                let fastest = front
                    .iter()
                    .map(|&i| &s.expected[i])
                    .filter(|d| d.accuracy >= s.baseline_accuracy)
                    .map(|d| d.est_cycles)
                    .min()
                    .unwrap_or(s.exact_cycles)
                    .min(s.exact_cycles);
                1.0 - fastest as f64 / s.exact_cycles as f64
            })
            .collect();
        cuts.iter().sum::<f64>() / cuts.len() as f64
    }

    /// Explore both spaces on one thread, pass after pass, until `budget`
    /// has passed (at least one pass). A pass explores each space once per
    /// `CHUNK`-image chunk of the eval set and adds up the correct counts:
    /// the designs must equal one `explore` over all 512 images, and the
    /// calls are short enough for a run to hold tens of them per model.
    pub fn measure(&self, budget: Duration) -> Measured {
        on_one_thread(|| self.measure_chunked(budget))
    }

    fn measure_chunked(&self, budget: Duration) -> Measured {
        let mut m = Measured {
            call_s: vec![Vec::new(); self.spaces.len()],
            attempted: 0,
            failed: 0,
        };
        let opts = ExploreOptions {
            eval_images: CHUNK,
            ..self.opts.clone()
        };
        let t_end = Instant::now() + budget;
        loop {
            for (s, call_s) in self.spaces.iter().zip(&mut m.call_s) {
                let mut correct = vec![0u32; s.configs.len()];
                let mut designs = Vec::new();
                for chunk in &self.chunks {
                    let t = Instant::now();
                    designs = dse::explore(&s.model.q, &s.model.sig, chunk, &s.configs, &opts);
                    call_s.push(t.elapsed().as_secs_f64());
                    for (c, d) in correct.iter_mut().zip(&designs) {
                        *c += (d.accuracy * CHUNK as f32).round() as u32;
                    }
                }
                for (d, c) in designs.iter_mut().zip(&correct) {
                    d.accuracy = *c as f32 / EVAL_IMAGES as f32;
                }
                std::hint::black_box(dse::pareto_front(&designs));
                m.attempted += designs.len() as u64;
                m.failed += mismatches(&designs, &s.expected);
            }
            if Instant::now() >= t_end {
                return m;
            }
        }
    }

    /// The traced pass, on one thread like [`DsePaper::measure`]: the same
    /// exploration as [`dse::explore`], called piece by piece. Stream
    /// compilation is forced ahead of the trie walk so the walk's memo
    /// lookups are hits and the two layers separate. Returns (attempted,
    /// failed) designs.
    pub fn traced(&mut self, budget: Duration, tr: &mut Tracer, out: &mut Metrics) -> (u64, u64) {
        on_one_thread(|| self.traced_pieces(budget, tr, out))
    }

    fn traced_pieces(
        &mut self,
        budget: Duration,
        tr: &mut Tracer,
        out: &mut Metrics,
    ) -> (u64, u64) {
        let (mut attempted, mut failed) = (0, 0);
        let (mut segments, mut naive, mut entries) = (0usize, 0usize, 0usize);
        let eval = self.fx.data.test.take(EVAL_IMAGES);
        let t_end = Instant::now() + budget;
        let mut pass = 0u64;
        while Instant::now() < t_end || pass == 0 {
            pass += 1;
            // An untraced `explore` pass, before the traced one on odd
            // passes and after it on even ones, for `trace_overhead_frac`.
            let plain_first = pass % 2 == 1;
            if plain_first {
                failed += self.untraced_pass();
            }
            for s in &self.spaces {
                let q = &s.model.q;
                let root = tr.begin("dse.explore", pass);
                let cache = tr.span("dse.cache_build", pass, || DseEvalCache::new(q, &eval));
                let memo = tr.span("signif.stream_compile", pass, || {
                    let memo = StreamMemo::new(q, &s.model.sig);
                    for taus in &s.configs {
                        memo.design(taus);
                    }
                    memo
                });
                let trie = tr.span("dse.trie_build", pass, || {
                    TauTrie::build(q.conv_indices().len(), &s.configs)
                });
                let acc = tr.span("dse.trie", pass, || cache.accuracies_trie(q, &memo, &trie));
                let costs: Vec<(u64, u64)> = tr.span("dse.estimate", pass, || {
                    s.configs
                        .iter()
                        .map(|taus| {
                            let streams = memo.design(taus);
                            let stats = dse::estimate_stats_streams(q, &streams, self.opts.unpack);
                            let flash = dse::estimate_flash_streams(q, &streams, self.opts.unpack);
                            (stats.cycles(&self.opts.cost), flash)
                        })
                        .collect()
                });
                tr.span("dse.pareto", pass, || {
                    std::hint::black_box(dse::pareto_front(&s.expected));
                });
                tr.end(root);
                attempted += s.configs.len() as u64;
                failed += s
                    .expected
                    .iter()
                    .zip(acc.iter().zip(&costs))
                    .filter(|(d, (a, (c, f)))| {
                        d.accuracy != **a || d.est_cycles != *c || d.est_flash != *f
                    })
                    .count() as u64;
                if pass == 1 {
                    segments += trie.segments();
                    naive += trie.naive_segments();
                    entries += memo.entries();
                }
            }
            if !plain_first {
                failed += self.untraced_pass();
            }
        }
        let per_pass = |name: &str| median(&tr.self_us(name));
        out.put(
            "signif.stream_compile_ms",
            per_pass("signif.stream_compile") / 1e3,
            "ms",
        );
        out.put("signif.memo_entries", entries as f64, "count");
        out.put("dse.trie_s", per_pass("dse.trie") / 1e6, "s");
        out.put(
            "dse.trie_over_naive_segments",
            segments as f64 / naive as f64,
            "ratio",
        );
        out.put("dse.estimate_ms", per_pass("dse.estimate") / 1e3, "ms");
        out.put("dse.pareto_ms", per_pass("dse.pareto") / 1e3, "ms");
        out.put("dse.cache_build_s", per_pass("dse.cache_build") / 1e6, "s");
        out.put("mcu_cycles_saved_frac", self.cycles_saved_frac(), "ratio");
        (attempted, failed)
    }

    /// One `explore` of both spaces over all 512 images, its time recorded
    /// for [`DsePaper::trace_overhead_frac`]; returns the designs that
    /// differ from the expected ones.
    fn untraced_pass(&mut self) -> u64 {
        let t = Instant::now();
        let mut bad = 0;
        for s in &self.spaces {
            let designs = dse::explore(
                &s.model.q,
                &s.model.sig,
                &self.fx.data.test,
                &s.configs,
                &self.opts,
            );
            bad += mismatches(&designs, &s.expected);
        }
        self.untraced_pass_s.push(t.elapsed().as_secs_f64());
        bad
    }

    /// Traced over untraced pass time, minus one: the median traced pass
    /// (both models' `dse.explore` spans) over the median interleaved
    /// untraced `explore` pass.
    pub fn trace_overhead_frac(&self, tr: &Tracer) -> f64 {
        let traced: Vec<f64> = tr.total_us_by_id("dse.explore").into_values().collect();
        median(&traced) / 1e6 / median(&self.untraced_pass_s) - 1.0
    }
}
