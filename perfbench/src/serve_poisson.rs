//! `serve-poisson`: an open loop over a one-shard `Gateway` (`max_batch`
//! 12). Arrivals follow a seeded Poisson schedule; each request picks one
//! of three deployed designs and one image at random (seeded). One thread
//! sends on schedule, one collects replies by polling `try_recv`, so
//! replies are not drained in submission order. A request is timed from
//! the moment it was due.

use crate::fixture::Fixture;
use crate::metrics::Metrics;
use crate::rng::SplitMix;
use crate::stats::{mean, quantile, windowed_quantile};
use crate::trace::Tracer;
use ataman_serve::{Gateway, Outcome, Registry, Request, ServeOptions, SubmitError};
use quantize::BatchScratch;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, TryRecvError};
use std::time::{Duration, Instant};

const MAX_BATCH: usize = 12;
const POOL_IMAGES: usize = 128;
/// Offered load of the latency measurement: about half of what one
/// worker sustains on a 2-CPU x86-64 host.
pub const NOMINAL_RPS: f64 = 4000.0;
/// Ladder of offered loads, as multiples of `NOMINAL_RPS`, for the
/// highest rate meeting the latency limit.
const LADDER: [f64; 7] = [1.0, 1.5, 2.0, 2.25, 2.5, 2.75, 3.0];
/// p99 latency limit of a ladder step, ms.
const P99_LIMIT_MS: f64 = 2.0;
/// Steps of the ladder.
pub const LADDER_STEPS: u32 = LADDER.len() as u32;
/// Requests per latency window (the p99 of a window has 10 beyond it).
const WINDOW: usize = 1000;
/// A step whose sender ran later than this (p90) did not offer its load.
/// (Single stalls of the host reach the p99 on their own; they still
/// count, since every request is timed from when it was due.)
const MAX_LAG_P90_MS: f64 = 1.0;
/// The collector's nap when a poll found nothing. Latencies come from the
/// replies themselves, so the collector's timing does not enter them.
const POLL_IDLE: Duration = Duration::from_micros(500);

/// Everything measured over one schedule at one offered rate.
#[derive(Default)]
pub struct Step {
    pub rate: f64,
    pub attempted: u64,
    /// Refused, expired, shed, crashed, closed or dropped requests, and
    /// replies whose prediction disagrees with the direct batch path.
    pub failed: u64,
    /// Ok replies whose prediction disagrees with the direct batch path.
    pub wrong: u64,
    pub not_ok: u64,
    /// (request sequence number, latency from due time in ms) of every Ok
    /// reply.
    pub latency_ms: Vec<(u64, f64)>,
    pub lag_ms: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub queued_us: Vec<f64>,
    pub exec_us: Vec<f64>,
    pub batch_sizes: Vec<f64>,
    pub backlog_grew: bool,
}

impl Step {
    /// The `q`-quantile of latency over windows of `WINDOW` consecutive
    /// requests ([`windowed_quantile`]).
    pub fn p(&self, q: f64) -> f64 {
        let mut by_seq = self.latency_ms.clone();
        by_seq.sort_by_key(|&(seq, _)| seq);
        let lat: Vec<f64> = by_seq.iter().map(|&(_, ms)| ms).collect();
        windowed_quantile(&lat, WINDOW, q, 0.5)
    }

    pub fn generator_behind(&self) -> bool {
        quantile(&self.lag_ms, 0.9) > MAX_LAG_P90_MS
    }

    /// The generator kept up and the backlog did not grow.
    pub fn valid(&self) -> bool {
        !self.generator_behind() && !self.backlog_grew
    }

    /// Valid, nothing failed, and p99 within the limit.
    pub fn passes(&self) -> bool {
        self.valid() && self.failed == 0 && self.p(0.99) <= P99_LIMIT_MS
    }
}

/// One request as the sender issued it.
struct Sent {
    seq: u64,
    model: usize,
    image: usize,
    due: Instant,
    t_send: Instant,
    t_ret: Instant,
}

/// What the sender hands the collector: the request and what `submit`
/// returned for it.
type Submitted = (Sent, Result<Receiver<Outcome>, SubmitError>);

pub struct ServePoisson {
    names: Vec<String>,
    /// Quantized image pool per served design.
    pool: Vec<Vec<Vec<i8>>>,
    /// Direct batch-path prediction per served design and pool image.
    expected: Vec<Vec<usize>>,
    gateway: Option<Gateway>,
    seq: u64,
}

impl ServePoisson {
    /// Quantize the image pool, compute the direct predictions (untimed)
    /// and start the gateway.
    pub fn prepare(fx: &Fixture) -> Self {
        let mut rng = SplitMix::new(fx.seed ^ 0x5E12);
        let test = &fx.data.test;
        let picks: Vec<usize> = (0..POOL_IMAGES).map(|_| rng.below(test.len())).collect();
        let mut pool = Vec::new();
        let mut expected = Vec::new();
        for d in &fx.served {
            let q = &d.model;
            let inputs: Vec<Vec<i8>> = picks
                .iter()
                .map(|&i| q.quantize_input(test.image(i)))
                .collect();
            let mut s = BatchScratch::for_model(q, 1);
            expected.push(
                inputs
                    .iter()
                    .map(|x| {
                        q.predict_compiled_batch_scratch(x, 1, None, Some(&d.masks), &mut s)[0]
                    })
                    .collect(),
            );
            pool.push(inputs);
        }
        let registry = Registry::new();
        for d in &fx.served {
            registry
                .deploy(d.clone())
                .expect("the served designs pass plan verification");
        }
        let opts = ServeOptions::builder()
            .max_batch(MAX_BATCH)
            .workers(1)
            .build()
            .expect("a valid one-shard configuration");
        let gateway = Gateway::start(registry, opts);
        // The load threads (this one, and the collector it spawns) share
        // the last CPU, so the spinning sender never takes the worker's.
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        ataman_serve::affinity::pin_current_thread(cpus - 1);
        Self {
            names: fx.served.iter().map(|d| d.name.clone()).collect(),
            pool,
            expected,
            gateway: Some(gateway),
            seq: 0,
        }
    }

    pub fn queue_peak_depth(&self) -> usize {
        self.gateway.as_ref().map_or(0, Gateway::queue_peak_depth)
    }

    /// Offer `rate` requests/s for `duration` on a schedule drawn from
    /// `seed`, and collect every outcome. With a tracer, each request
    /// leaves a `serve.request` span with its lag, submit, queue and
    /// execution as children.
    pub fn step(&mut self, rate: f64, duration: Duration, seed: u64, tr: &mut Tracer) -> Step {
        let gw = self.gateway.as_ref().expect("gateway running");
        let mut rng = SplitMix::new(seed);
        let mut schedule = Vec::new();
        let mut t = 0.0;
        loop {
            t += rng.exp(1.0 / rate);
            if t >= duration.as_secs_f64() {
                break;
            }
            schedule.push((t, rng.below(self.names.len()), rng.below(POOL_IMAGES)));
        }
        let completed = AtomicU64::new(0);
        let (tx, rx) = mpsc::channel::<Submitted>();
        // Requests in flight when each one was sent.
        let mut outstanding = Vec::with_capacity(schedule.len());
        let mut ctr = tr.fork();
        let base_seq = self.seq;
        let mut step = std::thread::scope(|scope| {
            let collector = scope.spawn(|| self.collect(rx, &completed, &mut ctr));
            let t0 = Instant::now() + Duration::from_millis(2);
            for (i, &(at, model, image)) in schedule.iter().enumerate() {
                let due = t0 + Duration::from_secs_f64(at);
                wait_until(due);
                let req =
                    Request::quantized(self.names[model].clone(), self.pool[model][image].clone());
                let t_send = Instant::now();
                let rx = gw.submit(req);
                let t_ret = Instant::now();
                outstanding.push((i as u64 + 1 - completed.load(Ordering::Relaxed)) as f64);
                let sent = Sent {
                    seq: base_seq + i as u64 + 1,
                    model,
                    image,
                    due,
                    t_send,
                    t_ret,
                };
                tx.send((sent, rx)).expect("collector alive");
            }
            drop(tx);
            collector.join().expect("collector thread")
        });
        tr.absorb(ctr);
        self.seq += schedule.len() as u64;
        step.rate = rate;
        step.attempted = schedule.len() as u64;
        let q = outstanding.len() / 4;
        if q > 0 {
            let (first, last) = (&outstanding[..q], &outstanding[outstanding.len() - q..]);
            step.backlog_grew = mean(last) > mean(first) + MAX_BATCH as f64;
        }
        step
    }

    /// Poll every pending reply with `try_recv` until the sender is done
    /// and nothing is pending.
    fn collect(&self, rx: Receiver<Submitted>, completed: &AtomicU64, tr: &mut Tracer) -> Step {
        let mut c = Step::default();
        let mut pending: Vec<(Sent, Receiver<Outcome>)> = Vec::new();
        let mut sender_done = false;
        loop {
            let mut progress = false;
            loop {
                match rx.try_recv() {
                    Ok((s, submitted)) => {
                        progress = true;
                        c.lag_ms
                            .push(s.t_send.duration_since(s.due).as_secs_f64() * 1e3);
                        c.submit_us
                            .push(s.t_ret.duration_since(s.t_send).as_secs_f64() * 1e6);
                        match submitted {
                            Ok(reply_rx) => pending.push((s, reply_rx)),
                            Err(_) => self.resolve(&mut c, completed, tr, &s, None),
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        sender_done = true;
                        break;
                    }
                }
            }
            let mut waiting = Vec::with_capacity(pending.len());
            for (s, reply_rx) in pending.drain(..) {
                match reply_rx.try_recv() {
                    Err(TryRecvError::Empty) => waiting.push((s, reply_rx)),
                    // A disconnected channel is a dropped request.
                    polled => {
                        progress = true;
                        self.resolve(&mut c, completed, tr, &s, polled.ok());
                    }
                }
            }
            pending = waiting;
            if sender_done && pending.is_empty() {
                return c;
            }
            if !progress {
                std::thread::sleep(POLL_IDLE);
            }
        }
    }

    /// Account one request's final outcome (`None`: refused or dropped).
    fn resolve(
        &self,
        c: &mut Step,
        completed: &AtomicU64,
        tr: &mut Tracer,
        s: &Sent,
        outcome: Option<Outcome>,
    ) {
        completed.fetch_add(1, Ordering::Relaxed);
        let Some(Outcome::Ok(reply)) = outcome else {
            c.failed += 1;
            c.not_ok += 1;
            return;
        };
        let done = s.t_ret + reply.latency;
        c.latency_ms
            .push((s.seq, done.duration_since(s.due).as_secs_f64() * 1e3));
        c.queued_us.push(reply.queued_us as f64);
        c.exec_us.push(reply.exec_us as f64);
        c.batch_sizes.push(reply.batch_size as f64);
        let wrong = u64::from(reply.predicted != self.expected[s.model][s.image]);
        c.wrong += wrong;
        c.failed += wrong;
        if tr.enabled() {
            let root = tr.record("serve.request", s.seq, None, s.due, done);
            tr.record("loadgen.lag", s.seq, Some(root), s.due, s.t_send);
            tr.record("serve.submit", s.seq, Some(root), s.t_send, s.t_ret);
            let q_end = s.t_ret + Duration::from_micros(reply.queued_us);
            tr.record("serve.queued", s.seq, Some(root), s.t_ret, q_end);
            let e_end = q_end + Duration::from_micros(reply.exec_us);
            tr.record("serve.exec", s.seq, Some(root), q_end, e_end);
        }
    }

    /// Climb the ladder until a step fails; the highest passing rate,
    /// interpolated on p99 towards the first failing step when that step
    /// failed on latency alone. Steps run for `step_len` each. Also
    /// returns the requests sent and the Ok replies whose prediction was
    /// wrong (requests refused or expired above capacity are misses of the
    /// ladder, not failed operations of the run).
    pub fn max_rate(&mut self, step_len: Duration, seed: u64) -> (f64, (u64, u64)) {
        let mut steps: Vec<Step> = Vec::new();
        for (i, m) in LADDER.iter().enumerate() {
            let off = &mut Tracer::new(false);
            let s = self.step(NOMINAL_RPS * m, step_len, seed ^ (0x1ADD + i as u64), off);
            eprintln!(
                "ladder {:.0} req/s: p50 {:.3} ms, p99 {:.3} ms, not ok {}, lag p90 {:.3} ms, \
                 backlog grew {}",
                s.rate,
                s.p(0.5),
                s.p(0.99),
                s.not_ok,
                quantile(&s.lag_ms, 0.9),
                s.backlog_grew
            );
            let pass = s.passes();
            steps.push(s);
            if !pass {
                break;
            }
        }
        let tally = (
            steps.iter().map(|s| s.attempted).sum(),
            steps.iter().map(|s| s.wrong).sum(),
        );
        let last = steps.last().expect("at least one ladder step");
        let rate = if last.passes() {
            last.rate
        } else if steps.len() == 1 {
            // Even the lowest step failed: scale it down by its p99 overrun.
            last.rate * (P99_LIMIT_MS / last.p(0.99)).min(1.0)
        } else {
            let prev = &steps[steps.len() - 2];
            if last.valid() && last.failed == 0 {
                let (p0, p1) = (prev.p(0.99), last.p(0.99));
                prev.rate
                    + (last.rate - prev.rate) * ((P99_LIMIT_MS - p0) / (p1 - p0)).clamp(0.0, 1.0)
            } else {
                prev.rate
            }
        };
        (rate, tally)
    }

    /// Per-layer serving metrics of one step.
    pub fn layer_metrics(&self, s: &Step, out: &mut Metrics) {
        out.put("serve.latency_p50_ms", s.p(0.5), "ms");
        out.put("serve.latency_p99_ms", s.p(0.99), "ms");
        out.put("serve.submit_us_p50", quantile(&s.submit_us, 0.5), "us");
        out.put("serve.queued_us_p50", quantile(&s.queued_us, 0.5), "us");
        out.put("serve.queued_us_p99", quantile(&s.queued_us, 0.99), "us");
        out.put("serve.exec_us_p50", quantile(&s.exec_us, 0.5), "us");
        out.put("serve.exec_us_p99", quantile(&s.exec_us, 0.99), "us");
        out.put("serve.batch_mean", mean(&s.batch_sizes), "count");
        out.put(
            "serve.queue_peak_depth",
            self.queue_peak_depth() as f64,
            "count",
        );
        out.put("serve.not_ok", s.not_ok as f64, "count");
        out.put("loadgen.lag_p99_ms", quantile(&s.lag_ms, 0.99), "ms");
    }
}

impl Drop for ServePoisson {
    fn drop(&mut self) {
        if let Some(gw) = self.gateway.take() {
            gw.shutdown();
        }
    }
}

/// Spin (yielding) until `due`: a sleeping sender wakes up to milliseconds
/// late on a virtualized host.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}
