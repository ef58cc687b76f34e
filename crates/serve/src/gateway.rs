//! The gateway: the fleet's single front door.
//!
//! [`Gateway::start`] builds the whole topology — a
//! [`Coordinator`](crate::coordinator) holding one
//! `Shard` per worker, and one supervised
//! worker thread per shard. [`Gateway::submit`] admits a
//! [`Request`]: validate against the registry, quantize an image payload,
//! stamp a deadline from the target's
//! [`CostContract`](crate::registry::CostContract), then ask the
//! coordinator for the model's replica shards cheapest-first and push to
//! the least-loaded one, failing over down the list when a shard's queue
//! is full. Overload policy stays typed end to end:
//!
//! * a full placement refuses with [`SubmitError::QueueFull`] only after
//!   every replica refused;
//! * a batch-class request past the high-water mark of its least-loaded
//!   replica sheds ([`SubmitError::Shed`]) — failing over *upward* in
//!   load would invert the shed-batch-first policy — or degrades to a
//!   cheaper same-family design when the gateway allows it;
//! * a fleet whose placed shards are all dead (or a closed gateway)
//!   refuses with [`SubmitError::Closed`].
//!
//! Every admitted request still resolves to exactly one
//! [`Outcome`] — admission chooses a shard, and
//! the shard's owning worker (or its drain path) owns the resolution.

use crate::canary::{self, CanaryDecision, CanaryEvent};
use crate::coordinator::{Coordinator, ShardSnapshot};
use crate::faults;
use crate::monitor::{ModelHealth, Monitor};
use crate::options::ServeOptions;
use crate::queue::{Outcome, PushError, QueuedRequest};
use crate::registry::{DeployedModel, Registry};
use crate::request::{Payload, Request};
use crate::retune::{self, RetuneError, RetuneOutcome};
use crate::worker::{drain_unserved, supervised_worker, WorkerCtx};
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Why a submission was refused at admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// No deployed design under that name.
    UnknownModel(String),
    /// Input length does not match the model's input shape.
    InputLength {
        /// The model's expected input element count.
        expected: usize,
        /// What the caller submitted.
        got: usize,
    },
    /// Every replica shard of the model is at its depth bound — the
    /// placement is overloaded; back off and retry.
    QueueFull {
        /// The configured per-shard depth bound.
        max_depth: usize,
    },
    /// A batch-class submission refused past the high-water mark so
    /// interactive traffic keeps its headroom. Retrying immediately will
    /// shed again — back off for longer than a [`SubmitError::QueueFull`],
    /// or submit as [`Priority::Interactive`](crate::Priority::Interactive)
    /// if the request really is latency-sensitive.
    Shed {
        /// Queue depth (on the least-loaded replica) at refusal.
        queue_depth: usize,
        /// The high-water mark that was crossed.
        high_water: usize,
    },
    /// The gateway is shutting down — or every replica shard of the model
    /// has been abandoned. Admission is closed for this request and
    /// retrying cannot succeed.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::UnknownModel(name) => write!(f, "unknown model {name:?}"),
            SubmitError::InputLength { expected, got } => {
                write!(f, "input length {got} != expected {expected}")
            }
            SubmitError::QueueFull { max_depth } => {
                write!(f, "every replica shard full ({max_depth} waiting requests)")
            }
            SubmitError::Shed {
                queue_depth,
                high_water,
            } => write!(
                f,
                "batch-class request shed ({queue_depth} waiting >= high water {high_water})"
            ),
            SubmitError::Closed => write!(f, "gateway shutting down: admission closed"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Fleet health counters, updated live by the admission path and the
/// worker supervisors. Snapshot with [`Gateway::stats`].
#[derive(Default)]
pub(crate) struct FleetStats {
    pub(crate) worker_crashes: AtomicU64,
    pub(crate) worker_restarts: AtomicU64,
    pub(crate) workers_abandoned: AtomicU64,
    pub(crate) expired: AtomicU64,
    pub(crate) shed_admission: AtomicU64,
    pub(crate) degraded: AtomicU64,
    pub(crate) closed_unserved: AtomicU64,
    pub(crate) canary_promotions: AtomicU64,
    pub(crate) rollbacks: AtomicU64,
    pub(crate) retune_proposals: AtomicU64,
}

/// Point-in-time copy of the fleet health counters (`BENCH_serve.json`
/// surfaces these; the perf gate hard-fails on `worker_crashes > 0` in the
/// fault-free bench run).
#[derive(Debug, Clone, Serialize)]
pub struct StatsSnapshot {
    /// Worker panics caught at the batch unwind boundary.
    pub worker_crashes: u64,
    /// Supervisor restarts granted after crashes.
    pub worker_restarts: u64,
    /// Worker slots abandoned after exhausting their restart budget
    /// (their shards are closed, drained, and routed around).
    pub workers_abandoned: u64,
    /// Requests expired before execution (deadline enforcement).
    pub expired: u64,
    /// Batch-class submissions refused at the high-water mark.
    pub shed_admission: u64,
    /// Queued batch-class requests evicted by interactive admissions
    /// (summed over shards).
    pub shed_evicted: u64,
    /// Shed batch-class requests rerouted to a cheaper same-family design.
    pub degraded: u64,
    /// Requests resolved [`Outcome::Closed`]
    /// by a shutdown or shard-abandonment drain.
    pub closed_unserved: u64,
    /// Canaries promoted to primary by the control loop.
    pub canary_promotions: u64,
    /// Canaries rolled back (crash, disagreement spike, or contract
    /// violation). The perf gate zero-gates this in the fault-free run.
    pub rollbacks: u64,
    /// Retune passes that produced a canary proposal.
    pub retune_proposals: u64,
    /// Shadow (exact-engine) comparisons completed, fleet-wide.
    pub shadow_runs: u64,
    /// Shadow comparisons where approx != exact, fleet-wide.
    pub shadow_disagreements: u64,
    /// Shadow executions that themselves failed (counted, never visible
    /// in a serving reply).
    pub shadow_failures: u64,
    /// Fleet-wide shadow disagreement fraction
    /// (`shadow_disagreements / shadow_runs`; 0 with shadowing off).
    pub disagreement_rate: f64,
}

/// A running inference fleet: registry + coordinator + per-shard
/// supervised workers, admitted through one front door.
///
/// Dropping (or [`Gateway::shutdown`]) closes every shard, lets workers
/// drain what's admitted, joins them, and resolves anything left (a fully
/// crashed fleet) with [`Outcome::Closed`].
pub struct Gateway {
    registry: Arc<Registry>,
    coordinator: Arc<Coordinator>,
    monitor: Arc<Monitor>,
    workers: Vec<JoinHandle<()>>,
    controller: Option<JoinHandle<()>>,
    /// Shutdown signal for the control thread: flag + wakeup.
    ctl: Arc<(Mutex<bool>, Condvar)>,
    next_id: AtomicU64,
    opts: ServeOptions,
    stats: Arc<FleetStats>,
}

/// One control pass, shared by the background controller thread and
/// [`Gateway::canary_tick`]: for every active canary, assemble its
/// observation, run the pure decision function
/// [`canary::decide`], and apply the verdict against the registry.
/// Promotion checks the [`faults::SITE_CANARY_PROMOTE`] failpoint — an
/// injected failure skips *this attempt* (the canary stays a canary and a
/// later tick retries); it can never half-promote.
fn canary_control_tick(
    registry: &Registry,
    monitor: &Monitor,
    stats: &FleetStats,
) -> Vec<CanaryEvent> {
    let mut events = Vec::new();
    for (primary, canary_name, cfg) in registry.canary_states() {
        let obs = monitor.observe(&canary_name, &primary);
        match canary::decide(&cfg, &obs) {
            CanaryDecision::Continue => {}
            CanaryDecision::Promote => {
                match faults::check(faults::SITE_CANARY_PROMOTE) {
                    Some(faults::Fault::StallMs(ms)) => {
                        std::thread::sleep(Duration::from_millis(ms))
                    }
                    Some(_) => continue,
                    None => {}
                }
                if let Some(ev) = registry.promote_canary(&primary) {
                    stats.canary_promotions.fetch_add(1, Ordering::Relaxed);
                    events.push(ev);
                }
            }
            CanaryDecision::Rollback(reason) => {
                if let Some(ev) = registry.rollback_canary(&primary, reason) {
                    stats.rollbacks.fetch_add(1, Ordering::Relaxed);
                    events.push(ev);
                }
            }
        }
    }
    events
}

impl Gateway {
    /// Start the fleet: one shard + supervised worker thread per
    /// `opts.workers()`. `opts` comes pre-validated from
    /// [`ServeOptions::builder`] (or `Default`), so startup cannot fail.
    pub fn start(registry: Registry, opts: ServeOptions) -> Self {
        let registry = Arc::new(registry);
        let coordinator = Arc::new(Coordinator::new(
            opts.workers(),
            opts.max_queue_depth(),
            opts.high_water(),
        ));
        let stats = Arc::new(FleetStats::default());
        let monitor = Arc::new(Monitor::new(opts.shadow_ewma_window, opts.replay_capacity));
        let workers = coordinator
            .shards()
            .iter()
            .map(|shard| {
                let ctx = WorkerCtx {
                    registry: registry.clone(),
                    shard: shard.clone(),
                    stats: stats.clone(),
                    monitor: monitor.clone(),
                    max_batch: opts.max_batch(),
                    coalesce_window: opts.coalesce_window(),
                    deadline_margin: opts.deadline_margin,
                    max_restarts: opts.max_worker_restarts,
                    restart_backoff: opts.restart_backoff,
                    intra_batch_threads: opts.intra_batch_threads(),
                    pin_cores: opts.pin_cores(),
                };
                std::thread::spawn(move || supervised_worker(ctx))
            })
            .collect();
        // The control thread: every `control_interval`, evaluate active
        // canaries (promote / roll back) and, when `retune_auto` is on,
        // attempt a retune pass per primary (cheap no-op until a model's
        // replay buffer reaches `min_replay`). Canaries can be deployed at
        // any time through `gateway.registry()`, so the loop always runs;
        // an idle tick is one empty `canary_states()` read.
        let ctl = Arc::new((Mutex::new(false), Condvar::new()));
        let controller = {
            let registry = registry.clone();
            let monitor = monitor.clone();
            let stats = stats.clone();
            let ctl = ctl.clone();
            let interval = opts.control_interval;
            let retune_auto = opts.retune_auto;
            let retune_opts = opts.retune.clone();
            std::thread::spawn(move || loop {
                {
                    let stop = crate::sync::lock_unpoisoned(&ctl.0);
                    let (stop, _) = crate::sync::wait_timeout_unpoisoned(&ctl.1, stop, interval);
                    if *stop {
                        return;
                    }
                }
                canary_control_tick(&registry, &monitor, &stats);
                if retune_auto {
                    for name in registry.names() {
                        if let Ok(RetuneOutcome::Proposed { .. }) =
                            retune::propose(&registry, &monitor, &name, &retune_opts)
                        {
                            stats.retune_proposals.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
        };
        Self {
            registry,
            coordinator,
            monitor,
            workers,
            controller: Some(controller),
            ctl,
            next_id: AtomicU64::new(0),
            opts,
            stats,
        }
    }

    /// The deadline budget a request for `entry` is admitted under: the
    /// gateway-wide override, or `contract.latency_ms × deadline_slack`
    /// floored at `min_deadline`. (A per-request
    /// [`Request::deadline`] overrides both.)
    fn deadline_for(&self, entry: &DeployedModel) -> Duration {
        if let Some(d) = self.opts.deadline {
            return d;
        }
        let slack_ms = (entry.contract.latency_ms * self.opts.deadline_slack).max(0.0);
        Duration::from_secs_f64(slack_ms / 1e3).max(self.opts.min_deadline)
    }

    /// Admit one [`Request`]; returns the reply channel, which resolves
    /// to exactly one [`Outcome`].
    ///
    /// Both the model name and the input length are validated *at
    /// admission* — a malformed request must never reach (and kill) a
    /// worker. Routing tries the model's replica shards least-loaded
    /// first and fails over while queues are full.
    ///
    /// Two closed-loop hooks ride on admission, both free when unused:
    ///
    /// * **canary split** — when the target has an active canary, a
    ///   deterministic hash of the request id diverts the configured
    ///   traffic fraction to the versioned candidate
    ///   ([`Registry::canary_route`]); the request is then validated,
    ///   quantized, deadlined and routed as the *canary*, so its health
    ///   accrues under the canary's name;
    /// * **shadow sampling** — with
    ///   [`shadow_rate`](crate::ServeOptionsBuilder::shadow_rate) `= N > 0`,
    ///   every Nth admission *per model* is stamped for exact-engine
    ///   shadow execution at the worker (after its reply ships).
    pub fn submit(&self, request: Request) -> Result<Receiver<Outcome>, SubmitError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut model_name = request.model;
        let mut entry = match self.registry.get(&model_name) {
            Some(entry) => entry,
            None => return Err(SubmitError::UnknownModel(model_name)),
        };
        if self.registry.has_canaries() {
            if let Some(canary) = self.registry.canary_route(&model_name, id) {
                if let Some(candidate) = self.registry.get(&canary) {
                    model_name = canary;
                    entry = candidate;
                }
            }
        }
        let expected = entry.model.input_shape.item_len();
        let qinput = match request.payload {
            Payload::Quantized(q) => q,
            Payload::Image(img) => {
                if img.len() != expected {
                    return Err(SubmitError::InputLength {
                        expected,
                        got: img.len(),
                    });
                }
                entry.model.quantize_input(&img)
            }
        };
        if qinput.len() != expected {
            return Err(SubmitError::InputLength {
                expected,
                got: qinput.len(),
            });
        }
        let now = Instant::now();
        let budget = request
            .deadline
            .unwrap_or_else(|| self.deadline_for(&entry));
        // Every-Nth per-model sampling: deterministic, and completely off
        // the monitor (a lock-free read would still be a read) when
        // shadowing is disabled.
        let shadow = self.opts.shadow_rate > 0
            && self
                .monitor
                .stats(&model_name)
                .admitted
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(self.opts.shadow_rate as u64);
        let (tx, rx) = mpsc::channel();
        let mut queued = QueuedRequest {
            id,
            model: model_name,
            qinput,
            submitted: now,
            deadline: now + budget,
            priority: request.priority,
            reply: tx,
            shadow,
        };
        let candidates = self.coordinator.route(&queued.model, entry.replicas);
        if candidates.is_empty() {
            // Every placed shard is dead (or the fleet never had one).
            return Err(SubmitError::Closed);
        }
        let n_candidates = candidates.len();
        let mut closed = 0usize;
        for shard in candidates {
            match shard.queue.push(queued) {
                Ok(()) => {
                    shard.admitted.fetch_add(1, Ordering::Relaxed);
                    return Ok(rx);
                }
                // Full: fail over to the next-cheapest replica.
                Err(PushError::Full(full)) => queued = full.request,
                // Closed (shard abandoned between route() and push):
                // treat like a failover; all-closed means the fleet is
                // gone for this model.
                Err(PushError::Closed(c)) => {
                    closed += 1;
                    queued = c.request;
                }
                // Shed fires on the *least-loaded* replica: the whole
                // placement is past its high-water mark, and failing over
                // to a busier shard would invert shed-batch-first.
                // Degrade to a cheaper same-family design, or refuse.
                Err(PushError::Shed(shed)) => {
                    if self.opts.degrade_on_shed {
                        if let Some(cheaper) = self.registry.cheaper_same_family(&entry) {
                            let mut degraded = shed.request;
                            degraded.model = cheaper.name.clone();
                            return self.push_degraded(degraded, &cheaper, rx);
                        }
                    }
                    self.stats.shed_admission.fetch_add(1, Ordering::Relaxed);
                    return Err(SubmitError::Shed {
                        queue_depth: shed.queue_depth,
                        high_water: shed.high_water,
                    });
                }
            }
        }
        if closed == n_candidates {
            return Err(SubmitError::Closed);
        }
        Err(SubmitError::QueueFull {
            max_depth: self.opts.max_queue_depth(),
        })
    }

    /// Push a degraded reroute onto the cheaper design's own placement
    /// (least-loaded first, same failover) — bypassing the high-water
    /// mark: the request was already shed once and must not shed
    /// recursively.
    fn push_degraded(
        &self,
        mut queued: QueuedRequest,
        cheaper: &DeployedModel,
        rx: Receiver<Outcome>,
    ) -> Result<Receiver<Outcome>, SubmitError> {
        let candidates = self.coordinator.route(&cheaper.name, cheaper.replicas);
        if candidates.is_empty() {
            return Err(SubmitError::Closed);
        }
        let n_candidates = candidates.len();
        let mut closed = 0usize;
        for shard in candidates {
            match shard.queue.push_degraded(queued) {
                Ok(()) => {
                    shard.admitted.fetch_add(1, Ordering::Relaxed);
                    self.stats.degraded.fetch_add(1, Ordering::Relaxed);
                    return Ok(rx);
                }
                Err(PushError::Full(full)) => queued = full.request,
                Err(PushError::Closed(c)) => {
                    closed += 1;
                    queued = c.request;
                }
                Err(PushError::Shed(_)) => {
                    unreachable!("degraded push bypasses the high-water mark")
                }
            }
        }
        if closed == n_candidates {
            return Err(SubmitError::Closed);
        }
        Err(SubmitError::QueueFull {
            max_depth: self.opts.max_queue_depth(),
        })
    }

    /// Worker threads (= shards) this gateway started.
    pub fn workers(&self) -> usize {
        self.opts.workers()
    }

    /// Requests admitted but not yet batched, summed over shards.
    pub fn queue_depth(&self) -> usize {
        self.coordinator
            .shards()
            .iter()
            .map(|s| s.queue.len())
            .sum()
    }

    /// Largest queue depth any single shard ever observed (capacity
    /// reporting).
    pub fn queue_peak_depth(&self) -> usize {
        self.coordinator
            .shards()
            .iter()
            .map(|s| s.queue.peak_depth())
            .max()
            .unwrap_or(0)
    }

    /// The per-shard admission-queue depth bound the fleet was started
    /// with.
    pub fn queue_max_depth(&self) -> usize {
        self.opts.max_queue_depth()
    }

    /// The per-shard batch-class high-water mark in effect.
    pub fn queue_high_water(&self) -> usize {
        self.opts.high_water()
    }

    /// The registry being served (live: rollouts via
    /// [`Registry::deploy`] take effect for subsequent batches).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Snapshot of the fleet health counters.
    pub fn stats(&self) -> StatsSnapshot {
        let (shadow_runs, shadow_disagreements, shadow_failures) = self.monitor.shadow_totals();
        StatsSnapshot {
            worker_crashes: self.stats.worker_crashes.load(Ordering::Relaxed),
            worker_restarts: self.stats.worker_restarts.load(Ordering::Relaxed),
            workers_abandoned: self.stats.workers_abandoned.load(Ordering::Relaxed),
            expired: self.stats.expired.load(Ordering::Relaxed),
            shed_admission: self.stats.shed_admission.load(Ordering::Relaxed),
            shed_evicted: self
                .coordinator
                .shards()
                .iter()
                .map(|s| s.queue.shed_evicted())
                .sum(),
            degraded: self.stats.degraded.load(Ordering::Relaxed),
            closed_unserved: self.stats.closed_unserved.load(Ordering::Relaxed),
            canary_promotions: self.stats.canary_promotions.load(Ordering::Relaxed),
            rollbacks: self.stats.rollbacks.load(Ordering::Relaxed),
            retune_proposals: self.stats.retune_proposals.load(Ordering::Relaxed),
            shadow_runs,
            shadow_disagreements,
            shadow_failures,
            disagreement_rate: if shadow_runs == 0 {
                0.0
            } else {
                shadow_disagreements as f64 / shadow_runs as f64
            },
        }
    }

    /// Per-model health snapshot: resolution counters, shadow
    /// disagreement EWMA, mean latency, replay-buffer depth. Works for
    /// primaries and versioned canaries alike.
    pub fn model_health(&self, model: &str) -> ModelHealth {
        self.monitor.health(model)
    }

    /// Run one canary control pass synchronously (the background thread
    /// runs the same pass every
    /// [`control_interval`](crate::ServeOptionsBuilder::control_interval)).
    /// Returns the promote/rollback events this pass produced — tests and
    /// operators use it to step the state machine deterministically.
    pub fn canary_tick(&self) -> Vec<CanaryEvent> {
        canary_control_tick(&self.registry, &self.monitor, &self.stats)
    }

    /// Every promote/rollback event since startup, in order.
    pub fn canary_events(&self) -> Vec<CanaryEvent> {
        self.registry.canary_events()
    }

    /// Run one retune pass for `model` synchronously: drain its replay
    /// buffer, refine τ over the drifted inputs, and deploy any improved
    /// assignment **as a canary** — never a direct swap.
    pub fn retune_now(&self, model: &str) -> Result<RetuneOutcome, RetuneError> {
        let out = retune::propose(&self.registry, &self.monitor, model, &self.opts.retune)?;
        if matches!(out, RetuneOutcome::Proposed { .. }) {
            self.stats.retune_proposals.fetch_add(1, Ordering::Relaxed);
        }
        Ok(out)
    }

    /// The shard (= worker) indices `model` is placed on — chaos tests
    /// use this to aim an indexed failpoint at a canary's shard.
    pub fn placement_indices(&self, model: &str) -> Vec<usize> {
        let replicas = self.registry.get(model).and_then(|e| e.replicas);
        self.coordinator
            .placement(model, replicas)
            .iter()
            .map(|s| s.index)
            .collect()
    }

    /// Per-shard point-in-time views (routing balance, tests, benches).
    pub fn shard_snapshots(&self) -> Vec<ShardSnapshot> {
        self.coordinator
            .shards()
            .iter()
            .map(|s| s.snapshot())
            .collect()
    }

    /// Close admission without joining the workers: in-flight and queued
    /// requests still drain, but new submissions are refused with
    /// [`SubmitError::Closed`] — the first phase of a graceful shutdown.
    pub fn close_admission(&self) {
        for shard in self.coordinator.shards() {
            shard.queue.close();
        }
    }

    /// Graceful shutdown, in deterministic order: (1) close every shard —
    /// late submits get a typed [`SubmitError::Closed`]; (2) each worker
    /// keeps popping until its shard is **drained**, so every
    /// already-admitted request's reply is sent before its worker exits;
    /// (3) join the workers — in-flight batches finish and reply before
    /// the join returns; (4) resolve anything a fully-crashed fleet left
    /// behind with [`Outcome::Closed`]. No
    /// admitted request is ever dropped.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        // Stop the control thread first: a promotion racing the worker
        // join would be harmless but pointless.
        if let Some(h) = self.controller.take() {
            *crate::sync::lock_unpoisoned(&self.ctl.0) = true;
            self.ctl.1.notify_all();
            let _ = h.join();
        }
        self.close_admission();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Normally a no-op: workers drain their closed shards before
        // exiting. Non-empty only for shards whose worker exhausted its
        // restart budget — those requests still resolve (Closed), never
        // hang.
        for shard in self.coordinator.shards() {
            drain_unserved(&shard.queue, &self.stats);
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canary::{CanaryConfig, CanaryOutcome, RollbackReason};
    use crate::options::ServeOptionsBuilder;
    use crate::queue::Reply;
    use crate::registry::CostContract;
    use quantize::{
        argmax_i8, calibrate_ranges, quantize_model, BatchScratch, CompiledMasks, QuantModel,
    };
    use signif::{capture_mean_inputs, SignificanceMap, TauAssignment};

    /// One image's predicted class through the batch engine at
    /// `batch = 1` — the per-image reference batched replies must equal.
    fn predict_one(
        q: &QuantModel,
        masks: Option<&CompiledMasks>,
        image: &[f32],
        s: &mut BatchScratch,
    ) -> usize {
        q.predict_compiled_batch_scratch(&q.quantize_input(image), 1, None, masks, s)[0]
    }

    fn deployed(name: &str, tau: f64, seed: u64) -> (DeployedModel, cifar10sim::SyntheticCifar) {
        let data = cifar10sim::generate(cifar10sim::DatasetConfig::tiny(seed));
        let m = tinynn::zoo::mini_cifar(seed);
        let ranges = calibrate_ranges(&m, &data.train.take(8));
        let q = quantize_model(&m, &ranges);
        let means = capture_mean_inputs(&q, &data.train.take(8));
        let sig = SignificanceMap::compute(&q, &means);
        let masks = sig.compiled_masks_for_tau(&q, &TauAssignment::global(tau));
        let contract = CostContract {
            cycles: 1,
            latency_ms: 0.1,
            energy_mj: 0.001,
            flash_bytes: 1024,
        };
        (DeployedModel::from_parts(name, q, masks, contract), data)
    }

    /// Unwrap the Ok outcome or panic with the actual resolution.
    fn served(rx: Receiver<Outcome>) -> Reply {
        match rx.recv().expect("request resolved") {
            Outcome::Ok(reply) => reply,
            other => panic!("expected Ok outcome, got {}", other.kind()),
        }
    }

    /// Builder pre-loaded for correctness tests that are not about
    /// expiry: a debug build on a loaded test machine can take longer
    /// than the 50 ms default deadline floor to run a batch, so pin a
    /// generous deadline.
    fn lenient() -> ServeOptionsBuilder {
        ServeOptions::builder().deadline(Duration::from_secs(60))
    }

    #[test]
    fn serves_batches_bit_exact_with_per_image_path() {
        let (dm, data) = deployed("m", 0.01, 91);
        let q = dm.model.clone();
        let masks = dm.masks.clone();
        let reg = Registry::new();
        reg.deploy(dm).unwrap();
        let gw = Gateway::start(
            reg,
            lenient().max_batch(4).workers(1).build().expect("opts"),
        );
        let mut rxs = Vec::new();
        for i in 0..10 {
            rxs.push(
                gw.submit(Request::image("m", data.test.image(i)))
                    .expect("submit"),
            );
        }
        let mut scratch = BatchScratch::for_model(&q, 1);
        for (i, rx) in rxs.into_iter().enumerate() {
            let reply = served(rx);
            let want = predict_one(&q, Some(&masks), data.test.image(i), &mut scratch);
            assert_eq!(reply.predicted, want, "request {i}");
            assert!(reply.batch_size >= 1 && reply.batch_size <= 4);
            assert_eq!(reply.model, "m");
        }
        // Shadowing is strictly opt-in: nothing ran the exact engine.
        assert_eq!(gw.stats().shadow_runs, 0);
        gw.shutdown();
    }

    /// The opt-in intra-batch pool through a *live* fleet (gateway →
    /// worker → `BatchPool`), with best-effort core pinning on: replies
    /// stay bit-exact with the serial per-image path. Guards the worker
    /// wiring (pool lifetime, `set_pool` on every per-model scratch), not
    /// just the executor — the executor's own equivalence lives in
    /// `tests/parallel_batch.rs`.
    #[test]
    fn serves_bit_exact_with_intra_batch_pool_and_pinning() {
        let (dm, data) = deployed("m", 0.01, 91);
        let q = dm.model.clone();
        let masks = dm.masks.clone();
        let reg = Registry::new();
        reg.deploy(dm).unwrap();
        let gw = Gateway::start(
            reg,
            lenient()
                .max_batch(6)
                .workers(1)
                .intra_batch_threads(2)
                .pin_cores(true)
                .build()
                .expect("opts"),
        );
        let mut rxs = Vec::new();
        for i in 0..12 {
            rxs.push(
                gw.submit(Request::image("m", data.test.image(i)))
                    .expect("submit"),
            );
        }
        let mut scratch = BatchScratch::for_model(&q, 1);
        for (i, rx) in rxs.into_iter().enumerate() {
            let reply = served(rx);
            let want = predict_one(&q, Some(&masks), data.test.image(i), &mut scratch);
            assert_eq!(reply.predicted, want, "request {i}");
        }
        assert_eq!(gw.stats().worker_crashes, 0);
        gw.shutdown();
    }

    #[test]
    fn shadow_sampling_is_every_nth_per_model_and_invisible_to_replies() {
        // An unmasked deployment: the approximate path *is* the exact
        // path, so every shadow comparison must agree — the test pins the
        // sampling cadence and the zero-disagreement bookkeeping.
        let data = cifar10sim::generate(cifar10sim::DatasetConfig::tiny(82));
        let m = tinynn::zoo::mini_cifar(82);
        let ranges = calibrate_ranges(&m, &data.train.take(8));
        let q = quantize_model(&m, &ranges);
        let n_convs = q.conv_indices().len();
        let reg = Registry::new();
        reg.deploy(DeployedModel::from_parts(
            "m",
            q,
            quantize::CompiledMasks::none(n_convs),
            CostContract {
                cycles: 1,
                latency_ms: 0.1,
                energy_mj: 0.001,
                flash_bytes: 1024,
            },
        ))
        .unwrap();
        let gw = Gateway::start(
            reg,
            lenient().workers(1).shadow_rate(2).build().expect("opts"),
        );
        let rxs: Vec<_> = (0..8)
            .map(|i| {
                gw.submit(Request::image("m", data.test.image(i)))
                    .expect("ok")
            })
            .collect();
        for rx in rxs {
            served(rx);
        }
        // Shadows run after replies ship; give the worker a moment to
        // finish the exact passes (bounded poll, not a fixed sleep).
        let deadline = Instant::now() + Duration::from_secs(30);
        while gw.stats().shadow_runs < 4 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let s = gw.stats();
        assert_eq!(s.shadow_runs, 4, "admissions 0,2,4,6 of 8 are sampled");
        assert_eq!(s.shadow_disagreements, 0);
        assert_eq!(s.shadow_failures, 0);
        assert_eq!(s.disagreement_rate, 0.0);
        let h = gw.model_health("m");
        assert_eq!(h.shadow_runs, 4);
        assert_eq!(h.replay_len, 0, "agreeing shadows never queue replay");
        gw.shutdown();
    }

    #[test]
    fn canary_promotes_after_min_samples_and_takes_over_the_name() {
        let (dm, data) = deployed("m", 0.0, 81);
        let (cand, _) = deployed("cand", 0.01, 81);
        let reg = Registry::new();
        reg.deploy(dm).unwrap();
        let gw = Gateway::start(
            reg,
            // Park the background controller so this test owns every
            // decision via canary_tick().
            lenient()
                .workers(1)
                .control_interval(Duration::from_secs(3600))
                .build()
                .expect("opts"),
        );
        let cfg = CanaryConfig {
            traffic_fraction: 1.0,
            min_samples: 8,
            ..CanaryConfig::default()
        };
        let canary = gw
            .registry()
            .deploy_canary_with("m", cand, cfg)
            .expect("deploy");
        let rxs: Vec<_> = (0..16)
            .map(|i| {
                gw.submit(Request::image("m", data.test.image(i % 8)))
                    .expect("ok")
            })
            .collect();
        for rx in rxs {
            let r = served(rx);
            assert_eq!(r.model, canary, "fraction 1.0 diverts everything");
        }
        // 16 ok samples ≥ min 8, no crashes/expiry/disagreement: promote.
        let events = gw.canary_tick();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].canary, canary);
        assert!(matches!(events[0].outcome, CanaryOutcome::Promoted));
        assert_eq!(gw.stats().canary_promotions, 1);
        assert!(gw.registry().canary_list().is_empty());
        assert_eq!(gw.canary_events().len(), 1);
        // The promoted design now serves under the primary name.
        let r = served(
            gw.submit(Request::image("m", data.test.image(0)))
                .expect("ok"),
        );
        assert_eq!(r.model, "m");
        gw.shutdown();
    }

    #[test]
    fn canary_contract_violation_rolls_back_and_primary_keeps_serving() {
        let (dm, data) = deployed("m", 0.0, 80);
        let (cand, _) = deployed("cand", 0.0, 80);
        let reg = Registry::new();
        reg.deploy(dm).unwrap();
        let gw = Gateway::start(
            reg,
            lenient()
                .workers(1)
                .control_interval(Duration::from_secs(3600))
                .build()
                .expect("opts"),
        );
        let cfg = CanaryConfig {
            traffic_fraction: 1.0,
            min_samples: 1_000_000, // never promotes in this test
            ..CanaryConfig::default()
        };
        let canary = gw
            .registry()
            .deploy_canary_with("m", cand, cfg)
            .expect("deploy");
        // Zero-deadline requests expire at the worker — charged to the
        // canary, whose contract allows zero expirations.
        let rxs: Vec<_> = (0..4)
            .map(|i| {
                gw.submit(Request::image("m", data.test.image(i)).deadline(Duration::ZERO))
                    .expect("ok")
            })
            .collect();
        for rx in rxs {
            match rx.recv().expect("resolved") {
                Outcome::Expired(e) => assert_eq!(e.model, canary),
                other => panic!("expected Expired, got {}", other.kind()),
            }
        }
        let events = gw.canary_tick();
        assert_eq!(events.len(), 1);
        assert!(matches!(
            events[0].outcome,
            CanaryOutcome::RolledBack(RollbackReason::ContractViolation)
        ));
        assert_eq!(gw.stats().rollbacks, 1);
        assert!(gw.registry().canary_list().is_empty());
        // Rollback is total: the primary serves the very next request.
        let r = served(
            gw.submit(Request::image("m", data.test.image(0)))
                .expect("ok"),
        );
        assert_eq!(r.model, "m");
        gw.shutdown();
    }

    #[test]
    fn routes_across_models() {
        let (a, data) = deployed("a", 0.0, 92);
        let (b, _) = deployed("b", 0.05, 93);
        let (qa, qb) = (a.model.clone(), b.model.clone());
        let (ma, mb) = (a.masks.clone(), b.masks.clone());
        let reg = Registry::new();
        reg.deploy(a).unwrap();
        reg.deploy(b).unwrap();
        let gw = Gateway::start(reg, lenient().build().expect("opts"));
        let img = data.test.image(0);
        let ra = gw.submit(Request::image("a", img)).expect("a");
        let rb = gw.submit(Request::image("b", img)).expect("b");
        let mut sa = BatchScratch::for_model(&qa, 1);
        let mut sb = BatchScratch::for_model(&qb, 1);
        assert_eq!(
            served(ra).predicted,
            predict_one(&qa, Some(&ma), img, &mut sa)
        );
        assert_eq!(
            served(rb).predicted,
            predict_one(&qb, Some(&mb), img, &mut sb)
        );
        gw.shutdown();
    }

    #[test]
    fn overload_sheds_with_queue_full_and_reports_peak() {
        let (dm, data) = deployed("m", 0.0, 96);
        let reg = Registry::new();
        reg.deploy(dm).unwrap();
        let gw = Gateway::start(
            reg,
            lenient()
                .max_batch(1)
                .workers(1)
                .max_queue_depth(2)
                .build()
                .expect("opts"),
        );
        assert_eq!(gw.queue_max_depth(), 2);
        // Saturate: submit far more than the worker can instantly drain;
        // either a submission sheds (QueueFull) or the worker keeps up —
        // both are valid schedules, but the peak must stay within bound.
        let mut shed = 0usize;
        let mut rxs = Vec::new();
        for i in 0..64 {
            match gw.submit(Request::image("m", data.test.image(i % 8))) {
                Ok(rx) => rxs.push(rx),
                Err(SubmitError::QueueFull { max_depth }) => {
                    assert_eq!(max_depth, 2);
                    shed += 1;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        for rx in rxs {
            served(rx);
        }
        assert!(gw.queue_peak_depth() <= 2);
        assert!(
            shed > 0 || gw.queue_peak_depth() > 0,
            "either shedding or queueing must have been observed"
        );
        gw.shutdown();
    }

    #[test]
    fn serves_gap_model_bit_exact() {
        // The GAP-headed zoo variant deploys and serves through the same
        // batched engine — the open layer set reaches ataman-serve.
        let data = cifar10sim::generate(cifar10sim::DatasetConfig::tiny(97));
        let m = tinynn::zoo::mini_cifar_gap(97);
        let ranges = calibrate_ranges(&m, &data.train.take(8));
        let q = quantize_model(&m, &ranges);
        let n_convs = q.conv_indices().len();
        let reg = Registry::new();
        reg.deploy(DeployedModel::from_parts(
            "gap",
            q.clone(),
            quantize::CompiledMasks::none(n_convs),
            CostContract {
                cycles: 1,
                latency_ms: 0.1,
                energy_mj: 0.001,
                flash_bytes: 1024,
            },
        ))
        .unwrap();
        let gw = Gateway::start(
            reg,
            lenient().max_batch(3).workers(1).build().expect("opts"),
        );
        let mut rxs = Vec::new();
        for i in 0..7 {
            rxs.push(
                gw.submit(Request::image("gap", data.test.image(i)))
                    .expect("ok"),
            );
        }
        let mut scratch = BatchScratch::for_model(&q, 1);
        for (i, rx) in rxs.into_iter().enumerate() {
            let want = predict_one(&q, None, data.test.image(i), &mut scratch);
            assert_eq!(
                want,
                argmax_i8(&q.forward_quantized(&q.quantize_input(data.test.image(i)), None))
            );
            assert_eq!(served(rx).predicted, want, "request {i}");
        }
        gw.shutdown();
    }

    #[test]
    fn serves_residual_model_bit_exact() {
        // The mini-ResNet (stash/Add segments) deploys and serves through
        // the same batched engine — the DAG-shaped ExecPlan reaches
        // ataman-serve.
        let data = cifar10sim::generate(cifar10sim::DatasetConfig::tiny(99));
        let m = tinynn::zoo::mini_resnet(99);
        let ranges = calibrate_ranges(&m, &data.train.take(8));
        let q = quantize_model(&m, &ranges);
        let n_convs = q.conv_indices().len();
        let reg = Registry::new();
        reg.deploy(DeployedModel::from_parts(
            "resnet",
            q.clone(),
            quantize::CompiledMasks::none(n_convs),
            CostContract {
                cycles: 1,
                latency_ms: 0.1,
                energy_mj: 0.001,
                flash_bytes: 1024,
            },
        ))
        .unwrap();
        let gw = Gateway::start(
            reg,
            lenient().max_batch(3).workers(1).build().expect("opts"),
        );
        let mut rxs = Vec::new();
        for i in 0..7 {
            rxs.push(
                gw.submit(Request::image("resnet", data.test.image(i)))
                    .expect("ok"),
            );
        }
        let mut scratch = BatchScratch::for_model(&q, 1);
        for (i, rx) in rxs.into_iter().enumerate() {
            let want = predict_one(&q, None, data.test.image(i), &mut scratch);
            assert_eq!(
                want,
                argmax_i8(&q.forward_quantized(&q.quantize_input(data.test.image(i)), None))
            );
            assert_eq!(served(rx).predicted, want, "request {i}");
        }
        gw.shutdown();
    }

    #[test]
    fn closed_admission_is_a_typed_error_not_a_silent_drop() {
        let (dm, data) = deployed("m", 0.0, 98);
        let reg = Registry::new();
        reg.deploy(dm).unwrap();
        let gw = Gateway::start(reg, lenient().build().expect("opts"));
        // Before closing, requests serve normally.
        let rx = gw
            .submit(Request::image("m", data.test.image(0)))
            .expect("ok");
        served(rx);
        gw.close_admission();
        // After closing, the caller gets a typed Closed — not an Ok whose
        // reply channel silently disconnects.
        let err = gw
            .submit(Request::image("m", data.test.image(1)))
            .unwrap_err();
        assert_eq!(err, SubmitError::Closed);
        gw.shutdown();
    }

    #[test]
    fn unknown_model_is_refused_at_admission() {
        let (dm, data) = deployed("m", 0.0, 94);
        let reg = Registry::new();
        reg.deploy(dm).unwrap();
        let gw = Gateway::start(reg, ServeOptions::default());
        let err = gw
            .submit(Request::image("nope", data.test.image(0)))
            .unwrap_err();
        assert_eq!(err, SubmitError::UnknownModel("nope".into()));
        gw.shutdown();
    }

    #[test]
    fn wrong_length_input_is_refused_and_workers_survive() {
        let (dm, data) = deployed("m", 0.0, 95);
        let expected = dm.model.input_shape.item_len();
        let reg = Registry::new();
        reg.deploy(dm).unwrap();
        let gw = Gateway::start(reg, lenient().build().expect("opts"));
        let err = gw
            .submit(Request::quantized("m", vec![0i8; 7]))
            .unwrap_err();
        assert_eq!(err, SubmitError::InputLength { expected, got: 7 });
        // A wrong-length raw image is refused before quantization, too.
        let err = gw.submit(Request::image("m", &[0.5f32; 3])).unwrap_err();
        assert_eq!(err, SubmitError::InputLength { expected, got: 3 });
        // The worker never saw the malformed requests and keeps serving.
        let rx = gw
            .submit(Request::image("m", data.test.image(0)))
            .expect("ok");
        served(rx);
        gw.shutdown();
    }

    #[test]
    fn shutdown_drains_admitted_requests_then_joins() {
        // The drain-then-join contract: every request admitted before
        // shutdown() resolves Ok — workers keep popping their closed
        // shards until empty, and the join waits for the last in-flight
        // batch's replies. No reply may be lost to the shutdown race
        // (batch popped before close, replies sent after).
        let (dm, data) = deployed("m", 0.0, 90);
        let reg = Registry::new();
        reg.deploy(dm).unwrap();
        let gw = Gateway::start(
            reg,
            // This test pins the drain contract, not expiry: debug builds
            // are slow enough that 32 queued requests can blow through
            // the default 50 ms deadline floor.
            ServeOptions::builder()
                .max_batch(4)
                .workers(2)
                .deadline(Duration::from_secs(60))
                .build()
                .expect("opts"),
        );
        let rxs: Vec<_> = (0..32)
            .map(|i| {
                gw.submit(Request::image("m", data.test.image(i % 8)))
                    .expect("submit")
            })
            .collect();
        // Shut down immediately: most requests are still queued or
        // mid-batch when close() lands.
        gw.shutdown();
        let mut ok = 0;
        for rx in rxs {
            match rx.recv().expect("no reply may be dropped by shutdown") {
                Outcome::Ok(_) => ok += 1,
                other => panic!("drained request resolved {}", other.kind()),
            }
        }
        assert_eq!(ok, 32, "every admitted request drains to Ok");
    }

    #[test]
    fn replies_carry_queued_and_exec_breakdown() {
        let (dm, data) = deployed("m", 0.0, 89);
        let reg = Registry::new();
        reg.deploy(dm).unwrap();
        let gw = Gateway::start(reg, lenient().build().expect("opts"));
        let reply = served(
            gw.submit(Request::image("m", data.test.image(0)))
                .expect("ok"),
        );
        assert!(reply.exec_us > 0, "kernel time must be observable");
        let total_us = reply.latency.as_micros() as u64;
        assert!(
            total_us >= reply.exec_us,
            "end-to-end latency ({total_us} µs) covers exec ({} µs)",
            reply.exec_us
        );
        assert!(
            total_us + 1000 >= reply.queued_us + reply.exec_us,
            "breakdown must not exceed total latency (plus clock slop)"
        );
        gw.shutdown();
    }

    #[test]
    fn zero_deadline_expires_requests_instead_of_running_them() {
        // A deadline that is already unreachable at admission resolves
        // Expired at the worker — deterministic, no fault injection
        // needed. Exercises the *per-request* deadline override.
        let (dm, data) = deployed("m", 0.0, 88);
        let reg = Registry::new();
        reg.deploy(dm).unwrap();
        let gw = Gateway::start(reg, ServeOptions::default());
        let rxs: Vec<_> = (0..4)
            .map(|i| {
                gw.submit(Request::image("m", data.test.image(i)).deadline(Duration::ZERO))
                    .expect("ok")
            })
            .collect();
        for rx in rxs {
            match rx.recv().expect("resolved") {
                Outcome::Expired(e) => {
                    assert_eq!(e.model, "m");
                    assert!(e.waited >= e.overdue);
                }
                other => panic!("expected Expired, got {}", other.kind()),
            }
        }
        assert_eq!(gw.stats().expired, 4);
        gw.shutdown();
    }

    #[test]
    fn contract_derived_deadlines_respect_slack_and_floor() {
        let (dm, data) = deployed("m", 0.0, 87);
        let reg = Registry::new();
        reg.deploy(dm).unwrap();
        // Contract latency 0.1 ms × slack 8 = 0.8 ms, floored at the
        // minimum: the floor keeps normally-served requests from expiring.
        // (Floor raised well above the 50 ms default so a loaded debug
        // test machine still exercises the "never expires" contract.)
        let gw = Gateway::start(
            reg,
            ServeOptions::builder()
                .min_deadline(Duration::from_secs(60))
                .build()
                .expect("opts"),
        );
        let rxs: Vec<_> = (0..8)
            .map(|i| {
                gw.submit(Request::image("m", data.test.image(i)))
                    .expect("ok")
            })
            .collect();
        for rx in rxs {
            served(rx);
        }
        assert_eq!(gw.stats().expired, 0);
        gw.shutdown();
    }

    #[test]
    fn rollout_during_serving_switches_later_batches() {
        // The live registry: replacing a name mid-serve is safe (in-flight
        // batches keep their snapshot) and later requests run the new
        // design.
        let (dm, data) = deployed("m", 0.0, 86);
        let (replacement, _) = deployed("m", 0.3, 86);
        let reg = Registry::new();
        reg.deploy(dm).unwrap();
        let gw = Gateway::start(reg, lenient().build().expect("opts"));
        served(
            gw.submit(Request::image("m", data.test.image(0)))
                .expect("ok"),
        );
        let old = gw
            .registry()
            .deploy(replacement)
            .unwrap()
            .expect("previous design");
        assert_eq!(old.name, "m");
        served(
            gw.submit(Request::image("m", data.test.image(1)))
                .expect("ok"),
        );
        gw.shutdown();
    }

    #[test]
    fn same_name_rollout_serves_the_new_weights() {
        // A worker's scratch bakes in its model's dense weight streams, so
        // a rollout that installs *different weights* under the same name
        // must not keep serving the old ones — exact designs run every
        // layer through those streams, which makes staleness visible.
        let exact = |seed: u64| {
            let data = cifar10sim::generate(cifar10sim::DatasetConfig::tiny(seed));
            let m = tinynn::zoo::mini_cifar(seed);
            let ranges = calibrate_ranges(&m, &data.train.take(8));
            let q = quantize_model(&m, &ranges);
            let masks = CompiledMasks::none(q.conv_indices().len());
            let contract = CostContract {
                cycles: 1,
                latency_ms: 0.1,
                energy_mj: 0.001,
                flash_bytes: 1024,
            };
            (DeployedModel::from_parts("m", q, masks, contract), data)
        };
        let (old, data) = exact(86);
        let (new, _) = exact(87);
        let q = new.model.clone();
        let reg = Registry::new();
        reg.deploy(old).unwrap();
        let gw = Gateway::start(reg, lenient().workers(1).build().expect("opts"));
        // Warm the worker's scratch on the old weights.
        served(
            gw.submit(Request::image("m", data.test.image(0)))
                .expect("ok"),
        );
        gw.registry().deploy(new).unwrap();
        let rxs: Vec<_> = (0..32)
            .map(|i| {
                gw.submit(Request::image("m", data.test.image(i)))
                    .expect("ok")
            })
            .collect();
        for (i, rx) in rxs.into_iter().enumerate() {
            let qin = q.quantize_input(data.test.image(i));
            let want = argmax_i8(&q.forward_quantized(&qin, None));
            assert_eq!(served(rx).predicted, want, "request {i}");
        }
        gw.shutdown();
    }

    #[test]
    fn skewed_traffic_starves_no_shard_and_balances_batches() {
        // Least-loaded routing under skew: 7/8 of traffic targets one
        // model, 1/8 another, both placed on every shard. Every shard
        // must see work (no starvation) and per-shard admission counts
        // must stay within a loose balance bound — the rotating tie-break
        // plus load ordering forbids one shard absorbing everything.
        let (hot, data) = deployed("hot", 0.0, 84);
        let (cold, _) = deployed("cold", 0.05, 85);
        let reg = Registry::new();
        reg.deploy(hot).unwrap();
        reg.deploy(cold).unwrap();
        let workers = 4usize;
        let gw = Gateway::start(
            reg,
            lenient()
                .max_batch(4)
                .workers(workers)
                .build()
                .expect("opts"),
        );
        let total = 256usize;
        let mut rxs = Vec::with_capacity(total);
        for i in 0..total {
            let model = if i % 8 == 7 { "cold" } else { "hot" };
            rxs.push(
                gw.submit(Request::image(model, data.test.image(i % 8)))
                    .expect("submit"),
            );
        }
        for rx in rxs {
            served(rx);
        }
        let snaps = gw.shard_snapshots();
        gw.shutdown();
        assert_eq!(snaps.len(), workers);
        let admitted: Vec<u64> = snaps.iter().map(|s| s.admitted).collect();
        let batches: Vec<u64> = snaps.iter().map(|s| s.batches).collect();
        assert_eq!(admitted.iter().sum::<u64>(), total as u64);
        // No shard starves: each one admitted a meaningful share…
        let floor = (total / (workers * 8)) as u64;
        for (i, &a) in admitted.iter().enumerate() {
            assert!(
                a >= floor,
                "shard {i} starved: admitted {admitted:?} (floor {floor})"
            );
        }
        // …and each one actually popped batches for what it admitted.
        for (i, &b) in batches.iter().enumerate() {
            assert!(b >= 1, "shard {i} popped no batches: {batches:?}");
        }
        // Balance bound: the busiest shard may not exceed the fleet mean
        // by more than 3× — least-loaded routing must spread the skew.
        let mean = total as f64 / workers as f64;
        let max = *admitted.iter().max().expect("non-empty") as f64;
        assert!(
            max <= mean * 3.0,
            "routing imbalance: max {max} vs mean {mean:.1} ({admitted:?})"
        );
    }

    #[test]
    fn replica_pinned_model_only_lands_on_its_placement() {
        let (dm, data) = deployed("pinned", 0.0, 83);
        let reg = Registry::new();
        reg.deploy(dm.with_replicas(2)).unwrap();
        let workers = 4usize;
        let gw = Gateway::start(
            reg,
            lenient()
                .max_batch(4)
                .workers(workers)
                .build()
                .expect("opts"),
        );
        let mut rxs = Vec::new();
        for i in 0..64 {
            rxs.push(
                gw.submit(Request::image("pinned", data.test.image(i % 8)))
                    .expect("submit"),
            );
        }
        for rx in rxs {
            served(rx);
        }
        let snaps = gw.shard_snapshots();
        gw.shutdown();
        let used: Vec<usize> = snaps
            .iter()
            .filter(|s| s.admitted > 0)
            .map(|s| s.index)
            .collect();
        assert_eq!(
            used.len(),
            2,
            "a 2-replica model must use exactly its 2 placed shards, used {used:?}"
        );
    }
}
