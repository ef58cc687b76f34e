//! The worker: one thread, one shard, no shared mutable batch state.
//!
//! Each worker owns exactly one `Shard` —
//! it is the only thread that pops the shard's queue, and its scratch
//! arenas (one [`BatchScratch`] per deployed model, rebuilt when a rollout
//! installs new weights under the same name) live on its own stack, so the
//! execution path shares nothing mutable with the rest of the fleet. PR 6's failure domains all live *per shard*:
//!
//! * **deadlines** — requests that cannot finish inside their budget
//!   resolve [`Outcome::Expired`] before burning this worker's time;
//! * **unwind boundary** — a panicking kernel fails exactly one batch
//!   with typed [`Outcome::WorkerCrashed`] replies;
//! * **supervision** — the supervisor restarts a crashed worker with
//!   bounded attempts and exponential backoff; an abandoned worker
//!   closes and drains *its own shard only* (requests resolve
//!   [`Outcome::Closed`]) and flips the shard dead so the coordinator
//!   routes around it — the rest of the fleet keeps serving.
//!
//! Fault injection: each worker checks the fleet-wide
//! [`faults::SITE_WORKER_EXEC`] site *and* its indexed form
//! (`faults::site_at(SITE_WORKER_EXEC, index)`), so chaos tests can kill
//! one worker of N deterministically.
//!
//! **Shadow execution** (closed accuracy loop): requests stamped
//! `shadow` at the gateway are, *after their serving replies ship*, also
//! run through the exact (unmasked) engine on this worker — the serving
//! scratch at `batch = 1` without masks. Prediction
//! disagreement feeds the per-model health monitor and the retune replay
//! buffer; a shadow failure (panic at `shadow.exec`, or a genuine exact-
//! engine crash) is counted and swallowed — it can never touch a serving
//! reply or crash the worker.

use crate::coordinator::Shard;
use crate::faults;
use crate::gateway::FleetStats;
use crate::monitor::{Monitor, ReplaySample};
use crate::queue::{AdmissionQueue, Crashed, Expired, Outcome, Reply, Unserved};
use crate::registry::Registry;
use quantize::{BatchPool, BatchScratch, QuantModel};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything one worker supervisor needs, bundled for the thread spawn.
pub(crate) struct WorkerCtx {
    pub(crate) registry: Arc<Registry>,
    pub(crate) shard: Arc<Shard>,
    pub(crate) stats: Arc<FleetStats>,
    pub(crate) monitor: Arc<Monitor>,
    pub(crate) max_batch: usize,
    pub(crate) coalesce_window: Duration,
    /// Static floor under the EWMA execution-time margin.
    pub(crate) deadline_margin: Duration,
    pub(crate) max_restarts: u32,
    pub(crate) restart_backoff: Duration,
    /// Threads of the per-worker intra-batch pool (1 = serial, no pool).
    pub(crate) intra_batch_threads: usize,
    /// Request best-effort core pinning for this shard thread.
    pub(crate) pin_cores: bool,
}

/// Resolve every still-queued request with [`Outcome::Closed`].
pub(crate) fn drain_unserved(queue: &AdmissionQueue, stats: &FleetStats) {
    while let Some(batch) = queue.try_next_batch(crate::queue::DEFAULT_MAX_DEPTH) {
        for r in batch.requests {
            stats.closed_unserved.fetch_add(1, Ordering::Relaxed);
            let _ = r.reply.send(Outcome::Closed(Unserved {
                id: r.id,
                model: r.model,
            }));
        }
    }
}

/// Trip an armed failpoint (no-op without the `failpoints` feature). Each
/// worker hits the fleet-wide site and its own indexed site.
#[inline]
fn apply_fault(site: &str, index: usize) {
    for fault in [faults::check(site), faults::check_at(site, index)] {
        match fault {
            Some(faults::Fault::Panic) => panic!("injected fault: panic at {site}#{index}"),
            Some(faults::Fault::StallMs(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            Some(faults::Fault::QueueFull) | None => {}
        }
    }
}

/// How one run of the worker loop ended.
enum WorkerExit {
    /// Shard queue closed and drained: clean exit.
    Drained,
    /// A batch panicked at the unwind boundary: the batch's requests were
    /// resolved [`Outcome::WorkerCrashed`]; worker state is presumed
    /// corrupt and discarded.
    Crashed,
}

/// The supervisor: runs the worker loop, restarting it after crashes with
/// exponential backoff until the restart budget is exhausted. Every
/// restart gets a fresh scratch state (a panicking kernel may have left
/// per-model scratches inconsistent). Abandonment closes and drains this
/// worker's shard only — the fleet keeps serving on the others.
pub(crate) fn supervised_worker(ctx: WorkerCtx) {
    if ctx.pin_cores {
        // Best-effort: a refused pin (restricted cpuset, non-Linux) just
        // leaves this shard thread floating.
        let _ = crate::affinity::pin_current_thread(ctx.shard.index);
    }
    let mut restarts = 0u32;
    loop {
        match worker_run(&ctx) {
            WorkerExit::Drained => break,
            WorkerExit::Crashed => {
                ctx.stats.worker_crashes.fetch_add(1, Ordering::Relaxed);
                if restarts >= ctx.max_restarts {
                    ctx.stats.workers_abandoned.fetch_add(1, Ordering::Relaxed);
                    // This shard is dead: stop routing to it, refuse late
                    // pushes, and resolve every waiter with Closed so no
                    // admitted request ever hangs on an abandoned shard.
                    ctx.shard.alive.store(false, Ordering::Relaxed);
                    ctx.shard.queue.close();
                    drain_unserved(&ctx.shard.queue, &ctx.stats);
                    return;
                }
                restarts += 1;
                ctx.stats.worker_restarts.fetch_add(1, Ordering::Relaxed);
                let exp = (restarts - 1).min(6);
                std::thread::sleep(ctx.restart_backoff * (1u32 << exp));
            }
        }
    }
    ctx.shard.alive.store(false, Ordering::Relaxed);
}

/// One life of a worker: drain batches from its shard until the queue
/// closes (Drained) or a batch panics (Crashed). One reusable
/// [`BatchScratch`] per deployed model snapshot; replies carry the
/// queued/exec latency breakdown and the ride-along batch size.
fn worker_run(ctx: &WorkerCtx) -> WorkerExit {
    // The intra-batch pool lives one worker life: a crash discards it
    // with the scratches (its threads park between batches, so an idle
    // pool costs nothing). `threads == 1` skips pool creation entirely —
    // the serial path is untouched.
    let pool = (ctx.intra_batch_threads > 1).then(|| BatchPool::new(ctx.intra_batch_threads));
    // Keyed by name, tagged with the model snapshot the scratch was built
    // for: a scratch bakes in its model's dense weight streams.
    let mut scratches: HashMap<String, (Arc<QuantModel>, BatchScratch)> = HashMap::new();
    // EWMA of observed batch execution time: the deadline margin — a
    // request whose remaining slack is below the expected execution time
    // would expire mid-flight, so it is expired up front instead. The
    // configured deadline_margin is a static floor under the estimate.
    let mut ewma_exec_us: f64 = 0.0;
    loop {
        let margin = Duration::from_micros(ewma_exec_us as u64).max(ctx.deadline_margin);
        let Some(batch) =
            ctx.shard
                .queue
                .next_batch_deadline(ctx.max_batch, ctx.coalesce_window, margin)
        else {
            return WorkerExit::Drained;
        };
        let popped = Instant::now();
        let n_popped = batch.requests.len();
        ctx.shard.in_flight.fetch_add(n_popped, Ordering::Relaxed);
        ctx.shard.batches.fetch_add(1, Ordering::Relaxed);
        // Submit validated the name; a rollout cannot unregister, only
        // replace, so the lookup holds. If that invariant ever breaks,
        // resolve the batch instead of panicking the worker — every popped
        // request still gets its one terminal outcome.
        let Some(entry) = ctx.registry.get(&batch.model) else {
            for r in batch.requests {
                ctx.shard.in_flight.fetch_sub(1, Ordering::Relaxed);
                let _ = r.reply.send(Outcome::Closed(Unserved {
                    id: r.id,
                    model: r.model,
                }));
            }
            continue;
        };
        let health = ctx.monitor.stats(&batch.model);
        // Deadline enforcement: anything that cannot finish inside its
        // deadline resolves Expired now, without burning worker time.
        let mut live = Vec::with_capacity(batch.requests.len());
        for r in batch.requests {
            if popped + margin >= r.deadline {
                ctx.stats.expired.fetch_add(1, Ordering::Relaxed);
                health.expired.fetch_add(1, Ordering::Relaxed);
                ctx.shard.in_flight.fetch_sub(1, Ordering::Relaxed);
                let _ = r.reply.send(Outcome::Expired(Expired {
                    id: r.id,
                    model: r.model,
                    overdue: popped.saturating_duration_since(r.deadline),
                    waited: popped.saturating_duration_since(r.submitted),
                }));
            } else {
                live.push(r);
            }
        }
        if live.is_empty() {
            continue;
        }
        let n = live.len();
        let in_len = entry.model.input_shape.item_len();
        let fresh_scratch = || {
            let mut s = BatchScratch::for_model(&entry.model, ctx.max_batch);
            s.set_pool(pool.clone());
            (Arc::clone(&entry.model), s)
        };
        let cached = scratches
            .entry(batch.model.clone())
            .or_insert_with(fresh_scratch);
        // A rollout (deploy, canary promotion) that installs new weights
        // under the same name must not run on the old model's streams.
        if !Arc::ptr_eq(&cached.0, &entry.model) {
            *cached = fresh_scratch();
        }
        let scratch = &mut cached.1;
        let mut flat = Vec::with_capacity(n * in_len);
        for r in &live {
            // Admission validated the length; this is defense in depth.
            debug_assert_eq!(r.qinput.len(), in_len, "request input length mismatch");
            flat.extend_from_slice(&r.qinput);
        }
        // No conv0 column cache here: serving consumes each batch once, so
        // precomputing columns into fresh Vecs is pure allocator traffic —
        // the batched core fills the reusable scratch buffers instead.
        //
        // The unwind boundary: a panic inside the kernel (or an injected
        // fault) fails exactly this batch. Requests stay outside the
        // closure, so their replies are always sent — WorkerCrashed on
        // panic, Ok otherwise.
        let exec_t0 = Instant::now();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            apply_fault(faults::SITE_WORKER_EXEC, ctx.shard.index);
            entry
                .model
                .predict_compiled_batch_scratch(&flat, n, None, Some(&entry.masks), scratch)
        }));
        let preds = match result {
            Ok(preds) => preds,
            Err(_) => {
                health
                    .crashed
                    .fetch_add(live.len() as u64, Ordering::Relaxed);
                for r in live {
                    ctx.shard.in_flight.fetch_sub(1, Ordering::Relaxed);
                    let _ = r.reply.send(Outcome::WorkerCrashed(Crashed {
                        id: r.id,
                        model: r.model,
                        batch_size: n,
                    }));
                }
                return WorkerExit::Crashed;
            }
        };
        let exec_us = exec_t0.elapsed().as_micros() as u64;
        ewma_exec_us = if ewma_exec_us == 0.0 {
            exec_us as f64
        } else {
            0.7 * ewma_exec_us + 0.3 * exec_us as f64
        };
        let now = Instant::now();
        health.ok.fetch_add(preds.len() as u64, Ordering::Relaxed);
        // Shadow-sampled requests: remember (input, approx prediction)
        // before the requests are consumed by the reply loop. The clones
        // happen only for sampled requests — zero cost at shadow_rate 0.
        let mut shadows: Vec<(Vec<i8>, usize)> = Vec::new();
        for (r, pred) in live.into_iter().zip(preds) {
            ctx.shard.in_flight.fetch_sub(1, Ordering::Relaxed);
            health.latency_us_sum.fetch_add(
                now.duration_since(r.submitted).as_micros() as u64,
                Ordering::Relaxed,
            );
            if r.shadow {
                shadows.push((r.qinput.clone(), pred));
            }
            // A client that dropped its receiver just misses its reply.
            let _ = r.reply.send(Outcome::Ok(Reply {
                id: r.id,
                model: batch.model.clone(),
                predicted: pred,
                batch_size: n,
                latency: now.duration_since(r.submitted),
                queued_us: popped.saturating_duration_since(r.submitted).as_micros() as u64,
                exec_us,
            }));
        }
        // Shadow execution runs strictly after the serving replies ship:
        // the exact engine's cost and failures are invisible to clients.
        for (qinput, approx_pred) in shadows {
            let scratch = &mut scratches
                .entry(batch.model.clone())
                .or_insert_with(fresh_scratch)
                .1;
            let exact = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                apply_fault(faults::SITE_SHADOW_EXEC, ctx.shard.index);
                // masks = None: the exact (unmasked) engine.
                entry
                    .model
                    .predict_compiled_batch_scratch(&qinput, 1, None, None, scratch)[0]
            }));
            match exact {
                Ok(exact_pred) => {
                    let disagreed = exact_pred != approx_pred;
                    // Disagreeing inputs are replayed by retune as f32
                    // images labeled with the exact prediction.
                    let sample = disagreed.then(|| ReplaySample {
                        image: qinput
                            .iter()
                            .map(|&q| entry.model.input_qp.dequantize(q))
                            .collect(),
                        label: exact_pred as u8,
                    });
                    ctx.monitor.record_shadow(&batch.model, disagreed, sample);
                }
                Err(_) => {
                    // A panicked shadow may have poisoned the model's
                    // scratch: drop it so the next use rebuilds it; the
                    // serving reply already shipped.
                    scratches.remove(&batch.model);
                    ctx.monitor.record_shadow_failure(&batch.model);
                }
            }
        }
    }
}
