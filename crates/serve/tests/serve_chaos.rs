//! Chaos suite: deterministic fault injection against the serving fleet
//! (`--features failpoints`; compiled out of production builds).
//!
//! The invariant under test everywhere: **no reply is ever dropped** —
//! every submitted request resolves to exactly one typed
//! [`Outcome`] (`Ok | Expired | Shed | WorkerCrashed | Closed`) or a typed
//! [`SubmitError`], under injected panics, stalls, queue-full storms,
//! single-worker kills in a multi-worker fleet, and shutdown races.
//!
//! Fault sites are process-global, so tests serialize on [`chaos_lock`];
//! injection plans are seeded and the assertions are schedule-robust
//! (outcome counts, not request-to-fire pinning).

use ataman_serve::faults::{self, Fault};
use ataman_serve::{
    CanaryConfig, CanaryOutcome, CostContract, DeployedModel, Gateway, LoadGenConfig, Outcome,
    Priority, Registry, Request, RetuneError, RetuneOptions, RollbackReason, ServeOptions,
    SubmitError,
};
use quantize::{calibrate_ranges, quantize_model, BatchScratch, CompiledMasks};
use signif::{capture_mean_inputs, SignificanceMap, TauAssignment};
use std::sync::{Mutex, MutexGuard, Once};
use std::time::{Duration, Instant};

/// Serializes chaos tests (fault sites are process-global) and quiets the
/// default panic hook for *injected* panics so expected crashes don't spam
/// the test log.
fn chaos_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    static QUIET_HOOK: Once = Once::new();
    QUIET_HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("injected fault"));
            if !injected {
                default(info);
            }
        }));
    });
    // A previous test panicking while holding the lock must not cascade.
    let guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    faults::reset();
    guard
}

fn contract(latency_ms: f64) -> CostContract {
    CostContract {
        cycles: 1,
        latency_ms,
        energy_mj: 0.001,
        flash_bytes: 1024,
    }
}

/// A deployable mini_cifar plus a handful of quantized test inputs.
fn model_and_inputs(name: &str, seed: u64, latency_ms: f64) -> (DeployedModel, Vec<Vec<i8>>) {
    let data = cifar10sim::generate(cifar10sim::DatasetConfig::tiny(seed));
    let m = tinynn::zoo::mini_cifar(seed);
    let ranges = calibrate_ranges(&m, &data.train.take(8));
    let q = quantize_model(&m, &ranges);
    let n_convs = q.conv_indices().len();
    let inputs: Vec<Vec<i8>> = (0..8)
        .map(|i| q.quantize_input(data.test.image(i)))
        .collect();
    (
        DeployedModel::from_parts(name, q, CompiledMasks::none(n_convs), contract(latency_ms)),
        inputs,
    )
}

#[test]
fn every_submit_resolves_exactly_once_under_injected_panics() {
    let _guard = chaos_lock();
    let (dm, inputs) = model_and_inputs("m", 11, 0.1);
    let reg = Registry::new();
    reg.deploy(dm).unwrap();
    let gw = Gateway::start(
        reg,
        ServeOptions::builder()
            .max_batch(4)
            .workers(2)
            .deadline(Duration::from_secs(10))
            .max_worker_restarts(8)
            .restart_backoff(Duration::from_millis(1))
            .build()
            .expect("opts"),
    );
    // The first 5 batch executions panic; everything after serves.
    faults::arm(faults::SITE_WORKER_EXEC, Fault::Panic, 1.0, 42, Some(5));
    let rxs: Vec<_> = (0..64)
        .map(|i| {
            gw.submit(Request::quantized("m", inputs[i % inputs.len()].clone()))
                .expect("admission open")
        })
        .collect();
    let mut ok = 0usize;
    let mut crashed = 0usize;
    for rx in &rxs {
        match rx.recv().expect("exactly one outcome — never a drop") {
            Outcome::Ok(_) => ok += 1,
            Outcome::WorkerCrashed(c) => {
                assert!(c.batch_size >= 1 && c.batch_size <= 4);
                crashed += 1;
            }
            other => panic!("unexpected outcome {}", other.kind()),
        }
        // Exactly once: the channel must now be dead, not holding a
        // second resolution.
        assert!(rx.try_recv().is_err(), "a request resolved twice");
    }
    assert_eq!(ok + crashed, 64, "conservation of outcomes");
    assert!(
        (5..=20).contains(&crashed),
        "5 crashed batches of 1..=4 requests, got {crashed}"
    );
    assert_eq!(faults::fires(faults::SITE_WORKER_EXEC), 5);
    let stats = gw.stats();
    assert_eq!(stats.worker_crashes, 5);
    assert_eq!(stats.worker_restarts, 5, "every crash got a restart");
    assert_eq!(stats.workers_abandoned, 0);
    gw.shutdown();
    faults::reset();
}

#[test]
fn exhausted_restart_budget_abandons_fleet_and_drains_closed() {
    let _guard = chaos_lock();
    let (dm, inputs) = model_and_inputs("m", 12, 0.1);
    let reg = Registry::new();
    reg.deploy(dm).unwrap();
    let gw = Gateway::start(
        reg,
        ServeOptions::builder()
            .max_batch(1)
            .workers(1)
            .deadline(Duration::from_secs(10))
            .max_worker_restarts(2)
            .restart_backoff(Duration::from_millis(1))
            .build()
            .expect("opts"),
    );
    // Every execution panics: the single worker crashes, restarts twice,
    // crashes a third time and is abandoned — which must close its shard
    // and resolve every leftover request with Closed, not strand it.
    faults::arm(faults::SITE_WORKER_EXEC, Fault::Panic, 1.0, 43, None);
    let mut rxs = Vec::new();
    let mut refused_closed = 0usize;
    for i in 0..16 {
        match gw.submit(Request::quantized("m", inputs[i % inputs.len()].clone())) {
            Ok(rx) => rxs.push(rx),
            Err(SubmitError::Closed) => refused_closed += 1,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    let mut crashed = 0usize;
    let mut closed = 0usize;
    for rx in rxs {
        match rx.recv().expect("resolved even with a dead fleet") {
            Outcome::WorkerCrashed(_) => crashed += 1,
            Outcome::Closed(_) => closed += 1,
            other => panic!("unexpected outcome {}", other.kind()),
        }
    }
    // max_batch = 1: initial life + 2 restarts each crash exactly one
    // request; the abandonment drain resolves the rest.
    assert_eq!(crashed, 3, "three lives, one crashed request each");
    assert_eq!(crashed + closed + refused_closed, 16, "conservation");
    let stats = gw.stats();
    assert_eq!(stats.worker_crashes, 3);
    assert_eq!(stats.worker_restarts, 2);
    assert_eq!(stats.workers_abandoned, 1);
    assert_eq!(stats.closed_unserved as usize, closed);
    // The fleet is gone: admission stays typed-Closed.
    let err = gw
        .submit(Request::quantized("m", inputs[0].clone()))
        .expect_err("dead fleet refuses");
    assert_eq!(err, SubmitError::Closed);
    gw.shutdown();
    faults::reset();
}

#[test]
fn killing_one_worker_of_n_only_fails_its_own_shard() {
    let _guard = chaos_lock();
    let (dm, inputs) = model_and_inputs("m", 18, 0.1);
    let reg = Registry::new();
    reg.deploy(dm).unwrap();
    let workers = 3usize;
    let gw = Gateway::start(
        reg,
        ServeOptions::builder()
            .max_batch(4)
            .workers(workers)
            .deadline(Duration::from_secs(10))
            // Zero restarts: the first crash abandons the worker, so the
            // blast radius of the kill is observable immediately.
            .max_worker_restarts(0)
            .build()
            .expect("opts"),
    );
    // Kill exactly worker 1 via its *indexed* fault site: its first batch
    // panics, the supervisor abandons it, its shard closes and drains.
    // Workers 0 and 2 never trip — the fleet keeps serving.
    faults::arm_at(faults::SITE_WORKER_EXEC, 1, Fault::Panic, 1.0, 49, Some(1));
    let rxs: Vec<_> = (0..48)
        .map(|i| {
            gw.submit(Request::quantized("m", inputs[i % inputs.len()].clone()))
                .expect("admission open while at least one shard lives")
        })
        .collect();
    let mut ok = 0usize;
    let mut crashed = 0usize;
    let mut closed = 0usize;
    for rx in rxs {
        match rx.recv().expect("resolved despite the killed worker") {
            Outcome::Ok(_) => ok += 1,
            Outcome::WorkerCrashed(c) => {
                assert!(
                    c.batch_size >= 1 && c.batch_size <= 4,
                    "only the in-flight batch of the killed worker may crash"
                );
                crashed += 1;
            }
            // Requests queued on the killed worker's shard when it died:
            // resolved Closed by the abandonment drain, never stranded.
            Outcome::Closed(_) => closed += 1,
            other => panic!("unexpected outcome {}", other.kind()),
        }
    }
    assert_eq!(ok + crashed + closed, 48, "conservation of outcomes");
    assert!(
        (1..=4).contains(&crashed),
        "exactly one batch (1..=4 requests) dies with the worker, got {crashed}"
    );
    assert!(ok > 0, "the surviving shards served traffic");
    let stats = gw.stats();
    assert_eq!(stats.worker_crashes, 1, "one injected kill, one crash");
    assert_eq!(stats.workers_abandoned, 1);
    assert_eq!(stats.worker_restarts, 0);
    // Exactly one shard is dead, and the coordinator routes around it:
    // follow-up traffic admits and serves on the survivors.
    let snaps = gw.shard_snapshots();
    assert_eq!(snaps.iter().filter(|s| !s.alive).count(), 1);
    assert_eq!(snaps.iter().filter(|s| s.alive).count(), workers - 1);
    let followups: Vec<_> = (0..8)
        .map(|i| {
            gw.submit(Request::quantized("m", inputs[i % inputs.len()].clone()))
                .expect("survivors keep admitting")
        })
        .collect();
    for rx in followups {
        match rx.recv().expect("resolved") {
            Outcome::Ok(_) => {}
            other => panic!("survivor traffic resolved {}", other.kind()),
        }
    }
    gw.shutdown();
    faults::reset();
}

#[test]
fn stalled_worker_expires_queued_requests_instead_of_serving_late() {
    let _guard = chaos_lock();
    let (dm, inputs) = model_and_inputs("m", 13, 0.1);
    let reg = Registry::new();
    reg.deploy(dm).unwrap();
    let gw = Gateway::start(
        reg,
        ServeOptions::builder()
            .max_batch(1)
            .workers(1)
            .deadline(Duration::from_millis(30))
            .build()
            .expect("opts"),
    );
    // Exactly the first execution stalls 150 ms — far past the 30 ms
    // deadline of everything queued behind it.
    faults::arm(
        faults::SITE_WORKER_EXEC,
        Fault::StallMs(150),
        1.0,
        44,
        Some(1),
    );
    let first = gw
        .submit(Request::quantized("m", inputs[0].clone()))
        .expect("admitted");
    // Give the worker time to pop the first request and enter the stall,
    // so the rest are queued behind it.
    std::thread::sleep(Duration::from_millis(30));
    let queued: Vec<_> = (1..4)
        .map(|i| {
            gw.submit(Request::quantized("m", inputs[i].clone()))
                .expect("admitted")
        })
        .collect();
    // The stalled request itself entered execution in time: it serves
    // (late). The ones behind it are past their deadline by the time the
    // worker returns — they expire without running.
    match first.recv().expect("resolved") {
        Outcome::Ok(_) => {}
        other => panic!("stalled-but-running request resolved {}", other.kind()),
    }
    let mut expired = 0usize;
    for rx in queued {
        match rx.recv().expect("resolved") {
            Outcome::Expired(e) => {
                assert!(e.waited >= Duration::from_millis(30));
                expired += 1;
            }
            other => panic!("queued-behind-stall request resolved {}", other.kind()),
        }
    }
    assert_eq!(expired, 3);
    assert_eq!(gw.stats().expired, 3);
    gw.shutdown();
    faults::reset();
}

#[test]
fn overload_sheds_batch_class_and_keeps_interactive_p99_under_contract() {
    let _guard = chaos_lock();
    // Contract latency 100 ms at slack 1.0: the interactive deadline *is*
    // the contract bound, so Ok outcomes prove the bound was met — and the
    // suite additionally asserts the measured p99 against it.
    let (dm, inputs) = model_and_inputs("m", 14, 100.0);
    let reg = Registry::new();
    reg.deploy(dm).unwrap();
    let gw = Gateway::start(
        reg,
        ServeOptions::builder()
            .max_batch(8)
            .workers(1)
            .max_queue_depth(64)
            .shed_high_water(8)
            .deadline_slack(1.0)
            .build()
            .expect("opts"),
    );
    let contract_ms = 100.0;
    let (interactive_p99_ms, interactive_ok, batch_shed) = std::thread::scope(|s| {
        // Batch-class flood: 4 threads × 100 fire-and-forget submissions
        // hammering the high-water mark.
        let flooders: Vec<_> = (0..4)
            .map(|t| {
                let gw = &gw;
                let inputs = &inputs;
                s.spawn(move || {
                    let mut shed = 0usize;
                    let mut rxs = Vec::new();
                    for i in 0..100 {
                        match gw.submit(
                            Request::quantized("m", inputs[(t + i) % inputs.len()].clone())
                                .priority(Priority::Batch),
                        ) {
                            Ok(rx) => rxs.push(rx),
                            Err(SubmitError::Shed { .. } | SubmitError::QueueFull { .. }) => {
                                shed += 1
                            }
                            Err(e) => panic!("unexpected: {e}"),
                        }
                    }
                    // Drain whatever was admitted: every rx resolves.
                    for rx in rxs {
                        let _ = rx.recv().expect("admitted batch request resolves");
                    }
                    shed
                })
            })
            .collect();
        // Interactive closed loop: 4 clients × 25 requests, measuring Ok
        // latency only (non-shed traffic).
        let clients: Vec<_> = (0..4)
            .map(|c| {
                let gw = &gw;
                let inputs = &inputs;
                s.spawn(move || {
                    let mut ok_ms = Vec::new();
                    for i in 0..25 {
                        let rx = loop {
                            match gw.submit(Request::quantized(
                                "m",
                                inputs[(c * 25 + i) % inputs.len()].clone(),
                            )) {
                                Ok(rx) => break rx,
                                Err(SubmitError::QueueFull { .. }) => std::thread::yield_now(),
                                Err(e) => panic!("interactive submit: {e}"),
                            }
                        };
                        if let Outcome::Ok(reply) = rx.recv().expect("resolved") {
                            ok_ms.push(reply.latency.as_secs_f64() * 1e3);
                        }
                    }
                    ok_ms
                })
            })
            .collect();
        let batch_shed: usize = flooders.into_iter().map(|h| h.join().unwrap()).sum();
        let mut ok_ms: Vec<f64> = clients
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        ok_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p99 = if ok_ms.is_empty() {
            f64::INFINITY
        } else {
            ok_ms[((ok_ms.len() - 1) as f64 * 0.99).round() as usize]
        };
        (p99, ok_ms.len(), batch_shed)
    });
    assert!(
        interactive_ok >= 90,
        "interactive traffic mostly serves under overload (ok = {interactive_ok}/100)"
    );
    assert!(
        interactive_p99_ms <= contract_ms,
        "interactive p99 {interactive_p99_ms:.2} ms exceeds the {contract_ms} ms contract bound"
    );
    assert!(
        batch_shed > 0,
        "the flood never tripped the high-water mark — overload scenario is vacuous"
    );
    assert!(gw.stats().shed_admission > 0 || batch_shed > 0);
    gw.shutdown();
    faults::reset();
}

#[test]
fn queue_full_injection_is_counted_by_loadgen_not_retried_forever() {
    let _guard = chaos_lock();
    let (dm, inputs) = model_and_inputs("m", 15, 0.1);
    let reg = Registry::new();
    reg.deploy(dm).unwrap();
    let gw = Gateway::start(
        reg,
        ServeOptions::builder()
            .max_batch(4)
            .workers(1)
            .build()
            .expect("opts"),
    );
    // Single-client loadgen against a single shard: push attempts hit the
    // site sequentially, so a fire limit gives an exact refusal schedule.
    // First plan: 2 fires, budget 3 — request 1 is refused twice and
    // admitted on its third attempt; everything else admits first try.
    faults::arm(faults::SITE_QUEUE_PUSH, Fault::QueueFull, 1.0, 45, Some(2));
    let report = ataman_serve::run_closed_loop(
        &gw,
        &inputs,
        &LoadGenConfig {
            clients: 1,
            requests_per_client: 4,
            models: vec!["m".into()],
            priority: Priority::Interactive,
            max_submit_attempts: 3,
        },
    );
    assert_eq!(report.total_requests, 4);
    assert_eq!(report.shed_by_client, 0);
    assert_eq!(report.queue_full_retries, 2);
    assert_eq!(report.max_submit_attempts, 3);
    // Second plan: 4 fires, budget 2 — requests 1 and 2 exhaust their
    // budget and are *counted* shed_by_client (the old loadgen would have
    // spun on the injected refusals forever).
    faults::arm(faults::SITE_QUEUE_PUSH, Fault::QueueFull, 1.0, 46, Some(4));
    let report = ataman_serve::run_closed_loop(
        &gw,
        &inputs,
        &LoadGenConfig {
            clients: 1,
            requests_per_client: 4,
            models: vec!["m".into()],
            priority: Priority::Interactive,
            max_submit_attempts: 2,
        },
    );
    assert_eq!(report.shed_by_client, 2);
    assert_eq!(report.total_requests, 2);
    assert_eq!(report.offered_requests, 4);
    assert_eq!(report.dropped_replies, 0);
    gw.shutdown();
    faults::reset();
}

#[test]
fn shed_batch_request_degrades_to_cheaper_family_member() {
    let _guard = chaos_lock();
    // Two deployments of the same family: "big" (10 ms contract) and
    // "small" (1 ms). A batch-class request shed from "big" must reroute
    // to "small" instead of being refused.
    let (big, inputs) = model_and_inputs("big", 16, 10.0);
    let (small, _) = model_and_inputs("small", 16, 1.0);
    let reg = Registry::new();
    reg.deploy(big.with_family("fam")).unwrap();
    reg.deploy(small.with_family("fam")).unwrap();
    let gw = Gateway::start(
        reg,
        ServeOptions::builder()
            .max_batch(1)
            .workers(1)
            .max_queue_depth(8)
            .shed_high_water(1)
            .deadline(Duration::from_secs(10))
            .degrade_on_shed(true)
            .build()
            .expect("opts"),
    );
    // Stall the first execution so follow-up submissions pile up behind it
    // and the high-water mark is genuinely crossed.
    faults::arm(
        faults::SITE_WORKER_EXEC,
        Fault::StallMs(150),
        1.0,
        47,
        Some(1),
    );
    let stalled = gw
        .submit(Request::quantized("big", inputs[0].clone()))
        .expect("admitted");
    std::thread::sleep(Duration::from_millis(30));
    // Queue one interactive request (depth 1 = high water)…
    let queued = gw
        .submit(Request::quantized("big", inputs[1].clone()))
        .expect("interactive admits past high water");
    // …then a batch-class request: shed at the mark, rerouted to "small".
    let degraded = gw
        .submit(Request::quantized("big", inputs[2].clone()).priority(Priority::Batch))
        .expect("degraded reroute admits instead of shedding");
    for (rx, want_model) in [(stalled, "big"), (queued, "big"), (degraded, "small")] {
        match rx.recv().expect("resolved") {
            Outcome::Ok(reply) => assert_eq!(
                reply.model, want_model,
                "request served by the wrong deployment"
            ),
            other => panic!("expected Ok from {want_model}, got {}", other.kind()),
        }
    }
    let stats = gw.stats();
    assert_eq!(stats.degraded, 1);
    assert_eq!(stats.shed_admission, 0, "the shed became a reroute");
    gw.shutdown();
    faults::reset();
}

/// A quantized fixture with a significance map: the exact-mask primary
/// plus everything needed to build an aggressively-masked sibling.
#[allow(clippy::type_complexity)]
fn model_with_significance(
    name: &str,
    seed: u64,
) -> (
    DeployedModel,
    quantize::QuantModel,
    SignificanceMap,
    Vec<Vec<i8>>,
) {
    let data = cifar10sim::generate(cifar10sim::DatasetConfig::tiny(seed));
    let m = tinynn::zoo::mini_cifar(seed);
    let ranges = calibrate_ranges(&m, &data.train.take(8));
    let q = quantize_model(&m, &ranges);
    let means = capture_mean_inputs(&q, &data.train.take(8));
    let sig = SignificanceMap::compute(&q, &means);
    let n_convs = q.conv_indices().len();
    let inputs: Vec<Vec<i8>> = (0..8)
        .map(|i| q.quantize_input(data.test.image(i)))
        .collect();
    let dm =
        DeployedModel::from_parts(name, q.clone(), CompiledMasks::none(n_convs), contract(0.1))
            .with_significance(sig.clone(), TauAssignment::global(0.0));
    (dm, q, sig, inputs)
}

/// ServeOptions for canary chaos tests: the background controller is
/// parked (1 h interval) so each test steps the state machine itself via
/// `canary_tick()`.
fn canary_opts() -> ataman_serve::ServeOptionsBuilder {
    ServeOptions::builder()
        .deadline(Duration::from_secs(30))
        .control_interval(Duration::from_secs(3600))
        .max_batch(4)
}

#[test]
fn canary_shard_crash_mid_window_rolls_back_and_loses_no_request() {
    let _guard = chaos_lock();
    let (dm, inputs) = model_and_inputs("m", 21, 0.1);
    let (cand, _) = model_and_inputs("cand", 22, 0.1);
    let reg = Registry::new();
    reg.deploy(dm).unwrap();
    let gw = Gateway::start(
        reg,
        canary_opts()
            .workers(3)
            .max_worker_restarts(0)
            .build()
            .expect("opts"),
    );
    // All traffic diverts to a single-replica canary that can never hit
    // its promotion count — it is killed mid-window instead.
    let cfg = CanaryConfig {
        traffic_fraction: 1.0,
        min_samples: 1_000_000,
        ..CanaryConfig::default()
    };
    let canary = gw
        .registry()
        .deploy_canary_with("m", cand.with_replicas(1), cfg)
        .expect("deploy");
    let shard = gw.placement_indices(&canary)[0];
    // The canary shard's first batch panics; with a zero restart budget
    // the worker is abandoned and its shard drains Closed.
    faults::arm_at(
        faults::SITE_WORKER_EXEC,
        shard,
        Fault::Panic,
        1.0,
        51,
        Some(1),
    );
    let mut rxs = Vec::new();
    let mut refused = 0usize;
    for i in 0..24 {
        match gw.submit(Request::quantized("m", inputs[i % inputs.len()].clone())) {
            Ok(rx) => rxs.push(rx),
            // The canary's whole (1-replica) placement died between
            // routing decisions: typed refusal, not a stranded request.
            Err(SubmitError::Closed) => refused += 1,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    let (mut ok, mut crashed, mut closed) = (0usize, 0usize, 0usize);
    for rx in &rxs {
        match rx.recv().expect("every admitted request resolves") {
            Outcome::Ok(_) => ok += 1,
            Outcome::WorkerCrashed(_) => crashed += 1,
            Outcome::Closed(_) => closed += 1,
            other => panic!("unexpected outcome {}", other.kind()),
        }
        assert!(rx.try_recv().is_err(), "a request resolved twice");
    }
    assert_eq!(ok + crashed + closed + refused, 24, "conservation");
    assert!(crashed >= 1, "the injected kill crashed a canary batch");
    // One control pass mid-window: the crash counter alone rolls back.
    let events = gw.canary_tick();
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].canary, canary);
    assert_eq!(
        events[0].outcome,
        CanaryOutcome::RolledBack(RollbackReason::ShardCrash)
    );
    assert_eq!(gw.stats().rollbacks, 1);
    assert!(gw.registry().canary_list().is_empty());
    // The versioned entry survives the rollback, so anything still
    // in-flight under the canary name resolves instead of panicking the
    // worker on a lookup.
    assert!(gw.registry().get(&canary).is_some());
    // The primary takes all traffic again and serves on live shards.
    let followups: Vec<_> = (0..8)
        .map(|i| {
            gw.submit(Request::quantized("m", inputs[i % inputs.len()].clone()))
                .expect("primary admits after rollback")
        })
        .collect();
    for rx in followups {
        match rx.recv().expect("resolved") {
            Outcome::Ok(reply) => assert_eq!(reply.model, "m"),
            other => panic!("post-rollback traffic resolved {}", other.kind()),
        }
    }
    gw.shutdown();
    faults::reset();
}

#[test]
fn disagreement_spike_rolls_back_within_one_evaluation_window() {
    let _guard = chaos_lock();
    let (dm, q, sig, inputs) = model_with_significance("m", 23);
    // The candidate runs the same weights under aggressive masks — its
    // predictions drift from the exact engine on (at least some) inputs.
    let heavy_masks = sig.compiled_masks_for_tau(&q, &TauAssignment::global(10.0));
    let cand = DeployedModel::from_parts("cand", q.clone(), heavy_masks.clone(), contract(0.1));
    // Find inputs where masked != exact, up front and deterministically.
    let mut one = BatchScratch::for_model(&q, 1);
    let drifting: Vec<Vec<i8>> = inputs
        .iter()
        .filter(|qi| {
            q.predict_compiled_batch_scratch(qi, 1, None, Some(&heavy_masks), &mut one)
                != q.predict_compiled_batch_scratch(qi, 1, None, None, &mut one)
        })
        .cloned()
        .collect();
    assert!(
        drifting.len() >= 2,
        "fixture must disagree under tau=10 masks somewhere (got {})",
        drifting.len()
    );
    let reg = Registry::new();
    reg.deploy(dm).unwrap();
    let gw = Gateway::start(
        reg,
        canary_opts()
            .workers(1)
            .shadow_rate(1) // shadow every admission
            .shadow_ewma_window(4)
            .build()
            .expect("opts"),
    );
    let cfg = CanaryConfig {
        traffic_fraction: 1.0,
        min_samples: 1_000_000, // promotion unreachable: the spike decides
        min_shadow_samples: 2,
        max_disagreement: 0.1,
        ..CanaryConfig::default()
    };
    let canary = gw
        .registry()
        .deploy_canary_with("m", cand, cfg)
        .expect("deploy");
    // Serve only drifting inputs: every shadow comparison disagrees.
    let rxs: Vec<_> = (0..8)
        .map(|i| {
            gw.submit(Request::quantized(
                "m",
                drifting[i % drifting.len()].clone(),
            ))
            .expect("admitted")
        })
        .collect();
    for rx in rxs {
        match rx.recv().expect("resolved") {
            Outcome::Ok(reply) => assert_eq!(reply.model, canary),
            other => panic!("canary traffic resolved {}", other.kind()),
        }
    }
    // Shadows run after the replies ship: wait for the comparisons.
    let deadline = Instant::now() + Duration::from_secs(30);
    while gw.model_health(&canary).shadow_runs < 8 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let h = gw.model_health(&canary);
    assert_eq!(h.shadow_runs, 8);
    assert_eq!(h.shadow_disagreements, 8, "every drifting input disagrees");
    assert!(h.disagreement_rate > 0.99);
    assert!(
        h.replay_len > 0,
        "drifting inputs entered the replay buffer"
    );
    // THE window: the very next control pass sees the spike and rolls
    // back — not after some settling period.
    let events = gw.canary_tick();
    assert_eq!(events.len(), 1);
    assert_eq!(
        events[0].outcome,
        CanaryOutcome::RolledBack(RollbackReason::DisagreementSpike)
    );
    assert_eq!(gw.stats().rollbacks, 1);
    // The exact-mask primary serves cleanly again.
    let rx = gw
        .submit(Request::quantized("m", drifting[0].clone()))
        .expect("ok");
    match rx.recv().expect("resolved") {
        Outcome::Ok(reply) => assert_eq!(reply.model, "m"),
        other => panic!("post-rollback request resolved {}", other.kind()),
    }
    gw.shutdown();
    faults::reset();
}

#[test]
fn shadow_execution_faults_are_counted_and_never_touch_replies() {
    let _guard = chaos_lock();
    let (dm, inputs) = model_and_inputs("m", 24, 0.1);
    let reg = Registry::new();
    reg.deploy(dm).unwrap();
    let gw = Gateway::start(
        reg,
        ServeOptions::builder()
            .deadline(Duration::from_secs(30))
            .workers(1)
            .shadow_rate(1)
            .build()
            .expect("opts"),
    );
    // The first two shadow (exact-engine) executions panic. Serving
    // replies must not notice: shadows run strictly after replies ship,
    // behind their own unwind boundary.
    faults::arm(faults::SITE_SHADOW_EXEC, Fault::Panic, 1.0, 52, Some(2));
    let rxs: Vec<_> = (0..6)
        .map(|i| {
            gw.submit(Request::quantized("m", inputs[i % inputs.len()].clone()))
                .expect("admitted")
        })
        .collect();
    for rx in rxs {
        match rx.recv().expect("resolved") {
            Outcome::Ok(_) => {}
            other => panic!("shadow fault leaked into a reply: {}", other.kind()),
        }
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while gw.stats().shadow_runs + gw.stats().shadow_failures < 6 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let s = gw.stats();
    assert_eq!(s.shadow_failures, 2, "both injected shadow panics counted");
    assert_eq!(s.shadow_runs, 4, "the rest compared normally");
    assert_eq!(s.shadow_disagreements, 0, "exact-mask model agrees");
    assert_eq!(s.worker_crashes, 0, "a shadow panic is not a worker crash");
    gw.shutdown();
    faults::reset();
}

#[test]
fn faulted_retune_is_a_typed_error_and_deploys_nothing() {
    let _guard = chaos_lock();
    // The primary itself runs heavy masks (with its significance map
    // attached), so shadowing genuinely disagrees and fills the replay
    // buffer retune feeds on.
    let (_, q, sig, inputs) = model_with_significance("m", 25);
    let heavy_masks = sig.compiled_masks_for_tau(&q, &TauAssignment::global(10.0));
    let mut one = BatchScratch::for_model(&q, 1);
    let drifting: Vec<Vec<i8>> = inputs
        .iter()
        .filter(|qi| {
            q.predict_compiled_batch_scratch(qi, 1, None, Some(&heavy_masks), &mut one)
                != q.predict_compiled_batch_scratch(qi, 1, None, None, &mut one)
        })
        .cloned()
        .collect();
    assert!(drifting.len() >= 2, "fixture must drift under tau=10 masks");
    let dm = DeployedModel::from_parts("m", q.clone(), heavy_masks, contract(0.1))
        .with_significance(sig, TauAssignment::global(10.0));
    let reg = Registry::new();
    reg.deploy(dm).unwrap();
    let retune_opts = RetuneOptions {
        min_replay: 2,
        ..RetuneOptions::default()
    };
    let gw = Gateway::start(
        reg,
        canary_opts()
            .workers(1)
            .shadow_rate(1)
            .retune_options(retune_opts)
            .build()
            .expect("opts"),
    );
    let rxs: Vec<_> = (0..6)
        .map(|i| {
            gw.submit(Request::quantized(
                "m",
                drifting[i % drifting.len()].clone(),
            ))
            .expect("admitted")
        })
        .collect();
    for rx in rxs {
        match rx.recv().expect("resolved") {
            Outcome::Ok(_) => {}
            other => panic!("unexpected outcome {}", other.kind()),
        }
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while gw.model_health("m").replay_len < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(gw.model_health("m").replay_len >= 2);
    // An injected fault at the proposal site: typed error, no canary, no
    // registry mutation — the aborted pass costs the drained samples only.
    faults::arm(faults::SITE_RETUNE_PROPOSE, Fault::Panic, 1.0, 53, Some(1));
    match gw.retune_now("m") {
        Err(RetuneError::Faulted) => {}
        other => panic!("expected Faulted, got {other:?}"),
    }
    assert!(gw.registry().canary_list().is_empty());
    assert_eq!(gw.stats().retune_proposals, 0);
    assert_eq!(
        gw.model_health("m").replay_len,
        0,
        "the aborted pass drained its samples"
    );
    // With the buffer drained, a retry is a typed InsufficientReplay.
    match gw.retune_now("m") {
        Err(RetuneError::InsufficientReplay { have: 0, need: 2 }) => {}
        other => panic!("expected InsufficientReplay, got {other:?}"),
    }
    gw.shutdown();
    faults::reset();
}

#[test]
fn faulted_promotion_skips_the_attempt_and_retries_next_tick() {
    let _guard = chaos_lock();
    let (dm, inputs) = model_and_inputs("m", 26, 0.1);
    let (cand, _) = model_and_inputs("cand", 27, 0.1);
    let reg = Registry::new();
    reg.deploy(dm).unwrap();
    let gw = Gateway::start(reg, canary_opts().workers(1).build().expect("opts"));
    let cfg = CanaryConfig {
        traffic_fraction: 1.0,
        min_samples: 4,
        ..CanaryConfig::default()
    };
    let canary = gw
        .registry()
        .deploy_canary_with("m", cand, cfg)
        .expect("deploy");
    let rxs: Vec<_> = (0..8)
        .map(|i| {
            gw.submit(Request::quantized("m", inputs[i % inputs.len()].clone()))
                .expect("admitted")
        })
        .collect();
    for rx in rxs {
        match rx.recv().expect("resolved") {
            Outcome::Ok(reply) => assert_eq!(reply.model, canary),
            other => panic!("unexpected outcome {}", other.kind()),
        }
    }
    // The promotion site fails once: the tick must *skip the attempt*
    // (canary stays a canary, nothing half-promoted) and the next tick
    // must complete it.
    faults::arm(faults::SITE_CANARY_PROMOTE, Fault::Panic, 1.0, 54, Some(1));
    let events = gw.canary_tick();
    assert!(events.is_empty(), "faulted promotion produced an event");
    assert_eq!(gw.stats().canary_promotions, 0);
    assert_eq!(gw.registry().canary_list().len(), 1, "still a canary");
    let events = gw.canary_tick();
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].outcome, CanaryOutcome::Promoted);
    assert_eq!(gw.stats().canary_promotions, 1);
    assert!(gw.registry().canary_list().is_empty());
    gw.shutdown();
    faults::reset();
}

#[test]
fn shutdown_drains_cleanly_under_random_faults() {
    let _guard = chaos_lock();
    let (dm, inputs) = model_and_inputs("m", 17, 0.1);
    let reg = Registry::new();
    reg.deploy(dm).unwrap();
    let gw = Gateway::start(
        reg,
        ServeOptions::builder()
            .max_batch(4)
            .workers(2)
            .deadline(Duration::from_secs(10))
            .max_worker_restarts(50)
            .restart_backoff(Duration::from_millis(1))
            .build()
            .expect("opts"),
    );
    // 30% of executions panic, forever, seeded: the drain must still
    // resolve every admitted request through crashes and restarts.
    faults::arm(faults::SITE_WORKER_EXEC, Fault::Panic, 0.3, 48, None);
    let rxs: Vec<_> = (0..64)
        .map(|i| {
            gw.submit(Request::quantized("m", inputs[i % inputs.len()].clone()))
                .expect("admission open")
        })
        .collect();
    // Shut down immediately: close → drain (through injected panics) →
    // join → resolve leftovers.
    let t0 = Instant::now();
    gw.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "shutdown hung under faults"
    );
    let mut counts = [0usize; 3];
    for rx in rxs {
        match rx.recv().expect("no reply dropped by faulty shutdown") {
            Outcome::Ok(_) => counts[0] += 1,
            Outcome::WorkerCrashed(_) => counts[1] += 1,
            Outcome::Closed(_) => counts[2] += 1,
            other => panic!("unexpected outcome {}", other.kind()),
        }
    }
    assert_eq!(counts.iter().sum::<usize>(), 64, "conservation of outcomes");
    faults::reset();
}
