//! The repository benchmark: one command, three seeded workloads.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload offline-b12 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the workload untraced and prints its end-to-end
//! metrics; `--trace 1` runs it again with spans around every call into
//! the workspace and prints the per-layer metrics (see README.md). The
//! last line of standard output is the result object; the command exits
//! non-zero when any output disagrees with its oracle.

mod dse_paper;
mod fixture;
mod metrics;
mod offline;
mod rng;
mod serve_poisson;
mod stats;
mod trace;

use dse_paper::DsePaper;
use fixture::Fixture;
use metrics::Metrics;
use offline::Offline;
use serve_poisson::{ServePoisson, LADDER_STEPS, NOMINAL_RPS};
use stats::{median, quantile};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The speed of a shared host swings by tens of percent over seconds to
/// minutes, so the median of a run's short operations mixes fast and slow
/// phases differently from run to run. Throughput is therefore read at the
/// slow decile of a run's operations (offline rounds, `explore` calls):
/// the pace the host holds in its slower phases, which every run contains.
const SLOW_DECILE: f64 = 0.9;
/// Warm-up of the serving workload before anything is timed.
const SERVE_WARMUP: Duration = Duration::from_millis(500);
/// Length of the serving pass a traced run of another workload makes.
const SERVE_SIDE: Duration = Duration::from_secs(1);
/// Length of each rate-ladder step in a traced run.
const SERVE_SIDE_LADDER_STEP: Duration = Duration::from_millis(400);
/// Traced serving passes tried before a traced run is declared invalid.
const SERVE_ATTEMPTS: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServePoisson,
    OfflineB12,
    DsePaper,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "serve-poisson" => Some(Self::ServePoisson),
            "offline-b12" => Some(Self::OfflineB12),
            "dse-paper" => Some(Self::DsePaper),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::ServePoisson => "serve-poisson",
            Self::OfflineB12 => "offline-b12",
            Self::DsePaper => "dse-paper",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <serve-poisson|offline-b12|dse-paper> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
    })
}

/// Operations attempted and failed (oracle mismatches included).
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, (attempted, failed): (u64, u64)) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// Untraced run: `SETUPS` set-ups, then the workload for `seconds`.
fn measured(args: &Args, out: &mut Metrics, tally: &mut Tally) -> Result<(), String> {
    let mut setup_s = Vec::new();
    let mut fx: Option<Fixture> = None;
    for _ in 0..SETUPS {
        drop(fx.take());
        let t = Instant::now();
        fx = Some(fixture::build(args.seed, &mut Tracer::new(false)));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let fx = fx.expect("at least one set-up");
    for d in &fx.designs {
        eprintln!("{}", d.describe(fx.model_of(d)));
    }
    let budget = Duration::from_secs_f64(args.seconds);
    let images_per_s = match args.workload {
        Workload::OfflineB12 => {
            let mut o = Offline::prepare(&fx);
            tally.add(o.oracle(&fx));
            let m = o.measure(budget);
            tally.add((m.attempted, m.failed));
            quantile(&m.round_images_per_s, 1.0 - SLOW_DECILE)
        }
        Workload::DsePaper => {
            let d = DsePaper::prepare(&fx);
            tally.add(d.oracle());
            let m = d.measure(budget);
            tally.add((m.attempted, m.failed));
            m.images_per_s(&d, SLOW_DECILE)
        }
        Workload::ServePoisson => {
            let mut s = ServePoisson::prepare(&fx);
            let off = &mut Tracer::new(false);
            s.step(NOMINAL_RPS, SERVE_WARMUP, args.seed ^ 0xAA, off);
            let nominal = s.step(NOMINAL_RPS, budget.mul_f64(0.4), args.seed, off);
            if !nominal.valid() {
                return Err(format!(
                    "invalid run: at {NOMINAL_RPS} req/s the generator fell behind (lag p99 \
                     {:.3} ms) or the backlog grew ({})",
                    quantile(&nominal.lag_ms, 0.99),
                    nominal.backlog_grew
                ));
            }
            eprintln!(
                "at {NOMINAL_RPS} req/s: latency p50 {:.3} ms, p99 {:.3} ms",
                nominal.p(0.5),
                nominal.p(0.99)
            );
            let (max_rate, ladder) = s.max_rate(budget.mul_f64(0.6) / LADDER_STEPS, args.seed);
            tally.add((nominal.attempted, nominal.failed));
            tally.add(ladder);
            max_rate
        }
    };
    out.put("setup_s", median(&setup_s), "s");
    out.put("peak_rss_mb", stats::peak_rss_mb(), "MB");
    out.put("images_per_s", images_per_s, "1/s");
    Ok(())
}

/// Traced run: one traced set-up, then every workload's traced pass — the
/// named workload's for `seconds`, the other two for one round, one pass
/// and `SERVE_SIDE` respectively, so every layer metric is reported. The
/// offline and DSE passes interleave untraced calls for
/// `trace_overhead_frac`; serving measures an untraced step of a third of
/// `seconds` first.
fn traced(args: &Args, out: &mut Metrics, tally: &mut Tally) -> Result<Tracer, String> {
    let mut tr = Tracer::new(true);
    let fx = fixture::build(args.seed, &mut tr);
    out.put("setup.train_s", fx.train_s, "s");
    out.put("setup.ptq_signif_s", fx.ptq_signif_s, "s");
    out.put("setup.compile_s", fx.compile_s, "s");

    let own = |w: Workload| args.workload == w;
    let budget = Duration::from_secs_f64(args.seconds);
    let pass_len = |w: Workload| if own(w) { budget } else { Duration::ZERO };
    let mut overhead = f64::NAN;

    let mut o = Offline::prepare(&fx);
    if own(Workload::OfflineB12) {
        tally.add(o.oracle(&fx));
    }
    tally.add(o.traced(pass_len(Workload::OfflineB12), &mut tr));
    if own(Workload::OfflineB12) {
        overhead = o.trace_overhead_frac(&tr);
    }
    o.layer_metrics(&fx, &mut tr, out);

    let mut d = DsePaper::prepare(&fx);
    if own(Workload::DsePaper) {
        tally.add(d.oracle());
    }
    tally.add(d.traced(pass_len(Workload::DsePaper), &mut tr, out));
    if own(Workload::DsePaper) {
        overhead = d.trace_overhead_frac(&tr);
    }
    drop(d);

    let mut s = ServePoisson::prepare(&fx);
    let off = &mut Tracer::new(false);
    s.step(NOMINAL_RPS, SERVE_WARMUP, args.seed ^ 0xAA, off);
    let (serve_len, untraced) = if own(Workload::ServePoisson) {
        let untraced = s.step(NOMINAL_RPS, budget / 3, args.seed ^ 0xBB, off);
        tally.add((untraced.attempted, untraced.failed));
        (budget, Some(untraced))
    } else {
        (SERVE_SIDE, None)
    };
    // An invalid pass is measured again (its spans are dropped) rather than
    // reported.
    let mut attempts = 0;
    let step = loop {
        attempts += 1;
        let mut pass_tr = tr.fork();
        let step = s.step(NOMINAL_RPS, serve_len, args.seed, &mut pass_tr);
        if step.valid() {
            tr.absorb(pass_tr);
            break step;
        }
        if attempts == SERVE_ATTEMPTS {
            return Err("invalid run: the traced serving pass fell behind its schedule".into());
        }
        eprintln!("serving pass invalid (generator behind or backlog grew); measuring again");
    };
    if let Some(untraced) = untraced {
        overhead = step.p(0.5) / untraced.p(0.5) - 1.0;
    }
    tally.add((step.attempted, step.failed));
    s.layer_metrics(&step, out);
    let (max_rate, ladder) = s.max_rate(SERVE_SIDE_LADDER_STEP, args.seed);
    tally.add(ladder);
    out.put("serve.max_rate_rps", max_rate, "1/s");
    drop(s);

    out.put("trace_overhead_frac", overhead, "ratio");
    Ok(tr)
}

/// Write the spans and the self-time table next to the benchmark.
fn write_trace(args: &Args, tr: &Tracer) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let stem = format!("{}-seed{}", args.workload.name(), args.seed);
    std::fs::write(dir.join(format!("{stem}.spans.jsonl")), tr.spans_jsonl())?;
    let table = tr.self_time_table();
    std::fs::write(dir.join(format!("{stem}.self_time.txt")), &table)?;
    eprint!("{table}");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"simd\": \"{}\"}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        quantize::simd_level_name()
    );
    let mut out = Metrics::default();
    let mut tally = Tally::default();
    let run = if args.trace {
        traced(&args, &mut out, &mut tally)
            .and_then(|tr| write_trace(&args, &tr).map_err(|e| format!("writing the trace: {e}")))
    } else {
        measured(&args, &mut out, &mut tally)
    };
    if let Err(e) = run {
        eprintln!("{e}");
        return ExitCode::from(3);
    }
    let correct = tally.failed == 0;
    println!(
        "{}",
        out.result_json(correct, tally.attempted.max(1), tally.failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("{} of {} operations failed", tally.failed, tally.attempted);
        ExitCode::FAILURE
    }
}
