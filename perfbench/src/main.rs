//! `perfbench` — wall-clock cost and virtual service quality of the S²C²
//! service engine, end to end and per layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wide-sim --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The seed generates the workload; the engine receives only the
//! generated `(arrival, JobSpec)` stream. With `--trace 0` the command
//! repeats seed → ready engine → untraced `ServiceEngine::run` for
//! `--seconds` wall seconds and prints the end-to-end metrics (the
//! throughput over every timed run, the median set-up). With `--trace 1` it
//! alternates untraced and traced runs for `--seconds`, then probes the
//! single layers, and prints the per-layer metrics. Every run passes the
//! correctness gate first; the last stdout line is the JSON result, and
//! a failed gate exits non-zero. See `perfbench/README.md`.

mod gate;
mod output;
mod probes;
mod stats;
mod workload;

use gate::{check_repeat, check_run, TraceCounts, VirtualOutcome};
use output::{failure_json, RunResult, END_TO_END, PER_LAYER};
use s2c2_serve::{JobSpec, ServiceReport};
use stats::{median, nearest_rank, samples_beyond};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{setup, SetupTimes, Workload};

/// Timed repetitions per run, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Untimed repetitions before the timed ones: the first run of a
/// process pays for cold caches and the allocator's first growth.
const WARM_UP_REPS: usize = 1;
/// Fewest set-ups timed per run.
const MIN_SETUPS: usize = 15;
/// Wall time of back-to-back set-ups timed after each measured run, so
/// that set-up is sampled across the whole run: the host's speed drifts
/// over seconds, and one burst would catch a single moment of it.
const SETUP_SLICE: Duration = Duration::from_millis(50);

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <wide-sim|churn-pipelined> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let (measured, table) = if args.trace {
        (per_layer(&args), PER_LAYER)
    } else {
        (end_to_end(&args), END_TO_END)
    };
    let line = measured.and_then(|r| {
        for &(name, unit) in table {
            println!(
                "{name:<28} {:>16} {unit}",
                r.values.get(name).copied().unwrap_or(f64::NAN)
            );
        }
        r.json(table)
    });
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            println!("{}", failure_json(args.workload.jobs()));
            ExitCode::FAILURE
        }
    }
}

/// One measured repetition: seed → ready engine → one run.
struct Rep {
    workload: Vec<(f64, JobSpec)>,
    report: ServiceReport,
    run_s: f64,
}

/// Sets up from the seed and runs once, gating the outputs.
fn rep(args: &Args, traced: bool) -> Result<Rep, String> {
    let s = setup(args.workload, args.seed, traced)?;
    let t = Instant::now();
    let report = s.engine.run(&s.workload).map_err(|e| e.to_string())?;
    let run_s = t.elapsed().as_secs_f64();
    check_run(&s.workload, &report, args.workload.numeric(), traced)?;
    let beyond = samples_beyond(report.completed(), 95.0);
    if beyond < 10 {
        return Err(format!("p95 rests on {beyond} jobs, fewer than 10"));
    }
    Ok(Rep {
        workload: s.workload,
        report,
        run_s,
    })
}

/// Appends timed set-ups to `times`: at least one, and as many more as
/// fit in `slice`.
fn time_setups(args: &Args, times: &mut Vec<SetupTimes>, slice: Duration) -> Result<(), String> {
    let start = Instant::now();
    loop {
        times.push(setup(args.workload, args.seed, false)?.times);
        if start.elapsed() >= slice {
            return Ok(());
        }
    }
}

/// Tops `times` up to [`MIN_SETUPS`].
fn top_up_setups(args: &Args, times: &mut Vec<SetupTimes>) -> Result<(), String> {
    while times.len() < MIN_SETUPS {
        time_setups(args, times, Duration::ZERO)?;
    }
    Ok(())
}

/// Median of one set-up step over `times`.
fn setup_median(times: &[SetupTimes], step: fn(&SetupTimes) -> f64) -> f64 {
    median(&times.iter().map(step).collect::<Vec<_>>())
}

/// The first repetition's stream and outcome, against which every later
/// repetition of the seed is checked.
struct Reference {
    workload: Vec<(f64, JobSpec)>,
    outcome: VirtualOutcome,
    counts: Option<TraceCounts>,
}

impl Reference {
    fn check(reference: &mut Option<Reference>, r: &Rep, traced: bool) -> Result<(), String> {
        let outcome = VirtualOutcome::of(&r.report);
        let counts = traced.then(|| TraceCounts::of(&r.report));
        let Some(first) = reference else {
            *reference = Some(Reference {
                workload: r.workload.clone(),
                outcome,
                counts,
            });
            return Ok(());
        };
        check_repeat("generated workloads", &first.workload, &r.workload)?;
        check_repeat("virtual outcomes", &first.outcome, &outcome)?;
        match (first.counts, counts) {
            (Some(a), Some(b)) => check_repeat("trace counts", &a, &b),
            (None, Some(_)) => {
                first.counts = counts;
                Ok(())
            }
            (_, None) => Ok(()),
        }
    }
}

/// `--trace 0`: untraced repetitions for the wall budget.
fn end_to_end(args: &Args) -> Result<RunResult, String> {
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut reference = None;
    let (mut runs, mut setups) = (Vec::new(), Vec::new());
    let mut out = RunResult::default();
    let mut last = None;
    while runs.len() < WARM_UP_REPS + MIN_REPS || start.elapsed() < budget {
        let r = rep(args, false)?;
        Reference::check(&mut reference, &r, false)?;
        runs.push((r.report.completed(), r.run_s));
        time_setups(args, &mut setups, SETUP_SLICE)?;
        out.attempted += r.workload.len();
        out.failed += r.report.failed();
        last = Some(r.report);
    }
    let report = last.ok_or("no repetition ran")?;
    top_up_setups(args, &mut setups)?;
    // Pooled over every timed run rather than a median of per-run rates:
    // the host's speed drifts over tens of seconds, not in single-run
    // outliers, so averaging the whole budget is the steadier estimate.
    let timed = runs.get(WARM_UP_REPS..).unwrap_or_default();
    let jobs: usize = timed.iter().map(|&(jobs, _)| jobs).sum();
    let wall: f64 = timed.iter().map(|&(_, s)| s).sum();
    out.correct = true;
    out.set("jobs_per_wall_s", jobs as f64 / wall);
    out.set("setup_s", setup_median(&setups, SetupTimes::total));
    out.set("peak_rss_mb", peak_rss_mib()?);
    out.set("virtual_p50_s", report.latency_percentile(50.0));
    out.set("virtual_p95_s", report.latency_percentile(95.0));
    out.set(
        "jobs_completed_share",
        report.completed() as f64 / report.jobs.len().max(1) as f64,
    );
    println!(
        "{}: {} jobs per run ({} completed), {} timed runs after {} warm-up, {} timed set-ups, n={}, lambda={}",
        args.workload.name(),
        report.jobs.len(),
        report.completed(),
        timed.len(),
        WARM_UP_REPS,
        setups.len(),
        args.workload.n(),
        args.workload.rate()
    );
    Ok(out)
}

/// `--trace 1`: untraced/traced pairs for the wall budget, then probes.
fn per_layer(args: &Args) -> Result<RunResult, String> {
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut reference = None;
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut phases: [Vec<f64>; 5] = Default::default();
    let mut setups = Vec::new();
    let mut out = RunResult::default();
    let mut traced = None;
    while untraced_s.is_empty() || start.elapsed() < budget {
        let u = rep(args, false)?;
        Reference::check(&mut reference, &u, false)?;
        let t = rep(args, true)?;
        Reference::check(&mut reference, &t, true)?;
        let w = &u.report.phase_wall;
        for (slot, v) in phases
            .iter_mut()
            .zip([w.encode, w.compute, w.decode, w.verify, w.total()])
        {
            slot.push(v);
        }
        untraced_s.push(u.run_s);
        traced_s.push(t.run_s);
        time_setups(args, &mut setups, SETUP_SLICE)?;
        out.attempted += u.workload.len() + t.workload.len();
        out.failed += u.report.failed() + t.report.failed();
        if traced.is_none() {
            // Every traced run of the seed is identical (checked above);
            // keep the first one's counts and drop its trace buffer.
            let counts = TraceCounts::of(&t.report);
            let mut t = t;
            t.report.telemetry = None;
            traced = Some((t, counts));
        }
    }
    let (t, c) = traced.ok_or("no traced run")?;
    let r = &t.report;
    top_up_setups(args, &mut setups)?;
    let p = probes::run(args.workload, args.seed)?;
    let run_s = median(&untraced_s);
    let count = |v: u64| v as f64;

    out.correct = true;
    out.set("engine.events", count(r.events_processed));
    out.set(
        "engine.ns_per_event",
        run_s / r.events_processed.max(1) as f64 * 1e9,
    );
    out.set("engine.task_dispatches", count(c.dispatches));
    out.set("engine.task_completions", count(c.completions));
    out.set("engine.task_cancels", count(c.cancels));
    out.set(
        "engine.cancel_share",
        c.cancels as f64 / c.dispatches.max(1) as f64,
    );
    out.set("engine.rounds", count(c.rounds));
    out.set("engine.timeouts", r.timeouts as f64);
    for (name, &v) in [
        "engine.rung1",
        "engine.rung2",
        "engine.rung3",
        "engine.rung4",
        "engine.rung5",
    ]
    .into_iter()
    .zip(r.recovery_rung_counts.iter())
    {
        out.set(name, count(v));
    }
    out.set("engine.rebalances", r.rebalances as f64);
    out.set("engine.rounds_parked", count(r.rounds_parked));
    out.set("engine.scratch_reuses", count(r.scratch_reuses));

    let event_est = count(r.events_processed) * p.push_pop_s;
    let tracker_est = count(c.original_completions) * p.observe_s;
    let alloc_est = count(c.rounds) * p.allocate_s;
    let references: usize = t.workload.iter().map(|(_, s)| s.iterations).sum();
    let ref_est = if args.workload.numeric() {
        references as f64 * p.ref_matvec_s
    } else {
        0.0
    };
    out.set("event.push_pop_ns", p.push_pop_s * 1e9);
    out.set("event.est_s", event_est);
    out.set("speed_tracker.observe_us", p.observe_s * 1e6);
    out.set("speed_tracker.est_s", tracker_est);
    out.set("shared_alloc.allocate_us", p.allocate_s * 1e6);
    out.set("shared_alloc.est_s", alloc_est);
    out.set("predict.lstm_step_us", p.lstm_step_s * 1e6);
    out.set(
        "setup.lstm_train_s",
        setup_median(&setups, |s| s.predictor_s),
    );

    let waits: Vec<f64> = r
        .jobs
        .iter()
        .filter(|j| !j.failed)
        .map(|j| j.queueing_delay())
        .collect();
    out.set("admission.queue_wait_p50_s", nearest_rank(&waits, 50.0));
    out.set("admission.queue_wait_p95_s", nearest_rank(&waits, 95.0));
    out.set("admission.max_queue_depth", r.max_queue_depth() as f64);
    out.set("admission.batches", r.batches_admitted as f64);
    out.set("admission.mean_batch", r.mean_batch_size());

    let [encode, compute, decode, verify, phase_total] = phases.map(|v| median(&v));
    out.set("backend.encode_s", encode);
    out.set("backend.compute_s", compute);
    out.set("backend.decode_s", decode);
    out.set("backend.verify_s", verify);
    out.set("coding.decode_us", p.decode_s * 1e6);
    out.set("coding.chunk_compute_us", p.chunk_compute_s * 1e6);
    out.set("linalg.ref_matvec_us", p.ref_matvec_s * 1e6);
    out.set("linalg.est_s", ref_est);
    out.set("coding.encode_hits", count(r.encode_cache_hits));
    out.set("coding.encode_misses", count(r.encode_cache_misses));
    out.set("coding.verified_rounds", r.verified_iterations as f64);
    out.set("coding.max_decode_error", r.max_decode_error);
    out.set(
        "engine.residual_s",
        run_s - (event_est + tracker_est + alloc_est + ref_est + phase_total),
    );

    out.set("telemetry.overhead_s", median(&traced_s) - run_s);
    out.set("telemetry.trace_events", count(c.events));
    out.set("telemetry.peak_rss_mb", peak_rss_mib()?);
    out.set(
        "setup.workload_gen_s",
        setup_median(&setups, |s| s.workload_gen_s),
    );
    out.set("setup.cluster_s", setup_median(&setups, |s| s.cluster_s));
    out.set(
        "setup.engine_new_s",
        setup_median(&setups, |s| s.engine_new_s),
    );
    println!(
        "{}: {} untraced/traced pairs, {} jobs per run",
        args.workload.name(),
        untraced_s.len(),
        t.workload.len()
    );
    Ok(out)
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
