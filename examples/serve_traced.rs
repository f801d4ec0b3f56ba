//! Serving with the telemetry layer on: structured trace spans, the
//! metrics registry, phase profiling, and exportable timelines.
//!
//! The same small recurring-matrix trace from `serve_threaded` is served
//! with `ServeConfig::telemetry` enabled, showing that (a) the trace is
//! virtual-clock data — byte-identical across execution backends and
//! across repeat runs, (b) tracing is observability-only — disabling it
//! reproduces the untraced run bit for bit, and (c) per-iteration time
//! decomposes exactly into dispatch/compute/collect/decode phases. The
//! JSONL event log and Chrome trace-event timeline land in a temp dir.
//!
//! Sizes are deliberately small (8 workers, 12 jobs): this example runs
//! in CI on every push.
//!
//! ```text
//! cargo run --release --example serve_traced
//! ```

use s2c2::prelude::*;
use s2c2::telemetry::export;
use s2c2_core::speed_tracker::PredictorSource;
use s2c2_serve::{BackendKind, JobSpec, Telemetry};

fn pool(n: usize) -> ClusterSpec {
    ClusterSpec::builder(n)
        .compute_bound()
        .seed(0x7EED)
        .straggler_slowdown(5.0)
        .stragglers(&[2], 0.2)
        .build()
}

fn run(workload: &[(f64, JobSpec)], n: usize, backend: BackendKind, traced: bool) -> ServiceReport {
    let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
        predictor: PredictorSource::LastValue,
    });
    cfg.backend = backend;
    cfg.telemetry = traced;
    ServiceEngine::new(pool(n), cfg)
        .expect("valid configuration")
        .run(workload)
        .expect("service run completes")
}

fn telemetry(report: &ServiceReport) -> &Telemetry {
    report.telemetry.as_ref().expect("telemetry was enabled")
}

fn main() {
    let n = 8;
    let jobs = 12;
    let instants: Vec<f64> = (0..jobs).map(|i| 0.4 * i as f64).collect();
    let workload: Vec<(f64, JobSpec)> = generate_workload(
        &ArrivalPattern::Trace(instants),
        &JobPreset::standard_mix(),
        jobs,
        3,
        n,
        0xE2E,
    );

    println!("serving {jobs} jobs over a {n}-worker pool with telemetry on...\n");
    let traced = run(&workload, n, BackendKind::Sim, true);
    assert_eq!(traced.completed(), jobs);
    let tel = telemetry(&traced);

    // -- trace spans + rung ladder ---------------------------------------
    println!("trace: {} events recorded", tel.trace.len());
    let rung_names = [
        "1 normal start",
        "2 degraded start",
        "3 redo on finished",
        "4 wait out",
        "5 abandon/restart",
    ];
    for (name, count) in rung_names.iter().zip(traced.recovery_rung_counts) {
        println!("  rung {name:<18} {count:>4}");
    }
    assert_eq!(
        traced.recovery_rung_counts,
        tel.trace.rung_counts(),
        "report counters and the event log tell one story"
    );

    // -- phase profile ----------------------------------------------------
    println!("\nvirtual phase profile (seconds of iteration time):");
    for (name, secs) in traced.phase_virtual.named() {
        if secs > 0.0 {
            println!("  {name:<10} {secs:>8.3}");
        }
    }
    let sum = traced.phase_virtual.total();
    assert!(
        (sum - traced.iteration_time_total).abs() <= 0.01 * traced.iteration_time_total,
        "phases must sum to iteration time"
    );
    println!("  {:<10} {:>8.3}", "total", traced.iteration_time_total);

    // -- metrics registry -------------------------------------------------
    let spans = tel
        .metrics
        .histogram("iteration_span")
        .expect("iteration spans are observed");
    println!(
        "\nmetrics: {} iteration spans, p50 {:.3}s, p99 {:.3}s; report counters:",
        spans.count(),
        spans.percentile(50.0),
        spans.percentile(99.0),
    );
    let r = &traced;
    for (name, value) in [
        ("events_processed", r.events_processed),
        ("jobs_completed", r.completed() as u64),
        ("jobs_failed", r.failed() as u64),
        ("timeouts", r.timeouts as u64),
        ("degraded_iterations", r.degraded_iterations as u64),
        ("rebalances", r.rebalances as u64),
        ("batch_rounds", r.batch_rounds as u64),
        ("rounds_parked", r.rounds_parked),
        ("scratch_reuses", r.scratch_reuses),
    ] {
        println!("  {name:<20} {value:>6}");
    }

    // -- exporters --------------------------------------------------------
    let events = tel.trace.events();
    let jsonl = export::jsonl(events);
    let chrome = export::chrome_trace(events);
    export::validate_json(&chrome).expect("chrome trace is valid JSON");
    let dir = std::env::temp_dir().join("s2c2_serve_traced");
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(dir.join("trace_events.jsonl"), &jsonl).expect("write jsonl");
    std::fs::write(dir.join("trace_chrome.json"), &chrome).expect("write chrome trace");
    println!(
        "\nexported {} JSONL lines and a Chrome timeline to {}",
        jsonl.lines().count(),
        dir.display()
    );

    // -- determinism + zero cost ------------------------------------------
    let again = run(&workload, n, BackendKind::Sim, true);
    assert_eq!(
        jsonl,
        export::jsonl(telemetry(&again).trace.events()),
        "same seed must export byte-identical JSONL"
    );
    let threaded = run(&workload, n, BackendKind::Threaded, true);
    assert_eq!(
        &tel.trace,
        &telemetry(&threaded).trace,
        "real threads must replay the identical virtual event stream"
    );
    let plain = run(&workload, n, BackendKind::Sim, false);
    assert!(plain.telemetry.is_none());
    assert_eq!(plain.makespan.to_bits(), traced.makespan.to_bits());
    assert_eq!(plain.latencies(), traced.latencies());
    println!(
        "\nsame schedule observed three ways: repeat runs and real threads replay the\n\
         identical event stream, and switching tracing off reproduces the untraced\n\
         run bit for bit."
    );
}
