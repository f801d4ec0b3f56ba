//! The widest pool the engine is asked to serve: the `serve` example's
//! pool (three hidden 5x stragglers, ±20% heterogeneity) widened to
//! 1024 workers, the standard job mix, 50 jobs at λ = 1, workload seed
//! 42, S²C² with last-value prediction.
//!
//! At this width a round's decode outlasts its task spans, which once
//! fed the speed tracker an infinite observation and failed 34 of the
//! 50 jobs on a healthy pool. The run takes seconds in release, so it
//! is `#[ignore]`d out of the default suite and run on its own:
//!
//! ```text
//! cargo test --release -p s2c2-serve -- --ignored
//! ```

use s2c2_cluster::ClusterSpec;
use s2c2_core::speed_tracker::PredictorSource;
use s2c2_serve::prelude::*;

#[test]
#[ignore = "n = 1024 takes seconds in release; run with --ignored"]
fn widest_pool_completes_every_job() {
    let n = 1024;
    let pool = ClusterSpec::builder(n)
        .compute_bound()
        .seed(0x5EED)
        .straggler_slowdown(5.0)
        .stragglers(&[2, 7, 11], 0.2)
        .build();
    let workload = generate_workload(
        &ArrivalPattern::Poisson { rate: 1.0 },
        &JobPreset::standard_mix(),
        50,
        4,
        n,
        42,
    );
    let cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
        predictor: PredictorSource::LastValue,
    });
    let report = ServiceEngine::new(pool, cfg)
        .expect("valid configuration")
        .run(&workload)
        .expect("service run completes");
    assert_eq!(report.jobs.len(), 50);
    assert_eq!(
        report.failed(),
        0,
        "rungs: {:?}",
        report.recovery_rung_counts
    );
}
