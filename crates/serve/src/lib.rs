//! # s2c2-serve — event-driven multi-job service over a shared coded pool
//!
//! The paper schedules *one* coded job at a time; a production service
//! faces many concurrent jobs contending for one worker pool, bursty
//! arrivals, queueing, and tail-latency SLOs (the regime targeted by the
//! serverless and rateless-coding lines of related work). This crate
//! supplies that layer:
//!
//! * [`event`] — the typed discrete-event core: a binary-heap
//!   [`event::EventQueue`] over `JobArrival` / `TaskComplete` /
//!   `WorkerSpeedChange` / `Timeout` / `WorkerChurn` events, with
//!   deterministic FIFO tie-breaking.
//! * [`workload`] — Poisson and trace-driven arrival generators over
//!   heterogeneous job presets (matvec shapes, `(n, k)` parameters,
//!   iteration counts, per-job capacity weights and deadline SLOs).
//! * [`admission`] — pluggable queueing policies: FIFO,
//!   shortest-expected-work, tenant fair-share, earliest-deadline, and
//!   weighted fair-share.
//! * [`shared_alloc`] — Algorithm 1 extended to a shared cluster: each
//!   worker's capacity is split across resident jobs in proportion to
//!   their weights (via [`s2c2_core::split_worker_capacity`]) while
//!   every job keeps its exactly-`k` chunk coverage; infeasible jobs
//!   degrade to conventional coded computing, alone.
//! * [`engine`] — the [`engine::ServiceEngine`] tying it together, with
//!   worker churn, §4.3-style timeout recovery, a retry ladder,
//!   work-conserving share rebalancing at every resident-set change,
//!   optional deadline admission control, per-tenant token-bucket rate
//!   limiting, and deadline-aware share boosting. Execution is
//!   pluggable ([`engine::BackendKind`]): timing-only simulation,
//!   master-side verified numerics, or real OS-thread workers over
//!   [`s2c2_cluster::threaded::ThreadedCluster`] with an encode cache
//!   shared across recurring jobs.
//! * [`metrics`] — service-level reporting: sojourn-latency percentiles
//!   (p50/p95/p99), throughput, utilization, queue depth over time, and
//!   per-tenant QoS summaries (on-time ratio, achieved vs entitled
//!   capacity share).
//!
//! # Quickstart
//!
//! ```
//! use s2c2_serve::prelude::*;
//! use s2c2_cluster::ClusterSpec;
//! use s2c2_core::speed_tracker::PredictorSource;
//!
//! # fn main() -> Result<(), s2c2_serve::engine::ServeError> {
//! // A 12-worker pool with two hidden 5x stragglers.
//! let pool = ClusterSpec::builder(12)
//!     .compute_bound()
//!     .stragglers(&[3, 8], 0.2)
//!     .build();
//!
//! // 20 jobs arriving at 1.5 jobs/s from the standard size mix.
//! let jobs = generate_workload(
//!     &ArrivalPattern::Poisson { rate: 1.5 },
//!     &JobPreset::standard_mix(),
//!     20, 3, 12, 42,
//! );
//!
//! let cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
//!     predictor: PredictorSource::LastValue,
//! });
//! let report = ServiceEngine::new(pool, cfg)?.run(&jobs)?;
//! assert_eq!(report.completed(), 20);
//! println!("p99 sojourn: {:.3}s", report.latency_percentile(99.0));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod engine;
pub mod event;
pub mod metrics;
pub mod shared_alloc;
pub mod workload;

pub use admission::{
    batch_key, BatchKey, BatchPolicy, QueuePolicy, QueuedJob, RateLimit, ResidentInfo,
};
pub use engine::{
    BackendKind, ChurnConfig, DeadlineBoost, PipelinePolicy, SchedulerMode, ServeConfig,
    ServeError, ServiceEngine,
};
pub use event::{EventKind, EventQueue, JobId};
pub use metrics::{percentile, JobRecord, ServiceReport, TenantSummary};
pub use s2c2_telemetry::{PhaseTotals, Telemetry, TraceEvent, TraceEventKind};
pub use shared_alloc::SharedAssignment;
pub use workload::{generate_workload, ArrivalPattern, JobPreset, JobSpec};

/// One-stop imports for service-engine users.
pub mod prelude {
    pub use crate::admission::{BatchPolicy, QueuePolicy, RateLimit};
    pub use crate::engine::{
        BackendKind, ChurnConfig, DeadlineBoost, PipelinePolicy, SchedulerMode, ServeConfig,
        ServiceEngine,
    };
    pub use crate::metrics::{ServiceReport, TenantSummary};
    pub use crate::workload::{generate_workload, ArrivalPattern, JobPreset, JobSpec};
    pub use s2c2_telemetry::{PhaseTotals, Telemetry, TraceEvent, TraceEventKind};
}
