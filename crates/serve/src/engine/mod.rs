//! The event-driven multi-job service engine.
//!
//! [`ServiceEngine`] multiplexes many concurrent coded jobs onto one
//! shared worker pool, driven entirely by the typed events of
//! [`crate::event`]: arrivals join the admission queue, admitted jobs run
//! iterations whose per-worker tasks are scheduled from the shared-cluster
//! S²C² allocation, epoch ticks resample worker speeds and churn, and
//! §4.3-style timeouts recover from mis-predictions and departed workers.
//!
//! The engine is split into focused submodules, all driven by one event
//! loop (this module):
//!
//! * `core` — resident-job state, the per-round task record, and the
//!   event handlers (arrival, admission, iteration start/completion,
//!   churn, epoch ticks);
//! * `scheme` — the one place that names a [`SchedulerMode`] variant:
//!   job shape, round plan, adaptivity, decode cost, redo order size.
//!   A new scheme lands there;
//! * [`backend`] — the pluggable `ExecutionBackend` seam: timing-only
//!   simulation, master-side verified numerics, or real OS-thread
//!   workers (selected via [`BackendKind`]);
//! * `recovery` — the §4.3 robustness ladder (cancel-and-reassign,
//!   wait-out, retry);
//! * `rebalance` — work-conserving share rebalancing and
//!   deadline-aware share boosting;
//! * `pipeline` — the cross-round in-flight window policy
//!   ([`PipelinePolicy`]) and the pool of retired rounds' task records.
//!
//! # Timing model
//!
//! The engine is a *timing* simulator in the same spirit as
//! [`s2c2_cluster::ClusterSim`]: a task of `E` elements on worker `w`
//! serving job `j` takes `E / (speed_w · share_j · throughput ·
//! thread_speedup)` seconds, plus transfer times from the
//! [`s2c2_cluster::CommModel`]. `share_j` is the fraction of every
//! worker's capacity the shared allocator granted job `j`: the job's
//! capacity weight normalized over the live resident set
//! (`weight_j / Σ weights`, the [`s2c2_core::normalized_shares`] rule),
//! so a weight-2 tenant runs at twice a weight-1 tenant's fractional
//! rate. Speeds are piecewise constant: each task runs at the speed
//! sampled when it was issued, and epoch ticks only affect tasks issued
//! afterwards — the same once-per-iteration granularity the paper
//! measures and predicts at.
//!
//! # Execution backends
//!
//! Timing is always simulated; *numerics* are pluggable. Under
//! [`BackendKind::Sim`] (the default) jobs carry no data and nothing is
//! computed — the historical behavior, bit-identical event streams and
//! reports. Under [`BackendKind::SimVerified`] every job carries a real
//! model matrix (deterministic in [`crate::workload::JobSpec::matrix_id`]),
//! encoded once through a shared [`s2c2_coding::EncodeCache`], and every
//! completed iteration is decoded from exactly the worker coverage the
//! timing model produced and checked against a sequential reference.
//! [`BackendKind::Threaded`] does the same but dispatches the encoded
//! chunk work to real [`s2c2_cluster::threaded::ThreadedCluster`]
//! OS-thread workers (with cooperative cancellation mirroring the
//! recovery ladder), so the schedule the engine decides is the schedule
//! real threads execute. Cache hits/misses, verified-iteration counts,
//! and decoded outputs land in the [`ServiceReport`].
//!
//! # Work conservation
//!
//! Shares are *not* frozen at iteration boundaries: whenever the
//! resident set changes (admission, completion, failure), every running
//! iteration's share is recomputed from the live weight mass and its
//! in-flight tasks are rescaled at that instant. Capacity freed by a
//! finishing job flows to its neighbours immediately instead of idling
//! until their iteration boundaries, and a newly admitted job squeezes
//! its neighbours immediately instead of over-subscribing the pool
//! (stale share snapshots were precisely the bug that let reported
//! utilization exceed 1). The rescale stretches a task's whole
//! remaining span — a deliberate approximation: the transfer tail is a
//! few control/row messages, negligible beside compute in the clusters
//! this models.
//!
//! # Batching
//!
//! [`ServeConfig::batch`] ([`BatchPolicy`]) coalesces queued jobs that
//! share a batch key (model identity, shape, code geometry, iteration
//! count) into one *batch round*: a single cache-backed encode, one
//! stacked multi-RHS dispatch per worker, one decode LU factorization
//! per chunk, and one residency slot for the whole group. QoS always
//! sees the member jobs — per-member weights, deadline boosts,
//! rejections, and records — and the recovery ladder degrades or
//! redoes a straggling round *per batch*, so every member decodes from
//! the identical coverage. With [`BatchPolicy::Off`] (the default) the
//! engine is byte-identical to the pre-batching behavior.
//!
//! # Deadlines and QoS
//!
//! Jobs may carry a relative SLO ([`crate::workload::JobSpec::deadline`]).
//! [`QueuePolicy::EarliestDeadline`] admits by least slack, and with
//! [`ServeConfig::reject_infeasible_deadlines`] the engine refuses, at
//! admission time, jobs whose deadline cannot be met even by the whole
//! pool running the job alone (an optimistic lower bound, so only
//! provably-hopeless jobs are turned away). Two capacity-side QoS levers
//! extend that admission-side pair: per-tenant token-bucket **rate
//! limits** ([`ServeConfig::tenant_rate_limits`]) cap a tenant's
//! absolute burst admission, and **deadline-aware share boosting**
//! ([`ServeConfig::deadline_boost`]) bumps a resident job's effective
//! weight once its remaining slack falls below a threshold fraction of
//! its SLO, pulling at-risk jobs forward inside the capacity layer.
//!
//! # Task records
//!
//! Each in-flight round keeps one record per pool worker: the worker's
//! original task and the redo task rung 3 may hand it, each with a
//! state (idle, running, done, cancelled), a scheduled finish and a
//! busy charge. Every cancel goes through one
//! method (state flip, busy refund, backend notice, trace), and every
//! coverage question — is the round complete, what does recovery still
//! need, is a churned round doomed, what does the backend decode from —
//! reads the same view of the round's tasks.
//!
//! # Robustness ladder (per iteration)
//!
//! 1. Predictions feasible → shared-cluster S²C² (exactly-`k` coverage).
//! 2. Predictions infeasible (< `k` workers believed alive) → that job
//!    degrades to conventional coded computing over the workers predicted
//!    alive (core's `plan_or_full`, as on the paper path).
//! 3. Deadline miss (mis-prediction, churn) → finished workers recompute
//!    the missing chunks (they already hold the coded partitions — no
//!    data movement, ever).
//! 4. Not enough finished workers → wait out the in-flight stragglers
//!    (conventional semantics).
//! 5. Nobody left (churn storm) → restart the iteration, up to
//!    `max_retries`, then fail the job.

pub mod backend;
mod core;
mod pipeline;
mod rebalance;
mod recovery;
mod scheme;
#[cfg(test)]
mod tests;

pub use backend::BackendKind;
pub use pipeline::PipelinePolicy;
pub use scheme::SchedulerMode;

use crate::admission::{BatchKey, BatchPolicy, QueuePolicy, QueuedJob, RateLimit, TokenBucket};
use crate::event::{EventKind, EventQueue, JobId};
use crate::metrics::ServiceReport;
use crate::workload::JobSpec;
use backend::ExecutionBackend;
use core::ResidentJob;
use s2c2_cluster::{ChurnProcess, ClusterSpec, CommModel, ComputeModel};
use s2c2_core::speed_tracker::SpeedTracker;
use s2c2_telemetry::{Telemetry, TraceEvent, TraceEventKind, TraceSink};
use s2c2_trace::BoxedSpeedModel;
use std::collections::BTreeMap;

/// Records the event built by `f` into an enabled telemetry bundle.
///
/// A free function over the `Option` field (rather than a method on the
/// engine) so emission sites can run while other engine fields are
/// borrowed; the closure is never evaluated when telemetry is off, which
/// is the zero-cost-when-disabled guarantee.
#[inline]
pub(crate) fn trace_into(
    telemetry: &mut Option<Telemetry>,
    time: f64,
    f: impl FnOnce() -> TraceEventKind,
) {
    if let Some(tel) = telemetry.as_mut() {
        tel.trace.record(TraceEvent { time, kind: f() });
    }
}

/// Counts one recovery-ladder transition (`rung` in `1..=5`) into the
/// report — the degraded rungs 2 and 4 also into
/// [`ServiceReport::degraded_iterations`] — and records its
/// `RecoveryRung` trace event. Every transition goes through here, so
/// the report's counts and the trace cannot diverge;
/// [`s2c2_telemetry::TraceBuffer::rung_counts`] recounts the trace
/// independently as the cross-check.
pub(crate) fn record_rung(
    report: &mut ServiceReport,
    telemetry: &mut Option<Telemetry>,
    time: f64,
    job: JobId,
    generation: u64,
    rung: u8,
) {
    report.recovery_rung_counts[usize::from(rung - 1)] += 1;
    if rung == 2 || rung == 4 {
        report.degraded_iterations += 1;
    }
    trace_into(telemetry, time, || TraceEventKind::RecoveryRung {
        job,
        generation,
        rung,
    });
}

/// Worker churn parameters (see [`ChurnProcess`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Per-epoch probability an up worker departs.
    pub p_fail: f64,
    /// Per-epoch probability a departed worker rejoins.
    pub p_recover: f64,
    /// Availability floor (keep ≥ the largest job `k`, or coded jobs can
    /// wait indefinitely for capacity).
    pub min_up: usize,
}

/// Deadline-aware share boosting: the capacity-layer complement to
/// earliest-deadline *admission*.
///
/// A resident job carrying an SLO is watched at every share recompute
/// point (iteration boundaries, resident-set changes, epoch ticks): once
/// the fraction of its SLO budget still remaining drops below
/// `slack_threshold`, its effective capacity weight is multiplied by
/// `factor` for the rest of its residency (sticky — slack regained by
/// the boost does not un-boost it, which would oscillate). Activations
/// are counted in [`ServiceReport::boost_activations`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlineBoost {
    /// Boost when `remaining_slack / total_SLO` falls below this
    /// fraction (in `(0, 1]`).
    pub slack_threshold: f64,
    /// Effective-weight multiplier applied to at-risk jobs (≥ 1).
    pub factor: f64,
}

/// Engine configuration.
#[derive(Debug)]
pub struct ServeConfig {
    /// Scheduling mode.
    pub scheduler: SchedulerMode,
    /// Execution backend: timing-only simulation (default), master-side
    /// verified numerics, or real OS-thread workers.
    pub backend: BackendKind,
    /// Admission-queue policy.
    pub policy: QueuePolicy,
    /// Maximum concurrently-resident jobs (the multiprogramming level).
    pub max_resident: usize,
    /// §4.3 timeout margin over the planned iteration span.
    pub timeout_margin: f64,
    /// Seconds between speed/churn resampling epochs.
    pub epoch: f64,
    /// Threads each worker devotes to its matvec. The timing model charges
    /// the near-linear scaling measured for row-partitioned
    /// [`s2c2_linalg::parallel::par_matvec`]: `1 + 0.9 · (threads − 1)`.
    pub worker_threads: usize,
    /// Optional worker churn.
    pub churn: Option<ChurnConfig>,
    /// Iteration restarts tolerated before a job is failed.
    pub max_retries: usize,
    /// Hard event budget (guards against configuration-induced livelock).
    pub max_events: u64,
    /// Deadline admission control: refuse jobs whose SLO cannot be met
    /// even by the whole pool serving them alone (optimistic bound —
    /// only provably-hopeless jobs are rejected). Rejected jobs resolve
    /// immediately as failed with the `rejected` flag set.
    pub reject_infeasible_deadlines: bool,
    /// Per-tenant token-bucket rate limits on arrival admission. Tenants
    /// without an entry are unlimited; a tenant that exhausts its bucket
    /// has the arrival refused on the spot (recorded `rate_limited`,
    /// disjoint from deadline rejections).
    pub tenant_rate_limits: BTreeMap<u32, RateLimit>,
    /// Optional deadline-aware share boosting for at-risk resident jobs.
    pub deadline_boost: Option<DeadlineBoost>,
    /// Batching/coalescing of queued jobs sharing a model matrix and
    /// code geometry onto one encode/dispatch round (see
    /// [`BatchPolicy`]). Off by default — the unbatched engine is
    /// byte-identical to the pre-batching behavior.
    pub batch: BatchPolicy,
    /// Cross-round pipelining: how many of a job's iterations may be in
    /// flight concurrently (see [`PipelinePolicy`]). Results always
    /// commit in round order. Off by default — `Off` and `Depth(1)` are
    /// byte-identical to the barrier engine.
    pub pipeline: PipelinePolicy,
    /// Record structured trace events and a metrics registry during the
    /// run, surfaced as [`ServiceReport::telemetry`]. Off by default;
    /// the disabled path never constructs an event (emission sites take
    /// closures that are simply not evaluated), so existing outputs stay
    /// byte-identical.
    pub telemetry: bool,
}

impl ServeConfig {
    /// Sensible defaults around the given scheduling mode.
    #[must_use]
    pub fn new(scheduler: SchedulerMode) -> Self {
        ServeConfig {
            scheduler,
            backend: BackendKind::Sim,
            policy: QueuePolicy::Fifo,
            max_resident: 4,
            timeout_margin: 0.25,
            epoch: 0.25,
            worker_threads: 1,
            churn: None,
            max_retries: 3,
            max_events: 2_000_000,
            reject_infeasible_deadlines: false,
            tenant_rate_limits: BTreeMap::new(),
            deadline_boost: None,
            batch: BatchPolicy::Off,
            pipeline: PipelinePolicy::Off,
            telemetry: false,
        }
    }
}

/// Engine failure modes.
#[derive(Debug)]
pub enum ServeError {
    /// Rejected configuration.
    InvalidConfig(String),
    /// The event queue drained while jobs were still queued or resident.
    Stalled {
        /// Jobs still in the admission queue.
        pending: usize,
        /// Jobs still resident.
        resident: usize,
    },
    /// The event budget was exhausted (livelock guard).
    Runaway {
        /// Events processed before giving up.
        events: u64,
    },
    /// A numeric execution backend failed (encode/decode error, a
    /// decoded iteration diverging from the sequential reference, or a
    /// threaded worker failing to reply).
    Backend(String),
    /// A submitted [`JobSpec`] carried an invalid QoS field — a NaN,
    /// infinite, zero, or negative `weight`, or a non-positive or
    /// non-finite `deadline`. Rejected with a typed error at arrival,
    /// before the value can reach the weight-normalization and
    /// queue-ordering comparators.
    InvalidJob {
        /// The offending job.
        job: crate::event::JobId,
        /// What was wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::InvalidConfig(msg) => write!(f, "invalid serve configuration: {msg}"),
            ServeError::Stalled { pending, resident } => write!(
                f,
                "engine stalled with {pending} queued and {resident} resident jobs"
            ),
            ServeError::Runaway { events } => {
                write!(f, "event budget exhausted after {events} events")
            }
            ServeError::Backend(msg) => write!(f, "execution backend failed: {msg}"),
            ServeError::InvalidJob { job, reason } => {
                write!(f, "invalid job {job}: {reason}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Effective speedup of `threads`-way row-partitioned matvec.
pub(crate) fn thread_speedup(threads: usize) -> f64 {
    1.0 + 0.9 * threads.saturating_sub(1) as f64
}

/// The event-driven multi-job service engine.
pub struct ServiceEngine {
    cfg: ServeConfig,
    models: Vec<BoxedSpeedModel>,
    comm: CommModel,
    compute: ComputeModel,
    decode_flops_per_sec: f64,
    churn: ChurnProcess,
    tracker: SpeedTracker,
    speeds: Vec<f64>,
    up: Vec<bool>,
    now: f64,
    queue: EventQueue,
    pending: Vec<QueuedJob>,
    resident: BTreeMap<JobId, ResidentJob>,
    arrivals_remaining: usize,
    next_generation: u64,
    report: ServiceReport,
    backend: Box<dyn ExecutionBackend>,
    buckets: BTreeMap<u32, TokenBucket>,
    /// Trace buffer + metrics registry, present only when
    /// [`ServeConfig::telemetry`] is on. Every emission site goes
    /// through [`trace_into`], so the `None` path costs one branch.
    telemetry: Option<Telemetry>,
    /// Batch-flush events already scheduled, by `(key, instant)` —
    /// admission re-plans a held group on every arrival during its
    /// window, and without this dedup each re-plan would enqueue
    /// another identical no-op flush.
    pending_flushes: Vec<(BatchKey, f64)>,
    /// Retired rounds' task records, pooled for reuse by the next
    /// dispatch (see [`pipeline::ScratchPool`]).
    scratch: pipeline::ScratchPool,
}

impl std::fmt::Debug for ServiceEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceEngine")
            .field("workers", &self.models.len())
            .field("backend", &self.cfg.backend)
            .field("now", &self.now)
            .field("pending", &self.pending.len())
            .field("resident", &self.resident.len())
            .finish()
    }
}

impl ServiceEngine {
    /// Builds the engine over a cluster specification.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] on degenerate knobs.
    pub fn new(spec: ClusterSpec, cfg: ServeConfig) -> Result<Self, ServeError> {
        let n = spec.n();
        if cfg.max_resident == 0 {
            return Err(ServeError::InvalidConfig("max_resident must be ≥ 1".into()));
        }
        if !(cfg.epoch.is_finite() && cfg.epoch > 0.0) {
            return Err(ServeError::InvalidConfig("epoch must be positive".into()));
        }
        if !(cfg.timeout_margin.is_finite() && cfg.timeout_margin >= 0.0) {
            return Err(ServeError::InvalidConfig(
                "timeout margin must be non-negative".into(),
            ));
        }
        if cfg.worker_threads == 0 {
            return Err(ServeError::InvalidConfig(
                "worker_threads must be ≥ 1".into(),
            ));
        }
        for (tenant, limit) in &cfg.tenant_rate_limits {
            if !(limit.rate.is_finite() && limit.rate > 0.0) {
                return Err(ServeError::InvalidConfig(format!(
                    "tenant {tenant} rate limit must have a positive rate"
                )));
            }
            if !(limit.burst.is_finite() && limit.burst >= 1.0) {
                return Err(ServeError::InvalidConfig(format!(
                    "tenant {tenant} rate limit must allow a burst of at least one job"
                )));
            }
        }
        match cfg.batch {
            BatchPolicy::Off => {}
            BatchPolicy::SizeThreshold { max_batch } => {
                if max_batch < 2 {
                    return Err(ServeError::InvalidConfig(
                        "batch size threshold must be ≥ 2 (use BatchPolicy::Off to disable)".into(),
                    ));
                }
            }
            BatchPolicy::TimeWindow { window, max_batch } => {
                if !(window.is_finite() && window > 0.0) {
                    return Err(ServeError::InvalidConfig(
                        "batch time window must be finite and positive".into(),
                    ));
                }
                if max_batch < 2 {
                    return Err(ServeError::InvalidConfig(
                        "batch size cap must be ≥ 2 (use BatchPolicy::Off to disable)".into(),
                    ));
                }
            }
        }
        if cfg.pipeline == PipelinePolicy::Depth(0) {
            return Err(ServeError::InvalidConfig(
                "pipeline depth must be ≥ 1 (use PipelinePolicy::Off to disable)".into(),
            ));
        }
        if let Some(boost) = &cfg.deadline_boost {
            if !(boost.slack_threshold.is_finite()
                && boost.slack_threshold > 0.0
                && boost.slack_threshold <= 1.0)
            {
                return Err(ServeError::InvalidConfig(
                    "deadline boost slack_threshold must be in (0, 1]".into(),
                ));
            }
            if !(boost.factor.is_finite() && boost.factor >= 1.0) {
                return Err(ServeError::InvalidConfig(
                    "deadline boost factor must be ≥ 1".into(),
                ));
            }
        }
        let churn = match &cfg.churn {
            Some(c) => {
                if c.min_up > n {
                    return Err(ServeError::InvalidConfig(
                        "churn min_up exceeds pool size".into(),
                    ));
                }
                ChurnProcess::new(n, c.p_fail, c.p_recover, c.min_up, 0x5EEC)
            }
            None => ChurnProcess::none(n),
        };
        let buckets = cfg
            .tenant_rate_limits
            .iter()
            .map(|(&tenant, &limit)| (tenant, TokenBucket::new(limit)))
            .collect();
        Ok(ServiceEngine {
            tracker: SpeedTracker::new(&cfg.scheduler.predictor(), n),
            backend: backend::make_backend(cfg.backend, n),
            telemetry: cfg.telemetry.then(Telemetry::new),
            cfg,
            models: spec.workers,
            comm: spec.comm,
            compute: spec.compute,
            decode_flops_per_sec: spec.decode_flops_per_sec,
            churn,
            speeds: vec![1.0; n],
            up: vec![true; n],
            now: 0.0,
            queue: EventQueue::new(),
            pending: Vec::new(),
            resident: BTreeMap::new(),
            arrivals_remaining: 0,
            next_generation: 1,
            report: ServiceReport {
                busy_time: vec![0.0; n],
                ..ServiceReport::default()
            },
            buckets,
            pending_flushes: Vec::new(),
            scratch: pipeline::ScratchPool::default(),
        })
    }

    /// Number of pool workers.
    #[must_use]
    pub fn n(&self) -> usize {
        self.models.len()
    }

    /// Runs the workload (`(arrival_time, spec)` pairs) to completion and
    /// returns the service report.
    ///
    /// # Errors
    ///
    /// [`ServeError::Stalled`] if the event queue drains with jobs left
    /// (configuration error — e.g. churn floor below every job's `k`);
    /// [`ServeError::Runaway`] if the event budget is exhausted;
    /// [`ServeError::Backend`] if a numeric backend fails (decode error,
    /// verification divergence, or an unresponsive threaded worker).
    pub fn run(mut self, workload: &[(f64, JobSpec)]) -> Result<ServiceReport, ServeError> {
        let outcome = self.drive(workload);
        // Always dismantle the backend (joins worker threads, merges
        // cache/verification counters into the report) — including on
        // the error paths, or a failed run would leak OS threads.
        self.backend.finish(&mut self.report);
        outcome?;

        // Makespan is the time the last job resolved, not the time the
        // last (possibly stale-straggler) event drained — throughput
        // should not be diluted by work nobody waited for.
        self.report.makespan = self
            .report
            .jobs
            .iter()
            .map(|j| j.finished)
            .fold(0.0, f64::max);
        if !self.pending.is_empty() || !self.resident.is_empty() {
            return Err(ServeError::Stalled {
                pending: self.pending.len(),
                resident: self.resident.len(),
            });
        }
        self.report.telemetry = self.telemetry.take();
        Ok(self.report)
    }

    /// The event loop proper: seeds arrivals and epoch ticks, then pops
    /// until drained or the event budget runs out.
    fn drive(&mut self, workload: &[(f64, JobSpec)]) -> Result<(), ServeError> {
        // Initial samples: epoch 0.
        for (w, m) in self.models.iter_mut().enumerate() {
            self.speeds[w] = m.speed_at(0);
        }
        self.up.copy_from_slice(self.churn.advance_to(0));
        self.arrivals_remaining = workload.len();
        for (t, spec) in workload {
            self.queue.push(*t, EventKind::JobArrival(spec.clone()));
        }
        if self.work_remains() {
            self.queue
                .push(self.cfg.epoch, EventKind::EpochTick { epoch: 1 });
        }

        while let Some((t, kind)) = self.queue.pop() {
            self.now = t;
            self.report.events_processed += 1;
            if self.report.events_processed > self.cfg.max_events {
                return Err(ServeError::Runaway {
                    events: self.report.events_processed,
                });
            }
            match kind {
                EventKind::JobArrival(spec) => self.on_arrival(spec)?,
                EventKind::TaskComplete {
                    job,
                    worker,
                    generation,
                    redo,
                } => self.on_task_complete(job, worker, generation, redo, t)?,
                EventKind::WorkerSpeedChange { worker, speed } => self.speeds[worker] = speed,
                EventKind::Timeout {
                    job,
                    generation,
                    arm,
                } => self.on_timeout(job, generation, arm)?,
                EventKind::WorkerChurn { worker, up } => self.on_churn(worker, up)?,
                EventKind::EpochTick { epoch } => self.on_epoch_tick(epoch),
                // A batch window expired: drop the spent flush markers,
                // then re-run admission so the held group (plus
                // whatever mates accumulated) is flushed.
                EventKind::BatchFlush => {
                    self.pending_flushes.retain(|&(_, at)| at > t);
                    let pending = self.pending.len();
                    trace_into(&mut self.telemetry, t, || TraceEventKind::BatchFlush {
                        pending,
                    });
                    self.try_admit()?;
                }
            }
        }
        Ok(())
    }

    fn work_remains(&self) -> bool {
        self.arrivals_remaining > 0 || !self.pending.is_empty() || !self.resident.is_empty()
    }

    fn avail_speeds(&self) -> Vec<f64> {
        self.speeds
            .iter()
            .zip(self.up.iter())
            .map(|(&s, &u)| if u { s } else { 0.0 })
            .collect()
    }

    fn sample_queue_depth(&mut self) {
        self.report.queue_depth.push((self.now, self.pending.len()));
        let in_flight: usize = self.resident.values().map(|j| j.window.len()).sum();
        if let Some(tel) = self.telemetry.as_mut() {
            tel.metrics
                .sample("resident_jobs", self.now, self.resident.len() as f64);
            tel.metrics
                .sample("pipeline_depth", self.now, in_flight as f64);
        }
    }
}
