//! Service-level metrics: the numbers an operator of a shared coded
//! computing service actually watches.
//!
//! The single-job layer reports per-iteration latency and wasted rows;
//! a multi-job service is judged instead by its *distributional* ones:
//! sojourn-time percentiles (p50/p95/p99), sustained throughput, worker
//! utilization, queue depth over time — and, per tenant, deadline hit
//! rates and achieved-vs-entitled capacity shares.
//!
//! # Semantics
//!
//! * **Makespan** is the instant the last job *resolved* (completed,
//!   failed, or was rejected) — not the time the last event drained.
//! * **Utilization** counts dedicated compute-seconds (a task running at
//!   fractional share `s` accrues `s` busy-seconds per wall second);
//!   busy time is truncated at makespan per worker, so utilization is
//!   always within `[0, 1]`.
//! * **Queue depth** integrates over `[0, makespan]` only; transition
//!   samples past makespan are ignored rather than diluting the mean.

use crate::event::JobId;
use s2c2_telemetry::{PhaseTotals, Telemetry};

/// Nearest-rank percentile of an ascending-sorted slice.
///
/// `p` is in `[0, 100]`; an empty slice yields 0 (a service that served
/// nothing has no tail).
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]`.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    if sorted.is_empty() {
        return 0.0;
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted ascending"
    );
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Lifecycle record of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Job id.
    pub id: JobId,
    /// Owning tenant.
    pub tenant: u32,
    /// Preset label the job was drawn from.
    pub preset: &'static str,
    /// Arrival (enqueue) time.
    pub arrival: f64,
    /// Admission time (start of service).
    pub admitted: f64,
    /// Completion (or failure/rejection) time.
    pub finished: f64,
    /// Iterations completed.
    pub iterations: usize,
    /// Iteration restarts forced by churn storms.
    pub retries: usize,
    /// Whether the job failed (exceeded its retry budget, was malformed,
    /// or was rejected at admission).
    pub failed: bool,
    /// Whether the job was rejected by deadline admission control
    /// (implies `failed`; it never held a residency slot).
    pub rejected: bool,
    /// Whether the job was refused by its tenant's token-bucket rate
    /// limit (implies `failed`; it never entered the admission queue).
    /// Disjoint from `rejected`, so operators can tell "your SLO was
    /// hopeless" from "you burst past your rate".
    pub rate_limited: bool,
    /// Capacity weight the job ran with.
    pub weight: f64,
    /// Relative SLO it arrived with, if any.
    pub deadline: Option<f64>,
    /// Total useful work (matrix elements over all iterations).
    pub work: f64,
}

impl JobRecord {
    /// Sojourn time: arrival to completion — the latency a user feels.
    #[must_use]
    pub fn latency(&self) -> f64 {
        self.finished - self.arrival
    }

    /// Time spent waiting in the admission queue.
    #[must_use]
    pub fn queueing_delay(&self) -> f64 {
        self.admitted - self.arrival
    }

    /// Time spent in service (admission to completion).
    #[must_use]
    pub fn service_time(&self) -> f64 {
        self.finished - self.admitted
    }

    /// Whether the job met its SLO: completed, and within its deadline
    /// if it carried one. Failed or rejected jobs are never on time;
    /// SLO-less completed jobs always are.
    #[must_use]
    pub fn on_time(&self) -> bool {
        !self.failed && self.deadline.map_or(true, |d| self.latency() <= d + 1e-12)
    }
}

/// Per-tenant QoS summary derived from the job records.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSummary {
    /// Tenant id.
    pub tenant: u32,
    /// Jobs the tenant submitted (resolved any way).
    pub jobs: usize,
    /// Jobs completed successfully.
    pub completed: usize,
    /// Jobs rejected by deadline admission control.
    pub rejected: usize,
    /// Jobs refused by the tenant's token-bucket rate limit (counted
    /// separately from deadline rejections).
    pub rate_limited: usize,
    /// Fraction of the tenant's deadline-carrying jobs that completed
    /// within their SLO (1.0 when it submitted none).
    pub on_time_ratio: f64,
    /// Median sojourn latency over the tenant's completed jobs.
    pub p50_latency: f64,
    /// 99th-percentile sojourn latency over the tenant's completed jobs.
    pub p99_latency: f64,
    /// Capacity the tenant was entitled to: its submitted weight mass
    /// over the total submitted weight mass.
    pub entitled_share: f64,
    /// Capacity it achieved while tenants were actually contending: its
    /// completed useful work over the total completed useful work, both
    /// censored at the earliest tenant drain (the instant the first
    /// tenant ran out of jobs). Without the censoring every tenant of a
    /// fully-drained closed workload would trivially converge to its
    /// submitted work fraction, hiding any share enforcement.
    pub achieved_share: f64,
}

/// Everything a finished engine run reports.
#[derive(Debug, Clone, Default)]
pub struct ServiceReport {
    /// Per-job lifecycle records, in completion order.
    pub jobs: Vec<JobRecord>,
    /// `(time, queued_jobs)` samples taken at every queue transition.
    pub queue_depth: Vec<(f64, usize)>,
    /// Per-worker accumulated busy (compute) time, in dedicated
    /// compute-seconds (fractional shares accrue fractionally).
    pub busy_time: Vec<f64>,
    /// Time the last job resolved (completed, failed, or rejected) —
    /// deliberately not the last drained event, so throughput is not
    /// diluted by stale straggler work nobody waited for.
    pub makespan: f64,
    /// Valid §4.3-style timeout firings (mis-prediction / churn recovery).
    pub timeouts: usize,
    /// Iterations that degraded to conventional semantics: degraded
    /// starts (rung 2) plus wait-outs (rung 4), counted with them.
    pub degraded_iterations: usize,
    /// Share rebalances applied when the resident set changed
    /// mid-iteration (the work-conserving path).
    pub rebalances: usize,
    /// Multi-member batches admitted (residency slots that carried ≥ 2
    /// coalesced jobs; solo admissions are not counted).
    pub batches_admitted: usize,
    /// Jobs that rode multi-member batches (the sum of those batches'
    /// member counts, so `batched_jobs / batches_admitted` is the mean
    /// coalesced batch size).
    pub batched_jobs: usize,
    /// Iteration rounds started with a stacked multi-RHS payload
    /// (`rhs > 1`) — each one an encode/dispatch/decode round that
    /// several jobs shared.
    pub batch_rounds: usize,
    /// Deadline-aware share boosts activated: resident jobs whose
    /// effective weight was bumped because their slack-to-deadline ratio
    /// dropped below [`crate::engine::DeadlineBoost::slack_threshold`].
    pub boost_activations: usize,
    /// Total events processed.
    pub events_processed: u64,
    /// Encode-cache lookups served from cache (numeric backends only;
    /// the timing-only backend never encodes).
    pub encode_cache_hits: u64,
    /// Encode-cache lookups that had to encode.
    pub encode_cache_misses: u64,
    /// Iterations whose decoded output a numeric backend checked against
    /// the sequential reference.
    pub verified_iterations: usize,
    /// Largest relative decode error a numeric backend observed across
    /// every verified iteration (0 when nothing was verified).
    pub max_decode_error: f64,
    /// Final-iteration decoded outputs per completed job, in completion
    /// order (numeric backends only; empty under the timing-only
    /// backend). The payload the parity tests compare across backends.
    pub job_outputs: Vec<(JobId, Vec<f64>)>,
    /// Recovery-ladder transitions per rung, indexed `[rung-1]`:
    /// `[0]` normal predict-feasible starts, `[1]` degraded starts,
    /// `[2]` redo-on-finished-workers recoveries, `[3]` wait-out
    /// escalations, `[4]` abandon-and-restart escalations. Mirrors the
    /// trace's `RecoveryRung` events exactly.
    pub recovery_rung_counts: [u64; 5],
    /// Virtual-clock phase split of every completed iteration round.
    /// Deterministic and backend-independent; by construction
    /// `dispatch + compute + collect + decode` equals
    /// [`iteration_time_total`](Self::iteration_time_total).
    pub phase_virtual: PhaseTotals,
    /// Wall-clock phase time measured by the numeric backends (encode /
    /// decode / verify in the master, worker busy time from real
    /// threads). Nondeterministic; all-zero under the timing-only `Sim`
    /// backend, and never part of diffed outputs.
    pub phase_wall: PhaseTotals,
    /// Total virtual service time of completed iteration rounds
    /// (dispatch to decoded result), the denominator the virtual phase
    /// split accounts for.
    pub iteration_time_total: f64,
    /// Completed rounds that parked behind an unretired predecessor
    /// under pipelined serving ([`crate::engine::PipelinePolicy`]);
    /// always 0 at depth 1.
    pub rounds_parked: u64,
    /// Total virtual seconds completed rounds spent parked waiting for
    /// in-order commit (the per-round park durations summed).
    pub pipeline_stall_time: f64,
    /// Virtual seconds of cross-round overlap the pipeline bought: for
    /// every retired round, the time between its dispatch and the
    /// previous round's retirement (0 at depth 1, where rounds are
    /// strictly sequential).
    pub pipeline_overlap_time: f64,
    /// Rounds whose per-worker task records came from the engine's
    /// scratch pool instead of fresh allocation (a retired round's
    /// records are reused), plus stacked input buffers the numeric
    /// backends reused.
    pub scratch_reuses: u64,
    /// Trace buffer + metrics registry, present when the run had
    /// telemetry enabled ([`crate::engine::ServeConfig::telemetry`]).
    pub telemetry: Option<Telemetry>,
}

impl ServiceReport {
    /// Completed (non-failed) job count.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.jobs.iter().filter(|j| !j.failed).count()
    }

    /// Failed job count (includes rejections).
    #[must_use]
    pub fn failed(&self) -> usize {
        self.jobs.iter().filter(|j| j.failed).count()
    }

    /// Jobs rejected by deadline admission control.
    #[must_use]
    pub fn rejected(&self) -> usize {
        self.jobs.iter().filter(|j| j.rejected).count()
    }

    /// Jobs refused by tenant token-bucket rate limits.
    #[must_use]
    pub fn rate_limited(&self) -> usize {
        self.jobs.iter().filter(|j| j.rate_limited).count()
    }

    /// Mean member count of the multi-member batches admitted, or 0
    /// when nothing was coalesced.
    #[must_use]
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches_admitted == 0 {
            0.0
        } else {
            self.batched_jobs as f64 / self.batches_admitted as f64
        }
    }

    /// Encode-cache hit rate (`hits / lookups`), or 0 when the backend
    /// never consulted the cache.
    #[must_use]
    pub fn encode_cache_hit_rate(&self) -> f64 {
        let total = self.encode_cache_hits + self.encode_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.encode_cache_hits as f64 / total as f64
        }
    }

    /// Ascending-sorted sojourn latencies of completed jobs.
    #[must_use]
    pub fn latencies(&self) -> Vec<f64> {
        Self::latencies_of(self.jobs.iter())
    }

    fn latencies_of<'a>(jobs: impl IntoIterator<Item = &'a JobRecord>) -> Vec<f64> {
        let mut l: Vec<f64> = jobs
            .into_iter()
            .filter(|j| !j.failed)
            .map(JobRecord::latency)
            .collect();
        l.sort_by(f64::total_cmp);
        l
    }

    /// Nearest-rank sojourn-latency [`percentile`] (`p` in `[0, 100]`)
    /// over completed jobs.
    #[must_use]
    pub fn latency_percentile(&self, p: f64) -> f64 {
        percentile(&self.latencies(), p)
    }

    /// Mean sojourn latency over completed jobs.
    #[must_use]
    pub fn mean_latency(&self) -> f64 {
        let l = self.latencies();
        if l.is_empty() {
            0.0
        } else {
            l.iter().sum::<f64>() / l.len() as f64
        }
    }

    /// Completed jobs per second of makespan.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.makespan > 0.0 {
            self.completed() as f64 / self.makespan
        } else {
            0.0
        }
    }

    /// Pool utilization: busy worker-seconds over available
    /// worker-seconds, with each worker's busy time truncated at
    /// makespan. A worker cannot be busier than the service horizon, so
    /// anything above is stale straggler work nobody waited for (the
    /// engine refunds it, but the truncation keeps the invariant even
    /// under accounting drift). Always within `[0, 1]`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if self.makespan <= 0.0 || self.busy_time.is_empty() {
            return 0.0;
        }
        let busy: f64 = self
            .busy_time
            .iter()
            .map(|&b| b.clamp(0.0, self.makespan))
            .sum();
        busy / (self.makespan * self.busy_time.len() as f64)
    }

    /// Time-weighted mean admission-queue depth over `[0, makespan]`.
    ///
    /// The depth is 0 before the first transition sample, piecewise
    /// constant between samples, and held from the last pre-makespan
    /// sample to makespan; samples past makespan are ignored (they would
    /// dilute the mean with time no job was waiting on).
    #[must_use]
    pub fn mean_queue_depth(&self) -> f64 {
        if self.makespan <= 0.0 || self.queue_depth.is_empty() {
            return 0.0;
        }
        let mut area = 0.0;
        let mut prev_t = 0.0;
        let mut depth = 0.0;
        for &(t, d) in &self.queue_depth {
            let t_clamped = t.clamp(0.0, self.makespan);
            area += depth * (t_clamped - prev_t).max(0.0);
            prev_t = prev_t.max(t_clamped);
            if t >= self.makespan {
                break;
            }
            depth = d as f64;
        }
        area += depth * (self.makespan - prev_t).max(0.0);
        area / self.makespan
    }

    /// Peak admission-queue depth.
    #[must_use]
    pub fn max_queue_depth(&self) -> usize {
        self.queue_depth.iter().map(|&(_, d)| d).max().unwrap_or(0)
    }

    /// Fraction of deadline-carrying jobs that completed within their
    /// SLO (late completions, failures, and rejections all count as
    /// misses). 1.0 when no job carried a deadline.
    #[must_use]
    pub fn on_time_ratio(&self) -> f64 {
        Self::on_time_ratio_of(self.jobs.iter())
    }

    fn on_time_ratio_of<'a>(jobs: impl IntoIterator<Item = &'a JobRecord>) -> f64 {
        let (mut with_deadline, mut on_time) = (0usize, 0usize);
        for j in jobs {
            if j.deadline.is_some() {
                with_deadline += 1;
                if j.on_time() {
                    on_time += 1;
                }
            }
        }
        if with_deadline == 0 {
            1.0
        } else {
            on_time as f64 / with_deadline as f64
        }
    }

    /// Per-tenant QoS summaries, ascending by tenant id.
    ///
    /// `entitled_share` is the tenant's submitted weight mass over the
    /// total; `achieved_share` its completed-work fraction censored at
    /// the earliest tenant drain — a tenant whose jobs weigh 2× should
    /// achieve ≈ 2× a weight-1 tenant's work share under saturation.
    #[must_use]
    pub fn tenant_summaries(&self) -> Vec<TenantSummary> {
        let mut tenants: Vec<u32> = self.jobs.iter().map(|j| j.tenant).collect();
        tenants.sort_unstable();
        tenants.dedup();
        let total_weight: f64 = self.jobs.iter().map(|j| j.weight).sum();
        // Contention horizon: the earliest instant some tenant ran dry.
        let horizon = tenants
            .iter()
            .filter_map(|&t| {
                self.jobs
                    .iter()
                    .filter(|j| j.tenant == t && !j.failed)
                    .map(|j| j.finished)
                    .fold(None, |acc: Option<f64>, f| {
                        Some(acc.map_or(f, |a| a.max(f)))
                    })
            })
            .fold(f64::INFINITY, f64::min);
        let censored_work = |t: u32| -> f64 {
            self.jobs
                .iter()
                .filter(|j| j.tenant == t && !j.failed && j.finished <= horizon + 1e-12)
                .map(|j| j.work)
                .sum()
        };
        let total_censored_work: f64 = tenants.iter().map(|&t| censored_work(t)).sum();
        tenants
            .into_iter()
            .map(|tenant| {
                let mine: Vec<&JobRecord> =
                    self.jobs.iter().filter(|j| j.tenant == tenant).collect();
                let lat = Self::latencies_of(mine.iter().copied());
                let weight_mass: f64 = mine.iter().map(|j| j.weight).sum();
                let done_work: f64 = censored_work(tenant);
                TenantSummary {
                    tenant,
                    jobs: mine.len(),
                    completed: mine.iter().filter(|j| !j.failed).count(),
                    rejected: mine.iter().filter(|j| j.rejected).count(),
                    rate_limited: mine.iter().filter(|j| j.rate_limited).count(),
                    on_time_ratio: Self::on_time_ratio_of(mine.iter().copied()),
                    p50_latency: percentile(&lat, 50.0),
                    p99_latency: percentile(&lat, 99.0),
                    entitled_share: if total_weight > 0.0 {
                        weight_mass / total_weight
                    } else {
                        0.0
                    },
                    achieved_share: if total_censored_work > 0.0 {
                        done_work / total_censored_work
                    } else {
                        0.0
                    },
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: JobId, arrival: f64, admitted: f64, finished: f64, failed: bool) -> JobRecord {
        JobRecord {
            id,
            tenant: 0,
            preset: "small",
            arrival,
            admitted,
            finished,
            iterations: 4,
            retries: 0,
            failed,
            rejected: false,
            rate_limited: false,
            weight: 1.0,
            deadline: None,
            work: 100.0,
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 95.0), 10.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn percentile_edge_cases() {
        // Empty: a service that served nothing has no tail.
        assert_eq!(percentile(&[], 0.0), 0.0);
        assert_eq!(percentile(&[], 100.0), 0.0);
        // Single sample dominates every percentile.
        for p in [0.0, 50.0, 100.0] {
            assert_eq!(percentile(&[7.25], p), 7.25);
        }
        // p = 0 is the minimum, p = 100 the maximum.
        let v = vec![1.5, 2.5, 9.0];
        assert_eq!(percentile(&v, 0.0), 1.5);
        assert_eq!(percentile(&v, 100.0), 9.0);
    }

    #[test]
    fn job_record_timings() {
        let j = record(0, 1.0, 2.5, 7.0, false);
        assert!((j.latency() - 6.0).abs() < 1e-12);
        assert!((j.queueing_delay() - 1.5).abs() < 1e-12);
        assert!((j.service_time() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn on_time_classification() {
        let mut j = record(0, 1.0, 2.0, 4.0, false); // latency 3.0
        assert!(j.on_time(), "no SLO -> always on time");
        j.deadline = Some(3.5);
        assert!(j.on_time());
        j.deadline = Some(2.5);
        assert!(!j.on_time());
        j.deadline = Some(3.5);
        j.failed = true;
        assert!(!j.on_time(), "failed jobs are never on time");
    }

    #[test]
    fn report_aggregates_exclude_failures() {
        let report = ServiceReport {
            jobs: vec![
                record(0, 0.0, 0.0, 2.0, false),
                record(1, 0.0, 1.0, 4.0, false),
                record(2, 0.0, 1.0, 9.0, true),
            ],
            makespan: 10.0,
            busy_time: vec![5.0, 2.5],
            ..ServiceReport::default()
        };
        assert_eq!(report.completed(), 2);
        assert_eq!(report.failed(), 1);
        assert_eq!(report.rejected(), 0);
        assert_eq!(report.latencies(), vec![2.0, 4.0]);
        assert!((report.mean_latency() - 3.0).abs() < 1e-12);
        assert!((report.throughput() - 0.2).abs() < 1e-12);
        assert!((report.utilization() - 0.375).abs() < 1e-12);
    }

    #[test]
    fn utilization_truncates_per_worker_busy_at_makespan() {
        // Worker 0 carries 14 busy-seconds against a 10-second makespan
        // (stale straggler work past the last resolution): the truncated
        // utilization is (10 + 5) / (10 * 2), never above 1.
        let report = ServiceReport {
            makespan: 10.0,
            busy_time: vec![14.0, 5.0],
            ..ServiceReport::default()
        };
        assert!((report.utilization() - 0.75).abs() < 1e-12);
        let saturated = ServiceReport {
            makespan: 10.0,
            busy_time: vec![14.0, 22.0],
            ..ServiceReport::default()
        };
        assert!(saturated.utilization() <= 1.0);
        assert!((saturated.utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn queue_depth_time_weighting() {
        let report = ServiceReport {
            queue_depth: vec![(0.0, 0), (1.0, 2), (3.0, 1), (4.0, 1)],
            makespan: 4.0,
            ..ServiceReport::default()
        };
        // 0·1 + 2·2 + 1·1 over a 4-second makespan.
        assert!((report.mean_queue_depth() - 1.25).abs() < 1e-12);
        assert_eq!(report.max_queue_depth(), 2);
    }

    #[test]
    fn queue_depth_ignores_post_makespan_samples() {
        // Samples extend to t = 8 but the last job resolved at 4: the
        // mean must integrate over [0, 4] only — not dilute the 2-deep
        // first half with post-makespan emptiness.
        let report = ServiceReport {
            queue_depth: vec![(0.0, 2), (2.0, 1), (6.0, 3), (8.0, 0)],
            makespan: 4.0,
            ..ServiceReport::default()
        };
        // 2·2 + 1·2 over 4 seconds = 1.5 (the (6,3)/(8,0) tail ignored).
        assert!((report.mean_queue_depth() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn queue_depth_holds_last_depth_to_makespan() {
        let report = ServiceReport {
            queue_depth: vec![(1.0, 4)],
            makespan: 3.0,
            ..ServiceReport::default()
        };
        // Depth 0 over [0,1), then 4 held over [1,3]: 8/3.
        assert!((report.mean_queue_depth() - 8.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn on_time_ratio_counts_misses_failures_and_rejections() {
        let mut on_time = record(0, 0.0, 0.0, 1.0, false);
        on_time.deadline = Some(2.0);
        let mut late = record(1, 0.0, 0.0, 5.0, false);
        late.deadline = Some(2.0);
        let mut rejected = record(2, 0.0, 0.0, 0.0, true);
        rejected.deadline = Some(2.0);
        rejected.rejected = true;
        let no_slo = record(3, 0.0, 0.0, 50.0, false);
        let report = ServiceReport {
            jobs: vec![on_time, late, rejected, no_slo],
            ..ServiceReport::default()
        };
        // 1 of 3 deadline-carrying jobs on time; the SLO-less job is
        // out of the denominator.
        assert!((report.on_time_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(report.rejected(), 1);
        // No deadlines anywhere -> vacuous 1.0.
        let empty = ServiceReport {
            jobs: vec![record(0, 0.0, 0.0, 1.0, false)],
            ..ServiceReport::default()
        };
        assert_eq!(empty.on_time_ratio(), 1.0);
    }

    #[test]
    fn tenant_summaries_split_shares() {
        let mut t0 = record(0, 0.0, 0.0, 2.0, false);
        t0.work = 100.0;
        let mut t1a = record(1, 0.0, 0.0, 1.0, false);
        t1a.tenant = 1;
        t1a.weight = 2.0;
        t1a.work = 200.0;
        let mut t1b = record(2, 0.0, 0.0, 3.0, false);
        t1b.tenant = 1;
        t1b.weight = 2.0;
        t1b.work = 100.0;
        let report = ServiceReport {
            jobs: vec![t0, t1a, t1b],
            ..ServiceReport::default()
        };
        let tenants = report.tenant_summaries();
        assert_eq!(tenants.len(), 2);
        assert_eq!(tenants[0].tenant, 0);
        assert_eq!(tenants[1].tenant, 1);
        assert!((tenants[0].entitled_share - 0.2).abs() < 1e-12);
        assert!((tenants[1].entitled_share - 0.8).abs() < 1e-12);
        // Contention horizon: tenant 0 drains at t = 2.0, so only work
        // finished by then counts — 100 for tenant 0, 200 for tenant 1
        // (t1b at t = 3.0 is censored away).
        assert!((tenants[0].achieved_share - 1.0 / 3.0).abs() < 1e-12);
        assert!((tenants[1].achieved_share - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(tenants[1].jobs, 2);
        assert_eq!(tenants[1].completed, 2);
        assert!((tenants[1].p50_latency - 1.0).abs() < 1e-12);
        assert!((tenants[1].p99_latency - 3.0).abs() < 1e-12);
    }

    #[test]
    fn tenant_summaries_ordered_by_id_regardless_of_record_order() {
        // Records arrive in completion order, which interleaves tenants
        // arbitrarily; the summaries must come back ascending by tenant
        // id every time — CI diffs two runs byte-for-byte, so no
        // report vector may depend on map iteration order.
        let mut jobs = Vec::new();
        for (i, tenant) in [7u32, 2, 9, 2, 0, 7, 9].iter().enumerate() {
            let mut j = record(i as JobId, 0.0, 0.0, 1.0 + i as f64, false);
            j.tenant = *tenant;
            jobs.push(j);
        }
        let report = ServiceReport {
            jobs,
            ..ServiceReport::default()
        };
        let tenants: Vec<u32> = report.tenant_summaries().iter().map(|t| t.tenant).collect();
        assert_eq!(tenants, vec![0, 2, 7, 9]);
        // And the whole derivation is a pure function of the records.
        assert_eq!(report.tenant_summaries(), report.tenant_summaries());
    }

    #[test]
    fn zero_makespan_report_is_nan_free() {
        // A run whose every job resolved at t = 0 (all rejected or
        // rate-limited on arrival) has zero makespan: every derived
        // metric must degrade to 0 (or a vacuous ratio), never NaN or
        // a division by zero.
        let mut rejected = record(0, 0.0, 0.0, 0.0, true);
        rejected.rejected = true;
        rejected.deadline = Some(1e-9);
        let mut limited = record(1, 0.0, 0.0, 0.0, true);
        limited.rate_limited = true;
        let report = ServiceReport {
            jobs: vec![rejected, limited],
            queue_depth: vec![(0.0, 0)],
            busy_time: vec![0.0; 4],
            makespan: 0.0,
            ..ServiceReport::default()
        };
        for v in [
            report.throughput(),
            report.utilization(),
            report.mean_queue_depth(),
            report.mean_latency(),
            report.latency_percentile(50.0),
            report.latency_percentile(99.0),
            report.on_time_ratio(),
            report.mean_batch_size(),
            report.encode_cache_hit_rate(),
        ] {
            assert!(v.is_finite(), "zero-makespan metric must be finite: {v}");
        }
        assert_eq!(report.completed(), 0);
        assert_eq!(report.on_time_ratio(), 0.0, "the SLO job missed");
        for t in report.tenant_summaries() {
            assert!(t.p50_latency.is_finite());
            assert!(t.p99_latency.is_finite());
            assert!(t.entitled_share.is_finite());
            assert!(t.achieved_share.is_finite());
            assert!(t.on_time_ratio.is_finite());
        }
    }

    #[test]
    fn mean_batch_size_guards_empty() {
        let mut r = ServiceReport::default();
        assert_eq!(r.mean_batch_size(), 0.0);
        r.batches_admitted = 2;
        r.batched_jobs = 7;
        assert!((r.mean_batch_size() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn rate_limited_counted_separately_from_rejections() {
        let mut limited = record(0, 0.0, 0.0, 0.0, true);
        limited.rate_limited = true;
        let mut rejected = record(1, 0.0, 0.0, 0.0, true);
        rejected.rejected = true;
        let served = record(2, 0.0, 0.0, 1.0, false);
        let report = ServiceReport {
            jobs: vec![limited, rejected, served],
            ..ServiceReport::default()
        };
        assert_eq!(report.rate_limited(), 1);
        assert_eq!(report.rejected(), 1);
        assert_eq!(report.failed(), 2);
        let t = report.tenant_summaries();
        assert_eq!(t[0].rate_limited, 1);
        assert_eq!(t[0].rejected, 1);
        assert_eq!(t[0].completed, 1);
    }

    #[test]
    fn encode_cache_hit_rate_from_counters() {
        let mut report = ServiceReport::default();
        assert_eq!(report.encode_cache_hit_rate(), 0.0);
        report.encode_cache_hits = 3;
        report.encode_cache_misses = 1;
        assert!((report.encode_cache_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = ServiceReport::default();
        assert_eq!(r.completed(), 0);
        assert_eq!(r.latency_percentile(99.0), 0.0);
        assert_eq!(r.throughput(), 0.0);
        assert_eq!(r.utilization(), 0.0);
        assert_eq!(r.mean_queue_depth(), 0.0);
        assert_eq!(r.on_time_ratio(), 1.0);
        assert!(r.tenant_summaries().is_empty());
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn out_of_range_percentile_rejected() {
        let _ = percentile(&[1.0], 101.0);
    }
}
