//! The correctness gate: every run's outputs are checked before any of
//! its timings are reported.

use s2c2_serve::{JobSpec, ServiceReport, TraceEventKind};
use std::collections::BTreeSet;

/// Largest relative decode error a verified round may show.
pub const MAX_DECODE_ERROR: f64 = 1e-6;

/// Everything about a run that lives on the virtual clock, and so must
/// repeat exactly for one seed: across repetitions, and between traced
/// and untraced runs.
#[derive(Debug, Clone, PartialEq)]
pub struct VirtualOutcome {
    completed: usize,
    failed: usize,
    events: u64,
    timeouts: usize,
    degraded_iterations: usize,
    rebalances: usize,
    batches_admitted: usize,
    batch_rounds: usize,
    rungs: [u64; 5],
    rounds_parked: u64,
    scratch_reuses: u64,
    encode_hits: u64,
    encode_misses: u64,
    verified_rounds: usize,
    max_decode_error: u64,
    makespan: u64,
    p50: u64,
    p95: u64,
    /// FNV-1a over every job record's fields, in report order.
    jobs_digest: u64,
    /// FNV-1a over every decoded output's bits, in report order.
    outputs_digest: u64,
}

impl VirtualOutcome {
    /// The virtual outcome of `report`.
    #[must_use]
    pub fn of(report: &ServiceReport) -> Self {
        let mut jobs = Fnv::new();
        for j in &report.jobs {
            jobs.u64(j.id);
            jobs.u64(u64::from(j.tenant));
            for t in [j.arrival, j.admitted, j.finished] {
                jobs.u64(t.to_bits());
            }
            jobs.u64(j.iterations as u64);
            jobs.u64(j.retries as u64);
            jobs.u64(
                u64::from(j.failed) | u64::from(j.rejected) << 1 | u64::from(j.rate_limited) << 2,
            );
        }
        let mut outputs = Fnv::new();
        for (id, y) in &report.job_outputs {
            outputs.u64(*id);
            for v in y {
                outputs.u64(v.to_bits());
            }
        }
        VirtualOutcome {
            completed: report.completed(),
            failed: report.failed(),
            events: report.events_processed,
            timeouts: report.timeouts,
            degraded_iterations: report.degraded_iterations,
            rebalances: report.rebalances,
            batches_admitted: report.batches_admitted,
            batch_rounds: report.batch_rounds,
            rungs: report.recovery_rung_counts,
            rounds_parked: report.rounds_parked,
            scratch_reuses: report.scratch_reuses,
            encode_hits: report.encode_cache_hits,
            encode_misses: report.encode_cache_misses,
            verified_rounds: report.verified_iterations,
            max_decode_error: report.max_decode_error.to_bits(),
            makespan: report.makespan.to_bits(),
            p50: report.latency_percentile(50.0).to_bits(),
            p95: report.latency_percentile(95.0).to_bits(),
            jobs_digest: jobs.finish(),
            outputs_digest: outputs.finish(),
        }
    }
}

/// Counts read off a traced run's event log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCounts {
    /// Every event the trace recorded.
    pub events: u64,
    /// `TaskDispatch` events (original and redo).
    pub dispatches: u64,
    /// `TaskComplete` events.
    pub completions: u64,
    /// `TaskComplete` events of original (not redo) tasks — the
    /// completions that feed the speed tracker.
    pub original_completions: u64,
    /// `TaskCancel` events.
    pub cancels: u64,
    /// `IterationStart` events: every planned round, restarts included.
    pub rounds: u64,
    /// `RecoveryRung` events by rung.
    pub rungs: [u64; 5],
    /// `JobComplete` events.
    pub jobs_completed: u64,
}

impl TraceCounts {
    /// Tallies the trace of a traced run (all zero for an untraced one).
    #[must_use]
    pub fn of(report: &ServiceReport) -> Self {
        let mut c = TraceCounts::default();
        let Some(tel) = &report.telemetry else {
            return c;
        };
        for e in tel.trace.events() {
            c.events += 1;
            match &e.kind {
                TraceEventKind::TaskDispatch { .. } => c.dispatches += 1,
                TraceEventKind::TaskComplete { redo, .. } => {
                    c.completions += 1;
                    c.original_completions += u64::from(!redo);
                }
                TraceEventKind::TaskCancel { .. } => c.cancels += 1,
                TraceEventKind::IterationStart { .. } => c.rounds += 1,
                TraceEventKind::RecoveryRung { rung, .. } => {
                    if let Some(slot) = c.rungs.get_mut(usize::from(*rung).wrapping_sub(1)) {
                        *slot += 1;
                    }
                }
                TraceEventKind::JobComplete { .. } => c.jobs_completed += 1,
                TraceEventKind::JobArrival { .. }
                | TraceEventKind::Malformed { .. }
                | TraceEventKind::RateLimited { .. }
                | TraceEventKind::Rejected { .. }
                | TraceEventKind::Admitted { .. }
                | TraceEventKind::BatchFormed { .. }
                | TraceEventKind::BatchFlush { .. }
                | TraceEventKind::Decode { .. }
                | TraceEventKind::Verify { .. }
                | TraceEventKind::IterationComplete { .. }
                | TraceEventKind::JobFailed { .. }
                | TraceEventKind::WorkerUp { .. }
                | TraceEventKind::WorkerDown { .. }
                | TraceEventKind::Rebalance { .. }
                | TraceEventKind::RoundParked { .. }
                | TraceEventKind::RoundRetired { .. }
                | TraceEventKind::PipelineStall { .. } => {}
            }
        }
        c
    }
}

/// Checks one run's report against the stream it served.
///
/// # Errors
///
/// What failed, as text.
pub fn check_run(
    workload: &[(f64, JobSpec)],
    report: &ServiceReport,
    numeric: bool,
    traced: bool,
) -> Result<(), String> {
    let attempted = workload.len();
    if report.completed() + report.failed() != attempted {
        return Err(format!(
            "completed {} + failed {} != attempted {attempted}",
            report.completed(),
            report.failed()
        ));
    }
    let submitted: BTreeSet<u64> = workload.iter().map(|(_, s)| s.id).collect();
    let recorded: BTreeSet<u64> = report.jobs.iter().map(|j| j.id).collect();
    if report.jobs.len() != attempted || submitted != recorded {
        return Err(format!(
            "{} job records for {attempted} submitted jobs, or their ids differ",
            report.jobs.len()
        ));
    }
    if numeric {
        if report.verified_iterations == 0 {
            return Err("a numeric workload verified no rounds".into());
        }
        if report.max_decode_error.is_nan() || report.max_decode_error > MAX_DECODE_ERROR {
            return Err(format!(
                "max decode error {:e} exceeds {MAX_DECODE_ERROR:e}",
                report.max_decode_error
            ));
        }
        if report.job_outputs.len() != report.completed() {
            return Err(format!(
                "{} decoded outputs for {} completed jobs",
                report.job_outputs.len(),
                report.completed()
            ));
        }
    }
    if traced {
        let c = TraceCounts::of(report);
        if c.rungs != report.recovery_rung_counts {
            return Err(format!(
                "trace rung counts {:?} differ from the report's {:?}",
                c.rungs, report.recovery_rung_counts
            ));
        }
        if c.jobs_completed != report.completed() as u64 {
            return Err(format!(
                "trace shows {} completed jobs, the report {}",
                c.jobs_completed,
                report.completed()
            ));
        }
    }
    Ok(())
}

/// Checks that a repetition reproduced the first run of its seed.
///
/// # Errors
///
/// Both outcomes, as text, when they differ.
pub fn check_repeat<T: PartialEq + std::fmt::Debug>(
    what: &str,
    first: &T,
    again: &T,
) -> Result<(), String> {
    if first == again {
        Ok(())
    } else {
        Err(format!(
            "{what} differ for one seed:\n  first: {first:?}\n  again: {again:?}"
        ))
    }
}

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
