//! Resident-job state and the engine's event handlers.
//!
//! Everything here reacts to one popped event: arrivals feed the
//! admission queue ([`ServiceEngine::on_arrival`], with token-bucket
//! rate limiting), admission fills a job's in-flight round window
//! whose per-worker tasks are scheduled from the shared allocation
//! ([`ServiceEngine::dispatch_round`]), task completions mark their
//! task done and feed the speed predictor, and completed rounds decode
//! (via the execution backend) strictly in round order — a round that
//! finishes ahead of an earlier sibling parks until the window head
//! retires ([`ServiceEngine::retire_ready_rounds`]). Timeout and churn events
//! are handed to [`super::recovery`]; share rescaling lives in
//! [`super::rebalance`]; the window policy itself is
//! [`super::pipeline::PipelinePolicy`].
//!
//! A round ([`RunningIteration`]) holds one [`WorkerTasks`] record per
//! pool worker: an original and a redo [`Task`], each moving through
//! [`TaskState`] `Idle → Running → Done | Cancelled`. Cancels go through
//! [`RunningIteration::cancel`] only, and coverage is read only through
//! [`RunningIteration::tasks`] (and its done-only filter,
//! [`RunningIteration::done_results`]).

use super::backend::ExecutionBackend;
use super::{record_rung, thread_speedup, trace_into, ServeError, ServiceEngine};
use crate::admission::{batch_key, BatchKey, BatchPolicy, QueuedJob, ResidentInfo};
use crate::event::{EventKind, JobId};
use crate::metrics::JobRecord;
use crate::workload::JobSpec;
use s2c2_core::ChunkAssignment;
use s2c2_telemetry::{Telemetry, TraceEventKind};

/// Where one task stands in the §4.3 lifecycle: dispatched, then either
/// completed or cancelled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum TaskState {
    /// Never dispatched: a worker with no chunks this round, or no redo.
    #[default]
    Idle,
    /// Dispatched, completion pending.
    Running,
    /// Completed: its chunks count toward the round's coverage.
    Done,
    /// Cancelled (late straggler, departed worker, or superfluous once
    /// the round's coverage completed). Its chunks never count.
    Cancelled,
}

/// The two tasks a worker can hold in one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TaskKind {
    /// The worker's share of the round's assignment.
    Original,
    /// Chunks rung 3 handed to the worker after it finished.
    Redo,
}

impl TaskKind {
    /// Both kinds, original first: the order of every per-worker sweep
    /// (and therefore of the events and trace records it emits).
    pub(crate) const BOTH: [TaskKind; 2] = [TaskKind::Original, TaskKind::Redo];

    pub(crate) fn is_redo(self) -> bool {
        self == TaskKind::Redo
    }
}

/// One task's schedule and compute charge.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Task {
    pub(crate) state: TaskState,
    /// Scheduled finish time (`INFINITY` until dispatched).
    pub(crate) finish: f64,
    /// Dedicated compute-seconds charged to `busy_time` (refunded pro
    /// rata when the task is cancelled).
    pub(crate) busy_charged: f64,
}

impl Default for Task {
    fn default() -> Self {
        Task {
            state: TaskState::Idle,
            finish: f64::INFINITY,
            busy_charged: 0.0,
        }
    }
}

impl Task {
    pub(crate) fn running(&self) -> bool {
        self.state == TaskState::Running
    }

    /// Refunds the not-yet-performed remainder of the compute charge of a
    /// task abandoned at `now`: it still owed `(finish − now) · share`
    /// dedicated compute-seconds (capped at what was charged). Returns
    /// the refund for the worker's `busy_time`.
    fn refund_busy(&mut self, now: f64, share: f64) -> f64 {
        let refund = ((self.finish - now) * share).clamp(0.0, self.busy_charged);
        self.busy_charged -= refund;
        refund
    }
}

/// One worker's part in a round: its original task and its redo task.
#[derive(Debug, Clone, Default)]
pub(crate) struct WorkerTasks {
    pub(crate) original: Task,
    pub(crate) redo: Task,
    /// Chunks rung 3 reassigned to this worker. A second batch on a
    /// still-running redo merges in: one task finishing after both.
    pub(crate) redo_chunks: Vec<usize>,
    /// Dedicated share-seconds between this round's dispatch and the
    /// original task's actual start. A pipelined round queues behind the
    /// job's earlier in-flight rounds on a shared worker, so speed
    /// observations must subtract this offset from the share integral
    /// or the queueing delay would be billed as slowness. Exactly 0 at
    /// pipeline depth 1.
    pub(crate) ded_offset: f64,
}

impl WorkerTasks {
    pub(crate) fn task_mut(&mut self, kind: TaskKind) -> &mut Task {
        match kind {
            TaskKind::Original => &mut self.original,
            TaskKind::Redo => &mut self.redo,
        }
    }

    /// The latest scheduled finish among this worker's running tasks, or
    /// `floor` if that is later.
    pub(crate) fn running_until(&self, floor: f64) -> f64 {
        [&self.original, &self.redo]
            .into_iter()
            .filter(|task| task.running())
            .fold(floor, |acc, task| acc.max(task.finish))
    }
}

/// The engine state a task cancel writes besides the round itself.
/// Borrowed field by field, so it can sit beside a `&mut
/// RunningIteration` taken out of the resident map.
pub(crate) struct CancelSink<'a> {
    pub(crate) job: JobId,
    pub(crate) now: f64,
    pub(crate) busy_time: &'a mut [f64],
    pub(crate) backend: &'a mut dyn ExecutionBackend,
    pub(crate) telemetry: &'a mut Option<Telemetry>,
}

/// One in-flight iteration round of a resident job (or batch of jobs).
/// A job holds up to `pipeline.depth()` of these at once, committed in
/// `round_index` order.
#[derive(Debug)]
pub(crate) struct RunningIteration {
    pub(crate) generation: u64,
    /// Zero-based iteration index of this round within its job — the
    /// in-order commit key: a round retires only when every earlier
    /// index has.
    pub(crate) round_index: usize,
    pub(crate) share: f64,
    pub(crate) k_eff: usize,
    pub(crate) rows_per_chunk: usize,
    /// Stacked right-hand sides this round carries: 1 for a solo job,
    /// the member count for a batch round. Every compute charge,
    /// transfer size, and decode cost scales by it (the shared LU
    /// factorization does not — that is the decode amortization).
    pub(crate) rhs: usize,
    pub(crate) assignment: ChunkAssignment,
    /// Per-worker task records, one per pool worker.
    pub(crate) workers: Vec<WorkerTasks>,
    /// Set once this round's coverage completed and it is waiting for
    /// its earlier siblings to retire (in-order commit). The value is
    /// the completion instant; `None` while tasks are still in flight.
    pub(crate) parked_at: Option<f64>,
    /// Set once this iteration fell back to waiting out stragglers.
    pub(crate) waited_out: bool,
    /// The currently-armed §4.3 deadline. Kept for the rebalance
    /// re-arm condition (`latest >= armed_deadline`); staleness of
    /// timeout *events* is decided by [`Self::armed_seq`].
    pub(crate) armed_deadline: f64,
    /// Arming sequence number: bumped at every (re)arm of this round's
    /// deadline, carried in the scheduled timeout event. A timeout
    /// whose `arm` does not match was superseded (share rebalances
    /// stretch in-flight spans and re-arm) and is dropped — keyed per
    /// round, so a retired round's stale timeout can never fire against
    /// a successor round.
    pub(crate) armed_seq: u64,
    /// Dedicated share-seconds accumulated over completed share
    /// segments: `∫ share dt` from iteration start to [`Self::share_anchor`].
    /// With rebalancing, `duration · share` is wrong whenever the share
    /// changed mid-task; speed observations must use this integral or
    /// the predictor inherits a bias of up to `old_share / new_share`.
    pub(crate) share_integral: f64,
    /// Instant the current share segment began.
    pub(crate) share_anchor: f64,
    /// Instant this round was dispatched (phase-profiling anchor).
    pub(crate) started: f64,
    /// Input-broadcast transfer time of this round (the virtual
    /// "dispatch" phase).
    pub(crate) t_input: f64,
    /// Reply transfer time of the most recent task completion — by the
    /// time the iteration completes, the "collect" phase of the
    /// critical path.
    pub(crate) last_reply: f64,
}

impl RunningIteration {
    pub(crate) fn covers(&self, worker: usize, chunk: usize) -> bool {
        self.assignment
            .chunks
            .get(worker)
            .is_some_and(|c| c.binary_search(&chunk).is_ok())
    }

    /// Dedicated share-seconds the iteration has accrued by instant `t`
    /// (`∫ share` over `[start, t]`, exact across share rebalances).
    pub(crate) fn dedicated_by(&self, t: f64) -> f64 {
        self.share_integral + (t - self.share_anchor).max(0.0) * self.share
    }

    /// The chunks a worker's `kind` task computes.
    pub(crate) fn chunks_of(&self, worker: usize, kind: TaskKind) -> &[usize] {
        match kind {
            TaskKind::Original => self.assignment.chunks.get(worker),
            TaskKind::Redo => self.workers.get(worker).map(|s| &s.redo_chunks),
        }
        .map_or(&[], Vec::as_slice)
    }

    /// Every task of the round with the chunks it covers, as `(worker,
    /// kind, task, chunks)`, in worker order, original before redo. The
    /// one view every coverage reader goes through.
    pub(crate) fn tasks(&self) -> impl Iterator<Item = (usize, TaskKind, &Task, &[usize])> {
        self.workers
            .iter()
            .zip(&self.assignment.chunks)
            .enumerate()
            .flat_map(|(w, (slot, original))| {
                [
                    (w, TaskKind::Original, &slot.original, original.as_slice()),
                    (w, TaskKind::Redo, &slot.redo, slot.redo_chunks.as_slice()),
                ]
            })
    }

    /// The results that count toward coverage: completed tasks, in
    /// worker order, original before redo. A worker's original and redo
    /// chunks are disjoint (rung 3 never hands a worker a chunk it
    /// holds), so each chunk a result covers is one distinct response.
    pub(crate) fn done_results(&self) -> impl Iterator<Item = (usize, TaskKind, &Task, &[usize])> {
        self.tasks()
            .filter(|&(_, _, task, _)| task.state == TaskState::Done)
    }

    /// Per chunk, how many of the round's tasks in a `counted` state
    /// cover it.
    pub(crate) fn coverage(&self, counted: impl Fn(TaskKind, TaskState) -> bool) -> Vec<usize> {
        let mut cover = vec![0; self.assignment.chunks_per_partition];
        for (_, kind, task, chunks) in self.tasks() {
            if counted(kind, task.state) {
                for &c in chunks {
                    if let Some(n) = cover.get_mut(c) {
                        *n += 1;
                    }
                }
            }
        }
        cover
    }

    /// Whether every chunk has `k_eff` done results. Checked chunk by
    /// chunk, so an incomplete round (the common case, on every task
    /// completion) usually stops at chunk 0.
    pub(crate) fn complete(&self) -> bool {
        (0..self.assignment.chunks_per_partition).all(|chunk| {
            self.done_results()
                .filter(|&(.., chunks)| chunks.contains(&chunk))
                .count()
                >= self.k_eff
        })
    }

    /// Arms the round's §4.3 deadline at `deadline`, superseding every
    /// earlier one, and returns the timeout event to schedule for it.
    pub(crate) fn arm(&mut self, job: JobId, deadline: f64) -> EventKind {
        self.armed_deadline = deadline;
        self.armed_seq += 1;
        EventKind::Timeout {
            job,
            generation: self.generation,
            arm: self.armed_seq,
        }
    }

    /// Cancels `worker`'s `kind` task if it is running: marks it
    /// cancelled, refunds the compute it will not perform, tells the
    /// backend (so real workers drop the work too) and traces the
    /// cancel. A cancelled redo also drops its chunks, or a later merged
    /// redo on this worker would credit coverage nobody computed.
    /// Returns whether a task was cancelled.
    pub(crate) fn cancel(
        &mut self,
        worker: usize,
        kind: TaskKind,
        sink: &mut CancelSink<'_>,
    ) -> bool {
        let (share, generation, now) = (self.share, self.generation, sink.now);
        let Some(slot) = self.workers.get_mut(worker) else {
            return false;
        };
        let task = slot.task_mut(kind);
        if !task.running() {
            return false;
        }
        task.state = TaskState::Cancelled;
        let refund = task.refund_busy(now, share);
        if let Some(busy) = sink.busy_time.get_mut(worker) {
            *busy -= refund;
        }
        if kind.is_redo() {
            slot.redo_chunks.clear();
        }
        let (job, redo) = (sink.job, kind.is_redo());
        sink.backend.on_cancel(job, generation, worker, redo);
        trace_into(sink.telemetry, now, || TraceEventKind::TaskCancel {
            job,
            worker,
            generation,
            redo,
        });
        true
    }

    /// Cancels every running task of the round, in worker order,
    /// original before redo.
    pub(crate) fn cancel_all(&mut self, sink: &mut CancelSink<'_>) {
        for w in 0..self.workers.len() {
            for kind in TaskKind::BOTH {
                self.cancel(w, kind, sink);
            }
        }
    }
}

/// One job riding a resident batch. A solo job is a batch of one —
/// per-member QoS state (weight, SLO, boost flag) is tracked here so
/// batching never collapses member identities into the batch.
#[derive(Debug)]
pub(crate) struct BatchMember {
    pub(crate) spec: JobSpec,
    pub(crate) arrival: f64,
    /// Absolute SLO instant (`arrival + relative deadline`), if any.
    pub(crate) deadline_abs: Option<f64>,
    /// Whether deadline-aware share boosting has fired for this member
    /// (sticky for the rest of its residency).
    pub(crate) boosted: bool,
}

/// A job (or coalesced batch of jobs) currently holding a residency
/// slot.
#[derive(Debug)]
pub(crate) struct ResidentJob {
    /// Member jobs sharing this slot and its rounds; `members[0]` is
    /// the leader whose id keys the resident map and every scheduled
    /// event. All members share one [`batch_key`] (model identity,
    /// shape, code geometry, iteration count), so their rounds run in
    /// lockstep from admission to completion.
    pub(crate) members: Vec<BatchMember>,
    pub(crate) admitted: f64,
    /// Rounds committed (decoded/verified) so far — the in-order commit
    /// cursor: the next retirable round is exactly `round_index ==
    /// iterations_done`.
    pub(crate) iterations_done: usize,
    /// In-flight rounds, sorted by `round_index`; at most
    /// `pipeline.depth()` long. At depth 1 this is the classic barrier
    /// engine: zero or one round.
    pub(crate) window: Vec<RunningIteration>,
    /// Round indices dispatched but stalled on pool capacity
    /// (`alive < k_eff`), sorted; re-dispatched when a worker rejoins.
    pub(crate) stalled_rounds: Vec<usize>,
    /// Total rounds ever handed to [`ServiceEngine::dispatch_round`]
    /// (including currently stalled ones); the next fresh round index.
    pub(crate) iterations_dispatched: usize,
    /// Virtual instant the most recent round retired (decode end) —
    /// anchor for per-round pipeline-overlap accounting.
    pub(crate) last_retire_end: f64,
    pub(crate) iter_retries: usize,
    pub(crate) total_retries: usize,
}

impl ResidentJob {
    /// The leader's spec: the shared geometry every member agrees on.
    pub(crate) fn leader(&self) -> &JobSpec {
        &self.members[0].spec
    }

    /// Stacked right-hand sides a round of this residency carries.
    pub(crate) fn rhs(&self) -> usize {
        self.members.len()
    }
}

impl ServiceEngine {
    /// A resolved-on-arrival record (malformed, rate-limited, rejected).
    fn stillborn_record(
        &self,
        spec: &JobSpec,
        arrival: f64,
        rejected: bool,
        rate_limited: bool,
    ) -> JobRecord {
        JobRecord {
            id: spec.id,
            tenant: spec.tenant,
            preset: spec.preset,
            arrival,
            admitted: self.now,
            finished: self.now,
            iterations: 0,
            retries: 0,
            failed: true,
            rejected,
            rate_limited,
            weight: spec.weight,
            deadline: spec.deadline,
            work: spec.total_work(),
        }
    }

    pub(crate) fn on_arrival(&mut self, spec: JobSpec) -> Result<(), ServeError> {
        self.arrivals_remaining -= 1;
        let n = self.n();
        // QoS fields are rejected with a *typed* error, not a silent
        // failure record: a NaN/zero/negative weight that slipped
        // through would flow into the normalized-share arithmetic and
        // the queue-ordering comparators, where the best case is a
        // mis-sorted queue and the worst a panicking `unwrap` deep in
        // the allocator. Same for non-positive or non-finite deadlines.
        if !(spec.weight.is_finite() && spec.weight > 0.0) {
            return Err(ServeError::InvalidJob {
                job: spec.id,
                reason: format!("weight must be finite and positive, got {}", spec.weight),
            });
        }
        if let Some(d) = spec.deadline {
            if !(d.is_finite() && d > 0.0) {
                return Err(ServeError::InvalidJob {
                    job: spec.id,
                    reason: format!("deadline must be finite and positive, got {d}"),
                });
            }
        }
        let (jid, tenant, preset, now) = (spec.id, spec.tenant, spec.preset, self.now);
        trace_into(&mut self.telemetry, now, || TraceEventKind::JobArrival {
            job: jid,
            tenant,
            preset,
        });
        // Structural mismatches against *this* pool (k above the pool
        // size, empty shapes) resolve as failed records instead: the
        // spec may be serveable elsewhere, so the stream keeps flowing.
        let malformed = spec.k == 0
            || spec.k > n
            || spec.rows == 0
            || spec.cols == 0
            || spec.chunks_per_partition == 0
            || spec.iterations == 0;
        if malformed {
            trace_into(&mut self.telemetry, now, || TraceEventKind::Malformed {
                job: jid,
            });
            let record = self.stillborn_record(&spec, self.now, false, false);
            self.report.jobs.push(record);
            return Ok(());
        }
        // Token-bucket rate limiting: a tenant that bursts past its
        // admission budget has the job refused on the spot — before it
        // can occupy queue space or a residency slot.
        if let Some(bucket) = self.buckets.get_mut(&spec.tenant) {
            if !bucket.try_admit(self.now) {
                trace_into(&mut self.telemetry, now, || TraceEventKind::RateLimited {
                    job: jid,
                });
                let record = self.stillborn_record(&spec, self.now, false, true);
                self.report.jobs.push(record);
                return Ok(());
            }
        }
        self.pending.push(QueuedJob {
            spec,
            arrival: self.now,
        });
        self.sample_queue_depth();
        self.try_admit()
    }

    pub(crate) fn try_admit(&mut self) -> Result<(), ServeError> {
        'slots: while self.resident.len() < self.cfg.max_resident {
            // The policy sees *member* jobs, never batches: a weight-2
            // member counts its full weight toward its tenant's resident
            // mass whether it rides a batch or runs alone.
            let residents: Vec<ResidentInfo> = self
                .resident
                .values()
                .flat_map(|j| {
                    j.members.iter().map(|m| ResidentInfo {
                        tenant: m.spec.tenant,
                        weight: m.spec.weight,
                    })
                })
                .collect();
            // Batch keys held open by an unexpired time window this
            // pass: invisible to re-picks, so a held group defers only
            // itself and never starves unrelated admissions.
            let mut held: Vec<BatchKey> = Vec::new();
            let group: Vec<QueuedJob> = loop {
                // Most passes hold nothing: pick straight off the
                // pending queue without copying it. The filtered clone
                // is built only while a time-window key is actually
                // held, so the Off/size-threshold hot path stays
                // allocation-free per pick.
                let filtered: Option<(Vec<usize>, Vec<QueuedJob>)> = if held.is_empty() {
                    None
                } else {
                    let visible: Vec<usize> = (0..self.pending.len())
                        .filter(|&i| !held.contains(&batch_key(&self.pending[i].spec)))
                        .collect();
                    let cand = visible.iter().map(|&i| self.pending[i].clone()).collect();
                    Some((visible, cand))
                };
                let queue: &[QueuedJob] = filtered
                    .as_ref()
                    .map_or(self.pending.as_slice(), |(_, cand)| cand.as_slice());
                let to_pending = |i: usize| filtered.as_ref().map_or(i, |(visible, _)| visible[i]);
                let Some(ci) = self.cfg.policy.pick(queue, &residents) else {
                    break 'slots;
                };
                if !self.cfg.batch.enabled() {
                    let at = to_pending(ci);
                    break vec![self.pending.remove(at)];
                }
                // Batch-aware admission: the policy's pick stays the
                // head; queued mates sharing its key ride along, in
                // policy order, up to the size cap.
                let group_c =
                    self.cfg
                        .policy
                        .gather_batch(queue, &residents, ci, self.cfg.batch.max_batch());
                if let BatchPolicy::TimeWindow { window, max_batch } = self.cfg.batch {
                    if group_c.len() < max_batch {
                        let earliest = group_c
                            .iter()
                            .map(|&i| queue[i].arrival)
                            .fold(f64::INFINITY, f64::min);
                        let flush_at = earliest + window;
                        if self.now + 1e-12 < flush_at {
                            // Window still open: hold this key, flush
                            // later, and give the rest of the queue a
                            // chance at the slot now. One flush event
                            // per (key, instant) — every arrival during
                            // the window re-plans the same group, and
                            // duplicate events would burn the event
                            // budget on no-ops.
                            let key = batch_key(&queue[ci].spec);
                            held.push(key);
                            if !self
                                .pending_flushes
                                .iter()
                                .any(|&(k, at)| k == key && at == flush_at)
                            {
                                self.pending_flushes.push((key, flush_at));
                                self.queue.push(flush_at, EventKind::BatchFlush);
                            }
                            continue;
                        }
                    }
                }
                // Remove the group from the queue (descending index
                // order keeps earlier indices valid) while preserving
                // the policy-ordered member sequence.
                let taken: Vec<QueuedJob> = group_c.iter().map(|&i| queue[i].clone()).collect();
                let mut rm: Vec<usize> = group_c.iter().map(|&i| to_pending(i)).collect();
                rm.sort_unstable_by(|a, b| b.cmp(a));
                for i in rm {
                    self.pending.remove(i);
                }
                break taken;
            };
            // Deadline admission control applies per member: a hopeless
            // member is turned away without dragging its mates down.
            let mut members: Vec<BatchMember> = Vec::with_capacity(group.len());
            for queued in group {
                if self.cfg.reject_infeasible_deadlines && self.deadline_infeasible(&queued) {
                    let (jid, now) = (queued.spec.id, self.now);
                    trace_into(&mut self.telemetry, now, || TraceEventKind::Rejected {
                        job: jid,
                    });
                    let record = self.stillborn_record(&queued.spec, queued.arrival, true, false);
                    self.report.jobs.push(record);
                    self.sample_queue_depth();
                    continue;
                }
                let deadline_abs = queued.spec.deadline.map(|d| queued.arrival + d);
                members.push(BatchMember {
                    spec: queued.spec,
                    arrival: queued.arrival,
                    deadline_abs,
                    boosted: false,
                });
            }
            if members.is_empty() {
                continue;
            }
            let id = members[0].spec.id;
            let (k_eff, c_eff, _) = self.cfg.scheduler.shape(&members[0].spec, self.n());
            // One shared encode serves the whole batch; every member
            // after the first is a cache hit by construction.
            for m in &members {
                self.backend
                    .on_admit(&m.spec, k_eff, c_eff)
                    .map_err(ServeError::Backend)?;
            }
            if members.len() > 1 {
                self.report.batches_admitted += 1;
                self.report.batched_jobs += members.len();
                let (count, now) = (members.len(), self.now);
                trace_into(&mut self.telemetry, now, || TraceEventKind::BatchFormed {
                    leader: id,
                    members: count,
                });
            }
            if self.telemetry.is_some() {
                let now = self.now;
                for m in &members {
                    let jid = m.spec.id;
                    trace_into(&mut self.telemetry, now, || TraceEventKind::Admitted {
                        job: jid,
                        leader: id,
                    });
                }
            }
            self.resident.insert(
                id,
                ResidentJob {
                    members,
                    admitted: self.now,
                    iterations_done: 0,
                    window: Vec::new(),
                    stalled_rounds: Vec::new(),
                    iterations_dispatched: 0,
                    last_retire_end: self.now,
                    iter_retries: 0,
                    total_retries: 0,
                },
            );
            // The newcomer contends immediately: squeeze the neighbours
            // now, or the pool would be over-subscribed until their next
            // iteration boundaries.
            self.rebalance_shares();
            self.sample_queue_depth();
            let at = self.now;
            self.fill_window(id, at)?;
        }
        Ok(())
    }

    /// Optimistic service-time lower bound: the job's total work run on
    /// the whole available pool at once. If even that misses the SLO,
    /// the deadline is provably infeasible.
    fn deadline_infeasible(&self, queued: &QueuedJob) -> bool {
        if queued.spec.deadline.is_none() {
            return false;
        }
        let cap: f64 = self.avail_speeds().iter().sum::<f64>()
            * self.compute.elements_per_sec
            * thread_speedup(self.cfg.worker_threads);
        if cap <= 0.0 {
            // No live capacity to estimate with: nothing is provable.
            return false;
        }
        let min_service = queued.spec.total_work() / cap;
        self.now + min_service > queued.absolute_deadline()
    }

    /// Dispatches fresh rounds for `id` until its in-flight window is
    /// full (the pipeline depth), a round stalls on capacity, or the
    /// job runs out of iterations. At depth 1 this is exactly the
    /// barrier engine's "start the next iteration".
    pub(crate) fn fill_window(&mut self, id: JobId, at: f64) -> Result<(), ServeError> {
        let depth = self.cfg.pipeline.depth();
        loop {
            let Some(job) = self.resident.get_mut(&id) else {
                return Ok(());
            };
            // A capacity-stalled round blocks the window: later indices
            // would stall on the same `k_eff` anyway, and dispatch order
            // must stay the commit order.
            if !job.stalled_rounds.is_empty()
                || job.iterations_dispatched >= job.leader().iterations
                || job.window.len() >= depth
            {
                return Ok(());
            }
            let round_index = job.iterations_dispatched;
            job.iterations_dispatched += 1;
            self.dispatch_round(id, round_index, at)?;
        }
    }

    /// Schedules one iteration round's per-worker tasks from the shared
    /// allocation. A pipelined round (depth ≥ 2) queues behind the job's
    /// earlier in-flight rounds on each shared worker — the job's
    /// capacity share is constant regardless of depth; the window only
    /// overlaps a round's dispatch/collect/decode with its siblings'
    /// compute.
    pub(crate) fn dispatch_round(
        &mut self,
        id: JobId,
        round_index: usize,
        at: f64,
    ) -> Result<(), ServeError> {
        // A boost firing here changes the whole resident set's effective
        // weight mass: the neighbours' in-flight tasks must be rescaled
        // too, or shares stop summing to 1 (the oversubscription bug) —
        // and sticky boosts mean the epoch-tick watchdog would never
        // catch up.
        if self.update_deadline_boosts() {
            self.rebalance_shares();
        }
        let avail = self.avail_speeds();
        let alive = avail.iter().filter(|&&s| s > 0.0).count();
        let spec = self.resident[&id].leader().clone();
        let rhs = self.resident[&id].rhs();
        let (k_eff, c_eff, rpc) = self.cfg.scheduler.shape(&spec, self.n());

        if alive < k_eff {
            // s2c2-allow: no-panic-paths -- engine invariant: round dispatches are only scheduled for ids the event loop keeps resident
            let job = self.resident.get_mut(&id).expect("resident job");
            if !job.stalled_rounds.contains(&round_index) {
                job.stalled_rounds.push(round_index);
                job.stalled_rounds.sort_unstable();
            }
            return Ok(());
        }

        // Weights are *effective* (per-member deadline boosts included,
        // summed over batch members).
        let weight = self.effective_weight(&self.resident[&id]);
        let total_weight = self.resident_weight().max(f64::MIN_POSITIVE);
        let predicted = || -> Vec<f64> {
            self.tracker
                .predictions_from(&avail)
                .iter()
                .zip(self.up.iter())
                .map(|(&p, &u)| if u { p.max(0.0) } else { 0.0 })
                .collect()
        };
        let (plan, plan_speeds) =
            self.cfg
                .scheduler
                .plan_round(&avail, predicted, (k_eff, c_eff), weight, total_weight);
        let (share, degraded) = (plan.share, plan.degraded);

        let n = self.n();
        let generation = self.next_generation;
        self.next_generation += 1;
        trace_into(&mut self.telemetry, at, || TraceEventKind::IterationStart {
            job: id,
            iteration: round_index,
            generation,
            rhs,
            share,
            degraded,
        });
        // Rungs 1 and 2 of the recovery ladder are decided right here at
        // planning time: a predict-feasible start is rung 1, a degraded
        // (reduced-redundancy) start is rung 2. Rungs 3-5 are counted at
        // their trigger points in `super::recovery`.
        let rung = if degraded { 2 } else { 1 };
        record_rung(
            &mut self.report,
            &mut self.telemetry,
            at,
            id,
            generation,
            rung,
        );
        // The task records come from the scratch pool when a retired
        // round left some (reset in place — identical to fresh ones).
        let workers = match self.scratch.take(n) {
            Some(workers) => {
                self.report.scratch_reuses += 1;
                workers
            }
            None => vec![WorkerTasks::default(); n],
        };
        let mut iter = RunningIteration {
            generation,
            round_index,
            share,
            k_eff,
            rows_per_chunk: rpc,
            rhs,
            assignment: plan.assignment,
            workers,
            parked_at: None,
            waited_out: false,
            armed_deadline: f64::INFINITY,
            armed_seq: 0,
            share_integral: 0.0,
            share_anchor: at,
            started: at,
            t_input: 0.0,
            last_reply: 0.0,
        };

        // A batch round ships every member's input in one transfer and
        // every member's chunk results in one reply: the per-message
        // latency is paid once per round, not once per member — the
        // fixed cost batching exists to amortize. Compute still scales
        // with the stacked width (`rhs` matvecs per assigned row).
        let t_in = self.comm.transfer_time((spec.cols * rhs * 8) as u64);
        iter.t_input = t_in;
        let speedup = thread_speedup(self.cfg.worker_threads);
        let mut max_planned_span: f64 = 0.0;
        let mut max_actual_span: f64 = 0.0;
        let window = &self.resident[&id].window;
        let tasks = iter.assignment.chunks.iter().zip(&mut iter.workers);
        for (w, (&plan_speed, (assigned, slot))) in plan_speeds.iter().zip(tasks).enumerate() {
            let chunks = assigned.len();
            if chunks == 0 {
                continue;
            }
            // Intra-job serialization: a worker computes one job's
            // rounds in dispatch order at the job's share, so this
            // round's task starts after the worker's running tasks from
            // earlier window rounds. With an empty window (depth 1)
            // `start_w == at` exactly.
            let start_w = window.iter().fold(at, |acc, r| {
                r.workers
                    .get(w)
                    .map_or(acc, |prior| prior.running_until(acc))
            });
            let offset = start_w - at;
            let rows_w = chunks * rpc;
            let work = ((rows_w * spec.cols) * rhs) as f64;
            let rate = self.speeds[w] * share * self.compute.elements_per_sec * speedup;
            let t_reply = self.comm.transfer_time(((rows_w * rhs) * 8) as u64);
            let span = t_in + work / rate + t_reply;
            // Utilization is accounted in dedicated compute-seconds (the
            // share factor stretches wall time, not work done).
            slot.original = Task {
                state: TaskState::Running,
                finish: start_w + span,
                busy_charged: work / rate * share,
            };
            // Freeze the queueing delay in dedicated share-seconds so
            // speed observations can subtract it (approximate across a
            // later rebalance, exact otherwise; identically 0 at depth 1).
            slot.ded_offset = offset * share;
            max_actual_span = max_actual_span.max(offset + span);
            let plan_rate =
                plan_speed.max(f64::MIN_POSITIVE) * share * self.compute.elements_per_sec * speedup;
            max_planned_span = max_planned_span.max(offset + (t_in + work / plan_rate + t_reply));
            self.report.busy_time[w] += slot.original.busy_charged;
            trace_into(&mut self.telemetry, at, || TraceEventKind::TaskDispatch {
                job: id,
                worker: w,
                generation,
                chunks,
                redo: false,
            });
            self.queue.push(
                slot.original.finish,
                EventKind::TaskComplete {
                    job: id,
                    worker: w,
                    generation,
                    redo: false,
                },
            );
        }

        // Adaptive scheduling arms the deadline from the *plan* (so
        // mis-predictions are caught); the non-adaptive baselines never
        // cancel, so their timeout is a pure churn-recovery safety net
        // armed past every scheduled finish.
        let span = if self.cfg.scheduler.adaptive() {
            max_planned_span
        } else {
            max_actual_span
        };
        let deadline = at + (1.0 + self.cfg.timeout_margin) * span;
        self.queue.push(deadline, iter.arm(id, deadline));

        if rhs > 1 {
            self.report.batch_rounds += 1;
        }
        // s2c2-allow: no-panic-paths -- engine invariant: this runs inside a round dispatch for a job verified resident above
        let job = self.resident.get_mut(&id).expect("resident job");
        let specs: Vec<JobSpec> = job.members.iter().map(|m| m.spec.clone()).collect();
        self.backend
            .on_iteration_start(&specs, &iter, round_index)
            .map_err(ServeError::Backend)?;
        job.stalled_rounds.retain(|&r| r != round_index);
        let pos = job.window.partition_point(|r| r.round_index < round_index);
        job.window.insert(pos, iter);
        Ok(())
    }

    pub(crate) fn on_task_complete(
        &mut self,
        id: JobId,
        worker: usize,
        generation: u64,
        redo: bool,
        t: f64,
    ) -> Result<(), ServeError> {
        let completed = {
            let Some(job) = self.resident.get_mut(&id) else {
                return Ok(());
            };
            let Some(iter) = job.window.iter_mut().find(|r| r.generation == generation) else {
                return Ok(());
            };
            // A parked round's live tasks were cancelled at park time;
            // any straggling completion event for it is stale.
            if iter.parked_at.is_some() {
                return Ok(());
            }
            let kind = if redo {
                TaskKind::Redo
            } else {
                TaskKind::Original
            };
            let Some(slot) = iter.workers.get_mut(worker) else {
                return Ok(());
            };
            let ded_offset = slot.ded_offset;
            let task = slot.task_mut(kind);
            // The finish-time match drops completion events superseded by
            // a share rebalance or a merged redo (the task was
            // rescheduled).
            if !task.running() || (t - task.finish).abs() > 1e-9 {
                return Ok(());
            }
            task.state = TaskState::Done;
            let finish = task.finish;
            let rows_w = iter.chunks_of(worker, kind).len() * iter.rows_per_chunk;
            iter.last_reply = self.comm.transfer_time(((rows_w * iter.rhs) * 8) as u64);
            // Feed the predictor with the observed relative rate. Redo
            // tasks are excluded (their span includes master-side idle
            // time, which would skew the estimate — same rule as the
            // single-job engine). The denominator is the share
            // *integral*, not `duration · share`: rebalances change the
            // share mid-task and the naive product would mis-scale the
            // estimate by up to `old_share / new_share`. Pipelined
            // rounds additionally subtract the queueing offset the
            // task spent waiting behind earlier window rounds.
            if !redo && self.cfg.scheduler.adaptive() {
                let dedicated = (iter.dedicated_by(finish) - ded_offset).max(f64::MIN_POSITIVE);
                // The observed rate covers the whole stacked width the
                // worker actually computed, so batched and unbatched
                // rounds feed the predictor the same per-element speed.
                let observed = ((rows_w * job.members[0].spec.cols) * iter.rhs) as f64 / dedicated;
                let mut obs: Vec<Option<f64>> = vec![None; self.speeds.len()];
                obs[worker] = Some(observed);
                self.tracker.observe(&obs);
            }
            iter.complete()
        };
        trace_into(&mut self.telemetry, t, || TraceEventKind::TaskComplete {
            job: id,
            worker,
            generation,
            redo,
        });
        if completed {
            self.on_round_complete(id, generation)?;
        }
        Ok(())
    }

    /// A round's coverage is complete: cancel the tasks nobody waits for
    /// and either retire it (window head) or park it behind its earlier
    /// siblings (in-order commit).
    pub(crate) fn on_round_complete(
        &mut self,
        id: JobId,
        generation: u64,
    ) -> Result<(), ServeError> {
        let now = self.now;
        let Some(job) = self.resident.get_mut(&id) else {
            return Ok(());
        };
        let Some(pos) = job.window.iter().position(|r| r.generation == generation) else {
            return Ok(());
        };
        // Retirable only when every earlier round has already been
        // committed — a capacity-stalled earlier round is *not* in the
        // window, so head position alone is not enough.
        let head = pos == 0 && job.window[0].round_index == job.iterations_done;
        let iter = &mut job.window[pos];
        // The master stops caring about still-running tasks (conventional
        // stragglers, superfluous redo): cancelling refunds the compute
        // they will not perform and tells the backend, so real workers
        // drop the stale work too — and a later churn event cannot refund
        // the same task twice while the round sits parked.
        iter.cancel_all(&mut CancelSink {
            job: id,
            now,
            busy_time: &mut self.report.busy_time,
            backend: self.backend.as_mut(),
            telemetry: &mut self.telemetry,
        });
        iter.parked_at = Some(now);
        if head {
            return self.retire_ready_rounds(id);
        }
        // Parked: an earlier round is still running (or being
        // recovered). The decode/verify commit waits for it.
        self.report.rounds_parked += 1;
        let iteration = iter.round_index;
        trace_into(&mut self.telemetry, now, || TraceEventKind::RoundParked {
            job: id,
            iteration,
            generation,
        });
        Ok(())
    }

    /// Retires the job's window head and every parked successor behind
    /// it, committing decode/verify strictly in round order, then tops
    /// the window back up. At depth 1 this is exactly the barrier
    /// engine's iteration completion.
    #[allow(clippy::too_many_lines)]
    pub(crate) fn retire_ready_rounds(&mut self, id: JobId) -> Result<(), ServeError> {
        let mut at = self.now;
        // The head this call retires was the round blocking any parked
        // successors: account the in-order-commit stall it caused.
        if self.cfg.pipeline.overlapping() {
            if let Some(job) = self.resident.get(&id) {
                let earliest_parked = job
                    .window
                    .iter()
                    .skip(1)
                    .filter_map(|r| r.parked_at)
                    .fold(f64::INFINITY, f64::min);
                if let Some(head) = job.window.first() {
                    if earliest_parked.is_finite() {
                        let head_gen = head.generation;
                        let seconds = (at - earliest_parked).max(0.0);
                        trace_into(&mut self.telemetry, at, || TraceEventKind::PipelineStall {
                            job: id,
                            generation: head_gen,
                            seconds,
                        });
                    }
                }
            }
        }
        loop {
            let Some(job) = self.resident.get_mut(&id) else {
                return Ok(());
            };
            let ready = job
                .window
                .first()
                .is_some_and(|r| r.parked_at.is_some() && r.round_index == job.iterations_done);
            if !ready {
                break;
            }
            let iter = job.window.remove(0);
            let completed_at = iter.parked_at.unwrap_or(at);
            let is_final = job.iterations_done + 1 >= job.leader().iterations;
            let specs: Vec<JobSpec> = job.members.iter().map(|m| m.spec.clone()).collect();
            self.backend
                .on_iteration_complete(&specs, &iter, job.iterations_done, is_final)
                .map_err(ServeError::Backend)?;
            let decode_time = self
                .cfg
                .scheduler
                .decode_seconds(&iter, self.decode_flops_per_sec);
            let end = at + decode_time;
            // Virtual phase decomposition of the completed round: the span
            // from round dispatch to the last counted reply splits into the
            // input broadcast (dispatch), the straggler-bounded compute, and
            // the final reply transfer (collect); decode is appended after.
            // The pieces are carved out of the span itself, so they sum to
            // `iteration_time_total` exactly — no separate model to drift.
            let span = (completed_at - iter.started).max(0.0);
            let dispatch = iter.t_input.min(span);
            let rest = span - dispatch;
            let collect = iter.last_reply.min(rest);
            let compute = rest - collect;
            self.report.phase_virtual.dispatch += dispatch;
            self.report.phase_virtual.compute += compute;
            self.report.phase_virtual.collect += collect;
            self.report.phase_virtual.decode += decode_time;
            self.report.iteration_time_total += span + decode_time;
            if let Some(tel) = self.telemetry.as_mut() {
                tel.metrics.observe("iteration_span", span + decode_time);
            }
            let generation = iter.generation;
            let iteration_index = job.iterations_done;
            trace_into(&mut self.telemetry, at, || TraceEventKind::Decode {
                job: id,
                generation,
                seconds: decode_time,
            });
            trace_into(&mut self.telemetry, end, || TraceEventKind::Verify {
                job: id,
                generation,
            });
            trace_into(&mut self.telemetry, end, || {
                TraceEventKind::IterationComplete {
                    job: id,
                    iteration: iteration_index,
                    generation,
                }
            });
            // Pipeline accounting: how long this round sat parked behind
            // its predecessors, and how much of its span overlapped the
            // previous round's lifetime. Both are identically 0 at
            // depth 1.
            let parked_for = (at - completed_at).max(0.0);
            self.report.pipeline_stall_time += parked_for;
            self.report.pipeline_overlap_time += (job.last_retire_end - iter.started).max(0.0);
            if self.cfg.pipeline.overlapping() {
                trace_into(&mut self.telemetry, end, || TraceEventKind::RoundRetired {
                    job: id,
                    iteration: iteration_index,
                    generation,
                    parked: parked_for,
                });
            }
            job.iterations_done += 1;
            job.iter_retries = 0;
            job.last_retire_end = end;
            self.scratch.reclaim(iter);
            if job.iterations_done >= job.leader().iterations {
                return self.resolve_residency(id, end, false);
            }
            at = end;
        }
        // The commit cursor advanced and the window has room: dispatch
        // the next fresh rounds from the last decode's end.
        self.fill_window(id, at)
    }

    /// Ends residency `id` at `finished`, completed or `failed`. Every
    /// member resolves with its own record — its own arrival (and
    /// therefore sojourn), weight, SLO, and work; the batch is an
    /// execution detail, not a reporting unit. Work conservation: the
    /// freed capacity flows to the survivors now, not at their next
    /// iteration boundaries, and admission refills the slot.
    pub(crate) fn resolve_residency(
        &mut self,
        id: JobId,
        finished: f64,
        failed: bool,
    ) -> Result<(), ServeError> {
        let Some(job) = self.resident.remove(&id) else {
            return Ok(());
        };
        for m in &job.members {
            self.report.jobs.push(JobRecord {
                id: m.spec.id,
                tenant: m.spec.tenant,
                preset: m.spec.preset,
                arrival: m.arrival,
                admitted: job.admitted,
                finished,
                iterations: job.iterations_done,
                retries: job.total_retries,
                failed,
                rejected: false,
                rate_limited: false,
                weight: m.spec.weight,
                deadline: m.spec.deadline,
                work: m.spec.total_work(),
            });
            let (jid, tenant) = (m.spec.id, m.spec.tenant);
            if failed {
                trace_into(&mut self.telemetry, finished, || {
                    TraceEventKind::JobFailed { job: jid, tenant }
                });
            } else {
                trace_into(&mut self.telemetry, finished, || {
                    TraceEventKind::JobComplete { job: jid, tenant }
                });
            }
        }
        for m in &job.members {
            self.backend.on_job_resolved(m.spec.id);
        }
        self.rebalance_shares();
        self.try_admit()
    }

    pub(crate) fn on_timeout(
        &mut self,
        id: JobId,
        generation: u64,
        arm: u64,
    ) -> Result<(), ServeError> {
        let Some(job) = self.resident.get(&id) else {
            return Ok(());
        };
        let Some(iter) = job.window.iter().find(|r| r.generation == generation) else {
            return Ok(());
        };
        // Superseded deadline: recovery or a share rebalance re-armed
        // this round behind a later instant (and bumped the sequence).
        if iter.armed_seq != arm {
            return Ok(());
        }
        // Completed but waiting on an earlier sibling to retire: the
        // round has its coverage, there is nothing left to recover.
        if iter.parked_at.is_some() {
            return Ok(());
        }
        self.recover(id, generation, true)
    }

    pub(crate) fn on_churn(&mut self, worker: usize, up: bool) -> Result<(), ServeError> {
        self.up[worker] = up;
        let now = self.now;
        trace_into(&mut self.telemetry, now, || {
            if up {
                TraceEventKind::WorkerUp { worker }
            } else {
                TraceEventKind::WorkerDown { worker }
            }
        });
        if up {
            // Capacity returned: wake rounds stalled on feasibility, in
            // round order per job (a failed re-dispatch re-stalls them).
            let waiting: Vec<(JobId, Vec<usize>)> = self
                .resident
                .iter_mut()
                .filter(|(_, j)| !j.stalled_rounds.is_empty())
                .map(|(&id, j)| (id, std::mem::take(&mut j.stalled_rounds)))
                .collect();
            for (id, rounds) in waiting {
                for round_index in rounds {
                    self.dispatch_round(id, round_index, now)?;
                }
            }
            return Ok(());
        }
        // Departure: invalidate the worker's in-flight tasks across every
        // window round and check each affected round for lost coverage.
        let ids: Vec<JobId> = self.resident.keys().copied().collect();
        for id in ids {
            let Some(job) = self.resident.get_mut(&id) else {
                continue;
            };
            let mut sink = CancelSink {
                job: id,
                now,
                busy_time: &mut self.report.busy_time,
                backend: self.backend.as_mut(),
                telemetry: &mut self.telemetry,
            };
            let mut doomed: Vec<u64> = Vec::new();
            for iter in &mut job.window {
                // Parked rounds have no live tasks (cancelled at park).
                if iter.parked_at.is_some() {
                    continue;
                }
                let mut affected = false;
                for kind in TaskKind::BOTH {
                    affected |= iter.cancel(worker, kind, &mut sink);
                }
                if !affected {
                    continue;
                }
                let live =
                    iter.coverage(|_, state| matches!(state, TaskState::Done | TaskState::Running));
                if live.iter().any(|&c| c < iter.k_eff) {
                    doomed.push(iter.generation);
                }
            }
            for generation in doomed {
                // A rung-5 restart inside an earlier recovery may have
                // failed the whole job; `recover` re-validates.
                self.recover(id, generation, false)?;
            }
        }
        Ok(())
    }

    pub(crate) fn on_epoch_tick(&mut self, epoch: usize) {
        for (w, m) in self.models.iter_mut().enumerate() {
            let s = m.speed_at(epoch);
            if (s - self.speeds[w]).abs() > f64::EPSILON {
                self.queue.push(
                    self.now,
                    EventKind::WorkerSpeedChange {
                        worker: w,
                        speed: s,
                    },
                );
            }
        }
        let mask = self.churn.advance_to(epoch).to_vec();
        for (w, (&new, &old)) in mask.iter().zip(self.up.iter()).enumerate() {
            if new != old {
                self.queue
                    .push(self.now, EventKind::WorkerChurn { worker: w, up: new });
            }
        }
        // Epoch ticks are also the boost watchdog: a resident job whose
        // slack ran out mid-iteration gets its weight bump (and the pool
        // a rescale) at the next tick, not only at the next membership
        // change.
        if self.update_deadline_boosts() {
            self.rebalance_shares();
        }
        // Epoch ticks double as the utilization / memory sampler: one
        // point per tick keeps the series bounded by run length, not by
        // event volume.
        if self.telemetry.is_some() {
            let busy: f64 = self.report.busy_time.iter().sum();
            let denom = self.now * self.n() as f64;
            let util = if denom > 0.0 {
                (busy / denom).clamp(0.0, 1.0)
            } else {
                0.0
            };
            let rss = s2c2_telemetry::registry::resident_set_bytes() as f64;
            let now = self.now;
            if let Some(tel) = &mut self.telemetry {
                tel.metrics.sample("utilization", now, util);
                tel.metrics.sample("rss_bytes", now, rss);
            }
        }
        if self.work_remains() {
            self.queue.push(
                self.now + self.cfg.epoch,
                EventKind::EpochTick { epoch: epoch + 1 },
            );
        }
    }
}
