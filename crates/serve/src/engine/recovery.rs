//! The §4.3 robustness ladder's recovery rungs (3–5): cancel late
//! workers and hand their chunks to finished ones, wait out stragglers
//! when nobody has spare capacity, and restart the iteration when a
//! churn storm took everyone.
//!
//! Under pipelined serving every rung operates *per in-flight round*:
//! recovery is keyed by the round's generation, touches only that
//! round's tasks, and a rung-5 restart re-dispatches the same round
//! index while later window rounds keep running (their results park
//! until the restarted round commits).
//!
//! Every cancellation and reassignment is mirrored to the execution
//! backend, so a real-threads run cancels the same worker tasks (via
//! the [`s2c2_cluster::threaded::ThreadedCluster`] cooperative-cancel
//! hook) and dispatches the same redo work the timing model schedules.

use super::core::{CancelSink, RunningIteration, TaskKind, TaskState};
use super::{record_rung, thread_speedup, trace_into, ServeError, ServiceEngine};
use crate::event::{EventKind, JobId};
use s2c2_telemetry::TraceEventKind;

impl ServiceEngine {
    /// Deadline-miss / churn recovery for one in-flight round: the
    /// robustness ladder's rungs 3–5.
    #[allow(clippy::too_many_lines)]
    pub(crate) fn recover(
        &mut self,
        id: JobId,
        generation: u64,
        from_timeout: bool,
    ) -> Result<(), ServeError> {
        let now = self.now;
        let speedup = thread_speedup(self.cfg.worker_threads);
        let cancel_late = self.cfg.scheduler.adaptive();
        let margin = self.cfg.timeout_margin;
        let elements_per_sec = self.compute.elements_per_sec;
        let comm = self.comm;
        let speeds = self.speeds.clone();
        let up = self.up.clone();

        // Both lookups are graceful: a churn sweep may queue several
        // doomed generations for one job, and an earlier rung-5 restart
        // can have failed the whole job (or replaced the round) before a
        // later entry is processed.
        let Some(job) = self.resident.get_mut(&id) else {
            return Ok(());
        };
        let cols = job.members[0].spec.cols;
        let Some(pos) = job.window.iter().position(|r| r.generation == generation) else {
            return Ok(());
        };
        if job.window[pos].parked_at.is_some() {
            // Coverage already complete; the round is only waiting for an
            // earlier sibling to retire. Nothing to recover.
            return Ok(());
        }
        let iter = &mut job.window[pos];
        let n = iter.assignment.workers();
        let rpc = iter.rows_per_chunk;
        // A mid-batch straggler degrades or redoes *per batch*: the
        // whole stacked round is recovered at once, so per-member
        // coverage accounting (every member decodes from the identical
        // worker/chunk set) can never diverge inside one batch.
        let rhs = iter.rhs;

        // Outstanding need per chunk. Adaptive mode writes in-flight
        // originals off as cancelled (the §4.3 rule); the baselines keep
        // counting on them (they only recover from churn).
        let need: Vec<usize> = iter
            .coverage(|kind, state| match state {
                TaskState::Done => true,
                TaskState::Running => kind.is_redo() || !cancel_late,
                TaskState::Idle | TaskState::Cancelled => false,
            })
            .iter()
            .map(|&have| iter.k_eff.saturating_sub(have))
            .collect();
        let total_need: usize = need.iter().sum();

        let reschedule_after_inflight = |iter: &RunningIteration| -> f64 {
            let latest = iter
                .workers
                .iter()
                .fold(now, |acc, slot| slot.running_until(acc));
            now + (1.0 + margin) * (latest - now).max(f64::MIN_POSITIVE)
        };

        if total_need == 0 {
            // Everything outstanding is already being handled; re-arm the
            // safety net behind the open tasks.
            let deadline = reschedule_after_inflight(iter);
            self.queue.push(deadline, iter.arm(id, deadline));
            return Ok(());
        }

        // Rung 3: hand the missing chunks to finished, still-present
        // workers (they hold the coded partitions — no data movement).
        let hosts: Vec<usize> = iter
            .workers
            .iter()
            .zip(&up)
            .enumerate()
            .filter(|&(_, (slot, &alive))| slot.original.state == TaskState::Done && alive)
            .map(|(w, _)| w)
            .collect();
        let mut extra: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut satisfiable = true;
        'chunks: for (chunk, &need_c) in need.iter().enumerate() {
            for _ in 0..need_c {
                let pick = hosts
                    .iter()
                    .copied()
                    .filter(|&w| {
                        !iter.covers(w, chunk)
                            && !iter.workers[w].redo_chunks.contains(&chunk)
                            && !extra[w].contains(&chunk)
                    })
                    .min_by(|&a, &b| {
                        let (ta, tb) = (&iter.workers[a], &iter.workers[b]);
                        (ta.redo_chunks.len() + extra[a].len())
                            .cmp(&(tb.redo_chunks.len() + extra[b].len()))
                            .then(ta.original.finish.total_cmp(&tb.original.finish))
                            .then(a.cmp(&b))
                    });
                match pick {
                    Some(w) => extra[w].push(chunk),
                    None => {
                        satisfiable = false;
                        break 'chunks;
                    }
                }
            }
        }

        if satisfiable {
            if cancel_late {
                // Cancel the late workers AND feed the estimator what the
                // master actually learned: by the deadline each cancelled
                // worker had processed `rate · elapsed` elements (the
                // single-job engine's partial-observation rule). Without
                // this, a cold-start straggler is cancelled before it can
                // ever report a speed and stays mispredicted forever.
                let mut obs: Vec<Option<f64>> = vec![None; n];
                let mut any_cancelled = false;
                let t_in = comm.transfer_time((cols * rhs * 8) as u64);
                let mut sink = CancelSink {
                    job: id,
                    now,
                    busy_time: &mut self.report.busy_time,
                    backend: self.backend.as_mut(),
                    telemetry: &mut self.telemetry,
                };
                for (w, slot) in obs.iter_mut().enumerate() {
                    // Only running tasks are cancelled: a worker with no
                    // task this iteration must not fabricate a near-zero
                    // speed observation that permanently excludes a
                    // healthy worker.
                    let Some((finish, ded_offset)) = iter
                        .workers
                        .get(w)
                        .map(|t| (t.original.finish, t.ded_offset))
                    else {
                        continue;
                    };
                    if finish <= now || !iter.cancel(w, TaskKind::Original, &mut sink) {
                        continue;
                    }
                    let rows_w = iter.chunks_of(w, TaskKind::Original).len() * rpc;
                    let work = ((rows_w * cols) * rhs) as f64;
                    let t_reply = comm.transfer_time(((rows_w * rhs) * 8) as u64);
                    // Reconstruct progress in *dedicated* share-seconds
                    // (the share integral), not wall time — rebalances
                    // change the share mid-task, and wall spans would
                    // misattribute the mixed-share window. Comm legs are
                    // charged at the current share (exact when the share
                    // never changed). Pipelined rounds subtract the
                    // queueing offset spent waiting behind earlier window
                    // rounds (identically 0 at depth 1).
                    let ded_total = (iter.dedicated_by(finish) - ded_offset).max(f64::MIN_POSITIVE);
                    let ded_elapsed = (iter.dedicated_by(now) - ded_offset).max(f64::MIN_POSITIVE);
                    let ded_comm = (t_in + t_reply) * iter.share;
                    let compute_ded = (ded_total - ded_comm).max(f64::MIN_POSITIVE);
                    let rate = work / compute_ded;
                    let partial = (rate * (ded_elapsed - t_in * iter.share).max(0.0)).min(work);
                    *slot = Some(partial.max(1.0) / ded_elapsed);
                    any_cancelled = true;
                }
                if any_cancelled {
                    self.tracker.observe(&obs);
                }
            }
            // Rung 3 of the ladder: chunks actually move to finished
            // workers this recovery pass.
            record_rung(
                &mut self.report,
                &mut self.telemetry,
                now,
                id,
                generation,
                3,
            );
            let mut latest_redo = now;
            for (w, new_chunks) in extra.into_iter().enumerate() {
                if new_chunks.is_empty() {
                    continue;
                }
                // Dispatch the reassigned chunks for real before merging
                // them into the timing model's bookkeeping.
                self.backend
                    .on_redo(id, generation, w, &new_chunks)
                    .map_err(ServeError::Backend)?;
                let share = iter.share;
                let slot = &mut iter.workers[w];
                // Merge with any still-running redo on the same worker:
                // the combined task finishes after both workloads.
                let base = if slot.redo.running() {
                    slot.redo.finish
                } else {
                    now
                };
                let rows_w = new_chunks.len() * rpc;
                let work = ((rows_w * cols) * rhs) as f64;
                let rate = speeds[w] * share * elements_per_sec * speedup;
                let order_bytes = self.cfg.scheduler.redo_order_bytes(rows_w, cols, rhs);
                let finish = base
                    + comm.transfer_time(order_bytes)
                    + work / rate
                    + comm.transfer_time(((rows_w * rhs) * 8) as u64);
                slot.redo_chunks.extend(new_chunks);
                slot.redo.state = TaskState::Running;
                slot.redo.finish = finish;
                latest_redo = latest_redo.max(finish);
                slot.redo.busy_charged += work / rate * share;
                self.report.busy_time[w] += work / rate * share;
                let chunks = slot.redo_chunks.len();
                trace_into(&mut self.telemetry, now, || TraceEventKind::TaskDispatch {
                    job: id,
                    worker: w,
                    generation,
                    chunks,
                    redo: true,
                });
                self.queue.push(
                    finish,
                    EventKind::TaskComplete {
                        job: id,
                        worker: w,
                        generation,
                        redo: true,
                    },
                );
            }
            if from_timeout {
                self.report.timeouts += 1;
            }
            let deadline = now + (1.0 + margin) * (latest_redo - now).max(f64::MIN_POSITIVE);
            self.queue.push(deadline, iter.arm(id, deadline));
            return Ok(());
        }

        // Rung 4: not enough finished workers — wait out whatever is
        // still in flight (conventional semantics).
        let has_inflight = iter.tasks().any(|(_, _, task, _)| task.running());
        if has_inflight {
            if !iter.waited_out {
                iter.waited_out = true;
                // Rung 4: no spare finished workers — conventional
                // wait-out. Counted once per iteration (the flag), not
                // once per re-armed deadline.
                record_rung(
                    &mut self.report,
                    &mut self.telemetry,
                    now,
                    id,
                    generation,
                    4,
                );
            }
            let deadline = reschedule_after_inflight(iter);
            self.queue.push(deadline, iter.arm(id, deadline));
            return Ok(());
        }

        // Rung 5: churn storm took everyone — restart this round. Later
        // window rounds keep running: their completions park behind the
        // commit cursor until the restarted round retires.
        record_rung(
            &mut self.report,
            &mut self.telemetry,
            now,
            id,
            generation,
            5,
        );
        let failed_round = job.window.remove(pos);
        let round_index = failed_round.round_index;
        self.scratch.reclaim(failed_round);
        self.backend.on_iteration_abandoned(id, generation);
        job.iter_retries += 1;
        job.total_retries += 1;
        if job.iter_retries > self.cfg.max_retries {
            // The retry budget is a property of the residency: when it
            // is exhausted, every member of the batch fails together,
            // each with its own record. The rest of the window is torn
            // down with it — cancel every surviving in-flight task and
            // abandon each round at the backend.
            for mut r in job.window.drain(..) {
                r.cancel_all(&mut CancelSink {
                    job: id,
                    now,
                    busy_time: &mut self.report.busy_time,
                    backend: self.backend.as_mut(),
                    telemetry: &mut self.telemetry,
                });
                self.backend.on_iteration_abandoned(id, r.generation);
                self.scratch.reclaim(r);
            }
            self.resolve_residency(id, now, true)
        } else {
            self.dispatch_round(id, round_index, now)
        }
    }
}
