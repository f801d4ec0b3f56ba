//! Work-conserving share rebalancing and deadline-aware share boosting.
//!
//! Shares are a pure function of the live resident set's *effective*
//! weight mass (nominal weights times any deadline boosts). Whenever
//! that mass changes — admission, completion, failure, or a boost
//! firing — every running iteration's share is recomputed and its
//! in-flight tasks rescaled at the current instant, so capacity is
//! never left idle waiting for an iteration boundary and the pool is
//! never over-subscribed by stale snapshots. Under pipelined serving a
//! job's *whole in-flight window* rescales together: every window round
//! runs at the job's single share, so the job's capacity draw is
//! constant regardless of pipeline depth.

use super::core::{BatchMember, ResidentJob, TaskKind};
use super::{trace_into, ServiceEngine};
use crate::event::{EventKind, JobId};
use s2c2_telemetry::TraceEventKind;

impl ServiceEngine {
    /// One member's effective capacity weight: its nominal weight,
    /// multiplied by the deadline-boost factor once the member has been
    /// flagged at-risk.
    fn member_weight(&self, member: &BatchMember) -> f64 {
        match (&self.cfg.deadline_boost, member.boosted) {
            (Some(boost), true) => member.spec.weight * boost.factor,
            _ => member.spec.weight,
        }
    }

    /// A residency slot's effective capacity weight: the sum of its
    /// members' effective weights. Batching is capacity-neutral by
    /// construction — m coalesced weight-1 jobs hold exactly the
    /// capacity m resident weight-1 jobs would, and a boost firing for
    /// one member raises only that member's contribution.
    pub(crate) fn effective_weight(&self, job: &ResidentJob) -> f64 {
        job.members.iter().map(|m| self.member_weight(m)).sum()
    }

    /// The live resident set's effective weight mass, which every share
    /// is normalized by.
    pub(crate) fn resident_weight(&self) -> f64 {
        self.resident
            .values()
            .map(|j| self.effective_weight(j))
            .sum()
    }

    /// Flags resident members whose remaining SLO slack has dropped
    /// below the configured threshold fraction. Returns whether any
    /// member's boost state changed (the caller then rescales shares).
    /// Boosts are sticky: un-boosting when the bump restores slack
    /// would oscillate at every evaluation point. Boost accounting is
    /// per *member*: a batch carrying one at-risk job boosts that job's
    /// weight contribution, not the whole batch.
    pub(crate) fn update_deadline_boosts(&mut self) -> bool {
        let Some(boost) = self.cfg.deadline_boost else {
            return false;
        };
        let now = self.now;
        let mut changed = false;
        for job in self.resident.values_mut() {
            for member in &mut job.members {
                if member.boosted {
                    continue;
                }
                let Some(deadline_abs) = member.deadline_abs else {
                    continue;
                };
                let total = deadline_abs - member.arrival;
                if total <= 0.0 {
                    continue;
                }
                let remaining = deadline_abs - now;
                if remaining / total < boost.slack_threshold {
                    member.boosted = true;
                    self.report.boost_activations += 1;
                    changed = true;
                }
            }
        }
        changed
    }

    /// Work-conserving share rebalance: recomputes every running
    /// iteration's share from the live resident weight mass and rescales
    /// its in-flight tasks at the current instant. Called whenever the
    /// resident set changes (admission, completion, failure) and when a
    /// deadline boost fires, so shares always sum to 1 across residents
    /// — which is also what keeps per-worker busy accounting within the
    /// service horizon.
    ///
    /// Rescaling stretches a task's whole remaining span by
    /// `old_share / new_share` and reschedules its completion event; the
    /// superseded event is recognized (and dropped) by its stale finish
    /// time. Busy accounting needs no adjustment: a task's dedicated
    /// compute-seconds are share-invariant, and the refund rule
    /// `(finish − now) · share` is preserved exactly by the rescale.
    pub(crate) fn rebalance_shares(&mut self) {
        self.update_deadline_boosts();
        let total = self.resident_weight();
        if total <= 0.0 {
            return;
        }
        let now = self.now;
        let margin = self.cfg.timeout_margin;
        let ids: Vec<JobId> = self.resident.keys().copied().collect();
        let resident_count = ids.len();
        for id in ids {
            let weight = self.effective_weight(&self.resident[&id]);
            let new_share = weight / total;
            let Some(job) = self.resident.get_mut(&id) else {
                continue;
            };
            let mut job_touched = false;
            // Deferred re-arms: (window position, latest stretched
            // finish). The Rebalance trace and any re-armed Timeout
            // events are emitted after the whole window rescaled, so the
            // per-job trace/event order matches the barrier engine
            // exactly at depth 1.
            let mut rearm: Vec<(usize, f64)> = Vec::new();
            for (pos, iter) in job.window.iter_mut().enumerate() {
                let old_share = iter.share;
                if (new_share - old_share).abs() <= 1e-12 * new_share.max(old_share) {
                    continue;
                }
                let stretch = old_share / new_share;
                let generation = iter.generation;
                let mut touched = false;
                let mut latest = now;
                for (w, slot) in iter.workers.iter_mut().enumerate() {
                    for kind in TaskKind::BOTH {
                        let task = slot.task_mut(kind);
                        if !task.running() || task.finish <= now {
                            continue;
                        }
                        task.finish = now + (task.finish - now) * stretch;
                        latest = latest.max(task.finish);
                        touched = true;
                        self.queue.push(
                            task.finish,
                            EventKind::TaskComplete {
                                job: id,
                                worker: w,
                                generation,
                                redo: kind.is_redo(),
                            },
                        );
                    }
                }
                // Close the old share segment so speed observations integrate
                // the true dedicated time across the change.
                iter.share_integral += (now - iter.share_anchor).max(0.0) * old_share;
                iter.share_anchor = iter.share_anchor.max(now);
                iter.share = new_share;
                if !touched {
                    continue;
                }
                job_touched = true;
                // Stretched spans can outrun the armed §4.3 deadline;
                // re-arm behind them so a squeezed (not straggling)
                // round is not spuriously cancelled.
                if latest >= iter.armed_deadline {
                    rearm.push((pos, latest));
                }
            }
            if !job_touched {
                continue;
            }
            self.report.rebalances += 1;
            trace_into(&mut self.telemetry, now, || TraceEventKind::Rebalance {
                resident: resident_count,
            });
            for (pos, latest) in rearm {
                let deadline = now + (1.0 + margin) * (latest - now).max(f64::MIN_POSITIVE);
                self.queue.push(deadline, job.window[pos].arm(id, deadline));
            }
        }
    }
}
