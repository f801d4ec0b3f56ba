//! The scheme decision: all the engine does differently per
//! [`SchedulerMode`] — job shape, round plan, adaptivity, decode cost,
//! redo order size — as one exhaustive `match` each. A new scheme lands
//! here and the compiler names every decision it must make; the rest of
//! the engine names no variant.

use super::core::RunningIteration;
use crate::shared_alloc::{allocate_for_resident, SharedAssignment};
use crate::workload::JobSpec;
use s2c2_core::speed_tracker::PredictorSource;
use s2c2_core::{allocate_chunks, allocate_full, plan_or_full};

/// How the engine schedules coded work onto the pool.
#[derive(Debug)]
pub enum SchedulerMode {
    /// Even uncoded split over available workers; every task must finish.
    Uncoded,
    /// Conventional `(n, k)` MDS: every available worker computes its full
    /// partition; the master takes the fastest `k` per chunk.
    ConventionalMds,
    /// Shared-cluster S²C²: capacity split across resident jobs, Algorithm
    /// 1 per job on predicted speeds, timeout-and-reassign on mis-
    /// prediction.
    SharedS2c2 {
        /// Where next-iteration speed estimates come from.
        predictor: PredictorSource,
    },
}

impl std::fmt::Display for SchedulerMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SchedulerMode::Uncoded => "uncoded",
            SchedulerMode::ConventionalMds => "mds",
            SchedulerMode::SharedS2c2 { .. } => "s2c2",
        };
        f.write_str(s)
    }
}

impl SchedulerMode {
    /// Where the speed tracker's forecasts come from.
    pub(crate) fn predictor(&self) -> PredictorSource {
        match self {
            SchedulerMode::SharedS2c2 { predictor } => predictor.clone(),
            SchedulerMode::Uncoded | SchedulerMode::ConventionalMds => PredictorSource::Uniform,
        }
    }

    /// Whether the scheme plans on predicted speeds: it arms each round's
    /// timeout from the plan, cancels late originals at recovery (learning
    /// their partial progress) and feeds every original completion to the
    /// tracker. The baselines never cancel; their timeout is a churn
    /// safety net armed past every scheduled finish.
    pub(crate) fn adaptive(&self) -> bool {
        match self {
            SchedulerMode::SharedS2c2 { .. } => true,
            SchedulerMode::Uncoded | SchedulerMode::ConventionalMds => false,
        }
    }

    /// Effective `(k, chunks, rows_per_chunk)` of a job on an `n`-worker
    /// pool. Uncoded jobs run as `k = 1` over a finer split (each chunk
    /// computed by exactly one worker — even-split, wait-for-all).
    pub(crate) fn shape(&self, spec: &JobSpec, n: usize) -> (usize, usize, usize) {
        match self {
            SchedulerMode::Uncoded => {
                let c = spec.chunks_per_partition * n;
                (1, c, spec.rows.div_ceil(c))
            }
            SchedulerMode::ConventionalMds | SchedulerMode::SharedS2c2 { .. } => {
                let c = spec.chunks_per_partition;
                let partition_rows = spec.rows.div_ceil(spec.k);
                (spec.k, c, partition_rows.div_ceil(c))
            }
        }
    }

    /// Plans one round of a `(k, c)` job with capacity `weight` out of
    /// `total_weight`: its slice and the per-worker speeds the plan
    /// assumed. `avail` holds actual speeds (zero when departed);
    /// `predicted` yields forecasts and only an adaptive scheme calls it.
    pub(crate) fn plan_round(
        &self,
        avail: &[f64],
        predicted: impl FnOnce() -> Vec<f64>,
        (k, c): (usize, usize),
        weight: f64,
        total_weight: f64,
    ) -> (SharedAssignment, Vec<f64>) {
        let uniform = || -> Vec<f64> {
            avail
                .iter()
                .map(|&s| if s > 0.0 { 1.0 } else { 0.0 })
                .collect()
        };
        let (assignment, degraded, speeds) = match self {
            // Algorithm 1 at k = 1 on equal speeds: an even split over the
            // available workers (`alive >= 1` makes the fallback moot).
            SchedulerMode::Uncoded => {
                let speeds = uniform();
                let alive = speeds.iter().map(|&s| s > 0.0);
                let (a, degraded) = plan_or_full(allocate_chunks(&speeds, k, c), alive, k, c);
                (a, degraded, speeds)
            }
            SchedulerMode::ConventionalMds => {
                let speeds = uniform();
                (
                    allocate_full(speeds.iter().map(|&s| s > 0.0), k, c),
                    false,
                    speeds,
                )
            }
            // Only this job's slice of the weighted capacity split is
            // needed; `rebalance_shares` rescales the neighbours.
            SchedulerMode::SharedS2c2 { .. } => {
                let speeds = predicted();
                return (
                    allocate_for_resident(&speeds, k, c, weight, total_weight),
                    speeds,
                );
            }
        };
        let share = (weight / total_weight).min(1.0);
        let plan = SharedAssignment {
            assignment,
            share,
            degraded,
        };
        (plan, speeds)
    }

    /// Master-side decode time of a completed round: none if uncoded;
    /// else per chunk an LU on the missing systematic rows, shared by a
    /// batch round's stacked right-hand sides, which each pay only the
    /// triangular solves and RHS adjustments (batching's decode saving).
    pub(crate) fn decode_seconds(&self, iter: &RunningIteration, flops_per_sec: f64) -> f64 {
        match self {
            SchedulerMode::Uncoded => return 0.0,
            SchedulerMode::ConventionalMds | SchedulerMode::SharedS2c2 { .. } => {}
        }
        let k = iter.k_eff;
        let rpc = iter.rows_per_chunk as f64;
        let rhs = iter.rhs as f64;
        let mut finishers: Vec<Vec<(f64, usize)>> =
            vec![Vec::new(); iter.assignment.chunks_per_partition];
        for (w, _, task, chunks) in iter.done_results() {
            for &chunk in chunks {
                if let Some(f) = finishers.get_mut(chunk) {
                    f.push((task.finish, w));
                }
            }
        }
        let mut flops = 0.0;
        for mut chunk_finishers in finishers {
            chunk_finishers.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let missing = chunk_finishers
                .iter()
                .take(k)
                .filter(|&&(_, w)| w >= k)
                .count() as f64;
            flops += missing.powi(3) / 3.0
                + rhs * (rpc * missing.powi(2))
                + rhs * (missing * k as f64 * rpc);
        }
        flops / flops_per_sec
    }

    /// Bytes of the order that hands `rows` redo rows (of `cols` columns,
    /// `rhs` stacked right-hand sides) to a finished worker. Coded hosts
    /// already hold the partitions, so the order is a 64-byte control
    /// message; uncoded hosts must first receive the raw rows.
    pub(crate) fn redo_order_bytes(&self, rows: usize, cols: usize, rhs: usize) -> u64 {
        match self {
            SchedulerMode::Uncoded => 64 + ((rows * cols) * rhs * 8) as u64,
            SchedulerMode::ConventionalMds | SchedulerMode::SharedS2c2 { .. } => 64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s2c2() -> SchedulerMode {
        SchedulerMode::SharedS2c2 {
            predictor: PredictorSource::Oracle,
        }
    }

    /// Plans with the predictions equal to `preds`.
    fn plan(
        mode: &SchedulerMode,
        avail: &[f64],
        preds: &[f64],
        kc: (usize, usize),
        weight: f64,
        total: f64,
    ) -> (SharedAssignment, Vec<f64>) {
        mode.plan_round(avail, || preds.to_vec(), kc, weight, total)
    }

    fn full(c: usize) -> Vec<usize> {
        (0..c).collect()
    }

    // Every expectation below is what the per-scheme planning arms the
    // engine had before this module produced for the same inputs.

    #[test]
    fn k_equal_to_alive_covers_every_alive_worker_fully() {
        let avail = [1.0, 0.0, 0.6, 0.9, 0.0];
        let want = vec![full(4), vec![], full(4), full(4), vec![]];
        for mode in [s2c2(), SchedulerMode::ConventionalMds] {
            let (p, _) = plan(&mode, &avail, &avail, (3, 4), 1.0, 2.0);
            assert_eq!(p.assignment.chunks, want, "{mode}");
            assert!(!p.degraded, "{mode}");
            assert_eq!(p.share, 0.5, "{mode}");
        }
    }

    #[test]
    fn k_one_splits_or_replicates_per_scheme() {
        let avail = [1.0, 0.5, 0.25, 0.0, 0.8];
        let (p, speeds) = plan(&s2c2(), &avail, &avail, (1, 6), 1.0, 1.0);
        assert_eq!(
            p.assignment.chunks,
            vec![vec![0, 1, 2], vec![5], vec![], vec![], vec![3, 4]]
        );
        assert!(!p.degraded);
        assert_eq!(speeds, avail);
        let (p, speeds) = plan(
            &SchedulerMode::ConventionalMds,
            &avail,
            &[],
            (1, 6),
            1.0,
            1.0,
        );
        assert_eq!(
            p.assignment.chunks,
            vec![full(6), full(6), full(6), vec![], full(6)]
        );
        assert!(!p.degraded);
        assert_eq!(speeds, vec![1.0, 1.0, 1.0, 0.0, 1.0]);
        let (p, speeds) = plan(&SchedulerMode::Uncoded, &avail, &[], (1, 6), 1.0, 1.0);
        assert_eq!(
            p.assignment.chunks,
            vec![vec![0, 1], vec![2, 3], vec![4], vec![], vec![5]]
        );
        assert!(!p.degraded);
        assert_eq!(speeds, vec![1.0, 1.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn one_chunk_per_partition() {
        let avail = [1.0, 0.5, 0.25, 0.0, 0.8];
        let share = 2.0 / 3.0;
        let (p, _) = plan(&s2c2(), &avail, &avail, (2, 1), 2.0, 3.0);
        assert_eq!(
            p.assignment.chunks,
            vec![vec![0], vec![], vec![], vec![], vec![0]]
        );
        assert!(!p.degraded);
        assert_eq!(p.share, share);
        let (p, _) = plan(
            &SchedulerMode::ConventionalMds,
            &avail,
            &[],
            (2, 1),
            2.0,
            3.0,
        );
        assert_eq!(
            p.assignment.chunks,
            vec![vec![0], vec![0], vec![0], vec![], vec![0]]
        );
        assert_eq!(p.share, share);
        let (p, _) = plan(&SchedulerMode::Uncoded, &avail, &[], (1, 1), 2.0, 3.0);
        assert_eq!(
            p.assignment.chunks,
            vec![vec![0], vec![], vec![], vec![], vec![]]
        );
        assert!(!p.degraded);
        assert_eq!(p.share, share);
    }

    #[test]
    fn uncoded_single_live_worker_takes_every_chunk() {
        let avail = [0.0, 0.0, 0.7, 0.0, 0.0];
        let (p, _) = plan(&SchedulerMode::Uncoded, &avail, &[], (1, 5), 1.0, 1.0);
        assert_eq!(
            p.assignment.chunks,
            vec![vec![], vec![], full(5), vec![], vec![]]
        );
        assert!(!p.degraded);
        assert_eq!(p.share, 1.0);
    }

    #[test]
    fn s2c2_slice_degrades_to_full_over_predicted_alive() {
        // Every worker is up, but predictions name only two of the k = 3
        // needed: the plan degrades to full partitions on those two.
        let avail = [1.0; 5];
        let preds = [1.0, 0.0, 0.0, 0.5, 0.0];
        let (p, _) = plan(&s2c2(), &avail, &preds, (3, 4), 1.0, 3.0);
        assert_eq!(
            p.assignment.chunks,
            vec![full(4), vec![], vec![], full(4), vec![]]
        );
        assert!(p.degraded);
        assert_eq!(p.share, 1.0 / 3.0);
    }

    #[test]
    fn only_the_adaptive_scheme_reads_predictions() {
        let avail = [1.0, 1.0];
        for mode in [SchedulerMode::Uncoded, SchedulerMode::ConventionalMds] {
            assert!(!mode.adaptive());
            let _ = mode.plan_round(
                &avail,
                || unreachable!("{mode} read predictions"),
                (1, 2),
                1.0,
                1.0,
            );
        }
        assert!(s2c2().adaptive());
    }
}
