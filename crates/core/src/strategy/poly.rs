//! Polynomial-coded bilinear computation, conventional and S²C²-scheduled
//! (§5, Fig 12).
//!
//! The workload is the Hessian-style product `Aᵀ·diag(w)·A` (encoded once
//! as a polynomial-code pair). Two schedulers share the execution shape:
//!
//! * [`PolyConventional`] — every node computes its full encoded product;
//!   the master takes the fastest `a·b` responses.
//! * [`PolyS2c2`] — Algorithm 1 assigns row chunks of each node's encoded
//!   `Ã_i` proportional to predicted speed (coverage `a·b` per chunk
//!   index), with the same timeout/reassignment machinery as the MDS
//!   variant.
//!
//! Timing honours the paper's observation that the `diag(w)·B̃_i` scaling
//! pass is *not* reduced by S²C² (every node scales its full `B̃_i`), which
//! is why measured gains (19%) sit below the ideal `(n − ab)/ab`.

use crate::alloc::{allocate_chunks_with_fixed_cost, allocate_full, plan_or_full, ChunkAssignment};
use crate::error::S2c2Error;
use crate::speed_tracker::{PredictorSource, SpeedTracker};
use s2c2_cluster::metrics::RoundMetrics;
use s2c2_cluster::ClusterSim;
use s2c2_coding::chunks::WorkerChunkResult;
use s2c2_coding::polynomial::{EncodedPair, PolyParams, PolynomialCode};
use s2c2_linalg::{Matrix, Vector};

/// Result of one bilinear iteration.
#[derive(Debug, Clone)]
pub struct BilinearOutcome {
    /// The decoded product (e.g. the Hessian), truncated to original shape.
    pub result: Matrix,
    /// Round accounting.
    pub metrics: RoundMetrics,
}

/// A scheduler for iterated polynomial-coded bilinear jobs.
pub trait BilinearStrategy: Send {
    /// Human-readable name.
    fn name(&self) -> String;

    /// Runs iteration `iteration` with middle weight vector `w`.
    ///
    /// # Errors
    ///
    /// Surfaces scheduling and decode failures.
    fn run_iteration(
        &mut self,
        sim: &mut ClusterSim,
        iteration: usize,
        w: &Vector,
    ) -> Result<BilinearOutcome, S2c2Error>;
}

/// Shared state for the two polynomial schedulers.
struct PolyShared {
    code: PolynomialCode,
    enc: EncodedPair,
}

impl PolyShared {
    fn new(
        a_t: &Matrix,
        a: &Matrix,
        params: PolyParams,
        chunks_per_partition: usize,
    ) -> Result<Self, S2c2Error> {
        let code = PolynomialCode::new(params)?;
        let enc = code.encode_pair(a_t, a, chunks_per_partition)?;
        Ok(PolyShared { code, enc })
    }

    /// Executes a round under `assignment`; mirrors
    /// [`coded_common::run_coded_round`](crate::strategy::coded_common::run_coded_round)
    /// with the polynomial cost model (fixed scaling pass + per-chunk
    /// product) and `k = a·b`.
    #[allow(clippy::too_many_lines, clippy::too_many_arguments)]
    fn run_round(
        &self,
        assignment: &ChunkAssignment,
        sim: &ClusterSim,
        iteration: usize,
        w: &Vector,
        timeout_margin: f64,
        reassign: bool,
        expected_speeds: Option<&[f64]>,
    ) -> Result<(BilinearOutcome, Vec<Option<f64>>, bool), S2c2Error> {
        let n = sim.n();
        let p = self.code.params();
        let need = p.recovery_threshold();
        let layout = *self.enc.layout();
        let c = layout.row.chunks_per_partition;
        let rpc = layout.row.rows_per_chunk();
        let m = w.len(); // inner dimension
        let pcol = layout.cols_per_partition();
        let input_time = sim.transfer_time((m * 8) as u64);

        // Per-worker phase-1 completion: input + fixed diag(w)·B̃ scaling
        // (m·pcol elements) + chunk products (rows·m·pcol elements, modelled
        // as rows·(m·pcol) "row-equivalents") + reply.
        let rows: Vec<usize> = assignment.rows_per_worker(rpc);
        let row_cost_cols = m * pcol; // elements per product row
        let mut times = vec![f64::INFINITY; n];
        for wk in 0..n {
            if rows[wk] == 0 {
                continue;
            }
            times[wk] = input_time
                + sim.compute_time(wk, m, pcol) // fixed scaling pass
                + sim.compute_time(wk, rows[wk], row_cost_cols)
                + sim.transfer_time((rows[wk] * pcol * 8) as u64);
        }
        let assigned: Vec<usize> = (0..n).filter(|&wk| rows[wk] > 0).collect();
        if assigned.len() < need {
            return Err(S2c2Error::NotEnoughWorkers {
                alive: assigned.len(),
                need,
            });
        }

        // Plan-normalized §4.3 deadline: each worker's budget covers its
        // fixed diag(w) pass plus its chunk share, divided by its
        // predicted speed when scheduling adaptively (see coded_common
        // for the rationale).
        let work_of = |wk: usize| (m * pcol + rows[wk] * row_cost_cols) as f64;
        let planned: Vec<f64> = (0..n)
            .map(|wk| match expected_speeds {
                Some(p) if p[wk] > 0.0 => work_of(wk) / p[wk],
                _ => work_of(wk),
            })
            .collect();
        let mut by_time: Vec<usize> = assigned.clone();
        by_time.sort_by(|&a, &b| times[a].total_cmp(&times[b]));
        let t_kth = times[by_time[need - 1]];
        let mean_rate: f64 = by_time[..need]
            .iter()
            .map(|&wk| times[wk] / planned[wk])
            .sum::<f64>()
            / need as f64;
        let deadline_for = |wk: usize| t_kth.max((1.0 + timeout_margin) * planned[wk] * mean_rate);

        let covers = |wk: usize, chunk: usize| assignment.chunks[wk].binary_search(&chunk).is_ok();
        let active: Vec<usize> = assigned
            .iter()
            .copied()
            .filter(|&wk| times[wk] <= deadline_for(wk))
            .collect();
        let mut cancelled: Vec<usize> = if reassign {
            assigned
                .iter()
                .copied()
                .filter(|&wk| times[wk] > deadline_for(wk))
                .collect()
        } else {
            Vec::new()
        };
        let cancel_at = cancelled
            .iter()
            .map(|&wk| deadline_for(wk))
            .fold(t_kth, f64::max);

        // Reassign deficit chunks among finished workers.
        let mut extra: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut fired = false;
        if !cancelled.is_empty() {
            let mut ok = true;
            let mut candidates = active.clone();
            candidates.sort_by(|&a, &b| times[a].total_cmp(&times[b]));
            'outer: for chunk in 0..c {
                let live = active.iter().filter(|&&wk| covers(wk, chunk)).count();
                if live >= need {
                    continue;
                }
                let mut want = need - live;
                while want > 0 {
                    let pick = candidates
                        .iter()
                        .copied()
                        .filter(|&cand| !covers(cand, chunk) && !extra[cand].contains(&chunk))
                        .min_by_key(|&cand| extra[cand].len());
                    match pick {
                        Some(cand) => {
                            extra[cand].push(chunk);
                            want -= 1;
                        }
                        None => break,
                    }
                }
                if want > 0 {
                    ok = false;
                    break 'outer;
                }
            }
            if ok {
                fired = true;
            } else {
                extra.iter_mut().for_each(Vec::clear);
                cancelled.clear();
            }
        }
        let live_workers: Vec<usize> = if cancelled.is_empty() {
            assigned.clone()
        } else {
            active.clone()
        };

        let mut t2 = vec![f64::INFINITY; n];
        for (wk, ex) in extra.iter().enumerate() {
            if !ex.is_empty() {
                let er = ex.len() * rpc;
                t2[wk] = cancel_at
                    + sim.transfer_time(64)
                    + sim.compute_time(wk, er, row_cost_cols)
                    + sim.transfer_time((er * pcol * 8) as u64);
            }
        }

        // Collection: need earliest results per chunk.
        let mut t_compute: f64 = 0.0;
        let mut chosen: Vec<Vec<usize>> = vec![Vec::new(); c];
        for (chunk, slot) in chosen.iter_mut().enumerate() {
            let mut cands: Vec<(f64, usize)> = Vec::new();
            for &wk in &live_workers {
                if covers(wk, chunk) {
                    cands.push((times[wk], wk));
                }
            }
            for (wk, ex) in extra.iter().enumerate() {
                if ex.contains(&chunk) {
                    cands.push((t2[wk], wk));
                }
            }
            cands.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            if cands.len() < need {
                return Err(S2c2Error::IterationFailed(format!(
                    "chunk {chunk}: only {} poly results",
                    cands.len()
                )));
            }
            t_compute = t_compute.max(cands[need - 1].0);
            *slot = cands[..need].iter().map(|&(_, wk)| wk).collect();
        }

        // Numeric compute + decode.
        let mut responses: Vec<WorkerChunkResult> = Vec::new();
        let mut useful_rows = vec![0usize; n];
        for (chunk, sel) in chosen.iter().enumerate() {
            for &wk in sel {
                responses.push(self.enc.worker_compute_chunk(wk, chunk, Some(w)));
                useful_rows[wk] += rpc;
            }
        }
        let result = self.code.decode_product(&layout, &responses)?;
        // Interpolation solve: need^3/3 LU + need^2 per decoded value.
        let vpc = layout.values_per_chunk() as f64;
        let nd = need as f64;
        let decode_time = sim.decode_time(c as f64 * (nd * nd * nd / 3.0 + vpc * nd * nd));

        let mut metrics = RoundMetrics::new(iteration, n);
        let mut observed: Vec<Option<f64>> = vec![None; n];
        for wk in 0..n {
            let er = extra[wk].len() * rpc;
            if live_workers.contains(&wk) {
                metrics.assigned_rows[wk] = rows[wk] + er;
                metrics.computed_rows[wk] = rows[wk] + er;
                let t = if er > 0 { t2[wk] } else { times[wk] };
                if rows[wk] + er > 0 {
                    metrics.response_times[wk] = Some(t);
                    // Speed estimation uses the phase-1 response and is
                    // work-normalized (the fixed diag(w) pass is part of
                    // the response time, so `rows/time` would report
                    // different "speeds" for equal-speed workers with
                    // different loads).
                    observed[wk] = Some(work_of(wk) / times[wk]);
                }
            } else if cancelled.contains(&wk) {
                metrics.assigned_rows[wk] = rows[wk];
                let own_deadline = deadline_for(wk);
                let elapsed = (own_deadline - input_time).max(0.0);
                let partial_elems = sim.partial_compute_elements(wk, elapsed);
                let partial = ((partial_elems / row_cost_cols as f64) as usize).min(rows[wk]);
                metrics.computed_rows[wk] = partial;
                metrics.response_times[wk] = Some(own_deadline);
                observed[wk] = Some(partial_elems.max(1.0) / own_deadline);
            }
        }
        metrics.useful_rows = useful_rows;
        metrics.latency = t_compute + decode_time;
        metrics.decode_time = decode_time;
        debug_assert!(metrics.conserves_work());

        Ok((BilinearOutcome { result, metrics }, observed, fired))
    }
}

/// Conventional polynomial-coded computation: full work on every node,
/// fastest `a·b` win.
pub struct PolyConventional {
    shared: PolyShared,
}

impl PolyConventional {
    /// Encodes the pair `(Aᵀ, A)` for Hessian computation.
    ///
    /// # Errors
    ///
    /// Propagates code/shape failures.
    pub fn new(
        a_t: &Matrix,
        a: &Matrix,
        params: PolyParams,
        chunks_per_partition: usize,
    ) -> Result<Self, S2c2Error> {
        Ok(PolyConventional {
            shared: PolyShared::new(a_t, a, params, chunks_per_partition)?,
        })
    }
}

impl BilinearStrategy for PolyConventional {
    fn name(&self) -> String {
        let p = self.shared.code.params();
        format!("poly({},{}x{})", p.n, p.a, p.b)
    }

    fn run_iteration(
        &mut self,
        sim: &mut ClusterSim,
        iteration: usize,
        w: &Vector,
    ) -> Result<BilinearOutcome, S2c2Error> {
        sim.begin_iteration(iteration);
        let p = self.shared.code.params();
        let assignment = allocate_full(
            vec![true; p.n],
            p.recovery_threshold(),
            self.shared.enc.layout().row.chunks_per_partition,
        );
        let (outcome, _, _) =
            self.shared
                .run_round(&assignment, sim, iteration, w, 0.15, false, None)?;
        Ok(outcome)
    }
}

/// S²C²-scheduled polynomial-coded computation.
pub struct PolyS2c2 {
    shared: PolyShared,
    tracker: SpeedTracker,
    timeout_margin: f64,
    mispredicted_rounds: usize,
    rounds: usize,
}

impl PolyS2c2 {
    /// Encodes the pair and builds the scheduler.
    ///
    /// # Errors
    ///
    /// Propagates code/shape failures.
    pub fn new(
        a_t: &Matrix,
        a: &Matrix,
        params: PolyParams,
        chunks_per_partition: usize,
        predictor: &PredictorSource,
    ) -> Result<Self, S2c2Error> {
        Ok(PolyS2c2 {
            shared: PolyShared::new(a_t, a, params, chunks_per_partition)?,
            tracker: SpeedTracker::new(predictor, params.n),
            timeout_margin: 0.15,
            mispredicted_rounds: 0,
            rounds: 0,
        })
    }

    /// Measured fraction of rounds where the timeout fired.
    #[must_use]
    pub fn misprediction_rate(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.mispredicted_rounds as f64 / self.rounds as f64
        }
    }
}

impl BilinearStrategy for PolyS2c2 {
    fn name(&self) -> String {
        let p = self.shared.code.params();
        format!("poly-s2c2({},{}x{})", p.n, p.a, p.b)
    }

    fn run_iteration(
        &mut self,
        sim: &mut ClusterSim,
        iteration: usize,
        w: &Vector,
    ) -> Result<BilinearOutcome, S2c2Error> {
        sim.begin_iteration(iteration);
        let p = self.shared.code.params();
        let layout = *self.shared.enc.layout();
        let c = layout.row.chunks_per_partition;
        let preds = self.tracker.predictions(sim);
        // Fixed cost: the diag(w) scaling pass over the full encoded B
        // partition; unit cost: one chunk's product work.
        let m = w.len() as f64;
        let pcol = layout.cols_per_partition() as f64;
        let fixed = m * pcol;
        let unit = layout.row.rows_per_chunk() as f64 * m * pcol;
        let k = p.recovery_threshold();
        let plan = allocate_chunks_with_fixed_cost(&preds, k, c, fixed, unit);
        let (assignment, _) = plan_or_full(plan, vec![true; p.n], k, c);
        // Cold-start margin widening: see S2c2Strategy::run_iteration.
        let margin = if self.rounds == 0 {
            self.timeout_margin.max(0.35)
        } else {
            self.timeout_margin
        };
        let (outcome, observed, fired) =
            self.shared
                .run_round(&assignment, sim, iteration, w, margin, true, Some(&preds))?;
        self.rounds += 1;
        if fired {
            self.mispredicted_rounds += 1;
        }
        self.tracker.observe(&observed);
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2c2_cluster::ClusterSpec;

    /// Small Hessian setup: A is m×d, we compute Aᵀ diag(w) A (d×d).
    fn hessian_inputs() -> (Matrix, Matrix, Vector, Matrix) {
        let m = 30;
        let d = 18;
        let a = Matrix::from_fn(m, d, |r, c| (((r * 7 + c * 3) % 10) as f64 - 4.5) / 3.0);
        let a_t = a.transpose();
        let w = Vector::from_fn(m, |i| 0.5 + (i % 4) as f64 * 0.25);
        // Reference: A^T diag(w) A.
        let mut scaled = a.clone();
        for r in 0..m {
            let f = w.as_slice()[r];
            for v in scaled.row_mut(r) {
                *v *= f;
            }
        }
        let expect = a_t.matmul(&scaled);
        (a_t, a, w, expect)
    }

    #[test]
    fn conventional_decodes_hessian_exactly() {
        let (a_t, a, w, expect) = hessian_inputs();
        let mut s = PolyConventional::new(&a_t, &a, PolyParams::new(12, 3, 3), 2).unwrap();
        let mut sim = ClusterSim::new(
            ClusterSpec::builder(12)
                .compute_bound()
                .straggler_slowdown(5.0)
                .stragglers(&[4, 8], 0.0)
                .build(),
        );
        let out = s.run_iteration(&mut sim, 0, &w).unwrap();
        assert!(out.result.max_abs_diff(&expect) < 1e-6);
        // 12 - 9 = 3 workers wasted.
        let wasted = out
            .metrics
            .wasted_fraction()
            .iter()
            .filter(|&&f| f >= 1.0 - 1e-12)
            .count();
        assert_eq!(wasted, 3);
    }

    #[test]
    fn s2c2_decodes_hessian_exactly_with_oracle() {
        let (a_t, a, w, expect) = hessian_inputs();
        let mut s = PolyS2c2::new(
            &a_t,
            &a,
            PolyParams::new(12, 3, 3),
            6,
            &PredictorSource::Oracle,
        )
        .unwrap();
        let mut sim = ClusterSim::new(
            ClusterSpec::builder(12)
                .compute_bound()
                .straggler_slowdown(5.0)
                .stragglers(&[0], 0.0)
                .build(),
        );
        let layout_rpc = 1; // 18 rows / a=3 partitions / 6 chunks
        for iter in 0..3 {
            let out = s.run_iteration(&mut sim, iter, &w).unwrap();
            assert!(out.result.max_abs_diff(&expect) < 1e-6, "iteration {iter}");
            // Proportional allocation cannot equalize the fixed diag(w)
            // scaling pass (the paper's §7.2.3 caveat), so the 5x-slow
            // worker may still miss the deadline and waste its (tiny)
            // share — but never more than a chunk or two.
            assert!(
                out.metrics.total_wasted_rows() <= 2 * layout_rpc,
                "waste {} beyond the fixed-cost allowance",
                out.metrics.total_wasted_rows()
            );
        }
    }

    #[test]
    fn s2c2_faster_than_conventional_when_healthy() {
        let (a_t, a, w, _) = hessian_inputs();
        let params = PolyParams::new(12, 3, 3);
        let mut conv = PolyConventional::new(&a_t, &a, params, 6).unwrap();
        let mut s2c2 = PolyS2c2::new(&a_t, &a, params, 6, &PredictorSource::Oracle).unwrap();
        let spec = ClusterSpec::builder(12).compute_bound().build();
        let mut sim_a = ClusterSim::new(spec.clone());
        let mut sim_b = ClusterSim::new(spec);
        let lc = conv
            .run_iteration(&mut sim_a, 0, &w)
            .unwrap()
            .metrics
            .latency;
        let ls = s2c2
            .run_iteration(&mut sim_b, 0, &w)
            .unwrap()
            .metrics
            .latency;
        assert!(
            ls < lc,
            "S2C2 poly should beat conventional on a healthy cluster: {ls} vs {lc}"
        );
        // Gains bounded by the un-schedulable diag(w) pass: conventional /
        // s2c2 must stay below the ideal 12/9 ratio.
        assert!(lc / ls < 12.0 / 9.0 + 0.05);
    }

    #[test]
    fn s2c2_recovers_from_misprediction() {
        let (a_t, a, w, expect) = hessian_inputs();
        let mut s = PolyS2c2::new(
            &a_t,
            &a,
            PolyParams::new(12, 3, 3),
            6,
            &PredictorSource::Uniform, // always wrong about stragglers
        )
        .unwrap();
        let mut sim = ClusterSim::new(
            ClusterSpec::builder(12)
                .compute_bound()
                .straggler_slowdown(5.0)
                .stragglers(&[2, 9], 0.0)
                .build(),
        );
        let out = s.run_iteration(&mut sim, 0, &w).unwrap();
        assert!(out.result.max_abs_diff(&expect) < 1e-6);
        assert!(s.misprediction_rate() > 0.0);
    }
}
