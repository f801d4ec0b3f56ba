//! The shared execution engine for coded matvec iterations.
//!
//! Uncoded, conventional MDS, and both S²C² variants all reduce to the
//! same round shape — broadcast `x`, workers compute assigned chunks of
//! their coded partitions, master collects per-chunk coverage, optionally
//! cancels-and-reassigns after the §4.3 timeout, decodes — differing only
//! in the *assignment* they start from and whether reassignment is
//! enabled. This module implements that round once, with exact accounting
//! of useful vs wasted rows (Figs 9/11 are computed from it).
//!
//! Collection rule: for every chunk index the master uses the `k`
//! earliest-arriving results among workers that computed that chunk; any
//! further copies of the chunk are wasted work. For an exact-coverage
//! S²C² assignment the rule degenerates to "use everything"; for a
//! conventional full assignment it is precisely the fastest-`k`-of-`n`
//! rule of MDS coded computing.

use crate::alloc::ChunkAssignment;
use crate::error::S2c2Error;
use s2c2_cluster::metrics::RoundMetrics;
use s2c2_cluster::sim::{round_completion_times, ClusterSim};
use s2c2_coding::chunks::WorkerChunkResult;
use s2c2_coding::mds::{EncodedMatrix, MdsCode};
use s2c2_linalg::Vector;

/// Tuning knobs for a coded round.
#[derive(Debug, Clone, Copy)]
pub struct CodedRoundConfig {
    /// The §4.3 timeout margin: stragglers get `(1 + margin) ×` the mean
    /// response time of the first `k` finishers before cancellation.
    pub timeout_margin: f64,
    /// Whether cancel-and-reassign is enabled (S²C²) or the master simply
    /// waits out the coverage requirement (conventional coded computing).
    pub reassign: bool,
}

impl Default for CodedRoundConfig {
    fn default() -> Self {
        CodedRoundConfig {
            timeout_margin: 0.15,
            reassign: true,
        }
    }
}

/// Everything a strategy learns from one executed round.
#[derive(Debug, Clone)]
pub struct CodedRound {
    /// Decoded result (original, unpadded row count).
    pub result: Vector,
    /// Full accounting for the round.
    pub metrics: RoundMetrics,
    /// Observed per-worker speeds (`rows / response_time`), the §6.2
    /// estimator input; `None` for idle workers.
    pub observed_speeds: Vec<Option<f64>>,
    /// Whether the timeout machinery fired (a mis-prediction was handled).
    pub reassigned: bool,
}

/// Executes one coded round against the simulator.
///
/// `sim.begin_iteration` must already have been called for `iteration`.
///
/// # Errors
///
/// Propagates decode failures; returns [`S2c2Error::IterationFailed`] if
/// coverage cannot be met even after reassignment.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
pub fn run_coded_round(
    code: &MdsCode,
    enc: &EncodedMatrix,
    assignment: &ChunkAssignment,
    sim: &ClusterSim,
    iteration: usize,
    x: &Vector,
    cfg: &CodedRoundConfig,
    expected_speeds: Option<&[f64]>,
) -> Result<CodedRound, S2c2Error> {
    let n = sim.n();
    let layout = *enc.layout();
    let k = code.params().k;
    let c = layout.chunks_per_partition;
    let rpc = layout.rows_per_chunk();
    let cols = x.len();
    let input_bytes = (cols * 8) as u64;

    if assignment.workers() != n {
        return Err(S2c2Error::InvalidConfig(format!(
            "assignment for {} workers on a {n}-worker cluster",
            assignment.workers()
        )));
    }

    // ---- Phase 1: everyone computes their assignment. ----
    let rows: Vec<usize> = assignment.rows_per_worker(rpc);
    let times = round_completion_times(sim, input_bytes, &rows, cols, 8);
    let assigned: Vec<usize> = (0..n).filter(|&w| rows[w] > 0).collect();
    if assigned.len() < k {
        return Err(S2c2Error::NotEnoughWorkers {
            alive: assigned.len(),
            need: k,
        });
    }

    // §4.3 deadline, plan-normalized: the master projects each worker's
    // completion from its assignment and (when scheduling adaptively) its
    // predicted speed, calibrates the projection against the first k
    // observed finishers, and cancels a worker only when it runs more
    // than `margin` past its own projection. In the paper's
    // equal-allocation, equal-speed setting this reduces verbatim to
    // "within 15% of the average response time of the first k"; the
    // normalization stops integer chunk rounding and *planned* slowness
    // (a correctly-predicted straggler with a small share) from
    // masquerading as mis-prediction.
    let planned: Vec<f64> = (0..n)
        .map(|w| match expected_speeds {
            Some(p) if p[w] > 0.0 => rows[w] as f64 / p[w],
            _ => rows[w] as f64,
        })
        .collect();
    let mut by_time: Vec<usize> = assigned.clone();
    by_time.sort_by(|&a, &b| times[a].total_cmp(&times[b]));
    let t_kth = times[by_time[k - 1]];
    let mean_rate: f64 = by_time[..k]
        .iter()
        .map(|&w| times[w] / planned[w])
        .sum::<f64>()
        / k as f64;
    let deadline_for = |w: usize| t_kth.max((1.0 + cfg.timeout_margin) * planned[w] * mean_rate);

    let active: Vec<usize> = assigned
        .iter()
        .copied()
        .filter(|&w| times[w] <= deadline_for(w))
        .collect();
    let cancelled: Vec<usize> = if cfg.reassign {
        assigned
            .iter()
            .copied()
            .filter(|&w| times[w] > deadline_for(w))
            .collect()
    } else {
        Vec::new()
    };
    // The master launches all reassignments once the last deadline of a
    // cancelled worker has passed.
    let cancel_at = cancelled
        .iter()
        .map(|&w| deadline_for(w))
        .fold(t_kth, f64::max);
    let effective_active: Vec<usize> = if cfg.reassign {
        active.clone()
    } else {
        assigned.clone()
    };

    // Per-chunk coverage from non-cancelled workers.
    let covers = |w: usize, chunk: usize| assignment.chunks[w].binary_search(&chunk).is_ok();
    let mut deficit: Vec<usize> = Vec::new(); // chunks with < k live coverage
    for chunk in 0..c {
        let live = effective_active
            .iter()
            .filter(|&&w| covers(w, chunk))
            .count();
        if live < k {
            deficit.push(chunk);
        }
    }

    // ---- Phase 2: reassign deficit chunks among completed workers. ----
    let mut extra: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut reassigned = false;
    let mut abort_reassign = false;
    if !deficit.is_empty() {
        debug_assert!(cfg.reassign, "deficits only arise after cancellation");
        // Spread redo work across finished workers: pick, per chunk, the
        // least-loaded candidate (ties to the faster one) that does not
        // already cover it. Without load spreading, one fast worker would
        // serialize the entire redo.
        let mut candidates: Vec<usize> = active.clone();
        candidates.sort_by(|&a, &b| times[a].total_cmp(&times[b]));
        'chunks: for &chunk in &deficit {
            let live = active.iter().filter(|&&w| covers(w, chunk)).count();
            let mut need = k - live;
            while need > 0 {
                let pick = candidates
                    .iter()
                    .copied()
                    .filter(|&cand| !covers(cand, chunk) && !extra[cand].contains(&chunk))
                    .min_by_key(|&cand| extra[cand].len());
                match pick {
                    Some(cand) => {
                        extra[cand].push(chunk);
                        need -= 1;
                    }
                    None => break,
                }
            }
            if need > 0 {
                // Cannot rebuild coverage from finished workers (extreme
                // straggler storms). §4.4: degrade to conventional coded
                // computing — wait out the original assignment.
                abort_reassign = true;
                break 'chunks;
            }
        }
        if abort_reassign {
            extra.iter_mut().for_each(Vec::clear);
        } else {
            reassigned = true;
        }
    }
    let cancelled: Vec<usize> = if abort_reassign {
        Vec::new()
    } else {
        cancelled
    };
    let live_workers: Vec<usize> = if abort_reassign || !cfg.reassign {
        assigned.clone()
    } else {
        active.clone()
    };

    // Phase-2 completion times: detected at `deadline`, new work order
    // costs one message latency, then compute + reply.
    let mut t2 = vec![f64::INFINITY; n];
    for w in 0..n {
        if !extra[w].is_empty() {
            let extra_rows = extra[w].len() * rpc;
            t2[w] = cancel_at
                + sim.transfer_time(64)
                + sim.compute_time(w, extra_rows, cols)
                + sim.transfer_time((extra_rows * 8) as u64);
        }
    }

    // ---- Collection: per chunk, k earliest results win. ----
    // candidate (time, worker, is_extra) per chunk.
    let mut chosen: Vec<Vec<(usize, bool)>> = vec![Vec::new(); c];
    let mut t_compute: f64 = 0.0;
    for (chunk, slot) in chosen.iter_mut().enumerate() {
        let mut cands: Vec<(f64, usize, bool)> = Vec::new();
        for &w in &live_workers {
            if covers(w, chunk) {
                cands.push((times[w], w, false));
            }
        }
        for (w, ex) in extra.iter().enumerate() {
            if ex.contains(&chunk) {
                cands.push((t2[w], w, true));
            }
        }
        cands.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        if cands.len() < k {
            return Err(S2c2Error::IterationFailed(format!(
                "chunk {chunk} has only {} results after reassignment",
                cands.len()
            )));
        }
        t_compute = t_compute.max(cands[k - 1].0);
        *slot = cands[..k].iter().map(|&(_, w, e)| (w, e)).collect();
    }

    // ---- Numeric work + decode. ----
    let mut responses: Vec<WorkerChunkResult> = Vec::new();
    let mut useful_rows = vec![0usize; n];
    let mut decode_flops = 0.0;
    for (chunk, sel) in chosen.iter().enumerate() {
        let mut missing = k;
        for &(w, _) in sel {
            responses.push(enc.worker_compute_chunk(w, chunk, x));
            useful_rows[w] += rpc;
            if w < k {
                missing -= 1; // systematic response: free decode
            }
        }
        let m = missing as f64;
        decode_flops += m * m * m / 3.0 + rpc as f64 * m * m + m * k as f64 * rpc as f64;
    }
    let result = code.decode_matvec(&layout, &responses)?;
    let decode_time = sim.decode_time(decode_flops);

    // ---- Accounting. ----
    let mut metrics = RoundMetrics::new(iteration, n);
    let input_time = sim.transfer_time(input_bytes);
    let mut observed: Vec<Option<f64>> = vec![None; n];
    for w in 0..n {
        let extra_rows = extra[w].len() * rpc;
        if live_workers.contains(&w) {
            metrics.assigned_rows[w] = rows[w] + extra_rows;
            metrics.computed_rows[w] = rows[w] + extra_rows;
            let response = if extra_rows > 0 { t2[w] } else { times[w] };
            if rows[w] + extra_rows > 0 {
                metrics.response_times[w] = Some(response);
                // Speed estimation uses the phase-1 response only: a
                // reassignment host's t2 includes idle time between its
                // own finish and the cancellation deadline, which would
                // halve the *fastest* workers' estimates and destabilize
                // the next allocation.
                observed[w] = Some(rows[w] as f64 / times[w]);
            }
        } else if cancelled.contains(&w) {
            metrics.assigned_rows[w] = rows[w];
            let own_deadline = deadline_for(w);
            let elapsed = (own_deadline - input_time).max(0.0);
            let partial =
                ((sim.partial_compute_elements(w, elapsed) / cols as f64) as usize).min(rows[w]);
            metrics.computed_rows[w] = partial;
            metrics.response_times[w] = Some(own_deadline);
            observed[w] = Some(partial.max(1) as f64 / own_deadline);
        }
    }
    metrics.useful_rows = useful_rows;
    metrics.latency = t_compute + decode_time;
    metrics.decode_time = decode_time;
    debug_assert!(metrics.conserves_work());

    Ok(CodedRound {
        result,
        metrics,
        observed_speeds: observed,
        reassigned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::{allocate_chunks, allocate_full};
    use s2c2_cluster::ClusterSpec;
    use s2c2_coding::mds::MdsParams;
    use s2c2_linalg::Matrix;

    fn setup(
        n: usize,
        k: usize,
        chunks: usize,
        stragglers: &[usize],
    ) -> (MdsCode, EncodedMatrix, ClusterSim, Matrix, Vector) {
        let a = Matrix::from_fn(k * chunks * 10, 6, |r, c| {
            ((r * 13 + c * 7) % 17) as f64 - 8.0
        });
        let code = MdsCode::new(MdsParams::new(n, k)).unwrap();
        let enc = code.encode(&a, chunks).unwrap();
        let spec = ClusterSpec::builder(n)
            .compute_bound()
            .straggler_slowdown(5.0)
            .stragglers(stragglers, 0.0)
            .build();
        let mut sim = ClusterSim::new(spec);
        sim.begin_iteration(0);
        let x = Vector::from_fn(6, |i| 1.0 + i as f64 * 0.25);
        (code, enc, sim, a, x)
    }

    #[test]
    fn full_assignment_matches_conventional_mds() {
        // 12 workers, k=10, 1 straggler: conventional MDS waits for the
        // fastest 10; the straggler and one healthy worker are wasted.
        let (code, enc, sim, a, x) = setup(12, 10, 4, &[5]);
        let assignment = allocate_full([true; 12], 10, 4);
        let cfg = CodedRoundConfig {
            timeout_margin: 0.15,
            reassign: false,
        };
        let round = run_coded_round(&code, &enc, &assignment, &sim, 0, &x, &cfg, None).unwrap();
        s2c2_linalg::assert_slices_close(round.result.as_slice(), a.matvec(&x).as_slice(), 1e-6);
        assert!(!round.reassigned);
        // Straggler computed everything, none useful.
        let wf = round.metrics.wasted_fraction();
        assert!((wf[5] - 1.0).abs() < 1e-12, "straggler fully wasted");
        // Exactly n-k = 2 workers fully wasted.
        let fully_wasted = wf.iter().filter(|&&f| f >= 1.0 - 1e-12).count();
        assert_eq!(fully_wasted, 2);
        assert!(round.metrics.conserves_work());
    }

    #[test]
    fn exact_coverage_assignment_wastes_nothing_with_oracle_speeds() {
        let (code, enc, sim, a, x) = setup(12, 6, 12, &[2, 7]);
        // Oracle allocation: use the simulator's actual speeds.
        let assignment = allocate_chunks(sim.speeds(), 6, 12).unwrap();
        let round = run_coded_round(
            &code,
            &enc,
            &assignment,
            &sim,
            0,
            &x,
            &CodedRoundConfig::default(),
            None,
        )
        .unwrap();
        s2c2_linalg::assert_slices_close(round.result.as_slice(), a.matvec(&x).as_slice(), 1e-6);
        assert_eq!(
            round.metrics.total_wasted_rows(),
            0,
            "oracle S2C2 wastes nothing"
        );
        assert!(!round.reassigned);
    }

    #[test]
    fn misprediction_triggers_reassignment_and_still_decodes() {
        // Allocation assumes equal speeds but workers 0,1 are 5x slow:
        // the timeout must fire, their chunks must be recomputed, and the
        // result must still be exact.
        let (code, enc, sim, a, x) = setup(12, 6, 12, &[0, 1]);
        let assignment = allocate_chunks(&[1.0; 12], 6, 12).unwrap();
        let round = run_coded_round(
            &code,
            &enc,
            &assignment,
            &sim,
            0,
            &x,
            &CodedRoundConfig::default(),
            None,
        )
        .unwrap();
        assert!(round.reassigned, "5x stragglers must miss the 15% deadline");
        s2c2_linalg::assert_slices_close(round.result.as_slice(), a.matvec(&x).as_slice(), 1e-6);
        // Cancelled stragglers: partial work, zero useful.
        assert_eq!(round.metrics.useful_rows[0], 0);
        assert_eq!(round.metrics.useful_rows[1], 0);
        assert!(round.metrics.computed_rows[0] < round.metrics.assigned_rows[0]);
        assert!(round.metrics.conserves_work());
    }

    #[test]
    fn reassignment_disabled_waits_for_stragglers() {
        let (code, enc, sim, _a, x) = setup(12, 6, 12, &[0, 1]);
        let assignment = allocate_chunks(&[1.0; 12], 6, 12).unwrap();
        let no_reassign = CodedRoundConfig {
            timeout_margin: 0.15,
            reassign: false,
        };
        let round_wait =
            run_coded_round(&code, &enc, &assignment, &sim, 0, &x, &no_reassign, None).unwrap();
        let round_cancel = run_coded_round(
            &code,
            &enc,
            &assignment,
            &sim,
            0,
            &x,
            &CodedRoundConfig::default(),
            None,
        )
        .unwrap();
        assert!(
            round_cancel.metrics.latency < round_wait.metrics.latency * 0.7,
            "reassignment should beat waiting: {} vs {}",
            round_cancel.metrics.latency,
            round_wait.metrics.latency
        );
    }

    #[test]
    fn observed_speeds_reflect_stragglers() {
        let (code, enc, sim, _a, x) = setup(12, 10, 4, &[3]);
        let assignment = allocate_full([true; 12], 10, 4);
        let cfg = CodedRoundConfig {
            timeout_margin: 0.15,
            reassign: false,
        };
        let round = run_coded_round(&code, &enc, &assignment, &sim, 0, &x, &cfg, None).unwrap();
        let speeds: Vec<f64> = round.observed_speeds.iter().map(|s| s.unwrap()).collect();
        // Straggler's observed speed must be ~5x lower than the others.
        assert!(speeds[0] / speeds[3] > 4.0);
    }

    #[test]
    fn idle_workers_have_no_observation() {
        let (code, enc, sim, _a, x) = setup(6, 3, 6, &[]);
        // Worker 5 excluded from the allocation.
        let assignment = allocate_chunks(&[1.0, 1.0, 1.0, 1.0, 1.0, 0.0], 3, 6).unwrap();
        let round = run_coded_round(
            &code,
            &enc,
            &assignment,
            &sim,
            0,
            &x,
            &CodedRoundConfig::default(),
            None,
        )
        .unwrap();
        assert!(round.observed_speeds[5].is_none());
        assert_eq!(round.metrics.assigned_rows[5], 0);
    }

    #[test]
    fn latency_includes_decode_time() {
        // Straggling systematic worker 0 forces a parity-based decode,
        // so master-side decode work is nonzero.
        let (code, enc, sim, _a, x) = setup(6, 4, 4, &[0]);
        let assignment = allocate_full([true; 6], 4, 4);
        let cfg = CodedRoundConfig {
            timeout_margin: 0.15,
            reassign: false,
        };
        let round = run_coded_round(&code, &enc, &assignment, &sim, 0, &x, &cfg, None).unwrap();
        assert!(round.metrics.decode_time > 0.0);
        assert!(round.metrics.latency > round.metrics.decode_time);
    }
}
