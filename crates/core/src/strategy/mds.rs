//! Conventional `(n, k)`-MDS coded computation (Lee et al.), the paper's
//! primary coded baseline.
//!
//! Every worker computes its *entire* coded partition every iteration; the
//! master uses the fastest `k` responses and ignores the rest. Robust to
//! `n − k` stragglers, but (a) each worker does `1/k`-of-the-data work
//! regardless of cluster health, and (b) the slowest `n − k` workers'
//! effort is always wasted — the two inefficiencies S²C² removes.

use crate::alloc::allocate_full;
use crate::error::S2c2Error;
use crate::strategy::coded_common::{run_coded_round, CodedRoundConfig};
use crate::strategy::{IterationOutcome, MatvecStrategy};
use s2c2_cluster::ClusterSim;
use s2c2_coding::mds::{EncodedMatrix, MdsCode, MdsParams};
use s2c2_linalg::{Matrix, Vector};

/// Conventional MDS coded computation.
pub struct MdsStrategy {
    code: MdsCode,
    enc: EncodedMatrix,
}

impl MdsStrategy {
    /// Encodes `a` with an `(n, k)` code and
    /// `chunks_per_partition`-way chunking.
    ///
    /// # Errors
    ///
    /// Propagates invalid code parameters or degenerate shapes.
    pub fn new(
        a: &Matrix,
        params: MdsParams,
        chunks_per_partition: usize,
    ) -> Result<Self, S2c2Error> {
        let code = MdsCode::new(params)?;
        let enc = code.encode(a, chunks_per_partition)?;
        Ok(MdsStrategy { code, enc })
    }

    /// The code parameters in use.
    #[must_use]
    pub fn params(&self) -> MdsParams {
        self.code.params()
    }
}

impl MatvecStrategy for MdsStrategy {
    fn name(&self) -> String {
        let p = self.code.params();
        format!("mds({},{})", p.n, p.k)
    }

    fn run_iteration(
        &mut self,
        sim: &mut ClusterSim,
        iteration: usize,
        x: &Vector,
    ) -> Result<IterationOutcome, S2c2Error> {
        sim.begin_iteration(iteration);
        let p = self.code.params();
        let assignment =
            allocate_full(vec![true; p.n], p.k, self.enc.layout().chunks_per_partition);
        let cfg = CodedRoundConfig {
            timeout_margin: 0.15,
            reassign: false, // conventional coded computing never reassigns
        };
        let round = run_coded_round(
            &self.code,
            &self.enc,
            &assignment,
            sim,
            iteration,
            x,
            &cfg,
            None,
        )?;
        Ok(IterationOutcome {
            result: round.result,
            metrics: round.metrics,
        })
    }

    fn storage_bytes_per_worker(&self) -> u64 {
        self.enc.bytes_per_worker()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2c2_cluster::ClusterSpec;

    fn data() -> (Matrix, Vector) {
        let a = Matrix::from_fn(600, 8, |r, c| ((r * 5 + c * 11) % 13) as f64 - 6.0);
        let x = Vector::from_fn(8, |i| (i as f64 * 0.4).sin() + 1.2);
        (a, x)
    }

    fn run_with_stragglers(params: MdsParams, stragglers: &[usize]) -> IterationOutcome {
        let (a, x) = data();
        let mut s = MdsStrategy::new(&a, params, 5).unwrap();
        let mut sim = ClusterSim::new(
            ClusterSpec::builder(params.n)
                .compute_bound()
                .straggler_slowdown(5.0)
                .stragglers(stragglers, 0.0)
                .build(),
        );
        let out = s.run_iteration(&mut sim, 0, &x).unwrap();
        s2c2_linalg::assert_slices_close(out.result.as_slice(), a.matvec(&x).as_slice(), 1e-6);
        out
    }

    #[test]
    fn tolerates_up_to_n_minus_k_stragglers_flat() {
        // (12,10): latency with 0, 1, 2 stragglers should be ~equal.
        let base = run_with_stragglers(MdsParams::new(12, 10), &[])
            .metrics
            .latency;
        let one = run_with_stragglers(MdsParams::new(12, 10), &[0])
            .metrics
            .latency;
        let two = run_with_stragglers(MdsParams::new(12, 10), &[0, 1])
            .metrics
            .latency;
        assert!(
            (one / base - 1.0).abs() < 0.05,
            "1 straggler: {one} vs {base}"
        );
        assert!(
            (two / base - 1.0).abs() < 0.05,
            "2 stragglers: {two} vs {base}"
        );
    }

    #[test]
    fn collapses_past_tolerance() {
        // (12,10) with 3 stragglers: must wait for a straggler -> ~5x.
        let base = run_with_stragglers(MdsParams::new(12, 10), &[])
            .metrics
            .latency;
        let three = run_with_stragglers(MdsParams::new(12, 10), &[0, 1, 2])
            .metrics
            .latency;
        assert!(
            three / base > 3.5,
            "3 stragglers blow up (12,10): {}",
            three / base
        );
    }

    #[test]
    fn conservative_code_pays_overhead_when_healthy() {
        // (12,6) does 1/6-of-data work per worker vs (12,10)'s 1/10.
        let relaxed = run_with_stragglers(MdsParams::new(12, 10), &[])
            .metrics
            .latency;
        let conservative = run_with_stragglers(MdsParams::new(12, 6), &[])
            .metrics
            .latency;
        let ratio = conservative / relaxed;
        assert!(
            (1.4..=1.9).contains(&ratio),
            "expected ~10/6 = 1.67x overhead, got {ratio}"
        );
    }

    #[test]
    fn wasted_work_is_n_minus_k_partitions() {
        let out = run_with_stragglers(MdsParams::new(10, 7), &[9]);
        // Aggregate waste: 3 of 10 full partitions.
        let total_computed: usize = out.metrics.computed_rows.iter().sum();
        let total_wasted = out.metrics.total_wasted_rows();
        let frac = total_wasted as f64 / total_computed as f64;
        assert!(
            (frac - 0.3).abs() < 0.01,
            "waste fraction {frac}, expected 0.3"
        );
    }

    #[test]
    fn name_includes_params() {
        let (a, _) = data();
        let s = MdsStrategy::new(&a, MdsParams::new(12, 6), 2).unwrap();
        assert_eq!(s.name(), "mds(12,6)");
    }
}
