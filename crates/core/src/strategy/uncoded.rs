//! Uncoded even-split baseline: every worker owns `1/n` of the rows and
//! the master waits for everyone.
//!
//! Implemented as the degenerate `(n, n)` code (identity generator, no
//! parity) over the shared coded-round engine, which gives the exact
//! "speed of the slowest node" behaviour the paper's §2 strawman has.

use crate::alloc::allocate_full;
use crate::error::S2c2Error;
use crate::strategy::coded_common::{run_coded_round, CodedRoundConfig};
use crate::strategy::{IterationOutcome, MatvecStrategy};
use s2c2_cluster::ClusterSim;
use s2c2_coding::mds::{EncodedMatrix, MdsCode, MdsParams};
use s2c2_linalg::{Matrix, Vector};

/// Uncoded, evenly partitioned, wait-for-all execution.
pub struct UncodedStrategy {
    code: MdsCode,
    enc: EncodedMatrix,
}

impl UncodedStrategy {
    /// Partitions `a` evenly over `n` workers with
    /// `chunks_per_partition`-way over-decomposition (the chunking only
    /// matters for metric granularity here).
    ///
    /// # Errors
    ///
    /// Propagates encoding failures for degenerate shapes.
    pub fn new(a: &Matrix, n: usize, chunks_per_partition: usize) -> Result<Self, S2c2Error> {
        let code = MdsCode::new(MdsParams::new(n, n))?;
        let enc = code.encode(a, chunks_per_partition)?;
        Ok(UncodedStrategy { code, enc })
    }
}

impl MatvecStrategy for UncodedStrategy {
    fn name(&self) -> String {
        "uncoded".into()
    }

    fn run_iteration(
        &mut self,
        sim: &mut ClusterSim,
        iteration: usize,
        x: &Vector,
    ) -> Result<IterationOutcome, S2c2Error> {
        sim.begin_iteration(iteration);
        let n = self.code.params().n;
        let assignment = allocate_full(vec![true; n], n, self.enc.layout().chunks_per_partition);
        let cfg = CodedRoundConfig {
            timeout_margin: 0.15,
            reassign: false, // plain uncoded has no recovery mechanism
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
        let a = Matrix::from_fn(240, 5, |r, c| ((r + 2 * c) % 9) as f64 - 4.0);
        let x = Vector::from_fn(5, |i| 0.5 + i as f64);
        (a, x)
    }

    #[test]
    fn computes_exact_product() {
        let (a, x) = data();
        let mut s = UncodedStrategy::new(&a, 6, 4).unwrap();
        let spec = ClusterSpec::builder(6).build();
        let mut sim = ClusterSim::new(spec);
        let out = s.run_iteration(&mut sim, 0, &x).unwrap();
        s2c2_linalg::assert_slices_close(out.result.as_slice(), a.matvec(&x).as_slice(), 1e-9);
    }

    #[test]
    fn latency_tracks_slowest_worker() {
        let (a, x) = data();
        let mut s = UncodedStrategy::new(&a, 6, 4).unwrap();
        // No straggler run.
        let mut fast_sim = ClusterSim::new(ClusterSpec::builder(6).compute_bound().build());
        let fast = s.run_iteration(&mut fast_sim, 0, &x).unwrap();
        // One 5x straggler: uncoded must be ~5x slower.
        let mut slow_sim = ClusterSim::new(
            ClusterSpec::builder(6)
                .compute_bound()
                .straggler_slowdown(5.0)
                .stragglers(&[2], 0.0)
                .build(),
        );
        let slow = s.run_iteration(&mut slow_sim, 0, &x).unwrap();
        let ratio = slow.metrics.latency / fast.metrics.latency;
        assert!(ratio > 3.5, "uncoded gated on the straggler: ratio {ratio}");
    }

    #[test]
    fn no_waste_when_all_results_used() {
        let (a, x) = data();
        let mut s = UncodedStrategy::new(&a, 4, 3).unwrap();
        let mut sim = ClusterSim::new(ClusterSpec::builder(4).build());
        let out = s.run_iteration(&mut sim, 0, &x).unwrap();
        assert_eq!(out.metrics.total_wasted_rows(), 0);
    }

    #[test]
    fn storage_is_one_nth() {
        let (a, _x) = data();
        let s = UncodedStrategy::new(&a, 6, 4).unwrap();
        assert_eq!(s.storage_bytes_per_worker(), a.payload_bytes() / 6);
    }
}
