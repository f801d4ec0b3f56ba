//! The shared-cluster S²C² allocator: Algorithm 1 across many jobs.
//!
//! Extends the paper's single-job allocator to a pool serving several
//! coded jobs at once. Each worker's per-iteration capacity is split
//! across the resident jobs ([`s2c2_core::split_worker_capacity`], the
//! capacity hook exposed by the core crate) and every job then runs
//! Algorithm 1 on *its slice* of the pool. Because Algorithm 1 is
//! scale-invariant in the speeds, each job keeps exactly the chunk shape
//! it would get on a dedicated cluster running at its fractional rate —
//! and therefore keeps its exactly-`k` chunk coverage, which is the
//! decodability invariant the whole scheme rests on.
//!
//! When a job's slice cannot support `k`-coverage (predictions claim
//! fewer than `k` workers alive), that job — and only that job — degrades
//! to conventional coded computing: every available worker computes its
//! full partition and the master takes the fastest `k` per chunk (§4.4's
//! robustness rule, applied per job).

use s2c2_core::{allocate_chunks, split_worker_capacity, ChunkAssignment};

/// One job's slice of the shared allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedAssignment {
    /// Chunk indices per worker for this job.
    pub assignment: ChunkAssignment,
    /// Fraction of every worker's capacity this job received.
    pub share: f64,
    /// Whether the job degraded to conventional full assignment because
    /// its predicted slice could not support exactly-`k` coverage.
    pub degraded: bool,
}

/// Conventional coded computing's assignment restricted to available
/// workers: every worker with positive speed computes its whole
/// partition. Coverage is `available ≥ k` per chunk (over-provisioned on
/// purpose — the master takes the fastest `k`).
#[must_use]
pub fn full_over_available(
    speeds: &[f64],
    k: usize,
    chunks_per_partition: usize,
) -> ChunkAssignment {
    ChunkAssignment {
        chunks: speeds
            .iter()
            .map(|&s| {
                if s > 0.0 {
                    (0..chunks_per_partition).collect()
                } else {
                    Vec::new()
                }
            })
            .collect(),
        chunks_per_partition,
        k,
    }
}

/// One job's weighted slice of the shared allocation: Algorithm 1 on
/// the job's [`split_worker_capacity`] slice of the pool, for a resident
/// set whose weights sum to `total_weight`. Jobs start iterations at
/// different instants, so the engine only ever needs its own slice —
/// the pool is split two ways (this job vs everyone else), which cuts
/// the same slice an all-resident split would.
///
/// `weight` is this job's capacity weight; `total_weight` is the sum
/// over the whole resident set (including this job).
///
/// # Panics
///
/// Panics if `weight` is non-positive or exceeds `total_weight`.
#[must_use]
pub fn allocate_for_resident(
    speeds: &[f64],
    k: usize,
    chunks_per_partition: usize,
    weight: f64,
    total_weight: f64,
) -> SharedAssignment {
    assert!(
        weight.is_finite() && weight > 0.0,
        "job weight must be positive"
    );
    assert!(
        total_weight.is_finite() && total_weight >= weight,
        "total weight must cover the job's own weight"
    );
    let rest = total_weight - weight;
    let (share, slice) = if rest > 0.0 {
        // The job's slice of a two-way split: itself vs everyone else.
        // `split_worker_capacity` yields one slice per weight; should
        // that contract ever break, falling back to the whole pool
        // degrades gracefully instead of panicking mid-service.
        let slice = split_worker_capacity(speeds, &[weight, rest])
            .into_iter()
            .next()
            .unwrap_or_else(|| speeds.to_vec());
        (weight / total_weight, slice)
    } else {
        // Sole resident: the whole pool.
        (1.0, speeds.to_vec())
    };
    match allocate_chunks(&slice, k, chunks_per_partition) {
        Ok(assignment) => SharedAssignment {
            assignment,
            share,
            degraded: false,
        },
        Err(_) => SharedAssignment {
            assignment: full_over_available(speeds, k, chunks_per_partition),
            share,
            degraded: true,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(k, chunks_per_partition, weight)` per resident job.
    type Demand = (usize, usize, f64);

    /// Every resident's slice, each cut against the set's total weight.
    fn allocate_all(speeds: &[f64], demands: &[Demand]) -> Vec<SharedAssignment> {
        let total: f64 = demands.iter().map(|d| d.2).sum();
        demands
            .iter()
            .map(|&(k, chunks, weight)| allocate_for_resident(speeds, k, chunks, weight, total))
            .collect()
    }

    #[test]
    fn every_resident_job_keeps_exact_coverage() {
        let speeds = [1.0, 0.9, 0.2, 1.1, 0.7, 0.0, 0.8, 1.0];
        let demands = [(4, 8, 1.0), (6, 5, 1.0), (2, 12, 2.0)];
        let out = allocate_all(&speeds, &demands);
        for (&(k, _, _), s) in demands.iter().zip(out.iter()) {
            assert!(!s.degraded);
            assert!(s.assignment.is_decodable(), "k={k} lost coverage");
            assert_eq!(s.assignment.k, k);
        }
        let share_sum: f64 = out.iter().map(|s| s.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-12);
        assert!((out[2].share - 0.5).abs() < 1e-12, "weight-2 job gets half");
    }

    #[test]
    fn shared_shape_matches_dedicated_shape() {
        // Scale invariance: sharing the pool changes rates, not shapes.
        let speeds = [1.0, 0.5, 0.9, 0.3, 1.2, 0.8];
        let dedicated = allocate_chunks(&speeds, 3, 9).unwrap();
        for s in allocate_all(&speeds, &[(3, 9, 1.0); 3]) {
            assert_eq!(s.assignment, dedicated);
        }
    }

    #[test]
    fn infeasible_job_degrades_alone() {
        // Only 3 workers alive: the k=5 job degrades, the k=2 job does not.
        let speeds = [1.0, 0.0, 0.8, 0.0, 0.0, 0.9];
        let out = allocate_all(&speeds, &[(5, 4, 1.0), (2, 4, 1.0)]);
        assert!(out[0].degraded);
        assert!(!out[1].degraded);
        assert!(out[1].assignment.is_decodable());
        // Degraded job: every alive worker holds its full partition.
        for (w, &s) in speeds.iter().enumerate() {
            let expect = if s > 0.0 { 4 } else { 0 };
            assert_eq!(out[0].assignment.chunks[w].len(), expect, "worker {w}");
        }
    }

    #[test]
    fn single_resident_slice_matches_shared_entry() {
        // Equal weights: the two-way cut is the first entry of a split
        // across every resident.
        let speeds = [1.0, 0.4, 0.0, 0.9, 0.7];
        for residents in 1..=4 {
            let slices = split_worker_capacity(&speeds, &vec![1.0; residents]);
            let solo = allocate_for_resident(&speeds, 2, 6, 1.0, residents as f64);
            assert!((solo.share - 1.0 / residents as f64).abs() < 1e-12);
            assert_eq!(
                solo.assignment,
                allocate_chunks(&slices[0], 2, 6).unwrap(),
                "{residents} residents"
            );
        }
        // Degrade path (k above alive count): full assignment over the
        // alive workers.
        let degraded = allocate_for_resident(&speeds, 5, 6, 1.0, 2.0);
        assert!(degraded.degraded);
        assert_eq!(degraded.assignment, full_over_available(&speeds, 5, 6));
    }

    #[test]
    fn weighted_resident_slice_matches_shared_entry() {
        // Each job's two-way cut against total weight 4 matches its entry
        // of the split across the full demand set.
        let speeds = [1.0, 0.4, 0.0, 0.9, 0.7, 1.1];
        let demands = [(2, 6, 2.0), (3, 4, 1.5), (2, 5, 0.5)];
        let slices = split_worker_capacity(&speeds, &[2.0, 1.5, 0.5]);
        for (i, (s, &(k, chunks, weight))) in allocate_all(&speeds, &demands)
            .iter()
            .zip(&demands)
            .enumerate()
        {
            assert!((s.share - weight / 4.0).abs() < 1e-12, "job {i}");
            let entry = allocate_chunks(&slices[i], k, chunks).unwrap();
            assert_eq!(s.assignment, entry, "job {i}");
        }
        // Sole resident gets the full pool regardless of weight.
        let solo = allocate_for_resident(&speeds, 2, 6, 3.0, 3.0);
        assert!((solo.share - 1.0).abs() < 1e-12);
    }

    #[test]
    fn full_over_available_skips_dead_workers() {
        let a = full_over_available(&[1.0, 0.0, 0.5], 2, 3);
        assert_eq!(a.chunks[0].len(), 3);
        assert_eq!(a.chunks[1].len(), 0);
        assert_eq!(a.chunks[2].len(), 3);
        // Over-covered (2 alive ≥ k = 2 per chunk).
        assert!(a.coverage().iter().all(|&c| c >= 2));
    }
}
