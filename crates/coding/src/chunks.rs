//! Over-decomposition geometry shared by the MDS and polynomial codecs.
//!
//! A data matrix with `original_rows` rows is padded and split into
//! `data_partitions` (k, or a for polynomial codes) equal row blocks; each
//! block — and therefore each worker's *coded* partition — is further split
//! into `chunks_per_partition` equal row chunks. S²C² assigns work at chunk
//! granularity, and decoding recovers the output chunk-by-chunk from
//! whichever workers computed a given chunk index.

use crate::error::CodingError;
use std::ops::Range;

/// Geometry of the padded, partitioned, chunked data matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkLayout {
    /// Rows of the original (unpadded) data matrix.
    pub original_rows: usize,
    /// Rows after zero-padding (divisible by `data_partitions · chunks`).
    pub padded_rows: usize,
    /// Number of data partitions (`k` for MDS, `a` for polynomial codes).
    pub data_partitions: usize,
    /// Chunks per partition (the over-decomposition factor × base chunks).
    pub chunks_per_partition: usize,
}

impl ChunkLayout {
    /// Computes the layout, padding `original_rows` up so it divides evenly.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::InvalidParams`] when any dimension is zero.
    pub fn new(
        original_rows: usize,
        data_partitions: usize,
        chunks_per_partition: usize,
    ) -> Result<Self, CodingError> {
        if original_rows == 0 {
            return Err(CodingError::InvalidParams("matrix has zero rows".into()));
        }
        if data_partitions == 0 {
            return Err(CodingError::InvalidParams(
                "need at least one partition".into(),
            ));
        }
        if chunks_per_partition == 0 {
            return Err(CodingError::InvalidParams("need at least one chunk".into()));
        }
        let unit = data_partitions * chunks_per_partition;
        let padded_rows = original_rows.div_ceil(unit) * unit;
        Ok(ChunkLayout {
            original_rows,
            padded_rows,
            data_partitions,
            chunks_per_partition,
        })
    }

    /// Rows in each (coded or data) partition.
    #[must_use]
    pub fn partition_rows(&self) -> usize {
        self.padded_rows / self.data_partitions
    }

    /// Rows in each chunk.
    #[must_use]
    pub fn rows_per_chunk(&self) -> usize {
        self.partition_rows() / self.chunks_per_partition
    }

    /// Row range of chunk `chunk` *within a partition*.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is out of range.
    #[must_use]
    pub fn chunk_range_in_partition(&self, chunk: usize) -> Range<usize> {
        assert!(
            chunk < self.chunks_per_partition,
            "chunk index out of range"
        );
        let rpc = self.rows_per_chunk();
        chunk * rpc..(chunk + 1) * rpc
    }

    /// Row range in the *padded output* covered by `(partition, chunk)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn output_range(&self, partition: usize, chunk: usize) -> Range<usize> {
        assert!(
            partition < self.data_partitions,
            "partition index out of range"
        );
        let local = self.chunk_range_in_partition(chunk);
        let base = partition * self.partition_rows();
        base + local.start..base + local.end
    }

    /// Total number of zero rows appended by padding.
    #[must_use]
    pub fn padding_rows(&self) -> usize {
        self.padded_rows - self.original_rows
    }
}

/// One worker's result for one chunk of its coded partition.
///
/// For matvec decoding `values` has `rows_per_chunk` entries; for
/// matrix-product decoding it is the row-major flattening of a
/// `rows_per_chunk × output_cols` block.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerChunkResult {
    /// Responding worker id (`0..n`).
    pub worker: usize,
    /// Chunk index within the worker's partition.
    pub chunk: usize,
    /// Computed values for the chunk.
    pub values: Vec<f64>,
}

impl WorkerChunkResult {
    /// Convenience constructor.
    #[must_use]
    pub fn new(worker: usize, chunk: usize, values: Vec<f64>) -> Self {
        WorkerChunkResult {
            worker,
            chunk,
            values,
        }
    }
}

/// One worker's *stacked* result for one chunk: the products of the
/// chunk's rows against `members` right-hand sides, stored as a single
/// contiguous `rows_per_chunk × members` buffer (chunk-row-major,
/// member-minor — element `(row, member)` lives at `row * members +
/// member`).
///
/// This is the wire format of the batch-first kernel layer: a worker's
/// reply for a chunk ships one flat block, and the stacked decoder
/// consumes it without per-member de-interleaving. A single-member block
/// is the unbatched case.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiChunkResult {
    /// Responding worker id (`0..n`).
    pub worker: usize,
    /// Chunk index within the worker's partition.
    pub chunk: usize,
    /// Number of stacked right-hand sides.
    pub members: usize,
    /// Row-major `rows_per_chunk × members` block of computed values.
    pub values: Vec<f64>,
}

impl MultiChunkResult {
    /// Convenience constructor.
    ///
    /// # Panics
    ///
    /// Panics if `members == 0` or `values.len()` is not a multiple of
    /// `members`.
    #[must_use]
    pub fn new(worker: usize, chunk: usize, members: usize, values: Vec<f64>) -> Self {
        assert!(members > 0, "a stacked result needs at least one member");
        assert_eq!(
            values.len() % members,
            0,
            "stacked payload length must be a multiple of the member count"
        );
        MultiChunkResult {
            worker,
            chunk,
            members,
            values,
        }
    }

    /// Number of chunk rows in the block.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.values.len() / self.members
    }

    /// Extracts member `m`'s column as an owned vector (strided copy —
    /// compatibility/diagnostic path, not the decode hot path).
    ///
    /// # Panics
    ///
    /// Panics if `m >= members`.
    #[must_use]
    pub fn member_values(&self, m: usize) -> Vec<f64> {
        assert!(m < self.members, "member index out of range");
        self.values
            .iter()
            .skip(m)
            .step_by(self.members)
            .copied()
            .collect()
    }

    /// Splits the block into per-member [`WorkerChunkResult`]s, in member
    /// order.
    #[must_use]
    pub fn into_member_results(self) -> Vec<WorkerChunkResult> {
        (0..self.members)
            .map(|m| WorkerChunkResult::new(self.worker, self.chunk, self.member_values(m)))
            .collect()
    }

    /// Wraps a single-member result as a stacked block.
    #[must_use]
    pub fn from_single(r: WorkerChunkResult) -> Self {
        MultiChunkResult::new(r.worker, r.chunk, 1, r.values)
    }
}

/// Borrowed stacked blocks grouped by chunk: entry `chunk` lists the
/// `(worker, block)` pairs that cover it, each block a `rows_per_chunk ×
/// members` slice (chunk-row-major, member-minor). The input form of
/// the stacked decoder.
pub type BlocksByChunk<'a> = Vec<Vec<(usize, &'a [f64])>>;

/// O(1) duplicate detection over `(worker, chunk)` pairs: one flag per
/// pair of an `n`-worker, `chunks`-chunk geometry.
pub(crate) struct SeenPairs {
    workers: usize,
    seen: Vec<bool>,
}

impl SeenPairs {
    pub(crate) fn new(workers: usize, chunks: usize) -> Self {
        SeenPairs {
            workers,
            seen: vec![false; workers * chunks],
        }
    }

    /// Marks `(worker, chunk)` seen; both indices must already be
    /// bounds-checked.
    ///
    /// # Errors
    ///
    /// [`CodingError::DuplicateResponse`] if the pair was seen before.
    pub(crate) fn insert(&mut self, worker: usize, chunk: usize) -> Result<(), CodingError> {
        let slot = &mut self.seen[chunk * self.workers + worker];
        if *slot {
            return Err(CodingError::DuplicateResponse { worker, chunk });
        }
        *slot = true;
        Ok(())
    }
}

/// Rejects a worker id outside an `n`-worker code.
pub(crate) fn check_worker(worker: usize, workers: usize) -> Result<(), CodingError> {
    if worker >= workers {
        return Err(CodingError::MalformedResponse(format!(
            "worker {worker} out of range (n = {workers})"
        )));
    }
    Ok(())
}

fn check_chunk(chunk: usize, layout: &ChunkLayout) -> Result<(), CodingError> {
    if chunk >= layout.chunks_per_partition {
        return Err(CodingError::MalformedResponse(format!(
            "chunk {chunk} out of range ({} chunks per partition)",
            layout.chunks_per_partition
        )));
    }
    Ok(())
}

/// Rejects a stacked payload that is not `rows_per_chunk × members`
/// values long.
pub(crate) fn check_stacked_payload(
    len: usize,
    rows_per_chunk: usize,
    members: usize,
) -> Result<(), CodingError> {
    if len != rows_per_chunk * members {
        return Err(CodingError::MalformedResponse(format!(
            "stacked payload has {len} values, expected {}",
            rows_per_chunk * members
        )));
    }
    Ok(())
}

/// Groups stacked blocks by chunk, validating worker/chunk bounds, a
/// uniform member count, payload length, and duplicate `(worker, chunk)`
/// pairs — the block-layout counterpart of [`group_by_chunk`].
///
/// Returns `per_chunk[chunk] = Vec<(worker, values)>`, the borrowed form
/// the stacked decoder consumes.
///
/// # Errors
///
/// [`CodingError::MalformedResponse`] on out-of-range indices, a member
/// count differing from `members`, or wrong payload length;
/// [`CodingError::DuplicateResponse`] on duplicates.
pub(crate) fn group_blocks_by_chunk<'a>(
    responses: &'a [MultiChunkResult],
    workers: usize,
    layout: &ChunkLayout,
    members: usize,
    rows_per_chunk: usize,
) -> Result<BlocksByChunk<'a>, CodingError> {
    let mut per_chunk: BlocksByChunk<'a> = vec![Vec::new(); layout.chunks_per_partition];
    let mut seen = SeenPairs::new(workers, layout.chunks_per_partition);
    for r in responses {
        check_worker(r.worker, workers)?;
        check_chunk(r.chunk, layout)?;
        if r.members != members {
            return Err(CodingError::MalformedResponse(format!(
                "stacked block has {} members, expected {members}",
                r.members
            )));
        }
        check_stacked_payload(r.values.len(), rows_per_chunk, members)?;
        seen.insert(r.worker, r.chunk)?;
        per_chunk[r.chunk].push((r.worker, r.values.as_slice()));
    }
    Ok(per_chunk)
}

/// Groups responses by chunk, validating worker/chunk bounds, payload
/// length, and duplicate `(worker, chunk)` pairs.
///
/// Returns `per_chunk[chunk] = Vec<&WorkerChunkResult>`.
///
/// # Errors
///
/// [`CodingError::MalformedResponse`] on out-of-range indices or wrong
/// payload length; [`CodingError::DuplicateResponse`] on duplicates.
pub fn group_by_chunk<'a>(
    responses: &'a [WorkerChunkResult],
    workers: usize,
    layout: &ChunkLayout,
    values_per_chunk: usize,
) -> Result<Vec<Vec<&'a WorkerChunkResult>>, CodingError> {
    let mut per_chunk: Vec<Vec<&WorkerChunkResult>> = vec![Vec::new(); layout.chunks_per_partition];
    let mut seen = SeenPairs::new(workers, layout.chunks_per_partition);
    for r in responses {
        check_worker(r.worker, workers)?;
        check_chunk(r.chunk, layout)?;
        if r.values.len() != values_per_chunk {
            return Err(CodingError::MalformedResponse(format!(
                "chunk payload has {} values, expected {values_per_chunk}",
                r.values.len()
            )));
        }
        seen.insert(r.worker, r.chunk)?;
        per_chunk[r.chunk].push(r);
    }
    Ok(per_chunk)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_division_no_padding() {
        let l = ChunkLayout::new(120, 4, 3).unwrap();
        assert_eq!(l.padded_rows, 120);
        assert_eq!(l.partition_rows(), 30);
        assert_eq!(l.rows_per_chunk(), 10);
        assert_eq!(l.padding_rows(), 0);
    }

    #[test]
    fn padding_rounds_up() {
        let l = ChunkLayout::new(100, 4, 3).unwrap();
        assert_eq!(l.padded_rows, 108);
        assert_eq!(l.padding_rows(), 8);
    }

    #[test]
    fn ranges_are_consistent() {
        let l = ChunkLayout::new(120, 4, 3).unwrap();
        assert_eq!(l.chunk_range_in_partition(0), 0..10);
        assert_eq!(l.chunk_range_in_partition(2), 20..30);
        assert_eq!(l.output_range(0, 0), 0..10);
        assert_eq!(l.output_range(1, 0), 30..40);
        assert_eq!(l.output_range(3, 2), 110..120);
    }

    #[test]
    fn output_ranges_tile_whole_matrix() {
        let l = ChunkLayout::new(97, 5, 4).unwrap();
        let mut covered = vec![false; l.padded_rows];
        for p in 0..l.data_partitions {
            for c in 0..l.chunks_per_partition {
                for r in l.output_range(p, c) {
                    assert!(!covered[r], "row {r} covered twice");
                    covered[r] = true;
                }
            }
        }
        assert!(covered.iter().all(|&c| c), "every padded row covered once");
    }

    #[test]
    fn zero_dimensions_rejected() {
        assert!(ChunkLayout::new(0, 2, 2).is_err());
        assert!(ChunkLayout::new(10, 0, 2).is_err());
        assert!(ChunkLayout::new(10, 2, 0).is_err());
    }

    #[test]
    fn group_by_chunk_validates() {
        let l = ChunkLayout::new(40, 2, 2).unwrap();
        let rpc = l.rows_per_chunk();
        let ok = vec![
            WorkerChunkResult::new(0, 0, vec![0.0; rpc]),
            WorkerChunkResult::new(1, 0, vec![0.0; rpc]),
            WorkerChunkResult::new(0, 1, vec![0.0; rpc]),
        ];
        let grouped = group_by_chunk(&ok, 3, &l, rpc).unwrap();
        assert_eq!(grouped[0].len(), 2);
        assert_eq!(grouped[1].len(), 1);

        let dup = vec![
            WorkerChunkResult::new(0, 0, vec![0.0; rpc]),
            WorkerChunkResult::new(0, 0, vec![0.0; rpc]),
        ];
        assert!(matches!(
            group_by_chunk(&dup, 3, &l, rpc),
            Err(CodingError::DuplicateResponse {
                worker: 0,
                chunk: 0
            })
        ));

        let bad_worker = vec![WorkerChunkResult::new(9, 0, vec![0.0; rpc])];
        assert!(group_by_chunk(&bad_worker, 3, &l, rpc).is_err());

        let bad_len = vec![WorkerChunkResult::new(0, 0, vec![0.0; rpc + 1])];
        assert!(group_by_chunk(&bad_len, 3, &l, rpc).is_err());

        let bad_chunk = vec![WorkerChunkResult::new(0, 7, vec![0.0; rpc])];
        assert!(group_by_chunk(&bad_chunk, 3, &l, rpc).is_err());
    }

    #[test]
    #[should_panic(expected = "chunk index out of range")]
    fn chunk_range_bounds() {
        let l = ChunkLayout::new(40, 2, 2).unwrap();
        let _ = l.chunk_range_in_partition(2);
    }

    #[test]
    fn multi_chunk_result_member_views() {
        // 3 rows × 2 members, row-major member-minor.
        let block = MultiChunkResult::new(1, 0, 2, vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0]);
        assert_eq!(block.rows(), 3);
        assert_eq!(block.member_values(0), vec![1.0, 2.0, 3.0]);
        assert_eq!(block.member_values(1), vec![10.0, 20.0, 30.0]);
        let singles = block.clone().into_member_results();
        assert_eq!(singles.len(), 2);
        assert_eq!(singles[0].values, vec![1.0, 2.0, 3.0]);
        assert_eq!(singles[1].worker, 1);
        let wrapped = MultiChunkResult::from_single(singles[0].clone());
        assert_eq!(wrapped.members, 1);
        assert_eq!(wrapped.values, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "multiple of the member count")]
    fn multi_chunk_result_rejects_ragged_payload() {
        let _ = MultiChunkResult::new(0, 0, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn group_blocks_by_chunk_validates() {
        let l = ChunkLayout::new(40, 2, 2).unwrap();
        let rpc = l.rows_per_chunk();
        let members = 3;
        let ok = vec![
            MultiChunkResult::new(0, 0, members, vec![0.0; rpc * members]),
            MultiChunkResult::new(1, 0, members, vec![0.0; rpc * members]),
            MultiChunkResult::new(0, 1, members, vec![0.0; rpc * members]),
        ];
        let grouped = group_blocks_by_chunk(&ok, 3, &l, members, rpc).unwrap();
        assert_eq!(grouped[0].len(), 2);
        assert_eq!(grouped[1].len(), 1);

        let dup = vec![
            MultiChunkResult::new(0, 0, members, vec![0.0; rpc * members]),
            MultiChunkResult::new(0, 0, members, vec![0.0; rpc * members]),
        ];
        assert!(matches!(
            group_blocks_by_chunk(&dup, 3, &l, members, rpc),
            Err(CodingError::DuplicateResponse {
                worker: 0,
                chunk: 0
            })
        ));

        let wrong_members = vec![MultiChunkResult::new(0, 0, 2, vec![0.0; rpc * 2])];
        assert!(group_blocks_by_chunk(&wrong_members, 3, &l, members, rpc).is_err());

        let bad_worker = vec![MultiChunkResult::new(
            9,
            0,
            members,
            vec![0.0; rpc * members],
        )];
        assert!(group_blocks_by_chunk(&bad_worker, 3, &l, members, rpc).is_err());

        let bad_len = vec![MultiChunkResult::new(
            0,
            0,
            members,
            vec![0.0; (rpc + 1) * members],
        )];
        assert!(group_blocks_by_chunk(&bad_len, 3, &l, members, rpc).is_err());

        let bad_chunk = vec![MultiChunkResult::new(
            0,
            7,
            members,
            vec![0.0; rpc * members],
        )];
        assert!(group_blocks_by_chunk(&bad_chunk, 3, &l, members, rpc).is_err());
    }
}
