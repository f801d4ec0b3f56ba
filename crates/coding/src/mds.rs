//! Systematic `(n, k)`-MDS codes for linear (matrix–vector) computations.
//!
//! The data matrix `A` is split into `k` row blocks `A_0 … A_{k−1}`; worker
//! `i < k` stores `A_i` unchanged (systematic part) and worker `i ≥ k`
//! stores the combination `Σ_j P[i−k][j] · A_j` (parity part). The code is
//! MDS iff every square submatrix of `P` is nonsingular, in which case
//! *any* `k` of the `n` per-chunk results reconstruct that chunk of `A·x`.
//!
//! **Parity construction.** Over the reals, the classic structured MDS
//! generators (Vandermonde, Cauchy) have *exponentially* ill-conditioned
//! submatrices — a 10×10 Cauchy block is Hilbert-like (κ ≈ 10¹³) and
//! destroys `f64` decoding at the paper's `(50, 40)` scale. Following the
//! established practice for real-number erasure codes (Chen & Dongarra,
//! *Numerically stable real-number codes based on random matrices*), the
//! parity block is a **seeded random matrix**: every square submatrix is
//! nonsingular with probability 1, submatrix condition numbers stay small
//! (tens, not 10¹³), and the fixed per-`(n,k)` seed keeps encodings
//! deterministic and reproducible. The conditioning ablation bench
//! (`ablation_conditioning`) quantifies this choice against Cauchy and
//! Vandermonde parities.
//!
//! Because the code is systematic, decoding a chunk with `m` missing
//! systematic blocks solves only an `m × m` system (`m ≤ n − k` ≤ 10 in
//! every configuration the paper evaluates).

use crate::chunks::{
    check_stacked_payload, check_worker, group_blocks_by_chunk, group_by_chunk, BlocksByChunk,
    ChunkLayout, MultiChunkResult, SeenPairs, WorkerChunkResult,
};
use crate::error::CodingError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s2c2_linalg::multivector::ROW_BLOCK_ELEMS;
use s2c2_linalg::{LuFactors, Matrix, MultiVector, Vector};
use std::ops::Range;

/// `(n, k)` MDS code parameters: `n` workers, any `k` responses decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MdsParams {
    /// Total number of coded partitions (= workers).
    pub n: usize,
    /// Number of data partitions; any `k` of `n` responses decode.
    pub k: usize,
}

impl MdsParams {
    /// Creates the parameter pair.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < k <= n` (use [`MdsCode::new`] for a fallible
    /// constructor; this one is for literals in examples/benches).
    #[must_use]
    pub fn new(n: usize, k: usize) -> Self {
        assert!(k > 0 && k <= n, "require 0 < k <= n, got ({n},{k})");
        MdsParams { n, k }
    }

    /// Number of stragglers the code tolerates (`n − k`).
    #[must_use]
    pub fn straggler_tolerance(&self) -> usize {
        self.n - self.k
    }

    /// Storage overhead factor relative to uncoded even partitioning
    /// (`n/k`, e.g. 1.2 for (12,10)).
    #[must_use]
    pub fn storage_overhead(&self) -> f64 {
        self.n as f64 / self.k as f64
    }
}

/// A constructed `(n, k)` MDS code (generator rows materialized).
#[derive(Debug, Clone)]
pub struct MdsCode {
    params: MdsParams,
    /// Parity block: `(n − k) × k` seeded random matrix (see module docs).
    parity: Matrix,
}

impl MdsCode {
    /// Builds the code with the default deterministic parity seed.
    ///
    /// # Errors
    ///
    /// [`CodingError::InvalidParams`] unless `0 < k ≤ n`.
    pub fn new(params: MdsParams) -> Result<Self, CodingError> {
        Self::with_seed(params, 0x5C2C_0DE5)
    }

    /// Builds the code with an explicit parity seed.
    ///
    /// Different seeds give different (equally valid) codes; encoders and
    /// decoders must agree on the seed. Exposed for tests that want to
    /// exercise many code instances.
    ///
    /// # Errors
    ///
    /// [`CodingError::InvalidParams`] unless `0 < k ≤ n`.
    pub fn with_seed(params: MdsParams, seed: u64) -> Result<Self, CodingError> {
        if params.k == 0 || params.k > params.n {
            return Err(CodingError::InvalidParams(format!(
                "require 0 < k <= n, got (n={}, k={})",
                params.n, params.k
            )));
        }
        // Mix (n, k) into the seed so each configuration gets an
        // independent parity block even under the same user seed.
        let mixed = seed
            ^ (params.n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (params.k as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        let mut rng = StdRng::seed_from_u64(mixed);
        let rows = params.n - params.k;
        // Uniform in [-1, 1] \ {0}: a.s. every square submatrix is
        // nonsingular, magnitudes stay O(1).
        let parity = Matrix::from_fn(rows, params.k, |_, _| loop {
            let v: f64 = rng.gen_range(-1.0..=1.0);
            if v.abs() > 1e-3 {
                break v;
            }
        });
        Ok(MdsCode { params, parity })
    }

    /// Code parameters.
    #[must_use]
    pub fn params(&self) -> MdsParams {
        self.params
    }

    /// Generator row for worker `i` (length `k`): unit vector for
    /// systematic workers, Cauchy row for parity workers.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    #[must_use]
    pub fn generator_row(&self, i: usize) -> Vec<f64> {
        assert!(i < self.params.n, "worker index out of range");
        let k = self.params.k;
        if i < k {
            let mut row = vec![0.0; k];
            row[i] = 1.0;
            row
        } else {
            (0..k).map(|j| self.parity.get(i - k, j)).collect()
        }
    }

    /// Encodes a data matrix into `n` coded partitions with
    /// `chunks_per_partition`-way over-decomposition.
    ///
    /// Systematic partitions are plain row blocks of (zero-padded) `A`;
    /// parity partitions are Cauchy-weighted sums of all `k` blocks.
    ///
    /// # Errors
    ///
    /// Propagates layout errors for degenerate shapes.
    pub fn encode(
        &self,
        a: &Matrix,
        chunks_per_partition: usize,
    ) -> Result<EncodedMatrix, CodingError> {
        let layout = ChunkLayout::new(a.rows(), self.params.k, chunks_per_partition)?;
        let prow = layout.partition_rows();
        let cols = a.cols();
        let k = self.params.k;

        // Zero-padded view of A's row r (rows past the original are zero).
        let padded_row = |r: usize| -> Option<&[f64]> {
            if r < a.rows() {
                Some(a.row(r))
            } else {
                None
            }
        };

        let mut partitions = Vec::with_capacity(self.params.n);
        // Systematic partitions: copy (and pad) block i.
        for i in 0..k {
            let mut part = Matrix::zeros(prow, cols);
            for r in 0..prow {
                if let Some(src) = padded_row(i * prow + r) {
                    part.row_mut(r).copy_from_slice(src);
                }
            }
            partitions.push(part);
        }
        // Parity partitions: one cache-blocked pass over the data instead
        // of a full sweep per parity node. Row blocks are sized so the
        // source rows plus every parity destination block stay resident,
        // so each data element is read from memory once rather than
        // `n − k` times. Per output element the k contributions still
        // accumulate in ascending-j order, identical to a per-partition
        // sweep.
        let pcount = self.params.n - k;
        if pcount > 0 {
            let mut parity_parts = vec![Matrix::zeros(prow, cols); pcount];
            let block_rows = (ROW_BLOCK_ELEMS / (cols.max(1) * (pcount + 1))).clamp(1, prow);
            let mut b = 0;
            while b < prow {
                let bend = (b + block_rows).min(prow);
                for j in 0..k {
                    for r in b..bend {
                        let Some(src) = padded_row(j * prow + r) else {
                            continue;
                        };
                        for (p, part) in parity_parts.iter_mut().enumerate() {
                            let w = self.parity.get(p, j);
                            for (d, s) in part.row_mut(r).iter_mut().zip(src.iter()) {
                                *d += w * s;
                            }
                        }
                    }
                }
                b = bend;
            }
            partitions.extend(parity_parts);
        }

        Ok(EncodedMatrix {
            params: self.params,
            layout,
            partitions,
        })
    }

    /// Decodes the full `A·x` product from per-chunk worker results.
    ///
    /// Every chunk index must be covered by at least `k` distinct workers;
    /// extra responses beyond `k` are ignored (the fastest-`k` rule).
    /// Returns the product truncated to the original (unpadded) row count.
    ///
    /// # Errors
    ///
    /// * [`CodingError::NotEnoughResponses`] if any chunk has < `k` results.
    /// * [`CodingError::MalformedResponse`] / [`CodingError::DuplicateResponse`]
    ///   for inconsistent inputs.
    pub fn decode_matvec(
        &self,
        layout: &ChunkLayout,
        responses: &[WorkerChunkResult],
    ) -> Result<Vector, CodingError> {
        let rpc = layout.rows_per_chunk();
        let per_chunk = group_by_chunk(responses, self.params.n, layout, rpc)?
            .into_iter()
            .map(|rs| {
                rs.into_iter()
                    .map(|r| (r.worker, r.values.as_slice()))
                    .collect()
            })
            .collect();
        let mut out = self.decode_stacked(layout, per_chunk, 1)?;
        out.truncate(layout.original_rows);
        Ok(Vector::from(out))
    }

    /// Decodes `A·x_m` for every member of a stacked batch from
    /// contiguous per-chunk blocks — the batch-first counterpart of
    /// [`Self::decode_matvec`].
    ///
    /// All blocks must carry the same member count; coverage rules are
    /// as for single decoding (every chunk needs ≥ `k` distinct
    /// workers, fastest-`k` preferred). The LU system of a chunk is
    /// factored once and back-substituted over the whole stacked block,
    /// and each member's output is bit-identical to decoding that
    /// member's responses alone.
    ///
    /// Returns one output vector per member, truncated to the original
    /// row count.
    ///
    /// # Errors
    ///
    /// As [`Self::decode_matvec`]; additionally
    /// [`CodingError::MalformedResponse`] for blocks with inconsistent
    /// member counts.
    pub fn decode_matvec_multi(
        &self,
        layout: &ChunkLayout,
        responses: &[MultiChunkResult],
    ) -> Result<Vec<Vector>, CodingError> {
        let Some(first) = responses.first() else {
            return Err(CodingError::NotEnoughResponses {
                chunk: 0,
                got: 0,
                need: self.params.k,
            });
        };
        let members = first.members;
        let rpc = layout.rows_per_chunk();
        let per_chunk = group_blocks_by_chunk(responses, self.params.n, layout, members, rpc)?;
        let out = self.decode_stacked(layout, per_chunk, members)?;
        Ok(member_outputs(&out, layout, members))
    }

    /// Decodes `A·x_m` for every member of a stacked batch from borrowed
    /// blocks already grouped by chunk: `per_chunk[chunk]` lists
    /// `(worker, values)` pairs whose `values` are `rows_per_chunk ×
    /// members` blocks (chunk-row-major, member-minor).
    ///
    /// This is the slice-fed form of [`Self::decode_matvec_multi`]: a
    /// caller that computed every block into one buffer hands the
    /// decoder views of it, with no per-block allocation and no
    /// regrouping. Validation and decoding are the same, so outputs are
    /// bit-identical to [`Self::decode_matvec_multi`] over the same
    /// blocks.
    ///
    /// # Errors
    ///
    /// As [`Self::decode_matvec_multi`]: [`CodingError::MalformedResponse`]
    /// for an out-of-range worker, a payload that is not `rows_per_chunk
    /// × members` long, zero members, or a list count other than
    /// `chunks_per_partition`; [`CodingError::DuplicateResponse`] for a
    /// worker listed twice under one chunk;
    /// [`CodingError::NotEnoughResponses`] for a chunk with fewer than
    /// `k` workers.
    pub fn decode_matvec_slices(
        &self,
        layout: &ChunkLayout,
        per_chunk: BlocksByChunk<'_>,
        members: usize,
    ) -> Result<Vec<Vector>, CodingError> {
        if members == 0 {
            return Err(CodingError::MalformedResponse(
                "a stacked decode needs at least one member".into(),
            ));
        }
        if per_chunk.len() != layout.chunks_per_partition {
            return Err(CodingError::MalformedResponse(format!(
                "{} chunk lists for {} chunks per partition",
                per_chunk.len(),
                layout.chunks_per_partition
            )));
        }
        let rpc = layout.rows_per_chunk();
        let mut seen = SeenPairs::new(self.params.n, layout.chunks_per_partition);
        for (chunk, resps) in per_chunk.iter().enumerate() {
            for &(worker, values) in resps {
                check_worker(worker, self.params.n)?;
                check_stacked_payload(values.len(), rpc, members)?;
                seen.insert(worker, chunk)?;
            }
        }
        let out = self.decode_stacked(layout, per_chunk, members)?;
        Ok(member_outputs(&out, layout, members))
    }

    /// The shared stacked decode core.
    ///
    /// `per_chunk[chunk]` holds `(worker, values)` pairs whose values are
    /// `rows_per_chunk × members` blocks (chunk-row-major, member-minor);
    /// the return buffer is member-major (`members × padded_rows`).
    /// Single decoding is the `members == 1` case, with identical
    /// operation order.
    fn decode_stacked(
        &self,
        layout: &ChunkLayout,
        per_chunk: BlocksByChunk<'_>,
        members: usize,
    ) -> Result<Vec<f64>, CodingError> {
        let k = self.params.k;
        let rpc = layout.rows_per_chunk();
        let padded = layout.padded_rows;
        let width = rpc * members;

        // Scatters one chunk-row-major, member-minor block into the
        // member-major output at padded row `start`.
        let place = |out: &mut [f64], start: usize, block: &[f64]| {
            for (r, row) in block.chunks_exact(members).enumerate() {
                for (mem, &v) in row.iter().enumerate() {
                    out[mem * padded + start + r] = v;
                }
            }
        };

        let mut out = vec![0.0; members * padded];
        for (chunk, mut resps) in per_chunk.into_iter().enumerate() {
            if resps.len() < k {
                return Err(CodingError::NotEnoughResponses {
                    chunk,
                    got: resps.len(),
                    need: k,
                });
            }
            // Deterministic preference for systematic responses: they decode
            // for free, minimizing the solve size. Worker ids within a
            // chunk are distinct (callers validate), so the unstable sort
            // is deterministic.
            resps.sort_unstable_by_key(|r| r.0);
            resps.truncate(k);

            // Place systematic results directly. Sorting put them first,
            // in ascending block order; the parity responses follow.
            let known = resps.iter().take_while(|r| r.0 < k).count();
            let (systematic, parity_resps) = resps.split_at(known);
            let mut have = vec![false; k];
            for &(j, vals) in systematic {
                have[j] = true;
                place(
                    &mut out,
                    layout.output_range(j, chunk).start,
                    &vals[..width],
                );
            }
            if parity_resps.is_empty() {
                continue;
            }
            let missing: Vec<usize> = (0..k).filter(|j| !have[*j]).collect();
            debug_assert_eq!(parity_resps.len(), missing.len());

            // Build the m×m generator subsystem over the missing
            // coordinates and factor it once for the whole stacked block.
            let m = missing.len();
            let coeffs: Vec<&[f64]> = parity_resps
                .iter()
                .map(|&(pw, _)| self.parity.row(pw - k))
                .collect();
            let sys = Matrix::from_fn(m, m, |pi, mj| coeffs[pi][missing[mj]]);
            let lu = LuFactors::factor(&sys).map_err(|_| CodingError::DecodeSingular { chunk })?;

            // RHS: parity values minus contributions from known blocks,
            // one column per (chunk row, member) pair.
            let rhs = parity_rhs(parity_resps, &coeffs, systematic, width);
            let solved = lu.solve_matrix(&Matrix::from_flat(m, width, rhs));
            for (mi, &j) in missing.iter().enumerate() {
                place(
                    &mut out,
                    layout.output_range(j, chunk).start,
                    solved.row(mi),
                );
            }
        }
        Ok(out)
    }

    /// Estimated floating-point operations to decode one iteration given
    /// `missing` systematic blocks per chunk on average — used by the
    /// cluster engine to charge master-side decode time.
    #[must_use]
    pub fn decode_flops_estimate(&self, layout: &ChunkLayout, avg_missing: f64) -> f64 {
        let m = avg_missing.max(0.0);
        let rpc = layout.rows_per_chunk() as f64;
        let chunks = layout.chunks_per_partition as f64;
        // LU factor m^3/3 + per-column triangular solves m^2 each,
        // + RHS adjustment m·k·rpc.
        chunks * (m.powi(3) / 3.0 + rpc * m.powi(2) + m * self.params.k as f64 * rpc)
    }

    /// Fused encode-multiply: every worker's stacked chunk products for
    /// `xs`, computed directly from the data matrix without ever
    /// materializing parity partitions.
    ///
    /// The code is systematic and the products are linear in the stored
    /// rows, so parity products are generator-weighted combinations of
    /// the systematic chunk products: `k` row-range matvecs over `A`
    /// (exactly the systematic work) plus cheap length-`rows_per_chunk ×
    /// members` axpys replace the full `(n − k) × partition` parity
    /// encode pass. A one-shot multiply therefore skips `(n − k)/n` of
    /// the encode cost entirely — the right tool when an encoding will
    /// be used once rather than cached across iterations.
    ///
    /// Systematic blocks are bit-identical to
    /// [`EncodedMatrix::worker_compute_chunk_multi`] on an encoding of
    /// `a`; parity blocks differ by rounding only (weighted sums of
    /// products instead of products of weighted rows), which decoding
    /// absorbs within [`s2c2_linalg::ROUND_TRIP_TOL`].
    ///
    /// Returns the layout and one block per `(worker, chunk)` pair,
    /// worker-major.
    ///
    /// # Errors
    ///
    /// [`CodingError::InvalidParams`] when `xs.len() != a.cols()`, plus
    /// layout errors for degenerate shapes.
    pub fn encode_matvec_multi(
        &self,
        a: &Matrix,
        chunks_per_partition: usize,
        xs: &MultiVector,
    ) -> Result<(ChunkLayout, Vec<MultiChunkResult>), CodingError> {
        if xs.len() != a.cols() {
            return Err(CodingError::InvalidParams(format!(
                "input length {} does not match matrix columns {}",
                xs.len(),
                a.cols()
            )));
        }
        let k = self.params.k;
        let layout = ChunkLayout::new(a.rows(), k, chunks_per_partition)?;
        let prow = layout.partition_rows();
        let chunks = layout.chunks_per_partition;
        let members = xs.count();
        let width = layout.rows_per_chunk() * members;

        // Systematic products straight off `a`'s rows; rows beyond the
        // original count are zero padding, so their products are zeros.
        let mut sys: Vec<Vec<f64>> = Vec::with_capacity(k * chunks);
        for j in 0..k {
            for c in 0..chunks {
                let local = layout.chunk_range_in_partition(c);
                let begin = (j * prow + local.start).min(a.rows());
                let end = (j * prow + local.end).min(a.rows());
                let mut vals = a.matvec_multi_rows(xs, begin, end).into_flat();
                vals.resize(width, 0.0);
                sys.push(vals);
            }
        }
        // Parity products as generator-weighted combinations of the
        // systematic products.
        let mut parity_blocks = Vec::with_capacity((self.params.n - k) * chunks);
        for p in 0..self.params.n - k {
            for c in 0..chunks {
                let mut vals = vec![0.0; width];
                for j in 0..k {
                    let w = self.parity.get(p, j);
                    for (d, s) in vals.iter_mut().zip(&sys[j * chunks + c]) {
                        *d += w * s;
                    }
                }
                parity_blocks.push(MultiChunkResult::new(k + p, c, members, vals));
            }
        }
        let mut results = Vec::with_capacity(self.params.n * chunks);
        for (idx, vals) in sys.into_iter().enumerate() {
            results.push(MultiChunkResult::new(
                idx / chunks,
                idx % chunks,
                members,
                vals,
            ));
        }
        results.extend(parity_blocks);
        Ok((layout, results))
    }
}

/// Register tile of [`parity_rhs`]: parity rows × columns accumulated
/// together.
const RHS_TILE_ROWS: usize = 2;
const RHS_TILE_COLS: usize = 4;

/// The `m × width` parity right-hand side of one chunk's decode: row
/// `pi` is parity response `pi`'s values minus `Σ_j c[pi][j] · x_j` over
/// the known systematic blocks `(j, x_j)`.
///
/// Accumulated in GEMM order with a register tile: each
/// [`RHS_TILE_ROWS`] × [`RHS_TILE_COLS`] tile streams every known block
/// once, so its independent subtractions overlap instead of waiting on
/// one another. Every element still sees exactly `v = pv; v −= c_j · x_j`
/// for ascending `j`, the operation sequence of a one-element-at-a-time
/// scalar loop, with no fused multiply-add — results are bit-identical
/// to it. Edge tiles repeat their last row or column to stay full; the
/// repeats are computed and dropped.
fn parity_rhs(
    parity_resps: &[(usize, &[f64])],
    coeffs: &[&[f64]],
    systematic: &[(usize, &[f64])],
    width: usize,
) -> Vec<f64> {
    let m = parity_resps.len();
    let mut rhs = vec![0.0; m * width];
    for row0 in (0..m).step_by(RHS_TILE_ROWS) {
        let rows: [usize; RHS_TILE_ROWS] = std::array::from_fn(|r| (row0 + r).min(m - 1));
        let coef = rows.map(|pi| coeffs[pi]);
        for col0 in (0..width).step_by(RHS_TILE_COLS) {
            let cols: [usize; RHS_TILE_COLS] = std::array::from_fn(|t| (col0 + t).min(width - 1));
            let mut acc = rows.map(|pi| cols.map(|col| parity_resps[pi].1[col]));
            if col0 + RHS_TILE_COLS <= width {
                for &(j, xj) in systematic {
                    let xj = &xj[col0..col0 + RHS_TILE_COLS];
                    let x: [f64; RHS_TILE_COLS] = std::array::from_fn(|t| xj[t]);
                    for (acc, c) in acc.iter_mut().zip(&coef) {
                        let c = c[j];
                        for (v, x) in acc.iter_mut().zip(x) {
                            *v -= c * x;
                        }
                    }
                }
            } else {
                for &(j, xj) in systematic {
                    let x = cols.map(|col| xj[col]);
                    for (acc, c) in acc.iter_mut().zip(&coef) {
                        let c = c[j];
                        for (v, x) in acc.iter_mut().zip(x) {
                            *v -= c * x;
                        }
                    }
                }
            }
            for (r, acc) in acc.iter().enumerate().take(m - row0) {
                let keep = RHS_TILE_COLS.min(width - col0);
                let at = (row0 + r) * width + col0;
                rhs[at..at + keep].copy_from_slice(&acc[..keep]);
            }
        }
    }
    rhs
}

/// Splits a member-major stacked decode buffer into one output vector
/// per member, truncated to the original row count.
fn member_outputs(out: &[f64], layout: &ChunkLayout, members: usize) -> Vec<Vector> {
    out.chunks_exact(layout.padded_rows)
        .take(members)
        .map(|v| Vector::from(&v[..layout.original_rows]))
        .collect()
}

/// The result of encoding: `n` coded partitions plus the shared layout.
#[derive(Debug, Clone)]
pub struct EncodedMatrix {
    params: MdsParams,
    layout: ChunkLayout,
    partitions: Vec<Matrix>,
}

impl EncodedMatrix {
    /// Code parameters used for the encoding.
    #[must_use]
    pub fn params(&self) -> MdsParams {
        self.params
    }

    /// Chunk/padding geometry.
    #[must_use]
    pub fn layout(&self) -> &ChunkLayout {
        &self.layout
    }

    /// Coded partition stored by worker `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    #[must_use]
    pub fn partition(&self, i: usize) -> &Matrix {
        &self.partitions[i]
    }

    /// All partitions, indexed by worker.
    #[must_use]
    pub fn partitions(&self) -> &[Matrix] {
        &self.partitions
    }

    /// Per-worker stored bytes (each worker holds one partition).
    #[must_use]
    pub fn bytes_per_worker(&self) -> u64 {
        self.partitions.first().map_or(0, Matrix::payload_bytes)
    }

    /// Computes worker `i`'s result for `chunk` given input `x` — the
    /// numeric work a worker performs when assigned that chunk.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices or mismatched `x` length.
    #[must_use]
    pub fn worker_compute_chunk(
        &self,
        worker: usize,
        chunk: usize,
        x: &Vector,
    ) -> WorkerChunkResult {
        let range = self.layout.chunk_range_in_partition(chunk);
        let values = self.partitions[worker]
            .matvec_rows(x, range.start, range.end)
            .into_vec();
        WorkerChunkResult::new(worker, chunk, values)
    }

    /// Computes worker `i`'s results for every chunk in `chunks`.
    #[must_use]
    pub fn worker_compute_chunks(
        &self,
        worker: usize,
        chunks: &[usize],
        x: &Vector,
    ) -> Vec<WorkerChunkResult> {
        chunks
            .iter()
            .map(|&c| self.worker_compute_chunk(worker, c, x))
            .collect()
    }

    /// Multi-RHS variant of [`Self::worker_compute_chunk`]: computes the
    /// chunk's rows against every member of a stacked batch in one
    /// cache-blocked pass over the stored partition — the stacked matvec
    /// a batch round dispatches, where `m` small jobs sharing this
    /// encoding ride one task. The kernel
    /// ([`Matrix::matvec_multi_rows`]) tiles members so each partition
    /// row is loaded once per member tile instead of once per member.
    ///
    /// Returns one contiguous [`MultiChunkResult`] block
    /// (`rows_per_chunk × members`, member-minor) — the wire format the
    /// stacked decoder consumes directly. Every member's column is
    /// bit-identical to [`Self::worker_compute_chunk`] on that member
    /// alone (same dot-product evaluation order), which is what keeps
    /// batched and unbatched decode outputs comparable at machine
    /// precision.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices or mismatched input length.
    #[must_use]
    pub fn worker_compute_chunk_multi(
        &self,
        worker: usize,
        chunk: usize,
        xs: &MultiVector,
    ) -> MultiChunkResult {
        let mut values = Vec::new();
        self.worker_compute_chunk_run_into(worker, chunk..chunk + 1, xs, &mut values);
        MultiChunkResult::new(worker, chunk, xs.count(), values)
    }

    /// Appends worker `i`'s stacked blocks for the consecutive chunks
    /// `chunks` to `out`, in one kernel call over the run's rows.
    ///
    /// Chunk `c`'s block is the `rows_per_chunk × members` slice that
    /// starts `(c − chunks.start) · rows_per_chunk · members` values past
    /// the old end of `out`, bit-identical to
    /// [`Self::worker_compute_chunk_multi`]`(worker, c, xs)`: the kernel
    /// computes every (row, member) value on its own, in the same
    /// dot-product order. A caller that computes a whole round into one
    /// reused buffer allocates nothing per block.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range worker or chunk run, or mismatched
    /// input length.
    pub fn worker_compute_chunk_run_into(
        &self,
        worker: usize,
        chunks: Range<usize>,
        xs: &MultiVector,
        out: &mut Vec<f64>,
    ) {
        assert!(
            chunks.start <= chunks.end && chunks.end <= self.layout.chunks_per_partition,
            "chunk index out of range"
        );
        let rpc = self.layout.rows_per_chunk();
        self.partitions[worker].matvec_multi_rows_into(
            xs,
            chunks.start * rpc,
            chunks.end * rpc,
            out,
        );
    }

    /// Computes worker `i`'s stacked blocks for every chunk in `chunks`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::worker_compute_chunk_multi`].
    #[must_use]
    pub fn worker_compute_chunks_multi(
        &self,
        worker: usize,
        chunks: &[usize],
        xs: &MultiVector,
    ) -> Vec<MultiChunkResult> {
        chunks
            .iter()
            .map(|&c| self.worker_compute_chunk_multi(worker, c, xs))
            .collect()
    }

    /// Thread-parallel variant of [`Self::worker_compute_chunk`]: the
    /// chunk's rows are split across `threads` OS threads via
    /// [`s2c2_linalg::parallel::par_matvec_rows`], so one simulated
    /// worker's matvec stops being single-threaded on the hot path.
    /// Numerically identical to the sequential form.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices, mismatched `x` length, or
    /// `threads == 0`.
    #[must_use]
    pub fn worker_compute_chunk_par(
        &self,
        worker: usize,
        chunk: usize,
        x: &Vector,
        threads: usize,
    ) -> WorkerChunkResult {
        let range = self.layout.chunk_range_in_partition(chunk);
        let values = s2c2_linalg::parallel::par_matvec_rows(
            &self.partitions[worker],
            x,
            range.start,
            range.end,
            threads,
        )
        .into_vec();
        WorkerChunkResult::new(worker, chunk, values)
    }

    /// Thread-parallel variant of [`Self::worker_compute_chunks`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::worker_compute_chunk_par`].
    #[must_use]
    pub fn worker_compute_chunks_par(
        &self,
        worker: usize,
        chunks: &[usize],
        x: &Vector,
        threads: usize,
    ) -> Vec<WorkerChunkResult> {
        chunks
            .iter()
            .map(|&c| self.worker_compute_chunk_par(worker, c, x, threads))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2c2_linalg::assert_slices_close;

    fn data_matrix(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| ((r * 31 + c * 17) % 23) as f64 - 11.0)
    }

    fn full_responses(
        enc: &EncodedMatrix,
        workers: &[usize],
        x: &Vector,
    ) -> Vec<WorkerChunkResult> {
        let chunks: Vec<usize> = (0..enc.layout().chunks_per_partition).collect();
        workers
            .iter()
            .flat_map(|&w| enc.worker_compute_chunks(w, &chunks, x))
            .collect()
    }

    #[test]
    fn params_helpers() {
        let p = MdsParams::new(12, 10);
        assert_eq!(p.straggler_tolerance(), 2);
        assert!((p.storage_overhead() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn parallel_worker_compute_matches_sequential() {
        let a = data_matrix(960, 14);
        let code = MdsCode::new(MdsParams::new(6, 4)).unwrap();
        let enc = code.encode(&a, 3).unwrap();
        let x = Vector::from_fn(14, |i| 0.5 + (i as f64).cos());
        let chunks = vec![0usize, 2];
        let seq = enc.worker_compute_chunks(1, &chunks, &x);
        for threads in [1, 2, 4] {
            let par = enc.worker_compute_chunks_par(1, &chunks, &x, threads);
            assert_eq!(par.len(), seq.len());
            for (p, s) in par.iter().zip(seq.iter()) {
                assert_eq!(p.worker, s.worker);
                assert_eq!(p.chunk, s.chunk);
                assert_slices_close(&p.values, &s.values, 1e-12);
            }
        }
    }

    #[test]
    fn multi_rhs_compute_matches_single_bitwise() {
        let a = data_matrix(96, 9);
        let code = MdsCode::new(MdsParams::new(6, 4)).unwrap();
        let enc = code.encode(&a, 3).unwrap();
        // 5 members exercises a full RHS tile plus a remainder.
        let vs: Vec<Vector> = (0..5)
            .map(|j| Vector::from_fn(9, |i| (i as f64 * 0.3 + j as f64).sin()))
            .collect();
        let refs: Vec<&Vector> = vs.iter().collect();
        let xs = MultiVector::from_vectors(&refs);
        for worker in 0..6 {
            for chunk in 0..3 {
                let stacked = enc.worker_compute_chunk_multi(worker, chunk, &xs);
                assert_eq!(stacked.worker, worker);
                assert_eq!(stacked.chunk, chunk);
                assert_eq!(stacked.members, 5);
                for (j, x) in vs.iter().enumerate() {
                    let single = enc.worker_compute_chunk(worker, chunk, x);
                    // Bit-identical, not merely close: the stacked kernel
                    // preserves the single path's dot-product order.
                    assert_eq!(stacked.member_values(j), single.values);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn multi_rhs_rejects_mismatched_input_length() {
        let a = data_matrix(24, 3);
        let code = MdsCode::new(MdsParams::new(3, 2)).unwrap();
        let enc = code.encode(&a, 2).unwrap();
        let xs = MultiVector::zeros(2, 5);
        let _ = enc.worker_compute_chunk_multi(0, 0, &xs);
    }

    #[test]
    fn stacked_decode_matches_single_decode_bitwise() {
        let a = data_matrix(72, 6);
        let code = MdsCode::new(MdsParams::new(6, 4)).unwrap();
        let enc = code.encode(&a, 3).unwrap();
        let vs: Vec<Vector> = (0..4)
            .map(|j| Vector::from_fn(6, |i| (i as f64 * 0.7 - j as f64).cos()))
            .collect();
        let refs: Vec<&Vector> = vs.iter().collect();
        let xs = MultiVector::from_vectors(&refs);
        // Mixed coverage with parity workers involved (worker 1 missing).
        let workers = [0usize, 2, 3, 4];
        let blocks: Vec<MultiChunkResult> = workers
            .iter()
            .flat_map(|&w| enc.worker_compute_chunks_multi(w, &[0, 1, 2], &xs))
            .collect();
        let outs = code.decode_matvec_multi(enc.layout(), &blocks).unwrap();
        assert_eq!(outs.len(), 4);
        for (j, x) in vs.iter().enumerate() {
            // Per-member single decode over the same responses.
            let singles: Vec<WorkerChunkResult> = blocks
                .iter()
                .map(|b| WorkerChunkResult::new(b.worker, b.chunk, b.member_values(j)))
                .collect();
            let single = code.decode_matvec(enc.layout(), &singles).unwrap();
            // The stacked core performs identical per-member operations.
            assert_eq!(outs[j].as_slice(), single.as_slice());
            assert_slices_close(outs[j].as_slice(), a.matvec(x).as_slice(), 1e-8);
        }
    }

    #[test]
    fn slice_decode_reports_the_block_decode_errors() {
        let a = data_matrix(48, 5);
        let code = MdsCode::new(MdsParams::new(5, 3)).unwrap();
        let enc = code.encode(&a, 2).unwrap();
        let layout = enc.layout();
        let xs = MultiVector::from_fn(2, 5, |m, i| (m + i) as f64 * 0.5);
        let block = |w: usize, c: usize| enc.worker_compute_chunk_multi(w, c, &xs);
        // Both entries over the same blocks, grouped by chunk for the
        // slice entry in submission order.
        let both = |blocks: &[MultiChunkResult]| {
            let mut lists: Vec<Vec<(usize, &[f64])>> = vec![Vec::new(); 2];
            for b in blocks {
                lists[b.chunk].push((b.worker, b.values.as_slice()));
            }
            (
                code.decode_matvec_multi(layout, blocks).unwrap_err(),
                code.decode_matvec_slices(layout, lists, 2).unwrap_err(),
            )
        };

        let bad_worker = vec![block(0, 0), MultiChunkResult::new(7, 1, 2, vec![0.0; 16])];
        let (multi, slices) = both(&bad_worker);
        assert!(
            matches!(multi, CodingError::MalformedResponse(_)),
            "{multi:?}"
        );
        assert_eq!(slices, multi);

        let mut short = block(1, 0);
        short.values.truncate(short.values.len() - 2);
        let (multi, slices) = both(&[block(0, 0), short]);
        assert!(
            matches!(multi, CodingError::MalformedResponse(_)),
            "{multi:?}"
        );
        assert_eq!(slices, multi);

        let (multi, slices) = both(&[block(0, 1), block(2, 1), block(2, 1)]);
        assert_eq!(
            multi,
            CodingError::DuplicateResponse {
                worker: 2,
                chunk: 1
            }
        );
        assert_eq!(slices, multi);

        // Shape errors only the slice entry can see.
        assert!(matches!(
            code.decode_matvec_slices(layout, vec![Vec::new(); 3], 2),
            Err(CodingError::MalformedResponse(_))
        ));
        assert!(matches!(
            code.decode_matvec_slices(layout, vec![Vec::new(); 2], 0),
            Err(CodingError::MalformedResponse(_))
        ));
    }

    #[test]
    fn parity_rhs_matches_scalar_loop_bitwise() {
        // Every tile-edge case: row counts around RHS_TILE_ROWS and
        // widths around RHS_TILE_COLS, against the element-at-a-time
        // loop the tiled kernel replaced.
        let k = 11;
        for m in 1..=5usize {
            for width in 1..=13usize {
                let vals = |seed: usize, len: usize| -> Vec<f64> {
                    (0..len)
                        .map(|i| ((seed * 31 + i * 7) as f64 * 0.37).sin())
                        .collect()
                };
                let pdata: Vec<Vec<f64>> = (0..m).map(|p| vals(p + 100, width)).collect();
                let xdata: Vec<Vec<f64>> = (0..k - m).map(|j| vals(j, width)).collect();
                let cdata: Vec<Vec<f64>> = (0..m).map(|p| vals(p + 500, k)).collect();
                let parity: Vec<(usize, &[f64])> = pdata
                    .iter()
                    .enumerate()
                    .map(|(p, v)| (k + p, v.as_slice()))
                    .collect();
                // Known blocks skip a few ids, as missing ones would.
                let systematic: Vec<(usize, &[f64])> = xdata
                    .iter()
                    .enumerate()
                    .map(|(i, v)| (i + m, v.as_slice()))
                    .collect();
                let coeffs: Vec<&[f64]> = cdata.iter().map(Vec::as_slice).collect();
                let got = parity_rhs(&parity, &coeffs, &systematic, width);
                let mut expect = Vec::new();
                for (pi, &(_, pv)) in parity.iter().enumerate() {
                    for (col, &v0) in pv.iter().enumerate() {
                        let mut v = v0;
                        for &(j, xj) in &systematic {
                            v -= coeffs[pi][j] * xj[col];
                        }
                        expect.push(v);
                    }
                }
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&expect), "m {m} width {width}");
            }
        }
    }

    #[test]
    fn chunk_run_blocks_match_per_chunk_blocks_bitwise() {
        let a = data_matrix(90, 7);
        let code = MdsCode::new(MdsParams::new(5, 3)).unwrap();
        let enc = code.encode(&a, 5).unwrap();
        let xs = MultiVector::from_fn(3, 7, |m, i| ((m * 3 + i) as f64).sin());
        let width = enc.layout().rows_per_chunk() * 3;
        for worker in 0..5 {
            let mut arena = vec![-1.0];
            enc.worker_compute_chunk_run_into(worker, 1..4, &xs, &mut arena);
            assert_eq!(arena.len(), 1 + 3 * width);
            for (i, chunk) in (1..4).enumerate() {
                let single = enc.worker_compute_chunk_multi(worker, chunk, &xs);
                assert_eq!(&arena[1 + i * width..1 + (i + 1) * width], single.values);
            }
        }
    }

    #[test]
    #[should_panic(expected = "chunk index out of range")]
    fn chunk_run_rejects_out_of_range_chunks() {
        let a = data_matrix(24, 3);
        let code = MdsCode::new(MdsParams::new(3, 2)).unwrap();
        let enc = code.encode(&a, 2).unwrap();
        let mut out = Vec::new();
        enc.worker_compute_chunk_run_into(0, 1..3, &MultiVector::zeros(1, 3), &mut out);
    }

    #[test]
    fn stacked_decode_empty_reports_not_enough() {
        let code = MdsCode::new(MdsParams::new(4, 2)).unwrap();
        let layout = ChunkLayout::new(40, 2, 2).unwrap();
        let err = code.decode_matvec_multi(&layout, &[]).unwrap_err();
        assert_eq!(
            err,
            CodingError::NotEnoughResponses {
                chunk: 0,
                got: 0,
                need: 2
            }
        );
    }

    #[test]
    fn fused_encode_multiply_matches_two_pass() {
        let a = data_matrix(50, 7);
        let code = MdsCode::new(MdsParams::new(6, 4)).unwrap();
        let enc = code.encode(&a, 3).unwrap();
        let xs = MultiVector::from_fn(3, 7, |m, i| ((m * 3 + i) % 5) as f64 * 0.4 - 0.9);
        let (layout, fused) = code.encode_matvec_multi(&a, 3, &xs).unwrap();
        assert_eq!(&layout, enc.layout());
        assert_eq!(fused.len(), 6 * 3);
        for block in &fused {
            let direct = enc.worker_compute_chunk_multi(block.worker, block.chunk, &xs);
            if block.worker < 4 {
                // Systematic products come off the same rows through the
                // same kernel: bit-identical.
                assert_eq!(block.values, direct.values);
            } else {
                // Parity products are combinations of products rather than
                // products of combinations: equal up to rounding.
                assert_slices_close(&block.values, &direct.values, 1e-9);
            }
        }
        // Fused responses decode like any others: drop one systematic
        // worker, keep a parity worker in the mix.
        let subset: Vec<MultiChunkResult> = fused
            .iter()
            .filter(|b| b.worker != 1 && b.worker != 5)
            .cloned()
            .collect();
        let outs = code.decode_matvec_multi(&layout, &subset).unwrap();
        for (m, y) in outs.iter().enumerate() {
            let x = Vector::from(xs.member(m).to_vec());
            assert_slices_close(y.as_slice(), a.matvec(&x).as_slice(), 1e-6);
        }
    }

    #[test]
    fn fused_encode_multiply_rejects_bad_input_length() {
        let a = data_matrix(20, 4);
        let code = MdsCode::new(MdsParams::new(3, 2)).unwrap();
        let xs = MultiVector::zeros(2, 9);
        assert!(matches!(
            code.encode_matvec_multi(&a, 2, &xs),
            Err(CodingError::InvalidParams(_))
        ));
    }

    #[test]
    #[should_panic(expected = "require 0 < k <= n")]
    fn params_rejects_bad_k() {
        let _ = MdsParams::new(3, 4);
    }

    #[test]
    fn invalid_params_error() {
        assert!(MdsCode::new(MdsParams { n: 3, k: 0 }).is_err());
        assert!(MdsCode::new(MdsParams { n: 3, k: 4 }).is_err());
    }

    #[test]
    fn generator_rows_systematic_and_parity() {
        let code = MdsCode::new(MdsParams::new(4, 2)).unwrap();
        assert_eq!(code.generator_row(0), vec![1.0, 0.0]);
        assert_eq!(code.generator_row(1), vec![0.0, 1.0]);
        // Parity rows are dense Cauchy rows.
        assert!(code.generator_row(2).iter().all(|&v| v != 0.0));
        assert_ne!(code.generator_row(2), code.generator_row(3));
    }

    #[test]
    fn encode_systematic_partitions_match_blocks() {
        let a = data_matrix(40, 6);
        let code = MdsCode::new(MdsParams::new(4, 2)).unwrap();
        let enc = code.encode(&a, 2).unwrap();
        assert_eq!(enc.partition(0), &a.row_block(0, 20));
        assert_eq!(enc.partition(1), &a.row_block(20, 40));
        // Parity for (4,2) first parity node: weighted sum of both blocks.
        let g = code.generator_row(2);
        let mut expect = a.row_block(0, 20);
        expect.scale(g[0]);
        expect.axpy(g[1], &a.row_block(20, 40));
        assert!(enc.partition(2).max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn decode_from_systematic_workers_only() {
        let a = data_matrix(60, 5);
        let x = Vector::from_fn(5, |i| 1.0 + i as f64);
        let code = MdsCode::new(MdsParams::new(5, 3)).unwrap();
        let enc = code.encode(&a, 4).unwrap();
        let resp = full_responses(&enc, &[0, 1, 2], &x);
        let y = code.decode_matvec(enc.layout(), &resp).unwrap();
        assert_slices_close(y.as_slice(), a.matvec(&x).as_slice(), 1e-9);
    }

    #[test]
    fn decode_from_any_k_of_n() {
        let a = data_matrix(48, 7);
        let x = Vector::from_fn(7, |i| (i as f64 * 0.7).cos());
        let code = MdsCode::new(MdsParams::new(6, 4)).unwrap();
        let enc = code.encode(&a, 3).unwrap();
        let expect = a.matvec(&x);
        // Every 4-subset of 6 workers must decode.
        for w0 in 0..6 {
            for w1 in w0 + 1..6 {
                for w2 in w1 + 1..6 {
                    for w3 in w2 + 1..6 {
                        let resp = full_responses(&enc, &[w0, w1, w2, w3], &x);
                        let y = code.decode_matvec(enc.layout(), &resp).unwrap();
                        assert_slices_close(y.as_slice(), expect.as_slice(), 1e-8);
                    }
                }
            }
        }
    }

    #[test]
    fn decode_mixed_coverage_per_chunk() {
        // Different chunks covered by different worker subsets — the exact
        // situation S2C2 scheduling creates.
        let a = data_matrix(36, 4);
        let x = Vector::from_fn(4, |i| i as f64 - 1.5);
        let code = MdsCode::new(MdsParams::new(4, 2)).unwrap();
        let enc = code.encode(&a, 3).unwrap();
        let mut resp = Vec::new();
        // chunk 0: workers 0,1 (systematic); chunk 1: 0,3; chunk 2: 2,3.
        for (chunk, ws) in [(0usize, [0usize, 1]), (1, [0, 3]), (2, [2, 3])] {
            for w in ws {
                resp.push(enc.worker_compute_chunk(w, chunk, &x));
            }
        }
        let y = code.decode_matvec(enc.layout(), &resp).unwrap();
        assert_slices_close(y.as_slice(), a.matvec(&x).as_slice(), 1e-9);
    }

    #[test]
    fn decode_with_padding() {
        // 50 rows with k=4, chunks=3 pads to 60.
        let a = data_matrix(50, 3);
        let x = Vector::from_fn(3, |i| 2.0 - i as f64);
        let code = MdsCode::new(MdsParams::new(6, 4)).unwrap();
        let enc = code.encode(&a, 3).unwrap();
        assert_eq!(enc.layout().padded_rows, 60);
        let resp = full_responses(&enc, &[1, 2, 4, 5], &x);
        let y = code.decode_matvec(enc.layout(), &resp).unwrap();
        assert_eq!(y.len(), 50);
        assert_slices_close(y.as_slice(), a.matvec(&x).as_slice(), 1e-9);
    }

    #[test]
    fn paper_configurations_roundtrip() {
        // The exact (n,k) pairs used in the paper's evaluation.
        let x_cols = 8;
        for (n, k) in [
            (12usize, 10usize),
            (12, 9),
            (12, 6),
            (10, 7),
            (9, 7),
            (8, 7),
            (50, 40),
        ] {
            let a = data_matrix(2 * n * k, x_cols);
            let x = Vector::from_fn(x_cols, |i| (i as f64).sin() + 1.5);
            let code = MdsCode::new(MdsParams::new(n, k)).unwrap();
            let enc = code.encode(&a, 2).unwrap();
            // Slowest n-k workers ignored: use the *last* k workers (worst
            // case: all parity workers involved).
            let workers: Vec<usize> = (n - k..n).collect();
            let resp = full_responses(&enc, &workers, &x);
            let y = code.decode_matvec(enc.layout(), &resp).unwrap();
            assert_slices_close(y.as_slice(), a.matvec(&x).as_slice(), 1e-6);
        }
    }

    #[test]
    fn not_enough_responses_is_reported() {
        let a = data_matrix(40, 3);
        let x = Vector::filled(3, 1.0);
        let code = MdsCode::new(MdsParams::new(4, 2)).unwrap();
        let enc = code.encode(&a, 2).unwrap();
        let mut resp = full_responses(&enc, &[0, 1], &x);
        // Remove one response from chunk 1.
        resp.retain(|r| !(r.chunk == 1 && r.worker == 1));
        let err = code.decode_matvec(enc.layout(), &resp).unwrap_err();
        assert_eq!(
            err,
            CodingError::NotEnoughResponses {
                chunk: 1,
                got: 1,
                need: 2
            }
        );
    }

    #[test]
    fn extra_responses_are_ignored() {
        let a = data_matrix(40, 3);
        let x = Vector::filled(3, 0.5);
        let code = MdsCode::new(MdsParams::new(5, 2)).unwrap();
        let enc = code.encode(&a, 2).unwrap();
        let resp = full_responses(&enc, &[0, 1, 2, 3, 4], &x);
        let y = code.decode_matvec(enc.layout(), &resp).unwrap();
        assert_slices_close(y.as_slice(), a.matvec(&x).as_slice(), 1e-9);
    }

    #[test]
    fn n_equals_k_degenerates_to_uncoded() {
        let a = data_matrix(30, 4);
        let x = Vector::filled(4, 2.0);
        let code = MdsCode::new(MdsParams::new(3, 3)).unwrap();
        let enc = code.encode(&a, 2).unwrap();
        let resp = full_responses(&enc, &[0, 1, 2], &x);
        let y = code.decode_matvec(enc.layout(), &resp).unwrap();
        assert_slices_close(y.as_slice(), a.matvec(&x).as_slice(), 1e-9);
    }

    #[test]
    fn decode_flops_estimate_monotone_in_missing() {
        let code = MdsCode::new(MdsParams::new(10, 7)).unwrap();
        let layout = ChunkLayout::new(700, 7, 10).unwrap();
        let f0 = code.decode_flops_estimate(&layout, 0.0);
        let f1 = code.decode_flops_estimate(&layout, 1.0);
        let f3 = code.decode_flops_estimate(&layout, 3.0);
        assert!(f0 <= f1 && f1 < f3);
    }
}
