//! Property-based tests for the coding substrate.
//!
//! The invariant that makes S²C² correct at all is *per-chunk
//! any-k-of-n decodability*: whatever subset of workers computes a chunk,
//! as long as at least `k` (or `a·b`) distinct workers cover it, the decoder
//! must reconstruct the exact uncoded result. These properties drive random
//! code parameters, random data, and random per-chunk coverage patterns.

use proptest::prelude::*;
use proptest::strategy::ValueTree;
use s2c2_coding::chunks::{MultiChunkResult, WorkerChunkResult};
use s2c2_coding::mds::{MdsCode, MdsParams};
use s2c2_coding::polynomial::{PolyParams, PolynomialCode};
use s2c2_linalg::{Matrix, MultiVector, Vector};

/// Strategy: a valid (n, k) pair with n ≤ 12.
fn mds_params() -> impl Strategy<Value = MdsParams> {
    (2usize..=12)
        .prop_flat_map(|n| (Just(n), 1usize..=n))
        .prop_map(|(n, k)| MdsParams { n, k })
}

/// Strategy: per-chunk worker coverage — for each chunk, a shuffled subset
/// of workers of size ≥ k.
fn coverage(n: usize, k: usize, chunks: usize) -> impl Strategy<Value = Vec<Vec<usize>>> {
    proptest::collection::vec(
        (Just(()), any::<u64>()).prop_map(move |(_, seed)| {
            // Deterministic shuffle from the seed: pick a subset size in
            // [k, n], then take the first `size` of a seeded permutation.
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut ids: Vec<usize> = (0..n).collect();
            ids.shuffle(&mut rng);
            let size = k + (seed as usize % (n - k + 1));
            ids.truncate(size);
            ids
        }),
        chunks,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any coverage with ≥ k workers per chunk decodes A·x exactly.
    #[test]
    fn mds_decodes_any_k_coverage(
        params in mds_params(),
        chunks in 1usize..=4,
        cols in 1usize..=6,
        seed in any::<u64>(),
    ) {
        let cover_strategy = coverage(params.n, params.k, chunks);
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let cover = cover_strategy.new_tree(&mut runner).unwrap().current();

        let rows = params.k * chunks * 2 + (seed as usize % 5); // odd sizes force padding
        let a = Matrix::from_fn(rows, cols, |r, c| {
            (((r * 7 + c * 3) as f64) + (seed % 11) as f64 * 0.25).sin()
        });
        let x = Vector::from_fn(cols, |i| 1.0 + (i as f64) * 0.5);
        let code = MdsCode::new(params).unwrap();
        let enc = code.encode(&a, chunks).unwrap();

        let mut responses = Vec::new();
        for (chunk, workers) in cover.iter().enumerate() {
            for &w in workers {
                responses.push(enc.worker_compute_chunk(w, chunk, &x));
            }
        }
        let decoded = code.decode_matvec(enc.layout(), &responses).unwrap();
        let expect = a.matvec(&x);
        for (d, e) in decoded.as_slice().iter().zip(expect.as_slice()) {
            prop_assert!((d - e).abs() < 1e-6 * (1.0 + e.abs()),
                "decode mismatch: {d} vs {e}");
        }
    }

    /// Coverage below k on any chunk must fail with NotEnoughResponses,
    /// never silently return wrong data.
    #[test]
    fn mds_under_coverage_fails_loudly(
        n in 3usize..=10,
        chunks in 1usize..=3,
        seed in any::<u64>(),
    ) {
        let k = 2 + (seed as usize % (n - 1)).min(n - 1);
        let k = k.min(n).max(2);
        let params = MdsParams { n, k };
        let a = Matrix::from_fn(k * chunks * 2, 3, |r, c| (r + c) as f64);
        let x = Vector::filled(3, 1.0);
        let code = MdsCode::new(params).unwrap();
        let enc = code.encode(&a, chunks).unwrap();

        // Cover every chunk with exactly k-1 workers.
        let mut responses = Vec::new();
        for chunk in 0..chunks {
            for w in 0..k - 1 {
                responses.push(enc.worker_compute_chunk(w, chunk, &x));
            }
        }
        prop_assert!(code.decode_matvec(enc.layout(), &responses).is_err());
    }

    /// Polynomial codes decode A·B from any (a·b)-subset per chunk.
    #[test]
    fn polynomial_decodes_any_threshold_coverage(
        n in 4usize..=9,
        chunks in 1usize..=3,
        seed in any::<u64>(),
    ) {
        // Choose a grid that fits in n.
        let grids: Vec<(usize, usize)> = [(2usize, 2usize), (3, 2), (2, 3), (4, 2), (3, 3)]
            .into_iter()
            .filter(|(a, b)| a * b <= n)
            .collect();
        let (ga, gb) = grids[(seed as usize) % grids.len()];
        let params = PolyParams { n, a: ga, b: gb };
        let code = PolynomialCode::new(params).unwrap();

        let inner = 4;
        let a = Matrix::from_fn(ga * chunks * 2 + 1, inner, |r, c| {
            ((r * 5 + c) as f64 * 0.3).cos()
        });
        let b = Matrix::from_fn(inner, gb * 2 + 1, |r, c| ((r + c * 3) as f64 * 0.2).sin());
        let enc = code.encode_pair(&a, &b, chunks).unwrap();

        let need = params.recovery_threshold();
        // Seeded rotation gives a different worker subset per chunk.
        let mut responses = Vec::new();
        for chunk in 0..chunks {
            let offset = (seed as usize + chunk) % n;
            for i in 0..need {
                let w = (offset + i) % n;
                responses.push(enc.worker_compute_chunk(w, chunk, None));
            }
        }
        let decoded = code.decode_product(enc.layout(), &responses).unwrap();
        let expect = a.matmul(&b);
        prop_assert!(decoded.max_abs_diff(&expect) < 1e-6,
            "poly decode max diff {}", decoded.max_abs_diff(&expect));
    }

    /// Encoding is linear: encode(A)·x == encode rows of A·x under the
    /// same generator combination. Verified via parity workers directly.
    #[test]
    fn mds_parity_partitions_are_generator_combinations(
        params in mds_params(),
        seed in any::<u64>(),
    ) {
        prop_assume!(params.n > params.k);
        let a = Matrix::from_fn(params.k * 4, 3, |r, c| ((r * 3 + c) as f64) + (seed % 7) as f64);
        let code = MdsCode::new(params).unwrap();
        let enc = code.encode(&a, 2).unwrap();
        let prow = enc.layout().partition_rows();
        for w in params.k..params.n {
            let g = code.generator_row(w);
            let mut expect = Matrix::zeros(prow, 3);
            for (j, &gj) in g.iter().enumerate() {
                expect.axpy(gj, &a.row_block(j * prow, (j + 1) * prow));
            }
            prop_assert!(enc.partition(w).max_abs_diff(&expect) < 1e-9);
        }
    }

    /// The slice-fed decode over one arena of whole-run blocks is bit
    /// for bit the block decode over per-chunk blocks, for any code,
    /// chunking, member count and per-chunk coverage.
    #[test]
    fn slice_decode_matches_block_decode_bitwise(
        params in mds_params(),
        chunks in 1usize..=5,
        members in 1usize..=6,
        cols in 1usize..=9,
        seed in any::<u64>(),
    ) {
        let cover_strategy = coverage(params.n, params.k, chunks);
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let cover = cover_strategy.new_tree(&mut runner).unwrap().current();

        let rows = params.k * chunks * 3 + (seed as usize % 7);
        let a = Matrix::from_fn(rows, cols, |r, c| {
            (((r * 5 + c * 11) as f64) * 0.37 + (seed % 13) as f64).sin()
        });
        let xs = MultiVector::from_fn(members, cols, |m, i| {
            ((m * 7 + i) as f64 * 0.61 - (seed % 5) as f64).cos()
        });
        let code = MdsCode::new(params).unwrap();
        let enc = code.encode(&a, chunks).unwrap();
        let layout = enc.layout();
        let width = layout.rows_per_chunk() * members;

        // Reference: one owned block per (worker, chunk).
        let blocks: Vec<MultiChunkResult> = cover
            .iter()
            .enumerate()
            .flat_map(|(chunk, ws)| {
                ws.iter().map(move |&w| (w, chunk)).collect::<Vec<_>>()
            })
            .map(|(w, chunk)| enc.worker_compute_chunk_multi(w, chunk, &xs))
            .collect();
        let expect = code.decode_matvec_multi(layout, &blocks).unwrap();

        // Slice-fed: every worker's whole partition in one kernel call,
        // appended to one arena, decoded from views of it.
        let mut arena = Vec::new();
        for w in 0..params.n {
            enc.worker_compute_chunk_run_into(w, 0..chunks, &xs, &mut arena);
        }
        let per_worker = chunks * width;
        let lists: Vec<Vec<(usize, &[f64])>> = cover
            .iter()
            .enumerate()
            .map(|(chunk, ws)| {
                ws.iter()
                    .map(|&w| {
                        let off = w * per_worker + chunk * width;
                        (w, &arena[off..off + width])
                    })
                    .collect()
            })
            .collect();
        let got = code.decode_matvec_slices(layout, lists, members).unwrap();
        prop_assert_eq!(got.len(), expect.len());
        for (g, e) in got.iter().zip(&expect) {
            let gb: Vec<u64> = g.as_slice().iter().map(|v| v.to_bits()).collect();
            let eb: Vec<u64> = e.as_slice().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(gb, eb);
        }
    }

    /// Duplicate (worker, chunk) submissions are rejected.
    #[test]
    fn duplicate_responses_rejected(seed in any::<u64>()) {
        let params = MdsParams { n: 4, k: 2 };
        let a = Matrix::from_fn(8, 2, |r, c| (r + c) as f64 + (seed % 3) as f64);
        let x = Vector::filled(2, 1.0);
        let code = MdsCode::new(params).unwrap();
        let enc = code.encode(&a, 2).unwrap();
        let r0 = enc.worker_compute_chunk(0, 0, &x);
        let responses = vec![r0.clone(), r0, enc.worker_compute_chunk(1, 0, &x)];
        prop_assert!(code.decode_matvec(enc.layout(), &responses).is_err());
    }
}

/// Non-proptest sanity check: decoding is deterministic across calls.
#[test]
fn decode_is_deterministic() {
    let params = MdsParams { n: 6, k: 4 };
    let a = Matrix::from_fn(32, 5, |r, c| ((r * c) as f64).sqrt());
    let x = Vector::from_fn(5, |i| i as f64 + 0.5);
    let code = MdsCode::new(params).unwrap();
    let enc = code.encode(&a, 2).unwrap();
    let responses: Vec<WorkerChunkResult> = (1..5)
        .flat_map(|w| enc.worker_compute_chunks(w, &[0, 1], &x))
        .collect();
    let y1 = code.decode_matvec(enc.layout(), &responses).unwrap();
    let y2 = code.decode_matvec(enc.layout(), &responses).unwrap();
    assert_eq!(y1, y2);
}
