//! Per-kernel regression benches for the batch-first kernel layer.
//!
//! Five comparisons, each pairing the production kernel with the obvious
//! reference it replaced:
//!
//! * **blocked vs naive** — the cache-blocked/unrolled single-RHS `matvec`
//!   against a plain serial dot-product loop.
//! * **four-row vs per-row** — the same single-RHS `matvec`, which
//!   advances four rows per step, against one `dot_slices` call per row
//!   (the kernel it replaced; bit-identical results).
//! * **multi-RHS vs m× single** — one `matvec_multi` over a contiguous
//!   [`MultiVector`] against `m` independent `matvec` calls (the old
//!   per-member serve path).
//! * **fused vs two-pass** — `encode_matvec_multi` (parity products as
//!   generator-weighted combinations of systematic products) against
//!   materializing the parity partitions and multiplying every one.
//! * **GEMM-order vs scalar RHS decode** — `decode_matvec_slices` of one
//!   `(64, 48)` round against a bench-local copy of the decoder whose
//!   parity right-hand side was built one element at a time, re-deriving
//!   each known block's output offset per element (bit-identical
//!   results, checked before timing).
//!
//! Runs as a custom `harness = false` binary:
//!
//! * `cargo bench -p s2c2-bench --bench kernel_benches` — full sweep.
//! * `-- --save` — also rewrites `BENCH_KERNELS.json` at the repo root.
//! * `-- --quick` — CI smoke: the large matvec preset and the decode
//!   round, asserting neither kernel is slower than its reference.

use criterion::{black_box, Criterion};
use s2c2_coding::{ChunkLayout, EncodedMatrix, MdsCode, MdsParams};
use s2c2_linalg::vector::dot_slices;
use s2c2_linalg::{LuFactors, Matrix, MultiVector, Vector};

/// Problem sizes: name, rows, cols.
const PRESETS: &[(&str, usize, usize)] = &[
    ("small", 256, 64),
    ("medium", 1024, 256),
    ("large", 4096, 512),
];

/// RHS counts for the multi-RHS comparison.
const RHS_COUNTS: &[usize] = &[4, 8, 16];

fn test_matrix(rows: usize, cols: usize) -> Matrix {
    // Deterministic, mildly irregular values; benches must not depend on
    // an RNG so reruns time the identical computation.
    Matrix::from_fn(rows, cols, |r, c| {
        ((r * 31 + c * 7) % 17) as f64 * 0.25 - 2.0
    })
}

fn test_multivector(count: usize, len: usize) -> MultiVector {
    MultiVector::from_fn(count, len, |m, i| {
        ((m * 13 + i * 3) % 11) as f64 * 0.5 - 2.5
    })
}

/// Plain serial reference: one fold per row, no unrolling, no blocking.
fn naive_matvec(a: &Matrix, x: &Vector) -> Vector {
    Vector::from_fn(a.rows(), |r| {
        a.row(r)
            .iter()
            .zip(x.as_slice())
            .map(|(av, xv)| av * xv)
            .sum::<f64>()
    })
}

fn bench_blocked_vs_naive(c: &mut Criterion, presets: &[(&str, usize, usize)]) {
    for &(name, rows, cols) in presets {
        let a = test_matrix(rows, cols);
        let x = Vector::from_fn(cols, |i| (i % 7) as f64 - 3.0);
        c.bench_function(&format!("matvec_blocked/{name}"), |b| {
            b.iter(|| black_box(&a).matvec(black_box(&x)))
        });
        c.bench_function(&format!("matvec_naive/{name}"), |b| {
            b.iter(|| naive_matvec(black_box(&a), black_box(&x)))
        });
        c.bench_function(&format!("matvec_dot_slices/{name}"), |b| {
            b.iter(|| {
                let (a, x) = (black_box(&a), black_box(&x));
                Vector::from_fn(a.rows(), |r| dot_slices(a.row(r), x.as_slice()))
            })
        });
    }
}

/// Code geometry of the decode bench: the `churn-pipelined` pool coded
/// at `k = 0.75·n`, on the medium preset's shape.
const DECODE_N: usize = 64;
const DECODE_K: usize = 48;
const DECODE_SHAPE: (usize, usize, usize) = (1200, 48, 10);
/// Member counts of the decode bench: a solo round and a full batch.
const DECODE_MEMBERS: &[usize] = &[1, 4];

/// One encoded decode round: every worker's whole partition in one
/// buffer, and the per-chunk coverage the round decodes from.
struct DecodeRound {
    code: MdsCode,
    encoded: EncodedMatrix,
    members: usize,
    arena: Vec<f64>,
    /// `cover[chunk]` — the responding workers, every chunk missing
    /// eight systematic blocks that the parity workers make up.
    cover: Vec<Vec<usize>>,
}

impl DecodeRound {
    fn prepare(members: usize) -> Self {
        let (rows, cols, chunks) = DECODE_SHAPE;
        let code = MdsCode::new(MdsParams::new(DECODE_N, DECODE_K)).expect("valid params");
        let encoded = code
            .encode(&test_matrix(rows, cols), chunks)
            .expect("encode");
        let xs = test_multivector(members, cols);
        let mut arena = Vec::new();
        for w in 0..DECODE_N {
            encoded.worker_compute_chunk_run_into(w, 0..chunks, &xs, &mut arena);
        }
        let cover = (0..chunks)
            .map(|c| {
                (0..DECODE_N)
                    .filter(|&w| w >= DECODE_K || (w + c) % 6 != 0)
                    .collect()
            })
            .collect();
        DecodeRound {
            code,
            encoded,
            members,
            arena,
            cover,
        }
    }

    fn layout(&self) -> &ChunkLayout {
        self.encoded.layout()
    }

    /// The decoder's input: per chunk, `(worker, block)` views of the arena.
    fn lists(&self) -> Vec<Vec<(usize, &[f64])>> {
        let layout = self.layout();
        let width = layout.rows_per_chunk() * self.members;
        let per_worker = layout.chunks_per_partition * width;
        self.cover
            .iter()
            .enumerate()
            .map(|(chunk, ws)| {
                ws.iter()
                    .map(|&w| {
                        let off = w * per_worker + chunk * width;
                        (w, &self.arena[off..off + width])
                    })
                    .collect()
            })
            .collect()
    }
}

/// The reference decoder: the stacked decode with the parity right-hand
/// side built element by element — for every (parity row, column), a
/// scan over all `k` blocks that tests `have[j]` and re-derives block
/// `j`'s output offset. Returns the member-major padded output.
fn decode_scalar_rhs(
    parity: &Matrix,
    k: usize,
    layout: &ChunkLayout,
    per_chunk: Vec<Vec<(usize, &[f64])>>,
    members: usize,
) -> Vec<f64> {
    let rpc = layout.rows_per_chunk();
    let padded = layout.padded_rows;
    let width = rpc * members;
    let mut out = vec![0.0; members * padded];
    for (chunk, mut resps) in per_chunk.into_iter().enumerate() {
        assert!(resps.len() >= k, "chunk {chunk} under-covered");
        resps.sort_by_key(|r| r.0);
        resps.truncate(k);
        let mut have = vec![false; k];
        for &(w, vals) in &resps {
            if w < k {
                have[w] = true;
                let dst = layout.output_range(w, chunk);
                for (col, &v) in vals[..width].iter().enumerate() {
                    out[(col % members) * padded + dst.start + col / members] = v;
                }
            }
        }
        let missing: Vec<usize> = (0..k).filter(|j| !have[*j]).collect();
        if missing.is_empty() {
            continue;
        }
        let parity_resps: Vec<(usize, &[f64])> =
            resps.iter().copied().filter(|r| r.0 >= k).collect();
        let m = missing.len();
        let sys = Matrix::from_fn(m, m, |pi, mj| {
            parity.get(parity_resps[pi].0 - k, missing[mj])
        });
        let lu = LuFactors::factor(&sys).expect("nonsingular parity subsystem");
        let mut rhs = Vec::with_capacity(m * width);
        for &(pw, vals) in &parity_resps {
            let prow_idx = pw - k;
            for (col, &pv) in vals[..width].iter().enumerate() {
                let base = (col % members) * padded + col / members;
                let mut v = pv;
                for j in 0..k {
                    if have[j] {
                        let known = out[base + layout.output_range(j, chunk).start];
                        v -= parity.get(prow_idx, j) * known;
                    }
                }
                rhs.push(v);
            }
        }
        let solved = lu.solve_matrix(&Matrix::from_flat(m, width, rhs));
        for (mi, &j) in missing.iter().enumerate() {
            let dst = layout.output_range(j, chunk);
            for col in 0..width {
                out[(col % members) * padded + dst.start + col / members] = solved.get(mi, col);
            }
        }
    }
    out
}

fn bench_decode(c: &mut Criterion) {
    for &members in DECODE_MEMBERS {
        let round = DecodeRound::prepare(members);
        let layout = round.layout();
        let parity = Matrix::from_fn(DECODE_N - DECODE_K, DECODE_K, |p, j| {
            round.code.generator_row(DECODE_K + p)[j]
        });
        // The two decoders must agree bit for bit before either is timed.
        let fast = round
            .code
            .decode_matvec_slices(layout, round.lists(), members)
            .expect("decode");
        let slow = decode_scalar_rhs(&parity, DECODE_K, layout, round.lists(), members);
        for (m, y) in fast.iter().enumerate() {
            let padded = &slow[m * layout.padded_rows..][..layout.original_rows];
            assert!(
                y.as_slice()
                    .iter()
                    .zip(padded)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "decoders disagree on member {m}"
            );
        }
        c.bench_function(&format!("decode_gemm_rhs/n64k48/m{members}"), |b| {
            b.iter(|| {
                round
                    .code
                    .decode_matvec_slices(layout, black_box(round.lists()), members)
                    .expect("decode")
            })
        });
        c.bench_function(&format!("decode_scalar_rhs/n64k48/m{members}"), |b| {
            b.iter(|| {
                decode_scalar_rhs(&parity, DECODE_K, layout, black_box(round.lists()), members)
            })
        });
    }
}

fn bench_multi_vs_single(c: &mut Criterion) {
    for &(name, rows, cols) in PRESETS {
        let a = test_matrix(rows, cols);
        for &m in RHS_COUNTS {
            let xs = test_multivector(m, cols);
            let singles: Vec<Vector> = xs.to_vectors();
            c.bench_function(&format!("matvec_multi/{name}/m{m}"), |b| {
                b.iter(|| black_box(&a).matvec_multi(black_box(&xs)))
            });
            c.bench_function(&format!("matvec_single_x{m}/{name}/m{m}"), |b| {
                b.iter(|| {
                    singles
                        .iter()
                        .map(|x| black_box(&a).matvec(black_box(x)))
                        .collect::<Vec<_>>()
                })
            });
        }
    }
}

fn bench_fused_vs_two_pass(c: &mut Criterion) {
    let code = MdsCode::new(MdsParams::new(10, 8)).expect("valid params");
    let chunks = 4;
    let m = 8;
    for &(name, rows, cols) in &PRESETS[1..] {
        let a = test_matrix(rows, cols);
        let xs = test_multivector(m, cols);
        c.bench_function(&format!("encode_multiply_fused/{name}/m{m}"), |b| {
            b.iter(|| {
                code.encode_matvec_multi(black_box(&a), chunks, black_box(&xs))
                    .expect("encode-multiply")
            })
        });
        c.bench_function(&format!("encode_multiply_two_pass/{name}/m{m}"), |b| {
            b.iter(|| {
                let enc = code.encode(black_box(&a), chunks).expect("encode");
                let all: Vec<usize> = (0..chunks).collect();
                (0..code.params().n)
                    .map(|w| enc.worker_compute_chunks_multi(w, &all, black_box(&xs)))
                    .collect::<Vec<_>>()
            })
        });
    }
}

fn median_ns(c: &Criterion, label: &str) -> f64 {
    c.measurements()
        .iter()
        .find(|(l, _)| l == label)
        .map(|(_, d)| d.as_secs_f64() * 1e9)
        .unwrap_or_else(|| panic!("no measurement recorded for {label}"))
}

fn write_report(c: &Criterion, path: &std::path::Path) {
    let mut rows = String::new();
    let mut push_row = |name: &str, fast: &str, slow: &str, fast_ns: f64, slow_ns: f64| {
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"name\": \"{name}\", \"{fast}_ns\": {fast_ns:.1}, \"{slow}_ns\": {slow_ns:.1}, \"speedup\": {:.3}}}",
            slow_ns / fast_ns
        ));
    };
    for &(name, _, _) in PRESETS {
        let blocked = median_ns(c, &format!("matvec_blocked/{name}"));
        let naive = median_ns(c, &format!("matvec_naive/{name}"));
        push_row(
            &format!("matvec/{name}"),
            "blocked",
            "naive",
            blocked,
            naive,
        );
    }
    for &(name, _, _) in PRESETS {
        let rows4 = median_ns(c, &format!("matvec_blocked/{name}"));
        let per_row = median_ns(c, &format!("matvec_dot_slices/{name}"));
        push_row(
            &format!("matvec_single/{name}"),
            "rows4",
            "dot_slices",
            rows4,
            per_row,
        );
    }
    for &(name, _, _) in PRESETS {
        for &m in RHS_COUNTS {
            let multi = median_ns(c, &format!("matvec_multi/{name}/m{m}"));
            let single = median_ns(c, &format!("matvec_single_x{m}/{name}/m{m}"));
            push_row(
                &format!("matvec_multi/{name}/m{m}"),
                "multi",
                "per_member",
                multi,
                single,
            );
        }
    }
    for &(name, _, _) in &PRESETS[1..] {
        let fused = median_ns(c, &format!("encode_multiply_fused/{name}/m8"));
        let two_pass = median_ns(c, &format!("encode_multiply_two_pass/{name}/m8"));
        push_row(
            &format!("encode_multiply/{name}/m8"),
            "fused",
            "two_pass",
            fused,
            two_pass,
        );
    }
    for &m in DECODE_MEMBERS {
        let gemm = median_ns(c, &format!("decode_gemm_rhs/n64k48/m{m}"));
        let scalar = median_ns(c, &format!("decode_scalar_rhs/n64k48/m{m}"));
        push_row(
            &format!("decode/n64k48/m{m}"),
            "gemm_rhs",
            "scalar_rhs",
            gemm,
            scalar,
        );
    }
    let json = format!(
        "{{\n  \"note\": \"median ns/iter from `cargo bench -p s2c2-bench --bench kernel_benches -- --save` (release); speedup = reference / kernel\",\n  \"kernels\": [\n{rows}\n  ]\n}}\n"
    );
    std::fs::write(path, json).expect("write BENCH_KERNELS.json");
    println!("wrote {}", path.display());
}

fn main() {
    // `cargo test --benches` compile-checks bench binaries with `--test`.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let quick = std::env::args().any(|a| a == "--quick");
    let save = std::env::args().any(|a| a == "--save");

    let mut c = Criterion::default().sample_size(10);
    if quick {
        // CI smoke: the blocked kernel must not regress below the naive
        // reference on the large (memory-resident) preset. The margin
        // absorbs shared-runner timer noise without hiding a real
        // regression to an un-unrolled loop.
        let large = &PRESETS[2..];
        bench_blocked_vs_naive(&mut c, large);
        let blocked = median_ns(&c, "matvec_blocked/large");
        let naive = median_ns(&c, "matvec_naive/large");
        println!(
            "quick check: blocked {blocked:.0} ns vs naive {naive:.0} ns ({:.2}x)",
            naive / blocked
        );
        assert!(
            blocked <= naive * 1.10,
            "blocked matvec ({blocked:.0} ns) slower than naive reference ({naive:.0} ns)"
        );
        // Same margin for the decoder against its scalar-RHS reference.
        bench_decode(&mut c);
        for &m in DECODE_MEMBERS {
            let gemm = median_ns(&c, &format!("decode_gemm_rhs/n64k48/m{m}"));
            let scalar = median_ns(&c, &format!("decode_scalar_rhs/n64k48/m{m}"));
            println!(
                "quick check: decode m{m} {gemm:.0} ns vs scalar-RHS reference {scalar:.0} ns ({:.2}x)",
                scalar / gemm
            );
            assert!(
                gemm <= scalar * 1.10,
                "decode m{m} ({gemm:.0} ns) slower than the scalar-RHS reference ({scalar:.0} ns)"
            );
        }
        return;
    }

    bench_blocked_vs_naive(&mut c, PRESETS);
    bench_multi_vs_single(&mut c);
    bench_fused_vs_two_pass(&mut c);
    bench_decode(&mut c);

    if save {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_KERNELS.json");
        write_report(&c, &root);
    }
}
