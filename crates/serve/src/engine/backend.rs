//! Pluggable execution backends: what a scheduled task *does*.
//!
//! The event loop decides *when* work happens; a backend decides
//! *whether anything is actually computed*:
//!
//! * [`BackendKind::Sim`] — nothing is. Jobs carry no data; the engine
//!   is the pure timing simulator it always was (bit-identical event
//!   streams and reports).
//! * [`BackendKind::SimVerified`] — every job carries a real model
//!   matrix, deterministically derived from its
//!   [`JobSpec::matrix_id`], encoded once through a shared
//!   [`EncodeCache`]. When the timing model completes an iteration, the
//!   master recomputes exactly the chunk responses of the workers the
//!   timing model credited into one reused round arena, decodes views
//!   of it with [`s2c2_coding`], and checks the result against a
//!   sequential `A·x` reference. No OS threads — the numerics oracle.
//! * [`BackendKind::Threaded`] — same numerics, but the encoded chunk
//!   work is dispatched to real [`ThreadedCluster`] OS-thread workers
//!   when the iteration *starts*, cancelled cooperatively when the
//!   recovery ladder cancels (late stragglers, churn), re-dispatched on
//!   redo assignment, and collected/decoded at iteration completion.
//!   The schedule the engine decides is the schedule real threads
//!   execute, end to end.
//!
//! Both numeric backends draw per-iteration inputs `x` from the same
//! deterministic generator and decode from identical response sets, so
//! their decoded outputs agree bit for bit (proptested in
//! `tests/proptest_serve.rs`). Cache
//! hit/miss counters, verified-iteration counts, the worst observed
//! decode error, and per-job final outputs are merged into the
//! [`ServiceReport`] when the engine finishes.

use super::core::RunningIteration;
use crate::event::JobId;
use crate::metrics::ServiceReport;
use crate::workload::JobSpec;
use s2c2_cluster::threaded::{CancelToken, ThreadedCluster};
use s2c2_coding::cache::{CachedEncoding, EncodeCache, EncodeKey};
use s2c2_coding::chunks::{BlocksByChunk, ChunkLayout, MultiChunkResult};
use s2c2_coding::{CodingError, MdsCode};
use s2c2_linalg::{Matrix, MultiVector, Vector};
use s2c2_telemetry::PhaseTotals;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Relative decode-vs-reference divergence that fails a verified run.
/// Decoding solves at most `(n − k) × (n − k)` systems over a
/// well-conditioned random parity, so honest runs sit orders of
/// magnitude below this.
const VERIFY_TOL: f64 = 1e-6;

/// How long the threaded backend waits for worker replies at an
/// iteration boundary before declaring the executor wedged.
const COLLECT_TIMEOUT: Duration = Duration::from_secs(30);

/// Which execution backend the engine drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Timing-only simulation; no job data, nothing computed (default).
    Sim,
    /// Timing simulation plus master-side sequential numerics: encode
    /// via the shared cache, decode every completed iteration from the
    /// timing model's worker coverage, verify against `A·x`.
    SimVerified,
    /// Real OS-thread workers ([`ThreadedCluster`]): chunk tasks are
    /// dispatched at iteration start, cooperatively cancelled in step
    /// with the recovery ladder, and decoded/verified at completion.
    Threaded,
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BackendKind::Sim => "sim",
            BackendKind::SimVerified => "sim-verified",
            BackendKind::Threaded => "threaded",
        };
        f.write_str(s)
    }
}

/// The seam between the event loop and execution. Hook errors are
/// surfaced as [`super::ServeError::Backend`].
///
/// Iteration-level hooks receive the *member specs* of the residency's
/// batch (a solo job passes a one-element slice, `specs[0]` is always
/// the leader whose id keys the engine's events): a batch round
/// dispatches one stacked multi-RHS task per worker, whose contiguous
/// reply blocks feed the stacked decoder directly — every member is
/// decoded and verified from one pass, with no per-member
/// de-interleaving.
pub(crate) trait ExecutionBackend {
    /// A job was admitted: materialize/encode its model (via the cache)
    /// under the engine's effective code geometry. Called once per
    /// batch member; members after the first hit the encode cache by
    /// construction.
    fn on_admit(&mut self, spec: &JobSpec, k_eff: usize, c_eff: usize) -> Result<(), String>;
    /// An iteration was scheduled: dispatch its per-worker chunk tasks,
    /// stacked across every member's input vector.
    fn on_iteration_start(
        &mut self,
        specs: &[JobSpec],
        iter: &RunningIteration,
        iteration_index: usize,
    ) -> Result<(), String>;
    /// The recovery ladder reassigned `chunks` to finished worker
    /// `worker` (rung 3): dispatch the redo work.
    fn on_redo(
        &mut self,
        job: JobId,
        generation: u64,
        worker: usize,
        chunks: &[usize],
    ) -> Result<(), String>;
    /// The engine stopped caring about a worker's task (cancelled late
    /// straggler, churned worker, or superfluous work at completion).
    fn on_cancel(&mut self, job: JobId, generation: u64, worker: usize, redo: bool);
    /// The timing model completed an iteration: collect/compute the
    /// credited workers' stacked blocks and decode/verify every batch
    /// member from them in one stacked pass.
    fn on_iteration_complete(
        &mut self,
        specs: &[JobSpec],
        iter: &RunningIteration,
        iteration_index: usize,
        is_final: bool,
    ) -> Result<(), String>;
    /// A churn storm forced an iteration restart (rung 5).
    fn on_iteration_abandoned(&mut self, job: JobId, generation: u64);
    /// The job left the resident set (completed or failed).
    fn on_job_resolved(&mut self, job: JobId);
    /// The run is over (successfully or not): release executor
    /// resources and merge backend counters into the report.
    fn finish(&mut self, report: &mut ServiceReport);
}

/// Builds the configured backend for an `n`-worker pool.
pub(crate) fn make_backend(kind: BackendKind, n: usize) -> Box<dyn ExecutionBackend> {
    match kind {
        BackendKind::Sim => Box::new(SimBackend),
        BackendKind::SimVerified => Box::new(SimVerifiedBackend {
            core: NumericCore::default(),
            n,
            arena: Vec::new(),
        }),
        BackendKind::Threaded => Box::new(ThreadedBackend::spawn(n)),
    }
}

// ---- deterministic job data ---------------------------------------------

fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in `[-1, 1)` from a hash (reproducible across backends).
fn unit(seed: u64) -> f64 {
    (splitmix64(seed) >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

/// The model matrix a job's `matrix_id` denotes. Jobs sharing an id and
/// shape get bit-identical matrices — the recurring-model regime the
/// encode cache amortizes.
pub(crate) fn model_matrix(matrix_id: u64, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        unit(matrix_id ^ ((r as u64) << 24) ^ c as u64)
    })
}

/// The input vector of one job iteration (same in every backend).
pub(crate) fn iteration_input(job: JobId, iteration: usize, cols: usize) -> Vector {
    Vector::from_fn(cols, |i| {
        unit(
            job.wrapping_mul(0xA24B_AED4_963E_E407)
                ^ (iteration as u64).wrapping_mul(0x9E37_79B9)
                ^ i as u64,
        )
    })
}

// ---- Sim ----------------------------------------------------------------

/// Timing-only backend: every hook is a no-op.
struct SimBackend;

impl ExecutionBackend for SimBackend {
    fn on_admit(&mut self, _: &JobSpec, _: usize, _: usize) -> Result<(), String> {
        Ok(())
    }
    fn on_iteration_start(
        &mut self,
        _: &[JobSpec],
        _: &RunningIteration,
        _: usize,
    ) -> Result<(), String> {
        Ok(())
    }
    fn on_redo(&mut self, _: JobId, _: u64, _: usize, _: &[usize]) -> Result<(), String> {
        Ok(())
    }
    fn on_cancel(&mut self, _: JobId, _: u64, _: usize, _: bool) {}
    fn on_iteration_complete(
        &mut self,
        _: &[JobSpec],
        _: &RunningIteration,
        _: usize,
        _: bool,
    ) -> Result<(), String> {
        Ok(())
    }
    fn on_iteration_abandoned(&mut self, _: JobId, _: u64) {}
    fn on_job_resolved(&mut self, _: JobId) {}
    fn finish(&mut self, _: &mut ServiceReport) {}
}

// ---- shared numeric state -----------------------------------------------

/// Per-job numeric state shared by the verified backends.
struct NumericJob {
    enc: Arc<CachedEncoding>,
    a: Arc<Matrix>,
    /// Per in-flight round, keyed by iteration index: the deterministic
    /// input and its sequential reference (`A·x`). Pipelined serving
    /// holds up to `depth` live entries at once; the barrier engine
    /// exactly one. Entries are consumed at verification (and dropped
    /// wholesale when the job resolves).
    rounds: BTreeMap<usize, (Arc<Vector>, Vector)>,
}

/// Upper bound on pooled stacked-input buffers (see
/// [`NumericCore::recycle`]).
const XS_POOL_CAP: usize = 16;

/// Encode/decode/verify plumbing shared by [`SimVerifiedBackend`] and
/// [`ThreadedBackend`].
#[derive(Default)]
struct NumericCore {
    cache: EncodeCache,
    jobs: BTreeMap<JobId, NumericJob>,
    /// Reference matrices by identity — resident jobs sharing a
    /// `matrix_id` alias one allocation instead of each materializing
    /// its own copy. A `BTreeMap` on principle: nothing report-visible
    /// may sit behind hashed iteration order.
    models: BTreeMap<(u64, usize, usize), Arc<Matrix>>,
    verified: usize,
    max_error: f64,
    outputs: Vec<(JobId, Vec<f64>)>,
    /// Real wall time this backend spent per pipeline phase (encode is
    /// read off the cache at merge time; compute is filled by the
    /// concrete backend that owns the compute loop).
    phase_wall: PhaseTotals,
    /// Stacked multi-RHS input buffers returned by completed rounds,
    /// reused (fully overwritten) by the next round of identical shape
    /// instead of reallocating `members × cols` doubles per round.
    xs_pool: Vec<MultiVector>,
    /// How many rounds drew their input buffer from the pool.
    xs_reuses: u64,
}

impl NumericCore {
    fn admit(
        &mut self,
        spec: &JobSpec,
        n: usize,
        k_eff: usize,
        c_eff: usize,
    ) -> Result<(), String> {
        let key = EncodeKey {
            matrix_id: spec.matrix_id,
            rows: spec.rows,
            cols: spec.cols,
            n,
            k: k_eff,
            chunks_per_partition: c_eff,
        };
        let (matrix_id, rows, cols) = (spec.matrix_id, spec.rows, spec.cols);
        let enc = self
            .cache
            .get_or_encode(key, || model_matrix(matrix_id, rows, cols))
            .map_err(|e| format!("job {} encode failed: {e}", spec.id))?;
        // The reference matrix lives beside (not inside) the encode
        // cache — the cache stays exactly what workers need — but is
        // likewise shared by identity, so recurring jobs neither
        // rebuild nor duplicate it.
        let a = Arc::clone(
            self.models
                .entry((matrix_id, rows, cols))
                .or_insert_with(|| Arc::new(model_matrix(matrix_id, rows, cols))),
        );
        self.jobs.insert(
            spec.id,
            NumericJob {
                enc,
                a,
                rounds: BTreeMap::new(),
            },
        );
        Ok(())
    }

    /// Materializes the round's deterministic input and its reference.
    /// Idempotent per round index: a rung-5 restart re-dispatches the
    /// same index, and the input is a pure function of `(job, index)`,
    /// so the existing entry is reused.
    fn begin_iteration(&mut self, spec: &JobSpec, iteration_index: usize) -> Result<(), String> {
        let job = self
            .jobs
            .get_mut(&spec.id)
            .ok_or_else(|| format!("job {} iterated before admission", spec.id))?;
        if !job.rounds.contains_key(&iteration_index) {
            let x = Arc::new(iteration_input(spec.id, iteration_index, spec.cols));
            let y_ref = job.a.matvec(&x);
            job.rounds.insert(iteration_index, (x, y_ref));
        }
        Ok(())
    }

    /// Returns a round's stacked input buffer to the pool once nothing
    /// else holds it (threaded workers may still own clones briefly; a
    /// contended buffer is simply dropped).
    fn recycle(&mut self, xs: Arc<MultiVector>) {
        if self.xs_pool.len() < XS_POOL_CAP {
            if let Ok(v) = Arc::try_unwrap(xs) {
                self.xs_pool.push(v);
            }
        }
    }

    /// The shared encoding and the stacked member inputs of one batch
    /// round, as a single contiguous multi-RHS buffer (one member for a
    /// solo job). Members share the encoding by batch-key construction
    /// (same matrix identity, shape, and code geometry), so the
    /// leader's cached entry serves the whole group.
    fn batch_inputs(
        &mut self,
        specs: &[JobSpec],
        iteration_index: usize,
    ) -> Result<(Arc<CachedEncoding>, Arc<MultiVector>), String> {
        let leader = self
            .jobs
            .get(&specs[0].id)
            .ok_or_else(|| format!("job {} iterated before admission", specs[0].id))?;
        let enc = Arc::clone(&leader.enc);
        // Draw a shape-matching buffer from the pool when one is free;
        // every member slot is fully overwritten below, so reuse is
        // bit-invisible to the numerics.
        let (count, cols) = (specs.len(), specs[0].cols);
        let mut xs = match self
            .xs_pool
            .iter()
            .position(|v| v.count() == count && v.len() == cols)
        {
            Some(i) => {
                self.xs_reuses += 1;
                self.xs_pool.swap_remove(i)
            }
            None => MultiVector::zeros(count, cols),
        };
        for (m, s) in specs.iter().enumerate() {
            let job = self
                .jobs
                .get(&s.id)
                .ok_or_else(|| format!("job {} iterated before admission", s.id))?;
            let (x, _) = job
                .rounds
                .get(&iteration_index)
                .ok_or_else(|| format!("job {} round {iteration_index} input missing", s.id))?;
            xs.member_mut(m).copy_from_slice(x.as_slice());
        }
        Ok((enc, Arc::new(xs)))
    }

    /// Decodes the round through `decode` (all members in one pass, LU
    /// factored once per chunk), verifies every member against its
    /// sequential reference, and records the outcomes.
    fn verify_multi(
        &mut self,
        specs: &[JobSpec],
        iteration_index: usize,
        is_final: bool,
        decode: impl FnOnce(&MdsCode, &ChunkLayout) -> Result<Vec<Vector>, CodingError>,
    ) -> Result<(), String> {
        let leader = self
            .jobs
            .get(&specs[0].id)
            .ok_or_else(|| format!("job {} completed before admission", specs[0].id))?;
        let t0 = Instant::now();
        let outs = decode(&leader.enc.code, leader.enc.encoded.layout())
            .map_err(|e| format!("job {} decode failed: {e}", specs[0].id))?;
        self.phase_wall.decode += t0.elapsed().as_secs_f64();
        if outs.len() != specs.len() {
            return Err(format!(
                "batch led by job {} decoded {} members, expected {}",
                specs[0].id,
                outs.len(),
                specs.len()
            ));
        }
        let t0 = Instant::now();
        for (spec, y) in specs.iter().zip(outs) {
            // Consume (not just read) the round's reference: rounds
            // commit in order exactly once, and the entry must not
            // outlive its round under pipelining.
            let (_, y_ref) = self
                .jobs
                .get_mut(&spec.id)
                .ok_or_else(|| format!("job {} completed before admission", spec.id))?
                .rounds
                .remove(&iteration_index)
                .ok_or_else(|| {
                    format!("job {} round {iteration_index} reference missing", spec.id)
                })?;
            let scale = 1.0 + y_ref.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let err = y
                .as_slice()
                .iter()
                .zip(y_ref.as_slice())
                .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()))
                / scale;
            if err.is_nan() || err > VERIFY_TOL {
                return Err(format!(
                    "job {} decoded output diverged from the sequential reference \
                     (relative error {err:.3e} > {VERIFY_TOL:.0e})",
                    spec.id
                ));
            }
            self.verified += 1;
            self.max_error = self.max_error.max(err);
            if is_final {
                self.outputs.push((spec.id, y.into_vec()));
            }
        }
        self.phase_wall.verify += t0.elapsed().as_secs_f64();
        Ok(())
    }

    fn merge_into(&mut self, report: &mut ServiceReport) {
        report.encode_cache_hits = self.cache.hits();
        report.encode_cache_misses = self.cache.misses();
        report.verified_iterations = self.verified;
        report.max_decode_error = self.max_error;
        report.job_outputs = std::mem::take(&mut self.outputs);
        report.scratch_reuses += self.xs_reuses;
        self.phase_wall.encode = self.cache.encode_seconds();
        report.phase_wall.add(&self.phase_wall);
    }
}

// ---- SimVerified --------------------------------------------------------

/// Master-side numerics: recompute the credited coverage sequentially at
/// iteration completion. The dispatch/cancel hooks are no-ops — nothing
/// runs concurrently, so there is nothing to cancel.
struct SimVerifiedBackend {
    core: NumericCore,
    /// Pool size (code length of every job's encoding).
    n: usize,
    /// The round arena: every credited `(worker, chunk)` block of the
    /// round being decoded, back to back. Cleared (capacity kept) per
    /// round, so steady-state rounds allocate no block storage.
    arena: Vec<f64>,
}

impl ExecutionBackend for SimVerifiedBackend {
    fn on_admit(&mut self, spec: &JobSpec, k_eff: usize, c_eff: usize) -> Result<(), String> {
        self.core.admit(spec, self.n, k_eff, c_eff)
    }
    fn on_iteration_start(
        &mut self,
        specs: &[JobSpec],
        _iter: &RunningIteration,
        iteration_index: usize,
    ) -> Result<(), String> {
        for spec in specs {
            self.core.begin_iteration(spec, iteration_index)?;
        }
        Ok(())
    }
    fn on_redo(&mut self, _: JobId, _: u64, _: usize, _: &[usize]) -> Result<(), String> {
        Ok(())
    }
    fn on_cancel(&mut self, _: JobId, _: u64, _: usize, _: bool) {}
    fn on_iteration_complete(
        &mut self,
        specs: &[JobSpec],
        iter: &RunningIteration,
        iteration_index: usize,
        is_final: bool,
    ) -> Result<(), String> {
        // Only the blocks the decoder will consume are computed: the
        // decode rule keeps the lowest-k worker ids per chunk
        // (fastest-k with deterministic systematic preference), so the
        // credited coverage is truncated *before* computing.
        let (enc, xs) = self.core.batch_inputs(specs, iteration_index)?;
        let k = enc.encoded.params().k;
        let chunks = enc.encoded.layout().chunks_per_partition;
        let mut per_chunk: Vec<Vec<usize>> = vec![Vec::new(); chunks];
        for (w, _, _, held) in iter.done_results() {
            for &chunk in held {
                if let Some(ws) = per_chunk.get_mut(chunk) {
                    ws.push(w);
                }
            }
        }
        // Arena offset of each consumed (worker, chunk) block, worker
        // major: slots are marked consumed here (any value but
        // `NOT_CONSUMED`) and given their offsets as the arena fills.
        const NOT_CONSUMED: usize = usize::MAX;
        let mut offset = vec![NOT_CONSUMED; self.n * chunks];
        for (chunk, ws) in per_chunk.iter_mut().enumerate() {
            ws.sort_unstable();
            ws.truncate(k);
            for &w in ws.iter() {
                if let Some(slot) = offset.get_mut(w * chunks + chunk) {
                    *slot = 0;
                }
            }
        }
        // One kernel call per run of consecutive chunks a worker holds:
        // the run's rows are contiguous in the worker's partition, and
        // its blocks land back to back in the arena.
        let t0 = Instant::now();
        let width = enc.encoded.layout().rows_per_chunk() * xs.count();
        self.arena.clear();
        for (w, slots) in offset.chunks_exact_mut(chunks).enumerate() {
            let mut run: Option<usize> = None;
            for c in 0..=chunks {
                match (slots.get_mut(c), run) {
                    (Some(slot), _) if *slot != NOT_CONSUMED => {
                        let start = *run.get_or_insert(c);
                        *slot = self.arena.len() + (c - start) * width;
                    }
                    (_, Some(start)) => {
                        enc.encoded.worker_compute_chunk_run_into(
                            w,
                            start..c,
                            &xs,
                            &mut self.arena,
                        );
                        run = None;
                    }
                    _ => {}
                }
            }
        }
        self.core.phase_wall.compute += t0.elapsed().as_secs_f64();
        // Nothing else holds the buffer here (the compute loop borrowed
        // it), so it always returns to the pool.
        let members = xs.count();
        self.core.recycle(xs);
        let arena = &self.arena;
        let lists: BlocksByChunk<'_> = per_chunk
            .iter()
            .enumerate()
            .map(|(chunk, ws)| {
                // A block missing from the arena (a worker outside the
                // pool) goes in empty, so the decoder reports it.
                ws.iter()
                    .map(|&w| {
                        let block = offset
                            .get(w * chunks + chunk)
                            .and_then(|&off| arena.get(off..off + width))
                            .unwrap_or(&[]);
                        (w, block)
                    })
                    .collect()
            })
            .collect();
        self.core
            .verify_multi(specs, iteration_index, is_final, |code, layout| {
                code.decode_matvec_slices(layout, lists, members)
            })
    }
    fn on_iteration_abandoned(&mut self, _: JobId, _: u64) {}
    fn on_job_resolved(&mut self, job: JobId) {
        self.core.jobs.remove(&job);
    }
    fn finish(&mut self, report: &mut ServiceReport) {
        self.core.merge_into(report);
    }
}

// ---- Threaded -----------------------------------------------------------

/// A chunk task addressed to one OS-thread worker: the shared encoding,
/// the chunk set, and the round's stacked inputs — one contiguous
/// multi-RHS buffer shared (not copied) across every worker's task.
struct WorkerTask {
    enc: Arc<CachedEncoding>,
    chunks: Vec<usize>,
    xs: Arc<MultiVector>,
}

/// Bookkeeping for one dispatched task.
struct TaskInfo {
    id: u64,
    worker: usize,
    redo: bool,
    /// Stacked blocks dispatched (one per chunk) — a credited task's
    /// reply must carry exactly this many (fewer means the worker
    /// aborted mid-task).
    expected: usize,
    cancelled: bool,
}

/// Per-round dispatch state, keyed by `(leader job id, generation)` —
/// pipelined serving keeps several generations of one residency in
/// flight at once, so the generation is part of the key, not a field to
/// check.
struct ThreadedJobTasks {
    tasks: Vec<TaskInfo>,
    /// The round's stacked inputs, kept for redo dispatches.
    xs: Arc<MultiVector>,
}

/// Real-threads backend: one OS thread per pool worker, crossbeam
/// channels, cooperative cancellation.
struct ThreadedBackend {
    core: NumericCore,
    cluster: Option<ThreadedCluster<WorkerTask, Vec<MultiChunkResult>>>,
    n: usize,
    inflight: BTreeMap<(JobId, u64), ThreadedJobTasks>,
    /// Replies received but not yet consumed, by task id.
    arrived: BTreeMap<u64, Vec<MultiChunkResult>>,
    /// Task ids whose replies should be dropped on arrival (abandoned
    /// generations).
    discard: BTreeSet<u64>,
}

impl ThreadedBackend {
    fn spawn(n: usize) -> Self {
        let cluster = ThreadedCluster::spawn_cancellable(n, |worker| {
            move |task: WorkerTask, token: &CancelToken| {
                let mut results = Vec::with_capacity(task.chunks.len());
                for &chunk in &task.chunks {
                    // The cooperative-cancel point sits between chunks:
                    // a cancelled worker abandons the rest and replies
                    // with its partial progress, mirroring the paper's
                    // "ignore the slow nodes" semantics with real work.
                    if token.is_cancelled() {
                        break;
                    }
                    // One cache-blocked stacked pass over the chunk's
                    // rows; the reply block ships chunk-row-major,
                    // member-minor — exactly what the decoder consumes.
                    results.push(
                        task.enc
                            .encoded
                            .worker_compute_chunk_multi(worker, chunk, &task.xs),
                    );
                }
                results
            }
        });
        ThreadedBackend {
            core: NumericCore::default(),
            cluster: Some(cluster),
            n,
            inflight: BTreeMap::new(),
            arrived: BTreeMap::new(),
            discard: BTreeSet::new(),
        }
    }

    fn cluster(&mut self) -> &mut ThreadedCluster<WorkerTask, Vec<MultiChunkResult>> {
        // s2c2-allow: no-panic-paths -- backend invariant: `finish` is the only taker and the engine never dispatches after it
        self.cluster.as_mut().expect("cluster alive until finish")
    }

    fn dispatch(
        &mut self,
        job: JobId,
        worker: usize,
        chunks: Vec<usize>,
        xs: Arc<MultiVector>,
    ) -> Result<u64, String> {
        let state = self
            .core
            .jobs
            .get(&job)
            .ok_or_else(|| format!("job {job} dispatched before admission"))?;
        let task = WorkerTask {
            enc: Arc::clone(&state.enc),
            chunks,
            xs,
        };
        Ok(self.cluster().submit(worker, task))
    }
}

impl ExecutionBackend for ThreadedBackend {
    fn on_admit(&mut self, spec: &JobSpec, k_eff: usize, c_eff: usize) -> Result<(), String> {
        self.core.admit(spec, self.n, k_eff, c_eff)
    }

    fn on_iteration_start(
        &mut self,
        specs: &[JobSpec],
        iter: &RunningIteration,
        iteration_index: usize,
    ) -> Result<(), String> {
        for spec in specs {
            self.core.begin_iteration(spec, iteration_index)?;
        }
        let (_, xs) = self.core.batch_inputs(specs, iteration_index)?;
        let leader = specs[0].id;
        let mut tasks = Vec::new();
        for (w, chunks) in iter.assignment.chunks.iter().enumerate() {
            if chunks.is_empty() {
                continue;
            }
            let id = self.dispatch(leader, w, chunks.clone(), Arc::clone(&xs))?;
            tasks.push(TaskInfo {
                id,
                worker: w,
                redo: false,
                expected: chunks.len(),
                cancelled: false,
            });
        }
        let prev = self
            .inflight
            .insert((leader, iter.generation), ThreadedJobTasks { tasks, xs });
        debug_assert!(
            prev.is_none(),
            "a generation is dispatched at most once per round"
        );
        Ok(())
    }

    fn on_redo(
        &mut self,
        job: JobId,
        generation: u64,
        worker: usize,
        chunks: &[usize],
    ) -> Result<(), String> {
        let Some(state) = self.inflight.get(&(job, generation)) else {
            return Err(format!(
                "job {job} redo against a generation that is not running"
            ));
        };
        let xs = Arc::clone(&state.xs);
        let id = self.dispatch(job, worker, chunks.to_vec(), xs)?;
        self.inflight
            .get_mut(&(job, generation))
            // s2c2-allow: no-panic-paths -- backend invariant: the let-else guard above returned on a missing entry
            .expect("checked above")
            .tasks
            .push(TaskInfo {
                id,
                worker,
                redo: true,
                expected: chunks.len(),
                cancelled: false,
            });
        Ok(())
    }

    fn on_cancel(&mut self, job: JobId, generation: u64, worker: usize, redo: bool) {
        let Some(state) = self.inflight.get_mut(&(job, generation)) else {
            return;
        };
        let mut to_cancel = Vec::new();
        for t in &mut state.tasks {
            if t.worker == worker && t.redo == redo && !t.cancelled {
                t.cancelled = true;
                to_cancel.push(t.id);
            }
        }
        for id in to_cancel {
            self.cluster().cancel(id);
        }
    }

    fn on_iteration_complete(
        &mut self,
        specs: &[JobSpec],
        iter: &RunningIteration,
        iteration_index: usize,
        is_final: bool,
    ) -> Result<(), String> {
        let leader = specs[0].id;
        let Some(state) = self.inflight.remove(&(leader, iter.generation)) else {
            return Err(format!("job {leader} completed without dispatched tasks"));
        };
        // Which physical tasks the timing model credits: originals of
        // done workers, every *live* redo task of workers whose merged
        // redo set is done. Cancelled tasks are never credited — the
        // engine clears a cancelled redo's chunks from its record, so
        // timing and execution agree.
        let done: BTreeSet<(usize, bool)> = iter
            .done_results()
            .map(|(w, kind, _, _)| (w, kind.is_redo()))
            .collect();
        let needed: Vec<&TaskInfo> = state
            .tasks
            .iter()
            .filter(|t| !t.cancelled && done.contains(&(t.worker, t.redo)))
            .collect();
        // Everything else is work nobody waited for: cancel it now (the
        // engine already refunded its timing charge).
        for t in &state.tasks {
            let is_needed = needed.iter().any(|nt| nt.id == t.id);
            if !is_needed && !t.cancelled && !self.arrived.contains_key(&t.id) {
                self.cluster().cancel(t.id);
            }
        }
        // Collect every reply of this generation — needed ones to
        // decode from, the rest to keep the channel and maps tidy.
        // Cancelled tasks reply promptly with partial progress, so this
        // loop is bounded by real compute time, not virtual time.
        loop {
            let outstanding = state
                .tasks
                .iter()
                .any(|t| !self.arrived.contains_key(&t.id));
            if !outstanding {
                break;
            }
            let Some(reply) = self.cluster().recv_timeout(COLLECT_TIMEOUT) else {
                return Err(format!(
                    "job {leader}: threaded worker did not reply within {COLLECT_TIMEOUT:?}"
                ));
            };
            // Replies are absorbed raw, whichever job they belong to;
            // credit decisions happen against the owning job's task
            // bookkeeping, never against this one's.
            if self.discard.remove(&reply.task_id) {
                continue;
            }
            self.arrived.insert(reply.task_id, reply.result);
        }
        // Assemble the credited stacked blocks in deterministic
        // (submission) order and hand them to the stacked decoder as
        // they arrived — the blocks already carry every member, so
        // there is nothing to de-interleave. A credited task must have
        // run to completion: a short reply means the worker aborted
        // work the timing model counted on (timing/execution
        // divergence).
        let mut blocks: Vec<MultiChunkResult> = Vec::new();
        for t in &state.tasks {
            let output = self
                .arrived
                .remove(&t.id)
                // s2c2-allow: no-panic-paths -- backend invariant: the collect loop above blocks until every credited task has replied
                .expect("collected in the loop above");
            let is_needed = needed.iter().any(|nt| nt.id == t.id);
            if !is_needed {
                continue;
            }
            if output.len() != t.expected {
                return Err(format!(
                    "job {leader}: worker {} replied {} of {} credited chunk blocks \
                     (timing/execution divergence)",
                    t.worker,
                    output.len(),
                    t.expected
                ));
            }
            blocks.extend(output);
        }
        // Workers drop their task clones when they reply; with every
        // reply collected the buffer is usually uncontended and returns
        // to the pool.
        self.core.recycle(state.xs);
        self.core
            .verify_multi(specs, iteration_index, is_final, |code, layout| {
                code.decode_matvec_multi(layout, &blocks)
            })
    }

    fn on_iteration_abandoned(&mut self, job: JobId, generation: u64) {
        let Some(state) = self.inflight.remove(&(job, generation)) else {
            return;
        };
        for t in state.tasks {
            if let Some(_stale) = self.arrived.remove(&t.id) {
                continue;
            }
            if !t.cancelled {
                self.cluster().cancel(t.id);
            }
            // The reply is still in flight; drop it on arrival.
            self.discard.insert(t.id);
        }
    }

    fn on_job_resolved(&mut self, job: JobId) {
        // Any leftover generation state (failed jobs) is abandoned —
        // a pipelined residency can leave several in-flight rounds.
        let leftover: Vec<(JobId, u64)> = self
            .inflight
            .range((job, 0)..=(job, u64::MAX))
            .map(|(&key, _)| key)
            .collect();
        for (j, generation) in leftover {
            self.on_iteration_abandoned(j, generation);
        }
        self.core.jobs.remove(&job);
    }

    fn finish(&mut self, report: &mut ServiceReport) {
        // Cancel whatever is still in flight (stalled/failed runs), then
        // join the worker threads.
        let keys: Vec<(JobId, u64)> = self.inflight.keys().copied().collect();
        for (job, generation) in keys {
            self.on_iteration_abandoned(job, generation);
        }
        if let Some(cluster) = self.cluster.take() {
            // The pool's compute phase is what the threads really spent
            // inside task closures, summed across workers — measured, not
            // modeled, and naturally larger than the elapsed wall span
            // when workers overlap.
            self.core.phase_wall.compute += cluster.busy_seconds().iter().sum::<f64>();
            cluster.shutdown();
        }
        self.core.merge_into(report);
    }
}
