//! Timed calls into single layers at a workload's geometry.
//!
//! Each probe reports the median wall time of one call over a few
//! batches, each batch long enough to dwarf the timer's resolution. The
//! caller multiplies a per-call time by the traced call count to
//! estimate the layer's share of a run.

use crate::stats::median;
use crate::workload::{lstm, SplitMix, Workload};
use s2c2_coding::chunks::MultiChunkResult;
use s2c2_coding::mds::{MdsCode, MdsParams};
use s2c2_core::speed_tracker::{PredictorSource, SpeedTracker};
use s2c2_linalg::{Matrix, MultiVector, Vector};
use s2c2_predict::SpeedPredictor;
use s2c2_serve::shared_alloc::allocate_for_resident;
use s2c2_serve::{EventKind, EventQueue, JobPreset};
use std::hint::black_box;
use std::time::Instant;

/// Minimum wall time of one timed batch.
const BATCH_S: f64 = 0.01;
/// Timed batches per probe; the median batch is reported.
const BATCHES: usize = 5;
/// Jobs resident at once under the default `ServeConfig`, each at
/// weight 1: the weight mass a dispatch splits capacity against.
const RESIDENT_WEIGHT: f64 = 4.0;

/// Per-call wall seconds of each probed layer at a workload's geometry.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    /// One `EventQueue` pop plus one push, at the workload's heap size.
    pub push_pop_s: f64,
    /// One `allocate_for_resident`.
    pub allocate_s: f64,
    /// One `SpeedTracker::observe` of a single worker's speed.
    pub observe_s: f64,
    /// One online step of the trained LSTM.
    pub lstm_step_s: f64,
    /// One `decode_matvec_multi` of a whole round.
    pub decode_s: f64,
    /// One `worker_compute_chunk_multi`.
    pub chunk_compute_s: f64,
    /// One reference `Matrix::matvec`.
    pub ref_matvec_s: f64,
}

/// Runs every probe that applies to `workload`.
///
/// # Errors
///
/// A coding-layer failure at the workload's geometry, as text.
pub fn run(workload: Workload, seed: u64) -> Result<Probes, String> {
    let n = workload.n();
    let k = workload.generate(seed).first().map_or(n, |(_, s)| s.k);
    let mut pool = workload.cluster();
    let speeds: Vec<f64> = pool.workers.iter_mut().map(|m| m.speed_at(0)).collect();
    let predictor = workload.predictor();
    let mix = JobPreset::standard_mix();
    let mut probes = Probes {
        push_pop_s: push_pop(workload.jobs() + n),
        allocate_s: mix_mean(
            &mix,
            mix.iter().map(|(p, _)| {
                per_call(|| {
                    black_box(allocate_for_resident(
                        black_box(&speeds),
                        k,
                        p.chunks_per_partition,
                        1.0,
                        RESIDENT_WEIGHT,
                    ));
                })
            }),
        ),
        observe_s: observe(&predictor, n),
        ..Probes::default()
    };
    let mut lstm = lstm();
    let mut rng = SplitMix(0x157);
    probes.lstm_step_s = per_call(|| {
        black_box(lstm.observe_and_predict(black_box(0.5 + rng.unit())));
    });
    // The numeric kernels are timed on every workload: on `wide-sim` the
    // engine never calls them, but their cost at n=256 is what a wider
    // numeric pool would pay.
    let mut per_preset = Vec::new();
    for (p, _) in &mix {
        per_preset.push(numeric(p, n, k)?);
    }
    probes.decode_s = mix_mean(&mix, per_preset.iter().map(|v| v[0]));
    probes.chunk_compute_s = mix_mean(&mix, per_preset.iter().map(|v| v[1]));
    probes.ref_matvec_s = mix_mean(&mix, per_preset.iter().map(|v| v[2]));
    Ok(probes)
}

/// Median per-call wall seconds of `f`.
fn per_call(mut f: impl FnMut()) -> f64 {
    let mut calls = 1usize;
    let batch = |f: &mut dyn FnMut(), calls: usize| {
        let t = Instant::now();
        for _ in 0..calls {
            f();
        }
        t.elapsed().as_secs_f64()
    };
    while batch(&mut f, calls) < BATCH_S && calls < 1 << 24 {
        calls *= 2;
    }
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| batch(&mut f, calls) / calls as f64)
        .collect();
    median(&samples)
}

/// The mix's mean of per-preset values (in mix order), weighted by each
/// preset's share of rounds: mix weight × iterations per job.
fn mix_mean(mix: &[(JobPreset, f64)], per_preset: impl IntoIterator<Item = f64>) -> f64 {
    let mut total = 0.0;
    let mut weight = 0.0;
    for ((p, w), v) in mix.iter().zip(per_preset) {
        let rounds = w * p.iterations as f64;
        total += rounds * v;
        weight += rounds;
    }
    if weight > 0.0 {
        total / weight
    } else {
        0.0
    }
}

/// One pop plus one push on a heap holding `depth` pending events.
fn push_pop(depth: usize) -> f64 {
    let mut queue = EventQueue::new();
    let mut rng = SplitMix(0x5EED);
    for i in 0..depth {
        queue.push(
            rng.unit() * 100.0,
            EventKind::TaskComplete {
                job: i as u64,
                worker: i,
                generation: 1,
                redo: false,
            },
        );
    }
    per_call(|| {
        if let Some((t, kind)) = queue.pop() {
            queue.push(t + rng.unit() * 10.0, black_box(kind));
        }
    })
}

/// One single-worker observation, as the engine feeds each completion.
fn observe(predictor: &PredictorSource, n: usize) -> f64 {
    let mut tracker = SpeedTracker::new(predictor, n);
    let mut obs: Vec<Option<f64>> = vec![None; n];
    let mut rng = SplitMix(0x0B5E);
    let mut w = 0;
    per_call(|| {
        obs[w] = Some(1e5 * (0.5 + rng.unit()));
        tracker.observe(black_box(&obs));
        obs[w] = None;
        w = (w + 1) % n;
    })
}

/// Per-call seconds of `decode_matvec_multi`, `worker_compute_chunk_multi`
/// and the reference `Matrix::matvec` for preset `p` coded at `(n, k)`.
///
/// The decode takes the last `k` workers' replies — every parity
/// partition in use, the most work one round's decode can take.
fn numeric(p: &JobPreset, n: usize, k: usize) -> Result<[f64; 3], String> {
    let mut rng = SplitMix(p.rows as u64);
    let a = Matrix::from_fn(p.rows, p.cols, |_, _| 2.0 * rng.unit() - 1.0);
    let x = Vector::from_fn(p.cols, |_| 2.0 * rng.unit() - 1.0);
    let xs = MultiVector::from_vectors(&[&x]);
    let code = MdsCode::new(MdsParams::new(n, k)).map_err(|e| e.to_string())?;
    let encoded = code
        .encode(&a, p.chunks_per_partition)
        .map_err(|e| e.to_string())?;
    let layout = encoded.layout();
    let chunks: Vec<usize> = (0..layout.chunks_per_partition).collect();
    let replies: Vec<MultiChunkResult> = (n - k..n)
        .flat_map(|w| encoded.worker_compute_chunks_multi(w, &chunks, &xs))
        .collect();
    code.decode_matvec_multi(layout, &replies)
        .map_err(|e| e.to_string())?;
    let decode = per_call(|| {
        let _ = black_box(code.decode_matvec_multi(layout, black_box(&replies)));
    });
    let mut i = 0usize;
    let compute = per_call(|| {
        black_box(encoded.worker_compute_chunk_multi(
            i % n,
            (i / n) % chunks.len(),
            black_box(&xs),
        ));
        i += 1;
    });
    let reference = per_call(|| {
        black_box(a.matvec(black_box(&x)));
    });
    Ok([decode, compute, reference])
}
