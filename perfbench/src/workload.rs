//! The benchmark's workloads and the seed → ready-engine set-up path.
//!
//! Every workload is an open loop in virtual time: Poisson arrivals at a
//! fixed rate, generated up front from the seed and handed to
//! [`ServiceEngine::run`] as one `(arrival, JobSpec)` stream. Nothing
//! the engine does changes when a job arrives.

use s2c2_cluster::ClusterSpec;
use s2c2_core::speed_tracker::PredictorSource;
use s2c2_predict::lstm::{train, LstmConfig, LstmPredictor};
use s2c2_serve::prelude::*;
use s2c2_trace::{CloudTraceConfig, TraceSet};
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Timing-only engine at n=256 on the volatile cloud preset.
    WideSim,
    /// Verified numerics at n=64 with churn, an LSTM predictor, a depth-4
    /// pipeline window and time-window batching.
    ChurnPipelined,
}

/// Tenants the job stream is spread over.
const TENANTS: u32 = 4;

/// Seed of the worker pools and of the predictor's training traces.
const POOL_SEED: u64 = 0x5EED;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::WideSim, Workload::ChurnPipelined];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::WideSim => "wide-sim",
            Workload::ChurnPipelined => "churn-pipelined",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Pool width.
    #[must_use]
    pub fn n(self) -> usize {
        match self {
            Workload::WideSim => 256,
            Workload::ChurnPipelined => 64,
        }
    }

    /// Jobs per generated stream.
    #[must_use]
    pub fn jobs(self) -> usize {
        match self {
            Workload::WideSim => 400,
            Workload::ChurnPipelined => 1200,
        }
    }

    /// Poisson arrival rate (jobs per virtual second).
    #[must_use]
    pub fn rate(self) -> f64 {
        match self {
            Workload::WideSim => 1.0,
            Workload::ChurnPipelined => 1.5,
        }
    }

    /// Whether the backend computes, decodes and verifies real numerics.
    #[must_use]
    pub fn numeric(self) -> bool {
        self.backend() != BackendKind::Sim
    }

    fn backend(self) -> BackendKind {
        match self {
            Workload::WideSim => BackendKind::Sim,
            Workload::ChurnPipelined => BackendKind::SimVerified,
        }
    }

    /// The generated `(arrival, JobSpec)` stream for `seed`: Poisson
    /// arrivals at [`Self::rate`], with the mix's presets dealt in
    /// blocks that each hold every preset in exact proportion (5 small,
    /// 3 medium, 1 large) in a seeded order, and tenants drawn
    /// uniformly. Exact proportions keep the work per stream, and so
    /// every metric, from swinging with how a seed happens to draw the
    /// mix.
    #[must_use]
    pub fn generate(self, seed: u64) -> Vec<(f64, JobSpec)> {
        let mut rng = SplitMix(seed);
        let mut block: Vec<JobPreset> = Vec::new();
        for (preset, weight) in JobPreset::standard_mix() {
            block.extend(std::iter::repeat(preset).take(weight as usize));
        }
        let mut presets: Vec<JobPreset> = Vec::with_capacity(self.jobs() + block.len());
        while presets.len() < self.jobs() {
            let mut deck = block.clone();
            for i in (1..deck.len()).rev() {
                deck.swap(i, rng.below(i + 1));
            }
            presets.extend(deck);
        }
        let mut t = 0.0;
        presets
            .into_iter()
            .take(self.jobs())
            .enumerate()
            .map(|(id, preset)| {
                t += -(1.0 - rng.unit()).ln() / self.rate();
                let tenant = rng.below(TENANTS as usize) as u32;
                (t, preset.instantiate(id as u64, tenant, self.n()))
            })
            .collect()
    }

    /// The worker pool. It is part of the system under test, not of its
    /// input, so it is the same for every seed: a pool redrawn per seed
    /// moves total capacity by a few percent, which queueing amplifies
    /// into tens of percent of virtual latency.
    #[must_use]
    pub fn cluster(self) -> ClusterSpec {
        ClusterSpec::builder(self.n())
            .compute_bound()
            .seed(POOL_SEED)
            .cloud(&CloudTraceConfig::volatile())
            .build()
    }

    /// The speed predictor: persistence everywhere except
    /// `churn-pipelined`, which trains the paper's 1→4→1 LSTM on a fixed
    /// set of volatile traces (like the pool, the same for every seed).
    #[must_use]
    pub fn predictor(self) -> PredictorSource {
        match self {
            Workload::WideSim => PredictorSource::LastValue,
            Workload::ChurnPipelined => PredictorSource::Prototype(Box::new(lstm())),
        }
    }

    /// The engine configuration around `predictor`.
    #[must_use]
    pub fn config(self, predictor: PredictorSource, telemetry: bool) -> ServeConfig {
        let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 { predictor });
        cfg.backend = self.backend();
        cfg.telemetry = telemetry;
        if self == Workload::ChurnPipelined {
            cfg.pipeline = PipelinePolicy::Depth(4);
            cfg.batch = BatchPolicy::TimeWindow {
                window: 0.05,
                max_batch: 4,
            };
            // Every preset codes at k = 0.75·n = 48; the floor keeps
            // more workers up than that, so churn slows rounds but never
            // leaves one undecodable.
            cfg.churn = Some(ChurnConfig {
                p_fail: 0.05,
                p_recover: 0.4,
                min_up: 52,
            });
            cfg.max_retries = 10;
        }
        cfg
    }
}

/// The paper's 1→4→1 LSTM, trained on a fixed set of volatile traces.
#[must_use]
pub fn lstm() -> LstmPredictor {
    let traces = TraceSet::generate(&CloudTraceConfig::volatile(), 20, 160, POOL_SEED);
    let series: Vec<&[f64]> = traces.traces().iter().map(|t| t.samples()).collect();
    let cfg = LstmConfig {
        epochs: 20,
        ..LstmConfig::default()
    };
    train(&cfg, &series).online()
}

/// SplitMix64: a small, fast, seedable generator.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..bound` (`bound` > 0).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.unit() * bound as f64) as usize
    }
}

/// Wall seconds of each set-up step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Job stream generation.
    pub workload_gen_s: f64,
    /// `ClusterSpec` build.
    pub cluster_s: f64,
    /// Predictor construction: LSTM training on `churn-pipelined`.
    pub predictor_s: f64,
    /// `ServiceEngine::new`.
    pub engine_new_s: f64,
}

impl SetupTimes {
    /// Seed to ready engine.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.workload_gen_s + self.cluster_s + self.predictor_s + self.engine_new_s
    }
}

/// A ready engine and the stream it will serve.
pub struct Setup {
    /// The generated `(arrival, JobSpec)` stream.
    pub workload: Vec<(f64, JobSpec)>,
    /// The engine, not yet run.
    pub engine: ServiceEngine,
    /// Wall time of each set-up step.
    pub times: SetupTimes,
}

/// Builds everything from the seed to a ready engine, timing each step.
///
/// # Errors
///
/// The engine's configuration error, as text.
pub fn setup(workload: Workload, seed: u64, telemetry: bool) -> Result<Setup, String> {
    let t = Instant::now();
    let jobs = workload.generate(seed);
    let workload_gen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let pool = workload.cluster();
    let cluster_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let predictor = workload.predictor();
    let predictor_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let engine = ServiceEngine::new(pool, workload.config(predictor, telemetry))
        .map_err(|e| format!("{}: {e}", workload.name()))?;
    let engine_new_s = t.elapsed().as_secs_f64();

    Ok(Setup {
        workload: jobs,
        engine,
        times: SetupTimes {
            workload_gen_s,
            cluster_s,
            predictor_s,
            engine_new_s,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::samples_beyond;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("wide"), None);
    }

    #[test]
    fn generated_workloads_are_deterministic_per_seed() {
        for w in Workload::ALL {
            assert_eq!(w.generate(7), w.generate(7), "{}", w.name());
            assert_ne!(w.generate(7), w.generate(8), "{}", w.name());
            assert_eq!(w.generate(7).len(), w.jobs());
        }
    }

    #[test]
    fn p95_rests_on_at_least_ten_jobs_per_workload() {
        for w in Workload::ALL {
            assert!(w.jobs() >= 200, "{}", w.name());
            assert!(samples_beyond(w.jobs(), 95.0) >= 10, "{}", w.name());
        }
    }

    #[test]
    fn churn_floor_exceeds_every_job_k() {
        let w = Workload::ChurnPipelined;
        let min_up = w
            .config(PredictorSource::LastValue, false)
            .churn
            .map_or(0, |c| c.min_up);
        assert!(w.generate(1).iter().all(|(_, s)| s.k < min_up));
    }
}
