//! Per-iteration speed estimation plumbing (§6.2).
//!
//! The master records each worker's response time, converts it to an
//! observed speed (`rows / time`), feeds the per-worker predictor bank,
//! and hands the resulting forecasts to the allocator for the next
//! iteration. The tracker also implements the two degenerate "predictors"
//! the paper's figures need: *uniform* (basic S²C²'s equal-speed
//! assumption) and *oracle* ("knowing the exact speeds" in Figs 6/7).

use s2c2_cluster::ClusterSim;
use s2c2_predict::predictor::{LastValue, UniformSpeed};
use s2c2_predict::{BoxedPredictor, PredictorBank};

/// Where next-iteration speed estimates come from.
pub enum PredictorSource {
    /// All workers assumed equal speed forever (basic S²C² input).
    Uniform,
    /// Naive persistence: next speed = last observed speed.
    LastValue,
    /// Cheating oracle: reads the simulator's actual speeds for the
    /// *current* iteration. Implements "S²C² knowing the exact speeds".
    Oracle,
    /// Any trained predictor (LSTM, ARIMA) cloned per worker.
    Prototype(BoxedPredictor),
}

impl Clone for PredictorSource {
    fn clone(&self) -> Self {
        match self {
            PredictorSource::Uniform => PredictorSource::Uniform,
            PredictorSource::LastValue => PredictorSource::LastValue,
            PredictorSource::Oracle => PredictorSource::Oracle,
            PredictorSource::Prototype(p) => PredictorSource::Prototype(p.clone()),
        }
    }
}

impl std::fmt::Debug for PredictorSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            PredictorSource::Uniform => "Uniform",
            PredictorSource::LastValue => "LastValue",
            PredictorSource::Oracle => "Oracle",
            PredictorSource::Prototype(_) => "Prototype",
        };
        write!(f, "PredictorSource::{name}")
    }
}

/// Tracks observed speeds and produces next-iteration predictions.
///
/// Observed speeds arrive in absolute units (rows per second); trained
/// predictors (LSTM/ARIMA) were fit on *relative* trace speeds in
/// `(0, ~1.1]`, so the tracker rescales observations by the running
/// cluster-wide maximum before feeding them — the same normalization the
/// paper applies to its measured traces (§3.2). Predictions are therefore
/// relative, which is all the allocator consumes.
pub struct SpeedTracker {
    oracle: bool,
    bank: Option<PredictorBank>,
    predictions: Vec<f64>,
    obs_scale: f64,
}

impl SpeedTracker {
    /// Builds the tracker for `n` workers.
    #[must_use]
    pub fn new(source: &PredictorSource, n: usize) -> Self {
        let (oracle, bank) = match source {
            PredictorSource::Uniform => (
                false,
                Some(PredictorBank::from_prototype(&UniformSpeed::new(1.0), n)),
            ),
            PredictorSource::LastValue => (
                false,
                Some(PredictorBank::from_prototype(&LastValue::new(1.0), n)),
            ),
            PredictorSource::Oracle => (true, None),
            PredictorSource::Prototype(p) => (
                false,
                Some(PredictorBank::from_predictors(
                    (0..n).map(|_| p.clone()).collect(),
                )),
            ),
        };
        SpeedTracker {
            oracle,
            bank,
            predictions: vec![1.0; n],
            obs_scale: 0.0,
        }
    }

    /// Number of workers tracked.
    #[must_use]
    pub fn n(&self) -> usize {
        self.predictions.len()
    }

    /// Speed estimates for the iteration the simulator currently has in
    /// flight. Honest predictors return forecasts computed from *previous*
    /// observations; the oracle reads the simulator's actual speeds.
    #[must_use]
    pub fn predictions(&self, sim: &ClusterSim) -> Vec<f64> {
        self.predictions_from(sim.speeds())
    }

    /// Speed estimates given the engine's current *actual* speeds.
    ///
    /// This is the engine-agnostic form of [`Self::predictions`]: callers
    /// that do not drive a [`ClusterSim`] (the `s2c2-serve` event engine
    /// schedules many jobs over one pool and tracks speeds itself) pass
    /// whatever ground-truth speed table they hold. Honest predictors
    /// ignore `actual` entirely; only the oracle reads it.
    #[must_use]
    pub fn predictions_from(&self, actual: &[f64]) -> Vec<f64> {
        if self.oracle {
            actual.to_vec()
        } else {
            self.predictions.clone()
        }
    }

    /// Feeds observed speeds (None = worker idle, nothing measured) and
    /// refreshes the forecasts used next iteration. A non-finite or
    /// non-positive observation is no measurement at all and is treated
    /// as `None`: a single `inf` would otherwise become the scale and
    /// turn every prediction to 0 or NaN.
    pub fn observe(&mut self, observed: &[Option<f64>]) {
        if let Some(bank) = &mut self.bank {
            let valid = |v: f64| v.is_finite() && v > 0.0;
            let mut dropped = false;
            for &v in observed.iter().flatten() {
                if valid(v) {
                    self.obs_scale = self.obs_scale.max(v);
                } else {
                    dropped = true;
                }
            }
            let scale = if self.obs_scale > 0.0 {
                self.obs_scale
            } else {
                1.0
            };
            let mut scaled: Vec<Option<f64>> =
                observed.iter().map(|o| o.map(|v| v / scale)).collect();
            // Observations are almost always valid, so dropping the bad
            // ones is a second pass taken only when there are any.
            if dropped {
                for (s, o) in scaled.iter_mut().zip(observed) {
                    if o.is_some_and(|v| !valid(v)) {
                        *s = None;
                    }
                }
            }
            self.predictions = bank.observe_and_predict_masked(&scaled);
        }
    }
}

impl std::fmt::Debug for SpeedTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpeedTracker")
            .field("oracle", &self.oracle)
            .field("workers", &self.predictions.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2c2_cluster::ClusterSpec;

    #[test]
    fn uniform_ignores_observations() {
        let mut t = SpeedTracker::new(&PredictorSource::Uniform, 3);
        t.observe(&[Some(0.1), Some(5.0), None]);
        let spec = ClusterSpec::builder(3).build();
        let mut sim = ClusterSim::new(spec);
        sim.begin_iteration(0);
        assert_eq!(t.predictions(&sim), vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn last_value_tracks_per_worker_relative() {
        let mut t = SpeedTracker::new(&PredictorSource::LastValue, 3);
        // Observations are renormalized by the running maximum (0.5), so
        // predictions come out relative: {1.0, cold, 0.4}.
        t.observe(&[Some(0.5), None, Some(0.2)]);
        let spec = ClusterSpec::builder(3).build();
        let mut sim = ClusterSim::new(spec);
        sim.begin_iteration(0);
        let p = t.predictions(&sim);
        assert!((p[0] - 1.0).abs() < 1e-12);
        assert!(
            (p[1] - 1.0).abs() < 1e-12,
            "idle worker keeps cold prediction"
        );
        assert!((p[2] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn scale_is_monotone_across_rounds() {
        // A later, faster observation re-anchors the scale; relative
        // ordering of predictions is preserved.
        let mut t = SpeedTracker::new(&PredictorSource::LastValue, 2);
        t.observe(&[Some(100.0), Some(50.0)]);
        t.observe(&[Some(400.0), Some(100.0)]);
        let spec = ClusterSpec::builder(2).build();
        let mut sim = ClusterSim::new(spec);
        sim.begin_iteration(0);
        let p = t.predictions(&sim);
        assert!((p[0] - 1.0).abs() < 1e-12);
        assert!((p[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn non_finite_and_non_positive_observations_are_dropped() {
        // One `inf` must not become the scale: worker 0 keeps its cold
        // prediction and worker 1 is measured against its own 0.5.
        let mut t = SpeedTracker::new(&PredictorSource::LastValue, 2);
        t.observe(&[Some(f64::INFINITY), Some(0.5)]);
        let p = t.predictions_from(&[1.0; 2]);
        assert!(p.iter().all(|v| v.is_finite()), "{p:?}");
        assert!((p[1] - 1.0).abs() < 1e-12, "{p:?}");
        t.observe(&[Some(f64::NAN), Some(0.0)]);
        t.observe(&[Some(-1.0), None]);
        let p = t.predictions_from(&[1.0; 2]);
        assert!(p.iter().all(|v| v.is_finite() && *v > 0.0), "{p:?}");
    }

    #[test]
    fn oracle_reads_sim_speeds() {
        let spec = ClusterSpec::builder(4)
            .straggler_slowdown(4.0)
            .stragglers(&[2], 0.0)
            .build();
        let mut sim = ClusterSim::new(spec);
        sim.begin_iteration(0);
        let t = SpeedTracker::new(&PredictorSource::Oracle, 4);
        let p = t.predictions(&sim);
        assert_eq!(p.len(), 4);
        assert!((p[2] - 0.25).abs() < 1e-12, "oracle sees the straggler");
    }

    #[test]
    fn prototype_clones_are_independent_per_worker() {
        let proto: BoxedPredictor = Box::new(LastValue::new(1.0));
        let mut t = SpeedTracker::new(&PredictorSource::Prototype(proto), 2);
        t.observe(&[Some(0.9), Some(0.3)]);
        let spec = ClusterSpec::builder(2).build();
        let mut sim = ClusterSim::new(spec);
        sim.begin_iteration(0);
        let p = t.predictions(&sim);
        assert!((p[0] - 1.0).abs() < 1e-12, "normalized by the 0.9 max");
        assert!((p[1] - 0.3 / 0.9).abs() < 1e-12);
    }
}
