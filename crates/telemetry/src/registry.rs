//! Named metrics: streaming histograms and event-sampled time series.
//!
//! Run-level counts (jobs, timeouts, rung transitions, …) live in one
//! place only, the serve report; the registry holds what the report
//! does not: distributions and series over virtual time.
//!
//! Keys are `&'static str` and storage is `BTreeMap`, so iteration order
//! (and any rendering built on it) is deterministic. The registry is
//! engine-agnostic — the serve engine samples queue depth, utilization,
//! and resident-set size into it when telemetry is enabled.

use crate::histogram::StreamingHistogram;
use std::collections::BTreeMap;

/// A time-ordered series of `(virtual time, value)` samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Append a sample. Timestamps are expected nondecreasing (engine
    /// virtual time); this is not enforced.
    pub fn push(&mut self, time: f64, value: f64) {
        self.points.push((time, value));
    }

    /// The recorded `(time, value)` points.
    #[must_use]
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Last recorded value, if any.
    #[must_use]
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    /// Time-weighted mean of the series over `[first sample, horizon]`,
    /// treating each value as holding until the next sample. `None` when
    /// empty or the horizon precedes the first sample.
    #[must_use]
    pub fn time_weighted_mean(&self, horizon: f64) -> Option<f64> {
        let first = self.points.first()?.0;
        let span = horizon - first;
        if span <= 0.0 {
            return None;
        }
        let mut acc = 0.0;
        for (i, &(t, v)) in self.points.iter().enumerate() {
            let end = self
                .points
                .get(i + 1)
                .map_or(horizon, |&(t2, _)| t2.min(horizon));
            if end > t {
                acc += v * (end - t);
            }
        }
        Some(acc / span)
    }
}

/// Registry of named histograms and time series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    histograms: BTreeMap<&'static str, StreamingHistogram>,
    series: BTreeMap<&'static str, TimeSeries>,
}

impl MetricsRegistry {
    /// Record `value` into the (coarse) histogram `name`, creating it on
    /// first use.
    pub fn observe(&mut self, name: &'static str, value: f64) {
        self.histograms
            .entry(name)
            .or_insert_with(StreamingHistogram::coarse)
            .record(value);
    }

    /// The histogram `name`, if any samples were observed.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&StreamingHistogram> {
        self.histograms.get(name)
    }

    /// Append `(time, value)` to the series `name`, creating it on first
    /// use.
    pub fn sample(&mut self, name: &'static str, time: f64, value: f64) {
        self.series.entry(name).or_default().push(time, value);
    }

    /// The time series `name`, if any samples were taken.
    #[must_use]
    pub fn series(&self, name: &str) -> Option<&TimeSeries> {
        self.series.get(name)
    }
}

/// Resident-set size of the current process in bytes, read from
/// `/proc/self/statm` (Linux). Returns 0 where unavailable — callers
/// must treat it as best-effort and keep it out of deterministic
/// outputs.
#[must_use]
pub fn resident_set_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(statm) = std::fs::read_to_string("/proc/self/statm") {
            if let Some(pages) = statm.split_whitespace().nth(1) {
                if let Ok(pages) = pages.parse::<u64>() {
                    return pages * 4096;
                }
            }
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histograms_accumulate_observations() {
        let mut m = MetricsRegistry::default();
        for x in [1.0, 2.0, 3.0] {
            m.observe("latency", x);
        }
        let h = m.histogram("latency").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.mean(), Some(2.0));
    }

    #[test]
    fn series_record_in_order_and_average() {
        let mut m = MetricsRegistry::default();
        m.sample("depth", 0.0, 2.0);
        m.sample("depth", 1.0, 4.0);
        let s = m.series("depth").unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.last(), Some(4.0));
        // 2.0 holds for 1s, 4.0 for 1s over [0, 2].
        assert_eq!(s.time_weighted_mean(2.0), Some(3.0));
        assert_eq!(TimeSeries::default().time_weighted_mean(1.0), None);
    }

    #[test]
    fn resident_set_is_nonzero_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(resident_set_bytes() > 0);
        }
    }
}
