//! Metric names, units, and the result line.
//!
//! The two tables below are the benchmark's contract: a run with
//! `--trace 0` prints exactly [`END_TO_END`], one with `--trace 1`
//! exactly [`PER_LAYER`], and `BENCHMARK.json` lists the same names and
//! units in the same order (checked by this module's tests).

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("jobs_per_wall_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("virtual_p50_s", "s"),
    ("virtual_p95_s", "s"),
    ("jobs_completed_share", "share"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.events", "count"),
    ("engine.ns_per_event", "ns"),
    ("engine.task_dispatches", "count"),
    ("engine.task_completions", "count"),
    ("engine.task_cancels", "count"),
    ("engine.cancel_share", "share"),
    ("engine.rounds", "count"),
    ("engine.timeouts", "count"),
    ("engine.rung1", "count"),
    ("engine.rung2", "count"),
    ("engine.rung3", "count"),
    ("engine.rung4", "count"),
    ("engine.rung5", "count"),
    ("engine.rebalances", "count"),
    ("engine.rounds_parked", "count"),
    ("engine.scratch_reuses", "count"),
    ("engine.residual_s", "s"),
    ("event.push_pop_ns", "ns"),
    ("event.est_s", "s"),
    ("speed_tracker.observe_us", "us"),
    ("speed_tracker.est_s", "s"),
    ("shared_alloc.allocate_us", "us"),
    ("shared_alloc.est_s", "s"),
    ("predict.lstm_step_us", "us"),
    ("setup.lstm_train_s", "s"),
    ("admission.queue_wait_p50_s", "s"),
    ("admission.queue_wait_p95_s", "s"),
    ("admission.max_queue_depth", "count"),
    ("admission.batches", "count"),
    ("admission.mean_batch", "jobs"),
    ("backend.encode_s", "s"),
    ("backend.compute_s", "s"),
    ("backend.decode_s", "s"),
    ("backend.verify_s", "s"),
    ("coding.decode_us", "us"),
    ("coding.chunk_compute_us", "us"),
    ("linalg.ref_matvec_us", "us"),
    ("linalg.est_s", "s"),
    ("coding.encode_hits", "count"),
    ("coding.encode_misses", "count"),
    ("coding.verified_rounds", "count"),
    ("coding.max_decode_error", "rel"),
    ("telemetry.overhead_s", "s"),
    ("telemetry.trace_events", "count"),
    ("telemetry.peak_rss_mb", "MiB"),
    ("setup.workload_gen_s", "s"),
    ("setup.cluster_s", "s"),
    ("setup.engine_new_s", "s"),
];

/// One run's result: what was attempted and the metric values by name.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Jobs submitted across every measured run.
    pub attempted: usize,
    /// Jobs that failed across every measured run.
    pub failed: usize,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl RunResult {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The result line: one JSON object carrying every metric of
    /// `table`, in table order.
    ///
    /// # Errors
    ///
    /// Names a metric of `table` that was never set or is not finite.
    pub fn json(&self, table: &[(&'static str, &'static str)]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// The result line of a run that failed before it could measure.
#[must_use]
pub fn failure_json(attempted: usize) -> String {
    format!(
        "{{\"correct\": false, \"attempted\": {}, \"failed\": 0, \"metrics\": {{}}}}",
        attempted.max(1)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one metric array of `BENCHMARK.json`,
    /// read with a scan that relies only on each entry being a flat
    /// object with `"name"` and `"unit"` string fields.
    fn manifest_metrics(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        let start = text
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let body = &text[start..];
        let body = &body[..body.find(']').expect("metric array is closed")];
        let field = |obj: &str, f: &str| -> String {
            let at = obj.find(&format!("\"{f}\"")).expect("field present");
            let rest = &obj[at + f.len() + 2..];
            let open = rest.find('"').expect("string value") + 1;
            let close = rest[open..].find('"').expect("string closed") + open;
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_names_equal_the_manifest() {
        assert_eq!(manifest_metrics("end_to_end"), owned(END_TO_END));
        assert_eq!(manifest_metrics("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let count = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), count, "duplicate metric name");
        for name in all {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
    }

    #[test]
    fn json_carries_every_metric_in_order() {
        let mut r = RunResult {
            correct: true,
            attempted: 3,
            ..RunResult::default()
        };
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            r.set(name, i as f64 + 0.25);
        }
        let line = r.json(END_TO_END).expect("all set");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"jobs_per_wall_s\": {\"value\": 0.25, \"unit\": \"1/s\"}"));
        r.values.remove("setup_s");
        assert!(r.json(END_TO_END).is_err());
    }
}
