//! The `pipeline` experiment: cross-round pipelined serving.
//!
//! Sweeps the in-flight window depth ∈ {1, 2, 4} over the calm and
//! volatile cloud presets at a fixed arrival rate, on an
//! iteration-heavy job mix. At depth 1 every round is a hard barrier:
//! one straggled round stalls the whole job. At depth ≥ 2 fast workers
//! stream ahead into later rounds while a straggled round is re-served,
//! so the per-round stall is absorbed as pipeline depth — the headline
//! number is p99 sojourn and total stall time vs depth at the same λ.
//!
//! Everything tabulated is virtual-clock data, so the table is
//! byte-deterministic across reruns and machines. Wall-clock timings —
//! where the scratch-pool reuse shows up as an allocation drop — go to
//! `BENCH_PIPELINE.json` only (written at full scale, committed at the
//! repo root), never to stdout, which keeps the determinism smoke's
//! stdout diff meaningful.

use crate::experiments::{common, Scale};
use crate::report::Table;
use s2c2_core::speed_tracker::PredictorSource;
use s2c2_serve::prelude::*;
use s2c2_telemetry::export;
use s2c2_trace::CloudTraceConfig;
use std::path::Path;
use std::time::Instant;

/// Pool size: small enough that one slowed worker is a meaningful
/// fraction of capacity, the regime where pipelining pays.
pub const POOL: usize = 8;
/// Workload seed.
pub const SEED: u64 = 0x0909;
/// Fixed arrival rate (jobs/s) across every depth — the sweep varies
/// only the window depth, never the offered load.
pub const ARRIVAL_RATE: f64 = 0.6;
/// Window depths swept.
pub const DEPTHS: &[usize] = &[1, 2, 4];

/// One depth's measurements on one preset.
#[derive(Debug, Clone)]
pub struct DepthRow {
    /// Row label (`calm/depth-1`, …).
    pub label: String,
    /// Cloud preset name (`calm` / `volatile`).
    pub preset: &'static str,
    /// Window depth.
    pub depth: usize,
    /// Median job sojourn latency (virtual seconds).
    pub p50_latency: f64,
    /// 99th-percentile job sojourn latency (virtual seconds).
    pub p99_latency: f64,
    /// Total time completed rounds sat parked awaiting in-order commit.
    pub stall_s: f64,
    /// Rounds that completed out of order and parked.
    pub parked: u64,
    /// Virtual seconds during which ≥ 2 rounds of one job overlapped.
    pub overlap_s: f64,
    /// Completed jobs per second of makespan.
    pub throughput: f64,
    /// Scratch buffers recycled instead of freshly allocated.
    pub scratch_reuses: u64,
    /// Wall-clock milliseconds for the run (excluded from stdout).
    pub wall_ms: f64,
}

/// The experiment's outputs: the deterministic table plus the raw rows
/// (which carry the wall-clock timings for `BENCH_PIPELINE.json`).
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    /// Virtual-clock depth-sweep table (stdout/CSV surface).
    pub table: Table,
    /// Per-run rows including wall-clock milliseconds.
    pub rows: Vec<DepthRow>,
    /// Jobs served per run.
    pub jobs: usize,
}

/// The iteration-heavy workload: pipelining overlaps rounds *within* a
/// job, so the win scales with iterations per job.
#[must_use]
pub fn workload(jobs: usize) -> Vec<(f64, JobSpec)> {
    let mix = vec![(JobPreset::medium(), 3.0), (JobPreset::large(), 1.0)];
    generate_workload(
        &ArrivalPattern::Poisson { rate: ARRIVAL_RATE },
        &mix,
        jobs,
        2,
        POOL,
        SEED,
    )
}

/// Runs one depth on one preset.
///
/// # Panics
///
/// Panics if the engine rejects the configuration or the run stalls —
/// the sweep is over committed presets that must always serve.
#[must_use]
pub fn run_depth(
    jobs: usize,
    preset: &CloudTraceConfig,
    depth: usize,
    telemetry: bool,
) -> ServiceReport {
    let pool = common::cloud_cluster(POOL, preset, SEED);
    let mut cfg = ServeConfig::new(SchedulerMode::SharedS2c2 {
        predictor: PredictorSource::LastValue,
    });
    cfg.pipeline = PipelinePolicy::Depth(depth);
    cfg.telemetry = telemetry;
    ServiceEngine::new(pool, cfg)
        .expect("pipeline configuration is valid")
        .run(&workload(jobs))
        .expect("pipeline run completes")
}

/// Runs the pipeline experiment.
///
/// # Panics
///
/// Panics if any run drops a job, or if depth 2 fails to improve the
/// p99 sojourn over depth 1 on the volatile preset — the experiment's
/// headline claim, enforced rather than eyeballed.
#[must_use]
pub fn run(scale: Scale) -> PipelineOutput {
    let jobs = scale.pick(10, 28);
    let mut table = Table::new(
        format!(
            "PIPELINE — window depth sweep, {jobs} iteration-heavy jobs at \
             λ={ARRIVAL_RATE}/s, {POOL}-worker cloud pool"
        ),
        vec![
            "p50_sojourn".into(),
            "p99_sojourn".into(),
            "stall_s".into(),
            "parked".into(),
            "overlap_s".into(),
            "throughput".into(),
            "scratch_reuse".into(),
        ],
    );
    let mut rows = Vec::new();
    for (preset_name, preset) in [
        ("calm", CloudTraceConfig::calm()),
        ("volatile", CloudTraceConfig::volatile()),
    ] {
        for &depth in DEPTHS {
            let started = Instant::now();
            let r = run_depth(jobs, &preset, depth, false);
            let wall_ms = started.elapsed().as_secs_f64() * 1e3;
            assert_eq!(
                r.completed(),
                jobs,
                "{preset_name}/depth-{depth}: every job must complete"
            );
            let row = DepthRow {
                label: format!("{preset_name}/depth-{depth}"),
                preset: preset_name,
                depth,
                p50_latency: r.latency_percentile(50.0),
                p99_latency: r.latency_percentile(99.0),
                stall_s: r.pipeline_stall_time,
                parked: r.rounds_parked,
                overlap_s: r.pipeline_overlap_time,
                throughput: r.throughput(),
                scratch_reuses: r.scratch_reuses,
                wall_ms,
            };
            table.push_row(
                row.label.clone(),
                vec![
                    row.p50_latency,
                    row.p99_latency,
                    row.stall_s,
                    row.parked as f64,
                    row.overlap_s,
                    row.throughput,
                    row.scratch_reuses as f64,
                ],
            );
            rows.push(row);
        }
    }
    let p99 = |label: &str| table.value(label, "p99_sojourn");
    assert!(
        p99("volatile/depth-2") <= p99("volatile/depth-1"),
        "depth 2 must not worsen the volatile p99 sojourn: {} vs {}",
        p99("volatile/depth-2"),
        p99("volatile/depth-1"),
    );
    PipelineOutput { table, rows, jobs }
}

/// Renders the depth sweep (including wall-clock) as the
/// `BENCH_PIPELINE.json` document.
#[must_use]
pub fn bench_json(out: &PipelineOutput) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"workers\": {POOL},\n"));
    s.push_str(&format!("  \"jobs\": {},\n", out.jobs));
    s.push_str(&format!("  \"arrival_rate\": {ARRIVAL_RATE},\n"));
    s.push_str("  \"sweep\": [\n");
    for (i, r) in out.rows.iter().enumerate() {
        let sep = if i + 1 == out.rows.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"preset\": \"{}\", \"depth\": {}, \"p50_latency\": {:.6}, \
             \"p99_latency\": {:.6}, \"stall_s\": {:.6}, \"parked\": {}, \
             \"overlap_s\": {:.6}, \"throughput\": {:.6}, \"scratch_reuses\": {}, \
             \"wall_ms\": {:.3}}}{sep}\n",
            r.preset,
            r.depth,
            r.p50_latency,
            r.p99_latency,
            r.stall_s,
            r.parked,
            r.overlap_s,
            r.throughput,
            r.scratch_reuses,
            r.wall_ms,
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Writes the exporter artifact of one traced depth-2 volatile run into
/// `dir` — the JSONL stream exercises the pipeline trace events
/// (`RoundParked` / `RoundRetired` / `PipelineStall`) end to end and is
/// part of the deterministic surface CI diffs across reruns.
///
/// # Errors
///
/// Propagates I/O failures from writing the artifact file.
///
/// # Panics
///
/// Panics if the traced run completes without telemetry attached.
pub fn write_exports(scale: Scale, dir: &Path) -> std::io::Result<()> {
    let jobs = scale.pick(10, 28);
    let r = run_depth(jobs, &CloudTraceConfig::volatile(), 2, true);
    let tel = r
        .telemetry
        .as_ref()
        .expect("telemetry was enabled for this run");
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join("pipeline_events.jsonl"),
        export::jsonl(tel.trace.events()),
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn deterministic_across_runs() {
        let a = run(Scale::Quick);
        let b = run(Scale::Quick);
        assert_eq!(a.table, b.table, "same seed must reproduce the table");
    }

    #[test]
    fn depth_two_beats_depth_one_on_volatile_p99() {
        let out = run(Scale::Quick);
        let p99 = |label: &str| out.table.value(label, "p99_sojourn");
        assert!(
            p99("volatile/depth-2") <= p99("volatile/depth-1"),
            "pipelining must absorb volatile stalls: {} vs {}",
            p99("volatile/depth-2"),
            p99("volatile/depth-1"),
        );
    }

    #[test]
    fn deeper_windows_overlap_rounds() {
        let out = run(Scale::Quick);
        for preset in ["calm", "volatile"] {
            assert_eq!(
                out.table.value(&format!("{preset}/depth-1"), "overlap_s"),
                0.0,
                "{preset}: a depth-1 window cannot overlap rounds"
            );
            assert!(
                out.table.value(&format!("{preset}/depth-2"), "overlap_s") > 0.0,
                "{preset}: depth 2 must overlap successive rounds"
            );
        }
    }

    #[test]
    fn scratch_pool_reuses_buffers() {
        let out = run(Scale::Quick);
        for (label, _) in &out.table.rows {
            assert!(
                out.table.value(label, "scratch_reuse") > 0.0,
                "{label}: multi-iteration jobs must recycle scratch buffers"
            );
        }
    }

    /// 64-bit FNV-1a, enough to pin an exported artifact's bytes.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    #[test]
    fn quick_depth_two_export_pinned_across_commits() {
        // Cross-commit byte-identity pin of the quick `pipeline_events.jsonl`
        // export and the report counters it does not carry: an engine
        // refactor must leave every one of these bits unchanged.
        let r = run_depth(
            Scale::Quick.pick(10, 28),
            &CloudTraceConfig::volatile(),
            2,
            true,
        );
        let tel = r.telemetry.as_ref().expect("traced run");
        let jsonl = export::jsonl(tel.trace.events());
        let busy_bits: Vec<u8> = r
            .busy_time
            .iter()
            .flat_map(|b| b.to_bits().to_le_bytes())
            .collect();
        let pinned = (
            fnv1a(jsonl.as_bytes()),
            r.recovery_rung_counts,
            r.scratch_reuses,
            fnv1a(&busy_bits),
        );
        assert_eq!(
            pinned,
            (
                0x5754_87ED_6537_4092,
                [96, 0, 8, 1, 0],
                90,
                0x2D87_9599_4F9F_3E07
            )
        );
    }

    #[test]
    fn bench_json_is_well_formed() {
        let out = run(Scale::Quick);
        let doc = bench_json(&out);
        export::validate_json(&doc).expect("BENCH_PIPELINE.json must be valid JSON");
        assert_eq!(doc.matches("\"depth\"").count(), DEPTHS.len() * 2);
    }

    #[test]
    fn committed_bench_file_keeps_the_headline_claim() {
        // The committed depth sweep must show depth 2 holding or beating
        // the depth-1 p99 on the volatile preset — the smoke that keeps
        // BENCH_PIPELINE.json honest without re-running the full sweep.
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_PIPELINE.json");
        let doc = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("committed {} must be readable: {e}", path.display()));
        let mut volatile_p99 = Vec::new();
        for line in doc.lines() {
            let line = line.trim();
            if !line.contains("\"preset\": \"volatile\"") {
                continue;
            }
            let field = |key: &str| -> f64 {
                let at = line
                    .find(key)
                    .unwrap_or_else(|| panic!("row carries {key}"));
                let rest = &line[at + key.len()..];
                let end = rest
                    .find([',', '}'])
                    .unwrap_or_else(|| panic!("{key} value is delimited"));
                rest[..end].trim().parse().expect("numeric field")
            };
            volatile_p99.push((field("\"depth\":") as usize, field("\"p99_latency\":")));
        }
        let p99_at = |d: usize| {
            volatile_p99
                .iter()
                .find(|(depth, _)| *depth == d)
                .unwrap_or_else(|| panic!("committed sweep has a volatile depth-{d} row"))
                .1
        };
        assert!(
            p99_at(2) <= p99_at(1),
            "committed sweep must show depth 2 ≤ depth 1 on volatile p99: {} vs {}",
            p99_at(2),
            p99_at(1)
        );
    }

    #[test]
    fn jsonl_export_is_deterministic() {
        let a = run_depth(6, &CloudTraceConfig::volatile(), 2, true);
        let b = run_depth(6, &CloudTraceConfig::volatile(), 2, true);
        let tel = |r: &ServiceReport| {
            export::jsonl(
                r.telemetry
                    .as_ref()
                    .expect("telemetry enabled")
                    .trace
                    .events(),
            )
        };
        assert_eq!(
            tel(&a),
            tel(&b),
            "same seed must export byte-identical JSONL"
        );
    }
}
