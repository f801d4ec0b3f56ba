//! Figure 2 — representative worker speed traces.
//!
//! The paper plots measured speeds of 4 representative DigitalOcean
//! droplets normalized by each node's maximum. We emit the same view from
//! the calibrated generator plus the §3.2 statistics that motivate
//! prediction (slow variation, high lag-1 autocorrelation).

use crate::experiments::Scale;
use crate::report::Table;
use s2c2_trace::stats;
use s2c2_trace::{CloudTraceConfig, TraceSet};

/// Output: the sampled trace table plus a statistics table.
#[derive(Debug, Clone)]
pub struct TraceFigures {
    /// Normalized speed samples of 4 representative nodes.
    pub traces: Table,
    /// Per-node §3.2 statistics.
    pub stats: Table,
    /// Every generated trace, unnormalized (persisted as CSV).
    pub set: TraceSet,
}

/// Runs the experiment.
#[must_use]
pub fn run(scale: Scale) -> TraceFigures {
    let len = scale.pick(60, 300);
    let nodes = scale.pick(20, 100);
    let set = TraceSet::generate(&CloudTraceConfig::paper(), nodes, len, 0xF2);

    // Pick 4 representative nodes: most stable, most volatile, two middle.
    let mut volatility: Vec<(f64, usize)> = (0..nodes)
        .map(|i| {
            let s = set.node(i).samples();
            (stats::std_dev(s) / stats::mean(s), i)
        })
        .collect();
    volatility.sort_by(|a, b| a.0.total_cmp(&b.0));
    let picks = [
        volatility[0].1,
        volatility[nodes / 3].1,
        volatility[2 * nodes / 3].1,
        volatility[nodes - 1].1,
    ];

    let mut traces = Table::new(
        "Fig 2 — speed traces (normalized per node by its max)",
        picks.iter().map(|p| format!("node{p}")).collect(),
    );
    let normalized: Vec<_> = picks
        .iter()
        .map(|&p| set.node(p).normalized_by_max())
        .collect();
    let stride = (len / 30).max(1);
    for t in (0..len).step_by(stride) {
        traces.push_row(
            format!("t{t}"),
            normalized.iter().map(|tr| tr.sample(t)).collect(),
        );
    }

    let mut stat_table = Table::new(
        "Fig 2 stats — §3.2 properties",
        vec![
            "mean speed".into(),
            "cv".into(),
            "lag1 autocorr".into(),
            "median rel step %".into(),
        ],
    );
    for &p in &picks {
        let s = set.node(p).samples();
        let mut steps: Vec<f64> = s.windows(2).map(|w| (w[1] - w[0]).abs() / w[0]).collect();
        steps.sort_by(|a, b| a.total_cmp(b));
        let median_step = if steps.is_empty() {
            0.0
        } else {
            steps[steps.len() / 2]
        };
        stat_table.push_row(
            format!("node{p}"),
            vec![
                stats::mean(s),
                stats::std_dev(s) / stats::mean(s),
                stats::autocorrelation(s, 1),
                100.0 * median_step,
            ],
        );
    }
    TraceFigures {
        traces,
        stats: stat_table,
        set,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_have_paper_properties() {
        let out = run(Scale::Quick);
        assert_eq!(out.traces.columns.len(), 4);
        assert!(!out.traces.rows.is_empty());
        // Normalized: every sample in (0, 1].
        for (_, values) in &out.traces.rows {
            for &v in values {
                assert!(v > 0.0 && v <= 1.0 + 1e-12);
            }
        }
        // §3.2: median relative step small (slowly varying) for the most
        // stable node.
        let stable = &out.stats.rows[0];
        assert!(
            stable.1[3] < 10.0,
            "median rel step {}% too large",
            stable.1[3]
        );
    }
}
