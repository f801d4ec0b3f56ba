//! Observability substrate for the S²C² serve stack.
//!
//! The serve engine's only output used to be the end-of-run
//! [`ServiceReport`](../s2c2_serve/metrics/struct.ServiceReport.html); this
//! crate adds the *why* behind those numbers:
//!
//! * [`event`] — a structured trace recorder: typed events with
//!   virtual-clock timestamps appended to a cheap buffer behind the
//!   [`TraceSink`] trait. The disabled path is zero-cost: emission sites
//!   take a closure that is never evaluated when tracing is off.
//! * [`histogram`] — [`StreamingHistogram`], a log-bucketed streaming
//!   histogram over `f64` samples with a bounded relative error.
//! * [`registry`] — [`MetricsRegistry`]: named histograms and time
//!   series sampled on engine events (iteration spans, job latency,
//!   queue depth, utilization, resident-set size). Run-level counters
//!   are not copied here; the serve report is their one home.
//! * [`phases`] — [`PhaseTotals`]: per-iteration service time split into
//!   encode / dispatch / compute / collect / decode / verify, kept
//!   separately for the deterministic virtual clock and for
//!   (nondeterministic) wall time measured by the numeric backends.
//! * [`export`] — deterministic JSONL event logs and Chrome trace-event
//!   (`chrome://tracing` / Perfetto) timelines with one track per worker
//!   and per tenant.
//!
//! Everything here is dependency-free and engine-agnostic: events speak
//! in plain ids (`u64` jobs, `usize` workers, `u32` tenants) so the
//! crate sits below `s2c2-serve` in the workspace DAG.
#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod histogram;
pub mod phases;
pub mod registry;

pub use event::{NullSink, TraceBuffer, TraceEvent, TraceEventKind, TraceSink};
pub use histogram::StreamingHistogram;
pub use phases::PhaseTotals;
pub use registry::{MetricsRegistry, TimeSeries};

/// Bundled trace buffer + metrics registry: the unit of telemetry state
/// an engine run carries when observability is enabled.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Telemetry {
    /// Ordered event log (virtual-clock timestamps).
    pub trace: TraceBuffer,
    /// Named histograms and time series.
    pub metrics: MetricsRegistry,
}

impl Telemetry {
    /// An empty telemetry bundle.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}
