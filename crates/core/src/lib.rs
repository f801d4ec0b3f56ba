//! # S²C² — Slack Squeeze Coded Computing (the paper's contribution)
//!
//! This crate implements the scheduling layer of *"Slack Squeeze Coded
//! Computing for Adaptive Straggler Mitigation"* (SC '19): encode once
//! with a conservative `(n, k)` code, then every iteration squeeze the
//! built-in slack by assigning each worker only as many chunks of its own
//! coded partition as its predicted speed warrants — never moving data,
//! never re-encoding, and never giving up the code's worst-case straggler
//! tolerance.
//!
//! Layout:
//!
//! * [`alloc`] — Algorithm 1 (proportional chunk allocation with exact-`k`
//!   coverage), the basic-mode and conventional assignments, and §4.4's
//!   fallback ([`plan_or_full`]) every planner goes through.
//! * [`speed_tracker`] — §6.2's measure→predict loop over the
//!   `s2c2-predict` models, including the oracle and uniform degenerates.
//! * [`strategy`] — every scheduling strategy the paper compares, all
//!   runnable against the `s2c2-cluster` engines.
//! * [`job`] — the user-facing facade (`CodedJobBuilder` → `CodedJob`).
//! * [`storage_model`] — the Fig 3 effective-storage comparison.

#![warn(missing_docs)]

pub mod alloc;
pub mod error;
pub mod job;
pub mod speed_tracker;
pub mod storage_model;
pub mod strategy;

pub use alloc::{
    allocate_chunks, allocate_chunks_basic, allocate_full, normalized_shares, plan_or_full,
    split_worker_capacity, ChunkAssignment,
};
pub use error::S2c2Error;
pub use job::{CodedJob, CodedJobBuilder};
pub use speed_tracker::{PredictorSource, SpeedTracker};
pub use strategy::{IterationOutcome, MatvecStrategy, StrategyKind};
