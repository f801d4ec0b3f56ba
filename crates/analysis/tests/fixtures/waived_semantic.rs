//! Semantic fixture: justified waivers silence the semantic rules, and
//! because they cover live findings they are not stale.

// s2c2-allow: no-unordered-iteration -- fixture: keyed lookups only, never iterated in order
use std::collections::HashMap;

pub enum EventKind {
    JobArrival,
    TaskComplete,
    BatchFlush,
}

pub(crate) fn interpret(k: EventKind) -> u32 {
    match k {
        EventKind::JobArrival => 1,
        // s2c2-allow: exhaustive-event-match -- fixture: forwarding shim, variants handled downstream
        _ => 0,
    }
}

// s2c2-allow: no-unordered-iteration -- fixture: keyed lookups only, never iterated in order
pub(crate) fn total(weights: &HashMap<u32, f64>) -> f64 {
    // s2c2-allow: unordered-float-reduction -- fixture: all weights are equal so order cannot matter
    weights.values().sum::<f64>()
}
