//! The benchmark's shim over the core's blame fold.
//!
//! Critical-path blame is one fold, [`depfast::blame`]; a traced run
//! folds it live, and [`TraceIndex::build`] replays it over a recorded
//! stream. This crate only names that result for `benchmark/`, whose
//! adapter imports [`blame_report`] and [`TraceIndex`] from here. It goes
//! when the benchmark reads `TraceIndex::blame` itself.

#![warn(missing_docs)]

use depfast::blame::BlameReport;
pub use depfast::trace::TraceIndex;

/// The blame report of an indexed trace: the blame fold replayed over
/// every record the index was built from (see [`depfast::blame`] for the
/// rules).
pub fn blame_report(index: &TraceIndex) -> BlameReport {
    index.blame.clone()
}
