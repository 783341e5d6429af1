//! Offline analysis of DepFast causal traces.
//!
//! The runtime records per-event trace points ([`depfast::TraceRecord`])
//! and threads a per-client-operation [`depfast::TraceCtx`] through
//! coroutines and RPC envelopes, so one committed command's work forms a
//! tree of spans across nodes. This crate turns those raw records into:
//!
//! - a **blame report** ([`blame_report`]): every committed command's
//!   critical-path blame, each segment of its latency charged to a
//!   `(node, layer)` pair. It is the core's one blame fold
//!   ([`depfast::blame`]) replayed over the records; a traced run folds
//!   the same law live and needs no stored stream for it;
//! - a **Chrome trace** ([`chrome_trace`]): the span trees, with the
//!   run's incident track over them, as `trace_event` JSON loadable in
//!   `chrome://tracing` or Perfetto;
//! - a **portable dump format** ([`serialize_records`] /
//!   [`parse_records`]): one line per raw record — `begin`, `coro`,
//!   `event`, `link` or `fired`, each holding only fields the two
//!   analyses above read, plus its time — that is the body of a `.run`
//!   file's `# depfast-trace/v3` section, so `depfast-inspect` can analyze
//!   a recorded run without re-running the simulation. Waits are not
//!   records: the SPG fold and the wait probe see them live.
//!
//! Everything here is a pure function of the record stream: a
//! deterministic simulation therefore yields byte-identical reports and
//! trace files across same-seed runs.

#![warn(missing_docs)]

mod chrome;
mod serial;

pub use chrome::{chrome_trace, IncidentMark, IncidentSpan, INCIDENT_TID};
pub use depfast::blame::{BlameKey, BlameReport};
pub use depfast::trace::{EventInfo, TraceIndex};
pub use serial::{parse_records, serialize_records};

/// The blame report of an indexed trace: the blame fold replayed over
/// every record the index was built from (see [`depfast::blame`] for the
/// rules).
pub fn blame_report(index: &TraceIndex) -> BlameReport {
    index.blame.clone()
}
