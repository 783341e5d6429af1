//! Offline analysis of DepFast causal traces.
//!
//! The runtime records per-event trace points ([`depfast::TraceRecord`])
//! and threads a per-client-operation [`depfast::TraceCtx`] through
//! coroutines and RPC envelopes, so one committed command's work forms a
//! tree of spans across nodes. This crate turns those raw records into:
//!
//! - a **blame report** ([`blame_report`]): for every committed command,
//!   the wall-clock interval from proposal to completion is decomposed
//!   into critical-path segments and each segment is charged to a
//!   `(node, layer)` pair — the node whose slowness the segment's
//!   duration evidences, and the layer (disk, rpc, queue, apply, or a
//!   driver-annotated phase) it was spent in;
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
//!
//! # Blame semantics
//!
//! Two decomposition modes cover the two driver shapes in this repo:
//!
//! - **Round mode** (DepFastRaft): the driver links each proposal to its
//!   replication round's quorum event ([`depfast::TraceRecord::RoundLink`]).
//!   The proposal window splits into *queue* (proposal created → round
//!   created, charged to the leader), *round* (round created → round
//!   fired, charged to the round's **deciding child** — the k-th
//!   successful arrival, which the quorum's own tally names on the
//!   round's fire record; earlier arrivals were not the bottleneck and
//!   later ones were not waited for — or to the leader as `other` when
//!   the round did not fire `Ok`), and *apply* (round fired → proposal
//!   fired, charged to the leader).
//! - **Phase mode** (Sync/Backlog/Callback/Chain): without round links,
//!   the proposal window is intersected with the leader's
//!   driver-annotated phase spans ([`depfast::PhaseSpan`]); each overlap
//!   is charged to the phase's blame node and label, the uncovered
//!   residual to the leader as `other`.
//!
//! Concurrent commands share phases and rounds, so blame measures
//! *request-seconds* of critical-path exposure, not exclusive wall
//! clock; shares (fractions of the aggregate) are the meaningful unit.

#![warn(missing_docs)]

mod blame;
mod chrome;
mod serial;

pub use blame::{blame_report, BlameKey, BlameReport};
pub use chrome::{chrome_trace, IncidentMark, IncidentSpan, INCIDENT_TID};
pub use depfast::trace::{EventInfo, TraceIndex};
pub use serial::{parse_records, serialize_records};
