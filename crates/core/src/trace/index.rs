//! A queryable index over a raw record stream.

use std::collections::HashMap;

use simkit::{NodeId, SimTime};

use super::{TraceCtx, TraceRecord};
use crate::blame::{BlameReport, Fold};
use crate::event::{EventId, EventKind, Signal};
use crate::runtime::CoroId;

/// Creation-time facts about one event.
#[derive(Debug, Clone, Copy)]
pub struct EventInfo {
    /// When the event was created.
    pub t: SimTime,
    /// Owning node.
    pub node: NodeId,
    /// Creating coroutine, if any.
    pub coro: Option<CoroId>,
    /// Structural kind.
    pub kind: EventKind,
    /// Waiting-point label.
    pub label: &'static str,
    /// Causal context active at creation.
    pub ctx: Option<TraceCtx>,
}

/// Facts about one coroutine launch.
#[derive(Debug, Clone, Copy)]
pub struct CoroInfo {
    /// Node the coroutine runs on.
    pub node: NodeId,
    /// Label given at creation.
    pub label: &'static str,
}

/// Index over one trace: events by id, fires, proposal→round links, and
/// the stream's critical-path blame. Built once per record stream; the
/// Chrome export reads the index, the blame report is the blame fold
/// replayed over the same records.
#[derive(Default)]
pub struct TraceIndex {
    /// Creation records by event id.
    pub events: HashMap<EventId, EventInfo>,
    /// First fire time and outcome by event id.
    pub fired: HashMap<EventId, (SimTime, Signal)>,
    /// Round (quorum event) of each linked proposal or ReadIndex wait.
    pub round_of: HashMap<EventId, EventId>,
    /// Launch records by coroutine id.
    pub coros: HashMap<CoroId, CoroInfo>,
    /// Request roots, in record order: `(t, node, trace id, label)`.
    pub begins: Vec<(SimTime, NodeId, u64, &'static str)>,
    /// The blame [`Fold`] fed every record of the stream.
    pub blame: BlameReport,
}

impl TraceIndex {
    /// Builds the index from a record stream.
    pub fn build(records: &[TraceRecord]) -> Self {
        let mut ix = TraceIndex::default();
        let mut blame = Fold::default();
        for rec in records {
            blame.feed(rec);
            match rec {
                TraceRecord::TraceBegin {
                    t,
                    node,
                    trace_id,
                    label,
                } => ix.begins.push((*t, *node, *trace_id, label)),
                TraceRecord::CoroutineStart {
                    node, coro, label, ..
                } => {
                    ix.coros.insert(*coro, CoroInfo { node: *node, label });
                }
                TraceRecord::EventCreated {
                    t,
                    node,
                    coro,
                    event,
                    kind,
                    label,
                    ctx,
                } => {
                    ix.events.insert(
                        *event,
                        EventInfo {
                            t: *t,
                            node: *node,
                            coro: *coro,
                            kind: *kind,
                            label,
                            ctx: *ctx,
                        },
                    );
                }
                TraceRecord::RoundLink {
                    proposal, round, ..
                } => {
                    ix.round_of.insert(*proposal, *round);
                }
                TraceRecord::EventFired {
                    t, event, signal, ..
                } => {
                    // Keep the first fire; re-fires don't change readiness.
                    ix.fired.entry(*event).or_insert((*t, *signal));
                }
            }
        }
        ix.blame = blame.finish();
        ix
    }
}
