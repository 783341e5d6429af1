//! Chrome `trace_event` export (load in `chrome://tracing` or Perfetto).

use std::collections::BTreeSet;

use depfast::trace::{CoroInfo, TraceIndex};
use depfast::{CoroId, EventId};
use depfast_metrics::text::JsonStr;

/// Timestamps are microseconds with fractional part; integer math keeps
/// the rendering byte-stable.
fn fmt_us(nanos: u64) -> String {
    format!("{}.{:03}", nanos / 1_000, nanos % 1_000)
}

/// Track (tid) of an event: its creating coroutine's lane, or lane 0 for
/// events created outside any coroutine.
fn tid_of(coro: Option<CoroId>) -> u64 {
    coro.map(|c| c.0 + 1).unwrap_or(0)
}

/// The dedicated per-node lane for the incident track — far above any
/// coroutine tid, so incidents render as their own row under each node.
pub const INCIDENT_TID: u64 = 1_000_000;

/// One duration on the incident track (e.g. a fault's active interval or
/// a suspicion's lifetime), rendered as a complete slice on the afflicted
/// node's incident lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncidentSpan {
    /// Afflicted node (Chrome `pid`).
    pub node: u32,
    /// Slice name, e.g. `"fault: Disk Slowness"` or `"suspected"`.
    pub name: String,
    /// Supporting detail (`args.detail`).
    pub detail: String,
    /// Span start, virtual nanoseconds.
    pub start_ns: u64,
    /// Span end, virtual nanoseconds.
    pub end_ns: u64,
}

/// One instantaneous transition on the incident track (probe, resume,
/// demotion, ...), rendered as an instant on the node's incident lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncidentMark {
    /// Subject node (Chrome `pid`).
    pub node: u32,
    /// Virtual-clock time, nanoseconds.
    pub t_ns: u64,
    /// Instant name, e.g. `"raft: probe"`.
    pub name: String,
    /// Supporting detail (`args.detail`).
    pub detail: String,
}

/// Renders the indexed trace as Chrome `trace_event` JSON, with the
/// run's *incident track* laid over it.
///
/// Every event that both started and fired becomes a complete (`"X"`)
/// slice on `pid = node`, `tid = coroutine`; request roots become
/// instants; proposal→round and round→get links become flow (`"s"`/`"f"`)
/// arrows. Each node that `spans` or `marks` mention gains a dedicated
/// `tid` [`INCIDENT_TID`] lane named `"incidents"`, carrying fault intervals /
/// suspicion lifetimes as complete slices and health-state transitions
/// as instants, rendered in the order given — callers pass canonically
/// sorted inputs (`depfast_incident::incident_track`). The output is a
/// pure function of its inputs, so deterministic simulations export
/// byte-identical files.
pub fn chrome_trace(index: &TraceIndex, spans: &[IncidentSpan], marks: &[IncidentMark]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |out: &mut String, line: String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
        out.push_str(&line);
    };

    // Metadata: name processes after nodes, threads after coroutines.
    let mut nodes: BTreeSet<u32> = index.events.values().map(|e| e.node.0).collect();
    nodes.extend(index.coros.values().map(|c| c.node.0));
    nodes.extend(index.begins.iter().map(|(_, n, _, _)| n.0));
    nodes.extend(spans.iter().map(|s| s.node));
    nodes.extend(marks.iter().map(|m| m.node));
    let incident_nodes: BTreeSet<u32> = spans
        .iter()
        .map(|s| s.node)
        .chain(marks.iter().map(|m| m.node))
        .collect();
    for node in nodes {
        push(
            &mut out,
            format!(
                "{{\"ph\":\"M\",\"pid\":{node},\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"node {node}\"}}}}"
            ),
        );
    }
    let mut coros: Vec<(&CoroId, &CoroInfo)> = index.coros.iter().collect();
    coros.sort_by_key(|(id, _)| **id);
    for (id, info) in coros {
        push(
            &mut out,
            format!(
                "{{\"ph\":\"M\",\"pid\":{},\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":{}}}}}",
                info.node.0,
                tid_of(Some(*id)),
                JsonStr(info.label)
            ),
        );
    }
    for node in &incident_nodes {
        push(
            &mut out,
            format!(
                "{{\"ph\":\"M\",\"pid\":{node},\"tid\":{INCIDENT_TID},\
                 \"name\":\"thread_name\",\"args\":{{\"name\":\"incidents\"}}}}"
            ),
        );
    }

    // Request roots.
    for (t, node, trace_id, label) in &index.begins {
        push(
            &mut out,
            format!(
                "{{\"ph\":\"i\",\"pid\":{},\"tid\":0,\"ts\":{},\"s\":\"p\",\
                 \"name\":{},\"args\":{{\"trace\":{}}}}}",
                node.0,
                fmt_us(t.as_nanos()),
                JsonStr(label),
                trace_id
            ),
        );
    }

    // Completed spans, in event-id order for determinism.
    let mut ids: Vec<EventId> = index.events.keys().copied().collect();
    ids.sort();
    for id in &ids {
        let info = &index.events[id];
        let Some((end, ..)) = index.fired.get(id) else {
            continue;
        };
        let begin = info.t.as_nanos();
        let dur = end.as_nanos().saturating_sub(begin);
        let trace = info
            .ctx
            .map(|c| format!(",\"trace\":{}", c.trace_id))
            .unwrap_or_default();
        push(
            &mut out,
            format!(
                "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\
                 \"name\":{},\"cat\":\"{}\",\"args\":{{\"event\":{}{}}}}}",
                info.node.0,
                tid_of(info.coro),
                fmt_us(begin),
                fmt_us(dur),
                JsonStr(info.label),
                info.kind.name(),
                id.0,
                trace
            ),
        );
    }

    // Flow arrows: proposal → replication round, and confirmation round →
    // the ReadIndex get it woke. A flow must start no later than it ends,
    // so the arrow runs from whichever end was created first: a proposal
    // precedes the round that carries it, a get joins a round in flight.
    let mut links: Vec<(EventId, EventId)> = index.round_of.iter().map(|(p, r)| (*p, *r)).collect();
    links.sort();
    for (rider, round) in links {
        let (Some(p), Some(r)) = (index.events.get(&rider), index.events.get(&round)) else {
            continue;
        };
        let (from, to) = if p.t <= r.t { (p, r) } else { (r, p) };
        for (ph, end) in [("\"ph\":\"s\"", from), ("\"ph\":\"f\",\"bp\":\"e\"", to)] {
            push(
                &mut out,
                format!(
                    "{{{ph},\"pid\":{},\"tid\":{},\"ts\":{},\"id\":{},\
                     \"name\":\"commit_path\",\"cat\":\"flow\"}}",
                    end.node.0,
                    tid_of(end.coro),
                    fmt_us(end.t.as_nanos()),
                    rider.0
                ),
            );
        }
    }

    // The incident track: fault / suspicion intervals as slices, health
    // transitions as instants, all on the dedicated lane.
    for s in spans {
        push(
            &mut out,
            format!(
                "{{\"ph\":\"X\",\"pid\":{},\"tid\":{INCIDENT_TID},\"ts\":{},\"dur\":{},\
                 \"name\":{},\"cat\":\"incident\",\"args\":{{\"detail\":{}}}}}",
                s.node,
                fmt_us(s.start_ns),
                fmt_us(s.end_ns.saturating_sub(s.start_ns)),
                JsonStr(&s.name),
                JsonStr(&s.detail)
            ),
        );
    }
    for m in marks {
        push(
            &mut out,
            format!(
                "{{\"ph\":\"i\",\"pid\":{},\"tid\":{INCIDENT_TID},\"ts\":{},\"s\":\"t\",\
                 \"name\":{},\"cat\":\"incident\",\"args\":{{\"detail\":{}}}}}",
                m.node,
                fmt_us(m.t_ns),
                JsonStr(&m.name),
                JsonStr(&m.detail)
            ),
        );
    }

    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use depfast::event::Signal;
    use depfast::{EventKind, TraceRecord};
    use simkit::{NodeId, SimTime};

    /// Minimal JSON well-formedness check (objects, arrays, strings,
    /// numbers, literals) — enough to catch malformed export.
    fn check_json(s: &str) -> Result<(), String> {
        let b = s.as_bytes();
        let mut i = 0usize;
        fn ws(b: &[u8], i: &mut usize) {
            while *i < b.len() && (b[*i] as char).is_ascii_whitespace() {
                *i += 1;
            }
        }
        fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
            ws(b, i);
            match b.get(*i) {
                Some(b'{') => {
                    *i += 1;
                    ws(b, i);
                    if b.get(*i) == Some(&b'}') {
                        *i += 1;
                        return Ok(());
                    }
                    loop {
                        value(b, i)?; // key (validated as a string below)
                        ws(b, i);
                        if b.get(*i) != Some(&b':') {
                            return Err(format!("expected ':' at {i}"));
                        }
                        *i += 1;
                        value(b, i)?;
                        ws(b, i);
                        match b.get(*i) {
                            Some(b',') => *i += 1,
                            Some(b'}') => {
                                *i += 1;
                                return Ok(());
                            }
                            _ => return Err(format!("expected ',' or '}}' at {i}")),
                        }
                    }
                }
                Some(b'[') => {
                    *i += 1;
                    ws(b, i);
                    if b.get(*i) == Some(&b']') {
                        *i += 1;
                        return Ok(());
                    }
                    loop {
                        value(b, i)?;
                        ws(b, i);
                        match b.get(*i) {
                            Some(b',') => *i += 1,
                            Some(b']') => {
                                *i += 1;
                                return Ok(());
                            }
                            _ => return Err(format!("expected ',' or ']' at {i}")),
                        }
                    }
                }
                Some(b'"') => {
                    *i += 1;
                    while let Some(c) = b.get(*i) {
                        match c {
                            b'"' => {
                                *i += 1;
                                return Ok(());
                            }
                            b'\\' => *i += 2,
                            _ => *i += 1,
                        }
                    }
                    Err("unterminated string".into())
                }
                Some(c) if c.is_ascii_digit() || *c == b'-' => {
                    while b
                        .get(*i)
                        .is_some_and(|c| c.is_ascii_digit() || b".-+eE".contains(c))
                    {
                        *i += 1;
                    }
                    Ok(())
                }
                _ => {
                    for lit in ["true", "false", "null"] {
                        if b[*i..].starts_with(lit.as_bytes()) {
                            *i += lit.len();
                            return Ok(());
                        }
                    }
                    Err(format!("unexpected byte at {i}"))
                }
            }
        }
        value(b, &mut i)?;
        ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing garbage at {i}"));
        }
        Ok(())
    }

    #[test]
    fn export_is_valid_json_with_expected_slices() {
        let records = vec![
            TraceRecord::TraceBegin {
                t: SimTime::from_nanos(50),
                node: NodeId(3),
                trace_id: 1,
                label: "kv_request",
            },
            TraceRecord::CoroutineStart {
                t: SimTime::ZERO,
                node: NodeId(0),
                coro: depfast::CoroId(0),
                label: "raft:replicate",
            },
            TraceRecord::EventCreated {
                t: SimTime::from_nanos(100),
                node: NodeId(0),
                coro: Some(depfast::CoroId(0)),
                event: depfast::EventId(0),
                kind: EventKind::Rpc { target: NodeId(1) },
                label: "append_entries",
                ctx: Some(depfast::TraceCtx {
                    trace_id: 1,
                    parent_span: depfast::SpanId::NONE,
                }),
            },
            TraceRecord::EventFired {
                t: SimTime::from_nanos(2600),
                event: depfast::EventId(0),
                signal: Signal::Ok,
                by: None,
            },
        ];
        let json = chrome_trace(&TraceIndex::build(&records), &[], &[]);
        check_json(&json).expect("valid JSON");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":0.100"));
        assert!(json.contains("\"dur\":2.500"));
        assert!(json.contains("\"name\":\"append_entries\""));
        assert!(json.contains("\"trace\":1"));
        assert!(json.contains("node 0"));
        assert!(json.contains("raft:replicate"));
    }

    #[test]
    fn incident_track_renders_spans_and_marks_on_its_own_lane() {
        let records = vec![
            TraceRecord::EventCreated {
                t: SimTime::from_nanos(1),
                node: NodeId(0),
                coro: None,
                event: depfast::EventId(0),
                kind: EventKind::Io,
                label: "wal",
                ctx: None,
            },
            TraceRecord::EventFired {
                t: SimTime::from_nanos(5),
                event: depfast::EventId(0),
                signal: Signal::Ok,
                by: None,
            },
        ];
        let index = TraceIndex::build(&records);
        let spans = vec![IncidentSpan {
            node: 2,
            name: "fault: Disk Slowness".into(),
            detail: "severity 0.992".into(),
            start_ns: 1_000_000,
            end_ns: 3_500_000,
        }];
        let marks = vec![IncidentMark {
            node: 2,
            t_ns: 1_400_000,
            name: "detector: suspect".into(),
            detail: "append_entries: window mean 40000us".into(),
        }];
        let json = chrome_trace(&index, &spans, &marks);
        check_json(&json).expect("valid JSON");
        assert!(json.contains(&format!("\"tid\":{INCIDENT_TID}")));
        assert!(json.contains("\"name\":\"incidents\""));
        assert!(json.contains("\"name\":\"fault: Disk Slowness\""));
        assert!(json.contains("\"cat\":\"incident\""));
        assert!(json.contains("\"ts\":1000.000,\"dur\":2500.000"));
        assert!(json.contains("\"name\":\"detector: suspect\""));
        // Without incidents there is no incident lane.
        assert!(!chrome_trace(&index, &[], &[]).contains("incidents"));
    }

    #[test]
    fn a_link_s_arrow_runs_forward_in_time_whichever_end_came_first() {
        let created = |t, event, kind, label| TraceRecord::EventCreated {
            t: SimTime::from_nanos(t),
            node: NodeId(0),
            coro: None,
            event: depfast::EventId(event),
            kind,
            label,
            ctx: None,
        };
        let link = |rider, round| TraceRecord::RoundLink {
            t: SimTime::from_nanos(9000),
            proposal: depfast::EventId(rider),
            round: depfast::EventId(round),
        };
        // A proposal (1 µs) carried by a round created after it (2 µs); a
        // get's wait (4 µs) woken by a round it joined in flight (3 µs).
        let records = vec![
            created(1000, 0, EventKind::Notify, "proposal"),
            created(2000, 1, EventKind::Quorum, "replicate"),
            link(0, 1),
            created(3000, 2, EventKind::Quorum, "read_index"),
            created(4000, 3, EventKind::Value, "read_confirmed"),
            link(3, 2),
        ];
        let json = chrome_trace(&TraceIndex::build(&records), &[], &[]);
        check_json(&json).expect("valid JSON");
        for (start, finish, id) in [("1.000", "2.000", 0), ("3.000", "4.000", 3)] {
            let s = format!("\"ph\":\"s\",\"pid\":0,\"tid\":0,\"ts\":{start},\"id\":{id},");
            let f = format!("\"bp\":\"e\",\"pid\":0,\"tid\":0,\"ts\":{finish},\"id\":{id},");
            assert!(json.contains(&s) && json.contains(&f), "flow {id}: {json}");
        }
    }

    #[test]
    fn export_is_deterministic() {
        let records = vec![
            TraceRecord::EventCreated {
                t: SimTime::from_nanos(1),
                node: NodeId(0),
                coro: None,
                event: depfast::EventId(7),
                kind: EventKind::Io,
                label: "wal",
                ctx: None,
            },
            TraceRecord::EventFired {
                t: SimTime::from_nanos(5),
                event: depfast::EventId(7),
                signal: Signal::Ok,
                by: None,
            },
        ];
        let a = chrome_trace(&TraceIndex::build(&records), &[], &[]);
        let b = chrome_trace(&TraceIndex::build(&records), &[], &[]);
        assert_eq!(a, b);
    }
}
