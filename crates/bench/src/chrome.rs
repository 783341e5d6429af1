//! Chrome `trace_event` export (load in `chrome://tracing` or Perfetto).

use std::collections::{BTreeMap, BTreeSet};

use depfast::trace::{CoroInfo, TraceIndex};
use depfast::{CoroId, EventId};
use depfast_incident::IncidentDump;
use depfast_metrics::text::JsonStr;
use simkit::SimTime;

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
const INCIDENT_TID: u64 = 1_000_000;

/// Suspicion lifetimes on the incident track: each node's detector
/// `suspect` paired with its next `clear`, or with the window's end if
/// none comes, as `(node, start_ns, end_ns)` in canonical order.
fn suspicions(dump: &IncidentDump) -> Vec<(u32, u64, u64)> {
    let mut open: BTreeMap<u32, u64> = BTreeMap::new();
    let mut spans = Vec::new();
    for e in dump.events_in("detector") {
        match e.transition {
            "suspect" => {
                open.entry(e.node.0).or_insert(e.t.as_nanos());
            }
            "clear" => {
                if let Some(start) = open.remove(&e.node.0) {
                    spans.push((e.node.0, start, e.t.as_nanos()));
                }
            }
            _ => {}
        }
    }
    for (node, start) in open {
        spans.push((node, start, dump.end_ns));
    }
    spans.sort_unstable();
    spans
}

/// Renders the indexed trace as Chrome `trace_event` JSON, with the
/// incident track of the run's `dump` laid over it.
///
/// Every event that both started and fired becomes a complete (`"X"`)
/// slice on `pid = node`, `tid = coroutine`; request roots become
/// instants; proposal→round and round→get links become flow (`"s"`/`"f"`)
/// arrows. Each node the incident track mentions gains a dedicated
/// `tid` [`INCIDENT_TID`] lane named `"incidents"`, carrying fault
/// intervals / suspicion lifetimes as complete slices and health-state
/// transitions as instants. The output is a pure function of its inputs,
/// so deterministic simulations export byte-identical files.
pub(crate) fn chrome_trace(index: &TraceIndex, dump: Option<&IncidentDump>) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |out: &mut String, line: String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
        out.push_str(&line);
    };

    // Metadata: name processes after nodes, threads after coroutines.
    // Every suspicion's node is an event's node, so faults and events
    // name every node the incident track touches.
    let incident_nodes: BTreeSet<u32> = dump
        .iter()
        .flat_map(|d| {
            let faults = d.faults.iter().map(|f| f.node.0);
            faults.chain(d.events.iter().map(|e| e.node.0))
        })
        .collect();
    let mut nodes: BTreeSet<u32> = index.events.values().map(|e| e.node.0).collect();
    nodes.extend(index.coros.values().map(|c| c.node.0));
    nodes.extend(index.begins.iter().map(|(_, n, _, _)| n.0));
    nodes.extend(&incident_nodes);
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
    if let Some(dump) = dump {
        let slice = |node: u32, start: u64, end: u64, name: &str, detail: &str| {
            format!(
                "{{\"ph\":\"X\",\"pid\":{node},\"tid\":{INCIDENT_TID},\"ts\":{},\"dur\":{},\
                 \"name\":{},\"cat\":\"incident\",\"args\":{{\"detail\":{}}}}}",
                fmt_us(start),
                fmt_us(end.saturating_sub(start)),
                JsonStr(name),
                JsonStr(detail)
            )
        };
        for f in &dump.faults {
            let never = if f.cleared.is_none() {
                " (never cleared)"
            } else {
                ""
            };
            let end = f.cleared.map_or(dump.end_ns, SimTime::as_nanos);
            let name = format!("fault: {}", f.kind);
            let detail = format!("severity {:.3}{never}", f.severity);
            push(
                &mut out,
                slice(f.node.0, f.onset.as_nanos(), end, &name, &detail),
            );
        }
        for (node, start, end) in suspicions(dump) {
            push(&mut out, slice(node, start, end, "suspected", ""));
        }
        for e in &dump.events {
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"i\",\"pid\":{},\"tid\":{INCIDENT_TID},\"ts\":{},\"s\":\"t\",\
                     \"name\":{},\"cat\":\"incident\",\"args\":{{\"detail\":{}}}}}",
                    e.node.0,
                    fmt_us(e.t.as_nanos()),
                    JsonStr(&format!("{}: {}", e.layer, e.transition)),
                    JsonStr(&e.evidence)
                ),
            );
        }
    }

    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use depfast::event::Signal;
    use depfast::{EventKind, HealthEvent, TraceRecord};
    use depfast_fault::FaultRecord;
    use simkit::NodeId;

    /// The export's `traceEvents`, parsed.
    fn events(json: &str) -> Vec<Json> {
        let parsed = Json::parse(json).expect("valid JSON");
        parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap()
            .to_vec()
    }

    /// The one event of phase `ph` named `name`.
    fn find<'a>(events: &'a [Json], ph: &str, name: &str) -> &'a Json {
        let mut hits = events
            .iter()
            .filter(|e| e.str("ph") == Some(ph) && e.str("name") == Some(name));
        let hit = hits.next().unwrap_or_else(|| panic!("no {ph} {name:?}"));
        assert!(hits.next().is_none(), "two {ph} {name:?}");
        hit
    }

    fn health(t_ns: u64, node: u32, layer: &'static str, transition: &'static str) -> HealthEvent {
        HealthEvent {
            t: SimTime::from_nanos(t_ns),
            node: NodeId(node),
            layer,
            transition,
            evidence: format!("{layer} saw node {node}"),
            group: None,
        }
    }

    /// Node 2's disk is slow from 2 s to 3.2 s; the detector suspects it
    /// from 2.4 s to 3.4 s, and it is quarantined in between.
    fn dump() -> IncidentDump {
        IncidentDump {
            driver: "DepFast".into(),
            fault: "Disk Slowness".into(),
            cluster: "3x64".into(),
            seed: 20210531,
            faults: vec![FaultRecord {
                node: NodeId(2),
                kind: "Disk Slowness",
                onset: SimTime::from_nanos(2_000_000_000),
                cleared: Some(SimTime::from_nanos(3_200_000_000)),
                severity: 0.992,
            }],
            events: vec![
                health(2_400_000_000, 2, "detector", "suspect"),
                health(2_450_000_000, 2, "raft", "quarantine"),
                health(3_400_000_000, 2, "detector", "clear"),
            ],
            throughput: Vec::new(),
            end_ns: 4_000_000_000,
            health_dropped: 0,
        }
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
                coro: CoroId(0),
                label: "raft:replicate",
            },
            TraceRecord::EventCreated {
                t: SimTime::from_nanos(100),
                node: NodeId(0),
                coro: Some(CoroId(0)),
                event: EventId(0),
                kind: EventKind::Rpc { target: NodeId(1) },
                label: "append_entries",
                ctx: Some(depfast::TraceCtx {
                    trace_id: 1,
                    parent_span: depfast::SpanId::NONE,
                }),
            },
            TraceRecord::EventFired {
                t: SimTime::from_nanos(2600),
                event: EventId(0),
                signal: Signal::Ok,
                by: None,
            },
        ];
        let json = chrome_trace(&TraceIndex::build(&records), None);
        // Microseconds, always three decimals.
        assert!(json.contains("\"ts\":0.100,\"dur\":2.500,"), "{json}");
        let events = events(&json);
        let slice = find(&events, "X", "append_entries");
        assert_eq!(slice.num("pid"), Some(0.0));
        assert_eq!(slice.num("tid"), Some(1.0));
        assert_eq!(slice.num("ts"), Some(0.1));
        assert_eq!(slice.num("dur"), Some(2.5));
        assert_eq!(slice.str("cat"), Some("rpc"));
        assert_eq!(slice.get("args").unwrap().num("trace"), Some(1.0));
        let root = find(&events, "i", "kv_request");
        assert_eq!((root.num("pid"), root.num("ts")), (Some(3.0), Some(0.05)));
        let lane = find(&events, "M", "thread_name");
        assert_eq!(
            lane.get("args").unwrap().str("name"),
            Some("raft:replicate")
        );
        let names: Vec<_> = events
            .iter()
            .filter(|e| e.str("name") == Some("process_name"))
            .map(|e| e.get("args").unwrap().str("name").unwrap())
            .collect();
        assert_eq!(names, ["node 0", "node 3"]);
    }

    #[test]
    fn incident_track_renders_spans_and_marks_on_its_own_lane() {
        let records = vec![
            TraceRecord::EventCreated {
                t: SimTime::from_nanos(1),
                node: NodeId(0),
                coro: None,
                event: EventId(0),
                kind: EventKind::Io,
                label: "wal",
                ctx: None,
            },
            TraceRecord::EventFired {
                t: SimTime::from_nanos(5),
                event: EventId(0),
                signal: Signal::Ok,
                by: None,
            },
        ];
        let index = TraceIndex::build(&records);
        let json = chrome_trace(&index, Some(&dump()));
        let events = events(&json);
        let on_lane: Vec<&Json> = events
            .iter()
            .filter(|e| e.num("tid") == Some(INCIDENT_TID as f64))
            .collect();
        // The lane's name, two slices and three instants, all on node 2.
        assert_eq!(on_lane.len(), 6, "{json}");
        assert!(on_lane.iter().all(|e| e.num("pid") == Some(2.0)));
        let lane = on_lane[0];
        assert_eq!(lane.get("args").unwrap().str("name"), Some("incidents"));
        let fault = find(&events, "X", "fault: Disk Slowness");
        assert_eq!(fault.str("cat"), Some("incident"));
        assert_eq!(
            (fault.num("ts"), fault.num("dur")),
            (Some(2e6), Some(1.2e6))
        );
        assert_eq!(
            fault.get("args").unwrap().str("detail"),
            Some("severity 0.992")
        );
        let suspect = find(&events, "i", "detector: suspect");
        assert_eq!(
            (suspect.num("ts"), suspect.str("s")),
            (Some(2.4e6), Some("t"))
        );
        let detail = suspect.get("args").unwrap().str("detail");
        assert_eq!(detail, Some("detector saw node 2"));
        // Without incidents there is no incident lane.
        assert!(!chrome_trace(&index, None).contains("incidents"));
    }

    #[test]
    fn a_link_s_arrow_runs_forward_in_time_whichever_end_came_first() {
        let created = |t, event, kind, label| TraceRecord::EventCreated {
            t: SimTime::from_nanos(t),
            node: NodeId(0),
            coro: None,
            event: EventId(event),
            kind,
            label,
            ctx: None,
        };
        let link = |rider, round| TraceRecord::RoundLink {
            t: SimTime::from_nanos(9000),
            proposal: EventId(rider),
            round: EventId(round),
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
        let json = chrome_trace(&TraceIndex::build(&records), None);
        let events = events(&json);
        let flows: Vec<_> = events
            .iter()
            .filter(|e| e.str("cat") == Some("flow"))
            .map(|e| {
                let n = |key| e.num(key).unwrap();
                (
                    e.str("ph").unwrap(),
                    n("pid"),
                    n("tid"),
                    n("ts"),
                    n("id"),
                    e.str("bp"),
                )
            })
            .collect();
        let want = [
            ("s", 0.0, 0.0, 1.0, 0.0, None),
            ("f", 0.0, 0.0, 2.0, 0.0, Some("e")),
            ("s", 0.0, 0.0, 3.0, 3.0, None),
            ("f", 0.0, 0.0, 4.0, 3.0, Some("e")),
        ];
        assert_eq!(flows, want, "{json}");
    }

    #[test]
    fn export_is_deterministic() {
        let records = vec![
            TraceRecord::EventCreated {
                t: SimTime::from_nanos(1),
                node: NodeId(0),
                coro: None,
                event: EventId(7),
                kind: EventKind::Io,
                label: "wal",
                ctx: None,
            },
            TraceRecord::EventFired {
                t: SimTime::from_nanos(5),
                event: EventId(7),
                signal: Signal::Ok,
                by: None,
            },
        ];
        let a = chrome_trace(&TraceIndex::build(&records), Some(&dump()));
        let b = chrome_trace(&TraceIndex::build(&records), Some(&dump()));
        assert_eq!(a, b);
    }

    /// The incident lane's slices of `dump`'s export, as
    /// `(name, ts, dur, detail)` in export order.
    fn incident_slices(dump: &IncidentDump) -> Vec<(String, f64, f64, String)> {
        let json = chrome_trace(&TraceIndex::build(&[]), Some(dump));
        events(&json)
            .iter()
            .filter(|e| e.str("ph") == Some("X") && e.str("cat") == Some("incident"))
            .map(|e| {
                let detail = e.get("args").unwrap().str("detail").unwrap();
                let name = e.str("name").unwrap().to_string();
                (
                    name,
                    e.num("ts").unwrap(),
                    e.num("dur").unwrap(),
                    detail.to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn incident_track_spans_faults_and_suspicions() {
        let mut d = dump();
        d.events.reverse();
        d.canonicalize();
        let slices = incident_slices(&d);
        let want = [
            ("fault: Disk Slowness", 2e6, 1.2e6, "severity 0.992"),
            ("suspected", 2.4e6, 1e6, ""),
        ];
        let want: Vec<_> = want
            .map(|(n, ts, dur, detail)| (n.to_string(), ts, dur, detail.to_string()))
            .into();
        assert_eq!(slices, want);
        let json = chrome_trace(&TraceIndex::build(&[]), Some(&d));
        let marks: Vec<_> = events(&json)
            .iter()
            .filter(|e| e.str("ph") == Some("i") && e.str("cat") == Some("incident"))
            .map(|e| e.str("name").unwrap().to_string())
            .collect();
        let want = ["detector: suspect", "raft: quarantine", "detector: clear"];
        assert_eq!(marks, want);
    }

    #[test]
    fn never_cleared_fault_extends_to_window_end() {
        let mut d = dump();
        d.faults[0].cleared = None;
        // Drop the clear so the suspicion stays open too.
        d.events.retain(|e| e.transition != "clear");
        let slices = incident_slices(&d);
        let ends: Vec<f64> = slices.iter().map(|(_, ts, dur, _)| ts + dur).collect();
        assert_eq!(ends, [4e6, 4e6]);
        assert_eq!(slices[0].3, "severity 0.992 (never cleared)");
    }
}
