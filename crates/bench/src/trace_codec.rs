//! The body of a `.run` file's `trace` section: a line-based dump of raw
//! trace records, so `depfast-inspect` can work from a recorded file
//! instead of re-running the simulation. Each line holds only fields the
//! blame replay and the Chrome export read. Waits are not records: the
//! SPG fold and the wait probe see them live. One record per line,
//! tab-separated fields, first field is the record tag:
//!
//! | Tag | Fields after the time |
//! |---|---|
//! | `begin` | node, trace id, label |
//! | `coro` | node, coroutine id, label |
//! | `event` | node, coroutine id, event id, kind, kind argument, label, causal context |
//! | `link` | proposal id, round id |
//! | `fired` | event id, `ok` / `err`, and for a compound event its deciding child's id |
//!
//! The time is virtual nanoseconds. `-` encodes "absent" (a coroutine id
//! outside any coroutine, the argument of a kind that has none); a causal
//! context is `trace_id` + `parent_span`, with `0 0` meaning "none" (trace
//! ids start at 1 and span 0 is [`depfast::SpanId::NONE`]).

use std::fmt::Write as _;

use depfast::event::Signal;
use depfast::{CoroId, EventId, EventKind, SpanId, TraceCtx, TraceRecord};
use depfast_metrics::text::{intern, Fields, LineError};
use simkit::{NodeId, SimTime};

fn ctx_fields(ctx: &Option<TraceCtx>) -> (u64, u64) {
    match ctx {
        Some(c) => (c.trace_id, c.parent_span.0),
        None => (0, 0),
    }
}

fn kind_fields(kind: EventKind) -> (&'static str, String) {
    match kind {
        EventKind::Rpc { target } => ("rpc", target.0.to_string()),
        EventKind::Phase { blame } => ("phase", blame.0.to_string()),
        k => (k.name(), "-".to_string()),
    }
}

fn opt_coro(c: &Option<CoroId>) -> String {
    c.map(|c| c.0.to_string()).unwrap_or_else(|| "-".into())
}

/// Serializes records into the dump format.
pub(crate) fn serialize_records(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for rec in records {
        match rec {
            TraceRecord::TraceBegin {
                t,
                node,
                trace_id,
                label,
            } => {
                let (t, node) = (t.as_nanos(), node.0);
                writeln!(out, "begin\t{t}\t{node}\t{trace_id}\t{label}")
            }
            TraceRecord::CoroutineStart {
                t,
                node,
                coro,
                label,
            } => {
                let (t, node, coro) = (t.as_nanos(), node.0, coro.0);
                writeln!(out, "coro\t{t}\t{node}\t{coro}\t{label}")
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
                let (t, node, coro, event) = (t.as_nanos(), node.0, opt_coro(coro), event.0);
                let (kname, karg) = kind_fields(*kind);
                let (tid, span) = ctx_fields(ctx);
                writeln!(
                    out,
                    "event\t{t}\t{node}\t{coro}\t{event}\t{kname}\t{karg}\t{label}\t{tid}\t{span}"
                )
            }
            TraceRecord::RoundLink { t, proposal, round } => {
                writeln!(out, "link\t{}\t{}\t{}", t.as_nanos(), proposal.0, round.0)
            }
            TraceRecord::EventFired {
                t,
                event,
                signal,
                by,
            } => {
                let s = match signal {
                    Signal::Ok => "ok",
                    Signal::Err => "err",
                };
                let (t, event) = (t.as_nanos(), event.0);
                match by {
                    Some(by) => writeln!(out, "fired\t{t}\t{event}\t{s}\t{}", by.0),
                    None => writeln!(out, "fired\t{t}\t{event}\t{s}"),
                }
            }
        }
        .expect("writing to a String cannot fail");
    }
    out
}

/// Parses one line of a dump produced by [`serialize_records`] (a
/// causal context is two fields).
fn parse_record(line: &mut Fields<'_>) -> Result<TraceRecord, LineError> {
    fn time(line: &mut Fields<'_>) -> Result<SimTime, LineError> {
        line.parse("time").map(SimTime::from_nanos)
    }
    fn node(line: &mut Fields<'_>, what: &str) -> Result<NodeId, LineError> {
        line.parse(what).map(NodeId)
    }
    fn event(line: &mut Fields<'_>, what: &str) -> Result<EventId, LineError> {
        line.parse(what).map(EventId)
    }
    fn opt_coro(line: &mut Fields<'_>) -> Result<Option<CoroId>, LineError> {
        Ok(line.opt("coro id")?.map(CoroId))
    }
    fn ctx(line: &mut Fields<'_>) -> Result<Option<TraceCtx>, LineError> {
        let (trace_id, span) = (line.parse("trace id")?, line.parse("parent span")?);
        Ok((trace_id != 0 || span != 0).then_some(TraceCtx {
            trace_id,
            parent_span: SpanId(span),
        }))
    }
    let rec = match line.next("record tag")? {
        "begin" => TraceRecord::TraceBegin {
            t: time(line)?,
            node: node(line, "node")?,
            trace_id: line.parse("trace id")?,
            label: intern(line.next("label")?),
        },
        "coro" => TraceRecord::CoroutineStart {
            t: time(line)?,
            node: node(line, "node")?,
            coro: CoroId(line.parse("coro id")?),
            label: intern(line.next("label")?),
        },
        "event" => {
            let t = time(line)?;
            let at = node(line, "node")?;
            let coro = opt_coro(line)?;
            let event = event(line, "event id")?;
            let kind = match line.next("kind")? {
                "notify" => EventKind::Notify,
                "value" => EventKind::Value,
                "timer" => EventKind::Timer,
                "io" => EventKind::Io,
                "quorum" => EventKind::Quorum,
                "and" => EventKind::And,
                "or" => EventKind::Or,
                "rpc" => EventKind::Rpc {
                    target: node(line, "rpc target")?,
                },
                "phase" => EventKind::Phase {
                    blame: node(line, "phase blame")?,
                },
                other => return Err(line.err(format!("unknown kind {other:?}"))),
            };
            if !matches!(kind, EventKind::Rpc { .. } | EventKind::Phase { .. }) {
                line.next("kind argument")?;
            }
            TraceRecord::EventCreated {
                t,
                node: at,
                coro,
                event,
                kind,
                label: intern(line.next("label")?),
                ctx: ctx(line)?,
            }
        }
        "link" => TraceRecord::RoundLink {
            t: time(line)?,
            proposal: event(line, "proposal id")?,
            round: event(line, "round id")?,
        },
        "fired" => TraceRecord::EventFired {
            t: time(line)?,
            event: event(line, "event id")?,
            signal: match line.next("signal")? {
                "ok" => Signal::Ok,
                "err" => Signal::Err,
                other => return Err(line.err(format!("unknown signal {other:?}"))),
            },
            by: if line.more() {
                Some(event(line, "deciding child id")?)
            } else {
                None
            },
        },
        other => return Err(line.err(format!("unknown record tag {other:?}"))),
    };
    Ok(rec)
}

/// Parses a dump produced by [`serialize_records`]. Empty lines and `#`
/// lines (a `.run` file's section header) are skipped.
pub(crate) fn parse_records(text: &str) -> Result<Vec<TraceRecord>, LineError> {
    let mut records = Vec::new();
    for (no, raw) in text.lines().enumerate() {
        if raw.is_empty() || raw.starts_with('#') {
            continue;
        }
        let mut line = Fields::new(no + 1, raw);
        records.push(parse_record(&mut line)?);
        line.end()?;
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceRecord> {
        vec![
            TraceRecord::TraceBegin {
                t: SimTime::from_nanos(10),
                node: NodeId(3),
                trace_id: 1,
                label: "kv_request",
            },
            TraceRecord::CoroutineStart {
                t: SimTime::from_nanos(11),
                node: NodeId(0),
                coro: CoroId(4),
                label: "raft:replicate",
            },
            TraceRecord::EventCreated {
                t: SimTime::from_nanos(12),
                node: NodeId(0),
                coro: Some(CoroId(4)),
                event: EventId(5),
                kind: EventKind::Rpc { target: NodeId(2) },
                label: "append_entries",
                ctx: Some(TraceCtx {
                    trace_id: 1,
                    parent_span: SpanId::event(EventId(9)),
                }),
            },
            TraceRecord::EventCreated {
                t: SimTime::from_nanos(12),
                node: NodeId(1),
                coro: None,
                event: EventId(6),
                kind: EventKind::Phase { blame: NodeId(2) },
                label: "cold_read",
                ctx: None,
            },
            TraceRecord::RoundLink {
                t: SimTime::from_nanos(13),
                proposal: EventId(2),
                round: EventId(5),
            },
            TraceRecord::EventFired {
                t: SimTime::from_nanos(14),
                event: EventId(6),
                signal: Signal::Ok,
                by: None,
            },
            TraceRecord::EventFired {
                t: SimTime::from_nanos(15),
                event: EventId(5),
                signal: Signal::Err,
                by: Some(EventId(6)),
            },
        ]
    }

    #[test]
    fn round_trips_every_variant() {
        let original = sample();
        let text = serialize_records(&original);
        let parsed = parse_records(&text).expect("parses");
        // TraceRecord has no PartialEq; compare via re-serialization.
        assert_eq!(text, serialize_records(&parsed));
        assert_eq!(parsed.len(), original.len());
    }

    #[test]
    fn a_fired_line_names_its_deciding_child_or_nothing() {
        let text = "fired\t14\t6\tok\nfired\t15\t5\terr\t6\n";
        let parsed = parse_records(text).expect("parses");
        let by: Vec<_> = parsed
            .iter()
            .map(|r| match r {
                TraceRecord::EventFired { event, by, .. } => (event.0, by.map(|b| b.0)),
                other => panic!("not a fire: {other:?}"),
            })
            .collect();
        assert_eq!(by, [(6, None), (5, Some(6))]);
        assert_eq!(serialize_records(&parsed), text);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_records("nonsense\t1\t2\n").is_err());
        assert!(parse_records("fired\t1\n").is_err());
        assert!(parse_records("fired\t1\t2\tmaybe\n").is_err());
        assert!(parse_records("fired\t1\t2\tok\textra\n").is_err());
        assert!(parse_records("fired\t1\t2\tok\t-\n").is_err());
        assert!(parse_records("fired\t1\t2\tok\t3\t4\n").is_err());
        // The v1 shapes: wait records, and a child line carrying `(k, n)`;
        // the v2 child line, carrying `k`.
        assert!(parse_records("wend\t1\t0\t-\t2\tready\t5\n").is_err());
        assert!(parse_records("child\t1\t2\t3\t2\t3\n").is_err());
        assert!(parse_records("child\t1\t2\t3\t2\n").is_err());
        let e = parse_records("fired\t1\t2\tok\nfired\t1\n").unwrap_err();
        assert_eq!(e.line, 2, "{e}");
    }

    #[test]
    fn empty_and_header_lines_are_skipped() {
        assert!(parse_records("\n# depfast-trace/v3\tdropped\t0\n\n")
            .expect("ok")
            .is_empty());
    }
}
