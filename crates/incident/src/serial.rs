//! Portable text encoding of incident dumps.
//!
//! Line-based, tab-separated, one section marker per dump. A `fault` line
//! is one [`FaultRecord`] and an `event` line one [`HealthEvent`], times
//! in virtual nanoseconds:
//!
//! ```text
//! # depfast-incident/v2
//! meta\t<driver>\t<fault>\t<cluster>\t<seed>\t<end_ns>
//! dropped\t<health_dropped>
//! fault\t<node>\t<kind>\t<onset_ns>\t<cleared_ns|->\t<severity>
//! event\t<t_ns>\t<node>\t<layer>\t<transition>\t<evidence>[\t<group>]
//! tput\t<t_ns>\t<ops_per_sec>
//! ```
//!
//! The trailing `<group>` field is written only for group-scoped events
//! (multi-group runs), and the `dropped` line only when the run lost
//! health events at the tracer capacity cap.
//!
//! Text fields are escaped ([`Field`]); the fault kind, layer and
//! transition come back as the `&'static str` labels the records hold
//! ([`intern`]). A file may hold any number of dumps; each starts with
//! the header line. The encoding is a pure function of the dumps, so
//! same-seed runs write byte-identical files — the property the
//! determinism tests pin.

use depfast::HealthEvent;
use depfast_fault::FaultRecord;
use depfast_metrics::text::{intern, unescape, Field, Fields, LineError};
use simkit::{NodeId, SimTime};

use crate::IncidentDump;

/// Header line starting each serialized dump.
pub const HEADER: &str = "# depfast-incident/v2";

/// Serializes `dumps` into one text artifact.
pub fn serialize_dumps(dumps: &[IncidentDump]) -> String {
    let mut out = String::new();
    for d in dumps {
        out.push_str(HEADER);
        out.push('\n');
        out.push_str(&format!(
            "meta\t{}\t{}\t{}\t{}\t{}\n",
            Field(&d.driver),
            Field(&d.fault),
            Field(&d.cluster),
            d.seed,
            d.end_ns
        ));
        if d.health_dropped > 0 {
            out.push_str(&format!("dropped\t{}\n", d.health_dropped));
        }
        for f in &d.faults {
            out.push_str(&format!(
                "fault\t{}\t{}\t{}\t{}\t{:.6}\n",
                f.node.0,
                Field(f.kind),
                f.onset.as_nanos(),
                f.cleared
                    .map_or_else(|| "-".to_string(), |t| t.as_nanos().to_string()),
                f.severity
            ));
        }
        for e in &d.events {
            out.push_str(&format!(
                "event\t{}\t{}\t{}\t{}\t{}",
                e.t.as_nanos(),
                e.node.0,
                Field(e.layer),
                Field(e.transition),
                Field(&e.evidence)
            ));
            if let Some(g) = e.group {
                out.push_str(&format!("\t{g}"));
            }
            out.push('\n');
        }
        for (t, v) in &d.throughput {
            out.push_str(&format!("tput\t{t}\t{v:.6}\n"));
        }
    }
    out
}

/// Parses text produced by [`serialize_dumps`].
pub fn parse_dumps(text: &str) -> Result<Vec<IncidentDump>, LineError> {
    let mut dumps: Vec<IncidentDump> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        if line == HEADER {
            dumps.push(IncidentDump {
                driver: String::new(),
                fault: String::new(),
                cluster: String::new(),
                seed: 0,
                faults: Vec::new(),
                events: Vec::new(),
                throughput: Vec::new(),
                end_ns: 0,
                health_dropped: 0,
            });
            continue;
        }
        let mut f = Fields::new(lineno + 1, line);
        let d = dumps
            .last_mut()
            .ok_or_else(|| f.err(format!("record before {HEADER:?} header")))?;
        match f.next("record kind")? {
            "meta" => {
                d.driver = unescape(f.next("driver")?);
                d.fault = unescape(f.next("fault")?);
                d.cluster = unescape(f.next("cluster")?);
                d.seed = f.parse("seed")?;
                d.end_ns = f.parse("end_ns")?;
            }
            "dropped" => d.health_dropped = f.parse("dropped")?,
            "fault" => d.faults.push(FaultRecord {
                node: NodeId(f.parse("node")?),
                kind: intern(&unescape(f.next("kind")?)),
                onset: SimTime::from_nanos(f.parse("onset_ns")?),
                cleared: f.opt("cleared_ns")?.map(SimTime::from_nanos),
                severity: f.parse("severity")?,
            }),
            "event" => d.events.push(HealthEvent {
                t: SimTime::from_nanos(f.parse("t_ns")?),
                node: NodeId(f.parse("node")?),
                layer: intern(&unescape(f.next("layer")?)),
                transition: intern(&unescape(f.next("transition")?)),
                evidence: unescape(f.next("evidence")?),
                // Written for group-scoped events only.
                group: f.more().then(|| f.parse("group")).transpose()?,
            }),
            "tput" => d.throughput.push((f.parse("t_ns")?, f.parse("ops")?)),
            other => return Err(f.err(format!("unknown record kind {other:?}"))),
        }
        f.end()?;
    }
    Ok(dumps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_exactly() {
        let mut d = crate::tests::sample_dump();
        d.canonicalize();
        let text = serialize_dumps(&[d.clone(), d.clone()]);
        let back = parse_dumps(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0], d);
        assert_eq!(back[1], d);
        // And the encoding itself is stable.
        assert_eq!(serialize_dumps(&back), text);
    }

    /// The records the run keeps, written and read back: a group-scoped
    /// event and a fault that never cleared (`-`), with every label
    /// interned to one `&'static str` per distinct text.
    #[test]
    fn live_records_round_trip_with_interned_labels() {
        let mut d = crate::tests::sample_dump();
        d.faults[0].cleared = None;
        d.events[1].group = Some(3);
        d.canonicalize();
        let text = serialize_dumps(&[d.clone()]);
        assert!(text.starts_with("# depfast-incident/v2\n"), "{text}");
        assert!(
            text.contains("fault\t2\tDisk Slowness\t2000000000\t-\t0.992000\n"),
            "{text}"
        );
        let (a, b) = (parse_dumps(&text).unwrap(), parse_dumps(&text).unwrap());
        assert_eq!(a, vec![d.clone()]);
        assert_eq!(a[0].faults[0].cleared, None);
        assert_eq!(a[0].events[1].group, Some(3));
        // Equal by content to what was written, and one string per label.
        assert_eq!(a[0].faults[0].kind, d.faults[0].kind);
        assert!(std::ptr::eq(a[0].faults[0].kind, b[0].faults[0].kind));
        assert!(std::ptr::eq(a[0].events[0].layer, b[0].events[2].layer));
        assert!(std::ptr::eq(
            a[0].events[1].transition,
            b[0].events[1].transition
        ));
        assert_eq!(serialize_dumps(&a), text);
    }

    #[test]
    fn evidence_with_tabs_and_newlines_survives() {
        let mut d = crate::tests::sample_dump();
        d.events[0].evidence = "a\tb\nc\\d".into();
        let back = parse_dumps(&serialize_dumps(&[d.clone()])).unwrap();
        assert_eq!(back[0].events[0].evidence, "a\tb\nc\\d");
    }

    #[test]
    fn group_scoped_events_round_trip() {
        let mut d = crate::tests::sample_dump();
        d.events[1].group = Some(3);
        d.canonicalize();
        let text = serialize_dumps(&[d.clone()]);
        // Only the group-scoped line grows a 7th field.
        let event_lines: Vec<&str> = text.lines().filter(|l| l.starts_with("event\t")).collect();
        assert_eq!(event_lines[1].split('\t').count(), 7);
        assert_eq!(event_lines[0].split('\t').count(), 6);
        let back = parse_dumps(&text).unwrap();
        assert_eq!(back[0], d);
        assert_eq!(serialize_dumps(&back), text);
    }

    #[test]
    fn health_dropped_round_trips_and_stays_out_of_clean_dumps() {
        let mut d = crate::tests::sample_dump();
        let clean = serialize_dumps(&[d.clone()]);
        assert!(
            !clean.contains("dropped\t"),
            "clean dumps keep legacy bytes"
        );
        d.health_dropped = 7;
        let text = serialize_dumps(&[d.clone()]);
        assert!(text.contains("dropped\t7\n"));
        let back = parse_dumps(&text).unwrap();
        assert_eq!(back[0], d);
        assert_eq!(serialize_dumps(&back), text);
    }

    #[test]
    fn garbage_is_rejected_with_line_numbers() {
        assert_eq!(parse_dumps("event\t1\t2\tx\ty\tz").unwrap_err().line, 1);
        let bad = format!("{HEADER}\nmeta\tonly\tthree\tfields");
        assert_eq!(parse_dumps(&bad).unwrap_err().line, 2);
        let long = format!("{HEADER}\ntput\t1\t2.0\t3");
        assert!(parse_dumps(&long).unwrap_err().msg.contains("trailing"));
        // A v1 fault line carries a `scheduled_ns` column v2 does not.
        let v1 = format!("{HEADER}\nfault\t2\tDisk Slowness\t7\t7\t-\t0.5");
        assert_eq!(parse_dumps(&v1).unwrap_err().line, 2);
    }
}
