//! Portable text encoding of incident dumps.
//!
//! Line-based, tab-separated, one section marker per dump:
//!
//! ```text
//! # depfast-incident/v1
//! meta\t<driver>\t<fault>\t<cluster>\t<seed>\t<end_ns>
//! dropped\t<health_dropped>
//! fault\t<node>\t<kind>\t<scheduled_ns|->\t<onset_ns>\t<cleared_ns|->\t<severity>
//! event\t<t_ns>\t<node>\t<layer>\t<transition>\t<evidence>[\t<group>]
//! tput\t<t_ns>\t<ops_per_sec>
//! ```
//!
//! The trailing `<group>` field is written only for group-scoped events
//! (multi-group runs), and the `dropped` line only when the run lost
//! health events at the tracer capacity cap, so legacy dumps serialize
//! byte-identically to the original form.
//!
//! Evidence strings are escaped (`\t`, `\n`, `\\`), everything else is
//! plain. A file may hold any number of dumps; each starts with the
//! header line. The encoding is a pure function of the dumps, so
//! same-seed runs write byte-identical files — the property the
//! determinism tests pin.

use depfast_metrics::text::{unescape, Field, Fields, LineError};

use crate::{Event, FaultEntry, IncidentDump};

/// Header line starting each serialized dump.
pub const HEADER: &str = "# depfast-incident/v1";

fn opt_ns(v: Option<u64>) -> String {
    v.map_or_else(|| "-".to_string(), |n| n.to_string())
}

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
                "fault\t{}\t{}\t{}\t{}\t{}\t{:.6}\n",
                f.node,
                Field(&f.kind),
                opt_ns(f.scheduled_ns),
                f.onset_ns,
                opt_ns(f.cleared_ns),
                f.severity
            ));
        }
        for e in &d.events {
            out.push_str(&format!(
                "event\t{}\t{}\t{}\t{}\t{}",
                e.t_ns,
                e.node,
                Field(&e.layer),
                Field(&e.transition),
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
            "fault" => d.faults.push(FaultEntry {
                node: f.parse("node")?,
                kind: unescape(f.next("kind")?),
                scheduled_ns: f.opt("scheduled_ns")?,
                onset_ns: f.parse("onset_ns")?,
                cleared_ns: f.opt("cleared_ns")?,
                severity: f.parse("severity")?,
            }),
            "event" => d.events.push(Event {
                t_ns: f.parse("t_ns")?,
                node: f.parse("node")?,
                layer: unescape(f.next("layer")?),
                transition: unescape(f.next("transition")?),
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
    }
}
