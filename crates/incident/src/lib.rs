//! Incident observability: joining *ground truth* with *system reaction*.
//!
//! Every other observability layer in this repo answers "what did the
//! system do?" — metrics, causal traces, wait profiles. This crate
//! answers the question the paper makes first-class: **was the fail-slow
//! machinery itself fast, correct, and aimed at the right node?**
//!
//! The join has two sides:
//!
//! - the **fault ledger** ([`depfast_fault::FaultLedger`]): what was
//!   actually injected, into which node, from when to when, how hard —
//!   exact virtual-clock timestamps, because the injector wrote them;
//! - the **health-event timeline** ([`depfast::HealthEvent`]): every
//!   structured transition any reacting layer reported — detector
//!   suspicions and clears, blame confirmations, DepFastRaft quarantine /
//!   probe / chunk / resume, leader-mitigation demote / campaign.
//!
//! An [`IncidentDump`] snapshots both sides (plus the run's throughput
//! series) in plain data. From a dump this crate derives:
//!
//! - a [`scorecard`] — time-to-detect, time-to-mitigate,
//!   time-to-recover, false positives / negatives, misattribution;
//! - a human-readable [`report`](crate::render_report);
//! - an incident track for the Chrome/Perfetto export
//!   ([`incident_track`]);
//! - a portable text encoding ([`serialize_dumps`] / [`parse_dumps`]):
//!   the `incident` sections of a `.run` file, rendered offline by
//!   `depfast-inspect`.
//!
//! Everything is a pure function of the dump, and dumps are
//! [canonicalized](IncidentDump::canonicalize), so same-seed runs render
//! byte-identical artifacts.

#![warn(missing_docs)]

pub mod report;
pub mod scorecard;
pub mod serial;

pub use report::render_report;
pub use scorecard::{score, ScoreCell, RECOVERY_BAND};
pub use serial::{parse_dumps, serialize_dumps};

use depfast_trace_analysis::{IncidentMark, IncidentSpan};

/// One health-state transition, in plain data (see
/// [`depfast::HealthEvent`] for the live form).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Event {
    /// Virtual time, nanoseconds.
    pub t_ns: u64,
    /// Subject node.
    pub node: u32,
    /// Reacting layer: `detector`, `raft`, `mitigation`.
    pub layer: String,
    /// State transition, e.g. `suspect`, `quarantine`, `probe`.
    pub transition: String,
    /// Supporting evidence.
    pub evidence: String,
    /// Raft group the transition is scoped to, when the reacting layer
    /// is group-aware (multi-group raft events); `None` for node-level
    /// layers (detector, mitigation) and legacy single-group runs.
    /// Kept last so the derived canonical ordering only uses it as a
    /// final tiebreaker — single-group dumps sort exactly as before.
    pub group: Option<u32>,
}

impl From<depfast::HealthEvent> for Event {
    fn from(e: depfast::HealthEvent) -> Self {
        Event {
            t_ns: e.t.as_nanos(),
            node: e.node.0,
            layer: e.layer.to_string(),
            transition: e.transition.to_string(),
            evidence: e.evidence,
            group: e.group,
        }
    }
}

/// One injected fault, in plain data (see
/// [`depfast_fault::FaultRecord`] for the live form).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEntry {
    /// Afflicted node.
    pub node: u32,
    /// Fault name ([`depfast_fault::FaultKind::name`]).
    pub kind: String,
    /// Scheduled onset, if the injection was scheduled.
    pub scheduled_ns: Option<u64>,
    /// Actual onset.
    pub onset_ns: u64,
    /// Clear time; `None` if the fault never healed.
    pub cleared_ns: Option<u64>,
    /// Injected intensity in `(0, 1]`.
    pub severity: f64,
}

impl From<&depfast_fault::FaultRecord> for FaultEntry {
    fn from(r: &depfast_fault::FaultRecord) -> Self {
        FaultEntry {
            node: r.node.0,
            kind: r.kind.name().to_string(),
            scheduled_ns: r.scheduled.map(|t| t.as_nanos()),
            onset_ns: r.onset.as_nanos(),
            cleared_ns: r.cleared.map(|t| t.as_nanos()),
            severity: r.severity,
        }
    }
}

/// Everything the incident layer knows about one run: identity, ground
/// truth, reaction timeline, and the throughput series the
/// time-to-recover judgment needs.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentDump {
    /// Driver under test (e.g. `DepFast`, `Sync`).
    pub driver: String,
    /// Injected fault scenario (e.g. `Disk Slowness`, `none`).
    pub fault: String,
    /// Cluster shape, e.g. `3x64` (servers × clients).
    pub cluster: String,
    /// Simulation seed.
    pub seed: u64,
    /// Ground truth: the fault ledger.
    pub faults: Vec<FaultEntry>,
    /// Reaction: the health-event timeline.
    pub events: Vec<Event>,
    /// `(t_ns, ops/s)` per sampling interval, virtual time.
    pub throughput: Vec<(u64, f64)>,
    /// End of the observed window, nanoseconds (open faults and
    /// suspicions extend to here in the incident track).
    pub end_ns: u64,
    /// Health events lost at the tracer's capacity cap
    /// (`trace.health_dropped`). Non-zero means `events` is an
    /// *incomplete* timeline; reports must surface this rather than
    /// present a truncated timeline as the whole story.
    pub health_dropped: u64,
}

impl IncidentDump {
    /// Canonical ordering: faults by `(onset, node)`, events by
    /// `(t, node, layer, transition, evidence)`, throughput by time.
    /// Recording order is already deterministic for a fixed seed; the
    /// canonical sort additionally makes artifacts stable under
    /// refactorings that only reorder same-timestamp recordings.
    pub fn canonicalize(&mut self) {
        self.faults.sort_by(|a, b| {
            (a.onset_ns, a.node, &a.kind)
                .partial_cmp(&(b.onset_ns, b.node, &b.kind))
                .expect("no NaN in fault ordering keys")
        });
        self.events.sort();
        self.throughput.sort_by_key(|(t, _)| *t);
    }

    /// The timeline restricted to `layer`.
    pub fn events_in<'a>(&'a self, layer: &'a str) -> impl Iterator<Item = &'a Event> + 'a {
        self.events.iter().filter(move |e| e.layer == layer)
    }
}

/// Projects a dump onto the Chrome export's incident track: faults and
/// suspicion lifetimes become spans, every timeline event becomes an
/// instant mark. Outputs are canonically ordered (the dump should be
/// [canonicalized](IncidentDump::canonicalize) first).
pub fn incident_track(dump: &IncidentDump) -> (Vec<IncidentSpan>, Vec<IncidentMark>) {
    let mut spans = Vec::new();
    for f in &dump.faults {
        spans.push(IncidentSpan {
            node: f.node,
            name: format!("fault: {}", f.kind),
            detail: format!(
                "severity {:.3}{}",
                f.severity,
                if f.cleared_ns.is_none() {
                    " (never cleared)"
                } else {
                    ""
                }
            ),
            start_ns: f.onset_ns,
            end_ns: f.cleared_ns.unwrap_or(dump.end_ns),
        });
    }
    // Suspicion lifetimes: pair detector suspect → clear per node.
    let mut open: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
    let mut suspicion_spans = Vec::new();
    for e in dump.events_in("detector") {
        match e.transition.as_str() {
            "suspect" => {
                open.entry(e.node).or_insert(e.t_ns);
            }
            "clear" => {
                if let Some(start) = open.remove(&e.node) {
                    suspicion_spans.push((e.node, start, e.t_ns));
                }
            }
            _ => {}
        }
    }
    for (node, start) in open {
        suspicion_spans.push((node, start, dump.end_ns));
    }
    suspicion_spans.sort_unstable();
    for (node, start, end) in suspicion_spans {
        spans.push(IncidentSpan {
            node,
            name: "suspected".to_string(),
            detail: String::new(),
            start_ns: start,
            end_ns: end,
        });
    }
    let marks = dump
        .events
        .iter()
        .map(|e| IncidentMark {
            node: e.node,
            t_ns: e.t_ns,
            name: format!("{}: {}", e.layer, e.transition),
            detail: e.evidence.clone(),
        })
        .collect();
    (spans, marks)
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_dump() -> IncidentDump {
        IncidentDump {
            driver: "DepFast".into(),
            fault: "Disk Slowness".into(),
            cluster: "3x64".into(),
            seed: 20210531,
            faults: vec![FaultEntry {
                node: 2,
                kind: "Disk Slowness".into(),
                scheduled_ns: Some(2_000_000_000),
                onset_ns: 2_000_000_000,
                cleared_ns: Some(3_200_000_000),
                severity: 0.992,
            }],
            events: vec![
                Event {
                    t_ns: 2_400_000_000,
                    node: 2,
                    layer: "detector".into(),
                    transition: "suspect".into(),
                    evidence: "append_entries: window mean 40000us > 3x baseline 900us".into(),
                    group: None,
                },
                Event {
                    t_ns: 2_450_000_000,
                    node: 2,
                    layer: "raft".into(),
                    transition: "quarantine".into(),
                    evidence: "append window full; acked=1200 leader_last=1500".into(),
                    group: None,
                },
                Event {
                    t_ns: 3_400_000_000,
                    node: 2,
                    layer: "detector".into(),
                    transition: "clear".into(),
                    evidence: "append_entries: window mean 1000us back under baseline 900us".into(),
                    group: None,
                },
            ],
            throughput: vec![
                (1_000_000_000, 1000.0),
                (1_500_000_000, 1010.0),
                (2_000_000_000, 990.0),
                (2_500_000_000, 950.0),
                (3_000_000_000, 940.0),
                (3_500_000_000, 1005.0),
                (4_000_000_000, 1000.0),
            ],
            end_ns: 4_000_000_000,
            health_dropped: 0,
        }
    }

    #[test]
    fn canonicalize_orders_by_time_then_identity() {
        let mut d = sample_dump();
        d.events.reverse();
        d.canonicalize();
        let ts: Vec<u64> = d.events.iter().map(|e| e.t_ns).collect();
        assert_eq!(ts, vec![2_400_000_000, 2_450_000_000, 3_400_000_000]);
    }

    #[test]
    fn incident_track_spans_faults_and_suspicions() {
        let mut d = sample_dump();
        d.canonicalize();
        let (spans, marks) = incident_track(&d);
        assert_eq!(spans.len(), 2, "fault + suspicion: {spans:?}");
        assert_eq!(spans[0].name, "fault: Disk Slowness");
        assert_eq!(
            (spans[0].start_ns, spans[0].end_ns),
            (2_000_000_000, 3_200_000_000)
        );
        assert_eq!(spans[1].name, "suspected");
        assert_eq!(
            (spans[1].start_ns, spans[1].end_ns),
            (2_400_000_000, 3_400_000_000)
        );
        assert_eq!(marks.len(), 3);
        assert_eq!(marks[0].name, "detector: suspect");
    }

    #[test]
    fn never_cleared_fault_extends_to_window_end() {
        let mut d = sample_dump();
        d.faults[0].cleared_ns = None;
        // Drop the clear so the suspicion stays open too.
        d.events.retain(|e| e.transition != "clear");
        let (spans, _) = incident_track(&d);
        assert_eq!(spans[0].end_ns, d.end_ns);
        assert!(spans[0].detail.contains("never cleared"));
        assert_eq!(spans[1].end_ns, d.end_ns);
    }
}
