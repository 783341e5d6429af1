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
//! An [`IncidentDump`] holds both sides as the run recorded them (plus
//! the run's throughput series). From a dump this crate derives:
//!
//! - a [`scorecard`] — time-to-detect, time-to-mitigate,
//!   time-to-recover, false positives / negatives, misattribution;
//! - a human-readable [`report`](crate::render_report);
//! - a portable text encoding ([`serialize_dumps`] / [`parse_dumps`]):
//!   the `incident` sections of a `.run` file, rendered offline by
//!   `depfast-inspect`.
//!
//! Everything is a pure function of the dump, and dumps are
//! [canonicalized](IncidentDump::canonicalize), so same-seed runs render
//! byte-identical artifacts. The Chrome export's incident track is
//! `depfast-bench`'s: it projects a run's first dump onto its own lane.

#![warn(missing_docs)]

pub mod report;
pub mod scorecard;
pub mod serial;

pub use report::render_report;
pub use scorecard::{score, ScoreCell, RECOVERY_BAND};
pub use serial::{parse_dumps, serialize_dumps};

use depfast::HealthEvent;
use depfast_fault::FaultRecord;

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
    /// Ground truth: the fault ledger's records.
    pub faults: Vec<FaultRecord>,
    /// Reaction: the tracer's health-event timeline.
    pub events: Vec<HealthEvent>,
    /// `(t_ns, ops/s)` per sampling interval, virtual time.
    pub throughput: Vec<(u64, f64)>,
    /// End of the observed window, nanoseconds (open faults and
    /// suspicions extend to here in the Chrome export's incident track).
    pub end_ns: u64,
    /// Health events lost at the tracer's capacity cap
    /// (`trace.health_dropped`). Non-zero means `events` is an
    /// *incomplete* timeline; reports must surface this rather than
    /// present a truncated timeline as the whole story.
    pub health_dropped: u64,
}

impl IncidentDump {
    /// Canonical ordering: faults by `(onset, node, kind)`, events by
    /// their derived order (`t`, `node`, `layer`, `transition`,
    /// `evidence`, `group`), throughput by time.
    /// Recording order is already deterministic for a fixed seed; the
    /// canonical sort additionally makes artifacts stable under
    /// refactorings that only reorder same-timestamp recordings.
    pub fn canonicalize(&mut self) {
        self.faults.sort_by_key(|f| (f.onset, f.node, f.kind));
        self.events.sort();
        self.throughput.sort_by_key(|(t, _)| *t);
    }

    /// The timeline restricted to `layer`.
    pub fn events_in<'a>(&'a self, layer: &'a str) -> impl Iterator<Item = &'a HealthEvent> + 'a {
        self.events.iter().filter(move |e| e.layer == layer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::{NodeId, SimTime};

    /// A health event on node `node` at `t_ns`, with no group.
    pub(crate) fn event(
        t_ns: u64,
        node: u32,
        layer: &'static str,
        transition: &'static str,
        evidence: &str,
    ) -> HealthEvent {
        HealthEvent {
            t: SimTime::from_nanos(t_ns),
            node: NodeId(node),
            layer,
            transition,
            evidence: evidence.to_string(),
            group: None,
        }
    }

    pub(crate) fn sample_dump() -> IncidentDump {
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
                event(
                    2_400_000_000,
                    2,
                    "detector",
                    "suspect",
                    "append_entries: window mean 40000us > 3x baseline 900us",
                ),
                event(
                    2_450_000_000,
                    2,
                    "raft",
                    "quarantine",
                    "append window full; acked=1200 leader_last=1500",
                ),
                event(
                    3_400_000_000,
                    2,
                    "detector",
                    "clear",
                    "append_entries: window mean 1000us back under baseline 900us",
                ),
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
        let ts: Vec<u64> = d.events.iter().map(|e| e.t.as_nanos()).collect();
        assert_eq!(ts, vec![2_400_000_000, 2_450_000_000, 3_400_000_000]);
    }
}
