//! Critical-path blame attribution over committed commands.

use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

use depfast::event::Signal;
use depfast::{EventId, EventKind};
use simkit::NodeId;

use depfast::trace::TraceIndex;

/// What a blame segment is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlameKey {
    /// The node whose slowness the segment's duration evidences.
    pub node: NodeId,
    /// The layer the time was spent in (`disk`, `rpc`, `queue`, `apply`,
    /// a driver phase label, or `other` for uncovered residual).
    pub layer: &'static str,
}

/// Aggregate critical-path blame across all committed commands in a
/// trace. Durations are request-seconds of critical-path exposure;
/// [`BlameReport::rows`] gives each one's share of the total.
#[derive(Debug, Default, Clone)]
pub struct BlameReport {
    /// Committed commands analyzed.
    pub commits: usize,
    /// Total blamed time across all segments.
    pub total: Duration,
    /// Blame per `(node, layer)`.
    pub by: BTreeMap<BlameKey, Duration>,
}

impl BlameReport {
    fn charge(&mut self, node: NodeId, layer: &'static str, d: Duration) {
        if d.is_zero() {
            return;
        }
        *self.by.entry(BlameKey { node, layer }).or_default() += d;
        self.total += d;
    }

    /// Test probe: fraction of all blame charged to `node` across all
    /// layers (0 when the report is empty).
    #[doc(hidden)]
    pub fn node_share(&self, node: NodeId) -> f64 {
        if self.total.is_zero() {
            return 0.0;
        }
        let by_node = self.by.iter().filter(|(k, _)| k.node == node);
        let node_total: Duration = by_node.map(|(_, d)| *d).sum();
        node_total.as_secs_f64() / self.total.as_secs_f64()
    }

    /// Rows sorted by descending blame (ties broken by key for
    /// determinism): `(key, duration, share)`.
    pub fn rows(&self) -> Vec<(BlameKey, Duration, f64)> {
        let mut rows: Vec<_> = self.by.iter().map(|(k, d)| (*k, *d)).collect();
        rows.sort_by_key(|(k, d)| (std::cmp::Reverse(*d), *k));
        rows.into_iter()
            .map(|(k, d)| {
                let share = if self.total.is_zero() {
                    0.0
                } else {
                    d.as_secs_f64() / self.total.as_secs_f64()
                };
                (k, d, share)
            })
            .collect()
    }

    /// A formatted top-`k` blame table.
    pub fn table(&self, k: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "critical-path blame over {} committed command(s), {:.3}s total\n",
            self.commits,
            self.total.as_secs_f64()
        ));
        out.push_str(&format!(
            "{:<6} {:<14} {:>12} {:>8}\n",
            "node", "layer", "blame", "share"
        ));
        for (key, d, share) in self.rows().into_iter().take(k) {
            out.push_str(&format!(
                "{:<6} {:<14} {:>10.3}ms {:>7.1}%\n",
                key.node.0,
                key.layer,
                d.as_secs_f64() * 1e3,
                share * 100.0
            ));
        }
        out
    }
}

fn nanos_between(a: simkit::SimTime, b: simkit::SimTime) -> Duration {
    Duration::from_nanos(b.as_nanos().saturating_sub(a.as_nanos()))
}

/// Computes the aggregate blame report for every committed command in
/// the indexed trace (see the crate docs for the decomposition rules).
pub fn blame_report(index: &TraceIndex) -> BlameReport {
    let mut report = BlameReport::default();

    // Committed commands: proposal completion events that fired Ok.
    let mut proposals: Vec<EventId> = index
        .events
        .iter()
        .filter(|(id, info)| info.label == "proposal" && index.ok_fire_time(**id).is_some())
        .map(|(id, _)| *id)
        .collect();
    proposals.sort();

    // Phase spans per node, sorted by begin, for phase-mode decomposition.
    let mut phases: HashMap<NodeId, Vec<(u64, u64, NodeId, &'static str)>> = HashMap::new();
    for (id, info) in &index.events {
        if let EventKind::Phase { blame } = info.kind {
            if let Some(end) = index.ok_fire_time(*id) {
                phases.entry(info.node).or_default().push((
                    info.t.as_nanos(),
                    end.as_nanos(),
                    blame,
                    info.label,
                ));
            }
        }
    }
    for spans in phases.values_mut() {
        spans.sort();
    }

    for proposal in proposals {
        let info = index.events[&proposal];
        let t0 = info.t;
        let t3 = index.ok_fire_time(proposal).expect("filtered to committed");
        report.commits += 1;

        if let Some(round) = index.round_of.get(&proposal) {
            blame_round(index, &mut report, info.node, t0, t3, *round);
        } else {
            blame_phases(
                &mut report,
                info.node,
                t0.as_nanos(),
                t3.as_nanos(),
                phases.get(&info.node).map(Vec::as_slice).unwrap_or(&[]),
            );
        }
    }
    report
}

/// Round mode: queue → the round's deciding child → apply.
fn blame_round(
    index: &TraceIndex,
    report: &mut BlameReport,
    leader: NodeId,
    t0: simkit::SimTime,
    t3: simkit::SimTime,
    round: EventId,
) {
    let Some(round_info) = index.events.get(&round) else {
        report.charge(leader, "other", nanos_between(t0, t3));
        return;
    };
    let t1 = round_info.t;
    let (t2, by) = match index.fired.get(&round) {
        Some(&(t, Signal::Ok, by)) => (t, by),
        _ => (t3, None),
    };
    report.charge(leader, "queue", nanos_between(t0, t1));

    // The child that made the quorum ready (its k-th Ok arrival) alone
    // bounds the round's duration from below.
    let round_blame = match by.and_then(|c| index.events.get(&c)) {
        Some(child) => match child.kind {
            EventKind::Io => (child.node, "disk"),
            EventKind::Rpc { target } => (target, "rpc"),
            EventKind::Phase { blame } => (blame, child.label),
            _ => (child.node, child.kind.name()),
        },
        None => (leader, "other"),
    };
    report.charge(round_blame.0, round_blame.1, nanos_between(t1, t2));
    report.charge(leader, "apply", nanos_between(t2, t3));
}

/// Phase mode: intersect the proposal window with the leader's phase
/// spans; residual goes to `(leader, "other")`.
fn blame_phases(
    report: &mut BlameReport,
    leader: NodeId,
    t0: u64,
    t3: u64,
    spans: &[(u64, u64, NodeId, &'static str)],
) {
    let mut cursor = t0;
    let mut covered = 0u64;
    for (begin, end, blame, label) in spans {
        if *end <= cursor || *begin >= t3 {
            continue;
        }
        let s = (*begin).max(cursor);
        let e = (*end).min(t3);
        if e > s {
            report.charge(*blame, label, Duration::from_nanos(e - s));
            covered += e - s;
            cursor = e;
        }
    }
    report.charge(
        leader,
        "other",
        Duration::from_nanos((t3.saturating_sub(t0)).saturating_sub(covered)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use depfast::TraceRecord;
    use simkit::SimTime;

    fn created(t: u64, node: u32, event: u64, kind: EventKind, label: &'static str) -> TraceRecord {
        TraceRecord::EventCreated {
            t: SimTime::from_nanos(t),
            node: NodeId(node),
            coro: None,
            event: EventId(event),
            kind,
            label,
            ctx: None,
        }
    }

    fn fired(t: u64, event: u64) -> TraceRecord {
        TraceRecord::EventFired {
            t: SimTime::from_nanos(t),
            event: EventId(event),
            signal: Signal::Ok,
            by: None,
        }
    }

    #[test]
    fn round_mode_blames_the_deciding_child() {
        // Proposal 0 on node 0; round 1 is a 2-of-3 quorum over local
        // disk (2) and RPCs to nodes 1 (3) and 2 (4). Node 2's ack is
        // last and is NOT waited for; node 1's ack is the 2nd, and the
        // round's fire names it.
        let records = vec![
            created(100, 0, 0, EventKind::Notify, "proposal"),
            created(200, 0, 1, EventKind::Quorum, "replicate"),
            TraceRecord::RoundLink {
                t: SimTime::from_nanos(200),
                proposal: EventId(0),
                round: EventId(1),
            },
            created(200, 0, 2, EventKind::Io, "wal"),
            created(200, 0, 3, EventKind::Rpc { target: NodeId(1) }, "append"),
            created(200, 0, 4, EventKind::Rpc { target: NodeId(2) }, "append"),
            fired(300, 2),  // local disk first
            fired(1200, 3), // node 1 completes the quorum
            TraceRecord::EventFired {
                t: SimTime::from_nanos(1200),
                event: EventId(1),
                signal: Signal::Ok,
                by: Some(EventId(3)),
            },
            fired(9000, 4), // node 2 straggles, off the critical path
            fired(1500, 0), // applied
        ];
        let report = blame_report(&TraceIndex::build(&records));
        assert_eq!(report.commits, 1);
        assert_eq!(
            report.by[&BlameKey {
                node: NodeId(0),
                layer: "queue"
            }],
            Duration::from_nanos(100)
        );
        assert_eq!(
            report.by[&BlameKey {
                node: NodeId(1),
                layer: "rpc"
            }],
            Duration::from_nanos(1000)
        );
        assert_eq!(
            report.by[&BlameKey {
                node: NodeId(0),
                layer: "apply"
            }],
            Duration::from_nanos(300)
        );
        // The straggler got nothing.
        let share = |n| report.node_share(NodeId(n));
        assert_eq!(share(2), 0.0);
        assert_eq!(report.total, Duration::from_nanos(1400));
        assert!(share(1) > share(0) && share(1) > share(2));
    }

    /// One step of a live round; the number names a child: 0 is the
    /// leader's WAL write, 1 and 2 are appends to nodes 1 and 2.
    #[derive(Clone, Copy)]
    enum Step {
        Add(usize),
        Ok(usize),
        Err(usize),
        Seal,
    }

    /// The tally names the child that decided its round on the round's
    /// fire record, and blame charges the round to that child; a round
    /// that did not fire `Ok` is charged to the leader's `other`.
    #[test]
    fn a_rounds_deciding_child_is_the_tallys() {
        use depfast::event::{QuorumEvent, QuorumMode, Watchable};
        use depfast::{EventHandle, Runtime};
        use simkit::Sim;
        use std::time::Duration as D;
        use QuorumMode::{All, Count, Majority};
        use Step::{Add, Err, Ok, Seal};
        // (case, mode, script, deciding child, the round's signal)
        type Row = (&'static str, QuorumMode, &'static [Step], usize, Signal);
        let rows: &[Row] = &[
            (
                "2 of 3, replies out of order",
                Count(2),
                &[Add(0), Add(1), Add(2), Ok(2), Ok(1), Ok(0)],
                1,
                Signal::Ok,
            ),
            (
                "a pre-fired self vote added first",
                Count(2),
                &[Ok(0), Add(0), Add(1), Add(2), Ok(2), Ok(1)],
                2,
                Signal::Ok,
            ),
            (
                "majority, past a rejection",
                Majority,
                &[Add(0), Add(1), Add(2), Ok(1), Err(0), Ok(2)],
                2,
                Signal::Ok,
            ),
            (
                "all, resolved at seal",
                All,
                &[Add(0), Add(1), Add(2), Ok(1), Ok(2), Ok(0), Seal],
                0,
                Signal::Ok,
            ),
            (
                "an Err verdict",
                Count(2),
                &[Add(0), Add(1), Add(2), Seal, Ok(0), Err(1), Err(2)],
                2,
                Signal::Err,
            ),
        ];
        for &(case, mode, script, decider, signal) in rows {
            let sim = Sim::new(1);
            let rt = Runtime::new_sim(sim.clone(), NodeId(0));
            rt.tracer().set_record_full(true);
            let proposal = EventHandle::new(&rt, EventKind::Notify, "proposal");
            let round = QuorumEvent::labeled(&rt, mode, "replicate");
            rt.tracer().record(|| TraceRecord::RoundLink {
                t: rt.now(),
                proposal: proposal.id(),
                round: round.handle().id(),
            });
            let children = [
                EventHandle::new(&rt, EventKind::Io, "wal"),
                EventHandle::new(&rt, EventKind::Rpc { target: NodeId(1) }, "append"),
                EventHandle::new(&rt, EventKind::Rpc { target: NodeId(2) }, "append"),
            ];
            let (rt2, round2, proposal2) = (rt.clone(), round.clone(), proposal.clone());
            let t2 = sim.block_on(async move {
                let mut t2 = None;
                for step in script {
                    rt2.sleep(D::from_micros(1)).await;
                    match *step {
                        Add(i) => round2.add(&children[i]),
                        Ok(i) => children[i].fire(Signal::Ok),
                        Err(i) => children[i].fire(Signal::Err),
                        Seal => round2.seal(),
                    }
                    if t2.is_none() && round2.handle().fired().is_some() {
                        t2 = Some(rt2.now());
                    }
                }
                rt2.sleep(D::from_micros(1)).await;
                proposal2.fire(Signal::Ok);
                (t2.expect("the round fired"), children[decider].id())
            });
            let (t2, decider) = t2;
            let records = rt.tracer().take_records();
            let fire = records.iter().find_map(|r| match r {
                TraceRecord::EventFired {
                    event, signal, by, ..
                } if *event == round.handle().id() => Some((*signal, *by)),
                _ => None,
            });
            assert_eq!(fire, Some((signal, Some(decider))), "{case}");

            let index = TraceIndex::build(&records);
            let report = blame_report(&index);
            let t3 = rt.now();
            let (key, d) = match signal {
                Signal::Ok => {
                    let child = index.events[&decider];
                    let key = match child.kind {
                        EventKind::Rpc { target } => (target, "rpc"),
                        _ => (NodeId(0), "disk"),
                    };
                    (key, t2)
                }
                Signal::Err => ((NodeId(0), "other"), t3),
            };
            let key = BlameKey {
                node: key.0,
                layer: key.1,
            };
            assert_eq!(report.by[&key], D::from_nanos(d.as_nanos()), "{case}");
            assert_eq!(report.total, D::from_nanos(t3.as_nanos()), "{case}");
        }
    }

    #[test]
    fn phase_mode_clips_overlaps_and_charges_residual() {
        // Proposal window [1000, 5000] on node 0; a cold_read phase
        // blaming node 2 covers [0, 3500] (clipped to [1000, 3500]) and
        // an apply phase [3500, 4000]; residual 1000ns → other.
        let records = vec![
            created(1000, 0, 0, EventKind::Notify, "proposal"),
            created(0, 0, 1, EventKind::Phase { blame: NodeId(2) }, "cold_read"),
            fired(3500, 1),
            created(3500, 0, 2, EventKind::Phase { blame: NodeId(0) }, "apply"),
            fired(4000, 2),
            fired(5000, 0),
        ];
        let report = blame_report(&TraceIndex::build(&records));
        assert_eq!(
            report.by[&BlameKey {
                node: NodeId(2),
                layer: "cold_read"
            }],
            Duration::from_nanos(2500)
        );
        assert_eq!(
            report.by[&BlameKey {
                node: NodeId(0),
                layer: "apply"
            }],
            Duration::from_nanos(500)
        );
        assert_eq!(
            report.by[&BlameKey {
                node: NodeId(0),
                layer: "other"
            }],
            Duration::from_nanos(1000)
        );
        assert_eq!(report.total, Duration::from_nanos(4000));
        let share = |n| report.node_share(NodeId(n));
        assert!(share(2) > 0.49);
        assert!(share(2) > share(0) && share(2) > share(1));
    }

    #[test]
    fn uncommitted_proposals_are_ignored() {
        let records = vec![created(0, 0, 0, EventKind::Notify, "proposal")];
        let report = blame_report(&TraceIndex::build(&records));
        assert_eq!(report.commits, 0);
        assert!(report.total.is_zero());
        assert_eq!(report.table(5).lines().count(), 2);
    }
}
