//! Critical-path blame: one fold over the trace records.
//!
//! Every committed command's latency — its proposal created (`t0`) to its
//! proposal fired `Ok` (`t3`) — is cut into segments, and each segment is
//! charged to a [`BlameKey`]: the node whose slowness the segment's
//! duration evidences and the layer it was spent in. Two modes cover the
//! two driver shapes:
//!
//! - **Round mode**: a `RoundLink` ties the proposal to its replication
//!   round (DepFastRaft). *Queue* (`t0` → round created, `t1`) goes to
//!   the leader; *round* (`t1` → round fired `Ok`, `t2`) to the round's
//!   **deciding child**, the one its `fired` record names — Io → `disk`
//!   on its node, Rpc → `rpc` on its target, a phase → its blame node and
//!   label; *apply* (`t2` → `t3`) to the leader. A round that fired `Err`
//!   or never fired is charged `t1` → `t3` to the leader as `other`, and a
//!   link to a round the stream never created charges the whole window
//!   there.
//! - **Phase mode**: without a link (the legacy drivers), the window is
//!   clipped against the leader's phase spans; each overlap goes to the
//!   span's blame node and label, the uncovered residual to the leader as
//!   `other`.
//!
//! Only a record's first fire counts, the last link of a proposal wins,
//! and zero-length charges are dropped. Concurrent commands share rounds
//! and spans, so blame is request-seconds of critical-path exposure:
//! shares of the total are the meaningful unit.
//!
//! [`Fold`] applies the two laws as the records arrive, in the tracer's
//! order (non-decreasing virtual time), and holds only what is in flight.
//! The tracer feeds it live ([`Tracer::install_blame_fold`]), beside the
//! SPG fold; [`TraceIndex::build`] replays a recorded stream through it.
//!
//! [`Tracer::install_blame_fold`]: crate::Tracer::install_blame_fold
//! [`TraceIndex::build`]: crate::trace::TraceIndex::build

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Duration;

use simkit::{NodeId, SimTime};

use crate::event::{EventId, EventKind, Signal};
use crate::trace::TraceRecord;

/// The label of a proposal's completion event: the commands blame walks.
const PROPOSAL: &str = "proposal";

/// Rows of every ranked table a run renders: the blame table and the
/// inspector's top wait sites.
pub const TABLE_ROWS: usize = 12;

/// What a blame segment is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlameKey {
    /// The node whose slowness the segment's duration evidences.
    pub node: NodeId,
    /// The layer the time was spent in (`disk`, `rpc`, `queue`, `apply`,
    /// a driver phase label, or `other` for uncovered residual).
    pub layer: &'static str,
}

impl BlameKey {
    fn new(node: NodeId, layer: &'static str) -> Self {
        BlameKey { node, layer }
    }

    /// What a round that `child` decided is charged to.
    fn of_child(child: &Created) -> Self {
        match child.kind {
            EventKind::Io => Self::new(child.node, "disk"),
            EventKind::Rpc { target } => Self::new(target, "rpc"),
            EventKind::Phase { blame } => Self::new(blame, child.label),
            kind => Self::new(child.node, kind.name()),
        }
    }
}

/// Aggregate critical-path blame across all committed commands of a run.
/// Durations are request-seconds of critical-path exposure;
/// [`BlameReport::rows`] gives each one's share of the total.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BlameReport {
    /// Committed commands analyzed.
    pub commits: usize,
    /// Total blamed time across all segments.
    pub total: Duration,
    /// Blame per `(node, layer)`.
    pub by: BTreeMap<BlameKey, Duration>,
}

impl BlameReport {
    fn charge(&mut self, charges: impl IntoIterator<Item = (BlameKey, Duration)>) {
        for (key, d) in charges.into_iter().filter(|(_, d)| !d.is_zero()) {
            *self.by.entry(key).or_default() += d;
            self.total += d;
        }
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

    /// A formatted blame table of the top [`TABLE_ROWS`] rows.
    pub fn table(&self) -> String {
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
        for (key, d, share) in self.rows().into_iter().take(TABLE_ROWS) {
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

/// `a` to `b`, zero if `b` is not later.
fn between(a: SimTime, b: SimTime) -> Duration {
    Duration::from_nanos(b.as_nanos().saturating_sub(a.as_nanos()))
}

/// How a round ended, as blame reads it: fired `Ok` at `t2`, decided by a
/// child charged to the key (`None`: a child the stream does not know),
/// or not (`None`: fired `Err`, or never fired).
type Decided = Option<(SimTime, Option<BlameKey>)>;

/// Round mode's law: the charges of a proposal of `leader` committed over
/// `t0` → `t3`, whose round was created at `t1` and `decided` — `None`
/// for a round the stream holds no creation record of.
fn round_charges(
    leader: NodeId,
    t0: SimTime,
    t3: SimTime,
    round: Option<(SimTime, Decided)>,
) -> Vec<(BlameKey, Duration)> {
    let other = BlameKey::new(leader, "other");
    let Some((t1, decided)) = round else {
        return vec![(other, between(t0, t3))];
    };
    let (t2, key) = match decided {
        Some((t2, key)) => (t2, key.unwrap_or(other)),
        None => (t3, other),
    };
    vec![
        (BlameKey::new(leader, "queue"), between(t0, t1)),
        (key, between(t1, t2)),
        (BlameKey::new(leader, "apply"), between(t2, t3)),
    ]
}

/// One closed phase span: begin and end (ns), and what it is charged to.
/// Spans sort by begin, then end, then key.
type Span = (u64, u64, BlameKey);

/// Phase mode's law: the charges of a proposal of `leader` committed over
/// `t0` → `t3` (ns), against its node's closed phase `spans`, sorted.
/// Each span is clipped to the window and to the end of the span charged
/// before it (overlapping spans charge each instant once); the residual
/// is `other`.
fn phase_charges(leader: NodeId, t0: u64, t3: u64, spans: &[Span]) -> Vec<(BlameKey, Duration)> {
    let mut out = Vec::new();
    let (mut cursor, mut covered) = (t0, 0);
    for &(begin, end, key) in spans {
        if end <= cursor || begin >= t3 {
            continue;
        }
        let (s, e) = (begin.max(cursor), end.min(t3));
        if e > s {
            out.push((key, Duration::from_nanos(e - s)));
            covered += e - s;
            cursor = e;
        }
    }
    let residual = t3.saturating_sub(t0).saturating_sub(covered);
    out.push((
        BlameKey::new(leader, "other"),
        Duration::from_nanos(residual),
    ));
    out
}

/// Creation facts of an event that has not fired.
#[derive(Debug, Clone, Copy)]
struct Created {
    t: SimTime,
    node: NodeId,
    kind: EventKind,
    label: &'static str,
}

/// A round some held proposal is linked to.
struct Round {
    /// When it was created.
    t1: SimTime,
    /// Its place in [`Fold::undecided`] while it is undecided.
    seq: u64,
    /// Linked proposals that have not fired.
    riders: usize,
    /// How it ended, once it fired.
    decided: Option<Decided>,
    /// Linked proposals that committed before it fired: `(leader, t0, t3)`.
    waiting: Vec<(NodeId, SimTime, SimTime)>,
}

/// One node's phase-mode state.
#[derive(Default)]
struct Phases {
    /// Its proposals not yet charged, by `(t0, id)`: the oldest bounds how
    /// far back its spans are kept.
    proposals: BTreeSet<(SimTime, EventId)>,
    /// Its phase spans that have not fired, by `(begin, id)`.
    open: BTreeSet<(SimTime, EventId)>,
    /// Its closed phase spans, sorted.
    spans: Vec<Span>,
    /// Unlinked proposals that committed while a span that began before
    /// they did was open: `(t0, t3, id)`.
    waiting: Vec<(SimTime, SimTime, EventId)>,
}

impl Phases {
    /// Charges every waiting proposal no open span can still overlap.
    fn settle(&mut self, node: NodeId, report: &mut BlameReport) {
        let until = self.open.first().map_or(u64::MAX, |(b, _)| b.as_nanos());
        let spans = &self.spans;
        let proposals = &mut self.proposals;
        self.waiting.retain(|&(t0, t3, id)| {
            let ready = t3.as_nanos() <= until;
            if ready {
                proposals.remove(&(t0, id));
                report.charge(phase_charges(node, t0.as_nanos(), t3.as_nanos(), spans));
            }
            !ready
        });
        // No proposal to come began before its oldest held one, nor before
        // now (every closed span ended by now).
        let oldest = self
            .proposals
            .first()
            .map_or(u64::MAX, |(t0, _)| t0.as_nanos());
        self.spans.retain(|&(_, end, _)| end > oldest);
    }
}

/// The blame fold: [`Fold::feed`] every record of a run in order, then
/// [`Fold::finish`]. It holds a proposal until it is charged, a round
/// until its last linked proposal is, a node's closed phase spans back to
/// its oldest uncharged proposal, and a fired event's blame key only
/// while a linked round that was undecided when it fired still is.
#[derive(Default)]
pub struct Fold {
    report: BlameReport,
    /// Every event that has not fired yet.
    live: HashMap<EventId, Created>,
    /// Each unfired proposal's round, by its last link.
    links: HashMap<EventId, EventId>,
    /// Rounds that a held proposal is linked to.
    rounds: HashMap<EventId, Round>,
    /// The undecided rounds' `seq`s.
    undecided: BTreeSet<u64>,
    next_seq: u64,
    /// Blame keys of fired events an undecided round could name, each with
    /// the newest undecided round's `seq` when it fired.
    named: HashMap<EventId, (BlameKey, u64)>,
    /// Phase-mode state by node.
    nodes: HashMap<NodeId, Phases>,
}

impl Fold {
    /// Folds one record.
    pub fn feed(&mut self, rec: &TraceRecord) {
        match *rec {
            TraceRecord::EventCreated {
                t,
                node,
                event,
                kind,
                label,
                ..
            } => {
                self.live.insert(
                    event,
                    Created {
                        t,
                        node,
                        kind,
                        label,
                    },
                );
                if label == PROPOSAL {
                    self.node(node).proposals.insert((t, event));
                }
                if let EventKind::Phase { .. } = kind {
                    self.node(node).open.insert((t, event));
                }
            }
            TraceRecord::RoundLink {
                proposal, round, ..
            } => self.link(proposal, round),
            TraceRecord::EventFired {
                t,
                event,
                signal,
                by,
            } => {
                // Only the first fire counts: the event leaves `live`.
                if let Some(created) = self.live.remove(&event) {
                    self.fired(event, created, t, signal, by);
                }
            }
            TraceRecord::TraceBegin { .. } | TraceRecord::CoroutineStart { .. } => {}
        }
    }

    /// Charges what is still waiting — a round that never fired charges
    /// its proposals to `other` up to their commit; a span that never
    /// fired is ignored — and yields the report.
    pub fn finish(mut self) -> BlameReport {
        for round in self.rounds.into_values() {
            for (leader, t0, t3) in round.waiting {
                self.report
                    .charge(round_charges(leader, t0, t3, Some((round.t1, None))));
            }
        }
        for (node, phases) in self.nodes {
            for (t0, t3, _) in phases.waiting {
                let charges = phase_charges(node, t0.as_nanos(), t3.as_nanos(), &phases.spans);
                self.report.charge(charges);
            }
        }
        self.report
    }

    /// Test probe: entries the fold holds — events in flight, links,
    /// rounds, named keys, and every node's proposals and spans.
    #[doc(hidden)]
    pub fn held(&self) -> usize {
        let nodes = self.nodes.values();
        let phases: usize = nodes
            .map(|p| p.proposals.len() + p.open.len() + p.spans.len() + p.waiting.len())
            .sum();
        let rounds: usize = self.rounds.values().map(|r| 1 + r.waiting.len()).sum();
        self.live.len() + self.links.len() + rounds + self.named.len() + phases
    }

    fn node(&mut self, node: NodeId) -> &mut Phases {
        self.nodes.entry(node).or_default()
    }

    /// `proposal` rides `round` from now on. A link naming anything but an
    /// unfired proposal (a ReadIndex get's wait) is not blame's.
    fn link(&mut self, proposal: EventId, round: EventId) {
        if self.live.get(&proposal).is_none_or(|p| p.label != PROPOSAL) {
            return;
        }
        match self.links.insert(proposal, round) {
            Some(old) if old == round => return,
            Some(old) => self.unride(old),
            None => {}
        }
        if !self.rounds.contains_key(&round) {
            // A round the stream never created is charged at commit.
            let Some(created) = self.live.get(&round) else {
                return;
            };
            let seq = self.next_seq;
            self.next_seq += 1;
            self.undecided.insert(seq);
            let round_state = Round {
                t1: created.t,
                seq,
                riders: 0,
                decided: None,
                waiting: Vec::new(),
            };
            self.rounds.insert(round, round_state);
        }
        self.rounds.get_mut(&round).expect("held above").riders += 1;
    }

    /// One rider of `round` leaves it uncharged (fired `Err`, or linked
    /// elsewhere); a round no proposal waits for is dropped.
    fn unride(&mut self, round: EventId) {
        let Some(r) = self.rounds.get_mut(&round) else {
            return;
        };
        r.riders -= 1;
        if r.riders == 0 && r.waiting.is_empty() {
            let seq = r.seq;
            self.rounds.remove(&round);
            self.decide(seq);
        }
    }

    /// Round `seq` is decided (or dropped): the keys only it could still
    /// name go.
    fn decide(&mut self, seq: u64) {
        let was_oldest = self.undecided.first() == Some(&seq);
        if self.undecided.remove(&seq) && was_oldest {
            let oldest = self.undecided.first().copied().unwrap_or(u64::MAX);
            self.named.retain(|_, (_, newest)| *newest >= oldest);
        }
    }

    /// The blame key of a round's deciding child `child`.
    fn key_of(&self, child: EventId) -> Option<BlameKey> {
        let fired = self.named.get(&child).map(|(key, _)| *key);
        fired.or_else(|| self.live.get(&child).map(BlameKey::of_child))
    }

    /// The first fire of `event`, created as `created`.
    fn fired(
        &mut self,
        event: EventId,
        created: Created,
        t: SimTime,
        signal: Signal,
        by: Option<EventId>,
    ) {
        let ok = signal == Signal::Ok;
        if let Some(mut round) = self.rounds.remove(&event) {
            let decided = ok.then(|| (t, by.and_then(|c| self.key_of(c))));
            self.decide(round.seq);
            for (leader, t0, t3) in round.waiting.drain(..) {
                let charges = round_charges(leader, t0, t3, Some((round.t1, decided)));
                self.report.charge(charges);
            }
            if round.riders > 0 {
                round.decided = Some(decided);
                self.rounds.insert(event, round);
            }
        }
        if let Some(&newest) = self.undecided.last() {
            self.named
                .insert(event, (BlameKey::of_child(&created), newest));
        }
        let node = created.node;
        if let EventKind::Phase { blame } = created.kind {
            let phases = self.nodes.entry(node).or_default();
            phases.open.remove(&(created.t, event));
            if ok {
                let span = (
                    created.t.as_nanos(),
                    t.as_nanos(),
                    BlameKey::new(blame, created.label),
                );
                let at = phases.spans.partition_point(|s| *s <= span);
                phases.spans.insert(at, span);
            }
            phases.settle(node, &mut self.report);
        }
        if created.label != PROPOSAL {
            return;
        }
        let (t0, t3) = (created.t, t);
        let round = self.links.remove(&event);
        if !ok {
            if let Some(round) = round {
                self.unride(round);
            }
        } else {
            self.report.commits += 1;
            if let Some(round) = round {
                self.commit_round(round, node, t0, t3);
            }
        }
        let phases = self.nodes.entry(node).or_default();
        if ok && round.is_none() {
            phases.waiting.push((t0, t3, event));
        } else {
            phases.proposals.remove(&(t0, event));
        }
        phases.settle(node, &mut self.report);
    }

    /// A proposal of `leader` linked to `round` committed over `t0` → `t3`.
    fn commit_round(&mut self, round: EventId, leader: NodeId, t0: SimTime, t3: SimTime) {
        let Some(r) = self.rounds.get_mut(&round) else {
            self.report.charge(round_charges(leader, t0, t3, None));
            return;
        };
        r.riders -= 1;
        match r.decided {
            Some(decided) => {
                let charges = round_charges(leader, t0, t3, Some((r.t1, decided)));
                if r.riders == 0 {
                    self.rounds.remove(&round);
                }
                self.report.charge(charges);
            }
            None => r.waiting.push((leader, t0, t3)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(t: u64) -> SimTime {
        SimTime::from_nanos(t)
    }

    fn created(t: u64, node: u32, event: u64, kind: EventKind, label: &'static str) -> TraceRecord {
        TraceRecord::EventCreated {
            t: at(t),
            node: NodeId(node),
            coro: None,
            event: EventId(event),
            kind,
            label,
            ctx: None,
        }
    }

    fn proposal(t: u64, event: u64) -> TraceRecord {
        created(t, 0, event, EventKind::Notify, PROPOSAL)
    }

    fn rpc(t: u64, event: u64, target: u32) -> TraceRecord {
        let kind = EventKind::Rpc {
            target: NodeId(target),
        };
        created(t, 0, event, kind, "append")
    }

    fn phase(t: u64, event: u64, blame: u32, label: &'static str) -> TraceRecord {
        let kind = EventKind::Phase {
            blame: NodeId(blame),
        };
        created(t, 0, event, kind, label)
    }

    fn round(t: u64, event: u64) -> TraceRecord {
        created(t, 0, event, EventKind::Quorum, "replicate")
    }

    fn fire(t: u64, event: u64, signal: Signal, by: Option<u64>) -> TraceRecord {
        TraceRecord::EventFired {
            t: at(t),
            event: EventId(event),
            signal,
            by: by.map(EventId),
        }
    }

    fn ok(t: u64, event: u64) -> TraceRecord {
        fire(t, event, Signal::Ok, None)
    }

    fn err(t: u64, event: u64) -> TraceRecord {
        fire(t, event, Signal::Err, None)
    }

    fn decided(t: u64, event: u64, by: u64) -> TraceRecord {
        fire(t, event, Signal::Ok, Some(by))
    }

    fn link(t: u64, proposal: u64, round: u64) -> TraceRecord {
        TraceRecord::RoundLink {
            t: at(t),
            proposal: EventId(proposal),
            round: EventId(round),
        }
    }

    fn fold(records: &[TraceRecord]) -> BlameReport {
        let mut fold = Fold::default();
        records.iter().for_each(|r| fold.feed(r));
        fold.finish()
    }

    /// One row per rule: the records, then the commits and the charges
    /// `(node, layer, ns)` the fold must report — nothing else.
    #[test]
    fn each_rule_of_the_fold_charges_its_row() {
        use EventKind::Io;
        type Row = (
            &'static str,
            Vec<TraceRecord>,
            usize,
            &'static [(u32, &'static str, u64)],
        );
        let rows: Vec<Row> = vec![
            (
                "only a proposal's first fire counts",
                vec![
                    proposal(100, 0),
                    ok(500, 0),
                    ok(900, 0),
                    proposal(100, 1),
                    err(200, 1),
                    ok(700, 1),
                ],
                1,
                &[(0, "other", 400)],
            ),
            (
                "the last RoundLink wins",
                vec![
                    proposal(0, 0),
                    round(100, 1),
                    link(100, 0, 1),
                    round(200, 2),
                    link(200, 0, 2),
                    rpc(200, 3, 1),
                    created(200, 0, 4, Io, "wal"),
                    ok(400, 4),
                    decided(400, 1, 4),
                    ok(700, 3),
                    decided(700, 2, 3),
                    ok(1000, 0),
                ],
                1,
                &[(0, "queue", 200), (1, "rpc", 500), (0, "apply", 300)],
            ),
            (
                "a round with no creation record charges the whole window",
                vec![proposal(100, 0), link(100, 0, 9), ok(600, 0)],
                1,
                &[(0, "other", 500)],
            ),
            (
                "a round that fired Err charges t1 to t3 to the leader",
                vec![
                    proposal(100, 0),
                    round(200, 1),
                    link(200, 0, 1),
                    rpc(200, 2, 1),
                    err(300, 2),
                    fire(300, 1, Signal::Err, Some(2)),
                    ok(1000, 0),
                ],
                1,
                &[(0, "queue", 100), (0, "other", 800)],
            ),
            (
                "a round that never fired charges t1 to t3 to the leader",
                vec![
                    proposal(100, 0),
                    round(200, 1),
                    link(200, 0, 1),
                    ok(1000, 0),
                ],
                1,
                &[(0, "queue", 100), (0, "other", 800)],
            ),
            (
                "an All round is decided at seal, by the last child to fire",
                vec![
                    proposal(100, 0),
                    round(200, 1),
                    link(200, 0, 1),
                    rpc(200, 2, 1),
                    rpc(200, 3, 2),
                    ok(300, 2),
                    ok(500, 3),
                    decided(900, 1, 3),
                    ok(1000, 0),
                ],
                1,
                &[(0, "queue", 100), (2, "rpc", 700), (0, "apply", 100)],
            ),
            (
                "a proposal applied before its round fired is charged past its latency",
                vec![
                    proposal(100, 0),
                    round(200, 1),
                    link(200, 0, 1),
                    rpc(200, 2, 1),
                    ok(600, 0),
                    ok(900, 2),
                    decided(900, 1, 2),
                ],
                1,
                &[(0, "queue", 100), (1, "rpc", 700)],
            ),
            (
                "phase spans are clipped, overlap through the cursor, and an unfired one is ignored",
                vec![
                    phase(0, 1, 2, "cold_read"),
                    phase(100, 2, 0, "propose"),
                    ok(800, 2),
                    proposal(1000, 0),
                    phase(3000, 3, 0, "apply"),
                    ok(3500, 1),
                    ok(4000, 3),
                    phase(4500, 4, 0, "never_ends"),
                    phase(4800, 5, 0, "wal_append"),
                    ok(5000, 0),
                    ok(6000, 5),
                ],
                1,
                &[
                    (2, "cold_read", 2500),
                    (0, "apply", 500),
                    (0, "wal_append", 200),
                    (0, "other", 800),
                ],
            ),
            (
                "zero-length charges are dropped and Err proposals are ignored",
                vec![
                    proposal(100, 0),
                    round(100, 1),
                    link(100, 0, 1),
                    proposal(100, 2),
                    link(100, 2, 1),
                    rpc(100, 3, 1),
                    ok(400, 3),
                    decided(400, 1, 3),
                    ok(400, 0),
                    err(500, 2),
                ],
                1,
                &[(1, "rpc", 300)],
            ),
        ];
        for (case, records, commits, charges) in rows {
            let report = fold(&records);
            let want: BTreeMap<BlameKey, Duration> = charges
                .iter()
                .map(|&(n, layer, ns)| (BlameKey::new(NodeId(n), layer), Duration::from_nanos(ns)))
                .collect();
            assert_eq!(report.by, want, "{case}");
            assert_eq!(report.commits, commits, "{case}");
            assert_eq!(report.total, want.values().sum(), "{case}");
        }
    }

    #[test]
    fn round_mode_blames_the_deciding_child() {
        // Proposal 0 on node 0; round 1 is a 2-of-3 quorum over local
        // disk (2) and RPCs to nodes 1 (3) and 2 (4). Node 2's ack is
        // last and is NOT waited for; node 1's ack is the 2nd, and the
        // round's fire names it.
        let records = vec![
            proposal(100, 0),
            round(200, 1),
            link(200, 0, 1),
            created(200, 0, 2, EventKind::Io, "wal"),
            rpc(200, 3, 1),
            rpc(200, 4, 2),
            ok(300, 2),  // local disk first
            ok(1200, 3), // node 1 completes the quorum
            decided(1200, 1, 3),
            ok(1500, 0), // applied
            ok(9000, 4), // node 2 straggles, off the critical path
        ];
        let report = fold(&records);
        assert_eq!(report.commits, 1);
        let d = |n, layer| report.by[&BlameKey::new(NodeId(n), layer)];
        assert_eq!(d(0, "queue"), Duration::from_nanos(100));
        assert_eq!(d(1, "rpc"), Duration::from_nanos(1000));
        assert_eq!(d(0, "apply"), Duration::from_nanos(300));
        // The straggler got nothing.
        let share = |n| report.node_share(NodeId(n));
        assert_eq!(share(2), 0.0);
        assert_eq!(report.total, Duration::from_nanos(1400));
        assert!(share(1) > share(0) && share(1) > share(2));
    }

    #[test]
    fn phase_mode_clips_overlaps_and_charges_residual() {
        // Proposal window [1000, 5000] on node 0; a cold_read phase
        // blaming node 2 covers [0, 3500] (clipped to [1000, 3500]) and
        // an apply phase [3500, 4000]; residual 1000ns → other.
        let records = vec![
            phase(0, 1, 2, "cold_read"),
            proposal(1000, 0),
            ok(3500, 1),
            phase(3500, 2, 0, "apply"),
            ok(4000, 2),
            ok(5000, 0),
        ];
        let report = fold(&records);
        let d = |n, layer| report.by[&BlameKey::new(NodeId(n), layer)];
        assert_eq!(d(2, "cold_read"), Duration::from_nanos(2500));
        assert_eq!(d(0, "apply"), Duration::from_nanos(500));
        assert_eq!(d(0, "other"), Duration::from_nanos(1000));
        assert_eq!(report.total, Duration::from_nanos(4000));
        let share = |n| report.node_share(NodeId(n));
        assert!(share(2) > 0.49);
        assert!(share(2) > share(0) && share(2) > share(1));
    }

    #[test]
    fn uncommitted_proposals_are_ignored() {
        let report = fold(&[proposal(0, 0)]);
        assert_eq!(report.commits, 0);
        assert!(report.total.is_zero());
        assert_eq!(report.table().lines().count(), 2);
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
    /// fire record, and the live fold charges the round to that child —
    /// as a replay of the recorded stream does; a round that did not fire
    /// `Ok` is charged to the leader's `other`.
    #[test]
    fn a_rounds_deciding_child_is_the_tallys() {
        use crate::event::{EventHandle, QuorumEvent, QuorumMode, Watchable};
        use crate::runtime::Runtime;
        use crate::trace::TraceIndex;
        use simkit::Sim;
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
        // What a round decided by each child is charged to.
        let keys = [(0, "disk"), (1, "rpc"), (2, "rpc")];
        for &(case, mode, script, decider, signal) in rows {
            let sim = Sim::new(1);
            let rt = Runtime::new_sim(sim.clone(), NodeId(0));
            rt.tracer().set_record_full(true);
            rt.tracer().install_blame_fold();
            let proposal = EventHandle::new(&rt, EventKind::Notify, PROPOSAL);
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
            let decider_id = children[decider].id();
            let (rt2, round2, proposal2) = (rt.clone(), round.clone(), proposal.clone());
            let t2 = sim.block_on(async move {
                let mut t2 = None;
                for step in script {
                    rt2.sleep(Duration::from_micros(1)).await;
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
                rt2.sleep(Duration::from_micros(1)).await;
                proposal2.fire(Signal::Ok);
                t2.expect("the round fired")
            });
            let report = rt.tracer().finish_blame_fold();
            let records = rt.tracer().take_records();
            let fire = records.iter().find_map(|r| match r {
                TraceRecord::EventFired {
                    event, signal, by, ..
                } if *event == round.handle().id() => Some((*signal, *by)),
                _ => None,
            });
            assert_eq!(fire, Some((signal, Some(decider_id))), "{case}");
            assert_eq!(report, TraceIndex::build(&records).blame, "{case}");

            let t3 = rt.now();
            let ((node, layer), d) = match signal {
                Signal::Ok => (keys[decider], t2),
                Signal::Err => ((0, "other"), t3),
            };
            let key = BlameKey::new(NodeId(node), layer);
            assert_eq!(report.by[&key], between(SimTime::ZERO, d), "{case}");
            assert_eq!(report.total, between(SimTime::ZERO, t3), "{case}");
        }
    }
}
