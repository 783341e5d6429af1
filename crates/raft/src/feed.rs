//! The feed law: how a peer that is behind gets its data.
//!
//! Every per-peer catch-up decision of all five drivers, in one pure state
//! machine of [`crate::flow::Flow`]'s shape: everything it decides from —
//! the virtual time, a peer's acked prefix, the log's extent and size,
//! whether this node leads, the peer's replies — is passed in, and a verdict
//! comes back, with the [`Health`] transition to record where there is one.
//! Reading, sending and waiting are the core's and the drivers': each driver
//! pays for a cold read where its waiting structure puts it, which is the
//! paper's variable.
//!
//! * **Log or state** ([`Feed::fork`]). A peer whose next entry the log
//!   still holds is fed entries. One whose next entry is at or below the
//!   base lacks state, not entries: it is sent the state machine
//!   (`InstallSnapshot`). One is outstanding per peer — an unanswered one
//!   stands for `SNAPSHOT_RESEND`, doubled with each resend that also went
//!   unanswered — and a node that does not lead has no state to impose.
//! * **Retention** ([`compact_through`], asked at the end of every apply
//!   pass). A **follower** keeps what it has not applied: its state machine
//!   holds the rest, and nobody reads a follower's log but its own apply
//!   loop. A **leader** keeps, in addition, what its slowest peer has not
//!   matched — the entries it will be asked to read `[next_index, ..)`
//!   from. A peer whose match the core never learns (ChainRaft's head
//!   digests no append reply; a freshly elected leader starts every peer at
//!   0) retains everything. **Unless** the log has grown past
//!   `GC_SIZE_LIMIT`: then the laggard is cut loose — the leader compacts
//!   behind its own applied index as a follower would, and the fork sends
//!   that peer state. `GC_SLACK` entries are kept behind the point either
//!   rule gives, and the log is only cut once a further `GC_SLACK` could go,
//!   so a replica holds between one and two slacks of applied entries plus
//!   whatever is still in flight. Compaction is a metadata delete (see
//!   `depfast_storage::log`): it costs no virtual time, so this rule moves
//!   host memory and no simulated result.
//! * **Quarantine** (DepFastRaft: [`Feed::quarantine`] when a follower's
//!   append window fills, then [`Feed::plan`] on every heartbeat). The
//!   follower is fed by lazy probes and one catch-up chunk at a time
//!   instead of pipelined rounds, until its lag has shrunk and its disk is
//!   seen keeping up. The next chunk ships on the first heartbeat after the
//!   last one is durable, twice its size: the follower is fed at the rate
//!   its disk drains, however slow. Only a chunk outstanding past
//!   `REPLICATE_TIMEOUT` holds the next one back.

use std::collections::HashMap;
use std::time::Duration;

use depfast::Health;
use simkit::{NodeId, SimTime};

use crate::core::RaftCfg;
use crate::depfast_driver::REPLICATE_TIMEOUT;
use crate::types::AppendResp;

/// How long an unanswered `InstallSnapshot` stands before another is sent
/// to the same peer, the first time ([`Feed::fork`] doubles it from there).
/// Every driver reaches the fork once per round or heartbeat, and each send
/// encodes and ships the whole state machine: the interval is what keeps
/// that to one in flight. It is long against a healthy transfer (35 MB of
/// `steady-write` state crosses the modelled link in 35 ms and a healthy
/// disk in 0.2 s), and a lost one — the transport reports no loss — costs
/// the peer this much more of being behind. A peer that takes longer than
/// this to write one (the same state on a disk at 0.8 % bandwidth: 20 s) is
/// sent it again at 1, 3, 7 and 15 s rather than every second, and is
/// protected on its own side: `handle_snapshot` installs one at a time.
const SNAPSHOT_RESEND: Duration = Duration::from_secs(1);

/// Applied entries kept behind the compaction point, and the step
/// compaction moves in.
///
/// A constant, not an option: no shipped configuration wants another value,
/// and correctness does not depend on it — a follower answers an append
/// below its base from the fact that the base is committed, and a peer the
/// leader's log no longer reaches gets a snapshot. What it is sized for is
/// that a *rewind* needs neither: a retransmission backed up by a reject or
/// a full append window (`APPEND_WINDOW` × `max_entries_per_append` = 2 048
/// entries at the very most, a few dozen in practice) finds its
/// `prev_index` still in the follower's log. The step equals the slack so a
/// compaction drops ~1 000 entries at a time rather than one per apply
/// pass.
///
/// What it is *not* sized for is a leader change: a follower compacts
/// behind its own applied index, so a newly elected leader reaches back one
/// to two slacks and sends anyone further behind its whole state machine.
/// Measured (`docs/PERFORMANCE.md` §12, 33 MB of state, 1 KB entries): a
/// peer 3 000–48 000 entries behind a new leader is level again in
/// 0.5–0.6 virtual seconds by snapshot against 0.7–6.1 s from the log, at
/// 33 MB on the wire against 3–51 MB — more bytes until the lag passes
/// state size ÷ entry size (31 000 entries there). A slack that never sent
/// more bytes than the log would is that many entries: the memory this rule
/// exists to give back. Followers retaining to their leader's compaction
/// point instead (TiKV's shape) needs the point on the wire; see ROADMAP.
const GC_SLACK: u64 = 1024;

/// Log size past which a leader stops retaining entries for its slowest
/// peer: TiKV's `raft-log-gc-size-limit` (72 MB, three quarters of a 96 MB
/// region).
///
/// A constant for the same reason. It sits above the longest catch-up any
/// gated run produces: `fail-slow-follower`'s quarantined follower falls
/// 29 160 entries behind, and the leader's log peaks at 31 080 entries,
/// 33.1 MB (`docs/PERFORMANCE.md` §13), all fed from the log — no gated or
/// benchmark run is cut loose. It is what bounds the log when a peer is
/// gone for good: to the limit or to two slacks of entries, whichever is
/// more (past the limit a cut still waits for a whole step — 2 MB of 1 KB
/// entries, but 128 MB of 64 KB ones).
const GC_SIZE_LIMIT: u64 = 72 * 1024 * 1024;

/// What the retention rule is told about a replica, at the end of an apply
/// pass.
#[derive(Debug, Clone, Copy)]
pub struct Standing {
    /// First index the log still holds (one past its base).
    pub first_index: u64,
    /// Highest index applied to the state machine.
    pub applied: u64,
    /// Bytes of the entries the log holds.
    pub log_bytes: u64,
    /// The lowest match index among this replica's peers if it leads;
    /// `None` for a follower, a candidate or a deposed leader.
    pub slowest_match: Option<u64>,
}

/// The index `s`'s log may be compacted through now, if it is worth a step.
pub fn compact_through(s: &Standing) -> Option<u64> {
    let retained_for_peers = match s.slowest_match {
        Some(m) if s.log_bytes <= GC_SIZE_LIMIT => m,
        _ => u64::MAX,
    };
    let through = s.applied.min(retained_for_peers).saturating_sub(GC_SLACK);
    (through + 1 >= s.first_index + GC_SLACK).then_some(through)
}

/// What stands in for a peer's next entries once the log no longer holds
/// them ([`Feed::fork`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fork<E> {
    /// The state last sent is still given time to be answered: this is it,
    /// and nothing is sent.
    Waiting(E),
    /// Send the state machine now, and report it through
    /// [`Feed::snapshot_sent`] with this much patience.
    Snapshot(Duration),
    /// This node does not lead: nothing is sent.
    Nothing,
}

/// What the leader should do next toward a quarantined peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuspectAction {
    /// Lag has shrunk: quarantine lifted, resume normal replication.
    Resume,
    /// Send an empty lazy probe (harvests the peer's durable prefix).
    Probe,
    /// Send a lazy catch-up chunk of `n` entries starting at `lo`.
    Chunk {
        /// First entry index of the chunk.
        lo: u64,
        /// Planned entry count.
        n: usize,
    },
}

/// A catch-up chunk shipped and not yet drained.
#[derive(Clone, Copy)]
struct Outstanding {
    /// When it shipped.
    at: SimTime,
    /// Last index it carries.
    target: u64,
}

/// Catch-up state for one quarantined (suspect) peer.
#[derive(Default)]
struct Suspect {
    /// Entries per catch-up chunk; doubles with every drained chunk.
    chunk: usize,
    /// Outstanding chunk, if any.
    pending: Option<Outstanding>,
    /// Earliest time the next chunk may ship: a lost chunk holds it back.
    next_chunk_at: SimTime,
    /// The peer's last reported verified index (`None` until the first
    /// lazy reply arrives).
    peer_verified: Option<u64>,
    /// Whether the peer's disk is keeping up: the latest lazy reply
    /// reported a fully durable log (`match_index >= verified`). Gating
    /// [`SuspectAction::Resume`] on this prevents the re-flood trap: a
    /// catch-up trickle can shrink the *lag* below the resume threshold
    /// while the disk is still crawling, and resuming then would park a
    /// fresh window of append handlers behind it all over again.
    draining_fast: bool,
}

/// Catch-up state of one node toward its peers; `E` is the reply event of
/// an `InstallSnapshot` (opaque here: the law stores it and hands it back).
pub struct Feed<E> {
    cfg: RaftCfg,
    /// The `InstallSnapshot` last sent to each peer — its reply event, when
    /// it was sent, and how long it is given to be answered before another
    /// is: one is outstanding at a time.
    snapshots: HashMap<u32, (E, SimTime, Duration)>,
    /// Per-peer quarantine state.
    suspects: HashMap<u32, Suspect>,
}

impl<E: Clone> Feed<E> {
    /// Empty catch-up state under `cfg`.
    pub fn new(cfg: RaftCfg) -> Self {
        Feed {
            cfg,
            snapshots: HashMap::new(),
            suspects: HashMap::new(),
        }
    }

    /// Fresh leadership: quarantine belongs to the old term's view of the
    /// peers. A state transfer still in flight is still outstanding.
    pub fn reset_peers(&mut self) {
        self.suspects.clear();
    }

    /// The fork, for a leader about to feed `peer` from `lo` with the log
    /// starting at `first_index`: `None` while the log holds `lo` — the peer
    /// is fed entries. `answered` says whether a reply event has fired (`Ok`
    /// or `Err`: either way that transfer is over).
    pub fn fork(
        &self,
        now: SimTime,
        peer: NodeId,
        lo: u64,
        first_index: u64,
        leads: bool,
        answered: impl Fn(&E) -> bool,
    ) -> Option<Fork<E>> {
        if lo >= first_index {
            return None;
        }
        Some(match self.snapshots.get(&peer.0) {
            _ if !leads => Fork::Nothing,
            Some((sent, at, patience)) if !answered(sent) => match now - *at < *patience {
                true => Fork::Waiting(sent.clone()),
                false => Fork::Snapshot(*patience * 2),
            },
            _ => Fork::Snapshot(SNAPSHOT_RESEND),
        })
    }

    /// Records the state sent to `peer` at `now` on a
    /// [`Fork::Snapshot`]`(patience)` verdict, `event` being its reply.
    pub fn snapshot_sent(&mut self, now: SimTime, peer: NodeId, event: E, patience: Duration) {
        self.snapshots.insert(peer.0, (event, now, patience));
    }

    /// Whether `peer` is quarantined: fed only by [`Feed::plan`].
    pub fn quarantined(&self, peer: NodeId) -> bool {
        self.suspects.contains_key(&peer.0)
    }

    /// Quarantines `peer`, whose append window just filled — the fail-slow
    /// signal itself: healthy operation never accumulates a window of
    /// unclassified sends.
    pub fn quarantine(&mut self, now: SimTime, peer: NodeId, acked: u64, last: u64) -> Health {
        // Not `draining_fast` until the first probe reply proves the disk
        // is keeping up: the window just filled, which is itself evidence
        // it is not.
        let fresh = Suspect {
            chunk: self.cfg.batch_max.max(1),
            next_chunk_at: now,
            ..Suspect::default()
        };
        self.suspects.insert(peer.0, fresh);
        let evidence = format!("append window full; acked={acked} leader_last={last}");
        Health::new("quarantine", evidence)
    }

    /// Decides the next heartbeat-tick action toward a quarantined peer;
    /// `None` if the peer is not quarantined. Control law: probe with
    /// empty lazy appends (which cost the peer nothing but report its
    /// durable prefix) until the peer has drained everything delivered,
    /// then ship one catch-up chunk, twice the last one's size if that one
    /// drained ([`Feed::on_lazy_reply`]). One chunk in flight is what keeps
    /// a crawling disk from being flooded by its own catch-up stream, and
    /// its drain is what paces the next, however slow. A chunk still
    /// outstanding after `REPLICATE_TIMEOUT` is forgotten and the next one
    /// held back as long again; it still ships only once the peer has
    /// drained what it was delivered.
    pub fn plan(
        &mut self,
        now: SimTime,
        peer: NodeId,
        match_index: u64,
        last_index: u64,
    ) -> Option<(SuspectAction, Health)> {
        let s = self.suspects.get_mut(&peer.0)?;
        let lag = last_index.saturating_sub(match_index);
        if s.draining_fast && lag <= (2 * self.cfg.batch_max) as u64 {
            self.suspects.remove(&peer.0);
            let evidence = format!("lag {lag} entries; drain verified fast");
            return Some((SuspectAction::Resume, Health::new("resume", evidence)));
        }
        if s.pending.is_some_and(|p| now - p.at >= REPLICATE_TIMEOUT) {
            // The chunk (or the probes observing it) went missing.
            s.pending = None;
            s.next_chunk_at = now + REPLICATE_TIMEOUT;
        }
        let drained = s.peer_verified.is_some_and(|v| match_index >= v);
        if s.pending.is_none() && drained && now >= s.next_chunk_at {
            let (lo, n) = (match_index + 1, s.chunk);
            s.pending = Some(Outstanding {
                at: now,
                target: match_index + n as u64,
            });
            let evidence = format!("catch-up chunk [{lo}, {})", lo + n as u64);
            let chunk = SuspectAction::Chunk { lo, n };
            Some((chunk, Health::new("chunk", evidence)))
        } else {
            let evidence = format!("lazy probe; acked={match_index}");
            Some((SuspectAction::Probe, Health::new("probe", evidence)))
        }
    }

    /// Corrects the outstanding chunk's target after the send actually
    /// shipped entries through `hi` (the log may have had fewer than
    /// planned); `None` drops it (nothing was sent).
    pub fn chunk_sent(&mut self, peer: NodeId, hi: Option<u64>) {
        if let Some(s) = self.suspects.get_mut(&peer.0) {
            s.pending = hi
                .zip(s.pending)
                .map(|(target, p)| Outstanding { target, ..p });
        }
    }

    /// Digests a lazy reply from a quarantined peer: learns the peer's
    /// verified index, and whether the outstanding chunk has drained
    /// (`match_index` reaches it: the next chunk, twice the size, may ship
    /// on the next heartbeat). How long the drain took is no evidence either
    /// way: one chunk in flight is the most the peer's disk is given.
    ///
    /// Returns whether the fork is to be asked at the peer's next index: a
    /// reject backs it up to where the peer's log ends, which quarantine
    /// never reads from (it feeds from the acked prefix), so if that is
    /// below the base this is where it is found out.
    pub fn on_lazy_reply(&mut self, peer: NodeId, resp: &AppendResp) -> bool {
        if let Some(s) = self.suspects.get_mut(&peer.0) {
            s.peer_verified = Some(resp.verified.max(s.peer_verified.unwrap_or(0)));
            s.draining_fast = resp.success && resp.match_index >= resp.verified;
            if resp.success && s.pending.is_some_and(|p| resp.match_index >= p.target) {
                s.chunk = (s.chunk * 2).min(self.cfg.max_entries_per_append);
                s.pending = None;
            }
        }
        !resp.success
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PEER: NodeId = NodeId(2);
    const MB: u64 = 1024 * 1024;

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    /// heartbeat 30 ms, batch_max 64, append_window 8, pipeline_depth 4,
    /// replicate_timeout 1 s, and the benchmarks' max_entries_per_append
    /// of 512.
    fn cfg() -> RaftCfg {
        RaftCfg {
            max_entries_per_append: 512,
            ..RaftCfg::default()
        }
    }

    fn follower(first_index: u64, applied: u64) -> Standing {
        Standing {
            first_index,
            applied,
            log_bytes: MB,
            slowest_match: None,
        }
    }

    fn leader(first_index: u64, applied: u64, matches: &[u64], log_bytes: u64) -> Standing {
        Standing {
            first_index,
            applied,
            log_bytes,
            slowest_match: matches.iter().copied().min(),
        }
    }

    fn reply(success: bool, match_index: u64, verified: u64) -> AppendResp {
        AppendResp {
            term: 1,
            success,
            match_index,
            verified,
        }
    }

    /// A feed whose `PEER` was quarantined at `at`.
    fn quarantined(at: SimTime) -> Feed<u32> {
        let mut f = Feed::new(cfg());
        f.quarantine(at, PEER, 0, 1000);
        f
    }

    fn action(f: &mut Feed<u32>, now: SimTime, match_index: u64, last: u64) -> SuspectAction {
        f.plan(now, PEER, match_index, last).expect("quarantined").0
    }

    /// One step of the fork's table: (case, at ms, peer, lo, leads, the
    /// reply events answered by then, verdict).
    type ForkRow = (
        &'static str,
        u64,
        u32,
        u64,
        bool,
        &'static [u32],
        Option<Fork<u32>>,
    );

    /// The fork and the patience, one step per row: at `ms`, `peer` is to
    /// be fed from `lo` by a node that `leads` (the log starts at 7); the
    /// reply events named in `answered` have fired by then. A `Snapshot`
    /// verdict is followed by a send whose event is named by the row's
    /// number. (Row 6: the answer to a superseded send changes nothing.)
    #[test]
    fn the_fork_and_its_patience_by_table() {
        let send = |times: u32| Some(Fork::Snapshot(SNAPSHOT_RESEND * times));
        let wait = |event: u32| Some(Fork::Waiting(event));
        #[rustfmt::skip]
        let table: &[ForkRow] = &[
            ("log at the base", 0, 1, 7, true, &[], None),
            ("state one below it", 0, 1, 6, true, &[], send(1)),
            ("one outstanding", 999, 1, 6, true, &[], wait(1)),
            ("however far below", 999, 1, 1, true, &[], wait(1)),
            ("another peer's is its own", 999, 2, 3, true, &[], send(1)),
            ("unanswered at 1 s: again", 1_000, 1, 6, true, &[], send(2)),
            ("given twice as long", 2_999, 1, 6, true, &[1], wait(5)),
            ("and then again", 3_000, 1, 6, true, &[1], send(4)),
            ("an answer, Err included, resets it", 3_001, 1, 6, true, &[7], send(1)),
            ("the new one stands", 3_002, 1, 6, true, &[7], wait(8)),
            ("a non-leader sends nothing", 9_000, 1, 6, false, &[], Some(Fork::Nothing)),
            ("a non-leader's log is still its log", 9_000, 1, 7, false, &[], None),
        ];
        let mut f: Feed<u32> = Feed::new(cfg());
        for (row, &(case, at, peer, lo, leads, answered, ref expect)) in table.iter().enumerate() {
            let (now, peer) = (ms(at), NodeId(peer));
            let fork = f.fork(now, peer, lo, 7, leads, |event| answered.contains(event));
            assert_eq!(fork, *expect, "{case}");
            if let Some(Fork::Snapshot(patience)) = fork {
                f.snapshot_sent(now, peer, row as u32, patience);
            }
        }
    }

    #[test]
    fn the_rule_by_table() {
        let table: &[(&str, Standing, Option<u64>)] = &[
            // A follower keeps what it has not applied, plus the slack.
            ("follower, young log", follower(1, 1_500), None),
            ("follower, one step due", follower(1, 2_048), Some(1_024)),
            ("follower, long run", follower(40_001, 50_000), Some(48_976)),
            // Slack and step: after cutting through 1 024 nothing goes until
            // a whole further step could.
            ("one short of a step", follower(1_025, 3_071), None),
            ("exactly a step", follower(1_025, 3_072), Some(2_048)),
            // A leader whose peers are current is bounded by its own apply.
            (
                "leader, peers current",
                leader(1, 5_000, &[5_000, 5_010], MB),
                Some(3_976),
            ),
            // One peer behind: everything it has not matched stays.
            (
                "leader, one peer behind",
                leader(1, 50_000, &[50_000, 3_000], 50 * MB),
                Some(1_976),
            ),
            (
                "leader, peer behind the step",
                leader(1_977, 50_000, &[50_000, 3_000], 50 * MB),
                None,
            ),
            // A match the core never learned retains everything.
            (
                "leader, one peer unknown",
                leader(1, 50_000, &[50_000, 0], 50 * MB),
                None,
            ),
            // The size limit cuts the laggard loose: the follower rule.
            (
                "leader, at the limit",
                leader(1, 70_000, &[70_000, 3_000], GC_SIZE_LIMIT),
                Some(1_976),
            ),
            (
                "leader, over the limit",
                leader(1, 70_000, &[70_000, 3_000], GC_SIZE_LIMIT + 1),
                Some(68_976),
            ),
            (
                "leader, unknown peer, over the limit",
                leader(1, 70_000, &[0, 0], GC_SIZE_LIMIT + 1),
                Some(68_976),
            ),
            // A deposed leader is told of no peers: the follower rule, even
            // with the match indices of its old term still on the books.
            (
                "deposed leader",
                Standing {
                    slowest_match: None,
                    ..leader(1, 50_000, &[50_000, 3_000], 50 * MB)
                },
                Some(48_976),
            ),
            // Nothing applied, nothing to drop.
            ("fresh replica", follower(1, 0), None),
        ];
        for (case, standing, expect) in table {
            assert_eq!(compact_through(standing), *expect, "{case}");
        }
    }

    #[test]
    fn a_replica_holds_between_one_and_two_slacks_of_applied_entries() {
        let mut first_index = 1;
        for applied in 0..10_000u64 {
            if let Some(through) = compact_through(&follower(first_index, applied)) {
                assert!(through >= first_index, "a step forward");
                first_index = through + 1;
            }
            let held = applied + 1 - first_index;
            assert!(held < 2 * GC_SLACK, "applied {applied}: holds {held}");
            assert!(
                held >= GC_SLACK.min(applied),
                "applied {applied}: holds {held}"
            );
        }
    }

    #[test]
    fn quarantine_names_the_evidence_and_lasts_until_resume() {
        let mut f: Feed<u32> = Feed::new(cfg());
        assert!(!f.quarantined(PEER));
        let health = f.quarantine(ms(9), PEER, 40, 90);
        assert_eq!(health.transition, "quarantine");
        assert_eq!(
            health.evidence,
            "append window full; acked=40 leader_last=90"
        );
        assert!(f.quarantined(PEER));
        assert_eq!(f.plan(ms(10), NodeId(1), 40, 90), None, "peer 1 is healthy");
        f.reset_peers();
        assert!(!f.quarantined(PEER), "fresh term");
    }

    #[test]
    fn probes_until_the_peer_has_drained_then_ships_one_chunk() {
        let mut f = quarantined(ms(0));
        // No reply yet: nothing is known about the peer's disk.
        assert_eq!(action(&mut f, ms(30), 100, 1000), SuspectAction::Probe);
        // Durable prefix 100 trails the verified 180: still draining.
        f.on_lazy_reply(PEER, &reply(true, 100, 180));
        assert_eq!(action(&mut f, ms(60), 100, 1000), SuspectAction::Probe);
        f.on_lazy_reply(PEER, &reply(true, 150, 180));
        assert_eq!(action(&mut f, ms(90), 150, 1000), SuspectAction::Probe);
        // Drained (match_index >= verified): one chunk of batch_max.
        f.on_lazy_reply(PEER, &reply(true, 180, 180));
        let (act, health) = f.plan(ms(120), PEER, 180, 1000).unwrap();
        assert_eq!(act, SuspectAction::Chunk { lo: 181, n: 64 });
        assert_eq!(health.transition, "chunk");
        assert_eq!(health.evidence, "catch-up chunk [181, 245)");
        // ... and only one: while it is outstanding, back to probing.
        let (act, health) = f.plan(ms(150), PEER, 180, 1000).unwrap();
        assert_eq!(act, SuspectAction::Probe);
        assert_eq!(health.evidence, "lazy probe; acked=180");
    }

    /// One row of the drain table: (case, chunk, a reply shows it appended
    /// at ms, durable at ms — `None`: no reply does, the next chunk's size,
    /// the heartbeat it ships on).
    type DrainRow = (&'static str, usize, Option<u64>, Option<u64>, usize, u64);

    #[test]
    fn the_next_chunk_waits_for_the_drain_and_only_a_lost_one_backs_off() {
        // A healthy drain ramps 64 -> 512, one chunk a heartbeat.
        let mut f = quarantined(ms(0));
        f.on_lazy_reply(PEER, &reply(true, 0, 0));
        let mut acked = 0;
        for (k, n) in [64, 128, 256, 512, 512].into_iter().enumerate() {
            let next = action(&mut f, ms(30 * (k as u64 + 1)), acked, 100_000);
            assert_eq!(next, SuspectAction::Chunk { lo: acked + 1, n }, "chunk {k}");
            acked += n as u64;
            f.on_lazy_reply(PEER, &reply(true, acked, acked));
        }
        // Heartbeats every 30 ms from the ship; the peer is 100 000 behind.
        #[rustfmt::skip]
        let table: &[DrainRow] = &[
            ("drained at the first probe", 64, Some(1), Some(8), 128, 30),
            ("seen drained at the second", 256, Some(1), Some(40), 512, 60),
            ("capped at max_entries_per_append", 512, Some(1), Some(70), 512, 90),
            ("a crawling disk: drained after 325 ms, not paused", 64, Some(1), Some(325), 128, 330),
            ("a 0.1 % disk: forgotten past replicate_timeout, the next still waits for the drain", 64, Some(1), Some(2_500), 64, 2_520),
            ("never answered: forgotten, the next held back 1 s", 256, None, None, 256, 2_040),
        ];
        for &(case, chunk, appended, durable, n, at) in table {
            let last = 100_000;
            let mut f = quarantined(ms(0));
            f.on_lazy_reply(PEER, &reply(true, 0, 0));
            f.suspects.get_mut(&PEER.0).unwrap().chunk = chunk;
            let shipped = ms(10);
            let first = action(&mut f, shipped, 0, last);
            assert_eq!(first, SuspectAction::Chunk { lo: 1, n: chunk }, "{case}");
            let m = chunk as u64;
            let mut replies = [(appended, reply(true, 0, m)), (durable, reply(true, m, m))];
            let mut acked = 0;
            let next = (1..200).find_map(|k| {
                let tick = 30 * k;
                for (when, resp) in &mut replies {
                    if when.is_some_and(|w| w <= tick) {
                        f.on_lazy_reply(PEER, resp);
                        acked = acked.max(resp.match_index);
                        *when = None;
                    }
                }
                let now = shipped + Duration::from_millis(tick);
                match action(&mut f, now, acked, last) {
                    SuspectAction::Chunk { lo, n } => Some((lo, n, tick)),
                    _ => None,
                }
            });
            assert_eq!(next, Some((acked + 1, n, at)), "{case}");
        }
    }

    #[test]
    fn resume_needs_a_fast_drain_and_a_small_lag() {
        // (reply success, match, verified, lag) -> resumes? 2·batch_max = 128.
        // A reject also has the fork asked at the peer's next index.
        let table: &[(bool, u64, u64, u64, bool)] = &[
            (true, 500, 500, 128, true),  // drained, lag at the threshold
            (true, 500, 500, 129, false), // drained, lag one past it
            (true, 400, 500, 10, false),  // tiny lag, disk still crawling
            (false, 500, 500, 10, false), // a reject proves nothing
        ];
        for &(success, matched, verified, lag, resumes) in table {
            let case = format!("success={success} match={matched} verified={verified} lag={lag}");
            let mut f = quarantined(ms(0));
            let refork = f.on_lazy_reply(PEER, &reply(success, matched, verified));
            assert_eq!(refork, !success, "{case}");
            let (act, health) = f.plan(ms(30), PEER, matched, matched + lag).unwrap();
            assert_eq!(act == SuspectAction::Resume, resumes, "{case}");
            if resumes {
                assert_eq!(health.transition, "resume");
                assert_eq!(health.evidence, "lag 128 entries; drain verified fast");
                assert_eq!(f.plan(ms(60), PEER, matched, matched + lag), None);
                assert!(!f.quarantined(PEER));
            }
        }
        // Before any reply the peer is presumed slow, whatever the lag.
        let mut f = quarantined(ms(0));
        assert_eq!(action(&mut f, ms(30), 500, 500), SuspectAction::Probe);
    }

    #[test]
    fn a_lost_chunk_is_forgotten_after_replicate_timeout() {
        let mut f = quarantined(ms(0));
        f.on_lazy_reply(PEER, &reply(true, 0, 0));
        let first = action(&mut f, ms(10), 0, 10_000);
        assert_eq!(first, SuspectAction::Chunk { lo: 1, n: 64 });
        // The send shipped fewer entries than planned: the target follows,
        // so an ack through 50 completes the chunk.
        f.chunk_sent(PEER, Some(50));
        f.on_lazy_reply(PEER, &reply(true, 50, 50));
        let second = action(&mut f, ms(40), 50, 10_000);
        assert_eq!(second, SuspectAction::Chunk { lo: 51, n: 128 });
        // No reply ever covers this one. Until the timeout: probes. At the
        // timeout it is forgotten and the next chunk is held back by another
        // replicate_timeout.
        for at in [70, 1039, 1040, 2039] {
            assert_eq!(action(&mut f, ms(at), 50, 10_000), SuspectAction::Probe);
        }
        let third = action(&mut f, ms(2040), 50, 10_000);
        assert_eq!(third, SuspectAction::Chunk { lo: 51, n: 128 });
        // A chunk whose log read came back empty is dropped at once.
        f.chunk_sent(PEER, None);
        let fourth = action(&mut f, ms(2070), 50, 10_000);
        assert_eq!(fourth, SuspectAction::Chunk { lo: 51, n: 128 });
        // One that arrived but takes past the timeout to drain is forgotten
        // too, and the next still waits for the drain: one chunk is on the
        // peer's disk at a time.
        f.on_lazy_reply(PEER, &reply(true, 50, 178));
        for at in [3070, 9000] {
            assert_eq!(action(&mut f, ms(at), 50, 10_000), SuspectAction::Probe);
        }
        f.on_lazy_reply(PEER, &reply(true, 178, 178));
        let fifth = action(&mut f, ms(9030), 178, 10_000);
        assert_eq!(fifth, SuspectAction::Chunk { lo: 179, n: 128 });
    }
}
