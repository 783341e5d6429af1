//! DepFastRaft's leader-side flow control: the per-follower append
//! window, the quarantine / catch-up control law for a follower whose
//! window filled, and the pipelined-round count.
//!
//! A pure state machine: every decision is a function of the virtual time,
//! the peer's acked prefix (`match_index`), the leader's `last_index` and
//! the peer's replies, all passed in, and comes back as an action plus the
//! [`Health`] transition to record. Sending, counting and recording are
//! `depfast_driver`'s.

use std::collections::{HashMap, VecDeque};

use depfast::Health;
use simkit::{NodeId, SimTime};

use crate::core::RaftCfg;
use crate::depfast_driver::REPLICATE_TIMEOUT;
use crate::types::AppendResp;

/// In-flight (not yet classified) `AppendEntries` allowed per follower
/// before further sends to it are skipped. Stale slots expire after
/// [`REPLICATE_TIMEOUT`], so a lost reply cannot wedge the window shut.
///
/// This is the fail-slow tripwire: a healthy follower never fills it, a
/// fail-slow one does, which quarantines it. Sizing rule: at least 2 ×
/// [`RaftCfg::pipeline_depth`], so a deeper pipeline needs a wider window;
/// `raft.append.window_skips` > 0 on a *healthy* cluster means the window
/// is undersized for the pipeline depth.
pub const APPEND_WINDOW: usize = 8;

/// Whether a round or heartbeat `AppendEntries` toward a peer may go out.
#[derive(Debug, PartialEq, Eq)]
pub enum Admit {
    /// A window slot is claimed: send, and [`Flow::release`] the slot
    /// once the reply is classified.
    Send,
    /// The peer is quarantined: only the heartbeat's lazy probes feed it —
    /// every append it receives parks a handler behind its crawling disk.
    Quarantined,
    /// The window was full — the fail-slow signal itself: healthy operation
    /// never accumulates [`APPEND_WINDOW`] unclassified sends — so
    /// the peer has just been quarantined. The caller resets the
    /// optimistically advanced `next_index` to the acked prefix.
    WindowFull(Health),
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

/// A catch-up chunk shipped and not yet drained: it carries the entries
/// `(from, target]`.
#[derive(Clone, Copy)]
struct Outstanding {
    /// When it shipped.
    at: SimTime,
    /// The peer's acked prefix when it shipped.
    from: u64,
    /// Last index it carries.
    target: u64,
    /// The leader's last index when it shipped.
    last_at_ship: u64,
    /// The leader's last index when a reply last showed the peer still
    /// draining the chunk (at first: when it shipped).
    last_while_draining: u64,
}

/// Catch-up state for one quarantined (suspect) peer.
struct Suspect {
    /// Entries per catch-up chunk; ramps up while the peer gains on the
    /// leader, backs off while it does not.
    chunk: usize,
    /// Outstanding chunk, if any.
    pending: Option<Outstanding>,
    /// Earliest time the next chunk may ship.
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

/// Flow-control state of one leader.
pub struct Flow {
    cfg: RaftCfg,
    /// Per-peer in-flight `AppendEntries` send times (window slots).
    inflight: HashMap<u32, VecDeque<SimTime>>,
    /// Per-peer quarantine state: a follower whose append window filled
    /// is fed by lazy probes instead of pipelined rounds until its lag
    /// shrinks again.
    suspects: HashMap<u32, Suspect>,
    /// Rounds launched and resolved (never reset — only the difference
    /// is looked at).
    rounds_launched: u64,
    rounds_done: u64,
}

impl Flow {
    /// Empty flow state under `cfg`.
    pub fn new(cfg: RaftCfg) -> Self {
        Flow {
            cfg,
            inflight: HashMap::new(),
            suspects: HashMap::new(),
            rounds_launched: 0,
            rounds_done: 0,
        }
    }

    /// Fresh leadership: quarantine and window state belong to the old
    /// term's view of the peers.
    pub fn reset_peers(&mut self) {
        self.suspects.clear();
        self.inflight.clear();
    }

    /// Claims an in-flight `AppendEntries` slot toward `peer`. Slots
    /// normally free when the classified reply fires (including the `Err`
    /// fired for discarded requests); because a reply can also *never*
    /// fire — lost after a successful send — stale slots additionally
    /// expire after [`REPLICATE_TIMEOUT`], so a fail-slow follower stalls
    /// only its own append stream and can never wedge the window shut.
    pub fn admit(
        &mut self,
        now: SimTime,
        peer: NodeId,
        match_index: u64,
        last_index: u64,
    ) -> Admit {
        if self.suspects.contains_key(&peer.0) {
            return Admit::Quarantined;
        }
        let q = self.inflight.entry(peer.0).or_default();
        while q.front().is_some_and(|t| now - *t >= REPLICATE_TIMEOUT) {
            q.pop_front();
        }
        if q.len() < APPEND_WINDOW {
            q.push_back(now);
            return Admit::Send;
        }
        self.inflight.remove(&peer.0);
        self.suspects.insert(
            peer.0,
            Suspect {
                chunk: self.cfg.batch_max.max(1),
                pending: None,
                next_chunk_at: now,
                peer_verified: None,
                // Pessimistic until the first probe reply proves the disk
                // is keeping up: the window just filled, which is itself
                // evidence it is not.
                draining_fast: false,
            },
        );
        let evidence = format!("append window full; acked={match_index} leader_last={last_index}");
        Admit::WindowFull(Health::new("quarantine", evidence))
    }

    /// Frees one in-flight append slot toward `peer`.
    pub fn release(&mut self, peer: NodeId) {
        if let Some(q) = self.inflight.get_mut(&peer.0) {
            q.pop_front();
        }
    }

    /// Decides the next heartbeat-tick action toward a quarantined peer;
    /// `None` if the peer is not quarantined. Control law: probe with
    /// empty lazy appends (which cost the peer nothing but report its
    /// durable prefix) until the peer has drained everything delivered,
    /// then ship one catch-up chunk; a chunk the peer drained faster than
    /// the leader appended ramps the chunk size (the peer gains on the
    /// leader), any other drain backs the pace off proportionally so a
    /// still-crawling disk is never saturated by its own catch-up stream
    /// ([`Flow::on_lazy_reply`]).
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
                from: match_index,
                target: match_index + n as u64,
                last_at_ship: last_index,
                last_while_draining: last_index,
            });
            let evidence = format!("catch-up chunk [{lo}, {})", lo + n as u64);
            Some((
                SuspectAction::Chunk { lo, n },
                Health::new("chunk", evidence),
            ))
        } else {
            let evidence = format!("lazy probe; acked={match_index}");
            Some((SuspectAction::Probe, Health::new("probe", evidence)))
        }
    }

    /// Corrects the outstanding chunk's target after the send actually
    /// shipped entries through `hi` (the log may have had fewer than
    /// planned).
    pub fn chunk_sent(&mut self, peer: NodeId, hi: Option<u64>) {
        if let Some(s) = self.suspects.get_mut(&peer.0) {
            s.pending = hi
                .zip(s.pending)
                .map(|(target, p)| Outstanding { target, ..p });
        }
    }

    /// Digests a lazy reply from a quarantined peer, `last_index` being
    /// the leader's last index now: learns the peer's verified index and
    /// adapts the catch-up pace to whether the peer gained on the leader
    /// with the outstanding chunk — whether, once it drained, it had
    /// delivered more entries than the leader appended while it was
    /// draining them, that is, until the last reply that still showed it
    /// short of the chunk. How long the drain took is no evidence either
    /// way: a full chunk costs even a healthy peer more than a heartbeat
    /// of append CPU, and the drain is only *seen* at the next heartbeat's
    /// probe, up to a heartbeat after it happened.
    pub fn on_lazy_reply(
        &mut self,
        now: SimTime,
        peer: NodeId,
        last_index: u64,
        resp: &AppendResp,
    ) {
        let Some(s) = self.suspects.get_mut(&peer.0) else {
            return;
        };
        s.peer_verified = Some(resp.verified.max(s.peer_verified.unwrap_or(0)));
        s.draining_fast = resp.success && resp.match_index >= resp.verified;
        let Some(p) = s.pending.as_mut().filter(|_| resp.success) else {
            return;
        };
        if resp.match_index < p.target {
            p.last_while_draining = last_index;
        } else {
            let dt = now - p.at;
            let arrived = p.last_while_draining.saturating_sub(p.last_at_ship);
            if p.target - p.from > arrived {
                s.chunk = (s.chunk * 2).min(self.cfg.max_entries_per_append);
                s.next_chunk_at = now;
            } else {
                s.chunk = (s.chunk / 2).max(self.cfg.batch_max.max(1));
                s.next_chunk_at = now + (dt * 4).min(REPLICATE_TIMEOUT);
            }
            s.pending = None;
        }
    }

    /// Unresolved replication rounds (launched minus resolved).
    pub fn rounds_inflight(&self) -> u64 {
        self.rounds_launched.saturating_sub(self.rounds_done)
    }

    /// The pipeline-depth gate: `Some(n)` when
    /// [`RaftCfg::pipeline_depth`] rounds are unresolved, meaning intake
    /// must wait until `n` rounds in total have resolved.
    pub fn pipeline_full(&self) -> Option<u64> {
        let depth = self.cfg.pipeline_depth.max(1) as u64;
        (self.rounds_inflight() >= depth).then(|| self.rounds_launched - depth + 1)
    }

    /// Counts a round launched; returns the rounds now in flight.
    pub fn round_launched(&mut self) -> u64 {
        self.rounds_launched += 1;
        self.rounds_inflight()
    }

    /// Counts a round resolved (quorum reached, timed out, or leadership
    /// lost); returns `(rounds resolved in total, rounds still in flight)`.
    pub fn round_done(&mut self) -> (u64, u64) {
        self.rounds_done += 1;
        (self.rounds_done, self.rounds_inflight())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    const PEER: NodeId = NodeId(2);

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

    fn reply(success: bool, match_index: u64, verified: u64) -> AppendResp {
        AppendResp {
            term: 1,
            success,
            match_index,
            verified,
        }
    }

    /// A flow whose `PEER` was quarantined at `at` by a full window.
    fn quarantined(at: SimTime) -> Flow {
        let mut f = Flow::new(cfg());
        for _ in 0..APPEND_WINDOW {
            assert_eq!(f.admit(at, PEER, 0, 1000), Admit::Send);
        }
        assert!(matches!(f.admit(at, PEER, 0, 1000), Admit::WindowFull(_)));
        f
    }

    fn action(f: &mut Flow, now: SimTime, match_index: u64, last: u64) -> SuspectAction {
        f.plan(now, PEER, match_index, last).expect("quarantined").0
    }

    #[test]
    fn full_window_quarantines_and_names_the_evidence() {
        let mut f = Flow::new(cfg());
        for i in 0..8 {
            assert_eq!(f.admit(ms(i), PEER, 40, 90), Admit::Send, "slot {i}");
        }
        // A released slot is free again; other peers have their own window.
        f.release(PEER);
        assert_eq!(f.admit(ms(8), PEER, 40, 90), Admit::Send);
        assert_eq!(f.admit(ms(8), NodeId(1), 40, 90), Admit::Send);
        let Admit::WindowFull(health) = f.admit(ms(9), PEER, 40, 90) else {
            panic!("ninth unclassified send must quarantine");
        };
        assert_eq!(health.transition, "quarantine");
        assert_eq!(
            health.evidence,
            "append window full; acked=40 leader_last=90"
        );
        assert_eq!(f.admit(ms(10), PEER, 40, 90), Admit::Quarantined);
        assert_eq!(f.plan(ms(10), NodeId(1), 40, 90), None, "peer 1 is healthy");
        f.reset_peers();
        assert_eq!(f.admit(ms(11), PEER, 40, 90), Admit::Send, "fresh term");
    }

    #[test]
    fn stale_window_slots_expire_after_replicate_timeout() {
        // Replies lost. One tick short of the timeout the window is still
        // shut; at the timeout every stale slot is gone. (Two flows: a shut
        // window quarantines, which would mask the second check.)
        for (at, reopened) in [(999, false), (1000, true)] {
            let mut f = Flow::new(cfg());
            for _ in 0..8 {
                assert_eq!(f.admit(ms(0), PEER, 0, 10), Admit::Send);
            }
            assert_eq!(f.admit(ms(at), PEER, 0, 10) == Admit::Send, reopened);
        }
    }

    #[test]
    fn probes_until_the_peer_has_drained_then_ships_one_chunk() {
        let mut f = quarantined(ms(0));
        // No reply yet: nothing is known about the peer's disk.
        assert_eq!(action(&mut f, ms(30), 100, 1000), SuspectAction::Probe);
        // Durable prefix 100 trails the verified 180: still draining.
        f.on_lazy_reply(ms(31), PEER, 1000, &reply(true, 100, 180));
        assert_eq!(action(&mut f, ms(60), 100, 1000), SuspectAction::Probe);
        f.on_lazy_reply(ms(61), PEER, 1000, &reply(true, 150, 180));
        assert_eq!(action(&mut f, ms(90), 150, 1000), SuspectAction::Probe);
        // Drained (match_index >= verified): one chunk of batch_max.
        f.on_lazy_reply(ms(91), PEER, 1000, &reply(true, 180, 180));
        let (act, health) = f.plan(ms(120), PEER, 180, 1000).unwrap();
        assert_eq!(act, SuspectAction::Chunk { lo: 181, n: 64 });
        assert_eq!(health.transition, "chunk");
        assert_eq!(health.evidence, "catch-up chunk [181, 245)");
        // ... and only one: while it is outstanding, back to probing.
        let (act, health) = f.plan(ms(150), PEER, 180, 1000).unwrap();
        assert_eq!(act, SuspectAction::Probe);
        assert_eq!(health.evidence, "lazy probe; acked=180");
    }

    #[test]
    fn gaining_on_the_leader_sets_chunk_size_and_pace() {
        // (chunk, a reply shows it still draining at ms, entries the leader
        // had appended by then, the next shows it drained at ms, appended
        // by then) -> (chunk after, pause before the next chunk ms). The
        // peer starts 100 000 entries behind and acks exactly the chunk.
        #[rustfmt::skip]
        let table: &[(usize, u64, u64, u64, u64, usize, u64)] = &[
            // The defect: a recovered follower drains a full chunk — 30 µs
            // + 512 × 120 µs ≈ 61.5 ms of append CPU — in 65 ms while 200
            // arrive. A 45 ms deadline halved it and paused 260 ms.
            (512, 60, 185, 65, 200, 512, 0),
            // Drained within a heartbeat and seen at the next probe, by
            // when 90 had arrived; only the 20 that arrived while the peer
            // still held it count against it.
            (64, 8, 20, 31, 90, 128, 0),
            (256, 60, 100, 90, 150, 512, 0),    // doubles up to max_entries_per_append
            (64, 370, 10, 400, 12, 128, 0),     // a healthy peer behind a starved leader
            (256, 70, 256, 100, 300, 128, 400), // drained what arrived: no gain; halves, 4·dt
            (128, 30, 170, 46, 200, 64, 184),   // lost ground
            (64, 170, 500, 200, 600, 64, 800),  // floored at batch_max
            (64, 270, 810, 300, 900, 64, 1000), // a crawling disk: pace capped at replicate_timeout
        ];
        for &(chunk, busy_ms, busy_arrived, done_ms, arrived, chunk_after, pause) in table {
            let case = format!("chunk={chunk} draining at {busy_ms} ms, drained at {done_ms}");
            let last = 100_000;
            let mut f = quarantined(ms(0));
            f.on_lazy_reply(ms(1), PEER, last, &reply(true, 0, 0));
            f.suspects.get_mut(&PEER.0).unwrap().chunk = chunk;
            let shipped = action(&mut f, ms(10), 0, last);
            assert_eq!(shipped, SuspectAction::Chunk { lo: 1, n: chunk }, "{case}");
            let m = chunk as u64;
            // Appended (verified) but not yet durable.
            let busy = reply(true, 0, m);
            f.on_lazy_reply(ms(10 + busy_ms), PEER, last + busy_arrived, &busy);
            let (now, last) = (ms(10 + done_ms), last + arrived);
            f.on_lazy_reply(now, PEER, last, &reply(true, m, m));
            if pause > 0 {
                let early = now + Duration::from_millis(pause - 1);
                let held = action(&mut f, early, m, last);
                assert_eq!(held, SuspectAction::Probe, "{case}: paced {pause} ms");
            }
            let next = action(&mut f, now + Duration::from_millis(pause), m, last);
            let n = chunk_after;
            assert_eq!(next, SuspectAction::Chunk { lo: m + 1, n }, "{case}");
        }
    }

    #[test]
    fn resume_needs_a_fast_drain_and_a_small_lag() {
        // (reply success, match, verified, lag) -> resumes? 2·batch_max = 128.
        let table: &[(bool, u64, u64, u64, bool)] = &[
            (true, 500, 500, 128, true),  // drained, lag at the threshold
            (true, 500, 500, 129, false), // drained, lag one past it
            (true, 400, 500, 10, false),  // tiny lag, disk still crawling
            (false, 500, 500, 10, false), // a reject proves nothing
        ];
        for &(success, matched, verified, lag, resumes) in table {
            let case = format!("success={success} match={matched} verified={verified} lag={lag}");
            let mut f = quarantined(ms(0));
            f.on_lazy_reply(
                ms(1),
                PEER,
                matched + lag,
                &reply(success, matched, verified),
            );
            let (act, health) = f.plan(ms(30), PEER, matched, matched + lag).unwrap();
            assert_eq!(act == SuspectAction::Resume, resumes, "{case}");
            if resumes {
                assert_eq!(health.transition, "resume");
                assert_eq!(health.evidence, "lag 128 entries; drain verified fast");
                assert_eq!(f.plan(ms(60), PEER, matched, matched + lag), None);
                assert_eq!(f.admit(ms(60), PEER, matched, matched + lag), Admit::Send);
            }
        }
        // Before any reply the peer is presumed slow, whatever the lag.
        let mut f = quarantined(ms(0));
        assert_eq!(action(&mut f, ms(30), 500, 500), SuspectAction::Probe);
    }

    #[test]
    fn a_lost_chunk_is_forgotten_after_replicate_timeout() {
        let mut f = quarantined(ms(0));
        f.on_lazy_reply(ms(1), PEER, 10_000, &reply(true, 0, 0));
        let first = action(&mut f, ms(10), 0, 10_000);
        assert_eq!(first, SuspectAction::Chunk { lo: 1, n: 64 });
        // The send shipped fewer entries than planned: the target follows,
        // so an ack through 50 completes the chunk.
        f.chunk_sent(PEER, Some(50));
        f.on_lazy_reply(ms(20), PEER, 10_000, &reply(true, 50, 50));
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
    }

    #[test]
    fn pipeline_gate_counts_unresolved_rounds() {
        let mut f = Flow::new(cfg());
        for i in 1..=4 {
            assert_eq!(f.pipeline_full(), None);
            assert_eq!(f.round_launched(), i);
        }
        // Four unresolved: intake waits for the first resolution.
        assert_eq!(f.pipeline_full(), Some(1));
        assert_eq!(f.round_done(), (1, 3));
        assert_eq!(f.pipeline_full(), None);
        assert_eq!(f.round_launched(), 4);
        assert_eq!(f.pipeline_full(), Some(2));
    }
}
