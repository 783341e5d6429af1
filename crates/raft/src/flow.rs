//! DepFastRaft's leader-side flow control: the per-follower append window
//! and the pipelined-round count.
//!
//! A pure state machine: every decision is a function of the virtual time
//! and the peer, passed in. A full window is the fail-slow signal; what a
//! leader does with that peer next — quarantine and catch-up — is the feed
//! law's ([`crate::feed`]). Sending, counting and recording are
//! `depfast_driver`'s.

use std::collections::{HashMap, VecDeque};

use simkit::{NodeId, SimTime};

use crate::core::RaftCfg;
use crate::depfast_driver::REPLICATE_TIMEOUT;

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

/// Flow-control state of one leader.
pub struct Flow {
    cfg: RaftCfg,
    /// Per-peer in-flight `AppendEntries` send times (window slots).
    inflight: HashMap<u32, VecDeque<SimTime>>,
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
            rounds_launched: 0,
            rounds_done: 0,
        }
    }

    /// Fresh leadership: window state belongs to the old term's view of
    /// the peers.
    pub fn reset_peers(&mut self) {
        self.inflight.clear();
    }

    /// Claims an in-flight `AppendEntries` slot toward `peer`. Slots
    /// normally free when the classified reply fires (including the `Err`
    /// fired for discarded requests); because a reply can also *never*
    /// fire — lost after a successful send — stale slots additionally
    /// expire after [`REPLICATE_TIMEOUT`], so a fail-slow follower stalls
    /// only its own append stream and can never wedge the window shut.
    ///
    /// `false` if the window is full — the fail-slow signal itself:
    /// healthy operation never accumulates [`APPEND_WINDOW`] unclassified
    /// sends. The peer's window is then forgotten: it goes into quarantine
    /// and comes back, if it does, to an empty one.
    pub fn admit(&mut self, now: SimTime, peer: NodeId) -> bool {
        let q = self.inflight.entry(peer.0).or_default();
        while q.front().is_some_and(|t| now - *t >= REPLICATE_TIMEOUT) {
            q.pop_front();
        }
        if q.len() < APPEND_WINDOW {
            q.push_back(now);
            return true;
        }
        self.inflight.remove(&peer.0);
        false
    }

    /// Frees one in-flight append slot toward `peer`.
    pub fn release(&mut self, peer: NodeId) {
        if let Some(q) = self.inflight.get_mut(&peer.0) {
            q.pop_front();
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

    const PEER: NodeId = NodeId(2);

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    #[test]
    fn a_full_window_refuses_the_next_send_and_forgets_the_peer() {
        let mut f = Flow::new(RaftCfg::default());
        for i in 0..8 {
            assert!(f.admit(ms(i), PEER), "slot {i}");
        }
        // A released slot is free again; other peers have their own window.
        f.release(PEER);
        assert!(f.admit(ms(8), PEER));
        assert!(f.admit(ms(8), NodeId(1)));
        assert!(!f.admit(ms(9), PEER), "ninth unclassified send");
        // What comes back from quarantine starts with an empty window, and
        // so does every peer of a fresh term.
        for i in 0..8 {
            assert!(f.admit(ms(10), PEER), "slot {i}");
        }
        f.reset_peers();
        for i in 0..8 {
            assert!(f.admit(ms(11), PEER), "slot {i}, fresh term");
        }
    }

    #[test]
    fn stale_window_slots_expire_after_replicate_timeout() {
        // Replies lost. One tick short of the timeout the window is still
        // shut; at the timeout every stale slot is gone. (Two flows: a shut
        // window forgets the peer, which would mask the second check.)
        for (at, reopened) in [(999, false), (1000, true)] {
            let mut f = Flow::new(RaftCfg::default());
            for _ in 0..8 {
                assert!(f.admit(ms(0), PEER));
            }
            assert_eq!(f.admit(ms(at), PEER), reopened);
        }
    }

    #[test]
    fn pipeline_gate_counts_unresolved_rounds() {
        let mut f = Flow::new(RaftCfg::default());
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
