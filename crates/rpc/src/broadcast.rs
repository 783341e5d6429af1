//! Quorum-aware broadcast: the paper's round shape, and the
//! framework-level optimization of §2.3.
//!
//! §3.1: broadcast, add each reply to a `QuorumEvent`, wait once.
//! [`broadcast()`] is that round for every protocol in the workspace — a
//! leadership confirmation, a (pre-)vote, a 2PC phase: it sends one typed
//! request per peer, classifies each reply with the round's `judge`, and
//! adds the verdicts (after the round's own pre-fired local member, if it
//! has one) to the caller's [`QuorumEvent`].
//!
//! §2.3: *"If the framework is aware that this is a broadcast that can
//! succeed with a quorum of replies, it can safely discard the messages
//! for the slow connection."* With `discard_on_quorum` every request still
//! sitting in an outgoing buffer is cancelled the moment the quorum
//! resolves — so a slow peer's buffer cannot grow without bound.

use std::rc::Rc;

use depfast::event::{EventHandle, Notify, QuorumEvent, Signal};
use simkit::NodeId;

use crate::conn::CancelToken;
use crate::endpoint::Endpoint;
use crate::wire::{WireRead, WireWrite};
use crate::Method;

/// Sends each of `calls` — `(peer, method, request)` — under `label` and
/// adds one classified reply per call to `quorum`; returns those verdict
/// events in call order. The caller then waits on `quorum`, once.
///
/// `judge` turns a decoded reply (`None`: dropped by the framework, or
/// undecodable) into the vote the quorum counts. `local` names the
/// round's own already-cast vote — the leader's self ack, a candidate's
/// self vote: an event fired `Ok` and added before any peer's. Give such
/// a quorum a [`QuorumMode::Count`](depfast::event::QuorumMode::Count)
/// threshold; a dynamic majority would resolve on that first member.
pub fn broadcast<Req: WireWrite, Resp: WireRead + 'static>(
    ep: &Endpoint,
    quorum: &QuorumEvent,
    local: Option<&'static str>,
    label: &'static str,
    calls: impl IntoIterator<Item = (NodeId, Method, Req)>,
    judge: impl Fn(Option<Resp>) -> bool + 'static,
    discard_on_quorum: bool,
) -> Vec<EventHandle> {
    if let Some(local) = local {
        let vote = Notify::labeled(ep.runtime(), local);
        vote.set(Signal::Ok);
        quorum.add(&vote);
    }
    let judge = Rc::new(judge);
    let cancel = discard_on_quorum.then(CancelToken::new);
    let calls = calls.into_iter();
    let mut votes = Vec::with_capacity(calls.size_hint().0);
    for (peer, method, req) in calls {
        let judge = judge.clone();
        let vote = ep
            .proxy(peer)
            .call_classified(method, label, &req, cancel.clone(), move |r| judge(r));
        quorum.add(&vote);
        votes.push(vote);
    }
    if let Some(cancel) = cancel {
        cancel.cancel_when(quorum);
    }
    votes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{Registry, RpcCfg};
    use crate::BufferPolicy;
    use bytes::Bytes;
    use depfast::event::QuorumMode;
    use depfast::runtime::Runtime;
    use simkit::{Sim, World, WorldCfg};
    use std::cell::RefCell;
    use std::time::Duration;

    const ECHO: u32 = 1;
    const PEERS: [NodeId; 3] = [NodeId(1), NodeId(2), NodeId(3)];

    fn cluster_with(n: usize, cfg: RpcCfg) -> (Sim, World, Vec<Endpoint>) {
        let sim = Sim::new(3);
        let world = World::new(
            sim.clone(),
            WorldCfg {
                nodes: n,
                ..WorldCfg::default()
            },
        );
        let registry = Registry::new();
        let tracer = depfast::Tracer::new();
        let eps: Vec<Endpoint> = (0..n as u32)
            .map(|i| {
                let rt = Runtime::with_tracer(sim.clone(), NodeId(i), tracer.clone());
                Endpoint::new(&rt, &world, &registry, cfg)
            })
            .collect();
        for ep in &eps {
            ep.register(ECHO, "svc:echo", |_, payload, r| r.reply(payload));
        }
        (sim, world, eps)
    }

    fn cluster(n: usize) -> (Sim, World, Vec<Endpoint>) {
        cluster_with(n, RpcCfg::default())
    }

    /// One echo round to [`PEERS`] counting every reply that arrives,
    /// waited up to `patience`; returns how many verdicts fired `Ok`.
    fn echo_round(
        sim: &Sim,
        ep: &Endpoint,
        mode: QuorumMode,
        body: usize,
        discard: bool,
        patience: Duration,
    ) -> (usize, depfast::WaitResult) {
        let quorum = QuorumEvent::labeled(ep.runtime(), mode, "bcast");
        let calls = PEERS.map(|p| (p, ECHO, Bytes::from(vec![0u8; body])));
        let arrived = |reply: Option<Bytes>| reply.is_some();
        let votes = broadcast(ep, &quorum, None, "bcast", calls, arrived, discard);
        let out = sim.block_on(async move { quorum.wait_timeout(patience).await });
        (oks(&votes), out)
    }

    /// How many of `votes` fired `Ok`.
    fn oks(votes: &[EventHandle]) -> usize {
        votes.iter().filter(|v| v.ready()).count()
    }

    #[test]
    fn majority_completes_despite_one_dead_peer() {
        let (sim, world, eps) = cluster(4);
        world.crash(NodeId(3));
        let (oks, out) = echo_round(
            &sim,
            &eps[0],
            QuorumMode::Majority,
            1,
            false,
            Duration::from_secs(1),
        );
        assert!(out.is_ready());
        assert_eq!(oks, 2);
    }

    #[test]
    fn discard_on_quorum_cancels_queued_requests() {
        let (sim, world, eps) = cluster(4);
        // Peer 3 is CPU-starved: its pump drains very slowly, so credits
        // stop returning and requests pile up in the sender's queue.
        world.set_cpu_quota(NodeId(3), 0.001);
        let mut done = 0u64;
        for _ in 0..2000 {
            let (_, r) = echo_round(
                &sim,
                &eps[0],
                QuorumMode::Majority,
                128,
                true,
                Duration::from_secs(1),
            );
            if r.is_ready() {
                done += 1;
            }
        }
        assert_eq!(done, 2000, "healthy majority always completes");
        let queued = eps[0].queue_len(NodeId(3));
        // Without discard the queue would hold ~2000 - window messages;
        // with discard it stays near the credit window.
        assert!(
            queued < 300,
            "queue to slow peer should stay bounded, got {queued}"
        );
        // Only sends to the slow peer queue long enough to be discarded.
        let dropped = eps[0]
            .runtime()
            .tracer()
            .metrics()
            .node(0)
            .counter("rpc.dropped");
        assert!(dropped.get() > 1000, "most sends were discarded");
    }

    #[test]
    fn without_discard_queue_to_slow_peer_grows() {
        let (sim, world, eps) = cluster(4);
        world.set_cpu_quota(NodeId(3), 0.001);
        for _ in 0..500 {
            echo_round(
                &sim,
                &eps[0],
                QuorumMode::Majority,
                128,
                false,
                Duration::from_secs(1),
            );
        }
        let queued = eps[0].queue_len(NodeId(3));
        assert!(queued > 300, "un-discarded queue should grow, got {queued}");
    }

    #[test]
    fn quorum_unreachable_when_too_many_peers_dead() {
        let (sim, world, eps) = cluster(4);
        world.crash(NodeId(2));
        world.crash(NodeId(3));
        // Dead peers never reply (no transport error signal), so the
        // wait resolves by timeout rather than explicit failure.
        let (oks, out) = echo_round(
            &sim,
            &eps[0],
            QuorumMode::Majority,
            0,
            false,
            Duration::from_millis(500),
        );
        assert_eq!(out, depfast::WaitResult::Timeout);
        assert_eq!(oks, 1);
    }

    #[test]
    fn the_judge_sees_none_on_a_transport_err() {
        // A zero-capacity buffer drops every request at enqueue: the
        // transport fails each call before anything is sent.
        let full = BufferPolicy::Bounded { cap: 0 };
        let (_sim, _world, eps) = cluster_with(4, RpcCfg { buffer: full });
        let seen = Rc::new(RefCell::new(Vec::new()));
        let s = seen.clone();
        let quorum = QuorumEvent::labeled(eps[0].runtime(), QuorumMode::Majority, "bcast");
        let votes = broadcast(
            &eps[0],
            &quorum,
            None,
            "bcast",
            PEERS.map(|p| (p, ECHO, 7u64)),
            move |reply: Option<u64>| {
                s.borrow_mut().push(reply);
                true
            },
            false,
        );
        assert_eq!(*seen.borrow(), vec![None, None, None]);
        // The judge, not the transport, decides the vote.
        assert!(votes.iter().all(|v| v.ready()));
        assert!(quorum.ready());
    }

    #[test]
    fn the_local_member_counts_toward_count_k() {
        let (sim, world, eps) = cluster(4);
        world.crash(NodeId(2));
        world.crash(NodeId(3));
        // One live peer of three: two remote votes never arrive, so a
        // 2-of-4 round is met only because the local vote is one of them.
        let quorum = QuorumEvent::labeled(eps[0].runtime(), QuorumMode::Count(2), "round");
        let votes = broadcast(
            &eps[0],
            &quorum,
            Some("self_vote"),
            "bcast",
            PEERS.map(|p| (p, ECHO, 7u64)),
            |reply: Option<u64>| reply == Some(7),
            false,
        );
        // The one `Ok` member so far is the local vote.
        assert_eq!((quorum.n(), oks(&votes), votes.len()), (4, 0, 3));
        assert!(!quorum.ready(), "the local vote alone is not the quorum");
        let q = quorum.clone();
        let out = sim.block_on(async move { q.wait_timeout(Duration::from_secs(1)).await });
        assert!(out.is_ready());
        assert_eq!(oks(&votes), 1, "with the local vote, 2 of 4");
    }
}
