//! **DepFastRaft** — the paper's fail-slow fault-tolerant implementation
//! (§3.4).
//!
//! The leader's replication loop waits on exactly one thing per round: a
//! [`QuorumEvent`] whose children are the leader's own WAL-durability
//! event plus one classified reply event per follower. No individual RPC
//! is ever awaited on the critical path; laggard followers are caught up
//! by fire-and-forget sends driven from reply hooks and heartbeats, and
//! their still-buffered traffic is discarded once the quorum no longer
//! needs it (the §2.3 framework-awareness optimization).
//!
//! Every other round — leadership confirmation, PreVote, election — is
//! one [`broadcast()`] into a quorum and one wait. Leader election uses the
//! §3.2 nested-event pattern verbatim: an [`OrEvent`] over a
//! majority-granted quorum and a minority-plus-one-rejected quorum, waited
//! with a timeout.

use std::rc::Rc;
use std::time::Duration;

use depfast::event::{EventHandle, EventKind, OrEvent, QuorumEvent, QuorumMode, Signal, Watchable};
use depfast::runtime::Coroutine;
use depfast_rpc::conn::CancelToken;
use depfast_rpc::{broadcast, inverse, Method};
use simkit::disk::DiskOp;
use simkit::NodeId;

use crate::core::{Fed, RaftCore, Role, ELECTION_TIMEOUT, HEARTBEAT};
use crate::feed::SuspectAction;
use crate::reads::{ReadTicket, Resume};
use crate::types::{
    AppendReq, AppendResp, VoteReq, VoteResp, APPEND_ENTRIES, PRE_VOTE, REQUEST_VOTE,
};

/// Quorum-wait deadline per replication round (and per leadership
/// confirmation). [`crate::flow`] ages its window slots and [`crate::feed`]
/// its lost catch-up chunks by the same bound: what a round has given up
/// on, the window may reuse.
pub const REPLICATE_TIMEOUT: Duration = Duration::from_millis(1000);

/// The DepFastRaft driver.
pub struct DepFastRaft;

impl DepFastRaft {
    /// Starts all DepFastRaft coroutines on `core`.
    pub fn start(core: &Rc<RaftCore>) {
        core.install_follower_services();
        core.spawn_apply_loop();
        Self::spawn_leader_loop(core);
        Self::spawn_heartbeats(core);
        Self::spawn_election_daemon(core);
    }

    /// Records a flow-control transition toward `peer` in the health log.
    fn record_health(core: &RaftCore, peer: NodeId, health: depfast::Health) {
        let tracer = core.rt.tracer();
        tracer.record_health(core.rt.now(), peer, "raft", health, core.health_group());
    }

    /// Whether a round or heartbeat send toward `peer` may go out now; if
    /// so, one of the peer's append-window slots is held for it. A
    /// quarantined peer is fed by the heartbeat's lazy probes only — every
    /// append it receives parks a handler behind its crawling disk — and a
    /// full window quarantines the peer: the caller's optimistically
    /// advanced `next_index` goes back to the acked prefix.
    fn admit(core: &RaftCore, peer: NodeId) -> bool {
        if core.feed.borrow().quarantined(peer) {
            return false;
        }
        let now = core.rt.now();
        if !core.flow.borrow_mut().admit(now, peer) {
            let (m, last) = (core.match_index(peer), core.log.last_index());
            let health = core.feed.borrow_mut().quarantine(now, peer, m, last);
            core.st.borrow_mut().next_index.insert(peer.0, m + 1);
            core.stats.window_skips.inc();
            core.stats.suspects.inc();
            Self::record_health(core, peer, health);
            return false;
        }
        // Framework-aware backpressure: if this peer's outgoing buffer is
        // already deep (a laggard that is not absorbing catch-up traffic),
        // do not stack more entries onto it — the next heartbeat retries.
        if core.ep.queue_len(peer) > 64 {
            core.flow.borrow_mut().release(peer);
            return false;
        }
        true
    }

    /// The `AppendEntries` of the current term carrying `[lo, hi)` to
    /// `peer`, cold entries read at the cost of disk time in this coroutine
    /// only; `None` if there is nothing to send from the log — the node
    /// crashed, or the log no longer holds `lo` and the feed law has the
    /// peer fed state.
    async fn append_to(core: &Rc<RaftCore>, peer: NodeId, lo: u64, hi: u64) -> Option<AppendReq> {
        let term = core.log.current_term();
        let mut fed = core.feed(peer, term, lo, hi, Vec::new());
        if let Fed::Cold(entries, bytes) = fed {
            let read = core.world.disk(core.id, DiskOp::Read { bytes });
            read.await.ok()?;
            fed = core.feed(peer, term, lo, hi, entries);
        }
        match fed {
            Fed::Append(req) => Some(req),
            _ => None,
        }
    }

    /// One fire-and-forget replication send to `peer`, reporting protocol
    /// outcome for `target_index` into `done` (a quorum child, which
    /// tolerates the `Err` of a send that was not admitted). Reads of cold
    /// entries cost disk time *in this coroutine only*.
    fn send_append(
        core: &Rc<RaftCore>,
        peer: NodeId,
        target_index: u64,
        done: Option<depfast::EventHandle>,
        cancel: Option<CancelToken>,
    ) {
        let core = core.clone();
        if !Self::admit(&core, peer) {
            if let Some(d) = done {
                d.fire(Signal::Err);
            }
            return;
        }
        Coroutine::create(&core.rt.clone(), "raft:send_append", async move {
            let lo = core.next_index(peer);
            let hi = (target_index + 1).min(lo + core.cfg.max_entries_per_append as u64);
            // A peer the log no longer reaches is fed state, off this round:
            // its quorum child hears "no", as for a read that failed.
            let Some(req) = Self::append_to(&core, peer, lo, hi).await else {
                core.flow.borrow_mut().release(peer);
                if let Some(d) = done {
                    d.fire(Signal::Err);
                }
                return;
            };
            // Advance next_index past what this send carries, so rounds
            // pipelined behind this one do not re-ship entries already in
            // flight. Rejects and lost replies back it up again.
            core.note_sent_through(peer, req.prev_index + req.entries.len() as u64);
            let c2 = core.clone();
            let derived = core.ep.proxy(peer).call_classified(
                core.method(APPEND_ENTRIES),
                "append_entries",
                &req,
                cancel,
                move |resp: Option<AppendResp>| {
                    c2.flow.borrow_mut().release(peer);
                    resp.is_some_and(|r| {
                        c2.on_append_reply(peer, &r) && r.match_index >= target_index
                    })
                },
            );
            if let Some(d) = done {
                // Forward the classified outcome into the round's quorum.
                derived.on_fire(move |s| d.fire(s));
            }
        });
    }

    fn spawn_leader_loop(core: &Rc<RaftCore>) {
        let core = core.clone();
        Coroutine::create(&core.rt.clone(), "raft:replicate", async move {
            loop {
                if core.st.borrow().role != Role::Leader {
                    // Wait (on a local value event) until elected.
                    let _g = depfast::PhaseGuard::enter("await_leadership");
                    let epoch = core.st.borrow().leader_epoch;
                    core.leader_gen.when_at_least(epoch + 1).wait().await;
                    continue;
                }
                // Pipeline-depth gate: at most `pipeline_depth` rounds
                // may be unresolved. This wait is the only back-pressure
                // between rounds — round k+1 otherwise ships before round
                // k's quorum resolves.
                let gate = core.flow.borrow().pipeline_full();
                if let Some(resolved) = gate {
                    core.stats.pipeline_stalls.inc();
                    let _g = depfast::PhaseGuard::enter("pipeline_gate");
                    core.rounds_done.when_at_least(resolved).wait().await;
                    continue;
                }
                let mut batch = {
                    let _g = depfast::PhaseGuard::enter("intake");
                    core.proposals
                        .pop_batch(&core.rt, core.cfg.batch_max, None)
                        .await
                };
                // Coalescing policy: linger for one group-commit window
                // before shipping, but only while the pipeline is busy —
                // an idle pipe means nothing is covering latency, so ship
                // immediately. Under load the linger turns a stream of
                // tiny rounds (one WAL fsync and one per-peer RPC each)
                // into few large ones, amortizing both. ZERO disables.
                if core.cfg.batch_window > Duration::ZERO
                    && batch.len() < core.cfg.batch_max
                    && core.flow.borrow().rounds_inflight() > 0
                {
                    let _g = depfast::PhaseGuard::enter("batch_window");
                    core.rt.sleep(core.cfg.batch_window).await;
                    let room = core.cfg.batch_max - batch.len();
                    batch.extend(core.proposals.drain_up_to(room));
                }
                // Charge leader-side proposal processing.
                let propose_phase = depfast::PhaseSpan::begin(&core.rt, "propose");
                let cpu = core.cfg.propose_cpu * batch.len() as u32;
                if core.world.cpu(core.id, cpu).await.is_err() {
                    break;
                }
                propose_phase.end();
                // A handover holds the round until it ends — a batch popped
                // or charged while it began included.
                let held = core.handover.borrow().as_ref().map(|h| h.2.clone());
                if let Some(ended) = held {
                    let _g = depfast::PhaseGuard::enter("handover");
                    ended.wait().await;
                }
                // Deposed meanwhile: the batch is refused like the queue.
                if core.st.borrow().role != Role::Leader {
                    for (_, ev) in batch {
                        ev.fire_err();
                    }
                    continue;
                }
                let term = core.log.current_term();
                let proposal_ids: Vec<_> = batch.iter().map(|(_, ev)| ev.handle().id()).collect();
                let staged = core.stage_batch(batch);
                let hi = staged.hi;

                // The round's single waiting point: majority of {own disk}
                // ∪ {classified peer acks}.
                let quorum = QuorumEvent::labeled(&core.rt, QuorumMode::Majority, "replicate");
                // Tie each batched proposal to this round so critical-path
                // analysis can walk commit → round → the child that
                // decided it (named on the round's fire record).
                let round_id = quorum.handle().id();
                let t_link = core.rt.now();
                for pid in proposal_ids {
                    core.rt.tracer().record(|| depfast::TraceRecord::RoundLink {
                        t: t_link,
                        proposal: pid,
                        round: round_id,
                    });
                }
                quorum.add(&staged.durable);
                let cancel = CancelToken::new();
                for peer in core.peers.clone() {
                    let child = core.ep.proxy(peer).pending_reply("append_entries");
                    quorum.add(&child);
                    Self::send_append(&core, peer, hi, Some(child), Some(cancel.clone()));
                }
                // Once the quorum is reached, cancel the `AppendEntries`
                // still queued toward slow peers.
                cancel.cancel_when(&quorum);
                let inflight = core.flow.borrow_mut().round_launched();
                core.stats.batch_rounds.inc();
                core.stats.batch_size.record_ns(staged.entries.len() as u64);
                core.stats.pipeline_inflight.set(inflight as i64);
                // Resolve the round off the intake path: the next round's
                // intake starts immediately, bounded only by the
                // pipeline-depth gate above.
                let c = core.clone();
                Coroutine::create(&core.rt.clone(), "raft:round_wait", async move {
                    let outcome = {
                        let _g = depfast::PhaseGuard::enter("replicate_wait");
                        quorum.wait_timeout(REPLICATE_TIMEOUT).await
                    };
                    // Rounds may resolve out of order; that is safe: a
                    // quorum on a later round's hi implies this round's
                    // entries are replicated (log matching), and
                    // set_commit is monotonic. Only a quorum from the
                    // term that shipped the round may move the commit
                    // index, per the Raft current-term rule.
                    if outcome.is_ready()
                        && c.log.current_term() == term
                        && c.st.borrow().role == Role::Leader
                    {
                        c.set_commit(hi);
                    }
                    // On timeout while still leader: entries stay in the
                    // log; heartbeat catch-up and later rounds re-drive
                    // them. Either way the round is resolved: wake the
                    // pipeline-depth gate.
                    let (done, inflight) = c.flow.borrow_mut().round_done();
                    c.stats.pipeline_inflight.set(inflight as i64);
                    c.rounds_done.set(done);
                });
            }
        });
    }

    fn spawn_heartbeats(core: &Rc<RaftCore>) {
        let core = core.clone();
        Coroutine::create(&core.rt.clone(), "raft:heartbeat", async move {
            loop {
                core.rt.sleep(HEARTBEAT).await;
                if core.world.is_crashed(core.id) {
                    break;
                }
                if core.st.borrow().role != Role::Leader {
                    continue;
                }
                let last = core.log.last_index();
                for peer in core.peers.clone() {
                    let m = core.match_index(peer);
                    let plan = core.feed.borrow_mut().plan(core.rt.now(), peer, m, last);
                    let Some((action, health)) = plan else {
                        // Heartbeats double as laggard catch-up: they send
                        // from next_index, fire-and-forget.
                        Self::send_append(&core, peer, last, None, None);
                        continue;
                    };
                    // A quarantined peer gets the lazy-probe treatment
                    // instead: empty lazy appends harvest its durable
                    // prefix at no cost to it, one catch-up chunk ships
                    // whenever it has drained everything delivered,
                    // and once its lag has shrunk the quarantine lifts
                    // (the next heartbeat's normal send takes over).
                    Self::record_health(&core, peer, health);
                    if action != SuspectAction::Resume {
                        Self::send_lazy(&core, peer, action);
                    }
                }
            }
        });
    }

    /// Sends one lazy `AppendEntries` to a quarantined `peer`: an empty
    /// probe or a catch-up chunk. The follower replies immediately with its
    /// durable prefix instead of parking a handler on its WAL, so polling a
    /// fail-slow disk costs the slow node nothing but the append CPU.
    fn send_lazy(core: &Rc<RaftCore>, peer: NodeId, action: SuspectAction) {
        let core = core.clone();
        Coroutine::create(&core.rt.clone(), "raft:send_probe", async move {
            let req = match action {
                SuspectAction::Chunk { lo, n } => {
                    let hi = (lo + n as u64).min(core.log.last_index() + 1);
                    let built = Self::append_to(&core, peer, lo, hi).await;
                    let sent_hi = built.as_ref().and_then(|r| Some(r.entries.last()?.0.index));
                    core.feed.borrow_mut().chunk_sent(peer, sent_hi);
                    // Cut loose by the size limit: the chunk is dropped,
                    // and the state's ack will move the acked prefix.
                    let Some(req) = built else {
                        return;
                    };
                    AppendReq { lazy: true, ..req }
                }
                _ => core.probe_req(core.log.current_term(), core.match_index(peer), true),
            };
            // Same trace label as a regular append: probes ARE
            // AppendEntries, and the fail-slow detector's latency view
            // of a quarantined peer must not go dark.
            core.send_append(peer, &req);
        });
    }

    fn spawn_election_daemon(core: &Rc<RaftCore>) {
        let core = core.clone();
        Coroutine::create(&core.rt.clone(), "raft:election", async move {
            loop {
                let (lo, hi) = ELECTION_TIMEOUT;
                let span = (hi - lo).as_nanos() as u64;
                let timeout = lo + Duration::from_nanos(core.rt.rand_range(0, span.max(1)));
                core.rt.sleep(timeout).await;
                if core.world.is_crashed(core.id) {
                    break;
                }
                {
                    let st = core.st.borrow();
                    if st.role == Role::Leader {
                        continue;
                    }
                    if core.rt.now() - st.last_heartbeat < timeout {
                        continue;
                    }
                }
                // PreVote: only disturb the cluster if a majority agrees
                // that there is no live leader.
                if Self::run_prevote(&core).await {
                    Self::run_election(&core).await;
                }
            }
        });
    }

    /// Starts handing this leader's leadership to `target` (Raft's
    /// leadership transfer, Ongaro §3.10), in place of any handover under
    /// way: the leader holds its proposals — it stages no new round and
    /// refuses nothing — until it steps down, or for one
    /// [`ELECTION_TIMEOUT`] bound, the hold's one timer, if that comes
    /// first. The returned event fires `Ok` once `target` holds the
    /// leader's whole log — now, or at the match that gets it there — so
    /// that a campaign of `target`'s wins the next term, and `Err` if the
    /// hold ends first.
    pub fn hand_over(core: &Rc<RaftCore>, target: NodeId) -> EventHandle {
        let caught_up = EventHandle::new(&core.rt, EventKind::Notify, "handover_caught_up");
        let ended = EventHandle::new(&core.rt, EventKind::Notify, "handover");
        let (c, e) = (caught_up.clone(), ended.clone());
        ended.on_fire(move |_| c.fire(Signal::Err));
        let bound = core.rt.now() + ELECTION_TIMEOUT.1;
        core.rt.schedule_call(bound, move || e.fire(Signal::Ok));
        *core.handover.borrow_mut() = Some((target, caught_up.clone(), ended));
        core.check_handover(target);
        caught_up
    }

    /// Forces this node to campaign now: the second half of a handover
    /// ([`DepFastRaft::hand_over`]), which the mitigation layer starts on
    /// the fail-slow leader and finishes here, on the target, once the
    /// target holds the leader's whole log.
    pub fn force_campaign(core: &Rc<RaftCore>) {
        let core = core.clone();
        Coroutine::create(&core.rt.clone(), "raft:election", async move {
            Self::run_election(&core).await;
        });
    }

    /// What the read-sharing law is told of this node: its term, and
    /// whether it leads.
    fn standing(core: &RaftCore) -> (u64, bool) {
        (core.log.current_term(), core.is_leader())
    }

    /// The [`ReadTicket`] of a client request reaching this node now. Taken
    /// for every request before its op is parsed, so it only reads
    /// counters (see [`ReadRounds::ticket`](crate::reads::ReadRounds::ticket)).
    pub fn read_ticket(core: &RaftCore) -> ReadTicket {
        core.reads.borrow().ticket(core.log.current_term())
    }

    /// Confirms this node's leadership for the get holding `ticket` (the
    /// ReadIndex protocol's heartbeat exchange), sharing the exchange: the
    /// get is served by a confirmation round launched since it arrived if
    /// one is already acknowledged, joins one in flight, and otherwise
    /// launches the next at once ([`crate::reads`] holds the rule and why
    /// it is safe). `true` means a majority acknowledged this node's term
    /// after the get was invoked, so the commit index the caller observed
    /// is safe to serve the read from. The one wait is on the
    /// confirmed-round watermark, never on a follower, and no longer than
    /// the private round the get would have launched now.
    pub async fn confirm_leadership(core: &Rc<RaftCore>, ticket: ReadTicket) -> bool {
        let (term, leader) = Self::standing(core);
        let plan = core.reads.borrow_mut().resume(ticket, term, leader);
        match plan {
            Resume::Refused => return false,
            Resume::Served => return true,
            Resume::Join => {}
            Resume::Launch(round) => Self::launch_read_round(core, round, term),
        }
        let confirmed = core.reads_confirmed.when_at_least(ticket.need());
        let out = {
            let _g = depfast::PhaseGuard::enter("read_confirm_wait");
            confirmed.wait_timeout(REPLICATE_TIMEOUT).await
        };
        let (term, leader) = Self::standing(core);
        out.is_ready() && core.reads.borrow().confirms(ticket, term, leader)
    }

    /// Confirmation round number `round` of `term`: one broadcast of empty
    /// `AppendEntries` into a majority quorum, waited once by the round's
    /// own coroutine — a quorum-event wait, so no single slow follower
    /// delays the reads riding it — which then publishes "round `round`
    /// confirmed" to them.
    fn launch_read_round(core: &Rc<RaftCore>, round: u64, term: u64) {
        let core = core.clone();
        Coroutine::create(&core.rt.clone(), "raft:read_round", async move {
            // A fixed Count threshold, not Majority-of-current-children: the
            // self ack is already fired, and a dynamic majority would resolve
            // at n = 1 the moment it is added.
            let quorum =
                QuorumEvent::labeled(&core.rt, QuorumMode::Count(core.majority()), "read_index");
            let method = core.method(APPEND_ENTRIES);
            let probes = core.peers.iter().map(|&peer| {
                let prev = core.next_index(peer) - 1;
                (peer, method, core.probe_req(term, prev, false))
            });
            let c2 = core.clone();
            // A confirmation, not an ack: only the term half of the reply
            // rule applies.
            let confirms = move |r: Option<AppendResp>| {
                r.is_some_and(|r| c2.observe_term(r.term) && r.term == term)
            };
            broadcast(
                &core.ep,
                &quorum,
                Some("self_ack"),
                "read_index",
                probes,
                confirms,
                false,
            );
            let out = {
                let _g = depfast::PhaseGuard::enter("read_index_wait");
                quorum.wait_timeout(REPLICATE_TIMEOUT).await
            };
            let (now, leader) = Self::standing(&core);
            let confirmed = core
                .reads
                .borrow_mut()
                .resolve(round, out.is_ready(), now, leader);
            // A round that confirms nobody publishes nothing: the gets that
            // joined it run into their own deadline, as their private
            // rounds would have, or are failed by the step-down.
            let Some(watermark) = confirmed else { return };
            // Tie each get this round wakes to it, as a proposal is tied to
            // its replication round.
            let tracer = core.rt.tracer();
            if tracer.recording() {
                let (t, round_id) = (core.rt.now(), quorum.handle().id());
                for get in core.reads_confirmed.waiting_through(watermark) {
                    tracer.record(|| depfast::TraceRecord::RoundLink {
                        t,
                        proposal: get,
                        round: round_id,
                    });
                }
            }
            core.reads_confirmed.set(watermark);
        });
    }

    /// This node's candidacy for `term`, addressed to every peer's
    /// `method` service.
    fn candidacy(
        core: &RaftCore,
        term: u64,
        method: Method,
    ) -> impl Iterator<Item = (NodeId, Method, VoteReq)> + '_ {
        let req = VoteReq {
            term,
            candidate: core.id.0,
            last_index: core.log.last_index(),
            last_term: core.log.term_at(core.log.last_index()),
        };
        let method = core.method(method);
        core.peers.iter().map(move |&peer| (peer, method, req))
    }

    /// A PreVote round: non-binding majority probe at `term + 1`.
    async fn run_prevote(core: &Rc<RaftCore>) -> bool {
        let term = core.log.current_term() + 1;
        let granted =
            QuorumEvent::labeled(&core.rt, QuorumMode::Count(core.majority()), "prevote_ok");
        broadcast(
            &core.ep,
            &granted,
            Some("self_prevote"),
            "pre_vote",
            Self::candidacy(core, term, PRE_VOTE),
            |r: Option<VoteResp>| r.is_some_and(|r| r.granted),
            false,
        );
        granted.wait_timeout(ELECTION_TIMEOUT.1).await.is_ready()
    }

    /// One election round, in the paper's §3.2 nested-event style.
    async fn run_election(core: &Rc<RaftCore>) {
        let term = core.log.current_term() + 1;
        let io = core.adopt_term(term, Some(core.id.0));
        if !io.handle().wait().await.is_ready() {
            return;
        }
        core.st.borrow_mut().role = Role::Candidate;
        let majority = core.majority();
        let n = core.members.len();
        let granted = QuorumEvent::labeled(&core.rt, QuorumMode::Count(majority), "election_ok");
        let rejected = QuorumEvent::labeled(
            &core.rt,
            QuorumMode::Count(n - majority + 1),
            "election_reject",
        );
        let c2 = core.clone();
        let votes = broadcast(
            &core.ep,
            &granted,
            Some("self_vote"),
            "request_vote",
            Self::candidacy(core, term, REQUEST_VOTE),
            move |r: Option<VoteResp>| match r {
                Some(r) if r.term > term => {
                    c2.step_down(r.term, None);
                    false
                }
                Some(r) => r.granted,
                None => false,
            },
            false,
        );
        // The rejection quorum sees the inverse signal.
        for vote in &votes {
            rejected.add(&inverse(vote));
        }
        granted.seal();
        rejected.seal();
        let either = OrEvent::of2(&core.rt, &granted, &rejected);
        either.wait_timeout(ELECTION_TIMEOUT.1).await;
        if granted.ready()
            && core.log.current_term() == term
            && core.st.borrow().role == Role::Candidate
        {
            core.note_became_leader();
        } else {
            let mut st = core.st.borrow_mut();
            if st.role == Role::Candidate {
                st.role = Role::Follower;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Placement, RaftCluster, RaftKind};
    use crate::core::RaftCfg;
    use crate::fixture::{self, bootstrapped, drive, nodes};
    use bytes::Bytes;
    use simkit::{Sim, SimTime, World};

    fn cluster(n: usize, bootstrap: bool) -> (Sim, World, RaftCluster) {
        let cfg = if bootstrap {
            bootstrapped()
        } else {
            RaftCfg::default()
        };
        let single = Placement::Single { n };
        fixture::cluster(11, RaftKind::DepFast, cfg, nodes(n), single)
    }

    #[test]
    fn bootstrap_leader_commits_a_proposal() {
        let (sim, _world, cl) = cluster(3, true);
        let ev = cl.groups[0].servers[0].propose(Bytes::from_static(b"hello"));
        let out = sim.block_on({
            let ev = ev.clone();
            async move { ev.handle().wait_timeout(Duration::from_secs(2)).await }
        });
        assert!(out.is_ready(), "proposal should commit, got {out:?}");
    }

    #[test]
    fn election_produces_exactly_one_leader() {
        let (sim, _world, cl) = cluster(3, false);
        sim.run_until_time(SimTime::from_secs(3));
        let leaders: Vec<_> = cl.groups[0]
            .servers
            .iter()
            .filter(|s| s.is_leader())
            .collect();
        assert_eq!(leaders.len(), 1, "expected exactly one leader");
    }

    #[test]
    fn commits_survive_one_fail_slow_follower() {
        let (sim, world, cl) = cluster(3, true);
        // Follower 2 is severely CPU-limited.
        world.set_cpu_quota(NodeId(2), 0.01);
        let committed = drive(&sim, &cl, 50, 64, Duration::from_secs(1)).committed;
        assert_eq!(committed, 50, "healthy majority must keep committing");
    }

    #[test]
    fn a_step_down_refuses_the_gets_waiting_for_a_round_at_once() {
        let (sim, world, cl) = cluster(3, true);
        let core = cl.groups[0].servers[0].core().clone();
        for peer in [NodeId(1), NodeId(2)] {
            world.partition(NodeId(0), peer);
        }
        // Nobody answers the round; 100 ms in, a higher term is heard of.
        let t0 = sim.now();
        let c = core.clone();
        let deposed_at = t0 + Duration::from_millis(100);
        core.rt
            .schedule_call(deposed_at, move || c.step_down(2, None));
        let ticket = DepFastRaft::read_ticket(&core);
        let confirmed =
            sim.block_on(async move { DepFastRaft::confirm_leadership(&core, ticket).await });
        assert!(!confirmed);
        assert_eq!(sim.now(), deposed_at, "not at the round's deadline");
    }

    /// The lazy catch-up chunk, a route to the fork of its own. A follower
    /// cut off since the start fills its append window and is quarantined:
    /// from then on only the heartbeat's lazy sends feed it, and a chunk
    /// starts at its acked prefix. Once the leader's log no longer holds
    /// that, the chunk's send is where state goes out.
    #[test]
    fn a_lazy_chunk_below_the_base_sends_state_instead() {
        let (sim, world, cl) = cluster(3, true);
        let core = cl.groups[0].servers[0].core().clone();
        let b = NodeId(2);
        world.partition(NodeId(0), b);
        assert_eq!(
            drive(&sim, &cl, 20, 64, Duration::from_secs(1)).committed,
            20
        );
        assert!(core.feed.borrow().quarantined(b));
        assert_eq!(core.match_index(b), 0);
        core.log.compact_through(10);
        let state_to_b = || {
            let feed = core.feed.borrow();
            let fork = feed.fork(core.rt.now(), b, 0, 1, true, |_| false);
            matches!(fork, Some(crate::feed::Fork::Waiting(_)))
        };
        // Probing a follower that never answers sends it nothing.
        sim.run_until_time(sim.now() + HEARTBEAT * 3);
        assert!(!state_to_b());
        DepFastRaft::send_lazy(&core, b, SuspectAction::Chunk { lo: 1, n: 64 });
        sim.run_until_time(sim.now() + Duration::from_millis(1));
        assert!(state_to_b());
    }

    #[test]
    fn leader_crash_triggers_reelection_and_progress() {
        let (sim, world, cl) = cluster(3, true);
        // Commit something first.
        let ev = cl.groups[0].servers[0].propose(Bytes::from_static(b"a"));
        sim.block_on({
            let ev = ev.clone();
            async move { ev.handle().wait_timeout(Duration::from_secs(1)).await }
        });
        world.crash(NodeId(0));
        sim.run_until_time(sim.now() + Duration::from_secs(3));
        let leaders: Vec<usize> = (0..3)
            .filter(|i| {
                !world.is_crashed(NodeId(*i as u32)) && cl.groups[0].servers[*i].is_leader()
            })
            .collect();
        assert_eq!(leaders.len(), 1, "a new leader must emerge");
        let new_leader = leaders[0];
        let ev = cl.groups[0].servers[new_leader].propose(Bytes::from_static(b"b"));
        let out = sim.block_on({
            let ev = ev.clone();
            async move { ev.handle().wait_timeout(Duration::from_secs(2)).await }
        });
        assert!(out.is_ready(), "new leader must commit");
    }
}
