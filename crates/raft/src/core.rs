//! Shared Raft machinery: configuration, per-node state, the proposal
//! queue, follower services, the apply loop, commit accounting and the
//! leader-side steps of a replication round.
//!
//! Everything protocol-correct lives here so the five drivers differ only
//! in their *waiting structure* — the paper's variable of interest. A
//! leader round is the same steps under every driver — stage
//! ([`RaftCore::stage_batch`]), build ([`RaftCore::append_req`]), digest
//! ([`RaftCore::on_append_reply`]), apply (detached, or inline after
//! [`RaftCore::commit_then_apply`]) — so a driver file holds what is left:
//! its coroutines and where they block.
//!
//! The log is not everything since index 1, and how a peer that is behind
//! gets its data is one law, [`crate::feed`], whose every verdict the core
//! acts on. At the end of each apply pass it says how far the log may be
//! compacted — behind what this node has applied, and while it leads
//! behind its slowest peer — and the core drops that prefix. What the log
//! no longer holds the [`StateMachine`] does: a driver reaches for a peer's
//! entries through [`RaftCore::feed`], the one build-or-state entry, and a
//! peer whose next entry is at or below the base is sent the state machine
//! itself, as of the applied index, in an `InstallSnapshot`
//! ([`handle_snapshot`] on the other side) — taken on demand, never stored,
//! and sent from one private method no driver can call. That send is on the
//! per-peer catch-up path only: nothing waits on it, and no round's quorum
//! counts it. The fork is asked on both sides of a cold read: the log may
//! be compacted past a peer while its entries are coming off the disk, so a
//! driver that was handed [`Fed::Cold`] pays the read where its waiting
//! structure puts it and hands the entries back to be built, or not.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;
use std::task::Poll;
use std::time::Duration;

use bytes::Bytes;
use depfast::event::{EventHandle, EventKind, Signal, ValueEvent};
use depfast::runtime::{Coroutine, Runtime};
use depfast::TypedEvent;
use depfast_metrics::{Counter, Gauge, HistogramHandle};
use depfast_rpc::{group_method, Endpoint, Method};
use depfast_storage::{Entry, IoEvent, LogStore, LogStoreCfg};
use simkit::{Crashed, Frame, NodeId, SimTime, WakerSlot, World};

use crate::feed::{self, Feed, Fork};
use crate::flow::Flow;
use crate::reads::ReadRounds;
use crate::types::{
    from_wire, to_wire, AppendReq, AppendResp, SnapshotReq, VoteReq, VoteResp, APPEND_ENTRIES,
    INSTALL_SNAPSHOT, PRE_VOTE, REQUEST_VOTE,
};

/// Raft timing, batching and cost configuration (shared by all drivers).
#[derive(Debug, Clone, Copy)]
pub struct RaftCfg {
    /// Maximum proposals folded into one replication round.
    pub batch_max: usize,
    /// How long the leader lingers after intake to grow a round's batch
    /// before shipping it (`Duration::ZERO` = ship immediately; emergent
    /// batching from queueing alone is usually enough under load).
    pub batch_window: Duration,
    /// Replication rounds the leader may have unresolved before intake
    /// stalls (1 = strictly serial rounds, the classic lock-step leader).
    pub pipeline_depth: usize,
    /// Maximum entries shipped in one `AppendEntries`.
    pub max_entries_per_append: usize,
    /// Follower CPU cost: fixed part of handling an `AppendEntries`.
    pub append_cpu_base: Duration,
    /// Follower CPU cost per entry appended.
    pub append_cpu_per_entry: Duration,
    /// Leader CPU cost per proposal (request parsing, batching).
    pub propose_cpu: Duration,
    /// CPU cost of applying one entry to the state machine.
    pub apply_cpu: Duration,
    /// Log store (EntryCache, WAL) configuration.
    pub log: LogStoreCfg,
    /// If set, this node starts as leader of term 1 and elections are
    /// pre-seeded (used for steady-state benchmarks; `None` = elect).
    pub bootstrap_leader: Option<u32>,
}

impl Default for RaftCfg {
    fn default() -> Self {
        RaftCfg {
            batch_max: 64,
            batch_window: Duration::ZERO,
            pipeline_depth: 4,
            max_entries_per_append: 256,
            append_cpu_base: Duration::from_micros(20),
            append_cpu_per_entry: Duration::from_micros(15),
            propose_cpu: Duration::from_micros(25),
            apply_cpu: Duration::from_micros(20),
            log: LogStoreCfg::default(),
            bootstrap_leader: None,
        }
    }
}

/// A node's current protocol role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Accepting entries from a leader.
    Follower,
    /// Running an election.
    Candidate,
    /// Coordinating replication.
    Leader,
}

/// One queued client proposal: payload plus the event fired with the apply
/// result once committed.
pub type Proposal = (Bytes, TypedEvent<Bytes>);

/// A batch staged by [`RaftCore::stage_batch`]: stamped, registered and in
/// the local log, not yet shipped.
pub struct Staged {
    /// Index of the first staged entry.
    pub lo: u64,
    /// Index of the last staged entry.
    pub hi: u64,
    /// The stamped entries `lo..=hi`.
    pub entries: Vec<Entry>,
    /// Fires once the batch is durable in the local WAL.
    pub durable: IoEvent,
}

/// What [`RaftCore::feed`] hands a driver that reached for a peer's
/// entries.
pub enum Fed {
    /// The `AppendEntries` carrying them.
    Append(AppendReq),
    /// The entries, and how many of their bytes are not in the EntryCache:
    /// the caller pays for a disk read of that size wherever its waiting
    /// structure puts it, then hands them back to [`RaftCore::feed`].
    Cold(Vec<Entry>, u64),
    /// The log no longer holds them: the peer is being brought forward
    /// past them, and this fires when that is answered (`Ok` iff it took).
    Pending(EventHandle),
    /// The log no longer holds them and this node does not lead.
    Nothing,
}

/// Leader heartbeat interval: DepFastRaft's heartbeat loop sleeps it, the
/// legacy leaders' intake waits at most this long for a batch before
/// shipping an empty one.
pub const HEARTBEAT: Duration = Duration::from_millis(30);

/// How long a legacy driver's region/message thread waits for its round to
/// commit before it takes the next batch anyway.
const REGION_COMMIT_WAIT: Duration = Duration::from_millis(500);

#[derive(Default)]
struct Pq {
    q: RefCell<VecDeque<Proposal>>,
    /// Where the driver loop parks on an empty queue.
    intake: WakerSlot,
}

/// The leader's incoming-proposal queue.
#[derive(Clone, Default)]
pub struct ProposalQueue {
    inner: Rc<Pq>,
}

impl ProposalQueue {
    /// Enqueues a proposal and wakes the driver loop.
    pub fn push(&self, p: Proposal) {
        self.inner.q.borrow_mut().push_back(p);
        self.inner.intake.wake();
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.inner.q.borrow().len()
    }

    /// `true` if no proposals are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fails and drains every queued proposal (leadership lost).
    pub fn fail_all(&self) {
        for (_, ev) in self.drain_up_to(usize::MAX) {
            ev.fire_err();
        }
    }

    /// Takes up to `max` queued proposals without waiting. The group
    /// commit batch window uses this to fold in whatever arrived while
    /// the leader lingered.
    pub fn drain_up_to(&self, max: usize) -> Vec<Proposal> {
        let mut q = self.inner.q.borrow_mut();
        let take = q.len().min(max);
        q.drain(..take).collect()
    }

    /// Waits for proposals and takes up to `max`; with a deadline, may
    /// resolve to an empty batch (used as a combined heartbeat timer).
    /// Proposals usually arrive before the deadline; its timer goes with
    /// the future when they do.
    pub fn pop_batch(
        &self,
        rt: &Runtime,
        max: usize,
        deadline: Option<SimTime>,
    ) -> impl Future<Output = Vec<Proposal>> + '_ {
        let mut deadline = deadline.map(|dl| rt.sleep_until(dl));
        poll_fn(move |cx| {
            if !self.is_empty() {
                return Poll::Ready(self.drain_up_to(max));
            }
            self.inner.intake.park(cx);
            let expired = deadline
                .as_mut()
                .is_some_and(|d| Pin::new(d).poll(cx).is_ready());
            if expired {
                Poll::Ready(Vec::new())
            } else {
                Poll::Pending
            }
        })
    }
}

/// Mutable protocol state of one node.
pub struct CoreState {
    /// Current role.
    pub role: Role,
    /// The current term's leader, once heard from (this node itself
    /// while it leads).
    pub leader_hint: Option<NodeId>,
    /// When the last valid leader contact arrived.
    pub last_heartbeat: SimTime,
    /// Per-peer next index to send.
    pub next_index: HashMap<u32, u64>,
    /// Per-peer highest replicated index.
    pub match_index: HashMap<u32, u64>,
    /// Bumped each time this node becomes leader (wakes the driver loop).
    pub leader_epoch: u64,
}

/// The replicated state machine a core feeds its committed entries to.
///
/// The state machine *is* the snapshot: none is stored beside it. A leader
/// that must bring a peer up to date past what its log holds encodes the
/// live state at its applied index and ships that.
pub trait StateMachine {
    /// Applies one committed entry; the reply completes the client
    /// proposal waiting at that index, if there is one.
    fn apply(&mut self, entry: &Entry) -> Bytes;

    /// The whole state as of the last applied entry — everything a replica
    /// restored from it needs to answer as this one would, a retried
    /// command included. Encoded through [`depfast_rpc::wire`], so large
    /// values are in the frame by reference.
    fn snapshot(&self) -> Frame;

    /// Replaces the state with a decoded `snapshot`. `false` (and the
    /// state untouched) if it does not decode.
    fn restore(&mut self, snapshot: &Frame) -> bool;
}

/// Cached handles for this node's `raft.*` series. Lags are measured from
/// proposal creation, so they reflect what a *client* would attribute to
/// the consensus layer; the substrate series (`sim.*`) say which resource
/// actually caused an inflation.
pub(crate) struct RaftStats {
    commit_lag: HistogramHandle,
    apply_lag: HistogramHandle,
    commit_index: Gauge,
    /// Entries folded into each replication round (group commit size).
    pub(crate) batch_size: HistogramHandle,
    /// Replication rounds launched.
    pub(crate) batch_rounds: Counter,
    /// Unresolved rounds right now (≤ `pipeline_depth`).
    pub(crate) pipeline_inflight: Gauge,
    /// Intake stalls at the pipeline-depth gate.
    pub(crate) pipeline_stalls: Counter,
    /// Sends skipped because a follower's append window was full.
    pub(crate) window_skips: Counter,
    /// Followers quarantined into lazy-probe catch-up (suspect mode).
    pub(crate) suspects: Counter,
    /// Entries per outgoing non-empty `AppendEntries`.
    entries_per_append: HistogramHandle,
}

impl RaftStats {
    fn new(rt: &Runtime, group: u32) -> Self {
        // Co-located groups share a node, so a multi-group core's series
        // carry a `g{gid}` tag — aggregating them silently would hide
        // exactly the per-group blast-radius split this repo measures.
        // Group 0 is a cluster's only group: untagged keys, byte-identical
        // to every pre-multi-group artifact.
        let tag = (group > 0).then(|| depfast_metrics::group_label(group));
        let scope = rt.tracer().metrics().node(rt.node().0).tagged(tag);
        RaftStats {
            commit_lag: scope.histogram("raft.commit_lag"),
            apply_lag: scope.histogram("raft.apply_lag"),
            commit_index: scope.gauge("raft.commit_index"),
            batch_size: scope.histogram("raft.batch.size"),
            batch_rounds: scope.counter("raft.batch.rounds"),
            pipeline_inflight: scope.gauge("raft.pipeline.inflight"),
            pipeline_stalls: scope.counter("raft.pipeline.stalls"),
            window_skips: scope.counter("raft.append.window_skips"),
            suspects: scope.counter("raft.append.suspects"),
            entries_per_append: scope.histogram("rpc.entries_per_append"),
        }
    }
}

/// The shared per-node Raft core all five drivers build on.
pub struct RaftCore {
    /// DepFast runtime of this node.
    pub rt: Runtime,
    /// Simulated cluster.
    pub world: World,
    /// RPC endpoint of this node.
    pub ep: Endpoint,
    /// This node's id.
    pub id: NodeId,
    /// Every cluster member (including this node).
    pub members: Vec<NodeId>,
    /// Every other member.
    pub peers: Vec<NodeId>,
    /// The replicated log.
    pub log: LogStore,
    /// Commit index as a watchable variable (the apply loop waits on it).
    pub commit: ValueEvent<u64>,
    /// Applied index as a watchable variable (ReadIndex reads wait on it;
    /// the apply loop and snapshots read and move it).
    pub applied_idx: ValueEvent<u64>,
    /// Leadership epoch as a watchable variable (driver loops wait on it).
    pub leader_gen: ValueEvent<u64>,
    /// Configuration.
    pub cfg: RaftCfg,
    /// Mutable protocol state.
    pub st: RefCell<CoreState>,
    /// Client proposals awaiting commit+apply, by log index.
    pub pending: RefCell<HashMap<u64, TypedEvent<Bytes>>>,
    /// Incoming proposals.
    pub proposals: ProposalQueue,
    machine: RefCell<Option<Box<dyn StateMachine>>>,
    pub(crate) stats: RaftStats,
    /// Every per-peer catch-up decision: log or state, the state in
    /// flight, what the log retains, DepFastRaft's quarantine.
    pub(crate) feed: RefCell<Feed<EventHandle>>,
    /// DepFastRaft's append windows and round count.
    pub(crate) flow: RefCell<Flow>,
    /// [`Flow`]'s resolved-round count as a watchable: DepFastRaft's
    /// pipeline-depth gate waits on it.
    pub(crate) rounds_done: ValueEvent<u64>,
    /// DepFastRaft's ReadIndex round sharing: which confirmation round a
    /// get may ride.
    pub(crate) reads: RefCell<ReadRounds>,
    /// [`ReadRounds`]' newest confirmed round as a watchable: a get that
    /// joined or launched a round waits for it to reach its ticket's need.
    pub(crate) reads_confirmed: ValueEvent<u64>,
    /// Follower-side: highest index log-match-verified against the
    /// current leader's stream (appended locally, though possibly not yet
    /// durable). Clamped on truncation, and to the commit index on a new
    /// term ([`RaftCore::adopt_term`]); reported in every append reply.
    verified_index: Cell<u64>,
    /// Next FIFO ticket for incoming `AppendEntries` (taken at delivery).
    append_ticket: Cell<u64>,
    /// Retired-ticket watermark: the handler holding ticket `k` enters its
    /// ordered section once this reaches `k`. Keeps pipelined appends
    /// applying to the log in arrival order even though their (entry-count
    /// proportional) CPU costs finish out of order on a multi-core node.
    append_turn: ValueEvent<u64>,
    /// DepFastRaft's leadership handover while one holds this leader's
    /// rounds ([`DepFastRaft::hand_over`](crate::depfast_driver::DepFastRaft::hand_over)):
    /// its target; an event that fires `Ok` once the target holds this
    /// leader's whole log, `Err` if the hold ends first; and one that fires
    /// when the hold ends, at step-down or at its bound.
    pub(crate) handover: RefCell<Option<(NodeId, EventHandle, EventHandle)>>,
    /// Raft group id. `0` is the identity namespace of a single group
    /// (untagged metrics, un-namespaced RPC methods); multi-group
    /// placements number their groups from 1.
    pub group: u32,
}

impl RaftCore {
    /// Creates the core for `rt`'s node as a member of Raft group
    /// `group`. Groups co-located on one [`Endpoint`] keep their RPC
    /// services and metric series apart: every method id is namespaced
    /// through [`RaftCore::method`] and every `raft.*` series carries a
    /// `g{group}` tag (group 0 = the untagged identity namespace).
    pub fn new(
        rt: &Runtime,
        world: &World,
        ep: &Endpoint,
        members: Vec<NodeId>,
        cfg: RaftCfg,
        group: u32,
    ) -> Rc<Self> {
        let id = rt.node();
        let peers: Vec<NodeId> = members.iter().copied().filter(|m| *m != id).collect();
        let log = LogStore::new(rt, world, cfg.log);
        let bootstrap_role = match cfg.bootstrap_leader {
            Some(l) if l == id.0 => Role::Leader,
            Some(_) => Role::Follower,
            None => Role::Follower,
        };
        let core = Rc::new(RaftCore {
            rt: rt.clone(),
            world: world.clone(),
            ep: ep.clone(),
            id,
            peers: peers.clone(),
            members,
            log,
            commit: ValueEvent::labeled(rt, 0, "commit_index"),
            applied_idx: ValueEvent::labeled(rt, 0, "applied_index"),
            leader_gen: ValueEvent::labeled(rt, 0, "leader_gen"),
            cfg,
            st: RefCell::new(CoreState {
                role: bootstrap_role,
                leader_hint: cfg.bootstrap_leader.map(NodeId),
                last_heartbeat: rt.now(),
                next_index: peers.iter().map(|p| (p.0, 1)).collect(),
                match_index: peers.iter().map(|p| (p.0, 0)).collect(),
                leader_epoch: 0,
            }),
            pending: RefCell::new(HashMap::new()),
            proposals: ProposalQueue::default(),
            machine: RefCell::new(None),
            stats: RaftStats::new(rt, group),
            feed: RefCell::new(Feed::new(cfg)),
            flow: RefCell::new(Flow::new(cfg)),
            rounds_done: ValueEvent::labeled(rt, 0, "rounds_done"),
            reads: RefCell::new(ReadRounds::default()),
            reads_confirmed: ValueEvent::labeled(rt, 0, "read_confirmed"),
            verified_index: Cell::new(0),
            append_ticket: Cell::new(0),
            append_turn: ValueEvent::labeled(rt, 0, "append_turn"),
            handover: RefCell::new(None),
            group,
        });
        if cfg.bootstrap_leader.is_some() {
            // Pre-seed term 1 so bootstrap leadership is term-consistent.
            core.log.set_term_vote(1, cfg.bootstrap_leader);
            if bootstrap_role == Role::Leader {
                core.note_became_leader();
            }
        }
        core
    }

    /// Installs the state machine. A core without one applies entries to
    /// nothing (empty replies, empty snapshots).
    pub fn set_state_machine(&self, machine: impl StateMachine + 'static) {
        *self.machine.borrow_mut() = Some(Box::new(machine));
    }

    /// Namespaces `base` into this core's group: the method id every
    /// register/call site of this group must use, so co-located groups on
    /// one endpoint never collide (see [`depfast_rpc::group_method`]).
    pub fn method(&self, base: Method) -> Method {
        group_method(base, self.group)
    }

    /// The group id to stamp on this core's [`depfast::HealthEvent`]s:
    /// `Some(group)` for multi-group cores, `None` for the legacy
    /// single-group namespace (keeps old incident artifacts byte-identical).
    pub fn health_group(&self) -> Option<u32> {
        (self.group > 0).then_some(self.group)
    }

    /// Majority size of the cluster.
    pub fn majority(&self) -> usize {
        self.members.len() / 2 + 1
    }

    /// `true` if this node currently believes it is leader.
    pub fn is_leader(&self) -> bool {
        self.st.borrow().role == Role::Leader
    }

    /// Last known leader, if any.
    pub fn leader_hint(&self) -> Option<NodeId> {
        self.st.borrow().leader_hint
    }

    /// The index a linearizable read may be served at once this node's
    /// leadership is confirmed: its commit index — but `None` until an
    /// entry of its current term has committed (Raft §6.4). A new leader
    /// appends nothing at election and commits only by a current-term
    /// quorum, so until then its commit index may trail writes its
    /// predecessor acknowledged; a read arriving that early goes through
    /// the log, which commits the entry that ends the wait.
    pub fn read_index(&self) -> Option<u64> {
        let commit = self.commit.get();
        (self.log.term_at(commit) == self.log.current_term()).then_some(commit)
    }

    /// An event that fires once the state machine has applied everything
    /// up to `index` (immediately if it already has).
    pub fn wait_applied(&self, index: u64) -> EventHandle {
        self.applied_idx.when_at_least(index)
    }

    /// Submits a client command. The returned event fires `Ok(reply)` once
    /// the command is committed and applied, or `Err` immediately if this
    /// node is not the leader.
    pub fn propose(&self, payload: Bytes) -> TypedEvent<Bytes> {
        let ev: TypedEvent<Bytes> = TypedEvent::new(&self.rt, EventKind::Notify, "proposal");
        if !self.is_leader() {
            ev.fire_err();
            return ev;
        }
        self.proposals.push((payload, ev.clone()));
        ev
    }

    /// Marks this node leader: bumps the epoch and resets peer indices.
    pub fn note_became_leader(&self) {
        let epoch = {
            let mut st = self.st.borrow_mut();
            st.role = Role::Leader;
            st.leader_hint = Some(self.id);
            let last = self.log.last_index();
            for p in &self.peers {
                st.next_index.insert(p.0, last + 1);
                st.match_index.insert(p.0, 0);
            }
            st.leader_epoch += 1;
            st.leader_epoch
        };
        self.flow.borrow_mut().reset_peers();
        self.feed.borrow_mut().reset_peers();
        self.leader_gen.set(epoch);
    }

    /// Adopts `term`, voting for `vote`. What this node verified against
    /// the old term's leader stands for the new term only as far as it is
    /// committed: committed entries are the same under every leader, and
    /// past them a lazy reply's `min(durable, verified)` would report a
    /// prefix of the old leader's stream as a match to the new one. The
    /// old term's leader is no hint either: a new term has no known leader
    /// until one is heard from, so a hint always names a leader of the
    /// current term.
    pub fn adopt_term(&self, term: u64, vote: Option<u32>) -> IoEvent {
        let verified = self.verified_index.get().min(self.commit.get());
        self.verified_index.set(verified);
        self.st.borrow_mut().leader_hint = None;
        self.log.set_term_vote(term, vote)
    }

    /// Steps down to follower in `term` (observed a higher term).
    pub fn step_down(&self, term: u64, leader: Option<NodeId>) {
        if term > self.log.current_term() {
            self.adopt_term(term, None);
        }
        let was_leader = {
            let mut st = self.st.borrow_mut();
            let was = st.role == Role::Leader;
            st.role = Role::Follower;
            if leader.is_some() {
                st.leader_hint = leader;
            }
            was
        };
        if was_leader {
            // No round will confirm the gets waiting for one: refuse them
            // now rather than at their deadline.
            self.reads_confirmed.fail_waiters();
            // The step-down ends a handover: the held loop goes on.
            if let Some((_, _, ended)) = self.handover.take() {
                ended.fire(Signal::Ok);
            }
            self.proposals.fail_all();
            // Fail in log-index order: HashMap drain order varies per
            // process and would wake waiting proposers nondeterministically.
            let mut drained: Vec<_> = self.pending.borrow_mut().drain().collect();
            drained.sort_unstable_by_key(|(idx, _)| *idx);
            for (_, ev) in drained {
                ev.fire_err();
            }
        }
    }

    /// Legacy round step 0, **intake**: waits for up to `batch_max`
    /// proposals (with a `deadline`, for an empty batch at the heartbeat
    /// tick) and charges the leader-side CPU of parsing them.
    pub async fn intake(&self, deadline: Option<SimTime>) -> Result<Vec<Proposal>, Crashed> {
        let batch = {
            let _g = depfast::PhaseGuard::enter("intake");
            self.proposals
                .pop_batch(&self.rt, self.cfg.batch_max, deadline)
                .await
        };
        let cpu = self.cfg.propose_cpu * batch.len().max(1) as u32;
        self.world.cpu(self.id, cpu).await?;
        Ok(batch)
    }

    /// Round step 1, **stage**: stamps `batch` with the current term and
    /// the next log indices, registers each proposal's completion event
    /// under its index and appends the entries to the local log. `batch`
    /// is non-empty: a round with nothing to ship is a heartbeat.
    pub fn stage_batch(&self, batch: Vec<Proposal>) -> Staged {
        debug_assert!(!batch.is_empty());
        let term = self.log.current_term();
        let lo = self.log.last_index() + 1;
        let mut entries = Vec::with_capacity(batch.len());
        {
            let mut pending = self.pending.borrow_mut();
            for (i, (payload, ev)) in batch.into_iter().enumerate() {
                let index = lo + i as u64;
                entries.push(Entry {
                    term,
                    index,
                    payload,
                });
                pending.insert(index, ev);
            }
        }
        let durable = self.log.append(&entries);
        Staged {
            lo,
            hi: lo + entries.len() as u64 - 1,
            entries,
            durable,
        }
    }

    /// Round step 2, **build**: the `AppendEntries` of `term` carrying
    /// `entries` after `prev_index` (empty = heartbeat or probe). `term` is
    /// the term the caller decided to send in — not re-read here, because
    /// a driver may have awaited since and a deposed leader must not
    /// speak in its successor's term. Non-empty requests feed the
    /// `rpc.entries_per_append` series.
    ///
    /// `None` if `prev_index` is below the log's base: its term is gone,
    /// and the 0 that would go out in its place reads to a follower still
    /// holding that entry as a conflict — it would truncate a committed
    /// entry. A peer's entries are built through [`RaftCore::feed`], which
    /// asks the catch-up fork first; this is the builder under it.
    pub fn append_req(
        &self,
        term: u64,
        prev_index: u64,
        entries: &[Entry],
        lazy: bool,
    ) -> Option<AppendReq> {
        if prev_index + 1 < self.log.first_index() {
            return None;
        }
        if !entries.is_empty() {
            self.stats
                .entries_per_append
                .record_ns(entries.len() as u64);
        }
        Some(AppendReq {
            term,
            leader: self.id.0,
            prev_index,
            prev_term: self.log.term_at(prev_index),
            entries: to_wire(entries),
            commit: self.commit.get(),
            lazy,
        })
    }

    /// An empty `AppendEntries` standing after `prev_index` — or after the
    /// log's base, if that is higher. A probe carries no entries, so it may
    /// stand anywhere the log can still vouch for: what comes back (the
    /// peer's term, its durable prefix, a reject with where its log ends)
    /// is as useful from there, and a new leader, which knows no acked
    /// prefix at all, need not reach below what it holds to ask.
    pub fn probe_req(&self, term: u64, prev_index: u64, lazy: bool) -> AppendReq {
        let base = self.log.first_index() - 1;
        self.append_req(term, prev_index.max(base), &[], lazy)
            .expect("at or above the base")
    }

    /// The one build-or-state entry: how a driver feeds peer `to` from `lo`
    /// in `term`. The catch-up fork ([`Feed::fork`]) is asked first. If the
    /// log no longer holds `lo`, what the peer lacks is state: the verdict
    /// is the event of the `InstallSnapshot` outstanding to it — sent now if
    /// none stands — or, on a node that does not lead, nothing. Otherwise
    /// the entries are the ones `held` from `lo` on (read by the caller, or
    /// queued) or, if it holds none, `[lo, hi)` read from the log here, and
    /// what comes back is the `AppendEntries` carrying them — unless some
    /// are not in the EntryCache. Then they come back [`Fed::Cold`] and
    /// nothing is built: the caller pays for the read and asks again with
    /// them in hand, because an apply pass may compact past `lo` while the
    /// read is on the disk (the log crossed the size limit, or this node was
    /// deposed and keeps only what a follower keeps).
    pub fn feed(self: &Rc<Self>, to: NodeId, term: u64, lo: u64, hi: u64, held: Vec<Entry>) -> Fed {
        if let Some(state) = self.fork(to, lo) {
            return state;
        }
        let (entries, cold_bytes) = match held.is_empty() {
            true => self.log.read_raw(lo, hi),
            false => (held, 0),
        };
        if cold_bytes > 0 {
            return Fed::Cold(entries, cold_bytes);
        }
        let req = self.append_req(term, lo - 1, &entries, false);
        Fed::Append(req.expect("the fork found lo in the log"))
    }

    /// The catch-up fork for `peer`'s entry `lo`: `None` while the log
    /// holds it, otherwise what stands in for entries. This is the one
    /// place an `InstallSnapshot` starts, on a [`Fork::Snapshot`] verdict:
    /// this node's state machine as of its applied index goes to `peer`,
    /// its reply digested as an append reply matching through that index,
    /// and nothing waits on it but a caller that waits on the returned
    /// event (which fires `Ok` iff the peer took it).
    fn fork(self: &Rc<Self>, peer: NodeId, lo: u64) -> Option<Fed> {
        let (now, first, leads) = (self.rt.now(), self.log.first_index(), self.is_leader());
        let answered = |sent: &EventHandle| sent.fired().is_some();
        let feed = self.feed.borrow();
        let patience = match feed.fork(now, peer, lo, first, leads, answered)? {
            Fork::Waiting(sent) => return Some(Fed::Pending(sent)),
            Fork::Nothing => return Some(Fed::Nothing),
            Fork::Snapshot(patience) => patience,
        };
        drop(feed);
        let last_index = self.applied_idx.get();
        let state = self.machine.borrow().as_ref().map(|m| m.snapshot());
        let req = SnapshotReq {
            term: self.log.current_term(),
            leader: self.id.0,
            last_index,
            last_term: self.log.term_at(last_index),
            state: state.unwrap_or_default(),
        };
        let core = self.clone();
        let sent = self.ep.proxy(peer).call_classified(
            self.method(INSTALL_SNAPSHOT),
            "install_snapshot",
            &req,
            None,
            move |resp: Option<AppendResp>| resp.is_some_and(|r| core.on_append_reply(peer, &r)),
        );
        let mut feed = self.feed.borrow_mut();
        feed.snapshot_sent(now, peer, sent.clone(), patience);
        Some(Fed::Pending(sent))
    }

    /// Ships `req` to `peer` and digests the reply through
    /// [`RaftCore::on_append_reply`] from a reply hook — nothing waits
    /// unless the caller waits on the returned event, which fires `Ok` iff
    /// the peer accepted. A lazy request's reply (DepFastRaft's probes and
    /// catch-up chunks to a quarantined peer) is the feed law's to read as
    /// well, and on a reject it has the fork asked at the peer's next
    /// index.
    pub fn send_append(self: &Rc<Self>, peer: NodeId, req: &AppendReq) -> EventHandle {
        let (core, lazy) = (self.clone(), req.lazy);
        let digest = move |r: AppendResp| {
            let accepted = core.on_append_reply(peer, &r);
            if lazy && core.feed.borrow_mut().on_lazy_reply(peer, &r) {
                core.fork(peer, core.next_index(peer));
            }
            accepted
        };
        self.ep.proxy(peer).call_classified(
            self.method(APPEND_ENTRIES),
            "append_entries",
            req,
            None,
            move |resp: Option<AppendResp>| resp.is_some_and(digest),
        )
    }

    /// The term half of the reply rule: a reply from a higher term deposes
    /// this leader. Returns whether `term` left it in place.
    pub fn observe_term(&self, term: u64) -> bool {
        if term > self.log.current_term() {
            self.step_down(term, None);
            return false;
        }
        true
    }

    /// Round step 3, **digest**: the one rule for an `AppendEntries` reply
    /// from `peer`. A higher term steps this node down; a success
    /// advances the peer's match index and, from the matches, the commit
    /// index; a reject backs `next_index` up to the peer's hint. Returns
    /// whether the peer accepted.
    pub fn on_append_reply(&self, peer: NodeId, resp: &AppendResp) -> bool {
        if !self.observe_term(resp.term) {
            return false;
        }
        if resp.success {
            self.note_match(peer, resp.match_index);
            self.advance_commit_from_matches();
        } else {
            self.note_reject(peer, resp.match_index);
        }
        resp.success
    }

    /// Records a successful replication ack from `peer`.
    fn note_match(&self, peer: NodeId, match_index: u64) {
        let mut st = self.st.borrow_mut();
        let m = st.match_index.entry(peer.0).or_insert(0);
        *m = (*m).max(match_index);
        let n = st.next_index.entry(peer.0).or_insert(1);
        *n = (*n).max(match_index + 1);
        drop(st);
        self.check_handover(peer);
    }

    /// Fires the handover's `caught_up` if `peer` is its target and holds
    /// this leader's whole log: the log as it stands when the hold begins
    /// or a match arrives, so a batch staged meanwhile counts too.
    pub(crate) fn check_handover(&self, peer: NodeId) {
        if let Some((target, caught_up, _)) = &*self.handover.borrow() {
            if *target == peer && self.match_index(peer) >= self.log.last_index() {
                caught_up.fire(Signal::Ok);
            }
        }
    }

    /// Records a rejection hint from `peer`: back `next_index` up.
    ///
    /// Guarded against *stale* rejections (a reply computed long ago, when
    /// the peer was further behind, arriving after newer successes): the
    /// index never regresses below `match_index + 1`.
    fn note_reject(&self, peer: NodeId, hint: u64) {
        let mut st = self.st.borrow_mut();
        let floor = st.match_index.get(&peer.0).copied().unwrap_or(0) + 1;
        let n = st.next_index.entry(peer.0).or_insert(1);
        *n = (hint + 1).max(floor).min(self.log.last_index() + 1);
    }

    /// Advances the commit index from the match indices (plus own log).
    ///
    /// Only entries of the current term commit by counting, per the Raft
    /// safety rule.
    fn advance_commit_from_matches(&self) {
        let mut matches: Vec<u64> = {
            let st = self.st.borrow();
            st.match_index.values().copied().collect()
        };
        matches.push(self.log.last_index());
        matches.sort_unstable_by(|a, b| b.cmp(a));
        let m = matches[self.majority() - 1];
        if m > self.commit.get() && self.log.term_at(m) == self.log.current_term() {
            self.set_commit(m);
        }
    }

    /// Sets the commit index (monotonic).
    pub fn set_commit(&self, index: u64) {
        use depfast::event::Watchable;
        let old = self.commit.get();
        if index > old {
            self.stats.commit_index.set(index as i64);
            // Commit lag of each newly committed proposal still pending
            // here (the leader): proposal creation → commit.
            let now = self.rt.now();
            let pending = self.pending.borrow();
            for i in (old + 1)..=index {
                if let Some(ev) = pending.get(&i) {
                    self.stats.commit_lag.record(now - ev.handle().created_at());
                }
            }
            drop(pending);
            self.commit.set(index);
        }
    }

    /// Snapshot of `next_index` for `peer`.
    pub fn next_index(&self, peer: NodeId) -> u64 {
        *self.st.borrow().next_index.get(&peer.0).unwrap_or(&1)
    }

    /// Snapshot of `match_index` for `peer`.
    pub fn match_index(&self, peer: NodeId) -> u64 {
        *self.st.borrow().match_index.get(&peer.0).unwrap_or(&0)
    }

    /// Optimistically advances `next_index` for `peer` past entries just
    /// shipped, so pipelined rounds do not re-send what is already in
    /// flight. A lost or rejected append self-corrects: the follower's
    /// reject hint (via [`RaftCore::on_append_reply`]) backs the index up.
    pub fn note_sent_through(&self, peer: NodeId, hi: u64) {
        let mut st = self.st.borrow_mut();
        let n = st.next_index.entry(peer.0).or_insert(1);
        *n = (*n).max(hi + 1);
    }

    /// Starts the detached apply loop: waits for the commit index to pass
    /// the last applied entry, then applies (round step 4) everything
    /// committed.
    pub fn spawn_apply_loop(self: &Rc<Self>) {
        let core = self.clone();
        Coroutine::create(&self.rt, "raft:apply", async move {
            loop {
                let target = core.applied_idx.get() + 1;
                core.commit.when_at_least(target).wait().await;
                if core.apply_committed().await.is_err() {
                    break; // Crashed.
                }
            }
        });
    }

    /// Round step 4, **apply** — the one apply body: reads every
    /// committed-but-unapplied entry, charges apply CPU *in the calling
    /// coroutine*, applies, and completes the pending client proposal at
    /// that index; then drops the log prefix [`crate::feed`] says nobody
    /// needs any more.
    async fn apply_committed(&self) -> Result<(), Crashed> {
        let hi = self.commit.get();
        let lo = self.applied_idx.get() + 1;
        if lo > hi {
            return Ok(());
        }
        let entries = self.log.read(lo, hi + 1).await.map_err(|_| Crashed)?;
        for e in entries {
            self.world.cpu(self.id, self.cfg.apply_cpu).await?;
            if e.index <= self.applied_idx.get() {
                // A snapshot was installed while this pass was on the CPU:
                // the state machine is already past this entry.
                continue;
            }
            let reply = match self.machine.borrow_mut().as_mut() {
                Some(m) => m.apply(&e),
                None => Bytes::new(),
            };
            self.applied_idx.set(e.index);
            let pending = self.pending.borrow_mut().remove(&e.index);
            if let Some(ev) = pending {
                use depfast::event::Watchable;
                // Creation → state-machine apply: what the client
                // experiences as latency.
                self.stats
                    .apply_lag
                    .record(self.rt.now() - ev.handle().created_at());
                ev.fire_ok(reply);
            }
        }
        let standing = feed::Standing {
            first_index: self.log.first_index(),
            applied: self.applied_idx.get(),
            log_bytes: self.log.bytes(),
            slowest_match: self
                .is_leader()
                .then(|| self.st.borrow().match_index.values().copied().min())
                .flatten(),
        };
        if let Some(through) = feed::compact_through(&standing) {
            self.log.compact_through(through);
        }
        Ok(())
    }

    /// Legacy round step 5, the **region-thread tail**: waits (bounded) for
    /// `hi` to commit, then applies inline. The legacy leaders run this on
    /// their single region/message thread — faithful to the architectures
    /// whose blocking the paper documents — whereas DepFastRaft uses the
    /// detached [`RaftCore::spawn_apply_loop`].
    pub async fn commit_then_apply(&self, hi: u64) -> Result<(), Crashed> {
        if hi > self.commit.get() {
            let phase = depfast::PhaseSpan::begin(&self.rt, "commit_wait");
            self.commit
                .when_at_least(hi)
                .wait_timeout(REGION_COMMIT_WAIT)
                .await;
            phase.end();
        }
        let phase = depfast::PhaseSpan::begin(&self.rt, "apply");
        self.apply_committed().await?;
        phase.end();
        Ok(())
    }

    /// The term rule for a message from `leader` claiming `term`: `false`
    /// if the term is stale (the caller answers with the current one);
    /// otherwise this node follows that leader from now on — stepping down
    /// into a higher term if need be — and the contact counts as a
    /// heartbeat.
    fn follow_leader(&self, term: u64, leader: u32) -> bool {
        let current = self.log.current_term();
        if term < current {
            return false;
        }
        if term > current {
            self.step_down(term, Some(NodeId(leader)));
        } else if self.st.borrow().role != Role::Leader {
            let mut st = self.st.borrow_mut();
            st.role = Role::Follower;
            st.leader_hint = Some(NodeId(leader));
        }
        self.st.borrow_mut().last_heartbeat = self.rt.now();
        true
    }

    /// What a leader whose term [`RaftCore::follow_leader`] refused hears:
    /// the current term, and nothing about the log.
    fn stale_term_reply(&self) -> AppendResp {
        AppendResp {
            term: self.log.current_term(),
            success: false,
            match_index: 0,
            verified: self.verified_index.get(),
        }
    }

    /// Registers the follower-side `AppendEntries`, `InstallSnapshot`,
    /// `RequestVote` and `PreVote` services (identical across drivers).
    pub fn install_follower_services(self: &Rc<Self>) {
        let core = self.clone();
        self.ep.serve(
            self.method(APPEND_ENTRIES),
            "raft:handle_append",
            move |from, req: AppendReq| {
                // Ticket taken here, in the handler's synchronous prefix,
                // so the ordered section of `handle_append` runs in arrival
                // order regardless of coroutine scheduling.
                let ticket = core.append_ticket.get();
                core.append_ticket.set(ticket + 1);
                let core = core.clone();
                async move { handle_append(&core, from, req, ticket).await }
            },
        );
        let core = self.clone();
        self.ep.serve(
            self.method(INSTALL_SNAPSHOT),
            "raft:handle_snapshot",
            move |_from, req: SnapshotReq| {
                let core = core.clone();
                async move { handle_snapshot(&core, req).await }
            },
        );
        let core = self.clone();
        self.ep.serve(
            self.method(REQUEST_VOTE),
            "raft:handle_vote",
            move |_from, req: VoteReq| {
                let core = core.clone();
                async move { handle_vote(&core, req).await }
            },
        );
        let core = self.clone();
        self.ep.serve(
            self.method(PRE_VOTE),
            "raft:handle_prevote",
            move |_from, req: VoteReq| {
                let core = core.clone();
                async move { handle_prevote(&core, req).await }
            },
        );
    }

    /// The election restriction: whether a candidate whose log ends at
    /// (`req.last_term`, `req.last_index`) is at least as up to date as
    /// this node's.
    fn candidate_up_to_date(&self, req: &VoteReq) -> bool {
        let my_last = self.log.last_index();
        let my_term = self.log.term_at(my_last);
        req.last_term > my_term || (req.last_term == my_term && req.last_index >= my_last)
    }
}

/// Retires an append-processing ticket on every exit path of the ordered
/// section (including crash-induced early returns), releasing the next
/// ticket holder.
struct AppendTurn<'a> {
    core: &'a RaftCore,
    ticket: u64,
}

impl Drop for AppendTurn<'_> {
    fn drop(&mut self) {
        self.core.append_turn.set(self.ticket + 1);
    }
}

/// Retires `ticket` without entering the ordered section — used by exit
/// paths that never touch the log (stale term, crash). Retirement must
/// still happen *in order* (releasing ticket `k+1` before `k-1` finished
/// would defeat the ordering), so a late ticket retires from a helper
/// coroutine once its turn comes up, without delaying the reply.
fn retire_append_ticket(core: &Rc<RaftCore>, ticket: u64) {
    if core.append_turn.get() == ticket {
        core.append_turn.set(ticket + 1);
        return;
    }
    let c = core.clone();
    Coroutine::create(&core.rt.clone(), "raft:append_turn", async move {
        c.append_turn.when_at_least(ticket).wait().await;
        c.append_turn.set(ticket + 1);
    });
}

pub async fn handle_append(
    core: &Rc<RaftCore>,
    _from: NodeId,
    req: AppendReq,
    ticket: u64,
) -> Option<AppendResp> {
    let entry_count = req.entries.len();
    let cpu = core.cfg.append_cpu_base + core.cfg.append_cpu_per_entry * entry_count as u32;
    if core.world.cpu(core.id, cpu).await.is_err() {
        retire_append_ticket(core, ticket);
        return None;
    }

    if !core.follow_leader(req.term, req.leader) {
        retire_append_ticket(core, ticket);
        return Some(core.stale_term_reply());
    }

    // Ordered section: log reads and mutations run strictly in arrival
    // order. With pipelined replication several appends are in flight at
    // once, and on a multi-core node a later small append's CPU can finish
    // before an earlier large one's — unordered processing would misread
    // the not-yet-applied prefix as a log-matching conflict and reject
    // endemically. CPU (above) and the durability wait (below) stay
    // concurrent; only the log section is serialized.
    core.append_turn.when_at_least(ticket).wait().await;
    let turn = AppendTurn { core, ticket };

    // Log-matching check.
    if req.prev_index > core.log.last_index() {
        return Some(AppendResp {
            term: core.log.current_term(),
            success: false,
            match_index: core.log.last_index(),
            verified: core.verified_index.get(),
        });
    }
    // Everything at or below the compaction base is committed, hence
    // identical on every replica (Log Matching + Leader Completeness):
    // below it there is no term to compare and nothing to conflict with. A
    // *stale retransmission* — a leader that rewound `next_index` past what
    // this follower has since applied and compacted — lands here; reading
    // the 0 `term_at` answers below the base as a mismatch would truncate
    // committed entries.
    let base = core.log.first_index() - 1;
    if req.prev_index >= base
        && req.prev_index > 0
        && core.log.term_at(req.prev_index) != req.prev_term
    {
        core.log.truncate_from(req.prev_index);
        core.verified_index.set(
            core.verified_index
                .get()
                .min(req.prev_index.saturating_sub(1)),
        );
        return Some(AppendResp {
            term: core.log.current_term(),
            success: false,
            match_index: req.prev_index.saturating_sub(1),
            verified: core.verified_index.get(),
        });
    }

    // Append entries we do not already have (handling retries and
    // conflicts).
    let entries = from_wire(req.entries);
    let mut new = Vec::new();
    for e in entries {
        if e.index <= base {
            continue; // Already held, as state rather than as an entry.
        }
        if e.index <= core.log.last_index() {
            if core.log.term_at(e.index) != e.term {
                core.log.truncate_from(e.index);
                core.verified_index
                    .set(core.verified_index.get().min(e.index - 1));
                new.push(e);
            }
        } else {
            new.push(e);
        }
    }
    let match_to = req.prev_index + entry_count as u64;
    if !new.is_empty() {
        core.log.append(&new);
    }
    // The whole span `[.., match_to]` is now log-match-verified against
    // the leader's stream (though its tail may not be durable yet).
    core.verified_index
        .set(core.verified_index.get().max(match_to));
    // Log mutation done: release the next append before the (potentially
    // slow) durability wait so acks pipeline on the follower too.
    drop(turn);

    // Lazy-ack mode (leader-side quarantine polling): never park behind
    // the local disk — report the durable prefix as it stands. This is
    // what keeps a fail-slow follower's wait profile from filling up with
    // parked append handlers: its durability progress is *polled* by
    // heartbeat-paced probes instead of *awaited* by per-append
    // coroutines.
    if req.lazy {
        let verified = core.verified_index.get();
        let durable = core.log.durable_index().min(verified);
        core.set_commit(req.commit.min(durable));
        return Some(AppendResp {
            term: core.log.current_term(),
            success: true,
            match_index: durable,
            verified,
        });
    }
    // Durability before acknowledging — including for retransmitted
    // entries whose original fsync is still queued. This wait is on the
    // node's own disk: a local wait, legitimate under the fail-slow
    // definition.
    if match_to > 0 && core.log.durable_index() < match_to {
        let gate = core.log.wait_durable(match_to.min(core.log.last_index()));
        if !gate.wait().await.is_ready() {
            return None;
        }
    }
    core.set_commit(req.commit.min(match_to));
    Some(AppendResp {
        term: core.log.current_term(),
        success: true,
        match_index: match_to,
        verified: core.verified_index.get(),
    })
}

/// Follower-side `InstallSnapshot` (returns `None` — no answer — if the
/// node crashed, the state does not decode, or an earlier snapshot is still
/// being written). The usual term rule; a snapshot at or below what this
/// node has applied tells it nothing and changes nothing. Otherwise the
/// state machine is replaced, the log keeps the suffix that extends the
/// snapshot or nothing, and applied, commit and verified all stand at the
/// snapshot's index — in one synchronous step, so an apply pass or an
/// append handler sees the node before it or after it, never between. The
/// ack says the node matches through the snapshot, whichever way it got
/// there, and like an append's it waits until that is durable: for a local
/// write of the snapshot's length, or for what is still queued of the log
/// through it (this node's own disk: a local wait).
///
/// One install at a time: a leader resends an unanswered snapshot
/// (`SNAPSHOT_RESEND`), and on a node whose disk is the slow part each
/// newer one would queue one more state-sized write behind the last. While
/// the log's base is not durable — only a snapshot's write in progress
/// puts a follower's base ahead of its disk: it commits, applies and so
/// compacts behind what it has made durable — a newer snapshot is dropped;
/// the write in progress acks when it is done and the leader goes on from
/// there.
pub async fn handle_snapshot(core: &Rc<RaftCore>, req: SnapshotReq) -> Option<AppendResp> {
    core.world
        .cpu(core.id, core.cfg.append_cpu_base)
        .await
        .ok()?;
    if !core.follow_leader(req.term, req.leader) {
        return Some(core.stale_term_reply());
    }
    if req.last_index > core.applied_idx.get() {
        if core.log.durable_index() + 1 < core.log.first_index() {
            return None;
        }
        if let Some(m) = core.machine.borrow_mut().as_mut() {
            if !m.restore(&req.state) {
                return None;
            }
        }
        core.log
            .install_snapshot(req.last_index, req.last_term, req.state.len() as u64);
        core.applied_idx.set(req.last_index);
        core.set_commit(req.last_index);
        // What was verified past the snapshot still is iff the log kept it.
        let kept = core.verified_index.get().min(core.log.last_index());
        core.verified_index.set(kept.max(req.last_index));
    }
    let durable = core
        .log
        .wait_durable(req.last_index.min(core.log.last_index()));
    if !durable.wait().await.is_ready() {
        return None;
    }
    Some(AppendResp {
        term: core.log.current_term(),
        success: true,
        match_index: req.last_index,
        verified: core.verified_index.get(),
    })
}

/// Election timeout range `[lo, hi)`: a follower campaigns after a draw
/// from it without leader contact, vote rounds wait at most `hi`, and a
/// follower that heard from a leader within `lo` refuses a PreVote.
pub const ELECTION_TIMEOUT: (Duration, Duration) =
    (Duration::from_millis(150), Duration::from_millis(300));

/// Follower-side `PreVote`: a non-binding probe that grants only if this
/// node has *not* heard from a live leader recently and the candidate's
/// log is up to date. PreVote keeps a starved or partitioned node's
/// ever-firing election timer from disrupting a healthy cluster — without
/// it, a fail-slow follower that cannot process heartbeats campaigns at
/// ever-higher terms and repeatedly deposes the working leader.
pub async fn handle_prevote(core: &Rc<RaftCore>, req: VoteReq) -> Option<VoteResp> {
    core.world
        .cpu(core.id, core.cfg.append_cpu_base)
        .await
        .ok()?;
    let current = core.log.current_term();
    let fresh = {
        let st = core.st.borrow();
        st.role == Role::Leader || core.rt.now() - st.last_heartbeat < ELECTION_TIMEOUT.0
    };
    Some(VoteResp {
        term: current,
        granted: !fresh && core.candidate_up_to_date(&req) && req.term > current,
    })
}

/// Follower-side `RequestVote` (returns `None` if the node crashed).
pub async fn handle_vote(core: &Rc<RaftCore>, req: VoteReq) -> Option<VoteResp> {
    core.world
        .cpu(core.id, core.cfg.append_cpu_base)
        .await
        .ok()?;
    let current = core.log.current_term();
    if req.term < current {
        return Some(VoteResp {
            term: current,
            granted: false,
        });
    }
    if req.term > current {
        core.step_down(req.term, None);
    }
    let grant = core.candidate_up_to_date(&req)
        && match core.log.voted_for() {
            None => true,
            Some(v) => v == req.candidate,
        };
    if grant {
        use depfast::event::Watchable;
        let io = core.log.set_term_vote(req.term, Some(req.candidate));
        if !io.handle().wait().await.is_ready() {
            return None;
        }
        core.st.borrow_mut().last_heartbeat = core.rt.now();
    }
    Some(VoteResp {
        term: core.log.current_term(),
        granted: grant,
    })
}

/// The public, driver-agnostic server handle the KV layer talks to.
#[derive(Clone)]
pub struct RaftServer {
    core: Rc<RaftCore>,
    kind: crate::cluster::RaftKind,
}

impl RaftServer {
    /// Wraps a started core.
    pub fn new(core: Rc<RaftCore>, kind: crate::cluster::RaftKind) -> Self {
        RaftServer { core, kind }
    }

    /// The underlying core.
    pub fn core(&self) -> &Rc<RaftCore> {
        &self.core
    }

    /// Which driver runs this server.
    pub fn kind(&self) -> crate::cluster::RaftKind {
        self.kind
    }

    /// Submits a client command (see [`RaftCore::propose`]).
    pub fn propose(&self, payload: Bytes) -> TypedEvent<Bytes> {
        self.core.propose(payload)
    }

    /// `true` if this node believes it is leader.
    pub fn is_leader(&self) -> bool {
        self.core.is_leader()
    }

    /// Test probe: this node's id.
    #[doc(hidden)]
    pub fn node(&self) -> NodeId {
        self.core.id
    }

    /// Last known leader.
    pub fn leader_hint(&self) -> Option<NodeId> {
        self.core.leader_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use depfast::event::{Signal, Watchable};
    use depfast::Tracer;
    use depfast_rpc::endpoint::{Registry, RpcCfg};
    use simkit::disk::DiskOp;
    use simkit::{Sim, WorldCfg};

    fn one_node() -> (Sim, World, Rc<RaftCore>) {
        node_zero_under(0)
    }

    /// Node 0 of three, with node `leader` bootstrapped as leader.
    fn node_zero_under(leader: u32) -> (Sim, World, Rc<RaftCore>) {
        node_zero(RaftCfg {
            bootstrap_leader: Some(leader),
            ..RaftCfg::default()
        })
    }

    fn node_zero(cfg: RaftCfg) -> (Sim, World, Rc<RaftCore>) {
        let sim = Sim::new(1);
        let world = World::new(sim.clone(), WorldCfg::default());
        let rt = Runtime::with_tracer(sim.clone(), NodeId(0), Tracer::new());
        let ep = Endpoint::new(&rt, &world, &REGISTRY.with(Clone::clone), RpcCfg::default());
        let core = RaftCore::new(
            &rt,
            &world,
            &ep,
            vec![NodeId(0), NodeId(1), NodeId(2)],
            cfg,
            0,
        );
        (sim, world, core)
    }

    thread_local! {
        /// The registry of every endpoint a test of this module builds.
        static REGISTRY: Registry = Registry::new();
    }

    /// Node 1 of `core`'s world, answering every `AppendEntries` with
    /// `reply`.
    fn peer_answering(core: &RaftCore, sim: &Sim, reply: AppendResp) -> Endpoint {
        let rt = Runtime::with_tracer(sim.clone(), NodeId(1), Tracer::new());
        let ep = Endpoint::new(
            &rt,
            &core.world,
            &REGISTRY.with(Clone::clone),
            RpcCfg::default(),
        );
        let serve = move |_, _: AppendReq| async move { Some(reply) };
        ep.serve(APPEND_ENTRIES, "append_entries", serve);
        ep
    }

    /// Entries `lo..=hi` of term 1.
    fn entries(lo: u64, hi: u64) -> Vec<Entry> {
        let entry = |index| Entry {
            term: 1,
            index,
            payload: Bytes::from(vec![index as u8; 8]),
        };
        (lo..=hi).map(entry).collect()
    }

    /// A state machine that is a count of what it applied.
    struct Tally(Rc<Cell<u64>>);

    impl StateMachine for Tally {
        fn apply(&mut self, _entry: &Entry) -> Bytes {
            self.0.set(self.0.get() + 1);
            Bytes::new()
        }

        fn snapshot(&self) -> Frame {
            depfast_rpc::wire::WireWrite::to_frame(&self.0.get())
        }

        fn restore(&mut self, snapshot: &Frame) -> bool {
            let count: Option<u64> = depfast_rpc::wire::WireRead::from_frame(snapshot);
            count.map(|n| self.0.set(n)).is_some()
        }
    }

    /// The trap log GC sets for `handle_append`: a leader that rewound
    /// `next_index` — a reject, a full append window — retransmits from
    /// below what the follower has since applied and compacted. Below the
    /// base `term_at` answers 0; read as a log-matching conflict that
    /// would truncate committed entries. The sizing prototype of this
    /// change walked into it in `gate scenario`'s **`leader-cpu-slow` /
    /// DepFastRaft** cell, where the mitigation's new leader quarantines
    /// the slow old one and rewinds to an acked prefix of 0 (this tree
    /// anchors such probes at the leader's own base, so the pinned seed no
    /// longer gets there; a deeper rewind still does). The follower must
    /// answer as it would have with the whole log in hand.
    #[test]
    fn an_append_below_the_base_is_a_retransmission_not_a_conflict() {
        let (sim, _w, core) = node_zero_under(1);
        core.log.append(&entries(1, 10));
        sim.run();
        core.log.compact_through(6);
        // prev_index 3 is below the base (6); the entries straddle it.
        let stale = AppendReq {
            term: 1,
            leader: 1,
            prev_index: 3,
            prev_term: 1,
            entries: to_wire(&entries(4, 8)),
            commit: 8,
            lazy: false,
        };
        let c = core.clone();
        let resp = sim.block_on(async move { handle_append(&c, NodeId(1), stale, 0).await });
        assert_eq!(
            resp,
            Some(AppendResp {
                term: 1,
                success: true,
                match_index: 8,
                verified: 8,
            })
        );
        assert_eq!((core.log.first_index(), core.log.last_index()), (7, 10));
        let (kept, _) = core.log.read_raw(7, 11);
        assert_eq!(kept, entries(7, 10), "log untouched");
        assert_eq!(core.commit.get(), 8);
    }

    /// A lazy reply's match is `min(durable, verified)`, and `verified` was
    /// verified against one leader's stream. Node 0 holds entries 1–10 of
    /// term 1, durable, with 3 committed; then node 2 leads term 2, its log
    /// agreeing only through the commit. Its first lazy probe stands at its
    /// acked prefix, 0. Answered "match 10", the new leader would count
    /// node 0 as holding its own entries 4–10 — of term 2 — and commit them
    /// on node 0's term-1 entries. What node 0 verified for the old leader
    /// stands for the new one only as far as it is committed.
    #[test]
    fn a_new_leaders_lazy_probe_is_not_answered_from_the_old_leaders_stream() {
        let (sim, _w, core) = node_zero_under(1);
        let append = |ticket, req: AppendReq| {
            let c = core.clone();
            let resp = sim.block_on(async move { handle_append(&c, NodeId(1), req, ticket).await });
            resp.expect("answered")
        };
        let old = AppendReq {
            term: 1,
            leader: 1,
            prev_index: 0,
            prev_term: 0,
            entries: to_wire(&entries(1, 10)),
            commit: 3,
            lazy: false,
        };
        let acked = append(0, old);
        assert_eq!((acked.match_index, acked.verified), (10, 10));
        assert_eq!(core.commit.get(), 3);
        let probe = AppendReq {
            term: 2,
            leader: 2,
            prev_index: 0,
            prev_term: 0,
            entries: Vec::new(),
            commit: 3,
            lazy: true,
        };
        let resp = append(1, probe);
        assert!(resp.success);
        assert_eq!((resp.match_index, resp.verified), (3, 3));
    }

    #[test]
    fn a_snapshot_replaces_state_and_log_and_a_stale_one_changes_nothing() {
        let (sim, _w, core) = node_zero_under(1);
        let tally = Rc::new(Cell::new(0));
        core.set_state_machine(Tally(tally.clone()));
        core.log.append(&entries(1, 5));
        sim.run();
        let snapshot = |last_index: u64, term: u64| SnapshotReq {
            term,
            leader: 1,
            last_index,
            last_term: 1,
            state: depfast_rpc::wire::WireWrite::to_frame(&last_index),
        };
        let install = |req: SnapshotReq| {
            let c = core.clone();
            sim.block_on(async move { handle_snapshot(&c, req).await })
        };
        let ack = |match_index| {
            Some(AppendResp {
                term: 1,
                success: true,
                match_index,
                verified: match_index.max(50),
            })
        };
        // Past the log's end: the five entries are not known to lead to
        // it, so they go; every watermark stands at the snapshot.
        let wal_before = core.log.wal().synced_bytes();
        assert_eq!(install(snapshot(50, 1)), ack(50));
        assert_eq!(tally.get(), 50);
        assert_eq!((core.log.first_index(), core.log.last_index()), (51, 50));
        assert_eq!(core.log.term_at(50), 1);
        assert_eq!((core.applied_idx.get(), core.commit.get()), (50, 50));
        assert!(core.log.durable_index() >= 50);
        assert!(
            core.log.wal().synced_bytes() >= wal_before + 8,
            "the ack waited for a local write of the snapshot's length"
        );
        // At or below what is applied: acknowledged, nothing touched.
        assert_eq!(install(snapshot(40, 1)), ack(40));
        assert_eq!(tally.get(), 50);
        assert_eq!(core.applied_idx.get(), 50);
        // From a stale term: refused by the term rule.
        let refused = install(snapshot(90, 0)).expect("answered");
        assert!(!refused.success);
        assert_eq!(tally.get(), 50);
        // One that does not decode is dropped, state untouched.
        let mut garbled = snapshot(90, 1);
        garbled.state = Frame::from(Bytes::from_static(b"xyz"));
        assert_eq!(install(garbled), None);
        assert_eq!((tally.get(), core.applied_idx.get()), (50, 50));
    }

    #[test]
    fn an_append_request_is_not_built_below_the_base() {
        let (sim, _w, core) = one_node();
        core.log.append(&entries(1, 10));
        sim.run();
        core.log.compact_through(6);
        assert_eq!(core.append_req(1, 4, &[], false), None);
        let at_base = core.append_req(1, 6, &entries(7, 8), false).expect("held");
        assert_eq!((at_base.prev_index, at_base.prev_term), (6, 1));
        assert_eq!(
            core.probe_req(1, 4, false).prev_index,
            6,
            "stands at the base"
        );
        assert_eq!(core.probe_req(1, 9, false).prev_index, 9);
    }

    /// Messages node 0 has put on the network.
    fn sent(world: &World) -> u64 {
        let key = depfast_metrics::Key::node("sim.net.msgs", 0);
        world.metrics().counter(key).get()
    }

    /// Peers node 0's feed law holds an `InstallSnapshot` in flight to.
    fn sent_state_to(core: &RaftCore) -> Vec<u32> {
        let feed = core.feed.borrow();
        let held = |peer| feed.fork(core.rt.now(), NodeId(peer), 0, 1, true, |_| false);
        let peers = [1, 2].into_iter();
        peers
            .filter(|&p| matches!(held(p), Some(Fork::Waiting(_))))
            .collect()
    }

    /// The race the fork is asked twice for. A leader asks it, is told the
    /// log still reaches its peer, and goes to the disk for cold entries;
    /// while it waits an apply pass compacts past them — the log crossed
    /// the size limit, or the node was deposed and keeps only what a
    /// follower keeps. No request can be built from a `prev_index` whose
    /// term is gone: a node that still leads sends its state instead, a
    /// deposed one sends nothing. Both shapes of the path: the read a
    /// coroutine pays for itself (DepFastRaft) and entries a driver read
    /// before it awaited (the legacy drivers), handed back to `feed`.
    #[test]
    fn a_cold_read_overtaken_by_compaction_sends_state_or_nothing_never_a_stale_append() {
        for deposed in [false, true] {
            let (sim, world, core) = node_zero(RaftCfg {
                bootstrap_leader: Some(0),
                log: LogStoreCfg {
                    cache_bytes: 64,
                    ..LogStoreCfg::default()
                },
                ..RaftCfg::default()
            });
            core.log.append(&entries(1, 20));
            sim.run();
            let (c, before) = (core.clone(), sent(&world));
            sim.spawn(async move {
                c.rt.sleep(Duration::from_nanos(1)).await;
                if deposed {
                    c.step_down(2, None);
                }
                c.log.compact_through(10);
            });
            let c = core.clone();
            let built = sim.block_on(async move {
                // DepFastRaft's shape: the coroutine pays for the read itself.
                let Fed::Cold(entries, bytes) = c.feed(NodeId(2), 1, 3, 9, Vec::new()) else {
                    panic!("the entries are not in the cache");
                };
                c.world.disk(c.id, DiskOp::Read { bytes }).await.unwrap();
                assert!(c.rt.now() > SimTime::ZERO + Duration::from_nanos(1));
                match c.feed(NodeId(2), 1, 3, 9, entries) {
                    Fed::Append(req) => Some(req),
                    _ => None,
                }
            });
            assert_eq!(core.log.cache_misses(), 1, "the read went to the disk");
            assert_eq!(built, None, "deposed: {deposed}");
            core.feed(NodeId(1), 1, 3, 9, entries(3, 8));
            sim.run();
            let expect = if deposed { vec![] } else { vec![1, 2] };
            let to = sent_state_to(&core);
            assert_eq!(to, expect, "deposed: {deposed}");
            assert_eq!(sent(&world) - before, expect.len() as u64);
        }
    }

    /// DepFastRaft's rejected lazy probe, the one route to the fork that is
    /// a reply. A new leader's probe to a quarantined peer stands at its
    /// base; the peer's log ends below it, so the peer rejects, and the
    /// reject backs `next_index` up to where that log ends — below the
    /// base, where quarantine never reads. The lazy digest has the fork
    /// asked there on the reply itself, not a heartbeat later.
    #[test]
    fn a_rejected_lazy_probe_has_the_fork_asked_where_the_peers_log_ends() {
        // Node 1's log ends at 3, and it says so to every append.
        let short = AppendResp {
            term: 1,
            success: false,
            match_index: 3,
            verified: 3,
        };
        for lazy in [true, false] {
            let (sim, world, core) = one_node();
            core.log.append(&entries(1, 10));
            sim.run();
            core.log.compact_through(6);
            let _peer = peer_answering(&core, &sim, short);
            let before = sent(&world);
            core.send_append(NodeId(1), &core.probe_req(1, 0, lazy));
            sim.run_until_time(sim.now() + Duration::from_millis(5));
            assert_eq!(core.next_index(NodeId(1)), 4, "lazy: {lazy}");
            // A reply to an append that is not lazy is no route to the fork:
            // the next read for the peer asks it.
            let expect = if lazy { vec![1] } else { vec![] };
            assert_eq!(sent_state_to(&core), expect, "lazy: {lazy}");
            assert_eq!(sent(&world) - before, 1 + expect.len() as u64);
        }
    }

    /// When state goes out is the law's
    /// (`feed::tests::the_fork_and_its_patience_by_table`); what needs a
    /// `Sim` is that each verdict puts on the wire exactly what it says:
    /// one `InstallSnapshot` per send, nothing while one stands or from a
    /// node that does not lead.
    #[test]
    fn one_snapshot_is_outstanding_per_peer_and_an_unanswered_one_is_resent() {
        let (sim, world, core) = one_node();
        core.log.append(&entries(1, 10));
        sim.run();
        core.log.compact_through(6);
        let before = sent(&world);
        let ask = |peer: u32, lo: u64| {
            let fed = core.feed(NodeId(peer), 1, lo, 11, Vec::new());
            sim.run_until_time(sim.now() + Duration::from_millis(1));
            fed
        };
        let pending = |fed: Fed| match fed {
            Fed::Pending(sent) => sent.id(),
            _ => panic!("state is what the peer lacks"),
        };
        assert!(matches!(ask(1, 7), Fed::Append(_)), "the log holds 7");
        assert_eq!(sent(&world), before);
        // Below the base: state goes out, once however often it is asked.
        let first = pending(ask(1, 4));
        assert_eq!(pending(ask(1, 4)), first);
        assert_eq!(sent(&world) - before, 1);
        // Another peer's is its own.
        pending(ask(2, 1));
        assert_eq!(sent(&world) - before, 2);
        // Nobody answered within the patience: again.
        sim.run_until_time(sim.now() + Duration::from_secs(1));
        let second = pending(ask(1, 4));
        assert_ne!(second, first);
        assert_eq!(pending(ask(1, 4)), second);
        assert_eq!(sent(&world) - before, 3);
        // A node that no longer leads has no state to impose.
        core.step_down(5, None);
        sim.run_until_time(sim.now() + Duration::from_secs(8));
        assert!(matches!(ask(1, 4), Fed::Nothing));
        assert!(matches!(ask(2, 4), Fed::Nothing));
        assert_eq!(sent(&world) - before, 3);
    }

    /// A leader resends an unanswered snapshot; a follower whose disk is
    /// the slow part must not queue a state-sized write for each.
    #[test]
    fn a_snapshot_arriving_while_one_is_being_written_is_dropped_unanswered() {
        let (sim, _w, core) = node_zero_under(1);
        let snapshot = |last_index: u64| SnapshotReq {
            term: 1,
            leader: 1,
            last_index,
            last_term: 1,
            state: Frame::from(Bytes::from(vec![0u8; 1 << 20])),
        };
        let install = |req: SnapshotReq| {
            let c = core.clone();
            sim.spawn(async move {
                let ack = handle_snapshot(&c, req).await;
                (ack, c.log.durable_index())
            })
        };
        // All arrive together; the later ones get the CPU while the first's
        // megabyte is on the disk. A newer one is dropped; the same one
        // again is acknowledged like the first, once it is durable.
        let first = install(snapshot(50));
        let (newer, again) = (install(snapshot(60)), install(snapshot(50)));
        sim.run();
        for taken in [first, again] {
            let (ack, durable_then) = taken.try_take().expect("ran");
            let ack = ack.expect("answered");
            assert_eq!((ack.success, ack.match_index), (true, 50));
            assert!(durable_then >= 50, "acknowledged before it was durable");
        }
        assert_eq!(newer.try_take().expect("ran").0, None);
        assert_eq!((core.applied_idx.get(), core.log.last_index()), (50, 50));
        // Once the write is done the next one is taken.
        let third = install(snapshot(60));
        sim.run();
        assert!(third.try_take().expect("ran").0.is_some());
        assert_eq!(core.applied_idx.get(), 60);
    }

    #[test]
    fn majority_math() {
        let (_s, _w, core) = one_node();
        assert_eq!(core.majority(), 2);
    }

    #[test]
    fn propose_on_non_leader_fails_fast() {
        let (_s, _w, core) = one_node();
        core.step_down(2, None);
        let ev = core.propose(Bytes::from_static(b"x"));
        assert_eq!(ev.handle().fired(), Some(Signal::Err));
    }

    #[test]
    fn commit_advance_uses_median_match() {
        let (sim, _w, core) = one_node();
        core.log.append(&[
            Entry {
                term: 1,
                index: 1,
                payload: Bytes::new(),
            },
            Entry {
                term: 1,
                index: 2,
                payload: Bytes::new(),
            },
        ]);
        sim.run();
        core.note_match(NodeId(1), 1);
        core.advance_commit_from_matches();
        // self(2) + peer1(1) + peer2(0): median-of-majority = 1.
        assert_eq!(core.commit.get(), 1);
        core.note_match(NodeId(2), 2);
        core.advance_commit_from_matches();
        assert_eq!(core.commit.get(), 2);
    }

    #[test]
    fn commit_only_counts_current_term_entries() {
        let (sim, _w, core) = one_node();
        // Entry from an older term (term 0 < current term 1).
        core.log.append(&[Entry {
            term: 0,
            index: 1,
            payload: Bytes::new(),
        }]);
        sim.run();
        core.note_match(NodeId(1), 1);
        core.note_match(NodeId(2), 1);
        core.advance_commit_from_matches();
        assert_eq!(
            core.commit.get(),
            0,
            "old-term entry must not commit by counting"
        );
    }

    #[test]
    fn step_down_fails_pending_and_queued() {
        let (_s, _w, core) = one_node();
        let ev1 = core.propose(Bytes::from_static(b"a"));
        let ev2: TypedEvent<Bytes> = TypedEvent::new(&core.rt, EventKind::Notify, "p");
        core.pending.borrow_mut().insert(5, ev2.clone());
        core.step_down(9, Some(NodeId(1)));
        assert_eq!(ev1.handle().fired(), Some(Signal::Err));
        assert_eq!(ev2.handle().fired(), Some(Signal::Err));
        assert_eq!(core.leader_hint(), Some(NodeId(1)));
    }

    /// A hint names a leader of the node's current term. Node 0 follows
    /// node 1 in term 1, then enters term 2 in each of the three ways a
    /// node can; only an `AppendEntries` names term 2's leader.
    #[test]
    fn a_new_term_keeps_no_hint_of_the_old_terms_leader() {
        #[derive(Debug, Clone, Copy)]
        enum Enters {
            /// Node 2 asks for its vote.
            RequestVote,
            /// It campaigns itself: a candidate's first step
            /// (`DepFastRaft::run_election`).
            OwnCandidacy,
            /// Node 2 appends as term 2's leader.
            AppendEntries,
        }
        let rows = [
            (Enters::RequestVote, None),
            (Enters::OwnCandidacy, None),
            (Enters::AppendEntries, Some(NodeId(2))),
        ];
        for (how, hint) in rows {
            let (sim, _w, core) = node_zero_under(1);
            assert_eq!(core.leader_hint(), Some(NodeId(1)));
            let c = core.clone();
            sim.block_on(async move {
                match how {
                    Enters::RequestVote => {
                        let req = VoteReq {
                            term: 2,
                            candidate: 2,
                            last_index: 0,
                            last_term: 0,
                        };
                        handle_vote(&c, req).await.expect("answered");
                    }
                    Enters::OwnCandidacy => {
                        c.adopt_term(2, Some(c.id.0)).handle().wait().await;
                    }
                    Enters::AppendEntries => {
                        let req = AppendReq {
                            term: 2,
                            leader: 2,
                            prev_index: 0,
                            prev_term: 0,
                            entries: Vec::new(),
                            commit: 0,
                            lazy: false,
                        };
                        handle_append(&c, NodeId(2), req, 0)
                            .await
                            .expect("answered");
                    }
                }
            });
            assert_eq!(core.log.current_term(), 2, "{how:?}");
            assert_eq!(core.leader_hint(), hint, "{how:?}");
        }
    }

    #[test]
    fn note_reject_backs_up_next_index() {
        let (sim, _w, core) = one_node();
        for i in 1..=10 {
            core.log.append(&[Entry {
                term: 1,
                index: i,
                payload: Bytes::new(),
            }]);
        }
        sim.run();
        core.note_became_leader();
        assert_eq!(core.next_index(NodeId(1)), 11);
        core.note_reject(NodeId(1), 3);
        assert_eq!(core.next_index(NodeId(1)), 4);
    }

    #[test]
    fn pop_batch_times_out_empty() {
        let (sim, _w, core) = one_node();
        let q = core.proposals.clone();
        let rt = core.rt.clone();
        let deadline = sim.now() + Duration::from_millis(10);
        let batch = sim.block_on(async move { q.pop_batch(&rt, 8, Some(deadline)).await });
        assert!(batch.is_empty());
        assert_eq!(sim.now().as_nanos(), 10_000_000);
    }

    #[test]
    fn pop_batch_wakes_on_push() {
        let (sim, _w, core) = one_node();
        let q = core.proposals.clone();
        let rt = core.rt.clone();
        let core2 = core.clone();
        let s = sim.clone();
        let out = sim.block_on(async move {
            s.spawn(async move {
                core2.proposals.push((
                    Bytes::from_static(b"x"),
                    TypedEvent::new(&core2.rt, EventKind::Notify, "p"),
                ));
            });
            q.pop_batch(&rt, 8, None).await
        });
        assert_eq!(out.len(), 1);
    }
}
