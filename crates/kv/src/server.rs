//! KV server: state machine installation and the client-proposal service.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use depfast::event::Watchable;
use depfast::runtime::Coroutine;
use depfast_raft::cluster::RaftKind;
use depfast_raft::core::{RaftServer, StateMachine};
use depfast_raft::depfast_driver::DepFastRaft;
use depfast_raft::types::CLIENT_PROPOSE;
use depfast_rpc::wire::{WireRead, WireWrite};
use depfast_storage::{Entry, MemKv};
use simkit::Frame;

use crate::command::{KvOp, KvRequest, KvResponse, Logged};

/// How long the server shepherds one proposal before reporting an error.
const PROPOSAL_DEADLINE: Duration = Duration::from_secs(5);

/// A replicated KV server on one node.
#[derive(Clone)]
pub struct KvServer {
    raft: RaftServer,
    state: Rc<RefCell<MemKv>>,
    /// Serve `Get`s via the ReadIndex protocol instead of the log.
    read_index: Rc<Cell<bool>>,
}

/// The replica's [`MemKv`] as the Raft core drives it: log entries decode
/// to [`KvRequest`]s, and the snapshot is the `MemKv`'s own encoding — map
/// and dedup sessions, so a restored replica answers a retried
/// `(client, seq)` from the table instead of applying it twice.
struct KvMachine(Rc<RefCell<MemKv>>);

impl StateMachine for KvMachine {
    fn apply(&mut self, entry: &Entry) -> Bytes {
        let Some(req) = Logged::from_bytes(&entry.payload) else {
            return KvResponse::error().to_bytes();
        };
        let mut kv = self.0.borrow_mut();
        kv.apply_dedup(req.client, req.seq, |kv| {
            let resp = match req.op {
                KvOp::Get => KvResponse::ok(kv.get(&req.record.key())),
                KvOp::Put => {
                    kv.put_record(req.record);
                    KvResponse::ok(None)
                }
            };
            resp.to_bytes()
        })
    }

    fn snapshot(&self) -> Frame {
        self.0.borrow().to_frame()
    }

    fn restore(&mut self, snapshot: &Frame) -> bool {
        let restored = MemKv::from_frame(snapshot);
        restored.map(|kv| *self.0.borrow_mut() = kv).is_some()
    }
}

/// Per-request serve CPU of an untuned deployment ([`KvCluster::build`]).
///
/// [`KvCluster::build`]: crate::harness::KvCluster::build
pub const DEFAULT_SERVE_CPU: Duration = Duration::from_micros(30);

impl KvServer {
    /// Installs the KV state machine and client service on `raft`.
    /// `serve_cpu` is the per-request CPU cost (request parsing and
    /// validation; it runs concurrently across cores).
    pub fn install_tuned(raft: RaftServer, serve_cpu: Duration) -> Self {
        let read_index = Rc::new(Cell::new(false));
        let state = Rc::new(RefCell::new(MemKv::new()));
        raft.core().set_state_machine(KvMachine(state.clone()));

        let server = KvServer {
            raft: raft.clone(),
            state: state.clone(),
            read_index: read_index.clone(),
        };
        let r = raft.clone();
        raft.core().ep.register(
            raft.core().method(CLIENT_PROPOSE),
            "kv:serve",
            move |_from, payload, responder| {
                // The request body as the client encoded it: an encoded
                // payload crosses the wire by reference, so this is the
                // client's own buffer, and it is what every log and every
                // replica's state machine will hold.
                let payload = payload.into_bytes();
                let r = r.clone();
                let ri = read_index.clone();
                let st = state.clone();
                // Taken on arrival, before the serve CPU and before the op
                // is known: a get may only ride a confirmation round
                // launched after this instant. Reads counters only, so it
                // is free for everything that is not a get.
                let ticket = DepFastRaft::read_ticket(r.core());
                Coroutine::create(&r.core().rt.clone(), "kv:serve", async move {
                    if r.core().world.cpu(r.core().id, serve_cpu).await.is_err() {
                        return;
                    }
                    if !r.is_leader() {
                        let hint = r.leader_hint().map(|n| n.0);
                        responder.reply_t(&KvResponse::not_leader(hint));
                        return;
                    }
                    // ReadIndex fast path: serve linearizable reads from
                    // local state after a majority leadership confirmation
                    // — no log append, no disk write, still no singular
                    // wait on any one follower.
                    if ri.get() && r.kind() == RaftKind::DepFast {
                        let core = r.core();
                        let get = KvRequest::from_bytes(&payload).filter(|q| q.op == KvOp::Get);
                        // No read index yet (a new leader, Raft §6.4): the
                        // get goes through the log below.
                        if let Some((req, observed_commit)) = get.zip(core.read_index()) {
                            if !DepFastRaft::confirm_leadership(core, ticket).await {
                                let hint = r.leader_hint().map(|n| n.0);
                                responder.reply_t(&KvResponse::not_leader(hint));
                                return;
                            }
                            let gate = core.wait_applied(observed_commit);
                            if !gate.wait_timeout(PROPOSAL_DEADLINE).await.is_ready() {
                                responder.reply_t(&KvResponse::error());
                                return;
                            }
                            let value = st.borrow().get(&req.key);
                            responder.reply_t(&KvResponse::ok(value));
                            return;
                        }
                    }
                    let ev = r.propose(payload);
                    let out = ev.handle().wait_timeout(PROPOSAL_DEADLINE).await;
                    if out.is_ready() {
                        // The apply function produced an encoded response.
                        let reply = ev.take().unwrap_or_else(|| KvResponse::error().to_bytes());
                        responder.reply(reply);
                    } else {
                        responder.reply_t(&KvResponse::error());
                    }
                });
            },
        );
        server
    }

    /// The underlying Raft server.
    pub fn raft(&self) -> &RaftServer {
        &self.raft
    }

    /// Enables or disables ReadIndex serving of `Get`s (DepFastRaft only;
    /// other drivers always read through the log).
    pub fn set_read_index(&self, on: bool) {
        self.read_index.set(on);
    }

    /// Number of live keys in the local replica.
    pub fn keys(&self) -> usize {
        self.state.borrow().len()
    }

    /// Commands applied by the local replica (excluding dedup replays).
    pub fn applied(&self) -> u64 {
        self.state.borrow().applied()
    }

    /// Reads a key directly from the local replica (test/diagnostic use;
    /// not linearizable).
    pub fn local_get(&self, key: &[u8]) -> Option<Bytes> {
        self.state.borrow().get(key)
    }

    /// The record the local replica stores for `key` (which buffer it is
    /// is what the harness tests look at).
    #[cfg(test)]
    pub(crate) fn stored(&self, key: &[u8]) -> Option<depfast_storage::Record> {
        self.state.borrow().record(key).cloned()
    }
}
