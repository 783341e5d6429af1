//! Per-shard transaction server: a lock-table state machine on a Raft
//! group.
//!
//! Every command (`Prepare`/`Commit`/`Abort`) is itself replicated through
//! the shard's Raft log before its vote is returned, so a shard's vote
//! already carries quorum durability — the coordinator's `AndEvent` of
//! votes nests a Raft `QuorumEvent` per branch.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use depfast::event::Watchable;
use depfast::runtime::Coroutine;
use depfast_raft::core::RaftServer;
use depfast_rpc::wire::{WireRead, WireWrite};

use crate::command::{TxnCmd, TxnVote, TxnWrite, TXN_EXEC};

const PROPOSAL_DEADLINE: Duration = Duration::from_secs(5);

#[derive(Default)]
struct TxnState {
    data: HashMap<Bytes, Bytes>,
    /// key → owning transaction.
    locks: HashMap<Bytes, u64>,
    /// txn → staged writes.
    staged: HashMap<u64, Vec<TxnWrite>>,
    commits: u64,
    aborts: u64,
}

impl TxnState {
    fn apply(&mut self, cmd: &TxnCmd) -> TxnVote {
        match cmd {
            TxnCmd::Prepare { txn, writes } => {
                // Replays (Raft retry) of an already-staged prepare are
                // idempotent successes.
                if self.staged.contains_key(txn) {
                    return TxnVote::Yes;
                }
                let conflict = writes
                    .iter()
                    .any(|w| self.locks.get(&w.key).is_some_and(|owner| owner != txn));
                if conflict {
                    return TxnVote::No;
                }
                for w in writes {
                    self.locks.insert(w.key.clone(), *txn);
                }
                self.staged.insert(*txn, writes.clone());
                TxnVote::Yes
            }
            TxnCmd::Commit { txn } => {
                if let Some(writes) = self.staged.remove(txn) {
                    for w in &writes {
                        self.data.insert(w.key.clone(), w.value.clone());
                        self.locks.remove(&w.key);
                    }
                    self.commits += 1;
                }
                TxnVote::Yes
            }
            TxnCmd::Abort { txn } => {
                if let Some(writes) = self.staged.remove(txn) {
                    for w in &writes {
                        self.locks.remove(&w.key);
                    }
                    self.aborts += 1;
                }
                TxnVote::Yes
            }
        }
    }
}

/// A transaction server on one node of one shard's Raft group.
#[derive(Clone)]
pub struct TxnServer {
    raft: RaftServer,
    state: Rc<RefCell<TxnState>>,
}

impl TxnServer {
    /// Installs the lock-table state machine and the `TXN_EXEC` service.
    pub fn install(raft: RaftServer) -> Self {
        let state = Rc::new(RefCell::new(TxnState::default()));
        let st = state.clone();
        raft.core().set_apply(move |entry| {
            let Some(cmd) = TxnCmd::from_bytes(&entry.payload) else {
                return TxnVote::No.to_bytes();
            };
            st.borrow_mut().apply(&cmd).to_bytes()
        });
        let r = raft.clone();
        // Namespaced per group, so co-located shards on one endpoint stay
        // apart (group 0 keeps the bare method id).
        let method = raft.core().method(TXN_EXEC);
        raft.core()
            .ep
            .register(method, "txn:serve", move |_from, payload, responder| {
                let r = r.clone();
                Coroutine::create(&r.core().rt.clone(), "txn:serve", async move {
                    if !r.is_leader() {
                        responder.reply_t(&TxnVote::NotLeader);
                        return;
                    }
                    let ev = r.propose(payload.into_bytes());
                    let out = ev.handle().wait_timeout(PROPOSAL_DEADLINE).await;
                    if out.is_ready() {
                        let reply = ev.take().unwrap_or_else(|| TxnVote::No.to_bytes());
                        responder.reply(reply);
                    } else {
                        responder.reply_t(&TxnVote::No);
                    }
                });
            });
        TxnServer { raft, state }
    }

    /// The underlying Raft server.
    pub fn raft(&self) -> &RaftServer {
        &self.raft
    }

    /// Reads a key from the local replica (diagnostics; not linearizable).
    pub fn local_get(&self, key: &Bytes) -> Option<Bytes> {
        self.state.borrow().data.get(key).cloned()
    }

    /// Number of keys currently locked on the local replica.
    pub fn locked_keys(&self) -> usize {
        self.state.borrow().locks.len()
    }

    /// Transactions committed on the local replica.
    pub fn commits(&self) -> u64 {
        self.state.borrow().commits
    }

    /// Transactions aborted on the local replica.
    pub fn aborts(&self) -> u64 {
        self.state.borrow().aborts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(k: &'static [u8], v: &'static [u8]) -> TxnWrite {
        TxnWrite {
            key: Bytes::from_static(k),
            value: Bytes::from_static(v),
        }
    }

    #[test]
    fn prepare_commit_applies_writes() {
        let mut st = TxnState::default();
        assert_eq!(
            st.apply(&TxnCmd::Prepare {
                txn: 1,
                writes: vec![w(b"a", b"1")]
            }),
            TxnVote::Yes
        );
        assert_eq!(st.apply(&TxnCmd::Commit { txn: 1 }), TxnVote::Yes);
        assert_eq!(
            st.data.get(&Bytes::from_static(b"a")),
            Some(&Bytes::from_static(b"1"))
        );
        assert!(st.locks.is_empty());
        assert_eq!(st.commits, 1);
    }

    #[test]
    fn conflicting_prepare_votes_no() {
        let mut st = TxnState::default();
        st.apply(&TxnCmd::Prepare {
            txn: 1,
            writes: vec![w(b"a", b"1")],
        });
        assert_eq!(
            st.apply(&TxnCmd::Prepare {
                txn: 2,
                writes: vec![w(b"a", b"2")]
            }),
            TxnVote::No
        );
        // Original lock still held.
        assert_eq!(st.locks.get(&Bytes::from_static(b"a")), Some(&1));
    }

    #[test]
    fn abort_releases_locks_without_writing() {
        let mut st = TxnState::default();
        st.apply(&TxnCmd::Prepare {
            txn: 1,
            writes: vec![w(b"a", b"1")],
        });
        st.apply(&TxnCmd::Abort { txn: 1 });
        assert!(st.data.is_empty());
        assert!(st.locks.is_empty());
        assert_eq!(st.aborts, 1);
        // A later transaction can now take the lock.
        assert_eq!(
            st.apply(&TxnCmd::Prepare {
                txn: 2,
                writes: vec![w(b"a", b"2")]
            }),
            TxnVote::Yes
        );
    }

    #[test]
    fn prepare_replay_is_idempotent() {
        let mut st = TxnState::default();
        let cmd = TxnCmd::Prepare {
            txn: 1,
            writes: vec![w(b"a", b"1")],
        };
        assert_eq!(st.apply(&cmd), TxnVote::Yes);
        assert_eq!(st.apply(&cmd), TxnVote::Yes);
        st.apply(&TxnCmd::Commit { txn: 1 });
        assert_eq!(st.commits, 1);
    }

    #[test]
    fn commit_of_unknown_txn_is_noop() {
        let mut st = TxnState::default();
        assert_eq!(st.apply(&TxnCmd::Commit { txn: 99 }), TxnVote::Yes);
        assert_eq!(st.commits, 0);
    }
}
