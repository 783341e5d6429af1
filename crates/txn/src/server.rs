//! Per-shard transaction server: a lock-table state machine on a Raft
//! group.
//!
//! Every command (`Prepare`/`Commit`/`Abort`) is itself replicated through
//! the shard's Raft log before its vote is returned, so a shard's vote
//! already carries quorum durability — the coordinator's `AndEvent` of
//! votes nests a Raft `QuorumEvent` per branch.
//!
//! Committed data is a [`Records`] store, the one `MemKv` keeps: a
//! prepare's writes decode as the [`Record`]s the shard will store — a
//! record-sized one a view of the prepare's body, a smaller one its own
//! copy — are staged as they are, and a commit moves them into the store.
//! Nothing the shard keeps from a snapshot is a view of it below the
//! splice line: restored data, staged writes and lock keys own their small
//! fields.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use depfast::event::Watchable;
use depfast::runtime::Coroutine;
use depfast_raft::core::{RaftServer, StateMachine};
use depfast_raft::Entry;
use depfast_rpc::wire::{self, Reader, WireRead, WireWrite, Writer};
use depfast_storage::{Record, Records};
use simkit::Frame;

use crate::command::{TxnCmd, TxnVote, TXN_EXEC};

const PROPOSAL_DEADLINE: Duration = Duration::from_secs(5);

#[derive(Debug, Default, PartialEq, Eq)]
struct TxnState {
    data: Records,
    /// key → owning transaction.
    locks: HashMap<Bytes, u64>,
    /// txn → staged writes.
    staged: HashMap<u64, Vec<Record>>,
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
                    .any(|w| self.locks.get(&w.key()).is_some_and(|owner| owner != txn));
                if conflict {
                    return TxnVote::No;
                }
                for w in writes {
                    // A view of the staged write, which lives exactly as
                    // long as the lock.
                    self.locks.insert(w.key(), *txn);
                }
                self.staged.insert(*txn, writes.clone());
                TxnVote::Yes
            }
            TxnCmd::Commit { txn } => {
                if let Some(writes) = self.staged.remove(txn) {
                    for w in writes {
                        self.locks.remove(&w.key());
                        self.data.put(w);
                    }
                    self.commits += 1;
                }
                TxnVote::Yes
            }
            TxnCmd::Abort { txn } => {
                if let Some(writes) = self.staged.remove(txn) {
                    for w in &writes {
                        self.locks.remove(&w.key());
                    }
                    self.aborts += 1;
                }
                TxnVote::Yes
            }
        }
    }
}

/// Everything a shard must remember across a log compaction — committed
/// data, and the locks and staged writes of transactions between their
/// prepare and their outcome — in key / transaction order, so replicas in
/// one state encode to the same bytes.
impl WireWrite for TxnState {
    fn write(&self, w: &mut Writer) {
        self.data.write(w);
        let mut locks: Vec<_> = self.locks.iter().collect();
        locks.sort_unstable();
        (locks.len() as u32).write(w);
        for (key, txn) in locks {
            key.write(w);
            txn.write(w);
        }
        let mut staged: Vec<_> = self.staged.iter().collect();
        staged.sort_unstable_by_key(|(txn, _)| **txn);
        (staged.len() as u32).write(w);
        for (txn, writes) in staged {
            txn.write(w);
            writes.write(w);
        }
        self.commits.write(w);
        self.aborts.write(w);
    }
}

impl WireRead for TxnState {
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        let mut st = TxnState {
            data: Records::read(r)?,
            ..TxnState::default()
        };
        for _ in 0..u32::read(r)? {
            st.locks
                .insert(wire::detach(Bytes::read(r)?), u64::read(r)?);
        }
        for _ in 0..u32::read(r)? {
            st.staged.insert(u64::read(r)?, Vec::read(r)?);
        }
        st.commits = u64::read(r)?;
        st.aborts = u64::read(r)?;
        Some(st)
    }
}

/// The shard's [`TxnState`] as the Raft core drives it.
struct TxnMachine(Rc<RefCell<TxnState>>);

impl StateMachine for TxnMachine {
    fn apply(&mut self, entry: &Entry) -> Bytes {
        let Some(cmd) = TxnCmd::from_bytes(&entry.payload) else {
            return TxnVote::No.to_bytes();
        };
        self.0.borrow_mut().apply(&cmd).to_bytes()
    }

    fn snapshot(&self) -> Frame {
        self.0.borrow().to_frame()
    }

    fn restore(&mut self, snapshot: &Frame) -> bool {
        let restored = TxnState::from_frame(snapshot);
        restored.map(|st| *self.0.borrow_mut() = st).is_some()
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
        raft.core().set_state_machine(TxnMachine(state.clone()));
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

    /// Test probe: the underlying Raft server.
    #[doc(hidden)]
    pub fn raft(&self) -> &RaftServer {
        &self.raft
    }

    /// Reads a key from the local replica (diagnostics; not linearizable).
    pub fn local_get(&self, key: &[u8]) -> Option<Bytes> {
        self.state.borrow().data.get(key)
    }

    /// Test probe: number of keys currently locked on the local replica
    /// (the lock-leak oracle).
    #[doc(hidden)]
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

    fn w(k: &[u8], v: &[u8]) -> Record {
        Record::new(k, v)
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
        assert_eq!(st.data.get(b"a"), Some(Bytes::from_static(b"1")));
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
        assert_eq!(st.data, Records::default());
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

    /// A compaction may fall between a prepare and its outcome: the staged
    /// writes and the locks are state like any other.
    #[test]
    fn a_snapshot_between_prepare_and_commit_keeps_staged_writes_and_locks() {
        let mut st = TxnState::default();
        st.apply(&TxnCmd::Prepare {
            txn: 1,
            writes: vec![w(b"a", b"0")],
        });
        st.apply(&TxnCmd::Commit { txn: 1 });
        st.apply(&TxnCmd::Prepare {
            txn: 2,
            writes: vec![w(b"a", b"1"), w(b"b", b"2")],
        });
        st.apply(&TxnCmd::Prepare {
            txn: 3,
            writes: vec![w(b"c", b"3")],
        });
        st.apply(&TxnCmd::Abort { txn: 3 });
        // Golden bytes, as the tree before the record store wrote them:
        // data, locks, staged writes, then the two counts.
        let golden = concat!(
            "01000000",
            "0100000061_0100000030",
            "02000000",
            "0100000061_0200000000000000",
            "0100000062_0200000000000000",
            "01000000_0200000000000000_02000000",
            "0100000061_0100000031",
            "0100000062_0100000032",
            "0100000000000000_0100000000000000",
        )
        .replace('_', "");
        let hex = |b: Bytes| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        assert_eq!(hex(st.to_bytes()), golden);
        assert_eq!(hex(st.to_frame().into_bytes()), golden, "spliced");
        let mut back = TxnState::from_frame(&st.to_frame()).expect("decodes");
        assert_eq!(back, st);
        // The restored lock still refuses a rival, and the restored staged
        // writes are what the commit applies.
        let rival = TxnCmd::Prepare {
            txn: 4,
            writes: vec![w(b"b", b"x")],
        };
        assert_eq!(back.apply(&rival), TxnVote::No);
        assert_eq!(back.apply(&TxnCmd::Commit { txn: 2 }), TxnVote::Yes);
        assert_eq!(back.data.get(b"b"), Some(Bytes::from_static(b"2")));
        assert!(back.locks.is_empty());
        assert_eq!((back.commits, back.aborts), (2, 1));
        let bytes = st.to_bytes();
        assert!(TxnState::from_bytes(&bytes.slice(..bytes.len() - 1)).is_none());
    }

    /// A restore keeps data the way a commit does, and staged writes and
    /// locks the way a prepare does, so the restored state pins none of
    /// the snapshot's runs: an open transaction would otherwise keep every
    /// small field of the whole snapshot alive until it commits or aborts.
    #[test]
    fn a_restored_state_owns_its_keys_and_small_values() {
        let mut st = TxnState::default();
        let big = Record::new(b"big", &[9u8; 1000]);
        let writes = |txn: u8| {
            (0..8u8)
                .map(|i| Record::new(&[b'k', txn, i], &[i; 100]))
                .collect::<Vec<_>>()
        };
        let committed = writes(1).into_iter().chain([big.clone()]).collect();
        st.apply(&TxnCmd::Prepare {
            txn: 1,
            writes: committed,
        });
        st.apply(&TxnCmd::Commit { txn: 1 });
        // Transaction 2 is open when the snapshot is taken.
        st.apply(&TxnCmd::Prepare {
            txn: 2,
            writes: writes(2),
        });
        let frame = st.to_frame();
        let back = TxnState::from_frame(&frame).expect("decodes");
        assert_eq!(back, st);
        let in_snapshot = |b: &Bytes| {
            let p = b.as_ptr();
            frame
                .segments()
                .iter()
                .any(|s| s.as_ptr_range().contains(&p))
        };
        for i in 0..8u8 {
            let record = back.data.record(&[b'k', 1, i]).expect("committed");
            assert!(!in_snapshot(&record.key()), "key {i} is a copy");
            assert!(!in_snapshot(&record.value()), "value {i} is a copy");
        }
        assert_eq!(back.locks.len(), 8);
        for key in back.locks.keys() {
            assert!(!in_snapshot(key), "lock {key:?} is a copy");
        }
        for staged in &back.staged[&2] {
            assert!(
                !in_snapshot(&staged.key()),
                "staged {:?} is a copy",
                staged.key()
            );
            assert!(!in_snapshot(&staged.value()), "so is its value");
        }
        // A record-sized value is still the one buffer it was committed as.
        let restored = back.data.get(b"big").expect("committed");
        assert_eq!(restored.as_ptr(), big.value().as_ptr());
    }

    #[test]
    fn commit_of_unknown_txn_is_noop() {
        let mut st = TxnState::default();
        assert_eq!(st.apply(&TxnCmd::Commit { txn: 99 }), TxnVote::Yes);
        assert_eq!(st.commits, 0);
    }
}
