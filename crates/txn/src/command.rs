//! Transaction command and vote wire formats.

use bytes::Bytes;
use depfast_rpc::wire::{Reader, WireRead, WireWrite, Writer};
use depfast_rpc::Method;

/// RPC method id for transaction commands (served by `TxnServer`).
pub const TXN_EXEC: Method = 0x20;

/// A write in a transaction: key → value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnWrite {
    /// Key.
    pub key: Bytes,
    /// New value.
    pub value: Bytes,
}

impl WireWrite for TxnWrite {
    fn write(&self, w: &mut Writer) {
        self.key.write(w);
        self.value.write(w);
    }
}

impl WireRead for TxnWrite {
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        Some(TxnWrite {
            key: Bytes::read(r)?,
            value: Bytes::read(r)?,
        })
    }
}

/// A replicated transaction command (one Raft log entry per shard).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnCmd {
    /// Phase 1: acquire locks and stage `writes` for `txn`.
    Prepare {
        /// Globally unique transaction id.
        txn: u64,
        /// Writes touching this shard.
        writes: Vec<TxnWrite>,
    },
    /// Phase 2 (success): apply staged writes and release locks.
    Commit {
        /// Transaction id.
        txn: u64,
    },
    /// Phase 2 (failure): discard staged writes and release locks.
    Abort {
        /// Transaction id.
        txn: u64,
    },
}

impl WireWrite for TxnCmd {
    fn write(&self, w: &mut Writer) {
        match self {
            TxnCmd::Prepare { txn, writes } => {
                0u8.write(w);
                txn.write(w);
                writes.write(w);
            }
            TxnCmd::Commit { txn } => {
                1u8.write(w);
                txn.write(w);
            }
            TxnCmd::Abort { txn } => {
                2u8.write(w);
                txn.write(w);
            }
        }
    }
}

impl WireRead for TxnCmd {
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        match u8::read(r)? {
            0 => Some(TxnCmd::Prepare {
                txn: u64::read(r)?,
                writes: Vec::read(r)?,
            }),
            1 => Some(TxnCmd::Commit { txn: u64::read(r)? }),
            2 => Some(TxnCmd::Abort { txn: u64::read(r)? }),
            _ => None,
        }
    }
}

/// A shard's reply to a transaction command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnVote {
    /// Prepared / applied.
    Yes,
    /// Lock conflict: the transaction must abort.
    No,
    /// This server is not the shard leader.
    NotLeader,
}

impl WireWrite for TxnVote {
    fn write(&self, w: &mut Writer) {
        let v: u8 = match self {
            TxnVote::Yes => 0,
            TxnVote::No => 1,
            TxnVote::NotLeader => 2,
        };
        v.write(w);
    }
}

impl WireRead for TxnVote {
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        match u8::read(r)? {
            0 => Some(TxnVote::Yes),
            1 => Some(TxnVote::No),
            2 => Some(TxnVote::NotLeader),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use depfast_rpc::wire::testing;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn commands_decode_from_any_segmentation(
            txn in any::<u64>(),
            writes in prop::collection::vec((prop::collection::vec(any::<u8>(), 0..16), 0usize..4), 0..4),
            cuts in prop::collection::vec(any::<usize>(), 0..6),
        ) {
            let writes = writes
                .into_iter()
                .map(|(key, pick)| TxnWrite {
                    value: testing::payload(pick, key.len() as u8),
                    key: Bytes::from(key),
                })
                .collect();
            for cmd in [TxnCmd::Prepare { txn, writes }, TxnCmd::Commit { txn }, TxnCmd::Abort { txn }] {
                testing::assert_segmentation_agnostic(&cmd, &cuts);
            }
        }
    }

    #[test]
    fn prepare_round_trips() {
        let cmd = TxnCmd::Prepare {
            txn: 42,
            writes: vec![
                TxnWrite {
                    key: Bytes::from_static(b"a"),
                    value: Bytes::from_static(b"1"),
                },
                TxnWrite {
                    key: Bytes::from_static(b"b"),
                    value: Bytes::from_static(b"2"),
                },
            ],
        };
        assert_eq!(TxnCmd::from_bytes(&cmd.to_bytes()), Some(cmd));
    }

    #[test]
    fn commit_abort_round_trip() {
        for cmd in [TxnCmd::Commit { txn: 7 }, TxnCmd::Abort { txn: 7 }] {
            assert_eq!(TxnCmd::from_bytes(&cmd.to_bytes()), Some(cmd));
        }
    }

    #[test]
    fn votes_round_trip() {
        for v in [TxnVote::Yes, TxnVote::No, TxnVote::NotLeader] {
            assert_eq!(TxnVote::from_bytes(&v.to_bytes()), Some(v));
        }
    }

    #[test]
    fn malformed_tag_rejected() {
        assert_eq!(TxnCmd::from_bytes(&Bytes::from_static(&[9])), None);
    }
}
