//! Transaction command and vote wire formats.

use bytes::Bytes;
use depfast_rpc::wire::{Reader, WireRead, WireWrite, Writer};
use depfast_rpc::Method;
use depfast_storage::Record;

/// RPC method id for transaction commands (served by `TxnServer`).
pub const TXN_EXEC: Method = 0x20;

/// A replicated transaction command (one Raft log entry per shard).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnCmd {
    /// Phase 1: acquire locks and stage `writes` for `txn`.
    Prepare {
        /// Globally unique transaction id.
        txn: u64,
        /// Writes touching this shard: each key with its new value, as
        /// the shard will store it.
        writes: Vec<Record>,
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

/// A [`TxnCmd::Prepare`] as the coordinator writes it: the same bytes,
/// from each write's key and value as the caller gave them, so a
/// record-sized value goes on the wire by reference and the shard's log
/// entry is its one copy.
pub(crate) struct Prepare<'a> {
    /// Globally unique transaction id.
    pub txn: u64,
    /// Writes touching this shard: key → new value.
    pub writes: &'a [(Bytes, Bytes)],
}

impl WireWrite for Prepare<'_> {
    fn write(&self, w: &mut Writer) {
        0u8.write(w);
        self.txn.write(w);
        (self.writes.len() as u32).write(w);
        for (key, value) in self.writes {
            key.write(w);
            value.write(w);
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
                .map(|(key, pick)| Record::new(&key, &testing::payload(pick, key.len() as u8)))
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
            writes: vec![Record::new(b"a", b"1"), Record::new(b"b", b"2")],
        };
        assert_eq!(TxnCmd::from_bytes(&cmd.to_bytes()), Some(cmd));
    }

    /// The coordinator's prepare is the shard's `TxnCmd::Prepare` to the
    /// byte, and carries a record-sized value as the caller's buffer.
    #[test]
    fn a_coordinator_prepare_is_a_prepare_with_its_large_values_spliced() {
        let writes: Vec<(Bytes, Bytes)> = (0..4)
            .map(|pick| (Bytes::from(vec![b'k'; pick + 1]), testing::payload(pick, 3)))
            .collect();
        let sent = Prepare {
            txn: 9,
            writes: &writes,
        };
        let cmd = TxnCmd::Prepare {
            txn: 9,
            writes: writes.iter().map(|(k, v)| Record::new(k, v)).collect(),
        };
        assert_eq!(sent.to_bytes(), cmd.to_bytes());
        let large = writes[3].1.as_ptr_range();
        let frame = sent.to_frame();
        assert!(
            frame
                .segments()
                .iter()
                .any(|seg| seg.as_ptr_range() == large),
            "the 1000 B value goes by reference"
        );
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
