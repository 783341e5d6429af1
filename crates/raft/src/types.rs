//! Raft message types and their wire encodings.

use depfast_rpc::wire::{Reader, WireRead, WireWrite, Writer};
use depfast_rpc::{wire_struct, Method};
use depfast_storage::Entry;
use simkit::Frame;

/// RPC method id of `AppendEntries`.
pub const APPEND_ENTRIES: Method = 0x10;
/// RPC method id of `RequestVote`.
pub const REQUEST_VOTE: Method = 0x11;
/// RPC method id of client proposals (used by `depfast-kv`).
pub const CLIENT_PROPOSE: Method = 0x12;
/// RPC method id of the flow-control probe used by `CallbackRaft`.
pub const FLOW_PROBE: Method = 0x13;
/// RPC method id of chain-replication forwarding used by `ChainRaft`.
pub const CHAIN_FORWARD: Method = 0x14;
/// RPC method id of `PreVote` (Raft §9.6-style pre-election probe).
pub const PRE_VOTE: Method = 0x15;

/// RPC method id of `InstallSnapshot`.
pub const INSTALL_SNAPSHOT: Method = 0x16;

/// Newtype giving [`Entry`] a wire encoding in this crate.
///
/// The payload is encoded as a [`Bytes`](bytes::Bytes) field, but goes
/// on the wire by reference at any length: a follower's entry is a view
/// of the leader's payload, not of the `AppendEntries` that carried it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireEntry(pub Entry);

impl WireWrite for WireEntry {
    fn write(&self, w: &mut Writer) {
        let payload = &self.0.payload;
        self.0.term.write(w);
        self.0.index.write(w);
        (payload.len() as u32).write(w);
        w.put_spliced(payload);
    }
}

impl WireRead for WireEntry {
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        Some(WireEntry(Entry {
            term: WireRead::read(r)?,
            index: WireRead::read(r)?,
            payload: WireRead::read(r)?,
        }))
    }
}

/// `AppendEntries` request (also the heartbeat when `entries` is empty).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppendReq {
    /// Leader's term.
    pub term: u64,
    /// Leader's node id.
    pub leader: u32,
    /// Index of the entry preceding `entries`.
    pub prev_index: u64,
    /// Term of the entry preceding `entries`.
    pub prev_term: u64,
    /// Entries to replicate.
    pub entries: Vec<WireEntry>,
    /// Leader's commit index.
    pub commit: u64,
    /// Lazy-ack mode: the responder must not hold the reply for WAL
    /// durability — it replies immediately with its durable prefix. The
    /// leader uses this to poll a quarantined fail-slow follower without
    /// parking an append handler behind its crawling disk.
    pub lazy: bool,
}
wire_struct!(AppendReq {
    term,
    leader,
    prev_index,
    prev_term,
    entries,
    commit,
    lazy
});

/// `AppendEntries` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendResp {
    /// Responder's term.
    pub term: u64,
    /// Whether the entries were appended.
    pub success: bool,
    /// Highest index known replicated on the responder (on success), or a
    /// hint for where to back up to (on failure). Lazy replies report the
    /// durable prefix here, which may trail `verified`.
    pub match_index: u64,
    /// Highest index the responder has log-match-verified against the
    /// leader (appended, though possibly not yet durable). A lazy reply
    /// with `match_index == verified` means the responder's disk has
    /// drained everything delivered so far.
    pub verified: u64,
}
wire_struct!(AppendResp {
    term,
    success,
    match_index,
    verified
});

/// `InstallSnapshot` request: what a leader sends a peer whose next entry
/// it no longer holds. Answered with an [`AppendResp`] — on success the
/// peer matches through `last_index` — so the leader digests it by the one
/// reply rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotReq {
    /// Leader's term.
    pub term: u64,
    /// Leader's node id.
    pub leader: u32,
    /// The applied index the state was taken at.
    pub last_index: u64,
    /// Term of the entry at `last_index`.
    pub last_term: u64,
    /// The state machine, as its own
    /// [`StateMachine::snapshot`](crate::core::StateMachine::snapshot)
    /// encoded it: large values travel in it by reference.
    pub state: Frame,
}
wire_struct!(SnapshotReq {
    term,
    leader,
    last_index,
    last_term,
    state
});

/// `RequestVote` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VoteReq {
    /// Candidate's term.
    pub term: u64,
    /// Candidate's node id.
    pub candidate: u32,
    /// Index of the candidate's last log entry.
    pub last_index: u64,
    /// Term of the candidate's last log entry.
    pub last_term: u64,
}
wire_struct!(VoteReq {
    term,
    candidate,
    last_index,
    last_term
});

/// `RequestVote` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VoteResp {
    /// Responder's term.
    pub term: u64,
    /// Whether the vote was granted.
    pub granted: bool,
}
wire_struct!(VoteResp { term, granted });

/// Converts entries to their wire form.
pub fn to_wire(entries: &[Entry]) -> Vec<WireEntry> {
    entries.iter().cloned().map(WireEntry).collect()
}

/// Converts wire entries back to storage entries.
pub fn from_wire(entries: Vec<WireEntry>) -> Vec<Entry> {
    entries.into_iter().map(|w| w.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use depfast_rpc::wire::testing;
    use proptest::prelude::*;

    fn entry(i: u64) -> Entry {
        Entry {
            term: 3,
            index: i,
            payload: Bytes::from(vec![i as u8; 8]),
        }
    }

    proptest! {
        /// A heartbeat, a single entry and a full batch, with payloads on
        /// both sides of the splice line.
        #[test]
        fn append_req_decodes_from_any_segmentation(
            header in (any::<u64>(), any::<u32>(), any::<u64>(), any::<u64>(), any::<u64>()),
            lazy in any::<bool>(),
            count in prop_oneof![Just(0u64), Just(1), Just(25)],
            pick in 0usize..4,
            cuts in prop::collection::vec(any::<usize>(), 0..6),
        ) {
            let (term, leader, prev_index, prev_term, commit) = header;
            let entries = (0..count)
                .map(|i| WireEntry(Entry {
                    term,
                    index: prev_index.wrapping_add(i + 1),
                    payload: testing::payload(pick, i as u8),
                }))
                .collect();
            let req = AppendReq { term, leader, prev_index, prev_term, entries, commit, lazy };
            testing::assert_segmentation_agnostic(&req, &cuts);
        }
    }

    #[test]
    fn append_req_round_trip() {
        let req = AppendReq {
            term: 7,
            leader: 2,
            prev_index: 41,
            prev_term: 6,
            entries: to_wire(&[entry(42), entry(43)]),
            commit: 40,
            lazy: false,
        };
        let enc = req.to_bytes();
        assert_eq!(AppendReq::from_bytes(&enc), Some(req));
    }

    /// Every entry payload crosses the wire by reference, on both sides
    /// of the splice line, and the bytes are the ones a contiguous
    /// encoding writes: a 20 B header per entry (term, index, length)
    /// around 41 B of request fields.
    #[test]
    fn an_append_carries_each_payload_as_the_senders_buffer() {
        let lens = [0, 1, 100, 255, 256, 1000];
        let entries: Vec<Entry> = (0u8..)
            .zip(lens)
            .map(|(i, len)| Entry {
                term: 5,
                index: 100 + u64::from(i),
                payload: Bytes::from(vec![i; len]),
            })
            .collect();
        for (e, golden) in entries.iter().zip([20, 21, 120, 275, 276, 1020]) {
            let encoded = WireEntry(e.clone()).to_bytes();
            assert_eq!(encoded.len(), golden, "entry of {} B", e.payload.len());
        }
        let req = AppendReq {
            term: 5,
            leader: 1,
            prev_index: 99,
            prev_term: 4,
            entries: to_wire(&entries),
            commit: 98,
            lazy: false,
        };
        let (flat, frame) = (req.to_bytes(), req.to_frame());
        assert_eq!(flat.len(), 1773, "golden request length");
        assert_eq!(frame.clone().into_bytes(), flat, "one byte string");
        let back = AppendReq::from_frame(&frame).expect("decodes");
        assert_eq!(back, req);
        for (sent, got) in entries.iter().zip(from_wire(back.entries)) {
            if !sent.payload.is_empty() {
                let len = sent.payload.len();
                assert_eq!(
                    got.payload.as_ptr_range(),
                    sent.payload.as_ptr_range(),
                    "{len} B: a view of the sender's buffer"
                );
            }
        }
    }

    #[test]
    fn snapshot_req_round_trips_and_splices_its_state() {
        let value = Bytes::from(vec![5u8; 1000]);
        let req = SnapshotReq {
            term: 4,
            leader: 1,
            last_index: 9_000,
            last_term: 3,
            state: value.to_frame(),
        };
        let frame = req.to_frame();
        assert_eq!(frame.len(), req.to_bytes().len());
        let back = SnapshotReq::from_frame(&frame).expect("decodes");
        assert_eq!(back, req);
        // The value inside the state is the sender's buffer, not a copy.
        let inner = Bytes::from_frame(&back.state).expect("decodes");
        assert_eq!(inner.as_ptr(), value.as_ptr());
    }

    #[test]
    fn empty_heartbeat_round_trip() {
        let req = AppendReq {
            term: 1,
            leader: 0,
            prev_index: 0,
            prev_term: 0,
            entries: vec![],
            commit: 0,
            lazy: true,
        };
        assert_eq!(AppendReq::from_bytes(&req.to_bytes()), Some(req));
    }

    #[test]
    fn vote_round_trip() {
        let req = VoteReq {
            term: 9,
            candidate: 1,
            last_index: 100,
            last_term: 8,
        };
        assert_eq!(VoteReq::from_bytes(&req.to_bytes()), Some(req));
        let resp = VoteResp {
            term: 9,
            granted: true,
        };
        assert_eq!(VoteResp::from_bytes(&resp.to_bytes()), Some(resp));
    }

    #[test]
    fn append_resp_round_trip() {
        let resp = AppendResp {
            term: 2,
            success: false,
            match_index: 17,
            verified: 21,
        };
        assert_eq!(AppendResp::from_bytes(&resp.to_bytes()), Some(resp));
    }

    #[test]
    fn wire_entries_preserve_payloads() {
        let es = vec![entry(1), entry(2), entry(3)];
        let wire = to_wire(&es);
        assert_eq!(from_wire(wire), es);
    }
}
