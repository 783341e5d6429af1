//! The golden length table of the wire format.
//!
//! The network, memory and bandwidth models charge a message by its
//! encoded length, so these numbers are inputs to every simulated result:
//! a codec change that moves one moves `simkit.net_bytes_per_op` and with
//! it all three gate baselines. It fails here first, by name.

use bytes::Bytes;
use depfast_kv::{KvOp, KvRequest, KvResponse};
use depfast_raft::types::{to_wire, AppendReq, AppendResp, VoteReq, VoteResp};
use depfast_rpc::endpoint::Envelope;
use depfast_rpc::wire::WireWrite;
use depfast_storage::{Entry, Record};
use depfast_txn::command::{TxnCmd, TxnVote};
use simkit::Frame;

/// Encoded length on the wire (the spliced form) — checked equal to the
/// contiguous form's, so the table pins both.
fn len(msg: &impl WireWrite) -> usize {
    let wire = msg.to_frame().len();
    assert_eq!(wire, msg.to_bytes().len());
    wire
}

fn append(entries: u64, payload: usize) -> AppendReq {
    let entries: Vec<Entry> = (1..=entries)
        .map(|index| Entry {
            term: 1,
            index,
            payload: Bytes::from(vec![0u8; payload]),
        })
        .collect();
    AppendReq {
        term: 1,
        leader: 0,
        prev_index: 0,
        prev_term: 0,
        entries: to_wire(&entries),
        commit: 0,
        lazy: false,
    }
}

#[test]
fn golden_wire_lengths() {
    let bytes = |n: usize| Bytes::from(vec![0u8; n]);

    // Envelope: is_reply 1 + rpc_id 8 + method 4 + trace_id 8 +
    // parent_span 8 + payload length 4.
    let envelope = |payload: usize| Envelope {
        is_reply: false,
        rpc_id: 1,
        method: 2,
        trace_id: 3,
        parent_span: 4,
        payload: Frame::from(bytes(payload)),
    };
    assert_eq!(len(&envelope(0)), 33);
    assert_eq!(len(&envelope(1000)), 33 + 1000);

    // AppendEntries: a 41 B header, then term 8 + index 8 + length 4 in
    // front of each entry's payload.
    assert_eq!(len(&append(0, 0)), 41);
    assert_eq!(len(&append(1, 0)), 41 + 20);
    assert_eq!(len(&append(25, 1000)), 41 + 25 * (20 + 1000));
    let resp = AppendResp {
        term: 1,
        success: true,
        match_index: 2,
        verified: 3,
    };
    assert_eq!(len(&resp), 25);

    let vote = VoteReq {
        term: 1,
        candidate: 0,
        last_index: 2,
        last_term: 1,
    };
    assert_eq!(len(&vote), 28);
    let granted = VoteResp {
        term: 1,
        granted: true,
    };
    assert_eq!(len(&granted), 9);

    // KV: client 8 + seq 8 + op 1 + two length prefixes around key and
    // value; a response is a status byte and two option tags, plus a
    // length prefix in front of a value and four bytes of hint.
    let request = |key: usize, value: usize| KvRequest {
        client: 1,
        seq: 2,
        op: KvOp::Put,
        key: bytes(key),
        value: bytes(value),
    };
    assert_eq!(len(&request(0, 0)), 25);
    assert_eq!(len(&request(23, 1000)), 25 + 23 + 1000);
    assert_eq!(len(&KvResponse::ok(None)), 3);
    assert_eq!(len(&KvResponse::ok(Some(bytes(1000)))), 3 + 4 + 1000);
    assert_eq!(len(&KvResponse::not_leader(Some(2))), 3 + 4);
    assert_eq!(len(&KvResponse::error()), 3);

    // 2PC: tag 1 + txn 8 (+ a count 4 and, per write, two length prefixes).
    let prepare = |writes: usize| TxnCmd::Prepare {
        txn: 1,
        writes: (0..writes)
            .map(|_| Record::new(&bytes(10), &bytes(100)))
            .collect(),
    };
    assert_eq!(len(&prepare(0)), 13);
    assert_eq!(len(&prepare(3)), 13 + 3 * (8 + 10 + 100));
    assert_eq!(len(&TxnCmd::Commit { txn: 1 }), 9);
    assert_eq!(len(&TxnCmd::Abort { txn: 1 }), 9);
    assert_eq!(len(&TxnVote::Yes), 1);
}
