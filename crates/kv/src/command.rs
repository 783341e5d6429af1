//! KV command and response wire formats.

use bytes::Bytes;
use depfast_rpc::wire::{Reader, WireRead, WireWrite, Writer};
use depfast_storage::Record;

/// A key-value operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    /// Insert or overwrite.
    Put,
    /// Linearizable read (through the log).
    Get,
}

impl KvOp {
    fn to_u8(self) -> u8 {
        match self {
            KvOp::Put => 0,
            KvOp::Get => 1,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(KvOp::Put),
            1 => Some(KvOp::Get),
            _ => None,
        }
    }
}

/// A client command, carried as the payload of a log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvRequest {
    /// Client session id (for exactly-once application).
    pub client: u64,
    /// Client sequence number (monotone per session).
    pub seq: u64,
    /// Operation.
    pub op: KvOp,
    /// Key.
    pub key: Bytes,
    /// Value (empty for `Get`).
    pub value: Bytes,
}

impl WireWrite for KvRequest {
    fn write(&self, w: &mut Writer) {
        self.client.write(w);
        self.seq.write(w);
        self.op.to_u8().write(w);
        self.key.write(w);
        self.value.write(w);
    }
}

/// The fields in front of a request's key: client, seq and op.
fn read_header(r: &mut Reader<'_>) -> Option<(u64, u64, KvOp)> {
    Some((u64::read(r)?, u64::read(r)?, KvOp::from_u8(u8::read(r)?)?))
}

impl WireRead for KvRequest {
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        let (client, seq, op) = read_header(r)?;
        Some(KvRequest {
            client,
            seq,
            op,
            key: Bytes::read(r)?,
            value: Bytes::read(r)?,
        })
    }
}

/// A logged [`KvRequest`] as the state machine applies it: the same
/// bytes, with the key and value decoded as the one [`Record`] a put
/// stores, a view of the entry's payload — its tail after the fixed
/// header — at any size. The payload is this one command, so the record
/// pins no other.
pub(crate) struct Logged {
    pub(crate) client: u64,
    pub(crate) seq: u64,
    pub(crate) op: KvOp,
    pub(crate) record: Record,
}

impl WireRead for Logged {
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        let (client, seq, op) = read_header(r)?;
        let record = Record::read_view(r)?;
        Some(Logged {
            client,
            seq,
            op,
            record,
        })
    }
}

/// Server verdict on a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvStatus {
    /// Applied (or deduplicated) successfully.
    Ok,
    /// This server is not the leader; follow `leader_hint`.
    NotLeader,
    /// The command could not be committed (e.g. leadership lost mid-way).
    Error,
}

impl KvStatus {
    fn to_u8(self) -> u8 {
        match self {
            KvStatus::Ok => 0,
            KvStatus::NotLeader => 1,
            KvStatus::Error => 2,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(KvStatus::Ok),
            1 => Some(KvStatus::NotLeader),
            2 => Some(KvStatus::Error),
            _ => None,
        }
    }
}

/// The reply to a [`KvRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvResponse {
    /// Verdict.
    pub status: KvStatus,
    /// Value (for `Get` hits).
    pub value: Option<Bytes>,
    /// Current leader, when known and relevant.
    pub leader_hint: Option<u32>,
}

impl KvResponse {
    /// Successful reply with an optional value.
    pub fn ok(value: Option<Bytes>) -> Self {
        KvResponse {
            status: KvStatus::Ok,
            value,
            leader_hint: None,
        }
    }

    /// Redirect to `hint`.
    pub fn not_leader(hint: Option<u32>) -> Self {
        KvResponse {
            status: KvStatus::NotLeader,
            value: None,
            leader_hint: hint,
        }
    }

    /// Commit failure.
    pub fn error() -> Self {
        KvResponse {
            status: KvStatus::Error,
            value: None,
            leader_hint: None,
        }
    }
}

impl WireWrite for KvResponse {
    fn write(&self, w: &mut Writer) {
        self.status.to_u8().write(w);
        self.value.write(w);
        self.leader_hint.write(w);
    }
}

impl WireRead for KvResponse {
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        Some(KvResponse {
            status: KvStatus::from_u8(u8::read(r)?)?,
            value: Option::<Bytes>::read(r)?,
            leader_hint: Option::<u32>::read(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use depfast_rpc::wire::testing;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn request_and_response_decode_from_any_segmentation(
            ids in (any::<u64>(), any::<u64>()),
            op in prop_oneof![Just(KvOp::Put), Just(KvOp::Get)],
            key in prop::collection::vec(any::<u8>(), 0..32),
            pick in 0usize..4,
            hint in prop_oneof![Just(None), any::<u32>().prop_map(Some)],
            cuts in prop::collection::vec(any::<usize>(), 0..6),
        ) {
            let (client, seq) = ids;
            let value = testing::payload(pick, seq as u8);
            let req = KvRequest { client, seq, op, key: Bytes::from(key), value: value.clone() };
            testing::assert_segmentation_agnostic(&req, &cuts);
            // The state machine reads the same bytes, however they are cut.
            for frame in [req.to_frame(), testing::recut(&req.to_bytes(), &cuts)] {
                let logged = Logged::from_frame(&frame).expect("decodes");
                prop_assert_eq!((logged.client, logged.seq, logged.op), (client, seq, op));
                prop_assert_eq!(logged.record.key(), req.key.clone());
                prop_assert_eq!(logged.record.value(), req.value.clone());
            }
            for (status, value) in [
                (KvStatus::Ok, Some(value)),
                (KvStatus::NotLeader, None),
                (KvStatus::Error, None),
            ] {
                let resp = KvResponse { status, value, leader_hint: hint };
                testing::assert_segmentation_agnostic(&resp, &cuts);
            }
        }
    }

    #[test]
    fn request_round_trip() {
        let r = KvRequest {
            client: 9,
            seq: 44,
            op: KvOp::Put,
            key: Bytes::from_static(b"user001"),
            value: Bytes::from(vec![7u8; 100]),
        };
        assert_eq!(KvRequest::from_bytes(&r.to_bytes()), Some(r));
    }

    #[test]
    fn all_ops_round_trip() {
        for op in [KvOp::Put, KvOp::Get] {
            let r = KvRequest {
                client: 1,
                seq: 2,
                op,
                key: Bytes::from_static(b"k"),
                value: Bytes::new(),
            };
            assert_eq!(KvRequest::from_bytes(&r.to_bytes()), Some(r));
        }
    }

    #[test]
    fn response_variants_round_trip() {
        for resp in [
            KvResponse::ok(Some(Bytes::from_static(b"v"))),
            KvResponse::ok(None),
            KvResponse::not_leader(Some(2)),
            KvResponse::not_leader(None),
            KvResponse::error(),
        ] {
            assert_eq!(KvResponse::from_bytes(&resp.to_bytes()), Some(resp));
        }
    }

    #[test]
    fn malformed_op_rejected() {
        let r = KvRequest {
            client: 1,
            seq: 1,
            op: KvOp::Put,
            key: Bytes::from_static(b"k"),
            value: Bytes::new(),
        };
        // Put is 0 and Get is 1; no other byte is an op.
        for op in [2, 9, 255] {
            let mut enc = BytesMut::from(&r.to_bytes()[..]);
            enc[16] = op; // Corrupt the op byte.
            assert_eq!(KvRequest::from_bytes(&enc.freeze()), None, "op byte {op}");
        }
    }
}
