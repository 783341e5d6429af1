//! The in-memory KV state machine replicated by the Raft drivers.
//!
//! Commands are opaque bytes at this layer; `depfast-kv` defines the wire
//! encoding and session semantics. `MemKv` supplies the map — a
//! [`Records`] store — plus a session table for exactly-once apply
//! (client id → last sequence number and its cached reply), the standard
//! RSM dedup construction.
//!
//! The state machine *is* the snapshot: [`MemKv`]'s wire encoding carries
//! the map, the session table and the apply count, so a replica restored
//! from it answers a retried command exactly as the one it was taken from
//! would. A stored key and its value are one [`Record`], which keeps no
//! message alive but its own: an applied put is a view of its log entry's
//! payload, the one buffer every log and replica shares, and a restored
//! record below the splice line is one copy of the key and value. An
//! overwrite releases the previous record. See [`crate::record`].

use std::collections::HashMap;

use bytes::Bytes;
use depfast_rpc::wire::{self, Reader, WireRead, WireWrite, Writer};

use crate::record::{Record, Records};

/// An in-memory key-value state machine with session deduplication.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct MemKv {
    map: Records,
    sessions: HashMap<u64, (u64, Bytes)>,
    applied: u64,
}

impl MemKv {
    /// Creates an empty state machine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or overwrites the record's key. The replicas' puts come
    /// this way, decoded from the request as the record they keep.
    pub fn put_record(&mut self, record: Record) {
        self.map.put(record);
    }

    /// Inserts or overwrites `key` with a copy of `key` and `value` in one
    /// buffer.
    pub fn put(&mut self, key: Bytes, value: Bytes) {
        self.put_record(Record::new(&key, &value));
    }

    /// Reads `key`: a view of its record.
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        self.map.get(key)
    }

    /// Test probe: the record of `key`, for `depfast-kv`'s pointer-range
    /// tests of which buffer it is; nothing in production asks.
    #[doc(hidden)]
    pub fn record(&self, key: &[u8]) -> Option<&Record> {
        self.map.record(key)
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Commands applied, each `(client, seq)` once: a deduplicated replay
    /// is not counted.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Applies a command exactly once per `(client, seq)`.
    ///
    /// If `(client, seq)` was already applied, returns the cached reply
    /// without re-running `f`; a higher `seq` from the same client
    /// overwrites the session slot (clients issue sequential requests).
    pub fn apply_dedup(
        &mut self,
        client: u64,
        seq: u64,
        f: impl FnOnce(&mut Self) -> Bytes,
    ) -> Bytes {
        if let Some((last_seq, reply)) = self.sessions.get(&client) {
            if *last_seq == seq {
                return reply.clone();
            }
        }
        self.applied += 1;
        let reply = f(self);
        self.sessions.insert(client, (seq, reply.clone()));
        reply
    }
}

/// The map's records and the sessions go out in key order, so two
/// replicas in the same state encode to the same bytes whatever their hash
/// seeds.
impl WireWrite for MemKv {
    fn write(&self, w: &mut Writer) {
        self.map.write(w);
        let mut sessions: Vec<_> = self.sessions.iter().collect();
        sessions.sort_unstable_by_key(|(client, _)| **client);
        (sessions.len() as u32).write(w);
        for (client, (seq, reply)) in sessions {
            client.write(w);
            seq.write(w);
            reply.write(w);
        }
        self.applied.write(w);
    }
}

impl WireRead for MemKv {
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        let mut kv = MemKv {
            map: Records::read(r)?,
            ..MemKv::default()
        };
        for _ in 0..u32::read(r)? {
            let (client, seq, reply) = (u64::read(r)?, u64::read(r)?, Bytes::read(r)?);
            kv.sessions.insert(client, (seq, wire::detach(reply)));
        }
        kv.applied = u64::read(r)?;
        Some(kv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use depfast_rpc::wire::testing;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn put_get() {
        let mut kv = MemKv::new();
        kv.put(b("k"), b("v"));
        assert_eq!(kv.get(b"k"), Some(b("v")));
    }

    #[test]
    fn overwrite_replaces_value() {
        let mut kv = MemKv::new();
        kv.put(b("k"), b("1"));
        kv.put(b("k"), b("2"));
        assert_eq!(kv.get(b"k"), Some(b("2")));
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn dedup_replays_cached_reply() {
        let mut kv = MemKv::new();
        let r1 = kv.apply_dedup(7, 1, |kv| {
            kv.put(b("k"), b("v"));
            b("ok")
        });
        // A retried command must not re-execute.
        let r2 = kv.apply_dedup(7, 1, |_| panic!("must not re-apply"));
        assert_eq!(r1, b("ok"));
        assert_eq!(r2, b("ok"));
        assert_eq!(kv.applied(), 1);
    }

    #[test]
    fn new_seq_executes_and_replaces_session() {
        let mut kv = MemKv::new();
        kv.apply_dedup(7, 1, |_| b("a"));
        let r = kv.apply_dedup(7, 2, |_| b("b"));
        assert_eq!(r, b("b"));
        assert_eq!(kv.applied(), 2);
        // seq 1's cache is gone, but clients never go backwards.
        let r = kv.apply_dedup(7, 2, |_| panic!("must not re-apply"));
        assert_eq!(r, b("b"));
    }

    #[test]
    fn a_put_copies_its_key_and_value_out_of_the_buffer_they_came_in() {
        let body = Bytes::from(vec![7u8; 64]);
        let mut kv = MemKv::new();
        kv.put(body.slice(0..8), body.slice(8..64));
        let record = kv.record(&body[0..8]).expect("stored");
        let (range, k) = (body.as_ptr_range(), record.key().as_ptr());
        assert!(!range.contains(&k), "the stored key pins no request body");
        assert_eq!(record.value(), body.slice(8..64));
    }

    /// Golden bytes: a map of a 0 B, a 3 B and a record-sized value, two
    /// sessions and the count, as the tree before the record store wrote
    /// them. The models charge a snapshot's length, and a replica restores
    /// from another's bytes, so neither may move.
    #[test]
    fn a_snapshot_is_the_bytes_it_always_was() {
        let mut kv = MemKv::new();
        kv.apply_dedup(3, 9, |kv| {
            kv.put(b("kb"), Bytes::from(vec![0xab; 256]));
            b("ok")
        });
        kv.apply_dedup(1, 2, |kv| {
            kv.put(b("ka"), b("abc"));
            kv.put(b("k"), Bytes::new());
            b("")
        });
        let golden = concat!(
            "03000000",
            "010000006b00000000",
            "020000006b6103000000616263",
            "020000006b6200010000",
            "abababababababababababababababababababababababababababababababab",
            "abababababababababababababababababababababababababababababababab",
            "abababababababababababababababababababababababababababababababab",
            "abababababababababababababababababababababababababababababababab",
            "abababababababababababababababababababababababababababababababab",
            "abababababababababababababababababababababababababababababababab",
            "abababababababababababababababababababababababababababababababab",
            "abababababababababababababababababababababababababababababababab",
            "02000000",
            "0100000000000000020000000000000000000000",
            "03000000000000000900000000000000020000006f6b",
            "0200000000000000",
        );
        let hex = |b: Bytes| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        assert_eq!(hex(kv.to_bytes()), golden);
        assert_eq!(hex(kv.to_frame().into_bytes()), golden, "spliced");
        testing::assert_segmentation_agnostic(&kv, &[9, 40, 300]);
    }

    #[test]
    fn the_encoding_round_trips_map_sessions_and_count() {
        let mut kv = MemKv::new();
        // As a replica keeps a put: key and value in one buffer.
        let big = Record::new(b"k1", &[9u8; 1000]);
        kv.apply_dedup(7, 3, |kv| {
            kv.put_record(big.clone());
            b("ok")
        });
        kv.apply_dedup(8, 1, |kv| {
            kv.put(b("k0"), b("small"));
            kv.put(b("k2"), Bytes::from(vec![5u8; 100]));
            b("fine")
        });
        let frame = kv.to_frame();
        assert_eq!(frame.len(), kv.to_bytes().len());
        let mut back = MemKv::from_frame(&frame).expect("decodes");
        assert_eq!(back, kv);
        // A large value travels by reference: the restored map holds the
        // buffer the original does.
        assert_eq!(back.get(b"k1").unwrap().as_ptr(), big.value().as_ptr());
        // A small value, and a cached reply, are the restored replica's
        // own: neither pins the snapshot it came in.
        let in_snapshot = |v: &Bytes| {
            let p = v.as_ptr();
            frame
                .segments()
                .iter()
                .any(|s| s.as_ptr_range().contains(&p))
        };
        let small = back.get(b"k2").unwrap();
        assert_eq!(small[..], [5u8; 100]);
        assert!(!in_snapshot(&small), "the 100 B value is a copy");
        assert!(!in_snapshot(&back.sessions[&8].1), "so is the reply");
        // The restored session table answers a retry; it does not re-apply.
        let r = back.apply_dedup(7, 3, |_| panic!("must not re-apply"));
        assert_eq!(r, b("ok"));
        assert_eq!(back.applied(), 2);
        // Truncated input is refused, not half-restored.
        let bytes = kv.to_bytes();
        assert!(MemKv::from_bytes(&bytes.slice(..bytes.len() - 1)).is_none());
    }

    #[test]
    fn sessions_are_per_client() {
        let mut kv = MemKv::new();
        kv.apply_dedup(1, 1, |_| b("x"));
        let r = kv.apply_dedup(2, 1, |_| b("y"));
        assert_eq!(r, b("y"));
        assert_eq!(kv.applied(), 2);
    }
}
