//! The in-memory KV state machine replicated by the Raft drivers.
//!
//! Commands are opaque bytes at this layer; `depfast-kv` defines the wire
//! encoding and session semantics. `MemKv` supplies the raw map plus a
//! session table for exactly-once apply (client id → last sequence number
//! and its cached reply), the standard RSM dedup construction.
//!
//! The state machine *is* the snapshot: [`MemKv`]'s wire encoding carries
//! the map, the session table and the apply count, so a replica restored
//! from it answers a retried command exactly as the one it was taken from
//! would. A stored key or value keeps no message alive: a key is copied
//! the first time the map sees it, and a value goes through
//! [`wire::detach`] — a record-sized value is the buffer the wire spliced
//! from the client's put, a smaller one is copied out of the run it
//! arrived in. See [`MemKv::put`].

use std::collections::HashMap;

use bytes::Bytes;
use depfast_rpc::wire::{self, Reader, WireRead, WireWrite, Writer};

/// An in-memory key-value state machine with session deduplication.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct MemKv {
    map: HashMap<Bytes, Bytes>,
    sessions: HashMap<u64, (u64, Bytes)>,
    applied: u64,
}

impl MemKv {
    /// Creates an empty state machine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or overwrites `key`. A key seen for the first time is
    /// copied out of the buffer it came in: `key` is usually a view into a
    /// whole request body, the map keeps the key it already has on an
    /// overwrite, and a 23-byte view would otherwise pin the first body
    /// ever written for it long after the log has dropped it. The value is
    /// kept as [`wire::detach`] hands it back: a record-sized value as it
    /// came (it *is* most of the body), a small one as its own copy, not as
    /// a view of the `AppendEntries` run or request it arrived in, which
    /// would live until every value in it had been overwritten.
    pub fn put(&mut self, key: Bytes, value: Bytes) {
        let value = wire::detach(value);
        match self.map.get_mut(&key) {
            Some(slot) => *slot = value,
            None => {
                self.map.insert(Bytes::copy_from_slice(&key), value);
            }
        }
    }

    /// Reads `key`.
    pub fn get(&self, key: &Bytes) -> Option<&Bytes> {
        self.map.get(key)
    }

    /// Test probe: reads `key` together with the key the map holds for it
    /// (its own copy, see [`MemKv::put`]). For `depfast-kv`'s pointer-range
    /// test of that copy; nothing in production asks where a key lives.
    #[doc(hidden)]
    pub fn get_key_value(&self, key: &Bytes) -> Option<(&Bytes, &Bytes)> {
        self.map.get_key_value(key)
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total commands applied (including deduplicated replays).
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

/// Map entries and sessions go out in key order, so two replicas in the
/// same state encode to the same bytes whatever their hash seeds.
impl WireWrite for MemKv {
    fn write(&self, w: &mut Writer) {
        let mut entries: Vec<_> = self.map.iter().collect();
        entries.sort_unstable();
        (entries.len() as u32).write(w);
        for (key, value) in entries {
            key.write(w);
            value.write(w);
        }
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
        let mut kv = MemKv::new();
        for _ in 0..u32::read(r)? {
            kv.put(Bytes::read(r)?, Bytes::read(r)?);
        }
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

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn put_get() {
        let mut kv = MemKv::new();
        kv.put(b("k"), b("v"));
        assert_eq!(kv.get(&b("k")), Some(&b("v")));
    }

    #[test]
    fn overwrite_replaces_value() {
        let mut kv = MemKv::new();
        kv.put(b("k"), b("1"));
        kv.put(b("k"), b("2"));
        assert_eq!(kv.get(&b("k")), Some(&b("2")));
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
    fn a_new_key_is_copied_out_of_the_buffer_it_came_in() {
        let body = Bytes::from(vec![7u8; 64]);
        let mut kv = MemKv::new();
        kv.put(body.slice(0..8), body.slice(8..64));
        kv.put(body.slice(0..8), b("second"));
        let (key, value) = kv.map.get_key_value(&body.slice(0..8)).unwrap();
        let (range, k) = (body.as_ptr_range(), key.as_ptr());
        assert!(!range.contains(&k), "the stored key pins no request body");
        assert_eq!(value, &b("second"));
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn the_encoding_round_trips_map_sessions_and_count() {
        let mut kv = MemKv::new();
        let big = Bytes::from(vec![9u8; 1000]);
        kv.apply_dedup(7, 3, |kv| {
            kv.put(b("k1"), big.clone());
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
        assert_eq!(back.get(&b("k1")).unwrap().as_ptr(), big.as_ptr());
        // A small value, and a cached reply, are the restored replica's
        // own: neither pins the snapshot it came in.
        let in_snapshot = |v: &Bytes| {
            let p = v.as_ptr();
            frame
                .segments()
                .iter()
                .any(|s| s.as_ptr_range().contains(&p))
        };
        let small = back.get(&b("k2")).unwrap();
        assert_eq!(small[..], [5u8; 100]);
        assert!(!in_snapshot(small), "the 100 B value is a copy");
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
