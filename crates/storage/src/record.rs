//! The record store the replicated state machines keep their data in.
//!
//! A [`Record`] is a key and its value in **one** buffer, laid out as the
//! wire lays out the two fields — `key length ‖ key ‖ value length ‖
//! value` — so it is its own encoding, and the key's end is read from the
//! prefix: a key costs the set one 16 B slot (the `Bytes` alone) and no
//! buffer of its own. [`Records`] finds a record by its key and replaces
//! it on an overwrite, releasing the old one's buffer in the same probe.
//!
//! Which buffer a record is depends on what it was decoded from.
//! - A put applied from a log entry ([`Record::read_view`]) is a view of
//!   the entry's payload at any size. The payload is one command, put on
//!   the wire by reference, so it is the buffer the client encoded its
//!   request in, shared by every log and every replica; the record pins
//!   no other command.
//! - A record read from a message that carries many of them — a snapshot,
//!   a 2PC prepare — follows [`wire::detach`]'s line ([`Record`]'s
//!   `WireRead`): from `SPLICE_MIN` bytes up it is the buffer the wire
//!   spliced, and below it one copy of exactly its own bytes, so it keeps
//!   no message's run alive. The snapshot writes each record's buffer as
//!   it is, so a restore hands back a record-sized value as the same
//!   buffer too.

use std::borrow::Borrow;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use bytes::Bytes;
use depfast_rpc::wire::{self, Reader, WireRead, WireWrite, Writer};

/// A key and its value in one buffer, which is their encoding as two
/// length-prefixed fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// `key length (u32 LE) ‖ key ‖ value length (u32 LE) ‖ value`.
    body: Bytes,
}

impl Record {
    /// `key` and `value` copied into one buffer: one allocation.
    pub fn new(key: &[u8], value: &[u8]) -> Self {
        let mut body = Vec::with_capacity(4 + key.len() + 4 + value.len());
        for field in [key, value] {
            let len = u32::try_from(field.len()).expect("a field's length fits its u32 prefix");
            body.extend_from_slice(&len.to_le_bytes());
            body.extend_from_slice(field);
        }
        Record {
            body: Bytes::from(body),
        }
    }

    /// Where the key ends, as its prefix says; the value starts four
    /// bytes later.
    fn key_end(&self) -> usize {
        let prefix = self
            .body
            .first_chunk()
            .expect("a record starts with its key's length");
        4 + u32::from_le_bytes(*prefix) as usize
    }

    fn key_bytes(&self) -> &[u8] {
        &self.body[4..self.key_end()]
    }

    /// The key, as a view of the record's buffer.
    pub fn key(&self) -> Bytes {
        self.body.slice(4..self.key_end())
    }

    /// The value, as a view of the record's buffer.
    pub fn value(&self) -> Bytes {
        self.body.slice(self.key_end() + 4..)
    }

    /// Decodes a record as a view of the buffer it lies in, whatever its
    /// size: for a message that is exactly one command, such as a log
    /// entry's payload, which the record may keep whole.
    pub fn read_view(r: &mut Reader<'_>) -> Option<Self> {
        r.pair().map(|body| Record { body })
    }
}

impl WireWrite for Record {
    fn write(&self, w: &mut Writer) {
        w.put_bytes(&self.body);
    }
}

/// Decodes one of many records in a message: a view from `SPLICE_MIN`
/// bytes up, one copy below (see the module docs).
impl WireRead for Record {
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        let record = Record::read_view(r)?;
        Some(Record {
            body: wire::detach(record.body),
        })
    }
}

/// A record as the set holds it: equal to, and hashed as, its key alone,
/// so a put of a key the set has replaces that key's record.
#[derive(Debug)]
struct Slot(Record);

const _: () = assert!(std::mem::size_of::<Slot>() <= 16, "a slot is at most 16 B");

impl PartialEq for Slot {
    fn eq(&self, other: &Self) -> bool {
        self.0.key_bytes() == other.0.key_bytes()
    }
}

impl Eq for Slot {}

impl Hash for Slot {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.key_bytes().hash(state);
    }
}

impl Borrow<[u8]> for Slot {
    fn borrow(&self) -> &[u8] {
        self.0.key_bytes()
    }
}

/// Records by key.
#[derive(Debug, Default)]
pub struct Records {
    set: HashSet<Slot>,
}

impl Records {
    /// Inserts `record`, or overwrites the record of its key and releases
    /// that one's buffer.
    pub fn put(&mut self, record: Record) {
        self.set.replace(Slot(record));
    }

    /// The value of `key`, as a view of its record.
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        self.record(key).map(Record::value)
    }

    /// Test probe: the record of `key`, for the tests that look at which
    /// buffer it is.
    #[doc(hidden)]
    pub fn record(&self, key: &[u8]) -> Option<&Record> {
        self.set.get(key).map(|slot| &slot.0)
    }

    /// Number of keys.
    pub(crate) fn len(&self) -> usize {
        self.set.len()
    }
}

/// Two stores are equal when they hold the same records, values included.
impl PartialEq for Records {
    fn eq(&self, other: &Self) -> bool {
        let same = |slot: &Slot| other.record(slot.0.key_bytes()) == Some(&slot.0);
        self.len() == other.len() && self.set.iter().all(same)
    }
}

impl Eq for Records {}

/// The count, then the records in key order, so two replicas in the same
/// state encode to the same bytes whatever their hash seeds.
impl WireWrite for Records {
    fn write(&self, w: &mut Writer) {
        let mut records: Vec<&Record> = self.set.iter().map(|slot| &slot.0).collect();
        records.sort_unstable_by(|a, b| a.key_bytes().cmp(b.key_bytes()));
        (records.len() as u32).write(w);
        for record in records {
            record.write(w);
        }
    }
}

impl WireRead for Records {
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        let mut records = Records::default();
        for _ in 0..u32::read(r)? {
            records.put(Record::read(r)?);
        }
        Some(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `key` and `value` as the wire writes two [`Bytes`] fields.
    fn encoded(key: &[u8], value: &[u8]) -> Bytes {
        let (key, value) = (Bytes::copy_from_slice(key), Bytes::copy_from_slice(value));
        let mut w = Vec::new();
        w.extend_from_slice(&key.to_bytes());
        w.extend_from_slice(&value.to_bytes());
        Bytes::from(w)
    }

    #[test]
    fn an_overwrite_keeps_one_record_and_only_the_new_value() {
        let mut store = Records::default();
        store.put(Record::new(b"k", b"old"));
        store.put(Record::new(b"k", b"new"));
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(b"k"), Some(Bytes::from_static(b"new")));
        let record = store.record(b"k").expect("stored");
        assert_eq!(record, &Record::new(b"k", b"new"), "the old record is gone");
    }

    #[test]
    fn an_overwrite_releases_the_previous_body() {
        let mut store = Records::default();
        let body = encoded(b"k", &[1u8; 300]);
        store.put(Record::from_bytes(&body).expect("decodes"));
        assert!(!body.is_unique(), "the record is a view of the body");
        store.put(Record::new(b"k", b"x"));
        assert!(body.is_unique(), "the overwrite let go of it");
    }

    /// A decoded record is a view of the body it came in from
    /// `SPLICE_MIN` bytes up, and one copy of itself below: with a 23 B
    /// key the line falls between a 224 B and a 225 B value. It fell 4 B
    /// later, between 228 B and 229 B, while a record left its key's 4 B
    /// length prefix out; the line itself did not move.
    #[test]
    fn a_decoded_record_is_a_view_from_the_splice_line_up_and_one_copy_below() {
        let key = [b'u'; 23];
        // (value length, view of the body)
        for (len, view) in [
            (0, false),
            (100, false),
            (224, false),
            (225, true),
            (1000, true),
        ] {
            let body = encoded(&key, &vec![7u8; len]);
            let record = Record::from_bytes(&body).expect("decodes");
            let (k, v) = (record.key(), record.value());
            assert_eq!((&k[..], &v[..]), (&key[..], &vec![7u8; len][..]));
            let inside = body.as_ptr_range().contains(&k.as_ptr());
            assert_eq!(inside, view, "{len} B value");
            assert_eq!(Record::from_frame(&record.to_frame()), Some(record.clone()));
            // A copy made from the two pieces is the same bytes.
            let copy = Record::new(&key, &vec![7u8; len]);
            assert_eq!(copy.to_bytes(), body);
            for r in [record, copy] {
                let after_key = r.key().as_ptr_range().end.wrapping_add(4);
                assert_eq!(r.value().as_ptr(), after_key, "{len} B: one buffer");
            }
        }
    }

    #[test]
    fn stores_are_equal_by_their_values_too() {
        let (mut a, mut b) = (Records::default(), Records::default());
        a.put(Record::new(b"k", b"1"));
        b.put(Record::new(b"k", b"2"));
        assert_ne!(a, b);
        b.put(Record::new(b"k", b"1"));
        assert_eq!(a, b);
    }
}
