//! Hand-rolled binary wire format.
//!
//! Message payloads are serialized before they hit the simulated network so
//! the bandwidth and memory models see true byte counts. The format is a
//! plain little-endian TLV-free layout: each type writes its fields in a
//! fixed order. Decoding is fallible (`Option`) — a malformed buffer never
//! panics.
//!
//! # A payload is copied once
//!
//! The models need a message's *length*; only the host pays for where its
//! bytes live. A value therefore has one byte string and two ways to hold
//! it. [`WireWrite::to_bytes`] is the contiguous buffer — what a log entry
//! stores and what tests compare. [`WireWrite::to_frame`] is what goes on
//! the wire: a [`Frame`] whose small fields are copied into one run and
//! whose large [`Bytes`] fields (`SPLICE_MIN` bytes and up) are put in *by
//! reference*, so an entry payload is not copied into every
//! `AppendEntries` that carries it. Both come from the same
//! [`WireWrite::write`] into a [`Writer`]; the byte strings are equal to
//! the byte.
//!
//! Decoding is a [`Reader`] over segments that accepts **any** segmentation
//! of the byte string: a field that lies inside one segment decodes as a
//! view of it (so the spliced buffer comes back out as the field, not as a
//! copy), a field that straddles a cut is gathered by copy, and truncation
//! or trailing bytes are `None` wherever the cuts fall.
//!
//! # What a holder keeps
//!
//! A view pins the whole buffer it is a view of. A decoded field below
//! `SPLICE_MIN` is a view of the run its message's small fields were
//! copied into, so a state machine that keeps one past its message passes
//! it through [`detach`] first: it keeps a copy of exactly the field's
//! bytes below the line, and the spliced buffer itself above it. A key and
//! its value are kept as one such field: [`Reader::pair`] reads the two
//! as one buffer, and [`Writer::put_bytes`] writes that buffer back.
//!
//! A field that is a whole message of its own — a log entry's payload,
//! one command, an already-encoded [`Frame`] payload such as a client's
//! request — goes on the wire by [`Writer::put_spliced`] whatever its
//! length, so it never lies in a run: the receiver's copy is a view of the
//! sender's buffer, and a holder keeps it, or a view inside it, with no
//! `detach`.

use std::cell::Cell;

use bytes::{BufMut, Bytes, BytesMut};
use simkit::Frame;

/// Smallest [`Bytes`] field a [`Writer`] puts on the wire by reference,
/// and so the smallest field [`detach`] hands back as it is.
///
/// A splice costs a reference count and two list slots on each side of the
/// wire and leaves the receiver holding the sender's whole buffer; a copy
/// costs its bytes once per message. Keys, votes, session replies and the
/// records of a snapshot or a 2PC prepare stay below the line and travel
/// copied into their message's run; the 1 KB record bodies cross it. A log
/// entry's payload and an already-encoded [`Frame`] payload do not ask:
/// they are spliced at any length ([`Writer::put_spliced`]), so a 100 B
/// put crosses the wire by reference too, to the leader and from it.
const SPLICE_MIN: usize = 256;

/// The bytes of a decoded `field` that a holder keeps past its message.
///
/// From `SPLICE_MIN` bytes up the field comes back as it is: the wire
/// spliced it, so it already is its own buffer or the sender's. A smaller
/// field is a view of its message's run, and comes back as a copy of
/// exactly its bytes, so it keeps nothing else of the message alive.
pub fn detach(field: Bytes) -> Bytes {
    if field.len() >= SPLICE_MIN {
        field
    } else {
        Bytes::copy_from_slice(&field)
    }
}

thread_local! {
    /// The previous [`Writer`]'s run, kept for its capacity.
    static SCRATCH: Cell<BytesMut> = Cell::default();
}

/// The sink a value encodes into: small fields are copied into one
/// contiguous run, large [`Bytes`] fields are spliced in by reference.
///
/// The run is built in per-thread scratch that keeps its capacity between
/// messages and is copied out once, so a message costs one allocation of
/// exactly its copied bytes however many fields it has.
pub struct Writer {
    /// Every copied byte, in wire order.
    run: BytesMut,
    /// Each spliced buffer with the `run` offset it goes in at.
    splices: Vec<(usize, Bytes)>,
    spliced_len: usize,
    /// `false` for a sink that must come out contiguous: copy everything.
    splicing: bool,
}

impl Writer {
    fn new(splicing: bool) -> Self {
        // Taken, not borrowed: a `write` that itself calls `to_bytes`
        // finds empty scratch rather than a borrow conflict.
        Writer {
            run: SCRATCH.take(),
            splices: Vec::new(),
            spliced_len: 0,
            splicing,
        }
    }

    /// Bytes written so far.
    fn len(&self) -> usize {
        self.run.len() + self.spliced_len
    }

    /// Appends `bytes` raw (no length prefix): by reference from
    /// `SPLICE_MIN` bytes up, by copy below.
    pub fn put_bytes(&mut self, bytes: &Bytes) {
        if bytes.len() >= SPLICE_MIN {
            self.put_spliced(bytes);
        } else {
            self.run.put_slice(bytes);
        }
    }

    /// Appends `bytes` raw (no length prefix) by reference whatever its
    /// length, for a field that is a buffer of its own — a log entry's
    /// payload — so the receiver holds the sender's buffer and no view of
    /// a run. A contiguous sink copies it; an empty one has nothing to
    /// share.
    pub fn put_spliced(&mut self, bytes: &Bytes) {
        if self.splicing && !bytes.is_empty() {
            self.splices.push((self.run.len(), bytes.clone()));
            self.spliced_len += bytes.len();
        } else {
            self.run.put_slice(bytes);
        }
    }

    /// Runs `body` and writes, in front of what it wrote, that many bytes
    /// as a `u32` — the encoding of an opaque payload, produced in the
    /// same pass as whatever surrounds it instead of from a finished copy.
    pub(crate) fn length_prefixed(&mut self, body: impl FnOnce(&mut Self)) {
        let at = self.run.len();
        self.run.put_u32_le(0);
        let before = self.len();
        body(self);
        let len = (self.len() - before) as u32;
        self.run[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }

    fn finish(mut self) -> Frame {
        let run = Bytes::from(&self.run[..]);
        self.run.clear();
        let frame = if self.splices.is_empty() {
            Frame::from(run)
        } else {
            let mut segments = Vec::with_capacity(2 * self.splices.len() + 1);
            let mut cut = 0;
            for (at, spliced) in self.splices {
                if at > cut {
                    segments.push(run.slice(cut..at));
                    cut = at;
                }
                segments.push(spliced);
            }
            if cut < run.len() {
                segments.push(run.slice(cut..));
            }
            Frame::from_segments(segments)
        };
        SCRATCH.set(self.run);
        frame
    }
}

impl BufMut for Writer {
    fn put_slice(&mut self, slice: &[u8]) {
        self.run.put_slice(slice);
    }
}

/// Types that can serialize themselves into a [`Writer`].
pub trait WireWrite {
    /// Appends this value's encoding to `w`.
    fn write(&self, w: &mut Writer);

    /// Convenience: encodes into one contiguous [`Bytes`].
    fn to_bytes(&self) -> Bytes {
        let mut w = Writer::new(false);
        self.write(&mut w);
        w.finish().into_bytes()
    }

    /// Encodes for the wire: the same byte string as
    /// [`to_bytes`](WireWrite::to_bytes), with large fields held by
    /// reference.
    fn to_frame(&self) -> Frame {
        let mut w = Writer::new(true);
        self.write(&mut w);
        w.finish()
    }
}

/// A cursor over the segments of an encoded value.
///
/// The fast paths — an integer or a field that lies inside the segment
/// being read — touch only `cur`; everything about cuts is on the slow
/// ones.
pub struct Reader<'a> {
    /// Segments not yet consumed; the first is the one being read.
    segs: &'a [Bytes],
    /// The unread tail of `segs[0]` (empty when there are no segments).
    cur: &'a [u8],
}

/// The bytes of the first segment (none if there is none).
fn head(segs: &[Bytes]) -> &[u8] {
    segs.first().map_or(&[], |s| &s[..])
}

impl<'a> Reader<'a> {
    fn new(segs: &'a [Bytes]) -> Self {
        Reader {
            segs,
            cur: head(segs),
        }
    }

    /// Bytes left to consume.
    fn remaining(&self) -> usize {
        let later = self.segs.get(1..).unwrap_or_default();
        self.cur.len() + later.iter().map(Bytes::len).sum::<usize>()
    }

    /// Moves on to the next segment; `false` at the end of input.
    fn next_segment(&mut self) -> bool {
        self.segs = self.segs.get(1..).unwrap_or_default();
        self.cur = head(self.segs);
        !self.segs.is_empty()
    }

    /// Consumes `n` bytes of the current segment (which has them) as a view.
    fn view(&mut self, n: usize) -> Bytes {
        let Some(seg) = self.segs.first() else {
            return Bytes::new();
        };
        let at = seg.len() - self.cur.len();
        self.cur = &self.cur[n..];
        seg.slice(at..at + n)
    }

    /// Consumes the next `N` bytes, wherever the cuts fall among them.
    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        if let Some((whole, tail)) = self.cur.split_first_chunk::<N>() {
            self.cur = tail;
            return Some(*whole);
        }
        let mut out = [0u8; N];
        let mut filled = 0;
        while filled < N {
            if self.cur.is_empty() && !self.next_segment() {
                return None;
            }
            let n = self.cur.len().min(N - filled);
            out[filled..filled + n].copy_from_slice(&self.cur[..n]);
            self.cur = &self.cur[n..];
            filled += n;
        }
        Some(out)
    }

    /// Consumes the next `len` bytes as views of the segments they lie
    /// in: nothing is copied.
    fn frame(&mut self, len: usize) -> Option<Frame> {
        // A spliced field starts exactly at a cut, and must come back out
        // as a view of its own segment: move on from a used-up one first.
        while self.cur.is_empty() && self.next_segment() {}
        if len <= self.cur.len() {
            return Some(Frame::from(self.view(len)));
        }
        if len > self.remaining() {
            return None;
        }
        let mut segments = Vec::with_capacity(self.segs.len());
        let mut left = len;
        while left > 0 {
            let n = self.cur.len().min(left);
            if n > 0 {
                segments.push(self.view(n));
                left -= n;
            } else {
                self.next_segment();
            }
        }
        Some(Frame::from_segments(segments))
    }

    /// Consumes the next `len` bytes as one buffer: a view when they lie
    /// inside one segment, a gathered copy when they straddle a cut.
    fn bytes(&mut self, len: usize) -> Option<Bytes> {
        if len <= self.cur.len() {
            return Some(self.view(len));
        }
        self.frame(len).map(Frame::into_bytes)
    }

    /// Consumes a key and its value, written as two [`Bytes`] fields, as
    /// one buffer: the pair in wire order — `key length ‖ key ‖ value
    /// length ‖ value` — a view when it lies inside one segment, a
    /// gathered copy when it straddles a cut.
    pub fn pair(&mut self) -> Option<Bytes> {
        // A pair spliced as one buffer starts exactly at a cut.
        while self.cur.is_empty() && self.next_segment() {}
        let cur = self.cur;
        let len_at = |at: usize| {
            let prefix = cur.get(at..)?.first_chunk()?;
            Some(at + 4 + u32::from_le_bytes(*prefix) as usize)
        };
        if let Some(len) = len_at(0).and_then(len_at) {
            if len <= cur.len() {
                return Some(self.view(len));
            }
        }
        let (key, value) = (Frame::read(self)?, Frame::read(self)?);
        let mut w = Writer::new(false);
        key.write(&mut w);
        value.write(&mut w);
        Some(w.finish().into_bytes())
    }
}

/// Types that can deserialize themselves from a [`Reader`].
pub trait WireRead: Sized {
    /// Consumes this value's encoding from `r`, or returns `None` if the
    /// input is malformed or truncated.
    fn read(r: &mut Reader<'_>) -> Option<Self>;

    /// Convenience: decodes from a complete contiguous buffer.
    fn from_bytes(bytes: &Bytes) -> Option<Self> {
        decode(std::slice::from_ref(bytes))
    }

    /// Decodes from a complete frame, however it is segmented.
    fn from_frame(frame: &Frame) -> Option<Self> {
        decode(frame.segments())
    }
}

fn decode<T: WireRead>(segs: &[Bytes]) -> Option<T> {
    let mut r = Reader::new(segs);
    let v = T::read(&mut r)?;
    // Trailing garbage is malformed.
    (r.remaining() == 0).then_some(v)
}

macro_rules! wire_uint {
    ($ty:ty, $put:ident) => {
        impl WireWrite for $ty {
            fn write(&self, w: &mut Writer) {
                w.$put(*self);
            }
        }
        impl WireRead for $ty {
            fn read(r: &mut Reader<'_>) -> Option<Self> {
                r.array().map(<$ty>::from_le_bytes)
            }
        }
    };
}

wire_uint!(u8, put_u8);
wire_uint!(u16, put_u16_le);
wire_uint!(u32, put_u32_le);
wire_uint!(u64, put_u64_le);

/// The empty message: a request that is only its method id.
impl WireWrite for () {
    fn write(&self, _w: &mut Writer) {}
}

impl WireRead for () {
    fn read(_r: &mut Reader<'_>) -> Option<Self> {
        Some(())
    }
}

impl WireWrite for bool {
    fn write(&self, w: &mut Writer) {
        w.put_u8(*self as u8);
    }
}

impl WireRead for bool {
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        match u8::read(r)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl WireWrite for Bytes {
    fn write(&self, w: &mut Writer) {
        w.put_u32_le(self.len() as u32);
        w.put_bytes(self);
    }
}

impl WireRead for Bytes {
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        let len = u32::read(r)? as usize;
        r.bytes(len)
    }
}

/// An opaque payload that is already segments: the same encoding as a
/// [`Bytes`] of its byte string, each segment spliced whatever its length.
/// An encoded payload is a message of its own — a client's request, a
/// reply — so the receiver's payload is a view of the sender's buffer.
impl WireWrite for Frame {
    fn write(&self, w: &mut Writer) {
        w.put_u32_le(self.len() as u32);
        for segment in self.segments() {
            w.put_spliced(segment);
        }
    }
}

impl WireRead for Frame {
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        let len = u32::read(r)? as usize;
        r.frame(len)
    }
}

impl WireWrite for String {
    fn write(&self, w: &mut Writer) {
        w.put_u32_le(self.len() as u32);
        w.put_slice(self.as_bytes());
    }
}

impl WireRead for String {
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        let raw = Bytes::read(r)?;
        String::from_utf8(raw.to_vec()).ok()
    }
}

impl<T: WireWrite> WireWrite for Vec<T> {
    fn write(&self, w: &mut Writer) {
        w.put_u32_le(self.len() as u32);
        for item in self {
            item.write(w);
        }
    }
}

impl<T: WireRead> WireRead for Vec<T> {
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        let len = u32::read(r)? as usize;
        // Guard against absurd length prefixes in malformed buffers: each
        // element consumes at least one byte.
        if len > r.remaining() {
            return None;
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::read(r)?);
        }
        Some(out)
    }
}

impl<T: WireWrite> WireWrite for Option<T> {
    fn write(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.write(w);
            }
        }
    }
}

impl<T: WireRead> WireRead for Option<T> {
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        match u8::read(r)? {
            0 => Some(None),
            1 => Some(Some(T::read(r)?)),
            _ => None,
        }
    }
}

/// Implements [`WireWrite`]/[`WireRead`] for a struct field-by-field.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use depfast_rpc::wire::{WireRead, WireWrite};
/// use depfast_rpc::wire_struct;
///
/// #[derive(Debug, PartialEq)]
/// struct Ping {
///     seq: u64,
///     payload: Bytes,
/// }
/// wire_struct!(Ping { seq, payload });
///
/// let p = Ping { seq: 7, payload: Bytes::from_static(b"hi") };
/// let enc = p.to_bytes();
/// assert_eq!(Ping::from_bytes(&enc), Some(p));
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($name:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::wire::WireWrite for $name {
            fn write(&self, w: &mut $crate::wire::Writer) {
                $(self.$field.write(w);)+
            }
        }
        impl $crate::wire::WireRead for $name {
            fn read(r: &mut $crate::wire::Reader<'_>) -> Option<Self> {
                Some($name {
                    $($field: $crate::wire::WireRead::read(r)?,)+
                })
            }
        }
    };
}

/// The codec's contract as one check, for the property tests that sit
/// next to each message type in this crate and its dependents.
#[doc(hidden)]
pub mod testing {
    use super::*;

    /// A payload of one of four sizes around the splice line — none, the
    /// largest that is copied, the smallest that is spliced, a YCSB
    /// record — chosen by `pick`, with contents that vary with `seed`.
    pub fn payload(pick: usize, seed: u8) -> Bytes {
        let len = [0, SPLICE_MIN - 1, SPLICE_MIN, 1000][pick % 4];
        Bytes::from(
            (0..len)
                .map(|i| seed.wrapping_add(i as u8))
                .collect::<Vec<u8>>(),
        )
    }

    /// `bytes` as a frame cut at each of `cuts` (taken modulo its length,
    /// so any numbers do; repeats make empty segments).
    pub fn recut(bytes: &Bytes, cuts: &[usize]) -> Frame {
        let mut at: Vec<usize> = cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
        at.push(bytes.len());
        at.sort_unstable();
        let mut from = 0;
        let segments = at.iter().map(|&to| {
            let seg = bytes.slice(from..to);
            from = to;
            seg
        });
        Frame::from_segments(segments.collect())
    }

    /// Asserts that `value` has one byte string whichever way it is
    /// encoded, and decodes from it however it is segmented: contiguous,
    /// as spliced by [`WireWrite::to_frame`], and re-cut at `cuts`; that
    /// every proper prefix of it is refused, and one trailing byte is.
    pub fn assert_segmentation_agnostic<T>(value: &T, cuts: &[usize])
    where
        T: WireWrite + WireRead + PartialEq + std::fmt::Debug,
    {
        let flat = value.to_bytes();
        let spliced = value.to_frame();
        assert_eq!(spliced.clone().into_bytes(), flat, "one byte string");
        assert_eq!(T::from_bytes(&flat).as_ref(), Some(value));
        assert_eq!(T::from_frame(&spliced).as_ref(), Some(value));
        assert_eq!(T::from_frame(&recut(&flat, cuts)).as_ref(), Some(value));
        // A cut inside every integer and every length prefix at once.
        let shredded = recut(&flat, &(0..flat.len()).collect::<Vec<_>>());
        assert_eq!(T::from_frame(&shredded).as_ref(), Some(value));
        for len in 0..flat.len() {
            let prefix = flat.slice(..len);
            assert_eq!(T::from_bytes(&prefix), None, "prefix of {len} B");
            assert_eq!(
                T::from_frame(&recut(&prefix, cuts)),
                None,
                "re-cut prefix of {len} B"
            );
        }
        let mut longer = flat.to_vec();
        longer.push(0);
        let longer = Bytes::from(longer);
        assert_eq!(T::from_bytes(&longer), None, "one trailing byte");
        assert_eq!(
            T::from_frame(&recut(&longer, cuts)),
            None,
            "one trailing byte, re-cut"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, PartialEq)]
    struct Sample {
        a: u64,
        b: String,
        c: Vec<u32>,
        d: Option<u8>,
        e: Bytes,
        f: bool,
    }
    wire_struct!(Sample { a, b, c, d, e, f });

    fn sample() -> Sample {
        Sample {
            a: 0xdead_beef_1234_5678,
            b: "hello".into(),
            c: vec![1, 2, 3],
            d: Some(9),
            e: Bytes::from_static(b"payload"),
            f: true,
        }
    }

    #[test]
    fn round_trip() {
        let s = sample();
        assert_eq!(Sample::from_bytes(&s.to_bytes()), Some(s));
    }

    #[test]
    fn none_option_round_trips() {
        let s = Sample {
            d: None,
            ..sample()
        };
        assert_eq!(Sample::from_bytes(&s.to_bytes()), Some(s));
    }

    #[test]
    fn truncated_buffer_fails_cleanly() {
        let enc = sample().to_bytes();
        for cut in 0..enc.len() {
            let partial = enc.slice(0..cut);
            assert_eq!(Sample::from_bytes(&partial), None, "cut at {cut}");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut enc = sample().to_bytes().to_vec();
        enc.push(0xff);
        assert_eq!(Sample::from_bytes(&Bytes::from(enc)), None);
    }

    #[test]
    fn absurd_vec_length_rejected() {
        // A prefix that claims more elements than there are bytes, with
        // some bytes behind it: refused before anything is reserved.
        let mut enc = u32::MAX.to_le_bytes().to_vec();
        enc.extend_from_slice(&[0; 64]);
        assert_eq!(Vec::<u64>::from_bytes(&Bytes::from(enc)), None);
    }

    #[test]
    fn invalid_bool_rejected() {
        assert_eq!(bool::from_bytes(&Bytes::from_static(&[7])), None);
    }

    proptest! {
        /// The primitive codecs, whole: every field kind in one struct.
        #[test]
        fn sample_decodes_from_any_segmentation(
            a in any::<u64>(),
            pick in 0usize..4,
            cuts in prop::collection::vec(any::<usize>(), 0..6),
        ) {
            let s = Sample { a, e: testing::payload(pick, a as u8), ..sample() };
            testing::assert_segmentation_agnostic(&s, &cuts);
        }
    }

    #[test]
    fn detach_copies_below_the_splice_line_and_keeps_the_buffer_from_it_up() {
        // (field length, copied)
        let table = [(0, true), (255, true), (256, false), (1000, false)];
        for (len, copied) in table {
            let run = Bytes::from(vec![3u8; len + 16]);
            let field = run.slice(8..8 + len);
            let kept = detach(field.clone());
            assert_eq!(kept, field, "{len} B: same bytes");
            if copied {
                let inside = run.as_ptr_range().contains(&kept.as_ptr());
                assert!(!inside, "{len} B: a copy, outside the run");
            } else {
                assert_eq!(kept.as_ptr(), field.as_ptr(), "{len} B: the same buffer");
            }
        }
    }

    /// `key` and `value` written as two fields, cut at `cuts`, read back
    /// as one pair.
    fn pair_of(key: &[u8], value: &Bytes, cuts: &[usize]) -> (Bytes, Frame) {
        let mut flat = Bytes::copy_from_slice(key).to_bytes().to_vec();
        flat.extend_from_slice(&value.to_bytes());
        let frame = testing::recut(&Bytes::from(flat), cuts);
        let mut r = Reader::new(frame.segments());
        let body = r.pair().expect("decodes");
        assert_eq!(r.remaining(), 0, "consumed both fields");
        (body, frame)
    }

    proptest! {
        /// The pair is the whole record, both length prefixes included:
        /// the two fields' own encoding, however it was cut.
        #[test]
        fn a_pair_decodes_from_any_segmentation(
            key in prop::collection::vec(any::<u8>(), 0..16),
            pick in 0usize..4,
            cuts in prop::collection::vec(any::<usize>(), 0..6),
        ) {
            let value = testing::payload(pick, key.len() as u8);
            let (body, _) = pair_of(&key, &value, &cuts);
            let mut expected = (key.len() as u32).to_le_bytes().to_vec();
            expected.extend_from_slice(&key);
            expected.extend_from_slice(&(value.len() as u32).to_le_bytes());
            expected.extend_from_slice(&value);
            prop_assert_eq!(&body[..], &expected[..]);
        }
    }

    #[test]
    fn a_pair_is_a_view_inside_a_segment_and_a_copy_across_a_cut() {
        let value = Bytes::from(vec![4u8; 300]);
        // One segment: the pair is a view of it from its first byte.
        let (body, frame) = pair_of(b"key", &value, &[]);
        assert_eq!(body.as_ptr(), frame.segments()[0].as_ptr(), "a view");
        // Cut inside the value: gathered.
        let (body, frame) = pair_of(b"key", &value, &[4, 100]);
        let inside = |s: &Bytes| s.as_ptr_range().contains(&body.as_ptr());
        assert!(!frame.segments().iter().any(inside), "a copy");
        // Spliced, as a writer puts a pair's buffer on the wire.
        let pair = Bytes::from(
            [
                &3u32.to_le_bytes(),
                &b"key"[..],
                &300u32.to_le_bytes(),
                &value,
            ]
            .concat(),
        );
        let mut w = Writer::new(true);
        0u8.write(&mut w);
        w.put_bytes(&pair);
        let frame = w.finish();
        let mut r = Reader::new(frame.segments());
        u8::read(&mut r).expect("the byte in front");
        let body = r.pair().expect("decodes");
        assert_eq!(body.as_ptr_range(), pair.as_ptr_range(), "the same buffer");
    }

    #[test]
    fn a_pair_that_claims_more_than_there_is_is_refused() {
        for bytes in [
            &[3, 0, 0, 0, b'k', b'e'][..],
            &[1, 0, 0, 0, b'k', 9, 0, 0, 0, 1],
        ] {
            let segs = [Bytes::copy_from_slice(bytes)];
            assert_eq!(Reader::new(&segs).pair(), None, "{bytes:?}");
        }
    }

    #[test]
    fn empty_collections() {
        let s = Sample {
            b: String::new(),
            c: vec![],
            e: Bytes::new(),
            ..sample()
        };
        assert_eq!(Sample::from_bytes(&s.to_bytes()), Some(s));
    }
}
