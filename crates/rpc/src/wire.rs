//! Hand-rolled binary wire format.
//!
//! Message payloads are serialized before they hit the simulated network so
//! the bandwidth and memory models see true byte counts. The format is a
//! plain little-endian TLV-free layout: each type writes its fields in a
//! fixed order. Decoding is fallible (`Option`) — a malformed buffer never
//! panics.

use std::cell::Cell;

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Types that can serialize themselves onto a buffer.
pub trait WireWrite {
    /// Appends this value's encoding to `buf`.
    fn write(&self, buf: &mut BytesMut);

    /// Convenience: encodes into a fresh [`Bytes`].
    ///
    /// The encoding is built in a per-thread scratch buffer that keeps its
    /// capacity between calls and is then copied out once, so a message
    /// costs one allocation of exactly its size however large it is.
    fn to_bytes(&self) -> Bytes {
        thread_local! {
            static SCRATCH: Cell<BytesMut> = Cell::new(BytesMut::new());
        }
        // Taken, not borrowed: a `write` that itself calls `to_bytes`
        // finds an empty buffer rather than a borrow conflict.
        let mut buf = SCRATCH.take();
        self.write(&mut buf);
        let out = Bytes::from(&buf[..]);
        buf.clear();
        SCRATCH.set(buf);
        out
    }
}

/// Types that can deserialize themselves from a buffer.
pub trait WireRead: Sized {
    /// Consumes this value's encoding from `buf`, or returns `None` if the
    /// buffer is malformed or truncated.
    fn read(buf: &mut Bytes) -> Option<Self>;

    /// Convenience: decodes from a complete buffer.
    fn from_bytes(bytes: &Bytes) -> Option<Self> {
        let mut b = bytes.clone();
        let v = Self::read(&mut b)?;
        if b.has_remaining() {
            return None; // Trailing garbage.
        }
        Some(v)
    }
}

macro_rules! wire_uint {
    ($ty:ty, $put:ident, $get:ident, $len:expr) => {
        impl WireWrite for $ty {
            fn write(&self, buf: &mut BytesMut) {
                buf.$put(*self);
            }
        }
        impl WireRead for $ty {
            fn read(buf: &mut Bytes) -> Option<Self> {
                if buf.remaining() < $len {
                    return None;
                }
                Some(buf.$get())
            }
        }
    };
}

wire_uint!(u8, put_u8, get_u8, 1);
wire_uint!(u16, put_u16_le, get_u16_le, 2);
wire_uint!(u32, put_u32_le, get_u32_le, 4);
wire_uint!(u64, put_u64_le, get_u64_le, 8);

/// The empty message: a request that is only its method id.
impl WireWrite for () {
    fn write(&self, _buf: &mut BytesMut) {}
}

impl WireRead for () {
    fn read(_buf: &mut Bytes) -> Option<Self> {
        Some(())
    }
}

impl WireWrite for bool {
    fn write(&self, buf: &mut BytesMut) {
        buf.put_u8(*self as u8);
    }
}

impl WireRead for bool {
    fn read(buf: &mut Bytes) -> Option<Self> {
        match u8::read(buf)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl WireWrite for Bytes {
    fn write(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.len() as u32);
        buf.put_slice(self);
    }
}

impl WireRead for Bytes {
    fn read(buf: &mut Bytes) -> Option<Self> {
        let len = u32::read(buf)? as usize;
        if buf.remaining() < len {
            return None;
        }
        Some(buf.split_to(len))
    }
}

impl WireWrite for String {
    fn write(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.len() as u32);
        buf.put_slice(self.as_bytes());
    }
}

impl WireRead for String {
    fn read(buf: &mut Bytes) -> Option<Self> {
        let raw = Bytes::read(buf)?;
        String::from_utf8(raw.to_vec()).ok()
    }
}

impl<T: WireWrite> WireWrite for Vec<T> {
    fn write(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.len() as u32);
        for item in self {
            item.write(buf);
        }
    }
}

impl<T: WireRead> WireRead for Vec<T> {
    fn read(buf: &mut Bytes) -> Option<Self> {
        let len = u32::read(buf)? as usize;
        // Guard against absurd length prefixes in malformed buffers: each
        // element consumes at least one byte.
        if len > buf.remaining() {
            return None;
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::read(buf)?);
        }
        Some(out)
    }
}

impl<T: WireWrite> WireWrite for Option<T> {
    fn write(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.write(buf);
            }
        }
    }
}

impl<T: WireRead> WireRead for Option<T> {
    fn read(buf: &mut Bytes) -> Option<Self> {
        match u8::read(buf)? {
            0 => Some(None),
            1 => Some(Some(T::read(buf)?)),
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
            fn write(&self, buf: &mut bytes::BytesMut) {
                $(self.$field.write(buf);)+
            }
        }
        impl $crate::wire::WireRead for $name {
            fn read(buf: &mut bytes::Bytes) -> Option<Self> {
                Some($name {
                    $($field: $crate::wire::WireRead::read(buf)?,)+
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut enc = BytesMut::from(&sample().to_bytes()[..]);
        enc.put_u8(0xff);
        assert_eq!(Sample::from_bytes(&enc.freeze()), None);
    }

    #[test]
    fn absurd_vec_length_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(u32::MAX);
        let mut b = buf.freeze();
        assert!(Vec::<u64>::read(&mut b).is_none());
    }

    #[test]
    fn invalid_bool_rejected() {
        let mut b = Bytes::from_static(&[7]);
        assert!(bool::read(&mut b).is_none());
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
