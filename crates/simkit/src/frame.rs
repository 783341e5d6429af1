//! A message on the simulated wire: one byte string in shared segments.
//!
//! The resource models charge a message by its length alone — bandwidth,
//! buffer memory, `net_bytes` — so the host need not hold those bytes in
//! one contiguous buffer to simulate them faithfully. A [`Frame`] is the
//! byte string cut into [`Bytes`] segments: an encoder can put a large
//! field on the wire by reference instead of copying it into every message
//! that carries it, and whoever decodes the frame gets that same buffer
//! back. Where the cuts fall is invisible to everything but the host's
//! allocator: two frames are equal iff their byte strings are.

use bytes::Bytes;

/// An ordered list of shared byte segments, read as their concatenation.
///
/// The common message is small and has one segment; that case is a
/// [`Bytes`] and nothing more (no list is allocated, and
/// [`Frame::into_bytes`] is free).
#[derive(Debug, Clone)]
pub struct Frame(Repr);

#[derive(Debug, Clone)]
enum Repr {
    One(Bytes),
    /// Two or more segments.
    Many(Vec<Bytes>),
}

impl Frame {
    /// The frame whose byte string is `segments` concatenated.
    pub fn from_segments(mut segments: Vec<Bytes>) -> Self {
        if segments.len() > 1 {
            return Frame(Repr::Many(segments));
        }
        segments.pop().map(Frame::from).unwrap_or_default()
    }

    /// Length of the byte string — what every resource model charges.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::One(b) => b.len(),
            Repr::Many(segs) => segs.iter().map(Bytes::len).sum(),
        }
    }

    /// `true` if the byte string is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The segments, in order.
    pub fn segments(&self) -> &[Bytes] {
        match &self.0 {
            Repr::One(b) => std::slice::from_ref(b),
            Repr::Many(segs) => segs,
        }
    }

    /// The byte string as one buffer: the segment itself when there is
    /// one, a gathered copy otherwise.
    pub fn into_bytes(self) -> Bytes {
        match self.0 {
            Repr::One(b) => b,
            Repr::Many(segs) => {
                let mut flat = Vec::with_capacity(segs.iter().map(Bytes::len).sum());
                for seg in &segs {
                    flat.extend_from_slice(seg);
                }
                Bytes::from(flat)
            }
        }
    }
}

impl Default for Frame {
    fn default() -> Self {
        Frame(Repr::One(Bytes::new()))
    }
}

impl From<Bytes> for Frame {
    fn from(bytes: Bytes) -> Self {
        Frame(Repr::One(bytes))
    }
}

impl PartialEq for Frame {
    fn eq(&self, other: &Self) -> bool {
        if let (Repr::One(a), Repr::One(b)) = (&self.0, &other.0) {
            return a == b;
        }
        fn bytes(f: &Frame) -> impl Iterator<Item = &u8> {
            f.segments().iter().flat_map(|s| s.iter())
        }
        self.len() == other.len() && bytes(self).eq(bytes(other))
    }
}

impl Eq for Frame {}

#[cfg(test)]
mod tests {
    use super::*;

    fn cut(bytes: &[u8], at: &[usize]) -> Frame {
        let whole = Bytes::from(bytes);
        let mut segs = Vec::new();
        let mut prev = 0;
        for &a in at.iter().chain([&bytes.len()]) {
            segs.push(whole.slice(prev..a));
            prev = a;
        }
        Frame::from_segments(segs)
    }

    #[test]
    fn equality_ignores_where_the_cuts_fall() {
        let whole = Frame::from(Bytes::from_static(b"hello world"));
        for at in [&[][..], &[5], &[0, 5, 5, 11], &[1, 2, 3]] {
            let f = cut(b"hello world", at);
            assert_eq!(f, whole, "cuts {at:?}");
            assert_eq!(f.len(), 11);
            assert_eq!(f.into_bytes(), Bytes::from_static(b"hello world"));
        }
        assert_ne!(cut(b"hello world", &[5]), cut(b"hello_world", &[5]));
        assert_ne!(cut(b"hello world", &[5]), cut(b"hello worl", &[5]));
    }

    #[test]
    fn one_segment_is_handed_back_as_it_came() {
        let b = Bytes::from(vec![7u8; 64]);
        let through = Frame::from_segments(vec![b.clone()]).into_bytes();
        assert_eq!(through.as_ptr(), b.as_ptr(), "no copy");
        assert_eq!(Frame::from_segments(Vec::new()), Frame::default());
        assert!(Frame::default().is_empty());
    }
}
