//! Offline stand-in for the `bytes` crate.
//!
//! Provides the `Bytes` / `BytesMut` surface the page store uses: zeroed
//! mutable buffers, freeze into a cheaply clonable shared buffer, and
//! zero-copy sub-slicing. Backed by `Arc<Vec<u8>>` + (start, end) offsets,
//! which preserves the real crate's O(1) behaviour: `Bytes::from(Vec)`
//! and `freeze` move the vector without copying its bytes, and `clone`
//! and `slice` share it.

use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// An immutable, cheaply clonable byte buffer (shared via `Arc`).
#[derive(Clone, Debug)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::from(Vec::new())
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A sub-view of this buffer sharing the same backing allocation.
    /// Panics when the range is out of bounds, as the real crate does.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            lo <= hi && hi <= self.len(),
            "slice {lo}..{hi} out of bounds of {}",
            self.len()
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

/// A mutable byte buffer that freezes into [`Bytes`].
#[derive(Clone, Debug, Default)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut { buf: Vec::new() }
    }

    /// A buffer of `len` zero bytes.
    pub fn zeroed(len: usize) -> Self {
        BytesMut {
            buf: vec![0u8; len],
        }
    }

    /// Buffer length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append bytes to the buffer.
    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.buf.extend_from_slice(extend);
    }

    /// Convert into an immutable shared [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl AsMut<[u8]> for BytesMut {
    fn as_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freezing_keeps_the_buffer_and_slices_share_it() {
        let v = vec![7u8; 4096];
        let ptr = v.as_ptr();
        let frozen = Bytes::from(v);
        assert_eq!(frozen.as_ptr(), ptr);
        let part = frozen.slice(4..8);
        assert_eq!(part.as_ptr(), ptr.wrapping_add(4));
        assert_eq!(&part[..], &[7; 4]);
        let m = BytesMut::zeroed(64);
        let ptr = m.as_ptr();
        assert_eq!(m.freeze().as_ptr(), ptr);
    }
}
