//! Offline stand-in for the `bytes` crate.
//!
//! Provides the `Bytes` / `BytesMut` surface the page store uses: zeroed
//! mutable buffers, freeze into a cheaply clonable shared buffer,
//! zero-copy sub-slicing, and taking a buffer back for reuse once its
//! last handle is the only one. Backed by `Arc<Vec<u8>>` + (start, end)
//! offsets, which preserves the real crate's O(1) behaviour:
//! `Bytes::from(Vec)` moves the vector without copying its bytes, `clone`
//! and `slice` share it, and `freeze` / `try_into_mut` hand the same
//! allocation back and forth without allocating.

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

    /// Take the buffer back as a [`BytesMut`] holding this view's bytes,
    /// without allocating — only when no other handle shares the backing
    /// allocation; otherwise `self` comes back unchanged in `Err`.
    pub fn try_into_mut(mut self) -> Result<BytesMut, Bytes> {
        let Some(buf) = Arc::get_mut(&mut self.data) else {
            return Err(self);
        };
        buf.truncate(self.end);
        buf.drain(..self.start);
        Ok(BytesMut { data: self.data })
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
///
/// It holds the same `Arc<Vec<u8>>` a [`Bytes`] does, never shared while
/// it is a `BytesMut`, so [`BytesMut::freeze`] and [`Bytes::try_into_mut`]
/// move one allocation between the two.
#[derive(Debug, Default)]
pub struct BytesMut {
    data: Arc<Vec<u8>>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty buffer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            data: Arc::new(Vec::with_capacity(capacity)),
        }
    }

    /// A buffer of `len` zero bytes.
    pub fn zeroed(len: usize) -> Self {
        BytesMut {
            data: Arc::new(vec![0u8; len]),
        }
    }

    /// Buffer length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Grow (filling with `value`) or shrink the buffer to `new_len` bytes.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.vec_mut().resize(new_len, value);
    }

    /// Empty the buffer, keeping its capacity.
    pub fn clear(&mut self) {
        self.vec_mut().clear();
    }

    /// Shorten the buffer to `len` bytes, keeping its capacity.
    pub fn truncate(&mut self, len: usize) {
        self.vec_mut().truncate(len);
    }

    /// Append bytes to the buffer.
    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.vec_mut().extend_from_slice(extend);
    }

    /// Convert into an immutable shared [`Bytes`].
    pub fn freeze(self) -> Bytes {
        let end = self.data.len();
        Bytes {
            data: self.data,
            start: 0,
            end,
        }
    }

    fn vec_mut(&mut self) -> &mut Vec<u8> {
        Arc::get_mut(&mut self.data).expect("a BytesMut never shares its buffer")
    }
}

impl Clone for BytesMut {
    fn clone(&self) -> Self {
        BytesMut {
            data: Arc::new(self.data.to_vec()),
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        self.vec_mut()
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl AsMut<[u8]> for BytesMut {
    fn as_mut(&mut self) -> &mut [u8] {
        self
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

    #[test]
    fn a_lone_handle_gives_its_buffer_back_for_reuse() {
        let mut m = BytesMut::zeroed(16);
        m[3] = 9;
        let ptr = m.as_ptr();
        let frozen = m.freeze();
        let shared = frozen.clone();
        // A second handle keeps the buffer shared: no reuse.
        let frozen = frozen.try_into_mut().unwrap_err();
        drop(shared);
        let mut back = frozen.try_into_mut().unwrap();
        assert_eq!((back.as_ptr(), back.len(), back[3]), (ptr, 16, 9));
        back.truncate(4);
        back.resize(6, 1);
        assert_eq!((&back[..], back.as_ptr()), (&[0, 0, 0, 9, 1, 1][..], ptr));
        // A lone sub-view comes back holding exactly its own bytes.
        let view = Bytes::from((0..8).collect::<Vec<u8>>()).slice(2..5);
        assert_eq!(&view.try_into_mut().unwrap()[..], &[2, 3, 4]);
        // A clone of a BytesMut is a copy, never a second handle.
        let a = BytesMut::zeroed(4);
        let mut b = a.clone();
        b[0] = 1;
        assert_eq!((a[0], a.freeze().try_into_mut().is_ok()), (0, true));
    }
}
