//! Minimal stand-in for the `bytes` crate.
//!
//! The build environment has no registry access, so this shim provides the
//! one type OPA uses — [`Bytes`] — with the same semantics the platform
//! relies on: an immutable byte buffer whose clones share a single backing
//! allocation (`Arc<[u8]>`), so shuffling and spilling never deep-copy
//! payloads. [`Bytes::slice`] is zero-copy: the sub-view keeps a reference
//! to the parent allocation and narrows its window, which is what lets the
//! data plane hand out offset/len views over one shared arena.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply cloneable, shared, immutable slice of bytes.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    off: usize,
    len: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Copies `data` into a fresh shared allocation.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            data: Arc::from(data),
            off: 0,
            len: data.len(),
        }
    }

    /// Concatenates `parts` into one fresh shared allocation — the
    /// one-allocation counterpart of building a `Vec` and converting it
    /// (which allocates twice and copies twice). Shim extension: the real
    /// crate spells this `BytesMut::with_capacity` + `freeze`.
    pub fn concat(parts: &[&[u8]]) -> Self {
        let len = parts.iter().map(|p| p.len()).sum();
        let mut data = Arc::<[u8]>::new_uninit_slice(len);
        let buf = Arc::get_mut(&mut data).expect("a freshly built Arc is unique");
        let mut at = 0;
        for p in parts {
            let dst = buf[at..at + p.len()].as_mut_ptr().cast::<u8>();
            // SAFETY: `dst` is the start of an in-bounds `p.len()`-byte
            // window of the new allocation (the slice index above checked
            // it), which nothing borrowed by `parts` can overlap.
            unsafe { std::ptr::copy_nonoverlapping(p.as_ptr(), dst, p.len()) };
            at += p.len();
        }
        // SAFETY: the windows written above are consecutive from 0 and
        // their lengths sum to `len`, so every byte of `0..len` is
        // initialised.
        let data = unsafe { data.assume_init() };
        Bytes { data, off: 0, len }
    }

    /// A view of the bytes as a plain slice.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.off..self.off + self.len]
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns a `Bytes` viewing the given subrange of this buffer.
    /// Zero-copy: the result shares the backing allocation.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "slice {}..{} out of bounds of buffer of length {}",
            range.start,
            range.end,
            self.len
        );
        Bytes {
            data: Arc::clone(&self.data),
            off: self.off + range.start,
            len: range.end - range.start,
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes {
            data: Arc::from(&[][..]),
            off: 0,
            len: 0,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    #[inline]
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Bytes {
            data: Arc::from(v),
            off: 0,
            len,
        }
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(v: Box<[u8]>) -> Self {
        let len = v.len();
        Bytes {
            data: Arc::from(v),
            off: 0,
            len,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl From<&str> for Bytes {
    fn from(v: &str) -> Self {
        Bytes::copy_from_slice(v.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Self {
        Bytes::from(v.into_bytes())
    }
}

impl<const N: usize> From<[u8; N]> for Bytes {
    fn from(v: [u8; N]) -> Self {
        Bytes::copy_from_slice(&v)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice().iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_allocation() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        let b = a.clone();
        assert_eq!(a.as_ptr(), b.as_ptr());
        assert_eq!(a, b);
    }

    #[test]
    fn ordering_is_lexicographic() {
        let (abc, abd, ab) = (
            Bytes::from(&b"abc"[..]),
            Bytes::from(&b"abd"[..]),
            Bytes::from(&b"ab"[..]),
        );
        assert!(abc < abd);
        assert!(ab < abc);
    }

    #[test]
    fn deref_and_indexing() {
        let b = Bytes::copy_from_slice(b"hello");
        assert_eq!(b[0], b'h');
        assert_eq!(b.len(), 5);
        assert_eq!(&b[1..3], b"el");
        assert_eq!(b.get(..2), Some(&b"he"[..]));
    }

    #[test]
    fn default_is_empty() {
        assert!(Bytes::default().is_empty());
        assert_eq!(Bytes::new().len(), 0);
    }

    #[test]
    fn concat_joins_parts_in_order() {
        let b = Bytes::concat(&[b"ab", b"", b"cde"]);
        assert_eq!(&b[..], b"abcde");
        assert!(Bytes::concat(&[]).is_empty());
        assert!(Bytes::concat(&[b""]).is_empty());
    }

    #[test]
    fn slice_is_zero_copy() {
        let a = Bytes::from(&b"hello world"[..]);
        let s = a.slice(6..11);
        assert_eq!(&s[..], b"world");
        // The sub-view points into the parent allocation.
        assert_eq!(s.as_ptr(), unsafe { a.as_ptr().add(6) });
        // Slicing a slice composes offsets.
        let t = s.slice(1..3);
        assert_eq!(&t[..], b"or");
        assert_eq!(t.as_ptr(), unsafe { a.as_ptr().add(7) });
    }

    #[test]
    fn slice_bounds_and_equality() {
        let a = Bytes::from(&b"abcabc"[..]);
        assert_eq!(a.slice(0..3), a.slice(3..6));
        assert_eq!(a.slice(3..3).len(), 0);
        let h1 = {
            use std::collections::hash_map::DefaultHasher;
            let mut h = DefaultHasher::new();
            a.slice(0..3).hash(&mut h);
            h.finish()
        };
        let h2 = {
            use std::collections::hash_map::DefaultHasher;
            let mut h = DefaultHasher::new();
            Bytes::from(&b"abc"[..]).hash(&mut h);
            h.finish()
        };
        assert_eq!(h1, h2, "hash must depend on the view, not the backing");
    }
}
