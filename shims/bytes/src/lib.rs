//! Minimal stand-in for the `bytes` crate.
//!
//! The build environment has no registry access, so this shim provides the
//! one type OPA uses — [`Bytes`] — with the same semantics the platform
//! relies on: an immutable byte buffer whose clones share a single backing
//! allocation, so shuffling and spilling never deep-copy payloads.
//! [`Bytes::slice`] is zero-copy: the sub-view keeps a reference to the
//! parent allocation and narrows its window, which is what lets the data
//! plane hand out offset/len views over one shared arena.
//!
//! # Layout
//!
//! A handle is **16 bytes**: one thin pointer and a `u32` offset/length
//! window. The pointer leads to a single allocation holding a reference
//! count, the buffer's length and then the bytes themselves:
//!
//! ```text
//! Bytes { data ──┐ off: u32, len: u32 }
//!                ▼
//!        Header { refs, len } │ byte 0 │ byte 1 │ … │ byte len-1 │
//! ```
//!
//! The empty buffer is the null handle and owns no allocation. The `u32`
//! window caps a buffer at 4 GiB − 1 ([`Bytes::copy_from_slice`] and the
//! other constructors assert it); every length OPA decodes is framed as a
//! `u32` already, so no input reaches that assert.
//!
//! All of the crate's `unsafe` is in this file: the allocation, the
//! reference count and the raw view behind [`Bytes::as_slice`].

use std::alloc::{self, Layout};
use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::ptr::NonNull;
use std::sync::atomic::{self, AtomicUsize, Ordering};

/// What a shared allocation starts with; its `len` bytes follow directly.
#[repr(C)]
struct Header {
    /// Handles alive on this allocation.
    refs: AtomicUsize,
    /// Bytes stored after the header: what the allocation's [`Layout`] is
    /// rebuilt from when the last handle drops.
    len: usize,
}

impl Header {
    /// Layout of a header followed by `len` bytes.
    fn layout(len: usize) -> Layout {
        let size = std::mem::size_of::<Header>()
            .checked_add(len)
            .expect("buffer size overflows usize");
        Layout::from_size_align(size, std::mem::align_of::<Header>())
            .expect("buffer size overflows isize")
    }
}

/// The length of a buffer as a handle stores it.
///
/// # Panics
/// If `len` does not fit the handle's 32-bit window.
fn window_len(len: usize) -> u32 {
    assert!(
        len <= u32::MAX as usize,
        "bytes: a buffer of {len} bytes is past the 4 GiB - 1 one handle can address"
    );
    len as u32
}

/// A cheaply cloneable, shared, immutable slice of bytes. The default is
/// the empty buffer.
#[derive(Default)]
pub struct Bytes {
    /// The shared allocation; `None` is the empty buffer.
    data: Option<NonNull<Header>>,
    /// Window into the allocation's bytes: `off + len <= header.len`.
    off: u32,
    len: u32,
}

// SAFETY: a handle only ever reads the bytes (nothing hands out `&mut` to
// them once `concat` returns), the reference count is atomic, and the last
// handle to drop — on whichever thread — synchronises with every earlier
// drop before freeing (see `Drop`). `off`/`len` are plain integers.
unsafe impl Send for Bytes {}
// SAFETY: as above — `&Bytes` gives access to immutable bytes and to
// `clone`, which touches only the atomic count.
unsafe impl Sync for Bytes {}

impl Bytes {
    /// An empty buffer. Never allocates.
    pub const fn new() -> Self {
        Bytes {
            data: None,
            off: 0,
            len: 0,
        }
    }

    /// Copies `data` into a fresh shared allocation.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::concat(&[data])
    }

    /// Concatenates `parts` into one fresh shared allocation — the
    /// one-allocation counterpart of building a `Vec` and converting it
    /// (which allocates twice and copies twice). Shim extension: the real
    /// crate spells this `BytesMut::with_capacity` + `freeze`.
    ///
    /// # Panics
    /// If the parts add up to more than `u32::MAX` bytes.
    pub fn concat(parts: &[&[u8]]) -> Self {
        let len = parts
            .iter()
            .try_fold(0usize, |n, p| n.checked_add(p.len()))
            .expect("total length overflows usize");
        let window = window_len(len);
        if len == 0 {
            return Bytes::new();
        }
        let layout = Header::layout(len);
        // SAFETY: `layout` is at least a header wide, so never zero-sized.
        let raw = unsafe { alloc::alloc(layout) }.cast::<Header>();
        let Some(data) = NonNull::new(raw) else {
            alloc::handle_alloc_error(layout)
        };
        // SAFETY: `data` is a live allocation of `layout`, which is aligned
        // for a `Header` and holds one followed by `len` bytes, and nothing
        // else can see it yet. The parts are written back to back from the
        // first byte after the header: consecutive windows whose lengths
        // sum to `len`, so every byte of the region is initialised and none
        // outside it is touched; a fresh allocation cannot overlap anything
        // `parts` borrows.
        unsafe {
            data.as_ptr().write(Header {
                refs: AtomicUsize::new(1),
                len,
            });
            let mut dst = data.as_ptr().add(1).cast::<u8>();
            for p in parts {
                std::ptr::copy_nonoverlapping(p.as_ptr(), dst, p.len());
                dst = dst.add(p.len());
            }
        }
        Bytes {
            data: Some(data),
            off: 0,
            len: window,
        }
    }

    /// A view of the bytes as a plain slice.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match self.data {
            None => &[],
            // SAFETY: this handle keeps the allocation alive for as long as
            // `self` is borrowed; its bytes start right after the header,
            // were all initialised by `concat`, are never written again, and
            // `off + len <= header.len` holds for every handle (`concat`
            // makes the full window, `slice` only narrows it).
            Some(data) => unsafe {
                let bytes = data.as_ptr().add(1).cast::<u8>();
                std::slice::from_raw_parts(bytes.add(self.off as usize), self.len as usize)
            },
        }
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns a `Bytes` viewing the given subrange of this buffer.
    /// Zero-copy: the result shares the backing allocation (an empty range
    /// is the empty buffer and pins nothing).
    pub fn slice(&self, range: std::ops::Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice {}..{} out of bounds of buffer of length {}",
            range.start,
            range.end,
            self.len
        );
        if range.is_empty() {
            return Bytes::new();
        }
        let mut view = self.clone();
        // Both fit: `start < end <= self.len`, and `off + len` of `self`
        // is within a buffer `window_len` admitted.
        view.off += range.start as u32;
        view.len = (range.end - range.start) as u32;
        view
    }
}

impl Clone for Bytes {
    #[inline]
    fn clone(&self) -> Self {
        if let Some(data) = self.data {
            // SAFETY: `self` holds a count on the allocation, so the header
            // is live.
            let refs = unsafe { &(*data.as_ptr()).refs };
            // Relaxed, as in `Arc`: a new handle is made from an existing
            // one, which already orders it after the allocation's set-up.
            let before = refs.fetch_add(1, Ordering::Relaxed);
            // Leaking handles (`mem::forget`) could walk the count up to a
            // wrap-around and a use after free; stop long before.
            if before > isize::MAX as usize {
                std::process::abort();
            }
        }
        Bytes {
            data: self.data,
            off: self.off,
            len: self.len,
        }
    }
}

impl Drop for Bytes {
    #[inline]
    fn drop(&mut self) {
        let Some(data) = self.data else { return };
        // SAFETY: this handle's count keeps the header live until the
        // decrement below; nothing is read through `refs` after it.
        let refs = unsafe { &(*data.as_ptr()).refs };
        // Release: everything this thread did through the handle happens
        // before the decrement …
        if refs.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        // … and the Acquire fence makes the thread that saw the count reach
        // zero see all of it before it frees the memory.
        atomic::fence(Ordering::Acquire);
        // SAFETY: the count reached zero, so this was the last handle and
        // nothing else can reach the allocation any more: reading its
        // header and freeing it are this thread's alone. The layout is the
        // one `concat` allocated it with (`Header::len` is never changed).
        unsafe {
            let layout = Header::layout((*data.as_ptr()).len);
            alloc::dealloc(data.as_ptr().cast::<u8>(), layout);
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
        Bytes::copy_from_slice(&v)
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(v: Box<[u8]>) -> Self {
        Bytes::copy_from_slice(&v)
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
    use std::alloc::{GlobalAlloc, System};
    use std::cell::Cell;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    /// Payload length no other test uses, so allocations of exactly
    /// `size_of::<Header>() + MARKED_LEN` bytes belong to the one test that
    /// builds such a buffer, whichever thread makes or frees them.
    const MARKED_LEN: usize = 54_321;
    const MARKED_SIZE: usize = std::mem::size_of::<Header>() + MARKED_LEN;
    static MARKED_ALLOCS: AtomicUsize = AtomicUsize::new(0);
    static MARKED_FREES: AtomicUsize = AtomicUsize::new(0);

    thread_local! {
        /// Allocations made by the current thread (tests run in parallel,
        /// each on its own thread).
        static THREAD_ALLOCS: Cell<usize> = const { Cell::new(0) };
    }

    /// The system allocator, counting.
    struct Counting;

    // SAFETY: every request is forwarded unchanged to `System`; the
    // counters are an atomic and a const-initialised `Cell` in TLS, neither
    // of which allocates.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            if layout.size() == MARKED_SIZE {
                MARKED_ALLOCS.fetch_add(1, Ordering::Relaxed);
            }
            // `try_with`: a thread tearing down still allocates.
            let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
            // SAFETY: the caller's contract, passed on as is.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            if layout.size() == MARKED_SIZE {
                MARKED_FREES.fetch_add(1, Ordering::Relaxed);
            }
            // SAFETY: the caller's contract, passed on as is.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static ALLOC: Counting = Counting;

    /// Allocations the current thread makes while running `f`.
    fn allocations_in<T>(f: impl FnOnce() -> T) -> (usize, T) {
        let before = THREAD_ALLOCS.with(Cell::get);
        let out = f();
        (THREAD_ALLOCS.with(Cell::get) - before, out)
    }

    #[test]
    fn threads_share_one_allocation_freed_once_by_the_last_drop() {
        const THREADS: usize = 4;
        let payload: Vec<u8> = (0..MARKED_LEN).map(|i| (i % 251) as u8).collect();
        let original = Bytes::copy_from_slice(&payload);
        assert_eq!(MARKED_ALLOCS.load(Ordering::Relaxed), 1);
        // All workers and the thread dropping the original start together.
        let start = Barrier::new(THREADS + 1);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let mine = original.clone();
                let (start, payload) = (&start, &payload);
                scope.spawn(move || {
                    start.wait();
                    let mut kept = Vec::new();
                    for i in 0..4_000 {
                        let from = (i * 13 + t) % (MARKED_LEN - 64);
                        let view = mine.clone().slice(from..from + 64);
                        assert_eq!(&view[..], &payload[from..from + 64]);
                        let inner = view.slice(8..24);
                        assert_eq!(&inner[..], &payload[from + 8..from + 24]);
                        if i % 500 == 0 {
                            kept.push(inner);
                        }
                    }
                    drop(mine);
                    // Views outlive the handle they were cut from.
                    for (n, view) in kept.iter().enumerate() {
                        let from = (n * 500 * 13 + t) % (MARKED_LEN - 64) + 8;
                        assert_eq!(&view[..], &payload[from..from + 16]);
                    }
                });
            }
            start.wait();
            drop(original);
        });
        assert_eq!(MARKED_ALLOCS.load(Ordering::Relaxed), 1);
        assert_eq!(MARKED_FREES.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn empty_buffers_do_not_allocate() {
        let parent = Bytes::copy_from_slice(b"0123456789");
        let (n, empties) = allocations_in(|| {
            [
                Bytes::new(),
                Bytes::default(),
                Bytes::concat(&[]),
                Bytes::concat(&[b"", b""]),
                Bytes::copy_from_slice(b""),
                Bytes::from(&b""[..]),
                parent.slice(0..0),
                parent.slice(4..4),
                parent.slice(10..10),
                parent.slice(2..8).slice(3..3),
                Bytes::new().slice(0..0),
                Bytes::new().clone(),
            ]
        });
        assert_eq!(n, 0);
        for e in &empties {
            assert!(e.is_empty());
            assert_eq!(e.as_slice(), b"");
            assert_eq!(*e, Bytes::new());
        }
        // Clones and views of a non-empty buffer do not allocate either.
        let (n, _views) = allocations_in(|| (parent.clone(), parent.slice(1..9)));
        assert_eq!(n, 0);
        // A non-empty buffer is exactly one allocation.
        let (n, _b) = allocations_in(|| Bytes::concat(&[b"ab", b"cd"]));
        assert_eq!(n, 1);
    }

    #[test]
    fn nested_slices_compose_offsets_and_outlive_their_parents() {
        let payload: Vec<u8> = (0..=255).collect();
        let a = Bytes::from(payload.clone());
        let base = a.as_ptr();
        let s1 = a.slice(10..200);
        let s2 = s1.slice(5..100);
        let s3 = s2.slice(7..20);
        drop(a);
        drop(s1);
        drop(s2);
        assert_eq!(&s3[..], &payload[22..35]);
        assert_eq!(s3.as_ptr(), base.wrapping_add(22));
        assert_eq!(s3.len(), 13);
        // A view of the full range is the buffer itself.
        let whole = s3.slice(0..13);
        assert_eq!(whole, s3);
        assert_eq!(whole.as_ptr(), s3.as_ptr());
    }

    #[test]
    fn a_view_keeps_the_allocation_alive() {
        let view = {
            let original = Bytes::from(vec![0xabu8; 4096]);
            original.slice(4000..4096)
        };
        // Churn the allocator so a freed block would be reused.
        let noise: Vec<Vec<u8>> = (0..64).map(|i| vec![i as u8; 4096]).collect();
        assert!(view.iter().all(|&b| b == 0xab));
        drop(noise);
    }

    #[test]
    fn the_window_is_32_bits() {
        assert_eq!(window_len(0), 0);
        assert_eq!(window_len(u32::MAX as usize), u32::MAX);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "past the 4 GiB - 1 one handle can address")]
    fn a_longer_buffer_is_refused() {
        window_len(u32::MAX as usize + 1);
    }

    #[test]
    fn owned_sources_round_trip() {
        let v: Vec<u8> = (0..100).collect();
        assert_eq!(Bytes::from(v.clone()).as_slice(), &v[..]);
        assert_eq!(Bytes::from(v.clone().into_boxed_slice()).as_slice(), &v[..]);
        assert_eq!(
            Bytes::from(String::from("héllo")).as_slice(),
            "héllo".as_bytes()
        );
        assert_eq!(Bytes::from("abc").as_slice(), b"abc");
        assert_eq!(Bytes::from([1u8, 2, 3]).as_slice(), &[1, 2, 3]);
        assert_eq!(v.iter().copied().collect::<Bytes>().as_slice(), &v[..]);
        assert!(Bytes::from(Vec::new()).is_empty());
        assert!(Bytes::from(String::new()).is_empty());
    }

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
