//! Record types flowing through the platform.
//!
//! MapReduce data is untyped bytes at the system level: the map function
//! emits ⟨key, value⟩ pairs and the reduce side groups by key. OPA follows
//! the paper's prototype (§5), which stores records in byte arrays rather
//! than heap objects: [`Key`] and [`Value`] keep payloads of up to
//! [`INLINE_CAP`] bytes *inline in the struct* (no heap allocation at all —
//! this covers every `from_u64` key, session ids and most trigrams) and fall
//! back to a shared [`bytes::Bytes`] buffer for larger payloads, so
//! shuffling and spilling never deep-copy. The two representations are
//! indistinguishable through the public API: `Eq`/`Ord`/`Hash` are defined
//! on the byte content, never on the representation.
//!
//! Map output that has to exist as a whole run before it can be used —
//! sort-merge sorts it, combiner-less MR-hash forwards it — is collected
//! through [`BatchBuilder`], which appends large payloads into one
//! append-only arena per chunk; sealing the builder turns the rows into
//! offset/len views over that single allocation. The grouping collectors
//! build their [`Key`]s and states directly from the emitted slices. Either
//! way the unit shuffled between mappers and reducers is a [`RecordBatch`].

use bytes::Bytes;
use std::fmt;

/// Fixed per-record bookkeeping overhead charged when accounting buffer
/// occupancy (two 32-bit length prefixes, mirroring Hadoop's IFile record
/// framing).
pub const RECORD_OVERHEAD: u64 = 8;

/// Largest payload stored inline inside a [`Key`]/[`Value`] without a heap
/// allocation: 22 bytes plus a length byte and the variant tag, covering
/// all fixed-width numeric keys (8 bytes) and the common run of short text
/// keys. That makes the struct 24 bytes, which the heap variant — a tag and
/// an 8-aligned 16-byte [`Bytes`] handle — needs anyway.
pub const INLINE_CAP: usize = 22;

/// Internal payload representation: small payloads live in the struct,
/// large ones in a shared heap buffer. All comparisons and hashing go
/// through [`Repr::as_slice`], so the two variants are indistinguishable.
#[derive(Clone)]
enum Repr {
    /// Payload of `len <= INLINE_CAP` bytes stored in-struct.
    Inline { len: u8, buf: [u8; INLINE_CAP] },
    /// Large payload in a shared allocation (possibly an arena view).
    Heap(Bytes),
}

impl Repr {
    #[inline]
    fn as_slice(&self) -> &[u8] {
        match self {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(b) => b,
        }
    }

    /// Builds a representation from a borrowed slice: inline when small,
    /// one copy into a fresh allocation otherwise.
    #[inline]
    fn from_slice(s: &[u8]) -> Repr {
        if s.len() <= INLINE_CAP {
            let mut buf = [0u8; INLINE_CAP];
            buf[..s.len()].copy_from_slice(s);
            Repr::Inline {
                len: s.len() as u8,
                buf,
            }
        } else {
            Repr::Heap(Bytes::copy_from_slice(s))
        }
    }

    /// Builds a representation from an owned buffer: small payloads are
    /// inlined (dropping the buffer), large ones keep the shared handle.
    #[inline]
    fn from_bytes(b: Bytes) -> Repr {
        if b.len() <= INLINE_CAP {
            Repr::from_slice(&b)
        } else {
            Repr::Heap(b)
        }
    }
}

impl PartialEq for Repr {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Repr {}

impl PartialOrd for Repr {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Repr {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl std::hash::Hash for Repr {
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl Default for Repr {
    #[inline]
    fn default() -> Self {
        Repr::Inline {
            len: 0,
            buf: [0u8; INLINE_CAP],
        }
    }
}

/// The first 8 bytes of `bytes` as a big-endian u64 — [`Key::as_u64`] and
/// [`Value::as_u64`] for a payload still held as a borrowed slice (what
/// `map()` emitted). `None` for fewer than 8 bytes.
#[inline]
pub fn be_u64(bytes: &[u8]) -> Option<u64> {
    bytes
        .get(..8)
        .map(|b| u64::from_be_bytes(b.try_into().expect("slice is 8 bytes")))
}

/// An opaque record key. Ordering is lexicographic on the raw bytes, which
/// is what the sort-merge baseline sorts by.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Key {
    repr: Repr,
}

/// An opaque record value. Ordering is lexicographic on the raw bytes
/// (used only for stable output presentation).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Value {
    repr: Repr,
}

impl Key {
    /// Builds a key from anything convertible to [`Bytes`] (e.g. `&'static
    /// str`, `Vec<u8>`, another `Bytes`). Small payloads are stored inline.
    pub fn new(b: impl Into<Bytes>) -> Self {
        Key {
            repr: Repr::from_bytes(b.into()),
        }
    }

    /// Builds a key directly from a borrowed slice — the zero-allocation
    /// path for payloads of up to [`INLINE_CAP`] bytes.
    #[inline]
    pub fn from_slice(s: &[u8]) -> Self {
        Key {
            repr: Repr::from_slice(s),
        }
    }

    /// Builds a key from a u64 in big-endian form, so numeric order matches
    /// lexicographic byte order. Used by workloads with integer keys
    /// (user-ids). Never allocates.
    #[inline]
    pub fn from_u64(v: u64) -> Self {
        Key::from_slice(&v.to_be_bytes())
    }

    /// Interprets the first 8 bytes as a big-endian u64 (the inverse of
    /// [`Key::from_u64`]). Returns `None` for short keys.
    pub fn as_u64(&self) -> Option<u64> {
        be_u64(self.bytes())
    }

    /// The raw key bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        self.repr.as_slice()
    }

    /// Length of the key in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// Whether the key is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bytes().is_empty()
    }

    /// Forces the heap representation even for payloads that would fit
    /// inline. Exists only so representation-independence tests can compare
    /// both variants over identical bytes; the data path never uses it.
    #[doc(hidden)]
    pub fn forced_heap(b: impl Into<Bytes>) -> Self {
        Key {
            repr: Repr::Heap(b.into()),
        }
    }
}

impl Value {
    /// Builds a value from anything convertible to [`Bytes`]. Small
    /// payloads are stored inline.
    pub fn new(b: impl Into<Bytes>) -> Self {
        Value {
            repr: Repr::from_bytes(b.into()),
        }
    }

    /// Builds a value directly from a borrowed slice — the zero-allocation
    /// path for payloads of up to [`INLINE_CAP`] bytes.
    #[inline]
    pub fn from_slice(s: &[u8]) -> Self {
        Value {
            repr: Repr::from_slice(s),
        }
    }

    /// Builds a value from the concatenation of `parts` — the assembly path
    /// for payloads above [`INLINE_CAP`] (large incremental states, output
    /// records): exactly one allocation and one copy, where collecting
    /// into a `Vec` and calling [`Value::new`] costs two of each. Small
    /// results are stored inline and do not allocate at all.
    pub fn concat(parts: &[&[u8]]) -> Self {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        if len > INLINE_CAP {
            return Value {
                repr: Repr::Heap(Bytes::concat(parts)),
            };
        }
        let mut buf = [0u8; INLINE_CAP];
        let mut at = 0;
        for p in parts {
            buf[at..at + p.len()].copy_from_slice(p);
            at += p.len();
        }
        Value {
            repr: Repr::Inline {
                len: len as u8,
                buf,
            },
        }
    }

    /// Builds a value holding a big-endian u64 (e.g. a count). Never
    /// allocates.
    #[inline]
    pub fn from_u64(v: u64) -> Self {
        Value::from_slice(&v.to_be_bytes())
    }

    /// Interprets the first 8 bytes as a big-endian u64.
    pub fn as_u64(&self) -> Option<u64> {
        be_u64(self.bytes())
    }

    /// The raw value bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        self.repr.as_slice()
    }

    /// Length of the value in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// Whether the value is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bytes().is_empty()
    }

    /// Forces the heap representation even for payloads that would fit
    /// inline. Exists only so representation-independence tests can compare
    /// both variants over identical bytes; the data path never uses it.
    #[doc(hidden)]
    pub fn forced_heap(b: impl Into<Bytes>) -> Self {
        Value {
            repr: Repr::Heap(b.into()),
        }
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match std::str::from_utf8(self.bytes()) {
            Ok(s) if s.chars().all(|c| !c.is_control()) => write!(f, "Key({s:?})"),
            _ => write!(f, "Key(0x{})", hex(self.bytes())),
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match std::str::from_utf8(self.bytes()) {
            Ok(s) if s.chars().all(|c| !c.is_control()) => write!(f, "Value({s:?})"),
            _ => write!(f, "Value(0x{})", hex(self.bytes())),
        }
    }
}

/// Lower-case hex rendering into one pre-sized `String` (the Debug path —
/// no per-byte allocation).
fn hex(b: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(b.len() * 2);
    for &x in b {
        s.push(DIGITS[(x >> 4) as usize] as char);
        s.push(DIGITS[(x & 0xf) as usize] as char);
    }
    s
}

impl From<&str> for Key {
    fn from(s: &str) -> Self {
        Key::from_slice(s.as_bytes())
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::from_slice(s.as_bytes())
    }
}

/// A ⟨key, value⟩ pair, the unit of map output in the classic model. The
/// incremental frameworks ship and stage ⟨key, state⟩ pairs in the same
/// type: after `init()` (paper §4.2) the value *is* the state, held as bytes
/// like any value (§5). Which of the two a row carries is the framework's
/// to know, never the row's.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pair {
    /// Grouping key.
    pub key: Key,
    /// Payload: the value, or the state of a key-state pair.
    pub value: Value,
}

impl Pair {
    /// Builds a pair.
    pub fn new(key: Key, value: Value) -> Self {
        Pair { key, value }
    }

    /// Serialized size used for all buffer/spill accounting: key bytes +
    /// value bytes + [`RECORD_OVERHEAD`].
    #[inline]
    pub fn size(&self) -> u64 {
        self.key.len() as u64 + self.value.len() as u64 + RECORD_OVERHEAD
    }
}

/// A shuffled batch of key-value (or key-state) pairs plus an optional cache of their
/// partition-time `h1` fingerprints (parallel to `pairs` when present).
/// The hashes are a pure cache — equality and serialization ignore them —
/// carried so reduce-side group tables can probe without re-hashing.
#[derive(Clone, Debug, Default)]
pub struct RecordBatch {
    pairs: Vec<Pair>,
    hashes: Vec<u64>,
    /// Running serialized size of `pairs` — kept on push so accounting
    /// never rescans the rows.
    size: u64,
}

impl RecordBatch {
    /// A batch over existing pairs with no cached hashes (consumers
    /// recompute on demand).
    pub fn from_pairs(pairs: Vec<Pair>) -> Self {
        let size = pairs.iter().map(Pair::size).sum();
        RecordBatch {
            pairs,
            hashes: Vec::new(),
            size,
        }
    }

    /// A batch with a full parallel hash cache.
    pub fn with_hashes(pairs: Vec<Pair>, hashes: Vec<u64>) -> Self {
        debug_assert!(hashes.is_empty() || hashes.len() == pairs.len());
        let size = pairs.iter().map(Pair::size).sum();
        RecordBatch {
            pairs,
            hashes,
            size,
        }
    }

    /// An empty batch expecting `cap` rows.
    pub fn with_capacity(cap: usize) -> Self {
        RecordBatch {
            pairs: Vec::with_capacity(cap),
            hashes: Vec::with_capacity(cap),
            size: 0,
        }
    }

    /// Appends one row with its cached hash.
    #[inline]
    pub fn push_hashed(&mut self, pair: Pair, hash: u64) {
        debug_assert_eq!(self.hashes.len(), self.pairs.len());
        self.size += pair.size();
        self.pairs.push(pair);
        self.hashes.push(hash);
    }

    /// The rows.
    #[inline]
    pub fn pairs(&self) -> &[Pair] {
        &self.pairs
    }

    /// The cached `h1` fingerprint of row `i`, if this batch carries one.
    #[inline]
    pub fn hash_at(&self, i: usize) -> Option<u64> {
        self.hashes.get(i).copied()
    }

    /// Consumes the batch, returning the rows.
    pub fn into_pairs(self) -> Vec<Pair> {
        self.pairs
    }

    /// Consumes the batch, returning rows and the (possibly empty) hash
    /// cache separately.
    pub fn into_parts(self) -> (Vec<Pair>, Vec<u64>) {
        (self.pairs, self.hashes)
    }

    /// Serialized size of all rows (accounting). O(1): maintained on push.
    pub fn bytes(&self) -> u64 {
        self.size
    }
}

impl PartialEq for RecordBatch {
    fn eq(&self, other: &Self) -> bool {
        self.pairs == other.pairs
    }
}
impl Eq for RecordBatch {}

impl std::ops::Deref for RecordBatch {
    type Target = [Pair];
    #[inline]
    fn deref(&self) -> &[Pair] {
        &self.pairs
    }
}

impl IntoIterator for RecordBatch {
    type Item = Pair;
    type IntoIter = std::vec::IntoIter<Pair>;
    fn into_iter(self) -> Self::IntoIter {
        self.pairs.into_iter()
    }
}

impl<'a> IntoIterator for &'a RecordBatch {
    type Item = &'a Pair;
    type IntoIter = std::slice::Iter<'a, Pair>;
    fn into_iter(self) -> Self::IntoIter {
        self.pairs.iter()
    }
}

/// One payload slot recorded by [`BatchBuilder`] before sealing: either a
/// ready inline representation or an offset/len window into the arena.
#[derive(Clone)]
enum Slot {
    Ready(Repr),
    Arena { off: u32, len: u32 },
}

/// Arena-batched map-output collector: the zero-allocation emit path of
/// the frameworks that need the whole run materialised (sort-merge,
/// combiner-less MR-hash).
///
/// Payloads of up to [`INLINE_CAP`] bytes become inline representations on
/// the spot; larger payloads are appended to one append-only byte arena
/// shared by the whole chunk. [`BatchBuilder::seal`] freezes the arena into
/// a single shared allocation and turns every large payload into a
/// zero-copy offset/len view over it — so a map task performs O(1) heap
/// allocations regardless of how many records it emits.
#[derive(Default)]
pub struct BatchBuilder {
    arena: Vec<u8>,
    rows: Vec<(Slot, Slot)>,
}

impl BatchBuilder {
    /// A builder expecting roughly `rows` emitted pairs.
    pub fn with_capacity(rows: usize) -> Self {
        BatchBuilder {
            arena: Vec::new(),
            rows: Vec::with_capacity(rows),
        }
    }

    #[inline]
    fn slot(&mut self, payload: &[u8]) -> Slot {
        if payload.len() <= INLINE_CAP {
            Slot::Ready(Repr::from_slice(payload))
        } else {
            let off = self.arena.len();
            assert!(
                off + payload.len() <= u32::MAX as usize,
                "map-output arena exceeds 4 GiB"
            );
            self.arena.extend_from_slice(payload);
            Slot::Arena {
                off: off as u32,
                len: payload.len() as u32,
            }
        }
    }

    /// Records one emitted ⟨key, value⟩ pair.
    #[inline]
    pub fn push(&mut self, key: &[u8], value: &[u8]) {
        let k = self.slot(key);
        let v = self.slot(value);
        self.rows.push((k, v));
    }

    /// Number of rows recorded so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no rows have been recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Freezes the arena and resolves every row into a [`Pair`] whose
    /// large payloads are zero-copy views over the shared arena.
    pub fn seal(self) -> Vec<Pair> {
        let arena = Bytes::from(self.arena);
        let resolve = |slot: Slot| -> Repr {
            match slot {
                Slot::Ready(r) => r,
                Slot::Arena { off, len } => {
                    Repr::Heap(arena.slice(off as usize..(off + len) as usize))
                }
            }
        };
        self.rows
            .into_iter()
            .map(|(k, v)| Pair::new(Key { repr: resolve(k) }, Value { repr: resolve(v) }))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_key_roundtrip_preserves_order() {
        let a = Key::from_u64(3);
        let b = Key::from_u64(200);
        let c = Key::from_u64(70_000);
        assert!(a < b && b < c, "big-endian keys must sort numerically");
        assert_eq!(b.as_u64(), Some(200));
    }

    #[test]
    fn short_key_as_u64_is_none() {
        assert_eq!(Key::from("abc").as_u64(), None);
    }

    #[test]
    fn footprints() {
        use std::mem::size_of;
        // What DESIGN §3.4 and the map-collector docs quote: the width of
        // every row the engine holds follows from the 16-byte handle.
        assert_eq!(size_of::<Bytes>(), 16);
        assert_eq!(INLINE_CAP, 22);
        assert_eq!(size_of::<Key>(), 24);
        assert_eq!(size_of::<Value>(), 24);
        assert_eq!(size_of::<Option<Key>>(), 24);
        assert_eq!(size_of::<Pair>(), 48);
        // A `GroupTable` row: fingerprint, key, state.
        assert_eq!(size_of::<(u64, Key, Value)>(), 56);
        // One payload of a `BatchBuilder` row before sealing.
        assert_eq!(size_of::<Slot>(), 24);
    }

    #[test]
    fn pair_size_includes_overhead() {
        let p = Pair::new(Key::from("user1"), Value::from("click"));
        assert_eq!(p.size(), 5 + 5 + RECORD_OVERHEAD);
    }

    #[test]
    fn state_pair_size() {
        // A key-state pair is a `Pair` whose value is the state.
        let p = Pair::new(Key::from_u64(1), Value::new(vec![0u8; 512]));
        assert_eq!(p.size(), 8 + 512 + RECORD_OVERHEAD);
    }

    #[test]
    fn debug_renders_text_and_binary() {
        assert_eq!(format!("{:?}", Key::from("abc")), "Key(\"abc\")");
        let dbg = format!("{:?}", Key::new(vec![0u8, 1u8]));
        assert!(dbg.starts_with("Key(0x0001"), "{dbg}");
    }

    #[test]
    fn value_u64_roundtrip() {
        assert_eq!(Value::from_u64(42).as_u64(), Some(42));
    }

    #[test]
    fn concat_equals_the_joined_bytes_on_both_representations() {
        let small = Value::concat(&[b"ab", b"", b"cd"]);
        assert_eq!(small, Value::from("abcd"));
        let tail = [9u8; INLINE_CAP];
        let large = Value::concat(&[b"x", &tail]);
        let mut joined = vec![b'x'];
        joined.extend_from_slice(&tail);
        assert_eq!(large, Value::new(joined));
        assert_eq!(large.len(), INLINE_CAP + 1);
        assert_eq!(Value::concat(&[]), Value::default());
        assert_eq!(Value::concat(&[b""]), Value::default());
        // Empty parts between large ones, on the heap path.
        assert_eq!(
            Value::concat(&[b"", &tail, b"", b"x", b""]).len(),
            INLINE_CAP + 1
        );
    }

    #[test]
    fn clone_is_shallow() {
        // Large payloads stay heap-backed; clones share the allocation.
        let v = Value::new(vec![7u8; 1024]);
        let w = v.clone();
        assert_eq!(v.bytes().as_ptr(), w.bytes().as_ptr());
    }

    #[test]
    fn small_payloads_are_inline() {
        // At or below the cap, the representation must be inline: a clone
        // gets its own copy of the bytes (distinct addresses).
        for n in [1usize, 8, INLINE_CAP] {
            let payload: Vec<u8> = (0..n).map(|i| i as u8).collect();
            let v = Value::new(payload);
            let w = v.clone();
            assert_ne!(v.bytes().as_ptr(), w.bytes().as_ptr(), "len {n}");
            assert_eq!(v, w);
        }
    }

    #[test]
    fn inline_and_heap_representations_are_indistinguishable() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        for n in [0usize, 1, 21, 22, 23, 100] {
            let payload: Vec<u8> = (0..n).map(|i| (i * 7) as u8).collect();
            let inline_or_heap = Key::from_slice(&payload);
            // Force the heap path through an arena slice view.
            let mut builder = BatchBuilder::with_capacity(1);
            builder.push(&payload, b"");
            let via_builder = builder.seal().remove(0).key;
            assert_eq!(inline_or_heap, via_builder, "len {n}");
            assert_eq!(
                inline_or_heap.cmp(&via_builder),
                std::cmp::Ordering::Equal,
                "len {n}"
            );
            let h = |k: &Key| {
                let mut st = DefaultHasher::new();
                k.hash(&mut st);
                st.finish()
            };
            assert_eq!(h(&inline_or_heap), h(&via_builder), "len {n}");
        }
    }

    #[test]
    fn batch_builder_shares_one_arena() {
        let big_a = vec![1u8; 100];
        let big_b = vec![2u8; 200];
        let mut b = BatchBuilder::with_capacity(3);
        b.push(&big_a, b"x"); // large key, inline value
        b.push(b"k", &big_b); // inline key, large value
        b.push(b"small", b"tiny"); // fully inline row
        let pairs = b.seal();
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs[0].key.bytes(), &big_a[..]);
        assert_eq!(pairs[1].value.bytes(), &big_b[..]);
        assert_eq!(pairs[2].key.bytes(), b"small");
        // The two large payloads are views over the same allocation.
        let a_ptr = pairs[0].key.bytes().as_ptr();
        let b_ptr = pairs[1].value.bytes().as_ptr();
        assert_eq!(unsafe { a_ptr.add(100) }, b_ptr, "contiguous arena views");
    }

    #[test]
    fn record_batch_equality_ignores_hash_cache() {
        let pairs = vec![Pair::new(Key::from_u64(1), Value::from_u64(2))];
        let plain = RecordBatch::from_pairs(pairs.clone());
        let hashed = RecordBatch::with_hashes(pairs, vec![0xdead_beef]);
        assert_eq!(plain, hashed);
        assert_eq!(hashed.hash_at(0), Some(0xdead_beef));
        assert_eq!(plain.hash_at(0), None);
    }
}
