//! Universal hashing.
//!
//! The paper's hash framework (§4.1) relies on *a series of independent hash
//! functions* `h1, h2, h3, …`: `h1` partitions map output across reducers,
//! `h2` splits a reducer's input into buckets, `h3` performs in-memory
//! group-by, `h4…` drive recursive partitioning. Independence matters — if
//! `h2` and `h3` were correlated, every bucket would collapse into a few
//! hash-table slots.
//!
//! We implement a Carter–Wegman style family: the key bytes are first
//! compressed to a 64-bit fingerprint with a seeded polynomial (distinct odd
//! multiplier per function), then diffused through the SplitMix64 finalizer,
//! which is a bijection on `u64`. Each [`HashFn`] draws its parameters from
//! an independent stream of a seeded PCG, so `HashFamily::new(seed).fn_at(i)`
//! is stable across runs and platforms.

use crate::rng::SplitMix64;
use crate::types::Key;

/// One member of the hash family. Cheap to copy; hashing allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashFn {
    /// Odd multiplier for the byte-polynomial compression stage.
    mul: u64,
    /// Additive seed mixed into the initial accumulator.
    add: u64,
    /// Post-compression xor mask, distinct per function.
    mask: u64,
    /// Cached powers `mul²..mul⁴` (mod 2⁶⁴) for the 4-word unrolled
    /// polynomial step. Pure functions of `mul`, precomputed at
    /// construction so the hot loop carries no serial multiply chain.
    mul2: u64,
    mul3: u64,
    mul4: u64,
}

impl HashFn {
    fn from_params(mul: u64, add: u64, mask: u64) -> Self {
        let mul2 = mul.wrapping_mul(mul);
        HashFn {
            mul,
            add,
            mask,
            mul2,
            mul3: mul2.wrapping_mul(mul),
            mul4: mul2.wrapping_mul(mul2),
        }
    }

    /// Hashes raw bytes to a 64-bit fingerprint.
    ///
    /// SWAR-style 4-lane unroll of the byte polynomial: by Horner's rule,
    /// four steps of `acc ← acc·m + vᵢ` equal
    /// `acc·m⁴ + v₀·m³ + v₁·m² + v₂·m + v₃`, exactly, in the wrapping
    /// arithmetic of `Z/2⁶⁴` — so the four word multiplies become
    /// independent and the serial dependency chain shrinks from four
    /// multiplies per 32 bytes to one. A 1–7-byte tail is read with
    /// loads, not copied into a buffer (`tail_word`). Bit-identical to
    /// [`HashFn::hash_reference`] (property-tested in
    /// `tests/swar_equivalence.rs`).
    #[inline]
    pub fn hash(&self, data: &[u8]) -> u64 {
        let mut acc = self.add ^ (data.len() as u64).wrapping_mul(self.mul);
        let mut blocks = data.chunks_exact(32);
        for b in &mut blocks {
            let v0 = u64::from_le_bytes(b[..8].try_into().expect("8 bytes"));
            let v1 = u64::from_le_bytes(b[8..16].try_into().expect("8 bytes"));
            let v2 = u64::from_le_bytes(b[16..24].try_into().expect("8 bytes"));
            let v3 = u64::from_le_bytes(b[24..].try_into().expect("8 bytes"));
            acc = acc
                .wrapping_mul(self.mul4)
                .wrapping_add(v0.wrapping_mul(self.mul3))
                .wrapping_add(v1.wrapping_mul(self.mul2))
                .wrapping_add(v2.wrapping_mul(self.mul))
                .wrapping_add(v3);
        }
        // Consume remaining 8-byte words, then the tail.
        let mut chunks = blocks.remainder().chunks_exact(8);
        for w in &mut chunks {
            let v = u64::from_le_bytes(w.try_into().expect("chunk is 8 bytes"));
            acc = acc.wrapping_mul(self.mul).wrapping_add(v);
        }
        if !chunks.remainder().is_empty() {
            acc = acc.wrapping_mul(self.mul).wrapping_add(tail_word(data));
        }
        finalize(acc ^ self.mask)
    }

    /// The scalar reference implementation of [`HashFn::hash`]: one
    /// 8-byte word per polynomial step, no unrolling. This is the
    /// specification the fast path must match bit-for-bit; it exists so
    /// equivalence tests compare against an independent implementation
    /// rather than the optimized code against itself.
    pub fn hash_reference(&self, data: &[u8]) -> u64 {
        let mut acc = self.add ^ (data.len() as u64).wrapping_mul(self.mul);
        let mut chunks = data.chunks_exact(8);
        for w in &mut chunks {
            let v = u64::from_le_bytes(w.try_into().expect("chunk is 8 bytes"));
            acc = acc.wrapping_mul(self.mul).wrapping_add(v);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            acc = acc
                .wrapping_mul(self.mul)
                .wrapping_add(u64::from_le_bytes(tail));
        }
        finalize(acc ^ self.mask)
    }

    /// Hashes bytes into one of `m` buckets (`m > 0`).
    #[inline]
    pub fn bucket(&self, data: &[u8], m: usize) -> usize {
        bucket_of(self.hash(data), m)
    }
}

/// Maps a precomputed 64-bit fingerprint into one of `m` buckets — the
/// multiply-high mapping behind [`HashFn::bucket`], split out so the hash
/// can be computed once and reused for both partitioning and group-table
/// probes. `bucket_of(h.hash(k), m) == h.bucket(k, m)` bit-identically.
#[inline]
pub fn bucket_of(hash: u64, m: usize) -> usize {
    debug_assert!(m > 0, "bucket count must be positive");
    // Multiply-high maps the uniform u64 to [0, m) with less bias than
    // a modulo and no division.
    (((hash as u128) * (m as u128)) >> 64) as usize
}

/// The last `data.len() % 8` bytes of `data` as a little-endian word,
/// zero-extended — what copying them into a zeroed `[u8; 8]` would read,
/// without the variable-length copy. A key of 8 bytes or more yields its
/// tail from one overlapping load of its last 8 bytes; a shorter key from
/// two overlapping 4-byte loads or three byte loads. `0` when the length
/// is a multiple of 8.
#[inline(always)]
fn tail_word(data: &[u8]) -> u64 {
    let len = data.len();
    let r = len % 8;
    if r == 0 {
        0
    } else if len >= 8 {
        let last: [u8; 8] = data[len - 8..].try_into().expect("8 bytes");
        u64::from_le_bytes(last) >> (8 * (8 - r))
    } else if r >= 4 {
        let lo = u32::from_le_bytes(data[..4].try_into().expect("4 bytes"));
        let hi = u32::from_le_bytes(data[r - 4..].try_into().expect("4 bytes"));
        u64::from(lo) | (u64::from(hi) << (8 * (r - 4)))
    } else {
        u64::from(data[0])
            | (u64::from(data[r / 2]) << (8 * (r / 2)))
            | (u64::from(data[r - 1]) << (8 * (r - 1)))
    }
}

/// SplitMix64 finalizer: a full-avalanche bijection on `u64`.
#[inline]
fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// A reproducible family of independent hash functions.
///
/// ```
/// use opa_common::hash::HashFamily;
/// let fam = HashFamily::new(42);
/// let h1 = fam.fn_at(0);
/// let h2 = fam.fn_at(1);
/// assert_ne!(h1.hash(b"user-17"), h2.hash(b"user-17"));
/// // Deterministic across instantiations:
/// assert_eq!(h1.hash(b"x"), HashFamily::new(42).fn_at(0).hash(b"x"));
/// ```
#[derive(Debug, Clone)]
pub struct HashFamily {
    seed: u64,
}

impl HashFamily {
    /// Creates a family from a seed. The same seed always yields the same
    /// functions.
    pub fn new(seed: u64) -> Self {
        HashFamily { seed }
    }

    /// Returns the `i`-th function of the family (`h_{i+1}` in the paper's
    /// notation). Functions at distinct indices are independent.
    pub fn fn_at(&self, i: usize) -> HashFn {
        // Derive three parameters from an index-keyed SplitMix stream.
        let mut sm = SplitMix64::new(self.seed ^ (i as u64).wrapping_mul(0x9e3779b97f4a7c15));
        let mul = sm.next() | 1; // multiplier must be odd
        let add = sm.next();
        let mask = sm.next();
        HashFn::from_params(mul, add, mask)
    }
}

/// A deterministic seeded [`std::hash::BuildHasher`] drawn from the same
/// Carter–Wegman family as [`HashFn`], replacing `RandomState` in every
/// group-by `HashMap`. Two wins over SipHash-with-random-keys: the
/// polynomial+SplitMix pipeline is markedly cheaper per probe, and the
/// seed is fixed, so any incidental iteration over such a map is
/// reproducible across runs and platforms. Output determinism never rests
/// on this — every group-by table in the engine pairs the map with an
/// insertion-ordered `Vec` — but reproducible iteration removes a whole
/// class of latent nondeterminism.
#[derive(Debug, Clone, Copy)]
pub struct SeededState {
    f: HashFn,
}

impl SeededState {
    /// A build-hasher derived from an explicit hash function.
    pub fn from_fn(f: HashFn) -> Self {
        SeededState { f }
    }

    /// The fixed engine-wide instance used for group-by tables whose
    /// call sites have no `HashFamily` in scope. The seed is arbitrary
    /// but pinned; it is deliberately distinct from the partitioning
    /// functions `h1..h4` (family index 63) so table layout cannot
    /// correlate with partitioning.
    pub fn fixed() -> Self {
        SeededState {
            f: HashFamily::new(0x6f70_615f_6873_6831).fn_at(63),
        }
    }
}

impl Default for SeededState {
    fn default() -> Self {
        SeededState::fixed()
    }
}

impl std::hash::BuildHasher for SeededState {
    type Hasher = SeededHasher;
    #[inline]
    fn build_hasher(&self) -> SeededHasher {
        SeededHasher {
            acc: self.f.add,
            mul: self.f.mul,
            mask: self.f.mask,
        }
    }
}

/// Streaming hasher behind [`SeededState`]: the same byte-polynomial
/// compression as [`HashFn::hash`], folded word-at-a-time over whatever
/// the `Hash` impl writes, finished with the SplitMix64 bijection.
#[derive(Debug, Clone)]
pub struct SeededHasher {
    acc: u64,
    mul: u64,
    mask: u64,
}

impl std::hash::Hasher for SeededHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for w in &mut chunks {
            let v = u64::from_le_bytes(w.try_into().expect("chunk is 8 bytes"));
            self.acc = self.acc.wrapping_mul(self.mul).wrapping_add(v);
        }
        let r = chunks.remainder().len();
        if r != 0 {
            self.acc = self
                .acc
                .wrapping_mul(self.mul)
                .wrapping_add(tail_word(bytes))
                .wrapping_add(r as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.acc = self.acc.wrapping_mul(self.mul).wrapping_add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64 ^ 0x9e37);
    }

    #[inline]
    fn finish(&self) -> u64 {
        finalize(self.acc ^ self.mask)
    }
}

/// Sentinel marking an empty [`GroupIndex`] slot.
const EMPTY: u32 = u32::MAX;

/// A minimal open-addressing index from a precomputed 64-bit fingerprint
/// to a dense row id — the probe side of [`GroupTable`], which owns the
/// rows and is the only user.
///
/// Unlike `HashMap<Key, usize>` it stores **no keys at all**: the table
/// supplies an equality closure that compares against `rows[candidate]`.
/// That removes a per-distinct-key `Key` clone, and — because the caller
/// passes the fingerprint — lets the partition-time `h1` hash be computed
/// once and carried all the way into the reduce-table probe. The index
/// never iterates, so its layout cannot influence output order.
#[derive(Debug, Clone, Default)]
struct GroupIndex {
    /// Parallel arrays: fingerprint and row id per slot (`EMPTY` = free).
    fps: Vec<u64>,
    rows: Vec<u32>,
    /// Slot mask (`slots.len() - 1`, capacity is a power of two).
    mask: usize,
    len: usize,
}

impl GroupIndex {
    /// An index expecting roughly `cap` distinct rows.
    fn with_capacity(cap: usize) -> Self {
        let mut index = GroupIndex::default();
        index.reserve(cap);
        index
    }

    /// Number of rows indexed.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Looks up the row whose fingerprint is `fp` and for which `eq`
    /// confirms a true key match (guarding against fingerprint
    /// collisions).
    #[inline]
    fn get(&self, fp: u64, mut eq: impl FnMut(usize) -> bool) -> Option<usize> {
        if self.rows.is_empty() {
            // A `Default` index has no slots yet; `insert` grows it lazily.
            return None;
        }
        let mut slot = (fp as usize) & self.mask;
        loop {
            let row = self.rows[slot];
            if row == EMPTY {
                return None;
            }
            if self.fps[slot] == fp && eq(row as usize) {
                return Some(row as usize);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Inserts a fingerprint → row mapping. The caller has already
    /// established via [`GroupIndex::get`] that the key is absent.
    #[inline]
    fn insert(&mut self, fp: u64, row: usize) {
        debug_assert!(row < EMPTY as usize);
        if (self.len + 1) * 8 > (self.mask + 1) * 7 {
            self.grow();
        }
        self.insert_slot(fp, row as u32);
        self.len += 1;
    }

    #[inline]
    fn insert_slot(&mut self, fp: u64, row: u32) {
        let mut slot = (fp as usize) & self.mask;
        while self.rows[slot] != EMPTY {
            slot = (slot + 1) & self.mask;
        }
        self.fps[slot] = fp;
        self.rows[slot] = row;
    }

    fn grow(&mut self) {
        self.rebuild((self.mask + 1) * 2);
    }

    /// Makes room for `cap` rows in one rebuild instead of the doublings
    /// that lead there. Never shrinks.
    fn reserve(&mut self, cap: usize) {
        let slots = (cap.max(4) * 8 / 7).next_power_of_two();
        if slots > self.rows.len() {
            self.rebuild(slots);
        }
    }

    fn rebuild(&mut self, new_slots: usize) {
        let old_fps = std::mem::replace(&mut self.fps, vec![0; new_slots]);
        let old_rows = std::mem::replace(&mut self.rows, vec![EMPTY; new_slots]);
        self.mask = new_slots - 1;
        for (fp, row) in old_fps.into_iter().zip(old_rows) {
            if row != EMPTY {
                self.insert_slot(fp, row);
            }
        }
    }

    /// Drops every entry, keeping the allocation.
    fn clear(&mut self) {
        self.fps.fill(0);
        self.rows.fill(EMPTY);
        self.len = 0;
    }

    /// Removes the mapping `fp → row`, restoring the linear-probe
    /// invariant with backward-shift deletion (no tombstones, so probe
    /// chains never grow from deletions). Returns whether the mapping
    /// existed. Deterministic: the resulting slot layout is a pure
    /// function of the insert/remove sequence.
    fn remove(&mut self, fp: u64, row: usize) -> bool {
        if self.rows.is_empty() {
            return false;
        }
        let mut slot = (fp as usize) & self.mask;
        loop {
            let r = self.rows[slot];
            if r == EMPTY {
                return false;
            }
            if self.fps[slot] == fp && r as usize == row {
                break;
            }
            slot = (slot + 1) & self.mask;
        }
        // Backward-shift: walk the cluster after `slot`; any entry whose
        // probe path passes through the vacated slot moves back into it.
        let mut hole = slot;
        let mut probe = slot;
        loop {
            probe = (probe + 1) & self.mask;
            if self.rows[probe] == EMPTY {
                break;
            }
            let ideal = (self.fps[probe] as usize) & self.mask;
            if (probe.wrapping_sub(ideal) & self.mask) >= (probe.wrapping_sub(hole) & self.mask) {
                self.fps[hole] = self.fps[probe];
                self.rows[hole] = self.rows[probe];
                hole = probe;
            }
        }
        self.fps[hole] = 0;
        self.rows[hole] = EMPTY;
        self.len -= 1;
        true
    }

    /// Rewrites the mapping `fp → old_row` to point at `new_row` (the
    /// table moved the row, via `swap_remove`). Returns whether the mapping
    /// existed.
    fn reindex(&mut self, fp: u64, old_row: usize, new_row: usize) -> bool {
        debug_assert!(new_row < EMPTY as usize);
        if self.rows.is_empty() {
            return false;
        }
        let mut slot = (fp as usize) & self.mask;
        loop {
            let r = self.rows[slot];
            if r == EMPTY {
                return false;
            }
            if self.fps[slot] == fp && r as usize == old_row {
                self.rows[slot] = new_row as u32;
                return true;
            }
            slot = (slot + 1) & self.mask;
        }
    }
}

/// The engine's one group-by table: key → `V` rows in insertion order,
/// probed by a fingerprint the caller already holds (the partition-time
/// `h1` hash, carried from the map side into every reduce-side probe).
///
/// Every hash technique of the paper (§4) and the Hash-based Map Output
/// component (§5) is this table plus a rule for *which keys stay
/// resident*; the callers differ only in that rule and in `V`. Rows are
/// dense — [`GroupTable::swap_remove`] keeps them so, repairing the index
/// itself — and are only ever enumerated in row order, so the slot layout
/// can never reach an output.
#[derive(Debug, Clone, Default)]
pub struct GroupTable<V> {
    /// `(fingerprint, key, value)` in first-seen order, perturbed only by
    /// `swap_remove`.
    rows: Vec<(u64, Key, V)>,
    index: GroupIndex,
}

impl<V> GroupTable<V> {
    /// A table whose index is sized for roughly `cap` distinct keys, so
    /// it is not rebuilt on the way there. Row storage grows on demand.
    pub fn with_capacity(cap: usize) -> Self {
        GroupTable {
            rows: Vec::new(),
            index: GroupIndex::with_capacity(cap),
        }
    }

    /// Makes room — rows and index — for `additional` more keys in one
    /// step, for a caller whose estimate is good enough to spend the
    /// memory up front.
    pub fn reserve(&mut self, additional: usize) {
        self.rows.reserve(additional);
        self.index.reserve(self.rows.len() + additional);
    }

    /// Number of resident keys.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no key is resident.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The row holding `key`, whose fingerprint is `fp`.
    #[inline]
    pub fn find(&self, fp: u64, key: &Key) -> Option<usize> {
        self.find_bytes(fp, key.bytes())
    }

    /// [`GroupTable::find`] for a key the caller holds only as borrowed
    /// bytes — the map-side collectors probe with what `map()` emitted and
    /// build a [`Key`] only for a key that turns out to be new.
    #[inline]
    pub fn find_bytes(&self, fp: u64, key: &[u8]) -> Option<usize> {
        self.index.get(fp, |r| self.rows[r].1.bytes() == key)
    }

    /// Appends a row for a key that [`GroupTable::find`] just missed.
    #[inline]
    pub fn push(&mut self, fp: u64, key: Key, value: V) {
        self.index.insert(fp, self.rows.len());
        self.rows.push((fp, key, value));
    }

    /// Row `i`'s key and value.
    #[inline]
    pub fn row(&self, i: usize) -> (&Key, &V) {
        let (_, key, value) = &self.rows[i];
        (key, value)
    }

    /// Row `i`'s key and its value, mutably.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> (&Key, &mut V) {
        let (_, key, value) = &mut self.rows[i];
        (key, value)
    }

    /// Every resident `(key, value)`, in row order.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &V)> {
        self.rows.iter().map(|(_, key, value)| (key, value))
    }

    /// Removes row `i`, moving the last row into its place so the rows
    /// stay dense; the moved row's index entry follows it.
    pub fn swap_remove(&mut self, i: usize) -> (u64, Key, V) {
        let last = self.rows.len() - 1;
        self.index.remove(self.rows[i].0, i);
        let row = self.rows.swap_remove(i);
        if i < last {
            self.index.reindex(self.rows[i].0, last, i);
        }
        row
    }

    /// Consumes the table into its `(fingerprint, key, value)` rows, in
    /// row order. The index is freed at once, so what the caller does with
    /// the rows (finalize, ship, recurse) runs without the table's memory.
    pub fn into_rows(self) -> Vec<(u64, Key, V)> {
        self.rows
    }

    /// Empties the table into its `(fingerprint, key, value)` rows, in row
    /// order, keeping the row and index allocations for the next fill —
    /// for a caller that groups many inputs one after another, as the
    /// spilled-bucket pass does. The rows are gone once the iterator
    /// drops, whether or not it was run to the end.
    pub fn drain_rows(&mut self) -> std::vec::Drain<'_, (u64, Key, V)> {
        self.index.clear();
        self.rows.drain(..)
    }

    /// The rotating victim scan of the LFU admission gates: scores up to
    /// `probes` consecutive rows, starting where `cursor` points, with
    /// `est` over their stored fingerprints, and returns the first
    /// lowest-scoring row with its score. The cursor then advances by
    /// `probes`, so every resident is eventually considered while each
    /// call stays O(`probes`). `None` (cursor untouched) on an empty table.
    pub fn coldest(
        &self,
        cursor: &mut u64,
        probes: usize,
        est: impl Fn(u64) -> u32,
    ) -> Option<(usize, u32)> {
        let n = self.rows.len();
        if n == 0 {
            return None;
        }
        let start = (*cursor % n as u64) as usize;
        *cursor = cursor.wrapping_add(probes as u64);
        (0..probes.min(n))
            .map(|probe| {
                let i = (start + probe) % n;
                (i, est(self.rows[i].0))
            })
            .min_by_key(|&(_, score)| score)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic_across_instances() {
        let a = HashFamily::new(7).fn_at(3);
        let b = HashFamily::new(7).fn_at(3);
        for k in 0..100u64 {
            assert_eq!(a.hash(&k.to_le_bytes()), b.hash(&k.to_le_bytes()));
        }
    }

    #[test]
    fn distinct_indices_give_distinct_functions() {
        let fam = HashFamily::new(1);
        let h0 = fam.fn_at(0);
        let h1 = fam.fn_at(1);
        let differing = (0..1000u64)
            .filter(|k| h0.hash(&k.to_le_bytes()) != h1.hash(&k.to_le_bytes()))
            .count();
        assert!(differing > 990, "functions nearly identical: {differing}");
    }

    #[test]
    fn buckets_are_roughly_balanced() {
        let h = HashFamily::new(99).fn_at(0);
        let m = 16;
        let mut counts = vec![0usize; m];
        let n = 64_000u64;
        for k in 0..n {
            counts[h.bucket(&k.to_le_bytes(), m)] += 1;
        }
        let expect = n as usize / m;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect as f64).abs() < expect as f64 * 0.1,
                "bucket {i} holds {c}, expected ~{expect}"
            );
        }
    }

    #[test]
    fn pairwise_bucket_independence() {
        // Keys colliding under h2 should not preferentially collide under
        // h3: condition on one h2 bucket and check h3 spread.
        let fam = HashFamily::new(5);
        let (h2, h3) = (fam.fn_at(1), fam.fn_at(2));
        let m = 8;
        let in_bucket0: Vec<u64> = (0..100_000u64)
            .filter(|k| h2.bucket(&k.to_le_bytes(), m) == 0)
            .collect();
        assert!(in_bucket0.len() > 10_000);
        let mut counts = vec![0usize; m];
        for k in &in_bucket0 {
            counts[h3.bucket(&k.to_le_bytes(), m)] += 1;
        }
        let expect = in_bucket0.len() / m;
        for &c in &counts {
            assert!((c as f64 - expect as f64).abs() < expect as f64 * 0.15);
        }
    }

    #[test]
    fn few_collisions_on_sequential_keys() {
        let h = HashFamily::new(0).fn_at(0);
        let mut seen = HashSet::new();
        for k in 0..100_000u64 {
            seen.insert(h.hash(&k.to_le_bytes()));
        }
        // Birthday bound: expected collisions ~ n^2/2^65 ≈ 0.
        assert!(seen.len() >= 99_998);
    }

    #[test]
    fn seeded_state_is_deterministic_and_spreads() {
        use std::hash::BuildHasher;
        let s = SeededState::fixed();
        let mut seen = HashSet::new();
        for k in 0..50_000u64 {
            let h = s.hash_one(k.to_be_bytes());
            assert_eq!(h, SeededState::fixed().hash_one(k.to_be_bytes()));
            seen.insert(h);
        }
        assert!(seen.len() >= 49_998, "near-perfect spread expected");
    }

    #[test]
    fn group_index_probes_by_fingerprint() {
        let keys: Vec<u64> = (0..10_000).map(|k| k * 3 + 1).collect();
        let h = HashFamily::new(11).fn_at(0);
        let mut rows: Vec<u64> = Vec::new();
        let mut idx = GroupIndex::with_capacity(16);
        for &k in &keys {
            let fp = h.hash(&k.to_be_bytes());
            match idx.get(fp, |r| rows[r] == k) {
                Some(_) => panic!("duplicate insert"),
                None => {
                    idx.insert(fp, rows.len());
                    rows.push(k);
                }
            }
        }
        assert_eq!(idx.len(), keys.len());
        for &k in &keys {
            let fp = h.hash(&k.to_be_bytes());
            let r = idx.get(fp, |r| rows[r] == k).expect("present");
            assert_eq!(rows[r], k);
        }
        // Absent keys miss even when their fingerprint slot is occupied.
        for k in 100_000..100_100u64 {
            let fp = h.hash(&k.to_be_bytes());
            assert!(idx.get(fp, |r| rows[r] == k).is_none());
        }
        idx.clear();
        assert!(idx.is_empty());
        assert_eq!(idx.get(h.hash(&3u64.to_be_bytes()), |_| true), None);
    }

    #[test]
    fn group_index_agrees_with_hash_map_oracle() {
        // A seeded mix of insert / get / remove-with-swap_remove / clear
        // against `HashMap<key, row>`, over the keys reducer 0 of 40 would
        // hold: `bucket_of` confines their fingerprints' top bits to one
        // interval, which must not matter to an index that slots by the
        // low bits.
        use std::collections::HashMap;
        let h = HashFamily::new(21).fn_at(0);
        let local: Vec<u64> = (0..200_000u64)
            .filter(|k| bucket_of(h.hash(&k.to_be_bytes()), 40) == 0)
            .collect();
        assert!(local.len() > 3000, "sample too small: {}", local.len());
        let fp = |k: u64| h.hash(&k.to_be_bytes());

        let mut rows: Vec<u64> = Vec::new();
        let mut idx = GroupIndex::default();
        let mut oracle: HashMap<u64, usize> = HashMap::new();
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..60_000usize {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = local[(rng >> 33) as usize % local.len()];
            let hit = idx.get(fp(k), |r| rows[r] == k);
            assert_eq!(hit, oracle.get(&k).copied(), "lookup of key {k}");
            match (hit, (rng >> 20) % 4) {
                (None, _) => {
                    idx.insert(fp(k), rows.len());
                    oracle.insert(k, rows.len());
                    rows.push(k);
                }
                // The eviction pattern: swap_remove the row, then point
                // the moved last row's mapping at its new position.
                (Some(r), 0) => {
                    assert!(idx.remove(fp(k), r));
                    assert!(!idx.remove(fp(k), r), "second remove is a no-op");
                    oracle.remove(&k);
                    rows.swap_remove(r);
                    if let Some(&moved) = rows.get(r) {
                        assert!(idx.reindex(fp(moved), rows.len(), r), "moved key {moved}");
                        oracle.insert(moved, r);
                    }
                }
                (Some(_), _) => {}
            }
            assert_eq!(idx.len(), oracle.len());
            if step % 20_000 == 19_999 {
                idx.clear();
                oracle.clear();
                rows.clear();
                assert!(idx.is_empty());
            }
        }
        for (r, &k) in rows.iter().enumerate() {
            assert_eq!(idx.get(fp(k), |c| rows[c] == k), Some(r), "key {k}");
        }
    }

    #[test]
    fn drain_rows_empties_and_keeps_the_allocations() {
        let h = HashFamily::new(31).fn_at(0);
        let fp = |k: u64| h.hash(&k.to_be_bytes());
        let mut table: GroupTable<u64> = GroupTable::default();
        for round in 0..3u64 {
            let keys: Vec<u64> = (0..500).map(|k| k * 7 + round).collect();
            for &k in &keys {
                let key = Key::from_u64(k);
                assert_eq!(
                    table.find(fp(k), &key),
                    None,
                    "round {round}: {k} left over"
                );
                table.push(fp(k), key, k * 2);
            }
            let (rows, slots) = (table.rows.capacity(), table.index.rows.len());
            let drained: Vec<(u64, u64, u64)> = table
                .drain_rows()
                .map(|(f, key, v)| (f, key.as_u64().unwrap(), v))
                .collect();
            let want: Vec<(u64, u64, u64)> = keys.iter().map(|&k| (fp(k), k, k * 2)).collect();
            assert_eq!(drained, want, "round {round}: rows in row order");
            assert!(table.is_empty() && table.index.is_empty());
            assert_eq!(
                (table.rows.capacity(), table.index.rows.len()),
                (rows, slots)
            );
        }
    }

    #[test]
    fn variable_length_inputs_differ() {
        let h = HashFamily::new(3).fn_at(0);
        // Length is mixed in, so a prefix and its zero-padded extension
        // must not collide systematically.
        assert_ne!(h.hash(b"ab"), h.hash(b"ab\0"));
        assert_ne!(h.hash(b""), h.hash(b"\0"));
    }

    #[test]
    fn remove_preserves_probe_chains() {
        // Remove every third key from a crowded index (long probe
        // clusters) and verify every surviving key still resolves —
        // backward-shift deletion must repair the chains it cuts.
        let h = HashFamily::new(17).fn_at(0);
        let keys: Vec<u64> = (0..5_000).collect();
        let mut rows: Vec<u64> = Vec::new();
        let mut idx = GroupIndex::with_capacity(16);
        for &k in &keys {
            let fp = h.hash(&k.to_be_bytes());
            idx.insert(fp, rows.len());
            rows.push(k);
        }
        let mut removed = 0;
        for (r, &k) in rows.iter().enumerate() {
            if k % 3 == 0 {
                let fp = h.hash(&k.to_be_bytes());
                assert!(idx.remove(fp, r), "key {k} was present");
                removed += 1;
            }
        }
        assert_eq!(idx.len(), keys.len() - removed);
        for (r, &k) in rows.iter().enumerate() {
            let fp = h.hash(&k.to_be_bytes());
            let hit = idx.get(fp, |c| rows[c] == k);
            if k % 3 == 0 {
                assert_eq!(hit, None, "removed key {k} must miss");
            } else {
                assert_eq!(hit, Some(r), "surviving key {k} must still resolve");
            }
        }
        // Removing an absent mapping is a no-op.
        assert!(!idx.remove(h.hash(&0u64.to_be_bytes()), 0));
    }

    #[test]
    fn reindex_follows_swap_remove() {
        // The eviction pattern: swap_remove a victim row, then reindex
        // the moved last row to its new position.
        let h = HashFamily::new(29).fn_at(0);
        let mut rows: Vec<u64> = Vec::new();
        let mut idx = GroupIndex::with_capacity(4);
        for k in 0..1_000u64 {
            idx.insert(h.hash(&k.to_be_bytes()), rows.len());
            rows.push(k);
        }
        for _ in 0..600 {
            // Deterministically evict the middle row.
            let victim = rows.len() / 2;
            let vfp = h.hash(&rows[victim].to_be_bytes());
            assert!(idx.remove(vfp, victim));
            let moved = rows.swap_remove(victim);
            if victim < rows.len() {
                let mfp = h.hash(&rows[victim].to_be_bytes());
                assert!(idx.reindex(mfp, rows.len(), victim), "moved key {moved}");
            }
        }
        assert_eq!(idx.len(), rows.len());
        for (r, &k) in rows.iter().enumerate() {
            let fp = h.hash(&k.to_be_bytes());
            assert_eq!(idx.get(fp, |c| rows[c] == k), Some(r), "key {k}");
        }
    }
}
