//! Frequency-gated admission primitives: a TinyLFU-style count-min
//! sketch with periodic halving, and a companion one-sided membership
//! filter.
//!
//! The reduce-side INC/DINC tables historically used *first-come*
//! occupancy: whatever key arrived first kept its in-memory slot and
//! every later key spilled. [`FreqSketch`] supplies the missing signal —
//! a cheap, deterministic estimate of how often each key has been seen —
//! so the admission policy can ask "is the arriving key hotter than a
//! resident one?" and evict the colder occupant instead of spilling the
//! hotter newcomer.
//!
//! Both structures share the **seeding discipline** of the
//! FREQUENT/SpaceSaving monitor in `opa-freq`: every hash function is
//! drawn from the same fixed [`HashFamily`] seed that backs
//! [`SeededState::fixed`](crate::hash::SeededState::fixed)
//! (`0x6f70_615f_6873_6831`), at member indices that collide with neither
//! the engine's partitioning functions (`fn_at(0..=8)` and depth-indexed
//! repartitioning) nor the monitor's map hasher (`fn_at(63)`). A sketch
//! is therefore a pure function of its *touch sequence*: two reducers fed
//! the same keys in the same order hold bit-identical sketches on any
//! thread count, which is what lets admission decisions participate in
//! the engine's record/replay determinism contract.
//!
//! # Aging
//!
//! Following TinyLFU, the sketch halves every counter once the number of
//! recorded touches reaches a sample period proportional to its width
//! (the *reset* operation). Halving preserves the relative order of
//! counters — `a ≥ b ⇒ ⌊a/2⌋ ≥ ⌊b/2⌋` — so hot keys stay distinguishable
//! from cold ones while stale history decays geometrically.
//!
//! ```
//! use opa_common::sketch::FreqSketch;
//!
//! let mut s = FreqSketch::with_capacity(1024);
//! for _ in 0..10 {
//!     s.touch(42);
//! }
//! s.touch(7);
//! assert!(s.estimate(42) > s.estimate(7));
//!
//! // Byte-exact serialization round trip (checkpoint/restore path).
//! let nums = s.to_nums();
//! let back = FreqSketch::from_nums(&nums).expect("valid sketch image");
//! assert_eq!(s.to_nums(), back.to_nums());
//! ```

use crate::error::{Error, Result};
use crate::hash::{HashFamily, HashFn};

/// The fixed family seed shared with [`SeededState::fixed`]
/// (`crate::hash::SeededState::fixed`): ASCII `"opa_hsh1"`.
const FIXED_FAMILY_SEED: u64 = 0x6f70_615f_6873_6831;

/// Family member indices reserved for the sketch rows. `fn_at(63)` backs
/// the monitors' map hasher and `fn_at(0..=8)` the engine's partitioning
/// chain; 59–62 are untaken.
const ROW_FN_BASE: usize = 59;

/// Family member indices reserved for the membership-filter probes.
const FILTER_FN_BASE: usize = 57;

/// Number of count-min rows. Four rows keep the collision error of a
/// width-`w` sketch at roughly `(ops/w)⁴`-ish tail probability while the
/// whole touch path stays a handful of multiplies.
const DEPTH: usize = 4;

/// Per-counter saturation ceiling. 8-bit counters are the TinyLFU
/// compromise: admission only ever compares *relative* hotness, and the
/// periodic halving keeps live counts far from the ceiling.
const COUNTER_MAX: u8 = u8::MAX;

/// A TinyLFU-style count-min frequency sketch over 64-bit key
/// fingerprints, with periodic halving (aging).
///
/// Counters are 8-bit and saturating; [`FreqSketch::touch`] bumps one
/// counter per row and [`FreqSketch::estimate`] reads the row minimum.
/// Once the number of touches reaches the sample period (`8·width`),
/// every counter is halved and the touch count is halved with it, so the
/// sketch tracks a geometrically-weighted recent window rather than
/// all of history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreqSketch {
    /// `DEPTH` rows of `width` counters, row-major.
    counters: Vec<u8>,
    /// Row width (power of two).
    width: usize,
    /// Touches recorded since the last halving was accounted (halved
    /// alongside the counters).
    ops: u64,
    /// Touch count that triggers a halving.
    period: u64,
    /// Per-row index functions, drawn from the fixed family.
    rows: [HashFn; DEPTH],
}

impl FreqSketch {
    /// Creates a sketch sized for roughly `expected_keys` distinct keys:
    /// the row width is the next power of two at or above
    /// `expected_keys`, floored at 64.
    pub fn with_capacity(expected_keys: usize) -> Self {
        let width = expected_keys.max(64).next_power_of_two();
        let family = HashFamily::new(FIXED_FAMILY_SEED);
        FreqSketch {
            counters: vec![0; DEPTH * width],
            width,
            ops: 0,
            period: 8 * width as u64,
            rows: std::array::from_fn(|i| family.fn_at(ROW_FN_BASE + i)),
        }
    }

    /// Row width (power of two).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Touches recorded since the last halving.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    #[inline]
    fn index(&self, row: usize, fp: u64) -> usize {
        row * self.width + (self.rows[row].hash(&fp.to_le_bytes()) as usize & (self.width - 1))
    }

    /// Records one arrival of the key with fingerprint `fp`, halving all
    /// counters when the sample period is reached. Deterministic: the
    /// sketch state is a pure function of the touch sequence.
    pub fn touch(&mut self, fp: u64) {
        for row in 0..DEPTH {
            let i = self.index(row, fp);
            if self.counters[i] < COUNTER_MAX {
                self.counters[i] += 1;
            }
        }
        self.ops += 1;
        if self.ops >= self.period {
            self.halve();
        }
    }

    /// Estimated frequency of `fp` within the current sample window: the
    /// minimum counter across rows. Never *under*-estimates the in-window
    /// count of a key (count-min property); collisions can only inflate
    /// it.
    pub fn estimate(&self, fp: u64) -> u32 {
        (0..DEPTH)
            .map(|row| u32::from(self.counters[self.index(row, fp)]))
            .min()
            .unwrap_or(0)
    }

    /// The TinyLFU reset: halves every counter (and the touch count), so
    /// history decays while the relative order of any two counters is
    /// preserved (`a ≥ b ⇒ ⌊a/2⌋ ≥ ⌊b/2⌋`).
    pub fn halve(&mut self) {
        for c in &mut self.counters {
            *c >>= 1;
        }
        self.ops >>= 1;
    }

    /// Serializes the sketch into a `u64` vector suitable for a
    /// checkpoint `Nums` section: `[width, ops, period]` header followed
    /// by the counters packed eight per word, little-endian. The encoding
    /// is byte-exact: `from_nums(to_nums())` reproduces the sketch
    /// verbatim.
    pub fn to_nums(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(3 + self.counters.len() / 8);
        out.push(self.width as u64);
        out.push(self.ops);
        out.push(self.period);
        for chunk in self.counters.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            out.push(u64::from_le_bytes(word));
        }
        out
    }

    /// Rebuilds a sketch from [`FreqSketch::to_nums`] output.
    ///
    /// # Errors
    /// Fails when the header is malformed (non-power-of-two width, wrong
    /// word count) — e.g. a corrupted or truncated checkpoint section.
    pub fn from_nums(nums: &[u64]) -> Result<Self> {
        let [width, ops, period, rest @ ..] = nums else {
            return Err(Error::storage("frequency sketch image too short"));
        };
        let width = *width as usize;
        if width < 64 || !width.is_power_of_two() {
            return Err(Error::storage(format!(
                "frequency sketch width {width} is not a power of two ≥ 64"
            )));
        }
        let total = DEPTH * width;
        if rest.len() != total / 8 {
            return Err(Error::storage(format!(
                "frequency sketch image has {} counter words, expected {}",
                rest.len(),
                total / 8
            )));
        }
        let mut counters = Vec::with_capacity(total);
        for word in rest {
            counters.extend_from_slice(&word.to_le_bytes());
        }
        let family = HashFamily::new(FIXED_FAMILY_SEED);
        Ok(FreqSketch {
            counters,
            width,
            ops: *ops,
            period: *period,
            rows: std::array::from_fn(|i| family.fn_at(ROW_FN_BASE + i)),
        })
    }
}

/// A one-sided membership filter over key fingerprints (a small Bloom
/// filter, two probes), used by the admission policy to remember which
/// keys already have bytes on disk.
///
/// The INC-hash exactness invariant — *a key's data is never split
/// between memory and disk* — requires that a key which has ever spilled
/// a tuple (or been evicted) is never admitted to the in-memory table
/// afterwards. The filter makes that check O(1): `insert` on every spill
/// or eviction, `contains` before every admission. False positives only
/// deny an admission (the tuple spills to the key's bucket exactly as it
/// would have anyway), so correctness never depends on the filter's
/// accuracy — only the amount of spilling saved does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyFilter {
    words: Vec<u64>,
    /// Bit count (power of two).
    nbits: usize,
    probes: [HashFn; 2],
}

impl KeyFilter {
    /// Creates a filter sized for roughly `expected_keys` distinct keys
    /// (8 bits per expected key, floored at 1024 bits).
    pub fn with_capacity(expected_keys: usize) -> Self {
        let nbits = (expected_keys.saturating_mul(8))
            .max(1024)
            .next_power_of_two();
        let family = HashFamily::new(FIXED_FAMILY_SEED);
        KeyFilter {
            words: vec![0; nbits / 64],
            nbits,
            probes: std::array::from_fn(|i| family.fn_at(FILTER_FN_BASE + i)),
        }
    }

    /// Bit count (power of two).
    pub fn nbits(&self) -> usize {
        self.nbits
    }

    #[inline]
    fn bit(&self, probe: usize, fp: u64) -> usize {
        self.probes[probe].hash(&fp.to_le_bytes()) as usize & (self.nbits - 1)
    }

    /// Marks `fp` as present.
    pub fn insert(&mut self, fp: u64) {
        for probe in 0..2 {
            let b = self.bit(probe, fp);
            self.words[b / 64] |= 1 << (b % 64);
        }
    }

    /// Whether `fp` may have been inserted. One-sided: `false` is
    /// definitive, `true` may be a collision.
    pub fn contains(&self, fp: u64) -> bool {
        (0..2).all(|probe| {
            let b = self.bit(probe, fp);
            self.words[b / 64] & (1 << (b % 64)) != 0
        })
    }

    /// Serializes the filter into a `u64` vector (`[nbits]` header then
    /// the bit words). Byte-exact round trip through
    /// [`KeyFilter::from_nums`].
    pub fn to_nums(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(1 + self.words.len());
        out.push(self.nbits as u64);
        out.extend_from_slice(&self.words);
        out
    }

    /// Rebuilds a filter from [`KeyFilter::to_nums`] output.
    ///
    /// # Errors
    /// Fails when the header is malformed or the word count disagrees
    /// with the declared bit count.
    pub fn from_nums(nums: &[u64]) -> Result<Self> {
        let [nbits, rest @ ..] = nums else {
            return Err(Error::storage("key filter image too short"));
        };
        let nbits = *nbits as usize;
        if nbits < 1024 || !nbits.is_power_of_two() {
            return Err(Error::storage(format!(
                "key filter bit count {nbits} is not a power of two ≥ 1024"
            )));
        }
        if rest.len() != nbits / 64 {
            return Err(Error::storage(format!(
                "key filter image has {} words, expected {}",
                rest.len(),
                nbits / 64
            )));
        }
        let family = HashFamily::new(FIXED_FAMILY_SEED);
        Ok(KeyFilter {
            words: rest.to_vec(),
            nbits,
            probes: std::array::from_fn(|i| family.fn_at(FILTER_FN_BASE + i)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_tracks_touches_without_collisions() {
        let mut s = FreqSketch::with_capacity(4096);
        for fp in 0..32u64 {
            for _ in 0..=fp {
                s.touch(fp);
            }
        }
        for fp in 0..32u64 {
            // Count-min never under-estimates within the sample window.
            assert!(u64::from(s.estimate(fp)) > fp, "fp {fp}");
        }
        assert_eq!(s.estimate(999_999), 0, "untouched key stays zero");
    }

    #[test]
    fn halving_preserves_counter_order_and_decays() {
        let mut s = FreqSketch::with_capacity(1024);
        for _ in 0..40 {
            s.touch(1); // hot
        }
        for _ in 0..10 {
            s.touch(2); // warm
        }
        s.touch(3); // cold
        let (h0, w0, c0) = (s.estimate(1), s.estimate(2), s.estimate(3));
        assert!(h0 > w0 && w0 > c0);
        s.halve();
        assert!(s.estimate(1) >= s.estimate(2));
        assert!(s.estimate(2) >= s.estimate(3));
        assert!(s.estimate(1) <= h0 && s.estimate(2) <= w0 && s.estimate(3) <= c0);
    }

    #[test]
    fn aging_fires_at_the_sample_period() {
        let mut s = FreqSketch::with_capacity(64);
        let period = 8 * s.width() as u64;
        for i in 0..period {
            s.touch(i % 16);
        }
        // The halving fired exactly once: ops reset to period/2.
        assert_eq!(s.ops(), period / 2);
        // Counters decayed below the raw touch counts.
        assert!(u64::from(s.estimate(0)) < period / 16);
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let mut s = FreqSketch::with_capacity(64);
        // Stay below the sample period so no halving interferes, but far
        // above the u8 ceiling.
        for _ in 0..400 {
            s.touch(7);
        }
        assert_eq!(s.estimate(7), u32::from(COUNTER_MAX));
    }

    #[test]
    fn serialization_round_trips_byte_exact() {
        let mut s = FreqSketch::with_capacity(512);
        for i in 0..5000u64 {
            s.touch(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % 300);
        }
        let nums = s.to_nums();
        let back = FreqSketch::from_nums(&nums).expect("round trip");
        assert_eq!(s, back);
        assert_eq!(nums, back.to_nums());
    }

    #[test]
    fn malformed_images_are_rejected() {
        assert!(FreqSketch::from_nums(&[]).is_err());
        assert!(FreqSketch::from_nums(&[63, 0, 8]).is_err(), "bad width");
        assert!(
            FreqSketch::from_nums(&[64, 0, 512, 1, 2, 3]).is_err(),
            "word count mismatch"
        );
        assert!(KeyFilter::from_nums(&[]).is_err());
        assert!(KeyFilter::from_nums(&[1000]).is_err(), "bad bit count");
        assert!(KeyFilter::from_nums(&[1024, 7]).is_err(), "short words");
    }

    #[test]
    fn filter_is_one_sided() {
        let mut f = KeyFilter::with_capacity(1000);
        for fp in 0..200u64 {
            f.insert(fp);
        }
        for fp in 0..200u64 {
            assert!(f.contains(fp), "inserted fp {fp} must report present");
        }
        // Far more absent keys report absent than present at this load.
        let false_positives = (10_000..20_000u64).filter(|&fp| f.contains(fp)).count();
        assert!(
            false_positives < 1000,
            "false-positive rate implausibly high: {false_positives}/10000"
        );
    }

    #[test]
    fn filter_round_trips_byte_exact() {
        let mut f = KeyFilter::with_capacity(500);
        for fp in (0..100u64).map(|i| i * 17) {
            f.insert(fp);
        }
        let nums = f.to_nums();
        let back = KeyFilter::from_nums(&nums).expect("round trip");
        assert_eq!(f, back);
        assert_eq!(nums, back.to_nums());
    }

    #[test]
    fn sketches_are_pure_functions_of_the_touch_sequence() {
        let stream: Vec<u64> = (0..4000).map(|i| (i * i) % 97).collect();
        let mut a = FreqSketch::with_capacity(256);
        let mut b = FreqSketch::with_capacity(256);
        for &fp in &stream {
            a.touch(fp);
            b.touch(fp);
        }
        assert_eq!(a, b);
        assert_eq!(a.to_nums(), b.to_nums());
    }
}
