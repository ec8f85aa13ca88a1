//! IFile-style record serialization.
//!
//! Hadoop stages intermediate data in *IFiles*: length-prefixed key/value
//! records with a trailing checksum. OPA uses the same framing — two 32-bit
//! big-endian length prefixes per record — which is exactly the
//! [`RECORD_OVERHEAD`](opa_common::types::RECORD_OVERHEAD) charged by the
//! engine's byte accounting, so a serialized run's length equals the sum of
//! the `size()` of its records. A CRC-32 (IEEE) of the payload guards
//! against corruption when runs are persisted to real files
//! ([`encode_run`]/[`decode_run`]).

use opa_common::{Error, Key, Pair, Result, Value};

/// The reflected CRC-32 (IEEE 802.3) polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables, built at compile time: `CRC_TABLE[0]` is the
/// classic byte table; `CRC_TABLE[j][b]` advances the effect of byte `b`
/// through `j` further zero bytes, which is what lets eight table lookups
/// retire eight input bytes at once.
static CRC_TABLE: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                (c >> 1) ^ CRC_POLY
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[j - 1][i];
            t[j][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3) over `data` — the checksum IFiles trail runs with.
///
/// On x86-64 hosts with PCLMULQDQ and SSE4.1 an input of at least 64 bytes
/// goes through the carry-less-multiply folding kernel (`codec::clmul`); every
/// other input, every tail under 16 bytes, and every other target takes
/// the portable slice-by-8 path. Both are bit-identical to
/// [`crc32_reference`] (property-tested, plus the standard check vectors
/// below).
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= clmul::MIN_LEN && clmul::available() {
        // SAFETY: `available` just confirmed the CPU has PCLMULQDQ and
        // SSE4.1, the features `clmul::update` is compiled for (the length
        // check only keeps short inputs on the portable path).
        return !unsafe { clmul::update(0xFFFF_FFFF, data) };
    }
    !crc32_update_portable(0xFFFF_FFFF, data)
}

/// [`crc32`] on the portable path alone, whatever the host supports.
#[cfg(test)]
fn crc32_portable(data: &[u8]) -> u32 {
    !crc32_update_portable(0xFFFF_FFFF, data)
}

/// Advances the CRC register `crc` (pre-inverted, not yet finalized) over
/// `data` by slice-by-8: eight input bytes fold through eight independent
/// table lookups per step, so the carried dependency is one xor-tree
/// instead of 64 bit-serial rounds.
fn crc32_update_portable(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for w in &mut chunks {
        let lo = u32::from_le_bytes(w[..4].try_into().expect("4 bytes")) ^ crc;
        let hi = u32::from_le_bytes(w[4..].try_into().expect("4 bytes"));
        crc = CRC_TABLE[7][(lo & 0xFF) as usize]
            ^ CRC_TABLE[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLE[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLE[4][(lo >> 24) as usize]
            ^ CRC_TABLE[3][(hi & 0xFF) as usize]
            ^ CRC_TABLE[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLE[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLE[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLE[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 by carry-less multiplication: Gopal et al., *Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction*
/// (Intel, 2009), in its bit-reflected form.
///
/// Four 128-bit accumulators each fold the next 16 bytes in (`acc·k ⊕
/// next`, with `k` = x^(4·128±32) mod P), so one step retires 64 bytes with
/// four independent multiply chains. The four then fold into one, the one
/// absorbs the remaining whole 16-byte blocks, and 128 bits reduce to 64,
/// then by Barrett reduction to the 32-bit register; the last `len % 16`
/// bytes go to the portable path. `tests::fold_constants_derive_from_the_polynomial`
/// recomputes every constant from [`CRC_POLY`].
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// The shortest input the kernel takes: its four accumulators start
    /// from the first 64 bytes.
    pub(super) const MIN_LEN: usize = 64;

    /// Fold-by-4 constants: reflect(x^(4·128+32) mod P) << 1 and
    /// reflect(x^(4·128−32) mod P) << 1.
    pub(super) const K1: u64 = 0x1_5444_2BD4;
    pub(super) const K2: u64 = 0x1_C6E4_1596;
    /// Fold-by-1 constants: the same at 128 ± 32.
    pub(super) const K3: u64 = 0x1_7519_97D0;
    pub(super) const K4: u64 = 0x0_CCAA_009E;
    /// reflect(x^64 mod P) << 1, for the 96-to-64-bit step.
    pub(super) const K5: u64 = 0x1_63CD_6124;
    /// P itself, bit-reflected over its 33 bits.
    pub(super) const P_X: u64 = 0x1_DB71_0641;
    /// Barrett's μ = ⌊x^64 / P⌋, bit-reflected over its 33 bits.
    pub(super) const U_PRIME: u64 = 0x1_F701_1641;

    /// Whether this CPU can run [`update`]; the answer is cached by std.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Advances the CRC register `crc` over `data`, as
    /// `super::crc32_update_portable` does. Panics if `data` is shorter
    /// than [`MIN_LEN`].
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ and SSE4.1 ([`available`]).
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    pub(super) unsafe fn update(crc: u32, data: &[u8]) -> u32 {
        let mut blocks = data.chunks_exact(16);
        let mut x3 = _mm_xor_si128(load(&mut blocks), _mm_cvtsi32_si128(crc as i32));
        let mut x2 = load(&mut blocks);
        let mut x1 = load(&mut blocks);
        let mut x0 = load(&mut blocks);

        let k1k2 = _mm_set_epi64x(K2 as i64, K1 as i64);
        while blocks.len() >= 4 {
            x3 = fold(x3, load(&mut blocks), k1k2);
            x2 = fold(x2, load(&mut blocks), k1k2);
            x1 = fold(x1, load(&mut blocks), k1k2);
            x0 = fold(x0, load(&mut blocks), k1k2);
        }

        let k3k4 = _mm_set_epi64x(K4 as i64, K3 as i64);
        let mut x = fold(x3, x2, k3k4);
        x = fold(x, x1, k3k4);
        x = fold(x, x0, k3k4);
        while blocks.len() > 0 {
            x = fold(x, load(&mut blocks), k3k4);
        }
        let tail = blocks.remainder();

        // 128 → 96 bits: the low half times x^(128−32) folds onto the high.
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        // 96 → 64 bits: the low 32 bits times x^64 fold onto the rest.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5 as i64), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P, and the
        // reflected remainder is the upper 32 bits of R ⊕ T2.
        let pu = _mm_set_epi64x(U_PRIME as i64, P_X as i64);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        super::crc32_update_portable(crc, tail)
    }

    /// `acc·k` (both 64-bit halves, each times its constant) ⊕ `next`.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    fn fold(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, k, 0x00);
        let hi = _mm_clmulepi64_si128(acc, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// The next 16-byte block as a vector.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    fn load(blocks: &mut std::slice::ChunksExact<'_, u8>) -> __m128i {
        let block = blocks.next().expect("the caller counted the blocks left");
        // SAFETY: `block` is exactly 16 readable bytes (`chunks_exact(16)`),
        // and `_mm_loadu_si128` has no alignment requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast::<__m128i>()) }
    }
}

/// The table-free bit-serial reference implementation of [`crc32`] — the
/// specification the slice-by-8 fast path must match bit-for-bit.
pub fn crc32_reference(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (CRC_POLY & mask);
        }
    }
    !crc
}

/// Appends one framed record to `out`.
pub fn encode_record(out: &mut Vec<u8>, key: &[u8], value: &[u8]) {
    out.extend_from_slice(&(key.len() as u32).to_be_bytes());
    out.extend_from_slice(&(value.len() as u32).to_be_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(value);
}

/// Reads one framed record starting at `pos`; returns the key/value slices
/// and the position after the record.
pub fn decode_record(buf: &[u8], pos: usize) -> Result<(&[u8], &[u8], usize)> {
    let hdr = buf
        .get(pos..pos + 8)
        .ok_or_else(|| Error::storage("truncated record header"))?;
    let klen = u32::from_be_bytes(hdr[..4].try_into().expect("4 bytes")) as usize;
    let vlen = u32::from_be_bytes(hdr[4..].try_into().expect("4 bytes")) as usize;
    let key = buf
        .get(pos + 8..pos + 8 + klen)
        .ok_or_else(|| Error::storage("truncated key"))?;
    let value = buf
        .get(pos + 8 + klen..pos + 8 + klen + vlen)
        .ok_or_else(|| Error::storage("truncated value"))?;
    Ok((key, value, pos + 8 + klen + vlen))
}

/// Magic prefix of a serialized run.
const MAGIC: &[u8; 4] = b"OPA1";

/// Serializes a run of pairs: magic, record count, framed records, CRC-32.
pub fn encode_run(pairs: &[Pair]) -> Vec<u8> {
    let payload_len: usize = pairs.iter().map(|p| p.size() as usize).sum();
    let mut out = Vec::with_capacity(payload_len + 16);
    encode_run_into(
        &mut out,
        pairs.iter().map(|p| (p.key.bytes(), p.value.bytes())),
    );
    out
}

/// Appends the [`encode_run`] form of `records` (key, value) to `out`.
pub fn encode_run_into<'a>(
    out: &mut Vec<u8>,
    records: impl ExactSizeIterator<Item = (&'a [u8], &'a [u8])>,
) {
    let start = out.len();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(records.len() as u64).to_be_bytes());
    for (key, value) in records {
        encode_record(out, key, value);
    }
    let crc = crc32(&out[start + 12..]);
    out.extend_from_slice(&crc.to_be_bytes());
}

/// Deserializes a run produced by [`encode_run`], verifying the checksum.
pub fn decode_run(buf: &[u8]) -> Result<Vec<Pair>> {
    if buf.len() < 16 || &buf[..4] != MAGIC {
        return Err(Error::storage("bad run header"));
    }
    let n = u64::from_be_bytes(buf[4..12].try_into().expect("8 bytes")) as usize;
    let body = &buf[12..buf.len() - 4];
    let stored = u32::from_be_bytes(buf[buf.len() - 4..].try_into().expect("4 bytes"));
    if crc32(body) != stored {
        return Err(Error::storage("run checksum mismatch"));
    }
    // The count field sits outside the checksummed region, so it must be
    // sanity-checked before it sizes an allocation: every record carries
    // at least an 8-byte header.
    if n > body.len() / 8 {
        return Err(Error::storage("run record count exceeds body size"));
    }
    let mut pairs = Vec::with_capacity(n);
    let mut pos = 0usize;
    for _ in 0..n {
        let (k, v, next) = decode_record(body, pos)?;
        pairs.push(Pair::new(Key::from_slice(k), Value::from_slice(v)));
        pos = next;
    }
    if pos != body.len() {
        return Err(Error::storage("trailing bytes after last record"));
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<Pair> {
        (0..n)
            .map(|i| {
                Pair::new(
                    Key::from_u64(i as u64),
                    Value::new(vec![i as u8; (i % 37) + 1]),
                )
            })
            .collect()
    }

    #[test]
    fn crc32_reference_vectors() {
        // Well-known CRC-32 (IEEE) check values.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32_reference(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_reference(b""), 0);
        assert_eq!(crc32_reference(b"a"), 0xE8B7_BE43);
    }

    /// `len` bytes of a fixed pattern, starting `offset` bytes into a
    /// larger buffer so the loads are unaligned.
    fn pattern(buf: &mut Vec<u8>, offset: usize, len: usize) -> &[u8] {
        buf.clear();
        buf.extend((0..offset + len).map(|i| (i as u8).wrapping_mul(37) ^ 0x5A));
        &buf[offset..]
    }

    #[test]
    fn crc32_slice_by_8_matches_bitwise_at_boundary_lengths() {
        // The boundary lengths either path can mishandle: empty,
        // just-under/at/over the 8-byte stride, the engine's inline-key
        // sizes (22/23), the kernel's 64-byte entry and 16-byte fold
        // strides, and multi-stride runs — at every start offset mod 16.
        let mut buf = Vec::new();
        for len in [
            0usize, 1, 7, 8, 9, 15, 16, 22, 23, 63, 64, 65, 79, 80, 127, 128, 129, 1024, 1031,
        ] {
            for offset in 0..16 {
                let data = pattern(&mut buf, offset, len);
                let want = crc32_reference(data);
                assert_eq!(crc32(data), want, "length {len}, offset {offset}");
                assert_eq!(
                    crc32_portable(data),
                    want,
                    "portable: length {len}, offset {offset}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(2000))]

        /// Both paths equal the bit-serial specification on random bytes
        /// of random length at random start offsets.
        #[test]
        fn crc32_paths_match_reference(
            bytes in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..4112),
            offset in 0usize..16,
            len in 0usize..4097,
        ) {
            let data = &bytes[offset.min(bytes.len())..];
            let data = &data[..len.min(data.len())];
            let want = crc32_reference(data);
            proptest::prop_assert_eq!(crc32(data), want, "length {}", data.len());
            proptest::prop_assert_eq!(crc32_portable(data), want, "length {}", data.len());
        }
    }

    /// Every folding constant is what the polynomial makes it: `x^n mod P`
    /// and Barrett's `⌊x^64 / P⌋`, bit-reflected as the reflected CRC
    /// needs them.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_constants_derive_from_the_polynomial() {
        // P in the unreflected domain: x^32 + the reflected CRC_POLY.
        let p: u64 = (1 << 32) | u64::from(CRC_POLY.reverse_bits());
        let x_pow_mod_p = |n: u32| {
            let mut r: u64 = 1;
            for _ in 0..n {
                r <<= 1;
                if r >> 32 != 0 {
                    r ^= p;
                }
            }
            r as u32
        };
        let k = |n: u32| u64::from(x_pow_mod_p(n).reverse_bits()) << 1;
        assert_eq!(clmul::K1, k(4 * 128 + 32));
        assert_eq!(clmul::K2, k(4 * 128 - 32));
        assert_eq!(clmul::K3, k(128 + 32));
        assert_eq!(clmul::K4, k(128 - 32));
        assert_eq!(clmul::K5, k(64));
        let (mut rem, mut mu): (u128, u64) = (1 << 64, 0);
        for bit in (32..=64).rev() {
            if rem >> bit & 1 == 1 {
                mu |= 1 << (bit - 32);
                rem ^= u128::from(p) << (bit - 32);
            }
        }
        let reflect33 = |v: u64| v.reverse_bits() >> 31;
        assert_eq!(clmul::P_X, reflect33(p));
        assert_eq!(clmul::U_PRIME, reflect33(mu));
    }

    #[test]
    fn run_roundtrip() {
        let pairs = sample(100);
        let buf = encode_run(&pairs);
        let decoded = decode_run(&buf).expect("valid run");
        assert_eq!(decoded, pairs);
    }

    #[test]
    fn empty_run_roundtrip() {
        let buf = encode_run(&[]);
        assert_eq!(decode_run(&buf).unwrap(), Vec::<Pair>::new());
    }

    #[test]
    fn framing_matches_engine_accounting() {
        // The serialized length must equal Σ size() + header + checksum,
        // because size() is what the engine charges for buffers and disks.
        let pairs = sample(25);
        let payload: u64 = pairs.iter().map(Pair::size).sum();
        let buf = encode_run(&pairs);
        assert_eq!(buf.len() as u64, payload + 12 + 4);
    }

    #[test]
    fn corruption_is_detected() {
        let pairs = sample(10);
        let mut buf = encode_run(&pairs);
        let mid = buf.len() / 2;
        buf[mid] ^= 0x40;
        assert!(matches!(decode_run(&buf), Err(Error::Storage(_))));
    }

    #[test]
    fn truncation_is_detected() {
        let pairs = sample(10);
        let buf = encode_run(&pairs);
        assert!(decode_run(&buf[..buf.len() - 5]).is_err());
        assert!(decode_run(&buf[..3]).is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = encode_run(&sample(2));
        buf[0] = b'X';
        assert!(decode_run(&buf).is_err());
    }

    #[test]
    fn state_run_roundtrip() {
        // Key-state pairs share the framing: a state is a value's bytes.
        let tuples: Vec<Pair> = (0..20)
            .map(|i| Pair::new(Key::from_u64(i), Value::new(vec![9u8; 64])))
            .collect();
        let buf = encode_run(&tuples);
        assert_eq!(decode_run(&buf).unwrap(), tuples);
    }

    #[test]
    fn record_level_decode_walks_positions() {
        let mut buf = Vec::new();
        encode_record(&mut buf, b"k1", b"v1");
        encode_record(&mut buf, b"key2", b"");
        let (k, v, pos) = decode_record(&buf, 0).unwrap();
        assert_eq!((k, v), (b"k1".as_ref(), b"v1".as_ref()));
        let (k2, v2, end) = decode_record(&buf, pos).unwrap();
        assert_eq!((k2, v2), (b"key2".as_ref(), b"".as_ref()));
        assert_eq!(end, buf.len());
    }
}
