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

use opa_common::{Error, Key, Pair, Result, StatePair, Value};

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
/// Slice-by-8: eight input bytes fold through eight independent table
/// lookups per step, so the carried dependency is one xor-tree instead of
/// 64 bit-serial rounds. Bit-identical to [`crc32_reference`]
/// (property-tested, plus the standard check vectors below).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
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
    !crc
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
        pairs.push(Pair::new(Key::new(k.to_vec()), Value::new(v.to_vec())));
        pos = next;
    }
    if pos != body.len() {
        return Err(Error::storage("trailing bytes after last record"));
    }
    Ok(pairs)
}

/// Serializes a run of key-state pairs (same framing).
pub fn encode_state_run(tuples: &[StatePair]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_run_into(
        &mut out,
        tuples.iter().map(|t| (t.key.bytes(), t.state.bytes())),
    );
    out
}

/// Deserializes a key-state run.
pub fn decode_state_run(buf: &[u8]) -> Result<Vec<StatePair>> {
    Ok(decode_run(buf)?
        .into_iter()
        .map(|p| StatePair::new(p.key, p.value))
        .collect())
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

    #[test]
    fn crc32_slice_by_8_matches_bitwise_at_boundary_lengths() {
        // The boundary lengths the sliced loop can mishandle: empty,
        // just-under/at/over the 8-byte stride, the engine's inline-key
        // sizes (22/23), and a multi-stride run.
        for len in [0usize, 1, 7, 8, 9, 15, 16, 22, 23, 1024, 1031] {
            let data: Vec<u8> = (0..len)
                .map(|i| (i as u8).wrapping_mul(37) ^ 0x5A)
                .collect();
            assert_eq!(
                crc32(&data),
                crc32_reference(&data),
                "crc diverged at length {len}"
            );
        }
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
        let tuples: Vec<StatePair> = (0..20)
            .map(|i| StatePair::new(Key::from_u64(i), Value::new(vec![9u8; 64])))
            .collect();
        let buf = encode_state_run(&tuples);
        assert_eq!(decode_state_run(&buf).unwrap(), tuples);
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
