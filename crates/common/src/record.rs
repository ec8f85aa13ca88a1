//! Canonical ⟨key, value⟩ record framing for multi-job dataflows.
//!
//! When job N's reduce output becomes job N+1's map input, each output
//! pair must cross the boundary as one *input record*. This module fixes
//! the byte layout of that record so every path that stages a dataset —
//! the in-memory handoff, the reshuffle fallback, a checkpoint restored
//! from disk, or a test that materializes the intermediate to a file —
//! feeds byte-identical records to the downstream map function:
//!
//! ```text
//! [key_len: u32 BE][key bytes][value bytes]
//! ```
//!
//! The value length is implicit (record length − 4 − key length), which
//! keeps the frame minimal; records never embed record separators, so
//! they are safe to carry as raw `Vec<u8>` entries of a `JobInput`.

/// Encodes one pair as a framed dataflow record.
pub fn encode_kv(key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + key.len() + value.len());
    encode_kv_into(&mut out, key, value);
    out
}

/// Appends one pair's framed record to a caller-owned buffer, for
/// encoders that write many records into one allocation.
pub fn encode_kv_into(buf: &mut Vec<u8>, key: &[u8], value: &[u8]) {
    buf.reserve(4 + key.len() + value.len());
    buf.extend_from_slice(&(key.len() as u32).to_be_bytes());
    buf.extend_from_slice(key);
    buf.extend_from_slice(value);
}

/// Decodes a framed dataflow record into `(key, value)` slices. Returns
/// `None` if the record is shorter than its header claims — a dataflow
/// map function should skip (not panic on) such records, mirroring how
/// the click/document parsers treat malformed lines.
pub fn decode_kv(record: &[u8]) -> Option<(&[u8], &[u8])> {
    let len_bytes = record.get(..4)?;
    let key_len = u32::from_be_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
    let key = record.get(4..4 + key_len)?;
    let value = &record[4 + key_len..];
    Some((key, value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        for (k, v) in [
            (&b""[..], &b""[..]),
            (b"url", b""),
            (b"", b"value"),
            (b"/en/page00001.html", b"\x00\x00\x00\x00\x00\x00\x00\x2a"),
        ] {
            let rec = encode_kv(k, v);
            assert_eq!(decode_kv(&rec), Some((k, v)));
        }
    }

    #[test]
    fn truncated_records_rejected() {
        assert_eq!(decode_kv(b""), None);
        assert_eq!(decode_kv(b"\x00\x00"), None);
        // Header claims a 10-byte key; only 3 bytes follow.
        let mut rec = 10u32.to_be_bytes().to_vec();
        rec.extend_from_slice(b"abc");
        assert_eq!(decode_kv(&rec), None);
    }

    #[test]
    fn into_variant_appends() {
        let mut buf = vec![9u8; 32];
        encode_kv_into(&mut buf, b"k", b"v");
        assert_eq!(buf[..32], [9u8; 32]);
        assert_eq!(decode_kv(&buf[32..]), Some((&b"k"[..], &b"v"[..])));
        assert_eq!(buf[32..], encode_kv(b"k", b"v"));
    }
}
