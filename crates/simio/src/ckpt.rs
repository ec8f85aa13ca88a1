//! Checkpoint container format: CRC-guarded framed sections.
//!
//! A stream-job checkpoint is a flat sequence of typed sections — raw
//! bytes, `u64` arrays, pair runs and state runs — so `opa-simio` stays
//! ignorant of the engine types layered on top (the stream runtime decides
//! what each section *means*). The container reuses the IFile-style
//! hardening of [`crate::codec`]: every length is bounds-checked before it
//! sizes an allocation, and a trailing CRC-32 over the whole file detects
//! corruption before any section is interpreted.
//!
//! Layout: `"OPAC"`, format version (`u32` BE), then per section a kind
//! byte, a `u64` BE payload length and the payload, and finally a CRC-32
//! (BE) of everything before it. Pair/state sections embed a complete
//! [`crate::codec::encode_run`] buffer, so they carry (and verify) their
//! own record-level checksums too.
//!
//! Formats built on the container read it through one typed, consuming
//! [`SectionReader`]; a count a file supplies is checked against the
//! sections the file still holds ([`SectionReader::count`]) before it
//! sizes anything.

use crate::codec::{crc32, decode_run, decode_state_run, encode_run, encode_state_run};
use opa_common::{Error, Pair, Result, StatePair};

/// Magic prefix of a checkpoint file.
const MAGIC: &[u8; 4] = b"OPAC";
/// Container format version.
const VERSION: u32 = 1;

const KIND_BYTES: u8 = 0;
const KIND_NUMS: u8 = 1;
const KIND_PAIRS: u8 = 2;
const KIND_STATES: u8 = 3;

/// One typed checkpoint section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Section {
    /// Uninterpreted bytes (e.g. a framework tag or free-form metadata).
    Bytes(Vec<u8>),
    /// An array of `u64` values (counters, times, queue entries).
    Nums(Vec<u64>),
    /// A run of key-value pairs.
    Pairs(Vec<Pair>),
    /// A run of key-state pairs.
    States(Vec<StatePair>),
}

/// Serializes sections into a checkpoint buffer.
pub fn encode_sections(sections: &[Section]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_be_bytes());
    for s in sections {
        let (kind, payload) = match s {
            Section::Bytes(b) => (KIND_BYTES, b.clone()),
            Section::Nums(ns) => {
                let mut p = Vec::with_capacity(ns.len() * 8);
                for n in ns {
                    p.extend_from_slice(&n.to_be_bytes());
                }
                (KIND_NUMS, p)
            }
            Section::Pairs(ps) => (KIND_PAIRS, encode_run(ps)),
            Section::States(ts) => (KIND_STATES, encode_state_run(ts)),
        };
        out.push(kind);
        out.extend_from_slice(&(payload.len() as u64).to_be_bytes());
        out.extend_from_slice(&payload);
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_be_bytes());
    out
}

/// Deserializes a checkpoint buffer, verifying the container CRC and every
/// embedded run checksum. All lengths are bounds-checked against the
/// remaining buffer before they size an allocation.
pub fn decode_sections(buf: &[u8]) -> Result<Vec<Section>> {
    if buf.len() < 12 || &buf[..4] != MAGIC {
        return Err(Error::storage("bad checkpoint header"));
    }
    let version = u32::from_be_bytes(buf[4..8].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(Error::storage(format!(
            "unsupported checkpoint format version {version} (expected {VERSION})"
        )));
    }
    let body = &buf[..buf.len() - 4];
    let stored = u32::from_be_bytes(buf[buf.len() - 4..].try_into().expect("4 bytes"));
    if crc32(body) != stored {
        return Err(Error::storage("checkpoint checksum mismatch"));
    }
    let mut sections = Vec::new();
    let mut pos = 8usize;
    while pos < body.len() {
        let kind = body[pos];
        let len_bytes = body
            .get(pos + 1..pos + 9)
            .ok_or_else(|| Error::storage("truncated section header"))?;
        let len = u64::from_be_bytes(len_bytes.try_into().expect("8 bytes")) as usize;
        // Checked: a forged length near u64::MAX must hit the bounds
        // error, not overflow the slice arithmetic.
        let end = (pos + 9)
            .checked_add(len)
            .ok_or_else(|| Error::storage("section length exceeds buffer"))?;
        let payload = body
            .get(pos + 9..end)
            .ok_or_else(|| Error::storage("section length exceeds buffer"))?;
        sections.push(match kind {
            KIND_BYTES => Section::Bytes(payload.to_vec()),
            KIND_NUMS => {
                if !len.is_multiple_of(8) {
                    return Err(Error::storage("number section length not a multiple of 8"));
                }
                Section::Nums(
                    payload
                        .chunks_exact(8)
                        .map(|c| u64::from_be_bytes(c.try_into().expect("8 bytes")))
                        .collect(),
                )
            }
            KIND_PAIRS => Section::Pairs(decode_run(payload)?),
            KIND_STATES => Section::States(decode_state_run(payload)?),
            other => return Err(Error::storage(format!("unknown section kind {other}"))),
        });
        pos = end;
    }
    Ok(sections)
}

/// The one typed, consuming reader over a decoded container. Every user
/// of the format (stream checkpoints, `.opadf` datasets, dataflow stage
/// files, `.opaq` quarantines) reads its schema through it: each call
/// takes the next section, checks its kind, and names the file format
/// and the expected field in the error. Sections are moved out, never
/// cloned.
#[derive(Debug)]
pub struct SectionReader {
    format: &'static str,
    sections: std::vec::IntoIter<Section>,
}

impl SectionReader {
    /// Verifies and decodes `buf` (see [`decode_sections`]); `format`
    /// names the file kind in every error this reader returns.
    pub fn new(buf: &[u8], format: &'static str) -> Result<SectionReader> {
        Ok(SectionReader {
            format,
            sections: decode_sections(buf)?.into_iter(),
        })
    }

    /// `<format>: <what>: <problem>` — every error names the file kind
    /// and the field the schema expected.
    fn err(&self, what: &str, problem: &str) -> Error {
        Error::storage(format!("{}: {what}: {problem}", self.format))
    }

    fn next(&mut self, what: &str) -> Result<Section> {
        let section = self.sections.next();
        section.ok_or_else(|| self.err(what, "the file ends before this section"))
    }

    /// The next section, which must be a `u64` array.
    pub fn nums(&mut self, what: &str) -> Result<Vec<u64>> {
        match self.next(what)? {
            Section::Nums(v) => Ok(v),
            _ => Err(self.err(what, "expected a numeric section")),
        }
    }

    /// The next section, which must be a `u64` array of exactly `N` values.
    pub fn nums_exact<const N: usize>(&mut self, what: &str) -> Result<[u64; N]> {
        <[u64; N]>::try_from(self.nums(what)?).map_err(|_| self.err(what, "wrong number of values"))
    }

    /// The next section, which must be raw bytes.
    pub fn bytes(&mut self, what: &str) -> Result<Vec<u8>> {
        match self.next(what)? {
            Section::Bytes(v) => Ok(v),
            _ => Err(self.err(what, "expected a byte section")),
        }
    }

    /// The next section, which must be raw bytes holding UTF-8 text.
    pub fn string(&mut self, what: &str) -> Result<String> {
        String::from_utf8(self.bytes(what)?).map_err(|_| self.err(what, "not UTF-8"))
    }

    /// The next section, which must be a pair run.
    pub fn pairs(&mut self, what: &str) -> Result<Vec<Pair>> {
        match self.next(what)? {
            Section::Pairs(v) => Ok(v),
            _ => Err(self.err(what, "expected a pair section")),
        }
    }

    /// The next section, which must be a state run.
    pub fn states(&mut self, what: &str) -> Result<Vec<StatePair>> {
        match self.next(what)? {
            Section::States(v) => Ok(v),
            _ => Err(self.err(what, "expected a state section")),
        }
    }

    /// Sections not yet consumed.
    pub fn remaining(&self) -> usize {
        self.sections.len()
    }

    /// Checks a file-supplied count of sections still to come against the
    /// sections the file actually holds, so a forged count is an error
    /// before it sizes an allocation or bounds a loop.
    pub fn count(&self, n: u64, what: &str) -> Result<usize> {
        match usize::try_from(n) {
            Ok(n) if n <= self.remaining() => Ok(n),
            _ => Err(self.err(what, &format!("count {n} exceeds the sections left"))),
        }
    }

    /// Ends the read: sections left over are an error.
    pub fn finish(self) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(self.err("end of file", &format!("{n} trailing sections"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opa_common::{Key, Value};

    fn sample() -> Vec<Section> {
        vec![
            Section::Bytes(b"stream-meta".to_vec()),
            Section::Nums(vec![0, 1, u64::MAX, 42]),
            Section::Pairs(vec![
                Pair::new(Key::from_u64(1), Value::from_u64(10)),
                Pair::new(Key::from_u64(2), Value::new(vec![7u8; 33])),
            ]),
            Section::States(vec![StatePair::new(
                Key::from_u64(9),
                Value::new(vec![1, 2, 3]),
            )]),
            Section::Nums(Vec::new()),
        ]
    }

    #[test]
    fn sections_roundtrip() {
        let sections = sample();
        let buf = encode_sections(&sections);
        assert_eq!(decode_sections(&buf).unwrap(), sections);
    }

    #[test]
    fn empty_checkpoint_roundtrips() {
        let buf = encode_sections(&[]);
        assert_eq!(decode_sections(&buf).unwrap(), Vec::<Section>::new());
    }

    #[test]
    fn corruption_is_detected() {
        let mut buf = encode_sections(&sample());
        let mid = buf.len() / 2;
        buf[mid] ^= 0x10;
        assert!(decode_sections(&buf).is_err());
    }

    #[test]
    fn truncation_is_detected() {
        let buf = encode_sections(&sample());
        for cut in [3, 9, buf.len() - 1] {
            assert!(decode_sections(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn oversized_section_length_rejected_without_allocating() {
        // Forge a section claiming more payload than the file holds; the
        // decoder must fail on the bounds check, not attempt the read.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"OPAC");
        buf.extend_from_slice(&1u32.to_be_bytes());
        buf.push(0u8);
        buf.extend_from_slice(&u64::MAX.to_be_bytes());
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_be_bytes());
        assert!(decode_sections(&buf).is_err());
    }

    #[test]
    fn unknown_kind_and_version_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"OPAC");
        buf.extend_from_slice(&1u32.to_be_bytes());
        buf.push(99u8);
        buf.extend_from_slice(&0u64.to_be_bytes());
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_be_bytes());
        assert!(decode_sections(&buf).is_err());

        let mut v2 = encode_sections(&[]);
        v2[7] = 9; // bump version, fix CRC
        let crc = crc32(&v2[..v2.len() - 4]);
        let n = v2.len();
        v2[n - 4..].copy_from_slice(&crc.to_be_bytes());
        assert!(decode_sections(&v2).is_err());
    }

    #[test]
    fn reader_hands_out_typed_sections_in_order() {
        let mut r = SectionReader::new(&encode_sections(&sample()), "unit file").unwrap();
        assert_eq!(r.remaining(), 5);
        assert_eq!(r.string("meta").unwrap(), "stream-meta");
        assert_eq!(r.nums_exact::<4>("nums").unwrap(), [0, 1, u64::MAX, 42]);
        assert_eq!(r.pairs("pairs").unwrap().len(), 2);
        assert_eq!(r.count(2, "rest").unwrap(), 2);
        assert!(r.count(3, "rest").is_err());
        assert!(r.count(1 << 62, "rest").is_err());
        assert_eq!(r.states("states").unwrap().len(), 1);
        assert_eq!(r.nums("tail").unwrap(), Vec::<u64>::new());
        r.finish().unwrap();
    }

    #[test]
    fn reader_rejects_wrong_kind_wrong_width_truncation_and_leftovers() {
        let buf = encode_sections(&sample());
        let reader = || SectionReader::new(&buf, "unit file").unwrap();
        let err = reader().nums("meta").unwrap_err().to_string();
        assert!(err.contains("unit file: meta: expected a numeric"), "{err}");
        let mut r = reader();
        r.bytes("meta").unwrap();
        assert!(r.nums_exact::<3>("nums").is_err(), "4 values are not 3");
        assert!(reader().finish().is_err(), "5 sections left over");
        let mut empty = SectionReader::new(&encode_sections(&[]), "unit file").unwrap();
        let err = empty.pairs("output").unwrap_err().to_string();
        assert!(err.contains("unit file: output: the file ends"), "{err}");
    }
}
