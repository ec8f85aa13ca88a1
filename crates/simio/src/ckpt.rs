//! The one persisted-state container: CRC-guarded framed sections.
//!
//! Every file the platform persists is this container: stream
//! checkpoints (`.opac`), serve quarantines (`.opaq`), datasets (`.opadf`)
//! and dataflow stage checkpoints. A file is a flat sequence of typed
//! sections — raw bytes, `u64` arrays, pair runs and state runs — so
//! `opa-simio` stays ignorant of what each format's sections *mean*. The
//! hardening is [`crate::codec`]'s: every length is bounds-checked before
//! it sizes an allocation, and a trailing CRC-32 detects corruption before
//! any section is interpreted.
//!
//! Layout: an 8-byte header — `"OPAC"`, the file's [`Kind`] code and that
//! kind's schema version, each a `u16` BE — then per section a tag byte, a
//! `u64` BE payload length and the payload, and finally a CRC-32 (BE) of
//! everything before it. Pair/state sections embed a complete
//! [`crate::codec::encode_run`] buffer with its own record checksum.
//!
//! A file says what it is: [`SectionWriter`] stamps the kind and version,
//! and [`SectionReader`] opens a file *for* a kind, rejecting any other
//! kind or version — naming both — before it reads a section.

use crate::codec::{crc32, decode_run, encode_run_into};
use opa_common::{Error, Pair, Result};
use std::borrow::Cow;
use std::io::Write as _;
use std::path::Path;

/// Magic prefix of every container file.
const MAGIC: &[u8; 4] = b"OPAC";

const SEC_BYTES: u8 = 0;
const SEC_NUMS: u8 = 1;
const SEC_PAIRS: u8 = 2;
const SEC_STATES: u8 = 3;

/// What a container file holds, and the schema version this build writes
/// and reads for it. Codes start at 1, so a file written before the
/// header carried a kind (bytes 4..8 were a `u32` version, `00 00 00 01`)
/// reads as unknown kind 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kind {
    code: u16,
    version: u16,
    name: &'static str,
}

impl Kind {
    /// A paused stream job (`opa_stream::SavedState`). Versions 1 and 2
    /// sat in its first section's first slot.
    pub const STREAM_CHECKPOINT: Kind = Kind::new(1, 3, "stream checkpoint");
    /// A served job's dead-letter queue (`opa_serve::QuarantineFile`).
    /// Version 1 was an in-band `OPA-DLQ v1` first section.
    pub const QUARANTINE: Kind = Kind::new(2, 2, "quarantine");
    /// A resident dataset (`opa_core::dataflow::Dataset`).
    pub const DATASET: Kind = Kind::new(3, 1, "dataset");
    /// A dataflow stage's output stamped with its chain
    /// (`opa_core::dataflow::StageCheckpoint`).
    pub const DATAFLOW_STAGE: Kind = Kind::new(4, 1, "dataflow stage checkpoint");
    const ALL: [Kind; 4] = [
        Kind::STREAM_CHECKPOINT,
        Kind::QUARANTINE,
        Kind::DATASET,
        Kind::DATAFLOW_STAGE,
    ];

    const fn new(code: u16, version: u16, name: &'static str) -> Kind {
        Kind {
            code,
            version,
            name,
        }
    }
}

/// The one writer of container files: each call appends one typed section
/// straight into the file buffer, encoded from borrowed data.
#[derive(Debug)]
pub struct SectionWriter {
    buf: Vec<u8>,
}

impl SectionWriter {
    /// Starts a file of `kind`, at the kind's current schema version.
    pub fn new(kind: Kind) -> SectionWriter {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&kind.code.to_be_bytes());
        buf.extend_from_slice(&kind.version.to_be_bytes());
        SectionWriter { buf }
    }

    /// Appends a section: its tag, its payload as `fill` writes it, and
    /// the payload length patched in ahead of the payload.
    fn framed(&mut self, tag: u8, fill: impl FnOnce(&mut Vec<u8>)) -> &mut Self {
        self.buf.push(tag);
        let at = self.buf.len();
        self.buf.extend_from_slice(&[0; 8]);
        fill(&mut self.buf);
        let len = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&len.to_be_bytes());
        self
    }

    /// Appends a `u64` array.
    pub fn nums(&mut self, nums: &[u64]) -> &mut Self {
        self.framed(SEC_NUMS, |out| {
            out.reserve(8 * nums.len());
            for n in nums {
                out.extend_from_slice(&n.to_be_bytes());
            }
        })
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.framed(SEC_BYTES, |out| out.extend_from_slice(bytes))
    }

    /// Appends a run of key-value pairs.
    pub fn pairs(&mut self, pairs: &[Pair]) -> &mut Self {
        self.run(SEC_PAIRS, pairs)
    }

    /// Appends a run of key-state pairs: the same framing as
    /// [`SectionWriter::pairs`] under the state-section tag.
    pub fn states(&mut self, states: &[Pair]) -> &mut Self {
        self.run(SEC_STATES, states)
    }

    fn run(&mut self, tag: u8, rows: &[Pair]) -> &mut Self {
        self.framed(tag, |out| {
            encode_run_into(out, rows.iter().map(|p| (p.key.bytes(), p.value.bytes())))
        })
    }

    /// Seals the file with its CRC-32 and returns its bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let crc = crc32(&self.buf);
        self.buf.extend_from_slice(&crc.to_be_bytes());
        self.buf
    }

    /// Seals the file and writes it to `path`, creating parent
    /// directories.
    pub fn write_to(self, path: &Path) -> Result<()> {
        write_file(path, &self.finish())
    }
}

/// Writes sealed container bytes ([`SectionWriter::finish`]) to `path`,
/// creating parent directories — how one encoding goes to several files.
///
/// An existing file is rewritten in place: opened without truncation,
/// overwritten, then cut to the new length. Truncating first makes the
/// file system free the old blocks and allocate new ones on every rewrite,
/// and checkpoints rewrite the same names run after run. The bytes on disk
/// are the same either way, and a rewrite torn part-way still fails the
/// trailing CRC, as a torn truncate-and-write does.
pub fn write_file(path: &Path, bytes: &[u8]) -> Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::storage(format!("mkdir {}: {e}", dir.display())))?;
    }
    let err = |e: std::io::Error| Error::storage(format!("write {}: {e}", path.display()));
    let mut file = std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
        .map_err(err)?;
    file.write_all(bytes).map_err(err)?;
    file.set_len(bytes.len() as u64).map_err(err)
}

/// The one reader of container files. It opens a file *for* a [`Kind`]
/// and hands out the sections in order, each checked against the type the
/// caller asks for; every error names the file kind and the field the
/// schema expected. Nothing is decoded before it is asked for, but every
/// section's tag and length are checked when the file is opened.
///
/// A reader over a caller's buffer checks and reads those bytes where they
/// are; one opened from a path owns the file it read.
#[derive(Debug)]
pub struct SectionReader<'a> {
    kind: Kind,
    /// The whole file, CRC trailer included.
    file: Cow<'a, [u8]>,
    /// Length of the file without its CRC trailer.
    end: usize,
    /// Offset of the next section's tag byte.
    pos: usize,
    /// Sections not yet read.
    left: usize,
}

impl<'a> SectionReader<'a> {
    /// Opens `buf` as a file of `kind` (see [`SectionReader::open`]),
    /// borrowing it.
    pub fn new(buf: &'a [u8], kind: Kind) -> Result<Self> {
        SectionReader::verified(Cow::Borrowed(buf), kind)
    }

    /// Reads `path` and opens it as a file of `kind`: magic, CRC, then the
    /// header's kind and version, then every section's tag and length.
    pub fn open(path: &Path, kind: Kind) -> Result<Self> {
        let file = std::fs::read(path)
            .map_err(|e| Error::storage(format!("read {}: {e}", path.display())))?;
        SectionReader::verified(Cow::Owned(file), kind)
    }

    fn verified(file: Cow<'a, [u8]>, kind: Kind) -> Result<Self> {
        let name = kind.name;
        if file.len() < 12 || &file[..4] != MAGIC {
            return Err(Error::storage(format!("not a {name} file: no OPAC header")));
        }
        let end = file.len() - 4;
        if crc32(&file[..end]) != u32::from_be_bytes(file[end..].try_into().expect("4 bytes")) {
            return Err(Error::storage(format!("{name} checksum mismatch")));
        }
        let code = u16::from_be_bytes([file[4], file[5]]);
        let version = u16::from_be_bytes([file[6], file[7]]);
        if code != kind.code {
            let found = match Kind::ALL.iter().find(|k| k.code == code) {
                Some(k) => format!("a {} file", k.name),
                None => format!("unknown kind {code}"),
            };
            return Err(Error::storage(format!(
                "expected a {name} file, found {found}"
            )));
        }
        if version != kind.version {
            return Err(Error::storage(format!(
                "{name} schema version {version}; this build reads version {}",
                kind.version
            )));
        }
        let mut r = SectionReader {
            kind,
            file,
            end,
            pos: 8,
            left: 0,
        };
        let mut pos = r.pos;
        while pos < r.end {
            pos = r.section_at(pos)?.2;
            r.left += 1;
        }
        Ok(r)
    }

    /// The section whose tag byte is at `pos`: its tag and the start and
    /// end of its payload. A forged length near `u64::MAX` hits the bounds
    /// error, never overflows the offset arithmetic.
    fn section_at(&self, pos: usize) -> Result<(u8, usize, usize)> {
        let len = self.file[..self.end]
            .get(pos + 1..pos + 9)
            .ok_or_else(|| Error::storage("truncated section header"))?;
        let len = u64::from_be_bytes(len.try_into().expect("8 bytes")) as usize;
        let end = (pos + 9)
            .checked_add(len)
            .filter(|&end| end <= self.end)
            .ok_or_else(|| Error::storage("section length exceeds buffer"))?;
        match self.file[pos] {
            SEC_NUMS if !len.is_multiple_of(8) => {
                Err(Error::storage("number section length not a multiple of 8"))
            }
            tag @ SEC_BYTES..=SEC_STATES => Ok((tag, pos + 9, end)),
            tag => Err(Error::storage(format!("unknown section tag {tag}"))),
        }
    }

    /// `<kind>: <what>: <problem>` — every error names the file kind and
    /// the field the schema expected.
    fn err(&self, what: &str, problem: &str) -> Error {
        Error::storage(format!("{}: {what}: {problem}", self.kind.name))
    }

    /// The next section's payload, which must carry `tag`.
    fn next(&mut self, tag: u8, what: &str) -> Result<&[u8]> {
        if self.left == 0 {
            return Err(self.err(what, "the file ends before this section"));
        }
        let (found, start, end) = self.section_at(self.pos)?;
        if found != tag {
            let expected = ["a byte", "a numeric", "a pair", "a state"][usize::from(tag)];
            return Err(self.err(what, &format!("expected {expected} section")));
        }
        (self.pos, self.left) = (end, self.left - 1);
        Ok(&self.file[start..end])
    }

    /// The next section, which must be a `u64` array.
    pub fn nums(&mut self, what: &str) -> Result<Vec<u64>> {
        let payload = self.next(SEC_NUMS, what)?;
        Ok(payload
            .chunks_exact(8)
            .map(|c| u64::from_be_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    /// The next section, which must be a `u64` array of exactly `N` values.
    pub fn nums_exact<const N: usize>(&mut self, what: &str) -> Result<[u64; N]> {
        <[u64; N]>::try_from(self.nums(what)?).map_err(|_| self.err(what, "wrong number of values"))
    }

    /// The next section, which must be raw bytes.
    pub fn bytes(&mut self, what: &str) -> Result<Vec<u8>> {
        Ok(self.next(SEC_BYTES, what)?.to_vec())
    }

    /// The next section, which must be raw bytes holding UTF-8 text.
    pub fn string(&mut self, what: &str) -> Result<String> {
        String::from_utf8(self.bytes(what)?).map_err(|_| self.err(what, "not UTF-8"))
    }

    /// The next section, which must be a run of key-value pairs (its own
    /// checksum is verified here).
    pub fn pairs(&mut self, what: &str) -> Result<Vec<Pair>> {
        decode_run(self.next(SEC_PAIRS, what)?)
    }

    /// The next section, which must be a run of key-state pairs.
    pub fn states(&mut self, what: &str) -> Result<Vec<Pair>> {
        decode_run(self.next(SEC_STATES, what)?)
    }

    /// Sections not yet read.
    pub fn remaining(&self) -> usize {
        self.left
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

    /// A file of `kind` holding one section of each type, then an empty
    /// numeric one.
    fn sample(kind: Kind) -> Vec<u8> {
        let mut w = SectionWriter::new(kind);
        w.bytes(b"stream-meta")
            .nums(&[0, 1, u64::MAX, 42])
            .pairs(&[
                Pair::new(Key::from_u64(1), Value::from_u64(10)),
                Pair::new(Key::from_u64(2), Value::new(vec![7u8; 33])),
            ])
            .states(&[Pair::new(Key::from_u64(9), Value::new(vec![1, 2, 3]))])
            .nums(&[]);
        w.finish()
    }

    fn reader(buf: &[u8]) -> Result<SectionReader<'_>> {
        SectionReader::new(buf, Kind::DATASET)
    }

    /// `buf` with its trailing CRC recomputed, as any forger would.
    fn resealed(mut buf: Vec<u8>) -> Vec<u8> {
        let n = buf.len() - 4;
        let crc = crc32(&buf[..n]);
        buf[n..].copy_from_slice(&crc.to_be_bytes());
        buf
    }

    #[test]
    fn sections_roundtrip() {
        let buf = sample(Kind::DATASET);
        let mut r = reader(&buf).unwrap();
        assert_eq!(r.bytes("meta").unwrap(), b"stream-meta");
        assert_eq!(r.nums("nums").unwrap(), [0, 1, u64::MAX, 42]);
        let pairs = r.pairs("pairs").unwrap();
        assert_eq!(pairs[1].value, Value::new(vec![7u8; 33]));
        let states = r.states("states").unwrap();
        assert_eq!(states[0].value, Value::new(vec![1, 2, 3]));
        assert_eq!(r.nums("tail").unwrap(), Vec::<u64>::new());
        r.finish().unwrap();
    }

    #[test]
    fn empty_checkpoint_roundtrips() {
        let buf = SectionWriter::new(Kind::QUARANTINE).finish();
        assert_eq!(buf.len(), 12, "header and CRC only");
        let r = SectionReader::new(&buf, Kind::QUARANTINE).unwrap();
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn header_is_magic_kind_and_version() {
        let buf = SectionWriter::new(Kind::STREAM_CHECKPOINT).finish();
        assert_eq!(&buf[..8], b"OPAC\x00\x01\x00\x03");
        let buf = SectionWriter::new(Kind::DATAFLOW_STAGE).finish();
        assert_eq!(&buf[..8], b"OPAC\x00\x04\x00\x01");
    }

    #[test]
    fn corruption_is_detected() {
        let mut buf = sample(Kind::DATASET);
        let mid = buf.len() / 2;
        buf[mid] ^= 0x10;
        assert!(reader(&buf).is_err());
    }

    #[test]
    fn truncation_is_detected() {
        let buf = sample(Kind::DATASET);
        for cut in [3, 9, buf.len() - 1] {
            assert!(reader(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn oversized_section_length_rejected_without_allocating() {
        // Forge a section claiming more payload than the file holds; the
        // reader must fail on the bounds check, not attempt the read.
        let mut buf = sample(Kind::DATASET);
        buf[9..17].copy_from_slice(&u64::MAX.to_be_bytes());
        assert!(reader(&resealed(buf)).is_err());
    }

    #[test]
    fn unknown_kind_and_version_rejected() {
        let mut buf = sample(Kind::DATASET);
        buf[8] = 99;
        let err = reader(&resealed(buf)).unwrap_err();
        assert!(err.to_string().contains("unknown section tag 99"), "{err}");
        // Before the header carried a kind, bytes 4..8 were `u32` 1.
        let mut old = sample(Kind::STREAM_CHECKPOINT);
        old[4..8].copy_from_slice(&1u32.to_be_bytes());
        let err = SectionReader::new(&resealed(old), Kind::STREAM_CHECKPOINT).unwrap_err();
        assert!(
            err.to_string()
                .contains("expected a stream checkpoint file, found unknown kind 0"),
            "{err}"
        );
        let mut next = sample(Kind::QUARANTINE);
        next[7] = 9;
        let err = SectionReader::new(&resealed(next), Kind::QUARANTINE).unwrap_err();
        assert!(
            err.to_string()
                .contains("quarantine schema version 9; this build reads version 2"),
            "{err}"
        );
    }

    #[test]
    fn reader_hands_out_typed_sections_in_order() {
        let buf = sample(Kind::DATASET);
        let mut r = reader(&buf).unwrap();
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
        let buf = sample(Kind::DATASET);
        let err = reader(&buf).unwrap().nums("meta").unwrap_err().to_string();
        assert!(err.contains("dataset: meta: expected a numeric"), "{err}");
        let mut r = reader(&buf).unwrap();
        r.bytes("meta").unwrap();
        assert!(r.nums_exact::<3>("nums").is_err(), "4 values are not 3");
        assert!(
            reader(&buf).unwrap().finish().is_err(),
            "5 sections left over"
        );
        let empty = SectionWriter::new(Kind::DATASET).finish();
        let err = reader(&empty).unwrap().pairs("output").unwrap_err();
        let err = err.to_string();
        assert!(err.contains("dataset: output: the file ends"), "{err}");
    }

    /// A directory of its own for one test.
    fn scratch_dir(test: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("opa-ckpt-{test}-{}", std::process::id()))
    }

    #[test]
    fn rewrite_in_place_leaves_exactly_the_new_bytes() {
        let dir = scratch_dir("rewrite");
        let path = dir.join("f.opac");
        write_file(&path, &[0xEE; 8192]).unwrap();
        let short: Vec<u8> = (0..2048u32).map(|i| (i * 7) as u8).collect();
        write_file(&path, &short).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            short,
            "no byte of the 8 KB file is left"
        );
        let long = sample(Kind::DATASET);
        write_file(&path, &long).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), long);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_rewrite_fails_the_crc() {
        // A rewrite cut off after its first bytes leaves the new file's
        // head over the old file's tail and CRC.
        let dir = scratch_dir("torn");
        let path = dir.join("stream-ckpt-b4.opac");
        let mut old = SectionWriter::new(Kind::STREAM_CHECKPOINT);
        old.nums(&[4, 16]).bytes(&[0x11; 600]).nums(&[1, 2, 3]);
        old.write_to(&path).unwrap();
        let mut new = SectionWriter::new(Kind::STREAM_CHECKPOINT);
        new.nums(&[8, 16]).bytes(&[0x22; 300]);
        let new = new.finish();
        let mut file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.write_all(&new[..new.len() / 2]).unwrap();
        drop(file);
        let err = SectionReader::open(&path, Kind::STREAM_CHECKPOINT).unwrap_err();
        assert!(
            err.to_string()
                .contains("stream checkpoint checksum mismatch"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_roundtrip_through_one_path() {
        let dir = std::env::temp_dir().join(format!("opa-ckpt-unit-{}", std::process::id()));
        let path = dir.join("sub").join("f.opadf");
        let mut w = SectionWriter::new(Kind::DATASET);
        w.nums(&[1, 2]).bytes(b"x");
        w.write_to(&path).unwrap();
        let mut r = SectionReader::open(&path, Kind::DATASET).unwrap();
        assert_eq!(r.nums_exact::<2>("a").unwrap(), [1, 2]);
        assert_eq!(r.bytes("b").unwrap(), b"x");
        assert!(SectionReader::open(&path, Kind::QUARANTINE).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
