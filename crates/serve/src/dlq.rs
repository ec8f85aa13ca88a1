//! The poison-record dead-letter queue: CRC-guarded quarantine files.
//!
//! When a map UDF rejects a record, the engine quarantines it instead of
//! failing the job (see `opa_common::fault::FaultConfig::poisons`). The
//! server persists each finished job's quarantined records to one
//! `.opaq` file with **full provenance** — tenant, job, map task (chunk),
//! committing attempt and the record's global input offset — so an
//! operator can inspect exactly what was dropped and why, and replay the
//! job after fixing the UDF.
//!
//! The container rides on [`opa_simio::ckpt`]'s framed-section format
//! (`"OPAC"` magic, per-section kind + bounds-checked `u64` length,
//! trailing CRC-32), inheriting its hardening: corruption is detected
//! before any section is interpreted, and a forged section length fails
//! the bounds check instead of sizing an allocation.

use bytes::Bytes;
use opa_common::{Error, Result};
use opa_simio::ckpt::{encode_sections, Section, SectionReader};
use std::path::Path;

/// First-section magic distinguishing a quarantine file from the other
/// `.opac`-container users (stream checkpoints, run outputs).
const DLQ_MAGIC: &[u8] = b"OPA-DLQ v1";

/// One quarantined record with full provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// Map task (chunk) index the record belonged to.
    pub chunk: u32,
    /// Map-task attempt that committed the chunk (and the verdict).
    pub attempt: u32,
    /// The record's global input offset (arrival order).
    pub offset: u64,
    /// The rejected record, byte-exact.
    pub record: Bytes,
}

/// A job's dead-letter queue as persisted to disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineFile {
    /// Tenant that owned the job.
    pub tenant: u32,
    /// Server-assigned job id.
    pub job: u32,
    /// The job's human-readable name.
    pub job_name: String,
    /// Fault seed the poison verdicts were drawn from — replaying with
    /// the *same* seed and a fixed UDF must reproduce the verdicts, which
    /// is what makes the replay comparable to the original run.
    pub seed: u64,
    /// The quarantined records, in engine commit order.
    pub entries: Vec<QuarantineEntry>,
}

impl QuarantineFile {
    /// Serializes the quarantine to the CRC-guarded section container.
    pub fn encode(&self) -> Vec<u8> {
        let mut sections = Vec::with_capacity(3 + self.entries.len() * 2);
        sections.push(Section::Bytes(DLQ_MAGIC.to_vec()));
        sections.push(Section::Nums(vec![
            u64::from(self.tenant),
            u64::from(self.job),
            self.seed,
            self.entries.len() as u64,
        ]));
        sections.push(Section::Bytes(self.job_name.as_bytes().to_vec()));
        for e in &self.entries {
            sections.push(Section::Nums(vec![
                u64::from(e.chunk),
                u64::from(e.attempt),
                e.offset,
            ]));
            sections.push(Section::Bytes(e.record.as_slice().to_vec()));
        }
        encode_sections(&sections)
    }

    /// Parses and verifies a quarantine buffer. The container CRC has
    /// already caught bit corruption by the time section contents are
    /// interpreted; this layer additionally validates the quarantine
    /// schema (magic, counts, field widths).
    pub fn decode(buf: &[u8]) -> Result<QuarantineFile> {
        let mut r = SectionReader::new(buf, "quarantine")?;
        if !matches!(r.bytes("magic"), Ok(m) if m == DLQ_MAGIC) {
            return Err(Error::storage("not a quarantine file (bad magic)"));
        }
        let narrow = |v: u64, what: &str| {
            u32::try_from(v).map_err(|_| Error::storage(format!("quarantine {what} out of range")))
        };
        let [tenant, job, seed, count] = r.nums_exact("header")?;
        let (tenant, job) = (narrow(tenant, "tenant")?, narrow(job, "job")?);
        let job_name = r.string("job name")?;
        // Sized by the sections the file holds, never by the header's
        // `count`, which is only compared afterwards.
        let mut entries = Vec::with_capacity(r.remaining() / 2);
        while r.remaining() > 0 {
            let [chunk, attempt, offset] = r.nums_exact("entry header")?;
            entries.push(QuarantineEntry {
                chunk: narrow(chunk, "chunk")?,
                attempt: narrow(attempt, "attempt")?,
                offset,
                record: Bytes::from(r.bytes("entry payload")?),
            });
        }
        if entries.len() as u64 != count {
            return Err(Error::storage(format!(
                "quarantine entry count mismatch: header says {count}, file holds {}",
                entries.len()
            )));
        }
        Ok(QuarantineFile {
            tenant,
            job,
            job_name,
            seed,
            entries,
        })
    }

    /// Writes the quarantine to `path`.
    pub fn write_to(&self, path: &Path) -> Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| Error::storage(format!("mkdir {}: {e}", dir.display())))?;
        }
        std::fs::write(path, self.encode())
            .map_err(|e| Error::storage(format!("write {}: {e}", path.display())))
    }

    /// Reads and verifies a quarantine from `path`.
    pub fn read_from(path: &Path) -> Result<QuarantineFile> {
        let buf = std::fs::read(path)
            .map_err(|e| Error::storage(format!("read {}: {e}", path.display())))?;
        QuarantineFile::decode(&buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> QuarantineFile {
        QuarantineFile {
            tenant: 3,
            job: 12,
            job_name: "click-count".into(),
            seed: 0xfeed,
            entries: vec![
                QuarantineEntry {
                    chunk: 0,
                    attempt: 0,
                    offset: 17,
                    record: Bytes::copy_from_slice(b"1000 42 /a 200"),
                },
                QuarantineEntry {
                    chunk: 5,
                    attempt: 2,
                    offset: 40_961,
                    record: Bytes::copy_from_slice(b"1001 43 /b 500"),
                },
            ],
        }
    }

    #[test]
    fn quarantine_roundtrips() {
        let q = sample();
        assert_eq!(QuarantineFile::decode(&q.encode()).unwrap(), q);
    }

    #[test]
    fn empty_quarantine_roundtrips() {
        let q = QuarantineFile {
            entries: Vec::new(),
            ..sample()
        };
        assert_eq!(QuarantineFile::decode(&q.encode()).unwrap(), q);
    }

    #[test]
    fn corruption_is_rejected() {
        let mut buf = sample().encode();
        let mid = buf.len() / 2;
        buf[mid] ^= 0x04;
        assert!(QuarantineFile::decode(&buf).is_err());
    }

    #[test]
    fn truncation_is_rejected() {
        let buf = sample().encode();
        for cut in [0, 4, 11, buf.len() - 1] {
            assert!(QuarantineFile::decode(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn forged_section_length_is_rejected_without_allocating() {
        // Splice a near-u64::MAX length into the first section header and
        // re-seal the CRC: the container bounds check must reject it (the
        // CRC alone would not — the attacker controls the whole file).
        let mut buf = sample().encode();
        let len = buf.len();
        buf.truncate(len - 4); // drop CRC
        buf[9..17].copy_from_slice(&(u64::MAX - 7).to_be_bytes());
        let crc = opa_simio::codec::crc32(&buf);
        buf.extend_from_slice(&crc.to_be_bytes());
        assert!(QuarantineFile::decode(&buf).is_err());
    }

    #[test]
    fn foreign_container_is_rejected_by_magic() {
        // A structurally valid section file that isn't a quarantine.
        let buf = encode_sections(&[Section::Nums(vec![1, 2, 3])]);
        let err = QuarantineFile::decode(&buf).unwrap_err().to_string();
        assert!(err.contains("magic"), "{err}");
    }

    #[test]
    fn header_count_mismatch_is_rejected() {
        // A hand-built file whose header claims 5 entries but holds 1.
        let e = &sample().entries[0];
        let inconsistent = encode_sections(&[
            Section::Bytes(DLQ_MAGIC.to_vec()),
            Section::Nums(vec![3, 12, 0xfeed, 5]),
            Section::Bytes(b"click-count".to_vec()),
            Section::Nums(vec![u64::from(e.chunk), u64::from(e.attempt), e.offset]),
            Section::Bytes(e.record.as_slice().to_vec()),
        ]);
        let err = QuarantineFile::decode(&inconsistent)
            .unwrap_err()
            .to_string();
        assert!(err.contains("count mismatch"), "{err}");
    }
}
