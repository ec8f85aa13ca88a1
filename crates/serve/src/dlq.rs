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
//! The file is an [`opa_simio::ckpt`] container of kind
//! [`Kind::QUARANTINE`], inheriting its hardening: the header says what
//! the file is, corruption is detected before any section is interpreted,
//! and a forged section length fails the bounds check instead of sizing an
//! allocation.

use opa_common::{Error, Result};
use opa_core::job::PoisonedRecord;
use opa_simio::ckpt::{Kind, SectionReader, SectionWriter};
use std::path::Path;

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
    pub entries: Vec<PoisonedRecord>,
}

impl QuarantineFile {
    /// Writes the quarantine to `path`, creating parent directories.
    pub fn write_to(&self, path: &Path) -> Result<()> {
        let mut w = SectionWriter::new(Kind::QUARANTINE);
        w.nums(&[
            u64::from(self.tenant),
            u64::from(self.job),
            self.seed,
            self.entries.len() as u64,
        ])
        .bytes(self.job_name.as_bytes());
        for e in &self.entries {
            e.write(&mut w);
        }
        w.write_to(path)
    }

    /// Reads and verifies a quarantine from `path`. The container checks
    /// the CRC and the header's kind and version before any section is
    /// interpreted; this layer validates the quarantine schema (counts,
    /// field widths).
    pub fn read_from(path: &Path) -> Result<QuarantineFile> {
        let mut r = SectionReader::open(path, Kind::QUARANTINE)?;
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
            entries.push(PoisonedRecord::read(&mut r)?);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn sample() -> QuarantineFile {
        QuarantineFile {
            tenant: 3,
            job: 12,
            job_name: "click-count".into(),
            seed: 0xfeed,
            entries: vec![
                PoisonedRecord {
                    chunk: 0,
                    attempt: 0,
                    offset: 17,
                    record: Bytes::copy_from_slice(b"1000 42 /a 200"),
                },
                PoisonedRecord {
                    chunk: 5,
                    attempt: 2,
                    offset: 40_961,
                    record: Bytes::copy_from_slice(b"1001 43 /b 500"),
                },
            ],
        }
    }

    /// A scratch file of the test's own.
    fn scratch(test: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("opa-dlq-{test}-{}.opaq", std::process::id()))
    }

    /// The bytes `q` writes.
    fn encoded(q: &QuarantineFile, test: &str) -> Vec<u8> {
        let path = scratch(test);
        q.write_to(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    }

    /// What `bytes` read back as.
    fn decoded(bytes: &[u8], test: &str) -> Result<QuarantineFile> {
        let path = scratch(test);
        std::fs::write(&path, bytes).unwrap();
        let back = QuarantineFile::read_from(&path);
        std::fs::remove_file(&path).ok();
        back
    }

    #[test]
    fn quarantine_roundtrips() {
        let q = sample();
        let back = decoded(&encoded(&q, "roundtrip"), "roundtrip");
        assert_eq!(back.unwrap(), q);
    }

    #[test]
    fn empty_quarantine_roundtrips() {
        let q = QuarantineFile {
            entries: Vec::new(),
            ..sample()
        };
        assert_eq!(decoded(&encoded(&q, "empty"), "empty").unwrap(), q);
    }

    #[test]
    fn corruption_is_rejected() {
        let mut buf = encoded(&sample(), "corrupt");
        let mid = buf.len() / 2;
        buf[mid] ^= 0x04;
        assert!(decoded(&buf, "corrupt").is_err());
    }

    #[test]
    fn truncation_is_rejected() {
        let buf = encoded(&sample(), "cut");
        for cut in [0, 4, 11, buf.len() - 1] {
            assert!(decoded(&buf[..cut], "cut").is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn forged_section_length_is_rejected_without_allocating() {
        // Splice a near-u64::MAX length into the first section header and
        // re-seal the CRC: the container bounds check must reject it (the
        // CRC alone would not — the attacker controls the whole file).
        let mut buf = encoded(&sample(), "forged");
        let len = buf.len();
        buf.truncate(len - 4); // drop CRC
        buf[9..17].copy_from_slice(&(u64::MAX - 7).to_be_bytes());
        let crc = opa_simio::codec::crc32(&buf);
        buf.extend_from_slice(&crc.to_be_bytes());
        assert!(decoded(&buf, "forged").is_err());
    }

    #[test]
    fn foreign_container_is_rejected_by_kind() {
        // A structurally valid container that isn't a quarantine.
        let mut w = SectionWriter::new(Kind::STREAM_CHECKPOINT);
        w.nums(&[1, 2, 3]);
        let err = decoded(&w.finish(), "foreign").unwrap_err().to_string();
        assert!(
            err.contains("expected a quarantine file, found a stream checkpoint file"),
            "{err}"
        );
    }

    #[test]
    fn header_count_mismatch_is_rejected() {
        // A hand-built file whose header claims 5 entries but holds 1.
        let e = &sample().entries[0];
        let mut w = SectionWriter::new(Kind::QUARANTINE);
        w.nums(&[3, 12, 0xfeed, 5])
            .bytes(b"click-count")
            .nums(&[u64::from(e.chunk), u64::from(e.attempt), e.offset])
            .bytes(e.record.as_slice());
        let err = decoded(&w.finish(), "count").unwrap_err().to_string();
        assert!(err.contains("count mismatch"), "{err}");
    }
}
