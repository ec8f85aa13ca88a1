//! Chain-wide checkpoint / restore.
//!
//! With a checkpoint directory configured, a [`Dataflow`](super::Dataflow)
//! writes each stage's output dataset to `stage-<i>.opadf` as it
//! completes, and on a resumed run restores the *latest* stage file that
//! (a) decodes cleanly — the `OPAC` framing carries a CRC — and (b) was
//! written by the *same chain*, identified by a fingerprint over every
//! stage's job name, framework label and the chain's partition function.
//! Execution then resumes mid-pipeline at stage `i + 1`; a checkpoint
//! from a different or edited chain is ignored rather than trusted.

use super::dataset::Dataset;
use opa_common::Result;
use opa_simio::ckpt::{Kind, SectionReader, SectionWriter};
use std::path::{Path, PathBuf};

/// FNV-1a over the chain's identity strings: stage job names, framework
/// labels, and the partition-function parameters. Order-sensitive — the
/// same jobs chained differently fingerprint differently.
pub(crate) fn chain_fingerprint<'a>(parts: impl Iterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separator so ["ab","c"] and ["a","bc"] differ.
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for part in parts {
        mix(part.as_bytes());
    }
    h
}

/// Path of stage `i`'s checkpoint file.
pub(crate) fn stage_path(dir: &Path, stage: usize) -> PathBuf {
    dir.join(format!("stage-{stage}.opadf"))
}

/// Writes stage `stage`'s output dataset, prefixed by the chain
/// fingerprint header.
pub(crate) fn write_stage(
    dir: &Path,
    chain_fp: u64,
    stage: usize,
    dataset: &Dataset,
) -> Result<()> {
    let mut w = SectionWriter::new(Kind::DATAFLOW_STAGE);
    w.nums(&[chain_fp, stage as u64]);
    dataset.write_sections(&mut w);
    w.write_to(&stage_path(dir, stage))
}

/// One stage checkpoint as stored in `stage-<i>.opadf`: the chain
/// fingerprint and stage index stamped in its header section, and the
/// stage's output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageCheckpoint {
    /// Fingerprint of the chain that wrote the file.
    pub chain: u64,
    /// The stage index stamped inside the file.
    pub stage: u64,
    /// The stage's output dataset.
    pub output: Dataset,
}

impl StageCheckpoint {
    /// Reads and verifies a [`Kind::DATAFLOW_STAGE`] file: its checksum,
    /// its header section and its dataset's record placement.
    pub fn read(path: &Path) -> Result<StageCheckpoint> {
        let mut r = SectionReader::open(path, Kind::DATAFLOW_STAGE)?;
        let [chain, stage] = r.nums_exact("header")?;
        Ok(StageCheckpoint {
            chain,
            stage,
            output: Dataset::from_reader(r)?,
        })
    }
}

/// Scans `dir` for the highest-numbered stage checkpoint (`stage <
/// n_stages`) that decodes cleanly and carries this chain's fingerprint
/// and its own stage index. Returns `(stage index, restored dataset)`;
/// corrupt, foreign or missing files are skipped, not fatal — resume
/// falls back to an earlier stage or a cold start.
pub(crate) fn load_latest(dir: &Path, chain_fp: u64, n_stages: usize) -> Option<(usize, Dataset)> {
    (0..n_stages).rev().find_map(|stage| {
        let path = stage_path(dir, stage);
        if !path.is_file() {
            return None;
        }
        StageCheckpoint::read(&path)
            .ok()
            .filter(|c| c.chain == chain_fp && c.stage == stage as u64)
            .map(|c| (stage, c.output))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::dataset::PartitionSpec;
    use opa_common::{Key, Pair, Value};

    fn ds(n: u64) -> Dataset {
        let pairs = (0..n)
            .map(|i| Pair::new(Key::from_u64(i), Value::from_u64(i * 2)))
            .collect();
        Dataset::from_pairs(
            pairs,
            PartitionSpec {
                hash_seed: 7,
                partitions: 4,
            },
        )
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let a = chain_fingerprint(["pagerank", "SM"].into_iter());
        let b = chain_fingerprint(["SM", "pagerank"].into_iter());
        assert_ne!(a, b);
        assert_ne!(
            chain_fingerprint(["ab", "c"].into_iter()),
            chain_fingerprint(["a", "bc"].into_iter())
        );
    }

    #[test]
    fn latest_valid_stage_wins_and_foreign_files_are_skipped() {
        let dir = std::env::temp_dir().join(format!("opa-dfckpt-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let fp = chain_fingerprint(["job-a", "job-b", "job-c"].into_iter());
        write_stage(&dir, fp, 0, &ds(8)).unwrap();
        write_stage(&dir, fp, 1, &ds(16)).unwrap();
        // Stage 2 written by a *different* chain: must be ignored.
        write_stage(&dir, fp ^ 1, 2, &ds(32)).unwrap();
        let (stage, restored) = load_latest(&dir, fp, 3).expect("restorable");
        assert_eq!(stage, 1);
        assert_eq!(restored, ds(16));
        // Corrupt the stage-1 file, or put a plain dataset file or stage
        // 0's file in its place: resume falls back to stage 0.
        let stage0 = std::fs::read(stage_path(&dir, 0)).unwrap();
        let plain = dir.join("plain.opadf");
        ds(16).write(&plain).unwrap();
        for bytes in [b"garbage".to_vec(), std::fs::read(&plain).unwrap(), stage0] {
            std::fs::write(stage_path(&dir, 1), bytes).unwrap();
            let (stage, restored) = load_latest(&dir, fp, 3).expect("restorable");
            assert_eq!(stage, 0);
            assert_eq!(restored, ds(8));
        }
        let err = StageCheckpoint::read(&plain).unwrap_err().to_string();
        assert!(
            err.contains("expected a dataflow stage checkpoint file, found a dataset file"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
