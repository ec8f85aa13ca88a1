//! Files written by an earlier build still read, with the same meaning.
//!
//! `tests/corpus/` holds one file of each persisted container kind, written
//! once and never regenerated:
//!
//! - `stream-ckpt-b2.opac`: `ClickCountJob { expected_users: 100 }` under
//!   DINC-hash over `ClickStreamSpec::small().generate(101)`, on the tiny
//!   cluster with 1 KB chunks, 4 batches, checkpointed at batch 2 (12
//!   deliveries in flight at the seal);
//! - `dlq-t1-j2.opaq`: the 16 records `FaultConfig::poison(7, 0.01)`
//!   quarantines from an INC-hash run of the same job and input on the
//!   tiny cluster, filed as tenant 1, job 2;
//! - `click-count.opadf`: that run's output as a dataset partitioned for
//!   the tiny cluster;
//! - `stage-0.opadf`: stage 0 of a one-stage INC-hash dataflow chain of
//!   the same job and input on the tiny cluster.
//!
//! Each pin is taken over decoded values, never over a struct's `Debug`
//! text, so it holds through any change of the in-memory types. A pin
//! moves only with a change that means to break reading old files.

use opa::common::Pair;
use opa::core::cluster::{ClusterSpec, Framework};
use opa::core::dataflow::{Dataset, StageCheckpoint};
use opa::simio::codec::crc32;
use opa::stream::{SavedState, StreamJobBuilder};
use opa::workloads::clickstream::ClickStreamSpec;
use opa::workloads::ClickCountJob;
use opa_serve::QuarantineFile;
use std::path::PathBuf;

fn corpus(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus")
        .join(name)
}

/// CRC-32 over `pairs` in order, each as its key and value with their
/// lengths.
fn pairs_crc<'a>(pairs: impl IntoIterator<Item = &'a Pair>) -> u32 {
    let mut buf = Vec::new();
    for p in pairs {
        for part in [p.key.bytes(), p.value.bytes()] {
            buf.extend((part.len() as u64).to_be_bytes());
            buf.extend_from_slice(part);
        }
    }
    crc32(&buf)
}

#[test]
fn stream_checkpoint_reencodes_to_itself_and_resumes() {
    let path = corpus("stream-ckpt-b2.opac");
    let bytes = std::fs::read(&path).expect("corpus checkpoint");
    let saved = SavedState::decode(&bytes).expect("decodes");
    assert!(saved.encode() == bytes, "does not re-encode to itself");
    assert_eq!(saved.next_batch, 2);

    let data = ClickStreamSpec::small().generate(101);
    let mut cluster = ClusterSpec::tiny();
    cluster.system.chunk_size = 1024;
    let build = || {
        StreamJobBuilder::new(ClickCountJob {
            expected_users: 100,
        })
        .framework(Framework::DincHash)
        .cluster(cluster)
        .batches(4)
    };
    let resumed = build()
        .resume_stream(&data, &path, |_| {})
        .expect("resumes");
    assert_eq!(resumed.resumed_from_batch, Some(2));
    let full = build().run_stream(&data, |_| {}).expect("full run");
    assert_eq!(resumed.job.output, full.job.output, "resume diverged");
    let crc = pairs_crc(&resumed.job.output);
    println!("resumed output 0x{crc:08X}");
    assert_eq!(crc, 0xFDEC_59A5, "resumed output drifted");
}

#[test]
fn quarantine_reads_the_same_entries() {
    let q = QuarantineFile::read_from(&corpus("dlq-t1-j2.opaq")).expect("reads");
    assert_eq!((q.tenant, q.job, q.seed), (1, 2, 7));
    assert_eq!(q.job_name, "click-count");
    let mut buf = Vec::new();
    for e in &q.entries {
        buf.extend(u64::from(e.chunk).to_be_bytes());
        buf.extend(u64::from(e.attempt).to_be_bytes());
        buf.extend(e.offset.to_be_bytes());
        buf.extend((e.record.len() as u64).to_be_bytes());
        buf.extend_from_slice(e.record.as_slice());
    }
    let crc = crc32(&buf);
    println!("{} entries 0x{crc:08X}", q.entries.len());
    assert_eq!(q.entries.len(), 16);
    assert_eq!(crc, 0xAF7E_F352, "quarantine entries drifted");
}

#[test]
fn dataset_and_stage_files_read_the_same_pairs() {
    let ds = Dataset::read(&corpus("click-count.opadf")).expect("dataset reads");
    let stage = StageCheckpoint::read(&corpus("stage-0.opadf")).expect("stage reads");
    assert_eq!(stage.stage, 0);
    let (ds_crc, stage_crc) = (pairs_crc(ds.pairs()), pairs_crc(stage.output.pairs()));
    println!(
        "dataset {} pairs 0x{ds_crc:08X}, stage {} pairs 0x{stage_crc:08X}, chain 0x{:X}",
        ds.len(),
        stage.output.len(),
        stage.chain
    );
    assert_eq!((ds.len(), stage.output.len()), (61, 61));
    assert_eq!(ds_crc, 0xCE43_EF70, "dataset pairs drifted");
    assert_eq!(stage_crc, 0xFC38_D33B, "stage pairs drifted");
    assert_eq!(stage.chain, 0xD4B8_C6C8_3E28_F4F7, "stage chain drifted");
}
