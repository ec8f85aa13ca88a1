//! Trace determinism for the stream driver: byte-identical JSONL across
//! thread counts, and one `batch_seal` per seal and one `checkpoint` per
//! file written. That a stream trace less those lines is the batch run's,
//! byte for byte, is a relation of the root `tests/option_space.rs`.

use opa_common::ExecConfig;
use opa_core::cluster::{ClusterSpec, Framework};
use opa_stream::StreamJobBuilder;
use opa_trace::{TraceEvent, TraceLog};
use opa_workloads::click_count::ClickCountJob;
use opa_workloads::clickstream::ClickStreamSpec;

fn job() -> ClickCountJob {
    ClickCountJob {
        expected_users: 100,
    }
}

fn traced(k: usize, threads: usize) -> TraceLog {
    let data = ClickStreamSpec::small().generate(101);
    let out = StreamJobBuilder::new(job())
        .framework(Framework::IncHash)
        .cluster(ClusterSpec::tiny())
        .exec(ExecConfig::oversubscribed(threads))
        .batches(k)
        .trace(true)
        .run_stream(&data, |_| {})
        .expect("stream runs");
    out.job.trace.expect("trace enabled")
}

#[test]
fn stream_traces_are_byte_identical_across_thread_counts() {
    for k in [1, 4] {
        let seq = traced(k, 1).to_jsonl();
        for threads in [2, 8] {
            assert_eq!(
                seq,
                traced(k, threads).to_jsonl(),
                "k={k}: stream trace diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn every_seal_is_traced_in_order() {
    let log = traced(5, 1);
    let seals: Vec<(u32, u32)> = log
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::BatchSeal { batch, batches, .. } => Some((*batch, *batches)),
            _ => None,
        })
        .collect();
    assert_eq!(
        seals,
        (1..=5).map(|b| (b, 5)).collect::<Vec<_>>(),
        "one batch_seal per sealed batch, in order"
    );
    let rollup = log.rollup();
    assert_eq!(rollup.batch_seals, 5);
    assert_eq!(rollup.checkpoints, 0);
}

#[test]
fn checkpoints_are_traced_with_their_file_size() {
    let data = ClickStreamSpec::small().generate(101);
    let dir = std::env::temp_dir().join("opa-stream-trace-ckpt");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let out = StreamJobBuilder::new(job())
        .framework(Framework::IncHash)
        .cluster(ClusterSpec::tiny())
        .batches(4)
        .checkpoint_every(2)
        .checkpoint_dir(&dir)
        .trace(true)
        .run_stream(&data, |_| {})
        .expect("stream runs");
    let log = out.job.trace.expect("trace enabled");
    let ckpts: Vec<u64> = log
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Checkpoint { bytes, .. } => Some(*bytes),
            _ => None,
        })
        .collect();
    assert_eq!(
        ckpts.len(),
        out.checkpoints_written,
        "one checkpoint event per file written"
    );
    assert!(!ckpts.is_empty() && ckpts.iter().all(|&b| b > 0));
    std::fs::remove_dir_all(&dir).ok();
}
