//! Trace determinism for the stream driver: byte-identical JSONL across
//! thread counts, and — once the stream-only `batch_seal`/`checkpoint`
//! lines are filtered out — identical to any other batch count `k` of the
//! same run and to the batch `JobBuilder` run itself (the underlying event
//! sequence is literally the batch engine's; pause points only add
//! observations).

use opa_common::fault::FaultConfig;
use opa_common::{CombineScope, ExecConfig};
use opa_core::cluster::{ClusterSpec, Framework};
use opa_core::job::JobBuilder;
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

/// A trace with the stream-only pause-point events removed: what remains
/// is the engine's event sequence, which must not depend on `k`.
fn engine_only(log: &TraceLog) -> String {
    let filtered: Vec<_> = log
        .events
        .iter()
        .filter(|e| {
            !matches!(
                e,
                TraceEvent::BatchSeal { .. } | TraceEvent::Checkpoint { .. }
            )
        })
        .cloned()
        .collect();
    TraceLog { events: filtered }.to_jsonl()
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
fn engine_events_are_identical_across_batch_counts() {
    let one = traced(1, 2);
    let four = traced(4, 2);
    let seven = traced(7, 2);
    assert_eq!(engine_only(&one), engine_only(&four));
    assert_eq!(engine_only(&one), engine_only(&seven));
}

#[test]
fn engine_events_are_the_batch_runs_byte_for_byte() {
    let data = ClickStreamSpec::small().generate(101);
    let cases = [
        ("fault-free", FaultConfig::disabled(), CombineScope::Task),
        ("poison", FaultConfig::poison(7, 0.002), CombineScope::Task),
        ("node scope", FaultConfig::disabled(), CombineScope::Node),
    ];
    for (case, faults, combine) in cases {
        let batch = JobBuilder::new(job())
            .framework(Framework::IncHash)
            .cluster(ClusterSpec::tiny())
            .faults(faults)
            .combine(combine)
            .trace(true)
            .run(&data)
            .expect("batch runs");
        let stream = StreamJobBuilder::new(job())
            .framework(Framework::IncHash)
            .cluster(ClusterSpec::tiny())
            .faults(faults)
            .combine(combine)
            .batches(5)
            .trace(true)
            .run_stream(&data, |_| {})
            .expect("stream runs");
        // Each leg exercises what it names: records quarantined, tables flushed.
        assert_eq!(!batch.dlq.is_empty(), faults.poison_enabled(), "{case}");
        let flushes = batch.metrics.node_combine.map_or(0, |s| s.flushes);
        assert_eq!(flushes > 0, combine.is_node(), "{case}");
        assert_eq!(
            batch.trace.expect("trace enabled").to_jsonl(),
            engine_only(&stream.job.trace.expect("trace enabled")),
            "{case}: stream trace minus seals is not the batch trace"
        );
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
