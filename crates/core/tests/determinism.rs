//! The engine's determinism contract: a job's [`JobOutcome`] must be
//! bit-identical at any execution-layer thread count. The scheduling
//! layer replays recorded effects in event order, so worker threads may
//! only change wall-clock time — never metrics, output, progress curves,
//! timelines or disk-queue interactions.

use opa_common::fault::FaultConfig;
use opa_common::rng::SplitMix64;
use opa_common::ExecConfig;
use opa_common::{Key, Value};
use opa_core::api::{Combiner, IncrementalReducer, Job, ReduceCtx};
use opa_core::cluster::{ClusterSpec, Framework};
use opa_core::job::{JobBuilder, JobInput};

/// Word-count-style job with a combiner and an incremental reducer, so
/// every framework (sort-merge, hash, INC, DINC) has its natural path.
struct WordCount;

impl Job for WordCount {
    fn name(&self) -> &str {
        "word-count"
    }
    fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
        for word in record.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
            emit(word, &1u64.to_be_bytes());
        }
    }
    fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
        let sum: u64 = values.iter().filter_map(Value::as_u64).sum();
        ctx.emit(key.clone(), Value::from_u64(sum));
    }
    fn combiner(&self) -> Option<&dyn Combiner> {
        Some(self)
    }
    fn incremental(&self) -> Option<&dyn IncrementalReducer> {
        Some(self)
    }
    fn expected_keys(&self) -> Option<u64> {
        Some(400)
    }
}

impl Combiner for WordCount {
    fn combine(&self, _key: &Key, values: Vec<Value>) -> Vec<Value> {
        vec![Value::from_u64(
            values.iter().filter_map(Value::as_u64).sum(),
        )]
    }
}

impl IncrementalReducer for WordCount {
    fn init(&self, _key: &Key, value: &[u8]) -> Value {
        Value::from_slice(value)
    }
    fn cb(&self, _key: &Key, acc: &mut Value, other: Value, _ctx: &mut ReduceCtx) {
        *acc = Value::from_u64(acc.as_u64().unwrap_or(0) + other.as_u64().unwrap_or(0));
    }
    fn finalize(&self, key: &Key, state: Value, ctx: &mut ReduceCtx) {
        ctx.emit(key.clone(), state);
    }
}

/// A seeded input with a skewed key distribution — enough records for
/// several chunks per node and plenty of shuffle traffic.
fn seeded_input(seed: u64, records: usize) -> JobInput {
    let mut rng = SplitMix64::new(seed);
    let recs: Vec<Vec<u8>> = (0..records)
        .map(|_| {
            let words = 3 + rng.next_below(5) as usize;
            let mut line = Vec::new();
            for w in 0..words {
                if w > 0 {
                    line.push(b' ');
                }
                // Zipf-ish skew: a few hot words, a long cold tail.
                let id = if rng.next_below(4) == 0 {
                    rng.next_below(8)
                } else {
                    8 + rng.next_below(300)
                };
                line.extend_from_slice(format!("w{id}").as_bytes());
            }
            line
        })
        .collect();
    JobInput::from_records(recs)
}

fn spec() -> ClusterSpec {
    let mut spec = ClusterSpec::paper_scaled();
    spec.system.chunk_size = 2048; // many chunks → many map tasks
    spec
}

fn run(framework: Framework, threads: usize, input: &JobInput) -> String {
    let outcome = JobBuilder::new(WordCount)
        .framework(framework)
        .cluster(spec())
        .exec(ExecConfig::oversubscribed(threads))
        .run(input)
        .expect("job runs");
    // JobMetrics has no PartialEq; the Debug form covers every field of
    // the outcome, which is exactly the bit-identity contract.
    format!("{outcome:?}")
}

#[test]
fn outcome_is_bit_identical_across_thread_counts() {
    let input = seeded_input(0xC0FFEE, 1500);
    for framework in [
        Framework::SortMerge,
        Framework::MrHash,
        Framework::IncHash,
        Framework::DincHash,
    ] {
        let seq = run(framework, 1, &input);
        for threads in [2, 4, 8] {
            let par = run(framework, threads, &input);
            assert_eq!(
                seq, par,
                "{framework:?} outcome diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn pipelined_snapshots_are_bit_identical_across_thread_counts() {
    // Snapshot scheduling rides on delivery processing, the part most
    // reshaped by burst mailboxes — worth its own matrix entry.
    let input = seeded_input(0xBEEF, 1200);
    let run_snap = |threads: usize| {
        let outcome = JobBuilder::new(WordCount)
            .framework(Framework::SortMergePipelined)
            .cluster(spec())
            .snapshot_points(&[0.25, 0.5, 0.75])
            .exec(ExecConfig::oversubscribed(threads))
            .run(&input)
            .expect("job runs");
        format!("{outcome:?}")
    };
    let seq = run_snap(1);
    for threads in [2, 4, 8] {
        assert_eq!(
            seq,
            run_snap(threads),
            "snapshots diverged at {threads} threads"
        );
    }
}

#[test]
fn two_wave_jobs_are_bit_identical_across_thread_counts() {
    // Second-wave reducers defer deliveries and re-read map output from
    // disk; their arrival ordering is scheduling-sensitive by design.
    let input = seeded_input(0xDADA, 1200);
    let run_waves = |threads: usize| {
        let mut s = spec();
        s.system.reducers_per_node = s.hardware.reduce_slots * 2;
        let outcome = JobBuilder::new(WordCount)
            .framework(Framework::SortMerge)
            .cluster(s)
            .exec(ExecConfig::oversubscribed(threads))
            .run(&input)
            .expect("job runs");
        format!("{outcome:?}")
    };
    let seq = run_waves(1);
    for threads in [2, 4, 8] {
        assert_eq!(seq, run_waves(threads), "diverged at {threads} threads");
    }
}

#[test]
fn fault_injection_is_bit_identical_across_thread_counts() {
    // Injected faults force retries and recovery reads, which reshuffle
    // the work-stealing pool's task mix mid-job — steal order still must
    // not leak into the outcome, including the recorded fault trace.
    let input = seeded_input(0xFA17, 1200);
    let run_faulty = |framework: Framework, threads: usize| {
        let outcome = JobBuilder::new(WordCount)
            .framework(framework)
            .cluster(spec())
            .faults(FaultConfig::uniform(0xD15C, 0.02))
            .exec(ExecConfig::oversubscribed(threads))
            .run(&input)
            .expect("job terminates under injected faults");
        format!("{outcome:?}")
    };
    for framework in [Framework::SortMerge, Framework::IncHash] {
        let seq = run_faulty(framework, 1);
        for threads in [2, 4, 8] {
            assert_eq!(
                seq,
                run_faulty(framework, threads),
                "{framework:?} fault run diverged at {threads} threads"
            );
        }
    }
}
