//! Combine-scope equivalence: `CombineScope::Node` (and `Off`) may change
//! *when* and *how often* pairs cross the simulated network, but never
//! what the job computes. For every framework, thread count and fault
//! schedule, the output multiset under node-level combining must equal
//! the raw `Off` run's — and the staging table must demonstrably merge
//! cross-task keys (non-vacuity), or the whole matrix proves nothing.

use opa_common::fault::FaultConfig;
use opa_common::rng::SplitMix64;
use opa_common::{CombineScope, ExecConfig};
use opa_common::{Key, Value};
use opa_core::api::{Combiner, IncrementalReducer, Job, ReduceCtx};
use opa_core::cluster::{ClusterSpec, Framework};
use opa_core::job::{JobBuilder, JobInput, JobOutcome};

/// Count-style job exercising every framework path: a fold-capable
/// combiner for the materializing frameworks (node staging in Pairs
/// mode) and an incremental reducer for INC/DINC (States mode).
struct HitCount;

impl Job for HitCount {
    fn name(&self) -> &str {
        "hit-count"
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
        Some(300)
    }
}

impl Combiner for HitCount {
    fn combine(&self, _key: &Key, values: Vec<Value>) -> Vec<Value> {
        vec![Value::from_u64(
            values.iter().filter_map(Value::as_u64).sum(),
        )]
    }
    fn supports_fold(&self) -> bool {
        true
    }
    fn fold(&self, _key: &Key, acc: &mut Value, value: Value) {
        *acc = Value::from_u64(acc.as_u64().unwrap_or(0) + value.as_u64().unwrap_or(0));
    }
}

impl IncrementalReducer for HitCount {
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

/// Zipf-flavored input: a handful of hot keys that recur in *every*
/// chunk (so node staging has cross-task redundancy to collapse) plus a
/// long cold tail.
fn zipf_input(seed: u64, records: usize) -> JobInput {
    let mut rng = SplitMix64::new(seed);
    let recs: Vec<Vec<u8>> = (0..records)
        .map(|_| {
            let words = 3 + rng.next_below(4) as usize;
            let mut line = Vec::new();
            for w in 0..words {
                if w > 0 {
                    line.push(b' ');
                }
                let id = if rng.next_below(3) == 0 {
                    rng.next_below(6)
                } else {
                    6 + rng.next_below(250)
                };
                line.extend_from_slice(format!("k{id}").as_bytes());
            }
            line
        })
        .collect();
    JobInput::from_records(recs)
}

fn spec() -> ClusterSpec {
    let mut spec = ClusterSpec::paper_scaled();
    spec.system.chunk_size = 2048; // several map tasks per node
    spec.node_combine_buffer = 4096; // small budget → early flushes too
    spec
}

fn run(
    framework: Framework,
    scope: CombineScope,
    threads: usize,
    faults: FaultConfig,
    input: &JobInput,
) -> JobOutcome {
    JobBuilder::new(HitCount)
        .framework(framework)
        .cluster(spec())
        .combine(scope)
        .faults(faults)
        .exec(ExecConfig::oversubscribed(threads))
        .run(input)
        .expect("job runs")
}

/// Output pairs as a sorted multiset: combine scopes legitimately change
/// arrival (and thus emission) order, never content.
fn multiset(outcome: &JobOutcome) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = outcome
        .output
        .iter()
        .map(|p| (p.key.bytes().to_vec(), p.value.bytes().to_vec()))
        .collect();
    pairs.sort();
    pairs
}

#[test]
fn node_scope_output_matches_off_across_frameworks_and_threads() {
    let input = zipf_input(0x51EF, 1400);
    for framework in Framework::ALL {
        let reference = multiset(&run(
            framework,
            CombineScope::Off,
            1,
            FaultConfig::disabled(),
            &input,
        ));
        assert!(!reference.is_empty(), "{framework:?}: empty reference run");
        for threads in [1usize, 2, 4, 8] {
            for scope in [CombineScope::Task, CombineScope::Node] {
                let got = multiset(&run(
                    framework,
                    scope,
                    threads,
                    FaultConfig::disabled(),
                    &input,
                ));
                assert_eq!(
                    reference, got,
                    "{framework:?} {scope:?} @ {threads} threads diverged from Off"
                );
            }
        }
    }
}

#[test]
fn node_scope_output_matches_off_under_fault_injection() {
    let input = zipf_input(0xFA57, 1200);
    for framework in Framework::ALL {
        let faults = FaultConfig::uniform(0xD15C, 0.02);
        let reference = multiset(&run(framework, CombineScope::Off, 1, faults, &input));
        for threads in [1usize, 4] {
            let node = run(framework, CombineScope::Node, threads, faults, &input);
            assert!(
                node.metrics.faults.as_ref().is_some_and(|r| r.any_fired()),
                "{framework:?}: fault leg is vacuous, nothing fired"
            );
            assert_eq!(
                reference,
                multiset(&node),
                "{framework:?} node-scope fault run @ {threads} threads diverged"
            );
        }
    }
}

#[test]
fn node_scope_outcome_bit_identical_across_thread_counts() {
    let input = zipf_input(0xB17, 1400);
    for framework in [Framework::SortMerge, Framework::IncHash] {
        let seq = format!(
            "{:?}",
            run(
                framework,
                CombineScope::Node,
                1,
                FaultConfig::disabled(),
                &input
            )
        );
        for threads in [2usize, 4, 8] {
            let par = format!(
                "{:?}",
                run(
                    framework,
                    CombineScope::Node,
                    threads,
                    FaultConfig::disabled(),
                    &input
                )
            );
            assert_eq!(
                seq, par,
                "{framework:?} node-scope outcome diverged at {threads} threads"
            );
        }
    }
}

/// Non-vacuity: under Zipf input the staging table must actually merge
/// keys *across* map tasks, in both Pairs mode (sort-merge/MR-hash, via
/// the combiner) and States mode (INC-hash, via `cb` at `Site::Map`) —
/// and the merging must show up as fewer shuffle bytes than task scope.
#[test]
fn node_table_merges_cross_task_keys_and_shrinks_shuffle() {
    let input = zipf_input(0x21F, 1600);
    for framework in [Framework::SortMerge, Framework::MrHash, Framework::IncHash] {
        let task = run(
            framework,
            CombineScope::Task,
            2,
            FaultConfig::disabled(),
            &input,
        );
        let node = run(
            framework,
            CombineScope::Node,
            2,
            FaultConfig::disabled(),
            &input,
        );
        assert!(
            task.metrics.node_combine.is_none(),
            "{framework:?}: task scope grew a node-combine stats block"
        );
        let nc = node
            .metrics
            .node_combine
            .expect("node scope reports staging stats");
        assert!(
            nc.merged_rows > 0,
            "{framework:?}: staging table never merged a cross-task key"
        );
        assert!(
            nc.flushed_bytes < nc.staged_bytes,
            "{framework:?}: staging shipped as much as it staged ({} vs {})",
            nc.flushed_bytes,
            nc.staged_bytes
        );
        assert!(
            node.metrics.shuffle_bytes < task.metrics.shuffle_bytes,
            "{framework:?}: node scope did not shrink the shuffle ({} vs {})",
            node.metrics.shuffle_bytes,
            task.metrics.shuffle_bytes
        );
    }
}
