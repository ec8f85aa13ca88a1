//! Node-level combining earns its place: under Zipf input the per-node
//! staging table merges keys across map tasks and ships fewer shuffle
//! bytes than task scope. That no combine scope changes what the job
//! computes, for any framework, thread count or fault plan, is checked by
//! the option-space generator (`option_space/mod.rs`); the last three
//! tests are its views.

mod option_space;

use opa_common::rng::SplitMix64;
use opa_common::{CombineScope, ExecConfig};
use opa_common::{Key, Value};
use opa_core::api::{Combiner, IncrementalReducer, Job, ReduceCtx};
use opa_core::cluster::{ClusterSpec, Framework};
use opa_core::job::{JobBuilder, JobInput, JobOutcome};
use option_space::{run_batch_cells, Faults};

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

fn run(framework: Framework, scope: CombineScope, input: &JobInput) -> JobOutcome {
    JobBuilder::new(HitCount)
        .framework(framework)
        .cluster(spec())
        .combine(scope)
        .exec(ExecConfig::oversubscribed(2))
        .run(input)
        .expect("job runs")
}

/// Non-vacuity: under Zipf input the staging table must actually merge
/// keys *across* map tasks, in both Pairs mode (sort-merge/MR-hash, via
/// the combiner) and States mode (INC-hash, via `cb` at `Site::Map`) —
/// and the merging must show up as fewer shuffle bytes than task scope.
#[test]
fn node_table_merges_cross_task_keys_and_shrinks_shuffle() {
    let input = zipf_input(0x21F, 1600);
    for framework in [Framework::SortMerge, Framework::MrHash, Framework::IncHash] {
        let task = run(framework, CombineScope::Task, &input);
        let node = run(framework, CombineScope::Node, &input);
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

/// Node scope without faults, every framework: the output is the naive
/// group-by (as it is at task scope and with combining off).
#[test]
fn node_scope_output_matches_off_across_frameworks_and_threads() {
    run_batch_cells(|c| c.combine.is_node() && c.faults == Faults::None).require("merged");
}

/// Node scope under every fault plan.
#[test]
fn node_scope_output_matches_off_under_fault_injection() {
    run_batch_cells(|c| c.combine.is_node() && c.faults != Faults::None).require("merged fired");
}

/// Node scope: the whole outcome is the same at 1 thread and at 2, 4 or 8.
#[test]
fn node_scope_outcome_bit_identical_across_thread_counts() {
    run_batch_cells(|c| c.combine.is_node()).require("merged");
}
