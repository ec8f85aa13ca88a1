//! Shared fixtures for the fault-injection test harness: a count-style
//! job whose *output multiset* is delivery-order independent under every
//! framework (emissions happen only at finish; `cb` is commutative and
//! associative), plus a seeded skewed input generator. Fault-induced
//! timing shifts may reorder deliveries, so order-independence is exactly
//! the property that makes "output bit-identical to the fault-free run"
//! (after canonical sorting) a fair assertion.

use opa_common::rng::SplitMix64;
use opa_common::{Key, Value};
use opa_core::api::{Combiner, IncrementalReducer, Job, ReduceCtx};
use opa_core::cluster::ClusterSpec;
use opa_core::job::JobInput;

/// Word-count with a combiner and an incremental reducer, so every
/// framework (sort-merge, hash, INC, DINC) has its natural path.
pub struct WordCount;

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
    fn fold(&self, _key: &Key, acc: &mut Value, value: Value) {
        *acc = Value::from_u64(acc.as_u64().unwrap_or(0) + value.as_u64().unwrap_or(0));
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
pub fn seeded_input(seed: u64, records: usize) -> JobInput {
    let mut rng = SplitMix64::new(seed);
    let recs: Vec<Vec<u8>> = (0..records)
        .map(|_| {
            let words = 3 + rng.next_below(5) as usize;
            let mut line = Vec::new();
            for w in 0..words {
                if w > 0 {
                    line.push(b' ');
                }
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

/// Paper cluster with a small chunk size → many map tasks, many targets
/// for the fault plan.
pub fn spec() -> ClusterSpec {
    let mut spec = ClusterSpec::paper_scaled();
    spec.system.chunk_size = 2048;
    spec
}
