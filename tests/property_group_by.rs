//! Property-based end-to-end test: for *arbitrary* generated inputs, every
//! framework implements MapReduce group-by exactly — the computation-model
//! contract of the paper's §2.1.

use opa::core::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A generic word-count-style job over arbitrary byte records: map emits
/// (first byte of record, 1); reduce sums — exercising skew, empty
/// partitions, and single-key floods depending on the generated input.
#[derive(Clone)]
struct ByteCount;

impl Job for ByteCount {
    fn name(&self) -> &str {
        "byte count"
    }
    fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
        if !record.is_empty() {
            emit(&record[..1], &1u64.to_be_bytes());
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
        Some(256)
    }
    fn state_size_hint(&self) -> Option<u64> {
        Some(8)
    }
}

impl Combiner for ByteCount {
    fn fold(&self, _key: &Key, acc: &mut Value, value: Value) {
        *acc = Value::from_u64(acc.as_u64().unwrap_or(0) + value.as_u64().unwrap_or(0));
    }
}

impl IncrementalReducer for ByteCount {
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

fn oracle(records: &[Vec<u8>]) -> BTreeMap<u8, u64> {
    let mut m = BTreeMap::new();
    for r in records {
        if let Some(&b) = r.first() {
            *m.entry(b).or_default() += 1;
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All five frameworks compute the exact group-by for arbitrary
    /// records, including records that fail to parse (empty), heavy key
    /// skew (single-byte alphabet), and inputs smaller than one chunk.
    #[test]
    fn group_by_exact_for_arbitrary_inputs(
        records in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..40),
            1..400,
        ),
        alphabet in 1u8..16,
    ) {
        // Optionally squash the key space to force heavy collisions.
        let records: Vec<Vec<u8>> = records
            .into_iter()
            .map(|mut r| {
                r[0] %= alphabet;
                r
            })
            .collect();
        let expect = oracle(&records);
        let input = JobInput::from_records(records);
        for fw in [
            Framework::SortMerge,
            Framework::SortMergePipelined,
            Framework::MrHash,
            Framework::IncHash,
            Framework::DincHash,
        ] {
            let outcome = JobBuilder::new(ByteCount)
                .framework(fw)
                .cluster(ClusterSpec::tiny())
                .run(&input)
                .expect("job runs");
            let got: BTreeMap<u8, u64> = outcome
                .output
                .iter()
                .map(|p| (p.key.bytes()[0], p.value.as_u64().unwrap()))
                .collect();
            prop_assert_eq!(&got, &expect, "framework {:?} diverged", fw);
        }
    }

    /// Spill accounting is conserved: what the metrics report as reduce
    /// spill is non-negative and zero whenever memory suffices.
    #[test]
    fn spill_accounting_sane(
        records in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..20),
            1..100,
        ),
    ) {
        let input = JobInput::from_records(records);
        let outcome = JobBuilder::new(ByteCount)
            .framework(Framework::IncHash)
            .cluster(ClusterSpec::tiny())
            .run(&input)
            .expect("job runs");
        // 256 possible keys × ~24 B/state fits any reduce buffer here.
        prop_assert_eq!(outcome.metrics.reduce_spill_bytes, 0);
        prop_assert_eq!(
            outcome.metrics.input_bytes,
            input.total_bytes()
        );
    }
}
