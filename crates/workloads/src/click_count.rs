//! User click counting (§2.3): count the clicks each user made.
//!
//! The combiner-friendly workload: map emits ⟨user, 1⟩, the combiner and
//! the incremental `cb` both just add counters, and the whole key-state
//! space is 8 bytes per user — it fits in reduce memory, so the hash
//! frameworks run with zero reduce spill (Table 3's 0 GB rows).

use crate::clickstream::parse_click;
use opa_core::api::{Combiner, IncrementalReducer, Job, ReduceCtx};
use opa_core::prelude::{Key, Value};

/// The click-counting job.
#[derive(Debug, Clone)]
pub struct ClickCountJob {
    /// Expected distinct users (sizing hint).
    pub expected_users: u64,
}

impl Default for ClickCountJob {
    fn default() -> Self {
        ClickCountJob {
            expected_users: 10_000,
        }
    }
}

impl Combiner for ClickCountJob {
    fn fold(&self, _key: &Key, acc: &mut Value, value: Value) {
        let sum = acc.as_u64().unwrap_or(0) + value.as_u64().unwrap_or(0);
        *acc = Value::from_u64(sum);
    }
}

impl IncrementalReducer for ClickCountJob {
    fn init(&self, _key: &Key, value: &[u8]) -> Value {
        Value::from_slice(value) // already a count
    }

    fn cb(&self, _key: &Key, acc: &mut Value, other: Value, _ctx: &mut ReduceCtx) {
        let sum = acc.as_u64().unwrap_or(0) + other.as_u64().unwrap_or(0);
        *acc = Value::from_u64(sum);
    }

    fn finalize(&self, key: &Key, state: Value, ctx: &mut ReduceCtx) {
        ctx.emit(key.clone(), state);
    }
}

impl Job for ClickCountJob {
    fn name(&self) -> &str {
        "user click counting"
    }

    fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
        if let Some((_, user, _)) = parse_click(record) {
            emit(&user.to_be_bytes(), &1u64.to_be_bytes());
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
        Some(self.expected_users)
    }

    fn state_size_hint(&self) -> Option<u64> {
        Some(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clickstream::format_click;

    #[test]
    fn map_extracts_user() {
        let job = ClickCountJob::default();
        let rec = format_click(123, 42, 7);
        let mut out = Vec::new();
        job.map(&rec, &mut |k, v| {
            out.push((Key::from_slice(k), Value::from_slice(v)))
        });
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0.as_u64(), Some(42));
        assert_eq!(out[0].1.as_u64(), Some(1));
    }

    #[test]
    fn malformed_records_are_skipped() {
        let job = ClickCountJob::default();
        let mut out: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        job.map(b"garbage", &mut |k, v| out.push((k.to_vec(), v.to_vec())));
        assert!(out.is_empty());
    }

    #[test]
    fn reduce_combiner_and_cb_agree() {
        let job = ClickCountJob::default();
        let key = Key::from_u64(1);
        let values: Vec<Value> = (0..5).map(|_| Value::from_u64(1)).collect();

        let mut ctx = ReduceCtx::new();
        job.reduce(&key, values.clone(), &mut ctx);
        let reduced = ctx.drain()[0].value.as_u64();

        let mut combined = values[0].clone();
        for v in &values[1..] {
            job.fold(&key, &mut combined, v.clone());
        }

        let mut acc = job.init(&key, values[0].bytes());
        let mut ictx = ReduceCtx::new();
        for v in &values[1..] {
            job.cb(&key, &mut acc, v.clone(), &mut ictx);
        }
        let mut fctx = ReduceCtx::new();
        job.finalize(&key, acc, &mut fctx);
        let inc = fctx.drain()[0].value.as_u64();

        assert_eq!(reduced, Some(5));
        assert_eq!(combined.as_u64(), Some(5));
        assert_eq!(inc, Some(5));
    }
}
