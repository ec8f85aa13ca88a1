//! Page frequency (Table 1): count visits to each URL.
//!
//! Identical structure to click counting but keyed on the URL, giving the
//! Table 1 row with 508 GB of input collapsing to 1.8 GB of map output
//! through the combiner.

use crate::clickstream::parse_click;
use opa_core::api::{Combiner, IncrementalReducer, Job, ReduceCtx};
use opa_core::prelude::{Key, Value};

/// The page-frequency job.
#[derive(Debug, Clone)]
pub struct PageFreqJob {
    /// Expected distinct URLs (sizing hint).
    pub expected_pages: u64,
}

impl Default for PageFreqJob {
    fn default() -> Self {
        PageFreqJob {
            expected_pages: 100_000,
        }
    }
}

impl Combiner for PageFreqJob {
    fn fold(&self, _key: &Key, acc: &mut Value, value: Value) {
        let sum = acc.as_u64().unwrap_or(0) + value.as_u64().unwrap_or(0);
        *acc = Value::from_u64(sum);
    }
}

impl IncrementalReducer for PageFreqJob {
    fn init(&self, _key: &Key, value: &[u8]) -> Value {
        Value::from_slice(value)
    }

    fn cb(&self, _key: &Key, acc: &mut Value, other: Value, _ctx: &mut ReduceCtx) {
        let sum = acc.as_u64().unwrap_or(0) + other.as_u64().unwrap_or(0);
        *acc = Value::from_u64(sum);
    }

    fn finalize(&self, key: &Key, state: Value, ctx: &mut ReduceCtx) {
        ctx.emit(key.clone(), state);
    }
}

impl Job for PageFreqJob {
    fn name(&self) -> &str {
        "page frequency"
    }

    fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
        if let Some((_, _, tail)) = parse_click(record) {
            // The URL is the first whitespace-delimited token of the tail.
            let url = tail.split(|&b| b == b' ').next().unwrap_or(tail);
            emit(url, &1u64.to_be_bytes());
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
        Some(self.expected_pages)
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
    fn map_extracts_url_token() {
        let job = PageFreqJob::default();
        let rec = format_click(5, 9, 123);
        let mut out = Vec::new();
        job.map(&rec, &mut |k, v| {
            out.push((k.to_vec(), Value::from_slice(v)))
        });
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, b"/en/page00123.html");
        assert_eq!(out[0].1.as_u64(), Some(1));
    }

    #[test]
    fn same_page_same_key() {
        let job = PageFreqJob::default();
        let mut keys = Vec::new();
        for user in [1u64, 2, 3] {
            let rec = format_click(user * 10, user, 777);
            job.map(&rec, &mut |k, _| keys.push(k.to_vec()));
        }
        assert!(keys.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn reduce_sums() {
        let job = PageFreqJob::default();
        let mut ctx = ReduceCtx::new();
        job.reduce(
            &Key::from("/a"),
            vec![Value::from_u64(3), Value::from_u64(4)],
            &mut ctx,
        );
        assert_eq!(ctx.drain()[0].value.as_u64(), Some(7));
    }
}
