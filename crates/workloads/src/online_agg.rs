//! Online aggregation with early approximate answers — the second
//! future-work direction the paper names ("online aggregation with early
//! approximate answers").
//!
//! The query computes a global average (here: the mean page id of all
//! clicks, a stand-in for any per-record numeric measure). Because the
//! stream arrives in effectively random key order, the *running* average
//! is a consistent online-aggregation estimator of the final answer, so
//! the incremental reducer emits refinements on a log-spaced schedule
//! (each time the observed count doubles) and the exact answer at
//! finalization.
//!
//! Output value layout: `[n u64][sum u64]` — the consumer derives the
//! estimate `sum / n` and can compute a confidence interval from `n`.
//!
//! State layout: `[count u64][sum u64][next_emit u64]`.

use crate::clickstream::parse_click;
use opa_core::api::{IncrementalReducer, Job, ReduceCtx, Site};
use opa_core::prelude::{Key, Value};

/// The online-average job. All records share one key, so one reducer owns
/// the aggregate — the natural layout for a global online aggregate.
#[derive(Debug, Clone)]
pub struct OnlineAvgJob {
    /// First refinement is emitted once this many records were absorbed.
    pub first_emit: u64,
}

impl Default for OnlineAvgJob {
    fn default() -> Self {
        OnlineAvgJob { first_emit: 64 }
    }
}

fn encode_state(count: u64, sum: u64, next_emit: u64) -> Value {
    let mut v = Vec::with_capacity(24);
    v.extend_from_slice(&count.to_be_bytes());
    v.extend_from_slice(&sum.to_be_bytes());
    v.extend_from_slice(&next_emit.to_be_bytes());
    Value::new(v)
}

fn decode_state(v: &Value) -> (u64, u64, u64) {
    let b = v.bytes();
    (
        u64::from_be_bytes(b[..8].try_into().expect("count")),
        u64::from_be_bytes(b[8..16].try_into().expect("sum")),
        u64::from_be_bytes(b[16..24].try_into().expect("next_emit")),
    )
}

/// Output value: (count, sum) snapshot.
pub fn estimate_output(count: u64, sum: u64) -> Value {
    let mut v = Vec::with_capacity(16);
    v.extend_from_slice(&count.to_be_bytes());
    v.extend_from_slice(&sum.to_be_bytes());
    Value::new(v)
}

/// Decodes an output snapshot into (count, sum).
pub fn decode_estimate(v: &[u8]) -> (u64, u64) {
    (
        u64::from_be_bytes(v[..8].try_into().expect("count")),
        u64::from_be_bytes(v[8..16].try_into().expect("sum")),
    )
}

impl IncrementalReducer for OnlineAvgJob {
    fn init(&self, _key: &Key, value: &[u8]) -> Value {
        encode_state(1, opa_common::be_u64(value).unwrap_or(0), self.first_emit)
    }

    fn cb(&self, key: &Key, acc: &mut Value, other: Value, ctx: &mut ReduceCtx) {
        let (c1, s1, next) = decode_state(acc);
        let (c2, s2, _) = decode_state(&other);
        let (count, sum) = (c1 + c2, s1 + s2);
        let mut next_emit = next;
        if ctx.site == Site::Reduce && count >= next_emit {
            // Log-spaced refinement: each emission doubles the sample.
            ctx.emit(key.clone(), estimate_output(count, sum));
            while next_emit <= count {
                next_emit *= 2;
            }
        }
        *acc = encode_state(count, sum, next_emit);
    }

    fn finalize(&self, key: &Key, state: Value, ctx: &mut ReduceCtx) {
        let (count, sum, _) = decode_state(&state);
        if count > 0 {
            ctx.emit(key.clone(), estimate_output(count, sum));
        }
    }
}

impl Job for OnlineAvgJob {
    fn name(&self) -> &str {
        "online average"
    }

    fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
        if let Some((_, _, tail)) = parse_click(record) {
            // Measure: the page id embedded in the URL — parsed from a
            // stack array, no per-record Vec or str detour.
            let mut page = 0u64;
            let mut n = 0usize;
            for &b in tail.iter().filter(|b| b.is_ascii_digit()).take(5) {
                page = page * 10 + u64::from(b - b'0');
                n += 1;
            }
            if n > 0 {
                emit(b"avg-page", &page.to_be_bytes());
            }
        }
    }

    fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
        let count = values.len() as u64;
        let sum: u64 = values.iter().filter_map(Value::as_u64).sum();
        if count > 0 {
            ctx.emit(key.clone(), estimate_output(count, sum));
        }
    }

    fn incremental(&self) -> Option<&dyn IncrementalReducer> {
        Some(self)
    }

    fn expected_keys(&self) -> Option<u64> {
        Some(1)
    }

    fn state_size_hint(&self) -> Option<u64> {
        Some(24)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refinements_are_log_spaced_and_converge() {
        let j = OnlineAvgJob { first_emit: 4 };
        let key = Key::from("avg-page");
        let mut ctx = ReduceCtx::new();
        let mut acc = j.init(&key, &10u64.to_be_bytes());
        for i in 1..64u64 {
            j.cb(
                &key,
                &mut acc,
                j.init(&key, &(10 + i % 3).to_be_bytes()),
                &mut ctx,
            );
        }
        let refinements: Vec<(u64, u64)> = ctx
            .drain()
            .iter()
            .map(|p| decode_estimate(p.value.bytes()))
            .collect();
        // Emitted at counts 4, 8, 16, 32, 64.
        let counts: Vec<u64> = refinements.iter().map(|&(c, _)| c).collect();
        assert_eq!(counts, vec![4, 8, 16, 32, 64]);
        // Estimates hover near the true mean (values are 10, 11, 12 cycle).
        for &(c, s) in &refinements {
            let est = s as f64 / c as f64;
            assert!((est - 11.0).abs() < 1.5, "estimate {est} off at n={c}");
        }
        // Finalize emits the exact aggregate.
        j.finalize(&key, acc, &mut ctx);
        let (c, _s) = decode_estimate(ctx.drain().last().unwrap().value.bytes());
        assert_eq!(c, 64);
    }

    #[test]
    fn map_extracts_page_measure() {
        let j = OnlineAvgJob::default();
        let rec = crate::clickstream::format_click(5, 9, 1234);
        let mut out = Vec::new();
        j.map(&rec, &mut |k, v| {
            out.push((k.to_vec(), Value::from_slice(v)))
        });
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.as_u64(), Some(1234));
    }

    #[test]
    fn map_site_never_emits_refinements() {
        let j = OnlineAvgJob { first_emit: 1 };
        let key = Key::from("avg-page");
        let mut ctx = ReduceCtx::at_site(Site::Map);
        let mut acc = j.init(&key, &1u64.to_be_bytes());
        for _ in 0..16 {
            j.cb(&key, &mut acc, j.init(&key, &1u64.to_be_bytes()), &mut ctx);
        }
        assert_eq!(ctx.pending(), 0, "partial chunk data must not be reported");
    }
}
