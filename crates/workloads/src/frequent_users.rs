//! Frequent user identification (§6.1): find users with ≥ `threshold`
//! clicks.
//!
//! Built on click counting, but the query *allows early output*: a user can
//! be reported the moment their counter crosses the threshold, which is why
//! INC-hash reduce progress completely keeps up with map progress in
//! Fig 7(c). The incremental state is 9 bytes: a count plus an
//! already-emitted flag, so the threshold crossing is reported exactly once
//! per resident state.
//!
//! Early emission is gated on [`Site::Reduce`]: a map-side partial count
//! crossing the threshold proves global frequency too, but the reducer
//! would re-report it; keeping emission reduce-side makes the common path
//! exactly-once (DINC can still double-report a key whose state was evicted
//! mid-count and re-crossed — membership stays exact, see DESIGN.md).

use crate::clickstream::parse_click;
use opa_core::api::{Combiner, IncrementalReducer, Job, ReduceCtx, Site};
use opa_core::prelude::{Key, Value};

/// The frequent-user job.
#[derive(Debug, Clone)]
pub struct FrequentUsersJob {
    /// Click-count threshold (paper: 50).
    pub threshold: u64,
    /// Expected distinct users (sizing hint).
    pub expected_users: u64,
}

impl Default for FrequentUsersJob {
    fn default() -> Self {
        FrequentUsersJob {
            threshold: 50,
            expected_users: 10_000,
        }
    }
}

// State layout: [count u64][emitted u8].
fn encode_state(count: u64, emitted: bool) -> Value {
    let mut buf = [0u8; 9];
    buf[..8].copy_from_slice(&count.to_be_bytes());
    buf[8] = emitted as u8;
    Value::from_slice(&buf)
}

fn decode_state(v: &Value) -> (u64, bool) {
    let count = v.as_u64().unwrap_or(0);
    let emitted = v.bytes().get(8).copied().unwrap_or(0) != 0;
    (count, emitted)
}

impl Combiner for FrequentUsersJob {
    fn fold(&self, _key: &Key, acc: &mut Value, value: Value) {
        let sum = acc.as_u64().unwrap_or(0) + value.as_u64().unwrap_or(0);
        *acc = Value::from_u64(sum);
    }
}

impl IncrementalReducer for FrequentUsersJob {
    fn init(&self, _key: &Key, value: &[u8]) -> Value {
        encode_state(opa_common::be_u64(value).unwrap_or(0), false)
    }

    fn cb(&self, key: &Key, acc: &mut Value, other: Value, ctx: &mut ReduceCtx) {
        let (a, mut emitted) = decode_state(acc);
        let (b, other_emitted) = decode_state(&other);
        let count = a + b;
        emitted |= other_emitted;
        if !emitted && count >= self.threshold && ctx.site == Site::Reduce {
            ctx.emit(key.clone(), Value::from_u64(count));
            emitted = true;
        }
        *acc = encode_state(count, emitted);
    }

    fn finalize(&self, key: &Key, state: Value, ctx: &mut ReduceCtx) {
        let (count, emitted) = decode_state(&state);
        if !emitted && count >= self.threshold {
            ctx.emit(key.clone(), Value::from_u64(count));
        }
    }
}

impl Job for FrequentUsersJob {
    fn name(&self) -> &str {
        "frequent user identification"
    }

    fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
        if let Some((_, user, _)) = parse_click(record) {
            emit(&user.to_be_bytes(), &1u64.to_be_bytes());
        }
    }

    fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
        let sum: u64 = values.iter().filter_map(Value::as_u64).sum();
        if sum >= self.threshold {
            ctx.emit(key.clone(), Value::from_u64(sum));
        }
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
        Some(9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_crossing_emits_once() {
        let job = FrequentUsersJob {
            threshold: 3,
            expected_users: 10,
        };
        let key = Key::from_u64(1);
        let mut ctx = ReduceCtx::new();
        let mut acc = job.init(&key, &1u64.to_be_bytes());
        job.cb(
            &key,
            &mut acc,
            job.init(&key, &1u64.to_be_bytes()),
            &mut ctx,
        );
        assert_eq!(ctx.pending(), 0, "below threshold");
        job.cb(
            &key,
            &mut acc,
            job.init(&key, &1u64.to_be_bytes()),
            &mut ctx,
        );
        assert_eq!(ctx.pending(), 1, "crossed threshold");
        job.cb(
            &key,
            &mut acc,
            job.init(&key, &1u64.to_be_bytes()),
            &mut ctx,
        );
        assert_eq!(ctx.pending(), 1, "no re-emission");
        job.finalize(&key, acc, &mut ctx);
        assert_eq!(ctx.pending(), 1, "finalize honours emitted flag");
    }

    #[test]
    fn below_threshold_never_emits() {
        let job = FrequentUsersJob {
            threshold: 100,
            expected_users: 10,
        };
        let key = Key::from_u64(2);
        let mut ctx = ReduceCtx::new();
        let mut acc = job.init(&key, &1u64.to_be_bytes());
        for _ in 0..50 {
            job.cb(
                &key,
                &mut acc,
                job.init(&key, &1u64.to_be_bytes()),
                &mut ctx,
            );
        }
        job.finalize(&key, acc, &mut ctx);
        assert_eq!(ctx.pending(), 0);
    }

    #[test]
    fn map_site_defers_emission() {
        let job = FrequentUsersJob {
            threshold: 2,
            expected_users: 10,
        };
        let key = Key::from_u64(3);
        let mut ctx = ReduceCtx::at_site(Site::Map);
        let mut acc = job.init(&key, &1u64.to_be_bytes());
        job.cb(
            &key,
            &mut acc,
            job.init(&key, &1u64.to_be_bytes()),
            &mut ctx,
        );
        assert_eq!(ctx.pending(), 0, "map side must not report");
        // The reducer still reports it (flag not set).
        let mut rctx = ReduceCtx::new();
        job.finalize(&key, acc, &mut rctx);
        assert_eq!(rctx.pending(), 1);
    }

    #[test]
    fn classic_reduce_filters() {
        let job = FrequentUsersJob {
            threshold: 3,
            expected_users: 10,
        };
        let mut ctx = ReduceCtx::new();
        job.reduce(&Key::from_u64(1), vec![Value::from_u64(2)], &mut ctx);
        assert_eq!(ctx.pending(), 0);
        job.reduce(
            &Key::from_u64(2),
            vec![Value::from_u64(2), Value::from_u64(2)],
            &mut ctx,
        );
        assert_eq!(ctx.pending(), 1);
    }
}
