//! Two-round distinct-sessions count — the dataflow layer's canonical
//! "aggregation of an aggregation" workload.
//!
//! Counting the *distinct* session windows a user touched cannot be done
//! in one MapReduce pass without holding every window id in reduce state;
//! the classic two-job rewrite is:
//!
//! 1. [`SessionMarkJob`] keys each click by `user|window` and collapses
//!    duplicates, emitting exactly one record per `(user, window)` pair.
//! 2. [`SessionCountJob`] re-keys those survivors by user alone and sums,
//!    yielding each user's distinct-window count.
//!
//! The second job changes the key (it strips the window suffix), so it is
//! **not** partition-preserving and the chain legitimately reshuffles
//! between the rounds — the [`crate::top_pages`] chain is the skip-path
//! counterpart.
//!
//! Both rounds use order-insensitive integer ops, so the chained result
//! is bit-identical to the staged one at any thread count.

use crate::clickstream::parse_click;
use opa_common::decode_kv;
use opa_core::api::{Combiner, IncrementalReducer, Job, ReduceCtx};
use opa_core::prelude::{Key, Value};

/// Round 1: one record per distinct `(user, session-window)` pair.
#[derive(Debug, Clone)]
pub struct SessionMarkJob {
    /// Session window width in seconds (clicks in the same window belong
    /// to the same session mark). Default 300 s, matching
    /// [`crate::sessionize::SessionizeJob`]'s inactivity gap.
    pub window_secs: u64,
    /// Expected distinct users (sizing hint).
    pub expected_users: u64,
}

impl Default for SessionMarkJob {
    fn default() -> Self {
        SessionMarkJob {
            window_secs: 300,
            expected_users: 10_000,
        }
    }
}

impl Combiner for SessionMarkJob {
    /// Duplicates collapse map-side: any number of marks is still one mark.
    fn fold(&self, _key: &Key, acc: &mut Value, _value: Value) {
        *acc = Value::from_u64(1);
    }
}

impl IncrementalReducer for SessionMarkJob {
    /// Dedup is the textbook incremental reduce: the state is the single
    /// mark, and further arrivals change nothing.
    fn init(&self, _key: &Key, _value: &[u8]) -> Value {
        Value::from_u64(1)
    }
    fn cb(&self, _key: &Key, _acc: &mut Value, _other: Value, _ctx: &mut ReduceCtx) {}
    fn finalize(&self, key: &Key, state: Value, ctx: &mut ReduceCtx) {
        ctx.emit(key.clone(), state);
    }
}

impl Job for SessionMarkJob {
    fn name(&self) -> &str {
        "session-mark"
    }

    /// Keys each click `user|window` where `window = ts / window_secs`.
    fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
        if let Some((ts, user, _)) = parse_click(record) {
            let window = ts / self.window_secs.max(1);
            let key = format!("{user:08}|{window:010}");
            emit(key.as_bytes(), &1u64.to_be_bytes());
        }
    }

    /// However many clicks landed in the window, emit the mark once.
    fn reduce(&self, key: &Key, _values: Vec<Value>, ctx: &mut ReduceCtx) {
        ctx.emit(key.clone(), Value::from_u64(1));
    }

    fn combiner(&self) -> Option<&dyn Combiner> {
        Some(self)
    }

    fn incremental(&self) -> Option<&dyn IncrementalReducer> {
        Some(self)
    }

    fn expected_keys(&self) -> Option<u64> {
        // A handful of windows per user on typical stream lengths.
        Some(self.expected_users.saturating_mul(4))
    }

    fn state_size_hint(&self) -> Option<u64> {
        Some(32)
    }
}

/// Round 2: distinct-window marks per user, summed.
#[derive(Debug, Clone)]
pub struct SessionCountJob {
    /// Expected distinct users (sizing hint).
    pub expected_users: u64,
}

impl Default for SessionCountJob {
    fn default() -> Self {
        SessionCountJob {
            expected_users: 10_000,
        }
    }
}

impl Combiner for SessionCountJob {
    fn fold(&self, _key: &Key, acc: &mut Value, value: Value) {
        let sum = acc.as_u64().unwrap_or(0) + value.as_u64().unwrap_or(0);
        *acc = Value::from_u64(sum);
    }
}

impl Job for SessionCountJob {
    fn name(&self) -> &str {
        "session-count"
    }

    /// Input records are framed `(user|window, 1)` pairs from round 1;
    /// strips the window suffix and re-keys by user.
    fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
        let Some((key, _)) = decode_kv(record) else {
            return;
        };
        let Some(sep) = key.iter().position(|&b| b == b'|') else {
            return;
        };
        emit(&key[..sep], &1u64.to_be_bytes());
    }

    fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
        let sum: u64 = values.iter().filter_map(Value::as_u64).sum();
        ctx.emit(key.clone(), Value::from_u64(sum));
    }

    fn combiner(&self) -> Option<&dyn Combiner> {
        Some(self)
    }

    fn expected_keys(&self) -> Option<u64> {
        Some(self.expected_users)
    }

    fn state_size_hint(&self) -> Option<u64> {
        Some(16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clickstream::format_click;
    use opa_common::encode_kv;

    #[test]
    fn mark_buckets_by_window_and_dedups() {
        let job = SessionMarkJob::default();
        let mut keys = Vec::new();
        // Two clicks in window 0, one in window 2.
        for ts in [10, 250, 700] {
            job.map(&format_click(ts, 5, 1), &mut |k, _| keys.push(k.to_vec()));
        }
        assert_eq!(keys[0], keys[1], "same window, same key");
        assert_ne!(keys[0], keys[2]);
        let mut ctx = ReduceCtx::new();
        job.reduce(
            &Key::from_slice(&keys[0]),
            vec![Value::from_u64(1), Value::from_u64(1)],
            &mut ctx,
        );
        let out = ctx.drain();
        assert_eq!(out.len(), 1, "duplicates collapse to one mark");
        assert_eq!(out[0].value.as_u64(), Some(1));
    }

    #[test]
    fn count_rekeys_by_user_and_sums() {
        let job = SessionCountJob::default();
        let mut pairs = Vec::new();
        for window in ["0000000001", "0000000007"] {
            let rec = encode_kv(format!("00000005|{window}").as_bytes(), &1u64.to_be_bytes());
            job.map(&rec, &mut |k, v| {
                pairs.push((k.to_vec(), Value::from_slice(v)));
            });
        }
        assert_eq!(pairs[0].0, b"00000005");
        assert_eq!(pairs[0].0, pairs[1].0, "window suffix stripped");
        let mut ctx = ReduceCtx::new();
        job.reduce(
            &Key::from_slice(&pairs[0].0),
            pairs.into_iter().map(|(_, v)| v).collect(),
            &mut ctx,
        );
        assert_eq!(ctx.drain()[0].value.as_u64(), Some(2));
    }

    #[test]
    fn count_round_is_not_partition_preserving() {
        assert!(!Job::partition_preserving(&SessionCountJob::default()));
    }
}
