//! Trigram counting (§6.2): report word trigrams appearing at least
//! `threshold` times in the corpus.
//!
//! The large-key-state-space workload: trigram keys vastly outnumber what
//! reduce memory can hold (the paper's run kept only 1/30 of the states
//! resident), so both INC-hash and DINC-hash stage a substantial fraction
//! of tuples — and because trigram frequencies are comparatively flat,
//! DINC's frequency-aware monitoring barely improves on INC's first-come
//! residency (Fig 7(f)). Early output fires when a resident counter
//! crosses the threshold.

use opa_core::api::{Combiner, IncrementalReducer, Job, ReduceCtx, Site};
use opa_core::prelude::{Key, Value};

/// The trigram-counting job.
#[derive(Debug, Clone)]
pub struct TrigramCountJob {
    /// Occurrence threshold (paper: 1000).
    pub threshold: u64,
    /// Expected distinct trigrams (sizing hint).
    pub expected_trigrams: u64,
}

impl Default for TrigramCountJob {
    fn default() -> Self {
        TrigramCountJob {
            threshold: 1000,
            expected_trigrams: 1_000_000,
        }
    }
}

// State layout: [count u64][emitted u8] — same as frequent users.
fn encode_state(count: u64, emitted: bool) -> Value {
    let mut buf = [0u8; 9];
    buf[..8].copy_from_slice(&count.to_be_bytes());
    buf[8] = emitted as u8;
    Value::from_slice(&buf)
}

fn decode_state(v: &Value) -> (u64, bool) {
    (
        v.as_u64().unwrap_or(0),
        v.bytes().get(8).copied().unwrap_or(0) != 0,
    )
}

impl Combiner for TrigramCountJob {
    fn fold(&self, _key: &Key, acc: &mut Value, value: Value) {
        let sum = acc.as_u64().unwrap_or(0) + value.as_u64().unwrap_or(0);
        *acc = Value::from_u64(sum);
    }
}

impl IncrementalReducer for TrigramCountJob {
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

impl Job for TrigramCountJob {
    fn name(&self) -> &str {
        "trigram counting"
    }

    fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
        // Slide a 3-word window with one reused scratch buffer: the only
        // allocation is the buffer's initial growth, regardless of how many
        // trigrams the record yields. `tokens` finds word boundaries a
        // machine word (or SIMD vector) at a time and yields exactly the
        // split-on-space/skip-empty sequence, so output is unchanged.
        let mut words = opa_common::scan::tokens(record, b' ');
        let (Some(mut w0), Some(mut w1)) = (words.next(), words.next()) else {
            return;
        };
        let mut scratch: Vec<u8> = Vec::new();
        for w2 in words {
            scratch.clear();
            scratch.extend_from_slice(w0);
            scratch.push(b' ');
            scratch.extend_from_slice(w1);
            scratch.push(b' ');
            scratch.extend_from_slice(w2);
            emit(&scratch, &1u64.to_be_bytes());
            (w0, w1) = (w1, w2);
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
        Some(self.expected_trigrams)
    }

    fn state_size_hint(&self) -> Option<u64> {
        Some(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_emits_sliding_trigrams() {
        let job = TrigramCountJob::default();
        let mut out = Vec::new();
        job.map(b"a b c d", &mut |k, _| out.push(k.to_vec()));
        assert_eq!(out, vec![b"a b c".to_vec(), b"b c d".to_vec()]);
    }

    #[test]
    fn short_documents_emit_nothing() {
        let job = TrigramCountJob::default();
        let mut out = Vec::new();
        job.map(b"a b", &mut |k, _| out.push(k.to_vec()));
        job.map(b"", &mut |k, _| out.push(k.to_vec()));
        assert!(out.is_empty());
    }

    #[test]
    fn threshold_gates_output() {
        let job = TrigramCountJob {
            threshold: 2,
            expected_trigrams: 100,
        };
        let mut ctx = ReduceCtx::new();
        job.reduce(&Key::from("a b c"), vec![Value::from_u64(1)], &mut ctx);
        assert_eq!(ctx.pending(), 0);
        job.reduce(
            &Key::from("d e f"),
            vec![Value::from_u64(1), Value::from_u64(1)],
            &mut ctx,
        );
        assert_eq!(ctx.pending(), 1);
    }

    #[test]
    fn incremental_early_output_once() {
        let job = TrigramCountJob {
            threshold: 3,
            expected_trigrams: 100,
        };
        let key = Key::from("x y z");
        let mut ctx = ReduceCtx::new();
        let mut acc = job.init(&key, &1u64.to_be_bytes());
        for _ in 0..4 {
            job.cb(
                &key,
                &mut acc,
                job.init(&key, &1u64.to_be_bytes()),
                &mut ctx,
            );
        }
        assert_eq!(ctx.pending(), 1);
        job.finalize(&key, acc, &mut ctx);
        assert_eq!(ctx.pending(), 1, "no duplicate at finalize");
    }
}
