//! The struct-based sessionization state — decode the bytes into owned
//! clicks, merge by re-sorting, re-encode — kept as the oracle for the
//! byte-level implementation in `opa_workloads::sessionize`, which
//! replaced it on the live path. It is deliberately naive and shares no
//! code with the production module: it even rebuilds values through `Vec`.
//! Same wire layout, same rules; any byte of difference is a bug there.

use opa_core::api::{IncrementalReducer, ReduceCtx, Site};
use opa_core::prelude::{Key, Value};

/// `[session_start u64][ts u64][tail…]`, built the slow way.
fn session_output(session_start: u64, ts: u64, tail: &[u8]) -> Value {
    let mut v = Vec::with_capacity(16 + tail.len());
    v.extend_from_slice(&session_start.to_be_bytes());
    v.extend_from_slice(&ts.to_be_bytes());
    v.extend_from_slice(tail);
    Value::new(v)
}

/// In-memory view of the serialized state.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionState {
    /// Open-session context of already-drained clicks:
    /// (session_start, last_drained_ts).
    pub anchor: Option<(u64, u64)>,
    /// Buffered clicks, sorted by (ts, tail) once merged.
    pub clicks: Vec<(u64, Vec<u8>)>,
}

impl SessionState {
    pub fn decode(v: &[u8]) -> SessionState {
        let flags = v[0];
        let anchor = if flags & 1 != 0 {
            Some((
                u64::from_be_bytes(v[1..9].try_into().expect("anchor start")),
                u64::from_be_bytes(v[9..17].try_into().expect("anchor last")),
            ))
        } else {
            None
        };
        let n = u16::from_be_bytes(v[17..19].try_into().expect("count")) as usize;
        let mut clicks = Vec::with_capacity(n);
        let mut i = 19;
        for _ in 0..n {
            let ts = u64::from_be_bytes(v[i..i + 8].try_into().expect("click ts"));
            let len = v[i + 8] as usize;
            clicks.push((ts, v[i + 9..i + 9 + len].to_vec()));
            i += 9 + len;
        }
        SessionState { anchor, clicks }
    }

    pub fn encode(&self) -> Value {
        let mut v = Vec::with_capacity(self.encoded_len());
        let (flags, a, b) = match self.anchor {
            Some((s, l)) => (1u8, s, l),
            None => (0u8, 0, 0),
        };
        v.push(flags);
        v.extend_from_slice(&a.to_be_bytes());
        v.extend_from_slice(&b.to_be_bytes());
        v.extend_from_slice(&(self.clicks.len() as u16).to_be_bytes());
        for (ts, tail) in &self.clicks {
            v.extend_from_slice(&ts.to_be_bytes());
            v.push(u8::try_from(tail.len()).expect("tails are clamped to 255 bytes"));
            v.extend_from_slice(tail);
        }
        Value::new(v)
    }

    fn encoded_len(&self) -> usize {
        19 + self
            .clicks
            .iter()
            .map(|(_, tail)| 9 + tail.len())
            .sum::<usize>()
    }

    fn merge(&mut self, other: SessionState) {
        self.anchor = match (self.anchor, other.anchor) {
            (Some(a), Some(b)) => Some(if a.1 >= b.1 { a } else { b }),
            (a, b) => a.or(b),
        };
        self.clicks.extend(other.clicks);
        self.clicks.sort();
    }

    fn last_activity(&self) -> u64 {
        let buffered = self.clicks.last().map(|&(ts, _)| ts).unwrap_or(0);
        let drained = self.anchor.map(|(_, l)| l).unwrap_or(0);
        buffered.max(drained)
    }

    /// Drains clicks with `ts < close_point`, emitting them with session
    /// labels; then force-drains oldest clicks while over `capacity`.
    fn drain(
        &mut self,
        key: &Key,
        close_point: u64,
        capacity: usize,
        gap: u64,
        ctx: &mut ReduceCtx,
    ) {
        let mut i = 0;
        while i < self.clicks.len() {
            let within_close = self.clicks[i].0 < close_point;
            let over_capacity = self.encoded_len()
                - self.clicks[..i]
                    .iter()
                    .map(|(_, t)| 9 + t.len())
                    .sum::<usize>()
                > capacity;
            if !within_close && !over_capacity {
                break;
            }
            let (ts, ref tail) = self.clicks[i];
            match self.anchor {
                Some((s, last)) if ts <= last.saturating_add(gap) && ts >= s => {
                    ctx.emit(key.clone(), session_output(s, ts, tail));
                    self.anchor = Some((s, last.max(ts)));
                }
                Some((s, _)) if ts < s => {
                    ctx.emit(key.clone(), session_output(ts, ts, tail));
                }
                _ => {
                    ctx.emit(key.clone(), session_output(ts, ts, tail));
                    self.anchor = Some((ts, ts));
                }
            }
            i += 1;
        }
        self.clicks.drain(..i);
    }

    fn expired(&self, close_point: u64, gap: u64) -> bool {
        self.clicks.is_empty() || self.last_activity().saturating_add(gap) < close_point
    }
}

/// The oracle's `init`/`cb`/`fn` triple and DINC hooks.
pub struct OracleSessionize {
    pub gap_secs: u64,
    pub slack_secs: u64,
    pub state_capacity: usize,
}

impl IncrementalReducer for OracleSessionize {
    fn init(&self, _key: &Key, v: &[u8]) -> Value {
        let ts = u64::from_be_bytes(v[..8].try_into().expect("click value has ts"));
        SessionState {
            anchor: None,
            clicks: vec![(ts, v[8..].to_vec())],
        }
        .encode()
    }

    fn cb(&self, key: &Key, acc: &mut Value, other: Value, ctx: &mut ReduceCtx) {
        let mut state = SessionState::decode(acc.bytes());
        state.merge(SessionState::decode(other.bytes()));
        if ctx.site == Site::Reduce {
            let close_point = ctx
                .watermark
                .map(|w| w.saturating_sub(self.slack_secs))
                .unwrap_or(0);
            state.drain(key, close_point, self.state_capacity, self.gap_secs, ctx);
        }
        *acc = state.encode();
    }

    fn finalize(&self, key: &Key, state: Value, ctx: &mut ReduceCtx) {
        SessionState::decode(state.bytes()).drain(key, u64::MAX, 0, self.gap_secs, ctx);
    }

    fn event_time(&self, state: &Value) -> Option<u64> {
        Some(SessionState::decode(state.bytes()).last_activity())
    }

    fn can_evict(&self, _key: &Key, state: &Value, watermark: Option<u64>) -> bool {
        let Some(w) = watermark else { return false };
        let close_point = w.saturating_sub(self.slack_secs);
        SessionState::decode(state.bytes()).expired(close_point, self.gap_secs)
    }

    fn evict(
        &self,
        key: &Key,
        state: Value,
        watermark: Option<u64>,
        ctx: &mut ReduceCtx,
    ) -> Option<Value> {
        let mut s = SessionState::decode(state.bytes());
        let close_point = watermark
            .map(|w| w.saturating_sub(self.slack_secs))
            .unwrap_or(0);
        if s.expired(close_point, self.gap_secs) {
            s.drain(key, u64::MAX, 0, self.gap_secs, ctx);
            None
        } else {
            Some(state)
        }
    }
}
