//! Windowed click counting — the paper's future-work extension ("stream
//! query processing with window operations") built on the same
//! `init/cb/fn` interface.
//!
//! The query: clicks per user per tumbling window of `window_secs`. The
//! incremental state is a small table of open windows; a window's count is
//! emitted as soon as the reducer watermark proves the window can no
//! longer grow (`window_end + slack < watermark`) — the windowed analogue
//! of sessionization's early output, and the reason reduce progress tracks
//! map progress under INC/DINC-hash.
//!
//! Output records are `(user, [window_id u32][count u64])`. Counts are
//! additive, so even DINC-hash's monitor-eviction splits stay verifiable:
//! summing emissions per (user, window) always reproduces the exact
//! answer.
//!
//! State layout: `[n u16] n × [window u32][count u32]`, windows sorted.

use crate::clickstream::parse_click;
use opa_core::api::{IncrementalReducer, Job, ReduceCtx, Site};
use opa_core::prelude::{Key, Value};

/// The windowed counting job.
#[derive(Debug, Clone)]
pub struct WindowedCountJob {
    /// Tumbling window width in seconds (default: one hour).
    pub window_secs: u64,
    /// Watermark slack before a window is considered closed.
    pub slack_secs: u64,
    /// Expected distinct users (sizing hint).
    pub expected_users: u64,
}

impl Default for WindowedCountJob {
    fn default() -> Self {
        WindowedCountJob {
            window_secs: 3600,
            slack_secs: 400,
            expected_users: 10_000,
        }
    }
}

/// Output value layout.
pub fn window_output(window: u32, count: u64) -> Value {
    let mut v = Vec::with_capacity(12);
    v.extend_from_slice(&window.to_be_bytes());
    v.extend_from_slice(&count.to_be_bytes());
    Value::new(v)
}

/// Decodes an output value into (window id, count).
pub fn decode_window_output(v: &[u8]) -> (u32, u64) {
    (
        u32::from_be_bytes(v[..4].try_into().expect("window id")),
        u64::from_be_bytes(v[4..12].try_into().expect("count")),
    )
}

#[derive(Debug, Clone, PartialEq)]
struct WindowState {
    /// (window id, count), sorted by window id.
    windows: Vec<(u32, u32)>,
}

impl WindowState {
    fn decode(v: &[u8]) -> WindowState {
        let n = u16::from_be_bytes(v[..2].try_into().expect("count")) as usize;
        let mut windows = Vec::with_capacity(n);
        for i in 0..n {
            let off = 2 + i * 8;
            windows.push((
                u32::from_be_bytes(v[off..off + 4].try_into().expect("window")),
                u32::from_be_bytes(v[off + 4..off + 8].try_into().expect("count")),
            ));
        }
        WindowState { windows }
    }

    fn encode(&self) -> Value {
        let mut v = Vec::with_capacity(2 + self.windows.len() * 8);
        v.extend_from_slice(&(self.windows.len() as u16).to_be_bytes());
        for &(w, c) in &self.windows {
            v.extend_from_slice(&w.to_be_bytes());
            v.extend_from_slice(&c.to_be_bytes());
        }
        Value::new(v)
    }

    fn add(&mut self, window: u32, count: u32) {
        match self.windows.binary_search_by_key(&window, |&(w, _)| w) {
            Ok(i) => self.windows[i].1 += count,
            Err(i) => self.windows.insert(i, (window, count)),
        }
    }

    fn merge(&mut self, other: WindowState) {
        for (w, c) in other.windows {
            self.add(w, c);
        }
    }

    /// Emits and removes every window strictly below `open_from`.
    fn drain_closed(&mut self, key: &Key, open_from: u32, ctx: &mut ReduceCtx) {
        let split = self.windows.partition_point(|&(w, _)| w < open_from);
        for &(w, c) in &self.windows[..split] {
            ctx.emit(key.clone(), window_output(w, c as u64));
        }
        self.windows.drain(..split);
    }
}

impl WindowedCountJob {
    /// First window id that may still receive clicks at `watermark`.
    fn open_from(&self, watermark: u64) -> u32 {
        (watermark.saturating_sub(self.slack_secs) / self.window_secs) as u32
    }
}

impl IncrementalReducer for WindowedCountJob {
    fn init(&self, _key: &Key, value: &[u8]) -> Value {
        let ts = opa_common::be_u64(value).unwrap_or(0);
        let mut s = WindowState { windows: vec![] };
        s.add((ts / self.window_secs) as u32, 1);
        s.encode()
    }

    fn cb(&self, key: &Key, acc: &mut Value, other: Value, ctx: &mut ReduceCtx) {
        let mut s = WindowState::decode(acc.bytes());
        s.merge(WindowState::decode(other.bytes()));
        if ctx.site == Site::Reduce {
            if let Some(w) = ctx.watermark {
                s.drain_closed(key, self.open_from(w), ctx);
            }
        }
        *acc = s.encode();
    }

    fn finalize(&self, key: &Key, state: Value, ctx: &mut ReduceCtx) {
        let mut s = WindowState::decode(state.bytes());
        s.drain_closed(key, u32::MAX, ctx);
    }

    fn event_time(&self, state: &Value) -> Option<u64> {
        WindowState::decode(state.bytes())
            .windows
            .last()
            .map(|&(w, _)| (w as u64 + 1) * self.window_secs - 1)
    }

    fn can_evict(&self, _key: &Key, state: &Value, watermark: Option<u64>) -> bool {
        let Some(w) = watermark else { return false };
        let open_from = self.open_from(w);
        WindowState::decode(state.bytes())
            .windows
            .iter()
            .all(|&(win, _)| win < open_from)
    }

    fn evict(
        &self,
        key: &Key,
        state: Value,
        watermark: Option<u64>,
        ctx: &mut ReduceCtx,
    ) -> Option<Value> {
        if self.can_evict(key, &state, watermark) || watermark == Some(u64::MAX) {
            let mut s = WindowState::decode(state.bytes());
            s.drain_closed(key, u32::MAX, ctx);
            None
        } else {
            Some(state)
        }
    }
}

impl Job for WindowedCountJob {
    fn name(&self) -> &str {
        "windowed click counting"
    }

    fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
        if let Some((ts, user, _)) = parse_click(record) {
            emit(&user.to_be_bytes(), &ts.to_be_bytes());
        }
    }

    fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
        let mut s = WindowState { windows: vec![] };
        for v in values {
            let ts = v.as_u64().unwrap_or(0);
            s.add((ts / self.window_secs) as u32, 1);
        }
        s.drain_closed(key, u32::MAX, ctx);
    }

    fn incremental(&self) -> Option<&dyn IncrementalReducer> {
        Some(self)
    }

    fn expected_keys(&self) -> Option<u64> {
        Some(self.expected_users)
    }

    fn state_size_hint(&self) -> Option<u64> {
        Some(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> WindowedCountJob {
        WindowedCountJob {
            window_secs: 100,
            slack_secs: 50,
            expected_users: 10,
        }
    }

    #[test]
    fn state_roundtrip() {
        let mut s = WindowState { windows: vec![] };
        s.add(3, 2);
        s.add(1, 5);
        s.add(3, 1);
        let decoded = WindowState::decode(s.encode().bytes());
        assert_eq!(decoded.windows, vec![(1, 5), (3, 3)]);
    }

    #[test]
    fn classic_reduce_counts_per_window() {
        let j = job();
        let mut ctx = ReduceCtx::new();
        j.reduce(
            &Key::from_u64(1),
            vec![
                Value::from_u64(10),
                Value::from_u64(90),
                Value::from_u64(150),
            ],
            &mut ctx,
        );
        let out: Vec<(u32, u64)> = ctx
            .drain()
            .iter()
            .map(|p| decode_window_output(p.value.bytes()))
            .collect();
        assert_eq!(out, vec![(0, 2), (1, 1)]);
    }

    #[test]
    fn windows_close_behind_the_watermark() {
        let j = job();
        let key = Key::from_u64(2);
        let mut ctx = ReduceCtx::new();
        let mut acc = j.init(&key, &10u64.to_be_bytes());
        // Watermark 120: close point 70 → window 0 still open.
        ctx.advance_watermark(120);
        j.cb(&key, &mut acc, j.init(&key, &50u64.to_be_bytes()), &mut ctx);
        assert_eq!(ctx.pending(), 0, "window 0 can still grow");
        // Watermark 260: close point 210 → windows 0 and 1 closed.
        ctx.advance_watermark(260);
        j.cb(
            &key,
            &mut acc,
            j.init(&key, &130u64.to_be_bytes()),
            &mut ctx,
        );
        let out: Vec<(u32, u64)> = ctx
            .drain()
            .iter()
            .map(|p| decode_window_output(p.value.bytes()))
            .collect();
        assert_eq!(out, vec![(0, 2), (1, 1)]);
        // A click in window 2 stays open (open_from = 2)…
        j.cb(
            &key,
            &mut acc,
            j.init(&key, &250u64.to_be_bytes()),
            &mut ctx,
        );
        assert_eq!(ctx.pending(), 0);
        // …until finalize flushes it.
        j.finalize(&key, acc, &mut ctx);
        let rest: Vec<(u32, u64)> = ctx
            .drain()
            .iter()
            .map(|p| decode_window_output(p.value.bytes()))
            .collect();
        assert_eq!(rest, vec![(2, 1)]);
    }

    #[test]
    fn eviction_rules_track_window_expiry() {
        let j = job();
        let key = Key::from_u64(3);
        let state = j.init(&key, &10u64.to_be_bytes()); // window 0
        assert!(!j.can_evict(&key, &state, Some(60)));
        assert!(j.can_evict(&key, &state, Some(200)));
        let mut ctx = ReduceCtx::new();
        assert!(j.evict(&key, state.clone(), Some(200), &mut ctx).is_none());
        assert_eq!(ctx.pending(), 1);
        let mut ctx2 = ReduceCtx::new();
        assert_eq!(
            j.evict(&key, state.clone(), Some(60), &mut ctx2),
            Some(state)
        );
    }

    #[test]
    fn event_time_is_last_window_end() {
        let j = job();
        let state = j.init(&Key::from_u64(4), &250u64.to_be_bytes()); // window 2
        assert_eq!(j.event_time(&state), Some(299));
    }
}
