//! Sessionization: reorder a click stream into per-user sessions (§2.3).
//!
//! *Map* extracts the user id and re-keys each click (`K_m ≈ 1`, no
//! combiner possible — every record must survive). *Reduce* orders a
//! user's clicks by timestamp and splits them into sessions closed by
//! `gap` (300 s) of inactivity; each output record is the click annotated
//! with its session's start timestamp, so session identity is
//! order-independent and verifiable.
//!
//! ## Incremental state (INC/DINC)
//!
//! The state is a fixed-capacity *reorder buffer* plus an *anchor*:
//!
//! ```text
//! [flags u8][anchor_start u64][anchor_last u64][n u16] n×[ts u64][len u8][tail…]
//! ```
//!
//! Buffered clicks are merged in timestamp order; a click is drained
//! (emitted) once the reducer watermark guarantees no earlier click can
//! still arrive (`ts < watermark − slack`). The anchor remembers the open
//! session of already-drained clicks, so a slightly tardy click that still
//! belongs to the current session is labelled correctly. When the buffer
//! overflows its fixed capacity (the paper's 0.5/1/2 KB state sizes) the
//! oldest click is force-drained — precisely the paper's "a sufficiently
//! large buffer can guarantee the input order" caveat: under-provisioned
//! states may fragment a hot user's sessions but never lose a click.
//!
//! The DINC eviction rule of §6.2 is implemented via [`can_evict`]: a state
//! may leave the monitor only when every buffered click belongs to an
//! expired session, in which case eviction *outputs* the clicks instead of
//! spilling them.
//!
//! ## Working on the bytes
//!
//! Like the paper's prototype (§5, §6.1's pre-allocated 0.5–2 KB buffers),
//! the incremental functions never turn a state into objects. A state is
//! read through a cursor over its click records; `cb` is one two-way merge
//! of the (already sorted) records of `acc` and `other` into the
//! [`ReduceCtx`]'s reusable assembly buffer, a drain from the front with a
//! running count of the bytes left, and one [`Value::concat`] of the new
//! header and the surviving records — one allocation for the state and one
//! per emitted click. `event_time`, `can_evict`, `evict` and `finalize`
//! read the anchor and the last timestamp in place. A tail is framed by a
//! one-byte length, so `map` clamps tails to [`MAX_TAIL`] bytes, for every
//! framework alike. The layout is frozen: checkpoints, spill files and
//! shuffle byte counts are made of it. The struct-based implementation
//! this replaced lives on as the oracle of the property tests
//! (`tests/support/session_oracle.rs`).
//!
//! [`can_evict`]: opa_core::api::IncrementalReducer::can_evict

use crate::clickstream::parse_click;
use opa_core::api::{IncrementalReducer, Job, ReduceCtx, Site};
use opa_core::prelude::{Key, Value};

/// The sessionization job.
#[derive(Debug, Clone)]
pub struct SessionizeJob {
    /// Inactivity gap closing a session, seconds (paper: 5 minutes).
    pub gap_secs: u64,
    /// Watermark slack: a click is only drained once
    /// `ts < watermark − slack`. Must exceed the stream's total disorder.
    pub slack_secs: u64,
    /// Fixed state capacity in bytes (the paper's 0.5/1/2 KB knob).
    pub state_capacity: usize,
    /// Whether a resident state is charged its full fixed capacity (the
    /// paper's pre-allocated buffers — the default) or its actual encoded
    /// size (useful when `state_capacity` is a generous cap rather than a
    /// pre-allocation).
    pub charge_fixed_footprint: bool,
    /// Expected distinct users (sizing hint).
    pub expected_users: u64,
}

impl Default for SessionizeJob {
    fn default() -> Self {
        SessionizeJob {
            gap_secs: 300,
            slack_secs: 240,
            state_capacity: 512,
            charge_fixed_footprint: true,
            expected_users: 10_000,
        }
    }
}

/// Longest click tail a record keeps, in bytes: the state layout frames a
/// tail with a one-byte length. [`SessionizeJob::map`] clamps longer tails
/// (oversized URLs), for every framework alike.
pub const MAX_TAIL: usize = u8::MAX as usize;

// ---------------------------------------------------------------------
// Click value layout: [ts u64][tail…]
// ---------------------------------------------------------------------

fn be64(b: &[u8]) -> u64 {
    u64::from_be_bytes(b[..8].try_into().expect("8-byte big-endian field"))
}

fn decode_click(v: &[u8]) -> (u64, &[u8]) {
    (be64(v), &v[8..])
}

/// Output value layout: [session_start u64][ts u64][tail…].
pub fn session_output(session_start: u64, ts: u64, tail: &[u8]) -> Value {
    Value::concat(&[&session_start.to_be_bytes(), &ts.to_be_bytes(), tail])
}

/// Decodes an output record into (session_start, ts, tail).
pub fn decode_output(v: &[u8]) -> (u64, u64, &[u8]) {
    (be64(v), be64(&v[8..]), &v[16..])
}

// ---------------------------------------------------------------------
// Incremental state: byte-level views
// ---------------------------------------------------------------------

/// State header: `[flags u8][anchor_start u64][anchor_last u64][n u16]`.
const HDR: usize = 19;
/// Click record header inside a state: `[ts u64][len u8]`.
const REC_HDR: usize = 9;

/// Open-session context of already-drained clicks:
/// (session_start, last_drained_ts).
type Anchor = Option<(u64, u64)>;

/// One buffered click, borrowed from the state bytes that hold it.
#[derive(Clone, Copy)]
struct Click<'a> {
    /// The whole record: `[ts u64][len u8][tail…]`.
    rec: &'a [u8],
}

impl<'a> Click<'a> {
    fn ts(self) -> u64 {
        be64(self.rec)
    }

    fn tail(self) -> &'a [u8] {
        &self.rec[REC_HDR..]
    }

    /// Buffer order: by timestamp, then tail. (Not the record's byte
    /// order — the length byte sits between the two.)
    fn sort_key(self) -> (u64, &'a [u8]) {
        (self.ts(), self.tail())
    }
}

/// Cursor over the click records of a state body.
#[derive(Clone)]
struct Clicks<'a>(&'a [u8]);

impl<'a> Iterator for Clicks<'a> {
    type Item = Click<'a>;

    fn next(&mut self) -> Option<Click<'a>> {
        if self.0.is_empty() {
            return None;
        }
        let (rec, rest) = self.0.split_at(REC_HDR + self.0[8] as usize);
        self.0 = rest;
        Some(Click { rec })
    }
}

/// The anchor of an encoded state and its click records.
fn parse_state(v: &[u8]) -> (Anchor, Clicks<'_>) {
    let anchor = (v[0] & 1 != 0).then(|| (be64(&v[1..]), be64(&v[9..])));
    (anchor, Clicks(&v[HDR..]))
}

/// Encodes a state from its anchor and `n` already-encoded click records.
fn encode_state(anchor: Anchor, n: usize, body: &[u8]) -> Value {
    let mut hdr = [0u8; HDR];
    if let Some((start, last)) = anchor {
        hdr[0] = 1;
        hdr[1..9].copy_from_slice(&start.to_be_bytes());
        hdr[9..17].copy_from_slice(&last.to_be_bytes());
    }
    hdr[17..].copy_from_slice(&(n as u16).to_be_bytes());
    Value::concat(&[&hdr, body])
}

/// Appends the records of the runs `a` and `b` to `out` in buffer order and
/// returns how many there are. Both runs are sorted whenever this module
/// wrote them, so one two-way merge pass does it; should the pass find
/// either run out of order, it falls back to sorting them all.
fn merge_clicks<'a>(a: Clicks<'a>, b: Clicks<'a>, out: &mut Vec<u8>) -> usize {
    out.reserve(a.0.len() + b.0.len());
    let (mut left, mut right) = (a.clone().peekable(), b.clone().peekable());
    let mut n = 0;
    let mut sorted = true;
    let mut prev = None::<Click<'_>>;
    loop {
        let next = match (left.peek(), right.peek()) {
            (Some(l), Some(r)) if r.sort_key() < l.sort_key() => right.next(),
            (Some(_), _) => left.next(),
            (None, _) => right.next(),
        };
        let Some(click) = next else { break };
        sorted &= prev.is_none_or(|p| p.sort_key() <= click.sort_key());
        prev = Some(click);
        out.extend_from_slice(click.rec);
        n += 1;
    }
    if !sorted {
        let mut all: Vec<Click<'_>> = a.chain(b).collect();
        all.sort_unstable_by_key(|c| c.sort_key());
        out.clear();
        for click in all {
            out.extend_from_slice(click.rec);
        }
    }
    n
}

/// Latest activity in a state, buffered or drained.
fn last_activity(anchor: Anchor, clicks: Clicks<'_>) -> u64 {
    let buffered = clicks.last().map_or(0, Click::ts);
    let drained = anchor.map_or(0, |(_, last)| last);
    buffered.max(drained)
}

impl SessionizeJob {
    /// The point before which no earlier click can still arrive.
    fn close_point(&self, watermark: Option<u64>) -> u64 {
        watermark.map_or(0, |w| w.saturating_sub(self.slack_secs))
    }

    /// Drains clicks from the front of `clicks`, emitting them with session
    /// labels: those with `ts < close_point`, then the oldest ones for as
    /// long as the state would still encode to more than `capacity` bytes.
    /// Returns the new anchor, the clicks left, and how many were drained.
    fn drain_front<'a>(
        &self,
        key: &Key,
        mut anchor: Anchor,
        mut clicks: Clicks<'a>,
        close_point: u64,
        capacity: usize,
        ctx: &mut ReduceCtx,
    ) -> (Anchor, Clicks<'a>, usize) {
        let mut drained = 0;
        loop {
            let mut rest = clicks.clone();
            let Some(click) = rest.next() else { break };
            let ts = click.ts();
            if ts >= close_point && HDR + clicks.0.len() <= capacity {
                break;
            }
            let start = match anchor {
                // Within (or extending) the open session.
                Some((s, last)) if ts <= last.saturating_add(self.gap_secs) && ts >= s => {
                    anchor = Some((s, last.max(ts)));
                    s
                }
                // Older than the open session's start: only possible on
                // DINC respill merges (the documented approximation).
                // Emit as its own singleton session and leave the anchor
                // alone, so the open session's structure stays valid.
                Some((s, _)) if ts < s => ts,
                // Gap exceeded (or no session yet): a new session opens.
                _ => {
                    anchor = Some((ts, ts));
                    ts
                }
            };
            ctx.emit(key.clone(), session_output(start, ts, click.tail()));
            clicks = rest;
            drained += 1;
        }
        (anchor, clicks, drained)
    }

    /// Emits every buffered click of a complete state.
    fn drain_all(&self, key: &Key, state: &Value, ctx: &mut ReduceCtx) {
        let (anchor, clicks) = parse_state(state.bytes());
        self.drain_front(key, anchor, clicks, u64::MAX, 0, ctx);
    }

    /// Whether every buffered click belongs to an expired session at the
    /// given close point (the §6.2 eviction rule).
    fn expired(&self, state: &Value, close_point: u64) -> bool {
        let (anchor, clicks) = parse_state(state.bytes());
        clicks.0.is_empty()
            || last_activity(anchor, clicks).saturating_add(self.gap_secs) < close_point
    }
}

impl IncrementalReducer for SessionizeJob {
    fn init(&self, _key: &Key, value: &[u8]) -> Value {
        /// Header of a one-click state with no anchor.
        const ONE_CLICK: [u8; HDR] = {
            let mut hdr = [0u8; HDR];
            hdr[HDR - 1] = 1;
            hdr
        };
        let (ts, tail) = value.split_at(8);
        let tail = &tail[..tail.len().min(MAX_TAIL)];
        Value::concat(&[&ONE_CLICK, ts, &[tail.len() as u8], tail])
    }

    fn cb(&self, key: &Key, acc: &mut Value, other: Value, ctx: &mut ReduceCtx) {
        let (mine, acc_clicks) = parse_state(acc.bytes());
        let (theirs, other_clicks) = parse_state(other.bytes());
        // Anchors only collide on DINC respill paths; keep the later one
        // (its drained clicks are the most recent — see module docs).
        let mut anchor = match (mine, theirs) {
            (Some(a), Some(b)) => Some(if a.1 >= b.1 { a } else { b }),
            (a, b) => a.or(b),
        };
        let mut buf = ctx.take_scratch();
        let mut n = merge_clicks(acc_clicks, other_clicks, &mut buf);
        let mut body = &buf[..];
        // Only reduce-side processing may emit: map-side chunks see a
        // partial stream (and states there stay tiny anyway).
        if ctx.site == Site::Reduce {
            let close_point = self.close_point(ctx.watermark);
            let (after, rest, drained) = self.drain_front(
                key,
                anchor,
                Clicks(body),
                close_point,
                self.state_capacity,
                ctx,
            );
            anchor = after;
            body = rest.0;
            n -= drained;
        }
        *acc = encode_state(anchor, n, body);
        ctx.return_scratch(buf);
    }

    fn finalize(&self, key: &Key, state: Value, ctx: &mut ReduceCtx) {
        self.drain_all(key, &state, ctx);
    }

    fn state_mem_size(&self, state: &Value) -> u64 {
        // States are fixed-size pre-allocated reorder buffers (§6.1): a
        // resident key costs its full capacity regardless of fill (unless
        // configured as a soft cap).
        if self.charge_fixed_footprint {
            self.state_capacity as u64
        } else {
            state.len() as u64
        }
    }

    fn event_time(&self, state: &Value) -> Option<u64> {
        let (anchor, clicks) = parse_state(state.bytes());
        Some(last_activity(anchor, clicks))
    }

    fn can_evict(&self, _key: &Key, state: &Value, watermark: Option<u64>) -> bool {
        watermark.is_some() && self.expired(state, self.close_point(watermark))
    }

    fn evict(
        &self,
        key: &Key,
        state: Value,
        watermark: Option<u64>,
        ctx: &mut ReduceCtx,
    ) -> Option<Value> {
        if self.expired(&state, self.close_point(watermark)) {
            // Complete: output directly, nothing touches disk.
            self.drain_all(key, &state, ctx);
            None
        } else {
            Some(state)
        }
    }
}

impl Job for SessionizeJob {
    fn name(&self) -> &str {
        "sessionization"
    }

    fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
        if let Some((ts, user, tail)) = parse_click(record) {
            // [ts u64][tail…] assembled on the stack. The tail is clamped
            // to what the incremental state can frame — here, once, so
            // every framework sees the same click.
            let tail = &tail[..tail.len().min(MAX_TAIL)];
            let mut value = [0u8; 8 + MAX_TAIL];
            value[..8].copy_from_slice(&ts.to_be_bytes());
            value[8..8 + tail.len()].copy_from_slice(tail);
            emit(&user.to_be_bytes(), &value[..8 + tail.len()]);
        }
    }

    fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
        // Classic semantics: full sort by timestamp, then gap splitting —
        // the oracle the incremental path is tested against.
        let mut clicks: Vec<(u64, &[u8])> =
            values.iter().map(|v| decode_click(v.bytes())).collect();
        clicks.sort_unstable();
        let mut session_start = 0u64;
        let mut last = None::<u64>;
        for (ts, tail) in clicks {
            match last {
                Some(l) if ts <= l.saturating_add(self.gap_secs) => {}
                _ => session_start = ts,
            }
            ctx.emit(key.clone(), session_output(session_start, ts, tail));
            last = Some(ts);
        }
    }

    fn incremental(&self) -> Option<&dyn IncrementalReducer> {
        Some(self)
    }

    fn expected_keys(&self) -> Option<u64> {
        Some(self.expected_users)
    }

    fn state_size_hint(&self) -> Option<u64> {
        Some(self.state_capacity as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opa_core::api::Site;

    fn click_value(ts: u64, tail: &[u8]) -> Value {
        Value::concat(&[&ts.to_be_bytes(), tail])
    }

    fn click(ts: u64) -> Value {
        click_value(ts, b"/p")
    }

    /// A state written out by hand, clicks in the order given.
    fn state_bytes(anchor: Anchor, clicks: &[(u64, &[u8])]) -> Value {
        let mut body = Vec::new();
        for (ts, tail) in clicks {
            body.extend_from_slice(&ts.to_be_bytes());
            body.push(tail.len() as u8);
            body.extend_from_slice(tail);
        }
        encode_state(anchor, clicks.len(), &body)
    }

    fn labels(pairs: &[opa_core::prelude::Pair]) -> Vec<(u64, u64)> {
        pairs
            .iter()
            .map(|p| {
                let (s, t, _) = decode_output(p.value.bytes());
                (s, t)
            })
            .collect()
    }

    #[test]
    fn state_layout_is_the_documented_one() {
        let state = state_bytes(Some((10, 40)), &[(50, b"/b"), (100, b"/a")]);
        let mut want = vec![1u8];
        want.extend_from_slice(&10u64.to_be_bytes());
        want.extend_from_slice(&40u64.to_be_bytes());
        want.extend_from_slice(&2u16.to_be_bytes());
        for (ts, tail) in [(50u64, b"/b"), (100, b"/a")] {
            want.extend_from_slice(&ts.to_be_bytes());
            want.push(2);
            want.extend_from_slice(tail);
        }
        assert_eq!(state.bytes(), &want[..]);
        let (anchor, clicks) = parse_state(state.bytes());
        assert_eq!(anchor, Some((10, 40)));
        let seen: Vec<_> = clicks.map(Click::sort_key).collect();
        assert_eq!(seen, vec![(50, &b"/b"[..]), (100, &b"/a"[..])]);
        // `init` writes the same layout for one click.
        let job = SessionizeJob::default();
        let one = job.init(&Key::from_u64(1), click_value(7, b"/x").bytes());
        assert_eq!(one, state_bytes(None, &[(7, b"/x")]));
    }

    #[test]
    fn unsorted_other_still_merges_sorted() {
        let job = SessionizeJob::default();
        let key = Key::from_u64(1);
        let mut ctx = ReduceCtx::at_site(Site::Map);
        let mut acc = state_bytes(None, &[(20, b"/a"), (40, b"/b")]);
        // Hand-built: no code in this module writes clicks out of order.
        let other = state_bytes(None, &[(50, b"/e"), (30, b"/d"), (30, b"/c"), (10, b"/f")]);
        job.cb(&key, &mut acc, other, &mut ctx);
        let want: [(u64, &[u8]); 6] = [
            (10, b"/f"),
            (20, b"/a"),
            (30, b"/c"),
            (30, b"/d"),
            (40, b"/b"),
            (50, b"/e"),
        ];
        assert_eq!(acc, state_bytes(None, &want));
    }

    #[test]
    fn force_drain_starts_one_byte_over_capacity() {
        // Two clicks with 2-byte tails encode to 19 + 2 × 11 = 41 bytes.
        let key = Key::from_u64(1);
        let run = |capacity: usize| {
            let job = SessionizeJob {
                state_capacity: capacity,
                ..SessionizeJob::default()
            };
            let mut ctx = ReduceCtx::new();
            let mut acc = job.init(&key, click(10).bytes());
            job.cb(&key, &mut acc, job.init(&key, click(20).bytes()), &mut ctx);
            (acc.len(), ctx.pending())
        };
        assert_eq!(run(41), (41, 0), "an exact fit stays buffered");
        assert_eq!(run(40), (30, 1), "one byte over drains the oldest click");
    }

    #[test]
    fn rules_saturate_at_the_end_of_time() {
        let job = SessionizeJob::default();
        let key = Key::from_u64(1);
        let late = u64::MAX - 10;
        // Expiry: `late + gap` must not wrap round to a small number and
        // pass for long expired under the end-of-input watermark.
        let state = job.init(&key, click(late).bytes());
        assert!(!job.can_evict(&key, &state, Some(u64::MAX)));
        let mut ctx = ReduceCtx::new();
        assert_eq!(
            job.evict(&key, state.clone(), Some(u64::MAX), &mut ctx),
            Some(state)
        );
        // Drain: a click within `gap` of an anchor that close to the end
        // still joins its session, under both reduce functions.
        let open = state_bytes(Some((late - 5, late)), &[(late + 5, b"/p")]);
        job.finalize(&key, open, &mut ctx);
        assert_eq!(labels(&ctx.drain()), vec![(late - 5, late + 5)]);
        job.reduce(&key, vec![click(late), click(late + 5)], &mut ctx);
        assert_eq!(labels(&ctx.drain()), vec![(late, late), (late, late + 5)]);
    }

    #[test]
    fn map_clamps_an_oversized_tail() {
        let mut record = crate::clickstream::format_click(1_000, 7, 1);
        record.resize(24 + MAX_TAIL + 46, b'y');
        let mut emitted = Vec::new();
        SessionizeJob::default().map(&record, &mut |k, v| emitted.push((k.to_vec(), v.to_vec())));
        let (key, value) = &emitted[0];
        assert_eq!(key, &7u64.to_be_bytes());
        assert_eq!(value[..8], 1_000u64.to_be_bytes());
        assert_eq!(value[8..], record[24..24 + MAX_TAIL]);
    }

    #[test]
    fn classic_reduce_splits_on_gap() {
        let job = SessionizeJob::default();
        let mut ctx = ReduceCtx::new();
        let key = Key::from_u64(7);
        job.reduce(
            &key,
            vec![click(1000), click(1100), click(2000), click(1050)],
            &mut ctx,
        );
        let out = ctx.drain();
        assert_eq!(out.len(), 4);
        let sessions = labels(&out);
        // 1000, 1050, 1100 share a session; 2000 (gap 900 > 300) starts one.
        assert_eq!(
            sessions,
            vec![(1000, 1000), (1000, 1050), (1000, 1100), (2000, 2000)]
        );
    }

    #[test]
    fn incremental_matches_classic_in_order() {
        let job = SessionizeJob::default();
        let key = Key::from_u64(1);
        // Classic.
        let mut cctx = ReduceCtx::new();
        let ts = [100u64, 160, 220, 900, 950, 2000];
        job.reduce(&key, ts.iter().map(|&t| click(t)).collect(), &mut cctx);
        let mut classic = labels(&cctx.drain());
        classic.sort_unstable();
        // Incremental with watermark advancing.
        let mut ictx = ReduceCtx::new();
        let mut acc = job.init(&key, click(ts[0]).bytes());
        for &t in &ts[1..] {
            ictx.advance_watermark(t);
            job.cb(&key, &mut acc, job.init(&key, click(t).bytes()), &mut ictx);
        }
        job.finalize(&key, acc, &mut ictx);
        let mut inc = labels(&ictx.drain());
        inc.sort_unstable();
        assert_eq!(inc, classic);
    }

    #[test]
    fn anchor_labels_tardy_click_correctly() {
        let job = SessionizeJob {
            slack_secs: 10,
            ..SessionizeJob::default()
        };
        let key = Key::from_u64(2);
        let mut ctx = ReduceCtx::new();
        let mut acc = job.init(&key, click(100).bytes());
        // Watermark at 300 (close point 290): click 100 drains, opening
        // session 100; click 400 stays buffered.
        ctx.advance_watermark(300);
        job.cb(&key, &mut acc, job.init(&key, click(400).bytes()), &mut ctx);
        let drained = ctx.drain();
        assert_eq!(drained.len(), 1, "click 100 drained, 400 buffered");
        // A tardy click at 150 still joins session 100 via the anchor.
        job.cb(&key, &mut acc, job.init(&key, click(150).bytes()), &mut ctx);
        job.finalize(&key, acc, &mut ctx);
        let rest = ctx.drain();
        let mut got = labels(&rest);
        got.sort_unstable();
        assert_eq!(got, vec![(100, 150), (100, 400)]);
    }

    #[test]
    fn capacity_overflow_force_drains_oldest() {
        let job = SessionizeJob {
            state_capacity: 60, // fits ~3 clicks of this size
            slack_secs: 1_000_000,
            ..SessionizeJob::default()
        };
        let key = Key::from_u64(3);
        let mut ctx = ReduceCtx::new();
        let mut acc = job.init(&key, click(10).bytes());
        for t in [20u64, 30, 40, 50, 60] {
            ctx.advance_watermark(t);
            job.cb(&key, &mut acc, job.init(&key, click(t).bytes()), &mut ctx);
        }
        // Watermark never clears slack, yet the buffer cannot exceed
        // capacity: some clicks must have been force-drained.
        assert!(!ctx.drain().is_empty(), "force-drain did not happen");
        assert!(acc.len() <= 60 + 30);
    }

    #[test]
    fn map_site_never_emits() {
        let job = SessionizeJob::default();
        let key = Key::from_u64(4);
        let mut ctx = ReduceCtx::at_site(Site::Map);
        ctx.advance_watermark(100_000);
        let mut acc = job.init(&key, click(10).bytes());
        job.cb(&key, &mut acc, job.init(&key, click(20).bytes()), &mut ctx);
        assert_eq!(ctx.pending(), 0);
        assert_eq!(parse_state(acc.bytes()).1.count(), 2);
    }

    #[test]
    fn eviction_rule_honours_expiry() {
        let job = SessionizeJob::default();
        let key = Key::from_u64(5);
        let state = job.init(&key, click(100).bytes());
        // Watermark close: session may still grow → veto.
        assert!(!job.can_evict(&key, &state, Some(200)));
        // No watermark at all → veto.
        assert!(!job.can_evict(&key, &state, None));
        // Watermark far past gap+slack → expired, evictable.
        assert!(job.can_evict(&key, &state, Some(100 + 300 + 240 + 2)));
        // Eviction of an expired state outputs and returns None.
        let mut ctx = ReduceCtx::new();
        let out = job.evict(&key, state, Some(100_000), &mut ctx);
        assert!(out.is_none());
        assert_eq!(ctx.pending(), 1);
        // Eviction of a live state hands it back for spilling.
        let mut ctx2 = ReduceCtx::new();
        let live = job.init(&key, click(100).bytes());
        let out2 = job.evict(&key, live.clone(), Some(150), &mut ctx2);
        assert_eq!(out2, Some(live));
        assert_eq!(ctx2.pending(), 0);
    }

    #[test]
    fn event_time_tracks_latest_click() {
        let job = SessionizeJob::default();
        let key = Key::from_u64(6);
        let mut acc = job.init(&key, click(500).bytes());
        assert_eq!(job.event_time(&acc), Some(500));
        let mut ctx = ReduceCtx::new();
        job.cb(&key, &mut acc, job.init(&key, click(300).bytes()), &mut ctx);
        assert_eq!(job.event_time(&acc), Some(500), "max, not last-merged");
    }
}
