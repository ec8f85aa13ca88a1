//! Synthetic WorldCup'98-style click stream.
//!
//! The paper's click workloads rely on three properties of the real log,
//! all reproduced here and all tunable:
//!
//! 1. **user skew** — a Zipf distribution assigns sessions to users, so a
//!    few hot users contribute many clicks (what DINC-hash exploits);
//! 2. **temporal session structure** — a user's clicks arrive in bursts
//!    separated by > 5 minutes of inactivity (what sessionization splits);
//! 3. **bounded disorder** — the stream is sorted by a timestamp perturbed
//!    by at most `disorder_secs`, so a click appears at most that far from
//!    its in-order position (what makes online sessionization possible
//!    with a fixed reorder buffer).
//!
//! Records are fixed-width text lines (~96 bytes, like the WorldCup log's
//! compact records):
//!
//! ```text
//! t=0000012345 u=00001234 /en/page01234.html xxxxxxxx…
//! ```

use crate::zipf::Zipf;
use opa_common::rng::SplitMix64;
use opa_core::job::JobInput;

/// Fixed serialized record width in bytes.
pub const RECORD_WIDTH: usize = 96;

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct ClickStreamSpec {
    /// Approximate total size of the generated log in bytes.
    pub target_bytes: u64,
    /// Size of the user pool.
    pub users: usize,
    /// Zipf exponent of user popularity (0 = uniform).
    pub zipf_exponent: f64,
    /// Mean clicks per session.
    pub mean_session_clicks: u32,
    /// Uniform intra-session click gap range, seconds (keep max < 300).
    pub click_gap_secs: (u64, u64),
    /// Concurrently active sessions (controls distinct users per chunk).
    pub concurrency: usize,
    /// Maximum timestamp perturbation when ordering the stream, seconds.
    pub disorder_secs: u64,
}

impl ClickStreamSpec {
    /// A tiny stream for unit tests: ~2000 clicks over 100 users.
    pub fn small() -> Self {
        ClickStreamSpec {
            target_bytes: 2000 * RECORD_WIDTH as u64,
            users: 100,
            zipf_exponent: 1.1,
            mean_session_clicks: 8,
            click_gap_secs: (5, 40),
            concurrency: 12,
            disorder_secs: 30,
        }
    }

    /// A paper-scale stream (1/1024 of 256 GB by default) tuned for the
    /// *sessionization* regime of §6.1–6.2: the distinct session states
    /// exceed the scaled reduce memory (so INC-hash spills and the state
    /// size matters — Table 4), while high concurrency keeps each chunk's
    /// event-time span small enough that the bounded-disorder reorder
    /// buffers work.
    pub fn paper_scaled(target_bytes: u64) -> Self {
        let clicks = target_bytes / RECORD_WIDTH as u64;
        ClickStreamSpec {
            target_bytes,
            users: (clicks / 6).max(1000) as usize,
            zipf_exponent: 0.95,
            mean_session_clicks: 10,
            click_gap_secs: (5, 35),
            concurrency: 2000,
            disorder_secs: 60,
        }
    }

    /// A paper-scale stream tuned for the *counting* workloads (user click
    /// counting, frequent users, page frequency): few concurrently active
    /// users and long per-user histories, so map-side combining collapses
    /// each chunk dramatically (the Table 1 regime where 256 GB of input
    /// becomes 2.6 GB of map output) and the whole key-state space fits in
    /// reduce memory.
    pub fn counting_scaled(target_bytes: u64) -> Self {
        let clicks = target_bytes / RECORD_WIDTH as u64;
        ClickStreamSpec {
            target_bytes,
            users: (clicks / 140).max(100) as usize,
            zipf_exponent: 1.05,
            mean_session_clicks: 14,
            click_gap_secs: (5, 35),
            concurrency: 30,
            disorder_secs: 60,
        }
    }

    /// Number of clicks this spec will generate.
    pub fn num_clicks(&self) -> u64 {
        self.target_bytes / RECORD_WIDTH as u64
    }

    /// Generates the log deterministically from `seed`.
    pub fn generate(&self, seed: u64) -> JobInput {
        self.generate_with_stats(seed).0
    }

    /// Like [`ClickStreamSpec::generate`], also reporting stream statistics
    /// (used to size reducer hints honestly: the Zipf sampler touches far
    /// fewer users than the pool holds).
    pub fn generate_with_stats(&self, seed: u64) -> (JobInput, StreamStats) {
        let total_clicks = self.num_clicks();
        let mut rng = SplitMix64::new(seed);
        let zipf = Zipf::new(self.users, self.zipf_exponent);

        // Session starts are staggered so ~`concurrency` sessions overlap:
        // the global click rate is concurrency / mean_gap, so one session's
        // clicks finish in mean_clicks·mean_gap seconds while
        // concurrency·mean_clicks clicks pass globally.
        let mean_gap = (self.click_gap_secs.0 + self.click_gap_secs.1) / 2;
        // Millisecond resolution: at high concurrency the spacing between
        // session starts is well below one second.
        let spacing_ms = (self.mean_session_clicks as u64 * mean_gap * 1000
            / self.concurrency.max(1) as u64)
            .max(1);

        // The record handles are the one large allocation here that outlives
        // this function, so they are asked for first, before the scratch
        // vectors below split up whatever free heap an earlier input left
        // behind.
        let mut input = JobInput::builder();
        input.reserve(total_clicks as usize);
        let pages = Zipf::new(10_000, 1.3);
        let mut events: Vec<(u64, u64, u32)> = Vec::with_capacity(total_clicks as usize);
        let mut session_start_ms = 0u64;
        let mut emitted = 0u64;
        while emitted < total_clicks {
            let user = zipf.sample(&mut rng) as u64;
            // Geometric-ish session length around the mean, at least 1.
            let len = 1 + rng.next_below(2 * self.mean_session_clicks as u64);
            let mut ts = (session_start_ms + rng.next_below(spacing_ms)) / 1000;
            for _ in 0..len {
                if emitted >= total_clicks {
                    break;
                }
                let page = pages.sample(&mut rng) as u32;
                events.push((ts, user, page));
                emitted += 1;
                let (lo, hi) = self.click_gap_secs;
                ts += lo + rng.next_below((hi - lo).max(1));
            }
            session_start_ms += spacing_ms;
        }

        // Bounded disorder: order by a perturbed timestamp.
        let disorder = self.disorder_secs;
        let mut keyed: Vec<(u64, usize)> = events
            .iter()
            .enumerate()
            .map(|(i, &(ts, _, _))| (ts + rng.next_below(disorder.max(1)), i))
            .collect();
        keyed.sort_unstable();

        let mut users = std::collections::HashSet::new();
        let mut max_ts = 0u64;
        for &(_, i) in &keyed {
            let (ts, user, page) = events[i];
            users.insert(user);
            max_ts = max_ts.max(ts);
            input.push_with(|block| write_click(block, ts, user, page));
        }
        let stats = StreamStats {
            distinct_users: users.len() as u64,
            span_secs: max_ts,
        };
        (input.finish(), stats)
    }
}

/// Statistics of one generated stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Users that actually appear in the stream (≤ the pool size).
    pub distinct_users: u64,
    /// Event-time span of the stream in seconds.
    pub span_secs: u64,
}

/// Appends one click record at the fixed [`RECORD_WIDTH`] to `buf`.
pub fn write_click(buf: &mut Vec<u8>, ts: u64, user: u64, page: u32) {
    let end = buf.len() + RECORD_WIDTH;
    buf.extend_from_slice(b"t=");
    push_decimal(buf, ts, 10);
    buf.extend_from_slice(b" u=");
    push_decimal(buf, user, 8);
    buf.extend_from_slice(b" /en/page");
    push_decimal(buf, u64::from(page), 5);
    buf.extend_from_slice(b".html ");
    buf.resize(end, b'x');
}

/// Formats one click record at the fixed [`RECORD_WIDTH`].
pub fn format_click(ts: u64, user: u64, page: u32) -> Vec<u8> {
    let mut line = Vec::with_capacity(RECORD_WIDTH);
    write_click(&mut line, ts, user, page);
    line
}

/// Appends `n` in decimal, zero-padded on the left to at least `width`
/// (≤ 20) digits: `format!("{n:0width$}")` without the `String`.
pub(crate) fn push_decimal(buf: &mut Vec<u8>, mut n: u64, width: usize) {
    let mut digits = [b'0'; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[at.min(digits.len() - width)..]);
}

/// Parses a click record into (timestamp, user id, url-and-padding tail).
/// Returns `None` for malformed records.
pub fn parse_click(rec: &[u8]) -> Option<(u64, u64, &[u8])> {
    let s = rec;
    if s.len() < 24 || &s[..2] != b"t=" {
        return None;
    }
    let ts = parse_digits(&s[2..12])?;
    if &s[12..15] != b" u=" {
        return None;
    }
    let user = parse_digits(&s[15..23])?;
    Some((ts, user, &s[24..]))
}

/// Reads a fixed-width decimal field straight from its bytes, accepting
/// exactly what `str::parse::<u64>` accepts: one optional leading `+`, then
/// one or more ASCII digits. The record's fields are at most ten bytes
/// wide, so the value cannot overflow.
fn parse_digits(field: &[u8]) -> Option<u64> {
    let digits = field.strip_prefix(b"+").unwrap_or(field);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |n, &b| {
        let d = b.wrapping_sub(b'0');
        (d <= 9).then(|| n * 10 + u64::from(d))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn written_fields_match_format() {
        // The byte-level writers against the `format!` spelling they
        // replaced, including values wider than their field.
        let values = [0, 7, 99_999, 100_000, 12_345_678, 123_456_789_012, u64::MAX];
        for n in values {
            for width in [1, 5, 8, 10, 20] {
                let mut buf = b"x".to_vec();
                push_decimal(&mut buf, n, width);
                assert_eq!(buf, format!("x{n:0width$}").into_bytes());
            }
            let (ts, user, page) = (n, n / 3, (n % 200_000) as u32);
            let mut line = format!("t={ts:010} u={user:08} /en/page{page:05}.html ");
            while line.len() < RECORD_WIDTH {
                line.push('x');
            }
            line.truncate(RECORD_WIDTH);
            assert_eq!(format_click(ts, user, page), line.into_bytes());
        }
    }

    #[test]
    fn generates_target_size() {
        let spec = ClickStreamSpec::small();
        let input = spec.generate(1);
        assert_eq!(input.len() as u64, spec.num_clicks());
        assert_eq!(input.total_bytes(), spec.target_bytes);
    }

    #[test]
    fn records_parse_back() {
        let input = ClickStreamSpec::small().generate(2);
        for rec in &input.records {
            let (ts, user, tail) = parse_click(rec).expect("well-formed record");
            assert!(user < 100);
            assert!(ts < 10_000_000_000);
            assert!(tail.starts_with(b"/en/page"));
        }
    }

    #[test]
    fn disorder_is_bounded() {
        let spec = ClickStreamSpec::small();
        let input = spec.generate(3);
        let ts: Vec<u64> = input
            .records
            .iter()
            .map(|r| parse_click(r).unwrap().0)
            .collect();
        // Every record's timestamp is within disorder_secs of the running
        // maximum (bounded disorder definition).
        let mut max_seen = 0u64;
        for &t in &ts {
            assert!(
                t + spec.disorder_secs >= max_seen,
                "displacement beyond bound: t={t}, max={max_seen}"
            );
            max_seen = max_seen.max(t);
        }
    }

    #[test]
    fn user_popularity_is_skewed() {
        let input = ClickStreamSpec::small().generate(4);
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for rec in &input.records {
            let (_, user, _) = parse_click(rec).unwrap();
            *counts.entry(user).or_default() += 1;
        }
        let mut freqs: Vec<u64> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = freqs.iter().sum();
        let top5: u64 = freqs.iter().take(5).sum();
        assert!(
            top5 as f64 / total as f64 > 0.25,
            "top-5 users only {}%",
            100 * top5 / total
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = ClickStreamSpec::small().generate(7);
        let b = ClickStreamSpec::small().generate(7);
        assert_eq!(a.records, b.records);
        let c = ClickStreamSpec::small().generate(8);
        assert_ne!(a.records, c.records);
    }

    #[test]
    fn sessions_have_five_minute_structure() {
        // Within one user's click sequence, intra-session gaps stay below
        // 300 s and session boundaries exceed it for at least some users.
        let input = ClickStreamSpec::small().generate(5);
        let mut per_user: HashMap<u64, Vec<u64>> = HashMap::new();
        for rec in &input.records {
            let (ts, user, _) = parse_click(rec).unwrap();
            per_user.entry(user).or_default().push(ts);
        }
        let mut some_boundary = false;
        for ts in per_user.values_mut() {
            ts.sort_unstable();
            for w in ts.windows(2) {
                if w[1] - w[0] > 300 {
                    some_boundary = true;
                }
            }
        }
        assert!(some_boundary, "no user ever had a session boundary");
    }
}
