//! Property-based tests of the incremental workload semantics: for
//! arbitrary click sequences and arbitrary bounded-disorder arrival
//! orders, the incremental `init/cb/fn` paths must agree with the classic
//! reduce oracle — and sessionization's byte-level state plane must agree,
//! byte for byte, with the struct-based implementation it replaced. Every
//! workload combiner keeps the combiner law.

#[path = "support/session_oracle.rs"]
mod session_oracle;

use opa_common::rng::SplitMix64;
use opa_core::api::{IncrementalReducer, Job, ReduceCtx, Site};
use opa_core::prelude::{Key, Value};
use opa_workloads::clickstream::{format_click, parse_click};
use opa_workloads::sessionize::{decode_output, SessionizeJob};
use opa_workloads::windowed_count::decode_window_output;
use opa_workloads::WindowedCountJob;
use opa_workloads::{ClickCountJob, FrequentUsersJob, PageFreqJob, TrigramCountJob};
use opa_workloads::{SessionCountJob, SessionMarkJob};
use proptest::prelude::*;
use session_oracle::{OracleSessionize, SessionState};
use std::collections::BTreeMap;

/// Generates (sorted timestamps, arrival permutation with bounded
/// displacement, the displacement bound).
fn disordered_stream() -> impl Strategy<Value = (Vec<u64>, Vec<usize>, u64)> {
    (
        proptest::collection::vec(0u64..2000, 1..60),
        proptest::collection::vec(0usize..8, 1..60),
    )
        .prop_map(|(mut ts, jitter)| {
            ts.sort_unstable();
            let n = ts.len();
            // Arrival order: sort indices by (ts + jitter displacement).
            let mut order: Vec<usize> = (0..n).collect();
            let perturbed: Vec<u64> = ts
                .iter()
                .enumerate()
                .map(|(i, &t)| t + jitter[i % jitter.len()] as u64 * 10)
                .collect();
            order.sort_by_key(|&i| (perturbed[i], i));
            // The effective disorder bound in seconds.
            let bound = 80u64;
            (ts, order, bound)
        })
}

/// A map-output click value: `[ts u64][tail…]`.
fn raw_click(ts: u64, tail: &[u8]) -> Value {
    Value::concat(&[&ts.to_be_bytes(), tail])
}

fn click_value(ts: u64) -> Value {
    raw_click(ts, b"/p")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sessionization: streaming a single key's clicks in any
    /// bounded-disorder order through init/cb/fn, with the watermark
    /// advancing along arrivals and slack ≥ the disorder bound, yields
    /// exactly the classic labels.
    #[test]
    fn sessionize_incremental_equals_classic((ts, order, bound) in disordered_stream()) {
        let job = SessionizeJob {
            gap_secs: 300,
            slack_secs: bound + 1,
            state_capacity: 64 * 1024,
            charge_fixed_footprint: false,
            expected_users: 1,
        };
        let key = Key::from_u64(1);

        // Classic oracle.
        let mut octx = ReduceCtx::new();
        job.reduce(&key, ts.iter().map(|&t| click_value(t)).collect(), &mut octx);
        let mut oracle: Vec<(u64, u64)> = octx
            .drain()
            .iter()
            .map(|p| {
                let (s, t, _) = decode_output(p.value.bytes());
                (s, t)
            })
            .collect();
        oracle.sort_unstable();

        // Incremental path in arrival order.
        let mut ctx = ReduceCtx::new();
        let mut acc: Option<Value> = None;
        for &i in &order {
            let t = ts[i];
            ctx.advance_watermark(t);
            let s = job.init(&key, click_value(t).bytes());
            match acc.as_mut() {
                None => acc = Some(s),
                Some(a) => job.cb(&key, a, s, &mut ctx),
            }
        }
        if let Some(a) = acc {
            job.finalize(&key, a, &mut ctx);
        }
        let mut got: Vec<(u64, u64)> = ctx
            .drain()
            .iter()
            .map(|p| {
                let (s, t, _) = decode_output(p.value.bytes());
                (s, t)
            })
            .collect();
        got.sort_unstable();
        prop_assert_eq!(got, oracle);
    }

    /// Windowed counting: per-window sums are exact for ANY arrival order
    /// and ANY slack, because emissions are additive.
    #[test]
    fn windowed_sums_always_exact(
        (ts, order, _bound) in disordered_stream(),
        slack in 0u64..500,
        window in 50u64..400,
    ) {
        let job = WindowedCountJob {
            window_secs: window,
            slack_secs: slack,
            expected_users: 1,
        };
        let key = Key::from_u64(9);
        let mut truth: BTreeMap<u32, u64> = BTreeMap::new();
        for &t in &ts {
            *truth.entry((t / window) as u32).or_default() += 1;
        }
        let mut ctx = ReduceCtx::new();
        let mut acc: Option<Value> = None;
        for &i in &order {
            let t = ts[i];
            ctx.advance_watermark(t);
            let s = job.init(&key, &t.to_be_bytes());
            match acc.as_mut() {
                None => acc = Some(s),
                Some(a) => job.cb(&key, a, s, &mut ctx),
            }
        }
        if let Some(a) = acc {
            job.finalize(&key, a, &mut ctx);
        }
        let mut got: BTreeMap<u32, u64> = BTreeMap::new();
        for p in ctx.drain() {
            let (w, c) = decode_window_output(p.value.bytes());
            *got.entry(w).or_default() += c;
        }
        prop_assert_eq!(got, truth);
    }

    /// Frequent-user thresholding: exactly one emission iff the total
    /// crosses the threshold, under arbitrary split of the count into
    /// state merges.
    #[test]
    fn threshold_emits_exactly_once(
        splits in proptest::collection::vec(1u64..20, 1..30),
        threshold in 1u64..120,
    ) {
        let job = FrequentUsersJob {
            threshold,
            expected_users: 1,
        };
        let key = Key::from_u64(5);
        let total: u64 = splits.iter().sum();
        let mut ctx = ReduceCtx::new();
        let mut acc: Option<Value> = None;
        for &c in &splits {
            let s = job.init(&key, &c.to_be_bytes());
            match acc.as_mut() {
                None => acc = Some(s),
                Some(a) => job.cb(&key, a, s, &mut ctx),
            }
        }
        if let Some(a) = acc {
            job.finalize(&key, a, &mut ctx);
        }
        let emitted = ctx.drain();
        if total >= threshold {
            prop_assert_eq!(emitted.len(), 1, "total {} threshold {}", total, threshold);
        } else {
            prop_assert!(emitted.is_empty());
        }
    }
}

// ---------------------------------------------------------------------
// Click records: digit fields parsed from bytes vs `str::parse`
// ---------------------------------------------------------------------

/// `parse_click` as it was written before the fields were parsed from the
/// bytes: `from_utf8` + `str::parse::<u64>` on each.
fn parse_click_via_str(s: &[u8]) -> Option<(u64, u64, &[u8])> {
    if s.len() < 24 || &s[..2] != b"t=" {
        return None;
    }
    let ts = std::str::from_utf8(&s[2..12]).ok()?.parse().ok()?;
    if &s[12..15] != b" u=" {
        return None;
    }
    let user = std::str::from_utf8(&s[15..23]).ok()?.parse().ok()?;
    Some((ts, user, &s[24..]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Over arbitrary records of 24 bytes and more — a well-formed click
    /// with up to six bytes overwritten from an alphabet of digits, signs,
    /// blanks, the separators and non-UTF-8 bytes, or wholly arbitrary
    /// bytes — the byte-level parser accepts exactly what `str::parse`
    /// accepted, with the same fields.
    #[test]
    fn parse_click_accepts_what_str_parse_accepted(
        ts in 0u64..10_000_000_000,
        user in 0u64..100_000_000,
        edits in proptest::collection::vec((0usize..26, 0usize..12), 0..7),
        noise in proptest::collection::vec(any::<u8>(), 24..60),
        use_noise in 0u8..4,
    ) {
        const ALPHABET: [u8; 12] = *b"+-09 5=tu.\xFF\xC3";
        let mut rec = format_click(ts, user, 7);
        for (at, c) in edits {
            rec[at] = ALPHABET[c];
        }
        let rec = if use_noise == 0 { noise } else { rec };
        prop_assert_eq!(parse_click(&rec), parse_click_via_str(&rec));
    }
}

#[test]
fn parse_click_sign_and_blank_cases() {
    // The accept set's edges, spelled out: a leading `+` parses, a lone or
    // doubled sign, a `-`, a blank and an interior `+` do not.
    let with_ts = |field: &[u8; 10]| {
        let mut rec = format_click(0, 42, 7);
        rec[2..12].copy_from_slice(field);
        rec
    };
    for (field, want) in [
        (b"+000000017", Some(17)),
        (b"0000000017", Some(17)),
        (b"++00000017", None),
        (b"-000000017", None),
        (b" 000000017", None),
        (b"00000+0017", None),
        (b"000000017 ", None),
    ] {
        let rec = with_ts(field);
        assert_eq!(parse_click(&rec).map(|c| c.0), want, "{field:?}");
        assert_eq!(parse_click(&rec), parse_click_via_str(&rec), "{field:?}");
    }
}

// ---------------------------------------------------------------------
// Sessionization: byte-level state plane vs the struct-based oracle
// ---------------------------------------------------------------------

const CAPACITIES: [usize; 3] = [64, 512, 2048];

/// A click `(ts, tail)`: timestamps from a narrow range so duplicates —
/// and hits on the gap, anchor and close-point boundaries — are common; tails of 0..=255 bytes over a four-letter alphabet, one in four
/// of them at most two bytes long, so equal timestamps tie-break on the
/// tail and whole records repeat.
fn click() -> impl Strategy<Value = (u64, Vec<u8>)> {
    (
        0u64..300,
        0usize..4,
        proptest::collection::vec(0u8..4, 0..256),
    )
        .prop_map(|(ts, class, mut tail)| {
            if class == 0 {
                tail.truncate(tail.len() % 3);
            }
            (ts, tail)
        })
}

/// A watermark step: mostly small advances, sometimes none, sometimes the
/// end-of-input jump to `u64::MAX`.
fn watermark() -> impl Strategy<Value = Option<u64>> {
    (0u8..10, 0u64..500).prop_map(|(kind, w)| match kind {
        0 => None,
        1 => Some(u64::MAX),
        _ => Some(w),
    })
}

/// Any well-formed state: optional anchor, clicks in arbitrary (not
/// necessarily sorted) order.
fn state() -> impl Strategy<Value = SessionState> {
    (
        any::<bool>(),
        0u64..300,
        0u64..80,
        proptest::collection::vec(click(), 0..12),
    )
        .prop_map(|(anchored, start, span, clicks)| SessionState {
            anchor: anchored.then_some((start, start + span)),
            clicks,
        })
}

fn pair(capacity: usize, gap_secs: u64, slack_secs: u64) -> (SessionizeJob, OracleSessionize) {
    let job = SessionizeJob {
        gap_secs,
        slack_secs,
        state_capacity: capacity,
        ..SessionizeJob::default()
    };
    let oracle = OracleSessionize {
        gap_secs: job.gap_secs,
        slack_secs,
        state_capacity: capacity,
    };
    (job, oracle)
}

/// Asserts that the read-only hooks, `evict` and `finalize` agree on one
/// state.
fn check_hooks(
    job: &SessionizeJob,
    oracle: &OracleSessionize,
    key: &Key,
    state: &Value,
    probe: Option<u64>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(job.event_time(state), oracle.event_time(state));
    prop_assert_eq!(
        job.can_evict(key, state, probe),
        oracle.can_evict(key, state, probe)
    );
    let (mut ctx, mut octx) = (ReduceCtx::new(), ReduceCtx::new());
    prop_assert_eq!(
        job.evict(key, state.clone(), probe, &mut ctx),
        oracle.evict(key, state.clone(), probe, &mut octx)
    );
    prop_assert_eq!(ctx.drain(), octx.drain());
    job.finalize(key, state.clone(), &mut ctx);
    oracle.finalize(key, state.clone(), &mut octx);
    prop_assert_eq!(ctx.drain(), octx.drain());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// A click run fed through `init`/`cb` in groups (so `other` holds
    /// several clicks, pre-merged at the map site), with the watermark
    /// moving arbitrarily: identical state bytes and identical emissions,
    /// in order, after every step, at both sites and all capacities.
    #[test]
    fn sessionize_bytes_match_oracle_over_click_runs(
        groups in proptest::collection::vec(
            (proptest::collection::vec(click(), 1..5), watermark(), watermark()),
            1..24,
        ),
        capacity in 0usize..3,
        gap_secs in 0u64..60,
        slack_secs in 0u64..100,
        at_reduce in any::<bool>(),
    ) {
        let (job, oracle) = pair(CAPACITIES[capacity], gap_secs, slack_secs);
        let key = Key::from_u64(3);
        let site = if at_reduce { Site::Reduce } else { Site::Map };
        let (mut ctx, mut octx) = (ReduceCtx::at_site(site), ReduceCtx::at_site(site));
        let mut acc: Option<Value> = None;
        for (clicks, advance, probe) in &groups {
            // `other`: the group collapsed map-side, by both implementations.
            let (mut mctx, mut moctx) = (ReduceCtx::at_site(Site::Map), ReduceCtx::at_site(Site::Map));
            let mut other: Option<(Value, Value)> = None;
            for (ts, tail) in clicks {
                let s = job.init(&key, raw_click(*ts, tail).bytes());
                let o = oracle.init(&key, raw_click(*ts, tail).bytes());
                prop_assert_eq!(&s, &o);
                match other.as_mut() {
                    None => other = Some((s, o)),
                    Some((a, b)) => {
                        job.cb(&key, a, s, &mut mctx);
                        oracle.cb(&key, b, o, &mut moctx);
                    }
                }
            }
            let (other, oracle_other) = other.expect("groups are non-empty");
            prop_assert_eq!(&other, &oracle_other);
            prop_assert_eq!(mctx.pending() + moctx.pending(), 0, "map site never emits");

            if let Some(w) = advance {
                ctx.advance_watermark(*w);
                octx.advance_watermark(*w);
            }
            let merged = match acc.take() {
                None => other,
                Some(state) => {
                    let (mut a, mut b) = (state.clone(), state);
                    job.cb(&key, &mut a, other, &mut ctx);
                    oracle.cb(&key, &mut b, oracle_other, &mut octx);
                    prop_assert_eq!(&a, &b);
                    prop_assert_eq!(ctx.drain(), octx.drain());
                    a
                }
            };
            check_hooks(&job, &oracle, &key, &merged, *probe)?;
            acc = Some(merged);
        }
    }

    /// Any two well-formed states — anchored or not, sorted or not — merge,
    /// drain, evict and finalize identically.
    #[test]
    fn sessionize_bytes_match_oracle_on_arbitrary_states(
        acc in state(),
        mut other in state(),
        tie_anchors in any::<bool>(),
        wm in watermark(),
        probe in watermark(),
        capacity in 0usize..3,
        gap_secs in 0u64..60,
        slack_secs in 0u64..100,
        at_reduce in any::<bool>(),
    ) {
        let (job, oracle) = pair(CAPACITIES[capacity], gap_secs, slack_secs);
        let key = Key::from_u64(4);
        let site = if at_reduce { Site::Reduce } else { Site::Map };
        let (mut ctx, mut octx) = (ReduceCtx::at_site(site), ReduceCtx::at_site(site));
        ctx.watermark = wm;
        octx.watermark = wm;
        // Anchors that drained up to the same instant: the tie rule decides.
        if let (true, Some((_, last)), Some((start, _))) = (tie_anchors, acc.anchor, other.anchor) {
            other.anchor = Some((start.min(last), last));
        }
        let (acc, other) = (acc.encode(), other.encode());
        check_hooks(&job, &oracle, &key, &acc, probe)?;
        let (mut a, mut b) = (acc.clone(), acc);
        job.cb(&key, &mut a, other.clone(), &mut ctx);
        oracle.cb(&key, &mut b, other, &mut octx);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(ctx.drain(), octx.drain());
        prop_assert_eq!(SessionState::decode(a.bytes()).encode(), a.clone());
        check_hooks(&job, &oracle, &key, &a, probe)?;
    }
}

/// The combiner law every combine site relies on, for each workload
/// combiner over seeded lists of 1–64 counts: folding in a shuffled order
/// gives the arrival-order fold, and `reduce` over the one folded value
/// emits exactly what it emits over the values (sort-merge reduces
/// combined runs, MR-hash its folded rows).
#[test]
fn workload_combiners_keep_the_combiner_law() {
    let jobs: [&dyn Job; 6] = [
        &ClickCountJob::default(),
        &PageFreqJob::default(),
        &TrigramCountJob::default(),
        &FrequentUsersJob::default(),
        &SessionMarkJob::default(),
        &SessionCountJob::default(),
    ];
    let mut rng = SplitMix64::new(0xF01D);
    for job in jobs {
        let cb = job.combiner().expect("a workload combiner");
        for case in 0..256 {
            let key = Key::from_u64(case);
            let values: Vec<Value> = (0..1 + rng.next_below(64))
                .map(|_| Value::from_u64(1 + rng.next_below(64)))
                .collect();
            let mut shuffled = values.clone();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.next_below(i as u64 + 1) as usize);
            }
            let fold = |values: &[Value]| {
                let mut acc = values[0].clone();
                for v in &values[1..] {
                    cb.fold(&key, &mut acc, v.clone());
                }
                acc
            };
            let reduce = |values: Vec<Value>| {
                let mut ctx = ReduceCtx::new();
                job.reduce(&key, values, &mut ctx);
                ctx.drain()
            };
            let folded = fold(&values);
            let name = job.name();
            assert_eq!(fold(&shuffled), folded, "{name}: fold order, case {case}");
            assert_eq!(
                reduce(vec![folded]),
                reduce(values),
                "{name}: reduce, case {case}"
            );
        }
    }
}
