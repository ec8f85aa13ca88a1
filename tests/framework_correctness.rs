//! End-to-end correctness: every reduce-side framework must produce the
//! same answers as a straight single-threaded oracle, across all five
//! workloads, on a spill-happy tiny cluster.

use opa::core::prelude::*;
use opa::workloads::clickstream::{parse_click, ClickStreamSpec};
use opa::workloads::documents::DocumentSpec;
use opa::workloads::sessionize::decode_output;
use opa::workloads::{
    ClickCountJob, FrequentUsersJob, PageFreqJob, SessionizeJob, TrigramCountJob,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Frameworks applicable to every job (incremental ones need init/cb/fn,
/// which all our workloads implement).
const ALL: [Framework; 5] = [
    Framework::SortMerge,
    Framework::SortMergePipelined,
    Framework::MrHash,
    Framework::IncHash,
    Framework::DincHash,
];

fn run(job: impl Job + Clone + 'static, framework: Framework, input: &JobInput) -> JobOutcome {
    JobBuilder::new(job)
        .framework(framework)
        .cluster(ClusterSpec::tiny())
        .run(input)
        .expect("job runs")
}

// ---------------------------------------------------------------- counts

fn oracle_user_counts(input: &JobInput) -> BTreeMap<u64, u64> {
    let mut m = BTreeMap::new();
    for rec in &input.records {
        let (_, user, _) = parse_click(rec).unwrap();
        *m.entry(user).or_default() += 1;
    }
    m
}

fn outcome_counts(outcome: &JobOutcome) -> BTreeMap<u64, u64> {
    outcome
        .output
        .iter()
        .map(|p| (p.key.as_u64().unwrap(), p.value.as_u64().unwrap()))
        .collect()
}

#[test]
fn click_count_exact_across_all_frameworks() {
    let input = ClickStreamSpec::small().generate(11);
    let oracle = oracle_user_counts(&input);
    for fw in ALL {
        let outcome = run(
            ClickCountJob {
                expected_users: 100,
            },
            fw,
            &input,
        );
        assert_eq!(
            outcome_counts(&outcome),
            oracle,
            "framework {fw:?} diverged from oracle"
        );
    }
}

#[test]
fn frequent_users_membership_exact() {
    let input = ClickStreamSpec::small().generate(12);
    let threshold = 20;
    let oracle: BTreeSet<u64> = oracle_user_counts(&input)
        .into_iter()
        .filter(|&(_, c)| c >= threshold)
        .map(|(u, _)| u)
        .collect();
    assert!(!oracle.is_empty(), "test needs some frequent users");
    for fw in ALL {
        let outcome = run(
            FrequentUsersJob {
                threshold,
                expected_users: 100,
            },
            fw,
            &input,
        );
        let got: BTreeSet<u64> = outcome
            .output
            .iter()
            .map(|p| p.key.as_u64().unwrap())
            .collect();
        assert_eq!(got, oracle, "framework {fw:?} membership diverged");
    }
}

#[test]
fn page_freq_exact_across_all_frameworks() {
    let input = ClickStreamSpec::small().generate(13);
    let mut oracle: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    for rec in &input.records {
        let (_, _, tail) = parse_click(rec).unwrap();
        let url = tail.split(|&b| b == b' ').next().unwrap();
        *oracle.entry(url.to_vec()).or_default() += 1;
    }
    for fw in ALL {
        let outcome = run(
            PageFreqJob {
                expected_pages: 1000,
            },
            fw,
            &input,
        );
        let got: BTreeMap<Vec<u8>, u64> = outcome
            .output
            .iter()
            .map(|p| (p.key.bytes().to_vec(), p.value.as_u64().unwrap()))
            .collect();
        assert_eq!(got, oracle, "framework {fw:?} diverged");
    }
}

#[test]
fn trigram_count_exact_across_all_frameworks() {
    let input = DocumentSpec::small().generate(14);
    let threshold = 10;
    let mut counts: HashMap<Vec<u8>, u64> = HashMap::new();
    for rec in &input.records {
        let words: Vec<&[u8]> = rec.split(|&b| b == b' ').collect();
        for w in words.windows(3) {
            let mut key = w[0].to_vec();
            key.push(b' ');
            key.extend_from_slice(w[1]);
            key.push(b' ');
            key.extend_from_slice(w[2]);
            *counts.entry(key).or_default() += 1;
        }
    }
    let oracle: BTreeSet<Vec<u8>> = counts
        .iter()
        .filter(|&(_, &c)| c >= threshold)
        .map(|(k, _)| k.clone())
        .collect();
    assert!(!oracle.is_empty(), "test needs frequent trigrams");
    for fw in ALL {
        let outcome = run(
            TrigramCountJob {
                threshold,
                expected_trigrams: 10_000,
            },
            fw,
            &input,
        );
        let got: BTreeSet<Vec<u8>> = outcome
            .output
            .iter()
            .map(|p| p.key.bytes().to_vec())
            .collect();
        assert_eq!(got, oracle, "framework {fw:?} membership diverged");
    }
}

// ---------------------------------------------------------- sessionization

/// Oracle: (user, session_start, ts) triples from a full in-order pass.
fn oracle_sessions(input: &JobInput, gap: u64) -> BTreeSet<(u64, u64, u64)> {
    let mut per_user: HashMap<u64, Vec<u64>> = HashMap::new();
    for rec in &input.records {
        let (ts, user, _) = parse_click(rec).unwrap();
        per_user.entry(user).or_default().push(ts);
    }
    let mut out = BTreeSet::new();
    for (user, mut ts) in per_user {
        ts.sort_unstable();
        let mut start = 0;
        let mut last = None::<u64>;
        for t in ts {
            match last {
                Some(l) if t <= l + gap => {}
                _ => start = t,
            }
            out.insert((user, start, t));
            last = Some(t);
        }
    }
    out
}

fn outcome_sessions(outcome: &JobOutcome) -> Vec<(u64, u64, u64)> {
    outcome
        .output
        .iter()
        .map(|p| {
            let (s, t, _) = decode_output(p.value.bytes());
            (p.key.as_u64().unwrap(), s, t)
        })
        .collect()
}

fn sessionize_job() -> SessionizeJob {
    SessionizeJob {
        gap_secs: 300,
        slack_secs: 400,
        state_capacity: 16384,
        charge_fixed_footprint: false,
        expected_users: 100,
    }
}

#[test]
fn sessionization_exact_for_exact_frameworks() {
    let input = ClickStreamSpec::small().generate(15);
    let oracle = oracle_sessions(&input, 300);
    for fw in [
        Framework::SortMerge,
        Framework::SortMergePipelined,
        Framework::MrHash,
        Framework::IncHash,
    ] {
        let outcome = run(sessionize_job(), fw, &input);
        let got = outcome_sessions(&outcome);
        assert_eq!(got.len(), input.len(), "{fw:?}: click count mismatch");
        let got_set: BTreeSet<_> = got.into_iter().collect();
        assert_eq!(got_set, oracle, "{fw:?}: session labels diverged");
    }
}

#[test]
fn sessionization_dinc_preserves_clicks_and_session_shape() {
    let input = ClickStreamSpec::small().generate(16);
    let outcome = run(sessionize_job(), Framework::DincHash, &input);
    let got = outcome_sessions(&outcome);
    // Invariant 1: every click appears exactly once.
    assert_eq!(got.len(), input.len());
    let mut in_clicks: Vec<(u64, u64)> = input
        .records
        .iter()
        .map(|r| {
            let (ts, user, _) = parse_click(r).unwrap();
            (user, ts)
        })
        .collect();
    let mut out_clicks: Vec<(u64, u64)> = got.iter().map(|&(u, _, t)| (u, t)).collect();
    in_clicks.sort_unstable();
    out_clicks.sort_unstable();
    assert_eq!(in_clicks, out_clicks, "click multiset must be preserved");
    // Invariant 2: session labels are internally consistent — a session's
    // start equals its earliest click and no intra-session gap exceeds
    // 300 s.
    let mut sessions: HashMap<(u64, u64), Vec<u64>> = HashMap::new();
    for (u, s, t) in got {
        sessions.entry((u, s)).or_default().push(t);
    }
    for ((_, start), mut ts) in sessions {
        ts.sort_unstable();
        // A DINC session label is one of the session's click timestamps
        // (exact runs pin it to the earliest; respill paths may anchor on
        // a later click).
        assert!(
            ts[0] <= start && start <= *ts.last().unwrap(),
            "session label {start} outside click range {:?}",
            (ts[0], ts.last())
        );
        for w in ts.windows(2) {
            assert!(w[1] - w[0] <= 300, "intra-session gap exceeds 300");
        }
    }
    // Invariant 3: DINC is near-exact — ≥ 95% of clicks carry the oracle
    // session label on this workload.
    let oracle = oracle_sessions(&input, 300);
    let outcome2 = run(sessionize_job(), Framework::DincHash, &input);
    let matching = outcome_sessions(&outcome2)
        .into_iter()
        .filter(|x| oracle.contains(x))
        .count();
    let frac = matching as f64 / input.len() as f64;
    assert!(
        frac >= 0.95,
        "only {frac:.3} of session labels match oracle"
    );
}

/// A click whose tail exceeds what a state record can frame (255 bytes) is
/// clamped once, in `map`, so sort-merge, INC-hash and DINC-hash output
/// the same bytes for it: 16 + 255, not 16 + (301 mod 256) under the
/// incremental frameworks and 16 + 301 under sort-merge.
#[test]
fn sessionization_agrees_on_a_long_tail_record() {
    use opa::workloads::clickstream::format_click;
    let mut records: Vec<Vec<u8>> = (0..40u64)
        .map(|i| format_click(1_000 + 30 * i, 1 + i % 3, i as u32))
        .collect();
    records[17].resize(24 + 301, b'z');
    let input = JobInput::from_records(records);
    let sorted_output = |fw| {
        let mut out: Vec<(Vec<u8>, Vec<u8>)> = run(sessionize_job(), fw, &input)
            .output
            .iter()
            .map(|p| (p.key.bytes().to_vec(), p.value.bytes().to_vec()))
            .collect();
        out.sort();
        out
    };
    let want = sorted_output(Framework::SortMerge);
    assert_eq!(want.len(), 40);
    let longest = want.iter().map(|(_, v)| v.len()).max().unwrap();
    assert_eq!(longest, 16 + 255, "the long tail is clamped, not wrapped");
    for fw in [Framework::IncHash, Framework::DincHash] {
        assert_eq!(sorted_output(fw), want, "{fw:?} diverged from sort-merge");
    }
}

// -------------------------------------------------------------- plumbing

#[test]
fn metrics_account_io_conservation() {
    let input = ClickStreamSpec::small().generate(17);
    for fw in ALL {
        let outcome = run(
            ClickCountJob {
                expected_users: 100,
            },
            fw,
            &input,
        );
        let m = &outcome.metrics;
        assert_eq!(m.input_bytes, input.total_bytes());
        assert!(m.map_output_bytes > 0);
        assert!(m.running_time >= m.map_finish);
        assert_eq!(
            m.output_records as usize,
            outcome.output.len(),
            "{fw:?}: output record accounting"
        );
    }
}

#[test]
fn incremental_framework_requires_incremental_job() {
    // A job with no IncrementalReducer must be rejected by INC/DINC.
    #[derive(Clone)]
    struct Plain;
    impl Job for Plain {
        fn name(&self) -> &str {
            "plain"
        }
        fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
            emit(record, &1u64.to_be_bytes());
        }
        fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
            ctx.emit(key.clone(), Value::from_u64(values.len() as u64));
        }
    }
    let input = JobInput::from_records(vec![b"a".to_vec(), b"b".to_vec()]);
    for fw in [Framework::IncHash, Framework::DincHash] {
        let res = JobBuilder::new(Plain)
            .framework(fw)
            .cluster(ClusterSpec::tiny())
            .run(&input);
        assert!(res.is_err(), "{fw:?} must reject non-incremental jobs");
    }
    // But the classic frameworks accept it.
    assert!(JobBuilder::new(Plain)
        .framework(Framework::SortMerge)
        .cluster(ClusterSpec::tiny())
        .run(&input)
        .is_ok());
}

#[test]
fn empty_input_rejected() {
    let res = JobBuilder::new(ClickCountJob::default())
        .cluster(ClusterSpec::tiny())
        .run(&JobInput::default());
    assert!(res.is_err());
}

#[test]
fn runs_are_deterministic() {
    let input = ClickStreamSpec::small().generate(18);
    for fw in ALL {
        let a = run(sessionize_job(), fw, &input);
        let b = run(sessionize_job(), fw, &input);
        assert_eq!(
            a.metrics.running_time, b.metrics.running_time,
            "{fw:?}: nondeterministic running time"
        );
        assert_eq!(
            a.sorted_output(),
            b.sorted_output(),
            "{fw:?}: nondeterministic output"
        );
        assert_eq!(
            a.metrics.reduce_spill_bytes, b.metrics.reduce_spill_bytes,
            "{fw:?}: nondeterministic spill accounting"
        );
    }
}

#[test]
fn windowed_count_sums_exact_across_all_frameworks() {
    use opa::workloads::windowed_count::decode_window_output;
    use opa::workloads::WindowedCountJob;
    let input = ClickStreamSpec::small().generate(19);
    // Oracle: clicks per (user, 100 s window).
    let mut oracle: BTreeMap<(u64, u32), u64> = BTreeMap::new();
    for rec in &input.records {
        let (ts, user, _) = parse_click(rec).unwrap();
        *oracle.entry((user, (ts / 100) as u32)).or_default() += 1;
    }
    for fw in ALL {
        let outcome = run(
            WindowedCountJob {
                window_secs: 100,
                slack_secs: 400,
                expected_users: 100,
            },
            fw,
            &input,
        );
        // Counts are additive, so summing emissions per (user, window)
        // must reproduce the oracle exactly — even under DINC's
        // eviction-driven emission splits.
        let mut got: BTreeMap<(u64, u32), u64> = BTreeMap::new();
        for p in &outcome.output {
            let (w, c) = decode_window_output(p.value.bytes());
            *got.entry((p.key.as_u64().unwrap(), w)).or_default() += c;
        }
        assert_eq!(got, oracle, "framework {fw:?} diverged");
    }
}
