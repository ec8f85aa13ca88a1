//! End-to-end chains for the three dataflow workloads: PageRank rounds
//! (full-shuffle case), 2-round distinct sessions (mid-chain re-key),
//! and the top-k-pages join (partition-stable skip over a dataset
//! union). Each chain is verified against an independent, directly
//! computed answer and for bit-identity across thread counts.

use opa_common::decode_kv;
use opa_common::fault::FaultConfig;
use opa_core::cluster::{ClusterSpec, Framework};
use opa_core::dataflow::{Dataflow, Dataset, Handoff};
use opa_core::job::JobBuilder;
use opa_workloads::clickstream::{parse_click, ClickStreamSpec};
use opa_workloads::distinct_sessions::{SessionCountJob, SessionMarkJob};
use opa_workloads::page_freq::PageFreqJob;
use opa_workloads::pagerank::{decode_node, PageRankInitJob, PageRankRoundJob, SCALE};
use opa_workloads::top_pages::{PageSessionsJob, TopKFunnelJob, TopPagesJoinJob};
use std::collections::{BTreeMap, BTreeSet};

fn clicks() -> (opa_core::job::JobInput, Vec<Vec<u8>>) {
    let input = ClickStreamSpec::small().generate(41);
    let records: Vec<Vec<u8>> = input.records.iter().map(|r| r.to_vec()).collect();
    (input, records)
}

#[test]
fn pagerank_chain_reshuffles_every_round_and_is_thread_stable() {
    let (input, _) = clicks();
    let run = |threads: usize| {
        let mut chain = Dataflow::new(ClusterSpec::tiny()).then(PageRankInitJob, Framework::MrHash);
        for _ in 0..3 {
            chain = chain.then(PageRankRoundJob, Framework::MrHash);
        }
        chain.threads(threads).run(&input).expect("pagerank chain")
    };
    let base = run(1);
    assert_eq!(base.stages.len(), 4);
    for round in &base.stages[1..] {
        assert_eq!(
            round.handoff,
            Handoff::Reshuffled,
            "a scatter round can never skip its shuffle"
        );
    }
    // Every node keeps a positive rank, and rank mass stays within the
    // damped fixed-point envelope (no node can fall below 1 − d).
    let pairs = base.sorted_output();
    assert!(!pairs.is_empty());
    for p in &pairs {
        let (rank, _) = decode_node(p.value.bytes()).expect("node record");
        assert!(rank >= SCALE - 850_000, "rank below the (1 − d) floor");
    }
    // Bit-identical at any thread count.
    for threads in [2, 4] {
        assert_eq!(run(threads).sorted_output(), pairs);
    }
}

#[test]
fn a_poisoned_chain_keeps_every_stage_dead_letter_queue() {
    let (input, _) = clicks();
    let faults = FaultConfig::poison(7, 0.01);
    let out = Dataflow::new(ClusterSpec::tiny())
        .then(PageRankInitJob, Framework::MrHash)
        .then(PageRankRoundJob, Framework::MrHash)
        .faults(faults)
        .run(&input)
        .expect("poisoned chain");
    for (i, stage) in out.stages.iter().enumerate() {
        let report = stage.metrics.faults.as_ref().expect("a fault report");
        assert!(!stage.dlq.is_empty(), "stage {i} quarantined nothing");
        assert_eq!(stage.dlq.len() as u64, report.udf_poisoned, "stage {i}");
        for rec in &stage.dlq {
            assert!(
                faults.poisons(rec.offset),
                "stage {i}: offset {}",
                rec.offset
            );
        }
    }
}

#[test]
fn distinct_sessions_chain_matches_direct_count() {
    let (input, records) = clicks();
    let window = SessionMarkJob::default().window_secs;

    // Independent answer: distinct (user, window) pairs per user.
    let mut expect: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for rec in &records {
        let (ts, user, _) = parse_click(rec).expect("well-formed click");
        expect.entry(user).or_default().insert(ts / window);
    }

    let out = Dataflow::new(ClusterSpec::tiny())
        .then(SessionMarkJob::default(), Framework::IncHash)
        .then(SessionCountJob::default(), Framework::MrHash)
        .threads(4)
        .run(&input)
        .expect("distinct-sessions chain");
    assert_eq!(
        out.stages[1].handoff,
        Handoff::Reshuffled,
        "round 2 re-keys by user: a legitimate reshuffle"
    );
    let got: BTreeMap<u64, u64> = out
        .sorted_output()
        .into_iter()
        .map(|p| {
            let user: u64 = std::str::from_utf8(p.key.bytes())
                .expect("utf8 user key")
                .parse()
                .expect("numeric user key");
            (user, p.value.as_u64().expect("count"))
        })
        .collect();
    assert_eq!(got.len(), expect.len());
    for (user, windows) in expect {
        assert_eq!(got[&user], windows.len() as u64, "user {user}");
    }
}

#[test]
fn top_pages_join_skips_the_shuffle_over_a_union() {
    let (input, records) = clicks();
    let spec = ClusterSpec::tiny();

    // Two producer jobs over the same cluster: plain visit counts and
    // tagged distinct-visitor counts, both keyed by URL.
    let freq = JobBuilder::new(PageFreqJob::default())
        .framework(Framework::IncHash)
        .cluster(spec)
        .run(&input)
        .expect("page_freq");
    let sessions = JobBuilder::new(PageSessionsJob::default())
        .framework(Framework::MrHash)
        .cluster(spec)
        .run(&input)
        .expect("page_sessions");
    let union = Dataset::union(&freq.dataset(&spec), &sessions.dataset(&spec))
        .expect("same partition function on both sides");

    let out = Dataflow::new(spec)
        .then(TopPagesJoinJob, Framework::MrHash)
        .then(TopKFunnelJob { k: 5 }, Framework::SortMerge)
        .threads(2)
        .run_from(&union)
        .expect("top-pages chain");
    let join = &out.stages[0];
    assert_eq!(join.handoff, Handoff::InMemory, "identity join must skip");
    assert_eq!(join.metrics.map_output_bytes, 0, "zero shuffle bytes");
    assert!(join.bytes_saved > 0);
    assert_eq!(out.stages[1].handoff, Handoff::Reshuffled, "funnel re-keys");

    // Independent answer: visits + distinct visitors per URL, top 5 by
    // (score desc, url asc).
    let mut visits: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    let mut users: BTreeMap<Vec<u8>, BTreeSet<u64>> = BTreeMap::new();
    for rec in &records {
        let (_, user, tail) = parse_click(rec).expect("well-formed click");
        let url = tail.split(|&b| b == b' ').next().unwrap_or(tail).to_vec();
        *visits.entry(url.clone()).or_default() += 1;
        users.entry(url).or_default().insert(user);
    }
    let mut rows: Vec<(u64, Vec<u8>)> = visits
        .iter()
        .map(|(url, v)| (v + users[url].len() as u64, url.clone()))
        .collect();
    rows.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    rows.truncate(5);

    let got: Vec<(u64, Vec<u8>)> = {
        let mut g: Vec<(u64, Vec<u8>)> = out
            .sorted_output()
            .iter()
            .map(|p| (p.value.as_u64().expect("score"), p.key.bytes().to_vec()))
            .collect();
        g.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        g
    };
    assert_eq!(got, rows);
}

/// The framed handoff representation is what the chained map consumes —
/// sanity-check it against the workloads' own parsers.
#[test]
fn framed_records_roundtrip_through_a_dataset() {
    let (input, _) = clicks();
    let spec = ClusterSpec::tiny();
    let freq = JobBuilder::new(PageFreqJob::default())
        .framework(Framework::MrHash)
        .cluster(spec)
        .run(&input)
        .expect("page_freq");
    let ds = freq.dataset(&spec);
    let reread = ds.to_input();
    let mut n = 0usize;
    for rec in &reread.records {
        let (k, v) = decode_kv(rec).expect("framed record");
        assert!(k.starts_with(b"/"), "URL key");
        assert_eq!(v.len(), 8, "u64 count value");
        n += 1;
    }
    assert_eq!(n, ds.len());
}
