//! The live query surface ([`BatchCtl`]) and its offline twin
//! ([`CheckpointView`]): point lookups route to the owning reducer, the
//! DINC top-k answer carries its γ coverage bound, watermarks advance,
//! and a checkpoint answers exactly what the live state answered at the
//! pause point it was taken.

use opa_common::{CombineScope, Key};
use opa_core::cluster::{ClusterSpec, Framework};
use opa_stream::{CheckpointView, StreamJobBuilder};
use opa_workloads::click_count::ClickCountJob;
use opa_workloads::clickstream::{parse_click, ClickStreamSpec};
use opa_workloads::sessionize::SessionizeJob;
use std::collections::HashMap;

fn click_job() -> ClickCountJob {
    ClickCountJob {
        expected_users: 100,
    }
}

#[test]
fn final_batch_lookups_match_the_job_output() {
    // INC-hash keeps every (small) key resident, so at the last pause
    // point — all deliveries absorbed, finish not yet run — a point
    // lookup must already return each key's final aggregate.
    let data = ClickStreamSpec::small().generate(101);
    let mut looked_up: Vec<(Key, Option<u64>)> = Vec::new();
    let outcome = StreamJobBuilder::new(click_job())
        .framework(Framework::IncHash)
        .cluster(ClusterSpec::tiny())
        .batches(4)
        .run_stream(&data, |ctl| {
            if ctl.batch() == 4 {
                looked_up = (0..100)
                    .map(Key::from_u64)
                    .map(|k| {
                        let v = ctl.lookup(&k).and_then(|v| v.as_u64());
                        (k, v)
                    })
                    .collect();
            }
        })
        .expect("stream runs");
    assert!(!looked_up.is_empty(), "final batch sealed");
    let mut hits = 0;
    for (key, live) in looked_up {
        let final_count = outcome
            .job
            .output
            .iter()
            .find(|p| p.key == key)
            .and_then(|p| p.value.as_u64());
        assert_eq!(
            live, final_count,
            "lookup({key:?}) at the last pause point must equal the final output"
        );
        hits += usize::from(live.is_some());
    }
    assert!(hits > 50, "most of the keyspace should be resident");
}

#[test]
fn lookups_grow_monotonically_across_batches() {
    // A count can only grow as batches seal: each pause point's lookup is
    // a partial aggregate over a prefix (at least) of the stream.
    let data = ClickStreamSpec::small().generate(101);
    let probe = Key::from_u64(7);
    let mut seen: Vec<u64> = Vec::new();
    StreamJobBuilder::new(click_job())
        .framework(Framework::IncHash)
        .cluster(ClusterSpec::tiny())
        .batches(5)
        .run_stream(&data, |ctl| {
            if let Some(v) = ctl.lookup(&probe).and_then(|v| v.as_u64()) {
                seen.push(v);
            }
        })
        .expect("stream runs");
    assert!(!seen.is_empty(), "probe key becomes resident");
    assert!(
        seen.windows(2).all(|w| w[0] <= w[1]),
        "partial counts must be monotone: {seen:?}"
    );
}

#[test]
fn a_seal_covers_every_record_below_its_watermark() {
    // The watermark guarantee, checked against the input itself: with all
    // state resident (nothing spills), at every seal each user's looked-up
    // count is at least its count in `records[..records_sealed]` — under
    // node scope too, where rows wait in a staging table before shipping.
    let data = ClickStreamSpec::small().generate(101);
    let user_of = |rec: &[u8]| parse_click(rec).expect("a click").1;
    for combine in [CombineScope::Task, CombineScope::Node] {
        let mut checked = 0;
        let outcome = StreamJobBuilder::new(click_job())
            .framework(Framework::IncHash)
            .cluster(ClusterSpec::tiny())
            .combine(combine)
            .batches(6)
            .run_stream(&data, |ctl| {
                let sealed = ctl.progress().records_sealed;
                let mut below: HashMap<u64, u64> = HashMap::new();
                for rec in &data.records[..sealed] {
                    *below.entry(user_of(rec)).or_default() += 1;
                }
                for (user, count) in below {
                    let live = ctl.lookup(&Key::from_u64(user)).and_then(|v| v.as_u64());
                    assert!(
                        live >= Some(count),
                        "{combine:?}, batch {}: user {user} has {count} clicks below \
                         the watermark but the live state holds {live:?}",
                        ctl.batch()
                    );
                    checked += 1;
                }
            })
            .expect("stream runs");
        assert!(checked > 0, "{combine:?}: no seal checked a key");
        let metrics = &outcome.job.metrics;
        assert_eq!(metrics.reduce_spill_bytes, 0, "{combine:?}: state spilled");
        assert_eq!(metrics.node_combine.is_some(), combine.is_node());
    }
}

#[test]
fn dinc_top_k_reports_entries_and_gamma() {
    let data = ClickStreamSpec::small().generate(101);
    let mut answer = None;
    StreamJobBuilder::new(click_job())
        .framework(Framework::DincHash)
        .cluster(ClusterSpec::tiny())
        .batches(4)
        .run_stream(&data, |ctl| {
            if ctl.batch() == 4 {
                answer = ctl.top_k(5);
            }
        })
        .expect("stream runs");
    let (entries, gamma) = answer.expect("DINC maintains a monitor");
    assert!(!entries.is_empty() && entries.len() <= 5);
    assert!(
        entries.windows(2).all(|w| w[0].count >= w[1].count),
        "top-k is sorted by estimated frequency"
    );
    assert!(
        gamma > 0.0 && gamma <= 1.0,
        "γ is a coverage fraction, got {gamma}"
    );

    // Non-DINC frameworks keep no monitor: no top-k answer.
    let mut none_answer = Some((vec![], 0.0));
    StreamJobBuilder::new(click_job())
        .framework(Framework::IncHash)
        .cluster(ClusterSpec::tiny())
        .batches(4)
        .run_stream(&data, |ctl| {
            if ctl.batch() == 4 {
                none_answer = ctl.top_k(5);
            }
        })
        .expect("stream runs");
    assert!(none_answer.is_none(), "INC-hash keeps no frequency monitor");
}

#[test]
fn checkpoint_view_answers_what_the_live_state_answered() {
    // Take a checkpoint at batch 2 and replay the same queries offline:
    // lookups, top-k (entries, counts and γ) and the watermark must all
    // agree with what `BatchCtl` said at that pause point.
    let data = ClickStreamSpec::small().generate(101);
    let dir = std::env::temp_dir().join("opa-stream-query-parity");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ck = dir.join("b2.opac");
    let ckp = ck.clone();
    let probes: Vec<Key> = (0..20).map(Key::from_u64).collect();
    let mut live_lookups: Vec<Option<u64>> = Vec::new();
    let mut live_top = None;
    let mut live_progress = None;
    StreamJobBuilder::new(click_job())
        .framework(Framework::DincHash)
        .cluster(ClusterSpec::tiny())
        .batches(4)
        .run_stream(&data, |ctl| {
            if ctl.batch() == 2 {
                live_lookups = probes
                    .iter()
                    .map(|k| ctl.lookup(k).and_then(|v| v.as_u64()))
                    .collect();
                live_top = ctl.top_k(5);
                live_progress = Some(ctl.progress());
                ctl.checkpoint(ckp.clone());
            }
        })
        .expect("stream runs");

    let view = CheckpointView::open(&ck).expect("view opens");
    for (key, live) in probes.iter().zip(&live_lookups) {
        let offline = view.lookup(key).and_then(|v| v.as_u64());
        assert_eq!(&offline, live, "lookup({key:?}) parity");
    }
    let (live_entries, live_gamma) = live_top.expect("live top-k");
    let (off_entries, off_gamma) = view.top_k(5).expect("offline top-k");
    assert_eq!(live_entries.len(), off_entries.len(), "top-k length parity");
    for (l, o) in live_entries.iter().zip(&off_entries) {
        assert_eq!(l.key, o.key, "top-k key parity");
        assert_eq!(l.count, o.count, "top-k count parity");
    }
    assert!(
        (live_gamma - off_gamma).abs() < 1e-9,
        "γ parity: live {live_gamma} vs offline {off_gamma}"
    );
    let live_p = live_progress.expect("live progress");
    let off_p = view.progress();
    assert_eq!(off_p.batches_sealed, live_p.batches_sealed);
    assert_eq!(off_p.batches, live_p.batches);
    assert_eq!(off_p.records_sealed, live_p.records_sealed);
    assert_eq!(off_p.total_records, live_p.total_records);
    assert_eq!(off_p.maps_completed, live_p.maps_completed);
    assert_eq!(off_p.maps_total, live_p.maps_total);
    assert_eq!(off_p.watermark, live_p.watermark);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn watermarks_advance_with_the_stream() {
    // Sessionization extracts event times, so each pause point reports
    // the highest click timestamp absorbed — a nondecreasing watermark.
    let data = ClickStreamSpec::small().generate(33);
    let job = SessionizeJob {
        gap_secs: 300,
        slack_secs: 400,
        state_capacity: 16384,
        charge_fixed_footprint: false,
        expected_users: 100,
    };
    let mut wms: Vec<Option<u64>> = Vec::new();
    StreamJobBuilder::new(job)
        .framework(Framework::IncHash)
        .cluster(ClusterSpec::tiny())
        .batches(5)
        .run_stream(&data, |ctl| wms.push(ctl.progress().watermark))
        .expect("stream runs");
    assert_eq!(wms.len(), 5);
    assert!(
        wms.iter().any(Option::is_some),
        "event-time watermark surfaces"
    );
    let present: Vec<u64> = wms.iter().filter_map(|w| *w).collect();
    assert!(
        present.windows(2).all(|w| w[0] <= w[1]),
        "watermark never regresses: {wms:?}"
    );
}
