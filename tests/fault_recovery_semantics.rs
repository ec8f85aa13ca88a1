//! The precise output contract of fault recovery, pinned per fault class
//! on the paper's own workloads:
//!
//! - **Reduce-crash recovery moves no pair.** Re-replaying a reducer's
//!   `Effect` mailbox only re-charges time and I/O. When every reducer
//!   runs in one wave, the output is bit-identical to the fault-free run
//!   for *every* job, including order-sensitive ones. When reducers run
//!   in two waves, it is the same multiset, not always in the same order:
//!   the re-charged disk I/O (and a first-wave finish the crash delays)
//!   changes when a second-wave reducer's map outputs come off the
//!   mappers' disks, so it receives them in another order, and MR-, INC-
//!   and DINC-hash emit in an order that follows delivery. Sort-merge
//!   sorts before it reduces, so its output holds.
//! - **Map retries, stragglers and spill-disk retries shift delivery
//!   order** (all three delay a map task's completion, spill errors via
//!   its spill ops). For order-independent reductions (all the
//!   count-style workloads) the output is still bit-identical.
//!   Sessionization emits early output from a slack-bounded reorder
//!   buffer, so a delivery delayed past the slack may re-anchor a
//!   session label — exactly like a re-executed map task in real Hadoop.
//!   The click multiset must survive unchanged, and the blocking
//!   sort-merge baseline stays bit-identical regardless.

use opa::common::fault::FaultConfig;
use opa::core::prelude::*;
use opa::workloads::clickstream::{parse_click, ClickStreamSpec};
use opa::workloads::sessionize::decode_output;
use opa::workloads::{ClickCountJob, SessionizeJob};

const SEED: u64 = 9;
const RATE: f64 = 0.15;

fn time_only_faults() -> [FaultConfig; 1] {
    [FaultConfig {
        seed: SEED,
        reduce_failure_rate: RATE,
        ..FaultConfig::disabled()
    }]
}

fn reordering_faults() -> [FaultConfig; 3] {
    [
        FaultConfig {
            seed: SEED,
            map_failure_rate: RATE,
            ..FaultConfig::disabled()
        },
        FaultConfig {
            seed: SEED,
            straggler_rate: RATE,
            ..FaultConfig::disabled()
        },
        FaultConfig {
            seed: SEED,
            spill_error_rate: RATE,
            ..FaultConfig::disabled()
        },
    ]
}

fn sessionize_job() -> SessionizeJob {
    SessionizeJob {
        gap_secs: 300,
        slack_secs: 400,
        state_capacity: 16384,
        charge_fixed_footprint: false,
        expected_users: 1000,
    }
}

fn run(
    job: impl Job + Clone + 'static,
    fw: Framework,
    cfg: Option<FaultConfig>,
    input: &JobInput,
) -> JobOutcome {
    let mut b = JobBuilder::new(job)
        .framework(fw)
        .cluster(ClusterSpec::paper_scaled());
    if let Some(c) = cfg {
        b = b.faults(c);
    }
    b.run(input).expect("job runs")
}

#[test]
fn time_only_recovery_is_output_transparent_even_for_order_sensitive_jobs() {
    let input = ClickStreamSpec::paper_scaled(1_500_000).generate(7);
    for fw in [Framework::IncHash, Framework::DincHash] {
        // The paper cluster runs every reducer in one wave, so the
        // emission order holds too, not only the multiset.
        let clean = run(sessionize_job(), fw, None, &input).output;
        for cfg in time_only_faults() {
            let faulted = run(sessionize_job(), fw, Some(cfg), &input);
            let rep = faulted.metrics.faults.as_ref().expect("report");
            assert!(rep.any_fired(), "{fw:?}: no fault fired at rate {RATE}");
            assert_eq!(
                faulted.output, clean,
                "{fw:?}: time-only recovery must never change output"
            );
        }
    }
}

#[test]
fn recovered_reduce_replays_do_not_double_count_first_pass_io() {
    // Reduce-crash recovery re-replays the crashed reducer's effect
    // mailbox, re-charging its I/O into `JobMetrics::io` (the devices
    // really served it twice). That re-done share must land in
    // `io_recovery` so `io_first_pass()` — the quantity the §3 model
    // predicts and the drift checker treats as authoritative — matches
    // the fault-free run exactly, per category, byte for byte.
    let input = ClickStreamSpec::counting_scaled(1_500_000).generate(8);
    let job = ClickCountJob {
        expected_users: 1000,
    };
    for fw in [Framework::SortMerge, Framework::IncHash] {
        let clean = run(job.clone(), fw, None, &input);
        assert_eq!(
            clean.metrics.io_recovery.total_bytes() + clean.metrics.io_recovery.total_seeks(),
            0,
            "{fw:?}: a fault-free run must charge no recovery I/O"
        );
        for cfg in time_only_faults() {
            let faulted = run(job.clone(), fw, Some(cfg), &input);
            let rep = faulted.metrics.faults.as_ref().expect("report");
            assert!(rep.reduce_failures > 0, "{fw:?}: no crash fired at {RATE}");
            assert_eq!(
                faulted.metrics.io_first_pass(),
                clean.metrics.io,
                "{fw:?}: first-pass I/O must equal the fault-free run's"
            );
            assert_eq!(
                faulted.metrics.io.total_bytes(),
                clean.metrics.io.total_bytes() + faulted.metrics.io_recovery.total_bytes(),
                "{fw:?}: io must decompose as first-pass + recovery"
            );
        }
    }
}

#[test]
fn delivery_reordering_preserves_count_outputs_exactly() {
    let input = ClickStreamSpec::counting_scaled(1_500_000).generate(8);
    let job = ClickCountJob {
        expected_users: 1000,
    };
    for fw in [
        Framework::SortMerge,
        Framework::IncHash,
        Framework::DincHash,
    ] {
        let clean = run(job.clone(), fw, None, &input).sorted_output();
        for cfg in reordering_faults() {
            let faulted = run(job.clone(), fw, Some(cfg), &input);
            assert!(faulted.metrics.faults.as_ref().expect("report").any_fired());
            assert_eq!(
                faulted.sorted_output(),
                clean,
                "{fw:?}: order-independent reduction must be fault-transparent"
            );
        }
    }
}

#[test]
fn delivery_reordering_preserves_the_click_multiset_under_sessionization() {
    // Map retries delay deliveries past the reorder slack, so session
    // labels may re-anchor — but every click must appear exactly once,
    // and the blocking sort-merge baseline (which reduces only after the
    // full group-by) must stay bit-identical.
    let input = ClickStreamSpec::paper_scaled(1_500_000).generate(7);
    let in_clicks = {
        let mut v: Vec<(u64, u64)> = input
            .records
            .iter()
            .map(|r| {
                let (ts, user, _) = parse_click(r).unwrap();
                (user, ts)
            })
            .collect();
        v.sort_unstable();
        v
    };
    let sm_clean = run(sessionize_job(), Framework::SortMerge, None, &input).sorted_output();
    for cfg in reordering_faults() {
        for fw in [
            Framework::SortMerge,
            Framework::IncHash,
            Framework::DincHash,
        ] {
            let faulted = run(sessionize_job(), fw, Some(cfg), &input);
            let mut out_clicks: Vec<(u64, u64)> = faulted
                .output
                .iter()
                .map(|p| {
                    let (_, ts, _) = decode_output(p.value.bytes());
                    (p.key.as_u64().unwrap(), ts)
                })
                .collect();
            out_clicks.sort_unstable();
            assert_eq!(
                out_clicks, in_clicks,
                "{fw:?}: a click was lost or duplicated during recovery"
            );
        }
        let sm_faulted = run(sessionize_job(), Framework::SortMerge, Some(cfg), &input);
        assert_eq!(
            sm_faulted.sorted_output(),
            sm_clean,
            "sort-merge reduces after the full group-by; reordering must not matter"
        );
    }
}
