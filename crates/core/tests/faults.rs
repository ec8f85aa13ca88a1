//! Fault-injection semantics, one fault class at a time: each class must
//! fire (at the configured rate, on this input, it always does), must be
//! fully recovered from — output bit-identical to the fault-free run —
//! and must surface its cost in `JobMetrics::faults`.

mod common;

use common::{seeded_input, spec, WordCount};
use opa_common::fault::{FaultConfig, FaultKind};
use opa_core::cluster::Framework;
use opa_core::job::{JobBuilder, JobInput, JobOutcome};

fn run_with(faults: FaultConfig, framework: Framework, input: &JobInput) -> JobOutcome {
    JobBuilder::new(WordCount)
        .framework(framework)
        .cluster(spec())
        .faults(faults)
        .run(input)
        .expect("job survives injected faults")
}

fn baseline(framework: Framework, input: &JobInput) -> JobOutcome {
    JobBuilder::new(WordCount)
        .framework(framework)
        .cluster(spec())
        .run(input)
        .expect("fault-free job runs")
}

/// Asserts the faulted run recovered completely: same output multiset as
/// the fault-free run (canonically sorted — fault-induced timing shifts
/// may reorder deliveries, never change content).
fn assert_recovered(faulted: &JobOutcome, clean: &JobOutcome, what: &str) {
    assert_eq!(
        faulted.sorted_output(),
        clean.sorted_output(),
        "{what}: output diverged from the fault-free run"
    );
    assert!(
        faulted.metrics.running_time >= clean.metrics.running_time,
        "{what}: recovery cannot make the job faster ({} < {})",
        faulted.metrics.running_time,
        clean.metrics.running_time
    );
}

#[test]
fn no_faults_means_no_report() {
    let input = seeded_input(0xFA01, 600);
    let out = baseline(Framework::IncHash, &input);
    assert!(out.metrics.faults.is_none());

    // An explicitly disabled config is equally inert.
    let out2 = run_with(FaultConfig::disabled(), Framework::IncHash, &input);
    assert!(out2.metrics.faults.is_none());
    assert_eq!(format!("{out:?}"), format!("{out2:?}"));
}

#[test]
fn map_failures_are_retried_and_recovered() {
    let input = seeded_input(0xFA02, 800);
    let clean = baseline(Framework::IncHash, &input);
    let cfg = FaultConfig {
        seed: 7,
        map_failure_rate: 0.3,
        ..FaultConfig::disabled()
    };
    let out = run_with(cfg, Framework::IncHash, &input);
    let rep = out.metrics.faults.as_ref().expect("report present");
    assert!(rep.map_failures > 0, "no map failures fired at rate 0.3");
    assert_eq!(rep.map_failures, rep.map_retries);
    assert!(rep.wasted_cpu.0 > 0, "aborted attempts burn CPU");
    assert!(rep.recovery_time.0 > 0, "retry backoff costs virtual time");
    assert!(rep.trace.iter().all(|e| e.kind == FaultKind::MapFailure));
    assert_recovered(&out, &clean, "map failures");
}

#[test]
fn stragglers_are_speculatively_reexecuted() {
    let input = seeded_input(0xFA03, 800);
    let clean = baseline(Framework::MrHash, &input);
    let cfg = FaultConfig {
        seed: 11,
        straggler_rate: 0.3,
        straggler_factor: 4.0,
        ..FaultConfig::disabled()
    };
    let out = run_with(cfg, Framework::MrHash, &input);
    let rep = out.metrics.faults.as_ref().expect("report present");
    assert!(rep.stragglers > 0, "no stragglers fired at rate 0.3");
    assert_eq!(rep.stragglers, rep.speculative_wins);
    assert!(rep.wasted_cpu.0 > 0, "slow attempts burn (scaled) CPU");
    assert!(rep.trace.iter().all(|e| e.kind == FaultKind::Straggler));
    assert_recovered(&out, &clean, "stragglers");
}

#[test]
fn reduce_crashes_replay_from_effect_mailboxes() {
    let input = seeded_input(0xFA04, 800);
    let clean = baseline(Framework::SortMerge, &input);
    let cfg = FaultConfig {
        seed: 13,
        reduce_failure_rate: 0.4,
        ..FaultConfig::disabled()
    };
    let out = run_with(cfg, Framework::SortMerge, &input);
    let rep = out.metrics.faults.as_ref().expect("report present");
    assert!(
        rep.reduce_failures > 0,
        "no reduce crashes fired at rate 0.4"
    );
    assert!(rep.recovery_time.0 > 0, "re-replay costs virtual time");
    assert!(rep.trace.iter().all(|e| e.kind == FaultKind::ReduceFailure));
    assert_recovered(&out, &clean, "reduce crashes");
}

#[test]
fn spill_io_errors_are_retried_in_place() {
    let input = seeded_input(0xFA05, 800);
    // Sort-merge spills the most — plenty of I/O ops to poison.
    let clean = baseline(Framework::SortMerge, &input);
    let cfg = FaultConfig {
        seed: 17,
        spill_error_rate: 0.2,
        ..FaultConfig::disabled()
    };
    let out = run_with(cfg, Framework::SortMerge, &input);
    let rep = out.metrics.faults.as_ref().expect("report present");
    assert!(rep.spill_io_errors > 0, "no spill errors fired at rate 0.2");
    assert!(rep.wasted_bytes > 0, "failed writes waste bytes");
    assert!(rep.trace.iter().all(|e| e.kind == FaultKind::SpillError));
    assert_recovered(&out, &clean, "spill I/O errors");
}

#[test]
fn high_rates_terminate_via_bounded_retry() {
    // Near-certain failure on every decision: the run must still
    // terminate (attempt ≥ max_retries forces success) and still produce
    // the fault-free output.
    let input = seeded_input(0xFA06, 600);
    let clean = baseline(Framework::IncHash, &input);
    let cfg = FaultConfig {
        seed: 19,
        max_retries: 2,
        ..FaultConfig::uniform(19, 0.95)
    };
    let out = run_with(cfg, Framework::IncHash, &input);
    let rep = out.metrics.faults.as_ref().expect("report present");
    assert!(rep.any_fired());
    assert!(rep.total_retries() > 0);
    assert_recovered(&out, &clean, "high-rate sweep");
}

#[test]
fn same_seed_reproduces_identical_trace() {
    let input = seeded_input(0xFA07, 800);
    let cfg = FaultConfig::uniform(23, 0.2);
    let a = run_with(cfg, Framework::DincHash, &input);
    let b = run_with(cfg, Framework::DincHash, &input);
    // The whole outcome — trace, metrics, output, progress — is
    // bit-identical; Debug covers every field.
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert!(a.metrics.faults.as_ref().unwrap().any_fired());

    // A different seed draws a different failure trace.
    let c = run_with(FaultConfig::uniform(24, 0.2), Framework::DincHash, &input);
    assert_ne!(
        a.metrics.faults.as_ref().unwrap().trace,
        c.metrics.faults.as_ref().unwrap().trace,
        "distinct seeds should produce distinct traces at rate 0.2"
    );
    // ... but never a different answer.
    assert_eq!(a.sorted_output(), c.sorted_output());
}

#[test]
fn trace_is_sorted_canonically() {
    let input = seeded_input(0xFA08, 800);
    let out = run_with(FaultConfig::uniform(29, 0.25), Framework::SortMerge, &input);
    let rep = out.metrics.faults.as_ref().expect("report present");
    assert!(rep.any_fired());
    let mut sorted = rep.clone();
    sorted.sort_trace();
    assert_eq!(
        rep.trace, sorted.trace,
        "trace must arrive canonically sorted"
    );
}

#[test]
fn invalid_configs_are_rejected() {
    let input = seeded_input(0xFA09, 100);
    for bad in [
        FaultConfig {
            map_failure_rate: 1.0, // rate 1.0 would defeat per-attempt sampling
            ..FaultConfig::disabled()
        },
        FaultConfig {
            straggler_rate: 0.1,
            straggler_factor: 0.5,
            ..FaultConfig::disabled()
        },
        FaultConfig {
            spill_error_rate: 0.1,
            max_retries: 0,
            ..FaultConfig::disabled()
        },
        FaultConfig {
            reduce_failure_rate: f64::NAN,
            ..FaultConfig::disabled()
        },
    ] {
        let res = JobBuilder::new(WordCount)
            .framework(Framework::IncHash)
            .cluster(spec())
            .faults(bad)
            .run(&input);
        assert!(res.is_err(), "config should be rejected: {bad:?}");
    }
}

/// Input records are views into shared 64 KB blocks, so a quarantined
/// record must be a copy: a dead-letter entry that outlives the input pins
/// its own few bytes, never the block it was read from.
#[test]
fn quarantined_records_do_not_pin_input_blocks() {
    let input = seeded_input(0xFA0A, 600);
    let originals: Vec<Vec<u8>> = input.records.iter().map(|r| r.to_vec()).collect();
    // Every address an input block occupies, recorded before the drop.
    let held: Vec<std::ops::Range<usize>> = input
        .records
        .iter()
        .map(|r| r.as_ptr() as usize..r.as_ptr() as usize + r.len())
        .collect();
    // The highest poison rate the fault config admits.
    let out = run_with(FaultConfig::poison(3, 0.99), Framework::IncHash, &input);
    drop(input);
    assert!(
        out.dlq.len() > 500,
        "poison at 0.99 quarantined {}",
        out.dlq.len()
    );
    for entry in &out.dlq {
        assert_eq!(entry.record[..], originals[entry.offset as usize][..]);
        let at = entry.record.as_ptr() as usize;
        assert!(
            !held.iter().any(|block| block.contains(&at)),
            "DLQ entry at offset {} is a view into the input",
            entry.offset
        );
    }
}
