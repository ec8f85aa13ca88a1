//! The engine's determinism contract: a job's `JobOutcome` is
//! bit-identical at any execution-layer thread count. The scheduling
//! layer replays recorded effects in event order, so worker threads may
//! only change wall-clock time — never metrics, output, progress curves,
//! timelines or disk-queue interactions. Each test is a view of the
//! option-space generator (`option_space/mod.rs`): the batch cells its
//! name is about, each run at 1 thread and at 2, 4 or 8 and checked
//! against the oracle and the books as every cell is.

mod option_space;

use opa_core::cluster::Framework;
use option_space::{run_batch_cells, Cluster, Faults};

/// Default options, every framework, on the paper cluster.
#[test]
fn outcome_is_bit_identical_across_thread_counts() {
    run_batch_cells(|c| c.is_plain() && c.cluster == Cluster::Paper);
}

/// Pipelined sort-merge with snapshots at 25, 50 and 75 % map progress.
#[test]
fn pipelined_snapshots_are_bit_identical_across_thread_counts() {
    run_batch_cells(|c| c.framework == Framework::SortMergePipelined && c.snapshots)
        .require("snapshot");
}

/// Two reducers per reduce slot, no faults: a second wave re-reads map
/// output.
#[test]
fn two_wave_jobs_are_bit_identical_across_thread_counts() {
    run_batch_cells(|c| c.cluster == Cluster::TwoWave && c.faults == Faults::None)
        .require("second-wave");
}

/// Every fault class at rate 0.15, `OPA_FAULT_SEEDS` seeds.
#[test]
fn fault_injection_is_bit_identical_across_thread_counts() {
    run_batch_cells(|c| matches!(c.faults, Faults::Uniform(_))).require("fired");
}
