//! The failure-seeded simulation sweep: every framework under each fault
//! plan — every class at rate 0.15 over `OPA_FAULT_SEEDS` seeds (default
//! 3), reduce crashes only, and per-record poison. Every cell terminates,
//! its output is the naive group-by of the records not quarantined, its
//! recovery shows in the fault report, and its whole outcome, failure
//! trace included, is the same at 1 thread and at 2, 4 or 8
//! (`OPA_TEST_THREADS` when set). Each test is a view of the option-space
//! generator (`option_space/mod.rs`), which dumps a failing cell's fault
//! report to `target/fault_traces/` before it fails.

mod option_space;

use opa_core::cluster::Framework;
use option_space::{run_batch_cells, Faults};

/// Every framework, every fault class at rate 0.15, the gate off.
#[test]
fn fault_sweep_is_recoverable_and_deterministic() {
    run_batch_cells(|c| matches!(c.faults, Faults::Uniform(_)) && !c.admission.is_on())
        .require("fired");
}

/// INC-hash and DINC-hash with the LFU gate on, under every fault plan.
/// A reduce-crash cell's admission counters equal the fault-free run's:
/// recovery replays a reducer's history.
#[test]
fn fault_sweep_with_admission_on_is_recoverable_and_deterministic() {
    let gated = [Framework::IncHash, Framework::DincHash];
    run_batch_cells(|c| {
        c.faults != Faults::None && c.admission.is_on() && gated.contains(&c.framework)
    })
    .require("fired evicted");
}
