//! One oracle over the option space: the generator in
//! `crates/core/tests/option_space/mod.rs` (its cells, oracle, books and
//! the batch and dataflow modes), run over every mode. This package links
//! the stream runtime and the server, so it supplies the stream, resume
//! and serve modes ([`front_end`]), and the one table that narrows a
//! resumed cell, [`RESUME_GAPS`], each row with its reason.
//!
//! `OPA_FAULT_SEEDS` and `OPA_TEST_THREADS` keep the generator's meanings.

#[path = "../crates/core/tests/option_space/mod.rs"]
mod space;

use opa::common::ExecConfig;
use opa::core::cluster::Framework;
use opa::core::job::JobOutcome;
use opa::core::metrics::JobMetrics;
use opa::core::reduce::ReducerCkpt;
use opa::stream::{CheckpointView, SavedState, StreamJobBuilder};
use opa::trace::{TraceEvent, TraceLog};
use opa_serve::{JobSpec, ServeConfig, Server};
use space::{
    batch_of, check_books, check_oracle, ensure, fingerprint, input, run_cells, same_run, Batches,
    Cell, Checked, Cluster, Faults, Mode, Tally, WordCount,
};
use std::path::PathBuf;
use std::sync::Arc;

fn stream(cell: &Cell, threads: usize, k: usize) -> StreamJobBuilder<WordCount> {
    StreamJobBuilder::new(cell.job())
        .framework(cell.framework)
        .cluster(cell.cluster.spec())
        .admission(cell.admission)
        .combine(cell.combine)
        .dinc_monitor(cell.monitor)
        .faults(cell.faults.config())
        .trace(cell.trace)
        .exec(ExecConfig::oversubscribed(threads))
        .batches(k)
}

/// Checks `group` in its mode against the one-thread batch run:
/// - stream: every batch seals, in order; the output (in order), the whole
///   metrics and the engine events ([`same_engine_events`]) are equal;
/// - served: see [`check_served`];
/// - resume: see [`check_resume`].
fn front_end(group: &[Cell], batches: &mut Batches, tally: &mut Tally) -> Checked {
    let cell = &group[0];
    match cell.mode {
        Mode::Resume(k) => check_resume(cell, k, tally),
        Mode::Stream(k) => {
            let reference = batch_of(batches, cell, tally)?;
            let mut sealed = Vec::new();
            let run = stream(cell, cell.threads, k).run_stream(input(), |ctl| {
                sealed.push(ctl.batch());
            });
            ensure!(sealed == (1..=k).collect::<Vec<_>>(), "sealed {sealed:?}");
            let run = run?.job;
            same_run(cell, &reference, &run, tally)?;
            same_engine_events(cell, &run)
        }
        Mode::Serve(k) => check_served(group, k, batches, tally),
        Mode::Batch | Mode::Dataflow(_) => unreachable!("the generator checks {:?}", cell.mode),
    }
}

/// A traced `run`'s trace, less its `batch_seal` and `checkpoint` events,
/// is the traced one-thread batch run's, byte for byte.
fn same_engine_events(cell: &Cell, run: &JobOutcome) -> Checked {
    let Some(trace) = &run.trace else {
        return Ok(());
    };
    let pause = |e: &&TraceEvent| {
        matches!(
            e,
            TraceEvent::BatchSeal { .. } | TraceEvent::Checkpoint { .. }
        )
    };
    let events = trace.events.iter().filter(|e| !pause(e)).cloned().collect();
    let batch = cell.batch(1, true).trace.ok_or("no batch trace")?;
    ensure!(
        TraceLog { events }.to_jsonl() == batch.to_jsonl(),
        "the engine's events moved"
    );
    Ok(())
}

/// Served: a framework's serve cells are tenants of one server on the
/// default config (one run slot each), the first two on one tenant, so the
/// second queues. Each job's output (in order), whole metrics, dead-letter
/// queue and engine events are its batch run's, and a second server fed
/// the same submissions has the same serving trace, books and round.
fn check_served(group: &[Cell], k: usize, batches: &mut Batches, tally: &mut Tally) -> Checked {
    let serve = || -> Checked<(Server, Vec<u32>)> {
        let mut server = Server::new(ServeConfig::default());
        let mut ids = Vec::new();
        for (i, cell) in group.iter().enumerate() {
            let spec = JobSpec {
                framework: cell.framework,
                cluster: cell.cluster.spec(),
                batches: k,
                exec: ExecConfig::oversubscribed(cell.threads),
                admission: cell.admission,
                faults: cell.faults.config(),
                trace: cell.trace,
                ..JobSpec::default()
            };
            let tenant = i.saturating_sub(1) as u32;
            ids.push(
                server
                    .submit(tenant, cell.job(), Arc::clone(input()), &spec)?
                    .job,
            );
        }
        server.run_to_completion()?;
        Ok((server, ids))
    };
    ensure!(
        group.len() > 3,
        "only {} jobs for three tenants",
        group.len()
    );
    let (server, ids) = serve()?;
    for (cell, id) in group.iter().zip(ids) {
        let reference = batch_of(batches, cell, tally)?;
        let served = &server.outcome(id).ok_or("not finished")?.job;
        same_run(cell, &reference, served, tally)?;
        same_engine_events(cell, served)?;
    }
    let books = server.books();
    tally.mark("queued", books.iter().any(|(_, b)| b.wait_rounds > 0));
    let again = serve()?.0;
    ensure!(again.trace() == server.trace(), "the serving trace moved");
    ensure!((again.books(), again.round()) == (books, server.round()));
    Ok(())
}

/// A resume gap: the fields left out, the cells it covers, and why.
type Gap = (&'static [&'static str], fn(&Cell) -> bool, &'static str);

/// What a resumed run does not reproduce yet (ROADMAP item 8): the fields
/// each row leaves out (`JobMetrics` fields, or the output's order), the
/// cells it covers, and why. Each field of each row must be necessary:
/// some cell differs in it, and no other row covers that cell's field.
/// Once none does, the resume test fails: mend the gap, then delete the
/// field (or its row).
const RESUME_GAPS: [Gap; 6] = [
    (
        &["io", "io_recovery"],
        |_| true,
        "(a) `JobMetrics::io` and `io_recovery` are not checkpointed: a \
         resumed run reports only the I/O after the resume",
    ),
    (
        &["faults"],
        |c| c.faults != Faults::None,
        "the `FaultReport` is not checkpointed: a resumed run counts only \
         the faults and poisoned records after the resume",
    ),
    (
        &["running_time", "map_finish"],
        |c| matches!(c.faults, Faults::Uniform(_)),
        "(c) two inputs of the timeline are not checkpointed: the \
         spill-error injector's operation ordinal \
         (`DiskFaultInjector::next_op`), which restarts at 0, and each \
         reducer's crash history, which a crash after the resume re-replays \
         only from the resume on; so the resumed timeline moves",
    ),
    (
        &["output order"],
        |c| matches!(c.faults, Faults::Uniform(_)) && c.cluster == Cluster::TwoWave,
        "(c) the moved timeline delivers map output in another order to the \
         two-wave cluster's second wave, where MR-, INC- and DINC-hash emit \
         in delivery order",
    ),
    (
        &["output order"],
        |c| {
            let mr_tiny = (c.framework, c.cluster) == (Framework::MrHash, Cluster::Tiny);
            matches!(c.faults, Faults::Uniform(_)) && mr_tiny
        },
        "(c) on the tiny cluster the moved timeline delivers map output in \
         another order, and MR-hash groups each bucket in arrival order",
    ),
    (
        &["reduce_spill_bytes", "dinc", "admission", "output order"],
        |c| {
            let dinc_tiny = (c.framework, c.cluster) == (Framework::DincHash, Cluster::Tiny);
            matches!(c.faults, Faults::Uniform(_)) && dinc_tiny
        },
        "(c) on the tiny cluster the moved timeline reorders what \
         DINC-hash's monitor sees, and it decides in delivery order: it \
         admits, evicts and spills differently, and emits in another order",
    ),
];

/// The tally path of a cell that needs `RESUME_GAPS[row]` for `field`.
fn gap_needed(row: usize, field: &str) -> String {
    format!("gap {row} needed for {field}")
}

/// Resume: the checkpointing run's output and metrics equal the plain
/// stream run's; the checkpoint records `k / 2` sealed batches and the
/// cell's framework; the run resumed at the second thread count seals
/// only batches `k/2 + 1 ..= k` and has the uninterrupted run's output (in
/// order), dead-letter queue and metrics, less [`RESUME_GAPS`]. A row that
/// alone covers one of a cell's differing fields is tallied for that
/// field ([`gap_needed`]), and so are the paths the checkpoint holds.
fn check_resume(cell: &Cell, k: usize, tally: &mut Tally) -> Checked {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("option_space");
    std::fs::create_dir_all(&dir)?;
    let ck = dir.join(format!("{:08x}.opac", fingerprint(cell)));
    let data = input();
    let full = stream(cell, 1, k).run_stream(data, |_| {})?.job;
    tally.count(&full);
    check_oracle(&full)?;
    check_books(cell, &full)?;
    let checkpointed = stream(cell, 1, k).run_stream(data, |ctl| {
        if ctl.batch() == k / 2 {
            ctl.checkpoint(ck.clone());
        }
    });
    let checkpointed = checkpointed?.job;
    ensure!((&checkpointed.output, &checkpointed.metrics) == (&full.output, &full.metrics));
    let (saved, view) = (SavedState::read_from(&ck), CheckpointView::open(&ck));
    let mut sealed = Vec::new();
    let resumed = stream(cell, cell.threads, k).resume_stream(data, &ck, |ctl| {
        sealed.push(ctl.batch());
    });
    let _ = std::fs::remove_file(&ck);
    let (saved, view, resumed) = (saved?, view?, resumed?);
    ensure!(
        sealed == (k / 2 + 1..=k).collect::<Vec<_>>(),
        "sealed {sealed:?}"
    );
    ensure!(view.progress().batches_sealed == k / 2 && view.framework()? == cell.framework);
    ensure!(resumed.resumed_from_batch == Some(k / 2));
    let resumed = resumed.job;
    ensure!(resumed.dlq == full.dlq);
    let engine = &saved.engine;
    tally.mark(
        "staged-held",
        engine.staged.iter().any(|t| !t.rows.is_empty()),
    );
    tally.mark("quarantined-held", !engine.dlq.is_empty());
    // DINC-hash's stats section: [s, offered, rejected, evicted to
    // output, evicted to a bucket].
    let full_and_evicted = |r: &ReducerCkpt| {
        let stats = &r.nums[3];
        r.states[0].len() as u64 == stats[0] && stats[3] + stats[4] > 0
    };
    let dinc = cell.framework == Framework::DincHash;
    tally.mark(
        "monitor-full-evicted",
        dinc && engine.reducers.iter().any(full_and_evicted),
    );
    let crashes = resumed
        .metrics
        .faults
        .as_ref()
        .map_or(0, |f| f.reduce_failures);
    tally.mark("crashed-after-resume", crashes > 0);
    let mut differ = differing_fields(&resumed.metrics, &full.metrics);
    if resumed.output != full.output {
        ensure!(resumed.sorted_output() == full.sorted_output());
        differ.push("output order");
    }
    for field in differ {
        let rows: Vec<_> = (0..RESUME_GAPS.len())
            .filter(|&row| {
                let (fields, applies, _) = RESUME_GAPS[row];
                applies(cell) && fields.contains(&field)
            })
            .collect();
        match rows[..] {
            [] => return Err(format!("resumed run differs in {field}").into()),
            [row] => tally.mark(&gap_needed(row, field), true),
            _ => {}
        }
    }
    Ok(())
}

/// The names of the `JobMetrics` fields on which `a` and `b` differ.
#[rustfmt::skip]
fn differing_fields(a: &JobMetrics, b: &JobMetrics) -> Vec<&'static str> {
    macro_rules! differing {
        ($($field:ident),+) => {{
            // Exhaustive: a new field fails to compile here until listed.
            let JobMetrics { $($field),+ } = a;
            [$((stringify!($field), *$field != b.$field)),+]
        }};
    }
    let fields = differing!(
        framework, job, running_time, map_finish, input_bytes, map_output_bytes, map_spill_bytes,
        reduce_spill_bytes, output_bytes, snapshot_bytes, output_records, map_cpu_per_node,
        reduce_cpu_per_node, io, io_recovery, dinc, admission, faults, shuffle_bytes, node_combine
    );
    fields.into_iter().filter(|f| f.1).map(|f| f.0).collect()
}

#[test]
fn batch_cells_agree_with_the_oracle_at_every_thread_count() {
    let tally = run_cells(|c| c.mode == Mode::Batch, front_end);
    tally.require("fired evicted merged spilled quarantined snapshot traced second-wave");
}

#[test]
fn stream_cells_equal_the_batch_run() {
    let tally = run_cells(|c| matches!(c.mode, Mode::Stream(_)), front_end);
    tally.require("fired rejected merged spilled quarantined traced second-wave");
}

#[test]
fn resume_cells_equal_the_uninterrupted_run() {
    let tally = run_cells(|c| matches!(c.mode, Mode::Resume(_)), front_end);
    tally.require("fired evicted merged spilled quarantined traced second-wave");
    tally
        .require("rejected staged-held quarantined-held monitor-full-evicted crashed-after-resume");
    for (row, (fields, _, why)) in RESUME_GAPS.iter().enumerate() {
        for field in *fields {
            let needed = tally.runs(&gap_needed(row, field));
            assert!(needed > 0, "no cell needs {field} alone: {why}");
        }
    }
}

#[test]
fn served_cells_equal_the_batch_run() {
    let tally = run_cells(|c| matches!(c.mode, Mode::Serve(_)), front_end);
    tally.require("fired spilled quarantined traced second-wave queued");
}

#[test]
fn dataflow_cells_equal_the_batch_run() {
    let tally = run_cells(|c| matches!(c.mode, Mode::Dataflow(_)), front_end);
    tally.require("fired spilled quarantined skipped fired-in-skipped-stage");
}
