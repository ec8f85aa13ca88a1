//! `opa dataflow` — run a multi-job chain with in-memory handoffs.
//!
//! Three built-in chains exercise the three handoff behaviours:
//!
//! * `pagerank` — init + k scatter rounds; every round re-keys to
//!   neighbors, so every handoff is a real reshuffle.
//! * `distinct-sessions` — mark + count; the second job strips the
//!   window suffix, one legitimate mid-chain reshuffle.
//! * `top-pages` — page-frequency and page-sessions producers feed a
//!   dataset *union* into an identity-keyed join that skips its shuffle
//!   outright (zero shuffle bytes), then a top-k funnel reshuffles.
//!
//! The command prints a per-stage handoff table and, with `--trace-out`,
//! writes the chain-level `stage_*` events (the stages' own engine events
//! are not recorded).

use crate::args::Args;
use crate::{parse_exec, parse_faults, parse_framework, read_input};
use opa_core::cluster::{ClusterSpec, Framework};
use opa_core::dataflow::{Dataflow, DataflowOutcome, Dataset, HandoffPolicy};
use opa_core::job::JobBuilder;
use opa_workloads::distinct_sessions::{SessionCountJob, SessionMarkJob};
use opa_workloads::pagerank::{PageRankInitJob, PageRankRoundJob};
use opa_workloads::top_pages::{PageSessionsJob, TopKFunnelJob, TopPagesJoinJob};
use opa_workloads::PageFreqJob;

fn parse_policy(args: &Args) -> Result<HandoffPolicy, String> {
    Ok(match args.options.get("policy").map(String::as_str) {
        None | Some("auto") => HandoffPolicy::Auto,
        Some("reshuffle") => HandoffPolicy::Reshuffle,
        Some("materialize") => HandoffPolicy::Materialize,
        Some(other) => return Err(format!("unknown handoff policy '{other}'")),
    })
}

/// Applies every chain-level knob shared by the three built-in chains.
fn configure(mut flow: Dataflow, args: &Args) -> Result<Dataflow, String> {
    flow = flow
        .exec(parse_exec(args)?)
        .policy(parse_policy(args)?)
        .faults(parse_faults(args)?)
        .trace(args.options.contains_key("trace-out"));
    if let Some(dir) = args.options.get("checkpoint-dir") {
        flow = flow.checkpoints(dir);
    }
    if args.has_flag("resume") || args.options.contains_key("resume") {
        flow = flow.resume(true);
    }
    Ok(flow)
}

pub(crate) fn dataflow(chain: &str, args: &Args) -> Result<(), String> {
    let input = read_input(args)?;
    let cluster = ClusterSpec::paper_scaled();
    let framework = parse_framework(
        args.options
            .get("framework")
            .map(String::as_str)
            .unwrap_or("mr-hash"),
    )?;

    let outcome: DataflowOutcome = match chain {
        "pagerank" => {
            let rounds: usize = args.get_or("rounds", 3usize)?;
            let mut flow = Dataflow::new(cluster).then(PageRankInitJob, framework);
            for _ in 0..rounds {
                flow = flow.then(PageRankRoundJob, framework);
            }
            configure(flow, args)?.run(&input)
        }
        "distinct-sessions" => {
            let flow = Dataflow::new(cluster)
                .then(
                    SessionMarkJob {
                        window_secs: args.get_or("window", 300u64)?,
                        expected_users: args.get_or("expected-keys", 50_000u64)?,
                    },
                    framework,
                )
                .then(
                    SessionCountJob {
                        expected_users: args.get_or("expected-keys", 50_000u64)?,
                    },
                    framework,
                );
            configure(flow, args)?.run(&input)
        }
        "top-pages" => {
            // Two producer jobs over the same cluster, unioned by URL.
            let expected_pages = args.get_or("expected-keys", 100_000u64)?;
            let exec = parse_exec(args)?;
            let freq = JobBuilder::new(PageFreqJob { expected_pages })
                .framework(Framework::IncHash)
                .cluster(cluster)
                .exec(exec)
                .run(&input)
                .map_err(|e| e.to_string())?;
            let sessions = JobBuilder::new(PageSessionsJob { expected_pages })
                .framework(framework)
                .cluster(cluster)
                .exec(exec)
                .run(&input)
                .map_err(|e| e.to_string())?;
            println!(
                "producers: page-freq {} pages, page-sessions {} pages",
                freq.output.len(),
                sessions.output.len()
            );
            let union = Dataset::union(&freq.dataset(&cluster), &sessions.dataset(&cluster))
                .map_err(|e| e.to_string())?;
            let flow = Dataflow::new(cluster)
                .then(TopPagesJoinJob, framework)
                .then(
                    TopKFunnelJob {
                        k: args.get_or("k", 10usize)?,
                    },
                    framework,
                );
            configure(flow, args)?.run_from(&union)
        }
        other => return Err(format!("unknown chain '{other}'")),
    }
    .map_err(|e| e.to_string())?;

    if let Some(k) = outcome.resumed_from {
        println!("resumed from stage {k}'s checkpoint");
    }
    println!(
        "{:<3} {:<18} {:<10} {:<12} {:>12} {:>12} {:>14}",
        "#", "stage", "framework", "handoff", "records in", "records out", "shuffle saved"
    );
    for (i, s) in outcome.stages.iter().enumerate() {
        println!(
            "{:<3} {:<18} {:<10} {:<12} {:>12} {:>12} {:>14}",
            i,
            s.name,
            s.framework,
            s.handoff.label(),
            s.records_in,
            s.records_out,
            format!("{} B", s.bytes_saved),
        );
    }
    for (i, s) in outcome.stages.iter().enumerate() {
        if !s.dlq.is_empty() {
            println!(
                "stage {i} dead-letter queue: {} record(s) quarantined",
                s.dlq.len()
            );
        }
    }
    let saved: u64 = outcome.stages.iter().map(|s| s.bytes_saved).sum();
    println!(
        "chain output: {} records across {} partitions; reshuffles skipped saved {} bytes",
        outcome.output.len(),
        outcome.output.spec().partitions,
        saved
    );

    if let Some(path) = args.options.get("trace-out") {
        let log = outcome
            .trace
            .as_ref()
            .ok_or("trace was requested but the chain returned none")?;
        log.write_jsonl(std::path::Path::new(path))
            .map_err(|e| e.to_string())?;
        println!("chain trace: {path} ({} events)", log.events.len());
    }
    if let Some(out) = args.options.get("output") {
        outcome
            .output
            .write(std::path::Path::new(out))
            .map_err(|e| e.to_string())?;
        println!("output dataset: {out}");
    }
    Ok(())
}
