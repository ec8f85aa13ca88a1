//! `opa serve` — the interactive command loop over the resident server.
//!
//! Commands arrive one per line, from stdin or a control file, and drive
//! the multi-tenant scheduler synchronously: after every command the
//! fleet is quiescent (all running jobs parked at a wave boundary), so
//! `query` always answers against a live, consistent pause point.
//!
//! ```text
//! submit TENANT JOB --input FILE [--framework FW] [--batches K] [--threads N]
//!        [--oversubscribe] [--poison-rate P] [--fault-rate P] [--fault-seed N]
//!        [--admission off|lfu] [--state N] [--threshold N] [--expected-keys N]
//! step [N]        # grant N waves (default 1) to every parked job, admission order
//! run             # step until every admitted job finishes
//! status          # one row per job: phase, waves, progress, DLQ size
//! books           # per-tenant admission books
//! query JOB [--key N] [--top-k N]   # live lookup / top-k / progress
//! dlq JOB         # quarantined records with provenance
//! replay JOB      # re-run with the poison fixed; prints the recovered output size
//! quit
//! ```

use crate::args::Args;
use opa_common::Key;
use opa_core::job::JobInput;
use opa_serve::{JobSpec, ServeAnswer, ServeConfig, ServeQuery, Server};
use std::collections::HashMap;
use std::io::BufRead;
use std::sync::Arc;

/// Runs the `opa serve` command loop. Reads commands from `--control
/// FILE` when given, stdin otherwise.
pub fn serve(args: &Args) -> Result<(), String> {
    let cfg = ServeConfig {
        slots_per_tenant: args.get_or("slots", 2usize)?,
        queue_per_tenant: args.get_or("queue", 4usize)?,
        queue_total: args.get_or("queue-total", 16usize)?,
    };
    let mut server = Server::new(cfg);
    if let Some(dir) = args.options.get("dlq-dir") {
        server = server.dlq_dir(dir);
    }

    let mut inputs: HashMap<String, Arc<JobInput>> = HashMap::new();
    let mut process = |server: &mut Server, line: &str| -> Result<bool, String> {
        let words: Vec<String> = line.split_whitespace().map(String::from).collect();
        if words.is_empty() || words[0].starts_with('#') {
            return Ok(true);
        }
        let cmd_args = Args::parse(words.iter().skip(1).cloned());
        match words[0].as_str() {
            "submit" => cmd_submit(server, &cmd_args, &mut inputs),
            "step" => {
                let n: usize = cmd_args
                    .positional
                    .first()
                    .map(|s| s.parse().map_err(|_| format!("step: bad count '{s}'")))
                    .transpose()?
                    .unwrap_or(1);
                for _ in 0..n {
                    if !server.step().map_err(|e| e.to_string())? {
                        break;
                    }
                }
                println!("round {}", server.round());
                Ok(())
            }
            "run" => {
                server.run_to_completion().map_err(|e| e.to_string())?;
                println!("drained at round {}", server.round());
                Ok(())
            }
            "status" => {
                print_status(server);
                Ok(())
            }
            "books" => {
                print_books(server);
                Ok(())
            }
            "query" => cmd_query(server, &cmd_args),
            "dlq" => cmd_dlq(server, &cmd_args),
            "replay" => cmd_replay(server, &cmd_args),
            "quit" | "exit" => return Ok(false),
            other => Err(format!("unknown command '{other}'")),
        }
        .map(|()| true)
    };

    let mut run_loop =
        |server: &mut Server, reader: &mut dyn BufRead, echo: bool| -> Result<(), String> {
            for line in reader.lines() {
                let line = line.map_err(|e| format!("read command: {e}"))?;
                if echo {
                    println!("> {line}");
                }
                match process(server, &line) {
                    Ok(true) => {}
                    Ok(false) => break,
                    // Command errors are reported but don't kill the server.
                    Err(msg) => eprintln!("error: {msg}"),
                }
            }
            Ok(())
        };

    match args.options.get("control") {
        Some(path) => {
            let f = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
            run_loop(&mut server, &mut std::io::BufReader::new(f), true)?;
        }
        None => {
            let stdin = std::io::stdin();
            run_loop(&mut server, &mut stdin.lock(), false)?;
        }
    }

    if let Some(path) = args.options.get("trace-out") {
        let log = opa_trace::TraceLog {
            events: server.trace().to_vec(),
        };
        log.write_jsonl(std::path::Path::new(path))
            .map_err(|e| e.to_string())?;
        println!("serve trace        {path} ({} events)", log.events.len());
    }
    Ok(())
}

fn cmd_submit(
    server: &mut Server,
    args: &Args,
    inputs: &mut HashMap<String, Arc<JobInput>>,
) -> Result<(), String> {
    let tenant: u32 = args
        .positional
        .first()
        .ok_or("submit: TENANT missing")?
        .parse()
        .map_err(|_| "submit: TENANT must be an integer".to_string())?;
    let job_name = args
        .positional
        .get(1)
        .ok_or("submit: JOB missing")?
        .as_str();
    let job = crate::named_job(job_name, args)?;
    let input_path = args
        .options
        .get("input")
        .ok_or("submit: --input FILE is required")?;
    let input = match inputs.get(input_path) {
        Some(cached) => Arc::clone(cached),
        None => {
            let text = std::fs::read_to_string(input_path)
                .map_err(|e| format!("read {input_path}: {e}"))?;
            let fresh = Arc::new(JobInput::from_text(&text));
            inputs.insert(input_path.clone(), Arc::clone(&fresh));
            fresh
        }
    };

    let faults = crate::parse_faults(args)?;
    let threads = args.get_or("threads", 1usize)?;
    let spec = JobSpec {
        framework: crate::parse_framework(
            args.options
                .get("framework")
                .map(String::as_str)
                .unwrap_or("inc-hash"),
        )?,
        cluster: opa_core::cluster::ClusterSpec::tiny(),
        batches: args.get_or("batches", 4usize)?,
        exec: if args.has_flag("oversubscribe") {
            opa_common::ExecConfig::oversubscribed(threads)
        } else {
            opa_common::ExecConfig::with_threads(threads)
        },
        km_hint: args.get_or("km", 1.0f64)?,
        admission: crate::parse_admission(args)?,
        faults,
        trace: args.has_flag("trace"),
    };

    let receipt = server
        .submit(tenant, job, input, &spec)
        .map_err(|e| e.to_string())?;
    println!(
        "job {} tenant {} {}: {:?}",
        receipt.job, tenant, job_name, receipt.outcome
    );
    Ok(())
}

fn job_id(args: &Args) -> Result<u32, String> {
    args.positional
        .first()
        .ok_or("JOB id missing")?
        .parse()
        .map_err(|_| "JOB id must be an integer".to_string())
}

fn cmd_query(server: &Server, args: &Args) -> Result<(), String> {
    let id = job_id(args)?;
    if let Some(k) = args.get::<u64>("key")? {
        match server
            .query(id, &ServeQuery::Lookup(Key::from_u64(k)))
            .map_err(|e| e.to_string())?
        {
            ServeAnswer::Value(Some(v)) => match v.as_u64() {
                Some(n) => println!("job {id} key[{k}] = {n}"),
                None => println!("job {id} key[{k}] = {} bytes", v.len()),
            },
            ServeAnswer::Value(None) => println!("job {id} key[{k}] not resident"),
            _ => unreachable!("lookup answers with Value"),
        }
    }
    if let Some(k) = args.get::<usize>("top-k")? {
        match server
            .query(id, &ServeQuery::TopK(k))
            .map_err(|e| e.to_string())?
        {
            ServeAnswer::TopK(Some((entries, gamma))) => {
                println!(
                    "job {id} top-{k} (γ ≥ {gamma:.4}): {}",
                    crate::fmt_top(&entries)
                );
            }
            ServeAnswer::TopK(None) => println!("job {id} top-k unavailable"),
            _ => unreachable!("top-k answers with TopK"),
        }
    }
    if !args.options.contains_key("key") && !args.options.contains_key("top-k") {
        match server
            .query(id, &ServeQuery::Progress)
            .map_err(|e| e.to_string())?
        {
            ServeAnswer::Progress(p) => println!(
                "job {id} batch {}/{} records {}/{} maps {}/{} t={:.1}s",
                p.batches_sealed,
                p.batches,
                p.records_sealed,
                p.total_records,
                p.maps_completed,
                p.maps_total,
                p.sim_time.as_secs_f64()
            ),
            _ => unreachable!("progress answers with Progress"),
        }
    }
    Ok(())
}

fn cmd_dlq(server: &Server, args: &Args) -> Result<(), String> {
    let id = job_id(args)?;
    let dlq = server.dlq(id).map_err(|e| e.to_string())?;
    println!("job {id}: {} quarantined record(s)", dlq.len());
    for p in dlq {
        println!(
            "  offset {:>8}  chunk {:>4}  attempt {}  {} bytes",
            p.offset,
            p.chunk,
            p.attempt,
            p.record.len()
        );
    }
    if let Some(path) = server.dlq_path(id) {
        println!("  quarantine file: {}", path.display());
    }
    Ok(())
}

fn cmd_replay(server: &mut Server, args: &Args) -> Result<(), String> {
    let id = job_id(args)?;
    let entries = server.dlq(id).map_err(|e| e.to_string())?.len();
    let outcome = server.replay_dlq(id).map_err(|e| e.to_string())?;
    println!(
        "job {id} replayed with poison fixed: {entries} quarantined record(s) restored, \
         {} output pairs, {} DLQ entries remain",
        outcome.job.output.len(),
        outcome.job.dlq.len()
    );
    Ok(())
}

fn print_status(server: &Server) {
    println!("job  tenant  phase     waves  progress             dlq  name");
    for s in server.status() {
        let progress = s
            .progress
            .as_ref()
            .map(|p| format!("batch {}/{}", p.batches_sealed, p.batches))
            .unwrap_or_else(|| "-".to_string());
        println!(
            "{:>3}  {:>6}  {:<8}  {:>5}  {:<19}  {:>3}  {}{}",
            s.job,
            s.tenant,
            format!("{:?}", s.phase).to_lowercase(),
            s.waves,
            progress,
            s.dlq_entries,
            s.label,
            s.error
                .as_deref()
                .map(|e| format!("  ({e})"))
                .unwrap_or_default()
        );
    }
}

fn print_books(server: &Server) {
    println!("tenant  submitted  admitted  rej-quota  rej-queue  running  waiting  done  failed");
    for (t, b) in server.books() {
        println!(
            "{:>6}  {:>9}  {:>8}  {:>9}  {:>9}  {:>7}  {:>7}  {:>4}  {:>6}",
            t,
            b.submitted,
            b.admitted,
            b.rejected_quota,
            b.rejected_queue,
            b.running,
            b.waiting,
            b.finished,
            b.failed
        );
    }
}
