//! `opa` — command-line interface for the One-Pass Analytics platform.
//!
//! ```text
//! opa generate clickstream --bytes 16M --preset sessionization --seed 42 --out clicks.log
//! opa generate documents   --bytes 8M  --out docs.txt
//! opa run sessionize  --input clicks.log --framework dinc-hash --state 2048
//! opa run click-count --input clicks.log --framework inc-hash
//! opa run trigrams    --input docs.txt   --framework inc-hash --threshold 1000
//! opa model --d 97G --km 1.0 --chunk-mb 64 --merge-factor 10
//! ```
//!
//! `run` prints the job's Table-3-style metrics; `--progress-csv PATH`
//! additionally writes the Definition-1 progress curve and
//! `--output PATH` persists the result in the IFile-style run format.

mod args;
mod dataflow_cmd;
mod serve_cmd;

use args::{parse_bytes, Args};
use opa_common::Key;
use opa_core::api::Job;
use opa_core::cluster::{ClusterSpec, Framework};
use opa_core::job::{JobBuilder, JobInput, JobOutcome};
use opa_model::io_model::ModelInput;
use opa_model::optimizer::Optimizer;
use opa_model::time_model::CostConstants;
use opa_stream::{CheckpointView, StreamJobBuilder};
use opa_workloads::clickstream::ClickStreamSpec;
use opa_workloads::documents::DocumentSpec;
use opa_workloads::{ClickCountJob, FrequentUsersJob, PageFreqJob, SessionizeJob, TrigramCountJob};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  opa generate clickstream --bytes SIZE [--preset sessionization|counting] [--seed N] --out FILE
  opa generate documents   --bytes SIZE [--seed N] --out FILE
  opa run JOB --input FILE [--framework FW] [--state BYTES] [--threshold N]
              [--km RATIO] [--threads N] [--progress-csv FILE] [--output FILE]
              [--admission off|lfu] [--combine off|task|node]
              [--fault-rate P] [--fault-seed N]
              [--poison-rate P] [--trace-out FILE] [--drift]
              [--model-keys N --model-zipf S]
      JOB: sessionize | click-count | frequent-users | page-freq | trigrams
      FW:  sort-merge | sort-merge-pipelined | mr-hash | inc-hash | dinc-hash
      --admission lfu turns on frequency-gated admission for
      the incremental frameworks: when reduce-side memory is full, a new
      key may evict a resident key that a deterministic frequency sketch
      judges colder, instead of spilling itself. Default: off.
      --combine selects the pre-shuffle combining scope: 'task' (default)
      combines within each map task, 'node' additionally merges all map
      output of one simulated node in a staging table before any shuffle
      bytes are booked, 'off' ships raw map output. Output is identical
      under all three; only shuffle volume and timing change.
      --fault-rate P injects map/reduce failures, stragglers and spill-disk
      errors, each with probability P in [0, 1); --fault-seed N (default 42)
      makes the failure trace reproducible. Recovery never loses data;
      count-style outputs are bit-identical to the fault-free run.
      --poison-rate P makes the map UDF reject each record with probability
      P; rejected records are quarantined to the dead-letter queue with
      full provenance instead of failing the job.
      --trace-out FILE captures every simulation event as structured JSONL
      (see OBSERVABILITY.md); --drift additionally evaluates the Prop 3.1/3.2
      model for this run's configuration and reports per-term relative error.
      With --model-zipf S (and optionally --model-keys N, default
      --expected-keys), --drift also evaluates the combiner-ratio model:
      predicted post-combine shuffle bytes for the selected --combine
      scope vs. the bytes the run actually booked on the network. The
      parameters describe the input's key distribution (Zipf exponent and
      key-space size, e.g. the values `generate clickstream` used).
  opa stream JOB --input FILE [--batches K] [--framework FW] [--threads N]
              [--checkpoint-every N --checkpoint-dir DIR] [--resume CKPT]
              [--watch-key N] [--top-k N] [--output FILE] [--admission off|lfu]
              [--combine off|task|node] [--fault-rate P] [--fault-seed N]
              [--poison-rate P] [--trace-out FILE]
      Feeds the input through the engine in K arrival-ordered micro-batches
      (default 4), printing progress and the live incremental state at each
      sealed batch. The streamed output is bit-identical to `opa run`'s.
      --resume restarts from a checkpoint written by an earlier stream run.
  opa dataflow CHAIN --input FILE [--framework FW] [--threads N]
              [--policy auto|reshuffle|materialize] [--rounds K] [--k N]
              [--window SECS] [--checkpoint-dir DIR] [--resume]
              [--fault-rate P] [--fault-seed N] [--poison-rate P]
              [--trace-out FILE] [--output FILE]
      CHAIN: pagerank | distinct-sessions | top-pages
      Chains several jobs with M3R-style in-memory handoffs: when a stage
      declares itself partition-preserving and its input dataset was
      bucketed under the same partition function, the reshuffle is skipped
      outright (zero shuffle bytes). --policy reshuffle/materialize forces
      the classic paths for comparison; --checkpoint-dir + --resume restore
      the latest finished stage and continue mid-pipeline.
  opa trace FILE [--format chrome|summary] [--out FILE]
      Post-processes a JSONL trace written by --trace-out: `chrome` exports
      a Chrome/Perfetto trace (load at ui.perfetto.dev), `summary` (default)
      prints per-phase rollups.
  opa serve [--control FILE] [--slots N] [--queue N] [--queue-total N]
            [--dlq-dir DIR] [--trace-out FILE]
      Starts the resident multi-tenant job server and reads line commands
      from --control FILE (or stdin): submit / step / run / status / books /
      query / dlq / replay / quit. Jobs from different tenants interleave
      deterministically in admission order; poisoned records land in the
      dead-letter queue with full provenance instead of failing the job.
  opa query --checkpoint CKPT [--key N] [--top-k N]
      Answers point-lookup / top-k / progress queries offline, straight from
      a stream checkpoint file — no job re-execution.
  opa model --d SIZE [--km R] [--kr R] [--chunk-mb N] [--merge-factor N] [--optimize]
";

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1));
    let cmd: Vec<&str> = args.positional.iter().map(String::as_str).collect();
    let result = match cmd.as_slice() {
        ["generate", "clickstream"] => generate_clickstream(&args),
        ["generate", "documents"] => generate_documents(&args),
        ["run", job] => run_job(job, &args),
        ["stream", job] => stream_job(job, &args),
        ["dataflow", chain] => dataflow_cmd::dataflow(chain, &args),
        ["trace", file] => trace_file(file, &args),
        ["serve"] => serve_cmd::serve(&args),
        ["query"] => query_checkpoint(&args),
        ["model"] => model(&args),
        _ => {
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn required_bytes(args: &Args, key: &str) -> Result<u64, String> {
    args.options
        .get(key)
        .ok_or(format!("--{key} is required"))
        .and_then(|v| parse_bytes(v).ok_or(format!("--{key}: cannot parse '{v}' as a size")))
}

fn out_path(args: &Args) -> Result<PathBuf, String> {
    args.options
        .get("out")
        .map(PathBuf::from)
        .ok_or_else(|| "--out FILE is required".into())
}

fn generate_clickstream(args: &Args) -> Result<(), String> {
    let bytes = required_bytes(args, "bytes")?;
    let seed = args.get_or("seed", 42u64)?;
    let preset = args
        .options
        .get("preset")
        .map(String::as_str)
        .unwrap_or("sessionization");
    let spec = match preset {
        "sessionization" => ClickStreamSpec::paper_scaled(bytes),
        "counting" => ClickStreamSpec::counting_scaled(bytes),
        other => return Err(format!("unknown preset '{other}'")),
    };
    let (input, stats) = spec.generate_with_stats(seed);
    let path = out_path(args)?;
    write_lines(&path, &input)?;
    println!(
        "wrote {} clicks ({} users, {} s of event time) to {}",
        input.len(),
        stats.distinct_users,
        stats.span_secs,
        path.display()
    );
    Ok(())
}

fn generate_documents(args: &Args) -> Result<(), String> {
    let bytes = required_bytes(args, "bytes")?;
    let seed = args.get_or("seed", 42u64)?;
    let input = DocumentSpec::paper_scaled(bytes).generate(seed);
    let path = out_path(args)?;
    write_lines(&path, &input)?;
    println!("wrote {} documents to {}", input.len(), path.display());
    Ok(())
}

fn write_lines(path: &PathBuf, input: &JobInput) -> Result<(), String> {
    use std::io::Write;
    let mut f = std::fs::File::create(path).map_err(|e| format!("create {path:?}: {e}"))?;
    let mut buf = std::io::BufWriter::new(&mut f);
    for rec in &input.records {
        buf.write_all(rec)
            .and_then(|()| buf.write_all(b"\n"))
            .map_err(|e| format!("write {path:?}: {e}"))?;
    }
    Ok(())
}

/// Fault configuration shared by `run`, `stream` and `serve` submits:
/// `--fault-rate` drives the four crash classes uniformly, and
/// `--poison-rate` independently quarantines map records to the DLQ.
pub(crate) fn parse_faults(args: &Args) -> Result<opa_common::fault::FaultConfig, String> {
    let fault_rate = args.get_or("fault-rate", 0.0f64)?;
    let seed = args.get_or("fault-seed", 42u64)?;
    let mut faults = if fault_rate > 0.0 {
        opa_common::fault::FaultConfig::uniform(seed, fault_rate)
    } else {
        opa_common::fault::FaultConfig::disabled()
    };
    faults.seed = seed;
    faults.udf_poison_rate = args.get_or("poison-rate", 0.0f64)?;
    Ok(faults)
}

/// Execution-layer threads: default to the machine's parallelism. The
/// outcome is bit-identical at any count; threads only buy wall-clock.
pub(crate) fn parse_exec(args: &Args) -> Result<opa_common::ExecConfig, String> {
    Ok(match args.get("threads")? {
        Some(n) => opa_common::ExecConfig::with_threads(n),
        None => opa_common::ExecConfig::available_parallelism(),
    })
}

pub(crate) fn parse_admission(args: &Args) -> Result<opa_common::AdmissionPolicy, String> {
    match args.options.get("admission") {
        Some(v) => opa_common::AdmissionPolicy::parse(v).map_err(|e| e.to_string()),
        None => Ok(opa_common::AdmissionPolicy::Off),
    }
}

pub(crate) fn parse_combine(args: &Args) -> Result<opa_common::CombineScope, String> {
    match args.options.get("combine") {
        Some(v) => opa_common::CombineScope::parse(v).map_err(|e| e.to_string()),
        None => Ok(opa_common::CombineScope::Task),
    }
}

pub(crate) fn parse_framework(s: &str) -> Result<Framework, String> {
    Ok(match s {
        "sort-merge" | "sm" => Framework::SortMerge,
        "sort-merge-pipelined" | "hop" => Framework::SortMergePipelined,
        "mr-hash" => Framework::MrHash,
        "inc-hash" => Framework::IncHash,
        "dinc-hash" => Framework::DincHash,
        other => return Err(format!("unknown framework '{other}'")),
    })
}

/// The workload catalog: the job `name` selects, configured from `args`.
/// `run`, `stream` and `serve submit` all resolve their JOB here, so the
/// names and the option defaults cannot differ between them.
pub(crate) fn named_job(name: &str, args: &Args) -> Result<Box<dyn Job>, String> {
    Ok(match name {
        "sessionize" => Box::new(SessionizeJob {
            gap_secs: args.get_or("gap", 300u64)?,
            slack_secs: args.get_or("slack", 400u64)?,
            state_capacity: args.get_or("state", 512usize)?,
            charge_fixed_footprint: true,
            expected_users: args.get_or("expected-keys", 50_000u64)?,
        }),
        "click-count" => Box::new(ClickCountJob {
            expected_users: args.get_or("expected-keys", 50_000u64)?,
        }),
        "frequent-users" => Box::new(FrequentUsersJob {
            threshold: args.get_or("threshold", 50u64)?,
            expected_users: args.get_or("expected-keys", 50_000u64)?,
        }),
        "page-freq" => Box::new(PageFreqJob {
            expected_pages: args.get_or("expected-keys", 10_000u64)?,
        }),
        "trigrams" => Box::new(TrigramCountJob {
            threshold: args.get_or("threshold", 1000u64)?,
            expected_trigrams: args.get_or("expected-keys", 1_000_000u64)?,
        }),
        other => return Err(format!("unknown job '{other}'")),
    })
}

fn run_job(job: &str, args: &Args) -> Result<(), String> {
    // Resolved before the input is read, so a typo costs no I/O.
    let job = named_job(job, args)?;
    let input = read_input(args)?;
    let framework = parse_framework(
        args.options
            .get("framework")
            .map(String::as_str)
            .unwrap_or("inc-hash"),
    )?;
    let km = args.get_or("km", 1.0f64)?;
    let cluster = ClusterSpec::paper_scaled();
    let exec = parse_exec(args)?;
    // Deterministic fault injection: one uniform rate across all four
    // fault classes, seeded so a failing run can be replayed exactly;
    // --poison-rate additionally quarantines map records to the DLQ.
    let faults = parse_faults(args)?;
    let admission = parse_admission(args)?;
    let combine = parse_combine(args)?;
    let want_drift = args.has_flag("drift") || args.options.contains_key("drift");
    let trace_on = args.options.contains_key("trace-out") || want_drift;
    // Read before the job runs, so a typo costs no run.
    let model_zipf = args.get::<f64>("model-zipf")?;
    let model_keys = args.get_or("model-keys", args.get_or("expected-keys", 50_000u64)?)?;

    let outcome: JobOutcome = JobBuilder::new(job)
        .framework(framework)
        .cluster(cluster)
        .km_hint(km)
        .exec(exec)
        .faults(faults)
        .admission(admission)
        .combine(combine)
        .trace(trace_on)
        .run(&input)
        .map_err(|e| e.to_string())?;

    println!("{}", outcome.metrics);
    println!(
        "  reduce@mapfinish    {:.1}%",
        outcome.progress.reduce_pct_at_map_finish()
    );
    if combine != opa_common::CombineScope::Task {
        println!(
            "  shuffle ({})      {} booked on the network",
            combine.label(),
            opa_common::units::ByteSize(outcome.metrics.shuffle_bytes)
        );
    }
    if admission.is_on() {
        if let Some(s) = &outcome.metrics.admission {
            println!(
                "  admission ({})     γ={:.4}  {} offered / {} absorbed / {} evictions / {} rejected",
                admission.label(),
                s.gamma_measured(),
                s.offered,
                s.absorbed,
                s.admitted_evictions,
                s.rejected
            );
        }
    }
    if let Some(rep) = &outcome.metrics.faults {
        println!(
            "  fault breakdown     {} map / {} straggler / {} reduce / {} spill-io (seed {})",
            rep.map_failures, rep.stragglers, rep.reduce_failures, rep.spill_io_errors, faults.seed
        );
    }
    if !outcome.dlq.is_empty() {
        println!(
            "  dead-letter queue   {} record(s) quarantined (first offset {})",
            outcome.dlq.len(),
            outcome.dlq[0].offset
        );
    }

    if trace_on {
        let log = outcome
            .trace
            .as_ref()
            .ok_or("trace was requested but the engine returned none")?;
        if let Some(path) = args.options.get("trace-out") {
            log.write_jsonl(std::path::Path::new(path))
                .map_err(|e| e.to_string())?;
            println!("  trace               {path} ({} events)", log.events.len());
        }
        if want_drift {
            let rollup = log.rollup();
            // The combiner-ratio term needs the input's key distribution,
            // which only the user knows (it is a property of the generator,
            // not the trace): --model-zipf opts in, --model-keys defaults
            // to the job's --expected-keys hint.
            let combine_model = model_zipf.map(|zipf| {
                let model = opa_model::CombineModel {
                    pairs: input.records.len() as f64,
                    pair_bytes: 24.0,
                    keys: model_keys,
                    zipf,
                    maps: rollup.map_tasks as f64,
                    nodes: cluster.hardware.nodes as f64,
                    stage_budget: cluster.node_combine_buffer as f64,
                };
                (combine, model)
            });
            let report = opa_trace::drift::check_with_combine(
                cluster.system,
                cluster.hardware,
                &rollup,
                combine_model,
            )
            .map_err(|e| e.to_string())?;
            println!("model drift (predicted vs measured, first-pass I/O):");
            print!("{}", report.render());
        }
    }
    if let Some(csv) = args.options.get("progress-csv") {
        use std::io::Write;
        let mut f = std::fs::File::create(csv).map_err(|e| format!("create {csv}: {e}"))?;
        writeln!(f, "t_secs,map_pct,reduce_pct").map_err(|e| e.to_string())?;
        for p in &outcome.progress.points {
            writeln!(
                f,
                "{:.1},{:.2},{:.2}",
                p.t.as_secs_f64(),
                p.map_pct,
                p.reduce_pct
            )
            .map_err(|e| e.to_string())?;
        }
        println!("  progress CSV        {csv}");
    }
    if let Some(out) = args.options.get("output") {
        outcome
            .write_output(std::path::Path::new(out))
            .map_err(|e| e.to_string())?;
        println!("  output file         {out}");
    }
    Ok(())
}

pub(crate) fn read_input(args: &Args) -> Result<JobInput, String> {
    let input_path = args
        .options
        .get("input")
        .ok_or("--input FILE is required")?;
    let text =
        std::fs::read_to_string(input_path).map_err(|e| format!("read {input_path}: {e}"))?;
    let input = JobInput::from_text(&text);
    if input.is_empty() {
        return Err(format!("{input_path} holds no records"));
    }
    Ok(input)
}

fn stream_job(job: &str, args: &Args) -> Result<(), String> {
    let job = named_job(job, args)?;
    let input = &read_input(args)?;
    let framework = parse_framework(
        args.options
            .get("framework")
            .map(String::as_str)
            .unwrap_or("inc-hash"),
    )?;
    let mut builder = StreamJobBuilder::new(job)
        .framework(framework)
        .cluster(ClusterSpec::paper_scaled())
        .km_hint(args.get_or("km", 1.0f64)?)
        .exec(parse_exec(args)?)
        .faults(parse_faults(args)?)
        .admission(parse_admission(args)?)
        .combine(parse_combine(args)?)
        .trace(args.options.contains_key("trace-out"))
        .batches(args.get_or("batches", 4usize)?);
    if let Some(n) = args.get::<usize>("checkpoint-every")? {
        builder = builder.checkpoint_every(n);
    }
    if let Some(dir) = args.options.get("checkpoint-dir") {
        builder = builder.checkpoint_dir(dir);
    }

    let watch = args.get::<u64>("watch-key")?.map(Key::from_u64);
    let top_k = args.get::<usize>("top-k")?;
    let on_batch = |ctl: &mut opa_stream::BatchCtl<'_, '_>| {
        let p = ctl.progress();
        print!(
            "batch {:>3}/{}  records {:>9}/{}  maps {:>4}/{}  t={:.1}s",
            p.batches_sealed,
            p.batches,
            p.records_sealed,
            p.total_records,
            p.maps_completed,
            p.maps_total,
            p.sim_time.as_secs_f64(),
        );
        if let Some(wm) = p.watermark {
            print!("  watermark={wm}");
        }
        if let Some(key) = &watch {
            match ctl.lookup(key).and_then(|v| v.as_u64()) {
                Some(v) => print!("  key[{}]={v}", key.as_u64().unwrap_or(0)),
                None => print!("  key[{}]=-", key.as_u64().unwrap_or(0)),
            }
        }
        println!();
        if let Some(k) = top_k {
            if let Some((entries, gamma)) = ctl.top_k(k) {
                println!("  top-{k} (γ ≥ {gamma:.4}): {}", fmt_top(&entries));
            }
        }
    };

    let outcome = match args.options.get("resume") {
        Some(ck) => builder.resume_stream(input, std::path::Path::new(ck), on_batch),
        None => builder.run_stream(input, on_batch),
    }
    .map_err(|e| e.to_string())?;

    if let Some(b) = outcome.resumed_from_batch {
        println!("resumed from batch {b}");
    }
    if let Some(ck) = &outcome.last_checkpoint {
        println!(
            "{} checkpoint(s) written, last: {}",
            outcome.checkpoints_written,
            ck.display()
        );
    }
    println!("{}", outcome.job.metrics);
    if let Some(rep) = &outcome.job.metrics.faults {
        println!(
            "  fault breakdown     {} map / {} straggler / {} reduce / {} spill-io",
            rep.map_failures, rep.stragglers, rep.reduce_failures, rep.spill_io_errors
        );
    }
    if !outcome.job.dlq.is_empty() {
        println!(
            "  dead-letter queue   {} record(s) quarantined",
            outcome.job.dlq.len()
        );
    }
    if let Some(path) = args.options.get("trace-out") {
        let log = outcome
            .job
            .trace
            .as_ref()
            .ok_or("trace was requested but the engine returned none")?;
        log.write_jsonl(std::path::Path::new(path))
            .map_err(|e| e.to_string())?;
        println!("  trace               {path} ({} events)", log.events.len());
    }
    if let Some(out) = args.options.get("output") {
        outcome
            .job
            .write_output(std::path::Path::new(out))
            .map_err(|e| e.to_string())?;
        println!("  output file         {out}");
    }
    Ok(())
}

fn trace_file(file: &str, args: &Args) -> Result<(), String> {
    let log =
        opa_trace::TraceLog::read_jsonl(std::path::Path::new(file)).map_err(|e| e.to_string())?;
    let format = args
        .options
        .get("format")
        .map(String::as_str)
        .unwrap_or("summary");
    let rendered = match format {
        "chrome" => log.to_chrome(),
        "summary" => log.rollup().render(),
        other => return Err(format!("unknown format '{other}' (chrome | summary)")),
    };
    match args.options.get("out") {
        Some(path) => {
            std::fs::write(path, rendered).map_err(|e| format!("write {path}: {e}"))?;
            println!(
                "wrote {format} view of {} events to {path}",
                log.events.len()
            );
        }
        None => print!("{rendered}"),
    }
    Ok(())
}

pub(crate) fn fmt_top(entries: &[opa_core::reduce::TopEntry]) -> String {
    entries
        .iter()
        .map(|e| match e.key.as_u64() {
            Some(k) => format!("{k}:{}", e.count),
            None => format!("{:?}:{}", e.key, e.count),
        })
        .collect::<Vec<_>>()
        .join("  ")
}

fn query_checkpoint(args: &Args) -> Result<(), String> {
    let path = args
        .options
        .get("checkpoint")
        .ok_or("--checkpoint FILE is required")?;
    let view = CheckpointView::open(std::path::Path::new(path)).map_err(|e| e.to_string())?;
    let fw = view.framework().map_err(|e| e.to_string())?;
    let p = view.progress();
    println!("checkpoint          {path}");
    println!("framework           {fw:?}");
    println!(
        "batches sealed      {}/{} ({} of {} records)",
        p.batches_sealed, p.batches, p.records_sealed, p.total_records
    );
    println!("maps completed      {}/{}", p.maps_completed, p.maps_total);
    println!("pause point         t={:.1}s", p.sim_time.as_secs_f64());
    if let Some(wm) = p.watermark {
        println!("event-time watermark {wm}");
    }
    if let Some(k) = args.get::<u64>("key")? {
        match view.lookup(&Key::from_u64(k)).and_then(|v| v.as_u64()) {
            Some(v) => println!("key[{k}]             {v}"),
            None => println!("key[{k}]             not resident"),
        }
    }
    if let Some(k) = args.get::<usize>("top-k")? {
        match view.top_k(k) {
            Some((entries, gamma)) => {
                println!("top-{k} (γ ≥ {gamma:.4})   {}", fmt_top(&entries));
            }
            None => println!("top-k               unavailable (not a DINC-hash checkpoint)"),
        }
    }
    Ok(())
}

fn model(args: &Args) -> Result<(), String> {
    use opa_common::units::MB;
    use opa_common::{HardwareSpec, SystemSettings, WorkloadSpec};
    let d = required_bytes(args, "d")?;
    let workload = WorkloadSpec::new(d, args.get_or("km", 1.0)?, args.get_or("kr", 1.0)?);
    let hardware = HardwareSpec::paper_cluster_full();
    let constants = CostConstants::default();

    let system = SystemSettings {
        reducers_per_node: args.get_or("r", 4usize)?,
        chunk_size: args.get_or("chunk-mb", 64u64)? * MB,
        merge_factor: args.get_or("merge-factor", 10usize)?,
    };
    let input = ModelInput::new(system, workload, hardware).map_err(|e| e.to_string())?;
    let bytes = input.io_bytes();
    let t = input.time_measurement(&constants);
    println!("Eq. 1 per-node bytes:");
    println!("  U1 map input     {:>12.0}", bytes.u1);
    println!("  U2 map spill     {:>12.0}", bytes.u2);
    println!("  U3 map output    {:>12.0}", bytes.u3);
    println!("  U4 reduce spill  {:>12.0}", bytes.u4);
    println!("  U5 reduce output {:>12.0}", bytes.u5);
    println!("  total            {:>12.0}", bytes.total());
    println!("Eq. 3 I/O requests: {:.0}", input.io_requests());
    println!(
        "Eq. 4 time: {:.0} s (bytes {:.0} + seeks {:.0} + startup {:.0})",
        t.total(),
        t.byte_time,
        t.seek_time,
        t.startup_time
    );

    if args.has_flag("optimize") {
        let rec = Optimizer::new(workload, hardware, constants)
            .optimize()
            .map_err(|e| e.to_string())?;
        println!(
            "recommendation: C = {} MB, F = {}, R = {} → T = {:.0} s",
            rec.chunk_size / MB,
            rec.merge_factor,
            rec.reducers_per_node,
            rec.modeled_time
        );
    }
    Ok(())
}
