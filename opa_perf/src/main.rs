//! `opa_perf` — the repo's host-time benchmark.
//!
//! ```text
//! opa_perf --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out REPORT.json]
//! opa_perf [--seed N] [--seconds S] [--trace 0|1] [--smoke]      # every workload, one child each
//! opa_perf --aa [--seed N] [--seconds S] [--smoke]               # A/A: two sets of runs, compared
//! opa_perf --manifest                                            # prints BENCHMARK.json
//! ```
//!
//! With `--workload`, the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: every end-to-end
//! metric with `--trace 0` (tracing off, public entry points only), every
//! per-layer metric with `--trace 1` (the benchmark's own spans around
//! each layer's public functions). Any failed check exits non-zero after
//! the metrics are printed. See `README.md` next to this package.

mod alloc;
mod calib;
mod host;
mod json;
mod layers;
mod metrics;
mod micro;
mod spans;
mod stats;
mod traced;
mod workloads;

use json::{Json, JsonExt};
use metrics::{END_TO_END, PER_LAYER, RUN_SECONDS};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Ops, Sample, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Untraced runs per set in `--aa` mode.
const AA_RUNS: usize = 3;
/// One-thread operations run first, before any multi-threaded one, over
/// which peak RSS is read.
const RSS_OPS: usize = 3;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    aa: bool,
    manifest: bool,
    out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        aa: false,
        manifest: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                a.workload = Some(Workload::parse(name).ok_or_else(|| {
                    let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?}; one of {}", known.join(", "))
                })?);
            }
            "--seed" => {
                a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            "--traced" => a.trace = true,
            "--smoke" => a.smoke = true,
            "--aa" => a.aa = true,
            "--manifest" => a.manifest = true,
            "--out" => a.out = Some(value()?.to_string()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

/// One workload's result: the contract's four keys plus what the human
/// report and `--out` add.
pub(crate) struct RunResult {
    pub ops: Ops,
    /// Non-vacuity gates that failed (empty when the run is sound).
    pub gate_failures: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Free-form report lines: spreads, sample counts, breakdowns.
    pub notes: Vec<String>,
}

impl RunResult {
    fn correct(&self) -> bool {
        self.ops.failed == 0 && self.gate_failures.is_empty()
    }

    fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.ops.attempted as f64)),
            ("failed", Json::Num(self.ops.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|&(name, value, unit)| {
                    (
                        name,
                        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                    )
                })),
            ),
        ])
    }
}

fn describe(label: &str, unit: &str, values: &[f64]) -> String {
    match stats::summarize(values) {
        Some(s) => format!(
            "{label}: median {:.4} {unit} (q1 {:.4}, q3 {:.4}, min {:.4}, max {:.4}, n {}, \
             iqr/median {:.1}%)",
            s.median,
            s.q1,
            s.q3,
            s.min,
            s.max,
            s.n,
            s.spread() * 100.0
        ),
        None => format!("{label}: no samples"),
    }
}

/// Every sample in measurement order, so a report shows drift and bursts
/// that a five-number summary hides.
fn in_order(label: &str, values: &[f64]) -> String {
    let list: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    format!("{label}, in order: {}", list.join(" "))
}

/// Lookup hits must be positive and the same in every operation of a
/// thread setting: the queries hit live state at deterministic points.
fn gate_hits(w: Workload, label: &str, ops: &[Timed], failures: &mut Vec<String>) {
    if !matches!(w, Workload::ClicksStream | Workload::ServeMix) {
        return;
    }
    let first = ops[0].sample.hits;
    if first == 0 {
        failures.push(format!("{label}: lookups never hit (vacuous)"));
    }
    if ops.iter().any(|t| t.sample.hits != first) {
        failures.push(format!(
            "{label}: lookup hit count differs between operations"
        ));
    }
}

/// One timed operation with the factor that normalizes its times to the
/// host's nominal speed (see [`calib`]).
struct Timed {
    sample: Sample,
    scale: f64,
}

fn normalized_walls(ops: &[Timed]) -> Vec<f64> {
    ops.iter().map(|t| t.sample.wall_s * t.scale).collect()
}

fn raw_walls(ops: &[Timed]) -> Vec<f64> {
    ops.iter().map(|t| t.sample.wall_s).collect()
}

/// The workload's answer-gap profile: gap `k` is the median, over all
/// operations, of the normalized `k`-th gap. Every operation of a workload
/// pauses at the same points, so the profiles line up index by index — and
/// a median taken per index and then across indices does not wander the
/// way a median of the pooled gaps does when the profile is uneven (a
/// stream's checkpoint batches, a server's admission rounds).
fn gap_profile(ops: &[Timed]) -> Vec<f64> {
    (0..ops[0].sample.gaps_ms.len())
        .map(|k| {
            let kth: Vec<f64> = ops
                .iter()
                .filter_map(|t| t.sample.gaps_ms.get(k).map(|g| g * t.scale))
                .collect();
            stats::median(&kth)
        })
        .collect()
}

/// The untraced run: end-to-end metrics through the public entry points.
/// Every timing is taken raw, normalized to the host's nominal speed, and
/// reported as the median of the normalized values.
fn run_end_to_end(w: Workload, args: &Args) -> RunResult {
    let par = host::par_threads();
    let mut cal = calib::Calibrator::new();

    let (mut setup_raw, mut setup_norm) = (Vec::new(), Vec::new());
    let mut prepared = None;
    for _ in 0..if args.smoke { 1 } else { SETUPS } {
        // Drop the previous input first so set-up never holds two.
        drop(prepared.take());
        let ((p, t), scale) = cal.around(|| workloads::setup(w, args.seed, args.smoke));
        setup_raw.push(t.total_s());
        setup_norm.push(t.total_s() * scale);
        prepared = Some(p);
    }
    let prep = prepared.expect("at least one set-up ran");

    let mut ops = Ops::default();
    let mut timed = |threads: usize| {
        let (sample, scale) = cal.around(|| workloads::run_once(&prep, threads, &mut ops));
        Timed { sample, scale }
    };
    let (mut seq, mut par_ops, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    // Memory first: peak RSS is read over operations that run before the
    // process has ever been multi-threaded, while the allocator's state is
    // still a function of the input alone (worker threads bring arenas of
    // their own, and what they leave behind depends on timing).
    for _ in 0..if args.smoke { 1 } else { RSS_OPS } {
        host::reset_peak_rss();
        seq.push(timed(1));
        peaks.push(host::peak_rss_mb());
    }
    // Then time: one and `par` threads interleaved, so what drift
    // normalization leaves lands on both settings alike.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while par_ops.is_empty() || (Instant::now() < deadline && !args.smoke) {
        seq.push(timed(1));
        par_ops.push(timed(par));
    }

    let mut gate_failures = Vec::new();
    gate_hits(w, "1 thread", &seq, &mut gate_failures);
    gate_hits(w, "par threads", &par_ops, &mut gate_failures);

    let pauses = seq[0].sample.gaps_ms.len();
    if seq.iter().any(|t| t.sample.gaps_ms.len() != pauses) {
        gate_failures.push("operations paused a different number of times".into());
    }
    let gaps = gap_profile(&seq);
    let records = prep.records_per_op() as f64;
    let values = [
        stats::median(&setup_norm),
        records / stats::median(&normalized_walls(&seq)),
        records / stats::median(&normalized_walls(&par_ops)),
        peaks.iter().copied().fold(f64::INFINITY, f64::min),
        stats::median(&gaps),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, v, m.unit))
        .collect();
    let notes = vec![
        format!(
            "{}: {} input records, {} per operation, par = {par} threads{}",
            w.name(),
            prep.records(),
            prep.records_per_op(),
            if par > host::nproc() {
                " (oversubscribed)"
            } else {
                ""
            }
        ),
        describe("set-up, raw", "s", &setup_raw),
        describe("set-up, normalized", "s", &setup_norm),
        describe("operation wall, 1 thread, raw", "s", &raw_walls(&seq)),
        describe(
            "operation wall, 1 thread, normalized",
            "s",
            &normalized_walls(&seq),
        ),
        describe(
            &format!("operation wall, {par} threads, raw"),
            "s",
            &raw_walls(&par_ops),
        ),
        describe(
            &format!("operation wall, {par} threads, normalized"),
            "s",
            &normalized_walls(&par_ops),
        ),
        describe("answer-gap profile, 1 thread, normalized", "ms", &gaps),
        in_order("answer-gap profile ms", &gaps),
        describe("peak RSS of the first 1-thread operations", "MB", &peaks),
        describe(
            &format!(
                "calibration scale (nominal {} ms / kernel time)",
                calib::NOMINAL_S * 1e3
            ),
            "x",
            &seq.iter()
                .chain(&par_ops)
                .map(|t| t.scale)
                .collect::<Vec<_>>(),
        ),
        in_order("operation wall s, 1 thread, raw", &raw_walls(&seq)),
        in_order(
            &format!("operation wall s, {par} threads, raw"),
            &raw_walls(&par_ops),
        ),
    ];
    RunResult {
        ops,
        gate_failures,
        metrics,
        notes,
    }
}

fn run_workload(w: Workload, args: &Args) -> ExitCode {
    println!("host: {}", host::facts(args.seed).render());
    let result = if args.trace {
        traced::run(w, args.seed, args.seconds, args.smoke)
    } else {
        run_end_to_end(w, args)
    };
    for note in &result.notes {
        println!("{note}");
    }
    for (name, value, unit) in &result.metrics {
        println!("  {name:<34} {value:>16.4} {unit}");
    }
    for failure in &result.gate_failures {
        println!("GATE FAILED: {failure}");
    }
    println!(
        "ops: {} attempted, {} failed",
        result.ops.attempted, result.ops.failed
    );
    let line = result.result_line();
    if let Some(path) = &args.out {
        let report = Json::obj([
            ("workload", Json::str(w.name())),
            ("trace", Json::Bool(args.trace)),
            ("smoke", Json::Bool(args.smoke)),
            ("host", host::facts(args.seed)),
            (
                "notes",
                Json::Arr(result.notes.iter().map(Json::str).collect()),
            ),
            ("result", line.clone()),
        ]);
        if let Err(e) = std::fs::write(path, report.render_pretty()) {
            eprintln!("opa_perf: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", line.render());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in a fresh child process (so allocator state and
/// peak RSS are its own) and returns its parsed result line.
fn run_child(w: Workload, args: &Args, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let line = Json::parse(last).map_err(|e| {
        format!(
            "{}: no result line ({e}); stderr: {}",
            w.name(),
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    if !out.status.success() || line.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{}: run failed its checks: {last}", w.name()));
    }
    Ok(line)
}

fn metric_value(line: &Json, name: &str) -> Option<f64> {
    line.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Every workload (or the chosen pass of it) in a child each.
fn run_suite(args: &Args) -> ExitCode {
    println!("host: {}", host::facts(args.seed).render());
    let mut failed = false;
    for w in Workload::ALL {
        match run_child(w, args, args.trace) {
            Ok(line) => {
                println!("{}", w.name());
                for (name, m) in line.get("metrics").map(Json::fields).unwrap_or_default() {
                    let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                    let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                    println!("  {name:<34} {value:>16.4} {unit}");
                }
            }
            Err(e) => {
                failed = true;
                println!("{e}");
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// A/A: two sets of runs of one build on one seed. Per workload, the
/// untraced run [`AA_RUNS`] times per set, the sets interleaved (A B A B …)
/// so a slow spell of the host lands on both, and the traced run once per
/// set. Each end-to-end metric's two medians must agree within its bound
/// and every exact count of the traced run must repeat exactly; anything
/// else exits non-zero.
fn run_aa(args: &Args) -> ExitCode {
    println!("host: {}", host::facts(args.seed).render());
    let exact = || PER_LAYER.iter().filter(|m| m.exact);
    let mut failed = false;
    for w in Workload::ALL {
        println!("{}", w.name());
        let runs: Result<Vec<Json>, String> = (0..2 * AA_RUNS)
            .map(|_| run_child(w, args, false))
            .chain((0..2).map(|_| run_child(w, args, true)))
            .collect();
        let runs = match runs {
            Ok(runs) => runs,
            Err(e) => {
                failed = true;
                println!("  {e}");
                continue;
            }
        };
        let (untraced, traced) = runs.split_at(2 * AA_RUNS);
        for m in &END_TO_END {
            let set_median = |set: usize| {
                let values: Vec<f64> = untraced
                    .iter()
                    .skip(set)
                    .step_by(2)
                    .filter_map(|line| metric_value(line, m.name))
                    .collect();
                stats::median(&values)
            };
            let (va, vb) = (set_median(0), set_median(1));
            let diff = m.better.worsening(va, vb).abs();
            // NaN (a missing or zero metric) must fail, not pass.
            let ok = diff <= m.bound;
            failed |= !ok;
            println!(
                "  {:<22} {va:>14.4} {vb:>14.4} {:<4} diff {:>5.1}%  bound {:>2.0}%  {}",
                m.name,
                m.unit,
                diff * 100.0,
                m.bound * 100.0,
                if ok { "ok" } else { "EXCEEDS BOUND" }
            );
        }
        let moved: Vec<_> = exact()
            .filter(|m| metric_value(&traced[0], m.name) != metric_value(&traced[1], m.name))
            .collect();
        for m in &moved {
            println!(
                "  {:<28} {:?} vs {:?}  EXACT COUNT MOVED",
                m.name,
                metric_value(&traced[0], m.name),
                metric_value(&traced[1], m.name)
            );
        }
        failed |= !moved.is_empty();
        println!(
            "  exact counts: {} of {} identical",
            exact().count() - moved.len(),
            exact().count()
        );
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("opa_perf: {e}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", metrics::manifest().render_pretty());
        return ExitCode::SUCCESS;
    }
    match (args.workload, args.aa) {
        (Some(w), _) => run_workload(w, &args),
        (None, true) => run_aa(&args),
        (None, false) => run_suite(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn driver_command_line_parses() {
        let a = args("--workload clicks_inc --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::ClicksInc));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let d = args("").unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.trace),
            (42, RUN_SECONDS as f64, false)
        );
        assert!(d.workload.is_none());
    }

    #[test]
    fn bad_command_lines_are_errors() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--seconds -1",
            "--seconds inf",
            "--trace 2",
            "--seed",
            "--frobnicate",
        ] {
            assert!(args(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = RunResult {
            ops: Ops {
                attempted: 10,
                failed: 1,
            },
            gate_failures: Vec::new(),
            metrics: vec![("setup_s", 0.5, "s")],
            notes: Vec::new(),
        };
        let line = r.result_line();
        let keys: Vec<_> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(metric_value(&line, "setup_s"), Some(0.5));
        assert_eq!(
            line.render(),
            "{\"correct\": false, \"attempted\": 10, \"failed\": 1, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
