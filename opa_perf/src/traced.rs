//! The traced run: per-layer metrics at one engine thread.
//!
//! Every pass runs (a) the workload's layer job through the public entry
//! point inside a timer — plain, at `par` threads, and with the engine's
//! own `.trace(true)` — and (b) the layer driver of [`crate::layers`],
//! which brackets each call into a layer with a span. Passes repeat until
//! the time budget is spent; every reported time is the median over
//! passes. The streaming, serving and dataflow rows then spend the second
//! half of the budget timing their own layer's public functions the same
//! way. Spans stay in memory and are written out once, at the end.

use crate::layers::{self, LayerCounts};
use crate::metrics::PER_LAYER;
use crate::spans::{self, Recorder};
use crate::stats::{median, percentile, supported_percentile};
use crate::workloads::{
    self, digest, exec_for, JobKind, Ops, Prepared, Sample, Workload, SERVE_JOBS_PER_KIND,
    STREAM_CKPT_EVERY,
};
use crate::{alloc, host, micro, RunResult};
use opa_common::ExecConfig;
use opa_core::cluster::Framework;
use opa_core::dataflow::{Dataflow, Dataset, Handoff, HandoffPolicy};
use opa_core::job::{JobBuilder, JobOutcome};
use opa_core::metrics::JobMetrics;
use opa_stream::SavedState;
use opa_workloads::top_pages::{PageSessionsJob, TopKFunnelJob, TopPagesJoinJob};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Fewest passes of either half, however short the budget.
const MIN_PASSES: usize = 2;
const TOPK: usize = 20;

/// What a traced run accumulates: metric values by name (every per-layer
/// metric starts at 0, idle), operation counts, failed gates and notes.
struct Report {
    values: BTreeMap<&'static str, f64>,
    ops: Ops,
    failures: Vec<String>,
    notes: Vec<String>,
    smoke: bool,
}

impl Report {
    fn new(smoke: bool) -> Self {
        Report {
            values: PER_LAYER.iter().map(|m| (m.name, 0.0)).collect(),
            ops: Ops::default(),
            failures: Vec::new(),
            notes: Vec::new(),
            smoke,
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not in the per-layer table"));
        *slot = value;
    }

    /// Sets `name` to the p-th percentile of `samples` — and fails a gate
    /// when the sample is too small to support that percentile (fewer than
    /// ten samples beyond it), so an unsupported tail is loud instead of
    /// silently being a lower percentile. Smoke runs are exempt.
    fn set_tail(&mut self, name: &'static str, samples: &[f64], p: f64) {
        let (value, used) = supported_percentile(samples, p);
        self.notes
            .push(format!("{name}: {} samples", samples.len()));
        if used < p && !self.smoke {
            self.failures.push(format!(
                "{name}: {} samples support only p{used}, not p{p}",
                samples.len()
            ));
        }
        self.set(name, value);
    }

    /// Fewest passes of either half, however short the budget.
    fn min_passes(&self) -> usize {
        if self.smoke {
            1
        } else {
            MIN_PASSES
        }
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Runs `pass` until `budget` is spent, at least `min` times.
fn passes(budget: Duration, min: usize, mut pass: impl FnMut()) -> usize {
    let deadline = Instant::now() + budget;
    let mut n = 0;
    while n < min || Instant::now() < deadline {
        pass();
        n += 1;
    }
    n
}

pub fn run(w: Workload, seed: u64, seconds: f64, smoke: bool) -> RunResult {
    let mut r = Report::new(smoke);
    let (prep, setup) = workloads::setup(w, seed, smoke);
    r.set("workloads.gen_s", setup.gen_s);
    r.set("workloads.reference_s", setup.reference_s);
    r.set("workloads.warmup_s", setup.warmup_s);

    // Rows with a layer of their own above the engine split the budget.
    let own_layer = matches!(
        w,
        Workload::ClicksStream | Workload::ServeMix | Workload::PagerankFlow
    );
    let half = Duration::from_secs_f64(seconds / 2.0);
    let mut rec = Recorder::new();
    let last_pass = engine_layers(
        &prep,
        if own_layer { half } else { 2 * half },
        &mut rec,
        &mut r,
    );
    match w {
        Workload::ClicksStream => stream_layer(&prep, half, &mut r),
        Workload::ServeMix => serve_layer(&prep, half, &mut r),
        Workload::PagerankFlow => dataflow_layer(&prep, half, &mut r),
        _ => {}
    }

    // All passes' spans fed the metrics above; the files hold the last
    // pass, which is one complete profile (a run records up to a million
    // spans, ~100 B each as JSON).
    let last = spans::from(rec.spans(), last_pass);
    let dir = host::out_dir();
    let file = |ext: &str| dir.join(format!("{}.{ext}", w.name()));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| spans::write_jsonl(&last, &file("spans.jsonl")))
        .and_then(|()| spans::write_chrome(&last, &file("chrome.json")));
    match written {
        Ok(()) => r.notes.push(format!(
            "{} spans recorded; the last pass's {} written to {} and {}",
            rec.spans().len(),
            last.len(),
            file("spans.jsonl").display(),
            file("chrome.json").display()
        )),
        Err(e) => r.failures.push(format!("cannot write span files: {e}")),
    }

    RunResult {
        ops: r.ops,
        gate_failures: r.failures,
        metrics: PER_LAYER
            .iter()
            .map(|m| (m.name, r.values[m.name], m.unit))
            .collect(),
        notes: r.notes,
    }
}

/// What one pass measured of the engine's layers.
struct EnginePass {
    wall_seq: f64,
    wall_par: f64,
    wall_traced: f64,
    cpu_seq: f64,
    cpu_par: f64,
    rollup_ms: f64,
    layer_s: BTreeMap<&'static str, f64>,
    driver_wall: f64,
    driver_self: f64,
    spans: usize,
}

/// The engine-layer half, common to every workload: micro-drivers,
/// allocation counts, then timed passes of entry point and layer driver
/// over the workload's layer job. Returns the index of the last pass's
/// first span.
fn engine_layers(prep: &Prepared, budget: Duration, rec: &mut Recorder, r: &mut Report) -> usize {
    let kind = prep.workload.layer_job();
    let job = kind.boxed();
    let par = host::par_threads();
    let run = |exec: ExecConfig, trace: bool| -> JobOutcome {
        kind.run(kind.framework(), prep.cluster, exec, trace, &prep.input)
    };

    let keys = micro::sample_keys(&*job, &prep.input);
    r.set(
        "common.hash_ns_per_key",
        micro::hash_ns_per_key(&keys, &prep.cluster),
    );
    r.set("common.scan_mb_per_s", micro::scan_mb_per_s(&prep.input));
    r.set("freq.offer_ns_per_key", micro::freq_offer_ns_per_key(&keys));
    r.set(
        "exec.dispatch_ns_per_task",
        micro::dispatch_ns_per_task(par),
    );
    r.set("exec.par_threads", par as f64);
    drop(keys);
    let span_pair_ns = Recorder::calibrate_pair_ns();

    let (_, allocs, bytes) = alloc::counted(|| run(ExecConfig::sequential(), false));
    r.set(
        "alloc.count_per_record",
        allocs as f64 / prep.records() as f64,
    );
    r.set(
        "alloc.bytes_per_record",
        bytes as f64 / prep.records() as f64,
    );

    let mut all: Vec<EnginePass> = Vec::new();
    let mut engine: Option<JobMetrics> = None;
    let mut counts: Option<LayerCounts> = None;
    let (mut trace_events, mut last_pass) = (0usize, 0usize);
    let (min_passes, ops) = (r.min_passes(), &mut r.ops);
    passes(budget, min_passes, || {
        rec.next_run();
        // Every outcome is checked and dropped before the next timed call:
        // a live 30 MB output makes the next job fault in fresh pages
        // instead of reusing freed ones, which slows it by a quarter.
        let cpu0 = host::process_cpu_s();
        let (outcome, wall_seq) = timed(|| run(ExecConfig::sequential(), false));
        let cpu1 = host::process_cpu_s();
        workloads::check_job(prep, kind, &outcome, ops);
        engine = Some(outcome.metrics);

        // The driver runs right after the entry point it is compared with,
        // so the two see the host at the same speed.
        let first = rec.spans().len();
        let (c, driver_output) = layers::drive(
            &*job,
            kind.framework(),
            kind.km_hint(),
            &prep.cluster,
            &prep.input,
            rec,
        );
        // It must do the engine's work, not something like it: the same
        // output, bit for bit, as the entry point's.
        let verdict = prep.output_is_right(kind, &driver_output);
        ops.check(verdict.is_ok(), || {
            format!("layer driver: {}", verdict.unwrap_err())
        });
        drop(driver_output);

        let cpu2 = host::process_cpu_s();
        let (_, wall_par) = timed(|| run(exec_for(par), false));
        let cpu3 = host::process_cpu_s();
        let (traced, wall_traced) = timed(|| run(ExecConfig::sequential(), true));
        let log = traced.trace.expect("traced run carries a trace log");
        trace_events = log.events.len();
        let (_, rollup_s) = timed(|| std::hint::black_box(log.rollup()));
        drop(log);

        let totals = spans::totals_by_name(&spans::from(rec.spans(), first));
        let root = &totals[layers::ROOT];
        all.push(EnginePass {
            wall_seq,
            wall_par,
            wall_traced,
            cpu_seq: cpu1 - cpu0,
            cpu_par: cpu3 - cpu2,
            rollup_ms: rollup_s * 1e3,
            layer_s: layers::LAYER_SPANS
                .iter()
                .map(|&name| {
                    (
                        name,
                        totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9),
                    )
                })
                .collect(),
            driver_wall: root.total_ns as f64 / 1e9,
            driver_self: root.self_ns as f64 / 1e9,
            spans: rec.spans().len() - first,
        });
        last_pass = first;
        if let Some(prev) = counts {
            ops.check(prev == c, || {
                format!("layer counts moved between passes: {prev:?} vs {c:?}")
            });
        }
        counts = Some(c);
    });
    let m = engine.expect("at least one pass ran");
    let c = counts.expect("at least one pass ran");

    // ... and the same bytes moved, on the same simulated clock.
    for (what, driver, engine) in [
        ("map output bytes", c.map_output_bytes, m.map_output_bytes),
        ("shuffle bytes", c.shuffle_bytes, m.shuffle_bytes),
        (
            "reduce spill bytes",
            c.reduce_spill_bytes,
            m.reduce_spill_bytes,
        ),
        ("output records", c.output_records, m.output_records),
        (
            "simulated running time",
            c.sim_running_time.0,
            m.running_time.0,
        ),
    ] {
        r.ops.check(driver == engine, || {
            format!("layer driver {what} {driver} != engine {engine}")
        });
    }

    let med = |f: &dyn Fn(&EnginePass) -> f64| median(&all.iter().map(f).collect::<Vec<_>>());
    let layer = |name: &'static str| med(&|p| p.layer_s[name]);
    let job_wall = med(&|p| p.wall_seq);
    let driver_wall = med(&|p| p.driver_wall);
    let attributed = med(&|p| p.layer_s.values().sum());
    r.set("simio.split_s", layer(layers::SPLIT));
    r.set("simio.chunks", c.chunks as f64);
    r.set("map_phase.compute_s", layer(layers::COMPUTE));
    r.set("map_phase.finish_s", layer(layers::MAP_FINISH));
    r.set("map_phase.tasks", c.tasks as f64);
    r.set("map_phase.output_bytes", c.map_output_bytes as f64);
    let compute_us = spans::durations_us(rec.spans(), layers::COMPUTE);
    r.set("map_phase.compute_us_p50", percentile(&compute_us, 50.0));
    r.set_tail("map_phase.compute_us_p90", &compute_us, 90.0);
    r.set("reduce.make_s", layer(layers::MAKE));
    r.set("reduce.deliver_s", layer(layers::DELIVER));
    r.set("reduce.deliveries", c.deliveries as f64);
    r.set("reduce.effects", c.effects as f64);
    r.set("reduce.replay_s", layer(layers::REPLAY));
    r.set("reduce.finish_s", layer(layers::REDUCE_FINISH));
    r.set("reduce.drop_s", layer(layers::DROP));
    r.set("reduce.spill_bytes", c.reduce_spill_bytes as f64);
    r.set("job.wall_s", job_wall);
    r.set("job.unattributed_s", job_wall - attributed);
    r.set("job.attributed_share", attributed / job_wall * 100.0);
    r.set("job.driver_wall_s", driver_wall);
    r.set("job.driver_self_s", med(&|p| p.driver_self));
    r.set("job.sim_running_time_s", m.running_time.as_secs_f64());
    r.set("job.shuffle_bytes", m.shuffle_bytes as f64);
    r.set("job.output_records", m.output_records as f64);
    r.set("exec.par_speedup", job_wall / med(&|p| p.wall_par));
    r.set("exec.cpu_s_seq", med(&|p| p.cpu_seq));
    r.set("exec.cpu_s_par", med(&|p| p.cpu_par));
    r.set(
        "trace.on_overhead_pct",
        (med(&|p| p.wall_traced) / job_wall - 1.0) * 100.0,
    );
    r.set("trace.events", trace_events as f64);
    r.set("trace.rollup_ms", med(&|p| p.rollup_ms));
    let spans_per_pass = med(&|p| p.spans as f64);
    r.set("bench.spans", spans_per_pass);
    r.set(
        "bench.span_overhead_pct",
        spans_per_pass * span_pair_ns / (driver_wall * 1e9) * 100.0,
    );
    r.set("bench.passes", all.len() as f64);
    r.notes.push(format!(
        "{}: layer job {kind:?}/{} — {} passes, entry point {job_wall:.4} s, layer driver \
         {driver_wall:.4} s, {:.1}% of the entry point's wall attributed to layer spans",
        prep.workload.name(),
        kind.framework().label(),
        all.len(),
        attributed / job_wall * 100.0
    ));
    last_pass
}

/// `opa-stream`: streamed wall against the batch run of the same job right
/// next to it, what a checkpoint costs the batch it lands in, the
/// checkpoint codec, resume, and the live-query calls.
fn stream_layer(prep: &Prepared, budget: Duration, r: &mut Report) {
    // The middle one of the three periodic checkpoints.
    let middle_batch = 2 * STREAM_CKPT_EVERY;
    let middle = prep.tmp.0.join(format!("stream-ckpt-b{middle_batch}.opac"));
    // A checkpoint is written right after its batch's callback returns,
    // so its cost lands in the gap that ends at the *next* pause.
    let ckpt_gap = |i: usize| i > 0 && i.is_multiple_of(STREAM_CKPT_EVERY);
    let mut full = Sample::default();
    let (mut walls, mut plain_gaps, mut ckpt_gaps) = (Vec::new(), Vec::new(), Vec::new());
    let (mut encode_ms, mut decode_ms, mut resume_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut vs_batch = Vec::new();
    let mut ckpt_bytes = 0usize;
    let (min_passes, ops) = (r.min_passes(), &mut r.ops);
    passes(budget, min_passes, || {
        // The plain twin: same stream, no checkpoints, no client.
        let (mut last, mut i) = (Instant::now(), 0usize);
        workloads::stream_builder(prep, 1, false)
            .run_stream(&prep.input, |_| {
                let now = Instant::now();
                if ckpt_gap(i) {
                    plain_gaps.push((now - last).as_secs_f64() * 1e3);
                }
                (last, i) = (now, i + 1);
            })
            .expect("plain stream run");

        let s = workloads::stream_once(prep, 1, ops);
        walls.push(s.wall_s);
        // The batch twin right next to it, so the ratio compares two runs
        // that saw the host at the same speed.
        let (batch, batch_s) = timed(|| {
            let kind = JobKind::ClickCount;
            let seq = ExecConfig::sequential();
            kind.run(kind.framework(), prep.cluster, seq, false, &prep.input)
        });
        drop(batch);
        vs_batch.push(s.wall_s / batch_s);
        ckpt_gaps.extend(
            s.gaps_ms
                .iter()
                .enumerate()
                .filter(|(i, _)| ckpt_gap(*i))
                .map(|(_, g)| *g),
        );
        full.gaps_ms.extend(s.gaps_ms);
        full.lookup_us.extend(s.lookup_us);
        full.progress_us.extend(s.progress_us);

        let buf = std::fs::read(&middle).expect("middle checkpoint was written");
        ckpt_bytes = buf.len();
        let (state, secs) = timed(|| SavedState::decode(&buf));
        decode_ms.push(secs * 1e3);
        match state {
            Ok(state) => {
                let (encoded, secs) = timed(|| state.encode());
                encode_ms.push(secs * 1e3);
                ops.check(encoded == buf, || {
                    "checkpoint does not re-encode to itself".to_string()
                });
            }
            Err(e) => ops.check(false, || format!("middle checkpoint does not decode: {e}")),
        }
        let (resumed, secs) = timed(|| {
            workloads::stream_builder(prep, 1, false)
                .resume_stream(&prep.input, &middle, |_| {})
                .expect("resume from the middle checkpoint")
        });
        resume_s.push(secs);
        workloads::check_job(prep, JobKind::ClickCount, &resumed.job, ops);
        ops.check(resumed.resumed_from_batch == Some(middle_batch), || {
            format!("resumed from batch {:?}", resumed.resumed_from_batch)
        });
    });
    let stream_wall = median(&walls);
    let lookup_ns: Vec<f64> = full.lookup_us.iter().map(|us| us * 1e3).collect();
    let progress_ns: Vec<f64> = full.progress_us.iter().map(|us| us * 1e3).collect();
    r.set("stream.wall_s", stream_wall);
    r.set("stream.vs_batch_ratio", median(&vs_batch));
    r.set_tail("stream.batch_ms_p90", &full.gaps_ms, 90.0);
    r.set("stream.ckpt_bytes", ckpt_bytes as f64);
    r.set(
        "stream.ckpt_pause_ms",
        median(&ckpt_gaps) - median(&plain_gaps),
    );
    r.set("stream.ckpt_encode_ms", median(&encode_ms));
    r.set("stream.ckpt_decode_ms", median(&decode_ms));
    r.set("stream.resume_s", median(&resume_s));
    r.set("stream.lookup_ns_p50", percentile(&lookup_ns, 50.0));
    r.set_tail("stream.lookup_ns_p90", &lookup_ns, 90.0);
    r.set("stream.progress_ns_p50", percentile(&progress_ns, 50.0));
}

/// `opa-serve`: the drain with one tenant per job kind, and every call
/// the client makes into `Server` timed on its own.
fn serve_layer(prep: &Prepared, budget: Duration, r: &mut Report) {
    let mut drains = Vec::new();
    let mut all = Sample::default();
    let mut t = workloads::ServeTimings::default();
    let (min_passes, ops) = (r.min_passes(), &mut r.ops);
    passes(budget, min_passes, || {
        let (s, timings) = workloads::serve_once(prep, true, ops);
        drains.push(s.wall_s);
        all.lookup_us.extend(s.lookup_us);
        all.progress_us.extend(s.progress_us);
        t.submit_us.extend(timings.submit_us);
        t.step_ms.extend(timings.step_ms);
        t.lookup_batch_us.extend(timings.lookup_batch_us);
        t.wait_rounds_mean = timings.wait_rounds_mean;
    });
    let drain = median(&drains);
    r.set("serve.drain_s", drain);
    r.set("serve.jobs_per_s", (2 * SERVE_JOBS_PER_KIND) as f64 / drain);
    r.set("serve.submit_us_p50", percentile(&t.submit_us, 50.0));
    r.set("serve.step_ms_p50", percentile(&t.step_ms, 50.0));
    r.set_tail("serve.step_ms_p90", &t.step_ms, 90.0);
    r.set("serve.lookup_us_p50", percentile(&all.lookup_us, 50.0));
    r.set_tail("serve.lookup_us_p99", &all.lookup_us, 99.0);
    r.set(
        "serve.lookup_batch64_us_p50",
        percentile(&t.lookup_batch_us, 50.0),
    );
    r.set("serve.progress_us_p50", percentile(&all.progress_us, 50.0));
    r.set("serve.wait_rounds_mean", t.wait_rounds_mean);
}

/// `opa_core::dataflow`: the PageRank chain, the `Dataset` conversions a
/// chain pays at its edges, and the top-pages join chain under each of
/// the three handoff policies (the skip path against the two it replaces).
fn dataflow_layer(prep: &Prepared, budget: Duration, r: &mut Report) {
    let cluster = prep.cluster;
    let seq = ExecConfig::sequential();
    // Producers of the join's two inputs run once, outside the passes.
    let freq = JobKind::PageFreq.run(Framework::IncHash, cluster, seq, false, &prep.input);
    let sessions = JobBuilder::new(PageSessionsJob {
        expected_pages: 100_000,
    })
    .framework(Framework::MrHash)
    .cluster(cluster)
    .run(&prep.input)
    .expect("page-sessions producer runs");
    let union = Dataset::union(&freq.dataset(&cluster), &sessions.dataset(&cluster))
        .expect("producers share a partitioning");
    let chain = |policy: HandoffPolicy| {
        Dataflow::new(cluster)
            .then(TopPagesJoinJob, Framework::MrHash)
            .then(TopKFunnelJob { k: TOPK }, Framework::MrHash)
            .policy(policy)
            .run_from(&union)
            .expect("top-pages chain runs")
    };
    const POLICIES: [(HandoffPolicy, &str); 3] = [
        (HandoffPolicy::Auto, "dataflow.skip_chain_ms"),
        (HandoffPolicy::Reshuffle, "dataflow.reshuffle_chain_ms"),
        (HandoffPolicy::Materialize, "dataflow.materialize_chain_ms"),
    ];
    let opadf = prep.tmp.0.join("pagerank.opadf");

    let (mut chain_s, mut to_input_ms, mut write_ms, mut read_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut policy_ms: [Vec<f64>; 3] = Default::default();
    let (mut opadf_bytes, mut bytes_saved) = (0u64, 0u64);
    let (min_passes, ops) = (r.min_passes(), &mut r.ops);
    passes(budget, min_passes, || {
        let (outcome, secs) = timed(|| workloads::run_pagerank(prep, Framework::MrHash, seq));
        chain_s.push(secs);
        let (as_input, secs) = timed(|| outcome.output.to_input());
        to_input_ms.push(secs * 1e3);
        ops.check(as_input.len() == outcome.output.len(), || {
            "Dataset::to_input lost records".to_string()
        });
        let (written, secs) = timed(|| outcome.output.write(&opadf));
        write_ms.push(secs * 1e3);
        ops.check(written.is_ok(), || {
            format!("Dataset::write failed: {written:?}")
        });
        opadf_bytes = std::fs::metadata(&opadf).map_or(0, |m| m.len());
        let (read, secs) = timed(|| Dataset::read(&opadf));
        read_ms.push(secs * 1e3);
        ops.check(
            read.as_ref()
                .is_ok_and(|d| digest(d.pairs()) == digest(outcome.output.pairs())),
            || "Dataset::read did not return what was written".to_string(),
        );

        let mut answers = Vec::new();
        for (slot, (policy, _)) in POLICIES.into_iter().enumerate() {
            let (out, secs) = timed(|| chain(policy));
            policy_ms[slot].push(secs * 1e3);
            if policy == HandoffPolicy::Auto {
                ops.check(out.stages[0].handoff == Handoff::InMemory, || {
                    "the join did not take the in-memory handoff".to_string()
                });
                bytes_saved = out.stages[0].bytes_saved;
            }
            answers.push(digest(out.output.pairs()));
        }
        ops.check(
            answers.iter().all(|a| *a == answers[0] && a.records > 0),
            || format!("handoff policies disagree: {answers:?}"),
        );
    });
    r.set("dataflow.chain_s", median(&chain_s));
    r.set("dataflow.to_input_ms", median(&to_input_ms));
    r.set("dataflow.opadf_write_ms", median(&write_ms));
    r.set("dataflow.opadf_read_ms", median(&read_ms));
    r.set("dataflow.opadf_bytes", opadf_bytes as f64);
    for ((_, name), ms) in POLICIES.into_iter().zip(&policy_ms) {
        r.set(name, median(ms));
    }
    r.set("dataflow.bytes_saved", bytes_saved as f64);
}
