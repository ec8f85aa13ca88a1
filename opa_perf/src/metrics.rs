//! The benchmark's metric tables — the single definition `BENCHMARK.json`,
//! the result lines and the A/A comparison are all generated from.

use crate::json::{Json, JsonExt};
use crate::workloads::Workload;

/// Seconds one run measures for (`--seconds`, and `run_seconds` in the
/// manifest). The acceptance driver makes 4 + 22 × 6 runs inside 3420 s
/// including two builds, which leaves ~24 s per run for three set-ups,
/// the measurement and process start-up.
pub const RUN_SECONDS: u64 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// How much worse `b` is than `a`, as a share of `a` (negative when
    /// `b` is better).
    pub fn worsening(self, a: f64, b: f64) -> f64 {
        match self {
            Better::Higher => (a - b) / a,
            Better::Lower => (b - a) / a,
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// What a user of the system sees. Every workload reports every one of
/// these (untraced run), so each is defined to make sense on all six. A
/// run repeats the workload's operation for `--seconds`, one and `par`
/// engine threads interleaved; every timing is normalized to the host's
/// nominal speed (see `calib`) and reported as a median:
///
/// - `setup_s`: input generation + reference answer + warm-up run; the
///   median of three set-ups per run. Loosest bound: it is the shortest
///   and least repeated measurement.
/// - `records_per_s`: input records of one operation ÷ median operation
///   wall time at one engine thread (`serve_mix`: one tenant, so its
///   eight jobs run one at a time).
/// - `records_per_s_par`: the same at `par = clamp(nproc, 2, 4)` engine
///   threads (`serve_mix`: one tenant per job kind, two jobs concurrent).
/// - `peak_rss_mb`: `VmHWM` of the workload's process over its leanest
///   one-thread operation, of the three that run before any
///   multi-threaded one (the mark is reset before each where the kernel
///   allows; otherwise it covers set-up too).
/// - `batch_p50_ms`: median wall time between consecutive moments the
///   client can read a fresher answer, one thread — how stale an answer
///   can be: the job or chain time on the batch rows, the gap between
///   pause callbacks on `clicks_stream`, between `step()` returns on
///   `serve_mix`. Taken per pause index across operations, then across
///   the indices.
///
/// The bounds are what this class of host can resolve, not what one would
/// wish for. Over ten runs on ten seeds, taken while the host was in a
/// noisy spell, the normalized timings spread (IQR/median) 2–8 % at one
/// thread, 4–9 % at `par` and 5–10 % for the gap profile (the raw medians
/// under them: 8–18 %); a bound has to stand well clear of that or the
/// benchmark rejects its own A/A runs, so every timing gets the 0.25 the
/// contract allows. Peak RSS repeats within 0.5 % on a seed but moves up to
/// 10 % between seeds on the rows whose state size depends on the data
/// (`sessions_dinc`, `pagerank_flow`), hence 0.20.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "records_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "records_per_s_par",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "batch_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count that is a function of the input alone: it must repeat
    /// exactly between two runs of one build on one seed (the `=` of the
    /// README's tables), and must not move under a host-time optimisation.
    pub exact: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        exact: false,
    }
}

/// An exact count. It has no better direction of its own — it guards the
/// timings next to it — so it is declared "lower": less work.
const fn exact(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

/// Single-layer metrics (traced run), named `<module>.<metric>` after the
/// crate or `opa-core` module they time. Every workload reports every one;
/// a layer the workload does not exercise reads 0 (idle). The README's
/// table says which end-to-end metric each should move, on which workload.
pub const PER_LAYER: [PerLayer; 73] = [
    lower("workloads.gen_s", "s"),
    lower("workloads.reference_s", "s"),
    lower("workloads.warmup_s", "s"),
    lower("simio.split_s", "s"),
    exact("simio.chunks", "count"),
    lower("map_phase.compute_s", "s"),
    lower("map_phase.compute_us_p50", "us"),
    lower("map_phase.compute_us_p90", "us"),
    lower("map_phase.finish_s", "s"),
    exact("map_phase.tasks", "count"),
    exact("map_phase.output_bytes", "B"),
    lower("common.hash_ns_per_key", "ns"),
    higher("common.scan_mb_per_s", "MB/s"),
    lower("reduce.make_s", "s"),
    lower("reduce.deliver_s", "s"),
    exact("reduce.deliveries", "count"),
    exact("reduce.effects", "count"),
    lower("reduce.replay_s", "s"),
    lower("reduce.finish_s", "s"),
    lower("reduce.drop_s", "s"),
    exact("reduce.spill_bytes", "B"),
    lower("freq.offer_ns_per_key", "ns"),
    lower("job.wall_s", "s"),
    lower("job.unattributed_s", "s"),
    higher("job.attributed_share", "%"),
    lower("job.driver_wall_s", "s"),
    lower("job.driver_self_s", "s"),
    exact("job.sim_running_time_s", "s"),
    exact("job.shuffle_bytes", "B"),
    exact("job.output_records", "count"),
    lower("exec.par_threads", "count"),
    higher("exec.par_speedup", "x"),
    lower("exec.cpu_s_seq", "s"),
    lower("exec.cpu_s_par", "s"),
    lower("exec.dispatch_ns_per_task", "ns"),
    exact("alloc.count_per_record", "count"),
    exact("alloc.bytes_per_record", "B"),
    lower("trace.on_overhead_pct", "%"),
    exact("trace.events", "count"),
    lower("trace.rollup_ms", "ms"),
    lower("bench.span_overhead_pct", "%"),
    exact("bench.spans", "count"),
    higher("bench.passes", "count"),
    lower("stream.wall_s", "s"),
    lower("stream.vs_batch_ratio", "x"),
    lower("stream.batch_ms_p90", "ms"),
    exact("stream.ckpt_bytes", "B"),
    lower("stream.ckpt_pause_ms", "ms"),
    lower("stream.ckpt_encode_ms", "ms"),
    lower("stream.ckpt_decode_ms", "ms"),
    lower("stream.resume_s", "s"),
    lower("stream.lookup_ns_p50", "ns"),
    lower("stream.lookup_ns_p90", "ns"),
    lower("stream.progress_ns_p50", "ns"),
    lower("serve.drain_s", "s"),
    higher("serve.jobs_per_s", "1/s"),
    lower("serve.submit_us_p50", "us"),
    lower("serve.step_ms_p50", "ms"),
    lower("serve.step_ms_p90", "ms"),
    lower("serve.lookup_us_p50", "us"),
    lower("serve.lookup_us_p99", "us"),
    lower("serve.lookup_batch64_us_p50", "us"),
    lower("serve.progress_us_p50", "us"),
    exact("serve.wait_rounds_mean", "count"),
    lower("dataflow.chain_s", "s"),
    lower("dataflow.to_input_ms", "ms"),
    lower("dataflow.opadf_write_ms", "ms"),
    lower("dataflow.opadf_read_ms", "ms"),
    exact("dataflow.opadf_bytes", "B"),
    lower("dataflow.skip_chain_ms", "ms"),
    lower("dataflow.reshuffle_chain_ms", "ms"),
    lower("dataflow.materialize_chain_ms", "ms"),
    exact("dataflow.bytes_saved", "B"),
];

/// The command the acceptance driver runs from the root of a checkout; it
/// appends `--workload W --seed N --seconds S --trace 0|1`.
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "opa_perf/Cargo.toml",
    "--",
];

/// `BENCHMARK.json`, exactly the keys the builder's contract names.
pub fn manifest() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        ("command", strs(&COMMAND)),
        ("paths", strs(&["opa_perf"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_manifest_limits() {
        let mut seen = HashSet::new();
        for w in Workload::ALL {
            assert!(valid_name(w.name()) && seen.insert(w.name()));
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(manifest().render_pretty().len() <= 64 * 1024);
    }

    /// `BENCHMARK.json` at the repository root is this module's output:
    /// regenerate it with `opa_perf --manifest > BENCHMARK.json`.
    #[test]
    fn committed_manifest_is_generated_from_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest().render_pretty());
    }

    #[test]
    fn worsening_follows_direction() {
        assert!((Better::Higher.worsening(100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((Better::Lower.worsening(100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!(Better::Higher.worsening(100.0, 120.0) < 0.0);
    }
}
