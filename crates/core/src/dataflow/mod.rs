//! Multi-job in-memory dataflow: partition-stable chaining.
//!
//! The paper's engine runs one MapReduce job at a time; real analytics
//! pipelines (PageRank rounds, multi-step sessionization, join-then-rank
//! reports) chain several. Chaining through the distributed filesystem —
//! job N writes its reduce output, job N+1 re-reads, re-maps and
//! *re-shuffles* it — pays the full `U_1..U_5` I/O bill between every
//! pair of jobs. This module keeps the handoff in memory instead, in the
//! spirit of M3R (Shinnar et al., VLDB 2012): job N's reduce output stays
//! resident as a partition-bucketed [`Dataset`], and when the downstream
//! job's partitioning is *compatible*, the shuffle is skipped outright —
//! the engine places each partition's map task on the node its reducer
//! runs on, and the pair exchanges its data in place, contributing zero
//! shuffle bytes. As in M3R, partition stability comes from *where* a
//! task is placed, not from a second runtime: every stage, whatever its
//! handoff, is one run of the same [`Engine`].
//!
//! Compatibility is checked, never assumed, in three parts:
//!
//! 1. **Partition-function identity** — the dataset's [`PartitionSpec`]
//!    (hash-family seed + fan-out) must equal the downstream stage's.
//! 2. **Job declaration** — the job must declare
//!    [`Job::partition_preserving`]: its map emits every output pair
//!    under a key hashing to the same `h1` partition as the input key.
//! 3. **Runtime verification** — the dataset's carried `h1` fingerprints
//!    are re-checked against the partition function
//!    ([`Dataset::verify_placement`]), and the engine checks every
//!    payload a colocated map task ships: one bound for a foreign
//!    partition makes [`Dataflow::run`] return an error.
//!
//! When check 1 or 2 fails, or the fingerprints do not verify, the stage
//! takes a real shuffle instead, so a missing declaration costs
//! performance, never correctness; a *wrong* one fails loudly instead of
//! silently splitting key groups. The path taken is
//! recorded per stage in [`StageReport::handoff`] and, when tracing is
//! on, as `stage_start` / `stage_handoff` / `reshuffle_skipped` events
//! in the chain's [`TraceLog`].
//!
//! Determinism: every stage is an engine run, so a [`DataflowOutcome`]
//! is bit-identical at any thread count by the single-job engine's own
//! contract (see [`crate::engine`]).
//!
//! # Example
//!
//! A two-stage chain where the second stage's map keeps keys unchanged
//! (and says so), letting the handoff skip the shuffle:
//!
//! ```
//! use opa_common::{Key, Value};
//! use opa_core::api::{Job, ReduceCtx};
//! use opa_core::cluster::{ClusterSpec, Framework};
//! use opa_core::dataflow::{Dataflow, Handoff};
//! use opa_core::job::JobInput;
//!
//! /// Counts each record's first byte.
//! struct Count;
//! impl Job for Count {
//!     fn name(&self) -> &str { "count" }
//!     fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
//!         emit(&record[..1], &1u64.to_be_bytes());
//!     }
//!     fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
//!         let n: u64 = values.iter().filter_map(Value::as_u64).sum();
//!         ctx.emit(key.clone(), Value::from_u64(n));
//!     }
//! }
//!
//! /// Doubles each count, key unchanged — partition-preserving.
//! struct Double;
//! impl Job for Double {
//!     fn name(&self) -> &str { "double" }
//!     fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
//!         let (k, v) = opa_common::decode_kv(record).expect("framed");
//!         let n = u64::from_be_bytes(v.try_into().expect("u64 value"));
//!         emit(k, &(2 * n).to_be_bytes());
//!     }
//!     fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
//!         for v in values { ctx.emit(key.clone(), v); }
//!     }
//!     fn partition_preserving(&self) -> bool { true }
//! }
//!
//! let input = JobInput::from_records(
//!     (0..200u8).map(|i| vec![i % 7, b'x']).collect(),
//! );
//! let outcome = Dataflow::new(ClusterSpec::tiny())
//!     .then(Count, Framework::MrHash)
//!     .then(Double, Framework::MrHash)
//!     .run(&input)
//!     .expect("chain runs");
//!
//! // The second stage skipped its shuffle entirely.
//! assert_eq!(outcome.stages[1].handoff, Handoff::InMemory);
//! assert_eq!(outcome.stages[1].metrics.map_output_bytes, 0);
//! assert!(outcome.stages[1].bytes_saved > 0);
//! assert_eq!(outcome.output.len(), 7);
//! ```

mod ckpt;
mod dataset;

pub use ckpt::StageCheckpoint;
pub use dataset::{Dataset, PartitionSpec};

use crate::api::{Handle, Job, JobRef};
use crate::cluster::{ClusterSpec, Framework};
use crate::engine::Engine;
use crate::job::{JobInput, JobOutcome, PoisonedRecord, RunConfig};
use crate::metrics::JobMetrics;
use opa_common::fault::FaultConfig;
use opa_common::{Error, ExecConfig, Pair, Result};
use opa_trace::{TraceEvent, TraceLog, Tracer};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// How a [`Dataflow`] hands each stage's output to the next stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HandoffPolicy {
    /// Skip the shuffle whenever the compatibility checks pass; fall
    /// back to a real reshuffle otherwise. The default.
    #[default]
    Auto,
    /// Always reshuffle through the engine, even when the skip would be
    /// safe. The baseline the skip is measured against.
    Reshuffle,
    /// Materialize the handoff through a real file (write, read back,
    /// reshuffle) — the classic job-chaining-through-HDFS behaviour.
    Materialize,
}

/// The handoff a stage's *input* actually crossed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Handoff {
    /// First stage: raw job input records.
    Source,
    /// Partition-stable in-memory handoff — the shuffle was skipped.
    InMemory,
    /// The upstream dataset was re-shuffled through the engine.
    Reshuffled,
    /// The upstream dataset crossed a real file before reshuffling.
    Materialized,
}

impl Handoff {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Handoff::Source => "source",
            Handoff::InMemory => "in-memory",
            Handoff::Reshuffled => "reshuffled",
            Handoff::Materialized => "materialized",
        }
    }
}

/// One stage's summary within a [`DataflowOutcome`].
#[derive(Debug)]
pub struct StageReport {
    /// The stage's job name.
    pub name: String,
    /// Framework label the stage ran under.
    pub framework: String,
    /// How the stage's input arrived.
    pub handoff: Handoff,
    /// Records entering the stage.
    pub records_in: u64,
    /// Bytes entering the stage (framed dataflow records, or raw input
    /// bytes for the source stage).
    pub bytes_in: u64,
    /// Records the stage produced.
    pub records_out: u64,
    /// Bytes the stage produced (framed dataflow-record form).
    pub bytes_out: u64,
    /// Shuffle bytes the in-memory handoff avoided (0 unless
    /// [`Handoff::InMemory`]).
    pub bytes_saved: u64,
    /// The stage's full engine metrics.
    pub metrics: JobMetrics,
    /// Records the stage's map UDF quarantined, in the order their chunks
    /// committed (offsets index the stage's own input).
    pub dlq: Vec<PoisonedRecord>,
}

/// Everything a finished chain yields.
#[derive(Debug)]
pub struct DataflowOutcome {
    /// Per-stage reports, in execution order. Stages restored from a
    /// checkpoint (not re-executed) have no report.
    pub stages: Vec<StageReport>,
    /// The final stage's output, resident and partition-bucketed — ready
    /// to feed another chain.
    pub output: Dataset,
    /// Chain-level trace (`stage_start` / `stage_handoff` /
    /// `reshuffle_skipped`, ordinal-time), when tracing was enabled.
    /// Per-stage engine detail lives in each [`StageReport::metrics`].
    pub trace: Option<TraceLog>,
    /// `Some(k)` when the run restored stage `k`'s checkpointed output
    /// and resumed at stage `k + 1`.
    pub resumed_from: Option<usize>,
}

impl DataflowOutcome {
    /// The final output sorted by key then value — canonical form for
    /// correctness comparisons, matching [`JobOutcome::sorted_output`].
    pub fn sorted_output(&self) -> Vec<Pair> {
        self.output.sorted_pairs()
    }
}

/// One stage of a chain: a job plus the framework to run it under.
struct Stage {
    job: Box<dyn Job>,
    framework: Framework,
}

/// A chain of jobs executed with in-memory handoffs where possible.
///
/// Build with [`Dataflow::new`], append stages with [`Dataflow::then`],
/// then [`Dataflow::run`] (from raw records) or [`Dataflow::run_from`]
/// (from a resident [`Dataset`], e.g. a previous chain's or stream
/// window's output).
pub struct Dataflow {
    cluster: ClusterSpec,
    stages: Vec<Stage>,
    exec: ExecConfig,
    policy: HandoffPolicy,
    trace: bool,
    faults: FaultConfig,
    checkpoint_dir: Option<PathBuf>,
    resume: bool,
}

impl Dataflow {
    /// Starts a chain on `cluster` (every stage's default).
    pub fn new(cluster: ClusterSpec) -> Self {
        Dataflow {
            cluster,
            stages: Vec::new(),
            exec: ExecConfig::sequential(),
            policy: HandoffPolicy::Auto,
            trace: false,
            faults: FaultConfig::disabled(),
            checkpoint_dir: None,
            resume: false,
        }
    }

    /// Appends a stage running `job` under `framework`.
    pub fn then(mut self, job: impl Job + 'static, framework: Framework) -> Self {
        self.stages.push(Stage {
            job: Box::new(job),
            framework,
        });
        self
    }

    /// Selects the handoff policy (default [`HandoffPolicy::Auto`]).
    pub fn policy(mut self, policy: HandoffPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the execution-layer thread count (see
    /// [`JobBuilder::threads`](crate::job::JobBuilder::threads)).
    pub fn threads(mut self, threads: usize) -> Self {
        self.exec = ExecConfig::with_threads(threads);
        self
    }

    /// Sets the full execution-layer configuration.
    pub fn exec(mut self, exec: ExecConfig) -> Self {
        self.exec = exec;
        self
    }

    /// Turns on chain-level tracing: the outcome then carries a
    /// [`TraceLog`] of `stage_*` events (ordinal time: `t` = stage
    /// index). The stages' own engine events are not recorded: the
    /// outcome has nowhere to carry them.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Enables deterministic fault injection for every stage of the
    /// chain, whatever handoff it takes (see
    /// [`JobBuilder::faults`](crate::job::JobBuilder::faults)).
    pub fn faults(mut self, cfg: FaultConfig) -> Self {
        self.faults = cfg;
        self
    }

    /// Writes each stage's output dataset to `dir` as it completes
    /// (`stage-<i>.opadf`), enabling [`Dataflow::resume`].
    pub fn checkpoints(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// On the next run, restore the latest matching stage checkpoint
    /// from the configured directory and resume mid-pipeline after it.
    pub fn resume(mut self, on: bool) -> Self {
        self.resume = on;
        self
    }

    /// Fingerprint of the chain's identity: stage job names, frameworks
    /// and partition functions, in order. Checkpoints from a different
    /// chain (or an edited one) never restore.
    fn fingerprint(&self) -> u64 {
        let spec = &self.cluster;
        let parts: Vec<String> = self
            .stages
            .iter()
            .flat_map(|s| {
                [
                    s.job.name().to_string(),
                    s.framework.label().to_string(),
                    format!("{}/{}", spec.hash_seed, spec.total_reducers()),
                ]
            })
            .collect();
        ckpt::chain_fingerprint(parts.iter().map(String::as_str))
    }

    /// Runs the chain from raw input records (the first stage reads them
    /// through the ordinary engine).
    pub fn run(&self, input: &JobInput) -> Result<DataflowOutcome> {
        self.execute(Some(input), None)
    }

    /// Runs the chain from a resident dataset — a previous chain's
    /// output, or a [`JobOutcome::dataset`] / stream-window result. The
    /// first stage is handoff-eligible like any later stage.
    pub fn run_from(&self, dataset: &Dataset) -> Result<DataflowOutcome> {
        self.execute(None, Some(dataset))
    }

    fn execute(
        &self,
        input: Option<&JobInput>,
        first_dataset: Option<&Dataset>,
    ) -> Result<DataflowOutcome> {
        if self.stages.is_empty() {
            return Err(Error::job("dataflow has no stages"));
        }
        let chain_fp = self.fingerprint();
        let mut tracer = self.trace.then(Tracer::new);
        let mut reports: Vec<StageReport> = Vec::with_capacity(self.stages.len());

        // Resume: restore the newest checkpoint this exact chain wrote.
        let mut resumed_from = None;
        let mut start = 0usize;
        let mut current: Option<Dataset> = first_dataset.cloned();
        if self.resume {
            if let Some(dir) = &self.checkpoint_dir {
                if let Some((k, ds)) = ckpt::load_latest(dir, chain_fp, self.stages.len()) {
                    resumed_from = Some(k);
                    start = k + 1;
                    current = Some(ds);
                }
            }
        }

        // `(stage index, records, bytes)` of the last executed stage,
        // whose stage_handoff event is emitted once the next stage's
        // handoff kind is known.
        let mut pending_handoff: Option<(usize, u64, u64)> = None;

        for (i, stage) in self.stages.iter().enumerate().skip(start) {
            let spec = self.cluster;
            let target = PartitionSpec::of(&spec);

            // Decide how this stage's input arrives.
            let (handoff, records_in, bytes_in) = match (&current, input) {
                (Some(ds), _) => {
                    let kind = match self.policy {
                        HandoffPolicy::Reshuffle => Handoff::Reshuffled,
                        HandoffPolicy::Materialize => Handoff::Materialized,
                        HandoffPolicy::Auto => {
                            if stage.job.partition_preserving()
                                && ds.spec() == target
                                && ds.verify_placement()
                            {
                                Handoff::InMemory
                            } else {
                                Handoff::Reshuffled
                            }
                        }
                    };
                    (kind, ds.len() as u64, ds.record_bytes())
                }
                (None, Some(input)) => (Handoff::Source, input.len() as u64, input.total_bytes()),
                (None, None) => unreachable!("run/run_from always provide a first input"),
            };

            if let Some(tr) = tracer.as_mut() {
                if let Some((prev, records, bytes)) = pending_handoff.take() {
                    tr.push(TraceEvent::StageHandoff {
                        t: prev as u64,
                        stage: prev as u32,
                        records,
                        bytes,
                        reshuffled: matches!(handoff, Handoff::Reshuffled | Handoff::Materialized),
                    });
                }
                tr.push(TraceEvent::StageStart {
                    t: i as u64,
                    stage: i as u32,
                    records: records_in,
                    bytes: bytes_in,
                });
            }

            // Run the stage over its input: the raw records, or the
            // upstream dataset framed as records — resident, re-shuffled,
            // or read back from a real file first.
            let framed;
            let (records, resident) = match (handoff, &current) {
                (Handoff::Source, _) => (input.expect("source stage has records"), None),
                (_, None) => unreachable!("a dataset handoff has a dataset"),
                (Handoff::Materialized, Some(ds)) => {
                    framed = self.through_file(ds, i)?.to_input();
                    (&framed, None)
                }
                (_, Some(ds)) => {
                    framed = ds.to_input();
                    (&framed, (handoff == Handoff::InMemory).then_some(ds))
                }
            };
            let (outcome, bytes_saved) = self.run_stage(stage, records, resident)?;

            if let (Some(tr), Handoff::InMemory) = (tracer.as_mut(), handoff) {
                tr.push(TraceEvent::ReshuffleSkipped {
                    t: i as u64,
                    stage: i as u32,
                    bytes_saved,
                });
            }

            // The stage's output becomes the next stage's resident input,
            // bucketed under *this* stage's partition function. The pairs
            // move: nothing below reads the outcome but its metrics and DLQ.
            let out = Dataset::from_pairs(outcome.output, PartitionSpec::of(&spec));
            if let Some(dir) = &self.checkpoint_dir {
                ckpt::write_stage(dir, chain_fp, i, &out)?;
            }
            pending_handoff = Some((i, out.len() as u64, out.record_bytes()));
            reports.push(StageReport {
                name: stage.job.name().to_string(),
                framework: stage.framework.label().to_string(),
                handoff,
                records_in,
                bytes_in,
                records_out: out.len() as u64,
                bytes_out: out.record_bytes(),
                bytes_saved,
                metrics: outcome.metrics,
                dlq: outcome.dlq,
            });
            current = Some(out);
        }

        Ok(DataflowOutcome {
            stages: reports,
            output: current.expect("at least one stage ran or was restored"),
            trace: tracer.map(Tracer::into_log),
            resumed_from,
        })
    }

    /// Runs one stage — the one way any stage runs: an [`Engine`] over
    /// `input`, with the chain's threads and fault plan. `resident` is the
    /// dataset `input` was framed from when the stage takes the in-memory
    /// handoff; the engine then runs its colocated placement, and the
    /// second value returned is the shuffle volume that saved (0
    /// otherwise).
    ///
    /// # Errors
    /// An empty input, or a colocated map task that shipped across
    /// partitions (the job's `partition_preserving` declaration is wrong).
    fn run_stage(
        &self,
        stage: &Stage,
        input: &JobInput,
        resident: Option<&Dataset>,
    ) -> Result<(JobOutcome, u64)> {
        let cfg = RunConfig {
            framework: stage.framework,
            spec: self.cluster,
            exec: self.exec,
            faults: self.faults,
            ..RunConfig::default()
        };
        let lens: Option<Vec<usize>> = resident.map(|ds| {
            (0..ds.spec().partitions)
                .map(|p| ds.partition(p).len())
                .collect()
        });
        let job = JobRef::borrowed(stage.job.as_ref());
        let mut engine = Engine::build(&cfg, job, Handle::Borrowed(input), lens.as_deref(), None)?;
        // Every map task has committed once the last chunk is below the
        // pause quota: the books read here are final.
        engine.run_until(engine.num_chunks());
        let saved = engine.colocated_bytes()?;
        Ok((engine.finish(), saved))
    }

    /// The materialize handoff: writes stage `i`'s input dataset to a real
    /// file and reads it back. Without a checkpoint directory the file
    /// lives in a scratch directory of its own — named by the process id
    /// and a process-wide counter, so concurrent chains never share one —
    /// which is removed again.
    fn through_file(&self, ds: &Dataset, i: usize) -> Result<Dataset> {
        static SCRATCH: AtomicU64 = AtomicU64::new(0);
        let scratch = self.checkpoint_dir.is_none().then(|| {
            let n = SCRATCH.fetch_add(1, Ordering::Relaxed);
            std::env::temp_dir().join(format!("opa-dataflow-{}-{n}", std::process::id()))
        });
        let dir = self.checkpoint_dir.as_ref().or(scratch.as_ref());
        let path = dir
            .expect("a checkpoint or a scratch directory")
            .join(format!("handoff-{i}.opadf"));
        let back = ds.write(&path).and_then(|()| Dataset::read(&path));
        std::fs::remove_file(&path).ok();
        if let Some(dir) = scratch {
            std::fs::remove_dir(dir).ok();
        }
        back
    }
}
