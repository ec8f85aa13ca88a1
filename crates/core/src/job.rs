//! Job orchestration: the discrete-event loop tying mappers, shuffle and
//! reducers together.
//!
//! One `run` executes the whole MapReduce job: the input is split into
//! `C`-sized chunks by the block store, map tasks run on each node's map
//! slots (FIFO over node-local chunks), completed mappers push granules
//! whose per-reducer payloads travel over the simulated network, and each
//! reducer — a serial virtual timeline — absorbs deliveries through its
//! framework and completes once the queue drains. Reducers normally all
//! start in wave one (`R` ≤ reduce slots); with `R` above the slot count
//! the extra reducers start only when a first-wave reducer on their node
//! finishes and must re-read all their map output from the mappers' disks —
//! the two-wave effect of §3.2(3).
//!
//! ## Scheduling vs execution
//!
//! The loop itself is the *scheduling layer*: it owns every piece of
//! shared simulation state and touches it strictly in event order. The
//! heavy data work — map-task computation ([`compute_map_task`]) and
//! reducer ingestion (recorded through [`ReduceEnv`]) — runs on the
//! *execution layer* ([`crate::exec`]): a pool of `threads − 1` worker
//! threads plus the scheduler itself. Results come back as effect logs
//! and are replayed here in the exact order the sequential engine would
//! have produced, so a [`JobOutcome`] is bit-identical at any thread
//! count (see `tests/determinism.rs`).

use crate::api::Job;
use crate::cluster::{ClusterSpec, Framework};
use crate::exec::{Gather, Planner, Pool};
use crate::fault::{FaultPlan, MapFate};
use crate::map_phase::{
    abort_map_task, compute_map_task, finish_map_task, straggle_map_task, Payload, PoisonGate,
};
use crate::metrics::JobMetrics;
use crate::progress::{ProgressCurve, ProgressTracker};
use crate::reduce::{
    make_reducer, replay, replay_recovery, Effect, ReduceEnv, ReduceSide, ReducerSizing,
    ReplayTarget,
};
use crate::sim::{EventQueue, OpKind, Resources, Span, Usage};
use bytes::Bytes;
use opa_common::fault::{FaultConfig, FaultEvent, FaultKind, FaultReport};
use opa_common::units::{SimDuration, SimTime};
use opa_common::{
    Error, ExecConfig, GroupIndex, HashFamily, Pair, RecordBatch, Result, StateBatch, StatePair,
};
use opa_simio::{BlockStore, DiskFaultInjector, IoCategory, IoOp};
use opa_trace::{TraceEvent, TraceLog};
use std::collections::VecDeque;

/// Number of points progress curves are resampled to.
const PROGRESS_POINTS: usize = 400;

/// Job input: a sequence of raw records (lines of a log, documents…).
#[derive(Debug, Clone, Default)]
pub struct JobInput {
    /// The records. `Bytes` so chunks and map inputs never deep-copy.
    pub records: Vec<Bytes>,
}

impl JobInput {
    /// Builds an input from owned byte records.
    pub fn from_records(records: Vec<Vec<u8>>) -> Self {
        JobInput {
            records: records.into_iter().map(Bytes::from).collect(),
        }
    }

    /// Builds an input by splitting UTF-8 text into lines.
    pub fn from_text(text: &str) -> Self {
        JobInput {
            records: text
                .lines()
                .filter(|l| !l.is_empty())
                .map(|l| Bytes::copy_from_slice(l.as_bytes()))
                .collect(),
        }
    }

    /// Total input size `D` in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.len() as u64).sum()
    }

    /// Record count.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the input is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// One quarantined input record: the engine-level provenance of a map UDF
/// poison firing. The serving layer (`opa-serve`) adds tenant/job identity
/// on top when it files the entry in its dead-letter queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoisonedRecord {
    /// Map chunk (task) the record belonged to.
    pub chunk: u32,
    /// The map-task attempt that committed the chunk (0 unless crash or
    /// straggler recovery re-ran it).
    pub attempt: u32,
    /// The record's global input offset.
    pub offset: u64,
    /// The raw record bytes, exactly as read from the input.
    pub record: Bytes,
}

/// Everything a finished job yields.
#[derive(Debug)]
pub struct JobOutcome {
    /// Table-style metrics (times, bytes, CPU).
    pub metrics: JobMetrics,
    /// Definition-1 progress curves.
    pub progress: ProgressCurve,
    /// Task timeline (Fig 2(a)-style spans).
    pub timeline: Vec<Span>,
    /// CPU/disk busy-time series (Fig 2(b,c)-style).
    pub usage: Usage,
    /// The job's actual output pairs (order unspecified across reducers).
    pub output: Vec<Pair>,
    /// The structured event trace, when the run was started with
    /// [`JobBuilder::trace`]. Bit-identical at any thread count; see the
    /// `opa-trace` crate for the JSONL format, rollups and exporters.
    pub trace: Option<TraceLog>,
    /// Records quarantined by per-record UDF poison
    /// ([`opa_common::fault::FaultConfig::udf_poison_rate`]), in the order
    /// their chunks committed. Empty unless poison injection was enabled.
    pub dlq: Vec<PoisonedRecord>,
}

impl JobOutcome {
    /// The output sorted by key then value — canonical form for
    /// correctness comparisons.
    pub fn sorted_output(&self) -> Vec<Pair> {
        let mut out = self.output.clone();
        out.sort_by(|a, b| a.key.cmp(&b.key).then_with(|| a.value.cmp(&b.value)));
        out
    }

    /// Persists the job output to a real file in the IFile-style run
    /// format (length-framed records + CRC-32).
    pub fn write_output(&self, path: &std::path::Path) -> Result<()> {
        let buf = opa_simio::codec::encode_run(&self.output);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| Error::storage(format!("mkdir {}: {e}", dir.display())))?;
        }
        std::fs::write(path, buf)
            .map_err(|e| Error::storage(format!("write {}: {e}", path.display())))
    }

    /// Reads back an output file written by [`JobOutcome::write_output`],
    /// verifying its checksum.
    pub fn read_output(path: &std::path::Path) -> Result<Vec<Pair>> {
        let buf = std::fs::read(path)
            .map_err(|e| Error::storage(format!("read {}: {e}", path.display())))?;
        opa_simio::codec::decode_run(&buf)
    }

    /// The output as a resident [`crate::dataflow::Dataset`], bucketed
    /// under the partition function of `spec` — the handle a
    /// [`crate::dataflow::Dataflow`] chains from. Pass the spec the job
    /// ran on to get the partitioning its reducers actually produced.
    pub fn dataset(&self, spec: &ClusterSpec) -> crate::dataflow::Dataset {
        crate::dataflow::Dataset::from_pairs(
            self.output.clone(),
            crate::dataflow::PartitionSpec::of(spec),
        )
    }
}

/// Fluent builder for one job run.
pub struct JobBuilder<J: Job> {
    job: J,
    framework: Framework,
    spec: ClusterSpec,
    exec: ExecConfig,
    km_hint: f64,
    early_stop_coverage: Option<f64>,
    snapshot_points: Vec<f64>,
    dinc_monitor: crate::reduce::dinc_hash::MonitorKind,
    admission: opa_common::AdmissionPolicy,
    combine: opa_common::CombineScope,
    faults: FaultConfig,
    trace: bool,
}

impl<J: Job> JobBuilder<J> {
    /// Starts a builder with the sort-merge baseline on the paper cluster.
    pub fn new(job: J) -> Self {
        JobBuilder {
            job,
            framework: Framework::SortMerge,
            spec: ClusterSpec::paper_scaled(),
            exec: ExecConfig::sequential(),
            km_hint: 1.0,
            early_stop_coverage: None,
            snapshot_points: Vec::new(),
            dinc_monitor: crate::reduce::dinc_hash::MonitorKind::Frequent,
            admission: opa_common::AdmissionPolicy::Off,
            combine: opa_common::CombineScope::Task,
            faults: FaultConfig::disabled(),
            trace: false,
        }
    }

    /// Turns on structured event tracing. The run then carries a
    /// [`TraceLog`] in [`JobOutcome::trace`] — one record per simulation
    /// event, deterministic and bit-identical at any thread count. Off by
    /// default (tracing is zero-cost when off).
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Selects the reduce-side framework.
    pub fn framework(mut self, f: Framework) -> Self {
        self.framework = f;
        self
    }

    /// Selects the cluster configuration.
    pub fn cluster(mut self, spec: ClusterSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Sets the execution-layer thread count. `1` (the default) runs the
    /// engine fully sequentially on the calling thread; `n > 1` adds
    /// `n − 1` worker threads, capped at the host's core count (pass
    /// [`ExecConfig::oversubscribed`] to [`JobBuilder::exec`] to lift the
    /// cap). The [`JobOutcome`] is bit-identical at any value — threads
    /// only change wall-clock time.
    pub fn threads(mut self, threads: usize) -> Self {
        self.exec = ExecConfig::with_threads(threads);
        self
    }

    /// Sets the full execution-layer configuration.
    pub fn exec(mut self, exec: ExecConfig) -> Self {
        self.exec = exec;
        self
    }

    /// Hints the map output/input ratio `K_m`, used to size hash-framework
    /// bucket fan-outs (defaults to 1.0).
    pub fn km_hint(mut self, km: f64) -> Self {
        self.km_hint = km;
        self
    }

    /// Enables DINC's approximate early termination at coverage φ.
    pub fn early_stop_coverage(mut self, phi: f64) -> Self {
        self.early_stop_coverage = Some(phi);
        self
    }

    /// Selects the frequency algorithm behind DINC-hash's monitor
    /// (default: FREQUENT, the paper's choice).
    pub fn dinc_monitor(mut self, kind: crate::reduce::dinc_hash::MonitorKind) -> Self {
        self.dinc_monitor = kind;
        self
    }

    /// Selects the reduce-side admission policy (default: off, the
    /// paper's first-come occupancy). Under
    /// [`AdmissionPolicy::Lfu`](opa_common::AdmissionPolicy::Lfu) a
    /// table-full arrival may evict a resident key that a deterministic
    /// frequency sketch judges colder, instead of spilling itself.
    pub fn admission(mut self, policy: opa_common::AdmissionPolicy) -> Self {
        self.admission = policy;
        self
    }

    /// Selects where map output is combined before shuffle (default:
    /// [`CombineScope::Task`](opa_common::CombineScope::Task), the
    /// engine's historical per-map-task combining — bit-identical to
    /// builds that predate the knob). Under
    /// [`CombineScope::Node`](opa_common::CombineScope::Node) granules
    /// from all map tasks of one simulated node additionally merge
    /// through the job's combiner (or, for the incremental frameworks,
    /// its `cb()`) in a per-node staging table before any shuffle bytes
    /// are booked; flush points are scheduler-side and deterministic, so
    /// output stays bit-identical at any thread count.
    /// [`CombineScope::Off`](opa_common::CombineScope::Off) disables even
    /// per-task combining for the materializing frameworks.
    pub fn combine(mut self, scope: opa_common::CombineScope) -> Self {
        self.combine = scope;
        self
    }

    /// Requests MapReduce-Online-style snapshot outputs (§3.3) at the
    /// given map-progress fractions, e.g. `[0.25, 0.5, 0.75]`. Each point
    /// makes every reducer repeat its merge and emit a snapshot — the
    /// expensive behaviour the paper measures.
    pub fn snapshot_points(mut self, points: &[f64]) -> Self {
        self.snapshot_points = points.to_vec();
        self
    }

    /// Validates the configured snapshot points: each must be a finite
    /// map-progress fraction in `[0, 1]`. Shared by [`JobBuilder::run`] and
    /// CLI argument parsing so a bad `--snapshots` list fails up front with
    /// an actionable message instead of deep inside the run.
    pub fn validate_snapshot_points(&self) -> Result<()> {
        for &p in &self.snapshot_points {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(Error::job(format!(
                    "snapshot point {p} is not a map-progress fraction in \
                     [0, 1]; pass fractions of map completion such as \
                     0.25,0.5,0.75"
                )));
            }
        }
        Ok(())
    }

    /// Enables deterministic fault injection: map/reduce failures,
    /// stragglers and spill-disk errors per `cfg`, with full recovery.
    /// Recovery never loses or duplicates data: order-independent
    /// reductions produce output bit-identical to the fault-free run.
    /// Jobs that emit early from a slack-bounded reorder buffer
    /// (sessionization under INC/DINC) may re-anchor labels when a fault
    /// delays a map task past the slack, exactly as in real Hadoop —
    /// reduce-crash recovery alone is fully output-transparent. Timing,
    /// I/O accounting and the [`JobMetrics::faults`] report change in
    /// any case.
    pub fn faults(mut self, cfg: FaultConfig) -> Self {
        self.faults = cfg;
        self
    }

    /// Access to the wrapped job.
    pub fn job(&self) -> &J {
        &self.job
    }

    /// Runs the job on `input`.
    pub fn run(&self, input: &JobInput) -> Result<JobOutcome> {
        self.spec.validate()?;
        self.exec.validate()?;
        self.faults.validate()?;
        self.validate_snapshot_points()?;
        if let Some(phi) = self.early_stop_coverage {
            if !phi.is_finite() || !(0.0..=1.0).contains(&phi) || phi == 0.0 {
                return Err(Error::job(format!(
                    "early-stop coverage φ must be a fraction in (0, 1], got {phi}"
                )));
            }
        }
        if input.is_empty() {
            return Err(Error::job("job input is empty"));
        }
        run_job(
            &self.job,
            self.framework,
            &self.spec,
            self.exec,
            self.km_hint,
            self.early_stop_coverage,
            self.dinc_monitor,
            self.admission,
            self.combine,
            &self.snapshot_points,
            &self.faults,
            self.trace,
            input,
        )
    }
}

/// How the per-node staging table merges two same-key rows under
/// [`opa_common::CombineScope::Node`].
#[derive(Clone, Copy)]
enum NodeMerge<'j> {
    /// Key-value pairs folded through the job's combiner.
    Pairs(&'j dyn crate::api::Combiner),
    /// Key-state pairs merged through the incremental `cb()` at
    /// [`crate::api::Site::Map`]; early emissions route to job output
    /// exactly like task-level map-side `cb()` emissions.
    States(&'j dyn crate::api::IncrementalReducer),
}

enum Ev {
    StartMap {
        chunk: usize,
        /// 0 for the first execution; retries and speculative backups
        /// count up. Drives the fault plan's per-attempt decisions.
        attempt: u32,
    },
    Deliver {
        reducer: usize,
        from_node: usize,
        payload: Payload,
    },
}

/// A reducer's recorded mailbox result: the reducer itself (handed back
/// after recording) plus, per delivery, the delivery log and the logs of
/// any snapshots taken right after it.
type MailboxLogs = VecDeque<(Vec<Effect>, Vec<Vec<Effect>>)>;

/// Records one reducer's mailbox — a run of consecutive deliveries, each
/// followed by `snaps` snapshot repetitions — into effect logs. Pure data
/// work: runs on any execution-layer thread.
fn record_mailbox<'j>(
    mut rec: Box<dyn ReduceSide + Send + 'j>,
    items: Vec<(Payload, usize)>,
    est: SimTime,
    spec: &ClusterSpec,
) -> (Box<dyn ReduceSide + Send + 'j>, MailboxLogs) {
    let mut logs: MailboxLogs = VecDeque::with_capacity(items.len());
    let mut te = est;
    for (payload, snaps) in items {
        let mut env = ReduceEnv::new(spec);
        te = rec.on_delivery(te, payload, &mut env);
        let dlog = env.into_log();
        let mut slogs = Vec::with_capacity(snaps);
        for _ in 0..snaps {
            let mut senv = ReduceEnv::new(spec);
            te = rec.snapshot(te, &mut senv);
            slogs.push(senv.into_log());
        }
        logs.push_back((dlog, slogs));
    }
    (rec, logs)
}

#[allow(clippy::too_many_lines)]
#[allow(clippy::too_many_arguments)]
fn run_job(
    job: &dyn Job,
    framework: Framework,
    spec: &ClusterSpec,
    exec: ExecConfig,
    km_hint: f64,
    early_stop: Option<f64>,
    dinc_monitor: crate::reduce::dinc_hash::MonitorKind,
    admission: opa_common::AdmissionPolicy,
    combine: opa_common::CombineScope,
    snapshot_points: &[f64],
    faults: &FaultConfig,
    trace: bool,
    input: &JobInput,
) -> Result<JobOutcome> {
    let hw = &spec.hardware;
    let n_nodes = hw.nodes;
    let n_reducers = spec.total_reducers();
    let family = HashFamily::new(spec.hash_seed);
    let h1 = family.fn_at(0);

    // Snapshot points were validated by the builder (finite fractions in
    // [0, 1] — see `JobBuilder::validate_snapshot_points`).
    let mut snapshots: Vec<f64> = snapshot_points.to_vec();
    snapshots.sort_by(f64::total_cmp);

    // Split the input into chunks, HDFS-style.
    let store = BlockStore::split(
        input.records.iter().map(|r| r.len() as u64),
        spec.system.chunk_size,
        n_nodes,
    );

    // The scheduler thread doubles as a worker, so `threads` total. The
    // effective count is capped at the host's cores unless the config
    // explicitly oversubscribes: surplus threads would only time-slice,
    // and the outcome is bit-identical at any count anyway.
    let workers = exec.effective_threads().saturating_sub(1);

    // Declared outside the execution scope: the speculative planner's
    // closures capture it by reference and outlive this stack frame's
    // inner locals.
    let poison_on = faults.poison_enabled();

    std::thread::scope(|scope| -> Result<JobOutcome> {
        let pool = Pool::new(scope, workers);

        let separate_spill = spec.cost.spill_disk != spec.cost.hdfs_disk;
        let mut res = Resources::new(n_nodes, hw.map_slots.max(hw.reduce_slots), separate_spill);
        if trace {
            res.enable_trace();
        }
        let mut progress = ProgressTracker::new(store.num_chunks() as u64);

        // Fault-injection state. All decisions and recovery charging run
        // on this (scheduling) thread in event order, so the failure trace
        // and the recovered outcome are thread-count invariant.
        let fault_on = faults.enabled();
        let fplan = if fault_on {
            Some(FaultPlan::new(*faults))
        } else {
            None
        };
        let mut freport = FaultReport::default();
        if faults.spill_error_rate > 0.0 {
            res.set_disk_faults(DiskFaultInjector::new(
                faults.seed,
                faults.spill_error_rate,
                faults.max_retries,
            ));
        }
        // Pure map-task plans stashed by failed/straggling attempts for
        // reuse by their retry (the plan is a function of the chunk alone).
        let mut plan_stash: Vec<Option<crate::map_phase::MapTaskPlan>> =
            (0..store.num_chunks()).map(|_| None).collect();
        // Per-reducer crash bookkeeping and effect history for recovery
        // re-replay (history is only kept when reduce crashes can fire).
        let track_history = faults.reduce_failure_rate > 0.0;
        let mut delivery_seq: Vec<u64> = vec![0; n_reducers];
        let mut crash_count: Vec<u32> = vec![0; n_reducers];
        let mut history: Vec<Vec<Effect>> = vec![Vec::new(); n_reducers];

        // Reducer sizing from job hints.
        let expected_input =
            ((input.total_bytes() as f64 * km_hint) / n_reducers as f64).ceil() as u64;
        let expected_keys = job
            .expected_keys()
            .map(|k| (k / n_reducers as u64).max(1))
            .unwrap_or(expected_input / 64);
        let sizing = ReducerSizing {
            expected_input,
            expected_keys,
            state_size: job.state_size_hint().unwrap_or(64),
            early_stop_coverage: early_stop,
            monitor: dinc_monitor,
            admission,
        };
        let mut reducers = Vec::with_capacity(n_reducers);
        for _ in 0..n_reducers {
            reducers.push(Some(make_reducer(framework, job, spec, sizing, &family)?));
        }
        let reducer_node = |r: usize| r % n_nodes;
        // Wave assignment: the first `reduce_slots` reducers per node start
        // at time zero; the rest queue their deliveries.
        let wave1_per_node = hw.reduce_slots;
        let started: Vec<bool> = (0..n_reducers)
            .map(|r| (r / n_nodes) < wave1_per_node)
            .collect();

        // Per-node FIFO of map chunks; seed each node's map slots.
        let mut queue: EventQueue<Ev> = EventQueue::new();
        let mut pending: Vec<VecDeque<usize>> = vec![VecDeque::new(); n_nodes];
        for (i, c) in store.chunks().iter().enumerate() {
            pending[c.node].push_back(i);
        }
        for node_pending in pending.iter_mut() {
            for _ in 0..hw.map_slots {
                if let Some(chunk) = node_pending.pop_front() {
                    queue.push(SimTime::ZERO, Ev::StartMap { chunk, attempt: 0 });
                }
            }
        }

        // Speculative map-task planning: plans are pure functions of the
        // chunk index, so the pool computes a window of them ahead of the
        // scheduler.
        let compute_plan = |chunk: usize| {
            let c = &store.chunks()[chunk];
            compute_map_task(
                job,
                framework,
                &input.records[c.range.clone()],
                c.bytes,
                spec,
                h1,
                admission,
                combine,
                poison_on.then_some(PoisonGate {
                    faults: *faults,
                    base: c.range.start as u64,
                }),
            )
        };
        let planner: Planner<crate::map_phase::MapTaskPlan> =
            Planner::new(store.num_chunks(), workers * 2 + 2);
        planner.prime(&pool, compute_plan);

        // Per-entity accounting.
        let mut map_cpu = vec![SimDuration::ZERO; n_nodes];
        let mut reduce_cpu = vec![SimDuration::ZERO; n_reducers];
        let mut ready_at = vec![SimTime::ZERO; n_reducers];
        let mut deferred: Vec<Vec<(usize, Payload)>> = vec![Vec::new(); n_reducers];
        let mut spill_written_map = 0u64;
        let mut spill_written_reduce = vec![0u64; n_reducers];
        let mut snapshot_bytes = vec![0u64; n_reducers];
        let mut next_snapshot = 0usize;
        let mut snapshots_taken = vec![0usize; n_reducers];
        let mut maps_completed = 0usize;
        let mut map_output_bytes = 0u64;
        let mut map_finish = SimTime::ZERO;
        let mut output: Vec<Pair> = Vec::new();
        let mut dlq: Vec<PoisonedRecord> = Vec::new();

        // `CombineScope::Node`: per-node pre-shuffle staging. Committed map
        // granules land in a per-node hash-indexed table (probed by the
        // carried h1 fingerprints) instead of booking shuffle bytes; the
        // table drains at two deterministic flush points — the node's last
        // committed map task, and a post-combine byte budget
        // (`ClusterSpec::node_combine_buffer`). Staging runs entirely on
        // this scheduling thread in event order, so the outcome stays
        // thread-count invariant like the rest of the scheduler. A node
        // scope without a combiner (or `init/cb` for the incremental
        // frameworks) degenerates to task scope: nothing to merge with.
        let node_merge: Option<NodeMerge<'_>> = if combine.is_node() {
            if framework.is_incremental() {
                job.incremental().map(NodeMerge::States)
            } else {
                job.combiner().map(NodeMerge::Pairs)
            }
        } else {
            None
        };
        // Staged rows in first-seen order: (partition, h1 fingerprint, key,
        // value-or-state). First-seen order makes the rebuilt payloads a
        // pure function of the commit sequence.
        let mut stage_rows: Vec<Vec<(usize, u64, opa_common::Key, opa_common::Value)>> =
            vec![Vec::new(); n_nodes];
        let mut stage_index: Vec<GroupIndex> =
            (0..n_nodes).map(|_| GroupIndex::with_capacity(64)).collect();
        let mut stage_bytes = vec![0u64; n_nodes]; // resident, post-combine
        let mut stage_in = vec![0u64; n_nodes]; // offered since last flush, pre-combine
        let mut stage_merges = vec![0u64; n_nodes]; // cb/fold calls since last flush
        let mut stage_ctx: Vec<crate::api::ReduceCtx> = (0..n_nodes)
            .map(|_| crate::api::ReduceCtx::at_site(crate::api::Site::Map))
            .collect();
        // Committed-chunk countdown per node: the node's table takes its
        // final flush when the last of its chunks commits. Failed and
        // straggling attempts `continue` before the commit path, so the
        // countdown moves only at the committing attempt.
        let mut stage_outstanding: Vec<usize> = vec![0; n_nodes];
        if node_merge.is_some() {
            for c in store.chunks() {
                stage_outstanding[c.node] += 1;
            }
        }
        let mut nc_stats = crate::metrics::NodeCombineStats::default();
        // Shuffle bytes actually booked on the network (post-combine under
        // node scope; equal to `map_output_bytes` minus in-task combining
        // otherwise). Wave-two re-reads replay these same transfers from
        // disk and are not re-counted.
        let mut shuffle_booked = 0u64;

        // Burst scratch, reused across iterations.
        let mut mail_of: Vec<Option<usize>> = vec![None; n_reducers];
        let mut log_q: Vec<MailboxLogs> = (0..n_reducers).map(|_| VecDeque::new()).collect();

        macro_rules! target {
            ($r:expr) => {
                ReplayTarget {
                    node: reducer_node($r),
                    res: &mut res,
                    progress: &mut progress,
                    output: &mut output,
                    reduce_cpu: &mut reduce_cpu[$r],
                    spill_written: &mut spill_written_reduce[$r],
                    snapshot_bytes: &mut snapshot_bytes[$r],
                }
            };
        }

        // Drains one node's staging table at flush time `$t`: charge the
        // accumulated cross-task merge CPU, rebuild per-partition payloads
        // in first-seen row order, and book the (post-combine) shuffle
        // transfers exactly as the direct path would have.
        macro_rules! flush_node {
            ($node:expr, $t:expr) => {{
                let fnode: usize = $node;
                if !stage_rows[fnode].is_empty() {
                    let t0: SimTime = $t;
                    let rows = std::mem::take(&mut stage_rows[fnode]);
                    stage_index[fnode].clear();
                    stage_bytes[fnode] = 0;
                    let bytes_in = std::mem::take(&mut stage_in[fnode]);
                    let merges = std::mem::take(&mut stage_merges[fnode]);
                    let cb_cpu = spec.cost.cb_time(merges);
                    let t1 = res.cpu(fnode, t0, cb_cpu);
                    map_cpu[fnode] += cb_cpu;
                    let states_mode = matches!(node_merge, Some(NodeMerge::States(_)));
                    let cap = rows.len() / n_reducers + 1;
                    let mut payloads: Vec<Payload> = (0..n_reducers)
                        .map(|_| {
                            if states_mode {
                                Payload::States(StateBatch::with_capacity(cap))
                            } else {
                                Payload::Pairs(RecordBatch::with_capacity(cap))
                            }
                        })
                        .collect();
                    let keys = rows.len() as u64;
                    for (part, h, key, value) in rows {
                        match &mut payloads[part] {
                            Payload::Pairs(b) => b.push_hashed(Pair::new(key, value), h),
                            Payload::States(b) => b.push_hashed(StatePair::new(key, value), h),
                        }
                    }
                    let mut bytes_out = 0u64;
                    for (r, payload) in payloads.into_iter().enumerate() {
                        if payload.is_empty() {
                            continue;
                        }
                        let b = payload.bytes();
                        bytes_out += b;
                        let arrival = t1 + spec.cost.net_time(b);
                        res.span(fnode, OpKind::Shuffle, t1, arrival);
                        res.emit(TraceEvent::Shuffle {
                            t0: t1.0,
                            t: arrival.0,
                            from_node: fnode as u32,
                            reducer: r as u32,
                            bytes: b,
                        });
                        queue.push(
                            arrival,
                            Ev::Deliver {
                                reducer: r,
                                from_node: fnode,
                                payload,
                            },
                        );
                    }
                    shuffle_booked += bytes_out;
                    nc_stats.flushes += 1;
                    nc_stats.staged_bytes += bytes_in;
                    nc_stats.flushed_bytes += bytes_out;
                    res.emit(TraceEvent::NodeCombine {
                        t0: t0.0,
                        t: t1.0,
                        node: fnode as u32,
                        bytes_in,
                        bytes_out,
                        keys,
                    });
                }
            }};
        }

        // Main event loop.
        while let Some((t, ev)) = queue.pop() {
            match ev {
                Ev::StartMap { chunk, attempt } => {
                    let node = store.chunks()[chunk].node;
                    res.emit(TraceEvent::MapStart {
                        t: t.0,
                        chunk: chunk as u32,
                        attempt,
                        node: node as u32,
                    });
                    // Retries reuse the stashed pure plan; the planner only
                    // hands out each chunk's first-execution plan.
                    let plan = if attempt == 0 {
                        planner.take(chunk, &pool, compute_plan)
                    } else {
                        plan_stash[chunk]
                            .take()
                            .unwrap_or_else(|| compute_plan(chunk))
                    };
                    match fplan
                        .as_ref()
                        .map_or(MapFate::Ok, |p| p.map_fate(chunk, attempt))
                    {
                        MapFate::Fail { frac } => {
                            // The attempt dies partway: charge the prefix
                            // as waste, back off, retry on the same slot.
                            let waste = abort_map_task(&plan, frac, node, t, spec, &mut res);
                            let backoff = faults.backoff(attempt + 1);
                            freport.map_failures += 1;
                            freport.map_retries += 1;
                            freport.wasted_cpu += waste.wasted_cpu;
                            freport.wasted_bytes += waste.wasted_bytes;
                            freport.recovery_time += (waste.fail_time - t) + backoff;
                            freport.trace.push(FaultEvent {
                                time: waste.fail_time,
                                kind: FaultKind::MapFailure,
                                target: chunk as u64,
                                attempt,
                            });
                            res.emit(TraceEvent::Fault {
                                t: waste.fail_time.0,
                                kind: FaultKind::MapFailure,
                                target: chunk as u64,
                                attempt,
                            });
                            res.emit(TraceEvent::Retry {
                                t: (waste.fail_time + backoff).0,
                                kind: FaultKind::MapFailure,
                                target: chunk as u64,
                                attempt: attempt + 1,
                            });
                            plan_stash[chunk] = Some(plan);
                            queue.push(
                                waste.fail_time + backoff,
                                Ev::StartMap {
                                    chunk,
                                    attempt: attempt + 1,
                                },
                            );
                            continue;
                        }
                        MapFate::Straggle { factor } => {
                            // The attempt limps along at factor× CPU cost;
                            // at the nominal-duration horizon the scheduler
                            // launches a speculative backup whose output is
                            // the one committed. Everything the straggler
                            // did is waste.
                            let nominal = plan.nominal_duration(spec);
                            let waste = straggle_map_task(&plan, factor, node, t, spec, &mut res);
                            let detect = t + nominal;
                            freport.stragglers += 1;
                            freport.speculative_wins += 1;
                            freport.wasted_cpu += waste.wasted_cpu;
                            freport.wasted_bytes += waste.wasted_bytes;
                            freport.recovery_time += waste.fail_time.saturating_since(detect);
                            freport.trace.push(FaultEvent {
                                time: detect,
                                kind: FaultKind::Straggler,
                                target: chunk as u64,
                                attempt,
                            });
                            res.emit(TraceEvent::Fault {
                                t: detect.0,
                                kind: FaultKind::Straggler,
                                target: chunk as u64,
                                attempt,
                            });
                            res.emit(TraceEvent::Retry {
                                t: detect.0,
                                kind: FaultKind::Straggler,
                                target: chunk as u64,
                                attempt: attempt + 1,
                            });
                            plan_stash[chunk] = Some(plan);
                            queue.push(
                                detect,
                                Ev::StartMap {
                                    chunk,
                                    attempt: attempt + 1,
                                },
                            );
                            continue;
                        }
                        MapFate::Ok => {}
                    }
                    let result = finish_map_task(plan, node, t, spec, &mut res);
                    // Quarantine the chunk's poisoned records exactly once,
                    // at the committing attempt: the record, its offset and
                    // the attempt number are the DLQ's provenance.
                    for &(offset, ref record) in &result.poisoned {
                        freport.udf_poisoned += 1;
                        freport.trace.push(FaultEvent {
                            time: result.finish,
                            kind: FaultKind::UdfPoison,
                            target: offset,
                            attempt,
                        });
                        res.emit(TraceEvent::Poison {
                            t: result.finish.0,
                            chunk: chunk as u32,
                            offset,
                            attempt,
                        });
                        dlq.push(PoisonedRecord {
                            chunk: chunk as u32,
                            attempt,
                            offset,
                            record: record.clone(),
                        });
                    }
                    res.emit(TraceEvent::MapFinish {
                        t0: t.0,
                        t: result.finish.0,
                        chunk: chunk as u32,
                        node: node as u32,
                        cpu: result.cpu.0,
                        output_bytes: result.output_bytes,
                        spill_bytes: result.spill_bytes,
                    });
                    map_cpu[node] += result.cpu;
                    spill_written_map += result.spill_bytes;
                    map_output_bytes += result.output_bytes;
                    map_finish = map_finish.max(result.finish);
                    progress.map_done(result.finish);
                    maps_completed += 1;
                    // MapReduce Online snapshots fire when map progress
                    // crosses a requested point; each reducer takes its
                    // snapshot at the next delivery it processes ("when
                    // reducers have received X% of the data").
                    while next_snapshot < snapshots.len()
                        && maps_completed as f64
                            >= snapshots[next_snapshot] * store.num_chunks() as f64
                    {
                        next_snapshot += 1;
                    }
                    if !result.early_output.is_empty() {
                        let bytes: u64 = result.early_output.iter().map(Pair::size).sum();
                        progress.emitted(result.finish, bytes);
                        output.extend(result.early_output);
                    }
                    for granule in result.granules {
                        if let Some(merge) = node_merge {
                            let gt = granule.time;
                            let rows = &mut stage_rows[node];
                            let index = &mut stage_index[node];
                            for (r, payload) in granule.partitions.into_iter().enumerate() {
                                if payload.is_empty() {
                                    continue;
                                }
                                stage_in[node] += payload.bytes();
                                match (payload, merge) {
                                    (Payload::Pairs(batch), NodeMerge::Pairs(cb)) => {
                                        let (pairs, hashes) = batch.into_parts();
                                        for (i, p) in pairs.into_iter().enumerate() {
                                            let h = hashes
                                                .get(i)
                                                .copied()
                                                .unwrap_or_else(|| h1.hash(p.key.bytes()));
                                            match index.get(h, |row| rows[row].2 == p.key) {
                                                Some(row) => {
                                                    let slot = &mut rows[row];
                                                    let before = slot.3.len() as u64;
                                                    cb.fold(&slot.2, &mut slot.3, p.value);
                                                    stage_bytes[node] = stage_bytes[node]
                                                        + slot.3.len() as u64
                                                        - before;
                                                    stage_merges[node] += 1;
                                                    nc_stats.merged_rows += 1;
                                                }
                                                None => {
                                                    stage_bytes[node] += p.size();
                                                    index.insert(h, rows.len());
                                                    rows.push((r, h, p.key, p.value));
                                                }
                                            }
                                        }
                                    }
                                    (Payload::States(batch), NodeMerge::States(inc)) => {
                                        let ctx = &mut stage_ctx[node];
                                        let (states, hashes) = batch.into_parts();
                                        for (i, sp) in states.into_iter().enumerate() {
                                            let h = hashes
                                                .get(i)
                                                .copied()
                                                .unwrap_or_else(|| h1.hash(sp.key.bytes()));
                                            match index.get(h, |row| rows[row].2 == sp.key) {
                                                Some(row) => {
                                                    let slot = &mut rows[row];
                                                    let before = inc.state_mem_size(&slot.3);
                                                    inc.cb(&slot.2, &mut slot.3, sp.state, ctx);
                                                    let after = inc.state_mem_size(&slot.3);
                                                    stage_bytes[node] = (stage_bytes[node]
                                                        + after)
                                                        .saturating_sub(before);
                                                    stage_merges[node] += 1;
                                                    nc_stats.merged_rows += 1;
                                                }
                                                None => {
                                                    stage_bytes[node] += sp.size();
                                                    index.insert(h, rows.len());
                                                    rows.push((r, h, sp.key, sp.state));
                                                }
                                            }
                                        }
                                    }
                                    _ => unreachable!("payload kind matches the merge mode"),
                                }
                            }
                            // Map-site early emissions from a cross-task
                            // `cb()` (e.g. a session closing across two
                            // chunks of the same node) route to job output
                            // exactly like task-level map-side emissions.
                            if stage_ctx[node].pending() > 0 {
                                let b = stage_ctx[node].drain_into(&mut output);
                                let _ = res.hdfs_io(
                                    node,
                                    gt,
                                    IoCategory::ReduceOutput,
                                    IoOp::write(b),
                                    &spec.cost,
                                );
                                progress.emitted(gt, b);
                            }
                            if stage_bytes[node] > spec.node_combine_buffer {
                                flush_node!(node, gt);
                            }
                        } else {
                            for (r, payload) in granule.partitions.into_iter().enumerate() {
                                if payload.is_empty() {
                                    continue;
                                }
                                shuffle_booked += payload.bytes();
                                let arrival = granule.time + spec.cost.net_time(payload.bytes());
                                res.span(node, OpKind::Shuffle, granule.time, arrival);
                                res.emit(TraceEvent::Shuffle {
                                    t0: granule.time.0,
                                    t: arrival.0,
                                    from_node: node as u32,
                                    reducer: r as u32,
                                    bytes: payload.bytes(),
                                });
                                queue.push(
                                    arrival,
                                    Ev::Deliver {
                                        reducer: r,
                                        from_node: node,
                                        payload,
                                    },
                                );
                            }
                        }
                    }
                    // Node scope: the last committed chunk on a node takes
                    // the node's final flush before freeing the slot.
                    if node_merge.is_some() {
                        stage_outstanding[node] -= 1;
                        if stage_outstanding[node] == 0 {
                            flush_node!(node, result.finish);
                        }
                    }
                    // Free the slot: schedule the node's next chunk.
                    if let Some(next) = pending[node].pop_front() {
                        queue.push(
                            result.finish,
                            Ev::StartMap {
                                chunk: next,
                                attempt: 0,
                            },
                        );
                    }
                }
                Ev::Deliver {
                    reducer,
                    from_node,
                    payload,
                } => {
                    // Drain the maximal run of consecutive deliveries:
                    // processing a delivery never schedules new events, so
                    // everything up to the next StartMap can be recorded as
                    // one parallel batch without changing the pop order.
                    let mut burst: Vec<(SimTime, usize, usize, Payload)> =
                        vec![(t, reducer, from_node, payload)];
                    while matches!(queue.peek(), Some((_, Ev::Deliver { .. }))) {
                        let Some((
                            t2,
                            Ev::Deliver {
                                reducer,
                                from_node,
                                payload,
                            },
                        )) = queue.pop()
                        else {
                            unreachable!("peeked a delivery");
                        };
                        burst.push((t2, reducer, from_node, payload));
                    }

                    // Partition the burst into per-reducer mailboxes,
                    // preserving each reducer's arrival order; second-wave
                    // reducers defer as before.
                    let mut order: Vec<(usize, SimTime)> = Vec::with_capacity(burst.len());
                    let mut mailboxes: Vec<(usize, Vec<(Payload, usize)>)> = Vec::new();
                    for (t_ev, r, from, payload) in burst {
                        if !started[r] {
                            deferred[r].push((from, payload));
                            continue;
                        }
                        order.push((r, t_ev));
                        let slot = match mail_of[r] {
                            Some(s) => s,
                            None => {
                                mail_of[r] = Some(mailboxes.len());
                                mailboxes.push((r, Vec::new()));
                                mailboxes.len() - 1
                            }
                        };
                        // Snapshots catch up after the first delivery a
                        // reducer processes past each snapshot point.
                        let snaps = if mailboxes[slot].1.is_empty() {
                            next_snapshot.saturating_sub(snapshots_taken[r])
                        } else {
                            0
                        };
                        mailboxes[slot].1.push((payload, snaps));
                    }
                    if mailboxes.is_empty() {
                        continue;
                    }

                    // Record every mailbox on the pool (inline when the
                    // pool has no workers), then replay in pop order. The
                    // burst goes up as one batch — a single wake decision
                    // for the whole delivery run instead of one notify
                    // per mailbox.
                    let n_mail = mailboxes.len();
                    let gather = Gather::new(n_mail);
                    let mut mail_reducers: Vec<usize> = Vec::with_capacity(n_mail);
                    let mut batch: Vec<crate::exec::Task<'_>> = Vec::with_capacity(n_mail - 1);
                    let mut last: Option<crate::exec::Task<'_>> = None;
                    for (slot, (r, items)) in mailboxes.into_iter().enumerate() {
                        mail_reducers.push(r);
                        mail_of[r] = None;
                        let rec = reducers[r].take().expect("reducer in place");
                        let est = ready_at[r];
                        let g = gather.clone();
                        let task: crate::exec::Task<'_> = Box::new(move || {
                            g.put(slot, record_mailbox(rec, items, est, spec));
                        });
                        if slot + 1 == n_mail {
                            // The scheduler records the last mailbox itself:
                            // no handoff for single-mailbox bursts, and the
                            // main thread stays busy instead of waiting.
                            last = Some(task);
                        } else {
                            batch.push(task);
                        }
                    }
                    pool.submit_batch(batch);
                    last.expect("burst has at least one mailbox")();
                    for ((rec, logs), &r) in gather.wait(&pool).into_iter().zip(&mail_reducers) {
                        reducers[r] = Some(rec);
                        log_q[r] = logs;
                    }
                    for (r, t_ev) in order {
                        let (dlog, slogs) = log_q[r].pop_front().expect("one log per delivery");
                        let mut t0 = ready_at[r].max(t_ev);
                        // Reduce-task crash: the delivery finds the reducer
                        // dead; a restart backs off, then re-replays the
                        // recorded history in time-only mode to rebuild the
                        // lost in-memory state before absorbing this
                        // delivery.
                        if let Some(fp) = &fplan {
                            if fp.reduce_crashes(r, delivery_seq[r], crash_count[r]) {
                                crash_count[r] += 1;
                                freport.reduce_failures += 1;
                                freport.trace.push(FaultEvent {
                                    time: t0,
                                    kind: FaultKind::ReduceFailure,
                                    target: r as u64,
                                    attempt: crash_count[r] - 1,
                                });
                                let backoff = faults.backoff(crash_count[r]);
                                res.emit(TraceEvent::Fault {
                                    t: t0.0,
                                    kind: FaultKind::ReduceFailure,
                                    target: r as u64,
                                    attempt: crash_count[r] - 1,
                                });
                                res.emit(TraceEvent::Retry {
                                    t: (t0 + backoff).0,
                                    kind: FaultKind::ReduceFailure,
                                    target: r as u64,
                                    attempt: crash_count[r],
                                });
                                let recov = replay_recovery(
                                    &history[r],
                                    t0 + backoff,
                                    spec,
                                    reducer_node(r),
                                    &mut res,
                                );
                                freport.wasted_bytes += recov.wasted_bytes;
                                freport.wasted_cpu += recov.wasted_cpu;
                                freport.recovery_time += recov.ready_at.saturating_since(t0);
                                t0 = recov.ready_at;
                            }
                            delivery_seq[r] += 1;
                        }
                        if track_history {
                            history[r].extend(dlog.iter().cloned());
                            for slog in &slogs {
                                history[r].extend(slog.iter().cloned());
                            }
                        }
                        ready_at[r] = replay(dlog, t0, spec, target!(r));
                        for slog in slogs {
                            snapshots_taken[r] += 1;
                            ready_at[r] = replay(slog, ready_at[r], spec, target!(r));
                        }
                    }
                }
            }
        }

        // Finish wave-one reducers: record in parallel, replay in reducer
        // order (identical to the sequential engine's iteration order).
        let mut dinc_total: Option<crate::metrics::DincStats> = None;
        let mut merge_dinc = |stats: Option<crate::metrics::DincStats>| {
            if let Some(st) = stats {
                let acc = dinc_total.get_or_insert_with(Default::default);
                acc.slots_per_reducer = st.slots_per_reducer;
                acc.offered += st.offered;
                acc.rejected += st.rejected;
                acc.evict_output += st.evict_output;
                acc.evict_spilled += st.evict_spilled;
            }
        };
        let mut admission_total: Option<crate::metrics::AdmissionStats> = None;
        let mut merge_admission = |stats: Option<crate::metrics::AdmissionStats>| {
            if let Some(st) = stats {
                admission_total
                    .get_or_insert_with(Default::default)
                    .merge(&st);
            }
        };
        let mut end = map_finish;
        let mut node_wave1_finish: Vec<Vec<SimTime>> = vec![Vec::new(); n_nodes];
        let wave1: Vec<usize> = (0..n_reducers).filter(|&r| started[r]).collect();
        let gather = Gather::new(wave1.len());
        let mut finish_batch: Vec<crate::exec::Task<'_>> = Vec::new();
        let mut finish_last: Option<crate::exec::Task<'_>> = None;
        for (slot, &r) in wave1.iter().enumerate() {
            let mut rec = reducers[r].take().expect("reducer in place");
            let est = ready_at[r].max(map_finish);
            let g = gather.clone();
            let record: crate::exec::Task<'_> = Box::new(move || {
                let mut env = ReduceEnv::new(spec);
                rec.finish(est, &mut env);
                g.put(slot, (rec, env.into_log()));
            });
            if slot + 1 == wave1.len() {
                finish_last = Some(record);
            } else {
                finish_batch.push(record);
            }
        }
        pool.submit_batch(finish_batch);
        if let Some(record) = finish_last {
            record();
        }
        for ((rec, log), &r) in gather.wait(&pool).into_iter().zip(&wave1) {
            let t0 = ready_at[r].max(map_finish);
            let done = replay(log, t0, spec, target!(r));
            merge_dinc(rec.dinc_stats());
            let adm = rec.admission_stats();
            merge_admission(adm);
            node_wave1_finish[reducer_node(r)].push(done);
            end = end.max(done);
            reducers[r] = Some(rec);
            res.emit(TraceEvent::ReduceFinish {
                t: done.0,
                reducer: r as u32,
                node: reducer_node(r) as u32,
            });
            if admission.is_on() {
                if let Some(st) = adm {
                    res.emit(TraceEvent::Admission {
                        t: done.0,
                        reducer: r as u32,
                        offered: st.offered,
                        absorbed: st.absorbed,
                        evictions: st.admitted_evictions,
                        rejected: st.rejected,
                    });
                }
            }
        }

        // Second-wave reducers: start when a first-wave reducer on their
        // node finishes, re-reading their map output from the mappers'
        // disks. This stays sequential by design — each arrival time
        // depends on shared disk queues, which is a scheduling decision.
        for node_times in node_wave1_finish.iter_mut() {
            node_times.sort_unstable();
        }
        let mut wave_cursor = vec![0usize; n_nodes];
        for r in 0..n_reducers {
            if started[r] {
                continue;
            }
            let node = reducer_node(r);
            let slot_times = &node_wave1_finish[node];
            let start = if slot_times.is_empty() {
                map_finish
            } else {
                let i = wave_cursor[node].min(slot_times.len() - 1);
                wave_cursor[node] += 1;
                slot_times[i]
            };
            res.emit(TraceEvent::ReduceStart {
                t: start.0,
                reducer: r as u32,
                node: node as u32,
            });
            let mut t = start;
            let deliveries = std::mem::take(&mut deferred[r]);
            // The mappers finished long ago: their output must come off
            // disk. Fetches from distinct source nodes proceed in parallel
            // (the shuffle's parallel fetch threads); each source disk
            // serves its own reads sequentially.
            let mut arrivals: Vec<(SimTime, Payload)> = deliveries
                .into_iter()
                .map(|(from_node, payload)| {
                    let op = IoOp::read(payload.bytes());
                    let read_done =
                        res.spill_io(from_node, start, IoCategory::MapOutput, op, &spec.cost);
                    (read_done + spec.cost.net_time(payload.bytes()), payload)
                })
                .collect();
            arrivals.sort_by_key(|&(at, _)| at);
            let mut rec = reducers[r].take().expect("reducer in place");
            for (arrival, payload) in arrivals {
                let mut t0 = t.max(arrival);
                // Second-wave reducers crash and recover the same way as
                // wave one: backoff, then time-only history re-replay.
                if let Some(fp) = &fplan {
                    if fp.reduce_crashes(r, delivery_seq[r], crash_count[r]) {
                        crash_count[r] += 1;
                        freport.reduce_failures += 1;
                        freport.trace.push(FaultEvent {
                            time: t0,
                            kind: FaultKind::ReduceFailure,
                            target: r as u64,
                            attempt: crash_count[r] - 1,
                        });
                        let backoff = faults.backoff(crash_count[r]);
                        res.emit(TraceEvent::Fault {
                            t: t0.0,
                            kind: FaultKind::ReduceFailure,
                            target: r as u64,
                            attempt: crash_count[r] - 1,
                        });
                        res.emit(TraceEvent::Retry {
                            t: (t0 + backoff).0,
                            kind: FaultKind::ReduceFailure,
                            target: r as u64,
                            attempt: crash_count[r],
                        });
                        let recov =
                            replay_recovery(&history[r], t0 + backoff, spec, node, &mut res);
                        freport.wasted_bytes += recov.wasted_bytes;
                        freport.wasted_cpu += recov.wasted_cpu;
                        freport.recovery_time += recov.ready_at.saturating_since(t0);
                        t0 = recov.ready_at;
                    }
                    delivery_seq[r] += 1;
                }
                let mut env = ReduceEnv::new(spec);
                rec.on_delivery(t0, payload, &mut env);
                let dlog = env.into_log();
                if track_history {
                    history[r].extend(dlog.iter().cloned());
                }
                t = replay(dlog, t0, spec, target!(r));
            }
            let mut env = ReduceEnv::new(spec);
            rec.finish(t, &mut env);
            let done = replay(env.into_log(), t, spec, target!(r));
            res.emit(TraceEvent::ReduceFinish {
                t: done.0,
                reducer: r as u32,
                node: node as u32,
            });
            merge_dinc(rec.dinc_stats());
            let adm = rec.admission_stats();
            merge_admission(adm);
            if admission.is_on() {
                if let Some(st) = adm {
                    res.emit(TraceEvent::Admission {
                        t: done.0,
                        reducer: r as u32,
                        offered: st.offered,
                        absorbed: st.absorbed,
                        evictions: st.admitted_evictions,
                        rejected: st.rejected,
                    });
                }
            }
            reducers[r] = Some(rec);
            end = end.max(done);
        }

        // Assemble the outcome.
        let fault_report = if fault_on || poison_on {
            if let Some(inj) = res.take_disk_faults() {
                freport.spill_io_errors = inj.errors();
                freport.wasted_bytes += inj.wasted_bytes();
                freport.trace.extend(inj.into_trace());
            }
            freport.sort_trace();
            Some(freport)
        } else {
            None
        };
        let output_bytes: u64 = output.iter().map(Pair::size).sum();
        let total_reduce_cpu: SimDuration = reduce_cpu.iter().copied().sum();
        let total_map_cpu: SimDuration = map_cpu.iter().copied().sum();
        let metrics = JobMetrics {
            framework: framework.label().to_string(),
            job: job.name().to_string(),
            running_time: end,
            map_finish,
            input_bytes: input.total_bytes(),
            map_output_bytes,
            map_spill_bytes: spill_written_map,
            reduce_spill_bytes: spill_written_reduce.iter().sum(),
            output_bytes,
            snapshot_bytes: snapshot_bytes.iter().sum(),
            output_records: output.len() as u64,
            map_cpu_per_node: SimDuration(total_map_cpu.0 / n_nodes as u64),
            reduce_cpu_per_node: SimDuration(total_reduce_cpu.0 / n_nodes as u64),
            io: res.io.clone(),
            io_recovery: res.io_recovery.clone(),
            dinc: dinc_total,
            admission: admission_total,
            faults: fault_report,
            shuffle_bytes: shuffle_booked,
            node_combine: node_merge.is_some().then_some(nc_stats),
        };
        let trace_log = res.take_trace();
        Ok(JobOutcome {
            metrics,
            progress: progress.finish(end, PROGRESS_POINTS),
            timeline: std::mem::take(&mut res.timeline),
            usage: res.usage,
            output,
            trace: trace_log,
            dlq,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ReduceCtx;
    use opa_common::{Key, Value};

    struct Echo;
    impl Job for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
            emit(&record[..1], record);
        }
        fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
            ctx.emit(key.clone(), Value::from_u64(values.len() as u64));
        }
    }

    fn input(n: usize) -> JobInput {
        JobInput::from_records((0..n).map(|i| vec![(i % 17) as u8, b'a', b'b']).collect())
    }

    #[test]
    fn job_input_constructors() {
        let text = JobInput::from_text("one\n\ntwo\nthree\n");
        assert_eq!(text.len(), 3);
        assert_eq!(text.total_bytes(), 11);
        let recs = input(4);
        assert_eq!(recs.len(), 4);
        assert!(!recs.is_empty());
    }

    #[test]
    fn second_wave_reducers_slow_the_job() {
        // §3.2(3): with R above the reduce-slot count, the second wave
        // must re-read map output from disk — R=8 ran slower than R=4 in
        // the paper (4723 s vs 4187 s).
        let data = input(3000);
        let mut spec = crate::cluster::ClusterSpec::paper_scaled();
        spec.system.chunk_size = 1024;
        let run = |r: usize| {
            let mut s = spec;
            s.system.reducers_per_node = r;
            JobBuilder::new(Echo)
                .cluster(s)
                .run(&data)
                .expect("job runs")
                .metrics
                .running_time
        };
        let wave1 = run(4);
        let wave2 = run(8);
        assert!(
            wave2 > wave1,
            "two waves should be slower: R=4 {wave1}, R=8 {wave2}"
        );
    }

    #[test]
    fn single_chunk_job_works() {
        let data = input(3);
        let outcome = JobBuilder::new(Echo)
            .cluster(crate::cluster::ClusterSpec::tiny())
            .run(&data)
            .expect("job runs");
        assert_eq!(outcome.metrics.output_records, 3); // 3 distinct first bytes
        assert_eq!(outcome.progress.points.last().unwrap().map_pct, 100.0);
    }

    #[test]
    fn sorted_output_is_canonical() {
        let data = input(100);
        let a = JobBuilder::new(Echo)
            .cluster(crate::cluster::ClusterSpec::tiny())
            .framework(crate::cluster::Framework::MrHash)
            .run(&data)
            .expect("job runs");
        let b = JobBuilder::new(Echo)
            .cluster(crate::cluster::ClusterSpec::tiny())
            .framework(crate::cluster::Framework::SortMerge)
            .run(&data)
            .expect("job runs");
        assert_eq!(a.sorted_output(), b.sorted_output());
    }

    #[test]
    fn parallel_execution_is_bit_identical() {
        // The full determinism matrix lives in tests/determinism.rs; this
        // is the smoke check closest to the scheduler.
        let data = input(800);
        let mut spec = crate::cluster::ClusterSpec::paper_scaled();
        spec.system.chunk_size = 512;
        let run = |threads: usize| {
            JobBuilder::new(Echo)
                .cluster(spec)
                .framework(crate::cluster::Framework::SortMergePipelined)
                .exec(opa_common::ExecConfig::oversubscribed(threads))
                .run(&data)
                .expect("job runs")
        };
        let seq = run(1);
        let par = run(4);
        assert_eq!(format!("{seq:?}"), format!("{par:?}"));
    }

    #[test]
    fn invalid_snapshot_points_rejected() {
        for bad in [f64::NAN, f64::INFINITY, -0.25, 1.5] {
            let r = JobBuilder::new(Echo)
                .cluster(crate::cluster::ClusterSpec::tiny())
                .snapshot_points(&[0.5, bad])
                .run(&input(10));
            assert!(r.is_err(), "snapshot point {bad} must be rejected");
        }
        // Boundary values are fine.
        JobBuilder::new(Echo)
            .cluster(crate::cluster::ClusterSpec::tiny())
            .snapshot_points(&[0.0, 1.0])
            .run(&input(10))
            .expect("boundary snapshot points are valid");
    }

    #[test]
    fn zero_threads_rejected() {
        let r = JobBuilder::new(Echo)
            .cluster(crate::cluster::ClusterSpec::tiny())
            .threads(0)
            .run(&input(10));
        assert!(r.is_err(), "threads = 0 is invalid");
    }

    #[test]
    fn dinc_stats_reported_only_for_dinc() {
        use crate::api::IncrementalReducer;
        #[derive(Clone)]
        struct CountInc;
        impl Job for CountInc {
            fn name(&self) -> &str {
                "count"
            }
            fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
                emit(&record[..1], &1u64.to_be_bytes());
            }
            fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
                ctx.emit(key.clone(), Value::from_u64(values.len() as u64));
            }
            fn incremental(&self) -> Option<&dyn IncrementalReducer> {
                Some(self)
            }
        }
        impl IncrementalReducer for CountInc {
            fn init(&self, _k: &Key, v: Value) -> Value {
                v
            }
            fn cb(&self, _k: &Key, acc: &mut Value, other: Value, _ctx: &mut ReduceCtx) {
                *acc = Value::from_u64(acc.as_u64().unwrap_or(0) + other.as_u64().unwrap_or(0));
            }
            fn finalize(&self, k: &Key, state: Value, ctx: &mut ReduceCtx) {
                ctx.emit(k.clone(), state);
            }
        }
        let data = input(500);
        let dinc = JobBuilder::new(CountInc)
            .framework(crate::cluster::Framework::DincHash)
            .cluster(crate::cluster::ClusterSpec::tiny())
            .run(&data)
            .expect("job runs");
        let stats = dinc.metrics.dinc.expect("DINC reports monitor stats");
        assert!(stats.slots_per_reducer > 0);
        // Map-side combining collapses each chunk to its distinct keys
        // (17 here), so the monitor sees one tuple per (chunk, key).
        assert!(stats.offered >= 17 && stats.offered <= 500, "{stats:?}");
        let inc = JobBuilder::new(CountInc)
            .framework(crate::cluster::Framework::IncHash)
            .cluster(crate::cluster::ClusterSpec::tiny())
            .run(&data)
            .expect("job runs");
        assert!(inc.metrics.dinc.is_none());
    }

    #[test]
    fn snapshots_cost_time_and_produce_output() {
        let data = input(2000);
        let mut spec = crate::cluster::ClusterSpec::paper_scaled();
        spec.system.chunk_size = 1024;
        let plain = JobBuilder::new(Echo)
            .framework(crate::cluster::Framework::SortMergePipelined)
            .cluster(spec)
            .run(&data)
            .expect("job runs");
        let snap = JobBuilder::new(Echo)
            .framework(crate::cluster::Framework::SortMergePipelined)
            .cluster(spec)
            .snapshot_points(&[0.25, 0.5, 0.75])
            .run(&data)
            .expect("job runs");
        assert_eq!(plain.metrics.snapshot_bytes, 0);
        assert!(snap.metrics.snapshot_bytes > 0, "snapshots must emit");
        assert!(
            snap.metrics.running_time > plain.metrics.running_time,
            "repeating the merge must cost time: {} vs {}",
            snap.metrics.running_time,
            plain.metrics.running_time
        );
        // The final answer is unaffected by snapshotting.
        assert_eq!(plain.sorted_output(), snap.sorted_output());
    }

    #[test]
    fn invalid_cluster_rejected() {
        let mut spec = crate::cluster::ClusterSpec::tiny();
        spec.system.merge_factor = 1;
        let r = JobBuilder::new(Echo).cluster(spec).run(&input(4));
        assert!(r.is_err());
    }
}
