//! Reduce-side frameworks.
//!
//! Each framework implements [`ReduceSide`]: the engine feeds it shuffle
//! deliveries as mappers complete, then calls `finish` once the last
//! delivery has arrived. All five share [`ReduceEnv`] (the reducer's view
//! of the simulated node) and [`OutputSink`] (batched HDFS output writes +
//! progress accounting).
//!
//! ## Record / replay split
//!
//! A reducer keeps no clock. Through [`ReduceEnv`] it records every charge
//! it makes — CPU, spills, shuffle and work progress, emitted output,
//! snapshot writes, timeline spans — as an [`Effect`] log, and it touches
//! no shared simulation state. Only the scheduling layer keeps time:
//! [`replay`] applies a log to the shared [`Resources`]/[`ProgressTracker`]
//! from the reducer's start, in strict event order, resolving disk-queue
//! contention as it goes, and [`replay_recovery`] charges a crashed
//! reducer's history again in time-only mode. Both price an effect from
//! one charge table. With no clock in hand, no reducer can let one steer a
//! data decision.
//!
//! The log is what lets a reducer run off the scheduler thread. The
//! engine's finish wave ([`crate::engine`]) completes every first-wave
//! reducer on the worker pool, each into a log of its own, and replays the
//! logs in reducer order, so the observable [`crate::job::JobOutcome`]
//! stays bit-identical at any thread count. Deliveries and snapshots are
//! recorded on the scheduler thread and replayed at once.
//!
//! A log entry is one side effect — except [`Effect::Absorbed`], which is a
//! *run*: `n` back-to-back repetitions of "charge `dur` of CPU, then
//! acknowledge one unit of work", the whole virtual-time cost of `n` tuples
//! absorbed in memory at the same price (§4.2: a tuple whose key is
//! resident costs one `cb()` and nothing else). It is not an
//! [`Effect::Cpu`] of `n·dur` followed by an [`Effect::Worked`] of `n`:
//! that pair takes *one* progress sample, after the whole charge — what
//! the callers that batch want (sort-merge, MR-hash and the bucket pass
//! commit 512 records at a time) — whereas the incremental frameworks'
//! reduce progress rises tuple by tuple while the mappers still run. A run
//! keeps every per-tuple sample ([`replay`] hands it to the tracker as `n`
//! samples `dur` apart) at the cost of one entry in the log, one CPU
//! interval on the node and one entry in the tracker, whatever `n` is.
//! [`ReduceEnv::absorbed`] only ever extends the log's *last* entry, so a
//! run never spans another effect and effect order is exactly what
//! recording each tuple's charge and acknowledgement separately would give
//! — the per-tuple form the `run_oracle` tests expand every log back to.

mod buckets;
pub mod dinc_hash;
pub mod inc_hash;
pub mod mr_hash;
pub mod sort_merge;

#[cfg(test)]
mod run_oracle;
#[cfg(test)]
#[path = "tests.rs"]
mod tests_frameworks;

use crate::api::{Job, JobRef, ReduceCtx};
use crate::cluster::{ClusterSpec, Framework};
use crate::cost::CostModel;
use crate::progress::ProgressTracker;
use crate::sim::Resources;
use opa_common::units::{SimDuration, SimTime};
use opa_common::{Error, HashFamily, Key, Pair, RecordBatch, Result, Value};
use opa_freq::MonitorKind;
use opa_simio::{IoCategory, IoOp};
use opa_trace::SpanKind;

/// Charge batch size: user-function work is priced per record but charged
/// in batches this large, so progress curves rise smoothly without one
/// event per record.
pub(crate) const WORK_BATCH: u64 = 512;

/// Sizing hints the engine derives for each reducer from job hints and the
/// cluster spec.
#[derive(Debug, Clone, Copy)]
pub struct ReducerSizing {
    /// Expected bytes of shuffle input this reducer will receive.
    pub expected_input: u64,
    /// Expected distinct keys this reducer will see.
    pub expected_keys: u64,
    /// Typical key-state pair size in bytes.
    pub state_size: u64,
    /// DINC approximate mode: coverage threshold φ at which monitored keys
    /// may be finalized from partial state, skipping disk (§4.3). `None`
    /// requests exact processing.
    pub early_stop_coverage: Option<f64>,
    /// Which frequency algorithm drives the DINC monitor.
    pub monitor: MonitorKind,
    /// Whether table-full arrivals may evict resident cold keys
    /// (frequency-gated admission) instead of always spilling themselves.
    pub admission: opa_common::AdmissionPolicy,
}

impl ReducerSizing {
    /// Sizing for one of `partitions` reducers from the job's own hints,
    /// `input_bytes` of job input and the `K_m` hint — with exact
    /// processing, the FREQUENT monitor and admission off, which the
    /// engine overrides from its run configuration.
    pub fn from_hints(job: &dyn Job, input_bytes: u64, km_hint: f64, partitions: usize) -> Self {
        let expected_input = ((input_bytes as f64 * km_hint) / partitions as f64).ceil() as u64;
        ReducerSizing {
            expected_input,
            expected_keys: job
                .expected_keys()
                .map(|k| (k / partitions as u64).max(1))
                .unwrap_or(expected_input / 64),
            state_size: job.state_size_hint().unwrap_or(64),
            early_stop_coverage: None,
            monitor: MonitorKind::Frequent,
            admission: opa_common::AdmissionPolicy::Off,
        }
    }

    /// Bucket fan-out `h` such that one bucket's keys fit in `mem` bytes:
    /// `h = ⌈K·entry/mem⌉`, clamped to leave room for write buffers.
    pub fn bucket_count(&self, mem: u64, write_buffer: u64) -> usize {
        let entry = self.state_size.max(1);
        let needed = (self.expected_keys.max(1) * entry).div_ceil(mem.max(1));
        let max_h = (mem / (2 * write_buffer.max(1))).max(1);
        (needed.max(1) as usize).min(max_h as usize)
    }
}

/// One recorded reducer side effect, replayed against shared state by
/// [`replay`]. `Clone` so the fault subsystem can keep each reducer's
/// effect history for crash re-replay ([`replay_recovery`]).
#[derive(Debug, Clone)]
pub enum Effect {
    /// CPU charged to the reducer's node.
    Cpu(SimDuration),
    /// A reduce-spill disk operation (category `U_4`).
    Spill(IoOp),
    /// Shuffle bytes acknowledged into Definition-1 progress.
    Shuffled(u64),
    /// Reduce-work units acknowledged into Definition-1 progress.
    Worked(u64),
    /// A run of `n` absorbed tuples: `n` times over, `dur` of CPU charged
    /// to the reducer's node, then one reduce-work unit acknowledged.
    Absorbed {
        /// The per-tuple CPU charge.
        dur: SimDuration,
        /// Tuples in the run (at least one).
        n: u32,
    },
    /// Output pairs written to HDFS (flushed sink batch).
    Emit(Vec<Pair>),
    /// A snapshot write of this many bytes (HOP periodic output; does not
    /// count as final job output).
    Snapshot(u64),
    /// Open a timeline span at the replay clock.
    SpanOpen,
    /// Close the innermost open span as `kind`. An unmatched
    /// [`Effect::SpanOpen`] (e.g. a snapshot that found nothing to merge)
    /// is dropped, matching the sequential engine which never recorded a
    /// span for it.
    SpanClose(SpanKind),
}

/// The reducer's recording handle on the simulated node: collects the
/// [`Effect`] log of the charges the reducer makes. It keeps no clock and
/// owns no shared state, so it may live on any thread; [`replay`] alone
/// turns the log into time.
pub struct ReduceEnv<'a> {
    /// Cluster configuration.
    pub spec: &'a ClusterSpec,
    log: Vec<Effect>,
}

impl<'a> ReduceEnv<'a> {
    /// A fresh recorder.
    pub fn new(spec: &'a ClusterSpec) -> Self {
        ReduceEnv::with_log(spec, Vec::new())
    }

    /// A recorder that writes into `log`, emptied first: a caller that
    /// records step after step hands the same vector back each time and
    /// allocates only when a step logs more than any before it.
    pub fn with_log(spec: &'a ClusterSpec, mut log: Vec<Effect>) -> Self {
        log.clear();
        ReduceEnv { spec, log }
    }

    /// Shortcut: cost model.
    pub fn cost(&self) -> &CostModel {
        &self.spec.cost
    }

    /// Charges `dur` of CPU to this reducer.
    pub fn cpu(&mut self, dur: SimDuration) {
        self.log.push(Effect::Cpu(dur));
    }

    /// Absorbs one tuple: charges `dur` of CPU, then acknowledges one
    /// reduce-work unit. Tuples absorbed back to back at the same charge
    /// share one log entry (see [`Effect::Absorbed`]).
    pub fn absorbed(&mut self, dur: SimDuration) {
        match self.log.last_mut() {
            Some(Effect::Absorbed { dur: d, n }) if *d == dur && *n < u32::MAX => *n += 1,
            _ => self.log.push(Effect::Absorbed { dur, n: 1 }),
        }
    }

    /// Performs a reduce-spill I/O (category `U_4`). Empty I/O is not
    /// logged.
    pub fn spill(&mut self, op: IoOp) {
        if !op.is_none() {
            self.log.push(Effect::Spill(op));
        }
    }

    /// Acknowledges shuffle bytes into progress.
    pub fn shuffled(&mut self, bytes: u64) {
        self.log.push(Effect::Shuffled(bytes));
    }

    /// Acknowledges reduce-work units into progress.
    pub fn worked(&mut self, units: u64) {
        self.log.push(Effect::Worked(units));
    }

    /// Writes output pairs to HDFS (used by [`OutputSink`]).
    pub(crate) fn emit(&mut self, pairs: Vec<Pair>) {
        self.log.push(Effect::Emit(pairs));
    }

    /// Writes a snapshot (partial answer) of `bytes` to HDFS.
    pub fn snapshot_write(&mut self, bytes: u64) {
        self.log.push(Effect::Snapshot(bytes));
    }

    /// Marks the start of a timeline span.
    pub fn span_open(&mut self) {
        self.log.push(Effect::SpanOpen);
    }

    /// Closes the innermost open span as `kind`.
    pub fn span_close(&mut self, kind: SpanKind) {
        self.log.push(Effect::SpanClose(kind));
    }

    /// Consumes the recorder, yielding the effect log for [`replay`].
    pub fn into_log(self) -> Vec<Effect> {
        self.log
    }
}

/// Mutable borrows of the shared simulation state one replayed reducer
/// writes into. Assembled by the scheduling layer per replay call.
pub struct ReplayTarget<'a> {
    /// Node hosting this reducer.
    pub node: usize,
    /// Shared disks / usage / timeline / IoStats.
    pub res: &'a mut Resources,
    /// Job-wide progress tracker.
    pub progress: &'a mut ProgressTracker,
    /// Job-wide collected output.
    pub output: &'a mut Vec<Pair>,
    /// CPU seconds consumed by this reducer (engine aggregates per node).
    pub reduce_cpu: &'a mut SimDuration,
    /// Reduce-side spill bytes written (Tables 1/3/4 "Reduce spill").
    pub spill_written: &'a mut u64,
    /// Snapshot output bytes (HOP's periodic approximate outputs, §3.3).
    pub snapshot_bytes: &'a mut u64,
}

/// What booking one effect cost the reducer's node.
struct Charge {
    /// When the effect's work ends.
    end: SimTime,
    /// CPU charged.
    cpu: SimDuration,
    /// Bytes written: spilled, or staged to HDFS as output or snapshot.
    written: u64,
}

/// The one charge table both replays price effects from: books the node
/// time `effect` takes from `t` — CPU for a charge or a run, the disk
/// queue for a spill, an HDFS write for an output batch or a snapshot.
/// Progress and span effects take none.
fn charge(
    effect: &Effect,
    t: SimTime,
    node: usize,
    res: &mut Resources,
    cost: &CostModel,
) -> Charge {
    let (cpu, written) = match effect {
        Effect::Cpu(dur) => (*dur, 0),
        Effect::Absorbed { dur, n } => (SimDuration(dur.0 * u64::from(*n)), 0),
        Effect::Spill(op) => (SimDuration::ZERO, op.written),
        Effect::Emit(pairs) => (SimDuration::ZERO, pairs.iter().map(Pair::size).sum()),
        Effect::Snapshot(bytes) => (SimDuration::ZERO, *bytes),
        Effect::Shuffled(_) | Effect::Worked(_) | Effect::SpanOpen | Effect::SpanClose(_) => {
            (SimDuration::ZERO, 0)
        }
    };
    let end = match effect {
        Effect::Cpu(_) | Effect::Absorbed { .. } => res.cpu(node, t, cpu),
        Effect::Spill(op) => res.spill_io(node, t, IoCategory::ReduceSpill, *op, cost),
        Effect::Emit(_) | Effect::Snapshot(_) => res.hdfs_io(
            node,
            t,
            IoCategory::ReduceOutput,
            IoOp::write(written),
            cost,
        ),
        Effect::Shuffled(_) | Effect::Worked(_) | Effect::SpanOpen | Effect::SpanClose(_) => t,
    };
    Charge { end, cpu, written }
}

/// Applies a recorded effect log to the shared simulation state starting
/// at `t0`, resolving disk-queue contention and progress/timeline order.
/// Returns the reducer's real completion time. Must be called on the
/// scheduling thread, in event order — this is what makes parallel
/// recording observationally identical to sequential execution. The log
/// is consumed; a `Vec::drain` keeps its buffer for the next recording.
pub fn replay(
    log: impl IntoIterator<Item = Effect>,
    t0: SimTime,
    spec: &ClusterSpec,
    target: ReplayTarget<'_>,
) -> SimTime {
    let mut t = t0;
    let mut spans: Vec<SimTime> = Vec::new();
    for effect in log {
        let c = charge(&effect, t, target.node, target.res, &spec.cost);
        *target.reduce_cpu += c.cpu;
        match effect {
            Effect::Spill(_) => *target.spill_written += c.written,
            Effect::Snapshot(_) => *target.snapshot_bytes += c.written,
            Effect::Shuffled(bytes) => target.progress.shuffled(t, bytes),
            Effect::Worked(units) => target.progress.worked(t, units),
            Effect::Absorbed { dur, n } => target.progress.worked_run(t, dur, n),
            Effect::Emit(pairs) => {
                target.progress.emitted(c.end, c.written);
                target.output.extend(pairs);
            }
            Effect::SpanOpen => spans.push(t),
            Effect::SpanClose(kind) => {
                let start = spans.pop().expect("span_close without span_open");
                target.res.span(target.node, kind, start, t);
            }
            Effect::Cpu(_) => {}
        }
        t = c.end;
    }
    t
}

/// What one reduce-task recovery cost: when the restarted reducer caught
/// back up, plus the work it had to redo.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryCost {
    /// Time at which the reducer has re-absorbed its whole history.
    pub ready_at: SimTime,
    /// Bytes re-written (spills) or re-staged (output buffers) whose first
    /// copy was lost with the crash.
    pub wasted_bytes: u64,
    /// CPU burned redoing already-done work.
    pub wasted_cpu: SimDuration,
}

/// The entry a crash history keeps for `effect`: an output batch by its
/// bytes alone, as the [`Effect::Snapshot`] that [`replay_recovery`]
/// charges exactly like it, so the history never holds output pairs.
pub(crate) fn history_entry(effect: &Effect) -> Effect {
    match effect {
        Effect::Emit(pairs) => Effect::Snapshot(pairs.iter().map(Pair::size).sum()),
        other => other.clone(),
    }
}

/// Re-replays a crashed reducer's recorded effect history in *time-only*
/// mode: CPU and disk operations are charged against the shared resources
/// again (a restarted reduce task re-fetches its deliveries and redoes its
/// ingestion work), but output, snapshots and progress are **not**
/// re-applied — the job's observable results must stay bit-identical to a
/// fault-free run. Emit/Snapshot effects still pay their HDFS write time:
/// the restarted task re-stages those buffers before its (idempotent)
/// commit. Progress was acknowledged by the first execution and timeline
/// spans must not duplicate, so those effects cost nothing here. Must run
/// on the scheduling thread, like [`replay`].
pub fn replay_recovery(
    history: &[Effect],
    t0: SimTime,
    spec: &ClusterSpec,
    node: usize,
    res: &mut Resources,
) -> RecoveryCost {
    let mut recovery = RecoveryCost {
        ready_at: t0,
        wasted_bytes: 0,
        wasted_cpu: SimDuration::ZERO,
    };
    // Everything charged below is re-done work: segregate it so
    // first-pass metrics (what the §3 model predicts) stay clean.
    res.begin_recovery();
    for effect in history {
        let c = charge(effect, recovery.ready_at, node, res, &spec.cost);
        recovery.ready_at = c.end;
        recovery.wasted_cpu += c.cpu;
        recovery.wasted_bytes += c.written;
    }
    res.end_recovery();
    recovery
}

/// A framework-neutral serialization of one reducer's resident state, the
/// unit the stream runtime's checkpoints are built from.
///
/// Each framework packs its internals into flat typed sections — `u64`
/// arrays, pair runs, state runs — that map 1:1 onto
/// [`opa_simio::ckpt`] container sections. The layout of the sections is
/// private to the framework: only the matching framework (identified by
/// `tag`) can re-import a checkpoint, and [`ReduceSide::import_state`]
/// rejects a mismatched tag. Offline reads of a checkpoint go through the
/// same framework code ([`ReducerCkpt::lookup`],
/// [`ReducerCkpt::top_entries`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReducerCkpt {
    /// Framework discriminant: 1 = sort-merge (both variants), 2 = MR-hash,
    /// 3 = INC-hash, 4 = DINC-hash.
    pub tag: u8,
    /// Framework-private boolean/enum flags, bit-packed.
    pub flags: u64,
    /// Event-time watermark at checkpoint, if the framework tracks one.
    pub watermark: Option<u64>,
    /// Numeric sections (counters, per-run lengths, monitor counts…).
    pub nums: Vec<Vec<u64>>,
    /// Pair-run sections (spill runs, pending output…).
    pub pairs: Vec<Vec<Pair>>,
    /// State-run sections of key-state pairs (hash-table contents, bucket
    /// files…), kept apart from `pairs` because they persist under their
    /// own section tag.
    pub states: Vec<Vec<Pair>>,
}

impl ReducerCkpt {
    /// Point lookup of `key`'s resident partial aggregate in the
    /// checkpointed state: what [`ReduceSide::query`] answered when the
    /// checkpoint was taken. `None` for a framework that keeps no
    /// queryable state.
    pub fn lookup(&self, key: &Key) -> Option<Value> {
        match self.tag {
            inc_hash::CKPT_TAG => inc_hash::checkpointed_query(self, key),
            dinc_hash::CKPT_TAG => dinc_hash::checkpointed_query(self, key),
            _ => None,
        }
    }

    /// The top-`k` answer with γ of the checkpointed state: what
    /// [`ReduceSide::top_entries`] answered when the checkpoint was taken.
    /// `None` unless the checkpoint is a well-formed DINC-hash one.
    pub fn top_entries(&self, k: usize) -> Option<(Vec<TopEntry>, f64)> {
        match self.tag {
            dinc_hash::CKPT_TAG => dinc_hash::checkpointed_top_entries(self, k),
            _ => None,
        }
    }
}

/// One entry of a DINC top-k answer: the key, its estimated frequency
/// (a lower bound under FREQUENT), and its resident partial state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopEntry {
    /// The monitored key.
    pub key: Key,
    /// Estimated occurrence count.
    pub count: u64,
    /// The key's current partial aggregate state.
    pub state: Value,
}

/// Batches reducer output into 64 KB HDFS writes and keeps the output
/// component of Definition-1 progress current.
pub struct OutputSink {
    pending: Vec<Pair>,
    pending_bytes: u64,
    flush_at: u64,
}

impl OutputSink {
    /// A sink flushing every 64 KB.
    pub fn new() -> Self {
        OutputSink {
            pending: Vec::new(),
            pending_bytes: 0,
            flush_at: 64 * 1024,
        }
    }

    /// Queues everything `ctx` has emitted since its last drain; flushes
    /// to HDFS if the write buffer filled. The pairs are moved, and `ctx`
    /// keeps its emission buffer, so draining after every delivery
    /// allocates nothing.
    pub fn push(&mut self, ctx: &mut ReduceCtx, env: &mut ReduceEnv<'_>) {
        if ctx.pending() == 0 {
            return;
        }
        self.pending_bytes += ctx.drain_into(&mut self.pending);
        if self.pending_bytes >= self.flush_at {
            self.flush(env);
        }
    }

    /// Flushes everything queued.
    pub fn flush(&mut self, env: &mut ReduceEnv<'_>) {
        if self.pending.is_empty() {
            return;
        }
        self.pending_bytes = 0;
        env.emit(std::mem::take(&mut self.pending));
    }

    /// Copy of the not-yet-flushed output buffer (checkpointing).
    pub(crate) fn export_pending(&self) -> Vec<Pair> {
        self.pending.clone()
    }

    /// Refills the output buffer of a fresh sink (restore path).
    pub(crate) fn restore_pending(&mut self, pending: Vec<Pair>) {
        debug_assert!(self.pending.is_empty(), "restore into a non-empty sink");
        self.pending_bytes = pending.iter().map(Pair::size).sum();
        self.pending = pending;
    }
}

impl Default for OutputSink {
    fn default() -> Self {
        OutputSink::new()
    }
}

/// A reduce-side framework instance serving one reduce task. It records
/// the charges of its work through a [`ReduceEnv`] and keeps no clock:
/// when that work happens is the scheduler's to say.
pub trait ReduceSide {
    /// Absorbs one shuffle delivery.
    fn deliver(&mut self, batch: RecordBatch, env: &mut ReduceEnv<'_>);

    /// Called once after the final delivery; completes all processing.
    fn complete(&mut self, env: &mut ReduceEnv<'_>);

    /// [`ReduceSide::deliver`] behind the clock-threading signature
    /// `opa_perf/src/layers.rs` calls; returns `t` unchanged. It goes when
    /// that driver does (ROADMAP item 1b); call `deliver` instead.
    fn on_delivery(&mut self, t: SimTime, batch: RecordBatch, env: &mut ReduceEnv<'_>) -> SimTime {
        self.deliver(batch, env);
        t
    }

    /// [`ReduceSide::complete`] behind the clock-threading signature
    /// `opa_perf/src/layers.rs` calls; returns `t` unchanged. It goes when
    /// that driver does (ROADMAP item 1b); call `complete` instead.
    fn finish(&mut self, t: SimTime, env: &mut ReduceEnv<'_>) -> SimTime {
        self.complete(env);
        t
    }

    /// DINC monitor statistics, if this reducer runs DINC-hash.
    fn dinc_stats(&self) -> Option<crate::metrics::DincStats> {
        None
    }

    /// Frequency-gated admission statistics, if this reducer ran with the
    /// LFU admission policy enabled.
    fn admission_stats(&self) -> Option<crate::metrics::AdmissionStats> {
        None
    }

    /// Produces a snapshot of the current (partial) answer — MapReduce
    /// Online's periodic outputs (§3.3). The default is a no-op; the
    /// sort-merge framework implements it by *repeating the merge* over
    /// everything received so far, which is exactly why the paper finds
    /// snapshots expensive.
    fn snapshot(&mut self, _env: &mut ReduceEnv<'_>) {}

    /// Serializes this reducer's resident state for a stream checkpoint.
    /// All built-in frameworks implement this; the default errors so
    /// third-party reducers opt in explicitly.
    fn export_state(&self) -> Result<ReducerCkpt> {
        Err(Error::job(
            "this reduce-side framework does not support checkpointing",
        ))
    }

    /// Restores state exported by [`ReduceSide::export_state`] into a
    /// freshly constructed reducer that has absorbed no deliveries.
    /// Rejects a checkpoint whose `tag` names a different framework.
    fn import_state(&mut self, _ckpt: ReducerCkpt) -> Result<()> {
        Err(Error::job(
            "this reduce-side framework does not support checkpointing",
        ))
    }

    /// Point lookup of a key's *resident* partial aggregate, served between
    /// micro-batches. `None` means this framework keeps no queryable
    /// in-memory state for the key (sort-merge and MR-hash buffer raw runs;
    /// INC/DINC answer from their hash table / monitor). Spilled partials
    /// merge only at `finish`, so a hit is a partial answer over everything
    /// absorbed into memory so far.
    fn query(&self, _key: &Key) -> Option<Value> {
        None
    }

    /// The top monitored keys by estimated frequency, with the monitor's
    /// coverage lower bound γ (Theorem 1 of the paper). Only DINC-hash —
    /// the framework that actually maintains a frequency monitor — answers;
    /// others return `None`.
    fn top_entries(&self, _k: usize) -> Option<(Vec<TopEntry>, f64)> {
        None
    }

    /// Event-time watermark: the largest event time absorbed into state,
    /// if the job extracts event times. `None` when untracked.
    fn watermark(&self) -> Option<u64> {
        None
    }
}

/// Instantiates the reduce-side framework for one reduce task over a
/// borrowed job. The box is `Send` so the execution layer can complete
/// reducers on worker threads.
pub fn make_reducer<'j>(
    framework: Framework,
    job: &'j dyn Job,
    spec: &ClusterSpec,
    sizing: ReducerSizing,
    family: &HashFamily,
) -> Result<Box<dyn ReduceSide + Send + 'j>> {
    build_reducer(framework, JobRef::borrowed(job), spec, sizing, family)
}

/// [`make_reducer`] over a job however the engine holds it.
pub(crate) fn build_reducer<'j>(
    framework: Framework,
    job: JobRef<'j>,
    spec: &ClusterSpec,
    sizing: ReducerSizing,
    family: &HashFamily,
) -> Result<Box<dyn ReduceSide + Send + 'j>> {
    match framework {
        Framework::SortMerge | Framework::SortMergePipelined => {
            Ok(Box::new(sort_merge::SortMergeReducer::new(job, spec)))
        }
        Framework::MrHash => Ok(Box::new(mr_hash::MrHashReducer::new(
            job, spec, sizing, family,
        ))),
        Framework::IncHash => {
            let _ = job.incremental().ok_or_else(|| {
                Error::job("INC-hash requires the job to implement IncrementalReducer")
            })?;
            Ok(Box::new(inc_hash::IncHashReducer::new(
                job, spec, sizing, family,
            )))
        }
        Framework::DincHash => {
            let _ = job.incremental().ok_or_else(|| {
                Error::job("DINC-hash requires the job to implement IncrementalReducer")
            })?;
            Ok(Box::new(dinc_hash::DincHashReducer::new(
                job, spec, sizing, family,
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_count_scales_with_key_space() {
        let small = ReducerSizing {
            expected_input: 1 << 20,
            expected_keys: 100,
            state_size: 64,
            early_stop_coverage: None,
            monitor: MonitorKind::Frequent,
            admission: opa_common::AdmissionPolicy::Off,
        };
        // 100 keys × 64 B = 6.4 KB fits easily in 1 MB → one bucket.
        assert_eq!(small.bucket_count(1 << 20, 1024), 1);

        let large = ReducerSizing {
            expected_input: 1 << 30,
            expected_keys: 1 << 20,
            state_size: 512,
            early_stop_coverage: None,
            monitor: MonitorKind::Frequent,
            admission: opa_common::AdmissionPolicy::Off,
        };
        // 1 Mi keys × 512 B = 512 MB over 1 MB memory → many buckets,
        // clamped by write-buffer room.
        let h = large.bucket_count(1 << 20, 1024);
        assert!(h > 1);
        assert!(h as u64 <= (1 << 20) / 2048);
    }

    #[test]
    fn bucket_count_never_zero() {
        let s = ReducerSizing {
            expected_input: 0,
            expected_keys: 0,
            state_size: 0,
            early_stop_coverage: None,
            monitor: MonitorKind::Frequent,
            admission: opa_common::AdmissionPolicy::Off,
        };
        assert_eq!(s.bucket_count(1024, 512), 1);
    }

    #[test]
    fn recording_env_logs_effects_but_not_empty_io() {
        let spec = ClusterSpec::paper_scaled();
        let mut env = ReduceEnv::new(&spec);
        env.cpu(SimDuration::from_secs_f64(1.0));
        env.spill(IoOp::write(4096));
        env.spill(IoOp::NONE);
        env.shuffled(4096);
        env.worked(7);
        let log = env.into_log();
        assert_eq!(log.len(), 4, "empty I/O must not be logged");
        assert!(matches!(log[0], Effect::Cpu(_)));
        assert!(matches!(log[1], Effect::Spill(_)));
        assert!(matches!(log[2], Effect::Shuffled(4096)));
        assert!(matches!(log[3], Effect::Worked(7)));
    }
}
