//! The engine: the discrete-event loop tying mappers, shuffle and reducers
//! together, as one resumable state machine.
//!
//! The input is split into `C`-sized chunks by the block store, map tasks
//! run on each node's map slots (FIFO over node-local chunks), completed
//! mappers push granules whose per-reducer payloads travel over the
//! simulated network, and each reducer — a serial virtual timeline —
//! absorbs deliveries through its framework and completes once the queue
//! drains. Reducers normally all start in wave one (`R` ≤ reduce slots);
//! with `R` above the slot count the extra reducers start only when a
//! first-wave reducer on their node finishes and must re-read all their
//! map output from the mappers' disks — the two-wave effect of §3.2(3).
//!
//! ## One loop, stepped
//!
//! [`Engine::run_until`] processes events until every chunk below a
//! *quota* is mapped and no shuffle delivery originating from one is in
//! flight; [`Engine::finish`] drains what is left and runs the reducers'
//! finish phase. A batch run is `finish` alone. The stream runtime calls
//! `run_until` once per micro-batch and, at each pause, reads the live
//! reducers ([`Engine::reducers`]) or checkpoints the whole machine
//! ([`Engine::export_state`]). A pause only *observes* between two queue
//! pops — it never reorders, drops or injects an event — so a paused run's
//! event sequence, trace and outcome are the batch run's.
//!
//! An engine is a value: it owns what it builds per run (its config, the
//! block store, the chunks still to map) and holds the job and the input
//! through a [`Handle`] — borrowed by a batch run or a dataflow stage,
//! shared by a served job, whose engine lives in the server between waves.
//!
//! ## Scheduling vs execution
//!
//! The engine is the *scheduling layer*: it owns every piece of shared
//! simulation state, touches it strictly in event order, and keeps the
//! only clock. The coarse, pure data work — map-task computation
//! ([`compute_map_task`]) and the reducers' finish wave — runs on the
//! *execution layer* ([`crate::exec`]): a pool of `threads − 1` worker
//! threads plus the scheduler itself, scoped to one [`Engine::run_until`]
//! or [`Engine::finish`] call, so no borrow outlives a call. Shuffle
//! deliveries are too fine-grained to hand off and run on the scheduler
//! thread. Either way the work comes back as plans and effect logs: a
//! reducer records its charges through [`ReduceEnv`] and keeps no clock.
//! Both are replayed here, into virtual time, in the exact order the
//! sequential engine would have produced, so a [`JobOutcome`] is
//! bit-identical at any thread count (see the root `tests/option_space.rs`).

use crate::api::{Combiner, Handle, IncrementalReducer, JobRef, ReduceCtx, Site};
use crate::exec::{Gather, Planner, Pool, Task};
use crate::fault::{FaultPlan, MapFate};
use crate::job::{JobInput, JobOutcome, PoisonedRecord, RunConfig};
use crate::map_phase::{
    abort_map_task, compute_map_task, finish_map_task, straggle_map_task, Granule, MapTaskPlan,
    PoisonGate,
};
use crate::metrics::{AdmissionStats, DincStats, JobMetrics, NodeCombineStats};
use crate::progress::{ProgressTracker, PROGRESS_POINTS};
use crate::reduce::{
    build_reducer, history_entry, replay, replay_recovery, Effect, ReduceEnv, ReduceSide,
    ReducerCkpt, ReducerSizing, ReplayTarget,
};
use crate::resident::cb_sized;
use crate::sim::{EventQueue, Resources};
use opa_common::fault::{FaultEvent, FaultKind, FaultReport};
use opa_common::hash::bucket_of;
use opa_common::units::{SimDuration, SimTime};
use opa_common::{Error, GroupTable, HashFamily, HashFn, Key, Pair, RecordBatch, Result, Value};
use opa_simio::{BlockStore, DiskFaultInjector, IoCategory, IoOp};
use opa_trace::{SpanKind, TraceEvent};
use std::collections::VecDeque;
use std::sync::Arc;

/// One reducer of a running engine, as the pause-point query surface sees
/// it (`None` only inside [`Engine::finish`], while the execution layer
/// holds it for the finish wave).
pub type LiveReducer<'e> = Option<Box<dyn ReduceSide + Send + 'e>>;

/// One shuffle transfer: a map-output partition on its way to a reducer,
/// keyed in the queue by `(arrival, seq)` as if pushed on its own. Its
/// `seq` is assigned by [`Flight::launch`].
struct Part {
    arrival: SimTime,
    seq: u64,
    reducer: usize,
    payload: RecordBatch,
}

/// One granule's shuffle in the air: its non-empty partitions, queued as a
/// single event under the key of the part that lands next.
struct Flight {
    from_node: usize,
    /// Source chunk — provenance for pause accounting (a quota is met when
    /// *its* chunks' deliveries are absorbed, regardless of later chunks
    /// still shuffling). A node-scope flush carries the smallest chunk it
    /// staged rows from.
    chunk: usize,
    /// The parts still in the air, latest `(arrival, seq)` first: the next
    /// to land is the last.
    parts: Vec<Part>,
}

impl Flight {
    /// Queues `parts`, in reducer order, as one flight. They take
    /// consecutive sequence numbers in that order — the ones as many
    /// separate pushes would have taken — so every part keeps the place
    /// in the pop order it would have had as an event of its own.
    fn launch(queue: &mut EventQueue<Ev>, from_node: usize, chunk: usize, mut parts: Vec<Part>) {
        if parts.is_empty() {
            return;
        }
        let first = queue.reserve(parts.len() as u64);
        for (part, seq) in parts.iter_mut().zip(first..) {
            part.seq = seq;
        }
        parts.sort_unstable_by_key(|p| std::cmp::Reverse((p.arrival, p.seq)));
        let next = parts.last().expect("non-empty");
        let (time, seq) = (next.arrival, next.seq);
        let flight = Flight {
            from_node,
            chunk,
            parts,
        };
        queue.push_seq(time, seq, Ev::Shuffle(flight));
    }

    /// Where the flight goes once a part has landed: on to its next part
    /// while that is still the earliest event in `queue` and no pause has
    /// become possible (`pause`); otherwise back into `queue` under the
    /// next part's key; nowhere once every part has landed.
    fn onward(self, queue: &mut EventQueue<Ev>, pause: bool) -> Option<Flight> {
        let next = self.parts.last()?;
        let key = (next.arrival, next.seq);
        if pause || queue.peek_key().is_some_and(|top| top < key) {
            queue.push_seq(key.0, key.1, Ev::Shuffle(self));
            return None;
        }
        Some(self)
    }
}

enum Ev {
    StartMap {
        chunk: usize,
        /// 0 for the first execution; retries and speculative backups
        /// count up. Drives the fault plan's per-attempt decisions.
        attempt: u32,
    },
    Shuffle(Flight),
}

/// One map-task attempt the scheduler is executing.
#[derive(Clone, Copy)]
struct Attempt {
    chunk: usize,
    attempt: u32,
    node: usize,
    start: SimTime,
}

/// One pending scheduler event of a checkpointed engine, in pop order.
#[derive(Debug, Clone)]
pub enum QueuedEvent {
    /// A map task not yet run (or re-queued for retry).
    StartMap {
        /// Scheduled simulation time.
        time: u64,
        /// Input chunk index.
        chunk: u64,
        /// Attempt number (0 is the first run).
        attempt: u64,
    },
    /// An in-flight shuffle delivery from a chunk beyond the sealed
    /// watermark: its map task has completed but the payload has not yet
    /// reached its reducer.
    Deliver {
        /// Arrival simulation time.
        time: u64,
        /// Destination reducer.
        reducer: u64,
        /// Source node.
        from_node: u64,
        /// Source chunk (provenance for pause accounting on resume).
        chunk: u64,
        /// The delivered partition.
        payload: RecordBatch,
    },
}

/// One deferred second-wave delivery: the source node plus its payload.
#[derive(Debug, Clone)]
pub struct DeferredDelivery {
    /// Node whose spill disk holds this map output.
    pub from_node: u64,
    /// The delivered partition.
    pub payload: RecordBatch,
}

/// The complete serializable state of a paused [`Engine`], flattened to
/// the `u64`/pair/state vocabulary of the checkpoint section codec.
#[derive(Debug, Clone)]
pub struct EngineState {
    /// Event-queue contents in pop order: pending map starts and
    /// in-flight deliveries from chunks beyond the sealed watermark.
    pub queue: Vec<QueuedEvent>,
    /// Per-node FIFO of chunks not yet handed to a map slot.
    pub pending: Vec<Vec<u64>>,
    /// Per-node `(hdfs, spill)` disk-free clocks.
    pub disk_free: Vec<(u64, u64)>,
    /// Indices of completed map chunks, ascending.
    pub done: Vec<u64>,
    /// Scalar scheduler counters: map output bytes so far.
    pub map_output_bytes: u64,
    /// Map-side spill bytes so far.
    pub spill_written_map: u64,
    /// Latest map-task finish time seen.
    pub map_finish: u64,
    /// Completed map-task count.
    pub maps_completed: u64,
    /// Per-node cumulative map CPU (µs).
    pub map_cpu: Vec<u64>,
    /// Per-reducer ready-at clocks.
    pub ready_at: Vec<u64>,
    /// Per-reducer delivery sequence numbers (fault-plan input).
    pub delivery_seq: Vec<u64>,
    /// Per-reducer crash counters (fault-plan input).
    pub crash_count: Vec<u64>,
    /// Per-reducer cumulative reduce CPU (µs).
    pub reduce_cpu: Vec<u64>,
    /// Per-reducer reduce-side spill bytes.
    pub spill_written_reduce: Vec<u64>,
    /// Output pairs emitted so far. Restoring this (instead of re-running
    /// mapped chunks) is what makes resume emit each pair exactly once.
    pub output: Vec<Pair>,
    /// Per-reducer deferred second-wave deliveries.
    pub deferred: Vec<Vec<DeferredDelivery>>,
    /// Per-reducer framework state.
    pub reducers: Vec<ReducerCkpt>,
    /// Records quarantined so far, in commit order.
    pub dlq: Vec<PoisonedRecord>,
    /// Per-node staging tables under node-scope combining; empty otherwise.
    pub staged: Vec<StagedTable>,
    /// Node-combine counters so far.
    pub node_combine: NodeCombineStats,
}

/// One node's staging table at a pause (see [`EngineState::staged`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StagedTable {
    /// Resident rows, first-seen order (states, incremental frameworks).
    pub rows: Vec<Pair>,
    /// Resident bytes, post-combine.
    pub bytes: u64,
    /// Bytes offered since the last flush, pre-combine.
    pub bytes_in: u64,
    /// Merges since the last flush.
    pub merges: u64,
    /// The smallest chunk a resident row came from.
    pub held: Option<u64>,
}

/// What a map-task plan is a pure function of: everything the engine
/// builds per run and never changes after. Shared by `Arc`, so the pool of
/// one call reads it while the scheduler mutates the rest of the engine.
struct Plans<'e> {
    cfg: RunConfig,
    job: JobRef<'e>,
    input: Handle<'e, JobInput>,
    store: BlockStore,
    /// Chunks still to map, ascending: the planner's dense slot `p` is
    /// chunk `remaining[p]` (every chunk on a fresh run; on resume the
    /// checkpoint's done chunks are skipped).
    remaining: Vec<usize>,
    h1: HashFn,
    /// `Some` under the colocated placement (see [`Engine::build`]): the
    /// partition each chunk is resident on.
    home: Option<Vec<usize>>,
}

impl Plans<'_> {
    fn compute(&self, chunk: usize) -> MapTaskPlan {
        let c = &self.store.chunks()[chunk];
        let mut plan = compute_map_task(
            &*self.job,
            self.cfg.framework,
            &self.input.records[c.range.clone()],
            c.bytes,
            &self.cfg.spec,
            self.h1,
            self.cfg.admission,
            self.cfg.combine,
            self.cfg.faults.poison_enabled().then_some(PoisonGate {
                faults: self.cfg.faults,
                base: c.range.start as u64,
            }),
        );
        if self.home.is_some() {
            // Resident input, colocated reducer: no HDFS chunk read, no
            // map output on disk. `hand_over` counts the forgone volume.
            plan.strip_materialization();
        }
        plan
    }

    fn at(&self, pos: usize) -> MapTaskPlan {
        self.compute(self.remaining[pos])
    }

    /// What node-scope combining merges with: a combiner, or `init/cb`
    /// for the incremental frameworks. `None` under task scope, and when
    /// the job has neither — node scope then degenerates to task scope.
    fn node_merge(&self) -> Option<NodeMerge<'_>> {
        if !self.cfg.combine.is_node() {
            None
        } else if self.cfg.framework.is_incremental() {
            self.job.incremental().map(|inc| NodeMerge::States(&**inc))
        } else {
            self.job.combiner().map(NodeMerge::Pairs)
        }
    }
}

/// How a per-node staging table merges two same-key rows under
/// [`opa_common::CombineScope::Node`].
#[derive(Clone, Copy)]
enum NodeMerge<'j> {
    /// Key-value pairs folded through the job's combiner.
    Pairs(&'j dyn Combiner),
    /// Key-state pairs merged through the incremental `cb()` at
    /// [`Site::Map`]; early emissions route to job output exactly like
    /// task-level map-side `cb()` emissions.
    States(&'j dyn IncrementalReducer),
}

/// One node's pre-shuffle staging table under node-scope combining.
/// Committed map granules land here (probed by the carried h1
/// fingerprints) instead of booking shuffle bytes; the table drains at two
/// deterministic flush points — the node's last committed map task, and a
/// post-combine byte budget (`ClusterSpec::node_combine_buffer`). Staging
/// runs entirely on the scheduling thread in event order, so the outcome
/// stays thread-count invariant like the rest of the scheduler.
struct NodeStage {
    /// Key → value-or-state in first-seen order, which makes the rebuilt
    /// payloads a pure function of the commit sequence.
    table: GroupTable<Value>,
    /// Resident bytes, post-combine.
    bytes: u64,
    /// Bytes offered since the last flush, pre-combine.
    bytes_in: u64,
    /// `cb`/fold calls since the last flush.
    merges: u64,
    ctx: ReduceCtx,
    /// Chunks of this node still to commit: the table takes its final
    /// flush when the last one does. Failed and straggling attempts never
    /// reach the commit path, so only the committing attempt counts down.
    outstanding: usize,
    /// While rows are resident: the smallest chunk any came from. The
    /// table counts as one in-flight delivery of that chunk, so a pause
    /// below it waits for the flush.
    held: Option<usize>,
}

impl NodeStage {
    fn new() -> Self {
        NodeStage {
            table: GroupTable::default(),
            bytes: 0,
            bytes_in: 0,
            merges: 0,
            ctx: ReduceCtx::at_site(Site::Map),
            outstanding: 0,
            held: None,
        }
    }

    /// Stages one row of `size` bytes under its `h1` fingerprint; returns
    /// whether it merged into a resident row of the same key.
    fn absorb(&mut self, h: u64, key: Key, value: Value, size: u64, merge: NodeMerge<'_>) -> bool {
        let Some(at) = self.table.find(h, &key) else {
            self.bytes += size;
            self.table.push(h, key, value);
            return false;
        };
        let (key, acc) = self.table.row_mut(at);
        match merge {
            NodeMerge::Pairs(cb) => {
                let before = acc.len() as u64;
                cb.fold(key, acc, value);
                self.bytes = (self.bytes + acc.len() as u64).saturating_sub(before);
            }
            NodeMerge::States(inc) => {
                cb_sized(inc, key, acc, value, &mut self.ctx, &mut self.bytes)
            }
        }
        self.merges += 1;
        true
    }
}

/// One job run in progress: scheduler queue, reducers, fault plan, staging
/// tables and accounting. See the module docs for the stepping contract.
pub struct Engine<'e> {
    plans: Arc<Plans<'e>>,
    /// Pool workers each call opens beside the calling thread.
    workers: usize,
    planner: Planner<MapTaskPlan>,
    res: Resources,
    progress: ProgressTracker,

    // Fault injection. All decisions and recovery charging run on the
    // scheduling thread in event order, so the failure trace and the
    // recovered outcome are thread-count invariant.
    fplan: Option<FaultPlan>,
    freport: FaultReport,
    /// Pure map-task plans stashed by failed/straggling attempts for reuse
    /// by their retry (the plan is a function of the chunk alone).
    plan_stash: Vec<Option<MapTaskPlan>>,
    delivery_seq: Vec<u64>,
    crash_count: Vec<u32>,
    /// Per-reducer effect history for crash re-replay (kept only when
    /// reduce crashes can fire), output batches by their bytes alone.
    history: Vec<Vec<Effect>>,
    /// The one effect log every delivery and snapshot is recorded into
    /// and replayed from (see [`Engine::step`]).
    log: Vec<Effect>,

    // Scheduler.
    queue: EventQueue<Ev>,
    /// Per-node FIFO of chunks not yet handed to a map slot.
    pending: Vec<VecDeque<usize>>,
    done: Vec<bool>,
    /// Length of the all-done chunk prefix.
    done_prefix: usize,
    /// In-flight shuffle deliveries (and node-stage holds) by source chunk.
    inflight_by_chunk: Vec<u32>,
    /// The quota of the current `run_until`, and the in-flight count below
    /// it. Only the latter gates the pause: later chunks' deliveries ride
    /// across pause points.
    quota: usize,
    inflight_gating: usize,
    now: SimTime,

    // Reducers.
    reducers: Vec<LiveReducer<'e>>,
    /// Wave assignment: the first `reduce_slots` reducers per node start
    /// at time zero; the rest queue their deliveries in `deferred`.
    started: Vec<bool>,
    ready_at: Vec<SimTime>,
    /// Per-reducer deliveries parked for the second wave, by source node.
    deferred: Vec<Vec<(usize, RecordBatch)>>,
    /// Sorted MapReduce-Online snapshot points, the count crossed so far,
    /// and how many of those each reducer has taken.
    snapshots: Vec<f64>,
    next_snapshot: usize,
    snapshots_taken: Vec<usize>,

    // Accounting.
    map_cpu: Vec<SimDuration>,
    reduce_cpu: Vec<SimDuration>,
    spill_written_map: u64,
    spill_written_reduce: Vec<u64>,
    snapshot_bytes: Vec<u64>,
    maps_completed: usize,
    map_output_bytes: u64,
    /// Shuffle bytes actually booked on the network (post-combine under
    /// node scope). Wave-two re-reads replay these same transfers from
    /// disk and are not re-counted.
    shuffle_booked: u64,
    /// Colocated placement: the bytes handed over in place — or the
    /// first payload a map addressed to a partition other than its own.
    colocated: Result<u64>,
    map_finish: SimTime,
    output: Vec<Pair>,
    dlq: Vec<PoisonedRecord>,
    dinc_total: Option<DincStats>,
    admission_total: Option<AdmissionStats>,

    /// Whether committed granules go to the node staging tables
    /// ([`Plans::node_merge`]).
    node_scope: bool,
    stage: Vec<NodeStage>,
    nc_stats: NodeCombineStats,
    /// Tasks the calls' pools ran, summed over calls.
    #[cfg(test)]
    pool_tasks: Arc<std::sync::atomic::AtomicUsize>,
}

impl<'e> Engine<'e> {
    /// Builds an engine for `job` over `input` — fresh, or restored from
    /// `resume` — that runs on `cfg.exec` host threads: the calling thread
    /// plus a pool each [`Engine::run_until`] or [`Engine::finish`] call
    /// opens and joins before it returns.
    ///
    /// # Errors
    /// An invalid `cfg` ([`RunConfig::validate`]), an empty input, a
    /// framework the job cannot run under, or a `resume` state that does
    /// not fit the job.
    pub fn new(
        cfg: &RunConfig,
        job: JobRef<'e>,
        input: Handle<'e, JobInput>,
        resume: Option<EngineState>,
    ) -> Result<Self> {
        Engine::build(cfg, job, input, None, resume)
    }

    /// [`Engine::new`], with the placement spelled out. `resident: None`
    /// is the ordinary one: the input is split into `C`-sized chunks,
    /// HDFS-style, and every map output crosses the network.
    ///
    /// `Some(lens)` is the *colocated* placement of a chained dataflow
    /// stage: `input` is a resident dataset in partition-major order,
    /// `lens[p]` records bucketed under this run's own partition function,
    /// and the job's map keeps every record on its partition. Each
    /// non-empty partition `p` is one chunk homed on node `p % nodes`,
    /// where reducer `p` runs: plans lose their chunk read and map-output
    /// write, deliveries arrive when their granule is cut with nothing
    /// booked on the network, and every reducer starts in wave one (no
    /// map output was materialized for a second wave to re-read). The
    /// job's claim is checked, not trusted: see
    /// [`Engine::colocated_bytes`].
    pub(crate) fn build(
        cfg: &RunConfig,
        job: JobRef<'e>,
        input: Handle<'e, JobInput>,
        resident: Option<&[usize]>,
        resume: Option<EngineState>,
    ) -> Result<Self> {
        cfg.validate()?;
        if input.is_empty() {
            return Err(Error::job("job input is empty"));
        }
        let sizes = input.records.iter().map(|r| r.len() as u64);
        let nodes = cfg.spec.hardware.nodes;
        let store = match resident {
            None => BlockStore::split(sizes, cfg.spec.system.chunk_size, nodes),
            Some(lens) => BlockStore::split_at(sizes, lens.iter().copied(), nodes),
        };
        let home: Option<Vec<usize>> =
            resident.map(|lens| (0..lens.len()).filter(|&p| lens[p] > 0).collect());
        let mut done = vec![false; store.num_chunks()];
        for &c in resume.iter().flat_map(|s| &s.done) {
            *done
                .get_mut(c as usize)
                .ok_or_else(|| Error::storage("checkpoint marks an unknown chunk done"))? = true;
        }
        let remaining: Vec<usize> = (0..done.len()).filter(|&c| !done[c]).collect();
        let plans = Plans {
            cfg: cfg.clone(),
            job,
            input,
            store,
            remaining,
            h1: HashFamily::new(cfg.spec.hash_seed).fn_at(0),
            home,
        };
        // The scheduler thread doubles as a worker, so `threads` total. The
        // effective count is capped at the host's cores unless the config
        // explicitly oversubscribes: surplus threads would only time-slice,
        // and the outcome is bit-identical at any count anyway.
        let workers = cfg.exec.effective_threads().saturating_sub(1);
        let (spec, faults) = (&cfg.spec, &cfg.faults);
        let hw = &spec.hardware;
        let (n_nodes, n_reducers, num_chunks) = (hw.nodes, spec.total_reducers(), done.len());

        let separate_spill = spec.cost.spill_disk != spec.cost.hdfs_disk;
        let mut res = Resources::new(n_nodes, hw.map_slots.max(hw.reduce_slots), separate_spill);
        if cfg.trace {
            res.enable_trace();
        }
        if faults.spill_error_rate > 0.0 {
            // The injector's pseudo-random sequence restarts on resume —
            // spill-error timing (never output correctness) can then
            // differ from the uninterrupted run.
            res.set_disk_faults(DiskFaultInjector::new(
                faults.seed,
                faults.spill_error_rate,
                faults.max_retries,
            ));
        }

        let sizing = ReducerSizing {
            early_stop_coverage: cfg.early_stop,
            monitor: cfg.dinc_monitor,
            admission: cfg.admission,
            ..ReducerSizing::from_hints(
                &*plans.job,
                plans.store.total_bytes(),
                cfg.km_hint,
                n_reducers,
            )
        };
        let family = HashFamily::new(spec.hash_seed);
        let reducers = (0..n_reducers)
            .map(|_| {
                build_reducer(cfg.framework, plans.job.clone(), spec, sizing, &family).map(Some)
            })
            .collect::<Result<Vec<_>>>()?;

        let node_scope = plans.node_merge().is_some();
        let mut stage: Vec<NodeStage> = (0..n_nodes).map(|_| NodeStage::new()).collect();
        for (c, _) in plans.store.chunks().iter().zip(&done).filter(|(_, &d)| !d) {
            stage[c.node].outstanding += 1;
        }
        let mut snapshots = cfg.snapshot_points.clone();
        snapshots.sort_by(f64::total_cmp);

        let plans = Arc::new(plans);
        let mut engine = Engine {
            planner: Planner::new(plans.remaining.len(), workers * 2 + 2),
            workers,
            res,
            progress: ProgressTracker::new(num_chunks as u64),
            fplan: faults.enabled().then(|| FaultPlan::new(*faults)),
            freport: FaultReport::default(),
            plan_stash: (0..num_chunks).map(|_| None).collect(),
            delivery_seq: vec![0; n_reducers],
            crash_count: vec![0; n_reducers],
            history: vec![Vec::new(); n_reducers],
            log: Vec::new(),
            queue: EventQueue::new(),
            pending: vec![VecDeque::new(); n_nodes],
            done_prefix: done.iter().take_while(|&&d| d).count(),
            done,
            inflight_by_chunk: vec![0; num_chunks],
            quota: 0,
            inflight_gating: 0,
            now: SimTime::ZERO,
            reducers,
            started: (0..n_reducers)
                .map(|r| r / n_nodes < hw.reduce_slots || plans.home.is_some())
                .collect(),
            ready_at: vec![SimTime::ZERO; n_reducers],
            deferred: vec![Vec::new(); n_reducers],
            snapshots,
            next_snapshot: 0,
            snapshots_taken: vec![0; n_reducers],
            map_cpu: vec![SimDuration::ZERO; n_nodes],
            reduce_cpu: vec![SimDuration::ZERO; n_reducers],
            spill_written_map: 0,
            spill_written_reduce: vec![0; n_reducers],
            snapshot_bytes: vec![0; n_reducers],
            maps_completed: 0,
            map_output_bytes: 0,
            shuffle_booked: 0,
            colocated: Ok(0),
            map_finish: SimTime::ZERO,
            output: Vec::new(),
            dlq: Vec::new(),
            dinc_total: None,
            admission_total: None,
            node_scope,
            stage,
            nc_stats: NodeCombineStats::default(),
            #[cfg(test)]
            pool_tasks: Arc::default(),
            plans,
        };
        match resume {
            Some(saved) => engine.import_state(saved)?,
            None => {
                // Per-node FIFO of map chunks; seed each node's map slots.
                for (i, c) in engine.plans.store.chunks().iter().enumerate() {
                    engine.pending[c.node].push_back(i);
                }
                for node_pending in &mut engine.pending {
                    for chunk in node_pending.drain(..hw.map_slots.min(node_pending.len())) {
                        engine
                            .queue
                            .push(SimTime::ZERO, Ev::StartMap { chunk, attempt: 0 });
                    }
                }
            }
        }
        Ok(engine)
    }

    /// Rebuilds the scheduler from a checkpoint: every event is re-pushed
    /// in its saved pop order (fresh ascending sequence numbers preserve
    /// ties), each delivery as a flight of one part, so the resumed run
    /// continues the uninterrupted one's event sequence.
    fn import_state(&mut self, saved: EngineState) -> Result<()> {
        let (n_reducers, num_chunks) = (self.reducers.len(), self.done.len());
        // A delivery's source node is where a second-wave reducer re-reads
        // it from: `Resources::spill_io` indexes by it.
        let n_nodes = self.pending.len();
        let source = |node: u64| {
            usize::try_from(node)
                .ok()
                .filter(|&n| n < n_nodes)
                .ok_or_else(|| {
                    Error::storage(format!(
                        "checkpoint delivery comes from node {node}, which is unknown"
                    ))
                })
        };
        // A chunk still to map is scheduled once: queued, or pending on
        // its node. `start_map` indexes by it and looks it up among the
        // chunks not yet done, so anything else must not get that far.
        let done = &self.done;
        let mut scheduled = vec![false; num_chunks];
        let mut schedule = |chunk: u64| {
            usize::try_from(chunk)
                .ok()
                .filter(|&c| {
                    c < num_chunks && !done[c] && !std::mem::replace(&mut scheduled[c], true)
                })
                .ok_or_else(|| {
                    Error::storage(format!(
                        "checkpoint schedules chunk {chunk}, which is unknown, already mapped \
                         or scheduled twice"
                    ))
                })
        };
        let narrow = |n: u64, what: &str| {
            u32::try_from(n)
                .map_err(|_| Error::storage(format!("checkpoint {what} {n} is out of range")))
        };
        for qe in saved.queue {
            match qe {
                QueuedEvent::StartMap {
                    time,
                    chunk,
                    attempt,
                } => {
                    let chunk = schedule(chunk)?;
                    let attempt = narrow(attempt, "attempt number")?;
                    self.queue
                        .push(SimTime(time), Ev::StartMap { chunk, attempt });
                }
                QueuedEvent::Deliver {
                    time,
                    reducer,
                    from_node,
                    chunk,
                    payload,
                } => {
                    let (reducer, chunk) = (reducer as usize, chunk as usize);
                    if reducer >= n_reducers || chunk >= num_chunks {
                        return Err(Error::storage(
                            "checkpoint delivery names an unknown reducer or chunk",
                        ));
                    }
                    let part = Part {
                        arrival: SimTime(time),
                        seq: 0,
                        reducer,
                        payload,
                    };
                    self.inflight_by_chunk[chunk] += 1;
                    Flight::launch(&mut self.queue, source(from_node)?, chunk, vec![part]);
                }
            }
        }
        for (node, chunks) in saved.pending.iter().enumerate() {
            for &chunk in chunks {
                self.pending[node].push_back(schedule(chunk)?);
            }
        }
        self.res.restore_disk_free(&saved.disk_free);
        // Progress accounting restarts at the resume instant; pre-seeding
        // completed maps keeps the map curve's end-state (100 %) truthful.
        for _ in 0..saved.done.len() {
            self.progress.map_done(SimTime::ZERO);
        }
        self.map_output_bytes = saved.map_output_bytes;
        // Under node scope only the flushes book shuffle bytes.
        self.shuffle_booked = saved.map_output_bytes;
        self.spill_written_map = saved.spill_written_map;
        self.map_finish = SimTime(saved.map_finish);
        self.now = self.map_finish;
        self.maps_completed = saved.maps_completed as usize;
        self.map_cpu = saved.map_cpu.iter().map(|&c| SimDuration(c)).collect();
        self.ready_at = saved.ready_at.iter().map(|&t| SimTime(t)).collect();
        self.delivery_seq = saved.delivery_seq;
        self.crash_count = saved
            .crash_count
            .iter()
            .map(|&c| narrow(c, "crash count"))
            .collect::<Result<_>>()?;
        self.reduce_cpu = saved.reduce_cpu.iter().map(|&c| SimDuration(c)).collect();
        self.spill_written_reduce = saved.spill_written_reduce;
        self.output = saved.output;
        for (slot, defs) in self.deferred.iter_mut().zip(saved.deferred) {
            *slot = defs
                .into_iter()
                .map(|d| Ok((source(d.from_node)?, d.payload)))
                .collect::<Result<_>>()?;
        }
        for (rec, ckpt) in self.reducers.iter_mut().zip(saved.reducers) {
            rec.as_mut().expect("reducer in place").import_state(ckpt)?;
        }
        if saved.staged.len() != if self.node_scope { n_nodes } else { 0 } {
            return Err(Error::storage(
                "checkpoint staging tables do not match the run's combine scope",
            ));
        }
        // Each table re-holds its smallest chunk, as `stage_granule` does,
        // so a pause below it still waits for the node's flush.
        let holds = |c: u64| match usize::try_from(c) {
            Ok(chunk) if chunk < num_chunks && done[chunk] => Ok(chunk),
            _ => Err(Error::storage(format!(
                "checkpoint stages rows under chunk {c}, which is unknown or not mapped"
            ))),
        };
        let h1 = self.plans.h1;
        for (node, table) in saved.staged.into_iter().enumerate() {
            let held = table.held.map(holds).transpose()?;
            let stage = &mut self.stage[node];
            for p in table.rows {
                stage.table.push(h1.hash(p.key.bytes()), p.key, p.value);
            }
            (stage.bytes, stage.bytes_in) = (table.bytes, table.bytes_in);
            (stage.merges, stage.held) = (table.merges, held);
            if let Some(c) = held {
                self.inflight_by_chunk[c] += 1;
            }
        }
        self.nc_stats = saved.node_combine;
        if self.node_scope {
            self.shuffle_booked = self.nc_stats.flushed_bytes;
        }
        self.dlq = saved.dlq;
        Ok(())
    }

    /// Serializes the paused engine.
    pub fn export_state(&self) -> Result<EngineState> {
        // The queue in pop order: every part of a flight under its own
        // key, merged with the map starts.
        let mut keyed = Vec::with_capacity(self.queue.len());
        for (time, seq, ev) in self.queue.iter() {
            match ev {
                &Ev::StartMap { chunk, attempt } => keyed.push((
                    (time, seq),
                    QueuedEvent::StartMap {
                        time: time.0,
                        chunk: chunk as u64,
                        attempt: u64::from(attempt),
                    },
                )),
                Ev::Shuffle(f) => keyed.extend(f.parts.iter().map(|p| {
                    let deliver = QueuedEvent::Deliver {
                        time: p.arrival.0,
                        reducer: p.reducer as u64,
                        from_node: f.from_node as u64,
                        chunk: f.chunk as u64,
                        payload: p.payload.clone(),
                    };
                    ((p.arrival, p.seq), deliver)
                })),
            }
        }
        keyed.sort_unstable_by_key(|&(key, _)| key);
        let events = keyed.into_iter().map(|(_, ev)| ev).collect();
        let reducers = self
            .reducers
            .iter()
            .map(|rec| rec.as_ref().expect("reducer in place").export_state())
            .collect::<Result<Vec<_>>>()?;
        let deferred = self.deferred.iter().map(|defs| {
            defs.iter()
                .map(|(from, p)| DeferredDelivery {
                    from_node: *from as u64,
                    payload: p.clone(),
                })
                .collect()
        });
        Ok(EngineState {
            queue: events,
            pending: self
                .pending
                .iter()
                .map(|q| q.iter().map(|&c| c as u64).collect())
                .collect(),
            disk_free: self.res.export_disk_free(),
            done: (0..self.done.len() as u64)
                .filter(|&c| self.done[c as usize])
                .collect(),
            map_output_bytes: self.map_output_bytes,
            spill_written_map: self.spill_written_map,
            map_finish: self.map_finish.0,
            maps_completed: self.maps_completed as u64,
            map_cpu: self.map_cpu.iter().map(|d| d.0).collect(),
            ready_at: self.ready_at.iter().map(|t| t.0).collect(),
            delivery_seq: self.delivery_seq.clone(),
            crash_count: self.crash_count.iter().map(|&c| u64::from(c)).collect(),
            reduce_cpu: self.reduce_cpu.iter().map(|d| d.0).collect(),
            spill_written_reduce: self.spill_written_reduce.clone(),
            output: self.output.clone(),
            deferred: deferred.collect(),
            reducers,
            dlq: self.dlq.clone(),
            staged: (self.stage.iter().filter(|_| self.node_scope))
                .map(|s| StagedTable {
                    rows: (s.table.iter())
                        .map(|(key, value)| Pair::new(key.clone(), value.clone()))
                        .collect(),
                    bytes: s.bytes,
                    bytes_in: s.bytes_in,
                    merges: s.merges,
                    held: s.held.map(|c| c as u64),
                })
                .collect(),
            node_combine: self.nc_stats,
        })
    }

    /// The job's name.
    pub fn job_name(&self) -> &str {
        self.plans.job.name()
    }

    /// The live reducers, for pause-point queries.
    pub fn reducers(&self) -> &[LiveReducer<'e>] {
        &self.reducers
    }

    /// The partitioning hash that routes a key to its reducer.
    pub fn h1(&self) -> HashFn {
        self.plans.h1
    }

    /// Virtual time of the last processed event; a run of deliveries
    /// popped back to back counts as one event, at its first arrival.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Map tasks committed so far.
    pub fn maps_completed(&self) -> usize {
        self.maps_completed
    }

    /// Total map-task (chunk) count.
    pub fn num_chunks(&self) -> usize {
        self.done.len()
    }

    /// Under the colocated placement: the map-output bytes handed to
    /// reducers in place so far — the shuffle volume the placement saved.
    ///
    /// # Errors
    /// A committed map task addressed a payload to a partition other than
    /// the one its records are resident on: the job's
    /// `partition_preserving` declaration is wrong and the run's output
    /// must not be used.
    pub(crate) fn colocated_bytes(&self) -> Result<u64> {
        self.colocated.clone()
    }

    /// Number of leading chunks holding an input record below `record` —
    /// the [`Engine::run_until`] quota that covers `records[..record]` (a
    /// chunk straddling the boundary counts).
    pub fn chunks_below(&self, record: usize) -> usize {
        let chunks = self.plans.store.chunks();
        chunks.partition_point(|c| c.range.start < record)
    }

    /// Appends a caller's event (a batch seal, a checkpoint) to the run's
    /// trace at the current position. A no-op when tracing is off.
    pub fn emit(&mut self, ev: TraceEvent) {
        self.res.emit(ev);
    }

    fn paused(&self) -> bool {
        self.inflight_gating == 0 && self.done_prefix >= self.quota
    }

    fn took_off(&mut self, chunk: usize, n: usize) {
        self.inflight_by_chunk[chunk] += n as u32;
        if chunk < self.quota {
            self.inflight_gating += n;
        }
    }

    fn landed(&mut self, chunk: usize) {
        self.inflight_by_chunk[chunk] -= 1;
        self.inflight_gating -= usize::from(chunk < self.quota);
    }

    /// Processes events until the first `quota` chunks are mapped and every
    /// delivery originating from them has been absorbed (or parked with a
    /// second-wave reducer) — or the queue drains. Deliveries from later
    /// chunks may still be in flight: the map waves pipeline into the
    /// reduce side continuously, so full quiescence would push every pause
    /// to the end of the run. At a pause the reducer state therefore
    /// covers at least the quota's records, possibly more.
    ///
    /// The call opens its own pool and joins it before returning. Plans a
    /// worker computed ahead stay with the engine for the next call; plans
    /// still queued are dropped and planned again then.
    pub fn run_until(&mut self, quota: usize) {
        let plans = Arc::clone(&self.plans);
        std::thread::scope(|scope| {
            let pool = Pool::new(scope, self.workers);
            self.drain(quota, &plans, &pool);
            let discarded = pool.discard_queued();
            self.count_pool_tasks(&pool, discarded);
        });
        self.planner.rewind();
    }

    /// The event loop of [`Engine::run_until`], on the pool of the call.
    fn drain<'p>(&mut self, quota: usize, plans: &'p Plans<'e>, pool: &Pool<'p>) {
        // Speculative map-task planning: plans are pure functions of the
        // chunk index, so the pool computes a window of them ahead of the
        // scheduler.
        self.planner.prime(pool, move |pos| plans.at(pos));
        self.quota = quota.min(self.done.len());
        self.inflight_gating = self.inflight_by_chunk[..self.quota]
            .iter()
            .map(|&n| n as usize)
            .sum();
        // Whether the last event popped was a flight: the clock stays at
        // the first arrival of a run of deliveries.
        let mut landing = false;
        while !self.paused() {
            let Some((t, ev)) = self.queue.pop() else {
                break;
            };
            let shuffle = matches!(ev, Ev::Shuffle(_));
            if !(landing && shuffle) {
                self.now = t;
            }
            landing = shuffle;
            match ev {
                Ev::StartMap { chunk, attempt } => self.start_map(t, chunk, attempt, plans, pool),
                Ev::Shuffle(flight) => self.land(flight),
            }
        }
    }

    /// Adds the tasks `pool` ran (submitted, less `discarded`) to the
    /// engine's count.
    #[cfg(test)]
    fn count_pool_tasks(&mut self, pool: &Pool<'_>, discarded: usize) {
        use std::sync::atomic::Ordering::SeqCst;
        let ran = pool.submitted().load(SeqCst) - discarded;
        self.pool_tasks.fetch_add(ran, SeqCst);
    }

    #[cfg(not(test))]
    fn count_pool_tasks(&mut self, _pool: &Pool<'_>, _discarded: usize) {}

    fn start_map<'p>(
        &mut self,
        t: SimTime,
        chunk: usize,
        attempt: u32,
        plans: &'p Plans<'e>,
        pool: &Pool<'p>,
    ) {
        let at = Attempt {
            chunk,
            attempt,
            node: plans.store.chunks()[chunk].node,
            start: t,
        };
        self.res.emit(TraceEvent::MapStart {
            t: t.0,
            chunk: chunk as u32,
            attempt,
            node: at.node as u32,
        });
        // Retries reuse the stashed pure plan; the planner only hands out
        // each chunk's first-execution plan.
        let plan = if attempt == 0 {
            let pos = plans
                .remaining
                .binary_search(&chunk)
                .expect("first attempt of a chunk not yet mapped");
            self.planner.take(pos, pool, move |pos| plans.at(pos))
        } else {
            self.plan_stash[chunk]
                .take()
                .unwrap_or_else(|| plans.compute(chunk))
        };
        let fate = self
            .fplan
            .as_ref()
            .map_or(MapFate::Ok, |p| p.map_fate(chunk, attempt));
        match fate {
            MapFate::Ok => self.commit_map(at, plan),
            lost => self.lose_attempt(at, plan, lost),
        }
    }

    /// Books a fault in the report and the trace.
    fn fault(&mut self, time: SimTime, kind: FaultKind, target: u64, attempt: u32) {
        self.freport.trace.push(FaultEvent {
            time,
            kind,
            target,
            attempt,
        });
        self.res.emit(TraceEvent::Fault {
            t: time.0,
            kind,
            target,
            attempt,
        });
    }

    /// A map attempt that does not commit. A failing attempt dies partway:
    /// its prefix is charged as waste and it retries on the same slot
    /// after a backoff. A straggler limps along at factor× CPU cost; at
    /// the nominal-duration horizon the scheduler launches a speculative
    /// backup whose output is the one committed, and everything the
    /// straggler did is waste.
    fn lose_attempt(&mut self, at: Attempt, plan: MapTaskPlan, fate: MapFate) {
        let plans = Arc::clone(&self.plans);
        let cfg = &plans.cfg;
        let (kind, waste, fault_at, retry_at) = match fate {
            MapFate::Fail { frac } => {
                let w = abort_map_task(&plan, frac, at.node, at.start, &cfg.spec, &mut self.res);
                let retry_at = w.fail_time + cfg.faults.backoff(at.attempt + 1);
                self.freport.map_failures += 1;
                self.freport.map_retries += 1;
                self.freport.recovery_time += retry_at - at.start;
                (FaultKind::MapFailure, w, w.fail_time, retry_at)
            }
            MapFate::Straggle { factor } => {
                let detect = at.start + plan.nominal_duration(&cfg.spec);
                let w =
                    straggle_map_task(&plan, factor, at.node, at.start, &cfg.spec, &mut self.res);
                self.freport.stragglers += 1;
                self.freport.speculative_wins += 1;
                self.freport.recovery_time += w.fail_time.saturating_since(detect);
                (FaultKind::Straggler, w, detect, detect)
            }
            MapFate::Ok => unreachable!("a committing attempt is not lost"),
        };
        self.freport.wasted_cpu += waste.wasted_cpu;
        self.freport.wasted_bytes += waste.wasted_bytes;
        self.fault(fault_at, kind, at.chunk as u64, at.attempt);
        self.res.emit(TraceEvent::Retry {
            t: retry_at.0,
            kind,
            target: at.chunk as u64,
            attempt: at.attempt + 1,
        });
        self.plan_stash[at.chunk] = Some(plan);
        self.queue.push(
            retry_at,
            Ev::StartMap {
                chunk: at.chunk,
                attempt: at.attempt + 1,
            },
        );
    }

    fn commit_map(&mut self, at: Attempt, plan: MapTaskPlan) {
        let Attempt {
            chunk,
            attempt,
            node,
            start,
        } = at;
        let result = finish_map_task(plan, node, start, &self.plans.cfg.spec, &mut self.res);
        // Quarantine the chunk's poisoned records exactly once, at the
        // committing attempt: the record, its offset and the attempt
        // number are the DLQ's provenance.
        for &(offset, ref record) in &result.poisoned {
            self.freport.udf_poisoned += 1;
            self.freport.trace.push(FaultEvent {
                time: result.finish,
                kind: FaultKind::UdfPoison,
                target: offset,
                attempt,
            });
            self.res.emit(TraceEvent::Poison {
                t: result.finish.0,
                chunk: chunk as u32,
                offset,
                attempt,
            });
            self.dlq.push(PoisonedRecord {
                chunk: chunk as u32,
                attempt,
                offset,
                record: record.clone(),
            });
        }
        self.res.emit(TraceEvent::MapFinish {
            t0: start.0,
            t: result.finish.0,
            chunk: chunk as u32,
            node: node as u32,
            cpu: result.cpu.0,
            output_bytes: result.output_bytes,
            spill_bytes: result.spill_bytes,
        });
        self.map_cpu[node] += result.cpu;
        self.spill_written_map += result.spill_bytes;
        self.map_output_bytes += result.output_bytes;
        self.map_finish = self.map_finish.max(result.finish);
        self.progress.map_done(result.finish);
        self.maps_completed += 1;
        self.done[chunk] = true;
        while self.done.get(self.done_prefix) == Some(&true) {
            self.done_prefix += 1;
        }
        // MapReduce Online snapshots fire when map progress crosses a
        // requested point; each reducer takes its snapshot at the next
        // delivery it processes ("when reducers have received X% of the
        // data").
        while self
            .snapshots
            .get(self.next_snapshot)
            .is_some_and(|&p| self.maps_completed as f64 >= p * self.done.len() as f64)
        {
            self.next_snapshot += 1;
        }
        if !result.early_output.is_empty() {
            let bytes: u64 = result.early_output.iter().map(Pair::size).sum();
            self.progress.emitted(result.finish, bytes);
            self.output.extend(result.early_output);
        }
        for granule in result.granules {
            if self.node_scope {
                self.stage_granule(at, granule);
            } else {
                self.ship(granule.time, node, chunk, granule.partitions);
            }
        }
        // Node scope: the last committed chunk on a node takes the node's
        // final flush before freeing the slot.
        self.stage[node].outstanding -= 1;
        if self.stage[node].outstanding == 0 {
            self.flush_node(node, result.finish);
        }
        // Free the slot: schedule the node's next chunk.
        if let Some(chunk) = self.pending[node].pop_front() {
            self.queue
                .push(result.finish, Ev::StartMap { chunk, attempt: 0 });
        }
    }

    /// Books one granule's shuffle: each non-empty partition leaves
    /// `from_node` at `depart` and arrives after its own transfer time.
    /// The transfers fly as one queued [`Flight`].
    fn ship(
        &mut self,
        depart: SimTime,
        from_node: usize,
        chunk: usize,
        partitions: Vec<RecordBatch>,
    ) {
        if self.plans.home.is_some() {
            return self.hand_over(depart, from_node, chunk, partitions);
        }
        let cost = &self.plans.cfg.spec.cost;
        let mut parts = Vec::with_capacity(partitions.iter().filter(|p| !p.is_empty()).count());
        for (reducer, payload) in partitions.into_iter().enumerate() {
            if payload.is_empty() {
                continue;
            }
            let bytes = payload.bytes();
            let arrival = depart + cost.net_time(bytes);
            self.shuffle_booked += bytes;
            self.res.span(from_node, SpanKind::Shuffle, depart, arrival);
            self.res.emit(TraceEvent::Shuffle {
                t0: depart.0,
                t: arrival.0,
                from_node: from_node as u32,
                reducer: reducer as u32,
                bytes,
            });
            parts.push(Part {
                arrival,
                seq: 0,
                reducer,
                payload,
            });
        }
        self.launch(from_node, chunk, parts);
    }

    /// [`Engine::ship`] under the colocated placement: the reducer absorbs
    /// the payload where the map task cut it — no network hop, no shuffle
    /// span or event, nothing booked as shuffle. The bytes are counted as
    /// saved; the first payload that leaves its partition becomes the
    /// run's error instead. Out of line on purpose: folded into `ship`,
    /// the branch cost `clicks_inc` ~6 % of `records_per_s` (6/6 pairs).
    #[inline(never)]
    fn hand_over(
        &mut self,
        depart: SimTime,
        from_node: usize,
        chunk: usize,
        partitions: Vec<RecordBatch>,
    ) {
        let own = self.plans.home.as_ref().expect("colocated placement")[chunk];
        let mut parts = Vec::with_capacity(partitions.iter().filter(|p| !p.is_empty()).count());
        for (reducer, payload) in partitions.into_iter().enumerate() {
            if payload.is_empty() {
                continue;
            }
            let bytes = payload.bytes();
            match &mut self.colocated {
                Ok(n) if reducer == own => *n += bytes,
                Ok(_) => {
                    self.colocated = Err(Error::job(format!(
                        "job '{}' declared partition_preserving but its map emitted {bytes} \
                         bytes from partition {own} to partition {reducer}; the shuffle-skip \
                         handoff would mis-group keys",
                        self.plans.job.name(),
                    )));
                }
                Err(_) => {}
            }
            parts.push(Part {
                arrival: depart,
                seq: 0,
                reducer,
                payload,
            });
        }
        self.launch(from_node, chunk, parts);
    }

    /// Counts `parts` in flight from `chunk` and queues them as one flight.
    fn launch(&mut self, from_node: usize, chunk: usize, parts: Vec<Part>) {
        self.took_off(chunk, parts.len());
        Flight::launch(&mut self.queue, from_node, chunk, parts);
    }

    /// Merges one committed granule into its node's staging table instead
    /// of shipping it.
    fn stage_granule(&mut self, at: Attempt, granule: Granule) {
        let plans = &*self.plans;
        let merge = plans.node_merge().expect("node scope has a merge");
        let (h1, spec) = (plans.h1, &plans.cfg.spec);
        let stage = &mut self.stage[at.node];
        let mut merged = 0u64;
        for batch in granule.partitions {
            if batch.is_empty() {
                continue;
            }
            stage.bytes_in += batch.bytes();
            let (pairs, hashes) = batch.into_parts();
            for (i, p) in pairs.into_iter().enumerate() {
                let h = hashes.get(i).copied();
                let h = h.unwrap_or_else(|| h1.hash(p.key.bytes()));
                let size = p.size();
                merged += u64::from(stage.absorb(h, p.key, p.value, size, merge));
            }
        }
        self.nc_stats.merged_rows += merged;
        // Map-site early emissions from a cross-task `cb()` (e.g. a session
        // closing across two chunks of the same node) route to job output
        // exactly like task-level map-side emissions.
        if stage.ctx.pending() > 0 {
            let b = stage.ctx.drain_into(&mut self.output);
            let op = IoOp::write(b);
            let _ = self.res.hdfs_io(
                at.node,
                granule.time,
                IoCategory::ReduceOutput,
                op,
                &spec.cost,
            );
            self.progress.emitted(granule.time, b);
        }
        // The resident rows now cover `at.chunk`: hold a pause below the
        // smallest staged chunk until the flush ships them.
        let over_budget = stage.bytes > spec.node_combine_buffer;
        if !stage.table.is_empty() && stage.held.is_none_or(|held| at.chunk < held) {
            if let Some(held) = stage.held.replace(at.chunk) {
                self.landed(held);
            }
            self.took_off(at.chunk, 1);
        }
        if over_budget {
            self.flush_node(at.node, granule.time);
        }
    }

    /// Drains one node's staging table at flush time `t0`: charge the
    /// accumulated cross-task merge CPU, rebuild per-partition payloads in
    /// first-seen row order, and book the (post-combine) shuffle transfers
    /// exactly as the direct path would have.
    fn flush_node(&mut self, node: usize, t0: SimTime) {
        let stage = &mut self.stage[node];
        let Some(held) = stage.held.take() else {
            return; // nothing resident
        };
        stage.bytes = 0;
        let bytes_in = std::mem::take(&mut stage.bytes_in);
        let cb_cpu = self
            .plans
            .cfg
            .spec
            .cost
            .cb_time(std::mem::take(&mut stage.merges));
        let t1 = self.res.cpu(node, t0, cb_cpu);
        self.map_cpu[node] += cb_cpu;
        let n_reducers = self.reducers.len();
        let keys = self.stage[node].table.len();
        let cap = keys / n_reducers + 1;
        let mut payloads: Vec<RecordBatch> = (0..n_reducers)
            .map(|_| RecordBatch::with_capacity(cap))
            .collect();
        // A row's partition is a function of its fingerprint, exactly as
        // on the map side that produced it.
        for (h, key, value) in std::mem::take(&mut self.stage[node].table).into_rows() {
            payloads[bucket_of(h, n_reducers)].push_hashed(Pair::new(key, value), h);
        }
        let bytes_out: u64 = payloads.iter().map(RecordBatch::bytes).sum();
        self.ship(t1, node, held, payloads);
        self.landed(held);
        self.nc_stats.flushes += 1;
        self.nc_stats.staged_bytes += bytes_in;
        self.nc_stats.flushed_bytes += bytes_out;
        self.res.emit(TraceEvent::NodeCombine {
            t0: t0.0,
            t: t1.0,
            node: node as u32,
            bytes_in,
            bytes_out,
            keys: keys as u64,
        });
    }

    /// Lands `flight`'s parts in pop order, for as long as the next part
    /// is still the queue's earliest event and no pause has become
    /// possible; the rest of the flight goes back in the queue.
    fn land(&mut self, flight: Flight) {
        let mut flight = Some(flight);
        while let Some(mut f) = flight {
            let part = f.parts.pop().expect("a queued flight has a part left");
            self.arrive(f.from_node, f.chunk, part);
            let pause = self.paused();
            flight = f.onward(&mut self.queue, pause);
        }
    }

    /// One delivery reaches its reducer. A started reducer absorbs it as
    /// soon as it is free, then takes the snapshots it owes: one for every
    /// snapshot point map progress has crossed since its last delivery.
    /// A second-wave reducer is not running yet: the payload is parked in
    /// scheduler state and counts as absorbed.
    fn arrive(&mut self, from_node: usize, chunk: usize, part: Part) {
        self.landed(chunk);
        let r = part.reducer;
        if !self.started[r] {
            return self.deferred[r].push((from_node, part.payload));
        }
        let t0 = self.survive_crash(r, self.ready_at[r].max(part.arrival));
        let mut t = self.step(r, t0, |rec, env| rec.deliver(part.payload, env));
        while self.snapshots_taken[r] < self.next_snapshot {
            self.snapshots_taken[r] += 1;
            t = self.step(r, t, |rec, env| rec.snapshot(env));
        }
        self.ready_at[r] = t;
    }

    /// Records one step of reducer `r` — `work` runs on the reducer in
    /// place, on the scheduler thread, where its table is hot — into the
    /// engine's one effect log, keeps it in the crash history if crashes
    /// can fire, and replays it against the shared state from `t0` at once.
    /// Returns the reducer's clock after the step.
    fn step(
        &mut self,
        r: usize,
        t0: SimTime,
        work: impl FnOnce(&mut dyn ReduceSide, &mut ReduceEnv<'_>),
    ) -> SimTime {
        let cfg = &self.plans.cfg;
        let mut env = ReduceEnv::with_log(&cfg.spec, std::mem::take(&mut self.log));
        work(
            self.reducers[r].as_deref_mut().expect("reducer in place"),
            &mut env,
        );
        let mut log = env.into_log();
        if cfg.faults.reduce_failure_rate > 0.0 {
            self.history[r].extend(log.iter().map(history_entry));
        }
        let t = self.replay_into(r, log.drain(..), t0);
        self.log = log;
        t
    }

    /// Consults the fault plan for reducer `r`'s next delivery, due at
    /// `t0`. On a reduce-task crash the delivery finds the reducer dead: a
    /// restart backs off, then re-replays the recorded history in
    /// time-only mode to rebuild the lost in-memory state. Returns when
    /// the delivery can be absorbed.
    fn survive_crash(&mut self, r: usize, t0: SimTime) -> SimTime {
        let Some(fp) = &self.fplan else {
            return t0;
        };
        let crashed = fp.reduce_crashes(r, self.delivery_seq[r], self.crash_count[r]);
        self.delivery_seq[r] += 1;
        if !crashed {
            return t0;
        }
        let plans = Arc::clone(&self.plans);
        let cfg = &plans.cfg;
        self.crash_count[r] += 1;
        let crashes = self.crash_count[r];
        self.freport.reduce_failures += 1;
        self.fault(t0, FaultKind::ReduceFailure, r as u64, crashes - 1);
        let restart = t0 + cfg.faults.backoff(crashes);
        self.res.emit(TraceEvent::Retry {
            t: restart.0,
            kind: FaultKind::ReduceFailure,
            target: r as u64,
            attempt: crashes,
        });
        let node = r % self.stage.len();
        let recov = replay_recovery(&self.history[r], restart, &cfg.spec, node, &mut self.res);
        self.freport.wasted_bytes += recov.wasted_bytes;
        self.freport.wasted_cpu += recov.wasted_cpu;
        self.freport.recovery_time += recov.ready_at.saturating_since(t0);
        recov.ready_at
    }

    /// Replays one of reducer `r`'s effect logs against the shared state.
    fn replay_into(
        &mut self,
        r: usize,
        log: impl IntoIterator<Item = Effect>,
        t0: SimTime,
    ) -> SimTime {
        let target = ReplayTarget {
            node: r % self.stage.len(),
            res: &mut self.res,
            progress: &mut self.progress,
            output: &mut self.output,
            reduce_cpu: &mut self.reduce_cpu[r],
            spill_written: &mut self.spill_written_reduce[r],
            snapshot_bytes: &mut self.snapshot_bytes[r],
        };
        replay(log, t0, &self.plans.cfg.spec, target)
    }

    /// Books reducer `r`'s completion at `done`: its monitor and admission
    /// books join the job totals, and the trace gets its `reduce_finish`
    /// (plus `admission`, under the LFU policy only).
    fn reducer_done(&mut self, r: usize, done: SimTime) {
        let rec = self.reducers[r].as_ref().expect("reducer in place");
        if let Some(st) = rec.dinc_stats() {
            let acc = self.dinc_total.get_or_insert_with(Default::default);
            acc.slots_per_reducer = st.slots_per_reducer;
            acc.offered += st.offered;
            acc.rejected += st.rejected;
            acc.evict_output += st.evict_output;
            acc.evict_spilled += st.evict_spilled;
        }
        let adm = rec.admission_stats();
        if let Some(st) = &adm {
            self.admission_total
                .get_or_insert_with(Default::default)
                .merge(st);
        }
        self.res.emit(TraceEvent::ReduceFinish {
            t: done.0,
            reducer: r as u32,
            node: (r % self.stage.len()) as u32,
        });
        if let Some(st) = adm.filter(|_| self.plans.cfg.admission.is_on()) {
            self.res.emit(TraceEvent::Admission {
                t: done.0,
                reducer: r as u32,
                offered: st.offered,
                absorbed: st.absorbed,
                evictions: st.admitted_evictions,
                rejected: st.rejected,
            });
        }
    }

    /// The reducers that started in wave one finish: each records its
    /// completion on the pool, and the logs replay in reducer order
    /// (identical to the sequential engine's iteration order). Returns the
    /// latest finish and each node's wave-one finish times.
    fn finish_wave_one<'p>(
        &mut self,
        plans: &'p Plans<'e>,
        pool: &Pool<'p>,
    ) -> (SimTime, Vec<Vec<SimTime>>) {
        let spec = &plans.cfg.spec;
        let (n_nodes, n_reducers) = (self.stage.len(), self.reducers.len());
        let map_finish = self.map_finish;
        let mut end = map_finish;
        let mut node_wave1_finish: Vec<Vec<SimTime>> = vec![Vec::new(); n_nodes];
        let wave1: Vec<usize> = (0..n_reducers).filter(|&r| self.started[r]).collect();
        let gather = Gather::new(wave1.len());
        let mut batch: Vec<Task<'p>> = Vec::with_capacity(wave1.len());
        for (slot, &r) in wave1.iter().enumerate() {
            let mut rec = self.reducers[r].take().expect("reducer in place");
            let g = gather.clone();
            batch.push(Box::new(move || {
                let mut env = ReduceEnv::new(spec);
                rec.complete(&mut env);
                g.put(slot, (rec, env.into_log()));
            }));
        }
        let last = batch.pop();
        pool.submit_batch(batch);
        if let Some(record) = last {
            record();
        }
        for ((rec, log), &r) in gather.wait(pool).into_iter().zip(&wave1) {
            self.reducers[r] = Some(rec);
            let done = self.replay_into(r, log, self.ready_at[r].max(map_finish));
            node_wave1_finish[r % n_nodes].push(done);
            end = end.max(done);
            self.reducer_done(r, done);
        }
        (end, node_wave1_finish)
    }

    /// Drains the remaining events, finishes every reducer and assembles
    /// the outcome, on one pool opened for the call.
    pub fn finish(mut self) -> JobOutcome {
        let plans = Arc::clone(&self.plans);
        let (mut end, mut node_wave1_finish) = std::thread::scope(|scope| {
            let pool = Pool::new(scope, self.workers);
            self.drain(self.done.len(), &plans, &pool);
            let wave1 = self.finish_wave_one(&plans, &pool);
            self.count_pool_tasks(&pool, 0);
            wave1
        });
        let cfg = &plans.cfg;
        let spec = &cfg.spec;
        let (n_nodes, n_reducers) = (self.stage.len(), self.reducers.len());
        let map_finish = self.map_finish;

        // Second-wave reducers: start when a first-wave reducer on their
        // node finishes, re-reading their map output from the mappers'
        // disks. This stays sequential by design — each arrival time
        // depends on shared disk queues, which is a scheduling decision.
        for node_times in &mut node_wave1_finish {
            node_times.sort_unstable();
        }
        let mut wave_cursor = vec![0usize; n_nodes];
        for r in 0..n_reducers {
            if self.started[r] {
                continue;
            }
            let node = r % n_nodes;
            let slot_times = &node_wave1_finish[node];
            let start = if slot_times.is_empty() {
                map_finish
            } else {
                let i = wave_cursor[node].min(slot_times.len() - 1);
                wave_cursor[node] += 1;
                slot_times[i]
            };
            self.res.emit(TraceEvent::ReduceStart {
                t: start.0,
                reducer: r as u32,
                node: node as u32,
            });
            // The mappers finished long ago: their output must come off
            // disk. Fetches from distinct source nodes proceed in parallel
            // (the shuffle's parallel fetch threads); each source disk
            // serves its own reads sequentially.
            let mut arrivals: Vec<(SimTime, RecordBatch)> = std::mem::take(&mut self.deferred[r])
                .into_iter()
                .map(|(from_node, payload)| {
                    let op = IoOp::read(payload.bytes());
                    let read_done =
                        self.res
                            .spill_io(from_node, start, IoCategory::MapOutput, op, &spec.cost);
                    (read_done + spec.cost.net_time(payload.bytes()), payload)
                })
                .collect();
            arrivals.sort_by_key(|&(at, _)| at);
            let mut t = start;
            for (arrival, payload) in arrivals {
                // Second-wave reducers crash and recover the same way as
                // wave one: backoff, then time-only history re-replay.
                let t0 = self.survive_crash(r, t.max(arrival));
                t = self.step(r, t0, |rec, env| rec.deliver(payload, env));
            }
            let mut env = ReduceEnv::new(spec);
            let rec = self.reducers[r].as_mut().expect("reducer in place");
            rec.complete(&mut env);
            let done = self.replay_into(r, env.into_log(), t);
            self.reducer_done(r, done);
            end = end.max(done);
        }

        let faults = (cfg.faults.enabled() || cfg.faults.poison_enabled()).then(|| {
            let mut report = std::mem::take(&mut self.freport);
            if let Some(inj) = self.res.take_disk_faults() {
                report.spill_io_errors = inj.errors();
                report.wasted_bytes += inj.wasted_bytes();
                report.trace.extend(inj.into_trace());
            }
            report.sort_trace();
            report
        });
        let total_reduce_cpu: SimDuration = self.reduce_cpu.iter().copied().sum();
        let total_map_cpu: SimDuration = self.map_cpu.iter().copied().sum();
        let metrics = JobMetrics {
            framework: cfg.framework.label().to_string(),
            job: self.plans.job.name().to_string(),
            running_time: end,
            map_finish,
            input_bytes: self.plans.store.total_bytes(),
            map_output_bytes: self.map_output_bytes,
            map_spill_bytes: self.spill_written_map,
            reduce_spill_bytes: self.spill_written_reduce.iter().sum(),
            output_bytes: self.output.iter().map(Pair::size).sum(),
            snapshot_bytes: self.snapshot_bytes.iter().sum(),
            output_records: self.output.len() as u64,
            map_cpu_per_node: SimDuration(total_map_cpu.0 / n_nodes as u64),
            reduce_cpu_per_node: SimDuration(total_reduce_cpu.0 / n_nodes as u64),
            io: self.res.io.clone(),
            io_recovery: self.res.io_recovery.clone(),
            dinc: self.dinc_total,
            admission: self.admission_total,
            faults,
            shuffle_bytes: self.shuffle_booked,
            node_combine: self.node_scope.then_some(self.nc_stats),
        };
        JobOutcome {
            metrics,
            progress: self.progress.finish(end, PROGRESS_POINTS),
            trace: self.res.take_trace(),
            timeline: std::mem::take(&mut self.res.timeline),
            usage: self.res.usage,
            output: self.output,
            dlq: self.dlq,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Job;
    use crate::cluster::Framework;
    use opa_common::ExecConfig;
    use std::sync::atomic::Ordering;

    /// Click counting: one `(user, 1)` per record, summed incrementally.
    struct ClickCount;
    impl Job for ClickCount {
        fn name(&self) -> &str {
            "click-count"
        }
        fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
            emit(&record[..2], &1u64.to_be_bytes());
        }
        fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
            ctx.emit(key.clone(), Value::from_u64(values.len() as u64));
        }
        fn incremental(&self) -> Option<&dyn IncrementalReducer> {
            Some(self)
        }
    }
    impl IncrementalReducer for ClickCount {
        fn init(&self, _key: &Key, value: &[u8]) -> Value {
            Value::from_slice(value)
        }
        fn cb(&self, _key: &Key, acc: &mut Value, other: Value, _ctx: &mut ReduceCtx) {
            *acc = Value::from_u64(acc.as_u64().unwrap_or(0) + other.as_u64().unwrap_or(0));
        }
        fn finalize(&self, key: &Key, state: Value, ctx: &mut ReduceCtx) {
            ctx.emit(key.clone(), state);
        }
    }

    /// 6 000 five-byte records over 251 × 7 keys: in 512-byte chunks
    /// nearly every map task delivers to every one of the 40 reducers.
    fn clicks() -> JobInput {
        JobInput::from_records(
            (0..6000u32)
                .map(|i| vec![(i % 251) as u8, (i % 7) as u8, b'c', b'l', b'k'])
                .collect(),
        )
    }

    #[test]
    fn the_pool_sees_plans_and_the_finish_wave_never_deliveries() {
        let input = clicks();
        let mut cfg = RunConfig {
            framework: Framework::IncHash,
            exec: ExecConfig::oversubscribed(4),
            ..RunConfig::default()
        };
        cfg.spec.system.chunk_size = 512;
        let mut engine = Engine::new(
            &cfg,
            JobRef::borrowed(&ClickCount),
            Handle::Borrowed(&input),
            None,
        )
        .expect("job builds");
        let (chunks, reducers) = (engine.num_chunks(), engine.reducers().len());
        let ran = Arc::clone(&engine.pool_tasks);
        // Half the run in one call, the rest and the finish wave in another.
        engine.run_until(chunks / 2);
        let outcome = engine.finish();
        let submitted = ran.load(Ordering::SeqCst);
        assert_eq!(outcome.metrics.output_records, 251 * 7);
        // ~100 records per chunk over 40 reducers: nearly every map task
        // delivers to every reducer, so one task per mailbox would be
        // thousands.
        assert!(chunks > 40, "{chunks} map tasks");
        assert!(
            submitted <= chunks + reducers,
            "{submitted} pool tasks for {chunks} map tasks and {reducers} reducers"
        );
    }

    #[test]
    fn incremental_deliveries_log_runs_never_a_charge_and_ack_per_tuple() {
        let input = clicks();
        for framework in [Framework::IncHash, Framework::DincHash] {
            let mut cfg = RunConfig {
                framework,
                ..RunConfig::default()
            };
            cfg.spec.system.chunk_size = 512;
            // Too small for 251 × 7 keys: the miss, stage and eviction
            // sites run beside the hit path.
            cfg.spec.hardware.reduce_buffer = 1024;
            cfg.spec.bucket_write_buffer = 128;
            // A rate no delivery draws below: the engine keeps every
            // delivery log (the crash history) and nothing crashes.
            cfg.faults.reduce_failure_rate = f64::MIN_POSITIVE;
            let mut engine = Engine::new(
                &cfg,
                JobRef::borrowed(&ClickCount),
                Handle::Borrowed(&input),
                None,
            )
            .expect("job builds");
            engine.run_until(engine.num_chunks());
            let history = engine.history.concat();
            let outcome = engine.finish();
            assert_eq!(outcome.metrics.output_records, 251 * 7);
            let absorbed: u64 = history
                .iter()
                .map(|e| match e {
                    Effect::Absorbed { n, .. } => u64::from(*n),
                    _ => 0,
                })
                .sum();
            let admission = outcome
                .metrics
                .admission
                .expect("incremental frameworks report");
            assert_eq!(absorbed, admission.absorbed, "{framework:?}");
            assert!(admission.rejected > 0, "{framework:?}: memory must bind");
            assert!(
                !history
                    .windows(2)
                    .any(|w| matches!(w, [Effect::Cpu(_), Effect::Worked(1)])),
                "{framework:?}: a delivery logged a per-tuple Cpu + Worked(1) pair"
            );
        }
    }

    /// Click counting that also writes a 1 KB pair for every click it
    /// combines, so output flows while deliveries still arrive.
    struct EchoClicks;
    impl Job for EchoClicks {
        fn name(&self) -> &str {
            "echo-clicks"
        }
        fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
            ClickCount.map(record, emit);
        }
        fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
            ClickCount.reduce(key, values, ctx);
        }
        fn incremental(&self) -> Option<&dyn IncrementalReducer> {
            Some(self)
        }
    }
    impl IncrementalReducer for EchoClicks {
        fn init(&self, key: &Key, value: &[u8]) -> Value {
            ClickCount.init(key, value)
        }
        fn cb(&self, key: &Key, acc: &mut Value, other: Value, ctx: &mut ReduceCtx) {
            ctx.emit(key.clone(), Value::from_slice(&[0; 1024]));
            ClickCount.cb(key, acc, other, ctx);
        }
        fn finalize(&self, key: &Key, state: Value, ctx: &mut ReduceCtx) {
            ClickCount.finalize(key, state, ctx);
        }
    }

    #[test]
    fn crash_history_keeps_output_batches_by_their_bytes_not_their_pairs() {
        let input = clicks();
        let mut cfg = RunConfig {
            framework: Framework::IncHash,
            ..RunConfig::default()
        };
        cfg.spec.system.chunk_size = 512;
        cfg.faults = opa_common::fault::FaultConfig::uniform(3, 0.05);
        let mut engine = Engine::new(
            &cfg,
            JobRef::borrowed(&EchoClicks),
            Handle::Borrowed(&input),
            None,
        )
        .expect("job builds");
        engine.run_until(engine.num_chunks());
        let history = engine.history.concat();
        let written: u64 = engine.output.iter().map(Pair::size).sum();
        let outcome = engine.finish();
        let crashes = outcome
            .metrics
            .faults
            .as_ref()
            .map_or(0, |f| f.reduce_failures);
        assert!(crashes > 0, "reducers must crash");
        assert!(written > 0, "output must flow before the input ends");
        assert!(
            !history.iter().any(|e| matches!(e, Effect::Emit(_))),
            "the crash history holds output pairs"
        );
        // No snapshot is configured: every staged byte is an output batch.
        let staged: u64 = history
            .iter()
            .map(|e| match e {
                Effect::Snapshot(bytes) => *bytes,
                _ => 0,
            })
            .sum();
        assert_eq!(staged, written, "every output batch's write is kept");
    }

    #[test]
    fn a_map_task_costs_the_queue_a_few_entries_not_one_per_reducer() {
        let mut cfg = RunConfig {
            framework: Framework::IncHash,
            ..RunConfig::default()
        };
        cfg.spec.system.chunk_size = 512;
        let input = clicks();
        let mut engine = Engine::new(
            &cfg,
            JobRef::borrowed(&ClickCount),
            Handle::Borrowed(&input),
            None,
        )
        .expect("job builds");
        engine.run_until(engine.num_chunks());
        let (pushes, numbered) = (engine.queue.pushes, engine.queue.reserve(0));
        let chunks = engine.num_chunks() as u64;
        let outcome = engine.finish();
        assert_eq!(outcome.metrics.output_records, 251 * 7);
        // One sequence number per map start and per delivery: what one
        // queue entry per delivery pushed (2 241 for 59 map tasks). A
        // flight is one push, plus one each time another node's flight or
        // a map start interleaves with it: 408 pushes, ~7 per map task.
        assert!(numbered > 30 * chunks, "{numbered} deliveries and starts");
        assert!(
            pushes <= 8 * chunks,
            "{pushes} queue pushes for {chunks} map tasks ({numbered} numbered)"
        );
    }

    /// The queue the engine had before flights, kept as the oracle for the
    /// order they land in: one entry per delivery.
    enum OneEach {
        StartMap(usize),
        Deliver { reducer: usize, chunk: usize },
    }

    /// One map task's shuffle, drawn from `chunk` and `seed` alone: a few
    /// granules, each leaving at `start` plus a step, whose non-empty
    /// parts (in reducer order) arrive after one of three transfer times —
    /// so arrivals tie within a granule and across tasks — and the map
    /// task's length.
    #[allow(clippy::type_complexity)]
    fn shuffle_of(seed: u64, chunk: usize, start: SimTime) -> (Vec<Vec<(usize, SimTime)>>, u64) {
        let mut rng = opa_common::rng::SplitMix64::new(seed ^ (chunk as u64) << 32);
        let mut depart = start;
        let granules = (0..1 + rng.next_below(3))
            .map(|_| {
                depart = SimTime(depart.0 + rng.next_below(4));
                (0..8)
                    .filter_map(|r| {
                        let transfer = 5 * rng.next_below(3);
                        (rng.next_below(4) != 0).then_some((r, SimTime(depart.0 + transfer)))
                    })
                    .collect()
            })
            .collect();
        (granules, 1 + rng.next_below(12))
    }

    #[test]
    fn flights_land_in_the_order_one_entry_per_delivery_pops() {
        let (chunks, slots) = (24, 3);
        for seed in 0..300u64 {
            // Flights, landing as the engine lands them, stopping at
            // pseudo-random pause points.
            let mut pauses = opa_common::rng::SplitMix64::new(seed);
            let mut queue = EventQueue::new();
            for chunk in 0..slots {
                queue.push(SimTime::ZERO, Ev::StartMap { chunk, attempt: 0 });
            }
            let mut flown = Vec::new();
            while let Some((t, ev)) = queue.pop() {
                match ev {
                    Ev::StartMap { chunk, .. } => {
                        let (granules, len) = shuffle_of(seed, chunk, t);
                        for arrivals in granules {
                            let parts = arrivals
                                .into_iter()
                                .map(|(reducer, arrival)| Part {
                                    arrival,
                                    seq: 0,
                                    reducer,
                                    payload: RecordBatch::default(),
                                })
                                .collect();
                            Flight::launch(&mut queue, 0, chunk, parts);
                        }
                        if chunk + slots < chunks {
                            let next = Ev::StartMap {
                                chunk: chunk + slots,
                                attempt: 0,
                            };
                            queue.push(SimTime(t.0 + len), next);
                        }
                    }
                    Ev::Shuffle(flight) => {
                        let mut flight = Some(flight);
                        while let Some(mut f) = flight {
                            let part = f.parts.pop().expect("a part left");
                            flown.push((part.arrival, part.reducer, f.chunk));
                            flight = f.onward(&mut queue, pauses.next_below(4) == 0);
                        }
                    }
                }
            }

            let mut queue = EventQueue::new();
            for chunk in 0..slots {
                queue.push(SimTime::ZERO, OneEach::StartMap(chunk));
            }
            let mut oracle = Vec::new();
            while let Some((t, ev)) = queue.pop() {
                match ev {
                    OneEach::StartMap(chunk) => {
                        let (granules, len) = shuffle_of(seed, chunk, t);
                        for (reducer, arrival) in granules.into_iter().flatten() {
                            queue.push(arrival, OneEach::Deliver { reducer, chunk });
                        }
                        if chunk + slots < chunks {
                            queue.push(SimTime(t.0 + len), OneEach::StartMap(chunk + slots));
                        }
                    }
                    OneEach::Deliver { reducer, chunk } => oracle.push((t, reducer, chunk)),
                }
            }
            assert!(
                oracle.len() > 200,
                "seed {seed}: {} deliveries",
                oracle.len()
            );
            assert_eq!(flown, oracle, "seed {seed}");
        }
    }
}
