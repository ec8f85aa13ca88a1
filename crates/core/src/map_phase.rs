//! Map-task execution and map-output collection.
//!
//! A map task reads its chunk and applies the user map function, whose
//! `emit` *is* the framework's collector — one pass from `map()` to the
//! per-reducer batches:
//!
//! - **sort-merge** — materialises the run in a [`BatchBuilder`] (it has to
//!   exist before it can be sorted), sorts by ⟨partition, key⟩ (charging
//!   the comparison CPU the paper blames for the busy map phase), applies
//!   the combiner if present, and external-sorts through spill files when
//!   the output exceeds `B_m`;
//! - **MR-hash** — with a combiner, each emission probes an in-memory hash
//!   table by its borrowed key bytes and is folded into its key's
//!   accumulator on the spot; without one, every pair is forwarded, so the
//!   run is materialised in a [`BatchBuilder`] whose arena the payloads
//!   share.
//!   Either way one `h1` scan partitions the result, no sort;
//! - **INC/DINC-hash** — applies `init()` to each value as it is emitted
//!   (§4.2) and collapses same-key states with `cb()` in an in-memory hash
//!   table (the Hash-based Map Output component of §5). A [`Key`] and a
//!   state are built only for a key the table has not seen.
//!
//! Under pipelining the task emits several *granules* (each independently
//! sorted, like MapReduce Online's eager spills) at interpolated times;
//! otherwise a single granule at task completion.
//!
//! ## Compute / accounting split
//!
//! Map-task work is split in two so the execution layer
//! ([`crate::exec`]) can run the expensive part on worker threads:
//!
//! 1. [`compute_map_task`] does everything that touches *data* — the map
//!    function, sorting, combining, partitioning — and records every
//!    simulated-resource operation (CPU charge, HDFS read, spill write,
//!    merge span) into a [`MapTaskPlan`]. It is a pure function of the
//!    job, framework, records and hash function: no [`Resources`] access,
//!    no simulated time.
//! 2. [`finish_map_task`] replays the plan against the shared
//!    [`Resources`] on the scheduling thread, which is where disk-queue
//!    contention, usage accounting and the task timeline are resolved.
//!
//! Because the plan is independent of *when* and *where* it is replayed,
//! plans may be computed speculatively and out of order while replay stays
//! in strict event order — the engine's bit-identical determinism contract
//! rests on this property.

use crate::api::{Combiner, Job, ReduceCtx, Site};
use crate::cluster::{ClusterSpec, Framework};
use crate::cost::CostModel;
use crate::resident::{cb_sized, colder_resident, entry_size};
use crate::sim::Resources;
use bytes::Bytes;
use opa_common::fault::FaultConfig;
use opa_common::hash::bucket_of;
use opa_common::units::{SimDuration, SimTime};
use opa_common::{
    AdmissionPolicy, BatchBuilder, CombineScope, FreqSketch, GroupTable, HashFn, Key, Pair,
    RecordBatch, Value,
};
use opa_simio::{IoCategory, IoOp};
use opa_trace::model::lambda::MergeTreeSim;
use opa_trace::SpanKind;

/// Per-record UDF poison configuration for one map task: the fault config
/// whose `(seed, udf_poison_rate)` drive the verdict, plus the global
/// input offset of the task's first record. The verdict for a record is a
/// pure function of `(seed, base + index)` — independent of thread,
/// attempt and interleaving — so poisoned records quarantine identically
/// on every execution.
#[derive(Debug, Clone, Copy)]
pub struct PoisonGate {
    /// Fault config; only `seed` and `udf_poison_rate` are consulted.
    pub faults: FaultConfig,
    /// Global input offset of `records[0]` of this task's chunk.
    pub base: u64,
}

/// The data delivered from a mapper to one reducer, under the name
/// `opa_perf/src/layers.rs` still uses: the one shuffle batch. Key-value
/// pairs arrive sorted by key from sort-merge; the incremental frameworks'
/// rows are key-state pairs.
pub use opa_common::RecordBatch as Payload;

/// One batch of deliveries pushed by a mapper at `time`: element `p` goes
/// to reducer partition `p`.
#[derive(Debug)]
pub struct Granule {
    /// Virtual instant at which the granule leaves the mapper.
    pub time: SimTime,
    /// Per-reducer batches (length = total reducers).
    pub partitions: Vec<RecordBatch>,
}

/// Outcome of one executed map task.
#[derive(Debug)]
pub struct MapTaskResult {
    /// Task completion time.
    pub finish: SimTime,
    /// Granules to deliver (non-pipelined tasks have exactly one, at
    /// `finish`).
    pub granules: Vec<Granule>,
    /// CPU time this task consumed.
    pub cpu: SimDuration,
    /// Total map-output bytes (shuffle volume contributed).
    pub output_bytes: u64,
    /// Map-side internal spill bytes written (external sort).
    pub spill_bytes: u64,
    /// Output pairs emitted directly at the mapper by map-side `cb()`
    /// early output (e.g. sessions that closed within a chunk).
    pub early_output: Vec<Pair>,
    /// Records the map UDF rejected, as `(global offset, raw record)` in
    /// ascending offset order. The scheduler quarantines these to the
    /// dead-letter queue instead of failing the task.
    pub poisoned: Vec<(u64, Bytes)>,
}

/// One recorded simulated-resource operation of a map task. Replayed in
/// order by [`finish_map_task`].
#[derive(Debug, Clone, Copy)]
enum MapOp {
    /// Advance the task-local clock without charging any resource
    /// (task startup latency `c_start`).
    Advance(SimDuration),
    /// Charge CPU on the task's node.
    Cpu(SimDuration),
    /// An HDFS operation (chunk read, map-side early output).
    Hdfs(IoCategory, IoOp),
    /// A local-disk operation (map output, external-sort spills).
    Spill(IoCategory, IoOp),
    /// Open a background-merge timeline span at the current clock.
    MergeStart,
    /// Close the innermost open merge span.
    MergeEnd,
    /// Stamp the next granule with the current clock.
    Granule,
}

/// The pure half of a map task: the data it produced plus the operation
/// log needed to account for it. Produced by [`compute_map_task`] —
/// possibly on a worker thread — and consumed by [`finish_map_task`] on
/// the scheduling thread.
#[derive(Debug)]
pub struct MapTaskPlan {
    ops: Vec<MapOp>,
    /// Per-granule per-reducer payloads, in granule order; each entry is
    /// stamped by the matching [`MapOp::Granule`] during replay.
    granules: Vec<Vec<RecordBatch>>,
    cpu: SimDuration,
    output_bytes: u64,
    spill_bytes: u64,
    early_output: Vec<Pair>,
    poisoned: Vec<(u64, Bytes)>,
}

impl MapTaskPlan {
    fn new() -> Self {
        MapTaskPlan {
            ops: Vec::new(),
            granules: Vec::new(),
            cpu: SimDuration::ZERO,
            output_bytes: 0,
            spill_bytes: 0,
            early_output: Vec::new(),
            poisoned: Vec::new(),
        }
    }

    fn op_cpu(&mut self, dur: SimDuration) {
        self.ops.push(MapOp::Cpu(dur));
        self.cpu += dur;
    }

    /// Converts this plan into its in-memory dataflow form (the M3R-style
    /// partition-stable handoff): drops the HDFS chunk read — the input
    /// never lived on the distributed filesystem, it arrived as the
    /// previous stage's resident output — and the map-output
    /// materialization writes, which are exactly the shuffle volume the
    /// handoff skips. CPU charges, internal external-sort spills and
    /// granule stamps are kept: the map function and its sort really run.
    /// Returns the forgone map-output byte volume (the stage's
    /// `bytes_saved`) and zeroes the plan's own shuffle accounting.
    pub fn strip_materialization(&mut self) -> u64 {
        self.ops.retain(|op| {
            !matches!(
                op,
                MapOp::Hdfs(IoCategory::MapInput, _) | MapOp::Spill(IoCategory::MapOutput, _)
            )
        });
        std::mem::take(&mut self.output_bytes)
    }

    /// The task's contention-free duration: what it would take on an idle
    /// node. The fault subsystem uses this as the straggler-detection
    /// horizon — the instant a healthy attempt "should have" finished.
    pub fn nominal_duration(&self, spec: &ClusterSpec) -> SimDuration {
        let cost = &spec.cost;
        let mut total = SimDuration::ZERO;
        for op in &self.ops {
            match *op {
                MapOp::Advance(d) | MapOp::Cpu(d) => total += d,
                MapOp::Hdfs(_, io) => total += cost.hdfs_time(io),
                MapOp::Spill(_, io) => total += cost.spill_time(io),
                MapOp::MergeStart | MapOp::MergeEnd | MapOp::Granule => {}
            }
        }
        total
    }
}

/// What a discarded map-task attempt cost: when it died (or was given up
/// on) and the work it burned.
#[derive(Debug, Clone, Copy)]
pub struct MapAttemptWaste {
    /// Virtual time at which the attempt ended (failure detected, or the
    /// straggling copy finally stopped).
    pub fail_time: SimTime,
    /// CPU the attempt consumed before dying.
    pub wasted_cpu: SimDuration,
    /// Bytes the attempt wrote that nobody will read.
    pub wasted_bytes: u64,
}

/// Replays the prefix of a map-task plan that a failing attempt completed
/// before dying: `frac` of the plan's operations are charged against the
/// shared resources (the work really happened — CPU burned, disk queues
/// occupied), but no granules are produced and no early output escapes.
/// Returns the waste accounting for the fault report.
pub fn abort_map_task(
    plan: &MapTaskPlan,
    frac: f64,
    node: usize,
    start: SimTime,
    spec: &ClusterSpec,
    res: &mut Resources,
) -> MapAttemptWaste {
    let frac = frac.clamp(0.0, 1.0);
    let upto = ((plan.ops.len() as f64 * frac).ceil() as usize).clamp(1, plan.ops.len());
    replay_partial(plan, upto, 1.0, node, start, spec, res)
}

/// Replays a straggling map-task attempt in full, with `Advance`/`Cpu`
/// durations scaled by `factor` (the node's CPU is degraded; its disk is
/// not). The attempt's entire output is wasted: the engine launches a
/// speculative backup at the nominal-duration horizon and always commits
/// the backup's granules, treating the straggling node as blacklisted.
pub fn straggle_map_task(
    plan: &MapTaskPlan,
    factor: f64,
    node: usize,
    start: SimTime,
    spec: &ClusterSpec,
    res: &mut Resources,
) -> MapAttemptWaste {
    replay_partial(
        plan,
        plan.ops.len(),
        factor.max(1.0),
        node,
        start,
        spec,
        res,
    )
}

/// Shared partial/scaled replay behind [`abort_map_task`] and
/// [`straggle_map_task`]: charges the first `upto` operations, skipping
/// granule stamping, and closes any merge span left open at the cut.
fn replay_partial(
    plan: &MapTaskPlan,
    upto: usize,
    factor: f64,
    node: usize,
    start: SimTime,
    spec: &ClusterSpec,
    res: &mut Resources,
) -> MapAttemptWaste {
    let cost = &spec.cost;
    let scale = |d: SimDuration| SimDuration((d.0 as f64 * factor) as u64);
    let mut t = start;
    let mut merge_starts: Vec<SimTime> = Vec::new();
    let mut wasted_cpu = SimDuration::ZERO;
    let mut wasted_bytes = 0u64;
    for op in &plan.ops[..upto] {
        match *op {
            MapOp::Advance(d) => t += scale(d),
            MapOp::Cpu(d) => {
                let d = scale(d);
                wasted_cpu += d;
                t = res.cpu(node, t, d);
            }
            MapOp::Hdfs(cat, io) => t = res.hdfs_io(node, t, cat, io, cost),
            MapOp::Spill(cat, io) => {
                wasted_bytes += io.written;
                t = res.spill_io(node, t, cat, io, cost);
            }
            MapOp::MergeStart => merge_starts.push(t),
            MapOp::MergeEnd => {
                let m0 = merge_starts.pop().expect("balanced merge markers");
                res.span(node, SpanKind::Merge, m0, t);
            }
            MapOp::Granule => {}
        }
    }
    // A merge interrupted by the failure still occupied the timeline.
    while let Some(m0) = merge_starts.pop() {
        res.span(node, SpanKind::Merge, m0, t);
    }
    res.span(node, SpanKind::Map, start, t);
    MapAttemptWaste {
        fail_time: t,
        wasted_cpu,
        wasted_bytes,
    }
}

/// Computes one map task without touching shared simulation state: runs
/// the user map function into the framework's collector, and records every
/// resource operation into the returned plan. Pure — safe to run on any
/// thread, in any order.
#[allow(clippy::too_many_arguments)]
pub fn compute_map_task(
    job: &dyn Job,
    framework: Framework,
    records: &[Bytes],
    chunk_bytes: u64,
    spec: &ClusterSpec,
    h1: HashFn,
    admission: AdmissionPolicy,
    combine: CombineScope,
    poison: Option<PoisonGate>,
) -> MapTaskPlan {
    let cost = &spec.cost;
    let mut plan = MapTaskPlan::new();

    // Task startup, then read the input chunk from HDFS.
    plan.ops
        .push(MapOp::Advance(SimDuration::from_secs_f64(cost.c_start)));
    plan.ops
        .push(MapOp::Hdfs(IoCategory::MapInput, IoOp::read(chunk_bytes)));

    let input = MapInput {
        job,
        records,
        poison,
        cost,
    };
    // `Off` disables the per-task combiner for the materializing
    // frameworks; the incremental frameworks fold on arrival by
    // construction, so for them the scope has no per-task effect.
    let combiner = job.combiner().filter(|_| combine.task_combining());
    match framework {
        Framework::SortMerge | Framework::SortMergePipelined => {
            // Pipelined granules interpolate between map-fn end and finish.
            let granules = match framework {
                Framework::SortMergePipelined => spec.pipeline_granules,
                _ => 1,
            };
            let pairs = input.collect_rows(&mut plan);
            plan_sort_merge(combiner, pairs, granules, spec, h1, &mut plan)
        }
        Framework::MrHash => plan_mr_hash(&input, combiner, spec, h1, &mut plan),
        Framework::IncHash | Framework::DincHash => {
            plan_incremental(&input, chunk_bytes, spec, h1, admission, &mut plan)
        }
    }
    plan
}

/// What every collector maps over: the job, the chunk's records and the
/// poison gate in front of the UDF.
struct MapInput<'a> {
    job: &'a dyn Job,
    records: &'a [Bytes],
    poison: Option<PoisonGate>,
    cost: &'a CostModel,
}

impl MapInput<'_> {
    /// The map function, for real: every pair it emits goes to `emit`,
    /// which is the collector's `push`. Charges the map CPU.
    fn run(&self, plan: &mut MapTaskPlan, mut emit: impl FnMut(&[u8], &[u8])) {
        let mut mapped = 0u64;
        for (i, rec) in self.records.iter().enumerate() {
            // Poisoned records never reach the UDF: the verdict is pure in
            // (seed, offset), so the same record quarantines on every attempt
            // and the chunk's whole plan stays a pure function of its inputs.
            if let Some(gate) = &self.poison {
                let offset = gate.base + i as u64;
                if gate.faults.poisons(offset) {
                    plan.poisoned.push((offset, Bytes::copy_from_slice(rec)));
                    continue;
                }
            }
            self.job.map(rec, &mut emit);
            mapped += 1;
        }
        plan.op_cpu(self.cost.map_time(mapped));
    }

    /// The materialising collector, for the paths that need the whole run
    /// before they can act on it: sort-merge sorts it, combiner-less
    /// MR-hash forwards every pair. Small payloads become inline
    /// representations, large ones views over one arena per chunk, so the
    /// per-record path allocates nothing.
    fn collect_rows(&self, plan: &mut MapTaskPlan) -> Vec<Pair> {
        let mut rows = BatchBuilder::with_capacity(self.records.len());
        self.run(plan, |k, v| rows.push(k, v));
        rows.seal()
    }

    /// The grouping collector of MR-hash with a combiner: each emission
    /// probes the table by its borrowed key bytes (hashed once — the
    /// fingerprint also partitions and rides the batch to the reduce
    /// side) and is folded into its key's accumulator; a key's first
    /// value starts one. Returns the emission count and the accumulators
    /// in first-seen order.
    fn fold_by_key(
        &self,
        cb: &dyn Combiner,
        h1: HashFn,
        plan: &mut MapTaskPlan,
    ) -> (u64, Vec<(u64, Key, Value)>) {
        let mut groups: GroupTable<Value> = GroupTable::with_capacity(self.records.len() / 4 + 1);
        let mut emitted = 0u64;
        self.run(plan, |k, v| {
            emitted += 1;
            let h = h1.hash(k);
            match groups.find_bytes(h, k) {
                Some(i) => {
                    let (key, acc) = groups.row_mut(i);
                    cb.fold(key, acc, Value::from_slice(v));
                }
                None => groups.push(h, Key::from_slice(k), Value::from_slice(v)),
            }
        });
        (emitted, groups.into_rows())
    }
}

/// Replays a map-task plan against the shared resources, resolving disk
/// contention and stamping granule times. Must run on the scheduling
/// thread, in event order.
pub fn finish_map_task(
    plan: MapTaskPlan,
    node: usize,
    start: SimTime,
    spec: &ClusterSpec,
    res: &mut Resources,
) -> MapTaskResult {
    let cost = &spec.cost;
    let mut t = start;
    let mut merge_starts: Vec<SimTime> = Vec::new();
    let mut granule_times: Vec<SimTime> = Vec::with_capacity(plan.granules.len());
    for op in &plan.ops {
        match *op {
            MapOp::Advance(d) => t += d,
            MapOp::Cpu(d) => t = res.cpu(node, t, d),
            MapOp::Hdfs(cat, io) => t = res.hdfs_io(node, t, cat, io, cost),
            MapOp::Spill(cat, io) => t = res.spill_io(node, t, cat, io, cost),
            MapOp::MergeStart => merge_starts.push(t),
            MapOp::MergeEnd => {
                let m0 = merge_starts.pop().expect("balanced merge markers");
                res.span(node, SpanKind::Merge, m0, t);
            }
            MapOp::Granule => granule_times.push(t),
        }
    }
    res.span(node, SpanKind::Map, start, t);
    let granules = granule_times
        .into_iter()
        .zip(plan.granules)
        .map(|(time, partitions)| Granule { time, partitions })
        .collect();
    MapTaskResult {
        finish: t,
        granules,
        cpu: plan.cpu,
        output_bytes: plan.output_bytes,
        spill_bytes: plan.spill_bytes,
        early_output: plan.early_output,
        poisoned: plan.poisoned,
    }
}

/// Sort-merge collection, optionally split into `granules` pipelined
/// pieces (each sorted and combined independently, like HOP's spills).
fn plan_sort_merge(
    combiner: Option<&dyn Combiner>,
    pairs: Vec<Pair>,
    granules: usize,
    spec: &ClusterSpec,
    h1: HashFn,
    plan: &mut MapTaskPlan,
) {
    let cost = &spec.cost;
    let n_partitions = spec.total_reducers();
    let n = pairs.len();
    let granules = granules.clamp(1, n.max(1));
    let mut iter = pairs.into_iter();

    // Scratch run buffer, folded and drained in place so pipelined tasks
    // reuse its capacity across granules.
    let mut part: Vec<(usize, u64, Pair)> = Vec::with_capacity(n / granules + 1);
    for g in 0..granules {
        let lo = n * g / granules;
        let hi = n * (g + 1) / granules;
        // Tag each pair with its h1 fingerprint (hashed once — the same
        // fingerprint partitions here and probes reduce-side tables) and
        // its target partition; the pairs are moved out of the map
        // buffer, not cloned.
        part.clear();
        part.extend(iter.by_ref().take(hi - lo).map(|p| {
            let h = h1.hash(p.key.bytes());
            (bucket_of(h, n_partitions), h, p)
        }));
        // The compound ⟨partition, key⟩ sort of §2.2.
        part.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.2.key.cmp(&b.2.key)));
        plan.op_cpu(cost.sort_time(part.len() as u64));

        // Combiner on sorted groups, if the job has one and the scope
        // permits per-task combining.
        if let Some(cb) = combiner {
            let in_recs = part.len() as u64;
            combine_sorted(cb, &mut part);
            plan.op_cpu(cost.cb_time(in_recs));
        }

        let g_bytes: u64 = part.iter().map(|(_, _, p)| p.size()).sum();
        plan.output_bytes += g_bytes;

        // External sort when this piece overflows the map buffer.
        if g_bytes > spec.hardware.map_buffer {
            plan_external_sort(g_bytes, part.len() as u64, spec, plan);
        }

        // Write the (final) sorted map output for this granule.
        plan.ops
            .push(MapOp::Spill(IoCategory::MapOutput, IoOp::write(g_bytes)));

        // Scatter into per-reducer batches, preserving sorted order and
        // carrying the fingerprints.
        let cap = part.len() / n_partitions + 1;
        let mut per_part: Vec<RecordBatch> = (0..n_partitions)
            .map(|_| RecordBatch::with_capacity(cap))
            .collect();
        for (p, h, pair) in part.drain(..) {
            per_part[p].push_hashed(pair, h);
        }
        plan.ops.push(MapOp::Granule);
        plan.granules.push(per_part);
    }
}

/// Folds consecutive same-⟨partition, key⟩ rows of a sorted run into
/// one row each, in place: each group's first row keeps its fingerprint
/// and accumulates the later rows' values in arrival order.
fn combine_sorted(cb: &dyn Combiner, run: &mut Vec<(usize, u64, Pair)>) {
    run.dedup_by(|(q, _, later), (p, _, kept)| {
        let same = q == p && later.key == kept.key;
        if same {
            cb.fold(&kept.key, &mut kept.value, std::mem::take(&mut later.value));
        }
        same
    });
}

/// Plans the I/O and CPU of a map-side external sort: spill runs of
/// `B_m`, background-merge per the `2F−1` policy, final read.
fn plan_external_sort(
    out_bytes: u64,
    out_records: u64,
    spec: &ClusterSpec,
    plan: &mut MapTaskPlan,
) {
    let cost = &spec.cost;
    let bm = spec.hardware.map_buffer;
    let f = spec.system.merge_factor;
    let rec_size = (out_bytes / out_records.max(1)).max(1);

    // Write initial runs.
    let mut tree = MergeTreeSim::new(f);
    let mut remaining = out_bytes;
    while remaining > 0 {
        let run = remaining.min(bm);
        plan.ops
            .push(MapOp::Spill(IoCategory::MapSpill, IoOp::write(run)));
        plan.spill_bytes += run;
        remaining -= run;
        if let Some(inputs) = tree.add_run(run) {
            let merged: u64 = inputs.iter().sum();
            let op = inputs
                .iter()
                .fold(IoOp::write(merged), |op, &sz| op + IoOp::read(sz));
            plan.ops.push(MapOp::MergeStart);
            plan.ops.push(MapOp::Spill(IoCategory::MapSpill, op));
            plan.op_cpu(cost.merge_time(merged / rec_size, f));
            plan.ops.push(MapOp::MergeEnd);
            plan.spill_bytes += merged;
        }
    }
    // Final merge: read all remaining runs back (output write is charged
    // by the caller as U3).
    let op = tree
        .live_files()
        .iter()
        .fold(IoOp::NONE, |op, &sz| op + IoOp::read(sz));
    plan.ops.push(MapOp::Spill(IoCategory::MapSpill, op));
    plan.op_cpu(cost.merge_time(out_bytes / rec_size, tree.live_files().len().max(2)));
}

/// MR-hash collection: one partitioning scan, no sort. When the job has a
/// combiner, the Hash-based Map Output component (§5) builds an in-memory
/// hash table and feeds each key's values through it as they are emitted
/// — map-side partial aggregation works for every hash framework; what
/// MR-hash lacks is only *reduce-side* incremental processing.
fn plan_mr_hash(
    input: &MapInput<'_>,
    combiner: Option<&dyn Combiner>,
    spec: &ClusterSpec,
    h1: HashFn,
    plan: &mut MapTaskPlan,
) {
    let cost = &spec.cost;
    let (n, hashed): (u64, Vec<(u64, Pair)>) = match combiner {
        // One accumulator per key, folded in place; groups stay in
        // first-seen order.
        Some(cb) => {
            let (n, groups) = input.fold_by_key(cb, h1, plan);
            plan.op_cpu(cost.cb_time(n));
            let folded = groups
                .into_iter()
                .map(|(h, key, acc)| (h, Pair::new(key, acc)));
            (n, folded.collect())
        }
        // Nothing to group: every pair is forwarded, its large payloads as
        // views over the chunk's one arena.
        None => {
            let pairs = input.collect_rows(plan);
            let n = pairs.len() as u64;
            let hashed = pairs.into_iter().map(|p| (h1.hash(p.key.bytes()), p));
            (n, hashed.collect())
        }
    };
    ship_pairs(hashed, n, spec, plan);
}

/// The tail every MR-hash variant shares: scatter the fingerprinted pairs
/// into per-reducer batches and account the partitioning scan and the
/// map-output write.
fn ship_pairs(hashed: Vec<(u64, Pair)>, n: u64, spec: &ClusterSpec, plan: &mut MapTaskPlan) {
    let n_partitions = spec.total_reducers();
    let cap = hashed.len() / n_partitions + 1;
    let mut per_part: Vec<RecordBatch> = (0..n_partitions)
        .map(|_| RecordBatch::with_capacity(cap))
        .collect();
    for (h, p) in hashed {
        per_part[bucket_of(h, n_partitions)].push_hashed(p, h);
    }
    plan.op_cpu(spec.cost.hash_time(n));

    let output_bytes: u64 = per_part.iter().map(RecordBatch::bytes).sum();
    plan.output_bytes = output_bytes;
    plan.ops.push(MapOp::Spill(
        IoCategory::MapOutput,
        IoOp::write(output_bytes),
    ));
    plan.ops.push(MapOp::Granule);
    plan.granules.push(per_part);
}

/// INC/DINC collection: `init()` on each value as `map()` emits it, and an
/// insertion-ordered hash table that collapses same-key states with `cb()`
/// (map-side combine) on arrival. A [`Key`] and a state of its own are
/// built only for a key the table does not hold.
///
/// With the LFU admission policy on, the collapse table is additionally
/// held to the map buffer budget: once full, a newcomer is admitted only
/// by evicting a resident the frequency sketch scores strictly colder
/// (the evictee's partial state is emitted early — the reduce side
/// re-merges it, so the result is exact either way); otherwise the
/// newcomer is forwarded uncombined. Decisions are pure functions of the
/// chunk's record order, so plans stay deterministic at any thread count.
fn plan_incremental(
    input: &MapInput<'_>,
    chunk_bytes: u64,
    spec: &ClusterSpec,
    h1: HashFn,
    admission: AdmissionPolicy,
    plan: &mut MapTaskPlan,
) {
    let cost = &spec.cost;
    let n_partitions = spec.total_reducers();
    let inc = input
        .job
        .incremental()
        .expect("validated: incremental frameworks require an IncrementalReducer");

    // Distinct states the chunk's bytes can plausibly hold. The sketch is
    // sized by that alone (its width decides admissions, so it must depend
    // on nothing but the chunk and the job); the table starts with room for
    // no more than one key per record.
    let state_hint = input.job.state_size_hint().unwrap_or(64).max(1);
    let chunk_states = (chunk_bytes / state_hint) as usize + 1;
    let key_per_record = chunk_states.min(input.records.len().max(1));

    let mut ctx = ReduceCtx::at_site(Site::Map);
    let mut table: GroupTable<Value> = GroupTable::default();
    table.reserve(key_per_record);
    let (mut emitted, mut cb_calls) = (0u64, 0u64);
    let mut sketch = admission
        .is_on()
        .then(|| FreqSketch::with_capacity(chunk_states));
    let budget = spec.hardware.map_buffer;
    let mut used = 0u64;
    // Rows that leave the table early, in the order they left: displaced
    // residents and newcomers the gate turned away.
    let mut shipped_early: Vec<(u64, Key, Value)> = Vec::new();
    let mut victim_cursor = 0u64;
    input.run(plan, |k, v| {
        emitted += 1;
        // Each key is hashed exactly once: the fingerprint probes the
        // group table, picks the partition, and is carried in the outgoing
        // batch.
        let h = h1.hash(k);
        if let Some(sk) = sketch.as_mut() {
            sk.touch(h);
        }
        if let Some(i) = table.find_bytes(h, k) {
            let (key, acc) = table.row_mut(i);
            let state = inc.init(key, v);
            if sketch.is_some() {
                cb_sized(inc, key, acc, state, &mut ctx, &mut used);
            } else {
                inc.cb(key, acc, state, &mut ctx);
            }
            cb_calls += 1;
            return;
        }
        let key = Key::from_slice(k);
        let state = inc.init(&key, v);
        if let Some(sk) = &sketch {
            let sz = entry_size(inc, &key, &state);
            if used + sz > budget && !table.is_empty() {
                // Table full: displace a resident only for a strictly
                // hotter newcomer, else forward the newcomer uncombined.
                let Some(vi) = colder_resident(&table, &mut victim_cursor, sk, h) else {
                    shipped_early.push((h, key, state));
                    return;
                };
                let victim = table.swap_remove(vi);
                used = used.saturating_sub(entry_size(inc, &victim.1, &victim.2));
                shipped_early.push(victim);
            }
            used += sz;
        }
        if table.len() == key_per_record {
            // More keys than records: go straight to what the chunk's
            // bytes can hold rather than doubling up to it.
            table.reserve(chunk_states);
        }
        table.push(h, key, state);
    });
    plan.op_cpu(
        cost.init_time(emitted)
            + cost.hash_time(emitted + 2 * shipped_early.len() as u64)
            + cost.cb_time(cb_calls),
    );

    let cap = table.len() / n_partitions + 1;
    let mut per_part: Vec<RecordBatch> = (0..n_partitions)
        .map(|_| RecordBatch::with_capacity(cap))
        .collect();
    // Early-displaced entries ship first: a victim's partial state must
    // reach the reducer before later tuples of the same key so bucket
    // files preserve arrival order for order-sensitive jobs.
    for (h, key, state) in shipped_early.into_iter().chain(table.into_rows()) {
        per_part[bucket_of(h, n_partitions)].push_hashed(Pair::new(key, state), h);
    }
    let output_bytes: u64 = per_part.iter().map(RecordBatch::bytes).sum();
    plan.output_bytes = output_bytes;
    plan.ops.push(MapOp::Spill(
        IoCategory::MapOutput,
        IoOp::write(output_bytes),
    ));

    // Any map-side early output (closed sessions) goes straight to HDFS.
    let early_bytes = ctx.drain_into(&mut plan.early_output);
    if early_bytes > 0 {
        plan.ops.push(MapOp::Hdfs(
            IoCategory::ReduceOutput,
            IoOp::write(early_bytes),
        ));
    }

    plan.ops.push(MapOp::Granule);
    plan.granules.push(per_part);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::IncrementalReducer;
    use crate::sim::Resources;

    /// Word-count-ish job keyed on the record's first byte.
    struct FirstByte {
        with_combiner: bool,
    }

    impl Job for FirstByte {
        fn name(&self) -> &str {
            "first byte"
        }
        fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
            emit(&record[..1], &1u64.to_be_bytes());
        }
        fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
            let sum: u64 = values.iter().filter_map(Value::as_u64).sum();
            ctx.emit(key.clone(), Value::from_u64(sum));
        }
        fn combiner(&self) -> Option<&dyn Combiner> {
            if self.with_combiner {
                Some(self)
            } else {
                None
            }
        }
        fn incremental(&self) -> Option<&dyn IncrementalReducer> {
            Some(self)
        }
    }

    impl Combiner for FirstByte {
        fn fold(&self, _key: &Key, acc: &mut Value, value: Value) {
            *acc = Value::from_u64(acc.as_u64().unwrap_or(0) + value.as_u64().unwrap_or(0));
        }
    }

    impl IncrementalReducer for FirstByte {
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

    fn records(n: usize, alphabet: u8) -> Vec<Bytes> {
        (0..n)
            .map(|i| Bytes::from(vec![(i as u8) % alphabet, b'x', b'y']))
            .collect()
    }

    /// Executes one map task at time zero on node 0: compute, then
    /// accounting against `res`.
    fn run_on(
        job: &dyn Job,
        framework: Framework,
        recs: &[Bytes],
        spec: &ClusterSpec,
        res: &mut Resources,
    ) -> MapTaskResult {
        let plan = compute_map_task(
            job,
            framework,
            recs,
            recs.iter().map(|r| r.len() as u64).sum(),
            spec,
            opa_common::HashFamily::new(spec.hash_seed).fn_at(0),
            opa_common::AdmissionPolicy::Off,
            opa_common::CombineScope::Task,
            None,
        );
        finish_map_task(plan, 0, SimTime::ZERO, spec, res)
    }

    fn run(
        job: &dyn Job,
        framework: Framework,
        recs: &[Bytes],
        spec: &ClusterSpec,
    ) -> MapTaskResult {
        let mut res = Resources::new(spec.hardware.nodes, 4, false);
        run_on(job, framework, recs, spec, &mut res)
    }

    #[test]
    fn sort_merge_payloads_are_key_sorted_per_partition() {
        let spec = ClusterSpec::tiny();
        let job = FirstByte {
            with_combiner: false,
        };
        let recs = records(64, 13);
        let result = run(&job, Framework::SortMerge, &recs, &spec);
        assert_eq!(result.granules.len(), 1);
        let mut total = 0usize;
        for pairs in &result.granules[0].partitions {
            total += pairs.len();
            for w in pairs.windows(2) {
                assert!(w[0].key <= w[1].key, "partition not key-sorted");
            }
        }
        assert_eq!(total, 64, "no record may vanish");
        assert_eq!(result.spill_bytes, 0, "tiny chunk fits the map buffer");
    }

    #[test]
    fn combiner_shrinks_sort_merge_output() {
        let spec = ClusterSpec::tiny();
        let recs = records(200, 5); // 5 distinct keys, 40 repeats each
        let plain = run(
            &FirstByte {
                with_combiner: false,
            },
            Framework::SortMerge,
            &recs,
            &spec,
        );
        let combined = run(
            &FirstByte {
                with_combiner: true,
            },
            Framework::SortMerge,
            &recs,
            &spec,
        );
        assert!(
            combined.output_bytes < plain.output_bytes / 10,
            "combiner should collapse 200 records into 5: {} vs {}",
            combined.output_bytes,
            plain.output_bytes
        );
    }

    #[test]
    fn external_sort_triggers_past_map_buffer() {
        let mut spec = ClusterSpec::tiny();
        spec.hardware.map_buffer = 256; // force external sort
        let job = FirstByte {
            with_combiner: false,
        };
        let recs = records(500, 250);
        let result = run(&job, Framework::SortMerge, &recs, &spec);
        assert!(result.spill_bytes > 0, "map-side spill expected");
    }

    /// The map-side half of the `U_2` identity: one map task whose output
    /// exceeds `B_m` moves exactly the bytes of the merge-tree replay over
    /// its own initial runs, with no tolerance.
    #[test]
    fn external_sort_spill_bytes_equal_merge_tree_replay() {
        let job = FirstByte {
            with_combiner: false,
        };
        let recs = records(500, 250);
        for f in [2usize, 4] {
            let mut spec = ClusterSpec::tiny();
            spec.hardware.map_buffer = 256;
            spec.system.merge_factor = f;
            let plan = compute_map_task(
                &job,
                Framework::SortMerge,
                &recs,
                recs.iter().map(|r| r.len() as u64).sum(),
                &spec,
                opa_common::HashFamily::new(spec.hash_seed).fn_at(0),
                opa_common::AdmissionPolicy::Off,
                opa_common::CombineScope::Task,
                None,
            );
            // Initial runs are the write-only spills outside a merge span.
            let (mut in_merge, mut runs) = (false, Vec::new());
            for op in &plan.ops {
                match *op {
                    MapOp::MergeStart => in_merge = true,
                    MapOp::MergeEnd => in_merge = false,
                    MapOp::Spill(IoCategory::MapSpill, io) if !in_merge && io.read == 0 => {
                        runs.push(io.written);
                    }
                    _ => {}
                }
            }
            let mut sim = MergeTreeSim::new(f);
            let merges = runs.iter().filter(|&&b| sim.add_run(b).is_some()).count();
            let cost = sim.finish();
            let mut res = Resources::new(spec.hardware.nodes, 4, false);
            let result = finish_map_task(plan, 0, SimTime::ZERO, &spec, &mut res);
            assert!(merges > 0, "F={f}: no merge fired");
            assert_eq!(result.spill_bytes, cost.written, "F={f}");
            assert_eq!(res.io.written_bytes(IoCategory::MapSpill), cost.written);
            assert_eq!(res.io.read_bytes(IoCategory::MapSpill), cost.read);
        }
    }

    #[test]
    fn pipelined_granules_cover_all_records_in_order() {
        let mut spec = ClusterSpec::tiny();
        spec.pipeline_granules = 4;
        let job = FirstByte {
            with_combiner: false,
        };
        let recs = records(100, 9);
        let result = run(&job, Framework::SortMergePipelined, &recs, &spec);
        assert_eq!(result.granules.len(), 4);
        let mut prev = SimTime::ZERO;
        let mut total = 0usize;
        for g in &result.granules {
            assert!(g.time >= prev, "granule times must be non-decreasing");
            prev = g.time;
            total += g.partitions.iter().map(|p| p.len()).sum::<usize>();
        }
        assert_eq!(total, 100);
    }

    #[test]
    fn incremental_map_side_collapses_states() {
        let spec = ClusterSpec::tiny();
        let job = FirstByte {
            with_combiner: false,
        };
        let recs = records(120, 6);
        let result = run(&job, Framework::IncHash, &recs, &spec);
        let mut keys = 0usize;
        let mut mass = 0u64;
        for states in &result.granules[0].partitions {
            keys += states.len();
            mass += states.iter().filter_map(|s| s.value.as_u64()).sum::<u64>();
        }
        assert_eq!(keys, 6, "map-side cb must collapse to distinct keys");
        assert_eq!(mass, 120, "counts must be preserved by the collapse");
    }

    #[test]
    fn mr_hash_without_combiner_keeps_every_pair() {
        let spec = ClusterSpec::tiny();
        let job = FirstByte {
            with_combiner: false,
        };
        let recs = records(80, 7);
        let result = run(&job, Framework::MrHash, &recs, &spec);
        let total: usize = result.granules[0].partitions.iter().map(|p| p.len()).sum();
        assert_eq!(total, 80);
    }

    #[test]
    fn replay_is_repeatable_for_all_frameworks() {
        // The event loop interleaves plans computed on other threads, so
        // whichever framework planned the ops, computing and replaying a
        // task again must reproduce the result and the timeline.
        let mut spec = ClusterSpec::tiny();
        spec.pipeline_granules = 3;
        for fw in [
            Framework::SortMerge,
            Framework::SortMergePipelined,
            Framework::MrHash,
            Framework::IncHash,
            Framework::DincHash,
        ] {
            let job = FirstByte {
                with_combiner: false,
            };
            let recs = records(90, 11);
            let mut res_a = Resources::new(spec.hardware.nodes, 4, false);
            let first = run_on(&job, fw, &recs, &spec, &mut res_a);
            let mut res_b = Resources::new(spec.hardware.nodes, 4, false);
            let again = run_on(&job, fw, &recs, &spec, &mut res_b);
            assert_eq!(format!("{first:?}"), format!("{again:?}"), "{fw:?}");
            assert_eq!(
                format!("{:?}", res_a.timeline),
                format!("{:?}", res_b.timeline),
                "{fw:?}"
            );
        }
    }

    /// The two-pass grouping code the streamed collectors replaced, kept
    /// as their reference: every emission is first materialised through
    /// [`BatchBuilder`] and `seal()`, and only then is the copy grouped.
    /// The grouping loops are the parent commit's, with two exceptions:
    /// `init()` is handed the sealed value's bytes, and the LFU sketch is
    /// sized by the chunk's state capacity alone — the emitted-pair count
    /// the parent clamped it by is not known while `map()` is still
    /// running. Also reports how often the LFU gate evicted a resident and
    /// how often it turned a newcomer away.
    #[allow(clippy::too_many_arguments)]
    fn two_pass_plan(
        job: &dyn Job,
        framework: Framework,
        records: &[Bytes],
        chunk_bytes: u64,
        spec: &ClusterSpec,
        h1: HashFn,
        admission: AdmissionPolicy,
        poison: Option<PoisonGate>,
    ) -> (MapTaskPlan, u64, u64) {
        let cost = &spec.cost;
        let n_partitions = spec.total_reducers();
        let mut plan = MapTaskPlan::new();
        plan.ops
            .push(MapOp::Advance(SimDuration::from_secs_f64(cost.c_start)));
        plan.ops
            .push(MapOp::Hdfs(IoCategory::MapInput, IoOp::read(chunk_bytes)));
        let mut builder = BatchBuilder::with_capacity(records.len());
        let mut mapped = 0u64;
        for (i, rec) in records.iter().enumerate() {
            if let Some(gate) = &poison {
                let offset = gate.base + i as u64;
                if gate.faults.poisons(offset) {
                    plan.poisoned.push((offset, Bytes::copy_from_slice(rec)));
                    continue;
                }
            }
            job.map(rec, &mut |k, v| builder.push(k, v));
            mapped += 1;
        }
        let pairs = builder.seal();
        plan.op_cpu(cost.map_time(mapped));
        let n = pairs.len() as u64;

        if framework == Framework::MrHash {
            let cb = job.combiner().expect("the oracle's MR-hash cells combine");
            let mut groups: GroupTable<Value> = GroupTable::with_capacity(pairs.len() / 4 + 1);
            for p in pairs {
                let h = h1.hash(p.key.bytes());
                match groups.find(h, &p.key) {
                    Some(i) => {
                        let (key, acc) = groups.row_mut(i);
                        cb.fold(key, acc, p.value);
                    }
                    None => groups.push(h, p.key, p.value),
                }
            }
            plan.op_cpu(cost.cb_time(n));
            let hashed: Vec<(u64, Pair)> = groups
                .into_rows()
                .into_iter()
                .map(|(h, key, acc)| (h, Pair::new(key, acc)))
                .collect();
            ship_pairs(hashed, n, spec, &mut plan);
            return (plan, 0, 0);
        }

        assert!(
            framework.is_incremental(),
            "sort-merge has no grouping pass"
        );
        let inc = job.incremental().expect("incremental job");
        let state_hint = job.state_size_hint().unwrap_or(64).max(1);
        let chunk_states = (chunk_bytes / state_hint) as usize + 1;
        let distinct_hint = chunk_states.min(pairs.len().max(1));
        let mut ctx = ReduceCtx::at_site(Site::Map);
        let mut table: GroupTable<Value> = GroupTable::default();
        table.reserve(distinct_hint);
        let mut cb_calls = 0u64;
        let mut sketch = admission
            .is_on()
            .then(|| FreqSketch::with_capacity(chunk_states));
        let budget = spec.hardware.map_buffer;
        let mut used = 0u64;
        let mut shipped_early: Vec<(u64, Key, Value)> = Vec::new();
        let mut victim_cursor = 0u64;
        let (mut evictions, mut turned_away) = (0u64, 0u64);
        for p in pairs {
            let state = inc.init(&p.key, p.value.bytes());
            let h = h1.hash(p.key.bytes());
            if let Some(sk) = sketch.as_mut() {
                sk.touch(h);
            }
            if let Some(i) = table.find(h, &p.key) {
                let (key, acc) = table.row_mut(i);
                if sketch.is_some() {
                    cb_sized(inc, key, acc, state, &mut ctx, &mut used);
                } else {
                    inc.cb(key, acc, state, &mut ctx);
                }
                cb_calls += 1;
                continue;
            }
            if let Some(sk) = &sketch {
                let sz = entry_size(inc, &p.key, &state);
                if used + sz > budget && !table.is_empty() {
                    let Some(vi) = colder_resident(&table, &mut victim_cursor, sk, h) else {
                        shipped_early.push((h, p.key, state));
                        turned_away += 1;
                        continue;
                    };
                    let victim = table.swap_remove(vi);
                    used = used.saturating_sub(entry_size(inc, &victim.1, &victim.2));
                    shipped_early.push(victim);
                    evictions += 1;
                }
                used += sz;
            }
            table.push(h, p.key, state);
        }
        plan.op_cpu(
            cost.init_time(n)
                + cost.hash_time(n + 2 * shipped_early.len() as u64)
                + cost.cb_time(cb_calls),
        );
        let cap = table.len() / n_partitions + 1;
        let mut per_part: Vec<RecordBatch> = (0..n_partitions)
            .map(|_| RecordBatch::with_capacity(cap))
            .collect();
        for (h, key, state) in shipped_early.into_iter().chain(table.into_rows()) {
            per_part[bucket_of(h, n_partitions)].push_hashed(Pair::new(key, state), h);
        }
        let output_bytes: u64 = per_part.iter().map(RecordBatch::bytes).sum();
        plan.output_bytes = output_bytes;
        plan.ops.push(MapOp::Spill(
            IoCategory::MapOutput,
            IoOp::write(output_bytes),
        ));
        let early_bytes = ctx.drain_into(&mut plan.early_output);
        if early_bytes > 0 {
            plan.ops.push(MapOp::Hdfs(
                IoCategory::ReduceOutput,
                IoOp::write(early_bytes),
            ));
        }
        plan.ops.push(MapOp::Granule);
        plan.granules.push(per_part);
        (plan, evictions, turned_away)
    }

    /// A job whose records spell out what `map()` emits: a record is a
    /// run of `[key len][value len][key][value]` frames, possibly none.
    /// Values and states are `[count u8][tail…]`; merging adds the counts
    /// (wrapping) and keeps the longer tail, so states grow and shrink
    /// across [`opa_common::INLINE_CAP`] as they merge, and `cb()` emits
    /// early output whenever a count lands on a multiple of three.
    struct Scripted;

    fn merge_scripted(acc: &Value, other: &[u8]) -> Value {
        let a = acc.bytes();
        let count = a
            .first()
            .unwrap_or(&0)
            .wrapping_add(*other.first().unwrap_or(&0));
        let (ta, tb) = (a.get(1..).unwrap_or(&[]), other.get(1..).unwrap_or(&[]));
        Value::concat(&[&[count], if tb.len() > ta.len() { tb } else { ta }])
    }

    impl Job for Scripted {
        fn name(&self) -> &str {
            "scripted"
        }
        fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
            let mut rest = record;
            while let [klen, vlen, frame @ ..] = rest {
                let (key, frame) = frame.split_at(*klen as usize);
                let (value, frame) = frame.split_at(*vlen as usize);
                emit(key, value);
                rest = frame;
            }
        }
        fn reduce(&self, _key: &Key, _values: Vec<Value>, _ctx: &mut ReduceCtx) {
            unreachable!("only the map side runs here");
        }
        fn combiner(&self) -> Option<&dyn Combiner> {
            Some(self)
        }
        fn incremental(&self) -> Option<&dyn IncrementalReducer> {
            Some(self)
        }
        fn state_size_hint(&self) -> Option<u64> {
            Some(16)
        }
    }

    impl Combiner for Scripted {
        fn fold(&self, _key: &Key, acc: &mut Value, value: Value) {
            *acc = merge_scripted(acc, value.bytes());
        }
    }

    impl IncrementalReducer for Scripted {
        fn init(&self, _key: &Key, value: &[u8]) -> Value {
            Value::from_slice(value)
        }
        fn cb(&self, key: &Key, acc: &mut Value, other: Value, ctx: &mut ReduceCtx) {
            *acc = merge_scripted(acc, other.bytes());
            if acc.bytes()[0].is_multiple_of(3) {
                ctx.emit(key.clone(), acc.clone());
            }
        }
        fn finalize(&self, key: &Key, state: Value, ctx: &mut ReduceCtx) {
            ctx.emit(key.clone(), state);
        }
    }

    /// A seeded chunk for [`Scripted`]: `n` records of zero to five
    /// emissions over a pool of keys whose lengths straddle `INLINE_CAP`,
    /// the hot end of the pool drifting as the chunk goes on (so keys turn
    /// hot after the LFU table has filled), with value tails of 0–30 bytes.
    fn scripted_records(seed: u64, n: usize) -> Vec<Bytes> {
        const KEY_LENS: [usize; 6] = [1, 8, 21, 22, 23, 40];
        let mut rng = opa_common::rng::SplitMix64::new(seed);
        (0..n)
            .map(|i| {
                let mut rec = Vec::new();
                for _ in 0..rng.next_below(6) {
                    let id = if rng.next_below(2) == 0 {
                        (i / 8) as u64 + rng.next_below(4)
                    } else {
                        rng.next_below(60)
                    };
                    // Same-length keys differ in their last bytes only, so
                    // many share long prefixes.
                    let mut key = vec![b'k'; KEY_LENS[(id % 6) as usize]];
                    let at = key.len() - 1;
                    key[at] = (id / 6) as u8;
                    let tail = [21, 22, 23, 0, 3, 30][rng.next_below(6) as usize];
                    rec.push(key.len() as u8);
                    rec.push(1 + tail);
                    rec.extend_from_slice(&key);
                    rec.push(1);
                    rec.extend((0..tail).map(|b| b ^ id as u8));
                }
                Bytes::from(rec)
            })
            .collect()
    }

    #[test]
    fn streamed_collectors_match_the_two_pass_oracle() {
        use AdmissionPolicy::{Lfu, Off};
        let (mut evictions, mut turned_away, mut early, mut poisoned) = (0, 0, 0, 0);
        for seed in 0..40u64 {
            let recs = scripted_records(seed, 20 + (seed as usize % 5) * 40);
            let chunk_bytes: u64 = recs.iter().map(|r| r.len() as u64).sum();
            let mut spec = ClusterSpec::tiny();
            spec.cost = CostModel::paper_scaled_at(1024.0);
            // A few entries' worth, so the LFU gate is full almost at once.
            spec.hardware.map_buffer = 300;
            let h1 = opa_common::HashFamily::new(spec.hash_seed ^ seed).fn_at(0);
            let poison = (seed % 2 == 1).then_some(PoisonGate {
                faults: FaultConfig {
                    seed,
                    udf_poison_rate: 0.1,
                    ..FaultConfig::disabled()
                },
                base: seed * 1000,
            });
            for (framework, admission) in [
                (Framework::IncHash, Off),
                (Framework::DincHash, Lfu),
                (Framework::MrHash, Off),
            ] {
                let job = Scripted;
                let plan = compute_map_task(
                    &job,
                    framework,
                    &recs,
                    chunk_bytes,
                    &spec,
                    h1,
                    admission,
                    CombineScope::Task,
                    poison,
                );
                let (want, evicted, refused) = two_pass_plan(
                    &job,
                    framework,
                    &recs,
                    chunk_bytes,
                    &spec,
                    h1,
                    admission,
                    poison,
                );
                let case = format!("seed {seed} {framework:?} {admission:?}");
                assert_eq!(
                    format!("{:?}", plan.ops),
                    format!("{:?}", want.ops),
                    "{case}: ops"
                );
                // `Debug` of a batch prints its rows and the fingerprints
                // they carry.
                assert_eq!(
                    format!("{:?}", plan.granules),
                    format!("{:?}", want.granules),
                    "{case}: granules"
                );
                assert_eq!(plan.early_output, want.early_output, "{case}: early output");
                assert_eq!(plan.poisoned, want.poisoned, "{case}: poisoned");
                assert_eq!(plan.cpu, want.cpu, "{case}: cpu");
                assert_eq!(plan.output_bytes, want.output_bytes, "{case}: output bytes");
                assert_eq!(plan.spill_bytes, want.spill_bytes, "{case}: spill bytes");
                evictions += evicted;
                turned_away += refused;
                early += plan.early_output.len();
                poisoned += plan.poisoned.len();
            }
        }
        // Non-vacuity: both LFU outcomes, early output and the poison gate
        // were all exercised.
        assert!(evictions > 100, "LFU evictions: {evictions}");
        assert!(turned_away > 100, "LFU refusals: {turned_away}");
        assert!(early > 100, "early output pairs: {early}");
        assert!(poisoned > 100, "poisoned records: {poisoned}");
    }

    #[test]
    fn plans_are_pure_functions_of_their_inputs() {
        let spec = ClusterSpec::tiny();
        let job = FirstByte {
            with_combiner: true,
        };
        let recs = records(70, 8);
        let bytes: u64 = recs.iter().map(|r| r.len() as u64).sum();
        let h1 = opa_common::HashFamily::new(spec.hash_seed).fn_at(0);
        let a = compute_map_task(
            &job,
            Framework::SortMerge,
            &recs,
            bytes,
            &spec,
            h1,
            opa_common::AdmissionPolicy::Off,
            opa_common::CombineScope::Task,
            None,
        );
        let b = compute_map_task(
            &job,
            Framework::SortMerge,
            &recs,
            bytes,
            &spec,
            h1,
            opa_common::AdmissionPolicy::Off,
            opa_common::CombineScope::Task,
            None,
        );
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
