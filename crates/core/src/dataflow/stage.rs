//! The shuffle-skip stage executor.
//!
//! When a chained stage's input [`Dataset`] is already bucketed by the
//! partition function the stage would shuffle to *and* the job declares
//! [`Job::partition_preserving`], the reshuffle is pure waste: every
//! record a colocated map task emits lands back on the partition it came
//! from. This executor runs that case M3R-style — one map task per
//! resident partition feeding that partition's reducer directly, with the
//! HDFS chunk read and the map-output materialization stripped from the
//! plans ([`MapTaskPlan::strip_materialization`]) and no network transfer
//! charged.
//!
//! The claim is *verified*, not trusted: after each map task finishes,
//! any payload bound for a foreign partition is a hard error. A job that
//! wrongly declares itself partition-preserving fails loudly instead of
//! silently splitting key groups.
//!
//! Determinism: plan computation is pure and runs on the worker pool;
//! everything that touches shared simulation state — replaying plans,
//! feeding reducers, replaying effect logs — happens on the calling
//! thread in strict partition order. A chained stage's `JobOutcome` is
//! therefore bit-identical at any thread count by construction.

use super::dataset::Dataset;
use crate::api::Job;
use crate::cluster::{ClusterSpec, Framework};
use crate::exec::{Gather, Pool};
use crate::job::JobOutcome;
use crate::map_phase::{compute_map_task, finish_map_task, MapTaskPlan};
use crate::metrics::JobMetrics;
use crate::progress::{ProgressTracker, PROGRESS_POINTS};
use crate::reduce::{make_reducer, replay, ReduceEnv, ReducerSizing, ReplayTarget};
use crate::sim::Resources;
use opa_common::units::{SimDuration, SimTime};
use opa_common::{Error, ExecConfig, HashFamily, Pair, Result};
use opa_trace::TraceEvent;

/// Runs one partition-preserving stage over a resident dataset without a
/// shuffle. Returns the stage's outcome plus the map-output byte volume
/// the skipped materialization would have written (`bytes_saved`).
///
/// The caller is responsible for the *compatibility* decision (partition
/// spec equality, `partition_preserving`, fingerprint verification); this
/// function enforces the *safety* half — it errors if any map task emits
/// across partitions.
pub(crate) fn run_chained_stage(
    job: &(dyn Job + Send + Sync),
    framework: Framework,
    spec: &ClusterSpec,
    exec: ExecConfig,
    input: &Dataset,
    trace: bool,
) -> Result<(JobOutcome, u64)> {
    spec.validate()?;
    exec.validate()?;
    if input.is_empty() {
        return Err(Error::job("chained stage input dataset is empty"));
    }
    let n_partitions = input.spec().partitions;
    if n_partitions != spec.total_reducers() {
        return Err(Error::job(format!(
            "chained stage requires the dataset partition count ({}) to \
             match the cluster's total reducers ({})",
            n_partitions,
            spec.total_reducers()
        )));
    }
    let hw = &spec.hardware;
    let n_nodes = hw.nodes;
    let family = HashFamily::new(spec.hash_seed);
    let h1 = family.fn_at(0);
    let input_bytes = input.record_bytes();

    let workers = exec.effective_threads().saturating_sub(1);
    let live: Vec<usize> = (0..n_partitions)
        .filter(|&p| !input.partition(p).is_empty())
        .collect();

    // Phase A — pure plan computation, one map task per resident
    // partition, parallel on the pool. `strip_materialization` runs here
    // too (it is part of the pure plan transform): the HDFS chunk read
    // and map-output write vanish, and the forgone shuffle volume comes
    // back as this stage's savings.
    let plans: Vec<(MapTaskPlan, u64)> = std::thread::scope(|scope| {
        let pool = Pool::new(scope, workers);
        let gather = Gather::new(live.len());
        let mut batch: Vec<crate::exec::Task<'_>> = Vec::with_capacity(live.len());
        let mut last: Option<crate::exec::Task<'_>> = None;
        for (slot, &p) in live.iter().enumerate() {
            let records = input.partition_records(p);
            let chunk_bytes: u64 = records.iter().map(|r| r.len() as u64).sum();
            let g = gather.clone();
            let task: crate::exec::Task<'_> = Box::new(move || {
                let mut plan = compute_map_task(
                    job,
                    framework,
                    &records,
                    chunk_bytes,
                    spec,
                    h1,
                    opa_common::AdmissionPolicy::Off,
                    opa_common::CombineScope::Task,
                    None,
                );
                let saved = plan.strip_materialization();
                g.put(slot, (plan, saved));
            });
            if slot + 1 == live.len() {
                last = Some(task);
            } else {
                batch.push(task);
            }
        }
        pool.submit_batch(batch);
        if let Some(task) = last {
            task();
        }
        gather.wait(&pool)
    });

    // Phase B — sequential accounting and reduction, in partition order.
    let separate_spill = spec.cost.spill_disk != spec.cost.hdfs_disk;
    let mut res = Resources::new(n_nodes, hw.map_slots.max(hw.reduce_slots), separate_spill);
    if trace {
        res.enable_trace();
    }
    let mut progress = ProgressTracker::new(live.len() as u64);

    // `K_m` hint 1.0, `RunConfig`'s default: what the engine path sizes by.
    let sizing = ReducerSizing::from_hints(job, input_bytes, 1.0, n_partitions);

    let mut output: Vec<Pair> = Vec::new();
    let mut map_cpu = SimDuration::ZERO;
    let mut reduce_cpu_total = SimDuration::ZERO;
    let mut map_spill_bytes = 0u64;
    let mut reduce_spill_bytes = 0u64;
    let mut snapshot_bytes = 0u64;
    let mut bytes_saved = 0u64;
    let mut map_finish = SimTime::ZERO;
    let mut end = SimTime::ZERO;

    for (&p, (plan, saved)) in live.iter().zip(plans) {
        let node = p % n_nodes;
        bytes_saved += saved;
        res.emit(TraceEvent::MapStart {
            t: 0,
            chunk: p as u32,
            attempt: 0,
            node: node as u32,
        });
        let result = finish_map_task(plan, node, SimTime::ZERO, spec, &mut res);
        res.emit(TraceEvent::MapFinish {
            t0: 0,
            t: result.finish.0,
            chunk: p as u32,
            node: node as u32,
            cpu: result.cpu.0,
            output_bytes: result.output_bytes,
            spill_bytes: result.spill_bytes,
        });
        map_cpu += result.cpu;
        map_spill_bytes += result.spill_bytes;
        map_finish = map_finish.max(result.finish);
        progress.map_done(result.finish);
        if !result.early_output.is_empty() {
            let bytes: u64 = result.early_output.iter().map(Pair::size).sum();
            progress.emitted(result.finish, bytes);
            output.extend(result.early_output);
        }

        // Safety check: a partition-preserving map over partition `p`'s
        // records must emit only to partition `p`.
        let mut payloads = Vec::with_capacity(result.granules.len());
        for granule in result.granules {
            for (q, payload) in granule.partitions.into_iter().enumerate() {
                if payload.is_empty() {
                    continue;
                }
                if q != p {
                    return Err(Error::job(format!(
                        "job '{}' declared partition_preserving but its map \
                         emitted {} bytes from partition {p} to partition \
                         {q}; the shuffle-skip handoff would mis-group keys",
                        job.name(),
                        payload.bytes()
                    )));
                }
                payloads.push(payload);
            }
        }

        // The colocated reducer absorbs the task's payloads directly —
        // no network hop, no map-output disk round trip. The recording
        // env's clock estimate never influences data decisions, so
        // recording everything in one log and replaying from the map
        // finish time is exact.
        let mut reducer = make_reducer(framework, job, spec, sizing, &family)?;
        let mut env = ReduceEnv::new(spec);
        let mut te = result.finish;
        let mut shuffled = 0u64;
        for payload in payloads {
            shuffled += payload.bytes();
            te = reducer.on_delivery(te, payload, &mut env);
        }
        env.shuffled(te, shuffled);
        reducer.finish(te, &mut env);
        let mut reduce_cpu = SimDuration::ZERO;
        let done = replay(
            env.into_log(),
            result.finish,
            spec,
            ReplayTarget {
                node,
                res: &mut res,
                progress: &mut progress,
                output: &mut output,
                reduce_cpu: &mut reduce_cpu,
                spill_written: &mut reduce_spill_bytes,
                snapshot_bytes: &mut snapshot_bytes,
            },
        );
        reduce_cpu_total += reduce_cpu;
        res.emit(TraceEvent::ReduceFinish {
            t: done.0,
            reducer: p as u32,
            node: node as u32,
        });
        end = end.max(done);
    }

    let output_bytes: u64 = output.iter().map(Pair::size).sum();
    let metrics = JobMetrics {
        framework: framework.label().to_string(),
        job: job.name().to_string(),
        running_time: end,
        map_finish,
        input_bytes,
        // The defining property of the skip path: no map output was
        // materialized, so the stage contributes zero shuffle volume.
        map_output_bytes: 0,
        map_spill_bytes,
        reduce_spill_bytes,
        output_bytes,
        snapshot_bytes,
        output_records: output.len() as u64,
        map_cpu_per_node: SimDuration(map_cpu.0 / n_nodes as u64),
        reduce_cpu_per_node: SimDuration(reduce_cpu_total.0 / n_nodes as u64),
        io: res.io.clone(),
        io_recovery: res.io_recovery.clone(),
        dinc: None,
        admission: None,
        faults: None,
        // Shuffle-skip: nothing crossed the simulated network.
        shuffle_bytes: 0,
        node_combine: None,
    };
    let trace_log = res.take_trace();
    Ok((
        JobOutcome {
            metrics,
            progress: progress.finish(end, PROGRESS_POINTS),
            timeline: std::mem::take(&mut res.timeline),
            usage: res.usage,
            output,
            trace: trace_log,
            dlq: Vec::new(),
        },
        bytes_saved,
    ))
}
