//! The layer driver: one batch job executed by calling each engine
//! layer's public functions directly, in the engine's own order, with a
//! span around every call.
//!
//! `JobBuilder::run` is a single opaque call, so from outside the engine
//! its wall time cannot be split. This driver re-creates the fault-free,
//! task-combining core of `opa_core::job::run_job` — the same event queue,
//! the same push order, the same virtual clocks — one chunk at a time:
//!
//! ```text
//! BlockStore::split → per StartMap event: compute_map_task → finish_map_task
//!                   → per Deliver burst:  ReduceSide::on_delivery (fresh ReduceEnv each),
//!                                         reducer by reducer → replay in pop order
//!                   → per reducer:        ReduceSide::finish → replay
//! ```
//!
//! It must prove it does the engine's work: the caller checks that its
//! output is bit-identical to the entry point's and that its map-output
//! bytes, shuffle bytes, reduce-spill bytes and simulated running time all
//! equal the engine's `JobMetrics`. What it
//! does *not* do — the planner, pool and gather plumbing, boxing a task per
//! mailbox, progress resampling, outcome assembly — is exactly what shows
//! up as `job.unattributed_s`.
//!
//! Plans are never materialised ahead of their event: computing every
//! plan first roughly doubles `compute` time (cache-cold payloads).

use crate::spans::Recorder;
use opa_common::units::{SimDuration, SimTime};
use opa_common::{AdmissionPolicy, CombineScope, HashFamily, Pair};
use opa_core::api::Job;
use opa_core::cluster::{ClusterSpec, Framework};
use opa_core::job::JobInput;
use opa_core::map_phase::{compute_map_task, finish_map_task, Payload};
use opa_core::progress::ProgressTracker;
use opa_core::reduce::dinc_hash::MonitorKind;
use opa_core::reduce::{make_reducer, replay, Effect, ReduceEnv, ReducerSizing, ReplayTarget};
use opa_core::sim::{EventQueue, OpKind, Resources};
use opa_simio::BlockStore;
use std::collections::VecDeque;

pub const ROOT: &str = "job.driver";
pub const SPLIT: &str = "simio.split";
pub const MAKE: &str = "reduce.make";
pub const COMPUTE: &str = "map_phase.compute";
pub const MAP_FINISH: &str = "map_phase.finish";
pub const DELIVER: &str = "reduce.deliver";
pub const REPLAY: &str = "reduce.replay";
pub const REDUCE_FINISH: &str = "reduce.finish";
pub const DROP: &str = "reduce.drop";

/// The layer spans whose totals make up attributed time.
pub const LAYER_SPANS: [&str; 8] = [
    SPLIT,
    MAKE,
    COMPUTE,
    MAP_FINISH,
    DELIVER,
    REPLAY,
    REDUCE_FINISH,
    DROP,
];

/// Counts taken at the same boundaries as the spans. All of them repeat
/// exactly from run to run: they are functions of the input alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerCounts {
    pub chunks: u64,
    pub tasks: u64,
    pub map_output_bytes: u64,
    pub shuffle_bytes: u64,
    pub deliveries: u64,
    pub effects: u64,
    pub reduce_spill_bytes: u64,
    pub output_records: u64,
    pub sim_running_time: SimTime,
}

enum Ev {
    StartMap { chunk: usize },
    Deliver { reducer: usize, payload: Payload },
}

pub fn drive(
    job: &dyn Job,
    framework: Framework,
    km_hint: f64,
    spec: &ClusterSpec,
    input: &JobInput,
    rec: &mut Recorder,
) -> (LayerCounts, Vec<Pair>) {
    let hw = &spec.hardware;
    let n_nodes = hw.nodes;
    let n_reducers = spec.total_reducers();
    assert!(
        spec.system.reducers_per_node <= hw.reduce_slots,
        "the layer driver models first-wave reducers only"
    );
    let root = rec.enter(ROOT);
    let family = HashFamily::new(spec.hash_seed);
    let h1 = family.fn_at(0);

    let s = rec.enter(SPLIT);
    let store = BlockStore::split(
        input.records.iter().map(|r| r.len() as u64),
        spec.system.chunk_size,
        n_nodes,
    );
    rec.exit(s);

    let separate_spill = spec.cost.spill_disk != spec.cost.hdfs_disk;
    let mut res = Resources::new(n_nodes, hw.map_slots.max(hw.reduce_slots), separate_spill);
    let mut progress = ProgressTracker::new(store.num_chunks() as u64);

    // Reducer sizing, derived from the job's hints exactly as the engine does.
    let expected_input = ((input.total_bytes() as f64 * km_hint) / n_reducers as f64).ceil() as u64;
    let sizing = ReducerSizing {
        expected_input,
        expected_keys: job
            .expected_keys()
            .map(|k| (k / n_reducers as u64).max(1))
            .unwrap_or(expected_input / 64),
        state_size: job.state_size_hint().unwrap_or(64),
        early_stop_coverage: None,
        monitor: MonitorKind::Frequent,
        admission: AdmissionPolicy::Off,
    };
    let s = rec.enter(MAKE);
    let mut reducers: Vec<_> = (0..n_reducers)
        .map(|_| make_reducer(framework, job, spec, sizing, &family).expect("reducer builds"))
        .collect();
    rec.exit(s);

    // Per-node FIFO of chunks; seed every node's map slots at time zero.
    let mut queue: EventQueue<Ev> = EventQueue::new();
    let mut pending: Vec<VecDeque<usize>> = vec![VecDeque::new(); n_nodes];
    for (i, c) in store.chunks().iter().enumerate() {
        pending[c.node].push_back(i);
    }
    for node_pending in &mut pending {
        for _ in 0..hw.map_slots {
            if let Some(chunk) = node_pending.pop_front() {
                queue.push(SimTime::ZERO, Ev::StartMap { chunk });
            }
        }
    }

    let mut counts = LayerCounts {
        chunks: store.num_chunks() as u64,
        tasks: 0,
        map_output_bytes: 0,
        shuffle_bytes: 0,
        deliveries: 0,
        effects: 0,
        reduce_spill_bytes: 0,
        output_records: 0,
        sim_running_time: SimTime::ZERO,
    };
    let mut output: Vec<Pair> = Vec::new();
    let mut ready_at = vec![SimTime::ZERO; n_reducers];
    let mut reduce_cpu = vec![SimDuration::ZERO; n_reducers];
    let mut spill_written = vec![0u64; n_reducers];
    let mut snapshot_bytes = vec![0u64; n_reducers];
    let mut map_finish = SimTime::ZERO;
    // Recorded, not yet replayed, effect logs per reducer.
    let mut logs: Vec<VecDeque<Vec<Effect>>> = vec![VecDeque::new(); n_reducers];

    macro_rules! target {
        ($r:expr) => {
            ReplayTarget {
                node: $r % n_nodes,
                res: &mut res,
                progress: &mut progress,
                output: &mut output,
                reduce_cpu: &mut reduce_cpu[$r],
                spill_written: &mut spill_written[$r],
                snapshot_bytes: &mut snapshot_bytes[$r],
            }
        };
    }

    while let Some((t, ev)) = queue.pop() {
        match ev {
            Ev::StartMap { chunk } => {
                let c = &store.chunks()[chunk];
                let node = c.node;
                let s = rec.enter(COMPUTE);
                let plan = compute_map_task(
                    job,
                    framework,
                    &input.records[c.range.clone()],
                    c.bytes,
                    spec,
                    h1,
                    AdmissionPolicy::Off,
                    CombineScope::Task,
                    None,
                );
                rec.exit(s);
                let s = rec.enter(MAP_FINISH);
                let result = finish_map_task(plan, node, t, spec, &mut res);
                rec.exit(s);
                counts.tasks += 1;
                counts.map_output_bytes += result.output_bytes;
                map_finish = map_finish.max(result.finish);
                progress.map_done(result.finish);
                if !result.early_output.is_empty() {
                    let bytes: u64 = result.early_output.iter().map(Pair::size).sum();
                    progress.emitted(result.finish, bytes);
                    output.extend(result.early_output);
                }
                for granule in result.granules {
                    for (reducer, payload) in granule.partitions.into_iter().enumerate() {
                        if payload.is_empty() {
                            continue;
                        }
                        counts.shuffle_bytes += payload.bytes();
                        let arrival = granule.time + spec.cost.net_time(payload.bytes());
                        res.span(node, OpKind::Shuffle, granule.time, arrival);
                        queue.push(arrival, Ev::Deliver { reducer, payload });
                    }
                }
                if let Some(next) = pending[node].pop_front() {
                    queue.push(result.finish, Ev::StartMap { chunk: next });
                }
            }
            Ev::Deliver { reducer, payload } => {
                // Like the engine, drain the maximal run of consecutive
                // deliveries and record it reducer by reducer — a reducer
                // absorbs its whole mailbox back to back, while its state
                // is hot — then replay the logs in pop order. Processing a
                // delivery schedules no event, so the pop order is
                // unchanged.
                let mut burst = vec![(t, reducer, payload)];
                while matches!(queue.peek(), Some((_, Ev::Deliver { .. }))) {
                    if let Some((t2, Ev::Deliver { reducer, payload })) = queue.pop() {
                        burst.push((t2, reducer, payload));
                    }
                }
                let mut order: Vec<(usize, SimTime)> = Vec::with_capacity(burst.len());
                let mut mailboxes: Vec<(usize, Vec<Payload>)> = Vec::new();
                for (t_ev, r, payload) in burst {
                    order.push((r, t_ev));
                    match mailboxes.iter_mut().find(|(owner, _)| *owner == r) {
                        Some((_, items)) => items.push(payload),
                        None => mailboxes.push((r, vec![payload])),
                    }
                }
                for (r, items) in mailboxes {
                    let mut te = ready_at[r];
                    for payload in items {
                        let mut env = ReduceEnv::new(spec);
                        let s = rec.enter(DELIVER);
                        te = reducers[r].on_delivery(te, payload, &mut env);
                        rec.exit(s);
                        logs[r].push_back(env.into_log());
                    }
                }
                for (r, t_ev) in order {
                    let log = logs[r].pop_front().expect("one log per delivery");
                    counts.deliveries += 1;
                    counts.effects += log.len() as u64;
                    let t0 = ready_at[r].max(t_ev);
                    let s = rec.enter(REPLAY);
                    ready_at[r] = replay(log, t0, spec, target!(r));
                    rec.exit(s);
                }
            }
        }
    }

    let mut end = map_finish;
    for r in 0..n_reducers {
        let t0 = ready_at[r].max(map_finish);
        let mut env = ReduceEnv::new(spec);
        let s = rec.enter(REDUCE_FINISH);
        reducers[r].finish(t0, &mut env);
        rec.exit(s);
        let log = env.into_log();
        counts.effects += log.len() as u64;
        let s = rec.enter(REPLAY);
        end = end.max(replay(log, t0, spec, target!(r)));
        rec.exit(s);
    }
    // The engine frees its reducers before `run` returns; so does the driver.
    let s = rec.enter(DROP);
    drop(reducers);
    rec.exit(s);
    rec.exit(root);
    counts.reduce_spill_bytes = spill_written.iter().sum();
    counts.output_records = output.len() as u64;
    counts.sim_running_time = end;
    (counts, output)
}
