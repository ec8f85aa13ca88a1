//! The trace event vocabulary and its JSONL encoding.
//!
//! Every event carries virtual timestamps in **microseconds** (the
//! engine's [`opa_common::units::SimTime`] resolution). Events are
//! emitted by the *scheduling* layer only, in strict event order, so a
//! trace is bit-identical at any execution-layer thread count — the same
//! determinism contract the engine gives for
//! [`JobOutcome`](../opa_core/job/struct.JobOutcome.html)s.
//!
//! The on-disk format is JSON Lines: one event per line, fixed field
//! order, integer values only (no floats), which makes traces directly
//! diffable and safely pinnable by checksum.

use crate::json::JsonValue;
use opa_common::fault::FaultKind;
use opa_common::{Error, Result};
use opa_simio::IoCategory;

/// Timeline operation classes, mirroring the engine's task timeline
/// (`opa_core::sim::OpKind`) without depending on `opa-core`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// A map task (includes its sort).
    Map,
    /// A shuffle transfer.
    Shuffle,
    /// A background (multi-pass) merge.
    Merge,
    /// Final-merge + reduce-function work, or hash-side reduce work.
    Reduce,
}

impl SpanKind {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Map => "map",
            SpanKind::Shuffle => "shuffle",
            SpanKind::Merge => "merge",
            SpanKind::Reduce => "reduce",
        }
    }

    fn parse(s: &str) -> Result<Self> {
        Ok(match s {
            "map" => SpanKind::Map,
            "shuffle" => SpanKind::Shuffle,
            "merge" => SpanKind::Merge,
            "reduce" => SpanKind::Reduce,
            other => return Err(Error::job(format!("unknown span kind '{other}'"))),
        })
    }
}

/// Stable wire label for an I/O category (`u1`…`u5`, Table 2 order).
pub fn io_category_label(cat: IoCategory) -> &'static str {
    match cat {
        IoCategory::MapInput => "u1",
        IoCategory::MapSpill => "u2",
        IoCategory::MapOutput => "u3",
        IoCategory::ReduceSpill => "u4",
        IoCategory::ReduceOutput => "u5",
    }
}

fn parse_io_category(s: &str) -> Result<IoCategory> {
    Ok(match s {
        "u1" => IoCategory::MapInput,
        "u2" => IoCategory::MapSpill,
        "u3" => IoCategory::MapOutput,
        "u4" => IoCategory::ReduceSpill,
        "u5" => IoCategory::ReduceOutput,
        other => return Err(Error::job(format!("unknown I/O category '{other}'"))),
    })
}

/// Stable wire label for a fault kind.
pub fn fault_kind_label(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::MapFailure => "map_failure",
        FaultKind::Straggler => "straggler",
        FaultKind::ReduceFailure => "reduce_failure",
        FaultKind::SpillError => "spill_error",
        FaultKind::UdfPoison => "udf_poison",
    }
}

fn parse_fault_kind(s: &str) -> Result<FaultKind> {
    Ok(match s {
        "map_failure" => FaultKind::MapFailure,
        "straggler" => FaultKind::Straggler,
        "reduce_failure" => FaultKind::ReduceFailure,
        "spill_error" => FaultKind::SpillError,
        "udf_poison" => FaultKind::UdfPoison,
        other => return Err(Error::job(format!("unknown fault kind '{other}'"))),
    })
}

/// Lifecycle states of a job inside the `opa serve` scheduler, carried by
/// [`TraceEvent::ServeJob`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServeJobState {
    /// The job passed admission and entered the queue.
    Admitted,
    /// Rejected: its tenant already holds its concurrent-job quota and the
    /// queue policy refuses to hold more for it.
    RejectedQuota,
    /// Rejected: the server-wide queue is at capacity (backpressure).
    RejectedQueue,
    /// The job left the queue and began running on a slot.
    Started,
    /// The job completed and its outcome was stored.
    Finished,
    /// The job failed with an error (configuration or input).
    Failed,
}

impl ServeJobState {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            ServeJobState::Admitted => "admitted",
            ServeJobState::RejectedQuota => "rejected_quota",
            ServeJobState::RejectedQueue => "rejected_queue",
            ServeJobState::Started => "started",
            ServeJobState::Finished => "finished",
            ServeJobState::Failed => "failed",
        }
    }

    fn parse(s: &str) -> Result<Self> {
        Ok(match s {
            "admitted" => ServeJobState::Admitted,
            "rejected_quota" => ServeJobState::RejectedQuota,
            "rejected_queue" => ServeJobState::RejectedQueue,
            "started" => ServeJobState::Started,
            "finished" => ServeJobState::Finished,
            "failed" => ServeJobState::Failed,
            other => return Err(Error::job(format!("unknown serve job state '{other}'"))),
        })
    }
}

/// One structured simulation event. See `OBSERVABILITY.md` at the
/// repository root for the glossary mapping every variant and field to
/// the paper quantity it measures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A map-task attempt was dispatched to a node's map slot.
    MapStart {
        /// Dispatch time (µs).
        t: u64,
        /// Input chunk index.
        chunk: u32,
        /// Attempt number (0 = first execution; retries count up).
        attempt: u32,
        /// Hosting node.
        node: u32,
    },
    /// A map-task attempt committed its output.
    MapFinish {
        /// Dispatch time (µs).
        t0: u64,
        /// Commit time (µs).
        t: u64,
        /// Input chunk index.
        chunk: u32,
        /// Hosting node.
        node: u32,
        /// CPU charged to the task (µs).
        cpu: u64,
        /// Map output bytes produced (shuffle volume; `K_m·C` per task).
        output_bytes: u64,
        /// Map-side internal spill bytes written (`U_2` contribution).
        spill_bytes: u64,
    },
    /// One per-reducer shuffle payload travelled over the network.
    Shuffle {
        /// Departure from the mapper (µs).
        t0: u64,
        /// Arrival at the reducer (µs).
        t: u64,
        /// Source node.
        from_node: u32,
        /// Destination reducer index.
        reducer: u32,
        /// Payload bytes.
        bytes: u64,
    },
    /// A node's pre-shuffle staging table flushed under
    /// `CombineScope::Node`: the cross-task combined rows were rebuilt
    /// into per-reducer payloads and booked on the network. Emitted only
    /// under node scope, so off/task traces stay byte-identical to the
    /// pinned vocabulary.
    NodeCombine {
        /// Flush start (µs).
        t0: u64,
        /// Flush end — when the merge CPU charge finished and the
        /// transfers departed (µs).
        t: u64,
        /// Node whose staging table flushed.
        node: u32,
        /// Pre-combine bytes offered to the table since its last flush.
        bytes_in: u64,
        /// Post-combine bytes the flush shipped.
        bytes_out: u64,
        /// Distinct staged rows (keys) the flush shipped.
        keys: u64,
    },
    /// A device operation on a node's disk queue (every simulated read
    /// or write; seeks count discrete sequential requests, Prop 3.2's
    /// `S`).
    Io {
        /// Queue-granted start (µs).
        t0: u64,
        /// Completion (µs).
        t: u64,
        /// Node whose device served the operation.
        node: u32,
        /// Table 2 category (`U_1`…`U_5`).
        cat: IoCategory,
        /// Bytes read.
        read: u64,
        /// Bytes written.
        written: u64,
        /// Discrete sequential requests issued.
        seeks: u64,
        /// Whether this operation re-does work lost to a fault (recovery
        /// re-replay). Recovery traffic is excluded from first-pass
        /// rollups — the model predicts fault-free executions.
        recovery: bool,
    },
    /// A closed task-timeline interval (map task, merge pass, shuffle
    /// transfer, reduce work) — the Fig 2(a) lanes.
    Span {
        /// Interval start (µs).
        t0: u64,
        /// Interval end (µs).
        t: u64,
        /// Node the interval ran on.
        node: u32,
        /// Operation class.
        kind: SpanKind,
    },
    /// A fault-injection decision fired.
    Fault {
        /// Decision time (µs).
        t: u64,
        /// Fault class.
        kind: FaultKind,
        /// Chunk index (map faults) or reducer index (reduce faults).
        target: u64,
        /// Attempt the fault hit.
        attempt: u32,
    },
    /// A recovery retry was scheduled after a fault (backoff included).
    Retry {
        /// Scheduled restart time (µs).
        t: u64,
        /// The fault class being recovered from.
        kind: FaultKind,
        /// Chunk index (map faults) or reducer index (reduce faults).
        target: u64,
        /// Attempt number of the retry.
        attempt: u32,
    },
    /// A second-wave reduce task started (wave-one reducers start at
    /// time zero and emit no explicit start event).
    ReduceStart {
        /// Start time (µs).
        t: u64,
        /// Reducer index.
        reducer: u32,
        /// Hosting node.
        node: u32,
    },
    /// A reduce task finished (final merge + reduce function complete).
    ReduceFinish {
        /// Completion time (µs).
        t: u64,
        /// Reducer index.
        reducer: u32,
        /// Hosting node.
        node: u32,
    },
    /// A streaming micro-batch sealed: every shuffle delivery from the
    /// batch's own chunks has been absorbed (`opa-stream`).
    BatchSeal {
        /// Seal time (µs).
        t: u64,
        /// 1-based index of the sealed batch.
        batch: u32,
        /// Total configured batches `k`.
        batches: u32,
        /// Arrival-ordered records covered by the sealed prefix (a
        /// watermark lower bound).
        records: u64,
    },
    /// A stream checkpoint file was written at a seal point.
    Checkpoint {
        /// Checkpoint time (µs).
        t: u64,
        /// Batch the checkpoint covers.
        batch: u32,
        /// Serialized checkpoint size in bytes.
        bytes: u64,
    },
    /// One reducer's frequency-gated admission summary, emitted right
    /// after its `reduce_finish` — only when the LFU admission policy is
    /// on, so admission-off traces stay byte-identical to the pinned
    /// vocabulary.
    Admission {
        /// Completion time (µs), matching the reducer's finish event.
        t: u64,
        /// Reducer index.
        reducer: u32,
        /// Tuples offered to the reducer's table.
        offered: u64,
        /// Tuples absorbed into resident in-memory state.
        absorbed: u64,
        /// Evict-and-admit decisions taken.
        evictions: u64,
        /// Arrivals denied admission and spilled.
        rejected: u64,
    },
    /// A map UDF rejected one input record; the record was quarantined to
    /// the dead-letter queue with full provenance instead of failing the
    /// task.
    Poison {
        /// Commit time of the chunk the record belonged to (µs).
        t: u64,
        /// Map chunk (task) index.
        chunk: u32,
        /// The record's global input offset.
        offset: u64,
        /// The map-task attempt that committed the chunk.
        attempt: u32,
    },
    /// A job's lifecycle transition inside the `opa serve` scheduler.
    /// Tenant and job identity are carried on every serving-layer event
    /// so multi-tenant traces can be filtered per tenant.
    ServeJob {
        /// Scheduler round at which the transition happened (serving-layer
        /// events use round counters, not virtual µs — the server
        /// interleaves jobs whose virtual clocks are independent).
        t: u64,
        /// Tenant index (interned registration order).
        tenant: u32,
        /// Server-assigned job id.
        job: u32,
        /// The lifecycle transition.
        state: ServeJobState,
    },
    /// The `opa serve` scheduler granted one job its next wave (a
    /// micro-batch of engine progress); grants within a round are issued
    /// in admission order, which is what makes interleaving deterministic.
    WaveGrant {
        /// Scheduler round of the grant.
        t: u64,
        /// Tenant index.
        tenant: u32,
        /// Server-assigned job id.
        job: u32,
        /// 1-based wave (micro-batch) number granted.
        wave: u32,
    },
    /// A dead-letter-queue replay was executed for one finished job.
    DlqReplay {
        /// Scheduler round of the replay.
        t: u64,
        /// Tenant index.
        tenant: u32,
        /// Server-assigned job id.
        job: u32,
        /// Quarantined entries the replay covered.
        entries: u64,
    },
    /// A dataflow stage began consuming its input. Dataflow-level events
    /// carry the stage index as `t` (each stage's engine run has its own
    /// virtual clock, so chain-level events use ordinal time, like the
    /// serving layer's round counters).
    StageStart {
        /// Stage index within the chain (doubles as the event time).
        t: u64,
        /// Stage index within the chain.
        stage: u32,
        /// Input records entering this stage's map phase.
        records: u64,
        /// Input bytes entering this stage's map phase.
        bytes: u64,
    },
    /// One stage's output was handed to the next stage, with the exchange
    /// path taken: `reshuffled = 0` is the in-memory partition-stable
    /// handoff, `1` means the dataset crossed a real shuffle (engine run
    /// over re-encoded records).
    StageHandoff {
        /// Stage index of the *producing* stage (and the event time).
        t: u64,
        /// Stage index of the producing stage.
        stage: u32,
        /// Records handed to the next stage.
        records: u64,
        /// Bytes handed to the next stage.
        bytes: u64,
        /// Whether the handoff crossed a real shuffle.
        reshuffled: bool,
    },
    /// The partition-compatibility check passed for a stage, so its
    /// shuffle was skipped outright: the carried h1 fingerprints proved
    /// every record already sits on its reducer's partition and the map
    /// is declared partition-preserving.
    ReshuffleSkipped {
        /// Stage index whose shuffle was skipped (and the event time).
        t: u64,
        /// Stage index whose shuffle was skipped.
        stage: u32,
        /// Map-output bytes that would have crossed the network had the
        /// stage reshuffled.
        bytes_saved: u64,
    },
}

impl TraceEvent {
    /// The event's stable wire label (the JSONL `ev` field).
    pub fn label(&self) -> &'static str {
        match self {
            TraceEvent::MapStart { .. } => "map_start",
            TraceEvent::MapFinish { .. } => "map_finish",
            TraceEvent::Shuffle { .. } => "shuffle",
            TraceEvent::NodeCombine { .. } => "node_combine",
            TraceEvent::Io { .. } => "io",
            TraceEvent::Span { .. } => "span",
            TraceEvent::Fault { .. } => "fault",
            TraceEvent::Retry { .. } => "retry",
            TraceEvent::ReduceStart { .. } => "reduce_start",
            TraceEvent::ReduceFinish { .. } => "reduce_finish",
            TraceEvent::BatchSeal { .. } => "batch_seal",
            TraceEvent::Checkpoint { .. } => "checkpoint",
            TraceEvent::Admission { .. } => "admission",
            TraceEvent::Poison { .. } => "poison",
            TraceEvent::ServeJob { .. } => "serve_job",
            TraceEvent::WaveGrant { .. } => "wave_grant",
            TraceEvent::DlqReplay { .. } => "dlq_replay",
            TraceEvent::StageStart { .. } => "stage_start",
            TraceEvent::StageHandoff { .. } => "stage_handoff",
            TraceEvent::ReshuffleSkipped { .. } => "reshuffle_skipped",
        }
    }

    /// The event's occurrence time in microseconds (for intervals, the
    /// end time).
    pub fn time(&self) -> u64 {
        match *self {
            TraceEvent::MapStart { t, .. }
            | TraceEvent::MapFinish { t, .. }
            | TraceEvent::Shuffle { t, .. }
            | TraceEvent::NodeCombine { t, .. }
            | TraceEvent::Io { t, .. }
            | TraceEvent::Span { t, .. }
            | TraceEvent::Fault { t, .. }
            | TraceEvent::Retry { t, .. }
            | TraceEvent::ReduceStart { t, .. }
            | TraceEvent::ReduceFinish { t, .. }
            | TraceEvent::BatchSeal { t, .. }
            | TraceEvent::Checkpoint { t, .. }
            | TraceEvent::Admission { t, .. }
            | TraceEvent::Poison { t, .. }
            | TraceEvent::ServeJob { t, .. }
            | TraceEvent::WaveGrant { t, .. }
            | TraceEvent::DlqReplay { t, .. }
            | TraceEvent::StageStart { t, .. }
            | TraceEvent::StageHandoff { t, .. }
            | TraceEvent::ReshuffleSkipped { t, .. } => t,
        }
    }

    /// Serializes the event as one JSON line (no trailing newline).
    /// Field order is fixed, values are integers or short enum strings —
    /// byte-stable across runs.
    pub fn to_json(&self) -> String {
        match *self {
            TraceEvent::MapStart {
                t,
                chunk,
                attempt,
                node,
            } => format!(
                "{{\"ev\":\"map_start\",\"t\":{t},\"chunk\":{chunk},\"attempt\":{attempt},\"node\":{node}}}"
            ),
            TraceEvent::MapFinish {
                t0,
                t,
                chunk,
                node,
                cpu,
                output_bytes,
                spill_bytes,
            } => format!(
                "{{\"ev\":\"map_finish\",\"t0\":{t0},\"t\":{t},\"chunk\":{chunk},\"node\":{node},\"cpu\":{cpu},\"output_bytes\":{output_bytes},\"spill_bytes\":{spill_bytes}}}"
            ),
            TraceEvent::Shuffle {
                t0,
                t,
                from_node,
                reducer,
                bytes,
            } => format!(
                "{{\"ev\":\"shuffle\",\"t0\":{t0},\"t\":{t},\"from_node\":{from_node},\"reducer\":{reducer},\"bytes\":{bytes}}}"
            ),
            TraceEvent::NodeCombine {
                t0,
                t,
                node,
                bytes_in,
                bytes_out,
                keys,
            } => format!(
                "{{\"ev\":\"node_combine\",\"t0\":{t0},\"t\":{t},\"node\":{node},\"bytes_in\":{bytes_in},\"bytes_out\":{bytes_out},\"keys\":{keys}}}"
            ),
            TraceEvent::Io {
                t0,
                t,
                node,
                cat,
                read,
                written,
                seeks,
                recovery,
            } => format!(
                "{{\"ev\":\"io\",\"t0\":{t0},\"t\":{t},\"node\":{node},\"cat\":\"{}\",\"read\":{read},\"written\":{written},\"seeks\":{seeks},\"recovery\":{}}}",
                io_category_label(cat),
                u8::from(recovery),
            ),
            TraceEvent::Span { t0, t, node, kind } => format!(
                "{{\"ev\":\"span\",\"t0\":{t0},\"t\":{t},\"node\":{node},\"kind\":\"{}\"}}",
                kind.label()
            ),
            TraceEvent::Fault {
                t,
                kind,
                target,
                attempt,
            } => format!(
                "{{\"ev\":\"fault\",\"t\":{t},\"kind\":\"{}\",\"target\":{target},\"attempt\":{attempt}}}",
                fault_kind_label(kind)
            ),
            TraceEvent::Retry {
                t,
                kind,
                target,
                attempt,
            } => format!(
                "{{\"ev\":\"retry\",\"t\":{t},\"kind\":\"{}\",\"target\":{target},\"attempt\":{attempt}}}",
                fault_kind_label(kind)
            ),
            TraceEvent::ReduceStart { t, reducer, node } => format!(
                "{{\"ev\":\"reduce_start\",\"t\":{t},\"reducer\":{reducer},\"node\":{node}}}"
            ),
            TraceEvent::ReduceFinish { t, reducer, node } => format!(
                "{{\"ev\":\"reduce_finish\",\"t\":{t},\"reducer\":{reducer},\"node\":{node}}}"
            ),
            TraceEvent::BatchSeal {
                t,
                batch,
                batches,
                records,
            } => format!(
                "{{\"ev\":\"batch_seal\",\"t\":{t},\"batch\":{batch},\"batches\":{batches},\"records\":{records}}}"
            ),
            TraceEvent::Checkpoint { t, batch, bytes } => {
                format!("{{\"ev\":\"checkpoint\",\"t\":{t},\"batch\":{batch},\"bytes\":{bytes}}}")
            }
            TraceEvent::Admission {
                t,
                reducer,
                offered,
                absorbed,
                evictions,
                rejected,
            } => format!(
                "{{\"ev\":\"admission\",\"t\":{t},\"reducer\":{reducer},\"offered\":{offered},\"absorbed\":{absorbed},\"evictions\":{evictions},\"rejected\":{rejected}}}"
            ),
            TraceEvent::Poison {
                t,
                chunk,
                offset,
                attempt,
            } => format!(
                "{{\"ev\":\"poison\",\"t\":{t},\"chunk\":{chunk},\"offset\":{offset},\"attempt\":{attempt}}}"
            ),
            TraceEvent::ServeJob {
                t,
                tenant,
                job,
                state,
            } => format!(
                "{{\"ev\":\"serve_job\",\"t\":{t},\"tenant\":{tenant},\"job\":{job},\"state\":\"{}\"}}",
                state.label()
            ),
            TraceEvent::WaveGrant {
                t,
                tenant,
                job,
                wave,
            } => format!(
                "{{\"ev\":\"wave_grant\",\"t\":{t},\"tenant\":{tenant},\"job\":{job},\"wave\":{wave}}}"
            ),
            TraceEvent::DlqReplay {
                t,
                tenant,
                job,
                entries,
            } => format!(
                "{{\"ev\":\"dlq_replay\",\"t\":{t},\"tenant\":{tenant},\"job\":{job},\"entries\":{entries}}}"
            ),
            TraceEvent::StageStart {
                t,
                stage,
                records,
                bytes,
            } => format!(
                "{{\"ev\":\"stage_start\",\"t\":{t},\"stage\":{stage},\"records\":{records},\"bytes\":{bytes}}}"
            ),
            TraceEvent::StageHandoff {
                t,
                stage,
                records,
                bytes,
                reshuffled,
            } => format!(
                "{{\"ev\":\"stage_handoff\",\"t\":{t},\"stage\":{stage},\"records\":{records},\"bytes\":{bytes},\"reshuffled\":{}}}",
                u8::from(reshuffled),
            ),
            TraceEvent::ReshuffleSkipped {
                t,
                stage,
                bytes_saved,
            } => format!(
                "{{\"ev\":\"reshuffle_skipped\",\"t\":{t},\"stage\":{stage},\"bytes_saved\":{bytes_saved}}}"
            ),
        }
    }

    /// Parses one JSONL line back into an event.
    pub fn from_json(line: &str) -> Result<TraceEvent> {
        let obj = JsonValue::parse(line)?;
        let ev = obj.str_field("ev")?;
        let t = |k: &str| obj.u64_field(k);
        let u32f = |k: &str| {
            u32::try_from(obj.u64_field(k)?)
                .map_err(|_| Error::job(format!("field '{k}' does not fit 32 bits")))
        };
        Ok(match ev {
            "map_start" => TraceEvent::MapStart {
                t: t("t")?,
                chunk: u32f("chunk")?,
                attempt: u32f("attempt")?,
                node: u32f("node")?,
            },
            "map_finish" => TraceEvent::MapFinish {
                t0: t("t0")?,
                t: t("t")?,
                chunk: u32f("chunk")?,
                node: u32f("node")?,
                cpu: t("cpu")?,
                output_bytes: t("output_bytes")?,
                spill_bytes: t("spill_bytes")?,
            },
            "shuffle" => TraceEvent::Shuffle {
                t0: t("t0")?,
                t: t("t")?,
                from_node: u32f("from_node")?,
                reducer: u32f("reducer")?,
                bytes: t("bytes")?,
            },
            "node_combine" => TraceEvent::NodeCombine {
                t0: t("t0")?,
                t: t("t")?,
                node: u32f("node")?,
                bytes_in: t("bytes_in")?,
                bytes_out: t("bytes_out")?,
                keys: t("keys")?,
            },
            "io" => TraceEvent::Io {
                t0: t("t0")?,
                t: t("t")?,
                node: u32f("node")?,
                cat: parse_io_category(obj.str_field("cat")?)?,
                read: t("read")?,
                written: t("written")?,
                seeks: t("seeks")?,
                recovery: t("recovery")? != 0,
            },
            "span" => TraceEvent::Span {
                t0: t("t0")?,
                t: t("t")?,
                node: u32f("node")?,
                kind: SpanKind::parse(obj.str_field("kind")?)?,
            },
            "fault" => TraceEvent::Fault {
                t: t("t")?,
                kind: parse_fault_kind(obj.str_field("kind")?)?,
                target: t("target")?,
                attempt: u32f("attempt")?,
            },
            "retry" => TraceEvent::Retry {
                t: t("t")?,
                kind: parse_fault_kind(obj.str_field("kind")?)?,
                target: t("target")?,
                attempt: u32f("attempt")?,
            },
            "reduce_start" => TraceEvent::ReduceStart {
                t: t("t")?,
                reducer: u32f("reducer")?,
                node: u32f("node")?,
            },
            "reduce_finish" => TraceEvent::ReduceFinish {
                t: t("t")?,
                reducer: u32f("reducer")?,
                node: u32f("node")?,
            },
            "batch_seal" => TraceEvent::BatchSeal {
                t: t("t")?,
                batch: u32f("batch")?,
                batches: u32f("batches")?,
                records: t("records")?,
            },
            "checkpoint" => TraceEvent::Checkpoint {
                t: t("t")?,
                batch: u32f("batch")?,
                bytes: t("bytes")?,
            },
            "admission" => TraceEvent::Admission {
                t: t("t")?,
                reducer: u32f("reducer")?,
                offered: t("offered")?,
                absorbed: t("absorbed")?,
                evictions: t("evictions")?,
                rejected: t("rejected")?,
            },
            "poison" => TraceEvent::Poison {
                t: t("t")?,
                chunk: u32f("chunk")?,
                offset: t("offset")?,
                attempt: u32f("attempt")?,
            },
            "serve_job" => TraceEvent::ServeJob {
                t: t("t")?,
                tenant: u32f("tenant")?,
                job: u32f("job")?,
                state: ServeJobState::parse(obj.str_field("state")?)?,
            },
            "wave_grant" => TraceEvent::WaveGrant {
                t: t("t")?,
                tenant: u32f("tenant")?,
                job: u32f("job")?,
                wave: u32f("wave")?,
            },
            "dlq_replay" => TraceEvent::DlqReplay {
                t: t("t")?,
                tenant: u32f("tenant")?,
                job: u32f("job")?,
                entries: t("entries")?,
            },
            "stage_start" => TraceEvent::StageStart {
                t: t("t")?,
                stage: u32f("stage")?,
                records: t("records")?,
                bytes: t("bytes")?,
            },
            "stage_handoff" => TraceEvent::StageHandoff {
                t: t("t")?,
                stage: u32f("stage")?,
                records: t("records")?,
                bytes: t("bytes")?,
                reshuffled: t("reshuffled")? != 0,
            },
            "reshuffle_skipped" => TraceEvent::ReshuffleSkipped {
                t: t("t")?,
                stage: u32f("stage")?,
                bytes_saved: t("bytes_saved")?,
            },
            other => return Err(Error::job(format!("unknown trace event '{other}'"))),
        })
    }
}

/// The scheduler's event collector: a thin append-only buffer the engine
/// owns while a traced job runs. The engine holds an
/// `Option<Box<Tracer>>`; when tracing is off no allocation, branch work
/// beyond one `is_none` check, or formatting happens.
#[derive(Debug, Default)]
pub struct Tracer {
    events: Vec<TraceEvent>,
}

impl Tracer {
    /// A fresh, empty tracer.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Appends one event.
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    /// Number of events collected so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events have been collected.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Consumes the tracer into a finished [`TraceLog`].
    pub fn into_log(self) -> TraceLog {
        TraceLog {
            events: self.events,
        }
    }
}

/// A finished trace: every structured event of one run, in scheduler
/// event order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceLog {
    /// The events, in emission (scheduler event) order.
    pub events: Vec<TraceEvent>,
}

impl TraceLog {
    /// Serializes the whole trace as JSON Lines (one event per line,
    /// trailing newline included). Byte-stable across runs and thread
    /// counts.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96);
        for ev in &self.events {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }

    /// Parses a JSONL trace produced by [`TraceLog::to_jsonl`]. Blank
    /// lines are skipped.
    pub fn from_jsonl(text: &str) -> Result<TraceLog> {
        let mut events = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            events.push(
                TraceEvent::from_json(line)
                    .map_err(|e| Error::job(format!("trace line {}: {e}", i + 1)))?,
            );
        }
        Ok(TraceLog { events })
    }

    /// Writes the trace to `path` as JSONL.
    pub fn write_jsonl(&self, path: &std::path::Path) -> Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| Error::storage(format!("mkdir {}: {e}", dir.display())))?;
        }
        std::fs::write(path, self.to_jsonl())
            .map_err(|e| Error::storage(format!("write {}: {e}", path.display())))
    }

    /// Reads a JSONL trace from `path`.
    pub fn read_jsonl(path: &std::path::Path) -> Result<TraceLog> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| Error::storage(format!("read {}: {e}", path.display())))?;
        TraceLog::from_jsonl(&text)
    }

    /// Builds the per-phase metric rollup for this trace.
    pub fn rollup(&self) -> crate::rollup::Rollup {
        crate::rollup::Rollup::from_events(&self.events)
    }

    /// Renders the trace in Chrome trace-event format (Perfetto-loadable).
    pub fn to_chrome(&self) -> String {
        crate::chrome::to_chrome(&self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<TraceEvent> {
        vec![
            TraceEvent::MapStart {
                t: 0,
                chunk: 3,
                attempt: 0,
                node: 1,
            },
            TraceEvent::MapFinish {
                t0: 0,
                t: 1500,
                chunk: 3,
                node: 1,
                cpu: 800,
                output_bytes: 4096,
                spill_bytes: 0,
            },
            TraceEvent::Shuffle {
                t0: 1500,
                t: 1600,
                from_node: 1,
                reducer: 2,
                bytes: 1024,
            },
            TraceEvent::NodeCombine {
                t0: 1600,
                t: 1650,
                node: 1,
                bytes_in: 4096,
                bytes_out: 1024,
                keys: 12,
            },
            TraceEvent::Io {
                t0: 1600,
                t: 1700,
                node: 0,
                cat: IoCategory::ReduceSpill,
                read: 0,
                written: 512,
                seeks: 1,
                recovery: true,
            },
            TraceEvent::Span {
                t0: 100,
                t: 900,
                node: 0,
                kind: SpanKind::Merge,
            },
            TraceEvent::Fault {
                t: 42,
                kind: FaultKind::Straggler,
                target: 7,
                attempt: 0,
            },
            TraceEvent::Retry {
                t: 99,
                kind: FaultKind::ReduceFailure,
                target: 1,
                attempt: 2,
            },
            TraceEvent::ReduceStart {
                t: 5,
                reducer: 9,
                node: 1,
            },
            TraceEvent::ReduceFinish {
                t: 8000,
                reducer: 9,
                node: 1,
            },
            TraceEvent::BatchSeal {
                t: 7000,
                batch: 2,
                batches: 4,
                records: 1234,
            },
            TraceEvent::Checkpoint {
                t: 7001,
                batch: 2,
                bytes: 8888,
            },
            TraceEvent::Admission {
                t: 8000,
                reducer: 9,
                offered: 5000,
                absorbed: 4100,
                evictions: 37,
                rejected: 900,
            },
            TraceEvent::Poison {
                t: 1500,
                chunk: 3,
                offset: 77,
                attempt: 1,
            },
            TraceEvent::ServeJob {
                t: 2,
                tenant: 1,
                job: 4,
                state: ServeJobState::Admitted,
            },
            TraceEvent::WaveGrant {
                t: 3,
                tenant: 1,
                job: 4,
                wave: 2,
            },
            TraceEvent::DlqReplay {
                t: 9,
                tenant: 1,
                job: 4,
                entries: 6,
            },
            TraceEvent::StageStart {
                t: 0,
                stage: 0,
                records: 100_000,
                bytes: 9_600_000,
            },
            TraceEvent::StageHandoff {
                t: 0,
                stage: 0,
                records: 5_000,
                bytes: 120_000,
                reshuffled: false,
            },
            TraceEvent::ReshuffleSkipped {
                t: 1,
                stage: 1,
                bytes_saved: 120_000,
            },
        ]
    }

    #[test]
    fn jsonl_roundtrip_is_lossless() {
        let log = TraceLog { events: samples() };
        let text = log.to_jsonl();
        let back = TraceLog::from_jsonl(&text).expect("parse");
        assert_eq!(log, back);
        // And the re-serialization is byte-identical.
        assert_eq!(text, back.to_jsonl());
    }

    #[test]
    fn every_event_parses_its_own_label() {
        for ev in samples() {
            let parsed = TraceEvent::from_json(&ev.to_json()).expect("parse");
            assert_eq!(parsed.label(), ev.label());
            assert_eq!(parsed, ev);
        }
    }

    #[test]
    fn bad_lines_are_rejected_with_line_numbers() {
        let err = TraceLog::from_jsonl("{\"ev\":\"nope\"}\n").unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
        assert!(TraceLog::from_jsonl("not json\n").is_err());
        let wide = "{\"ev\":\"map_start\",\"t\":0,\"chunk\":4294967297,\"attempt\":0,\"node\":0}\n";
        assert!(
            TraceLog::from_jsonl(wide).is_err(),
            "chunk 2^32 + 1 is not chunk 1"
        );
    }

    #[test]
    fn blank_lines_are_skipped() {
        let log = TraceLog { events: samples() };
        let spaced = log.to_jsonl().replace('\n', "\n\n");
        assert_eq!(TraceLog::from_jsonl(&spaced).expect("parse"), log);
    }
}
