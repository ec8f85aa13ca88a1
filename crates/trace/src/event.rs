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
//!
//! Each event is declared **once**, in the `trace_events!` table below: the
//! enum, its accessors, both directions of the codec and [`TraceEvent::SCHEMA`]
//! (which `tests/glossary.rs` holds `OBSERVABILITY.md` to) expand from it.

use crate::json::JsonValue;
use opa_common::fault::FaultKind;
use opa_common::{Error, Result};
use opa_simio::IoCategory;
use std::fmt::Write as _;

/// Timeline operation classes: the kinds of interval on the engine's task
/// timeline (`opa_core::sim::Span`) and in its `span` trace events.
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

/// A small enum that travels as a quoted label. `wire_labels!` lists its
/// `(variant, label)` pairs once: `label` is an exhaustive match over them
/// (a variant without a label does not compile), parsing searches `LABELS`.
trait Labeled: Copy + 'static {
    /// What an unknown label is reported as (`unknown <WHAT> '…'`).
    const WHAT: &'static str;
    const LABELS: &'static [(Self, &'static str)];
    fn label(self) -> &'static str;
}

macro_rules! wire_labels {
    ($($ty:ident, $what:literal: $($variant:ident = $label:literal),+;)+) => {
        $(impl Labeled for $ty {
            const WHAT: &'static str = $what;
            const LABELS: &'static [(Self, &'static str)] = &[$(($ty::$variant, $label)),+];
            fn label(self) -> &'static str {
                match self {
                    $($ty::$variant => $label),+
                }
            }
        })+

        /// The label column of every table, for the tests.
        #[cfg(test)]
        const LABEL_TABLES: &[&[&str]] = &[$(&[$($label),+]),+];
    };
}

wire_labels! {
    SpanKind, "span kind":
        Map = "map", Shuffle = "shuffle", Merge = "merge", Reduce = "reduce";
    IoCategory, "I/O category":
        MapInput = "u1", MapSpill = "u2", MapOutput = "u3", ReduceSpill = "u4", ReduceOutput = "u5";
    FaultKind, "fault kind":
        MapFailure = "map_failure", Straggler = "straggler", ReduceFailure = "reduce_failure",
        SpillError = "spill_error", UdfPoison = "udf_poison";
    ServeJobState, "serve job state":
        Admitted = "admitted", RejectedQuota = "rejected_quota", RejectedQueue = "rejected_queue",
        Started = "started", Finished = "finished", Failed = "failed";
}

impl SpanKind {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        Labeled::label(self)
    }
}

impl ServeJobState {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        Labeled::label(self)
    }
}

/// Stable wire label for an I/O category (`u1`…`u5`, Table 2 order).
pub fn io_category_label(cat: IoCategory) -> &'static str {
    cat.label()
}

/// Stable wire label for a fault kind.
pub fn fault_kind_label(kind: FaultKind) -> &'static str {
    kind.label()
}

/// How one field type travels in a JSONL line: integers bare, flags as
/// `0`/`1`, the small enums as their quoted label.
trait Wire: Sized {
    fn put(&self, out: &mut String);
    fn get(obj: &JsonValue, key: &str) -> Result<Self>;
    /// The `n`-th test value; enums and flags cycle through theirs.
    #[cfg(test)]
    fn sample(n: u64) -> Self;
}

impl Wire for u64 {
    fn put(&self, out: &mut String) {
        // Writing to a `String` cannot fail.
        let _ = write!(out, "{self}");
    }
    fn get(obj: &JsonValue, key: &str) -> Result<Self> {
        obj.u64_field(key)
    }
    #[cfg(test)]
    fn sample(n: u64) -> Self {
        // Wider than 32 bits, so a field narrowed by mistake shows.
        (n << 32) | n
    }
}

impl Wire for u32 {
    fn put(&self, out: &mut String) {
        u64::from(*self).put(out);
    }
    fn get(obj: &JsonValue, key: &str) -> Result<Self> {
        u32::try_from(obj.u64_field(key)?)
            .map_err(|_| Error::job(format!("field '{key}' does not fit 32 bits")))
    }
    #[cfg(test)]
    fn sample(n: u64) -> Self {
        n as u32
    }
}

impl Wire for bool {
    fn put(&self, out: &mut String) {
        out.push(if *self { '1' } else { '0' });
    }
    fn get(obj: &JsonValue, key: &str) -> Result<Self> {
        Ok(obj.u64_field(key)? != 0)
    }
    #[cfg(test)]
    fn sample(n: u64) -> Self {
        n % 2 == 1
    }
}

impl<T: Labeled> Wire for T {
    fn put(&self, out: &mut String) {
        let _ = write!(out, "\"{}\"", self.label());
    }
    fn get(obj: &JsonValue, key: &str) -> Result<Self> {
        let s = obj.str_field(key)?;
        match T::LABELS.iter().find(|(_, label)| *label == s) {
            Some(&(v, _)) => Ok(v),
            None => Err(Error::job(format!("unknown {} '{s}'", T::WHAT))),
        }
    }
    #[cfg(test)]
    fn sample(n: u64) -> Self {
        T::LABELS[n as usize % T::LABELS.len()].0
    }
}

/// Expands the one event table (see the module docs); `time` is why every
/// variant must have a `t`.
macro_rules! trace_events {
    (
        $(#[$emeta:meta])*
        pub enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $label:literal {
                    $($(#[$fmeta:meta])* $field:ident: $ty:ty,)+
                },
            )+
        }
    ) => {
        $(#[$emeta])*
        pub enum $name {
            $(
                $(#[$vmeta])*
                $variant {
                    $($(#[$fmeta])* $field: $ty,)+
                },
            )+
        }

        impl $name {
            /// Every event's wire label (the JSONL `ev` field) with its
            /// field names in wire order.
            pub const SCHEMA: &'static [(&'static str, &'static [&'static str])] =
                &[$(($label, &[$(stringify!($field)),+])),+];

            /// The event's stable wire label (the JSONL `ev` field).
            pub fn label(&self) -> &'static str {
                match self {
                    $($name::$variant { .. } => $label,)+
                }
            }

            /// The event's occurrence time in microseconds (for intervals,
            /// the end time).
            pub fn time(&self) -> u64 {
                match *self {
                    $($name::$variant { t, .. } => t,)+
                }
            }

            /// Appends the event as one JSON line (no trailing newline) to
            /// `out`. Field order is fixed, values are integers or short
            /// enum strings — byte-stable across runs.
            pub fn write_json(&self, out: &mut String) {
                match self {
                    $($name::$variant { $($field),+ } => {
                        out.push_str(concat!("{\"ev\":\"", $label, "\""));
                        $(
                            out.push_str(concat!(",\"", stringify!($field), "\":"));
                            $field.put(out);
                        )+
                    })+
                }
                out.push('}');
            }

            /// Parses one JSONL line back into an event.
            pub fn from_json(line: &str) -> Result<$name> {
                let obj = JsonValue::parse(line)?;
                Ok(match obj.str_field("ev")? {
                    $($label => $name::$variant {
                        $($field: Wire::get(&obj, stringify!($field))?,)+
                    },)+
                    other => return Err(Error::job(format!("unknown trace event '{other}'"))),
                })
            }

            /// Every variant, once per round. Field `k` of a round-`r` event
            /// holds `Wire::sample(r + k)`: distinct within the event, and over
            /// as many rounds as the longest label table every label and flag.
            #[cfg(test)]
            fn one_of_each() -> Vec<$name> {
                let mut events = Vec::new();
                for round in 0..LABEL_TABLES.iter().map(|t| t.len() as u64).max().unwrap_or(2) {
                    $(
                        let mut n = round;
                        events.push($name::$variant {
                            $($field: {
                                n += 1;
                                Wire::sample(n)
                            },)+
                        });
                    )+
                }
                events
            }
        }
    };
}

trace_events! {
    /// One structured simulation event. See `OBSERVABILITY.md` at the
    /// repository root for the glossary mapping every variant and field to
    /// the paper quantity it measures.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum TraceEvent {
        /// A map-task attempt was dispatched to a node's map slot.
        MapStart = "map_start" {
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
        MapFinish = "map_finish" {
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
        Shuffle = "shuffle" {
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
        NodeCombine = "node_combine" {
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
        Io = "io" {
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
        Span = "span" {
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
        Fault = "fault" {
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
        Retry = "retry" {
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
        ReduceStart = "reduce_start" {
            /// Start time (µs).
            t: u64,
            /// Reducer index.
            reducer: u32,
            /// Hosting node.
            node: u32,
        },
        /// A reduce task finished (final merge + reduce function complete).
        ReduceFinish = "reduce_finish" {
            /// Completion time (µs).
            t: u64,
            /// Reducer index.
            reducer: u32,
            /// Hosting node.
            node: u32,
        },
        /// A streaming micro-batch sealed: every shuffle delivery from the
        /// batch's own chunks has been absorbed (`opa-stream`).
        BatchSeal = "batch_seal" {
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
        Checkpoint = "checkpoint" {
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
        Admission = "admission" {
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
        Poison = "poison" {
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
        ServeJob = "serve_job" {
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
        WaveGrant = "wave_grant" {
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
        DlqReplay = "dlq_replay" {
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
        StageStart = "stage_start" {
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
        StageHandoff = "stage_handoff" {
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
        ReshuffleSkipped = "reshuffle_skipped" {
            /// Stage index whose shuffle was skipped (and the event time).
            t: u64,
            /// Stage index whose shuffle was skipped.
            stage: u32,
            /// Map-output bytes that would have crossed the network had the
            /// stage reshuffled.
            bytes_saved: u64,
        },
    }
}

impl TraceEvent {
    /// Serializes the event as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// The simulated node the event happened on, for the events that
    /// have one: the rollup's node count and the Chrome export's process
    /// list are both this set. A shuffle belongs to its sending node.
    pub fn node(&self) -> Option<u32> {
        match *self {
            TraceEvent::MapStart { node, .. }
            | TraceEvent::MapFinish { node, .. }
            | TraceEvent::NodeCombine { node, .. }
            | TraceEvent::Io { node, .. }
            | TraceEvent::Span { node, .. }
            | TraceEvent::ReduceStart { node, .. }
            | TraceEvent::ReduceFinish { node, .. } => Some(node),
            TraceEvent::Shuffle { from_node, .. } => Some(from_node),
            _ => None,
        }
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
            ev.write_json(&mut out);
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
    use std::collections::BTreeSet;

    #[test]
    fn jsonl_roundtrip_is_lossless() {
        let events = TraceEvent::one_of_each();
        let log = TraceLog { events };
        let text = log.to_jsonl();
        let back = TraceLog::from_jsonl(&text).expect("parse");
        assert_eq!(log, back);
        // And the re-serialization is byte-identical.
        assert_eq!(text, back.to_jsonl());
        for label in LABEL_TABLES.concat() {
            assert!(text.contains(&format!(":\"{label}\"")), "{label} unsampled");
        }
    }

    #[test]
    fn every_event_parses_its_own_label() {
        for ev in TraceEvent::one_of_each() {
            let parsed = TraceEvent::from_json(&ev.to_json()).expect("parse");
            assert_eq!(parsed.label(), ev.label());
            assert_eq!(parsed, ev);
        }
    }

    #[test]
    fn schema_matches_the_wire() {
        for ev in TraceEvent::one_of_each() {
            let Ok(JsonValue::Obj(fields)) = JsonValue::parse(&ev.to_json()) else {
                panic!("{ev:?} does not encode as a JSON object");
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            let schema = TraceEvent::SCHEMA.iter().find(|(l, _)| *l == ev.label());
            let (_, want) = schema.expect("label is in SCHEMA");
            assert_eq!(keys[0], "ev");
            assert_eq!(&keys[1..], *want, "{}", ev.label());
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut tables: Vec<Vec<&str>> = LABEL_TABLES.iter().map(|t| t.to_vec()).collect();
        tables.push(TraceEvent::SCHEMA.iter().map(|&(l, _)| l).collect());
        for table in tables {
            let distinct: BTreeSet<_> = table.iter().collect();
            assert_eq!(distinct.len(), table.len(), "{table:?}");
        }
    }

    #[test]
    fn bad_lines_are_rejected_with_line_numbers() {
        let err = TraceLog::from_jsonl("{\"ev\":\"nope\"}\n").unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
        assert!(TraceLog::from_jsonl("not json\n").is_err());
        // Chunk 2^32 is not chunk 0.
        let wide = "{\"ev\":\"map_start\",\"t\":0,\"chunk\":4294967296,\"attempt\":0,\"node\":0}";
        let err = TraceEvent::from_json(wide).unwrap_err().to_string();
        assert!(err.contains("field 'chunk' does not fit 32 bits"), "{err}");
        let nap = "{\"ev\":\"span\",\"t0\":0,\"t\":1,\"node\":0,\"kind\":\"nap\"}";
        let err = TraceEvent::from_json(nap).unwrap_err().to_string();
        assert!(err.contains("unknown span kind 'nap'"), "{err}");
    }

    #[test]
    fn hostile_integers_are_errors_in_every_event_kind() {
        // Every numeric field of every event kind, forged past 2^53,
        // negative or fractional: an error naming the field, never a
        // panic and never a silently rounded or saturated value.
        let hostile = [
            "18446744073709551616",
            "1e300",
            "9007199254740993",
            "9007199254740992",
            "-1",
            "-4294967296",
            "0.5",
            "2.25e1",
        ];
        for ev in TraceEvent::one_of_each() {
            let line = ev.to_json();
            for field in TraceEvent::SCHEMA
                .iter()
                .find(|(l, _)| *l == ev.label())
                .expect("label is in SCHEMA")
                .1
            {
                let tag = format!("\"{field}\":");
                let start = line.find(&tag).expect("field on the wire") + tag.len();
                if line[start..].starts_with('"') {
                    continue; // a label, not a number
                }
                let end = start + line[start..].find([',', '}']).expect("value ends");
                for bad in hostile {
                    let forged = format!("{}{bad}{}", &line[..start], &line[end..]);
                    let err = TraceEvent::from_json(&forged).unwrap_err().to_string();
                    assert!(err.contains(&format!("field '{field}'")), "{forged}: {err}");
                }
            }
        }
    }

    #[test]
    fn blank_lines_are_skipped() {
        let events = TraceEvent::one_of_each();
        let log = TraceLog { events };
        let spaced = log.to_jsonl().replace('\n', "\n\n");
        assert_eq!(TraceLog::from_jsonl(&spaced).expect("parse"), log);
    }
}
