//! Structured trace & observability layer for the OPA engine.
//!
//! The paper's central claim is *analytical*: closed forms for per-node
//! I/O bytes (Prop. 3.1, with the λ_F multi-pass-merge cost) and request
//! counts (Prop. 3.2) predict MapReduce behaviour that stock Hadoop
//! could not even surface without instrumentation. This crate is the
//! instrumentation side of that claim for our simulator:
//!
//! * [`TraceEvent`]/[`Tracer`]/[`TraceLog`] — a structured event
//!   vocabulary the scheduler emits while a job runs (task start/finish,
//!   every device I/O, merge passes, shuffle deliveries, fault
//!   decisions, retries, batch seals, checkpoints), serialized as
//!   deterministic JSONL: byte-identical at any execution-thread count.
//! * [`rollup::Rollup`] — per-phase aggregates (Table 2's `U_1..U_5`
//!   byte decomposition, request counts, phase busy times, spill-size
//!   histograms) folded from the raw stream.
//! * [`chrome`] — a Chrome-trace/Perfetto exporter rendering Fig 2/Fig 7
//!   style task timelines from a run (`opa trace --format chrome`).
//! * [`drift`] — the model-drift checker: evaluates the `opa-model`
//!   predictions against a measured rollup for the same (C, F, R) and
//!   reports per-term relative error.
//!
//! The event glossary — every event type, every field, its unit and the
//! paper quantity it corresponds to — lives in `OBSERVABILITY.md` at the
//! repository root.
//!
//! # Worked example
//!
//! Traces usually come from `JobBuilder::trace(true)` in `opa-core` (or
//! `opa run --trace-out`), but the layer is self-contained — events in,
//! analysis out:
//!
//! ```
//! use opa_trace::{SpanKind, TraceEvent, TraceLog, Tracer};
//! use opa_simio::IoCategory;
//!
//! // The scheduler pushes events in virtual-time order…
//! let mut tracer = Tracer::new();
//! tracer.push(TraceEvent::MapStart { t: 0, chunk: 0, attempt: 0, node: 0 });
//! tracer.push(TraceEvent::Io {
//!     t0: 0, t: 120, node: 0, cat: IoCategory::MapInput,
//!     read: 65536, written: 0, seeks: 1, recovery: false,
//! });
//! tracer.push(TraceEvent::MapFinish {
//!     t0: 0, t: 500, chunk: 0, node: 0,
//!     cpu: 380, output_bytes: 65536, spill_bytes: 0,
//! });
//! tracer.push(TraceEvent::Span { t0: 0, t: 500, node: 0, kind: SpanKind::Map });
//! let log = tracer.into_log();
//!
//! // …the JSONL encoding round-trips losslessly…
//! let text = log.to_jsonl();
//! assert_eq!(TraceLog::from_jsonl(&text).unwrap(), log);
//!
//! // …and the rollup recovers the aggregate view.
//! let rollup = log.rollup();
//! assert_eq!(rollup.map_tasks, 1);
//! assert_eq!(rollup.first_pass.read_bytes(IoCategory::MapInput), 65536);
//! assert_eq!(rollup.span_time_of(SpanKind::Map), 500);
//!
//! // A Perfetto-loadable timeline is one call away.
//! assert!(log.to_chrome().contains("\"traceEvents\""));
//! ```
//!
//! # Determinism contract
//!
//! Everything that feeds a [`Tracer`] runs on the scheduler thread in
//! event order — the same discipline that makes `JobOutcome`
//! bit-identical at any thread count extends to traces. The test suites
//! (the root `tests/option_space.rs`, `crates/stream/tests/stream_trace.rs`)
//! pin byte-identical JSONL across thread counts, and
//! `crates/core/tests/trace_determinism.rs` golden CRCs.

#![warn(missing_docs)]

pub mod chrome;
pub mod drift;
mod event;
pub mod json;
pub mod rollup;

pub use event::{
    fault_kind_label, io_category_label, ServeJobState, SpanKind, TraceEvent, TraceLog, Tracer,
};
/// The §3 model: the engine reaches the merge policy through this crate.
pub use opa_model as model;
pub use rollup::{Rollup, StageRow};
