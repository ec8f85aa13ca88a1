//! # opa-core
//!
//! The One-Pass Analytics MapReduce engine — the paper's primary
//! contribution (§4–§5), plus the sort-merge and pipelined baselines it is
//! evaluated against (§2–§3).
//!
//! ## How execution works
//!
//! A job really runs: the user's `map`, `reduce`, `combine` and
//! `init/cb/fn` functions process every record, and the job output is
//! byte-for-byte verifiable. Time, however, is *virtual*: a deterministic
//! discrete-event simulation of an N-node cluster charges each task CPU
//! costs (per record, per comparison, per hash op…) and routes every spill,
//! merge and shuffle through per-node disk queues priced by
//! [`opa_simio::DiskProfile`]s. This is the substitution documented in
//! DESIGN.md — all of the paper's findings are about *relative* behaviour
//! (which framework blocks, where bytes go, whose reduce progress keeps up
//! with map progress), and those survive the change of substrate.
//!
//! ## The five reduce-side frameworks
//!
//! | [`Framework`] variant | Paper section | Character |
//! |---|---|---|
//! | `SortMerge` | §2.2, §3 | Hadoop baseline: map-side sort, reduce-side multi-pass merge (blocking) |
//! | `SortMergePipelined` | §2.2, §3.3 | MapReduce-Online-style eager push of sorted granules |
//! | `MrHash` | §4.1 | hybrid-hash group-by; bucket `D1` in memory |
//! | `IncHash` | §4.2 | incremental `init/cb/fn`, first-come keys stay in memory |
//! | `DincHash` | §4.3 | FREQUENT-monitored hot keys stay in memory; coverage-based early answers |
//!
//! ## Entry point
//!
//! Build a [`job::JobBuilder`] around a [`api::Job`] implementation, choose
//! a framework and a [`cluster::ClusterSpec`], and call `run` on a
//! [`job::JobInput`]. The returned [`job::JobOutcome`] carries the real
//! output, the five-category I/O statistics, Definition-1 progress curves
//! and the task timeline used to regenerate the paper's figures.
//!
//! Multi-job pipelines live in [`dataflow`]: a [`dataflow::Dataflow`]
//! chains jobs so each stage's reduce output feeds the next stage's map
//! through an in-memory, partition-bucketed [`dataflow::Dataset`] — and
//! when the downstream stage is partition-preserving under the same
//! partitioning, the intervening shuffle is skipped entirely
//! (M3R-style), with chain-wide checkpoint/restore at stage boundaries.
//!
//! ```
//! use opa_common::{Key, Value};
//! use opa_core::prelude::*;
//!
//! // The classic example: word count under the stock sort-merge baseline.
//! struct WordCount;
//!
//! impl Job for WordCount {
//!     fn name(&self) -> &str {
//!         "word-count"
//!     }
//!     fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
//!         for w in record.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
//!             emit(w, &1u64.to_be_bytes());
//!         }
//!     }
//!     fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
//!         let sum: u64 = values.iter().filter_map(Value::as_u64).sum();
//!         ctx.emit(key.clone(), Value::from_u64(sum));
//!     }
//! }
//!
//! let input = JobInput::from_text("to be or not\nto be\n");
//! let outcome = JobBuilder::new(WordCount)
//!     .framework(Framework::SortMerge)
//!     .cluster(ClusterSpec::tiny())
//!     .run(&input)
//!     .expect("job runs");
//!
//! let counts = outcome.sorted_output();
//! assert_eq!(counts.len(), 4); // "be", "not", "or", "to"
//! assert_eq!(counts[3].key.bytes(), b"to");
//! assert_eq!(counts[3].value.as_u64(), Some(2));
//! assert!(outcome.metrics.io.total_bytes() > 0); // the run was priced
//! ```
//!
//! Add `.trace(true)` to the builder and the outcome carries a
//! deterministic [`opa_trace::TraceLog`] of every scheduling decision —
//! see `OBSERVABILITY.md` at the repository root for the event glossary.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod api;
pub mod cluster;
pub mod cost;
pub mod dataflow;
pub mod engine;
pub mod exec;
mod fault;
pub mod job;
pub mod map_phase;
pub mod metrics;
pub mod progress;
pub mod reduce;
mod resident;
pub mod sim;

/// Convenient glob-import surface for applications and examples.
pub mod prelude {
    pub use crate::api::{Combiner, IncrementalReducer, Job, ReduceCtx};
    pub use crate::cluster::{ClusterSpec, Framework};
    pub use crate::cost::CostModel;
    pub use crate::dataflow::{Dataflow, DataflowOutcome, Dataset, Handoff, HandoffPolicy};
    pub use crate::job::{JobBuilder, JobInput, JobOutcome};
    pub use crate::metrics::JobMetrics;
    pub use crate::progress::ProgressCurve;
    pub use opa_common::fault::{FaultConfig, FaultReport};
    pub use opa_common::{Key, Pair, Value};
}

pub use cluster::{ClusterSpec, Framework};
pub use dataflow::{Dataflow, DataflowOutcome, Dataset};
pub use job::{JobBuilder, JobInput, JobOutcome};
