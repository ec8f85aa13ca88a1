//! # OPA — One-Pass Analytics
//!
//! A Rust reproduction of *"A Platform for Scalable One-Pass Analytics using
//! MapReduce"* (Li, Mazur, Diao, McGregor, Shenoy — SIGMOD 2011).
//!
//! This facade crate re-exports the whole workspace so applications can
//! depend on a single crate:
//!
//! - [`common`] — records, universal hashing, configuration, virtual time;
//! - [`simio`] — simulated storage: disks, I/O accounting, spill and bucket
//!   files, the HDFS-like block store;
//! - [`freq`] — stream-frequency substrate: the DINC hot-key monitor,
//!   running Misra-Gries (FREQUENT) or SpaceSaving, coverage estimation;
//! - [`model`] — the analytical model of Hadoop (§3): `λ_F`, Propositions
//!   3.1/3.2, the Eq. 4 time measurement, and the `(C, F)` optimizer;
//! - [`trace`] — structured observability: deterministic JSONL event
//!   traces, per-phase rollups, Chrome/Perfetto export, and the
//!   model-vs-measured drift checker (see `OBSERVABILITY.md`);
//! - [`core`] — the MapReduce engine with all five reduce-side frameworks:
//!   sort-merge, sort-merge + pipelining, MR-hash, INC-hash, DINC-hash;
//! - [`stream`] — the continuous-ingestion runtime: micro-batch streaming
//!   over the engine with checkpointed incremental state, crash/resume,
//!   and a live query surface (point lookup, DINC top-k, watermarks);
//! - [`workloads`] — synthetic click-stream / document generators and the
//!   paper's five evaluation workloads.
//!
//! ## Quickstart
//!
//! ```
//! use opa::core::prelude::*;
//! use opa::workloads::click_count::ClickCountJob;
//! use opa::workloads::clickstream::ClickStreamSpec;
//!
//! // Generate a small synthetic click stream and count clicks per user
//! // with the INC-hash incremental framework.
//! let data = ClickStreamSpec::small().generate(42);
//! let outcome = JobBuilder::new(ClickCountJob::default())
//!     .framework(Framework::IncHash)
//!     .cluster(ClusterSpec::tiny())
//!     .run(&data)
//!     .expect("job runs");
//! assert!(outcome.metrics.output_records > 0);
//! ```

pub use opa_common as common;
pub use opa_core as core;
pub use opa_freq as freq;
pub use opa_model as model;
pub use opa_simio as simio;
pub use opa_stream as stream;
pub use opa_trace as trace;
pub use opa_workloads as workloads;
