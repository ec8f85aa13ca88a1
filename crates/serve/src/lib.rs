//! # opa-serve — the resident multi-tenant job server
//!
//! The paper's platform is a *service*: analysts submit one-pass jobs
//! against shared cluster capacity and query incremental answers while
//! the jobs run. This crate supplies that serving layer on top of
//! `opa-stream`:
//!
//! - **admission control** ([`admission`]) — per-tenant run-slot quotas
//!   with a bounded shared wait queue; every submission is either
//!   admitted, queued (backpressure) or *explicitly* rejected, and
//!   `AdmissionStats`-style books reconcile the counters;
//! - **deterministic interleaved scheduling** ([`server`]) — the server
//!   keeps each running job's unmodified [`opa_stream::StreamRun`] and
//!   advances the fleet in waves, one micro-batch per job in admission
//!   order, changing its own state only between waves, so every job's
//!   outcome is bit-identical to its solo run and the serving trace is a
//!   pure function of the submission sequence;
//! - **live queries** — point lookups, DINC top-k and progress answered
//!   at wave boundaries by a method call on the paused run, through the
//!   same [`opa_stream::BatchCtl`] surface the stream callback sees;
//! - **a dead-letter queue** ([`dlq`]) — records a map UDF rejects are
//!   quarantined with full provenance (tenant, job, task, attempt,
//!   offset) to a CRC-guarded file instead of failing the job, and the
//!   job can be **replayed** with the poison fixed to recover the
//!   fault-free output.
//!
//! ```
//! use opa_serve::{JobSpec, ServeConfig, Server};
//! use opa_workloads::click_count::ClickCountJob;
//! use opa_workloads::clickstream::ClickStreamSpec;
//! use std::sync::Arc;
//!
//! let input = Arc::new(ClickStreamSpec::small().generate(42));
//! let mut server = Server::new(ServeConfig::default());
//! let spec = JobSpec::default();
//! let job = ClickCountJob { expected_users: 1000 };
//! let receipt = server
//!     .submit(0, job, Arc::clone(&input), &spec)
//!     .expect("admits");
//! server.run_to_completion().expect("drains");
//! assert!(server.outcome(receipt.job).is_some());
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod dlq;
pub mod server;

pub use admission::{Admission, AdmissionOutcome, ServeConfig, TenantBook};
pub use dlq::QuarantineFile;
pub use server::{JobPhase, JobSpec, JobStatus, ServeAnswer, ServeQuery, Server, SubmitReceipt};
