//! # opa-simio
//!
//! Simulated storage substrate for the One-Pass Analytics platform.
//!
//! The paper's evaluation is dominated by *where bytes go*: map input, map
//! internal spills, map output, reduce internal spills, and reduce output —
//! the five categories `U_1..U_5` of Table 2 — plus the number of I/O
//! requests `S` (seeks). This crate provides the pieces that make those
//! flows explicit and measurable without a real cluster:
//!
//! - [`iostats`] — five-category byte/seek accounting ([`IoStats`],
//!   [`IoOp`]);
//! - [`disk`] — device cost profiles ([`DiskProfile`]) translating an
//!   [`IoOp`] into simulated time (HDD: 80 MB/s + 4 ms seeks — the paper's
//!   constants; SSD for the Fig 2(d) experiment);
//! - [`spill`] — spill files holding real record runs ([`SpillStore`]);
//! - [`bucket`] — the paged-write-buffer bucket file manager of §4
//!   ([`BucketManager`]);
//! - [`blockstore`] — an HDFS-like splitter assigning chunk-sized input
//!   blocks to nodes ([`BlockStore`]);
//! - [`codec`] — IFile-style record framing with CRC-32 checksums, for
//!   persisting runs and job outputs to real files;
//! - [`ckpt`] — the one persisted-state container: CRC-guarded framed
//!   sections behind a header naming the file's [`ckpt::Kind`], written by
//!   [`ckpt::SectionWriter`] and read by [`ckpt::SectionReader`];
//! - [`fault`] — deterministic spill-disk error injection
//!   ([`DiskFaultInjector`]), consulted by the engine's disk queues when a
//!   fault plan is active.
//!
//! Data written to these "disks" is retained in memory so the engine can
//! read it back and produce *correct* job output; only the accounting and
//! the cost model treat it as disk traffic.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod blockstore;
pub mod bucket;
pub mod ckpt;
pub mod codec;
pub mod disk;
pub mod fault;
pub mod iostats;
pub mod spill;

pub use blockstore::{BlockStore, Chunk};
pub use bucket::BucketManager;
pub use disk::DiskProfile;
pub use fault::DiskFaultInjector;
pub use iostats::{IoCategory, IoOp, IoStats, SpillSplit};
pub use spill::{SpillFile, SpillStore};
