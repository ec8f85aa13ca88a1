//! # opa-common
//!
//! Foundation types shared by every crate in the One-Pass Analytics (OPA)
//! platform, a reproduction of *"A Platform for Scalable One-Pass Analytics
//! using MapReduce"* (SIGMOD 2011).
//!
//! This crate provides:
//!
//! - byte-oriented [`Key`]/[`Value`] record types ([`types`]),
//! - a family of pairwise-independent universal hash functions used for the
//!   recursive hash partitioning `h1, h2, h3, …` of the paper's §4, and
//!   the group-by table their fingerprints probe ([`hash`]),
//! - configuration structs mirroring the symbols of the paper's Table 2
//!   ([`config`]),
//! - virtual-time and byte-size units ([`units`]),
//! - deterministic seeded RNG helpers ([`rng`]),
//! - SWAR byte scanning for tokenizer hot loops ([`scan`]),
//! - the TinyLFU-style frequency sketch and membership filter behind
//!   frequency-gated admission ([`sketch`]),
//! - the canonical ⟨key, value⟩ record framing that carries one job's
//!   output into the next job's map in a dataflow ([`record`]),
//! - streaming-run shape and checkpoint cadence ([`stream`]),
//! - the fault-injection vocabulary shared by the engine and the storage
//!   substrate ([`fault`]),
//! - the shared error type ([`error`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod error;
pub mod fault;
pub mod hash;
pub mod record;
pub mod rng;
pub mod scan;
pub mod sketch;
pub mod stream;
pub mod types;
pub mod units;

pub use config::{
    AdmissionPolicy, CombineScope, ExecConfig, HardwareSpec, SystemSettings, WorkloadSpec,
};
pub use error::{Error, Result};
pub use fault::{FaultConfig, FaultEvent, FaultKind, FaultReport};
pub use hash::{GroupTable, HashFamily, HashFn, SeededState};
pub use record::{decode_kv, encode_kv, encode_kv_into};
pub use scan::{find_byte, tokens};
pub use sketch::{FreqSketch, KeyFilter};
pub use stream::StreamConfig;
pub use types::{be_u64, BatchBuilder, Key, Pair, RecordBatch, Value, INLINE_CAP};
pub use units::{ByteSize, SimDuration, SimTime, GB, KB, MB};
