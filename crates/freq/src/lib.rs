//! # opa-freq
//!
//! Stream-frequency algorithms underpinning the DINC-hash technique of the
//! paper (§4.3).
//!
//! DINC-hash decides *which keys deserve the in-memory fast path* using the
//! FREQUENT algorithm (Misra & Gries 1982; Berinde et al. 2009): `s`
//! monitored slots, each holding a key, a counter, the state of the partial
//! reduce computation, and `t` — the number of tuples combined since the key
//! was last installed. [`MisraGries`] implements exactly that, generic over
//! the attached state so it doubles as a plain heavy-hitters sketch
//! (`S = ()`).
//!
//! The paper rejects "sketch-based" frequency estimators (Count-Min and
//! friends) because they do not *explicitly encode* the hot-key set; the
//! counter-based SpaceSaving algorithm, which does, is provided as
//! [`SpaceSavingMonitor`], the monitor-choice ablation's alternative
//! monitor.
//!
//! Guarantees implemented and tested here:
//!
//! - frequency under-estimate: `f_k − M/(s+1) ≤ f̂_k ≤ f_k`;
//! - combine-work bound: at least `M' = Σ_{i≤s} max(0, f_i − M/(s+1))`
//!   combine operations happen in memory;
//! - coverage under-estimate: `γ_k = t/(t + M/(s+1)) ≤ coverage(k)`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod misra_gries;
pub mod space_saving;

pub use misra_gries::{MgEntry, MgOutcome, MisraGries};
pub use space_saving::SpaceSavingMonitor;
