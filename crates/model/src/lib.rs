//! # opa-model
//!
//! The paper's analytical model of Hadoop (§3), implemented verbatim:
//!
//! - [`lambda`] — the multi-pass-merge cost function `λ_F(n, b)` (Eq. 2),
//!   the `2F − 1` merge policy the engine calls too, and an *exact*
//!   simulator of the merge tree of Fig. 3, used to validate the closed form;
//! - [`io_model`] — Proposition 3.1 (bytes read/written per node, Eq. 1,
//!   with the `U_1..U_5` decomposition) and Proposition 3.2 (number of I/O
//!   requests, Eq. 3);
//! - [`time_model`] — the combined time measurement
//!   `T = c_byte·U + c_seek·S + c_start·D/(CN)` (Eq. 4) with the paper's
//!   constants (80 MB/s sequential access, 4 ms seek, 100 ms map startup);
//! - [`optimizer`] — parameter selection per §3.2: the largest `C` with
//!   `C·K_m ≤ B_m`, a one-pass merge factor, and a grid search minimizing
//!   `T` over `(C, F)`;
//! - [`hash_model`] — the hash frameworks' own I/O analysis (§4):
//!   hybrid-hash staging for MR-hash, the `Δ`-vs-memory regimes of
//!   INC-hash, and FREQUENT's combine-work guarantee for DINC-hash.
//!
//! The model deliberately predicts a *time measurement*, not wall-clock
//! running time: the paper validates it by showing matching **trends** as
//! `C` and `F` vary (Fig. 4(a)), which is exactly what `repro fig4a`
//! reproduces against the OPA engine.
//!
//! ```
//! use opa_common::{HardwareSpec, SystemSettings, WorkloadSpec, MB};
//! use opa_model::{lambda_f, ModelInput};
//!
//! // Table 2's three parameter groups: (R, C, F), (D, K_m, K_r), (N, B_m, B_r).
//! let input = ModelInput::new(
//!     SystemSettings::stock_scaled(),            // Hadoop defaults, 1/1024 scale
//!     WorkloadSpec::new(24 * MB, 1.0, 1.0),      // sessionization-like
//!     HardwareSpec::paper_cluster_scaled(),      // the 10-node cluster
//! )
//! .expect("valid model input");
//!
//! // Proposition 3.1: per-node bytes, decomposed into U_1..U_5.
//! let bytes = input.io_bytes();
//! assert!(bytes.total() >= bytes.u1 + bytes.u5);
//!
//! // Proposition 3.2: per-node I/O request count.
//! assert!(input.io_requests() > 0.0);
//!
//! // Eq. 2: the merge cost λ_F grows superlinearly in the run count.
//! assert!(lambda_f(40.0, 1.0, 10) > 2.0 * lambda_f(20.0, 1.0, 10));
//! ```
//!
//! To check these predictions against a *measured* run, enable tracing on
//! a job and hand the rollup to `opa-trace`'s drift checker
//! (`opa run … --drift` from the CLI); `OBSERVABILITY.md` maps every
//! model term to its measured counterpart.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod gamma;
pub mod hash_model;
pub mod io_model;
pub mod lambda;
pub mod optimizer;
pub mod time_model;

pub use io_model::{CombineModel, IoBytesBreakdown, ModelInput};
pub use lambda::{lambda_f, MergeTreeSim};
pub use optimizer::{GridPoint, Optimizer, Recommendation};
pub use time_model::{CostConstants, TimeBreakdown};
