//! # opa-stream — continuous ingestion over the one-pass engine
//!
//! The paper's motivation is analytics that keep up with data as it
//! *arrives*; this crate turns the batch engine into that long-running
//! service. A stream run steps the batch run's own
//! [`Engine`](opa_core::engine::Engine) through the input in `k`
//! arrival-ordered **micro-batches**,
//! pausing after each batch once every shuffle delivery from that
//! batch's own chunks has been absorbed (later chunks keep shuffling
//! across the pause — the watermark is a lower bound). At each pause
//! point:
//!
//! - the user callback observes the live incremental state through
//!   [`BatchCtl`] — point lookups of resident partial aggregates, the
//!   DINC top-k answer with its γ coverage bound, and progress /
//!   watermark metadata;
//! - a **checkpoint** of the complete engine state can be written (on a
//!   cadence via [`StreamConfig::checkpoint_every`], or on demand from
//!   the callback), CRC-protected through [`opa_simio::ckpt`];
//! - a crashed run **resumes** from its last checkpoint with
//!   [`StreamJobBuilder::resume_stream`], replaying only the remaining
//!   input and emitting each output pair exactly once.
//!
//! Sealing batches only observes the engine between two events — it
//! never reorders, drops or injects any — so a streamed run's output is
//! **bit-identical** to the one-shot batch run's, at any thread count
//! and any `k` (the root package's `tests/option_space.rs` pins this
//! across frameworks and options, `tests/golden_outputs.rs` across the
//! paper workloads).
//!
//! ```
//! use opa_stream::StreamJobBuilder;
//! use opa_core::cluster::{ClusterSpec, Framework};
//! use opa_workloads::click_count::ClickCountJob;
//! use opa_workloads::clickstream::ClickStreamSpec;
//!
//! let data = ClickStreamSpec::small().generate(42);
//! let outcome = StreamJobBuilder::new(ClickCountJob::default())
//!     .framework(Framework::IncHash)
//!     .cluster(ClusterSpec::tiny())
//!     .batches(4)
//!     .run_stream(&data, |ctl| {
//!         let p = ctl.progress();
//!         assert!(p.batches_sealed >= 1 && p.batches_sealed <= 4);
//!     })
//!     .expect("stream runs");
//! assert_eq!(outcome.batches, 4);
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
mod driver;
pub mod query;

pub use checkpoint::{EngineState, Fingerprint, QueuedEvent, SavedState, StagedTable};
pub use driver::{StreamOutcome, StreamRun};
pub use query::{BatchCtl, CheckpointView, StreamProgress};

use opa_common::{Error, Result, StreamConfig};
use opa_core::api::{Handle, Job, JobRef};
use opa_core::job::{JobInput, RunConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Fluent builder for one stream run — the streaming counterpart of
/// [`opa_core::job::JobBuilder`]: the same [`RunConfig`] behind the same
/// setters, plus the stream dimension — batch count, checkpoint cadence
/// and checkpoint directory.
pub struct StreamJobBuilder<J: Job> {
    job: J,
    run: RunConfig,
    stream: StreamConfig,
    checkpoint_dir: Option<PathBuf>,
}

impl<J: Job> StreamJobBuilder<J> {
    /// Starts a builder with the sort-merge baseline on the paper cluster
    /// ([`RunConfig::default`]) and the default stream shape
    /// ([`StreamConfig::default`]).
    pub fn new(job: J) -> Self {
        StreamJobBuilder {
            job,
            run: RunConfig::default(),
            stream: StreamConfig::default(),
            checkpoint_dir: None,
        }
    }

    opa_core::run_config_setters!();

    /// Sets the full stream configuration.
    pub fn stream(mut self, cfg: StreamConfig) -> Self {
        self.stream = cfg;
        self
    }

    /// Sets the micro-batch count `k`.
    pub fn batches(mut self, k: usize) -> Self {
        self.stream.batches = k;
        self
    }

    /// Writes a checkpoint every `n` sealed batches (requires
    /// [`StreamJobBuilder::checkpoint_dir`]).
    pub fn checkpoint_every(mut self, n: usize) -> Self {
        self.stream.checkpoint_every = Some(n);
        self
    }

    /// Directory periodic checkpoints are written to, as
    /// `stream-ckpt-b<batch>.opac`.
    pub fn checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    fn validate(&self, input: &JobInput) -> Result<()> {
        self.stream.validate_for(input.len())?;
        if self.stream.checkpoint_every.is_some() && self.checkpoint_dir.is_none() {
            return Err(Error::config(
                "checkpoint cadence set without a checkpoint directory — \
                 call checkpoint_dir(..) (CLI: --checkpoint-dir)",
            ));
        }
        Ok(())
    }

    /// Runs the stream job over `input`, invoking `on_batch` at each
    /// sealed micro-batch (1-based, in order). A traced run's
    /// [`opa_trace::TraceLog`] is the batch run's plus a `batch_seal` /
    /// `checkpoint` event at every pause point.
    pub fn run_stream(
        &self,
        input: &JobInput,
        mut on_batch: impl FnMut(&mut BatchCtl<'_, '_>),
    ) -> Result<StreamOutcome> {
        self.validate(input)?;
        self.open(JobRef::borrowed(&self.job), Handle::Borrowed(input), None)?
            .drive(&mut on_batch)
    }

    /// Resumes a stream job from a checkpoint file written by a previous
    /// run over the *same* input and configuration. Sealed batches are
    /// not re-run (their callbacks do not fire again); the remaining
    /// batches stream as usual, and the final output holds the
    /// uninterrupted run's pairs. I/O totals, the fault report, the
    /// spill-error injector's sequence and the reduce-crash history are not
    /// restored yet, so those metrics and, under faults, the timeline and
    /// what follows delivery order can differ (the root
    /// `tests/option_space.rs` names each gap).
    pub fn resume_stream(
        &self,
        input: &JobInput,
        checkpoint: &Path,
        mut on_batch: impl FnMut(&mut BatchCtl<'_, '_>),
    ) -> Result<StreamOutcome> {
        self.validate(input)?;
        let saved = SavedState::read_from(checkpoint)?;
        self.open(
            JobRef::borrowed(&self.job),
            Handle::Borrowed(input),
            Some(saved),
        )?
        .drive(&mut on_batch)
    }
}

impl<'e> StreamJobBuilder<JobRef<'e>> {
    /// Opens the stream job over a shared input as a [`StreamRun`] the
    /// caller keeps and steps — the form a server holds between waves
    /// (with a [`JobRef::shared`] job, the run borrows nothing). Nothing
    /// runs until the first [`StreamRun::seal_next`].
    pub fn start(&self, input: Arc<JobInput>) -> Result<StreamRun<'e>> {
        self.validate(&input)?;
        self.open(self.job.clone(), Handle::Shared(input), None)
    }
}
