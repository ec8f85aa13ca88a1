//! The micro-batch stream run: the engine, stepped to pause points.
//!
//! The input's arrival order is split into `k` contiguous batches. A
//! [`StreamRun`] steps one [`Engine`] — the batch run's, unchanged — to the first
//! instant when every chunk containing a record below batch `b`'s boundary
//! has completed its map task **and** every shuffle delivery originating
//! from those chunks has been absorbed ([`Engine::run_until`]); that is
//! batch `b`'s *seal*. At a seal the reducer state covers at least the
//! watermark (and possibly some records beyond it — later chunks keep
//! shuffling across the pause), the user callback runs against that live
//! state ([`BatchCtl`]), and a checkpoint can be taken: the engine
//! serializes whole, pending map starts and in-flight deliveries included.
//!
//! Because a pause only *observes* the engine between two queue pops, the
//! streamed run's event sequence is the one-shot batch run's, so the final
//! output is bit-identical to [`opa_core::job::JobBuilder::run`] at any
//! thread count and any `k`.

use crate::checkpoint::{Fingerprint, SavedState};
use crate::query::BatchCtl;
use crate::StreamJobBuilder;
use opa_common::{Error, Result, StreamConfig};
use opa_core::api::{Handle, Job, JobRef};
use opa_core::cluster::{ClusterSpec, Framework};
use opa_core::engine::Engine;
use opa_core::job::{JobInput, JobOutcome};
use opa_simio::ckpt::write_file;
use opa_trace::TraceEvent;
use std::path::PathBuf;

/// Everything a finished stream run yields.
#[derive(Debug)]
pub struct StreamOutcome {
    /// The ordinary job outcome — metrics, progress curves, timeline and
    /// the output itself. Bit-identical to the one-shot batch run's
    /// output for fresh (non-resumed) streams.
    pub job: JobOutcome,
    /// Micro-batches sealed (equals the configured `k`).
    pub batches: usize,
    /// Checkpoint files written during the run.
    pub checkpoints_written: usize,
    /// The last checkpoint path written, if any.
    pub last_checkpoint: Option<PathBuf>,
    /// For resumed runs, the batch index the run restarted from.
    pub resumed_from_batch: Option<usize>,
}

impl StreamOutcome {
    /// Packages the stream's output as a partitioned
    /// [`Dataset`](opa_core::dataflow::Dataset), ready to feed a
    /// [`Dataflow`](opa_core::dataflow::Dataflow) chain via `run_from` —
    /// a stream run is a first-class dataflow source, exactly like a
    /// batch [`JobOutcome`].
    pub fn dataset(&self, spec: &ClusterSpec) -> opa_core::dataflow::Dataset {
        self.job.dataset(spec)
    }
}

/// One stream run as a value its caller keeps: the engine, stepped one
/// micro-batch at a time. Four steps make a run — [`StreamRun::seal_next`]
/// seals the next batch, [`StreamRun::ctl`] exposes the paused state,
/// [`StreamRun::checkpoint`] writes what is due at the pause and
/// [`StreamRun::finish`] drains the rest. [`StreamJobBuilder::run_stream`]
/// is a loop over them; `opa serve` keeps one per running job and steps it
/// one wave per grant.
pub struct StreamRun<'e> {
    pub(crate) engine: Engine<'e>,
    fingerprint: Fingerprint,
    pub(crate) stream: StreamConfig,
    checkpoint_dir: Option<PathBuf>,
    pub(crate) records: usize,
    /// Micro-batches sealed so far.
    pub(crate) sealed: usize,
    checkpoints_written: usize,
    last_checkpoint: Option<PathBuf>,
    resumed_from_batch: Option<usize>,
}

impl<'e> StreamRun<'e> {
    /// Seals the next micro-batch: batch `b` covers records
    /// `[b-1, b) · n/k` of the arrival order, and seals once every chunk
    /// holding one of them is mapped and absorbed (a chunk straddling the
    /// boundary belongs to the earlier batch). Returns `false`, and runs
    /// nothing, once all `k` are sealed.
    pub fn seal_next(&mut self) -> bool {
        let k = self.stream.batches;
        if self.sealed == k {
            return false;
        }
        self.sealed += 1;
        let records_sealed = self.records_sealed();
        let engine = &mut self.engine;
        engine.run_until(engine.chunks_below(records_sealed));
        engine.emit(TraceEvent::BatchSeal {
            t: engine.now().0,
            batch: self.sealed as u32,
            batches: k as u32,
            records: records_sealed as u64,
        });
        true
    }

    pub(crate) fn records_sealed(&self) -> usize {
        self.sealed * self.records / self.stream.batches
    }

    /// The live state at the last seal.
    pub fn ctl(&self) -> BatchCtl<'_, 'e> {
        BatchCtl {
            run: self,
            checkpoint_request: None,
        }
    }

    /// Writes the checkpoints due at the last seal: `requested` (a
    /// callback's [`BatchCtl::checkpoint`]), and the cadence's file under
    /// the checkpoint directory. The state is encoded once, whatever the
    /// number of files.
    ///
    /// # Errors
    /// A reducer whose state does not export, or a failed write.
    pub fn checkpoint(&mut self, requested: Option<PathBuf>) -> Result<()> {
        let sealed = self.sealed;
        let mut paths: Vec<PathBuf> = requested.into_iter().collect();
        if let Some(dir) = &self.checkpoint_dir {
            if self.stream.checkpoint_due(sealed) && sealed < self.stream.batches {
                paths.push(dir.join(format!("stream-ckpt-b{sealed}.opac")));
            }
        }
        if paths.is_empty() {
            return Ok(());
        }
        let bytes = SavedState {
            fingerprint: self.fingerprint.clone(),
            job_name: self.engine.job_name().to_string(),
            next_batch: sealed as u64,
            engine: self.engine.export_state()?,
        }
        .encode();
        for p in &paths {
            write_file(p, &bytes)?;
            self.checkpoints_written += 1;
            self.engine.emit(TraceEvent::Checkpoint {
                t: self.engine.now().0,
                batch: sealed as u32,
                bytes: bytes.len() as u64,
            });
        }
        self.last_checkpoint = paths.pop();
        Ok(())
    }

    /// Drains the rest of the input and finishes the run.
    pub fn finish(self) -> StreamOutcome {
        StreamOutcome {
            job: self.engine.finish(),
            batches: self.stream.batches,
            checkpoints_written: self.checkpoints_written,
            last_checkpoint: self.last_checkpoint,
            resumed_from_batch: self.resumed_from_batch,
        }
    }

    /// Runs to the end: `on_batch` fires once per sealed micro-batch, in
    /// order, against the paused live state, and the checkpoints due at
    /// each pause are written after it.
    pub(crate) fn drive(
        mut self,
        on_batch: &mut dyn FnMut(&mut BatchCtl<'_, '_>),
    ) -> Result<StreamOutcome> {
        while self.seal_next() {
            let mut ctl = self.ctl();
            on_batch(&mut ctl);
            let requested = ctl.checkpoint_request.take();
            self.checkpoint(requested)?;
        }
        Ok(self.finish())
    }
}

impl<J: Job> StreamJobBuilder<J> {
    /// Opens a run of this builder's configuration (fresh, or resumed from
    /// `resume`) over `job` and `input`.
    pub(crate) fn open<'e>(
        &self,
        job: JobRef<'e>,
        input: Handle<'e, JobInput>,
        resume: Option<SavedState>,
    ) -> Result<StreamRun<'e>> {
        let spec = &self.run.spec;
        let (k, records) = (self.stream.batches, input.len());
        let fingerprint = Fingerprint {
            records: records as u64,
            total_bytes: input.total_bytes(),
            framework_idx: Framework::ALL
                .iter()
                .position(|&f| f == self.run.framework)
                .expect("framework is in ALL") as u64,
            chunk_size: spec.system.chunk_size,
            nodes: spec.hardware.nodes as u64,
            reducers: spec.total_reducers() as u64,
            batches: k as u64,
            hash_seed: spec.hash_seed,
        };
        if let Some(saved) = &resume {
            if saved.fingerprint != fingerprint {
                return Err(Error::job(
                    "checkpoint fingerprint mismatch — resume requires the same \
                     input, framework, cluster spec and batch count as the \
                     checkpointed run (thread count may differ)",
                ));
            }
            if saved.job_name != job.name() {
                return Err(Error::job(format!(
                    "checkpoint belongs to job '{}', not '{}'",
                    saved.job_name,
                    job.name()
                )));
            }
            if saved.next_batch as usize >= k {
                return Err(Error::job(
                    "checkpoint is already past the final micro-batch",
                ));
            }
        }
        let resumed_from_batch = resume.as_ref().map(|s| s.next_batch as usize);
        let engine = Engine::new(&self.run, job, input, resume.map(|s| s.engine))?;
        Ok(StreamRun {
            engine,
            fingerprint,
            stream: self.stream.clone(),
            checkpoint_dir: self.checkpoint_dir.clone(),
            records,
            sealed: resumed_from_batch.unwrap_or(0),
            checkpoints_written: 0,
            last_checkpoint: None,
            resumed_from_batch,
        })
    }
}
