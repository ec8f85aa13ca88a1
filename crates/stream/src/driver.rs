//! The micro-batch stream driver: the engine, stepped to pause points.
//!
//! The input's arrival order is split into `k` contiguous batches. The
//! driver steps one [`Engine`] — the batch run's, unchanged — to the first
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
use opa_common::{Error, Result};
use opa_core::api::Job;
use opa_core::cluster::{ClusterSpec, Framework};
use opa_core::engine::Engine;
use opa_core::job::{JobInput, JobOutcome};
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

impl<J: Job> StreamJobBuilder<J> {
    /// Runs (or resumes) the stream job. `on_batch` fires once per sealed
    /// micro-batch, in order, against the paused live state.
    pub(crate) fn drive(
        &self,
        input: &JobInput,
        resume: Option<SavedState>,
        on_batch: &mut dyn FnMut(&mut BatchCtl<'_, '_>),
    ) -> Result<StreamOutcome> {
        let spec = &self.run.spec;
        let (k, n_records) = (self.stream.batches, input.len());
        let fingerprint = Fingerprint {
            records: n_records as u64,
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
            if saved.job_name != self.job.name() {
                return Err(Error::job(format!(
                    "checkpoint belongs to job '{}', not '{}'",
                    saved.job_name,
                    self.job.name()
                )));
            }
            if saved.next_batch as usize >= k {
                return Err(Error::job(
                    "checkpoint is already past the final micro-batch",
                ));
            }
        }
        let resumed_from_batch = resume.as_ref().map(|s| s.next_batch as usize);
        let engine_state = resume.map(|s| s.engine);

        Engine::scoped(&self.run, &self.job, input, engine_state, |mut engine| {
            let mut checkpoints_written = 0usize;
            let mut last_checkpoint: Option<PathBuf> = None;
            // Batch `b` covers records `[b-1, b) · n/k` of the arrival
            // order; it seals once every chunk holding one of them is
            // mapped and absorbed (a chunk straddling the boundary belongs
            // to the earlier batch).
            for sealed in resumed_from_batch.unwrap_or(0) + 1..=k {
                let records_sealed = sealed * n_records / k;
                engine.run_until(engine.chunks_below(records_sealed));
                engine.emit(TraceEvent::BatchSeal {
                    t: engine.now().0,
                    batch: sealed as u32,
                    batches: k as u32,
                    records: records_sealed as u64,
                });
                let mut ctl = BatchCtl {
                    batch: sealed,
                    batches: k,
                    records_sealed,
                    total_records: n_records,
                    maps_completed: engine.maps_completed(),
                    maps_total: engine.num_chunks(),
                    sim_time: engine.now(),
                    h1: engine.h1(),
                    reducers: engine.reducers(),
                    checkpoint_request: None,
                };
                on_batch(&mut ctl);

                let mut paths: Vec<PathBuf> = ctl.checkpoint_request.take().into_iter().collect();
                if let Some(dir) = &self.checkpoint_dir {
                    if self.stream.checkpoint_due(sealed) && sealed < k {
                        paths.push(dir.join(format!("stream-ckpt-b{sealed}.opac")));
                    }
                }
                if paths.is_empty() {
                    continue;
                }
                // A callback can request a checkpoint the build-time check
                // could not foresee.
                self.check_checkpointable()?;
                let saved = SavedState {
                    fingerprint: fingerprint.clone(),
                    job_name: self.job.name().to_string(),
                    next_batch: sealed as u64,
                    engine: engine.export_state()?,
                };
                for p in &paths {
                    saved.write_to(p)?;
                    checkpoints_written += 1;
                    engine.emit(TraceEvent::Checkpoint {
                        t: engine.now().0,
                        batch: sealed as u32,
                        bytes: std::fs::metadata(p).map(|m| m.len()).unwrap_or(0),
                    });
                }
                last_checkpoint = paths.pop();
            }
            Ok(StreamOutcome {
                job: engine.finish(),
                batches: k,
                checkpoints_written,
                last_checkpoint,
                resumed_from_batch,
            })
        })
    }
}
