//! The resident job server: deterministic interleaved wave scheduling.
//!
//! Each admitted job is a [`StreamRun`] the server keeps between calls —
//! the unmodified stream run, its engine stepped one micro-batch at a
//! time. The run's micro-batch pause points are the server's **wave
//! boundaries**. The server advances the fleet in **rounds**: every
//! running job gets one wave, **in admission order**, and between rounds
//! every running job is paused. A query is a method call on the paused
//! run's [`BatchCtl`] state.
//!
//! Determinism falls out of two facts:
//!
//! 1. each job's engine run is untouched — a pause only observes state,
//!    so its [`opa_core::job::JobOutcome`] is bit-identical to the same
//!    job run solo, at any thread count (the engine already guarantees
//!    that for any pause schedule);
//! 2. one thread mutates server state (books, queue, trace), in
//!    admission order, between waves — so the grant sequence and the
//!    serving-layer trace are pure functions of the submission sequence.
//!
//! With more than one job moving in a round on a multi-core host, their
//! waves run on scoped threads, one job each, and the round ends when the
//! last returns. A wave touches only its own job, and the server books the
//! results in admission order after the round, so nothing the server
//! emits depends on which wave ends first.

use crate::admission::{Admission, AdmissionOutcome, ServeConfig, TenantBook};
use crate::dlq::QuarantineFile;
use opa_common::fault::FaultConfig;
use opa_common::{Error, ExecConfig, Key, Result, Value};
use opa_core::api::{Job, JobRef};
use opa_core::cluster::{ClusterSpec, Framework};
use opa_core::job::{JobInput, PoisonedRecord};
use opa_core::reduce::TopEntry;
use opa_stream::{BatchCtl, StreamJobBuilder, StreamOutcome, StreamProgress, StreamRun};
use opa_trace::{ServeJobState, TraceEvent};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Per-job configuration carried by a submission.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Reduce-side framework.
    pub framework: Framework,
    /// Cluster the job simulates.
    pub cluster: ClusterSpec,
    /// Micro-batch count `k` — the job's wave count.
    pub batches: usize,
    /// Execution-layer threading for this job's engine.
    pub exec: opa_common::ExecConfig,
    /// Map output/input ratio hint.
    pub km_hint: f64,
    /// Reduce-side admission policy.
    pub admission: opa_common::AdmissionPolicy,
    /// Fault injection (including `udf_poison_rate` for DLQ testing).
    pub faults: FaultConfig,
    /// Whether the job captures a structured engine trace.
    pub trace: bool,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            framework: Framework::IncHash,
            cluster: ClusterSpec::tiny(),
            batches: 4,
            exec: opa_common::ExecConfig::sequential(),
            km_hint: 1.0,
            admission: opa_common::AdmissionPolicy::Off,
            faults: FaultConfig::disabled(),
            trace: false,
        }
    }
}

/// A live-state query against a paused (or finished) job.
#[derive(Debug, Clone)]
pub enum ServeQuery {
    /// Point lookup of a key's resident partial aggregate.
    Lookup(Key),
    /// Batched point lookups: answers every key against the *same* paused
    /// state, with no step in between.
    LookupBatch(Vec<Key>),
    /// The DINC top-k answer with its γ coverage bound.
    TopK(usize),
    /// Progress / watermark metadata.
    Progress,
}

/// Answer to a [`ServeQuery`].
#[derive(Debug, Clone)]
pub enum ServeAnswer {
    /// Resident value, if the framework keeps queryable state for the key.
    Value(Option<Value>),
    /// One entry per [`ServeQuery::LookupBatch`] key, in request order.
    Values(Vec<Option<Value>>),
    /// Global top-k entries with the weakest per-reducer γ bound.
    TopK(Option<(Vec<TopEntry>, f64)>),
    /// Progress snapshot at the pause point.
    Progress(StreamProgress),
}

/// Where a job is in its server-side lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Admitted, waiting for a tenant run slot.
    Waiting,
    /// Executing (paused at a wave boundary between rounds).
    Running,
    /// Completed successfully; outcome retained for queries and replay.
    Finished,
    /// Completed with an error.
    Failed,
    /// Refused at admission; never executed.
    Rejected,
}

/// One row of [`Server::status`].
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Server-assigned job id (admission order).
    pub job: u32,
    /// Owning tenant.
    pub tenant: u32,
    /// Human-readable label (job name).
    pub label: String,
    /// Lifecycle phase.
    pub phase: JobPhase,
    /// Waves granted so far.
    pub waves: u32,
    /// Last reported progress, if the job ever paused.
    pub progress: Option<StreamProgress>,
    /// Quarantined records (known once finished).
    pub dlq_entries: u64,
    /// Failure message for [`JobPhase::Failed`] / [`JobPhase::Rejected`].
    pub error: Option<String>,
}

/// Receipt returned by [`Server::submit`].
#[derive(Debug, Clone, Copy)]
pub struct SubmitReceipt {
    /// The assigned job id (also assigned to rejected submissions, so the
    /// trace names them).
    pub job: u32,
    /// Where the submission landed.
    pub outcome: AdmissionOutcome,
}

struct JobEntry {
    tenant: u32,
    label: String,
    phase: JobPhase,
    progress: Option<StreamProgress>,
    /// The job's stream run while it is running: one wave per grant,
    /// queried in between.
    run: Option<StreamRun<'static>>,
    /// Kept so a finished job can be replayed (DLQ recovery) under a
    /// different fault configuration.
    job: JobRef<'static>,
    input: Arc<JobInput>,
    spec: JobSpec,
    waves: u32,
    submitted_round: u64,
    outcome: Option<Box<StreamOutcome>>,
    error: Option<String>,
    dlq_path: Option<PathBuf>,
    finalized: bool,
}

impl JobEntry {
    /// The job's stream run under `faults`, ready to step.
    fn open(&self, faults: FaultConfig) -> Result<StreamRun<'static>> {
        let spec = &self.spec;
        StreamJobBuilder::new(self.job.clone())
            .framework(spec.framework)
            .cluster(spec.cluster)
            .exec(spec.exec)
            .km_hint(spec.km_hint)
            .admission(spec.admission)
            .faults(faults)
            .batches(spec.batches)
            .trace(spec.trace)
            .start(Arc::clone(&self.input))
    }

    /// Moves the running job one wave: seals its next micro-batch or, once
    /// every batch is sealed, finishes it. A panic — a UDF's — fails this
    /// job and nothing else.
    fn wave(&mut self) {
        let slot = &mut self.run;
        let waved = guarded(|| {
            let run = slot.as_mut().expect("a running job holds its run");
            Ok((!run.seal_next()).then(|| slot.take().map(StreamRun::finish)))
        });
        match waved {
            Ok(None) => self.progress = self.run.as_ref().map(|run| run.ctl().progress()),
            Ok(Some(outcome)) => {
                self.phase = JobPhase::Finished;
                self.outcome = outcome.map(Box::new);
            }
            Err(msg) => self.fail(msg),
        }
    }

    fn fail(&mut self, msg: String) {
        self.run = None;
        self.phase = JobPhase::Failed;
        self.error = Some(msg);
    }
}

/// Runs `f`, turning its error or its panic into the job's failure message.
fn guarded<T>(f: impl FnOnce() -> Result<T>) -> std::result::Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result.map_err(|e| e.to_string()),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            Err(format!("job panicked: {msg}"))
        }
    }
}

/// The resident multi-tenant job server. See the module docs for the
/// scheduling model.
pub struct Server {
    cfg: ServeConfig,
    admission: Admission,
    jobs: Vec<JobEntry>,
    wait_queue: VecDeque<u32>,
    round: u64,
    trace: Vec<TraceEvent>,
    dlq_dir: Option<PathBuf>,
}

impl Server {
    /// Creates a server with the given sizing.
    pub fn new(cfg: ServeConfig) -> Server {
        Server {
            cfg,
            admission: Admission::default(),
            jobs: Vec::new(),
            wait_queue: VecDeque::new(),
            round: 0,
            trace: Vec::new(),
            dlq_dir: None,
        }
    }

    /// Directory quarantine files are written to on job completion, as
    /// `dlq-t<tenant>-j<job>.opaq`. Without it the DLQ stays in memory.
    pub fn dlq_dir(mut self, dir: impl Into<PathBuf>) -> Server {
        self.dlq_dir = Some(dir.into());
        self
    }

    /// Submits a job for `tenant`. Admission is decided synchronously;
    /// an admitted job with a free slot starts immediately and runs to
    /// its first wave boundary before this returns (so it is queryable).
    pub fn submit<J: Job + 'static>(
        &mut self,
        tenant: u32,
        job: J,
        input: Arc<JobInput>,
        spec: &JobSpec,
    ) -> Result<SubmitReceipt> {
        spec.faults.validate()?;
        let id = self.jobs.len() as u32;
        let label = job.name().to_string();
        let outcome = self.admission.decide(tenant, &self.cfg);
        let (phase, state, error) = match outcome {
            AdmissionOutcome::Started | AdmissionOutcome::Queued => {
                (JobPhase::Waiting, ServeJobState::Admitted, None)
            }
            AdmissionOutcome::RejectedQuota => (
                JobPhase::Rejected,
                ServeJobState::RejectedQuota,
                Some("rejected: tenant quota exhausted".to_string()),
            ),
            AdmissionOutcome::RejectedQueue => (
                JobPhase::Rejected,
                ServeJobState::RejectedQueue,
                Some("rejected: server queue full".to_string()),
            ),
        };
        self.trace.push(TraceEvent::ServeJob {
            t: self.round,
            tenant,
            job: id,
            state,
        });
        self.jobs.push(JobEntry {
            tenant,
            label,
            phase,
            progress: None,
            run: None,
            job: JobRef::shared(job),
            input,
            spec: spec.clone(),
            waves: 0,
            submitted_round: self.round,
            outcome: None,
            error,
            dlq_path: None,
            finalized: matches!(phase, JobPhase::Rejected),
        });
        match outcome {
            AdmissionOutcome::Started => {
                self.start_job(id);
                self.settle(vec![id])?;
            }
            AdmissionOutcome::Queued => self.wait_queue.push_back(id),
            _ => {}
        }
        Ok(SubmitReceipt { job: id, outcome })
    }

    /// Opens an admitted job's stream run; its first wave is the caller's
    /// to run. A run that cannot open fails the job.
    fn start_job(&mut self, id: u32) {
        self.trace.push(TraceEvent::ServeJob {
            t: self.round,
            tenant: self.jobs[id as usize].tenant,
            job: id,
            state: ServeJobState::Started,
        });
        let entry = &mut self.jobs[id as usize];
        entry.phase = JobPhase::Running;
        match guarded(|| entry.open(entry.spec.faults)) {
            Ok(run) => entry.run = Some(run),
            Err(msg) => entry.fail(msg),
        }
    }

    /// Moves each job in `ids` one wave. With more than one on a multi-core
    /// host the waves run on scoped threads, one job each; otherwise on
    /// this thread, in admission order.
    fn advance(&mut self, ids: &[u32]) {
        let mut moving: Vec<&mut JobEntry> = self
            .jobs
            .iter_mut()
            .enumerate()
            .filter(|(id, entry)| ids.contains(&(*id as u32)) && entry.run.is_some())
            .map(|(_, entry)| entry)
            .collect();
        match moving.split_first_mut() {
            Some((first, rest))
                if !rest.is_empty() && ExecConfig::available_parallelism().threads > 1 =>
            {
                std::thread::scope(|scope| {
                    for entry in rest {
                        scope.spawn(|| entry.wave());
                    }
                    first.wave();
                });
            }
            _ => moving.into_iter().for_each(JobEntry::wave),
        }
    }

    /// Runs the barrier: moves `ids` one wave, then — with no job moving —
    /// finalizes completions and promotes waiting jobs into freed slots
    /// (FIFO per arrival, skipping tenants whose slots are still full),
    /// moving the promoted jobs to their first wave boundary, until
    /// nothing changes.
    fn settle(&mut self, mut ids: Vec<u32>) -> Result<()> {
        loop {
            self.advance(&ids);
            ids.clear();
            // Finalize completions in admission order, then promote
            // waiters into the freed slots: both mutate books and trace,
            // on this thread alone.
            let mut acted = false;
            for id in 0..self.jobs.len() as u32 {
                let entry = &self.jobs[id as usize];
                if entry.finalized || !matches!(entry.phase, JobPhase::Finished | JobPhase::Failed)
                {
                    continue;
                }
                acted = true;
                self.finalize(id)?;
            }
            let mut i = 0;
            while i < self.wait_queue.len() {
                let id = self.wait_queue[i];
                let tenant = self.jobs[id as usize].tenant;
                if self.admission.slot_free(tenant, &self.cfg) {
                    self.wait_queue.remove(i);
                    let waited = self.round - self.jobs[id as usize].submitted_round;
                    self.admission.promote(tenant, waited);
                    self.start_job(id);
                    ids.push(id);
                    acted = true;
                } else {
                    i += 1;
                }
            }
            if !acted {
                return Ok(());
            }
        }
    }

    /// Books a completed job out: slot release, terminal trace event and
    /// quarantine-file write. Runs only between waves, in id order.
    fn finalize(&mut self, id: u32) -> Result<()> {
        let entry = &mut self.jobs[id as usize];
        entry.finalized = true;
        let failed = entry.phase == JobPhase::Failed;
        let tenant = entry.tenant;
        self.admission.release(tenant, failed);
        self.trace.push(TraceEvent::ServeJob {
            t: self.round,
            tenant,
            job: id,
            state: if failed {
                ServeJobState::Failed
            } else {
                ServeJobState::Finished
            },
        });
        let entry = &self.jobs[id as usize];
        if let (Some(dir), Some(outcome)) = (&self.dlq_dir, &entry.outcome) {
            if !outcome.job.dlq.is_empty() {
                let path = dir.join(format!("dlq-t{tenant}-j{id}.opaq"));
                QuarantineFile {
                    tenant,
                    job: id,
                    job_name: entry.label.clone(),
                    seed: entry.spec.faults.seed,
                    entries: outcome.job.dlq.clone(),
                }
                .write_to(&path)?;
                self.jobs[id as usize].dlq_path = Some(path);
            }
        }
        Ok(())
    }

    /// Advances the fleet by one wave: grants every running job its next
    /// micro-batch **in admission order**, then settles. Returns `false`
    /// once no job is running or waiting (the server is drained).
    pub fn step(&mut self) -> Result<bool> {
        let running: Vec<u32> = (0..self.jobs.len() as u32)
            .filter(|&id| self.jobs[id as usize].phase == JobPhase::Running)
            .collect();
        if running.is_empty() && self.wait_queue.is_empty() {
            return Ok(false);
        }
        self.round += 1;
        for &id in &running {
            let entry = &mut self.jobs[id as usize];
            entry.waves += 1;
            self.trace.push(TraceEvent::WaveGrant {
                t: self.round,
                tenant: entry.tenant,
                job: id,
                wave: entry.waves,
            });
        }
        self.settle(running)?;
        Ok(true)
    }

    /// Steps until every admitted job has finished.
    pub fn run_to_completion(&mut self) -> Result<()> {
        while self.step()? {}
        Ok(())
    }

    /// Answers a query against `job`'s live state. A running job answers
    /// from its paused [`BatchCtl`] (resident partial aggregates); a
    /// finished job answers from its final outcome.
    pub fn query(&self, job: u32, query: &ServeQuery) -> Result<ServeAnswer> {
        let entry = self
            .jobs
            .get(job as usize)
            .ok_or_else(|| Error::job(format!("unknown job {job}")))?;
        match entry.phase {
            JobPhase::Running => {
                let run = entry.run.as_ref().expect("a running job holds its run");
                Ok(answer_live(&run.ctl(), query))
            }
            JobPhase::Finished => {
                let outcome = entry.outcome.as_ref().expect("finished job has an outcome");
                Ok(answer_finished(entry, outcome, query))
            }
            JobPhase::Waiting => Err(Error::job(format!("job {job} is still queued"))),
            JobPhase::Failed => Err(Error::job(format!(
                "job {job} failed: {}",
                entry.error.as_deref().unwrap_or("unknown error")
            ))),
            JobPhase::Rejected => Err(Error::job(format!("job {job} was rejected"))),
        }
    }

    /// The quarantined records of a finished job.
    pub fn dlq(&self, job: u32) -> Result<&[PoisonedRecord]> {
        let entry = self
            .jobs
            .get(job as usize)
            .ok_or_else(|| Error::job(format!("unknown job {job}")))?;
        match &entry.outcome {
            Some(outcome) => Ok(&outcome.job.dlq),
            None => Err(Error::job(format!("job {job} has not finished"))),
        }
    }

    /// The quarantine file written for `job`, if any.
    pub fn dlq_path(&self, job: u32) -> Option<&Path> {
        self.jobs.get(job as usize)?.dlq_path.as_deref()
    }

    /// Replays a finished job with its poison rate zeroed — the "operator
    /// fixed the UDF" recovery path. Runs on this thread (solo) and returns
    /// the fresh outcome; the engine's determinism makes it bit-identical
    /// to a fault-free run of the same spec.
    pub fn replay_dlq(&mut self, job: u32) -> Result<Box<StreamOutcome>> {
        let entry = self
            .jobs
            .get(job as usize)
            .ok_or_else(|| Error::job(format!("unknown job {job}")))?;
        if entry.phase != JobPhase::Finished {
            return Err(Error::job(format!("job {job} has not finished")));
        }
        let entries = entry.outcome.as_ref().map_or(0, |o| o.job.dlq.len() as u64);
        let mut faults = entry.spec.faults;
        faults.udf_poison_rate = 0.0;
        let tenant = entry.tenant;
        let mut run = entry.open(faults)?;
        while run.seal_next() {}
        let outcome = run.finish();
        self.trace.push(TraceEvent::DlqReplay {
            t: self.round,
            tenant,
            job,
            entries,
        });
        Ok(Box::new(outcome))
    }

    /// The finished outcome of `job`, if it completed.
    pub fn outcome(&self, job: u32) -> Option<&StreamOutcome> {
        self.jobs.get(job as usize)?.outcome.as_deref()
    }

    /// One status row per submitted job, in admission order.
    pub fn status(&self) -> Vec<JobStatus> {
        self.jobs
            .iter()
            .enumerate()
            .map(|(id, e)| JobStatus {
                job: id as u32,
                tenant: e.tenant,
                label: e.label.clone(),
                phase: e.phase,
                waves: e.waves,
                progress: e.progress.clone(),
                dlq_entries: e.outcome.as_ref().map_or(0, |o| o.job.dlq.len() as u64),
                error: e.error.clone(),
            })
            .collect()
    }

    /// One tenant's admission book.
    pub fn book(&self, tenant: u32) -> Option<&TenantBook> {
        self.admission.book(tenant)
    }

    /// All tenant books in tenant order.
    pub fn books(&self) -> Vec<(u32, TenantBook)> {
        self.admission
            .books()
            .map(|(t, b)| (t, b.clone()))
            .collect()
    }

    /// The current scheduler round (waves granted so far).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The serving-layer trace: `serve_job` / `wave_grant` / `dlq_replay`
    /// events with scheduler-round timestamps, in emission order.
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }
}

fn answer_live(ctl: &BatchCtl<'_, '_>, query: &ServeQuery) -> ServeAnswer {
    match query {
        ServeQuery::Lookup(key) => ServeAnswer::Value(ctl.lookup(key)),
        ServeQuery::LookupBatch(keys) => {
            ServeAnswer::Values(keys.iter().map(|k| ctl.lookup(k)).collect())
        }
        ServeQuery::TopK(k) => ServeAnswer::TopK(ctl.top_k(*k)),
        ServeQuery::Progress => ServeAnswer::Progress(ctl.progress()),
    }
}

fn answer_finished(entry: &JobEntry, outcome: &StreamOutcome, query: &ServeQuery) -> ServeAnswer {
    // After completion the resident state is gone; the final output pairs
    // are the authoritative answer.
    let lookup = |key: &Key| {
        let pair = outcome.job.output.iter().find(|p| &p.key == key);
        pair.map(|p| p.value.clone())
    };
    match query {
        ServeQuery::Lookup(key) => ServeAnswer::Value(lookup(key)),
        ServeQuery::LookupBatch(keys) => ServeAnswer::Values(keys.iter().map(lookup).collect()),
        ServeQuery::TopK(_) => ServeAnswer::TopK(None),
        ServeQuery::Progress => {
            ServeAnswer::Progress(entry.progress.clone().unwrap_or(StreamProgress {
                batches_sealed: outcome.batches,
                batches: outcome.batches,
                records_sealed: 0,
                total_records: 0,
                maps_completed: 0,
                maps_total: 0,
                watermark: None,
                sim_time: opa_common::units::SimTime::ZERO,
            }))
        }
    }
}
