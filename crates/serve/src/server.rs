//! The resident job server: deterministic interleaved wave scheduling.
//!
//! Each admitted job runs the unmodified stream driver on its own OS
//! thread. The driver's micro-batch pause points become the server's
//! **wave boundaries**: at every pause the job thread parks, reports in,
//! and waits for a grant. The server advances the fleet in **rounds** —
//! it waits until *every* running job is parked (or finished), then
//! issues one `Continue` grant per job **in admission order**. Queries
//! are answered while parked, against the live [`BatchCtl`] state.
//!
//! Determinism falls out of two facts:
//!
//! 1. each job's engine run is untouched — the pause callback only
//!    observes state and blocks, so its [`opa_core::job::JobOutcome`] is
//!    bit-identical to the same job run solo, at any thread count (the
//!    engine already guarantees that for any callback);
//! 2. the server mutates shared state (books, queue, trace) only at
//!    quiescent points — full barriers where no job thread is running —
//!    and always iterates jobs in admission (id) order, so the grant
//!    sequence and the serving-layer trace are pure functions of the
//!    submission sequence.
//!
//! Job threads run concurrently *between* barriers (that is the point:
//! wall-clock overlap), but nothing the server emits depends on which
//! thread parks first.

use crate::admission::{Admission, AdmissionOutcome, ServeConfig, TenantBook};
use crate::dlq::{QuarantineEntry, QuarantineFile};
use opa_common::fault::FaultConfig;
use opa_common::{Error, Key, Result, Value};
use opa_core::api::Job;
use opa_core::cluster::{ClusterSpec, Framework};
use opa_core::job::{JobInput, PoisonedRecord};
use opa_core::reduce::TopEntry;
use opa_stream::{BatchCtl, StreamJobBuilder, StreamOutcome, StreamProgress};
use opa_trace::{ServeJobState, TraceEvent};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

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
    /// Batched point lookups: answers every key in one channel
    /// round-trip against the *same* parked state snapshot, instead of
    /// paying one `Lookup` round-trip (and potentially interleaved
    /// steps) per key.
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
    /// Executing (parked at a wave boundary between rounds).
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

enum ToJob {
    Query {
        query: ServeQuery,
        reply: Sender<ServeAnswer>,
    },
    Continue,
}

enum FromJob {
    Paused {
        id: u32,
        progress: StreamProgress,
    },
    Done {
        id: u32,
        result: std::result::Result<Box<StreamOutcome>, String>,
    },
}

/// A re-runnable job closure: the server keeps it so a finished job can
/// be replayed (DLQ recovery) under a different fault configuration.
type Runner = Arc<
    dyn Fn(FaultConfig, &mut dyn FnMut(&mut BatchCtl<'_, '_>)) -> Result<StreamOutcome>
        + Send
        + Sync,
>;

struct JobEntry {
    tenant: u32,
    label: String,
    phase: JobPhase,
    paused: bool,
    progress: Option<StreamProgress>,
    cmd: Option<Sender<ToJob>>,
    handle: Option<JoinHandle<()>>,
    runner: Option<Runner>,
    faults: FaultConfig,
    waves: u32,
    submitted_round: u64,
    outcome: Option<Box<StreamOutcome>>,
    error: Option<String>,
    dlq_path: Option<PathBuf>,
    finalized: bool,
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
    tx: Sender<FromJob>,
    rx: Receiver<FromJob>,
}

impl Server {
    /// Creates a server with the given sizing.
    pub fn new(cfg: ServeConfig) -> Server {
        let (tx, rx) = channel();
        Server {
            cfg,
            admission: Admission::default(),
            jobs: Vec::new(),
            wait_queue: VecDeque::new(),
            round: 0,
            trace: Vec::new(),
            dlq_dir: None,
            tx,
            rx,
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
        let runner: Runner = {
            let spec = spec.clone();
            Arc::new(
                move |faults, on_batch: &mut dyn FnMut(&mut BatchCtl<'_, '_>)| {
                    StreamJobBuilder::new(&job)
                        .framework(spec.framework)
                        .cluster(spec.cluster)
                        .exec(spec.exec)
                        .km_hint(spec.km_hint)
                        .admission(spec.admission)
                        .faults(faults)
                        .batches(spec.batches)
                        .trace(spec.trace)
                        .run_stream(&input, on_batch)
                },
            )
        };
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
            paused: false,
            progress: None,
            cmd: None,
            handle: None,
            runner: Some(runner),
            faults: spec.faults,
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
                self.settle()?;
            }
            AdmissionOutcome::Queued => self.wait_queue.push_back(id),
            _ => {}
        }
        Ok(SubmitReceipt { job: id, outcome })
    }

    fn start_job(&mut self, id: u32) {
        self.trace.push(TraceEvent::ServeJob {
            t: self.round,
            tenant: self.jobs[id as usize].tenant,
            job: id,
            state: ServeJobState::Started,
        });
        let entry = &mut self.jobs[id as usize];
        entry.phase = JobPhase::Running;
        let (cmd_tx, cmd_rx) = channel::<ToJob>();
        entry.cmd = Some(cmd_tx);
        let runner = entry.runner.clone().expect("admitted job keeps its runner");
        let faults = entry.faults;
        let tx = self.tx.clone();
        entry.handle = Some(std::thread::spawn(move || {
            let mut on_batch = |ctl: &mut BatchCtl<'_, '_>| {
                let progress = ctl.progress();
                if tx.send(FromJob::Paused { id, progress }).is_err() {
                    // Server gone: free-run to completion.
                    return;
                }
                // A `Continue` grant or a dropped sender (server shutting
                // down) both release the wave boundary.
                while let Ok(ToJob::Query { query, reply }) = cmd_rx.recv() {
                    let _ = reply.send(answer_live(ctl, &query));
                }
            };
            // A panicking UDF must fail this job, not strand the server:
            // `settle` blocks until every running job reports.
            let run = std::panic::AssertUnwindSafe(|| runner(faults, &mut on_batch));
            let result = match std::panic::catch_unwind(run) {
                Ok(result) => result.map(Box::new).map_err(|e| e.to_string()),
                Err(panic) => {
                    let msg = panic
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| panic.downcast_ref::<&str>().copied())
                        .unwrap_or("non-string panic payload");
                    Err(format!("job panicked: {msg}"))
                }
            };
            let _ = tx.send(FromJob::Done { id, result });
        }));
    }

    fn running_unparked(&self) -> usize {
        self.jobs
            .iter()
            .filter(|e| e.phase == JobPhase::Running && !e.paused)
            .count()
    }

    /// Runs the barrier: blocks until every running job is parked at a
    /// wave boundary or finished, finalizing completions and promoting
    /// waiting jobs into freed slots (FIFO per arrival, skipping tenants
    /// whose slots are still full) until the fleet is quiescent.
    fn settle(&mut self) -> Result<()> {
        loop {
            while self.running_unparked() > 0 {
                match self.rx.recv() {
                    Ok(FromJob::Paused { id, progress }) => {
                        let entry = &mut self.jobs[id as usize];
                        entry.paused = true;
                        entry.progress = Some(progress);
                    }
                    Ok(FromJob::Done { id, result }) => {
                        let entry = &mut self.jobs[id as usize];
                        entry.paused = false;
                        match result {
                            Ok(outcome) => {
                                entry.phase = JobPhase::Finished;
                                entry.outcome = Some(outcome);
                            }
                            Err(msg) => {
                                entry.phase = JobPhase::Failed;
                                entry.error = Some(msg);
                            }
                        }
                    }
                    Err(_) => {
                        return Err(Error::job(
                            "a job thread exited without reporting completion",
                        ));
                    }
                }
            }
            // Quiescent: finalize completions in admission order, then
            // promote waiters into the freed slots. Both mutate books and
            // trace deterministically — no job thread is running here.
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
    /// quarantine-file write. Runs only at quiescent points, in id order.
    fn finalize(&mut self, id: u32) -> Result<()> {
        let entry = &mut self.jobs[id as usize];
        entry.finalized = true;
        entry.cmd = None;
        if let Some(h) = entry.handle.take() {
            h.join()
                .map_err(|_| Error::job(format!("job {id} thread panicked")))?;
        }
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
                quarantine_of(
                    tenant,
                    id,
                    &entry.label,
                    entry.faults.seed,
                    &outcome.job.dlq,
                )
                .write_to(&path)?;
                self.jobs[id as usize].dlq_path = Some(path);
            }
        }
        Ok(())
    }

    /// Advances the fleet by one wave: grants every parked job its next
    /// micro-batch **in admission order**, then barriers until all of
    /// them park again. Returns `false` once no job is running or
    /// waiting (the server is drained).
    pub fn step(&mut self) -> Result<bool> {
        let parked: Vec<u32> = (0..self.jobs.len() as u32)
            .filter(|&id| {
                let e = &self.jobs[id as usize];
                e.phase == JobPhase::Running && e.paused
            })
            .collect();
        if parked.is_empty() && self.wait_queue.is_empty() {
            return Ok(false);
        }
        self.round += 1;
        for id in parked {
            let entry = &mut self.jobs[id as usize];
            entry.waves += 1;
            entry.paused = false;
            let wave = entry.waves;
            let tenant = entry.tenant;
            self.trace.push(TraceEvent::WaveGrant {
                t: self.round,
                tenant,
                job: id,
                wave,
            });
            let cmd = self.jobs[id as usize]
                .cmd
                .as_ref()
                .expect("running job keeps its command channel");
            cmd.send(ToJob::Continue)
                .map_err(|_| Error::job(format!("job {id} hung up mid-run")))?;
        }
        self.settle()?;
        Ok(true)
    }

    /// Steps until every admitted job has finished.
    pub fn run_to_completion(&mut self) -> Result<()> {
        while self.step()? {}
        Ok(())
    }

    /// Answers a query against `job`'s live state. A running job answers
    /// from its parked [`BatchCtl`] (resident partial aggregates); a
    /// finished job answers from its final outcome.
    pub fn query(&self, job: u32, query: &ServeQuery) -> Result<ServeAnswer> {
        let entry = self
            .jobs
            .get(job as usize)
            .ok_or_else(|| Error::job(format!("unknown job {job}")))?;
        match entry.phase {
            JobPhase::Running => {
                let cmd = entry.cmd.as_ref().expect("running job has a channel");
                let (reply_tx, reply_rx) = channel();
                cmd.send(ToJob::Query {
                    query: query.clone(),
                    reply: reply_tx,
                })
                .map_err(|_| Error::job(format!("job {job} hung up")))?;
                reply_rx
                    .recv()
                    .map_err(|_| Error::job(format!("job {job} dropped a query")))
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
    /// fixed the UDF" recovery path. Runs inline (solo) and returns the
    /// fresh outcome; the engine's determinism makes it bit-identical to
    /// a fault-free run of the same spec.
    pub fn replay_dlq(&mut self, job: u32) -> Result<Box<StreamOutcome>> {
        let entry = self
            .jobs
            .get(job as usize)
            .ok_or_else(|| Error::job(format!("unknown job {job}")))?;
        if entry.phase != JobPhase::Finished {
            return Err(Error::job(format!("job {job} has not finished")));
        }
        let entries = entry.outcome.as_ref().map_or(0, |o| o.job.dlq.len() as u64);
        let runner = entry.runner.clone().expect("finished job keeps its runner");
        let mut faults = entry.faults;
        faults.udf_poison_rate = 0.0;
        let tenant = entry.tenant;
        let outcome = runner(faults, &mut |_ctl| {})?;
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

impl Drop for Server {
    fn drop(&mut self) {
        // Unpark every surviving job thread (dropping its command channel
        // makes the pause callback return immediately) and join, so no
        // thread outlives the server.
        for entry in &mut self.jobs {
            entry.cmd = None;
        }
        for entry in &mut self.jobs {
            if let Some(h) = entry.handle.take() {
                let _ = h.join();
            }
        }
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
    match query {
        // After completion the resident state is gone; the final output
        // pairs are the authoritative answer.
        ServeQuery::Lookup(key) => ServeAnswer::Value(
            outcome
                .job
                .output
                .iter()
                .find(|p| &p.key == key)
                .map(|p| p.value.clone()),
        ),
        ServeQuery::LookupBatch(keys) => ServeAnswer::Values(
            keys.iter()
                .map(|key| {
                    outcome
                        .job
                        .output
                        .iter()
                        .find(|p| &p.key == key)
                        .map(|p| p.value.clone())
                })
                .collect(),
        ),
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

fn quarantine_of(
    tenant: u32,
    job: u32,
    label: &str,
    seed: u64,
    dlq: &[PoisonedRecord],
) -> QuarantineFile {
    QuarantineFile {
        tenant,
        job,
        job_name: label.to_string(),
        seed,
        entries: dlq
            .iter()
            .map(|p| QuarantineEntry {
                chunk: p.chunk,
                attempt: p.attempt,
                offset: p.offset,
                record: p.record.clone(),
            })
            .collect(),
    }
}
