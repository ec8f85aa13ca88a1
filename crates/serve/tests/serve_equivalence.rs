//! The serving subsystem's guards: the dead-letter queue and its replay,
//! backpressure books, batched lookups, and a panicking UDF that fails
//! only its own job — whose neighbours' outcomes (output pairs in order,
//! the full metrics block, the trace CRC and the DLQ) stay bit-identical
//! to a solo `StreamJobBuilder` run. That interleaved tenants each get
//! their batch run's outcome, and that the serving trace, books and round
//! are a function of the submissions, is a relation of the root
//! `tests/option_space.rs`.

use opa_common::{ExecConfig, FaultConfig, Key, Value};
use opa_core::api::{Combiner, IncrementalReducer, Job, ReduceCtx};
use opa_core::cluster::{ClusterSpec, Framework};
use opa_core::job::JobInput;
use opa_serve::{AdmissionOutcome, JobPhase, JobSpec, ServeConfig, ServeQuery, Server};
use opa_simio::codec::crc32;
use opa_stream::{StreamJobBuilder, StreamOutcome};
use opa_workloads::clickstream::ClickStreamSpec;
use opa_workloads::ClickCountJob;
use std::sync::Arc;

fn input() -> Arc<JobInput> {
    Arc::new(ClickStreamSpec::counting_scaled(1 << 20).generate(42))
}

fn click_count() -> ClickCountJob {
    ClickCountJob {
        expected_users: 2_000,
    }
}

/// The reference run: the same job driven by `StreamJobBuilder`
/// directly, with nobody else on the machine.
fn solo(
    spec: &JobSpec,
    job: impl opa_core::api::Job + Clone + 'static,
    input: &JobInput,
) -> StreamOutcome {
    StreamJobBuilder::new(job)
        .framework(spec.framework)
        .cluster(spec.cluster)
        .exec(spec.exec)
        .km_hint(spec.km_hint)
        .admission(spec.admission)
        .faults(spec.faults)
        .batches(spec.batches)
        .trace(spec.trace)
        .run_stream(input, |_| {})
        .expect("solo run")
}

fn trace_crc(o: &StreamOutcome) -> Option<u32> {
    o.job.trace.as_ref().map(|t| crc32(t.to_jsonl().as_bytes()))
}

/// Field-by-field bit-identity of the parts of a `JobOutcome` the
/// acceptance criteria name: output, metrics, trace CRC — plus the DLQ
/// and the stream bookkeeping for good measure.
fn assert_outcome_identical(served: &StreamOutcome, solo: &StreamOutcome, ctx: &str) {
    assert_eq!(served.job.output, solo.job.output, "{ctx}: output diverged");
    assert_eq!(
        served.job.metrics, solo.job.metrics,
        "{ctx}: metrics diverged"
    );
    assert_eq!(
        trace_crc(served),
        trace_crc(solo),
        "{ctx}: trace CRC diverged"
    );
    assert_eq!(served.job.dlq, solo.job.dlq, "{ctx}: DLQ diverged");
    assert_eq!(served.batches, solo.batches, "{ctx}: batch count diverged");
}

fn spec_at(threads: usize, faults: FaultConfig) -> JobSpec {
    JobSpec {
        framework: Framework::IncHash,
        cluster: ClusterSpec::tiny(),
        batches: 4,
        // `oversubscribed` lifts the engine's host-core cap so the
        // matrix runs its nominal thread count even on a 1-CPU host.
        exec: ExecConfig::oversubscribed(threads),
        km_hint: 1.0,
        admission: opa_common::AdmissionPolicy::Off,
        faults,
        trace: true,
    }
}

/// A poisoned record lands in the DLQ with full provenance, the job
/// still finishes, the quarantine file round-trips, and replaying the
/// DLQ with the poison cleared reproduces the fault-free solo output.
#[test]
fn poison_quarantines_with_provenance_and_replay_restores_output() {
    let data = input();
    let dir = std::env::temp_dir().join("opa-serve-equivalence-dlq");
    std::fs::remove_dir_all(&dir).ok();
    let poisoned = spec_at(2, FaultConfig::poison(11, 0.002));

    let mut server = Server::new(ServeConfig::default()).dlq_dir(&dir);
    let receipt = server
        .submit(5, click_count(), Arc::clone(&data), &poisoned)
        .expect("submit");
    server.run_to_completion().expect("drain");

    // The job finished despite the poison, and each quarantined record
    // carries its provenance.
    let status = &server.status()[receipt.job as usize];
    assert_eq!(status.phase, JobPhase::Finished);
    let dlq = server.dlq(receipt.job).expect("dlq").to_vec();
    assert!(!dlq.is_empty(), "poison at 0.002 quarantined nothing");
    let n_records = data.len() as u64;
    for rec in &dlq {
        assert!(rec.offset < n_records, "offset outside the input");
        assert!(!rec.record.is_empty(), "quarantined record body lost");
        assert!(
            poisoned.faults.poisons(rec.offset),
            "quarantined offset is not one the fault model poisons"
        );
    }

    // The quarantine file on disk agrees with the in-memory DLQ.
    let path = server.dlq_path(receipt.job).expect("dlq file written");
    let file = opa_serve::QuarantineFile::read_from(path).expect("decodes");
    assert_eq!(file.tenant, 5);
    assert_eq!(file.job, receipt.job);
    assert_eq!(file.entries.len(), dlq.len());
    for (e, r) in file.entries.iter().zip(&dlq) {
        assert_eq!(
            (e.chunk, e.attempt, e.offset),
            (r.chunk, r.attempt, r.offset)
        );
        assert_eq!(e.record, r.record);
    }
    // What the file decodes to holds through any change of the container.
    assert_eq!(
        crc32(format!("{file:?}").as_bytes()),
        1_536_046_744,
        "decoded quarantine drifted"
    );

    // Replay with the poison cleared ≡ the fault-free solo run.
    let clean = spec_at(2, FaultConfig::disabled());
    let reference = solo(&clean, click_count(), &data);
    let replayed = server.replay_dlq(receipt.job).expect("replay");
    assert!(replayed.job.dlq.is_empty(), "replay still quarantined");
    assert_eq!(
        replayed.job.output, reference.job.output,
        "replay did not restore the fault-free output"
    );
    assert_eq!(
        replayed.job.metrics.output_records,
        reference.job.metrics.output_records
    );

    // And the poisoned run really did drop records relative to clean.
    let served = server.outcome(receipt.job).unwrap();
    assert!(
        served.job.metrics.output_records <= reference.job.metrics.output_records,
        "poisoned run output more records than the clean run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Backpressure bookkeeping: quota rejections, shared-queue rejections
/// and FIFO promotion all reconcile, and rejected jobs never execute.
#[test]
fn quota_and_queue_backpressure_books_reconcile() {
    let data = input();
    let spec = spec_at(1, FaultConfig::disabled());
    let cfg = ServeConfig {
        slots_per_tenant: 1,
        queue_per_tenant: 1,
        queue_total: 2,
    };
    let mut server = Server::new(cfg);

    // Tenant 0: one runs, one queues, the third bounces off its quota.
    let outcomes: Vec<AdmissionOutcome> = (0..3)
        .map(|_| {
            server
                .submit(0, click_count(), Arc::clone(&data), &spec)
                .expect("submit")
                .outcome
        })
        .collect();
    assert_eq!(
        outcomes,
        vec![
            AdmissionOutcome::Started,
            AdmissionOutcome::Queued,
            AdmissionOutcome::RejectedQuota
        ]
    );
    // Tenants 1 and 2 run; tenant 3's queue attempt hits the shared cap
    // (tenant 0 already holds one of the two shared waiting slots).
    for tenant in 1..=2 {
        assert_eq!(
            server
                .submit(tenant, click_count(), Arc::clone(&data), &spec)
                .expect("submit")
                .outcome,
            AdmissionOutcome::Started
        );
        assert_eq!(
            server
                .submit(tenant, click_count(), Arc::clone(&data), &spec)
                .expect("submit")
                .outcome,
            if tenant == 1 {
                AdmissionOutcome::Queued
            } else {
                AdmissionOutcome::RejectedQueue
            }
        );
    }

    server.run_to_completion().expect("drain");
    for (tenant, book) in server.books() {
        assert!(book.reconciles(), "tenant {tenant} book does not reconcile");
        assert_eq!(book.running, 0);
        assert_eq!(book.waiting, 0);
        assert_eq!(book.started, book.finished, "tenant {tenant} lost a job");
    }
    let b0 = server.book(0).expect("tenant 0 book");
    assert_eq!((b0.submitted, b0.admitted, b0.rejected_quota), (3, 2, 1));
    assert!(b0.wait_rounds > 0, "queued job waited zero rounds");
    let b2 = server.book(2).expect("tenant 2 book");
    assert_eq!((b2.submitted, b2.admitted, b2.rejected_queue), (2, 1, 1));

    // Rejected submissions never ran and finished jobs answer queries.
    let status = server.status();
    let rejected = status
        .iter()
        .filter(|s| s.phase == JobPhase::Rejected)
        .count();
    assert_eq!(rejected, 2);
    for s in status.iter().filter(|s| s.phase == JobPhase::Rejected) {
        assert_eq!(s.waves, 0, "rejected job was granted a wave");
    }
    let finished = status
        .iter()
        .find(|s| s.phase == JobPhase::Finished)
        .expect("a finished job");
    match server
        .query(finished.job, &ServeQuery::Progress)
        .expect("progress query")
    {
        opa_serve::ServeAnswer::Progress(p) => assert_eq!(p.batches_sealed, spec.batches),
        other => panic!("unexpected answer {other:?}"),
    }
}

/// `LookupBatch` must agree element-wise with per-key `Lookup`s against
/// both a *running* job (parked live state) and a *finished* one (final
/// output), and must answer the whole batch in one call.
#[test]
fn batched_lookup_matches_single_lookups_live_and_finished() {
    let spec = spec_at(1, FaultConfig::disabled());
    let mut server = Server::new(ServeConfig::default());
    let receipt = server
        .submit(0, click_count(), input(), &spec)
        .expect("submission accepted");
    assert_eq!(receipt.outcome, AdmissionOutcome::Started);
    let keys: Vec<Key> = (0..96).map(Key::from_u64).collect();

    let check = |server: &Server, ctx: &str| {
        let answer = server
            .query(0, &ServeQuery::LookupBatch(keys.clone()))
            .expect("batch lookup");
        let opa_serve::ServeAnswer::Values(vals) = answer else {
            panic!("{ctx}: LookupBatch answered a non-Values variant");
        };
        assert_eq!(vals.len(), keys.len(), "{ctx}: answer count");
        let mut hits = 0usize;
        for (key, batched) in keys.iter().zip(&vals) {
            let single = server
                .query(0, &ServeQuery::Lookup(key.clone()))
                .expect("single lookup");
            let opa_serve::ServeAnswer::Value(v) = single else {
                panic!("{ctx}: Lookup answered a non-Value variant");
            };
            assert_eq!(&v, batched, "{ctx}: key {key:?} disagrees");
            hits += usize::from(batched.is_some());
        }
        hits
    };

    // Live: step past the first wave so resident state exists.
    server.step().expect("wave step");
    server.step().expect("wave step");
    let live_hits = check(&server, "live");

    server.run_to_completion().expect("server drains");
    let finished_hits = check(&server, "finished");
    assert!(
        live_hits > 0 && finished_hits > 0,
        "vacuous: no probe key ever resolved (live {live_hits}, finished {finished_hits})"
    );
}

/// `ClickCountJob` whose `map` panics on one chosen input record.
#[derive(Clone)]
struct PanicsOn {
    inner: ClickCountJob,
    record: Vec<u8>,
}

impl Job for PanicsOn {
    fn name(&self) -> &str {
        "click counting with a landmine"
    }
    fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
        assert!(record != self.record, "landmine record reached the UDF");
        self.inner.map(record, emit);
    }
    fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
        self.inner.reduce(key, values, ctx);
    }
    fn combiner(&self) -> Option<&dyn Combiner> {
        self.inner.combiner()
    }
    fn incremental(&self) -> Option<&dyn IncrementalReducer> {
        self.inner.incremental()
    }
    fn expected_keys(&self) -> Option<u64> {
        self.inner.expected_keys()
    }
}

/// A bad UDF fails its job, never the server: a `map` that panics turns
/// that job `Failed`, frees its tenant's slot for the queued job, lets
/// the server drain, and leaves every other job identical to its solo
/// twin.
#[test]
fn a_panicking_udf_fails_its_job_and_nothing_else() {
    let data = input();
    // One thread: the panic unwinds the job thread itself. Two: it
    // unwinds a pool worker and reaches the job thread through
    // `assert_healthy`.
    for threads in [1usize, 2] {
        let spec = spec_at(threads, FaultConfig::disabled());
        let landmine = PanicsOn {
            inner: click_count(),
            // In the third of four batches: the job has parked at wave
            // boundaries, interleaved with its neighbour, before it dies.
            record: data.records[data.len() * 5 / 8].to_vec(),
        };

        let mut server = Server::new(ServeConfig {
            slots_per_tenant: 1,
            queue_per_tenant: 2,
            queue_total: 4,
        });
        let bad = server
            .submit(0, landmine, Arc::clone(&data), &spec)
            .expect("submit bad");
        let queued = server
            .submit(0, click_count(), Arc::clone(&data), &spec)
            .expect("submit queued");
        let good = server
            .submit(1, click_count(), Arc::clone(&data), &spec)
            .expect("submit good");
        assert_eq!(bad.outcome, AdmissionOutcome::Started);
        assert_eq!(queued.outcome, AdmissionOutcome::Queued);
        assert_eq!(good.outcome, AdmissionOutcome::Started);

        server.run_to_completion().expect("server drains");

        let status = server.status();
        let failed = &status[bad.job as usize];
        assert_eq!(failed.phase, JobPhase::Failed, "@ {threads} threads");
        let error = failed.error.as_deref().expect("failure message");
        assert!(error.starts_with("job panicked: "), "got {error:?}");
        assert!(failed.waves >= 2, "the job ran waves before it died");
        assert!(server.outcome(bad.job).is_none());

        // The slot came back: tenant 0's queued job started and finished.
        let book = server.book(0).expect("tenant 0 book");
        assert_eq!((book.failed, book.finished, book.running), (1, 1, 0));
        assert!(book.reconciles());

        let twin = solo(&spec, click_count(), &data);
        for job in [queued.job, good.job] {
            assert_outcome_identical(
                server.outcome(job).expect("finished"),
                &twin,
                &format!("job {job} next to a panicking tenant @ {threads} threads"),
            );
        }
    }
}
