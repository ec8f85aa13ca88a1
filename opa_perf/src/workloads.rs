//! The six workloads: what each runs, how its input is generated from the
//! seed, the reference answer it is checked against, and one closed-loop
//! operation of it through the engine's public entry points.
//!
//! Load shape: one client, closed loop — the next job (or query) is issued
//! when the previous one has returned. The engine only ever sees the
//! generated [`JobInput`]; the seed never reaches it.

use crate::host::{self, TempDir};
use opa_common::rng::SplitMix64;
use opa_common::{ExecConfig, Key, Pair};
use opa_core::api::Job;
use opa_core::cluster::{ClusterSpec, Framework};
use opa_core::dataflow::{Dataflow, DataflowOutcome};
use opa_core::job::{JobBuilder, JobInput, JobOutcome};
use opa_serve::{AdmissionOutcome, JobPhase, JobSpec, ServeConfig, ServeQuery, Server};
use opa_stream::{BatchCtl, StreamJobBuilder, StreamOutcome};
use opa_workloads::clickstream::{parse_click, ClickStreamSpec};
use opa_workloads::documents::DocumentSpec;
use opa_workloads::{
    ClickCountJob, PageFreqJob, PageRankInitJob, PageRankRoundJob, SessionizeJob, TrigramCountJob,
};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Click log size: 262 144 records of 96 bytes, ~8.7 k distinct users.
const CLICK_BYTES: u64 = 24 << 20;
/// Document corpus size: ~10 k documents of 120 words.
const DOC_BYTES: u64 = 8 << 20;
/// `--smoke` divides both inputs by this.
const SMOKE_DIVISOR: u64 = 16;
/// The paper's cluster at 1/4096 scale — a quarter of the engine's stock
/// 1/1024 preset, matching inputs a quarter of the stock benches' — so the
/// data-to-memory ratios (and with them spills and key-space overflow)
/// stay where the paper has them.
const CLUSTER_SCALE: u64 = 4096;
/// 64 KB map chunks: 384 map tasks over the click log, 128 over the docs.
const CHUNK_BYTES: u64 = 64 * 1024;

pub const STREAM_BATCHES: usize = 16;
pub const STREAM_CKPT_EVERY: usize = 4;
/// Periodic checkpoints of one streamed run (after batches 4, 8 and 12).
pub const STREAM_CKPTS: usize = (STREAM_BATCHES - 1) / STREAM_CKPT_EVERY;
/// Point lookups the stream client sends per pause, timed in blocks.
const STREAM_LOOKUPS_PER_PAUSE: usize = 256;
pub const LOOKUP_BLOCK: usize = 64;

pub const SERVE_JOBS_PER_KIND: usize = 4;
pub const SERVE_BATCHES: usize = 8;
pub const PAGERANK_ROUNDS: usize = 5;

/// Size of the seeded lookup-key pool drawn from the input's user ids.
const KEY_POOL: usize = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TrigramInc,
    SessionsDinc,
    ClicksInc,
    ClicksStream,
    ServeMix,
    PagerankFlow,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::TrigramInc,
        Workload::SessionsDinc,
        Workload::ClicksInc,
        Workload::ClicksStream,
        Workload::ServeMix,
        Workload::PagerankFlow,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrigramInc => "trigram_inc",
            Workload::SessionsDinc => "sessions_dinc",
            Workload::ClicksInc => "clicks_inc",
            Workload::ClicksStream => "clicks_stream",
            Workload::ServeMix => "serve_mix",
            Workload::PagerankFlow => "pagerank_flow",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line for `BENCHMARK.json`: why this workload is in the set.
    pub fn why(self) -> &'static str {
        match self {
            Workload::TrigramInc => {
                "TrigramCountJob/INC-hash over docs: heaviest map UDF (~46% of wall in map \
                 compute) and a key space that overflows reduce memory (~30% in spilled-bucket \
                 finish); the row threads help most (1.5x at 2)"
            }
            Workload::SessionsDinc => {
                "SessionizeJob/DINC-hash over clicks: large per-key state under the FREQUENT \
                 monitor, so reduce delivery is half the wall and the serial scheduler side \
                 makes threads lose (0.6x at 2)"
            }
            Workload::ClicksInc => {
                "ClickCountJob/INC-hash over clicks: cheapest UDF and state, so per-task \
                 scheduling, replay and glue weigh most (threads lose, 0.66x at 2); the bypass \
                 row for UDF and spill work"
            }
            Workload::ClicksStream => {
                "clicks_inc's job and input through opa-stream (16 batches, 3 checkpoints, \
                 live lookups): isolates stream-only cost against clicks_inc"
            }
            Workload::ServeMix => {
                "opa-serve draining 4 ClickCount/INC-hash + 4 PageFreq/sort-merge jobs with \
                 lookups between steps: the only request-serving path and the only \
                 sort-merge row"
            }
            Workload::PagerankFlow => {
                "Dataflow chain PageRankInit + 5 PageRankRound under MR-hash: the in-memory \
                 handoff with an honest reshuffle every round, and the only MR-hash row"
            }
        }
    }

    /// The batch job whose layers the traced pass profiles for this
    /// workload: the workload's own job where it is a single job, its
    /// sort-merge tenant for `serve_mix` (the layers no other row runs)
    /// and the chain's first stage for `pagerank_flow`.
    pub fn layer_job(self) -> JobKind {
        match self {
            Workload::TrigramInc => JobKind::Trigram,
            Workload::SessionsDinc => JobKind::Sessionize,
            Workload::ClicksInc | Workload::ClicksStream => JobKind::ClickCount,
            Workload::ServeMix => JobKind::PageFreq,
            Workload::PagerankFlow => JobKind::PageRankInit,
        }
    }
}

/// The batch jobs the workloads are built from, each with the framework
/// it is measured under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    Trigram,
    Sessionize,
    ClickCount,
    PageFreq,
    PageRankInit,
}

fn trigram_job() -> TrigramCountJob {
    TrigramCountJob {
        // The paper's threshold of 1000 leaves no output at this corpus
        // size; 8 keeps a few thousand trigrams for the answer check.
        threshold: 8,
        expected_trigrams: 1 << 20,
    }
}

fn sessionize_job() -> SessionizeJob {
    SessionizeJob {
        gap_secs: 300,
        slack_secs: 400,
        state_capacity: 512,
        charge_fixed_footprint: true,
        expected_users: 50_000,
    }
}

fn click_count_job() -> ClickCountJob {
    ClickCountJob {
        expected_users: 50_000,
    }
}

fn page_freq_job() -> PageFreqJob {
    PageFreqJob {
        expected_pages: 100_000,
    }
}

impl JobKind {
    pub fn framework(self) -> Framework {
        match self {
            JobKind::Trigram | JobKind::ClickCount => Framework::IncHash,
            JobKind::Sessionize => Framework::DincHash,
            JobKind::PageFreq => Framework::SortMerge,
            JobKind::PageRankInit => Framework::MrHash,
        }
    }

    /// The framework the reference answer is computed under: sort-merge,
    /// or MR-hash where the measured framework is itself sort-merge.
    pub fn reference_framework(self) -> Framework {
        other_framework(self.framework())
    }

    /// Map output/input ratio hint (the trigram map emits ~8 bytes per
    /// input byte; the click jobs shrink their input).
    pub fn km_hint(self) -> f64 {
        match self {
            JobKind::Trigram => 8.0,
            _ => 1.0,
        }
    }

    pub fn boxed(self) -> Box<dyn Job> {
        match self {
            JobKind::Trigram => Box::new(trigram_job()),
            JobKind::Sessionize => Box::new(sessionize_job()),
            JobKind::ClickCount => Box::new(click_count_job()),
            JobKind::PageFreq => Box::new(page_freq_job()),
            JobKind::PageRankInit => Box::new(PageRankInitJob),
        }
    }

    /// One batch run through `JobBuilder::run`.
    pub fn run(
        self,
        framework: Framework,
        cluster: ClusterSpec,
        exec: ExecConfig,
        trace: bool,
        input: &JobInput,
    ) -> JobOutcome {
        fn go<J: Job>(
            job: J,
            km: f64,
            framework: Framework,
            cluster: ClusterSpec,
            exec: ExecConfig,
            trace: bool,
            input: &JobInput,
        ) -> JobOutcome {
            JobBuilder::new(job)
                .framework(framework)
                .cluster(cluster)
                .km_hint(km)
                .exec(exec)
                .trace(trace)
                .run(input)
                .expect("benchmark job runs")
        }
        let km = self.km_hint();
        match self {
            JobKind::Trigram => go(trigram_job(), km, framework, cluster, exec, trace, input),
            JobKind::Sessionize => go(sessionize_job(), km, framework, cluster, exec, trace, input),
            JobKind::ClickCount => go(
                click_count_job(),
                km,
                framework,
                cluster,
                exec,
                trace,
                input,
            ),
            JobKind::PageFreq => go(page_freq_job(), km, framework, cluster, exec, trace, input),
            JobKind::PageRankInit => {
                go(PageRankInitJob, km, framework, cluster, exec, trace, input)
            }
        }
    }
}

fn other_framework(f: Framework) -> Framework {
    if f == Framework::SortMerge {
        Framework::MrHash
    } else {
        Framework::SortMerge
    }
}

/// Engine threading for a pass: `threads` engine threads, lifting the
/// engine's host-core cap only when the host has fewer CPUs than that
/// (the one-CPU case, reported as `oversubscribed`).
pub fn exec_for(threads: usize) -> ExecConfig {
    if threads > host::nproc() {
        ExecConfig::oversubscribed(threads)
    } else {
        ExecConfig::with_threads(threads)
    }
}

/// Order-independent digest of an output: the record count and the
/// wrapping sum of a 64-bit hash of every ⟨key, value⟩. Equal multisets of
/// pairs give equal digests whatever order reducers emitted them in,
/// without cloning and sorting a million-pair output after every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub records: u64,
    pub sum: u64,
}

pub fn digest<'a>(pairs: impl IntoIterator<Item = &'a Pair>) -> Digest {
    digest_of(pairs.into_iter().map(|p| (p.key.bytes(), p.value.bytes())))
}

fn digest_of<'a>(pairs: impl Iterator<Item = (&'a [u8], &'a [u8])>) -> Digest {
    let mut d = Digest { records: 0, sum: 0 };
    for (key, value) in pairs {
        // FNV-1a over (key length, key, value) — independent of the
        // engine's own hash family — then a SplitMix64 finalizer so the
        // sum does not cancel on structured inputs.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let klen = (key.len() as u32).to_le_bytes();
        for &b in klen.iter().chain(key).chain(value) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        d.sum = d.sum.wrapping_add(h ^ (h >> 31));
        d.records += 1;
    }
    d
}

impl JobKind {
    /// Digest of the part of `output` every framework must agree on. Two
    /// jobs emit early, so part of each pair is legitimately
    /// framework-dependent: the trigram job emits a key once, with the
    /// count at the moment it crossed the threshold (the key set is the
    /// answer), and DINC-hash may anchor a session label on a later click
    /// of the session (every click exactly once, with its timestamp and
    /// tail, is the answer). The other jobs are compared whole.
    pub fn answer_digest(self, output: &[Pair]) -> Digest {
        const SESSION_LABEL: usize = 8;
        match self {
            JobKind::Trigram => digest_of(output.iter().map(|p| (p.key.bytes(), &[][..]))),
            JobKind::Sessionize => digest_of(output.iter().map(|p| {
                let v = p.value.bytes();
                (p.key.bytes(), v.get(SESSION_LABEL..).unwrap_or(v))
            })),
            _ => digest(output),
        }
    }
}

/// Operations attempted and failed. An operation is one job run (its
/// output must equal the reference), one query (must be answered), one
/// checkpoint (must be written and decode) or one submission (must be
/// admitted or queued as designed).
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("opa_perf: FAILED op: {}", what());
        }
    }

    /// `n` operations that cannot fail individually (e.g. a block of
    /// lookups timed together), of which `failed` did.
    pub fn bulk(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }
}

pub struct Prepared {
    pub workload: Workload,
    /// 1/16-scale inputs: checks that need the full input's regime (the
    /// trigram row's reduce-side spill) are waived.
    pub smoke: bool,
    pub input: Arc<JobInput>,
    pub cluster: ClusterSpec,
    /// Reference answer of every job kind the workload runs, and of the
    /// PageRank chain for `pagerank_flow`.
    references: Vec<Reference>,
    chain_reference: Option<Digest>,
    /// Seeded pool of user-id keys present in the input (click workloads).
    pub keys: Vec<Key>,
    pub tmp: TempDir,
}

impl Prepared {
    pub fn records(&self) -> usize {
        self.input.len()
    }

    /// Input records one operation processes.
    pub fn records_per_op(&self) -> usize {
        match self.workload {
            Workload::ServeMix => 2 * SERVE_JOBS_PER_KIND * self.records(),
            _ => self.records(),
        }
    }

    fn reference(&self, kind: JobKind) -> &Reference {
        self.references
            .iter()
            .find(|r| r.kind == kind)
            .expect("set-up computed a reference for every job kind the workload runs")
    }

    /// Whether `output` is a right answer of `kind`: it agrees with the
    /// solo run under another framework on everything frameworks must
    /// agree on, and it is bit-identical to every earlier run of the
    /// measured framework (the engine's determinism contract — at any
    /// thread count, streamed, served or driven layer by layer).
    pub fn output_is_right(&self, kind: JobKind, output: &[Pair]) -> Result<(), String> {
        let reference = self.reference(kind);
        let answer = kind.answer_digest(output);
        if answer != reference.answer {
            return Err(format!(
                "{kind:?} answer {answer:?} != reference {:?} under {}",
                reference.answer,
                kind.reference_framework().label()
            ));
        }
        let whole = digest(output);
        let first = *reference.first_run.get_or_init(|| whole);
        if whole != first {
            return Err(format!(
                "{kind:?} output {whole:?} != first run's {first:?}"
            ));
        }
        Ok(())
    }
}

struct Reference {
    kind: JobKind,
    /// [`JobKind::answer_digest`] of the solo run under the other framework.
    answer: Digest,
    /// Whole-output digest of the first run under the measured framework.
    first_run: OnceLock<Digest>,
}

/// How long each part of one set-up took.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub gen_s: f64,
    pub reference_s: f64,
    pub warmup_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.gen_s + self.reference_s + self.warmup_s
    }
}

pub fn cluster() -> ClusterSpec {
    let mut spec = ClusterSpec::paper_scaled_at(CLUSTER_SCALE);
    spec.system.chunk_size = CHUNK_BYTES;
    spec
}

fn generate(w: Workload, seed: u64, smoke: bool) -> JobInput {
    let div = if smoke { SMOKE_DIVISOR } else { 1 };
    match w {
        Workload::TrigramInc => DocumentSpec::paper_scaled(DOC_BYTES / div).generate(seed),
        _ => ClickStreamSpec::paper_scaled(CLICK_BYTES / div).generate(seed),
    }
}

fn key_pool(input: &JobInput, seed: u64) -> Vec<Key> {
    let mut rng = SplitMix64::new(seed ^ 0x6b65_7973);
    (0..KEY_POOL)
        .filter_map(|_| {
            let rec = &input.records[rng.next_below(input.len() as u64) as usize];
            parse_click(rec).map(|(_, user, _)| Key::from_u64(user))
        })
        .collect()
}

fn pagerank_chain(cluster: ClusterSpec, framework: Framework, exec: ExecConfig) -> Dataflow {
    let mut flow = Dataflow::new(cluster).then(PageRankInitJob, framework);
    for _ in 0..PAGERANK_ROUNDS {
        flow = flow.then(PageRankRoundJob, framework);
    }
    flow.exec(exec)
}

pub fn run_pagerank(prep: &Prepared, framework: Framework, exec: ExecConfig) -> DataflowOutcome {
    pagerank_chain(prep.cluster, framework, exec)
        .run(&prep.input)
        .expect("pagerank chain runs")
}

/// Set-up of one workload: generate the input from the seed, compute the
/// reference answer (the same job or chain, solo, one thread, under a
/// different framework), and run the workload once untimed so lazy
/// initialisation and allocator growth are paid before measurement.
pub fn setup(w: Workload, seed: u64, smoke: bool) -> (Prepared, SetupTimes) {
    let t0 = Instant::now();
    let input = Arc::new(generate(w, seed, smoke));
    let keys = match w {
        Workload::TrigramInc => Vec::new(),
        _ => key_pool(&input, seed),
    };
    let gen_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let cluster = cluster();
    let kinds: &[JobKind] = match w {
        Workload::ServeMix => &[JobKind::ClickCount, JobKind::PageFreq],
        Workload::PagerankFlow => &[JobKind::PageRankInit],
        _ => &[w.layer_job()],
    };
    let references = kinds
        .iter()
        .map(|&k| {
            let solo = k.run(
                k.reference_framework(),
                cluster,
                ExecConfig::sequential(),
                false,
                &input,
            );
            Reference {
                kind: k,
                answer: k.answer_digest(&solo.output),
                first_run: OnceLock::new(),
            }
        })
        .collect();
    let mut prep = Prepared {
        workload: w,
        smoke,
        input,
        cluster,
        references,
        chain_reference: None,
        keys,
        tmp: TempDir::new(w.name()).expect("benchmark temp dir under the build directory"),
    };
    if w == Workload::PagerankFlow {
        let solo = run_pagerank(
            &prep,
            other_framework(Framework::MrHash),
            ExecConfig::sequential(),
        );
        prep.chain_reference = Some(digest(solo.output.pairs()));
    }
    let reference_s = t1.elapsed().as_secs_f64();

    let t2 = Instant::now();
    let mut warm = Ops::default();
    run_once(&prep, 1, &mut warm);
    assert_eq!(
        warm.failed,
        0,
        "warm-up run of {} failed its checks",
        w.name()
    );
    let warmup_s = t2.elapsed().as_secs_f64();
    (
        prep,
        SetupTimes {
            gen_s,
            reference_s,
            warmup_s,
        },
    )
}

/// What one operation of a workload measured.
#[derive(Debug, Default, Clone)]
pub struct Sample {
    /// Wall time of the whole operation, seconds.
    pub wall_s: f64,
    /// Wall time, in ms, between consecutive moments the client could
    /// read a fresher answer: one per job or chain for the batch rows,
    /// one per pause callback when streaming, one per `step()` serving.
    pub gaps_ms: Vec<f64>,
    /// Point-lookup latencies as the client saw them, µs (stream lookups
    /// are timed in blocks of [`LOOKUP_BLOCK`] and divided).
    pub lookup_us: Vec<f64>,
    /// Latencies of the client's progress reads, µs.
    pub progress_us: Vec<f64>,
    /// Lookups that found a resident value.
    pub hits: u64,
}

/// One closed-loop operation at `threads` engine threads, checked against
/// the reference. For `serve_mix`, whose concurrency is its jobs, one
/// thread means one tenant (jobs run one at a time) and more means one
/// tenant per job kind (two jobs run concurrently, each engine sequential).
pub fn run_once(prep: &Prepared, threads: usize, ops: &mut Ops) -> Sample {
    match prep.workload {
        Workload::TrigramInc | Workload::SessionsDinc | Workload::ClicksInc => {
            let kind = prep.workload.layer_job();
            let t0 = Instant::now();
            let outcome = kind.run(
                kind.framework(),
                prep.cluster,
                exec_for(threads),
                false,
                &prep.input,
            );
            let wall_s = t0.elapsed().as_secs_f64();
            check_job(prep, kind, &outcome, ops);
            if prep.workload == Workload::TrigramInc && !prep.smoke {
                // The row exists for its spilled buckets; without spill it
                // would measure something else.
                ops.check(outcome.metrics.reduce_spill_bytes > 0, || {
                    "trigram_inc did not spill on the reduce side".to_string()
                });
            }
            Sample {
                wall_s,
                gaps_ms: vec![wall_s * 1e3],
                ..Sample::default()
            }
        }
        Workload::ClicksStream => stream_once(prep, threads, ops),
        Workload::ServeMix => serve_once(prep, threads > 1, ops).0,
        Workload::PagerankFlow => {
            let t0 = Instant::now();
            let outcome = run_pagerank(prep, Framework::MrHash, exec_for(threads));
            let wall_s = t0.elapsed().as_secs_f64();
            let got = digest(outcome.output.pairs());
            ops.check(Some(got) == prep.chain_reference, || {
                format!(
                    "pagerank chain output {got:?} != reference {:?}",
                    prep.chain_reference
                )
            });
            Sample {
                wall_s,
                gaps_ms: vec![wall_s * 1e3],
                ..Sample::default()
            }
        }
    }
}

pub fn check_job(prep: &Prepared, kind: JobKind, outcome: &JobOutcome, ops: &mut Ops) {
    let verdict = prep.output_is_right(kind, &outcome.output);
    ops.check(verdict.is_ok(), || verdict.unwrap_err());
}

pub fn stream_builder(
    prep: &Prepared,
    threads: usize,
    checkpoints: bool,
) -> StreamJobBuilder<ClickCountJob> {
    let b = StreamJobBuilder::new(click_count_job())
        .framework(JobKind::ClickCount.framework())
        .cluster(prep.cluster)
        .exec(exec_for(threads))
        .batches(STREAM_BATCHES);
    if checkpoints {
        b.checkpoint_every(STREAM_CKPT_EVERY)
            .checkpoint_dir(&prep.tmp.0)
    } else {
        b
    }
}

/// The stream client's behaviour at one pause: a block of point lookups
/// for seeded user ids, then one progress read. Returns hits.
fn stream_client_pause(
    prep: &Prepared,
    ctl: &BatchCtl<'_, '_>,
    cursor: &mut usize,
    s: &mut Sample,
) {
    for _ in 0..STREAM_LOOKUPS_PER_PAUSE / LOOKUP_BLOCK {
        let t0 = Instant::now();
        for _ in 0..LOOKUP_BLOCK {
            let key = &prep.keys[*cursor % prep.keys.len()];
            *cursor += 1;
            s.hits += u64::from(std::hint::black_box(ctl.lookup(key)).is_some());
        }
        s.lookup_us
            .push(t0.elapsed().as_secs_f64() * 1e6 / LOOKUP_BLOCK as f64);
    }
    let t0 = Instant::now();
    std::hint::black_box(ctl.progress());
    s.progress_us.push(t0.elapsed().as_secs_f64() * 1e6);
}

/// Checks a finished streamed run: output, checkpoint count, and that
/// every checkpoint file decodes.
pub fn check_stream(prep: &Prepared, outcome: &StreamOutcome, ops: &mut Ops) {
    check_job(prep, JobKind::ClickCount, &outcome.job, ops);
    ops.check(outcome.checkpoints_written == STREAM_CKPTS, || {
        format!(
            "{} checkpoints written, expected {STREAM_CKPTS}",
            outcome.checkpoints_written
        )
    });
    for batch in (1..=STREAM_CKPTS).map(|i| i * STREAM_CKPT_EVERY) {
        let path = prep.tmp.0.join(format!("stream-ckpt-b{batch}.opac"));
        let decoded = opa_stream::SavedState::read_from(&path);
        ops.check(decoded.is_ok(), || {
            format!(
                "checkpoint {} does not decode: {:?}",
                path.display(),
                decoded.err()
            )
        });
    }
}

/// One streamed run with periodic checkpoints and the querying client.
pub fn stream_once(prep: &Prepared, threads: usize, ops: &mut Ops) -> Sample {
    let mut s = Sample::default();
    let mut cursor = 0usize;
    let t0 = Instant::now();
    let mut last = t0;
    let outcome = stream_builder(prep, threads, true)
        .run_stream(&prep.input, |ctl| {
            let now = Instant::now();
            s.gaps_ms.push((now - last).as_secs_f64() * 1e3);
            last = now;
            stream_client_pause(prep, ctl, &mut cursor, &mut s);
        })
        .expect("stream run");
    s.wall_s = t0.elapsed().as_secs_f64();
    // A lookup or progress read through `BatchCtl` cannot fail; what can
    // is the pause count, the output and the checkpoints.
    ops.bulk((STREAM_BATCHES * (STREAM_LOOKUPS_PER_PAUSE + 1)) as u64, 0);
    ops.check(s.gaps_ms.len() == STREAM_BATCHES, || {
        format!("{} pauses, expected {STREAM_BATCHES}", s.gaps_ms.len())
    });
    check_stream(prep, &outcome, ops);
    s
}

/// Per-call timings of one served drain, kept only by the traced pass.
#[derive(Debug, Default, Clone)]
pub struct ServeTimings {
    pub submit_us: Vec<f64>,
    pub step_ms: Vec<f64>,
    pub lookup_batch_us: Vec<f64>,
    pub wait_rounds_mean: f64,
}

/// One drain of the job server: submit all eight jobs, then step until
/// drained; between steps the client sends [`LOOKUP_BLOCK`] lookups, one
/// batched lookup of the same keys and one progress query to the running
/// ClickCount job.
pub fn serve_once(prep: &Prepared, two_tenants: bool, ops: &mut Ops) -> (Sample, ServeTimings) {
    let mut s = Sample::default();
    let mut t = ServeTimings::default();
    let total_jobs = 2 * SERVE_JOBS_PER_KIND;
    let cfg = ServeConfig {
        slots_per_tenant: 1,
        queue_per_tenant: total_jobs,
        queue_total: total_jobs,
    };
    let spec = |kind: JobKind| JobSpec {
        framework: kind.framework(),
        cluster: prep.cluster,
        batches: SERVE_BATCHES,
        exec: ExecConfig::sequential(),
        ..JobSpec::default()
    };
    let (click_spec, page_spec) = (spec(JobKind::ClickCount), spec(JobKind::PageFreq));
    let page_tenant = u32::from(two_tenants);
    let mut click_ids = Vec::new();
    let mut page_ids = Vec::new();

    let t0 = Instant::now();
    let mut server = Server::new(cfg);
    for _ in 0..SERVE_JOBS_PER_KIND {
        for page in [false, true] {
            let c0 = Instant::now();
            let receipt = if page {
                server.submit(
                    page_tenant,
                    page_freq_job(),
                    Arc::clone(&prep.input),
                    &page_spec,
                )
            } else {
                server.submit(0, click_count_job(), Arc::clone(&prep.input), &click_spec)
            };
            t.submit_us.push(c0.elapsed().as_secs_f64() * 1e6);
            let admitted = matches!(
                receipt.as_ref().map(|r| r.outcome),
                Ok(AdmissionOutcome::Started | AdmissionOutcome::Queued)
            );
            ops.check(admitted, || format!("submission not admitted: {receipt:?}"));
            if let Ok(r) = receipt {
                if page { &mut page_ids } else { &mut click_ids }.push(r.job);
            }
        }
    }
    let mut cursor = 0usize;
    let mut last = Instant::now();
    loop {
        // The client reads from whichever ClickCount job is parked at a
        // wave boundary right now (sort-merge keeps no queryable state).
        let running = server
            .status()
            .into_iter()
            .find(|j| j.phase == JobPhase::Running && click_ids.contains(&j.job))
            .map(|j| j.job);
        if let Some(job) = running {
            let keys: Vec<Key> = (0..LOOKUP_BLOCK)
                .map(|i| prep.keys[(cursor + i) % prep.keys.len()].clone())
                .collect();
            cursor += LOOKUP_BLOCK;
            let mut failed = 0;
            for key in &keys {
                let q = ServeQuery::Lookup(key.clone());
                let c0 = Instant::now();
                let answer = server.query(job, &q);
                s.lookup_us.push(c0.elapsed().as_secs_f64() * 1e6);
                match answer {
                    Ok(opa_serve::ServeAnswer::Value(v)) => s.hits += u64::from(v.is_some()),
                    _ => failed += 1,
                }
            }
            ops.bulk(LOOKUP_BLOCK as u64, failed);
            let c0 = Instant::now();
            let batched = server.query(job, &ServeQuery::LookupBatch(keys));
            t.lookup_batch_us.push(c0.elapsed().as_secs_f64() * 1e6);
            ops.check(
                matches!(&batched, Ok(opa_serve::ServeAnswer::Values(v)) if v.len() == LOOKUP_BLOCK),
                || "batched lookup not answered".to_string(),
            );
            let c0 = Instant::now();
            let progress = server.query(job, &ServeQuery::Progress);
            s.progress_us.push(c0.elapsed().as_secs_f64() * 1e6);
            ops.check(progress.is_ok(), || {
                "progress query not answered".to_string()
            });
        }
        let c0 = Instant::now();
        let more = server.step().expect("server steps");
        let now = Instant::now();
        if !more {
            break;
        }
        t.step_ms.push((now - c0).as_secs_f64() * 1e3);
        s.gaps_ms.push((now - last).as_secs_f64() * 1e3);
        last = now;
    }
    s.wall_s = t0.elapsed().as_secs_f64();

    for (ids, kind) in [
        (&click_ids, JobKind::ClickCount),
        (&page_ids, JobKind::PageFreq),
    ] {
        for &id in ids {
            match server.outcome(id) {
                Some(outcome) => check_job(prep, kind, &outcome.job, ops),
                None => ops.check(false, || format!("served job {id} has no outcome")),
            }
        }
    }
    let (mut started, mut wait_rounds) = (0u64, 0u64);
    for (_, book) in server.books() {
        ops.check(book.reconciles(), || {
            "tenant book does not reconcile".to_string()
        });
        started += book.started;
        wait_rounds += book.wait_rounds;
    }
    t.wait_rounds_mean = wait_rounds as f64 / started.max(1) as f64;
    // With one run slot per tenant most jobs must queue: a drain in which
    // nothing waited did not exercise admission.
    ops.check(t.wait_rounds_mean > 0.0, || {
        "no served job ever waited for a slot".to_string()
    });
    (s, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use opa_common::Value;

    #[test]
    fn digest_ignores_order_and_sees_every_byte() {
        let a = Pair::new(Key::from_u64(1), Value::from_u64(10));
        let b = Pair::new(Key::from_u64(2), Value::from_u64(20));
        let c = Pair::new(Key::from_u64(2), Value::from_u64(21));
        assert_eq!(digest([&a, &b]), digest([&b, &a]));
        assert_ne!(digest([&a, &b]), digest([&a, &c]));
        assert_ne!(digest([&a]), digest([&a, &a]));
        // The key/value boundary is part of the hash.
        let ab = Pair::new(Key::from_slice(b"ab"), Value::from_slice(b"c"));
        let a_bc = Pair::new(Key::from_slice(b"a"), Value::from_slice(b"bc"));
        assert_ne!(digest([&ab]), digest([&a_bc]));
        assert_eq!(digest(std::iter::empty::<&Pair>()).records, 0);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(
                w.why().len() <= 200,
                "{} why is too long for the manifest",
                w.name()
            );
            assert!(!w.why().contains('\n'));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn reference_runs_under_another_framework() {
        for k in [
            JobKind::Trigram,
            JobKind::Sessionize,
            JobKind::ClickCount,
            JobKind::PageFreq,
            JobKind::PageRankInit,
        ] {
            assert_ne!(k.framework(), k.reference_framework());
        }
    }

    #[test]
    fn answer_digest_drops_only_the_framework_dependent_part() {
        let session = |label: u64, ts: u64| {
            let mut v = label.to_be_bytes().to_vec();
            v.extend_from_slice(&ts.to_be_bytes());
            Pair::new(Key::from_u64(9), Value::new(v))
        };
        let k = JobKind::Sessionize;
        assert_eq!(
            k.answer_digest(&[session(1, 5)]),
            k.answer_digest(&[session(2, 5)])
        );
        assert_ne!(
            k.answer_digest(&[session(1, 5)]),
            k.answer_digest(&[session(1, 6)])
        );
        let count = |n: u64| Pair::new(Key::from_slice(b"a b c"), Value::from_u64(n));
        let k = JobKind::Trigram;
        assert_eq!(k.answer_digest(&[count(8)]), k.answer_digest(&[count(11)]));
        assert_ne!(
            k.answer_digest(&[count(8)]),
            k.answer_digest(&[count(8), count(8)])
        );
        let k = JobKind::ClickCount;
        assert_ne!(k.answer_digest(&[count(8)]), k.answer_digest(&[count(11)]));
    }

    /// Every workload end to end at smoke scale: set-up, one operation at
    /// one thread and one at two, all checks green and non-vacuous.
    #[test]
    fn smoke_every_workload() {
        for w in Workload::ALL {
            let (prep, times) = setup(w, 7, true);
            assert!(times.total_s() > 0.0);
            let mut ops = Ops::default();
            let seq = run_once(&prep, 1, &mut ops);
            let par = run_once(&prep, 2, &mut ops);
            assert_eq!(ops.failed, 0, "{}", w.name());
            assert!(ops.attempted >= 2);
            assert!(seq.wall_s > 0.0 && !seq.gaps_ms.is_empty());
            assert_eq!(
                seq.hits,
                par.hits,
                "{}: lookups are deterministic",
                w.name()
            );
            if matches!(w, Workload::ClicksStream | Workload::ServeMix) {
                assert!(seq.hits > 0, "{}: lookups never hit", w.name());
            }
        }
    }
}
