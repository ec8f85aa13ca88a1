//! One job run: its input, its configuration ([`RunConfig`]), the fluent
//! [`JobBuilder`] over both, and what a finished run yields
//! ([`JobOutcome`]).
//!
//! The run itself is [`crate::engine::Engine`] — the discrete-event loop
//! tying mappers, shuffle and reducers together. A batch run steps that
//! engine to completion; the stream runtime (`opa-stream`) steps the same
//! engine and pauses it at micro-batch seals.

use crate::api::{Handle, Job, JobRef};
use crate::cluster::{ClusterSpec, Framework};
use crate::engine::Engine;
use crate::metrics::JobMetrics;
use crate::progress::ProgressCurve;
use crate::sim::{Span, Usage};
use bytes::Bytes;
use opa_common::fault::FaultConfig;
use opa_common::{AdmissionPolicy, CombineScope, Error, ExecConfig, Pair, Result};
use opa_freq::MonitorKind;
use opa_simio::ckpt::{SectionReader, SectionWriter};
use opa_trace::TraceLog;

/// Size at which [`InputBuilder`] seals the records written so far into one
/// shared block. A constant, not a knob, and it must stay below glibc's
/// 128 KB default mmap threshold: blocks this size come from the ordinary
/// heap, which the next input re-uses. With *one* 24 MB block per input the
/// `clicks_inc` bench row read 84.8 MB peak RSS — worse than the 76.7 MB of
/// one allocation per record, where these blocks read 58.2 MB: the big block
/// is mmapped the first time, freeing it raises glibc's dynamic threshold,
/// and the second one lands in the brk heap next to a 24 MB hole.
const INPUT_BLOCK_BYTES: usize = 64 * 1024;

/// Job input: a sequence of raw records (lines of a log, documents…).
#[derive(Debug, Clone, Default)]
pub struct JobInput {
    /// The records. `Bytes` so chunks and map inputs never deep-copy; built
    /// through [`JobInput::builder`] they are views into shared blocks, so
    /// a handle that must outlive the input copies its bytes out
    /// (`Bytes::copy_from_slice`) instead of pinning a whole block.
    pub records: Vec<Bytes>,
}

/// The one writer of job inputs: record bytes are appended to a block that
/// is sealed into a single shared allocation once it holds
/// `INPUT_BLOCK_BYTES` (64 KB), and each record is handed out as a
/// [`Bytes::slice`] of its block — one allocation per ~64 KB of input, not
/// one per record. A record that does not fit behind the ones already in
/// the open block starts the next block; one larger than a block gets a
/// block of its own.
#[derive(Debug)]
pub struct InputBuilder {
    /// Bytes of the records not yet sealed into a block.
    open: Vec<u8>,
    /// End offset in `open` of each of those records.
    ends: Vec<usize>,
    records: Vec<Bytes>,
}

impl InputBuilder {
    /// Makes room for `records` more record handles.
    pub fn reserve(&mut self, records: usize) {
        self.records.reserve(records);
    }

    /// Appends one record.
    pub fn push(&mut self, record: &[u8]) {
        self.push_with(|block| block.extend_from_slice(record));
    }

    /// Appends the record `write` produces. `write` is handed the open
    /// block and must only append to it: what it appends is the record
    /// (nothing, for an empty record).
    pub fn push_with(&mut self, write: impl FnOnce(&mut Vec<u8>)) {
        let start = self.open.len();
        write(&mut self.open);
        assert!(
            self.open.len() >= start,
            "an input record writer must only append to the block"
        );
        if start > 0 && self.open.len() > INPUT_BLOCK_BYTES {
            self.seal(start);
        }
        self.ends.push(self.open.len());
        if self.open.len() >= INPUT_BLOCK_BYTES {
            self.seal(self.open.len());
        }
    }

    /// Seals `open[..upto]` — whole records, all of `ends` — into one
    /// block and hands out its records; the bytes behind `upto` (a record
    /// still being placed) move to the front of the next block.
    fn seal(&mut self, upto: usize) {
        let block = Bytes::copy_from_slice(&self.open[..upto]);
        let mut start = 0;
        for end in self.ends.drain(..) {
            self.records.push(block.slice(start..end));
            start = end;
        }
        self.open.drain(..upto);
    }

    /// The input holding every record pushed, in push order.
    pub fn finish(mut self) -> JobInput {
        if !self.ends.is_empty() {
            self.seal(self.open.len());
        }
        JobInput {
            records: self.records,
        }
    }
}

impl JobInput {
    /// Starts an empty [`InputBuilder`].
    pub fn builder() -> InputBuilder {
        InputBuilder {
            open: Vec::with_capacity(INPUT_BLOCK_BYTES),
            ends: Vec::new(),
            records: Vec::new(),
        }
    }

    /// Builds an input from owned byte records.
    pub fn from_records(records: Vec<Vec<u8>>) -> Self {
        let mut input = JobInput::builder();
        input.reserve(records.len());
        for record in records {
            input.push(&record);
        }
        input.finish()
    }

    /// Builds an input by splitting UTF-8 text into lines.
    pub fn from_text(text: &str) -> Self {
        let mut input = JobInput::builder();
        for line in text.lines().filter(|l| !l.is_empty()) {
            input.push(line.as_bytes());
        }
        input.finish()
    }

    /// Total input size `D` in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.len() as u64).sum()
    }

    /// Record count.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the input is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// One quarantined input record: the engine-level provenance of a map UDF
/// poison firing. The serving layer (`opa-serve`) adds tenant/job identity
/// on top when it files the entry in its dead-letter queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoisonedRecord {
    /// Map chunk (task) the record belonged to.
    pub chunk: u32,
    /// The map-task attempt that committed the chunk (0 unless crash or
    /// straggler recovery re-ran it).
    pub attempt: u32,
    /// The record's global input offset.
    pub offset: u64,
    /// The raw record bytes, exactly as read from the input.
    pub record: Bytes,
}

impl PoisonedRecord {
    /// Appends the record as two container sections, its provenance and
    /// its bytes: the one encoding of a quarantined record, shared by the
    /// quarantine file and the stream checkpoint.
    pub fn write(&self, w: &mut SectionWriter) {
        w.nums(&[u64::from(self.chunk), u64::from(self.attempt), self.offset]);
        w.bytes(self.record.as_slice());
    }

    /// Reads one record [`PoisonedRecord::write`] appended.
    pub fn read(r: &mut SectionReader<'_>) -> Result<PoisonedRecord> {
        let [chunk, attempt, offset] = r.nums_exact("quarantined record")?;
        let narrow = |v: u64, what: &str| {
            u32::try_from(v).map_err(|_| Error::storage(format!("quarantine {what} out of range")))
        };
        Ok(PoisonedRecord {
            chunk: narrow(chunk, "chunk")?,
            attempt: narrow(attempt, "attempt")?,
            offset,
            record: Bytes::from(r.bytes("quarantined record bytes")?),
        })
    }
}

/// Everything a finished job yields.
#[derive(Debug)]
pub struct JobOutcome {
    /// Table-style metrics (times, bytes, CPU).
    pub metrics: JobMetrics,
    /// Definition-1 progress curves.
    pub progress: ProgressCurve,
    /// Task timeline (Fig 2(a)-style spans).
    pub timeline: Vec<Span>,
    /// CPU/disk busy-time series (Fig 2(b,c)-style).
    pub usage: Usage,
    /// The job's actual output pairs (order unspecified across reducers).
    pub output: Vec<Pair>,
    /// The structured event trace, when the run was started with
    /// [`JobBuilder::trace`]. Bit-identical at any thread count; see the
    /// `opa-trace` crate for the JSONL format, rollups and exporters.
    pub trace: Option<TraceLog>,
    /// Records quarantined by per-record UDF poison
    /// ([`opa_common::fault::FaultConfig::udf_poison_rate`]), in the order
    /// their chunks committed. Empty unless poison injection was enabled.
    pub dlq: Vec<PoisonedRecord>,
}

impl JobOutcome {
    /// The output sorted by key then value — canonical form for
    /// correctness comparisons.
    pub fn sorted_output(&self) -> Vec<Pair> {
        let mut out = self.output.clone();
        out.sort_by(|a, b| a.key.cmp(&b.key).then_with(|| a.value.cmp(&b.value)));
        out
    }

    /// Persists the job output to a real file in the IFile-style run
    /// format (length-framed records + CRC-32).
    pub fn write_output(&self, path: &std::path::Path) -> Result<()> {
        let buf = opa_simio::codec::encode_run(&self.output);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| Error::storage(format!("mkdir {}: {e}", dir.display())))?;
        }
        std::fs::write(path, buf)
            .map_err(|e| Error::storage(format!("write {}: {e}", path.display())))
    }

    /// Reads back an output file written by [`JobOutcome::write_output`],
    /// verifying its checksum.
    pub fn read_output(path: &std::path::Path) -> Result<Vec<Pair>> {
        let buf = std::fs::read(path)
            .map_err(|e| Error::storage(format!("read {}: {e}", path.display())))?;
        opa_simio::codec::decode_run(&buf)
    }

    /// The output as a resident [`crate::dataflow::Dataset`], bucketed
    /// under the partition function of `spec` — the handle a
    /// [`crate::dataflow::Dataflow`] chains from. Pass the spec the job
    /// ran on to get the partitioning its reducers actually produced.
    pub fn dataset(&self, spec: &ClusterSpec) -> crate::dataflow::Dataset {
        crate::dataflow::Dataset::from_pairs(
            self.output.clone(),
            crate::dataflow::PartitionSpec::of(spec),
        )
    }
}

/// Everything that configures one engine run, as one value: the batch
/// [`JobBuilder`] and the stream builder (`opa-stream`) both hold one and
/// hand it to [`Engine`] by reference. The fields are the builders'
/// setters, one for one.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The reduce-side framework.
    pub framework: Framework,
    /// The simulated cluster.
    pub spec: ClusterSpec,
    /// Host threads of the execution layer.
    pub exec: ExecConfig,
    /// Map output/input ratio `K_m`, sizing hash-framework bucket fan-outs.
    pub km_hint: f64,
    /// DINC's approximate early termination at coverage φ; `None` is exact.
    pub early_stop: Option<f64>,
    /// The frequency algorithm behind DINC-hash's monitor.
    pub dinc_monitor: MonitorKind,
    /// The reduce-side admission policy.
    pub admission: AdmissionPolicy,
    /// Where map output is combined before shuffle.
    pub combine: CombineScope,
    /// Map-progress fractions at which every reducer emits a
    /// MapReduce-Online-style snapshot (§3.3).
    pub snapshot_points: Vec<f64>,
    /// Deterministic fault injection.
    pub faults: FaultConfig,
    /// Whether the run records a structured event trace.
    pub trace: bool,
}

impl Default for RunConfig {
    /// The sort-merge baseline on the paper cluster, sequential, exact,
    /// with task-scope combining and nothing injected or traced.
    fn default() -> Self {
        RunConfig {
            framework: Framework::SortMerge,
            spec: ClusterSpec::paper_scaled(),
            exec: ExecConfig::sequential(),
            km_hint: 1.0,
            early_stop: None,
            dinc_monitor: MonitorKind::Frequent,
            admission: AdmissionPolicy::Off,
            combine: CombineScope::Task,
            snapshot_points: Vec::new(),
            faults: FaultConfig::disabled(),
            trace: false,
        }
    }
}

impl RunConfig {
    /// Checks the cluster, execution and fault settings, that every
    /// snapshot point is a finite map-progress fraction in `[0, 1]`, and
    /// that φ is a fraction in `(0, 1]` — so a bad value fails up front
    /// with an actionable message instead of deep inside the run.
    pub fn validate(&self) -> Result<()> {
        self.spec.validate()?;
        self.exec.validate()?;
        self.faults.validate()?;
        for &p in &self.snapshot_points {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(Error::job(format!(
                    "snapshot point {p} is not a map-progress fraction in \
                     [0, 1]; pass fractions of map completion such as \
                     0.25,0.5,0.75"
                )));
            }
        }
        if let Some(phi) = self.early_stop {
            if !phi.is_finite() || !(0.0..=1.0).contains(&phi) || phi == 0.0 {
                return Err(Error::job(format!(
                    "early-stop coverage φ must be a fraction in (0, 1], got {phi}"
                )));
            }
        }
        Ok(())
    }
}

/// The setters the batch and the stream builder share, written once over
/// the `run: RunConfig` and `job` fields both hold. Expands inside an
/// `impl<J: Job>` block of the builder.
#[doc(hidden)]
#[macro_export]
macro_rules! run_config_setters {
    () => {
        /// Selects the reduce-side framework.
        pub fn framework(mut self, f: $crate::cluster::Framework) -> Self {
            self.run.framework = f;
            self
        }

        /// Selects the cluster configuration.
        pub fn cluster(mut self, spec: $crate::cluster::ClusterSpec) -> Self {
            self.run.spec = spec;
            self
        }

        /// Sets the execution-layer thread count. `1` (the default) runs
        /// the engine fully sequentially on the calling thread; `n > 1`
        /// adds `n − 1` worker threads, capped at the host's core count
        /// (pass `ExecConfig::oversubscribed` to [`Self::exec`] to lift
        /// the cap). The outcome is bit-identical at any value — threads
        /// only change wall-clock time.
        pub fn threads(mut self, threads: usize) -> Self {
            self.run.exec = opa_common::ExecConfig::with_threads(threads);
            self
        }

        /// Sets the full execution-layer configuration.
        pub fn exec(mut self, exec: opa_common::ExecConfig) -> Self {
            self.run.exec = exec;
            self
        }

        /// Hints the map output/input ratio `K_m`, used to size
        /// hash-framework bucket fan-outs (defaults to 1.0).
        pub fn km_hint(mut self, km: f64) -> Self {
            self.run.km_hint = km;
            self
        }

        /// Enables DINC's approximate early termination at coverage φ.
        pub fn early_stop_coverage(mut self, phi: f64) -> Self {
            self.run.early_stop = Some(phi);
            self
        }

        /// Selects the frequency algorithm behind DINC-hash's monitor
        /// (default: FREQUENT, the paper's choice).
        pub fn dinc_monitor(mut self, kind: opa_freq::MonitorKind) -> Self {
            self.run.dinc_monitor = kind;
            self
        }

        /// Selects the reduce-side admission policy (default: off, the
        /// paper's first-come occupancy). Under `AdmissionPolicy::Lfu` a
        /// table-full arrival may evict a resident key that a
        /// deterministic frequency sketch judges colder, instead of
        /// spilling itself. Sketch state and admission counters ride on
        /// stream checkpoints, so a resumed run reproduces the
        /// uninterrupted one bit for bit.
        pub fn admission(mut self, policy: opa_common::AdmissionPolicy) -> Self {
            self.run.admission = policy;
            self
        }

        /// Selects where map output is combined before shuffle (default:
        /// `CombineScope::Task`, the engine's historical per-map-task
        /// combining). Under `CombineScope::Node` granules from all map
        /// tasks of one simulated node additionally merge through the
        /// job's combiner (or, for the incremental frameworks, its
        /// `cb()`) in a per-node staging table before any shuffle bytes
        /// are booked; flush points are scheduler-side and deterministic,
        /// so output stays bit-identical at any thread count.
        /// `CombineScope::Off` disables even per-task combining for the
        /// materializing frameworks.
        pub fn combine(mut self, scope: opa_common::CombineScope) -> Self {
            self.run.combine = scope;
            self
        }

        /// Enables deterministic fault injection: map/reduce failures,
        /// stragglers and spill-disk errors per `cfg`, with full
        /// recovery. Recovery never loses or duplicates data:
        /// order-independent reductions produce output bit-identical to
        /// the fault-free run. Jobs that emit early from a slack-bounded
        /// reorder buffer (sessionization under INC/DINC) may re-anchor
        /// labels when a fault delays a map task past the slack, exactly
        /// as in real Hadoop. Reduce-crash recovery alone leaves the output
        /// bit-identical when every reducer runs in one wave; with a second
        /// wave it is the same multiset, but MR-, INC- and DINC-hash may
        /// emit it in another order, because the re-charged disk I/O
        /// reorders when a second-wave reducer's map outputs arrive.
        /// Timing, I/O accounting and the metrics' fault report change in
        /// any case.
        pub fn faults(mut self, cfg: opa_common::fault::FaultConfig) -> Self {
            self.run.faults = cfg;
            self
        }

        /// Turns on structured event tracing. The outcome then carries an
        /// `opa_trace::TraceLog` — one record per simulation event,
        /// deterministic and bit-identical at any thread count. Off by
        /// default (tracing is zero-cost when off).
        pub fn trace(mut self, on: bool) -> Self {
            self.run.trace = on;
            self
        }

        /// Access to the wrapped job.
        pub fn job(&self) -> &J {
            &self.job
        }
    };
}

/// Fluent builder for one job run.
pub struct JobBuilder<J: Job> {
    job: J,
    run: RunConfig,
}

impl<J: Job> JobBuilder<J> {
    /// Starts a builder with the sort-merge baseline on the paper cluster
    /// ([`RunConfig::default`]).
    pub fn new(job: J) -> Self {
        JobBuilder {
            job,
            run: RunConfig::default(),
        }
    }

    run_config_setters!();

    /// Requests MapReduce-Online-style snapshot outputs (§3.3) at the
    /// given map-progress fractions, e.g. `[0.25, 0.5, 0.75]`. Each point
    /// makes every reducer repeat its merge and emit a snapshot — the
    /// expensive behaviour the paper measures.
    pub fn snapshot_points(mut self, points: &[f64]) -> Self {
        self.run.snapshot_points = points.to_vec();
        self
    }

    /// Runs the job on `input`: one engine, stepped to completion.
    pub fn run(&self, input: &JobInput) -> Result<JobOutcome> {
        let engine = Engine::new(
            &self.run,
            JobRef::borrowed(&self.job),
            Handle::Borrowed(input),
            None,
        )?;
        Ok(engine.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ReduceCtx;
    use opa_common::{Key, Value};

    struct Echo;
    impl Job for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
            emit(&record[..1], record);
        }
        fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
            ctx.emit(key.clone(), Value::from_u64(values.len() as u64));
        }
    }

    fn input(n: usize) -> JobInput {
        JobInput::from_records((0..n).map(|i| vec![(i % 17) as u8, b'a', b'b']).collect())
    }

    /// The backing blocks of `records`, in order, as `(bytes, records)`:
    /// consecutive records share a block exactly when one starts where the
    /// other ends (separate allocations have a header in between).
    fn blocks(records: &[Bytes]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut next = 0;
        for r in records {
            let at = r.as_ptr() as usize;
            match out.last_mut() {
                Some((bytes, held)) if next == at => {
                    *bytes += r.len();
                    *held += 1;
                }
                _ => out.push((r.len(), 1)),
            }
            next = at + r.len();
        }
        out
    }

    #[test]
    fn builder_matches_one_allocation_per_record() {
        const B: usize = INPUT_BLOCK_BYTES;
        let record = |len: usize, tag: usize| -> Vec<u8> {
            (0..len).map(|i| (i * 31 + tag) as u8).collect()
        };
        let mut cases: Vec<Vec<Vec<u8>>> = [0, 1, B - 1, B, B + 1, 3 * B]
            .into_iter()
            .map(|len| (0..3).map(|tag| record(len, tag)).collect())
            .collect();
        cases.push(
            [5, 0, B - 5, 1, B, 0, 96, 3 * B, 96, 0, B + 1, B - 1, 1, 1]
                .into_iter()
                .enumerate()
                .map(|(tag, len)| record(len, tag))
                .collect(),
        );
        for records in cases {
            let built = JobInput::from_records(records.clone());
            let want: Vec<Bytes> = records.iter().cloned().map(Bytes::from).collect();
            assert_eq!(built.records, want);
            // `push_with` places the same records the same way.
            let mut with = JobInput::builder();
            for r in &records {
                with.push_with(|block| block.extend_from_slice(r));
            }
            assert_eq!(with.finish().records, want);
            // No block is larger than the constant unless it is one record's.
            for (bytes, held) in blocks(&built.records) {
                assert!(bytes <= B || held == 1, "{bytes}-byte block of {held}");
            }
        }
    }

    #[test]
    fn small_records_share_blocks() {
        let mut input = JobInput::builder();
        for i in 0..2000u32 {
            input.push(&[i as u8; 96]);
        }
        let input = input.finish();
        let (a, b) = (&input.records[0], &input.records[1]);
        assert_eq!(a.as_ptr() as usize + 96, b.as_ptr() as usize);
        // 682 records of 96 bytes fit a 64 KB block; the 683rd starts the next.
        assert_eq!(
            blocks(&input.records),
            [(682 * 96, 682), (682 * 96, 682), (636 * 96, 636)]
        );
    }

    #[test]
    fn footprints() {
        // What an input costs beyond its bytes: a 16-byte handle per record
        // and one allocation per block — ⌈n / 682⌉ for 96-byte records (682
        // fit 64 KB) plus one per record too large to share a block.
        const N: usize = 2000;
        let mut input = JobInput::builder();
        input.push(&[7u8; 3 * INPUT_BLOCK_BYTES]);
        input.push(&[8u8; INPUT_BLOCK_BYTES + 1]);
        for i in 0..N {
            input.push(&[i as u8; 96]);
        }
        let input = input.finish();
        assert_eq!(input.len(), N + 2);
        assert_eq!(std::mem::size_of_val(&input.records[..]), (N + 2) * 16);
        assert_eq!(blocks(&input.records).len(), N.div_ceil(682) + 2);
    }

    #[test]
    fn job_input_constructors() {
        let text = JobInput::from_text("one\n\ntwo\nthree\n");
        assert_eq!(text.len(), 3);
        assert_eq!(text.total_bytes(), 11);
        assert_eq!(text.records, ["one", "two", "three"].map(Bytes::from));
        let mut empty = JobInput::builder();
        empty.push_with(|_| {});
        empty.push(b"x");
        assert_eq!(empty.finish().records, [Bytes::new(), Bytes::from("x")]);
        let recs = input(4);
        assert_eq!(recs.len(), 4);
        assert!(!recs.is_empty());
    }

    #[test]
    fn second_wave_reducers_slow_the_job() {
        // §3.2(3): with R above the reduce-slot count, the second wave
        // must re-read map output from disk — R=8 ran slower than R=4 in
        // the paper (4723 s vs 4187 s).
        let data = input(3000);
        let mut spec = crate::cluster::ClusterSpec::paper_scaled();
        spec.system.chunk_size = 1024;
        let run = |r: usize| {
            let mut s = spec;
            s.system.reducers_per_node = r;
            JobBuilder::new(Echo)
                .cluster(s)
                .run(&data)
                .expect("job runs")
                .metrics
                .running_time
        };
        let wave1 = run(4);
        let wave2 = run(8);
        assert!(
            wave2 > wave1,
            "two waves should be slower: R=4 {wave1}, R=8 {wave2}"
        );
    }

    #[test]
    fn single_chunk_job_works() {
        let data = input(3);
        let outcome = JobBuilder::new(Echo)
            .cluster(crate::cluster::ClusterSpec::tiny())
            .run(&data)
            .expect("job runs");
        assert_eq!(outcome.metrics.output_records, 3); // 3 distinct first bytes
        assert_eq!(outcome.progress.points.last().unwrap().map_pct, 100.0);
    }

    #[test]
    fn sorted_output_is_canonical() {
        let data = input(100);
        let a = JobBuilder::new(Echo)
            .cluster(crate::cluster::ClusterSpec::tiny())
            .framework(crate::cluster::Framework::MrHash)
            .run(&data)
            .expect("job runs");
        let b = JobBuilder::new(Echo)
            .cluster(crate::cluster::ClusterSpec::tiny())
            .framework(crate::cluster::Framework::SortMerge)
            .run(&data)
            .expect("job runs");
        assert_eq!(a.sorted_output(), b.sorted_output());
    }

    #[test]
    fn parallel_execution_is_bit_identical() {
        // The full determinism matrix lives in tests/option_space.rs; this
        // is the smoke check closest to the scheduler.
        let data = input(800);
        let mut spec = crate::cluster::ClusterSpec::paper_scaled();
        spec.system.chunk_size = 512;
        let run = |threads: usize| {
            JobBuilder::new(Echo)
                .cluster(spec)
                .framework(crate::cluster::Framework::SortMergePipelined)
                .exec(opa_common::ExecConfig::oversubscribed(threads))
                .run(&data)
                .expect("job runs")
        };
        let seq = run(1);
        let par = run(4);
        assert_eq!(format!("{seq:?}"), format!("{par:?}"));
    }

    #[test]
    fn invalid_snapshot_points_rejected() {
        for bad in [f64::NAN, f64::INFINITY, -0.25, 1.5] {
            let r = JobBuilder::new(Echo)
                .cluster(crate::cluster::ClusterSpec::tiny())
                .snapshot_points(&[0.5, bad])
                .run(&input(10));
            assert!(r.is_err(), "snapshot point {bad} must be rejected");
        }
        // Boundary values are fine.
        JobBuilder::new(Echo)
            .cluster(crate::cluster::ClusterSpec::tiny())
            .snapshot_points(&[0.0, 1.0])
            .run(&input(10))
            .expect("boundary snapshot points are valid");
    }

    #[test]
    fn zero_threads_rejected() {
        let r = JobBuilder::new(Echo)
            .cluster(crate::cluster::ClusterSpec::tiny())
            .threads(0)
            .run(&input(10));
        assert!(r.is_err(), "threads = 0 is invalid");
    }

    #[test]
    fn dinc_stats_reported_only_for_dinc() {
        use crate::api::IncrementalReducer;
        #[derive(Clone)]
        struct CountInc;
        impl Job for CountInc {
            fn name(&self) -> &str {
                "count"
            }
            fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
                emit(&record[..1], &1u64.to_be_bytes());
            }
            fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
                ctx.emit(key.clone(), Value::from_u64(values.len() as u64));
            }
            fn incremental(&self) -> Option<&dyn IncrementalReducer> {
                Some(self)
            }
        }
        impl IncrementalReducer for CountInc {
            fn init(&self, _k: &Key, v: &[u8]) -> Value {
                Value::from_slice(v)
            }
            fn cb(&self, _k: &Key, acc: &mut Value, other: Value, _ctx: &mut ReduceCtx) {
                *acc = Value::from_u64(acc.as_u64().unwrap_or(0) + other.as_u64().unwrap_or(0));
            }
            fn finalize(&self, k: &Key, state: Value, ctx: &mut ReduceCtx) {
                ctx.emit(k.clone(), state);
            }
        }
        let data = input(500);
        let dinc = JobBuilder::new(CountInc)
            .framework(crate::cluster::Framework::DincHash)
            .cluster(crate::cluster::ClusterSpec::tiny())
            .run(&data)
            .expect("job runs");
        let stats = dinc.metrics.dinc.expect("DINC reports monitor stats");
        assert!(stats.slots_per_reducer > 0);
        // Map-side combining collapses each chunk to its distinct keys
        // (17 here), so the monitor sees one tuple per (chunk, key).
        assert!(stats.offered >= 17 && stats.offered <= 500, "{stats:?}");
        let inc = JobBuilder::new(CountInc)
            .framework(crate::cluster::Framework::IncHash)
            .cluster(crate::cluster::ClusterSpec::tiny())
            .run(&data)
            .expect("job runs");
        assert!(inc.metrics.dinc.is_none());
    }

    #[test]
    fn snapshots_cost_time_and_produce_output() {
        let data = input(2000);
        let mut spec = crate::cluster::ClusterSpec::paper_scaled();
        spec.system.chunk_size = 1024;
        let plain = JobBuilder::new(Echo)
            .framework(crate::cluster::Framework::SortMergePipelined)
            .cluster(spec)
            .run(&data)
            .expect("job runs");
        let snap = JobBuilder::new(Echo)
            .framework(crate::cluster::Framework::SortMergePipelined)
            .cluster(spec)
            .snapshot_points(&[0.25, 0.5, 0.75])
            .run(&data)
            .expect("job runs");
        assert_eq!(plain.metrics.snapshot_bytes, 0);
        assert!(snap.metrics.snapshot_bytes > 0, "snapshots must emit");
        assert!(
            snap.metrics.running_time > plain.metrics.running_time,
            "repeating the merge must cost time: {} vs {}",
            snap.metrics.running_time,
            plain.metrics.running_time
        );
        // The final answer is unaffected by snapshotting.
        assert_eq!(plain.sorted_output(), snap.sorted_output());
    }

    #[test]
    fn invalid_cluster_rejected() {
        let mut spec = crate::cluster::ClusterSpec::tiny();
        spec.system.merge_factor = 1;
        let r = JobBuilder::new(Echo).cluster(spec).run(&input(4));
        assert!(r.is_err());
    }
}
