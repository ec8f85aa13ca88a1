//! One oracle over the option space. The reduce frameworks are
//! interchangeable implementations of one group-by (§4), and no option or
//! front end may change the answer. One word-count job over one seeded
//! skewed input runs in a deterministic list of cells — framework ×
//! admission × combine scope × DINC monitor × fault plan × cluster ×
//! snapshot points × trace — each in one of five modes: batch, stream-k,
//! resume, served (a framework's serve cells are tenants of one
//! `opa_serve::Server`), and a two-stage `Dataflow` chain under a handoff
//! policy. Every cell checks that its sorted output is a naive `BTreeMap`
//! group-by over the input minus its dead-letter queue, that its books
//! balance ([`check_books`]), and that its mode's run at the second thread
//! count relates to the one-thread batch run as [`check`] says.
//! [`INEXPRESSIBLE`] narrows a cell to what its front end can express,
//! each row with its reason. A caller requires that the paths its checks
//! are about were taken by some run ([`Tally`]).
//!
//! This module links only this crate and its dependencies, so it runs the
//! batch and dataflow modes itself; the root package's
//! `tests/option_space.rs` includes it and supplies the stream, resume and
//! serve modes as a [`FrontEnd`]. The batch-mode tests of this crate's
//! `determinism.rs`, `fault_matrix.rs`, `admission.rs`, `combine.rs` and
//! `trace_determinism.rs` are views: each runs the batch cells its name is
//! about ([`run_batch_cells`]).
//!
//! `OPA_FAULT_SEEDS` sets the seeds a uniform-fault cell expands into
//! (default 3). `OPA_TEST_THREADS`, when set, is every cell's second thread
//! count (at least 2); otherwise it cycles through 2, 4 and 8. A failing
//! fault cell writes its fault report to `target/fault_traces/` first.

// Each test binary that includes this module uses a part of it.
#![allow(dead_code)]

use opa_common::fault::FaultConfig;
use opa_common::rng::SplitMix64;
use opa_common::{decode_kv, AdmissionPolicy, CombineScope, ExecConfig, Key, Pair, Value};
use opa_core::api::{Combiner, IncrementalReducer, Job, ReduceCtx};
use opa_core::cluster::{ClusterSpec, Framework};
use opa_core::dataflow::{Dataflow, Handoff, HandoffPolicy, StageReport};
use opa_core::job::{JobBuilder, JobInput, JobOutcome};
use opa_freq::MonitorKind;
use opa_trace::TraceEvent;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

pub type Checked<T = ()> = Result<T, Box<dyn std::error::Error>>;

/// Fails the cell, naming the condition (or the message), unless it holds.
macro_rules! ensure {
    ($cond:expr) => {
        ensure!($cond, "{}", stringify!($cond))
    };
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(format!($($msg)+).into());
        }
    };
}
// For the front ends the root package supplies.
#[allow(unused_imports)]
pub(crate) use ensure;

/// Word count with a combiner and an incremental reducer, so every
/// framework takes its natural path.
#[derive(Clone, Copy)]
pub struct WordCount;

fn sum<'a>(values: impl IntoIterator<Item = &'a Value>) -> Value {
    Value::from_u64(values.into_iter().filter_map(Value::as_u64).sum())
}

impl Job for WordCount {
    fn name(&self) -> &str {
        "word-count"
    }
    fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
        for word in record.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
            emit(word, &1u64.to_be_bytes());
        }
    }
    fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
        ctx.emit(key.clone(), sum(&values));
    }
    fn combiner(&self) -> Option<&dyn Combiner> {
        Some(self)
    }
    fn incremental(&self) -> Option<&dyn IncrementalReducer> {
        Some(self)
    }
    fn expected_keys(&self) -> Option<u64> {
        Some(400)
    }
}

impl Combiner for WordCount {
    fn fold(&self, _key: &Key, acc: &mut Value, value: Value) {
        *acc = sum([&*acc, &value]);
    }
}

impl IncrementalReducer for WordCount {
    fn init(&self, _key: &Key, value: &[u8]) -> Value {
        Value::from_slice(value)
    }
    fn cb(&self, _key: &Key, acc: &mut Value, other: Value, _ctx: &mut ReduceCtx) {
        *acc = sum([&*acc, &other]);
    }
    fn finalize(&self, key: &Key, state: Value, ctx: &mut ReduceCtx) {
        ctx.emit(key.clone(), state);
    }
}

/// The second stage of a dataflow cell: re-sums the framed `(word,
/// count)` records of a word count by key. It keeps every key, so it
/// declares itself partition-preserving and an `Auto` chain skips its
/// shuffle.
pub struct SumCounts;

impl Job for SumCounts {
    fn name(&self) -> &str {
        "sum-counts"
    }
    fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
        let (word, count) = decode_kv(record).expect("a framed dataflow record");
        emit(word, count);
    }
    fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
        WordCount.reduce(key, values, ctx);
    }
    fn combiner(&self) -> Option<&dyn Combiner> {
        Some(&WordCount)
    }
    fn incremental(&self) -> Option<&dyn IncrementalReducer> {
        Some(&WordCount)
    }
    fn expected_keys(&self) -> Option<u64> {
        WordCount.expected_keys()
    }
    fn partition_preserving(&self) -> bool {
        true
    }
}

/// 600 lines of 3–7 words: a quarter from 8 hot words, which recur in
/// every chunk for node staging to merge, the rest from a cold tail of
/// 1 500 that overflows the tiny cluster's reduce memory.
pub fn input() -> &'static Arc<JobInput> {
    static INPUT: OnceLock<Arc<JobInput>> = OnceLock::new();
    INPUT.get_or_init(|| {
        let mut rng = SplitMix64::new(0x5EED);
        let records = (0..600)
            .map(|_| {
                let words: Vec<String> = (0..3 + rng.next_below(5))
                    .map(|_| match rng.next_below(4) {
                        0 => format!("w{}", rng.next_below(8)),
                        _ => format!("w{}", 8 + rng.next_below(1500)),
                    })
                    .collect();
                words.join(" ").into_bytes()
            })
            .collect();
        Arc::new(JobInput::from_records(records))
    })
}

/// Word counts over `records`.
fn count<'a>(records: impl Iterator<Item = &'a [u8]>) -> BTreeMap<&'a [u8], u64> {
    let mut counts = BTreeMap::new();
    for word in records.flat_map(|r| r.split(|&b| b == b' ').filter(|w| !w.is_empty())) {
        *counts.entry(word).or_default() += 1;
    }
    counts
}

/// The oracle: the sorted output holds the word counts of every input
/// record but the quarantined ones.
pub fn check_oracle(o: &JobOutcome) -> Checked {
    check_counts(
        &o.sorted_output(),
        count(o.dlq.iter().map(|r| r.record.as_slice())),
    )
}

/// `got` is the word counts of the input less the `quarantined` counts.
fn check_counts<'a>(
    got: &[Pair],
    quarantined: impl IntoIterator<Item = (&'a [u8], u64)>,
) -> Checked {
    static ALL: OnceLock<BTreeMap<&[u8], u64>> = OnceLock::new();
    let all = ALL.get_or_init(|| count(input().records.iter().map(|r| r.as_slice())));
    let mut expected = all.clone();
    for (word, n) in quarantined {
        let left = expected
            .get_mut(word)
            .ok_or("a quarantined word not in the input")?;
        *left = left
            .checked_sub(n)
            .ok_or("more of a word quarantined than input")?;
    }
    expected.retain(|_, n| *n > 0);
    let same =
        |(p, (k, n)): (&Pair, (&&[u8], &u64))| p.key.bytes() == *k && p.value.as_u64() == Some(*n);
    ensure!(got.len() == expected.len() && got.iter().zip(&expected).all(same));
    Ok(())
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cluster {
    /// The paper's cluster, scaled, with 2 KB chunks: many map tasks.
    Paper,
    /// `ClusterSpec::tiny` with 1 KB chunks: two nodes, 16 KB of reduce
    /// memory, and node staging tables that hold rows across a pause.
    Tiny,
    /// The paper cluster with two reducers per reduce slot: a second wave
    /// starts late and re-reads map output from disk.
    TwoWave,
    /// `Tiny` with 8 KB of reduce memory: INC-hash's table, which fits the
    /// other clusters, overflows, so its admission gate rejects.
    Cramped,
}

impl Cluster {
    const ALL: [Cluster; 3] = [Cluster::Paper, Cluster::Tiny, Cluster::TwoWave];

    pub fn spec(self) -> ClusterSpec {
        let mut paper = ClusterSpec::paper_scaled();
        paper.system.chunk_size = 2048;
        match self {
            Cluster::Paper => paper,
            Cluster::Tiny => {
                let mut tiny = ClusterSpec::tiny();
                tiny.system.chunk_size = 1024;
                tiny
            }
            Cluster::TwoWave => {
                paper.system.reducers_per_node = 2 * paper.hardware.reduce_slots;
                paper
            }
            Cluster::Cramped => {
                let mut cramped = Cluster::Tiny.spec();
                cramped.hardware.reduce_buffer = 8 * 1024;
                cramped
            }
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Faults {
    None,
    /// Every crash, straggler and spill-error class at rate 0.15, seed
    /// `0xF0 + s`.
    Uniform(u64),
    /// Reduce crashes only: recovery re-times and never re-feeds.
    ReduceCrashes,
    /// Per-record UDF poison: records go to the dead-letter queue.
    Poison,
}

impl Faults {
    pub fn config(self) -> FaultConfig {
        match self {
            Faults::None => FaultConfig::disabled(),
            Faults::Uniform(s) => FaultConfig::uniform(0xF0 + s, 0.15),
            Faults::ReduceCrashes => FaultConfig {
                seed: 0xC4A5,
                reduce_failure_rate: 0.15,
                ..FaultConfig::disabled()
            },
            Faults::Poison => FaultConfig::poison(7, 0.01),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Batch,
    /// `k` micro-batches.
    Stream(usize),
    /// `k` micro-batches, checkpointed after batch `k / 2` and resumed at
    /// the second thread count.
    Resume(usize),
    /// One tenant's job of a shared server, `k` waves.
    Serve(usize),
    /// The word count, then [`SumCounts`], handed over under the policy.
    Dataflow(HandoffPolicy),
}

/// One point of the option space and the mode it runs in.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Cell {
    pub framework: Framework,
    pub cluster: Cluster,
    pub admission: AdmissionPolicy,
    pub combine: CombineScope,
    pub monitor: MonitorKind,
    pub faults: Faults,
    /// Snapshots at 25, 50 and 75 % map progress.
    pub snapshots: bool,
    pub trace: bool,
    pub mode: Mode,
    /// The second thread count; the first is 1.
    pub threads: usize,
}

impl Cell {
    /// Sets every option but the fault plan to its `RunConfig::default()`.
    fn plain(&mut self) {
        (self.admission, self.combine) = (AdmissionPolicy::Off, CombineScope::Task);
        (self.monitor, self.snapshots, self.trace) = (MonitorKind::Frequent, false, false);
    }

    /// Whether every option is its default and no fault is injected.
    pub fn is_plain(&self) -> bool {
        let mut plain = *self;
        plain.plain();
        plain == *self && self.faults == Faults::None
    }

    pub fn job(&self) -> WordCount {
        WordCount
    }

    pub fn batch(&self, threads: usize, trace: bool) -> JobOutcome {
        let points = [0.25, 0.5, 0.75];
        JobBuilder::new(self.job())
            .framework(self.framework)
            .cluster(self.cluster.spec())
            .admission(self.admission)
            .combine(self.combine)
            .dinc_monitor(self.monitor)
            .faults(self.faults.config())
            .snapshot_points(&points[..if self.snapshots { 3 } else { 0 }])
            .trace(trace)
            .exec(ExecConfig::oversubscribed(threads))
            .run(input())
            .unwrap_or_else(|e| panic!("{self:?}: batch run failed: {e}"))
    }
}

/// A narrowing: why, the modes it applies to, and what it resets.
type Narrowing = (&'static str, fn(Mode) -> bool, fn(&mut Cell));

/// What each front end cannot express: its cells run with the option at
/// its default. (No cell varies `km_hint` or early stop.)
const INEXPRESSIBLE: [Narrowing; 3] = [
    (
        "a stream run (and so a resumed one) has no snapshot points",
        |m| matches!(m, Mode::Stream(_) | Mode::Resume(_)),
        |c| c.snapshots = false,
    ),
    (
        "serve's `JobSpec` has no combine scope, DINC monitor, early stop \
         or snapshot points",
        |m| matches!(m, Mode::Serve(_)),
        |c| {
            (c.combine, c.monitor, c.snapshots) = (CombineScope::Task, MonitorKind::Frequent, false)
        },
    ),
    (
        "`Dataflow` has no admission, combine scope, DINC monitor, \
         `km_hint`, early stop or snapshot points, and traces the chain, \
         not its stages' engines",
        |m| matches!(m, Mode::Dataflow(_)),
        Cell::plain,
    ),
];

/// The deterministic cell list. Framework and the named axes of each
/// block form a full product; the other axes cycle along the list with
/// periods of their own, so their values meet each other and every
/// framework. A uniform fault plan expands into one cell per seed.
fn cells() -> Vec<Cell> {
    use AdmissionPolicy::{Lfu, Off};
    use CombineScope::{Node, Task};
    use Faults::{Poison, ReduceCrashes, Uniform};
    let env = |name| std::env::var(name).ok().and_then(|v| v.parse::<u64>().ok());
    let threads = env("OPA_TEST_THREADS").map(|t| t.max(2) as usize);
    let seeds = env("OPA_FAULT_SEEDS").unwrap_or(3);
    let plans = [Faults::None, ReduceCrashes, Poison, Uniform(0)];
    let (mut cells, mut n) = (Vec::new(), 0usize);
    let mut push = |framework, mode, set: &dyn Fn(&mut Cell)| {
        let mut cell = Cell {
            framework,
            cluster: Cluster::ALL[n / 3 % 3],
            admission: [Off, Lfu][n % 2],
            combine: [CombineScope::Off, Task, Node][n / 9 % 3],
            monitor: [MonitorKind::Frequent, MonitorKind::SpaceSaving][n / 4 % 2],
            faults: plans[n / 5 % plans.len()],
            snapshots: n % 5 == 0,
            trace: n % 7 == 3,
            mode,
            threads: threads.unwrap_or([2, 4, 8][n % 3]),
        };
        n += 1;
        set(&mut cell);
        if framework != Framework::DincHash {
            cell.monitor = MonitorKind::Frequent;
        }
        for (_, applies, narrow) in INEXPRESSIBLE {
            if applies(mode) {
                narrow(&mut cell);
            }
        }
        if let Uniform(_) = cell.faults {
            cells.extend((0..seeds).map(|s| Cell {
                faults: Uniform(s),
                ..cell
            }));
        } else {
            cells.push(cell);
        }
    };
    for fw in Framework::ALL {
        // Default options on every cluster at each second thread count.
        for cluster in Cluster::ALL {
            for _ in 0..3 {
                push(fw, Mode::Batch, &|c| {
                    c.plain();
                    (c.cluster, c.faults) = (cluster, Faults::None);
                });
            }
        }
        for combine in [CombineScope::Off, Task, Node] {
            for &f in &plans[..3] {
                push(fw, Mode::Batch, &|c| (c.combine, c.faults) = (combine, f));
            }
        }
        for adm in [Off, Lfu] {
            push(fw, Mode::Batch, &|c| {
                (c.admission, c.faults) = (adm, Uniform(0))
            });
        }
        // Every k = 4 cell is traced, so the trace relation meets each
        // framework at both scopes.
        for combine in [Task, Node] {
            for k in [1, 4, 7] {
                push(fw, Mode::Stream(k), &|c| {
                    c.combine = combine;
                    c.trace |= k == 4;
                });
            }
        }
        for (i, cluster) in Cluster::ALL.into_iter().enumerate() {
            for (j, &f) in plans.iter().enumerate() {
                let (k, scope) = ([2, 4, 8][(i + j) % 3], [Task, Node][(i + j) % 2]);
                push(fw, Mode::Resume(k), &|c| {
                    (c.cluster, c.faults, c.combine) = (cluster, f, scope)
                });
            }
        }
        // One server per framework: its serve cells are consecutive.
        for faults in plans {
            push(fw, Mode::Serve(4), &|c| c.faults = faults);
        }
        for (j, faults) in plans.into_iter().enumerate() {
            let policy = POLICIES[(fw as usize + j) % POLICIES.len()];
            push(fw, Mode::Dataflow(policy), &|c| c.faults = faults);
        }
    }
    // The gate rejects on every gated framework, streamed and resumed (a
    // resumed gate decides with the checkpoint's sketch).
    for fw in Framework::ALL {
        for mode in [Mode::Stream(4), Mode::Resume(4)] {
            push(fw, mode, &|c| {
                (c.cluster, c.admission, c.faults) = (Cluster::Cramped, Lfu, Faults::None)
            });
        }
    }
    // At every seed count, the resumed cells that need the `RESUME_GAPS`
    // entries (`tests/option_space.rs`) the first three seeds leave
    // unused: on this cluster `map_finish` moves under seed `0xF3`, and so
    // do DINC-hash's monitor books, spill and output order; MR-hash's
    // output order moves under seed `0xF0 + 18`.
    for (framework, seed) in [(Framework::DincHash, 3), (Framework::MrHash, 18)] {
        cells.push(Cell {
            framework,
            cluster: Cluster::Tiny,
            admission: Lfu,
            combine: Task,
            monitor: MonitorKind::Frequent,
            faults: Uniform(seed),
            snapshots: false,
            trace: false,
            mode: Mode::Resume(4),
            threads: threads.unwrap_or(4),
        });
    }
    cells
}

const POLICIES: [HandoffPolicy; 3] = [
    HandoffPolicy::Auto,
    HandoffPolicy::Reshuffle,
    HandoffPolicy::Materialize,
];

/// How many runs took each path some check is about.
#[derive(Default, Debug)]
pub struct Tally {
    paths: BTreeMap<String, usize>,
}

impl Tally {
    /// Counts the paths `o`'s run took.
    pub fn count(&mut self, o: &JobOutcome) {
        let m = &o.metrics;
        let adm = m.admission.unwrap_or_default();
        let nc = m.node_combine.unwrap_or_default();
        let late = |e: &TraceEvent| matches!(e, TraceEvent::ReduceStart { .. });
        let events = o.trace.iter().flat_map(|t| &t.events);
        for (path, taken) in [
            ("fired", m.faults.as_ref().is_some_and(|f| f.any_fired())),
            ("evicted", adm.admitted_evictions > 0),
            ("rejected", adm.rejected > 0),
            ("merged", nc.merged_rows > 0),
            ("spilled", m.reduce_spill_bytes > 0),
            ("quarantined", !o.dlq.is_empty()),
            ("snapshot", m.snapshot_bytes > 0),
            ("traced", o.trace.is_some()),
            ("second-wave", events.clone().any(late)),
        ] {
            self.mark(path, taken);
        }
    }

    /// Counts one run along `path` if it was `taken`.
    pub fn mark(&mut self, path: &str, taken: bool) {
        *self.paths.entry(path.to_owned()).or_default() += usize::from(taken);
    }

    /// How many runs took `path`.
    pub fn runs(&self, path: &str) -> usize {
        self.paths.get(path).copied().unwrap_or(0)
    }

    /// Fails unless some run took each of the space-separated `paths`.
    pub fn require(&self, paths: &str) {
        for path in paths.split(' ') {
            assert!(
                self.runs(path) > 0,
                "no run took the {path} path ({self:?})"
            );
        }
    }
}

/// One-thread untraced batch runs, by their cell.
pub type Batches = HashMap<String, Arc<JobOutcome>>;

/// The batch run of `cell`'s options, checked once against the oracle and
/// the books. Reduce-crash recovery re-replays a reducer's history, so its
/// admission books are the fault-free run's.
pub fn batch_of(batches: &mut Batches, cell: &Cell, tally: &mut Tally) -> Checked<Arc<JobOutcome>> {
    let mut twin = *cell;
    (twin.mode, twin.trace, twin.threads) = (Mode::Batch, false, 1);
    if let Some(o) = batches.get(&format!("{twin:?}")) {
        return Ok(Arc::clone(o));
    }
    let o = Arc::new(twin.batch(1, false));
    tally.count(&o);
    check_oracle(&o)?;
    check_books(&twin, &o)?;
    if twin.faults == Faults::ReduceCrashes {
        let mut clean = twin;
        clean.faults = Faults::None;
        ensure!(o.metrics.admission == batch_of(batches, &clean, tally)?.metrics.admission);
        ensure!(o.metrics.faults.as_ref().map_or(0, |f| f.reduce_failures) > 0);
    }
    batches.insert(format!("{twin:?}"), Arc::clone(&o));
    Ok(o)
}

/// The books: admission `offered = absorbed + rejected`, no eviction with
/// the gate off and no more evicted or rejected spill than reduce spill;
/// node staging `staged ≥ flushed`; a fired fault plan shows recovery, and
/// every poisoned record is in the dead-letter queue, once (no two share an
/// offset). A trace's rollup has the metrics' first-pass and recovery I/O,
/// map, shuffle and node-combine counters.
pub fn check_books(cell: &Cell, o: &JobOutcome) -> Checked {
    let m = &o.metrics;
    if let Some(a) = m.admission {
        ensure!(a.offered == a.absorbed + a.rejected);
        ensure!(cell.admission.is_on() || a.admitted_evictions + a.spill.admitted_evict == 0);
        ensure!(a.spill.admitted_evict + a.spill.rejected_arrival <= m.reduce_spill_bytes);
    }
    ensure!(m.node_combine.is_some() == cell.combine.is_node());
    let nc = m.node_combine.unwrap_or_default();
    ensure!(nc.staged_bytes >= nc.flushed_bytes);
    if let Some(f) = &m.faults {
        ensure!(!f.any_fired() || f.total_retries() + f.stragglers + f.udf_poisoned > 0);
        ensure!(f.udf_poisoned == o.dlq.len() as u64);
    }
    let offsets: BTreeSet<u64> = o.dlq.iter().map(|r| r.offset).collect();
    ensure!(offsets.len() == o.dlq.len(), "a record quarantined twice");
    if let Some(t) = &o.trace {
        let r = t.rollup();
        ensure!((&r.first_pass, &r.recovery) == (&m.io_first_pass(), &m.io_recovery));
        ensure!((r.map_output_bytes, r.map_spill_bytes) == (m.map_output_bytes, m.map_spill_bytes));
        ensure!((r.shuffle_bytes, r.node_combine_staged) == (m.shuffle_bytes, nc.staged_bytes));
        ensure!((r.node_combine_flushed, r.node_combine_flushes) == (nc.flushed_bytes, nc.flushes));
    }
    Ok(())
}

/// `o`, a run of `cell` in another mode, has the books and the output (in
/// order), metrics and dead-letter queue of the batch run `reference`.
pub fn same_run(cell: &Cell, reference: &JobOutcome, o: &JobOutcome, tally: &mut Tally) -> Checked {
    tally.count(o);
    check_books(cell, o)?;
    ensure!(o.output == reference.output);
    ensure!(o.metrics == reference.metrics);
    ensure!(o.dlq == reference.dlq);
    Ok(())
}

/// Checks cells of a mode whose front end this crate does not link
/// (stream, resume, serve): one cell, or a framework's serve cells, which
/// share one server.
pub type FrontEnd = fn(&[Cell], &mut Batches, &mut Tally) -> Checked;

/// Checks `group` (one cell, unless it is a server's) in its mode against
/// the one-thread batch run:
/// - batch: the whole outcome (the trace included) at the second thread
///   count is equal; tracing changes nothing else; a plain cell equals
///   the untouched build (no option setter called);
/// - dataflow: see [`check_chain`];
/// - any other mode: `front_end` checks it.
fn check(group: &[Cell], batches: &mut Batches, tally: &mut Tally, front_end: FrontEnd) -> Checked {
    let cell = &group[0];
    let policy = match cell.mode {
        Mode::Batch => None,
        Mode::Dataflow(policy) => Some(policy),
        _ => return front_end(group, batches, tally),
    };
    let reference = batch_of(batches, cell, tally)?;
    if let Some(policy) = policy {
        return check_chain(cell, policy, &reference, tally);
    }
    let one = match cell.trace {
        false => format!("{reference:?}"),
        true => {
            let traced = cell.batch(1, true);
            same_run(cell, &reference, &traced, tally)?;
            let rest = |o: &JobOutcome| format!("{:?}{:?}", o.progress, o.timeline);
            ensure!(rest(&traced) == rest(&reference) && traced.usage == reference.usage);
            format!("{traced:?}")
        }
    };
    let par = format!("{:?}", cell.batch(cell.threads, cell.trace));
    ensure!(one == par, "the outcome moved at {} threads", cell.threads);
    if cell.is_plain() {
        let untouched = JobBuilder::new(cell.job()).framework(cell.framework);
        let untouched = untouched.cluster(cell.cluster.spec()).run(input());
        ensure!(format!("{:?}", untouched?) == one);
    }
    Ok(())
}

/// Dataflow: the chain's sorted output is the oracle's less the words of
/// both stages' quarantined records; the first stage's metrics and
/// dead-letter queue are the batch run's; the second stage skips its
/// shuffle under `Auto` and takes the policy's handoff otherwise.
fn check_chain(
    cell: &Cell,
    policy: HandoffPolicy,
    reference: &JobOutcome,
    tally: &mut Tally,
) -> Checked {
    let chain = Dataflow::new(cell.cluster.spec())
        .then(cell.job(), cell.framework)
        .then(SumCounts, cell.framework)
        .policy(policy)
        .faults(cell.faults.config())
        .exec(ExecConfig::oversubscribed(cell.threads));
    let out = chain.run(input())?;
    let [first, second] = &out.stages[..] else {
        return Err("a stage is missing".into());
    };
    ensure!((&first.metrics, &first.dlq) == (&reference.metrics, &reference.dlq));
    let handoff = match policy {
        HandoffPolicy::Auto => Handoff::InMemory,
        HandoffPolicy::Reshuffle => Handoff::Reshuffled,
        HandoffPolicy::Materialize => Handoff::Materialized,
    };
    ensure!(
        second.handoff == handoff,
        "{:?} under {policy:?}",
        second.handoff
    );
    let mut quarantined = count(first.dlq.iter().map(|r| r.record.as_slice()));
    for r in &second.dlq {
        let (word, n) = decode_kv(&r.record).ok_or("an unframed record")?;
        let n = u64::from_be_bytes(n.try_into()?);
        *quarantined.entry(word).or_default() += n;
    }
    check_counts(&out.sorted_output(), quarantined)?;
    let fired = |s: &StageReport| s.metrics.faults.as_ref().is_some_and(|f| f.any_fired());
    let skipped = second.handoff == Handoff::InMemory;
    tally.mark("skipped", skipped);
    tally.mark("fired-in-skipped-stage", skipped && fired(second));
    Ok(())
}

pub fn fingerprint(cell: &Cell) -> u32 {
    opa_simio::codec::crc32(format!("{cell:?}").as_bytes())
}

/// Checks every cell `select` picks (at least one), and returns the paths
/// their runs took. A failing fault cell leaves its fault report in
/// `target/fault_traces/` for CI to upload.
pub fn run_cells(select: impl Fn(&Cell) -> bool, front_end: FrontEnd) -> Tally {
    let (mut batches, mut tally, mut failed) = (Batches::new(), Tally::default(), vec![]);
    let cells: Vec<Cell> = cells().into_iter().filter(|c| select(c)).collect();
    assert!(!cells.is_empty(), "no cell is selected");
    let one_server = |a: &Cell, b: &Cell| {
        matches!(a.mode, Mode::Serve(_)) && (a.mode, a.framework) == (b.mode, b.framework)
    };
    for group in cells.chunk_by(one_server) {
        let Err(msg) = check(group, &mut batches, &mut tally, front_end) else {
            continue;
        };
        let mut line = format!("{group:?}: {msg}");
        let faulted: Vec<&Cell> = group.iter().filter(|c| c.faults != Faults::None).collect();
        if !faulted.is_empty() {
            let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).with_file_name("fault_traces");
            let path = dir.join(format!("{:08x}.txt", fingerprint(faulted[0])));
            let mut report = format!("{line}\n");
            for cell in faulted {
                report += &format!("{cell:?}\n{:#?}\n", cell.batch(1, false).metrics.faults);
            }
            let _ = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, report));
            line += &format!(" (fault report in {path:?})");
        }
        failed.push(line);
    }
    let report = failed.join("\n");
    assert!(
        failed.is_empty(),
        "{} cells failed:\n{report}",
        failed.len()
    );
    tally
}

/// Checks the batch cells `select` picks.
pub fn run_batch_cells(select: impl Fn(&Cell) -> bool) -> Tally {
    run_cells(
        |c| c.mode == Mode::Batch && select(c),
        |_, _, _| unreachable!("a batch cell needs no front end"),
    )
}
