//! Unit tests driving the reduce-side frameworks directly, without the
//! full job orchestrator: buffer spills, background merges, hybrid-hash
//! staging, incremental state flow and DINC eviction.

use super::*;
use crate::api::{Combiner, IncrementalReducer, Job, ReduceCtx};
use crate::cluster::ClusterSpec;
use crate::progress::ProgressTracker;
use crate::sim::Resources;
use opa_common::units::{SimDuration, SimTime};
use opa_common::{HashFamily, Key, Pair, RecordBatch, Value};
use std::collections::BTreeMap;

/// Counting job used across these tests.
struct Count;

impl Job for Count {
    fn name(&self) -> &str {
        "count"
    }
    fn map(&self, _record: &[u8], _emit: &mut dyn FnMut(&[u8], &[u8])) {
        unreachable!("reduce-side tests never map");
    }
    fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
        let sum: u64 = values.iter().filter_map(Value::as_u64).sum();
        ctx.emit(key.clone(), Value::from_u64(sum));
    }
    fn combiner(&self) -> Option<&dyn Combiner> {
        Some(self)
    }
    fn incremental(&self) -> Option<&dyn IncrementalReducer> {
        Some(self)
    }
}

impl Combiner for Count {
    fn fold(&self, _key: &Key, acc: &mut Value, value: Value) {
        *acc = Value::from_u64(acc.as_u64().unwrap_or(0) + value.as_u64().unwrap_or(0));
    }
}

impl IncrementalReducer for Count {
    fn init(&self, _key: &Key, value: &[u8]) -> Value {
        Value::from_slice(value)
    }
    fn cb(&self, _key: &Key, acc: &mut Value, other: Value, _ctx: &mut ReduceCtx) {
        *acc = Value::from_u64(acc.as_u64().unwrap_or(0) + other.as_u64().unwrap_or(0));
    }
    fn finalize(&self, key: &Key, state: Value, ctx: &mut ReduceCtx) {
        ctx.emit(key.clone(), state);
    }
}

/// One copy of everything a replay writes into.
pub(super) struct Harness {
    spec: ClusterSpec,
    pub(super) res: Resources,
    pub(super) progress: ProgressTracker,
    pub(super) output: Vec<Pair>,
    pub(super) reduce_cpu: SimDuration,
    pub(super) spill_written: u64,
    /// Reduce-spill bytes read back (merge inputs and the final merge).
    pub(super) spill_read: u64,
    /// Sizes of the runs spilled outside any span, in order: the buffer
    /// spills a merge policy starts from.
    pub(super) initial_runs: Vec<u64>,
    pub(super) snapshot_bytes: u64,
}

impl Harness {
    pub(super) fn new(spec: ClusterSpec) -> Self {
        Harness {
            spec,
            res: Resources::new(spec.hardware.nodes, 4, false),
            progress: ProgressTracker::new(1),
            output: Vec::new(),
            reduce_cpu: SimDuration::ZERO,
            spill_written: 0,
            spill_read: 0,
            initial_runs: Vec::new(),
            snapshot_bytes: 0,
        }
    }

    /// Applies a recorded effect log to the harness state, as the engine's
    /// scheduling layer would.
    fn apply(&mut self, log: Vec<Effect>, t0: SimTime) -> SimTime {
        self.apply_on(0, log, t0)
    }

    /// [`Harness::apply`] for a reducer hosted on `node`.
    pub(super) fn apply_on(&mut self, node: usize, log: Vec<Effect>, t0: SimTime) -> SimTime {
        let spec = self.spec;
        let mut depth = 0usize;
        for effect in &log {
            match effect {
                Effect::Spill(op) => {
                    self.spill_read += op.read;
                    if depth == 0 && op.read == 0 {
                        self.initial_runs.push(op.written);
                    }
                }
                Effect::SpanOpen => depth += 1,
                Effect::SpanClose(_) => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        replay(
            log,
            t0,
            &spec,
            ReplayTarget {
                node,
                res: &mut self.res,
                progress: &mut self.progress,
                output: &mut self.output,
                reduce_cpu: &mut self.reduce_cpu,
                spill_written: &mut self.spill_written,
                snapshot_bytes: &mut self.snapshot_bytes,
            },
        )
    }

    /// Records one delivery and immediately replays it from `t`.
    fn deliver(&mut self, r: &mut dyn ReduceSide, t: SimTime, batch: RecordBatch) -> SimTime {
        let spec = self.spec;
        let mut env = ReduceEnv::new(&spec);
        r.deliver(batch, &mut env);
        self.apply(env.into_log(), t)
    }

    /// Records the finish phase and immediately replays it from `t`.
    fn finish(&mut self, r: &mut dyn ReduceSide, t: SimTime) -> SimTime {
        let spec = self.spec;
        let mut env = ReduceEnv::new(&spec);
        r.complete(&mut env);
        self.apply(env.into_log(), t)
    }

    fn counts(&self) -> BTreeMap<u64, u64> {
        self.output
            .iter()
            .map(|p| (p.key.as_u64().unwrap(), p.value.as_u64().unwrap()))
            .collect()
    }
}

// Hash-free batches: the reducers must fall back to recomputing `h1`
// when the shuffle's cached fingerprints are absent (restore path).
fn sorted_pairs(keys: &[u64]) -> RecordBatch {
    let mut keys = keys.to_vec();
    keys.sort_unstable();
    RecordBatch::from_pairs(
        keys.into_iter()
            .map(|k| Pair::new(Key::from_u64(k), Value::from_u64(1)))
            .collect(),
    )
}

fn states(keys: &[u64]) -> RecordBatch {
    RecordBatch::from_pairs(
        keys.iter()
            .map(|&k| Pair::new(Key::from_u64(k), Value::from_u64(1)))
            .collect(),
    )
}

fn sizing() -> ReducerSizing {
    ReducerSizing {
        expected_input: 1 << 20,
        expected_keys: 64,
        state_size: 16,
        early_stop_coverage: None,
        monitor: MonitorKind::Frequent,
        admission: opa_common::AdmissionPolicy::Off,
    }
}

#[test]
fn sort_merge_counts_across_spills() {
    let mut spec = ClusterSpec::tiny();
    spec.hardware.reduce_buffer = 256; // force many buffer spills
    let mut h = Harness::new(spec);
    let job = Count;
    let mut r = sort_merge::SortMergeReducer::new(JobRef::borrowed(&job), &spec);
    let mut t = SimTime::ZERO;
    for batch in 0..20u64 {
        let keys: Vec<u64> = (0..5).map(|i| (batch + i) % 7).collect();
        t = h.deliver(&mut r, t, sorted_pairs(&keys));
    }
    let _ = h.finish(&mut r, t);
    // With a combiner, spilled runs are pre-aggregated but totals survive.
    let total: u64 = h.counts().values().sum();
    assert_eq!(total, 100);
    assert_eq!(h.counts().len(), 7);
    assert!(h.spill_written > 0, "tiny buffer must have spilled");
}

#[test]
fn sort_merge_background_merge_bounds_files() {
    let mut spec = ClusterSpec::tiny();
    spec.hardware.reduce_buffer = 128;
    spec.system.merge_factor = 2; // merge whenever 3 files exist
    let mut h = Harness::new(spec);
    let job = Count;
    let mut r = sort_merge::SortMergeReducer::new(JobRef::borrowed(&job), &spec);
    let mut t = SimTime::ZERO;
    for batch in 0..40u64 {
        t = h.deliver(&mut r, t, sorted_pairs(&[batch % 11, (batch + 1) % 11]));
    }
    let _ = h.finish(&mut r, t);
    assert_eq!(h.counts().values().sum::<u64>(), 80);
}

/// [`Count`] without its combiner: buffer spills keep every pair.
struct CountRaw;

impl Job for CountRaw {
    fn name(&self) -> &str {
        "count-raw"
    }
    fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
        Count.map(record, emit);
    }
    fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
        Count.reduce(key, values, ctx);
    }
}

/// The reduce-side half of the `U_4` identity: a sort-merge reducer's
/// spill traffic (bytes read plus written) equals the exact merge-tree
/// replay over that reducer's own buffer-spill sizes, with no tolerance,
/// at each merge factor and with and without a combiner.
#[test]
fn sort_merge_spill_bytes_equal_merge_tree_replay() {
    use opa_model::lambda::MergeTreeSim;
    for f in [2usize, 4] {
        for job in [&Count as &dyn Job, &CountRaw] {
            let mut spec = ClusterSpec::tiny();
            spec.hardware.reduce_buffer = 200;
            spec.system.merge_factor = f;
            let mut h = Harness::new(spec);
            let mut r = sort_merge::SortMergeReducer::new(JobRef::borrowed(job), &spec);
            let mut t = SimTime::ZERO;
            // Batches of 1–5 keys over a 13-key space: runs of uneven
            // sizes, with ties, and combined runs smaller still.
            for batch in 0..90u64 {
                let keys: Vec<u64> = (0..1 + batch % 5).map(|i| (batch * 7 + i) % 13).collect();
                t = h.deliver(&mut r, t, sorted_pairs(&keys));
            }
            let _ = h.finish(&mut r, t);
            let mut sim = MergeTreeSim::new(f);
            let merges = h
                .initial_runs
                .iter()
                .filter(|&&b| sim.add_run(b).is_some())
                .count();
            let cost = sim.finish();
            let name = job.name();
            assert!(merges > 0, "F={f} {name}: no merge fired");
            assert_eq!(h.spill_written, cost.written, "F={f} {name}");
            assert_eq!(h.spill_read, cost.read, "F={f} {name}");
        }
    }
}

#[test]
fn mr_hash_stages_and_recovers_everything() {
    let mut spec = ClusterSpec::tiny();
    spec.hardware.reduce_buffer = 2048;
    spec.bucket_write_buffer = 256;
    let mut h = Harness::new(spec);
    let job = Count;
    let family = HashFamily::new(3);
    let big = ReducerSizing {
        expected_input: 1 << 16, // well over memory → several buckets
        ..sizing()
    };
    let mut r = mr_hash::MrHashReducer::new(JobRef::borrowed(&job), &spec, big, &family);
    let mut t = SimTime::ZERO;
    for batch in 0..50u64 {
        let keys: Vec<u64> = (0..8).map(|i| (batch * 3 + i) % 23).collect();
        t = h.deliver(&mut r, t, sorted_pairs(&keys));
    }
    let _ = h.finish(&mut r, t);
    assert_eq!(h.counts().values().sum::<u64>(), 400);
    assert_eq!(h.counts().len(), 23);
    assert!(h.spill_written > 0, "staged buckets must exist");
}

#[test]
fn inc_hash_zero_spill_when_memory_suffices() {
    let spec = ClusterSpec::tiny();
    let mut h = Harness::new(spec);
    let job = Count;
    let family = HashFamily::new(4);
    let mut r = inc_hash::IncHashReducer::new(JobRef::borrowed(&job), &spec, sizing(), &family);
    let mut t = SimTime::ZERO;
    for batch in 0..100u64 {
        t = h.deliver(&mut r, t, states(&[batch % 10]));
    }
    let _ = h.finish(&mut r, t);
    assert_eq!(h.spill_written, 0);
    assert_eq!(h.counts().values().sum::<u64>(), 100);
    assert_eq!(h.counts().len(), 10);
}

#[test]
fn inc_hash_bucket_path_is_exact() {
    let mut spec = ClusterSpec::tiny();
    spec.hardware.reduce_buffer = 600; // room for only a handful of states
    spec.bucket_write_buffer = 128;
    let mut h = Harness::new(spec);
    let job = Count;
    let family = HashFamily::new(5);
    let mut r = inc_hash::IncHashReducer::new(JobRef::borrowed(&job), &spec, sizing(), &family);
    let mut t = SimTime::ZERO;
    for round in 0..60u64 {
        let keys: Vec<u64> = (0..4).map(|i| (round + i * 17) % 50).collect();
        t = h.deliver(&mut r, t, states(&keys));
    }
    let _ = h.finish(&mut r, t);
    assert!(h.spill_written > 0, "memory pressure must stage tuples");
    assert_eq!(h.counts().values().sum::<u64>(), 240);
    assert_eq!(h.counts().len(), 50);
}

#[test]
fn dinc_hash_counts_survive_eviction_churn() {
    let mut spec = ClusterSpec::tiny();
    spec.hardware.reduce_buffer = 512;
    spec.bucket_write_buffer = 128;
    let mut h = Harness::new(spec);
    let job = Count;
    let family = HashFamily::new(6);
    let mut r = dinc_hash::DincHashReducer::new(JobRef::borrowed(&job), &spec, sizing(), &family);
    assert!(r.slots() >= 1);
    let mut t = SimTime::ZERO;
    // A hot key interleaved with a churning cold tail.
    let mut expect: BTreeMap<u64, u64> = BTreeMap::new();
    for round in 0..300u64 {
        let keys = [7u64, 1000 + (round % 60)];
        for &k in &keys {
            *expect.entry(k).or_default() += 1;
        }
        t = h.deliver(&mut r, t, states(&keys));
    }
    let _ = h.finish(&mut r, t);
    assert_eq!(h.counts(), expect, "eviction churn must not lose counts");
}

#[test]
fn dinc_early_stop_reports_only_covered_keys() {
    let mut spec = ClusterSpec::tiny();
    spec.hardware.reduce_buffer = 512;
    spec.bucket_write_buffer = 128;
    let mut h = Harness::new(spec);
    let job = Count;
    let family = HashFamily::new(8);
    let approx = ReducerSizing {
        early_stop_coverage: Some(0.5),
        ..sizing()
    };
    let mut r = dinc_hash::DincHashReducer::new(JobRef::borrowed(&job), &spec, approx, &family);
    let mut t = SimTime::ZERO;
    for round in 0..200u64 {
        let keys = [7u64, 2000 + (round % 80)];
        t = h.deliver(&mut r, t, states(&keys));
    }
    let spilled_before = h.spill_written;
    let _ = h.finish(&mut r, t);
    // Early stop: no bucket is read back, so spill stays as-is and only
    // hot (covered) keys are reported.
    assert_eq!(h.spill_written, spilled_before);
    let counts = h.counts();
    assert!(counts.contains_key(&7), "the hot key must be reported");
    assert!(
        counts.len() < 81,
        "early stop must not report the whole key space"
    );
    // The reported hot-key count is a partial (≤ true) count.
    assert!(counts[&7] <= 200);
}

/// Early stop finalizes a monitored key only when its γ under the
/// monitor's own slack clears φ. With φ between the hot key's γ under
/// FREQUENT (slack `M/(s+1)`) and under SpaceSaving (slack `M/s`), the
/// FREQUENT reducer reports the key and the SpaceSaving one does not.
#[test]
fn dinc_early_stop_uses_the_monitors_own_slack() {
    let mut spec = ClusterSpec::tiny();
    spec.hardware.reduce_buffer = 512;
    spec.bucket_write_buffer = 128;
    let job = Count;
    let family = HashFamily::new(8);
    let rounds = 200u64;
    let make = |monitor, phi| {
        let sizing = ReducerSizing {
            early_stop_coverage: Some(phi),
            monitor,
            ..sizing()
        };
        dinc_hash::DincHashReducer::new(JobRef::borrowed(&job), &spec, sizing, &family)
    };
    // Key 7 arrives first and every other tuple, so under either rule it
    // is installed at once, never displaced, and combines all of its
    // tuples: t = f = `rounds`, out of M = 2·`rounds` offered.
    let run = |mut r: dinc_hash::DincHashReducer<'_>| {
        let mut h = Harness::new(spec);
        let mut t = SimTime::ZERO;
        for round in 0..rounds {
            let keys = [7u64, 3000 + round];
            t = h.deliver(&mut r, t, states(&keys));
        }
        let hot = r.query(&Key::from_u64(7)).and_then(|v| v.as_u64());
        assert_eq!(hot, Some(rounds), "the hot key combined every tuple");
        let _ = h.finish(&mut r, t);
        h.counts().contains_key(&7)
    };
    let s = make(MonitorKind::Frequent, 0.5).slots() as f64;
    assert!(
        s >= 2.0,
        "one slot would let SpaceSaving displace the hot key"
    );
    let (t, m) = (rounds as f64, 2.0 * rounds as f64);
    let frequent = t / (t + m / (s + 1.0));
    let space_saving = t / (t + m / s);
    let phi = (frequent + space_saving) / 2.0;
    assert!(space_saving < phi && phi < frequent);
    assert!(run(make(MonitorKind::Frequent, phi)));
    assert!(
        !run(make(MonitorKind::SpaceSaving, phi)),
        "SpaceSaving finalized a key whose γ = {space_saving:.4} < φ = {phi:.4}"
    );
}

/// [`Count`] whose every state is charged 200 bytes against the reduce
/// buffer and whose count doubles as an event time, so a few keys fill
/// memory and the bucket pass moves a watermark.
struct Heavy;

impl Job for Heavy {
    fn name(&self) -> &str {
        "heavy"
    }
    fn map(&self, _record: &[u8], _emit: &mut dyn FnMut(&[u8], &[u8])) {
        unreachable!("reduce-side tests never map");
    }
    fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
        Count.reduce(key, values, ctx);
    }
    fn incremental(&self) -> Option<&dyn IncrementalReducer> {
        Some(self)
    }
}

impl IncrementalReducer for Heavy {
    fn init(&self, key: &Key, value: &[u8]) -> Value {
        Count.init(key, value)
    }
    fn cb(&self, key: &Key, acc: &mut Value, other: Value, ctx: &mut ReduceCtx) {
        Count.cb(key, acc, other, ctx);
    }
    fn finalize(&self, key: &Key, state: Value, ctx: &mut ReduceCtx) {
        Count.finalize(key, state, ctx);
    }
    fn state_mem_size(&self, _state: &Value) -> u64 {
        200
    }
    fn event_time(&self, state: &Value) -> Option<u64> {
        state.as_u64()
    }
}

/// The bucket pass with one reused table and overflow buffer logs exactly
/// what the fresh-table-per-bucket form logs — every charge, spill and
/// emitted pair, in order — and leaves the same watermark, for INC-hash
/// under both admission policies and DINC-hash under both monitors, over
/// seeded inputs in a reduce buffer small enough that buckets re-partition
/// down to [`buckets::MAX_DEPTH`].
#[test]
fn reused_bucket_pass_matches_the_fresh_table_oracle() {
    use super::buckets::{DEEPEST, FRESH_TABLES, MAX_DEPTH};
    use opa_common::rng::SplitMix64;
    use opa_common::AdmissionPolicy;
    let mut spec = ClusterSpec::tiny();
    spec.cost = ClusterSpec::paper_scaled().cost;
    spec.hardware.reduce_buffer = 1200;
    spec.bucket_write_buffer = 128;
    let cases = [
        (
            Framework::IncHash,
            MonitorKind::Frequent,
            AdmissionPolicy::Off,
        ),
        (
            Framework::IncHash,
            MonitorKind::Frequent,
            AdmissionPolicy::Lfu,
        ),
        (
            Framework::DincHash,
            MonitorKind::Frequent,
            AdmissionPolicy::Off,
        ),
        (
            Framework::DincHash,
            MonitorKind::SpaceSaving,
            AdmissionPolicy::Off,
        ),
    ];
    for (framework, monitor, admission) in cases {
        for (seed, expected_keys) in [(1u64, 64u64), (2, 512), (3, 64), (4, 512)] {
            let sizing = ReducerSizing {
                expected_keys,
                monitor,
                admission,
                ..sizing()
            };
            let family = HashFamily::new(seed);
            // 240 keys, skewed: a key's tuples spread over the whole input.
            let mut rng = SplitMix64::new(0xB0C4_E700 + seed);
            let batches: Vec<Vec<u64>> = (0..60)
                .map(|_| {
                    (0..12)
                        .map(|_| {
                            let span = 1 + rng.next_below(240);
                            rng.next_below(span)
                        })
                        .collect()
                })
                .collect();
            let run = |fresh: bool| {
                FRESH_TABLES.set(fresh);
                DEEPEST.set(0);
                let mut r = make_reducer(framework, &Heavy, &spec, sizing, &family).unwrap();
                let mut delivered = Vec::new();
                for keys in &batches {
                    let mut env = ReduceEnv::new(&spec);
                    r.deliver(states(keys), &mut env);
                    delivered.extend(env.into_log());
                }
                let mut env = ReduceEnv::new(&spec);
                r.complete(&mut env);
                FRESH_TABLES.set(false);
                let log = env.into_log();
                let total: u64 = delivered
                    .iter()
                    .chain(&log)
                    .filter_map(|e| match e {
                        Effect::Emit(pairs) => Some(pairs),
                        _ => None,
                    })
                    .flatten()
                    .map(|p| p.value.as_u64().unwrap())
                    .sum();
                (format!("{log:?}"), r.watermark(), total, DEEPEST.get())
            };
            let (oracle_log, oracle_watermark, oracle_total, _) = run(true);
            let (log, watermark, total, deepest) = run(false);
            let case = format!("{framework:?} {monitor:?} {admission:?} seed {seed}");
            assert_eq!(log, oracle_log, "{case}: effect logs differ");
            assert_eq!(watermark, oracle_watermark, "{case}");
            assert_eq!(
                deepest, MAX_DEPTH,
                "{case}: the pass never reached the depth limit"
            );
            assert_eq!(oracle_total, 60 * 12, "{case}: the oracle lost counts");
            assert_eq!(total, oracle_total, "{case}");
        }
    }
}

/// MR-hash's staged-bucket path, pinned: the CRC-32 of each run's
/// `Debug`-formatted effect log (every delivery, then completion) over
/// seeded inputs in which one key carries about a quarter of the tuples,
/// so the hot-key guard fires, across reduce buffers, hash seeds and two
/// sizings. The small sizing stages into three disk buckets; the large one
/// meets the disk-bucket clamp at the two smaller buffers. `D1` overflows
/// into bucket file 0 in every run, and every run re-partitions at least
/// once; some reach [`buckets::MAX_DEPTH`]. Update a CRC only for a change
/// that means to move MR-hash's effects.
#[test]
fn mr_hash_effect_log_pins() {
    use super::buckets::DEEPEST;
    use opa_common::rng::SplitMix64;
    use opa_simio::codec::crc32;
    const HOT: u64 = 7;
    let mut spec = ClusterSpec::tiny();
    spec.cost = ClusterSpec::paper_scaled().cost;
    spec.bucket_write_buffer = 128;
    // Per reduce buffer, hash seeds 1–4, each the small sizing then the
    // large one.
    #[rustfmt::skip]
    let pins: [(u64, [u32; 8]); 3] = [
        (1200, [0xAA00_03F9, 0x8678_9318, 0x4EBE_5394, 0xB40B_699D,
                0x852C_02C8, 0xE98B_B303, 0x5EED_BFD4, 0x97C9_A1D0]),
        (2048, [0xF728_5512, 0xF988_6633, 0xEFB9_347F, 0x1445_9FC3,
                0x3362_8C56, 0x41ED_D4B3, 0x92E1_E48E, 0x69FF_364F]),
        (4096, [0x2CB8_F319, 0x8204_8EE2, 0xDA43_F5B8, 0x985E_FDA8,
                0x7FDF_F841, 0x94B0_A668, 0x4DBD_C2FD, 0xFC79_B44D]),
    ];
    for (reduce_buffer, crcs) in pins {
        spec.hardware.reduce_buffer = reduce_buffer;
        for (i, pinned) in crcs.into_iter().enumerate() {
            let seed = 1 + i as u64 / 2;
            let expected_input = if i % 2 == 0 {
                2 * reduce_buffer
            } else {
                1 << 14
            };
            let sizing = ReducerSizing {
                expected_input,
                ..sizing()
            };
            let family = HashFamily::new(seed);
            let mut rng = SplitMix64::new(100 + seed);
            DEEPEST.set(0);
            let mut r = make_reducer(Framework::MrHash, &Count, &spec, sizing, &family).unwrap();
            let mut log = Vec::new();
            for _ in 0..80 {
                let keys: Vec<u64> = (0..12)
                    .map(|_| {
                        if rng.next_below(4) == 0 {
                            HOT
                        } else {
                            rng.next_below(80)
                        }
                    })
                    .collect();
                let mut env = ReduceEnv::new(&spec);
                r.deliver(sorted_pairs(&keys), &mut env);
                log.extend(env.into_log());
            }
            let mut env = ReduceEnv::new(&spec);
            r.complete(&mut env);
            log.extend(env.into_log());
            let total: u64 = log
                .iter()
                .filter_map(|e| match e {
                    Effect::Emit(pairs) => Some(pairs),
                    _ => None,
                })
                .flatten()
                .map(|p| p.value.as_u64().unwrap())
                .sum();
            let case = format!("buffer {reduce_buffer} seed {seed} input {expected_input}");
            assert_eq!(total, 80 * 12, "{case}: counts lost");
            assert!(DEEPEST.get() >= 4, "{case}: nothing re-partitioned");
            let crc = crc32(format!("{log:?}").as_bytes());
            assert_eq!(crc, pinned, "{case}: effect log drifted (0x{crc:08X})");
        }
    }
}
