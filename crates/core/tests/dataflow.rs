//! Dataflow-chain correctness battery.
//!
//! The contract under test: a chained run — in-memory handoffs, skipped
//! reshuffles and all — produces output *bit-identical* to the classic
//! staged pipeline that materializes every intermediate through a real
//! file, at any thread count; the skip path really moves zero shuffle
//! bytes, is an ordinary engine run (its map tasks queue on map slots) and
//! refuses a job whose `partition_preserving` declaration is false;
//! concurrent materialize chains keep their handoff files apart; and
//! mid-chain checkpoint/restore changes nothing but the amount of work
//! re-done. That every handoff policy, and every fault plan (one fired
//! inside a skipped stage included), leaves a chain's answer alone is a
//! relation of the root `tests/option_space.rs`.

// Only `WordCount` and `seeded_input` are needed here; the fault-matrix
// fixtures in `common` stay unused in this binary.
#[allow(dead_code)]
mod common;

use common::{seeded_input, WordCount};
use opa_common::{decode_kv, Key, Pair, Value};
use opa_core::api::{Job, ReduceCtx};
use opa_core::cluster::{ClusterSpec, Framework};
use opa_core::cost::CostModel;
use opa_core::dataflow::{
    Dataflow, DataflowOutcome, Dataset, Handoff, HandoffPolicy, PartitionSpec,
};
use opa_core::job::{JobBuilder, JobInput};
use opa_simio::codec::crc32;
use opa_trace::TraceEvent;
use std::path::PathBuf;

/// Key-identity stage: triples each count. Declares itself
/// partition-preserving, so an Auto chain may skip its shuffle.
struct Scale;

impl Job for Scale {
    fn name(&self) -> &str {
        "scale"
    }
    fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
        let (k, v) = decode_kv(record).expect("framed dataflow record");
        let n = u64::from_be_bytes(v.try_into().expect("u64 count"));
        emit(k, &(3 * n).to_be_bytes());
    }
    fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
        let sum: u64 = values.iter().filter_map(Value::as_u64).sum();
        ctx.emit(key.clone(), Value::from_u64(sum));
    }
    fn partition_preserving(&self) -> bool {
        true
    }
}

/// Re-keying stage: buckets words by first letter. Changes keys, so it
/// must reshuffle.
struct ByFirstLetter;

impl Job for ByFirstLetter {
    fn name(&self) -> &str {
        "by-first-letter"
    }
    fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
        let (k, v) = decode_kv(record).expect("framed dataflow record");
        emit(&k[..1], v);
    }
    fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
        let sum: u64 = values.iter().filter_map(Value::as_u64).sum();
        ctx.emit(key.clone(), Value::from_u64(sum));
    }
}

/// `ByFirstLetter` under a false declaration: it re-keys, and says it
/// does not.
struct Mislabelled;

impl Job for Mislabelled {
    fn name(&self) -> &str {
        "mislabelled"
    }
    fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
        ByFirstLetter.map(record, emit);
    }
    fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
        ByFirstLetter.reduce(key, values, ctx);
    }
    fn partition_preserving(&self) -> bool {
        true
    }
}

fn tiny() -> ClusterSpec {
    ClusterSpec::tiny()
}

fn chain_on(spec: ClusterSpec, threads: usize) -> Dataflow {
    Dataflow::new(spec)
        .then(WordCount, Framework::MrHash)
        .then(Scale, Framework::MrHash)
        .then(ByFirstLetter, Framework::SortMerge)
        .threads(threads)
}

fn chain(threads: usize) -> Dataflow {
    chain_on(tiny(), threads)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("opa-df-test-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// What no rewrite of the shuffle-skip path may move: the CRC-32 of the
/// chain's output written as an `.opadf` file (partition-major order
/// included) and of the `Debug` form the file decodes to, then the
/// skipped stage's `records_out`, `bytes_out`, `bytes_saved`,
/// `map_spill_bytes`, `reduce_spill_bytes` and `output_records`.
fn skip_pin(out: &DataflowOutcome, skipped: usize, tag: &str) -> (u32, u32, [u64; 6]) {
    let path = tmp_dir(tag).join("out.opadf");
    out.output.write(&path).expect("write the output dataset");
    let crc = crc32(&std::fs::read(&path).expect("read it back"));
    let decoded = Dataset::read(&path).expect("decode it");
    assert_eq!(decoded, out.output);
    let value_crc = crc32(format!("{decoded:?}").as_bytes());
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
    let s = &out.stages[skipped];
    assert_eq!(s.handoff, Handoff::InMemory);
    let books = [
        s.records_out,
        s.bytes_out,
        s.bytes_saved,
        s.metrics.map_spill_bytes,
        s.metrics.reduce_spill_bytes,
        s.metrics.output_records,
    ];
    (crc, value_crc, books)
}

/// The classic pipeline the chain must match: each stage through the
/// ordinary engine, every intermediate written to and re-read from a
/// real file.
fn staged_through_files(input: &JobInput, dir: &PathBuf) -> Vec<Pair> {
    let spec = tiny();
    std::fs::create_dir_all(dir).unwrap();
    let one = JobBuilder::new(WordCount)
        .framework(Framework::MrHash)
        .cluster(spec)
        .run(input)
        .expect("stage 1");
    let p1 = dir.join("stage1.opadf");
    one.dataset(&spec).write(&p1).expect("materialize stage 1");
    let two = JobBuilder::new(Scale)
        .framework(Framework::MrHash)
        .cluster(spec)
        .run(&Dataset::read(&p1).expect("re-read").to_input())
        .expect("stage 2");
    let p2 = dir.join("stage2.opadf");
    two.dataset(&spec).write(&p2).expect("materialize stage 2");
    let three = JobBuilder::new(ByFirstLetter)
        .framework(Framework::SortMerge)
        .cluster(spec)
        .run(&Dataset::read(&p2).expect("re-read").to_input())
        .expect("stage 3");
    std::fs::remove_dir_all(dir).ok();
    three.sorted_output()
}

#[test]
fn chained_matches_staged_files_at_every_thread_count() {
    let input = seeded_input(11, 600);
    let reference = staged_through_files(&input, &tmp_dir("staged"));
    assert!(!reference.is_empty());
    let mut skipped_metrics: Option<String> = None;
    for threads in [1, 2, 4, 8] {
        let out = chain(threads).run(&input).expect("chain runs");
        // The skipped stage is an engine run like any other: its whole
        // `JobMetrics`, not just its output, is thread-count invariant.
        let metrics = format!("{:?}", out.stages[1].metrics);
        assert_eq!(
            skipped_metrics.get_or_insert_with(|| metrics.clone()),
            &metrics,
            "skipped stage's metrics at {threads} threads"
        );
        assert_eq!(out.stages[0].handoff, Handoff::Source);
        assert_eq!(
            out.stages[1].handoff,
            Handoff::InMemory,
            "scale stage is partition-compatible"
        );
        assert_eq!(
            out.stages[2].handoff,
            Handoff::Reshuffled,
            "re-keying stage must reshuffle"
        );
        assert_eq!(
            out.sorted_output(),
            reference,
            "chained output must be bit-identical to the staged pipeline at {threads} threads"
        );
        assert_eq!(
            skip_pin(&out, 1, &format!("pin-chain-{threads}")),
            (
                3_547_969_535,
                3_387_050_744,
                [307, 4803, 6031, 0, 2855, 307]
            ),
            "{threads} threads"
        );
    }
}

#[test]
fn a_false_partition_preserving_declaration_is_an_error_not_a_wrong_answer() {
    let input = seeded_input(18, 400);
    let lying = |threads: usize, policy: HandoffPolicy| {
        Dataflow::new(tiny())
            .then(WordCount, Framework::MrHash)
            .then(Mislabelled, Framework::MrHash)
            .threads(threads)
            .policy(policy)
            .run(&input)
    };
    let mut messages = Vec::new();
    for threads in [1, 8] {
        let err = lying(threads, HandoffPolicy::Auto)
            .expect_err("the skip must refuse a map that re-keys")
            .to_string();
        assert!(
            err.contains("job 'mislabelled' declared partition_preserving"),
            "{err}"
        );
        // Both partitions are named, and they differ.
        let (_, tail) = err.split_once("from partition ").expect(&err);
        let (from, tail) = tail.split_once(" to partition ").expect(&err);
        let (to, _) = tail.split_once(';').expect(&err);
        let (from, to): (usize, usize) = (from.parse().expect(&err), to.parse().expect(&err));
        assert!(
            from != to && from.max(to) < tiny().total_reducers(),
            "{err}"
        );
        messages.push(err);
    }
    assert_eq!(messages[0], messages[1], "the first violation is the same");

    // Forced through a real shuffle the declaration is never relied on:
    // the job runs, and agrees with its honestly declared twin.
    let honest = Dataflow::new(tiny())
        .then(WordCount, Framework::MrHash)
        .then(ByFirstLetter, Framework::MrHash)
        .run(&input)
        .expect("honest chain");
    assert_eq!(honest.stages[1].handoff, Handoff::Reshuffled);
    let forced = lying(1, HandoffPolicy::Reshuffle).expect("reshuffled, the job is fine");
    assert_eq!(forced.sorted_output(), honest.sorted_output());
}

#[test]
fn colocated_map_tasks_queue_on_map_slots() {
    // Eight partitions over two nodes: four resident partitions per node
    // against two map slots, and twice as many reducers per node as
    // reduce slots (a colocated stage still starts them all in wave one).
    // Paper costs, so virtual time is not identically zero.
    let mut spec = tiny();
    spec.cost = CostModel::paper_scaled();
    spec.system.reducers_per_node = 2 * spec.hardware.reduce_slots;
    let per_node = spec.system.reducers_per_node;
    assert!(per_node > spec.hardware.map_slots);
    let input = seeded_input(19, 600);

    let queued = chain_on(spec, 2).run(&input).expect("auto");
    let skipped = &queued.stages[1];
    assert_eq!(skipped.handoff, Handoff::InMemory);
    assert_eq!(skipped.metrics.shuffle_bytes, 0);
    let resident = queued.stages[0].records_out;
    assert!(
        resident >= 8 * per_node as u64,
        "every partition is resident"
    );
    let reshuffled = chain_on(spec, 2)
        .policy(HandoffPolicy::Reshuffle)
        .run(&input)
        .expect("reshuffle");
    assert_eq!(queued.sorted_output(), reshuffled.sorted_output());

    // A slot per resident partition: no map task waits, the map phase
    // ends strictly earlier.
    let mut roomy = spec;
    roomy.hardware.map_slots = per_node;
    let unqueued = chain_on(roomy, 2).run(&input).expect("auto, roomy");
    assert_eq!(unqueued.stages[1].handoff, Handoff::InMemory);
    assert_eq!(queued.sorted_output(), unqueued.sorted_output());
    assert!(
        skipped.metrics.map_finish > unqueued.stages[1].metrics.map_finish,
        "map_finish {:?} with {} slots vs {:?} with {per_node}",
        skipped.metrics.map_finish,
        spec.hardware.map_slots,
        unqueued.stages[1].metrics.map_finish
    );
}

#[test]
fn concurrent_materialize_chains_keep_their_handoffs_apart() {
    // Two different chains, each materializing its handoffs through the
    // process's temp directory, on two threads at once.
    let (a, b) = (seeded_input(20, 300), seeded_input(21, 500));
    let run = |input: &JobInput, policy: HandoffPolicy| {
        chain(1)
            .policy(policy)
            .run(input)
            .map(|out| out.sorted_output())
    };
    let want_a = run(&a, HandoffPolicy::Reshuffle).expect("reference a");
    let want_b = run(&b, HandoffPolicy::Reshuffle).expect("reference b");
    assert_ne!(want_a, want_b);
    for round in 0..20 {
        let (got_a, got_b) = std::thread::scope(|s| {
            let ta = s.spawn(|| run(&a, HandoffPolicy::Materialize));
            let tb = s.spawn(|| run(&b, HandoffPolicy::Materialize));
            (ta.join().expect("thread a"), tb.join().expect("thread b"))
        });
        assert_eq!(got_a.expect("chain a"), want_a, "round {round}");
        assert_eq!(got_b.expect("chain b"), want_b, "round {round}");
    }
    // Nothing of this process's handoffs is left behind. (Another test
    // of this binary may be mid-handoff: a directory gets a second to go
    // away before it counts.)
    let prefix = format!("opa-dataflow-{}-", std::process::id());
    let lingers = |name: &String| {
        let dir = std::env::temp_dir().join(name);
        (0..100).all(|_| {
            std::thread::sleep(std::time::Duration::from_millis(10));
            dir.exists()
        })
    };
    let left: Vec<_> = std::fs::read_dir(std::env::temp_dir())
        .expect("temp dir lists")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with(&prefix) && lingers(name))
        .collect();
    assert!(left.is_empty(), "{left:?}");
}

#[test]
fn skip_path_moves_zero_shuffle_bytes_and_is_traced() {
    let input = seeded_input(14, 400);
    let out = chain(1).trace(true).run(&input).expect("chain runs");
    let skipped = &out.stages[1];
    assert_eq!(skipped.handoff, Handoff::InMemory);
    assert_eq!(
        skipped.metrics.map_output_bytes, 0,
        "in-memory stage must report zero shuffle volume"
    );
    assert!(skipped.bytes_saved > 0);

    let trace = out.trace.as_ref().expect("chain trace requested");
    let mut saw_skip = false;
    let mut stage0_handoff_reshuffled = None;
    for ev in &trace.events {
        match *ev {
            TraceEvent::ReshuffleSkipped {
                stage, bytes_saved, ..
            } => {
                assert_eq!(stage, 1);
                assert_eq!(bytes_saved, skipped.bytes_saved);
                saw_skip = true;
            }
            TraceEvent::StageHandoff {
                stage: 0,
                reshuffled,
                ..
            } => stage0_handoff_reshuffled = Some(reshuffled),
            _ => {}
        }
    }
    assert!(saw_skip, "reshuffle_skipped event must appear in the trace");
    assert_eq!(
        stage0_handoff_reshuffled,
        Some(false),
        "stage 0 -> 1 handoff must be marked as not reshuffled"
    );

    // The rollup sees the same story.
    let rollup = opa_trace::Rollup::from_events(&trace.events);
    assert_eq!(rollup.stage_skips, 1);
    assert_eq!(rollup.stage_reshuffles, 1); // by-first-letter
    assert_eq!(rollup.reshuffle_bytes_saved, skipped.bytes_saved);
}

#[test]
fn run_from_makes_a_dataset_a_first_class_source() {
    let input = seeded_input(15, 300);
    let spec = tiny();
    let counts = JobBuilder::new(WordCount)
        .framework(Framework::IncHash)
        .cluster(spec)
        .run(&input)
        .expect("producer job");
    let ds = counts.dataset(&spec);
    assert!(ds.verify_placement());
    assert_eq!(ds.spec(), PartitionSpec::of(&spec));

    let out = Dataflow::new(spec)
        .then(Scale, Framework::MrHash)
        .run_from(&ds)
        .expect("chain from dataset");
    assert_eq!(
        out.stages[0].handoff,
        Handoff::InMemory,
        "a compatible dataset source skips even the first stage's shuffle"
    );
    // Scaling a count job's output by 3 = scaling each sorted value by 3.
    let want: Vec<Pair> = counts
        .sorted_output()
        .into_iter()
        .map(|p| Pair::new(p.key, Value::from_u64(p.value.as_u64().unwrap() * 3)))
        .collect();
    assert_eq!(out.sorted_output(), want);
    assert_eq!(
        skip_pin(&out, 0, "pin-run-from"),
        (
            3_264_307_622,
            2_304_923_758,
            [298, 4661, 5853, 0, 2815, 298]
        )
    );
}

#[test]
fn checkpoint_resume_mid_chain_is_equivalent() {
    let input = seeded_input(16, 500);
    let dir = tmp_dir("ckpt");
    let full = chain(2)
        .checkpoints(&dir)
        .run(&input)
        .expect("checkpointing run");
    assert_eq!(full.resumed_from, None);

    // All three stage files exist: a resume restores the last stage's
    // output and re-executes nothing.
    let warm = chain(2)
        .checkpoints(&dir)
        .resume(true)
        .run(&input)
        .expect("warm resume");
    assert_eq!(warm.resumed_from, Some(2));
    assert!(warm.stages.is_empty());
    assert_eq!(warm.sorted_output(), full.sorted_output());
    // The restored dataset is what `stage-2.opadf` decodes to: its `Debug`
    // form holds through any change of the stage-file container.
    assert_eq!(
        crc32(format!("{:?}", warm.output).as_bytes()),
        1_325_045_069,
        "decoded stage checkpoint drifted"
    );

    // Delete the later checkpoints: resume must restart mid-chain from
    // stage 0's output and still converge to the identical answer.
    std::fs::remove_file(dir.join("stage-1.opadf")).unwrap();
    std::fs::remove_file(dir.join("stage-2.opadf")).unwrap();
    let mid = chain(2)
        .checkpoints(&dir)
        .resume(true)
        .run(&input)
        .expect("mid-chain resume");
    assert_eq!(mid.resumed_from, Some(0));
    assert_eq!(mid.stages.len(), 2, "stages 1 and 2 re-execute");
    assert_eq!(mid.stages[0].handoff, Handoff::InMemory);
    assert_eq!(mid.sorted_output(), full.sorted_output());

    // A different chain must refuse these checkpoints entirely.
    let foreign = Dataflow::new(tiny())
        .then(WordCount, Framework::MrHash)
        .then(ByFirstLetter, Framework::MrHash)
        .threads(2)
        .checkpoints(&dir)
        .resume(true)
        .run(&input)
        .expect("foreign chain runs cold");
    assert_eq!(
        foreign.resumed_from, None,
        "fingerprint mismatch: cold start"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn union_rejects_mismatched_partitioning() {
    let input = seeded_input(17, 200);
    let a = JobBuilder::new(WordCount)
        .framework(Framework::MrHash)
        .cluster(tiny())
        .run(&input)
        .expect("job a")
        .dataset(&tiny());
    let mut other = tiny();
    other.hash_seed ^= 0xbeef;
    let b = JobBuilder::new(WordCount)
        .framework(Framework::MrHash)
        .cluster(other)
        .run(&input)
        .expect("job b")
        .dataset(&other);
    assert!(Dataset::union(&a, &b).is_err(), "different hash seeds");
    let ok = Dataset::union(&a, &a).expect("same spec unions fine");
    assert_eq!(ok.len(), 2 * a.len());
}
