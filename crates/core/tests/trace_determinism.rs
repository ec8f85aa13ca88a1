//! The trace layer's pins: CRC-32 pins over the canonical JSONL, the
//! output and the byte counts of the sort-merge path, every hash group-by
//! path and the delivery paths, and a lossless JSONL round trip. That a
//! trace is byte-identical at any thread count, that tracing never
//! perturbs the run and that the rollup agrees with `JobMetrics` is
//! checked by the option-space generator (`option_space/mod.rs`); the
//! last four tests are its views over the traced batch cells.

mod common;
mod option_space;

use common::{seeded_input, spec, WordCount};
use opa_common::fault::FaultConfig;
use opa_common::rng::SplitMix64;
use opa_common::units::SimTime;
use opa_common::{AdmissionPolicy, CombineScope, ExecConfig, HashFamily};
use opa_core::cluster::{ClusterSpec, Framework};
use opa_core::job::{JobBuilder, JobInput, JobOutcome};
use opa_core::map_phase::{compute_map_task, finish_map_task};
use opa_core::sim::Resources;
use opa_simio::codec::crc32;
use opa_simio::BlockStore;
use option_space::{run_batch_cells, Faults};

fn run_traced(framework: Framework, threads: usize) -> JobOutcome {
    JobBuilder::new(WordCount)
        .framework(framework)
        .cluster(spec())
        .exec(ExecConfig::oversubscribed(threads))
        .trace(true)
        .run(&seeded_input(0xC0FFEE, 1500))
        .expect("job runs")
}

fn jsonl(outcome: &JobOutcome) -> String {
    outcome.trace.as_ref().expect("trace enabled").to_jsonl()
}

#[test]
fn golden_trace_pin() {
    // CRC-32 pin over the canonical JSONL of one small workload. This is
    // the strictest regression guard the format has: any change to event
    // ordering, field order, numeric formatting or the event vocabulary
    // shows up here. If you changed the trace format *on purpose*, rerun
    // with `--nocapture`, verify the diff is intended, and update the pin.
    let outcome = run_traced(Framework::SortMerge, 1);
    let text = jsonl(&outcome);
    let crc = crc32(text.as_bytes());
    println!("golden trace: {} bytes, crc32 0x{crc:08X}", text.len());
    assert_eq!(
        crc, 0xF4AA_E046,
        "trace format drifted from the golden pin (see test comment)"
    );
}

/// A sliding window of a dozen hot words over a wide cold tail: words keep
/// turning hot after the tables have filled (so the LFU gates see strictly
/// hotter newcomers), stay hot across neighbouring chunks (so node staging
/// has cross-task keys to merge), and the tail overflows every table of
/// [`pin_spec`].
fn pin_input() -> JobInput {
    let mut rng = SplitMix64::new(0x0051_A7E5);
    let recs: Vec<Vec<u8>> = (0..4000u64)
        .map(|i| {
            let words: Vec<String> = (0..3 + rng.next_below(4))
                .map(|_| {
                    if rng.next_below(3) == 0 {
                        format!("h{}", i / 16 + rng.next_below(12))
                    } else {
                        format!("t{}", rng.next_below(3000))
                    }
                })
                .collect();
            words.join(" ").into_bytes()
        })
        .collect();
    JobInput::from_records(recs)
}

/// The 2-node test cluster with 4 KB of reduce memory — about 70 resident
/// keys per reducer against about 750 arriving, so spilled buckets
/// themselves overflow and re-partition — and a node staging budget of a
/// few map outputs, so stages merge across tasks and still flush early.
fn pin_spec() -> ClusterSpec {
    let mut spec = ClusterSpec::tiny();
    spec.hardware.reduce_buffer = 4096;
    spec.node_combine_buffer = 40 * 1024;
    spec
}

/// Map-side LFU evictions in one chunk's plan, counted from the shipped
/// payloads alone: displaced and unadmitted rows ship before the resident
/// ones, a resident key ships once, and an unadmitted arrival carries a
/// single tuple — so a row holding two or more tuples that is followed by
/// another row of its key was a resident, evicted.
fn map_side_evictions(input: &JobInput, spec: &ClusterSpec) -> usize {
    let store = BlockStore::split(
        input.records.iter().map(|r| r.len() as u64),
        spec.system.chunk_size,
        spec.hardware.nodes,
    );
    let chunk = &store.chunks()[0];
    let plan = compute_map_task(
        &WordCount,
        Framework::IncHash,
        &input.records[chunk.range.clone()],
        chunk.bytes,
        spec,
        HashFamily::new(spec.hash_seed).fn_at(0),
        AdmissionPolicy::Lfu,
        CombineScope::Task,
        None,
    );
    let mut res = Resources::new(spec.hardware.nodes, spec.hardware.map_slots, false);
    let result = finish_map_task(plan, chunk.node, SimTime::ZERO, spec, &mut res);
    let mut evictions = 0;
    for rows in &result.granules[0].partitions {
        let rows: Vec<_> = rows.iter().collect();
        for (i, row) in rows.iter().enumerate() {
            let again = rows[i + 1..].iter().any(|later| later.key == row.key);
            evictions += usize::from(row.value.as_u64() >= Some(2) && again);
        }
    }
    evictions
}

#[test]
fn golden_hash_path_pins() {
    // The sort-merge pin above never enters the hash group-by code. These
    // rows pin the effect order (trace CRC), the finalize order (CRC of the
    // output in emission order) and the byte counts of every path through
    // it: the map-side collapse table with and without the LFU gate, the
    // MR-hash combiner table, INC-hash's resident table under first-come
    // and LFU admission, the spilled-bucket pass with overflow recursion
    // under all three hash frameworks, and the node staging table in both
    // merge modes. Update a row only for a change that means to move it.
    use AdmissionPolicy::{Lfu, Off};
    use CombineScope::{Node, Task};
    struct Pin {
        name: &'static str,
        framework: Framework,
        admission: AdmissionPolicy,
        combine: CombineScope,
        trace_crc: u32,
        output_crc: u32,
        /// map output, shuffle, reduce spill, output bytes.
        bytes: [u64; 4],
    }
    #[rustfmt::skip]
    let pins = [
        Pin { name: "inc-hash", framework: Framework::IncHash, admission: Off, combine: Task,
              trace_crc: 0x8CB8_9AD6, output_crc: 0xEDB4_C003, bytes: [236_605, 236_605, 372_130, 65_679] },
        Pin { name: "inc-hash lfu", framework: Framework::IncHash, admission: Lfu, combine: Task,
              trace_crc: 0x8A1A_8869, output_crc: 0x4AC3_AE7B, bytes: [241_550, 241_550, 380_247, 65_679] },
        Pin { name: "dinc-hash", framework: Framework::DincHash, admission: Off, combine: Task,
              trace_crc: 0xF72E_2809, output_crc: 0xA9D4_F647, bytes: [236_605, 236_605, 421_617, 65_679] },
        Pin { name: "mr-hash", framework: Framework::MrHash, admission: Off, combine: Task,
              trace_crc: 0x157C_A978, output_crc: 0x5BFE_C37D, bytes: [236_605, 236_605, 478_685, 65_679] },
        Pin { name: "inc-hash node", framework: Framework::IncHash, admission: Off, combine: Node,
              trace_crc: 0x70E6_4A92, output_crc: 0x66CA_D8D1, bytes: [236_605, 165_807, 266_630, 65_679] },
        Pin { name: "sort-merge node", framework: Framework::SortMerge, admission: Off, combine: Node,
              trace_crc: 0xDA63_5608, output_crc: 0x6369_764C, bytes: [236_605, 165_807, 165_807, 65_679] },
    ];
    let (input, spec) = (pin_input(), pin_spec());
    for pin in pins {
        let name = pin.name;
        let outcome = JobBuilder::new(WordCount)
            .framework(pin.framework)
            .cluster(spec)
            .admission(pin.admission)
            .combine(pin.combine)
            .trace(true)
            .run(&input)
            .expect("job runs");
        let m = &outcome.metrics;

        // Non-vacuity: the row really runs the code it pins.
        if pin.framework != Framework::SortMerge {
            // A tuple is staged at most once before the bucket pass, so
            // spilling more than was shuffled means a bucket overflowed
            // and was re-partitioned.
            assert!(
                m.reduce_spill_bytes > m.shuffle_bytes,
                "{name}: no overflow recursion ({} spilled of {} shuffled)",
                m.reduce_spill_bytes,
                m.shuffle_bytes
            );
        }
        if pin.admission.is_on() {
            let adm = m.admission.expect("incremental frameworks report it");
            assert!(
                adm.admitted_evictions > 0,
                "{name}: no reduce-side eviction"
            );
            assert!(
                map_side_evictions(&input, &spec) > 0,
                "{name}: no map-side eviction"
            );
        }
        if pin.combine.is_node() {
            let nc = m.node_combine.expect("node scope reports its stage");
            assert!(nc.merged_rows > 0, "{name}: nothing merged across tasks");
        }

        let trace_crc = crc32(jsonl(&outcome).as_bytes());
        let output_crc = crc32(&opa_simio::codec::encode_run(&outcome.output));
        let bytes = [
            m.map_output_bytes,
            m.shuffle_bytes,
            m.reduce_spill_bytes,
            m.output_bytes,
        ];
        println!("{name}: trace 0x{trace_crc:08X}, output 0x{output_crc:08X}, bytes {bytes:?}");
        assert_eq!(trace_crc, pin.trace_crc, "{name}: effect order drifted");
        assert_eq!(output_crc, pin.output_crc, "{name}: finalize order drifted");
        assert_eq!(bytes, pin.bytes, "{name}: byte counts drifted");
    }
}

#[test]
fn golden_delivery_path_pins() {
    // The rows above run on a free cost model, where every delivery of a
    // granule arrives at once. These run on the paper-scaled cluster, where
    // deliveries arrive in size order and interleave with other map tasks'
    // granules, and pin the delivery paths no other row reaches: snapshots
    // taken at the next delivery after a progress point, deliveries parked
    // for a second-wave reducer and re-read from the mappers' disks, and
    // reduce crashes that re-replay the recorded history. Same columns as
    // `golden_hash_path_pins`; update a row only for a change that means to
    // move it.
    struct Pin {
        name: &'static str,
        framework: Framework,
        snapshots: &'static [f64],
        /// Reducers per node as a multiple of the reduce slots.
        waves: usize,
        faults: FaultConfig,
        trace_crc: u32,
        output_crc: u32,
        /// map output, shuffle, reduce spill, output bytes.
        bytes: [u64; 4],
    }
    let none = FaultConfig::disabled();
    #[rustfmt::skip]
    let pins = [
        Pin { name: "sort-merge pipelined snapshots", framework: Framework::SortMergePipelined,
              snapshots: &[0.25, 0.5, 0.75], waves: 1, faults: none,
              trace_crc: 0xEAE3_7A9B, output_crc: 0x6CEB_3E65, bytes: [104_410, 104_410, 13_455, 6_050] },
        Pin { name: "dinc-hash two waves", framework: Framework::DincHash,
              snapshots: &[], waves: 2, faults: none,
              trace_crc: 0x5B8C_CEE0, output_crc: 0xD631_FB9B, bytes: [66_920, 66_920, 6_050, 6_050] },
        Pin { name: "inc-hash reduce crashes", framework: Framework::IncHash,
              snapshots: &[], waves: 1, faults: FaultConfig::uniform(3, 0.05),
              trace_crc: 0xCFF0_4EFC, output_crc: 0x81A1_C022, bytes: [66_920, 66_920, 0, 6_050] },
    ];
    let input = seeded_input(0xC0FFEE, 1500);
    for pin in pins {
        let name = pin.name;
        // 1 KB of reduce memory: sort-merge spills runs, so its snapshots
        // read them back and its background merges open spans.
        let mut cluster = spec();
        cluster.hardware.reduce_buffer = 1024;
        cluster.bucket_write_buffer = 256;
        cluster.system.reducers_per_node = pin.waves * cluster.hardware.reduce_slots;
        let outcome = JobBuilder::new(WordCount)
            .framework(pin.framework)
            .cluster(cluster)
            .snapshot_points(pin.snapshots)
            .faults(pin.faults)
            .trace(true)
            .run(&input)
            .expect("job runs");
        let m = &outcome.metrics;
        let text = jsonl(&outcome);

        // Non-vacuity: the row really runs the path it pins.
        assert_eq!(m.snapshot_bytes > 0, !pin.snapshots.is_empty(), "{name}");
        assert_eq!(
            text.contains("\"ev\":\"reduce_start\""),
            pin.waves > 1,
            "{name}: second-wave reducers start late"
        );
        let crashes = m.faults.as_ref().map_or(0, |f| f.reduce_failures);
        assert_eq!(crashes > 0, pin.faults.enabled(), "{name}: {crashes}");

        let trace_crc = crc32(text.as_bytes());
        let output_crc = crc32(&opa_simio::codec::encode_run(&outcome.output));
        let bytes = [
            m.map_output_bytes,
            m.shuffle_bytes,
            m.reduce_spill_bytes,
            m.output_bytes,
        ];
        println!("{name}: trace 0x{trace_crc:08X}, output 0x{output_crc:08X}, bytes {bytes:?}");
        assert_eq!(trace_crc, pin.trace_crc, "{name}: effect order drifted");
        assert_eq!(output_crc, pin.output_crc, "{name}: finalize order drifted");
        assert_eq!(bytes, pin.bytes, "{name}: byte counts drifted");
    }
}

#[test]
fn jsonl_roundtrip_preserves_every_event() {
    let outcome = run_traced(Framework::DincHash, 2);
    let log = outcome.trace.as_ref().expect("trace enabled");
    let text = log.to_jsonl();
    let back = opa_trace::TraceLog::from_jsonl(&text).expect("parse back");
    assert_eq!(back.events.len(), log.events.len());
    assert_eq!(back.to_jsonl(), text, "roundtrip must be lossless");
}

/// The whole outcome, trace included, at 1 thread and at 2, 4 or 8.
#[test]
fn traces_are_byte_identical_across_thread_counts() {
    run_batch_cells(|c| c.trace).require("traced");
}

/// Fault, retry and quarantine events under every fault plan.
#[test]
fn fault_event_traces_are_byte_identical_across_thread_counts() {
    run_batch_cells(|c| c.trace && c.faults != Faults::None).require("traced fired");
}

/// A traced run's metrics, output, dead-letter queue, progress, timeline
/// and usage are the untraced run's.
#[test]
fn tracing_does_not_perturb_the_simulation() {
    run_batch_cells(|c| c.trace).require("traced");
}

/// The rollup's first-pass and recovery I/O, map, shuffle and
/// node-combine counters are `JobMetrics`'.
#[test]
fn rollup_agrees_with_job_metrics() {
    run_batch_cells(|c| c.trace).require("traced spilled");
}
