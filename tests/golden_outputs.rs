//! Golden-output pins for the paper's five evaluation workloads.
//!
//! Every (workload, framework) cell runs on a fixed seeded input and its
//! canonically-sorted output is digested with the IFile CRC-32 over the
//! [`encode_run`] serialization. The digests below are *pins*: any engine
//! change that alters even one output byte of one cell fails loudly here,
//! which is exactly what the fault-injection work needs as a tripwire.
//! DINC-hash runs twice, once per monitor algorithm, and once more under
//! SpaceSaving with the LFU admission policy on.
//!
//! To re-pin after an *intentional* output change, run with
//! `OPA_PRINT_GOLDEN=1 cargo test -q --test golden_outputs -- --nocapture`
//! and paste the printed table.

use opa::common::AdmissionPolicy;
use opa::core::prelude::*;
use opa::freq::MonitorKind;
use opa::simio::codec::{crc32, encode_run};
use opa::workloads::clickstream::ClickStreamSpec;
use opa::workloads::documents::DocumentSpec;
use opa::workloads::{
    ClickCountJob, FrequentUsersJob, PageFreqJob, SessionizeJob, TrigramCountJob,
};

/// A digest column: a framework, the monitor DINC-hash runs, and the
/// reduce-side admission policy.
type Column = (Framework, MonitorKind, AdmissionPolicy);

const COLUMNS: [Column; 5] = [
    (
        Framework::SortMerge,
        MonitorKind::Frequent,
        AdmissionPolicy::Off,
    ),
    (
        Framework::MrHash,
        MonitorKind::Frequent,
        AdmissionPolicy::Off,
    ),
    (
        Framework::IncHash,
        MonitorKind::Frequent,
        AdmissionPolicy::Off,
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

/// SpaceSaving under the LFU policy: a table-full arrival whose every
/// victim the expiry guard vetoes is rejected, and the second chance the
/// policy would give it is refused.
const SPACE_SAVING_LFU: Column = (
    Framework::DincHash,
    MonitorKind::SpaceSaving,
    AdmissionPolicy::Lfu,
);

/// The cluster a column runs on: `tiny`, with a 1 KB reduce buffer under
/// SpaceSaving, so that its monitor fills and evicts on every workload
/// (on `tiny`'s 16 KB, click counting keeps every key resident).
fn cluster((_, monitor, _): Column) -> ClusterSpec {
    let mut spec = ClusterSpec::tiny();
    if monitor == MonitorKind::SpaceSaving {
        spec.hardware.reduce_buffer = 1024;
        spec.bucket_write_buffer = 256;
    }
    spec
}

/// A SpaceSaving cell pins nothing about the monitor unless the monitor
/// filled and displaced an occupant before the input ended: the
/// end-of-input flush evicts every resident key too, so the evictions
/// must outnumber the keys resident at the end.
fn check_monitor(cell: &str, (_, monitor, _): Column, metrics: &JobMetrics) {
    if monitor == MonitorKind::SpaceSaving {
        let d = metrics.dinc.expect("DINC-hash reports monitor stats");
        let resident = metrics.admission.expect("admission stats").resident_keys;
        assert!(
            d.evict_output + d.evict_spilled > resident,
            "{cell}: the SpaceSaving monitor never evicted before the input \
             ended ({d:?}, {resident} resident at the end)"
        );
    }
}

fn digest(job: impl Job + Clone + 'static, column: Column, input: &JobInput) -> u32 {
    let (framework, monitor, admission) = column;
    let outcome = JobBuilder::new(job)
        .framework(framework)
        .cluster(cluster(column))
        .dinc_monitor(monitor)
        .admission(admission)
        .run(input)
        .expect("job runs");
    check_monitor(&format!("{column:?}"), column, &outcome.metrics);
    crc32(&encode_run(&outcome.sorted_output()))
}

/// Same cell, but streamed through `opa-stream` in `batches` micro-batches
/// instead of one shot. The stream runtime promises bit-identical output,
/// so this digest must equal the batch pin.
fn stream_digest(
    job: impl Job + Clone + 'static,
    column: Column,
    input: &JobInput,
    batches: usize,
) -> u32 {
    let (framework, monitor, admission) = column;
    let outcome = opa::stream::StreamJobBuilder::new(job)
        .framework(framework)
        .cluster(cluster(column))
        .dinc_monitor(monitor)
        .admission(admission)
        .batches(batches)
        .run_stream(input, |_| {})
        .expect("stream runs");
    check_monitor(
        &format!("{column:?}, streamed"),
        column,
        &outcome.job.metrics,
    );
    crc32(&encode_run(&outcome.job.sorted_output()))
}

fn row(job: impl Job + Clone + 'static, input: &JobInput) -> [u32; 5] {
    COLUMNS.map(|column| digest(job.clone(), column, input))
}

fn stream_row(job: impl Job + Clone + 'static, input: &JobInput, batches: usize) -> [u32; 5] {
    COLUMNS.map(|column| stream_digest(job.clone(), column, input, batches))
}

fn sessionize_job() -> SessionizeJob {
    SessionizeJob {
        gap_secs: 300,
        slack_secs: 400,
        state_capacity: 16384,
        charge_fixed_footprint: false,
        expected_users: 100,
    }
}

fn computed() -> Vec<(&'static str, [u32; 5])> {
    let clicks = ClickStreamSpec::small().generate(101);
    let docs = DocumentSpec::small().generate(102);
    vec![
        ("sessionization", row(sessionize_job(), &clicks)),
        (
            "click-count",
            row(
                ClickCountJob {
                    expected_users: 100,
                },
                &clicks,
            ),
        ),
        (
            "frequent-users",
            row(
                FrequentUsersJob {
                    threshold: 20,
                    expected_users: 100,
                },
                &clicks,
            ),
        ),
        (
            "page-freq",
            row(
                PageFreqJob {
                    expected_pages: 1000,
                },
                &clicks,
            ),
        ),
        (
            "trigrams",
            row(
                TrigramCountJob {
                    threshold: 10,
                    expected_trigrams: 10_000,
                },
                &docs,
            ),
        ),
    ]
}

/// (workload, [SortMerge, MrHash, IncHash, DincHash, DincHash under
/// SpaceSaving]) digest table, computed once from this revision of the
/// engine and pinned.
const GOLDEN: [(&str, [u32; 5]); 5] = [
    (
        "sessionization",
        [0x398ad04a, 0x398ad04a, 0x398ad04a, 0x98cf5831, 0x98cf5831],
    ),
    (
        "click-count",
        [0xadab7b67, 0xadab7b67, 0xadab7b67, 0xadab7b67, 0xadab7b67],
    ),
    (
        "frequent-users",
        [0xb012ef27, 0xb012ef27, 0x2fbba150, 0x2fbba150, 0x2fbba150],
    ),
    (
        "page-freq",
        [0x13a36f26, 0x13a36f26, 0x13a36f26, 0x13a36f26, 0x13a36f26],
    ),
    (
        "trigrams",
        [0xd438209e, 0xd438209e, 0x0fb159c1, 0xd438209e, 0x0fb159c1],
    ),
];

#[test]
fn golden_digests_match() {
    let got = computed();
    if std::env::var("OPA_PRINT_GOLDEN").is_ok() {
        for (name, r) in &got {
            let r = r.map(|d| format!("{d:#010x}")).join(", ");
            println!("    (\"{name}\", [{r}]),");
        }
        return;
    }
    for ((name, want), (_, have)) in GOLDEN.iter().zip(&got) {
        for (i, column) in COLUMNS.into_iter().enumerate() {
            assert_eq!(
                want[i], have[i],
                "{name} / {column:?}: output digest drifted (run with \
                 OPA_PRINT_GOLDEN=1 to re-pin after an intentional change)"
            );
        }
    }
}

#[test]
fn streamed_runs_match_golden_digests() {
    // The stream runtime seals micro-batches by *observing* the engine
    // between events, so every (workload, framework) cell streamed in 4
    // arrival-ordered batches must hit the exact same CRC pin as the
    // one-shot batch run.
    let clicks = ClickStreamSpec::small().generate(101);
    let docs = DocumentSpec::small().generate(102);
    let streamed: Vec<(&str, [u32; 5])> = vec![
        ("sessionization", stream_row(sessionize_job(), &clicks, 4)),
        (
            "click-count",
            stream_row(
                ClickCountJob {
                    expected_users: 100,
                },
                &clicks,
                4,
            ),
        ),
        (
            "frequent-users",
            stream_row(
                FrequentUsersJob {
                    threshold: 20,
                    expected_users: 100,
                },
                &clicks,
                4,
            ),
        ),
        (
            "page-freq",
            stream_row(
                PageFreqJob {
                    expected_pages: 1000,
                },
                &clicks,
                4,
            ),
        ),
        (
            "trigrams",
            stream_row(
                TrigramCountJob {
                    threshold: 10,
                    expected_trigrams: 10_000,
                },
                &docs,
                4,
            ),
        ),
    ];
    for ((name, want), (_, have)) in GOLDEN.iter().zip(&streamed) {
        for (i, column) in COLUMNS.into_iter().enumerate() {
            assert_eq!(
                want[i], have[i],
                "{name} / {column:?}: streamed output diverges from the \
                 one-shot batch pin"
            );
        }
    }
}

#[test]
fn digests_are_stable_across_repeat_runs() {
    // The pin is only meaningful if a digest is a pure function of the
    // input — spot-check one cell twice.
    let clicks = ClickStreamSpec::small().generate(101);
    let job = ClickCountJob {
        expected_users: 100,
    };
    let a = digest(job.clone(), COLUMNS[3], &clicks);
    let b = digest(job, COLUMNS[3], &clicks);
    assert_eq!(a, b);
}

/// Sessionization's digest with the SpaceSaving monitor under the LFU
/// admission policy, batch and streamed.
const GOLDEN_SPACE_SAVING_LFU: u32 = 0x98cf5831;

/// The LFU policy's second chance, refused under SpaceSaving: the
/// sessions' expiry guard vetoes every victim of some arrivals, those
/// arrivals are rejected, and none of them displaces an occupant.
#[test]
fn space_saving_refuses_the_second_chance() {
    let clicks = ClickStreamSpec::small().generate(101);
    let outcome = JobBuilder::new(sessionize_job())
        .framework(Framework::DincHash)
        .cluster(ClusterSpec::tiny())
        .dinc_monitor(MonitorKind::SpaceSaving)
        .admission(AdmissionPolicy::Lfu)
        .run(&clicks)
        .expect("job runs");
    let adm = outcome.metrics.admission.expect("admission stats");
    assert!(adm.rejected > 0, "no arrival was rejected: {adm:?}");
    assert_eq!(adm.admitted_evictions, 0, "a second chance was granted");
    let got = [
        digest(sessionize_job(), SPACE_SAVING_LFU, &clicks),
        stream_digest(sessionize_job(), SPACE_SAVING_LFU, &clicks, 4),
    ];
    if std::env::var("OPA_PRINT_GOLDEN").is_ok() {
        println!("const GOLDEN_SPACE_SAVING_LFU: u32 = {:#010x};", got[0]);
        return;
    }
    assert_eq!(got, [GOLDEN_SPACE_SAVING_LFU; 2]);
}

/// CRC-32 of the records concatenated, and of their lengths (as `u32` LE):
/// together they fix every byte and every record boundary of an input.
fn input_digest(input: &JobInput) -> (u32, u32) {
    let bytes: Vec<u8> = input
        .records
        .iter()
        .flat_map(|r| r.iter().copied())
        .collect();
    let lens: Vec<u8> = input
        .records
        .iter()
        .flat_map(|r| (r.len() as u32).to_le_bytes())
        .collect();
    (crc32(&bytes), crc32(&lens))
}

fn computed_inputs() -> Vec<(&'static str, (u32, u32))> {
    const MB: u64 = 1 << 20;
    // A fixed three-partition dataset with keys and values of mixed widths
    // (inline and shared), re-framed the way a reshuffling stage reads it.
    let pairs: Vec<Pair> = (0..500u64)
        .map(|i| {
            let key = format!("key-{:0w$}", i * 7919, w = 1 + (i % 23) as usize);
            let value = vec![(i % 251) as u8; (i % 41) as usize];
            Pair::new(Key::from_slice(key.as_bytes()), Value::from_slice(&value))
        })
        .collect();
    let dataset = Dataset::from_pairs(
        pairs,
        opa::core::dataflow::PartitionSpec {
            hash_seed: 7,
            partitions: 3,
        },
    );
    vec![
        (
            "clicks-small",
            input_digest(&ClickStreamSpec::small().generate(7)),
        ),
        (
            "clicks-sessions-1mb",
            input_digest(&ClickStreamSpec::paper_scaled(MB).generate(7)),
        ),
        (
            "clicks-counting-1mb",
            input_digest(&ClickStreamSpec::counting_scaled(MB).generate(7)),
        ),
        (
            "documents-1mb",
            input_digest(&DocumentSpec::paper_scaled(MB).generate(7)),
        ),
        ("dataset-to-input", input_digest(&dataset.to_input())),
    ]
}

/// (input, (CRC of the bytes, CRC of the record lengths)): the generators
/// and `Dataset::to_input` pinned directly, so a drifted digit width or
/// frame shows up here and not only through the output pins above.
const GOLDEN_INPUTS: [(&str, (u32, u32)); 5] = [
    ("clicks-small", (0x40cf2a1f, 0xd74c39ec)),
    ("clicks-sessions-1mb", (0xc7286a66, 0x6689c47c)),
    ("clicks-counting-1mb", (0xafb15d18, 0x6689c47c)),
    ("documents-1mb", (0x5d1576ef, 0xcc35cb21)),
    ("dataset-to-input", (0x427ab645, 0xee4276dc)),
];

#[test]
fn input_digests_match() {
    let got = computed_inputs();
    if std::env::var("OPA_PRINT_GOLDEN").is_ok() {
        for (name, (bytes, lens)) in &got {
            println!("    (\"{name}\", ({bytes:#010x}, {lens:#010x})),");
        }
        return;
    }
    assert_eq!(
        got, GOLDEN_INPUTS,
        "a generated input drifted (run with OPA_PRINT_GOLDEN=1 to re-pin \
         after an intentional change)"
    );
}
