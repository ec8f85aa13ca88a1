//! Every decoder of outside bytes answers `Ok` or `Err` — never a panic —
//! on seeded mutations of a valid sample: byte flips, truncations and, in
//! the `OPAC` containers, a forged `u64` spliced over every value of every
//! numeric section (and over every section length) with the CRC re-sealed,
//! so the forgery reaches the schema parser behind the checksum.
//!
//! The samples are one file of each container kind — stream checkpoint,
//! quarantine, dataset, dataflow stage checkpoint — a stream checkpoint
//! carrying both trailing groups (quarantined records, staging tables) and
//! one of DINC-hash under the SpaceSaving monitor, plus a record run
//! (`codec::decode_run`) and a JSONL trace (`TraceLog::from_jsonl`). The
//! compatibility corpus (`tests/corpus/`, files an earlier build wrote) is
//! mutated the same way.
//! Integer overflow traps in debug builds and wraps in release, so the two
//! builds reach different code: run this file under both.

use opa::common::fault::FaultConfig;
use opa::common::rng::SplitMix64;
use opa::common::{CombineScope, Key, Pair, Result, Value};
use opa::core::cluster::{ClusterSpec, Framework};
use opa::core::dataflow::{Dataflow, Dataset, PartitionSpec, StageCheckpoint};
use opa::core::job::{JobInput, PoisonedRecord};
use opa::freq::MonitorKind;
use opa::simio::codec::{crc32, decode_run, encode_run};
use opa::stream::{CheckpointView, SavedState, StagedTable, StreamJobBuilder};
use opa::trace::TraceLog;
use opa::workloads::clickstream::ClickStreamSpec;
use opa::workloads::ClickCountJob;
use opa_serve::QuarantineFile;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Values a forger splices in, plus one drawn per position: zero, one, two
/// counts no file can back, and the two that overflow `1 + n` and `2 * n`.
const FORGED: [u64; 6] = [0, 1, 1 << 32, 1 << 62, 1 << 63, u64::MAX];

/// The compatibility corpus: each file, under the name of its kind.
const CORPUS: [(&str, &str); 4] = [
    ("stream checkpoint", "stream-ckpt-b2.opac"),
    ("quarantine", "dlq-t1-j2.opaq"),
    ("dataset", "click-count.opadf"),
    ("dataflow stage checkpoint", "stage-0.opadf"),
];

/// Byte flips and truncation points drawn per sample.
const DRAWS: usize = 64;

/// A decoder under test: takes the bytes, answers `Ok` or `Err`.
type Decode<'a> = &'a dyn Fn(&[u8]) -> Result<()>;

/// An owned [`Decode`].
type Reader = Box<dyn Fn(&[u8]) -> Result<()>>;

/// Runs `decode` on `bytes`, recording a panic as a failure.
fn check(what: &str, bytes: &[u8], decode: Decode<'_>, failures: &mut Vec<String>) {
    if catch_unwind(AssertUnwindSafe(|| decode(bytes))).is_err() {
        failures.push(what.to_string());
    }
}

/// Seeded byte flips and truncations, with the truncation edges.
fn flips_and_cuts(name: &str, sample: &[u8], decode: Decode<'_>, failures: &mut Vec<String>) {
    let mut rng = SplitMix64::new(crc32(name.as_bytes()).into());
    for _ in 0..DRAWS {
        let mut bytes = sample.to_vec();
        let at = rng.next_below(bytes.len() as u64) as usize;
        bytes[at] ^= 1 << rng.next_below(8);
        check(&format!("{name}: flip at {at}"), &bytes, decode, failures);
    }
    let edges = [0, 1, 4, 8, 12, sample.len() - 4, sample.len() - 1];
    let drawn = (0..DRAWS).map(|_| rng.next_below(sample.len() as u64) as usize);
    for cut in edges.into_iter().chain(drawn) {
        check(
            &format!("{name}: cut at {cut}"),
            &sample[..cut],
            decode,
            failures,
        );
    }
}

/// Offsets of every `u64` a forger can reach behind an `OPAC` CRC: each
/// section's length field and each value of each numeric section.
fn forgeable_offsets(file: &[u8]) -> Vec<usize> {
    const NUMS: u8 = 1;
    let mut offsets = Vec::new();
    let mut pos = 8;
    while pos + 9 <= file.len() - 4 {
        let len = u64::from_be_bytes(file[pos + 1..pos + 9].try_into().unwrap()) as usize;
        offsets.push(pos + 1);
        if file[pos] == NUMS {
            offsets.extend((pos + 9..pos + 9 + len).step_by(8));
        }
        pos += 9 + len;
    }
    offsets
}

/// `bytes` with its trailing `OPAC` CRC recomputed, as any forger would.
fn resealed(mut bytes: Vec<u8>) -> Vec<u8> {
    let body = bytes.len() - 4;
    let crc = crc32(&bytes[..body]);
    bytes[body..].copy_from_slice(&crc.to_be_bytes());
    bytes
}

/// Every mutation of an `OPAC` container sample.
fn container(name: &str, sample: &[u8], decode: Decode<'_>) -> Vec<String> {
    let mut failures = Vec::new();
    decode(sample).unwrap_or_else(|e| panic!("{name}: the sample itself fails: {e}"));
    flips_and_cuts(name, sample, decode, &mut failures);
    let mut rng = SplitMix64::new(crc32(name.as_bytes()).into());
    for at in forgeable_offsets(sample) {
        for value in FORGED.into_iter().chain([rng.next()]) {
            let mut bytes = sample.to_vec();
            bytes[at..at + 8].copy_from_slice(&value.to_be_bytes());
            let bytes = resealed(bytes);
            check(
                &format!("{name}: {value} at {at}"),
                &bytes,
                decode,
                &mut failures,
            );
        }
    }
    failures
}

fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("opa-hostile-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// A decoder that reads from a path, fed through one scratch file.
fn via_file<T>(path: PathBuf, read: impl Fn(&Path) -> Result<T> + 'static) -> Reader {
    Box::new(move |bytes: &[u8]| {
        std::fs::write(&path, bytes).expect("write scratch file");
        read(&path).map(drop)
    })
}

/// The valid samples: one file of each container kind, named as the
/// kind's errors name it, with the reader of that kind; then a record run
/// and a JSONL trace.
struct Samples {
    containers: Vec<(&'static str, Vec<u8>, Reader)>,
    run: Vec<u8>,
    trace: String,
}

/// 500 clicks from 100 users: every section kind, few values.
fn clicks() -> JobInput {
    let mut clicks = ClickStreamSpec::small();
    clicks.target_bytes /= 4;
    clicks.generate(5)
}

fn click_job() -> ClickCountJob {
    ClickCountJob {
        expected_users: 100,
    }
}

/// A poisoned stream run that combines at node scope, on a staging budget
/// small enough that its checkpoint at batch 2 holds both trailing groups:
/// quarantined records and staged rows.
fn grouped() -> StreamJobBuilder<ClickCountJob> {
    let mut cluster = ClusterSpec::tiny();
    cluster.system.chunk_size = 1024;
    cluster.node_combine_buffer = 512;
    StreamJobBuilder::new(click_job())
        .framework(Framework::IncHash)
        .cluster(cluster)
        .faults(FaultConfig::poison(7, 0.02))
        .combine(CombineScope::Node)
        .batches(4)
}

/// Runs `build` over `data`, checkpointing at batch 2 to `path`.
fn checkpoint_at_2(build: StreamJobBuilder<ClickCountJob>, data: &JobInput, path: &Path) {
    build
        .run_stream(data, |ctl| {
            if ctl.batch() == 2 {
                ctl.checkpoint(path);
            }
        })
        .expect("stream run");
}

fn samples(dir: &Path) -> Samples {
    let data = clicks();
    let job = click_job();

    // A DINC-hash stream checkpoint, traced: a decoded forgery also feeds
    // every offline query `opa query` makes, which rebuild each reducer's
    // monitor.
    let ck = dir.join("s.opac");
    let stream = StreamJobBuilder::new(job.clone())
        .framework(Framework::DincHash)
        .cluster(ClusterSpec::tiny())
        .batches(4)
        .trace(true)
        .run_stream(&data, |ctl| {
            if ctl.batch() == 2 {
                ctl.checkpoint(ck.clone());
            }
        })
        .expect("stream run");
    let query = |scratch: &str| {
        via_file(dir.join(scratch), |path| {
            let view = CheckpointView::open(path)?;
            view.lookup(&Key::from_u64(1));
            view.top_k(3);
            view.progress();
            view.framework()
        })
    };
    let grouped_ck = dir.join("g.opac");
    checkpoint_at_2(grouped(), &data, &grouped_ck);

    // DINC-hash under SpaceSaving (flags bit 0 set), on a reduce buffer
    // small enough that a monitor is full at the checkpoint (its stats
    // section starts with the slot count): a forgery reaches the other
    // eviction rule's restore and slack.
    let space_saving_ck = dir.join("ss.opac");
    let mut small = ClusterSpec::tiny();
    small.hardware.reduce_buffer = 256;
    small.bucket_write_buffer = 64;
    let space_saving = StreamJobBuilder::new(job.clone())
        .framework(Framework::DincHash)
        .dinc_monitor(MonitorKind::SpaceSaving)
        .cluster(small)
        .batches(4);
    checkpoint_at_2(space_saving, &data, &space_saving_ck);
    let saved = SavedState::read_from(&space_saving_ck).expect("decodes");
    let reducers = &saved.engine.reducers;
    assert!(reducers.iter().all(|r| r.flags == 1));
    assert!(reducers
        .iter()
        .any(|r| r.states[0].len() as u64 == r.nums[3][0]));

    let quarantine = QuarantineFile {
        tenant: 1,
        job: 2,
        job_name: "click-count".into(),
        seed: 9,
        entries: (0..3)
            .map(|i| PoisonedRecord {
                chunk: i,
                attempt: 0,
                offset: u64::from(i) * 40,
                record: b"1000 42 /a 200".to_vec().into(),
            })
            .collect(),
    };
    let opaq = dir.join("q.opaq");
    quarantine.write_to(&opaq).expect("write quarantine");

    let pairs: Vec<Pair> = (0..24)
        .map(|i| Pair::new(Key::from_u64(i), Value::from_u64(i * i)))
        .collect();
    let spec = PartitionSpec {
        hash_seed: 7,
        partitions: 4,
    };
    let dataset = dir.join("d.opadf");
    Dataset::from_pairs(pairs.clone(), spec)
        .write(&dataset)
        .expect("write dataset");

    let stages = dir.join("stages");
    Dataflow::new(ClusterSpec::tiny())
        .then(job, Framework::IncHash)
        .checkpoints(&stages)
        .run(&data)
        .expect("dataflow run");

    // One trace line per event kind the stream run emitted.
    let jsonl = stream.job.trace.expect("traced").to_jsonl();
    let mut kinds = std::collections::BTreeMap::new();
    for line in jsonl.lines() {
        kinds.entry(line.split(',').next()).or_insert(line);
    }
    let read = |path: &Path| std::fs::read(path).expect("sample file");
    Samples {
        containers: vec![
            ("stream checkpoint", read(&ck), query("mutated.opac")),
            (
                "stream checkpoint",
                read(&grouped_ck),
                query("mutated-groups.opac"),
            ),
            (
                "stream checkpoint",
                read(&space_saving_ck),
                query("mutated-space-saving.opac"),
            ),
            (
                "quarantine",
                read(&opaq),
                via_file(dir.join("mutated.opaq"), QuarantineFile::read_from),
            ),
            (
                "dataset",
                read(&dataset),
                via_file(dir.join("mutated.opadf"), Dataset::read),
            ),
            (
                "dataflow stage checkpoint",
                read(&stages.join("stage-0.opadf")),
                via_file(dir.join("mutated-stage.opadf"), StageCheckpoint::read),
            ),
        ],
        run: encode_run(&pairs),
        trace: kinds.values().map(|l| format!("{l}\n")).collect(),
    }
}

#[test]
fn every_decoder_survives_hostile_bytes() {
    let dir = scratch("mutations");
    let samples = samples(&dir);
    let mut failures = Vec::new();
    for (name, bytes, read) in &samples.containers {
        failures.extend(container(name, bytes, read.as_ref()));
    }
    let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    for (kind, file) in CORPUS {
        let bytes = std::fs::read(corpus.join(file)).expect("corpus file");
        let (.., read) = (samples.containers.iter())
            .find(|(name, ..)| *name == kind)
            .expect("a reader of each kind");
        failures.extend(container(&format!("corpus {file}"), &bytes, read.as_ref()));
    }

    // A record run: its count field sits outside the run's CRC.
    let decode: Decode<'_> = &|bytes| decode_run(bytes).map(drop);
    flips_and_cuts("record run", &samples.run, decode, &mut failures);
    for value in FORGED {
        let mut bytes = samples.run.clone();
        bytes[4..12].copy_from_slice(&value.to_be_bytes());
        let what = format!("record run: count {value}");
        check(&what, &bytes, decode, &mut failures);
    }

    let decode: Decode<'_> =
        &|bytes| TraceLog::from_jsonl(&String::from_utf8_lossy(bytes)).map(drop);
    let trace = samples.trace.as_bytes();
    decode(trace).expect("the trace sample parses");
    flips_and_cuts("trace", trace, decode, &mut failures);

    std::fs::remove_dir_all(&dir).ok();
    assert!(
        failures.is_empty(),
        "{} mutations panicked, first: {:?}",
        failures.len(),
        &failures[..failures.len().min(8)]
    );
}

/// A file says what it is: each reader turns down each other kind, and a
/// file from before the header carried a kind (bytes 4..8 `00 00 00 01`),
/// with an error naming what it expected and what it found.
#[test]
fn every_reader_rejects_every_other_kind_naming_both() {
    let dir = scratch("kinds");
    let samples = samples(&dir);
    for (expected, own, read) in &samples.containers {
        for (written, bytes, _) in &samples.containers {
            let res = read(bytes);
            if written == expected {
                assert!(res.is_ok(), "{expected}");
                continue;
            }
            let err = res.expect_err("a foreign kind").to_string();
            let want = format!("expected a {expected} file, found a {written} file");
            assert!(err.contains(&want), "{err}");
        }
        let mut old = own.clone();
        old[4..8].copy_from_slice(&1u32.to_be_bytes());
        let err = read(&resealed(old)).expect_err("a pre-kind header");
        let err = err.to_string();
        let want = format!("expected a {expected} file, found unknown kind 0");
        assert!(err.contains(&want), "{err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Forged trailing groups of a stream checkpoint, behind a valid CRC: a
/// quarantined-record count past the sections present, a staged table
/// holding a chunk that is unknown or not yet mapped, and more staged
/// tables than the cluster has nodes. Each is an `Err` — on decode, or
/// when the resume imports it — never a panic or an unbounded allocation.
#[test]
fn forged_quarantine_and_staging_groups_are_errors() {
    let dir = scratch("groups");
    let data = clicks();
    let ck = dir.join("g.opac");
    checkpoint_at_2(grouped(), &data, &ck);
    let saved = SavedState::read_from(&ck).expect("decodes");
    let engine = &saved.engine;
    let node = engine.staged.iter().position(|t| t.held.is_some());
    let node = node.expect("a node holds staged rows at the pause");
    assert!(!engine.dlq.is_empty(), "records quarantined by the pause");

    // The quarantined-record count sits in the group header `[0, n]`.
    let n = engine.dlq.len() as u64;
    let mut header = vec![1u8]; // the numeric-section tag
    header.extend(16u64.to_be_bytes());
    header.extend(0u64.to_be_bytes());
    header.extend(n.to_be_bytes());
    let bytes = std::fs::read(&ck).expect("read checkpoint");
    let at = bytes.windows(header.len()).position(|w| w == header);
    let at = at.expect("the quarantine group header") + header.len() - 8;
    for forged in [n + 1, n + 1000, 1 << 62, u64::MAX] {
        let mut b = bytes.clone();
        b[at..at + 8].copy_from_slice(&forged.to_be_bytes());
        assert!(SavedState::decode(&resealed(b)).is_err(), "count {forged}");
    }

    let unmapped = (0..).find(|c| !engine.done.contains(c)).expect("a chunk");
    let mut cases = Vec::new();
    for held in [1 << 40, unmapped] {
        let mut forged = saved.clone();
        forged.engine.staged[node].held = Some(held);
        cases.push((
            forged,
            format!("chunk {held}, which is unknown or not mapped"),
        ));
    }
    let mut extra = saved.clone();
    extra.engine.staged.push(StagedTable::default());
    cases.push((extra, "trailing group malformed".to_string()));
    for (forged, want) in cases {
        let path = dir.join("forged.opac");
        forged.write_to(&path).expect("write forged");
        let res = grouped().resume_stream(&data, &path, |_| {});
        let err = res.expect_err("a forged group resumed").to_string();
        assert!(err.contains(&want), "{err}");
    }
    grouped()
        .resume_stream(&data, &ck, |_| {})
        .expect("the unforged checkpoint resumes");
    std::fs::remove_dir_all(&dir).ok();
}
