//! Every decoder of outside bytes answers `Ok` or `Err` — never a panic —
//! on seeded mutations of a valid sample: byte flips, truncations and, in
//! the `OPAC` containers, a forged `u64` spliced over every value of every
//! numeric section (and over every section length) with the CRC re-sealed,
//! so the forgery reaches the schema parser behind the checksum.
//!
//! The samples are one file of each container kind — stream checkpoint,
//! quarantine, dataset, dataflow stage checkpoint — plus a record run
//! (`codec::decode_run`) and a JSONL trace (`TraceLog::from_jsonl`).
//! Integer overflow traps in debug builds and wraps in release, so the two
//! builds reach different code: run this file under both.

use opa::common::rng::SplitMix64;
use opa::common::{Key, Pair, Result, Value};
use opa::core::cluster::{ClusterSpec, Framework};
use opa::core::dataflow::{Dataflow, Dataset, PartitionSpec, StageCheckpoint};
use opa::simio::codec::{crc32, decode_run, encode_run};
use opa::stream::{CheckpointView, StreamJobBuilder};
use opa::trace::TraceLog;
use opa::workloads::clickstream::ClickStreamSpec;
use opa::workloads::ClickCountJob;
use opa_serve::{QuarantineEntry, QuarantineFile};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Values a forger splices in, plus one drawn per position: zero, one, two
/// counts no file can back, and the two that overflow `1 + n` and `2 * n`.
const FORGED: [u64; 6] = [0, 1, 1 << 32, 1 << 62, 1 << 63, u64::MAX];

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

fn samples(dir: &Path) -> Samples {
    // 500 clicks from 100 users: every section kind, few values.
    let mut clicks = ClickStreamSpec::small();
    clicks.target_bytes /= 4;
    let data = clicks.generate(5);
    let job = ClickCountJob {
        expected_users: 100,
    };

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
    let query = via_file(dir.join("mutated.opac"), |path| {
        let view = CheckpointView::open(path)?;
        view.lookup(&Key::from_u64(1));
        view.top_k(3);
        view.progress();
        view.framework()
    });

    let quarantine = QuarantineFile {
        tenant: 1,
        job: 2,
        job_name: "click-count".into(),
        seed: 9,
        entries: (0..3)
            .map(|i| QuarantineEntry {
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
            ("stream checkpoint", read(&ck), query),
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
