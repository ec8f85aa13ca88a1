//! Checkpoint / resume guards: the bytes of a checkpoint are pinned, the
//! checkpoint cadence holds, and every mismatched or malformed checkpoint
//! or configuration is rejected loudly before any state is touched. That
//! a resumed run reproduces the uninterrupted one, under every option, is
//! a relation of the root `tests/option_space.rs`.

use opa_common::fault::FaultConfig;
use opa_common::{AdmissionPolicy, ExecConfig};
use opa_core::cluster::{ClusterSpec, Framework};
use opa_core::engine::QueuedEvent;
use opa_simio::codec::crc32;
use opa_stream::{SavedState, StreamJobBuilder};
use opa_workloads::click_count::ClickCountJob;
use opa_workloads::clickstream::ClickStreamSpec;
use opa_workloads::frequent_users::FrequentUsersJob;

fn click_job() -> ClickCountJob {
    ClickCountJob {
        expected_users: 100,
    }
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn checkpoint_bytes_pin() {
    // CRC-32 pins over a checkpoint written mid-run and over the run's
    // trace. On the paper-scaled cluster deliveries arrive in size order
    // and interleave across map tasks, and at the seal some are still in
    // flight: the file's queue section fixes their exact pop order, and the
    // trace's `batch_seal`/`checkpoint` lines fix the engine clock at each
    // pause. The `checkpoint` line also carries the file's length, so the
    // trace CRC moves with any change to the file's size. Update a pin only
    // for a change that means to move it.
    let data = ClickStreamSpec::small().generate(101);
    let dir = tmp_dir("opa-stream-bytes-pin");
    let ck = dir.join("inc.opac");
    let mut cluster = ClusterSpec::paper_scaled();
    cluster.system.chunk_size = 2048;
    let build = || {
        StreamJobBuilder::new(click_job())
            .framework(Framework::IncHash)
            .cluster(cluster)
            .batches(4)
    };
    let out = build()
        .trace(true)
        .run_stream(&data, |ctl| {
            if ctl.batch() == 2 {
                ctl.checkpoint(ck.clone());
            }
        })
        .expect("checkpointed run");
    let resumed = build()
        .resume_stream(&data, &ck, |_| {})
        .expect("resume runs");
    assert_eq!(out.job.output, resumed.job.output, "resume diverged");
    let saved = SavedState::read_from(&ck).expect("decode checkpoint");
    let in_flight = saved
        .engine
        .queue
        .iter()
        .filter(|e| matches!(e, QueuedEvent::Deliver { .. }))
        .count();
    assert!(
        in_flight > 1,
        "{in_flight} deliveries in flight at the seal"
    );
    let file_crc = crc32(&std::fs::read(&ck).expect("read checkpoint"));
    let trace = out.job.trace.expect("trace enabled").to_jsonl();
    let trace_crc = crc32(trace.as_bytes());
    // What the file decodes to holds through any change of the container
    // around it; only the two byte CRCs above may move with the format.
    // This CRC is of the `Debug` form, so renaming a row type moves it.
    let value_crc = crc32(format!("{saved:?}").as_bytes());
    println!(
        "checkpoint 0x{file_crc:08X} ({in_flight} in flight), trace 0x{trace_crc:08X}, \
         decoded 0x{value_crc:08X}"
    );
    assert_eq!(file_crc, 0xA445_8431, "checkpoint bytes drifted");
    assert_eq!(trace_crc, 0xDCDF_0474, "stream trace drifted");
    assert_eq!(value_crc, 0x82F5_FCCF, "decoded checkpoint drifted");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn periodic_checkpoints_follow_the_cadence() {
    let data = ClickStreamSpec::small().generate(101);
    let dir = tmp_dir("opa-stream-cadence");
    let out = StreamJobBuilder::new(click_job())
        .framework(Framework::IncHash)
        .cluster(ClusterSpec::tiny())
        .batches(6)
        .checkpoint_every(2)
        .checkpoint_dir(&dir)
        .run_stream(&data, |_| {})
        .expect("stream runs");
    // Cadence 2 over 6 batches → b2 and b4 (the final batch never
    // auto-checkpoints: there is nothing left to resume).
    assert_eq!(out.checkpoints_written, 2);
    assert!(dir.join("stream-ckpt-b2.opac").is_file());
    assert!(dir.join("stream-ckpt-b4.opac").is_file());
    assert!(!dir.join("stream-ckpt-b6.opac").exists());
    assert_eq!(out.last_checkpoint, Some(dir.join("stream-ckpt-b4.opac")));

    let resumed = StreamJobBuilder::new(click_job())
        .framework(Framework::IncHash)
        .cluster(ClusterSpec::tiny())
        .batches(6)
        .resume_stream(&data, &dir.join("stream-ckpt-b4.opac"), |_| {})
        .expect("resume from periodic checkpoint");
    assert_eq!(resumed.resumed_from_batch, Some(4));
    std::fs::remove_dir_all(&dir).ok();
}

/// Each section of an `OPAC` file: the offset of its tag byte and the
/// range of its payload. The forgeries below edit these bytes alone, so
/// they hold whatever types the decoder builds.
fn sections(file: &[u8]) -> Vec<(usize, std::ops::Range<usize>)> {
    let mut out = Vec::new();
    let mut pos = 8;
    while pos < file.len() - 4 {
        let len = u64::from_be_bytes(file[pos + 1..pos + 9].try_into().unwrap()) as usize;
        out.push((pos, pos + 9..pos + 9 + len));
        pos += 9 + len;
    }
    out
}

/// The tags a stream checkpoint gives one kind of delivery: in the
/// event-queue header, in a deferred-delivery header, and on the
/// delivery's run section.
struct DeliveryTags {
    queue: u64,
    parked: u64,
    section: u8,
}
const PAIRS: DeliveryTags = DeliveryTags {
    queue: 1,
    parked: 0,
    section: 2,
};
const STATES: DeliveryTags = DeliveryTags {
    queue: 2,
    parked: 1,
    section: 3,
};

/// `file` with its first in-flight (or, with `parked`, its first parked)
/// delivery re-tagged from kind `from` to kind `to`, in its header and on
/// its run section, and the CRC resealed; `None` when the file holds no
/// such delivery.
fn retagged(file: &[u8], parked: bool, from: &DeliveryTags, to: &DeliveryTags) -> Option<Vec<u8>> {
    let secs = sections(file);
    let num = |s: usize, i: usize| {
        let at = secs[s].1.start + 8 * i;
        u64::from_be_bytes(file[at..at + 8].try_into().unwrap())
    };
    // The fingerprint, the job name, then the event-queue header; each
    // queued map event has one section, each delivery two.
    let mut target = None;
    let mut s = 3;
    for e in 1..=num(2, 0) as usize {
        if num(2, e) == 0 {
            s += 1;
            continue;
        }
        if !parked && target.is_none() && num(2, e) == from.queue {
            target = Some((2, e, s + 1, to.queue));
        }
        s += 2;
    }
    // Ten numeric sections and the output; then per reducer its deferred
    // header and runs, and its own header and sections.
    s += 11;
    for _ in 0..num(0, 5) {
        let n = num(s, 0) as usize;
        if parked && target.is_none() && n > 0 && num(s, 2) == from.parked {
            target = Some((s, 2, s + 1, to.parked));
        }
        s += 1 + n;
        s += 1 + (num(s, 4) + num(s, 5) + num(s, 6)) as usize;
    }
    let (header, slot, run, tag) = target?;
    let mut out = file.to_vec();
    let at = secs[header].1.start + 8 * slot;
    out[at..at + 8].copy_from_slice(&tag.to_be_bytes());
    assert_eq!(out[secs[run].0], from.section, "the delivery's run section");
    out[secs[run].0] = to.section;
    let body = out.len() - 4;
    let crc = crc32(&out[..body]);
    out[body..].copy_from_slice(&crc.to_be_bytes());
    Some(out)
}

#[test]
fn mismatched_checkpoints_are_rejected() {
    let data = ClickStreamSpec::small().generate(101);
    let dir = tmp_dir("opa-stream-mismatch");
    let ck = dir.join("inc.opac");
    let ckp = ck.clone();
    StreamJobBuilder::new(click_job())
        .framework(Framework::IncHash)
        .cluster(ClusterSpec::tiny())
        .batches(4)
        .run_stream(&data, |ctl| {
            if ctl.batch() == 2 {
                ctl.checkpoint(ckp.clone());
            }
        })
        .expect("checkpointed run");

    // Different framework → fingerprint mismatch.
    let err = StreamJobBuilder::new(click_job())
        .framework(Framework::DincHash)
        .cluster(ClusterSpec::tiny())
        .batches(4)
        .resume_stream(&data, &ck, |_| {})
        .expect_err("framework mismatch must be rejected");
    assert!(
        err.to_string().contains("fingerprint"),
        "unexpected error: {err}"
    );

    // Different job (same framework, same input) → job-name mismatch.
    let err = StreamJobBuilder::new(FrequentUsersJob {
        threshold: 20,
        expected_users: 100,
    })
    .framework(Framework::IncHash)
    .cluster(ClusterSpec::tiny())
    .batches(4)
    .resume_stream(&data, &ck, |_| {})
    .expect_err("job mismatch must be rejected");
    assert!(
        err.to_string().contains("belongs to job"),
        "unexpected error: {err}"
    );

    // A checkpoint written without the admission sketch cannot be
    // restored into a gated run: the mismatch must be a hard error, not a
    // silently empty sketch.
    for fw in [Framework::IncHash, Framework::DincHash] {
        let build = |policy| {
            StreamJobBuilder::new(click_job())
                .framework(fw)
                .cluster(ClusterSpec::tiny())
                .admission(policy)
                .batches(4)
        };
        let off_ck = dir.join(format!("{fw:?}-off.opac"));
        build(AdmissionPolicy::Off)
            .run_stream(&data, |ctl| {
                if ctl.batch() == 2 {
                    ctl.checkpoint(off_ck.clone());
                }
            })
            .expect("admission-off checkpointing stream");
        let err = build(AdmissionPolicy::Lfu).resume_stream(&data, &off_ck, |_| {});
        assert!(
            err.is_err(),
            "{fw:?}: resuming an admission-off checkpoint with the gate on must fail"
        );
    }

    // Corrupted file → CRC failure, never a silent resume.
    let mut bytes = std::fs::read(&ck).expect("read checkpoint");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    let bad = dir.join("corrupt.opac");
    std::fs::write(&bad, &bytes).expect("write corrupted");
    assert!(StreamJobBuilder::new(click_job())
        .framework(Framework::IncHash)
        .cluster(ClusterSpec::tiny())
        .batches(4)
        .resume_stream(&data, &bad, |_| {})
        .is_err());

    // Forged but CRC-valid (the CRC is not a MAC, and `write_to` re-seals):
    // a schedule naming a chunk that does not exist, or one already mapped,
    // is an error — not an index or lookup panic once the run reaches it.
    let saved = SavedState::read_from(&ck).expect("decode checkpoint");
    let mapped = saved.engine.done[0];
    for (what, chunk) in [("unknown", 1_000_000), ("already mapped", mapped)] {
        let mut forged = saved.clone();
        forged.engine.pending[0].push(chunk);
        let path = dir.join("forged.opac");
        forged.write_to(&path).expect("write forged");
        let err = StreamJobBuilder::new(click_job())
            .framework(Framework::IncHash)
            .cluster(ClusterSpec::tiny())
            .batches(4)
            .resume_stream(&data, &path, |_| {})
            .expect_err("forged schedule must be rejected");
        assert!(
            err.to_string().contains(&format!("chunk {chunk}")),
            "{what} chunk: unexpected error: {err}"
        );
    }

    // A delivery's source node is the disk a second-wave reducer re-reads
    // it from: one naming a node the cluster lacks is an error, in flight
    // or already parked — not an index panic once wave two starts.
    let mut two_waves = ClusterSpec::tiny();
    two_waves.system.reducers_per_node = 2 * two_waves.hardware.reduce_slots;
    let build = || {
        StreamJobBuilder::new(click_job())
            .framework(Framework::IncHash)
            .cluster(two_waves)
            .batches(4)
    };
    let ck2 = dir.join("two-waves.opac");
    build()
        .run_stream(&data, |ctl| {
            if ctl.batch() == 2 {
                ctl.checkpoint(ck2.clone());
            }
        })
        .expect("two-wave run");
    let saved = SavedState::read_from(&ck2).expect("decode checkpoint");
    let nodes = two_waves.hardware.nodes as u64;
    let (mut in_flight, mut parked) = (saved.clone(), saved);
    let mut forged_in_flight = 0;
    for ev in &mut in_flight.engine.queue {
        if let QueuedEvent::Deliver { from_node, .. } = ev {
            *from_node = nodes;
            forged_in_flight += 1;
        }
    }
    let mut forged_parked = 0;
    for d in parked.engine.deferred.iter_mut().flatten() {
        d.from_node = nodes;
        forged_parked += 1;
    }
    assert!(forged_in_flight > 0 && forged_parked > 0);
    for (what, forged) in [("in flight", in_flight), ("parked", parked)] {
        let path = dir.join("forged.opac");
        forged.write_to(&path).expect("write forged");
        let err = build()
            .resume_stream(&data, &path, |_| {})
            .expect_err("forged source node must be rejected");
        assert!(
            err.to_string().contains(&format!("node {nodes}")),
            "{what}: unexpected error: {err}"
        );
    }

    // The framework alone says what its deliveries carry: one whose kind
    // tag disagrees, in flight or parked, is an error naming the kind and
    // the framework — never a panic once the reducer receives it.
    let inc = std::fs::read(&ck2).expect("read checkpoint");
    let sm_ck = dir.join("two-waves-sm.opac");
    let sm_ckp = sm_ck.clone();
    StreamJobBuilder::new(click_job())
        .framework(Framework::SortMerge)
        .cluster(two_waves)
        .batches(4)
        .run_stream(&data, |ctl| {
            if ctl.batch() == 2 {
                ctl.checkpoint(sm_ckp.clone());
            }
        })
        .expect("two-wave sort-merge run");
    let sm = std::fs::read(&sm_ck).expect("read checkpoint");
    let cases = [
        (
            "in flight",
            Framework::IncHash,
            retagged(&inc, false, &STATES, &PAIRS),
        ),
        (
            "parked",
            Framework::IncHash,
            retagged(&inc, true, &STATES, &PAIRS),
        ),
        (
            "sort-merge parked",
            Framework::SortMerge,
            retagged(&sm, true, &PAIRS, &STATES),
        ),
    ];
    for (what, framework, forged) in cases {
        let forged = forged.unwrap_or_else(|| panic!("{what}: no delivery to forge"));
        let path = dir.join("forged.opac");
        std::fs::write(&path, forged).expect("write forged");
        let err = StreamJobBuilder::new(click_job())
            .framework(framework)
            .cluster(two_waves)
            .batches(4)
            .resume_stream(&data, &path, |_| {})
            .expect_err("forged delivery kind must be rejected");
        let err = err.to_string();
        let kind = match framework.is_incremental() {
            true => "key-value pairs",
            false => "key-state pairs",
        };
        assert!(
            err.contains(kind) && err.contains(framework.label()),
            "{what}: unexpected error: {err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn invalid_stream_configurations_are_rejected_up_front() {
    let data = ClickStreamSpec::small().generate(101);
    let build = || {
        StreamJobBuilder::new(click_job())
            .framework(Framework::IncHash)
            .cluster(ClusterSpec::tiny())
    };
    assert!(build().batches(0).run_stream(&data, |_| {}).is_err());
    // More batches than records: some batch would be empty.
    assert!(build()
        .batches(data.len() + 1)
        .run_stream(&data, |_| {})
        .is_err());
    // A cadence with nowhere to write.
    let err = build()
        .batches(4)
        .checkpoint_every(2)
        .run_stream(&data, |_| {})
        .expect_err("cadence without a directory must be rejected");
    assert!(
        err.to_string().contains("checkpoint"),
        "unexpected error: {err}"
    );
    // Empty input.
    let empty = opa_core::job::JobInput { records: vec![] };
    assert!(build().batches(1).run_stream(&empty, |_| {}).is_err());
}

/// Long-haul soak: many batches, periodic checkpoints, injected reduce
/// crashes, resume from the middle at two thread counts. Gated behind
/// `OPA_SOAK=1` (CI runs it in the stream-soak job; it is too slow for
/// the default `cargo test`).
#[test]
fn soak_stream_checkpoint_crash_resume() {
    if std::env::var("OPA_SOAK").is_err() {
        return;
    }
    let data = ClickStreamSpec::counting_scaled(3_000_000).generate(5);
    // CI points OPA_SOAK_DIR somewhere uploadable, so the checkpoints of
    // a failing soak land in the build artifacts (the cleanup below only
    // runs when every assertion held).
    let dir = match std::env::var_os("OPA_SOAK_DIR") {
        Some(d) => {
            let d = std::path::PathBuf::from(d);
            std::fs::create_dir_all(&d).expect("mkdir");
            d
        }
        None => tmp_dir("opa-stream-soak"),
    };
    let faults = FaultConfig {
        seed: 11,
        reduce_failure_rate: 0.1,
        max_retries: 50,
        ..FaultConfig::disabled()
    };
    for fw in [Framework::IncHash, Framework::DincHash] {
        let sub = dir.join(format!("{fw:?}"));
        std::fs::create_dir_all(&sub).expect("mkdir");
        let build = || {
            StreamJobBuilder::new(ClickCountJob {
                expected_users: 1000,
            })
            .framework(fw)
            .cluster(ClusterSpec::paper_scaled())
            .faults(faults)
            .batches(16)
        };
        let full = build().run_stream(&data, |_| {}).expect("full soak run");
        assert!(
            full.job
                .metrics
                .faults
                .as_ref()
                .expect("report")
                .reduce_failures
                > 0,
            "{fw:?}: soak must exercise crash recovery"
        );
        let ckpt = build()
            .checkpoint_every(8)
            .checkpoint_dir(&sub)
            .run_stream(&data, |_| {})
            .expect("checkpointing soak run");
        assert_eq!(ckpt.checkpoints_written, 1, "{fw:?}: b8 only");
        let ck = sub.join("stream-ckpt-b8.opac");
        for threads in [1, 8] {
            let resumed = build()
                .exec(ExecConfig::oversubscribed(threads))
                .resume_stream(&data, &ck, |_| {})
                .expect("soak resume");
            assert_eq!(resumed.resumed_from_batch, Some(8));
            assert_eq!(
                full.job.output, resumed.job.output,
                "{fw:?}@{threads}: soak resume must be bit-identical"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
