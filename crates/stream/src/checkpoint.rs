//! Stream-job checkpoints: everything needed to resume an interrupted
//! stream run from its last sealed micro-batch.
//!
//! A checkpoint is taken at a *pause point* — the instant between two
//! micro-batches when every shuffle delivery originating from the sealed
//! batch's own chunks has been absorbed. Chunks beyond the watermark may
//! still be mid-shuffle (the map waves pipeline into the reduce side
//! continuously), so the scheduler's event queue holds pending `StartMap`
//! events *and* in-flight deliveries, payloads included; both serialize
//! in pop order as [`QueuedEvent`]s. The rest of the engine state
//! flattens into typed sections ([`opa_simio::ckpt`]): scheduler
//! bookkeeping, per-node disk clocks, the output emitted so far, one
//! [`ReducerCkpt`] per reducer, and, only when the run has them, the
//! quarantined records and the node staging tables. The file format
//! inherits the framed layout and CRC-32 trailer of the spill codec, so a
//! torn or corrupted checkpoint is detected on load, never silently
//! resumed from.
//!
//! Every delivery carries the rows its framework ships: key-value pairs,
//! or the incremental frameworks' key-state pairs. The file tags each
//! delivery and its run section with that kind, so the writer derives the
//! tags from the fingerprint's framework and the reader rejects a delivery
//! whose tag disagrees with it.
//!
//! Resume rebuilds fresh reducers from the *same* job/cluster/sizing
//! configuration, re-imports their state, re-seeds the event queue in
//! saved pop order and replays the remaining input. Because every event
//! is re-pushed in its original relative order (fresh ascending sequence
//! numbers preserve ties) and map plans / fault decisions are pure
//! functions of their inputs, the resumed run's output is bit-identical
//! to the uninterrupted run's for the map/reduce fault classes.

use opa_common::{Error, RecordBatch, Result};
use opa_core::cluster::Framework;
pub use opa_core::engine::{DeferredDelivery, EngineState, QueuedEvent, StagedTable};
use opa_core::job::PoisonedRecord;
use opa_core::metrics::NodeCombineStats;
use opa_core::reduce::ReducerCkpt;
use opa_simio::ckpt::{Kind, SectionReader, SectionWriter};
use std::path::Path;

/// Payload-kind tag used inside deferred-delivery headers.
const PAYLOAD_PAIRS: u64 = 0;
/// Payload-kind tag used inside deferred-delivery headers.
const PAYLOAD_STATES: u64 = 1;

/// Queue-event tag: a pending `StartMap`.
const QEV_START_MAP: u64 = 0;
/// Queue-event tag: an in-flight delivery carrying key/value pairs.
const QEV_DELIVER_PAIRS: u64 = 1;
/// Queue-event tag: an in-flight delivery carrying partial states.
const QEV_DELIVER_STATES: u64 = 2;

/// Trailing-group tag: the quarantined records.
const GROUP_DLQ: u64 = 0;
/// Trailing-group tag: the node staging tables.
const GROUP_STAGED: u64 = 1;

/// Identity of the run a checkpoint belongs to. Resume refuses a
/// checkpoint whose fingerprint disagrees with the configured job — a
/// checkpoint only makes sense against the exact same input and cluster
/// shape. Thread count is deliberately absent: resuming at a different
/// thread count is supported and bit-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Input record count.
    pub records: u64,
    /// Input size in bytes.
    pub total_bytes: u64,
    /// Position of the framework in [`opa_core::cluster::Framework::ALL`].
    pub framework_idx: u64,
    /// Chunk size `C` of the cluster spec.
    pub chunk_size: u64,
    /// Node count.
    pub nodes: u64,
    /// Total reducer count.
    pub reducers: u64,
    /// Micro-batch count `k` of the stream config.
    pub batches: u64,
    /// Hash-family seed.
    pub hash_seed: u64,
}

impl Fingerprint {
    /// The framework at [`Fingerprint::framework_idx`].
    pub(crate) fn framework(&self) -> Result<Framework> {
        usize::try_from(self.framework_idx)
            .ok()
            .and_then(|i| Framework::ALL.get(i).copied())
            .ok_or_else(|| {
                Error::storage(format!(
                    "checkpoint names an unknown framework {}",
                    self.framework_idx
                ))
            })
    }
}

/// The complete serializable state of a paused stream job: the run's
/// identity, the seal position, and the engine itself.
#[derive(Debug, Clone)]
pub struct SavedState {
    /// Run identity.
    pub fingerprint: Fingerprint,
    /// Job name (diagnostic, checked on resume).
    pub job_name: String,
    /// First micro-batch not yet sealed when the checkpoint was taken.
    pub next_batch: u64,
    /// The paused engine: scheduler queue, counters, output so far and
    /// per-reducer framework state.
    pub engine: EngineState,
}

/// What a delivery carries: key-state pairs, or key-value pairs.
fn rows(states: bool) -> &'static str {
    if states {
        "key-state pairs"
    } else {
        "key-value pairs"
    }
}

/// Appends a delivery's rows as a state or a pair section.
fn write_payload(w: &mut SectionWriter, states: bool, batch: &RecordBatch) {
    if states {
        w.states(batch.pairs());
    } else {
        w.pairs(batch.pairs());
    }
}

/// Reads a delivery tagged as carrying key-state pairs (`states`) or
/// key-value pairs, after checking the tag against what `framework` ships.
fn read_payload(
    cur: &mut SectionReader<'_>,
    framework: Framework,
    states: bool,
    what: &str,
) -> Result<RecordBatch> {
    if states != framework.is_incremental() {
        return Err(Error::storage(format!(
            "stream checkpoint {what} holds {}, but {} ships {}",
            rows(states),
            framework.label(),
            rows(framework.is_incremental())
        )));
    }
    let rows = if states {
        cur.states(what)?
    } else {
        cur.pairs(what)?
    };
    Ok(RecordBatch::from_pairs(rows))
}

impl SavedState {
    /// Serializes the state into the framed checkpoint format.
    pub fn encode(&self) -> Vec<u8> {
        self.writer().finish()
    }

    fn writer(&self) -> SectionWriter {
        let (fp, st) = (&self.fingerprint, &self.engine);
        // An unknown framework writes pairs; the reader rejects the file.
        let states = fp.framework().is_ok_and(Framework::is_incremental);
        let (qev_deliver, payload_kind) = if states {
            (QEV_DELIVER_STATES, PAYLOAD_STATES)
        } else {
            (QEV_DELIVER_PAIRS, PAYLOAD_PAIRS)
        };
        let mut w = SectionWriter::new(Kind::STREAM_CHECKPOINT);
        w.nums(&[
            fp.records,
            fp.total_bytes,
            fp.framework_idx,
            fp.chunk_size,
            fp.nodes,
            fp.reducers,
            fp.batches,
            fp.hash_seed,
            self.next_batch,
        ])
        .bytes(self.job_name.as_bytes());
        let qtags: Vec<u64> = std::iter::once(st.queue.len() as u64)
            .chain(st.queue.iter().map(|ev| match ev {
                QueuedEvent::StartMap { .. } => QEV_START_MAP,
                QueuedEvent::Deliver { .. } => qev_deliver,
            }))
            .collect();
        w.nums(&qtags);
        for ev in &st.queue {
            match ev {
                QueuedEvent::StartMap {
                    time,
                    chunk,
                    attempt,
                } => {
                    w.nums(&[*time, *chunk, *attempt]);
                }
                QueuedEvent::Deliver {
                    time,
                    reducer,
                    from_node,
                    chunk,
                    payload,
                } => {
                    w.nums(&[*time, *reducer, *from_node, *chunk]);
                    write_payload(&mut w, states, payload);
                }
            }
        }
        let pending: Vec<u64> = st
            .pending
            .iter()
            .flat_map(|q| std::iter::once(q.len() as u64).chain(q.iter().copied()))
            .collect();
        let disk_free: Vec<u64> = st.disk_free.iter().flat_map(|&(h, s)| [h, s]).collect();
        w.nums(&pending)
            .nums(&disk_free)
            .nums(&st.done)
            .nums(&[
                st.map_output_bytes,
                st.spill_written_map,
                st.map_finish,
                st.maps_completed,
            ])
            .nums(&st.map_cpu)
            .nums(&st.ready_at)
            .nums(&st.delivery_seq)
            .nums(&st.crash_count)
            .nums(&st.reduce_cpu)
            .nums(&st.spill_written_reduce)
            .pairs(&st.output);
        for (defs, ckpt) in st.deferred.iter().zip(&st.reducers) {
            let header: Vec<u64> = std::iter::once(defs.len() as u64)
                .chain(defs.iter().flat_map(|d| [d.from_node, payload_kind]))
                .collect();
            w.nums(&header);
            for d in defs {
                write_payload(&mut w, states, &d.payload);
            }
            w.nums(&[
                u64::from(ckpt.tag),
                ckpt.flags,
                u64::from(ckpt.watermark.is_some()),
                ckpt.watermark.unwrap_or(0),
                ckpt.nums.len() as u64,
                ckpt.pairs.len() as u64,
                ckpt.states.len() as u64,
            ]);
            for n in &ckpt.nums {
                w.nums(n);
            }
            for p in &ckpt.pairs {
                w.pairs(p);
            }
            for s in &ckpt.states {
                w.states(s);
            }
        }
        // Trailing groups, written only when the run has them, so a run
        // with neither writes the bytes it wrote before they existed.
        if !st.dlq.is_empty() {
            w.nums(&[GROUP_DLQ, st.dlq.len() as u64]);
            st.dlq.iter().for_each(|rec| rec.write(&mut w));
        }
        if !st.staged.is_empty() {
            // Four counters and five numbers per table; the tables' rows follow.
            let c = &st.node_combine;
            let mut nums = vec![GROUP_STAGED];
            nums.extend([c.staged_bytes, c.flushed_bytes, c.flushes, c.merged_rows]);
            for t in &st.staged {
                let held = t.held.map_or([0, 0], |c| [1, c]);
                nums.extend([t.bytes, t.bytes_in, t.merges, held[0], held[1]]);
            }
            w.nums(&nums);
            for t in &st.staged {
                w.pairs(&t.rows);
            }
        }
        w
    }

    /// Decodes a checkpoint produced by [`SavedState::encode`], verifying
    /// framing, CRC, the header's kind and version and the structural
    /// layout.
    pub fn decode(buf: &[u8]) -> Result<SavedState> {
        SavedState::from_reader(SectionReader::new(buf, Kind::STREAM_CHECKPOINT)?)
    }

    fn from_reader(mut cur: SectionReader<'_>) -> Result<SavedState> {
        let [records, total_bytes, framework_idx, chunk_size, nodes, reducers, batches, hash_seed, next_batch] =
            cur.nums_exact("fingerprint")?;
        let fingerprint = Fingerprint {
            records,
            total_bytes,
            framework_idx,
            chunk_size,
            nodes,
            reducers,
            batches,
            hash_seed,
        };
        let framework = fingerprint.framework()?;
        let job_name = cur.string("job name")?;

        let qtags = cur.nums("event queue header")?;
        let (&n_events, tags) = qtags
            .split_first()
            .ok_or_else(|| Error::storage("stream checkpoint queue header empty"))?;
        if tags.len() as u64 != n_events {
            return Err(Error::storage("stream checkpoint queue header malformed"));
        }
        let mut queue = Vec::with_capacity(tags.len());
        for &tag in tags {
            queue.push(match tag {
                QEV_START_MAP => {
                    let [time, chunk, attempt] = cur.nums_exact("map event")?;
                    QueuedEvent::StartMap {
                        time,
                        chunk,
                        attempt,
                    }
                }
                QEV_DELIVER_PAIRS | QEV_DELIVER_STATES => {
                    let [time, reducer, from_node, chunk] = cur.nums_exact("delivery event")?;
                    let states = tag == QEV_DELIVER_STATES;
                    let payload = read_payload(&mut cur, framework, states, "delivery payload")?;
                    QueuedEvent::Deliver {
                        time,
                        reducer,
                        from_node,
                        chunk,
                        payload,
                    }
                }
                other => {
                    return Err(Error::storage(format!(
                        "stream checkpoint queue event kind {other} unknown"
                    )))
                }
            });
        }

        let raw = cur.nums("pending chunks")?;
        let truncated = || Error::storage("stream checkpoint pending section truncated");
        // Every node owns at least its length entry, so a node count past
        // the section's size is forged; checked before it sizes `pending`.
        if nodes > raw.len() as u64 {
            return Err(truncated());
        }
        let mut pending = Vec::with_capacity(nodes as usize);
        let mut rest = raw.as_slice();
        for _ in 0..nodes {
            let (&n, tail) = rest.split_first().ok_or_else(truncated)?;
            let n = usize::try_from(n)
                .ok()
                .filter(|&n| n <= tail.len())
                .ok_or_else(truncated)?;
            let (items, tail) = tail.split_at(n);
            pending.push(items.to_vec());
            rest = tail;
        }
        if !rest.is_empty() {
            return Err(Error::storage(
                "stream checkpoint pending section oversized",
            ));
        }

        let raw = cur.nums("disk clocks")?;
        if raw.len() != 2 * nodes as usize {
            return Err(Error::storage(
                "stream checkpoint disk-clock count mismatch",
            ));
        }
        let disk_free = raw.chunks_exact(2).map(|c| (c[0], c[1])).collect();

        let done = cur.nums("done chunks")?;
        let [map_output_bytes, spill_written_map, map_finish, maps_completed] =
            cur.nums_exact("scheduler counters")?;
        let map_cpu = expect_len(cur.nums("map cpu")?, nodes, "map cpu")?;
        let ready_at = expect_len(cur.nums("ready-at")?, reducers, "ready-at")?;
        let delivery_seq = expect_len(cur.nums("delivery seq")?, reducers, "delivery seq")?;
        let crash_count = expect_len(cur.nums("crash count")?, reducers, "crash count")?;
        let reduce_cpu = expect_len(cur.nums("reduce cpu")?, reducers, "reduce cpu")?;
        let spill_written_reduce = expect_len(cur.nums("reduce spill")?, reducers, "reduce spill")?;
        let output = cur.pairs("output")?;

        let mut deferred = Vec::with_capacity(reducers as usize);
        let mut reducer_ckpts = Vec::with_capacity(reducers as usize);
        for r in 0..reducers {
            let header = cur.nums("deferred header")?;
            let (&n, entries) = header
                .split_first()
                .ok_or_else(|| Error::storage(format!("reducer {r} deferred header empty")))?;
            // Two entries per delivery; the count is compared, never
            // multiplied, so no forged value can overflow.
            if entries.len() % 2 != 0 || (entries.len() / 2) as u64 != n {
                return Err(Error::storage(format!(
                    "reducer {r} deferred header malformed"
                )));
            }
            let mut defs = Vec::with_capacity(entries.len() / 2);
            for entry in entries.chunks_exact(2) {
                let payload = match entry[1] {
                    kind @ (PAYLOAD_PAIRS | PAYLOAD_STATES) => {
                        let states = kind == PAYLOAD_STATES;
                        read_payload(&mut cur, framework, states, "deferred payload")?
                    }
                    other => {
                        return Err(Error::storage(format!(
                            "reducer {r} deferred payload kind {other} unknown"
                        )))
                    }
                };
                defs.push(DeferredDelivery {
                    from_node: entry[0],
                    payload,
                });
            }
            deferred.push(defs);

            let [tag, flags, wm_present, wm_value, n_nums, n_pairs, n_states] =
                cur.nums_exact("reducer header")?;
            let tag = u8::try_from(tag)
                .map_err(|_| Error::storage(format!("reducer {r} tag out of range")))?;
            // A reducer cannot own more sections than the file still
            // holds: each count is bounded before it drives a loop.
            let nums = (0..cur.count(n_nums, "reducer nums")?)
                .map(|_| cur.nums("reducer nums"))
                .collect::<Result<_>>()?;
            let pairs = (0..cur.count(n_pairs, "reducer pairs")?)
                .map(|_| cur.pairs("reducer pairs"))
                .collect::<Result<_>>()?;
            let states = (0..cur.count(n_states, "reducer states")?)
                .map(|_| cur.states("reducer states"))
                .collect::<Result<_>>()?;
            reducer_ckpts.push(ReducerCkpt {
                tag,
                flags,
                watermark: (wm_present != 0).then_some(wm_value),
                nums,
                pairs,
                states,
            });
        }
        // The trailing groups, in tag order.
        let (mut dlq, mut staged) = (Vec::new(), Vec::new());
        let mut node_combine = NodeCombineStats::default();
        while cur.remaining() > 0 {
            match *cur.nums("trailing group header")?.as_slice() {
                [GROUP_DLQ, n] if dlq.is_empty() && staged.is_empty() => {
                    dlq = (0..cur.count(n, "quarantined records")?)
                        .map(|_| PoisonedRecord::read(&mut cur))
                        .collect::<Result<_>>()?;
                }
                // `nodes` is at most a section's length: no overflow.
                [GROUP_STAGED, ref nums @ ..]
                    if staged.is_empty() && nums.len() == 4 + 5 * nodes as usize =>
                {
                    let (c, tables) = nums.split_at(4);
                    node_combine = NodeCombineStats {
                        staged_bytes: c[0],
                        flushed_bytes: c[1],
                        flushes: c[2],
                        merged_rows: c[3],
                    };
                    staged = (tables.chunks_exact(5))
                        .map(|t| {
                            Ok(StagedTable {
                                rows: cur.pairs("staged rows")?,
                                bytes: t[0],
                                bytes_in: t[1],
                                merges: t[2],
                                held: (t[3] != 0).then_some(t[4]),
                            })
                        })
                        .collect::<Result<_>>()?;
                }
                _ => return Err(Error::storage("stream checkpoint trailing group malformed")),
            }
        }

        Ok(SavedState {
            fingerprint,
            job_name,
            next_batch,
            engine: EngineState {
                queue,
                pending,
                disk_free,
                done,
                map_output_bytes,
                spill_written_map,
                map_finish,
                maps_completed,
                map_cpu,
                ready_at,
                delivery_seq,
                crash_count,
                reduce_cpu,
                spill_written_reduce,
                output,
                deferred,
                reducers: reducer_ckpts,
                dlq,
                staged,
                node_combine,
            },
        })
    }

    /// Writes the checkpoint to `path`, creating parent directories.
    pub fn write_to(&self, path: &Path) -> Result<()> {
        self.writer().write_to(path)
    }

    /// Reads and decodes a checkpoint file.
    pub fn read_from(path: &Path) -> Result<SavedState> {
        SavedState::from_reader(SectionReader::open(path, Kind::STREAM_CHECKPOINT)?)
    }
}

/// Checks a fixed-width numeric section against its expected length.
fn expect_len(v: Vec<u64>, want: u64, what: &str) -> Result<Vec<u64>> {
    if v.len() as u64 != want {
        return Err(Error::storage(format!(
            "{what}: {} entries, expected {want}",
            v.len()
        )));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use opa_common::{Key, Pair, Value};

    /// An INC-hash run (framework 3): its deliveries carry key-state pairs.
    fn sample() -> SavedState {
        SavedState {
            fingerprint: Fingerprint {
                records: 100,
                total_bytes: 1234,
                framework_idx: 3,
                chunk_size: 4096,
                nodes: 2,
                reducers: 2,
                batches: 4,
                hash_seed: 7,
            },
            job_name: "unit".into(),
            next_batch: 2,
            engine: sample_engine(),
        }
    }

    fn sample_engine() -> EngineState {
        EngineState {
            queue: vec![
                QueuedEvent::StartMap {
                    time: 10,
                    chunk: 3,
                    attempt: 0,
                },
                QueuedEvent::Deliver {
                    time: 12,
                    reducer: 1,
                    from_node: 0,
                    chunk: 4,
                    payload: RecordBatch::from_pairs(vec![Pair::new(
                        Key::from("q"),
                        Value::from_u64(5),
                    )]),
                },
                QueuedEvent::StartMap {
                    time: 14,
                    chunk: 5,
                    attempt: 1,
                },
            ],
            pending: vec![vec![5, 6], vec![]],
            disk_free: vec![(11, 12), (13, 14)],
            done: vec![0, 1, 2],
            map_output_bytes: 999,
            spill_written_map: 17,
            map_finish: 400,
            maps_completed: 3,
            map_cpu: vec![100, 200],
            ready_at: vec![50, 60],
            delivery_seq: vec![4, 5],
            crash_count: vec![0, 1],
            reduce_cpu: vec![70, 80],
            spill_written_reduce: vec![0, 9],
            output: vec![Pair::new(Key::from("k"), Value::from_u64(1))],
            deferred: vec![
                vec![DeferredDelivery {
                    from_node: 1,
                    payload: RecordBatch::from_pairs(vec![Pair::new(
                        Key::from("d"),
                        Value::from_u64(2),
                    )]),
                }],
                vec![],
            ],
            reducers: vec![
                ReducerCkpt {
                    tag: 3,
                    flags: 1,
                    watermark: Some(42),
                    nums: vec![vec![8]],
                    pairs: vec![vec![]],
                    states: vec![vec![Pair::new(Key::from("s"), Value::from_u64(3))]],
                },
                ReducerCkpt::default(),
            ],
            dlq: (0..2)
                .map(|i| PoisonedRecord {
                    chunk: i,
                    attempt: 1 - i,
                    offset: 40 * u64::from(i) + 3,
                    record: b"1000 42 /a 200".to_vec().into(),
                })
                .collect(),
            staged: vec![
                StagedTable {
                    rows: vec![Pair::new(Key::from("u"), Value::from_u64(6))],
                    bytes: 20,
                    bytes_in: 60,
                    merges: 2,
                    held: Some(1),
                },
                StagedTable::default(),
            ],
            node_combine: NodeCombineStats {
                staged_bytes: 300,
                flushed_bytes: 120,
                flushes: 3,
                merged_rows: 9,
            },
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let st = sample();
        let back = SavedState::decode(&st.encode()).expect("decodes");
        assert_eq!(back.fingerprint, st.fingerprint);
        assert_eq!(back.job_name, st.job_name);
        assert_eq!(back.next_batch, st.next_batch);
        // `QueuedEvent` has no `PartialEq`; the debug form pins the queue
        // structurally, payload contents included.
        assert_eq!(
            format!("{:?}", back.engine.queue),
            format!("{:?}", st.engine.queue)
        );
        assert_eq!(back.engine.pending, st.engine.pending);
        assert_eq!(back.engine.disk_free, st.engine.disk_free);
        assert_eq!(back.engine.done, st.engine.done);
        assert_eq!(back.engine.output, st.engine.output);
        assert_eq!(back.engine.reducers, st.engine.reducers);
        assert_eq!(back.engine.deferred.len(), 2);
        assert_eq!(back.engine.deferred[0].len(), 1);
        assert_eq!(
            back.engine.deferred[0][0].payload,
            st.engine.deferred[0][0].payload
        );
        assert_eq!(back.engine.dlq, st.engine.dlq);
        assert_eq!(back.engine.staged, st.engine.staged);
        assert_eq!(back.engine.node_combine, st.engine.node_combine);
    }

    #[test]
    fn a_run_without_quarantine_or_staging_writes_no_trailing_group() {
        let mut st = sample();
        let full = st.encode();
        (st.engine.dlq, st.engine.staged) = (Vec::new(), Vec::new());
        let bare = st.encode();
        let back = SavedState::decode(&bare).expect("decodes");
        assert!(back.engine.dlq.is_empty() && back.engine.staged.is_empty());
        // Two group headers, two records of two sections each and two
        // tables' rows.
        let sections = |buf: &[u8]| {
            let r = SectionReader::new(buf, Kind::STREAM_CHECKPOINT);
            r.unwrap().remaining()
        };
        assert_eq!(sections(&full) - sections(&bare), 8);
    }

    #[test]
    fn corruption_is_detected() {
        let mut buf = sample().encode();
        let mid = buf.len() / 2;
        buf[mid] ^= 0x40;
        assert!(SavedState::decode(&buf).is_err());
    }

    #[test]
    fn truncation_is_detected() {
        let buf = sample().encode();
        assert!(SavedState::decode(&buf[..buf.len() - 5]).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("opa-stream-ckpt-test");
        let path = dir.join("sub").join("c.opac");
        let st = sample();
        st.write_to(&path).expect("writes");
        let back = SavedState::read_from(&path).expect("reads");
        assert_eq!(back.engine.output, st.engine.output);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The sample's encoding with one number of the numeric section that
    /// holds exactly `values` overwritten — and the CRC recomputed, as any
    /// forger would.
    fn forged(values: &[u64], slot: usize, value: u64) -> Vec<u8> {
        let mut section = vec![1u8]; // the numeric-section tag
        section.extend((8 * values.len() as u64).to_be_bytes());
        section.extend(values.iter().flat_map(|v| v.to_be_bytes()));
        let mut buf = sample().encode();
        let at = buf.windows(section.len()).position(|w| w == section);
        let at = at.expect("a section holding those values") + 9 + 8 * slot;
        buf[at..at + 8].copy_from_slice(&value.to_be_bytes());
        let body = buf.len() - 4;
        let crc = opa_simio::codec::crc32(&buf[..body]);
        buf[body..].copy_from_slice(&crc.to_be_bytes());
        buf
    }

    /// The sample's fingerprint, event-queue header (three events: map,
    /// delivery, map), pending chunks (node 0 holds two, node 1 none),
    /// reducer 1's empty deferred header and reducer 0's reducer header.
    const FINGERPRINT: &[u64] = &[100, 1234, 3, 4096, 2, 2, 4, 7, 2];
    const QUEUE_HEADER: &[u64] = &[3, QEV_START_MAP, QEV_DELIVER_STATES, QEV_START_MAP];
    const PENDING: &[u64] = &[2, 5, 6, 0];
    const DEFERRED_NONE: &[u64] = &[0];
    const REDUCER_HEADER: &[u64] = &[3, 1, 1, 42, 1, 1, 1];
    /// The sample's two trailing group headers; the second holds both
    /// tables' numbers.
    const DLQ_HEADER: &[u64] = &[GROUP_DLQ, 2];
    const STAGED_HEADER: &[u64] = &[GROUP_STAGED, 300, 120, 3, 9, 20, 60, 2, 1, 1, 0, 0, 0, 0, 0];

    /// A count no file could back, one that overflows `usize` arithmetic,
    /// one whose double wraps to zero, and a merely wrong one.
    const FORGED: [u64; 4] = [1 << 62, u64::MAX, 1 << 63, 1000];

    #[test]
    fn forged_framework_and_delivery_kind_are_errors() {
        // Fingerprint slot 2 is the framework; sort-merge (0) ships pairs.
        for (idx, says) in [
            (
                0,
                "delivery payload holds key-state pairs, but SM ships key-value pairs",
            ),
            (5, "unknown framework 5"),
            (u64::MAX, "unknown framework"),
        ] {
            let err = SavedState::decode(&forged(FINGERPRINT, 2, idx)).unwrap_err();
            assert!(err.to_string().contains(says), "{err}");
        }
        let err = SavedState::decode(&forged(QUEUE_HEADER, 2, QEV_DELIVER_PAIRS)).unwrap_err();
        let says = "delivery payload holds key-value pairs, but INC-hash ships key-state pairs";
        assert!(err.to_string().contains(says), "{err}");
    }

    #[test]
    fn forged_node_count_is_an_error() {
        // Fingerprint slot 4 is `nodes`, which sizes `pending`.
        assert!(
            SavedState::decode(&forged(FINGERPRINT, 4, 2)).is_ok(),
            "true count"
        );
        for n in FORGED {
            assert!(
                SavedState::decode(&forged(FINGERPRINT, 4, n)).is_err(),
                "{n}"
            );
        }
    }

    #[test]
    fn forged_queue_pending_and_deferred_counts_are_errors() {
        for (values, truth) in [(QUEUE_HEADER, 3), (PENDING, 2), (DEFERRED_NONE, 0)] {
            assert!(
                SavedState::decode(&forged(values, 0, truth)).is_ok(),
                "{values:?}"
            );
            for n in FORGED {
                let res = SavedState::decode(&forged(values, 0, n));
                assert!(res.is_err(), "{values:?} count {n}");
            }
        }
    }

    #[test]
    fn forged_reducer_nums_count_is_an_error() {
        assert!(
            SavedState::decode(&forged(REDUCER_HEADER, 4, 1)).is_ok(),
            "true count"
        );
        for n in FORGED {
            assert!(
                SavedState::decode(&forged(REDUCER_HEADER, 4, n)).is_err(),
                "{n}"
            );
        }
    }

    #[test]
    fn forged_reducer_pairs_and_states_counts_are_errors() {
        for (slot, n) in [5, 6].into_iter().flat_map(|s| FORGED.map(|n| (s, n))) {
            let res = SavedState::decode(&forged(REDUCER_HEADER, slot, n));
            assert!(res.is_err(), "header slot {slot} = {n}");
        }
    }

    #[test]
    fn forged_trailing_groups_are_errors() {
        assert!(SavedState::decode(&forged(DLQ_HEADER, 1, 2)).is_ok());
        for n in FORGED.into_iter().chain([1, 3]) {
            let res = SavedState::decode(&forged(DLQ_HEADER, 1, n));
            assert!(res.is_err(), "quarantined-record count {n}");
        }
        // A tag out of order (the staging group twice), or unknown.
        for tag in [GROUP_DLQ, GROUP_STAGED + 1, u64::MAX] {
            let res = SavedState::decode(&forged(STAGED_HEADER, 0, tag));
            assert!(res.is_err(), "group tag {tag}");
        }
    }
}
