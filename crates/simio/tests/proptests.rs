//! Property-based tests for the storage substrate: byte conservation and
//! partition completeness under arbitrary record streams.

use opa_common::{Key, Pair, Value};
use opa_simio::{BlockStore, BucketManager, SpillStore};
use proptest::prelude::*;

fn tuple(k: u64, len: usize) -> Pair {
    Pair::new(Key::from_u64(k), Value::new(vec![0xAB; len]))
}

proptest! {
    /// Every record pushed into a bucket manager comes back exactly once,
    /// from the bucket it was pushed to, in push order; written bytes on
    /// flushes equal read bytes on take.
    #[test]
    fn bucket_manager_conserves_records(
        recs in proptest::collection::vec((0u64..500, 1usize..120), 1..300),
        h in 1usize..8,
        buffer in 64u64..2048,
    ) {
        let mut m = BucketManager::new(h, buffer);
        let mut expected: Vec<Vec<(u64, usize)>> = vec![Vec::new(); h];
        let mut written = 0u64;
        for &(k, len) in &recs {
            let b = (k as usize) % h;
            expected[b].push((k, len));
            written += m.push(b, tuple(k, len)).written;
        }
        written += m.seal().written;
        let mut read = 0u64;
        for (b, exp) in expected.iter().enumerate() {
            let (got, op) = m.take_segments(b);
            read += op.read;
            let got: Vec<(u64, usize)> = got
                .iter()
                .flatten()
                .map(|t| (t.key.as_u64().unwrap(), t.value.len()))
                .collect();
            prop_assert_eq!(&got, exp, "bucket {} contents differ", b);
        }
        prop_assert_eq!(written, read, "flushed bytes must equal read bytes");
        prop_assert_eq!(m.total_spilled(), 0, "take_segments resets accounting");
    }

    /// Spill files round-trip their records and sizes.
    #[test]
    fn spill_store_roundtrip(
        runs in proptest::collection::vec(
            proptest::collection::vec((0u64..100, 1usize..64), 1..40),
            1..10,
        ),
    ) {
        let mut store = SpillStore::new();
        let mut ids = Vec::new();
        let mut total_written = 0u64;
        for run in &runs {
            let records: Vec<Pair> = run.iter().map(|&(k, l)| tuple(k, l)).collect();
            let (id, op) = store.write_file(records);
            total_written += op.written;
            ids.push(id);
        }
        prop_assert_eq!(store.live_files().count(), runs.len());
        prop_assert_eq!(store.total_written(), total_written);
        for (id, run) in ids.into_iter().zip(&runs) {
            let (file, op) = store.take_file(id).expect("live file");
            prop_assert_eq!(file.records.len(), run.len());
            prop_assert_eq!(op.read, file.bytes);
        }
        prop_assert_eq!(store.live_files().count(), 0);
        prop_assert_eq!(store.live_bytes(), 0);
    }

    /// Block-store chunks tile the record index space exactly and respect
    /// the chunk-size bound (except single oversized records).
    #[test]
    fn block_store_tiles_input(
        sizes in proptest::collection::vec(1u64..200, 1..500),
        chunk in 32u64..512,
        nodes in 1usize..12,
    ) {
        let bs = BlockStore::split(sizes.iter().copied(), chunk, nodes);
        let mut next = 0usize;
        for c in bs.chunks() {
            prop_assert_eq!(c.range.start, next);
            prop_assert!(c.node < nodes);
            // A chunk either fits the bound or holds a single big record.
            prop_assert!(c.bytes <= chunk || c.len() == 1);
            let expect: u64 = sizes[c.range.clone()].iter().sum();
            prop_assert_eq!(c.bytes, expect);
            next = c.range.end;
        }
        prop_assert_eq!(next, sizes.len());
        prop_assert_eq!(bs.total_bytes(), sizes.iter().sum::<u64>());
    }

    /// Pair sizes are additive and stable under cloning.
    #[test]
    fn pair_size_additive(k in proptest::collection::vec(any::<u8>(), 0..64),
                          v in proptest::collection::vec(any::<u8>(), 0..256)) {
        let p = Pair::new(Key::new(k.clone()), Value::new(v.clone()));
        prop_assert_eq!(p.size(), (k.len() + v.len()) as u64 + 8);
        prop_assert_eq!(p.clone().size(), p.size());
    }
}

/// Payload sizes straddling the inline/heap boundary of `Key`/`Value`
/// (0, 21, 22 inline; 23, 1024 heap) — every serialization surface must
/// round-trip all of them bit-exactly.
const BOUNDARY_SIZES: [usize; 5] = [0, 21, 22, 23, 1024];

fn boundary_pairs() -> Vec<Pair> {
    let mut out = Vec::new();
    for (i, &kn) in BOUNDARY_SIZES.iter().enumerate() {
        for (j, &vn) in BOUNDARY_SIZES.iter().enumerate() {
            // Mix constructors so both representations hit the codec.
            let key = if (i + j) % 2 == 0 {
                Key::from_slice(&vec![i as u8 + 1; kn])
            } else {
                Key::forced_heap(vec![i as u8 + 1; kn])
            };
            let value = Value::from_slice(&vec![j as u8; vn]);
            out.push(Pair::new(key, value));
        }
    }
    out
}

/// The spill codec round-trips every boundary payload size, and decoded
/// records compare equal whichever representation encoded them.
#[test]
fn codec_roundtrips_boundary_sizes() {
    use opa_simio::codec::{decode_run, encode_run};
    let pairs = boundary_pairs();
    let back = decode_run(&encode_run(&pairs)).expect("run decodes");
    assert_eq!(back, pairs);
}

/// Checkpoint sections round-trip boundary-size pair and state runs.
#[test]
fn checkpoint_sections_roundtrip_boundary_sizes() {
    use opa_simio::ckpt::{Kind, SectionReader, SectionWriter};
    let pairs = boundary_pairs();
    let states: Vec<Pair> = pairs.iter().rev().cloned().collect();
    let mut w = SectionWriter::new(Kind::DATASET);
    w.bytes(&[7; 3])
        .nums(&[0, u64::MAX, 42])
        .pairs(&pairs)
        .states(&states);
    let buf = w.finish();
    let mut r = SectionReader::new(&buf, Kind::DATASET).expect("sections decode");
    assert_eq!(r.bytes("bytes").unwrap(), [7; 3]);
    assert_eq!(r.nums("nums").unwrap(), [0, u64::MAX, 42]);
    assert_eq!(r.pairs("pairs").unwrap(), pairs);
    assert_eq!(r.states("states").unwrap(), states);
    r.finish().expect("nothing left over");
}

proptest! {
    /// Arbitrary payloads (lengths biased around the inline cap) survive
    /// the spill codec bit-exactly, in order.
    #[test]
    fn codec_roundtrips_arbitrary_payloads(
        recs in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..48),
             proptest::collection::vec(any::<u8>(), 0..48),
             any::<bool>()),
            0..40),
    ) {
        use opa_simio::codec::{decode_run, encode_run};
        let pairs: Vec<Pair> = recs
            .iter()
            .map(|(k, v, heap)| {
                let key = if *heap {
                    Key::forced_heap(k.clone())
                } else {
                    Key::from_slice(k)
                };
                Pair::new(key, Value::from_slice(v))
            })
            .collect();
        let back = decode_run(&encode_run(&pairs)).expect("run decodes");
        prop_assert_eq!(back, pairs);
    }
}
