//! Property-based tests for the foundation types.

use opa_common::hash::{bucket_of, HashFamily};
use opa_common::units::{SimDuration, SimTime};
use opa_common::{GroupTable, Key, Value};
use proptest::prelude::*;

proptest! {
    /// Big-endian u64 keys sort like the numbers they encode.
    #[test]
    fn key_order_matches_numeric(a: u64, b: u64) {
        let (ka, kb) = (Key::from_u64(a), Key::from_u64(b));
        prop_assert_eq!(ka.cmp(&kb), a.cmp(&b));
        prop_assert_eq!(ka.as_u64(), Some(a));
    }

    /// Hash buckets stay in range for any input and modulus.
    #[test]
    fn buckets_in_range(data in proptest::collection::vec(any::<u8>(), 0..128),
                        seed: u64, m in 1usize..1000) {
        let h = HashFamily::new(seed).fn_at(0);
        prop_assert!(h.bucket(&data, m) < m);
    }

    /// The same family index always produces the same function; different
    /// seeds almost always differ on non-trivial input.
    #[test]
    fn hash_deterministic(data in proptest::collection::vec(any::<u8>(), 1..64), seed: u64) {
        let a = HashFamily::new(seed).fn_at(3).hash(&data);
        let b = HashFamily::new(seed).fn_at(3).hash(&data);
        prop_assert_eq!(a, b);
    }

    /// SimTime arithmetic is associative over durations and saturating
    /// subtraction never panics.
    #[test]
    fn simtime_arithmetic(a in 0u64..1 << 40, b in 0u64..1 << 40, c in 0u64..1 << 40) {
        let t = SimTime(a);
        let d1 = SimDuration(b);
        let d2 = SimDuration(c);
        prop_assert_eq!((t + d1) + d2, t + (d1 + d2));
        let _ = SimTime(a) - SimTime(b); // must not panic for any ordering
        prop_assert!(SimTime(a).max(SimTime(b)).0 >= a.max(b));
    }

    /// Value u64 round-trips.
    #[test]
    fn value_u64_roundtrip(v: u64) {
        prop_assert_eq!(Value::from_u64(v).as_u64(), Some(v));
    }

    /// seconds → SimTime → seconds round-trips within a microsecond.
    #[test]
    fn simtime_seconds_roundtrip(s in 0.0f64..1e7) {
        let t = SimTime::from_secs_f64(s);
        prop_assert!((t.as_secs_f64() - s).abs() < 1e-6 + s * 1e-12);
    }
}

/// Sizes that straddle every representation boundary: empty, one under
/// the inline cap, the cap itself, first heap size, and a big payload.
const BOUNDARY_SIZES: [usize; 5] = [0, 21, 22, 23, 1024];

fn std_hash<T: std::hash::Hash>(t: &T) -> u64 {
    use std::hash::Hasher;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

proptest! {
    /// The inline and heap representations of the same bytes are
    /// indistinguishable: equal, equal-ordered, equal-hashed, and either
    /// one against any other payload orders exactly as the raw slices do.
    #[test]
    fn key_repr_is_invisible(a in proptest::collection::vec(any::<u8>(), 0..64),
                             b in proptest::collection::vec(any::<u8>(), 0..64)) {
        let ia = Key::from_slice(&a);
        let ha = Key::forced_heap(a.clone());
        prop_assert_eq!(&ia, &ha);
        prop_assert_eq!(ia.cmp(&ha), std::cmp::Ordering::Equal);
        prop_assert_eq!(std_hash(&ia), std_hash(&ha));
        prop_assert_eq!(ia.as_u64(), ha.as_u64());
        prop_assert_eq!(ia.len(), ha.len());

        let ib = Key::from_slice(&b);
        let hb = Key::forced_heap(b.clone());
        prop_assert_eq!(ia.cmp(&ib), a.cmp(&b));
        prop_assert_eq!(ia.cmp(&hb), a.cmp(&b));
        prop_assert_eq!(ha.cmp(&ib), a.cmp(&b));
        prop_assert_eq!(ha.cmp(&hb), a.cmp(&b));
    }

    /// Same property for values.
    #[test]
    fn value_repr_is_invisible(a in proptest::collection::vec(any::<u8>(), 0..64)) {
        let iv = Value::from_slice(&a);
        let hv = Value::forced_heap(a.clone());
        prop_assert_eq!(&iv, &hv);
        prop_assert_eq!(std_hash(&iv), std_hash(&hv));
        prop_assert_eq!(iv.as_u64(), hv.as_u64());
        prop_assert_eq!(iv.bytes(), hv.bytes());
    }

    /// Every seeded hash function agrees across representations: the
    /// group-by probe path may receive either variant for the same key.
    #[test]
    fn seeded_hash_ignores_repr(a in proptest::collection::vec(any::<u8>(), 0..64),
                                seed: u64) {
        let h = HashFamily::new(seed).fn_at(0);
        let i = Key::from_slice(&a);
        let p = Key::forced_heap(a.clone());
        prop_assert_eq!(h.hash(i.bytes()), h.hash(p.bytes()));
    }

    /// `from_u64` keys are always inline-capable and round-trip through
    /// `as_u64` regardless of which constructor produced the bytes.
    #[test]
    fn u64_roundtrip_across_reprs(v: u64) {
        let i = Key::from_u64(v);
        let p = Key::forced_heap(v.to_be_bytes().to_vec());
        prop_assert_eq!(i.as_u64(), Some(v));
        prop_assert_eq!(p.as_u64(), Some(v));
        prop_assert_eq!(i, p);
    }
}

/// Deterministic boundary sweep: equality, ordering adjacency and hashes
/// at exactly the sizes where the representation flips (0, 21, 22 inline;
/// 23, 1024 heap), the heap side both as a whole buffer and as an offset
/// view of a larger one.
#[test]
fn boundary_sizes_cross_repr_semantics() {
    for &n in &BOUNDARY_SIZES {
        let bytes = vec![0x5A; n];
        let inline_or_heap = Key::from_slice(&bytes);
        let heap = Key::forced_heap(bytes.clone());
        assert_eq!(inline_or_heap, heap, "size {n}");
        assert_eq!(std_hash(&inline_or_heap), std_hash(&heap), "size {n}");
        assert_eq!(inline_or_heap.bytes(), &bytes[..], "size {n}");
        // One byte longer always orders strictly greater (prefix rule),
        // whichever side of the inline cap each length lands on.
        let mut longer = bytes.clone();
        longer.push(0x5A);
        assert!(Key::from_slice(&longer) > inline_or_heap, "size {n}");
        assert!(Key::forced_heap(longer) > heap, "size {n}");

        // The heap variant as the data plane really builds it — a window
        // at a non-zero offset of a larger shared buffer (an input block,
        // a sealed arena) — against its inline twin.
        for off in [1usize, 7, 4093] {
            // Distinct bytes all through, so a window one byte off shows.
            let block: Vec<u8> = (0..off + n + 9).map(|i| (i * 37 + n) as u8).collect();
            let want = &block[off..off + n];
            let view = bytes::Bytes::from(block.clone()).slice(off..off + n);
            let at = format!("size {n} at offset {off}");

            let (twin, heap) = (Key::from_slice(want), Key::forced_heap(view.clone()));
            assert_eq!(heap.bytes(), want, "{at}");
            assert_eq!(twin, heap, "{at}");
            assert_eq!(twin.cmp(&heap), std::cmp::Ordering::Equal, "{at}");
            assert_eq!(std_hash(&twin), std_hash(&heap), "{at}");
            assert_eq!(twin.as_u64(), heap.as_u64(), "{at}");
            // The byte after the window belongs to the block, not the key.
            let longer = Key::from_slice(&block[off..off + n + 1]);
            assert!(heap < longer && twin < longer, "{at}");

            let (twin, heap) = (Value::from_slice(want), Value::forced_heap(view));
            assert_eq!(twin, heap, "{at}");
            assert_eq!(twin.cmp(&heap), std::cmp::Ordering::Equal, "{at}");
            assert_eq!(std_hash(&twin), std_hash(&heap), "{at}");
            assert_eq!(twin.as_u64(), heap.as_u64(), "{at}");
        }
    }
}

/// Fingerprint of test key `k`: keys `2j` and `2j + 1` share one (distinct
/// keys colliding on the full 64 bits), and the top bits are cleared the way
/// `bucket_of` confines the fingerprints one reducer of 64 ever sees.
fn table_fp(k: u16) -> u64 {
    let fp = HashFamily::new(5).fn_at(0).hash(&(k / 2).to_be_bytes()) >> 6;
    assert_eq!(bucket_of(fp, 64), 0);
    fp
}

/// Test key `k`. Key `2j + 1` is key `2j` plus one byte, so of every pair
/// that shares a fingerprint one key's bytes are a proper prefix of the
/// other's: a probe that compared only a prefix, or only the fingerprint,
/// would confuse them.
fn table_key(k: u16) -> Key {
    let mut bytes = u64::from(k / 2).to_be_bytes().to_vec();
    if k % 2 == 1 {
        bytes.push(0xA5);
    }
    Key::from_slice(&bytes)
}

/// Score the victim scan ranks fingerprints by; coarse, so ties are common.
fn table_score(fp: u64) -> u32 {
    (fp % 5) as u32
}

proptest! {
    /// `GroupTable` against a `Vec` with linear search, over random
    /// find / push / row_mut / swap_remove / coldest / reserve / into_rows
    /// sequences.
    /// After every step the rows are dense and in the model's order, and
    /// every resident key is found at the model's position — by `Key` and
    /// by its borrowed bytes alike.
    #[test]
    fn group_table_matches_linear_search_model(
        ops in proptest::collection::vec((0u8..8, 0u16..48, any::<u64>()), 1..300),
    ) {
        let mut table: GroupTable<u64> = GroupTable::default();
        let mut model: Vec<(u64, Key, u64)> = Vec::new();
        let (mut cursor, mut model_cursor) = (0u64, 0u64);
        for (op, k, x) in ops {
            let (fp, key) = (table_fp(k), table_key(k));
            match op {
                // Upsert, the group-by step itself.
                0..=3 => {
                    let at = model.iter().position(|(_, mk, _)| *mk == key);
                    prop_assert_eq!(table.find(fp, &key), at);
                    prop_assert_eq!(table.find_bytes(fp, key.bytes()), at);
                    match at {
                        Some(i) => {
                            let (found, v) = table.row_mut(i);
                            prop_assert_eq!(found, &key);
                            *v = v.wrapping_add(x);
                            model[i].2 = model[i].2.wrapping_add(x);
                        }
                        None => {
                            table.push(fp, key.clone(), x);
                            model.push((fp, key, x));
                        }
                    }
                }
                4 | 5 if !model.is_empty() => {
                    let i = x as usize % model.len();
                    prop_assert_eq!(table.swap_remove(i), model.swap_remove(i));
                }
                6 => {
                    let probes = 1 + x as usize % 5;
                    let n = model.len() as u64;
                    let mut want: Option<(usize, u32)> = None;
                    if n > 0 {
                        for p in 0..(probes as u64).min(n) {
                            let i = ((model_cursor + p) % n) as usize;
                            let score = table_score(model[i].0);
                            if want.is_none_or(|(_, best)| score < best) {
                                want = Some((i, score));
                            }
                        }
                        model_cursor += probes as u64;
                    }
                    prop_assert_eq!(table.coldest(&mut cursor, probes, table_score), want);
                    prop_assert_eq!(cursor, model_cursor);
                }
                7 if x % 4 == 0 => {
                    prop_assert_eq!(&std::mem::take(&mut table).into_rows(), &model);
                    model.clear();
                    prop_assert!(table.is_empty());
                }
                // Rebuilds the index in one step; every row must survive it.
                7 if x % 4 == 1 => table.reserve(x as usize % 200),
                _ => {}
            }
            prop_assert_eq!(table.len(), model.len());
            for (i, (fp, key, v)) in model.iter().enumerate() {
                prop_assert_eq!(table.row(i), (key, v));
                prop_assert_eq!(table.find(*fp, key), Some(i));
                prop_assert_eq!(table.find_bytes(*fp, key.bytes()), Some(i));
            }
            let in_order: Vec<_> = table.iter().collect();
            let model_order: Vec<_> = model.iter().map(|(_, key, v)| (key, v)).collect();
            prop_assert_eq!(in_order, model_order);
        }
    }
}
