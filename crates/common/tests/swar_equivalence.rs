//! Bit-equality of the SWAR fast paths against their scalar references.
//!
//! The engine's determinism guarantees (golden output CRCs, trace CRCs,
//! thread-count invariance) all assume `HashFn::hash` and the token
//! scanner compute *exactly* what their scalar specifications compute —
//! not merely "a good hash" or "roughly the same tokens". These tests pin
//! that equivalence at the byte level, over the boundary lengths the
//! unrolled loops can mishandle (around the 8-byte SWAR stride, the
//! 32-byte hash unroll, and the engine's 22/23 inline-key sizes), over
//! every short length at every byte offset (the tail loads), and over
//! arbitrary inputs.

use opa_common::hash::{HashFamily, SeededHasher, SeededState};
use opa_common::scan::{find_byte, tokens};
use proptest::prelude::*;
use std::hash::{BuildHasher, Hasher};

/// Lengths that straddle every stride the fast paths use.
const BOUNDARY_LENS: &[usize] = &[
    0, 1, 7, 8, 9, 15, 16, 17, 22, 23, 24, 31, 32, 33, 63, 64, 1024, 1031,
];

/// Deterministic non-trivial filler for fixed-length cases.
fn filler(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(167).wrapping_add(salt) ^ 0x3C)
        .collect()
}

#[test]
fn hash_matches_reference_at_boundary_lengths() {
    // h1..h3 are fn_at(0..3); also probe a deep family index and a second
    // seed so the cached mul^2..mul^4 powers are exercised for several
    // multipliers.
    for seed in [0u64, 0x9E37_79B9_7F4A_7C15] {
        let fam = HashFamily::new(seed);
        for idx in [0usize, 1, 2, 7] {
            let h = fam.fn_at(idx);
            for &len in BOUNDARY_LENS {
                let data = filler(len, idx as u8);
                assert_eq!(
                    h.hash(&data),
                    h.hash_reference(&data),
                    "h{} diverged at length {len} (seed {seed:#x})",
                    idx + 1
                );
            }
        }
    }
}

#[test]
fn tokens_matches_split_filter_at_boundary_lengths() {
    for &len in BOUNDARY_LENS {
        // Sprinkle delimiters at a stride that hits both sides of each
        // chunk boundary as len varies.
        let mut data = filler(len, 11);
        for b in &mut data {
            if *b % 5 == 0 {
                *b = b' ';
            }
        }
        let got: Vec<&[u8]> = tokens(&data, b' ').collect();
        let want: Vec<&[u8]> = data
            .split(|&b| b == b' ')
            .filter(|t| !t.is_empty())
            .collect();
        assert_eq!(got, want, "token stream diverged at length {len}");
    }
}

proptest! {
    /// The unrolled 4-lane hash equals the scalar Horner reference for
    /// arbitrary bytes, family indices, and seeds.
    #[test]
    fn hash_matches_reference(data in proptest::collection::vec(any::<u8>(), 0..200),
                              seed: u64, idx in 0usize..4) {
        let h = HashFamily::new(seed).fn_at(idx);
        prop_assert_eq!(h.hash(&data), h.hash_reference(&data));
    }

    /// The token scanner yields exactly the split-on-delim/skip-empty
    /// sequence for arbitrary bytes. Restricting bytes to 0..8 makes
    /// delimiter hits dense, so runs, leading/trailing delimiters, and
    /// chunk-straddling tokens all occur constantly.
    #[test]
    fn tokens_match_split_filter(data in proptest::collection::vec(0u8..8, 0..120),
                                 delim in 0u8..8) {
        let got: Vec<&[u8]> = tokens(&data, delim).collect();
        let want: Vec<&[u8]> =
            data.split(|&b| b == delim).filter(|t| !t.is_empty()).collect();
        prop_assert_eq!(got, want);
    }

    /// `find_byte` agrees with the scalar position search.
    #[test]
    fn find_byte_matches_position(data in proptest::collection::vec(any::<u8>(), 0..100),
                                  needle: u8) {
        let want = data.iter().position(|&b| b == needle);
        prop_assert_eq!(find_byte(&data, needle), want);
    }
}

/// `HashFn::hash` equals the reference at every length up to 72 — every
/// tail length on both sides of each stride — read from every byte
/// offset of a larger buffer, so each overlapping tail load also runs on
/// an unaligned sub-slice with live bytes on either side of it.
#[test]
fn hash_matches_reference_at_every_length_and_offset() {
    let buf = filler(72 + 8 + 8, 29);
    for idx in [0usize, 2, 63] {
        let h = HashFamily::new(0x5EED).fn_at(idx);
        for offset in 0..8 {
            for len in 0..=72 {
                let data = &buf[offset..offset + len];
                assert_eq!(
                    h.hash(data),
                    h.hash_reference(data),
                    "fn_at({idx}) diverged at length {len}, offset {offset}"
                );
            }
        }
    }
}

/// The specification of `SeededHasher::write`: one polynomial step per
/// 8-byte word, then, for a 1–7-byte tail, one step on the tail copied
/// into a zeroed word plus the tail's length. Written on the hasher's
/// public `write_u64` step so it shares no code with the tail loads.
fn seeded_write_spec(hasher: &mut SeededHasher, bytes: &[u8]) {
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        hasher.write_u64(u64::from_le_bytes(w.try_into().expect("8 bytes")));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        hasher.write_u64(u64::from_le_bytes(tail).wrapping_add(rem.len() as u64));
    }
}

/// `SeededHasher::write` equals its scalar specification at every length
/// up to 72 and every byte offset, for the fixed engine-wide state and two
/// family members, from a fresh hasher and from one that has already
/// absorbed a word.
#[test]
fn seeded_hasher_matches_its_specification_at_every_length_and_offset() {
    let buf = filler(72 + 8 + 8, 53);
    let states = [
        SeededState::fixed(),
        SeededState::from_fn(HashFamily::new(7).fn_at(0)),
        SeededState::from_fn(HashFamily::new(0x9E37).fn_at(5)),
    ];
    for (s, state) in states.iter().enumerate() {
        for offset in 0..8 {
            for len in 0..=72 {
                let data = &buf[offset..offset + len];
                for prefix in [None, Some(0xDEAD_BEEF_u64)] {
                    let (mut fast, mut spec) = (state.build_hasher(), state.build_hasher());
                    if let Some(word) = prefix {
                        fast.write_u64(word);
                        spec.write_u64(word);
                    }
                    fast.write(data);
                    seeded_write_spec(&mut spec, data);
                    assert_eq!(
                        fast.finish(),
                        spec.finish(),
                        "state {s} diverged at length {len}, offset {offset}, prefix {prefix:?}"
                    );
                }
            }
        }
    }
}
