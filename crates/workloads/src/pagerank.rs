//! PageRank over the click graph — the dataflow layer's iterative
//! workload.
//!
//! Two jobs chain into a k-round pipeline:
//!
//! 1. [`PageRankInitJob`] builds the bipartite user↔page graph from raw
//!    clicks: every click `(user, url)` contributes both edge directions,
//!    and each node's reduce call emits one *node record* — its rank
//!    (fixed-point, [`SCALE`] = 1.0) packed with its deduplicated,
//!    degree-capped adjacency list.
//! 2. [`PageRankRoundJob`] runs one power-iteration round over node
//!    records: the map scatters each node's damped rank share to its
//!    neighbors and forwards the adjacency to the node itself; the reduce
//!    sums contributions and re-emits the node record with the new rank.
//!
//! Because the round's map emits to *neighbor* keys, it is **not**
//! partition-preserving — every round legitimately crosses a reshuffle,
//! which is exactly what makes PageRank the dataflow benchmark's
//! full-shuffle case (contrast [`crate::top_pages`], the skip case).
//!
//! All arithmetic is integer fixed-point and order-insensitive, so
//! chained rounds stay bit-identical at any thread count.

use crate::clickstream::parse_click;
use opa_common::decode_kv;
use opa_core::api::{Job, ReduceCtx};
use opa_core::prelude::{Key, Value};

/// Fixed-point scale: a rank of 1.0.
pub const SCALE: u64 = 1_000_000;
/// Damping factor 0.85 in [`SCALE`] fixed point.
const DAMPING: u64 = 850_000;
/// Per-node adjacency cap: keeps node records bounded on heavy-tailed
/// click graphs (the cap keeps the *hottest-sorted-first* neighbors
/// deterministically: lexicographically smallest after dedup).
const MAX_DEGREE: usize = 32;

/// Packs a node record value: `[rank u64][n u32]` then `n` length-framed
/// neighbor keys.
pub fn encode_node(rank: u64, neighbors: &[&[u8]]) -> Vec<u8> {
    let mut v = Vec::with_capacity(12 + neighbors.iter().map(|n| 4 + n.len()).sum::<usize>());
    v.extend_from_slice(&rank.to_be_bytes());
    v.extend_from_slice(&(neighbors.len() as u32).to_be_bytes());
    for n in neighbors {
        v.extend_from_slice(&(n.len() as u32).to_be_bytes());
        v.extend_from_slice(n);
    }
    v
}

/// Unpacks a node record value into `(rank, neighbors)`.
pub fn decode_node(value: &[u8]) -> Option<(u64, Vec<&[u8]>)> {
    let rank = u64::from_be_bytes(value.get(..8)?.try_into().ok()?);
    let n = u32::from_be_bytes(value.get(8..12)?.try_into().ok()?) as usize;
    let mut neighbors = Vec::with_capacity(n);
    let mut at = 12;
    for _ in 0..n {
        let len = u32::from_be_bytes(value.get(at..at + 4)?.try_into().ok()?) as usize;
        at += 4;
        neighbors.push(value.get(at..at + len)?);
        at += len;
    }
    (at == value.len()).then_some((rank, neighbors))
}

/// Builds the bipartite click graph and assigns every node rank 1.0.
#[derive(Debug, Clone, Default)]
pub struct PageRankInitJob;

impl Job for PageRankInitJob {
    fn name(&self) -> &str {
        "pagerank-init"
    }

    /// Each click `(user, url)` emits both edge directions: node keys are
    /// `u!<user>` for users and the URL itself for pages (URLs start with
    /// `/`, so the namespaces cannot collide).
    fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
        if let Some((_, user, tail)) = parse_click(record) {
            let url = tail.split(|&b| b == b' ').next().unwrap_or(tail);
            // The user id as 8 zero-padded digits, written in place.
            let (mut ukey, mut rest) = (*b"u!00000000", user);
            for digit in ukey[2..].iter_mut().rev() {
                *digit = b'0' + (rest % 10) as u8;
                rest /= 10;
            }
            emit(&ukey, url);
            emit(url, &ukey);
        }
    }

    /// Deduplicates and caps the neighbor list, then emits the node
    /// record at rank 1.0.
    fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
        let mut neighbors: Vec<&[u8]> = values.iter().map(Value::bytes).collect();
        neighbors.sort_unstable();
        neighbors.dedup();
        neighbors.truncate(MAX_DEGREE);
        ctx.emit(key.clone(), Value::new(encode_node(SCALE, &neighbors)));
    }

    fn state_size_hint(&self) -> Option<u64> {
        Some(256)
    }
}

/// One PageRank power-iteration round over node records.
#[derive(Debug, Clone, Default)]
pub struct PageRankRoundJob;

impl Job for PageRankRoundJob {
    fn name(&self) -> &str {
        "pagerank-round"
    }

    /// Input records are framed `(node, node-record)` pairs from the
    /// previous round. Scatters `d·rank/degree` to each neighbor (tag
    /// `C`) and forwards the adjacency to the node itself (tag `A`).
    fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
        let Some((node, value)) = decode_kv(record) else {
            return;
        };
        let Some((rank, neighbors)) = decode_node(value) else {
            return;
        };
        // Adjacency survives the round attached to its own node.
        let mut adj = Vec::with_capacity(1 + (value.len() - 8));
        adj.push(b'A');
        adj.extend_from_slice(&value[8..]);
        emit(node, &adj);
        if neighbors.is_empty() {
            return;
        }
        let share =
            ((rank as u128 * DAMPING as u128) / SCALE as u128) as u64 / neighbors.len() as u64;
        let mut contrib = [0u8; 9];
        contrib[0] = b'C';
        contrib[1..].copy_from_slice(&share.to_be_bytes());
        for n in neighbors {
            emit(n, &contrib);
        }
    }

    /// `rank' = (1 − d)·1 + Σ contributions` (damping already folded into
    /// the shares), re-packed with the forwarded adjacency.
    fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
        let mut sum = 0u64;
        let mut adjacency: Option<&[u8]> = None;
        for v in &values {
            match v.bytes().split_first() {
                Some((b'C', share)) => {
                    if let Ok(bytes) = <[u8; 8]>::try_from(share) {
                        sum += u64::from_be_bytes(bytes);
                    }
                }
                Some((b'A', adj)) => adjacency = Some(adj),
                _ => {}
            }
        }
        let rank = (SCALE - DAMPING) + sum;
        let mut out = Vec::with_capacity(8 + adjacency.map_or(4, <[u8]>::len));
        out.extend_from_slice(&rank.to_be_bytes());
        // A node no round-input record claimed (dangling) keeps an empty
        // adjacency so later rounds still carry its rank.
        out.extend_from_slice(adjacency.unwrap_or(&0u32.to_be_bytes()));
        ctx.emit(key.clone(), Value::new(out));
    }

    fn state_size_hint(&self) -> Option<u64> {
        Some(256)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clickstream::format_click;
    use opa_common::encode_kv;

    #[test]
    fn node_record_roundtrip() {
        let v = encode_node(SCALE, &[b"/a", b"u!00000001"]);
        let (rank, neighbors) = decode_node(&v).expect("decodes");
        assert_eq!(rank, SCALE);
        assert_eq!(neighbors, vec![b"/a".as_slice(), b"u!00000001".as_slice()]);
        assert!(decode_node(&v[..v.len() - 1]).is_none(), "truncated fails");
    }

    #[test]
    fn init_emits_both_edge_directions_and_dedups() {
        let init = PageRankInitJob;
        let mut pairs = Vec::new();
        // Same user clicks the same page twice.
        for _ in 0..2 {
            init.map(&format_click(10, 42, 7), &mut |k, v| {
                pairs.push((k.to_vec(), Value::from_slice(v)));
            });
        }
        assert_eq!(pairs.len(), 4);
        assert_eq!(pairs[0].0, b"u!00000042");
        assert_eq!(pairs[1].0, b"/en/page00007.html");
        let mut ctx = ReduceCtx::new();
        init.reduce(
            &Key::from("u!00000042"),
            vec![pairs[0].1.clone(), pairs[2].1.clone()],
            &mut ctx,
        );
        let out = ctx.drain();
        let (rank, neighbors) = decode_node(out[0].value.bytes()).expect("node record");
        assert_eq!(rank, SCALE);
        assert_eq!(neighbors.len(), 1, "duplicate edge must dedup");
    }

    #[test]
    fn round_conserves_damped_mass_on_a_2_cycle() {
        // Two nodes pointing at each other: each round every node gets
        // (1−d) + d·1.0 = 1.0 back. Fixed point of the iteration.
        let round = PageRankRoundJob;
        let a = encode_kv(b"/a", &encode_node(SCALE, &[b"/b"]));
        let b = encode_kv(b"/b", &encode_node(SCALE, &[b"/a"]));
        let mut per_key: std::collections::BTreeMap<Vec<u8>, Vec<Value>> = Default::default();
        for rec in [&a, &b] {
            round.map(rec, &mut |k, v| {
                per_key
                    .entry(k.to_vec())
                    .or_default()
                    .push(Value::from_slice(v));
            });
        }
        for (k, values) in per_key {
            let mut ctx = ReduceCtx::new();
            round.reduce(&Key::from_slice(&k), values, &mut ctx);
            let out = ctx.drain();
            let (rank, neighbors) = decode_node(out[0].value.bytes()).expect("node record");
            assert_eq!(rank, SCALE, "2-cycle is a fixed point");
            assert_eq!(neighbors.len(), 1, "adjacency must survive the round");
        }
    }

    #[test]
    fn round_is_not_partition_preserving() {
        assert!(!Job::partition_preserving(&PageRankRoundJob));
        assert!(!Job::partition_preserving(&PageRankInitJob));
    }
}
