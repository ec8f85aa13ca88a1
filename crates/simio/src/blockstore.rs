//! HDFS-like block store.
//!
//! HDFS stores job input in fixed-size blocks (64 MB by default) that double
//! as the map-task granularity (§2.2). [`BlockStore::split`] cuts a stream
//! of record sizes into chunks of at most `C` bytes and assigns each chunk a
//! home node round-robin, modelling uniform block placement with map-side
//! locality (Hadoop schedules maps on the node holding the block).

use std::ops::Range;

/// One input chunk: a contiguous range of record indices resident on a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// Node holding (and mapping) this chunk.
    pub node: usize,
    /// Record-index range into the job input.
    pub range: Range<usize>,
    /// Serialized size of the chunk in bytes.
    pub bytes: u64,
}

impl Chunk {
    /// Number of records in the chunk.
    pub fn len(&self) -> usize {
        self.range.len()
    }

    /// Whether the chunk holds no records.
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }
}

/// The split of one job input into node-assigned chunks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockStore {
    chunks: Vec<Chunk>,
    total_bytes: u64,
    total_records: usize,
}

impl BlockStore {
    /// Splits records (given by their serialized sizes) into chunks of at
    /// most `chunk_size` bytes, assigned round-robin over `nodes`. A record
    /// larger than `chunk_size` gets a chunk of its own (records never
    /// straddle blocks, like lines under `TextInputFormat`).
    ///
    /// # Panics
    /// Panics if `chunk_size == 0` or `nodes == 0`.
    pub fn split<I>(record_sizes: I, chunk_size: u64, nodes: usize) -> Self
    where
        I: IntoIterator<Item = u64>,
    {
        assert!(chunk_size > 0, "chunk size must be positive");
        assert!(nodes > 0, "node count must be positive");
        let mut chunks = Vec::new();
        let mut start = 0usize;
        let mut cur_bytes = 0u64;
        let mut total_bytes = 0u64;
        let mut idx = 0usize;
        for sz in record_sizes {
            if cur_bytes > 0 && cur_bytes + sz > chunk_size {
                chunks.push((start..idx, cur_bytes));
                start = idx;
                cur_bytes = 0;
            }
            cur_bytes += sz;
            total_bytes += sz;
            idx += 1;
        }
        if cur_bytes > 0 {
            chunks.push((start..idx, cur_bytes));
        }
        let chunks = chunks
            .into_iter()
            .enumerate()
            .map(|(i, (range, bytes))| Chunk {
                node: i % nodes,
                range,
                bytes,
            })
            .collect();
        BlockStore {
            chunks,
            total_bytes,
            total_records: idx,
        }
    }

    /// Cuts records that are already grouped — `group_lens[g]` consecutive
    /// records belong to group `g` — on the group boundaries instead of by
    /// size: one chunk per non-empty group, homed on node `g % nodes`.
    /// This is the placement of a resident, partition-bucketed input whose
    /// partition `g` already lives where reducer `g` runs.
    ///
    /// # Panics
    /// Panics if `nodes == 0` or the groups do not cover the records
    /// exactly.
    pub fn split_at<I, G>(record_sizes: I, group_lens: G, nodes: usize) -> Self
    where
        I: IntoIterator<Item = u64>,
        G: IntoIterator<Item = usize>,
    {
        assert!(nodes > 0, "node count must be positive");
        let mut sizes = record_sizes.into_iter();
        let mut chunks = Vec::new();
        let mut start = 0usize;
        for (group, len) in group_lens.into_iter().enumerate() {
            let bytes: u64 = (0..len)
                .map(|_| sizes.next().expect("a group runs past the last record"))
                .sum();
            if len > 0 {
                chunks.push(Chunk {
                    node: group % nodes,
                    range: start..start + len,
                    bytes,
                });
                start += len;
            }
        }
        assert!(sizes.next().is_none(), "records past the last group");
        BlockStore {
            total_bytes: chunks.iter().map(|c| c.bytes).sum(),
            total_records: start,
            chunks,
        }
    }

    /// All chunks in input order.
    pub fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    /// Number of map tasks this input yields (`D / C` in the model).
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Total input bytes `D`.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total record count.
    pub fn total_records(&self) -> usize {
        self.total_records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_at_chunk_boundaries() {
        // 10 records of 30 bytes, 100-byte chunks → 3+3+3+1.
        let bs = BlockStore::split(std::iter::repeat_n(30, 10), 100, 2);
        let lens: Vec<usize> = bs.chunks().iter().map(Chunk::len).collect();
        assert_eq!(lens, vec![3, 3, 3, 1]);
        assert_eq!(bs.total_bytes(), 300);
        assert_eq!(bs.total_records(), 10);
    }

    #[test]
    fn ranges_partition_the_input() {
        let sizes: Vec<u64> = (1..=50).map(|i| (i % 7) + 1).collect();
        let bs = BlockStore::split(sizes.iter().copied(), 16, 3);
        let mut next = 0usize;
        let mut byte_sum = 0u64;
        for c in bs.chunks() {
            assert_eq!(c.range.start, next, "gap or overlap in ranges");
            assert!(!c.is_empty());
            next = c.range.end;
            byte_sum += c.bytes;
            let expect: u64 = sizes[c.range.clone()].iter().sum();
            assert_eq!(c.bytes, expect);
        }
        assert_eq!(next, sizes.len());
        assert_eq!(byte_sum, bs.total_bytes());
    }

    #[test]
    fn nodes_assigned_round_robin() {
        let bs = BlockStore::split(std::iter::repeat_n(10, 100), 10, 4);
        for (i, c) in bs.chunks().iter().enumerate() {
            assert_eq!(c.node, i % 4);
        }
    }

    #[test]
    fn oversized_record_gets_own_chunk() {
        let bs = BlockStore::split([5u64, 500, 5], 100, 1);
        let lens: Vec<usize> = bs.chunks().iter().map(Chunk::len).collect();
        // 5 fits; 500 won't join it (overflow) and fills its own chunk;
        // the final 5 starts fresh.
        assert_eq!(lens, vec![1, 1, 1]);
        assert_eq!(bs.chunks()[1].bytes, 500);
    }

    #[test]
    fn split_at_cuts_on_group_boundaries_and_homes_by_group() {
        // Groups of 2, 0, 3 and 1 records over 3 nodes: the empty group
        // yields no chunk and does not shift the others' nodes.
        let sizes = [5u64, 7, 1, 2, 3, 900];
        let bs = BlockStore::split_at(sizes, [2, 0, 3, 1, 0], 3);
        let got: Vec<(usize, Range<usize>, u64)> = bs
            .chunks()
            .iter()
            .map(|c| (c.node, c.range.clone(), c.bytes))
            .collect();
        assert_eq!(got, vec![(0, 0..2, 12), (2, 2..5, 6), (0, 5..6, 900)]);
        assert_eq!(bs.total_bytes(), 918);
        assert_eq!(bs.total_records(), 6);
    }

    #[test]
    #[should_panic(expected = "records past the last group")]
    fn split_at_rejects_uncovered_records() {
        BlockStore::split_at([1u64, 1, 1], [2], 1);
    }

    #[test]
    fn empty_input_no_chunks() {
        let bs = BlockStore::split(std::iter::empty(), 64, 2);
        assert_eq!(bs.num_chunks(), 0);
        assert_eq!(bs.total_bytes(), 0);
    }
}
