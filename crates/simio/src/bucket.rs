//! The bucket file manager of the hash frameworks (§4, §5 of the paper).
//!
//! A reducer running MR-hash / INC-hash / DINC-hash partitions overflow
//! tuples into `h` on-disk bucket files. Each bucket owns a write buffer of
//! `p` pages; tuples accumulate there and are flushed in one request when
//! the buffer fills ("streamed out to disks as their write buffers fill
//! up"). Using more pages per buffer trades memory for fewer random writes
//! — exactly the `p > 1` remark in the paper's footnote 5.

use crate::iostats::IoOp;
use opa_common::Pair;

/// State of one bucket: its buffered tail plus everything already flushed.
/// Flushed data is kept as one segment per flush — segments are moved, not
/// copied, so a large bucket never re-copies its prefix, and
/// [`BucketManager::take_segments`] hands them to the reader as they are.
#[derive(Debug)]
struct Bucket {
    buffered: Vec<Pair>,
    buffered_bytes: u64,
    flushed: Vec<Vec<Pair>>,
    flushed_bytes: u64,
    flush_count: u64,
}

impl Bucket {
    fn new() -> Self {
        Bucket {
            buffered: Vec::new(),
            buffered_bytes: 0,
            flushed: Vec::new(),
            flushed_bytes: 0,
            flush_count: 0,
        }
    }
}

/// Manages `h` bucket files, each behind a paged write buffer. A sealed
/// bucket is read back as its flushed segments
/// ([`BucketManager::take_segments`]), which all three hash frameworks
/// iterate in flush order.
#[derive(Debug)]
pub struct BucketManager {
    buckets: Vec<Bucket>,
    /// Write-buffer capacity per bucket, in bytes (`p` pages × page size).
    buffer_capacity: u64,
    sealed: bool,
}

impl BucketManager {
    /// Creates a manager with `h` buckets and a per-bucket write buffer of
    /// `buffer_capacity` bytes.
    ///
    /// # Panics
    /// Panics if `h == 0` or `buffer_capacity == 0`.
    pub fn new(h: usize, buffer_capacity: u64) -> Self {
        assert!(h > 0, "bucket count must be positive");
        assert!(buffer_capacity > 0, "write buffer must be positive");
        BucketManager {
            buckets: (0..h).map(|_| Bucket::new()).collect(),
            buffer_capacity,
            sealed: false,
        }
    }

    /// Number of buckets `h`.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Appends a tuple to bucket `i`, flushing the write buffer if it
    /// overflows. Returns the I/O (if any) the flush performed.
    ///
    /// # Panics
    /// Panics if the manager was sealed or `i` is out of range.
    pub fn push(&mut self, i: usize, rec: Pair) -> IoOp {
        assert!(!self.sealed, "push after seal");
        let cap = self.buffer_capacity;
        let b = &mut self.buckets[i];
        b.buffered_bytes += rec.size();
        b.buffered.push(rec);
        if b.buffered_bytes >= cap {
            let refill = Vec::with_capacity(b.buffered.len());
            Self::flush_bucket(b, refill)
        } else {
            IoOp::NONE
        }
    }

    /// Moves the write buffer out as one flushed segment, leaving `refill`
    /// in its place.
    fn flush_bucket(b: &mut Bucket, refill: Vec<Pair>) -> IoOp {
        if b.buffered.is_empty() {
            return IoOp::NONE;
        }
        let bytes = b.buffered_bytes;
        b.flushed.push(std::mem::replace(&mut b.buffered, refill));
        b.flushed_bytes += bytes;
        b.buffered_bytes = 0;
        b.flush_count += 1;
        IoOp::write(bytes)
    }

    /// Flushes every write buffer and freezes the manager. Idempotent.
    pub fn seal(&mut self) -> IoOp {
        let mut op = IoOp::NONE;
        if !self.sealed {
            for b in &mut self.buckets {
                // A sealed bucket is never pushed to again: no new buffer.
                op += Self::flush_bucket(b, Vec::new());
            }
            self.sealed = true;
        }
        op
    }

    /// On-disk size of bucket `i` (excludes any unflushed buffered tail).
    pub fn bucket_bytes(&self, i: usize) -> u64 {
        self.buckets[i].flushed_bytes
    }

    /// Total bytes spilled through this manager so far.
    pub fn total_spilled(&self) -> u64 {
        self.buckets.iter().map(|b| b.flushed_bytes).sum()
    }

    /// Copies every bucket's contents in arrival order (flushed prefix,
    /// then the buffered tail) — the checkpoint counterpart of
    /// [`BucketManager::restore_contents`].
    pub fn export_contents(&self) -> Vec<Vec<Pair>> {
        self.buckets
            .iter()
            .map(|b| {
                let total: usize = b.flushed.iter().map(Vec::len).sum();
                let mut v = Vec::with_capacity(total + b.buffered.len());
                for seg in &b.flushed {
                    v.extend(seg.iter().cloned());
                }
                v.extend(b.buffered.iter().cloned());
                v
            })
            .collect()
    }

    /// Refills an empty, unsealed manager from exported contents by pushing
    /// each bucket's records back, in order. A bucket flushes only when a
    /// push fills its write buffer, or at seal, and contents are exported
    /// unsealed, so the re-push rebuilds the original's flushed segments,
    /// buffered tail and flush count exactly. The I/O those flushes return
    /// was charged before the export and is not charged again.
    ///
    /// # Panics
    /// Panics if the manager is sealed, already holds data, or the content
    /// count does not match the bucket count.
    pub fn restore_contents(&mut self, contents: Vec<Vec<Pair>>) {
        assert!(!self.sealed, "restore into a sealed manager");
        assert!(
            self.buckets
                .iter()
                .all(|b| b.flush_count == 0 && b.buffered.is_empty()),
            "restore into a non-empty manager"
        );
        assert_eq!(contents.len(), self.buckets.len(), "bucket count mismatch");
        for (i, recs) in contents.into_iter().enumerate() {
            for rec in recs {
                let _ = self.push(i, rec);
            }
        }
    }

    /// Reads bucket `i` back from disk, consuming it: its records as the
    /// segments its flushes wrote, in flush order, so reading them in turn
    /// yields the bucket's arrival order. No segment is empty, so an empty
    /// bucket yields no segments and no I/O. The read is priced as one
    /// request per flush that built the file (flushed segments are
    /// contiguous but a long-lived file interleaves with its `h − 1`
    /// siblings on the platter).
    ///
    /// # Panics
    /// Panics if not sealed.
    pub fn take_segments(&mut self, i: usize) -> (Vec<Vec<Pair>>, IoOp) {
        assert!(self.sealed, "take_segments before seal");
        let b = &mut self.buckets[i];
        let op = IoOp {
            read: std::mem::take(&mut b.flushed_bytes),
            written: 0,
            seeks: std::mem::take(&mut b.flush_count),
        };
        (std::mem::take(&mut b.flushed), op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opa_common::{Key, Value};

    fn tuple(k: u64, state_len: usize) -> Pair {
        Pair::new(Key::from_u64(k), Value::new(vec![0u8; state_len]))
    }

    #[test]
    fn small_pushes_buffer_without_io() {
        let mut m = BucketManager::new(4, 1024);
        for k in 0..5 {
            assert!(m.push((k % 4) as usize, tuple(k, 16)).is_none());
        }
        assert_eq!(m.total_spilled(), 0);
    }

    #[test]
    fn buffer_overflow_flushes_one_request() {
        let mut m = BucketManager::new(2, 100);
        // Each tuple is 8 (key) + 80 (state) + 8 (overhead) = 96 bytes.
        assert!(m.push(0, tuple(1, 80)).is_none());
        let op = m.push(0, tuple(2, 80));
        assert_eq!(op.seeks, 1);
        assert_eq!(op.written, 192);
        assert_eq!(m.bucket_bytes(0), 192);
        assert_eq!(m.bucket_bytes(1), 0);
    }

    #[test]
    fn seal_flushes_residue_and_is_idempotent() {
        let mut m = BucketManager::new(3, 1 << 20);
        let mut expect = 0;
        for k in 0..9 {
            let t = tuple(k, 32);
            expect += t.size();
            let _ = m.push((k % 3) as usize, t);
        }
        let op = m.seal();
        assert_eq!(op.written, expect);
        assert_eq!(op.seeks, 3);
        assert!(m.seal().is_none());
        assert_eq!(m.total_spilled(), expect);
    }

    #[test]
    fn seal_leaves_no_write_buffer_behind() {
        // Bucket 0 flushes twice on its own and once more at seal, bucket 1
        // only at seal, bucket 2 never holds anything.
        let mut m = BucketManager::new(3, 150);
        for k in 0..5 {
            let _ = m.push(0, tuple(k, 80));
        }
        let _ = m.push(1, tuple(9, 80));
        assert!(m.buckets[0].buffered.capacity() > 0, "refilled mid-run");
        let _ = m.seal();
        for b in &m.buckets {
            assert_eq!(b.buffered.capacity(), 0, "sealing allocated a dead buffer");
        }
        let (segments, op) = m.take_segments(0);
        let keys: Vec<u64> = segments
            .iter()
            .flatten()
            .map(|r| r.key.as_u64().unwrap())
            .collect();
        assert_eq!(keys, (0..5).collect::<Vec<_>>());
        assert_eq!((op.read, op.seeks), (5 * 96, 3));
        let (segments, op) = m.take_segments(1);
        assert_eq!(segments.concat().len(), 1);
        assert_eq!((op.read, op.seeks), (96, 1));
        assert!(m.take_segments(2).1.is_none());
    }

    #[test]
    fn take_segments_returns_all_records_in_order() {
        // Bucket 0 flushes several times, bucket 1 only at seal, bucket 2
        // never holds anything.
        let mut m = BucketManager::new(3, 150);
        for k in 0..11 {
            let _ = m.push(0, tuple(k, 24 + 20 * (k as usize % 4)));
        }
        let _ = m.push(1, tuple(99, 8));
        let _ = m.seal();
        let taken: Vec<_> = (0..3).map(|i| m.take_segments(i)).collect();
        for (i, (segments, op)) in taken.iter().enumerate() {
            assert!(segments.iter().all(|seg| !seg.is_empty()), "bucket {i}");
            assert_eq!(
                segments.len() as u64,
                op.seeks,
                "bucket {i}: one segment per flush"
            );
            let bytes: u64 = segments.iter().flatten().map(Pair::size).sum();
            assert_eq!(bytes, op.read, "bucket {i}");
        }
        let keys: Vec<u64> = taken[0]
            .0
            .iter()
            .flatten()
            .map(|r| r.key.as_u64().unwrap())
            .collect();
        assert_eq!(keys, (0..11).collect::<Vec<_>>());
        assert!(taken[0].1.seeks > 1, "bucket 0 flushed more than once");
        assert!(taken[2].0.is_empty() && taken[2].1.is_none());
        // Consumed: a second take is empty and free.
        let (again, op) = m.take_segments(0);
        assert!(again.is_empty() && op.is_none());
    }

    #[test]
    fn read_seeks_match_flush_count() {
        let mut m = BucketManager::new(1, 100);
        let mut flushes = 0;
        for k in 0..20 {
            if m.push(0, tuple(k, 80)).seeks > 0 {
                flushes += 1;
            }
        }
        let sop = m.seal();
        flushes += sop.seeks;
        let (_segments, rop) = m.take_segments(0);
        assert_eq!(rop.seeks, flushes);
    }

    #[test]
    fn restore_rebuilds_the_exported_flush_pattern() {
        // Bucket 0 has flushed twice and buffers one row; bucket 1 only
        // buffers; bucket 2 is empty.
        let mut m = BucketManager::new(3, 150);
        for k in 0..5 {
            let _ = m.push(0, tuple(k, 80));
        }
        let _ = m.push(1, tuple(9, 80));
        let mut restored = BucketManager::new(3, 150);
        restored.restore_contents(m.export_contents());
        for (a, b) in m.buckets.iter().zip(&restored.buckets) {
            assert_eq!(
                (&a.flushed, a.flushed_bytes, a.flush_count),
                (&b.flushed, b.flushed_bytes, b.flush_count)
            );
            assert_eq!(
                (&a.buffered, a.buffered_bytes),
                (&b.buffered, b.buffered_bytes)
            );
        }
        // The buffered rows pay their spill write at seal, as the
        // original's would.
        assert_eq!(restored.seal(), m.seal());
        assert_eq!(restored.take_segments(0), m.take_segments(0));
    }

    #[test]
    #[should_panic(expected = "push after seal")]
    fn push_after_seal_panics() {
        let mut m = BucketManager::new(1, 10);
        let _ = m.seal();
        let _ = m.push(0, tuple(0, 1));
    }

    #[test]
    #[should_panic(expected = "take_segments before seal")]
    fn take_segments_before_seal_panics() {
        let mut m = BucketManager::new(1, 10);
        let _ = m.take_segments(0);
    }
}
