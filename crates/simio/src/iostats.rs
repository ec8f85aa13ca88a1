//! Five-category I/O accounting.
//!
//! Table 2 of the paper decomposes per-node I/O into `U = U_1 + … + U_5`
//! (map input, map internal spills, map output, reduce internal spills,
//! reduce output) and counts sequential I/O requests `S`. [`IoStats`] keeps
//! exactly that decomposition; every simulated device operation yields an
//! [`IoOp`] that the engine both merges into an [`IoStats`] and prices
//! through a [`crate::DiskProfile`].

use std::fmt;
use std::ops::{Add, AddAssign};

/// The paper's five I/O categories (Table 2, symbol `U_i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoCategory {
    /// `U_1` — reading job input (HDFS).
    MapInput,
    /// `U_2` — map-side internal spills (external sort of map output).
    MapSpill,
    /// `U_3` — writing map output for shuffling.
    MapOutput,
    /// `U_4` — reduce-side internal spills (multi-pass merge or hash
    /// buckets).
    ReduceSpill,
    /// `U_5` — writing job output (HDFS).
    ReduceOutput,
}

impl IoCategory {
    /// All categories in `U_1..U_5` order.
    pub const ALL: [IoCategory; 5] = [
        IoCategory::MapInput,
        IoCategory::MapSpill,
        IoCategory::MapOutput,
        IoCategory::ReduceSpill,
        IoCategory::ReduceOutput,
    ];

    #[inline]
    fn index(self) -> usize {
        match self {
            IoCategory::MapInput => 0,
            IoCategory::MapSpill => 1,
            IoCategory::MapOutput => 2,
            IoCategory::ReduceSpill => 3,
            IoCategory::ReduceOutput => 4,
        }
    }
}

/// One device operation: how many bytes moved and how many discrete I/O
/// requests (seeks) it took. Returned by every spill/bucket/block-store
/// mutation so the caller can charge simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[must_use = "IoOps carry the bytes/seeks the caller must charge time for"]
pub struct IoOp {
    /// Bytes read from the device.
    pub read: u64,
    /// Bytes written to the device.
    pub written: u64,
    /// Number of discrete sequential I/O requests issued.
    pub seeks: u64,
}

impl IoOp {
    /// The no-op (all zeros).
    pub const NONE: IoOp = IoOp {
        read: 0,
        written: 0,
        seeks: 0,
    };

    /// A single sequential write request of `bytes`.
    pub fn write(bytes: u64) -> Self {
        IoOp {
            read: 0,
            written: bytes,
            seeks: if bytes > 0 { 1 } else { 0 },
        }
    }

    /// A single sequential read request of `bytes`.
    pub fn read(bytes: u64) -> Self {
        IoOp {
            read: bytes,
            written: 0,
            seeks: if bytes > 0 { 1 } else { 0 },
        }
    }

    /// Total bytes moved in either direction.
    #[inline]
    pub fn total_bytes(&self) -> u64 {
        self.read + self.written
    }

    /// Whether nothing happened.
    #[inline]
    pub fn is_none(&self) -> bool {
        *self == IoOp::NONE
    }
}

impl Add for IoOp {
    type Output = IoOp;
    fn add(self, rhs: IoOp) -> IoOp {
        IoOp {
            read: self.read + rhs.read,
            written: self.written + rhs.written,
            seeks: self.seeks + rhs.seeks,
        }
    }
}

impl AddAssign for IoOp {
    fn add_assign(&mut self, rhs: IoOp) {
        *self = *self + rhs;
    }
}

/// Aggregated I/O statistics with the paper's five-way decomposition.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IoStats {
    read: [u64; 5],
    written: [u64; 5],
    seeks: u64,
}

impl IoStats {
    /// Fresh, all-zero statistics.
    pub fn new() -> Self {
        IoStats::default()
    }

    /// Records an operation under a category.
    pub fn record(&mut self, cat: IoCategory, op: IoOp) {
        let i = cat.index();
        self.read[i] += op.read;
        self.written[i] += op.written;
        self.seeks += op.seeks;
    }

    /// Bytes read in a category.
    pub fn read_bytes(&self, cat: IoCategory) -> u64 {
        self.read[cat.index()]
    }

    /// Bytes written in a category.
    pub fn written_bytes(&self, cat: IoCategory) -> u64 {
        self.written[cat.index()]
    }

    /// Bytes read + written in a category (`U_i` counts both directions:
    /// each spill file is written once and read once).
    pub fn bytes(&self, cat: IoCategory) -> u64 {
        self.read_bytes(cat) + self.written_bytes(cat)
    }

    /// `U` — total bytes moved across all five categories.
    pub fn total_bytes(&self) -> u64 {
        IoCategory::ALL.iter().map(|&c| self.bytes(c)).sum()
    }

    /// `S` — total number of I/O requests.
    pub fn total_seeks(&self) -> u64 {
        self.seeks
    }

    /// Merges another stats block into this one (e.g. per-task → per-job).
    pub fn merge(&mut self, other: &IoStats) {
        for i in 0..5 {
            self.read[i] += other.read[i];
            self.written[i] += other.written[i];
        }
        self.seeks += other.seeks;
    }

    /// Per-field saturating subtraction, used to strip recovery re-replay
    /// traffic back out of a total (`JobMetrics::io_first_pass`).
    pub fn minus(&self, other: &IoStats) -> IoStats {
        let mut out = IoStats::new();
        for i in 0..5 {
            out.read[i] = self.read[i].saturating_sub(other.read[i]);
            out.written[i] = self.written[i].saturating_sub(other.written[i]);
        }
        out.seeks = self.seeks.saturating_sub(other.seeks);
        out
    }
}

/// Spill-byte attribution under frequency-gated admission: the `U_4`
/// (and map-side `U_2`) spill traffic split by *why* each byte went to
/// disk.
///
/// With admission off every spilled byte is a `rejected_arrival` — the
/// classic first-come policy spills whatever fails to fit. With the LFU
/// policy on, some spills are instead `admitted_evict`: a resident cold
/// key's state written out to make room for a hotter newcomer. The split
/// lets the bench/CI sweep verify that total spill bytes drop *because*
/// eviction traffic replaces (rather than adds to) rejection traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillSplit {
    /// Bytes spilled as evicted resident state (victim writes performed
    /// to admit a hotter arriving key).
    pub admitted_evict: u64,
    /// Bytes spilled as rejected arrivals (tuples denied admission, or
    /// all spills when the policy is off).
    pub rejected_arrival: u64,
}

impl SpillSplit {
    /// All-zero split.
    pub fn new() -> Self {
        SpillSplit::default()
    }

    /// Total spill bytes across both attributions.
    pub fn total(&self) -> u64 {
        self.admitted_evict + self.rejected_arrival
    }

    /// Merges another split into this one (per-task → per-job).
    pub fn merge(&mut self, other: &SpillSplit) {
        self.admitted_evict += other.admitted_evict;
        self.rejected_arrival += other.rejected_arrival;
    }
}

impl fmt::Display for SpillSplit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use opa_common::units::ByteSize;
        write!(
            f,
            "spill split: {} evicted-resident + {} rejected-arrival",
            ByteSize(self.admitted_evict),
            ByteSize(self.rejected_arrival)
        )
    }
}

impl fmt::Display for IoStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use opa_common::units::ByteSize;
        writeln!(f, "I/O by category (read + written):")?;
        for (label, cat) in [
            ("U1 map input    ", IoCategory::MapInput),
            ("U2 map spill    ", IoCategory::MapSpill),
            ("U3 map output   ", IoCategory::MapOutput),
            ("U4 reduce spill ", IoCategory::ReduceSpill),
            ("U5 reduce output", IoCategory::ReduceOutput),
        ] {
            writeln!(f, "  {label} {}", ByteSize(self.bytes(cat)))?;
        }
        write!(
            f,
            "  total {} in {} requests",
            ByteSize(self.total_bytes()),
            self.seeks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_per_category() {
        let mut s = IoStats::new();
        s.record(IoCategory::MapSpill, IoOp::write(100));
        s.record(IoCategory::MapSpill, IoOp::read(100));
        s.record(IoCategory::ReduceSpill, IoOp::write(40));
        assert_eq!(s.bytes(IoCategory::MapSpill), 200);
        assert_eq!(s.written_bytes(IoCategory::ReduceSpill), 40);
        assert_eq!(s.read_bytes(IoCategory::ReduceSpill), 0);
        assert_eq!(s.total_bytes(), 240);
        assert_eq!(s.total_seeks(), 3);
    }

    #[test]
    fn zero_byte_ops_cost_no_seek() {
        assert_eq!(IoOp::write(0), IoOp::NONE);
        assert_eq!(IoOp::read(0).seeks, 0);
        assert!(IoOp::NONE.is_none());
    }

    #[test]
    fn ops_add() {
        let op = IoOp::write(10) + IoOp::read(5) + IoOp::write(1);
        assert_eq!(op.read, 5);
        assert_eq!(op.written, 11);
        assert_eq!(op.seeks, 3);
        assert_eq!(op.total_bytes(), 16);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = IoStats::new();
        a.record(IoCategory::MapInput, IoOp::read(7));
        let mut b = IoStats::new();
        b.record(IoCategory::MapInput, IoOp::read(3));
        b.record(IoCategory::ReduceOutput, IoOp::write(9));
        a.merge(&b);
        assert_eq!(a.bytes(IoCategory::MapInput), 10);
        assert_eq!(a.bytes(IoCategory::ReduceOutput), 9);
        assert_eq!(a.total_seeks(), 3);
    }

    #[test]
    fn display_mentions_all_categories() {
        let s = IoStats::new();
        let out = s.to_string();
        for label in ["U1", "U2", "U3", "U4", "U5", "total"] {
            assert!(out.contains(label), "missing {label} in {out}");
        }
    }
}
