//! Device cost profiles.
//!
//! The paper's model (§3.1, item 4) prices I/O as
//! `T = c_byte · U + c_seek · S`, with sequential access at 80 MB/s and
//! 4 ms per seek on their Western Digital RE3 disks. [`DiskProfile`]
//! captures those two constants per device; the Fig 2(d) experiment swaps
//! the intermediate-data device for an SSD profile.

use crate::iostats::IoOp;
use opa_common::units::{SimDuration, MB};

/// Cost profile of one storage device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskProfile {
    /// Seconds per byte of sequential transfer (`c_byte`).
    pub secs_per_byte: f64,
    /// Seconds per discrete I/O request (`c_seek`).
    pub secs_per_seek: f64,
}

impl DiskProfile {
    /// The paper's HDD: 80 MB/s sequential, 4 ms seek.
    pub fn hdd() -> Self {
        DiskProfile {
            secs_per_byte: 1.0 / (80.0 * MB as f64),
            secs_per_seek: 0.004,
        }
    }

    /// An Intel X25-E-class SSD (the paper's fast intermediate device):
    /// ~250 MB/s sequential, ~0.1 ms access.
    pub fn ssd() -> Self {
        DiskProfile {
            secs_per_byte: 1.0 / (250.0 * MB as f64),
            secs_per_seek: 0.0001,
        }
    }

    /// A free device — useful in unit tests that only care about data flow.
    pub fn instant() -> Self {
        DiskProfile {
            secs_per_byte: 0.0,
            secs_per_seek: 0.0,
        }
    }

    /// Time to serve an operation: `c_byte · bytes + c_seek · seeks`.
    #[inline]
    pub fn time_for(&self, op: IoOp) -> SimDuration {
        SimDuration::from_secs_f64(
            self.secs_per_byte * op.total_bytes() as f64 + self.secs_per_seek * op.seeks as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opa_common::units::GB;

    #[test]
    fn hdd_matches_paper_constants() {
        let d = DiskProfile::hdd();
        // 80 MB at 80 MB/s = 1 s (+1 seek).
        let t = d.time_for(IoOp::write(80 * MB));
        assert!((t.as_secs_f64() - 1.004).abs() < 1e-6, "{t}");
    }

    #[test]
    fn seeks_dominate_small_requests() {
        let d = DiskProfile::hdd();
        let many_small = d.time_for(IoOp {
            read: MB,
            written: 0,
            seeks: 1000,
        });
        let one_big = d.time_for(IoOp::read(MB));
        assert!(many_small.as_secs_f64() > 100.0 * one_big.as_secs_f64());
    }

    #[test]
    fn ssd_faster_than_hdd() {
        let big = IoOp {
            read: GB,
            written: GB,
            seeks: 10_000,
        };
        assert!(DiskProfile::ssd().time_for(big) < DiskProfile::hdd().time_for(big));
    }

    #[test]
    fn instant_is_free() {
        let op = IoOp {
            read: GB,
            written: GB,
            seeks: 1 << 20,
        };
        assert_eq!(DiskProfile::instant().time_for(op), SimDuration::ZERO);
    }
}
