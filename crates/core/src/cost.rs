//! The engine's cost model: what a unit of work costs in virtual seconds.
//!
//! OPA runs the paper's experiments at 1/1024 of the published data scale
//! (256 GB → 256 MB) while keeping the virtual clock at 1:1 with the
//! paper's seconds. Every *data-proportional* constant is therefore
//! multiplied by the scale factor (a byte of simulated 80 MB/s disk takes
//! 1024× longer; a record's CPU cost is 1024× a real record's), while
//! *count-proportional* constants (seek time, task startup) stay unscaled —
//! file counts, task counts and spill counts are all ratios of
//! data-to-buffer sizes and thus scale-invariant. See DESIGN.md §2.
//!
//! CPU constants were calibrated so the per-node CPU times of Table 3
//! land near the paper's: the map-side sort burden (`c_cmp`) makes
//! sort-merge map CPU ≈ 1.6× hash map CPU, and the reduce-side constants
//! order SM ≈ MR-hash > INC-hash.

use opa_common::units::{SimDuration, MB};
use opa_simio::{DiskProfile, IoOp};

/// All virtual-time constants used by the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Data scale factor relative to the paper (1024 = run MBs, report as
    /// if GBs). Only recorded for reporting; the constants below are
    /// already scaled.
    pub scale: f64,
    /// Device serving job input/output (HDFS traffic).
    pub hdfs_disk: DiskProfile,
    /// Device serving intermediate data (spills, buckets). Point this at
    /// an SSD profile for the Fig 2(d) experiment.
    pub spill_disk: DiskProfile,
    /// Seconds per byte of shuffle transfer.
    pub net_secs_per_byte: f64,
    /// Seconds to start a map task (`c_start`, paper: 100 ms).
    pub c_start: f64,
    /// CPU seconds per record through the map function.
    pub c_map_rec: f64,
    /// CPU seconds per value through the reduce function.
    pub c_reduce_rec: f64,
    /// CPU seconds per sort/merge comparison.
    pub c_cmp: f64,
    /// CPU seconds per hash-table operation.
    pub c_hash: f64,
    /// CPU seconds per combine (`cb`) call.
    pub c_cb: f64,
    /// CPU seconds per `init()` call.
    pub c_init: f64,
}

impl CostModel {
    /// The paper-calibrated model at 1/1024 data scale.
    pub fn paper_scaled() -> Self {
        CostModel::paper_scaled_at(1024.0)
    }

    /// The paper-calibrated model at an arbitrary data-scale denominator.
    /// Data-proportional constants (disk/network per byte, per-record CPU)
    /// are multiplied by `scale / 1024` relative to the calibrated 1/1024
    /// baseline; count-proportional ones (seeks, startup) stay as
    /// published.
    pub fn paper_scaled_at(scale: f64) -> Self {
        let f = scale / 1024.0;
        CostModel {
            scale,
            hdfs_disk: scaled_disk(DiskProfile::hdd(), scale),
            spill_disk: scaled_disk(DiskProfile::hdd(), scale),
            net_secs_per_byte: scale / (100.0 * MB as f64),
            c_start: 0.1,
            c_map_rec: 1.5e-3 * f,
            c_reduce_rec: 2.0e-3 * f,
            c_cmp: 2.5e-4 * f,
            c_hash: 4.0e-4 * f,
            c_cb: 1.2e-3 * f,
            c_init: 4.0e-4 * f,
        }
    }

    /// The paper-calibrated model with intermediate data on SSD
    /// (Fig 2(d): "all the intermediate data was passed to a fast SSD").
    pub fn paper_scaled_ssd_spill() -> Self {
        CostModel {
            spill_disk: scaled_disk(DiskProfile::ssd(), 1024.0),
            ..CostModel::paper_scaled()
        }
    }

    /// A free cost model: every operation takes zero virtual time. Used by
    /// correctness tests that only care about data flow.
    pub fn free() -> Self {
        CostModel {
            scale: 1.0,
            hdfs_disk: DiskProfile::instant(),
            spill_disk: DiskProfile::instant(),
            net_secs_per_byte: 0.0,
            c_start: 0.0,
            c_map_rec: 0.0,
            c_reduce_rec: 0.0,
            c_cmp: 0.0,
            c_hash: 0.0,
            c_cb: 0.0,
            c_init: 0.0,
        }
    }

    /// CPU time to sort `n` records by comparison (`n·log2(n)` compares).
    pub fn sort_time(&self, n: u64) -> SimDuration {
        if n < 2 {
            return SimDuration::ZERO;
        }
        let cmps = n as f64 * (n as f64).log2();
        SimDuration::from_secs_f64(self.c_cmp * cmps)
    }

    /// CPU time to merge `n` records from `fan_in` sorted runs
    /// (`n·log2(fan_in)` compares through a tournament heap).
    pub fn merge_time(&self, n: u64, fan_in: usize) -> SimDuration {
        if n == 0 || fan_in < 2 {
            return SimDuration::ZERO;
        }
        let cmps = n as f64 * (fan_in as f64).log2().max(1.0);
        SimDuration::from_secs_f64(self.c_cmp * cmps)
    }

    /// CPU time for `n` map-function invocations.
    pub fn map_time(&self, n: u64) -> SimDuration {
        SimDuration::from_secs_f64(self.c_map_rec * n as f64)
    }

    /// CPU time for `n` values fed through the reduce function.
    pub fn reduce_time(&self, n: u64) -> SimDuration {
        SimDuration::from_secs_f64(self.c_reduce_rec * n as f64)
    }

    /// CPU time for `n` hash-table operations.
    pub fn hash_time(&self, n: u64) -> SimDuration {
        SimDuration::from_secs_f64(self.c_hash * n as f64)
    }

    /// CPU time for `n` combine calls.
    pub fn cb_time(&self, n: u64) -> SimDuration {
        SimDuration::from_secs_f64(self.c_cb * n as f64)
    }

    /// CPU time for `n` init calls.
    pub fn init_time(&self, n: u64) -> SimDuration {
        SimDuration::from_secs_f64(self.c_init * n as f64)
    }

    /// Network time to ship `bytes` from a mapper to a reducer.
    pub fn net_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(self.net_secs_per_byte * bytes as f64)
    }

    /// Time for an I/O operation on the HDFS device.
    pub fn hdfs_time(&self, op: IoOp) -> SimDuration {
        self.hdfs_disk.time_for(op)
    }

    /// Time for an I/O operation on the intermediate-data device.
    pub fn spill_time(&self, op: IoOp) -> SimDuration {
        self.spill_disk.time_for(op)
    }
}

/// Scales a device's per-byte cost by the data scale factor; seek time is
/// count-proportional and stays unscaled.
fn scaled_disk(base: DiskProfile, scale: f64) -> DiskProfile {
    DiskProfile {
        secs_per_byte: base.secs_per_byte * scale,
        secs_per_seek: base.secs_per_seek,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opa_common::units::KB;

    #[test]
    fn scaled_disk_keeps_seek_time() {
        let m = CostModel::paper_scaled();
        assert_eq!(m.hdfs_disk.secs_per_seek, 0.004);
        // 64 KB at scaled 80 MB/s should take what 64 MB takes unscaled:
        // 0.8 s (+ 1 seek).
        let t = m.hdfs_time(IoOp::read(64 * KB));
        assert!((t.as_secs_f64() - 0.804).abs() < 0.01, "{t}");
    }

    #[test]
    fn sort_costs_superlinear() {
        let m = CostModel::paper_scaled();
        let t1 = m.sort_time(1000).as_secs_f64();
        let t2 = m.sort_time(2000).as_secs_f64();
        assert!(t2 > 2.0 * t1, "sort should be superlinear: {t1} vs {t2}");
        assert_eq!(m.sort_time(1), SimDuration::ZERO);
    }

    #[test]
    fn merge_scales_with_fan_in_log() {
        let m = CostModel::paper_scaled();
        let narrow = m.merge_time(10_000, 2).as_secs_f64();
        let wide = m.merge_time(10_000, 16).as_secs_f64();
        assert!((wide / narrow - 4.0).abs() < 0.01, "log2(16)/log2(2) = 4");
        assert_eq!(m.merge_time(0, 8), SimDuration::ZERO);
        assert_eq!(m.merge_time(100, 1), SimDuration::ZERO);
    }

    #[test]
    fn hash_cheaper_than_sort_per_record() {
        // The paper's core claim: eliminating the sort shrinks map CPU.
        let m = CostModel::paper_scaled();
        let n = 640u64; // records in a 64 KB chunk
        let sort = m.sort_time(n).as_secs_f64();
        let hash = m.hash_time(n).as_secs_f64();
        assert!(
            hash < sort / 2.0,
            "hash ({hash}) should be far cheaper than sort ({sort})"
        );
    }

    #[test]
    fn ssd_variant_speeds_spills_only() {
        let hdd = CostModel::paper_scaled();
        let ssd = CostModel::paper_scaled_ssd_spill();
        let op = IoOp::write(100 * KB);
        assert!(ssd.spill_time(op) < hdd.spill_time(op));
        assert_eq!(ssd.hdfs_time(op), hdd.hdfs_time(op));
    }

    #[test]
    fn arbitrary_scale_interpolates_the_baseline() {
        let base = CostModel::paper_scaled();
        let same = CostModel::paper_scaled_at(1024.0);
        assert_eq!(base, same);
        // Half the scale denominator → data-proportional costs halve.
        let half = CostModel::paper_scaled_at(512.0);
        assert!((half.c_map_rec - base.c_map_rec / 2.0).abs() < 1e-12);
        assert!((half.hdfs_disk.secs_per_byte - base.hdfs_disk.secs_per_byte / 2.0).abs() < 1e-15);
        // Count-proportional constants stay put.
        assert_eq!(half.c_start, base.c_start);
        assert_eq!(half.hdfs_disk.secs_per_seek, base.hdfs_disk.secs_per_seek);
    }

    #[test]
    fn free_model_is_all_zero() {
        let m = CostModel::free();
        assert_eq!(m.sort_time(1 << 20), SimDuration::ZERO);
        assert_eq!(m.map_time(1 << 20), SimDuration::ZERO);
        assert_eq!(m.hdfs_time(IoOp::read(1 << 30)), SimDuration::ZERO);
        assert_eq!(m.net_time(1 << 30), SimDuration::ZERO);
    }
}
