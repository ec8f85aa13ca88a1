//! The combined time measurement of Eq. 4.
//!
//! `T = c_byte·U + c_seek·S + c_start·D/(CN)` — a linear combination of
//! sequential-transfer time, seek time, and map-task startup cost. The
//! paper sets `c_byte` from 80 MB/s sequential disk access, `c_seek` to
//! 4 ms, and `c_start` to 100 ms; those are the defaults here.

use crate::io_model::ModelInput;

/// The three constants of Eq. 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostConstants {
    /// Seconds per byte of sequential I/O (`c_byte`).
    pub c_byte: f64,
    /// Seconds per I/O request (`c_seek`).
    pub c_seek: f64,
    /// Seconds to start one map task (`c_start`).
    pub c_start: f64,
}

impl Default for CostConstants {
    /// The paper's constants: 80 MB/s, 4 ms seek, 100 ms startup.
    fn default() -> Self {
        CostConstants {
            c_byte: 1.0 / (80.0 * 1024.0 * 1024.0),
            c_seek: 0.004,
            c_start: 0.1,
        }
    }
}

impl CostConstants {
    /// Constants matching a data-scaled simulation: the per-byte cost is
    /// multiplied by the scale factor (a scaled byte stands for `scale`
    /// real bytes), while seek and startup costs are count-proportional
    /// and stay as published. Use these when comparing model predictions
    /// against the OPA engine, which runs at 1/1024 of the paper's data
    /// sizes on the same virtual clock.
    pub fn scaled(scale: f64) -> Self {
        CostConstants {
            c_byte: scale / (80.0 * 1024.0 * 1024.0),
            ..CostConstants::default()
        }
    }
}

/// The Eq. 4 measurement, decomposed into its three cost sources.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeBreakdown {
    /// `c_byte · U` — sequential transfer time.
    pub byte_time: f64,
    /// `c_seek · S` — seek time.
    pub seek_time: f64,
    /// `c_start · D/(CN)` — map startup time.
    pub startup_time: f64,
}

impl TimeBreakdown {
    /// `T` in seconds.
    pub fn total(&self) -> f64 {
        self.byte_time + self.seek_time + self.startup_time
    }
}

impl ModelInput {
    /// Evaluates Eq. 4 under the given constants.
    pub fn time_measurement(&self, c: &CostConstants) -> TimeBreakdown {
        TimeBreakdown {
            byte_time: c.c_byte * self.io_bytes().total(),
            seek_time: c.c_seek * self.io_requests(),
            startup_time: c.c_start * self.maps_per_node(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opa_common::units::{GB, MB};
    use opa_common::{HardwareSpec, SystemSettings, WorkloadSpec};

    fn input(chunk: u64, f: usize) -> ModelInput {
        ModelInput::new(
            SystemSettings {
                reducers_per_node: 4,
                chunk_size: chunk,
                merge_factor: f,
            },
            WorkloadSpec::new(97 * GB, 1.0, 1.0),
            HardwareSpec {
                nodes: 10,
                map_buffer: 140 * MB,
                reduce_buffer: 260 * MB,
                map_slots: 4,
                reduce_slots: 4,
            },
        )
        .unwrap()
    }

    #[test]
    fn default_constants_match_paper() {
        let c = CostConstants::default();
        assert!((1.0 / c.c_byte / (1024.0 * 1024.0) - 80.0).abs() < 1e-9);
        assert_eq!(c.c_seek, 0.004);
        assert_eq!(c.c_start, 0.1);
    }

    #[test]
    fn startup_cost_dominates_tiny_chunks() {
        // §3.2(1): when C is very small, map startup dominates.
        let c = CostConstants::default();
        let t = input(MB, 16).time_measurement(&c);
        assert!(
            t.startup_time > t.byte_time * 0.5,
            "startup {:.1}s vs bytes {:.1}s",
            t.startup_time,
            t.byte_time
        );
    }

    #[test]
    fn jump_when_map_output_exceeds_buffer() {
        // §3.2(1): the time cost jumps once C·K_m > B_m.
        let c = CostConstants::default();
        let fits = input(140 * MB, 16).time_measurement(&c).total();
        let spills = input(141 * MB, 16).time_measurement(&c).total();
        assert!(
            spills > fits * 1.2,
            "no jump at buffer boundary: {fits:.0}s → {spills:.0}s"
        );
    }

    #[test]
    fn optimal_region_is_max_chunk_that_fits() {
        // Good performance at the maximum C with C·K_m ≤ B_m.
        let c = CostConstants::default();
        let best = input(140 * MB, 16).time_measurement(&c).total();
        for chunk in [4 * MB, 16 * MB, 512 * MB] {
            let other = input(chunk, 16).time_measurement(&c).total();
            assert!(
                best <= other * 1.001,
                "C=140 MB ({best:.0}s) beaten by C={} ({other:.0}s)",
                chunk / MB
            );
        }
    }

    #[test]
    fn f16_beats_f4_and_one_pass_saturates() {
        // Fig 4(b): time decreases F=4 → F=16, then flattens.
        let c = CostConstants::default();
        let t4 = input(64 * MB, 4).time_measurement(&c).total();
        let t16 = input(64 * MB, 16).time_measurement(&c).total();
        let t64 = input(64 * MB, 64).time_measurement(&c).total();
        assert!(t16 < t4);
        assert!((t64 - t16).abs() / t16 < 0.25, "t16={t16:.0} t64={t64:.0}");
    }

    #[test]
    fn breakdown_total_is_sum() {
        let c = CostConstants::default();
        let t = input(64 * MB, 10).time_measurement(&c);
        assert!((t.total() - (t.byte_time + t.seek_time + t.startup_time)).abs() < 1e-9);
    }
}
