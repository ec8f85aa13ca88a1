//! Parameter optimization per §3.2 of the paper.
//!
//! Two closed-form recommendations plus a grid search:
//!
//! 1. **Chunk size** — the best `C` is the maximum that keeps the map
//!    output in the sort buffer: `C·K_m ≤ B_m` ([`recommended_chunk`]).
//! 2. **Merge factor** — raising `F` to the number of initial sorted runs
//!    at a reducer gives a single-pass merge, past which nothing improves
//!    ([`recommended_merge_factor`]).
//! 3. **Grid search** — [`Optimizer::grid_search`] evaluates Eq. 4 over a
//!    `(C, F)` grid (the Fig. 4(a) surface) and returns the minimizer.
//!
//! For `R` the paper recommends keeping `R` at the number of reduce slots:
//! a second wave of reducers must re-read map output from disk
//! ([`Recommendation::reducers_per_node`] just echoes the slot count).

use crate::io_model::ModelInput;
use crate::time_model::CostConstants;
use opa_common::{HardwareSpec, SystemSettings, WorkloadSpec};

/// The largest chunk size whose map output still fits the map buffer:
/// `max C s.t. C·K_m ≤ B_m`.
pub fn recommended_chunk(km: f64, map_buffer: u64) -> u64 {
    assert!(km > 0.0 && km.is_finite(), "K_m must be positive");
    (map_buffer as f64 / km).floor() as u64
}

/// The smallest merge factor giving a one-pass merge: the number of initial
/// sorted runs a reducer accumulates, `⌈β⌉` (at least 2).
pub fn recommended_merge_factor(
    workload: &WorkloadSpec,
    hardware: &HardwareSpec,
    r: usize,
) -> usize {
    let beta = workload.input_size as f64 * workload.km
        / (hardware.nodes as f64 * r as f64 * hardware.reduce_buffer as f64);
    (beta.ceil() as usize).max(2)
}

/// One evaluated grid point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// Chunk size `C` (bytes).
    pub chunk_size: u64,
    /// Merge factor `F`.
    pub merge_factor: usize,
    /// Modeled time `T` (seconds, Eq. 4).
    pub modeled_time: f64,
}

/// Result of a full optimization.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// Chosen chunk size.
    pub chunk_size: u64,
    /// Chosen merge factor.
    pub merge_factor: usize,
    /// Reducers per node (= reduce slots; see §3.2(3)).
    pub reducers_per_node: usize,
    /// Modeled time at the chosen point.
    pub modeled_time: f64,
}

/// Grid-search optimizer over `(C, F)`.
#[derive(Debug, Clone)]
pub struct Optimizer {
    workload: WorkloadSpec,
    hardware: HardwareSpec,
    constants: CostConstants,
}

impl Optimizer {
    /// Creates an optimizer for a workload on given hardware.
    pub fn new(workload: WorkloadSpec, hardware: HardwareSpec, constants: CostConstants) -> Self {
        Optimizer {
            workload,
            hardware,
            constants,
        }
    }

    /// Evaluates Eq. 4 at one `(C, F)` point.
    pub fn evaluate(
        &self,
        chunk_size: u64,
        merge_factor: usize,
        r: usize,
    ) -> opa_common::Result<GridPoint> {
        let input = ModelInput::new(
            SystemSettings {
                reducers_per_node: r,
                chunk_size,
                merge_factor,
            },
            self.workload,
            self.hardware,
        )?;
        Ok(GridPoint {
            chunk_size,
            merge_factor,
            modeled_time: input.time_measurement(&self.constants).total(),
        })
    }

    /// Evaluates the full grid (the Fig. 4(a) surface) and returns every
    /// point, row-major in `chunks × factors` order.
    pub fn grid_search(
        &self,
        chunks: &[u64],
        factors: &[usize],
        r: usize,
    ) -> opa_common::Result<Vec<GridPoint>> {
        let mut out = Vec::with_capacity(chunks.len() * factors.len());
        for &c in chunks {
            for &f in factors {
                out.push(self.evaluate(c, f, r)?);
            }
        }
        Ok(out)
    }

    /// Runs the complete §3.2 recipe: closed-form chunk recommendation,
    /// one-pass merge factor, `R` = reduce slots, refined by a local grid
    /// search around the closed-form point.
    pub fn optimize(&self) -> opa_common::Result<Recommendation> {
        let r = self.hardware.reduce_slots;
        let c_star = recommended_chunk(self.workload.km, self.hardware.map_buffer);
        let f_star = recommended_merge_factor(&self.workload, &self.hardware, r);

        // Candidate chunks: fractions and small multiples of the
        // closed-form optimum; candidate factors: around one-pass.
        let chunks: Vec<u64> = [c_star / 4, c_star / 2, c_star, c_star * 2, c_star * 4]
            .into_iter()
            .filter(|&c| c > 0)
            .collect();
        let factors: Vec<usize> = [2, f_star / 2, f_star, f_star * 2]
            .into_iter()
            .filter(|&f| f >= 2)
            .collect();

        let grid = self.grid_search(&chunks, &factors, r)?;
        let best = grid
            .iter()
            .min_by(|a, b| a.modeled_time.partial_cmp(&b.modeled_time).expect("finite"))
            .expect("grid is non-empty");
        Ok(Recommendation {
            chunk_size: best.chunk_size,
            merge_factor: best.merge_factor,
            reducers_per_node: r,
            modeled_time: best.modeled_time,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opa_common::units::{GB, MB};

    fn paper_hw() -> HardwareSpec {
        HardwareSpec {
            nodes: 10,
            map_buffer: 140 * MB,
            reduce_buffer: 260 * MB,
            map_slots: 4,
            reduce_slots: 4,
        }
    }

    #[test]
    fn chunk_recommendation_fills_buffer() {
        assert_eq!(recommended_chunk(1.0, 140 * MB), 140 * MB);
        assert_eq!(recommended_chunk(2.0, 140 * MB), 70 * MB);
        assert_eq!(recommended_chunk(0.5, 100 * MB), 200 * MB);
    }

    #[test]
    fn merge_factor_is_one_pass() {
        // β ≈ 9.55 for the paper's 97 GB setup → F = 10.
        let w = WorkloadSpec::new(97 * GB, 1.0, 1.0);
        assert_eq!(recommended_merge_factor(&w, &paper_hw(), 4), 10);
        // Tiny workload: floor of 2.
        let tiny = WorkloadSpec::new(MB, 1.0, 1.0);
        assert_eq!(recommended_merge_factor(&tiny, &paper_hw(), 4), 2);
    }

    #[test]
    fn optimize_beats_stock_settings() {
        let w = WorkloadSpec::new(97 * GB, 1.0, 1.0);
        let opt = Optimizer::new(w, paper_hw(), CostConstants::default());
        let rec = opt.optimize().unwrap();
        let stock = opt.evaluate(64 * MB, 10, 4).unwrap();
        assert!(
            rec.modeled_time <= stock.modeled_time,
            "optimizer ({:.0}s) worse than stock ({:.0}s)",
            rec.modeled_time,
            stock.modeled_time
        );
        assert_eq!(rec.reducers_per_node, 4);
    }

    #[test]
    fn grid_is_row_major_and_complete() {
        let w = WorkloadSpec::new(GB, 1.0, 1.0);
        let opt = Optimizer::new(w, paper_hw(), CostConstants::default());
        let grid = opt
            .grid_search(&[32 * MB, 64 * MB], &[4, 8, 16], 4)
            .unwrap();
        assert_eq!(grid.len(), 6);
        assert_eq!(grid[0].chunk_size, 32 * MB);
        assert_eq!(grid[0].merge_factor, 4);
        assert_eq!(grid[5].chunk_size, 64 * MB);
        assert_eq!(grid[5].merge_factor, 16);
    }

    #[test]
    fn evaluate_propagates_invalid_config() {
        let w = WorkloadSpec::new(GB, 1.0, 1.0);
        let opt = Optimizer::new(w, paper_hw(), CostConstants::default());
        assert!(opt.evaluate(64 * MB, 1, 4).is_err());
        assert!(opt.evaluate(0, 10, 4).is_err());
    }

    #[test]
    #[should_panic(expected = "K_m must be positive")]
    fn recommended_chunk_rejects_bad_km() {
        let _ = recommended_chunk(0.0, MB);
    }
}
