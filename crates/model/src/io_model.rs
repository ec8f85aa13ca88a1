//! Propositions 3.1 and 3.2: per-node I/O bytes and request counts.
//!
//! Proposition 3.1 (Eq. 1) decomposes the bytes a node reads and writes
//! during a Hadoop job into the five `U_i` categories of Table 2:
//!
//! ```text
//! U = D/N · (1 + K_m + K_m·K_r)
//!   + 2D/(CN) · λ_F(C·K_m/B_m, B_m) · 1[C·K_m > B_m]
//!   + 2R · λ_F(D·K_m/(N·R·B_r), B_r)
//! ```
//!
//! Proposition 3.2 (Eq. 3) counts sequential I/O requests, with
//! `α = C·K_m/B_m` and `β = D·K_m/(N·R·B_r)`:
//!
//! ```text
//! S = D/(CN) · (α + 1 + 1[C·K_m > B_m]·(λ_F(α,1)(√F+1)² + α − 1))
//!   + R · (β·K_r·(√F+1) − β·√F + λ_F(β,1)(√F+1)²)
//! ```
//!
//! One published-formula refinement, documented in DESIGN.md: the reduce
//! spill term of Eq. 1 is gated on `β > 1` (reduce input actually exceeding
//! the shuffle buffer), symmetric with the explicit map-side indicator —
//! the paper's evaluation never exercises β ≤ 1 so the formula as printed
//! leaves the gate implicit.

use crate::lambda::lambda_f;
use opa_common::{HardwareSpec, SystemSettings, WorkloadSpec};

/// Everything the model needs: the three Table 2 sections.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelInput {
    /// Part (1): `R`, `C`, `F`.
    pub system: SystemSettings,
    /// Part (2): `D`, `K_m`, `K_r`.
    pub workload: WorkloadSpec,
    /// Part (3): `N`, `B_m`, `B_r`.
    pub hardware: HardwareSpec,
}

impl ModelInput {
    /// Bundles and validates the three sections.
    pub fn new(
        system: SystemSettings,
        workload: WorkloadSpec,
        hardware: HardwareSpec,
    ) -> opa_common::Result<Self> {
        system.validate()?;
        workload.validate()?;
        hardware.validate()?;
        Ok(ModelInput {
            system,
            workload,
            hardware,
        })
    }

    /// `α = C·K_m / B_m` — sorted runs per map task under external sort.
    pub fn alpha(&self) -> f64 {
        self.system.chunk_size as f64 * self.workload.km / self.hardware.map_buffer as f64
    }

    /// `β = D·K_m / (N·R·B_r)` — initial sorted runs per reduce task.
    pub fn beta(&self) -> f64 {
        self.workload.input_size as f64 * self.workload.km
            / (self.hardware.nodes as f64
                * self.system.reducers_per_node as f64
                * self.hardware.reduce_buffer as f64)
    }

    /// Map tasks per node, `D / (C·N)`.
    pub fn maps_per_node(&self) -> f64 {
        self.workload.input_size as f64
            / (self.system.chunk_size as f64 * self.hardware.nodes as f64)
    }

    /// Whether a map task's output exceeds its buffer (`C·K_m > B_m`),
    /// forcing external sort.
    pub fn map_spills(&self) -> bool {
        self.system.chunk_size as f64 * self.workload.km > self.hardware.map_buffer as f64
    }

    /// Proposition 3.1: per-node bytes, decomposed.
    pub fn io_bytes(&self) -> IoBytesBreakdown {
        let d = self.workload.input_size as f64;
        let n = self.hardware.nodes as f64;
        let km = self.workload.km;
        let kr = self.workload.kr;
        let r = self.system.reducers_per_node as f64;
        let f = self.system.merge_factor;

        let u1 = d / n;
        let u3 = d * km / n;
        let u5 = d * km * kr / n;

        let u2 = if self.map_spills() {
            2.0 * self.maps_per_node() * lambda_f(self.alpha(), self.hardware.map_buffer as f64, f)
        } else {
            0.0
        };

        let beta = self.beta();
        let u4 = if beta > 1.0 {
            2.0 * r * lambda_f(beta, self.hardware.reduce_buffer as f64, f)
        } else {
            0.0
        };

        IoBytesBreakdown { u1, u2, u3, u4, u5 }
    }

    /// Proposition 3.2: number of sequential I/O requests per node.
    pub fn io_requests(&self) -> f64 {
        let f = self.system.merge_factor;
        let sqrt_f = (f as f64).sqrt();
        let alpha = self.alpha();
        let beta = self.beta();
        let kr = self.workload.kr;
        let r = self.system.reducers_per_node as f64;

        let map_indicator = if self.map_spills() {
            lambda_f(alpha, 1.0, f) * (sqrt_f + 1.0).powi(2) + alpha - 1.0
        } else {
            0.0
        };
        let map_term = self.maps_per_node() * (alpha + 1.0 + map_indicator);

        let reduce_term = if beta > 1.0 {
            r * (beta * kr * (sqrt_f + 1.0) - beta * sqrt_f
                + lambda_f(beta, 1.0, f) * (sqrt_f + 1.0).powi(2))
        } else {
            // In-memory reduce: one shuffle write-out per output partition
            // plus one read per mapper's partition, dominated by the output
            // term below.
            r * (beta * kr * (sqrt_f + 1.0)).max(1.0)
        };

        (map_term + reduce_term).max(0.0)
    }
}

/// Combiner-ratio model: predicted shuffle bytes under the three combine
/// scopes, as a function of key skew, scope granularity and the node
/// staging budget.
///
/// The underlying quantity is the expected number of distinct keys among
/// `n` i.i.d. draws from a Zipf(`s`) distribution over `keys` ranks
/// (`P(rank k) ∝ 1/(k+1)^s`, matching the workload generators):
/// `E[distinct(n)] = Σ_k 1 − (1 − p_k)^n`. A combining stage over a set
/// of draws ships exactly that set's distinct keys, so the predicted
/// shuffle volume is the expected distinct count at the stage's
/// granularity times the combined pair size:
///
/// - **off** ships every raw pair — `pairs · b`;
/// - **task** combines within each map task —
///   `maps · E[distinct(pairs/maps)] · b`;
/// - **node** combines across all of a node's tasks, flushing its staging
///   table `ν` times (resident post-combine volume over the budget) —
///   `nodes · ν · E[distinct(pairs/(nodes·ν))] · b`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CombineModel {
    /// Raw map-output pairs before any combining (cluster-wide).
    pub pairs: f64,
    /// Serialized bytes of one combined pair (key + value + record
    /// overhead; combining is size-preserving for counter-style values).
    pub pair_bytes: f64,
    /// Distinct keys in the workload's key space.
    pub keys: u64,
    /// Zipf exponent of key popularity (0 = uniform).
    pub zipf: f64,
    /// Map tasks in the job (task-scope combining granularity).
    pub maps: f64,
    /// Simulated nodes (node-scope combining granularity).
    pub nodes: f64,
    /// Node staging-table byte budget (`ClusterSpec::node_combine_buffer`);
    /// exceeding it splits a node's combining into multiple flushes.
    pub stage_budget: f64,
}

impl CombineModel {
    /// Expected distinct keys among `n` i.i.d. Zipf draws:
    /// `Σ_k 1 − (1 − p_k)^n`, computed with `exp(n·ln(1−p))` for
    /// stability at hot ranks.
    pub fn expected_distinct(&self, n: f64) -> f64 {
        if n <= 0.0 {
            return 0.0;
        }
        let ranks = self.keys.max(1);
        let mut h = 0.0;
        for k in 1..=ranks {
            h += 1.0 / (k as f64).powf(self.zipf);
        }
        let mut distinct = 0.0;
        for k in 1..=ranks {
            let p = 1.0 / (k as f64).powf(self.zipf) / h;
            let miss = if p >= 1.0 {
                0.0
            } else {
                (n * (1.0 - p).ln()).exp()
            };
            distinct += 1.0 - miss;
        }
        distinct
    }

    /// Predicted flushes per node under node scope: the resident
    /// post-combine volume of an unbounded node table over the staging
    /// budget, at least one.
    pub fn node_flushes(&self) -> f64 {
        let resident = self.expected_distinct(self.pairs / self.nodes.max(1.0)) * self.pair_bytes;
        if self.stage_budget <= 0.0 {
            return 1.0;
        }
        (resident / self.stage_budget).ceil().max(1.0)
    }

    /// Predicted cluster-wide shuffle bytes for one combine scope.
    pub fn shuffle_bytes(&self, scope: opa_common::CombineScope) -> f64 {
        use opa_common::CombineScope;
        match scope {
            CombineScope::Off => self.pairs * self.pair_bytes,
            CombineScope::Task => {
                let maps = self.maps.max(1.0);
                maps * self.expected_distinct(self.pairs / maps) * self.pair_bytes
            }
            CombineScope::Node => {
                let nodes = self.nodes.max(1.0);
                let nu = self.node_flushes();
                nodes * nu * self.expected_distinct(self.pairs / (nodes * nu)) * self.pair_bytes
            }
        }
    }

    /// Predicted combine ratio (shipped over raw bytes) for one scope.
    pub fn ratio(&self, scope: opa_common::CombineScope) -> f64 {
        let raw = self.pairs * self.pair_bytes;
        if raw <= 0.0 {
            return 1.0;
        }
        self.shuffle_bytes(scope) / raw
    }
}

/// Per-node I/O bytes in the five Table 2 categories.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoBytesBreakdown {
    /// `U_1` — map input.
    pub u1: f64,
    /// `U_2` — map internal spills (external sort).
    pub u2: f64,
    /// `U_3` — map output.
    pub u3: f64,
    /// `U_4` — reduce internal spills (multi-pass merge).
    pub u4: f64,
    /// `U_5` — reduce output.
    pub u5: f64,
}

impl IoBytesBreakdown {
    /// `U = U_1 + … + U_5`.
    pub fn total(&self) -> f64 {
        self.u1 + self.u2 + self.u3 + self.u4 + self.u5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opa_common::units::{GB, MB};

    /// The paper's §3.2 validation setup: D=97 GB, K_m=K_r=1, N=10,
    /// B_m=140 MB, B_r=260 MB, R=4.
    fn paper_setup(chunk: u64, f: usize) -> ModelInput {
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
    fn passthrough_components_match_hand_calculation() {
        let m = paper_setup(64 * MB, 10);
        let b = m.io_bytes();
        let d_per_node = 9.7 * GB as f64;
        assert!((b.u1 - d_per_node).abs() < GB as f64 * 0.01);
        assert!((b.u3 - d_per_node).abs() < GB as f64 * 0.01);
        assert!((b.u5 - d_per_node).abs() < GB as f64 * 0.01);
    }

    #[test]
    fn no_map_spill_when_output_fits_buffer() {
        // 64 MB chunks, K_m = 1 → 64 MB output < 140 MB buffer.
        let m = paper_setup(64 * MB, 10);
        assert!(!m.map_spills());
        assert_eq!(m.io_bytes().u2, 0.0);
    }

    #[test]
    fn map_spill_kicks_in_past_buffer() {
        let m = paper_setup(256 * MB, 10);
        assert!(m.map_spills());
        let b = m.io_bytes();
        assert!(b.u2 > 0.0);
        // Spill cost at least write+read of the overflow runs once.
        assert!(b.u2 >= 2.0 * m.maps_per_node() * m.system.chunk_size as f64 * 0.9);
    }

    #[test]
    fn reduce_spill_always_present_for_big_jobs() {
        // β = 97 GB / (10·4·260 MB) ≈ 9.55 ≫ 1.
        let m = paper_setup(64 * MB, 10);
        assert!(m.beta() > 9.0 && m.beta() < 10.0, "β = {}", m.beta());
        assert!(m.io_bytes().u4 > 0.0);
    }

    #[test]
    fn bigger_merge_factor_reduces_u4() {
        // The Fig 4(b) trend: F 4 → 16 cuts multi-pass-merge bytes.
        let u4_f4 = paper_setup(64 * MB, 4).io_bytes().u4;
        let u4_f16 = paper_setup(64 * MB, 16).io_bytes().u4;
        assert!(
            u4_f16 < u4_f4,
            "U4 did not shrink: F=4 {u4_f4}, F=16 {u4_f16}"
        );
        // Beyond one-pass (F ≥ β) no further gain.
        let u4_f16b = paper_setup(64 * MB, 16).io_bytes().u4;
        let u4_f64 = paper_setup(64 * MB, 64).io_bytes().u4;
        assert!((u4_f64 - u4_f16b).abs() / u4_f16b < 0.35);
    }

    #[test]
    fn requests_grow_when_chunks_shrink() {
        // Small chunks → many map tasks → more requests.
        let small = paper_setup(8 * MB, 10).io_requests();
        let big = paper_setup(64 * MB, 10).io_requests();
        assert!(small > big);
    }

    #[test]
    fn smaller_f_fewer_seeks_more_bytes() {
        // §3.2(2): a small F incurs more I/O bytes but fewer disk seeks.
        let f4 = paper_setup(64 * MB, 4);
        let f16 = paper_setup(64 * MB, 16);
        assert!(f4.io_bytes().total() > f16.io_bytes().total());
        assert!(f4.io_requests() < f16.io_requests());
    }

    #[test]
    fn breakdown_total_sums_components() {
        let b = paper_setup(128 * MB, 8).io_bytes();
        let total = b.u1 + b.u2 + b.u3 + b.u4 + b.u5;
        assert_eq!(b.total(), total);
    }

    #[test]
    fn invalid_input_rejected() {
        let r = ModelInput::new(
            SystemSettings {
                reducers_per_node: 0,
                chunk_size: MB,
                merge_factor: 10,
            },
            WorkloadSpec::new(GB, 1.0, 1.0),
            HardwareSpec::paper_cluster_full(),
        );
        assert!(r.is_err());
    }

    fn combine_setup(zipf: f64, stage_budget: f64) -> CombineModel {
        CombineModel {
            pairs: 100_000.0,
            pair_bytes: 24.0,
            keys: 5_000,
            zipf,
            maps: 50.0,
            nodes: 5.0,
            stage_budget,
        }
    }

    #[test]
    fn combine_scopes_monotone() {
        use opa_common::CombineScope;
        let m = combine_setup(1.0, 1e12);
        let off = m.shuffle_bytes(CombineScope::Off);
        let task = m.shuffle_bytes(CombineScope::Task);
        let node = m.shuffle_bytes(CombineScope::Node);
        assert!(node < task, "node {node} !< task {task}");
        assert!(task < off, "task {task} !< off {off}");
        assert!((off - 100_000.0 * 24.0).abs() < 1e-6);
    }

    #[test]
    fn higher_skew_compresses_more() {
        use opa_common::CombineScope;
        let mild = combine_setup(0.5, 1e12).ratio(CombineScope::Node);
        let hot = combine_setup(1.5, 1e12).ratio(CombineScope::Node);
        assert!(hot < mild, "hot {hot} !< mild {mild}");
        assert!(hot > 0.0 && mild <= 1.0);
    }

    #[test]
    fn tight_budget_means_more_flushes_and_bytes() {
        use opa_common::CombineScope;
        let roomy = combine_setup(1.0, 1e12);
        let tight = combine_setup(1.0, 1024.0);
        assert_eq!(roomy.node_flushes(), 1.0);
        assert!(tight.node_flushes() > roomy.node_flushes());
        assert!(tight.shuffle_bytes(CombineScope::Node) > roomy.shuffle_bytes(CombineScope::Node));
        // Even flushing often, node scope never ships more than off.
        assert!(tight.shuffle_bytes(CombineScope::Node) <= tight.shuffle_bytes(CombineScope::Off));
    }

    #[test]
    fn expected_distinct_sane() {
        let m = combine_setup(0.0, 1e12); // uniform
        assert_eq!(m.expected_distinct(0.0), 0.0);
        // One draw hits exactly one key.
        assert!((m.expected_distinct(1.0) - 1.0).abs() < 1e-9);
        // Many draws approach (and never exceed) the key-space size.
        let huge = m.expected_distinct(1e9);
        assert!(huge <= 5_000.0 + 1e-6);
        assert!(huge > 4_999.0);
        // Monotone in n.
        assert!(m.expected_distinct(10_000.0) > m.expected_distinct(1_000.0));
    }
}
