//! Cluster configuration: nodes, slots, buffers, and the framework choice.

use crate::cost::CostModel;
use opa_common::units::KB;
use opa_common::{Error, HardwareSpec, Result, SystemSettings};

/// Which group-by framework the reduce side runs (and, for the hash
/// variants, how the map side collects output). See the crate docs for the
/// paper sections each one reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Framework {
    /// Hadoop's sort-merge baseline ("1-pass SM" when tuned via the model).
    SortMerge,
    /// Sort-merge with MapReduce-Online-style pipelining of sorted
    /// granules from unfinished mappers.
    SortMergePipelined,
    /// The basic hash technique of §4.1 (hybrid hash, full value lists).
    MrHash,
    /// The incremental hash technique of §4.2 (`init/cb/fn`).
    IncHash,
    /// The dynamic incremental hash technique of §4.3 (FREQUENT-monitored
    /// hot keys).
    DincHash,
}

impl Framework {
    /// All frameworks, in paper order.
    pub const ALL: [Framework; 5] = [
        Framework::SortMerge,
        Framework::SortMergePipelined,
        Framework::MrHash,
        Framework::IncHash,
        Framework::DincHash,
    ];

    /// Whether this framework flows key-*state* pairs (incremental) rather
    /// than key-value pairs.
    pub fn is_incremental(self) -> bool {
        matches!(self, Framework::IncHash | Framework::DincHash)
    }

    /// Short label used in reports ("1-pass SM", "MR-hash", …).
    pub fn label(self) -> &'static str {
        match self {
            Framework::SortMerge => "SM",
            Framework::SortMergePipelined => "SM-pipe",
            Framework::MrHash => "MR-hash",
            Framework::IncHash => "INC-hash",
            Framework::DincHash => "DINC-hash",
        }
    }
}

/// Full description of the simulated cluster a job runs on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// `N`, `B_m`, `B_r`, slot counts.
    pub hardware: HardwareSpec,
    /// `R`, `C`, `F`.
    pub system: SystemSettings,
    /// Virtual-time constants.
    pub cost: CostModel,
    /// Per-bucket write-buffer size for the hash frameworks (the `p` pages
    /// of the paper's footnote 5).
    pub bucket_write_buffer: u64,
    /// Granules each mapper pushes early under
    /// [`Framework::SortMergePipelined`] (ignored otherwise).
    pub pipeline_granules: usize,
    /// Seed for the engine's universal hash family (`h1, h2, h3, …`).
    pub hash_seed: u64,
    /// Byte budget of the per-node pre-shuffle staging table used under
    /// `CombineScope::Node`: once a node's staged (post-combine) bytes
    /// exceed this, the table flushes early instead of waiting for the
    /// node's last map task. Ignored under the other combine scopes.
    pub node_combine_buffer: u64,
}

impl ClusterSpec {
    /// The paper's 10-node cluster at 1/1024 scale with stock Hadoop
    /// settings (C=64 KB, F=10, R=4).
    pub fn paper_scaled() -> Self {
        ClusterSpec::paper_scaled_at(1024)
    }

    /// The paper's cluster at an arbitrary data-scale denominator: buffer
    /// sizes, chunk size and the cost model all scale together so every
    /// ratio the experiments depend on is preserved.
    pub fn paper_scaled_at(scale: u64) -> Self {
        let full = HardwareSpec::paper_cluster_full();
        let div = |b: u64| (b / scale).max(1);
        ClusterSpec {
            hardware: HardwareSpec {
                map_buffer: div(full.map_buffer),
                reduce_buffer: div(full.reduce_buffer),
                ..full
            },
            system: SystemSettings {
                reducers_per_node: 4,
                chunk_size: div(64 * 1024 * KB),
                merge_factor: 10,
            },
            cost: CostModel::paper_scaled_at(scale as f64),
            bucket_write_buffer: div(8 * 1024 * KB),
            pipeline_granules: 4,
            hash_seed: 0x09A5_EED5,
            node_combine_buffer: div(8 * 1024 * KB),
        }
    }

    /// A 2-node cluster with small buffers and a free cost model — fast,
    /// deterministic, and spill-happy. The workhorse of correctness tests.
    pub fn tiny() -> Self {
        ClusterSpec {
            hardware: HardwareSpec {
                nodes: 2,
                map_buffer: 8 * KB,
                reduce_buffer: 16 * KB,
                map_slots: 2,
                reduce_slots: 2,
            },
            system: SystemSettings {
                reducers_per_node: 2,
                chunk_size: 4 * KB,
                merge_factor: 3,
            },
            cost: CostModel::free(),
            bucket_write_buffer: KB,
            pipeline_granules: 2,
            hash_seed: 7,
            node_combine_buffer: 4 * KB,
        }
    }

    /// Validates the spec.
    pub fn validate(&self) -> Result<()> {
        self.hardware.validate()?;
        self.system.validate()?;
        if self.bucket_write_buffer == 0 {
            return Err(Error::config("bucket write buffer must be positive"));
        }
        if self.pipeline_granules == 0 {
            return Err(Error::config("pipeline granules must be >= 1"));
        }
        if self.node_combine_buffer == 0 {
            return Err(Error::config("node combine buffer must be positive"));
        }
        if self.bucket_write_buffer * 2 > self.hardware.reduce_buffer {
            return Err(Error::config(
                "bucket write buffer must leave room in the reduce buffer",
            ));
        }
        Ok(())
    }

    /// Total reducers in the cluster (`N · R`).
    pub fn total_reducers(&self) -> usize {
        self.hardware.nodes * self.system.reducers_per_node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        assert!(ClusterSpec::paper_scaled().validate().is_ok());
        assert!(ClusterSpec::tiny().validate().is_ok());
    }

    #[test]
    fn paper_cluster_counts() {
        let c = ClusterSpec::paper_scaled();
        assert_eq!(c.total_reducers(), 40);
        assert_eq!(c.hardware.nodes, 10);
    }

    #[test]
    fn oversized_write_buffer_rejected() {
        let mut c = ClusterSpec::tiny();
        c.bucket_write_buffer = c.hardware.reduce_buffer;
        assert!(c.validate().is_err());
    }

    #[test]
    fn framework_labels_distinct() {
        let labels: std::collections::HashSet<_> =
            Framework::ALL.iter().map(|f| f.label()).collect();
        assert_eq!(labels.len(), Framework::ALL.len());
    }

    #[test]
    fn incremental_flag() {
        assert!(Framework::IncHash.is_incremental());
        assert!(Framework::DincHash.is_incremental());
        assert!(!Framework::SortMerge.is_incremental());
        assert!(!Framework::MrHash.is_incremental());
    }
}
