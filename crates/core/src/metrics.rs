//! Per-job metrics: the rows of the paper's Tables 1, 3 and 4.

use opa_common::units::{ByteSize, SimDuration, SimTime};
use opa_simio::{IoStats, SpillSplit};
use std::fmt;

/// DINC-hash monitor statistics, aggregated over all reducers. `None`
/// for other frameworks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DincStats {
    /// Monitor slot capacity `s` per reducer.
    pub slots_per_reducer: u64,
    /// Total tuples offered to monitors (`M`).
    pub offered: u64,
    /// Tuples rejected (staged to disk with counters decremented).
    pub rejected: u64,
    /// Evictions resolved by direct output (the §6.2 fast path).
    pub evict_output: u64,
    /// Evictions that spilled their state to a bucket.
    pub evict_spilled: u64,
}

/// Frequency-gated admission statistics, aggregated over all reducers.
/// Present in [`JobMetrics`] for the incremental frameworks under either
/// policy (the eviction fields stay zero with admission off, so a test
/// can compare measured γ and spill attribution across policies); `None`
/// for the sort-merge/MR-hash frameworks, which keep no resident state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Tuples offered to reduce-side tables.
    pub offered: u64,
    /// Tuples absorbed into resident in-memory state (combined or
    /// installed without spilling).
    pub absorbed: u64,
    /// Evict-and-admit decisions: a resident cold key's state was spilled
    /// to make room for a hotter arrival.
    pub admitted_evictions: u64,
    /// Arrivals denied admission and spilled to their hash bucket.
    pub rejected: u64,
    /// Byte attribution of the reduce-spill (`U_4`) writes.
    pub spill: SpillSplit,
    /// Keys resident in memory when the reducers finished.
    pub resident_keys: u64,
    /// Total tuples absorbed into the keys that were still resident at
    /// finish — the "resident set's total frequency" a better-than-
    /// first-come policy is supposed to maximize at fixed memory.
    pub resident_frequency: u64,
}

impl AdmissionStats {
    /// Measured coverage γ: the fraction of offered tuples absorbed into
    /// memory. This is the empirical counterpart of the paper's
    /// first-come lower bound `t/(t + M/(s+1))` (§4.3) — the quantity the
    /// admission policy exists to raise.
    pub fn gamma_measured(&self) -> f64 {
        if self.offered == 0 {
            return 1.0;
        }
        self.absorbed as f64 / self.offered as f64
    }

    /// Merges per-reducer stats into a job-wide aggregate.
    pub fn merge(&mut self, other: &AdmissionStats) {
        self.offered += other.offered;
        self.absorbed += other.absorbed;
        self.admitted_evictions += other.admitted_evictions;
        self.rejected += other.rejected;
        self.spill.merge(&other.spill);
        self.resident_keys += other.resident_keys;
        self.resident_frequency += other.resident_frequency;
    }
}

/// In-node combining statistics, aggregated over all nodes. Present in
/// [`JobMetrics`] only when the job ran under `CombineScope::Node` with a
/// combiner (or `init/cb` for the incremental frameworks) to merge with.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeCombineStats {
    /// Pre-combine bytes offered to the node staging tables (what the
    /// shuffle would have carried without node-level combining).
    pub staged_bytes: u64,
    /// Post-combine bytes the flushes actually shipped.
    pub flushed_bytes: u64,
    /// Staging-table flushes (budget-triggered plus per-node finals).
    pub flushes: u64,
    /// Cross-task merges: staged rows folded into an already-resident row.
    pub merged_rows: u64,
}

impl NodeCombineStats {
    /// Combine ratio: shipped bytes over offered bytes (1.0 when nothing
    /// was offered — an empty stage compresses nothing).
    pub fn ratio(&self) -> f64 {
        if self.staged_bytes == 0 {
            return 1.0;
        }
        self.flushed_bytes as f64 / self.staged_bytes as f64
    }
}

/// Everything the paper reports about one job run.
#[derive(Debug, Clone, PartialEq)]
pub struct JobMetrics {
    /// Framework label ("SM", "MR-hash", …).
    pub framework: String,
    /// Job name.
    pub job: String,
    /// Total running time (virtual).
    pub running_time: SimTime,
    /// When the last map task finished.
    pub map_finish: SimTime,
    /// Job input bytes (`D`).
    pub input_bytes: u64,
    /// Total map output = shuffle volume ("Map output / Shuffle" rows).
    pub map_output_bytes: u64,
    /// Map-side internal spill bytes written (external sort).
    pub map_spill_bytes: u64,
    /// Reduce-side internal spill bytes written ("Reduce spill" rows).
    pub reduce_spill_bytes: u64,
    /// Job output bytes.
    pub output_bytes: u64,
    /// Snapshot output bytes (MapReduce Online's periodic outputs; zero
    /// unless snapshots were requested).
    pub snapshot_bytes: u64,
    /// Output record count.
    pub output_records: u64,
    /// CPU time consumed by map tasks, averaged per node ("Map CPU time
    /// per node").
    pub map_cpu_per_node: SimDuration,
    /// CPU time consumed by reduce tasks, averaged per node.
    pub reduce_cpu_per_node: SimDuration,
    /// Five-category I/O statistics (cluster-wide), covering everything
    /// the simulated devices served — including I/O re-done while
    /// recovering from injected faults.
    pub io: IoStats,
    /// The recovery-only share of [`JobMetrics::io`]: bytes and requests
    /// re-done by reduce-task re-replays after injected crashes. Always
    /// zero without fault injection. See [`JobMetrics::io_first_pass`].
    pub io_recovery: IoStats,
    /// DINC monitor statistics (only for `Framework::DincHash`).
    pub dinc: Option<DincStats>,
    /// Frequency-gated admission statistics (only when the LFU admission
    /// policy was enabled).
    pub admission: Option<AdmissionStats>,
    /// Fault-injection report: retries, wasted work, recovery time and the
    /// full failure trace. `None` when fault injection was disabled.
    pub faults: Option<opa_common::fault::FaultReport>,
    /// Bytes actually booked on the simulated network during the shuffle.
    /// Equals the post-task-combine map output volume under off/task
    /// scopes and the post-*node*-combine volume under node scope; the
    /// quantity the model's combiner-ratio term predicts.
    pub shuffle_bytes: u64,
    /// In-node combining statistics (only under `CombineScope::Node` with
    /// something to merge with).
    pub node_combine: Option<NodeCombineStats>,
}

impl JobMetrics {
    /// Reduce-spill reduction factor relative to another run — the paper's
    /// "3 orders of magnitude" headline is
    /// `sm.spill_reduction_vs(&dinc) ≈ 1000`.
    pub fn spill_reduction_vs(&self, other: &JobMetrics) -> f64 {
        if self.reduce_spill_bytes == 0 {
            return f64::INFINITY;
        }
        other.reduce_spill_bytes as f64 / self.reduce_spill_bytes as f64
    }

    /// Fault-free first-pass I/O: [`JobMetrics::io`] with the recovery
    /// re-replay traffic stripped back out. This is the quantity the §3
    /// model (Props. 3.1/3.2) predicts and the one the drift checker
    /// treats as authoritative — under fault injection, `io` alone
    /// double-counts recovered reduce-task work relative to the
    /// `reduce_spill_bytes`/`output_bytes` rows, which only ever count
    /// first-pass bytes (pinned in `tests/fault_recovery_semantics.rs`).
    pub fn io_first_pass(&self) -> IoStats {
        self.io.minus(&self.io_recovery)
    }
}

impl fmt::Display for JobMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} / {}", self.job, self.framework)?;
        writeln!(f, "  running time        {}", self.running_time)?;
        writeln!(f, "  map finish          {}", self.map_finish)?;
        writeln!(f, "  input               {}", ByteSize(self.input_bytes))?;
        writeln!(
            f,
            "  map output/shuffle  {}",
            ByteSize(self.map_output_bytes)
        )?;
        writeln!(
            f,
            "  map spill           {}",
            ByteSize(self.map_spill_bytes)
        )?;
        writeln!(
            f,
            "  reduce spill        {}",
            ByteSize(self.reduce_spill_bytes)
        )?;
        writeln!(
            f,
            "  output              {} ({} records)",
            ByteSize(self.output_bytes),
            self.output_records
        )?;
        writeln!(f, "  map CPU / node      {}", self.map_cpu_per_node)?;
        write!(f, "  reduce CPU / node   {}", self.reduce_cpu_per_node)?;
        if let Some(nc) = &self.node_combine {
            write!(
                f,
                "\n  node combine        {} staged -> {} shipped (ratio {:.3}, {} flushes, {} merges)",
                ByteSize(nc.staged_bytes),
                ByteSize(nc.flushed_bytes),
                nc.ratio(),
                nc.flushes,
                nc.merged_rows
            )?;
        }
        if let Some(rep) = &self.faults {
            write!(
                f,
                "\n  faults              {} fired / {} retries / {} wasted bytes / {} recovery",
                rep.trace.len(),
                rep.total_retries(),
                rep.wasted_bytes,
                rep.recovery_time
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(spill: u64) -> JobMetrics {
        JobMetrics {
            framework: "SM".into(),
            job: "sessionization".into(),
            running_time: SimTime::from_secs_f64(4860.0),
            map_finish: SimTime::from_secs_f64(2070.0),
            input_bytes: 256 << 20,
            map_output_bytes: 269 << 20,
            map_spill_bytes: 0,
            reduce_spill_bytes: spill,
            output_bytes: 256 << 20,
            snapshot_bytes: 0,
            output_records: 1000,
            map_cpu_per_node: SimDuration::from_secs_f64(936.0),
            reduce_cpu_per_node: SimDuration::from_secs_f64(1104.0),
            io: IoStats::new(),
            io_recovery: IoStats::new(),
            dinc: None,
            admission: None,
            faults: None,
            shuffle_bytes: 269 << 20,
            node_combine: None,
        }
    }

    #[test]
    fn node_combine_ratio() {
        let nc = NodeCombineStats {
            staged_bytes: 1000,
            flushed_bytes: 250,
            flushes: 3,
            merged_rows: 42,
        };
        assert!((nc.ratio() - 0.25).abs() < 1e-12);
        assert_eq!(NodeCombineStats::default().ratio(), 1.0);
    }

    #[test]
    fn spill_reduction_factor() {
        let dinc = sample(100 << 10); // 0.1 MB-scale
        let sm = sample(370 << 20); // 370 MB-scale
        let factor = dinc.spill_reduction_vs(&sm);
        assert!(factor > 3000.0, "{factor}");
        let zero = sample(0);
        assert!(zero.spill_reduction_vs(&sm).is_infinite());
    }

    #[test]
    fn display_contains_key_rows() {
        let s = sample(1).to_string();
        for needle in [
            "running time",
            "map output/shuffle",
            "reduce spill",
            "map CPU / node",
        ] {
            assert!(s.contains(needle), "missing {needle}");
        }
    }
}
