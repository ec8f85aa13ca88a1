//! Configuration structs mirroring the paper's Table 2.
//!
//! The same three structs parameterize both the analytical model
//! (`opa-model`) and the execution engine (`opa-core`), which is what lets
//! the `fig4a` experiment compare model predictions against simulated runs
//! under identical settings.
//!
//! | Table 2 symbol | Field |
//! |---|---|
//! | `R` | [`SystemSettings::reducers_per_node`] |
//! | `C` | [`SystemSettings::chunk_size`] |
//! | `F` | [`SystemSettings::merge_factor`] |
//! | `D` | [`WorkloadSpec::input_size`] |
//! | `K_m` | [`WorkloadSpec::km`] |
//! | `K_r` | [`WorkloadSpec::kr`] |
//! | `N` | [`HardwareSpec::nodes`] |
//! | `B_m` | [`HardwareSpec::map_buffer`] |
//! | `B_r` | [`HardwareSpec::reduce_buffer`] |

use crate::error::{Error, Result};
use crate::units::{KB, MB};

/// Part (1) of Table 2: tunable system settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemSettings {
    /// `R` — number of reduce tasks per node.
    pub reducers_per_node: usize,
    /// `C` — map input chunk size in bytes (the HDFS block size).
    pub chunk_size: u64,
    /// `F` — merge factor: a background merge of the smallest `F` on-disk
    /// files fires whenever the file count reaches `2F − 1`.
    pub merge_factor: usize,
}

impl SystemSettings {
    /// Hadoop 0.20 defaults at the paper's 1/1024 evaluation scale:
    /// 64 KB chunks (64 MB full-scale), merge factor 10, 4 reducers/node.
    pub fn stock_scaled() -> Self {
        SystemSettings {
            reducers_per_node: 4,
            chunk_size: 64 * KB,
            merge_factor: 10,
        }
    }

    /// Validates the settings.
    pub fn validate(&self) -> Result<()> {
        if self.reducers_per_node == 0 {
            return Err(Error::config("R (reducers per node) must be >= 1"));
        }
        if self.chunk_size == 0 {
            return Err(Error::config("C (chunk size) must be positive"));
        }
        if self.merge_factor < 2 {
            return Err(Error::config("F (merge factor) must be >= 2"));
        }
        Ok(())
    }
}

/// Part (2) of Table 2: the workload, as the model sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// `D` — total job input size in bytes.
    pub input_size: u64,
    /// `K_m` — map output bytes per input byte.
    pub km: f64,
    /// `K_r` — reduce output bytes per reduce-input byte.
    pub kr: f64,
}

impl WorkloadSpec {
    /// Builds a workload description.
    pub fn new(input_size: u64, km: f64, kr: f64) -> Self {
        WorkloadSpec { input_size, km, kr }
    }

    /// Validates the description.
    pub fn validate(&self) -> Result<()> {
        if self.input_size == 0 {
            return Err(Error::config("D (input size) must be positive"));
        }
        if self.km <= 0.0 || !self.km.is_finite() {
            return Err(Error::config("K_m must be finite and positive"));
        }
        if self.kr < 0.0 || !self.kr.is_finite() {
            return Err(Error::config("K_r must be finite and non-negative"));
        }
        Ok(())
    }

    /// Total map output bytes across the job (`D · K_m`).
    pub fn map_output_bytes(&self) -> u64 {
        (self.input_size as f64 * self.km).round() as u64
    }
}

/// Part (3) of Table 2: hardware resources.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareSpec {
    /// `N` — number of compute nodes in the cluster.
    pub nodes: usize,
    /// `B_m` — map-output buffer size per map task, in bytes.
    pub map_buffer: u64,
    /// `B_r` — shuffle buffer size per reduce task, in bytes.
    pub reduce_buffer: u64,
    /// Map task slots per node (4 in the paper's cluster: one per core).
    pub map_slots: usize,
    /// Reduce task slots per node (4 in the paper's cluster).
    pub reduce_slots: usize,
}

impl HardwareSpec {
    /// The paper's 10-node cluster at 1/1024 scale: `B_m`=140 KB,
    /// `B_r`=500 KB, 4 map and 4 reduce slots per node.
    pub fn paper_cluster_scaled() -> Self {
        HardwareSpec {
            nodes: 10,
            map_buffer: 140 * KB,
            reduce_buffer: 500 * KB,
            map_slots: 4,
            reduce_slots: 4,
        }
    }

    /// The same cluster at full (paper) scale, for model-only computations
    /// where nothing is executed: `B_m`=140 MB, `B_r`=500 MB.
    pub fn paper_cluster_full() -> Self {
        HardwareSpec {
            nodes: 10,
            map_buffer: 140 * MB,
            reduce_buffer: 500 * MB,
            map_slots: 4,
            reduce_slots: 4,
        }
    }

    /// Validates the resources.
    pub fn validate(&self) -> Result<()> {
        if self.nodes == 0 {
            return Err(Error::config("N (nodes) must be >= 1"));
        }
        if self.map_buffer == 0 || self.reduce_buffer == 0 {
            return Err(Error::config("B_m and B_r must be positive"));
        }
        if self.map_slots == 0 || self.reduce_slots == 0 {
            return Err(Error::config("map/reduce slots per node must be >= 1"));
        }
        Ok(())
    }
}

/// Execution-layer configuration: how much host parallelism the engine
/// may use. This is *host* concurrency (worker threads executing map
/// tasks and recording reducer work), entirely separate from the
/// simulated cluster's slots — results are bit-identical at any setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Total threads the engine may occupy, including the caller's
    /// thread. `1` means fully sequential execution.
    pub threads: usize,
    /// Allow more threads than the host has cores. Off by default:
    /// oversubscribed workers only time-slice against each other, so the
    /// engine silently degrades toward sequential execution instead of
    /// context-thrashing (results are bit-identical either way). Tests
    /// exercising the parallel machinery on small hosts turn this on via
    /// [`ExecConfig::oversubscribed`].
    pub oversubscribe: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig::sequential()
    }
}

impl ExecConfig {
    /// Single-threaded execution (the default).
    pub fn sequential() -> Self {
        ExecConfig {
            threads: 1,
            oversubscribe: false,
        }
    }

    /// One thread per available hardware core (falls back to sequential
    /// when the host refuses to say).
    pub fn available_parallelism() -> Self {
        ExecConfig {
            threads: host_parallelism(),
            oversubscribe: false,
        }
    }

    /// Explicit thread count, capped at the host's core count when the
    /// job actually runs (see [`ExecConfig::effective_threads`]).
    pub fn with_threads(threads: usize) -> Self {
        ExecConfig {
            threads,
            oversubscribe: false,
        }
    }

    /// Explicit thread count with the host-core cap disabled: exactly
    /// `threads` threads run even on a smaller host. Determinism tests
    /// use this so a 1-CPU CI runner still runs real worker threads.
    pub fn oversubscribed(threads: usize) -> Self {
        ExecConfig {
            threads,
            oversubscribe: true,
        }
    }

    /// The thread count the engine will actually use: `threads`, capped
    /// at the host's available parallelism unless oversubscription was
    /// requested explicitly. Never below 1.
    pub fn effective_threads(&self) -> usize {
        let t = self.threads.max(1);
        if self.oversubscribe {
            t
        } else {
            t.min(host_parallelism())
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.threads == 0 {
            return Err(Error::config("threads must be >= 1"));
        }
        Ok(())
    }
}

/// Reduce-side admission policy for the INC/DINC in-memory key→state
/// tables: what happens when a key arrives and the table is full.
///
/// - [`AdmissionPolicy::Off`] is the paper's behavior (first-come
///   occupancy): the first keys to arrive keep their slots forever and
///   every later key spills. This is the default, and with it the engine
///   is byte-identical to an engine built without the admission manager.
/// - [`AdmissionPolicy::Lfu`] gates occupancy by estimated frequency: a
///   TinyLFU-style [`crate::sketch::FreqSketch`] tracks arrival counts,
///   and a newly arriving key may evict a colder resident key (the
///   victim's state is routed through the existing spill path) instead
///   of spilling itself. Decisions are pure functions of the delivered
///   data order, so the engine's bit-identical determinism across thread
///   counts is preserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// First-come occupancy (the paper's behavior; default).
    #[default]
    Off,
    /// Frequency-gated admission with sketch-chosen evictions.
    Lfu,
}

impl AdmissionPolicy {
    /// Whether frequency-gated admission is active.
    pub fn is_on(&self) -> bool {
        matches!(self, AdmissionPolicy::Lfu)
    }

    /// Parses a CLI spelling: `off` or `lfu`.
    ///
    /// # Errors
    /// Fails on any other spelling.
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "off" => Ok(AdmissionPolicy::Off),
            "lfu" => Ok(AdmissionPolicy::Lfu),
            other => Err(Error::config(format!(
                "unknown admission policy '{other}' (expected off or lfu)"
            ))),
        }
    }

    /// Stable wire/CLI label (`off` / `lfu`).
    pub fn label(&self) -> &'static str {
        match self {
            AdmissionPolicy::Off => "off",
            AdmissionPolicy::Lfu => "lfu",
        }
    }
}

/// Where map-output combining happens before shuffle bytes are booked.
///
/// - [`CombineScope::Task`] is the engine's historical behavior (default):
///   each map task runs the job's [`Combiner`](../../opa_core/api/trait.Combiner.html)
///   over its own output before emitting shuffle granules. Cross-task
///   redundancy on a node is left intact.
/// - [`CombineScope::Node`] layers a node-level staging table on top:
///   granules from *all map tasks scheduled on the same simulated node*
///   are merged through the combiner in a per-node hash-indexed table and
///   flushed at deterministic scheduler-side points (node drained, or the
///   staging-byte budget exceeded), so the same key emitted by many tasks
///   of one node crosses the network once per flush instead of once per
///   task.
/// - [`CombineScope::Off`] disables even the per-task combiner for the
///   materializing frameworks (sort-merge / MR-hash), shipping raw map
///   output. The incremental frameworks fold on arrival by construction,
///   so for them `Off` behaves like `Task`.
///
/// Flush decisions are pure functions of the scheduler's event order, so
/// output and `JobOutcome` stay bit-identical at any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CombineScope {
    /// No combining anywhere: raw map output is shuffled.
    Off,
    /// Per-map-task combining (the engine's historical behavior; default).
    #[default]
    Task,
    /// Per-task combining plus a node-level pre-shuffle staging table.
    Node,
}

impl CombineScope {
    /// Whether the per-task combiner should run inside map tasks.
    pub fn task_combining(&self) -> bool {
        !matches!(self, CombineScope::Off)
    }

    /// Whether the scheduler stages granules in the per-node table.
    pub fn is_node(&self) -> bool {
        matches!(self, CombineScope::Node)
    }

    /// Parses a CLI spelling: `off`, `task` or `node`.
    ///
    /// # Errors
    /// Fails on any other spelling.
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "off" => Ok(CombineScope::Off),
            "task" => Ok(CombineScope::Task),
            "node" => Ok(CombineScope::Node),
            other => Err(Error::config(format!(
                "unknown combine scope '{other}' (expected off, task or node)"
            ))),
        }
    }

    /// Stable wire/CLI label (`off` / `task` / `node`).
    pub fn label(&self) -> &'static str {
        match self {
            CombineScope::Off => "off",
            CombineScope::Task => "task",
            CombineScope::Node => "node",
        }
    }
}

/// The host's core count as reported by the OS (1 when unknown), read
/// once per process: on Linux the OS answer comes from cgroup files, and an
/// engine asks on every build.
fn host_parallelism() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_config_defaults_and_validation() {
        assert_eq!(ExecConfig::default().threads, 1);
        assert!(ExecConfig::sequential().validate().is_ok());
        assert!(ExecConfig::available_parallelism().threads >= 1);
        assert!(ExecConfig::with_threads(8).validate().is_ok());
        assert!(matches!(
            ExecConfig {
                threads: 0,
                oversubscribe: false
            }
            .validate(),
            Err(Error::InvalidConfig(_))
        ));
    }

    #[test]
    fn effective_threads_caps_to_host_unless_oversubscribed() {
        let host = host_parallelism();
        // An absurd request degrades to the host's real parallelism…
        assert_eq!(
            ExecConfig::with_threads(4096).effective_threads(),
            host,
            "capped request must land on the host core count"
        );
        // …unless oversubscription is explicit.
        assert_eq!(ExecConfig::oversubscribed(4096).effective_threads(), 4096);
        // Requests at or below the host pass through untouched.
        assert_eq!(ExecConfig::with_threads(1).effective_threads(), 1);
        assert_eq!(
            ExecConfig::with_threads(host).effective_threads(),
            host.min(host_parallelism())
        );
    }

    #[test]
    fn stock_settings_validate() {
        assert!(SystemSettings::stock_scaled().validate().is_ok());
        assert!(HardwareSpec::paper_cluster_scaled().validate().is_ok());
        assert!(WorkloadSpec::new(MB, 1.0, 1.0).validate().is_ok());
    }

    #[test]
    fn invalid_merge_factor_rejected() {
        let mut s = SystemSettings::stock_scaled();
        s.merge_factor = 1;
        assert!(matches!(s.validate(), Err(Error::InvalidConfig(_))));
    }

    #[test]
    fn zero_everything_rejected() {
        let s = SystemSettings {
            reducers_per_node: 0,
            chunk_size: 0,
            merge_factor: 10,
        };
        assert!(s.validate().is_err());
        let h = HardwareSpec {
            nodes: 0,
            ..HardwareSpec::paper_cluster_scaled()
        };
        assert!(h.validate().is_err());
        assert!(WorkloadSpec::new(0, 1.0, 1.0).validate().is_err());
    }

    #[test]
    fn nan_ratios_rejected() {
        assert!(WorkloadSpec::new(MB, f64::NAN, 1.0).validate().is_err());
        assert!(WorkloadSpec::new(MB, 1.0, f64::INFINITY)
            .validate()
            .is_err());
        assert!(WorkloadSpec::new(MB, -1.0, 1.0).validate().is_err());
    }

    #[test]
    fn combine_scope_parse_and_labels() {
        assert_eq!(CombineScope::parse("off").unwrap(), CombineScope::Off);
        assert_eq!(CombineScope::parse("task").unwrap(), CombineScope::Task);
        assert_eq!(CombineScope::parse("node").unwrap(), CombineScope::Node);
        assert!(CombineScope::parse("cluster").is_err());
        assert_eq!(CombineScope::default(), CombineScope::Task);
        assert!(CombineScope::Task.task_combining());
        assert!(!CombineScope::Off.task_combining());
        assert!(CombineScope::Node.is_node());
        assert!(!CombineScope::Task.is_node());
        for s in [CombineScope::Off, CombineScope::Task, CombineScope::Node] {
            assert_eq!(CombineScope::parse(s.label()).unwrap(), s);
        }
    }

    #[test]
    fn admission_policy_has_one_spelling_per_value() {
        for p in [AdmissionPolicy::Off, AdmissionPolicy::Lfu] {
            assert_eq!(AdmissionPolicy::parse(p.label()).unwrap(), p);
        }
        assert!(AdmissionPolicy::parse("on").is_err());
    }

    #[test]
    fn map_output_bytes_scales_by_km() {
        let w = WorkloadSpec::new(100 * MB, 0.5, 1.0);
        assert_eq!(w.map_output_bytes(), 50 * MB);
    }
}
