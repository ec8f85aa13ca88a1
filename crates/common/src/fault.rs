//! Fault-injection vocabulary shared across the platform.
//!
//! The engine (`opa-core`) schedules map/reduce failures and stragglers;
//! the storage substrate (`opa-simio`) injects spill-disk I/O errors. Both
//! speak the types defined here: a [`FaultConfig`] saying *how much* of
//! each fault class to inject, [`FaultEvent`]s recording *what fired and
//! when*, and a [`FaultReport`] aggregating the recovery cost a job paid.
//!
//! Every fault decision is a pure function of `(seed, kind, target,
//! attempt)` — hashed through [`crate::rng::SplitMix64`] — never of a
//! shared RNG stream, so the same seed reproduces the identical failure
//! trace regardless of scheduling interleavings or execution-layer thread
//! count.

use crate::error::{Error, Result};
use crate::units::{SimDuration, SimTime};

/// How much fault injection a job run should experience. All rates are
/// probabilities in `[0, 1)`; the all-zero config (the default) disables
/// the subsystem entirely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed for the deterministic per-decision hash.
    pub seed: u64,
    /// Probability that a map-task attempt fails partway through.
    pub map_failure_rate: f64,
    /// Probability that a reduce task crashes while absorbing a delivery.
    pub reduce_failure_rate: f64,
    /// Probability that a map task straggles (runs `straggler_factor`×
    /// slower and is speculatively re-executed).
    pub straggler_rate: f64,
    /// CPU slowdown factor applied to straggling map attempts (> 1).
    pub straggler_factor: f64,
    /// Probability that one spill-disk I/O operation fails and must be
    /// retried.
    pub spill_error_rate: f64,
    /// Probability that a map UDF deterministically rejects one input
    /// record (per-record poison). Unlike the crash classes above, a
    /// poisoned record is never retried: it is quarantined to the
    /// dead-letter queue with full provenance and the job completes
    /// without it. Deliberately *not* part of [`FaultConfig::uniform`] —
    /// poison removes records from the output, so it would break the
    /// "fault runs produce fault-free output" recovery invariant the
    /// crash classes guarantee.
    pub udf_poison_rate: f64,
    /// Maximum retries per failing entity before the fault plan forces
    /// success (bounds recovery work; must be ≥ 1 when any rate is set).
    pub max_retries: u32,
    /// Base retry backoff in virtual seconds; attempt `n` waits
    /// `backoff × 2ⁿ`.
    pub retry_backoff_secs: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::disabled()
    }
}

impl FaultConfig {
    /// No fault injection at all.
    pub fn disabled() -> Self {
        FaultConfig {
            seed: 0,
            map_failure_rate: 0.0,
            reduce_failure_rate: 0.0,
            straggler_rate: 0.0,
            straggler_factor: 3.0,
            spill_error_rate: 0.0,
            udf_poison_rate: 0.0,
            max_retries: 3,
            retry_backoff_secs: 1.0,
        }
    }

    /// Per-record UDF poison only: every other fault class stays off.
    /// This is the CLI's `--poison-rate` and the dead-letter-queue test
    /// configuration.
    pub fn poison(seed: u64, rate: f64) -> Self {
        FaultConfig {
            seed,
            udf_poison_rate: rate,
            ..FaultConfig::disabled()
        }
    }

    /// Every fault class at the same `rate` — the CLI's `--fault-rate`
    /// and the test harness's sweep configuration.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultConfig {
            seed,
            map_failure_rate: rate,
            reduce_failure_rate: rate,
            straggler_rate: rate,
            spill_error_rate: rate,
            ..FaultConfig::disabled()
        }
    }

    /// Whether any crash/straggler fault class can fire. Record poison is
    /// deliberately excluded: it needs no fault plan, no retries and no
    /// recovery machinery — see [`FaultConfig::poison_enabled`].
    pub fn enabled(&self) -> bool {
        self.map_failure_rate > 0.0
            || self.reduce_failure_rate > 0.0
            || self.straggler_rate > 0.0
            || self.spill_error_rate > 0.0
    }

    /// Whether per-record UDF poison can fire.
    pub fn poison_enabled(&self) -> bool {
        self.udf_poison_rate > 0.0
    }

    /// Checks every field for sanity.
    pub fn validate(&self) -> Result<()> {
        for (name, rate) in [
            ("map_failure_rate", self.map_failure_rate),
            ("reduce_failure_rate", self.reduce_failure_rate),
            ("straggler_rate", self.straggler_rate),
            ("spill_error_rate", self.spill_error_rate),
            ("udf_poison_rate", self.udf_poison_rate),
        ] {
            if !rate.is_finite() || !(0.0..1.0).contains(&rate) {
                return Err(Error::config(format!(
                    "fault {name} must be a probability in [0, 1), got {rate}"
                )));
            }
        }
        if !self.straggler_factor.is_finite() || self.straggler_factor <= 1.0 {
            return Err(Error::config(format!(
                "straggler_factor must be > 1, got {}",
                self.straggler_factor
            )));
        }
        if !self.retry_backoff_secs.is_finite() || self.retry_backoff_secs < 0.0 {
            return Err(Error::config(format!(
                "retry_backoff_secs must be non-negative, got {}",
                self.retry_backoff_secs
            )));
        }
        if self.enabled() && self.max_retries == 0 {
            return Err(Error::config(
                "max_retries must be ≥ 1 when fault injection is enabled",
            ));
        }
        Ok(())
    }

    /// Whether the record at global input `offset` is poisoned under this
    /// config. Pure in `(seed, offset)` — the same record poisons on every
    /// attempt, on every thread, in every interleaving, which is what
    /// makes quarantine (rather than retry) the only sane disposition.
    pub fn poisons(&self, offset: u64) -> bool {
        self.udf_poison_rate > 0.0
            && decision(self.seed, FaultKind::UdfPoison, offset, 0) < self.udf_poison_rate
    }

    /// Backoff before retry attempt `attempt` (1-based): `base × 2^(n−1)`.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let exp = attempt.saturating_sub(1).min(16);
        SimDuration::from_secs_f64(self.retry_backoff_secs * f64::from(1u32 << exp))
    }
}

/// The classes of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// A map-task attempt died partway through its chunk.
    MapFailure,
    /// A map task ran slow and was speculatively re-executed.
    Straggler,
    /// A reduce task crashed while absorbing a shuffle delivery.
    ReduceFailure,
    /// A spill-disk I/O operation failed and was retried.
    SpillError,
    /// A map UDF deterministically rejected one input record; the record
    /// was quarantined to the dead-letter queue instead of failing the
    /// job. `target` is the record's global input offset.
    UdfPoison,
}

/// One fault firing, for the reproducible failure trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Virtual time at which the fault fired.
    pub time: SimTime,
    /// Fault class.
    pub kind: FaultKind,
    /// The afflicted entity: chunk index for map faults, reducer index for
    /// reduce faults, operation ordinal for disk faults.
    pub target: u64,
    /// Which attempt of the entity failed (0 = first execution).
    pub attempt: u32,
}

/// Aggregated recovery cost of one job run, surfaced in `JobMetrics`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultReport {
    /// Map-task attempts that failed.
    pub map_failures: u64,
    /// Map-task re-executions scheduled after failures.
    pub map_retries: u64,
    /// Map tasks that straggled.
    pub stragglers: u64,
    /// Speculative backup attempts whose output won over a straggler's.
    pub speculative_wins: u64,
    /// Reduce-task crashes.
    pub reduce_failures: u64,
    /// Spill-disk I/O operations that failed (each retried in place).
    pub spill_io_errors: u64,
    /// Input records rejected by the map UDF and quarantined to the
    /// dead-letter queue.
    pub udf_poisoned: u64,
    /// Bytes written or shipped by work that was later thrown away.
    pub wasted_bytes: u64,
    /// CPU time burned by attempts whose results were discarded.
    pub wasted_cpu: SimDuration,
    /// Virtual time spent detecting faults, backing off and re-executing.
    pub recovery_time: SimDuration,
    /// Every fault firing, ordered by (time, kind, target, attempt).
    pub trace: Vec<FaultEvent>,
}

impl FaultReport {
    /// Whether any fault fired during the run.
    pub fn any_fired(&self) -> bool {
        !self.trace.is_empty()
    }

    /// Total retries across every fault class.
    pub fn total_retries(&self) -> u64 {
        self.map_retries + self.reduce_failures + self.spill_io_errors
    }

    /// Canonicalizes the trace ordering (events are gathered from the
    /// engine and the disk layer independently).
    pub fn sort_trace(&mut self) {
        self.trace
            .sort_by_key(|e| (e.time, e.kind, e.target, e.attempt));
    }
}

/// Hashes a fault decision identity to a uniform `f64` in `[0, 1)`.
/// Pure: depends only on the four inputs, never on call order.
pub fn decision(seed: u64, kind: FaultKind, target: u64, attempt: u64) -> f64 {
    let k = match kind {
        FaultKind::MapFailure => 0x6d61_7066u64,
        FaultKind::Straggler => 0x7374_7261u64,
        FaultKind::ReduceFailure => 0x7265_6475u64,
        FaultKind::SpillError => 0x7370_696cu64,
        FaultKind::UdfPoison => 0x706f_6973u64,
    };
    let mixed = seed
        .wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(target.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(attempt.wrapping_mul(0x94d0_49bb_1331_11eb));
    let mut rng = crate::rng::SplitMix64::new(mixed);
    rng.next();
    rng.next_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_is_valid_and_inert() {
        let cfg = FaultConfig::disabled();
        assert!(!cfg.enabled());
        cfg.validate().expect("disabled config is valid");
        assert_eq!(cfg, FaultConfig::default());
    }

    #[test]
    fn uniform_config_enables_every_class() {
        let cfg = FaultConfig::uniform(7, 0.1);
        assert!(cfg.enabled());
        cfg.validate().expect("uniform config is valid");
        assert_eq!(cfg.map_failure_rate, 0.1);
        assert_eq!(cfg.spill_error_rate, 0.1);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = FaultConfig::uniform(1, 0.5);
        cfg.map_failure_rate = 1.0;
        assert!(cfg.validate().is_err(), "rate 1.0 would loop forever");
        let mut cfg = FaultConfig::uniform(1, 0.5);
        cfg.straggler_rate = f64::NAN;
        assert!(cfg.validate().is_err());
        let mut cfg = FaultConfig::uniform(1, 0.5);
        cfg.straggler_factor = 1.0;
        assert!(cfg.validate().is_err(), "factor 1 is not a slowdown");
        let mut cfg = FaultConfig::uniform(1, 0.5);
        cfg.max_retries = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = FaultConfig::uniform(1, 0.5);
        cfg.retry_backoff_secs = -1.0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn backoff_doubles_per_attempt() {
        let cfg = FaultConfig::uniform(1, 0.1);
        assert_eq!(cfg.backoff(1).as_secs_f64(), 1.0);
        assert_eq!(cfg.backoff(2).as_secs_f64(), 2.0);
        assert_eq!(cfg.backoff(3).as_secs_f64(), 4.0);
    }

    #[test]
    fn decisions_are_pure_and_spread() {
        let a = decision(42, FaultKind::MapFailure, 3, 0);
        let b = decision(42, FaultKind::MapFailure, 3, 0);
        assert_eq!(a, b, "same identity, same decision");
        assert_ne!(
            decision(42, FaultKind::MapFailure, 3, 0),
            decision(42, FaultKind::Straggler, 3, 0),
            "kind participates in the hash"
        );
        // Roughly uniform across targets.
        let hits = (0..10_000)
            .filter(|&t| decision(9, FaultKind::SpillError, t, 0) < 0.25)
            .count();
        assert!((2000..3000).contains(&hits), "skewed decisions: {hits}");
    }

    #[test]
    fn poison_is_orthogonal_to_crash_classes() {
        let cfg = FaultConfig::poison(11, 0.05);
        assert!(!cfg.enabled(), "poison must not arm the crash fault plan");
        assert!(cfg.poison_enabled());
        cfg.validate().expect("poison config is valid");
        assert!(
            !FaultConfig::uniform(11, 0.2).poison_enabled(),
            "uniform() must not poison: it would break crash-recovery output identity"
        );
        let mut cfg = cfg;
        cfg.udf_poison_rate = 1.0;
        assert!(cfg.validate().is_err(), "rate 1.0 would drop every record");
    }

    #[test]
    fn poison_decisions_are_stable_per_offset() {
        let cfg = FaultConfig::poison(99, 0.1);
        let hits: Vec<u64> = (0..10_000).filter(|&o| cfg.poisons(o)).collect();
        assert!((800..1200).contains(&hits.len()), "skewed: {}", hits.len());
        for &o in &hits {
            assert!(cfg.poisons(o), "same offset, same verdict");
        }
        let other = FaultConfig::poison(100, 0.1);
        assert_ne!(
            hits,
            (0..10_000)
                .filter(|&o| other.poisons(o))
                .collect::<Vec<_>>(),
            "seed participates in the poison hash"
        );
        assert!(!FaultConfig::disabled().poisons(hits[0]));
    }

    #[test]
    fn report_counts_and_trace() {
        let mut rep = FaultReport::default();
        assert!(!rep.any_fired());
        rep.trace.push(FaultEvent {
            time: SimTime::from_secs_f64(2.0),
            kind: FaultKind::SpillError,
            target: 5,
            attempt: 0,
        });
        rep.trace.push(FaultEvent {
            time: SimTime::from_secs_f64(1.0),
            kind: FaultKind::MapFailure,
            target: 1,
            attempt: 0,
        });
        rep.sort_trace();
        assert!(rep.any_fired());
        assert_eq!(rep.trace[0].kind, FaultKind::MapFailure);
        rep.map_retries = 2;
        rep.spill_io_errors = 1;
        assert_eq!(rep.total_retries(), 3);
    }
}
