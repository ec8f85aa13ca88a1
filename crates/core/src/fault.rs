//! Deterministic fault scheduling for one job run.
//!
//! A [`FaultPlan`] turns a [`FaultConfig`] into concrete per-entity
//! decisions: which map-task attempts fail (and how far through their
//! chunk), which attempts straggle, and which reduce tasks crash on which
//! delivery. Every decision is a pure hash of `(seed, kind, entity,
//! attempt)` via [`opa_common::fault::decision`] — no shared RNG stream —
//! so the failure trace is a function of the seed alone, independent of
//! event interleaving and execution-layer thread count.
//!
//! Recovery semantics live in the scheduler (`crate::job`):
//!
//! - **map failure** — the attempt's plan prefix is charged as waste
//!   ([`crate::map_phase::abort_map_task`]) and a retry is scheduled after
//!   exponential backoff, reusing the stashed pure plan;
//! - **straggler** — the slow attempt runs to completion at `factor×` CPU
//!   cost with its output discarded, while a speculative backup launched at
//!   the nominal-duration horizon supplies the real granules;
//! - **reduce crash** — the reducer re-replays its recorded [`Effect`]
//!   history in time-only mode ([`crate::reduce::replay_recovery`]) before
//!   absorbing the delivery that found it dead;
//! - **spill-disk error** — handled below the plan, inside
//!   [`crate::sim::Resources`] via [`opa_simio::DiskFaultInjector`].
//!
//! Retries are bounded: attempt `max_retries` (and beyond) of any entity
//! is forced to succeed, so every faulted job terminates.
//!
//! [`Effect`]: crate::reduce::Effect

use opa_common::fault::{decision, FaultConfig, FaultKind};

/// What happens to one map-task attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MapFate {
    /// The attempt runs to a successful completion.
    Ok,
    /// The attempt dies after completing `frac` of its operations.
    Fail {
        /// Fraction of the plan's operations charged before the death.
        frac: f64,
    },
    /// The attempt straggles at `factor×` CPU cost; a speculative backup
    /// is launched and wins.
    Straggle {
        /// CPU slowdown factor.
        factor: f64,
    },
}

/// The job-wide fault schedule. Cheap to copy; all state is the config.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    cfg: FaultConfig,
}

impl FaultPlan {
    /// Builds the plan for a validated config.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultPlan { cfg }
    }

    /// Decides the fate of attempt `attempt` of the map task for `chunk`.
    /// Attempts at or past `max_retries` always succeed (bounded retry);
    /// only the first attempt may straggle — a speculative backup is
    /// already the recovery for a straggler, re-speculating on the backup
    /// would not model anything new.
    pub fn map_fate(&self, chunk: usize, attempt: u32) -> MapFate {
        if attempt >= self.cfg.max_retries {
            return MapFate::Ok;
        }
        let id = chunk as u64;
        let roll = decision(self.cfg.seed, FaultKind::MapFailure, id, u64::from(attempt));
        if roll < self.cfg.map_failure_rate {
            // Reuse the roll's fractional position within the accepted
            // band as the death point: still a pure function of identity.
            let frac = 0.1 + 0.8 * (roll / self.cfg.map_failure_rate);
            return MapFate::Fail { frac };
        }
        if attempt == 0 {
            let s = decision(self.cfg.seed, FaultKind::Straggler, id, 0);
            if s < self.cfg.straggler_rate {
                return MapFate::Straggle {
                    factor: self.cfg.straggler_factor,
                };
            }
        }
        MapFate::Ok
    }

    /// Whether the reduce task `reducer` crashes while absorbing its
    /// `delivery`-th delivery, given it has crashed `crashes` times
    /// already. Bounded by `max_retries` crashes per reducer.
    pub fn reduce_crashes(&self, reducer: usize, delivery: u64, crashes: u32) -> bool {
        if crashes >= self.cfg.max_retries {
            return false;
        }
        // The delivery ordinal is folded into the target so each delivery
        // is an independent trial; the crash count is the attempt axis.
        let id = (reducer as u64) << 32 | (delivery & 0xffff_ffff);
        decision(
            self.cfg.seed,
            FaultKind::ReduceFailure,
            id,
            u64::from(crashes),
        ) < self.cfg.reduce_failure_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(rate: f64) -> FaultPlan {
        FaultPlan::new(FaultConfig::uniform(99, rate))
    }

    #[test]
    fn disabled_plan_never_fires() {
        let p = plan(0.0);
        for chunk in 0..200 {
            assert_eq!(p.map_fate(chunk, 0), MapFate::Ok);
            assert!(!p.reduce_crashes(chunk, 0, 0));
        }
    }

    #[test]
    fn fates_are_pure_functions_of_identity() {
        let p = plan(0.3);
        for chunk in 0..50 {
            assert_eq!(p.map_fate(chunk, 0), p.map_fate(chunk, 0));
            assert_eq!(p.map_fate(chunk, 1), p.map_fate(chunk, 1));
        }
    }

    #[test]
    fn rates_are_roughly_honored() {
        let p = plan(0.25);
        let fails = (0..4000)
            .filter(|&c| matches!(p.map_fate(c, 0), MapFate::Fail { .. }))
            .count();
        assert!((800..1200).contains(&fails), "~25% failures, got {fails}");
    }

    #[test]
    fn retries_are_bounded_by_config() {
        let mut cfg = FaultConfig::uniform(7, 0.999);
        cfg.max_retries = 2;
        let p = FaultPlan::new(cfg);
        for chunk in 0..100 {
            assert_eq!(p.map_fate(chunk, 2), MapFate::Ok, "attempt 2 must pass");
            assert!(!p.reduce_crashes(chunk, 5, 2), "3rd crash is forbidden");
        }
    }

    #[test]
    fn only_first_attempts_straggle() {
        let mut cfg = FaultConfig::uniform(3, 0.0);
        cfg.straggler_rate = 0.9;
        let p = FaultPlan::new(cfg);
        let first: usize = (0..100)
            .filter(|&c| matches!(p.map_fate(c, 0), MapFate::Straggle { .. }))
            .count();
        assert!(first > 50, "high straggler rate must fire: {first}");
        for chunk in 0..100 {
            assert!(
                !matches!(p.map_fate(chunk, 1), MapFate::Straggle { .. }),
                "retries must not straggle"
            );
        }
    }

    #[test]
    fn failure_fraction_stays_interior() {
        let p = plan(0.5);
        for chunk in 0..2000 {
            if let MapFate::Fail { frac } = p.map_fate(chunk, 0) {
                assert!((0.1..=0.9).contains(&frac), "frac {frac} out of band");
            }
        }
    }
}
