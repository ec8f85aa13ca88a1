//! Property-based tests for the frequency-monitoring substrate: the
//! FREQUENT and SpaceSaving guarantees must hold for *arbitrary* streams,
//! not just the hand-built ones in the unit tests. The properties both
//! algorithms share run every case under both monitor kinds.

use opa_freq::{MgOutcome, MisraGries, MonitorKind};
use proptest::prelude::*;
use std::collections::HashMap;

/// Both kinds of monitor: the shared properties run each case on both.
const KINDS: [MonitorKind; 2] = [MonitorKind::Frequent, MonitorKind::SpaceSaving];

fn true_counts(stream: &[u8]) -> HashMap<u8, u64> {
    let mut m = HashMap::new();
    for &k in stream {
        *m.entry(k).or_default() += 1;
    }
    m
}

proptest! {
    /// Misra-Gries frequency estimates never overestimate and undershoot
    /// by at most M/(s+1).
    #[test]
    fn mg_error_bound(
        stream in proptest::collection::vec(0u8..40, 1..2000),
        s in 1usize..20,
    ) {
        let mut mg: MisraGries<u8, ()> = MisraGries::new(s);
        for &k in &stream {
            let _ = mg.offer(k, (), |_, _, _| {});
        }
        let m = stream.len() as u64;
        for (&k, &f) in &true_counts(&stream) {
            let est = mg.estimate(&k);
            prop_assert!(est <= f, "overestimate: key {k} est {est} > true {f}");
            prop_assert!(
                est + m / (s as u64 + 1) >= f,
                "bound violated: key {k} est {est}, true {f}, slack {}",
                m / (s as u64 + 1)
            );
        }
    }

    /// The monitor never holds more than `s` keys, and every offered tuple
    /// is classified exactly once (combined + installed + rejected = M).
    #[test]
    fn mg_conservation(
        stream in proptest::collection::vec(0u8..60, 1..1500),
        s in 1usize..12,
    ) {
        for kind in KINDS {
            let mut mg: MisraGries<u8, u64> = MisraGries::with_kind(kind, s);
            let (mut combined, mut installed, mut rejected) = (0u64, 0u64, 0u64);
            for &k in &stream {
                match mg.offer(k, 1, |_, a, b| *a += b) {
                    MgOutcome::Combined => combined += 1,
                    MgOutcome::Installed { .. } => installed += 1,
                    MgOutcome::Rejected { .. } => rejected += 1,
                }
                prop_assert!(mg.len() <= s);
            }
            prop_assert_eq!(combined + installed + rejected, stream.len() as u64);
            prop_assert_eq!(mg.offered(), stream.len() as u64);
        }
    }

    /// Attached states absorb exactly the tuples reported as Combined or
    /// Installed: summing all monitored + evicted + rejected masses
    /// reconstructs the stream length.
    #[test]
    fn mg_state_mass_conservation(
        stream in proptest::collection::vec(0u8..30, 1..1000),
        s in 1usize..10,
    ) {
        for kind in KINDS {
            let mut mg: MisraGries<u8, u64> = MisraGries::with_kind(kind, s);
            let mut outside = 0u64; // mass spilled via eviction or rejection
            for &k in &stream {
                match mg.offer(k, 1, |_, a, b| *a += b) {
                    MgOutcome::Combined | MgOutcome::Installed { evicted: None } => {}
                    MgOutcome::Installed { evicted: Some(e) } => outside += e.state,
                    MgOutcome::Rejected { state, .. } => outside += state,
                }
            }
            let resident: u64 = mg.drain().into_iter().map(|e| e.state).sum();
            prop_assert_eq!(resident + outside, stream.len() as u64);
        }
    }

    /// A guard that always vetoes means no occupant is ever displaced.
    #[test]
    fn mg_guard_protects_occupants(
        stream in proptest::collection::vec(0u8..50, 1..800),
        s in 1usize..6,
    ) {
        for kind in KINDS {
            let mut mg: MisraGries<u8, ()> = MisraGries::with_kind(kind, s);
            let mut first_keys: Vec<u8> = Vec::new();
            for &k in &stream {
                let before: Vec<u8> = first_keys.clone();
                let out = mg.offer_guarded(k, (), |_, _, _| {}, |_, _| false);
                if matches!(out, MgOutcome::Installed { .. }) {
                    first_keys.push(k);
                }
                // Every previously installed key must still be monitored.
                for fk in &before {
                    prop_assert!(mg.get(fk).is_some(), "guarded occupant {fk} was displaced");
                }
            }
            prop_assert!(first_keys.len() <= s);
        }
    }

    /// Coverage lower bound never exceeds the true coverage t/f.
    #[test]
    fn mg_coverage_is_lower_bound(
        stream in proptest::collection::vec(0u8..20, 10..1500),
        s in 2usize..10,
    ) {
        for kind in KINDS {
            let mut mg: MisraGries<u8, ()> = MisraGries::with_kind(kind, s);
            for &k in &stream {
                let _ = mg.offer(k, (), |_, _, _| {});
            }
            let truth = true_counts(&stream);
            for (&k, &f) in &truth {
                let gamma = mg.coverage_lower_bound(&k);
                if let Some(e) = mg.get(&k) {
                    let true_cov = e.t as f64 / f as f64;
                    prop_assert!(
                        gamma <= true_cov + 1e-9,
                        "γ {gamma} exceeds true coverage {true_cov} for key {k}"
                    );
                } else {
                    prop_assert_eq!(gamma, 0.0);
                }
            }
        }
    }

    /// SpaceSaving estimates always dominate true counts, within M/s, and
    /// `t` (count − error) lower-bounds them.
    #[test]
    fn space_saving_bounds(
        stream in proptest::collection::vec(0u8..40, 1..1500),
        s in 1usize..12,
    ) {
        let mut ss = MisraGries::with_kind(MonitorKind::SpaceSaving, s);
        for &k in &stream {
            let _ = ss.offer(k, (), |_, _, _| {});
        }
        let m = stream.len() as u64;
        for e in ss.iter() {
            let f = true_counts(&stream)[&e.key];
            prop_assert!(e.count >= f);
            prop_assert!(e.count <= f + m / s as u64);
            prop_assert!(e.t <= f, "count − error must lower-bound truth");
        }
    }
}
